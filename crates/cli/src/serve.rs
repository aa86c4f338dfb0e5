//! `pamdc serve` — run the MAPE loop live off a tailed demand feed.
//!
//! The daemon polls the feed through a [`TailSource`] and builds its
//! [`Controller`] over the feed's header shape (a [`DemandTrace`] with
//! no flows, replayed through [`TraceSource::new`]), so the controller
//! never samples demand itself. Every poll that surfaces a fully-written
//! tick is consumed with one `step` on that tick's flows
//! (`StepDemand::Flows`), a JSONL status line is appended, and — on the
//! snapshot cadence — the whole session is checkpointed to disk.
//! Because no serialization library is available, the durable snapshot
//! *is* a replayable log:
//!
//! - `recorded.csv` — every consumed tick, in the strict trace schema
//!   (with `# ticks`), so the session can be re-executed offline.
//! - `spec.toml` — the exact spec (post feed-shape fixups) that drove
//!   the run.
//! - `session.json` — a one-line manifest naming the ticks whose
//!   scheduling round ran below full fidelity under deadline pressure
//!   (`trimmed_ticks` for the middle rung, `degraded_ticks` for
//!   bestfit-only).
//! - `status.jsonl` — one `serve_tick` line per live tick.
//!
//! A restarted daemon reads the session back ([`Session::read`]) and
//! re-steps it at its recorded rungs before touching the feed, so it
//! resumes bit-identical to a never-killed run. `pamdc replay
//! --manifest session.json` builds its controller the same way, runs
//! the same re-step loop offline and reproduces the live session's
//! final report exactly.

use crate::outcome_report;
use pamdc_core::prelude::*;
use pamdc_obs::trace as obstrace;
use pamdc_obs::Counter;
use pamdc_scenario::build;
use pamdc_scenario::runner::SpecReport;
use pamdc_scenario::spec::ScenarioSpec;
use pamdc_workload::prelude::{DemandTrace, TailSource, TraceSource};
use std::io::Write;
use std::path::{Path, PathBuf};

/// How the daemon was invoked (flags, resolved paths).
pub struct ServeConfig {
    /// The append-only demand CSV to tail.
    pub feed: PathBuf,
    /// Session directory (recorded.csv / spec.toml / session.json /
    /// status.jsonl live here).
    pub session: PathBuf,
    /// Stop after this many consumed ticks (counting restored ones).
    pub max_ticks: Option<u64>,
    /// Feed poll interval while idle, milliseconds.
    pub poll_ms: u64,
}

/// A served session: the consumed ticks, and the rung each tick's round
/// planned at (`Full` on ticks that end no round).
struct Session {
    trace: DemandTrace,
    rungs: Vec<RoundFidelity>,
}

impl Session {
    /// An empty session over a feed's header shape.
    fn new(feed: &DemandTrace) -> Session {
        Session {
            trace: DemandTrace {
                tick: feed.tick,
                regions: feed.regions,
                classes: feed.classes.clone(),
                mem_mb_per_inflight: feed.mem_mb_per_inflight.clone(),
                flows: Vec::new(),
            },
            rungs: Vec::new(),
        }
    }

    /// The session's controller: `spec`'s world built over the
    /// session's header shape. Ticks enter as flows, never by sampling.
    fn controller(&self, spec: &mut ScenarioSpec) -> Result<Controller, String> {
        let shape = Session::new(&self.trace).trace;
        build::session(spec, TraceSource::new(shape).into()).map_err(|e| e.to_string())
    }

    /// Reads a session back from its manifest and the sibling
    /// `recorded.csv`. A tick listed as both trimmed and degraded takes
    /// the deeper rung. List entries at or past the recording's tick
    /// count are ignored: a checkpoint writes the manifest first, so a
    /// daemon killed between the two writes leaves a manifest that runs
    /// ahead of its recording.
    fn read(manifest_path: &Path) -> Result<Session, String> {
        let manifest = read_file(manifest_path)?;
        let line = manifest.lines().next().unwrap_or("");
        if obstrace::field_u64(line, "v") != Some(1) {
            return Err(format!(
                "{}: not a v1 session manifest",
                manifest_path.display()
            ));
        }
        let rec_path = manifest_path.with_file_name("recorded.csv");
        let trace = DemandTrace::parse_csv(&read_file(&rec_path)?)
            .map_err(|e| format!("{}: {}", rec_path.display(), e.0))?;
        let mut rungs = vec![RoundFidelity::Full; trace.tick_count()];
        for (key, rung) in [
            ("trimmed_ticks", RoundFidelity::Trimmed),
            ("degraded_ticks", RoundFidelity::BestFitOnly),
        ] {
            let ticks = tick_list(line, key)
                .map_err(|e| format!("{}: {key}: {e}", manifest_path.display()))?;
            for tick in ticks {
                if let Some(slot) = rungs.get_mut(tick) {
                    *slot = (*slot).max(rung);
                }
            }
        }
        Ok(Session { trace, rungs })
    }

    /// Re-steps every recorded tick at its recorded rung.
    fn restep(&self, controller: &mut Controller) {
        for (flows, &rung) in self.trace.flows.iter().zip(&self.rungs) {
            controller.step_with_fidelity(StepDemand::Flows(flows), rung);
        }
    }

    /// Checkpoints the session into `dir`: the manifest, then the
    /// recording, each written atomically.
    fn write(&self, dir: &Path, name: &str) -> Result<(), String> {
        let ticks_at = |rung: RoundFidelity| {
            let ticks: Vec<String> = (0..self.rungs.len())
                .filter(|&t| self.rungs[t] == rung)
                .map(|t| t.to_string())
                .collect();
            ticks.join(",")
        };
        let manifest = format!(
            "{{\"v\":1,\"name\":\"{}\",\"consumed\":{},\"tick_ms\":{},\"degraded_ticks\":[{}],\
             \"trimmed_ticks\":[{}]}}\n",
            obstrace::escape_json(name),
            self.rungs.len(),
            self.trace.tick.as_millis(),
            ticks_at(RoundFidelity::BestFitOnly),
            ticks_at(RoundFidelity::Trimmed),
        );
        write_atomic(&dir.join("session.json"), &manifest)?;
        write_atomic(&dir.join("recorded.csv"), &self.trace.to_csv())
    }
}

/// The tick indices listed under `key` in a manifest line. An absent key
/// reads as an empty list (manifests from before the three-rung ladder
/// carry no `trimmed_ticks`); an entry that is not a tick index is an
/// error.
fn tick_list(line: &str, key: &str) -> Result<Vec<usize>, String> {
    let needle = format!("\"{key}\":[");
    let Some(start) = line.find(&needle) else {
        return Ok(Vec::new());
    };
    let rest = &line[start + needle.len()..];
    let list = rest[..rest.find(']').ok_or("the list is not closed")?].trim();
    if list.is_empty() {
        return Ok(Vec::new());
    }
    list.split(',')
        .map(|entry| {
            let entry = entry.trim();
            entry
                .parse()
                .map_err(|_| format!("{entry:?} is not a tick index"))
        })
        .collect()
}

/// Runs the serve daemon to completion (feed ends, or `--max-ticks`).
pub fn cmd_serve(mut spec: ScenarioSpec, cfg: &ServeConfig) -> Result<SpecReport, String> {
    std::fs::create_dir_all(&cfg.session)
        .map_err(|e| format!("cannot create session dir {}: {e}", cfg.session.display()))?;
    let poll = std::time::Duration::from_millis(cfg.poll_ms.max(1));

    // The writer may not have flushed the header block yet — retry for
    // a bounded while before giving up.
    let mut tail = {
        let mut attempts = 0u32;
        loop {
            match TailSource::open(&cfg.feed) {
                Ok(t) => break t,
                Err(e) if attempts < 300 => {
                    attempts += 1;
                    if attempts == 1 {
                        pamdc_obs::info!("waiting for feed {}: {}", cfg.feed.display(), e.0);
                    }
                    std::thread::sleep(poll);
                }
                Err(e) => return Err(format!("feed never became readable: {}", e.0)),
            }
        }
    };

    // The feed dictates the service roster; the spec dictates
    // everything else. Cadences must agree or replay would resample.
    let feed_tick_ms = tail.trace().tick.as_millis();
    if feed_tick_ms != spec.run.tick_secs * 1000 {
        return Err(format!(
            "feed tick is {feed_tick_ms} ms but the spec runs {} s ticks; align [run] tick_secs \
             with the recording cadence",
            spec.run.tick_secs
        ));
    }
    let feed = tail.trace();
    let mut session = Session::new(feed);
    let mut controller = session.controller(&mut spec)?;
    let obs = controller.collector();

    // Persist the exact spec driving this session so replay and
    // restart need no guesswork about the feed fixups `build::session`
    // applied.
    write_atomic(&cfg.session.join("spec.toml"), &spec.emit())?;

    // Restart without amnesia: re-step the recorded session at its
    // recorded rungs before consuming new feed ticks.
    let manifest_path = cfg.session.join("session.json");
    if cfg.session.join("recorded.csv").is_file() {
        let prior = Session::read(&manifest_path)?;
        if prior.trace.tick != feed.tick || prior.trace.classes != feed.classes {
            return Err(format!(
                "session {} was recorded from a different feed shape; start a fresh session dir",
                cfg.session.display()
            ));
        }
        prior.restep(&mut controller);
        pamdc_obs::info!(
            "restored session {}: {} ticks re-applied",
            cfg.session.display(),
            prior.rungs.len()
        );
        session.trace.flows = prior.trace.flows;
        session.rungs = prior.rungs;
    }

    let status_path = spec
        .serve
        .status_out
        .as_ref()
        .map(PathBuf::from)
        .unwrap_or_else(|| cfg.session.join("status.jsonl"));
    let mut status = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&status_path)
        .map_err(|e| format!("cannot open status stream {}: {e}", status_path.display()))?;

    let mut governor = DeadlineGovernor::new(spec.serve.budget_ms);
    let snapshot_every = spec.serve.snapshot_every.max(1);
    let mut since_snapshot = 0u64;

    loop {
        let consumed = session.rungs.len();
        if cfg.max_ticks.is_some_and(|m| consumed as u64 >= m) {
            break;
        }
        if tail.ready_ticks() <= consumed {
            if tail.is_complete() {
                break;
            }
            std::thread::sleep(poll);
            obs.add(Counter::ServeFeedPolls, 1);
            tail.poll().map_err(|e| e.0)?;
            continue;
        }

        // Copy the tick out of the tail so recorded.csv round-trips
        // the exact flows the controller saw.
        session
            .trace
            .flows
            .push(tail.trace().flows[consumed].clone());
        let demand = StepDemand::Flows(&session.trace.flows[consumed]);
        let wall_start = std::time::Instant::now();
        let outcome = controller.step_with_fidelity(demand, governor.plan_fidelity());
        let wall_ms = wall_start.elapsed().as_secs_f64() * 1e3;
        let rung = match &outcome.round {
            Some(round) => {
                governor.record_round(wall_ms, round.fidelity);
                round.fidelity
            }
            None => RoundFidelity::Full,
        };
        session.rungs.push(rung);
        let line = obstrace::serve_tick_line(
            outcome.tick_idx,
            outcome.mean_sla,
            outcome.watts,
            outcome.active_pms,
            outcome.rps,
            outcome.round.is_some(),
            rung == RoundFidelity::BestFitOnly,
            outcome.round.as_ref().map_or(0, |r| r.migrations),
            wall_ms as u64,
        );
        writeln!(status, "{line}")
            .and_then(|_| status.flush())
            .map_err(|e| format!("status stream write failed: {e}"))?;

        since_snapshot += 1;
        if since_snapshot >= snapshot_every {
            session.write(&cfg.session, &spec.name)?;
            obs.add(Counter::ServeSnapshots, 1);
            since_snapshot = 0;
        }
    }

    session.write(&cfg.session, &spec.name)?;
    obs.add(Counter::ServeSnapshots, 1);
    let span = controller.config().tick * session.rungs.len() as u64;
    let (outcome, _) = controller.finish(span);
    Ok(outcome_report(format!("serve[{}]", spec.name), &outcome))
}

/// Replays a recorded serve session (`session.json` + its sibling
/// `spec.toml` / `recorded.csv`) bit-for-bit, sub-full rounds
/// included, and returns the same report the live daemon rendered.
pub fn cmd_replay_manifest(manifest_path: &Path) -> Result<SpecReport, String> {
    let session = Session::read(manifest_path)?;
    let dir = manifest_path.parent().unwrap_or(Path::new("."));
    let ticks = session.rungs.len() as u64;
    if ticks == 0 {
        return Err(format!(
            "{}: session recorded no ticks; nothing to replay",
            dir.display()
        ));
    }
    let spec_text = read_file(&dir.join("spec.toml"))?;
    let mut spec = ScenarioSpec::parse(&spec_text).map_err(|e| e.to_string())?;
    let mut controller = session.controller(&mut spec)?;
    controller.set_progress_total(Some(ticks));
    session.restep(&mut controller);
    let span = controller.config().tick * ticks;
    let (outcome, _) = controller.finish(span);
    Ok(outcome_report(format!("session[{}]", spec.name), &outcome))
}

fn read_file(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Write-then-rename so a killed daemon never leaves a torn snapshot.
fn write_atomic(path: &Path, contents: &str) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("cannot finalize {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pamdc_scenario::registry;
    use pamdc_simcore::time::SimDuration;

    #[test]
    fn fidelity_tick_lists_round_trip_through_the_manifest() {
        let manifest = "{\"v\":1,\"name\":\"x\",\"consumed\":40,\"tick_ms\":60000,\
                        \"degraded_ticks\":[9,19,39],\"trimmed_ticks\":[4,14]}";
        assert_eq!(tick_list(manifest, "degraded_ticks"), Ok(vec![9, 19, 39]));
        assert_eq!(tick_list(manifest, "trimmed_ticks"), Ok(vec![4, 14]));
        assert_eq!(
            tick_list("{\"v\":1,\"degraded_ticks\":[]}", "degraded_ticks"),
            Ok(vec![])
        );
        assert_eq!(tick_list("{\"v\":1}", "degraded_ticks"), Ok(vec![]));
        // Pre-ladder manifests carry no trimmed_ticks key at all.
        let old = "{\"v\":1,\"name\":\"x\",\"consumed\":2,\"tick_ms\":1000,\"degraded_ticks\":[1]}";
        assert_eq!(tick_list(old, "degraded_ticks"), Ok(vec![1]));
        assert_eq!(tick_list(old, "trimmed_ticks"), Ok(vec![]));
        // A damaged entry or list is an error, never a dropped rung.
        let err = tick_list("{\"v\":1,\"degraded_ticks\":[3,x9]}", "degraded_ticks");
        assert!(err.unwrap_err().contains("\"x9\""));
        assert!(tick_list("{\"v\":1,\"degraded_ticks\":[3,,4]}", "degraded_ticks").is_err());
        assert!(tick_list("{\"v\":1,\"degraded_ticks\":[3", "degraded_ticks").is_err());
    }

    /// A fresh directory for one test's files.
    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pamdc-serve-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("test dir");
        dir
    }

    fn resilience() -> ScenarioSpec {
        registry::find("resilience").expect("builtin").spec
    }

    /// The resilience world at 40 VMs on 16 hosts: rounds slow enough
    /// that a 1 ms budget pushes some of them down the ladder.
    fn busy() -> ScenarioSpec {
        let mut spec = resilience();
        spec.workload.vms = 40;
        spec.topology.pms_per_dc = 16;
        spec
    }

    /// An hour of `spec`'s demand written as a closed live feed (no
    /// `# ticks` header, ended by `# end`), plus the trace.
    fn finished_feed(dir: &Path, spec: &ScenarioSpec) -> (PathBuf, DemandTrace) {
        let world = build::build_scenario(spec, Path::new(".")).expect("world");
        let tick = SimDuration::from_secs(spec.run.tick_secs);
        let trace = DemandTrace::record(&world.workload, SimDuration::from_hours(1), tick);
        let mut csv: String = trace
            .to_csv()
            .lines()
            .filter(|l| !l.starts_with("# ticks"))
            .map(|l| format!("{l}\n"))
            .collect();
        csv.push_str("# end\n");
        let path = dir.join("feed.csv");
        std::fs::write(&path, csv).expect("feed");
        (path, trace)
    }

    /// The first `rungs.len()` ticks of `trace`, at `rungs`.
    fn session_of(trace: &DemandTrace, rungs: &[RoundFidelity]) -> Session {
        Session {
            trace: DemandTrace {
                flows: trace.flows[..rungs.len()].to_vec(),
                ..trace.clone()
            },
            rungs: rungs.to_vec(),
        }
    }

    fn try_serve(
        spec: &ScenarioSpec,
        feed: &Path,
        session: &Path,
        max_ticks: Option<u64>,
        budget_ms: u64,
    ) -> Result<SpecReport, String> {
        let cfg = ServeConfig {
            feed: feed.to_path_buf(),
            session: session.to_path_buf(),
            max_ticks,
            poll_ms: 1,
        };
        let mut spec = spec.clone();
        spec.serve.budget_ms = budget_ms;
        cmd_serve(spec, &cfg)
    }

    fn serve(
        spec: &ScenarioSpec,
        feed: &Path,
        session: &Path,
        max_ticks: Option<u64>,
        budget_ms: u64,
    ) -> SpecReport {
        try_serve(spec, feed, session, max_ticks, budget_ms).expect("serve")
    }

    fn replay(session: &Path) -> SpecReport {
        cmd_replay_manifest(&session.join("session.json")).expect("replay --manifest")
    }

    /// A controller over `spec`'s session world stepped through every
    /// tick of `trace`, each round at `rung(tick)`.
    fn stepped(
        spec: &ScenarioSpec,
        trace: &DemandTrace,
        rung: impl Fn(usize) -> RoundFidelity,
    ) -> SpecReport {
        let source = TraceSource::new(trace.clone()).into();
        let mut controller = build::session(&mut spec.clone(), source).expect("controller");
        for (t, flows) in trace.flows.iter().enumerate() {
            controller.step_with_fidelity(StepDemand::Flows(flows), rung(t));
        }
        let span = controller.config().tick * trace.tick_count() as u64;
        let (outcome, _) = controller.finish(span);
        outcome_report("stepped".into(), &outcome)
    }

    /// Two reports of the same run: equal text and metrics bit for bit
    /// (only the report name tells live from replayed).
    fn assert_same_run(a: &SpecReport, b: &SpecReport) {
        assert_eq!(a.text, b.text, "{} vs {}", a.name, b.name);
        assert_eq!(a.metrics.len(), b.metrics.len());
        for ((ka, va), (kb, vb)) in a.metrics.iter().zip(&b.metrics) {
            assert_eq!(ka, kb);
            assert_eq!(va.to_bits(), vb.to_bits(), "{ka}: {va} vs {vb}");
        }
    }

    fn metric(report: &SpecReport, key: &str) -> f64 {
        report
            .metrics
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("metric {key} missing"))
            .1
    }

    #[test]
    fn recorded_fidelity_prefers_the_deeper_rung() {
        let dir = test_dir("read");
        let (_, trace) = finished_feed(&dir, &resilience());
        let mut rungs = vec![RoundFidelity::Full; 10];
        rungs[3] = RoundFidelity::BestFitOnly;
        rungs[5] = RoundFidelity::Trimmed;
        let session = session_of(&trace, &rungs);
        session.write(&dir, "x").expect("checkpoint");
        let back = Session::read(&dir.join("session.json")).expect("read");
        assert_eq!(back.rungs, rungs);
        assert_eq!(back.trace, session.trace);

        // Tick 3 in both lists plans at the deeper rung; tick 12 lies
        // past the 10 recorded ticks and is ignored.
        std::fs::write(
            dir.join("session.json"),
            "{\"v\":1,\"name\":\"x\",\"consumed\":13,\"tick_ms\":60000,\
             \"degraded_ticks\":[3,12],\"trimmed_ticks\":[3,5]}\n",
        )
        .expect("manifest");
        let back = Session::read(&dir.join("session.json")).expect("read");
        assert_eq!(back.rungs, rungs);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_finished_feed_served_in_one_leg_or_two_replays_bit_for_bit() {
        // Budget 1 ms lets overrunning rounds land in the manifest's
        // trimmed/degraded lists; which ones depends on the machine, so
        // only live == replay is asserted there.
        for (spec, budget_ms) in [(resilience(), 0), (busy(), 1)] {
            let dir = test_dir(&format!("legs-{budget_ms}"));
            let (feed, _) = finished_feed(&dir, &spec);

            let two_legs = dir.join("two-legs");
            let first = serve(&spec, &feed, &two_legs, Some(20), budget_ms);
            assert_same_run(&first, &replay(&two_legs));
            let restarted = serve(&spec, &feed, &two_legs, None, budget_ms);
            assert_same_run(&restarted, &replay(&two_legs));
            assert_eq!(metric(&restarted, "obs.sim.ticks"), 60.0);

            let one_leg = dir.join("one-leg");
            let straight = serve(&spec, &feed, &one_leg, None, budget_ms);
            assert_same_run(&straight, &replay(&one_leg));
            if budget_ms == 0 {
                assert_same_run(&restarted, &straight);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn replaying_a_manifest_steps_each_tick_at_its_recorded_rung() {
        let dir = test_dir("rungs");
        let spec = resilience();
        let (_, trace) = finished_feed(&dir, &spec);
        std::fs::write(dir.join("spec.toml"), spec.emit()).expect("spec");
        std::fs::write(dir.join("recorded.csv"), trace.to_csv()).expect("recording");
        std::fs::write(
            dir.join("session.json"),
            "{\"v\":1,\"name\":\"resilience\",\"consumed\":60,\"tick_ms\":60000,\
             \"degraded_ticks\":[19,39],\"trimmed_ticks\":[9,29,49]}\n",
        )
        .expect("manifest");
        let replayed = replay(&dir);

        let rung = |t: usize| match t {
            19 | 39 => RoundFidelity::BestFitOnly,
            9 | 29 | 49 => RoundFidelity::Trimmed,
            _ => RoundFidelity::Full,
        };
        assert_same_run(&replayed, &stepped(&spec, &trace, rung));
        assert_eq!(metric(&replayed, "obs.serve.trimmed_rounds"), 3.0);
        assert_eq!(metric(&replayed, "obs.serve.degraded_rounds"), 2.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_checkpoint_cut_between_its_two_writes_restarts_at_the_recorded_rungs() {
        let spec = resilience();
        let dir = test_dir("cut");
        let (feed, trace) = finished_feed(&dir, &spec);
        // The rungs a daemon planned its first 40 ticks at.
        let planned: Vec<RoundFidelity> = (0..40)
            .map(|t| match t {
                9 | 39 => RoundFidelity::Trimmed,
                19 | 29 => RoundFidelity::BestFitOnly,
                _ => RoundFidelity::Full,
            })
            .collect();
        // A directory where either file's temp copy goes fails the
        // checkpoint at tick 40 on that write.
        for blocked in ["session.json", "recorded.csv"] {
            let sess = dir.join(format!("blocked-{blocked}"));
            std::fs::create_dir_all(&sess).expect("session dir");
            session_of(&trace, &planned[..20])
                .write(&sess, &spec.name)
                .expect("checkpoint at tick 20");
            let tmp = sess.join(blocked).with_extension("tmp");
            std::fs::create_dir(&tmp).expect("block");
            let err = session_of(&trace, &planned)
                .write(&sess, &spec.name)
                .expect_err("blocked checkpoint");
            assert!(err.contains(blocked.split('.').next().unwrap()), "{err}");
            std::fs::remove_dir(&tmp).expect("unblock");

            let recorded = std::fs::read_to_string(sess.join("recorded.csv")).expect("recording");
            let recorded = DemandTrace::parse_csv(&recorded)
                .expect("trace")
                .tick_count();
            let live = serve(&spec, &feed, &sess, None, 0);
            let want = stepped(&spec, &trace, |t| {
                if t < recorded {
                    planned[t]
                } else {
                    RoundFidelity::Full
                }
            });
            assert_same_run(&live, &want);
            assert_same_run(&live, &replay(&sess));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serving_a_spec_with_a_flash_crowd_is_an_error_naming_the_key() {
        let dir = test_dir("flash");
        let (feed, _) = finished_feed(&dir, &resilience());
        let mut spec = resilience();
        spec.workload.flash_crowd = Some(4.0);
        let err = try_serve(&spec, &feed, &dir.join("sess"), None, 0).expect_err("flash crowd");
        assert!(err.contains("workload.flash_crowd"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_damaged_or_missing_manifest_is_an_error_naming_the_file_and_the_key() {
        let spec = resilience();
        let dir = test_dir("damaged");
        let (feed, _) = finished_feed(&dir, &spec);
        let sess = dir.join("sess");
        serve(&spec, &feed, &sess, Some(20), 0);
        let manifest = sess.join("session.json");
        std::fs::write(
            &manifest,
            "{\"v\":1,\"name\":\"resilience\",\"consumed\":20,\"tick_ms\":60000,\
             \"degraded_ticks\":[3,x9],\"trimmed_ticks\":[]}\n",
        )
        .expect("damage");
        let restart = try_serve(&spec, &feed, &sess, None, 0).expect_err("restart");
        let replayed = cmd_replay_manifest(&manifest).expect_err("replay");
        for err in [restart, replayed] {
            assert!(
                err.contains("session.json") && err.contains("degraded_ticks"),
                "{err}"
            );
        }

        std::fs::remove_file(&manifest).expect("remove manifest");
        let err = try_serve(&spec, &feed, &sess, None, 0).expect_err("restart");
        assert!(
            err.contains("cannot read") && err.contains("session.json"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
