//! `pamdc serve` — run the MAPE loop live off a tailed demand feed.
//!
//! The daemon wraps [`Controller`] around a [`TailSource`]: every poll
//! that surfaces a fully-written tick is consumed with one `step`, a
//! JSONL status line is appended, and — on the snapshot cadence — the
//! whole session is checkpointed to disk. Because no serialization
//! library is available, the durable snapshot *is* a replayable log:
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
//! A restarted daemon re-executes `recorded.csv` through the same
//! `step` path — with the recorded per-tick fidelity — before touching
//! the feed, so it resumes bit-identical to a never-killed run.
//! `pamdc replay --manifest session.json` does the same offline and
//! reproduces the live session's final report exactly.

use pamdc_core::prelude::*;
use pamdc_obs::trace as obstrace;
use pamdc_obs::Counter;
use pamdc_scenario::build;
use pamdc_scenario::runner::{outcome_metrics, render_outcome, SpecReport};
use pamdc_scenario::spec::ScenarioSpec;
use pamdc_workload::generator::FlowSample;
use pamdc_workload::prelude::{DemandTrace, TailSource, TraceSource};
use std::collections::BTreeSet;
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
    /// Wall-clock round budget override (else `[serve] budget_ms`).
    pub budget_ms: Option<u64>,
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
    spec.workload.vms = tail.trace().service_count();
    spec.workload.trace = None;
    spec.workload.import = None;
    let budget_ms = cfg.budget_ms.unwrap_or(spec.serve.budget_ms);

    let scenario =
        build::build_scenario_with_demand(&spec, tail.clone().into()).map_err(|e| e.to_string())?;
    let suite = build::trained_suite(&spec);
    let policy = build::build_policy(&spec, suite).map_err(|e| e.to_string())?;
    let run_cfg = build::run_config(&spec);
    let tick = run_cfg.tick;
    let mut controller = Controller::with(scenario, policy, run_cfg, None);
    let obs = controller.collector();

    // Persist the exact spec driving this session so replay and
    // restart need no guesswork about fixups applied above.
    write_atomic(&cfg.session.join("spec.toml"), &spec.emit())?;

    let rec_path = cfg.session.join("recorded.csv");
    let manifest_path = cfg.session.join("session.json");
    let mut recorded: Vec<Vec<Vec<FlowSample>>> = Vec::new();
    let mut degraded_ticks: Vec<u64> = Vec::new();
    let mut trimmed_ticks: Vec<u64> = Vec::new();

    // Restart without amnesia: re-execute the recorded session (with
    // its recorded per-tick fidelity) before consuming new feed ticks.
    if rec_path.is_file() {
        let text = std::fs::read_to_string(&rec_path)
            .map_err(|e| format!("cannot read {}: {e}", rec_path.display()))?;
        let prior = DemandTrace::parse_csv(&text)
            .map_err(|e| format!("{}: {}", rec_path.display(), e.0))?;
        if prior.tick != tail.trace().tick || prior.classes != tail.trace().classes {
            return Err(format!(
                "session {} was recorded from a different feed shape; start a fresh session dir",
                cfg.session.display()
            ));
        }
        (degraded_ticks, trimmed_ticks) = read_manifest_ticks(&manifest_path);
        let dset: BTreeSet<u64> = degraded_ticks.iter().copied().collect();
        let tset: BTreeSet<u64> = trimmed_ticks.iter().copied().collect();
        for (t, flows) in prior.flows.iter().enumerate() {
            let fidelity = recorded_fidelity(t as u64, &dset, &tset);
            controller.step_with_fidelity(StepDemand::Flows(flows), fidelity);
        }
        pamdc_obs::info!(
            "restored session {}: {} ticks re-applied",
            cfg.session.display(),
            prior.flows.len()
        );
        recorded = prior.flows;
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

    let mut governor = DeadlineGovernor::new(budget_ms);
    let snapshot_every = spec.serve.snapshot_every.max(1);
    let mut consumed = recorded.len() as u64;
    let mut since_snapshot = 0u64;

    loop {
        if cfg.max_ticks.is_some_and(|m| consumed >= m) {
            break;
        }
        if tail.ready_ticks() as u64 <= consumed {
            if tail.is_complete() {
                break;
            }
            std::thread::sleep(poll);
            obs.add(Counter::ServeFeedPolls, 1);
            tail.poll().map_err(|e| e.0)?;
            continue;
        }

        // Clone the tick out of the tail so recorded.csv round-trips
        // the exact flows the controller saw.
        let flows = tail.trace().flows[consumed as usize].clone();
        let fidelity = governor.plan_fidelity();
        let wall_start = std::time::Instant::now();
        let outcome = controller.step_with_fidelity(StepDemand::Flows(&flows), fidelity);
        let wall_ms = wall_start.elapsed().as_secs_f64() * 1e3;
        if let Some(round) = &outcome.round {
            governor.record_round(wall_ms, round.fidelity);
            match round.fidelity {
                RoundFidelity::Full => {}
                RoundFidelity::Trimmed => trimmed_ticks.push(consumed),
                RoundFidelity::BestFitOnly => degraded_ticks.push(consumed),
            }
        }
        let line = obstrace::serve_tick_line(
            outcome.tick_idx,
            outcome.mean_sla,
            outcome.watts,
            outcome.active_pms,
            outcome.rps,
            outcome.round.is_some(),
            outcome.round.as_ref().is_some_and(|r| r.degraded),
            outcome.round.as_ref().map_or(0, |r| r.migrations),
            wall_ms as u64,
        );
        writeln!(status, "{line}")
            .and_then(|_| status.flush())
            .map_err(|e| format!("status stream write failed: {e}"))?;

        recorded.push(flows);
        consumed += 1;
        since_snapshot += 1;
        if since_snapshot >= snapshot_every {
            write_session(
                cfg,
                tail.trace(),
                &recorded,
                &degraded_ticks,
                &trimmed_ticks,
                &spec.name,
            )?;
            obs.add(Counter::ServeSnapshots, 1);
            since_snapshot = 0;
        }
    }

    write_session(
        cfg,
        tail.trace(),
        &recorded,
        &degraded_ticks,
        &trimmed_ticks,
        &spec.name,
    )?;
    obs.add(Counter::ServeSnapshots, 1);
    let (outcome, _) = controller.finish(tick * consumed);
    Ok(SpecReport {
        name: format!("serve[{}]", spec.name),
        text: render_outcome(&outcome),
        metrics: outcome_metrics("", &outcome),
    })
}

/// Replays a recorded serve session (`session.json` + its sibling
/// `spec.toml` / `recorded.csv`) bit-for-bit, degraded rounds
/// included, and returns the same report the live daemon rendered.
pub fn cmd_replay_manifest(manifest_path: &Path) -> Result<SpecReport, String> {
    let dir = manifest_path.parent().unwrap_or(Path::new("."));
    let text = std::fs::read_to_string(manifest_path)
        .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
    let line = text.lines().next().unwrap_or("");
    if obstrace::field_u64(line, "v") != Some(1) {
        return Err(format!(
            "{}: not a v1 session manifest",
            manifest_path.display()
        ));
    }
    let degraded: BTreeSet<u64> = parse_tick_list(line, "degraded_ticks")
        .into_iter()
        .collect();
    let trimmed: BTreeSet<u64> = parse_tick_list(line, "trimmed_ticks").into_iter().collect();

    let spec_path = dir.join("spec.toml");
    let spec_text = std::fs::read_to_string(&spec_path)
        .map_err(|e| format!("cannot read {}: {e}", spec_path.display()))?;
    let mut spec = ScenarioSpec::parse(&spec_text).map_err(|e| e.to_string())?;

    let rec_path = dir.join("recorded.csv");
    let rec_text = std::fs::read_to_string(&rec_path)
        .map_err(|e| format!("cannot read {}: {e}", rec_path.display()))?;
    let trace = DemandTrace::parse_csv(&rec_text)
        .map_err(|e| format!("{}: {}", rec_path.display(), e.0))?;
    let ticks = trace.tick_count() as u64;
    if ticks == 0 {
        return Err(format!(
            "{}: session recorded no ticks; nothing to replay",
            dir.display()
        ));
    }

    spec.workload.vms = trace.service_count();
    spec.workload.trace = None;
    spec.workload.import = None;
    let source = TraceSource::new(trace.clone());
    let scenario =
        build::build_scenario_with_demand(&spec, source.into()).map_err(|e| e.to_string())?;
    let suite = build::trained_suite(&spec);
    let policy = build::build_policy(&spec, suite).map_err(|e| e.to_string())?;
    let run_cfg = build::run_config(&spec);
    let tick = run_cfg.tick;
    let mut controller = Controller::with(scenario, policy, run_cfg, None);
    controller.set_progress_total(Some(ticks));
    for (t, flows) in trace.flows.iter().enumerate() {
        let fidelity = recorded_fidelity(t as u64, &degraded, &trimmed);
        controller.step_with_fidelity(StepDemand::Flows(flows), fidelity);
    }
    let (outcome, _) = controller.finish(tick * ticks);
    Ok(SpecReport {
        name: format!("session[{}]", spec.name),
        text: render_outcome(&outcome),
        metrics: outcome_metrics("", &outcome),
    })
}

/// Checkpoints the session: recorded trace + manifest, atomically.
fn write_session(
    cfg: &ServeConfig,
    template: &DemandTrace,
    flows: &[Vec<Vec<FlowSample>>],
    degraded_ticks: &[u64],
    trimmed_ticks: &[u64],
    name: &str,
) -> Result<(), String> {
    let trace = DemandTrace {
        tick: template.tick,
        regions: template.regions,
        classes: template.classes.clone(),
        mem_mb_per_inflight: template.mem_mb_per_inflight.clone(),
        flows: flows.to_vec(),
    };
    write_atomic(&cfg.session.join("recorded.csv"), &trace.to_csv())?;
    let manifest = format!(
        "{{\"v\":1,\"name\":\"{}\",\"consumed\":{},\"tick_ms\":{},\"degraded_ticks\":[{}],\
         \"trimmed_ticks\":[{}]}}\n",
        obstrace::escape_json(name),
        flows.len(),
        template.tick.as_millis(),
        join_ticks(degraded_ticks),
        join_ticks(trimmed_ticks),
    );
    write_atomic(&cfg.session.join("session.json"), &manifest)
}

fn join_ticks(ticks: &[u64]) -> String {
    let list: Vec<String> = ticks.iter().map(u64::to_string).collect();
    list.join(",")
}

/// Write-then-rename so a killed daemon never leaves a torn snapshot.
fn write_atomic(path: &Path, contents: &str) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("cannot finalize {}: {e}", path.display()))
}

fn read_manifest_ticks(path: &Path) -> (Vec<u64>, Vec<u64>) {
    let Ok(text) = std::fs::read_to_string(path) else {
        return (Vec::new(), Vec::new());
    };
    let line = text.lines().next().unwrap_or("");
    (
        parse_tick_list(line, "degraded_ticks"),
        parse_tick_list(line, "trimmed_ticks"),
    )
}

/// Pulls a keyed tick array (`degraded_ticks` / `trimmed_ticks`) out of
/// a manifest line. The manifest is our own flat emission, so a
/// substring scan suffices. Manifests from before the three-rung
/// ladder carry no `trimmed_ticks` key; that reads as an empty list.
fn parse_tick_list(line: &str, key: &str) -> Vec<u64> {
    let needle = format!("\"{key}\":[");
    let Some(start) = line.find(&needle) else {
        return Vec::new();
    };
    let rest = &line[start + needle.len()..];
    let Some(end) = rest.find(']') else {
        return Vec::new();
    };
    rest[..end]
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect()
}

/// Maps a restored tick index back to the fidelity it recorded at.
fn recorded_fidelity(
    tick: u64,
    degraded: &BTreeSet<u64>,
    trimmed: &BTreeSet<u64>,
) -> RoundFidelity {
    if degraded.contains(&tick) {
        RoundFidelity::BestFitOnly
    } else if trimmed.contains(&tick) {
        RoundFidelity::Trimmed
    } else {
        RoundFidelity::Full
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_tick_lists_round_trip_through_the_manifest() {
        let manifest = "{\"v\":1,\"name\":\"x\",\"consumed\":40,\"tick_ms\":60000,\
                        \"degraded_ticks\":[9,19,39],\"trimmed_ticks\":[4,14]}";
        assert_eq!(parse_tick_list(manifest, "degraded_ticks"), vec![9, 19, 39]);
        assert_eq!(parse_tick_list(manifest, "trimmed_ticks"), vec![4, 14]);
        assert!(parse_tick_list("{\"v\":1,\"degraded_ticks\":[]}", "degraded_ticks").is_empty());
        assert!(parse_tick_list("{\"v\":1}", "degraded_ticks").is_empty());
        // Pre-ladder manifests carry no trimmed_ticks key at all.
        let old = "{\"v\":1,\"name\":\"x\",\"consumed\":2,\"tick_ms\":1000,\"degraded_ticks\":[1]}";
        assert_eq!(parse_tick_list(old, "degraded_ticks"), vec![1]);
        assert!(parse_tick_list(old, "trimmed_ticks").is_empty());
    }

    #[test]
    fn recorded_fidelity_prefers_the_deeper_rung() {
        let d: BTreeSet<u64> = [3].into_iter().collect();
        let t: BTreeSet<u64> = [3, 5].into_iter().collect();
        assert_eq!(recorded_fidelity(3, &d, &t), RoundFidelity::BestFitOnly);
        assert_eq!(recorded_fidelity(5, &d, &t), RoundFidelity::Trimmed);
        assert_eq!(recorded_fidelity(7, &d, &t), RoundFidelity::Full);
    }
}
