//! The step-wise MAPE engine — one public, resumable tick at a time.
//!
//! [`Controller`] owns the whole per-run state of the simulation loop
//! (world, RNG streams, gateways, monitors, ledgers) and exposes it as a
//! stepper: `step()` advances exactly one tick and returns a
//! [`TickOutcome`], and `finish()` folds everything into the same
//! [`RunOutcome`] the batch path always produced. The batch path,
//! [`Controller::run_for`], is a thin `for _ in 0..ticks {
//! controller.step(..) }` loop, so every experiment arm and the `pamdc
//! serve` daemon run the identical loop body — bit for bit. A round
//! plans through [`PlacementPolicy::decide_at`] at the rung the caller
//! passes to [`Controller::step_with_fidelity`] (`step` plans in full).
//! There is no in-memory checkpoint: the run is deterministic, so
//! re-stepping its recorded demand at its recorded rungs is the
//! restore (docs/SERVE.md).

use crate::policy::PlacementPolicy;
use crate::scenario::Scenario;
use crate::simulation::{RunConfig, RunOutcome};
use crate::training::TrainingCollector;
use pamdc_econ::billing::ProfitLedger;
use pamdc_green::carbon::EnergyBreakdown;
use pamdc_infra::gateway::{weighted_transport_secs, FlowDemand, Gateway};
use pamdc_infra::ids::{PmId, VmId};
use pamdc_infra::monitor::{observe, SlidingWindow};
use pamdc_infra::resources::Resources;
use pamdc_perf::contention::{share_proportionally_into, share_work_conserving_into};
use pamdc_perf::demand::{required_resources, OfferedLoad};
use pamdc_perf::rt::evaluate;
use pamdc_perf::sla::SlaFunction;
use pamdc_sched::problem::{HostInfo, Problem, VmInfo};
use pamdc_simcore::prelude::*;
use pamdc_workload::generator::FlowSample;
use std::sync::Arc;

/// Where one tick's demand comes from.
#[derive(Clone, Copy)]
pub enum StepDemand<'a> {
    /// Sample the scenario's own [`Demand`](pamdc_workload::source::Demand)
    /// (`scenario.workload.sample_into(vm, now, ..)`) — the batch path.
    Source,
    /// Explicit per-service flow samples for this tick (`flows[vm]`),
    /// e.g. one complete tick ingested from a live feed. Must hold one
    /// entry per VM.
    Flows(&'a [Vec<FlowSample>]),
}

/// How much work a scheduling round is allowed: the serve daemon's
/// three-rung degradation ladder. Placement itself is never skipped —
/// the rungs only shave the consolidation pass, cheapest first.
///
/// Every rung plans through [`PlacementPolicy::decide_at`]; the rungs
/// are ordered shallow to deep, so `max` picks the deeper one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RoundFidelity {
    /// The policy's full plan (what [`PlacementPolicy::decide`] does).
    Full,
    /// Middle rung: consolidation still runs but on a shrunken
    /// move budget.
    Trimmed,
    /// Bottom rung: placement only, no consolidation at all (the
    /// status stream's `degraded` rounds).
    BestFitOnly,
}

/// What one `step` did — the per-tick slice of the run report.
#[derive(Clone, Debug, PartialEq)]
pub struct TickOutcome {
    /// The tick that just executed (0-based).
    pub tick_idx: u64,
    /// Mean SLA fulfillment over this tick's VM slots (1.0 when no VM
    /// was hosted).
    pub mean_sla: f64,
    /// Facility draw this tick, watts.
    pub watts: f64,
    /// Green share of the draw, watts.
    pub green_watts: f64,
    /// Powered hosts after the tick.
    pub active_pms: usize,
    /// Total offered load this tick, requests/second.
    pub rps: f64,
    /// Set when this tick ended a scheduling round.
    pub round: Option<RoundOutcome>,
}

/// The planning round a tick triggered, if any.
#[derive(Clone, Debug, PartialEq)]
pub struct RoundOutcome {
    /// Migrations started by this round.
    pub migrations: u64,
    /// The ladder rung the round actually planned at.
    pub fidelity: RoundFidelity,
}

/// Reusable per-tick buffers for demand sampling and the per-host
/// contention loop. One instance lives across the whole run, so
/// steady-state ticks allocate nothing: every `Vec` is cleared and
/// refilled in place.
#[derive(Default)]
struct TickScratch {
    /// VMs hosted on the PM being processed.
    hosted: Vec<VmId>,
    /// The subset of `hosted` actually serving this tick.
    serving: Vec<VmId>,
    /// Believed demand per serving VM (slot-indexed like `serving`).
    demands: Vec<Resources>,
    /// Proportional-share grants per serving VM.
    granted: Vec<Resources>,
    /// Work-conserving burst capacity per serving VM.
    burst: Vec<Resources>,
    /// Migration blackout fraction of this tick per VM (VM-indexed).
    blackout: Vec<f64>,
    /// One VM's flows sampled from the scenario's demand (monitor phase).
    sampled: Vec<FlowSample>,
}

/// The MAPE loop as a stepper: Monitor, Analyze, Plan, Execute — one
/// tick per [`step`](Controller::step).
pub struct Controller {
    scenario: Scenario,
    policy: Box<dyn PlacementPolicy>,
    config: RunConfig,
    collector: Option<TrainingCollector>,

    // Per-run observability collector. Installed thread-locally for the
    // duration of each `step`/`finish` call (and inherited by
    // `simcore::par` workers), so interleaved controllers never cross
    // counters.
    obs: Arc<pamdc_obs::Collector>,
    counter_snapshot: [u64; pamdc_obs::Counter::ALL.len()],

    // Run constants, derived once from the scenario.
    n_vms: usize,
    tick_secs: f64,
    rt_rng: RngStream,
    slas: Vec<SlaFunction>,
    vm_dc_keys: Vec<String>,
    round_net: Arc<pamdc_infra::network::NetworkModel>,
    round_billing: Arc<pamdc_econ::billing::BillingPolicy>,
    /// Total planned ticks, if known — only feeds the progress
    /// heartbeat's `tick N/total` rendering.
    progress_total: Option<u64>,

    // Mutable run state.
    tick_idx: u64,
    monitor_rng: RngStream,
    gateway: Gateway,
    windows: Vec<SlidingWindow>,
    ledger: ProfitLedger,
    series: SeriesSet,
    sla_stats: OnlineStats,
    watts_stats: OnlineStats,
    active_stats: OnlineStats,
    migrations: u64,
    total_wh: f64,
    served_total: f64,
    last_migration_tick: Vec<Option<u64>>,
    energy_breakdown: EnergyBreakdown,
    /// Facility draw per DC: this tick's accumulator and the previous
    /// tick's value (what the scheduler prices marginal hosts against).
    dc_tick_watts: Vec<f64>,
    dc_draw_w: Vec<f64>,
    next_fault: usize,
    next_profile_change: usize,

    // Per-tick scratch buffers (no per-tick allocation in the loop).
    flows: Vec<Vec<FlowDemand>>,
    loads: Vec<OfferedLoad>,
    required: Vec<Resources>,
    scratch: TickScratch,
}

impl Controller {
    /// A controller over a scenario with default run configuration.
    pub fn new(scenario: Scenario, policy: Box<dyn PlacementPolicy>) -> Self {
        Controller::with(scenario, policy, RunConfig::default(), None)
    }

    /// Full constructor: scenario, policy, run knobs and an optional
    /// training-sample collector.
    pub fn with(
        scenario: Scenario,
        policy: Box<dyn PlacementPolicy>,
        config: RunConfig,
        collector: Option<TrainingCollector>,
    ) -> Self {
        let cfg = &config;
        let n_vms = scenario.cluster.vm_count();
        let tick_secs = cfg.tick.as_secs_f64();
        let policy_name = policy.name();

        // Fresh per-run collector. Nested runs — a training simulation
        // inside an arm — stack their own collectors, so counters never
        // cross runs. Timing (and hence any wall-clock read) only
        // exists when tracing.
        let obs = Arc::new(pamdc_obs::Collector::new(cfg.trace));
        if cfg.trace {
            obs.push_event(pamdc_obs::trace::run_start_line(
                &scenario.name,
                &policy_name,
            ));
        }
        let counter_snapshot = obs.counter_snapshot();

        let root = RngStream::root(scenario.seed);
        let monitor_rng = root.derive("monitor");
        let rt_rng = root.derive("rt-jitter");

        let gateway = Gateway::new(n_vms, cfg.max_backlog);
        let windows: Vec<SlidingWindow> = (0..n_vms)
            .map(|_| SlidingWindow::new(scenario.monitor.window_len))
            .collect();

        let n_dcs = scenario.cluster.dc_count();
        let slas: Vec<SlaFunction> = (0..n_vms)
            .map(|i| {
                let spec = &scenario.cluster.vm(VmId::from_index(i)).spec;
                SlaFunction::new(spec.rt0_secs, spec.alpha)
            })
            .collect();
        // Placement-trace series keys, formatted once instead of per
        // VM per tick.
        let vm_dc_keys: Vec<String> = (0..n_vms).map(|vm| format!("vm{vm}_dc")).collect();
        // Round-problem constants: shared by refcount, never cloned per
        // round (the network's latency matrix is the big one).
        let round_net = Arc::new(scenario.cluster.net.clone());
        let round_billing = Arc::new(scenario.billing.clone());

        Controller {
            obs,
            counter_snapshot,
            n_vms,
            tick_secs,
            rt_rng,
            slas,
            vm_dc_keys,
            round_net,
            round_billing,
            progress_total: None,
            tick_idx: 0,
            monitor_rng,
            gateway,
            windows,
            ledger: ProfitLedger::new(),
            series: SeriesSet::new(),
            sla_stats: OnlineStats::new(),
            watts_stats: OnlineStats::new(),
            active_stats: OnlineStats::new(),
            migrations: 0,
            total_wh: 0.0,
            served_total: 0.0,
            last_migration_tick: vec![None; n_vms],
            energy_breakdown: EnergyBreakdown::new(),
            dc_tick_watts: vec![0.0; n_dcs],
            dc_draw_w: vec![0.0; n_dcs],
            next_fault: 0,
            next_profile_change: 0,
            flows: vec![Vec::new(); n_vms],
            loads: vec![OfferedLoad::default(); n_vms],
            required: vec![Resources::ZERO; n_vms],
            scratch: TickScratch::default(),
            scenario,
            policy,
            config,
            collector,
        }
    }

    /// Runs `duration` of ticks on the scenario's own demand and folds
    /// the outcome (plus the training collector, when one was attached):
    /// the batch path every experiment arm takes.
    pub fn run_for(mut self, duration: SimDuration) -> (RunOutcome, Option<TrainingCollector>) {
        let ticks = duration.ticks(self.config.tick);
        self.set_progress_total(Some(ticks));
        for _ in 0..ticks {
            self.step(StepDemand::Source);
        }
        self.finish(duration)
    }

    /// Announce the planned run length (progress heartbeat only; an
    /// open-ended controller — a live feed — leaves it unset).
    pub fn set_progress_total(&mut self, ticks: Option<u64>) {
        self.progress_total = ticks;
    }

    /// The world being driven.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Run configuration.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// Migrations started so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// The run's metrics collector. Lets the process hosting the
    /// controller (e.g. the serve daemon) count events that happen
    /// *between* steps — feed polls, snapshot writes — alongside the
    /// in-run counters.
    pub fn collector(&self) -> Arc<pamdc_obs::Collector> {
        self.obs.clone()
    }

    /// Whether the next `step` will end a scheduling round.
    pub fn next_step_is_round(&self) -> bool {
        let every = self.config.round_every_ticks;
        every > 0 && self.tick_idx % every == every - 1
    }

    /// Advances one tick with the full (non-degraded) planner.
    pub fn step(&mut self, demand: StepDemand<'_>) -> TickOutcome {
        self.step_with_fidelity(demand, RoundFidelity::Full)
    }

    /// Advances one tick; a scheduling round falling on this tick plans
    /// at `fidelity` — the serve daemon's deadline escape hatch (see
    /// [`RoundFidelity`] for the ladder). Placement itself is never
    /// skipped at any rung.
    pub fn step_with_fidelity(
        &mut self,
        demand: StepDemand<'_>,
        fidelity: RoundFidelity,
    ) -> TickOutcome {
        // Install this run's collector for the duration of the tick, so
        // `span!` and the TLS counter free-fns land here even when
        // several controllers interleave on one thread.
        let _obs_tls = pamdc_obs::CollectorGuard::install(self.obs.clone());
        let tick_idx = self.tick_idx;
        let Controller {
            scenario,
            policy,
            config: cfg,
            collector,
            obs,
            counter_snapshot,
            n_vms,
            tick_secs,
            rt_rng,
            slas,
            vm_dc_keys,
            round_net,
            round_billing,
            progress_total,
            monitor_rng,
            gateway,
            windows,
            ledger,
            series,
            sla_stats,
            watts_stats,
            active_stats,
            migrations,
            total_wh,
            served_total,
            last_migration_tick,
            energy_breakdown,
            dc_tick_watts,
            dc_draw_w,
            next_fault,
            next_profile_change,
            flows,
            loads,
            required,
            scratch,
            ..
        } = self;
        let n_vms = *n_vms;
        let tick_secs = *tick_secs;

        // The `tick` span tiles into the MAPE phases below (world /
        // monitor / analyze / plan / execute) — `pamdc trace
        // summarize` measures its coverage against their sum. The
        // guard closes before the trace flush so the tick's own
        // stats drain with the tick's events.
        let tick_span = pamdc_obs::span!("tick");
        obs.add(pamdc_obs::Counter::SimTicks, 1);
        let now = SimTime::ZERO + cfg.tick * tick_idx;
        let tick_end = now + cfg.tick;

        let world_span = pamdc_obs::span!("world");
        // ---------------- Failure injection ----------------
        while *next_fault < scenario.faults.len() && scenario.faults[*next_fault].at <= now {
            let f = scenario.faults[*next_fault];
            scenario.cluster.fail_pm(f.pm, now, f.repair_after);
            *next_fault += 1;
        }

        // ---------------- Software updates ----------------
        while *next_profile_change < scenario.profile_changes.len()
            && scenario.profile_changes[*next_profile_change].at <= now
        {
            let c = scenario.profile_changes[*next_profile_change];
            scenario.perf_profiles[c.vm] = c.profile;
            *next_profile_change += 1;
        }

        scenario.cluster.tick(now);
        drop(world_span);

        let monitor_span = pamdc_obs::span!("monitor");
        // ---------------- Load sampling ----------------
        let mut rps_total = 0.0;
        for vm in 0..n_vms {
            let samples: &[FlowSample] = match demand {
                StepDemand::Source => {
                    scenario.workload.sample_into(vm, now, &mut scratch.sampled);
                    &scratch.sampled
                }
                StepDemand::Flows(per_vm) => &per_vm[vm],
            };
            flows[vm].clear();
            flows[vm].extend(samples.iter().map(|s| FlowDemand {
                source: pamdc_infra::ids::LocationId(s.region as u16 as u32),
                req_per_sec: s.rps,
                kb_per_req: s.kb_out_per_req,
                cpu_ms_per_req: s.cpu_ms_per_req,
            }));
            let rps: f64 = samples.iter().map(|s| s.rps).sum();
            rps_total += rps;
            let wavg = |f: &dyn Fn(&FlowSample) -> f64| {
                if rps > 0.0 {
                    samples.iter().map(|s| f(s) * s.rps).sum::<f64>() / rps
                } else {
                    0.0
                }
            };
            loads[vm] = OfferedLoad {
                rps,
                kb_in_per_req: wavg(&|s| s.kb_in_per_req),
                kb_out_per_req: wavg(&|s| s.kb_out_per_req),
                cpu_ms_per_req: wavg(&|s| s.cpu_ms_per_req),
                backlog: gateway.backlog(VmId::from_index(vm)),
            };
            required[vm] = required_resources(&loads[vm], &scenario.perf_profiles[vm], tick_secs);
        }

        // ---------------- Inter-DC link accounting ----------------
        // Remote client flows cross the provider network: they load
        // the links (slowing concurrent migrations) and, on a priced
        // network, pay per-GB transit.
        scenario.cluster.link_load.clear();
        let mut client_transfer_eur = 0.0;
        for vm in 0..n_vms {
            let Some(pm) = scenario.cluster.placement(VmId::from_index(vm)) else {
                continue;
            };
            let loc = scenario.cluster.location_of_pm(pm);
            for &f in &flows[vm] {
                if f.source == loc {
                    continue;
                }
                let kb_per_sec = f.req_per_sec * (f.kb_per_req + loads[vm].kb_in_per_req);
                scenario
                    .cluster
                    .link_load
                    .add_client_gbps(f.source, loc, kb_per_sec * 8e-6);
                client_transfer_eur += scenario.cluster.net.transfer_cost_eur(
                    kb_per_sec * tick_secs * 1e-6,
                    f.source,
                    loc,
                );
            }
        }
        ledger.book_network(client_transfer_eur);
        drop(monitor_span);

        let analyze_span = pamdc_obs::span!("analyze");
        // ---------------- Per-host contention + perf ----------------
        let mut tick_sla_sum = 0.0;
        let mut tick_sla_n = 0usize;
        let mut tick_watts = 0.0;
        dc_tick_watts.fill(0.0);
        // Per-VM migration blackout fraction of this tick (1.0 = dark
        // all tick). A migration completing mid-tick lets the VM serve
        // the remaining fraction. Filled back to front, so a VM's first
        // in-flight migration decides.
        scratch.blackout.clear();
        scratch.blackout.resize(n_vms, 0.0);
        for m in scenario.cluster.in_flight().iter().rev() {
            scratch.blackout[m.vm.index()] = m.blackout_fraction(now, tick_end);
        }
        for pm_idx in 0..scenario.cluster.pm_count() {
            let pm_id = PmId::from_index(pm_idx);
            scratch.hosted.clear();
            scratch
                .hosted
                .extend_from_slice(scenario.cluster.pm(pm_id).hosted());
            let host_on = scenario.cluster.pm(pm_id).is_on();
            let location = scenario.cluster.location_of_pm(pm_id);

            // A host that is off blacks out everything on it.
            let blackout = |v: VmId| -> f64 {
                if host_on {
                    scratch.blackout[v.index()]
                } else {
                    1.0
                }
            };
            // Serving VMs: host on and not dark for the whole tick.
            scratch.serving.clear();
            scratch.serving.extend(
                scratch
                    .hosted
                    .iter()
                    .copied()
                    .filter(|&v| blackout(v) < 1.0),
            );
            let serving = &scratch.serving;

            scratch.demands.clear();
            scratch
                .demands
                .extend(serving.iter().map(|v| required[v.index()]));
            let overhead = scenario.cluster.pm(pm_id).virt_overhead_cpu();
            let mut cap = scenario.cluster.pm(pm_id).spec.capacity;
            cap.cpu = (cap.cpu - overhead).max(1.0);
            share_proportionally_into(&scratch.demands, cap, &mut scratch.granted);
            share_work_conserving_into(&scratch.demands, cap, &mut scratch.burst);
            let granted = &scratch.granted;
            let burst = &scratch.burst;

            let mut pm_cpu_used = overhead.min(scenario.cluster.pm(pm_id).spec.capacity.cpu);
            let mut pm_sum_vm_cpu_obs = 0.0;
            let mut pm_sum_rps = 0.0;

            for (slot, &vm_id) in serving.iter().enumerate() {
                let vm = vm_id.index();
                let mut jitter = rt_rng.derive_indexed("vm-tick", (vm as u64) << 40 | tick_idx);
                let outcome = evaluate(
                    &loads[vm],
                    &scenario.perf_profiles[vm],
                    &required[vm],
                    &granted[slot],
                    &burst[slot],
                    &scenario.rt_cfg,
                    tick_secs,
                    Some(&mut jitter),
                );
                let transport =
                    weighted_transport_secs(&flows[vm], location, &scenario.cluster.net);
                let rt_total = outcome.rt_process_secs + transport;
                // Pro-rate for any partial-tick migration blackout.
                let avail = 1.0 - blackout(vm_id);
                let sla = slas[vm].fulfillment(rt_total) * avail;

                // Gateway bookkeeping.
                let arrived = loads[vm].rps * tick_secs;
                let served = outcome.served_rps * tick_secs * avail;
                gateway.settle(vm_id, arrived, served);
                *served_total += served;

                // Monitoring. A dropped sample never reaches the
                // scheduler's sizing window (the short-circuit keeps
                // the RNG stream untouched when dropout is off).
                let obs = observe(&outcome.used, &scenario.monitor, monitor_rng);
                let dropped = scenario.monitor.dropout_prob > 0.0
                    && monitor_rng.chance(scenario.monitor.dropout_prob);
                if !dropped {
                    windows[vm].push(obs);
                }
                pm_cpu_used += outcome.used.cpu;
                pm_sum_vm_cpu_obs += obs.cpu;
                pm_sum_rps += loads[vm].rps;

                // Billing.
                ledger.book_revenue(&scenario.billing, sla, cfg.tick);
                tick_sla_sum += sla;
                tick_sla_n += 1;
                sla_stats.push(sla);
                // TLS free fns here: `obs` is shadowed by the
                // monitoring sample above.
                pamdc_obs::metrics::observe(pamdc_obs::Hist::SimVmSla, sla);
                if sla < 1.0 - 1e-9 {
                    pamdc_obs::metrics::add(pamdc_obs::Counter::SimSlaViolations, 1);
                }

                // Training capture.
                if let Some(col) = collector.as_mut() {
                    let saturated =
                        outcome.served_rps < loads[vm].total_rps(tick_secs) * 0.98 - 1e-9;
                    let mem_ratio = if required[vm].mem_mb > 0.0 {
                        (granted[slot].mem_mb / required[vm].mem_mb).min(1.0)
                    } else {
                        1.0
                    };
                    col.record_vm_tick(
                        &loads[vm],
                        &obs,
                        saturated,
                        granted[slot].cpu,
                        mem_ratio,
                        transport,
                        outcome.rt_process_secs,
                        sla,
                    );
                }
            }

            // Fully blacked-out VMs (in-flight all tick, or host
            // down/booting): they earn nothing and their arrivals
            // pile into the gateway queue.
            for &vm_id in &scratch.hosted {
                if serving.contains(&vm_id) {
                    continue;
                }
                let vm = vm_id.index();
                let arrived = loads[vm].rps * tick_secs;
                gateway.settle(vm_id, arrived, 0.0);
                ledger.book_revenue(&scenario.billing, 0.0, cfg.tick);
                tick_sla_n += 1;
                sla_stats.push(0.0);
                obs.observe(pamdc_obs::Hist::SimVmSla, 0.0);
                obs.add(pamdc_obs::Counter::SimSlaViolations, 1);
            }

            // Power + energy (cost booked per-DC after the host loop,
            // so green production is shared DC-wide, not per host).
            let watts = scenario.cluster.pm(pm_id).facility_watts(pm_cpu_used);
            tick_watts += watts;
            dc_tick_watts[scenario.cluster.dc_of_pm(pm_id).index()] += watts;
            *total_wh += watts * cfg.tick.as_hours_f64();

            if let Some(col) = collector.as_mut() {
                if !serving.is_empty() {
                    let pm_cpu_obs = observe(
                        &Resources::new(pm_cpu_used, 0.0, 0.0, 0.0),
                        &scenario.monitor,
                        monitor_rng,
                    )
                    .cpu;
                    col.record_pm_tick(serving.len(), pm_sum_vm_cpu_obs, pm_sum_rps, pm_cpu_obs);
                }
            }
        }

        // ---------------- Energy billing (per DC) ----------------
        let mut tick_green_w = 0.0;
        for (site, &watts) in scenario.energy.sites.iter().zip(dc_tick_watts.iter()) {
            tick_green_w += site.split(now, watts).green_w;
            let cost = site.book(now, watts, cfg.tick, energy_breakdown);
            ledger.book_energy(cost);
        }
        dc_draw_w.copy_from_slice(dc_tick_watts);

        // ---------------- Series ----------------
        let active = scenario.cluster.powered_pm_count();
        active_stats.push(active as f64);
        watts_stats.push(tick_watts);
        let mean_sla_tick = if tick_sla_n > 0 {
            tick_sla_sum / tick_sla_n as f64
        } else {
            1.0
        };
        if cfg.keep_series {
            series.record("sla", now, mean_sla_tick);
            series.record("watts", now, tick_watts);
            series.record("green_watts", now, tick_green_w);
            series.record("active_pms", now, active as f64);
            series.record("rps", now, rps_total);
            series.record("migrations", now, *migrations as f64);
            for (vm, key) in vm_dc_keys.iter().enumerate() {
                if let Some(pm) = scenario.cluster.placement(VmId::from_index(vm)) {
                    series.record(key, now, scenario.cluster.dc_of_pm(pm).index() as f64);
                }
            }
        }
        drop(analyze_span);

        // ---------------- Plan + Execute ----------------
        let mut round_outcome = None;
        if cfg.round_every_ticks > 0
            && tick_idx % cfg.round_every_ticks == cfg.round_every_ticks - 1
        {
            obs.add(pamdc_obs::Counter::SimRounds, 1);
            match fidelity {
                RoundFidelity::Full => {}
                RoundFidelity::Trimmed => obs.add(pamdc_obs::Counter::ServeTrimmedRounds, 1),
                RoundFidelity::BestFitOnly => obs.add(pamdc_obs::Counter::ServeDegradedRounds, 1),
            }
            let round_migrations_before = *migrations;
            let plan_span = pamdc_obs::span!("plan");
            let problem = build_problem(
                scenario,
                tick_end,
                loads,
                flows,
                windows,
                gateway,
                dc_draw_w,
                cfg,
                round_net,
                round_billing,
            );
            let schedule = policy.decide_at(&problem, fidelity);
            schedule.validate(&problem);
            drop(plan_span);
            let execute_span = pamdc_obs::span!("execute");
            for (vi, &target) in schedule.assignment.iter().enumerate() {
                let vm_id = problem.vms[vi].id;
                if scenario.cluster.vm(vm_id).is_migrating() {
                    continue;
                }
                // Anti-thrash cooldown.
                if last_migration_tick[vm_id.index()]
                    .is_some_and(|t| tick_idx - t < cfg.migration_cooldown_ticks)
                {
                    continue;
                }
                let from_loc = scenario.cluster.location_of_vm(vm_id);
                if scenario.cluster.placement(vm_id) != Some(target)
                    && scenario.cluster.migrate(vm_id, target, tick_end).is_some()
                {
                    *migrations += 1;
                    obs.add(pamdc_obs::Counter::SimMigrations, 1);
                    last_migration_tick[vm_id.index()] = Some(tick_idx);
                    ledger.book_migration(&scenario.billing);
                    // Image shipment pays transit on a priced network.
                    if let Some(from) = from_loc {
                        let to_loc = scenario.cluster.location_of_pm(target);
                        let gb = scenario.cluster.vm(vm_id).spec.image_size_mb / 1000.0;
                        ledger
                            .book_network(scenario.cluster.net.transfer_cost_eur(gb, from, to_loc));
                    }
                }
            }
            scenario.cluster.power_off_idle(tick_end, &[]);
            debug_assert!({
                scenario.cluster.check_invariants();
                true
            });
            drop(execute_span);
            round_outcome = Some(RoundOutcome {
                migrations: *migrations - round_migrations_before,
                fidelity,
            });
        }

        // ---------------- Trace flush + heartbeat ----------------
        drop(tick_span);
        if cfg.trace {
            for (path, stat) in obs.take_spans() {
                obs.push_event(pamdc_obs::trace::span_line(
                    tick_idx,
                    &path,
                    stat.count,
                    stat.total_ns,
                ));
            }
            let snap = obs.counter_snapshot();
            for (i, c) in pamdc_obs::Counter::ALL.iter().enumerate() {
                if snap[i] != counter_snapshot[i] {
                    obs.push_event(pamdc_obs::trace::counter_line(tick_idx, c.name(), snap[i]));
                }
            }
            *counter_snapshot = snap;
        }
        if cfg.progress && (tick_idx + 1).is_multiple_of(60) {
            match *progress_total {
                Some(total) => pamdc_obs::log::progress(format_args!(
                    "[{}] tick {}/{} migrations={} active_pms={}",
                    scenario.name,
                    tick_idx + 1,
                    total,
                    migrations,
                    scenario.cluster.powered_pm_count(),
                )),
                None => pamdc_obs::log::progress(format_args!(
                    "[{}] tick {} migrations={} active_pms={}",
                    scenario.name,
                    tick_idx + 1,
                    migrations,
                    scenario.cluster.powered_pm_count(),
                )),
            }
        }

        let outcome = TickOutcome {
            tick_idx,
            mean_sla: mean_sla_tick,
            watts: tick_watts,
            green_watts: tick_green_w,
            active_pms: active,
            rps: rps_total,
            round: round_outcome,
        };
        self.tick_idx += 1;
        outcome
    }

    /// Folds the run into a [`RunOutcome`] (and hands back the training
    /// collector, if one was attached). `duration` is the span the
    /// outcome reports over — the batch path passes its requested
    /// duration; an open-ended serve session passes `config.tick` times
    /// the ticks it stepped.
    pub fn finish(self, duration: SimDuration) -> (RunOutcome, Option<TrainingCollector>) {
        let obs = &self.obs;
        let cfg = &self.config;
        let n_vms = self.n_vms;
        let dropped: f64 = (0..n_vms)
            .map(|vm| self.gateway.dropped_total(VmId::from_index(vm)))
            .sum();
        obs.gauge_set(
            pamdc_obs::Gauge::SimActivePms,
            self.scenario.cluster.powered_pm_count() as f64,
        );
        let pending_vms = (0..n_vms)
            .filter(|&vm| self.gateway.backlog(VmId::from_index(vm)) > 0.0)
            .count();
        obs.gauge_set(pamdc_obs::Gauge::SimPendingVms, pending_vms as f64);
        if cfg.trace {
            obs.push_event(pamdc_obs::trace::run_end_line(self.tick_idx));
        }
        let obs_metrics = obs.run_metrics();
        let trace_lines = if cfg.trace {
            obs.take_events()
        } else {
            Vec::new()
        };
        let outcome = RunOutcome {
            policy_name: self.policy.name(),
            scenario_name: self.scenario.name.clone(),
            series: self.series,
            profit: self.ledger.snapshot(),
            duration,
            mean_sla: self.sla_stats.mean(),
            avg_watts: self.watts_stats.mean(),
            total_wh: self.total_wh,
            migrations: self.migrations,
            dropped_requests: dropped,
            served_requests: self.served_total,
            avg_active_pms: self.active_stats.mean(),
            energy: self.energy_breakdown,
            obs_metrics,
            trace_lines,
        };
        (outcome, self.collector)
    }
}

/// Snapshot the world into a scheduling [`Problem`]. `net` and
/// `billing` are the run-constant shared handles — every round's problem
/// bumps their refcount instead of cloning them.
#[allow(clippy::too_many_arguments)]
fn build_problem(
    scenario: &Scenario,
    now: SimTime,
    loads: &[OfferedLoad],
    flows: &[Vec<FlowDemand>],
    windows: &[SlidingWindow],
    gateway: &Gateway,
    dc_draw_w: &[f64],
    cfg: &RunConfig,
    net: &Arc<pamdc_infra::network::NetworkModel>,
    billing: &Arc<pamdc_econ::billing::BillingPolicy>,
) -> Problem {
    let cluster = &scenario.cluster;
    let hosts: Vec<HostInfo> = cluster
        .pms()
        .iter()
        .map(|pm| {
            let boot_penalty = match pm.state() {
                pamdc_infra::pm::PmState::On => SimDuration::ZERO,
                pamdc_infra::pm::PmState::Booting { until } => until - now,
                // A crashed host serves nothing until repaired AND
                // rebooted — the penalty that makes policies evacuate it.
                pamdc_infra::pm::PmState::Failed { until } => (until - now) + pm.spec.boot_time,
                _ => pm.spec.boot_time,
            };
            let dc_idx = pm.dc.index();
            // Quote the price of adding roughly one loaded host's draw on
            // top of what the DC burns now: green headroom makes the
            // quote collapse to the green marginal, saturation restores
            // the grid price.
            let quoted = scenario.energy.quoted_price_eur_kwh(
                dc_idx,
                now,
                dc_draw_w[dc_idx],
                pm.spec.power.facility_watts(100.0),
            );
            HostInfo {
                id: pm.id,
                dc: pm.dc,
                location: cluster.location_of_pm(pm.id),
                capacity: pm.spec.capacity,
                power: pm.spec.power.clone(),
                energy_eur_kwh: quoted,
                virt_overhead_cpu_per_vm: pm.spec.virt_overhead_cpu_per_vm,
                fixed_demand: Resources::ZERO,
                fixed_vm_count: 0,
                powered_on: pm.is_schedulable(),
                boot_penalty,
            }
        })
        .collect();

    let vms: Vec<VmInfo> = (0..cluster.vm_count())
        .map(|vm| {
            let vm_id = VmId::from_index(vm);
            let spec = &cluster.vm(vm_id).spec;
            let current_pm = cluster.placement(vm_id);
            let mut load = loads[vm];
            load.backlog = gateway.backlog(vm_id);
            VmInfo {
                id: vm_id,
                load,
                flows: flows[vm].clone(),
                sla: SlaFunction::new(spec.rt0_secs, spec.alpha),
                image_size_mb: spec.image_size_mb,
                perf: scenario.perf_profiles[vm],
                current_pm,
                current_location: current_pm.map(|pm| cluster.location_of_pm(pm)),
                observed_usage: windows[vm].mean(),
            }
        })
        .collect();

    let horizon = cfg.tick * cfg.plan_horizon_ticks.unwrap_or(cfg.round_every_ticks);
    // Stickiness stays pinned to the round cadence even under a longer
    // planning horizon — it damps per-round churn, not per-horizon value.
    let round_span = cfg.tick * cfg.round_every_ticks;
    Problem {
        vms,
        hosts,
        net: Arc::clone(net),
        billing: Arc::clone(billing),
        horizon,
        // 5% of one round's revenue: big enough to damp noise-driven
        // churn, small enough to let real gains through.
        stickiness_eur: scenario.billing.revenue(1.0, round_span) * 0.05,
        host_index_cache: Default::default(),
    }
}

/// Wall-clock deadline governor for online serving: decides, from
/// observed round durations, which [`RoundFidelity`] rung the *next*
/// scheduling round plans at. Pure state machine — it never reads a
/// clock itself, so it is exactly testable.
///
/// The ladder descends one rung per overrun (Full → Trimmed →
/// BestFitOnly: first shrink the consolidation move budget, only then
/// drop consolidation entirely) and climbs one rung back only when a
/// round finishes within *half* the budget. The asymmetric band —
/// overrun to fall, half-budget to rise — is the hysteresis that stops
/// rounds hovering right at the budget edge from flapping between
/// rungs every tick. A zero budget disables degradation entirely.
#[derive(Clone, Debug)]
pub struct DeadlineGovernor {
    budget_ms: u64,
    fidelity: RoundFidelity,
}

impl DeadlineGovernor {
    /// Governor over a per-round wall-clock budget (0 = unlimited).
    pub fn new(budget_ms: u64) -> Self {
        DeadlineGovernor {
            budget_ms,
            fidelity: RoundFidelity::Full,
        }
    }

    /// The rung the upcoming round should plan at.
    pub fn plan_fidelity(&self) -> RoundFidelity {
        if self.budget_ms == 0 {
            RoundFidelity::Full
        } else {
            self.fidelity
        }
    }

    /// Report a completed round's wall time and the rung it ran at.
    pub fn record_round(&mut self, wall_ms: f64, ran: RoundFidelity) {
        if self.budget_ms == 0 {
            return;
        }
        let budget = self.budget_ms as f64;
        self.fidelity = if wall_ms > budget {
            // Overrun: surrender one more rung of fidelity.
            match ran {
                RoundFidelity::Full => RoundFidelity::Trimmed,
                _ => RoundFidelity::BestFitOnly,
            }
        } else if wall_ms * 2.0 <= budget {
            // Comfortably inside the budget: earn one rung back.
            match ran {
                RoundFidelity::BestFitOnly => RoundFidelity::Trimmed,
                _ => RoundFidelity::Full,
            }
        } else {
            // The dead band between budget/2 and budget: hold steady.
            ran
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{BestFitPolicy, HierarchicalPolicy};
    use crate::scenario::ScenarioBuilder;
    use pamdc_sched::oracle::TrueOracle;

    fn scenario() -> Scenario {
        ScenarioBuilder::paper_intra_dc().vms(3).seed(5).build()
    }

    fn outcome_bits(o: &TickOutcome) -> (u64, [u64; 4], usize, Option<(u64, RoundFidelity)>) {
        (
            o.tick_idx,
            [
                o.mean_sla.to_bits(),
                o.watts.to_bits(),
                o.green_watts.to_bits(),
                o.rps.to_bits(),
            ],
            o.active_pms,
            o.round.as_ref().map(|r| (r.migrations, r.fidelity)),
        )
    }

    #[test]
    fn stepper_matches_batch_runner_bit_for_bit() {
        let policy = || Box::new(BestFitPolicy::new(TrueOracle::new()));
        let hours = SimDuration::from_hours(2);
        let (batch, _) = Controller::new(scenario(), policy()).run_for(hours);
        let mut ctl = Controller::new(scenario(), policy());
        for _ in 0..hours.ticks(ctl.config().tick) {
            ctl.step(StepDemand::Source);
        }
        let (stepped, _) = ctl.finish(hours);
        assert_eq!(batch.mean_sla.to_bits(), stepped.mean_sla.to_bits());
        assert_eq!(batch.total_wh.to_bits(), stepped.total_wh.to_bits());
        assert_eq!(batch.migrations, stepped.migrations);
        assert_eq!(
            batch.profit.profit_eur().to_bits(),
            stepped.profit.profit_eur().to_bits()
        );
        assert_eq!(batch.obs_metrics, stepped.obs_metrics);
    }

    #[test]
    fn explicit_flows_match_source_sampling() {
        // Feeding the workload's own per-tick samples back through
        // StepDemand::Flows must be indistinguishable from Source.
        let policy = || Box::new(BestFitPolicy::new(TrueOracle::new()));
        let ticks = 30u64;
        let sc = scenario();
        let tick = RunConfig::default().tick;
        let n_vms = sc.cluster.vm_count();

        let mut by_source = Controller::new(sc.clone(), policy());
        let reference: Vec<TickOutcome> = (0..ticks)
            .map(|_| by_source.step(StepDemand::Source))
            .collect();

        let mut by_flows = Controller::new(sc.clone(), policy());
        for t in 0..ticks {
            let now = SimTime::ZERO + tick * t;
            let per_vm: Vec<Vec<FlowSample>> = (0..n_vms)
                .map(|vm| {
                    let mut flows = Vec::new();
                    sc.workload.sample_into(vm, now, &mut flows);
                    flows
                })
                .collect();
            let got = by_flows.step(StepDemand::Flows(&per_vm));
            assert_eq!(outcome_bits(&reference[t as usize]), outcome_bits(&got));
        }
    }

    #[test]
    fn degraded_rounds_skip_local_search_but_never_placement() {
        let mk = |degraded: bool| {
            let mut ctl =
                Controller::new(scenario(), Box::new(BestFitPolicy::new(TrueOracle::new())));
            let mut rounds = 0;
            for _ in 0..60 {
                let is_round = ctl.next_step_is_round();
                let fidelity = if degraded {
                    RoundFidelity::BestFitOnly
                } else {
                    RoundFidelity::Full
                };
                let out = ctl.step_with_fidelity(StepDemand::Source, fidelity);
                if is_round {
                    let r = out.round.expect("round tick must report a round");
                    assert_eq!(r.fidelity, fidelity);
                    rounds += 1;
                }
            }
            assert!(rounds > 0, "60 ticks at cadence 10 must hold rounds");
            let (outcome, _) = ctl.finish(SimDuration::from_mins(60));
            outcome
        };
        let metric = |o: &RunOutcome, key: &str| -> f64 {
            o.obs_metrics
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("metric {key} missing"))
        };

        let full = mk(false);
        let degraded = mk(true);
        // Placement always runs: every round calls the Best-Fit solver.
        assert!(metric(&full, "sched.bestfit.calls") > 0.0);
        assert_eq!(
            metric(&full, "sim.rounds"),
            metric(&degraded, "sim.rounds"),
            "degradation must not skip rounds"
        );
        assert!(metric(&degraded, "sched.bestfit.calls") > 0.0);
        // Local search runs only at full fidelity.
        let ls = |o: &RunOutcome| {
            metric(o, "sched.localsearch.moves_accepted")
                + metric(o, "sched.localsearch.moves_rejected")
                + metric(o, "sched.localsearch.candidates_rescored")
        };
        assert!(ls(&full) > 0.0, "full rounds must consolidate");
        assert_eq!(ls(&degraded), 0.0, "degraded rounds must not consolidate");
    }

    #[test]
    fn degraded_hierarchical_rounds_skip_local_search() {
        let mut ctl = Controller::new(
            scenario(),
            Box::new(HierarchicalPolicy::new(TrueOracle::new())),
        );
        for _ in 0..60 {
            ctl.step_with_fidelity(StepDemand::Source, RoundFidelity::BestFitOnly);
        }
        let (outcome, _) = ctl.finish(SimDuration::from_mins(60));
        let metric = |key: &str| -> f64 {
            outcome
                .obs_metrics
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| *v)
                .unwrap_or(0.0)
        };
        assert!(metric("sched.hier.rounds") > 0.0);
        assert_eq!(
            metric("sched.localsearch.moves_accepted") + metric("sched.localsearch.moves_rejected"),
            0.0
        );
    }

    #[test]
    fn deadline_governor_descends_one_rung_per_overrun() {
        let mut g = DeadlineGovernor::new(100);
        assert_eq!(g.plan_fidelity(), RoundFidelity::Full, "starts full");
        g.record_round(80.0, RoundFidelity::Full);
        assert_eq!(
            g.plan_fidelity(),
            RoundFidelity::Full,
            "dead-band round holds full fidelity"
        );
        g.record_round(150.0, RoundFidelity::Full);
        assert_eq!(
            g.plan_fidelity(),
            RoundFidelity::Trimmed,
            "first overrun only trims the move budget"
        );
        g.record_round(150.0, RoundFidelity::Trimmed);
        assert_eq!(
            g.plan_fidelity(),
            RoundFidelity::BestFitOnly,
            "second overrun drops consolidation entirely"
        );
        g.record_round(150.0, RoundFidelity::BestFitOnly);
        assert_eq!(
            g.plan_fidelity(),
            RoundFidelity::BestFitOnly,
            "no rung below bestfit-only"
        );
    }

    #[test]
    fn deadline_governor_climbs_one_rung_with_hysteresis() {
        let mut g = DeadlineGovernor::new(100);
        g.record_round(150.0, RoundFidelity::Full);
        g.record_round(150.0, RoundFidelity::Trimmed);
        assert_eq!(g.plan_fidelity(), RoundFidelity::BestFitOnly);

        g.record_round(70.0, RoundFidelity::BestFitOnly);
        assert_eq!(
            g.plan_fidelity(),
            RoundFidelity::BestFitOnly,
            "70ms > half budget: the dead band holds the rung (no flap)"
        );
        g.record_round(40.0, RoundFidelity::BestFitOnly);
        assert_eq!(
            g.plan_fidelity(),
            RoundFidelity::Trimmed,
            "comfortable round earns exactly one rung back"
        );
        g.record_round(60.0, RoundFidelity::Trimmed);
        assert_eq!(
            g.plan_fidelity(),
            RoundFidelity::Trimmed,
            "dead band holds the middle rung too"
        );
        g.record_round(40.0, RoundFidelity::Trimmed);
        assert_eq!(
            g.plan_fidelity(),
            RoundFidelity::Full,
            "a second comfortable round restores full fidelity"
        );
        g.record_round(10.0, RoundFidelity::Full);
        assert_eq!(g.plan_fidelity(), RoundFidelity::Full, "no rung above full");

        let mut unlimited = DeadlineGovernor::new(0);
        unlimited.record_round(1e9, RoundFidelity::Full);
        assert_eq!(
            unlimited.plan_fidelity(),
            RoundFidelity::Full,
            "zero budget never degrades"
        );
    }

    #[test]
    fn trimmed_rounds_consolidate_on_a_quarter_move_budget() {
        let mk = |fidelity: RoundFidelity| {
            let mut ctl =
                Controller::new(scenario(), Box::new(BestFitPolicy::new(TrueOracle::new())));
            for _ in 0..60 {
                let is_round = ctl.next_step_is_round();
                let out = ctl.step_with_fidelity(StepDemand::Source, fidelity);
                if is_round {
                    let r = out.round.expect("round tick must report a round");
                    assert_eq!(r.fidelity, fidelity);
                }
            }
            let (outcome, _) = ctl.finish(SimDuration::from_mins(60));
            outcome
        };
        let metric = |o: &RunOutcome, key: &str| -> f64 {
            o.obs_metrics
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("metric {key} missing"))
        };

        let full = mk(RoundFidelity::Full);
        let trimmed = mk(RoundFidelity::Trimmed);
        // Placement and the scheduling cadence are untouched by the rung.
        assert!(metric(&trimmed, "sched.bestfit.calls") > 0.0);
        assert_eq!(metric(&full, "sim.rounds"), metric(&trimmed, "sim.rounds"));
        // The middle rung still consolidates — unlike bestfit-only …
        let moves = |o: &RunOutcome| {
            metric(o, "sched.localsearch.moves_accepted")
                + metric(o, "sched.localsearch.moves_rejected")
        };
        assert!(moves(&trimmed) > 0.0, "trimmed rounds must consolidate");
        // … but on a shrunken budget, so it never explores more than
        // the full-fidelity pass.
        assert!(
            moves(&trimmed) <= moves(&full),
            "a quarter move budget cannot out-move full fidelity"
        );
        // The rung is observable: trimmed rounds count themselves, and
        // never masquerade as bestfit-only degradation.
        assert_eq!(
            metric(&trimmed, "serve.trimmed_rounds"),
            metric(&trimmed, "sim.rounds")
        );
        assert_eq!(metric(&trimmed, "serve.degraded_rounds"), 0.0);
        assert_eq!(metric(&full, "serve.trimmed_rounds"), 0.0);
    }
}
