//! # pamdc-bench — the gated scheduler benches
//!
//! Three Criterion benches time the scheduler hot path, and CI gates
//! each one against the checked-in `BENCH_solver_scaling.json`:
//!
//! * `solver_scaling` — the §IV-C observation (exact B&B explodes,
//!   Best-Fit stays flat) and the incremental consolidation pass against
//!   its full-evaluation reference;
//! * `bestfit_scale` — indexed-shortlist Best-Fit against the full scan
//!   at planet scale, plus one sharded hierarchical round;
//! * `localsearch_scale` — the incremental local search against the
//!   full-rescan reference, and a consolidating round at 10000×1000.
//!
//! Each bench asserts its fast path matches its reference before timing
//! anything. Run with `PAMDC_BENCH_JSON=<file>`, a bench appends one
//! JSON line per id; [`perf_gate`] compares that file with the baseline.
//! `tests/ci_gates.rs` pins the rule that every `[[bench]]` target has a
//! CI step and a `perf_gate` line. The `hier_jobs` binary records the
//! multi-core speedup of one round, ungated.

pub mod perf_gate;
