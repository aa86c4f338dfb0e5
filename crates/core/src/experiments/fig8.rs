//! E-F8 — the paper's **Figure 8**: the SLA vs energy vs load
//! characteristic surface.
//!
//! "Given the amount of load, as we want to improve the SLA fulfillment
//! we are forced to consume more energy." The surface is traced by
//! sweeping the global load scale and, per load level, varying how much
//! energy the system may spend (here: how many hosts per DC it may
//! power), then measuring the achieved SLA. Sweep points run in
//! parallel — one sweep point per [`pamdc_simcore::par::parallel_map`]
//! item, each with its own derived seed, so the sweep is deterministic
//! regardless of thread interleaving.

use crate::experiment::{ExperimentReport, ExperimentRun};
use crate::report::TextTable;

/// One point of the surface.
#[derive(Clone, Copy, Debug)]
pub struct SurfacePoint {
    /// Load multiplier.
    pub load_scale: f64,
    /// Hosts per DC allowed.
    pub pms_per_dc: usize,
    /// Measured mean request rate, req/s.
    pub mean_rps: f64,
    /// Measured mean facility draw, W.
    pub avg_watts: f64,
    /// Measured mean SLA.
    pub mean_sla: f64,
}

/// The full surface.
pub struct Fig8Result {
    /// All sweep points, load-major order.
    pub points: Vec<SurfacePoint>,
}

/// The report over one arm per `(load scale, hosts per DC)` point of
/// `grid`, load-major. The surface is a plot, not a metric list: the
/// report stays table-only (CSV-ready via the rendered rows).
pub fn report(run: ExperimentRun, grid: &[(f64, usize)]) -> ExperimentReport {
    let points = grid
        .iter()
        .zip(run.into_outcomes())
        .map(|(&(load_scale, pms_per_dc), o)| SurfacePoint {
            load_scale,
            pms_per_dc,
            mean_rps: o.series.get("rps").map(|s| s.mean()).unwrap_or(0.0),
            avg_watts: o.avg_watts,
            mean_sla: o.mean_sla,
        })
        .collect();
    ExperimentReport {
        text: render(&Fig8Result { points }),
        metrics: Vec::new(),
    }
}

/// Renders the surface as rows (plot-ready CSV via
/// [`crate::report::TextTable::to_csv`]).
pub fn render(result: &Fig8Result) -> String {
    let mut t = TextTable::new(&["load scale", "PMs/DC", "mean rps", "avg W", "mean SLA"]);
    for p in &result.points {
        t.row(vec![
            format!("{:.2}", p.load_scale),
            p.pms_per_dc.to_string(),
            format!("{:.1}", p.mean_rps),
            format!("{:.1}", p.avg_watts),
            format!("{:.4}", p.mean_sla),
        ]);
    }
    format!("Figure 8 — SLA vs energy vs load surface\n{}", t.render())
}
