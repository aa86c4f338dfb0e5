//! The `near-equiv` builtin's headline claims, asserted end-to-end:
//! `[policy] near_equivalence_top_k` actually routes placement through
//! the approximate candidate index (the near-shortlist counters move),
//! and every report produced under it is loudly labeled with the
//! `+NEAR-EQUIV(topK)` marker — because the approximation relaxes the
//! bit-identity guarantee, silence would be a lie of omission.

use pamdc_scenario::registry;
use pamdc_scenario::runner::run_spec;
use std::path::Path;

fn metric(report: &pamdc_scenario::runner::SpecReport, key: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("metric {key} missing"))
        .1
}

#[test]
fn near_equivalence_takes_the_approximate_index_path_and_says_so() {
    let spec = registry::find("near-equiv").expect("builtin").spec;
    assert_eq!(spec.policy.near_equivalence_top_k, Some(3));

    let report = run_spec(&spec, Path::new("."), true).expect("near-equiv");
    assert!(
        report.text.contains("+NEAR-EQUIV(top3)"),
        "the relaxed-guarantee marker must appear in the report:\n{}",
        report.text
    );
    assert!(
        metric(&report, "obs.sched.index.near_shortlist_hits") > 0.0,
        "the near index must actually be consulted"
    );
}

#[test]
fn exact_twin_never_consults_the_near_index_and_stays_unlabeled() {
    // Same world with the approximation switched off: the exact
    // candidate index still places every round, but no coarse group is
    // ever scored and no report carries the marker.
    let mut twin = registry::find("near-equiv").expect("builtin").spec;
    twin.policy.near_equivalence_top_k = None;
    twin.name = "near-equiv-exact-twin".into();

    let report = run_spec(&twin, Path::new("."), true).expect("twin");
    assert!(!report.text.contains("+NEAR-EQUIV"));
    assert_eq!(metric(&report, "obs.sched.index.near_shortlist_hits"), 0.0);
    assert!(metric(&report, "obs.sched.bestfit.calls") > 0.0);
}
