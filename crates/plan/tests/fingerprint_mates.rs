//! Condition summaries that share a `ConditionFingerprint` share one
//! cached hull. The hull is exact for the summary it was built from;
//! a fingerprint-mate queried later gets that summary's answer, which
//! misses the mate's own model by the model's response to the
//! fingerprint's quantization (`FINGERPRINT_MANTISSA_BITS`).

use mce_model::{
    conditioned_best_partition, conditioned_multiphase_time, ConditionSummary, MachineParams,
    FINGERPRINT_MANTISSA_BITS,
};
use mce_plan::{FallbackPolicy, PlanEngine, PlanHull, PlanOptions, PlanQuery};
use mce_simnet::config::SwitchingMode;

/// One background stream over dimensions `0b011101` of a d6 cube.
fn stream(busy_us: f64) -> ConditionSummary {
    let mut cond = ConditionSummary::noop(6);
    cond.add_stream(0b01_1101, busy_us, 2400.0);
    cond
}

#[test]
fn fingerprint_mates_are_answered_from_the_built_summary() {
    let machine = MachineParams::ipsc860();
    let d = 6u32;
    let built = stream(138.0);
    let mate = stream(138.0 * (1.0 + 9e-4));
    assert_eq!(built.fingerprint(), mate.fingerprint());
    assert_ne!(built, mate);

    let engine =
        PlanEngine::new(PlanOptions { fallback: FallbackPolicy::Never, ..PlanOptions::default() });
    let hull = PlanHull::build(&machine, SwitchingMode::Circuit, d, &built);
    let price = |cond: &ConditionSummary, m: f64, parts: &[u32]| {
        conditioned_multiphase_time(&machine, m, d, parts, cond)
    };
    let mut worst = 0.0f64;
    for m in (1..=1024).map(f64::from) {
        let _ = engine.answer(&PlanQuery::clean(d, m, machine.clone()).with_summary(built.clone()));
        let answer =
            engine.answer(&PlanQuery::clean(d, m, machine.clone()).with_summary(mate.clone()));
        let (own_best, own_t) = conditioned_best_partition(&machine, m, d, &mate);
        worst = worst.max((answer.predicted_us - own_t).abs() / own_t);
        if hull.near_boundary(m) {
            continue; // the band re-runs the exact fold on the mate itself
        }
        // The built summary's answer, to the hull's 1e-9 ...
        let (built_best, built_t) = conditioned_best_partition(&machine, m, d, &built);
        assert_eq!(answer.best_partition, built_best, "m={m}");
        assert!((answer.predicted_us - built_t).abs() <= 1e-9 * built_t, "m={m}");
        // ... which costs the mate no more than the two partitions'
        // price shifts between the summaries.
        let (w, b) = (answer.best_partition.parts(), own_best.parts());
        let shift = (price(&built, m, w) - price(&mate, m, w)).abs()
            + (price(&built, m, b) - price(&mate, m, b)).abs();
        assert!(price(&mate, m, w) - own_t <= shift + 1e-9 * own_t, "m={m}");
    }
    // The mates' fields differ by up to 2^-FINGERPRINT_MANTISSA_BITS
    // relative; on this condition the predictions move by less, but
    // far more than the hull's own 1e-9.
    assert!(worst > 1e-9, "worst {worst:e}");
    assert!(worst <= 2f64.powi(-(FINGERPRINT_MANTISSA_BITS as i32)), "worst {worst:e}");

    // At 142 B the built summary's winner is not the mate's own.
    let m = 142.0;
    assert!(!hull.near_boundary(m));
    let answer = engine.answer(&PlanQuery::clean(d, m, machine.clone()).with_summary(mate.clone()));
    assert_eq!(answer.best_partition.parts(), &[6]);
    assert_eq!(conditioned_best_partition(&machine, m, d, &mate).0.parts(), &[3, 3]);
}
