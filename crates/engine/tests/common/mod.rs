//! The payment oracle shared by the engine test suites: critical-value
//! bisection over full re-runs of an epoch's frozen context, against
//! which the engine's exact payments are held to the contract
//! `p ≤ p_bisect ≤ p·(1+tol)`.

use ufp_engine::{Arrival, Engine, EpochAllocator, EpochReport, PaymentPolicy};
use ufp_mechanism::{brackets_exact, critical_value, PaymentConfig};

/// Run one epoch through `plan_epoch` + `commit_epoch` and price its
/// winners twice. Returns the report and, per admission of the epoch
/// (in admission order), the committed exact payment and the bisected
/// one.
pub fn epoch_with_oracle(
    engine: &mut Engine,
    arrivals: &[Arrival],
) -> (EpochReport, Vec<(f64, f64)>) {
    assert_eq!(
        engine.config().payments,
        PaymentPolicy::CriticalValue,
        "the oracle prices critical-value engines"
    );
    let payment = PaymentConfig::default();
    let config = engine.config().allocator_config();
    let plan = engine.plan_epoch(arrivals, None);
    let bisected: Vec<f64> = {
        let ctx = plan.context();
        let oracle = EpochAllocator::new(&config, &ctx);
        plan.outcome()
            .run
            .solution
            .routed
            .iter()
            .map(|(rid, _)| critical_value(&oracle, plan.instance(), rid.index(), &payment))
            .collect()
    };
    let first = engine.admissions().len();
    let report = engine.commit_epoch(plan, None);
    let exact = engine.admissions()[first..].iter().map(|a| a.payment);
    (report, exact.zip(bisected).collect())
}

/// Assert the bisection contract for every `(exact, bisected)` pair.
pub fn assert_brackets(pairs: &[(f64, f64)], what: &str) {
    for (i, &(exact, bisected)) in pairs.iter().enumerate() {
        assert!(
            brackets_exact(exact, bisected, &PaymentConfig::default()),
            "{what}: winner {i} paid {exact:e}, bisection {bisected:e}"
        );
    }
}
