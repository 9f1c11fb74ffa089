//! The payment oracle shared by the engine test suites: critical-value
//! bisection over full re-runs of an epoch's frozen context, against
//! which the engine's exact payments are held to the contract
//! `p ≤ p_bisect ≤ p·(1+tol)`.

use ufp_core::{bounded_ufp_epoch, BoundedUfpConfig, EpochContext, RequestId, UfpInstance};
use ufp_engine::{Arrival, Engine, EpochReport, PaymentPolicy};
use ufp_mechanism::{brackets_exact, critical_value, PaymentConfig, SingleParamAllocator};

/// Algorithm 1 under a frozen epoch context, as a
/// [`SingleParamAllocator`]. Critical-value bisection
/// (`ufp_mechanism::critical_value`) over it probes counterfactual
/// declarations against *exactly* the residual capacities, usable mask,
/// and carried weights the epoch's real run saw, re-running the whole
/// epoch per probe. The engine prices winners exactly instead
/// (`PaymentPolicy::CriticalValue`); this bisection is the oracle its
/// tests hold the exact payments to. On a trivial context it coincides
/// with `ufp_mechanism::UfpAllocator`, which `tests/payment_oracle.rs`
/// asserts.
#[derive(Clone, Copy, Debug)]
pub struct EpochAllocator<'a> {
    /// Per-epoch allocation configuration.
    pub config: &'a BoundedUfpConfig,
    /// Residual capacity per edge, frozen at epoch start.
    pub capacities: &'a [f64],
    /// Admissible edges, frozen at epoch start.
    pub usable: &'a [bool],
    /// Carried (already decayed) dual exponents, frozen at epoch start.
    pub carry: &'a [f64],
    /// Shard-territory path restriction, frozen at epoch start (`None`
    /// outside sharded mode). Probes must search exactly the edge set
    /// the real run could use, or a counterfactual declaration could
    /// "win" over a path the shard was never allowed to route.
    pub routable: Option<&'a [bool]>,
}

impl<'a> EpochAllocator<'a> {
    /// The allocator over a frozen epoch context (e.g.
    /// `EpochPlan::context`).
    pub fn new(config: &'a BoundedUfpConfig, ctx: &EpochContext<'a>) -> Self {
        EpochAllocator {
            config,
            capacities: ctx.capacities,
            usable: ctx.usable,
            carry: ctx.carry,
            routable: ctx.routable,
        }
    }

    fn context(&self) -> EpochContext<'_> {
        EpochContext {
            capacities: self.capacities,
            usable: self.usable,
            carry: self.carry,
            routable: self.routable,
        }
    }
}

impl SingleParamAllocator for EpochAllocator<'_> {
    type Inst = UfpInstance;

    fn num_agents(&self, inst: &UfpInstance) -> usize {
        inst.num_requests()
    }

    fn selected(&self, inst: &UfpInstance) -> Vec<bool> {
        let outcome = bounded_ufp_epoch(inst, self.config, Some(&self.context()));
        let mut sel = vec![false; inst.num_requests()];
        for (rid, _) in &outcome.run.solution.routed {
            sel[rid.index()] = true;
        }
        sel
    }

    fn declared_value(&self, inst: &UfpInstance, agent: usize) -> f64 {
        inst.request(RequestId(agent as u32)).value
    }

    fn with_value(&self, inst: &UfpInstance, agent: usize, value: f64) -> UfpInstance {
        let rid = RequestId(agent as u32);
        inst.with_declared_type(rid, inst.request(rid).demand, value)
    }
}

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
