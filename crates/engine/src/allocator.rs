//! Epoch-frozen allocator adapter for payment computation.

use ufp_core::{bounded_ufp_epoch, BoundedUfpConfig, EpochContext, RequestId, UfpInstance};
use ufp_mechanism::SingleParamAllocator;

/// Algorithm 1 under a frozen epoch context, as a
/// [`SingleParamAllocator`]. Critical-value bisection
/// (`ufp_mechanism::critical_value`) over it probes counterfactual
/// declarations against *exactly* the residual capacities, usable mask,
/// and carried weights the epoch's real run saw, re-running the whole
/// epoch per probe. The engine prices winners exactly instead
/// ([`crate::PaymentPolicy::CriticalValue`]); this bisection is the
/// oracle its tests hold the exact payments to. On a trivial context it
/// coincides with `ufp_mechanism::UfpAllocator`, which the
/// engine/offline equivalence tests assert.
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
    /// [`crate::EpochPlan::context`]).
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

#[cfg(test)]
mod tests {
    use super::*;
    use ufp_core::Request;
    use ufp_mechanism::{critical_value, PaymentConfig, UfpAllocator};
    use ufp_netgraph::graph::GraphBuilder;
    use ufp_netgraph::ids::NodeId;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn trivial_context_matches_ufp_allocator_payments() {
        let mut gb = GraphBuilder::directed(2);
        gb.add_edge(n(0), n(1), 4.0);
        let inst = UfpInstance::new(
            gb.build(),
            (0..8)
                .map(|i| Request::new(n(0), n(1), 1.0, 1.0 + i as f64))
                .collect(),
        );
        let config = BoundedUfpConfig::with_epsilon(0.5);
        let caps: Vec<f64> = inst.graph().edges().iter().map(|e| e.capacity).collect();
        let usable = vec![true; caps.len()];
        let carry = vec![0.0; caps.len()];
        let epoch_alloc = EpochAllocator {
            config: &config,
            capacities: &caps,
            usable: &usable,
            carry: &carry,
            routable: None,
        };
        let offline_alloc = UfpAllocator {
            config: config.clone(),
        };
        let sel_e = epoch_alloc.selected(&inst);
        let sel_o = offline_alloc.selected(&inst);
        assert_eq!(sel_e, sel_o);
        let pc = PaymentConfig::default();
        for (agent, &selected) in sel_e.iter().enumerate() {
            if selected {
                let pe = critical_value(&epoch_alloc, &inst, agent, &pc);
                let po = critical_value(&offline_alloc, &inst, agent, &pc);
                assert_eq!(pe, po, "agent {agent}: {pe} != {po}");
            }
        }
    }

    #[test]
    fn frozen_context_prices_against_residual_scarcity() {
        // One edge, residual capacity 2 of base 4: only two unit requests
        // fit, so the excluded third bid sets a positive critical value.
        let mut gb = GraphBuilder::directed(2);
        gb.add_edge(n(0), n(1), 4.0);
        let inst = UfpInstance::new(
            gb.build(),
            vec![
                Request::new(n(0), n(1), 1.0, 5.0),
                Request::new(n(0), n(1), 1.0, 3.0),
                Request::new(n(0), n(1), 1.0, 2.0),
            ],
        );
        let config = BoundedUfpConfig::with_epsilon(1.0);
        let caps = [2.0];
        let usable = [true];
        let carry = [0.0];
        let alloc = EpochAllocator {
            config: &config,
            capacities: &caps,
            usable: &usable,
            carry: &carry,
            routable: None,
        };
        let sel = alloc.selected(&inst);
        assert_eq!(sel, vec![true, true, false]);
        let p0 = critical_value(&alloc, &inst, 0, &PaymentConfig::default());
        // Dropping below the excluded bid's effective threshold loses the
        // slot, so the payment is bounded by bids 1 and 2.
        assert!(p0 > 0.0 && p0 <= 3.0 + 1e-6, "payment {p0}");
    }
}
