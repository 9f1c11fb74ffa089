//! The bisection oracle itself, and the engine's exact payments held to
//! it across churned epochs: `EpochAllocator` coincides with the
//! offline allocator on a trivial context, prices against residual
//! scarcity on a frozen one, and brackets every exact payment of a
//! multi-epoch run under TTL churn and carried weights.

use ufp_core::{BoundedUfpConfig, Request, UfpInstance};
use ufp_engine::{Arrival, Engine, EngineConfig, PaymentPolicy};
use ufp_mechanism::{critical_value, PaymentConfig, SingleParamAllocator, UfpAllocator};
use ufp_netgraph::graph::GraphBuilder;
use ufp_netgraph::ids::NodeId;

mod common;

use common::EpochAllocator;

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

#[test]
fn resumed_payments_match_naive_baseline_across_churned_epochs() {
    // Exact payments from one resumed pass per winner, against the
    // naive baseline: bisection re-running the whole frozen epoch per
    // probe. Every payment on every epoch, under TTL churn and carried
    // weights, must satisfy p ≤ p_bisect ≤ p·(1+tol).
    let mut gb = GraphBuilder::directed(4);
    gb.add_edge(n(0), n(1), 9.0);
    gb.add_edge(n(1), n(3), 9.0);
    gb.add_edge(n(0), n(2), 8.0);
    gb.add_edge(n(2), n(3), 8.0);
    let mut engine = Engine::new(
        gb.build(),
        EngineConfig::with_epsilon(0.6).with_payments(PaymentPolicy::critical_value()),
    );
    let mut priced = 0;
    for e in 0..5 {
        let arrivals: Vec<Arrival> = (0..7)
            .map(|i| {
                let r = Request::new(
                    n(0),
                    n(3),
                    0.5 + 0.1 * ((e + i) % 4) as f64,
                    1.0 + ((3 * e + i) % 6) as f64,
                );
                if i % 2 == 0 {
                    Arrival::with_ttl(r, 1 + (i % 2) as u32)
                } else {
                    Arrival::permanent(r)
                }
            })
            .collect();
        let (_, pairs) = common::epoch_with_oracle(&mut engine, &arrivals);
        common::assert_brackets(&pairs, &format!("epoch {e}"));
        priced += pairs.iter().filter(|&&(exact, _)| exact > 0.0).count();
    }
    assert!(priced > 0, "the fixture must price some winners");
}
