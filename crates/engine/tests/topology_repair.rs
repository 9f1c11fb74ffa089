//! Property-based coverage of the dynamic-topology repair pass — the
//! four contracts of the dynamic-topology PR:
//!
//! * **(a) Residual feasibility** — after *any* interleaving of churned
//!   arrival batches and topology mutations (flaps, resizes, outages,
//!   drains), the active admissions fit within every surviving edge's
//!   effective capacity.
//! * **(b) Refund balance** — evicted-flow refunds logged through the
//!   event stream balance the collected payments exactly: the multiset
//!   of `Evicted` refunds equals the multiset of evicted admissions'
//!   payments (bit-for-bit), and `metrics.refunded` is their ordered
//!   sum.
//! * **(c) Repair = fresh tracker** — immediately after a repair pass,
//!   the engine's residual state is bit-identical to a *fresh*
//!   capacity tracker on the post-mutation network replaying the
//!   surviving admissions in admission order (no float residue from
//!   the evicted flows survives).
//! * **(d) Snapshot → typed migration → lockstep** — a snapshot taken
//!   before a mutation burst restores and then migrates onto the
//!   mutated topology via an explicit [`Engine::migrate_to`], after which
//!   the restored engine re-serializes to the original's exact snapshot
//!   bytes and continues in lockstep on any continuation stream.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use std::sync::Arc;

use ufp_core::Request;
use ufp_engine::{
    Arrival, Engine, EngineConfig, EngineEvent, PaymentPolicy, ResidualFloor, TopologyEvent,
};
use ufp_netgraph::graph::Graph;
use ufp_netgraph::ids::NodeId;
use ufp_netgraph::residual::ResidualCaps;
use ufp_netgraph::{bfs, generators};
use ufp_workloads::failures::{failure_trace, DrainWindow, FailureTraceConfig};

/// Random small network plus connected requests (normalized demands) —
/// the same scenario family as the engine equivalence proptests.
fn arb_scenario() -> impl Strategy<Value = (Graph, Vec<Request>, f64)> {
    (3usize..8, 6usize..18, any::<u64>(), 1usize..10).prop_map(|(n, requests, seed, eps_decile)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let max_edges = n * (n - 1);
        let m = (max_edges / 2).clamp(2, max_edges);
        let cap = 3.0 + (seed % 9) as f64;
        let graph = generators::gnm_digraph(n, m, (cap, cap * 2.0), &mut rng);
        let mut reqs = Vec::new();
        let mut attempts = 0;
        while reqs.len() < requests && attempts < 2000 {
            attempts += 1;
            let src = NodeId(rng.random_range(0..n as u32));
            let dst = NodeId(rng.random_range(0..n as u32));
            if src == dst || !bfs::is_reachable(&graph, src, dst) {
                continue;
            }
            reqs.push(Request::new(
                src,
                dst,
                rng.random_range(0.3..=1.0),
                rng.random_range(0.5..4.0),
            ));
        }
        let epsilon = 0.1 * eps_decile as f64;
        (graph, reqs, epsilon)
    })
}

/// Churned batches of 3 with alternating TTLs, as in the snapshot suite.
fn churned_batches(requests: &[Request], ttl: u32) -> Vec<Vec<Arrival>> {
    requests
        .chunks(3)
        .enumerate()
        .map(|(i, chunk)| {
            chunk
                .iter()
                .enumerate()
                .map(|(j, &r)| {
                    if (i + j) % 2 == 0 {
                        Arrival::with_ttl(r, ttl)
                    } else {
                        Arrival::permanent(r)
                    }
                })
                .collect()
        })
        .collect()
}

/// A busy per-epoch mutation trace sized to the batch count: flaps,
/// shrink-biased resizes (shrinks force evictions), regional outages,
/// and one planned drain window.
fn mutation_trace(graph: &Graph, epochs: usize, seed: u64) -> Vec<Vec<TopologyEvent>> {
    failure_trace(
        graph,
        &FailureTraceConfig {
            epochs: epochs as u32,
            seed,
            flap_rate: 0.8,
            flap_down_epochs: 2,
            resize_rate: 0.8,
            resize_range: (0.3, 1.2),
            outage_rate: 0.2,
            outage_radius: 1,
            outage_down_epochs: 2,
            drains: vec![DrainWindow {
                node: NodeId(0),
                start: 1,
                duration: 2,
            }],
        },
    )
}

fn repair_config(epsilon: f64, payments: PaymentPolicy) -> EngineConfig {
    EngineConfig {
        residual_floor: ResidualFloor::Permissive,
        ..EngineConfig::with_epsilon(epsilon).with_payments(payments)
    }
}

/// One admission flattened to comparable primitives.
type AdmissionState = (u32, Vec<u32>, u64, Option<u64>, u64, bool, bool);

fn full_observable(engine: &Engine) -> Vec<AdmissionState> {
    engine
        .admissions()
        .iter()
        .map(|a| {
            (
                a.request.0,
                a.path.nodes().iter().map(|n| n.0).collect(),
                a.epoch,
                a.expires_at,
                a.payment.to_bits(),
                a.released,
                a.evicted,
            )
        })
        .collect()
}

/// An arrival flattened to comparable primitives.
fn arrival_key(a: &Arrival) -> (u32, u32, u64, u64, Option<u32>) {
    (
        a.request.src.0,
        a.request.dst.0,
        a.request.demand.to_bits(),
        a.request.value.to_bits(),
        a.ttl,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// (a) + (c): any interleaving of churned batches and mutations
    /// keeps the active admissions feasible on every surviving edge's
    /// effective capacity, and right after each repair pass the residual
    /// tracker is bit-identical to a fresh tracker on the post-mutation
    /// capacities replaying the surviving admissions in admission order.
    #[test]
    fn repair_keeps_feasibility_and_matches_fresh_tracker(
        (graph, requests, epsilon) in arb_scenario(),
        ttl in 1u32..4,
        fail_seed in any::<u64>(),
    ) {
        let mut engine = Engine::new(
            graph.clone(),
            repair_config(epsilon, PaymentPolicy::critical_value()),
        );
        let batches = churned_batches(&requests, ttl);
        let mutations = mutation_trace(&graph, batches.len(), fail_seed);
        for (events, batch) in mutations.iter().zip(&batches) {
            if !events.is_empty() {
                engine.apply_topology(events).expect("generated trace applies");

                // (c) Fresh tracker on the post-mutation capacities,
                // replaying the surviving admissions in admission order.
                let mut fresh =
                    ResidualCaps::with_caps(engine.topology().effective_capacities())
                        .expect("effective capacities are non-negative");
                let instance = engine.instance();
                for adm in engine.admissions().iter().filter(|a| !a.released) {
                    fresh.commit(&adm.path, instance.request(adm.request).demand);
                }
                let fresh_loads: Vec<u64> =
                    fresh.loads().iter().map(|l| l.to_bits()).collect();
                let engine_loads: Vec<u64> =
                    engine.residual().loads().iter().map(|l| l.to_bits()).collect();
                prop_assert_eq!(fresh_loads, engine_loads, "repaired residual diverged");
            }
            // (a) Feasible right after the repair pass...
            prop_assert!(engine.verify_active_feasibility().is_ok(),
                "infeasible after repair: {:?}", engine.verify_active_feasibility());
            // ...and after admitting the next batch (survivors of past
            // repairs rejoin ahead of the scheduled arrivals).
            let mut merged = engine.drain_readmissions();
            merged.extend(batch.iter().cloned());
            engine.submit_batch(&merged);
            prop_assert!(engine.verify_active_feasibility().is_ok(),
                "infeasible after epoch: {:?}", engine.verify_active_feasibility());
        }
    }

    /// (b) Refund balance: `Evicted` events refund exactly the payments
    /// charged at admission — as a multiset, bit for bit — and the
    /// metrics counters are their ordered aggregate.
    #[test]
    fn eviction_refunds_balance_collected_payments(
        (graph, requests, epsilon) in arb_scenario(),
        ttl in 1u32..4,
        fail_seed in any::<u64>(),
    ) {
        let mut engine = Engine::new(
            graph.clone(),
            repair_config(epsilon, PaymentPolicy::critical_value()),
        );
        let batches = churned_batches(&requests, ttl);
        let mutations = mutation_trace(&graph, batches.len(), fail_seed);
        for (events, batch) in mutations.iter().zip(&batches) {
            if !events.is_empty() {
                engine.apply_topology(events).expect("generated trace applies");
            }
            let mut merged = engine.drain_readmissions();
            merged.extend(batch.iter().cloned());
            engine.submit_batch(&merged);
        }

        // Refunds drawn from the event log (evictions are logged at
        // every event level, so the audit is verbosity-independent).
        let mut logged: Vec<(u32, u64)> = engine
            .events()
            .iter()
            .filter_map(|e| match e {
                EngineEvent::Evicted { request, refund, .. } => {
                    Some((request.0, refund.to_bits()))
                }
                _ => None,
            })
            .collect();
        // The ordered sum reproduces the metrics accumulator exactly
        // (explicit fold from +0.0: `iter::sum` seeds with -0.0, which
        // diverges in the last bit on all-negative-zero refunds).
        let refund_sum: f64 = logged
            .iter()
            .fold(0.0, |acc, &(_, bits)| acc + f64::from_bits(bits));
        let metrics = engine.metrics();
        prop_assert_eq!(metrics.evicted as usize, logged.len());
        prop_assert_eq!(
            refund_sum.to_bits(), metrics.refunded.to_bits(),
            "metrics.refunded diverged from the event log: {} vs {}",
            refund_sum, metrics.refunded
        );

        // And the refunds balance the charged payments, admission by
        // admission.
        let mut charged: Vec<(u32, u64)> = engine
            .admissions()
            .iter()
            .filter(|a| a.evicted)
            .map(|a| (a.request.0, a.payment.to_bits()))
            .collect();
        logged.sort_unstable();
        charged.sort_unstable();
        prop_assert_eq!(logged, charged, "refunds do not balance payments");
        // Evicted implies released, and every eviction released capacity.
        for a in engine.admissions().iter().filter(|a| a.evicted) {
            prop_assert!(a.released, "evicted admission left active");
        }
    }

    /// (d) A snapshot taken before a mutation burst restores onto the
    /// mutated topology through an explicit typed migration, after which
    /// the restored engine re-serializes to the original's exact bytes
    /// and continues in lockstep on the rest of the stream.
    #[test]
    fn snapshot_migration_restores_in_lockstep(
        (graph, requests, epsilon) in arb_scenario(),
        ttl in 1u32..4,
        cut in 1usize..4,
        fail_seed in any::<u64>(),
    ) {
        let config = repair_config(epsilon, PaymentPolicy::critical_value());
        let graph = Arc::new(graph);
        let mut original = Engine::from_shared(Arc::clone(&graph), config.clone());
        let batches = churned_batches(&requests, ttl);
        let cut = cut.min(batches.len());
        for batch in &batches[..cut] {
            original.submit_batch(batch);
        }
        let bytes = original.snapshot_bytes();

        // Mutation burst after the snapshot: the snapshot is now stale
        // with respect to the live topology.
        let burst: Vec<TopologyEvent> = mutation_trace(&graph, 3, fail_seed)
            .into_iter()
            .flatten()
            .collect();
        if burst.is_empty() {
            return Ok(());
        }
        let report = original.apply_topology(&burst).expect("generated trace applies");
        prop_assert_eq!(report.to_version, burst.len() as u64);

        // Restore onto the mutated topology: an explicit typed migration
        // replaying the event delta, priced evictions included.
        let mut restored = Engine::restore_from_bytes(&bytes, Arc::clone(&graph), config)
            .expect("pristine snapshot must restore");
        let migration = restored
            .migrate_to(original.topology())
            .expect("ancestor snapshot must migrate")
            .expect("non-empty delta must report a migration");
        prop_assert_eq!(migration.from_version, 0);
        prop_assert_eq!(migration.to_version, burst.len() as u64);
        prop_assert_eq!(migration.evicted, report.evicted);
        prop_assert_eq!(migration.refunded.to_bits(), report.refunded.to_bits());

        // The migrated engine is bit-identical to the live one: same
        // snapshot bytes, same queued re-admissions.
        prop_assert_eq!(original.snapshot_bytes(), restored.snapshot_bytes());
        let (mut ra, rb) = (original.drain_readmissions(), restored.drain_readmissions());
        prop_assert_eq!(
            ra.iter().map(arrival_key).collect::<Vec<_>>(),
            rb.iter().map(arrival_key).collect::<Vec<_>>()
        );

        // And it continues in lockstep on the rest of the stream
        // (re-admission candidates ahead of the scheduled arrivals).
        for batch in &batches[cut..] {
            let mut merged = ra.clone();
            merged.extend(batch.iter().cloned());
            ra = Vec::new();
            let a = original.submit_batch(&merged);
            let b = restored.submit_batch(&merged);
            prop_assert_eq!(a.accepted, b.accepted);
            prop_assert_eq!(a.released, b.released);
            prop_assert_eq!(a.revenue.to_bits(), b.revenue.to_bits());
            prop_assert_eq!(a.min_residual.to_bits(), b.min_residual.to_bits());
        }
        prop_assert_eq!(full_observable(&original), full_observable(&restored));
        let (m, r) = (original.metrics(), restored.metrics());
        prop_assert_eq!(m.evicted, r.evicted);
        prop_assert_eq!(m.refunded.to_bits(), r.refunded.to_bits());
        prop_assert_eq!(m.revenue.to_bits(), r.revenue.to_bits());
    }
}

/// Divergent histories have no migration delta: restoring a snapshot
/// whose topology log is *not* an ancestor of the live topology is the
/// typed `GraphMismatch`, not a silent partial restore.
#[test]
fn divergent_topology_history_is_refused() {
    let mut rng = StdRng::seed_from_u64(11);
    let graph = Arc::new(generators::gnm_digraph(6, 14, (8.0, 16.0), &mut rng));
    let config = EngineConfig::with_epsilon(0.5);
    let mut engine = Engine::from_shared(Arc::clone(&graph), config.clone());
    engine
        .apply_topology(&[TopologyEvent::LinkDown {
            edge: ufp_netgraph::ids::EdgeId(0),
        }])
        .expect("valid event");
    let bytes = engine.snapshot_bytes();

    // Live topology whose first event differs: the snapshot's log can
    // never be its prefix.
    let live = ufp_engine::Topology::replay(
        &graph,
        &[TopologyEvent::LinkDown {
            edge: ufp_netgraph::ids::EdgeId(1),
        }],
    )
    .expect("valid replay");
    let mut restored =
        Engine::restore_from_bytes(&bytes, Arc::clone(&graph), config).expect("restores");
    let err = restored
        .migrate_to(&live)
        .expect_err("divergent history must be refused");
    assert!(
        matches!(err, ufp_engine::CodecError::GraphMismatch { .. }),
        "want GraphMismatch, got {err:?}"
    );
}

/// `migrate_to` on an engine already at the target topology is a
/// no-op, and a refusal leaves the engine exactly as it was: same
/// snapshot bytes, and it still migrates onto a descendant afterwards.
#[test]
fn migrate_to_is_a_no_op_on_an_identical_log_and_untouched_on_refusal() {
    use ufp_netgraph::graph::GraphBuilder;
    use ufp_netgraph::ids::EdgeId;
    let mut gb = GraphBuilder::directed(4);
    gb.add_edge(NodeId(0), NodeId(1), 12.0);
    gb.add_edge(NodeId(1), NodeId(3), 12.0);
    gb.add_edge(NodeId(0), NodeId(2), 10.0);
    gb.add_edge(NodeId(2), NodeId(3), 10.0);
    let graph = Arc::new(gb.build());
    let config = repair_config(0.5, PaymentPolicy::critical_value());
    let mut engine = Engine::from_shared(Arc::clone(&graph), config);
    let requests: Vec<Request> = (0..9)
        .map(|i| Request::new(NodeId(0), NodeId(3), 0.5, 1.0 + i as f64))
        .collect();
    for batch in &churned_batches(&requests, 2) {
        engine.submit_batch(batch);
    }
    assert!(
        !engine.admissions().is_empty(),
        "fixture must admit someone"
    );
    let down = |e: u32| TopologyEvent::LinkDown { edge: EdgeId(e) };
    engine.apply_topology(&[down(0)]).expect("valid event");
    let bytes = engine.snapshot_bytes();

    // Identical log: nothing to migrate, nothing changes.
    let same = ufp_engine::Topology::replay(&graph, &[down(0)]).expect("valid replay");
    assert_eq!(engine.migrate_to(&same).expect("identical log"), None);
    assert_eq!(engine.snapshot_bytes(), bytes);

    // Divergent log: refused, and the engine is untouched.
    let divergent = ufp_engine::Topology::replay(&graph, &[down(1), down(2)]).expect("replay");
    assert!(matches!(
        engine.migrate_to(&divergent),
        Err(ufp_engine::CodecError::GraphMismatch { .. })
    ));
    assert_eq!(engine.snapshot_bytes(), bytes);

    // A descendant still migrates after the refusal.
    let ahead = ufp_engine::Topology::replay(&graph, &[down(0), down(1)]).expect("replay");
    let migration = engine
        .migrate_to(&ahead)
        .expect("descendant log migrates")
        .expect("non-empty delta");
    assert_eq!((migration.from_version, migration.to_version), (1, 2));
    assert_eq!(engine.topology().log(), ahead.log());
}
