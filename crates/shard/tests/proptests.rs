//! Property coverage for the sharded engine's core contracts:
//!
//! * **Zero-cross equivalence** — over random disconnected community
//!   networks with component-aligned partitions and purely shard-local
//!   (randomly churned) traffic, critically priced or unpriced,
//!   `ShardedEngine` is bit-identical to a single `Engine` fed the same
//!   stream under the same payment policy: records
//!   (admissions with routes and epochs), payments, events, residual
//!   loads.
//! * **Paid guard-pressure + cross equivalence** — the same
//!   bit-identity holds with tight capacities that trip the per-epoch
//!   guard (so pricing passes guard-stop) and with unroutable
//!   cross-shard arrivals in the stream: the merged-trace payment pass
//!   replays the exact pricing passes a single engine would run.
//! * **Snapshot lockstep** — snapshots of sharded runs (with cross
//!   traffic, leases, and the deferred global-payment pass in play)
//!   restore and continue bit-identically per shard and globally, from
//!   any epoch boundary, and the continued run snapshots to the unbroken
//!   run's bytes.
//! * **Snapshot determinism** — two identical 4-shard runs snapshot to
//!   the same bytes at every epoch boundary: no wall-clock value is
//!   persisted.
//! * **Dynamic topology** — the same contracts survive link failures,
//!   capacity resizes, outages, and drains: zero-cross runs stay
//!   bit-identical to a single engine through arbitrary mutation
//!   sequences; lowering a boundary edge's capacity mid-run never
//!   oversubscribes it (the next epoch's leases are cut from the
//!   repaired residual); and snapshots taken mid-mutation round-trip
//!   and continue in lockstep.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use std::sync::Arc;

use ufp_engine::{Arrival, Engine, EngineConfig, EventLevel, PaymentPolicy, TopologyEvent};
use ufp_netgraph::generators;
use ufp_netgraph::graph::Graph;
use ufp_shard::{NodeBlocks, Partitioner, ShardConfig, ShardedEngine};
use ufp_workloads::arrivals::ArrivalProcess;
use ufp_workloads::failures::{failure_trace, FailureTraceConfig};
use ufp_workloads::sharded::{block_shard_map, sharded_arrival_trace, ShardedTraceConfig};

/// Random sharded scenario: a community digraph with one community per
/// shard (`shards` and `inter_edges` ranges per the caller, capacities
/// from `caps`), its block partition,
/// and a churned trace with `mean` arrivals per epoch. When
/// `unroutable_cross` is set, cross endpoints skip the connectivity
/// filter — the disconnected-communities flavor of cross traffic that
/// stays inside the bit-equivalence regime.
fn arb_scenario(
    shards: std::ops::Range<usize>,
    inter_edges: std::ops::Range<usize>,
    cross: bool,
    unroutable_cross: bool,
    caps: (f64, f64),
    mean: f64,
) -> impl Strategy<Value = (Arc<Graph>, usize, Vec<Vec<Arrival>>, f64)> {
    (
        shards,
        6usize..12,   // nodes per community
        any::<u64>(), // seed
        2usize..8,    // epochs
        4usize..10,   // epsilon decile
        inter_edges,
    )
        .prop_map(
            move |(shards, nodes_per, seed, epochs, eps_decile, inter)| {
                let mut rng = StdRng::seed_from_u64(seed);
                let graph = generators::community_digraph(
                    shards,
                    nodes_per,
                    (nodes_per * 4).min(nodes_per * (nodes_per - 1)),
                    inter,
                    caps,
                    caps,
                    &mut rng,
                );
                let map = block_shard_map(graph.num_nodes(), shards);
                let trace = sharded_arrival_trace(
                    &graph,
                    &map,
                    &ShardedTraceConfig {
                        epochs,
                        process: ArrivalProcess::Poisson { mean },
                        cross_fraction: if cross { 0.25 } else { 0.0 },
                        hotspot_pairs: Some(3),
                        ttl_range: Some((1, 3)),
                        allow_unroutable_cross: unroutable_cross,
                        seed: seed ^ 0xABCD,
                        ..Default::default()
                    },
                );
                (Arc::new(graph), shards, trace, 0.1 * eps_decile as f64)
            },
        )
}

fn engine_config(epsilon: f64) -> EngineConfig {
    EngineConfig {
        events: EventLevel::Request,
        payments: PaymentPolicy::critical_value(),
        ..EngineConfig::with_epsilon(epsilon)
    }
}

/// Drive a sharded run and a single-engine run over the same stream,
/// both under `payments`, and assert bit-identity on every
/// deterministic observable: per-epoch reports, admissions (routes,
/// epochs, payments), events, residual loads.
fn run_pair_and_assert_identical(
    graph: &Arc<Graph>,
    shards: usize,
    trace: &[Vec<Arrival>],
    epsilon: f64,
    payments: PaymentPolicy,
) -> Result<(), TestCaseError> {
    let cfg = EngineConfig {
        payments,
        ..engine_config(epsilon)
    };
    let plan = NodeBlocks.partition(graph, shards);
    let mut sharded = ShardedEngine::new(
        Arc::clone(graph),
        plan,
        ShardConfig {
            engine: cfg.clone(),
            lease_fraction: 0.5,
        },
    );
    let mut single = Engine::from_shared(Arc::clone(graph), cfg);
    for batch in trace {
        let rs = sharded.submit_batch(batch);
        let ro = single.submit_batch(batch);
        prop_assert_eq!(rs.accepted, ro.accepted, "epoch {} accepted", rs.epoch);
        prop_assert_eq!(rs.released, ro.released, "epoch {} released", rs.epoch);
        prop_assert_eq!(rs.stop, ro.stop, "epoch {} stop", rs.epoch);
        prop_assert_eq!(
            rs.revenue.to_bits(),
            ro.revenue.to_bits(),
            "epoch {} revenue {} vs {}",
            rs.epoch,
            rs.revenue,
            ro.revenue
        );
    }
    // Records: every admission, in order, with route/payment bits.
    let (sh, si) = (sharded.engine().admissions(), single.admissions());
    prop_assert_eq!(sh.len(), si.len());
    for (a, b) in sh.iter().zip(si) {
        prop_assert_eq!(a.request, b.request);
        prop_assert_eq!(a.path.nodes(), b.path.nodes());
        prop_assert_eq!(a.epoch, b.epoch);
        prop_assert_eq!(a.expires_at, b.expires_at);
        prop_assert_eq!(a.released, b.released);
        prop_assert_eq!(
            a.payment.to_bits(),
            b.payment.to_bits(),
            "payment {} vs {}",
            a.payment,
            b.payment
        );
    }
    // Events and loads.
    prop_assert_eq!(sharded.engine().events(), single.events());
    for (a, b) in sharded
        .engine()
        .residual()
        .loads()
        .iter()
        .zip(single.residual().loads())
    {
        prop_assert_eq!(a.to_bits(), b.to_bits());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Zero cross-shard traffic ⇒ bit-identical to a single engine,
    /// priced and unpriced.
    #[test]
    fn zero_cross_is_bit_identical_to_single_engine(
        (graph, shards, trace, epsilon) in arb_scenario(2..5, 0..1, false, false, (50.0, 90.0), 14.0)
    ) {
        for payments in [PaymentPolicy::None, PaymentPolicy::critical_value()] {
            run_pair_and_assert_identical(&graph, shards, &trace, epsilon, payments)?;
        }
    }

    /// Tight capacities (guard-stopping epochs and pricing passes) plus
    /// unroutable cross-shard arrivals ⇒ still bit-identical, payments
    /// included: the full contract PR 8 upgraded the zero-cross one to.
    /// The unpriced twin runs the same merge without pricing passes.
    #[test]
    fn paid_guard_pressure_and_cross_traffic_are_bit_identical(
        (graph, shards, trace, epsilon) in arb_scenario(2..5, 0..1, true, true, (6.0, 12.0), 30.0)
    ) {
        for payments in [PaymentPolicy::None, PaymentPolicy::critical_value()] {
            run_pair_and_assert_identical(&graph, shards, &trace, epsilon, payments)?;
        }
    }

    /// Snapshots of sharded runs (cross traffic + leases + the deferred
    /// global-payment pass in play) restore and continue in lockstep
    /// from any epoch boundary.
    #[test]
    fn snapshots_restore_and_continue_in_lockstep(
        (graph, shards, trace, epsilon) in arb_scenario(2..5, 8..20, true, false, (50.0, 90.0), 14.0),
        split_frac in 0.0f64..1.0
    ) {
        let cfg = engine_config(epsilon);
        let shard_config = ShardConfig {
            engine: cfg,
            lease_fraction: 0.5,
        };
        let plan = NodeBlocks.partition(&graph, shards);
        let mut unbroken =
            ShardedEngine::new(Arc::clone(&graph), plan.clone(), shard_config.clone());
        let split = ((trace.len() as f64 * split_frac) as usize).min(trace.len() - 1);
        for batch in &trace[..split] {
            unbroken.submit_batch(batch);
        }
        let bytes = unbroken.snapshot_bytes();
        let mut restored = ShardedEngine::restore_from_bytes(
            &bytes,
            Arc::clone(&graph),
            plan,
            shard_config,
        ).expect("snapshot must restore");
        // Identity at the restore point.
        prop_assert_eq!(restored.engine().epoch(), unbroken.engine().epoch());
        prop_assert_eq!(restored.requests(), unbroken.requests());
        // Lockstep continuation.
        for batch in &trace[split..] {
            let ru = unbroken.submit_batch(batch);
            let rr = restored.submit_batch(batch);
            prop_assert_eq!(ru.accepted, rr.accepted, "epoch {}", ru.epoch);
            prop_assert_eq!(ru.released, rr.released);
            prop_assert_eq!(ru.stop, rr.stop);
            prop_assert_eq!(ru.revenue.to_bits(), rr.revenue.to_bits());
            prop_assert_eq!(ru.min_residual.to_bits(), rr.min_residual.to_bits());
        }
        let (au, ar) = (unbroken.engine().admissions(), restored.engine().admissions());
        prop_assert_eq!(au.len(), ar.len());
        for (x, y) in au.iter().zip(ar) {
            prop_assert_eq!(x.request, y.request);
            prop_assert_eq!(x.path.nodes(), y.path.nodes());
            prop_assert_eq!(x.payment.to_bits(), y.payment.to_bits());
            prop_assert_eq!(x.released, y.released);
        }
        for (x, y) in unbroken.engine().residual().loads().iter().zip(restored.engine().residual().loads()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        prop_assert_eq!(unbroken.engine().events(), restored.engine().events());
        prop_assert_eq!(unbroken.ledger(), restored.ledger());
        prop_assert_eq!(unbroken.metrics(), restored.metrics());
        // Restored-and-continued snapshots to the unbroken run's bytes.
        prop_assert!(
            restored.snapshot_bytes() == unbroken.snapshot_bytes(),
            "restored-and-continued snapshot differs from the unbroken one"
        );
    }

    /// Snapshots are a function of the input stream: two identical
    /// 4-shard runs (cross traffic, leases, TTL churn) snapshot to the
    /// same bytes at every epoch boundary.
    #[test]
    fn identical_runs_snapshot_to_identical_bytes(
        (graph, shards, trace, epsilon) in arb_scenario(4..5, 8..20, true, false, (50.0, 90.0), 14.0)
    ) {
        let shard_config = ShardConfig {
            engine: engine_config(epsilon),
            lease_fraction: 0.5,
        };
        let plan = NodeBlocks.partition(&graph, shards);
        let fresh = || ShardedEngine::new(Arc::clone(&graph), plan.clone(), shard_config.clone());
        let (mut a, mut b) = (fresh(), fresh());
        for batch in &trace {
            a.submit_batch(batch);
            b.submit_batch(batch);
            prop_assert!(
                a.snapshot_bytes() == b.snapshot_bytes(),
                "epoch {}: identical runs snapshot to different bytes",
                a.engine().epoch()
            );
        }
    }

    /// Zero-cross runs stay bit-identical to a single engine through
    /// arbitrary mutation sequences: every repair pass (eviction set,
    /// refund bits, re-admission queue) and every subsequent epoch.
    #[test]
    fn mutated_runs_stay_bit_identical_to_single_engine(
        (graph, shards, trace, epsilon) in arb_scenario(2..5, 0..1, false, false, (12.0, 24.0), 14.0),
        fail_seed in proptest::prelude::any::<u64>(),
    ) {
        let cfg = engine_config(epsilon);
        let plan = NodeBlocks.partition(&graph, shards);
        let mut sharded = ShardedEngine::new(
            Arc::clone(&graph),
            plan,
            ShardConfig {
                engine: cfg.clone(),
                lease_fraction: 0.5,
            },
        );
        let mut single = Engine::from_shared(Arc::clone(&graph), cfg);
        let mutations = failure_trace(
            &graph,
            &FailureTraceConfig {
                epochs: trace.len() as u32,
                seed: fail_seed,
                flap_rate: 0.6,
                resize_rate: 0.6,
                resize_range: (0.3, 1.2),
                outage_rate: 0.15,
                ..FailureTraceConfig::default()
            },
        );
        for (events, batch) in mutations.iter().zip(&trace) {
            if !events.is_empty() {
                let rs = sharded.apply_topology(events).expect("trace applies");
                let ro = single.apply_topology(events).expect("trace applies");
                prop_assert_eq!(rs.evicted, ro.evicted, "eviction counts diverged");
                prop_assert_eq!(
                    rs.refunded.to_bits(), ro.refunded.to_bits(),
                    "refunds diverged: {} vs {}", rs.refunded, ro.refunded
                );
                prop_assert_eq!(rs.readmissions, ro.readmissions);
                prop_assert_eq!(rs.links_down, ro.links_down);
            }
            let ra = sharded.drain_readmissions();
            let rb = single.drain_readmissions();
            prop_assert_eq!(ra.len(), rb.len(), "re-admission queues diverged");
            let mut merged = ra;
            merged.extend(batch.iter().cloned());
            let rs = sharded.submit_batch(&merged);
            let ro = single.submit_batch(&merged);
            prop_assert_eq!(rs.accepted, ro.accepted, "epoch {} accepted", rs.epoch);
            prop_assert_eq!(rs.released, ro.released, "epoch {} released", rs.epoch);
            prop_assert_eq!(rs.stop, ro.stop, "epoch {} stop", rs.epoch);
            prop_assert_eq!(rs.revenue.to_bits(), ro.revenue.to_bits());
            prop_assert_eq!(rs.min_residual.to_bits(), ro.min_residual.to_bits());
        }
        // Records, events, loads, and the eviction/refund counters.
        let (sh, si) = (sharded.engine().admissions(), single.admissions());
        prop_assert_eq!(sh.len(), si.len());
        for (a, b) in sh.iter().zip(si) {
            prop_assert_eq!(a.request, b.request);
            prop_assert_eq!(a.path.nodes(), b.path.nodes());
            prop_assert_eq!(a.released, b.released);
            prop_assert_eq!(a.evicted, b.evicted);
            prop_assert_eq!(a.payment.to_bits(), b.payment.to_bits());
        }
        prop_assert_eq!(sharded.engine().events(), single.events());
        for (a, b) in sharded
            .engine()
            .residual()
            .loads()
            .iter()
            .zip(single.residual().loads())
        {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        let (ms, mo) = (sharded.metrics(), single.metrics());
        prop_assert_eq!(ms.evicted, mo.evicted);
        prop_assert_eq!(ms.refunded.to_bits(), mo.refunded.to_bits());
        prop_assert_eq!(sharded.engine().topology().fingerprint(), single.topology().fingerprint());
    }

    /// Lowering a boundary edge's capacity mid-run never oversubscribes
    /// it: the repair pass trims the committed load under the new
    /// effective capacity, and every later epoch's leases are cut from
    /// the repaired residual — the load never creeps back over.
    #[test]
    fn boundary_capacity_lower_never_oversubscribes(
        (graph, shards, trace, epsilon) in arb_scenario(2..5, 8..20, true, false, (20.0, 40.0), 20.0),
        cut_frac in 0.05f64..0.6,
    ) {
        let cfg = engine_config(epsilon);
        let plan = NodeBlocks.partition(&graph, shards);
        if plan.boundary_edges().is_empty() {
            return Ok(());
        }
        let edge = plan.boundary_edges()[0];
        let mut sharded = ShardedEngine::new(
            Arc::clone(&graph),
            plan,
            ShardConfig {
                engine: cfg,
                lease_fraction: 0.5,
            },
        );
        let split = (trace.len() / 2).max(1);
        for batch in &trace[..split] {
            sharded.submit_batch(batch);
        }
        // Lower the boundary edge under its committed load (or to a
        // token capacity when it is idle): the repair pass must evict
        // enough flows to fit.
        let new_cap = (sharded.engine().residual().load(edge) * cut_frac).max(0.25);
        sharded
            .apply_topology(&[TopologyEvent::SetCapacity {
                edge,
                capacity: new_cap,
            }])
            .expect("capacity lower applies");
        let fits = |s: &ShardedEngine| {
            s.engine().residual().load(edge) <= new_cap * (1.0 + 1e-9) + 1e-9
        };
        prop_assert!(fits(&sharded), "repair left the edge oversubscribed");
        prop_assert!(sharded.verify_active_feasibility().is_ok());
        for batch in &trace[split..] {
            let mut merged = sharded.drain_readmissions();
            merged.extend(batch.iter().cloned());
            sharded.submit_batch(&merged);
            prop_assert!(
                fits(&sharded),
                "epoch {} re-oversubscribed the lowered edge: load {} > cap {}",
                sharded.engine().epoch(), sharded.engine().residual().load(edge), new_cap
            );
            prop_assert!(sharded.verify_active_feasibility().is_ok());
        }
    }

    /// Snapshots taken mid-mutation (non-pristine topology, re-admission
    /// candidates still queued) round-trip exactly and continue in
    /// lockstep with the unbroken run.
    #[test]
    fn mutated_snapshots_round_trip_and_continue(
        (graph, shards, trace, epsilon) in arb_scenario(2..5, 8..20, true, false, (12.0, 24.0), 14.0),
        fail_seed in proptest::prelude::any::<u64>(),
    ) {
        let cfg = engine_config(epsilon);
        let shard_config = ShardConfig {
            engine: cfg,
            lease_fraction: 0.5,
        };
        let plan = NodeBlocks.partition(&graph, shards);
        let mut unbroken =
            ShardedEngine::new(Arc::clone(&graph), plan.clone(), shard_config.clone());
        let split = (trace.len() / 2).max(1);
        for batch in &trace[..split] {
            unbroken.submit_batch(batch);
        }
        let burst: Vec<TopologyEvent> = failure_trace(
            &graph,
            &FailureTraceConfig {
                epochs: 3,
                seed: fail_seed,
                flap_rate: 0.8,
                resize_rate: 0.8,
                resize_range: (0.3, 1.2),
                outage_rate: 0.2,
                ..FailureTraceConfig::default()
            },
        )
        .into_iter()
        .flatten()
        .collect();
        if !burst.is_empty() {
            unbroken.apply_topology(&burst).expect("trace applies");
        }
        // Snapshot right after the repair pass: the topology section is
        // non-pristine and the re-admission queue may be non-empty.
        let bytes = unbroken.snapshot_bytes();
        let mut restored = ShardedEngine::restore_from_bytes(
            &bytes,
            Arc::clone(&graph),
            plan,
            shard_config,
        ).expect("mutated snapshot must restore");
        prop_assert_eq!(restored.snapshot_bytes(), bytes.clone());
        prop_assert_eq!(
            restored.engine().topology().fingerprint(),
            unbroken.engine().topology().fingerprint()
        );
        for batch in &trace[split..] {
            let mut mu = unbroken.drain_readmissions();
            let mr = restored.drain_readmissions();
            prop_assert_eq!(mu.len(), mr.len(), "restored re-admission queue diverged");
            mu.extend(batch.iter().cloned());
            let ru = unbroken.submit_batch(&mu);
            let rr = restored.submit_batch(&mu);
            prop_assert_eq!(ru.accepted, rr.accepted, "epoch {}", ru.epoch);
            prop_assert_eq!(ru.released, rr.released);
            prop_assert_eq!(ru.revenue.to_bits(), rr.revenue.to_bits());
            prop_assert_eq!(ru.min_residual.to_bits(), rr.min_residual.to_bits());
        }
        prop_assert_eq!(unbroken.engine().events(), restored.engine().events());
        prop_assert_eq!(unbroken.metrics(), restored.metrics());
        for (x, y) in unbroken.engine().residual().loads().iter().zip(restored.engine().residual().loads()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
