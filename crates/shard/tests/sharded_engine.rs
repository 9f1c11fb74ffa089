//! Integration coverage for the sharded engine:
//!
//! * zero-cross-shard traffic over a component-aligned partition is
//!   **bit-identical** to a single engine — admissions, payments,
//!   events, residual loads — including under TTL churn and
//!   critical-value payments;
//! * one shard over a *general* (connected) topology is bit-identical
//!   to a single engine (the degenerate partition);
//! * guard pressure: the merge truncates shard over-admissions exactly
//!   where a single engine's guard would stop, and the global payment
//!   pass prices the survivors identically — guard-stopping pricing
//!   passes included;
//! * unroutable cross-shard arrivals (disconnected communities) leave
//!   the paid equivalence intact: both engines reject them identically;
//! * general cross-shard traffic stays feasible, deterministic, and
//!   respects the lease ledger, and a parallel pool (shards and winners
//!   on pool workers) changes no report, payment or snapshot byte;
//! * snapshots restore and continue in lockstep, and refuse a changed
//!   shard layout;
//! * the recorder sees one deployment: engine and residual gauges equal
//!   a single engine's bit for bit, with one epoch sample per epoch.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ufp_engine::{Arrival, Engine, EngineConfig, EngineEvent, EventLevel, PaymentPolicy};
use ufp_netgraph::generators;
use ufp_netgraph::graph::Graph;
use ufp_obs::{ObsSnapshot, Recorder};
use ufp_par::Pool;
use ufp_shard::{NodeBlocks, Partitioner, ShardConfig, ShardedEngine};
use ufp_workloads::arrivals::ArrivalProcess;
use ufp_workloads::sharded::{block_shard_map, sharded_arrival_trace, ShardedTraceConfig};

/// Disconnected 4-community graph, block shard map, and a shard-local
/// (or mixed) arrival trace. With `inter_edges == 0` any cross traffic
/// must be sampled in the unroutable mode (there is nothing to route it
/// over), which is exactly the bit-equivalence regime's cross flavor.
fn community_scenario(
    inter_edges: usize,
    cross_fraction: f64,
    epochs: usize,
    seed: u64,
) -> (Arc<Graph>, Vec<u32>, Vec<Vec<Arrival>>) {
    community_scenario_sized(
        inter_edges,
        cross_fraction,
        epochs,
        seed,
        (60.0, 90.0),
        30.0,
    )
}

/// [`community_scenario`] with the edge capacity range and the mean
/// arrivals per epoch given: small capacities under heavy traffic make
/// epochs contended, so winners pay.
fn community_scenario_sized(
    inter_edges: usize,
    cross_fraction: f64,
    epochs: usize,
    seed: u64,
    capacity: (f64, f64),
    mean: f64,
) -> (Arc<Graph>, Vec<u32>, Vec<Vec<Arrival>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = generators::community_digraph(4, 12, 60, inter_edges, capacity, capacity, &mut rng);
    let map = block_shard_map(graph.num_nodes(), 4);
    let cfg = ShardedTraceConfig {
        epochs,
        process: ArrivalProcess::Poisson { mean },
        cross_fraction,
        hotspot_pairs: Some(3),
        ttl_range: Some((1, 3)),
        allow_unroutable_cross: inter_edges == 0 && cross_fraction > 0.0,
        seed: seed ^ 0x5eed,
        ..Default::default()
    };
    let trace = sharded_arrival_trace(&graph, &map, &cfg);
    (Arc::new(graph), map, trace)
}

fn engine_config(payments: PaymentPolicy) -> EngineConfig {
    EngineConfig {
        events: EventLevel::Request,
        payments,
        ..EngineConfig::with_epsilon(0.5)
    }
}

/// Assert a sharded run and a single-engine run over the same stream
/// agree on every deterministic observable, bit for bit.
fn assert_bit_identical(sharded: &ShardedEngine, single: &Engine) {
    // Residual loads and carry bits.
    let (gl, sl) = (sharded.residual().loads(), single.residual().loads());
    assert_eq!(gl.len(), sl.len());
    for (e, (a, b)) in gl.iter().zip(sl).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "edge {e} load diverged: {a} vs {b}"
        );
    }
    // Requests registry.
    assert_eq!(sharded.requests(), single.requests());
    // Admissions: same order, same routes, same payments, same TTL state.
    let sh = sharded.admissions();
    let si = single.admissions();
    assert_eq!(sh.len(), si.len(), "admission counts diverged");
    for (i, (a, b)) in sh.iter().zip(si).enumerate() {
        assert_eq!(a.request, b.request, "admission {i} request id");
        assert_eq!(a.path.nodes(), b.path.nodes(), "admission {i} path");
        assert_eq!(a.epoch, b.epoch, "admission {i} epoch");
        assert_eq!(a.expires_at, b.expires_at, "admission {i} expiry");
        assert_eq!(a.released, b.released, "admission {i} released flag");
        assert_eq!(
            a.payment.to_bits(),
            b.payment.to_bits(),
            "admission {i} payment: {} vs {}",
            a.payment,
            b.payment
        );
    }
    // Events (the sharded engine's merged log vs the single log).
    assert_eq!(sharded.events(), single.events(), "event logs diverged");
    // Deterministic metrics counters.
    let (ms, mo) = (sharded.metrics(), single.metrics());
    assert_eq!(ms.epochs, mo.epochs);
    assert_eq!(ms.accepted, mo.accepted);
    assert_eq!(ms.rejected, mo.rejected);
    assert_eq!(ms.released, mo.released);
    assert_eq!(ms.revenue.to_bits(), mo.revenue.to_bits());
    assert_eq!(ms.value_admitted.to_bits(), mo.value_admitted.to_bits());
}

#[test]
fn zero_cross_traffic_matches_single_engine_with_payments_and_churn() {
    let (graph, _, trace) = community_scenario(0, 0.0, 8, 11);
    let cfg = engine_config(PaymentPolicy::critical_value());
    let plan = NodeBlocks.partition(&graph, 4);
    let mut sharded = ShardedEngine::new(
        Arc::clone(&graph),
        plan,
        ShardConfig {
            engine: cfg.clone(),
            lease_fraction: 0.5,
        },
    );
    let mut single = Engine::from_shared(Arc::clone(&graph), cfg);
    for batch in &trace {
        let rs = sharded.submit_batch(batch);
        let ro = single.submit_batch(batch);
        assert_eq!(rs.accepted, ro.accepted, "epoch {}", rs.epoch);
        assert_eq!(rs.released, ro.released, "epoch {}", rs.epoch);
        assert_eq!(rs.stop, ro.stop, "epoch {}", rs.epoch);
        assert_eq!(
            rs.revenue.to_bits(),
            ro.revenue.to_bits(),
            "epoch {} revenue",
            rs.epoch
        );
        assert_eq!(rs.min_residual.to_bits(), ro.min_residual.to_bits());
    }
    assert_bit_identical(&sharded, &single);
    assert!(sharded
        .active_solution()
        .check_feasible(&sharded.instance(), false)
        .is_ok());
    // All traffic was shard-local: the reconciler saw no requests, and
    // disconnected components have no boundary edges to lease.
    let stats = sharded.shard_stats();
    assert_eq!(stats[4].requests, 0, "reconciler must be idle");
    assert_eq!(sharded.ledger().granted(0), 0.0);
}

#[test]
fn recorder_gauges_match_single_engine() {
    // A sharded deployment publishes its book's gauges: on a zero-cross
    // stream they equal a single engine's bit for bit (utilization, live
    // admissions, per-capacity-class pressure), and the epoch-wall
    // histogram holds one sample per epoch, not one per shard.
    let (graph, _, trace) = community_scenario(0, 0.0, 8, 11);
    let run = |shards: Option<usize>| -> ObsSnapshot {
        let obs = Recorder::enabled();
        let cfg = engine_config(PaymentPolicy::critical_value()).with_obs(obs.clone());
        match shards {
            Some(k) => {
                let mut sharded = ShardedEngine::new(
                    Arc::clone(&graph),
                    NodeBlocks.partition(&graph, k),
                    ShardConfig {
                        engine: cfg,
                        lease_fraction: 0.5,
                    },
                );
                for batch in &trace {
                    sharded.submit_batch(batch);
                }
            }
            None => {
                let mut single = Engine::from_shared(Arc::clone(&graph), cfg);
                for batch in &trace {
                    single.submit_batch(batch);
                }
            }
        }
        obs.snapshot().expect("enabled recorder snapshots")
    };
    let (sharded, single) = (run(Some(4)), run(None));
    let book_gauges = |snap: &ObsSnapshot| -> Vec<(String, u64)> {
        snap.gauges
            .iter()
            .filter(|(n, _)| n.starts_with("engine.") || n.starts_with("residual.util.c"))
            .map(|(n, v)| (n.clone(), v.to_bits()))
            .collect()
    };
    let expected = book_gauges(&single);
    for name in ["engine.total_utilization", "engine.active_admissions"] {
        assert!(
            expected.iter().any(|(n, _)| n == name),
            "missing gauge {name}"
        );
    }
    assert_eq!(book_gauges(&sharded), expected);
    for snap in [&sharded, &single] {
        let wall = snap
            .histograms
            .iter()
            .find(|h| h.0 == "engine.epoch_wall_us")
            .expect("epoch wall histogram");
        assert_eq!(wall.1, trace.len() as u64, "one sample per epoch");
    }
}

#[test]
fn single_shard_on_connected_graph_matches_single_engine() {
    // The degenerate partition: one shard owning everything, over a
    // connected G(n, m) network — exercises the merge/commit plumbing
    // on a general topology.
    let mut rng = StdRng::seed_from_u64(5);
    let graph = Arc::new(generators::gnm_digraph(40, 220, (50.0, 90.0), &mut rng));
    let map = block_shard_map(graph.num_nodes(), 1);
    let trace = sharded_arrival_trace(
        &graph,
        &map,
        &ShardedTraceConfig {
            epochs: 6,
            process: ArrivalProcess::Poisson { mean: 25.0 },
            cross_fraction: 0.0,
            ttl_range: Some((1, 2)),
            seed: 99,
            ..Default::default()
        },
    );
    let cfg = engine_config(PaymentPolicy::critical_value());
    let plan = NodeBlocks.partition(&graph, 1);
    let mut sharded = ShardedEngine::new(
        Arc::clone(&graph),
        plan,
        ShardConfig {
            engine: cfg.clone(),
            lease_fraction: 0.5,
        },
    );
    let mut single = Engine::from_shared(Arc::clone(&graph), cfg);
    for batch in &trace {
        sharded.submit_batch(batch);
        single.submit_batch(batch);
    }
    assert_bit_identical(&sharded, &single);
}

#[test]
fn guard_pressure_truncates_exactly_like_a_single_engine() {
    // Tight capacities: the per-epoch guard trips. The merge's
    // global-guard truncation must reproduce the single engine's stop
    // point bit for bit — and with critical-value payments ON, the
    // global payment pass must price every survivor identically even
    // though many of its per-winner passes themselves stop on the guard
    // (the regime the old per-shard pass documented as divergent).
    // Capacities sized so e^{ε(B−1)} sits a little above the initial
    // dual mass (= edge count): epochs admit a handful of requests and
    // then guard-stop mid-epoch rather than at iteration zero.
    let mut rng = StdRng::seed_from_u64(21);
    let graph = Arc::new(generators::community_digraph(
        3,
        8,
        30,
        0,
        (10.0, 14.0),
        (10.0, 14.0),
        &mut rng,
    ));
    let map = block_shard_map(graph.num_nodes(), 3);
    let trace = sharded_arrival_trace(
        &graph,
        &map,
        &ShardedTraceConfig {
            epochs: 6,
            process: ArrivalProcess::Poisson { mean: 40.0 },
            cross_fraction: 0.0,
            // One hotspot pair per shard: every request in a shard
            // competes for the same path, so critical values are real
            // (losing bidders displace winners at lower declarations).
            hotspot_pairs: Some(1),
            seed: 7,
            ..Default::default()
        },
    );
    let cfg = engine_config(PaymentPolicy::critical_value());
    let plan = NodeBlocks.partition(&graph, 3);
    let mut sharded = ShardedEngine::new(
        Arc::clone(&graph),
        plan,
        ShardConfig {
            engine: cfg.clone(),
            lease_fraction: 0.5,
        },
    );
    let mut single = Engine::from_shared(Arc::clone(&graph), cfg);
    let mut guard_seen = false;
    for batch in &trace {
        let rs = sharded.submit_batch(batch);
        let ro = single.submit_batch(batch);
        assert_eq!(rs.stop, ro.stop, "epoch {} stop reason", rs.epoch);
        assert_eq!(rs.accepted, ro.accepted, "epoch {} accepted", rs.epoch);
        assert_eq!(
            rs.revenue.to_bits(),
            ro.revenue.to_bits(),
            "epoch {} revenue",
            rs.epoch
        );
        guard_seen |= rs.stop == ufp_core::StopReason::Guard;
    }
    assert!(guard_seen, "fixture must actually trip the guard");
    assert!(
        !sharded.admissions().is_empty(),
        "fixture must actually admit someone before the guard trips"
    );
    assert!(
        sharded.admissions().iter().any(|a| a.payment > 0.0),
        "fixture must actually charge someone"
    );
    assert_bit_identical(&sharded, &single);
}

#[test]
fn unroutable_cross_paid_traffic_matches_single_engine() {
    // Disconnected communities with a 30% cross fraction sampled in the
    // unroutable mode: both engines must reject every cross arrival and
    // stay bit-identical — admissions AND critical-value payments —
    // because the merged-trace payment pass replays the same global
    // pricing passes either way.
    let (graph, map, trace) = community_scenario(0, 0.3, 8, 17);
    let cross = trace
        .iter()
        .flatten()
        .filter(|a| ufp_workloads::sharded::shard_label(&map, a).is_none())
        .count();
    assert!(cross > 0, "scenario must contain cross-shard arrivals");
    let cfg = engine_config(PaymentPolicy::critical_value());
    let mut sharded = ShardedEngine::new(
        Arc::clone(&graph),
        NodeBlocks.partition(&graph, 4),
        ShardConfig {
            engine: cfg.clone(),
            lease_fraction: 0.5,
        },
    );
    let mut single = Engine::from_shared(Arc::clone(&graph), cfg);
    for batch in &trace {
        let rs = sharded.submit_batch(batch);
        let ro = single.submit_batch(batch);
        assert_eq!(rs.accepted, ro.accepted, "epoch {} accepted", rs.epoch);
        assert_eq!(rs.stop, ro.stop, "epoch {} stop", rs.epoch);
        assert_eq!(
            rs.revenue.to_bits(),
            ro.revenue.to_bits(),
            "epoch {} revenue",
            rs.epoch
        );
    }
    assert_bit_identical(&sharded, &single);
    // The cross arrivals reached the reconciler and were all rejected
    // (nothing can route between disconnected components).
    let stats = sharded.shard_stats();
    assert_eq!(stats[4].requests, cross, "reconciler saw the cross load");
    assert_eq!(stats[4].admissions, 0, "unroutable traffic must not land");
}

#[test]
fn cross_traffic_is_feasible_deterministic_and_leased() {
    let (graph, _, trace) = community_scenario(30, 0.3, 8, 42);
    let cfg = engine_config(PaymentPolicy::critical_value());
    let build = || {
        ShardedEngine::new(
            Arc::clone(&graph),
            NodeBlocks.partition(&graph, 4),
            ShardConfig {
                engine: cfg.clone(),
                lease_fraction: 0.6,
            },
        )
    };
    let mut a = build();
    let mut b = build();
    let mut cross_admitted = 0usize;
    for batch in &trace {
        let ra = a.submit_batch(batch);
        let rb = b.submit_batch(batch);
        assert_eq!(ra.accepted, rb.accepted, "determinism: accepted");
        assert_eq!(
            ra.revenue.to_bits(),
            rb.revenue.to_bits(),
            "determinism: revenue"
        );
        // Always feasible against base capacities.
        assert!(
            a.active_solution()
                .check_feasible(&a.instance(), false)
                .is_ok(),
            "epoch {}: infeasible active solution",
            ra.epoch
        );
        cross_admitted = a.shard_stats()[4].admissions;
    }
    for (x, y) in a.events().iter().zip(b.events()) {
        assert_eq!(x, y, "determinism: events");
    }
    assert!(
        cross_admitted > 0,
        "scenario must route some cross-shard traffic through the reconciler"
    );
    // Lease accounting: grants happened (boundary edges exist) and use
    // never exceeds grant.
    let ledger = a.ledger();
    for s in 0..4 {
        assert!(ledger.granted(s) > 0.0, "shard {s} never granted a lease");
        assert!(
            ledger.used(s) <= ledger.granted(s) + 1e-9,
            "shard {s} over-used its lease"
        );
    }
}

/// A parallel pool changes nothing: 4 shards with cross traffic on
/// `Pool::new(4)` (shard runs and pricing passes on pool workers)
/// match `Pool::sequential()` after every epoch — report, every
/// admission's payment bits, and `snapshot_bytes()`.
#[test]
fn parallel_pool_matches_sequential_with_cross_traffic() {
    let (graph, _, trace) = community_scenario_sized(30, 0.3, 8, 42, (14.0, 18.0), 80.0);
    let build = |pool: Pool| {
        ShardedEngine::new(
            Arc::clone(&graph),
            NodeBlocks.partition(&graph, 4),
            ShardConfig {
                engine: engine_config(PaymentPolicy::critical_value()).parallel(pool),
                lease_fraction: 0.6,
            },
        )
    };
    let (mut seq, mut par) = (build(Pool::sequential()), build(Pool::new(4)));
    let payments = |e: &ShardedEngine| -> Vec<u64> {
        e.admissions().iter().map(|a| a.payment.to_bits()).collect()
    };
    for batch in &trace {
        let (rs, rp) = (seq.submit_batch(batch), par.submit_batch(batch));
        let epoch = rs.epoch;
        assert_eq!(
            (rs.epoch, rs.accepted, rs.rejected, rs.released, rs.stop),
            (rp.epoch, rp.accepted, rp.rejected, rp.released, rp.stop),
            "epoch {epoch} report"
        );
        for (x, y) in [
            (rs.value_admitted, rp.value_admitted),
            (rs.revenue, rp.revenue),
            (rs.min_residual, rp.min_residual),
            (rs.total_utilization, rp.total_utilization),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "epoch {epoch} report: {x} vs {y}");
        }
        assert_eq!(payments(&seq), payments(&par), "epoch {epoch} payments");
        assert!(
            seq.snapshot_bytes() == par.snapshot_bytes(),
            "epoch {epoch} snapshot bytes diverged"
        );
    }
    assert!(seq.metrics().revenue > 0.0, "no winner was charged");
    assert!(
        seq.shard_stats()[4].admissions > 0,
        "no cross-shard traffic was admitted"
    );
}

#[test]
fn zero_lease_fraction_starves_shards_of_boundary_edges() {
    let (graph, map, trace) = community_scenario(30, 0.2, 5, 77);
    let cfg = engine_config(PaymentPolicy::None);
    let mut sharded = ShardedEngine::new(
        Arc::clone(&graph),
        NodeBlocks.partition(&graph, 4),
        ShardConfig {
            engine: cfg,
            lease_fraction: 0.0,
        },
    );
    for batch in &trace {
        sharded.submit_batch(batch);
    }
    // No lease capacity was ever granted, so no shard-local admission
    // may cross a boundary edge; the reconciler still serves cross
    // traffic over those edges.
    assert_eq!(sharded.ledger().granted(0), 0.0);
    for s in 0..4u32 {
        assert_eq!(
            sharded.ledger().used(s as usize),
            0.0,
            "shard {s} routed over an unleased boundary edge"
        );
    }
    let _ = map;
    assert!(sharded
        .active_solution()
        .check_feasible(&sharded.instance(), false)
        .is_ok());
}

#[test]
fn snapshot_restores_and_continues_in_lockstep() {
    let (graph, _, trace) = community_scenario(24, 0.25, 8, 1234);
    let cfg = engine_config(PaymentPolicy::critical_value());
    let shard_config = ShardConfig {
        engine: cfg,
        lease_fraction: 0.5,
    };
    let plan = NodeBlocks.partition(&graph, 4);
    let mut unbroken = ShardedEngine::new(Arc::clone(&graph), plan.clone(), shard_config.clone());
    let split = 4usize;
    for batch in &trace[..split] {
        unbroken.submit_batch(batch);
    }
    let bytes = unbroken.snapshot_bytes();
    let mut restored = ShardedEngine::restore_from_bytes(
        &bytes,
        Arc::clone(&graph),
        plan.clone(),
        shard_config.clone(),
    )
    .expect("restore");
    assert_eq!(restored.epoch(), unbroken.epoch());
    for batch in &trace[split..] {
        let ru = unbroken.submit_batch(batch);
        let rr = restored.submit_batch(batch);
        assert_eq!(ru.accepted, rr.accepted);
        assert_eq!(ru.revenue.to_bits(), rr.revenue.to_bits());
        assert_eq!(ru.stop, rr.stop);
    }
    // Full-state agreement after continuation.
    assert_eq!(unbroken.requests(), restored.requests());
    let (au, ar) = (unbroken.admissions(), restored.admissions());
    assert_eq!(au.len(), ar.len());
    for (x, y) in au.iter().zip(ar) {
        assert_eq!(x.request, y.request);
        assert_eq!(x.path.nodes(), y.path.nodes());
        assert_eq!(x.payment.to_bits(), y.payment.to_bits());
        assert_eq!(x.released, y.released);
    }
    for (x, y) in unbroken
        .residual()
        .loads()
        .iter()
        .zip(restored.residual().loads())
    {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert_eq!(unbroken.ledger(), restored.ledger());
    // Event logs agree from the snapshot point on (and before: the log
    // was serialized whole).
    assert_eq!(unbroken.events(), restored.events());
}

#[test]
fn snapshot_refuses_changed_layout_or_lease() {
    let (graph, _, trace) = community_scenario(0, 0.0, 3, 3);
    let cfg = engine_config(PaymentPolicy::None);
    let shard_config = ShardConfig {
        engine: cfg,
        lease_fraction: 0.5,
    };
    let plan = NodeBlocks.partition(&graph, 4);
    let mut engine = ShardedEngine::new(Arc::clone(&graph), plan.clone(), shard_config.clone());
    for batch in &trace {
        engine.submit_batch(batch);
    }
    let bytes = engine.snapshot_bytes();
    // Different shard count → refused.
    let other_plan = NodeBlocks.partition(&graph, 2);
    assert!(ShardedEngine::restore_from_bytes(
        &bytes,
        Arc::clone(&graph),
        other_plan,
        shard_config.clone(),
    )
    .is_err());
    // Different lease fraction → refused.
    let mut other_cfg = shard_config.clone();
    other_cfg.lease_fraction = 0.25;
    assert!(
        ShardedEngine::restore_from_bytes(&bytes, Arc::clone(&graph), plan.clone(), other_cfg,)
            .is_err()
    );
    // Corrupt checksum → refused.
    let mut bad = bytes.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x40;
    assert!(
        ShardedEngine::restore_from_bytes(&bad, Arc::clone(&graph), plan, shard_config).is_err()
    );
}

#[test]
fn block_shard_map_agrees_with_node_blocks_partitioner() {
    // The workload labeller and the partitioner must share one block
    // convention, or "shard-local" traces silently cross the partition
    // on non-divisible node counts.
    let mut rng = StdRng::seed_from_u64(12);
    for (nodes, shards) in [(10usize, 3usize), (48, 4), (23, 5), (7, 7)] {
        let graph = generators::gnm_digraph(nodes, nodes * 2, (10.0, 20.0), &mut rng);
        let plan = NodeBlocks.partition(&graph, shards);
        assert_eq!(
            plan.node_shard(),
            block_shard_map(nodes, shards).as_slice(),
            "{nodes} nodes / {shards} shards"
        );
    }
}

#[test]
fn event_log_shape_matches_engine_contract() {
    let (graph, _, trace) = community_scenario(0, 0.0, 3, 8);
    let cfg = engine_config(PaymentPolicy::None);
    let mut sharded = ShardedEngine::new(
        Arc::clone(&graph),
        NodeBlocks.partition(&graph, 4),
        ShardConfig {
            engine: cfg,
            lease_fraction: 0.5,
        },
    );
    for batch in &trace {
        sharded.submit_batch(batch);
    }
    let events = sharded.drain_events();
    assert!(matches!(
        events[0],
        EngineEvent::EpochStarted { epoch: 1, .. }
    ));
    let completed = events
        .iter()
        .filter(|e| matches!(e, EngineEvent::EpochCompleted { .. }))
        .count();
    assert_eq!(completed, trace.len());
    assert!(sharded.events().is_empty(), "drain empties the log");
}
