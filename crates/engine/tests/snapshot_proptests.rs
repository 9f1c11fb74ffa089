//! Property-based snapshot coverage:
//!
//! * **Round-trip identity** — `restore(snapshot(engine))` reproduces
//!   every observable: residual loads and carry to the bit, admissions,
//!   requests, events + dropped cursor, and the whole metrics block —
//!   including snapshots taken mid-TTL-churn with pending expiries.
//! * **Continuation equivalence** — a restored engine and the original
//!   produce bit-identical epochs on any continuation stream.
//! * **Payment contract after restore** — epochs priced with exact
//!   [`PaymentPolicy::CriticalValue`] payments *after a restore* stay
//!   bracketed by the bisection oracle over the restored frozen
//!   contexts: persistence does not break the exact/bisection contract.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use std::sync::Arc;

use ufp_core::Request;
use ufp_engine::{Arrival, Engine, EngineConfig, EventLevel, PaymentPolicy, ResidualFloor};
use ufp_netgraph::graph::Graph;
use ufp_netgraph::ids::NodeId;
use ufp_netgraph::{bfs, generators};

mod common;

/// Random small network plus connected requests (normalized demands) —
/// the same scenario family as the engine equivalence proptests.
fn arb_scenario() -> impl Strategy<Value = (Graph, Vec<Request>, f64)> {
    (3usize..8, 4usize..16, any::<u64>(), 1usize..10).prop_map(|(n, requests, seed, eps_decile)| {
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

/// Drive `engine` over `requests` in churned batches of 3 (alternating
/// TTLs, so snapshots land mid-churn with pending expiries).
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

/// One admission flattened to comparable primitives: request id, path
/// nodes, epoch, expiry, payment bits, released flag.
type AdmissionState = (u32, Vec<u32>, u64, Option<u64>, u64, bool);

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
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// snapshot -> restore is the identity on every observable,
    /// including snapshots taken mid-TTL-churn.
    #[test]
    fn round_trip_is_identity(
        (graph, requests, epsilon) in arb_scenario(),
        ttl in 1u32..4,
        decay in 0.0..=1.0f64,
        cut in 1usize..5,
    ) {
        let config = EngineConfig {
            carry_decay: decay,
            residual_floor: ResidualFloor::Permissive,
            events: EventLevel::Request,
            ..EngineConfig::with_epsilon(epsilon)
                .with_payments(PaymentPolicy::critical_value())
        };
        let graph = Arc::new(graph);
        let mut engine = Engine::from_shared(Arc::clone(&graph), config.clone());
        let batches = churned_batches(&requests, ttl);
        let cut = cut.min(batches.len());
        for batch in &batches[..cut] {
            engine.submit_batch(batch);
        }

        let restored = Engine::restore_from_bytes(
            &engine.snapshot_bytes(),
            Arc::clone(&graph),
            config,
        ).expect("round trip must decode");

        prop_assert_eq!(restored.epoch(), engine.epoch());
        // Residual loads and carried exponents: exact bits.
        let loads: Vec<u64> =
            engine.residual().loads().iter().map(|l| l.to_bits()).collect();
        let rloads: Vec<u64> =
            restored.residual().loads().iter().map(|l| l.to_bits()).collect();
        prop_assert_eq!(loads, rloads);
        // Requests registry.
        let (ei, ri) = (engine.instance(), restored.instance());
        prop_assert_eq!(ei.requests(), ri.requests());
        // Admissions (paths, payments, TTL bookkeeping).
        prop_assert_eq!(full_observable(&engine), full_observable(&restored));
        // Event log + rotation cursor.
        prop_assert_eq!(engine.events(), restored.events());
        prop_assert_eq!(engine.events_dropped(), restored.events_dropped());
        // Metrics, every counter and sum.
        prop_assert_eq!(engine.metrics(), restored.metrics());
        // And the snapshot encoding itself is deterministic: the restored
        // engine re-serializes to the same bytes.
        prop_assert_eq!(engine.snapshot_bytes(), restored.snapshot_bytes());
    }

    /// The original and the restored engine stay in lockstep over any
    /// continuation of the stream.
    #[test]
    fn continuation_is_bit_identical(
        (graph, requests, epsilon) in arb_scenario(),
        ttl in 1u32..4,
        cut in 1usize..4,
    ) {
        let config = EngineConfig {
            residual_floor: ResidualFloor::Permissive,
            ..EngineConfig::with_epsilon(epsilon)
                .with_payments(PaymentPolicy::critical_value())
        };
        let graph = Arc::new(graph);
        let mut original = Engine::from_shared(Arc::clone(&graph), config.clone());
        let batches = churned_batches(&requests, ttl);
        let cut = cut.min(batches.len());
        for batch in &batches[..cut] {
            original.submit_batch(batch);
        }
        let mut restored = Engine::restore_from_bytes(
            &original.snapshot_bytes(),
            Arc::clone(&graph),
            config,
        ).expect("decodes");
        for batch in &batches[cut..] {
            let a = original.submit_batch(batch);
            let b = restored.submit_batch(batch);
            prop_assert_eq!(a.accepted, b.accepted);
            prop_assert_eq!(a.released, b.released);
            prop_assert_eq!(a.revenue.to_bits(), b.revenue.to_bits());
            prop_assert_eq!(a.min_residual.to_bits(), b.min_residual.to_bits());
        }
        prop_assert_eq!(full_observable(&original), full_observable(&restored));
    }

    /// After a restore, exact critical-value epochs stay bracketed by
    /// the bisection oracle (full re-runs of each restored epoch's frozen
    /// context) — the payment contract survives persistence.
    #[test]
    fn restored_critical_value_epochs_match_naive(
        (graph, requests, epsilon) in arb_scenario(),
        ttl in 1u32..4,
        cut in 1usize..4,
    ) {
        let config = EngineConfig {
            residual_floor: ResidualFloor::Permissive,
            ..EngineConfig::with_epsilon(epsilon).with_payments(PaymentPolicy::critical_value())
        };
        let graph = Arc::new(graph);
        let mut seed_engine = Engine::from_shared(Arc::clone(&graph), config.clone());
        let batches = churned_batches(&requests, ttl);
        let cut = cut.min(batches.len());
        for batch in &batches[..cut] {
            seed_engine.submit_batch(batch);
        }
        let mut restored = Engine::restore_from_bytes(
            &seed_engine.snapshot_bytes(),
            Arc::clone(&graph),
            config,
        ).expect("decodes");
        for (i, batch) in batches[cut..].iter().enumerate() {
            let (report, pairs) = common::epoch_with_oracle(&mut restored, batch);
            prop_assert_eq!(pairs.len(), report.accepted);
            common::assert_brackets(&pairs, &format!("restored epoch {}", cut + i + 1));
        }
    }
}
