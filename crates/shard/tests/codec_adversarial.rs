//! Adversarial decoding of sharded snapshots (format v5): damaged bytes
//! must produce **typed errors** — never a panic, never a half-restored
//! deployment. Covers every prefix truncation, a byte flip at every
//! header and body offset, forged checksums over flipped bodies, and a
//! v4 header (the format that still stored per-shard planning time)
//! with a valid checksum.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ufp_engine::codec::{fnv64, CodecError};
use ufp_engine::{EngineConfig, PaymentPolicy};
use ufp_netgraph::generators;
use ufp_netgraph::graph::Graph;
use ufp_shard::{NodeBlocks, Partitioner, ShardConfig, ShardPlan, ShardedEngine};
use ufp_workloads::arrivals::ArrivalProcess;
use ufp_workloads::sharded::{block_shard_map, sharded_arrival_trace, ShardedTraceConfig};

/// Container header: magic (8), body length (8), body checksum (8).
const HEADER_LEN: usize = 24;

fn config() -> ShardConfig {
    ShardConfig {
        engine: EngineConfig::with_epsilon(0.6).with_payments(PaymentPolicy::critical_value()),
        lease_fraction: 0.5,
    }
}

/// A small populated 3-shard deployment with cross traffic, TTL churn
/// and payments, and its snapshot.
fn populated() -> (Arc<Graph>, ShardPlan, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(4);
    let graph = Arc::new(generators::community_digraph(
        3,
        5,
        14,
        3,
        (20.0, 30.0),
        (20.0, 30.0),
        &mut rng,
    ));
    let trace = sharded_arrival_trace(
        &graph,
        &block_shard_map(graph.num_nodes(), 3),
        &ShardedTraceConfig {
            epochs: 3,
            process: ArrivalProcess::Poisson { mean: 5.0 },
            cross_fraction: 0.3,
            ttl_range: Some((1, 2)),
            seed: 21,
            ..Default::default()
        },
    );
    let plan = NodeBlocks.partition(&graph, 3);
    let mut engine = ShardedEngine::new(Arc::clone(&graph), plan.clone(), config());
    for batch in &trace {
        engine.submit_batch(batch);
    }
    assert!(engine.num_admissions() > 0, "fixture must admit someone");
    let bytes = engine.snapshot_bytes();
    (graph, plan, bytes)
}

fn restore(
    bytes: &[u8],
    graph: &Arc<Graph>,
    plan: &ShardPlan,
) -> Result<ShardedEngine, CodecError> {
    ShardedEngine::restore_from_bytes(bytes, Arc::clone(graph), plan.clone(), config())
}

/// Rewrite the header checksum so a modified body passes the container
/// check and reaches structural validation.
fn reseal(bytes: &mut [u8]) {
    let checksum = fnv64(&bytes[HEADER_LEN..]);
    bytes[16..24].copy_from_slice(&checksum.to_le_bytes());
}

#[test]
fn pristine_snapshot_round_trips() {
    let (graph, plan, bytes) = populated();
    let restored = restore(&bytes, &graph, &plan).expect("control case must decode");
    assert_eq!(restored.snapshot_bytes(), bytes);
}

#[test]
fn every_prefix_truncation_is_a_typed_error() {
    let (graph, plan, bytes) = populated();
    for len in 0..bytes.len() {
        let err = restore(&bytes[..len], &graph, &plan).expect_err("prefix must be rejected");
        assert!(
            matches!(
                err,
                CodecError::BadMagic { .. } | CodecError::Truncated { .. }
            ),
            "prefix of {len} bytes: {err:?}"
        );
    }
}

#[test]
fn a_byte_flip_at_every_offset_is_a_typed_error() {
    let (graph, plan, bytes) = populated();
    for at in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[at] ^= 0x5a;
        let err = restore(&bad, &graph, &plan).expect_err("flip must be rejected");
        let expected = match at {
            0..8 => matches!(err, CodecError::BadMagic { .. }),
            8..16 => matches!(err, CodecError::Truncated { .. }),
            _ => matches!(err, CodecError::ChecksumMismatch { .. }),
        };
        assert!(expected, "flip at byte {at}: {err:?}");
    }
}

#[test]
fn resealed_body_flips_never_panic() {
    // With the checksum forged, every flipped body byte reaches the
    // structural decoders. A flip may land on a value the codec cannot
    // tell from a real one (a float in the event log, say), so success
    // is allowed — but only as a whole deployment that re-encodes to
    // exactly the bytes it was read from.
    let (graph, plan, bytes) = populated();
    for at in HEADER_LEN..bytes.len() {
        let mut bad = bytes.clone();
        bad[at] ^= 0x5a;
        reseal(&mut bad);
        if let Ok(restored) = restore(&bad, &graph, &plan) {
            assert_eq!(restored.snapshot_bytes(), bad, "flip at byte {at}");
        }
    }
}

#[test]
fn version_four_header_is_unsupported_version() {
    let (graph, plan, mut bytes) = populated();
    bytes[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&4u32.to_le_bytes());
    reseal(&mut bytes);
    let err = restore(&bytes, &graph, &plan).expect_err("v4 must be refused");
    assert!(
        matches!(
            err,
            CodecError::UnsupportedVersion {
                found: 4,
                supported: 5
            }
        ),
        "{err:?}"
    );
}
