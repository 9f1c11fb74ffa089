//! Adversarial decoding of sharded snapshots. A sharded snapshot is the
//! book's engine container with the shard planner's state in its driver
//! section, so damaged bytes must produce **typed errors** at the engine
//! frame — never a panic, never a half-restored deployment. Covers
//! every prefix truncation, a byte flip at every offset of the 20-byte
//! engine header, body and checksum, resealed body flips, and driver
//! blobs that are not this deployment's planner state.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ufp_engine::codec::{self, CodecError, Writer};
use ufp_engine::{Engine, EngineConfig, PaymentPolicy};
use ufp_netgraph::generators;
use ufp_netgraph::graph::Graph;
use ufp_shard::{NodeBlocks, Partitioner, ShardConfig, ShardPlan, ShardedEngine};
use ufp_workloads::arrivals::ArrivalProcess;
use ufp_workloads::sharded::{block_shard_map, sharded_arrival_trace, ShardedTraceConfig};

fn config() -> ShardConfig {
    ShardConfig {
        engine: EngineConfig::with_epsilon(0.6).with_payments(PaymentPolicy::critical_value()),
        lease_fraction: 0.5,
    }
}

fn graph() -> Arc<Graph> {
    let mut rng = StdRng::seed_from_u64(4);
    Arc::new(generators::community_digraph(
        3,
        5,
        14,
        3,
        (20.0, 30.0),
        (20.0, 30.0),
        &mut rng,
    ))
}

/// A small 3-shard deployment with cross traffic, TTL churn and
/// payments, after `epochs` batches.
fn deployment(graph: &Arc<Graph>, epochs: usize) -> (ShardPlan, ShardedEngine) {
    let trace = sharded_arrival_trace(
        graph,
        &block_shard_map(graph.num_nodes(), 3),
        &ShardedTraceConfig {
            epochs,
            process: ArrivalProcess::Poisson { mean: 5.0 },
            cross_fraction: 0.3,
            ttl_range: Some((1, 2)),
            seed: 21,
            ..Default::default()
        },
    );
    let plan = NodeBlocks.partition(graph, 3);
    let mut engine = ShardedEngine::new(Arc::clone(graph), plan.clone(), config());
    for batch in &trace {
        engine.submit_batch(batch);
    }
    (plan, engine)
}

/// The populated deployment's snapshot.
fn populated() -> (Arc<Graph>, ShardPlan, Vec<u8>) {
    let graph = graph();
    let (plan, engine) = deployment(&graph, 3);
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

/// Frame `body` as a current-version engine container with a valid
/// checksum, as a hostile writer would after editing the body.
fn reframe(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&codec::MAGIC);
    out.extend_from_slice(&codec::FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(body);
    let checksum = codec::fnv64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// The container body of an engine snapshot.
fn body(bytes: &[u8]) -> &[u8] {
    &bytes[codec::HEADER_LEN..bytes.len() - codec::CHECKSUM_LEN]
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
        // Engine header: magic (8), version (4), body length (8); the
        // body and the trailing checksum are covered by the checksum.
        let expected = match at {
            0..8 => matches!(err, CodecError::BadMagic { .. }),
            8..12 => matches!(err, CodecError::UnsupportedVersion { .. }),
            12..20 => matches!(
                err,
                CodecError::Truncated { .. } | CodecError::TrailingBytes { .. }
            ),
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
    let body = body(&bytes);
    for at in 0..body.len() {
        let mut flipped = body.to_vec();
        flipped[at] ^= 0x5a;
        let bad = reframe(&flipped);
        if let Ok(restored) = restore(&bad, &graph, &plan) {
            assert_eq!(restored.snapshot_bytes(), bad, "flip at byte {at}");
        }
    }
}

#[test]
fn sharded_snapshot_is_an_engine_container() {
    let (graph, _, bytes) = populated();
    assert_eq!(bytes[..8], codec::MAGIC);
    assert_eq!(bytes[8..12], codec::FORMAT_VERSION.to_le_bytes());
    codec::open_container(&bytes).expect("a sharded snapshot is an engine container");
    // The book alone restores from it, as a plain engine.
    let book = Engine::restore_from_bytes(&bytes, graph, config().engine).expect("book restores");
    assert_eq!(book.epoch(), 3);
}

#[test]
fn a_plain_engine_snapshot_is_refused() {
    let graph = graph();
    let (plan, engine) = deployment(&graph, 3);
    let bytes = engine.engine().snapshot_bytes();
    let err = restore(&bytes, &graph, &plan).expect_err("no planner state");
    assert!(
        matches!(
            err,
            CodecError::Truncated {
                context: "shard count",
                ..
            }
        ),
        "{err:?}"
    );
}

#[test]
fn an_engine_sim_driver_blob_is_refused() {
    // The shape `engine_sim` writes into a single engine's driver
    // section: a version byte, then its flags and trace digest.
    let graph = graph();
    let (plan, engine) = deployment(&graph, 3);
    let mut w = Writer::new();
    w.put_u8(4);
    w.put_u64(graph.num_nodes() as u64);
    w.put_u64(graph.num_edges() as u64);
    w.put_u64(3);
    w.put_f64(5.0);
    w.put_u64(0);
    w.put_f64(0.6);
    w.put_u64(21);
    w.put_str("poisson");
    w.put_bool(false);
    w.put_u64(0xfeed_f00d);
    for _ in 0..4 {
        w.put_u64(1);
    }
    let bytes = engine.engine().snapshot_bytes_with(w.as_bytes());
    let err = restore(&bytes, &graph, &plan).expect_err("not planner state");
    assert!(
        matches!(
            err,
            CodecError::ConfigMismatch { .. }
                | CodecError::Malformed { .. }
                | CodecError::Truncated { .. }
                | CodecError::TrailingBytes { .. }
        ),
        "{err:?}"
    );
}

#[test]
fn a_layout_or_lease_mismatch_is_config_mismatch() {
    let (graph, plan, bytes) = populated();
    let mismatch = |err: CodecError, want: &str| {
        assert!(
            matches!(err, CodecError::ConfigMismatch { context } if context == want),
            "want ConfigMismatch({want}), got {err:?}"
        );
    };
    let other_lease = ShardConfig {
        lease_fraction: 0.25,
        ..config()
    };
    let err =
        ShardedEngine::restore_from_bytes(&bytes, Arc::clone(&graph), plan.clone(), other_lease)
            .expect_err("lease fraction differs");
    mismatch(err, "lease fraction");
    // Same shard count, one node moved to another shard.
    let mut node_shard = plan.node_shard().to_vec();
    node_shard[0] = (node_shard[0] + 1) % 3;
    let moved = ShardPlan::from_node_shard(&graph, node_shard, 3);
    let err = restore(&bytes, &graph, &moved).expect_err("partition differs");
    mismatch(err, "partition digest");
    let two_shards = NodeBlocks.partition(&graph, 2);
    let err = restore(&bytes, &graph, &two_shards).expect_err("shard count differs");
    mismatch(err, "shard count");
}

#[test]
fn spliced_planner_state_that_disagrees_with_the_book_is_malformed() {
    // The planner state of an earlier snapshot of the same run, spliced
    // into a later book: every field decodes, but its counters and
    // ledger do not describe this book.
    let graph = graph();
    let (plan, early) = deployment(&graph, 2);
    let (_, late) = deployment(&graph, 3);
    let (_, early_state) = Engine::restore_from_bytes_with_driver(
        &early.snapshot_bytes(),
        Arc::clone(&graph),
        config().engine,
    )
    .expect("an engine container");
    let spliced = late.engine().snapshot_bytes_with(&early_state);
    let err = restore(&spliced, &graph, &plan).expect_err("spliced counters");
    assert!(matches!(err, CodecError::Malformed { .. }), "{err:?}");
}
