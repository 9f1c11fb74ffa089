//! Crash-recovery integration suite: a killed-and-restored engine must
//! continue **byte-identically** — epochs, critical-value payments,
//! events, and metrics — versus an engine that never died.
//!
//! The scenario mirrors the `engine_sim` driver: a deterministic Poisson
//! trace with TTL churn over a random `G(n, m)` network, replayed
//! through an engine pricing every admission. At several watermarks `k`
//! the run is interrupted, persisted, rebuilt from bytes (or from a
//! [`SnapshotStore`] directory), and continued over the identical trace
//! suffix.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ufp_engine::{
    Arrival, Engine, EngineConfig, EngineMetrics, EventLevel, PaymentPolicy, SnapshotStore,
};
use ufp_netgraph::generators;
use ufp_netgraph::graph::Graph;
use ufp_workloads::arrivals::{arrival_trace, ArrivalProcess, ArrivalTraceConfig};
use ufp_workloads::random_ufp::required_b;

const EPOCHS: usize = 12;

fn scenario() -> (Arc<Graph>, Vec<Vec<Arrival>>) {
    let epsilon = 0.6;
    let b = required_b(160, epsilon).ceil();
    let mut rng = StdRng::seed_from_u64(23);
    let graph = generators::gnm_digraph(48, 160, (b, 2.0 * b), &mut rng);
    let trace = arrival_trace(
        &graph,
        &ArrivalTraceConfig {
            epochs: EPOCHS,
            process: ArrivalProcess::Poisson { mean: 30.0 },
            hotspot_pairs: Some(3),
            demand_range: (0.2, 1.0),
            ttl_range: Some((1, 4)),
            seed: 23,
            ..Default::default()
        },
    );
    (Arc::new(graph), trace)
}

fn config() -> EngineConfig {
    EngineConfig {
        events: EventLevel::Request,
        ..EngineConfig::with_epsilon(0.6).with_payments(PaymentPolicy::critical_value())
    }
}

/// One admission flattened to comparable primitives: request id, path
/// nodes, epoch, expiry, payment bits, released flag.
type AdmissionState = (u32, Vec<u32>, u64, Option<u64>, u64, bool);

/// Deterministic digest of everything observable about an engine run:
/// every admission and the whole metrics block.
fn observable_state(engine: &Engine) -> (Vec<AdmissionState>, EngineMetrics) {
    let admissions = engine
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
        .collect();
    (admissions, engine.metrics().clone())
}

#[test]
fn restored_runs_continue_byte_identically_for_several_watermarks() {
    let (graph, trace) = scenario();

    // The unbroken reference run, with every per-epoch report and
    // snapshot recorded.
    let mut reference = Engine::from_shared(Arc::clone(&graph), config());
    let mut reference_reports = Vec::new();
    let mut reference_snapshots = Vec::new();
    for batch in &trace {
        let r = reference.submit_batch(batch);
        reference_reports.push(r);
        reference_snapshots.push(reference.snapshot_bytes());
    }
    let reference_events = reference.events().to_vec();

    for k in [1usize, 4, 7, 10] {
        // Run to epoch k, "crash", persist.
        let mut victim = Engine::from_shared(Arc::clone(&graph), config());
        for batch in &trace[..k] {
            victim.submit_batch(batch);
        }
        let bytes = victim.snapshot_bytes();
        // A snapshot is a function of the stream: the victim's bytes are
        // the reference run's at the same epoch.
        assert!(
            bytes == reference_snapshots[k - 1],
            "k={k}: identical runs snapshot to different bytes"
        );

        // Rebuild a fresh engine from the snapshot and continue.
        let mut restored = Engine::restore_from_bytes(&bytes, Arc::clone(&graph), config())
            .expect("snapshot must restore");
        assert_eq!(restored.epoch(), k as u64);
        for (t, batch) in trace.iter().enumerate().skip(k) {
            let r = restored.submit_batch(batch);
            let want = &reference_reports[t];
            assert_eq!(r.epoch, want.epoch, "k={k} epoch number");
            assert_eq!(r.accepted, want.accepted, "k={k} t={t} accepted");
            assert_eq!(r.rejected, want.rejected, "k={k} t={t} rejected");
            assert_eq!(r.released, want.released, "k={k} t={t} released");
            assert_eq!(r.stop, want.stop, "k={k} t={t} stop reason");
            assert_eq!(
                r.revenue.to_bits(),
                want.revenue.to_bits(),
                "k={k} t={t} revenue diverged: {} vs {}",
                r.revenue,
                want.revenue
            );
            assert_eq!(
                r.value_admitted.to_bits(),
                want.value_admitted.to_bits(),
                "k={k} t={t} value"
            );
            assert_eq!(
                r.min_residual.to_bits(),
                want.min_residual.to_bits(),
                "k={k} t={t} min residual"
            );
            assert_eq!(
                r.total_utilization.to_bits(),
                want.total_utilization.to_bits(),
                "k={k} t={t} utilization"
            );
        }

        // Full-history read-outs agree byte for byte: every admission,
        // every payment bit, every event, the whole metrics block.
        assert_eq!(
            observable_state(&restored),
            observable_state(&reference),
            "k={k} observable state diverged"
        );
        assert_eq!(
            restored.events(),
            &reference_events[..],
            "k={k} event log diverged"
        );
        // Residual loads — the state future epochs allocate against.
        assert_eq!(restored.residual().loads(), reference.residual().loads());
        // And the whole book: the continued run snapshots to the
        // unbroken run's bytes.
        assert!(
            restored.snapshot_bytes() == reference_snapshots[EPOCHS - 1],
            "k={k}: restored-and-continued snapshot differs from the unbroken one"
        );
    }
}

#[test]
fn snapshot_store_recovers_newest_and_survives_torn_files() {
    let (graph, trace) = scenario();
    let dir = std::env::temp_dir().join(format!(
        "ufp-snapshot-store-test-{}-{}",
        std::process::id(),
        // Distinguish parallel test binaries reusing a pid.
        std::thread::current().name().unwrap_or("t").len()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = SnapshotStore::open(&dir).expect("store opens");

    // Snapshot every 3 epochs, crash after 8.
    let mut engine = Engine::from_shared(Arc::clone(&graph), config());
    for (t, batch) in trace.iter().enumerate().take(8) {
        engine.submit_batch(batch);
        if (t + 1) % 3 == 0 {
            store
                .save_with(&engine, format!("driver@{}", t + 1).as_bytes())
                .expect("save succeeds");
        }
    }
    assert_eq!(store.epochs().unwrap(), vec![3, 6]);

    // A half-written file under the newest name (crash mid-save).
    let full = std::fs::read(store.path_for(6)).unwrap();
    std::fs::write(store.path_for(7), &full[..full.len() / 2]).unwrap();

    let recovered = store
        .recover(Arc::clone(&graph), config())
        .expect("recover runs")
        .expect("a snapshot exists");
    assert_eq!(recovered.epoch, 6, "newest *loadable* snapshot wins");
    assert_eq!(recovered.driver, b"driver@6");
    assert_eq!(recovered.skipped.len(), 1, "torn file reported");

    // Continuing from the recovered engine matches the unbroken run.
    let mut reference = Engine::from_shared(Arc::clone(&graph), config());
    for batch in &trace {
        reference.submit_batch(batch);
    }
    let mut resumed = recovered.engine;
    for batch in &trace[6..] {
        resumed.submit_batch(batch);
    }
    assert_eq!(
        observable_state(&resumed),
        observable_state(&reference),
        "store-recovered run diverged"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restore_refuses_mismatched_graph_and_config() {
    let (graph, trace) = scenario();
    let mut engine = Engine::from_shared(Arc::clone(&graph), config());
    for batch in &trace[..3] {
        engine.submit_batch(batch);
    }
    let bytes = engine.snapshot_bytes();

    // Same sizes, different capacities -> edge digest mismatch.
    let mut rng = StdRng::seed_from_u64(24);
    let other = Arc::new(generators::gnm_digraph(
        graph.num_nodes(),
        graph.num_edges(),
        (10.0, 20.0),
        &mut rng,
    ));
    let err = Engine::restore_from_bytes(&bytes, other, config()).unwrap_err();
    assert!(
        matches!(err, ufp_engine::CodecError::GraphMismatch { .. }),
        "got {err}"
    );

    // Different epsilon -> config mismatch.
    let mut cfg = config();
    cfg.epsilon = 0.5;
    let err = Engine::restore_from_bytes(&bytes, Arc::clone(&graph), cfg).unwrap_err();
    assert!(
        matches!(err, ufp_engine::CodecError::ConfigMismatch { .. }),
        "got {err}"
    );

    // Different payment policy, both ways -> payment-policy mismatch.
    let unpriced = EngineConfig {
        payments: PaymentPolicy::None,
        ..config()
    };
    let mut free = Engine::from_shared(Arc::clone(&graph), unpriced.clone());
    free.submit_batch(&trace[0]);
    for (bytes, cfg) in [(&bytes, unpriced), (&free.snapshot_bytes(), config())] {
        let err = Engine::restore_from_bytes(bytes, Arc::clone(&graph), cfg).unwrap_err();
        assert!(
            matches!(
                err,
                ufp_engine::CodecError::ConfigMismatch {
                    context: "payment policy"
                }
            ),
            "got {err}"
        );
    }

    // A container stamped with the previous codec version -> refused.
    let mut old = bytes.clone();
    old[8..12].copy_from_slice(&3u32.to_le_bytes());
    let err = Engine::restore_from_bytes(&old, Arc::clone(&graph), config()).unwrap_err();
    assert!(
        matches!(
            err,
            ufp_engine::CodecError::UnsupportedVersion {
                found: 3,
                supported: 4
            }
        ),
        "got {err}"
    );
}
