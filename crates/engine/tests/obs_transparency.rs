//! Observability non-perturbation: a fully traced engine run must be
//! **bit-identical** to an untraced one on every deterministic output —
//! admissions, paths, payments, events, residuals, carry. The recorder
//! is out-of-band by contract (`ufp_obs` crate docs); this test enforces
//! the contract at the engine layer, complementing the CI smoke job that
//! byte-diffs `engine_sim --json` documents.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ufp_core::Request;
use ufp_engine::health::REGRET_MAX_ITERATIONS;
use ufp_engine::{Arrival, Engine, EngineConfig, HealthConfig, PaymentPolicy};
use ufp_netgraph::generators;
use ufp_netgraph::ids::NodeId;
use ufp_obs::{Phase, Recorder};

/// Every health subsystem on, sampling every epoch — the configuration
/// the bit-identity contract must hold under.
fn full_health() -> HealthConfig {
    HealthConfig {
        regret_every: 1,
        slo_us: 500,
        starvation_epochs: 1,
        eviction_storm_threshold: 0.5,
        ..HealthConfig::default()
    }
}

fn assert_same_deterministic_outputs(plain: &Engine, other: &Engine) {
    assert_eq!(plain.epoch(), other.epoch());
    assert_eq!(plain.admissions().len(), other.admissions().len());
    for (a, b) in plain.admissions().iter().zip(other.admissions()) {
        assert_eq!(a.request, b.request);
        assert_eq!(a.path.edges(), b.path.edges());
        assert_eq!(a.epoch, b.epoch);
        assert_eq!(a.expires_at, b.expires_at);
        assert_eq!(a.payment.to_bits(), b.payment.to_bits());
        assert_eq!(a.released, b.released);
    }
    assert_eq!(plain.events().len(), other.events().len());
    for (r, s) in plain
        .residual()
        .residuals()
        .iter()
        .zip(other.residual().residuals())
    {
        assert_eq!(r.to_bits(), s.to_bits());
    }
    assert_eq!(
        plain.metrics().value_admitted.to_bits(),
        other.metrics().value_admitted.to_bits()
    );
    assert_eq!(
        plain.metrics().revenue.to_bits(),
        other.metrics().revenue.to_bits()
    );
}

fn replay(config: EngineConfig) -> Engine {
    let mut rng = StdRng::seed_from_u64(42);
    let graph = generators::gnm_digraph(40, 160, (20.0, 40.0), &mut rng);
    let mut engine = Engine::new(graph, config);
    for _ in 0..6 {
        let batch: Vec<Arrival> = (0..30)
            .map(|_| {
                let src = NodeId(rng.random_range(0..40u32));
                let mut dst = NodeId(rng.random_range(0..40u32));
                if dst == src {
                    dst = NodeId((dst.0 + 1) % 40);
                }
                let req = Request::new(
                    src,
                    dst,
                    rng.random_range(0.2..=1.0),
                    rng.random_range(0.5..4.0),
                );
                if rng.random_bool(0.5) {
                    Arrival::with_ttl(req, rng.random_range(1..4))
                } else {
                    Arrival::permanent(req)
                }
            })
            .collect();
        engine.submit_batch(&batch);
    }
    engine
}

#[test]
fn traced_run_is_bit_identical_to_untraced() {
    let base = EngineConfig::with_epsilon(0.7).with_payments(PaymentPolicy::critical_value());
    let obs = Recorder::enabled();
    let plain = replay(base.clone());
    let traced = replay(base.with_obs(obs.clone()));

    // Every deterministic output matches bit for bit.
    assert_same_deterministic_outputs(&plain, &traced);

    // And the recorder actually observed the run: epoch brackets with
    // the open/plan/commit trio, selection activity, payment probes,
    // and the engine's domain gauges.
    let snap = obs.snapshot().expect("enabled recorder snapshots");
    assert_eq!(snap.profiles.len(), 6);
    for stage in [Phase::EpochOpen, Phase::EpochPlan, Phase::EpochCommit] {
        assert_eq!(snap.phase_hits[stage.index()], 6, "{}", stage.name());
    }
    assert!(snap.phase_hits[Phase::SelectionDijkstra.index()] > 0);
    assert!(snap.phase_hits[Phase::PaymentProbe.index()] > 0);
    let gauge_names: Vec<&str> = snap.gauges.iter().map(|(n, _)| n.as_str()).collect();
    for expected in [
        "core.guard_slack",
        "core.dual_weight_max_ln_y",
        "core.resume_trace_bytes",
        "engine.total_utilization",
        "engine.min_residual",
        "engine.active_admissions",
    ] {
        assert!(gauge_names.contains(&expected), "missing gauge {expected}");
    }
    // The gauges read the engine's live state: utilization as the
    // residual tracker reports it, and the admissions still held (not
    // every admission ever made — the churned replay releases some).
    let gauge = |name: &str| {
        snap.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .expect("gauge recorded")
    };
    assert_eq!(
        gauge("engine.total_utilization").to_bits(),
        traced.residual().total_utilization().to_bits()
    );
    let live = traced.admissions().iter().filter(|a| !a.released).count();
    assert!(
        live < traced.admissions().len(),
        "fixture must release some"
    );
    assert_eq!(gauge("engine.active_admissions"), live as f64);
    // Every profile's epoch-stage coverage is a sane fraction.
    for p in &snap.profiles {
        let c = p.coverage();
        assert!((0.0..=1.5).contains(&c), "coverage {c} out of range");
    }
}

/// PR 10's extension of the contract: the auction-health layer (regret
/// oracle sampling every epoch, SLO, starvation, storm watermarks) must
/// be as invisible to the run as plain tracing is.
#[test]
fn health_on_run_is_bit_identical_to_health_off() {
    let base = EngineConfig::with_epsilon(0.7).with_payments(PaymentPolicy::critical_value());
    let obs = Recorder::enabled();
    let plain = replay(base.clone());
    let healthy = replay(base.with_obs(obs.clone()).with_health(full_health()));

    assert_same_deterministic_outputs(&plain, &healthy);

    // The oracle ran out of band: one sample per epoch, each attached
    // to its profile, each a valid competitiveness certificate, and all
    // of its wall-clock outside the epoch bracket.
    let snap = obs.snapshot().expect("enabled recorder snapshots");
    assert_eq!(snap.profiles.len(), 6);
    assert_eq!(snap.phase_hits[Phase::HealthRegretOracle.index()], 6);
    for p in &snap.profiles {
        let sample = p.regret.expect("sampled every epoch");
        assert!(sample.ratio >= 0.0 && sample.ratio <= 1.0, "{sample:?}");
        if sample.fractional_bound > 0.0 {
            assert!(
                sample.online_value <= sample.fractional_bound * (1.0 + 1e-9) + 1e-9,
                "online beat the offline fractional bound: {sample:?}"
            );
        }
        assert!(sample.duality_gap >= -1e-9, "{sample:?}");
        // The oracle phase is not an epoch stage, so coverage stays a
        // fraction of the bracket even with the solve running.
        let c = p.coverage();
        assert!((0.0..=1.5).contains(&c), "coverage {c} out of range");
    }
    let counters: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
    assert!(counters.contains(&"health.regret_samples_total"));
}

/// The regret sample on a hand-checkable fixture agrees with a direct
/// `solve_fractional_ufp` call on the same instance: one link of
/// capacity 2 and three unit-demand requests worth 5, 3, and 2 — the
/// offline fractional optimum is 8 (the two most valuable), and the
/// online run can admit at most value 8 of the three.
#[test]
fn regret_sample_matches_hand_checked_fractional_bound() {
    use ufp_lp::{solve_fractional_ufp, Commodity};
    use ufp_netgraph::graph::GraphBuilder;

    let mut gb = GraphBuilder::directed(2);
    gb.add_edge(NodeId(0), NodeId(1), 2.0);
    let graph = std::sync::Arc::new(gb.build());

    let health = HealthConfig {
        regret_every: 1,
        ..HealthConfig::default()
    };
    let obs = Recorder::enabled();
    let config = EngineConfig::with_epsilon(0.7)
        .with_obs(obs.clone())
        .with_health(health);
    let mut engine = Engine::from_shared(graph.clone(), config);
    let values = [5.0, 3.0, 2.0];
    let batch: Vec<Arrival> = values
        .iter()
        .map(|&v| Arrival::permanent(Request::new(NodeId(0), NodeId(1), 1.0, v)))
        .collect();
    let report = engine.submit_batch(&batch);

    let snap = obs.snapshot().unwrap();
    let sample = snap.profiles[0].regret.expect("epoch 1 is sampled");

    // The same bound, computed directly with the oracle's parameters.
    let commodities: Vec<Commodity> = values
        .iter()
        .map(|&v| Commodity {
            src: NodeId(0),
            dst: NodeId(1),
            demand: 1.0,
            value: v,
        })
        .collect();
    let direct = solve_fractional_ufp(
        &graph,
        &commodities,
        health.regret_epsilon,
        REGRET_MAX_ITERATIONS,
    );
    assert!(
        (sample.fractional_bound - direct.upper_bound).abs() <= 1e-9 * direct.upper_bound,
        "oracle bound {} vs direct bound {}",
        sample.fractional_bound,
        direct.upper_bound
    );
    // Hand check: OPT_frac = 8, and the Garg–Könemann upper bound is
    // within its (1+ε)-ish slack of it.
    assert!(direct.value <= 8.0 + 1e-6);
    assert!(sample.fractional_bound >= 8.0 - 1e-6);
    assert!(sample.fractional_bound <= 8.0 * (1.0 + 3.0 * health.regret_epsilon));
    // Online never beats the offline relaxation.
    assert_eq!(sample.online_value, report.value_admitted);
    assert!(sample.online_value <= sample.fractional_bound + 1e-9);
    assert!(sample.ratio <= 1.0);
    assert_eq!(sample.commodities, 3);
}
