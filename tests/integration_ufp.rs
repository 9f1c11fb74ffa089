//! Cross-crate integration: Algorithm 1 against the LP substrate, the
//! exact solver, and the paper's theorem bounds, end to end.

use truthful_ufp::prelude::*;
use truthful_ufp::ufp_core::{exact_optimum, ExactConfig, StopReason};
use truthful_ufp::ufp_lp::{solve_fractional_ufp, solve_ufp_lp_exact};
use truthful_ufp::ufp_workloads::{random_ufp, RandomUfpConfig, ValueModel};

const E: f64 = std::f64::consts::E;

fn contended_instance(seed: u64, eps: f64) -> UfpInstance {
    let b = truthful_ufp::ufp_workloads::required_b(80, eps);
    random_ufp(&RandomUfpConfig {
        nodes: 20,
        edges: 80,
        requests: (15.0 * b).ceil() as usize,
        epsilon_target: eps,
        demand_range: (0.3, 1.0),
        values: ValueModel::Uniform(0.5, 2.0),
        hotspot_pairs: Some(2),
        seed,
    })
}

#[test]
fn theorem31_certified_ratio_holds_across_seeds() {
    let eps = 0.3;
    for seed in 1..=5u64 {
        let inst = contended_instance(seed, eps);
        assert!(inst.meets_large_capacity_bound(eps));
        let run = bounded_ufp(&inst, &BoundedUfpConfig::with_epsilon(eps));
        run.solution
            .check_feasible(&inst, false)
            .expect("Lemma 3.3");
        let ratio = run.certified_ratio(&inst).expect("certificate");
        let guarantee = (1.0 + 6.0 * eps) * E / (E - 1.0);
        assert!(
            ratio <= guarantee + 1e-6,
            "seed {seed}: certified ratio {ratio} above guarantee {guarantee}"
        );
    }
}

#[test]
fn dual_certificate_upper_bounds_exact_lp() {
    // Claim 3.6's bound must sit above the true fractional optimum.
    let inst = random_ufp(&RandomUfpConfig {
        nodes: 8,
        edges: 24,
        requests: 12,
        epsilon_target: 0.5,
        demand_range: (0.4, 1.0),
        values: ValueModel::Uniform(0.5, 2.0),
        hotspot_pairs: None,
        seed: 3,
    });
    let run = bounded_ufp(&inst, &BoundedUfpConfig::with_epsilon(0.5));
    let lp = solve_ufp_lp_exact(inst.graph(), &inst.to_commodities());
    if let Some(bound) = run.dual_upper_bound() {
        assert!(
            bound >= lp.objective - 1e-6,
            "certificate {bound} below LP optimum {}",
            lp.objective
        );
    }
    // And the LP optimum itself dominates the integral algorithm.
    assert!(lp.objective >= run.solution.value(&inst) - 1e-6);
}

#[test]
fn algorithm_never_beats_exact_optimum() {
    for seed in [7u64, 8, 9] {
        let inst = random_ufp(&RandomUfpConfig {
            nodes: 7,
            edges: 20,
            requests: 8,
            epsilon_target: 0.5,
            demand_range: (0.5, 1.0),
            values: ValueModel::Uniform(0.5, 2.0),
            hotspot_pairs: None,
            seed,
        });
        let run = bounded_ufp(&inst, &BoundedUfpConfig::with_epsilon(0.5));
        let exact = exact_optimum(&inst, &ExactConfig::default());
        assert!(
            run.solution.value(&inst) <= exact.value + 1e-9,
            "seed {seed}: heuristic beat the optimum?!"
        );
    }
}

#[test]
fn fractional_solvers_bracket_each_other() {
    let inst = contended_instance(11, 0.4);
    let commodities = inst.to_commodities();
    let gk = solve_fractional_ufp(inst.graph(), &commodities, 0.05, 300_000);
    // GK primal ≤ OPT_frac ≤ GK dual bound; the integral algorithm lies
    // under both.
    assert!(gk.value <= gk.upper_bound + 1e-6);
    let run = bounded_ufp(&inst, &BoundedUfpConfig::with_epsilon(0.4));
    assert!(run.solution.value(&inst) <= gk.upper_bound + 1e-6);
}

#[test]
fn claim52_certificate_dominates_figure5_lp() {
    // The repetitions dual bound (Claim 5.2) upper-bounds the Figure 5
    // relaxation, which in turn dominates the integral repetition value.
    use truthful_ufp::ufp_lp::solve_ufp_repetition_lp_exact;
    let mut gb = GraphBuilder::directed(3);
    gb.add_edge(NodeId(0), NodeId(1), 12.0);
    gb.add_edge(NodeId(1), NodeId(2), 9.0);
    let inst = UfpInstance::new(
        gb.build(),
        vec![
            Request::new(NodeId(0), NodeId(2), 1.0, 2.0),
            Request::new(NodeId(0), NodeId(1), 0.5, 0.6),
        ],
    );
    let run = bounded_ufp_repeat(&inst, &RepeatConfig::with_epsilon(0.3));
    let fig5 = solve_ufp_repetition_lp_exact(inst.graph(), &inst.to_commodities());
    let alg = run.solution.value(&inst);
    assert!(
        alg <= fig5.objective + 1e-6,
        "ALG {alg} above Figure 5 LP {}",
        fig5.objective
    );
    let bound = run.dual_upper_bound().expect("claim 5.2");
    assert!(
        bound >= fig5.objective - 1e-6,
        "certificate {bound} below Figure 5 optimum {}",
        fig5.objective
    );
}

#[test]
fn repetition_variant_dominates_plain_on_shared_instance() {
    // With repetitions allowed, the achievable value can only grow.
    let inst = contended_instance(13, 0.4);
    let plain = bounded_ufp(&inst, &BoundedUfpConfig::with_epsilon(0.4));
    let repeat = bounded_ufp_repeat(&inst, &RepeatConfig::with_epsilon(0.4));
    assert!(
        repeat.solution.value(&inst) >= plain.solution.value(&inst) * 0.8,
        "repetition run unexpectedly far below plain: {} vs {}",
        repeat.solution.value(&inst),
        plain.solution.value(&inst)
    );
    repeat
        .solution
        .check_feasible(&inst, true)
        .expect("repetitions feasible");
}

#[test]
fn stop_reasons_cover_the_three_regimes() {
    // Guard: contended instance.
    let run = bounded_ufp(
        &contended_instance(17, 0.3),
        &BoundedUfpConfig::with_epsilon(0.3),
    );
    assert_eq!(run.trace.stop_reason, StopReason::Guard);

    // Exhausted: abundant capacity.
    let mut gb = GraphBuilder::directed(2);
    gb.add_edge(NodeId(0), NodeId(1), 1000.0);
    let inst = UfpInstance::new(
        gb.build(),
        (0..5)
            .map(|_| Request::new(NodeId(0), NodeId(1), 1.0, 1.0))
            .collect(),
    );
    let run = bounded_ufp(&inst, &BoundedUfpConfig::with_epsilon(0.3));
    assert_eq!(run.trace.stop_reason, StopReason::Exhausted);

    // NoPath: disconnected terminals.
    let gb = GraphBuilder::directed(3);
    let inst = UfpInstance::new(
        gb.build(),
        vec![Request::new(NodeId(0), NodeId(2), 1.0, 1.0)],
    );
    let run = bounded_ufp(&inst, &BoundedUfpConfig::with_epsilon(0.3));
    assert_eq!(run.trace.stop_reason, StopReason::NoPath);
}
