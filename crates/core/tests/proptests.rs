//! Property-based tests for the core algorithms.
//!
//! The invariants under randomized instances:
//!
//! * **Feasibility (Lemma 3.3)** — Bounded-UFP's output never violates a
//!   capacity, for any ε and any instance.
//! * **Optimality sandwich** — ALG ≤ OPT_int ≤ OPT_frac ≤ dual bound.
//! * **Determinism** — parallel == sequential, and reruns are identical.
//! * **Monotonicity (Lemma 3.4)** — raising a winner's value or lowering
//!   its demand never evicts it (the theorem the whole mechanism stands
//!   on, probed across random instances rather than fixtures).
//! * **Guard headroom** — before every selection, every usable edge
//!   still has `c_e/B ≥ 1` capacity free, so no demand can overflow it
//!   and path search needs no residual gate.
//! * **Consistency** — the engine's `PrimalDualScore` agrees with the
//!   closed form `h(p)` the paper assigns to Algorithm 1.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ufp_core::{
    bounded_ufp, bounded_ufp_epoch, exact_optimum, iterative_path_minimizer, BoundedUfpConfig,
    EngineConfig, EpochContext, ExactConfig, PrimalDualScore, Request, UfpInstance,
};
use ufp_lp::solve_ufp_lp_exact;
use ufp_netgraph::generators;
use ufp_netgraph::ids::NodeId;
use ufp_par::Pool;

/// Random small instance: G(n, m) digraph with capacities ≥ demand scale,
/// plus connected random requests.
fn arb_instance() -> impl Strategy<Value = (UfpInstance, f64)> {
    (3usize..9, 1usize..30, 1usize..10, any::<u64>(), 1usize..10).prop_map(
        |(n, extra_edges, requests, seed, eps_decile)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let max_edges = n * (n - 1);
            let m = (extra_edges % max_edges).max(2).min(max_edges);
            let cap = 2.0 + (seed % 13) as f64;
            let graph = generators::gnm_digraph(n, m, (cap, cap * 2.0), &mut rng);
            let mut reqs = Vec::new();
            let mut attempts = 0;
            while reqs.len() < requests && attempts < 1000 {
                attempts += 1;
                let src = NodeId(rng.random_range(0..n as u32));
                let dst = NodeId(rng.random_range(0..n as u32));
                if src == dst {
                    continue;
                }
                if !ufp_netgraph::bfs::is_reachable(&graph, src, dst) {
                    continue;
                }
                let demand = rng.random_range(0.1..=1.0);
                let value = rng.random_range(0.1..=3.0);
                reqs.push(Request::new(src, dst, demand, value));
            }
            prop_assume_nonempty(&reqs);
            let eps = eps_decile as f64 / 10.0;
            (UfpInstance::new(graph, reqs), eps)
        },
    )
}

/// Contended instance for the guard property: a sparse graph, so one
/// edge can dominate the dual sum `D₁`, and 10–59 requests over at most
/// three reachable pairs, so runs end on the guard.
fn arb_contended_instance() -> impl Strategy<Value = (UfpInstance, f64)> {
    (3usize..7, 0usize..6, 10usize..60, any::<u64>(), 1usize..11).prop_map(
        |(n, extra_edges, requests, seed, eps_decile)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = (n + extra_edges).min(n * (n - 1));
            let cap = 2.0 + (seed % 7) as f64;
            let graph = generators::gnm_digraph(n, m, (cap, cap * 1.5), &mut rng);
            let mut pairs = Vec::new();
            for _ in 0..200 {
                let src = NodeId(rng.random_range(0..n as u32));
                let dst = NodeId(rng.random_range(0..n as u32));
                if pairs.len() < 3
                    && src != dst
                    && ufp_netgraph::bfs::is_reachable(&graph, src, dst)
                {
                    pairs.push((src, dst));
                }
            }
            let reqs = if pairs.is_empty() {
                Vec::new()
            } else {
                (0..requests)
                    .map(|_| {
                        let (src, dst) = pairs[rng.random_range(0..pairs.len())];
                        let demand = rng.random_range(0.1..=1.0);
                        Request::new(src, dst, demand, rng.random_range(0.1..=3.0))
                    })
                    .collect()
            };
            (UfpInstance::new(graph, reqs), eps_decile as f64 / 10.0)
        },
    )
}

/// Random epoch context over `inst`'s graph: scaled capacities, dead
/// links (unusable, zero capacity), carried exponents, and optionally a
/// routable mask.
fn random_context(
    inst: &UfpInstance,
    seed: u64,
) -> (Vec<f64>, Vec<bool>, Vec<f64>, Option<Vec<bool>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = inst.graph().num_edges();
    let usable: Vec<bool> = (0..m).map(|_| rng.random_range(0..5u32) != 0).collect();
    let caps: Vec<f64> = inst
        .graph()
        .edges()
        .iter()
        .zip(&usable)
        .map(|(e, &u)| {
            if u {
                e.capacity * rng.random_range(0.5..=1.0)
            } else {
                0.0
            }
        })
        .collect();
    let carry: Vec<f64> = (0..m).map(|_| rng.random_range(0.0..1.5)).collect();
    let routable = rng
        .random_bool(0.5)
        .then(|| (0..m).map(|_| rng.random_range(0..4u32) != 0).collect());
    (caps, usable, carry, routable)
}

/// Replay the run's routed paths in order against the capacities it ran
/// under (`caps`, with `usable` edges in play) and check, before every
/// selection, that each usable edge has `c_e − load_e ≥ c_e/B ≥ 1 ≥ d`
/// for every demand `d` (relative tolerance 1e-9 on the first bound).
fn check_guard_headroom(
    inst: &UfpInstance,
    eps: f64,
    ctx: Option<&EpochContext<'_>>,
    caps: &[f64],
    usable: &[bool],
) -> Result<(), TestCaseError> {
    let b = caps
        .iter()
        .zip(usable)
        .filter(|&(_, &u)| u)
        .map(|(&c, _)| c)
        .fold(f64::INFINITY, f64::min);
    let max_demand = inst
        .request_ids()
        .map(|r| inst.request(r).demand)
        .fold(0.0, f64::max);
    prop_assert!(max_demand <= 1.0);
    let run = bounded_ufp_epoch(inst, &BoundedUfpConfig::with_epsilon(eps), ctx).run;
    let mut load = vec![0.0f64; caps.len()];
    for (step, (rid, path)) in run.solution.routed.iter().enumerate() {
        for (e, &c) in caps.iter().enumerate() {
            if !usable[e] {
                continue;
            }
            prop_assert!(c / b >= 1.0);
            let free = c - load[e];
            prop_assert!(
                free >= (c / b) * (1.0 - 1e-9),
                "step {step}: edge {e} has {free} of {c} free, below c/B = {}",
                c / b
            );
        }
        let d = inst.request(*rid).demand;
        for e in path.edges() {
            load[e.index()] += d;
        }
    }
    Ok(())
}

fn prop_assume_nonempty(reqs: &[Request]) {
    // Instances can legitimately end up empty on disconnected graphs;
    // the properties below handle zero-request instances gracefully, so
    // no filtering is required — this is documentation.
    let _ = reqs;
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn output_always_feasible((inst, eps) in arb_instance()) {
        let run = bounded_ufp(&inst, &BoundedUfpConfig::with_epsilon(eps));
        prop_assert!(run.solution.check_feasible(&inst, false).is_ok());
    }

    #[test]
    fn alg_below_exact_below_lp((inst, eps) in arb_instance()) {
        let run = bounded_ufp(&inst, &BoundedUfpConfig::with_epsilon(eps));
        let alg = run.solution.value(&inst);
        let exact = exact_optimum(&inst, &ExactConfig::default());
        prop_assert!(alg <= exact.value + 1e-9,
            "ALG {alg} above integral optimum {}", exact.value);
        let lp = solve_ufp_lp_exact(inst.graph(), &inst.to_commodities());
        prop_assert!(exact.value <= lp.objective + 1e-7,
            "integral {} above fractional {}", exact.value, lp.objective);
        if let Some(bound) = run.dual_upper_bound() {
            prop_assert!(bound >= lp.objective - 1e-6,
                "claim 3.6 bound {bound} below LP {}", lp.objective);
        }
    }

    #[test]
    fn deterministic_and_parallel_consistent((inst, eps) in arb_instance()) {
        let cfg = BoundedUfpConfig::with_epsilon(eps);
        let a = bounded_ufp(&inst, &cfg);
        let b = bounded_ufp(&inst, &cfg);
        // Runs on pool workers, as pricing passes and shard runs
        // execute, are the caller-thread run.
        let on_pool = Pool::new(2).map(&[(), ()], |_, _| bounded_ufp(&inst, &cfg));
        let ids = |r: &ufp_core::UfpRunResult| -> Vec<u32> {
            r.solution.routed.iter().map(|(id, _)| id.0).collect()
        };
        prop_assert_eq!(ids(&a), ids(&b));
        for c in &on_pool {
            prop_assert_eq!(ids(&a), ids(c));
        }
    }

    #[test]
    fn monotone_under_random_boosts((inst, eps) in arb_instance()) {
        let cfg = BoundedUfpConfig::with_epsilon(eps);
        let base = bounded_ufp(&inst, &cfg);
        for rid in inst.request_ids() {
            if !base.solution.contains(rid) {
                continue;
            }
            let r = inst.request(rid);
            // Raise value and lower demand simultaneously — the exact
            // direction Definition 2.1 quantifies over.
            let probe = inst.with_declared_type(rid, r.demand * 0.7, r.value * 2.5);
            let run = bounded_ufp(&probe, &cfg);
            prop_assert!(run.solution.contains(rid),
                "winner {rid} evicted by an improved declaration");
        }
    }

    /// The guard `D₁ ≤ e^{ε(B−1)}` alone keeps every usable edge at
    /// least `c_e/B` free before each selection: `c_e·y_e ≤ D₁` gives
    /// `ε·B·load_e/c_e ≤ ε(B−1)`, i.e. `load_e ≤ c_e(B−1)/B`. One-shot
    /// runs, and epoch runs with carry, dead links and routable masks.
    #[test]
    fn guard_leaves_every_usable_edge_headroom(
        (inst, eps) in arb_contended_instance(),
        seed in any::<u64>(),
    ) {
        let graph_caps: Vec<f64> = inst.graph().edges().iter().map(|e| e.capacity).collect();
        check_guard_headroom(&inst, eps, None, &graph_caps, &vec![true; graph_caps.len()])?;
        let (caps, usable, carry, routable) = random_context(&inst, seed);
        let ctx = EpochContext {
            capacities: &caps,
            usable: &usable,
            carry: &carry,
            routable: routable.as_deref(),
        };
        check_guard_headroom(&inst, eps, Some(&ctx), &caps, &usable)?;
    }

    #[test]
    fn engine_never_beats_exact((inst, _eps) in arb_instance()) {
        let run = iterative_path_minimizer(&inst, &PrimalDualScore, &EngineConfig::default());
        prop_assert!(run.solution.check_feasible(&inst, false).is_ok());
        let exact = exact_optimum(&inst, &ExactConfig::default());
        prop_assert!(run.solution.value(&inst) <= exact.value + 1e-9);
    }

    #[test]
    fn engine_output_is_maximal((inst, _eps) in arb_instance()) {
        // The reasonable family routes "until it cannot route more":
        // afterwards no unselected request may have a residual path.
        let run = iterative_path_minimizer(&inst, &PrimalDualScore, &EngineConfig::default());
        let loads = run.solution.edge_loads(&inst);
        for rid in inst.request_ids() {
            if run.solution.contains(rid) {
                continue;
            }
            let req = inst.request(rid);
            let paths = ufp_netgraph::enumerate::simple_paths(
                inst.graph(), req.src, req.dst, usize::MAX, 10_000,
                |e| inst.graph().capacity(e) - loads[e.index()] >= req.demand - 1e-9,
            );
            prop_assert!(paths.is_empty(),
                "engine stopped while {rid} still had a feasible path");
        }
    }
}

/// The identity the paper states in §3.3: Algorithm 1 minimizes
/// `h(p) = (d/v)·Σ (1/c_e)·e^{εB f_e/c_e}`. We replay a Bounded-UFP run
/// and check that, at every iteration, the selected request's normalized
/// weight equals `h` evaluated on the flow state the run had built.
#[test]
fn algorithm1_minimizes_the_paper_h_function() {
    let mut gb = ufp_netgraph::graph::GraphBuilder::directed(4);
    gb.add_edge(NodeId(0), NodeId(1), 6.0);
    gb.add_edge(NodeId(1), NodeId(3), 6.0);
    gb.add_edge(NodeId(0), NodeId(2), 6.0);
    gb.add_edge(NodeId(2), NodeId(3), 6.0);
    let inst = UfpInstance::new(
        gb.build(),
        (0..8)
            .map(|i| Request::new(NodeId(0), NodeId(3), 1.0, 1.0 + 0.3 * i as f64))
            .collect(),
    );
    let eps = 0.5;
    let run = bounded_ufp(&inst, &BoundedUfpConfig::with_epsilon(eps));

    // Replay: rebuild flow state step by step and verify each selected
    // path's h-score matches exp(ln_alpha) from the trace.
    let b = inst.graph().min_capacity();
    let mut flow = vec![0.0f64; inst.graph().num_edges()];
    for (record, (rid, path)) in run.trace.records.iter().zip(&run.solution.routed) {
        assert_eq!(record.selected, *rid);
        let req = inst.request(*rid);
        let ctx = ufp_core::ScoreCtx {
            graph: inst.graph(),
            flow: &flow,
            epsilon: eps,
            b,
        };
        let h = PrimalDualScore.score(&ctx, req, path);
        let alpha = record.ln_alpha.exp();
        assert!(
            (h - alpha).abs() <= 1e-9 * h.max(1.0),
            "h(p) = {h} but trace alpha = {alpha}"
        );
        for e in path.edges() {
            flow[e.index()] += req.demand;
        }
    }
}

// Needed by the identity test above.
use ufp_core::reasonable::PathScore;
