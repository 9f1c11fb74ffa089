//! PR 4's load-bearing contract: the incremental selection loop and the
//! paper-literal fan-out (kept only as this reference, behind
//! [`BoundedUfpConfig::fan_out_reference`]) are **bit-identical** in
//! every observable output — selections, paths, `IterationRecord`s
//! (every float compared by bits), stop reasons, carried dual exponents,
//! resume traces, checkpoints, and exact critical values — across random
//! graphs, epoch contexts (masked edges, scaled capacities, carried
//! weights), and weight re-centering. Everything PR 2 (prefix-resumed
//! payments) and PR 3 (snapshots) built on the fan-out loop must keep
//! working unchanged on top of the incremental one.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use ufp_core::{
    bounded_ufp, bounded_ufp_epoch, bounded_ufp_epoch_resume, bounded_ufp_epoch_traced,
    critical_value_exact, BoundedUfpConfig, EpochContext, EpochOutcome, EpochResumeTrace, Request,
    UfpInstance,
};
use ufp_netgraph::generators;
use ufp_netgraph::graph::GraphBuilder;
use ufp_netgraph::ids::NodeId;
use ufp_obs::{Phase, Recorder};

/// Random instance with enough request mass that paths collide: a few
/// hotspot pairs concentrate traffic (the dirty-storm case) on top of
/// background pairs (the sparse-dirty case).
fn arb_instance() -> impl Strategy<Value = (UfpInstance, f64)> {
    (4usize..10, 4usize..40, 2usize..36, any::<u64>(), 1usize..10).prop_map(
        |(n, extra_edges, requests, seed, eps_decile)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let max_edges = n * (n - 1);
            let m = (extra_edges % max_edges).max(2).min(max_edges);
            let cap = 3.0 + (seed % 17) as f64;
            let graph = generators::gnm_digraph(n, m, (cap, cap * 2.0), &mut rng);
            let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
            let mut attempts = 0;
            while pairs.len() < 3 && attempts < 400 {
                attempts += 1;
                let src = NodeId(rng.random_range(0..n as u32));
                let dst = NodeId(rng.random_range(0..n as u32));
                if src != dst && ufp_netgraph::bfs::is_reachable(&graph, src, dst) {
                    pairs.push((src, dst));
                }
            }
            let mut reqs = Vec::new();
            if !pairs.is_empty() {
                for i in 0..requests {
                    // Two thirds hotspot traffic, one third background.
                    let (src, dst) = pairs[if i % 3 == 2 {
                        rng.random_range(0..pairs.len())
                    } else {
                        0
                    }];
                    let demand = rng.random_range(0.1..=1.0);
                    let value = rng.random_range(0.1..=4.0);
                    reqs.push(Request::new(src, dst, demand, value));
                }
            }
            let eps = eps_decile as f64 / 10.0;
            (UfpInstance::new(graph, reqs), eps)
        },
    )
}

/// Demand and value grids for the tie-heavy generator: many
/// demand/value pairs share a density (0.5/1.0 = 0.25/0.5 = 0.75/1.5 …),
/// so equal densities inside a route class are the common case.
const DEMAND_GRID: [f64; 4] = [0.25, 0.5, 0.75, 1.0];
const VALUE_GRID: [f64; 5] = [0.5, 1.0, 1.5, 2.0, 3.0];

fn grid_request(rng: &mut StdRng, src: NodeId, dst: NodeId, demands: &[f64]) -> Request {
    let demand = demands[rng.random_range(0..demands.len())];
    let value = VALUE_GRID[rng.random_range(0..VALUE_GRID.len())];
    Request::new(src, dst, demand, value)
}

/// Tie-heavy instance: one uniform capacity, so routes with equal hop
/// counts weigh exactly the same and equal densities score exactly the
/// same across route classes; 2–5 reachable `(src, dst)` pairs with 3–7
/// requests each on the demand/value grids; ids shuffled so every class
/// holds scattered ids.
fn arb_tied_instance() -> impl Strategy<Value = (UfpInstance, f64)> {
    (4usize..9, 6usize..30, 2usize..6, any::<u64>(), 1usize..10).prop_map(
        |(n, edges, num_pairs, seed, eps_decile)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = edges.min(n * (n - 1));
            let cap = [3.0, 4.0, 6.0][(seed % 3) as usize];
            let graph = generators::gnm_digraph(n, m, (cap, cap), &mut rng);
            let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
            for _ in 0..400 {
                if pairs.len() == num_pairs {
                    break;
                }
                let src = NodeId(rng.random_range(0..n as u32));
                let dst = NodeId(rng.random_range(0..n as u32));
                if src != dst
                    && !pairs.contains(&(src, dst))
                    && ufp_netgraph::bfs::is_reachable(&graph, src, dst)
                {
                    pairs.push((src, dst));
                }
            }
            let mut reqs = Vec::new();
            for &(src, dst) in &pairs {
                for _ in 0..rng.random_range(3..8) {
                    reqs.push(grid_request(&mut rng, src, dst, &DEMAND_GRID));
                }
            }
            reqs.shuffle(&mut rng);
            (UfpInstance::new(graph, reqs), eps_decile as f64 / 10.0)
        },
    )
}

/// Distinct-pair instance: every request has its own `(src, dst)`, so
/// every route class is a single request and every pricing pass holds
/// its winner as a phantom-only class. Capacities are small enough that
/// most runs guard-stop.
fn arb_distinct_pair_instance() -> impl Strategy<Value = (UfpInstance, f64)> {
    (5usize..10, 8usize..40, 3usize..30, any::<u64>(), 1usize..10).prop_map(
        |(n, edges, requests, seed, eps_decile)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = edges.min(n * (n - 1));
            let cap = 2.0 + (seed % 5) as f64;
            let graph = generators::gnm_digraph(n, m, (cap, cap * 1.5), &mut rng);
            let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
            for _ in 0..400 {
                if pairs.len() == requests {
                    break;
                }
                let src = NodeId(rng.random_range(0..n as u32));
                let dst = NodeId(rng.random_range(0..n as u32));
                if src != dst && !pairs.contains(&(src, dst)) {
                    pairs.push((src, dst));
                }
            }
            let reqs = pairs
                .into_iter()
                .map(|(src, dst)| {
                    let demand = rng.random_range(0.2..=1.0);
                    Request::new(src, dst, demand, rng.random_range(0.1..=4.0))
                })
                .collect();
            (UfpInstance::new(graph, reqs), eps_decile as f64 / 10.0)
        },
    )
}

/// `trace`'s steps pushed one by one into a fresh trace, the way a
/// sharded merge assembles one: the same steps without the selector
/// log, so its pricing passes start cold.
fn without_log(full: &EpochOutcome, trace: &EpochResumeTrace) -> EpochResumeTrace {
    let mut cold = EpochResumeTrace::default();
    for (i, rec) in full.run.trace.records.iter().enumerate() {
        let s = trace.step(i);
        cold.push_step(
            s.selected,
            s.ln_alpha,
            s.raw_score,
            rec.ln_d1,
            rec.routed_value_before,
            s.path.clone(),
            s.bumps.to_vec(),
        );
    }
    cold
}

/// The exact critical value of every winner in `steps`, priced from an
/// incrementally recorded trace whose passes seed their selectors from
/// its log, must equal the cold pass over the same steps and the fan-out
/// reference's, bit for bit.
fn assert_seeded_pricing_exact(
    inst: &UfpInstance,
    eps: f64,
    ctx: Option<&EpochContext<'_>>,
    steps: impl Fn(&EpochResumeTrace) -> Vec<usize>,
) {
    let (inc_cfg, fan_cfg) = (incremental(eps), fan_out(eps));
    let (full, seeded) = bounded_ufp_epoch_traced(inst, &inc_cfg, ctx);
    let cold = without_log(&full, &seeded);
    for k in steps(&seeded) {
        let warm = critical_value_exact(inst, &inc_cfg, ctx, &seeded, k);
        let from_cold = critical_value_exact(inst, &inc_cfg, ctx, &cold, k);
        let reference = critical_value_exact(inst, &fan_cfg, ctx, &seeded, k);
        assert_eq!(
            warm.to_bits(),
            from_cold.to_bits(),
            "step {k}: {warm} vs cold {from_cold}"
        );
        assert_eq!(
            warm.to_bits(),
            reference.to_bits(),
            "step {k}: {warm} vs fan-out {reference}"
        );
    }
}

fn every_step(trace: &EpochResumeTrace) -> Vec<usize> {
    (0..trace.num_steps()).collect()
}

/// Fan-out and incremental runs of one traced epoch at `eps` must agree
/// bit for bit, and so must the exact critical value of every winner in
/// `steps` (priced against the fan-out's trace).
fn assert_loops_agree(
    inst: &UfpInstance,
    eps: f64,
    ctx: Option<&EpochContext<'_>>,
    steps: impl Fn(&EpochResumeTrace) -> Vec<usize>,
) -> EpochOutcome {
    let (fan_cfg, inc_cfg) = (&fan_out(eps), &incremental(eps));
    let (fan, trace) = bounded_ufp_epoch_traced(inst, fan_cfg, ctx);
    let (inc, inc_trace) = bounded_ufp_epoch_traced(inst, inc_cfg, ctx);
    assert_outcomes_bit_identical(&fan, &inc);
    assert_eq!(trace.num_steps(), inc_trace.num_steps());
    for k in steps(&trace) {
        let f = critical_value_exact(inst, fan_cfg, ctx, &trace, k);
        let i = critical_value_exact(inst, inc_cfg, ctx, &trace, k);
        assert_eq!(f.to_bits(), i.to_bits(), "step {k} priced {f} vs {i}");
    }
    fan
}

/// The production configuration: the incremental loop.
fn incremental(eps: f64) -> BoundedUfpConfig {
    BoundedUfpConfig::with_epsilon(eps)
}

/// The fan-out reference at the same ε.
fn fan_out(eps: f64) -> BoundedUfpConfig {
    incremental(eps).fan_out_reference()
}

/// Bit-level equality of two epoch outcomes.
fn assert_outcomes_bit_identical(a: &EpochOutcome, b: &EpochOutcome) {
    assert_eq!(
        a.run.solution.routed.len(),
        b.run.solution.routed.len(),
        "selection counts diverged"
    );
    for (x, y) in a.run.solution.routed.iter().zip(&b.run.solution.routed) {
        assert_eq!(x.0, y.0, "selection order diverged");
        assert_eq!(x.1.nodes(), y.1.nodes(), "paths diverged");
        assert_eq!(x.1.edges(), y.1.edges(), "path edges diverged");
    }
    assert_eq!(a.run.trace.stop_reason, b.run.trace.stop_reason);
    assert_eq!(a.run.trace.records.len(), b.run.trace.records.len());
    for (x, y) in a.run.trace.records.iter().zip(&b.run.trace.records) {
        assert_eq!(x.selected, y.selected);
        assert_eq!(x.ln_alpha.to_bits(), y.ln_alpha.to_bits(), "ln_alpha bits");
        assert_eq!(x.ln_d1.to_bits(), y.ln_d1.to_bits(), "ln_d1 bits");
        assert_eq!(
            x.routed_value_before.to_bits(),
            y.routed_value_before.to_bits()
        );
    }
    assert_eq!(a.carry.len(), b.carry.len());
    for (x, y) in a.carry.iter().zip(&b.carry) {
        assert_eq!(x.to_bits(), y.to_bits(), "carry diverged");
    }
}

/// A context exercising masks, scaled capacities, and carried weights,
/// derived deterministically from the seed.
fn context_vectors(inst: &UfpInstance, seed: u64) -> (Vec<f64>, Vec<bool>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
    let caps: Vec<f64> = inst
        .graph()
        .edges()
        .iter()
        .map(|e| e.capacity * rng.random_range(0.5..=1.0))
        .collect();
    // Mask a minority of edges so paths still exist often.
    let usable: Vec<bool> = (0..caps.len())
        .map(|_| rng.random_range(0..5u32) != 0)
        .collect();
    let carry: Vec<f64> = (0..caps.len())
        .map(|_| rng.random_range(0.0..0.8))
        .collect();
    (caps, usable, carry)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn one_shot_runs_bit_identical((inst, eps) in arb_instance()) {
        let fan = bounded_ufp_epoch(&inst, &fan_out(eps), None);
        assert_outcomes_bit_identical(&fan, &bounded_ufp_epoch(&inst, &incremental(eps), None));
    }

    #[test]
    fn epoch_context_runs_bit_identical((inst, eps) in arb_instance(), seed in any::<u64>()) {
        let (caps, usable, carry) = context_vectors(&inst, seed);
        let ctx = EpochContext { capacities: &caps, usable: &usable, carry: &carry,
            routable: None,
        };
        let fan = bounded_ufp_epoch(&inst, &fan_out(eps), Some(&ctx));
        let inc = bounded_ufp_epoch(&inst, &incremental(eps), Some(&ctx));
        assert_outcomes_bit_identical(&fan, &inc);
    }

    #[test]
    fn traces_and_resumes_cross_strategies((inst, eps) in arb_instance(), seed in any::<u64>()) {
        // A trace recorded under one loop must checkpoint and resume
        // bit-identically under the other — this is what lets PR 2's
        // resumed payments and PR 3's snapshots run unchanged on top.
        let (fan_cfg, inc_cfg) = (fan_out(eps), incremental(eps));
        let (fan_full, fan_trace) = bounded_ufp_epoch_traced(&inst, &fan_cfg, None);
        let (inc_full, inc_trace) = bounded_ufp_epoch_traced(&inst, &inc_cfg, None);
        assert_outcomes_bit_identical(&fan_full, &inc_full);
        prop_assert_eq!(fan_trace.num_steps(), inc_trace.num_steps());
        if fan_trace.num_steps() > 0 {
            let prefix = (seed as usize) % (fan_trace.num_steps() + 1);
            // Fan-out-recorded trace, resumed incrementally...
            let ckpt = fan_trace.checkpoint(&inst, &inc_cfg, None, prefix);
            let resumed = bounded_ufp_epoch_resume(&inst, &inc_cfg, None, ckpt);
            assert_outcomes_bit_identical(&fan_full, &resumed);
            // ...and the other way around.
            let ckpt = inc_trace.checkpoint(&inst, &fan_cfg, None, prefix);
            let resumed = bounded_ufp_epoch_resume(&inst, &fan_cfg, None, ckpt);
            assert_outcomes_bit_identical(&fan_full, &resumed);
        }
    }

    #[test]
    fn exact_payments_agree_across_strategies(
        (inst, eps) in arb_instance(),
        seed in any::<u64>(),
    ) {
        // The exact critical-value pass resumes each winner's selection
        // step with the winner masked out and shadows it through either
        // loop body: payments must match bit for bit across the loops,
        // one-shot and under an epoch context.
        let (caps, usable, carry) = context_vectors(&inst, seed);
        let ctx = EpochContext { capacities: &caps, usable: &usable, carry: &carry,
            routable: None,
        };
        let (fan_cfg, inc_cfg) = (fan_out(eps), incremental(eps));
        for ctx in [None, Some(&ctx)] {
            let (_, trace) = bounded_ufp_epoch_traced(&inst, &fan_cfg, ctx);
            for k in 0..trace.num_steps() {
                let fan = critical_value_exact(&inst, &fan_cfg, ctx, &trace, k);
                let inc = critical_value_exact(&inst, &inc_cfg, ctx, &trace, k);
                prop_assert_eq!(fan.to_bits(), inc.to_bits(),
                    "step {} priced {} vs {}", k, fan, inc);
                prop_assert!((0.0..=inst.request(trace.step(k).selected).value).contains(&inc));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tie_heavy_runs_and_payments_bit_identical(
        (inst, eps) in arb_tied_instance(),
        seed in any::<u64>(),
    ) {
        // Equal densities inside classes and equal scores across them:
        // every argmin is decided by the id tie-break, which the route
        // classes' representatives must reproduce exactly — one-shot and
        // under an epoch context whose grids keep the ties alive.
        let mut rng = StdRng::seed_from_u64(seed);
        let caps: Vec<f64> = inst
            .graph()
            .edges()
            .iter()
            .map(|e| e.capacity * [0.5, 1.0][rng.random_range(0..2)])
            .collect();
        let usable: Vec<bool> = (0..caps.len())
            .map(|_| rng.random_range(0..6u32) != 0)
            .collect();
        let carry: Vec<f64> = (0..caps.len())
            .map(|_| [0.0, 0.5][rng.random_range(0..2)])
            .collect();
        let ctx = EpochContext { capacities: &caps, usable: &usable, carry: &carry,
            routable: None,
        };
        for ctx in [None, Some(&ctx)] {
            let every = |t: &EpochResumeTrace| (0..t.num_steps()).collect();
            assert_loops_agree(&inst, eps, ctx, every);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn seeded_pricing_passes_equal_cold_ones_on_tied_instances(
        (inst, eps) in arb_tied_instance(),
        seed in any::<u64>(),
    ) {
        let (caps, usable, carry) = context_vectors(&inst, seed);
        let ctx = EpochContext { capacities: &caps, usable: &usable, carry: &carry,
            routable: None,
        };
        for ctx in [None, Some(&ctx)] {
            assert_seeded_pricing_exact(&inst, eps, ctx, every_step);
        }
    }

    #[test]
    fn seeded_pricing_passes_equal_cold_ones_on_distinct_pairs(
        (inst, eps) in arb_distinct_pair_instance(),
        seed in any::<u64>(),
    ) {
        let (caps, usable, carry) = context_vectors(&inst, seed);
        let ctx = EpochContext { capacities: &caps, usable: &usable, carry: &carry,
            routable: None,
        };
        for ctx in [None, Some(&ctx)] {
            assert_seeded_pricing_exact(&inst, eps, ctx, every_step);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn tie_heavy_recenter_bit_identical(seed in any::<u64>()) {
        // Three sources funnel through one hub edge of capacity 2000 at
        // ε = 1: each selection bumps it by its demand, so ~900 grid
        // requests push its log-weight past the re-centering threshold
        // (600) mid-run, under an epoch context. Winners before the
        // re-center are priced by suffixes that cross it.
        let mut gb = GraphBuilder::directed(5);
        for src in 0..3 {
            gb.add_edge(NodeId(src), NodeId(3), 2000.0);
        }
        gb.add_edge(NodeId(3), NodeId(4), 2000.0);
        let graph = gb.build();
        let mut rng = StdRng::seed_from_u64(seed);
        let reqs: Vec<Request> = (0..900)
            .map(|_| {
                let src = NodeId(rng.random_range(0..3));
                grid_request(&mut rng, src, NodeId(4), &[0.75, 1.0])
            })
            .collect();
        let inst = UfpInstance::new(graph, reqs);
        let caps: Vec<f64> = inst.graph().edges().iter().map(|e| e.capacity).collect();
        let usable = vec![true; caps.len()];
        let carry = vec![0.0; caps.len()];
        let ctx = EpochContext { capacities: &caps, usable: &usable, carry: &carry,
            routable: None,
        };
        let sample = |t: &EpochResumeTrace| {
            let n = t.num_steps();
            vec![(seed % 97) as usize, n / 2, 2 * n / 3, n - 1]
        };
        let fan = assert_loops_agree(&inst, 1.0, Some(&ctx), sample);
        assert_seeded_pricing_exact(&inst, 1.0, Some(&ctx), sample);
        // The carry holds each edge's total log-weight growth: past 600
        // on the hub edge means the weights re-centered.
        let growth = fan.carry.iter().copied().fold(0.0, f64::max);
        prop_assert!(growth > 601.0, "no re-center (growth {})", growth);
    }
}

/// Weight re-centering rescales every materialized Dijkstra weight,
/// which invalidates the incremental cache's distance *scale*. Force
/// hundreds of recenters in one run and require bit-identity throughout.
#[test]
fn recentering_flush_preserves_bit_identity() {
    // One wide edge, capacity 2000: each selection bumps the edge by
    // ε·B·d/c = 1, so the run crosses the RECENTER_AT = 600 threshold
    // repeatedly while admitting many hundreds of requests.
    let mut gb = GraphBuilder::directed(2);
    gb.add_edge(NodeId(0), NodeId(1), 2000.0);
    let inst = UfpInstance::new(
        gb.build(),
        (0..700)
            .map(|i| Request::new(NodeId(0), NodeId(1), 1.0, 1.0 + (i % 13) as f64))
            .collect(),
    );
    let fan = bounded_ufp_epoch(&inst, &fan_out(1.0), None);
    let inc = bounded_ufp_epoch(&inst, &incremental(1.0), None);
    assert!(
        fan.run.solution.routed.len() > 600,
        "fixture must cross the recenter threshold (routed {})",
        fan.run.solution.routed.len()
    );
    assert_outcomes_bit_identical(&fan, &inc);
}

/// Ten sources funnel through one bottleneck `10 → 11` to eight sinks:
/// 80 route classes, every cached path crossing the bottleneck, so each
/// winner dirties every live class. Request `i` asks for `demand(i)`.
fn bottleneck_storm(demand: impl Fn(usize) -> f64) -> UfpInstance {
    let mut gb = GraphBuilder::directed(20);
    for s in 0..10 {
        gb.add_edge(NodeId(s), NodeId(10), 120.0);
    }
    gb.add_edge(NodeId(10), NodeId(11), 120.0);
    for t in 12..20 {
        gb.add_edge(NodeId(11), NodeId(t), 120.0);
    }
    let reqs = (0..160)
        .map(|i| {
            let (src, dst) = ((i % 10) as u32, 12 + ((i / 10) % 8) as u32);
            let value = 0.7 + ((i * 11) % 17) as f64;
            Request::new(NodeId(src), NodeId(dst), demand(i), value)
        })
        .collect();
    UfpInstance::new(gb.build(), reqs)
}

/// Eager refreshes a run made, counting the seeding one.
fn eager_refreshes(cfg: &BoundedUfpConfig) -> u64 {
    let (_, hits) = cfg.obs.phase_totals().expect("recorder on");
    hits[Phase::SelectionDirtyRefresh as usize]
}

/// The one-pair storm: 150 requests from `0` to `2` over one two-edge
/// route, ten demands. It is a single route class with many density
/// groups, so it runs the lazy path, consuming the class one member at
/// a time.
fn single_pair_storm() -> UfpInstance {
    let mut gb = GraphBuilder::directed(3);
    gb.add_edge(NodeId(0), NodeId(1), 120.0);
    gb.add_edge(NodeId(1), NodeId(2), 120.0);
    let reqs = (0..150)
        .map(|i| {
            let demand = 0.5 + 0.05 * (i % 10) as f64;
            let value = 0.7 + ((i * 11) % 17) as f64;
            Request::new(NodeId(0), NodeId(2), demand, value)
        })
        .collect();
    UfpInstance::new(gb.build(), reqs)
}

/// A two-route diamond: 120 requests from `0` to `3` over two two-edge
/// routes of capacities 40 and 45, ten demands — one route class, on
/// the lazy path.
fn two_route_diamond() -> UfpInstance {
    let mut gb = GraphBuilder::directed(4);
    gb.add_edge(NodeId(0), NodeId(1), 40.0);
    gb.add_edge(NodeId(1), NodeId(3), 40.0);
    gb.add_edge(NodeId(0), NodeId(2), 45.0);
    gb.add_edge(NodeId(2), NodeId(3), 45.0);
    let reqs = (0..120)
        .map(|i| {
            let demand = 0.3 + 0.07 * (i % 10) as f64;
            let value = 0.5 + ((i * 7) % 19) as f64;
            Request::new(NodeId(0), NodeId(3), demand, value)
        })
        .collect();
    UfpInstance::new(gb.build(), reqs)
}

/// Runs `inst` on the fan-out reference and on the incremental
/// selector and demands bit-identical outcomes; `eager` further demands the storm went eager.
fn assert_storm_bit_identical(inst: &UfpInstance, eps: f64, eager: bool) {
    let fan = bounded_ufp_epoch(inst, &fan_out(eps), None);
    let inc_cfg = incremental(eps).with_obs(Recorder::enabled());
    let inc = bounded_ufp_epoch(inst, &inc_cfg, None);
    assert!(!fan.run.solution.routed.is_empty());
    if eager {
        assert!(eager_refreshes(&inc_cfg) > 1, "storm never went eager");
    }
    assert_outcomes_bit_identical(&fan, &inc);
}

/// A dirty storm drives the selector through its eager grouped fan-out
/// refresh (the large-dirty-set path) while at least `EAGER_REFRESH_MIN`
/// classes are dirty; the one-pair storm covers the same traffic as a
/// single large class.
#[test]
fn dirty_storm_takes_the_eager_path_bit_identically() {
    let many_classes = bottleneck_storm(|i| 0.5 + 0.05 * (i % 10) as f64);
    for (inst, eager) in [(&many_classes, true), (&single_pair_storm(), false)] {
        for eps in [0.3, 0.8] {
            assert_storm_bit_identical(inst, eps, eager);
        }
    }
}

/// The storm fixtures that once ran residual-gated, now run on the one
/// search there is: a three-demand bottleneck storm through the eager
/// refresh, and the two-route diamond (one class) through the lazy one.
#[test]
fn residual_gate_dirty_storm_bit_identical() {
    let many_classes = bottleneck_storm(|i| 0.3 + 0.07 * (i % 3) as f64);
    for (inst, eager) in [(&many_classes, true), (&two_route_diamond(), false)] {
        assert_storm_bit_identical(inst, 0.6, eager);
    }
}

/// `bounded_ufp` (the public one-shot entry) runs the incremental loop —
/// only it records selection-heap spans — and the fan-out reference
/// must agree with it on the classic fixtures.
#[test]
fn default_strategy_is_incremental_and_equivalent() {
    let heap_spans = |cfg: BoundedUfpConfig, inst: &UfpInstance| {
        let cfg = cfg.with_obs(Recorder::enabled());
        bounded_ufp(inst, &cfg);
        cfg.obs.phase_totals().expect("recorder on").1[Phase::SelectionHeap as usize]
    };
    let mut gb = GraphBuilder::directed(4);
    gb.add_edge(NodeId(0), NodeId(1), 20.0);
    gb.add_edge(NodeId(1), NodeId(3), 20.0);
    gb.add_edge(NodeId(0), NodeId(2), 20.0);
    gb.add_edge(NodeId(2), NodeId(3), 20.0);
    let inst = UfpInstance::new(
        gb.build(),
        (0..30)
            .map(|i| Request::new(NodeId(0), NodeId(3), 1.0, 1.0 + (i % 5) as f64))
            .collect(),
    );
    assert!(heap_spans(BoundedUfpConfig::default(), &inst) > 0);
    assert_eq!(heap_spans(fan_out(0.5), &inst), 0);
    let default_run = bounded_ufp(&inst, &BoundedUfpConfig::with_epsilon(0.5));
    let fan_run = bounded_ufp(&inst, &fan_out(0.5));
    assert_eq!(
        default_run.solution.routed.len(),
        fan_run.solution.routed.len()
    );
    for (a, b) in default_run
        .solution
        .routed
        .iter()
        .zip(&fan_run.solution.routed)
    {
        assert_eq!(a.0, b.0);
        assert_eq!(a.1.nodes(), b.1.nodes());
    }
}

/// Seeded pricing passes start from the recorded run's answers: each
/// cold pass over the same steps opens with a full refresh of every
/// route class, which the seeded pass skips, for the same payments. The
/// storm's 80 classes keep the later refreshes eager in both.
#[test]
fn seeded_pricing_passes_skip_the_opening_refresh() {
    let inst = bottleneck_storm(|i| 0.5 + 0.05 * (i % 10) as f64);
    let (full, seeded) = bounded_ufp_epoch_traced(&inst, &incremental(0.8), None);
    let cold = without_log(&full, &seeded);
    assert!(seeded.heap_bytes() > cold.heap_bytes());
    let price_all = |trace: &EpochResumeTrace| {
        let cfg = incremental(0.8).with_obs(Recorder::enabled());
        let paid: Vec<u64> = (0..trace.num_steps())
            .map(|k| critical_value_exact(&inst, &cfg, None, trace, k).to_bits())
            .collect();
        (paid, eager_refreshes(&cfg))
    };
    let (warm_paid, warm_eager) = price_all(&seeded);
    let (cold_paid, cold_eager) = price_all(&cold);
    assert_eq!(warm_paid, cold_paid);
    // Every pass selects at least once unless its winner was the last
    // request left.
    let selecting = (0..seeded.num_steps())
        .filter(|&k| k + 1 < inst.num_requests())
        .count() as u64;
    assert!(selecting > 10, "passes {selecting}");
    assert_eq!(cold_eager - warm_eager, selecting);
}
