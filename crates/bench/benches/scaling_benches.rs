//! Scaling and substrate benches (experiment E9's timing companion):
//! Bounded-UFP vs request count, the Dijkstra hot path,
//! the LP substrate, and critical-value payment computation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ufp_core::{bounded_ufp, BoundedUfpConfig};
use ufp_engine::{Engine, EngineConfig, EventLevel};
use ufp_lp::{solve_fractional_ufp, solve_ufp_lp_exact};
use ufp_mechanism::{critical_value, PaymentConfig, SingleParamAllocator, UfpAllocator};
use ufp_netgraph::dijkstra::Dijkstra;
use ufp_netgraph::generators;
use ufp_netgraph::ids::NodeId;
use ufp_workloads::arrivals::{arrival_trace, ArrivalProcess, ArrivalTraceConfig};
use ufp_workloads::{random_ufp, required_b, RandomUfpConfig};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Bounded-UFP wall time vs |R|.
fn scaling_requests(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_requests");
    group.sample_size(10);
    for &requests in &[100usize, 200, 400] {
        let inst = random_ufp(&RandomUfpConfig {
            nodes: 60,
            edges: 400,
            requests,
            epsilon_target: 0.3,
            seed: 17,
            ..Default::default()
        });
        let cfg = BoundedUfpConfig::with_epsilon(0.3);
        group.bench_with_input(BenchmarkId::from_parameter(requests), &inst, |b, inst| {
            b.iter(|| black_box(bounded_ufp(inst, &cfg)))
        });
    }
    group.finish();
}

/// The Dijkstra hot path in isolation (workspace reuse).
fn dijkstra_hot_path(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let g = generators::gnm_digraph(200, 2000, (1.0, 2.0), &mut rng);
    let weights: Vec<f64> = (0..g.num_edges()).map(|i| 1.0 + (i % 13) as f64).collect();
    let mut dij = Dijkstra::new(g.num_nodes());
    c.bench_function("dijkstra_200n_2000m", |b| {
        b.iter(|| {
            let r = dij.shortest_path(&g, &weights, NodeId(0), NodeId(199), |_| true);
            black_box(r)
        })
    });
}

/// LP substrate: exact simplex vs Garg–Könemann on the same instance.
fn lp_substrate(c: &mut Criterion) {
    let inst = random_ufp(&RandomUfpConfig {
        nodes: 8,
        edges: 24,
        requests: 8,
        epsilon_target: 0.5,
        seed: 3,
        ..Default::default()
    });
    let commodities = inst.to_commodities();
    let mut group = c.benchmark_group("lp_substrate");
    group.sample_size(10);
    group.bench_function("simplex_exact", |b| {
        b.iter(|| black_box(solve_ufp_lp_exact(inst.graph(), &commodities)))
    });
    group.bench_function("garg_konemann", |b| {
        b.iter(|| {
            black_box(solve_fractional_ufp(
                inst.graph(),
                &commodities,
                0.1,
                50_000,
            ))
        })
    });
    group.finish();
}

/// Critical-value payment for one winner (bisection cost).
fn payment_bisection(c: &mut Criterion) {
    let inst = random_ufp(&RandomUfpConfig {
        nodes: 10,
        edges: 40,
        requests: 15,
        epsilon_target: 0.4,
        hotspot_pairs: Some(2),
        seed: 44,
        ..Default::default()
    });
    let alloc = UfpAllocator {
        config: BoundedUfpConfig::with_epsilon(0.4),
    };
    let selected = alloc.selected(&inst);
    let winner = (0..inst.num_requests())
        .find(|&a| selected[a])
        .expect("some winner");
    let cfg = PaymentConfig::default();
    c.bench_function("payment_bisection", |b| {
        b.iter(|| black_box(critical_value(&alloc, &inst, winner, &cfg)))
    });
}

/// Engine throughput: requests/sec vs batch size at fixed graph size.
/// The same 2048-request stream is replayed with different chop points,
/// so this measures pure batching overhead + per-epoch allocator cost —
/// the perf trajectory future engine PRs are judged against.
fn engine_throughput(c: &mut Criterion) {
    let epsilon = 0.5;
    let (nodes, edges) = (200usize, 1000usize);
    let b = required_b(edges, epsilon).ceil();
    let graph = generators::gnm_digraph(nodes, edges, (b, 2.0 * b), &mut StdRng::seed_from_u64(23));
    let trace = arrival_trace(
        &graph,
        &ArrivalTraceConfig {
            epochs: 1,
            process: ArrivalProcess::Poisson { mean: 2048.0 },
            hotspot_pairs: Some(16),
            seed: 23,
            ..Default::default()
        },
    );
    let stream = &trace[0];
    // One shared graph across every benched engine — engine construction
    // is an Arc bump, not a CSR copy, matching production use.
    let shared = std::sync::Arc::new(graph);
    let mut group = c.benchmark_group("engine_throughput");
    group.sample_size(10);
    for &batch_size in &[64usize, 256, 1024] {
        group.bench_with_input(
            BenchmarkId::from_parameter(batch_size),
            &batch_size,
            |bench, &batch_size| {
                bench.iter(|| {
                    let config = EngineConfig {
                        events: EventLevel::Epoch,
                        ..EngineConfig::with_epsilon(epsilon)
                    };
                    let mut engine = Engine::from_shared(std::sync::Arc::clone(&shared), config);
                    for batch in stream.chunks(batch_size) {
                        black_box(engine.submit_batch(batch));
                    }
                    black_box(engine.metrics().accepted)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    scaling,
    scaling_requests,
    dijkstra_hot_path,
    lp_substrate,
    payment_bisection,
    engine_throughput
);
criterion_main!(scaling);
