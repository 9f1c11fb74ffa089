//! Selection benches: the incremental (dirty-set) selection loop vs the
//! full per-iteration fan-out, and the Dijkstra queries underneath them.
//!
//! * `selection_strategy/*` — one Bounded-UFP epoch at growing request
//!   counts under both [`SelectionStrategy`] variants. The outputs are
//!   bit-identical (asserted here on the side); only wall time differs.
//!   The headline trajectory at 10³/10⁴/10⁵-request epochs lives in
//!   `BENCH_PR4.json` (regenerate with `scripts/bench_pr4.sh`).
//! * `dijkstra_heap/*` — full shortest-path trees and targeted
//!   early-exit queries on the indexed 4-ary decrease-key heap.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ufp_core::{bounded_ufp, BoundedUfpConfig, SelectionStrategy};
use ufp_netgraph::dijkstra::{Dijkstra, Targets};
use ufp_netgraph::generators;
use ufp_netgraph::ids::NodeId;
use ufp_workloads::{random_ufp, RandomUfpConfig};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// One epoch allocation, incremental vs fan-out, vs request count.
fn selection_strategy(c: &mut Criterion) {
    let mut group = c.benchmark_group("selection_strategy");
    group.sample_size(10);
    for &requests in &[200usize, 1000, 4000] {
        let inst = random_ufp(&RandomUfpConfig {
            nodes: 200,
            edges: 1200,
            requests,
            epsilon_target: 0.4,
            seed: 17,
            ..Default::default()
        });
        for (label, strategy) in [
            ("fanout", SelectionStrategy::FanOut),
            ("incremental", SelectionStrategy::Incremental),
        ] {
            let cfg = BoundedUfpConfig::with_epsilon(0.4).with_selection(strategy);
            group.bench_with_input(BenchmarkId::new(label, requests), &inst, |b, inst| {
                b.iter(|| black_box(bounded_ufp(inst, &cfg)))
            });
        }
        // Side assertion (outside timing): strategies agree on this input.
        let fan = bounded_ufp(
            &inst,
            &BoundedUfpConfig::with_epsilon(0.4).with_selection(SelectionStrategy::FanOut),
        );
        let inc = bounded_ufp(
            &inst,
            &BoundedUfpConfig::with_epsilon(0.4).with_selection(SelectionStrategy::Incremental),
        );
        assert_eq!(fan.solution.routed.len(), inc.solution.routed.len());
        for (a, b) in fan.solution.routed.iter().zip(&inc.solution.routed) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.nodes(), b.1.nodes());
        }
    }
    group.finish();
}

/// Full-tree and targeted Dijkstra queries.
fn dijkstra_heap(c: &mut Criterion) {
    let mut group = c.benchmark_group("dijkstra_heap");
    group.sample_size(10);
    for &(nodes, edges) in &[(500usize, 4000usize), (2000, 20000)] {
        let mut rng = StdRng::seed_from_u64(5);
        let graph = generators::gnm_digraph(nodes, edges, (10.0, 20.0), &mut rng);
        let weights: Vec<f64> = (0..graph.num_edges())
            .map(|i| 0.05 + ((i * 37) % 97) as f64 / 50.0)
            .collect();
        // Full shortest-path trees (the grouped fan-out pattern).
        group.bench_with_input(
            BenchmarkId::new("tree", format!("{nodes}n_{edges}e")),
            &graph,
            |b, graph| {
                let mut dij = Dijkstra::new(graph.num_nodes());
                let mut src = 0u32;
                b.iter(|| {
                    dij.run(
                        graph,
                        &weights,
                        NodeId(src % nodes as u32),
                        Targets::All,
                        |_| true,
                    );
                    src = src.wrapping_add(1);
                    black_box(dij.distance(NodeId((nodes - 1) as u32)))
                })
            },
        );
        // Targeted early-exit queries (the lazy-refresh / winner
        // re-derivation pattern).
        group.bench_with_input(
            BenchmarkId::new("one", format!("{nodes}n_{edges}e")),
            &graph,
            |b, graph| {
                let mut dij = Dijkstra::new(graph.num_nodes());
                let mut q = 0u32;
                b.iter(|| {
                    let s = NodeId(q.wrapping_mul(7919) % nodes as u32);
                    let t = NodeId((q.wrapping_mul(104729) + 1) % nodes as u32);
                    dij.run(graph, &weights, s, Targets::One(t), |_| true);
                    q = q.wrapping_add(1);
                    black_box(dij.distance(t))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, selection_strategy, dijkstra_heap);
criterion_main!(benches);
