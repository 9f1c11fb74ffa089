//! Property-based tests for the graph substrate.
//!
//! The load-bearing invariant: the optimized, workspace-reusing Dijkstra
//! must agree with the naive Bellman–Ford oracle on every graph, weight
//! assignment, and query — distances equal, and returned paths valid with
//! matching weight.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use ufp_netgraph::bellman::BellmanFord;
use ufp_netgraph::dijkstra::{Dijkstra, Targets};
use ufp_netgraph::enumerate::simple_paths;
use ufp_netgraph::generators;
use ufp_netgraph::graph::{Graph, GraphBuilder};
use ufp_netgraph::ids::NodeId;

/// Strategy: a random directed graph (adjacency by arc list) plus positive
/// weights per edge.
fn arb_digraph() -> impl Strategy<Value = (Graph, Vec<f64>)> {
    (2usize..12, 0usize..40, any::<u64>()).prop_map(|(n, extra, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let max_edges = n * (n - 1);
        let m = (extra % (max_edges + 1)).max(1).min(max_edges);
        let g = generators::gnm_digraph(n, m, (1.0, 8.0), &mut rng);
        let weights: Vec<f64> = (0..g.num_edges())
            .map(|i| ((seed.rotate_left(i as u32) % 1000) as f64) / 100.0 + 0.01)
            .collect();
        (g, weights)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dijkstra_matches_bellman_ford((g, w) in arb_digraph()) {
        let mut dij = Dijkstra::new(g.num_nodes());
        let mut buf = ufp_netgraph::path::Path::trivial(NodeId(0));
        for src in 0..g.num_nodes().min(4) {
            let src = NodeId(src as u32);
            let oracle = BellmanFord::run(&g, &w, src);
            dij.run(&g, &w, src, Targets::All, |_| true);
            for v in g.node_ids() {
                match (dij.distance(v), oracle.distance(v)) {
                    (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9,
                        "distance mismatch at {v}: dijkstra {a} vs bellman {b}"),
                    (None, None) => {}
                    (a, b) => prop_assert!(false, "reachability mismatch at {v}: {a:?} vs {b:?}"),
                }
                // The reuse API writes the same bytes as the allocating one.
                if dij.path_to_into(v, &mut buf) {
                    prop_assert_eq!(Some(buf.clone()), dij.path_to(v));
                }
            }
        }
    }

    #[test]
    fn dijkstra_paths_are_valid_and_consistent((g, w) in arb_digraph()) {
        let mut dij = Dijkstra::new(g.num_nodes());
        let src = NodeId(0);
        dij.run(&g, &w, src, Targets::All, |_| true);
        for v in g.node_ids() {
            if let Some(p) = dij.path_to(v) {
                prop_assert!(p.validate(&g).is_ok());
                prop_assert_eq!(p.source(), src);
                prop_assert_eq!(p.target(), v);
                let d = dij.distance(v).unwrap();
                prop_assert!((p.weight(&w) - d).abs() < 1e-9,
                    "path weight {} disagrees with reported distance {}", p.weight(&w), d);
            }
        }
    }

    #[test]
    fn enumeration_contains_the_shortest_path((g, w) in arb_digraph()) {
        let mut dij = Dijkstra::new(g.num_nodes());
        let (s, t) = (NodeId(0), NodeId((g.num_nodes() - 1) as u32));
        if let Some(res) = dij.shortest_path(&g, &w, s, t, |_| true) {
            let all = simple_paths(&g, s, t, usize::MAX, 100_000, |_| true);
            prop_assert!(!all.is_empty());
            // every enumerated path is valid and none is shorter than Dijkstra's
            let mut best = f64::INFINITY;
            for p in &all {
                prop_assert!(p.validate(&g).is_ok());
                best = best.min(p.weight(&w));
            }
            prop_assert!(res.distance <= best + 1e-9,
                "dijkstra {} worse than enumerated best {}", res.distance, best);
            prop_assert!(best <= res.distance + 1e-9,
                "enumeration missed the optimum: best {} vs dijkstra {}", best, res.distance);
        }
    }

    #[test]
    fn csr_round_trip_preserves_edges((g, _w) in arb_digraph()) {
        // Every edge appears in the adjacency of its source exactly once.
        let mut counts = vec![0usize; g.num_edges()];
        for v in g.node_ids() {
            for adj in g.neighbors(v) {
                prop_assert_eq!(g.edge(adj.edge).src, v);
                prop_assert_eq!(g.edge(adj.edge).dst, adj.to);
                counts[adj.edge.index()] += 1;
            }
        }
        prop_assert!(counts.iter().all(|&c| c == 1));
    }
}

#[test]
fn undirected_dijkstra_agrees_with_bellman_on_grid() {
    let g = generators::grid(5, 5, 3.0);
    let w: Vec<f64> = (0..g.num_edges()).map(|i| 1.0 + (i % 7) as f64).collect();
    let mut dij = Dijkstra::new(g.num_nodes());
    for s in [0u32, 7, 24] {
        let oracle = BellmanFord::run(&g, &w, NodeId(s));
        dij.run(&g, &w, NodeId(s), Targets::All, |_| true);
        for v in g.node_ids() {
            assert_eq!(
                dij.distance(v).is_some(),
                oracle.distance(v).is_some(),
                "reachability mismatch"
            );
            if let (Some(a), Some(b)) = (dij.distance(v), oracle.distance(v)) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }
}

#[test]
fn builder_rejects_bad_graphs() {
    let mut b = GraphBuilder::directed(3);
    b.add_edge(NodeId(0), NodeId(1), 1.0);
    let g = b.build();
    assert_eq!(g.num_edges(), 1);
    assert!(std::panic::catch_unwind(|| {
        let mut b = GraphBuilder::directed(2);
        b.add_edge(NodeId(0), NodeId(1), -1.0);
    })
    .is_err());
}
