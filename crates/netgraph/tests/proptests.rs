//! Property-based tests for the graph substrate.
//!
//! The load-bearing invariant: the optimized, workspace-reusing Dijkstra
//! must agree with the naive Bellman–Ford oracle on every graph, weight
//! assignment, and query — distances equal, and returned paths valid with
//! matching weight. The goal-directed query must agree with the plain one
//! bit for bit.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ufp_netgraph::dijkstra::{Dijkstra, Goal, Targets};
use ufp_netgraph::enumerate::simple_paths;
use ufp_netgraph::generators;
use ufp_netgraph::graph::{Graph, GraphBuilder};
use ufp_netgraph::ids::NodeId;

use bellman::BellmanFord;

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

/// One weight per edge in one of four regimes: spread, tie-heavy
/// (two values), zero-heavy, and sub-ulp (weights below half an ulp of
/// 1.0 beside weights of 1.0, so many sums round back to the same float).
fn regime_weight(regime: u32, rng: &mut StdRng) -> f64 {
    match regime {
        0 => rng.random_range(0.01..10.0),
        1 => [0.5, 1.0][rng.random_range(0..2usize)],
        2 => [0.0, 0.0, 1.0, 2.0][rng.random_range(0..4usize)],
        _ => [1.0, 1e-17, 5e-17, 0.0][rng.random_range(0..4usize)],
    }
}

/// A bounded-query case from one seed: a directed or undirected
/// multigraph, query weights, element-wise lower weights for the bounds,
/// and a random edge mask.
fn bounded_case(seed: u64) -> (Graph, Vec<f64>, Vec<f64>, Vec<bool>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(2..14usize);
    let m = rng.random_range(1..4 * n);
    let mut b = if rng.random_bool(0.5) {
        GraphBuilder::directed(n)
    } else {
        GraphBuilder::undirected(n)
    };
    let mut last = None;
    for _ in 0..m {
        // One edge in four repeats the previous endpoints (multi-edges).
        let (u, v) = match last {
            Some(pair) if rng.random_range(0..4u32) == 0 => pair,
            _ => {
                let u = rng.random_range(0..n as u32);
                let v = (u + rng.random_range(1..n as u32)) % n as u32;
                (u, v)
            }
        };
        b.add_edge(NodeId(u), NodeId(v), 1.0);
        last = Some((u, v));
    }
    let g = b.build();
    let regime = rng.random_range(0..4u32);
    let w: Vec<f64> = (0..g.num_edges())
        .map(|_| regime_weight(regime, &mut rng))
        .collect();
    let lower: Vec<f64> = w
        .iter()
        .map(|&x| match rng.random_range(0..3u32) {
            0 => x,
            1 => x * rng.random_range(0.0..1.0),
            _ => 0.0,
        })
        .collect();
    let dense = rng.random_bool(0.5);
    let mask: Vec<bool> = (0..g.num_edges())
        .map(|_| dense || rng.random_range(0..4u32) != 0)
        .collect();
    (g, w, lower, mask)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The goal-directed query returns the plain query's distance bits and
    /// path edges, with bounds from reverse trees at element-wise lower
    /// weights and an upper bound at, above, or without the distance.
    #[test]
    fn bounded_query_equals_plain(seed in any::<u64>()) {
        let (g, w, lower, mask) = bounded_case(seed);
        let usable = |e: ufp_netgraph::ids::EdgeId| mask[e.index()];
        let reversed = g.reversed();
        let mut plain = Dijkstra::new(g.num_nodes());
        let mut bounded = Dijkstra::new(g.num_nodes());
        let mut tree = Dijkstra::new(g.num_nodes());
        for dst in g.node_ids() {
            tree.run(&reversed, &lower, dst, Targets::All, usable);
            let to_target: Vec<f64> = g
                .node_ids()
                .map(|v| tree.distance(v).unwrap_or(f64::INFINITY))
                .collect();
            for src in g.node_ids() {
                plain.run(&g, &w, src, Targets::One(dst), usable);
                let exact = plain.distance(dst);
                let d = exact.unwrap_or(f64::INFINITY);
                for upper in [d, d * 1.5 + 1.0, f64::INFINITY] {
                    let goal = Goal { target: dst, to_target: &to_target, upper };
                    bounded.run_bounded(&g, &w, src, goal, usable);
                    prop_assert_eq!(
                        bounded.distance(dst).map(f64::to_bits),
                        exact.map(f64::to_bits),
                        "{} -> {} at upper {}", src, dst, upper
                    );
                    prop_assert_eq!(
                        bounded.path_to(dst).map(|p| p.edges().to_vec()),
                        plain.path_to(dst).map(|p| p.edges().to_vec()),
                        "{} -> {} at upper {}", src, dst, upper
                    );
                }
            }
        }
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

/// Bellman–Ford single-source shortest paths: a deliberately simple
/// O(n·m) oracle that Dijkstra must agree with on non-negative weights.
mod bellman {
    use ufp_netgraph::graph::{Graph, GraphBuilder};
    use ufp_netgraph::ids::{EdgeId, NodeId};
    use ufp_netgraph::path::Path;

    /// Distances and parent pointers from a single source.
    #[derive(Clone, Debug)]
    pub struct BellmanFord {
        dist: Vec<f64>,
        parent_node: Vec<Option<NodeId>>,
        parent_edge: Vec<Option<EdgeId>>,
    }

    impl BellmanFord {
        /// Run Bellman–Ford from `src`. Panics on negative cycles (cannot occur
        /// with the non-negative weights used throughout this workspace; the
        /// check documents the assumption).
        pub fn run(graph: &Graph, weights: &[f64], src: NodeId) -> Self {
            let n = graph.num_nodes();
            let mut dist = vec![f64::INFINITY; n];
            let mut parent_node = vec![None; n];
            let mut parent_edge = vec![None; n];
            dist[src.index()] = 0.0;

            // Relax via adjacency so undirected edges work in both directions.
            for round in 0..n {
                let mut changed = false;
                for v in graph.node_ids() {
                    if dist[v.index()].is_infinite() {
                        continue;
                    }
                    for adj in graph.neighbors(v) {
                        let cand = dist[v.index()] + weights[adj.edge.index()];
                        if cand < dist[adj.to.index()] - 1e-15 {
                            dist[adj.to.index()] = cand;
                            parent_node[adj.to.index()] = Some(v);
                            parent_edge[adj.to.index()] = Some(adj.edge);
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
                assert!(round + 1 < n || !changed, "negative cycle detected");
            }
            BellmanFord {
                dist,
                parent_node,
                parent_edge,
            }
        }

        /// Distance to `v`, or `None` if unreachable.
        pub fn distance(&self, v: NodeId) -> Option<f64> {
            let d = self.dist[v.index()];
            d.is_finite().then_some(d)
        }

        /// Shortest path to `v`, or `None` if unreachable.
        pub fn path_to(&self, v: NodeId) -> Option<Path> {
            if self.dist[v.index()].is_infinite() {
                return None;
            }
            let mut nodes = vec![v];
            let mut edges = Vec::new();
            let mut cur = v;
            while let Some(p) = self.parent_node[cur.index()] {
                edges.push(self.parent_edge[cur.index()].expect("parent edge set with node"));
                cur = p;
                nodes.push(cur);
            }
            nodes.reverse();
            edges.reverse();
            Some(Path::new(nodes, edges))
        }
    }

    #[test]
    fn matches_hand_computation() {
        let mut b = GraphBuilder::directed(4);
        b.add_edge(NodeId(0), NodeId(1), 1.0);
        b.add_edge(NodeId(0), NodeId(2), 1.0);
        b.add_edge(NodeId(1), NodeId(3), 1.0);
        b.add_edge(NodeId(2), NodeId(3), 1.0);
        let g = b.build();
        let w = vec![1.0, 4.0, 2.0, 0.5];
        let bf = BellmanFord::run(&g, &w, NodeId(0));
        assert_eq!(bf.distance(NodeId(3)), Some(3.0));
        let p = bf.path_to(NodeId(3)).unwrap();
        assert_eq!(p.nodes(), &[NodeId(0), NodeId(1), NodeId(3)]);
    }

    #[test]
    fn unreachable_is_none() {
        let g = GraphBuilder::directed(2).build();
        let bf = BellmanFord::run(&g, &[], NodeId(0));
        assert_eq!(bf.distance(NodeId(1)), None);
        assert!(bf.path_to(NodeId(1)).is_none());
    }

    #[test]
    fn undirected_relaxes_both_ways() {
        let mut b = GraphBuilder::undirected(3);
        b.add_edge(NodeId(1), NodeId(0), 1.0);
        b.add_edge(NodeId(1), NodeId(2), 1.0);
        let g = b.build();
        let bf = BellmanFord::run(&g, &[5.0, 7.0], NodeId(0));
        assert_eq!(bf.distance(NodeId(2)), Some(12.0));
    }
}
