//! Structured and random graph families.
//!
//! These are the raw topologies; `ufp-workloads` composes them with
//! requests (and with the paper's adversarial constructions).

use rand::seq::SliceRandom;
use rand::Rng;

use crate::graph::{Graph, GraphBuilder};
use crate::ids::NodeId;

/// Random simple directed graph with exactly `num_edges` distinct arcs,
/// capacities drawn uniformly from `cap_range` (use a degenerate range for
/// uniform capacities). Panics if `num_edges > n(n-1)`.
pub fn gnm_digraph<R: Rng>(
    num_nodes: usize,
    num_edges: usize,
    cap_range: (f64, f64),
    rng: &mut R,
) -> Graph {
    assert!(num_nodes >= 2, "need at least two nodes");
    let max_edges = num_nodes * (num_nodes - 1);
    assert!(
        num_edges <= max_edges,
        "requested {num_edges} arcs but only {max_edges} are possible"
    );
    let mut b = GraphBuilder::directed(num_nodes);
    if num_edges * 3 >= max_edges {
        // Dense regime: shuffle the full arc set (exact, no rejection).
        let mut all: Vec<(u32, u32)> = Vec::with_capacity(max_edges);
        for i in 0..num_nodes as u32 {
            for j in 0..num_nodes as u32 {
                if i != j {
                    all.push((i, j));
                }
            }
        }
        all.shuffle(rng);
        for &(i, j) in all.iter().take(num_edges) {
            b.add_edge(NodeId(i), NodeId(j), sample_cap(cap_range, rng));
        }
    } else {
        // Sparse regime: rejection-sample distinct arcs.
        let mut used = std::collections::HashSet::with_capacity(num_edges * 2);
        while used.len() < num_edges {
            let i = rng.random_range(0..num_nodes as u32);
            let j = rng.random_range(0..num_nodes as u32);
            if i != j && used.insert((i, j)) {
                b.add_edge(NodeId(i), NodeId(j), sample_cap(cap_range, rng));
            }
        }
    }
    b.build()
}

fn sample_cap<R: Rng>((lo, hi): (f64, f64), rng: &mut R) -> f64 {
    assert!(lo > 0.0 && hi >= lo, "capacity range must be positive");
    if hi == lo {
        lo
    } else {
        rng.random_range(lo..=hi)
    }
}

/// Community-structured random digraph: `communities` blocks of
/// `nodes_per` vertices each (community `k` owns the contiguous node-id
/// block `k·nodes_per .. (k+1)·nodes_per`), with `edges_per` random
/// intra-community arcs per block and `inter_edges` additional arcs
/// whose endpoints lie in *different* communities. Capacities are drawn
/// uniformly from `cap_range` for intra-community edges and from
/// `inter_cap_range` for the inter-community (boundary) ones.
///
/// `inter_edges = 0` yields a disconnected union of components aligned
/// with the node blocks — the topology on which a block-partitioned
/// sharded engine is provably equivalent to a single engine (no path can
/// leave its shard). Small positive `inter_edges` model the realistic
/// case: mostly-local traffic with a thin cross-shard backbone that
/// capacity leases arbitrate.
pub fn community_digraph<R: Rng>(
    communities: usize,
    nodes_per: usize,
    edges_per: usize,
    inter_edges: usize,
    cap_range: (f64, f64),
    inter_cap_range: (f64, f64),
    rng: &mut R,
) -> Graph {
    assert!(communities >= 1 && nodes_per >= 2);
    let max_intra = nodes_per * (nodes_per - 1);
    assert!(
        edges_per <= max_intra,
        "requested {edges_per} intra-community arcs but only {max_intra} are possible"
    );
    let n = communities * nodes_per;
    let mut b = GraphBuilder::directed(n);
    let mut used = std::collections::HashSet::with_capacity(communities * edges_per * 2);
    for k in 0..communities {
        let base = (k * nodes_per) as u32;
        let mut added = 0usize;
        if edges_per * 3 >= max_intra {
            // Dense block: shuffle the full intra-block arc set.
            let mut all: Vec<(u32, u32)> = Vec::with_capacity(max_intra);
            for i in 0..nodes_per as u32 {
                for j in 0..nodes_per as u32 {
                    if i != j {
                        all.push((base + i, base + j));
                    }
                }
            }
            all.shuffle(rng);
            for &(i, j) in all.iter().take(edges_per) {
                used.insert((i, j));
                b.add_edge(NodeId(i), NodeId(j), sample_cap(cap_range, rng));
            }
        } else {
            while added < edges_per {
                let i = base + rng.random_range(0..nodes_per as u32);
                let j = base + rng.random_range(0..nodes_per as u32);
                if i != j && used.insert((i, j)) {
                    b.add_edge(NodeId(i), NodeId(j), sample_cap(cap_range, rng));
                    added += 1;
                }
            }
        }
    }
    if communities >= 2 {
        let max_inter = n * (n - 1) - communities * max_intra;
        assert!(
            inter_edges <= max_inter,
            "requested {inter_edges} inter-community arcs but only {max_inter} are possible"
        );
        let mut added = 0usize;
        while added < inter_edges {
            let i = rng.random_range(0..n as u32);
            let j = rng.random_range(0..n as u32);
            let same = (i as usize) / nodes_per == (j as usize) / nodes_per;
            if i != j && !same && used.insert((i, j)) {
                b.add_edge(NodeId(i), NodeId(j), sample_cap(inter_cap_range, rng));
                added += 1;
            }
        }
    } else {
        assert_eq!(inter_edges, 0, "one community has no inter-community arcs");
    }
    b.build()
}

/// Undirected `rows × cols` grid with uniform capacity — the "ISP
/// backbone"-style topology used by the routing example and benchmarks.
pub fn grid(rows: usize, cols: usize, capacity: f64) -> Graph {
    assert!(rows >= 1 && cols >= 1 && rows * cols >= 2);
    let id = |r: usize, c: usize| NodeId((r * cols + c) as u32);
    let mut b = GraphBuilder::undirected(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(id(r, c), id(r, c + 1), capacity);
            }
            if r + 1 < rows {
                b.add_edge(id(r, c), id(r + 1, c), capacity);
            }
        }
    }
    b.build()
}

/// Directed layered DAG: `layers` columns of `width` vertices; every vertex
/// is wired to `fanout` random vertices of the next layer (without
/// duplicates). Vertex `l * width + i` is vertex `i` of layer `l`.
pub fn layered_dag<R: Rng>(
    layers: usize,
    width: usize,
    fanout: usize,
    capacity: f64,
    rng: &mut R,
) -> Graph {
    assert!(layers >= 2 && width >= 1);
    let fanout = fanout.min(width);
    let mut b = GraphBuilder::directed(layers * width);
    let mut targets: Vec<u32> = (0..width as u32).collect();
    for l in 0..layers - 1 {
        for i in 0..width {
            let src = NodeId((l * width + i) as u32);
            targets.shuffle(rng);
            for &t in targets.iter().take(fanout) {
                let dst = NodeId(((l + 1) * width) as u32 + t);
                b.add_edge(src, dst, capacity);
            }
        }
    }
    b.build()
}

/// Undirected cycle on `n ≥ 3` vertices with uniform capacity.
pub fn ring(n: usize, capacity: f64) -> Graph {
    assert!(n >= 3, "a ring needs at least 3 vertices");
    let mut b = GraphBuilder::undirected(n);
    for i in 0..n {
        b.add_edge(NodeId(i as u32), NodeId(((i + 1) % n) as u32), capacity);
    }
    b.build()
}

/// Complete directed graph on `n` vertices (both arc directions), uniform
/// capacity.
pub fn complete_digraph(n: usize, capacity: f64) -> Graph {
    assert!(n >= 2);
    let mut b = GraphBuilder::directed(n);
    for i in 0..n as u32 {
        for j in 0..n as u32 {
            if i != j {
                b.add_edge(NodeId(i), NodeId(j), capacity);
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gnm_has_exact_edge_count_sparse_and_dense() {
        let mut rng = StdRng::seed_from_u64(1);
        let sparse = gnm_digraph(50, 100, (4.0, 4.0), &mut rng);
        assert_eq!(sparse.num_edges(), 100);
        let dense = gnm_digraph(10, 80, (1.0, 2.0), &mut rng);
        assert_eq!(dense.num_edges(), 80);
        // no duplicate arcs
        let mut seen = std::collections::HashSet::new();
        for e in dense.edges() {
            assert!(seen.insert((e.src, e.dst)));
        }
    }

    #[test]
    fn gnm_capacities_in_range() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = gnm_digraph(20, 60, (3.0, 9.0), &mut rng);
        for e in g.edges() {
            assert!(e.capacity >= 3.0 && e.capacity <= 9.0);
        }
    }

    #[test]
    fn community_digraph_respects_block_structure() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = community_digraph(4, 25, 120, 10, (8.0, 16.0), (30.0, 40.0), &mut rng);
        assert_eq!(g.num_nodes(), 100);
        assert_eq!(g.num_edges(), 4 * 120 + 10);
        let mut inter = 0;
        for e in g.edges() {
            let (cs, cd) = (e.src.0 / 25, e.dst.0 / 25);
            if cs == cd {
                assert!(e.capacity >= 8.0 && e.capacity <= 16.0);
            } else {
                assert!(e.capacity >= 30.0 && e.capacity <= 40.0);
                inter += 1;
            }
        }
        assert_eq!(inter, 10);
    }

    #[test]
    fn community_digraph_zero_inter_is_component_aligned() {
        let mut rng = StdRng::seed_from_u64(10);
        let g = community_digraph(3, 20, 80, 0, (4.0, 4.0), (4.0, 4.0), &mut rng);
        for e in g.edges() {
            assert_eq!(e.src.0 / 20, e.dst.0 / 20, "no edge may cross blocks");
        }
        // No node outside block 0 is reachable from inside it.
        for d in bfs::hop_distances(&g, NodeId(3)).iter().skip(20) {
            assert_eq!(*d, usize::MAX);
        }
    }

    #[test]
    fn grid_structure() {
        let g = grid(3, 4, 5.0);
        assert_eq!(g.num_nodes(), 12);
        // edges: 3 rows * 3 horizontal + 2 * 4 vertical = 9 + 8 = 17
        assert_eq!(g.num_edges(), 17);
        assert!(bfs::is_reachable(&g, NodeId(0), NodeId(11)));
        assert_eq!(g.min_capacity(), 5.0);
    }

    #[test]
    fn layered_dag_only_moves_forward() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = layered_dag(4, 5, 3, 2.0, &mut rng);
        assert_eq!(g.num_nodes(), 20);
        assert_eq!(g.num_edges(), 3 * 5 * 3);
        for e in g.edges() {
            assert_eq!(
                e.dst.0 / 5,
                e.src.0 / 5 + 1,
                "edges cross exactly one layer"
            );
        }
    }

    #[test]
    fn ring_is_connected_cycle() {
        let g = ring(6, 1.0);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(bfs::reachable_count(&g, NodeId(0)), 6);
        assert_eq!(bfs::hop_distances(&g, NodeId(0))[3], 3);
    }

    #[test]
    fn complete_digraph_counts() {
        let g = complete_digraph(5, 1.0);
        assert_eq!(g.num_edges(), 20);
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let g1 = gnm_digraph(30, 90, (1.0, 5.0), &mut StdRng::seed_from_u64(7));
        let g2 = gnm_digraph(30, 90, (1.0, 5.0), &mut StdRng::seed_from_u64(7));
        assert_eq!(g1.num_edges(), g2.num_edges());
        for (a, b) in g1.edges().iter().zip(g2.edges()) {
            assert_eq!(a, b);
        }
    }
}
