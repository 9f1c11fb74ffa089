//! Breadth-first search utilities: reachability and hop counts.

use std::collections::VecDeque;

use crate::graph::Graph;
use crate::ids::NodeId;

/// Hop distance (number of edges) from `src` to every vertex;
/// `usize::MAX` marks unreachable vertices.
pub fn hop_distances(graph: &Graph, src: NodeId) -> Vec<usize> {
    hop_distances_within(graph, src, usize::MAX)
}

/// [`hop_distances`] that stops expanding at `radius` hops: vertices
/// farther away are marked `usize::MAX` too.
pub fn hop_distances_within(graph: &Graph, src: NodeId, radius: usize) -> Vec<usize> {
    let mut dist = vec![usize::MAX; graph.num_nodes()];
    dist[src.index()] = 0;
    let mut queue = VecDeque::with_capacity(16);
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.index()];
        if dv == radius {
            // BFS pops in nondecreasing distance: the rest are at `radius`.
            break;
        }
        for adj in graph.neighbors(v) {
            if dist[adj.to.index()] == usize::MAX {
                dist[adj.to.index()] = dv + 1;
                queue.push_back(adj.to);
            }
        }
    }
    dist
}

/// True iff `dst` is reachable from `src`.
pub fn is_reachable(graph: &Graph, src: NodeId, dst: NodeId) -> bool {
    hop_distances(graph, src)[dst.index()] != usize::MAX
}

/// Number of vertices reachable from `src` (including `src`).
pub fn reachable_count(graph: &Graph, src: NodeId) -> usize {
    hop_distances(graph, src)
        .iter()
        .filter(|&&d| d != usize::MAX)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    #[test]
    fn hop_counts_on_a_line() {
        let mut b = GraphBuilder::directed(4);
        for i in 0..3u32 {
            b.add_edge(NodeId(i), NodeId(i + 1), 1.0);
        }
        let g = b.build();
        assert_eq!(hop_distances(&g, NodeId(0)), vec![0, 1, 2, 3]);
        let far = usize::MAX;
        assert_eq!(hop_distances_within(&g, NodeId(0), 1), vec![0, 1, far, far]);
        assert_eq!(
            hop_distances_within(&g, NodeId(1), 0),
            vec![far, 0, far, far]
        );
        assert!(is_reachable(&g, NodeId(0), NodeId(3)));
        assert!(!is_reachable(&g, NodeId(3), NodeId(0)));
        assert_eq!(reachable_count(&g, NodeId(2)), 2);
    }

    #[test]
    fn undirected_reachability_is_symmetric() {
        let mut b = GraphBuilder::undirected(3);
        b.add_edge(NodeId(0), NodeId(1), 1.0);
        let g = b.build();
        assert!(is_reachable(&g, NodeId(1), NodeId(0)));
        assert!(!is_reachable(&g, NodeId(0), NodeId(2)));
    }
}
