//! Dijkstra shortest paths with a reusable workspace.
//!
//! Algorithm 1 of the paper performs, per iteration, one shortest-path
//! query for every still-unrouted request — this is the hot loop of the
//! whole library. The [`Dijkstra`] struct owns all scratch arrays and uses
//! an epoch-stamping scheme so that consecutive queries pay O(touched)
//! rather than O(n) reset cost, and zero allocations after warm-up.
//!
//! The priority queue is the indexed 4-ary heap of [`crate::heap`]:
//! one live entry per node, decrease-key instead of duplicate pushes,
//! no stale pops. Pending nodes are ordered by `(distance, node id)`.

use crate::graph::Graph;
use crate::heap::IndexedMinHeap;
use crate::ids::{EdgeId, NodeId};
use crate::path::Path;

/// Which vertices a query must settle before it may stop.
#[derive(Clone, Copy, Debug)]
pub enum Targets<'a> {
    /// Settle every reachable vertex (full shortest-path tree).
    All,
    /// Stop as soon as this vertex is settled.
    One(NodeId),
    /// Stop as soon as every listed vertex is settled (or exhausted).
    Set(&'a [NodeId]),
}

/// A shortest path together with its length under the query weights.
#[derive(Clone, Debug, PartialEq)]
pub struct ShortestPathResult {
    /// `Σ_{e∈p} w_e` — the paper's `|p_r|`.
    pub distance: f64,
    /// The realizing simple path.
    pub path: Path,
}

const NO_PARENT: u32 = u32::MAX;

/// Reusable Dijkstra workspace over graphs with at most the configured
/// number of nodes.
#[derive(Clone, Debug)]
pub struct Dijkstra {
    dist: Vec<f64>,
    parent_node: Vec<u32>,
    parent_edge: Vec<u32>,
    /// `stamp[v] == epoch` ⇔ `dist[v]`/parents are valid for this query.
    stamp: Vec<u32>,
    /// `settled[v] == epoch` ⇔ `v` was popped with its final distance.
    settled: Vec<u32>,
    target_stamp: Vec<u32>,
    epoch: u32,
    queue: IndexedMinHeap,
}

impl Dijkstra {
    /// Create a workspace for graphs with `num_nodes` vertices.
    pub fn new(num_nodes: usize) -> Self {
        Dijkstra {
            dist: vec![f64::INFINITY; num_nodes],
            parent_node: vec![NO_PARENT; num_nodes],
            parent_edge: vec![NO_PARENT; num_nodes],
            stamp: vec![0; num_nodes],
            settled: vec![0; num_nodes],
            target_stamp: vec![0; num_nodes],
            epoch: 0,
            queue: IndexedMinHeap::new(num_nodes),
        }
    }

    fn begin_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Extremely rare wrap-around: hard reset keeps stamps sound.
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.settled.iter_mut().for_each(|s| *s = 0);
            self.target_stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
    }

    /// Run a query from `src`. `usable(e)` gates edge traversal (pass
    /// `|_| true` for plain shortest paths; residual-capacity routing
    /// passes a capacity check). `weights[e]` must be non-negative.
    ///
    /// After the call, [`Dijkstra::distance`] and [`Dijkstra::path_to`]
    /// read out results for any vertex that was settled.
    pub fn run<F>(
        &mut self,
        graph: &Graph,
        weights: &[f64],
        src: NodeId,
        targets: Targets<'_>,
        usable: F,
    ) where
        F: Fn(EdgeId) -> bool,
    {
        debug_assert!(weights.len() >= graph.num_edges());
        debug_assert!(src.index() < graph.num_nodes());
        self.begin_epoch();
        let epoch = self.epoch;
        self.queue.clear();

        let mut remaining_targets = match targets {
            Targets::All => usize::MAX,
            Targets::One(t) => {
                self.target_stamp[t.index()] = epoch;
                1
            }
            Targets::Set(ts) => {
                let mut uniq = 0;
                for &t in ts {
                    if self.target_stamp[t.index()] != epoch {
                        self.target_stamp[t.index()] = epoch;
                        uniq += 1;
                    }
                }
                uniq
            }
        };

        self.dist[src.index()] = 0.0;
        self.parent_node[src.index()] = NO_PARENT;
        self.parent_edge[src.index()] = NO_PARENT;
        self.stamp[src.index()] = epoch;
        self.queue.insert_or_decrease(src.0, 0.0);

        while let Some((slot, dv)) = self.queue.pop() {
            let v = NodeId(slot);
            let vi = v.index();
            debug_assert_ne!(self.settled[vi], epoch, "settled nodes are never re-queued");
            self.settled[vi] = epoch;
            debug_assert_eq!(dv, self.dist[vi]);

            if remaining_targets != usize::MAX && self.target_stamp[vi] == epoch {
                remaining_targets -= 1;
                if remaining_targets == 0 {
                    return;
                }
            }

            for adj in graph.neighbors(v) {
                if !usable(adj.edge) {
                    continue;
                }
                let w = weights[adj.edge.index()];
                debug_assert!(w >= 0.0, "Dijkstra requires non-negative weights");
                let ui = adj.to.index();
                if self.settled[ui] == epoch {
                    continue;
                }
                let cand = dv + w;
                if self.stamp[ui] != epoch || cand < self.dist[ui] {
                    self.stamp[ui] = epoch;
                    self.dist[ui] = cand;
                    self.parent_node[ui] = v.0;
                    self.parent_edge[ui] = adj.edge.0;
                    self.queue.insert_or_decrease(adj.to.0, cand);
                }
            }
        }
    }

    /// Distance of `v` from the last query's source, if `v` was settled.
    #[inline]
    pub fn distance(&self, v: NodeId) -> Option<f64> {
        (self.settled[v.index()] == self.epoch).then(|| self.dist[v.index()])
    }

    /// Reconstruct the shortest path to `v` found by the last query.
    pub fn path_to(&self, v: NodeId) -> Option<Path> {
        let mut path = Path::trivial(v);
        self.path_to_into(v, &mut path).then_some(path)
    }

    /// Reconstruct the shortest path to `v` into `out`, reusing its
    /// allocations; returns whether `v` was settled (on `false`, `out` is
    /// left untouched). The contents written are bit-identical to what
    /// [`Dijkstra::path_to`] returns — this is the allocation-free
    /// variant for hot loops that rematerialize paths into long-lived
    /// buffers (the winner re-derivation in `ufp-core`'s selection loop
    /// and the route-class path cache refresh both use it).
    pub fn path_to_into(&self, v: NodeId, out: &mut Path) -> bool {
        if self.settled[v.index()] != self.epoch {
            return false;
        }
        out.rebuild(|nodes, edges| {
            nodes.push(v);
            let mut cur = v;
            while self.parent_node[cur.index()] != NO_PARENT {
                edges.push(EdgeId(self.parent_edge[cur.index()]));
                cur = NodeId(self.parent_node[cur.index()]);
                nodes.push(cur);
            }
            nodes.reverse();
            edges.reverse();
        });
        true
    }

    /// Convenience single-pair query.
    pub fn shortest_path<F>(
        &mut self,
        graph: &Graph,
        weights: &[f64],
        src: NodeId,
        dst: NodeId,
        usable: F,
    ) -> Option<ShortestPathResult>
    where
        F: Fn(EdgeId) -> bool,
    {
        self.run(graph, weights, src, Targets::One(dst), usable);
        let distance = self.distance(dst)?;
        let path = self.path_to(dst)?;
        Some(ShortestPathResult { distance, path })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn diamond() -> Graph {
        // 0 -> 1 -> 3 (cost 1 + 1), 0 -> 2 -> 3 (cost 10 + 0.5)
        let mut b = GraphBuilder::directed(4);
        b.add_edge(NodeId(0), NodeId(1), 1.0); // e0 w=1
        b.add_edge(NodeId(0), NodeId(2), 1.0); // e1 w=10
        b.add_edge(NodeId(1), NodeId(3), 1.0); // e2 w=1
        b.add_edge(NodeId(2), NodeId(3), 1.0); // e3 w=0.5
        b.build()
    }

    #[test]
    fn picks_cheaper_route() {
        let g = diamond();
        let w = vec![1.0, 10.0, 1.0, 0.5];
        let mut d = Dijkstra::new(g.num_nodes());
        let r = d
            .shortest_path(&g, &w, NodeId(0), NodeId(3), |_| true)
            .unwrap();
        assert!((r.distance - 2.0).abs() < 1e-12);
        assert_eq!(r.path.nodes(), &[NodeId(0), NodeId(1), NodeId(3)]);
        assert!(r.path.validate(&g).is_ok());
    }

    #[test]
    fn filter_reroutes() {
        let g = diamond();
        let w = vec![1.0, 10.0, 1.0, 0.5];
        let mut d = Dijkstra::new(g.num_nodes());
        // Forbid edge e2 (1 -> 3): must go the expensive way.
        let r = d
            .shortest_path(&g, &w, NodeId(0), NodeId(3), |e| e != EdgeId(2))
            .unwrap();
        assert!((r.distance - 10.5).abs() < 1e-12);
        assert_eq!(r.path.nodes(), &[NodeId(0), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn unreachable_returns_none() {
        let mut b = GraphBuilder::directed(3);
        b.add_edge(NodeId(0), NodeId(1), 1.0);
        let g = b.build();
        let w = vec![1.0];
        let mut d = Dijkstra::new(g.num_nodes());
        assert!(d
            .shortest_path(&g, &w, NodeId(0), NodeId(2), |_| true)
            .is_none());
    }

    #[test]
    fn source_equals_target_gives_trivial_path() {
        let g = diamond();
        let w = vec![1.0; 4];
        let mut d = Dijkstra::new(g.num_nodes());
        let r = d
            .shortest_path(&g, &w, NodeId(2), NodeId(2), |_| true)
            .unwrap();
        assert_eq!(r.distance, 0.0);
        assert!(r.path.is_empty());
    }

    #[test]
    fn workspace_reuse_across_queries() {
        let g = diamond();
        let w = vec![1.0, 10.0, 1.0, 0.5];
        let mut d = Dijkstra::new(g.num_nodes());
        for _ in 0..100 {
            let a = d
                .shortest_path(&g, &w, NodeId(0), NodeId(3), |_| true)
                .unwrap();
            assert!((a.distance - 2.0).abs() < 1e-12);
            let b = d
                .shortest_path(&g, &w, NodeId(1), NodeId(3), |_| true)
                .unwrap();
            assert!((b.distance - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn undirected_traversal_both_ways() {
        let mut b = GraphBuilder::undirected(3);
        b.add_edge(NodeId(0), NodeId(1), 1.0);
        b.add_edge(NodeId(2), NodeId(1), 1.0); // stored 2->1; traversable 1->2
        let g = b.build();
        let w = vec![1.0, 2.0];
        let mut d = Dijkstra::new(g.num_nodes());
        let r = d
            .shortest_path(&g, &w, NodeId(0), NodeId(2), |_| true)
            .unwrap();
        assert!((r.distance - 3.0).abs() < 1e-12);
        assert!(r.path.validate(&g).is_ok());
    }

    #[test]
    fn multi_target_early_exit_settles_all_targets() {
        let g = diamond();
        let w = vec![1.0, 10.0, 1.0, 0.5];
        let mut d = Dijkstra::new(g.num_nodes());
        d.run(
            &g,
            &w,
            NodeId(0),
            Targets::Set(&[NodeId(1), NodeId(3)]),
            |_| true,
        );
        assert_eq!(d.distance(NodeId(1)), Some(1.0));
        assert_eq!(d.distance(NodeId(3)), Some(2.0));
    }

    #[test]
    fn full_tree_settles_everything_reachable() {
        let g = diamond();
        let w = vec![1.0, 10.0, 1.0, 0.5];
        let mut d = Dijkstra::new(g.num_nodes());
        d.run(&g, &w, NodeId(0), Targets::All, |_| true);
        for v in 0..4 {
            assert!(d.distance(NodeId(v)).is_some());
        }
    }

    #[test]
    fn zero_weight_edges_allowed() {
        let g = diamond();
        let w = vec![0.0, 0.0, 0.0, 0.0];
        let mut d = Dijkstra::new(g.num_nodes());
        let r = d
            .shortest_path(&g, &w, NodeId(0), NodeId(3), |_| true)
            .unwrap();
        assert_eq!(r.distance, 0.0);
        assert_eq!(r.path.len(), 2);
    }

    #[test]
    fn path_to_into_reuses_and_matches() {
        let g = diamond();
        let w = vec![1.0, 10.0, 1.0, 0.5];
        let mut d = Dijkstra::new(g.num_nodes());
        d.run(&g, &w, NodeId(0), Targets::All, |_| true);
        let mut buf = Path::trivial(NodeId(0));
        for v in 0..4u32 {
            assert!(d.path_to_into(NodeId(v), &mut buf));
            assert_eq!(Some(buf.clone()), d.path_to(NodeId(v)));
        }
        // Unsettled target: report false, leave the buffer alone.
        let mut b2 = GraphBuilder::directed(3);
        b2.add_edge(NodeId(0), NodeId(1), 1.0);
        let g2 = b2.build();
        d.run(&g2, &[1.0], NodeId(0), Targets::All, |_| true);
        let before = buf.clone();
        assert!(!d.path_to_into(NodeId(2), &mut buf));
        assert_eq!(before, buf);
    }
}
