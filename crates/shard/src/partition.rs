//! Graph partitioning for the sharded engine.
//!
//! A [`ShardPlan`] assigns every **node** to a shard; edges inherit
//! their classification from their endpoints: *interior* to shard `s`
//! (both endpoints in `s`) or *boundary* between two shards. Requests
//! whose endpoints lie in one shard are that shard's local traffic;
//! requests spanning shards go to the reconciliation pass.
//!
//! Partitioners are deterministic functions of `(graph, shards)` — the
//! same inputs always yield the same plan, which the sharded snapshot
//! fingerprint relies on.

use ufp_core::Request;
use ufp_engine::codec::Fnv64;
use ufp_netgraph::graph::Graph;
use ufp_netgraph::ids::{EdgeId, NodeId};

/// Which shard(s) an edge belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeOwner {
    /// Both endpoints in one shard: only that shard routes over it.
    Interior(u32),
    /// Endpoints in different shards `(tail, head)`: capacity is
    /// arbitrated between the two by the lease ledger.
    Boundary(u32, u32),
}

/// A finalized node→shard assignment with derived edge classification.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    shards: usize,
    node_shard: Vec<u32>,
    edge_owner: Vec<EdgeOwner>,
    boundary_edges: Vec<EdgeId>,
}

impl ShardPlan {
    /// Build a plan from an explicit node→shard map (validating that
    /// every shard id is in range and every shard is non-empty).
    pub fn from_node_shard(graph: &Graph, node_shard: Vec<u32>, shards: usize) -> ShardPlan {
        assert!(shards >= 1, "need at least one shard");
        assert!(shards <= u8::MAX as usize, "at most 255 shards");
        assert_eq!(node_shard.len(), graph.num_nodes(), "shard map length");
        let mut seen = vec![false; shards];
        for &s in &node_shard {
            assert!((s as usize) < shards, "shard id {s} out of range");
            seen[s as usize] = true;
        }
        assert!(
            seen.iter().all(|&x| x),
            "every shard must own at least one node"
        );
        let mut edge_owner = Vec::with_capacity(graph.num_edges());
        let mut boundary_edges = Vec::new();
        for (i, e) in graph.edges().iter().enumerate() {
            let (a, b) = (node_shard[e.src.index()], node_shard[e.dst.index()]);
            if a == b {
                edge_owner.push(EdgeOwner::Interior(a));
            } else {
                edge_owner.push(EdgeOwner::Boundary(a, b));
                boundary_edges.push(EdgeId(i as u32));
            }
        }
        ShardPlan {
            shards,
            node_shard,
            edge_owner,
            boundary_edges,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The node→shard map.
    pub fn node_shard(&self) -> &[u32] {
        &self.node_shard
    }

    /// Shard of node `v`.
    #[inline]
    fn shard_of(&self, v: NodeId) -> u32 {
        self.node_shard[v.index()]
    }

    /// Classification of edge `e`.
    #[inline]
    pub fn edge_owner(&self, e: EdgeId) -> EdgeOwner {
        self.edge_owner[e.index()]
    }

    /// All boundary edges, ascending by edge id.
    pub fn boundary_edges(&self) -> &[EdgeId] {
        &self.boundary_edges
    }

    /// `Some(shard)` when the request is local to one shard, `None`
    /// when it crosses shards (reconciliation traffic).
    pub fn request_shard(&self, r: &Request) -> Option<u32> {
        let (a, b) = (self.shard_of(r.src), self.shard_of(r.dst));
        (a == b).then_some(a)
    }

    /// Fingerprint of the plan (shard count + node map), pinned inside
    /// sharded snapshots: restoring under a different partition would
    /// silently misroute every subsequent epoch.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::default();
        h.write(&(self.shards as u64).to_le_bytes());
        for &s in &self.node_shard {
            h.write(&s.to_le_bytes());
        }
        h.finish()
    }
}

/// A deterministic node→shard assignment strategy.
pub trait Partitioner {
    /// Partition `graph` into `shards` shards.
    fn partition(&self, graph: &Graph, shards: usize) -> ShardPlan;

    /// Stable name (reported in logs and `engine_sim --json` output).
    fn name(&self) -> &'static str;
}

/// Contiguous node-id blocks: node `v` goes to shard
/// `min(v / ceil(n/shards), shards-1)`. The natural partitioner for
/// community-structured graphs whose communities are id blocks
/// ([`ufp_netgraph::generators::community_digraph`]), where it produces
/// **zero boundary edges** when the communities are disconnected.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeBlocks;

impl Partitioner for NodeBlocks {
    fn partition(&self, graph: &Graph, shards: usize) -> ShardPlan {
        let n = graph.num_nodes();
        assert!(n >= shards, "need at least one node per shard");
        let per = n.div_ceil(shards);
        let node_shard = (0..n)
            .map(|v| ((v / per) as u32).min(shards as u32 - 1))
            .collect();
        ShardPlan::from_node_shard(graph, node_shard, shards)
    }

    fn name(&self) -> &'static str {
        "blocks"
    }
}

/// Undirected adjacency (node → neighbor nodes) used by the BFS-growing
/// partitioners; direction is irrelevant for territory.
fn undirected_adjacency(graph: &Graph) -> Vec<Vec<u32>> {
    let mut adj = vec![Vec::new(); graph.num_nodes()];
    for e in graph.edges() {
        adj[e.src.index()].push(e.dst.0);
        adj[e.dst.index()].push(e.src.0);
    }
    adj
}

/// Grow balanced regions from `seeds` by round-robin BFS: each round,
/// the shard with the smallest region expands one frontier node. Nodes
/// unreachable from every seed fall back to block assignment. Fully
/// deterministic (frontiers are FIFO, neighbor order is edge order).
fn grow_regions(graph: &Graph, seeds: &[(u32, u32)], shards: usize) -> Vec<u32> {
    let n = graph.num_nodes();
    let adj = undirected_adjacency(graph);
    let mut node_shard = vec![u32::MAX; n];
    let mut frontier: Vec<std::collections::VecDeque<u32>> = vec![Default::default(); shards];
    let mut size = vec![0usize; shards];
    for &(v, s) in seeds {
        if node_shard[v as usize] == u32::MAX {
            node_shard[v as usize] = s;
            frontier[s as usize].push_back(v);
            size[s as usize] += 1;
        }
    }
    loop {
        // Smallest non-exhausted region expands next (ties toward the
        // lower shard id) — keeps territories balanced.
        let mut pick: Option<usize> = None;
        for s in 0..shards {
            if frontier[s].is_empty() {
                continue;
            }
            if pick.is_none_or(|p| size[s] < size[p]) {
                pick = Some(s);
            }
        }
        let Some(s) = pick else { break };
        let v = frontier[s].pop_front().expect("picked non-empty frontier");
        for &w in &adj[v as usize] {
            if node_shard[w as usize] == u32::MAX {
                node_shard[w as usize] = s as u32;
                frontier[s].push_back(w);
                size[s] += 1;
            }
        }
    }
    // Disconnected leftovers: block fallback keeps every node assigned.
    let per = n.div_ceil(shards);
    for (v, s) in node_shard.iter_mut().enumerate() {
        if *s == u32::MAX {
            *s = ((v / per) as u32).min(shards as u32 - 1);
        }
    }
    node_shard
}

/// Edge-cut partitioner: balanced BFS region growing from evenly spread
/// seed nodes — a cheap deterministic stand-in for a min-cut partition
/// that keeps densely connected neighborhoods together and therefore
/// keeps the boundary (leased) edge set small.
#[derive(Clone, Copy, Debug, Default)]
pub struct EdgeCut;

impl Partitioner for EdgeCut {
    fn partition(&self, graph: &Graph, shards: usize) -> ShardPlan {
        let n = graph.num_nodes();
        assert!(n >= shards, "need at least one node per shard");
        let seeds: Vec<(u32, u32)> = (0..shards)
            .map(|s| (((s * n) / shards) as u32, s as u32))
            .collect();
        let node_shard = grow_regions(graph, &seeds, shards);
        ShardPlan::from_node_shard(graph, node_shard, shards)
    }

    fn name(&self) -> &'static str {
        "edge-cut"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufp_netgraph::graph::GraphBuilder;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Two 3-node cliques joined by one bridge edge.
    fn two_cliques() -> Graph {
        let mut gb = GraphBuilder::directed(6);
        for base in [0u32, 3] {
            for i in 0..3 {
                for j in 0..3 {
                    if i != j {
                        gb.add_edge(n(base + i), n(base + j), 10.0);
                    }
                }
            }
        }
        gb.add_edge(n(2), n(3), 5.0); // bridge
        gb.build()
    }

    #[test]
    fn blocks_partitioner_splits_contiguously() {
        let g = two_cliques();
        let plan = NodeBlocks.partition(&g, 2);
        assert_eq!(plan.node_shard(), &[0, 0, 0, 1, 1, 1]);
        let boundary = plan.boundary_edges();
        assert_eq!(boundary.len(), 1, "only the bridge crosses");
        assert_eq!(plan.edge_owner(boundary[0]), EdgeOwner::Boundary(0, 1));
    }

    #[test]
    fn edge_cut_respects_clique_structure() {
        let g = two_cliques();
        let plan = EdgeCut.partition(&g, 2);
        // Both cliques must end up whole: exactly the bridge on the cut.
        assert_eq!(plan.boundary_edges().len(), 1);
        let s0 = plan.shard_of(n(0));
        assert_eq!(plan.shard_of(n(1)), s0);
        assert_eq!(plan.shard_of(n(2)), s0);
        assert_ne!(plan.shard_of(n(3)), s0);
    }

    #[test]
    fn digest_tracks_the_assignment() {
        let g = two_cliques();
        let a = NodeBlocks.partition(&g, 2);
        let b = EdgeCut.partition(&g, 2);
        assert_eq!(a.digest(), NodeBlocks.partition(&g, 2).digest());
        // EdgeCut happens to find the same split here or not — compare
        // digest equality with map equality instead of assuming.
        assert_eq!(a.digest() == b.digest(), a.node_shard() == b.node_shard());
        let c = NodeBlocks.partition(&g, 3);
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_shard_rejected() {
        let g = two_cliques();
        ShardPlan::from_node_shard(&g, vec![0; 6], 2);
    }
}
