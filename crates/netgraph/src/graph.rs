//! Capacitated multigraph with immutable CSR adjacency.

use crate::csr::{AdjEntry, Csr};
use crate::ids::{EdgeId, NodeId};

/// Whether edges may be traversed in one direction or both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphKind {
    /// Edges are arcs `src -> dst`.
    Directed,
    /// Edges may be traversed both ways; capacity is shared between the
    /// two directions (the standard undirected-UFP semantics used by the
    /// paper's Figure 3 construction).
    Undirected,
}

/// One capacitated edge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Edge {
    /// Tail vertex (one endpoint for undirected graphs).
    pub src: NodeId,
    /// Head vertex (the other endpoint for undirected graphs).
    pub dst: NodeId,
    /// Positive capacity `c_e`.
    pub capacity: f64,
}

/// An immutable capacitated multigraph.
///
/// Construct through [`GraphBuilder`]; the builder validates endpoints and
/// capacities and assembles the CSR adjacency exactly once.
#[derive(Clone, Debug)]
pub struct Graph {
    kind: GraphKind,
    num_nodes: u32,
    edges: Vec<Edge>,
    adjacency: Csr,
}

impl Graph {
    /// Graph kind (directed / undirected).
    #[inline]
    pub fn kind(&self) -> GraphKind {
        self.kind
    }

    /// Number of vertices.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes as usize
    }

    /// Number of edges (undirected edges counted once).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// All edges, indexed by [`EdgeId`].
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The edge behind `id`.
    #[inline(always)]
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Capacity of edge `id`.
    #[inline(always)]
    pub fn capacity(&self, id: EdgeId) -> f64 {
        self.edges[id.index()].capacity
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes).map(NodeId)
    }

    /// Outgoing adjacency of `v` (both directions for undirected graphs).
    #[inline(always)]
    pub fn neighbors(&self, v: NodeId) -> &[AdjEntry] {
        self.adjacency.neighbors(v)
    }

    /// Minimum edge capacity; the paper's bound parameter `B` once demands
    /// are normalized into `(0, 1]`. Returns `f64::INFINITY` on an edgeless
    /// graph (no constraint binds).
    pub fn min_capacity(&self) -> f64 {
        self.edges
            .iter()
            .map(|e| e.capacity)
            .fold(f64::INFINITY, f64::min)
    }

    /// Maximum edge capacity (used by the repetition algorithm's runtime
    /// bound `m · c_max / d_min`).
    pub fn max_capacity(&self) -> f64 {
        self.edges.iter().map(|e| e.capacity).fold(0.0, f64::max)
    }

    /// Endpoint of `edge` opposite to `from`. Panics if `from` is not an
    /// endpoint.
    #[inline]
    pub fn other_endpoint(&self, edge: EdgeId, from: NodeId) -> NodeId {
        let e = self.edge(edge);
        if e.src == from {
            e.dst
        } else {
            debug_assert_eq!(e.dst, from, "vertex is not an endpoint of edge");
            e.src
        }
    }
}

/// Incremental builder for [`Graph`].
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    kind: GraphKind,
    num_nodes: u32,
    edges: Vec<Edge>,
}

impl GraphBuilder {
    /// Start a directed graph with `num_nodes` vertices.
    pub fn directed(num_nodes: usize) -> Self {
        Self::new(GraphKind::Directed, num_nodes)
    }

    /// Start an undirected graph with `num_nodes` vertices.
    pub fn undirected(num_nodes: usize) -> Self {
        Self::new(GraphKind::Undirected, num_nodes)
    }

    fn new(kind: GraphKind, num_nodes: usize) -> Self {
        assert!(num_nodes <= u32::MAX as usize, "too many nodes");
        GraphBuilder {
            kind,
            num_nodes: num_nodes as u32,
            edges: Vec::new(),
        }
    }

    /// Append `count` fresh vertices, returning the id of the first.
    pub fn add_nodes(&mut self, count: usize) -> NodeId {
        let first = self.num_nodes;
        self.num_nodes = self
            .num_nodes
            .checked_add(count as u32)
            .expect("node count overflow");
        NodeId(first)
    }

    /// Current number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes as usize
    }

    /// Add an edge with the given positive capacity. Self-loops are
    /// rejected: they can never appear on a simple path, and admitting them
    /// would complicate the undirected adjacency.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, capacity: f64) -> EdgeId {
        assert!(src.0 < self.num_nodes, "edge source {src} out of range");
        assert!(dst.0 < self.num_nodes, "edge target {dst} out of range");
        assert_ne!(src, dst, "self-loops are not representable");
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be positive and finite, got {capacity}"
        );
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge { src, dst, capacity });
        id
    }

    /// Finalize into an immutable [`Graph`].
    pub fn build(self) -> Graph {
        let mut arcs = Vec::with_capacity(match self.kind {
            GraphKind::Directed => self.edges.len(),
            GraphKind::Undirected => self.edges.len() * 2,
        });
        for (i, e) in self.edges.iter().enumerate() {
            let id = EdgeId(i as u32);
            arcs.push((e.src, e.dst, id));
            if self.kind == GraphKind::Undirected {
                arcs.push((e.dst, e.src, id));
            }
        }
        let adjacency = Csr::build(self.num_nodes, &arcs);
        Graph {
            kind: self.kind,
            num_nodes: self.num_nodes,
            edges: self.edges,
            adjacency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directed_adjacency_is_one_sided() {
        let mut b = GraphBuilder::directed(3);
        let e01 = b.add_edge(NodeId(0), NodeId(1), 2.0);
        b.add_edge(NodeId(1), NodeId(2), 3.0);
        let g = b.build();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(NodeId(0)).len(), 1);
        assert_eq!(g.neighbors(NodeId(1)).len(), 1);
        assert!(g.neighbors(NodeId(2)).is_empty());
        assert_eq!(g.capacity(e01), 2.0);
        assert_eq!(g.min_capacity(), 2.0);
        assert_eq!(g.max_capacity(), 3.0);
    }

    #[test]
    fn undirected_adjacency_is_two_sided_shared_edge() {
        let mut b = GraphBuilder::undirected(2);
        let e = b.add_edge(NodeId(0), NodeId(1), 5.0);
        let g = b.build();
        assert_eq!(g.neighbors(NodeId(0))[0].edge, e);
        assert_eq!(g.neighbors(NodeId(1))[0].edge, e);
        assert_eq!(g.neighbors(NodeId(1))[0].to, NodeId(0));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn other_endpoint() {
        let mut b = GraphBuilder::undirected(2);
        let e = b.add_edge(NodeId(0), NodeId(1), 1.0);
        let g = b.build();
        assert_eq!(g.other_endpoint(e, NodeId(0)), NodeId(1));
        assert_eq!(g.other_endpoint(e, NodeId(1)), NodeId(0));
    }

    #[test]
    fn add_nodes_extends() {
        let mut b = GraphBuilder::directed(1);
        let first = b.add_nodes(3);
        assert_eq!(first, NodeId(1));
        assert_eq!(b.num_nodes(), 4);
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_capacity() {
        let mut b = GraphBuilder::directed(2);
        b.add_edge(NodeId(0), NodeId(1), 0.0);
    }

    #[test]
    #[should_panic]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::directed(2);
        b.add_edge(NodeId(1), NodeId(1), 1.0);
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_endpoint() {
        let mut b = GraphBuilder::directed(2);
        b.add_edge(NodeId(0), NodeId(5), 1.0);
    }

    #[test]
    fn parallel_edges_supported() {
        let mut b = GraphBuilder::directed(2);
        let e0 = b.add_edge(NodeId(0), NodeId(1), 1.0);
        let e1 = b.add_edge(NodeId(0), NodeId(1), 2.0);
        let g = b.build();
        assert_ne!(e0, e1);
        assert_eq!(g.neighbors(NodeId(0)).len(), 2);
    }

    #[test]
    fn min_capacity_of_empty_graph_is_infinite() {
        let g = GraphBuilder::directed(3).build();
        assert_eq!(g.min_capacity(), f64::INFINITY);
        assert_eq!(g.max_capacity(), 0.0);
    }
}
