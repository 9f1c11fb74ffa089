//! Per-epoch distance-to-target bounds for goal-directed class queries.
//!
//! Within one `shift` of the log-space weights, Algorithm 1's weights only
//! rise (Invariant 1 in `crates/core/README.md`). A shortest-path tree
//! *into* a destination, computed once at the weights a run starts from,
//! therefore bounds every later distance to that destination from below,
//! for the whole run and for every pricing pass resumed from its trace.
//! [`Potentials`] holds those starting weights and builds one such tree
//! per destination, on the first lazy class query that needs it. The
//! selector hands the tree to `ufp_netgraph`'s goal-directed query
//! ([`Dijkstra::run_bounded`]), which returns the plain query's bits
//! while settling fewer nodes (Invariant 4).

use std::mem::size_of_val;
use std::sync::OnceLock;

use ufp_netgraph::dijkstra::{Dijkstra, Targets, MAX_BOUNDED_NODES};
use ufp_netgraph::graph::Graph;
use ufp_netgraph::ids::NodeId;
use ufp_obs::{Phase, Recorder};

use crate::weights::DualWeights;

/// The starting weights of one run and the reverse trees built over them.
/// Shared by `Arc` between a traced run and every pricing pass of its
/// trace.
#[derive(Debug)]
pub(crate) struct Potentials {
    /// Materialized weights when the run started.
    weights: Vec<f64>,
    /// The scale of `weights`; bounds apply only to weights of this scale.
    shift: f64,
    /// The path-search mask the trees are built under.
    mask: Option<Vec<bool>>,
    /// The in-edge view the trees search, built with the first tree.
    reversed: OnceLock<Graph>,
    /// Per destination, every node's distance to it (`∞`: no path).
    trees: Vec<OnceLock<Box<[f64]>>>,
}

impl Potentials {
    /// Bounds over `weights` as they stand, for queries under `mask`.
    /// Copies the weights and the mask; no tree is built yet.
    pub(crate) fn new(graph: &Graph, weights: &DualWeights, mask: Option<&[bool]>) -> Self {
        Potentials {
            weights: weights.weights().to_vec(),
            shift: weights.shift(),
            mask: mask.map(<[bool]>::to_vec),
            reversed: OnceLock::new(),
            trees: (0..graph.num_nodes()).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Whether queries under `mask` may prune with these bounds: the
    /// trees searched exactly the edges such queries search, on a graph
    /// small enough for the bounded query's proven slack.
    pub(crate) fn fits(&self, mask: Option<&[bool]>) -> bool {
        self.mask.as_deref() == mask && self.trees.len() <= MAX_BOUNDED_NODES
    }

    /// Whether weights of scale `shift` still dominate the starting
    /// weights (no re-centering since).
    #[inline]
    pub(crate) fn covers(&self, shift: f64) -> bool {
        shift == self.shift
    }

    /// Every node's distance to `dst` at the starting weights, building
    /// the reverse tree on `scratch` the first time (timed as
    /// `selection.potentials`).
    pub(crate) fn to_target(
        &self,
        graph: &Graph,
        dst: NodeId,
        scratch: &mut Dijkstra,
        obs: &Recorder,
    ) -> &[f64] {
        self.trees[dst.index()].get_or_init(|| {
            let _span = obs.span(Phase::SelectionPotentials);
            let reversed = self.reversed.get_or_init(|| graph.reversed());
            let mask = self.mask.as_deref();
            scratch.run(reversed, &self.weights, dst, Targets::All, |e| {
                mask.is_none_or(|m| m[e.index()])
            });
            reversed
                .node_ids()
                .map(|v| scratch.distance(v).unwrap_or(f64::INFINITY))
                .collect()
        })
    }

    /// Bytes held on the heap (lengths, not allocator capacities): the
    /// starting weights, the mask, the in-edge view once built, and the
    /// trees built so far.
    pub(crate) fn heap_bytes(&self) -> usize {
        let reversed = self.reversed.get().map_or(0, |g| {
            let adjacency: usize = g.node_ids().map(|v| size_of_val(g.neighbors(v))).sum();
            size_of_val(g.edges()) + adjacency
        });
        let trees: usize = self
            .trees
            .iter()
            .filter_map(OnceLock::get)
            .map(|t| size_of_val(&t[..]))
            .sum();
        size_of_val(&self.weights[..])
            + self.mask.as_ref().map_or(0, |m| m.len())
            + size_of_val(&self.trees[..])
            + reversed
            + trees
    }
}
