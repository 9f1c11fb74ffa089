//! # ufp-netgraph
//!
//! Capacitated graph substrate for the truthful unsplittable-flow library.
//!
//! The unsplittable flow problem (UFP) routes connection requests through an
//! edge-capacitated directed or undirected graph. This crate provides
//! everything the algorithms above it need from a graph:
//!
//! * [`Graph`] — an immutable capacitated multigraph with a compressed
//!   sparse-row adjacency built once at construction ([`GraphBuilder`]).
//! * [`dijkstra`] — non-negative shortest paths with reusable workspaces
//!   (the inner loop of the paper's Algorithm 1 is "one Dijkstra per
//!   remaining request per iteration", so this is the hot path), backed
//!   by the indexed 4-ary decrease-key heap of [`heap`], plus a
//!   goal-directed single-target query that prunes with
//!   distance-to-target lower bounds and returns the plain query's bits.
//! * [`pathcache`] — per-slot shortest-path cache with a reverse
//!   edge→slot interest index, the storage layer of `ufp-core`'s
//!   incremental (dirty-set) selection loop.
//! * [`enumerate`] — bounded simple-path enumeration, used by the
//!   "reasonable iterative path-minimizing algorithm" engine on the paper's
//!   lower-bound constructions where scores are not edge-additive.
//! * [`generators`] — random and structured graph families.
//! * [`residual`] — committed-load tracking over a graph's edges, the
//!   residual-capacity view the streaming admission engine allocates
//!   against.
//! * [`topology`] — a versioned dynamic overlay over the immutable
//!   graph: typed mutation events (capacity resize, link down/up, node
//!   drain) with an event log and a state fingerprint, the substrate
//!   for mid-run failures and maintenance.
//!
//! All node/edge handles are `u32` newtypes ([`NodeId`], [`EdgeId`]); dense
//! `Vec` indexing everywhere, no hashing on the hot path.

#![forbid(unsafe_code)]

pub mod bfs;
pub mod csr;
pub mod dijkstra;
pub mod enumerate;
pub mod generators;
pub mod graph;
pub mod heap;
pub mod ids;
pub mod ordered;
pub mod path;
pub mod pathcache;
pub mod residual;
pub mod topology;

pub use dijkstra::{Dijkstra, Goal, SearchWork, ShortestPathResult};
pub use graph::{Edge, Graph, GraphBuilder, GraphKind};
pub use heap::IndexedMinHeap;
pub use ids::{EdgeId, NodeId};
pub use ordered::OrderedF64;
pub use path::Path;
pub use pathcache::PathCache;
pub use residual::ResidualCaps;
pub use topology::{Topology, TopologyError, TopologyEvent};
