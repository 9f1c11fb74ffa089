//! Dynamic-topology overlay: typed mutation events over an immutable
//! [`Graph`].
//!
//! The base [`Graph`] never changes — CSR adjacency, edge endpoints and
//! nominal capacities are built once and shared (`Arc<Graph>`) across
//! engines, shards, and payment probes. Production networks still lose
//! links, resize capacity, and drain nodes for maintenance, so this
//! module layers a mutable *overlay* on top: per-edge effective
//! capacity, per-edge up/down state, and per-node drain state, mutated
//! exclusively through a typed, validated [`TopologyEvent`] stream.
//!
//! The overlay is an event-sourced value: `version()` is the number of
//! applied events, the state at version `v` is the base graph plus the
//! log prefix `log()[..v]`, and [`Topology::events_since`] yields the
//! delta between two versions — which is exactly what a snapshot
//! restore onto a mutated network replays as a typed migration.
//! [`Topology::fingerprint`] hashes the *state* (not the log), so two
//! event histories that reach the same effective network compare equal.

use crate::graph::Graph;
use crate::ids::{EdgeId, NodeId};

/// One validated topology mutation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TopologyEvent {
    /// Resize an edge's effective capacity (raise or lower; must be
    /// finite and strictly positive — model "no capacity" as
    /// [`TopologyEvent::LinkDown`], which is reversible without losing
    /// the configured size).
    SetCapacity {
        /// Edge to resize.
        edge: EdgeId,
        /// New effective capacity.
        capacity: f64,
    },
    /// Fail a link: its effective capacity becomes zero until a
    /// matching [`TopologyEvent::LinkUp`]. Idempotent.
    LinkDown {
        /// Edge to fail.
        edge: EdgeId,
    },
    /// Restore a failed link at its configured capacity. Idempotent.
    LinkUp {
        /// Edge to restore.
        edge: EdgeId,
    },
    /// Drain a node for maintenance: every incident edge stops
    /// accepting *new* admissions, but flows already routed through the
    /// node keep their capacity (drain is graceful; it never evicts).
    /// Idempotent.
    DrainNode {
        /// Node to drain.
        node: NodeId,
    },
    /// End a node's maintenance window. Idempotent.
    UndrainNode {
        /// Node to undrain.
        node: NodeId,
    },
}

/// Validation failure for a [`TopologyEvent`]. Rejected events are not
/// applied and not logged — the overlay never holds a half-applied
/// mutation.
#[derive(Clone, Debug, PartialEq)]
pub enum TopologyError {
    /// The event names an edge the base graph does not have.
    UnknownEdge {
        /// Offending edge id.
        edge: u32,
        /// Number of edges in the base graph.
        edges: usize,
    },
    /// The event names a node the base graph does not have.
    UnknownNode {
        /// Offending node id.
        node: u32,
        /// Number of nodes in the base graph.
        nodes: usize,
    },
    /// A capacity resize to a non-finite or non-positive value.
    BadCapacity {
        /// Edge the resize targeted.
        edge: u32,
        /// The rejected capacity.
        capacity: f64,
    },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::UnknownEdge { edge, edges } => {
                write!(
                    f,
                    "topology event names edge {edge} of a {edges}-edge graph"
                )
            }
            TopologyError::UnknownNode { node, nodes } => {
                write!(
                    f,
                    "topology event names node {node} of a {nodes}-node graph"
                )
            }
            TopologyError::BadCapacity { edge, capacity } => {
                write!(f, "capacity resize of edge {edge} to invalid {capacity}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x00000100000001b3;

fn fnv_push(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// Versioned mutable overlay over an immutable [`Graph`]: effective
/// per-edge capacities, link up/down state, node drain state, and the
/// event log that produced them.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Configured effective capacity per edge (survives down/up cycles).
    capacity: Vec<f64>,
    /// Link state per edge.
    up: Vec<bool>,
    /// Maintenance state per node.
    drained: Vec<bool>,
    /// Edge endpoints copied from the base graph, so availability is
    /// answerable without re-borrowing the graph.
    endpoints: Vec<(u32, u32)>,
    /// Every applied event, in order; `version() == log.len()`.
    log: Vec<TopologyEvent>,
}

impl Topology {
    /// Pristine overlay at version 0: every link up at its base
    /// capacity, no node drained.
    pub fn new(graph: &Graph) -> Self {
        Topology {
            capacity: graph.edges().iter().map(|e| e.capacity).collect(),
            up: vec![true; graph.num_edges()],
            drained: vec![false; graph.num_nodes()],
            endpoints: graph.edges().iter().map(|e| (e.src.0, e.dst.0)).collect(),
            log: Vec::new(),
        }
    }

    /// Rebuild the overlay state at a given version by replaying an
    /// event prefix over the base graph — the snapshot-migration path.
    pub fn replay(graph: &Graph, events: &[TopologyEvent]) -> Result<Self, TopologyError> {
        let mut t = Topology::new(graph);
        for &ev in events {
            t.apply(ev)?;
        }
        Ok(t)
    }

    /// Number of applied events; the state equals the base graph plus
    /// `log()[..version()]`.
    pub fn version(&self) -> u64 {
        self.log.len() as u64
    }

    /// The full applied-event log, oldest first.
    pub fn log(&self) -> &[TopologyEvent] {
        &self.log
    }

    /// The event delta from `version` (a past [`Topology::version`])
    /// to the present — what a restore from an older snapshot replays.
    pub fn events_since(&self, version: u64) -> &[TopologyEvent] {
        &self.log[(version as usize).min(self.log.len())..]
    }

    /// Check an event against the base graph without applying it.
    pub fn validate(&self, event: TopologyEvent) -> Result<(), TopologyError> {
        let check_edge = |edge: EdgeId| {
            if edge.index() >= self.capacity.len() {
                Err(TopologyError::UnknownEdge {
                    edge: edge.0,
                    edges: self.capacity.len(),
                })
            } else {
                Ok(())
            }
        };
        let check_node = |node: NodeId| {
            if node.index() >= self.drained.len() {
                Err(TopologyError::UnknownNode {
                    node: node.0,
                    nodes: self.drained.len(),
                })
            } else {
                Ok(())
            }
        };
        match event {
            TopologyEvent::SetCapacity { edge, capacity } => {
                check_edge(edge)?;
                if !capacity.is_finite() || capacity <= 0.0 {
                    return Err(TopologyError::BadCapacity {
                        edge: edge.0,
                        capacity,
                    });
                }
                Ok(())
            }
            TopologyEvent::LinkDown { edge } | TopologyEvent::LinkUp { edge } => check_edge(edge),
            TopologyEvent::DrainNode { node } | TopologyEvent::UndrainNode { node } => {
                check_node(node)
            }
        }
    }

    /// Validate and apply one event, appending it to the log. On error
    /// nothing changes and nothing is logged.
    pub fn apply(&mut self, event: TopologyEvent) -> Result<(), TopologyError> {
        self.validate(event)?;
        match event {
            TopologyEvent::SetCapacity { edge, capacity } => {
                self.capacity[edge.index()] = capacity;
            }
            TopologyEvent::LinkDown { edge } => self.up[edge.index()] = false,
            TopologyEvent::LinkUp { edge } => self.up[edge.index()] = true,
            TopologyEvent::DrainNode { node } => self.drained[node.index()] = true,
            TopologyEvent::UndrainNode { node } => self.drained[node.index()] = false,
        }
        self.log.push(event);
        Ok(())
    }

    /// Effective capacity of `e`: the configured size while the link is
    /// up, zero while it is down.
    #[inline]
    pub fn effective_capacity(&self, e: EdgeId) -> f64 {
        if self.up[e.index()] {
            self.capacity[e.index()]
        } else {
            0.0
        }
    }

    /// All effective capacities in edge-id order — the capacity vector
    /// the residual tracker rebuilds against after a mutation.
    pub fn effective_capacities(&self) -> Vec<f64> {
        (0..self.capacity.len())
            .map(|e| self.effective_capacity(EdgeId(e as u32)))
            .collect()
    }

    /// Whether edge `e` accepts *new* admissions: link up and neither
    /// endpoint drained. (Existing flows on a drained node's edges keep
    /// their capacity — drain is graceful by design.)
    #[inline]
    pub fn available(&self, e: EdgeId) -> bool {
        let (src, dst) = self.endpoints[e.index()];
        self.up[e.index()] && !self.drained[src as usize] && !self.drained[dst as usize]
    }

    /// Number of links currently down.
    pub fn links_down(&self) -> usize {
        self.up.iter().filter(|&&u| !u).count()
    }

    /// True at version 0 with no state change (the common fast path:
    /// engines skip the whole repair machinery on a pristine overlay).
    pub fn is_pristine(&self) -> bool {
        self.log.is_empty()
    }

    /// FNV-1a 64 digest of the effective *state*: capacity bits, link
    /// state, drain state. Log-independent — two histories reaching the
    /// same network fingerprint equal. Snapshots pin `(version,
    /// fingerprint)` so a restore detects both divergence (same
    /// version, different state) and lag (older version, migratable).
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        fnv_push(&mut h, &(self.capacity.len() as u64).to_le_bytes());
        fnv_push(&mut h, &(self.drained.len() as u64).to_le_bytes());
        for (e, &c) in self.capacity.iter().enumerate() {
            fnv_push(&mut h, &c.to_bits().to_le_bytes());
            fnv_push(&mut h, &[self.up[e] as u8]);
        }
        for &d in &self.drained {
            fnv_push(&mut h, &[d as u8]);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn triangle() -> Graph {
        let mut b = GraphBuilder::directed(3);
        b.add_edge(n(0), n(1), 4.0);
        b.add_edge(n(1), n(2), 8.0);
        b.add_edge(n(0), n(2), 2.0);
        b.build()
    }

    fn availability(t: &Topology) -> Vec<bool> {
        (0..3).map(|e| t.available(EdgeId(e))).collect()
    }

    #[test]
    fn pristine_overlay_mirrors_the_graph() {
        let g = triangle();
        let t = Topology::new(&g);
        assert!(t.is_pristine());
        assert_eq!(t.version(), 0);
        assert_eq!(t.effective_capacities(), vec![4.0, 8.0, 2.0]);
        assert_eq!(availability(&t), vec![true; 3]);
        assert_eq!(t.links_down(), 0);
    }

    #[test]
    fn events_mutate_and_log() {
        let g = triangle();
        let mut t = Topology::new(&g);
        t.apply(TopologyEvent::SetCapacity {
            edge: EdgeId(1),
            capacity: 3.5,
        })
        .unwrap();
        t.apply(TopologyEvent::LinkDown { edge: EdgeId(0) })
            .unwrap();
        t.apply(TopologyEvent::DrainNode { node: n(2) }).unwrap();
        assert_eq!(t.version(), 3);
        assert_eq!(t.effective_capacity(EdgeId(0)), 0.0);
        assert_eq!(t.effective_capacity(EdgeId(1)), 3.5);
        // Edge 0 is down; edges 1 and 2 touch drained node 2.
        assert_eq!(availability(&t), vec![false, false, false]);
        assert_eq!(t.links_down(), 1);
        t.apply(TopologyEvent::LinkUp { edge: EdgeId(0) }).unwrap();
        t.apply(TopologyEvent::UndrainNode { node: n(2) }).unwrap();
        assert_eq!(
            t.effective_capacity(EdgeId(0)),
            4.0,
            "size survives down/up"
        );
        assert_eq!(availability(&t), vec![true, true, true]);
        assert_eq!(t.events_since(3).len(), 2);
    }

    #[test]
    fn invalid_events_are_typed_and_unapplied() {
        let g = triangle();
        let mut t = Topology::new(&g);
        assert_eq!(
            t.apply(TopologyEvent::LinkDown { edge: EdgeId(9) }),
            Err(TopologyError::UnknownEdge { edge: 9, edges: 3 })
        );
        assert_eq!(
            t.apply(TopologyEvent::DrainNode { node: n(7) }),
            Err(TopologyError::UnknownNode { node: 7, nodes: 3 })
        );
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                t.apply(TopologyEvent::SetCapacity {
                    edge: EdgeId(0),
                    capacity: bad,
                }),
                Err(TopologyError::BadCapacity { edge: 0, .. })
            ));
        }
        assert_eq!(t.version(), 0, "rejected events must not be logged");
        assert_eq!(t.fingerprint(), Topology::new(&g).fingerprint());
    }

    #[test]
    fn fingerprint_tracks_state_not_history() {
        let g = triangle();
        let mut a = Topology::new(&g);
        let base = a.fingerprint();
        a.apply(TopologyEvent::LinkDown { edge: EdgeId(0) })
            .unwrap();
        assert_ne!(a.fingerprint(), base);
        a.apply(TopologyEvent::LinkUp { edge: EdgeId(0) }).unwrap();
        // Different history, same state: fingerprints agree, versions don't.
        assert_eq!(a.fingerprint(), base);
        assert_eq!(a.version(), 2);
    }

    #[test]
    fn replay_reproduces_state_and_version() {
        let g = triangle();
        let mut t = Topology::new(&g);
        let events = vec![
            TopologyEvent::SetCapacity {
                edge: EdgeId(2),
                capacity: 7.0,
            },
            TopologyEvent::LinkDown { edge: EdgeId(1) },
            TopologyEvent::DrainNode { node: n(0) },
        ];
        for &e in &events {
            t.apply(e).unwrap();
        }
        let r = Topology::replay(&g, &events).unwrap();
        assert_eq!(r.version(), t.version());
        assert_eq!(r.fingerprint(), t.fingerprint());
        assert_eq!(r.log(), t.log());
        assert!(Topology::replay(&g, &[TopologyEvent::LinkUp { edge: EdgeId(5) }]).is_err());
    }
}
