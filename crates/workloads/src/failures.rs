//! Failure-trace generators for the dynamic-topology repair pass.
//!
//! Where [`crate::arrivals`] generates the *demand* side of a streaming
//! run, this module generates the *infrastructure* side: per-epoch
//! batches of [`TopologyEvent`]s following the classic failure shapes —
//!
//! * **random link flaps** — independent Poisson-arriving link failures,
//!   each scheduled to recover after a fixed down-time;
//! * **capacity resizes** — independent Poisson-arriving rescales of a
//!   link's capacity by a random factor (both shrinks, which can force
//!   evictions, and growths, which only add headroom);
//! * **correlated regional outages** — all links within a BFS radius of
//!   a random epicenter fail together and recover together, the
//!   shared-conduit / shared-power failure mode independent flaps
//!   cannot model;
//! * **planned drain windows** — scheduled node maintenance: a drain at
//!   the window's start, the undrain at its end (drains never evict,
//!   they only block new admissions through the node).
//!
//! Every generator is a deterministic function of its seed, every
//! emitted event is valid against the base graph by construction
//! (replaying the whole trace through [`ufp_netgraph::topology::Topology::replay`] succeeds),
//! and failure/recovery events are *paired*: a link is never downed
//! twice without an intervening recovery, so the trace applies cleanly
//! to any engine mirroring the same overlay.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ufp_netgraph::graph::Graph;
use ufp_netgraph::ids::{EdgeId, NodeId};
use ufp_netgraph::topology::TopologyEvent;

use crate::arrivals::poisson_count;

/// One planned maintenance window: `node` is drained at the start of
/// epoch `start` and undrained after `duration` epochs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DrainWindow {
    /// Node under maintenance.
    pub node: NodeId,
    /// First epoch (0-based) the drain is in force.
    pub start: u32,
    /// Window length in epochs (≥ 1).
    pub duration: u32,
}

/// Configuration of [`failure_trace`].
#[derive(Clone, Debug)]
pub struct FailureTraceConfig {
    /// Epochs to generate.
    pub epochs: u32,
    /// RNG seed — the trace is a deterministic function of it.
    pub seed: u64,
    /// Expected independent link flaps per epoch (Poisson; 0 disables).
    pub flap_rate: f64,
    /// Epochs a flapped link stays down before its scheduled recovery
    /// (≥ 1).
    pub flap_down_epochs: u32,
    /// Expected capacity resizes per epoch (Poisson; 0 disables).
    pub resize_rate: f64,
    /// Resize factor range `[lo, hi]` applied to the link's *current*
    /// effective size; both bounds must be positive and finite.
    pub resize_range: (f64, f64),
    /// Per-epoch probability of a correlated regional outage starting
    /// (at most one per epoch; 0 disables).
    pub outage_rate: f64,
    /// BFS radius (hops from the epicenter node) of an outage region.
    pub outage_radius: u32,
    /// Epochs an outage region stays down (≥ 1).
    pub outage_down_epochs: u32,
    /// Planned maintenance windows.
    pub drains: Vec<DrainWindow>,
}

impl Default for FailureTraceConfig {
    fn default() -> Self {
        FailureTraceConfig {
            epochs: 0,
            seed: 0,
            flap_rate: 0.0,
            flap_down_epochs: 2,
            resize_rate: 0.0,
            resize_range: (0.5, 1.5),
            outage_rate: 0.0,
            outage_radius: 1,
            outage_down_epochs: 2,
            drains: Vec::new(),
        }
    }
}

impl FailureTraceConfig {
    /// Validate field ranges.
    pub fn validate(&self) {
        assert!(
            self.flap_rate >= 0.0 && self.flap_rate.is_finite(),
            "flap_rate must be finite and non-negative"
        );
        assert!(self.flap_down_epochs >= 1, "flap_down_epochs must be >= 1");
        assert!(
            self.resize_rate >= 0.0 && self.resize_rate.is_finite(),
            "resize_rate must be finite and non-negative"
        );
        let (lo, hi) = self.resize_range;
        assert!(
            lo > 0.0 && hi >= lo && hi.is_finite(),
            "resize_range must satisfy 0 < lo <= hi < inf"
        );
        assert!(
            (0.0..=1.0).contains(&self.outage_rate),
            "outage_rate must lie in [0, 1]"
        );
        assert!(
            self.outage_down_epochs >= 1,
            "outage_down_epochs must be >= 1"
        );
        for d in &self.drains {
            assert!(d.duration >= 1, "drain window duration must be >= 1");
        }
    }
}

/// Nodes within `radius` BFS hops of `center` (inclusive of `center`).
fn bfs_region(graph: &Graph, center: NodeId, radius: u32) -> Vec<bool> {
    let mut seen = vec![false; graph.num_nodes()];
    seen[center.index()] = true;
    let mut frontier = vec![center];
    for _ in 0..radius {
        let mut next = Vec::new();
        for &v in &frontier {
            for adj in graph.neighbors(v) {
                if !seen[adj.to.index()] {
                    seen[adj.to.index()] = true;
                    next.push(adj.to);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    seen
}

/// Generate a deterministic failure trace over `graph`: one
/// [`TopologyEvent`] batch per epoch, `config.epochs` batches total
/// (batches may be empty — most epochs are quiet at realistic rates).
///
/// Per epoch, events are emitted in a fixed order: scheduled recoveries
/// (link-ups of lapsed flaps and outages, in edge order; undrains of
/// lapsed windows), then new drain windows, then fresh link flaps, then
/// fresh capacity resizes, then at most one fresh regional outage.
/// Failure state is tracked so events always pair (no double-down, no
/// resize of a down link, no double-drain); recoveries scheduled past
/// the last epoch are dropped — the trace simply ends with those links
/// still down, which drivers surface as terminal `links_down`.
pub fn failure_trace(graph: &Graph, config: &FailureTraceConfig) -> Vec<Vec<TopologyEvent>> {
    config.validate();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let m = graph.num_edges();
    let n = graph.num_nodes();
    let mut up = vec![true; m];
    let mut drained = vec![false; n];
    // Recovery schedules: epoch → edges / nodes to bring back, kept in
    // emission order (edge order within a batch, batch order by start).
    let mut link_recovery: std::collections::BTreeMap<u32, Vec<EdgeId>> = Default::default();
    let mut undrain_at: std::collections::BTreeMap<u32, Vec<NodeId>> = Default::default();
    let mut trace = Vec::with_capacity(config.epochs as usize);
    for t in 0..config.epochs {
        let mut events = Vec::new();

        // 1. Scheduled recoveries.
        if let Some(edges) = link_recovery.remove(&t) {
            for e in edges {
                if !up[e.index()] {
                    up[e.index()] = true;
                    events.push(TopologyEvent::LinkUp { edge: e });
                }
            }
        }
        if let Some(nodes) = undrain_at.remove(&t) {
            for v in nodes {
                if drained[v.index()] {
                    drained[v.index()] = false;
                    events.push(TopologyEvent::UndrainNode { node: v });
                }
            }
        }

        // 2. Planned drain windows opening this epoch.
        for d in &config.drains {
            if d.start == t && d.node.index() < n && !drained[d.node.index()] {
                drained[d.node.index()] = true;
                events.push(TopologyEvent::DrainNode { node: d.node });
                undrain_at
                    .entry(t.saturating_add(d.duration))
                    .or_default()
                    .push(d.node);
            }
        }

        // 3. Independent link flaps.
        let flaps = poisson_count(config.flap_rate, &mut rng);
        for _ in 0..flaps {
            let candidates: Vec<usize> = (0..m).filter(|&e| up[e]).collect();
            if candidates.is_empty() {
                break;
            }
            let e = candidates[rng.random_range(0..candidates.len())];
            up[e] = false;
            events.push(TopologyEvent::LinkDown {
                edge: EdgeId(e as u32),
            });
            link_recovery
                .entry(t.saturating_add(config.flap_down_epochs))
                .or_default()
                .push(EdgeId(e as u32));
        }

        // 4. Capacity resizes (up links only; a down link's size change
        //    would be invisible until recovery anyway).
        let resizes = poisson_count(config.resize_rate, &mut rng);
        if resizes > 0 {
            // Track each edge's current size so successive resizes
            // compound deterministically.
            for _ in 0..resizes {
                let candidates: Vec<usize> = (0..m).filter(|&e| up[e]).collect();
                if candidates.is_empty() {
                    break;
                }
                let e = candidates[rng.random_range(0..candidates.len())];
                let (lo, hi) = config.resize_range;
                let factor = if lo == hi {
                    lo
                } else {
                    rng.random_range(lo..hi)
                };
                let current = current_capacity(graph, &trace, &events, e);
                let resized = (current * factor).max(f64::MIN_POSITIVE);
                events.push(TopologyEvent::SetCapacity {
                    edge: EdgeId(e as u32),
                    capacity: resized,
                });
            }
        }

        // 5. Correlated regional outage (at most one per epoch).
        if config.outage_rate > 0.0 && rng.random_range(0.0..1.0) < config.outage_rate && n > 0 {
            let center = NodeId(rng.random_range(0..n as u32));
            let region = bfs_region(graph, center, config.outage_radius);
            for (e, edge) in graph.edges().iter().enumerate() {
                if up[e] && (region[edge.src.index()] || region[edge.dst.index()]) {
                    up[e] = false;
                    events.push(TopologyEvent::LinkDown {
                        edge: EdgeId(e as u32),
                    });
                    link_recovery
                        .entry(t.saturating_add(config.outage_down_epochs))
                        .or_default()
                        .push(EdgeId(e as u32));
                }
            }
        }

        trace.push(events);
    }
    trace
}

/// The capacity edge `e` currently carries: its last `SetCapacity` in
/// the trace so far (including this epoch's pending events), or the
/// base capacity. O(trace) per call — fine at generator rates.
fn current_capacity(
    graph: &Graph,
    trace: &[Vec<TopologyEvent>],
    pending: &[TopologyEvent],
    e: usize,
) -> f64 {
    for ev in pending
        .iter()
        .rev()
        .chain(trace.iter().rev().flat_map(|b| b.iter().rev()))
    {
        if let TopologyEvent::SetCapacity { edge, capacity } = *ev {
            if edge.index() == e {
                return capacity;
            }
        }
    }
    graph.edges()[e].capacity
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufp_netgraph::generators;
    use ufp_netgraph::topology::Topology;

    fn test_graph() -> Graph {
        generators::gnm_digraph(24, 80, (40.0, 80.0), &mut StdRng::seed_from_u64(42))
    }

    fn busy_config() -> FailureTraceConfig {
        FailureTraceConfig {
            epochs: 40,
            seed: 7,
            flap_rate: 1.5,
            flap_down_epochs: 3,
            resize_rate: 1.0,
            resize_range: (0.4, 1.6),
            outage_rate: 0.2,
            outage_radius: 1,
            outage_down_epochs: 2,
            drains: vec![
                DrainWindow {
                    node: NodeId(3),
                    start: 5,
                    duration: 4,
                },
                DrainWindow {
                    node: NodeId(11),
                    start: 20,
                    duration: 2,
                },
            ],
        }
    }

    #[test]
    fn deterministic_in_the_seed() {
        let g = test_graph();
        let a = failure_trace(&g, &busy_config());
        let b = failure_trace(&g, &busy_config());
        assert_eq!(a, b);
        let mut other = busy_config();
        other.seed = 8;
        assert_ne!(a, failure_trace(&g, &other));
    }

    #[test]
    fn every_event_replays_cleanly() {
        let g = test_graph();
        let trace = failure_trace(&g, &busy_config());
        assert_eq!(trace.len(), 40);
        let flat: Vec<TopologyEvent> = trace.iter().flatten().copied().collect();
        assert!(!flat.is_empty(), "busy config must emit events");
        // Valid against the base graph end to end.
        Topology::replay(&g, &flat).expect("generated trace must replay");
    }

    #[test]
    fn failures_pair_with_recoveries() {
        let g = test_graph();
        let trace = failure_trace(&g, &busy_config());
        let mut down = vec![false; g.num_edges()];
        let mut drained = vec![false; g.num_nodes()];
        for batch in &trace {
            for ev in batch {
                match *ev {
                    TopologyEvent::LinkDown { edge } => {
                        assert!(!down[edge.index()], "double down on {edge:?}");
                        down[edge.index()] = true;
                    }
                    TopologyEvent::LinkUp { edge } => {
                        assert!(down[edge.index()], "up of an up link {edge:?}");
                        down[edge.index()] = false;
                    }
                    TopologyEvent::DrainNode { node } => {
                        assert!(!drained[node.index()], "double drain of {node:?}");
                        drained[node.index()] = true;
                    }
                    TopologyEvent::UndrainNode { node } => {
                        assert!(drained[node.index()], "undrain of {node:?}");
                        drained[node.index()] = false;
                    }
                    TopologyEvent::SetCapacity { edge, capacity } => {
                        assert!(!down[edge.index()], "resize of a down link");
                        assert!(capacity > 0.0 && capacity.is_finite());
                    }
                }
            }
        }
    }

    #[test]
    fn drain_windows_open_and_close_on_schedule() {
        let g = test_graph();
        let mut config = FailureTraceConfig {
            epochs: 12,
            drains: vec![DrainWindow {
                node: NodeId(3),
                start: 5,
                duration: 4,
            }],
            ..FailureTraceConfig::default()
        };
        config.flap_rate = 0.0;
        let trace = failure_trace(&g, &config);
        assert_eq!(trace[5], vec![TopologyEvent::DrainNode { node: NodeId(3) }]);
        assert_eq!(
            trace[9],
            vec![TopologyEvent::UndrainNode { node: NodeId(3) }]
        );
        for (t, batch) in trace.iter().enumerate() {
            if t != 5 && t != 9 {
                assert!(batch.is_empty(), "unexpected events at epoch {t}");
            }
        }
    }

    #[test]
    fn outages_fail_whole_regions_together() {
        let g = test_graph();
        let config = FailureTraceConfig {
            epochs: 30,
            seed: 3,
            outage_rate: 0.5,
            outage_radius: 1,
            outage_down_epochs: 2,
            ..FailureTraceConfig::default()
        };
        let trace = failure_trace(&g, &config);
        // Some epoch must down more than one link at once (a region).
        assert!(
            trace.iter().any(|b| {
                b.iter()
                    .filter(|e| matches!(e, TopologyEvent::LinkDown { .. }))
                    .count()
                    > 1
            }),
            "no correlated outage emitted"
        );
    }
}
