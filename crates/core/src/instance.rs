//! Problem instances: a capacitated graph plus a set of requests.

use std::sync::Arc;

use ufp_lp::Commodity;
use ufp_netgraph::graph::Graph;

use crate::request::{Request, RequestId};

/// A `B`-bounded unsplittable flow instance.
///
/// Follows the paper's normalized convention: demands lie in `(0, 1]` and
/// `B = min_e c_e` is the bound parameter. Instances with larger demands
/// are accepted but flagged un-normalized; call [`UfpInstance::normalized`]
/// before handing them to [`crate::bounded_ufp()`], which insists on the
/// normalized form (normalizing *inside* the algorithm would couple one
/// agent's declaration to every other agent's scaled type and wreck the
/// monotonicity argument).
///
/// The graph is held behind an [`Arc`], so cloning an instance — and in
/// particular building the counterfactual profiles of
/// [`UfpInstance::with_declared_type`], which the mechanism layer does
/// thousands of times per payment — shares the network (CSR included)
/// instead of deep-copying it. Streaming callers that build one instance
/// per epoch over a long-lived network should construct instances with
/// [`UfpInstance::from_shared`] to share a single graph across all epochs.
#[derive(Clone, Debug)]
pub struct UfpInstance {
    graph: Arc<Graph>,
    requests: Vec<Request>,
}

impl UfpInstance {
    /// Build an instance, validating request endpoints against the graph.
    pub fn new(graph: Graph, requests: Vec<Request>) -> Self {
        Self::from_shared(Arc::new(graph), requests)
    }

    /// Build an instance over an already-shared graph (zero-copy: the
    /// instance holds a reference-counted handle, never a deep copy).
    pub fn from_shared(graph: Arc<Graph>, requests: Vec<Request>) -> Self {
        for (i, r) in requests.iter().enumerate() {
            assert!(
                r.src.index() < graph.num_nodes() && r.dst.index() < graph.num_nodes(),
                "request {i} references vertices outside the graph"
            );
        }
        UfpInstance { graph, requests }
    }

    /// The network.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The shared handle to the network (cheap to clone; use this to
    /// build further instances over the same graph without copying it).
    #[inline]
    pub fn shared_graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// All requests, indexed by [`RequestId`].
    #[inline]
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Number of requests `|R|`.
    #[inline]
    pub fn num_requests(&self) -> usize {
        self.requests.len()
    }

    /// The request behind `id`.
    #[inline]
    pub fn request(&self, id: RequestId) -> &Request {
        &self.requests[id.index()]
    }

    /// Iterator over all request ids.
    pub fn request_ids(&self) -> impl Iterator<Item = RequestId> + '_ {
        (0..self.requests.len() as u32).map(RequestId)
    }

    /// Largest demand among the requests.
    pub fn max_demand(&self) -> f64 {
        self.requests
            .iter()
            .map(|r| r.demand)
            .fold(0.0f64, f64::max)
    }

    /// Smallest demand among the requests (`d_min` in the Theorem 5.1
    /// runtime bound).
    pub fn min_demand(&self) -> f64 {
        self.requests
            .iter()
            .map(|r| r.demand)
            .fold(f64::INFINITY, f64::min)
    }

    /// The paper's bound `B = min_e c_e / max_r d_r`; equals the minimum
    /// capacity when the instance is normalized.
    pub fn bound_b(&self) -> f64 {
        let d = self.max_demand();
        if d <= 0.0 {
            self.graph.min_capacity()
        } else {
            self.graph.min_capacity() / d.max(1.0)
        }
    }

    /// True when every demand lies in `(0, 1]`.
    pub fn is_normalized(&self) -> bool {
        self.max_demand() <= 1.0 + 1e-12
    }

    /// Rescale demands and capacities by `1 / max_r d_r`, producing the
    /// equivalent normalized instance (values are untouched, so objective
    /// values are directly comparable).
    pub fn normalized(&self) -> UfpInstance {
        let d = self.max_demand();
        if d <= 1.0 {
            return self.clone();
        }
        let inv = 1.0 / d;
        let mut builder = match self.graph.kind() {
            ufp_netgraph::graph::GraphKind::Directed => {
                ufp_netgraph::graph::GraphBuilder::directed(self.graph.num_nodes())
            }
            ufp_netgraph::graph::GraphKind::Undirected => {
                ufp_netgraph::graph::GraphBuilder::undirected(self.graph.num_nodes())
            }
        };
        for e in self.graph.edges() {
            builder.add_edge(e.src, e.dst, e.capacity * inv);
        }
        let requests = self
            .requests
            .iter()
            .map(|r| Request::new(r.src, r.dst, r.demand * inv, r.value))
            .collect();
        UfpInstance::new(builder.build(), requests)
    }

    /// Whether the instance satisfies the theorem's large-capacity
    /// requirement `B ≥ ln(m) / ε²` for accuracy `epsilon`.
    pub fn meets_large_capacity_bound(&self, epsilon: f64) -> bool {
        let m = self.graph.num_edges().max(2) as f64;
        self.bound_b() >= m.ln() / (epsilon * epsilon)
    }

    /// Sum of all request values (upper bound on any solution).
    pub fn total_value(&self) -> f64 {
        self.requests.iter().map(|r| r.value).sum()
    }

    /// LP-substrate view of the requests.
    pub fn to_commodities(&self) -> Vec<Commodity> {
        self.requests
            .iter()
            .map(|r| Commodity {
                src: r.src,
                dst: r.dst,
                demand: r.demand,
                value: r.value,
            })
            .collect()
    }

    /// Clone the instance with request `id` given a different declared
    /// type (demand, value). The mechanism layer uses this to probe
    /// counterfactual declarations.
    pub fn with_declared_type(&self, id: RequestId, demand: f64, value: f64) -> UfpInstance {
        let mut requests = self.requests.clone();
        requests[id.index()] = requests[id.index()].with_type(demand, value);
        UfpInstance {
            graph: Arc::clone(&self.graph),
            requests,
        }
    }

    /// Clone the instance without request `id` (for Vickrey–Clarke-style
    /// counterfactuals and tests).
    pub fn without_request(&self, id: RequestId) -> UfpInstance {
        let mut requests = self.requests.clone();
        requests.remove(id.index());
        UfpInstance {
            graph: Arc::clone(&self.graph),
            requests,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufp_netgraph::graph::GraphBuilder;
    use ufp_netgraph::ids::NodeId;

    fn simple_instance() -> UfpInstance {
        let mut b = GraphBuilder::directed(3);
        b.add_edge(NodeId(0), NodeId(1), 4.0);
        b.add_edge(NodeId(1), NodeId(2), 6.0);
        let g = b.build();
        UfpInstance::new(
            g,
            vec![
                Request::new(NodeId(0), NodeId(2), 1.0, 3.0),
                Request::new(NodeId(0), NodeId(1), 0.5, 1.0),
            ],
        )
    }

    #[test]
    fn accessors() {
        let inst = simple_instance();
        assert_eq!(inst.num_requests(), 2);
        assert_eq!(inst.bound_b(), 4.0);
        assert!(inst.is_normalized());
        assert_eq!(inst.total_value(), 4.0);
        assert_eq!(inst.max_demand(), 1.0);
        assert_eq!(inst.min_demand(), 0.5);
        assert_eq!(inst.request(RequestId(1)).value, 1.0);
    }

    #[test]
    fn normalization_rescales_demands_and_capacities() {
        let mut b = GraphBuilder::directed(2);
        b.add_edge(NodeId(0), NodeId(1), 10.0);
        let g = b.build();
        let inst = UfpInstance::new(g, vec![Request::new(NodeId(0), NodeId(1), 4.0, 7.0)]);
        assert!(!inst.is_normalized());
        assert_eq!(inst.bound_b(), 2.5);
        let norm = inst.normalized();
        assert!(norm.is_normalized());
        assert_eq!(norm.request(RequestId(0)).demand, 1.0);
        assert_eq!(norm.request(RequestId(0)).value, 7.0);
        assert_eq!(norm.graph().min_capacity(), 2.5);
        assert_eq!(norm.bound_b(), 2.5);
    }

    #[test]
    fn large_capacity_bound_check() {
        let inst = simple_instance(); // B = 4, m = 2, ln 2 ≈ 0.69
        assert!(inst.meets_large_capacity_bound(0.5)); // needs B >= 2.77
        assert!(!inst.meets_large_capacity_bound(0.1)); // needs B >= 69
                                                        // The smallest ε meeting `B ≥ ln(m)/ε²`.
        let eps = (2f64.ln() / 4.0).sqrt();
        assert!(inst.meets_large_capacity_bound(eps + 1e-9));
        assert!(!inst.meets_large_capacity_bound(eps - 1e-3));
    }

    #[test]
    fn commodity_conversion() {
        let inst = simple_instance();
        let c = inst.to_commodities();
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].demand, 1.0);
        assert_eq!(c[1].value, 1.0);
    }

    #[test]
    fn declared_type_probe() {
        let inst = simple_instance();
        let probed = inst.with_declared_type(RequestId(0), 0.25, 9.0);
        assert_eq!(probed.request(RequestId(0)).demand, 0.25);
        assert_eq!(probed.request(RequestId(0)).value, 9.0);
        // original untouched
        assert_eq!(inst.request(RequestId(0)).demand, 1.0);
    }

    #[test]
    fn without_request_shrinks() {
        let inst = simple_instance();
        let smaller = inst.without_request(RequestId(0));
        assert_eq!(smaller.num_requests(), 1);
        assert_eq!(smaller.request(RequestId(0)).demand, 0.5);
    }

    #[test]
    fn counterfactual_probes_share_the_graph() {
        // Zero-copy contract: every instance derived from this one must
        // point at the same Graph allocation, not a deep copy.
        let inst = simple_instance();
        let probed = inst.with_declared_type(RequestId(0), 0.25, 9.0);
        assert!(std::ptr::eq(inst.graph(), probed.graph()));
        let smaller = inst.without_request(RequestId(0));
        assert!(std::ptr::eq(inst.graph(), smaller.graph()));
        let cloned = inst.clone();
        assert!(std::ptr::eq(inst.graph(), cloned.graph()));
        let shared = UfpInstance::from_shared(Arc::clone(inst.shared_graph()), vec![]);
        assert!(std::ptr::eq(inst.graph(), shared.graph()));
    }

    #[test]
    #[should_panic]
    fn out_of_range_endpoint_rejected() {
        let g = GraphBuilder::directed(2).build();
        UfpInstance::new(g, vec![Request::new(NodeId(0), NodeId(5), 1.0, 1.0)]);
    }
}
