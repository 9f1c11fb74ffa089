//! Algorithm 3 — `Bounded-UFP-Repeat(ε)`: the `(1+ε)`-approximation for
//! the unsplittable flow **with repetitions** problem (Theorem 5.1).
//!
//! Identical loop structure to Algorithm 1 except that a satisfied request
//! stays in the pool (the output `W` is a multiset) and the only stopping
//! conditions are the dual guard and path exhaustion. The paper bounds the
//! iteration count by `m · c_max / d_min`: every iteration multiplies some
//! `y_e` by at least `e^{εB d_min / c_max}`, and each `y_e` can grow by at
//! most a factor `e^{εB}` before the guard trips. We keep that bound as a
//! hard cap and surface it in the run result so experiment E6/E9 can check
//! it.
//!
//! The dual certificate is Claim 5.2: `OPT ≤ D(i)/α(i)` per iteration —
//! in sharp contrast with Algorithm 1, the certified gap here converges to
//! `1 + ε` rather than `e/(e−1)`.

use ufp_par::Pool;

use crate::bounded_ufp::shortest_paths_grouped;
use crate::instance::UfpInstance;
use crate::request::RequestId;
use crate::solution::UfpSolution;
use crate::trace::{Certificate, IterationRecord, RunTrace, StopReason};
use crate::weights::DualWeights;

/// Configuration for [`bounded_ufp_repeat`].
#[derive(Clone, Debug)]
pub struct RepeatConfig {
    /// Accuracy parameter ε ∈ (0, 1]. Theorem 5.1 calls the algorithm
    /// with `ε/6` for a `(1+ε)` guarantee when `B ≥ ln(m)/ε²`.
    pub epsilon: f64,
    /// Parallelism for the shortest-path fan-out.
    pub pool: Pool,
    /// Optional cap overriding the theoretical `m·c_max/d_min` bound
    /// (useful to keep exploratory runs short). `None` = theoretical cap.
    pub max_iterations: Option<usize>,
}

impl Default for RepeatConfig {
    fn default() -> Self {
        RepeatConfig {
            epsilon: 0.1,
            pool: Pool::sequential(),
            max_iterations: None,
        }
    }
}

impl RepeatConfig {
    /// Configuration with the given ε.
    pub fn with_epsilon(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon <= 1.0, "epsilon must lie in (0,1]");
        RepeatConfig {
            epsilon,
            ..Default::default()
        }
    }
}

/// Result of a repetition run.
#[derive(Clone, Debug)]
pub struct RepeatRunResult {
    /// The multiset allocation.
    pub solution: UfpSolution,
    /// Per-iteration trace with the Claim 5.2 certificate.
    pub trace: RunTrace,
    /// The theoretical iteration bound `⌈m · c_max / d_min⌉` used as cap.
    pub iteration_bound: usize,
}

impl RepeatRunResult {
    /// Certified upper bound on the (fractional, hence also integral
    /// repetition) optimum via Claim 5.2.
    pub fn dual_upper_bound(&self) -> Option<f64> {
        self.trace.dual_upper_bound()
    }

    /// Certified ratio `bound / value`.
    pub fn certified_ratio(&self, instance: &UfpInstance) -> Option<f64> {
        let v = self.solution.value(instance);
        if v <= 0.0 {
            return None;
        }
        self.dual_upper_bound().map(|d| d / v)
    }
}

/// Run Algorithm 3 on a normalized instance.
pub fn bounded_ufp_repeat(instance: &UfpInstance, config: &RepeatConfig) -> RepeatRunResult {
    assert!(
        instance.is_normalized(),
        "Bounded-UFP-Repeat requires a normalized instance"
    );
    assert!(
        config.epsilon > 0.0 && config.epsilon <= 1.0,
        "epsilon must lie in (0, 1]"
    );
    let graph = instance.graph();
    let eps = config.epsilon;
    let b = graph.min_capacity();
    let ln_guard = eps * (b - 1.0);

    // Theorem 5.1 runtime bound: each of the m edges can absorb at most
    // c_max/d_min multiplicative updates before the guard trips.
    let theoretical = if instance.num_requests() == 0 || graph.num_edges() == 0 {
        0
    } else {
        let ratio = graph.max_capacity() / instance.min_demand();
        (graph.num_edges() as f64 * ratio).ceil() as usize + 1
    };
    let cap = config.max_iterations.unwrap_or(theoretical);

    let mut weights = DualWeights::new(graph);
    let all: Vec<RequestId> = instance.request_ids().collect();
    let mut solution = UfpSolution::empty();
    let mut routed_value = 0.0f64;
    let mut records: Vec<IterationRecord> = Vec::new();

    let stop_reason = loop {
        if all.is_empty() {
            break StopReason::Exhausted;
        }
        if records.len() >= cap {
            break StopReason::IterationCap;
        }
        let ln_d1 = weights.ln_dual_sum();
        if ln_d1 > ln_guard {
            break StopReason::Guard;
        }

        let findings = shortest_paths_grouped(instance, &all, &weights, None, &config.pool);
        let mut best: Option<(f64, usize)> = None;
        for (i, f) in findings.iter().enumerate() {
            let score = instance.request(f.0).density() * f.1;
            let better = match best {
                None => true,
                Some((bs, bi)) => score < bs || (score == bs && f.0 < findings[bi].0),
            };
            if better {
                best = Some((score, i));
            }
        }
        let Some((score, idx)) = best else {
            break StopReason::NoPath;
        };
        let (rid, _, path) = &findings[idx];
        let req = *instance.request(*rid);

        let ln_alpha = if score > 0.0 {
            score.ln() + weights.shift()
        } else {
            f64::NEG_INFINITY
        };
        records.push(IterationRecord {
            selected: *rid,
            ln_alpha,
            ln_d1,
            routed_value_before: routed_value,
        });

        for &e in path.edges() {
            let c = weights.capacity(e);
            weights.bump(e, eps * b * req.demand / c);
        }
        routed_value += req.value;
        solution.routed.push((*rid, path.clone()));
    };

    let trace = RunTrace {
        records,
        ln_guard_threshold: ln_guard,
        stop_reason,
        certificate: Certificate::Claim52,
    };
    RepeatRunResult {
        solution,
        trace,
        iteration_bound: theoretical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;
    use ufp_netgraph::graph::GraphBuilder;
    use ufp_netgraph::ids::NodeId;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn repeats_a_single_request_to_fill_capacity() {
        let mut gb = GraphBuilder::directed(2);
        gb.add_edge(n(0), n(1), 20.0);
        let inst = UfpInstance::new(gb.build(), vec![Request::new(n(0), n(1), 1.0, 1.0)]);
        let res = bounded_ufp_repeat(&inst, &RepeatConfig::with_epsilon(0.3));
        // With repetitions the single request is routed many times; output
        // must stay capacity-feasible.
        assert!(res.solution.len() > 1, "expected repetitions");
        assert!(res.solution.check_feasible(&inst, true).is_ok());
        assert!(res.solution.len() <= 20);
    }

    #[test]
    fn certified_ratio_close_to_one() {
        // Theorem 5.1: (1+6ε)-approximation when B >= ln(m)/eps^2.
        // Single edge, capacity 100, one unit request: OPT_repeat = 100.
        let mut gb = GraphBuilder::directed(2);
        gb.add_edge(n(0), n(1), 100.0);
        let inst = UfpInstance::new(gb.build(), vec![Request::new(n(0), n(1), 1.0, 1.0)]);
        let eps = 0.1; // needs B >= ln(1)/eps^2 — trivially satisfied
        let res = bounded_ufp_repeat(&inst, &RepeatConfig::with_epsilon(eps));
        let val = res.solution.value(&inst);
        let bound = res.dual_upper_bound().expect("claim 5.2 certificate");
        assert!(bound >= val - 1e-9);
        let ratio = bound / val;
        assert!(
            ratio <= 1.0 + 6.0 * eps + 0.05,
            "certified ratio {ratio} exceeds 1+6eps"
        );
    }

    #[test]
    fn respects_iteration_cap_override() {
        let mut gb = GraphBuilder::directed(2);
        gb.add_edge(n(0), n(1), 50.0);
        let inst = UfpInstance::new(gb.build(), vec![Request::new(n(0), n(1), 1.0, 1.0)]);
        let mut cfg = RepeatConfig::with_epsilon(0.5);
        cfg.max_iterations = Some(3);
        let res = bounded_ufp_repeat(&inst, &cfg);
        assert_eq!(res.solution.len(), 3);
        assert_eq!(res.trace.stop_reason, StopReason::IterationCap);
    }

    #[test]
    fn iteration_bound_matches_theorem() {
        let mut gb = GraphBuilder::directed(3);
        gb.add_edge(n(0), n(1), 8.0);
        gb.add_edge(n(1), n(2), 4.0);
        let inst = UfpInstance::new(gb.build(), vec![Request::new(n(0), n(2), 0.5, 1.0)]);
        let res = bounded_ufp_repeat(&inst, &RepeatConfig::with_epsilon(0.5));
        // bound = ceil(m * c_max / d_min) + 1 = ceil(2 * 8 / 0.5) + 1 = 33
        assert_eq!(res.iteration_bound, 33);
        assert!(res.trace.iterations() <= res.iteration_bound);
    }

    #[test]
    fn multiple_requests_prefer_the_dense_one() {
        let mut gb = GraphBuilder::directed(2);
        gb.add_edge(n(0), n(1), 30.0);
        let inst = UfpInstance::new(
            gb.build(),
            vec![
                Request::new(n(0), n(1), 1.0, 1.0),
                Request::new(n(0), n(1), 1.0, 5.0),
            ],
        );
        let res = bounded_ufp_repeat(&inst, &RepeatConfig::with_epsilon(0.3));
        // All repetitions should go to the value-5 request (same demand).
        let count_dense = res
            .solution
            .routed
            .iter()
            .filter(|(r, _)| *r == RequestId(1))
            .count();
        assert_eq!(count_dense, res.solution.len());
        assert!(res.solution.check_feasible(&inst, true).is_ok());
    }

    #[test]
    fn empty_request_set() {
        let mut gb = GraphBuilder::directed(2);
        gb.add_edge(n(0), n(1), 10.0);
        let inst = UfpInstance::new(gb.build(), vec![]);
        let res = bounded_ufp_repeat(&inst, &RepeatConfig::default());
        assert!(res.solution.is_empty());
        assert_eq!(res.trace.stop_reason, StopReason::Exhausted);
    }
}
