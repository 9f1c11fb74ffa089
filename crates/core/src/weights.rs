//! Log-space dual edge weights `y_e`.
//!
//! Algorithm 1 maintains `y_e`, starts them at `1/c_e`, and multiplies by
//! `e^{εB d/c_e}` per update. For small ε the stop threshold
//! `e^{ε(B−1)}` with `B = ln(m)/ε²` is `m^{(B−1)/(εB)} ≈ e^{ln(m)/ε}`,
//! which overflows `f64` well inside the interesting parameter range
//! (ε = 0.02, m = 10⁴ gives e⁴⁶⁰). We therefore store `ln y_e` exactly and
//! *materialize* shifted weights `w_e = e^{ln y_e − shift}` for the
//! shortest-path queries. Every quantity the algorithm compares is
//! scale-invariant:
//!
//! * path selection minimizes `(d/v)·Σ w_e`, a positive multiple of
//!   `(d/v)·Σ y_e`;
//! * the stop guard compares `ln Σ c_e y_e` (a stable log-sum-exp)
//!   against `ε(B−1)`;
//! * the dual certificate needs `D₁(i)/α(i)`, a ratio in which the shift
//!   cancels.
//!
//! Underflow (an edge 600+ orders of magnitude lighter than the heaviest)
//! flushes to zero weight, which only perturbs comparisons among paths
//! whose total weight is already negligible; the returned guard and
//! certificates remain exact because they live in log space.

use ufp_netgraph::graph::Graph;
use ufp_netgraph::ids::EdgeId;

/// How far `ln y_e − shift` may grow before re-centering. `e^600` is
/// comfortably below the `f64` overflow point even when summed over
/// millions of edges.
const RECENTER_AT: f64 = 600.0;

/// The dual weight vector of Algorithm 1, kept in log space.
#[derive(Clone, Debug)]
pub struct DualWeights {
    ln_y: Vec<f64>,
    /// Materialized `exp(ln_y − shift)`, the weights handed to Dijkstra.
    w: Vec<f64>,
    shift: f64,
    max_ln_y: f64,
    caps: Vec<f64>,
    /// `None` = every edge participates in the dual sum (the one-shot
    /// algorithm). `Some(mask)` = epoch mode: saturated edges are frozen
    /// out of `D₁` so a full link cannot trip the guard for the whole
    /// residual network.
    active: Option<Vec<bool>>,
    /// Re-centerings performed (observability only).
    recenters: u64,
}

impl DualWeights {
    /// Initialize `y_e = 1/c_e` (line 4 of Algorithm 1).
    pub fn new(graph: &Graph) -> Self {
        let caps: Vec<f64> = graph.edges().iter().map(|e| e.capacity).collect();
        Self::from_parts(caps, None, None)
    }

    /// Epoch-mode initialization for the streaming engine: effective
    /// (residual) capacities, an admissibility mask, and carried
    /// ln-space exponents from earlier epochs, so
    /// `ln y_e = −ln c_e + carry_e` for usable edges. Unusable edges hold
    /// an inert placeholder entry (`ln y = 0`, weight `0`): Dijkstra
    /// filters them out of paths, [`DualWeights::ln_dual_sum`] skips
    /// them, and crucially they do not participate in the log-sum-exp
    /// `shift` — a saturated zero-residual edge must not push every real
    /// weight into the subnormal range.
    pub fn with_context(capacities: &[f64], usable: &[bool], carry: &[f64]) -> Self {
        assert_eq!(capacities.len(), usable.len());
        assert_eq!(capacities.len(), carry.len());
        Self::from_parts(capacities.to_vec(), Some(usable.to_vec()), Some(carry))
    }

    #[inline]
    fn is_active(&self, i: usize) -> bool {
        self.active.as_ref().is_none_or(|m| m[i])
    }

    fn from_parts(caps: Vec<f64>, active: Option<Vec<bool>>, carry: Option<&[f64]>) -> Self {
        let usable = |i: usize| active.as_ref().is_none_or(|m| m[i]);
        let ln_y: Vec<f64> = caps
            .iter()
            .enumerate()
            .map(|(i, c)| {
                if usable(i) {
                    -(c.ln()) + carry.map_or(0.0, |k| k[i])
                } else {
                    // Inert placeholder: masked edges (possibly residual 0)
                    // never enter paths, sums, or the shift scale.
                    0.0
                }
            })
            .collect();
        let max_ln_y = ln_y
            .iter()
            .enumerate()
            .filter(|&(i, _)| usable(i))
            .map(|(_, &l)| l)
            .fold(f64::NEG_INFINITY, f64::max);
        let shift = if max_ln_y.is_finite() { max_ln_y } else { 0.0 };
        let w = ln_y
            .iter()
            .enumerate()
            .map(|(i, l)| if usable(i) { (l - shift).exp() } else { 0.0 })
            .collect();
        DualWeights {
            ln_y,
            w,
            shift,
            max_ln_y,
            caps,
            active,
            recenters: 0,
        }
    }

    /// Materialized weights for shortest-path queries (`∝ y_e`).
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.w
    }

    /// The scale such that `y_e = weights()[e] · e^{shift}`.
    #[inline]
    pub fn shift(&self) -> f64 {
        self.shift
    }

    /// Running maximum of `ln y_e` over active edges — the dual-weight
    /// growth signal the observability layer gauges per epoch.
    #[inline]
    pub fn max_ln_y(&self) -> f64 {
        self.max_ln_y
    }

    /// Log-sum-exp re-centerings performed on this weight vector so
    /// far.
    #[inline]
    pub fn recenters(&self) -> u64 {
        self.recenters
    }

    /// `ln y_e`, exact (masked edges hold an inert `0.0` placeholder).
    #[inline]
    pub fn ln_y(&self, e: EdgeId) -> f64 {
        self.ln_y[e.index()]
    }

    /// Apply the multiplicative update `y_e ← y_e · e^{exponent}`
    /// (line 10: `exponent = εB d / c_e`), re-centering if needed. Must
    /// only be called on usable edges (routed paths never cross masked
    /// ones).
    pub fn bump(&mut self, e: EdgeId, exponent: f64) {
        debug_assert!(exponent >= 0.0, "weight updates only grow");
        debug_assert!(self.is_active(e.index()), "bump on a masked edge");
        let i = e.index();
        self.ln_y[i] += exponent;
        if self.ln_y[i] > self.max_ln_y {
            self.max_ln_y = self.ln_y[i];
        }
        if self.max_ln_y - self.shift > RECENTER_AT {
            self.recenter();
        } else {
            self.w[i] = (self.ln_y[i] - self.shift).exp();
        }
    }

    fn recenter(&mut self) {
        self.recenters += 1;
        self.shift = self.max_ln_y;
        for i in 0..self.w.len() {
            self.w[i] = if self.is_active(i) {
                (self.ln_y[i] - self.shift).exp()
            } else {
                0.0
            };
        }
    }

    /// `ln Σ_e c_e y_e` — the guard quantity `D₁`, via stable log-sum-exp.
    /// In epoch mode the sum runs over usable edges only.
    pub fn ln_dual_sum(&self) -> f64 {
        let sum: f64 = match &self.active {
            None => self.w.iter().zip(&self.caps).map(|(w, c)| w * c).sum(),
            Some(mask) => self
                .w
                .iter()
                .zip(&self.caps)
                .zip(mask)
                .filter(|&(_, &a)| a)
                .map(|((w, c), _)| w * c)
                .sum(),
        };
        sum.ln() + self.shift
    }

    /// Capacity of edge `e` (cached copy for the hot loop).
    #[inline]
    pub fn capacity(&self, e: EdgeId) -> f64 {
        self.caps[e.index()]
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.ln_y.len()
    }

    /// True when the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.ln_y.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufp_netgraph::graph::GraphBuilder;
    use ufp_netgraph::ids::NodeId;

    fn graph_with_caps(caps: &[f64]) -> Graph {
        let mut b = GraphBuilder::directed(caps.len() + 1);
        for (i, &c) in caps.iter().enumerate() {
            b.add_edge(NodeId(i as u32), NodeId(i as u32 + 1), c);
        }
        b.build()
    }

    #[test]
    fn initial_state_matches_paper() {
        let g = graph_with_caps(&[2.0, 4.0]);
        let w = DualWeights::new(&g);
        // y_e = 1/c_e; D1(0) = Σ c_e · (1/c_e) = m
        assert!((w.ln_dual_sum() - (2.0f64).ln()).abs() < 1e-12);
        assert!((w.ln_y(EdgeId(0)) - (0.5f64).ln()).abs() < 1e-12);
        // ratios of materialized weights equal ratios of y
        let ratio = w.weights()[0] / w.weights()[1];
        assert!((ratio - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bump_multiplies() {
        let g = graph_with_caps(&[1.0, 1.0]);
        let mut w = DualWeights::new(&g);
        w.bump(EdgeId(0), 1.0);
        let ratio = w.weights()[0] / w.weights()[1];
        assert!((ratio - std::f64::consts::E).abs() < 1e-9);
        // D1 = e^1 · 1 + 1 = e + 1
        let expected = (std::f64::consts::E + 1.0f64).ln();
        assert!((w.ln_dual_sum() - expected).abs() < 1e-9);
    }

    #[test]
    fn survives_enormous_exponents() {
        let g = graph_with_caps(&[1.0, 1.0]);
        let mut w = DualWeights::new(&g);
        // Push one edge 10,000 e-folds up — far beyond f64 range.
        for _ in 0..100 {
            w.bump(EdgeId(0), 100.0);
        }
        assert!((w.ln_y(EdgeId(0)) - 10_000.0).abs() < 1e-6);
        assert!((w.ln_dual_sum() - 10_000.0).abs() < 1e-6);
        // Materialized weights stay finite and ordered.
        assert!(w.weights()[0].is_finite());
        assert!(w.weights()[0] > 0.0);
        assert!(w.weights()[1] >= 0.0); // may underflow to zero — allowed
        assert!(w.weights()[0] > w.weights()[1]);
    }

    #[test]
    fn recentering_preserves_ratios() {
        let g = graph_with_caps(&[1.0, 1.0, 1.0]);
        let mut w = DualWeights::new(&g);
        w.bump(EdgeId(0), 100.0);
        w.bump(EdgeId(1), 50.0);
        // ln-ratio of edges 0 and 1 must be exactly 50.
        let r = (w.weights()[0] / w.weights()[1]).ln();
        assert!((r - 50.0).abs() < 1e-9);
        // force recenter
        w.bump(EdgeId(0), 600.0);
        let r2 = (w.ln_y(EdgeId(0)) - w.ln_y(EdgeId(1))).abs();
        assert!((r2 - 650.0).abs() < 1e-9);
    }

    #[test]
    fn epoch_context_matches_fresh_weights() {
        // Trivial context (full caps, all usable, zero carry) must be
        // bit-identical to DualWeights::new — the engine/offline
        // equivalence hinges on it.
        let g = graph_with_caps(&[2.0, 4.0, 8.0]);
        let fresh = DualWeights::new(&g);
        let caps: Vec<f64> = g.edges().iter().map(|e| e.capacity).collect();
        let ctx = DualWeights::with_context(&caps, &[true; 3], &[0.0; 3]);
        assert_eq!(fresh.weights(), ctx.weights());
        assert_eq!(fresh.shift(), ctx.shift());
        assert_eq!(fresh.ln_dual_sum(), ctx.ln_dual_sum());
    }

    #[test]
    fn masked_edges_leave_the_dual_sum() {
        let g = graph_with_caps(&[1.0, 1.0]);
        let caps: Vec<f64> = g.edges().iter().map(|e| e.capacity).collect();
        let all = DualWeights::with_context(&caps, &[true, true], &[0.0, 0.0]);
        let one = DualWeights::with_context(&caps, &[true, false], &[0.0, 0.0]);
        // D1 = 2 with both edges, 1 with one edge.
        assert!((all.ln_dual_sum() - (2.0f64).ln()).abs() < 1e-12);
        assert!(one.ln_dual_sum().abs() < 1e-12);
    }

    #[test]
    fn carry_preloads_congestion() {
        let g = graph_with_caps(&[1.0, 1.0]);
        let caps: Vec<f64> = g.edges().iter().map(|e| e.capacity).collect();
        let w = DualWeights::with_context(&caps, &[true, true], &[3.0, 0.0]);
        assert!((w.ln_y(EdgeId(0)) - 3.0).abs() < 1e-12);
        assert!((w.weights()[0] / w.weights()[1] - 3.0f64.exp()).abs() < 1e-9);
    }

    #[test]
    fn zero_residual_capacity_survives() {
        let _g = graph_with_caps(&[4.0, 4.0]);
        let caps = [0.0, 4.0];
        let w = DualWeights::with_context(&caps, &[false, true], &[0.0, 0.0]);
        assert!(w.weights().iter().all(|x| x.is_finite()));
        assert!(w.ln_dual_sum().is_finite());
        // The masked zero-residual edge must not poison the shift scale:
        // the usable edge materializes at full precision (w = 1 at the
        // shift), not as a subnormal.
        assert_eq!(w.weights()[1], 1.0);
        assert_eq!(w.weights()[0], 0.0);
        assert!(w.ln_dual_sum().abs() < 1e-12, "D1 = c·(1/c) = 1, ln = 0");
    }

    #[test]
    fn masked_edges_survive_recenter() {
        let _g = graph_with_caps(&[1.0, 1.0]);
        let caps = [0.0, 1.0];
        let mut w = DualWeights::with_context(&caps, &[false, true], &[0.0, 0.0]);
        // Push the usable edge far enough to force a recenter.
        for _ in 0..8 {
            w.bump(EdgeId(1), 100.0);
        }
        assert_eq!(w.weights()[0], 0.0, "masked edge stays inert");
        assert!((w.ln_y(EdgeId(1)) - 800.0).abs() < 1e-9);
        assert!((w.ln_dual_sum() - 800.0).abs() < 1e-6);
    }

    #[test]
    fn guard_crossing_detectable() {
        // Simulate the stop condition Σ c_e y_e > e^{ε(B−1)} in log space.
        let g = graph_with_caps(&[8.0]);
        let mut w = DualWeights::new(&g);
        let eps = 0.5;
        let b = 8.0;
        let guard = eps * (b - 1.0); // ln threshold = 3.5
        assert!(w.ln_dual_sum() <= guard);
        // Each unit-demand update bumps by εB/c = 0.5·8/8 = 0.5.
        let mut bumps = 0;
        // Tolerance: the threshold 3.5 falls exactly on the bump grid and
        // log-sum-exp carries ~1e-16 noise.
        while w.ln_dual_sum() <= guard + 1e-9 {
            w.bump(EdgeId(0), 0.5);
            bumps += 1;
            assert!(bumps < 100, "guard never tripped");
        }
        // ln(c·y) = ln(8·y); starts at ln(1)=0, after k bumps = 0.5k, so
        // the first value strictly above 3.5 appears at k = 8.
        assert_eq!(bumps, 8);
    }
}

#[cfg(test)]
mod naive_comparison_tests {
    use super::*;
    use ufp_netgraph::graph::GraphBuilder;
    use ufp_netgraph::ids::NodeId;

    /// For exponents small enough that naive `f64` arithmetic is exact,
    /// the log-space representation must agree with a plain
    /// `y_e *= exp(x)` implementation to machine precision — the naive
    /// version is the spec, the log-space one the implementation.
    #[test]
    fn matches_naive_f64_in_the_safe_range() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let caps: Vec<f64> = (0..20).map(|_| rng.random_range(1.0..16.0)).collect();
        let mut gb = GraphBuilder::directed(21);
        for (i, &c) in caps.iter().enumerate() {
            gb.add_edge(NodeId(i as u32), NodeId(i as u32 + 1), c);
        }
        let g = gb.build();
        let mut fancy = DualWeights::new(&g);
        let mut naive: Vec<f64> = caps.iter().map(|c| 1.0 / c).collect();
        for _ in 0..500 {
            let e = rng.random_range(0..caps.len());
            let exponent = rng.random_range(0.0..0.5);
            fancy.bump(EdgeId(e as u32), exponent);
            naive[e] *= exponent.exp();
            // Guard quantity agrees.
            let naive_sum: f64 = naive.iter().zip(&caps).map(|(y, c)| y * c).sum();
            let diff = (fancy.ln_dual_sum() - naive_sum.ln()).abs();
            assert!(diff < 1e-9, "ln dual sum drifted by {diff}");
        }
        // Weight ratios agree too (materialized weights are y up to a
        // common positive factor).
        let k = fancy.weights()[0] / naive[0];
        for (w, y) in fancy.weights().iter().zip(&naive) {
            assert!((w / y - k).abs() < 1e-9 * k, "ratio drifted");
        }
    }
}
