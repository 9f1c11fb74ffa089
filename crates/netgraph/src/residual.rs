//! Residual-capacity views over a [`Graph`].
//!
//! A long-lived allocation engine never mutates its graph; it tracks the
//! demand committed to every edge and exposes the *residual* capacities
//! `c_e − load_e` as the effective network for the next allocation epoch.
//! [`ResidualCaps`] is that bookkeeping: commit/release of routed paths,
//! clamped residual read-out, and the utilization summaries the engine's
//! metrics report.

use crate::graph::Graph;
use crate::ids::EdgeId;
use crate::path::Path;

/// Loads at or below this count as "no committed traffic" for
/// [`ResidualCaps::usable_mask`]: commit/release round-trips leave
/// ~1e-16 of float residue per operation, far below any real normalized
/// demand (> 0), and an effectively-empty edge below the floor must not
/// be frozen out forever.
pub const LOAD_EPSILON: f64 = 1e-9;

/// Committed-load tracker over a graph's edges, yielding residual
/// capacities. Loads are kept separately from capacities so release
/// (churn) cannot drift the base network.
#[derive(Clone, Debug)]
pub struct ResidualCaps {
    caps: Vec<f64>,
    load: Vec<f64>,
}

impl ResidualCaps {
    /// Fresh tracker: zero load everywhere.
    pub fn new(graph: &Graph) -> Self {
        ResidualCaps {
            caps: graph.edges().iter().map(|e| e.capacity).collect(),
            load: vec![0.0; graph.num_edges()],
        }
    }

    /// Fresh tracker over an explicit capacity vector — the dynamic-
    /// topology path, where the effective capacities (resized links,
    /// zero for failed ones) differ from the base graph's. Returns
    /// `None` on a non-finite or negative capacity.
    pub fn with_caps(caps: Vec<f64>) -> Option<Self> {
        if caps.iter().any(|&c| !c.is_finite() || c < 0.0) {
            return None;
        }
        let load = vec![0.0; caps.len()];
        Some(ResidualCaps { caps, load })
    }

    /// Number of tracked edges.
    pub fn len(&self) -> usize {
        self.caps.len()
    }

    /// True when the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.caps.is_empty()
    }

    /// Base capacity of `e`.
    #[inline]
    pub fn capacity(&self, e: EdgeId) -> f64 {
        self.caps[e.index()]
    }

    /// Demand currently committed through `e`.
    #[inline]
    pub fn load(&self, e: EdgeId) -> f64 {
        self.load[e.index()]
    }

    /// Residual capacity of `e`, clamped at zero (floating-point release
    /// noise cannot produce a negative residual).
    #[inline]
    pub fn residual(&self, e: EdgeId) -> f64 {
        (self.caps[e.index()] - self.load[e.index()]).max(0.0)
    }

    /// All residual capacities, in edge-id order.
    pub fn residuals(&self) -> Vec<f64> {
        (0..self.caps.len())
            .map(|e| self.residual(EdgeId(e as u32)))
            .collect()
    }

    /// Residual capacities masked for an out-of-band solver: the
    /// residual of every edge whose `usable` flag is set, `0.0`
    /// elsewhere — the frozen "effective network" view a regret oracle
    /// prices against (`ufp_lp::solve_fractional_ufp_with_caps` treats
    /// zero-capacity edges as absent). Purely a read-out; the tracker
    /// itself is never touched by oracle runs.
    pub fn oracle_caps(&self, usable: &[bool]) -> Vec<f64> {
        assert_eq!(usable.len(), self.caps.len(), "one flag per edge");
        (0..self.caps.len())
            .map(|e| {
                if usable[e] {
                    self.residual(EdgeId(e as u32))
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Committed per-edge loads in edge-id order — the serializable half
    /// of the tracker (capacities are derivable from the graph). Feed the
    /// exact values back through [`ResidualCaps::import`] to reconstruct
    /// a bit-identical tracker.
    pub fn loads(&self) -> &[f64] {
        &self.load
    }

    /// Rebuild a tracker over `graph` from loads exported by
    /// [`ResidualCaps::loads`]. Returns `None` when `loads` does not
    /// match the graph's edge count, contains a non-finite or negative
    /// entry, or exceeds an edge's capacity beyond floating-point
    /// commit/release residue (a committed tracker is always feasible,
    /// so an over-capacity load can only come from corrupted or forged
    /// state and must not restore into a negative-residual network) —
    /// callers restoring persisted state turn the `None` into their own
    /// typed error instead of panicking.
    pub fn import(graph: &Graph, loads: Vec<f64>) -> Option<Self> {
        let caps: Vec<f64> = graph.edges().iter().map(|e| e.capacity).collect();
        Self::import_with_caps(caps, loads)
    }

    /// [`ResidualCaps::import`] against an explicit capacity vector —
    /// restoring persisted loads onto a *mutated* topology, where the
    /// feasibility bound is the effective capacity, not the base
    /// graph's. Same validation and `None` semantics.
    pub fn import_with_caps(caps: Vec<f64>, loads: Vec<f64>) -> Option<Self> {
        if loads.len() != caps.len() {
            return None;
        }
        if caps.iter().any(|&c| !c.is_finite() || c < 0.0) {
            return None;
        }
        let feasible = |l: f64, c: f64| l.is_finite() && l >= 0.0 && l <= c * (1.0 + 1e-9) + 1e-9;
        if loads.iter().zip(&caps).any(|(&l, &c)| !feasible(l, c)) {
            return None;
        }
        Some(ResidualCaps { caps, load: loads })
    }

    /// The per-edge *usable* mask for an epoch with residual floor
    /// `floor`: an edge participates when it carries no committed
    /// traffic (up to [`LOAD_EPSILON`] of commit/release float residue)
    /// or its residual still clears the floor. Centralized here because
    /// every consumer — an epoch's frozen context and the sharded
    /// cross-shard pass — must apply the *identical* rule for the
    /// sharded/single bit-identity contract to hold.
    pub fn usable_mask(&self, floor: f64) -> Vec<bool> {
        (0..self.caps.len())
            .map(|e| {
                let e = EdgeId(e as u32);
                self.load(e) <= LOAD_EPSILON || self.residual(e) >= floor
            })
            .collect()
    }

    /// Fraction of capacity in use on `e` (`load / cap`, in `[0, 1]` up
    /// to floating-point noise).
    #[inline]
    pub fn utilization(&self, e: EdgeId) -> f64 {
        self.load[e.index()] / self.caps[e.index()]
    }

    /// Commit `demand` along every edge of `path`.
    pub fn commit(&mut self, path: &Path, demand: f64) {
        debug_assert!(demand >= 0.0);
        for &e in path.edges() {
            self.load[e.index()] += demand;
        }
    }

    /// Release `demand` along every edge of `path` (churn / expiry).
    /// Loads are clamped at zero against release noise.
    pub fn release(&mut self, path: &Path, demand: f64) {
        debug_assert!(demand >= 0.0);
        for &e in path.edges() {
            let l = &mut self.load[e.index()];
            *l = (*l - demand).max(0.0);
        }
    }

    /// Smallest residual capacity (`B` of the residual network).
    pub fn min_residual(&self) -> f64 {
        (0..self.caps.len())
            .map(|e| self.residual(EdgeId(e as u32)))
            .fold(f64::INFINITY, f64::min)
    }

    /// Total committed load divided by total capacity.
    pub fn total_utilization(&self) -> f64 {
        let cap: f64 = self.caps.iter().sum();
        if cap <= 0.0 {
            return 0.0;
        }
        self.load.iter().sum::<f64>() / cap
    }

    /// Histogram of per-edge utilization over `buckets` equal-width bins
    /// spanning `[0, 1]`; utilization `1.0` lands in the last bin.
    pub fn utilization_histogram(&self, buckets: usize) -> Vec<usize> {
        assert!(buckets >= 1);
        let mut hist = vec![0usize; buckets];
        for e in 0..self.caps.len() {
            let u = self.utilization(EdgeId(e as u32)).clamp(0.0, 1.0);
            let b = ((u * buckets as f64) as usize).min(buckets - 1);
            hist[b] += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::ids::NodeId;

    fn chain(caps: &[f64]) -> (Graph, Path) {
        let mut b = GraphBuilder::directed(caps.len() + 1);
        for (i, &c) in caps.iter().enumerate() {
            b.add_edge(NodeId(i as u32), NodeId(i as u32 + 1), c);
        }
        let g = b.build();
        let path = Path::new(
            (0..=caps.len()).map(|i| NodeId(i as u32)).collect(),
            (0..caps.len()).map(|i| EdgeId(i as u32)).collect(),
        );
        (g, path)
    }

    #[test]
    fn commit_and_release_roundtrip() {
        let (g, p) = chain(&[4.0, 8.0]);
        let mut r = ResidualCaps::new(&g);
        assert_eq!(r.min_residual(), 4.0);
        r.commit(&p, 1.5);
        assert_eq!(r.residual(EdgeId(0)), 2.5);
        assert_eq!(r.residual(EdgeId(1)), 6.5);
        assert_eq!(r.load(EdgeId(0)), 1.5);
        r.release(&p, 1.5);
        assert_eq!(r.residual(EdgeId(0)), 4.0);
        assert_eq!(r.load(EdgeId(1)), 0.0);
    }

    #[test]
    fn residuals_clamp_at_zero() {
        let (g, p) = chain(&[1.0]);
        let mut r = ResidualCaps::new(&g);
        r.commit(&p, 1.0);
        r.commit(&p, 1e-12); // fp overshoot
        assert_eq!(r.residual(EdgeId(0)), 0.0);
        r.release(&p, 5.0); // over-release clamps too
        assert_eq!(r.load(EdgeId(0)), 0.0);
    }

    #[test]
    fn export_import_is_bit_identical() {
        let (g, p) = chain(&[4.0, 8.0, 2.0]);
        let mut r = ResidualCaps::new(&g);
        r.commit(&p, 0.1 + 0.2); // deliberately noisy f64 value
        r.commit(&p, 1.0 / 3.0);
        r.release(&p, 0.1);
        let restored = ResidualCaps::import(&g, r.loads().to_vec()).expect("valid export");
        for e in 0..g.num_edges() {
            let e = EdgeId(e as u32);
            assert_eq!(restored.load(e).to_bits(), r.load(e).to_bits());
            assert_eq!(restored.residual(e).to_bits(), r.residual(e).to_bits());
            assert_eq!(restored.capacity(e).to_bits(), r.capacity(e).to_bits());
        }
        // And the restored tracker keeps evolving identically.
        let mut a = r.clone();
        let mut b = restored;
        a.commit(&p, 0.7);
        b.commit(&p, 0.7);
        assert_eq!(a.loads(), b.loads());
    }

    #[test]
    fn import_rejects_bad_exports() {
        let (g, _) = chain(&[4.0, 8.0]);
        assert!(ResidualCaps::import(&g, vec![0.0]).is_none(), "length");
        assert!(
            ResidualCaps::import(&g, vec![0.0, f64::NAN]).is_none(),
            "non-finite"
        );
        assert!(
            ResidualCaps::import(&g, vec![0.0, -1.0]).is_none(),
            "negative"
        );
        // Loads beyond capacity (caps are 4 and 8 here) cannot come from
        // a committed tracker; fp residue at the boundary is tolerated.
        assert!(
            ResidualCaps::import(&g, vec![0.0, 9.0]).is_none(),
            "over capacity"
        );
        assert!(ResidualCaps::import(&g, vec![4.0 + 1e-12, 8.0]).is_some());
        assert!(ResidualCaps::import(&g, vec![1.0, 2.0]).is_some());
    }

    #[test]
    fn explicit_caps_track_effective_topology() {
        let (_, p) = chain(&[4.0, 8.0]);
        // Edge 0 resized down to 1.0, edge 1 failed (capacity 0).
        let mut r = ResidualCaps::with_caps(vec![1.0, 0.0]).expect("valid caps");
        assert_eq!(r.capacity(EdgeId(0)), 1.0);
        assert_eq!(r.residual(EdgeId(1)), 0.0);
        r.commit(&p, 0.5);
        assert_eq!(r.residual(EdgeId(0)), 0.5);
        assert!(ResidualCaps::with_caps(vec![1.0, f64::NAN]).is_none());
        assert!(ResidualCaps::with_caps(vec![-1.0]).is_none());
        // import_with_caps bounds loads by the effective capacities.
        assert!(ResidualCaps::import_with_caps(vec![1.0, 0.0], vec![0.5, 0.0]).is_some());
        assert!(
            ResidualCaps::import_with_caps(vec![1.0, 0.0], vec![0.5, 0.1]).is_none(),
            "load on a failed edge"
        );
        assert!(
            ResidualCaps::import_with_caps(vec![1.0], vec![0.5, 0.0]).is_none(),
            "length mismatch"
        );
    }

    #[test]
    fn oracle_caps_mask_unusable_edges() {
        let (g, p) = chain(&[4.0, 8.0, 2.0]);
        let mut r = ResidualCaps::new(&g);
        r.commit(&p, 1.0);
        let caps = r.oracle_caps(&[true, false, true]);
        assert_eq!(caps, vec![3.0, 0.0, 1.0]);
        // Read-out only: the tracker is unchanged.
        assert_eq!(r.loads(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn utilization_histogram_buckets() {
        let (g, _) = chain(&[10.0, 10.0, 10.0, 10.0]);
        let mut r = ResidualCaps::new(&g);
        // loads: 0%, 50%, 95%, 100%
        let one = |e: u32| Path::new(vec![NodeId(e), NodeId(e + 1)], vec![EdgeId(e)]);
        r.commit(&one(1), 5.0);
        r.commit(&one(2), 9.5);
        r.commit(&one(3), 10.0);
        let h = r.utilization_histogram(10);
        assert_eq!(h.iter().sum::<usize>(), 4);
        assert_eq!(h[0], 1);
        assert_eq!(h[5], 1);
        assert_eq!(h[9], 2, "95% and 100% share the last bucket: {h:?}");
        assert!((r.total_utilization() - 24.5 / 40.0).abs() < 1e-12);
    }
}
