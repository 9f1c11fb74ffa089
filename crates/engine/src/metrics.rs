//! Running engine metrics.

/// Cumulative counters, every one a deterministic function of the input
/// stream. Wall-clock timing lives on each [`crate::EpochReport`]
/// (`elapsed`), never here, so the metrics a snapshot carries are the
/// same bytes for the same stream.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineMetrics {
    /// Completed epochs.
    pub epochs: u64,
    /// Requests submitted across all batches.
    pub arrivals: u64,
    /// Requests admitted.
    pub accepted: u64,
    /// Requests rejected.
    pub rejected: u64,
    /// Admissions released by TTL expiry.
    pub released: u64,
    /// Admissions evicted by topology repairs (link failures, capacity
    /// lowers). Evictions are not TTL releases and not rejections —
    /// `accepted + rejected == arrivals` still holds.
    pub evicted: u64,
    /// Total declared value admitted.
    pub value_admitted: f64,
    /// Total payments charged.
    pub revenue: f64,
    /// Total payments refunded to evicted admissions. Net collected
    /// revenue is `revenue - refunded`; the two are kept separate so
    /// the refund audit (Σ refunds == Σ evicted payments, through the
    /// event log) stays checkable.
    pub refunded: f64,
}

impl EngineMetrics {
    /// Record one completed batch.
    pub(crate) fn record_batch(
        &mut self,
        arrivals: usize,
        accepted: usize,
        released: usize,
        value: f64,
        revenue: f64,
    ) {
        self.epochs += 1;
        self.arrivals += arrivals as u64;
        self.accepted += accepted as u64;
        self.rejected += (arrivals - accepted) as u64;
        self.released += released as u64;
        self.value_admitted += value;
        self.revenue += revenue;
    }

    /// Check metrics decoded from a snapshot. Returns `None` when the
    /// fields violate a structural invariant, so the snapshot codec can
    /// surface a typed error instead of panicking.
    pub(crate) fn validated(self) -> Option<Self> {
        let counts_ok = self.accepted.checked_add(self.rejected) == Some(self.arrivals);
        let sums_ok = self.value_admitted.is_finite()
            && self.revenue.is_finite()
            && self.refunded.is_finite();
        (counts_ok && sums_ok).then_some(self)
    }

    /// Fraction of all arrivals admitted (0 when nothing arrived).
    pub fn acceptance_rate(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.accepted as f64 / self.arrivals as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = EngineMetrics::default();
        m.record_batch(10, 7, 1, 14.0, 3.5);
        m.record_batch(10, 3, 0, 6.0, 0.0);
        assert_eq!(m.epochs, 2);
        assert_eq!(m.arrivals, 20);
        assert_eq!(m.accepted, 10);
        assert_eq!(m.rejected, 10);
        assert_eq!(m.released, 1);
        assert_eq!(m.acceptance_rate(), 0.5);
        assert_eq!(m.value_admitted, 20.0);
        assert_eq!(m.revenue, 3.5);
    }

    #[test]
    fn snapshot_rejects_inconsistent_fields() {
        let valid = EngineMetrics {
            epochs: 1,
            arrivals: 1,
            accepted: 1,
            ..EngineMetrics::default()
        };
        assert_eq!(valid.clone().validated(), Some(valid.clone()));
        // accepted + rejected must equal arrivals.
        let miscounted = EngineMetrics {
            arrivals: 5,
            accepted: 3,
            rejected: 1,
            ..valid.clone()
        };
        assert!(miscounted.validated().is_none());
        // Non-finite accounting.
        let nan_value = EngineMetrics {
            value_admitted: f64::NAN,
            ..valid.clone()
        };
        assert!(nan_value.validated().is_none());
        let inf_refund = EngineMetrics {
            refunded: f64::INFINITY,
            ..valid
        };
        assert!(inf_refund.validated().is_none());
    }

    #[test]
    fn empty_rates() {
        let m = EngineMetrics::default();
        assert_eq!(m.acceptance_rate(), 0.0);
    }
}
