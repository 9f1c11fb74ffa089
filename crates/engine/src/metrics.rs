//! Running engine metrics.

use std::time::Duration;

/// Cumulative counters plus per-batch latency series. Counters are
/// deterministic functions of the input stream; latencies are wall-clock
/// and excluded from any determinism guarantee.
#[derive(Clone, Debug, Default)]
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
    /// Ring buffer of recent per-batch wall-clock latencies (µs) in
    /// arrival order — bounded so a long-lived engine's metrics stay
    /// O(1) memory; percentiles describe the most recent
    /// [`LATENCY_WINDOW`] batches.
    pub(crate) batch_latency_us: Vec<u64>,
    /// Next write position in the ring buffer.
    pub(crate) latency_cursor: usize,
    /// The same window kept sorted ascending, maintained incrementally
    /// (one binary-searched remove + insert per batch), so percentile
    /// queries are O(1) array lookups instead of clone + sort of the
    /// whole window per query.
    pub(crate) sorted_latency_us: Vec<u64>,
    /// Lifetime sum of batch latencies (µs), for throughput.
    pub(crate) total_latency_us: u64,
}

/// Number of recent batches the latency percentiles cover.
pub const LATENCY_WINDOW: usize = 4096;

impl EngineMetrics {
    /// Record one completed batch.
    pub(crate) fn record_batch(
        &mut self,
        arrivals: usize,
        accepted: usize,
        released: usize,
        value: f64,
        revenue: f64,
        elapsed: Duration,
    ) {
        self.epochs += 1;
        self.arrivals += arrivals as u64;
        self.accepted += accepted as u64;
        self.rejected += (arrivals - accepted) as u64;
        self.released += released as u64;
        self.value_admitted += value;
        self.revenue += revenue;
        let us = elapsed.as_micros() as u64;
        self.total_latency_us += us;
        if self.batch_latency_us.len() < LATENCY_WINDOW {
            self.batch_latency_us.push(us);
        } else {
            // Window full: the overwritten sample leaves the sorted view.
            let evicted = self.batch_latency_us[self.latency_cursor];
            let at = self.sorted_latency_us.partition_point(|&x| x < evicted);
            debug_assert_eq!(self.sorted_latency_us[at], evicted);
            self.sorted_latency_us.remove(at);
            self.batch_latency_us[self.latency_cursor] = us;
        }
        let at = self.sorted_latency_us.partition_point(|&x| x <= us);
        self.sorted_latency_us.insert(at, us);
        self.latency_cursor = (self.latency_cursor + 1) % LATENCY_WINDOW;
    }

    /// Rebuild metrics from snapshot fields, re-deriving the sorted
    /// latency view (it is a pure function of the ring buffer: the same
    /// multiset, ascending). Returns `None` when the fields violate a
    /// structural invariant, so the snapshot codec can surface a typed
    /// error instead of panicking.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_snapshot(
        epochs: u64,
        arrivals: u64,
        accepted: u64,
        rejected: u64,
        released: u64,
        evicted: u64,
        value_admitted: f64,
        revenue: f64,
        refunded: f64,
        total_latency_us: u64,
        latency_cursor: usize,
        batch_latency_us: Vec<u64>,
    ) -> Option<Self> {
        if accepted.checked_add(rejected) != Some(arrivals) {
            return None;
        }
        if batch_latency_us.len() > LATENCY_WINDOW {
            return None;
        }
        let cursor_ok = if batch_latency_us.len() < LATENCY_WINDOW {
            // Still filling: the cursor trails the push count exactly.
            latency_cursor == batch_latency_us.len()
        } else {
            latency_cursor < LATENCY_WINDOW
        };
        if !cursor_ok {
            return None;
        }
        if !value_admitted.is_finite() || !revenue.is_finite() || !refunded.is_finite() {
            return None;
        }
        let mut sorted_latency_us = batch_latency_us.clone();
        sorted_latency_us.sort_unstable();
        Some(EngineMetrics {
            epochs,
            arrivals,
            accepted,
            rejected,
            released,
            evicted,
            value_admitted,
            revenue,
            refunded,
            batch_latency_us,
            latency_cursor,
            sorted_latency_us,
            total_latency_us,
        })
    }

    /// Fraction of all arrivals admitted (0 when nothing arrived).
    pub fn acceptance_rate(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.accepted as f64 / self.arrivals as f64
        }
    }

    /// Latency percentile over the most recent [`LATENCY_WINDOW`]
    /// batches, in microseconds (`p` in `[0, 100]`); `None` before the
    /// first batch. O(1): reads the incrementally-maintained sorted
    /// window directly.
    pub fn latency_percentile_us(&self, p: f64) -> Option<u64> {
        let sorted = &self.sorted_latency_us;
        if sorted.is_empty() {
            return None;
        }
        let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
        Some(sorted[rank.min(sorted.len() - 1)])
    }

    /// Median per-batch latency in microseconds.
    pub fn p50_latency_us(&self) -> Option<u64> {
        self.latency_percentile_us(50.0)
    }

    /// Tail (p99) per-batch latency in microseconds.
    pub fn p99_latency_us(&self) -> Option<u64> {
        self.latency_percentile_us(99.0)
    }

    /// Lifetime sum of per-batch wall-clock latencies in microseconds —
    /// the engine's total time spent inside epochs.
    pub fn total_latency_us(&self) -> u64 {
        self.total_latency_us
    }

    /// Wall-clock latency of the most recent batch in microseconds
    /// (`None` before the first batch).
    pub fn last_latency_us(&self) -> Option<u64> {
        if self.batch_latency_us.is_empty() {
            return None;
        }
        let last = (self.latency_cursor + LATENCY_WINDOW - 1) % LATENCY_WINDOW;
        // While the window is still filling, the cursor equals the push
        // count, so the most recent sample sits just below it.
        let idx = if self.batch_latency_us.len() < LATENCY_WINDOW {
            self.batch_latency_us.len() - 1
        } else {
            last
        };
        Some(self.batch_latency_us[idx])
    }

    /// Throughput over all completed batches: requests per second of
    /// engine wall-clock (admitted + rejected both count — admission
    /// control does work for either outcome).
    pub fn requests_per_second(&self) -> Option<f64> {
        if self.total_latency_us == 0 {
            return None;
        }
        Some(self.arrivals as f64 / (self.total_latency_us as f64 / 1e6))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = EngineMetrics::default();
        m.record_batch(10, 7, 1, 14.0, 3.5, Duration::from_micros(100));
        m.record_batch(10, 3, 0, 6.0, 0.0, Duration::from_micros(300));
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
    fn latency_percentiles() {
        let mut m = EngineMetrics::default();
        assert!(m.p50_latency_us().is_none());
        for us in [100u64, 200, 300, 400, 1000] {
            m.record_batch(1, 1, 0, 1.0, 0.0, Duration::from_micros(us));
        }
        assert_eq!(m.p50_latency_us(), Some(300));
        assert_eq!(m.p99_latency_us(), Some(1000));
        assert_eq!(m.latency_percentile_us(0.0), Some(100));
        let rps = m.requests_per_second().unwrap();
        assert!((rps - 5.0 / 0.002).abs() < 1e-6);
    }

    #[test]
    fn percentiles_track_the_sliding_window() {
        // Overfill the window: the sorted view must follow evictions
        // exactly (oldest samples leave as new ones arrive).
        let mut m = EngineMetrics::default();
        for i in 0..(LATENCY_WINDOW + 500) {
            m.record_batch(1, 1, 0, 1.0, 0.0, Duration::from_micros(i as u64));
        }
        // Window now holds exactly 500..LATENCY_WINDOW + 500.
        assert_eq!(m.latency_percentile_us(0.0), Some(500));
        assert_eq!(
            m.latency_percentile_us(100.0),
            Some((LATENCY_WINDOW + 499) as u64)
        );
        assert_eq!(m.p50_latency_us(), Some(500 + 2048));
    }

    #[test]
    fn snapshot_round_trip_preserves_percentiles() {
        let mut m = EngineMetrics::default();
        for i in 0..(LATENCY_WINDOW + 37) {
            m.record_batch(
                2,
                1,
                0,
                1.5,
                0.25,
                Duration::from_micros((i * 7 % 991) as u64),
            );
        }
        let restored = EngineMetrics::from_snapshot(
            m.epochs,
            m.arrivals,
            m.accepted,
            m.rejected,
            m.released,
            m.evicted,
            m.value_admitted,
            m.revenue,
            m.refunded,
            m.total_latency_us,
            m.latency_cursor,
            m.batch_latency_us.clone(),
        )
        .expect("valid snapshot");
        assert_eq!(restored.sorted_latency_us, m.sorted_latency_us);
        for p in [0.0, 25.0, 50.0, 99.0, 100.0] {
            assert_eq!(
                restored.latency_percentile_us(p),
                m.latency_percentile_us(p)
            );
        }
        assert_eq!(restored.revenue.to_bits(), m.revenue.to_bits());
        assert_eq!(
            restored.value_admitted.to_bits(),
            m.value_admitted.to_bits()
        );
        // Restored metrics keep recording identically (same evictions).
        let mut a = m;
        let mut b = restored;
        for i in 0..10u64 {
            a.record_batch(1, 1, 0, 1.0, 0.0, Duration::from_micros(i));
            b.record_batch(1, 1, 0, 1.0, 0.0, Duration::from_micros(i));
        }
        assert_eq!(a.sorted_latency_us, b.sorted_latency_us);
        assert_eq!(a.latency_cursor, b.latency_cursor);
    }

    #[test]
    fn snapshot_rejects_inconsistent_fields() {
        // accepted + rejected must equal arrivals.
        assert!(
            EngineMetrics::from_snapshot(1, 5, 3, 1, 0, 0, 0.0, 0.0, 0.0, 10, 1, vec![10])
                .is_none()
        );
        // Cursor must trail the ring while it is filling.
        assert!(
            EngineMetrics::from_snapshot(1, 1, 1, 0, 0, 0, 0.0, 0.0, 0.0, 10, 5, vec![10])
                .is_none()
        );
        // Over-full window.
        assert!(EngineMetrics::from_snapshot(
            1,
            1,
            1,
            0,
            0,
            0,
            0.0,
            0.0,
            0.0,
            0,
            0,
            vec![0; LATENCY_WINDOW + 1]
        )
        .is_none());
        // Non-finite accounting.
        assert!(EngineMetrics::from_snapshot(
            1,
            1,
            1,
            0,
            0,
            0,
            f64::NAN,
            0.0,
            0.0,
            10,
            1,
            vec![10]
        )
        .is_none());
        assert!(EngineMetrics::from_snapshot(
            1,
            1,
            1,
            0,
            0,
            0,
            0.0,
            0.0,
            f64::INFINITY,
            10,
            1,
            vec![10]
        )
        .is_none());
        assert!(
            EngineMetrics::from_snapshot(1, 1, 1, 0, 0, 0, 0.0, 0.0, 0.0, 10, 1, vec![10])
                .is_some()
        );
    }

    #[test]
    fn empty_window_has_no_percentiles() {
        let m = EngineMetrics::default();
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert!(m.latency_percentile_us(p).is_none());
        }
        assert!(m.p50_latency_us().is_none());
        assert!(m.p99_latency_us().is_none());
        assert!(m.last_latency_us().is_none());
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut m = EngineMetrics::default();
        m.record_batch(1, 1, 0, 1.0, 0.0, Duration::from_micros(777));
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(m.latency_percentile_us(p), Some(777));
        }
        assert_eq!(m.last_latency_us(), Some(777));
        assert_eq!(m.sorted_latency_us, vec![777]);
    }

    #[test]
    fn exact_ring_wrap_at_latency_window() {
        // Fill to exactly LATENCY_WINDOW: the cursor wraps to 0 and the
        // window is complete with no eviction yet.
        let mut m = EngineMetrics::default();
        for i in 0..LATENCY_WINDOW {
            m.record_batch(1, 1, 0, 1.0, 0.0, Duration::from_micros(i as u64));
        }
        assert_eq!(m.batch_latency_us.len(), LATENCY_WINDOW);
        assert_eq!(m.latency_cursor, 0);
        assert_eq!(m.latency_percentile_us(0.0), Some(0));
        assert_eq!(
            m.latency_percentile_us(100.0),
            Some((LATENCY_WINDOW - 1) as u64)
        );
        assert_eq!(m.last_latency_us(), Some((LATENCY_WINDOW - 1) as u64));
        // The very next record evicts exactly the oldest sample (0).
        m.record_batch(
            1,
            1,
            0,
            1.0,
            0.0,
            Duration::from_micros(LATENCY_WINDOW as u64),
        );
        assert_eq!(m.sorted_latency_us.len(), LATENCY_WINDOW);
        assert_eq!(m.latency_cursor, 1);
        assert_eq!(m.latency_percentile_us(0.0), Some(1));
        assert_eq!(m.latency_percentile_us(100.0), Some(LATENCY_WINDOW as u64));
    }

    #[test]
    fn sorted_window_invariant_survives_from_snapshot() {
        // A restored metrics object must keep its incrementally
        // maintained sorted view equal to a fresh sort of the ring
        // buffer as recording continues through wrap-around (duplicate
        // values included, to exercise the tie-handling insert/remove).
        let mut m = EngineMetrics::default();
        for i in 0..(LATENCY_WINDOW - 3) {
            m.record_batch(1, 1, 0, 1.0, 0.0, Duration::from_micros((i % 17) as u64));
        }
        let mut restored = EngineMetrics::from_snapshot(
            m.epochs,
            m.arrivals,
            m.accepted,
            m.rejected,
            m.released,
            m.evicted,
            m.value_admitted,
            m.revenue,
            m.refunded,
            m.total_latency_us,
            m.latency_cursor,
            m.batch_latency_us.clone(),
        )
        .expect("valid snapshot");
        for i in 0..20u64 {
            restored.record_batch(1, 1, 0, 1.0, 0.0, Duration::from_micros(i % 5));
            let mut expect = restored.batch_latency_us.clone();
            expect.sort_unstable();
            assert_eq!(restored.sorted_latency_us, expect, "after record {i}");
        }
    }

    #[test]
    fn empty_rates() {
        let m = EngineMetrics::default();
        assert_eq!(m.acceptance_rate(), 0.0);
        assert!(m.requests_per_second().is_none());
    }
}
