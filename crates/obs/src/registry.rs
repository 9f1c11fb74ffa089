//! The metrics registry: counters, gauges, and log₂-bucketed
//! histograms.
//!
//! Instrument storage is a plain atomic per instrument; the only lock
//! is a short [`Mutex`] around the name → instrument map, taken once
//! per *name resolution*, never per *update* if the caller holds a
//! handle. All updates use `Relaxed` ordering — metrics are advisory
//! telemetry, not synchronization, and a snapshot taken at a quiescent
//! point (epoch boundary, end of run) observes everything anyway.
//!
//! ## Histogram bucket scheme
//!
//! Buckets are powers of two keyed by bit length: value `0` lands in
//! bucket 0, and a value `v > 0` lands in bucket `bit_length(v)` —
//! i.e. bucket `i ≥ 1` covers the half-open octave `[2^{i-1}, 2^i)`,
//! except bucket 64 which also absorbs `u64::MAX`. That gives exactly
//! [`BUCKETS`] = 66 buckets, one `leading_zeros` instruction per
//! record, and bucket boundaries that are exact in every radix-2
//! float/int conversion (no accumulated rounding drift across
//! platforms). The scheme is pinned by tests below.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: bucket 0 for zero, buckets 1..=64 for
/// each bit length (see `bucket_index`).
pub const BUCKETS: usize = 65;

/// Bucket index for a recorded value: `0` for zero, else the bit
/// length of `v` (so powers of two open a fresh bucket: `2^k` is the
/// first value of bucket `k + 1`).
#[inline]
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Smallest value that lands in bucket `i`.
fn bucket_lower(i: usize) -> u64 {
    assert!(i < BUCKETS);
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Largest value that lands in bucket `i`.
fn bucket_upper(i: usize) -> u64 {
    assert!(i < BUCKETS);
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// A monotone counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge holding an `f64` (stored as bits).
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(AtomicU64::new(0f64.to_bits()))
    }
}

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A log₂-bucketed histogram (see the module docs for the scheme).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturating: a histogram that has absorbed > 2^64 total is
        // already unreadable; never wrap silently.
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(v))
            });
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Saturating sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Hits in bucket `i`.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i].load(Ordering::Relaxed)
    }

    /// Upper-bound estimate of the `p`-quantile (`0.0..=1.0`): the
    /// upper edge of the first bucket whose cumulative count reaches
    /// `ceil(p · count)`. Returns 0 on an empty histogram.
    pub fn quantile_upper(&self, p: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((p.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for i in 0..BUCKETS {
            cum += self.bucket(i);
            if cum >= target {
                return bucket_upper(i);
            }
        }
        bucket_upper(BUCKETS - 1)
    }

    /// `(bucket_lower, bucket_upper, hits)` for every non-empty bucket.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        (0..BUCKETS)
            .filter_map(|i| {
                let hits = self.bucket(i);
                (hits > 0).then(|| (bucket_lower(i), bucket_upper(i), hits))
            })
            .collect()
    }
}

/// One histogram row in a snapshot: `(name, count, sum, nonzero
/// buckets)`, buckets as `(lower, upper, hits)`.
pub type HistogramRow = (String, u64, u64, Vec<(u64, u64, u64)>);

/// Name → instrument maps. Lookup takes a short lock; the returned
/// `Arc` handles update lock-free thereafter.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap();
        if let Some(c) = map.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::default());
        map.insert(name.to_owned(), Arc::clone(&c));
        c
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().unwrap();
        if let Some(g) = map.get(name) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::default());
        map.insert(name.to_owned(), Arc::clone(&g));
        g
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().unwrap();
        if let Some(h) = map.get(name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::default());
        map.insert(name.to_owned(), Arc::clone(&h));
        h
    }

    /// True when nothing has ever been registered.
    pub fn is_empty(&self) -> bool {
        self.counters.lock().unwrap().is_empty()
            && self.gauges.lock().unwrap().is_empty()
            && self.histograms.lock().unwrap().is_empty()
    }

    /// Sorted `(name, value)` snapshot of every counter.
    pub fn counters_snapshot(&self) -> Vec<(String, u64)> {
        self.counters
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Sorted `(name, value)` snapshot of every gauge.
    pub fn gauges_snapshot(&self) -> Vec<(String, f64)> {
        self.gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Sorted `(name, count, sum, nonzero buckets)` snapshot of every
    /// histogram.
    pub fn histograms_snapshot(&self) -> Vec<HistogramRow> {
        self.histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.count(), v.sum(), v.nonzero_buckets()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_scheme_zero_and_one() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_lower(0), 0);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_lower(1), 1);
        assert_eq!(bucket_upper(1), 1);
    }

    #[test]
    fn bucket_scheme_powers_of_two_open_new_buckets() {
        // 2^k is the first value of bucket k+1; 2^k − 1 is the last of
        // bucket k — exercised at every octave edge.
        for k in 1..64usize {
            let p = 1u64 << k;
            assert_eq!(bucket_index(p), k + 1, "2^{k}");
            assert_eq!(bucket_index(p - 1), k, "2^{k} - 1");
            assert_eq!(bucket_lower(k + 1), p);
            assert_eq!(bucket_upper(k), p - 1);
        }
    }

    #[test]
    fn bucket_scheme_u64_max() {
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(64), u64::MAX);
        assert_eq!(bucket_lower(64), 1u64 << 63);
    }

    #[test]
    fn bucket_bounds_partition_the_u64_line() {
        // Each bucket's lower bound is the previous upper bound + 1.
        for i in 1..BUCKETS {
            assert_eq!(bucket_lower(i), bucket_upper(i - 1) + 1, "bucket {i}");
        }
    }

    #[test]
    fn histogram_records_edges() {
        let h = Histogram::default();
        for v in [0, 1, 2, 3, 4, (1u64 << 63) - 1, 1u64 << 63, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.bucket(0), 1); // 0
        assert_eq!(h.bucket(1), 1); // 1
        assert_eq!(h.bucket(2), 2); // 2, 3
        assert_eq!(h.bucket(3), 1); // 4
        assert_eq!(h.bucket(63), 1); // 2^63 - 1
        assert_eq!(h.bucket(64), 2); // 2^63, u64::MAX
        assert_eq!(h.sum(), u64::MAX); // saturated
    }

    #[test]
    fn histogram_quantiles() {
        let h = Histogram::default();
        assert_eq!(h.quantile_upper(0.5), 0, "empty histogram");
        for v in 0..100u64 {
            h.record(v);
        }
        // Median of 0..100 is ≤ 63 (bucket 6 upper edge).
        assert_eq!(h.quantile_upper(0.5), 63);
        assert_eq!(h.quantile_upper(1.0), 127);
        assert_eq!(h.quantile_upper(0.0), 0);
    }

    #[test]
    fn registry_handles_are_shared() {
        let r = Registry::default();
        assert!(r.is_empty());
        r.counter("a").add(2);
        r.counter("a").add(3);
        assert_eq!(r.counter("a").get(), 5);
        r.gauge("g").set(1.25);
        assert_eq!(r.gauge("g").get(), 1.25);
        assert!(!r.is_empty());
        assert_eq!(r.counters_snapshot(), vec![("a".to_owned(), 5)]);
    }
}
