//! `ufp_obs` — observability substrate for the UFP stack.
//!
//! One cloneable [`Recorder`] handle carries everything: a metrics
//! [`registry`] (counters, gauges, log₂-bucketed histograms), structured
//! phase [spans](trace::SpanRecord) with lock-free per-phase time
//! accumulators, and per-epoch [profiles](trace::EpochProfile). The
//! default handle is **off** — a `None` inside — and every recording
//! method starts with that check, so a disabled recorder never reads
//! the clock, touches an atomic, or takes a lock: the hot path of an
//! uninstrumented run is a branch on an already-loaded option.
//!
//! ## Determinism contract
//!
//! The recorder is strictly **out-of-band**: it observes the pipeline
//! but feeds nothing back. No allocation, payment, guard, or ordering
//! decision may read recorder state; exports go to side files, never
//! into deterministic reports. The engine's CI therefore byte-diffs
//! the deterministic JSON of a fully-traced run against an untraced
//! one — the contract is enforced, not assumed. See
//! `crates/obs/README.md` for the full statement and the span
//! taxonomy table.

#![forbid(unsafe_code)]

pub mod export;
pub mod phase;
pub mod registry;
pub mod trace;

pub use phase::{Phase, PHASE_COUNT};
pub use registry::{Counter, Gauge, Histogram, HistogramRow, Registry};
pub use trace::{EpochProfile, RegretSample, SpanRecord};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default bound on retained span records before new spans are counted
/// in `spans_dropped` instead of stored (~14 MB of records). The same
/// bound applies to epoch profiles and to alerts, each on its own.
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 18;

/// The one retention policy of spans, epoch profiles and alerts: keep
/// the first `capacity` entries and count the rest in `dropped`.
fn retain<T>(buf: &Mutex<Vec<T>>, capacity: usize, dropped: &AtomicU64, item: T) {
    let mut kept = buf.lock().unwrap();
    if kept.len() < capacity {
        kept.push(item);
    } else {
        drop(kept);
        dropped.fetch_add(1, Ordering::Relaxed);
    }
}

/// Dense per-thread id for trace attribution.
fn current_tid() -> u64 {
    use std::cell::Cell;
    static NEXT_TID: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static TID: Cell<Option<u64>> = const { Cell::new(None) };
    }
    TID.with(|slot| match slot.get() {
        Some(t) => t,
        None => {
            let t = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            slot.set(Some(t));
            t
        }
    })
}

/// A typed auction-health alert: a watched health signal crossed its
/// configured threshold in some epoch. Alerts are observability output
/// only — they are stored in the recorder, rendered by the exporters,
/// and never read back by the pipeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum HealthAlert {
    /// The rolling-window eviction rate crossed its watermark.
    EvictionStorm {
        /// Epoch the window closed on.
        epoch: u64,
        /// Evictions per epoch observed over the window.
        observed: f64,
        /// Configured watermark the observation crossed.
        threshold: f64,
    },
    /// An epoch's admission latency missed the configured SLO.
    SloMiss {
        /// The offending epoch.
        epoch: u64,
        /// Epoch admission latency in microseconds.
        observed_us: u64,
        /// Configured SLO threshold in microseconds.
        threshold_us: u64,
    },
    /// A readmission candidate aged past the starvation bound.
    Starvation {
        /// Epoch the queue was measured at.
        epoch: u64,
        /// Oldest queue age in epochs.
        observed_epochs: u64,
        /// Configured starvation bound in epochs.
        threshold_epochs: u64,
    },
}

impl HealthAlert {
    /// Stable kind label used by the exporters.
    pub fn kind(&self) -> &'static str {
        match self {
            HealthAlert::EvictionStorm { .. } => "eviction_storm",
            HealthAlert::SloMiss { .. } => "slo_miss",
            HealthAlert::Starvation { .. } => "starvation",
        }
    }

    /// The epoch the alert fired on.
    pub fn epoch(&self) -> u64 {
        match *self {
            HealthAlert::EvictionStorm { epoch, .. }
            | HealthAlert::SloMiss { epoch, .. }
            | HealthAlert::Starvation { epoch, .. } => epoch,
        }
    }
}

/// A begin-marker for one epoch bracket: wall start plus a snapshot of
/// the phase accumulators, so `epoch_end` can diff.
#[derive(Debug)]
struct EpochMark {
    epoch: u64,
    start: Instant,
    phase_ns: [u64; PHASE_COUNT],
    phase_hits: [u64; PHASE_COUNT],
}

/// The shared state behind an enabled [`Recorder`].
#[derive(Debug)]
pub struct ObsCore {
    origin: Instant,
    registry: Registry,
    phase_ns: [AtomicU64; PHASE_COUNT],
    phase_hits: [AtomicU64; PHASE_COUNT],
    spans: Mutex<Vec<SpanRecord>>,
    span_capacity: usize,
    spans_dropped: AtomicU64,
    profiles: Mutex<Vec<EpochProfile>>,
    profiles_dropped: AtomicU64,
    open_epoch: Mutex<Option<EpochMark>>,
    alerts: Mutex<Vec<HealthAlert>>,
    alerts_dropped: AtomicU64,
}

impl ObsCore {
    fn new(span_capacity: usize) -> Self {
        ObsCore {
            origin: Instant::now(),
            registry: Registry::default(),
            phase_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            phase_hits: std::array::from_fn(|_| AtomicU64::new(0)),
            spans: Mutex::new(Vec::new()),
            span_capacity,
            spans_dropped: AtomicU64::new(0),
            profiles: Mutex::new(Vec::new()),
            profiles_dropped: AtomicU64::new(0),
            open_epoch: Mutex::new(None),
            alerts: Mutex::new(Vec::new()),
            alerts_dropped: AtomicU64::new(0),
        }
    }

    fn load_phase_ns(&self) -> [u64; PHASE_COUNT] {
        std::array::from_fn(|i| self.phase_ns[i].load(Ordering::Relaxed))
    }

    fn load_phase_hits(&self) -> [u64; PHASE_COUNT] {
        std::array::from_fn(|i| self.phase_hits[i].load(Ordering::Relaxed))
    }

    fn finish_span(&self, phase: Phase, start: Instant, attr: Option<(&'static str, u64)>) {
        let end = Instant::now();
        let dur_ns = end.duration_since(start).as_nanos() as u64;
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        let i = phase.index();
        self.phase_ns[i].fetch_add(dur_ns, Ordering::Relaxed);
        self.phase_hits[i].fetch_add(1, Ordering::Relaxed);
        let record = SpanRecord {
            phase,
            start_ns,
            dur_ns,
            tid: current_tid(),
            attr,
        };
        retain(&self.spans, self.span_capacity, &self.spans_dropped, record);
    }
}

/// Everything an enabled recorder has accumulated, frozen at one
/// moment — the input to the [`export`] serializers.
#[derive(Clone, Debug)]
pub struct ObsSnapshot {
    /// Retained spans in completion order.
    pub spans: Vec<SpanRecord>,
    /// Spans discarded after the retention buffer filled.
    pub spans_dropped: u64,
    /// Sorted counter `(name, value)` pairs.
    pub counters: Vec<(String, u64)>,
    /// Sorted gauge `(name, value)` pairs.
    pub gauges: Vec<(String, f64)>,
    /// Sorted histogram rows; see [`HistogramRow`].
    pub histograms: Vec<HistogramRow>,
    /// Lifetime per-phase nanoseconds.
    pub phase_ns: [u64; PHASE_COUNT],
    /// Lifetime per-phase span counts.
    pub phase_hits: [u64; PHASE_COUNT],
    /// Retained epoch brackets in completion order.
    pub profiles: Vec<EpochProfile>,
    /// Epoch brackets discarded after the retention buffer filled.
    pub profiles_dropped: u64,
    /// Retained auction-health alerts in firing order.
    pub alerts: Vec<HealthAlert>,
    /// Alerts discarded after the retention buffer filled.
    pub alerts_dropped: u64,
}

/// The observability handle threaded through the stack. `Default` (and
/// [`Recorder::off`]) is the no-op recorder; [`Recorder::enabled`]
/// allocates shared state. Cloning shares state — every layer holding
/// a clone feeds the same registry and trace.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    core: Option<Arc<ObsCore>>,
}

/// Recorders compare equal when they share state (or are both off) —
/// this keeps `#[derive(PartialEq)]` usable on configs that carry one.
impl PartialEq for Recorder {
    fn eq(&self, other: &Self) -> bool {
        match (&self.core, &other.core) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Recorder {
    /// The no-op recorder (same as `Default`). Never observes anything.
    pub fn off() -> Self {
        Recorder { core: None }
    }

    /// An enabled recorder with the default span retention bound.
    pub fn enabled() -> Self {
        Self::enabled_with_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// An enabled recorder retaining at most `span_capacity` spans, as
    /// many epoch profiles and as many alerts (further ones are only
    /// counted as dropped).
    pub fn enabled_with_capacity(span_capacity: usize) -> Self {
        Recorder {
            core: Some(Arc::new(ObsCore::new(span_capacity))),
        }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Open a span for `phase`; the span closes (and is recorded) when
    /// the guard drops. Off recorders return an inert guard without
    /// reading the clock.
    #[inline]
    pub fn span(&self, phase: Phase) -> SpanGuard<'_> {
        self.span_inner(phase, None)
    }

    /// [`Recorder::span`] with an integer attribute attached to the
    /// emitted record (e.g. `payment.probe` suffix length).
    #[inline]
    pub fn span_attr(&self, phase: Phase, name: &'static str, value: u64) -> SpanGuard<'_> {
        self.span_inner(phase, Some((name, value)))
    }

    #[inline]
    fn span_inner(&self, phase: Phase, attr: Option<(&'static str, u64)>) -> SpanGuard<'_> {
        match &self.core {
            None => SpanGuard { inner: None },
            Some(core) => SpanGuard {
                inner: Some(SpanGuardInner {
                    core,
                    phase,
                    start: Instant::now(),
                    attr,
                }),
            },
        }
    }

    /// Add to counter `name`.
    #[inline]
    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(core) = &self.core {
            core.registry.counter(name).add(delta);
        }
    }

    /// Set gauge `name`.
    #[inline]
    pub fn gauge_set(&self, name: &str, value: f64) {
        if let Some(core) = &self.core {
            core.registry.gauge(name).set(value);
        }
    }

    /// Record into histogram `name`.
    #[inline]
    pub fn histogram_record(&self, name: &str, value: u64) {
        if let Some(core) = &self.core {
            core.registry.histogram(name).record(value);
        }
    }

    /// Open an epoch bracket: snapshots the phase accumulators so
    /// [`Recorder::epoch_end`] can attribute activity to this epoch.
    pub fn epoch_begin(&self, epoch: u64) {
        if let Some(core) = &self.core {
            let mark = EpochMark {
                epoch,
                start: Instant::now(),
                phase_ns: core.load_phase_ns(),
                phase_hits: core.load_phase_hits(),
            };
            *core.open_epoch.lock().unwrap() = Some(mark);
        }
    }

    /// Close the bracket opened by [`Recorder::epoch_begin`] and store
    /// an [`EpochProfile`]. A mismatched or missing bracket is ignored
    /// (observability must never panic the pipeline).
    pub fn epoch_end(&self, epoch: u64) {
        if let Some(core) = &self.core {
            let Some(mark) = core.open_epoch.lock().unwrap().take() else {
                return;
            };
            if mark.epoch != epoch {
                return;
            }
            let wall_ns = mark.start.elapsed().as_nanos() as u64;
            let now_ns = core.load_phase_ns();
            let now_hits = core.load_phase_hits();
            let profile = EpochProfile {
                epoch,
                wall_ns,
                phase_ns: std::array::from_fn(|i| now_ns[i].saturating_sub(mark.phase_ns[i])),
                phase_hits: std::array::from_fn(|i| now_hits[i].saturating_sub(mark.phase_hits[i])),
                regret: None,
            };
            retain(
                &core.profiles,
                core.span_capacity,
                &core.profiles_dropped,
                profile,
            );
        }
    }

    /// Attach a regret-oracle verdict to the already-stored profile of
    /// `epoch` (the oracle runs strictly after the bracket closed).
    /// Unknown or dropped epochs are ignored — observability never
    /// panics.
    pub fn profile_set_regret(&self, epoch: u64, sample: RegretSample) {
        if let Some(core) = &self.core {
            let mut profiles = core.profiles.lock().unwrap();
            if let Some(p) = profiles.iter_mut().rev().find(|p| p.epoch == epoch) {
                p.regret = Some(sample);
            }
        }
    }

    /// Record a typed auction-health alert.
    pub fn alert(&self, alert: HealthAlert) {
        if let Some(core) = &self.core {
            retain(
                &core.alerts,
                core.span_capacity,
                &core.alerts_dropped,
                alert,
            );
        }
    }

    /// Lifetime per-phase totals `(ns, hits)` — the same accumulators
    /// the epoch profiles diff. Cheap (atomic loads only), so drivers
    /// can diff across scopes the epoch bracket does not cover (e.g.
    /// the pre-epoch topology repair pass). `None` when off.
    pub fn phase_totals(&self) -> Option<([u64; PHASE_COUNT], [u64; PHASE_COUNT])> {
        self.core
            .as_ref()
            .map(|c| (c.load_phase_ns(), c.load_phase_hits()))
    }

    /// Spans discarded so far (0 when off).
    pub fn spans_dropped(&self) -> u64 {
        self.core
            .as_ref()
            .map_or(0, |c| c.spans_dropped.load(Ordering::Relaxed))
    }

    /// Direct registry access for tests and exporters (`None` when off).
    pub fn registry(&self) -> Option<&Registry> {
        self.core.as_ref().map(|c| &c.registry)
    }

    /// Freeze everything recorded so far. `None` when off.
    pub fn snapshot(&self) -> Option<ObsSnapshot> {
        let core = self.core.as_ref()?;
        Some(ObsSnapshot {
            spans: core.spans.lock().unwrap().clone(),
            spans_dropped: core.spans_dropped.load(Ordering::Relaxed),
            counters: core.registry.counters_snapshot(),
            gauges: core.registry.gauges_snapshot(),
            histograms: core.registry.histograms_snapshot(),
            phase_ns: core.load_phase_ns(),
            phase_hits: core.load_phase_hits(),
            profiles: core.profiles.lock().unwrap().clone(),
            profiles_dropped: core.profiles_dropped.load(Ordering::Relaxed),
            alerts: core.alerts.lock().unwrap().clone(),
            alerts_dropped: core.alerts_dropped.load(Ordering::Relaxed),
        })
    }
}

#[derive(Debug)]
struct SpanGuardInner<'a> {
    core: &'a ObsCore,
    phase: Phase,
    start: Instant,
    attr: Option<(&'static str, u64)>,
}

/// RAII span: records on drop. The off-recorder variant holds nothing
/// and drops to nothing.
#[derive(Debug)]
#[must_use = "a span measures the scope it lives in; dropping it immediately records ~0ns"]
pub struct SpanGuard<'a> {
    inner: Option<SpanGuardInner<'a>>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            inner.core.finish_span(inner.phase, inner.start, inner.attr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_recorder_is_side_effect_free() {
        let r = Recorder::off();
        assert!(!r.is_enabled());
        // Exercise every recording entry point.
        {
            let _g = r.span(Phase::EpochPlan);
            let _h = r.span_attr(Phase::PaymentProbe, "suffix", 7);
        }
        r.counter_add("c", 1);
        r.gauge_set("g", 2.0);
        r.histogram_record("h", 3);
        r.epoch_begin(0);
        r.epoch_end(0);
        r.profile_set_regret(
            0,
            RegretSample {
                online_value: 1.0,
                fractional_bound: 2.0,
                ratio: 0.5,
                duality_gap: 0.0,
                commodities: 1,
                iterations: 1,
            },
        );
        r.alert(HealthAlert::SloMiss {
            epoch: 0,
            observed_us: 1,
            threshold_us: 1,
        });
        assert_eq!(r.spans_dropped(), 0);
        // Nothing observable exists: no registry, no snapshot.
        assert!(r.registry().is_none());
        assert!(r.snapshot().is_none());
        // And an *enabled* recorder created afterwards starts empty —
        // the off recorder wrote to no shared/global state.
        let live = Recorder::enabled();
        let snap = live.snapshot().unwrap();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(live.registry().unwrap().is_empty());
    }

    #[test]
    fn enabled_recorder_accumulates_spans_and_metrics() {
        let r = Recorder::enabled();
        {
            let _g = r.span(Phase::SelectionDijkstra);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        {
            let _g = r.span_attr(Phase::PaymentProbe, "suffix_len", 42);
        }
        r.counter_add("probes", 2);
        r.gauge_set("guard_slack", 0.5);
        r.histogram_record("lat", 1024);
        let snap = r.snapshot().unwrap();
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.spans[0].phase, Phase::SelectionDijkstra);
        assert!(snap.spans[0].dur_ns >= 1_000_000);
        assert_eq!(snap.spans[1].attr, Some(("suffix_len", 42)));
        assert_eq!(snap.phase_hits[Phase::SelectionDijkstra.index()], 1);
        assert!(snap.phase_ns[Phase::SelectionDijkstra.index()] >= 1_000_000);
        assert_eq!(snap.counters, vec![("probes".to_owned(), 2)]);
        assert_eq!(snap.gauges, vec![("guard_slack".to_owned(), 0.5)]);
        assert_eq!(snap.histograms.len(), 1);
    }

    #[test]
    fn span_capacity_bounds_retention() {
        let r = Recorder::enabled_with_capacity(2);
        for _ in 0..5 {
            let _g = r.span(Phase::ParSteal);
        }
        let snap = r.snapshot().unwrap();
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.spans_dropped, 3);
        // Phase accumulators still saw all five.
        assert_eq!(snap.phase_hits[Phase::ParSteal.index()], 5);
    }

    /// Five epochs, each raising one alert.
    fn five_alerting_epochs(r: &Recorder) {
        for epoch in 1..=5 {
            r.epoch_begin(epoch);
            r.alert(HealthAlert::Starvation {
                epoch,
                observed_epochs: 9,
                threshold_epochs: 8,
            });
            r.epoch_end(epoch);
        }
    }

    #[test]
    fn span_capacity_bounds_profiles_and_alerts() {
        let r = Recorder::enabled_with_capacity(2);
        five_alerting_epochs(&r);
        let sample = RegretSample {
            online_value: 3.0,
            fractional_bound: 4.0,
            ratio: 0.75,
            duality_gap: 0.1,
            commodities: 7,
            iterations: 12,
        };
        // A dropped epoch takes no verdict, and nothing else changes.
        r.profile_set_regret(4, sample);
        let snap = r.snapshot().unwrap();
        let epochs: Vec<u64> = snap.profiles.iter().map(|p| p.epoch).collect();
        assert_eq!(epochs, [1, 2]);
        assert!(snap.profiles.iter().all(|p| p.regret.is_none()));
        assert_eq!(snap.profiles_dropped, 3);
        let alerted: Vec<u64> = snap.alerts.iter().map(|a| a.epoch()).collect();
        assert_eq!(alerted, [1, 2]);
        assert_eq!(snap.alerts_dropped, 3);

        let none = Recorder::enabled_with_capacity(0);
        five_alerting_epochs(&none);
        let snap = none.snapshot().unwrap();
        assert!(snap.profiles.is_empty() && snap.alerts.is_empty());
        assert_eq!((snap.profiles_dropped, snap.alerts_dropped), (5, 5));

        // The default recorder keeps them all.
        let all = Recorder::enabled();
        five_alerting_epochs(&all);
        let snap = all.snapshot().unwrap();
        assert_eq!((snap.profiles.len(), snap.alerts.len()), (5, 5));
        assert_eq!((snap.profiles_dropped, snap.alerts_dropped), (0, 0));
    }

    #[test]
    fn epoch_profiles_diff_phase_accumulators() {
        let r = Recorder::enabled();
        {
            let _g = r.span(Phase::EpochOpen);
        }
        r.epoch_begin(7);
        {
            let _g = r.span(Phase::EpochPlan);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        r.epoch_end(7);
        let snap = r.snapshot().unwrap();
        assert_eq!(snap.profiles.len(), 1);
        let p = &snap.profiles[0];
        assert_eq!(p.epoch, 7);
        // The pre-bracket EpochOpen span is excluded by the diff.
        assert_eq!(p.phase_hits[Phase::EpochOpen.index()], 0);
        assert_eq!(p.phase_hits[Phase::EpochPlan.index()], 1);
        assert!(p.wall_ns >= p.phase_ns[Phase::EpochPlan.index()]);
        // Mismatched end is ignored, not fatal.
        r.epoch_end(99);
        assert_eq!(r.snapshot().unwrap().profiles.len(), 1);
    }

    #[test]
    fn regret_attaches_to_its_epoch_profile() {
        let r = Recorder::enabled();
        r.epoch_begin(4);
        r.epoch_end(4);
        r.epoch_begin(5);
        r.epoch_end(5);
        let sample = RegretSample {
            online_value: 3.0,
            fractional_bound: 4.0,
            ratio: 0.75,
            duality_gap: 0.1,
            commodities: 7,
            iterations: 12,
        };
        r.profile_set_regret(5, sample);
        // Unknown epoch: ignored, never fatal.
        r.profile_set_regret(99, sample);
        let snap = r.snapshot().unwrap();
        assert_eq!(snap.profiles[0].regret, None);
        assert_eq!(snap.profiles[1].regret, Some(sample));
    }

    #[test]
    fn alerts_accumulate_in_firing_order() {
        let r = Recorder::enabled();
        r.alert(HealthAlert::EvictionStorm {
            epoch: 2,
            observed: 9.5,
            threshold: 4.0,
        });
        r.alert(HealthAlert::Starvation {
            epoch: 3,
            observed_epochs: 11,
            threshold_epochs: 8,
        });
        let snap = r.snapshot().unwrap();
        assert_eq!(snap.alerts.len(), 2);
        assert_eq!(snap.alerts[0].kind(), "eviction_storm");
        assert_eq!(snap.alerts[0].epoch(), 2);
        assert_eq!(snap.alerts[1].kind(), "starvation");
        // Clones share the alert stream like every other channel.
        let r2 = r.clone();
        r2.alert(HealthAlert::SloMiss {
            epoch: 4,
            observed_us: 900,
            threshold_us: 500,
        });
        assert_eq!(r.snapshot().unwrap().alerts.len(), 3);
    }

    #[test]
    fn clones_share_state() {
        let r = Recorder::enabled();
        let r2 = r.clone();
        r2.counter_add("shared", 1);
        assert_eq!(
            r.snapshot().unwrap().counters,
            vec![("shared".to_owned(), 1)]
        );
        assert_eq!(r, r2);
        assert_ne!(r, Recorder::enabled());
        assert_eq!(Recorder::off(), Recorder::default());
    }
}
