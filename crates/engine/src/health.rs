//! Out-of-band auction-health accounting.
//!
//! Three subsystems, all configured by [`HealthConfig`] and all inert
//! while the engine's recorder is off:
//!
//! * the **regret oracle** — every `k`-th epoch, the epoch's frozen
//!   snapshot (pre-epoch residual capacities masked by the usable rule,
//!   plus the arrival batch) is handed to
//!   [`ufp_lp::solve_fractional_ufp_with_caps`] for the offline
//!   fractional optimum, and the online/offline **regret ratio** is
//!   attached to the epoch's profile ([`ufp_obs::RegretSample`]). The
//!   online run is a feasible integral solution of the same LP, so
//!   `online ≤ OPT_frac ≤ upper_bound` and the ratio is ≤ 1 by
//!   construction — the live counterpart of the paper's competitive
//!   guarantee.
//! * **SLO accounting** — per-epoch admission latency against a
//!   configured threshold: a histogram, a miss counter, and a typed
//!   [`HealthAlert::SloMiss`].
//! * **starvation / storm watermarks** — ages of the readmission queue
//!   (a flow evicted by repair after repair is starving) and a rolling
//!   eviction-rate window with an [`HealthAlert::EvictionStorm`] trip
//!   wire.
//!
//! **Bit-identity contract.** Nothing here feeds back into allocation,
//! payments, or residual state: the oracle solves *clones* of frozen
//! epoch context, and every output lands in the [`ufp_obs`] registry or
//! the profile table. `engine/tests/obs_transparency.rs` pins the
//! contract — a run with every health subsystem on is byte-identical,
//! in every deterministic output, to the same run with health off.

use std::collections::VecDeque;

use ufp_lp::{
    certified_duality_gap, sanitize_commodities, solve_fractional_ufp_with_caps, Commodity,
};
use ufp_netgraph::graph::Graph;
use ufp_obs::{HealthAlert, Phase, Recorder, RegretSample};

use crate::config::HealthConfig;
use crate::engine::Arrival;

/// Packing-solver iteration cap for regret-oracle runs.
pub const REGRET_MAX_ITERATIONS: usize = 200_000;

/// Rolling window (epochs) over which the eviction rate is averaged.
pub const EVICTION_WINDOW: usize = 8;

/// Frozen inputs for one regret-oracle run, captured between plan and
/// commit (clones only — the live epoch state is never shared with the
/// oracle).
#[derive(Clone, Debug)]
pub(crate) struct RegretContext {
    /// The epoch the snapshot belongs to.
    pub(crate) epoch: u64,
    /// Pre-epoch residual capacities, already masked by the epoch's
    /// usable rule (unusable edges are zero, which the solver treats as
    /// absent).
    pub(crate) capacities: Vec<f64>,
    /// The epoch's arrival batch in LP-commodity form (not yet
    /// sanitized).
    pub(crate) commodities: Vec<Commodity>,
}

impl RegretContext {
    /// Capture a frozen oracle context from an epoch's plan data, or
    /// `None` when this epoch is not sampled (`regret_every` off, not a
    /// multiple, or the recorder disabled).
    pub(crate) fn capture(
        cfg: &HealthConfig,
        obs: &Recorder,
        epoch: u64,
        capacities: &[f64],
        usable: &[bool],
        arrivals: &[Arrival],
    ) -> Option<RegretContext> {
        if !obs.is_enabled() || cfg.regret_every == 0 || !epoch.is_multiple_of(cfg.regret_every) {
            return None;
        }
        let masked = capacities
            .iter()
            .zip(usable)
            .map(|(&c, &u)| if u { c } else { 0.0 })
            .collect();
        let commodities = arrivals
            .iter()
            .map(|a| Commodity {
                src: a.request.src,
                dst: a.request.dst,
                demand: a.request.demand,
                value: a.request.value,
            })
            .collect();
        Some(RegretContext {
            epoch,
            capacities: masked,
            commodities,
        })
    }
}

/// Run the regret oracle over a captured context and publish the
/// verdict: a [`RegretSample`] attached to the epoch's profile plus
/// registry gauges/counters. Runs on the calling thread under
/// [`Phase::HealthRegretOracle`], strictly outside the epoch bracket.
pub(crate) fn run_regret_oracle(
    graph: &Graph,
    obs: &Recorder,
    cfg: &HealthConfig,
    ctx: RegretContext,
    online_value: f64,
) {
    let _span = obs.span(Phase::HealthRegretOracle);
    let (kept, _) = sanitize_commodities(&ctx.commodities);
    let sample = if kept.is_empty() {
        // Nothing the oracle could price: the offline optimum is 0 too,
        // so by convention the epoch is "perfect" (ratio 1).
        RegretSample {
            online_value,
            fractional_bound: 0.0,
            ratio: 1.0,
            duality_gap: 0.0,
            commodities: 0,
            iterations: 0,
        }
    } else {
        let capacities = &ctx.capacities;
        let sol = solve_fractional_ufp_with_caps(
            graph,
            capacities,
            &kept,
            cfg.regret_epsilon,
            REGRET_MAX_ITERATIONS,
        );
        let bound = if sol.upper_bound.is_finite() && sol.upper_bound > 0.0 {
            sol.upper_bound
        } else {
            // No column was ever routable: offline admits nothing
            // either.
            0.0
        };
        let ratio = if bound > 0.0 {
            (online_value / bound).clamp(0.0, 1.0)
        } else {
            1.0
        };
        let duality_gap = if bound > 0.0 {
            let tol = 1e-6 * bound.max(1.0);
            certified_duality_gap(graph, capacities, &kept, &sol, tol)
                .unwrap_or((sol.upper_bound - sol.value).max(0.0))
        } else {
            0.0
        };
        RegretSample {
            online_value,
            fractional_bound: bound,
            ratio,
            duality_gap,
            commodities: kept.len(),
            iterations: sol.iterations,
        }
    };
    obs.profile_set_regret(ctx.epoch, sample);
    obs.counter_add("health.regret_samples_total", 1);
    obs.gauge_set("health.regret_ratio", sample.ratio);
    obs.gauge_set("health.regret_bound", sample.fractional_bound);
    obs.gauge_set("health.regret_online_value", sample.online_value);
}

/// Mutable health bookkeeping carried by an engine. Deliberately **not
/// snapshotted**: a restored engine starts with fresh watermarks
/// (readmission ages restart at zero, the eviction window is empty) —
/// health is telemetry about *this process's* run, not engine state.
#[derive(Clone, Debug, Default)]
pub(crate) struct HealthState {
    /// Enqueue epoch per readmission-queue entry (parallel to the
    /// engine's `readmit_queue`; cleared together with it on drain).
    pub(crate) readmit_enqueued: Vec<u64>,
    /// Rolling window of per-epoch eviction counts.
    eviction_window: VecDeque<u64>,
    /// Cumulative eviction count at the last epoch tick (to diff the
    /// engine's monotone counter into per-epoch deltas).
    evictions_seen: u64,
}

impl HealthState {
    /// A fresh state for an engine restored from a snapshot whose
    /// readmission queue holds `queued` entries: their true enqueue
    /// epochs were not persisted, so ages restart at the restore epoch.
    pub(crate) fn restored(queued: usize, epoch: u64) -> Self {
        HealthState {
            readmit_enqueued: vec![epoch; queued],
            ..Default::default()
        }
    }

    /// Record `count` flows entering the readmission queue at `epoch`
    /// (called by the repair pass; unconditional so the parallel vector
    /// stays in lockstep with the queue even while the recorder is
    /// off).
    pub(crate) fn note_readmissions(&mut self, count: usize, epoch: u64) {
        self.readmit_enqueued
            .extend(std::iter::repeat_n(epoch, count));
    }

    /// The queue was drained into the next batch.
    pub(crate) fn note_drain(&mut self) {
        self.readmit_enqueued.clear();
    }

    /// Per-epoch health tick, called after the epoch bracket closes:
    /// SLO accounting, starvation gauges, eviction-storm watermarks.
    /// No-op while the recorder is off.
    pub(crate) fn epoch_tick(
        &mut self,
        cfg: &HealthConfig,
        obs: &Recorder,
        epoch: u64,
        elapsed_us: u64,
        evictions_total: u64,
    ) {
        if !obs.is_enabled() || !cfg.any_enabled() {
            return;
        }

        // Admission-latency SLO.
        if cfg.slo_us > 0 {
            obs.histogram_record("health.admission_latency_us", elapsed_us);
            if elapsed_us > cfg.slo_us {
                obs.counter_add("health.slo_miss_total", 1);
                obs.alert(HealthAlert::SloMiss {
                    epoch,
                    observed_us: elapsed_us,
                    threshold_us: cfg.slo_us,
                });
            }
        }

        // Readmission aging / starvation.
        if cfg.starvation_epochs > 0 {
            let mut ages: Vec<u64> = self
                .readmit_enqueued
                .iter()
                .map(|&e| epoch.saturating_sub(e))
                .collect();
            ages.sort_unstable();
            let max_age = ages.last().copied().unwrap_or(0);
            let p50 = if ages.is_empty() {
                0
            } else {
                ages[ages.len() / 2]
            };
            obs.gauge_set("health.readmit_queue_depth", ages.len() as f64);
            obs.gauge_set("health.readmit_age_p50", p50 as f64);
            obs.gauge_set("health.readmit_age_max", max_age as f64);
            let starved = ages.iter().filter(|&&a| a >= cfg.starvation_epochs).count();
            if starved > 0 {
                obs.counter_add("health.starved_total", starved as u64);
                obs.alert(HealthAlert::Starvation {
                    epoch,
                    observed_epochs: max_age,
                    threshold_epochs: cfg.starvation_epochs,
                });
            }
        }

        // Eviction-storm watermark over a rolling window.
        if cfg.eviction_storm_threshold > 0.0 {
            let delta = evictions_total.saturating_sub(self.evictions_seen);
            self.evictions_seen = evictions_total;
            self.eviction_window.push_back(delta);
            while self.eviction_window.len() > EVICTION_WINDOW {
                self.eviction_window.pop_front();
            }
            let rate =
                self.eviction_window.iter().sum::<u64>() as f64 / self.eviction_window.len() as f64;
            obs.gauge_set("health.eviction_rate", rate);
            if rate >= cfg.eviction_storm_threshold {
                obs.counter_add("health.eviction_storm_total", 1);
                obs.alert(HealthAlert::EvictionStorm {
                    epoch,
                    observed: rate,
                    threshold: cfg.eviction_storm_threshold,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufp_core::Request;
    use ufp_netgraph::graph::GraphBuilder;
    use ufp_netgraph::ids::NodeId;
    use ufp_obs::Recorder;

    fn one_link(cap: f64) -> Graph {
        let mut b = GraphBuilder::directed(2);
        b.add_edge(NodeId(0), NodeId(1), cap);
        b.build()
    }

    fn arrival(demand: f64, value: f64) -> Arrival {
        Arrival::permanent(Request::new(NodeId(0), NodeId(1), demand, value))
    }

    fn sampling_cfg() -> HealthConfig {
        HealthConfig {
            regret_every: 1,
            ..HealthConfig::default()
        }
    }

    #[test]
    fn capture_respects_sampling_and_recorder() {
        let cfg = sampling_cfg();
        let off = Recorder::off();
        let on = Recorder::enabled();
        let caps = [5.0];
        let usable = [true];
        let batch = [arrival(1.0, 3.0)];
        assert!(RegretContext::capture(&cfg, &off, 1, &caps, &usable, &batch).is_none());
        assert!(RegretContext::capture(&cfg, &on, 1, &caps, &usable, &batch).is_some());
        let every3 = HealthConfig {
            regret_every: 3,
            ..cfg
        };
        assert!(RegretContext::capture(&every3, &on, 2, &caps, &usable, &batch).is_none());
        assert!(RegretContext::capture(&every3, &on, 3, &caps, &usable, &batch).is_some());
        let never = HealthConfig {
            regret_every: 0,
            ..cfg
        };
        assert!(RegretContext::capture(&never, &on, 3, &caps, &usable, &batch).is_none());
    }

    #[test]
    fn capture_masks_unusable_edges() {
        let cfg = sampling_cfg();
        let on = Recorder::enabled();
        let ctx = RegretContext::capture(
            &cfg,
            &on,
            1,
            &[5.0, 2.0],
            &[true, false],
            &[arrival(1.0, 1.0)],
        )
        .unwrap();
        assert_eq!(ctx.capacities, vec![5.0, 0.0]);
    }

    #[test]
    fn oracle_reports_unit_ratio_when_online_matches_offline() {
        // One request of value 3 on a roomy edge: online admits it, and
        // the offline fractional optimum is the same 3.
        let g = one_link(10.0);
        let obs = Recorder::enabled();
        obs.epoch_begin(1);
        obs.epoch_end(1);
        let cfg = sampling_cfg();
        let ctx =
            RegretContext::capture(&cfg, &obs, 1, &[10.0], &[true], &[arrival(1.0, 3.0)]).unwrap();
        run_regret_oracle(&g, &obs, &cfg, ctx, 3.0);
        let snap = obs.snapshot().unwrap();
        let sample = snap.profiles[0].regret.expect("sample attached");
        assert_eq!(sample.commodities, 1);
        assert!(sample.fractional_bound >= 3.0 - 1e-6);
        assert!(sample.ratio <= 1.0 && sample.ratio >= 0.9, "{sample:?}");
        assert!(sample.duality_gap >= -1e-9);
    }

    #[test]
    fn oracle_handles_empty_and_infeasible_epochs() {
        let g = one_link(10.0);
        let cfg = sampling_cfg();
        // Empty batch: bound 0, ratio 1 by convention.
        let obs = Recorder::enabled();
        obs.epoch_begin(1);
        obs.epoch_end(1);
        let ctx = RegretContext::capture(&cfg, &obs, 1, &[10.0], &[true], &[]).unwrap();
        run_regret_oracle(&g, &obs, &cfg, ctx, 0.0);
        let sample = obs.snapshot().unwrap().profiles[0].regret.unwrap();
        assert_eq!(sample.fractional_bound, 0.0);
        assert_eq!(sample.ratio, 1.0);
        assert_eq!(sample.commodities, 0);
        // All edges unusable: nothing routable for anyone, ratio 1.
        let obs = Recorder::enabled();
        obs.epoch_begin(1);
        obs.epoch_end(1);
        let ctx =
            RegretContext::capture(&cfg, &obs, 1, &[10.0], &[false], &[arrival(1.0, 3.0)]).unwrap();
        run_regret_oracle(&g, &obs, &cfg, ctx, 0.0);
        let sample = obs.snapshot().unwrap().profiles[0].regret.unwrap();
        assert_eq!(sample.fractional_bound, 0.0);
        assert_eq!(sample.ratio, 1.0);
        assert_eq!(sample.commodities, 1, "commodity was fine, network wasn't");
        // Zero accepted value under a positive bound: ratio 0.
        let obs = Recorder::enabled();
        obs.epoch_begin(1);
        obs.epoch_end(1);
        let ctx =
            RegretContext::capture(&cfg, &obs, 1, &[10.0], &[true], &[arrival(1.0, 3.0)]).unwrap();
        run_regret_oracle(&g, &obs, &cfg, ctx, 0.0);
        let sample = obs.snapshot().unwrap().profiles[0].regret.unwrap();
        assert!(sample.fractional_bound > 0.0);
        assert_eq!(sample.ratio, 0.0);
    }

    #[test]
    fn epoch_tick_accounts_slo_starvation_and_storms() {
        let obs = Recorder::enabled();
        let cfg = HealthConfig {
            slo_us: 100,
            starvation_epochs: 2,
            eviction_storm_threshold: 3.0,
            ..HealthConfig::default()
        };
        let mut st = HealthState::default();
        st.note_readmissions(2, 1);
        // Epoch 2: latency miss; queue ages = 1 (below starvation);
        // 4 evictions so far -> window [4], rate 4 >= 3 storms.
        st.epoch_tick(&cfg, &obs, 2, 250, 4);
        // Epoch 3: fast epoch; ages = 2 -> both starved; 4 more
        // evictions -> window [4, 4].
        st.epoch_tick(&cfg, &obs, 3, 50, 8);
        let snap = obs.snapshot().unwrap();
        let counter = |n: &str| {
            snap.counters
                .iter()
                .find(|(name, _)| name == n)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(counter("health.slo_miss_total"), 1);
        assert_eq!(counter("health.starved_total"), 2);
        assert_eq!(counter("health.eviction_storm_total"), 2);
        let gauge = |n: &str| {
            snap.gauges
                .iter()
                .find(|(name, _)| name == n)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(gauge("health.readmit_age_max"), 2.0);
        assert_eq!(gauge("health.eviction_rate"), 4.0);
        let kinds: Vec<&str> = snap.alerts.iter().map(|a| a.kind()).collect();
        assert_eq!(
            kinds,
            vec!["slo_miss", "eviction_storm", "starvation", "eviction_storm"]
        );
        // Drain clears the ages.
        st.note_drain();
        assert!(st.readmit_enqueued.is_empty());

        // Quiet epochs fill the window: the rate decays as the average
        // over every epoch seen so far, and no further storm trips.
        let last = EVICTION_WINDOW as u64 + 1;
        for epoch in 4..=last {
            st.epoch_tick(&cfg, &obs, epoch, 50, 8);
        }
        let rate = |obs: &Recorder| {
            let snap = obs.snapshot().unwrap();
            snap.gauges
                .iter()
                .find(|(name, _)| name == "health.eviction_rate")
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(rate(&obs), 8.0 / EVICTION_WINDOW as f64);
        // One more quiet epoch pushes epoch 2's four evictions out.
        st.epoch_tick(&cfg, &obs, last + 1, 50, 8);
        assert_eq!(rate(&obs), 4.0 / EVICTION_WINDOW as f64);
        let snap = obs.snapshot().unwrap();
        assert_eq!(snap.alerts.len(), kinds.len(), "a quiet epoch alerted");
    }

    #[test]
    fn tick_is_inert_when_recorder_off() {
        let obs = Recorder::off();
        let cfg = HealthConfig {
            slo_us: 1,
            starvation_epochs: 1,
            eviction_storm_threshold: 0.1,
            ..HealthConfig::default()
        };
        let mut st = HealthState::default();
        st.note_readmissions(3, 1);
        st.epoch_tick(&cfg, &obs, 5, 10_000, 100);
        assert!(obs.snapshot().is_none());
        // The parallel vector still tracks the queue.
        assert_eq!(st.readmit_enqueued.len(), 3);
    }

    #[test]
    fn restored_state_restarts_ages_at_the_restore_epoch() {
        let st = HealthState::restored(4, 17);
        assert_eq!(st.readmit_enqueued, vec![17; 4]);
        assert_eq!(st.evictions_seen, 0);
    }
}
