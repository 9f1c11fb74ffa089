//! Engine configuration.

use ufp_core::BoundedUfpConfig;
use ufp_obs::Recorder;
use ufp_par::Pool;

/// How winners are charged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PaymentPolicy {
    /// No payments (pure admission control); revenue stays 0.
    None,
    /// Critical-value payments against the epoch's frozen residual state
    /// (Theorem 2.3 applied per epoch). Each winner `r` is priced
    /// exactly, by one resume of the epoch's recorded run from the step
    /// that selected it, with `r` masked out:
    /// `p_r = min_t d_r·|p_r^t| / s_t` over that `r`-absent run's steps,
    /// where `s_t` is step `t`'s argmin score and `|p_r^t|` is `r`'s
    /// shortest-path length then ([`ufp_core::critical_value_exact`]).
    /// If the run ends by exhaustion or for want of paths while the
    /// guard is open and `r` still has a path, `p_r = 0`; thresholds
    /// below [`ufp_core::VALUE_FLOOR`] are 0, and `p_r ≤ v_r`.
    /// Independent winners fan out across the engine's worker pool with
    /// deterministic ordering.
    ///
    /// Critical-value bisection over full re-runs
    /// (`ufp_mechanism::critical_value` on the test suites'
    /// `EpochAllocator`, `tests/common/mod.rs`)
    /// is the test oracle: `p ≤ p_bisect ≤ p·(1+tol)`, with `tol` the
    /// oracle's own `ufp_mechanism::PaymentConfig::relative_tolerance`.
    CriticalValue,
}

impl PaymentPolicy {
    /// Critical-value payments.
    pub fn critical_value() -> Self {
        PaymentPolicy::CriticalValue
    }

    /// Snapshot-fingerprint of the policy: its class.
    pub(crate) fn fingerprint(&self) -> u8 {
        match self {
            PaymentPolicy::None => 0,
            PaymentPolicy::CriticalValue => 1,
        }
    }
}

/// When does a consumed edge stop participating in an epoch?
///
/// The guard bound `B` is the *minimum usable residual capacity*, and the
/// admission threshold `e^{ε(B−1)}` must stay above the initial dual mass
/// `≈ m`. A single drained edge that remains usable therefore throttles
/// admission for the whole network (`ε(B−1) < ln m` ⇒ every epoch
/// guard-trips immediately). The floor controls that trade-off.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ResidualFloor {
    /// Freeze edges whose residual drops below `ln(m)/ε²` — the paper's
    /// large-capacity regime bound, so the per-epoch approximation
    /// guarantee keeps applying to the edges still in play. Hot edges
    /// stop accepting new flow while they are still partially free, but
    /// the rest of the network keeps admitting. The default.
    Regime,
    /// Freeze only edges whose residual cannot fit a normalized demand
    /// (`< 1`). Maximizes achievable utilization but lets one nearly-full
    /// edge throttle global admission; useful for small networks and for
    /// equivalence testing.
    Permissive,
    /// Fixed floor (must be ≥ 1, the normalized maximum demand).
    Fixed(f64),
}

impl ResidualFloor {
    /// The concrete floor for a graph with `num_edges` edges under
    /// accuracy `epsilon`.
    pub fn resolve(&self, num_edges: usize, epsilon: f64) -> f64 {
        match *self {
            ResidualFloor::Regime => {
                ((num_edges.max(2) as f64).ln() / (epsilon * epsilon)).max(1.0)
            }
            ResidualFloor::Permissive => 1.0,
            ResidualFloor::Fixed(f) => f,
        }
    }
}

/// Auction-health accounting knobs: the out-of-band regret oracle,
/// admission-latency SLO, readmission starvation, and eviction-storm
/// watermarks. Everything here is observability — it reads frozen
/// copies and writes only to the [`ufp_obs`] registry — so the engine's
/// deterministic outputs (admissions, payments, residuals, events,
/// snapshots) are bit-identical with any health configuration,
/// including all-off. Health knobs are deliberately **excluded from the
/// snapshot config fingerprint** for the same reason the recorder is.
///
/// Each subsystem is off at `0`; the whole layer is also inert while
/// the engine's [`ufp_obs::Recorder`] is off (health telemetry without
/// a sink would be wasted work).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HealthConfig {
    /// Run the fractional-UFP regret oracle on every `k`-th epoch
    /// (`0` = never). The oracle solves the epoch's frozen snapshot
    /// (pre-epoch residuals + the arrival batch) for the offline
    /// fractional optimum and reports the online/offline ratio into the
    /// epoch profile — strictly after the epoch bracket closes.
    pub regret_every: u64,
    /// Packing-solver accuracy for oracle runs (certified `(1+ε)`
    /// bracket).
    pub regret_epsilon: f64,
    /// Admission-latency SLO threshold in microseconds (`0` = no SLO):
    /// an epoch whose wall-clock exceeds it counts a miss and fires a
    /// [`ufp_obs::HealthAlert::SloMiss`].
    pub slo_us: u64,
    /// Readmission age (epochs spent in the queue) at which a flow
    /// counts as starved (`0` = no starvation tracking).
    pub starvation_epochs: u64,
    /// Rolling window (epochs) over which the eviction rate is averaged.
    pub eviction_window: usize,
    /// Evictions-per-epoch (averaged over the window) that trips an
    /// [`ufp_obs::HealthAlert::EvictionStorm`] (`0.0` = never).
    pub eviction_storm_threshold: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            regret_every: 0,
            regret_epsilon: 0.05,
            slo_us: 0,
            starvation_epochs: 0,
            eviction_window: 8,
            eviction_storm_threshold: 0.0,
        }
    }
}

impl HealthConfig {
    /// True when any health subsystem is switched on.
    pub fn any_enabled(&self) -> bool {
        self.regret_every > 0
            || self.slo_us > 0
            || self.starvation_epochs > 0
            || self.eviction_storm_threshold > 0.0
    }

    /// Validate field ranges (called by [`EngineConfig::validate`]).
    pub fn validate(&self) {
        assert!(
            self.regret_epsilon > 0.0 && self.regret_epsilon <= 0.5,
            "regret_epsilon must lie in (0, 0.5], got {}",
            self.regret_epsilon
        );
        assert!(
            self.eviction_window >= 1,
            "eviction_window must be at least 1, got {}",
            self.eviction_window
        );
        assert!(
            self.eviction_storm_threshold >= 0.0 && self.eviction_storm_threshold.is_finite(),
            "eviction_storm_threshold must be finite and non-negative, got {}",
            self.eviction_storm_threshold
        );
    }
}

/// Event-log granularity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventLevel {
    /// Only epoch boundaries — constant events per epoch, so a
    /// long-lived engine's log stays bounded by its epoch count. The
    /// default.
    Epoch,
    /// Epoch boundaries plus one event per admitted / rejected /
    /// released request. Opt-in: the log grows with traffic, so pair it
    /// with regular [`crate::Engine::drain_events`] drains.
    Request,
}

impl EventLevel {
    /// Snapshot-fingerprint of the level.
    pub(crate) fn fingerprint(&self) -> u8 {
        match self {
            EventLevel::Epoch => 0,
            EventLevel::Request => 1,
        }
    }
}

/// Configuration of a streaming [`crate::Engine`].
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Accuracy parameter handed to the per-epoch Bounded-UFP run.
    pub epsilon: f64,
    /// Parallelism for the mechanism's independent work: one pricing
    /// pass per winner, and one run per shard of a sharded deployment.
    /// Everything inside a pass or a shard run, and the engine's own
    /// Algorithm 1 loop, runs on the calling thread.
    pub pool: Pool,
    /// Multiplier applied to the carried dual exponents at the start of
    /// every epoch, in `[0, 1]`: `0.0` forgets congestion each epoch,
    /// `1.0` never forgets. Exponential half-life memory in between.
    pub carry_decay: f64,
    /// Consumed edges whose residual capacity falls below this floor are
    /// frozen out of the epoch (excluded from paths, from `B`, and from
    /// the guard sum). Untouched edges are always usable, so a fresh
    /// network behaves exactly like the one-shot algorithm.
    pub residual_floor: ResidualFloor,
    /// Payment computation.
    pub payments: PaymentPolicy,
    /// Event-log granularity.
    pub events: EventLevel,
    /// Retention cap for the in-engine event log. When the log reaches
    /// this many entries, the **oldest half is discarded** in one
    /// amortized-O(1) rotation and counted in
    /// [`crate::Engine::events_dropped`]; the newest `event_capacity / 2`
    /// events are always retained. Long replays at
    /// [`EventLevel::Request`] should still call
    /// [`crate::Engine::drain_events`] regularly — the cap is a memory
    /// backstop, not a delivery guarantee.
    pub event_capacity: usize,
    /// Observability recorder threaded through the epoch pipeline
    /// (spans, domain gauges, epoch profiles). Off by default and
    /// strictly out-of-band: every deterministic output is
    /// bit-identical with it on or off, and it is **excluded from the
    /// snapshot config fingerprint** — a snapshot taken while traced
    /// restores under an untraced engine and vice versa.
    pub obs: Recorder,
    /// Auction-health accounting (regret oracle, SLO, starvation,
    /// eviction storms). Inert unless `obs` is enabled; excluded from
    /// the snapshot config fingerprint like `obs` itself.
    pub health: HealthConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            epsilon: 0.3,
            pool: Pool::sequential(),
            carry_decay: 0.5,
            residual_floor: ResidualFloor::Regime,
            payments: PaymentPolicy::None,
            events: EventLevel::Epoch,
            event_capacity: 1 << 16,
            obs: Recorder::off(),
            health: HealthConfig::default(),
        }
    }
}

impl EngineConfig {
    /// Default configuration with the given ε.
    pub fn with_epsilon(epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon <= 1.0,
            "epsilon must lie in (0, 1], got {epsilon}"
        );
        EngineConfig {
            epsilon,
            ..Default::default()
        }
    }

    /// Same configuration with a parallel pool.
    pub fn parallel(mut self, pool: Pool) -> Self {
        self.pool = pool;
        self
    }

    /// Same configuration with the given payment policy.
    pub fn with_payments(mut self, payments: PaymentPolicy) -> Self {
        self.payments = payments;
        self
    }

    /// Same configuration with an observability recorder attached.
    pub fn with_obs(mut self, obs: Recorder) -> Self {
        self.obs = obs;
        self
    }

    /// Same configuration with the given health accounting knobs.
    pub fn with_health(mut self, health: HealthConfig) -> Self {
        self.health = health;
        self
    }

    /// The per-epoch allocator configuration this engine drives.
    pub fn allocator_config(&self) -> BoundedUfpConfig {
        BoundedUfpConfig::with_epsilon(self.epsilon).with_obs(self.obs.clone())
    }

    /// Validate field ranges (called by [`crate::Engine::new`]).
    pub fn validate(&self) {
        assert!(
            self.epsilon > 0.0 && self.epsilon <= 1.0,
            "epsilon must lie in (0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.carry_decay),
            "carry_decay must lie in [0, 1], got {}",
            self.carry_decay
        );
        if let ResidualFloor::Fixed(f) = self.residual_floor {
            assert!(
                f >= 1.0,
                "residual_floor must be >= 1 (the normalized max demand), got {f}"
            );
        }
        assert!(
            self.event_capacity >= 16,
            "event_capacity must be at least 16, got {}",
            self.event_capacity
        );
        self.health.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        EngineConfig::default().validate();
        EngineConfig::with_epsilon(0.5).validate();
    }

    #[test]
    #[should_panic(expected = "carry_decay")]
    fn bad_decay_rejected() {
        let cfg = EngineConfig {
            carry_decay: 1.5,
            ..Default::default()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "residual_floor")]
    fn sub_demand_floor_rejected() {
        let cfg = EngineConfig {
            residual_floor: ResidualFloor::Fixed(0.5),
            ..Default::default()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "event_capacity")]
    fn tiny_event_capacity_rejected() {
        let cfg = EngineConfig {
            event_capacity: 2,
            ..Default::default()
        };
        cfg.validate();
    }

    #[test]
    fn health_defaults_are_all_off_and_validate() {
        let h = HealthConfig::default();
        assert!(!h.any_enabled());
        h.validate();
        for on in [
            HealthConfig {
                regret_every: 4,
                ..h
            },
            HealthConfig { slo_us: 500, ..h },
            HealthConfig {
                starvation_epochs: 3,
                ..h
            },
            HealthConfig {
                eviction_storm_threshold: 2.0,
                ..h
            },
        ] {
            assert!(on.any_enabled());
            on.validate();
        }
    }

    #[test]
    #[should_panic(expected = "regret_epsilon")]
    fn bad_regret_epsilon_rejected() {
        let cfg = EngineConfig {
            health: HealthConfig {
                regret_epsilon: 0.0,
                ..HealthConfig::default()
            },
            ..Default::default()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "eviction_window")]
    fn zero_eviction_window_rejected() {
        let cfg = EngineConfig {
            health: HealthConfig {
                eviction_window: 0,
                ..HealthConfig::default()
            },
            ..Default::default()
        };
        cfg.validate();
    }

    #[test]
    fn floor_resolution() {
        let eps = 0.5;
        let regime = ResidualFloor::Regime.resolve(5000, eps);
        assert!((regime - (5000f64).ln() / 0.25).abs() < 1e-9);
        assert_eq!(ResidualFloor::Permissive.resolve(5000, eps), 1.0);
        assert_eq!(ResidualFloor::Fixed(7.0).resolve(5000, eps), 7.0);
        // Tiny graphs never resolve below the normalized max demand.
        assert!(ResidualFloor::Regime.resolve(2, 1.0) >= 1.0);
    }

    #[test]
    fn allocator_config_inherits_epsilon_and_obs() {
        let cfg = EngineConfig::with_epsilon(0.7)
            .parallel(Pool::new(3))
            .with_obs(Recorder::enabled());
        let a = cfg.allocator_config();
        assert_eq!(a.epsilon, 0.7);
        assert!(a.obs.is_enabled());
    }
}
