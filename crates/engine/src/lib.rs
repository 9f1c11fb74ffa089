//! # ufp-engine
//!
//! A long-lived, stateful **online admission-control engine** built on the
//! monotone primal–dual allocation rule of Algorithm 1 (Azar–Gamzu–Gutner,
//! SPAA 2007). Where `ufp_core::bounded_ufp` answers one-shot batch
//! questions, this crate serves *streams*: requests arrive in batches over
//! time, capacity is consumed and (with churn) released, and congestion
//! memory persists.
//!
//! ## The epoch / residual model
//!
//! The engine advances in **epochs**. One epoch = one call to
//! [`Engine::submit_batch`], which:
//!
//! 1. **Releases** admissions whose TTL expired, returning their demand to
//!    the residual capacities (tracked by
//!    [`ufp_netgraph::ResidualCaps`]).
//! 2. **Decays** the carried dual exponents by
//!    [`EngineConfig::carry_decay`] — exponential forgetting of past
//!    congestion.
//! 3. Builds the epoch's **residual view**: effective capacity
//!    `c_e − load_e` per edge, with consumed edges under the
//!    [`EngineConfig::residual_floor`] frozen out (a saturated link must
//!    not drag the guard bound `B` to zero for the whole network).
//! 4. Runs [`ufp_core::bounded_ufp_epoch`] — the *same monotone selection
//!    rule as the paper's algorithm*, initialized from the residual view
//!    and the carried weights. Within a fresh network and a single epoch
//!    this produces the identical allocation and payments as one-shot
//!    [`ufp_core::bounded_ufp()`] (only the Claim 3.6 certificate is
//!    withheld in epoch mode), which
//!    is what makes the engine's truthfulness story inherit from
//!    Theorem 2.3: per-epoch the allocation is value-monotone, and
//!    critical-value payments are computed against the same frozen
//!    residual state the allocation saw.
//!    The same plan step prices the winners per
//!    [`EngineConfig::payments`] ([`Engine::price_trace`]).
//! 5. **Commits** accepted routes and their payments (loads, global
//!    solution, event log).
//!
//! ## Payments: exact critical values from one pass per winner
//!
//! Under [`PaymentPolicy::CriticalValue`] the epoch's allocation run is
//! *traced* ([`ufp_core::bounded_ufp_epoch_traced`]): every selection
//! step records its path and dual-weight bumps. Lowering a declared
//! value cannot change any earlier selection (Lemma 3.4), and until the
//! winner `r` is re-selected the run is the run without `r` — so one
//! resume from the step that selected `r`, with `r` masked out, yields
//! its critical value exactly: `min_t d_r·|p_r^t| / s_t` over that
//! run's steps ([`ufp_core::critical_value_exact`]). The per-winner
//! passes are independent given the frozen epoch context, so they fan
//! out across [`EngineConfig::pool`] with deterministic (winner-ordered)
//! results. Every epoch is priced where it is planned, by one
//! [`Engine::price_trace`] call: the engine's own run in
//! [`Engine::plan_epoch_in`], a sharded deployment in its
//! [`EpochPlanner`]. Critical-value bisection over full re-runs (the
//! test suites' `EpochAllocator` with `ufp_mechanism::critical_value`,
//! in `tests/common/mod.rs`) stays as the test oracle: the exact `p`
//! satisfies `p ≤ p_bisect ≤ p·(1+tol)`.
//!
//! Feasibility is inductive: epoch `k` allocates within the residual
//! capacities left by epochs `1..k`, so the cumulative active allocation
//! never violates a base capacity — [`Engine::active_solution`] passes
//! `check_feasible` at every epoch boundary, by construction and by the
//! engine's debug assertions.
//!
//! ## Identity across epochs
//!
//! Requests keep **global ids**: the engine registers every arrival in an
//! append-only registry, and [`Engine::instance`] /
//! [`Engine::cumulative_solution`] express the whole history as one
//! `UfpInstance` + `UfpSolution` pair, so offline tooling (feasibility
//! checks, value accounting, LP bounds) applies unchanged to an online
//! run.
//!
//! ## Observability
//!
//! Every epoch appends structured [`EngineEvent`]s (granularity set by
//! [`EventLevel`]) and updates the running [`EngineMetrics`]: acceptance
//! rate, carried value, revenue, refunds, and release and eviction
//! counts — deterministic counters only. Wall-clock time is reported per
//! epoch ([`EpochReport::elapsed`], which also feeds the recorder's
//! `engine.epoch_wall_us` histogram and the health SLO), never kept in
//! the book, so callers derive latency percentiles and throughput from
//! the reports they receive.
//!
//! The event log is **bounded**: at [`EngineConfig::event_capacity`]
//! entries the oldest half rotates out (tallied in
//! [`engine::Engine::events_dropped`]), so replays at
//! [`EventLevel::Request`] cannot grow memory without bound. Consumers
//! that need every event call [`engine::Engine::drain_events`] at least
//! every `event_capacity / 2` events.
//!
//! When an enabled [`ufp_obs::Recorder`] is attached, [`HealthConfig`]
//! additionally turns on **auction-health telemetry** (see the `health`
//! module): a sampled out-of-band regret oracle that bounds each epoch's
//! online value against the offline fractional optimum of the same
//! frozen snapshot, plus SLO, readmission-starvation, and
//! eviction-storm accounting. All of it is observational — a health-on
//! run is bit-identical to a health-off run in admissions, payments,
//! and residual state (`tests/obs_transparency.rs`).
//!
//! ## Durability: snapshot / restore
//!
//! A long-lived deployment must be able to die and come back without
//! replaying its whole history — and, because the paper's mechanism is
//! only truthful if recovered state is *exactly* the state that produced
//! past critical-value payments, recovery has to be **bit-identical**,
//! not merely approximately right. [`Engine::snapshot_bytes`] /
//! [`Engine::restore_from_bytes`] serialize the full engine state
//! (committed loads, carried dual exponents, request registry,
//! admissions and TTL expiries, epoch counter, event log + cursor,
//! metrics counters) through a hand-rolled, versioned, checksummed binary
//! [`codec`]; [`SnapshotStore`] manages epoch-stamped snapshot files
//! written atomically and recovers from the newest loadable one,
//! skipping files torn by a crash mid-save. Restore = load snapshot +
//! replay only the journaled arrivals after its epoch watermark; the
//! continued run's epochs, payments, and metrics are byte-identical to
//! an uninterrupted run. A snapshot holds no wall-clock value, so it is
//! a pure function of the input stream: equal streams give equal
//! snapshot bytes, and a restored-and-continued engine snapshots to the
//! unbroken run's bytes (see `tests/snapshot_recovery.rs` and the
//! adversarial decoding suite in `tests/codec_adversarial.rs`). A
//! sharded deployment snapshots through this same container: its book's
//! driver section carries the shard planner's state. A restored engine
//! whose topology fell behind the live one catches up through
//! [`Engine::migrate_to`].

#![forbid(unsafe_code)]

pub mod codec;
pub mod config;
pub mod engine;
pub mod event;
pub mod health;
pub mod metrics;
pub mod snapshot;

pub use codec::CodecError;
pub use config::{EngineConfig, EventLevel, HealthConfig, PaymentPolicy, ResidualFloor};
pub use engine::{
    Admission, Arrival, Engine, EpochPlan, EpochPlanner, EpochReport, PlannedEpoch, TopologyReport,
};
pub use event::EngineEvent;
pub use metrics::EngineMetrics;
pub use snapshot::{Recovered, SnapshotStore, TopologyMigration};
pub use ufp_netgraph::topology::{Topology, TopologyError, TopologyEvent};
