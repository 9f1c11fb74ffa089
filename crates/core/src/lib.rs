//! # ufp-core
//!
//! The primary contribution of *"Truthful Unsplittable Flow for Large
//! Capacity Networks"* (Azar, Gamzu, Gutner; SPAA 2007), implemented as a
//! library:
//!
//! * [`bounded_ufp()`] — Algorithm 1, the monotone deterministic
//!   primal–dual `((1+ε)·e/(e−1))`-approximation for the
//!   `Ω(ln m / ε²)`-bounded unsplittable flow problem (Theorem 3.1).
//! * [`repeat`] — Algorithm 3, the `(1+ε)`-approximation for the
//!   repetitions variant (Theorem 5.1).
//! * [`reasonable`] — the family of *reasonable iterative path-minimizing
//!   algorithms* (Definitions 3.9/3.10) as a pluggable engine, used to
//!   reproduce the `e/(e−1)` and `4/3` lower bounds (Theorems 3.11/3.12).
//! * [`baselines`] — the comparators: the previous best truthful
//!   algorithm (Briest et al., ratio → e), greedy heuristics, and
//!   non-monotone randomized rounding.
//! * [`exact`] — branch-and-bound ground truth for small instances.
//! * [`trace`] — per-run dual certificates (Claims 3.6 / 5.2): every run
//!   carries a proven upper bound on the optimum it was measured against.
//!
//! Instances are [`instance::UfpInstance`]s over [`ufp_netgraph`] graphs
//! (held behind an `Arc`, so counterfactual clones share the network);
//! monotonicity-based truthfulness (Theorem 2.3) is layered on top by the
//! `ufp-mechanism` crate.
//!
//! ## Prefix-resumed runs and exact critical values
//!
//! By Lemma 3.4's monotonicity, lowering one agent's declared value
//! cannot change any selection made *before* the step that selected that
//! agent. [`bounded_ufp_epoch_traced`] records a per-step
//! [`EpochResumeTrace`] during the real run;
//! [`EpochResumeTrace::checkpoint`] rebuilds the exact state after any
//! prefix (pure arithmetic replay, bit-identical, no shortest-path
//! work), and [`bounded_ufp_epoch_resume`] completes a run from a
//! checkpoint. [`critical_value_exact`] prices a winner with one such
//! resume, the winner masked out: its critical value is
//! `min_t d_r·|p_r^t| / s_t` over that run's steps (see [`critical`]).

pub mod baselines;
pub mod bounded_ufp;
pub mod critical;
pub mod exact;
pub mod instance;
pub mod reasonable;
pub mod repeat;
pub mod request;
pub mod selection;
pub mod solution;
pub mod trace;
pub mod weights;

pub use bounded_ufp::{
    bounded_ufp, bounded_ufp_epoch, bounded_ufp_epoch_resume, bounded_ufp_epoch_traced,
    BoundedUfpConfig, EpochCheckpoint, EpochContext, EpochOutcome, EpochResumeTrace, TraceStep,
    UfpRunResult,
};
pub use critical::critical_value_exact;
pub use exact::{exact_optimum, ExactConfig, ExactResult};
pub use instance::UfpInstance;
pub use reasonable::{
    iterative_path_minimizer, EngineConfig, EngineResult, HopScore, LengthBiasedScore, PathScore,
    PrimalDualScore, ProductScore, ScoreCtx, TieBreak,
};
pub use repeat::{bounded_ufp_repeat, RepeatConfig, RepeatRunResult};
pub use request::{Request, RequestId};
pub use solution::{FeasibilityError, UfpSolution};
pub use trace::{Certificate, IterationRecord, RunTrace, StopReason};
pub use weights::{DualWeights, DualWeightsState};
