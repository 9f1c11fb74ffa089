//! # ufp-auction
//!
//! The single-minded multi-unit combinatorial auction side of *"Truthful
//! Unsplittable Flow for Large Capacity Networks"* (§4 of the paper):
//!
//! * [`bounded_muca()`] — Algorithm 2, the monotone deterministic
//!   `((1+ε)·e/(e−1))`-approximation for `B = Ω(ln m/ε²)`-bounded
//!   multi-unit auctions (Theorem 4.1), monotone both in value and under
//!   bundle shrinking (the *unknown single-minded* case, Corollary 4.2).
//! * [`reasonable`] — the family of reasonable iterative
//!   bundle-minimizing algorithms (Definitions 4.3/4.4), used to
//!   reproduce the 4/3 lower bound of Theorem 4.5 on the Figure 4
//!   construction (generated by `ufp-workloads`).
//! * [`baselines`] — greedy rules (including Lehmann–O'Callaghan–Shoham
//!   √-density), a one-pass BKV-style threshold algorithm, the exact LP
//!   relaxation, LP rounding, and a branch-and-bound exact optimum.
//!
//! The MUCA problem is the special case of the paper's Figure 1 integer
//! program with a singleton path set per request (`S_r = {U_r}`) and unit
//! demands; the shared analysis is why [`bounded_muca()`] carries the same
//! per-run dual certificate as the flow algorithm.

#![forbid(unsafe_code)]

pub mod baselines;
pub mod bounded_muca;
pub mod instance;
pub mod reasonable;
pub mod weights;

pub use baselines::{
    auction_lp, bkv_auction, exact_auction_optimum, greedy_auction, rounding_auction,
    AuctionGreedyOrder,
};
pub use bounded_muca::{
    bounded_muca, BoundedMucaConfig, McaIterationRecord, McaStopReason, MucaRunResult,
};
pub use instance::{AuctionFeasibilityError, AuctionInstance, AuctionSolution, Bid, BidId, ItemId};
pub use reasonable::{
    iterative_bundle_minimizer, BundleCtx, BundleEngineConfig, BundleEngineResult, BundleScore,
    BundleSizeScore, LinearCongestionScore, MucaPrimalDualScore,
};
pub use weights::ItemWeights;
