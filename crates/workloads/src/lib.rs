//! # ufp-workloads
//!
//! Instance generators for the experiment suite:
//!
//! * [`figure2()`] — the directed `e/(e−1)` lower-bound family of
//!   Theorem 3.11 (plain and subdivided tie-break-free variants), with
//!   its known optimum and predicted adversarial ratio.
//! * [`figure3()`] — the 7-vertex undirected `4/3` lower-bound instance of
//!   Theorem 3.12, with the cut structure its proof relies on.
//! * [`figure4()`] — the auction `4/3` lower-bound family of Theorem 4.5.
//! * [`random_ufp()`] — random `G(n,m)` and grid UFP workloads guaranteed
//!   to satisfy the `B ≥ ln(m)/ε²` precondition, with several demand /
//!   value models.
//! * [`auctions`] — random multi-unit auctions (uniform and Zipf item
//!   popularity) in the large-multiplicity regime.
//! * [`arrivals`] — streaming arrival-process traces for the
//!   `ufp-engine` admission controller: Poisson, diurnal sinusoid,
//!   flash-crowd bursts, and churn with request TTLs.
//! * [`sharded`] — community-structured, shard-labelled traces for the
//!   `ufp_shard` sharded engine: per-shard hotspot clusters with a
//!   tunable cross-shard traffic fraction.
//! * [`failures`] — dynamic-topology failure traces for the repair
//!   pass: random link flaps, capacity resizes, correlated regional
//!   outages, and planned drain windows, as per-epoch
//!   `TopologyEvent` batches.
//!
//! All generators are deterministic functions of their seed, so every
//! number in EXPERIMENTS.md is reproducible.

#![forbid(unsafe_code)]

pub mod arrivals;
pub mod auctions;
pub(crate) mod endpoints;
pub mod failures;
pub mod figure2;
pub mod figure3;
pub mod figure4;
pub mod random_ufp;
pub mod sharded;

pub use arrivals::{arrival_trace, poisson_count, ArrivalProcess, ArrivalTraceConfig};
pub use auctions::{random_auction, required_multiplicity, Popularity, RandomAuctionConfig};
pub use failures::{failure_trace, DrainWindow, FailureTraceConfig};
pub use figure2::{
    figure2, figure2_optimum, figure2_predicted_ratio, figure2_subdivided, Figure2Layout,
};
pub use figure3::{figure3, figure3_algorithm_bound, figure3_hub, figure3_optimum, figure3_vertex};
pub use figure4::{figure4, figure4_algorithm_bound, figure4_optimum, figure4_predicted_ratio};
pub use random_ufp::{random_grid_ufp, random_ufp, required_b, RandomUfpConfig, ValueModel};
pub use sharded::{block_shard_map, shard_label, sharded_arrival_trace, ShardedTraceConfig};
