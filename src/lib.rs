//! # truthful-ufp
//!
//! A complete Rust implementation of **"Truthful Unsplittable Flow for
//! Large Capacity Networks"** (Yossi Azar, Iftah Gamzu, Shai Gutner;
//! SPAA 2007): monotone deterministic primal–dual algorithms — and the
//! truthful mechanisms they induce — for the `Ω(ln m)`-bounded
//! unsplittable flow problem and the `Ω(ln m)`-bounded single-minded
//! multi-unit combinatorial auction, together with the paper's
//! lower-bound constructions, the baselines it improves upon, and an
//! experiment harness certifying every quantitative claim.
//!
//! ## Quick start
//!
//! ```
//! use truthful_ufp::prelude::*;
//!
//! // A tiny network: one link of capacity 8.
//! let mut gb = GraphBuilder::directed(2);
//! gb.add_edge(NodeId(0), NodeId(1), 8.0);
//! let instance = UfpInstance::new(
//!     gb.build(),
//!     (0..20)
//!         .map(|i| Request::new(NodeId(0), NodeId(1), 1.0, 1.0 + (i % 5) as f64))
//!         .collect(),
//! );
//!
//! // Run Algorithm 1 and read its self-certified approximation ratio.
//! let result = bounded_ufp(&instance, &BoundedUfpConfig::with_epsilon(0.3));
//! assert!(result.solution.check_feasible(&instance, false).is_ok());
//! let ratio = result.certified_ratio(&instance).unwrap();
//! assert!(ratio >= 1.0 - 1e-9);
//!
//! // Wrap it into a truthful mechanism with critical-value payments.
//! let mechanism = CriticalValueMechanism::new(UfpAllocator {
//!     config: BoundedUfpConfig::with_epsilon(0.3),
//! });
//! let outcome = mechanism.run(&instance);
//! assert!(outcome.revenue() >= 0.0);
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`ufp_netgraph`] | capacitated graphs, Dijkstra, path enumeration, generators, residual views |
//! | [`ufp_lp`] | exact simplex + Garg–Könemann fractional solvers (certified bounds) |
//! | [`ufp_par`] | input-order parallel map over a persistent `std::sync` worker pool |
//! | [`ufp_core`] | Algorithms 1 & 3, the reasonable-algorithm engine, baselines |
//! | [`ufp_auction`] | Algorithm 2 and the auction substrate |
//! | [`ufp_mechanism`] | critical-value payments and truthfulness verification |
//! | [`ufp_workloads`] | Figure 2/3/4 constructions, random workloads, arrival traces |
//! | [`ufp_engine`] | streaming admission-control engine (epochs, residual capacities, payments, metrics) |
//! | [`ufp_shard`] | sharded engine: one engine book, parallel shard planners, capacity leases, global-guard merge |

#![forbid(unsafe_code)]

pub use ufp_auction;
pub use ufp_core;
pub use ufp_engine;
pub use ufp_lp;
pub use ufp_mechanism;
pub use ufp_netgraph;
pub use ufp_par;
pub use ufp_shard;
pub use ufp_workloads;

/// One-stop imports for applications.
pub mod prelude {
    pub use ufp_auction::{
        bounded_muca, AuctionInstance, AuctionSolution, Bid, BidId, BoundedMucaConfig, ItemId,
    };
    pub use ufp_core::{
        bounded_ufp, bounded_ufp_repeat, BoundedUfpConfig, RepeatConfig, Request, RequestId,
        StopReason, UfpInstance, UfpSolution,
    };
    pub use ufp_lp::{solve_fractional_ufp, solve_ufp_lp_exact, Commodity};
    pub use ufp_mechanism::{
        CriticalValueMechanism, MechanismOutcome, MucaAllocator, UfpAllocator,
    };
    pub use ufp_netgraph::{Graph, GraphBuilder, NodeId, Path};
    pub use ufp_par::Pool;
    pub use ufp_shard::{Partitioner, ShardConfig, ShardPlan, ShardedEngine};
}
