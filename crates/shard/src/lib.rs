//! # ufp-shard
//!
//! A **sharded** admission-control engine: the network is partitioned
//! into shard territories, every shard plans its share of each epoch's
//! batch **in parallel** over the shared
//! [`Graph`](ufp_netgraph::graph::Graph), and a deterministic merge
//! stitches the shard plans back into one globally feasible, replayable
//! run. The construction leans directly on the source paper's
//! structure: Algorithm 1 prices each request against the current dual
//! weights independently, so shard-local selection with a bounded
//! global merge preserves both feasibility and the monotonicity that
//! truthful critical-value payments need.
//!
//! ## One book, stateless planners
//!
//! A [`ShardedEngine`] owns exactly one [`ufp_engine::Engine`] — the
//! deployment's *book*. Requests, admissions, residuals and carry,
//! topology and the readmission queue, events, metrics and health all
//! live there, once. The shards hold no state of their own: each epoch
//! the book opens (TTL releases), freezes its context, and hands the
//! batch to the shard planner through [`ufp_engine::EpochPlanner`]; the
//! planner returns winners, routes, carry and payments, and the book
//! commits them. Topology repair, the feasibility audit, readmission,
//! snapshots, the regret oracle and the health tick are the book's own
//! code paths: a sharded snapshot is the book's engine container, with
//! the planner's state in its driver section ([`snapshot`]).
//!
//! ## The three mechanisms
//!
//! **Partition** ([`partition`]): a [`Partitioner`] assigns nodes to
//! shards ([`NodeBlocks`], [`EdgeCut`]); edges are *interior* to a
//! shard or *boundary* between two. Requests local to a
//! shard are its traffic; spanning requests go to the cross-shard pass.
//!
//! **Leases** ([`ledger`]): each epoch, every boundary edge's global
//! residual is fractionally leased to its two adjacent shards
//! ([`ShardConfig::lease_fraction`]), and each shard's allocator sees
//! its lease as that edge's capacity — so parallel plans cannot
//! jointly oversubscribe a shared edge, by construction. Actual use
//! settles into the [`LeaseLedger`]; unspent lease capacity returns to
//! the pool automatically because next epoch's leases are cut from the
//! actual residuals.
//!
//! **Merge** ([`engine`]): shard plans are merged by recorded score
//! through one global dual-weight replay that enforces the *global*
//! guard (truncating shard over-admissions the moment the merged dual
//! mass crosses `e^{ε(B−1)}`), every surviving winner is priced at its
//! exact critical value **against that merged trace** under the frozen
//! context (the passes a single global engine would run), then
//! cross-shard requests route sequentially against the post-merge
//! residuals. Everything after the parallel plans is arithmetic replay
//! plus read-only pricing replays — no new shortest-path state — so the
//! whole epoch is deterministic and byte-replayable regardless of
//! thread scheduling.
//!
//! ## The equivalence contract
//!
//! On instances whose requests never route outside their shard's
//! territory — component-aligned partitions of disconnected community
//! graphs, with or without unroutable cross-shard arrivals in the
//! stream — the sharded engine is **bit-identical** to a single
//! [`ufp_engine::Engine`] fed the same stream: same admissions (ids,
//! paths, order), same critical-value payments — *including* epochs
//! and pricing passes that stop on the guard — same events, same
//! residual loads, carry bits and recorder gauges (tested in
//! `tests/proptests.rs` and `tests/sharded_engine.rs`). See `README.md`
//! for the contract's one residual caveat (divergent dual-weight
//! re-centering, which perturbs the recorded score bits themselves).
//!
//! On general instances the contract is weaker but still strong:
//! feasibility always holds (leases + per-epoch Lemma 3.3), payments
//! are still priced against the globally merged trace, and the whole
//! run is deterministic and replayable.

#![forbid(unsafe_code)]

pub mod engine;
pub mod ledger;
pub mod partition;
pub mod snapshot;

pub use engine::{ShardConfig, ShardStats, ShardedEngine};
pub use ledger::LeaseLedger;
pub use partition::{EdgeCut, EdgeOwner, NodeBlocks, Partitioner, ShardPlan};
