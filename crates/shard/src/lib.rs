//! # ufp-shard
//!
//! A **sharded** admission-control engine: the network is partitioned
//! into shard territories, each shard runs its own
//! [`ufp_engine::Engine`] epoch **in parallel** over the shared
//! [`Graph`](ufp_netgraph::graph::Graph), and a deterministic
//! **reconciliation pass** stitches the shard epochs back into one
//! globally feasible, replayable run. The construction leans directly
//! on the source paper's structure: Algorithm 1 prices each request
//! against the current dual weights independently, so shard-local
//! selection with a bounded global reconciliation preserves both
//! feasibility and (per shard) the monotonicity that truthful
//! critical-value payments need.
//!
//! ## The three mechanisms
//!
//! **Partition** ([`partition`]): a [`Partitioner`] assigns nodes to
//! shards ([`NodeBlocks`], [`EdgeCut`], [`HotspotPairs`]); edges are
//! *interior* to a shard or *boundary* between two. Requests local to a
//! shard are its traffic; spanning requests go to the reconciler.
//!
//! **Leases** ([`ledger`]): each epoch, every boundary edge's global
//! residual is fractionally leased to its two adjacent shards
//! ([`ShardConfig::lease_fraction`]), and each shard's allocator sees
//! its lease as that edge's capacity — so parallel epochs cannot
//! jointly oversubscribe a shared edge, by construction. Actual use
//! settles into the [`LeaseLedger`]; unspent lease capacity returns to
//! the pool automatically because next epoch's leases are cut from the
//! actual residuals.
//!
//! **Reconciliation** ([`engine`]): shard plans are merged by recorded
//! score through one global dual-weight replay that enforces the
//! *global* guard (truncating shard over-admissions the moment the
//! merged dual mass crosses `e^{ε(B−1)}`), every surviving winner is
//! priced at its exact critical value **against that merged trace**
//! under the epoch-start context (the pass a single global engine
//! would run — [`PaymentScope::GlobalTrace`]), then cross-shard
//! requests route sequentially against the post-epoch global
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
//! residual loads and carry bits (proptested in `tests/proptests.rs`).
//! See `README.md` for the contract's one residual caveat (divergent
//! dual-weight re-centering, which perturbs the recorded score bits
//! themselves).
//!
//! On general instances the contract is weaker but still strong:
//! feasibility always holds (leases + per-epoch Lemma 3.3), payments
//! are still priced against the globally merged trace, and the whole
//! run is deterministic and replayable.

pub mod engine;
pub mod ledger;
pub mod partition;
pub mod snapshot;

pub use engine::{PaymentScope, ShardAdmission, ShardConfig, ShardStats, ShardedEngine};
pub use ledger::LeaseLedger;
pub use partition::{EdgeCut, EdgeOwner, HotspotPairs, NodeBlocks, Partitioner, ShardPlan};
