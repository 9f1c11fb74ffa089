//! The span taxonomy: every phase the pipeline can spend time in.
//!
//! Phases are a closed enum rather than free-form strings so the hot
//! path can accumulate into a fixed-size atomic array (no hashing, no
//! locking) and so the set of observable phases is reviewable in one
//! place. The dotted names mirror the layer that owns each phase:
//!
//! | prefix       | layer        | what it measures                         |
//! |--------------|--------------|------------------------------------------|
//! | `epoch.*`    | `ufp_engine` | the three stages of one engine epoch     |
//! | `selection.*`| `ufp_core`   | the incremental selection loop internals |
//! | `payment.*`  | `ufp_engine` | one winner's exact critical-value pass   |
//! | `shard.*`    | `ufp_shard`  | the sharded pipeline's own stages        |
//! | `par.*`      | `ufp_par`    | pool fan-out (winners, shards)           |
//! | `topology.*` | `ufp_engine` | one between-epochs topology repair pass  |
//! | `repair.*`   | `ufp_engine` | eviction / re-admission inside a repair  |
//! | `health.*`   | `ufp_engine` | out-of-band auction-health work          |
//!
//! `epoch.open/plan/commit` partition an engine epoch end to end (the
//! other phases nest inside them or, for `shard.*`, run between per-
//! shard epochs), so `Σ epoch.* ≈ epoch wall time` is the profile
//! invariant `engine_sim --profile` reports against. The `topology.*` /
//! `repair.*` phases run strictly *between* epoch brackets (a repair
//! pass is not part of any epoch), so they are deliberately excluded
//! from [`Phase::is_epoch_stage`] and the coverage invariant survives
//! failure injection unchanged.

/// One pipeline phase. `as usize` is a dense index into per-phase
/// accumulator arrays.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// TTL releases + residual re-derivation at the top of an epoch.
    EpochOpen,
    /// The Bounded-UFP(ε) allocation loop over the epoch's batch.
    EpochPlan,
    /// Payments, residual commit, events, metrics at the epoch tail.
    EpochCommit,
    /// One grouped shortest-path recomputation (lazy, per heap top).
    SelectionDijkstra,
    /// Lazy-heap maintenance in the incremental selection loop.
    SelectionHeap,
    /// One eager grouped refresh of the dirty set (parallel fan-out).
    SelectionDirtyRefresh,
    /// One winner's exact critical-value pass (attr: resumed suffix
    /// length).
    PaymentProbe,
    /// Boundary-edge lease computation before parallel shard epochs.
    ShardLease,
    /// Deterministic merge-replay of shard plans into the global order.
    ShardMergeReplay,
    /// Cross-shard request routing against full global residuals.
    ShardCrossRoute,
    /// One pool fan-out (`Pool::map` dispatch + join).
    ParDispatch,
    /// No longer recorded: a `map` called from inside map work runs
    /// inline, so no waiter ever runs a queued job. The variant stays only
    /// because perfbench still reads it (its `par.steals` row, always
    /// 0 now).
    ParSteal,
    /// One between-epochs topology repair pass (event application,
    /// violation scan, residual rebuild).
    TopologyApply,
    /// Evicting the admissions a mutation displaced (refund + events).
    RepairEvict,
    /// Queueing evicted flows for re-admission in the next epoch.
    RepairReadmit,
    /// One fractional-UFP regret-oracle solve over a frozen epoch
    /// snapshot (runs strictly after the epoch bracket closes).
    HealthRegretOracle,
}

/// Number of phases (size of the dense accumulator arrays).
pub const PHASE_COUNT: usize = 16;

impl Phase {
    /// Every phase, in dense-index order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::EpochOpen,
        Phase::EpochPlan,
        Phase::EpochCommit,
        Phase::SelectionDijkstra,
        Phase::SelectionHeap,
        Phase::SelectionDirtyRefresh,
        Phase::PaymentProbe,
        Phase::ShardLease,
        Phase::ShardMergeReplay,
        Phase::ShardCrossRoute,
        Phase::ParDispatch,
        Phase::ParSteal,
        Phase::TopologyApply,
        Phase::RepairEvict,
        Phase::RepairReadmit,
        Phase::HealthRegretOracle,
    ];

    /// Dense index (0-based, stable across a build).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The dotted external name used in every export format.
    pub fn name(self) -> &'static str {
        match self {
            Phase::EpochOpen => "epoch.open",
            Phase::EpochPlan => "epoch.plan",
            Phase::EpochCommit => "epoch.commit",
            Phase::SelectionDijkstra => "selection.dijkstra",
            Phase::SelectionHeap => "selection.heap",
            Phase::SelectionDirtyRefresh => "selection.dirty_refresh",
            Phase::PaymentProbe => "payment.probe",
            Phase::ShardLease => "shard.lease",
            Phase::ShardMergeReplay => "shard.merge_replay",
            Phase::ShardCrossRoute => "shard.cross_route",
            Phase::ParDispatch => "par.dispatch",
            Phase::ParSteal => "par.steal",
            Phase::TopologyApply => "topology.apply",
            Phase::RepairEvict => "repair.evict",
            Phase::RepairReadmit => "repair.readmit",
            Phase::HealthRegretOracle => "health.regret_oracle",
        }
    }

    /// True for the three phases that partition an engine epoch end to
    /// end (the profile-coverage trio; everything else nests inside
    /// them or runs at the sharded layer between them).
    #[inline]
    pub fn is_epoch_stage(self) -> bool {
        matches!(
            self,
            Phase::EpochOpen | Phase::EpochPlan | Phase::EpochCommit
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_indices_match_all_order() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn names_are_unique_and_dotted() {
        let mut seen = std::collections::HashSet::new();
        for p in Phase::ALL {
            assert!(p.name().contains('.'), "{}", p.name());
            assert!(seen.insert(p.name()), "duplicate name {}", p.name());
        }
    }

    #[test]
    fn repair_phases_stay_outside_the_epoch_coverage_trio() {
        // The profile-coverage invariant sums exactly the epoch trio;
        // topology repair runs between epoch brackets and must never
        // join it, or Σ epoch.* would overshoot the epoch wall time
        // whenever failures are injected.
        for p in [
            Phase::TopologyApply,
            Phase::RepairEvict,
            Phase::RepairReadmit,
            Phase::HealthRegretOracle,
        ] {
            assert!(!p.is_epoch_stage(), "{}", p.name());
        }
        assert_eq!(Phase::ALL.iter().filter(|p| p.is_epoch_stage()).count(), 3);
    }
}
