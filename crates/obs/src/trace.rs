//! Span records and per-epoch phase profiles — the raw material the
//! exporters serialize.

use crate::phase::{Phase, PHASE_COUNT};

/// One completed span: a phase, when it started (ns since the
/// recorder's origin), how long it ran, which thread ran it, and an
/// optional integer attribute (e.g. `payment.probe`'s resumed suffix
/// length).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// The phase this span measures.
    pub phase: Phase,
    /// Start offset in nanoseconds from the recorder's creation.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Dense per-thread id (0 = the thread that first recorded).
    pub tid: u64,
    /// Optional `(name, value)` attribute.
    pub attr: Option<(&'static str, u64)>,
}

/// One regret-oracle verdict attached to an epoch profile: how the
/// online epoch's admitted value compares to the offline fractional
/// optimum solved over the same frozen pre-epoch snapshot. The sample
/// is produced strictly out-of-band (after the epoch bracket closes)
/// and never feeds back into any allocation or payment decision.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RegretSample {
    /// Value the online epoch actually admitted.
    pub online_value: f64,
    /// Fractional-UFP upper bound over the frozen snapshot (≥ online).
    pub fractional_bound: f64,
    /// `online_value / fractional_bound`, clamped to `[0, 1]`; defined
    /// as `1.0` when the epoch was infeasible for everyone (bound 0).
    pub ratio: f64,
    /// Dual-certificate slack of the oracle solve (`upper − primal` of
    /// the packing run; a mechanical weak-duality witness).
    pub duality_gap: f64,
    /// Commodities the snapshot contributed to the oracle LP.
    pub commodities: usize,
    /// Packing-solver iterations the oracle spent.
    pub iterations: usize,
}

/// Aggregated phase activity between one `epoch_begin`/`epoch_end`
/// pair: wall time of the bracket plus, per phase, the nanoseconds and
/// span count accumulated inside it.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochProfile {
    /// The epoch index the caller passed to `epoch_begin`.
    pub epoch: u64,
    /// Wall-clock nanoseconds between begin and end.
    pub wall_ns: u64,
    /// Per-phase nanoseconds accumulated inside the bracket
    /// (indexed by [`Phase::index`]).
    pub phase_ns: [u64; PHASE_COUNT],
    /// Per-phase span counts accumulated inside the bracket.
    pub phase_hits: [u64; PHASE_COUNT],
    /// Regret-oracle verdict for this epoch, when one was sampled
    /// (attached after the bracket closed via
    /// [`crate::Recorder::profile_set_regret`]).
    pub regret: Option<RegretSample>,
}

impl EpochProfile {
    /// Nanoseconds in the three `epoch.*` stages, which partition an
    /// engine epoch end to end — the profile coverage numerator.
    fn epoch_stage_ns(&self) -> u64 {
        Phase::ALL
            .iter()
            .filter(|p| p.is_epoch_stage())
            .map(|p| self.phase_ns[p.index()])
            .sum()
    }

    /// `epoch_stage_ns / wall_ns` (0 when the bracket had no wall
    /// time). The `--profile` acceptance check asserts this lands
    /// within 10% of 1.0 on a single-engine run.
    pub fn coverage(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.epoch_stage_ns() as f64 / self.wall_ns as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_uses_only_epoch_stages() {
        let mut p = EpochProfile {
            epoch: 3,
            wall_ns: 1_000,
            phase_ns: [0; PHASE_COUNT],
            phase_hits: [0; PHASE_COUNT],
            regret: None,
        };
        p.phase_ns[Phase::EpochOpen.index()] = 100;
        p.phase_ns[Phase::EpochPlan.index()] = 600;
        p.phase_ns[Phase::EpochCommit.index()] = 250;
        // Nested phases must not inflate coverage.
        p.phase_ns[Phase::SelectionDijkstra.index()] = 550;
        assert_eq!(p.epoch_stage_ns(), 950);
        assert!((p.coverage() - 0.95).abs() < 1e-12);
    }

    #[test]
    fn zero_wall_coverage_is_zero() {
        let p = EpochProfile {
            epoch: 0,
            wall_ns: 0,
            phase_ns: [0; PHASE_COUNT],
            phase_hits: [0; PHASE_COUNT],
            regret: None,
        };
        assert_eq!(p.coverage(), 0.0);
    }
}
