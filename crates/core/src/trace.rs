//! Iteration traces and the dual certificate of Claim 3.6.
//!
//! Lines 2, 3 and 12 of Algorithm 1 maintain the primal/dual bookkeeping
//! (`x_s`, `z_r`) that the paper says is "not regarded part of the
//! algorithm" but drives its analysis. We keep exactly that bookkeeping as
//! a trace: per iteration `i`, the normalized length `α(i)` of the
//! selected path, the dual mass `D₁(i) = Σ c_e y_e`, and the routed value
//! `P(i) = D₂(i)`. Claim 3.6 states that `(y^i·α(i)^{-1}, z^i)` is dual
//! feasible, so
//!
//! ```text
//! OPT ≤ D ≤ D₁(i)/α(i) + D₂(i)        for every iteration i,
//! ```
//!
//! and the minimum over iterations is a **certified upper bound** on the
//! optimum that every experiment can compare against without solving an
//! LP. Logarithms are stored because `D₁` and `α` individually overflow
//! `f64` for small ε; their ratio is well-scaled.

use crate::request::RequestId;

/// Why the main loop ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// Every request was routed (`L = ∅`) — the solution is optimal.
    Exhausted,
    /// The dual guard tripped: `Σ c_e y_e > e^{ε(B−1)}`.
    Guard,
    /// No remaining request has a usable path (disconnected terminals, or
    /// every route crosses an edge masked out of the epoch).
    NoPath,
    /// Iteration cap hit (only possible for the repetitions variant).
    IterationCap,
}

/// Analysis bookkeeping for one iteration.
#[derive(Clone, Copy, Debug)]
pub struct IterationRecord {
    /// The request selected in this iteration (the paper's `r̂`).
    pub selected: RequestId,
    /// `ln α(i)` — log of the normalized length of the selected path,
    /// measured in the state *before* this iteration's weight update.
    pub ln_alpha: f64,
    /// `ln D₁(i)` — log of `Σ c_e y_e` before the update.
    pub ln_d1: f64,
    /// `P(i) = D₂(i)` — value routed before this iteration.
    pub routed_value_before: f64,
}

impl IterationRecord {
    /// The Claim 3.6 upper bound contributed by this iteration:
    /// `D₁(i)/α(i) + D₂(i)`.
    pub fn dual_candidate(&self) -> f64 {
        (self.ln_d1 - self.ln_alpha).exp() + self.routed_value_before
    }
}

/// Which dual certificate a trace carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Certificate {
    /// Claim 3.6 (plain UFP): `D ≤ D₁(i)/α(i) + D₂(i)`.
    Claim36,
    /// Claim 5.2 (repetitions): `D ≤ D(i)/α(i)` (no `z` terms).
    Claim52,
    /// No valid certificate: epoch runs, whose masked edges and carried
    /// weights break the claim's premise.
    None,
}

/// Full run trace.
#[derive(Clone, Debug)]
pub struct RunTrace {
    /// One record per iteration, in execution order.
    pub records: Vec<IterationRecord>,
    /// `ln` of the stop threshold `e^{ε(B−1)}`, i.e. `ε(B−1)`.
    pub ln_guard_threshold: f64,
    /// How the loop ended.
    pub stop_reason: StopReason,
    /// Which upper-bound certificate applies to this run.
    pub certificate: Certificate,
}

impl RunTrace {
    /// Certified upper bound on the optimum: `min_i D₁(i)/α(i) + D₂(i)`
    /// (Claim 3.6) or `min_i D(i)/α(i)` (Claim 5.2). `None` when no
    /// certificate applies or no iteration ran.
    pub fn dual_upper_bound(&self) -> Option<f64> {
        let best = match self.certificate {
            Certificate::None => return None,
            Certificate::Claim36 => self
                .records
                .iter()
                .map(IterationRecord::dual_candidate)
                .fold(f64::INFINITY, f64::min),
            Certificate::Claim52 => self
                .records
                .iter()
                .map(|r| (r.ln_d1 - r.ln_alpha).exp())
                .fold(f64::INFINITY, f64::min),
        };
        best.is_finite().then_some(best)
    }

    /// Number of iterations executed.
    pub fn iterations(&self) -> usize {
        self.records.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(ln_alpha: f64, ln_d1: f64, p: f64) -> IterationRecord {
        IterationRecord {
            selected: RequestId(0),
            ln_alpha,
            ln_d1,
            routed_value_before: p,
        }
    }

    #[test]
    fn dual_candidate_formula() {
        // D1 = e^2, alpha = e^0 => candidate = e^2 + 5
        let r = record(0.0, 2.0, 5.0);
        assert!((r.dual_candidate() - (2.0f64.exp() + 5.0)).abs() < 1e-12);
    }

    #[test]
    fn bound_is_minimum_over_iterations() {
        let trace = RunTrace {
            records: vec![
                record(0.0, 3.0, 0.0),
                record(1.0, 2.0, 4.0),
                record(0.0, 5.0, 1.0),
            ],
            ln_guard_threshold: 10.0,
            stop_reason: StopReason::Guard,
            certificate: Certificate::Claim36,
        };
        let expected = (2.0f64 - 1.0).exp() + 4.0; // middle record: e^1 + 4 ≈ 6.72
        assert!((trace.dual_upper_bound().unwrap() - expected).abs() < 1e-9);
        assert_eq!(trace.iterations(), 3);
    }

    #[test]
    fn invalid_certificate_gives_none() {
        let trace = RunTrace {
            records: vec![record(0.0, 1.0, 0.0)],
            ln_guard_threshold: 1.0,
            stop_reason: StopReason::Exhausted,
            certificate: Certificate::None,
        };
        assert!(trace.dual_upper_bound().is_none());
    }

    #[test]
    fn claim52_certificate_drops_z_terms() {
        let trace = RunTrace {
            records: vec![record(0.0, 2.0, 100.0)],
            ln_guard_threshold: 1.0,
            stop_reason: StopReason::Guard,
            certificate: Certificate::Claim52,
        };
        // bound = e^2, ignoring the routed value 100
        assert!((trace.dual_upper_bound().unwrap() - 2.0f64.exp()).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_gives_none() {
        let trace = RunTrace {
            records: vec![],
            ln_guard_threshold: 1.0,
            stop_reason: StopReason::Exhausted,
            certificate: Certificate::Claim36,
        };
        assert!(trace.dual_upper_bound().is_none());
    }

    #[test]
    fn huge_logs_do_not_overflow() {
        // D1 and alpha each around e^5000; their ratio is e^2.
        let r = record(4998.0, 5000.0, 1.0);
        assert!((r.dual_candidate() - (2.0f64.exp() + 1.0)).abs() < 1e-9);
    }
}
