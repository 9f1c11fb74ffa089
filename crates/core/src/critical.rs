//! Exact critical values for Algorithm 1's winners.
//!
//! Theorem 2.3 charges each winner `r` its critical value `v*`: the
//! infimum of the declared values at which `r` is still selected.
//! Lemma 3.4 makes Algorithm 1 value-monotone, and the loop's structure
//! gives that threshold in closed form — the greedy-payment argument of
//! Lehmann–O'Callaghan–Shoham applied to the primal–dual loop:
//!
//! * The guard, the bound `B`, the line-10 bumps and every other
//!   request's score are independent of `r`'s declared value, and while
//!   `r` is unselected it changes nothing in the run. So a run in which
//!   `r` declares `v` is, step for step, the run *without* `r` until the
//!   first step at which `r` wins the argmin.
//! * At step `t` of that `r`-absent run, with argmin score `s_t` and
//!   `r`'s shortest-path length `|p_r^t|`, `r` wins iff
//!   `(d_r/v)·|p_r^t| < s_t` (ties to the lower request id), i.e. iff
//!   `v > d_r·|p_r^t| / s_t`.
//! * Hence `v* = min_t d_r·|p_r^t| / s_t` over the steps the `r`-absent
//!   run executes. If that run ends by exhaustion or for want of paths
//!   while the guard is still open and `r` still has a path, `r` is the
//!   next pick at any declared value, and `v* = 0`.
//!
//! Steps before `r`'s own selection step are shared with the real run (a
//! lower value only raises `r`'s score), so [`critical_value_exact`]
//! prices `r` with **one** resume from the trace checkpoint at that
//! step, with `r` masked out of the remaining set. A `Shadow` observer
//! rides along inside the one loop skeleton every run uses, whichever
//! argmin drives it (the incremental selector or the fan-out
//! reference), so there is no second loop to keep in sync.
//! The pass keeps `r` in its route class as a phantom, so the shadow
//! reads `|p_r^t|` off that class, and the pass's selector starts from
//! the answers the recorded run held at that step (Invariant 3 in
//! `crates/core/README.md`).
//!
//! **Contract with bisection.** Critical-value bisection over full
//! re-runs (`ufp_mechanism::critical_value`, relative tolerance `tol`)
//! returns the upper end of a bracket around the same threshold, so the
//! exact value `p` satisfies `p ≤ p_bisect ≤ p·(1+tol)`, up to the value
//! floor below which both report 0 and a few ulps of rounding in the
//! quotient. The bisection survives as the test oracle for that
//! contract.

use crate::bounded_ufp::{BoundedUfpConfig, EpochContext, EpochLoop, EpochResumeTrace};
use crate::instance::UfpInstance;
use crate::request::RequestId;
use crate::trace::StopReason;

/// Critical values below this are charged as 0: the winner wins at any
/// bid worth pricing. Bisection (`ufp_mechanism::PaymentConfig`) stops
/// its downward bracketing at the same floor.
pub const VALUE_FLOOR: f64 = 1e-12;

/// The exact critical value of the request selected at `step` of
/// `trace` (see the module docs for the formula and its edge rules).
///
/// `instance`, `config` and `ctx` must be the ones `trace` was recorded
/// (or, for merged traces, assembled) under. The result lies in
/// `[0, v_r]`; thresholds below [`VALUE_FLOOR`] are reported as 0, the
/// way bisection reports a winner that wins at every bid it tries.
pub fn critical_value_exact(
    instance: &UfpInstance,
    config: &BoundedUfpConfig,
    ctx: Option<&EpochContext<'_>>,
    trace: &EpochResumeTrace,
    step: usize,
) -> f64 {
    let lp = EpochLoop::new(instance, config, ctx);
    let winner = trace.selected(step);
    let mut state = lp.checkpoint(trace, step);
    state.remaining.retain(|&r| r != winner);

    let mut shadow = Shadow {
        trace,
        step,
        request: winner,
        reachable: false,
        threshold: f64::INFINITY,
    };
    let stop = lp.run(&mut state, None, Some(&mut shadow));
    // Where the `r`-absent run ends, `r` (still unselected) would face
    // the same checks the loop just made: exhaustion hands it the next
    // guard check, a path-less field hands it the argmin outright.
    let free = match stop {
        // The epoch loop has no iteration cap; only the guard ends it
        // with the winner still priced by the steps it saw.
        StopReason::Guard | StopReason::IterationCap => false,
        StopReason::NoPath => shadow.reachable,
        StopReason::Exhausted => state.weights.ln_dual_sum() <= lp.ln_guard && shadow.reachable,
    };
    let threshold = if free {
        0.0
    } else {
        shadow.threshold.min(instance.request(winner).value)
    };
    if threshold < VALUE_FLOOR {
        0.0
    } else {
        threshold
    }
}

/// One pricing pass's view of the request held out of the loop's
/// remaining set. The loop keeps the request as a phantom target, seeds
/// its selector from `trace` at `step`, and shows the shadow the
/// request's distance at every step, which folds `d_r·|p_r^t| / s_t`
/// into a running minimum.
pub(crate) struct Shadow<'t> {
    /// The trace the pass resumes, and the step it resumes at.
    pub(crate) trace: &'t EpochResumeTrace,
    pub(crate) step: usize,
    pub(crate) request: RequestId,
    /// Whether the request still had a path where the run stopped; the
    /// loop sets it at a `NoPath` or `Exhausted` stop.
    pub(crate) reachable: bool,
    /// `min_t d_r·|p_r^t| / s_t` over the steps observed so far.
    threshold: f64,
}

impl Shadow<'_> {
    /// One step of the `r`-absent run is about to select `selected` at
    /// argmin score `score` (nothing of the step applied yet); `dist` is
    /// the request's shortest-path length now (`None`: no path).
    pub(crate) fn observe(
        &mut self,
        instance: &UfpInstance,
        dist: Option<f64>,
        selected: RequestId,
        score: f64,
    ) {
        let Some(dist) = dist else {
            return;
        };
        let demand = instance.request(self.request).demand;
        let wins_above = if score > 0.0 {
            demand * dist / score
        } else if dist == 0.0 && self.request < selected {
            // A zero-length tie goes to the lower id at any value.
            0.0
        } else {
            f64::INFINITY
        };
        self.threshold = self.threshold.min(wins_above);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounded_ufp::tests::reassemble;
    use crate::bounded_ufp::{
        bounded_ufp_epoch, bounded_ufp_epoch_resume, bounded_ufp_epoch_traced, EpochOutcome,
    };
    use crate::request::Request;
    use ufp_netgraph::graph::{Graph, GraphBuilder};
    use ufp_netgraph::ids::NodeId;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    const TOL: f64 = 1e-9;

    /// Critical-value bisection (exponential bracketing, then bisection
    /// to `TOL`) over the membership predicate `selected_at(v)` — the
    /// schedule of `ufp_mechanism::critical_value`, restated here
    /// because that crate depends on this one.
    fn bisect(declared: f64, mut selected_at: impl FnMut(f64) -> bool) -> f64 {
        let (mut hi, mut lo) = (declared, declared);
        loop {
            lo /= 2.0;
            if lo < VALUE_FLOOR {
                return 0.0;
            }
            if !selected_at(lo) {
                break;
            }
            hi = lo;
        }
        while hi - lo > TOL * hi {
            let mid = 0.5 * (hi + lo);
            if selected_at(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    /// Bisection over prefix-resumed re-runs with `r`'s value lowered
    /// (resumes are bit-identical to scratch runs — see
    /// `lowered_value_probe_resumes_bit_identically`).
    fn bisect_winner(
        inst: &UfpInstance,
        cfg: &BoundedUfpConfig,
        ctx: Option<&EpochContext<'_>>,
        trace: &EpochResumeTrace,
        step: usize,
    ) -> f64 {
        let r = trace.selected(step);
        let req = *inst.request(r);
        bisect(req.value, |v| {
            let probe = inst.with_declared_type(r, req.demand, v);
            let ckpt = trace.checkpoint(&probe, cfg, ctx, step);
            let run = bounded_ufp_epoch_resume(&probe, cfg, ctx, ckpt);
            run.run.solution.contains(r)
        })
    }

    /// `p ≤ p_bisect ≤ p·(1+tol)`, with a few ulps for the quotient's
    /// rounding and twice the floor for bisection's last halving step.
    fn assert_contract(exact: f64, bisected: f64, what: &str) {
        let slack = 4.0 * f64::EPSILON * exact + 2.0 * VALUE_FLOOR;
        assert!(
            bisected >= exact - slack && bisected <= exact + TOL * bisected + slack,
            "{what}: exact {exact:e} vs bisection {bisected:e}"
        );
    }

    /// Price every winner exactly and by bisection; returns the exact
    /// payments in step order.
    fn check_all_winners(
        inst: &UfpInstance,
        cfg: &BoundedUfpConfig,
        ctx: Option<&EpochContext<'_>>,
    ) -> (EpochOutcome, Vec<f64>) {
        let (full, trace) = bounded_ufp_epoch_traced(inst, cfg, ctx);
        let exact: Vec<f64> = (0..trace.num_steps())
            .map(|k| {
                let p = critical_value_exact(inst, cfg, ctx, &trace, k);
                let r = trace.selected(k);
                assert!(
                    (0.0..=inst.request(r).value).contains(&p),
                    "{r}: payment {p} outside [0, bid]"
                );
                assert_contract(p, bisect_winner(inst, cfg, ctx, &trace, k), &r.to_string());
                p
            })
            .collect();
        (full, exact)
    }

    fn diamond() -> Graph {
        let mut gb = GraphBuilder::directed(5);
        gb.add_edge(n(0), n(1), 9.0);
        gb.add_edge(n(1), n(4), 8.0);
        gb.add_edge(n(0), n(2), 10.0);
        gb.add_edge(n(2), n(4), 9.0);
        gb.add_edge(n(0), n(3), 7.0);
        gb.add_edge(n(3), n(4), 7.0);
        gb.build()
    }

    /// A congested diamond with heterogeneous requests: selections,
    /// guard stops and path switches all come into play.
    fn congested() -> UfpInstance {
        UfpInstance::new(
            diamond(),
            (0..22)
                .map(|i| {
                    Request::new(
                        n(0),
                        n(4),
                        0.4 + 0.06 * (i % 9) as f64,
                        0.8 + 0.9 * ((i * 7) % 11) as f64,
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn exact_critical_value_matches_scratch_bisection() {
        let inst = congested();
        let inc = BoundedUfpConfig::with_epsilon(0.4);
        for cfg in [inc.clone(), inc.fan_out_reference()] {
            let (full, exact) = check_all_winners(&inst, &cfg, None);
            assert_eq!(full.run.trace.stop_reason, StopReason::Guard);
            assert!(
                exact.iter().all(|&p| p > 0.0),
                "contention prices: {exact:?}"
            );
        }
        // And under an epoch context: carried weights.
        let caps: Vec<f64> = inst.graph().edges().iter().map(|e| e.capacity).collect();
        let usable = vec![true; caps.len()];
        let carry = vec![0.3, 0.0, 0.1, 0.2, 0.0, 0.4];
        let ctx = EpochContext {
            capacities: &caps,
            usable: &usable,
            carry: &carry,
            routable: None,
        };
        check_all_winners(&inst, &BoundedUfpConfig::with_epsilon(0.4), Some(&ctx));
    }

    #[test]
    fn guard_stop_boundary_prices_against_the_last_open_step() {
        // One link, capacity 1.5, ε = 1: the guard admits exactly one
        // unit request. Every r-absent run selects the runner-up and
        // then guard-stops, so the winner pays the runner-up's bid.
        let mut gb = GraphBuilder::directed(2);
        gb.add_edge(n(0), n(1), 1.5);
        let inst = UfpInstance::new(
            gb.build(),
            vec![
                Request::new(n(0), n(1), 1.0, 2.0),
                Request::new(n(0), n(1), 1.0, 5.0),
                Request::new(n(0), n(1), 1.0, 3.5),
            ],
        );
        let cfg = BoundedUfpConfig::with_epsilon(1.0);
        let (full, exact) = check_all_winners(&inst, &cfg, None);
        assert_eq!(full.run.solution.routed.len(), 1);
        assert_eq!(full.run.solution.routed[0].0, RequestId(1));
        assert_eq!(full.run.trace.stop_reason, StopReason::Guard);
        assert!((exact[0] - 3.5).abs() <= 1e-12, "paid {}", exact[0]);
    }

    #[test]
    fn id_tie_at_the_threshold_goes_to_the_lower_id() {
        // Two identical bids for one slot: request 0 wins on id, and its
        // threshold is exactly the tied bid (at which it still wins).
        let mut gb = GraphBuilder::directed(2);
        gb.add_edge(n(0), n(1), 1.5);
        let inst = UfpInstance::new(
            gb.build(),
            vec![
                Request::new(n(0), n(1), 1.0, 2.0),
                Request::new(n(0), n(1), 1.0, 2.0),
            ],
        );
        let cfg = BoundedUfpConfig::with_epsilon(1.0);
        let (full, exact) = check_all_winners(&inst, &cfg, None);
        assert_eq!(full.run.solution.routed.len(), 1);
        assert_eq!(full.run.solution.routed[0].0, RequestId(0));
        assert!(
            (exact[0] - 2.0).abs() <= 4.0 * f64::EPSILON,
            "paid {}",
            exact[0]
        );
        // At the tied value the winner is still selected...
        assert!(bounded_ufp_epoch(&inst, &cfg, None)
            .run
            .solution
            .contains(RequestId(0)));
        // ...and an ulp-level shade below it loses the slot.
        let below = inst.with_declared_type(RequestId(0), 1.0, 2.0 * (1.0 - 1e-12));
        assert!(!bounded_ufp_epoch(&below, &cfg, None)
            .run
            .solution
            .contains(RequestId(0)));
    }

    #[test]
    fn exhaustion_with_an_open_guard_is_free() {
        // Ample capacity: every r-absent run exhausts its field with the
        // guard open, so every winner would win at any bid.
        let mut gb = GraphBuilder::directed(2);
        gb.add_edge(n(0), n(1), 100.0);
        let inst = UfpInstance::new(
            gb.build(),
            (0..5)
                .map(|i| Request::new(n(0), n(1), 1.0, 1.0 + i as f64))
                .collect(),
        );
        let (full, exact) = check_all_winners(&inst, &BoundedUfpConfig::with_epsilon(0.5), None);
        assert_eq!(full.run.trace.stop_reason, StopReason::Exhausted);
        assert_eq!(exact, vec![0.0; 5]);
    }

    #[test]
    fn no_path_for_the_rest_of_the_field_is_free() {
        // Request 2 is unroutable (no 1 → 0 edge): every r-absent run
        // ends by NoPath while the winner still has its path.
        let mut gb = GraphBuilder::directed(2);
        gb.add_edge(n(0), n(1), 50.0);
        let inst = UfpInstance::new(
            gb.build(),
            vec![
                Request::new(n(0), n(1), 1.0, 5.0),
                Request::new(n(0), n(1), 1.0, 3.0),
                Request::new(n(1), n(0), 1.0, 9.0),
            ],
        );
        let (full, exact) = check_all_winners(&inst, &BoundedUfpConfig::with_epsilon(0.5), None);
        assert_eq!(full.run.trace.stop_reason, StopReason::NoPath);
        assert_eq!(exact, vec![0.0, 0.0]);
    }

    #[test]
    fn recenter_mid_suffix_keeps_the_exact_threshold() {
        // One link of capacity 610 at ε = 1: every selection bumps
        // ln y by exactly 1 past the initial scale, so the weights
        // re-center at the 601st step, and the guard stops the run after
        // 610 selections out of 650 bids. Winners selected just before
        // the re-center are priced by suffixes that cross it, seeded from
        // the recorded run and cold alike.
        let mut gb = GraphBuilder::directed(2);
        gb.add_edge(n(0), n(1), 610.0);
        let inst = UfpInstance::new(
            gb.build(),
            (0..650)
                .map(|i| Request::new(n(0), n(1), 1.0, 1.0 + (i % 13) as f64 + 0.01 * i as f64))
                .collect(),
        );
        let inc = BoundedUfpConfig::with_epsilon(1.0);
        let fan = inc.clone().fan_out_reference();
        let (full, trace) = bounded_ufp_epoch_traced(&inst, &inc, None);
        assert_eq!(full.run.trace.stop_reason, StopReason::Guard);
        assert!(trace.num_steps() > 601, "steps {}", trace.num_steps());
        let recenters = |k| {
            trace
                .checkpoint(&inst, &inc, None, k)
                .state
                .weights
                .recenters()
        };
        assert_eq!((recenters(600), recenters(601)), (0, 1));
        let cold = reassemble(&inst, &inc, None, &trace);
        for k in [596, 599, 600] {
            let p = critical_value_exact(&inst, &inc, None, &trace, k);
            let pf = critical_value_exact(&inst, &fan, None, &trace, k);
            let pc = critical_value_exact(&inst, &inc, None, &cold, k);
            assert_eq!(p.to_bits(), pf.to_bits(), "step {k}: strategies diverged");
            assert_eq!(
                p.to_bits(),
                pc.to_bits(),
                "step {k}: seeded and cold diverged"
            );
            assert!(p > 0.0);
            assert_contract(p, bisect_winner(&inst, &inc, None, &trace, k), "step {k}");
        }
    }

    #[test]
    fn value_floor_rounds_tiny_thresholds_to_zero() {
        // Scaling every declared value by a power of two scales every
        // score, and with it every threshold, exactly; the run's
        // selections are unchanged.
        let cfg = BoundedUfpConfig::with_epsilon(0.4);
        let price = |scale: f64| {
            let requests = congested()
                .requests()
                .iter()
                .map(|r| r.with_type(r.demand, r.value * scale))
                .collect();
            let inst = UfpInstance::new(diamond(), requests);
            let (_, trace) = bounded_ufp_epoch_traced(&inst, &cfg, None);
            critical_value_exact(&inst, &cfg, None, &trace, 0)
        };
        let p = price(1.0);
        assert!(p > 0.0);
        let (small, tiny) = (2f64.powi(-20), 2f64.powi(-60));
        assert!(p * small >= VALUE_FLOOR && p * tiny < VALUE_FLOOR);
        assert_eq!(price(small), p * small);
        assert_eq!(price(tiny), 0.0);
    }
}
