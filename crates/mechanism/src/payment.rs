//! Critical-value payments.
//!
//! For a value-monotone allocator, each selected agent has a unique
//! threshold bid `v*`: declare above it and win, below it and lose.
//! Charging exactly `v*` makes truth-telling a dominant strategy
//! (Theorem 2.3). The allocator is a black box, so the threshold is
//! located by exponential bracketing + bisection; monotonicity guarantees
//! the probe predicate `selected(v)` is a step function, which is exactly
//! the setting where bisection is exact up to the final interval width.

use crate::allocator::SingleParamAllocator;

/// Bisection controls.
#[derive(Clone, Copy, Debug)]
pub struct PaymentConfig {
    /// Relative width of the final bracket; the payment is the bracket's
    /// upper end (an over-charge of at most this relative amount, keeping
    /// individual rationality on the winner side).
    pub relative_tolerance: f64,
    /// Values below this are treated as zero (the agent wins at any bid).
    /// Defaults to [`ufp_core::VALUE_FLOOR`], the floor the exact
    /// critical values are rounded at.
    pub value_floor: f64,
}

impl Default for PaymentConfig {
    fn default() -> Self {
        PaymentConfig {
            relative_tolerance: 1e-9,
            value_floor: ufp_core::VALUE_FLOOR,
        }
    }
}

/// Critical value of a winner whose declared value is `declared`, given
/// only the selection predicate `selected_at(v)` ("is the agent selected
/// when declaring `v`?"). This is the *entire* probe schedule —
/// exponential bracketing downward, then bisection — factored out so
/// every payment path (black-box allocator re-runs, prefix-resumed epoch
/// probes, parallel fan-outs) issues the exact same sequence of probe
/// values and therefore produces **bit-identical** payments whenever the
/// predicates agree.
///
/// Successive probe values are strictly decreasing below every value
/// that answered "selected" so far, so a probe may resume from any
/// state an earlier "selected" probe shared.
pub fn critical_value_from_probe(
    declared: f64,
    config: &PaymentConfig,
    mut selected_at: impl FnMut(f64) -> bool,
) -> f64 {
    // Exponential search downward for a losing bid.
    let mut hi = declared; // selected
    let mut lo = declared;
    loop {
        lo /= 2.0;
        if lo < config.value_floor {
            return 0.0; // wins at (effectively) zero: free allocation
        }
        if !selected_at(lo) {
            break;
        }
        hi = lo;
    }

    // Invariant: selected at hi, not selected at lo.
    while hi - lo > config.relative_tolerance * hi.max(1e-300) {
        let mid = 0.5 * (hi + lo);
        if selected_at(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// Whether `bisected`, a [`critical_value_from_probe`] result, brackets
/// the exact threshold `exact` as bisection promises:
/// `exact ≤ bisected ≤ exact·(1+tol)`. The slack is a few ulps (the
/// exact value is a rounded quotient) plus twice the value floor (the
/// bracketing's last halving may step below the floor from anywhere
/// under twice it, reporting 0).
pub fn brackets_exact(exact: f64, bisected: f64, config: &PaymentConfig) -> bool {
    let slack = 4.0 * f64::EPSILON * exact.abs() + 2.0 * config.value_floor;
    bisected >= exact - slack && bisected <= exact + config.relative_tolerance * bisected + slack
}

/// Critical value of `agent` in `inst`, assuming it is currently
/// selected. Returns 0 when the agent wins at arbitrarily small bids.
pub fn critical_value<A: SingleParamAllocator>(
    allocator: &A,
    inst: &A::Inst,
    agent: usize,
    config: &PaymentConfig,
) -> f64 {
    let declared = allocator.declared_value(inst, agent);
    debug_assert!(
        allocator.selected(inst)[agent],
        "critical_value probes must start from a winner"
    );
    critical_value_from_probe(declared, config, |v| {
        let probe = allocator.with_value(inst, agent, v);
        allocator.selected(&probe)[agent]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy allocator: a single-item auction among `values`, highest bid
    /// wins (ties to the lowest index). The critical value of the winner
    /// is the second-highest bid — i.e. this mechanism must reproduce
    /// Vickrey pricing.
    #[derive(Clone)]
    struct HighestBid;

    impl SingleParamAllocator for HighestBid {
        type Inst = Vec<f64>;
        fn num_agents(&self, inst: &Vec<f64>) -> usize {
            inst.len()
        }
        fn selected(&self, inst: &Vec<f64>) -> Vec<bool> {
            let mut best = 0usize;
            for i in 1..inst.len() {
                if inst[i] > inst[best] {
                    best = i;
                }
            }
            (0..inst.len()).map(|i| i == best).collect()
        }
        fn declared_value(&self, inst: &Vec<f64>, agent: usize) -> f64 {
            inst[agent]
        }
        fn with_value(&self, inst: &Vec<f64>, agent: usize, value: f64) -> Vec<f64> {
            let mut v = inst.clone();
            v[agent] = value;
            v
        }
    }

    #[test]
    fn recovers_vickrey_price() {
        let inst = vec![10.0, 7.0, 3.0];
        let p = critical_value(&HighestBid, &inst, 0, &PaymentConfig::default());
        assert!((p - 7.0).abs() < 1e-6, "payment {p}, expected 7");
    }

    #[test]
    fn sole_bidder_pays_zero() {
        let inst = vec![5.0];
        let p = critical_value(&HighestBid, &inst, 0, &PaymentConfig::default());
        assert_eq!(p, 0.0);
    }

    #[test]
    fn threshold_is_sharp() {
        let inst = vec![10.0, 6.5, 1.0];
        let p = critical_value(&HighestBid, &inst, 0, &PaymentConfig::default());
        // declare just above the payment: still a winner
        let above = HighestBid.with_value(&inst, 0, p * (1.0 + 1e-6) + 1e-9);
        assert!(HighestBid.selected(&above)[0]);
        // just below: a loser
        let below = HighestBid.with_value(&inst, 0, p * (1.0 - 1e-6));
        assert!(!HighestBid.selected(&below)[0]);
    }

    #[test]
    fn probe_form_is_bit_identical_to_allocator_form() {
        // Both forms must issue the same probe schedule and land on the
        // same bits — the resumed payment path depends on it.
        let inst = vec![10.0, 6.5, 1.0];
        let mut probes = Vec::new();
        let p = critical_value_from_probe(10.0, &PaymentConfig::default(), |v| {
            probes.push(v);
            let probe = HighestBid.with_value(&inst, 0, v);
            HighestBid.selected(&probe)[0]
        });
        let p2 = critical_value(&HighestBid, &inst, 0, &PaymentConfig::default());
        assert_eq!(p.to_bits(), p2.to_bits());
        // Every probe is strictly below the smallest "selected" answer so
        // far (starting from the declared value) — the invariant that
        // lets prefix-resume advance its checkpoint monotonically.
        let mut min_selected = 10.0f64;
        for &v in &probes {
            assert!(
                v < min_selected,
                "probe {v} not below bracket {min_selected}"
            );
            if v > 6.5 {
                // HighestBid selects agent 0 whenever it outbids 6.5.
                min_selected = v;
            }
        }
    }

    #[test]
    fn bisection_brackets_the_exact_threshold() {
        let pc = PaymentConfig::default();
        for (inst, exact) in [(vec![10.0, 6.5, 1.0], 6.5), (vec![3.0, 2.75], 2.75)] {
            let p = critical_value(&HighestBid, &inst, 0, &pc);
            assert!(brackets_exact(exact, p, &pc), "{p} vs {exact}");
        }
        assert!(brackets_exact(0.0, 0.0, &pc));
        assert!(!brackets_exact(
            1.0,
            1.0 + 10.0 * pc.relative_tolerance,
            &pc
        ));
        assert!(
            !brackets_exact(1.0, 1.0 - 1e-10, &pc),
            "bisection never undercuts"
        );
    }

    #[test]
    fn payment_never_exceeds_declaration() {
        for second in [0.1, 1.0, 5.0, 9.999] {
            let inst = vec![10.0, second];
            let p = critical_value(&HighestBid, &inst, 0, &PaymentConfig::default());
            assert!(p <= 10.0 + 1e-9);
            assert!((p - second).abs() < 1e-6);
        }
    }
}
