//! Width-independent approximate packing-LP solver (Garg–Könemann /
//! multiplicative weights) with a column oracle.
//!
//! Solves `max Σ_j c_j x_j  s.t.  Σ_j A_ij x_j ≤ b_i, x ≥ 0` where the
//! (possibly exponential) column set is only accessible through a
//! minimum-ratio oracle — exactly the structure of the paper's Figure 1
//! relaxation, where columns are (request, path) pairs and the oracle is a
//! shortest-path computation. This is the machinery of Garg–Könemann \[9\]
//! and Fleischer \[8\], which the paper cites as the combinatorial
//! (1+ε)-approximation for the *fractional* problem.
//!
//! Rather than trusting the textbook constants, the solver is
//! **self-certifying**: every iteration derives
//!
//! * a feasible primal (raw column amounts scaled down by the maximum row
//!   overload), and
//! * a feasible dual (oracle weights scaled up by the minimum column
//!   ratio α, giving the upper bound `Σ b_i y_i / α`),
//!
//! and it stops when the certified gap reaches the target. The returned
//! bounds are therefore unconditionally valid regardless of floating-point
//! drift.

/// One column of the packing LP, produced by the oracle.
#[derive(Clone, Debug)]
pub struct Column {
    /// Objective coefficient `c_j` (> 0).
    pub value: f64,
    /// Non-zero matrix entries `(row, A_ij)` with `A_ij > 0`.
    pub entries: Vec<(usize, f64)>,
    /// Caller-defined identity (e.g. an index into a side table of paths).
    pub tag: u64,
}

/// Access to the packing LP: row limits plus a best-ratio column oracle.
pub trait ColumnOracle {
    /// Number of packing rows.
    fn num_rows(&self) -> usize;

    /// Row limit `b_i` (> 0).
    fn row_limit(&self, i: usize) -> f64;

    /// The column minimizing `(Σ_i A_ij y_i) / c_j` under weights `y`,
    /// or `None` when the column set is empty. Any column is acceptable
    /// for correctness (certificates are checked), but convergence speed
    /// follows the quality of minimization.
    fn best_column(&self, y: &[f64]) -> Option<Column>;
}

/// Solver configuration.
#[derive(Clone, Copy, Debug)]
pub struct PackingConfig {
    /// Multiplicative-weights step size *and* target certified gap:
    /// the solver stops once `dual_bound ≤ (1 + epsilon) · primal_value`.
    pub epsilon: f64,
    /// Safety cap on iterations (the loop always terminates by itself in
    /// `O(rows · ln(rows) / ε²)` oracle calls; the cap guards pathology).
    pub max_iterations: usize,
}

impl Default for PackingConfig {
    fn default() -> Self {
        PackingConfig {
            epsilon: 0.05,
            max_iterations: 200_000,
        }
    }
}

/// Result of [`solve_packing`]. `primal_value` and `dual_bound` bracket the
/// LP optimum: `primal_value ≤ OPT ≤ dual_bound`.
#[derive(Clone, Debug)]
pub struct PackingSolution {
    /// Certified feasible primal objective.
    pub primal_value: f64,
    /// Certified upper bound on the LP optimum.
    pub dual_bound: f64,
    /// Selected columns with **feasible** (already scaled) amounts.
    pub columns: Vec<(Column, f64)>,
    /// Oracle calls performed.
    pub iterations: usize,
    /// The dual certificate behind `dual_bound`: the per-row weights
    /// `y/α` of the iteration that realized the best bound. Feasible
    /// for *every* column the oracle can produce (α is the global
    /// minimum ratio when the oracle minimizes exactly), so
    /// `Σ b_i · duals[i] == dual_bound` is a mechanical weak-duality
    /// witness. Empty when the oracle never returned a column.
    pub duals: Vec<f64>,
}

impl PackingSolution {
    /// Certified optimality ratio `dual_bound / primal_value` (≥ 1).
    pub fn certified_ratio(&self) -> f64 {
        if self.primal_value <= 0.0 {
            f64::INFINITY
        } else {
            self.dual_bound / self.primal_value
        }
    }
}

/// Run the multiplicative-weights packing solver against `oracle`.
pub fn solve_packing<O: ColumnOracle>(oracle: &O, config: PackingConfig) -> PackingSolution {
    let rows = oracle.num_rows();
    let eps = config.epsilon.clamp(1e-4, 0.5);
    let limits: Vec<f64> = (0..rows).map(|i| oracle.row_limit(i)).collect();
    let mut y: Vec<f64> = limits.iter().map(|&b| 1.0 / b).collect();
    let mut raw: Vec<(Column, f64)> = Vec::new();
    let mut loads = vec![0.0f64; rows];
    // Max row overload `loads[i] / b_i`, kept as a running max over the
    // rows each column touches: loads only grow, so every ratio only
    // grows, and the max over the touched rows is the max over all rows.
    let mut overload = 0.0f64;
    let mut raw_value = 0.0f64;
    let mut best_dual = f64::INFINITY;
    let mut best_duals: Vec<f64> = Vec::new();
    let mut iterations = 0;

    loop {
        if iterations >= config.max_iterations {
            break;
        }
        let Some(col) = oracle.best_column(&y) else {
            break;
        };
        debug_assert!(col.value > 0.0, "columns must have positive value");
        iterations += 1;

        // Dual certificate: α = min_j (A_j·y)/c_j is realized by this
        // column; y/α is dual feasible with objective (Σ b_i y_i)/α.
        let weighted: f64 = col.entries.iter().map(|&(i, a)| a * y[i]).sum();
        let alpha = weighted / col.value;
        if alpha > 0.0 {
            let dual_sum: f64 = limits.iter().zip(&y).map(|(&b, &yi)| b * yi).sum();
            let bound = dual_sum / alpha;
            if bound < best_dual {
                best_dual = bound;
                // Snapshot the feasible dual y/α behind this bound; the
                // clone is immune to the renormalization below.
                best_duals = y.iter().map(|&yi| yi / alpha).collect();
            }
        } else {
            // Zero-weight column: unbounded growth direction would mean
            // the LP is unbounded, impossible for positive y. Defensive:
            break;
        }

        // Primal step: push the column's bottleneck amount.
        let delta = col
            .entries
            .iter()
            .map(|&(i, a)| limits[i] / a)
            .fold(f64::INFINITY, f64::min);
        if !delta.is_finite() || delta <= 0.0 {
            break;
        }
        raw_value += col.value * delta;
        for &(i, a) in &col.entries {
            loads[i] += delta * a;
            overload = overload.max(loads[i] / limits[i]);
            // Multiplicative update; exponent ≤ eps because of bottleneck Δ.
            y[i] *= (eps * delta * a / limits[i]).exp();
        }
        raw.push((col, delta));

        // Certified primal value: scale by max overload.
        let primal = if overload > 1.0 {
            raw_value / overload
        } else {
            raw_value
        };
        if primal > 0.0 && best_dual <= (1.0 + eps) * primal {
            break;
        }

        // Renormalize y to dodge overflow; all certificates are
        // scale-invariant in y.
        let ysum: f64 = y.iter().sum();
        if ysum > 1e140 {
            let inv = 1.0 / ysum;
            y.iter_mut().for_each(|v| *v *= inv);
        }
    }

    // Final scaling to a feasible primal.
    let scale = if overload > 1.0 { 1.0 / overload } else { 1.0 };
    let primal_value = raw_value * scale;
    let columns = raw.into_iter().map(|(c, amt)| (c, amt * scale)).collect();
    PackingSolution {
        primal_value,
        dual_bound: best_dual,
        columns,
        iterations,
        duals: best_duals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Explicit small packing LP as an oracle (scans all columns).
    struct Explicit {
        b: Vec<f64>,
        cols: Vec<Column>,
    }

    impl ColumnOracle for Explicit {
        fn num_rows(&self) -> usize {
            self.b.len()
        }
        fn row_limit(&self, i: usize) -> f64 {
            self.b[i]
        }
        fn best_column(&self, y: &[f64]) -> Option<Column> {
            self.cols
                .iter()
                .map(|c| {
                    let w: f64 = c.entries.iter().map(|&(i, a)| a * y[i]).sum();
                    (w / c.value, c)
                })
                .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap())
                .map(|(_, c)| c.clone())
        }
    }

    fn col(value: f64, entries: Vec<(usize, f64)>, tag: u64) -> Column {
        Column {
            value,
            entries,
            tag,
        }
    }

    #[test]
    fn single_row_knapsack_relaxation() {
        // max 3a + 1b s.t. a + b <= 10 => put all 10 into a => 30
        let oracle = Explicit {
            b: vec![10.0],
            cols: vec![col(3.0, vec![(0, 1.0)], 0), col(1.0, vec![(0, 1.0)], 1)],
        };
        let sol = solve_packing(&oracle, PackingConfig::default());
        assert!(sol.primal_value <= 30.0 + 1e-9);
        assert!(sol.dual_bound >= 30.0 - 1e-9);
        assert!(
            sol.certified_ratio() <= 1.06,
            "ratio {}",
            sol.certified_ratio()
        );
        assert!(sol.primal_value >= 30.0 / 1.06);
    }

    #[test]
    fn two_row_lp_brackets_optimum() {
        // max a + b s.t. a <= 4 (row0), b <= 2 (row1), a + b <= 5 (row2)
        // optimum: a=3.. a+b<=5 binding with b=2 => obj 5
        let oracle = Explicit {
            b: vec![4.0, 2.0, 5.0],
            cols: vec![
                col(1.0, vec![(0, 1.0), (2, 1.0)], 0),
                col(1.0, vec![(1, 1.0), (2, 1.0)], 1),
            ],
        };
        let cfg = PackingConfig {
            epsilon: 0.02,
            max_iterations: 500_000,
        };
        let sol = solve_packing(&oracle, cfg);
        assert!(sol.primal_value <= 5.0 + 1e-9);
        assert!(sol.dual_bound >= 5.0 - 1e-9);
        assert!(sol.certified_ratio() <= 1.03);
    }

    #[test]
    fn feasibility_of_returned_columns() {
        let oracle = Explicit {
            b: vec![3.0, 7.0],
            cols: vec![
                col(2.0, vec![(0, 1.0), (1, 2.0)], 0),
                col(1.0, vec![(1, 1.0)], 1),
            ],
        };
        let sol = solve_packing(&oracle, PackingConfig::default());
        let mut loads = [0.0; 2];
        let mut value = 0.0;
        for (c, amt) in &sol.columns {
            value += c.value * amt;
            for &(i, a) in &c.entries {
                loads[i] += a * amt;
            }
        }
        assert!(loads[0] <= 3.0 + 1e-7 && loads[1] <= 7.0 + 1e-7);
        assert!((value - sol.primal_value).abs() < 1e-7);
    }

    #[test]
    fn empty_column_set() {
        let oracle = Explicit {
            b: vec![1.0],
            cols: vec![],
        };
        let sol = solve_packing(&oracle, PackingConfig::default());
        assert_eq!(sol.primal_value, 0.0);
        assert_eq!(sol.iterations, 0);
        assert!(sol.duals.is_empty(), "no iteration, no certificate");
    }

    #[test]
    fn returned_duals_certify_the_dual_bound() {
        let oracle = Explicit {
            b: vec![4.0, 2.0, 5.0],
            cols: vec![
                col(1.0, vec![(0, 1.0), (2, 1.0)], 0),
                col(1.0, vec![(1, 1.0), (2, 1.0)], 1),
            ],
        };
        let sol = solve_packing(&oracle, PackingConfig::default());
        assert_eq!(sol.duals.len(), 3);
        // b·y reproduces the reported bound exactly (same arithmetic).
        let objective: f64 = sol
            .duals
            .iter()
            .enumerate()
            .map(|(i, &y)| oracle.b[i] * y)
            .sum();
        assert!(
            (objective - sol.dual_bound).abs() <= 1e-9 * sol.dual_bound.abs(),
            "b·y = {objective} vs dual_bound = {}",
            sol.dual_bound
        );
        // Dual feasibility: y ≥ 0 and every column is covered.
        assert!(sol.duals.iter().all(|&y| y >= 0.0));
        for c in &oracle.cols {
            let covered: f64 = c.entries.iter().map(|&(i, a)| a * sol.duals[i]).sum();
            assert!(
                covered >= c.value - 1e-9,
                "column {} uncovered: {covered} < {}",
                c.tag,
                c.value
            );
        }
    }

    #[test]
    fn agrees_with_simplex_on_random_lps() {
        use crate::simplex::{solve, LpProblem, Relation};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..10 {
            let rows = rng.random_range(2..5);
            let ncols = rng.random_range(2..6);
            let b: Vec<f64> = (0..rows).map(|_| rng.random_range(1.0..8.0)).collect();
            let mut cols = Vec::new();
            let mut lp = LpProblem::new(ncols);
            for j in 0..ncols {
                let value = rng.random_range(0.5..4.0);
                let mut entries = Vec::new();
                for i in 0..rows {
                    if rng.random_range(0.0..1.0) < 0.8 {
                        entries.push((i, rng.random_range(0.2..2.0)));
                    }
                }
                if entries.is_empty() {
                    entries.push((0, 1.0));
                }
                lp.objective[j] = value;
                cols.push(col(value, entries, j as u64));
            }
            for (i, &cap) in b.iter().enumerate().take(rows) {
                let terms: Vec<(usize, f64)> = cols
                    .iter()
                    .enumerate()
                    .flat_map(|(j, c)| {
                        c.entries
                            .iter()
                            .filter(move |&&(r, _)| r == i)
                            .map(move |&(_, a)| (j, a))
                    })
                    .collect();
                lp.add_constraint(terms, Relation::Le, cap);
            }
            let exact = solve(&lp).expect_optimal("random packing LP");
            let oracle = Explicit { b, cols };
            let cfg = PackingConfig {
                epsilon: 0.02,
                max_iterations: 400_000,
            };
            let approx = solve_packing(&oracle, cfg);
            assert!(
                approx.primal_value <= exact.objective + 1e-6,
                "trial {trial}: primal exceeds optimum"
            );
            assert!(
                approx.dual_bound >= exact.objective - 1e-6,
                "trial {trial}: dual bound below optimum"
            );
            assert!(
                approx.primal_value >= exact.objective / 1.05,
                "trial {trial}: primal {} too far from optimum {}",
                approx.primal_value,
                exact.objective
            );
        }
    }
}
