//! # ufp-lp
//!
//! Linear-programming substrate for the truthful unsplittable-flow
//! library. Two complementary solvers:
//!
//! * [`simplex`] — an exact dense two-phase primal simplex with dual
//!   extraction, for ground-truth fractional optima on small and medium
//!   instances (the paper's Figure 1 and Figure 5 programs, built
//!   explicitly by [`ufp_lp`]).
//! * [`packing`] — a self-certifying Garg–Könemann multiplicative-weights
//!   solver for packing LPs accessed through a column oracle, scaling to
//!   large instances; [`mcf`] instantiates it for the fractional UFP
//!   relaxation with a Dijkstra oracle (the machinery of [9, 8] in the
//!   paper's bibliography).
//!
//! Both report primal *and* dual certificates, so every approximation
//! ratio computed elsewhere in the workspace is certified rather than
//! assumed. [`duality`] provides the weak-duality checkers used in tests.

#![forbid(unsafe_code)]

pub mod dense;
pub mod duality;
pub mod mcf;
pub mod packing;
pub mod simplex;
pub mod ufp_lp;

pub use mcf::{
    certified_duality_gap, sanitize_commodities, solve_fractional_ufp,
    solve_fractional_ufp_with_caps, Commodity, FracFlow, FracUfpSolution,
};
pub use packing::{solve_packing, Column, ColumnOracle, PackingConfig, PackingSolution};
pub use simplex::{solve, LpOutcome, LpProblem, LpSolution, Relation};
pub use ufp_lp::{
    build_ufp_lp, build_ufp_repetition_lp, solve_ufp_lp_exact, solve_ufp_repetition_lp_exact,
    ExactFracSolution,
};
