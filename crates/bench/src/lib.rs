//! # ufp-bench
//!
//! The experiment harness regenerating every quantitative claim of
//! *"Truthful Unsplittable Flow for Large Capacity Networks"*:
//!
//! * [`experiments`] — E1..E12, each certifying one theorem / figure
//!   (index in DESIGN.md §3; recorded results in EXPERIMENTS.md);
//! * [`table`] — plain-text/CSV result tables.
//!
//! Run the suite with:
//!
//! ```text
//! cargo run -p ufp-bench --release --bin experiments -- all
//! cargo run -p ufp-bench --release --bin experiments -- e2 e3
//! ```
//!
//! Timing is perfbench's job (the separate `perfbench/` workspace); this
//! crate only checks and tabulates results.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod table;

pub use experiments::{run_all, run_experiment, ALL_IDS};
pub use table::Table;
