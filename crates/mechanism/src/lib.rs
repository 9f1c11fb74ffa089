//! # ufp-mechanism
//!
//! The game-theoretic layer of the reproduction: Theorem 2.3 of the paper
//! ("monotone + exact ⇒ truthful") as executable code.
//!
//! * [`allocator`] — the [`allocator::SingleParamAllocator`] abstraction
//!   plus adapters for Bounded-UFP, Bounded-MUCA and the BKV baseline.
//! * [`payment`] — critical-value computation by monotone bisection.
//! * [`mechanism`] — [`mechanism::CriticalValueMechanism`]: allocation +
//!   payments + quasi-linear utilities.
//! * [`verify`] — black-box monotonicity and incentive-compatibility
//!   verifiers (used by tests and experiment E8), including the
//!   UFP-specific joint (demand, value) misreport check with the paper's
//!   exactness semantics.

#![forbid(unsafe_code)]

pub mod allocator;
pub mod mechanism;
pub mod payment;
pub mod verify;

pub use allocator::{BkvAllocator, MucaAllocator, SingleParamAllocator, UfpAllocator};
pub use mechanism::{CriticalValueMechanism, MechanismOutcome};
pub use payment::{brackets_exact, critical_value, critical_value_from_probe, PaymentConfig};
pub use verify::{
    verify_ufp_type_truthfulness, verify_value_monotonicity, verify_value_truthfulness,
    VerificationReport,
};
