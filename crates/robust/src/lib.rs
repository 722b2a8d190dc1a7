//! Resilience layer for the darksil pipeline.
//!
//! Two halves:
//!
//! - [`DarksilError`], the workspace-level error taxonomy. Every crate
//!   keeps its own local error enum (so callers can still match on
//!   domain-specific failures) and provides `From<LocalError> for
//!   DarksilError` so drivers — the CLI, the `repro` harness, a future
//!   service — can classify any failure into a small, stable set of
//!   machine-readable classes without downcasting.
//! - [`FaultPlan`], the fault-injection harness. Tests and the `repro
//!   --inject` flag use it to corrupt sensor readings, poison power
//!   samples with NaN, cap CG iteration budgets, request off-ladder
//!   frequencies, and simulate hung/slow/transiently-failing jobs,
//!   verifying that DTM and DsRem *degrade* (throttle, relax
//!   tolerances) and the job supervisor retries or fails cleanly
//!   instead of panicking.
//! - [`CancellationToken`] / [`RunContext`], cooperative cancellation
//!   with wall-clock deadlines. The context is thread-scoped (see
//!   [`scoped`]) so CG iterations and per-step policy loops can poll
//!   [`check_deadline`] without every solver signature growing a token
//!   parameter.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod cancel;
mod error;
mod fault;
mod rng;

pub use cancel::{
    check_deadline, current_attempt, run_context, scoped, CancellationToken, RunContext,
};
pub use error::{DarksilError, ErrorClass};
pub use fault::{Fault, FaultPlan};
pub use rng::SplitMix64;
