//! Boosting vs constant-frequency operation, STC vs NTC (§6).
//!
//! The paper's final study compares two ways of spending a thermal
//! budget:
//!
//! * **Boosting** ([`run_boosting`]) — an Intel-Turbo-Boost-style
//!   closed-loop controller with a 1 ms period: every period the peak
//!   temperature is compared against the 80 °C threshold and the
//!   chip-wide frequency moves one 200 MHz step up or down, oscillating
//!   around the threshold (Figure 11),
//! * **Constant frequency** ([`run_constant`]) — the highest discrete
//!   V/f level whose *steady state* stays below the threshold; because
//!   levels are discrete it settles a few degrees under it.
//!
//! Both honour an optional electrical power cap (the 500 W constraint
//! of §6). [`sweep_active_cores`] regenerates the Figure 12/13
//! performance-and-power-versus-active-cores curves, and
//! [`iso_performance_comparison`] the Figure 14 STC-vs-NTC
//! iso-performance energy study behind Observation 4.
//! [`run_per_instance_boosting`] extends §6 with a per-cluster control
//! domain (modern per-core DVFS) for comparison against the paper's
//! chip-wide loop, and [`run_phased_boosting`] strings workload phases
//! through one thermal history — the boost budget is stateful.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod constant;
mod driver;
mod error;
mod ntc;
mod per_instance;
mod phases;
mod sweep;
mod trace;
mod turbo;

pub use constant::{max_safe_level, run_constant};
pub use error::BoostError;
pub use ntc::{iso_performance_comparison, IsoPerfComparison, OperatingPoint};
pub use per_instance::run_per_instance_boosting;
pub use phases::{run_phased_boosting, Phase};
pub use sweep::{sweep_active_cores, SweepPoint};
pub use trace::{PolicyTrace, TraceSample};
pub use turbo::{run_boosting, PolicyConfig};
