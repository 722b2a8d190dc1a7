//! Figure/table regeneration for the DAC'15 dark-silicon paper.
//!
//! One public function per table and figure of the paper's evaluation,
//! each returning a serializable data structure with exactly the
//! rows/series the paper plots. The `repro` binary prints them as text
//! tables (and JSON via `--json`); the Criterion benches in `benches/`
//! time the computational kernels behind each figure.
//!
//! | Function | Paper artefact |
//! |---|---|
//! | [`table1`]  | Figure 1's scaling-factor table |
//! | [`fig2`]    | f–V curve with NTC/STC/Boost regions |
//! | [`fig3`]    | Eq. (1) fit vs McPAT-style samples |
//! | [`fig4`]    | speed-up vs threads |
//! | [`fig5`]    | dark silicon under two TDPs vs frequency |
//! | [`fig6`]    | TDP- vs temperature-constrained dark silicon |
//! | [`fig7`]    | DVFS scenarios (performance + active cores) |
//! | [`fig8`]    | mapping patterns and thermal profiles |
//! | [`fig9`]    | DsRem vs TDPmap |
//! | [`fig10`]   | performance under TSP across nodes |
//! | [`fig11`]   | transient boosting vs constant frequency |
//! | [`fig12`]   | performance/power vs active cores |
//! | [`fig13`]   | boosting vs constant across applications |
//! | [`fig14`]   | STC vs NTC iso-performance energy |
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod extras;
pub mod figures;

/// The run journal lives in `darksil-engine`; these two names stay
/// importable from here for the standalone benchmark harness, which
/// builds against this crate's public API.
pub use darksil_engine::{ArtefactState, Journal};
pub use extras::*;
pub use figures::*;
