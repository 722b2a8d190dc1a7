//! Compact thermal RC modelling — the workspace's HotSpot stand-in.
//!
//! The paper obtains on-chip temperatures from HotSpot (§2.1) with a
//! fully specified package: a 0.15 mm die, 20 µm thermal interface
//! material, a 3×3 cm / 1 mm copper spreader and a 6×6 cm / 6.9 mm heat
//! sink with a 0.1 K/W convection resistance. This crate rebuilds that
//! methodology from scratch as a block-level RC network:
//!
//! * one thermal cell per core in the **die**, **spreader** and **sink**
//!   layers (the TIM is folded into the die→spreader resistance),
//! * a **periphery node** for the spreader and sink rings that extend
//!   beyond the die footprint,
//! * lateral conduction within each layer, vertical conduction between
//!   layers, and convection from every sink node to ambient,
//! * heat capacities per cell (plus the package's convection
//!   capacitance) for transient analysis.
//!
//! Steady states solve the SPD system `G·T = P + G_amb·T_amb` by
//! substitution through sparse LDLᵀ factors of `G`, computed once per
//! model, with the robust CG chain as fallback; transients integrate
//! `C·dT/dt = P + G_amb·T_amb − G·T` with the backward-Euler stepper of
//! `darksil-numerics`.
//!
//! # Examples
//!
//! ```
//! use darksil_floorplan::Floorplan;
//! use darksil_thermal::{PackageConfig, ThermalModel};
//! use darksil_units::{SquareMillimeters, Watts};
//!
//! let plan = Floorplan::grid(10, 10, SquareMillimeters::new(5.1))?;
//! let model = ThermalModel::new(&plan, PackageConfig::paper_dac15())?;
//!
//! // 52 active cores at ≈3.8 W (the Figure 8 scenario).
//! let power: Vec<Watts> = (0..100)
//!     .map(|i| if i < 52 { Watts::new(3.77) } else { Watts::zero() })
//!     .collect();
//! let map = model.steady_state(&power)?;
//! assert!(map.peak().value() > 60.0 && map.peak().value() < 100.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod error;
mod map;
mod model;
mod package;
mod transient;

pub use error::ThermalError;
pub use map::ThermalMap;
pub use model::ThermalModel;
pub use package::{LayerConfig, PackageConfig};
pub use transient::TransientSim;
