//! Property tests for the thermal RC model.

use darksil_floorplan::Floorplan;
use darksil_thermal::{PackageConfig, ThermalModel, TransientSim};
use darksil_units::{Seconds, SquareMillimeters, Watts};
use proptest::prelude::*;

fn model_4x4() -> ThermalModel {
    let plan = Floorplan::grid(4, 4, SquareMillimeters::new(5.1)).unwrap();
    ThermalModel::new(&plan, PackageConfig::paper_dac15()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation: at steady state, all injected power leaves through
    /// convection — for any power map.
    #[test]
    fn energy_balance_for_any_power_map(
        powers in prop::collection::vec(0.0_f64..6.0, 16),
    ) {
        let m = model_4x4();
        let power: Vec<Watts> = powers.iter().map(|&p| Watts::new(p)).collect();
        let total: f64 = powers.iter().sum();
        let map = m.steady_state(&power).unwrap();
        let out: f64 = m
            .ambient_conductances()
            .iter()
            .zip(map.state())
            .map(|(g, t)| g * (t - m.ambient().value()))
            .sum();
        prop_assert!((out - total).abs() < 1e-4 * (1.0 + total), "{out} vs {total}");
    }

    /// Linearity: scaling the power map scales every temperature *rise*
    /// by the same factor.
    #[test]
    fn temperature_rise_is_linear_in_power(
        powers in prop::collection::vec(0.0_f64..4.0, 16),
        k in 0.1_f64..3.0,
    ) {
        let m = model_4x4();
        let base: Vec<Watts> = powers.iter().map(|&p| Watts::new(p)).collect();
        let scaled: Vec<Watts> = powers.iter().map(|&p| Watts::new(p * k)).collect();
        let t1 = m.steady_state(&base).unwrap();
        let t2 = m.steady_state(&scaled).unwrap();
        let amb = m.ambient().value();
        for (a, b) in t1.state().iter().zip(t2.state()) {
            let rise1 = a - amb;
            let rise2 = b - amb;
            prop_assert!((rise2 - k * rise1).abs() < 1e-5 * (1.0 + rise2.abs()));
        }
    }

    /// Transient trajectories are bounded by the steady state under
    /// constant input from a cold start (monotone approach, no
    /// overshoot in a passive RC network).
    #[test]
    fn transient_never_overshoots_steady_state(
        powers in prop::collection::vec(0.0_f64..5.0, 16),
    ) {
        let m = model_4x4();
        let power: Vec<Watts> = powers.iter().map(|&p| Watts::new(p)).collect();
        let steady = m.steady_state(&power).unwrap();
        let mut sim = TransientSim::new(&m, Seconds::new(0.5)).unwrap();
        for _ in 0..40 {
            let now = sim.step(&power).unwrap();
            prop_assert!(now.peak() <= steady.peak() + 1e-6);
        }
    }

    /// Grid-mode and block-mode stay within ~1.5 °C of each other for
    /// arbitrary power maps (same physics, finer discretisation — the
    /// block model slightly overestimates isolated hotspots because it
    /// lumps away intra-footprint spreading).
    #[test]
    fn subdivision_is_a_refinement_not_a_different_model(
        powers in prop::collection::vec(0.0_f64..5.0, 9),
    ) {
        let plan = Floorplan::grid(3, 3, SquareMillimeters::new(5.1)).unwrap();
        let block = ThermalModel::new(&plan, PackageConfig::paper_dac15()).unwrap();
        let grid =
            ThermalModel::with_subdivision(&plan, PackageConfig::paper_dac15(), 2).unwrap();
        let power: Vec<Watts> = powers.iter().map(|&p| Watts::new(p)).collect();
        let t_block = block.steady_state(&power).unwrap();
        let t_grid = grid.steady_state(&power).unwrap();
        for core in plan.cores() {
            let d = (t_block.core(core) - t_grid.core(core)).abs();
            prop_assert!(d < 1.5, "{core}: {d} °C apart");
        }
    }
}
