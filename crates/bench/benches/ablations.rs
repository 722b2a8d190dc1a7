//! Ablation benchmarks for the design choices called out in DESIGN.md:
//! backward Euler vs RK4, blind-spread vs thermally optimised
//! patterning, and the leakage-temperature loop vs a single cold-leakage
//! solve.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use darksil_floorplan::Floorplan;
use darksil_mapping::{optimize_pattern, spread_cores, Platform};
use darksil_numerics::ode::LinearOde;
use darksil_numerics::TripletMatrix;
use darksil_power::TechnologyNode;
use darksil_thermal::{PackageConfig, ThermalModel};
use darksil_units::{SquareMillimeters, Watts};
use std::hint::black_box;

fn thermal_setup(cores: usize) -> (ThermalModel, Vec<Watts>) {
    // Node-appropriate core areas so every chip fits the 3 cm spreader.
    let area = match cores {
        0..=100 => 5.1,
        101..=198 => 2.7,
        _ => 1.4,
    };
    let plan = Floorplan::squarish(cores, SquareMillimeters::new(area)).unwrap();
    let model = ThermalModel::new(&plan, PackageConfig::paper_dac15()).unwrap();
    let power: Vec<Watts> = (0..cores)
        .map(|i| {
            if i % 3 != 0 {
                Watts::new(2.5)
            } else {
                Watts::zero()
            }
        })
        .collect();
    (model, power)
}

/// Backward Euler (one implicit solve) vs RK4 (four explicit
/// evaluations) per step on the stiff thermal system. RK4 steps are
/// cheaper but need ~1000× smaller dt for stability; this measures the
/// raw per-step cost behind that trade-off.
fn bench_be_vs_rk4(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_be_vs_rk4");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(3));

    let (model, power) = thermal_setup(100);
    let n = model.node_count();
    let mut t = TripletMatrix::new(n, n);
    for (r, cidx, v) in model.conductance().iter() {
        t.add(r, cidx, v);
    }
    let ode = LinearOde::new(t.to_csr(), model.capacitances().to_vec()).unwrap();
    let b_vec: Vec<f64> = {
        let mut r: Vec<f64> = model
            .ambient_conductances()
            .iter()
            .map(|gv| gv * model.ambient().value())
            .collect();
        for (ri, p) in r.iter_mut().zip(&power) {
            *ri += p.value();
        }
        r
    };
    let x0 = vec![45.0; n];

    g.bench_function("backward_euler_step_1ms", |bch| {
        let stepper = ode.backward_euler(1.0e-3).unwrap();
        bch.iter(|| black_box(stepper.step(&x0, &b_vec).unwrap()));
    });
    g.bench_function("rk4_step_1us", |bch| {
        bch.iter(|| black_box(ode.rk4_step(&x0, &b_vec, 1.0e-6)));
    });
    g.finish();
}

/// Blind R2 spread vs the greedy thermally optimised pattern.
fn bench_patterning(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_patterning");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(5));
    g.sample_size(10);

    let platform = Platform::for_node(TechnologyNode::Nm16).unwrap();
    g.bench_function("blind_spread_60", |b| {
        b.iter(|| black_box(spread_cores(platform.floorplan(), 60)));
    });
    g.bench_function("optimized_pattern_60", |b| {
        b.iter(|| black_box(optimize_pattern(&platform, 60, Watts::new(3.77), 100).unwrap()));
    });
    g.finish();
}

/// Block model vs grid-mode subdivision: solve cost at s = 1, 2, 3.
fn bench_subdivision(c: &mut Criterion) {
    use darksil_thermal::PackageConfig as Pkg;
    let mut g = c.benchmark_group("ablation_subdivision");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(3));
    g.sample_size(20);

    let plan = Floorplan::squarish(100, SquareMillimeters::new(5.1)).unwrap();
    let power: Vec<Watts> = (0..100)
        .map(|i| {
            if i % 2 == 0 {
                Watts::new(3.0)
            } else {
                Watts::zero()
            }
        })
        .collect();
    for s in [1_usize, 2, 3] {
        let model =
            darksil_thermal::ThermalModel::with_subdivision(&plan, Pkg::paper_dac15(), s).unwrap();
        g.bench_with_input(BenchmarkId::new("steady_state", s), &s, |b, _| {
            b.iter(|| black_box(model.steady_state(&power).unwrap()));
        });
    }
    g.finish();
}

criterion_group!(
    ablations,
    bench_be_vs_rk4,
    bench_patterning,
    bench_subdivision
);
criterion_main!(ablations);
