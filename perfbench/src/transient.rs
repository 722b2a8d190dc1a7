//! `transient`: seeded boosting-vs-constant scenarios through
//! `run_scenario`, fanned out with `Engine::try_par_map`. Nearly all the
//! time goes into boost → thermal step → LDLᵀ substitution → power map.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use darksil_engine::{stable_hash, Engine};
use darksil_json::ToJson;
use darksil_mapping::Platform;
use darksil_numerics::{factor_cache_stats, factor_spd};
use darksil_power::TechnologyNode;
use darksil_scenario::{build_platform, run_scenario, ExperimentSpec, Scenario, ScenarioReport};
use darksil_thermal::TransientSim;
use darksil_units::Seconds;

use crate::gen::{self, TRANSIENT_PERIOD_S, TRANSIENT_STEPS_PER_POLICY};
use crate::probes;
use crate::stats::{self, secs, TAIL_PERCENTILE};
use crate::{jobs, Args, Metric, Outcome};

/// Scenarios per seed: 16 per chip. The timed phase runs passes over
/// the whole list, one `try_par_map` call each.
const LIST_LEN: usize = 48;
/// Scenarios re-run serially after the timed phase to check the
/// parallel reports.
const SERIAL_CHECK: usize = 8;
const SETUP_REPS: usize = 9;
/// Control periods of one scenario: both policies.
const STEPS_PER_SCENARIO: u64 = 2 * TRANSIENT_STEPS_PER_POLICY;
/// The arena oracle's temp-bound margin for boosting runs.
const BOOST_MARGIN_C: f64 = 6.0;

pub fn node_of(nm: u32) -> TechnologyNode {
    *TechnologyNode::ALL
        .iter()
        .find(|n| n.nanometers() == nm)
        .expect("generated nodes are known")
}

/// The chip a boost scenario on `nm` runs on, as `run_scenario` builds
/// it.
pub fn boost_platform(s: &Scenario) -> Result<Platform, String> {
    build_platform(s)
        .map_err(|e| e.to_string())?
        .with_boost_levels(node_of(s.node).nominal_max_frequency() * 1.25)
        .map_err(|e| e.to_string())
}

/// Input generation, chip assembly, first factorisations, and one
/// five-period warm-up scenario per chip so the factor cache is filled.
pub(crate) fn setup(seed: u64) -> Result<Vec<Scenario>, String> {
    let scenarios = gen::transient_scenarios(seed, LIST_LEN);
    for nm in gen::TRANSIENT_NODES {
        let Some(s) = scenarios.iter().find(|s| s.node == nm) else {
            continue;
        };
        let platform = boost_platform(s)?;
        factor_spd(platform.thermal().conductance()).map_err(|e| e.to_string())?;
        TransientSim::new(platform.thermal(), Seconds::new(TRANSIENT_PERIOD_S))
            .map_err(|e| e.to_string())?;
        let mut warm = s.clone();
        warm.experiment = ExperimentSpec::Boost {
            duration_s: 5.0 * TRANSIENT_PERIOD_S,
            period_s: TRANSIENT_PERIOD_S,
        };
        run_scenario(&warm).map_err(|e| e.to_string())?;
    }
    Ok(scenarios)
}

fn timed_setup(seed: u64) -> Result<(Vec<Scenario>, f64), String> {
    let mut times = Vec::new();
    let mut scenarios = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        scenarios = setup(seed)?;
        times.push(secs(t));
    }
    Ok((scenarios, stats::median(&times)))
}

/// Output checks of one report: finite, and the boosting peak within
/// the oracle's margin over the 80 °C threshold.
fn check(report: &ScenarioReport) -> Option<String> {
    let values = [
        report.dark_fraction,
        report.total_gips,
        report.total_power_w,
        report.peak_temperature_c,
    ];
    if values.iter().any(|v| !v.is_finite()) {
        return Some(format!("{}: non-finite report", report.name));
    }
    let bound = darksil_boost::PolicyConfig::default().threshold.value() + BOOST_MARGIN_C;
    if report.peak_temperature_c > bound {
        return Some(format!(
            "{}: boosting peak {:.2} °C above {bound} °C",
            report.name, report.peak_temperature_c
        ));
    }
    None
}

fn digest(report: &ScenarioReport) -> u64 {
    stable_hash(report.to_json().compact().as_bytes())
}

/// One scenario's result: its list index, report digest or error, the
/// wall seconds `run_scenario` took, and the reference-seconds factor of
/// the kernel sample its worker took right after it.
pub(crate) type Run = (usize, Result<u64, String>, f64, f64);

/// A pass's wall seconds and its reference seconds per wall second
/// (see [`stats::factor`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Timed {
    wall: f64,
    factor: f64,
}

impl Timed {
    fn reference(&self) -> f64 {
        self.wall * self.factor
    }
}

/// Calibration-kernel sweeps run after each scenario, on the worker that
/// ran it: about a millisecond, so the machine's speed is sampled
/// throughout the pass at a cost of 1–2 %.
const SAMPLE_SWEEPS: usize = 40;

/// Runs `items` through `try_par_map` on `engine`. The pass is timed in
/// reference seconds from the kernel samples its workers took.
pub(crate) fn pass(
    engine: &Engine,
    items: Vec<(usize, Scenario)>,
) -> Result<(Vec<Run>, Timed), String> {
    let t = Instant::now();
    let runs = engine
        .try_par_map(items, |(i, s)| {
            let started = Instant::now();
            let report = run_scenario(&s).map_err(|e| e.to_string());
            let took = secs(started);
            let checked = report.and_then(|r| check(&r).map_or(Ok(digest(&r)), Err));
            let sample = stats::kernel(SAMPLE_SWEEPS);
            Ok((
                (i, checked, took, stats::factor(&[sample], SAMPLE_SWEEPS)),
                sample,
            ))
        })
        .map_err(|e| e.to_string())?;
    let wall = secs(t);
    let samples: Vec<f64> = runs.iter().map(|(_, k)| *k).collect();
    let factor = stats::factor(&samples, SAMPLE_SWEEPS);
    Ok((
        runs.into_iter().map(|(run, _)| run).collect(),
        Timed { wall, factor },
    ))
}

/// The first `n` scenarios of the list, the largest chips first so a
/// pass ends on short runs and its workers finish close together.
pub(crate) fn indexed(scenarios: &[Scenario], n: usize) -> Vec<(usize, Scenario)> {
    let mut items: Vec<(usize, Scenario)> = scenarios.iter().cloned().enumerate().take(n).collect();
    items.sort_by_key(|(_, s)| s.node);
    items
}

/// Report digest per scenario index; `None` when one scenario gave two
/// different reports.
fn digests(runs: &[Run]) -> Option<BTreeMap<usize, u64>> {
    let mut map = BTreeMap::new();
    for (i, result, _, _) in runs {
        if let Ok(d) = result {
            if *map.entry(*i).or_insert(*d) != *d {
                return None;
            }
        }
    }
    Some(map)
}

/// Whether every scenario `reference` ran has the same report in `runs`.
fn same_reports(runs: &[Run], reference: &[Run]) -> bool {
    match (digests(runs), digests(reference)) {
        (Some(got), Some(want)) => want.iter().all(|(i, d)| got.get(i) == Some(d)),
        _ => false,
    }
}

pub fn measure(args: &Args) -> Result<Outcome, String> {
    let (scenarios, setup_s) = timed_setup(args.seed)?;
    let engine = Engine::new(jobs());
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut runs = Vec::new();
    // Control periods per reference second of each pass; the median is
    // robust to a burst of outside load that slows one pass.
    let (mut rates, mut raw_rates, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
    let mut out = Outcome::default();
    while rates.is_empty() || Instant::now() < deadline {
        let (pass_runs, t) = pass(&engine, indexed(&scenarios, LIST_LEN))?;
        let mut done = 0;
        for (_, result, took, factor) in &pass_runs {
            out.op(result.as_ref().err().cloned());
            if result.is_ok() {
                done += 1;
                latencies.push(took * factor * 1e3);
            }
        }
        let steps = (done * STEPS_PER_SCENARIO) as f64;
        rates.push(steps / t.reference());
        raw_rates.push(steps / t.wall);
        runs.extend(pass_runs);
    }
    if latencies.is_empty() {
        return Err("no scenario finished".into());
    }
    let (serial, _) = pass(&Engine::new(1), indexed(&scenarios, SERIAL_CHECK))?;
    out.correct = out.failed == 0 && same_reports(&runs, &serial);
    out.metrics.push(Metric::new("setup_s", setup_s, "s"));
    out.metrics
        .push(Metric::new("peak_rss_mb", stats::own_peak_rss_mb(), "MB"));
    out.metrics
        .push(Metric::new("work_per_s", stats::median(&rates), "1/s"));
    out.metrics.push(Metric::new(
        "latency_p50_ms",
        stats::median(&latencies),
        "ms",
    ));
    out.metrics.push(Metric::new(
        "latency_p90_ms",
        stats::percentile(&latencies, TAIL_PERCENTILE),
        "ms",
    ));
    println!(
        "# transient: {} passes, {} scenarios on {} worker(s); wall-clock work_per_s {:.1}",
        rates.len(),
        latencies.len(),
        jobs(),
        stats::median(&raw_rates)
    );
    Ok(out)
}

pub fn traced(args: &Args) -> Result<Outcome, String> {
    let scenarios = setup(args.seed)?;
    let engine = Engine::new(jobs());
    let items = indexed(&scenarios, LIST_LEN);

    // Untraced and traced passes alternate twice, so drift and warm-up
    // fall on both sides of the overhead ratio.
    let (untraced, t_u1) = pass(&engine, items.clone())?;
    let before = factor_cache_stats();
    let (traced, t_t) = pass(&engine, items.clone())?;
    let after = factor_cache_stats();
    let (_, t_u2) = pass(&engine, items.clone())?;
    let (_, t_t2) = pass(&engine, items.clone())?;
    let (serial, _) = pass(&Engine::new(1), indexed(&scenarios, SERIAL_CHECK))?;

    let mut out = Outcome::default();
    for (_, result, _, _) in &traced {
        out.op(result.as_ref().err().cloned());
    }
    out.correct =
        out.failed == 0 && same_reports(&traced, &serial) && same_reports(&traced, &untraced);

    let busy: f64 = traced.iter().map(|(_, _, took, _)| took).sum();
    let workers = jobs() as f64;
    let mut attributed = 0.0;
    for nm in gen::TRANSIENT_NODES {
        let count = traced
            .iter()
            .filter(|(i, _, _, _)| scenarios[*i].node == nm)
            .count();
        if count > 0 {
            let per_step = probes::step_cost_reference_s(nm)?;
            attributed += count as f64 * STEPS_PER_SCENARIO as f64 * per_step;
        }
    }
    let misses = after.misses - before.misses;
    let lookups = misses + (after.hits - before.hits);
    out.metrics.push(
        Metric::new(
            "engine.par_map_efficiency",
            busy / (workers * t_t.wall),
            "ratio",
        )
        .moves("work_per_s on transient"),
    );
    out.metrics.push(
        Metric::new("numerics.factorisations", misses as f64, "count")
            .moves("setup_s on transient"),
    );
    out.metrics.push(
        Metric::new(
            "numerics.factor_cache.hit_ratio",
            stats::share(lookups - misses, lookups),
            "ratio",
        )
        .moves("work_per_s on transient"),
    );
    out.metrics.push(
        Metric::new(
            "work.units",
            (traced.len() as u64 * STEPS_PER_SCENARIO) as f64,
            "count",
        )
        .moves("control periods in the traced pass"),
    );
    out.metrics.push(
        Metric::new(
            "trace.unattributed_share",
            1.0 - attributed / (workers * t_t.reference()),
            "share",
        )
        .moves("wall x workers not covered by thermal step + power map + snapshot"),
    );
    out.metrics.push(
        Metric::new(
            "trace.overhead_share",
            (t_t.reference() + t_t2.reference()) / (t_u1.reference() + t_u2.reference()) - 1.0,
            "share",
        )
        .moves("traced vs untraced passes, reference seconds"),
    );
    Ok(out)
}
