//! Per-layer probes: each times calls into one layer's public functions
//! from here, on fixed inputs, so the traced run can say which layer an
//! end-to-end change came from. No spans are added inside the program.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use darksil_bench::{ArtefactState, Journal};
use darksil_boost::{run_boosting, run_constant, PolicyConfig};
use darksil_engine::{Engine, ResultCache};
use darksil_json::{Json, ToJson};
use darksil_mapping::{place_patterned, DsRem, Mapping, Platform, TdpMap};
use darksil_numerics::{factor_cache_stats, factor_spd};
use darksil_scenario::{build_workload, run_scenario, ExperimentSpec, Scenario, WorkloadSpec};
use darksil_serve::{parse_request, Registry};
use darksil_sweep::{
    analyze, expand, render_sweep_report, run_sweep, CacheCounts, EvalOutcome, SweepOptions,
    SweepResult, SweepSpec,
};
use darksil_thermal::TransientSim;
use darksil_units::{Celsius, Seconds, Watts};

use crate::gen::{self, TRANSIENT_HORIZON_S, TRANSIENT_PERIOD_S};
use crate::stats::{self, median_secs, per_call_us};
use crate::{fresh_dir, jobs, serve, transient, Args, Metric};

const ON_TRANSIENT: &str = "work_per_s on transient";
/// The sweep path has no end-to-end workload (too unsteady on the host
/// the benchmark was sized on); its own throughput is measured here.
const SWEEP: &str = "sweep.cold_evals_per_s and sweep.delta_evals_per_s";

fn scenario(node: u32, instances: usize, experiment: ExperimentSpec) -> Scenario {
    Scenario {
        name: format!("probe-{node}"),
        node,
        cores: None,
        t_dtm_celsius: None,
        variation_seed: None,
        leakage_sigma: None,
        frequency_sigma: None,
        workload: vec![WorkloadSpec {
            app: "x264".into(),
            instances,
            threads: 8,
        }],
        experiment,
    }
}

fn boost_scenario(node: u32) -> Scenario {
    let slots = gen::TRANSIENT_NODES
        .iter()
        .position(|&n| n == node)
        .map_or(6, |i| [12, 24, 45][i] / 2);
    scenario(
        node,
        slots,
        ExperimentSpec::Boost {
            duration_s: TRANSIENT_HORIZON_S,
            period_s: TRANSIENT_PERIOD_S,
        },
    )
}

/// A default chip at `node` with boost levels, half filled with 8-thread
/// x264 instances placed as a boost scenario places them.
struct Chip {
    platform: Platform,
    mapping: Mapping,
    power: Vec<Watts>,
}

fn chip(node: u32) -> Result<Chip, String> {
    let s = boost_scenario(node);
    let platform = transient::boost_platform(&s)?;
    let workload = build_workload(&s).map_err(|e| e.to_string())?;
    let mapping = place_patterned(platform.floorplan(), &workload, platform.max_level())
        .map_err(|e| e.to_string())?;
    let power = mapping.power_map(&platform, Celsius::new(60.0));
    Ok(Chip {
        platform,
        mapping,
        power,
    })
}

/// Per-call microseconds of the three per-step calls of a policy loop.
struct StepCosts {
    step_us: f64,
    snapshot_us: f64,
    power_map_us: f64,
}

fn sim_for(c: &Chip) -> Result<TransientSim, String> {
    let mut sim = TransientSim::new(c.platform.thermal(), Seconds::new(TRANSIENT_PERIOD_S))
        .map_err(|e| e.to_string())?;
    sim.run(&c.power, 20).map_err(|e| e.to_string())?;
    Ok(sim)
}

fn step_costs(c: &Chip) -> Result<StepCosts, String> {
    let mut sim = sim_for(c)?;
    let step_us = per_call_us(7, 50, || {
        black_box(sim.step(&c.power).expect("probe step solves"));
    });
    let snapshot_us = per_call_us(7, 200, || {
        black_box(sim.snapshot());
    });
    let temps: Vec<Celsius> = sim.snapshot().die_temperatures().collect();
    let power_map_us = per_call_us(7, 200, || {
        black_box(c.mapping.power_map_at(&c.platform, &temps));
    });
    Ok(StepCosts {
        step_us,
        snapshot_us,
        power_map_us,
    })
}

/// Seconds per step of the policy loop body (snapshot → power map →
/// thermal step) over one batch as long as a policy run.
fn loop_body_s(c: &Chip, sim: &mut TransientSim) -> f64 {
    const STEPS: u32 = 1000;
    let t = Instant::now();
    for _ in 0..STEPS {
        let temps: Vec<Celsius> = sim.snapshot().die_temperatures().collect();
        let power = c.mapping.power_map_at(&c.platform, &temps);
        black_box(sim.step(&power).expect("probe step solves"));
    }
    stats::secs(t) / f64::from(STEPS)
}

/// Reference seconds (see [`stats::factor`]) of one policy loop body on
/// the default chip at `node`: each batch is scaled by a kernel sample
/// taken right after it, and the median is kept.
pub fn step_cost_reference_s(node: u32) -> Result<f64, String> {
    const SWEEPS: usize = 200;
    let c = chip(node)?;
    let mut sim = sim_for(&c)?;
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let body = loop_body_s(&c, &mut sim);
            body * stats::factor(&[stats::kernel(SWEEPS)], SWEEPS)
        })
        .collect();
    Ok(stats::median(&samples))
}

/// Median seconds of `Journal::ensure` + `transition` on a journal of
/// `entries` entries.
fn journal_transition_s(work: &Path, entries: usize) -> Result<f64, String> {
    let dir = fresh_dir(work, &format!("journal-probe-{entries}"));
    let names: Vec<String> = (0..entries).map(|i| format!("entry-{i}")).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let journal = Journal::create(dir.join("journal.json"), Json::Obj(Vec::new()), &refs);
    journal.save().map_err(|e| e.to_string())?;
    let mut times = Vec::new();
    for k in 0..7 {
        let name = format!("probe-{k}");
        let t = Instant::now();
        journal.ensure(&name).map_err(|e| e.to_string())?;
        journal
            .transition(&name, ArtefactState::Running)
            .map_err(|e| e.to_string())?;
        times.push(stats::secs(t));
    }
    Ok(stats::median(&times))
}

fn numerics_and_thermal(m: &mut Vec<Metric>) -> Result<(), String> {
    for node in gen::TRANSIENT_NODES {
        let c = chip(node)?;
        let thermal = c.platform.thermal();
        let a = thermal.conductance();
        let factor_s = median_secs(5, || {
            black_box(factor_spd(a).expect("chip matrix factors"));
        });
        let factors = factor_spd(a).map_err(|e| e.to_string())?;
        let b = vec![1.0; factors.dimension()];
        let solve_us = per_call_us(7, 50, || {
            black_box(factors.solve(&b).expect("probe solve"));
        });
        let steady_us = per_call_us(5, 10, || {
            black_box(thermal.steady_state(&c.power).expect("probe steady state"));
        });
        let costs = step_costs(&c)?;
        let nm = format!("nm{node}");
        m.push(
            Metric::new(format!("numerics.ldlt_solve_us.{nm}"), solve_us, "us").moves(ON_TRANSIENT),
        );
        m.push(
            Metric::new(format!("numerics.factor_ms.{nm}"), factor_s * 1e3, "ms")
                .moves("setup_s on transient; sweep.cold_evals_per_s"),
        );
        m.push(
            Metric::new(
                format!("numerics.nnz_l.{nm}"),
                factors.nnz_l() as f64,
                "count",
            )
            .moves(SWEEP),
        );
        m.push(
            Metric::new(format!("thermal.step_us.{nm}"), costs.step_us, "us").moves(ON_TRANSIENT),
        );
        m.push(
            Metric::new(format!("thermal.steady_state_us.{nm}"), steady_us, "us")
                .moves("sweep.cold_evals_per_s; latency_p50_ms on serve"),
        );
        if node == 11 {
            m.push(
                Metric::new("thermal.snapshot_us.nm11", costs.snapshot_us, "us")
                    .moves(ON_TRANSIENT),
            );
            m.push(
                Metric::new("mapping.power_map_us.nm11", costs.power_map_us, "us")
                    .moves(ON_TRANSIENT),
            );
        }
    }
    Ok(())
}

fn mapping_boost_scenario(m: &mut Vec<Metric>) -> Result<(), String> {
    let policy_s = scenario(16, 12, ExperimentSpec::PowerBudget { tdp_watts: 120.0 });
    let platform = Platform::for_node(transient::node_of(16)).map_err(|e| e.to_string())?;
    let workload = build_workload(&policy_s).map_err(|e| e.to_string())?;
    let tdp = Watts::new(120.0);
    let dsrem = DsRem::new(tdp).map_err(|e| e.to_string())?;
    let tdpmap_s = median_secs(5, || {
        black_box(
            TdpMap::new(tdp)
                .map(&platform, &workload)
                .expect("tdpmap maps"),
        );
    });
    let dsrem_s = median_secs(5, || {
        black_box(dsrem.map(&platform, &workload).expect("dsrem maps"));
    });
    m.push(Metric::new("mapping.tdpmap_ms", tdpmap_s * 1e3, "ms").moves(SWEEP));
    m.push(Metric::new("mapping.dsrem_ms", dsrem_s * 1e3, "ms").moves(SWEEP));

    let c = chip(11)?;
    let config = PolicyConfig {
        period: Seconds::new(TRANSIENT_PERIOD_S),
        ..PolicyConfig::default()
    };
    let horizon = Seconds::new(TRANSIENT_HORIZON_S);
    // Each policy run is paired with a loop-body batch of the same
    // length right after it, so a drift in machine speed cancels in the
    // pair's ratio.
    let mut sim = sim_for(&c)?;
    let (mut steps, mut runs, mut self_shares) = (0, Vec::new(), Vec::new());
    for _ in 0..5 {
        let t = Instant::now();
        steps = run_boosting(&c.platform, &c.mapping, horizon, &config)
            .map_err(|e| e.to_string())?
            .len();
        let run_s = stats::secs(t);
        runs.push(run_s);
        self_shares.push(1.0 - steps as f64 * loop_body_s(&c, &mut sim) / run_s);
    }
    let boosting_s = stats::median(&runs);
    let constant_s = median_secs(3, || {
        black_box(run_constant(&c.platform, &c.mapping, horizon, &config).expect("constant runs"));
    });
    m.push(Metric::new("boost.run_ms.boosting", boosting_s * 1e3, "ms").moves(ON_TRANSIENT));
    m.push(Metric::new("boost.run_ms.constant", constant_s * 1e3, "ms").moves(ON_TRANSIENT));
    m.push(Metric::new("boost.steps", steps as f64, "count").moves(ON_TRANSIENT));
    m.push(
        Metric::new("boost.self_share", stats::median(&self_shares), "share").moves(ON_TRANSIENT),
    );

    let cases = [
        ("boost", boost_scenario(11), 3, ON_TRANSIENT),
        (
            "thermal",
            scenario(
                16,
                6,
                ExperimentSpec::Thermal {
                    frequency_ghz: None,
                },
            ),
            5,
            "latency_p50_ms on serve",
        ),
        (
            "power_budget",
            policy_s.clone(),
            5,
            "work_per_s on serve; sweep.cold_evals_per_s",
        ),
        (
            "policy",
            scenario(
                16,
                12,
                ExperimentSpec::Policy {
                    policy: "dsrem".into(),
                    tdp_watts: 120.0,
                },
            ),
            5,
            "work_per_s on serve; sweep.cold_evals_per_s",
        ),
    ];
    for (kind, s, reps, target) in cases {
        let secs = median_secs(reps, || {
            black_box(run_scenario(&s).expect("probe scenario runs"));
        });
        m.push(Metric::new(format!("scenario.run_ms.{kind}"), secs * 1e3, "ms").moves(target));
    }
    Ok(())
}

fn result_cache(args: &Args, m: &mut Vec<Metric>) -> Result<(), String> {
    let dir = fresh_dir(&args.work, "probe-result-cache");
    let base = scenario(
        16,
        6,
        ExperimentSpec::Thermal {
            frequency_ghz: None,
        },
    );
    let payload = run_scenario(&base).map_err(|e| e.to_string())?.to_json();
    let inputs: Vec<Json> = (0..100)
        .map(|i| {
            let mut s = base.clone();
            s.name = format!("probe-{i}");
            s.to_json()
        })
        .collect();
    let cache = ResultCache::open(&dir, "perfbench-probe");
    let mut store = Vec::new();
    for input in &inputs {
        let key = cache.key("sweep-point", input);
        let t = Instant::now();
        cache.store(&key, &payload).map_err(|e| e.to_string())?;
        store.push(stats::secs(t));
    }
    // A fresh handle has an empty memory tier, like the next sweep run.
    let cache = ResultCache::open(&dir, "perfbench-probe");
    let mut lookup = Vec::new();
    for input in &inputs {
        let key = cache.key("sweep-point", input);
        let t = Instant::now();
        let (found, _) = cache.lookup(&key);
        lookup.push(stats::secs(t));
        if found.as_ref() != Some(&payload) {
            return Err("result cache lost a stored payload".into());
        }
    }
    let target = "sweep.delta_evals_per_s";
    m.push(Metric::new("engine.cache.lookup_us", stats::median(&lookup) * 1e6, "us").moves(target));
    m.push(Metric::new("engine.cache.store_us", stats::median(&store) * 1e6, "us").moves(target));
    Ok(())
}

/// One `run_sweep` pass with a cache and a journal: its result, wall
/// seconds, and per-evaluation seconds as the journal recorded them.
pub(crate) struct SweepPass {
    pub(crate) result: Result<SweepResult, String>,
    wall: f64,
    eval_seconds: Vec<f64>,
}

pub(crate) fn sweep_pass(spec: &SweepSpec, cache: &Path, journal: &Path) -> SweepPass {
    let opts = SweepOptions {
        jobs: jobs(),
        cache_dir: Some(cache.to_path_buf()),
        use_cache: true,
        journal_path: Some(journal.to_path_buf()),
        resume: false,
    };
    let t = Instant::now();
    let result = run_sweep(spec, &opts).map_err(|e| e.to_string());
    let wall = stats::secs(t);
    let eval_seconds = Journal::load(journal)
        .map(|j| j.entries().iter().map(|e| e.seconds).collect())
        .unwrap_or_default();
    SweepPass {
        result,
        wall,
        eval_seconds,
    }
}

/// The result JSON without its cache counters and per-draw cache
/// labels, which legitimately differ between a cold and a warm pass.
fn canonical(result: &SweepResult) -> String {
    let mut result = result.clone();
    result.cache = CacheCounts::default();
    for draw in result.points.iter_mut().flat_map(|p| p.draws.iter_mut()) {
        draw.cache = "";
    }
    result.to_json().compact()
}

/// Checks a pass's cache counts against the prediction; returns its
/// canonical JSON.
fn checked(p: &SweepPass, hits: usize, misses: usize) -> Result<String, String> {
    let result = p.result.as_ref().map_err(Clone::clone)?;
    let want = CacheCounts {
        hit: hits,
        miss: misses,
        recovered: 0,
    };
    if result.cache != want {
        return Err(format!(
            "sweep cache counts {:?}, predicted {want:?}",
            result.cache
        ));
    }
    Ok(canonical(result))
}

/// The sweep path: the seeded ~1000-evaluation spec cold into a fresh
/// cache directory, then its one-value delta over the warm cache, both
/// through `run_sweep` with a journal; then `analyze` and
/// `render_sweep_report` on the same evaluations computed directly.
fn sweep_layers(args: &Args, m: &mut Vec<Metric>) -> Result<(), String> {
    let inputs = gen::sweep_inputs(args.seed);
    let (evals, misses) = (inputs.evals, inputs.delta_misses);
    let cache = fresh_dir(&args.work, "probe-sweep-cache");
    let journals = fresh_dir(&args.work, "probe-sweep-journal");
    let before = factor_cache_stats();
    let cold = sweep_pass(&inputs.spec, &cache, &journals.join("cold.json"));
    let factorisations = factor_cache_stats().misses - before.misses;
    let delta = sweep_pass(&inputs.delta, &cache, &journals.join("delta.json"));
    let cold_json = checked(&cold, 0, evals)?;
    checked(&delta, evals - misses, misses)?;
    let busy: f64 = cold.eval_seconds.iter().sum();

    let plan = expand(&inputs.spec).map_err(|e| e.to_string())?;
    let outcomes: Vec<EvalOutcome> = Engine::new(jobs())
        .try_par_map(plan.evals.clone(), |eval| {
            let report = run_scenario(&eval.scenario).expect("sweep evaluation runs");
            Ok(EvalOutcome {
                point_index: eval.point_index,
                draw_index: eval.draw_index,
                params: eval.params,
                sampled: eval.sampled,
                report,
                cache: "miss",
            })
        })
        .map_err(|e| e.to_string())?;
    let counts = CacheCounts {
        miss: evals,
        ..CacheCounts::default()
    };
    let result = analyze(&inputs.spec, &plan, &outcomes, counts);
    if canonical(&result) != cold_json {
        return Err("analyze on direct outcomes differs from run_sweep".into());
    }
    let analyze_s = median_secs(5, || {
        black_box(analyze(&inputs.spec, &plan, &outcomes, counts));
    });
    let report_s = median_secs(5, || {
        black_box(render_sweep_report(&result));
    });
    let path = "the sweep path itself (no end-to-end workload)";
    m.push(Metric::new("sweep.cold_evals_per_s", evals as f64 / cold.wall, "1/s").moves(path));
    m.push(Metric::new("sweep.delta_evals_per_s", evals as f64 / delta.wall, "1/s").moves(path));
    m.push(Metric::new("sweep.analyze_ms", analyze_s * 1e3, "ms").moves(SWEEP));
    m.push(Metric::new("sweep.report_ms", report_s * 1e3, "ms").moves(SWEEP));
    m.push(
        Metric::new("sweep.run_self_s", cold.wall - busy / jobs() as f64, "s")
            .moves("sweep.cold_evals_per_s: run_sweep wall outside evaluations"),
    );
    m.push(
        Metric::new("sweep.factorisations", factorisations as f64, "count")
            .moves("sweep.cold_evals_per_s: 36 chips, a 32-entry factor cache"),
    );
    m.push(Metric::new("sweep.cache.hits", (evals - misses) as f64, "count").moves(SWEEP));
    m.push(Metric::new("sweep.cache.misses", misses as f64, "count").moves(SWEEP));
    m.push(
        Metric::new(
            "engine.cache.hit_ratio.delta",
            stats::share((evals - misses) as u64, evals as u64),
            "ratio",
        )
        .moves("sweep.delta_evals_per_s"),
    );
    for entries in [100, 1000, 10_000] {
        let s = journal_transition_s(&args.work, entries)?;
        m.push(
            Metric::new(format!("journal.transition_ms.e{entries}"), s * 1e3, "ms")
                .moves("sweep.*_evals_per_s; latency_p50_ms on serve"),
        );
    }
    Ok(())
}

fn serve_layers(args: &Args, m: &mut Vec<Metric>) -> Result<(), String> {
    let sub = &gen::serve_submissions(args.seed, 1)[0][0];
    let body = gen::submission_body(sub);
    let raw = format!(
        "POST /v1/jobs HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes();
    let parse_us = per_call_us(7, 200, || {
        black_box(parse_request(&raw).expect("probe request parses"));
    });
    const ADMITS: usize = 1000;
    let digests: Vec<String> = (0..ADMITS).map(|i| format!("{i:016x}")).collect();
    let admit_s = median_secs(3, || {
        let registry = Registry::new(usize::MAX, usize::MAX);
        for d in &digests {
            black_box(registry.admit(d, "tenant-a").expect("probe admission"));
        }
    });
    m.push(Metric::new("serve.parse_request_us", parse_us, "us").moves("work_per_s on serve"));
    m.push(
        Metric::new("serve.admit_us", admit_s / ADMITS as f64 * 1e6, "us")
            .moves("work_per_s on serve"),
    );
    m.extend(serve::probe(args)?);
    Ok(())
}

/// Every probe, in layer order.
pub fn run(args: &Args) -> Result<Vec<Metric>, String> {
    let mut m = Vec::new();
    numerics_and_thermal(&mut m)?;
    mapping_boost_scenario(&mut m)?;
    result_cache(args, &mut m)?;
    sweep_layers(args, &mut m)?;
    serve_layers(args, &mut m)?;
    Ok(m)
}
