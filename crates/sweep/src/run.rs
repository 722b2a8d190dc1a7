//! The runner: plan → engine pool → cache → supervised evaluations.
//!
//! Evaluations stream through [`darksil_engine::Engine::par_map`]
//! (submission-order results, so the result artefacts are byte-identical
//! at any `--jobs`), each wrapped in a [`Supervisor`] policy
//! (per-attempt deadline, retries, a shared circuit breaker) and served
//! through the content-addressed [`ResultCache`] keyed by the resolved
//! scenario — names embed the grid values, so editing one axis value
//! changes only the affected points' keys and everything else replays
//! as a hit. Progress is checkpointed in the [`Journal`] so an
//! interrupted sweep resumes without redoing completed work (the cache
//! serves it back).

use std::path::PathBuf;
use std::time::Duration;

use darksil_engine::{ArtefactState, Journal};
use darksil_engine::{
    BackoffPolicy, CacheOutcome, Engine, JobSpec, ResultCache, Supervisor, DEFAULT_CACHE_DIR,
};
use darksil_json::{FromJson, Json, ToJson};
use darksil_robust::DarksilError;
use darksil_scenario::{run_scenario, ScenarioError, ScenarioReport};

use crate::analysis::{analyze, SweepResult};
use crate::expand::{expand, Evaluation};
use crate::spec::SweepSpec;
use crate::SweepError;

/// Cache salt for sweep evaluations; bump to invalidate on
/// behaviour-changing releases.
pub const SWEEP_CACHE_SALT: &str = "darksil-sweep-v1";

/// Artefact name under which evaluations are cached.
const CACHE_ARTEFACT: &str = "sweep-point";

/// Per-attempt wall-clock budget for one evaluation.
const EVAL_DEADLINE: Duration = Duration::from_secs(120);

/// Consecutive failures before the `sweep-point` class stops retrying.
const BREAKER_THRESHOLD: u32 = 4;

/// Execution options for [`run_sweep`].
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker count; 0 uses the engine default (`--jobs`,
    /// `DARKSIL_JOBS`, available parallelism).
    pub jobs: usize,
    /// Cache directory; [`DEFAULT_CACHE_DIR`] when `None`.
    pub cache_dir: Option<PathBuf>,
    /// Whether to consult the result cache at all.
    pub use_cache: bool,
    /// Where to checkpoint progress; no journal when `None`.
    pub journal_path: Option<PathBuf>,
    /// Whether to resume an existing journal instead of starting fresh.
    pub resume: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            jobs: 0,
            cache_dir: None,
            use_cache: true,
            journal_path: None,
            resume: false,
        }
    }
}

/// Cache outcome counters across the whole sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounts {
    /// Evaluations served from the cache.
    pub hit: usize,
    /// Evaluations computed because no entry existed.
    pub miss: usize,
    /// Evaluations recomputed over a corrupt/stale entry.
    pub recovered: usize,
}

impl CacheCounts {
    fn count(&mut self, label: &str) {
        match label {
            "hit" => self.hit += 1,
            "miss" => self.miss += 1,
            "recovered" => self.recovered += 1,
            _ => {}
        }
    }
}

/// One finished evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalOutcome {
    /// Grid-point index.
    pub point_index: usize,
    /// Draw index within the point.
    pub draw_index: usize,
    /// Deterministic axis values, in axis order.
    pub params: Vec<(String, crate::spec::AxisValue)>,
    /// Gauss-sampled values for this draw, in axis order.
    pub sampled: Vec<(String, f64)>,
    /// The scenario report.
    pub report: ScenarioReport,
    /// Cache outcome label: `hit`, `miss`, `recovered`, or `off`.
    pub cache: &'static str,
}

/// Folds a scenario failure into the workspace error taxonomy,
/// unwrapping an inner [`DarksilError`] when one caused it.
fn to_darksil(e: ScenarioError) -> DarksilError {
    match e {
        ScenarioError::Run(inner) => match inner.downcast::<DarksilError>() {
            Ok(error) => *error,
            Err(other) => DarksilError::config(format!("scenario failed: {other}")),
        },
        other => DarksilError::config(other.to_string()),
    }
}

/// The journal's run-configuration fingerprint: resuming under an
/// edited spec would silently mix incompatible results, so the digest
/// covers the full compact spec JSON.
fn journal_config(spec: &SweepSpec, points: usize, evals: usize) -> Json {
    let digest = darksil_engine::stable_hash(spec.to_json().compact().as_bytes());
    Json::Obj(vec![
        (
            "spec_digest".to_string(),
            Json::Str(format!("{digest:016x}")),
        ),
        ("seed".to_string(), spec.seed.to_json()),
        ("draws".to_string(), spec.draws.to_json()),
        ("points".to_string(), points.to_json()),
        ("evals".to_string(), evals.to_json()),
    ])
}

fn open_journal(
    spec: &SweepSpec,
    opts: &SweepOptions,
    names: &[String],
    points: usize,
) -> Result<Option<Journal>, SweepError> {
    let Some(path) = &opts.journal_path else {
        return Ok(None);
    };
    let config = journal_config(spec, points, names.len());
    if opts.resume {
        let journal = Journal::load(path)?;
        if journal.config().compact() != config.compact() {
            return Err(SweepError::Run(DarksilError::config(format!(
                "journal {} was written for a different sweep configuration; \
                 re-run without --resume to start over",
                path.display()
            ))));
        }
        journal.requeue_unfinished();
        Ok(Some(journal))
    } else {
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let journal = Journal::create(path, config, &name_refs);
        journal.save()?;
        Ok(Some(journal))
    }
}

/// Executes a validated spec end to end: expand, stream through the
/// pool/cache/supervisor, analyze. The returned [`SweepResult`]
/// contains no wall-clock state, so its serialised form is
/// byte-identical at any worker count.
///
/// # Errors
///
/// Returns [`SweepError::Invalid`] for plans that fail expansion and
/// [`SweepError::Run`] for the first failing evaluation (in submission
/// order) or journal/cache IO failures.
pub fn run_sweep(spec: &SweepSpec, opts: &SweepOptions) -> Result<SweepResult, SweepError> {
    let _span = darksil_obs::span("sweep.run");
    let plan = expand(spec)?;
    let names: Vec<String> = plan.evals.iter().map(Evaluation::job_name).collect();
    let journal = open_journal(spec, opts, &names, plan.points)?;

    let cache = opts.use_cache.then(|| {
        ResultCache::open(
            opts.cache_dir
                .clone()
                .unwrap_or_else(|| PathBuf::from(DEFAULT_CACHE_DIR)),
            SWEEP_CACHE_SALT,
        )
    });
    let supervisor = Supervisor::new(BackoffPolicy::default(), BREAKER_THRESHOLD);

    let engine = if opts.jobs == 0 {
        Engine::auto()
    } else {
        Engine::new(opts.jobs)
    };

    let results = engine.par_map(plan.evals.clone(), |eval| {
        let name = eval.job_name();
        if let Some(journal) = &journal {
            journal.transition(&name, ArtefactState::Running)?;
        }
        let job_spec = JobSpec {
            name: name.clone(),
            class: "sweep-point".to_string(),
            deadline: Some(EVAL_DEADLINE),
            max_retries: 2,
        };
        let supervised = supervisor.run(&job_spec, || {
            let compute = || {
                run_scenario(&eval.scenario)
                    .map(|report| report.to_json())
                    .map_err(to_darksil)
            };
            let (payload, label) = match &cache {
                Some(cache) => {
                    let key = cache.key(CACHE_ARTEFACT, &eval.scenario.to_json());
                    let (payload, outcome) = cache.get_or_compute(&key, compute)?;
                    let label = match outcome {
                        CacheOutcome::Hit => "hit",
                        CacheOutcome::Miss => "miss",
                        CacheOutcome::Recovered(_) => "recovered",
                    };
                    (payload, label)
                }
                None => (compute()?, "off"),
            };
            let report = ScenarioReport::from_json(&payload).map_err(|e| {
                DarksilError::cache(format!("cached sweep payload is malformed: {e}"))
            })?;
            Ok((report, label))
        });

        let seconds: f64 = supervised.attempts.iter().map(|a| a.seconds).sum();
        let attempts: Vec<Json> = supervised.attempts.iter().map(ToJson::to_json).collect();
        match supervised.result {
            Ok((report, label)) => {
                if let Some(journal) = &journal {
                    journal.record_finished(&name, ArtefactState::Done, None, attempts, seconds)?;
                }
                Ok(EvalOutcome {
                    point_index: eval.point_index,
                    draw_index: eval.draw_index,
                    params: eval.params.clone(),
                    sampled: eval.sampled.clone(),
                    report,
                    cache: label,
                })
            }
            Err(error) => {
                if let Some(journal) = &journal {
                    journal.record_finished(
                        &name,
                        ArtefactState::Failed,
                        Some(error.to_string()),
                        attempts,
                        seconds,
                    )?;
                }
                Err(error)
            }
        }
    });

    let mut outcomes = Vec::with_capacity(results.len());
    let mut counts = CacheCounts::default();
    for result in results {
        let outcome = result.map_err(SweepError::Run)?;
        counts.count(outcome.cache);
        outcomes.push(outcome);
    }

    Ok(analyze(spec, &plan, &outcomes, counts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Axis, AxisKind, AxisValue, GaussAxis, SWEEPSPEC_SCHEMA};
    use darksil_scenario::{ExperimentSpec, Scenario, WorkloadSpec};

    fn tiny_spec(draws: usize) -> SweepSpec {
        let mut axes = vec![Axis {
            param: "node".into(),
            kind: AxisKind::List(vec![AxisValue::Num(22.0), AxisValue::Num(16.0)]),
        }];
        if draws > 1 {
            axes.push(Axis {
                param: "tdp_watts".into(),
                kind: AxisKind::Gauss(GaussAxis {
                    mean: 40.0,
                    sigma: 4.0,
                    clamp_min: Some(25.0),
                    clamp_max: Some(60.0),
                }),
            });
        }
        SweepSpec {
            schema: SWEEPSPEC_SCHEMA.into(),
            name: "tiny".into(),
            seed: 3,
            draws,
            base: Scenario {
                name: "tiny base".into(),
                node: 22,
                cores: Some(9),
                t_dtm_celsius: None,
                variation_seed: None,
                leakage_sigma: None,
                frequency_sigma: None,
                workload: vec![WorkloadSpec {
                    app: "blackscholes".into(),
                    instances: 1,
                    threads: 2,
                }],
                experiment: ExperimentSpec::PowerBudget { tdp_watts: 40.0 },
            },
            axes,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("darksil-sweep-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn serial_and_parallel_results_are_byte_identical() {
        let spec = tiny_spec(1);
        let dir = temp_dir("det");
        let opts = |jobs: usize, sub: &str| SweepOptions {
            jobs,
            cache_dir: Some(dir.join(sub)),
            use_cache: true,
            journal_path: None,
            resume: false,
        };
        let serial = run_sweep(&spec, &opts(1, "a")).expect("serial");
        let parallel = run_sweep(&spec, &opts(4, "b")).expect("parallel");
        assert_eq!(
            darksil_json::to_string_pretty(&serial),
            darksil_json::to_string_pretty(&parallel)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_rerun_hits_the_cache() {
        let spec = tiny_spec(1);
        let dir = temp_dir("warm");
        let opts = SweepOptions {
            jobs: 2,
            cache_dir: Some(dir.clone()),
            use_cache: true,
            journal_path: None,
            resume: false,
        };
        let cold = run_sweep(&spec, &opts).expect("cold");
        assert_eq!(cold.cache.miss, 2);
        assert_eq!(cold.cache.hit, 0);
        let warm = run_sweep(&spec, &opts).expect("warm");
        assert_eq!(warm.cache.hit, 2);
        assert_eq!(warm.cache.miss, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_checkpoints_and_resumes() {
        let spec = tiny_spec(2);
        let dir = temp_dir("journal");
        let journal_path = dir.join("sweep.journal.json");
        let opts = SweepOptions {
            jobs: 1,
            cache_dir: Some(dir.join("cache")),
            use_cache: true,
            journal_path: Some(journal_path.clone()),
            resume: false,
        };
        let first = run_sweep(&spec, &opts).expect("first run");
        assert_eq!(first.cache.miss, 4);
        let journal = Journal::load(&journal_path).expect("journal exists");
        assert_eq!(journal.counts().done, 4);

        // Resume replays everything from the cache.
        let resumed = run_sweep(
            &spec,
            &SweepOptions {
                resume: true,
                ..opts.clone()
            },
        )
        .expect("resume");
        assert_eq!(resumed.cache.hit, 4);

        // A different spec refuses to resume the same journal.
        let mut other = spec.clone();
        other.seed = 99;
        let err = run_sweep(
            &other,
            &SweepOptions {
                resume: true,
                ..opts
            },
        )
        .expect_err("config mismatch");
        assert!(err.to_string().contains("different sweep"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_off_labels_evals_off() {
        let spec = tiny_spec(1);
        let result = run_sweep(
            &spec,
            &SweepOptions {
                jobs: 1,
                cache_dir: None,
                use_cache: false,
                journal_path: None,
                resume: false,
            },
        )
        .expect("runs");
        assert_eq!(result.cache, CacheCounts::default());
    }
}
