//! Seeded input generators. The same seed gives byte-identical inputs;
//! the program under test only ever sees what these functions return.

use darksil_scenario::{ExperimentSpec, Scenario, WorkloadSpec};
use darksil_sweep::{Axis, AxisKind, AxisValue, GaussAxis, SweepSpec, SWEEPSPEC_SCHEMA};
use darksil_workload::ParsecApp;

/// The paper's boosting chips.
pub const TRANSIENT_NODES: [u32; 3] = [16, 11, 8];
/// Simulated horizon of every transient scenario, fixed here rather
/// than by the program's fidelity setting.
pub const TRANSIENT_HORIZON_S: f64 = 20.0;
/// Control period of every transient scenario.
pub const TRANSIENT_PERIOD_S: f64 = 0.02;
/// Control periods per policy run (horizon / period).
pub const TRANSIENT_STEPS_PER_POLICY: u64 = 1000;

/// Every node the scenario validator accepts.
pub const SERVE_NODES: [u32; 4] = [22, 16, 11, 8];

/// SplitMix64: small, fast and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1_u64 << 53) as f64
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

fn app_name(rng: &mut Rng) -> String {
    rng.pick(&ParsecApp::ALL).name().to_string()
}

fn evaluated_cores(node: u32) -> usize {
    match node {
        11 => 198,
        8 => 361,
        _ => 100,
    }
}

/// Fill strata per node: every run of `3 × FILL_STRATA` consecutive
/// scenarios covers each chip at each quarter-to-full fill band once, so
/// seeds differ in detail but not in how much work they ask for.
const FILL_STRATA: usize = 8;

/// `count` boosting-vs-constant scenarios on the default 16/11/8 nm
/// chips, cycling through the chips. 8-thread instances of one or two
/// Parsec apps fill 25–100 % of the chip.
pub fn transient_scenarios(seed: u64, count: usize) -> Vec<Scenario> {
    let mut rng = Rng::new(seed, 1);
    (0..count)
        .map(|i| {
            let node = TRANSIENT_NODES[i % TRANSIENT_NODES.len()];
            let slots = evaluated_cores(node) / 8;
            let stratum = (i / TRANSIENT_NODES.len()) % FILL_STRATA;
            let fill = 0.25 + 0.75 * (stratum as f64 + rng.unit()) / FILL_STRATA as f64;
            let instances = ((fill * slots as f64).round() as usize).clamp(1, slots);
            let first = app_name(&mut rng);
            let second = app_name(&mut rng);
            let split = if instances > 1 && first != second {
                1 + rng.below(instances - 1)
            } else {
                instances
            };
            let mut workload = vec![WorkloadSpec {
                app: first,
                instances: split,
                threads: 8,
            }];
            if split < instances {
                workload.push(WorkloadSpec {
                    app: second,
                    instances: instances - split,
                    threads: 8,
                });
            }
            Scenario {
                name: format!("transient-{seed}-{i}"),
                node,
                cores: None,
                t_dtm_celsius: None,
                variation_seed: None,
                leakage_sigma: None,
                frequency_sigma: None,
                workload,
                experiment: ExperimentSpec::Boost {
                    duration_s: TRANSIENT_HORIZON_S,
                    period_s: TRANSIENT_PERIOD_S,
                },
            }
        })
        .collect()
}

/// The sweep's core-count axis: with 3 nodes, 36 distinct chips, more
/// than the 32 the global factor cache holds. Fixed across seeds, so
/// every seed asks for the same amount of work.
const SWEEP_CORES: [usize; SWEEP_CORE_POINTS] = [16, 20, 24, 25, 30, 32, 36, 40, 45, 48, 54, 64];
/// Values the delta pass may swap into the core-count axis.
const SWEEP_SPARE_CORES: [usize; 8] = [18, 28, 42, 49, 56, 60, 63, 72];
const SWEEP_CORE_POINTS: usize = 12;
const SWEEP_THREADS: [usize; 3] = [2, 4, 8];
/// Monte-Carlo draws per grid point: 3 nodes × 12 core counts × 3
/// thread counts × 9 draws = 972 evaluations.
const SWEEP_DRAWS: usize = 9;

/// A sweep and its delta: the delta changes one value of one grid axis,
/// so exactly `delta_misses` of its evaluations are new.
#[derive(Debug, Clone)]
pub struct SweepInputs {
    pub spec: SweepSpec,
    pub delta: SweepSpec,
    pub evals: usize,
    pub delta_misses: usize,
}

fn num_list(values: impl IntoIterator<Item = usize>) -> AxisKind {
    AxisKind::List(
        values
            .into_iter()
            .map(|v| AxisValue::Num(v as f64))
            .collect(),
    )
}

/// The seeded `darksil-sweepspec-v1` spec of ~1000 evaluations and its
/// one-value delta.
pub fn sweep_inputs(seed: u64) -> SweepInputs {
    let mut rng = Rng::new(seed, 2);
    let cores = SWEEP_CORES.to_vec();
    let experiment = ExperimentSpec::Policy {
        policy: "dsrem".into(),
        tdp_watts: 60.0,
    };
    let tdp_mean = 50.0;
    let base = Scenario {
        name: format!("sweep-{seed}"),
        node: 16,
        cores: Some(cores[0]),
        t_dtm_celsius: None,
        variation_seed: Some(rng.next_u64() % 1000),
        leakage_sigma: None,
        frequency_sigma: None,
        workload: vec![WorkloadSpec {
            app: "x264".into(),
            instances: 2,
            threads: 8,
        }],
        experiment,
    };
    let axes = |cores: &[usize]| {
        vec![
            Axis {
                param: "node".into(),
                kind: num_list(TRANSIENT_NODES.iter().map(|&n| n as usize)),
            },
            Axis {
                param: "cores".into(),
                kind: num_list(cores.iter().copied()),
            },
            Axis {
                param: "threads".into(),
                kind: num_list(SWEEP_THREADS),
            },
            Axis {
                param: "tdp_watts".into(),
                kind: AxisKind::Gauss(GaussAxis {
                    mean: tdp_mean,
                    sigma: 0.15 * tdp_mean,
                    clamp_min: Some(10.0),
                    clamp_max: None,
                }),
            },
            Axis {
                param: "leakage_sigma".into(),
                kind: AxisKind::Gauss(GaussAxis {
                    mean: 0.25,
                    sigma: 0.05,
                    clamp_min: Some(0.05),
                    clamp_max: Some(0.6),
                }),
            },
        ]
    };
    let spec = SweepSpec {
        schema: SWEEPSPEC_SCHEMA.into(),
        name: format!("perfbench-sweep-{seed}"),
        seed,
        draws: SWEEP_DRAWS,
        base,
        axes: axes(&cores),
    };
    let mut delta_cores = cores.clone();
    delta_cores[rng.below(SWEEP_CORE_POINTS)] = rng.pick(&SWEEP_SPARE_CORES);
    let delta = SweepSpec {
        axes: axes(&delta_cores),
        ..spec.clone()
    };
    let evals = TRANSIENT_NODES.len() * SWEEP_CORE_POINTS * SWEEP_THREADS.len() * SWEEP_DRAWS;
    SweepInputs {
        spec,
        delta,
        evals,
        delta_misses: evals / SWEEP_CORE_POINTS,
    }
}

/// One client submission: the tenant and the scenario it sends.
#[derive(Debug, Clone)]
pub struct Submission {
    pub tenant: &'static str,
    pub scenario: Scenario,
}

/// The two tenants of the `serve` workload, one per client thread.
pub const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];

/// Submissions per block. Each block of a lane has the same make-up,
/// so seeds change the details of the mix but not its cost: two repeats
/// of scenarios the other tenant sent earlier (the dedup path) and six
/// new steady-state scenarios, one on each of [`CHIPS`].
const BLOCK: usize = 8;
const REPEAT_SLOTS: [usize; 2] = [3, 6];
/// Chips of the new scenarios in a block: every node the validator
/// accepts, 22 nm only with an explicit core count (see
/// [`defect_submissions`]). Only the 16 nm chip is the evaluated one;
/// the larger 11 and 8 nm ones would make a few percent of jobs ten
/// times slower and put the 90th percentile on the edge of that group.
const CHIPS: [(u32, Option<usize>); 6] = [
    (16, None),
    (11, Some(100)),
    (8, Some(144)),
    (22, Some(36)),
    (16, Some(64)),
    (11, Some(64)),
];

fn steady_scenario(
    rng: &mut Rng,
    name: String,
    node: u32,
    cores: Option<usize>,
    kind: usize,
) -> Scenario {
    let capacity = cores.unwrap_or_else(|| evaluated_cores(node));
    let threads = rng.pick(&[1_usize, 2, 4, 8]);
    let instances = 1 + rng.below((capacity / threads).clamp(1, 6));
    let tdp_watts = (20 + rng.below(100)) as f64;
    let experiment = match kind % 4 {
        0 => ExperimentSpec::Thermal {
            frequency_ghz: None,
        },
        1 => ExperimentSpec::PowerBudget { tdp_watts },
        2 => ExperimentSpec::Policy {
            policy: "tdpmap".into(),
            tdp_watts,
        },
        _ => ExperimentSpec::Policy {
            policy: "dsrem".into(),
            tdp_watts,
        },
    };
    Scenario {
        name,
        node,
        cores,
        t_dtm_celsius: None,
        variation_seed: None,
        leakage_sigma: None,
        frequency_sigma: None,
        workload: vec![WorkloadSpec {
            app: app_name(rng),
            instances,
            threads,
        }],
        experiment,
    }
}

/// Per-tenant submission sequences of `per_tenant` entries each, built
/// from blocks of [`BLOCK`] submissions. A repeat copies a scenario the
/// other tenant sent at least two positions earlier. Every submission
/// is expected to succeed.
pub fn serve_submissions(seed: u64, per_tenant: usize) -> [Vec<Submission>; 2] {
    let mut rng = Rng::new(seed, 3);
    let mut lanes: [Vec<Submission>; 2] = [Vec::new(), Vec::new()];
    let mut fresh = [0_usize; 2];
    for i in 0..per_tenant {
        for lane in 0..2 {
            let slot = i % BLOCK;
            let scenario = if REPEAT_SLOTS.contains(&slot) && i >= BLOCK {
                let earlier = &lanes[1 - lane][..i - 1];
                earlier[rng.below(earlier.len())].scenario.clone()
            } else {
                let k = fresh[lane];
                fresh[lane] += 1;
                let (node, cores) = CHIPS[k % CHIPS.len()];
                steady_scenario(
                    &mut rng,
                    format!("serve-{seed}-{lane}-{i}"),
                    node,
                    cores,
                    k % CHIPS.len() + k / CHIPS.len(),
                )
            };
            lanes[lane].push(Submission {
                tenant: TENANTS[lane],
                scenario,
            });
        }
    }
    lanes
}

/// `per_tenant` submissions per tenant of the known defect: a `node: 22`
/// scenario without `cores` passes `validate_scenario` and gets a 202,
/// then fails at solve time after the supervisor's retries ("spreader is
/// smaller than the layer it must cover"). They stay out of the timed
/// mix, whose operations must all succeed; the traced run submits them
/// and reports how many failed as `serve.jobs.failed`.
pub fn defect_submissions(seed: u64, per_tenant: usize) -> [Vec<Submission>; 2] {
    let mut rng = Rng::new(seed, 4);
    std::array::from_fn(|lane| {
        (0..per_tenant)
            .map(|i| Submission {
                tenant: TENANTS[lane],
                scenario: steady_scenario(
                    &mut rng,
                    format!("defect-{seed}-{lane}-{i}"),
                    22,
                    None,
                    i,
                ),
            })
            .collect()
    })
}

/// The JSON body of `POST /v1/jobs` for one submission.
pub fn submission_body(sub: &Submission) -> String {
    use darksil_json::ToJson;
    format!(
        "{{\"tenant\": \"{}\", \"scenario\": {}}}",
        sub.tenant,
        sub.scenario.to_json().compact()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use darksil_json::ToJson;

    fn transient_bytes(seed: u64) -> String {
        transient_scenarios(seed, 64)
            .iter()
            .map(|s| s.to_json().compact())
            .collect()
    }

    fn sweep_bytes(seed: u64) -> String {
        let inputs = sweep_inputs(seed);
        inputs.spec.to_json().compact() + &inputs.delta.to_json().compact()
    }

    fn serve_bytes(seed: u64) -> String {
        serve_submissions(seed, 200)
            .iter()
            .chain(&defect_submissions(seed, 3))
            .flatten()
            .map(submission_body)
            .collect()
    }

    #[test]
    fn generators_are_byte_deterministic_per_seed() {
        for seed in [1, 2, 977] {
            assert_eq!(transient_bytes(seed), transient_bytes(seed));
            assert_eq!(sweep_bytes(seed), sweep_bytes(seed));
            assert_eq!(serve_bytes(seed), serve_bytes(seed));
        }
        assert_ne!(transient_bytes(1), transient_bytes(2));
        assert_ne!(sweep_bytes(1), sweep_bytes(2));
        assert_ne!(serve_bytes(1), serve_bytes(2));
    }

    #[test]
    fn generated_inputs_pass_the_validators() {
        for seed in [1, 2, 977] {
            for s in transient_scenarios(seed, 64) {
                darksil_scenario::validate_scenario(&s).expect("valid transient scenario");
                let threads: usize = s.workload.iter().map(|w| w.instances * w.threads).sum();
                let cores = evaluated_cores(s.node);
                assert!(
                    threads * 4 >= cores - 8 && threads <= cores,
                    "{threads} of {cores}"
                );
            }
            let inputs = sweep_inputs(seed);
            darksil_sweep::validate_sweep_spec(&inputs.spec).expect("valid sweep");
            darksil_sweep::validate_sweep_spec(&inputs.delta).expect("valid delta");
            let plan = darksil_sweep::expand(&inputs.spec).expect("expands");
            assert_eq!(plan.evals.len(), inputs.evals);
            for sub in serve_submissions(seed, 200).iter().flatten() {
                darksil_scenario::validate_scenario(&sub.scenario).expect("valid submission");
            }
        }
    }

    fn is_defect(sub: &Submission) -> bool {
        sub.scenario.node == 22 && sub.scenario.cores.is_none()
    }

    #[test]
    fn serve_mix_keeps_dedup_share_and_leaves_the_defect_to_the_probe() {
        let lanes = serve_submissions(5, 400);
        let all: Vec<&Submission> = lanes.iter().flatten().collect();
        let mut distinct: Vec<String> =
            all.iter().map(|s| s.scenario.to_json().compact()).collect();
        distinct.sort();
        distinct.dedup();
        let repeats = all.len() - distinct.len();
        // Two repeat slots per block of eight, from the second block on.
        assert_eq!(repeats, 2 * REPEAT_SLOTS.len() * (400 / BLOCK - 1));
        assert!(all.iter().any(|s| s.scenario.node == 22));
        assert!(!all.iter().any(|s| is_defect(s)));
        let defects = defect_submissions(5, 3);
        assert!(defects.iter().flatten().all(is_defect));
        assert_eq!(defects.iter().flatten().count(), 6);
        for sub in defects.iter().flatten() {
            darksil_scenario::validate_scenario(&sub.scenario).expect("the defect validates");
        }
    }
}
