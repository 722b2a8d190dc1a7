//! Fuzzing-arena integration tests: the shipped scenarios pass the
//! invariant suite clean, generated scenarios round-trip strict
//! validation, case verdicts are independent of the worker count, and
//! the committed corpus replays.
//!
//! Every test that runs cases records on the process-global event
//! recorder, so those tests serialise on [`recorder_lock`].

use std::path::Path;
use std::sync::{Mutex, MutexGuard, PoisonError};

use darksil_arena::{
    generate_cases, load_corpus, replay, run_cases, run_single, shrink, ArenaCase, Oracle, Verdict,
};
use darksil_obs::EventStream;
use darksil_scenario::{parse_scenario_file, validate_scenario, Scenario};
use proptest::prelude::*;

fn recorder_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn corpus_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus"))
}

fn shipped_scenarios() -> Vec<(std::path::PathBuf, Scenario)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "json") {
            let scenario =
                parse_scenario_file(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            out.push((path, scenario));
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    assert!(out.len() >= 4, "expected the shipped scenario set");
    out
}

/// Every shipped scenario runs through the full pipeline with events on
/// and satisfies every physical invariant.
#[test]
fn shipped_scenarios_pass_the_invariant_suite() {
    let _guard = recorder_lock();
    let oracle = Oracle::default();
    for (path, scenario) in shipped_scenarios() {
        let case = ArenaCase {
            index: 0,
            scenario,
            faults: None,
            inject: None,
        };
        let outcome = run_single(&case, &oracle);
        assert_eq!(
            outcome.verdict(),
            Verdict::Pass,
            "{}: error={:?} violations={:?}",
            path.display(),
            outcome.error,
            outcome.violations
        );
    }
}

/// Per-instance and phased policy runs are visible to the oracle: each
/// run, and each phase of a phased run, opens a `boost.run` segment and
/// closes it with `boost.summary`, and the recorded stream verifies
/// clean.
#[test]
fn per_instance_and_phased_runs_are_verified_segments() {
    use darksil_boost::{run_per_instance_boosting, run_phased_boosting, Phase, PolicyConfig};
    use darksil_mapping::{place_patterned, Mapping, Platform};
    use darksil_units::{Celsius, Hertz, Seconds};
    use darksil_workload::{AppInstance, ParsecApp, Workload};

    let _guard = recorder_lock();
    let platform = Platform::with_core_count(darksil_power::TechnologyNode::Nm16, 16)
        .unwrap()
        .with_boost_levels(Hertz::from_ghz(4.4))
        .unwrap();
    let place = |w: &Workload| -> Mapping {
        place_patterned(platform.floorplan(), w, platform.max_level()).unwrap()
    };
    let mut mixed = Workload::new();
    mixed.push(AppInstance::new(ParsecApp::Swaptions, 6).unwrap());
    mixed.push(AppInstance::new(ParsecApp::Canneal, 6).unwrap());
    let heavy = place(&Workload::uniform(ParsecApp::Swaptions, 3, 4).unwrap());
    let light = place(&Workload::uniform(ParsecApp::Canneal, 1, 4).unwrap());
    let phases = [
        Phase {
            mapping: heavy.clone(),
            duration: Seconds::new(20.0),
        },
        Phase {
            mapping: light,
            duration: Seconds::new(6.0),
        },
        Phase {
            mapping: heavy,
            duration: Seconds::new(8.0),
        },
    ];
    let config = PolicyConfig {
        threshold: Celsius::new(60.0),
        period: Seconds::new(0.02),
        ..PolicyConfig::default()
    };

    darksil_obs::enable_events();
    let per = run_per_instance_boosting(&platform, &place(&mixed), Seconds::new(30.0), &config);
    let phased = run_phased_boosting(&platform, &phases, &config);
    let (_trace, stream) = darksil_obs::drain_all();
    per.unwrap();
    let phase_traces = phased.unwrap();

    let markers: Vec<(&str, &str)> = stream
        .events
        .iter()
        .filter(|e| e.kind == "boost.run" || e.kind == "boost.summary")
        .map(|e| (e.kind.as_str(), e.str_field("policy").unwrap_or("?")))
        .collect();
    let mut expected = vec![
        ("boost.run", "per_instance"),
        ("boost.summary", "per_instance"),
    ];
    for _ in &phases {
        expected.extend([("boost.run", "boosting"), ("boost.summary", "boosting")]);
    }
    assert_eq!(markers, expected);
    assert!(
        stream.of_kind("thermal.watermark").next().is_some(),
        "the runs never armed the watermark"
    );
    assert_eq!(Oracle::default().verify(&stream), Vec::new());

    // Each phase's summary charges only its own steps, one period each,
    // although the later phases start tens of seconds into the clock.
    let declared: Vec<f64> = stream
        .of_kind("boost.summary")
        .skip(1)
        .map(|e| e.f64_field("energy_j").unwrap())
        .collect();
    assert_eq!(declared.len(), phase_traces.len());
    for (i, (trace, declared)) in phase_traces.iter().zip(declared).enumerate() {
        let stepped: f64 = trace
            .samples()
            .iter()
            .map(|s| s.power.value() * config.period.value())
            .sum();
        assert!(
            (declared - stepped).abs() <= 1e-9 * stepped,
            "phase {i}: summary declares {declared} J, its steps ran {stepped} J"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Generated scenarios always satisfy the strict validator and
    /// survive a JSON round trip unchanged.
    #[test]
    fn generated_scenarios_round_trip_strict_validation(seed in 0_u64..1_000_000) {
        for case in generate_cases(seed, 4, None) {
            validate_scenario(&case.scenario)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let text = darksil_json::to_string_pretty(&case.scenario);
            let back: Scenario = darksil_json::from_str(&text)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            prop_assert_eq!(&back, &case.scenario);
        }
    }
}

/// The same population produces identical verdicts and a byte-identical
/// event stream at any worker count.
#[test]
fn fuzz_batch_is_deterministic_across_worker_counts() {
    let _guard = recorder_lock();
    let oracle = Oracle::default();
    let cases = generate_cases(99, 12, None);
    let (serial, stream_serial) = run_cases(&cases, 1, &oracle);
    let (parallel, stream_parallel) = run_cases(&cases, 4, &oracle);
    assert_eq!(stream_serial.to_jsonl(), stream_parallel.to_jsonl());
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.verdict(), b.verdict(), "{}", a.name);
        assert_eq!(a.violations.len(), b.violations.len(), "{}", a.name);
        assert_eq!(a.throttle_residency, b.throttle_residency, "{}", a.name);
    }
}

/// The committed corpus replays: injected reproducers are still caught
/// by the oracle, regression reproducers (real since-fixed bugs) run
/// clean.
#[test]
fn committed_scenario_corpus_replays() {
    let _guard = recorder_lock();
    let oracle = Oracle::default();
    let entries = load_corpus(corpus_dir()).expect("corpus loads");
    assert!(!entries.is_empty(), "expected committed reproducers");
    for (path, repro) in &entries {
        let outcome = replay(repro, &oracle);
        if repro.inject.is_some() {
            assert!(
                outcome
                    .violations
                    .iter()
                    .any(|v| v.invariant == repro.invariant),
                "{}: oracle no longer catches `{}`",
                path.display(),
                repro.invariant
            );
        } else {
            assert!(
                outcome.violations.is_empty(),
                "{}: regression resurfaced: {:?}",
                path.display(),
                outcome.violations
            );
        }
    }
}

/// The committed stream regressions (event streams that once tripped an
/// invariant) verify clean against the current oracle.
#[test]
fn committed_stream_corpus_verifies_clean() {
    let oracle = Oracle::default();
    let mut streams = 0;
    for entry in std::fs::read_dir(corpus_dir()).expect("corpus dir") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "jsonl") {
            let text = std::fs::read_to_string(&path).expect("readable");
            let stream = EventStream::from_jsonl(&text)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let violations = oracle.verify(&stream);
            assert!(
                violations.is_empty(),
                "{}: {:?}",
                path.display(),
                violations
            );
            streams += 1;
        }
    }
    assert!(streams >= 1, "expected committed stream regressions");
}

/// The full failure loop: an injected violation is caught, shrinks to a
/// minimal case that still trips the same invariant, and the shrunk
/// case replays.
#[test]
fn injected_violation_is_caught_shrunk_and_replayable() {
    let _guard = recorder_lock();
    let oracle = Oracle::default();
    let mut cases = generate_cases(7, 1, None);
    cases[0].inject = darksil_arena::InjectMode::parse("nan");
    let outcome = run_single(&cases[0], &oracle);
    assert_eq!(outcome.verdict(), Verdict::Violated);
    let invariant = &outcome.violations[0].invariant;
    assert_eq!(invariant, "no-nan");

    let shrunk = shrink(&cases[0], invariant, &oracle);
    assert!(shrunk.scenario.workload.len() <= cases[0].scenario.workload.len());
    let replayed = run_single(&shrunk, &oracle);
    assert!(
        replayed
            .violations
            .iter()
            .any(|v| &v.invariant == invariant),
        "shrunk case no longer trips `{invariant}`"
    );
}
