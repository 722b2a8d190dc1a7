//! The exact work counts (control periods, factorisations, nnz(L),
//! sweep cache hits and misses, served jobs done, deduped and failed)
//! must repeat exactly for a given seed. This test collects them twice,
//! at a size that stays quick in a debug build, and compares.
//! `expected_counts.json` records the full-size counts of the traced run.

use std::time::Instant;

use darksil_engine::Engine;
use darksil_json::Json;
use darksil_numerics::{factor_cache_stats, factor_spd};
use darksil_serve::{ServeConfig, Server};

use crate::{fresh_dir, gen, probes, serve, transient};

const SEED: u64 = 1;

fn transient_counts(out: &mut Vec<(String, u64)>) {
    let scenarios = transient::setup(SEED).expect("transient setup");
    let before = factor_cache_stats();
    let (runs, _) = transient::pass(
        &Engine::new(crate::jobs()),
        transient::indexed(&scenarios, 3),
    )
    .expect("transient pass");
    let after = factor_cache_stats();
    let done = runs.iter().filter(|(_, r, _, _)| r.is_ok()).count() as u64;
    out.push((
        "transient.steps".into(),
        done * 2 * gen::TRANSIENT_STEPS_PER_POLICY,
    ));
    out.push((
        "transient.factorisations".into(),
        after.misses - before.misses,
    ));
    for node in gen::TRANSIENT_NODES {
        let s = scenarios
            .iter()
            .find(|s| s.node == node)
            .expect("every chip is in the list");
        let platform = transient::boost_platform(s).expect("chip builds");
        let factors = factor_spd(platform.thermal().conductance()).expect("chip factors");
        out.push((format!("numerics.nnz_l.nm{node}"), factors.nnz_l() as u64));
    }
}

fn sweep_counts(work: &std::path::Path, out: &mut Vec<(String, u64)>) {
    let mut inputs = gen::sweep_inputs(SEED);
    inputs.spec.draws = 1;
    inputs.delta.draws = 1;
    let dir = fresh_dir(work, "sweep");
    let cold = probes::sweep_pass(&inputs.spec, &dir.join("cache"), &dir.join("cold.json"));
    let delta = probes::sweep_pass(&inputs.delta, &dir.join("cache"), &dir.join("delta.json"));
    for (name, pass) in [("cold", cold), ("delta", delta)] {
        let cache = pass.result.expect("sweep pass runs").cache;
        out.push((format!("sweep.{name}.hits"), cache.hit as u64));
        out.push((format!("sweep.{name}.misses"), cache.miss as u64));
    }
}

/// The fixed serve sequence against the daemon's code, run in-process.
fn serve_counts(work: &std::path::Path, out: &mut Vec<(String, u64)>) {
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        jobs: crate::jobs(),
        state_dir: fresh_dir(work, "state"),
        ..ServeConfig::default()
    };
    let server = Server::bind(config).expect("server binds");
    let addr = server.local_addr().expect("bound address").to_string();
    std::thread::scope(|scope| {
        let daemon = scope.spawn(move || server.run());
        let lanes = gen::serve_submissions(SEED, 8);
        let mut records = serve::drive(&addr, &lanes, None);
        records.extend(serve::drive(&addr, &gen::defect_submissions(SEED, 1), None));
        assert!(records.iter().all(|r| r.state.is_ok()), "every watch ends");
        let (_, body) = serve::request(&addr, "GET", "/v1/stats", "").expect("stats");
        let stats = darksil_json::parse(&String::from_utf8_lossy(&body)).expect("stats JSON");
        let count = |path: &[&str]| {
            path.iter()
                .try_fold(&stats, |doc, k| doc.get(k))
                .and_then(Json::as_f64)
                .expect("stats field") as u64
        };
        out.push(("serve.jobs.done".into(), count(&["jobs", "done"])));
        out.push(("serve.jobs.deduped".into(), count(&["deduped"])));
        out.push(("serve.jobs.failed".into(), count(&["jobs", "failed"])));
        serve::request(&addr, "POST", "/v1/drain", "").expect("drain");
        daemon
            .join()
            .expect("daemon thread")
            .expect("daemon drains");
    });
}

#[test]
fn exact_counts_repeat_for_a_seed() {
    let collect = |round: usize| {
        // Scratch space under the package's (ignored) target directory.
        let work = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("counts-test-{}-{round}", std::process::id()));
        let t = Instant::now();
        let mut out = Vec::new();
        transient_counts(&mut out);
        sweep_counts(&work, &mut out);
        serve_counts(&work, &mut out);
        let _ = std::fs::remove_dir_all(&work);
        eprintln!(
            "counts round {round} in {:.1} s: {out:?}",
            t.elapsed().as_secs_f64()
        );
        out
    };
    let first = collect(0);
    assert_eq!(first, collect(1));
    let get = |name: &str| first.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    // 3 nodes × 12 core counts × 3 thread counts, one draw; the delta
    // swaps one of 12 core counts.
    assert_eq!(get("sweep.cold.misses"), Some(108));
    assert_eq!(get("sweep.delta.hits"), Some(99));
    assert_eq!(get("sweep.delta.misses"), Some(9));
    // One known-defect submission per tenant, none in the mix.
    assert_eq!(get("serve.jobs.failed"), Some(2));
}
