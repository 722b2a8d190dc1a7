//! Golden digests of the transient policies.
//!
//! Every policy run is pinned bit for bit: the digest covers the `f64`
//! bits of every field of every [`TraceSample`], so any change to the
//! step loop — order of operations, the power map it feeds, the
//! frequency it reports — shows up here even when the physics tests
//! still pass. A second digest pins the event stream of a boosting and
//! a constant run. Both must stay unchanged by refactors of the policy
//! loop; update them only for a deliberate, documented change in
//! numbers.

use std::sync::{Mutex, MutexGuard, PoisonError};

use darksil_boost::{
    run_boosting, run_constant, run_per_instance_boosting, run_phased_boosting, Phase,
    PolicyConfig, PolicyTrace,
};
use darksil_mapping::{place_patterned, Mapping, Platform};
use darksil_power::TechnologyNode;
use darksil_units::{Celsius, Hertz, Seconds};
use darksil_workload::{AppInstance, ParsecApp, Workload};

/// The event recorder is process-global: tests that run policies
/// serialise so no run leaks events into another's stream.
fn recorder_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// FNV-1a, 64 bit.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn digest_traces(traces: &[PolicyTrace]) -> u64 {
    let mut h = Fnv::new();
    for trace in traces {
        h.u64(trace.len() as u64);
        for s in trace.samples() {
            h.u64(s.time.value().to_bits());
            h.u64(s.frequency.value().to_bits());
            h.u64(s.peak_temperature.value().to_bits());
            h.u64(s.gips.value().to_bits());
            h.u64(s.power.value().to_bits());
        }
    }
    h.0
}

/// The 16-core test chip the policy unit tests use.
fn platform() -> Platform {
    Platform::with_core_count(TechnologyNode::Nm16, 16)
        .expect("test value")
        .with_boost_levels(Hertz::from_ghz(4.4))
        .expect("test value")
}

fn uniform(platform: &Platform, app: ParsecApp, instances: usize) -> Mapping {
    let w = Workload::uniform(app, instances, 4).expect("valid workload");
    place_patterned(platform.floorplan(), &w, platform.max_level()).expect("test value")
}

/// A hot and a cool instance, so per-instance levels diverge.
fn mixed(platform: &Platform) -> Mapping {
    let mut w = Workload::new();
    w.push(AppInstance::new(ParsecApp::Swaptions, 6).expect("valid instance"));
    w.push(AppInstance::new(ParsecApp::Canneal, 6).expect("valid instance"));
    place_patterned(platform.floorplan(), &w, platform.max_level()).expect("test value")
}

/// A 20 ms control period and a threshold the small die can reach.
fn config() -> PolicyConfig {
    PolicyConfig {
        threshold: Celsius::new(60.0),
        period: Seconds::new(0.02),
        ..PolicyConfig::default()
    }
}

#[test]
fn policy_traces_match_their_golden_digests() {
    let _guard = recorder_lock();
    let p = platform();
    let x264 = uniform(&p, ParsecApp::X264, 3);
    let cfg = config();
    let horizon = Seconds::new(30.0);

    let boosting = run_boosting(&p, &x264, horizon, &cfg).expect("boosting runs");
    let constant = run_constant(&p, &x264, horizon, &cfg).expect("constant runs");
    let per_instance =
        run_per_instance_boosting(&p, &mixed(&p), horizon, &cfg).expect("per-instance runs");
    let heavy = uniform(&p, ParsecApp::Swaptions, 3);
    let phases = [
        Phase {
            mapping: heavy.clone(),
            duration: Seconds::new(20.0),
        },
        Phase {
            mapping: uniform(&p, ParsecApp::Canneal, 1),
            duration: Seconds::new(6.0),
        },
        Phase {
            mapping: heavy,
            duration: Seconds::new(8.0),
        },
    ];
    let phased = run_phased_boosting(&p, &phases, &cfg).expect("phased runs");

    let got = [
        ("boosting", digest_traces(&[boosting])),
        ("constant", digest_traces(&[constant])),
        ("per_instance", digest_traces(&[per_instance])),
        ("phased", digest_traces(&phased)),
    ];
    let want = [
        ("boosting", 0xec84_b001_b7eb_9586),
        ("constant", 0x77ad_98d1_add6_e417),
        ("per_instance", 0x22b7_20a0_cba9_ec8c),
        ("phased", 0xc9eb_ada9_315c_b014),
    ];
    for ((name, g), (_, w)) in got.iter().zip(&want) {
        assert_eq!(g, w, "{name} trace digest {g:#018x} != golden {w:#018x}");
    }
}

#[test]
fn boost_and_constant_event_stream_matches_its_golden_digest() {
    let _guard = recorder_lock();
    let p = platform();
    let x264 = uniform(&p, ParsecApp::X264, 3);
    let cfg = config();
    let horizon = Seconds::new(10.0);

    darksil_obs::enable_events();
    let boosting = run_boosting(&p, &x264, horizon, &cfg);
    let constant = run_constant(&p, &x264, horizon, &cfg);
    let (_trace, stream) = darksil_obs::drain_all();
    boosting.expect("boosting runs");
    constant.expect("constant runs");

    let mut h = Fnv::new();
    h.bytes(stream.to_jsonl().as_bytes());
    assert_eq!(stream.events.len(), 1886);
    assert_eq!(h.0, 0x5427_4b8d_188b_f694, "event digest {:#018x}", h.0);
}
