//! Per-instance (cluster-level) boosting.
//!
//! The paper's §6 controller moves **all** cores one step together —
//! Intel Turbo Boost circa Nehalem. Modern parts steer finer-grained
//! domains, so a natural extension is one control loop per application
//! instance: every period, each instance whose hottest core is below
//! the threshold steps up and the others step down. Cool-running
//! instances (memory-bound or well-spread) can then hold boost levels
//! that a chip-wide loop, slaved to the single hottest core, would give
//! up.
//!
//! [`run_per_instance_boosting`] produces the same [`PolicyTrace`] as
//! the chip-wide policy, so the two compare directly (the recorded
//! `frequency` is the mean across instances). The measured outcome is
//! itself instructive: with a single shared heat sink the control
//! domains are thermally coupled, and per-instance control lands within
//! a few percent of the chip-wide loop rather than beating it — finer
//! DVFS domains only pay off with finer thermal domains.

use darksil_mapping::{Mapping, Platform};
use darksil_power::DvfsTable;
use darksil_thermal::ThermalMap;
use darksil_units::{Celsius, Hertz, Seconds, Watts};

use crate::driver::{Controller, Driver};
use crate::turbo::nominal_start;
use crate::{BoostError, PolicyConfig, PolicyTrace};

/// Runs the per-instance boosting policy (see module docs).
///
/// # Errors
///
/// Returns [`BoostError::InvalidConfig`] for bad durations/periods or an
/// empty mapping, and propagates thermal failures.
pub fn run_per_instance_boosting(
    platform: &Platform,
    mapping: &Mapping,
    duration: Seconds,
    config: &PolicyConfig,
) -> Result<PolicyTrace, BoostError> {
    config.validate(mapping, duration)?;
    let mut controller = PerInstance {
        dvfs: platform.dvfs(),
        config,
        mapping,
        start: nominal_start(platform),
    };
    Driver::new(platform, config)?.run(mapping, duration, &mut controller)
}

/// One chip-wide-style loop per instance, each reacting to its own
/// hottest core; the shared power cap throttles everyone.
struct PerInstance<'a> {
    dvfs: &'a DvfsTable,
    config: &'a PolicyConfig,
    mapping: &'a Mapping,
    start: usize,
}

impl Controller for PerInstance<'_> {
    const POLICY: &'static str = "per_instance";

    fn initial_level(&self) -> usize {
        self.start
    }

    fn decide(&mut self, _: Seconds, map: &ThermalMap, power: Watts, levels: &mut [usize]) {
        let over_cap = self.config.power_cap.is_some_and(|cap| power > cap);
        for (entry, idx) in self.mapping.entries().iter().zip(levels.iter_mut()) {
            let instance_peak = entry
                .cores
                .iter()
                .map(|c| map.core(*c))
                .fold(Celsius::new(f64::NEG_INFINITY), Celsius::max);
            if instance_peak > self.config.threshold || over_cap {
                *idx = self.dvfs.step_down(*idx);
            } else {
                *idx = self.dvfs.step_up(*idx);
            }
        }
    }

    /// The mean frequency across instances.
    fn frequency(&self, dvfs: &DvfsTable, levels: &[usize]) -> Hertz {
        let sum: f64 = levels
            .iter()
            .map(|&i| dvfs.get(i).map_or(0.0, |l| l.frequency.value()))
            .sum();
        Hertz::new(sum / levels.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_boosting;
    use darksil_mapping::place_patterned;
    use darksil_power::TechnologyNode;
    use darksil_workload::{ParsecApp, Workload};

    fn setup_mixed() -> (Platform, Mapping) {
        // A hot app (swaptions) and a cool app (canneal) sharing a
        // 16-core chip — the mixed case where finer control domains
        // could in principle differ from the chip-wide loop.
        let platform = Platform::with_core_count(TechnologyNode::Nm16, 16)
            .expect("test value")
            .with_boost_levels(Hertz::from_ghz(4.4))
            .expect("test value");
        let mut workload = Workload::new();
        workload.push(
            darksil_workload::AppInstance::new(ParsecApp::Swaptions, 6).expect("valid workload"),
        );
        workload.push(
            darksil_workload::AppInstance::new(ParsecApp::Canneal, 6).expect("valid workload"),
        );
        let mapping = place_patterned(platform.floorplan(), &workload, platform.max_level())
            .expect("test value");
        (platform, mapping)
    }

    fn config() -> PolicyConfig {
        PolicyConfig {
            threshold: Celsius::new(60.0), // attainable on a small die
            period: Seconds::new(0.02),
            ..PolicyConfig::default()
        }
    }

    #[test]
    fn stays_near_threshold_without_runaway() {
        let (platform, mapping) = setup_mixed();
        let trace = run_per_instance_boosting(&platform, &mapping, Seconds::new(60.0), &config())
            .expect("test value");
        let hot = trace.peak_temperature();
        assert!(hot < Celsius::new(64.0), "overshoot {hot}");
        assert!(hot > Celsius::new(56.0), "never engaged: {hot}");
    }

    #[test]
    fn shared_sink_couples_the_control_domains() {
        // A finding, not a win: because the heat sink is shared, the
        // "cool" instance's die cells are heated by its neighbours and
        // its own loop sees nearly the same peak as the chip-wide loop
        // does — per-instance control lands within a few percent of
        // chip-wide throughput instead of beating it. Independent
        // control domains need independent thermal headroom, which a
        // single package does not provide.
        let (platform, mapping) = setup_mixed();
        let cfg = config();
        let per = run_per_instance_boosting(&platform, &mapping, Seconds::new(60.0), &cfg)
            .expect("test value");
        let chip = run_boosting(&platform, &mapping, Seconds::new(60.0), &cfg).expect("test value");
        let ratio = per.average_gips_tail(0.5) / chip.average_gips_tail(0.5);
        assert!((0.9..=1.1).contains(&ratio), "ratio {ratio}");
        // Both respect the threshold equally.
        assert!(per.peak_temperature() < Celsius::new(64.0));
    }

    #[test]
    fn homogeneous_workload_matches_chip_wide_closely() {
        // With identical instances there is nothing to differentiate;
        // both controllers converge to similar operating points.
        let platform = Platform::with_core_count(TechnologyNode::Nm16, 16)
            .expect("test value")
            .with_boost_levels(Hertz::from_ghz(4.4))
            .expect("test value");
        let w = Workload::uniform(ParsecApp::X264, 3, 4).expect("valid workload");
        let mapping =
            place_patterned(platform.floorplan(), &w, platform.max_level()).expect("test value");
        let cfg = config();
        let per = run_per_instance_boosting(&platform, &mapping, Seconds::new(40.0), &cfg)
            .expect("test value");
        let chip = run_boosting(&platform, &mapping, Seconds::new(40.0), &cfg).expect("test value");
        let ratio = per.average_gips_tail(0.5) / chip.average_gips_tail(0.5);
        assert!((0.9..=1.15).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn invalid_inputs_rejected() {
        let (platform, mapping) = setup_mixed();
        assert!(
            run_per_instance_boosting(&platform, &mapping, Seconds::zero(), &config()).is_err()
        );
        let empty = Mapping::new(platform.core_count());
        assert!(
            run_per_instance_boosting(&platform, &empty, Seconds::new(1.0), &config()).is_err()
        );
    }
}
