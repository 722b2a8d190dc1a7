//! The closed-loop boosting controller.

use darksil_mapping::{Mapping, Platform};
use darksil_power::DvfsTable;
use darksil_thermal::ThermalMap;
use darksil_units::{Celsius, Seconds, Watts};

use crate::driver::{Controller, Driver};
use crate::{BoostError, PolicyTrace};

/// Configuration shared by the transient policies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyConfig {
    /// Thermal threshold the controller regulates to (80 °C in §6).
    pub threshold: Celsius,
    /// Control period (1 ms for Intel-style turbo, §6).
    pub period: Seconds,
    /// Optional electrical power cap (500 W in §6). Exceeding it forces
    /// a step down regardless of temperature.
    pub power_cap: Option<Watts>,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        Self {
            threshold: Celsius::new(80.0),
            period: Seconds::new(1.0e-3),
            power_cap: Some(Watts::new(500.0)),
        }
    }
}

/// Runs the boosting policy: every period the chip-wide V/f level steps
/// 200 MHz up if the peak temperature is below the threshold (and the
/// power cap is respected), down otherwise — the oscillating behaviour
/// of Figure 11.
///
/// The mapping's instance placement is kept; its levels are overridden
/// by the controller. The simulation starts from ambient (cold chip),
/// so quote averages over the settled tail.
///
/// # Errors
///
/// Returns [`BoostError::InvalidConfig`] for bad durations/periods or an
/// empty mapping, and propagates thermal failures.
pub fn run_boosting(
    platform: &Platform,
    mapping: &Mapping,
    duration: Seconds,
    config: &PolicyConfig,
) -> Result<PolicyTrace, BoostError> {
    config.validate(mapping, duration)?;
    Driver::new(platform, config)?.run(mapping, duration, &mut ChipWide::new(platform, config))
}

/// The level index a new workload starts at: the nominal maximum
/// frequency, requesting full speed.
pub(crate) fn nominal_start(platform: &Platform) -> usize {
    let dvfs = platform.dvfs();
    dvfs.floor_index(platform.node().nominal_max_frequency())
        .unwrap_or(dvfs.len() - 1)
}

/// The chip-wide controller of §6: one level for every entry, stepped
/// down when the peak temperature exceeds the threshold or the power
/// exceeds the cap, up otherwise.
pub(crate) struct ChipWide<'a> {
    dvfs: &'a DvfsTable,
    config: &'a PolicyConfig,
    start: usize,
}

impl<'a> ChipWide<'a> {
    pub(crate) fn new(platform: &'a Platform, config: &'a PolicyConfig) -> Self {
        Self {
            dvfs: platform.dvfs(),
            config,
            start: nominal_start(platform),
        }
    }
}

impl Controller for ChipWide<'_> {
    const POLICY: &'static str = "boosting";

    fn initial_level(&self) -> usize {
        self.start
    }

    fn decide(&mut self, time: Seconds, map: &ThermalMap, power: Watts, levels: &mut [usize]) {
        let Some(&current) = levels.first() else {
            return;
        };
        let peak = map.peak();
        let over_cap = self.config.power_cap.is_some_and(|cap| power > cap);
        let next = if peak > self.config.threshold || over_cap {
            self.dvfs.step_down(current)
        } else {
            self.dvfs.step_up(current)
        };
        levels.fill(next);
        if next != current && darksil_obs::events_enabled() {
            // The controller changed the chip-wide V/f level: record the
            // transition with whichever condition forced the decision.
            let reason = if peak > self.config.threshold {
                "thermal"
            } else if over_cap {
                "power_cap"
            } else {
                "boost"
            };
            let from_ghz = self.dvfs.get(current).map_or(0.0, |l| l.frequency.as_ghz());
            let to_ghz = self
                .dvfs
                .get(next)
                .map_or(from_ghz, |l| l.frequency.as_ghz());
            darksil_obs::event("boost.transition", || {
                vec![
                    ("t_s", time.value().into()),
                    ("from_ghz", from_ghz.into()),
                    ("to_ghz", to_ghz.into()),
                    ("peak_c", peak.value().into()),
                    ("reason", reason.into()),
                ]
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darksil_mapping::place_patterned;
    use darksil_power::TechnologyNode;
    use darksil_units::Hertz;
    use darksil_workload::{ParsecApp, Workload};

    fn setup() -> (Platform, Mapping) {
        // Small 16-core chip so the transient tests stay fast; 12 of 16
        // cores active is the same ~75 % occupancy as Figure 11.
        let platform = Platform::with_core_count(TechnologyNode::Nm16, 16)
            .expect("test value")
            .with_boost_levels(Hertz::from_ghz(4.4))
            .expect("test value");
        let w = Workload::uniform(ParsecApp::X264, 3, 4).expect("valid workload");
        let mapping =
            place_patterned(platform.floorplan(), &w, platform.max_level()).expect("test value");
        (platform, mapping)
    }

    // A 16-core die cannot heat the paper's 6×6 cm sink to 80 °C, so
    // the small-chip tests regulate to an attainable 60 °C threshold;
    // the full 100-core Figure 11 run (bench harness) uses 80 °C.
    fn fast_config() -> PolicyConfig {
        PolicyConfig {
            threshold: Celsius::new(60.0),
            period: Seconds::new(0.02),
            ..PolicyConfig::default()
        }
    }

    #[test]
    fn an_expired_deadline_cancels_the_policy_loop() {
        let (platform, mapping) = setup();
        let ctx = darksil_robust::RunContext::with_token(
            darksil_robust::CancellationToken::with_deadline(std::time::Duration::from_millis(0)),
        );
        let err = darksil_robust::scoped(&ctx, || {
            run_boosting(&platform, &mapping, Seconds::new(60.0), &fast_config())
        })
        .expect_err("expired deadline stops the loop");
        assert!(matches!(err, BoostError::Cancelled { .. }), "{err:?}");
        let classified: darksil_robust::DarksilError = err.into();
        assert_eq!(classified.class(), darksil_robust::ErrorClass::Deadline);
    }

    #[test]
    fn controller_regulates_to_threshold() {
        let (platform, mapping) = setup();
        let trace = run_boosting(&platform, &mapping, Seconds::new(60.0), &fast_config())
            .expect("test value");
        // Settled band straddles/approaches the threshold without
        // running away.
        let hot = trace.peak_temperature();
        assert!(hot < Celsius::new(64.0), "overshoot {hot}");
        let tail_min = trace.min_peak_temperature_tail(0.2);
        let tail_max = trace.peak_temperature();
        assert!(
            tail_max.value() > 56.0,
            "never approached threshold: {tail_max}"
        );
        assert!(tail_min < tail_max);
    }

    #[test]
    fn frequency_oscillates_in_settled_region() {
        let (platform, mapping) = setup();
        let trace = run_boosting(&platform, &mapping, Seconds::new(60.0), &fast_config())
            .expect("test value");
        let (lo, hi) = trace.frequency_band_tail(0.2);
        assert!(hi > lo, "no oscillation: stuck at {lo}");
        // Steps are 200 MHz.
        assert!(hi - lo >= Hertz::from_mhz(199.0));
    }

    #[test]
    fn trace_bookkeeping() {
        let (platform, mapping) = setup();
        let trace = run_boosting(&platform, &mapping, Seconds::new(2.0), &fast_config())
            .expect("test value");
        assert_eq!(trace.len(), 100);
        assert!(trace.total_energy().value() > 0.0);
        assert!(trace.average_gips().value() > 0.0);
        // Time increases monotonically.
        let mut last = Seconds::zero();
        for s in trace.samples() {
            assert!(s.time > last);
            last = s.time;
        }
    }

    #[test]
    fn power_cap_forces_step_down() {
        let (platform, mapping) = setup();
        let capped = PolicyConfig {
            power_cap: Some(Watts::new(20.0)),
            ..fast_config()
        };
        let trace =
            run_boosting(&platform, &mapping, Seconds::new(20.0), &capped).expect("test value");
        // With a 20 W cap on a 12-core active chip the controller must
        // keep power near the cap even though temperature never
        // approaches 80 °C.
        let tail: Vec<_> = trace
            .samples()
            .iter()
            .skip(trace.len() - 20)
            .map(|s| s.power.value())
            .collect();
        let avg = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(avg < 25.0, "tail power {avg} W ignores the cap");
        assert!(trace.peak_temperature() < Celsius::new(58.0));
    }

    #[test]
    fn invalid_configs_rejected() {
        let (platform, mapping) = setup();
        assert!(matches!(
            run_boosting(&platform, &mapping, Seconds::zero(), &fast_config()),
            Err(BoostError::InvalidConfig { .. })
        ));
        let bad = PolicyConfig {
            period: Seconds::zero(),
            ..PolicyConfig::default()
        };
        assert!(run_boosting(&platform, &mapping, Seconds::new(1.0), &bad).is_err());
        let empty = Mapping::new(platform.core_count());
        assert!(run_boosting(&platform, &empty, Seconds::new(1.0), &fast_config()).is_err());
    }
}
