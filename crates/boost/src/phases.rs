//! Phased transient runs: workload changes under one thermal history.
//!
//! Boosting budgets are *stateful*: how hard the controller can push
//! depends on how hot the package already is. A cold chip gives a new
//! application tens of seconds of boost residency (the package heat
//! capacity absorbs the burst); the same application arriving after a
//! hot phase starts throttled. [`run_phased_boosting`] strings several
//! (mapping, duration) phases through a single [`TransientSim`] so that
//! thermal history carries across phase boundaries, and returns one
//! trace per phase.

use darksil_mapping::{Mapping, Platform};
use darksil_units::Seconds;

use crate::driver::Driver;
use crate::turbo::ChipWide;
use crate::{BoostError, PolicyConfig, PolicyTrace};

/// One phase of a phased run.
#[derive(Debug, Clone)]
pub struct Phase {
    /// The mapping active during this phase (levels are overridden by
    /// the controller).
    pub mapping: Mapping,
    /// How long the phase lasts.
    pub duration: Seconds,
}

/// Runs the chip-wide boosting controller across consecutive phases,
/// preserving thermal state between them. The controller's level index
/// resets to the nominal maximum at each phase start (a new workload
/// arrives requesting full speed); the package temperature does not.
/// Each phase is its own `boost.run` … `boost.summary` event segment.
///
/// # Errors
///
/// Returns [`BoostError::InvalidConfig`] for an empty phase list, a
/// phase shorter than one period, or an empty mapping, and propagates
/// thermal failures.
pub fn run_phased_boosting(
    platform: &Platform,
    phases: &[Phase],
    config: &PolicyConfig,
) -> Result<Vec<PolicyTrace>, BoostError> {
    if phases.is_empty() {
        return Err(BoostError::InvalidConfig {
            reason: "no phases given".into(),
        });
    }
    for (i, phase) in phases.iter().enumerate() {
        config
            .validate(&phase.mapping, phase.duration)
            .map_err(|e| match e {
                BoostError::InvalidConfig { reason } => BoostError::InvalidConfig {
                    reason: format!("phase {i}: {reason}"),
                },
                other => other,
            })?;
    }
    let mut driver = Driver::new(platform, config)?;
    phases
        .iter()
        .map(|phase| {
            driver.run(
                &phase.mapping,
                phase.duration,
                &mut ChipWide::new(platform, config),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use darksil_mapping::place_patterned;
    use darksil_power::TechnologyNode;
    use darksil_units::{Celsius, Hertz};
    use darksil_workload::{ParsecApp, Workload};

    fn platform() -> Platform {
        Platform::with_core_count(TechnologyNode::Nm16, 16)
            .expect("test value")
            .with_boost_levels(Hertz::from_ghz(4.4))
            .expect("test value")
    }

    fn mapping(platform: &Platform, app: ParsecApp, instances: usize) -> Mapping {
        let w = Workload::uniform(app, instances, 4).expect("valid workload");
        place_patterned(platform.floorplan(), &w, platform.max_level()).expect("test value")
    }

    fn config() -> PolicyConfig {
        PolicyConfig {
            threshold: Celsius::new(60.0),
            period: Seconds::new(0.02),
            ..PolicyConfig::default()
        }
    }

    #[test]
    fn thermal_history_throttles_the_second_phase() {
        // Phase 1 heats the package with a heavy workload; phase 2 runs
        // the *same* workload again. Compared against a cold-start run
        // of phase 2 alone, the history-carrying run delivers less
        // boost over the same horizon.
        let p = platform();
        let heavy = mapping(&p, ParsecApp::Swaptions, 3);
        let phases = [
            Phase {
                mapping: heavy.clone(),
                duration: Seconds::new(40.0),
            },
            Phase {
                mapping: heavy.clone(),
                duration: Seconds::new(10.0),
            },
        ];
        let traces = run_phased_boosting(&p, &phases, &config()).expect("test value");
        assert_eq!(traces.len(), 2);
        let warm_start = traces[1].average_gips();

        let cold = run_phased_boosting(
            &p,
            &[Phase {
                mapping: heavy,
                duration: Seconds::new(10.0),
            }],
            &config(),
        )
        .expect("test value");
        let cold_start = cold[0].average_gips();
        assert!(
            warm_start.value() < cold_start.value() * 0.97,
            "warm {warm_start} not below cold {cold_start}"
        );
    }

    #[test]
    fn time_is_continuous_across_phases() {
        let p = platform();
        let phases = [
            Phase {
                mapping: mapping(&p, ParsecApp::X264, 2),
                duration: Seconds::new(2.0),
            },
            Phase {
                mapping: mapping(&p, ParsecApp::Canneal, 2),
                duration: Seconds::new(2.0),
            },
        ];
        let traces = run_phased_boosting(&p, &phases, &config()).expect("test value");
        let end_of_first = traces[0].samples().last().expect("test value").time;
        let start_of_second = traces[1].samples().first().expect("test value").time;
        assert!(start_of_second > end_of_first);
        assert!((start_of_second.value() - 2.02).abs() < 1e-9);
    }

    #[test]
    fn light_phase_cools_the_package_for_the_next() {
        // heavy → light → heavy: the cool-down phase restores part of
        // the boost budget.
        let p = platform();
        let heavy = mapping(&p, ParsecApp::Swaptions, 3);
        let light = mapping(&p, ParsecApp::Canneal, 1);
        let phases = [
            Phase {
                mapping: heavy.clone(),
                duration: Seconds::new(40.0),
            },
            Phase {
                mapping: heavy.clone(),
                duration: Seconds::new(8.0),
            },
        ];
        let no_rest = run_phased_boosting(&p, &phases, &config()).expect("test value");

        let rested_phases = [
            Phase {
                mapping: heavy.clone(),
                duration: Seconds::new(40.0),
            },
            Phase {
                mapping: light,
                duration: Seconds::new(30.0),
            },
            Phase {
                mapping: heavy,
                duration: Seconds::new(8.0),
            },
        ];
        let rested = run_phased_boosting(&p, &rested_phases, &config()).expect("test value");
        let g_no_rest = no_rest[1].average_gips().value();
        let g_rested = rested[2].average_gips().value();
        assert!(
            g_rested > g_no_rest,
            "rest did not help: {g_rested} vs {g_no_rest}"
        );
    }

    #[test]
    fn invalid_phase_lists_rejected() {
        let p = platform();
        assert!(run_phased_boosting(&p, &[], &config()).is_err());
        let too_short = [Phase {
            mapping: mapping(&p, ParsecApp::X264, 1),
            duration: Seconds::new(0.001),
        }];
        assert!(run_phased_boosting(&p, &too_short, &config()).is_err());
        let empty = [Phase {
            mapping: Mapping::new(p.core_count()),
            duration: Seconds::new(1.0),
        }];
        assert!(run_phased_boosting(&p, &empty, &config()).is_err());
    }
}
