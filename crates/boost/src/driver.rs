//! The one transient policy loop.
//!
//! Every §6 policy is the same closed loop: each control period the
//! per-core power map is evaluated at the current die temperatures, the
//! thermal RC network advances one step under it, a trace sample is
//! recorded, and a [`Controller`] picks the V/f level of every mapping
//! entry for the next period. [`Driver`] owns that loop — the
//! [`TransientSim`], the step count, the cancellation poll, the
//! watermark and the `boost.run` / `boost.summary` segment markers — so
//! the policies differ only in their controller.
//!
//! Every policy run restarts the simulated clock at zero (a phased run
//! continues it), so a stream holding several runs is not globally
//! time-monotone. The `boost.run` marker opens a segment and
//! `boost.summary` closes it; stream consumers (the fuzzing oracle,
//! `darksil events verify`) check per-segment invariants between the
//! two.

use darksil_mapping::{Mapping, Platform};
use darksil_power::DvfsTable;
use darksil_thermal::{ThermalMap, TransientSim};
use darksil_units::{Celsius, Hertz, Seconds, Watts};

use crate::{BoostError, PolicyConfig, PolicyTrace, TraceSample};

/// A V/f decision rule plugged into the [`Driver`] loop. Levels are
/// indices into the platform's DVFS table, one per mapping entry.
pub(crate) trait Controller {
    /// Policy label carried by the run's segment markers.
    const POLICY: &'static str;

    /// The level index every entry starts at.
    fn initial_level(&self) -> usize;

    /// Observes the end of a period — the post-step temperature map and
    /// the total power the step ran under — and writes the level of
    /// every entry for the next period into `levels`.
    fn decide(&mut self, time: Seconds, map: &ThermalMap, power: Watts, levels: &mut [usize]);

    /// The frequency recorded in the trace for `levels`: the first
    /// entry's level, which is every entry's level for a chip-wide
    /// controller.
    fn frequency(&self, dvfs: &DvfsTable, levels: &[usize]) -> Hertz {
        levels
            .first()
            .and_then(|&idx| dvfs.get(idx))
            .map_or(Hertz::zero(), |level| level.frequency)
    }
}

impl PolicyConfig {
    /// Rejects a run that cannot take a single control step.
    pub(crate) fn validate(&self, mapping: &Mapping, duration: Seconds) -> Result<(), BoostError> {
        if self.period.value() <= 0.0 || !self.period.value().is_finite() {
            return Err(BoostError::InvalidConfig {
                reason: format!("period must be positive, got {}", self.period),
            });
        }
        if !duration.value().is_finite() || duration.value() <= 0.0 || duration < self.period {
            return Err(BoostError::InvalidConfig {
                reason: format!("duration {duration} shorter than one period"),
            });
        }
        if mapping.entries().is_empty() {
            return Err(BoostError::InvalidConfig {
                reason: "mapping has no instances".into(),
            });
        }
        Ok(())
    }
}

/// One thermal history that policy runs advance in turn.
pub(crate) struct Driver<'a> {
    platform: &'a Platform,
    config: &'a PolicyConfig,
    sim: TransientSim,
}

impl<'a> Driver<'a> {
    /// A driver whose simulation starts from ambient (a cold chip).
    /// Validate the runs with [`PolicyConfig::validate`] first.
    pub(crate) fn new(
        platform: &'a Platform,
        config: &'a PolicyConfig,
    ) -> Result<Self, BoostError> {
        let sim = TransientSim::new(platform.thermal(), config.period)?;
        Ok(Self {
            platform,
            config,
            sim,
        })
    }

    /// Runs `controller` over `mapping` for `duration`, continuing from
    /// wherever the previous run left the package temperature. The
    /// mapping's placement is kept; its levels are the controller's.
    pub(crate) fn run<C: Controller>(
        &mut self,
        mapping: &Mapping,
        duration: Seconds,
        controller: &mut C,
    ) -> Result<PolicyTrace, BoostError> {
        emit_run_start(C::POLICY, self.config);
        let start = self.sim.elapsed();
        self.sim.set_watermark(self.config.threshold);
        let platform = self.platform;
        let dvfs = platform.dvfs();
        let steps = (duration.value() / self.config.period.value()).round() as usize;
        let mut working = mapping.clone();
        let mut levels = vec![controller.initial_level(); working.entries().len()];
        // Power follows the die temperatures (leakage coupling); after
        // the first step they come from the map the step returned.
        let mut temps: Vec<Celsius> = self.sim.snapshot().die_temperatures().collect();
        let mut trace = PolicyTrace::new();

        for _ in 0..steps {
            crate::error::check_step("transient policy step")?;
            for (entry, &idx) in working.entries_mut().iter_mut().zip(&levels) {
                if let Some(level) = dvfs.get(idx) {
                    entry.level = level;
                }
            }
            let power_map = working.power_map_at(platform, &temps);
            let total_power: Watts = power_map.iter().sum();
            let map = self.sim.step(&power_map)?;
            let time = self.sim.elapsed();
            trace.push(TraceSample {
                time,
                frequency: controller.frequency(dvfs, &levels),
                peak_temperature: map.peak(),
                gips: working.total_gips(platform),
                power: total_power,
            });
            controller.decide(time, &map, total_power, &mut levels);
            temps.clear();
            temps.extend(map.die_temperatures());
        }
        emit_run_summary(C::POLICY, &trace, start);
        Ok(trace)
    }
}

/// Emits the `boost.run` segment-opening marker.
fn emit_run_start(policy: &'static str, config: &PolicyConfig) {
    if !darksil_obs::events_enabled() {
        return;
    }
    let threshold_c = config.threshold.value();
    let period_s = config.period.value();
    let power_cap_w = config.power_cap.map(Watts::value);
    darksil_obs::event("boost.run", move || {
        let mut fields = vec![
            ("policy", policy.into()),
            ("threshold_c", threshold_c.into()),
            ("period_s", period_s.into()),
        ];
        if let Some(cap) = power_cap_w {
            fields.push(("power_cap_w", cap.into()));
        }
        fields
    });
}

/// Emits the `boost.summary` segment-closing marker with the totals the
/// energy-conservation invariant cross-checks against the integrated
/// `thermal.step` power samples of the run that began at `start`.
fn emit_run_summary(policy: &'static str, trace: &PolicyTrace, start: Seconds) {
    if !darksil_obs::events_enabled() {
        return;
    }
    let energy_j = trace.energy_since(start).value();
    let peak_w = trace.peak_power().value();
    let peak_c = trace.peak_temperature().value();
    let samples = trace.len() as u64;
    darksil_obs::event("boost.summary", move || {
        vec![
            ("policy", policy.into()),
            ("energy_j", energy_j.into()),
            ("peak_w", peak_w.into()),
            ("peak_c", peak_c.into()),
            ("samples", samples.into()),
        ]
    });
}
