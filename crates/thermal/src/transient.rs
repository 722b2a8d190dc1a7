//! Transient thermal simulation.

use darksil_numerics::ode::{BackwardEuler, LinearOde};
use darksil_units::{Celsius, Seconds, Watts};

use crate::{ThermalError, ThermalMap, ThermalModel};

/// Per-core `thermal.cores` samples are decimated to one every this
/// many steps, keeping the event stream proportional to simulated time
/// rather than to the (much finer) integration step.
const CORE_SAMPLE_EVERY: u64 = 32;

/// A stateful transient simulation over a [`ThermalModel`].
///
/// # Examples
///
/// ```
/// use darksil_floorplan::Floorplan;
/// use darksil_thermal::{PackageConfig, ThermalModel, TransientSim};
/// use darksil_units::{Seconds, SquareMillimeters, Watts};
///
/// let plan = Floorplan::grid(3, 3, SquareMillimeters::new(5.1))?;
/// let model = ThermalModel::new(&plan, PackageConfig::paper_dac15())?;
/// let mut sim = TransientSim::new(&model, Seconds::new(0.01))?;
/// let power = vec![Watts::new(3.0); 9];
/// let after = sim.run(&power, 100)?; // one second of heating
/// assert!(after.peak() > model.ambient());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// Integrates `C·dT/dt = P + G_amb·T_amb − G·T` with backward Euler at a
/// fixed step — A-stable, so the step can match the boosting
/// controller's 1 ms period (§6) without resolving the microsecond
/// die dynamics explicitly.
#[derive(Debug, Clone)]
pub struct TransientSim {
    /// The model this simulation was built from: it owns the input
    /// vector and the map projection.
    model: ThermalModel,
    stepper: BackwardEuler,
    state: Vec<f64>,
    elapsed: f64,
    dt: f64,
    /// Threshold for `thermal.watermark` crossing events, when set.
    watermark: Option<f64>,
    /// Steps taken so far (drives `thermal.cores` decimation).
    steps_taken: u64,
    /// Peak of the previous step; tracked only while events are being
    /// recorded, to detect watermark crossings.
    prev_peak: Option<f64>,
}

impl TransientSim {
    /// Creates a simulation starting from thermal equilibrium with the
    /// ambient (every node at `T_amb`), stepping at `dt`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::Solver`] for a non-positive step or an
    /// inconsistent model.
    pub fn new(model: &ThermalModel, dt: Seconds) -> Result<Self, ThermalError> {
        let stepper = LinearOde::new(model.conductance().clone(), model.capacitances().to_vec())?
            .backward_euler(dt.value())?;
        Ok(Self {
            model: model.clone(),
            stepper,
            state: vec![model.ambient().value(); model.node_count()],
            elapsed: 0.0,
            dt: dt.value(),
            watermark: None,
            steps_taken: 0,
            prev_peak: None,
        })
    }

    /// Sets the watermark threshold: while events are being recorded,
    /// every step's peak is checked against it and crossings emit
    /// `thermal.watermark` events (and per-core samples carry the
    /// threshold so time-above-threshold can be derived). Controllers
    /// set this to their DTM threshold; it has no effect on the
    /// simulation itself. Setting it restarts crossing detection, so a
    /// run that arms it on a warm chip reports `above` on its first
    /// step if the peak already is.
    pub fn set_watermark(&mut self, threshold: Celsius) {
        self.watermark = Some(threshold.value());
        self.prev_peak = None;
    }

    /// The configured watermark threshold, if any.
    #[must_use]
    pub fn watermark(&self) -> Option<Celsius> {
        self.watermark.map(Celsius::new)
    }

    /// Creates a simulation starting from a previously computed map
    /// (e.g. a steady state), stepping at `dt`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::PowerMapMismatch`] if the map belongs to
    /// a different model and [`ThermalError::Solver`] for solver
    /// failures.
    pub fn from_map(
        model: &ThermalModel,
        initial: &ThermalMap,
        dt: Seconds,
    ) -> Result<Self, ThermalError> {
        if initial.state().len() != model.node_count() {
            return Err(ThermalError::PowerMapMismatch {
                got: initial.state().len(),
                expected: model.node_count(),
            });
        }
        let mut sim = Self::new(model, dt)?;
        sim.state = initial.state().to_vec();
        Ok(sim)
    }

    /// The fixed integration step.
    #[must_use]
    pub fn dt(&self) -> Seconds {
        Seconds::new(self.dt)
    }

    /// Simulated time elapsed so far.
    #[must_use]
    pub fn elapsed(&self) -> Seconds {
        Seconds::new(self.elapsed)
    }

    /// Advances one step under the given per-core power map and returns
    /// the new temperatures.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::PowerMapMismatch`] for wrong-length maps,
    /// [`ThermalError::NonFinitePower`] for NaN/Inf power inputs, and
    /// [`ThermalError::Solver`] if the implicit solve fails.
    pub fn step(&mut self, power: &[Watts]) -> Result<ThermalMap, ThermalError> {
        let b = self.model.rhs(power)?;
        self.state = self.stepper.step(&self.state, &b)?;
        self.elapsed += self.dt;
        self.steps_taken += 1;
        let map = self.snapshot();
        if darksil_obs::events_enabled() {
            let total_w: f64 = power.iter().map(|w| w.value()).sum();
            self.emit_step_events(&map, total_w);
        }
        Ok(map)
    }

    /// Emits the per-step domain events (`thermal.step`, decimated
    /// `thermal.cores`, watermark crossings). Only called while event
    /// recording is on, so the disabled path stays a single atomic load
    /// inside `events_enabled`.
    fn emit_step_events(&mut self, map: &ThermalMap, total_power_w: f64) {
        let peak = map.peak().value();
        let t_s = self.elapsed;
        darksil_obs::event("thermal.step", || {
            vec![
                ("t_s", t_s.into()),
                ("peak_c", peak.into()),
                ("power_w", total_power_w.into()),
            ]
        });
        if let Some(threshold) = self.watermark {
            let is_above = peak > threshold;
            let was_above = self.prev_peak.map(|p| p > threshold);
            if was_above != Some(is_above) && (is_above || was_above.is_some()) {
                darksil_obs::event("thermal.watermark", || {
                    vec![
                        ("t_s", t_s.into()),
                        ("peak_c", peak.into()),
                        ("threshold_c", threshold.into()),
                        ("direction", if is_above { "above" } else { "below" }.into()),
                    ]
                });
            }
        }
        self.prev_peak = Some(peak);
        if self.steps_taken.is_multiple_of(CORE_SAMPLE_EVERY) {
            let cores: Vec<f64> = map.die_temperatures().map(Celsius::value).collect();
            let threshold = self.watermark;
            darksil_obs::event("thermal.cores", || {
                let mut fields = vec![("t_s", t_s.into()), ("cores", cores.into())];
                if let Some(threshold) = threshold {
                    fields.push(("threshold_c", threshold.into()));
                }
                fields
            });
        }
    }

    /// Advances `steps` steps under constant power, returning the final
    /// temperatures.
    ///
    /// # Errors
    ///
    /// Same as [`TransientSim::step`].
    pub fn run(&mut self, power: &[Watts], steps: usize) -> Result<ThermalMap, ThermalError> {
        // One coarse span for the whole batch: `step` runs in a tight
        // loop, so per-step spans would distort what they measure.
        let _span = darksil_obs::span("thermal.transient.run");
        darksil_obs::counter("thermal.transient.steps", steps as u64);
        for _ in 0..steps.saturating_sub(1) {
            self.step(power)?;
        }
        if steps > 0 {
            self.step(power)
        } else {
            Ok(self.snapshot())
        }
    }

    /// The current temperatures without advancing time.
    #[must_use]
    pub fn snapshot(&self) -> ThermalMap {
        self.model.map_from_state(self.state.clone())
    }

    /// Derivative magnitude (∞-norm of dT/dt) — a convergence signal.
    ///
    /// # Errors
    ///
    /// Same power-map checks as [`TransientSim::step`].
    pub fn rate_of_change(&self, power: &[Watts]) -> Result<f64, ThermalError> {
        let b = self.model.rhs(power)?;
        let g_t = self.model.conductance().mul_vec(&self.state);
        Ok(b.iter()
            .zip(&g_t)
            .zip(self.model.capacitances())
            .fold(0.0, |acc, ((bi, gi), ci)| acc.max(((bi - gi) / ci).abs())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PackageConfig;
    use darksil_floorplan::Floorplan;
    use darksil_units::SquareMillimeters;

    fn small_model() -> ThermalModel {
        let plan = Floorplan::grid(4, 4, SquareMillimeters::new(5.1)).expect("valid floorplan");
        ThermalModel::new(&plan, PackageConfig::paper_dac15()).expect("valid thermal model")
    }

    #[test]
    fn starts_at_ambient() {
        let m = small_model();
        let sim = TransientSim::new(&m, Seconds::new(1e-3)).expect("test value");
        let map = sim.snapshot();
        assert_eq!(map.peak(), m.ambient());
        assert_eq!(sim.elapsed(), Seconds::zero());
    }

    #[test]
    fn transient_approaches_steady_state() {
        let m = small_model();
        let power = vec![Watts::new(3.0); 16];
        let steady = m.steady_state(&power).expect("solve succeeds");

        let mut sim = TransientSim::new(&m, Seconds::new(0.1)).expect("test value");
        // The slowest time constant is the sink (tens of seconds); run
        // ten minutes of simulated time.
        sim.run(&power, 6000).expect("test value");
        let now = sim.snapshot();
        assert!(
            (now.peak() - steady.peak()).abs() < 0.3,
            "transient {} vs steady {}",
            now.peak(),
            steady.peak()
        );
        assert!(sim.rate_of_change(&power).expect("valid power map") < 1e-3);
    }

    #[test]
    fn temperature_rises_monotonically_under_step_power() {
        let m = small_model();
        let power = vec![Watts::new(3.0); 16];
        let mut sim = TransientSim::new(&m, Seconds::new(0.01)).expect("test value");
        let mut last = sim.snapshot().peak();
        for _ in 0..100 {
            let t = sim.step(&power).expect("solve succeeds").peak();
            assert!(t >= last - 1e-12);
            last = t;
        }
        assert!(last > m.ambient());
    }

    #[test]
    fn die_reacts_faster_than_package() {
        // After a power step, the first milliseconds raise the die
        // noticeably while the package barely moves — the separation the
        // boosting controller exploits.
        let m = small_model();
        let power = vec![Watts::new(5.0); 16];
        let mut sim = TransientSim::new(&m, Seconds::new(1e-3)).expect("test value");
        let map = sim.run(&power, 20).expect("test value"); // 20 ms
        let die_rise = map.peak() - m.ambient();
        let sink_node = map.state()[2 * 16 + 1];
        let sink_rise = sink_node - m.ambient().value();
        assert!(die_rise > 1.0, "die rise {die_rise}");
        assert!(sink_rise < die_rise / 3.0, "sink rise {sink_rise}");
    }

    #[test]
    fn cooling_after_power_removed() {
        let m = small_model();
        let hot = vec![Watts::new(4.0); 16];
        let mut sim = TransientSim::new(&m, Seconds::new(0.05)).expect("test value");
        sim.run(&hot, 400).expect("test value");
        let peak_hot = sim.snapshot().peak();
        sim.run(&[Watts::zero(); 16], 4000).expect("test value");
        let peak_cold = sim.snapshot().peak();
        assert!(peak_cold < peak_hot);
        assert!(
            (peak_cold - m.ambient()).abs() < 0.5,
            "cooled to {peak_cold}"
        );
    }

    #[test]
    fn restart_from_steady_state_is_stationary() {
        let m = small_model();
        let power = vec![Watts::new(2.0); 16];
        let steady = m.steady_state(&power).expect("solve succeeds");
        let mut sim = TransientSim::from_map(&m, &steady, Seconds::new(0.01)).expect("test value");
        let after = sim.run(&power, 50).expect("test value");
        assert!(
            (after.peak() - steady.peak()).abs() < 1e-6,
            "drifted from {} to {}",
            steady.peak(),
            after.peak()
        );
    }

    #[test]
    fn invalid_inputs() {
        let m = small_model();
        assert!(TransientSim::new(&m, Seconds::zero()).is_err());
        let mut sim = TransientSim::new(&m, Seconds::new(0.01)).expect("test value");
        assert!(matches!(
            sim.step(&[Watts::zero(); 3]),
            Err(ThermalError::PowerMapMismatch {
                got: 3,
                expected: 16
            })
        ));
        // A map from a different-size model is rejected.
        let other_plan =
            Floorplan::grid(2, 2, SquareMillimeters::new(5.1)).expect("valid floorplan");
        let other = ThermalModel::new(&other_plan, PackageConfig::paper_dac15())
            .expect("valid thermal model");
        let map = other
            .steady_state(&[Watts::zero(); 4])
            .expect("solve succeeds");
        assert!(TransientSim::from_map(&m, &map, Seconds::new(0.01)).is_err());
    }

    #[test]
    fn non_finite_power_is_rejected_like_steady_state() {
        let m = small_model();
        let mut sim = TransientSim::new(&m, Seconds::new(0.01)).expect("test value");
        for bad in [f64::NAN, f64::INFINITY] {
            let mut power = vec![Watts::new(1.0); 16];
            power[5] = Watts::new(bad);
            let steady = m.steady_state(&power).expect_err("steady state rejects");
            let step = sim.step(&power).expect_err("step rejects");
            let ThermalError::NonFinitePower { core, value } = &step else {
                panic!("expected NonFinitePower, got {step:?}");
            };
            assert_eq!((*core, value.to_bits()), (5, bad.to_bits()));
            assert_eq!(step.to_string(), steady.to_string());
        }
        // A rejected step leaves the simulation where it was.
        assert_eq!(sim.elapsed(), Seconds::zero());
        assert_eq!(sim.snapshot().peak(), m.ambient());
    }

    #[test]
    fn grid_mode_transient_matches_its_steady_state() {
        let plan = Floorplan::grid(3, 3, SquareMillimeters::new(5.1)).expect("valid floorplan");
        let m = ThermalModel::with_subdivision(&plan, PackageConfig::paper_dac15(), 2)
            .expect("valid thermal model");
        let power = vec![Watts::new(2.5); 9];
        let steady = m.steady_state(&power).expect("solve succeeds");
        let mut sim = TransientSim::new(&m, Seconds::new(0.1)).expect("test value");
        sim.run(&power, 6000).expect("test value");
        let now = sim.snapshot();
        assert!(
            (now.peak() - steady.peak()).abs() < 0.3,
            "transient {} vs steady {}",
            now.peak(),
            steady.peak()
        );
        assert_eq!(now.core_count(), 9);
    }

    #[test]
    fn elapsed_time_tracks_steps() {
        let m = small_model();
        let mut sim = TransientSim::new(&m, Seconds::new(0.25)).expect("test value");
        sim.run(&[Watts::zero(); 16], 8).expect("test value");
        assert!((sim.elapsed().value() - 2.0).abs() < 1e-12);
        assert_eq!(sim.dt(), Seconds::new(0.25));
    }
}
