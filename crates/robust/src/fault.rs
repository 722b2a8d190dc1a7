//! Deterministic fault injection for the thermal feedback loop and
//! the job-supervision layer.

use std::time::Duration;

use crate::{DarksilError, SplitMix64};

/// One class of injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Additive Gaussian noise on every thermal sensor reading.
    SensorNoise {
        /// Standard deviation in °C.
        sigma_celsius: f64,
    },
    /// Every `period`-th control step, one sensor reading is dropped
    /// (replaced by NaN, as a dead sensor reports).
    SensorDropout {
        /// Steps between dropouts; 1 drops a sensor every step.
        period: u64,
    },
    /// Every `period`-th control step, one power sample becomes NaN.
    PowerNan {
        /// Steps between poisoned samples.
        period: u64,
    },
    /// Caps the CG iteration budget, forcing [`ConvergenceFailure`]
    /// so the fallback chain must engage.
    ///
    /// [`ConvergenceFailure`]: https://en.wikipedia.org/wiki/Conjugate_gradient_method
    CgIterationCap {
        /// The forced maximum iteration count.
        cap: usize,
    },
    /// Replaces the requested operating frequency with an off-ladder
    /// value; a graceful consumer throttles to the nearest safe level.
    OffLadderFrequency {
        /// The bogus request in GHz.
        ghz: f64,
    },
    /// The job spins forever (cooperatively observing its cancellation
    /// token), modelling a diverging solve. A supervisor must cancel it
    /// at the deadline on every attempt.
    Hang,
    /// The job sleeps for `millis` before doing any work, modelling an
    /// overloaded stage that may or may not beat its deadline.
    SlowJob {
        /// Added latency in milliseconds.
        millis: u64,
    },
    /// The job fails with an `injected`-class error on its first
    /// `failures` attempts and succeeds afterwards, exercising the
    /// retry machinery end-to-end.
    TransientThenSucceed {
        /// Attempts that fail before the first success.
        failures: u32,
    },
}

/// A deterministic schedule of faults, seeded so every run (and every
/// shrunk test case) replays identically.
///
/// The plan is *passive*: consumers ask it to corrupt their sensor or
/// power buffers at each control step and to report solver caps or
/// bogus frequency requests. An empty plan is a no-op, so
/// fault-tolerant code paths can take a `&FaultPlan` unconditionally.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan: corrupts nothing, caps nothing.
    #[must_use]
    pub fn none() -> Self {
        Self {
            seed: 0,
            faults: Vec::new(),
        }
    }

    /// An empty plan with a seed, ready for [`Self::with`].
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            faults: Vec::new(),
        }
    }

    /// Adds a fault (builder style).
    #[must_use]
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Whether the plan injects anything at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The faults in the plan.
    #[must_use]
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    fn rng_for(&self, step: u64, salt: u64) -> SplitMix64 {
        SplitMix64::new(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(step)
                .wrapping_add(salt.wrapping_mul(0x517C_C1B7_2722_0A95)),
        )
    }

    /// Corrupts thermal sensor readings (°C) for control step `step`.
    /// Returns the number of entries touched.
    pub fn corrupt_temperatures(&self, step: u64, temps_celsius: &mut [f64]) -> usize {
        if temps_celsius.is_empty() {
            return 0;
        }
        let mut touched = 0;
        for fault in &self.faults {
            match *fault {
                Fault::SensorNoise { sigma_celsius } if sigma_celsius > 0.0 => {
                    let mut rng = self.rng_for(step, 1);
                    for t in temps_celsius.iter_mut() {
                        *t += sigma_celsius * rng.next_gaussian();
                    }
                    touched += temps_celsius.len();
                }
                Fault::SensorDropout { period } if period > 0 && step.is_multiple_of(period) => {
                    let mut rng = self.rng_for(step, 2);
                    let idx = rng.next_below(temps_celsius.len() as u64) as usize;
                    temps_celsius[idx] = f64::NAN;
                    touched += 1;
                }
                _ => {}
            }
        }
        touched
    }

    /// Corrupts a power map (watts) for control step `step`. Returns
    /// the number of entries touched.
    pub fn corrupt_power(&self, step: u64, power_watts: &mut [f64]) -> usize {
        if power_watts.is_empty() {
            return 0;
        }
        let mut touched = 0;
        for fault in &self.faults {
            if let Fault::PowerNan { period } = *fault {
                if period > 0 && step.is_multiple_of(period) {
                    let mut rng = self.rng_for(step, 3);
                    let idx = rng.next_below(power_watts.len() as u64) as usize;
                    power_watts[idx] = f64::NAN;
                    touched += 1;
                }
            }
        }
        touched
    }

    /// The forced CG iteration cap, if the plan carries one.
    #[must_use]
    pub fn cg_iteration_cap(&self) -> Option<usize> {
        self.faults.iter().find_map(|f| match f {
            Fault::CgIterationCap { cap } => Some(*cap),
            _ => None,
        })
    }

    /// The off-ladder frequency request, if the plan carries one.
    #[must_use]
    pub fn off_ladder_frequency_ghz(&self) -> Option<f64> {
        self.faults.iter().find_map(|f| match f {
            Fault::OffLadderFrequency { ghz } => Some(*ghz),
            _ => None,
        })
    }

    /// Whether the plan carries a [`Fault::Hang`].
    #[must_use]
    pub fn hangs(&self) -> bool {
        self.faults.iter().any(|f| matches!(f, Fault::Hang))
    }

    /// The added job latency, if the plan carries a [`Fault::SlowJob`].
    #[must_use]
    pub fn slow_job_millis(&self) -> Option<u64> {
        self.faults.iter().find_map(|f| match f {
            Fault::SlowJob { millis } => Some(*millis),
            _ => None,
        })
    }

    /// The number of leading attempts that must fail, if the plan
    /// carries a [`Fault::TransientThenSucceed`].
    #[must_use]
    pub fn transient_failures(&self) -> Option<u32> {
        self.faults.iter().find_map(|f| match f {
            Fault::TransientThenSucceed { failures } => Some(*failures),
            _ => None,
        })
    }

    /// Applies the job-level faults (slow start, transient failure,
    /// hang) under the current [`RunContext`](crate::RunContext),
    /// describing the job as `what` in any error.
    ///
    /// - [`Fault::SlowJob`] sleeps, then re-polls the deadline.
    /// - [`Fault::TransientThenSucceed`] fails with an `injected`-class
    ///   error while [`crate::current_attempt`] is below the configured
    ///   count, and passes afterwards.
    /// - [`Fault::Hang`] spins observing the token until it trips,
    ///   returning the resulting `deadline`-class error.
    ///
    /// # Errors
    ///
    /// `injected`-class for a transient failure, `deadline`-class when
    /// a hang (or slow start) runs into the token.
    pub fn inject_job_faults(&self, what: &str) -> Result<(), DarksilError> {
        if let Some(millis) = self.slow_job_millis() {
            std::thread::sleep(Duration::from_millis(millis));
            crate::check_deadline(what)?;
        }
        if let Some(failures) = self.transient_failures() {
            let attempt = crate::current_attempt();
            if attempt < failures {
                return Err(DarksilError::injected(format!(
                    "{what}: injected transient fault (attempt {attempt} of {failures} failing)"
                )));
            }
        }
        if self.hangs() {
            loop {
                crate::check_deadline(what)?;
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Ok(())
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_a_no_op() {
        let plan = FaultPlan::none();
        let mut temps = vec![60.0, 61.0];
        let mut power = vec![2.0, 3.0];
        assert_eq!(plan.corrupt_temperatures(0, &mut temps), 0);
        assert_eq!(plan.corrupt_power(0, &mut power), 0);
        assert_eq!(temps, vec![60.0, 61.0]);
        assert!(plan.cg_iteration_cap().is_none());
        assert!(plan.is_empty());
    }

    #[test]
    fn dropout_and_nan_follow_the_period() {
        let plan = FaultPlan::new(9)
            .with(Fault::SensorDropout { period: 3 })
            .with(Fault::PowerNan { period: 2 });
        let mut dropped = 0;
        let mut poisoned = 0;
        for step in 0..12 {
            let mut temps = vec![70.0; 8];
            let mut power = vec![2.5; 8];
            dropped += plan.corrupt_temperatures(step, &mut temps);
            poisoned += plan.corrupt_power(step, &mut power);
            if step % 3 == 0 {
                assert_eq!(temps.iter().filter(|t| t.is_nan()).count(), 1);
            }
            if step % 2 == 0 {
                assert_eq!(power.iter().filter(|p| p.is_nan()).count(), 1);
            }
        }
        assert_eq!(dropped, 4);
        assert_eq!(poisoned, 6);
    }

    #[test]
    fn noise_is_deterministic_per_step() {
        let plan = FaultPlan::new(5).with(Fault::SensorNoise { sigma_celsius: 2.0 });
        let mut a = vec![60.0; 4];
        let mut b = vec![60.0; 4];
        plan.corrupt_temperatures(7, &mut a);
        plan.corrupt_temperatures(7, &mut b);
        assert_eq!(a, b);
        let mut c = vec![60.0; 4];
        plan.corrupt_temperatures(8, &mut c);
        assert_ne!(a, c);
        assert!(a.iter().all(|t| (t - 60.0).abs() < 20.0));
    }

    #[test]
    fn caps_and_off_ladder_queries() {
        let plan = FaultPlan::new(1)
            .with(Fault::CgIterationCap { cap: 2 })
            .with(Fault::OffLadderFrequency { ghz: 3.333 });
        assert_eq!(plan.cg_iteration_cap(), Some(2));
        assert_eq!(plan.off_ladder_frequency_ghz(), Some(3.333));
    }

    #[test]
    fn supervision_fault_queries() {
        let plan = FaultPlan::new(1)
            .with(Fault::Hang)
            .with(Fault::SlowJob { millis: 15 })
            .with(Fault::TransientThenSucceed { failures: 2 });
        assert!(plan.hangs());
        assert_eq!(plan.slow_job_millis(), Some(15));
        assert_eq!(plan.transient_failures(), Some(2));
        let empty = FaultPlan::none();
        assert!(!empty.hangs());
        assert_eq!(empty.slow_job_millis(), None);
        assert_eq!(empty.transient_failures(), None);
        empty.inject_job_faults("noop").expect("empty plan passes");
    }

    #[test]
    fn transient_fault_respects_the_attempt_counter() {
        let plan = FaultPlan::new(1).with(Fault::TransientThenSucceed { failures: 2 });
        for attempt in 0..2 {
            let ctx = crate::RunContext::unbounded().attempt_number(attempt);
            let err = crate::scoped(&ctx, || plan.inject_job_faults("job"))
                .expect_err("early attempts fail");
            assert_eq!(err.class(), crate::ErrorClass::Injected);
        }
        let ctx = crate::RunContext::unbounded().attempt_number(2);
        crate::scoped(&ctx, || plan.inject_job_faults("job")).expect("third attempt passes");
    }

    #[test]
    fn hang_is_cancelled_at_the_deadline() {
        let plan = FaultPlan::new(1).with(Fault::Hang);
        // Every attempt hangs until its own deadline, retries included.
        for attempt in 0..2 {
            let bounded = crate::RunContext::with_token(crate::CancellationToken::with_deadline(
                Duration::from_millis(20),
            ))
            .attempt_number(attempt);
            let started = std::time::Instant::now();
            let err = crate::scoped(&bounded, || plan.inject_job_faults("hung solve"))
                .expect_err("deadline cancels the hang");
            assert_eq!(err.class(), crate::ErrorClass::Deadline);
            assert!(started.elapsed() >= Duration::from_millis(20));
        }
    }
}
