//! Job supervision: deadlines, retries with deterministic backoff, and
//! a per-class circuit breaker.
//!
//! The [`Supervisor`] wraps one job closure and drives it through a
//! policy described by a [`JobSpec`]:
//!
//! 1. Every attempt runs under a fresh [`CancellationToken`] carrying
//!    the spec's wall-clock budget, installed as the thread-scoped
//!    [`RunContext`] — CG iterations and policy-step loops below poll
//!    it and return `ErrorClass::Deadline` instead of wedging the
//!    worker.
//! 2. Failures whose [`ErrorClass::is_retryable`] re-run up to
//!    `max_retries` times, sleeping a seeded, jittered exponential
//!    backoff between attempts ([`BackoffPolicy`]). The delays are a
//!    pure function of (seed, job name, attempt), so a replayed run
//!    waits exactly the same milliseconds.
//! 3. A [`CircuitBreaker`] counts consecutive failures per artefact
//!    class; once a class trips, further retries in that class are
//!    skipped (first attempts still run), stopping retry storms when a
//!    whole family of jobs is broken.
//! 4. A job that exhausts its retries (or whose breaker is open, or
//!    whose error is not retryable) fails with its last error's class.
//!
//! Every attempt is recorded as an [`AttemptRecord`] (outcome, class,
//! backoff, wall-clock) for the run journal and error report.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use darksil_json::{Json, ToJson};
use darksil_robust::{CancellationToken, DarksilError, RunContext, SplitMix64};

/// A lifecycle transition reported through the supervisor's attempt
/// hook ([`Supervisor::set_attempt_hook`]). Observers — the service's
/// job-status stream, most notably — receive one of these per attempt
/// boundary, tagged with the job name, while the attempt is happening
/// rather than after `run` returns.
#[derive(Debug, Clone, PartialEq)]
pub enum AttemptTransition {
    /// An attempt is about to run.
    Started {
        /// 0-based attempt number.
        attempt: u32,
    },
    /// An attempt failed retryably; a retry follows after backoff.
    Backoff {
        /// The failed attempt's 0-based number.
        attempt: u32,
        /// The failing error's class label.
        outcome: String,
        /// Milliseconds the supervisor sleeps before the retry.
        backoff_ms: u64,
    },
    /// The job reached a terminal outcome.
    Finished {
        /// The final attempt's 0-based number.
        attempt: u32,
        /// `"ok"` or the failing error's class label.
        outcome: String,
    },
}

impl ToJson for AttemptTransition {
    fn to_json(&self) -> Json {
        match self {
            Self::Started { attempt } => Json::Obj(vec![
                ("kind".to_string(), Json::Str("attempt".to_string())),
                ("attempt".to_string(), Json::Num(f64::from(*attempt))),
            ]),
            Self::Backoff {
                attempt,
                outcome,
                backoff_ms,
            } => {
                #[allow(clippy::cast_precision_loss)]
                let backoff = *backoff_ms as f64;
                Json::Obj(vec![
                    ("kind".to_string(), Json::Str("backoff".to_string())),
                    ("attempt".to_string(), Json::Num(f64::from(*attempt))),
                    ("outcome".to_string(), Json::Str(outcome.clone())),
                    ("backoff_ms".to_string(), Json::Num(backoff)),
                ])
            }
            Self::Finished { attempt, outcome } => Json::Obj(vec![
                ("kind".to_string(), Json::Str("finished".to_string())),
                ("attempt".to_string(), Json::Num(f64::from(*attempt))),
                ("outcome".to_string(), Json::Str(outcome.clone())),
            ]),
        }
    }
}

/// Observer callback for [`AttemptTransition`]s; receives the job name
/// from the [`JobSpec`] plus the transition. Must be cheap and must
/// not call back into the same supervisor.
pub type AttemptHook = Arc<dyn Fn(&str, &AttemptTransition) + Send + Sync>;

/// Seeded, jittered exponential backoff. `delay_ms(name, retry)` is a
/// pure function of the policy and its inputs — deterministic across
/// runs, de-synchronised across jobs (the job name salts the jitter).
#[derive(Debug, Clone, PartialEq)]
pub struct BackoffPolicy {
    /// Delay before the first retry, in milliseconds.
    pub base_ms: u64,
    /// Upper bound on any single delay, in milliseconds.
    pub cap_ms: u64,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a factor
    /// drawn uniformly from `1 ± jitter`.
    pub jitter: f64,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        Self {
            base_ms: 50,
            cap_ms: 2_000,
            jitter: 0.25,
            seed: 0x5eed_ba5e,
        }
    }
}

impl BackoffPolicy {
    /// The delay before retry number `retry` (1-based) of the job
    /// called `name`, in milliseconds.
    #[must_use]
    pub fn delay_ms(&self, name: &str, retry: u32) -> u64 {
        let exponential = self
            .base_ms
            .saturating_mul(1_u64 << retry.saturating_sub(1).min(20))
            .min(self.cap_ms);
        let salt = crate::stable_hash(name.as_bytes());
        let mut rng = SplitMix64::new(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(salt)
                .wrapping_add(u64::from(retry)),
        );
        let jitter = self.jitter.clamp(0.0, 1.0);
        let factor = 1.0 - jitter + 2.0 * jitter * rng.next_f64();
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        #[allow(clippy::cast_sign_loss)]
        let jittered = (exponential as f64 * factor).round() as u64;
        jittered.min(self.cap_ms)
    }
}

/// Consecutive-failure counter per artefact class. A class whose count
/// reaches the threshold is *open*: the supervisor stops retrying jobs
/// of that class (first attempts still run, and a success resets the
/// counter and closes the breaker).
#[derive(Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    consecutive: Mutex<HashMap<String, u32>>,
}

impl CircuitBreaker {
    /// A breaker that opens after `threshold` consecutive failures in
    /// one class (clamped to at least 1).
    #[must_use]
    pub fn new(threshold: u32) -> Self {
        Self {
            threshold: threshold.max(1),
            consecutive: Mutex::new(HashMap::new()),
        }
    }

    /// Whether `class` has tripped the breaker.
    #[must_use]
    pub fn is_open(&self, class: &str) -> bool {
        self.consecutive
            .lock()
            .map(|map| map.get(class).copied().unwrap_or(0) >= self.threshold)
            .unwrap_or(false)
    }

    /// Records a successful attempt, closing the class's breaker.
    pub fn record_success(&self, class: &str) {
        if let Ok(mut map) = self.consecutive.lock() {
            map.remove(class);
        }
    }

    /// Records a failed attempt.
    pub fn record_failure(&self, class: &str) {
        if let Ok(mut map) = self.consecutive.lock() {
            *map.entry(class.to_string()).or_insert(0) += 1;
        }
    }
}

/// The supervision policy for one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Job name, used in diagnostics and to salt the backoff jitter.
    pub name: String,
    /// Artefact class for the circuit breaker (jobs sharing a class
    /// share a consecutive-failure counter).
    pub class: String,
    /// Wall-clock budget per attempt; `None` runs unbounded.
    pub deadline: Option<Duration>,
    /// Retries after the first attempt (0 = fail fast).
    pub max_retries: u32,
}

impl JobSpec {
    /// A spec with the given name and class, no deadline and two
    /// retries.
    #[must_use]
    pub fn new(name: impl Into<String>, class: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            class: class.into(),
            deadline: None,
            max_retries: 2,
        }
    }
}

/// One attempt in a supervised job's timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptRecord {
    /// 0-based attempt number.
    pub attempt: u32,
    /// `"ok"` or the failing error's class label.
    pub outcome: String,
    /// The failure message, for non-`ok` attempts.
    pub error: Option<String>,
    /// Backoff slept *after* this attempt before the next one, in
    /// milliseconds (0 when no retry followed).
    pub backoff_ms: u64,
    /// Wall-clock seconds this attempt took.
    pub seconds: f64,
}

impl ToJson for AttemptRecord {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("attempt".to_string(), Json::Num(f64::from(self.attempt))),
            ("outcome".to_string(), Json::Str(self.outcome.clone())),
        ];
        if let Some(error) = &self.error {
            fields.push(("error".to_string(), Json::Str(error.clone())));
        }
        #[allow(clippy::cast_precision_loss)]
        fields.push(("backoff_ms".to_string(), Json::Num(self.backoff_ms as f64)));
        fields.push(("seconds".to_string(), Json::Num(self.seconds)));
        Json::Obj(fields)
    }
}

/// The outcome of a supervised job: the final result and the
/// per-attempt timeline.
#[derive(Debug)]
pub struct Supervised<T> {
    /// The last attempt's result.
    pub result: Result<T, DarksilError>,
    /// Every attempt, in order.
    pub attempts: Vec<AttemptRecord>,
}

/// Drives jobs through deadline/retry supervision. Safe to
/// share across worker threads by reference (the breaker state is
/// internally locked).
pub struct Supervisor {
    backoff: BackoffPolicy,
    breaker: CircuitBreaker,
    /// Sleeps are real by default; tests shrink them via the policy.
    sleep: fn(Duration),
    /// Optional attempt-transition observer.
    hook: Option<AttemptHook>,
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("backoff", &self.backoff)
            .field("breaker", &self.breaker)
            .field("hook", &self.hook.as_ref().map(|_| "…"))
            .finish_non_exhaustive()
    }
}

impl Supervisor {
    /// A supervisor with the given backoff policy and circuit-breaker
    /// threshold.
    #[must_use]
    pub fn new(backoff: BackoffPolicy, breaker_threshold: u32) -> Self {
        Self {
            backoff,
            breaker: CircuitBreaker::new(breaker_threshold),
            sleep: std::thread::sleep,
            hook: None,
        }
    }

    /// Installs the attempt-transition observer (replacing any prior
    /// one). Install before the supervisor starts running jobs; the
    /// hook fires on every attempt start, scheduled backoff, and
    /// terminal outcome, on the thread driving the job.
    pub fn set_attempt_hook(&mut self, hook: AttemptHook) {
        self.hook = Some(hook);
    }

    /// Fires the hook, if installed.
    fn notify(&self, name: &str, transition: &AttemptTransition) {
        if let Some(hook) = &self.hook {
            hook(name, transition);
        }
    }

    /// The breaker, for reporting which classes have tripped.
    #[must_use]
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Runs `job` under `spec`'s policy. The job closure observes its
    /// deadline and attempt number through the thread-scoped
    /// [`RunContext`] (`darksil_robust::check_deadline` and friends); it
    /// needs no supervision-aware signature. A job that exhausts its
    /// retries fails with its last error.
    pub fn run<T>(
        &self,
        spec: &JobSpec,
        job: impl Fn() -> Result<T, DarksilError>,
    ) -> Supervised<T> {
        let mut attempts = Vec::new();
        let mut attempt: u32 = 0;
        loop {
            self.notify(&spec.name, &AttemptTransition::Started { attempt });
            let (result, seconds) = self.attempt(spec, attempt, &job);
            let error = match result {
                Ok(value) => {
                    self.breaker.record_success(&spec.class);
                    attempts.push(AttemptRecord {
                        attempt,
                        outcome: "ok".to_string(),
                        error: None,
                        backoff_ms: 0,
                        seconds,
                    });
                    self.notify(
                        &spec.name,
                        &AttemptTransition::Finished {
                            attempt,
                            outcome: "ok".to_string(),
                        },
                    );
                    return Supervised {
                        result: Ok(value),
                        attempts,
                    };
                }
                Err(error) => error,
            };
            self.breaker.record_failure(&spec.class);
            let outcome = error.class().label().to_string();
            let may_retry = error.class().is_retryable() && attempt < spec.max_retries;
            let breaker_open = self.breaker.is_open(&spec.class);
            if may_retry && !breaker_open {
                let next_retry = attempt + 1;
                let backoff_ms = self.backoff.delay_ms(&spec.name, next_retry);
                darksil_obs::counter("engine.supervisor.retry", 1);
                attempts.push(AttemptRecord {
                    attempt,
                    outcome: outcome.clone(),
                    error: Some(error.to_string()),
                    backoff_ms,
                    seconds,
                });
                self.notify(
                    &spec.name,
                    &AttemptTransition::Backoff {
                        attempt,
                        outcome,
                        backoff_ms,
                    },
                );
                (self.sleep)(Duration::from_millis(backoff_ms));
                attempt = next_retry;
                continue;
            }
            if may_retry {
                // The retry budget was there but the breaker vetoed it —
                // operators watching `trace summarize` need this distinct
                // from ordinary exhaustion to spot a failing class.
                darksil_obs::counter("engine.supervisor.breaker_open", 1);
            }
            attempts.push(AttemptRecord {
                attempt,
                outcome: outcome.clone(),
                error: Some(error.to_string()),
                backoff_ms: 0,
                seconds,
            });
            self.notify(
                &spec.name,
                &AttemptTransition::Finished { attempt, outcome },
            );
            return Supervised {
                result: Err(error),
                attempts,
            };
        }
    }

    /// Runs one attempt under a fresh token scoped to the thread.
    fn attempt<T>(
        &self,
        spec: &JobSpec,
        attempt: u32,
        job: &impl Fn() -> Result<T, DarksilError>,
    ) -> (Result<T, DarksilError>, f64) {
        let token = spec.deadline.map_or_else(
            CancellationToken::unbounded,
            CancellationToken::with_deadline,
        );
        let context = RunContext::with_token(token).attempt_number(attempt);
        let _span = darksil_obs::span("engine.supervisor.attempt");
        let started = Instant::now();
        let result = darksil_robust::scoped(&context, job);
        (result, started.elapsed().as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn fast_supervisor(threshold: u32) -> Supervisor {
        Supervisor::new(
            BackoffPolicy {
                base_ms: 0,
                cap_ms: 0,
                ..BackoffPolicy::default()
            },
            threshold,
        )
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_jittered() {
        let policy = BackoffPolicy::default();
        let a = policy.delay_ms("fig5", 1);
        let b = policy.delay_ms("fig5", 1);
        assert_eq!(a, b, "same inputs, same delay");
        assert_ne!(
            policy.delay_ms("fig5", 1),
            policy.delay_ms("fig6", 1),
            "different jobs de-synchronise"
        );
        // Jitter stays within ±25% of the exponential schedule.
        for retry in 1..=4 {
            let nominal = 50 * (1 << (retry - 1));
            let delay = policy.delay_ms("fig5", retry);
            #[allow(clippy::cast_precision_loss)]
            let ratio = delay as f64 / f64::from(nominal);
            assert!((0.75..=1.25).contains(&ratio), "retry {retry}: {delay} ms");
        }
        // The cap bounds even deep retries.
        assert!(policy.delay_ms("fig5", 30) <= policy.cap_ms);
    }

    #[test]
    fn first_success_needs_no_retries() {
        let sup = fast_supervisor(4);
        let spec = JobSpec::new("job", "fast");
        let out = sup.run(&spec, || Ok(42));
        assert_eq!(out.result.expect("ok"), 42);
        assert_eq!(out.attempts.len(), 1);
        assert_eq!(out.attempts[0].outcome, "ok");
    }

    #[test]
    fn transient_failures_are_retried_until_success() {
        let sup = fast_supervisor(10);
        let spec = JobSpec {
            max_retries: 3,
            ..JobSpec::new("flaky", "thermal")
        };
        let calls = AtomicU32::new(0);
        let out = sup.run(&spec, || {
            if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                Err(DarksilError::injected("transient"))
            } else {
                Ok("done")
            }
        });
        assert_eq!(out.result.expect("third attempt wins"), "done");
        assert_eq!(out.attempts.len(), 3);
        assert_eq!(out.attempts[0].outcome, "injected");
        assert_eq!(out.attempts[2].outcome, "ok");
        // Attempt numbers line up with the RunContext the job saw.
        assert_eq!(out.attempts[2].attempt, 2);
    }

    #[test]
    fn breaker_vetoed_retries_are_counted_for_operators() {
        darksil_obs::enable();
        let sup = fast_supervisor(1);
        let spec = JobSpec {
            max_retries: 3,
            ..JobSpec::new("storm", "storm-class")
        };
        // First failure trips the threshold-1 breaker; the remaining
        // retry budget is vetoed and surfaced as a counter.
        let out = sup.run(&spec, || -> Result<(), DarksilError> {
            Err(DarksilError::injected("always fails"))
        });
        assert!(out.result.is_err());
        assert_eq!(out.attempts.len(), 1, "no retries once the breaker opens");
        let trace = darksil_obs::drain();
        assert_eq!(trace.counter("engine.supervisor.breaker_open"), 1);
        assert_eq!(trace.counter("engine.supervisor.retry"), 0);
        darksil_obs::disable();
    }

    #[test]
    fn non_retryable_failures_fail_fast() {
        let sup = fast_supervisor(4);
        let spec = JobSpec {
            max_retries: 5,
            ..JobSpec::new("bad-config", "fast")
        };
        let calls = AtomicU32::new(0);
        let out = sup.run(&spec, || -> Result<(), DarksilError> {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(DarksilError::config("node 14 does not exist"))
        });
        assert!(out.result.is_err());
        assert_eq!(calls.load(Ordering::SeqCst), 1, "config errors never retry");
    }

    #[test]
    fn the_job_observes_its_attempt_number_and_deadline() {
        let sup = fast_supervisor(10);
        let spec = JobSpec {
            deadline: Some(Duration::from_secs(3600)),
            max_retries: 2,
            ..JobSpec::new("ctx", "fast")
        };
        let out = sup.run(&spec, || {
            let attempt = darksil_robust::current_attempt();
            darksil_robust::check_deadline("probe")?;
            if attempt < 2 {
                Err(DarksilError::solver(format!("stall on attempt {attempt}")))
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(out.result.expect("succeeds on attempt 2"), 2);
    }

    #[test]
    fn exhausted_retries_fail_with_the_last_errors_class() {
        let sup = fast_supervisor(10);
        let spec = JobSpec {
            max_retries: 1,
            ..JobSpec::new("hot", "thermal")
        };
        let calls = AtomicU32::new(0);
        let out = sup.run(&spec, || -> Result<(), DarksilError> {
            if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                Err(DarksilError::solver("first stall"))
            } else {
                Err(DarksilError::deadline("full-accuracy solve too slow"))
            }
        });
        let error = out.result.expect_err("retries exhausted");
        assert_eq!(error.class().label(), "deadline");
        let timeline: Vec<(u32, &str, bool)> = out
            .attempts
            .iter()
            .map(|a| (a.attempt, a.outcome.as_str(), a.backoff_ms > 0))
            .collect();
        assert_eq!(
            timeline,
            vec![(0, "solver", false), (1, "deadline", false)],
            "1 attempt + 1 retry, then the job fails"
        );
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn an_open_breaker_stops_retries_but_not_first_attempts() {
        let sup = fast_supervisor(2);
        let spec = JobSpec {
            max_retries: 5,
            ..JobSpec::new("storm", "thermal")
        };
        let calls = AtomicU32::new(0);
        let out = sup.run(&spec, || -> Result<(), DarksilError> {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(DarksilError::solver("still broken"))
        });
        assert!(out.result.is_err());
        // Threshold 2: first attempt + one retry, then the breaker opens.
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert!(sup.breaker().is_open("thermal"));
        // A different job in the tripped class fails fast on attempt 1.
        let calls2 = AtomicU32::new(0);
        let out2 = sup.run(&spec, || -> Result<(), DarksilError> {
            calls2.fetch_add(1, Ordering::SeqCst);
            Err(DarksilError::solver("same storm"))
        });
        assert!(out2.result.is_err());
        assert_eq!(calls2.load(Ordering::SeqCst), 1, "no retry while open");
        // A success closes the breaker again.
        let _ = sup.run(&spec, || Ok(()));
        assert!(!sup.breaker().is_open("thermal"));
    }

    #[test]
    fn a_deadline_cancels_a_cooperative_spin_on_every_attempt() {
        let sup = fast_supervisor(10);
        let spec = JobSpec {
            deadline: Some(Duration::from_millis(30)),
            max_retries: 1,
            ..JobSpec::new("hang", "thermal")
        };
        let started = Instant::now();
        let out = sup.run(&spec, || -> Result<(), DarksilError> {
            loop {
                darksil_robust::check_deadline("spin")?;
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let error = out.result.expect_err("a spin never succeeds");
        assert_eq!(error.class().label(), "deadline");
        let outcomes: Vec<&str> = out.attempts.iter().map(|a| a.outcome.as_str()).collect();
        assert_eq!(outcomes, vec!["deadline", "deadline"]);
        for record in &out.attempts {
            assert!(record.seconds >= 0.03, "attempt ran to its deadline");
        }
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "the spin never wedges the worker"
        );
    }

    #[test]
    fn the_attempt_hook_sees_every_transition_in_order() {
        let mut sup = fast_supervisor(10);
        let seen: Arc<Mutex<Vec<(String, AttemptTransition)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        sup.set_attempt_hook(Arc::new(move |name, transition| {
            if let Ok(mut log) = sink.lock() {
                log.push((name.to_string(), transition.clone()));
            }
        }));
        let spec = JobSpec {
            max_retries: 1,
            ..JobSpec::new("watched", "thermal")
        };
        let out = sup.run(&spec, || -> Result<(), DarksilError> {
            Err(DarksilError::deadline("slow"))
        });
        assert!(out.result.is_err());
        let log = seen.lock().expect("hook log");
        assert!(log.iter().all(|(name, _)| name == "watched"));
        let transitions: Vec<&AttemptTransition> = log.iter().map(|(_, t)| t).collect();
        assert_eq!(
            transitions,
            vec![
                &AttemptTransition::Started { attempt: 0 },
                &AttemptTransition::Backoff {
                    attempt: 0,
                    outcome: "deadline".to_string(),
                    backoff_ms: 0
                },
                &AttemptTransition::Started { attempt: 1 },
                &AttemptTransition::Finished {
                    attempt: 1,
                    outcome: "deadline".to_string()
                },
            ]
        );
    }

    #[test]
    fn transitions_serialise_with_a_kind_tag() {
        let started = AttemptTransition::Started { attempt: 0 }.to_json();
        assert_eq!(started.get("kind"), Some(&Json::Str("attempt".into())));
        let backoff = AttemptTransition::Backoff {
            attempt: 1,
            outcome: "deadline".to_string(),
            backoff_ms: 75,
        }
        .to_json();
        assert_eq!(backoff.get("backoff_ms"), Some(&Json::Num(75.0)));
        let finished = AttemptTransition::Finished {
            attempt: 2,
            outcome: "ok".to_string(),
        }
        .to_json();
        assert_eq!(finished.get("kind"), Some(&Json::Str("finished".into())));
        assert_eq!(finished.get("outcome"), Some(&Json::Str("ok".into())));
    }

    #[test]
    fn attempt_records_serialise() {
        let record = AttemptRecord {
            attempt: 1,
            outcome: "deadline".to_string(),
            error: Some("[deadline] cg iteration: wall-clock deadline exceeded".to_string()),
            backoff_ms: 75,
            seconds: 0.5,
        };
        let json = record.to_json();
        assert_eq!(json.get("outcome"), Some(&Json::Str("deadline".into())));
        assert_eq!(json.get("backoff_ms"), Some(&Json::Num(75.0)));
        assert!(json.get("error").is_some());
    }
}
