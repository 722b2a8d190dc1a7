//! `darksil-engine` — the workspace's parallel execution subsystem.
//!
//! Five pieces, all std-only (the workspace is dependency-free by
//! design):
//!
//! - [`ThreadPool`], a fixed-size worker pool over `std::thread` with a
//!   `Mutex`/`Condvar` job queue and `mpsc` result channels. Every job
//!   runs under `catch_unwind`, so a panicking job surfaces as a
//!   classified [`DarksilError`](darksil_robust::DarksilError) on its
//!   [`JobHandle`] instead of taking a worker (or the process) down.
//! - [`Engine::par_map`], a deterministic fan-out primitive: results
//!   come back **in submission order** regardless of completion order,
//!   so `--jobs 4` output is byte-identical to `--jobs 1`. With one job
//!   the pool is bypassed entirely — jobs run inline on the caller's
//!   thread, which keeps serial debugging trivial.
//! - [`ResultCache`], a content-addressed result cache. Jobs are keyed
//!   by a stable FNV-1a hash of their scenario inputs plus a
//!   code-version salt; hits are served from an in-memory map backed by
//!   an on-disk store (default `results/.cache/`) written via
//!   `darksil-json`. Corrupt or stale entries fall back to
//!   recomputation with a typed
//!   [`DarksilError`](darksil_robust::DarksilError) diagnostic
//!   (`cache`/`io` class) rather than failing the run.
//! - [`Supervisor`], the job-supervision layer: per-attempt wall-clock
//!   deadlines delivered through `darksil-robust`'s scoped
//!   `RunContext`, retries with seeded jittered exponential backoff
//!   ([`BackoffPolicy`]), a per-class [`CircuitBreaker`] against retry
//!   storms. A job that exhausts its retries fails with its last
//!   error's class. Every attempt is journalled as an [`AttemptRecord`].
//! - [`Journal`], the crash-safe run journal: per-job lifecycle state
//!   (`pending → running → done | failed`) plus attempt
//!   timelines, rewritten atomically on every transition. `repro
//!   --resume`, the sweep runner and the `serve` daemon checkpoint
//!   through it.
//!
//! # Worker-count resolution
//!
//! Drivers pick the parallelism once via [`set_default_jobs`] (the
//! `--jobs` flag); otherwise the `DARKSIL_JOBS` environment variable
//! applies, and failing that [`std::thread::available_parallelism`].
//! [`Engine::auto`] reads the resolved value.
//!
//! # Example
//!
//! Fan a batch out over four workers and collect the results in
//! submission order:
//!
//! ```
//! use darksil_engine::Engine;
//! use darksil_robust::DarksilError;
//!
//! # fn main() -> Result<(), DarksilError> {
//! let engine = Engine::new(4);
//! let squares = engine.try_par_map((0_u64..8).collect(), |i| Ok(i * i))?;
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! # Ok(())
//! # }
//! ```
//!
//! # Observability
//!
//! When tracing is on (`darksil_obs::enable()`, e.g. via
//! `repro --profile`), the engine records `engine.par_map` /
//! `engine.job` / `engine.supervisor.attempt` spans, per-job
//! `engine.queue_wait_s` observations, and
//! `engine.cache.{hit,miss,recovered,store}` plus
//! `engine.supervisor.{retry,breaker_open}` counters. Worker threads
//! inherit the submitting thread's open span, so job spans nest under
//! the fan-out that scheduled them. Disabled, every probe is a single
//! relaxed atomic load.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod cache;
mod journal;
mod par_map;
mod pool;
mod supervisor;

pub use cache::{
    clear_dir, evict_corrupt, scan_dir, stable_hash, CacheKey, CacheOutcome, EntryCondition,
    EntryReport, ResultCache, DEFAULT_CACHE_DIR,
};
pub use journal::{
    ArtefactState, Journal, JournalCounts, JournalEntry, DEFAULT_JOURNAL_PATH, JOURNAL_SCHEMA,
};
pub use par_map::Engine;
pub use pool::{JobHandle, ThreadPool};
pub use supervisor::{
    AttemptHook, AttemptRecord, AttemptTransition, BackoffPolicy, CircuitBreaker, JobSpec,
    Supervised, Supervisor,
};

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide default worker count; 0 means "not configured".
static DEFAULT_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default worker count used by [`Engine::auto`].
///
/// Passing 0 clears the override, restoring the `DARKSIL_JOBS` /
/// `available_parallelism` fallback chain.
pub fn set_default_jobs(jobs: usize) {
    DEFAULT_JOBS.store(jobs, Ordering::SeqCst);
}

/// Resolves the default worker count.
///
/// Precedence, highest first:
///
/// 1. the [`set_default_jobs`] override — the CLI's `--jobs` flag lands
///    here, so `--jobs` always beats the environment;
/// 2. a positive integer `DARKSIL_JOBS` environment variable;
/// 3. [`std::thread::available_parallelism`], else 1.
///
/// A `DARKSIL_JOBS` value that is set but not a positive integer is
/// ignored, but no longer silently: a warning naming the bad value is
/// printed to stderr once per process.
#[must_use]
pub fn default_jobs() -> usize {
    let configured = DEFAULT_JOBS.load(Ordering::SeqCst);
    if configured > 0 {
        return configured;
    }
    if let Ok(value) = std::env::var("DARKSIL_JOBS") {
        match value.trim().parse::<usize>() {
            Ok(n) if n > 0 => return n,
            _ => {
                static WARNED: std::sync::Once = std::sync::Once::new();
                WARNED.call_once(|| {
                    eprintln!(
                        "warning: ignoring DARKSIL_JOBS={value:?}: \
                         expected a positive integer; falling back to \
                         available parallelism (use --jobs to override)"
                    );
                });
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Extracts a human-readable message from a panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn panic_messages_are_extracted() {
        let boxed: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_message(boxed.as_ref()), "static str");
        let boxed: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(boxed.as_ref()), "owned");
        let boxed: Box<dyn std::any::Any + Send> = Box::new(42_u32);
        assert_eq!(panic_message(boxed.as_ref()), "opaque panic payload");
    }
}
