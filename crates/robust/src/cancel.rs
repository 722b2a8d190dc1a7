//! Cooperative cancellation with wall-clock deadlines.
//!
//! Long-running kernels (CG iterations, per-step policy loops) cannot
//! be interrupted from outside without leaving shared state in an
//! undefined shape, so cancellation here is *cooperative*: a
//! [`CancellationToken`] carries a cancel flag and an optional
//! deadline, and the running code polls it at iteration boundaries via
//! [`check_deadline`]. A tripped check surfaces as a [`DarksilError`]
//! of class `deadline`, which unwinds the solve through the ordinary
//! error path — no wedged workers, no poisoned locks.
//!
//! The token travels in a thread-scoped [`RunContext`] rather than as
//! an extra parameter on every solver signature: a supervisor installs
//! the context with [`scoped`] around a job, the execution engine
//! re-installs the caller's context inside its workers, and any kernel
//! anywhere below can poll [`check_deadline`] (or consult
//! [`current_attempt`]) without its API knowing about supervision at
//! all. Code running outside any scope sees an unbounded, first-attempt
//! context, so the checks are free to sprinkle unconditionally.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::DarksilError;

/// Shared cancellation state: a manual cancel flag plus an optional
/// wall-clock deadline. Cheap to clone (an `Arc` bump) and safe to
/// observe from any thread.
#[derive(Debug, Clone)]
pub struct CancellationToken {
    inner: Arc<TokenState>,
}

#[derive(Debug)]
struct TokenState {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancellationToken {
    /// A token that never expires on its own; only [`cancel`]
    /// (from any clone) trips it.
    ///
    /// [`cancel`]: Self::cancel
    #[must_use]
    pub fn unbounded() -> Self {
        Self {
            inner: Arc::new(TokenState {
                cancelled: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that expires `budget` from now.
    #[must_use]
    pub fn with_deadline(budget: Duration) -> Self {
        Self {
            inner: Arc::new(TokenState {
                cancelled: AtomicBool::new(false),
                deadline: Some(Instant::now() + budget),
            }),
        }
    }

    /// A token that expires at the absolute instant `at`. Connection
    /// handlers that amortise one wall-clock budget across several
    /// blocking reads anchor the deadline once and re-check it between
    /// reads, instead of granting a fresh budget per read.
    #[must_use]
    pub fn with_deadline_at(at: Instant) -> Self {
        Self {
            inner: Arc::new(TokenState {
                cancelled: AtomicBool::new(false),
                deadline: Some(at),
            }),
        }
    }

    /// Trips the token; every clone observes it.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether the token is tripped — manually cancelled or past its
    /// deadline.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::SeqCst) {
            return true;
        }
        self.inner
            .deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
    }

    /// Time left before the deadline; `None` for unbounded tokens.
    /// Zero once expired.
    #[must_use]
    pub fn remaining(&self) -> Option<Duration> {
        self.inner
            .deadline
            .map(|deadline| deadline.saturating_duration_since(Instant::now()))
    }

    /// Polls the token, describing the interrupted work as `what` in
    /// the error.
    ///
    /// # Errors
    ///
    /// A [`DarksilError`] of class `deadline` when the token is
    /// tripped.
    pub fn check(&self, what: &str) -> Result<(), DarksilError> {
        if !self.is_cancelled() {
            return Ok(());
        }
        if self.inner.cancelled.load(Ordering::SeqCst) {
            Err(DarksilError::deadline(format!("{what}: cancelled")))
        } else {
            Err(DarksilError::deadline(format!(
                "{what}: wall-clock deadline exceeded"
            )))
        }
    }
}

/// Everything a supervised job needs to know about how it is being
/// run: its cancellation token and which attempt (0-based) it is.
#[derive(Debug, Clone)]
pub struct RunContext {
    token: CancellationToken,
    attempt: u32,
}

impl RunContext {
    /// An unbounded, first-attempt context — what
    /// unsupervised code implicitly runs under.
    #[must_use]
    pub fn unbounded() -> Self {
        Self {
            token: CancellationToken::unbounded(),
            attempt: 0,
        }
    }

    /// A context around an existing token.
    #[must_use]
    pub fn with_token(token: CancellationToken) -> Self {
        Self { token, attempt: 0 }
    }

    /// Records the 0-based attempt number (builder style).
    #[must_use]
    pub fn attempt_number(mut self, attempt: u32) -> Self {
        self.attempt = attempt;
        self
    }

    /// The cancellation token.
    #[must_use]
    pub fn token(&self) -> &CancellationToken {
        &self.token
    }

    /// The 0-based attempt number.
    #[must_use]
    pub fn attempt(&self) -> u32 {
        self.attempt
    }
}

impl Default for RunContext {
    fn default() -> Self {
        Self::unbounded()
    }
}

thread_local! {
    static CURRENT: RefCell<Option<RunContext>> = const { RefCell::new(None) };
}

/// Restores the previously installed context on drop, so a panic
/// unwinding through [`scoped`] (caught by the engine's isolation)
/// cannot leak a stale context into the next job on the worker.
struct ScopeGuard {
    previous: Option<RunContext>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        CURRENT.with(|current| {
            *current.borrow_mut() = self.previous.take();
        });
    }
}

/// Runs `f` with `context` installed as the thread's current
/// [`RunContext`]; the previous context (if any) is restored
/// afterwards, panic or not.
pub fn scoped<T>(context: &RunContext, f: impl FnOnce() -> T) -> T {
    let previous = CURRENT.with(|current| current.borrow_mut().replace(context.clone()));
    let _guard = ScopeGuard { previous };
    f()
}

/// The thread's current [`RunContext`], or the unbounded default when
/// none is installed.
#[must_use]
pub fn run_context() -> RunContext {
    CURRENT
        .with(|current| current.borrow().clone())
        .unwrap_or_default()
}

/// Polls the current context's token, describing the interrupted work
/// as `what`. Outside any scope this is always `Ok`.
///
/// # Errors
///
/// A [`DarksilError`] of class `deadline` when the current token is
/// tripped.
pub fn check_deadline(what: &str) -> Result<(), DarksilError> {
    CURRENT.with(|current| match current.borrow().as_ref() {
        Some(context) => context.token().check(what),
        None => Ok(()),
    })
}

/// The current context's 0-based attempt number (0 outside any scope).
#[must_use]
pub fn current_attempt() -> u32 {
    CURRENT.with(|current| current.borrow().as_ref().map_or(0, RunContext::attempt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ErrorClass;

    #[test]
    fn unbounded_token_never_trips_on_its_own() {
        let token = CancellationToken::unbounded();
        assert!(!token.is_cancelled());
        assert!(token.remaining().is_none());
        token.check("idle").expect("unbounded token passes");
        token.cancel();
        assert!(token.is_cancelled());
        let err = token.check("idle").expect_err("cancelled token trips");
        assert_eq!(err.class(), ErrorClass::Deadline);
        assert!(err.to_string().contains("cancelled"), "{err}");
    }

    #[test]
    fn expired_deadline_trips_with_a_deadline_message() {
        let token = CancellationToken::with_deadline(Duration::from_millis(0));
        assert!(token.is_cancelled());
        assert_eq!(token.remaining(), Some(Duration::ZERO));
        let err = token.check("cg iteration").expect_err("expired");
        assert_eq!(err.class(), ErrorClass::Deadline);
        assert!(err.to_string().contains("deadline exceeded"), "{err}");
        assert!(err.to_string().contains("cg iteration"), "{err}");
    }

    #[test]
    fn absolute_deadlines_anchor_to_the_given_instant() {
        let expired = CancellationToken::with_deadline_at(Instant::now());
        assert!(expired.is_cancelled());
        let future = CancellationToken::with_deadline_at(Instant::now() + Duration::from_secs(60));
        assert!(!future.is_cancelled());
        assert!(future.remaining().expect("bounded") > Duration::from_secs(30));
    }

    #[test]
    fn generous_deadline_passes() {
        let token = CancellationToken::with_deadline(Duration::from_secs(3600));
        assert!(!token.is_cancelled());
        assert!(token.remaining().expect("bounded") > Duration::from_secs(3000));
        token.check("step").expect("far-future deadline passes");
    }

    #[test]
    fn cancellation_is_shared_across_clones_and_threads() {
        let token = CancellationToken::unbounded();
        let clone = token.clone();
        std::thread::spawn(move || clone.cancel())
            .join()
            .expect("cancelling thread");
        assert!(token.is_cancelled());
    }

    #[test]
    fn scoped_context_is_visible_and_restored() {
        assert!(check_deadline("outside").is_ok());
        assert_eq!(current_attempt(), 0);

        let context = RunContext::with_token(CancellationToken::with_deadline(Duration::ZERO))
            .attempt_number(3);
        scoped(&context, || {
            assert_eq!(current_attempt(), 3);
            assert!(check_deadline("inside").is_err());
            // Nested scopes shadow and then restore the outer one.
            let inner = RunContext::unbounded();
            scoped(&inner, || {
                assert_eq!(current_attempt(), 0);
                assert!(check_deadline("nested").is_ok());
            });
            assert_eq!(current_attempt(), 3);
            assert!(check_deadline("inside again").is_err());
        });
        assert_eq!(current_attempt(), 0);
        assert!(check_deadline("outside again").is_ok());
    }

    #[test]
    fn scoped_restores_after_a_panic() {
        let context =
            RunContext::with_token(CancellationToken::with_deadline(Duration::from_millis(0)));
        let unwound = std::panic::catch_unwind(|| {
            scoped(&context, || panic!("job blew up"));
        });
        assert!(unwound.is_err());
        // The expired context did not leak out of the scope.
        assert!(check_deadline("after panic").is_ok());
    }

    #[test]
    fn check_deadline_observes_the_installed_token() {
        let context =
            RunContext::with_token(CancellationToken::with_deadline(Duration::from_millis(0)));
        let err = scoped(&context, || check_deadline("loop step"))
            .expect_err("expired context trips the free function");
        assert_eq!(err.class(), ErrorClass::Deadline);
    }
}
