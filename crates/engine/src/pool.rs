//! A fixed-size worker thread pool with panic isolation per job.
//!
//! Workers block on a `Condvar` over a shared `Mutex<VecDeque>` job
//! queue; each submitted job reports back through its own `mpsc`
//! channel. A panicking job is caught inside the worker, converted into
//! a [`DarksilError`] of class `internal`, and delivered on the job's
//! [`JobHandle`] — the worker itself survives and keeps serving the
//! queue.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

use darksil_robust::DarksilError;

/// A queued unit of work, already wrapped so it cannot unwind.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Queue state guarded by the pool mutex.
struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

/// Shared between the pool handle and its workers.
struct Shared {
    state: Mutex<PoolState>,
    work_ready: Condvar,
}

/// A fixed-size pool of worker threads for `'static` jobs.
///
/// Dropping the pool drains no further work: pending jobs still in the
/// queue are executed before the workers exit, so every issued
/// [`JobHandle`] resolves.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawns a pool with `workers` threads (at least one).
    ///
    /// # Errors
    ///
    /// Returns a [`DarksilError`] of class `internal` if the OS refuses
    /// to spawn a thread.
    pub fn new(workers: usize) -> Result<Self, DarksilError> {
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let mut handles = Vec::with_capacity(workers.max(1));
        for index in 0..workers.max(1) {
            let shared = Arc::clone(&shared);
            let handle = thread::Builder::new()
                .name(format!("darksil-worker-{index}"))
                .spawn(move || worker_loop(&shared))
                .map_err(|e| DarksilError::internal(format!("cannot spawn worker: {e}")))?;
            handles.push(handle);
        }
        Ok(Self {
            shared,
            workers: handles,
        })
    }

    /// The number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues `job` and returns a handle to its eventual result.
    ///
    /// A panic inside `job` is isolated: the handle resolves to a
    /// [`DarksilError`] of class `internal` carrying the panic message.
    pub fn submit<T, F>(&self, job: F) -> JobHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> Result<T, DarksilError> + Send + 'static,
    {
        let (tx, rx) = mpsc::channel();
        // Capture the submitter's RunContext so a supervised caller's
        // deadline and attempt number travel with the job onto the worker;
        // the trace parent rides along so the job's spans hang off the
        // submitter's open span.
        let context = darksil_robust::run_context();
        let trace_parent = darksil_obs::current_span();
        // Each submission is its own event-ordering fork, captured on
        // the submitting thread; the worker enters the (single) child
        // branch so the job's events order at the submission point.
        let fork = darksil_obs::event_fork();
        let submitted = std::time::Instant::now();
        let wrapped: Job = Box::new(move || {
            let _trace_scope = darksil_obs::parent_scope(trace_parent);
            darksil_obs::observe_hist("engine.queue_wait_s", submitted.elapsed().as_secs_f64());
            let outcome = {
                // Dropped (flushing the event buffer) before the result
                // is sent, so a join can never observe missing events.
                let _event_scope = fork.child(0);
                darksil_robust::scoped(&context, || {
                    let _job_span = darksil_obs::span("engine.pool.job");
                    match catch_unwind(AssertUnwindSafe(job)) {
                        Ok(result) => result,
                        Err(payload) => Err(DarksilError::internal(format!(
                            "job panicked: {}",
                            crate::panic_message(payload.as_ref())
                        ))),
                    }
                })
            };
            // The receiver may have been dropped; nothing to do then.
            let _ = tx.send(outcome);
        });
        if let Ok(mut state) = self.shared.state.lock() {
            state.queue.push_back(wrapped);
            self.shared.work_ready.notify_one();
        }
        JobHandle { rx }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        if let Ok(mut state) = self.shared.state.lock() {
            state.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Worker body: pop jobs until the queue is empty *and* shutdown is
/// requested. Jobs never unwind (they are wrapped at submission).
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let Ok(mut state) = shared.state.lock() else {
                return;
            };
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break Some(job);
                }
                if state.shutdown {
                    break None;
                }
                state = match shared.work_ready.wait(state) {
                    Ok(guard) => guard,
                    Err(_) => return,
                };
            }
        };
        match job {
            Some(job) => job(),
            None => return,
        }
    }
}

/// The pending result of one submitted job.
pub struct JobHandle<T> {
    rx: mpsc::Receiver<Result<T, DarksilError>>,
}

impl<T> JobHandle<T> {
    /// Blocks until the job finishes and returns its result.
    ///
    /// # Errors
    ///
    /// Propagates the job's own error; a vanished worker yields a
    /// [`DarksilError`] of class `internal`.
    pub fn join(self) -> Result<T, DarksilError> {
        self.rx.recv().unwrap_or_else(|_| {
            Err(DarksilError::internal(
                "worker dropped the job without reporting a result",
            ))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_run_and_results_match_handles() {
        let pool = ThreadPool::new(3).expect("spawn pool");
        assert_eq!(pool.workers(), 3);
        let handles: Vec<JobHandle<usize>> =
            (0..20).map(|i| pool.submit(move || Ok(i * i))).collect();
        for (i, handle) in handles.into_iter().enumerate() {
            assert_eq!(handle.join().expect("job succeeds"), i * i);
        }
    }

    #[test]
    fn a_panicking_job_does_not_kill_its_worker() {
        let pool = ThreadPool::new(1).expect("spawn pool");
        let bad: JobHandle<usize> = pool.submit(|| panic!("deliberate"));
        let good = pool.submit(|| Ok(7_usize));
        let err = bad.join().expect_err("panic surfaces as an error");
        assert_eq!(err.class(), darksil_robust::ErrorClass::Internal);
        assert!(err.to_string().contains("deliberate"), "{err}");
        // The single worker survived the panic and served the next job.
        assert_eq!(good.join().expect("worker survived"), 7);
    }

    #[test]
    fn pending_jobs_finish_before_shutdown() {
        let pool = ThreadPool::new(2).expect("spawn pool");
        let handles: Vec<JobHandle<u64>> = (0..50)
            .map(|i| {
                pool.submit(move || {
                    std::thread::sleep(std::time::Duration::from_micros(100));
                    Ok(i)
                })
            })
            .collect();
        drop(pool);
        for (i, handle) in handles.into_iter().enumerate() {
            assert_eq!(handle.join().expect("job survived shutdown"), i as u64);
        }
    }

    #[test]
    fn zero_workers_is_clamped_to_one() {
        let pool = ThreadPool::new(0).expect("spawn pool");
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.submit(|| Ok(1_u8)).join().expect("runs"), 1);
    }
}
