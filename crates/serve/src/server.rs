//! The daemon: listener, connection handling, routing, job execution,
//! drain, and crash resume.
//!
//! # Request lifecycle
//!
//! ```text
//! POST /v1/jobs ── admission (dedup → quota → cap) ──► queued
//!                                                        │ pool worker
//!                                                        ▼
//!                                            running ──► done | failed
//! ```
//!
//! Every admitted job is journalled (`state/journal.json`, the
//! darksil-bench [`Journal`]) and its request spooled to
//! `state/jobs/<digest>.json` *before* the submission is acknowledged,
//! and its artefact is written to `state/artefacts/<digest>.json`
//! *before* the `done` transition — so a SIGKILL at any instant leaves
//! either a resumable journal entry or a completed artefact, never a
//! half-acknowledged job. On restart, [`Server::bind`] reloads the
//! journal, re-queues `pending`/`running` entries from their spool
//! files, and serves completed digests from disk; the content-addressed
//! [`ResultCache`] makes the re-run cost one cache hit when the solve
//! finished before the kill.
//!
//! # Backpressure
//!
//! Admission is a single atomic decision in the [`Registry`]: dedup by
//! content digest first (a duplicate never consumes a slot), then the
//! per-tenant quota, then the global in-flight cap. Rejections are
//! `429` with `Retry-After` and a typed `capacity` error — the daemon
//! never queues unboundedly. Connections themselves are capped, and
//! request reads are bounded both per-`read(2)` (socket timeout) and
//! end-to-end (a [`CancellationToken`] anchored at accept time), so a
//! slowloris peer costs one connection slot for one deadline, nothing
//! more.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use darksil_engine::{ArtefactState, Journal};
use darksil_engine::{BackoffPolicy, JobSpec, ResultCache, Supervisor, ThreadPool};
use darksil_json::{FromJson, Json, ObjReader, ToJson};
use darksil_obs::{EventRecord, EventStream};
use darksil_robust::{CancellationToken, DarksilError, Fault, FaultPlan};
use darksil_scenario::{run_scenario, Scenario, ScenarioError};

use crate::http::{self, Parsed, Request, Response};
use crate::registry::{Admission, JobRecord, JobState, Registry, WatchStep};
use crate::{report, signal};

/// Salt for the job-identity digest and the result cache, so served
/// artefacts never collide with batch-mode cache entries.
pub const SERVE_CACHE_SALT: &str = "darksil-serve-v1";

/// Spool-file schema marker.
pub const SPOOL_SCHEMA: &str = "darksil-serve-job-v1";

/// Hard cap on concurrently open connections.
const MAX_CONNECTIONS: usize = 64;

/// Heartbeat interval for the `/v1/jobs/{digest}/watch` stream: an
/// idle long-poll emits a `{"heartbeat": true}` line this often, which
/// doubles as the disconnect probe (a gone client fails the write).
const WATCH_HEARTBEAT: Duration = Duration::from_millis(1000);

/// Upper bound on one watch stream's lifetime, so an abandoned-but-
/// connected watcher cannot pin a handler thread forever.
const WATCH_MAX_LIFETIME: Duration = Duration::from_secs(600);

/// Child index reserved for the events-replay scope. No engine fan-out
/// ever submits a job with this index, so replay events are
/// distinguishable from any event a concurrently running pool job
/// might record while the recorder is on.
const REPLAY_CHILD: u64 = u64::MAX;

/// Serialises deterministic event replays: the obs recorder is
/// process-global and drained destructively, so one replay at a time.
static REPLAY_LOCK: Mutex<()> = Mutex::new(());

/// Everything `darksil serve` configures.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:8787`. Port 0 picks a free one.
    pub addr: String,
    /// Worker threads for the solve pool; 0 resolves via
    /// [`darksil_engine::default_jobs`].
    pub jobs: usize,
    /// Global cap on jobs queued or running.
    pub max_inflight: usize,
    /// Per-tenant cap on jobs queued or running.
    pub tenant_quota: usize,
    /// Durable state directory (journal, spool, artefacts, cache).
    pub state_dir: PathBuf,
    /// Per-`read(2)`/`write(2)` socket timeout.
    pub io_timeout: Duration,
    /// End-to-end budget for reading one request.
    pub request_deadline: Duration,
    /// Per-attempt wall-clock budget for a solve.
    pub job_deadline: Duration,
    /// How long a drain waits for in-flight jobs before checkpointing.
    pub drain_grace: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8787".to_string(),
            jobs: 0,
            max_inflight: 64,
            tenant_quota: 8,
            state_dir: PathBuf::from("state"),
            io_timeout: Duration::from_millis(2000),
            request_deadline: Duration::from_secs(10),
            job_deadline: Duration::from_secs(30),
            drain_grace: Duration::from_secs(30),
        }
    }
}

/// What a completed drain reports.
#[derive(Debug, Clone, Copy)]
pub struct DrainSummary {
    /// Whether every in-flight job finished within the grace period.
    pub drained: bool,
    /// Journal entries still pending/running at exit (0 when drained).
    pub unfinished: usize,
}

/// Fault-injection spec accepted on submissions; maps onto the
/// darksil-robust [`FaultPlan`]. All fields optional; defaults inject
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Seed for deterministic fault placement.
    pub seed: u64,
    /// Hang every attempt until its deadline.
    pub hang: bool,
    /// Sleep this long at the start of every attempt.
    pub slow_ms: u64,
    /// Fail this many initial attempts with a transient error.
    pub transient: u32,
    /// Poison power telemetry with a NaN (a non-retryable failure).
    pub nan: bool,
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self {
            seed: 1,
            hang: false,
            slow_ms: 0,
            transient: 0,
            nan: false,
        }
    }
}

impl FaultSpec {
    fn from_json(v: &Json) -> Result<Self, darksil_json::JsonError> {
        let mut reader = ObjReader::new(v, "faults")?;
        let spec = Self {
            seed: reader.opt_or("seed", 1)?,
            hang: reader.opt_or("hang", false)?,
            slow_ms: reader.opt_or("slow_ms", 0)?,
            transient: reader.opt_or("transient", 0)?,
            nan: reader.opt_or("nan", false)?,
        };
        reader.finish()?;
        Ok(spec)
    }

    /// Canonical JSON with every field explicit, so submissions that
    /// spell defaults differently produce the same job digest.
    fn canonical_json(&self) -> Json {
        Json::Obj(vec![
            ("seed".to_string(), self.seed.to_json()),
            ("hang".to_string(), Json::Bool(self.hang)),
            ("slow_ms".to_string(), self.slow_ms.to_json()),
            ("transient".to_string(), self.transient.to_json()),
            ("nan".to_string(), Json::Bool(self.nan)),
        ])
    }

    fn plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new(self.seed);
        if self.slow_ms > 0 {
            plan = plan.with(Fault::SlowJob {
                millis: self.slow_ms,
            });
        }
        if self.transient > 0 {
            plan = plan.with(Fault::TransientThenSucceed {
                failures: self.transient,
            });
        }
        if self.hang {
            plan = plan.with(Fault::Hang);
        }
        if self.nan {
            plan = plan.with(Fault::PowerNan { period: 1 });
        }
        plan
    }
}

/// The durable request record under `state/jobs/<digest>.json`.
#[derive(Debug, Clone)]
struct SpoolJob {
    digest: String,
    tenants: Vec<String>,
    scenario: Scenario,
    faults: FaultSpec,
}

impl SpoolJob {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".to_string(), Json::Str(SPOOL_SCHEMA.to_string())),
            ("digest".to_string(), Json::Str(self.digest.clone())),
            (
                "tenants".to_string(),
                Json::Arr(self.tenants.iter().cloned().map(Json::Str).collect()),
            ),
            ("scenario".to_string(), self.scenario.to_json()),
            ("faults".to_string(), self.faults.canonical_json()),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, DarksilError> {
        let bad = |msg: String| DarksilError::config(msg).context("spool file");
        let schema = v.get("schema").and_then(Json::as_str);
        if schema != Some(SPOOL_SCHEMA) {
            return Err(bad(format!(
                "unexpected spool schema {:?}",
                schema.unwrap_or("<missing>")
            )));
        }
        let digest = v
            .get("digest")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing digest".to_string()))?
            .to_string();
        let tenants = match v.get("tenants") {
            Some(Json::Arr(items)) => items
                .iter()
                .filter_map(Json::as_str)
                .map(ToString::to_string)
                .collect(),
            _ => Vec::new(),
        };
        let scenario_json = v
            .get("scenario")
            .ok_or_else(|| bad("missing scenario".to_string()))?;
        let scenario = Scenario::from_json(scenario_json).map_err(|e| bad(format!("{e}")))?;
        let faults = match v.get("faults") {
            Some(value) => FaultSpec::from_json(value).map_err(|e| bad(format!("{e}")))?,
            None => FaultSpec::default(),
        };
        Ok(Self {
            digest,
            tenants,
            scenario,
            faults,
        })
    }
}

struct ServerState {
    config: ServeConfig,
    registry: Arc<Registry>,
    journal: Journal,
    cache: ResultCache,
    supervisor: Supervisor,
    /// `None` after drain has claimed the pool (to drop or abandon it).
    pool: Mutex<Option<ThreadPool>>,
    draining: AtomicBool,
    connections: AtomicUsize,
}

impl ServerState {
    fn spool_path(&self, digest: &str) -> PathBuf {
        self.config
            .state_dir
            .join("jobs")
            .join(format!("{digest}.json"))
    }

    fn artefact_path(&self, digest: &str) -> PathBuf {
        self.config
            .state_dir
            .join("artefacts")
            .join(format!("{digest}.json"))
    }

    fn events_path(&self, digest: &str) -> PathBuf {
        self.config
            .state_dir
            .join("events")
            .join(format!("{digest}.jsonl"))
    }

    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || signal::termination_requested()
    }
}

/// A bound, resumed, but not yet accepting daemon. [`Server::run`]
/// drives the accept loop until drain.
pub struct Server {
    state: Arc<ServerState>,
    listener: TcpListener,
}

fn io_error(what: &str, error: &std::io::Error) -> DarksilError {
    DarksilError::io(format!("{what}: {error}"))
}

fn atomic_write(path: &std::path::Path, bytes: &[u8]) -> Result<(), DarksilError> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| io_error(&format!("cannot create {}", parent.display()), &e))?;
    }
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, bytes)
        .map_err(|e| io_error(&format!("cannot write {}", tmp.display()), &e))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| io_error(&format!("cannot commit {}", path.display()), &e))?;
    Ok(())
}

fn journal_fingerprint() -> Json {
    Json::Obj(vec![
        (
            "service".to_string(),
            Json::Str("darksil-serve".to_string()),
        ),
        ("schema".to_string(), Json::Num(1.0)),
    ])
}

impl Server {
    /// Binds the listener, opens (or resumes) the durable state, and
    /// re-queues unfinished jobs from a previous incarnation.
    ///
    /// # Errors
    ///
    /// A [`DarksilError`] when the address cannot be bound, the state
    /// directory is unusable, or an existing journal belongs to a
    /// different service.
    pub fn bind(config: ServeConfig) -> Result<Self, DarksilError> {
        signal::install();
        let state_dir = &config.state_dir;
        for sub in ["jobs", "artefacts"] {
            let dir = state_dir.join(sub);
            std::fs::create_dir_all(&dir)
                .map_err(|e| io_error(&format!("cannot create {}", dir.display()), &e))?;
        }
        let journal_path = state_dir.join("journal.json");
        let journal = if journal_path.exists() {
            let journal = Journal::load(&journal_path)?;
            if journal.config() != &journal_fingerprint() {
                return Err(DarksilError::config(format!(
                    "journal {} belongs to a different service configuration",
                    journal_path.display()
                )));
            }
            journal
        } else {
            let journal = Journal::create(&journal_path, journal_fingerprint(), &[]);
            journal.save()?;
            journal
        };
        let cache = ResultCache::open(state_dir.join(".cache"), SERVE_CACHE_SALT);
        let workers = if config.jobs == 0 {
            darksil_engine::default_jobs()
        } else {
            config.jobs
        };
        let pool = ThreadPool::new(workers)?;
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| io_error(&format!("cannot bind {}", config.addr), &e))?;
        // The daemon keeps live telemetry on for its whole life; the
        // registry survives drains and is scraped via `GET /metrics`.
        darksil_obs::metrics_enable();
        let registry = Arc::new(Registry::new(config.max_inflight, config.tenant_quota));
        let mut supervisor = Supervisor::new(BackoffPolicy::default(), 4);
        // Relay attempt/backoff transitions into the job's watch log
        // while the job is still running — `/v1/jobs/{digest}/watch`
        // streams them as they happen.
        let hook_registry = Arc::clone(&registry);
        supervisor.set_attempt_hook(Arc::new(move |name, transition| {
            if let Some(digest) = name.strip_prefix("serve:") {
                hook_registry.note_transition(digest, transition.to_json());
            }
        }));
        let state = Arc::new(ServerState {
            config,
            registry,
            journal,
            cache,
            supervisor,
            pool: Mutex::new(Some(pool)),
            draining: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
        });
        let resumed = resume(&state)?;
        if resumed > 0 {
            darksil_obs::counter("serve.resume.requeued", resumed as u64);
            darksil_obs::counter_add("darksil_serve_resume_requeued_total", &[], resumed as u64);
        }
        Ok(Self { state, listener })
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// A [`DarksilError`] of class `io` when the socket is gone.
    pub fn local_addr(&self) -> Result<SocketAddr, DarksilError> {
        self.listener
            .local_addr()
            .map_err(|e| io_error("cannot read local address", &e))
    }

    /// Accepts connections until SIGTERM/SIGINT or `POST /v1/drain`,
    /// then drains: stop accepting, wait up to the grace period for
    /// in-flight jobs, checkpoint the rest in the journal.
    ///
    /// # Errors
    ///
    /// A [`DarksilError`] of class `io` when the final journal
    /// snapshot cannot be written.
    pub fn run(self) -> Result<DrainSummary, DarksilError> {
        let Self { state, listener } = self;
        listener
            .set_nonblocking(true)
            .map_err(|e| io_error("cannot configure listener", &e))?;
        while !state.is_draining() {
            match listener.accept() {
                Ok((stream, _peer)) => dispatch(&state, stream),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }

        // Draining: keep the listener open through the grace period so
        // observability stays live — `/healthz` answers 503
        // `{"draining": true}` for load balancers, while `/v1/stats`
        // and `/metrics` serve a final scrape. Submissions are already
        // rejected with 503 by the router, so accepting here cannot
        // extend the drain.
        let grace_deadline = Instant::now() + state.config.drain_grace;
        let mut drained = state.registry.inflight() == 0;
        while !drained && Instant::now() < grace_deadline {
            match listener.accept() {
                Ok((stream, _peer)) => dispatch(&state, stream),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
            drained = state.registry.inflight() == 0;
        }
        drop(listener);
        // Give in-flight connection handlers a moment to write their
        // final bytes before we tear down.
        let connection_deadline = Instant::now() + Duration::from_secs(2);
        while state.connections.load(Ordering::SeqCst) > 0 && Instant::now() < connection_deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let pool = match state.pool.lock() {
            Ok(mut slot) => slot.take(),
            Err(poisoned) => poisoned.into_inner().take(),
        };
        if drained {
            // Idle pool: dropping it joins the workers cleanly.
            drop(pool);
        } else if let Some(pool) = pool {
            // Jobs are still queued or running. Dropping the pool
            // would block until they all finish, defeating the grace
            // period — abandon it instead; the journal has the
            // survivors as pending/running, and the next incarnation
            // re-queues them.
            std::mem::forget(pool);
        }
        state.journal.save()?;
        let unfinished = state.journal.counts().unfinished;
        Ok(DrainSummary {
            drained,
            unfinished,
        })
    }
}

/// Rebuilds the registry from the journal and re-queues unfinished
/// jobs. Completed and failed entries are restored as terminal
/// records; `running` entries (interrupted by a crash) are reset to
/// `pending` and re-executed from their spool files.
fn resume(state: &Arc<ServerState>) -> Result<usize, DarksilError> {
    let mut requeued = 0;
    for entry in state.journal.entries() {
        let digest = entry.name.clone();
        let tenants = read_spool(state, &digest)
            .map(|job| job.tenants)
            .unwrap_or_default();
        match entry.state {
            ArtefactState::Done => {
                state.registry.restore(JobRecord {
                    digest,
                    tenants,
                    state: JobState::Done,
                    error: None,
                    attempts: entry.attempts.clone(),
                    seconds: entry.seconds,
                    cache: None,
                    transitions: Vec::new(),
                });
            }
            ArtefactState::Failed => {
                state.registry.restore(JobRecord {
                    digest,
                    tenants,
                    state: JobState::Failed,
                    error: entry.error.clone(),
                    attempts: entry.attempts.clone(),
                    seconds: entry.seconds,
                    cache: None,
                    transitions: Vec::new(),
                });
            }
            ArtefactState::Pending | ArtefactState::Running => {
                state.journal.transition(&digest, ArtefactState::Pending)?;
                state.registry.restore(JobRecord {
                    digest: digest.clone(),
                    tenants,
                    state: JobState::Queued,
                    error: None,
                    attempts: Vec::new(),
                    seconds: 0.0,
                    cache: None,
                    transitions: Vec::new(),
                });
                enqueue(state, &digest);
                requeued += 1;
            }
        }
    }
    Ok(requeued)
}

fn read_spool(state: &ServerState, digest: &str) -> Result<SpoolJob, DarksilError> {
    let path = state.spool_path(digest);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| io_error(&format!("cannot read spool {}", path.display()), &e))?;
    let doc = darksil_json::parse(&text)
        .map_err(|e| DarksilError::config(format!("spool {}: {e}", path.display())))?;
    SpoolJob::from_json(&doc)
}

/// Hands a job to the solve pool (fire-and-forget; results land in
/// the registry and journal).
fn enqueue(state: &Arc<ServerState>, digest: &str) {
    let worker_state = Arc::clone(state);
    let worker_digest = digest.to_string();
    let pool = match state.pool.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    if let Some(pool) = pool.as_ref() {
        drop(pool.submit(move || {
            run_job(&worker_state, &worker_digest);
            Ok(())
        }));
    }
}

/// Executes one journalled job end-to-end on a pool worker.
fn run_job(state: &Arc<ServerState>, digest: &str) {
    let _span = darksil_obs::span("serve.job");
    state.registry.set_running(digest);
    if state
        .journal
        .transition(digest, ArtefactState::Running)
        .is_err()
    {
        // The journal directory is gone; still run the job so the
        // client gets an answer — resume safety is already lost.
        darksil_obs::counter("serve.journal.write_failed", 1);
        darksil_obs::counter_add("darksil_serve_journal_write_failures_total", &[], 1);
    }
    let started = Instant::now();
    let job = match read_spool(state, digest) {
        Ok(job) => job,
        Err(error) => {
            finish_job(state, digest, Err(error), Vec::new(), started, None);
            return;
        }
    };
    let plan = job.faults.plan();
    let spec = JobSpec {
        name: format!("serve:{digest}"),
        class: "serve.scenario".to_string(),
        deadline: Some(state.config.job_deadline),
        max_retries: 2,
    };
    let scenario = job.scenario;
    let scenario_json = scenario.to_json();
    let nan = job.faults.nan;
    let cache_label: Mutex<Option<&'static str>> = Mutex::new(None);
    let supervised = state.supervisor.run(&spec, || {
        plan.inject_job_faults("serve scenario job")?;
        if nan {
            let mut probe = [1.0_f64; 4];
            plan.corrupt_power(1, &mut probe);
            if probe.iter().any(|p| !p.is_finite()) {
                return Err(DarksilError::non_finite("injected NaN in power telemetry"));
            }
        }
        let key = state.cache.key("scenario", &scenario_json);
        let (payload, outcome) = state.cache.get_or_compute(&key, || {
            run_scenario(&scenario)
                .map(|report| report.to_json())
                .map_err(|e| scenario_error(&e))
        })?;
        if let Ok(mut slot) = cache_label.lock() {
            *slot = Some(outcome.label());
        }
        Ok(payload)
    });
    let attempts: Vec<Json> = supervised.attempts.iter().map(ToJson::to_json).collect();
    let label = cache_label
        .lock()
        .ok()
        .and_then(|slot| *slot)
        .map(ToString::to_string);
    if let Some(outcome) = &label {
        darksil_obs::counter_add(
            "darksil_serve_solve_cache_total",
            &[("outcome", outcome)],
            1,
        );
    }
    finish_job(state, digest, supervised.result, attempts, started, label);
}

fn finish_job(
    state: &ServerState,
    digest: &str,
    result: Result<Json, DarksilError>,
    attempts: Vec<Json>,
    started: Instant,
    cache: Option<String>,
) {
    let seconds = started.elapsed().as_secs_f64();
    let tenant = state
        .registry
        .get(digest)
        .and_then(|record| record.tenants.first().cloned())
        .unwrap_or_else(|| "unknown".to_string());
    darksil_obs::observe_rolling(
        "darksil_serve_solve_seconds",
        &[("tenant", &tenant)],
        seconds,
    );
    let outcome = result.and_then(|payload| {
        let mut bytes = payload.pretty().into_bytes();
        bytes.push(b'\n');
        // The artefact reaches disk before the journal marks the job
        // complete: a crash between the two re-runs the job, which is
        // idempotent; the reverse order could acknowledge an artefact
        // that does not exist.
        atomic_write(&state.artefact_path(digest), &bytes)?;
        Ok(())
    });
    match outcome {
        Ok(()) => {
            darksil_obs::counter("serve.job.done", 1);
            darksil_obs::counter_add(
                "darksil_serve_jobs_total",
                &[("outcome", "done"), ("tenant", &tenant)],
                1,
            );
            if state
                .journal
                .record_finished(digest, ArtefactState::Done, None, attempts.clone(), seconds)
                .is_err()
            {
                darksil_obs::counter("serve.journal.write_failed", 1);
                darksil_obs::counter_add("darksil_serve_journal_write_failures_total", &[], 1);
            }
            state
                .registry
                .finish(digest, JobState::Done, None, attempts, seconds, cache);
        }
        Err(error) => {
            darksil_obs::counter("serve.job.failed", 1);
            darksil_obs::counter_add(
                "darksil_serve_jobs_total",
                &[("outcome", "failed"), ("tenant", &tenant)],
                1,
            );
            let message = error.to_string();
            if state
                .journal
                .record_finished(
                    digest,
                    ArtefactState::Failed,
                    Some(message.clone()),
                    attempts.clone(),
                    seconds,
                )
                .is_err()
            {
                darksil_obs::counter("serve.journal.write_failed", 1);
                darksil_obs::counter_add("darksil_serve_journal_write_failures_total", &[], 1);
            }
            state.registry.finish(
                digest,
                JobState::Failed,
                Some(message),
                attempts,
                seconds,
                cache,
            );
        }
    }
}

fn scenario_error(error: &ScenarioError) -> DarksilError {
    match error {
        ScenarioError::Parse(e) => DarksilError::config(format!("scenario: {e}")),
        ScenarioError::Invalid(msg) => DarksilError::config(format!("scenario: {msg}")),
        ScenarioError::Run(e) => DarksilError::solver(format!("scenario run failed: {e}")),
    }
}

/// Decrements the connection counter even if a handler panics.
struct ConnectionGuard<'a>(&'a AtomicUsize);

impl Drop for ConnectionGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn dispatch(state: &Arc<ServerState>, stream: TcpStream) {
    let active = state.connections.fetch_add(1, Ordering::SeqCst);
    if active >= MAX_CONNECTIONS {
        state.connections.fetch_sub(1, Ordering::SeqCst);
        let error = DarksilError::capacity("connection limit reached");
        respond(
            &stream,
            &Response::error(503, &error).with_header("retry-after", "1"),
        );
        return;
    }
    let handler_state = Arc::clone(state);
    std::thread::spawn(move || {
        let _guard = ConnectionGuard(&handler_state.connections);
        handle_connection(&handler_state, &stream);
    });
}

fn respond(mut stream: &TcpStream, response: &Response) {
    let bytes = response.to_bytes();
    let _ = stream.write_all(&bytes);
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Both);
}

fn handle_connection(state: &Arc<ServerState>, stream: &TcpStream) {
    let _ = stream.set_read_timeout(Some(state.config.io_timeout));
    let _ = stream.set_write_timeout(Some(state.config.io_timeout));
    // One wall-clock budget for the whole request read, no matter how
    // many partial reads it takes — a drip-feeding client cannot renew
    // its welcome.
    let token = CancellationToken::with_deadline_at(Instant::now() + state.config.request_deadline);
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0_u8; 8192];
    let mut reader = stream;
    let request = loop {
        match http::parse_request(&buf) {
            Ok(Parsed::Complete(request, _consumed)) => break request,
            Ok(Parsed::Incomplete) => {}
            Err(error) => {
                state.registry.note_bad_request();
                respond(stream, &Response::from_http_error(&error));
                return;
            }
        }
        if token.is_cancelled() {
            state.registry.note_bad_request();
            let error = DarksilError::deadline("request read deadline exceeded");
            respond(stream, &Response::error(408, &error));
            return;
        }
        match reader.read(&mut chunk) {
            Ok(0) => {
                if !buf.is_empty() {
                    state.registry.note_bad_request();
                    let error = DarksilError::config("connection closed mid-request");
                    respond(stream, &Response::error(400, &error));
                }
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
            Ok(n) => buf.extend_from_slice(chunk.get(..n).unwrap_or_default()),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // Per-read timeout; the loop re-checks the end-to-end
                // deadline above.
            }
            Err(_) => return,
        }
    };
    // The watch long-poll streams chunks itself instead of buffering a
    // [`Response`]; everything else goes through the router.
    if request.method == "GET" {
        if let Some(digest) = request
            .path()
            .strip_prefix("/v1/jobs/")
            .and_then(|rest| rest.strip_suffix("/watch"))
        {
            let digest = digest.to_string();
            handle_watch(state, stream, &digest);
            return;
        }
    }
    let response = route(state, &request);
    respond(stream, &response);
}

/// Stable, bounded endpoint label for request metrics (raw paths would
/// make per-digest label sets and blow the cardinality cap).
fn endpoint_label(path: &str) -> &'static str {
    match path {
        "/healthz" => "/healthz",
        "/metrics" => "/metrics",
        "/v1/stats" => "/v1/stats",
        "/v1/jobs" => "/v1/jobs",
        "/v1/drain" => "/v1/drain",
        p if p.starts_with("/v1/jobs/") => {
            if p.ends_with("/report") {
                "/v1/jobs/{digest}/report"
            } else if p.ends_with("/events") {
                "/v1/jobs/{digest}/events"
            } else if p.ends_with("/watch") {
                "/v1/jobs/{digest}/watch"
            } else {
                "/v1/jobs/{digest}"
            }
        }
        p if p.starts_with("/v1/artefacts/") => "/v1/artefacts/{digest}",
        _ => "other",
    }
}

/// Records the per-request counter and rolling latency histogram.
fn note_request_metrics(method: &str, path: &str, status: u16, seconds: f64) {
    let endpoint = endpoint_label(path);
    let status = status.to_string();
    darksil_obs::counter_add(
        "darksil_serve_requests_total",
        &[
            ("endpoint", endpoint),
            ("method", method),
            ("status", &status),
        ],
        1,
    );
    darksil_obs::observe_rolling(
        "darksil_serve_request_seconds",
        &[("endpoint", endpoint)],
        seconds,
    );
}

fn route(state: &Arc<ServerState>, request: &Request) -> Response {
    let _span = darksil_obs::span("serve.http.request");
    darksil_obs::counter("serve.http.requests", 1);
    let started = Instant::now();
    let response = route_inner(state, request);
    note_request_metrics(
        &request.method,
        request.path(),
        response.status,
        started.elapsed().as_secs_f64(),
    );
    response
}

fn route_inner(state: &Arc<ServerState>, request: &Request) -> Response {
    let path = request.path().to_string();
    match (request.method.as_str(), path.as_str()) {
        ("GET", "/healthz") => {
            // A draining daemon answers 503 so load balancers stop
            // routing to it; `/v1/stats` stays 200 for observers.
            if state.is_draining() {
                return Response::json(
                    503,
                    &Json::Obj(vec![
                        ("status".to_string(), Json::Str("draining".to_string())),
                        ("draining".to_string(), Json::Bool(true)),
                        ("inflight".to_string(), state.registry.inflight().to_json()),
                    ]),
                );
            }
            Response::json(
                200,
                &Json::Obj(vec![
                    ("status".to_string(), Json::Str("ok".to_string())),
                    ("inflight".to_string(), state.registry.inflight().to_json()),
                ]),
            )
        }
        ("GET", "/metrics") => handle_metrics(state),
        ("GET", "/v1/stats") => {
            let mut stats = state.registry.stats_json(state.is_draining());
            // Engine jobs share the process-global factorisation cache;
            // surface its health next to the admission counters.
            if let Json::Obj(pairs) = &mut stats {
                let fc = darksil_numerics::factor_cache_stats();
                pairs.push((
                    "factor_cache".to_string(),
                    Json::Obj(vec![
                        ("hits".to_string(), fc.hits.to_json()),
                        ("misses".to_string(), fc.misses.to_json()),
                        ("entries".to_string(), (fc.entries as u64).to_json()),
                    ]),
                ));
            }
            Response::json(200, &stats)
        }
        ("POST", "/v1/jobs") => handle_submit(state, request),
        ("POST", "/v1/drain") => {
            state.draining.store(true, Ordering::SeqCst);
            Response::json(
                202,
                &Json::Obj(vec![(
                    "status".to_string(),
                    Json::Str("draining".to_string()),
                )]),
            )
        }
        // Before the GET catch-all: a known fixed path with the wrong
        // method is 405, not 404 (correct methods matched above).
        (_, "/healthz" | "/metrics" | "/v1/stats" | "/v1/jobs" | "/v1/drain") => {
            let error = DarksilError::unsupported(format!(
                "method {} not allowed on {path}",
                request.method
            ));
            Response::error(405, &error)
        }
        ("GET", p) => {
            if let Some(rest) = p.strip_prefix("/v1/jobs/") {
                if let Some(digest) = rest.strip_suffix("/report") {
                    handle_report(state, digest)
                } else if let Some(digest) = rest.strip_suffix("/events") {
                    handle_events(state, digest)
                } else {
                    handle_status(state, rest)
                }
            } else if let Some(digest) = p.strip_prefix("/v1/artefacts/") {
                handle_artefact(state, digest)
            } else {
                not_found(p)
            }
        }
        (_, p) => not_found(p),
    }
}

fn not_found(path: &str) -> Response {
    let error = DarksilError::unsupported(format!("no such resource: {path}"));
    Response::error(404, &error)
}

fn valid_digest(digest: &str) -> bool {
    digest.len() == 16 && digest.bytes().all(|b| b.is_ascii_hexdigit())
}

fn valid_tenant(tenant: &str) -> bool {
    !tenant.is_empty()
        && tenant.len() <= 64
        && tenant
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"-_.@".contains(&b))
}

fn handle_submit(state: &Arc<ServerState>, request: &Request) -> Response {
    if state.is_draining() {
        let error = DarksilError::capacity("daemon is draining; not accepting submissions");
        return Response::error(503, &error).with_header("retry-after", "5");
    }
    let bad = |message: String| {
        state.registry.note_bad_request();
        Response::error(400, &DarksilError::config(message).context("submission"))
    };
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return bad("request body is not valid UTF-8".to_string()),
    };
    let doc = match darksil_json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return bad(format!("request body is not valid JSON: {e}")),
    };
    let parsed = (|| -> Result<(String, Json, FaultSpec), darksil_json::JsonError> {
        let mut reader = ObjReader::new(&doc, "submission")?;
        let tenant: String = reader.req("tenant")?;
        let scenario: Json = reader.req("scenario")?;
        let faults = match reader.opt::<Json>("faults")? {
            Some(value) => FaultSpec::from_json(&value)?,
            None => FaultSpec::default(),
        };
        reader.finish()?;
        Ok((tenant, scenario, faults))
    })();
    let (tenant, scenario_raw, faults) = match parsed {
        Ok(parts) => parts,
        Err(e) => return bad(format!("{e}")),
    };
    if !valid_tenant(&tenant) {
        return bad(format!(
            "tenant {tenant:?} is invalid (1-64 chars from [A-Za-z0-9-_.@])"
        ));
    }
    let scenario = match Scenario::from_json(&scenario_raw) {
        Ok(scenario) => scenario,
        Err(e) => return bad(format!("scenario: {e}")),
    };
    if let Err(e) = darksil_scenario::validate_scenario(&scenario) {
        return bad(format!("{}", scenario_error(&e)));
    }
    // Identity is the canonical scenario plus the canonical fault
    // spec: re-ordered fields or explicit defaults hash identically.
    let identity = Json::Obj(vec![
        ("scenario".to_string(), scenario.to_json()),
        ("faults".to_string(), faults.canonical_json()),
    ]);
    let digest = darksil_engine::CacheKey::new("serve", &identity, SERVE_CACHE_SALT).digest_hex();

    match state.registry.admit(&digest, &tenant) {
        Ok(Admission::New) => {
            darksil_obs::counter_add(
                "darksil_serve_tenant_requests_total",
                &[("tenant", &tenant), ("outcome", "admitted")],
                1,
            );
            let spool = SpoolJob {
                digest: digest.clone(),
                tenants: vec![tenant],
                scenario,
                faults,
            };
            let persisted = atomic_write(
                &state.spool_path(&digest),
                spool.to_json().pretty().as_bytes(),
            )
            .and_then(|()| state.journal.ensure(&digest).map(|_| ()));
            if let Err(error) = persisted {
                // Roll the admission back: an unjournalled job would
                // vanish on restart while the client polls forever.
                state.registry.evict(&digest);
                return Response::error(500, &error);
            }
            enqueue(state, &digest);
            Response::json(
                202,
                &Json::Obj(vec![
                    ("job".to_string(), Json::Str(digest.clone())),
                    ("state".to_string(), Json::Str("queued".to_string())),
                    ("deduped".to_string(), Json::Bool(false)),
                    (
                        "status".to_string(),
                        Json::Str(format!("/v1/jobs/{digest}")),
                    ),
                ]),
            )
        }
        Ok(Admission::Duplicate(record)) => {
            darksil_obs::counter_add(
                "darksil_serve_tenant_requests_total",
                &[("tenant", &tenant), ("outcome", "deduped")],
                1,
            );
            let mut body = match record.status_json() {
                Json::Obj(fields) => fields,
                other => vec![("status".to_string(), other)],
            };
            body.push(("deduped".to_string(), Json::Bool(true)));
            Response::json(200, &Json::Obj(body))
        }
        Err(rejection) => {
            let outcome = match &rejection {
                crate::registry::Rejection::TenantQuota { .. } => "rejected_quota",
                crate::registry::Rejection::GlobalInflight { .. } => "rejected_inflight",
            };
            darksil_obs::counter_add(
                "darksil_serve_tenant_requests_total",
                &[("tenant", &tenant), ("outcome", outcome)],
                1,
            );
            Response::error(429, &rejection.to_error()).with_header("retry-after", "1")
        }
    }
}

fn handle_status(state: &Arc<ServerState>, digest: &str) -> Response {
    if !valid_digest(digest) {
        return not_found(&format!("/v1/jobs/{digest}"));
    }
    match state.registry.get(digest) {
        Some(record) => Response::json(200, &record.status_json()),
        None => {
            let error = DarksilError::unsupported(format!("no such job: {digest}"));
            Response::error(404, &error)
        }
    }
}

fn handle_artefact(state: &Arc<ServerState>, digest: &str) -> Response {
    if !valid_digest(digest) {
        return not_found(&format!("/v1/artefacts/{digest}"));
    }
    let Some(record) = state.registry.get(digest) else {
        let error = DarksilError::unsupported(format!("no such job: {digest}"));
        return Response::error(404, &error);
    };
    if record.state != JobState::Done {
        let error = DarksilError::config(format!(
            "job {digest} is {}; no artefact yet",
            record.state.label()
        ));
        return Response::error(409, &error);
    }
    match std::fs::read(state.artefact_path(digest)) {
        Ok(bytes) => Response::json_bytes(200, bytes),
        Err(e) => {
            let error = io_error(&format!("cannot read artefact {digest}"), &e);
            Response::error(500, &error)
        }
    }
}

fn handle_report(state: &Arc<ServerState>, digest: &str) -> Response {
    if !valid_digest(digest) {
        return not_found(&format!("/v1/jobs/{digest}/report"));
    }
    let Some(record) = state.registry.get(digest) else {
        let error = DarksilError::unsupported(format!("no such job: {digest}"));
        return Response::error(404, &error);
    };
    let artefact = if record.state == JobState::Done {
        std::fs::read_to_string(state.artefact_path(digest))
            .ok()
            .and_then(|text| darksil_json::parse(&text).ok())
    } else {
        None
    };
    Response::html(200, report::render(&record, artefact.as_ref()))
}

/// `GET /metrics`: refresh scrape-time gauges sourced from subsystems
/// the obs crate cannot depend on (numerics factor cache, engine
/// breaker, registry depths), then render the exposition.
fn handle_metrics(state: &Arc<ServerState>) -> Response {
    let fc = darksil_numerics::factor_cache_stats();
    #[allow(clippy::cast_precision_loss)]
    {
        darksil_obs::gauge_set("darksil_factor_cache_hits", &[], fc.hits as f64);
        darksil_obs::gauge_set("darksil_factor_cache_misses", &[], fc.misses as f64);
        darksil_obs::gauge_set("darksil_factor_cache_entries", &[], fc.entries as f64);
        darksil_obs::gauge_set(
            "darksil_serve_queue_depth",
            &[],
            state.registry.queued() as f64,
        );
        darksil_obs::gauge_set(
            "darksil_serve_inflight_jobs",
            &[],
            state.registry.inflight() as f64,
        );
        darksil_obs::gauge_set(
            "darksil_serve_connections",
            &[],
            state.connections.load(Ordering::SeqCst) as f64,
        );
    }
    darksil_obs::gauge_set(
        "darksil_serve_draining",
        &[],
        if state.is_draining() { 1.0 } else { 0.0 },
    );
    let breaker_open = state.supervisor.breaker().is_open("serve.scenario");
    darksil_obs::gauge_set(
        "darksil_serve_breaker_open",
        &[("class", "serve.scenario")],
        if breaker_open { 1.0 } else { 0.0 },
    );
    Response::text(200, darksil_obs::render_prometheus())
}

/// `GET /v1/jobs/{digest}/events`: derived event-stream statistics for
/// a finished job, computed by deterministic replay on first request
/// and persisted to `state/events/<digest>.jsonl`.
fn handle_events(state: &Arc<ServerState>, digest: &str) -> Response {
    if !valid_digest(digest) {
        return not_found(&format!("/v1/jobs/{digest}/events"));
    }
    let Some(record) = state.registry.get(digest) else {
        let error = DarksilError::unsupported(format!("no such job: {digest}"));
        return Response::error(404, &error);
    };
    if record.state != JobState::Done {
        let error = DarksilError::config(format!(
            "job {digest} is {}; events are derived once a job finishes",
            record.state.label()
        ));
        return Response::error(409, &error);
    }
    let cached = std::fs::read_to_string(state.events_path(digest))
        .ok()
        .and_then(|text| EventStream::from_jsonl(&text).ok());
    let stream = match cached {
        Some(stream) => stream,
        None => match replay_events(state, digest) {
            Ok(stream) => stream,
            Err(error) => return Response::error(500, &error),
        },
    };
    let kinds = Json::Obj(
        stream
            .kind_counts()
            .into_iter()
            .map(|(kind, n)| (kind, (n as u64).to_json()))
            .collect(),
    );
    let above = Json::Arr(
        stream
            .time_above_threshold()
            .into_iter()
            .map(|(core, seconds)| Json::Arr(vec![((core as u64).to_json()), Json::Num(seconds)]))
            .collect(),
    );
    let mut body = vec![
        ("job".to_string(), Json::Str(digest.to_string())),
        ("events".to_string(), (stream.events.len() as u64).to_json()),
        ("kinds".to_string(), kinds),
        (
            "throttle_residency".to_string(),
            stream.throttle_residency().map_or(Json::Null, Json::Num),
        ),
        ("time_above_threshold".to_string(), above),
    ];
    body.push(("summary".to_string(), Json::Str(stream.render_summary())));
    Response::json(200, &Json::Obj(body))
}

/// Re-runs a finished job's scenario with the domain event stream on
/// and persists the drained JSONL. The event machinery is
/// deterministic — keyed by submission order, not wall-clock — so a
/// post-hoc replay produces byte-identical events to a hypothetical
/// live capture. The whole replay happens inside a reserved fork
/// child ([`REPLAY_CHILD`]) so events recorded by concurrently running
/// pool jobs (the recorder gate is process-global) can be filtered
/// out by prefix.
fn replay_events(state: &Arc<ServerState>, digest: &str) -> Result<EventStream, DarksilError> {
    let job = read_spool(state, digest)?;
    let guard = REPLAY_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    darksil_obs::enable_events();
    let fork = darksil_obs::event_fork();
    let scope = fork.child(REPLAY_CHILD);
    let result = run_scenario(&job.scenario);
    drop(scope);
    let (_trace, drained) = darksil_obs::drain_all();
    drop(guard);
    result.map_err(|e| scenario_error(&e))?;
    let mut events: Vec<EventRecord> = drained
        .events
        .into_iter()
        .filter(|event| event.seq.get(1) == Some(&REPLAY_CHILD))
        .collect();
    for event in &mut events {
        // Strip the `[fork_base, REPLAY_CHILD]` prefix so the persisted
        // stream is keyed exactly like a direct single-job run.
        event.seq.drain(..2);
    }
    let stream = EventStream { events };
    atomic_write(&state.events_path(digest), stream.to_jsonl().as_bytes())?;
    darksil_obs::counter_add("darksil_serve_events_replayed_total", &[], 1);
    Ok(stream)
}

/// `GET /v1/jobs/{digest}/watch`: a chunked long-poll stream of the
/// job's lifecycle. Each chunk is one JSON line — `{"state": …}`
/// transitions, `{"kind": …}` supervisor attempt/backoff lines, and
/// `{"heartbeat": true}` keep-alives — ending with the zero chunk
/// after the terminal state. A disconnected client fails the next
/// write and the handler exits quietly.
fn handle_watch(state: &Arc<ServerState>, stream: &TcpStream, digest: &str) {
    let started = Instant::now();
    let path = format!("/v1/jobs/{digest}/watch");
    if !valid_digest(digest) || state.registry.get(digest).is_none() {
        let error = DarksilError::unsupported(format!("no such job: {digest}"));
        let response = Response::error(404, &error);
        note_request_metrics("GET", &path, 404, started.elapsed().as_secs_f64());
        respond(stream, &response);
        return;
    }
    note_request_metrics("GET", &path, 200, 0.0);
    darksil_obs::gauge_set(
        "darksil_serve_watchers",
        &[],
        1.0, // refreshed below as the loop runs; last-write-wins
    );
    let mut writer = stream;
    if writer
        .write_all(&http::chunked_head(200, "application/jsonl"))
        .is_err()
    {
        return;
    }
    let deadline = started + WATCH_MAX_LIFETIME;
    let mut cursor = 0_usize;
    loop {
        if Instant::now() >= deadline {
            break;
        }
        match state.registry.watch(digest, cursor, WATCH_HEARTBEAT) {
            WatchStep::Advanced {
                lines,
                cursor: next,
                terminal,
            } => {
                cursor = next;
                for line in &lines {
                    let mut payload = line.compact().into_bytes();
                    payload.push(b'\n');
                    if writer.write_all(&http::encode_chunk(&payload)).is_err() {
                        return;
                    }
                }
                if terminal {
                    break;
                }
            }
            WatchStep::Idle => {
                let payload = b"{\"heartbeat\": true}\n";
                if writer.write_all(&http::encode_chunk(payload)).is_err() {
                    return;
                }
            }
            WatchStep::Unknown => break,
        }
        if state.is_draining() {
            // Don't pin handler threads through a drain; the client
            // can re-poll status after restart.
            let payload = b"{\"state\": \"draining\"}\n";
            let _ = writer.write_all(&http::encode_chunk(payload));
            break;
        }
    }
    let _ = writer.write_all(http::last_chunk());
    let _ = writer.flush();
    let _ = stream.shutdown(Shutdown::Both);
    darksil_obs::observe_rolling(
        "darksil_serve_request_seconds",
        &[("endpoint", "/v1/jobs/{digest}/watch")],
        started.elapsed().as_secs_f64(),
    );
}
