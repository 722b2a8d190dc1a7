//! `serve`: a closed loop of two tenants against a child
//! `darksil serve` process. Each client keeps at most one connection
//! open: it submits `POST /v1/jobs`, then follows
//! `GET /v1/jobs/{digest}/watch` to the terminal line.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use darksil_engine::Engine;
use darksil_json::Json;
use darksil_scenario::{run_scenario, ExperimentSpec, Scenario};

use crate::gen::{self, Submission};
use crate::stats::{self, secs, TAIL_PERCENTILE};
use crate::{fresh_dir, jobs, Args, Metric, Outcome};

/// Submissions generated per tenant; the timed phase stops well before
/// a client runs out.
const QUEUE_PER_TENANT: usize = 4000;
/// Submissions per tenant in the fixed (traced and probe) sequences.
pub const TRACE_PER_TENANT: usize = 24;
/// Known-defect submissions per tenant in the probe, after the fixed
/// sequence.
pub const DEFECTS_PER_TENANT: usize = 3;
const SETUP_REPS: usize = 3;
const IO_TIMEOUT: Duration = Duration::from_secs(30);
const TERMINAL: [&str; 3] = ["done", "degraded", "failed"];

/// A child `darksil serve` process on an ephemeral local port.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    /// Spawns the daemon over a fresh state directory and waits for the
    /// first `/healthz` 200.
    pub fn spawn(darksil: &Path, state_dir: &Path) -> Result<Self, String> {
        let t = Instant::now();
        let mut child = Command::new(darksil)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--jobs", &jobs().to_string()])
            .arg("--state-dir")
            .arg(state_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", darksil.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(_) => line
                .trim()
                .rsplit(' ')
                .next()
                .unwrap_or_default()
                .to_string(),
            Err(e) => e.to_string(),
        };
        let mut daemon = Self {
            child,
            stdout,
            addr,
        };
        if !line.starts_with("darksil-d listening on ") {
            daemon.kill();
            return Err(format!("daemon did not start: {line:?}"));
        }
        while request(&daemon.addr, "GET", "/healthz", "").map(|r| r.0) != Ok(200) {
            if secs(t) > 30.0 {
                daemon.kill();
                return Err("daemon never became healthy".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(daemon)
    }

    /// Runs one job per node through the daemon, so each chip's first
    /// assembly and factorisation happen before timing.
    fn warm_up(&self) -> Result<(), String> {
        for node in gen::SERVE_NODES {
            let mut scenario = gen::serve_submissions(0, 1)[0][0].scenario.clone();
            scenario.name = format!("warm-up-{node}");
            scenario.node = node;
            // The evaluated 22 nm chip fails at solve time; warm a small one.
            scenario.cores = (node == 22).then_some(36);
            scenario.workload[0].instances = 1;
            scenario.experiment = ExperimentSpec::Thermal {
                frequency_ghz: None,
            };
            let sub = Submission {
                tenant: gen::TENANTS[0],
                scenario,
            };
            let r = submit_and_watch(&self.addr, &sub, Instant::now());
            if !r.ok() {
                return Err(format!("warm-up job on {node} nm failed: {:?}", r.state));
            }
        }
        Ok(())
    }

    /// Peak resident memory of the daemon so far, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        stats::status_mb(&self.child.id().to_string(), "VmHWM:").unwrap_or(f64::NAN)
    }

    /// `GET` a JSON document.
    pub fn get_json(&self, path: &str) -> Result<Json, String> {
        let (status, body) = request(&self.addr, "GET", path, "")?;
        if status != 200 {
            return Err(format!("GET {path}: status {status}"));
        }
        darksil_json::parse(&String::from_utf8_lossy(&body)).map_err(|e| e.to_string())
    }

    /// Drains the daemon and waits for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let _ = request(&self.addr, "POST", "/v1/drain", "");
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                let mut rest = String::new();
                let _ = self.stdout.read_to_string(&mut rest);
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("daemon exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.kill();
        Err("daemon did not drain".into())
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            self.kill();
        }
    }
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
        .and_then(|()| stream.set_nodelay(true))
        .map_err(|e| e.to_string())?;
    Ok(stream)
}

fn send(stream: &mut TcpStream, method: &str, path: &str, body: &str) -> Result<(), String> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("{method} {path}: {e}"))
}

/// Splits a complete response into status and de-chunked body.
fn parse_response(raw: &[u8]) -> Result<(u16, Vec<u8>), String> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no header end")?;
    let head = String::from_utf8_lossy(&raw[..split]).to_ascii_lowercase();
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("response has no status")?;
    let mut body = raw[split + 4..].to_vec();
    if head.contains("transfer-encoding: chunked") {
        body = dechunk(&body);
    }
    Ok((status, body))
}

fn dechunk(mut raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    while let Some(eol) = raw.windows(2).position(|w| w == b"\r\n") {
        let size =
            usize::from_str_radix(String::from_utf8_lossy(&raw[..eol]).trim(), 16).unwrap_or(0);
        let start = eol + 2;
        if size == 0 || raw.len() < start + size {
            break;
        }
        out.extend_from_slice(&raw[start..start + size]);
        raw = raw.get(start + size + 2..).unwrap_or_default();
    }
    out
}

/// One request on its own connection: status and body.
pub fn request(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, Vec<u8>), String> {
    let mut stream = connect(addr)?;
    send(&mut stream, method, path, body)?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("{method} {path}: {e}"))?;
    parse_response(&raw)
}

/// Follows a job's watch stream until its terminal state line.
fn watch(addr: &str, digest: &str) -> Result<String, String> {
    let mut stream = connect(addr)?;
    send(&mut stream, "GET", &format!("/v1/jobs/{digest}/watch"), "")?;
    let mut raw = Vec::new();
    let mut chunk = [0_u8; 4096];
    loop {
        let text = String::from_utf8_lossy(&raw).replace(' ', "");
        if let Some(state) = TERMINAL
            .iter()
            .find(|s| text.contains(&format!("{{\"state\":\"{s}\"")))
        {
            return Ok((*state).to_string());
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(format!("watch {digest} ended without a terminal line")),
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(format!("watch {digest}: {e}")),
        }
    }
}

/// One finished submission as the client saw it.
#[derive(Debug, Clone)]
pub struct Record {
    pub digest: Option<String>,
    /// Terminal state, or the client-side error.
    pub state: Result<String, String>,
    /// Connect on `POST` until the terminal watch line.
    pub latency: Duration,
    /// Connect on `POST` until the `POST` response.
    pub submit: Duration,
    pub scenario: Scenario,
    /// Seconds from the run's start until this submission finished.
    pub finished_at: f64,
}

impl Record {
    pub fn ok(&self) -> bool {
        matches!(&self.state, Ok(s) if s != "failed")
    }
}

fn submit_and_watch(addr: &str, sub: &Submission, start: Instant) -> Record {
    let t = Instant::now();
    let mut record = Record {
        digest: None,
        state: Err(String::new()),
        latency: Duration::ZERO,
        submit: Duration::ZERO,
        scenario: sub.scenario.clone(),
        finished_at: 0.0,
    };
    let posted =
        request(addr, "POST", "/v1/jobs", &gen::submission_body(sub)).and_then(|(status, body)| {
            let doc = darksil_json::parse(&String::from_utf8_lossy(&body))
                .map_err(|e| format!("submit: {e}"))?;
            match doc.get("job").and_then(Json::as_str) {
                Some(digest) if status == 200 || status == 202 => Ok(digest.to_string()),
                _ => Err(format!("submit: status {status}")),
            }
        });
    record.submit = t.elapsed();
    record.state = posted.and_then(|digest| {
        let state = watch(addr, &digest);
        record.digest = Some(digest);
        state
    });
    record.latency = t.elapsed();
    record.finished_at = secs(start);
    record
}

/// Runs both tenants' lanes concurrently, one client thread each, until
/// the lanes end or `deadline` passes.
pub fn drive(addr: &str, lanes: &[Vec<Submission>; 2], deadline: Option<Instant>) -> Vec<Record> {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let clients: Vec<_> = lanes
            .iter()
            .take(jobs())
            .map(|lane| {
                scope.spawn(move || {
                    lane.iter()
                        .take_while(|_| deadline.is_none_or(|d| Instant::now() < d))
                        .map(|sub| submit_and_watch(addr, sub, start))
                        .collect::<Vec<Record>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread does not panic"))
            .collect()
    })
}

/// Checks every served artefact against `run_scenario` rendered as
/// `darksil run --json`; returns the digests that failed the check.
/// Fetches run on `jobs()` client threads.
pub fn check_artefacts(addr: &str, records: &[Record]) -> Result<Vec<String>, String> {
    let mut served: BTreeMap<String, Scenario> = BTreeMap::new();
    for r in records.iter().filter(|r| r.ok()) {
        if let Some(d) = &r.digest {
            served
                .entry(d.clone())
                .or_insert_with(|| r.scenario.clone());
        }
    }
    let items: Vec<(String, Scenario)> = served.into_iter().collect();
    let bad = Engine::new(jobs())
        .try_par_map(items, |(digest, scenario)| {
            let want = run_scenario(&scenario)
                .map(|report| darksil_json::to_string_pretty(&report) + "\n");
            let got = request(addr, "GET", &format!("/v1/artefacts/{digest}"), "");
            let same =
                matches!((&want, &got), (Ok(w), Ok((200, g))) if w.as_bytes() == g.as_slice());
            Ok((!same).then_some(digest))
        })
        .map_err(|e| e.to_string())?;
    Ok(bad.into_iter().flatten().collect())
}

/// Counts every record as an operation; a failed job, a client error
/// or a mismatching artefact is a failure.
fn tally(out: &mut Outcome, records: &[Record], bad: &[String]) {
    for r in records {
        let problem = match (&r.state, &r.digest) {
            (Err(e), _) => Some(e.clone()),
            (Ok(s), _) if s == "failed" => Some(format!(
                "job failed: node {} cores {:?}",
                r.scenario.node, r.scenario.cores
            )),
            (Ok(_), Some(d)) if bad.contains(d) => {
                Some(format!("artefact {d} differs from run_scenario"))
            }
            _ => None,
        };
        out.op(problem);
    }
}

/// Stops `daemon`, then returns `result`, or the stop's error.
fn stopped<T>(daemon: Daemon, result: Result<T, String>) -> Result<T, String> {
    let stop = daemon.stop();
    let out = result?;
    stop.map(|()| out)
}

pub fn measure(args: &Args) -> Result<Outcome, String> {
    let mut times = Vec::new();
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = daemon.take() {
            Daemon::stop(previous)?;
        }
        let t = Instant::now();
        let d = Daemon::spawn(
            &args.darksil,
            &fresh_dir(&args.work, &format!("state{rep}")),
        )?;
        d.warm_up()?;
        times.push(secs(t));
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one setup repetition");
    let result = (|| {
        let lanes = gen::serve_submissions(args.seed, QUEUE_PER_TENANT);
        let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
        let records = drive(&daemon.addr, &lanes, Some(deadline));
        let wall = records.iter().map(|r| r.finished_at).fold(0.0, f64::max);
        let peak_rss = daemon.peak_rss_mb();
        let bad = check_artefacts(&daemon.addr, &records)?;
        let mut out = Outcome::default();
        tally(&mut out, &records, &bad);
        out.correct = bad.is_empty() && records.iter().all(|r| r.state.is_ok());
        let latencies: Vec<f64> = records
            .iter()
            .filter(|r| r.ok())
            .map(|r| stats::ms(r.latency))
            .collect();
        if latencies.is_empty() {
            return Err("no submission finished".to_string());
        }
        out.metrics
            .push(Metric::new("setup_s", stats::median(&times), "s"));
        out.metrics.push(Metric::new("peak_rss_mb", peak_rss, "MB"));
        out.metrics.push(Metric::new(
            "work_per_s",
            latencies.len() as f64 / wall,
            "1/s",
        ));
        out.metrics.push(Metric::new(
            "latency_p50_ms",
            stats::median(&latencies),
            "ms",
        ));
        out.metrics.push(Metric::new(
            "latency_p90_ms",
            stats::percentile(&latencies, TAIL_PERCENTILE),
            "ms",
        ));
        let failed_jobs = records
            .iter()
            .filter(|r| matches!(&r.state, Ok(s) if s == "failed"))
            .count();
        println!(
            "# serve: {} submissions, {} done, {failed_jobs} failed jobs ({:.2} %) in {wall:.3} s",
            records.len(),
            latencies.len(),
            stats::share(failed_jobs as u64, records.len() as u64) * 100.0
        );
        Ok(out)
    })();
    stopped(daemon, result)
}

fn factor_counts(daemon: &Daemon) -> Result<(f64, f64), String> {
    let stats = daemon.get_json("/v1/stats")?;
    let fc = stats
        .get("factor_cache")
        .ok_or("no factor_cache in /v1/stats")?;
    let count = |k: &str| {
        fc.get(k)
            .and_then(Json::as_f64)
            .ok_or(format!("no factor_cache.{k}"))
    };
    Ok((count("hits")?, count("misses")?))
}

/// The fixed sequence on a fresh daemon: its records and wall time.
fn fixed_sequence(args: &Args, dir: &str) -> Result<(Daemon, Vec<Record>, f64), String> {
    let daemon = Daemon::spawn(&args.darksil, &fresh_dir(&args.work, dir))?;
    let lanes = gen::serve_submissions(args.seed, TRACE_PER_TENANT);
    let t = Instant::now();
    let records = drive(&daemon.addr, &lanes, None);
    Ok((daemon, records, secs(t)))
}

pub fn traced(args: &Args) -> Result<Outcome, String> {
    let (untraced, _, wall_u) = fixed_sequence(args, "untraced")?;
    untraced.stop()?;
    let (daemon, records, wall_t) = fixed_sequence(args, "traced")?;
    let result = (|| {
        let (hits, misses) = factor_counts(&daemon)?;
        let metrics_text =
            String::from_utf8_lossy(&request(&daemon.addr, "GET", "/metrics", "")?.1).to_string();
        let solve_s = prometheus_sum(&metrics_text, "darksil_serve_solve_seconds_sum");
        let bad = check_artefacts(&daemon.addr, &records)?;
        let mut out = Outcome::default();
        tally(&mut out, &records, &bad);
        out.correct = bad.is_empty() && records.iter().all(|r| r.state.is_ok());
        let client_s: f64 = records.iter().map(|r| r.latency.as_secs_f64()).sum();
        out.metrics.push(
            Metric::new(
                "engine.par_map_efficiency",
                solve_s / (jobs() as f64 * wall_t),
                "ratio",
            )
            .moves("work_per_s on serve (daemon worker utilisation)"),
        );
        out.metrics.push(
            Metric::new("numerics.factorisations", misses, "count")
                .moves("latency_p50_ms on serve"),
        );
        out.metrics.push(
            Metric::new(
                "numerics.factor_cache.hit_ratio",
                hits / (hits + misses).max(1.0),
                "ratio",
            )
            .moves("latency_p50_ms on serve"),
        );
        out.metrics.push(
            Metric::new("work.units", records.len() as f64, "count")
                .moves("submissions in the traced sequence"),
        );
        out.metrics.push(
            Metric::new(
                "trace.unattributed_share",
                1.0 - solve_s / client_s,
                "share",
            )
            .moves("submit-to-done time outside the daemon's solves"),
        );
        out.metrics.push(
            Metric::new("trace.overhead_share", wall_t / wall_u - 1.0, "share")
                .moves("traced vs untraced sequence wall time"),
        );
        Ok(out)
    })();
    stopped(daemon, result)
}

/// Sum of every sample of `name` in a Prometheus exposition.
pub fn prometheus_sum(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| l.starts_with(name) && l[name.len()..].starts_with(['{', ' ']))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// Mean of the `quantile` samples of `name` whose labels contain
/// `label`.
pub fn prometheus_quantile(text: &str, name: &str, label: &str, quantile: &str) -> Option<f64> {
    let q = format!("quantile=\"{quantile}\"");
    let values: Vec<f64> = text
        .lines()
        .filter(|l| l.starts_with(&format!("{name}{{")) && l.contains(label) && l.contains(&q))
        .filter_map(|l| l.rsplit(' ').next()?.parse().ok())
        .collect();
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// The daemon-backed probes every traced run reports: idle round trips,
/// then the fixed sequence and the known-defect submissions, with their
/// scraped latencies and job counts.
pub fn probe(args: &Args) -> Result<Vec<Metric>, String> {
    let daemon = Daemon::spawn(&args.darksil, &fresh_dir(&args.work, "probe"))?;
    let result = (|| {
        let healthz = stats::median_secs(15, || {
            let _ = request(&daemon.addr, "GET", "/healthz", "");
        });
        // Idle submit round trips: distinct small jobs, each awaited
        // before the next is sent.
        let mut submit = Vec::new();
        for i in 0..9 {
            let mut scenario = gen::serve_submissions(args.seed, 1)[0][0].scenario.clone();
            scenario.name = format!("idle-probe-{i}");
            scenario.node = 16;
            scenario.cores = Some(16);
            let sub = Submission {
                tenant: gen::TENANTS[0],
                scenario,
            };
            let r = submit_and_watch(&daemon.addr, &sub, Instant::now());
            r.state.map_err(|e| format!("idle probe: {e}"))?;
            submit.push(r.submit.as_secs_f64());
        }
        let lanes = gen::serve_submissions(args.seed, TRACE_PER_TENANT);
        let mut records = drive(&daemon.addr, &lanes, None);
        let defects = gen::defect_submissions(args.seed, DEFECTS_PER_TENANT);
        records.extend(drive(&daemon.addr, &defects, None));
        if let Some(e) = records.iter().find_map(|r| r.state.as_ref().err()) {
            return Err(format!("probe submission: {e}"));
        }
        let bad = check_artefacts(&daemon.addr, &records)?;
        if !bad.is_empty() {
            return Err(format!("{} artefacts differ from run_scenario", bad.len()));
        }
        let text =
            String::from_utf8_lossy(&request(&daemon.addr, "GET", "/metrics", "")?.1).to_string();
        let stats_doc = daemon.get_json("/v1/stats")?;
        let count = |path: &[&str]| {
            path.iter()
                .try_fold(&stats_doc, |doc, k| doc.get(k))
                .and_then(Json::as_f64)
                .ok_or(format!("/v1/stats has no {}", path.join(".")))
        };
        let p50_ms = |name: &str, label: &str| {
            prometheus_quantile(&text, name, label, "0.5")
                .map(|s| s * 1e3)
                .ok_or(format!("/metrics has no p50 of {name} {label}"))
        };
        let target = "latency_p50_ms on serve";
        Ok(vec![
            Metric::new("serve.healthz_rtt_ms", healthz * 1e3, "ms").moves(target),
            Metric::new("serve.submit_rtt_ms", stats::median(&submit) * 1e3, "ms").moves(target),
            Metric::new(
                "serve.solve_p50_ms",
                p50_ms("darksil_serve_solve_seconds", "")?,
                "ms",
            )
            .moves(target),
            Metric::new(
                "serve.request_p50_ms.submit",
                p50_ms("darksil_serve_request_seconds", "endpoint=\"/v1/jobs\"")?,
                "ms",
            )
            .moves(target),
            Metric::new(
                "serve.request_p50_ms.healthz",
                p50_ms("darksil_serve_request_seconds", "endpoint=\"/healthz\"")?,
                "ms",
            )
            .moves(target),
            Metric::new(
                "serve.request_p50_ms.artefact",
                p50_ms(
                    "darksil_serve_request_seconds",
                    "endpoint=\"/v1/artefacts/{digest}\"",
                )?,
                "ms",
            )
            .moves(target),
            Metric::new("serve.jobs.done", count(&["jobs", "done"])?, "count")
                .moves("work_per_s on serve"),
            Metric::new("serve.jobs.deduped", count(&["deduped"])?, "count")
                .moves("work_per_s on serve"),
            Metric::new("serve.jobs.failed", count(&["jobs", "failed"])?, "count")
                .moves("work_per_s on serve (the 22 nm defect probe)"),
        ])
    })();
    stopped(daemon, result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dechunks_and_parses_responses() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n1\r\n!\r\n0\r\n\r\n";
        let (status, body) = parse_response(raw).expect("parses");
        assert_eq!(status, 200);
        assert_eq!(body, b"hello!");
    }

    #[test]
    fn scrapes_prometheus_text() {
        let text = "# TYPE m summary\nm{endpoint=\"/a\",quantile=\"0.5\"} 0.002\n\
                    m{endpoint=\"/b\",quantile=\"0.5\"} 0.004\nm_sum{tenant=\"x\"} 1.5\nm_sum{tenant=\"y\"} 0.5\n";
        assert_eq!(prometheus_quantile(text, "m", "/a", "0.5"), Some(0.002));
        assert_eq!(prometheus_quantile(text, "m", "", "0.5"), Some(0.003));
        assert_eq!(prometheus_sum(text, "m_sum"), 2.0);
    }

    #[test]
    fn load_generator_stays_within_the_thread_budget() {
        // One client thread per tenant lane, capped at jobs(); each
        // client holds one connection at a time (submit_and_watch
        // closes the POST connection before opening the watch).
        assert!(jobs() <= crate::MAX_PARALLEL);
        assert_eq!(gen::TENANTS.len(), crate::MAX_PARALLEL);
        let lanes = gen::serve_submissions(3, 4);
        assert_eq!(lanes.len(), crate::MAX_PARALLEL);
        assert_eq!(Engine::new(jobs()).jobs(), jobs());
    }
}
