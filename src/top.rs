//! `darksil top` — a plain-text live dashboard over a running
//! darksil-d.
//!
//! The command is a pure *consumer* of the service's public surface:
//! it polls `GET /metrics` (Prometheus text exposition) and
//! `GET /v1/stats` (JSON admission counters) over a throwaway
//! `TcpStream` per poll, parses both, and renders one fixed-layout
//! frame. With `--once` the frame is printed once and the process
//! exits 0 — that mode doubles as a cheap end-to-end exposition check
//! in CI. In the looping mode each frame starts with an ANSI
//! clear-screen so the dashboard repaints in place; Ctrl-C exits.
//!
//! Everything here is std-only: the HTTP client is a blocking
//! `TcpStream` with a read deadline, and the exposition parser handles
//! exactly the grammar `darksil_obs::render_prometheus` emits
//! (`name{label="value",…} value` with `\\`, `\"` and `\n` escapes).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use darksil_json::Json;
use darksil_robust::DarksilError;

/// Socket connect/read deadline for one poll.
const POLL_TIMEOUT: Duration = Duration::from_secs(5);

/// One parsed exposition sample: metric name, sorted label pairs, and
/// the value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (`darksil_serve_requests_total`).
    pub name: String,
    /// Label pairs in exposition order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl Sample {
    /// The value of one label, if present.
    #[must_use]
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Runs the dashboard loop (or a single frame with `once`).
pub fn run_top(addr: &str, interval: Duration, once: bool) -> Result<(), DarksilError> {
    loop {
        let frame = poll_frame(addr)?;
        if once {
            print!("{frame}");
            return Ok(());
        }
        // ANSI: clear screen, home cursor. Plain bytes, no terminfo.
        print!("\x1b[2J\x1b[H{frame}");
        let _ = std::io::stdout().flush();
        std::thread::sleep(interval);
    }
}

/// Polls both endpoints once and renders a frame.
fn poll_frame(addr: &str) -> Result<String, DarksilError> {
    let (status, metrics_body) = http_get(addr, "/metrics")?;
    if status != 200 {
        return Err(DarksilError::io(format!(
            "GET /metrics returned {status} (is darksil-d running at {addr}?)"
        )));
    }
    let (status, stats_body) = http_get(addr, "/v1/stats")?;
    if status != 200 {
        return Err(DarksilError::io(format!(
            "GET /v1/stats returned {status} (is darksil-d running at {addr}?)"
        )));
    }
    let samples = parse_exposition(&metrics_body);
    let stats = darksil_json::parse(&stats_body)
        .map_err(|e| DarksilError::io(format!("/v1/stats returned invalid JSON: {e}")))?;
    Ok(render_frame(addr, &samples, &stats))
}

/// A minimal blocking `GET` returning `(status, body)`.
///
/// The daemon always answers `connection: close` with a
/// `content-length` body on these endpoints, so reading to EOF and
/// splitting on the first blank line is a complete client.
fn http_get(addr: &str, path: &str) -> Result<(u16, String), DarksilError> {
    let stream = TcpStream::connect(addr)
        .map_err(|e| DarksilError::io(format!("cannot connect to {addr}: {e}")))?;
    stream
        .set_read_timeout(Some(POLL_TIMEOUT))
        .map_err(|e| DarksilError::io(format!("cannot set socket timeout: {e}")))?;
    stream
        .set_write_timeout(Some(POLL_TIMEOUT))
        .map_err(|e| DarksilError::io(format!("cannot set socket timeout: {e}")))?;
    let mut stream = stream;
    let request = format!("GET {path} HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n\r\n");
    stream
        .write_all(request.as_bytes())
        .map_err(|e| DarksilError::io(format!("cannot send request to {addr}: {e}")))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| DarksilError::io(format!("cannot read response from {addr}: {e}")))?;
    let text = String::from_utf8_lossy(&raw);
    let Some((head, body)) = text.split_once("\r\n\r\n") else {
        return Err(DarksilError::io(format!(
            "malformed HTTP response from {addr}"
        )));
    };
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| DarksilError::io(format!("malformed HTTP status line from {addr}")))?;
    Ok((status, body.to_string()))
}

/// Parses a Prometheus text exposition into samples, skipping `#`
/// comment lines. Lines that do not fit the grammar are ignored
/// rather than failing the whole frame.
#[must_use]
pub fn parse_exposition(body: &str) -> Vec<Sample> {
    let mut out = Vec::new();
    for line in body.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(sample) = parse_sample_line(line) {
            out.push(sample);
        }
    }
    out
}

/// Parses one `name{labels} value` or `name value` line.
fn parse_sample_line(line: &str) -> Option<Sample> {
    let (series, value) = line.rsplit_once(' ')?;
    let value: f64 = value.parse().ok()?;
    let (name, labels) = match series.split_once('{') {
        Some((name, rest)) => {
            let rest = rest.strip_suffix('}')?;
            (name, parse_labels(rest)?)
        }
        None => (series, Vec::new()),
    };
    Some(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

/// Parses `key="value",key="value"` with `\\`, `\"`, `\n` escapes.
fn parse_labels(body: &str) -> Option<Vec<(String, String)>> {
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    while chars.peek().is_some() {
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if chars.next()? != '"' {
            return None;
        }
        let mut value = String::new();
        loop {
            match chars.next()? {
                '\\' => match chars.next()? {
                    'n' => value.push('\n'),
                    escaped => value.push(escaped),
                },
                '"' => break,
                c => value.push(c),
            }
        }
        labels.push((key, value));
        match chars.next() {
            None => break,
            Some(',') => {}
            Some(_) => return None,
        }
    }
    Some(labels)
}

/// The sum over all samples of `name` passing a label filter.
fn sum_where(samples: &[Sample], name: &str, filter: impl Fn(&Sample) -> bool) -> f64 {
    // + 0.0 normalises the -0.0 that `Sum<f64>` uses as its identity,
    // which would otherwise render as "-0" in the dashboard.
    samples
        .iter()
        .filter(|s| s.name == name && filter(s))
        .map(|s| s.value)
        .sum::<f64>()
        + 0.0
}

/// One quantile of a rolling summary, if the window has data.
fn quantile(samples: &[Sample], name: &str, q: &str) -> Option<f64> {
    samples
        .iter()
        .find(|s| s.name == name && s.label("quantile") == Some(q))
        .map(|s| s.value)
}

/// A gauge value (no labels), defaulting to 0.
fn gauge(samples: &[Sample], name: &str) -> f64 {
    sum_where(samples, name, |s| s.labels.is_empty())
}

/// `hits/total` as a percentage string, or `-` when nothing happened.
fn hit_rate(hits: f64, misses: f64) -> String {
    let total = hits + misses;
    if total <= 0.0 {
        "-".to_string()
    } else {
        format!("{:.1}% ({}/{})", 100.0 * hits / total, hits, total)
    }
}

/// Formats a latency in seconds as an adaptive ms/s string.
fn fmt_latency(seconds: Option<f64>) -> String {
    match seconds {
        None => "-".to_string(),
        Some(s) if s < 1.0 => format!("{:.1}ms", s * 1000.0),
        Some(s) => format!("{s:.2}s"),
    }
}

/// Extracts `stats[key]` as u64 (registry counters are integral).
fn stat_u64(stats: &Json, key: &str) -> u64 {
    stats
        .get(key)
        .and_then(Json::as_f64)
        .map_or(0, |v| v.max(0.0) as u64)
}

/// Renders one dashboard frame from a scrape pair.
#[must_use]
pub fn render_frame(addr: &str, samples: &[Sample], stats: &Json) -> String {
    let mut out = String::new();
    let draining = stats
        .get("draining")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    out.push_str(&format!(
        "darksil top — {addr}{}\n\n",
        if draining { "  [DRAINING]" } else { "" }
    ));

    let jobs = stats.get("jobs");
    let job = |label: &str| -> u64 {
        jobs.and_then(|j| j.get(label))
            .and_then(Json::as_f64)
            .map_or(0, |v| v.max(0.0) as u64)
    };
    out.push_str(&format!(
        "jobs       queued {}   running {}   done {}   failed {}\n",
        job("queued"),
        job("running"),
        job("done"),
        job("failed"),
    ));
    out.push_str(&format!(
        "admission  admitted {}   deduped {}   rejected {} (quota {} / inflight {})   bad {}\n",
        stat_u64(stats, "admitted"),
        stat_u64(stats, "deduped"),
        stat_u64(stats, "rejected_tenant_quota") + stat_u64(stats, "rejected_inflight"),
        stat_u64(stats, "rejected_tenant_quota"),
        stat_u64(stats, "rejected_inflight"),
        stat_u64(stats, "bad_requests"),
    ));

    let breaker_open = sum_where(samples, "darksil_serve_breaker_open", |_| true) > 0.0;
    out.push_str(&format!(
        "service    inflight {}   queue {}   connections {}   breaker {}\n",
        gauge(samples, "darksil_serve_inflight_jobs"),
        gauge(samples, "darksil_serve_queue_depth"),
        gauge(samples, "darksil_serve_connections"),
        if breaker_open { "OPEN" } else { "closed" },
    ));

    let solve_hits = sum_where(samples, "darksil_serve_solve_cache_total", |s| {
        s.label("outcome") == Some("hit")
    });
    let solve_misses = sum_where(samples, "darksil_serve_solve_cache_total", |s| {
        s.label("outcome") != Some("hit")
    });
    let fc = stats.get("factor_cache");
    let fc_val = |key: &str| -> f64 {
        fc.and_then(|f| f.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    out.push_str(&format!(
        "caches     solve {}   factor {}   factor entries {}\n",
        hit_rate(solve_hits, solve_misses),
        hit_rate(fc_val("hits"), fc_val("misses")),
        fc_val("entries"),
    ));

    out.push_str(&format!(
        "latency    request p50 {}  p95 {}  p99 {}   solve p95 {}   (rolling ~5 min)\n",
        fmt_latency(quantile(samples, "darksil_serve_request_seconds", "0.5")),
        fmt_latency(quantile(samples, "darksil_serve_request_seconds", "0.95")),
        fmt_latency(quantile(samples, "darksil_serve_request_seconds", "0.99")),
        fmt_latency(quantile(samples, "darksil_serve_solve_seconds", "0.95")),
    ));

    // Per-tenant table from the exposition's tenant counters.
    let mut tenants: Vec<&str> = samples
        .iter()
        .filter(|s| s.name == "darksil_serve_tenant_requests_total")
        .filter_map(|s| s.label("tenant"))
        .collect();
    tenants.sort_unstable();
    tenants.dedup();
    if !tenants.is_empty() {
        out.push_str(&format!(
            "\n{:<20} {:>9} {:>9} {:>9}\n",
            "tenant", "admitted", "deduped", "rejected"
        ));
        for tenant in tenants {
            let outcome = |o: &str| -> f64 {
                sum_where(samples, "darksil_serve_tenant_requests_total", |s| {
                    s.label("tenant") == Some(tenant) && s.label("outcome") == Some(o)
                })
            };
            let rejected = sum_where(samples, "darksil_serve_tenant_requests_total", |s| {
                s.label("tenant") == Some(tenant)
                    && s.label("outcome")
                        .is_some_and(|o| o.starts_with("rejected"))
            });
            out.push_str(&format!(
                "{:<20} {:>9} {:>9} {:>9}\n",
                tenant,
                outcome("admitted"),
                outcome("deduped"),
                rejected,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_lines_parse_names_labels_and_values() {
        let body = "\
# HELP darksil_serve_requests_total requests\n\
# TYPE darksil_serve_requests_total counter\n\
darksil_serve_requests_total{endpoint=\"/healthz\",method=\"GET\",status=\"200\"} 3\n\
darksil_serve_inflight_jobs 2\n\
darksil_serve_request_seconds{endpoint=\"/v1/jobs\",quantile=\"0.95\"} 0.25\n\
garbage line without a number trailer\n";
        let samples = parse_exposition(body);
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].name, "darksil_serve_requests_total");
        assert_eq!(samples[0].label("endpoint"), Some("/healthz"));
        assert_eq!(samples[0].label("status"), Some("200"));
        assert!((samples[0].value - 3.0).abs() < 1e-12);
        assert!(samples[1].labels.is_empty());
        assert_eq!(
            quantile(&samples, "darksil_serve_request_seconds", "0.95"),
            Some(0.25)
        );
    }

    #[test]
    fn escaped_label_values_round_trip() {
        let line = r#"m{k="a\\b\"c\nd"} 1"#;
        let sample = parse_sample_line(line).unwrap();
        assert_eq!(sample.label("k"), Some("a\\b\"c\nd"));
    }

    #[test]
    fn frames_render_tenants_and_rates() {
        let samples = vec![
            Sample {
                name: "darksil_serve_tenant_requests_total".into(),
                labels: vec![
                    ("outcome".into(), "admitted".into()),
                    ("tenant".into(), "acme".into()),
                ],
                value: 4.0,
            },
            Sample {
                name: "darksil_serve_tenant_requests_total".into(),
                labels: vec![
                    ("outcome".into(), "rejected_quota".into()),
                    ("tenant".into(), "acme".into()),
                ],
                value: 1.0,
            },
            Sample {
                name: "darksil_serve_solve_cache_total".into(),
                labels: vec![("outcome".into(), "hit".into())],
                value: 3.0,
            },
            Sample {
                name: "darksil_serve_solve_cache_total".into(),
                labels: vec![("outcome".into(), "miss".into())],
                value: 1.0,
            },
        ];
        let stats = darksil_json::parse(
            r#"{"jobs": {"queued": 1, "running": 2, "done": 3, "failed": 0},
                "admitted": 5, "deduped": 2, "rejected_tenant_quota": 1,
                "rejected_inflight": 0, "bad_requests": 0, "draining": false,
                "factor_cache": {"hits": 8, "misses": 2, "entries": 2}}"#,
        )
        .unwrap();
        let frame = render_frame("127.0.0.1:8787", &samples, &stats);
        assert!(frame.contains("queued 1"), "{frame}");
        assert!(frame.contains("solve 75.0% (3/4)"), "{frame}");
        assert!(frame.contains("factor 80.0% (8/10)"), "{frame}");
        assert!(frame.contains("acme"), "{frame}");
        assert!(frame.contains("tenant"), "{frame}");
        // No tenants → no table.
        let bare = render_frame("x", &[], &stats);
        assert!(!bare.contains("tenant "), "{bare}");
        // Missing series sum to the f64 Sum identity (-0.0); the frame
        // must never show a negative zero.
        assert!(!frame.contains("-0"), "{frame}");
        assert!(!bare.contains("-0"), "{bare}");
    }

    #[test]
    fn draining_is_flagged_in_the_banner() {
        let stats = darksil_json::parse(r#"{"draining": true}"#).unwrap();
        let frame = render_frame("h:1", &[], &stats);
        assert!(frame.contains("[DRAINING]"), "{frame}");
    }
}
