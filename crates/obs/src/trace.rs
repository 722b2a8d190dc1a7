//! The drained trace: span records, aggregates, JSON round-trip, and
//! the human-readable summary table.

use crate::hist::HistogramStats;
use darksil_json::{FromJson, Json, JsonError, ObjReader, ToJson};
use std::fmt::Write as _;

/// Schema tag written into every serialised trace. v2 added the
/// `hists` section; v1 traces (no histograms) still parse.
pub const TRACE_SCHEMA: &str = "darksil-trace-v2";

/// The previous schema tag, still accepted on read.
const TRACE_SCHEMA_V1: &str = "darksil-trace-v1";

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Process-unique id (creation order).
    pub id: u64,
    /// Id of the enclosing span, if any (may live on another thread).
    pub parent: Option<u64>,
    /// Trace-local id of the thread the span ran on.
    pub thread: u64,
    /// Span name, e.g. `thermal.steady_state`.
    pub name: String,
    /// Start time in seconds since the recorder was enabled.
    pub start_s: f64,
    /// Wall-clock length in seconds.
    pub seconds: f64,
}

impl ToJson for SpanRecord {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id".to_string(), self.id.to_json()),
            ("thread".to_string(), self.thread.to_json()),
            ("name".to_string(), self.name.to_json()),
            ("start_s".to_string(), self.start_s.to_json()),
            ("seconds".to_string(), self.seconds.to_json()),
        ];
        if let Some(parent) = self.parent {
            fields.push(("parent".to_string(), parent.to_json()));
        }
        Json::Obj(fields)
    }
}

impl FromJson for SpanRecord {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let mut r = ObjReader::new(v, "SpanRecord")?;
        let out = Self {
            id: r.req("id")?,
            thread: r.req("thread")?,
            name: r.req("name")?,
            start_s: r.req("start_s")?,
            seconds: r.req("seconds")?,
            parent: r.opt("parent")?,
        };
        r.finish()?;
        Ok(out)
    }
}

/// Aggregate statistics for one observation series; individual samples
/// are not retained.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ObservationStats {
    /// Number of samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl ObservationStats {
    /// Folds one sample into the aggregate.
    pub fn record(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
    }

    /// Arithmetic mean of the samples (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.sum / self.count as f64
            }
        }
    }
}

impl ToJson for ObservationStats {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".to_string(), self.count.to_json()),
            ("sum".to_string(), self.sum.to_json()),
            ("min".to_string(), self.min.to_json()),
            ("max".to_string(), self.max.to_json()),
        ])
    }
}

impl FromJson for ObservationStats {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let mut r = ObjReader::new(v, "ObservationStats")?;
        let out = Self {
            count: r.req("count")?,
            sum: r.req("sum")?,
            min: r.req("min")?,
            max: r.req("max")?,
        };
        r.finish()?;
        Ok(out)
    }
}

/// Everything recorded between `enable()` and `drain()`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// Completed spans, ordered by id (creation order).
    pub spans: Vec<SpanRecord>,
    /// Named counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Named observation aggregates, sorted by name.
    pub observations: Vec<(String, ObservationStats)>,
    /// Named log-bucket histograms, sorted by name.
    pub hists: Vec<(String, HistogramStats)>,
}

/// Per-name aggregate over a trace's spans.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    /// Span name.
    pub name: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Total wall-clock seconds inside spans with this name.
    pub inclusive_s: f64,
    /// Inclusive time minus time spent in direct child spans — the time
    /// attributable to this name itself.
    pub exclusive_s: f64,
}

impl Trace {
    /// The value of a named counter (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The aggregate for a named observation series, if recorded.
    #[must_use]
    pub fn observation(&self, name: &str) -> Option<&ObservationStats> {
        self.observations
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, s)| s)
    }

    /// The histogram for a named series, if recorded.
    #[must_use]
    pub fn hist(&self, name: &str) -> Option<&HistogramStats> {
        self.hists.iter().find(|(k, _)| k == name).map(|(_, h)| h)
    }

    /// Aggregates spans by name, sorted by inclusive time descending
    /// (ties broken by name for determinism).
    ///
    /// Exclusive time subtracts each span's direct children from its
    /// own length, clamping at zero: a span whose children ran in
    /// parallel on other threads can have more child-seconds than
    /// wall-clock seconds of its own.
    #[must_use]
    pub fn summary(&self) -> Vec<SpanSummary> {
        // Sum of direct-child time per parent id.
        let mut child_time: Vec<(u64, f64)> = Vec::new();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                match child_time.iter_mut().find(|(id, _)| *id == parent) {
                    Some((_, t)) => *t += span.seconds,
                    None => child_time.push((parent, span.seconds)),
                }
            }
        }
        let mut rows: Vec<SpanSummary> = Vec::new();
        for span in &self.spans {
            let children: f64 = child_time
                .iter()
                .find(|(id, _)| *id == span.id)
                .map_or(0.0, |(_, t)| *t);
            let exclusive = (span.seconds - children).max(0.0);
            match rows.iter_mut().find(|r| r.name == span.name) {
                Some(row) => {
                    row.count += 1;
                    row.inclusive_s += span.seconds;
                    row.exclusive_s += exclusive;
                }
                None => rows.push(SpanSummary {
                    name: span.name.clone(),
                    count: 1,
                    inclusive_s: span.seconds,
                    exclusive_s: exclusive,
                }),
            }
        }
        rows.sort_by(|a, b| {
            b.inclusive_s
                .total_cmp(&a.inclusive_s)
                .then_with(|| a.name.cmp(&b.name))
        });
        rows
    }

    /// Renders the hot-path table shown by `darksil trace summarize`:
    /// the top `top` span names by inclusive time, followed by derived
    /// cache/supervisor/solver health lines and all counters and
    /// observations.
    #[must_use]
    pub fn render_summary(&self, top: usize) -> String {
        let mut out = String::new();
        let rows = self.summary();
        let _ = writeln!(
            out,
            "{:<34} {:>7} {:>12} {:>12} {:>12}",
            "span", "count", "incl [s]", "excl [s]", "mean [ms]"
        );
        for row in rows.iter().take(top) {
            #[allow(clippy::cast_precision_loss)]
            let mean_ms = row.inclusive_s / row.count as f64 * 1e3;
            let _ = writeln!(
                out,
                "{:<34} {:>7} {:>12.4} {:>12.4} {:>12.3}",
                row.name, row.count, row.inclusive_s, row.exclusive_s, mean_ms
            );
        }
        if rows.len() > top {
            let _ = writeln!(out, "… {} more span names", rows.len() - top);
        }
        if rows.is_empty() {
            let _ = writeln!(out, "(no spans recorded)");
        }

        let hits = self.counter("engine.cache.hit");
        let misses = self.counter("engine.cache.miss");
        let recovered = self.counter("engine.cache.recovered");
        let lookups = hits + misses + recovered;
        if lookups > 0 {
            #[allow(clippy::cast_precision_loss)]
            let rate = hits as f64 / lookups as f64 * 100.0;
            let _ = writeln!(
                out,
                "\ncache: {hits} hit / {misses} miss / {recovered} recovered ({rate:.1}% hit rate)"
            );
        }
        let retries = self.counter("engine.supervisor.retry");
        let breaker_skips = self.counter("engine.supervisor.breaker_open");
        if retries > 0 || breaker_skips > 0 {
            let _ = writeln!(
                out,
                "supervisor: {retries} retries, {breaker_skips} retries skipped (breaker open)"
            );
        }
        let factored = self.counter("numerics.stage.factored");
        let cg = self.counter("numerics.stage.cg");
        let restarted = self.counter("numerics.stage.restarted_cg");
        let dense_lu = self.counter("numerics.stage.dense_lu");
        if factored + cg + restarted + dense_lu > 0 {
            let factor_hits = self.counter("numerics.factor_cache.hit");
            let factor_lookups = factor_hits + self.counter("numerics.factor_cache.miss");
            #[allow(clippy::cast_precision_loss)]
            let factor_rate = if factor_lookups > 0 {
                factor_hits as f64 / factor_lookups as f64 * 100.0
            } else {
                0.0
            };
            let warm_starts = self.counter("numerics.warm_start");
            let _ = writeln!(
                out,
                "solver: {factored} factored / {cg} cg / {restarted} restarted / \
                 {dense_lu} dense-lu; factor cache {factor_hits}/{factor_lookups} \
                 ({factor_rate:.1}% hit rate), {warm_starts} warm-started"
            );
        }

        if !self.counters.is_empty() {
            let _ = writeln!(out, "\ncounters:");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name:<32} {value}");
            }
        }
        if !self.observations.is_empty() {
            let _ = writeln!(out, "\nobservations:");
            for (name, stats) in &self.observations {
                let _ = writeln!(
                    out,
                    "  {name:<32} n={} mean={:.4} min={:.4} max={:.4}",
                    stats.count,
                    stats.mean(),
                    stats.min,
                    stats.max
                );
            }
        }
        if !self.hists.is_empty() {
            let _ = writeln!(out, "\nhistograms:");
            for (name, hist) in &self.hists {
                let _ = writeln!(
                    out,
                    "  {name:<32} n={} p50={:.4} p95={:.4} p99={:.4} max={:.4}",
                    hist.count,
                    hist.p50(),
                    hist.p95(),
                    hist.p99(),
                    hist.max
                );
            }
        }
        out
    }
}

impl ToJson for Trace {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".to_string(), TRACE_SCHEMA.to_json()),
            ("spans".to_string(), self.spans.to_json()),
            (
                "counters".to_string(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
            (
                "observations".to_string(),
                Json::Obj(
                    self.observations
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
            (
                "hists".to_string(),
                Json::Obj(
                    self.hists
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

impl FromJson for Trace {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let mut r = ObjReader::new(v, "Trace")?;
        let schema: String = r.req("schema")?;
        if schema != TRACE_SCHEMA && schema != TRACE_SCHEMA_V1 {
            return Err(JsonError::msg(format!(
                "unsupported trace schema `{schema}` (expected `{TRACE_SCHEMA}`)"
            )));
        }
        let spans: Vec<SpanRecord> = r.req("spans")?;
        let counters = match r.req::<Json>("counters")? {
            Json::Obj(fields) => fields
                .iter()
                .map(|(k, v)| Ok((k.clone(), u64::from_json(v).map_err(|e| e.in_field(k))?)))
                .collect::<Result<Vec<_>, JsonError>>()?,
            other => {
                return Err(JsonError::msg(format!(
                    "expected counters object, found {}",
                    other.type_name()
                )))
            }
        };
        let observations = match r.req::<Json>("observations")? {
            Json::Obj(fields) => fields
                .iter()
                .map(|(k, v)| {
                    Ok((
                        k.clone(),
                        ObservationStats::from_json(v).map_err(|e| e.in_field(k))?,
                    ))
                })
                .collect::<Result<Vec<_>, JsonError>>()?,
            other => {
                return Err(JsonError::msg(format!(
                    "expected observations object, found {}",
                    other.type_name()
                )))
            }
        };
        // `hists` arrived with schema v2; absent in v1 traces.
        let hists = match r.opt::<Json>("hists")? {
            None => Vec::new(),
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(k, v)| {
                    Ok((
                        k.clone(),
                        HistogramStats::from_json(v).map_err(|e| e.in_field(k))?,
                    ))
                })
                .collect::<Result<Vec<_>, JsonError>>()?,
            Some(other) => {
                return Err(JsonError::msg(format!(
                    "expected hists object, found {}",
                    other.type_name()
                )))
            }
        };
        r.finish()?;
        Ok(Self {
            spans,
            counters,
            observations,
            hists,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> Trace {
        Trace {
            spans: vec![
                SpanRecord {
                    id: 1,
                    parent: None,
                    thread: 0,
                    name: "repro.run".to_string(),
                    start_s: 0.0,
                    seconds: 2.0,
                },
                SpanRecord {
                    id: 2,
                    parent: Some(1),
                    thread: 1,
                    name: "artefact.fig5".to_string(),
                    start_s: 0.1,
                    seconds: 1.5,
                },
                SpanRecord {
                    id: 3,
                    parent: Some(2),
                    thread: 1,
                    name: "thermal.steady_state".to_string(),
                    start_s: 0.2,
                    seconds: 1.0,
                },
            ],
            counters: vec![
                ("engine.cache.hit".to_string(), 3),
                ("engine.cache.miss".to_string(), 1),
            ],
            observations: vec![(
                "numerics.cg.iterations".to_string(),
                ObservationStats {
                    count: 4,
                    sum: 100.0,
                    min: 10.0,
                    max: 40.0,
                },
            )],
            hists: vec![("engine.queue_wait_s".to_string(), {
                let mut h = HistogramStats::default();
                for i in 1..=20 {
                    h.record(f64::from(i) * 1e-3);
                }
                h
            })],
        }
    }

    #[test]
    fn json_round_trip() {
        let trace = fixture();
        let text = darksil_json::to_string_pretty(&trace);
        let back: Trace = darksil_json::from_str(&text).expect("round trip");
        assert_eq!(back, trace);
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let trace = fixture();
        let text = darksil_json::to_string_pretty(&trace).replace(TRACE_SCHEMA, "bogus-v0");
        assert!(darksil_json::from_str::<Trace>(&text).is_err());
    }

    #[test]
    fn summary_computes_exclusive_time() {
        let rows = fixture().summary();
        assert_eq!(rows[0].name, "repro.run");
        assert!((rows[0].inclusive_s - 2.0).abs() < 1e-12);
        assert!((rows[0].exclusive_s - 0.5).abs() < 1e-12);
        let fig5 = rows
            .iter()
            .find(|r| r.name == "artefact.fig5")
            .expect("fig5");
        assert!((fig5.exclusive_s - 0.5).abs() < 1e-12);
        let thermal = rows
            .iter()
            .find(|r| r.name == "thermal.steady_state")
            .expect("thermal");
        assert!((thermal.exclusive_s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn render_summary_shows_hot_paths_and_health() {
        let text = fixture().render_summary(10);
        assert!(text.contains("repro.run"), "{text}");
        assert!(text.contains("artefact.fig5"), "{text}");
        assert!(text.contains("75.0% hit rate"), "{text}");
        assert!(text.contains("numerics.cg.iterations"), "{text}");
        assert!(text.contains("engine.queue_wait_s"), "{text}");
        assert!(text.contains("p95="), "{text}");
        assert!(text.contains("p99="), "{text}");
    }

    #[test]
    fn v1_traces_without_histograms_still_parse() {
        let trace = fixture();
        let text = darksil_json::to_string_pretty(&trace);
        // Rewrite as a v1 document: old schema tag, no hists section.
        let v1 = {
            let json: Json = darksil_json::from_str(&text).expect("self parse");
            let Json::Obj(fields) = json else {
                panic!("trace is an object")
            };
            let fields = fields
                .into_iter()
                .filter(|(k, _)| k != "hists")
                .map(|(k, v)| {
                    if k == "schema" {
                        (k, Json::Str(TRACE_SCHEMA_V1.to_string()))
                    } else {
                        (k, v)
                    }
                })
                .collect();
            darksil_json::to_string_pretty(&Json::Obj(fields))
        };
        let back: Trace = darksil_json::from_str(&v1).expect("v1 parses");
        assert_eq!(back.spans, trace.spans);
        assert!(back.hists.is_empty());
    }

    #[test]
    fn render_summary_truncates_to_top_n() {
        let text = fixture().render_summary(1);
        assert!(text.contains("2 more span names"), "{text}");
    }

    #[test]
    fn render_summary_derives_supervisor_stats() {
        // The fixture records no supervisor activity: the line is
        // suppressed entirely.
        assert!(!fixture().render_summary(10).contains("supervisor:"));

        let mut trace = fixture();
        trace.counters.extend([
            ("engine.supervisor.retry".to_string(), 5),
            ("engine.supervisor.breaker_open".to_string(), 3),
        ]);
        let text = trace.render_summary(10);
        assert!(
            text.contains("supervisor: 5 retries, 3 retries skipped (breaker open)"),
            "{text}"
        );

        // Breaker skips alone still surface the line — a fully open
        // breaker produces no retries at all.
        let mut skips_only = fixture();
        skips_only
            .counters
            .push(("engine.supervisor.breaker_open".to_string(), 7));
        let text = skips_only.render_summary(10);
        assert!(
            text.contains("supervisor: 0 retries, 7 retries skipped (breaker open)"),
            "{text}"
        );
    }

    #[test]
    fn render_summary_derives_solver_stats() {
        // No solves recorded: the line is suppressed entirely.
        assert!(!fixture().render_summary(10).contains("solver:"));

        let mut trace = fixture();
        trace.counters.extend([
            ("numerics.stage.factored".to_string(), 100),
            ("numerics.stage.cg".to_string(), 7),
            ("numerics.stage.dense_lu".to_string(), 1),
            ("numerics.factor_cache.hit".to_string(), 99),
            ("numerics.factor_cache.miss".to_string(), 1),
            ("numerics.warm_start".to_string(), 42),
        ]);
        let text = trace.render_summary(10);
        assert!(
            text.contains(
                "solver: 100 factored / 7 cg / 0 restarted / 1 dense-lu; \
                 factor cache 99/100 (99.0% hit rate), 42 warm-started"
            ),
            "{text}"
        );

        // A chain-only profile (no factor-cache lookups at all) still
        // renders, with a zero hit rate rather than a division by zero.
        let mut chain_only = fixture();
        chain_only
            .counters
            .push(("numerics.stage.cg".to_string(), 12));
        let text = chain_only.render_summary(10);
        assert!(text.contains("solver: 0 factored / 12 cg"), "{text}");
        assert!(text.contains("factor cache 0/0 (0.0% hit rate)"), "{text}");
    }
}
