//! `darksil-serve`: the `darksil serve` daemon (a.k.a. `darksil-d`) —
//! a multi-tenant HTTP/1.1 front end over the darksil engine.
//!
//! The paper's design-space exploration pays off when many users probe
//! it interactively; this crate promotes the batch CLI into a
//! long-running service with the robustness properties the rest of the
//! workspace already provides piecemeal:
//!
//! - **Admission control & backpressure** ([`registry`]): per-tenant
//!   quotas and a global in-flight cap, decided atomically; rejections
//!   are `429 + Retry-After` with typed `capacity` errors — memory use
//!   is bounded by construction.
//! - **Content-addressed dedup**: a job's identity is the digest of
//!   its canonical scenario + fault spec; identical submissions from
//!   different tenants share one record, and identical scenarios share
//!   one solve through the engine's [`ResultCache`].
//! - **Slowloris-safe parsing** ([`http`]): a pure, panic-free
//!   incremental parser with hard caps on head, header count, target,
//!   and body, plus per-read socket timeouts and one end-to-end
//!   read deadline per request (a [`CancellationToken`] anchored at
//!   accept time).
//! - **Crash-safe lifecycle** ([`server`]): requests are spooled and
//!   journalled (via `darksil-bench`'s [`Journal`]) before they are
//!   acknowledged, artefacts hit disk before the `done` transition,
//!   and a SIGKILL'd daemon restarts, re-queues unfinished jobs, and
//!   serves byte-identical artefacts.
//! - **Graceful drain** ([`signal`]): SIGTERM/SIGINT (or
//!   `POST /v1/drain`) stops the accept loop, waits out in-flight
//!   jobs up to a grace period, checkpoints the rest, and exits 0.
//!   While draining, `/healthz` answers `503 {"draining": true}` so
//!   load balancers stop routing, but `/v1/stats` and `/metrics`
//!   stay reachable for a final scrape.
//! - **Live telemetry** (`darksil-obs` `metrics`): per-tenant and
//!   per-endpoint counters, scrape-time gauges, and rolling-window
//!   latency histograms exposed as deterministic Prometheus text at
//!   `GET /metrics`; per-job lifecycle streaming at
//!   `GET /v1/jobs/{digest}/watch` (chunked JSON lines driven by the
//!   supervisor's attempt hook); derived event-stream statistics at
//!   `GET /v1/jobs/{digest}/events`.
//!
//! # Protocol
//!
//! | Method & path               | Purpose                                    |
//! |-----------------------------|--------------------------------------------|
//! | `GET /healthz`              | Liveness + in-flight count (503 draining)  |
//! | `GET /metrics`              | Prometheus text exposition                 |
//! | `GET /v1/stats`             | Job-state counts and admission counters    |
//! | `POST /v1/jobs`             | Submit `{tenant, scenario, faults?}`       |
//! | `GET /v1/jobs/{digest}`     | Status + supervisor attempt timeline       |
//! | `GET /v1/jobs/{digest}/report` | Self-contained HTML report              |
//! | `GET /v1/jobs/{digest}/events` | Derived event-stream statistics         |
//! | `GET /v1/jobs/{digest}/watch`  | Chunked JSON-line lifecycle stream      |
//! | `GET /v1/artefacts/{digest}`| Finished artefact bytes (exact)            |
//! | `POST /v1/drain`            | Graceful drain (SIGTERM equivalent)        |
//!
//! [`CancellationToken`]: darksil_robust::CancellationToken
//! [`Journal`]: darksil_engine::Journal
//! [`ResultCache`]: darksil_engine::ResultCache

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod http;
pub mod registry;
pub mod report;
pub mod server;
pub mod signal;

pub use http::{parse_request, HttpError, Parsed, Request, Response};
pub use registry::{Admission, JobRecord, JobState, Registry, Rejection};
pub use server::{DrainSummary, FaultSpec, ServeConfig, Server, SERVE_CACHE_SALT, SPOOL_SCHEMA};
