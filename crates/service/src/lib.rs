//! # scalana-service — the concurrent analysis daemon
//!
//! The paper's workflow decouples `ScalAna-prof` from `ScalAna-detect`
//! so detection runs post-mortem over persisted profiles; this crate
//! adds the serving layer on top: a long-lived daemon that accepts many
//! analysis requests concurrently, reuses work across them, and exposes
//! machine-readable results.
//!
//! Pieces:
//!
//! - [`scalana_api`] (re-exported as [`api`] and [`json`]) — the
//!   versioned wire contract: `/v1` paths, request/response DTOs,
//!   structured errors, and the canonical JSON layer, shared by the
//!   server, the client, and the CLI;
//! - [`jsonify`] — JSON views of [`scalana_core`]'s analysis types,
//!   shared with `scalana analyze --json`;
//! - [`hash`] — process-independent FNV-1a hashing for content addresses;
//! - [`job`] — job specs, their content-addressed keys (whole-job and
//!   per-scale), and execution (profiles are persisted via
//!   `scalana_profile::store`, the way the real tool hands images from
//!   its profiler to its detector);
//! - [`queue`] / [`cache`] — bounded two-lane task queue and the
//!   content-addressed registry/result cache with hit/miss counters;
//! - [`tiers`] — the one place that decides which tier (memory, then
//!   disk) answers a profile image or PSG discovery trace, which tiers
//!   admit it and what is counted. The tiers themselves:
//!   - [`profile_cache`] — memory: resident profile images (each with
//!     its lazily decoded PPG) and discovery traces; beside them the
//!     refined-PSG cache and the program index;
//!   - [`store`] — disk: crash-safe content-addressed persistence
//!     (batch files of checksummed frames committed by atomic
//!     temp+fsync+rename, an in-memory index rebuilt at boot,
//!     quarantine), warm restarts, a byte-bounded write-behind queue,
//!     an injectable [`StoreIo`] with a deterministic fault plan, a
//!     write-failure circuit breaker into memory-only mode, and an
//!     oldest-first quota sweep;
//! - [`exec`] — per-scale job execution: scales resolve through the
//!   chain and the misses fan out across the worker pool;
//! - [`metrics`] — the daemon observing itself: one
//!   [`scalana_obs`]-backed [`ServiceMetrics`] per server (stage
//!   latency histograms, long-poll and simulator counters) behind
//!   `GET /v1/metrics`, with per-job span timelines served from the
//!   registry at `GET /v1/jobs/<id>/trace`;
//! - [`http`] / [`net`] / [`server`] / [`client`] — HTTP/1.1 framing
//!   with keep-alive over `std::net` (the client's blocking reader and
//!   the server's incremental [`http::RequestBuffer`]), the
//!   epoll/eventfd readiness primitives behind the daemon's event loop,
//!   the daemon itself, and the blocking client ([`client::Conn`]
//!   reuses one connection per interaction). The daemon is Linux-only:
//!   every connection is served by one epoll readiness loop and
//!   long-polls park as registry subscriptions, so thousands of
//!   concurrent waiters cost fds, not threads.
//!
//! The `scalana` binary lives here too: the classic `static`/`analyze`/
//! `apps` one-shot commands plus `serve`, `submit`, `status`, `result`,
//! `diff` (composed by the client from two results) and `shutdown`.
//!
//! ```no_run
//! use scalana_service::{client, Server, ServiceConfig};
//!
//! let server = Server::bind(&ServiceConfig {
//!     addr: "127.0.0.1:0".to_string(),
//!     ..ServiceConfig::default()
//! })
//! .unwrap();
//! let addr = server.local_addr().to_string();
//! std::thread::spawn(move || server.run());
//!
//! let response =
//!     client::request_json(&addr, "POST", "/jobs", r#"{"app":"CG","scales":[2,4]}"#).unwrap();
//! println!("job {}", response.get("job").unwrap());
//! ```

mod breaker;
pub mod cache;
pub mod client;
pub mod exec;
pub mod hash;
pub mod http;
pub mod job;
pub mod jsonify;
pub mod metrics;
pub mod net;
pub mod profile_cache;
pub mod queue;
#[cfg(target_os = "linux")]
pub(crate) mod reactor;
pub mod server;
pub mod store;
pub mod tiers;

/// The canonical JSON layer now lives in [`scalana_api`]; re-exported
/// here so `scalana_service::json::{parse, Json}` keeps working.
pub use scalana_api::json;

pub use cache::{JobStatus, Registry, StatsSnapshot};
pub use job::{JobProgram, JobSpec};
pub use json::Json;
pub use jsonify::{analysis_to_json, report_to_json};
pub use metrics::ServiceMetrics;
pub use profile_cache::{ProfileCache, ProgramIndex, PsgCache};
pub use queue::JobQueue;
pub use scalana_api as api;
pub use server::{Server, ServiceConfig};
pub use store::{DiskStore, FaultIo, FaultPlan, RealIo, StoreIo, StoreSnapshot};
