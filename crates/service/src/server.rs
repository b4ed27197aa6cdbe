//! The analysis daemon: TCP accept loop, worker pool, HTTP routing.
//!
//! Every endpoint lives under the versioned prefix and is described by
//! [`scalana_api`] — paths, request/response DTOs, and structured
//! errors all come from that crate, so the server, the client, and the
//! CLI agree by construction:
//!
//! ```text
//! POST /v1/jobs                      submit a job (object) or a batch (array)
//! GET  /v1/jobs?state=&limit=&after= paginated job listing
//! GET  /v1/jobs/<id>                 job status
//! GET  /v1/jobs/<id>/wait?timeout_ms= long-poll until terminal (or budget)
//! GET  /v1/jobs/<id>/result          cached analysis result (JSON)
//! GET  /v1/jobs/<id>/profile/<p>     persisted profile image at scale <p>
//! GET  /v1/stats                     counters: job + per-scale cache hits/misses, ...
//! GET  /v1/metrics                   Prometheus-style exposition (text)
//! GET  /v1/jobs/<id>/trace           per-job span timeline (terminal jobs)
//! GET  /v1/healthz                   liveness probe
//! POST /v1/shutdown                  graceful stop
//! GET  /v1/store?after=&limit=       durable store view (paginated listing)
//! POST /v1/store/gc                  run one quota sweep
//! ```
//!
//! The unversioned spelling of every endpoint answers
//! `308 Permanent Redirect` to its `/v1` path, query string kept.
//! Errors are structured
//! [`ApiError`] bodies whose code pins the HTTP status.
//!
//! Connections speak HTTP/1.1 keep-alive: one socket carries any number
//! of sequential requests (a poll loop costs one TCP handshake total).
//! Submissions land in the bounded [`JobQueue`]; a pool of worker
//! threads executes them *per scale* ([`crate::exec`]): each requested
//! scale resolves through the tier chain ([`crate::tiers`]) first, only
//! the misses are simulated — fanned out across the pool, not one
//! worker per job — and whole-job results live in the
//! [`Registry`], so identical re-submissions are answered without
//! touching the queue and overlapping ones re-simulate only their
//! genuinely new scales.
//!
//! The daemon is Linux-only: all connections are served by a single
//! epoll readiness loop (`crate::reactor`) — reads, routing, and
//! batched writes happen on one thread, and long-polls park as registry
//! *subscriptions* (`Registry::subscribe`) instead of blocked threads,
//! which is what lets one daemon hold tens of thousands of concurrent
//! waiters. Elsewhere the crate still builds (the one-shot CLI, the
//! client) and [`Server::run`] answers `Unsupported`.

use crate::cache::{JobStatus, Registry, RegistryObs, StatusView, SubmitOutcome, WaitOutcome};
use crate::exec::{ExecCtx, Task};
use crate::http::Request;
use crate::job::{JobProgram, JobSpec};
use crate::json::{parse, Json};
use crate::metrics::ServiceMetrics;
use crate::profile_cache::{ProfileCache, ProgramIndex, PsgCache, PROGRAM_CAPACITY};
use crate::queue::JobQueue;
use crate::store::{DiskStore, RealIo, StoreIo, StoreSnapshot};
use crate::tiers::Tiers;
use scalana_api::{
    dto, paths, ApiError, ErrorCode, JobPage, JobState, JobView, ListQuery, ProgramRef,
    StatsResponse, StoreQuery, SubmitAck, SubmitRequest, WaitQuery,
};
use scalana_core::ScalAnaConfig;
use scalana_obs::{self as obs, Family};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Re-export of the wire contract's scale bound (it predates the
/// `scalana-api` crate and callers import it from here).
pub use scalana_api::MAX_SCALE;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Listen address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads executing analyses.
    pub workers: usize,
    /// Bounded queue capacity (submissions beyond it get `503`).
    pub queue_capacity: usize,
    /// Completed results retained in the cache (oldest evicted first;
    /// 0 = unbounded). Results hold profile images, so a long-lived
    /// daemon must bound them.
    pub max_cached_results: usize,
    /// Per-scale profile images the memory tier retains (oldest
    /// evicted first; 0 = unbounded; the bound is exact). The unit of
    /// cross-job reuse: one entry per (program, profile config,
    /// discovery scale, scale). An entry a job has hit also holds the
    /// image's decoded PPG + run summary, so this count bounds those
    /// too. (Discovery traces have a fixed bound beside it,
    /// [`TRACE_CAPACITY`](crate::profile_cache::TRACE_CAPACITY).)
    pub max_cached_profiles: usize,
    /// Refined PSGs retained, each with its parsed program (oldest
    /// evicted first; 0 = unbounded; the bound is exact). Small and
    /// extremely reusable — one per (program, PSG options, discovery
    /// scale).
    pub max_cached_psgs: usize,
    /// Connections served concurrently before new ones are shed with a
    /// `503` + `Retry-After`. A connection costs the event loop one fd
    /// and a small state machine (not a thread), so the default is
    /// sized for thousands of parked long-pollers; the real ceiling is
    /// the process fd limit.
    pub max_connections: usize,
    /// Durable store directory (`--store-dir`) — the disk tier. When
    /// set, profile images and PSG discovery traces are written behind
    /// to disk, memory misses read through it, and the memory tier
    /// warms from it at startup; `None` keeps the daemon memory-only.
    pub store_dir: Option<String>,
    /// Store size quota in bytes (`--store-quota`; 0 = unlimited).
    /// When exceeded after a commit, a sweep evicts the oldest data files.
    pub store_quota: u64,
    /// Filesystem access for the store. `None` uses the real
    /// filesystem; tests inject a [`crate::store::FaultIo`] here.
    pub store_io: Option<Arc<dyn StoreIo>>,
    /// Idle keep-alive connections are closed after this long without a
    /// request (`--idle-timeout`).
    pub idle_timeout: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get().min(4))
            .unwrap_or(2);
        ServiceConfig {
            addr: "127.0.0.1:7878".to_string(),
            workers,
            queue_capacity: 64,
            max_cached_results: 256,
            max_cached_profiles: 1024,
            max_cached_psgs: 64,
            max_connections: 16_384,
            store_dir: None,
            store_quota: 0,
            store_io: None,
            idle_timeout: Duration::from_secs(30),
        }
    }
}

/// `Retry-After:` value (seconds) sent with every retryable error —
/// backpressure answers (`503` shed, queue full) and transient job
/// states. Clients honor it in their polling fallback.
const RETRY_AFTER_SECS: u64 = 1;

pub(crate) struct State {
    pub(crate) registry: Registry,
    pub(crate) queue: JobQueue<Task>,
    pub(crate) profiles: ProfileCache,
    pub(crate) psgs: PsgCache,
    pub(crate) programs: ProgramIndex,
    /// The durable tier under the caches (`--store-dir`), or `None`
    /// for a memory-only daemon.
    pub(crate) store: Option<Arc<DiskStore>>,
    /// Idle keep-alive connections are swept after this long.
    pub(crate) idle_timeout: Duration,
    pub(crate) workers: usize,
    pub(crate) shutdown: AtomicBool,
    pub(crate) addr: SocketAddr,
    /// Connections currently served (mirrored into `scalana_connections`
    /// at exposition time). The event loop stores its live count here.
    pub(crate) connections: AtomicUsize,
    pub(crate) max_connections: usize,
    /// Per-server observability: stage histograms, simulator counters,
    /// and the `/v1/metrics` exposition registry. Owned here (not
    /// global) so in-process daemons never share counters.
    pub(crate) metrics: ServiceMetrics,
    /// Bind time — the zero point of `uptime_ms`.
    pub(crate) started: Instant,
    /// Event-loop wake handle, installed by the reactor before it
    /// starts serving. `trigger_shutdown` signals it so an *idle*
    /// daemon leaves its `epoll_wait` immediately instead of on the
    /// next accepted connection.
    #[cfg(target_os = "linux")]
    pub(crate) wake: std::sync::OnceLock<Arc<crate::net::WakeFd>>,
}

impl State {
    /// The chain over this daemon's tiers ([`crate::tiers`]).
    pub(crate) fn tiers(&self) -> Tiers<'_> {
        self.exec_ctx().tiers()
    }

    pub(crate) fn exec_ctx(&self) -> ExecCtx<'_> {
        ExecCtx {
            registry: &self.registry,
            queue: &self.queue,
            profiles: &self.profiles,
            psgs: &self.psgs,
            store: self.store.as_deref(),
            metrics: &self.metrics,
        }
    }

    fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    pub(crate) fn trigger_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            self.queue.shutdown();
            #[cfg(target_os = "linux")]
            if let Some(wake) = self.wake.get() {
                wake.wake();
                return;
            }
            // Shutdown raced the reactor's startup: a throwaway
            // connection makes its first `epoll_wait` return.
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// A bound (not yet running) daemon.
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.state.addr)
            .finish()
    }
}

impl Server {
    /// Bind the listener (the returned server is not serving yet).
    pub fn bind(config: &ServiceConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        // The registry records into the same handles `/v1/metrics`
        // renders — long-poll park/wake counters, queue-wait and
        // whole-job histograms.
        let metrics = ServiceMetrics::new();
        let registry =
            Registry::with_result_capacity(config.max_cached_results).with_obs(RegistryObs {
                parks: metrics.longpoll_parks.clone(),
                wakes: metrics.longpoll_wakes.clone(),
                parked: metrics.longpoll_parked.clone(),
                queue_wait_ns: metrics.queue_wait_ns.clone(),
                job_ns: metrics.job_ns.clone(),
            });
        // Durable tier: open (never fails hard — a broken directory
        // degrades to memory-only) validates and indexes what is on
        // disk; its newest images warm the memory tier below.
        let store = config.store_dir.as_ref().map(|dir| {
            let io = config
                .store_io
                .clone()
                .unwrap_or_else(|| Arc::new(RealIo) as Arc<dyn StoreIo>);
            let dir = std::path::Path::new(dir);
            Arc::new(DiskStore::open(io, dir, config.store_quota))
        });
        let state = Arc::new(State {
            registry,
            queue: JobQueue::new(config.queue_capacity),
            profiles: ProfileCache::new(config.max_cached_profiles),
            psgs: PsgCache::new(config.max_cached_psgs),
            programs: ProgramIndex::new(PROGRAM_CAPACITY),
            store,
            idle_timeout: config.idle_timeout.max(Duration::from_secs(1)),
            workers: config.workers.max(1),
            shutdown: AtomicBool::new(false),
            addr,
            connections: AtomicUsize::new(0),
            max_connections: config.max_connections.max(1),
            metrics,
            started: Instant::now(),
            #[cfg(target_os = "linux")]
            wake: std::sync::OnceLock::new(),
        });
        state.tiers().preload();
        Ok(Server { listener, state })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Serve until `POST /v1/shutdown`. Blocks; spawns the store's
    /// write-behind thread and the worker pool, then serves every
    /// connection from one epoll readiness loop.
    #[cfg(target_os = "linux")]
    pub fn run(self) -> io::Result<()> {
        // Started before the first worker runs, so a save enqueues
        // instead of blocking a worker on fsync.
        let writer = self
            .state
            .store
            .as_ref()
            .map(|store| (store, store.start_writer()));
        let workers: Vec<_> = (0..self.state.workers)
            .map(|i| {
                let state = Arc::clone(&self.state);
                std::thread::Builder::new()
                    .name(format!("scalana-worker-{i}"))
                    .spawn(move || worker_loop(&state))
                    .expect("spawn worker")
            })
            .collect();

        let served = crate::reactor::serve(self.listener, &self.state);

        self.state.queue.shutdown();
        for worker in workers {
            let _ = worker.join();
        }
        // Only now, with the workers gone, can nothing more be enqueued
        // and no `save` be left blocked on the bounded queue: closing it
        // lets the writer drain every pending write to disk and exit.
        if let Some((store, writer)) = writer {
            store.stop_writer();
            let _ = writer.join();
        }
        served
    }

    /// The daemon needs Linux (epoll, eventfd); everything else in this
    /// crate builds anywhere.
    #[cfg(not(target_os = "linux"))]
    pub fn run(self) -> io::Result<()> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "the scalana daemon runs on Linux only",
        ))
    }
}

fn worker_loop(state: &State) {
    // Runs until `pop` returns `None`: after shutdown the queue stops
    // accepting job pushes but still hands out already-accepted tasks —
    // both whole jobs and the per-scale work they fan out — so every
    // submission the daemon acknowledged gets executed (its record
    // would otherwise sit `queued` forever) — graceful, not abrupt.
    let ctx = state.exec_ctx();
    while let Some(task) = state.queue.pop() {
        // Panic isolation lives inside run_task: pipeline stages over
        // client-supplied programs run under catch_unwind and fail the
        // job instead of killing this worker.
        crate::exec::run_task(&ctx, task);
    }
}

/// What to do after the response is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Action {
    None,
    Shutdown,
}

/// One routed response. Bodies are `Bytes` so a cached profile image is
/// served by refcount bump, not a per-request deep copy; `headers`
/// carries endpoint metadata (`Allow:`, `Location:`, `Retry-After:`).
pub(crate) struct Response {
    pub(crate) code: u16,
    pub(crate) content_type: String,
    pub(crate) body: bytes::Bytes,
    pub(crate) headers: Vec<(&'static str, String)>,
}

/// Outcome of [`route`]: either a finished response, or a long-poll
/// the event loop parks as a registry subscription.
pub(crate) enum Routed {
    /// Fully handled; write it.
    Done(Response),
    /// `GET /v1/jobs/<id>/wait`: answer when `key` turns terminal or
    /// after `timeout`, whichever first (the job may not exist — the
    /// waiter resolves that to `unknown_job`).
    Wait { key: String, timeout: Duration },
}

/// The `400` for protocol garbage. The exact-string match
/// (`http::read_headers` emits it verbatim) matters: only a declared
/// body over budget is `body_too_large` — an oversized *head* must not
/// tell the client to shrink its body.
pub(crate) fn malformed_response(e: &io::Error) -> Response {
    let message = e.to_string();
    let code = if message == crate::http::ERR_BODY_TOO_LARGE {
        ErrorCode::BodyTooLarge
    } else {
        ErrorCode::MalformedRequest
    };
    error_response(&ApiError::new(code, message))
}

/// The `503` shed answer for connections over the admission cap.
pub(crate) fn shed_response() -> Response {
    error_response(&ApiError::new(
        ErrorCode::TooManyConnections,
        "too many connections",
    ))
}

/// The status document a resolved `wait` long-poll answers with.
pub(crate) fn wait_outcome_response(outcome: WaitOutcome) -> Response {
    match outcome {
        WaitOutcome::Unknown => {
            error_response(&ApiError::new(ErrorCode::UnknownJob, "unknown job"))
        }
        WaitOutcome::Terminal(view) | WaitOutcome::Pending(view) => {
            json_response(200, job_view(&view).to_json())
        }
    }
}

fn json_response(code: u16, body: Json) -> Response {
    Response {
        code,
        content_type: "application/json".to_string(),
        body: bytes::Bytes::from(body.render().into_bytes()),
        headers: Vec::new(),
    }
}

fn error_response(error: &ApiError) -> Response {
    let mut response = json_response(error.http_status(), error.to_json());
    if error.retryable {
        // The structured body already says `retryable: true`; the
        // header says *when* — plain HTTP clients get backoff advice
        // without parsing the body.
        response
            .headers
            .push(("Retry-After", RETRY_AFTER_SECS.to_string()));
    }
    response
}

/// The wire view of a registry record.
fn job_view(view: &StatusView) -> JobView {
    JobView {
        job: view.key.clone(),
        program: view.label.clone(),
        scales: view.scales.clone(),
        status: job_state(view.status),
        error: view.error.clone(),
    }
}

fn job_state(status: JobStatus) -> JobState {
    match status {
        JobStatus::Queued => JobState::Queued,
        JobStatus::Running => JobState::Running,
        JobStatus::Done => JobState::Done,
        JobStatus::Failed => JobState::Failed,
    }
}

fn job_status(state: JobState) -> JobStatus {
    match state {
        JobState::Queued => JobStatus::Queued,
        JobState::Running => JobStatus::Running,
        JobState::Done => JobStatus::Done,
        JobState::Failed => JobStatus::Failed,
    }
}

/// Allowed methods per known path shape — the source of `405` +
/// `Allow:` answers (an unknown shape is a `404` instead).
fn allowed_methods(segments: &[&str]) -> Option<&'static str> {
    Some(match segments {
        ["healthz"] => "GET",
        ["stats"] => "GET",
        ["metrics"] => "GET",
        ["shutdown"] => "POST",
        ["jobs"] => "GET, POST",
        ["jobs", _] => "GET",
        ["jobs", _, "result"] => "GET",
        ["jobs", _, "wait"] => "GET",
        ["jobs", _, "trace"] => "GET",
        ["jobs", _, "profile", _] => "GET",
        ["store"] => "GET",
        ["store", "gc"] => "POST",
        _ => return None,
    })
}

pub(crate) fn route(request: &Request, state: &State) -> (Routed, Action) {
    let (path, query) = paths::split_target(&request.path);
    let mut segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    // Version handling: strip the served version, reject recognizable
    // foreign ones, and redirect unversioned spellings below.
    let versioned = match segments.first() {
        Some(&segment) if segment == paths::API_VERSION => {
            segments.remove(0);
            true
        }
        Some(&segment) if paths::looks_like_version(segment) => {
            return (
                Routed::Done(error_response(&ApiError::new(
                    ErrorCode::UnsupportedVersion,
                    format!(
                        "unsupported API version `{segment}` (this server serves `{}`)",
                        paths::API_VERSION
                    ),
                ))),
                Action::None,
            );
        }
        _ => false,
    };

    let method = request.method.as_str();
    let Some(allowed) = allowed_methods(&segments) else {
        return (
            Routed::Done(error_response(&ApiError::new(
                ErrorCode::NotFound,
                "no such endpoint",
            ))),
            Action::None,
        );
    };
    if !allowed.split(", ").any(|m| m == method) {
        let mut response = error_response(&ApiError::new(
            ErrorCode::MethodNotAllowed,
            format!("method {method} not allowed (allowed: {allowed})"),
        ));
        response.headers.push(("Allow", allowed.to_string()));
        return (Routed::Done(response), Action::None);
    }
    if !versioned {
        let location = if query.is_empty() {
            format!("/v1/{}", segments.join("/"))
        } else {
            format!("/v1/{}?{}", segments.join("/"), query)
        };
        let mut response =
            json_response(308, Json::obj(vec![("location", location.as_str().into())]));
        response.headers.push(("Location", location));
        return (Routed::Done(response), Action::None);
    }

    match (method, segments.as_slice()) {
        ("GET", ["healthz"]) => (
            Routed::Done(json_response(
                200,
                dto::health_body(env!("CARGO_PKG_VERSION"), state.uptime_ms()),
            )),
            Action::None,
        ),
        ("GET", ["stats"]) => (
            Routed::Done(json_response(200, stats(state).to_json())),
            Action::None,
        ),
        ("GET", ["metrics"]) => (Routed::Done(metrics_text(state)), Action::None),
        ("POST", ["shutdown"]) => (
            Routed::Done(json_response(200, dto::ok_body())),
            Action::Shutdown,
        ),
        ("POST", ["jobs"]) => (Routed::Done(submit(request, state)), Action::None),
        ("GET", ["jobs"]) => (Routed::Done(list_jobs(query, state)), Action::None),
        ("GET", ["jobs", key]) => (Routed::Done(status(key, state)), Action::None),
        ("GET", ["jobs", key, "wait"]) => (wait(key, query), Action::None),
        ("GET", ["jobs", key, "trace"]) => (Routed::Done(trace(key, state)), Action::None),
        ("GET", ["jobs", key, "result"]) => (Routed::Done(result(key, state)), Action::None),
        ("GET", ["jobs", key, "profile", nprocs]) => {
            (Routed::Done(profile(key, nprocs, state)), Action::None)
        }
        ("GET", ["store"]) => (Routed::Done(store_info(query, state)), Action::None),
        ("POST", ["store", "gc"]) => (Routed::Done(store_gc(state)), Action::None),
        // Unreachable given the allow-list check, but a 404 beats UB in
        // a long-lived daemon if the two tables ever drift.
        _ => (
            Routed::Done(error_response(&ApiError::new(
                ErrorCode::NotFound,
                "no such endpoint",
            ))),
            Action::None,
        ),
    }
}

/// Memory-only daemons report all-zero store counters rather than
/// omitting the fields, so the stats shape (and the metrics golden
/// list) is identical with and without `--store-dir`.
fn store_snapshot(state: &State) -> StoreSnapshot {
    state
        .store
        .as_ref()
        .map(|s| s.snapshot())
        .unwrap_or_default()
}

fn stats(state: &State) -> StatsResponse {
    let job_stats = state.registry.stats();
    let scale = state.profiles.stats();
    let (psg_hits, psg_misses) = state.psgs.stats();
    let store = store_snapshot(state);
    StatsResponse {
        workers: state.workers,
        queue_depth: state.queue.depth(),
        results_cached: state.registry.results_cached(),
        submitted: job_stats.submitted,
        cache_hits: job_stats.cache_hits,
        cache_misses: job_stats.cache_misses,
        rejected: job_stats.rejected,
        executed: job_stats.executed,
        completed: job_stats.completed,
        failed: job_stats.failed,
        evicted: job_stats.evicted,
        scale_hits: scale.hits,
        scale_misses: scale.misses,
        scale_evicted: scale.evicted,
        profiles_cached: scale.entries,
        psg_hits,
        psg_misses,
        programs_indexed: state.programs.len(),
        store_writes: store.writes,
        store_write_errors: store.write_errors,
        store_skipped: store.skipped,
        store_quarantined: store.quarantined,
        store_loaded: store.loaded,
        store_evicted: store.evicted,
        store_entries: store.entries,
        store_bytes: store.bytes,
        store_degraded: store.degraded,
        version: env!("CARGO_PKG_VERSION").to_string(),
        uptime_ms: state.uptime_ms(),
    }
}

/// `GET /v1/metrics` — Prometheus-style text exposition. Families with
/// live handles render from [`ServiceMetrics`]; counters that already
/// exist elsewhere (the three cache tiers, job counters, gauges) are
/// mirrored here from the *same atomics* `/v1/stats` reads, so the two
/// endpoints can never disagree.
fn metrics_text(state: &State) -> Response {
    let s = stats(state);
    // The write-behind pair is not part of the stats DTO.
    let store = store_snapshot(state);
    let mirrored = vec![
        Family::gauge("scalana_build_info", 1)
            .with_sample_suffix(&format!("{{version=\"{}\"}}", env!("CARGO_PKG_VERSION"))),
        Family::counter("scalana_cache_psg_hits_total", s.psg_hits),
        Family::counter("scalana_cache_psg_misses_total", s.psg_misses),
        Family::counter("scalana_cache_result_evicted_total", s.evicted),
        Family::counter("scalana_cache_result_hits_total", s.cache_hits),
        Family::counter("scalana_cache_result_misses_total", s.cache_misses),
        Family::counter("scalana_cache_scale_evicted_total", s.scale_evicted),
        Family::counter("scalana_cache_scale_hits_total", s.scale_hits),
        Family::counter("scalana_cache_scale_misses_total", s.scale_misses),
        Family::gauge(
            "scalana_connections",
            state.connections.load(Ordering::SeqCst) as u64,
        ),
        Family::counter("scalana_jobs_completed_total", s.completed),
        Family::counter("scalana_jobs_executed_total", s.executed),
        Family::counter("scalana_jobs_failed_total", s.failed),
        Family::counter("scalana_jobs_rejected_total", s.rejected),
        Family::counter("scalana_jobs_submitted_total", s.submitted),
        Family::gauge("scalana_profiles_cached", s.profiles_cached as u64),
        Family::gauge("scalana_programs_indexed", s.programs_indexed as u64),
        Family::gauge("scalana_queue_depth", s.queue_depth as u64),
        Family::gauge("scalana_results_cached", s.results_cached as u64),
        Family::gauge("scalana_store_backlog_bytes", store.backlog_bytes),
        Family::gauge("scalana_store_bytes", s.store_bytes),
        Family::counter("scalana_store_commits_total", store.commits),
        Family::gauge("scalana_store_degraded", s.store_degraded),
        Family::gauge("scalana_store_entries", s.store_entries),
        Family::counter("scalana_store_evicted_total", s.store_evicted),
        Family::counter("scalana_store_loaded_total", s.store_loaded),
        Family::counter("scalana_store_quarantined_total", s.store_quarantined),
        Family::counter("scalana_store_skipped_total", s.store_skipped),
        Family::counter("scalana_store_write_errors_total", s.store_write_errors),
        Family::counter("scalana_store_writes_total", s.store_writes),
        Family::gauge("scalana_uptime_ms", s.uptime_ms),
        Family::gauge("scalana_workers", s.workers as u64),
    ];
    Response {
        code: 200,
        content_type: "text/plain; version=0.0.4".to_string(),
        body: bytes::Bytes::from(state.metrics.render(mirrored).into_bytes()),
        headers: Vec::new(),
    }
}

/// `GET /v1/store?after=&limit=` — the durable tier's directory view:
/// entry/byte totals, the configured quota, degradation state, and one
/// keyset-paginated page of the (name-sorted) listing of data files,
/// each a batch of entries. The
/// counters are always complete; the listing pages so a huge store
/// directory cannot balloon one response — follow `next_after` until it
/// is `null` for the full listing. A memory-only daemon (no
/// `--store-dir`) answers `404`.
fn store_info(query: &str, state: &State) -> Response {
    let Some(store) = state.store.as_ref() else {
        return error_response(&ApiError::new(
            ErrorCode::NotFound,
            "no store configured (start the daemon with --store-dir)",
        ));
    };
    let page = match StoreQuery::from_query(&paths::parse_query(query)) {
        Ok(page) => page,
        Err(error) => return error_response(&error),
    };
    let snapshot = store.snapshot();
    let files = store.list();
    // Keyset, not offset: `after` names the last file of the previous
    // page, so a sweep between pages skips entries instead of
    // repeating or missing them.
    let start = match &page.after {
        Some(after) => files.partition_point(|(name, _)| name.as_str() <= after.as_str()),
        None => 0,
    };
    let listed: Vec<Json> = files[start..]
        .iter()
        .take(page.limit)
        .map(|(name, bytes)| {
            Json::obj(vec![
                ("name", Json::Str(name.clone())),
                ("bytes", Json::Int(*bytes as i64)),
            ])
        })
        .collect();
    let next_after = if start + listed.len() < files.len() {
        match files.get(start + listed.len() - 1) {
            Some((name, _)) => Json::Str(name.clone()),
            None => Json::Null,
        }
    } else {
        Json::Null
    };
    json_response(
        200,
        Json::obj(vec![
            ("dir", Json::Str(store.dir().display().to_string())),
            ("entries", Json::Int(snapshot.entries as i64)),
            ("bytes", Json::Int(snapshot.bytes as i64)),
            ("quota", Json::Int(store.quota() as i64)),
            ("degraded", Json::Bool(snapshot.degraded != 0)),
            ("files_listed", Json::Int(listed.len() as i64)),
            ("files_total", Json::Int(files.len() as i64)),
            ("files", Json::Arr(listed)),
            ("next_after", next_after),
        ]),
    )
}

/// `POST /v1/store/gc` — run one quota sweep now. Answers `503` +
/// `Retry-After` while the breaker is open (sweeping a store that
/// cannot write is pointless churn), `404` without a store.
fn store_gc(state: &State) -> Response {
    let Some(store) = state.store.as_ref() else {
        return error_response(&ApiError::new(
            ErrorCode::NotFound,
            "no store configured (start the daemon with --store-dir)",
        ));
    };
    if store.is_degraded() {
        return error_response(&ApiError::new(
            ErrorCode::StoreDegraded,
            "store is degraded to memory-only mode; retry after the breaker closes",
        ));
    }
    let report = store.sweep();
    let snapshot = store.snapshot();
    json_response(
        200,
        Json::obj(vec![
            ("evicted", Json::Int(report.evicted as i64)),
            ("freed_bytes", Json::Int(report.freed_bytes as i64)),
            ("entries", Json::Int(snapshot.entries as i64)),
            ("bytes", Json::Int(snapshot.bytes as i64)),
        ]),
    )
}

/// `GET /v1/jobs/<id>/trace` — the job's span timeline. Traces exist
/// only for terminal jobs (the timeline is closed by the terminal
/// transition); a pending job answers `job_pending` + `Retry-After`.
fn trace(key: &str, state: &State) -> Response {
    match state.registry.trace(key) {
        None => error_response(&ApiError::new(ErrorCode::UnknownJob, "unknown job")),
        Some((_, None)) => error_response(&ApiError::new(
            ErrorCode::JobPending,
            "job still pending (traces exist once the job is terminal)",
        )),
        Some((_, Some(trace))) => json_response(200, trace.to_json()),
    }
}

fn status(key: &str, state: &State) -> Response {
    match state.registry.status(key) {
        Some(view) => json_response(200, job_view(&view).to_json()),
        None => error_response(&ApiError::new(ErrorCode::UnknownJob, "unknown job")),
    }
}

/// `GET /v1/jobs` — one keyset-paginated page of the registry.
fn list_jobs(query: &str, state: &State) -> Response {
    let list = match ListQuery::from_query(&paths::parse_query(query)) {
        Ok(list) => list,
        Err(error) => return error_response(&error),
    };
    let (views, next_after) = state.registry.list(
        list.state.map(job_status),
        list.after.as_deref(),
        list.limit,
    );
    let page = JobPage {
        jobs: views.iter().map(job_view).collect(),
        next_after,
    };
    json_response(200, page.to_json())
}

/// `GET /v1/jobs/<id>/wait` — server-side long-poll: the job's current
/// status document once it turns terminal or the (clamped) budget
/// elapses, whichever first. The client decides whether to re-issue — a
/// `200` with a non-terminal `status` simply means the budget ran out.
/// Only the query is validated here; parking is the event loop's job.
fn wait(key: &str, query: &str) -> Routed {
    let wait = match WaitQuery::from_query(&paths::parse_query(query)) {
        Ok(wait) => wait,
        Err(error) => return Routed::Done(error_response(&error)),
    };
    Routed::Wait {
        key: key.to_string(),
        timeout: Duration::from_millis(wait.timeout_ms),
    }
}

/// `POST /v1/jobs`: a single submission object, or an array of them (the
/// batched form — one request, many submissions, one array of the same
/// per-job response objects, answered in order).
fn submit(request: &Request, state: &State) -> Response {
    // Stamped before parsing: the trace's time zero, so the `submit`
    // span accounts for parse + validation + registration.
    let recv_ns = obs::now_ns();
    let parse_guard = obs::span_timed(&state.metrics.parse_ns);
    let doc = match parse(&request.body) {
        Ok(doc) => doc,
        Err(e) => {
            return error_response(&ApiError::new(ErrorCode::BadJson, format!("bad JSON: {e}")))
        }
    };
    drop(parse_guard);
    match doc {
        Json::Arr(items) => {
            if items.is_empty() {
                return error_response(&ApiError::bad_request("empty batch"));
            }
            let responses: Vec<Json> = items
                .iter()
                .map(|item| match submit_one(item, state, recv_ns) {
                    Ok(ack) => ack.to_json(),
                    // Per-item errors are reported in place: one bad
                    // entry must not void its siblings' acknowledgments.
                    Err(error) => error.to_json(),
                })
                .collect();
            json_response(200, Json::Arr(responses))
        }
        doc => match submit_one(&doc, state, recv_ns) {
            Ok(ack) => json_response(200, ack.to_json()),
            Err(error) => error_response(&error),
        },
    }
}

/// Register one submission document; returns the acknowledgment.
fn submit_one(doc: &Json, state: &State, recv_ns: u64) -> Result<SubmitAck, ApiError> {
    let request = SubmitRequest::from_json(doc)?;
    let spec = spec_from_request(request, &state.programs)?;
    // Remember the program so later submissions can reference it by
    // hash instead of re-sending the source.
    let program_hash = state.programs.remember(&spec.program);
    let outcome = state.registry.submit_at(spec, recv_ns, |key| {
        state.queue.push(Task::Job(key.to_string())).is_ok()
    });
    match outcome {
        SubmitOutcome::Existing(view) => Ok(SubmitAck::Cached {
            view: job_view(&view),
            program_hash,
        }),
        SubmitOutcome::Fresh(key) => Ok(SubmitAck::Queued {
            job: key,
            program_hash,
        }),
        SubmitOutcome::Rejected => Err(ApiError::new(
            ErrorCode::QueueFull,
            "job queue is full, retry later",
        )),
    }
}

/// Resolve a validated [`SubmitRequest`] into an executable [`JobSpec`]:
/// app names are checked against the built-in table, `program_hash`
/// against the daemon's program index, and the per-request knobs are
/// laid over the default configuration.
pub fn spec_from_request(
    request: SubmitRequest,
    programs: &ProgramIndex,
) -> Result<JobSpec, ApiError> {
    let program = match request.program {
        ProgramRef::App(name) => {
            if scalana_apps::by_name(&name).is_none() {
                return Err(ApiError::new(
                    ErrorCode::UnknownApp,
                    format!("unknown app `{name}`"),
                ));
            }
            JobProgram::App(name)
        }
        ProgramRef::Source { name, text } => JobProgram::Source { name, text },
        ProgramRef::Hash(hash) => programs.resolve(&hash).ok_or_else(|| {
            ApiError::new(
                ErrorCode::UnknownProgramHash,
                format!(
                    "unknown program hash `{hash}` (never seen or evicted; re-send the source)"
                ),
            )
        })?,
    };

    let scales = request
        .scales
        .unwrap_or_else(|| dto::DEFAULT_SCALES.to_vec());
    let mut config = ScalAnaConfig::default();
    if let Some(thd) = request.abnorm_thd {
        config.detect.abnorm_thd = thd;
    }
    if let Some(top) = request.top {
        config.detect.top_k = top;
    }
    if let Some(depth) = request.max_loop_depth {
        config.psg.max_loop_depth = depth;
    }
    for (name, value) in request.params {
        config.params.insert(name, value);
    }
    Ok(JobSpec {
        program,
        scales,
        config,
    })
}

fn result(key: &str, state: &State) -> Response {
    let Some(view) = state.registry.status(key) else {
        return error_response(&ApiError::new(ErrorCode::UnknownJob, "unknown job"));
    };
    match (view.status, &view.result) {
        (JobStatus::Done, Some(output)) => Response {
            code: 200,
            content_type: "application/json".to_string(),
            body: bytes::Bytes::from(
                dto::render_result(
                    key,
                    &output.report_json,
                    &output.runs_json,
                    output.detect_seconds,
                )
                .into_bytes(),
            ),
            headers: Vec::new(),
        },
        (JobStatus::Failed, _) => error_response(&ApiError::new(
            ErrorCode::JobFailed,
            view.error.as_deref().unwrap_or("job failed"),
        )),
        _ => error_response(&ApiError::new(ErrorCode::JobPending, "job still pending")),
    }
}

fn profile(key: &str, nprocs: &str, state: &State) -> Response {
    let Ok(nprocs) = nprocs.parse::<usize>() else {
        return error_response(&ApiError::bad_request("bad process count"));
    };
    let Some(view) = state.registry.status(key) else {
        return error_response(&ApiError::new(ErrorCode::UnknownJob, "unknown job"));
    };
    match (view.status, &view.result) {
        (JobStatus::Done, Some(output)) => {
            match output.profiles.iter().find(|(p, _)| *p == nprocs) {
                // A `Bytes` clone shares the allocation — no per-request
                // copy of a potentially tens-of-MiB image.
                Some((_, image)) => Response {
                    code: 200,
                    content_type: "application/octet-stream".to_string(),
                    body: image.clone(),
                    headers: Vec::new(),
                },
                None => error_response(&ApiError::new(
                    ErrorCode::NotFound,
                    "no profile at that scale",
                )),
            }
        }
        (JobStatus::Failed, _) => error_response(&ApiError::new(
            ErrorCode::JobFailed,
            view.error.as_deref().unwrap_or("job failed"),
        )),
        _ => error_response(&ApiError::new(ErrorCode::JobPending, "job still pending")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A submission body through the daemon's own path: JSON parse
    /// (as `submit` does), [`SubmitRequest::from_json`], then
    /// [`spec_from_request`].
    fn spec_from_body(body: &str, programs: &ProgramIndex) -> Result<JobSpec, ApiError> {
        let doc =
            parse(body).map_err(|e| ApiError::new(ErrorCode::BadJson, format!("bad JSON: {e}")))?;
        let request = SubmitRequest::from_json(&doc)?;
        spec_from_request(request, programs)
    }

    #[test]
    fn parse_submit_accepts_app_and_source_forms() {
        let programs = ProgramIndex::new(1);
        let spec = spec_from_body(r#"{"app":"CG","scales":[2,4],"top":3}"#, &programs).unwrap();
        assert!(matches!(&spec.program, JobProgram::App(n) if n == "CG"));
        assert_eq!(spec.scales, vec![2, 4]);
        assert_eq!(spec.config.detect.top_k, 3);

        let spec = spec_from_body(
            r#"{"source":"fn main() { }","name":"x.mmpi","params":{"N":5},"abnorm_thd":1.5}"#,
            &programs,
        )
        .unwrap();
        assert!(matches!(&spec.program, JobProgram::Source { name, .. } if name == "x.mmpi"));
        assert_eq!(spec.scales, vec![4, 8, 16, 32], "default scales");
        assert_eq!(spec.config.params["N"], 5);
        assert!((spec.config.detect.abnorm_thd - 1.5).abs() < 1e-12);
    }

    #[test]
    fn parse_submit_rejects_bad_requests() {
        let programs = ProgramIndex::new(1);
        for (body, needle) in [
            ("{}", "exactly one"),
            (r#"{"app":"CG","source":"x"}"#, "exactly one"),
            (r#"{"app":"CG","program_hash":"ab"}"#, "exactly one"),
            (r#"{"app":"NOPE"}"#, "unknown app"),
            (r#"{"app":"CG","scales":[8,4]}"#, "ascending"),
            (r#"{"app":"CG","scales":[0]}"#, "1..="),
            (r#"{"app":"CG","scales":[1000000000]}"#, "1..="),
            (r#"{"app":"CG","max_loop_depth":4294967296}"#, "32-bit"),
            (r#"{"app":"CG","scales":"4"}"#, "array"),
            (r#"{"app":"CG","params":{"N":"x"}}"#, "integer"),
            (r#"{"app":"CG","wat":1}"#, "unknown field"),
            ("not json", "bad JSON"),
        ] {
            let err = spec_from_body(body, &programs).unwrap_err();
            assert_eq!(err.http_status(), 400, "{body} -> {}", err.message);
            assert!(err.message.contains(needle), "{body} -> {}", err.message);
        }
    }

    #[test]
    fn spec_from_doc_resolves_program_hashes() {
        let programs = ProgramIndex::new(0);
        let original = JobProgram::Source {
            name: "h.mmpi".to_string(),
            text: "fn main() { }".to_string(),
        };
        let hash = programs.remember(&original);

        let body = format!(r#"{{"program_hash":"{hash}","scales":[2,4]}}"#);
        let spec = spec_from_body(&body, &programs).unwrap();
        assert_eq!(spec.program.content_hash(), hash);
        assert_eq!(spec.scales, vec![2, 4]);

        let err = spec_from_body(r#"{"program_hash":"doesnotexist0000"}"#, &programs).unwrap_err();
        assert_eq!(
            err.http_status(),
            404,
            "unknown hash is Not Found, not Bad Request"
        );
        assert!(err.message.contains("re-send"), "{}", err.message);
    }

    #[test]
    fn routing_tables_cover_every_endpoint_constant() {
        // The allow-list is the routing contract; every path the api
        // crate publishes must be known to it (and unknown ones not).
        for (target, method) in [
            (paths::HEALTHZ.to_string(), "GET"),
            (paths::STATS.to_string(), "GET"),
            (paths::METRICS.to_string(), "GET"),
            (paths::SHUTDOWN.to_string(), "POST"),
            (paths::JOBS.to_string(), "POST"),
            (paths::jobs_list(Some("done"), Some(5), None), "GET"),
            (paths::job("k"), "GET"),
            (paths::job_result("k"), "GET"),
            (paths::job_profile("k", 8), "GET"),
            (paths::job_wait("k", 100), "GET"),
            (paths::job_trace("k"), "GET"),
            (paths::STORE.to_string(), "GET"),
            (paths::STORE_GC.to_string(), "POST"),
        ] {
            let (path, _) = paths::split_target(&target);
            let segments: Vec<&str> = path
                .split('/')
                .filter(|s| !s.is_empty() && *s != paths::API_VERSION)
                .collect();
            let allowed =
                allowed_methods(&segments).unwrap_or_else(|| panic!("no allow entry for {target}"));
            assert!(
                allowed.split(", ").any(|m| m == method),
                "{method} {target} not allowed by `{allowed}`"
            );
        }
        assert!(allowed_methods(&["nope"]).is_none());
        assert!(allowed_methods(&["jobs", "k", "nope"]).is_none());
    }
}
