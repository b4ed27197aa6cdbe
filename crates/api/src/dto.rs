//! Typed request/response DTOs of the `/v1` protocol.
//!
//! Every body the service reads or writes has a type here with explicit
//! `from_json`/`to_json` conversions through the canonical
//! [`crate::json`] layer, so the server, the bundled client, and the CLI
//! share one definition of the wire shape. The structs also carry the
//! vendored `serde` derives; in this offline workspace those derives are
//! inert markers (see `vendor/serde`), and the hand-rolled conversions
//! are the operative encoding — swapping in the real `serde` would make
//! the derives live without changing any shape.
//!
//! Field order in `to_json` is part of the contract: the canonical JSON
//! layer preserves insertion order, and integration tests compare
//! response documents byte-for-byte.

use crate::error::{ApiError, ErrorCode};
use crate::json::Json;
use serde::{Deserialize, Serialize};

/// Largest accepted process count per scale. The simulator allocates
/// per-rank state, so an unbounded request (`"scales":[1000000000]`)
/// would OOM a worker; the paper's largest runs are a few thousand
/// ranks, so this guardrail costs nothing real.
pub const MAX_SCALE: usize = 65_536;

/// Scales assumed when a submission omits `scales`.
pub const DEFAULT_SCALES: [usize; 4] = [4, 8, 16, 32];

/// Default server-side budget of `GET /v1/jobs/<id>/wait`.
pub const DEFAULT_WAIT_MS: u64 = 10_000;

/// Largest server-side budget of `GET /v1/jobs/<id>/wait`; larger
/// requested budgets are clamped, and clients needing longer waits
/// simply re-issue (the response is the current status either way).
pub const MAX_WAIT_MS: u64 = 25_000;

/// Default page size of `GET /v1/jobs`.
pub const DEFAULT_LIST_LIMIT: usize = 50;

/// Largest page size of `GET /v1/jobs`.
pub const MAX_LIST_LIMIT: usize = 500;

/// Default (and historical hard) page size of the `GET /v1/store` file
/// listing. An unqueried request serves exactly this many files, byte
/// identical to the pre-pagination response.
pub const DEFAULT_STORE_LIST_LIMIT: usize = 256;

/// Largest page size of `GET /v1/store`.
pub const MAX_STORE_LIST_LIMIT: usize = 1024;

/// Lifecycle states a job can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; result retrievable.
    Done,
    /// Execution failed; `error` carries the cause.
    Failed,
}

impl JobState {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }

    /// Parse a wire name.
    pub fn parse(name: &str) -> Option<JobState> {
        Some(match name {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            _ => return None,
        })
    }

    /// Whether the state is final (`done` or `failed`).
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed)
    }
}

/// What program a submission analyzes — exactly one of the three forms.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProgramRef {
    /// A built-in workload by Table II name (`CG`, `ZMP`, ...).
    App(String),
    /// Inline MiniMPI source shipped with the request.
    Source {
        /// File name used in `file:line` locations.
        name: String,
        /// The program text.
        text: String,
    },
    /// Content hash of a program the daemon has already seen
    /// (`program_hash` from an earlier submit response).
    Hash(String),
}

/// `POST /v1/jobs` request body (one submission; the batched form is a
/// JSON array of these).
///
/// ```json
/// {"app": "CG", "scales": [4, 8], "top": 3}
/// {"source": "fn main() { ... }", "name": "demo.mmpi",
///  "scales": [2, 4], "abnorm_thd": 1.5, "max_loop_depth": 6,
///  "params": {"N": 100000}}
/// {"program_hash": "f00f5ca1a71e57ed", "scales": [2, 4, 8, 16]}
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubmitRequest {
    /// The program to analyze.
    pub program: ProgramRef,
    /// Ascending process counts; `None` means [`DEFAULT_SCALES`].
    pub scales: Option<Vec<usize>>,
    /// `AbnormThd` override.
    pub abnorm_thd: Option<f64>,
    /// Root-cause `top_k` override.
    pub top: Option<usize>,
    /// `MaxLoopDepth` override.
    pub max_loop_depth: Option<u32>,
    /// Program-parameter overrides, in request order.
    pub params: Vec<(String, i64)>,
}

/// Keys a submission object may carry; anything else is rejected with
/// [`ErrorCode::UnknownField`] so typos fail loudly instead of being
/// silently ignored.
const SUBMIT_KEYS: &[&str] = &[
    "app",
    "source",
    "name",
    "program_hash",
    "scales",
    "abnorm_thd",
    "top",
    "max_loop_depth",
    "params",
];

impl SubmitRequest {
    /// Submit a built-in app.
    pub fn app(name: impl Into<String>) -> SubmitRequest {
        SubmitRequest::of(ProgramRef::App(name.into()))
    }

    /// Submit inline source.
    pub fn source(name: impl Into<String>, text: impl Into<String>) -> SubmitRequest {
        SubmitRequest::of(ProgramRef::Source {
            name: name.into(),
            text: text.into(),
        })
    }

    /// Submit by content hash of a previously seen program.
    pub fn hash(hash: impl Into<String>) -> SubmitRequest {
        SubmitRequest::of(ProgramRef::Hash(hash.into()))
    }

    fn of(program: ProgramRef) -> SubmitRequest {
        SubmitRequest {
            program,
            scales: None,
            abnorm_thd: None,
            top: None,
            max_loop_depth: None,
            params: Vec::new(),
        }
    }

    /// Set the scale list.
    pub fn with_scales(mut self, scales: Vec<usize>) -> SubmitRequest {
        self.scales = Some(scales);
        self
    }

    /// Decode and validate a parsed submission document.
    pub fn from_json(doc: &Json) -> Result<SubmitRequest, ApiError> {
        let Json::Obj(pairs) = doc else {
            return Err(ApiError::bad_request("submission must be a JSON object"));
        };
        if let Some((key, _)) = pairs
            .iter()
            .find(|(k, _)| !SUBMIT_KEYS.contains(&k.as_str()))
        {
            return Err(ApiError::new(
                ErrorCode::UnknownField,
                format!("unknown field `{key}`"),
            ));
        }

        let program = match (doc.get("app"), doc.get("source"), doc.get("program_hash")) {
            (Some(app), None, None) => {
                if doc.get("name").is_some() {
                    return Err(ApiError::bad_request("`name` requires `source`"));
                }
                ProgramRef::App(
                    app.as_str()
                        .ok_or_else(|| ApiError::bad_request("`app` must be a string"))?
                        .to_string(),
                )
            }
            (None, Some(source), None) => ProgramRef::Source {
                name: match doc.get("name") {
                    None => "inline.mmpi".to_string(),
                    Some(name) => name
                        .as_str()
                        .ok_or_else(|| ApiError::bad_request("`name` must be a string"))?
                        .to_string(),
                },
                text: source
                    .as_str()
                    .ok_or_else(|| ApiError::bad_request("`source` must be a string"))?
                    .to_string(),
            },
            (None, None, Some(hash)) => {
                if doc.get("name").is_some() {
                    return Err(ApiError::bad_request("`name` requires `source`"));
                }
                ProgramRef::Hash(
                    hash.as_str()
                        .ok_or_else(|| ApiError::bad_request("`program_hash` must be a string"))?
                        .to_string(),
                )
            }
            _ => {
                return Err(ApiError::bad_request(
                    "exactly one of `app`, `source`, or `program_hash` is required",
                ))
            }
        };

        let scales = match doc.get("scales") {
            None => None,
            Some(value) => {
                let items = value
                    .as_array()
                    .ok_or_else(|| ApiError::bad_request("`scales` must be an array"))?;
                let scales: Vec<usize> = items
                    .iter()
                    .map(|v| {
                        v.as_i64()
                            .filter(|n| (1..=MAX_SCALE as i64).contains(n))
                            .map(|n| n as usize)
                            .ok_or_else(|| {
                                ApiError::bad_request(format!(
                                    "`scales` entries must be integers in 1..={MAX_SCALE}"
                                ))
                            })
                    })
                    .collect::<Result<_, _>>()?;
                if scales.is_empty() || scales.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(ApiError::bad_request(
                        "`scales` must be a strictly ascending list",
                    ));
                }
                Some(scales)
            }
        };

        let abnorm_thd = doc
            .get("abnorm_thd")
            .map(|v| {
                v.as_f64()
                    .ok_or_else(|| ApiError::bad_request("`abnorm_thd` must be a number"))
            })
            .transpose()?;
        let top = doc
            .get("top")
            .map(|v| {
                v.as_i64()
                    .filter(|n| *n >= 0)
                    .map(|n| n as usize)
                    .ok_or_else(|| ApiError::bad_request("`top` must be a non-negative integer"))
            })
            .transpose()?;
        let max_loop_depth = doc
            .get("max_loop_depth")
            .map(|v| {
                v.as_i64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| {
                        ApiError::bad_request(
                            "`max_loop_depth` must be a non-negative 32-bit integer",
                        )
                    })
            })
            .transpose()?;

        let mut params = Vec::new();
        if let Some(v) = doc.get("params") {
            let Json::Obj(pairs) = v else {
                return Err(ApiError::bad_request("`params` must be an object"));
            };
            for (name, value) in pairs {
                let value = value.as_i64().ok_or_else(|| {
                    ApiError::bad_request(format!("param `{name}` must be an integer"))
                })?;
                params.push((name.clone(), value));
            }
        }

        Ok(SubmitRequest {
            program,
            scales,
            abnorm_thd,
            top,
            max_loop_depth,
            params,
        })
    }

    /// Canonical request body.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(&str, Json)> = Vec::new();
        match &self.program {
            ProgramRef::App(name) => pairs.push(("app", name.as_str().into())),
            ProgramRef::Source { name, text } => {
                pairs.push(("source", text.as_str().into()));
                pairs.push(("name", name.as_str().into()));
            }
            ProgramRef::Hash(hash) => pairs.push(("program_hash", hash.as_str().into())),
        }
        if let Some(scales) = &self.scales {
            pairs.push(("scales", scales.clone().into()));
        }
        if let Some(thd) = self.abnorm_thd {
            pairs.push(("abnorm_thd", thd.into()));
        }
        if let Some(top) = self.top {
            pairs.push(("top", top.into()));
        }
        if let Some(depth) = self.max_loop_depth {
            pairs.push(("max_loop_depth", depth.into()));
        }
        if !self.params.is_empty() {
            pairs.push((
                "params",
                Json::Obj(
                    self.params
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Int(*v)))
                        .collect(),
                ),
            ));
        }
        Json::obj(pairs)
    }
}

/// Status document of one job (`GET /v1/jobs/<id>`, also embedded in
/// listings and cache-hit submit responses).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobView {
    /// Content-addressed job key.
    pub job: String,
    /// Human-readable program label.
    pub program: String,
    /// Requested scales.
    pub scales: Vec<usize>,
    /// Current state.
    pub status: JobState,
    /// Failure cause, when `failed`.
    pub error: Option<String>,
}

impl JobView {
    /// Canonical response body.
    pub fn to_json(&self) -> Json {
        Json::Obj(self.pairs())
    }

    fn pairs(&self) -> Vec<(String, Json)> {
        let mut pairs = vec![
            ("job".to_string(), Json::from(self.job.as_str())),
            ("program".to_string(), self.program.as_str().into()),
            ("scales".to_string(), self.scales.clone().into()),
            ("status".to_string(), self.status.as_str().into()),
        ];
        if let Some(error) = &self.error {
            pairs.push(("error".to_string(), error.as_str().into()));
        }
        pairs
    }

    /// Decode a status document.
    pub fn from_json(doc: &Json) -> Option<JobView> {
        Some(JobView {
            job: doc.get("job")?.as_str()?.to_string(),
            program: doc.get("program")?.as_str()?.to_string(),
            scales: doc
                .get("scales")?
                .as_array()?
                .iter()
                .map(|v| v.as_i64().map(|n| n as usize))
                .collect::<Option<_>>()?,
            status: JobState::parse(doc.get("status")?.as_str()?)?,
            error: doc.get("error").and_then(Json::as_str).map(str::to_string),
        })
    }
}

/// `POST /v1/jobs` response (per submission; the batched form answers
/// with an array of these, errors reported in place).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SubmitAck {
    /// New work was registered and enqueued.
    Queued {
        /// Content-addressed job key.
        job: String,
        /// Content hash of the submitted program (usable as
        /// `program_hash` in later submissions).
        program_hash: String,
    },
    /// The job already existed — answered from the registry, whether
    /// completed or still in flight.
    Cached {
        /// The existing job's status view.
        view: JobView,
        /// Content hash of the submitted program.
        program_hash: String,
    },
}

impl SubmitAck {
    /// The job key, either way.
    pub fn job(&self) -> &str {
        match self {
            SubmitAck::Queued { job, .. } => job,
            SubmitAck::Cached { view, .. } => &view.job,
        }
    }

    /// Whether the submission was answered from an existing record.
    pub fn cached(&self) -> bool {
        matches!(self, SubmitAck::Cached { .. })
    }

    /// Canonical response body.
    pub fn to_json(&self) -> Json {
        match self {
            SubmitAck::Queued { job, program_hash } => Json::obj(vec![
                ("job", job.as_str().into()),
                ("status", JobState::Queued.as_str().into()),
                ("cached", false.into()),
                ("program_hash", program_hash.as_str().into()),
            ]),
            SubmitAck::Cached { view, program_hash } => {
                let mut pairs = view.pairs();
                pairs.push(("cached".to_string(), Json::Bool(true)));
                pairs.push(("program_hash".to_string(), program_hash.as_str().into()));
                Json::Obj(pairs)
            }
        }
    }

    /// Decode a submit response.
    pub fn from_json(doc: &Json) -> Option<SubmitAck> {
        let program_hash = doc.get("program_hash")?.as_str()?.to_string();
        if doc.get("cached")?.as_bool()? {
            Some(SubmitAck::Cached {
                view: JobView::from_json(doc)?,
                program_hash,
            })
        } else {
            Some(SubmitAck::Queued {
                job: doc.get("job")?.as_str()?.to_string(),
                program_hash,
            })
        }
    }
}

/// Decoded query of `GET /v1/jobs`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ListQuery {
    /// Only jobs in this state (`None` = all).
    pub state: Option<JobState>,
    /// Page size, `1..=`[`MAX_LIST_LIMIT`].
    pub limit: usize,
    /// Exclusive lower bound on the job key (the previous page's
    /// `next_after`).
    pub after: Option<String>,
}

impl Default for ListQuery {
    fn default() -> ListQuery {
        ListQuery {
            state: None,
            limit: DEFAULT_LIST_LIMIT,
            after: None,
        }
    }
}

impl ListQuery {
    /// Decode and validate the query pairs of a listing request.
    pub fn from_query(pairs: &[(&str, &str)]) -> Result<ListQuery, ApiError> {
        let mut query = ListQuery::default();
        for (key, value) in pairs {
            match *key {
                "state" => {
                    query.state = Some(JobState::parse(value).ok_or_else(|| {
                        ApiError::bad_request(
                            "`state` must be one of queued, running, done, failed",
                        )
                    })?);
                }
                "limit" => {
                    query.limit = value
                        .parse::<usize>()
                        .ok()
                        .filter(|n| (1..=MAX_LIST_LIMIT).contains(n))
                        .ok_or_else(|| {
                            ApiError::bad_request(format!(
                                "`limit` must be an integer in 1..={MAX_LIST_LIMIT}"
                            ))
                        })?;
                }
                "after" => query.after = Some(value.to_string()),
                other => {
                    return Err(ApiError::new(
                        ErrorCode::UnknownField,
                        format!("unknown query parameter `{other}`"),
                    ))
                }
            }
        }
        Ok(query)
    }
}

/// `GET /v1/jobs` response: one page of jobs ordered by key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobPage {
    /// The page, ascending by job key.
    pub jobs: Vec<JobView>,
    /// Cursor for the next page (`None` when this is the last one).
    pub next_after: Option<String>,
}

impl JobPage {
    /// Canonical response body.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "jobs",
                Json::Arr(self.jobs.iter().map(JobView::to_json).collect()),
            ),
            ("count", self.jobs.len().into()),
            (
                "next_after",
                self.next_after.as_deref().map_or(Json::Null, Json::from),
            ),
        ])
    }

    /// Decode a listing response.
    pub fn from_json(doc: &Json) -> Option<JobPage> {
        Some(JobPage {
            jobs: doc
                .get("jobs")?
                .as_array()?
                .iter()
                .map(JobView::from_json)
                .collect::<Option<_>>()?,
            next_after: doc
                .get("next_after")
                .and_then(Json::as_str)
                .map(str::to_string),
        })
    }
}

/// Decoded query of `GET /v1/jobs/<id>/wait`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WaitQuery {
    /// Server-side budget, already clamped to [`MAX_WAIT_MS`].
    pub timeout_ms: u64,
}

impl WaitQuery {
    /// Decode and validate the query pairs of a wait request.
    pub fn from_query(pairs: &[(&str, &str)]) -> Result<WaitQuery, ApiError> {
        let mut timeout_ms = DEFAULT_WAIT_MS;
        for (key, value) in pairs {
            match *key {
                "timeout_ms" => {
                    timeout_ms = value.parse::<u64>().map_err(|_| {
                        ApiError::bad_request("`timeout_ms` must be a non-negative integer")
                    })?;
                }
                other => {
                    return Err(ApiError::new(
                        ErrorCode::UnknownField,
                        format!("unknown query parameter `{other}`"),
                    ))
                }
            }
        }
        Ok(WaitQuery {
            timeout_ms: timeout_ms.min(MAX_WAIT_MS),
        })
    }
}

/// Decoded query of `GET /v1/store` — keyset pagination over the
/// name-sorted file listing, same `after`/`limit` semantics as
/// [`ListQuery`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreQuery {
    /// Page size, `1..=`[`MAX_STORE_LIST_LIMIT`].
    pub limit: usize,
    /// Exclusive lower bound on the file name (the previous page's
    /// `next_after`).
    pub after: Option<String>,
}

impl Default for StoreQuery {
    fn default() -> StoreQuery {
        StoreQuery {
            limit: DEFAULT_STORE_LIST_LIMIT,
            after: None,
        }
    }
}

impl StoreQuery {
    /// Decode and validate the query pairs of a store listing request.
    pub fn from_query(pairs: &[(&str, &str)]) -> Result<StoreQuery, ApiError> {
        let mut query = StoreQuery::default();
        for (key, value) in pairs {
            match *key {
                "limit" => {
                    query.limit = value
                        .parse::<usize>()
                        .ok()
                        .filter(|n| (1..=MAX_STORE_LIST_LIMIT).contains(n))
                        .ok_or_else(|| {
                            ApiError::bad_request(format!(
                                "`limit` must be an integer in 1..={MAX_STORE_LIST_LIMIT}"
                            ))
                        })?;
                }
                "after" => query.after = Some(value.to_string()),
                other => {
                    return Err(ApiError::new(
                        ErrorCode::UnknownField,
                        format!("unknown query parameter `{other}`"),
                    ))
                }
            }
        }
        Ok(query)
    }
}

/// `GET /v1/stats` response — the daemon's monotonic counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatsResponse {
    /// Worker threads.
    pub workers: usize,
    /// Jobs waiting in the bounded queue lane.
    pub queue_depth: usize,
    /// Completed results currently cached.
    pub results_cached: usize,
    /// Submissions accepted (fresh + hits).
    pub submitted: u64,
    /// Submissions answered from an existing record.
    pub cache_hits: u64,
    /// Submissions that created a new job.
    pub cache_misses: u64,
    /// Submissions rejected because the queue was full.
    pub rejected: u64,
    /// Pipeline executions started by workers.
    pub executed: u64,
    /// Jobs completed successfully.
    pub completed: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Completed results evicted by the capacity bound.
    pub evicted: u64,
    /// Requested scales answered from the per-scale profile cache.
    pub scale_hits: u64,
    /// Requested scales that had to be simulated.
    pub scale_misses: u64,
    /// Profile images evicted by the capacity bound.
    pub scale_evicted: u64,
    /// Profile images currently cached.
    pub profiles_cached: usize,
    /// Refined-PSG cache hits.
    pub psg_hits: u64,
    /// Refined-PSG cache misses.
    pub psg_misses: u64,
    /// Programs indexed for `program_hash` reuse.
    pub programs_indexed: usize,
    /// Entries persisted to the durable store (0 without `--store-dir`).
    pub store_writes: u64,
    /// Failed store write attempts.
    pub store_write_errors: u64,
    /// Store writes skipped while degraded to memory-only mode.
    pub store_skipped: u64,
    /// Files quarantined as corrupt, torn, alien, or orphaned.
    pub store_quarantined: u64,
    /// Entries loaded from disk (warm scan + read-through).
    pub store_loaded: u64,
    /// Entries removed by the store's quota sweep.
    pub store_evicted: u64,
    /// Live entries in the store directory.
    pub store_entries: u64,
    /// Bytes of live store entries.
    pub store_bytes: u64,
    /// 1 while the store's write breaker is open (memory-only), else 0.
    pub store_degraded: u64,
    /// Daemon crate version, so fleet tooling can tell restarts from
    /// stalls (empty when talking to a pre-version daemon).
    pub version: String,
    /// Milliseconds since the daemon started.
    pub uptime_ms: u64,
}

impl StatsResponse {
    /// Canonical response body (field order is the contract).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("workers", self.workers.into()),
            ("queue_depth", self.queue_depth.into()),
            ("results_cached", self.results_cached.into()),
            ("submitted", self.submitted.into()),
            ("cache_hits", self.cache_hits.into()),
            ("cache_misses", self.cache_misses.into()),
            ("rejected", self.rejected.into()),
            ("executed", self.executed.into()),
            ("completed", self.completed.into()),
            ("failed", self.failed.into()),
            ("evicted", self.evicted.into()),
            ("scale_hits", self.scale_hits.into()),
            ("scale_misses", self.scale_misses.into()),
            ("scale_evicted", self.scale_evicted.into()),
            ("profiles_cached", self.profiles_cached.into()),
            ("psg_hits", self.psg_hits.into()),
            ("psg_misses", self.psg_misses.into()),
            ("programs_indexed", self.programs_indexed.into()),
            ("store_writes", self.store_writes.into()),
            ("store_write_errors", self.store_write_errors.into()),
            ("store_skipped", self.store_skipped.into()),
            ("store_quarantined", self.store_quarantined.into()),
            ("store_loaded", self.store_loaded.into()),
            ("store_evicted", self.store_evicted.into()),
            ("store_entries", self.store_entries.into()),
            ("store_bytes", self.store_bytes.into()),
            ("store_degraded", self.store_degraded.into()),
            ("version", self.version.as_str().into()),
            ("uptime_ms", self.uptime_ms.into()),
        ])
    }

    /// Decode a stats document (absent counters read as 0).
    pub fn from_json(doc: &Json) -> StatsResponse {
        let n = |key: &str| doc.get(key).and_then(Json::as_i64).unwrap_or(0);
        StatsResponse {
            workers: n("workers") as usize,
            queue_depth: n("queue_depth") as usize,
            results_cached: n("results_cached") as usize,
            submitted: n("submitted") as u64,
            cache_hits: n("cache_hits") as u64,
            cache_misses: n("cache_misses") as u64,
            rejected: n("rejected") as u64,
            executed: n("executed") as u64,
            completed: n("completed") as u64,
            failed: n("failed") as u64,
            evicted: n("evicted") as u64,
            scale_hits: n("scale_hits") as u64,
            scale_misses: n("scale_misses") as u64,
            scale_evicted: n("scale_evicted") as u64,
            profiles_cached: n("profiles_cached") as usize,
            psg_hits: n("psg_hits") as u64,
            psg_misses: n("psg_misses") as u64,
            programs_indexed: n("programs_indexed") as usize,
            store_writes: n("store_writes") as u64,
            store_write_errors: n("store_write_errors") as u64,
            store_skipped: n("store_skipped") as u64,
            store_quarantined: n("store_quarantined") as u64,
            store_loaded: n("store_loaded") as u64,
            store_evicted: n("store_evicted") as u64,
            store_entries: n("store_entries") as u64,
            store_bytes: n("store_bytes") as u64,
            store_degraded: n("store_degraded") as u64,
            version: doc
                .get("version")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            uptime_ms: n("uptime_ms") as u64,
        }
    }
}

/// Render the result document of a completed job by splicing the
/// pre-rendered canonical fragments: results are fetched repeatedly, so
/// the report/runs trees are serialized once at completion and every
/// request reuses those exact bytes. Field syntax stays valid because
/// each fragment is itself canonical JSON.
pub fn render_result(job: &str, report_json: &str, runs_json: &str, detect_seconds: f64) -> String {
    let mut body = String::with_capacity(report_json.len() + runs_json.len() + 96);
    body.push_str("{\"job\":");
    body.push_str(&Json::from(job).render());
    body.push_str(",\"report\":");
    body.push_str(report_json);
    body.push_str(",\"runs\":");
    body.push_str(runs_json);
    body.push_str(",\"detect_seconds\":");
    body.push_str(&Json::Num(detect_seconds).render());
    body.push('}');
    body
}

/// Decoded `GET /v1/jobs/<id>/result` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultView {
    /// Job key.
    pub job: String,
    /// The detection report document.
    pub report: Json,
    /// Per-scale run summaries.
    pub runs: Json,
    /// Wall-clock detection seconds (not deterministic).
    pub detect_seconds: f64,
}

impl ResultView {
    /// Decode a result document.
    pub fn from_json(doc: &Json) -> Option<ResultView> {
        Some(ResultView {
            job: doc.get("job")?.as_str()?.to_string(),
            report: doc.get("report")?.clone(),
            runs: doc.get("runs")?.clone(),
            detect_seconds: doc.get("detect_seconds")?.as_f64()?,
        })
    }
}

/// The `{"ok":true}` body of `/v1/shutdown`.
pub fn ok_body() -> Json {
    Json::obj(vec![("ok", true.into())])
}

/// The `/v1/healthz` body: liveness plus enough identity for fleet
/// tooling to distinguish a restart (version change, uptime reset)
/// from a stall. The contract only grows — `ok` keeps its meaning.
pub fn health_body(version: &str, uptime_ms: u64) -> Json {
    Json::obj(vec![
        ("ok", true.into()),
        ("version", version.into()),
        ("uptime_ms", uptime_ms.into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn submit_request_round_trips_through_json() {
        let request = SubmitRequest {
            program: ProgramRef::Source {
                name: "x.mmpi".to_string(),
                text: "fn main() { }".to_string(),
            },
            scales: Some(vec![2, 4]),
            abnorm_thd: Some(1.5),
            top: Some(3),
            max_loop_depth: Some(6),
            params: vec![("N".to_string(), 5)],
        };
        let doc = request.to_json();
        assert_eq!(SubmitRequest::from_json(&doc).unwrap(), request);

        let app = SubmitRequest::app("CG").with_scales(vec![2, 4, 8]);
        assert_eq!(app.to_json().render(), r#"{"app":"CG","scales":[2,4,8]}"#);
        let hash = SubmitRequest::hash("f00f5ca1a71e57ed");
        assert_eq!(
            SubmitRequest::from_json(&hash.to_json()).unwrap().program,
            ProgramRef::Hash("f00f5ca1a71e57ed".to_string())
        );
    }

    #[test]
    fn submit_request_rejections_carry_codes() {
        for (body, code, needle) in [
            ("{}", ErrorCode::BadRequest, "exactly one"),
            (
                r#"{"app":"CG","source":"x"}"#,
                ErrorCode::BadRequest,
                "exactly one",
            ),
            (
                r#"{"app":"CG","wat":1}"#,
                ErrorCode::UnknownField,
                "unknown field `wat`",
            ),
            (
                r#"{"app":1}"#,
                ErrorCode::BadRequest,
                "`app` must be a string",
            ),
            (
                r#"{"app":"CG","name":"x"}"#,
                ErrorCode::BadRequest,
                "requires `source`",
            ),
            (
                r#"{"app":"CG","scales":"4"}"#,
                ErrorCode::BadRequest,
                "array",
            ),
            (
                r#"{"app":"CG","scales":[8,4]}"#,
                ErrorCode::BadRequest,
                "ascending",
            ),
            (
                r#"{"app":"CG","scales":[0]}"#,
                ErrorCode::BadRequest,
                "1..=",
            ),
            (
                r#"{"app":"CG","scales":[1000000000]}"#,
                ErrorCode::BadRequest,
                "1..=",
            ),
            (
                r#"{"app":"CG","abnorm_thd":"x"}"#,
                ErrorCode::BadRequest,
                "number",
            ),
            (
                r#"{"app":"CG","top":-1}"#,
                ErrorCode::BadRequest,
                "non-negative",
            ),
            (
                r#"{"app":"CG","max_loop_depth":4294967296}"#,
                ErrorCode::BadRequest,
                "32-bit",
            ),
            (
                r#"{"app":"CG","params":[1]}"#,
                ErrorCode::BadRequest,
                "object",
            ),
            (
                r#"{"app":"CG","params":{"N":"x"}}"#,
                ErrorCode::BadRequest,
                "integer",
            ),
            ("[1]", ErrorCode::BadRequest, "JSON object"),
        ] {
            let err = SubmitRequest::from_json(&parse(body).unwrap()).unwrap_err();
            assert_eq!(err.code, code, "{body} -> {err}");
            assert!(err.message.contains(needle), "{body} -> {err}");
            assert!(!err.retryable, "contract violations are not retryable");
        }
    }

    #[test]
    fn acks_and_views_render_the_legacy_shapes() {
        let queued = SubmitAck::Queued {
            job: "abc".to_string(),
            program_hash: "ff00".to_string(),
        };
        assert_eq!(
            queued.to_json().render(),
            r#"{"job":"abc","status":"queued","cached":false,"program_hash":"ff00"}"#
        );
        let view = JobView {
            job: "abc".to_string(),
            program: "app:CG".to_string(),
            scales: vec![2, 4],
            status: JobState::Done,
            error: None,
        };
        let cached = SubmitAck::Cached {
            view: view.clone(),
            program_hash: "ff00".to_string(),
        };
        assert_eq!(
            cached.to_json().render(),
            r#"{"job":"abc","program":"app:CG","scales":[2,4],"status":"done","cached":true,"program_hash":"ff00"}"#
        );
        assert_eq!(SubmitAck::from_json(&cached.to_json()).unwrap(), cached);
        assert_eq!(SubmitAck::from_json(&queued.to_json()).unwrap(), queued);
        assert_eq!(JobView::from_json(&view.to_json()).unwrap(), view);
        assert!(cached.cached() && !queued.cached());
        assert_eq!(queued.job(), "abc");
    }

    #[test]
    fn list_and_wait_queries_validate() {
        let query =
            ListQuery::from_query(&[("state", "done"), ("limit", "10"), ("after", "ff")]).unwrap();
        assert_eq!(query.state, Some(JobState::Done));
        assert_eq!(query.limit, 10);
        assert_eq!(query.after.as_deref(), Some("ff"));
        assert_eq!(ListQuery::from_query(&[]).unwrap(), ListQuery::default());
        assert_eq!(
            ListQuery::from_query(&[("state", "nope")])
                .unwrap_err()
                .code,
            ErrorCode::BadRequest
        );
        assert_eq!(
            ListQuery::from_query(&[("limit", "0")]).unwrap_err().code,
            ErrorCode::BadRequest
        );
        assert_eq!(
            ListQuery::from_query(&[("wat", "1")]).unwrap_err().code,
            ErrorCode::UnknownField
        );

        assert_eq!(
            WaitQuery::from_query(&[]).unwrap().timeout_ms,
            DEFAULT_WAIT_MS
        );
        assert_eq!(
            WaitQuery::from_query(&[("timeout_ms", "99999999")])
                .unwrap()
                .timeout_ms,
            MAX_WAIT_MS,
            "over-budget waits clamp"
        );
        assert_eq!(
            WaitQuery::from_query(&[("timeout_ms", "-1")])
                .unwrap_err()
                .code,
            ErrorCode::BadRequest
        );
    }

    #[test]
    fn result_splicing_matches_a_tree_render() {
        let body = render_result("abc", r#"{"root_causes":[]}"#, "[{\"nprocs\":2}]", 0.25);
        let doc = parse(&body).unwrap();
        assert_eq!(doc.render(), body, "spliced body is canonical");
        let view = ResultView::from_json(&doc).unwrap();
        assert_eq!(view.job, "abc");
        assert!((view.detect_seconds - 0.25).abs() < 1e-12);
    }

    #[test]
    fn stats_round_trip() {
        let stats = StatsResponse {
            workers: 2,
            queue_depth: 1,
            submitted: 10,
            scale_hits: 7,
            ..StatsResponse::default()
        };
        let doc = stats.to_json();
        assert_eq!(StatsResponse::from_json(&doc), stats);
        assert!(doc.render().starts_with(r#"{"workers":2,"queue_depth":1,"#));
    }

    #[test]
    fn store_queries_validate() {
        assert_eq!(StoreQuery::from_query(&[]).unwrap(), StoreQuery::default());
        let query = StoreQuery::from_query(&[("after", "ff.profile"), ("limit", "7")]).unwrap();
        assert_eq!(query.limit, 7);
        assert_eq!(query.after.as_deref(), Some("ff.profile"));
        assert_eq!(
            StoreQuery::from_query(&[("limit", "0")]).unwrap_err().code,
            ErrorCode::BadRequest
        );
        assert_eq!(
            StoreQuery::from_query(&[("limit", "9999")])
                .unwrap_err()
                .code,
            ErrorCode::BadRequest
        );
        assert_eq!(
            StoreQuery::from_query(&[("state", "done")])
                .unwrap_err()
                .code,
            ErrorCode::UnknownField
        );
    }
}
