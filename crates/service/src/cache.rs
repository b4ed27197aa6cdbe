//! Content-addressed job registry and result cache.
//!
//! One logical map keyed by [`JobSpec::key`] holds every job the daemon
//! has seen, in whatever state. Because the key is a content address,
//! the registry *is* the cache: re-submitting an identical job finds
//! the existing record — completed (served from cache), or still in
//! flight (coalesced onto the running job) — and never re-runs the
//! simulator. Hit/miss counters are exported via `/stats`.
//!
//! The records, their completion order and the long-poll waiters parked
//! on each record sit behind one lock. While it is held the registry
//! only pushes onto the job queue (in [`Registry::submit`]'s `enqueue`)
//! and calls [`WaitWaker::wake`].

use crate::job::{JobOutput, JobSpec};
use scalana_api::trace::{TraceResponse, TraceSpan};
use scalana_obs as obs;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; result cached.
    Done,
    /// Execution failed; kept for inspection, replaced on re-submit.
    Failed,
}

impl JobStatus {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
        }
    }
}

/// One registry entry.
#[derive(Debug)]
pub struct JobRecord {
    /// The spec (kept so workers and status endpoints can read it).
    pub spec: JobSpec,
    /// Current status.
    pub status: JobStatus,
    /// Failure message, when `Failed`.
    pub error: Option<String>,
    /// Cached result, when `Done`.
    pub result: Option<Arc<JobOutput>>,
    /// Which execution owns this record. A failed multi-scale job can be
    /// resubmitted (fresh record, new generation) while late scale tasks
    /// of the previous attempt are still winding down; their
    /// [`Registry::fail`]/[`Registry::complete`] calls carry the old
    /// generation and must not clobber the retry.
    generation: u64,
    /// Observability epoch nanoseconds when the submission arrived at
    /// the server (request parsing began) — the trace's time zero.
    recv_ns: u64,
    /// When the fresh record was registered and enqueued.
    registered_ns: u64,
    /// When a worker claimed the job (0 until then).
    started_ns: u64,
    /// When the job reached `Done`/`Failed` (0 until then).
    terminal_ns: u64,
    /// Child spans of the execution (`resolve`, per-`scale`,
    /// `assemble`), attached by the worker just before the terminal
    /// transition; offsets are epoch nanoseconds, rebased at read.
    run_spans: Vec<TraceSpan>,
    /// Completion subscriptions ([`Registry::subscribe`]) parked on this
    /// job as `(token, waker)`, drained by the terminal transition. Only
    /// a `Queued` or `Running` record has any, so neither eviction (of a
    /// `Done` record) nor the replacement of a `Failed` one drops one.
    waiters: Vec<(u64, Arc<dyn WaitWaker>)>,
}

/// Status view returned to HTTP handlers (no lock held).
#[derive(Debug, Clone)]
pub struct StatusView {
    /// Job key.
    pub key: String,
    /// Program label.
    pub label: String,
    /// Scales.
    pub scales: Vec<usize>,
    /// Status.
    pub status: JobStatus,
    /// Failure message, when failed.
    pub error: Option<String>,
    /// Cached result, when done.
    pub result: Option<Arc<JobOutput>>,
}

/// Outcome of a submission.
#[derive(Debug)]
pub enum SubmitOutcome {
    /// New work: the job was registered and enqueued.
    Fresh(String),
    /// The job already exists — a cache hit (done or coalesced).
    Existing(StatusView),
    /// The queue refused the job; nothing was registered.
    Rejected,
}

/// Monotonic service counters, exported at `/stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Submissions accepted (fresh + hits; not queue-full rejections).
    pub submitted: u64,
    /// Submissions answered from an existing record.
    pub cache_hits: u64,
    /// Submissions that created a new job.
    pub cache_misses: u64,
    /// Submissions rejected because the queue was full.
    pub rejected: u64,
    /// Pipeline executions actually started by workers.
    pub executed: u64,
    /// Jobs completed successfully.
    pub completed: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Completed results evicted to respect the capacity bound.
    pub evicted: u64,
}

/// What the registry's one lock guards.
#[derive(Debug, Default)]
struct Jobs {
    records: HashMap<String, JobRecord>,
    /// Keys of the `Done` records in completion order, a repeat submit
    /// moving its key to the back — the FIFO eviction candidates.
    done_order: VecDeque<String>,
}

/// Sink for completion notifications: [`Registry::subscribe`] hands the
/// registry one of these per parked waiter, and the terminal transition
/// calls [`wake`](WaitWaker::wake) with the waiter's token. Called with
/// the registry lock held, so implementations must be quick and must
/// never call back into the registry (the daemon's implementation
/// pushes the token onto a ready queue and signals an eventfd).
pub trait WaitWaker: Send + Sync + std::fmt::Debug {
    /// Deliver a completion notification for the subscription `token`.
    fn wake(&self, token: u64);
}

/// Outcome of [`Registry::subscribe`].
#[derive(Debug)]
pub enum SubscribeOutcome {
    /// No record under that key (never submitted, or evicted).
    Unknown,
    /// Already terminal — answered inline, nothing parked.
    Terminal(StatusView),
    /// Parked: the waker fires when the job reaches a terminal state.
    Parked,
}

/// Outcome of a bounded wait for a job to finish.
#[derive(Debug)]
pub enum WaitOutcome {
    /// No record under that key (never submitted, or evicted).
    Unknown,
    /// The job reached `Done` or `Failed` within the budget.
    Terminal(StatusView),
    /// The budget elapsed first; the view is the still-pending state.
    Pending(StatusView),
}

/// Observability handles the registry reports into. Detached (inert)
/// by default so tests and library callers pay nothing; the daemon
/// wires them to its [`crate::metrics::ServiceMetrics`] registry via
/// [`Registry::with_obs`]. Result evictions need no handle here: the
/// registry counts them itself ([`StatsSnapshot::evicted`], which
/// `/v1/metrics` mirrors as `scalana_cache_result_evicted_total`).
#[derive(Debug, Default)]
pub struct RegistryObs {
    /// Long-poll waiters that actually parked.
    pub parks: obs::Counter,
    /// Parked waiters woken by a terminal transition (vs. timing out).
    pub wakes: obs::Counter,
    /// Subscriptions currently parked (gauge mirror of
    /// [`Registry::parked`]).
    pub parked: obs::Gauge,
    /// Fresh job registered → claimed by a worker.
    pub queue_wait_ns: obs::Histogram,
    /// Worker claim → terminal transition.
    pub job_ns: obs::Histogram,
}

/// The shared registry.
#[derive(Debug)]
pub struct Registry {
    jobs: Mutex<Jobs>,
    /// Observability sinks (inert unless wired by the daemon).
    obs: RegistryObs,
    /// Retain at most this many completed results (0 = unbounded). The
    /// daemon must bound it: each `JobOutput` holds per-scale profile
    /// images and each spec its full source text, so an unbounded map
    /// grows monotonically under a stream of distinct jobs until OOM.
    max_results: usize,
    /// Subscriptions currently parked (mirrored into `obs.parked` so
    /// `/v1/metrics` sees it without taking the lock).
    parked: AtomicUsize,
    /// Generation source for [`JobRecord::generation`].
    generations: AtomicU64,
    submitted: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    rejected: AtomicU64,
    executed: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    evicted: AtomicU64,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry {
            jobs: Mutex::default(),
            obs: RegistryObs::default(),
            max_results: 0,
            parked: AtomicUsize::new(0),
            generations: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }
}

impl Jobs {
    /// Move a repeat-submitted `done` job to the back of the eviction
    /// FIFO, so completions between a client's `wait` and its
    /// `GET result` evict older results first.
    fn refresh_done_order(&mut self, key: &str) {
        if let Some(index) = self.done_order.iter().rposition(|k| k == key) {
            if let Some(entry) = self.done_order.remove(index) {
                self.done_order.push_back(entry);
            }
        }
    }
}

fn view(key: &str, record: &JobRecord) -> StatusView {
    StatusView {
        key: key.to_string(),
        label: record.spec.label(),
        scales: record.spec.scales.clone(),
        status: record.status,
        error: record.error.clone(),
        result: record.result.clone(),
    }
}

impl Registry {
    /// Empty, unbounded registry (tests; the daemon uses
    /// [`Registry::with_result_capacity`]).
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Empty registry retaining at most `max_results` completed results
    /// (oldest evicted first; 0 means unbounded).
    pub fn with_result_capacity(max_results: usize) -> Registry {
        Registry {
            max_results,
            ..Registry::default()
        }
    }

    /// Wire the registry's observability events to live handles.
    pub fn with_obs(mut self, obs: RegistryObs) -> Registry {
        self.obs = obs;
        self
    }

    /// Register a submission. Failed jobs are retried (their record is
    /// replaced and the submission counts as a miss).
    ///
    /// `enqueue` is called *inside* the registry lock for fresh jobs
    /// and must be non-blocking (the bounded
    /// [`crate::queue::JobQueue::push`] is). Holding the lock makes
    /// lookup → register → enqueue atomic: without it, a concurrent
    /// identical submission could coalesce onto a record that a failed
    /// enqueue is about to roll back, leaving that client acknowledged
    /// for a job that no longer exists. When `enqueue` refuses, nothing
    /// is registered and no accepted-submission counter moves — only
    /// `rejected`.
    pub fn submit<F>(&self, spec: JobSpec, enqueue: F) -> SubmitOutcome
    where
        F: FnOnce(&str) -> bool,
    {
        self.submit_at(spec, obs::now_ns(), enqueue)
    }

    /// [`Registry::submit`] with an explicit arrival timestamp (epoch
    /// nanoseconds): the server stamps a submission when it starts
    /// parsing the request, so the job's trace accounts for the parse
    /// stage too. The stamp becomes the trace's time zero.
    pub fn submit_at<F>(&self, spec: JobSpec, recv_ns: u64, enqueue: F) -> SubmitOutcome
    where
        F: FnOnce(&str) -> bool,
    {
        let key = spec.key();
        let mut jobs = self.jobs.lock().unwrap();
        match jobs.records.get(&key) {
            Some(record) if record.status != JobStatus::Failed => {
                self.submitted.fetch_add(1, Ordering::Relaxed);
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                let hit = view(&key, record);
                if hit.status == JobStatus::Done {
                    jobs.refresh_done_order(&key);
                }
                SubmitOutcome::Existing(hit)
            }
            _ => {
                if !enqueue(&key) {
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    return SubmitOutcome::Rejected;
                }
                self.submitted.fetch_add(1, Ordering::Relaxed);
                self.cache_misses.fetch_add(1, Ordering::Relaxed);
                jobs.records.insert(
                    key.clone(),
                    JobRecord {
                        spec,
                        status: JobStatus::Queued,
                        error: None,
                        result: None,
                        generation: self.generations.fetch_add(1, Ordering::Relaxed),
                        recv_ns,
                        registered_ns: obs::now_ns(),
                        started_ns: 0,
                        terminal_ns: 0,
                        run_spans: Vec::new(),
                        waiters: Vec::new(),
                    },
                );
                SubmitOutcome::Fresh(key)
            }
        }
    }

    /// Worker claims a queued job; returns its spec plus the record's
    /// generation, which the execution must echo back to
    /// [`complete`](Registry::complete)/[`fail`](Registry::fail).
    pub fn start(&self, key: &str) -> Option<(JobSpec, u64)> {
        let mut jobs = self.jobs.lock().unwrap();
        let record = jobs.records.get_mut(key)?;
        if record.status != JobStatus::Queued {
            return None;
        }
        record.status = JobStatus::Running;
        record.started_ns = obs::now_ns();
        self.obs
            .queue_wait_ns
            .record(record.started_ns.saturating_sub(record.registered_ns));
        self.executed.fetch_add(1, Ordering::Relaxed);
        Some((record.spec.clone(), record.generation))
    }

    /// Worker finished successfully. No-ops unless the record is still
    /// the `Running` execution identified by `generation` — a late call
    /// from a superseded attempt must not touch a retry's record.
    /// When a result capacity is set, the oldest completed results are
    /// evicted to make room — an evicted job simply re-runs on its next
    /// submission.
    pub fn complete(&self, key: &str, generation: u64, output: JobOutput) {
        let mut jobs = self.jobs.lock().unwrap();
        let Some(record) = jobs.records.get_mut(key) else {
            return;
        };
        if record.status != JobStatus::Running || record.generation != generation {
            return;
        }
        record.status = JobStatus::Done;
        record.result = Some(Arc::new(output));
        record.error = None;
        record.terminal_ns = obs::now_ns();
        self.obs
            .job_ns
            .record(record.terminal_ns.saturating_sub(record.started_ns));
        let waiters = std::mem::take(&mut record.waiters);
        // Count the completion and evict before waking anyone: a client
        // woken by the transition must find `completed`/`results_cached`
        // already reflecting the job it just observed (`fail()` orders
        // its counter the same way).
        self.completed.fetch_add(1, Ordering::Relaxed);
        jobs.done_order.push_back(key.to_string());
        let mut evicted = Vec::new();
        while self.max_results > 0 && jobs.done_order.len() > self.max_results {
            let oldest = jobs
                .done_order
                .pop_front()
                .expect("longer than max_results");
            evicted.extend(jobs.records.remove(&oldest));
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        // Still under the lock, so no waiter can miss the transition.
        self.wake_all(waiters);
        // An evicted result holds every scale's profile image: free it
        // without the lock.
        drop(jobs);
        drop(evicted);
    }

    /// Worker failed. No-ops unless the record is still the `Running`
    /// execution identified by `generation`: a multi-scale job calls
    /// this once per failing scale, and only the first may transition
    /// the record (and count) — later calls, or calls from an attempt
    /// that a resubmission has already replaced, must not clobber a
    /// freshly queued retry with a stale error.
    pub fn fail(&self, key: &str, generation: u64, error: String) {
        let mut jobs = self.jobs.lock().unwrap();
        if let Some(record) = jobs.records.get_mut(key) {
            if record.status != JobStatus::Running || record.generation != generation {
                return;
            }
            record.status = JobStatus::Failed;
            record.error = Some(error);
            record.terminal_ns = obs::now_ns();
            self.obs
                .job_ns
                .record(record.terminal_ns.saturating_sub(record.started_ns));
            self.failed.fetch_add(1, Ordering::Relaxed);
            let waiters = std::mem::take(&mut record.waiters);
            self.wake_all(waiters);
        }
    }

    /// Wake the subscriptions a terminal transition took off its record.
    /// Called with the registry lock held, so no new subscription can
    /// slip in between the status change and the wake.
    fn wake_all(&self, waiters: Vec<(u64, Arc<dyn WaitWaker>)>) {
        for (token, waker) in &waiters {
            waker.wake(*token);
            self.obs.wakes.inc();
        }
        self.unpark(waiters.len());
    }

    /// Count `removed` subscriptions off the parked gauge.
    fn unpark(&self, removed: usize) {
        let now = self.parked.fetch_sub(removed, Ordering::Relaxed) - removed;
        self.obs.parked.set(now as u64);
    }

    /// Status of one job.
    pub fn status(&self, key: &str) -> Option<StatusView> {
        let jobs = self.jobs.lock().unwrap();
        jobs.records.get(key).map(|record| view(key, record))
    }

    /// Attach the execution's child spans (epoch-nanosecond offsets)
    /// to the record, to be rebased and served under the `run` span by
    /// [`Registry::trace`]. Called by the worker just before the
    /// terminal transition; like `complete`/`fail`, it no-ops unless
    /// the record is still the `Running` execution identified by
    /// `generation`.
    pub fn attach_run_spans(&self, key: &str, generation: u64, spans: Vec<TraceSpan>) {
        let mut jobs = self.jobs.lock().unwrap();
        if let Some(record) = jobs.records.get_mut(key) {
            if record.status == JobStatus::Running && record.generation == generation {
                record.run_spans = spans;
            }
        }
    }

    /// The job's span timeline, built from the record's lifecycle
    /// timestamps and the worker-attached run spans.
    ///
    /// `None` — no record under the key. `Some((status, None))` — the
    /// job exists but has not reached a terminal state yet.
    /// `Some((status, Some(trace)))` — the terminal timeline: the
    /// top-level `submit`/`queue_wait`/`run` spans tile the interval
    /// from the submission's arrival to the terminal transition, so
    /// their durations sum exactly to `total_ns`; the `run` children
    /// carry the per-scale cache verdicts, in canonical order.
    ///
    /// Re-submitting an identical job coalesces onto this record, so
    /// the trace always describes the execution that actually ran.
    pub fn trace(&self, key: &str) -> Option<(JobStatus, Option<TraceResponse>)> {
        let jobs = self.jobs.lock().unwrap();
        let record = jobs.records.get(key)?;
        if !matches!(record.status, JobStatus::Done | JobStatus::Failed) || record.terminal_ns == 0
        {
            return Some((record.status, None));
        }
        let zero = record.recv_ns;
        let rebase = |ns: u64| ns.saturating_sub(zero);
        let mut run = TraceSpan::new(
            "run",
            rebase(record.started_ns),
            record.terminal_ns.saturating_sub(record.started_ns),
        )
        .with_tag(
            "outcome",
            if record.status == JobStatus::Done {
                "done"
            } else {
                "failed"
            },
        );
        run.children = record
            .run_spans
            .iter()
            .map(|span| TraceSpan {
                start_ns: rebase(span.start_ns),
                ..span.clone()
            })
            .collect();
        run.sort_children();
        let trace = TraceResponse {
            job: key.to_string(),
            total_ns: record.terminal_ns.saturating_sub(zero),
            spans: vec![
                TraceSpan::new(
                    "submit",
                    0,
                    record.registered_ns.saturating_sub(record.recv_ns),
                ),
                TraceSpan::new(
                    "queue_wait",
                    rebase(record.registered_ns),
                    record.started_ns.saturating_sub(record.registered_ns),
                ),
                run,
            ],
        };
        Some((record.status, Some(trace)))
    }

    /// How the daemon's event loop waits for a job: answer inline if it
    /// is already terminal (or unknown), otherwise park `(token, waker)`
    /// as a completion subscription. The terminal transition wakes every
    /// subscription for the key exactly once; the subscription is
    /// consumed by the wake. Waiters that give up early (client went
    /// away, wait budget elapsed) must [`Registry::unsubscribe`].
    ///
    /// The registration is race-free against `complete`/`fail`: both
    /// the status check here and the drain there run under the registry
    /// lock, so a subscription either sees the terminal status inline or
    /// is enlisted on the record before the drain runs.
    pub fn subscribe(&self, key: &str, token: u64, waker: Arc<dyn WaitWaker>) -> SubscribeOutcome {
        let mut jobs = self.jobs.lock().unwrap();
        let Some(record) = jobs.records.get_mut(key) else {
            return SubscribeOutcome::Unknown;
        };
        if matches!(record.status, JobStatus::Done | JobStatus::Failed) {
            return SubscribeOutcome::Terminal(view(key, record));
        }
        record.waiters.push((token, waker));
        self.obs.parks.inc();
        let now = self.parked.fetch_add(1, Ordering::Relaxed) + 1;
        self.obs.parked.set(now as u64);
        SubscribeOutcome::Parked
    }

    /// Remove a parked subscription that gave up before the terminal
    /// transition (timeout, or the client hung up). Returns whether a
    /// subscription was actually removed — `false` means the wake
    /// already fired (or was never parked) and the caller races a
    /// pending notification for this token.
    pub fn unsubscribe(&self, key: &str, token: u64) -> bool {
        let mut jobs = self.jobs.lock().unwrap();
        let Some(record) = jobs.records.get_mut(key) else {
            return false;
        };
        let before = record.waiters.len();
        record.waiters.retain(|(t, _)| *t != token);
        let removed = before - record.waiters.len();
        if removed > 0 {
            self.unpark(removed);
        }
        removed > 0
    }

    /// Subscriptions currently parked (lock-free).
    pub fn parked(&self) -> usize {
        self.parked.load(Ordering::Relaxed)
    }

    /// One page of jobs, ordered by key: jobs in `state` (all states
    /// when `None`) with keys strictly greater than `after`, at most
    /// `limit` of them. The second member is the pagination cursor —
    /// `Some(last key)` when more matching jobs exist past this page.
    ///
    /// Keys are content hashes, so the order is stable but arbitrary;
    /// what matters is that it is *total*, making pagination exact even
    /// as jobs come and go between pages (a new job either sorts after
    /// the cursor and appears later, or sorted before it and is missed —
    /// the standard keyset-pagination contract).
    pub fn list(
        &self,
        state: Option<JobStatus>,
        after: Option<&str>,
        limit: usize,
    ) -> (Vec<StatusView>, Option<String>) {
        let mut matching: Vec<StatusView> = self
            .jobs
            .lock()
            .unwrap()
            .records
            .iter()
            .filter(|(key, record)| {
                state.is_none_or(|s| s == record.status) && after.is_none_or(|a| key.as_str() > a)
            })
            .map(|(key, record)| view(key, record))
            .collect();
        matching.sort_by(|a, b| a.key.cmp(&b.key));
        let more = matching.len() > limit;
        matching.truncate(limit);
        let next_after = if more {
            matching.last().map(|v| v.key.clone())
        } else {
            None
        };
        (matching, next_after)
    }

    /// Completed results currently held in the cache.
    pub fn results_cached(&self) -> usize {
        self.jobs.lock().unwrap().done_order.len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            executed: self.executed.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobProgram;
    use scalana_core::ScalAnaConfig;

    fn spec(text: &str) -> JobSpec {
        JobSpec {
            program: JobProgram::Source {
                name: "t.mmpi".to_string(),
                text: text.to_string(),
            },
            scales: vec![2],
            config: ScalAnaConfig::default(),
        }
    }

    const SRC: &str = "fn main() { comp(cycles = 10_000); allreduce(bytes = 8); }";

    fn accept(registry: &Registry, spec: JobSpec) -> SubmitOutcome {
        registry.submit(spec, |_| true)
    }

    #[test]
    fn resubmission_hits_whether_pending_or_done() {
        let registry = Registry::new();
        let key = match accept(&registry, spec(SRC)) {
            SubmitOutcome::Fresh(key) => key,
            other => panic!("first submit must be fresh, got {other:?}"),
        };
        // Second submit while queued: coalesced, counted as a hit.
        match accept(&registry, spec(SRC)) {
            SubmitOutcome::Existing(v) => assert_eq!(v.status, JobStatus::Queued),
            other => panic!("identical job must coalesce, got {other:?}"),
        }
        // Execute and complete; third submit is served from cache.
        let (job, generation) = registry.start(&key).unwrap();
        let output = job.execute().unwrap();
        registry.complete(&key, generation, output);
        match accept(&registry, spec(SRC)) {
            SubmitOutcome::Existing(v) => {
                assert_eq!(v.status, JobStatus::Done);
                assert!(v.result.is_some());
            }
            other => panic!("completed job must hit the cache, got {other:?}"),
        }
        let stats = registry.stats();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.executed, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(registry.results_cached(), 1);
    }

    #[test]
    fn failed_jobs_are_retried_on_resubmit() {
        let registry = Registry::new();
        let key = match accept(&registry, spec("fn main( {")) {
            SubmitOutcome::Fresh(key) => key,
            other => panic!("{other:?}"),
        };
        let (_, generation) = registry.start(&key).unwrap();
        registry.fail(&key, generation, "parse error".to_string());
        assert_eq!(registry.status(&key).unwrap().status, JobStatus::Failed);
        match accept(&registry, spec("fn main( {")) {
            SubmitOutcome::Fresh(k) => assert_eq!(k, key),
            other => panic!("failed job must be retried, got {other:?}"),
        }
        assert_eq!(registry.stats().cache_misses, 2);
    }

    #[test]
    fn stale_generation_cannot_clobber_a_retry() {
        // A multi-scale job fails one scale; the client resubmits while
        // a second failing scale task of the *old* attempt is still
        // winding down. Its late fail() must not touch the fresh record.
        let registry = Registry::new();
        let key = match accept(&registry, spec(SRC)) {
            SubmitOutcome::Fresh(key) => key,
            other => panic!("{other:?}"),
        };
        let (_, old_generation) = registry.start(&key).unwrap();
        registry.fail(&key, old_generation, "scale 2: deadlock".to_string());
        // Retry: fresh record, new generation, status Queued.
        assert!(matches!(
            accept(&registry, spec(SRC)),
            SubmitOutcome::Fresh(_)
        ));

        // Late duplicate fail from the old attempt: ignored (the retry
        // stays claimable), and the failed counter moves only once.
        registry.fail(&key, old_generation, "scale 4: deadlock".to_string());
        assert_eq!(registry.status(&key).unwrap().status, JobStatus::Queued);
        assert_eq!(registry.stats().failed, 1);

        // The retry executes normally; a stale complete() from the old
        // attempt cannot overwrite it either.
        let (job, new_generation) = registry.start(&key).unwrap();
        assert_ne!(old_generation, new_generation);
        let output = job.execute().unwrap();
        registry.complete(&key, old_generation, output);
        assert_eq!(
            registry.status(&key).unwrap().status,
            JobStatus::Running,
            "stale complete must not publish a result"
        );
        registry.complete(&key, new_generation, job.execute().unwrap());
        assert_eq!(registry.status(&key).unwrap().status, JobStatus::Done);
        assert_eq!(registry.results_cached(), 1);
    }

    #[test]
    fn result_capacity_evicts_oldest_completed() {
        let registry = Registry::with_result_capacity(2);
        let texts = [
            "fn main() { comp(cycles = 10_000); }",
            "fn main() { comp(cycles = 20_000); }",
            "fn main() { comp(cycles = 30_000); }",
        ];
        let mut keys = Vec::new();
        for text in texts {
            let key = match accept(&registry, spec(text)) {
                SubmitOutcome::Fresh(key) => key,
                other => panic!("{other:?}"),
            };
            let (job, generation) = registry.start(&key).unwrap();
            registry.complete(&key, generation, job.execute().unwrap());
            keys.push(key);
        }
        // Capacity 2: the first completion was evicted, the rest serve.
        assert_eq!(registry.results_cached(), 2);
        assert!(registry.status(&keys[0]).is_none(), "oldest evicted");
        assert!(registry.status(&keys[1]).is_some());
        assert!(registry.status(&keys[2]).is_some());
        assert_eq!(registry.stats().evicted, 1);
        // An evicted job is simply fresh work again.
        assert!(matches!(
            accept(&registry, spec(texts[0])),
            SubmitOutcome::Fresh(_)
        ));
    }

    #[test]
    fn repeat_submit_of_a_done_job_refreshes_its_fifo_place() {
        const CAPACITY: usize = 4;
        let registry = Registry::with_result_capacity(CAPACITY);
        let text = |i: usize| format!("fn main() {{ comp(cycles = {}); }}", 10_000 + i);
        let run = |i: usize| {
            let key = match accept(&registry, spec(&text(i))) {
                SubmitOutcome::Fresh(key) => key,
                other => panic!("{other:?}"),
            };
            let (job, generation) = registry.start(&key).unwrap();
            registry.complete(&key, generation, job.execute().unwrap());
            key
        };
        let keys: Vec<String> = (0..CAPACITY).map(run).collect();
        // The client's repeat submit of the oldest result, then one more
        // completion before it asks for the result.
        match accept(&registry, spec(&text(0))) {
            SubmitOutcome::Existing(v) => assert_eq!(v.status, JobStatus::Done),
            other => panic!("{other:?}"),
        }
        run(CAPACITY);
        let first = registry.status(&keys[0]).expect("refreshed result kept");
        assert!(first.result.is_some());
        assert!(registry.status(&keys[1]).is_none(), "next oldest evicted");
        assert_eq!(registry.results_cached(), CAPACITY);
        assert_eq!(registry.stats().evicted, 1);
    }

    #[test]
    fn list_paginates_in_key_order_with_state_filter() {
        let registry = Registry::new();
        let mut keys = Vec::new();
        for i in 0..5 {
            let text = format!("fn main() {{ comp(cycles = {}); }}", 10_000 + i);
            let key = match accept(&registry, spec(&text)) {
                SubmitOutcome::Fresh(key) => key,
                other => panic!("{other:?}"),
            };
            // Complete all but the last two (left queued).
            if i < 3 {
                let (job, generation) = registry.start(&key).unwrap();
                registry.complete(&key, generation, job.execute().unwrap());
            }
            keys.push(key);
        }
        keys.sort();

        // Full listing: every job, ascending by key, no cursor.
        let (all, next) = registry.list(None, None, 100);
        assert_eq!(all.iter().map(|v| v.key.clone()).collect::<Vec<_>>(), keys);
        assert!(next.is_none());

        // Cursor walk with limit 2 covers everything exactly once.
        let mut walked = Vec::new();
        let mut after: Option<String> = None;
        loop {
            let (page, next) = registry.list(None, after.as_deref(), 2);
            assert!(page.len() <= 2);
            walked.extend(page.iter().map(|v| v.key.clone()));
            match next {
                Some(cursor) => after = Some(cursor),
                None => break,
            }
        }
        assert_eq!(walked, keys);

        // State filter: exactly the three completed jobs.
        let (done, _) = registry.list(Some(JobStatus::Done), None, 100);
        assert_eq!(done.len(), 3);
        assert!(done.iter().all(|v| v.status == JobStatus::Done));
        let (queued, _) = registry.list(Some(JobStatus::Queued), None, 100);
        assert_eq!(queued.len(), 2);
    }

    #[test]
    fn rejected_enqueue_registers_nothing() {
        let registry = Registry::new();
        assert!(matches!(
            registry.submit(spec(SRC), |_| false),
            SubmitOutcome::Rejected
        ));
        let stats = registry.stats();
        assert_eq!(stats.rejected, 1);
        // Only accepted submissions count — and no phantom record exists
        // for a later identical submission to coalesce onto.
        assert_eq!(stats.submitted, 0);
        assert_eq!(stats.cache_misses, 0);
        assert!(matches!(
            registry.submit(spec(SRC), |_| true),
            SubmitOutcome::Fresh(_)
        ));
    }

    #[derive(Debug, Default)]
    struct RecordingWaker(Mutex<Vec<u64>>);

    impl WaitWaker for RecordingWaker {
        fn wake(&self, token: u64) {
            self.0.lock().unwrap().push(token);
        }
    }

    #[test]
    fn subscriptions_park_wake_once_and_unsubscribe() {
        let registry = Registry::new();
        let waker = Arc::new(RecordingWaker::default());

        // Unknown key: answered inline, nothing parked.
        assert!(matches!(
            registry.subscribe("nope", 1, waker.clone()),
            SubscribeOutcome::Unknown
        ));
        assert_eq!(registry.parked(), 0);

        let key = match accept(&registry, spec(SRC)) {
            SubmitOutcome::Fresh(key) => key,
            other => panic!("{other:?}"),
        };
        // Pending job: both subscriptions park.
        assert!(matches!(
            registry.subscribe(&key, 10, waker.clone()),
            SubscribeOutcome::Parked
        ));
        assert!(matches!(
            registry.subscribe(&key, 11, waker.clone()),
            SubscribeOutcome::Parked
        ));
        assert_eq!(registry.parked(), 2);

        // One gives up early; only the survivor is woken.
        assert!(registry.unsubscribe(&key, 11));
        assert!(!registry.unsubscribe(&key, 11), "second removal is a no-op");
        assert_eq!(registry.parked(), 1);

        // Another job's completion wakes nobody parked on this one.
        let other = match accept(&registry, spec("fn main() { barrier(); }")) {
            SubmitOutcome::Fresh(other) => other,
            other => panic!("{other:?}"),
        };
        let (job, generation) = registry.start(&other).unwrap();
        registry.complete(&other, generation, job.execute().unwrap());
        assert!(waker.0.lock().unwrap().is_empty());
        assert_eq!(registry.parked(), 1);

        let (job, generation) = registry.start(&key).unwrap();
        registry.complete(&key, generation, job.execute().unwrap());
        assert_eq!(*waker.0.lock().unwrap(), vec![10]);
        assert_eq!(registry.parked(), 0);
        // The wake consumed the subscription: nothing left to remove.
        assert!(!registry.unsubscribe(&key, 10));

        // Terminal job: answered inline, waker untouched.
        match registry.subscribe(&key, 12, waker.clone()) {
            SubscribeOutcome::Terminal(view) => assert_eq!(view.status, JobStatus::Done),
            other => panic!("expected inline terminal answer, got {other:?}"),
        }
        assert_eq!(*waker.0.lock().unwrap(), vec![10]);
    }
}
