//! Per-scale job execution over the worker pool.
//!
//! PR 2's workers executed one *whole job* each: every requested scale
//! simulated inside a single `JobSpec::execute` call, even when another
//! job had already profiled most of those scales. This module breaks a
//! job into its per-scale units so that
//!
//! 1. each requested scale is first resolved through the tier chain
//!    ([`crate::tiers`]: memory, then the durable store) and only
//!    the misses are simulated, and
//! 2. the misses are fanned out across the *whole worker pool* as
//!    [`Task::Scale`] items instead of binding one worker per job — a
//!    single large submission saturates every worker, and a job with one
//!    cold scale occupies one.
//!
//! The worker that finishes a job's last outstanding scale runs
//! detection (`ScalAna-detect`) inline and completes the job; a job whose
//! scales all hit the cache never touches the queue again — and when
//! the entries it hits are already decoded it costs hashing, lookups,
//! `detect` and rendering, nothing else. Outputs are byte-identical to a
//! cold run: `scalana_core::profile_one_scale` is a pure function of
//! (program, refined PSG, profile config, scale), cached profiles
//! round-trip losslessly through `scalana_profile::store`, and every
//! PPG, cached or fresh, comes out of `scalana_core::scale_ppg` — the
//! constructor `scalana_core::assemble` uses.

use crate::cache::Registry;
use crate::job::JobOutput;
use crate::json::Json;
use crate::jsonify::{render_report, run_summary_to_json};
use crate::metrics::ServiceMetrics;
use crate::profile_cache::{CachedPsg, ProfileCache, PsgCache, ScaleGraph};
use crate::queue::JobQueue;
use crate::store::{self, DiskStore, EntryKind};
use crate::tiers::Tiers;
use bytes::Bytes;
use scalana_api::trace::TraceSpan;
use scalana_core::{
    profile_one_scale_observed, refined_psg_traced, replay_refined_psg, scale_ppg, ScalAnaConfig,
};
use scalana_detect::detect;
use scalana_graph::{Ppg, Psg};
use scalana_lang::Program;
use scalana_mpisim::{
    CommDepEvent, CompEvent, Hook, IndirectCallEvent, MpiEnterEvent, MpiExitEvent,
};
use scalana_obs as obs;
use scalana_profile::ProfileData;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One unit of worker-pool work.
pub enum Task {
    /// A freshly accepted job: resolve its scales against the profile
    /// cache, then fan the misses out.
    Job(String),
    /// Simulate one scale of an in-flight job.
    Scale {
        /// The job's shared in-flight state.
        work: Arc<JobWork>,
        /// Index into `work.scales`.
        index: usize,
    },
}

impl std::fmt::Debug for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Task::Job(key) => write!(f, "Task::Job({key})"),
            Task::Scale { work, index } => {
                write!(
                    f,
                    "Task::Scale({}, scale {})",
                    work.key, work.scales[*index]
                )
            }
        }
    }
}

/// Everything task execution touches; the server owns the fields and
/// hands workers this view.
pub struct ExecCtx<'a> {
    /// Job registry / result cache.
    pub registry: &'a Registry,
    /// The worker-pool queue (scale tasks go to its priority lane).
    pub queue: &'a JobQueue<Task>,
    /// Memory tier: resident profile images and discovery traces.
    pub profiles: &'a ProfileCache,
    /// Refined-PSG cache.
    pub psgs: &'a PsgCache,
    /// Disk tier, when `--store-dir` is configured.
    pub store: Option<&'a DiskStore>,
    /// Observability handles (stage histograms, simulator counters).
    pub metrics: &'a ServiceMetrics,
}

impl<'a> ExecCtx<'a> {
    /// The chain over this executor's tiers — the only way a job reads
    /// or publishes a profile image or a discovery trace.
    pub fn tiers(&self) -> Tiers<'a> {
        Tiers {
            memory: self.profiles,
            disk: self.store,
        }
    }
}

/// Shared state of one in-flight job, owned jointly by its scale tasks.
pub struct JobWork {
    /// Job key ([`crate::job::JobSpec::key`]).
    pub key: String,
    /// Registry generation of the execution this work belongs to —
    /// echoed to `complete`/`fail` so a late task from this attempt can
    /// never clobber a record a resubmission has since replaced.
    pub generation: u64,
    /// The resolved program.
    pub program: Arc<Program>,
    /// The refined PSG every scale profiles over.
    pub psg: Arc<Psg>,
    /// The resolved config (app machine model substituted).
    pub config: ScalAnaConfig,
    /// Requested scales, ascending.
    pub scales: Vec<usize>,
    /// Per-scale profile-cache keys, parallel to `scales`.
    pub profile_keys: Vec<String>,
    /// Collected per-scale detection inputs plus their persisted
    /// images — cache hits pre-filled at resolution, fresh runs as they
    /// finish.
    slots: Mutex<Vec<Option<ScaleSlot>>>,
    /// Scales still outstanding; the worker that decrements it to zero
    /// assembles and completes the job.
    remaining: AtomicUsize,
    /// Set on the first scale failure; later scale tasks skip their
    /// simulation (the job is already Failed).
    failed: AtomicBool,
    /// Execution child spans (`resolve`, per-`scale`, `assemble`),
    /// collected across the workers that touch this job and attached
    /// to the registry record just before the terminal transition.
    /// Offsets are epoch nanoseconds; the registry rebases them.
    trace_spans: Mutex<Vec<TraceSpan>>,
}

/// One resolved scale of a job: what detection reads, and the image
/// the result serves.
type ScaleSlot = (Arc<ScaleGraph>, Bytes);

impl JobWork {
    fn push_span(&self, span: TraceSpan) {
        self.trace_spans.lock().unwrap().push(span);
    }
}

/// The simulator observer chained after the profiler: counts events,
/// tracks the high-water of in-flight MPI operations (the hook-layer
/// proxy for mailbox-slab occupancy), and times the run — publishing
/// everything to [`ServiceMetrics`] at `on_run_end`. Every callback
/// returns `0.0` virtual cost, so observed runs stay byte-identical
/// to unobserved ones.
struct ObsSimHook<'a> {
    metrics: &'a ServiceMetrics,
    events: u64,
    inflight: u64,
    inflight_peak: u64,
    started: Instant,
}

impl<'a> ObsSimHook<'a> {
    fn new(metrics: &'a ServiceMetrics) -> ObsSimHook<'a> {
        ObsSimHook {
            metrics,
            events: 0,
            inflight: 0,
            inflight_peak: 0,
            started: Instant::now(),
        }
    }
}

impl Hook for ObsSimHook<'_> {
    fn on_run_start(&mut self, _nprocs: usize) {
        self.started = Instant::now();
    }
    fn on_comp(&mut self, _ev: &CompEvent) -> f64 {
        self.events += 1;
        0.0
    }
    fn on_mpi_enter(&mut self, _ev: &MpiEnterEvent) -> f64 {
        self.events += 1;
        self.inflight += 1;
        self.inflight_peak = self.inflight_peak.max(self.inflight);
        0.0
    }
    fn on_mpi_exit(&mut self, _ev: &MpiExitEvent) -> f64 {
        self.events += 1;
        self.inflight = self.inflight.saturating_sub(1);
        0.0
    }
    fn on_comm_dep(&mut self, _ev: &CommDepEvent) -> f64 {
        self.events += 1;
        0.0
    }
    fn on_indirect_call(&mut self, _ev: &IndirectCallEvent) -> f64 {
        self.events += 1;
        0.0
    }
    fn on_run_end(&mut self, _rank_elapsed: &[f64]) {
        self.metrics.sim_runs.inc();
        self.metrics.sim_events.add(self.events);
        self.metrics.sim_inflight_peak.raise(self.inflight_peak);
        self.metrics
            .sim_run_ns
            .record(self.started.elapsed().as_nanos() as u64);
        self.events = 0;
        self.inflight = 0;
        self.inflight_peak = 0;
    }
}

/// One per-scale simulation exactly as a worker runs it: a `simulate`
/// stage span feeding the stage histogram, the `ObsSimHook` observer
/// chained after the profiler, and the panic guard — returning the
/// profile (or the failure message) plus the finished trace span.
fn profile_one_scale_instrumented(
    metrics: &ServiceMetrics,
    program: &Program,
    psg: &Psg,
    config: &ScalAnaConfig,
    nprocs: usize,
) -> (Result<ProfileData, String>, TraceSpan) {
    let stage = obs::span_timed(&metrics.simulate_ns);
    let result = guarded(|| {
        let mut observer = ObsSimHook::new(metrics);
        profile_one_scale_observed(program, psg, config, nprocs, &mut observer)
            .map_err(|e| e.to_string())
    });
    let span = TraceSpan::new("scale", stage.start_ns(), stage.elapsed_ns())
        .with_tag("nprocs", &nprocs.to_string())
        .with_tag("cache", "miss")
        .with_tag("decode", "fresh");
    (result, span)
}

/// Execute one task. Called by the worker loop; never panics outward
/// (pipeline stages over client-supplied programs run under
/// `catch_unwind`, and a panic fails the job, not the worker).
pub fn run_task(ctx: &ExecCtx<'_>, task: Task) {
    match task {
        Task::Job(key) => run_job(ctx, &key),
        Task::Scale { work, index } => run_scale(ctx, &work, index),
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("unknown panic")
}

/// Run `f` with panics converted into `Err` (client programs drive the
/// parser/simulator/detector; an escaped panic would kill the worker
/// thread for good and strand the record in `Running`).
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(panic) => Err(format!("job panicked: {}", panic_message(&panic))),
    }
}

/// Claim a queued job, resolve its scales against the profile cache,
/// and fan out the misses.
fn run_job(ctx: &ExecCtx<'_>, key: &str) {
    let Some((spec, generation)) = ctx.registry.start(key) else {
        return;
    };

    let prepared = guarded(|| {
        let stage = obs::span_timed(&ctx.metrics.resolve_ns);

        // Refined PSG: program + PSG options + discovery scale. A hit
        // skips the parse, ScalAna-static *and* the indirect-call
        // discovery run.
        let psg_key = spec.psg_key();
        let (program, config, psg, psg_verdict, program_verdict) = match ctx.psgs.lookup(&psg_key) {
            Some(CachedPsg { program, psg }) => {
                (program, spec.resolve_config()?, psg, "hit", "reused")
            }
            None => {
                let (program, config) = spec.resolve()?;
                // A discovery trace some tier still holds rebuilds the
                // identical refined PSG with zero simulation.
                let replayed = ctx.tiers().get(EntryKind::PsgTrace, &psg_key, |entry| {
                    store::decode_trace(entry.image.clone())
                });
                let (psg, verdict) = match replayed {
                    Some(found) => (
                        replay_refined_psg(&program, &config, &found.value),
                        found.source.tag(EntryKind::PsgTrace),
                    ),
                    None => {
                        let (psg, trace) =
                            refined_psg_traced(&program, &config, spec.discovery_scale())
                                .map_err(|e| e.to_string())?;
                        ctx.tiers().put(
                            EntryKind::PsgTrace,
                            &psg_key,
                            &store::encode_trace(&trace),
                        );
                        (psg, "miss")
                    }
                };
                let entry = CachedPsg {
                    program: Arc::new(program),
                    psg: Arc::new(psg),
                };
                ctx.psgs.store(psg_key, entry.clone());
                (entry.program, config, entry.psg, verdict, "parsed")
            }
        };
        let mut spans = vec![
            TraceSpan::new("resolve", stage.start_ns(), stage.elapsed_ns())
                .with_tag("psg", psg_verdict)
                .with_tag("program", program_verdict),
        ];
        drop(stage);

        // Resolve each requested scale against the tiers that can
        // answer it without simulating.
        let profile_keys: Vec<String> = spec
            .scales
            .iter()
            .map(|&nprocs| spec.profile_key(&config, nprocs))
            .collect();
        let mut slots: Vec<Option<ScaleSlot>> = Vec::with_capacity(spec.scales.len());
        for (pk, &nprocs) in profile_keys.iter().zip(&spec.scales) {
            let probe_start = obs::now_ns();
            // Cache-hit scales are answered right here; misses get
            // their (simulating) span in `run_scale`.
            let slot = cached_scale(ctx, &psg, pk, nprocs).map(|(slot, tier, decode)| {
                spans.push(
                    TraceSpan::new(
                        "scale",
                        probe_start,
                        obs::now_ns().saturating_sub(probe_start),
                    )
                    .with_tag("nprocs", &nprocs.to_string())
                    .with_tag("cache", tier)
                    .with_tag("decode", decode),
                );
                slot
            });
            slots.push(slot);
        }

        Ok((program, config, psg, profile_keys, slots, spans))
    });
    let (program, config, psg, profile_keys, slots, spans) = match prepared {
        Ok(prepared) => prepared,
        Err(error) => {
            ctx.registry.fail(key, generation, error);
            return;
        }
    };

    let misses: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].is_none()).collect();
    let work = Arc::new(JobWork {
        key: key.to_string(),
        generation,
        program,
        psg,
        config,
        scales: spec.scales.clone(),
        profile_keys,
        slots: Mutex::new(slots),
        remaining: AtomicUsize::new(misses.len()),
        failed: AtomicBool::new(false),
        trace_spans: Mutex::new(spans),
    });

    match misses.split_first() {
        // Every scale was cached: assemble right here — the queue is
        // never touched again and no second worker wakes up.
        None => assemble_and_complete(ctx, &work),
        Some((&first, rest)) => {
            // Hand the other misses to the pool *before* simulating one
            // inline, so peers start immediately.
            for &index in rest {
                ctx.queue.push_priority(Task::Scale {
                    work: Arc::clone(&work),
                    index,
                });
            }
            run_scale(ctx, &work, first);
        }
    }
}

/// Answer one scale without simulating, from the first tier that has a
/// decodable image. An image of another rank count (the store directory
/// is outside input and may hold one under any key) counts as
/// undecodable. Returns the slot with its `cache` and `decode` trace
/// verdicts.
fn cached_scale(
    ctx: &ExecCtx<'_>,
    psg: &Arc<Psg>,
    key: &str,
    nprocs: usize,
) -> Option<(ScaleSlot, &'static str, &'static str)> {
    let found = ctx.tiers().get(EntryKind::Profile, key, |entry| {
        entry.decoded(|image| {
            let data = scalana_profile::store::load(image.clone())
                .ok()
                .filter(|data| data.nprocs == nprocs)?;
            Some(scale_ppg(psg, nprocs, data))
        })
    })?;
    let (graph, reused) = found.value;
    let decode = if reused { "reused" } else { "fresh" };
    let cache = found.source.tag(EntryKind::Profile);
    Some(((graph, found.bytes), cache, decode))
}

/// Simulate one scale; the worker that finishes the job's last
/// outstanding scale assembles and completes it.
fn run_scale(ctx: &ExecCtx<'_>, work: &Arc<JobWork>, index: usize) {
    // A sibling scale already failed the job — skip the simulation but
    // still participate in the countdown so the job's state winds down.
    if !work.failed.load(Ordering::Acquire) {
        let nprocs = work.scales[index];
        let (result, span) = profile_one_scale_instrumented(
            ctx.metrics,
            &work.program,
            &work.psg,
            &work.config,
            nprocs,
        );
        work.push_span(span);
        // The worker that simulated the scale builds its PPG too; only
        // the image outlives the job.
        let built = result.and_then(|data| {
            guarded(|| {
                let image = scalana_profile::store::save(&data);
                Ok((Arc::new(scale_ppg(&work.psg, nprocs, data)), image))
            })
        });
        match built {
            Ok((graph, image)) => {
                ctx.tiers()
                    .put(EntryKind::Profile, &work.profile_keys[index], &image);
                work.slots.lock().unwrap()[index] = Some((graph, image));
            }
            Err(error) => {
                work.failed.store(true, Ordering::Release);
                attach_spans(ctx, work);
                ctx.registry.fail(
                    &work.key,
                    work.generation,
                    format!("scale {nprocs}: {error}"),
                );
            }
        }
    }
    if work.remaining.fetch_sub(1, Ordering::AcqRel) == 1 && !work.failed.load(Ordering::Acquire) {
        assemble_and_complete(ctx, work);
    }
}

/// Hand the job's collected execution spans to the registry record.
/// Must run *before* the terminal transition — the registry refuses
/// attachments once the record leaves `Running`.
fn attach_spans(ctx: &ExecCtx<'_>, work: &Arc<JobWork>) {
    let spans = std::mem::take(&mut *work.trace_spans.lock().unwrap());
    ctx.registry
        .attach_run_spans(&work.key, work.generation, spans);
}

/// `ScalAna-detect` over the collected PPGs, then publish the result.
/// Profile images are reused as collected/cached — byte-stable,
/// refcounted, never re-serialized.
///
/// The terminal `complete`/`fail` inside fires the event-loop
/// subscriptions ([`crate::cache::Registry::subscribe`]) parked by
/// long-poll connections, so worker threads never interact with
/// connection state directly.
fn assemble_and_complete(ctx: &ExecCtx<'_>, work: &Arc<JobWork>) {
    let filled = std::mem::take(&mut *work.slots.lock().unwrap());
    let mut graphs = Vec::with_capacity(filled.len());
    let mut images = Vec::with_capacity(filled.len());
    for (slot, &nprocs) in filled.into_iter().zip(&work.scales) {
        let Some((graph, image)) = slot else {
            // Unreachable by construction (every miss filled its slot or
            // failed the job); guard against stranding `Running` anyway.
            attach_spans(ctx, work);
            ctx.registry.fail(
                &work.key,
                work.generation,
                format!("scale {nprocs} produced no profile"),
            );
            return;
        };
        graphs.push(graph);
        images.push((nprocs, image));
    }

    let stage = obs::span_timed(&ctx.metrics.assemble_ns);
    let result = guarded(|| {
        // Timed like `scalana_core::assemble` times it (Table IV).
        let started = Instant::now();
        let ppgs: Vec<&Ppg> = graphs.iter().map(|graph| &graph.1).collect();
        let report = detect(&ppgs, &work.config.detect);
        let detect_seconds = started.elapsed().as_secs_f64();
        let runs = graphs.iter().map(|graph| run_summary_to_json(&graph.0));
        Ok(JobOutput {
            report_json: render_report(&report),
            runs_json: Json::Arr(runs.collect()).render(),
            detect_seconds,
            profiles: images,
        })
    });
    work.push_span(TraceSpan::new(
        "assemble",
        stage.start_ns(),
        stage.elapsed_ns(),
    ));
    drop(stage);
    attach_spans(ctx, work);
    match result {
        Ok(output) => ctx.registry.complete(&work.key, work.generation, output),
        Err(error) => ctx.registry.fail(&work.key, work.generation, error),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::JobStatus;
    use crate::job::{JobProgram, JobSpec};

    type Parts = (
        Registry,
        JobQueue<Task>,
        ProfileCache,
        PsgCache,
        ServiceMetrics,
    );

    fn ctx_of<'a>(parts: &'a Parts, store: Option<&'a DiskStore>) -> ExecCtx<'a> {
        let (registry, queue, profiles, psgs, metrics) = parts;
        ExecCtx {
            registry,
            queue,
            profiles,
            psgs,
            store,
            metrics,
        }
    }

    fn ctx_parts() -> Parts {
        (
            Registry::new(),
            JobQueue::new(16),
            ProfileCache::new(0),
            PsgCache::new(0),
            ServiceMetrics::new(),
        )
    }

    fn spec(scales: &[usize], top_k: usize) -> JobSpec {
        let mut config = ScalAnaConfig::default();
        config.detect.top_k = top_k;
        JobSpec {
            program: JobProgram::Source {
                name: "exec.mmpi".to_string(),
                text: "fn main() { for i in 0 .. 3 { comp(cycles = 50_000 / nprocs); \
                       barrier(); } allreduce(bytes = 8); }"
                    .to_string(),
            },
            scales: scales.to_vec(),
            config,
        }
    }

    /// Drain the queue single-threadedly until empty.
    fn drain(ctx: &ExecCtx<'_>) {
        while let Some(task) = ctx.queue.try_pop() {
            run_task(ctx, task);
        }
    }

    fn submit_and_run(ctx: &ExecCtx<'_>, spec: JobSpec) -> String {
        let key = match ctx.registry.submit(spec, |_| true) {
            crate::cache::SubmitOutcome::Fresh(key) => key,
            crate::cache::SubmitOutcome::Existing(view) => return view.key,
            other => panic!("unexpected outcome {other:?}"),
        };
        run_task(ctx, Task::Job(key.clone()));
        drain(ctx);
        key
    }

    #[test]
    fn overlapping_scale_sets_simulate_only_the_new_scale() {
        let parts = ctx_parts();
        let ctx = ctx_of(&parts, None);
        let (registry, _, profiles, ..) = &parts;

        // Cold job over [2, 4]: both scales miss.
        let key1 = submit_and_run(&ctx, spec(&[2, 4], 3));
        assert_eq!(registry.status(&key1).unwrap().status, JobStatus::Done);
        let stats = profiles.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 2);

        // Overlapping job over [2, 4, 8]: exactly one new simulation.
        let key2 = submit_and_run(&ctx, spec(&[2, 4, 8], 3));
        assert_ne!(key1, key2);
        assert_eq!(registry.status(&key2).unwrap().status, JobStatus::Done);
        let stats = profiles.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.entries, 3);

        // Same scales, different detection knob: all three scales hit —
        // detection does not influence the profile key.
        let key3 = submit_and_run(&ctx, spec(&[2, 4, 8], 1));
        assert_ne!(key2, key3);
        assert_eq!(registry.status(&key3).unwrap().status, JobStatus::Done);
        let stats = profiles.stats();
        assert_eq!(stats.hits, 5);
        assert_eq!(stats.misses, 3, "fully overlapped job simulated nothing");

        // And the fully cached job's report is byte-identical to a cold
        // (direct-execute) run of the same spec.
        let direct = spec(&[2, 4, 8], 1).execute().unwrap();
        let served = registry.status(&key3).unwrap().result.unwrap();
        assert_eq!(served.report_json, direct.report_json);
        assert_eq!(served.runs_json, direct.runs_json);
    }

    #[test]
    fn failing_scale_fails_the_job_without_stranding_it() {
        let parts = ctx_parts();
        let ctx = ctx_of(&parts, None);
        let registry = &parts.0;
        // Deadlocks at every scale: rank 0 waits on a recv nobody sends.
        let bad = JobSpec {
            program: JobProgram::Source {
                name: "bad.mmpi".to_string(),
                text: "fn main() { if rank == 0 { recv(src = 1, tag = 9); } barrier(); }"
                    .to_string(),
            },
            scales: vec![2, 4],
            config: ScalAnaConfig::default(),
        };
        let key = submit_and_run(&ctx, bad);
        let view = registry.status(&key).unwrap();
        assert_eq!(view.status, JobStatus::Failed);
        assert!(view.error.is_some());
    }

    /// The served job equals a cold `profile_runs` + `assemble` of the
    /// same spec: report, runs and every per-scale image.
    fn assert_serves_cold_bytes(ctx: &ExecCtx<'_>, key: &str, spec: &JobSpec) {
        let view = ctx.registry.status(key).unwrap();
        assert_eq!(view.status, JobStatus::Done, "{:?}", view.error);
        let served = view.result.unwrap();
        let cold = spec.execute().unwrap();
        assert_eq!(served.report_json, cold.report_json);
        assert_eq!(served.runs_json, cold.runs_json);
        assert_eq!(served.profiles, cold.profiles);
    }

    /// `(cache, decode)` of the job's scale spans, ascending by scale.
    fn scale_verdicts(ctx: &ExecCtx<'_>, key: &str) -> Vec<(String, String)> {
        let (_, trace) = ctx.registry.trace(key).unwrap();
        trace
            .unwrap()
            .flatten()
            .into_iter()
            .filter(|span| span.name == "scale")
            .map(|span| {
                let tag = |name| span.tag(name).unwrap().to_string();
                (tag("cache"), tag("decode"))
            })
            .collect()
    }

    fn verdicts(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(cache, decode)| (cache.to_string(), decode.to_string()))
            .collect()
    }

    #[test]
    fn already_decoded_entries_serve_cold_bytes_without_simulating() {
        let parts = ctx_parts();
        let ctx = ctx_of(&parts, None);
        let scales = [2, 4, 8];

        // Cold job stores images only; the first job to hit them decodes.
        let cold = submit_and_run(&ctx, spec(&scales, 3));
        assert_eq!(
            scale_verdicts(&ctx, &cold),
            verdicts(&[("miss", "fresh"); 3])
        );
        let first_hit = submit_and_run(&ctx, spec(&scales, 2));
        assert_eq!(
            scale_verdicts(&ctx, &first_hit),
            verdicts(&[("hit", "fresh"); 3])
        );
        let simulated = parts.4.sim_runs.get();
        assert_eq!(simulated, 3);

        // Every scale of the third job is served decoded — also a
        // subset job, whose entries the same decoded values answer.
        for (scales, top_k) in [(&scales[..], 1), (&scales[..2], 5)] {
            let key = submit_and_run(&ctx, spec(scales, top_k));
            assert_eq!(
                scale_verdicts(&ctx, &key),
                verdicts(&vec![("hit", "reused"); scales.len()])
            );
            assert_serves_cold_bytes(&ctx, &key, &spec(scales, top_k));
        }
        assert_eq!(parts.4.sim_runs.get(), simulated, "nothing re-simulated");
    }

    #[test]
    fn evicted_entries_are_redecoded_from_the_memory_or_store_image() {
        let dir =
            std::env::temp_dir().join(format!("scalana-exec-redecode-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let disk = DiskStore::open(Arc::new(crate::store::RealIo), &dir, 0);
        let parts = ctx_parts();
        let ctx = ctx_of(&parts, Some(&disk));
        let scales = [2, 4];

        let cold = submit_and_run(&ctx, spec(&scales, 3));
        submit_and_run(&ctx, spec(&scales, 2));
        let keys: Vec<String> = {
            let job = spec(&scales, 3);
            let config = job.resolve_config().unwrap();
            scales
                .iter()
                .map(|&n| job.profile_key(&config, n))
                .collect()
        };
        let images = ctx.registry.status(&cold).unwrap().result.unwrap();

        // Scale 2's entry is dropped and its image stored again, as a
        // store preload or a peer offer would: the decoded form went
        // with the entry. Scale 4's is only dropped, so the store's
        // image answers it.
        parts.2.invalidate(&keys[0]);
        parts.2.invalidate(&keys[1]);
        parts.2.store(keys[0].clone(), images.profiles[0].1.clone());
        let key = submit_and_run(&ctx, spec(&scales, 1));
        assert_eq!(scale_verdicts(&ctx, &key), verdicts(&[("hit", "fresh"); 2]));
        assert_serves_cold_bytes(&ctx, &key, &spec(&scales, 1));

        // The re-admitted entries decode once more and are then reused.
        // (Scale 4 came back as an image; the job that read it through
        // kept its PPG to itself.)
        let key = submit_and_run(&ctx, spec(&scales, 4));
        assert_eq!(
            scale_verdicts(&ctx, &key),
            verdicts(&[("hit", "reused"), ("hit", "fresh")])
        );
        assert_serves_cold_bytes(&ctx, &key, &spec(&scales, 4));
        assert_eq!(parts.4.sim_runs.get(), 2, "only the cold job simulated");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scales_the_store_serves_count_as_hits_not_misses() {
        let dir =
            std::env::temp_dir().join(format!("scalana-exec-disk-hit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let disk = DiskStore::open(Arc::new(crate::store::RealIo), &dir, 0);
        let parts = ctx_parts();
        let ctx = ctx_of(&parts, Some(&disk));
        let scales = [2, 4, 8];

        // Fill three scales, then lose them from memory, as a cache
        // smaller than the fill does.
        let job = spec(&scales, 3);
        submit_and_run(&ctx, job.clone());
        let config = job.resolve_config().unwrap();
        for &n in &scales {
            parts.2.invalidate(&job.profile_key(&config, n));
        }
        let (before, simulated) = (parts.2.stats(), parts.4.sim_runs.get());

        // Re-serve: the store answers every scale. `misses` means "had
        // to simulate", so it does not move.
        let key = submit_and_run(&ctx, spec(&scales, 2));
        assert_serves_cold_bytes(&ctx, &key, &spec(&scales, 2));
        let after = parts.2.stats();
        assert_eq!(after.misses - before.misses, 0);
        assert_eq!(after.hits - before.hits, 3);
        assert_eq!(parts.4.sim_runs.get() - simulated, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn undecodable_planted_image_is_invalidated_and_the_scale_resimulates() {
        let parts = ctx_parts();
        let ctx = ctx_of(&parts, None);
        let job = spec(&[2, 4], 3);
        let config = job.resolve_config().unwrap();
        let planted = job.profile_key(&config, 4);
        parts
            .2
            .store(planted.clone(), Bytes::from_static(b"not a profile image"));

        let key = submit_and_run(&ctx, job.clone());
        assert_serves_cold_bytes(&ctx, &key, &job);
        assert_eq!(parts.4.sim_runs.get(), 2, "the planted scale re-simulated");
        let stats = parts.2.stats();
        assert_eq!(stats.evicted, 1, "the bad entry was invalidated");
        assert_eq!(stats.entries, 2);
        let image = parts.2.peek(&planted).unwrap();
        assert!(scalana_profile::store::load(image).is_ok());
    }

    #[test]
    fn planted_image_of_another_rank_count_is_invalidated_and_the_scale_resimulates() {
        let parts = ctx_parts();
        let ctx = ctx_of(&parts, None);
        let job = spec(&[2, 4], 3);
        let config = job.resolve_config().unwrap();
        let planted = job.profile_key(&config, 4);
        // A consistent image, but of 64 ranks, under scale 4's key.
        let foreign = scalana_profile::store::save(&ProfileData::new(64));
        parts.2.store(planted.clone(), foreign);

        let key = submit_and_run(&ctx, job.clone());
        assert_serves_cold_bytes(&ctx, &key, &job);
        assert_eq!(parts.4.sim_runs.get(), 2, "the planted scale re-simulated");
        assert_eq!(parts.2.stats().evicted, 1, "the bad entry was invalidated");
        let image = parts.2.peek(&planted).unwrap();
        assert_eq!(scalana_profile::store::load(image).unwrap().nprocs, 4);
    }

    #[test]
    fn planted_image_with_a_nan_time_is_invalidated_and_the_scale_resimulates() {
        let parts = ctx_parts();
        let ctx = ctx_of(&parts, None);
        let job = spec(&[2, 4], 3);
        let config = job.resolve_config().unwrap();
        let planted = job.profile_key(&config, 4);
        // Scale 4's own image, with one rank's end-to-end time made NaN.
        let (_, image) = job.execute().unwrap().profiles.pop().unwrap();
        let mut data = scalana_profile::store::load(image).unwrap();
        data.rank_elapsed[0] = f64::NAN;
        parts
            .2
            .store(planted.clone(), scalana_profile::store::save(&data));

        let key = submit_and_run(&ctx, job.clone());
        assert_serves_cold_bytes(&ctx, &key, &job);
        assert_eq!(parts.4.sim_runs.get(), 2, "the planted scale re-simulated");
        assert_eq!(parts.2.stats().evicted, 1, "the bad entry was invalidated");
        let image = parts.2.peek(&planted).unwrap();
        assert!(scalana_profile::store::load(image).is_ok());
    }
}
