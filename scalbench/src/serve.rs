//! The four `serve_*` workloads: a real child daemon under closed-loop
//! load. They share set-up, the measured window, the output checks and
//! the metric arithmetic; only the job stream and the phases differ.

use crate::daemon::{counter, parse_body, Daemon, Scrape};
use crate::jobs::{Hot, Job, JobStream, Listed, Overlap, Unique};
use crate::layers::{self, decompose, Input, ReportBytes, Samples};
use crate::load::{self, Plan, Stop, Window};
use crate::procfs;
use crate::report::{Config, Outcome};
use crate::rng::Rng;
use crate::spec::SETUPS;
use crate::stats;
use crate::trace::Recorder;
use scalana_api::{paths, Json};
use scalana_core::analyze;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Unique,
    Overlap,
    Hot,
    Restart,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Unique => "serve_unique",
            Kind::Overlap => "serve_overlap",
            Kind::Hot => "serve_hot",
            Kind::Restart => "serve_restart",
        }
    }
}

/// Warm-up ops before the timed window of `serve_unique` and
/// `serve_restart` (connections, allocator, lazy statics).
const WARM_UP_OPS: u64 = 16;
/// Result bodies checked against the in-process reference per run, and
/// the leading ops they are drawn from.
const CHECKED: usize = 32;
const CHECKED_AMONG: u64 = 512;
/// Jobs the traced pass also takes apart in process for the layer
/// stopwatches.
const LAYER_JOBS: u64 = 8;
/// The threshold the re-serve phase of `serve_restart` resubmits under.
const RESERVE_THD: f64 = 1.5;
/// Share of `--seconds` the fill phase of `serve_restart` takes; drain,
/// restart and the (much faster) re-serve of every job fit in the rest.
const FILL_SHARE: f64 = 0.45;
/// Share of a traced pass that runs untraced first, as the reference
/// `obs.trace_overhead_pct` is taken against.
const UNTRACED_SHARE: f64 = 0.35;

/// A daemon that is up, primed and warm, and the stream to load it with.
struct Ready {
    daemon: Daemon,
    stream: Box<dyn JobStream>,
    /// `serve_hot`: every base job with its warmed result body, in slot
    /// order; empty elsewhere.
    warm: Vec<(Job, Vec<u8>)>,
    store: Option<PathBuf>,
}

fn fresh_dir(config: &Config) -> Result<PathBuf, String> {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let dir = config.out_dir.join(format!(
        "store-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    // The daemon takes the path as given; make it independent of cwd.
    dir.canonicalize()
        .map_err(|e| format!("{}: {e}", dir.display()))
}

/// Serve a fixed list once, outside any timed window; every op must
/// succeed. Returns each job with its result body, in list order.
fn serve_all(daemon: &Daemon, jobs: Vec<Job>) -> Result<Vec<(Job, Vec<u8>)>, String> {
    let count = jobs.len() as u64;
    let keep: Vec<u64> = (0..count).collect();
    let listed = Listed(jobs);
    let window = load::run(&Plan {
        addr: &daemon.addr,
        stream: &listed,
        first_op: 0,
        stop: Stop::AtOp(count),
        keep: &keep,
        expect: &[],
        traced: None,
        cpu_of: daemon.pid(),
    })?;
    if window.failed > 0 {
        return Err(format!("set-up ops failed: {:?}", window.errors));
    }
    Ok(listed
        .0
        .into_iter()
        .zip(window.kept.into_iter().map(|(_, body)| body))
        .collect())
}

fn set_up(kind: Kind, config: &Config) -> Result<Ready, String> {
    let seed = config.seed;
    let store = (kind == Kind::Restart)
        .then(|| fresh_dir(config))
        .transpose()?;
    let daemon = Daemon::spawn(store.as_deref())?;
    let mut warm = Vec::new();
    let stream: Box<dyn JobStream> = match kind {
        Kind::Unique | Kind::Restart => {
            let warm_up = Unique::new(seed, "w");
            serve_all(&daemon, (0..WARM_UP_OPS).map(|i| warm_up.job(i)).collect())?;
            Box::new(Unique::new(seed, "u"))
        }
        Kind::Overlap => {
            let stream = Overlap::new(seed);
            serve_all(&daemon, stream.priming())?;
            Box::new(stream)
        }
        Kind::Hot => {
            let stream = Hot::new(seed);
            warm = serve_all(&daemon, stream.base_jobs().to_vec())?;
            Box::new(stream)
        }
    };
    Ok(Ready {
        daemon,
        stream,
        warm,
        store,
    })
}

fn tear_down(daemon: Daemon, store: Option<&Path>) -> Result<Duration, String> {
    let drained = daemon.shutdown();
    if let Some(dir) = store {
        let _ = std::fs::remove_dir_all(dir);
    }
    drained
}

/// One measured window: the load, and the daemon's counters, metrics
/// and CPU time on either side of it.
struct Measured {
    window: Window,
    stats_before: Json,
    stats_after: Json,
    scrape_before: Scrape,
    scrape_after: Scrape,
    daemon_cpu_ms: f64,
    generator_cpu_ms: f64,
}

impl Measured {
    fn delta(&self, key: &str) -> f64 {
        counter(&self.stats_after, key) - counter(&self.stats_before, key)
    }

    fn scraped(&self, name: &str) -> f64 {
        self.scrape_after.get(name) - self.scrape_before.get(name)
    }
}

fn measure(daemon: &Daemon, plan: &Plan<'_>) -> Result<Measured, String> {
    // Control connections, used only outside the window: one on either
    // side of it, because the daemon closes a connection left idle for
    // 30 s and a window may be longer.
    let mut control = daemon.connect()?;
    let scrape_before = Scrape::fetch(&mut control)?;
    let stats_before = control.request_json("GET", paths::STATS, "")?;
    let own = std::process::id();
    let (daemon_cpu, own_cpu) = (daemon.cpu_ms()?, procfs::cpu_ms(own)?);
    let window = load::run(plan)?;
    let daemon_cpu_ms = daemon.cpu_ms()? - daemon_cpu;
    let generator_cpu_ms = procfs::cpu_ms(own)? - own_cpu;
    let mut control = daemon.connect()?;
    let stats_after = control.request_json("GET", paths::STATS, "")?;
    let scrape_after = Scrape::fetch(&mut control)?;
    Ok(Measured {
        window,
        stats_before,
        stats_after,
        scrape_before,
        scrape_after,
        daemon_cpu_ms,
        generator_cpu_ms,
    })
}

/// The ops whose result bodies are kept for the reference check.
fn checked_ops(seed: u64) -> Vec<u64> {
    let mut rng = Rng::stream(seed, 0x5a3b_1e00);
    let mut ops: Vec<u64> = Vec::new();
    while ops.len() < CHECKED {
        let op = rng.below(CHECKED_AMONG);
        if !ops.contains(&op) {
            ops.push(op);
        }
    }
    ops
}

/// Compare kept result bodies with the in-process reference; a byte
/// mismatch in `report` or `runs` is a failed op.
fn check_bodies(jobs: Vec<(Job, Vec<u8>)>, out: &mut Outcome) -> Result<usize, String> {
    let mut checked = 0;
    for (job, body) in jobs {
        let reference = layers::reference(&job)?;
        let doc = parse_body(&body)?;
        let member = |key: &str| doc.get(key).map(Json::render).unwrap_or_default();
        let served = ReportBytes {
            report: member("report"),
            runs: member("runs"),
        };
        if served != reference {
            out.failed += 1;
            out.problems
                .push(format!("{}: served result differs from analyze", job.name));
        }
        checked += 1;
    }
    Ok(checked)
}

/// A stats delta the workload's design predicts exactly.
fn predict(out: &mut Outcome, what: &str, got: f64, holds: bool) {
    if !holds {
        out.problems.push(format!("{what}: got {got}"));
    }
}

/// The traced pass's in-process stopwatches: the first jobs of the
/// stream analyzed whole and taken apart, the two compared.
fn layer_samples(
    stream: &dyn JobStream,
    rec: &mut Recorder,
    samples: &mut Samples,
    out: &mut Outcome,
) -> Result<(), String> {
    for i in 0..LAYER_JOBS {
        let job = stream.job(i);
        let (program, config) = layers::resolve(&job)?;
        let t = Instant::now();
        let whole = analyze(&program, &job.scales, &config).map_err(|e| e.to_string())?;
        samples.push("core.analyze_us", t.elapsed().as_secs_f64() * 1e6);
        let input = Input {
            file_name: &job.name,
            source: &job.text,
            program: &program,
            scales: &job.scales,
            config: &config,
        };
        // Op ids above any load op's, so the in-process spans stand apart.
        let staged = decompose(&input, u64::MAX - i, rec, samples)?;
        if ReportBytes::of(&staged) != ReportBytes::of(&whole) {
            out.problems.push(format!(
                "{}: decomposed pipeline and analyze disagree",
                job.name
            ));
        }
    }
    Ok(())
}

/// Per-layer metrics read off one traced window.
fn set_window_layers(out: &mut Outcome, m: &Measured) {
    let ops = m.window.succeeded().max(1) as f64;
    for (name, key) in [
        ("service.submitted", "submitted"),
        ("service.result_hits", "cache_hits"),
        ("service.result_misses", "cache_misses"),
        ("service.result_evicted", "evicted"),
        ("service.scale_hits", "scale_hits"),
        ("service.scale_misses", "scale_misses"),
        ("service.scale_evicted", "scale_evicted"),
        ("service.psg_hits", "psg_hits"),
        ("service.psg_misses", "psg_misses"),
        ("service.executed", "executed"),
        ("service.rejected", "rejected"),
        ("service.failed", "failed"),
    ] {
        out.set(name, m.delta(key));
    }
    let scales = m.delta("scale_hits") + m.delta("scale_misses");
    if scales > 0.0 {
        out.set("service.scale_hit_ratio", m.delta("scale_hits") / scales);
    }
    // Sums, not the exposition's quantiles: those are power-of-two
    // bucket midpoints over the daemon's whole life, while a sum delta
    // is exact and covers this window only.
    for (name, family) in [
        ("service.stage_http_read_us", "scalana_stage_http_read_ns"),
        ("service.stage_parse_us", "scalana_stage_parse_ns"),
        ("service.stage_queue_wait_us", "scalana_stage_queue_wait_ns"),
        ("service.stage_resolve_us", "scalana_stage_resolve_ns"),
        ("service.stage_simulate_us", "scalana_stage_simulate_ns"),
        ("service.stage_assemble_us", "scalana_stage_assemble_ns"),
        ("service.stage_render_us", "scalana_stage_render_ns"),
        ("service.stage_write_us", "scalana_stage_write_ns"),
        ("service.job_us", "scalana_job_ns"),
        ("service.readiness_round_us", "scalana_readiness_round_ns"),
    ] {
        out.set(name, m.scraped(&format!("{family}_sum")) / 1e3 / ops);
    }
    out.set(
        "service.sim_events",
        m.scraped("scalana_sim_events_total") / ops,
    );
    let job_ns = m.scraped("scalana_job_ns_sum");
    if job_ns > 0.0 {
        out.set(
            "service.simulate_share",
            m.scraped("scalana_stage_simulate_ns_sum") / job_ns,
        );
    }
    out.set("bench.ops", m.window.attempted as f64);
    out.set("bench.timed_s", m.window.wall.as_secs_f64());
    let cpu = m.generator_cpu_ms + m.daemon_cpu_ms;
    if cpu > 0.0 {
        out.set("bench.generator_cpu_share", m.generator_cpu_ms / cpu);
    }
}

pub fn run(kind: Kind, config: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::new(kind.name());
    std::fs::create_dir_all(&config.out_dir)
        .map_err(|e| format!("{}: {e}", config.out_dir.display()))?;

    // Set up several times and report the median; all but the last are
    // torn down again, the last is measured on.
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS {
        if let Some(Ready { daemon, store, .. }) = ready.take() {
            tear_down(daemon, store.as_deref())?;
        }
        let started = Instant::now();
        ready = Some(set_up(kind, config)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let ready = ready.expect("at least one set-up ran");
    let store = ready.store.clone();
    let result = measure_kind(kind, config, ready, &mut out);
    if let Some(dir) = &store {
        let _ = std::fs::remove_dir_all(dir);
    }
    result?;
    if !config.traced {
        out.set("setup_s", stats::median(&setups));
    }
    Ok(out)
}

/// What the passes accumulate across their windows.
struct Gathered {
    rec: Recorder,
    samples: Samples,
    /// Result bodies kept for the reference check, with their jobs.
    kept: Vec<(Job, Vec<u8>)>,
}

impl Gathered {
    fn absorb(&mut self, out: &mut Outcome, window: &mut Window, stream: &dyn JobStream) {
        out.attempted += window.attempted;
        out.failed += window.failed;
        out.problems.append(&mut window.errors);
        if let Some(spans) = window.recorder.take() {
            self.rec.absorb(spans);
        }
        self.samples.extend(std::mem::take(&mut window.samples));
        self.kept.extend(
            std::mem::take(&mut window.kept)
                .into_iter()
                .map(|(i, body)| (stream.job(i), body)),
        );
    }
}

fn measure_kind(
    kind: Kind,
    config: &Config,
    ready: Ready,
    out: &mut Outcome,
) -> Result<(), String> {
    let Ready {
        mut daemon,
        stream,
        warm,
        store,
    } = ready;
    let origin = Instant::now();
    let mut got = Gathered {
        rec: Recorder::new(origin),
        samples: Samples::default(),
        kept: Vec::new(),
    };
    // `serve_hot` checks every response against the warmed one instead
    // of keeping a sample.
    let keep = if warm.is_empty() {
        checked_ops(config.seed)
    } else {
        Vec::new()
    };
    let window_s = match kind {
        Kind::Restart => config.seconds * FILL_SHARE,
        _ => config.seconds,
    };
    let plan = |first_op: u64, seconds: f64, traced: bool| Plan {
        addr: &daemon.addr,
        stream: &*stream,
        first_op,
        stop: Stop::After(Duration::from_secs_f64(seconds)),
        keep: &keep,
        expect: &warm,
        traced: traced.then_some(origin),
        cpu_of: daemon.pid(),
    };

    // The main window. A traced pass runs an untraced stretch first and
    // reads the tracing overhead off the two throughputs.
    let mut first_op = 0;
    let mut untraced_rate = None;
    let mut seconds = window_s;
    if config.traced {
        let mut before = load::run(&plan(0, window_s * UNTRACED_SHARE, false))?;
        first_op = before.next_op;
        untraced_rate = Some(before.ops_per_s());
        seconds -= window_s * UNTRACED_SHARE;
        got.absorb(out, &mut before, &*stream);
    }
    let mut main = measure(&daemon, &plan(first_op, seconds, config.traced))?;
    let mut latency_blocks = main.window.blocks();
    let mut peak_rss_mb = daemon.peak_rss_mb()?;
    got.absorb(out, &mut main.window, &*stream);

    match kind {
        Kind::Unique => predict(
            out,
            "serve_unique predicts scale_hits = 0",
            main.delta("scale_hits"),
            main.delta("scale_hits") == 0.0,
        ),
        Kind::Hot => predict(
            out,
            "serve_hot predicts executed = 0",
            main.delta("executed"),
            main.delta("executed") == 0.0,
        ),
        Kind::Overlap => {
            let hits = main.delta("scale_hits");
            let ratio = hits / (hits + main.delta("scale_misses"));
            predict(
                out,
                "serve_overlap predicts scale_hit_ratio >= 0.9",
                ratio,
                ratio >= 0.9,
            );
        }
        Kind::Restart => {}
    }
    if config.traced {
        set_window_layers(out, &main);
        if let Some(untraced) = untraced_rate.filter(|&r| r > 0.0) {
            out.set(
                "obs.trace_overhead_pct",
                100.0 * (1.0 - main.window.ops_per_s() / untraced),
            );
        }
    } else {
        out.set_rate(&main.window.blocks());
    }

    if kind == Kind::Restart {
        let store = store
            .as_deref()
            .expect("serve_restart runs on a store directory");
        let reserve_stream = Unique::new(config.seed, "u").with_abnorm_thd(RESERVE_THD);
        let reserve_window = |successor: &Daemon| {
            measure(
                successor,
                &Plan {
                    addr: &successor.addr,
                    stream: &reserve_stream,
                    first_op: 0,
                    stop: Stop::AtOp(main.window.next_op),
                    keep: &keep,
                    expect: &[],
                    traced: config.traced.then_some(origin),
                    cpu_of: successor.pid(),
                },
            )
        };
        let (successor, mut reserve) =
            restart_and_reserve(daemon, store, &main, reserve_window, config.traced, out)?;
        daemon = successor;
        latency_blocks = reserve.window.blocks();
        peak_rss_mb = peak_rss_mb.max(daemon.peak_rss_mb()?);
        got.absorb(out, &mut reserve.window, &reserve_stream);
    }

    // Stop the daemon before the checks below: they are CPU-bound and
    // nothing is being timed any more.
    tear_down(daemon, None)?;

    let kept = if warm.is_empty() { got.kept } else { warm };
    let checked = check_bodies(kept, out)?;
    out.notes
        .push(format!("results checked against analyze: {checked}"));
    if checked == 0 {
        out.problems.push("no result was checked".to_string());
    }

    out.set_latency(&latency_blocks, config);
    if config.traced {
        layer_samples(&*stream, &mut got.rec, &mut got.samples, out)?;
        out.set_layer_medians(&got.samples);
        out.set(
            "bench.failed_ops_ratio",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
        out.spans = got.rec.spans;
    } else {
        out.set("peak_rss_mb", peak_rss_mb);
    }
    Ok(())
}

/// The second half of `serve_restart`: drain the filled daemon, start a
/// successor on the same directory, and re-serve every filled job under
/// a new threshold (new job keys, every scale already on disk).
/// `reserve_window` runs the re-serve window against the successor.
fn restart_and_reserve(
    filled: Daemon,
    store: &Path,
    fill: &Measured,
    reserve_window: impl FnOnce(&Daemon) -> Result<Measured, String>,
    traced: bool,
    out: &mut Outcome,
) -> Result<(Daemon, Measured), String> {
    // Drain: graceful stop with the write-behind backlog flushed.
    let drained = filled.shutdown()?;
    // The successor has loaded every entry by the time it prints its
    // address; healthz confirms it serves.
    let spawned = Instant::now();
    let daemon = Daemon::spawn(Some(store))?;
    let mut control = daemon.connect()?;
    control.request_json("GET", paths::HEALTHZ, "")?;
    let ready_s = spawned.elapsed().as_secs_f64();
    let stats = control.request_json("GET", paths::STATS, "")?;
    let (loaded, entries) = (
        counter(&stats, "store_loaded"),
        counter(&stats, "store_entries"),
    );
    predict(
        out,
        &format!("the successor loads what the store holds ({entries} entries)"),
        loaded,
        loaded > 0.0 && loaded == entries,
    );

    let reserve = reserve_window(&daemon)?;
    // `scale_misses` cannot be the check: the daemon counts a miss of
    // the in-memory tier even when the disk tier then serves the image,
    // and a fill outgrows the 1024-image memory tier. What must not
    // happen is a simulation.
    let simulated = reserve.scraped("scalana_sim_runs_total");
    predict(
        out,
        "serve_restart predicts no simulation when re-serving",
        simulated,
        simulated == 0.0 && reserve.delta("executed") == reserve.window.attempted as f64,
    );
    if traced {
        out.set("store.writes", fill.delta("store_writes"));
        out.set("store.write_errors", fill.delta("store_write_errors"));
        out.set("store.skipped", fill.delta("store_skipped"));
        out.set("store.loaded", loaded);
        out.set("store.quarantined", counter(&stats, "store_quarantined"));
        out.set("store.entries", entries);
        out.set("store.bytes", counter(&stats, "store_bytes"));
        out.set("store.fill_ops_s", fill.window.ops_per_s());
        out.set("store.reserve_ops_s", reserve.window.ops_per_s());
        out.set("store.restart_ready_s", ready_s);
        out.set("store.drain_s", drained.as_secs_f64());
    }
    Ok((daemon, reserve))
}
