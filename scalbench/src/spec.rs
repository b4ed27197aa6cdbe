//! The benchmark's contract as data: the workloads and every metric
//! with its unit, direction and regression bound. `BENCHMARK.json` at
//! the repository root lists the same names (a unit test keeps the two
//! in step); `compare` reads its bounds from here.

/// The command the driver runs from the repository root (it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`). Only
/// path dependencies are involved, so `--offline` costs nothing and
/// keeps cargo from ever reaching for a registry.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "scalbench/Cargo.toml",
    "--",
];

/// How long one run measures, in seconds (`run_seconds` in
/// `BENCHMARK.json`); the default of `--seconds`.
pub const RUN_SECONDS: u64 = 20;

/// Closed-loop client threads, one keep-alive connection each. The
/// recording host has two cores; callers of `scalana submit --wait`
/// each wait for their reply, hence a closed loop.
pub const CLIENTS: usize = 2;

/// Worker threads of the child daemon.
pub const DAEMON_WORKERS: usize = 2;

/// Complete set-ups per run; `setup_s` is their median, and the last
/// one is measured on. A set-up is 30 to 150 ms, most of it process
/// spawn and first-touch costs, so a single one is a noisy reading.
pub const SETUPS: usize = 5;

/// One workload: its name and the one-line reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "pipeline_cold",
        why: "in-process analyze_app over the 11 paper apps, nothing cached: mpisim, profile, graph and detect do all the work, service/api/store none",
    },
    Workload {
        name: "serve_unique",
        why: "every job a never-seen program: all cache tiers miss and evict, the full daemon path with simulation dominant (write side of every cache)",
    },
    Workload {
        name: "serve_overlap",
        why: "48 programs that fit every cache, new job keys whose scales are already profiled: profile load, PPG assembly, detect and HTTP dominate (read side)",
    },
    Workload {
        name: "serve_hot",
        why: "64 warmed jobs resubmitted byte-identically: the result-cache hit path, only http + api codec + registry lookup; an engine change must not move it",
    },
    Workload {
        name: "serve_restart",
        why: "durable store used both ways: fill with write-behind on, graceful drain, successor on the same directory, then every job re-served from disk",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric. End-to-end metrics carry a bound (the share of the
/// reference median by which the metric may get worse before it counts
/// as a regression); per-layer metrics carry none.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
    /// What the number is.
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        what,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", Lower, 0.25,
        "workload start to first timed op: input generation, daemon spawn + bind, priming, warm-up ops; median of the run's five complete set-ups"),
    e2e("throughput_ops_s", "ops/s", Higher, 0.25,
        "succeeded ops per second, median over the window's blocks; pipeline_cold: analyses/s, a block is one pass; serve_restart: fill phase"),
    e2e("latency_p50_ms", "ms", Lower, 0.25,
        "median op latency (submit + wait + result as one op; pipeline_cold: one analyze_app call; serve_restart: re-serve phase), median over blocks"),
    e2e("latency_p95_ms", "ms", Lower, 0.25,
        "p95 of the same samples, median over the blocks that have 200 samples (ten beyond it); pipeline_cold pools its run's samples"),
    e2e("cpu_ms_per_op", "ms", Lower, 0.25,
        "utime+stime of the daemon child (of scalbench itself on pipeline_cold) per op, median over blocks; serve_restart: fill phase"),
    e2e("peak_rss_mb", "MB", Lower, 0.25,
        "VmHWM of the daemon child (max over both daemons on serve_restart; scalbench itself on pipeline_cold)"),
];

/// Metrics of single layers (layer = crate name), all measured from
/// outside: stopwatches around public calls, `/v1/stats` deltas,
/// `/v1/metrics` sum/count deltas, `/proc`. A workload that does not
/// exercise a layer reports 0 for that layer's metrics.
pub const PER_LAYER: [Metric; 86] = [
    // lang
    layer("lang.parse_us", "us", Lower, "parse_program of one job's source (median)"),
    // graph
    layer("graph.build_psg_us", "us", Lower, "build_psg of one program (median)"),
    layer("graph.psg_vertices", "count", Lower, "vertices after contraction (median over programs)"),
    layer("graph.contract_ratio", "ratio", Higher, "share of vertices removed by contraction (median)"),
    layer("graph.into_ppg_us", "us", Lower, "ProfileData::into_ppg of one scale (median)"),
    // mpisim
    layer("mpisim.run_us", "us", Lower, "hook-less Simulation::run over the refined PSG, one scale (median)"),
    layer("mpisim.events", "count", Lower, "simulator events seen by a counting observer, per analysis (median; exact per input)"),
    layer("mpisim.events_per_s", "1/s", Higher, "total events / total profiled-run wall"),
    // profile
    layer("profile.hook_us", "us", Lower, "profile_one_scale minus hook-less run, same scale, interleaved (median)"),
    layer("profile.hook_share", "ratio", Lower, "sum of hook_us / sum of profile_one_scale_us"),
    layer("profile.save_us", "us", Lower, "store::save of one scale's profile (median)"),
    layer("profile.load_us", "us", Lower, "store::load of one scale's image (median)"),
    layer("profile.image_bytes", "bytes", Lower, "image size of one scale (median)"),
    layer("profile.image_kb", "KB", Lower, "sum of image sizes over one pass of the workload's jobs: the paper's storage cost (exact per input)"),
    layer("profile.samples", "count", Lower, "timer samples per scale (median)"),
    layer("profile.comm_edges", "count", Lower, "aggregated communication-dependence edges per scale (median)"),
    // detect
    layer("detect.detect_us", "us", Lower, "detect over one analysis' PPGs (median)"),
    layer("detect.root_causes", "count", Higher, "root causes reported per analysis (median)"),
    layer("detect.root_causes_found", "count", Higher, "apps whose hand-written expected_root_cause is found (pipeline_cold; must be 3)"),
    // core
    layer("core.refined_psg_us", "us", Lower, "refined_psg: static PSG + indirect-call discovery run (median)"),
    layer("core.profile_one_scale_us", "us", Lower, "one profiled run at one scale (median)"),
    layer("core.assemble_us", "us", Lower, "assemble: PPGs + detect for one analysis (median)"),
    layer("core.analyze_us", "us", Lower, "one whole analyze call (median over the job mix)"),
    layer("core.analyze_us.BT", "us", Lower, "analyze_app of BT (median)"),
    layer("core.analyze_us.CG", "us", Lower, "analyze_app of CG (median)"),
    layer("core.analyze_us.EP", "us", Lower, "analyze_app of EP (median)"),
    layer("core.analyze_us.FT", "us", Lower, "analyze_app of FT (median)"),
    layer("core.analyze_us.MG", "us", Lower, "analyze_app of MG (median)"),
    layer("core.analyze_us.SP", "us", Lower, "analyze_app of SP (median)"),
    layer("core.analyze_us.LU", "us", Lower, "analyze_app of LU (median)"),
    layer("core.analyze_us.IS", "us", Lower, "analyze_app of IS (median)"),
    layer("core.analyze_us.SST", "us", Lower, "analyze_app of SST (median)"),
    layer("core.analyze_us.NEK", "us", Lower, "analyze_app of NEK (median)"),
    layer("core.analyze_us.ZMP", "us", Lower, "analyze_app of ZMP (median)"),
    layer("core.span_sum_us", "us", Lower, "refined_psg + every profile_one_scale + assemble, run one after another (median per analysis)"),
    layer("core.parallel_gain", "ratio", Higher, "sum of span_sum_us / sum of analyze wall for the same jobs: two estimators of one quantity"),
    // api
    layer("api.encode_submit_us", "us", Lower, "SubmitRequest::to_json().render() of one job (median)"),
    layer("api.parse_result_us", "us", Lower, "json::parse of one result body (median)"),
    layer("api.result_bytes", "bytes", Lower, "result body size (median)"),
    // service, client stopwatch
    layer("service.submit_rtt_us", "us", Lower, "POST /v1/jobs round trip (median)"),
    layer("service.wait_rtt_us", "us", Lower, "long-poll wait round trip (median)"),
    layer("service.result_rtt_us", "us", Lower, "GET result round trip (median)"),
    layer("service.latency_p99_ms", "ms", Lower, "p99 op latency (needs 1000 samples; 0 with fewer)"),
    // service, exact /v1/stats deltas over the traced window
    layer("service.submitted", "count", Higher, "jobs submitted"),
    layer("service.result_hits", "count", Higher, "result-cache hits"),
    layer("service.result_misses", "count", Lower, "result-cache misses"),
    layer("service.result_evicted", "count", Lower, "results evicted"),
    layer("service.scale_hits", "count", Higher, "per-scale profile-cache hits"),
    layer("service.scale_misses", "count", Lower, "per-scale profile-cache misses (each one simulates)"),
    layer("service.scale_evicted", "count", Lower, "profile images evicted"),
    layer("service.scale_hit_ratio", "ratio", Higher, "scale_hits / (scale_hits + scale_misses)"),
    layer("service.psg_hits", "count", Higher, "refined-PSG cache hits"),
    layer("service.psg_misses", "count", Lower, "refined-PSG cache misses"),
    layer("service.executed", "count", Lower, "jobs a worker executed"),
    layer("service.rejected", "count", Lower, "submissions refused"),
    layer("service.failed", "count", Lower, "jobs failed"),
    // service, /v1/metrics sum deltas over the traced window, per op
    layer("service.stage_http_read_us", "us", Lower, "scalana_stage_http_read_ns per op (includes keep-alive idle time)"),
    layer("service.stage_parse_us", "us", Lower, "scalana_stage_parse_ns per op"),
    layer("service.stage_queue_wait_us", "us", Lower, "scalana_stage_queue_wait_ns per op"),
    layer("service.stage_resolve_us", "us", Lower, "scalana_stage_resolve_ns per op"),
    layer("service.stage_simulate_us", "us", Lower, "scalana_stage_simulate_ns per op (summed over the op's scales)"),
    layer("service.stage_assemble_us", "us", Lower, "scalana_stage_assemble_ns per op"),
    layer("service.stage_render_us", "us", Lower, "scalana_stage_render_ns per op (three requests)"),
    layer("service.stage_write_us", "us", Lower, "scalana_stage_write_ns per op (three responses)"),
    layer("service.job_us", "us", Lower, "scalana_job_ns per op: worker claim to terminal state"),
    layer("service.simulate_share", "ratio", Lower, "stage_simulate_us / job_us (can pass 1: scales simulate on both workers)"),
    layer("service.readiness_round_us", "us", Lower, "scalana_readiness_round_ns per op"),
    layer("service.sim_events", "count", Lower, "scalana_sim_events_total per op"),
    layer("service.trace_coverage", "ratio", Higher, "sum of a job's /trace top-level spans / client stopwatch of the same op (every 8th op; median)"),
    // store
    layer("store.writes", "count", Lower, "store_writes delta over the fill"),
    layer("store.write_errors", "count", Lower, "store_write_errors delta"),
    layer("store.skipped", "count", Lower, "store_skipped delta"),
    layer("store.loaded", "count", Higher, "entries the successor loaded at start"),
    layer("store.quarantined", "count", Lower, "entries the successor quarantined"),
    layer("store.entries", "count", Lower, "entries on disk after the drain"),
    layer("store.bytes", "bytes", Lower, "bytes on disk after the drain"),
    layer("store.fill_ops_s", "ops/s", Higher, "fill-phase throughput (traced part)"),
    layer("store.reserve_ops_s", "ops/s", Higher, "re-serve-phase throughput"),
    layer("store.restart_ready_s", "s", Lower, "successor spawn to /v1/healthz OK with every entry loaded"),
    layer("store.drain_s", "s", Lower, "POST /v1/shutdown to child exit, write-behind backlog flushed"),
    // obs
    layer("obs.trace_overhead_pct", "%", Lower, "throughput lost in the traced part against the untraced part of the same run (serve_* only)"),
    // bench
    layer("bench.ops", "count", Higher, "ops in the traced window"),
    layer("bench.timed_s", "s", Lower, "wall of the traced window"),
    layer("bench.generator_cpu_share", "ratio", Lower, "load-generator CPU / (generator + daemon): says when serve_hot is measuring the client"),
    layer("bench.failed_ops_ratio", "ratio", Lower, "failed / attempted ops (transport error, non-2xx, state not done, wrong output)"),
    layer("bench.latency_samples", "count", Higher, "latency samples behind the percentiles"),
];

/// Look a metric up by name in either table.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalana_api::json::parse;
    use scalana_api::Json;

    fn names(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` array"))
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// program prints and what `compare` bounds by. They must not drift.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let doc = parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(
            names(&doc, "workloads"),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).and_then(Json::as_array).unwrap();
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (entry, metric) in listed.iter().zip(table) {
                let field = |k: &str| entry.get(k).and_then(Json::as_str).unwrap().to_string();
                assert_eq!(field("name"), metric.name);
                assert_eq!(field("unit"), metric.unit, "{}", metric.name);
                assert_eq!(field("better"), metric.better.as_str(), "{}", metric.name);
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    metric.bound,
                    "{}",
                    metric.name
                );
            }
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_i64),
            Some(RUN_SECONDS as i64)
        );
    }

    #[test]
    fn names_are_unique_and_every_app_has_its_metric() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.name)
            .collect();
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total);
        for app in scalana_apps::all_apps() {
            assert!(metric(&format!("core.analyze_us.{}", app.name)).is_some());
        }
    }
}
