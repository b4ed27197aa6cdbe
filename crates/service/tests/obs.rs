//! Observability end-to-end: the `/v1/metrics` exposition shape, the
//! per-job trace timeline, and their agreement with `/v1/stats`.
//!
//! The contract under test:
//!
//! - `/v1/metrics` renders deterministically (family set and order are
//!   pinned) and its mirrored cache counters are computed from the same
//!   atomics `/v1/stats` reads — the two can never disagree;
//! - a terminal job's trace tiles the whole submit→terminal interval
//!   (top-level durations sum to `total_ns`), and its per-scale
//!   `cache` tags match the `/v1/stats` deltas exactly;
//! - two structurally identical submissions produce identical span
//!   trees, with the predicted `miss`→`hit` tag flips;
//! - the trace says what a job reused: `program` on the `resolve` span,
//!   `decode` on every `scale` span.

use scalana_api::{paths, ApiError, ErrorCode, TraceResponse, TraceSpan};
use scalana_service::client::Conn;
use scalana_service::json::Json;
use scalana_service::{client, Server, ServiceConfig};
use std::time::{Duration, Instant};

fn boot(workers: usize) -> String {
    let server = Server::bind(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_capacity: 32,
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    std::thread::spawn(move || server.run());
    addr
}

/// Unique programs per test so cache interactions are test-local.
fn program_text(work: u64) -> String {
    format!(
        "param WORK = {work};\n\
         fn main() {{\n\
             for it in 0 .. 3 {{\n\
                 comp(cycles = WORK / nprocs, ins = WORK / nprocs);\n\
                 if rank == 0 {{ comp(cycles = WORK / 6, ins = WORK / 6); }}\n\
                 barrier();\n\
             }}\n\
             allreduce(bytes = 8);\n\
         }}"
    )
}

fn submit_body(text: &str, scales: &[usize], abnorm_thd: Option<f64>) -> String {
    let mut fields = vec![
        ("source", text.into()),
        ("name", "obs.mmpi".into()),
        ("scales", scales.to_vec().into()),
    ];
    if let Some(thd) = abnorm_thd {
        fields.push(("abnorm_thd", thd.into()));
    }
    Json::obj(fields).render()
}

/// Submit + long-poll to terminal; returns the job key.
fn run_job(conn: &mut Conn, body: &str) -> String {
    let ack = conn.request_json("POST", paths::JOBS, body).unwrap();
    let key = ack.get("job").and_then(Json::as_str).unwrap().to_string();
    let last = conn.wait_for_job(&key, Duration::from_secs(120)).unwrap();
    assert_eq!(last.get("status").and_then(Json::as_str), Some("done"));
    key
}

fn fetch_trace(conn: &mut Conn, key: &str) -> TraceResponse {
    let doc = conn
        .request_json("GET", &paths::job_trace(key), "")
        .unwrap();
    TraceResponse::from_json(&doc).expect("trace document decodes")
}

fn stats_doc(conn: &mut Conn) -> Json {
    conn.request_json("GET", paths::STATS, "").unwrap()
}

fn stat(doc: &Json, key: &str) -> i64 {
    doc.get(key).and_then(Json::as_i64).unwrap()
}

/// Exposition text → `(sample name, value)` pairs.
fn parse_exposition(text: &str) -> Vec<(String, u64)> {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (name, value) = line.rsplit_once(' ')?;
            Some((name.to_string(), value.parse::<u64>().ok()?))
        })
        .collect()
}

fn sample(samples: &[(String, u64)], name: &str) -> u64 {
    samples
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("no sample `{name}`"))
        .1
}

#[test]
fn metrics_exposition_has_the_golden_shape() {
    let addr = boot(1);
    let mut conn = Conn::connect(&addr).unwrap();
    let response = conn.request_full("GET", paths::METRICS, "").unwrap();
    assert_eq!(response.code, 200);
    assert!(
        response
            .header("Content-Type")
            .is_some_and(|ct| ct.starts_with("text/plain")),
        "exposition is text, not JSON"
    );
    let text = String::from_utf8(response.body).unwrap();

    // Golden family list: names and order are the contract (sorted,
    // deterministic — scraping tools and the smoke script rely on it).
    let families: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("# TYPE "))
        .map(|l| l.split_whitespace().nth(2).unwrap())
        .collect();
    assert_eq!(
        families,
        vec![
            "scalana_accept_errors_total",
            "scalana_build_info",
            "scalana_cache_psg_hits_total",
            "scalana_cache_psg_misses_total",
            "scalana_cache_result_evicted_total",
            "scalana_cache_result_hits_total",
            "scalana_cache_result_misses_total",
            "scalana_cache_scale_evicted_total",
            "scalana_cache_scale_hits_total",
            "scalana_cache_scale_misses_total",
            "scalana_connections",
            "scalana_epoll_registered_fds",
            "scalana_http_requests_total",
            "scalana_job_ns",
            "scalana_jobs_completed_total",
            "scalana_jobs_executed_total",
            "scalana_jobs_failed_total",
            "scalana_jobs_rejected_total",
            "scalana_jobs_submitted_total",
            "scalana_longpoll_parked",
            "scalana_longpoll_parks_total",
            "scalana_longpoll_wakes_total",
            "scalana_profiles_cached",
            "scalana_programs_indexed",
            "scalana_queue_depth",
            "scalana_readiness_round_ns",
            "scalana_results_cached",
            "scalana_sim_events_total",
            "scalana_sim_inflight_ops_peak",
            "scalana_sim_run_ns",
            "scalana_sim_runs_total",
            "scalana_stage_assemble_ns",
            "scalana_stage_http_read_ns",
            "scalana_stage_parse_ns",
            "scalana_stage_queue_wait_ns",
            "scalana_stage_render_ns",
            "scalana_stage_resolve_ns",
            "scalana_stage_simulate_ns",
            "scalana_stage_write_ns",
            "scalana_store_backlog_bytes",
            "scalana_store_bytes",
            "scalana_store_commits_total",
            "scalana_store_degraded",
            "scalana_store_entries",
            "scalana_store_evicted_total",
            "scalana_store_loaded_total",
            "scalana_store_quarantined_total",
            "scalana_store_skipped_total",
            "scalana_store_write_errors_total",
            "scalana_store_writes_total",
            "scalana_uptime_ms",
            "scalana_workers",
        ],
    );

    // Build info carries the crate version as a label, value 1.
    let version = env!("CARGO_PKG_VERSION");
    assert!(
        text.contains(&format!("scalana_build_info{{version=\"{version}\"}} 1")),
        "build info line present"
    );
    // Histograms render as summaries: quantiles + _max/_count/_sum.
    for suffix in [
        "{quantile=\"0.5\"}",
        "{quantile=\"0.9\"}",
        "{quantile=\"0.99\"}",
        "_max",
        "_count",
        "_sum",
    ] {
        assert!(
            text.contains(&format!("scalana_stage_simulate_ns{suffix} ")),
            "summary sample `{suffix}` present"
        );
    }
    let _ = client::request(&addr, "POST", paths::SHUTDOWN, "");
}

#[test]
fn metrics_cache_counters_always_agree_with_stats() {
    let addr = boot(2);
    let mut conn = Conn::connect(&addr).unwrap();
    let text = program_text(701_000);
    run_job(&mut conn, &submit_body(&text, &[2, 4], None));
    run_job(&mut conn, &submit_body(&text, &[2, 4, 8], None));

    let stats = stats_doc(&mut conn);
    let (code, exposition) = conn.request("GET", paths::METRICS, "").unwrap();
    assert_eq!(code, 200);
    let samples = parse_exposition(&exposition);

    // Mirrored families render from the same atomics `/stats` reads;
    // no job ran between the two requests, so equality is exact.
    for (family, stat_key) in [
        ("scalana_cache_result_hits_total", "cache_hits"),
        ("scalana_cache_result_misses_total", "cache_misses"),
        ("scalana_cache_result_evicted_total", "evicted"),
        ("scalana_cache_scale_hits_total", "scale_hits"),
        ("scalana_cache_scale_misses_total", "scale_misses"),
        ("scalana_cache_scale_evicted_total", "scale_evicted"),
        ("scalana_cache_psg_hits_total", "psg_hits"),
        ("scalana_cache_psg_misses_total", "psg_misses"),
        ("scalana_jobs_submitted_total", "submitted"),
        ("scalana_jobs_completed_total", "completed"),
        ("scalana_jobs_failed_total", "failed"),
        ("scalana_workers", "workers"),
    ] {
        assert_eq!(
            sample(&samples, family),
            stat(&stats, stat_key) as u64,
            "{family} must equal stats.{stat_key}"
        );
    }
    // The overlap really happened: 2 hits (scales 2, 4), 3 misses.
    assert_eq!(sample(&samples, "scalana_cache_scale_hits_total"), 2);
    assert_eq!(sample(&samples, "scalana_cache_scale_misses_total"), 3);
    // The simulator hook observed every simulated scale.
    assert_eq!(sample(&samples, "scalana_sim_runs_total"), 3);
    assert!(sample(&samples, "scalana_sim_events_total") > 0);
    // Each stage span fed its histogram exactly once per stage run:
    // one simulate per simulated scale, one parse per submission, one
    // resolve and one assemble per executed job. Every span closes
    // before its job's terminal transition, which the long-poll waited
    // for, so the counts are exact.
    assert_eq!(
        sample(&samples, "scalana_stage_simulate_ns_count"),
        sample(&samples, "scalana_sim_runs_total")
    );
    for stage in ["parse", "resolve", "assemble"] {
        let family = format!("scalana_stage_{stage}_ns_count");
        assert_eq!(sample(&samples, &family), 2, "{family}");
    }
    let _ = client::request(&addr, "POST", paths::SHUTDOWN, "");
}

#[test]
fn trace_tiles_the_whole_interval_and_tags_match_stats_deltas() {
    let addr = boot(2);
    let mut conn = Conn::connect(&addr).unwrap();
    let text = program_text(901_000);

    let before = stats_doc(&mut conn);
    let started = Instant::now();
    let key = run_job(&mut conn, &submit_body(&text, &[2, 4, 8], None));
    let elapsed_ns = started.elapsed().as_nanos() as u64;
    let after = stats_doc(&mut conn);

    let trace = fetch_trace(&mut conn, &key);
    assert_eq!(trace.job, key);

    // Top-level spans tile [arrival, terminal]: submit + queue_wait +
    // run, contiguous, durations summing exactly to total_ns.
    let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["submit", "queue_wait", "run"]);
    assert_eq!(trace.accounted_ns(), trace.total_ns, "spans tile exactly");
    let mut cursor = 0;
    for span in &trace.spans {
        assert_eq!(span.start_ns, cursor, "spans are contiguous");
        cursor += span.duration_ns;
    }

    // End-to-end accounting: the trace covers the interval the client
    // observed, minus client-side overhead (network round trips, JSON).
    // The long-poll answers at the terminal transition, so the gap is
    // small; 10% + a fixed floor keeps slow CI machines honest.
    assert!(
        trace.total_ns <= elapsed_ns,
        "trace cannot exceed wall time"
    );
    let slack = (elapsed_ns / 10).max(50_000_000);
    assert!(
        elapsed_ns - trace.total_ns <= slack,
        "unaccounted time {}ns exceeds slack {}ns (total {}ns, elapsed {}ns)",
        elapsed_ns - trace.total_ns,
        slack,
        trace.total_ns,
        elapsed_ns
    );

    // Per-scale cache verdicts match the /stats deltas *exactly*: a
    // cold job over three scales is three misses, zero hits.
    let scale_spans: Vec<&TraceSpan> = trace
        .flatten()
        .into_iter()
        .filter(|s| s.name == "scale")
        .collect();
    assert_eq!(scale_spans.len(), 3);
    let hits = scale_spans
        .iter()
        .filter(|s| s.tag("cache") == Some("hit"))
        .count() as i64;
    let misses = scale_spans
        .iter()
        .filter(|s| s.tag("cache") == Some("miss"))
        .count() as i64;
    assert_eq!(
        hits,
        stat(&after, "scale_hits") - stat(&before, "scale_hits"),
        "hit tags match the stats delta"
    );
    assert_eq!(
        misses,
        stat(&after, "scale_misses") - stat(&before, "scale_misses"),
        "miss tags match the stats delta"
    );
    // Scale spans carry their process count, ascending by construction
    // of the canonical child order.
    let nprocs: Vec<&str> = scale_spans
        .iter()
        .map(|s| s.tag("nprocs").unwrap())
        .collect();
    assert_eq!(nprocs, ["2", "4", "8"]);
    let _ = client::request(&addr, "POST", paths::SHUTDOWN, "");
}

#[test]
fn identical_submissions_trace_identically_modulo_cache_verdicts() {
    let addr = boot(2);
    let mut conn = Conn::connect(&addr).unwrap();
    let text = program_text(811_000);

    // Same program + scales, different detection threshold: a new job
    // key (detection is part of the job identity) over the *same*
    // per-scale profile keys (detection does not influence profiling) —
    // the second job's every scale hits the cache.
    let cold = run_job(&mut conn, &submit_body(&text, &[2, 4], None));
    let warm = run_job(&mut conn, &submit_body(&text, &[2, 4], Some(1.7)));
    assert_ne!(cold, warm);

    let trace_cold = fetch_trace(&mut conn, &cold);
    let trace_warm = fetch_trace(&mut conn, &warm);

    // Skeletons (timings erased) are identical once the predicted
    // verdict flips are applied: every cold `miss` became a warm `hit`.
    fn normalize(span: &TraceSpan) -> TraceSpan {
        let mut skeleton = span.skeleton();
        fn flip(span: &mut TraceSpan) {
            for tag in &mut span.tags {
                if tag.0 == "cache" {
                    tag.1 = "hit".to_string();
                }
                if tag.0 == "psg" {
                    tag.1 = "hit".to_string();
                }
                if tag.0 == "decode" || tag.0 == "program" {
                    tag.1 = "reused".to_string();
                }
            }
            for child in &mut span.children {
                flip(child);
            }
        }
        flip(&mut skeleton);
        skeleton
    }
    let cold_skeleton: Vec<TraceSpan> = trace_cold.spans.iter().map(normalize).collect();
    let warm_skeleton: Vec<TraceSpan> = trace_warm.spans.iter().map(normalize).collect();
    assert_eq!(
        cold_skeleton, warm_skeleton,
        "same span tree, same tags (after verdict normalization)"
    );

    // And the verdicts themselves are as predicted, not just equal.
    let verdicts = |trace: &TraceResponse| -> Vec<String> {
        trace
            .flatten()
            .into_iter()
            .filter(|s| s.name == "scale")
            .map(|s| s.tag("cache").unwrap().to_string())
            .collect()
    };
    assert_eq!(verdicts(&trace_cold), ["miss", "miss"]);
    assert_eq!(verdicts(&trace_warm), ["hit", "hit"]);
    let _ = client::request(&addr, "POST", paths::SHUTDOWN, "");
}

#[test]
fn trace_says_which_program_and_decoded_scales_were_reused() {
    let addr = boot(2);
    let mut conn = Conn::connect(&addr).unwrap();
    let text = program_text(733_000);

    // Three jobs over one program and scale set, told apart by their
    // detection threshold: the first simulates, the second is the first
    // to hit the cached images and decodes them, the third reuses the
    // decoded forms.
    let tags_of = |conn: &mut Conn, thd: Option<f64>| {
        let key = run_job(conn, &submit_body(&text, &[2, 4], thd));
        let trace = fetch_trace(conn, &key);
        let spans = trace.flatten();
        let resolve = spans.iter().find(|s| s.name == "resolve").unwrap();
        let resolve_tags = (
            resolve.tag("psg").unwrap().to_string(),
            resolve.tag("program").unwrap().to_string(),
        );
        let scale_tags: Vec<(String, String)> = spans
            .iter()
            .filter(|s| s.name == "scale")
            .map(|s| {
                (
                    s.tag("cache").unwrap().to_string(),
                    s.tag("decode").unwrap().to_string(),
                )
            })
            .collect();
        (resolve_tags, scale_tags)
    };
    let pair = |a: &str, b: &str| (a.to_string(), b.to_string());

    let (resolve, scales) = tags_of(&mut conn, None);
    assert_eq!(resolve, pair("miss", "parsed"));
    assert_eq!(scales, vec![pair("miss", "fresh"); 2]);

    let (resolve, scales) = tags_of(&mut conn, Some(1.6));
    assert_eq!(resolve, pair("hit", "reused"));
    assert_eq!(scales, vec![pair("hit", "fresh"); 2]);

    let (resolve, scales) = tags_of(&mut conn, Some(1.7));
    assert_eq!(resolve, pair("hit", "reused"));
    assert_eq!(scales, vec![pair("hit", "reused"); 2]);
    let _ = client::request(&addr, "POST", paths::SHUTDOWN, "");
}

#[test]
fn trace_of_unknown_or_pending_jobs_answers_structured_errors() {
    let addr = boot(1);
    let mut conn = Conn::connect(&addr).unwrap();

    let (code, body) = conn
        .request("GET", &paths::job_trace("doesnotexist"), "")
        .unwrap();
    assert_eq!(code, 404);
    let error = ApiError::from_body(&body).unwrap();
    assert_eq!(error.code, ErrorCode::UnknownJob);

    // A job that cannot have finished yet: its trace is pending, the
    // error is retryable, and the response carries `Retry-After`.
    let ack = conn
        .request_json(
            "POST",
            paths::JOBS,
            &submit_body(&program_text(5_000_000), &[2, 4, 8, 16], None),
        )
        .unwrap();
    let key = ack.get("job").and_then(Json::as_str).unwrap().to_string();
    let response = conn
        .request_full("GET", &paths::job_trace(&key), "")
        .unwrap();
    if response.code != 200 {
        let body = String::from_utf8(response.body.clone()).unwrap();
        let error = ApiError::from_body(&body).unwrap();
        assert_eq!(error.code, ErrorCode::JobPending);
        assert!(error.retryable);
        assert_eq!(response.header("Retry-After"), Some("1"));
    }
    let _ = conn.wait_for_job(&key, Duration::from_secs(120));
    let _ = client::request(&addr, "POST", paths::SHUTDOWN, "");
}

#[test]
fn healthz_and_stats_report_version_and_uptime() {
    let addr = boot(1);
    let mut conn = Conn::connect(&addr).unwrap();

    let health = conn.request_json("GET", paths::HEALTHZ, "").unwrap();
    assert_eq!(health.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        health.get("version").and_then(Json::as_str),
        Some(env!("CARGO_PKG_VERSION"))
    );
    assert!(health.get("uptime_ms").and_then(Json::as_i64).is_some());

    let stats = stats_doc(&mut conn);
    assert_eq!(
        stats.get("version").and_then(Json::as_str),
        Some(env!("CARGO_PKG_VERSION"))
    );
    let uptime = stat(&stats, "uptime_ms");
    assert!(uptime >= 0);
    let _ = client::request(&addr, "POST", paths::SHUTDOWN, "");
}
