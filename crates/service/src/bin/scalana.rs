//! `scalana` — the command-line front-end (paper §V workflow plus the
//! serving layer).
//!
//! ```text
//! scalana static   <file.mmpi> [--max-loop-depth N] [--no-contract] [--dot]
//! scalana analyze  <file.mmpi> [--scales 4,8,16,32] [--abnorm-thd X] [--top K]
//!                              [--param NAME=V]... [--json]
//! scalana apps     [--list | --run NAME [--scales ...]]
//! scalana serve    [--addr 127.0.0.1:7878] [--workers N] [--queue-capacity N]
//!                  [--store-dir DIR] [--store-quota BYTES] [--idle-timeout SECS]
//! scalana submit   (<file.mmpi> | --app NAME | --program-hash HASH) [--addr A]
//!                  [--scales ...] [--abnorm-thd X] [--top K]
//!                  [--param NAME=V]... [--wait]
//! scalana status   [--addr A] [JOB]
//! scalana result   [--addr A] JOB
//! scalana trace    [--addr A] [--json] JOB
//! scalana top      [--addr A] [--raw] [--interval SECS] [--count N]
//! scalana store    (ls [--after NAME] [--limit N] | gc) [--addr A]
//! scalana diff     <a.mmpi> <b.mmpi> [--addr A] [--scales ...] [--scales-b ...]
//! scalana shutdown [--addr A]
//! ```
//!
//! `static` corresponds to `ScalAna-static` (PSG construction + stats),
//! `analyze` chains `ScalAna-prof` and `ScalAna-detect` over the given
//! scales (through [`scalana_core`]'s `AnalysisBuilder`) and renders the
//! `ScalAna-viewer` report with code snippets (or, with `--json`, the
//! machine-readable document the service also serves). `serve` starts
//! the analysis daemon; `submit`/`status`/`result`/`diff` are its
//! client, speaking the `/v1` protocol from [`scalana_api`] and printing
//! the daemon's JSON responses. `submit --wait` and `diff` use the
//! server-side long-poll, so completions are observed at the
//! transition; `diff` fetches both results and compares them locally.
//!
//! Every submit response carries a `program_hash`; later submissions of
//! the same program (new scales, new thresholds) can pass `--program-hash
//! HASH` instead of re-sending the source — the daemon resolves it
//! against its program index and answers 404 if it has been evicted.

use scalana_api::{paths, ProgramRef, SubmitRequest};
use scalana_core::{viewer, Analysis, ScalAnaConfig};
use scalana_graph::{build_psg, PsgOptions};
use scalana_lang::parse_program;
use scalana_service::json::Json;
use scalana_service::{client, jsonify, Server, ServiceConfig};
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  scalana static   <file.mmpi> [--max-loop-depth N] [--no-contract] [--dot]
  scalana analyze  <file.mmpi> [--scales 4,8,16,32] [--abnorm-thd X]
                               [--top K] [--param NAME=VALUE]... [--json]
  scalana apps     [--list | --run NAME [--scales 4,8,16,32]]
  scalana serve    [--addr 127.0.0.1:7878] [--workers N] [--queue-capacity N]
                   [--store-dir DIR] [--store-quota BYTES] [--idle-timeout SECS]
  scalana submit   (<file.mmpi> | --app NAME | --program-hash HASH)
                   [--addr ADDR] [--scales ...] [--abnorm-thd X] [--top K]
                   [--param NAME=VALUE]... [--wait]
  scalana status   [--addr ADDR] [JOB]
  scalana result   [--addr ADDR] JOB
  scalana trace    [--addr ADDR] [--json] JOB
  scalana top      [--addr ADDR] [--raw] [--interval SECS] [--count N]
  scalana store    (ls [--after NAME] [--limit N] | gc) [--addr ADDR]
  scalana diff     <a.mmpi> <b.mmpi> [--addr ADDR] [--scales 4,8,16,32]
                   [--scales-b ...]
  scalana shutdown [--addr ADDR]";

const DEFAULT_ADDR: &str = "127.0.0.1:7878";

fn run(args: &[String]) -> Result<(), String> {
    if args.first().is_some_and(|a| a == "help") || args.iter().any(|a| a == "--help" || a == "-h")
    {
        println!("{USAGE}");
        return Ok(());
    }
    match args.first().map(String::as_str) {
        Some("static") => cmd_static(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("apps") => cmd_apps(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("status") => cmd_status(&args[1..]),
        Some("result") => cmd_result(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("store") => cmd_store(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("shutdown") => cmd_shutdown(&args[1..]),
        Some(other) => Err(format!("unknown command `{other}`")),
        None => Err("missing command".to_string()),
    }
}

fn parse_scales(spec: &str) -> Result<Vec<usize>, String> {
    let scales: Result<Vec<usize>, _> = spec.split(',').map(|s| s.trim().parse()).collect();
    let scales = scales.map_err(|e| format!("bad --scales `{spec}`: {e}"))?;
    if scales.is_empty() || scales.windows(2).any(|w| w[0] >= w[1]) {
        return Err("--scales must be a strictly ascending list".to_string());
    }
    if scales[0] == 0 {
        return Err("--scales: process counts must be positive".to_string());
    }
    Ok(scales)
}

fn load_program(path: &str) -> Result<scalana_lang::Program, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_program(path, &source).map_err(|e| e.to_string())
}

fn cmd_static(args: &[String]) -> Result<(), String> {
    let file = args.first().ok_or("static: missing <file.mmpi>")?;
    let mut opts = PsgOptions::default();
    let mut dot = false;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--max-loop-depth" => {
                let v = it.next().ok_or("--max-loop-depth needs a value")?;
                opts.max_loop_depth = v
                    .parse()
                    .map_err(|e| format!("bad --max-loop-depth: {e}"))?;
            }
            "--no-contract" => opts.contract = false,
            "--dot" => dot = true,
            other => return Err(format!("static: unknown flag `{other}`")),
        }
    }
    let program = load_program(file)?;
    let psg = build_psg(&program, &opts);
    println!("{file}: {}", psg.stats);
    println!(
        "contraction reduction {:.0}%, Comp+MPI fraction {:.0}%",
        psg.stats.reduction() * 100.0,
        psg.stats.comp_mpi_fraction() * 100.0
    );
    if dot {
        println!("\n{}", scalana_graph::dot::psg_to_dot(&psg));
    }
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let file = args.first().ok_or("analyze: missing <file.mmpi>")?;
    let mut scales = vec![4, 8, 16, 32];
    let mut config = ScalAnaConfig::default();
    let mut json = false;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--scales" => {
                let v = it.next().ok_or("--scales needs a value")?;
                scales = parse_scales(v)?;
            }
            "--abnorm-thd" => {
                let v = it.next().ok_or("--abnorm-thd needs a value")?;
                config.detect.abnorm_thd =
                    v.parse().map_err(|e| format!("bad --abnorm-thd: {e}"))?;
            }
            "--top" => {
                let v = it.next().ok_or("--top needs a value")?;
                config.detect.top_k = v.parse().map_err(|e| format!("bad --top: {e}"))?;
            }
            "--param" => {
                let v = it.next().ok_or("--param needs NAME=VALUE")?;
                let (name, value) = v
                    .split_once('=')
                    .ok_or_else(|| format!("bad --param `{v}`"))?;
                let value: i64 = value
                    .parse()
                    .map_err(|e| format!("bad --param value: {e}"))?;
                config.params.insert(name.to_string(), value);
            }
            "--json" => json = true,
            other => return Err(format!("analyze: unknown flag `{other}`")),
        }
    }
    let program = load_program(file)?;
    let analysis = Analysis::builder(&program)
        .config(config)
        .scales(scales.iter().copied())
        .run()
        .map_err(|e| e.to_string())?;
    if json {
        println!("{}", jsonify::analysis_to_json(&analysis).render());
        return Ok(());
    }
    println!("PSG: {}", analysis.psg.stats);
    for run in &analysis.runs {
        println!(
            "run @ {:>4} ranks: {:.4}s virtual, {} profile bytes, {} dep edges",
            run.nprocs, run.total_time, run.storage_bytes, run.comm_edges
        );
    }
    println!("detection took {:.2} ms\n", analysis.detect_seconds * 1e3);
    print!("{}", render_speedup_table(&analysis.runs));
    println!(
        "{}",
        viewer::render_with_snippets(&program, &analysis.report, 3)
    );
    Ok(())
}

/// Speedup of each run against the smallest scale, with the ideal linear
/// speedup and the resulting parallel efficiency alongside (the math
/// lives in `scalana_detect::summarize`, shared with the scaling report).
fn render_speedup_table(runs: &[scalana_core::RunSummary]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let Some(base) = runs.first() else {
        return out;
    };
    let measurements: Vec<(usize, f64)> = runs.iter().map(|r| (r.nprocs, r.total_time)).collect();
    let summary = scalana_detect::summarize(&measurements);
    writeln!(out, "-- Speedup (baseline {} ranks) --", base.nprocs).unwrap();
    for point in &summary.points {
        let ideal = point.nprocs as f64 / base.nprocs as f64;
        writeln!(
            out,
            "  {:>5} ranks  x{:<8.2} (ideal x{:<8.2} efficiency {:>5.1}%)",
            point.nprocs,
            point.speedup,
            ideal,
            100.0 * point.efficiency
        )
        .unwrap();
    }
    if let Some(serial) = summary.serial_fraction {
        writeln!(
            out,
            "  est. serial fraction {:.1}% (Amdahl)",
            100.0 * serial
        )
        .unwrap();
    }
    out.push('\n');
    out
}

fn cmd_apps(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("--list") | None => {
            for app in scalana_apps::all_apps() {
                println!("{:<6} {}", app.name, app.description);
            }
            Ok(())
        }
        Some("--run") => {
            let name = args.get(1).ok_or("apps --run: missing NAME")?;
            let app = scalana_apps::by_name(name)
                .ok_or_else(|| format!("unknown app `{name}` (see --list)"))?;
            let mut scales = vec![4, 8, 16, 32];
            if let Some(pos) = args.iter().position(|a| a == "--scales") {
                let v = args.get(pos + 1).ok_or("--scales needs a value")?;
                scales = parse_scales(v)?;
            }
            let analysis = Analysis::builder(&app)
                .scales(scales.iter().copied())
                .run()
                .map_err(|e| e.to_string())?;
            println!("{}", analysis.report.render());
            if let Some(expected) = &app.expected_root_cause {
                let verdict = if analysis.report.found_at(expected) {
                    "FOUND"
                } else {
                    "MISSED"
                };
                println!("known root cause {expected}: {verdict}");
            }
            Ok(())
        }
        Some(other) => Err(format!("apps: unknown flag `{other}`")),
    }
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut config = ServiceConfig {
        addr: DEFAULT_ADDR.to_string(),
        ..ServiceConfig::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => {
                config.addr = it.next().ok_or("--addr needs a value")?.clone();
            }
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                config.workers = v.parse().map_err(|e| format!("bad --workers: {e}"))?;
                if config.workers == 0 {
                    return Err("--workers must be at least 1".to_string());
                }
            }
            "--queue-capacity" => {
                let v = it.next().ok_or("--queue-capacity needs a value")?;
                config.queue_capacity = v
                    .parse()
                    .map_err(|e| format!("bad --queue-capacity: {e}"))?;
            }
            "--store-dir" => {
                config.store_dir = Some(it.next().ok_or("--store-dir needs a DIR")?.clone());
            }
            "--store-quota" => {
                let v = it.next().ok_or("--store-quota needs BYTES")?;
                config.store_quota = v.parse().map_err(|e| format!("bad --store-quota: {e}"))?;
            }
            "--idle-timeout" => {
                let v = it.next().ok_or("--idle-timeout needs SECS")?;
                let secs: u64 = v.parse().map_err(|e| format!("bad --idle-timeout: {e}"))?;
                if secs == 0 {
                    return Err("--idle-timeout must be at least 1 second".to_string());
                }
                config.idle_timeout = Duration::from_secs(secs);
            }
            other => return Err(format!("serve: unknown flag `{other}`")),
        }
    }
    if config.store_quota > 0 && config.store_dir.is_none() {
        return Err("--store-quota needs --store-dir".to_string());
    }
    let server = Server::bind(&config).map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
    println!(
        "scalana-service listening on {} ({} workers, queue capacity {})",
        server.local_addr(),
        config.workers,
        config.queue_capacity
    );
    if let Some(dir) = &config.store_dir {
        println!(
            "durable store at {dir} (quota {} bytes)",
            config.store_quota
        );
    }
    // The smoke script and tests scrape the address from this line; make
    // sure it is out before the (long-lived) accept loop starts.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.run().map_err(|e| format!("server failed: {e}"))
}

/// Split client args into `(addr, rest)`.
fn take_addr(args: &[String]) -> Result<(String, Vec<String>), String> {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--addr" {
            addr = it.next().ok_or("--addr needs a value")?.clone();
        } else {
            rest.push(arg.clone());
        }
    }
    Ok((addr, rest))
}

/// Load a program file into a [`ProgramRef::Source`] (the basename
/// becomes the `file:line` prefix in reports).
fn source_ref(path: &str) -> Result<ProgramRef, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let name = std::path::Path::new(path)
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("inline.mmpi");
    Ok(ProgramRef::Source {
        name: name.to_string(),
        text,
    })
}

fn cmd_submit(args: &[String]) -> Result<(), String> {
    let (addr, rest) = take_addr(args)?;
    let mut file: Option<String> = None;
    let mut app: Option<String> = None;
    let mut hash: Option<String> = None;
    let mut scales: Option<Vec<usize>> = None;
    let mut abnorm_thd: Option<f64> = None;
    let mut top: Option<usize> = None;
    let mut params: Vec<(String, i64)> = Vec::new();
    let mut wait = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--app" => app = Some(it.next().ok_or("--app needs a NAME")?.clone()),
            "--program-hash" => {
                hash = Some(it.next().ok_or("--program-hash needs a HASH")?.clone());
            }
            "--scales" => {
                let v = it.next().ok_or("--scales needs a value")?;
                scales = Some(parse_scales(v)?);
            }
            "--abnorm-thd" => {
                let v = it.next().ok_or("--abnorm-thd needs a value")?;
                abnorm_thd = Some(v.parse().map_err(|e| format!("bad --abnorm-thd: {e}"))?);
            }
            "--top" => {
                let v = it.next().ok_or("--top needs a value")?;
                top = Some(v.parse().map_err(|e| format!("bad --top: {e}"))?);
            }
            "--param" => {
                let v = it.next().ok_or("--param needs NAME=VALUE")?;
                let (name, value) = v
                    .split_once('=')
                    .ok_or_else(|| format!("bad --param `{v}`"))?;
                let value: i64 = value
                    .parse()
                    .map_err(|e| format!("bad --param value: {e}"))?;
                params.push((name.to_string(), value));
            }
            "--wait" => wait = true,
            other if other.starts_with("--") => {
                return Err(format!("submit: unknown flag `{other}`"));
            }
            path => {
                if file.replace(path.to_string()).is_some() {
                    return Err("submit: more than one <file.mmpi>".to_string());
                }
            }
        }
    }
    let program = match (file, app, hash) {
        (Some(path), None, None) => source_ref(&path)?,
        (None, Some(name), None) => ProgramRef::App(name),
        (None, None, Some(hash)) => ProgramRef::Hash(hash),
        _ => {
            return Err(
                "submit: need exactly one of <file.mmpi>, --app NAME, or --program-hash HASH"
                    .to_string(),
            )
        }
    };
    let request = SubmitRequest {
        program,
        scales,
        abnorm_thd,
        top,
        max_loop_depth: None,
        params,
    };
    let response = client::request_json(&addr, "POST", paths::JOBS, &request.to_json().render())?;
    println!("{}", response.render());
    if wait {
        let key = response
            .get("job")
            .and_then(Json::as_str)
            .ok_or("submit response missing `job`")?;
        let last = client::wait_for_job(&addr, key, client::JOB_WAIT)?;
        println!("{}", last.render());
        if last.get("status").and_then(Json::as_str) == Some("failed") {
            return Err(last
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("job failed")
                .to_string());
        }
    }
    Ok(())
}

/// `scalana diff a.mmpi b.mmpi`: run (or reuse) both analyses on the
/// daemon and print their structured comparison, composed here
/// ([`client::Conn::diff`]).
fn cmd_diff(args: &[String]) -> Result<(), String> {
    let (addr, rest) = take_addr(args)?;
    let mut files: Vec<String> = Vec::new();
    let mut scales: Option<Vec<usize>> = None;
    let mut scales_b: Option<Vec<usize>> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scales" => {
                let v = it.next().ok_or("--scales needs a value")?;
                scales = Some(parse_scales(v)?);
            }
            "--scales-b" => {
                let v = it.next().ok_or("--scales-b needs a value")?;
                scales_b = Some(parse_scales(v)?);
            }
            other if other.starts_with("--") => {
                return Err(format!("diff: unknown flag `{other}`"));
            }
            path => files.push(path.to_string()),
        }
    }
    let [file_a, file_b] = files.as_slice() else {
        return Err("diff: need exactly two program files <a.mmpi> <b.mmpi>".to_string());
    };
    let side = |path: &str, scales: Option<Vec<usize>>| -> Result<SubmitRequest, String> {
        Ok(SubmitRequest {
            program: source_ref(path)?,
            scales,
            abnorm_thd: None,
            top: None,
            max_loop_depth: None,
            params: Vec::new(),
        })
    };
    let a = side(file_a, scales.clone())?;
    let b = side(file_b, scales_b.or(scales))?;
    let comparison = client::Conn::connect(&addr)?.diff(&a, &b)?;
    println!("{}", comparison.render());
    Ok(())
}

fn cmd_status(args: &[String]) -> Result<(), String> {
    let (addr, rest) = take_addr(args)?;
    let path = match rest.as_slice() {
        [] => paths::STATS.to_string(),
        [job] => paths::job(job),
        _ => return Err("status: at most one JOB".to_string()),
    };
    let response = client::request_json(&addr, "GET", &path, "")?;
    println!("{}", response.render());
    Ok(())
}

fn cmd_result(args: &[String]) -> Result<(), String> {
    let (addr, rest) = take_addr(args)?;
    let [job] = rest.as_slice() else {
        return Err("result: need exactly one JOB".to_string());
    };
    let response = client::request_json(&addr, "GET", &paths::job_result(job), "")?;
    println!("{}", response.render());
    Ok(())
}

/// `scalana trace JOB`: fetch the job's span timeline from
/// `GET /v1/jobs/<id>/trace` and render it as an indented tree (or, with
/// `--json`, print the wire document verbatim).
fn cmd_trace(args: &[String]) -> Result<(), String> {
    let (addr, rest) = take_addr(args)?;
    let mut json_out = false;
    let mut job: Option<String> = None;
    for arg in &rest {
        match arg.as_str() {
            "--json" => json_out = true,
            other if other.starts_with("--") => {
                return Err(format!("trace: unknown flag `{other}`"));
            }
            key => {
                if job.replace(key.to_string()).is_some() {
                    return Err("trace: need exactly one JOB".to_string());
                }
            }
        }
    }
    let job = job.ok_or("trace: need exactly one JOB")?;
    let response = client::request_json(&addr, "GET", &paths::job_trace(&job), "")?;
    if json_out {
        println!("{}", response.render());
        return Ok(());
    }
    let trace = scalana_api::TraceResponse::from_json(&response)
        .ok_or("trace: server answered a document that is not a trace")?;
    println!(
        "job {}  total {:.3} ms ({} top-level spans)",
        trace.job,
        trace.total_ns as f64 / 1e6,
        trace.spans.len()
    );
    fn render(span: &scalana_api::TraceSpan, depth: usize) {
        let tags: Vec<String> = span.tags.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!(
            "{:indent$}{:<12} {:>10.3} ms  @ {:>10.3} ms  {}",
            "",
            span.name,
            span.duration_ns as f64 / 1e6,
            span.start_ns as f64 / 1e6,
            tags.join(" "),
            indent = depth * 2
        );
        for child in &span.children {
            render(child, depth + 1);
        }
    }
    for span in &trace.spans {
        render(span, 1);
    }
    Ok(())
}

/// `scalana top`: scrape `GET /v1/metrics`. `--raw` prints the
/// exposition verbatim (one scrape — what scripts pipe into grep);
/// the default renders a compact digest, repeated `--count` times at
/// `--interval`-second cadence.
fn cmd_top(args: &[String]) -> Result<(), String> {
    let (addr, rest) = take_addr(args)?;
    let mut raw = false;
    let mut interval = Duration::from_secs(2);
    let mut count: u32 = 1;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--raw" => raw = true,
            "--interval" => {
                let v = it.next().ok_or("--interval needs SECS")?;
                let secs: u64 = v.parse().map_err(|e| format!("bad --interval: {e}"))?;
                interval = Duration::from_secs(secs.max(1));
            }
            "--count" => {
                let v = it.next().ok_or("--count needs N")?;
                count = v.parse().map_err(|e| format!("bad --count: {e}"))?;
                if count == 0 {
                    return Err("--count must be at least 1".to_string());
                }
            }
            other => return Err(format!("top: unknown flag `{other}`")),
        }
    }
    for round in 0..count {
        if round > 0 {
            std::thread::sleep(interval);
            println!();
        }
        let (code, text) = client::request(&addr, "GET", paths::METRICS, "")?;
        if code != 200 {
            return Err(format!("GET {}: {code} {text}", paths::METRICS));
        }
        if raw {
            print!("{text}");
            continue;
        }
        print_metrics_digest(&text);
    }
    Ok(())
}

/// `scalana store ls|gc`: inspect or sweep the daemon's durable store.
/// `ls` prints one page of `GET /v1/store` (directory totals + a file
/// list capped at 256 entries by default); `--after NAME`/`--limit N`
/// drive the keyset pagination, and a non-null `next_after` in the
/// response is the cursor for the following page. `gc` runs one
/// quota sweep via `POST /v1/store/gc`.
fn cmd_store(args: &[String]) -> Result<(), String> {
    let (addr, rest) = take_addr(args)?;
    let response = match rest.split_first().map(|(sub, flags)| (sub.as_str(), flags)) {
        Some(("ls", flags)) => {
            let mut query: Vec<String> = Vec::new();
            let mut it = flags.iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--after" => {
                        let v = it.next().ok_or("--after needs a NAME")?;
                        query.push(format!("after={v}"));
                    }
                    "--limit" => {
                        let v = it.next().ok_or("--limit needs N")?;
                        let n: usize = v.parse().map_err(|e| format!("bad --limit: {e}"))?;
                        query.push(format!("limit={n}"));
                    }
                    other => return Err(format!("store ls: unknown flag `{other}`")),
                }
            }
            let path = if query.is_empty() {
                paths::STORE.to_string()
            } else {
                format!("{}?{}", paths::STORE, query.join("&"))
            };
            client::request_json(&addr, "GET", &path, "")?
        }
        Some(("gc", [])) => client::request_json(&addr, "POST", paths::STORE_GC, "")?,
        _ => return Err("store: need exactly one subcommand, `ls` or `gc`".to_string()),
    };
    println!("{}", response.render());
    Ok(())
}

/// Compact one-screen rendering of the exposition: plain counters and
/// gauges as `name value` lines, summaries as `p50/p99/max/count`.
fn print_metrics_digest(text: &str) {
    let mut values: Vec<(&str, u64)> = Vec::new();
    for line in text.lines() {
        if line.starts_with('#') {
            continue;
        }
        let Some((name, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.parse::<u64>() else {
            continue;
        };
        values.push((name, value));
    }
    let get = |name: &str| values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
    let quantiles = |family: &str| {
        let p50 = get(&format!("{family}{{quantile=\"0.5\"}}"));
        let p99 = get(&format!("{family}{{quantile=\"0.99\"}}"));
        let max = get(&format!("{family}_max"));
        let count = get(&format!("{family}_count"));
        (p50, p99, max, count)
    };
    for (label, sample) in [
        ("uptime_ms", "scalana_uptime_ms"),
        ("requests", "scalana_http_requests_total"),
        ("queue_depth", "scalana_queue_depth"),
        ("jobs submitted", "scalana_jobs_submitted_total"),
        ("jobs completed", "scalana_jobs_completed_total"),
        ("jobs failed", "scalana_jobs_failed_total"),
        ("result hits/misses", "scalana_cache_result_hits_total"),
        ("scale hits/misses", "scalana_cache_scale_hits_total"),
        ("psg hits/misses", "scalana_cache_psg_hits_total"),
        ("sim runs", "scalana_sim_runs_total"),
        ("sim events", "scalana_sim_events_total"),
        ("sim inflight peak", "scalana_sim_inflight_ops_peak"),
        ("longpoll parks/wakes", "scalana_longpoll_parks_total"),
    ] {
        let Some(value) = get(sample) else { continue };
        // Paired families render as `hits/misses` on one line.
        let partner = sample
            .strip_suffix("hits_total")
            .map(|prefix| format!("{prefix}misses_total"))
            .or_else(|| {
                sample
                    .strip_suffix("parks_total")
                    .map(|prefix| format!("{prefix}wakes_total"))
            })
            .and_then(|name| get(&name));
        match partner {
            Some(other) => println!("{label:<22} {value}/{other}"),
            None => println!("{label:<22} {value}"),
        }
    }
    println!();
    println!(
        "{:<28} {:>10} {:>10} {:>10} {:>8}",
        "stage (ns)", "p50", "p99", "max", "count"
    );
    for family in [
        "scalana_stage_http_read_ns",
        "scalana_stage_parse_ns",
        "scalana_stage_queue_wait_ns",
        "scalana_stage_resolve_ns",
        "scalana_stage_simulate_ns",
        "scalana_stage_assemble_ns",
        "scalana_stage_render_ns",
        "scalana_stage_write_ns",
        "scalana_job_ns",
        "scalana_sim_run_ns",
    ] {
        let (p50, p99, max, count) = quantiles(family);
        if count.unwrap_or(0) == 0 {
            continue;
        }
        let short = family
            .strip_prefix("scalana_stage_")
            .unwrap_or_else(|| family.strip_prefix("scalana_").unwrap_or(family));
        println!(
            "{short:<28} {:>10} {:>10} {:>10} {:>8}",
            p50.unwrap_or(0),
            p99.unwrap_or(0),
            max.unwrap_or(0),
            count.unwrap_or(0)
        );
    }
}

fn cmd_shutdown(args: &[String]) -> Result<(), String> {
    let (addr, rest) = take_addr(args)?;
    if !rest.is_empty() {
        return Err("shutdown: unexpected arguments".to_string());
    }
    let response = client::request_json(&addr, "POST", paths::SHUTDOWN, "")?;
    println!("{}", response.render());
    Ok(())
}
