//! `scalbench` — the repository's one benchmark. See `README.md` beside
//! this package for the workloads, the metrics and how they interact.
//!
//! ```text
//! scalbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload, one pass; the last stdout line is the JSON result
//!     (`--trace 0`: end-to-end metrics, `--trace 1`: per-layer metrics)
//! scalbench run [--seed n] [--seconds s] [--repeat n] [--out dir] [--smoke]
//!     every workload, timed pass then a shorter traced pass, each in a
//!     process of its own; prints every metric by name and unit (stderr),
//!     writes <out>/result.json and <out>/trace-<workload>.jsonl
//! scalbench compare A.json B.json
//! scalbench spec [--markdown]
//!     print BENCHMARK.json (or the README metric tables) from the tables in spec.rs
//! ```

mod blocks;
mod cold;
mod compare;
mod daemon;
mod jobs;
mod layers;
mod load;
mod procfs;
mod report;
mod rng;
mod serve;
mod spec;
mod stats;
mod trace;

use report::{Config, Outcome, ResultFile, RunMetrics};
use scalana_api::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where temporary store directories, `result.json` and `trace.jsonl`
/// go unless `--out` says otherwise; relative to the working directory.
const DEFAULT_OUT: &str = ".scalbench_out";

fn run_workload(name: &str, config: &Config) -> Result<Outcome, String> {
    match name {
        "pipeline_cold" => cold::run(config),
        "serve_unique" => serve::run(serve::Kind::Unique, config),
        "serve_overlap" => serve::run(serve::Kind::Overlap, config),
        "serve_hot" => serve::run(serve::Kind::Hot, config),
        "serve_restart" => serve::run(serve::Kind::Restart, config),
        other => Err(format!(
            "unknown workload `{other}` (one of: {})",
            spec::WORKLOADS.map(|w| w.name).join(", ")
        )),
    }
}

/// `--flag value` pairs after the subcommand, in any order.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], switches: &[&str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
            let value = if switches.contains(&name) {
                "1".to_string()
            } else {
                args.next()
                    .ok_or_else(|| format!("--{name} needs a value"))?
                    .clone()
            };
            pairs.push((name.to_string(), value));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{name}: `{text}` is not a number")),
        }
    }

    /// `--seconds`: a positive, finite window length.
    fn seconds(&self, default: f64) -> Result<f64, String> {
        let seconds: f64 = self.number("seconds", default)?;
        if seconds.is_finite() && seconds > 0.0 {
            Ok(seconds)
        } else {
            Err(format!("--seconds must be positive, not {seconds}"))
        }
    }

    fn only(&self, known: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !known.contains(&n.as_str())) {
            Some((name, _)) => Err(format!("unknown flag --{name}")),
            None => Ok(()),
        }
    }
}

fn write_trace(dir: &Path, workload: &str, outcome: &Outcome) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}.jsonl"));
    trace::write_jsonl(&path, workload, &outcome.spans)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The driver's interface: one workload, one pass, one JSON line.
fn driver(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["smoke"])?;
    flags.only(&["workload", "seed", "seconds", "trace", "out", "smoke"])?;
    let workload = flags.get("workload").ok_or("--workload is required")?;
    let traced = match flags.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let config = Config {
        seed: flags.number("seed", 1)?,
        seconds: flags.seconds(spec::RUN_SECONDS as f64)?,
        traced,
        smoke: flags.get("smoke").is_some(),
        out_dir: PathBuf::from(flags.get("out").unwrap_or(DEFAULT_OUT)),
    };
    let outcome = run_workload(workload, &config)?;
    eprint!("{}", outcome.table(traced));
    if traced {
        write_trace(&config.out_dir, workload, &outcome)?;
    }
    println!("{}", outcome.driver_line(traced)?);
    Ok(())
}

/// One pass of one workload in a process of its own, exactly as the
/// driver runs it (memory high-water marks and allocator state must not
/// carry over from one pass to the next). The child's table goes to the
/// terminal; its result line comes back parsed.
fn pass_in_child(workload: &str, flags: &[(&str, String)]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = std::process::Command::new(exe);
    command.args(["--workload", workload]);
    for (name, value) in flags {
        command.arg(format!("--{name}"));
        if !value.is_empty() {
            command.arg(value);
        }
    }
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload} pass: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload} pass exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    scalana_api::json::parse(line).map_err(|e| format!("{workload} result line: {e}"))
}

/// Every workload, timed pass then traced pass; `Ok(false)` when any
/// op failed or any output check or prediction did not hold.
fn run_all(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["smoke"])?;
    flags.only(&["seed", "seconds", "repeat", "out", "smoke"])?;
    let smoke = flags.get("smoke").is_some();
    let seed: u64 = flags.number("seed", 1)?;
    let seconds = flags.seconds(if smoke { 1.0 } else { spec::RUN_SECONDS as f64 })?;
    let repeat: usize = flags.number("repeat", 1)?;
    let out_dir = flags.get("out").unwrap_or(DEFAULT_OUT);
    let fingerprint = procfs::Fingerprint::read();
    eprintln!("host: {}", fingerprint.to_json().render());
    eprintln!(
        "seed {seed}, {seconds} s timed + {} s traced per workload, {repeat} repeat(s)",
        seconds / 4.0
    );

    let mut file = ResultFile {
        fingerprint,
        seed,
        seconds,
        failed: 0,
        runs: Vec::new(),
    };
    let mut correct = true;
    for _ in 0..repeat {
        let mut run = RunMetrics::new();
        for workload in &spec::WORKLOADS {
            for traced in [false, true] {
                // The traced pass is a quarter of the timed one.
                let seconds = if traced { seconds / 4.0 } else { seconds };
                let mut pass = vec![
                    ("seed", seed.to_string()),
                    ("seconds", seconds.to_string()),
                    ("trace", u8::from(traced).to_string()),
                    ("out", out_dir.to_string()),
                ];
                if smoke {
                    pass.push(("smoke", String::new()));
                }
                let doc = pass_in_child(workload.name, &pass)?;
                correct &= doc.get("correct").and_then(Json::as_bool) == Some(true);
                file.failed += doc.get("failed").and_then(Json::as_i64).unwrap_or(0) as u64;
                let Some(Json::Obj(metrics)) = doc.get("metrics") else {
                    return Err(format!("{} result line has no metrics", workload.name));
                };
                run.entry(workload.name.to_string()).or_default().extend(
                    metrics.iter().filter_map(|(name, metric)| {
                        Some((name.clone(), metric.get("value")?.as_f64()?))
                    }),
                );
            }
        }
        file.runs.push(run);
    }
    let path = Path::new(out_dir).join("result.json");
    std::fs::write(&path, file.to_json().render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "wrote {} and trace-<workload>.jsonl beside it",
        path.display()
    );
    Ok(correct)
}

fn read_result(path: &str) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = scalana_api::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    ResultFile::from_json(&doc).ok_or_else(|| format!("{path}: not a scalbench result file"))
}

/// `BENCHMARK.json`, from the tables in `spec`.
fn benchmark_json() -> String {
    let metric = |m: &spec::Metric| {
        let mut pairs = vec![
            ("name", Json::from(m.name)),
            ("unit", m.unit.into()),
            ("better", m.better.as_str().into()),
        ];
        if let Some(bound) = m.bound {
            pairs.push(("bound", Json::Num(bound)));
        }
        Json::obj(pairs)
    };
    let list = |items: Vec<Json>| {
        let lines: Vec<String> = items
            .iter()
            .map(|j| format!("    {}", j.render()))
            .collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    };
    let command = Json::Arr(spec::COMMAND.map(Json::from).to_vec());
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"scalbench\"],\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.render(),
        spec::RUN_SECONDS,
        list(spec::WORKLOADS
            .iter()
            .map(|w| Json::obj(vec![("name", w.name.into()), ("why", w.why.into())]))
            .collect()),
        list(spec::END_TO_END.iter().map(metric).collect()),
        list(spec::PER_LAYER.iter().map(metric).collect()),
    )
}

/// The metric tables of `README.md`, from the same tables.
fn metric_tables() -> String {
    let mut out = String::from("| name | unit | better | bound | what |\n|---|---|---|---|---|\n");
    for m in spec::END_TO_END.iter().chain(spec::PER_LAYER.iter()) {
        let bound = m
            .bound
            .map_or_else(|| "—".to_string(), |b| format!("{:.0} %", b * 100.0));
        out.push_str(&format!(
            "| `{}` | {} | {} | {bound} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.what
        ));
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or(&[]);
    let result = match args.first().map(String::as_str) {
        Some(daemon::SUBCOMMAND) => match rest {
            [store_dir] => daemon::serve(store_dir).map(|()| true),
            _ => Err("usage: __daemon <store dir | ->".to_string()),
        },
        Some("run") => run_all(rest),
        Some("compare") => match rest {
            [a, b] => read_result(a)
                .and_then(|a| Ok((a, read_result(b)?)))
                .and_then(|(a, b)| compare::compare(&a, &b)),
            _ => Err("usage: scalbench compare A.json B.json".to_string()),
        },
        Some("spec") => match rest {
            [] => {
                print!("{}", benchmark_json());
                Ok(true)
            }
            [flag] if flag == "--markdown" => {
                print!("{}", metric_tables());
                Ok(true)
            }
            _ => Err("usage: scalbench spec [--markdown]".to_string()),
        },
        Some(flag) if flag.starts_with("--") => driver(&args).map(|()| true),
        _ => Err(
            "usage: scalbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       scalbench run [--seed n] [--seconds s] [--repeat n] [--out dir] [--smoke]\n       scalbench compare A.json B.json\n       scalbench spec [--markdown]"
                .to_string(),
        ),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("scalbench: {message}");
            ExitCode::from(2)
        }
    }
}
