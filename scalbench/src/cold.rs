//! `pipeline_cold`: the analyst's `scalana analyze`, in process, from
//! one thread, nothing cached. A pass is every paper app at
//! `[4,8,16,32,64]` plus CG/LU/ZMP at large scales, in a seeded order.
//!
//! Sizing, measured one-shot on the recording host (2 cores): IS, EP,
//! FT 1–3 ms; BT, SP, ZMP 4–10 ms; LU, CG, MG 19–25 ms; SST and NEK
//! about 90 ms each at `[4,8,16]` (both trimmed: at five scales SST
//! alone is 630 ms, over a third of a pass); CG and LU at `[16,64,256]`
//! and ZMP at `[16,64,256,512]` 90–150 ms. One pass is 14 analyses in
//! about 0.5 s, and no job is more than a fifth of it; the share of
//! each is printed with the result.

use crate::blocks::Block;
use crate::layers::{decompose, Input, ReportBytes, Samples};
use crate::procfs;
use crate::report::{Config, Outcome};
use crate::rng::Rng;
use crate::spec::SETUPS;
use crate::stats;
use crate::trace::Recorder;
use scalana_apps::App;
use scalana_core::{analyze_app, ScalAnaConfig};
use std::collections::BTreeMap;
use std::time::Instant;

/// Fewest timed analyses of a run: p95 needs 200 samples to have ten
/// beyond it. A slow host runs longer rather than report a tail read
/// off too few.
const MIN_OPS: u64 = 210;

struct Job {
    app: usize,
    /// `<APP>` for an app's standard scale set, `<APP>@large` otherwise.
    label: String,
    scales: Vec<usize>,
}

struct Ready {
    apps: Vec<App>,
    jobs: Vec<Job>,
}

fn set_up(smoke: bool) -> Result<Ready, String> {
    let apps = scalana_apps::all_apps();
    let mut jobs = Vec::new();
    for (index, app) in apps.iter().enumerate() {
        let scales: &[usize] = match (smoke, app.name.as_str()) {
            (true, _) => &[4, 8],
            (false, "SST" | "NEK") => &[4, 8, 16],
            (false, _) => &[4, 8, 16, 32, 64],
        };
        jobs.push(Job {
            app: index,
            label: app.name.clone(),
            scales: scales.to_vec(),
        });
    }
    if !smoke {
        for (name, scales) in [
            ("CG", &[16, 64, 256][..]),
            ("LU", &[16, 64, 256][..]),
            ("ZMP", &[16, 64, 256, 512][..]),
        ] {
            let app = apps
                .iter()
                .position(|a| a.name == name)
                .ok_or_else(|| format!("no app {name}"))?;
            jobs.push(Job {
                app,
                label: format!("{name}@large"),
                scales: scales.to_vec(),
            });
        }
    }
    // Warm-up: every app once at two small scales, so the first timed
    // pass does not pay for first-touch page faults and lazy statics.
    for app in &apps {
        analyze_app(app, &[4, 8], &ScalAnaConfig::default()).map_err(|e| e.to_string())?;
    }
    Ok(Ready { apps, jobs })
}

fn shuffled(jobs: &[Job], rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    rng.shuffle(&mut order);
    order
}

/// Whether the app's hand-written root cause, if it has one, is among
/// the report's.
fn root_cause_ok(app: &App, analysis: &scalana_core::Analysis) -> bool {
    app.expected_root_cause
        .as_deref()
        .is_none_or(|location| analysis.report.found_at(location))
}

pub fn run(config: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::new("pipeline_cold");
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        ready = Some(set_up(config.smoke)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let ready = ready.expect("at least one set-up ran");
    let mut rng = Rng::new(config.seed);
    let pid = std::process::id();
    if config.traced {
        traced(&ready, &mut rng, config, &mut out)?;
    } else {
        out.set("setup_s", stats::median(&setups));
        timed(&ready, &mut rng, config, &mut out)?;
        out.set("peak_rss_mb", procfs::peak_rss_mb(pid)?);
    }
    Ok(out)
}

fn timed(ready: &Ready, rng: &mut Rng, config: &Config, out: &mut Outcome) -> Result<(), String> {
    let defaults = ScalAnaConfig::default();
    let pid = std::process::id();
    let started = Instant::now();
    // One block per pass: every pass times the same mix.
    let mut passes: Vec<Block> = Vec::new();
    let mut by_label: BTreeMap<&str, f64> = BTreeMap::new();
    let min_ops = if config.smoke { 0 } else { MIN_OPS };
    loop {
        let pass_started = Instant::now();
        let cpu_before = procfs::cpu_ms(pid)?;
        let mut latencies_ms = Vec::with_capacity(ready.jobs.len());
        for index in shuffled(&ready.jobs, rng) {
            let job = &ready.jobs[index];
            let app = &ready.apps[job.app];
            let t = Instant::now();
            let analysis = analyze_app(app, &job.scales, &defaults);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            out.attempted += 1;
            match analysis {
                Ok(analysis) if root_cause_ok(app, &analysis) => {
                    latencies_ms.push(ms);
                    *by_label.entry(&job.label).or_default() += ms;
                }
                Ok(_) => {
                    out.failed += 1;
                    out.problems
                        .push(format!("{}: expected root cause not found", job.label));
                }
                Err(e) => {
                    out.failed += 1;
                    out.problems.push(format!("{}: {e}", job.label));
                }
            }
        }
        passes.push(Block {
            seconds: pass_started.elapsed().as_secs_f64(),
            latencies_ms,
            cpu_ms: procfs::cpu_ms(pid)? - cpu_before,
        });
        let elapsed = started.elapsed().as_secs_f64();
        let succeeded = out.attempted - out.failed;
        if elapsed + elapsed / passes.len() as f64 / 2.0 >= config.seconds && succeeded >= min_ops {
            break;
        }
    }
    out.set_rate(&passes);
    out.set_latency(&passes, config);
    let total: f64 = by_label.values().sum();
    let shares: Vec<String> = by_label
        .iter()
        .map(|(label, ms)| format!("{label} {:.1}%", 100.0 * ms / total))
        .collect();
    out.notes
        .push(format!("share of a pass: {}", shares.join(", ")));
    Ok(())
}

/// The traced pass: every job analyzed whole by `analyze_app` and then
/// taken apart by the decomposed pipeline, back to back so both see the
/// same machine, pass after pass until the time is up. The decomposed
/// analysis must give the whole one's bytes.
fn traced(ready: &Ready, rng: &mut Rng, config: &Config, out: &mut Outcome) -> Result<(), String> {
    let defaults = ScalAnaConfig::default();
    let started = Instant::now();
    let mut rec = Recorder::new(started);
    let mut samples = Samples::default();
    let mut per_app: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let sources: Vec<String> = ready.apps.iter().map(App::source).collect();
    let mut passes = 0;
    // Exact per input, so one pass's worth is the metric.
    let mut image_bytes_a_pass = 0.0;
    let mut found = 0;
    loop {
        for index in shuffled(&ready.jobs, rng) {
            let job = &ready.jobs[index];
            let app = &ready.apps[job.app];
            out.attempted += 1;
            let t = Instant::now();
            let whole = analyze_app(app, &job.scales, &defaults).map_err(|e| e.to_string())?;
            let us = t.elapsed().as_secs_f64() * 1e6;
            samples.push("core.analyze_us", us);
            if job.label == app.name {
                per_app.entry(&app.name).or_default().push(us);
                if app.expected_root_cause.is_some() {
                    found += usize::from(root_cause_ok(app, &whole));
                }
            }
            // `analyze_app` runs an app on its own machine model.
            let app_config = ScalAnaConfig {
                machine: app.machine.clone(),
                ..defaults.clone()
            };
            let input = Input {
                file_name: &job.label,
                source: &sources[job.app],
                program: &app.program,
                scales: &job.scales,
                config: &app_config,
            };
            let staged = decompose(&input, out.attempted, &mut rec, &mut samples)?;
            if ReportBytes::of(&staged) != ReportBytes::of(&whole) {
                out.failed += 1;
                out.problems.push(format!(
                    "{}: decomposed pipeline and analyze_app disagree",
                    job.label
                ));
            }
        }
        passes += 1;
        if passes == 1 {
            image_bytes_a_pass = samples.sum("profile.image_total_bytes");
        }
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + elapsed / passes as f64 / 2.0 >= config.seconds {
            break;
        }
    }
    let expected = ready
        .apps
        .iter()
        .filter(|a| a.expected_root_cause.is_some())
        .count();
    if found != expected * passes {
        out.problems.push(format!(
            "root causes found in {found} of {} case-study analyses",
            expected * passes
        ));
    }
    for (app, values) in &per_app {
        out.set(&format!("core.analyze_us.{app}"), stats::median(values));
    }
    out.set_layer_medians(&samples);
    out.set("profile.image_kb", image_bytes_a_pass / 1024.0);
    out.set("detect.root_causes_found", found as f64 / passes as f64);
    out.set("bench.ops", out.attempted as f64);
    out.set("bench.timed_s", started.elapsed().as_secs_f64());
    out.set(
        "bench.failed_ops_ratio",
        out.failed as f64 / out.attempted as f64,
    );
    out.spans = rec.spans;
    Ok(())
}
