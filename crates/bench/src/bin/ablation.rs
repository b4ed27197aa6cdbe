//! Ablations of the design choices DESIGN.md §5 calls out:
//!
//! 1. graph contraction on/off — PSG size and detection cost,
//! 2. graph-guided communication compression on/off — storage,
//! 3. cross-rank aggregation strategy — non-scalable detection hits,
//! 4. sampling frequency — overhead vs samples,
//! 5. wait-time edge pruning — backtracking search cost.
//!
//! Detection wall-clock times (ablations 1 and 5) go to stderr, the rest
//! to stdout.

use scalana_bench::Table;
use scalana_core::{analyze_app, ScalAnaConfig};
use scalana_detect::Aggregation;
use scalana_graph::{build_psg, PsgOptions};
use scalana_mpisim::{SimConfig, Simulation};
use scalana_profile::overhead::human_bytes;
use scalana_profile::{ProfilerConfig, ScalAnaProfiler};

fn main() {
    ablate_contraction();
    ablate_compression();
    ablate_aggregation();
    ablate_sampling();
    ablate_wait_prune();
}

fn ablate_contraction() {
    println!("== Ablation 1: graph contraction ==\n");
    let mut table = Table::new(&["Program", "#V raw", "#V contracted"]);
    let mut timings = Table::new(&["Program", "detect raw", "detect contr."]);
    for name in ["CG", "MG", "ZMP"] {
        let app = scalana_apps::by_name(name).unwrap();
        let raw = build_psg(
            &app.program,
            &PsgOptions {
                contract: false,
                ..Default::default()
            },
        );
        let contracted = build_psg(&app.program, &PsgOptions::default());

        let time_detect = |contract: bool| {
            let mut config = ScalAnaConfig::default();
            config.psg.contract = contract;
            config.machine = app.machine.clone();
            let analysis = analyze_app(&app, &[4, 8, 16], &config).unwrap();
            analysis.detect_seconds * 1e3
        };
        table.row(vec![
            name.to_string(),
            raw.vertex_count().to_string(),
            contracted.vertex_count().to_string(),
        ]);
        timings.row(vec![
            name.to_string(),
            format!("{:.2} ms", time_detect(false)),
            format!("{:.2} ms", time_detect(true)),
        ]);
    }
    table.print();
    timings.eprint();
    println!();
}

fn ablate_compression() {
    println!("== Ablation 2: graph-guided communication compression ==\n");
    let app = scalana_apps::by_name("CG").unwrap();
    let psg = build_psg(&app.program, &PsgOptions::default());
    let mut table = Table::new(&["compression", "storage", "dep edges"]);
    for on in [true, false] {
        let mut profiler = ScalAnaProfiler::new(ProfilerConfig {
            graph_compression: on,
            ..ProfilerConfig::default()
        });
        Simulation::new(&app.program, &psg, SimConfig::with_nprocs(32))
            .with_hook(&mut profiler)
            .run()
            .unwrap();
        let data = profiler.take_data();
        table.row(vec![
            if on { "on".into() } else { "off".into() },
            human_bytes(data.storage_bytes),
            data.comm_edge_count().to_string(),
        ]);
    }
    table.print();
    println!("(same dependence information, far fewer persisted records)\n");
}

fn ablate_aggregation() {
    println!("== Ablation 3: aggregation strategy for non-scalable detection ==\n");
    let app = scalana_apps::zeusmp::build(false);
    let mut table = Table::new(&["strategy", "non-scalable found", "root cause found"]);
    for (name, agg) in [
        ("single-rank(0)", Aggregation::SingleRank(0)),
        ("mean", Aggregation::Mean),
        ("median", Aggregation::Median),
        ("max", Aggregation::Max),
        ("clustered(k=2)", Aggregation::Clustered { k: 2 }),
    ] {
        let mut config = ScalAnaConfig::default();
        config.detect.aggregation = agg;
        config.machine = app.machine.clone();
        let analysis = analyze_app(&app, &[4, 8, 16, 32], &config).unwrap();
        table.row(vec![
            name.to_string(),
            analysis.report.non_scalable.len().to_string(),
            analysis.report.found_at("bval3d.F:155").to_string(),
        ]);
    }
    table.print();
    println!();
}

fn ablate_sampling() {
    println!("== Ablation 4: sampling frequency vs overhead ==\n");
    let app = scalana_apps::by_name("CG").unwrap();
    let psg = build_psg(&app.program, &PsgOptions::default());
    let baseline = Simulation::new(&app.program, &psg, SimConfig::with_nprocs(32))
        .run()
        .unwrap()
        .total_time();
    let mut table = Table::new(&["freq (Hz)", "samples", "overhead"]);
    for hz in [1_000.0, 10_000.0, 100_000.0, 1_000_000.0] {
        let mut profiler = ScalAnaProfiler::new(ProfilerConfig {
            sampling_hz: hz,
            ..ProfilerConfig::default()
        });
        let t = Simulation::new(&app.program, &psg, SimConfig::with_nprocs(32))
            .with_hook(&mut profiler)
            .run()
            .unwrap()
            .total_time();
        let data = profiler.take_data();
        table.row(vec![
            format!("{hz:.0}"),
            data.sample_count.to_string(),
            format!("{:.2}%", (t - baseline) / baseline * 100.0),
        ]);
    }
    table.print();
    println!();
}

fn ablate_wait_prune() {
    println!("== Ablation 5: wait-time pruning of dependence edges ==\n");
    let app = scalana_apps::zeusmp::build(false);
    let mut table = Table::new(&["prune threshold", "total path steps"]);
    let mut timings = Table::new(&["prune threshold", "detect time"]);
    for (label, prune) in [
        ("off (0)", 0.0),
        ("1e-7 s (default)", 1e-7),
        ("1e-4 s", 1e-4),
    ] {
        let mut config = ScalAnaConfig::default();
        config.detect.wait_prune = prune;
        config.machine = app.machine.clone();
        let analysis = analyze_app(&app, &[4, 8, 16, 32], &config).unwrap();
        let steps: usize = analysis.report.paths.iter().map(|p| p.steps.len()).sum();
        table.row(vec![label.to_string(), steps.to_string()]);
        timings.row(vec![
            label.to_string(),
            format!("{:.2} ms", analysis.detect_seconds * 1e3),
        ]);
    }
    table.print();
    timings.eprint();
}
