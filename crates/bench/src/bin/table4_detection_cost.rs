//! Table IV: post-mortem detection cost at 128 processes — the
//! wall-clock seconds `ScalAna-detect` takes (paper: 0.29–11.81 s,
//! always a small fraction of the run). The wall-clock column goes to
//! stderr, the rest to stdout.

use scalana_bench::Table;
use scalana_core::{analyze_app, ScalAnaConfig};

fn main() {
    println!("Table IV — post-mortem detection cost (scales 4..128)\n");
    let mut table = Table::new(&["Program", "PPG vertices", "dep edges @128", "root causes"]);
    let mut timings = Table::new(&["Program", "detect (ms)"]);

    for app in scalana_apps::all_apps() {
        let analysis = analyze_app(&app, &[4, 16, 64, 128], &ScalAnaConfig::default())
            .unwrap_or_else(|e| panic!("{} failed: {e}", app.name));
        let largest = analysis.ppgs.last().unwrap();
        table.row(vec![
            app.name.clone(),
            analysis.psg.vertex_count().to_string(),
            largest.comm.len().to_string(),
            analysis.report.root_causes.len().to_string(),
        ]);
        timings.row(vec![
            app.name.clone(),
            format!("{:.2}", analysis.detect_seconds * 1e3),
        ]);
    }
    table.print();
    timings.eprint();
    println!("\n(cost is dominated by per-vertex fits and the backtracking walks,");
    println!(" proportional to PSG size × scales — the paper's observation.)");
}
