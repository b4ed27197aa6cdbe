//! # scalana-bench — harness regenerating every table and figure
//!
//! One binary per experiment of the paper's evaluation (§VI). Run a
//! harness with e.g.
//!
//! ```sh
//! cargo run --release -p scalana-bench --bin table1_overhead_cg
//! ```
//!
//! `tests/golden_figures.rs` runs every binary and compares its stdout
//! byte for byte with `golden/<binary>.txt`.
//!
//! | binary | paper artifact |
//! |---|---|
//! | `table1_overhead_cg`    | Table I: CG overhead/storage across tools |
//! | `fig2_motivating`       | Fig. 2: injected-delay CG and its backtracking |
//! | `fig4_psg_stages`       | Fig. 3/4: local → complete → contracted PSG |
//! | `fig6_ppg`              | Fig. 6: a PPG with performance vectors |
//! | `fig7_problematic`      | Fig. 7: non-scalable & abnormal vertex examples |
//! | `fig8_backtracking`     | Fig. 8: backtracking paths over a PPG |
//! | `fig9_viewer`           | Fig. 9: the viewer (root causes, paths, snippets) |
//! | `table2_psg_stats`      | Table II: PSG sizes for all 11 programs |
//! | `table3_static_overhead`| Table III: static-analysis overhead |
//! | `fig10_runtime_overhead`| Fig. 10: per-app runtime overhead, 3 tools |
//! | `fig11_storage`         | Fig. 11: per-app storage at 128 ranks |
//! | `table4_detection_cost` | Table IV: post-mortem detection cost |
//! | `fig12_zeusmp`          | Fig. 12: Zeus-MP backtracking |
//! | `fig13_zeusmp_overhead` | Fig. 13: Zeus-MP overhead/storage vs tools |
//! | `fig14_15_sst`          | Fig. 14/15: SST diagnosis + PMU data |
//! | `fig16_nekbone`         | Fig. 16: Nekbone diagnosis + PMU data |
//! | `speedup_after_fix`     | §VI-D: before/after-fix speedups |
//! | `ablation`              | design-choice ablations (DESIGN.md §5) |
//! | `tianhe_scale`          | §VI: overhead and the Nekbone fix at 2,048 ranks |

use scalana_apps::App;
use scalana_mpisim::SimConfig;
use scalana_profile::overhead::ToolKind;
use scalana_profile::{measure_overhead, FlatConfig, OverheadReport, ProfilerConfig, TracerConfig};

/// Simulated workloads run ~10⁴× less virtual time than the paper's
/// real executions (milliseconds instead of minutes), so tool costs are
/// rescaled to keep *per-run event and sample counts* comparable:
/// sampling at 20 kHz on a 5 ms run takes about as many samples as
/// 200 Hz over the paper's runs, and fixed per-rank metadata shrinks by
/// the same factor. Cost ratios between tools are preserved.
pub const BENCH_SAMPLING_HZ: f64 = 20_000.0;

/// The three tools of the paper's comparison, with cost models
/// calibrated for the compressed timescale (see [`BENCH_SAMPLING_HZ`]).
pub fn standard_tools() -> Vec<ToolKind> {
    vec![
        ToolKind::Tracer(TracerConfig {
            record_cost: 0.3e-6,
        }),
        ToolKind::Flat(FlatConfig {
            sampling_hz: BENCH_SAMPLING_HZ,
            per_rank_metadata: 2048,
            ..FlatConfig::default()
        }),
        ToolKind::ScalAna(ProfilerConfig {
            sampling_hz: BENCH_SAMPLING_HZ,
            ..ProfilerConfig::default()
        }),
    ]
}

/// Measure one app at one scale under the standard tools.
pub fn measure_app(app: &App, nprocs: usize) -> OverheadReport {
    let psg = scalana_graph::build_psg(&app.program, &scalana_graph::PsgOptions::default());
    let mut config = SimConfig::with_nprocs(nprocs);
    config.machine = std::sync::Arc::new(app.machine.clone());
    measure_overhead(&app.program, &psg, &config, &standard_tools())
        .unwrap_or_else(|e| panic!("{} failed at {nprocs} ranks: {e}", app.name))
}

/// Simple fixed-width table printer for harness output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Table {
        assert_eq!(cells.len(), self.headers.len(), "row width");
        self.rows.push(cells);
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (cell, w) in cells.iter().zip(widths) {
                line.push_str(&format!("{cell:>w$}  ", w = w));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Print to stderr: the place for wall-clock cells, so that a
    /// harness's stdout depends only on the build.
    pub fn eprint(&self) {
        eprint!("{}", self.render());
    }
}

/// ASCII sparkline-ish bar for harness "figures".
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round() as usize;
    "#".repeat(n.min(width))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["app", "overhead"]);
        t.row(vec!["CG".into(), "3.5%".into()]);
        t.row(vec!["ZEUSMP".into(), "1.9%".into()]);
        let text = t.render();
        assert!(text.contains("app"));
        assert!(text.lines().count() == 4);
    }

    #[test]
    fn bar_scales() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(20.0, 10.0, 10), "##########");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }

    #[test]
    fn measure_app_produces_three_tools() {
        let app = scalana_apps::cg::build(&scalana_apps::CgOptions {
            na: 10_000,
            iterations: 2,
            delay_rank: None,
        });
        let report = measure_app(&app, 4);
        assert_eq!(report.tools.len(), 3);
        assert!(report.baseline > 0.0);
    }
}
