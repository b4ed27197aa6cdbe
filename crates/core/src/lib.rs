//! # scalana-core — the ScalAna tool facade
//!
//! Wires the substrates into the four-step workflow of paper §V:
//!
//! 1. **`ScalAna-static`** — compile the program and build the
//!    contracted PSG ([`scalana_graph::build_psg`]);
//! 2. **`ScalAna-prof`** — run the instrumented program at several
//!    process counts, collecting per-vertex performance vectors and
//!    compressed communication dependence (plus one small discovery run
//!    that resolves indirect calls into the PSG);
//! 3. **`ScalAna-detect`** — assemble one PPG per scale and run
//!    non-scalable/abnormal detection and backtracking root-cause
//!    analysis;
//! 4. **`ScalAna-viewer`** — render the report and the code snippets
//!    behind each root cause ([`viewer`]).
//!
//! ```
//! use scalana_apps::{cg, CgOptions};
//! use scalana_core::Analysis;
//!
//! let app = cg::build(&CgOptions { na: 20_000, iterations: 3, delay_rank: None });
//! let analysis = Analysis::builder(&app).scales([2, 4, 8]).run().unwrap();
//! assert_eq!(analysis.runs.len(), 3);
//! println!("{}", analysis.report.render());
//! ```
//!
//! [`Analysis::builder`] is the primary entry point; the positional
//! `analyze`/`analyze_app` free functions remain as thin wrappers over
//! it (byte-identical output).

pub mod builder;
pub mod pipeline;
pub mod viewer;

pub use builder::{AnalysisBuilder, AnalysisTarget};
pub use pipeline::{
    analyze, analyze_app, assemble, profile_one_scale, profile_one_scale_observed, profile_runs,
    refined_psg, refined_psg_traced, replay_refined_psg, scale_ppg, speedup_curve, Analysis,
    ProfiledRuns, RunSummary, ScalAnaConfig,
};
