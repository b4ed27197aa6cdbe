//! Canonical JSON views of the analysis data model.
//!
//! Shared between `scalana analyze --json` and the daemon's result
//! endpoint, so a client comparing a served report against a local run
//! compares identical bytes. Field order is fixed here; floats and
//! strings render through the canonical forms in [`crate::json`].
//!
//! One writer defines the detection report's bytes: [`render_report`]
//! appends the report to a `String` field by field, with no `Json` tree
//! in between. The daemon stores exactly those bytes, and
//! [`report_to_json`] is their parse, so every view of a report — served,
//! in-process, or re-rendered from a parsed document — is the same bytes.
//! The small members (`runs`, `psg`, `speedup`) are still built as
//! [`Json`] values.

use crate::json::{self, write_f64, write_string, Json};
use scalana_core::{Analysis, RunSummary};
use scalana_detect::{
    summarize, AbnormalVertex, DetectionReport, NonScalableVertex, PathStep, RootCause,
    RootCausePath, ScalingSummary,
};
use scalana_graph::PsgStats;
use std::fmt::Write as _;

/// One run summary.
pub fn run_summary_to_json(run: &RunSummary) -> Json {
    Json::obj(vec![
        ("nprocs", run.nprocs.into()),
        ("total_time", run.total_time.into()),
        ("storage_bytes", run.storage_bytes.into()),
        ("sample_count", run.sample_count.into()),
        ("comm_edges", run.comm_edges.into()),
    ])
}

/// PSG statistics (the Table II columns).
pub fn psg_stats_to_json(stats: &PsgStats) -> Json {
    Json::obj(vec![
        ("vbc", stats.vbc.into()),
        ("vac", stats.vac.into()),
        ("loops", stats.loops.into()),
        ("branches", stats.branches.into()),
        ("comps", stats.comps.into()),
        ("mpis", stats.mpis.into()),
        ("callsites", stats.callsites.into()),
        ("recursive", stats.recursive.into()),
        ("reduction", stats.reduction().into()),
        ("comp_mpi_fraction", stats.comp_mpi_fraction().into()),
    ])
}

/// Whole-program scaling summary (speedup curve).
pub fn scaling_to_json(summary: &ScalingSummary) -> Json {
    let points: Vec<Json> = summary
        .points
        .iter()
        .map(|p| {
            Json::obj(vec![
                ("nprocs", p.nprocs.into()),
                ("time", p.time.into()),
                ("speedup", p.speedup.into()),
                ("efficiency", p.efficiency.into()),
            ])
        })
        .collect();
    Json::obj(vec![
        ("points", Json::Arr(points)),
        ("time_slope", summary.time_slope.into()),
        (
            "serial_fraction",
            summary.serial_fraction.map_or(Json::Null, Json::from),
        ),
        (
            "efficient_scale",
            summary.efficient_scale.map_or(Json::Null, Json::from),
        ),
    ])
}

/// A report member the writer can append in canonical form.
trait Field {
    fn write(&self, out: &mut String);
}

/// Append `{"key":value,...}` with the fields in the given order.
fn write_object(out: &mut String, fields: &[(&str, &dyn Field)]) {
    out.push('{');
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_string(out, key);
        out.push(':');
        value.write(out);
    }
    out.push('}');
}

impl Field for f64 {
    fn write(&self, out: &mut String) {
        write_f64(out, *self);
    }
}

impl Field for bool {
    fn write(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Field for u32 {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
}

impl Field for usize {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
}

impl Field for String {
    fn write(&self, out: &mut String) {
        write_string(out, self);
    }
}

impl<T: Field> Field for Vec<T> {
    fn write(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write(out);
        }
        out.push(']');
    }
}

impl Field for NonScalableVertex {
    fn write(&self, out: &mut String) {
        write_object(
            out,
            &[
                ("vertex", &self.vertex),
                ("location", &self.location),
                ("slope", &self.fit.slope),
                ("intercept", &self.fit.intercept),
                ("r2", &self.fit.r2),
                ("times", &self.times),
                ("time_fraction", &self.time_fraction),
            ],
        );
    }
}

impl Field for AbnormalVertex {
    fn write(&self, out: &mut String) {
        write_object(
            out,
            &[
                ("vertex", &self.vertex),
                ("location", &self.location),
                ("ranks", &self.ranks),
                ("ratio", &self.ratio),
                ("median_time", &self.median_time),
            ],
        );
    }
}

impl Field for PathStep {
    fn write(&self, out: &mut String) {
        write_object(
            out,
            &[
                ("rank", &self.rank),
                ("vertex", &self.vertex),
                ("kind", &self.kind),
                ("location", &self.location),
                ("time", &self.time),
                ("wait_time", &self.wait_time),
                ("via_comm", &self.via_comm),
            ],
        );
    }
}

impl Field for RootCausePath {
    fn write(&self, out: &mut String) {
        write_object(
            out,
            &[
                ("steps", &self.steps),
                ("root_cause_idx", &self.root_cause_idx),
                ("confident", &self.confident),
            ],
        );
    }
}

impl Field for RootCause {
    fn write(&self, out: &mut String) {
        write_object(
            out,
            &[
                ("vertex", &self.vertex),
                ("kind", &self.kind),
                ("location", &self.location),
                ("func", &self.func),
                ("path_count", &self.path_count),
                ("score", &self.score),
                ("mean_time", &self.mean_time),
                ("time_imbalance", &self.time_imbalance),
                ("ins_imbalance", &self.ins_imbalance),
            ],
        );
    }
}

/// The full detection report, rendered: the bytes the daemon serves as a
/// result's `report` member.
pub fn render_report(report: &DetectionReport) -> String {
    let mut out = String::new();
    write_object(
        &mut out,
        &[
            ("non_scalable", &report.non_scalable),
            ("abnormal", &report.abnormal),
            ("root_causes", &report.root_causes),
            ("paths", &report.paths),
        ],
    );
    out
}

/// The full detection report as a document: the parse of
/// [`render_report`]'s bytes, so it renders back to exactly them.
pub fn report_to_json(report: &DetectionReport) -> Json {
    json::parse(&render_report(report)).expect("the report writer emits valid JSON")
}

/// Everything `scalana analyze --json` emits: PSG stats, per-scale run
/// summaries, the speedup curve, and the detection report.
///
/// `detect_seconds` is wall-clock and therefore the one non-deterministic
/// field; consumers wanting byte-stable output compare the `report` and
/// `runs` members.
pub fn analysis_to_json(analysis: &Analysis) -> Json {
    let measurements: Vec<(usize, f64)> = analysis
        .runs
        .iter()
        .map(|r| (r.nprocs, r.total_time))
        .collect();
    Json::obj(vec![
        ("psg", psg_stats_to_json(&analysis.psg.stats)),
        (
            "runs",
            Json::Arr(analysis.runs.iter().map(run_summary_to_json).collect()),
        ),
        ("speedup", scaling_to_json(&summarize(&measurements))),
        ("report", report_to_json(&analysis.report)),
        ("detect_seconds", analysis.detect_seconds.into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalana_apps::{cg, CgOptions};
    use scalana_core::{analyze_app, ScalAnaConfig};

    #[test]
    fn analysis_json_has_every_section_and_reparses() {
        let app = cg::build(&CgOptions {
            na: 20_000,
            iterations: 3,
            delay_rank: None,
        });
        let analysis = analyze_app(&app, &[2, 4], &ScalAnaConfig::default()).unwrap();
        let json = analysis_to_json(&analysis);
        let text = json.render();
        let reparsed = crate::json::parse(&text).unwrap();
        assert_eq!(reparsed.render(), text, "parse∘render is the identity");
        for key in ["psg", "runs", "speedup", "report", "detect_seconds"] {
            assert!(reparsed.get(key).is_some(), "missing {key}");
        }
        assert_eq!(reparsed.get("runs").unwrap().as_array().unwrap().len(), 2);
        let report = reparsed.get("report").unwrap();
        for key in ["non_scalable", "abnormal", "root_causes", "paths"] {
            assert!(report.get(key).is_some(), "missing report.{key}");
        }
    }

    #[test]
    fn report_json_is_deterministic_across_runs() {
        let app = cg::build(&CgOptions {
            na: 20_000,
            iterations: 3,
            delay_rank: None,
        });
        let a = analyze_app(&app, &[2, 4], &ScalAnaConfig::default()).unwrap();
        let b = analyze_app(&app, &[2, 4], &ScalAnaConfig::default()).unwrap();
        assert_eq!(
            report_to_json(&a.report).render(),
            report_to_json(&b.report).render()
        );
    }

    #[test]
    fn writer_bytes_are_canonical_and_escape_every_location() {
        // The file name reaches every `location` in the report.
        let file = r#"odd "dir"\a.mmpi"#;
        let src = "param WORK = 6_000_000;
            fn main() {
                for it in 0 .. 10 {
                    comp(cycles = WORK / nprocs, ins = WORK / nprocs);
                    if rank == 0 { for s in 0 .. 4 { comp(cycles = WORK / 8); } }
                    barrier();
                }
                allreduce(bytes = 8);
            }";
        let program = scalana_lang::parse_program(file, src).unwrap();
        let analysis =
            scalana_core::analyze(&program, &[4, 8, 16], &ScalAnaConfig::default()).unwrap();
        let text = render_report(&analysis.report);
        assert_eq!(report_to_json(&analysis.report).render(), text);
        assert!(text.contains(r#""location":"odd \"dir\"\\a.mmpi:"#));

        let report = crate::json::parse(&text).unwrap();
        let mut locations = Vec::new();
        for section in ["non_scalable", "abnormal", "root_causes"] {
            for item in report.get(section).unwrap().as_array().unwrap() {
                locations.push(item.get("location").unwrap().as_str().unwrap().to_string());
            }
        }
        for path in report.get("paths").unwrap().as_array().unwrap() {
            for step in path.get("steps").unwrap().as_array().unwrap() {
                locations.push(step.get("location").unwrap().as_str().unwrap().to_string());
            }
        }
        assert!(!analysis.report.paths.is_empty());
        let expected = analysis.report.non_scalable.len()
            + analysis.report.abnormal.len()
            + analysis.report.root_causes.len()
            + analysis
                .report
                .paths
                .iter()
                .map(|p| p.steps.len())
                .sum::<usize>();
        assert_eq!(locations.len(), expected);
        for location in &locations {
            assert!(location.starts_with(file), "{location}");
        }
    }
}
