//! Structured comparison of two completed analyses (`scalana diff`).
//!
//! The paper's workflow detects scaling loss in *one* program; the diff
//! operationalizes its most common follow-up: did a code or
//! configuration change move the scaling behavior? Vertices are matched
//! across the two analyses by **source location** (`file:line`) — vertex
//! ids are graph-local and mean nothing across programs, while the
//! location is the coordinate the viewer reports and the one a developer
//! edits.
//!
//! The comparison is a pure function of the two result documents, which
//! are themselves canonical and deterministic, and every union is
//! emitted sorted — so diffing the same pair twice yields byte-identical
//! output (pinned by integration tests). The daemon serves the two
//! result documents (`GET /v1/jobs/<id>/result`); the client fetches
//! both and calls [`diff`] itself.

use crate::json::Json;

/// One side of a diff: a completed job's identity plus its parsed
/// `report` and `runs` documents.
#[derive(Debug, Clone)]
pub struct DiffSide {
    /// The job key the documents came from.
    pub job: String,
    /// The detection report (`report` member of the result document).
    pub report: Json,
    /// The per-scale run summaries (`runs` member).
    pub runs: Json,
}

/// `(nprocs, total_time)` pairs of one side.
fn run_times(runs: &Json) -> Vec<(usize, f64)> {
    runs.as_array()
        .unwrap_or(&[])
        .iter()
        .filter_map(|run| {
            Some((
                run.get("nprocs")?.as_i64()? as usize,
                run.get("total_time")?.as_f64()?,
            ))
        })
        .collect()
}

/// First entry per key from a report section, preserving nothing but
/// the keyed lookup (report order is deterministic, so "first" is too).
fn keyed<'a>(
    section: &'a Json,
    key_of: impl Fn(&'a Json) -> Option<String>,
) -> Vec<(String, &'a Json)> {
    let mut entries: Vec<(String, &'a Json)> = Vec::new();
    for entry in section.as_array().unwrap_or(&[]) {
        if let Some(key) = key_of(entry) {
            if !entries.iter().any(|(k, _)| *k == key) {
                entries.push((key, entry));
            }
        }
    }
    entries
}

/// Sorted union of the keys of two keyed sections.
fn key_union(a: &[(String, &Json)], b: &[(String, &Json)]) -> Vec<String> {
    let mut keys: Vec<String> = a.iter().map(|(k, _)| k.clone()).collect();
    for (k, _) in b {
        if !keys.contains(k) {
            keys.push(k.clone());
        }
    }
    keys.sort();
    keys
}

fn presence(in_a: bool, in_b: bool) -> &'static str {
    match (in_a, in_b) {
        (true, true) => "both",
        (true, false) => "only_a",
        _ => "only_b",
    }
}

fn field(entry: Option<&&Json>, name: &str) -> Json {
    entry
        .and_then(|e| e.get(name))
        .cloned()
        .unwrap_or(Json::Null)
}

fn delta(entry_a: Option<&&Json>, entry_b: Option<&&Json>, name: &str) -> Json {
    match (
        entry_a.and_then(|e| e.get(name)).and_then(Json::as_f64),
        entry_b.and_then(|e| e.get(name)).and_then(Json::as_f64),
    ) {
        (Some(a), Some(b)) => Json::Num(b - a),
        _ => Json::Null,
    }
}

/// Compare two completed analyses into one structured document.
///
/// Shape (all unions sorted, all fields present, `null` where a side
/// has no matching entry):
///
/// ```json
/// {"a":{"job":"..."},"b":{"job":"..."},
///  "runs":[{"nprocs":4,"total_time_a":1.0,"total_time_b":0.9,"ratio":0.9}],
///  "non_scalable":[{"location":"f:1","status":"both","slope_a":...,
///                   "slope_b":...,"slope_delta":...,
///                   "time_fraction_a":...,"time_fraction_b":...}],
///  "abnormal":[{"location":"f:2","status":"only_a","ratio_a":...,"ratio_b":null}],
///  "root_causes":[{"location":"f:3","kind":"Loop","status":"both",
///                  "score_a":...,"score_b":...,"score_delta":...,
///                  "mean_time_a":...,"mean_time_b":...}],
///  "summary":{...}}
/// ```
pub fn diff(a: &DiffSide, b: &DiffSide) -> Json {
    // Per-scale run comparison over the union of scales.
    let times_a = run_times(&a.runs);
    let times_b = run_times(&b.runs);
    let mut scales: Vec<usize> = times_a.iter().map(|(p, _)| *p).collect();
    for (p, _) in &times_b {
        if !scales.contains(p) {
            scales.push(*p);
        }
    }
    scales.sort_unstable();
    let time_at = |times: &[(usize, f64)], p: usize| -> Option<f64> {
        times.iter().find(|(q, _)| *q == p).map(|(_, t)| *t)
    };
    let runs: Vec<Json> = scales
        .iter()
        .map(|&p| {
            let ta = time_at(&times_a, p);
            let tb = time_at(&times_b, p);
            Json::obj(vec![
                ("nprocs", p.into()),
                ("total_time_a", ta.map_or(Json::Null, Json::Num)),
                ("total_time_b", tb.map_or(Json::Null, Json::Num)),
                (
                    "ratio",
                    match (ta, tb) {
                        (Some(ta), Some(tb)) if ta > 0.0 => Json::Num(tb / ta),
                        _ => Json::Null,
                    },
                ),
            ])
        })
        .collect();

    // Vertex-level sections, matched by source location.
    let by_location = |e: &Json| e.get("location").and_then(Json::as_str).map(str::to_string);
    let ns_a = keyed(
        a.report.get("non_scalable").unwrap_or(&Json::Null),
        by_location,
    );
    let ns_b = keyed(
        b.report.get("non_scalable").unwrap_or(&Json::Null),
        by_location,
    );
    let non_scalable: Vec<Json> = key_union(&ns_a, &ns_b)
        .into_iter()
        .map(|location| {
            let ea = ns_a.iter().find(|(k, _)| *k == location).map(|(_, e)| e);
            let eb = ns_b.iter().find(|(k, _)| *k == location).map(|(_, e)| e);
            Json::obj(vec![
                ("location", location.as_str().into()),
                ("status", presence(ea.is_some(), eb.is_some()).into()),
                ("slope_a", field(ea, "slope")),
                ("slope_b", field(eb, "slope")),
                ("slope_delta", delta(ea, eb, "slope")),
                ("time_fraction_a", field(ea, "time_fraction")),
                ("time_fraction_b", field(eb, "time_fraction")),
            ])
        })
        .collect();

    let ab_a = keyed(a.report.get("abnormal").unwrap_or(&Json::Null), by_location);
    let ab_b = keyed(b.report.get("abnormal").unwrap_or(&Json::Null), by_location);
    let abnormal: Vec<Json> = key_union(&ab_a, &ab_b)
        .into_iter()
        .map(|location| {
            let ea = ab_a.iter().find(|(k, _)| *k == location).map(|(_, e)| e);
            let eb = ab_b.iter().find(|(k, _)| *k == location).map(|(_, e)| e);
            Json::obj(vec![
                ("location", location.as_str().into()),
                ("status", presence(ea.is_some(), eb.is_some()).into()),
                ("ratio_a", field(ea, "ratio")),
                ("ratio_b", field(eb, "ratio")),
            ])
        })
        .collect();

    // Root causes match on (location, kind): the same line can host
    // both a Comp and an MPI vertex, and those are different findings.
    let by_location_kind = |e: &Json| {
        Some(format!(
            "{}\u{0}{}",
            e.get("location")?.as_str()?,
            e.get("kind")?.as_str()?
        ))
    };
    let rc_a = keyed(
        a.report.get("root_causes").unwrap_or(&Json::Null),
        by_location_kind,
    );
    let rc_b = keyed(
        b.report.get("root_causes").unwrap_or(&Json::Null),
        by_location_kind,
    );
    let mut causes_both = 0i64;
    let mut causes_only_a = 0i64;
    let mut causes_only_b = 0i64;
    let root_causes: Vec<Json> = key_union(&rc_a, &rc_b)
        .into_iter()
        .map(|key| {
            let ea = rc_a.iter().find(|(k, _)| *k == key).map(|(_, e)| e);
            let eb = rc_b.iter().find(|(k, _)| *k == key).map(|(_, e)| e);
            match (ea.is_some(), eb.is_some()) {
                (true, true) => causes_both += 1,
                (true, false) => causes_only_a += 1,
                _ => causes_only_b += 1,
            }
            let (location, kind) = key.split_once('\u{0}').unwrap_or((key.as_str(), ""));
            Json::obj(vec![
                ("location", location.into()),
                ("kind", kind.into()),
                ("status", presence(ea.is_some(), eb.is_some()).into()),
                ("score_a", field(ea, "score")),
                ("score_b", field(eb, "score")),
                ("score_delta", delta(ea, eb, "score")),
                ("mean_time_a", field(ea, "mean_time")),
                ("mean_time_b", field(eb, "mean_time")),
            ])
        })
        .collect();

    // Headline: who is faster at the largest scale both sides ran.
    let common: Vec<usize> = scales
        .iter()
        .copied()
        .filter(|&p| time_at(&times_a, p).is_some() && time_at(&times_b, p).is_some())
        .collect();
    let largest_common = common.last().copied();
    let (faster, time_ratio) = match largest_common {
        Some(p) => {
            let ta = time_at(&times_a, p).unwrap_or(0.0);
            let tb = time_at(&times_b, p).unwrap_or(0.0);
            let faster = if (ta - tb).abs() <= 1e-12 * ta.abs().max(tb.abs()) {
                "tie"
            } else if tb < ta {
                "b"
            } else {
                "a"
            };
            (
                Json::from(faster),
                if ta > 0.0 {
                    Json::Num(tb / ta)
                } else {
                    Json::Null
                },
            )
        }
        None => (Json::Null, Json::Null),
    };

    Json::obj(vec![
        ("a", Json::obj(vec![("job", a.job.as_str().into())])),
        ("b", Json::obj(vec![("job", b.job.as_str().into())])),
        ("runs", Json::Arr(runs)),
        ("non_scalable", Json::Arr(non_scalable)),
        ("abnormal", Json::Arr(abnormal)),
        ("root_causes", Json::Arr(root_causes)),
        (
            "summary",
            Json::obj(vec![
                (
                    "largest_common_scale",
                    largest_common.map_or(Json::Null, Json::from),
                ),
                ("time_ratio", time_ratio),
                ("faster", faster),
                ("root_causes_both", causes_both.into()),
                ("root_causes_only_a", causes_only_a.into()),
                ("root_causes_only_b", causes_only_b.into()),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn side(job: &str, report: &str, runs: &str) -> DiffSide {
        DiffSide {
            job: job.to_string(),
            report: parse(report).unwrap(),
            runs: parse(runs).unwrap(),
        }
    }

    const REPORT_A: &str = r#"{"non_scalable":[{"location":"f:1","slope":0.5,"time_fraction":0.4}],
        "abnormal":[{"location":"f:2","ratio":2.0}],
        "root_causes":[{"location":"f:1","kind":"Loop","score":0.9,"mean_time":1.0},
                       {"location":"f:9","kind":"Comp","score":0.2,"mean_time":0.1}]}"#;
    const REPORT_B: &str = r#"{"non_scalable":[{"location":"f:1","slope":0.1,"time_fraction":0.2}],
        "abnormal":[],
        "root_causes":[{"location":"f:1","kind":"Loop","score":0.3,"mean_time":0.5}]}"#;
    const RUNS_A: &str = r#"[{"nprocs":2,"total_time":1.0},{"nprocs":4,"total_time":0.8}]"#;
    const RUNS_B: &str = r#"[{"nprocs":2,"total_time":1.0},{"nprocs":4,"total_time":0.4},{"nprocs":8,"total_time":0.3}]"#;

    #[test]
    fn matches_by_location_and_sorts_unions() {
        let doc = diff(&side("ja", REPORT_A, RUNS_A), &side("jb", REPORT_B, RUNS_B));
        assert_eq!(
            doc.get("a").unwrap().get("job").unwrap().as_str(),
            Some("ja")
        );

        let runs = doc.get("runs").unwrap().as_array().unwrap();
        assert_eq!(runs.len(), 3, "union of scales");
        assert_eq!(runs[2].get("nprocs").unwrap().as_i64(), Some(8));
        assert_eq!(runs[2].get("total_time_a"), Some(&Json::Null));

        let causes = doc.get("root_causes").unwrap().as_array().unwrap();
        assert_eq!(causes.len(), 2);
        assert_eq!(causes[0].get("location").unwrap().as_str(), Some("f:1"));
        assert_eq!(causes[0].get("status").unwrap().as_str(), Some("both"));
        let delta = causes[0].get("score_delta").unwrap().as_f64().unwrap();
        assert!((delta - (0.3 - 0.9)).abs() < 1e-12);
        assert_eq!(causes[1].get("status").unwrap().as_str(), Some("only_a"));

        let abnormal = doc.get("abnormal").unwrap().as_array().unwrap();
        assert_eq!(abnormal[0].get("status").unwrap().as_str(), Some("only_a"));

        let summary = doc.get("summary").unwrap();
        assert_eq!(
            summary.get("largest_common_scale").unwrap().as_i64(),
            Some(4)
        );
        assert_eq!(summary.get("faster").unwrap().as_str(), Some("b"));
        assert_eq!(summary.get("root_causes_both").unwrap().as_i64(), Some(1));
        assert_eq!(summary.get("root_causes_only_a").unwrap().as_i64(), Some(1));
    }

    #[test]
    fn diff_is_deterministic_and_canonical() {
        let a = side("ja", REPORT_A, RUNS_A);
        let b = side("jb", REPORT_B, RUNS_B);
        let first = diff(&a, &b).render();
        let second = diff(&a, &b).render();
        assert_eq!(first, second);
        assert_eq!(parse(&first).unwrap().render(), first);
    }

    #[test]
    fn empty_reports_diff_cleanly() {
        let empty = side(
            "j",
            r#"{"non_scalable":[],"abnormal":[],"root_causes":[]}"#,
            "[]",
        );
        let doc = diff(&empty, &empty);
        assert_eq!(doc.get("runs").unwrap().as_array().unwrap().len(), 0);
        assert_eq!(doc.get("summary").unwrap().get("faster"), Some(&Json::Null));
    }
}
