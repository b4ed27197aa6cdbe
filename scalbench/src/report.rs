//! What one run of one workload produced, and the forms it is printed
//! in: the driver's one-line JSON result, the named table, and the
//! host-stamped result file `compare` reads.

use crate::blocks::{self, Block};
use crate::layers::Samples;
use crate::procfs::Fingerprint;
use crate::spec::{self, Metric};
use crate::trace::Span;
use scalana_api::Json;
use std::collections::BTreeMap;

/// Settings of one run of one workload.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// The traced pass (per-layer metrics) instead of the timed pass
    /// (end-to-end metrics).
    pub traced: bool,
    /// Tiny op counts: percentiles that lack samples are left out
    /// instead of failing the run.
    pub smoke: bool,
    /// Where temporary store directories and `trace.jsonl` go.
    pub out_dir: std::path::PathBuf,
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks and violated predictions; any makes the
    /// run incorrect.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Lines worth printing that are not metrics (sample counts, each
    /// app's share of a pass, ...).
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn new(workload: &'static str) -> Outcome {
        Outcome {
            workload,
            ..Outcome::default()
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// Record a metric under a name the contract lists.
    pub fn set(&mut self, name: &str, value: f64) {
        let metric = spec::metric(name).unwrap_or_else(|| panic!("unlisted metric `{name}`"));
        self.metrics
            .insert(metric.name, if value.is_finite() { value } else { 0.0 });
    }

    /// Throughput and CPU per op of a timed pass: medians over blocks.
    pub fn set_rate(&mut self, blocks: &[Block]) {
        self.set("throughput_ops_s", blocks::throughput_ops_s(blocks));
        self.set("cpu_ms_per_op", blocks::cpu_ms_per_op(blocks));
        self.notes.push(format!("blocks: {}", blocks.len()));
    }

    /// The latency percentiles: p50 and p95 of a timed pass (medians
    /// over blocks), the per-layer p99 and sample count of a traced one.
    pub fn set_latency(&mut self, blocks: &[Block], config: &Config) {
        let samples: usize = blocks.iter().map(|b| b.latencies_ms.len()).sum();
        self.notes.push(format!("latency samples: {samples}"));
        let wanted: &[(&str, f64)] = if config.traced {
            self.set("bench.latency_samples", samples as f64);
            &[("service.latency_p99_ms", 0.99)]
        } else {
            &[("latency_p50_ms", 0.5), ("latency_p95_ms", 0.95)]
        };
        for &(name, q) in wanted {
            match blocks::latency_ms(blocks, q) {
                Ok(value) => self.set(name, value),
                // p99 is a per-layer extra, and a smoke run is not a
                // measurement: 0 when the run is too short.
                Err(short) if config.smoke || config.traced => {
                    self.set(name, 0.0);
                    self.notes.push(format!("{name}: {short}"));
                }
                Err(short) => self.problems.push(format!("{name}: {short}")),
            }
        }
    }

    /// Per-layer metrics that are medians of in-process stopwatch
    /// samples, whichever of them were taken.
    pub fn set_layer_medians(&mut self, samples: &Samples) {
        for name in [
            "lang.parse_us",
            "graph.build_psg_us",
            "graph.psg_vertices",
            "graph.contract_ratio",
            "graph.into_ppg_us",
            "mpisim.run_us",
            "mpisim.events",
            "profile.hook_us",
            "profile.save_us",
            "profile.load_us",
            "profile.image_bytes",
            "profile.samples",
            "profile.comm_edges",
            "detect.detect_us",
            "detect.root_causes",
            "core.refined_psg_us",
            "core.profile_one_scale_us",
            "core.assemble_us",
            "core.analyze_us",
            "core.span_sum_us",
            "api.encode_submit_us",
            "api.parse_result_us",
            "api.result_bytes",
            "service.submit_rtt_us",
            "service.wait_rtt_us",
            "service.result_rtt_us",
            "service.trace_coverage",
        ] {
            if !samples.get(name).is_empty() {
                self.set(name, samples.median(name));
            }
        }
        let profiled_us = samples.sum("core.profile_one_scale_us");
        if profiled_us > 0.0 {
            self.set(
                "mpisim.events_per_s",
                samples.sum("mpisim.events") / (profiled_us / 1e6),
            );
            self.set(
                "profile.hook_share",
                samples.sum("profile.hook_us") / profiled_us,
            );
        }
        let analyze_us = samples.sum("core.analyze_us");
        if analyze_us > 0.0 {
            // Two estimators of one quantity, side by side: the stages
            // run one after another, and the whole call.
            self.set(
                "core.parallel_gain",
                samples.sum("core.span_sum_us") / analyze_us,
            );
            self.notes.push(format!(
                "core.span_sum_us total {:.0} beside core.analyze_us total {:.0}",
                samples.sum("core.span_sum_us"),
                analyze_us
            ));
        }
    }

    fn listed(traced: bool) -> &'static [Metric] {
        if traced {
            &spec::PER_LAYER
        } else {
            &spec::END_TO_END
        }
    }

    fn metrics_json(&self, traced: bool) -> Result<Json, String> {
        let mut pairs = Vec::new();
        for metric in Outcome::listed(traced) {
            let value = match self.metrics.get(metric.name) {
                Some(&v) => v,
                // A layer the workload does not exercise reports 0.
                None if traced => 0.0,
                None => return Err(format!("{} was not measured", metric.name)),
            };
            pairs.push((
                metric.name,
                Json::obj(vec![
                    ("value", Json::Num(value)),
                    ("unit", metric.unit.into()),
                ]),
            ));
        }
        Ok(Json::obj(pairs))
    }

    /// The driver's result line.
    pub fn driver_line(&self, traced: bool) -> Result<String, String> {
        Ok(Json::obj(vec![
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", self.metrics_json(traced)?),
        ])
        .render())
    }

    /// Every measured metric by name and unit, for people.
    pub fn table(&self, traced: bool) -> String {
        let mut out = format!(
            "== {} ({} pass): attempted {}, failed {}, {}\n",
            self.workload,
            if traced { "traced" } else { "timed" },
            self.attempted,
            self.failed,
            if self.correct() {
                "correct"
            } else {
                "INCORRECT"
            }
        );
        for metric in Outcome::listed(traced) {
            if let Some(value) = self.metrics.get(metric.name) {
                out.push_str(&format!(
                    "  {:<32} {:>16.4} {}\n",
                    metric.name, value, metric.unit
                ));
            }
        }
        for line in self.notes.iter().chain(&self.problems) {
            out.push_str(&format!("  # {line}\n"));
        }
        out
    }
}

/// One full pass over all workloads: per workload, the measured metrics
/// of the timed and the traced pass together.
pub type RunMetrics = BTreeMap<String, BTreeMap<String, f64>>;

/// The result file: fingerprint, seed, and the metrics of every
/// repeat, so medians and quartile spreads can be taken.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultFile {
    pub fingerprint: Fingerprint,
    pub seed: u64,
    pub seconds: f64,
    pub failed: u64,
    pub runs: Vec<RunMetrics>,
}

impl ResultFile {
    pub fn to_json(&self) -> Json {
        let runs = self
            .runs
            .iter()
            .map(|run| {
                Json::Obj(
                    run.iter()
                        .map(|(workload, metrics)| {
                            let metrics = metrics
                                .iter()
                                .map(|(name, value)| (name.clone(), Json::Num(*value)))
                                .collect();
                            (workload.clone(), Json::Obj(metrics))
                        })
                        .collect(),
                )
            })
            .collect();
        Json::obj(vec![
            ("benchmark", "scalbench".into()),
            ("host", self.fingerprint.to_json()),
            ("seed", self.seed.into()),
            ("seconds", Json::Num(self.seconds)),
            ("failed", self.failed.into()),
            ("runs", Json::Arr(runs)),
        ])
    }

    pub fn from_json(doc: &Json) -> Option<ResultFile> {
        let runs = doc
            .get("runs")?
            .as_array()?
            .iter()
            .map(|run| {
                let Json::Obj(workloads) = run else {
                    return None;
                };
                workloads
                    .iter()
                    .map(|(workload, metrics)| {
                        let Json::Obj(metrics) = metrics else {
                            return None;
                        };
                        let metrics = metrics
                            .iter()
                            .map(|(name, value)| Some((name.clone(), value.as_f64()?)))
                            .collect::<Option<BTreeMap<_, _>>>()?;
                        Some((workload.clone(), metrics))
                    })
                    .collect::<Option<RunMetrics>>()
            })
            .collect::<Option<Vec<_>>>()?;
        Some(ResultFile {
            fingerprint: Fingerprint::from_json(doc.get("host")?)?,
            seed: doc.get("seed")?.as_i64()? as u64,
            seconds: doc.get("seconds")?.as_f64()?,
            failed: doc.get("failed")?.as_i64()? as u64,
            runs,
        })
    }

    /// Every value of one (workload, metric) pair across the repeats.
    pub fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter_map(|run| run.get(workload)?.get(metric).copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome::new("serve_hot");
        outcome.attempted = 10;
        for metric in &spec::END_TO_END {
            outcome.set(metric.name, 1.5);
        }
        let line = outcome.driver_line(false).unwrap();
        let doc = scalana_api::json::parse(&line).unwrap();
        let Json::Obj(pairs) = &doc else { panic!() };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!()
        };
        assert_eq!(metrics.len(), spec::END_TO_END.len());
        assert_eq!(metrics[0].1.render(), "{\"value\":1.5,\"unit\":\"s\"}");
        // The traced line lists every per-layer metric, unexercised ones as 0.
        let traced = scalana_api::json::parse(&outcome.driver_line(true).unwrap()).unwrap();
        let Some(Json::Obj(layers)) = traced.get("metrics") else {
            panic!()
        };
        assert_eq!(layers.len(), spec::PER_LAYER.len());
        // A timed pass that lacks an end-to-end metric is an error, not a 0.
        outcome.metrics.remove("setup_s");
        assert!(outcome.driver_line(false).is_err());
    }

    #[test]
    fn failed_ops_or_problems_make_a_run_incorrect() {
        let mut outcome = Outcome::new("serve_hot");
        assert!(!outcome.correct(), "nothing attempted");
        outcome.attempted = 5;
        assert!(outcome.correct());
        outcome.problems.push("executed 3, predicted 0".to_string());
        assert!(!outcome.correct());
    }

    #[test]
    fn result_file_round_trips() {
        let mut run = RunMetrics::new();
        run.entry("serve_hot".to_string())
            .or_default()
            .insert("latency_p50_ms".to_string(), 0.25);
        let file = ResultFile {
            fingerprint: Fingerprint::read(),
            seed: 1,
            seconds: 15.0,
            failed: 0,
            runs: vec![run.clone(), run],
        };
        let text = file.to_json().render();
        let back = ResultFile::from_json(&scalana_api::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, file);
        assert_eq!(back.values("serve_hot", "latency_p50_ms"), [0.25, 0.25]);
    }
}
