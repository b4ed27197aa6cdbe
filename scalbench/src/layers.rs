//! The pipeline taken apart from outside: every public stage called on
//! its own with a stopwatch (a span) around it, and the in-process
//! reference that daemon responses are checked against.
//!
//! The decomposed run must produce the report bytes `analyze` produces;
//! callers compare the two.

use crate::trace::Recorder;
use scalana_core::{
    analyze, assemble, profile_one_scale_observed, refined_psg, Analysis, ProfiledRuns,
    ScalAnaConfig,
};
use scalana_detect::detect;
use scalana_graph::{build_psg, Ppg};
use scalana_lang::{parse_program, Program};
use scalana_mpisim::{
    CommDepEvent, CompEvent, Hook, IndirectCallEvent, MpiEnterEvent, MpiExitEvent, SimConfig,
    Simulation,
};
use scalana_profile::store::{load, save};
use scalana_service::analysis_to_json;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Named sample lists; a metric is read off one as a median or a sum.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn median(&self, name: &str) -> f64 {
        crate::stats::median(self.get(name))
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.get(name).iter().sum()
    }

    pub fn extend(&mut self, other: Samples) {
        for (name, values) in other.0 {
            self.0.entry(name).or_default().extend(values);
        }
    }
}

/// The two deterministic members of an analysis document, rendered.
/// (`detect_seconds` is wall-clock and is left out of every comparison.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportBytes {
    pub report: String,
    pub runs: String,
}

impl ReportBytes {
    pub fn of(analysis: &Analysis) -> ReportBytes {
        let doc = analysis_to_json(analysis);
        let member = |key: &str| doc.get(key).expect("analysis document member").render();
        ReportBytes {
            report: member("report"),
            runs: member("runs"),
        }
    }
}

/// One analysis input: a checked program, its source text (for the
/// parse stopwatch), the scales and the full configuration.
pub struct Input<'a> {
    pub file_name: &'a str,
    pub source: &'a str,
    pub program: &'a Program,
    pub scales: &'a [usize],
    pub config: &'a ScalAnaConfig,
}

/// Counts simulator events; costs no virtual time, so profiles stay
/// byte-identical to unobserved ones.
#[derive(Default)]
struct EventCounter(u64);

impl Hook for EventCounter {
    fn on_comp(&mut self, _: &CompEvent) -> f64 {
        self.0 += 1;
        0.0
    }
    fn on_mpi_enter(&mut self, _: &MpiEnterEvent) -> f64 {
        self.0 += 1;
        0.0
    }
    fn on_mpi_exit(&mut self, _: &MpiExitEvent) -> f64 {
        self.0 += 1;
        0.0
    }
    fn on_comm_dep(&mut self, _: &CommDepEvent) -> f64 {
        self.0 += 1;
        0.0
    }
    fn on_indirect_call(&mut self, _: &IndirectCallEvent) -> f64 {
        self.0 += 1;
        0.0
    }
}

/// Run one analysis stage by stage, recording a span per stage under a
/// new op span and a sample per layer metric (times in µs).
pub fn decompose(
    input: &Input<'_>,
    op_id: u64,
    rec: &mut Recorder,
    samples: &mut Samples,
) -> Result<Analysis, String> {
    let us = |ns: u64| ns as f64 / 1e3;
    let Input {
        program,
        scales,
        config,
        ..
    } = *input;
    let op = rec.open("op", op_id, None);
    let parent = Some(op);

    let (parsed, ns) = rec.time("lang.parse", op_id, parent, || {
        parse_program(input.file_name, input.source)
    });
    parsed.map_err(|e| format!("{}: {e}", input.file_name))?;
    samples.push("lang.parse_us", us(ns));

    let (static_psg, ns) = rec.time("graph.build_psg", op_id, parent, || {
        build_psg(program, &config.psg)
    });
    samples.push("graph.build_psg_us", us(ns));
    samples.push("graph.psg_vertices", static_psg.stats.vac as f64);
    samples.push("graph.contract_ratio", static_psg.stats.reduction());

    let (psg, refined_ns) = rec.time("core.refined_psg", op_id, parent, || {
        refined_psg(program, config, scales[0])
    });
    let psg = Arc::new(psg.map_err(|e| e.to_string())?);
    samples.push("core.refined_psg_us", us(refined_ns));

    let machine = Arc::new(config.machine.clone());
    let mut span_sum_ns = refined_ns;
    let mut events = 0;
    let mut profiles = Vec::with_capacity(scales.len());
    for (index, &nprocs) in scales.iter().enumerate() {
        let bare = |rec: &mut Recorder| {
            let mut sim = SimConfig::with_nprocs(nprocs);
            sim.machine = Arc::clone(&machine);
            sim.params = config.params.clone();
            rec.time("mpisim.run", op_id, parent, || {
                Simulation::new(program, &psg, sim).run().map(|_| ())
            })
        };
        let mut counter = EventCounter::default();
        let mut profiled = |rec: &mut Recorder| {
            rec.time("core.profile_one_scale", op_id, parent, || {
                profile_one_scale_observed(program, &psg, config, nprocs, &mut counter)
            })
        };
        // The second of two runs over the same PSG finds it in cache;
        // alternate which goes first so neither side keeps the benefit.
        let ((ran, bare_ns), (profile, profile_ns)) = if index % 2 == 0 {
            let first = bare(rec);
            (first, profiled(rec))
        } else {
            let first = profiled(rec);
            (bare(rec), first)
        };
        ran.map_err(|e| e.to_string())?;
        profiles.push(profile.map_err(|e| e.to_string())?);
        events += counter.0;
        span_sum_ns += profile_ns;
        samples.push("mpisim.run_us", us(bare_ns));
        samples.push("core.profile_one_scale_us", us(profile_ns));
        samples.push("profile.hook_us", us(profile_ns) - us(bare_ns));
    }
    samples.push("mpisim.events", events as f64);

    let mut loaded = Vec::with_capacity(profiles.len());
    let mut image_bytes = 0;
    for profile in &profiles {
        let (image, ns) = rec.time("profile.save", op_id, parent, || save(profile));
        samples.push("profile.save_us", us(ns));
        samples.push("profile.image_bytes", image.len() as f64);
        samples.push("profile.samples", profile.sample_count as f64);
        samples.push("profile.comm_edges", profile.comm_edge_count() as f64);
        image_bytes += image.len();
        let (data, ns) = rec.time("profile.load", op_id, parent, || load(image));
        samples.push("profile.load_us", us(ns));
        loaded.push(data.map_err(|e| format!("profile image does not load: {e:?}"))?);
    }
    samples.push("profile.image_total_bytes", image_bytes as f64);

    // `assemble` builds the PPGs and runs detection inside one call; to
    // put a stopwatch on each they are also run here on their own.
    let mut ppgs: Vec<Ppg> = Vec::with_capacity(loaded.len());
    for data in &loaded {
        let copy = data.clone();
        let (ppg, ns) = rec.time("graph.into_ppg", op_id, parent, || {
            copy.into_ppg(Arc::clone(&psg))
        });
        samples.push("graph.into_ppg_us", us(ns));
        ppgs.push(ppg);
    }
    let refs: Vec<&Ppg> = ppgs.iter().collect();
    let (report, ns) = rec.time("detect.detect", op_id, parent, || {
        detect(&refs, &config.detect)
    });
    samples.push("detect.detect_us", us(ns));
    samples.push("detect.root_causes", report.root_causes.len() as f64);

    let runs = ProfiledRuns {
        psg,
        scales: scales.to_vec(),
        profiles: loaded,
    };
    let (analysis, assemble_ns) =
        rec.time("core.assemble", op_id, parent, || assemble(runs, config));
    samples.push("core.assemble_us", us(assemble_ns));
    span_sum_ns += assemble_ns;
    samples.push("core.span_sum_us", us(span_sum_ns));
    rec.close(op);
    Ok(analysis)
}

/// The in-process reference for one daemon job: parse the submitted
/// source and analyze it under the daemon's default configuration with
/// the job's threshold laid over it, as the daemon resolves a request.
pub fn reference(job: &crate::jobs::Job) -> Result<ReportBytes, String> {
    let (program, config) = resolve(job)?;
    analyze(&program, &job.scales, &config)
        .map(|analysis| ReportBytes::of(&analysis))
        .map_err(|e| e.to_string())
}

/// A job's checked program and effective configuration.
pub fn resolve(job: &crate::jobs::Job) -> Result<(Program, ScalAnaConfig), String> {
    let program = parse_program(&job.name, &job.text).map_err(|e| format!("{}: {e}", job.name))?;
    let mut config = ScalAnaConfig::default();
    if let Some(thd) = job.abnorm_thd {
        config.detect.abnorm_thd = thd;
    }
    Ok((program, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalana_core::analyze_app;
    use std::time::Instant;

    /// The traced pipeline_cold pass in small: two apps, one pass, and
    /// the decomposed pipeline must give `analyze_app`'s bytes.
    #[test]
    fn decomposed_pipeline_reproduces_analyze_app_bytes() {
        let mut rec = Recorder::new(Instant::now());
        let mut samples = Samples::default();
        for (op_id, name) in ["CG", "ZMP"].into_iter().enumerate() {
            let app = scalana_apps::all_apps()
                .into_iter()
                .find(|a| a.name == name)
                .unwrap();
            let scales = [4, 8, 16];
            let config = ScalAnaConfig {
                machine: app.machine.clone(),
                ..ScalAnaConfig::default()
            };
            let source = app.source();
            let input = Input {
                file_name: "smoke.mmpi",
                source: &source,
                program: &app.program,
                scales: &scales,
                config: &config,
            };
            let staged = decompose(&input, op_id as u64, &mut rec, &mut samples).unwrap();
            let direct = analyze_app(&app, &scales, &ScalAnaConfig::default()).unwrap();
            assert_eq!(ReportBytes::of(&staged), ReportBytes::of(&direct), "{name}");
        }
        assert_eq!(samples.get("lang.parse_us").len(), 2);
        assert_eq!(samples.get("core.profile_one_scale_us").len(), 6);
        assert_eq!(samples.get("mpisim.run_us").len(), 6);
        assert!(samples.median("mpisim.events") > 0.0);
        assert!(samples.sum("profile.image_total_bytes") > 0.0);
        // Every stage span hangs off its op span.
        assert_eq!(rec.spans.iter().filter(|s| s.name == "op").count(), 2);
        assert!(rec
            .spans
            .iter()
            .all(|s| s.name == "op" || s.parent.is_some()));
    }
}
