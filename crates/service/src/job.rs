//! Job specification, content addressing, and execution.

use crate::hash::{hash_config, hash_profile_config, StableHasher};
use crate::json::Json;
use crate::jsonify::{render_report, run_summary_to_json};
use bytes::Bytes;
use scalana_core::{assemble, pipeline, ScalAnaConfig};
use scalana_lang::{parse_program, Program};
use scalana_mpisim::MachineConfig;

/// What program a job analyzes.
#[derive(Debug, Clone)]
pub enum JobProgram {
    /// A built-in workload by Table II name (`CG`, `ZMP`, ...); runs
    /// with the app's recommended machine model.
    App(String),
    /// Inline MiniMPI source shipped by the client.
    Source {
        /// File name used in `file:line` locations.
        name: String,
        /// The program text.
        text: String,
    },
}

impl JobProgram {
    /// Feed the program identity (kind tag + name + text) to a hasher.
    pub fn hash_into(&self, h: &mut StableHasher) {
        match self {
            JobProgram::App(name) => {
                h.write_u8(0);
                h.write_str(name);
            }
            JobProgram::Source { name, text } => {
                h.write_u8(1);
                h.write_str(name);
                h.write_str(text);
            }
        }
    }

    /// Content hash of the program alone — the handle `submit
    /// --program-hash` uses to re-reference a previously uploaded
    /// program without re-sending its source.
    pub fn content_hash(&self) -> String {
        let mut h = StableHasher::new();
        self.hash_into(&mut h);
        h.hex()
    }
}

/// One analysis request: program + scales + full configuration.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The program.
    pub program: JobProgram,
    /// Ascending process counts.
    pub scales: Vec<usize>,
    /// Pipeline configuration (machine model is replaced by the app's
    /// when `program` is [`JobProgram::App`]).
    pub config: ScalAnaConfig,
}

impl JobSpec {
    /// The content address: a stable hash of everything that determines
    /// the analysis output. Identical jobs — byte-identical program,
    /// scales, and config — share a key and therefore a cache slot.
    pub fn key(&self) -> String {
        let mut h = StableHasher::new();
        self.program.hash_into(&mut h);
        h.write_usize(self.scales.len());
        for &s in &self.scales {
            h.write_usize(s);
        }
        hash_config(&mut h, &self.config);
        h.hex()
    }

    /// The scale indirect-call discovery runs at — the smallest
    /// requested scale, exactly as `scalana_core::profile_runs` picks it.
    /// Per-scale cache keys include it because the refined PSG (and
    /// therefore every profile collected over it) depends on which scale
    /// resolved the indirect calls.
    pub fn discovery_scale(&self) -> usize {
        self.scales[0]
    }

    /// Content address of the *refined PSG* this job profiles over:
    /// program + PSG options + discovery scale. Discovery simulates with
    /// a default machine/parameter setup, so nothing else contributes —
    /// in particular nothing resolution substitutes, which is what lets
    /// the executor look the PSG (and the parsed program cached with
    /// it) up before resolving anything.
    pub fn psg_key(&self) -> String {
        let mut h = StableHasher::new();
        h.write_str("psg");
        self.program.hash_into(&mut h);
        h.write_u64(u64::from(self.config.psg.max_loop_depth));
        h.write_bool(self.config.psg.contract);
        h.write_usize(self.discovery_scale());
        h.hex()
    }

    /// Content address of the profile collected at `nprocs`: program +
    /// every profile-relevant config field (`hash_profile_config` —
    /// detection knobs deliberately excluded) + discovery scale + the
    /// scale itself. Two submissions whose scale sets overlap share the
    /// cached profile image for every common scale.
    ///
    /// `resolved` must be the post-resolution config (app machine model
    /// substituted), so `App` jobs key on the machine they actually run.
    pub fn profile_key(&self, resolved: &ScalAnaConfig, nprocs: usize) -> String {
        let mut h = StableHasher::new();
        h.write_str("profile");
        self.program.hash_into(&mut h);
        hash_profile_config(&mut h, resolved);
        h.write_usize(self.discovery_scale());
        h.write_usize(nprocs);
        h.hex()
    }

    /// Resolve the program and the effective config (an [`JobProgram::App`]
    /// substitutes its recommended machine model).
    pub fn resolve(&self) -> Result<(Program, ScalAnaConfig), String> {
        match &self.program {
            JobProgram::App(name) => {
                let app = app_by_name(name)?;
                Ok((app.program, self.config_on(app.machine)))
            }
            JobProgram::Source { name, text } => {
                let program = parse_program(name, text).map_err(|e| e.to_string())?;
                Ok((program, self.config.clone()))
            }
        }
    }

    /// The config half of [`JobSpec::resolve`], for a job whose parsed
    /// program the executor already holds: source is not parsed again.
    pub fn resolve_config(&self) -> Result<ScalAnaConfig, String> {
        match &self.program {
            JobProgram::App(name) => Ok(self.config_on(app_by_name(name)?.machine)),
            JobProgram::Source { .. } => Ok(self.config.clone()),
        }
    }

    fn config_on(&self, machine: MachineConfig) -> ScalAnaConfig {
        ScalAnaConfig {
            machine,
            ..self.config.clone()
        }
    }

    /// Human-readable program label for status lines.
    pub fn label(&self) -> String {
        match &self.program {
            JobProgram::App(name) => format!("app:{name}"),
            JobProgram::Source { name, .. } => name.clone(),
        }
    }

    /// Run the full pipeline for this spec. Returns a rendered result
    /// plus one persisted profile image per scale (`ScalAna-prof`'s
    /// post-mortem artifact, served by `/jobs/<id>/profile/<nprocs>`).
    pub fn execute(&self) -> Result<JobOutput, String> {
        let (program, config) = self.resolve()?;
        let runs =
            pipeline::profile_runs(&program, &self.scales, &config).map_err(|e| e.to_string())?;
        // Persist each profile before detection consumes it — the same
        // image `ScalAna-prof` would leave on disk for `ScalAna-detect`.
        let profiles: Vec<(usize, Bytes)> = runs
            .scales
            .iter()
            .zip(&runs.profiles)
            .map(|(&nprocs, data)| (nprocs, scalana_profile::store::save(data)))
            .collect();
        let analysis = assemble(runs, &config);
        Ok(JobOutput {
            report_json: render_report(&analysis.report),
            runs_json: Json::Arr(analysis.runs.iter().map(run_summary_to_json).collect()).render(),
            detect_seconds: analysis.detect_seconds,
            profiles,
        })
    }
}

fn app_by_name(name: &str) -> Result<scalana_apps::App, String> {
    scalana_apps::by_name(name).ok_or_else(|| format!("unknown app `{name}`"))
}

/// A completed job's cached artifacts. The JSON parts are stored
/// pre-rendered: results are served many times (polling clients, cache
/// hits), so the serialization happens once at completion and each
/// request splices the canonical fragments instead of cloning and
/// re-rendering a document tree.
#[derive(Debug)]
pub struct JobOutput {
    /// Canonical JSON of the detection report (deterministic bytes).
    pub report_json: String,
    /// Canonical JSON array of per-scale run summaries (deterministic).
    pub runs_json: String,
    /// Wall-clock detection seconds (not deterministic).
    pub detect_seconds: f64,
    /// `(nprocs, profile image)` per scale, via `scalana_profile::store`.
    pub profiles: Vec<(usize, Bytes)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_spec(text: &str) -> JobSpec {
        JobSpec {
            program: JobProgram::Source {
                name: "demo.mmpi".to_string(),
                text: text.to_string(),
            },
            scales: vec![2, 4],
            config: ScalAnaConfig::default(),
        }
    }

    const DEMO: &str = "fn main() { comp(cycles = 100_000); allreduce(bytes = 8); }";

    #[test]
    fn key_is_content_addressed() {
        let spec = demo_spec(DEMO);
        assert_eq!(spec.key(), demo_spec(DEMO).key());
        assert_eq!(spec.key().len(), 16);

        let mut other_scales = demo_spec(DEMO);
        other_scales.scales = vec![2, 4, 8];
        assert_ne!(spec.key(), other_scales.key());

        let other_text = demo_spec("fn main() { comp(cycles = 1); }");
        assert_ne!(spec.key(), other_text.key());

        let app = JobSpec {
            program: JobProgram::App("CG".to_string()),
            scales: vec![2, 4],
            config: ScalAnaConfig::default(),
        };
        assert_ne!(spec.key(), app.key());
    }

    #[test]
    fn profile_key_ignores_detection_and_other_scales() {
        let spec = demo_spec(DEMO);
        let (_, resolved) = spec.resolve().unwrap();

        // Detection knobs change the job key but not any profile key.
        let mut tweaked = demo_spec(DEMO);
        tweaked.config.detect.top_k = 99;
        let (_, tweaked_resolved) = tweaked.resolve().unwrap();
        assert_ne!(spec.key(), tweaked.key());
        assert_eq!(
            spec.profile_key(&resolved, 4),
            tweaked.profile_key(&tweaked_resolved, 4)
        );
        assert_eq!(spec.psg_key(), tweaked.psg_key());

        // Adding a larger scale keeps the discovery scale, so existing
        // profiles stay addressable; changing the smallest scale does not.
        let mut wider = demo_spec(DEMO);
        wider.scales = vec![2, 4, 8];
        assert_eq!(
            spec.profile_key(&resolved, 4),
            wider.profile_key(&resolved, 4)
        );
        let mut shifted = demo_spec(DEMO);
        shifted.scales = vec![4, 8];
        assert_ne!(
            spec.profile_key(&resolved, 4),
            shifted.profile_key(&resolved, 4)
        );

        // Different scales produce different keys; params matter.
        assert_ne!(
            spec.profile_key(&resolved, 2),
            spec.profile_key(&resolved, 4)
        );
        let mut with_param = demo_spec(DEMO);
        with_param.config.params.insert("N".to_string(), 7);
        let (_, param_resolved) = with_param.resolve().unwrap();
        assert_ne!(
            spec.profile_key(&resolved, 4),
            with_param.profile_key(&param_resolved, 4)
        );
    }

    #[test]
    fn program_content_hash_is_stable() {
        let a = demo_spec(DEMO).program.content_hash();
        let b = demo_spec(DEMO).program.content_hash();
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        assert_ne!(
            a,
            JobProgram::App("CG".to_string()).content_hash(),
            "different programs, different handles"
        );
    }

    #[test]
    fn execute_produces_report_and_profiles() {
        let out = demo_spec(DEMO).execute().unwrap();
        let report = crate::json::parse(&out.report_json).unwrap();
        assert!(report.get("root_causes").is_some());
        let runs = crate::json::parse(&out.runs_json).unwrap();
        assert_eq!(runs.as_array().unwrap().len(), 2);
        assert_eq!(out.profiles.len(), 2);
        let (nprocs, image) = &out.profiles[0];
        assert_eq!(*nprocs, 2);
        let loaded = scalana_profile::store::load(image.clone()).unwrap();
        assert_eq!(loaded.nprocs, 2);
    }

    #[test]
    fn execute_rejects_unknown_app_and_bad_source() {
        let mut spec = demo_spec(DEMO);
        spec.program = JobProgram::App("NOPE".to_string());
        assert!(spec.execute().unwrap_err().contains("unknown app"));

        let bad = demo_spec("fn main( {");
        assert!(bad.execute().is_err());
    }
}
