//! The end-to-end analysis pipeline.

use crossbeam::thread;
use scalana_apps::App;
use scalana_detect::{detect, DetectConfig, DetectionReport};
use scalana_graph::{build_psg, Ppg, Psg, PsgOptions};
use scalana_lang::Program;
use scalana_mpisim::{ChainHook, Hook, MachineConfig, NullHook, SimConfig, SimError, Simulation};
use scalana_profile::recorder::{
    discover_indirect_calls, discover_indirect_calls_traced, replay_indirect_calls, DiscoveryRound,
};
use scalana_profile::{ProfileData, ProfilerConfig, ScalAnaProfiler};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Configuration of one full analysis.
#[derive(Debug, Clone, Default)]
pub struct ScalAnaConfig {
    /// Static-analysis knobs (`MaxLoopDepth`, contraction).
    pub psg: PsgOptions,
    /// Profiler knobs (sampling frequency, compression, ...).
    pub profiler: ProfilerConfig,
    /// Detection knobs (`AbnormThd`, aggregation, pruning).
    pub detect: DetectConfig,
    /// Platform model (overridden by [`analyze_app`] with the app's).
    pub machine: MachineConfig,
    /// Program-parameter overrides applied to every run.
    pub params: HashMap<String, i64>,
}

/// Summary of one profiled run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Process count.
    pub nprocs: usize,
    /// End-to-end virtual time (with the profiler attached).
    pub total_time: f64,
    /// Profiler storage bytes.
    pub storage_bytes: u64,
    /// Timer samples taken.
    pub sample_count: u64,
    /// Aggregated communication-dependence edges.
    pub comm_edges: usize,
}

impl RunSummary {
    /// Summarize one collected profile.
    pub fn of_profile(nprocs: usize, data: &ProfileData) -> RunSummary {
        RunSummary {
            nprocs,
            total_time: data.rank_elapsed.iter().copied().fold(0.0, f64::max),
            storage_bytes: data.storage_bytes,
            sample_count: data.sample_count,
            comm_edges: data.comm_edge_count(),
        }
    }
}

/// Output of the profiling stage (`ScalAna-prof`, workflow steps 1–2):
/// the indirect-call-refined PSG plus one collected profile per scale.
///
/// This is the artifact the real tool persists between its profiling and
/// detection processes (`scalana_profile::store` serializes each profile
/// to a self-contained image); `scalana-service` keeps the images in its
/// content-addressed cache and serves them per job.
#[derive(Debug)]
pub struct ProfiledRuns {
    /// The (indirect-call-refined) PSG.
    pub psg: Arc<Psg>,
    /// Ascending process counts, parallel to `profiles`.
    pub scales: Vec<usize>,
    /// One collected profile per scale.
    pub profiles: Vec<ProfileData>,
}

/// Everything one analysis produces.
#[derive(Debug)]
pub struct Analysis {
    /// The (indirect-call-refined) PSG.
    pub psg: Arc<Psg>,
    /// Per-scale run summaries (ascending process counts).
    pub runs: Vec<RunSummary>,
    /// Per-scale PPGs.
    pub ppgs: Vec<Ppg>,
    /// The detection report.
    pub report: DetectionReport,
    /// Wall-clock seconds the post-mortem detection took (Table IV).
    pub detect_seconds: f64,
}

/// `ScalAna-static` plus indirect-call discovery: build the PSG and
/// refine it with one small discovery run at `discovery_scale` (none
/// when the program has no `call` through a function pointer).
///
/// The result depends only on the program, the PSG options, and the
/// discovery scale (the discovery simulation runs with a default
/// machine/parameter configuration), which is what makes refined PSGs
/// reusable across analyses that share a smallest scale.
pub fn refined_psg(
    program: &Program,
    config: &ScalAnaConfig,
    discovery_scale: usize,
) -> Result<Psg, SimError> {
    let mut psg = build_psg(program, &config.psg);
    discover_indirect_calls(program, &mut psg, discovery_scale)?;
    Ok(psg)
}

/// [`refined_psg`], additionally returning the discovery trace: each
/// round's `(context, statement, callee)` resolutions in application
/// order. Feeding the trace to [`replay_refined_psg`] rebuilds the
/// identical refined PSG without running the discovery simulation —
/// the service persists these traces so a restarted daemon skips
/// discovery entirely.
pub fn refined_psg_traced(
    program: &Program,
    config: &ScalAnaConfig,
    discovery_scale: usize,
) -> Result<(Psg, Vec<DiscoveryRound>), SimError> {
    let mut psg = build_psg(program, &config.psg);
    let (_, trace) = discover_indirect_calls_traced(program, &mut psg, discovery_scale)?;
    Ok((psg, trace))
}

/// Rebuild a refined PSG from a recorded discovery trace: build the
/// static PSG and replay the recorded resolution rounds in order.
/// Context ids are allocation-ordered, so the result is structurally
/// identical to the PSG the trace was recorded from. Zero simulation.
pub fn replay_refined_psg(
    program: &Program,
    config: &ScalAnaConfig,
    trace: &[DiscoveryRound],
) -> Psg {
    let mut psg = build_psg(program, &config.psg);
    replay_indirect_calls(&mut psg, trace);
    psg
}

/// One profiled run (`ScalAna-prof` at a single process count): an
/// instrumented simulation over an already-refined PSG.
///
/// The output is a pure function of `(program, psg, profiler, machine,
/// params, nprocs)` — it does not depend on which other scales the
/// surrounding analysis requests — so callers (notably the service's
/// per-scale profile cache) may profile each scale independently, mix
/// freshly simulated and previously persisted [`ProfileData`], and still
/// assemble byte-identical reports.
pub fn profile_one_scale(
    program: &Program,
    psg: &Psg,
    config: &ScalAnaConfig,
    nprocs: usize,
) -> Result<ProfileData, SimError> {
    profile_one_scale_observed(program, psg, config, nprocs, &mut NullHook)
}

/// [`profile_one_scale`] with an extra observer hook chained after the
/// profiler, for callers that watch the simulation (event rates, wall
/// time) without participating in it.
///
/// The observer's callbacks must return `0.0` virtual-time cost —
/// anything else would perturb the rank clocks and break the
/// byte-identical-profiles guarantee documented on
/// [`profile_one_scale`]. The profile returned is exactly what the
/// unobserved call produces.
///
/// Generic over the observer (not `&mut dyn Hook`) so the simulator is
/// compiled for this exact profiler + observer chain: both tools'
/// callbacks inline into the interpreter loop and no event pays a
/// virtual call. The unobserved [`profile_one_scale`] is this same body
/// with a [`NullHook`] observer.
pub fn profile_one_scale_observed<H: Hook>(
    program: &Program,
    psg: &Psg,
    config: &ScalAnaConfig,
    nprocs: usize,
    observer: &mut H,
) -> Result<ProfileData, SimError> {
    let machine = Arc::new(config.machine.clone());
    profile_one_scale_on(program, psg, config, &machine, nprocs, observer)
}

/// The one profiled-run body: the profiler plus `observer`, with the
/// platform model already behind an `Arc` so multi-scale callers share
/// one copy across their runs.
fn profile_one_scale_on<H: Hook>(
    program: &Program,
    psg: &Psg,
    config: &ScalAnaConfig,
    machine: &Arc<MachineConfig>,
    nprocs: usize,
    observer: &mut H,
) -> Result<ProfileData, SimError> {
    let mut sim_config = SimConfig::with_nprocs(nprocs);
    sim_config.machine = Arc::clone(machine);
    sim_config.params = config.params.clone();
    let mut profiler = ScalAnaProfiler::new(config.profiler.clone());
    let mut chained = ChainHook(&mut profiler, observer);
    Simulation::new(program, psg, sim_config)
        .with_hook(&mut chained)
        .run()
        .map(|_| profiler.take_data())
}

/// Profiling stage (`ScalAna-prof`): build the PSG, resolve indirect
/// calls at the smallest scale, then run one instrumented simulation per
/// scale in parallel over the now-immutable PSG.
pub fn profile_runs(
    program: &Program,
    scales: &[usize],
    config: &ScalAnaConfig,
) -> Result<ProfiledRuns, SimError> {
    assert!(!scales.is_empty(), "need at least one scale");
    // Steps 1 + 2a: ScalAna-static, then indirect-call discovery at the
    // smallest scale.
    let psg = Arc::new(refined_psg(program, config, scales[0])?);

    // Step 2b: profiled runs, one per scale, in parallel (each is an
    // independent [`profile_one_scale`] over the now-immutable PSG). The
    // platform model is shared behind one `Arc` — no per-run deep copy.
    // The last (largest, slowest) scale runs on the calling thread, so a
    // single-scale analysis spawns nothing.
    let machine = Arc::new(config.machine.clone());
    let mut profiles: Vec<Option<Result<ProfileData, SimError>>> =
        (0..scales.len()).map(|_| None).collect();
    let run = |nprocs| profile_one_scale_on(program, &psg, config, &machine, nprocs, &mut NullHook);
    thread::scope(|scope| {
        let mut slots = profiles.iter_mut().zip(scales);
        let last = slots.next_back().expect("at least one scale");
        for (slot, &nprocs) in slots {
            scope.spawn(move |_| *slot = Some(run(nprocs)));
        }
        *last.0 = Some(run(*last.1));
    })
    .expect("scale-run threads do not panic");

    let profiles = profiles
        .into_iter()
        .map(|slot| slot.expect("thread filled its slot"))
        .collect::<Result<Vec<ProfileData>, SimError>>()?;
    Ok(ProfiledRuns {
        psg,
        scales: scales.to_vec(),
        profiles,
    })
}

/// One profiled scale as detection consumes it: the run summary and
/// the assembled PPG. The single constructor behind both [`assemble`]
/// and the service's cached path, so the two cannot drift apart.
pub fn scale_ppg(psg: &Arc<Psg>, nprocs: usize, data: ProfileData) -> (RunSummary, Ppg) {
    let summary = RunSummary::of_profile(nprocs, &data);
    (summary, data.into_ppg(Arc::clone(psg)))
}

/// Detection stage (`ScalAna-detect`): assemble one PPG per profiled
/// scale and run non-scalable/abnormal detection plus backtracking.
/// Runs post-mortem — the profiles may come straight from
/// [`profile_runs`] or be reloaded from persisted images.
pub fn assemble(runs: ProfiledRuns, config: &ScalAnaConfig) -> Analysis {
    let ProfiledRuns {
        psg,
        scales,
        profiles,
    } = runs;
    // PPG assembly is microseconds per scale — far below the cost of a
    // thread — so it runs right here.
    let (summaries, ppgs): (Vec<RunSummary>, Vec<Ppg>) = profiles
        .into_iter()
        .zip(&scales)
        .map(|(data, &nprocs)| scale_ppg(&psg, nprocs, data))
        .unzip();

    // Step 3: ScalAna-detect (timed for Table IV).
    let started = Instant::now();
    let refs: Vec<&Ppg> = ppgs.iter().collect();
    let report = detect(&refs, &config.detect);
    let detect_seconds = started.elapsed().as_secs_f64();

    Analysis {
        psg,
        runs: summaries,
        ppgs,
        report,
        detect_seconds,
    }
}

/// Run the full pipeline on a program over ascending process counts.
///
/// Thin wrapper over [`Analysis::builder`] — the fluent API is the
/// primary entry point; this positional form is kept for existing
/// callers and produces byte-identical output.
pub fn analyze(
    program: &Program,
    scales: &[usize],
    config: &ScalAnaConfig,
) -> Result<Analysis, SimError> {
    Analysis::builder(program)
        .config(config.clone())
        .scales(scales.iter().copied())
        .run()
}

/// Analyze an [`App`] using its recommended platform model.
///
/// Thin wrapper over [`Analysis::builder`] with an app target (which
/// substitutes the app's machine model, exactly as this function
/// always did).
pub fn analyze_app(
    app: &App,
    scales: &[usize],
    config: &ScalAnaConfig,
) -> Result<Analysis, SimError> {
    Analysis::builder(app)
        .config(config.clone())
        .scales(scales.iter().copied())
        .run()
}

/// Uninstrumented speedups over ascending scales (first scale is the
/// baseline) — the §VI-D before/after-fix curves.
///
/// Indirect calls are resolved first (at the smallest scale, exactly as
/// [`profile_runs`] does), so the curves simulate over the same refined
/// PSG as the analysis they are compared against.
pub fn speedup_curve(
    program: &Program,
    scales: &[usize],
    config: &ScalAnaConfig,
) -> Result<Vec<(usize, f64)>, SimError> {
    assert!(!scales.is_empty(), "need at least one scale");
    let mut psg = build_psg(program, &config.psg);
    discover_indirect_calls(program, &mut psg, scales[0])?;
    let machine = Arc::new(config.machine.clone());
    let mut times = Vec::with_capacity(scales.len());
    for &nprocs in scales {
        let mut sim_config = SimConfig::with_nprocs(nprocs);
        sim_config.machine = Arc::clone(&machine);
        sim_config.params = config.params.clone();
        let total = Simulation::new(program, &psg, sim_config)
            .run()?
            .total_time();
        times.push((nprocs, total));
    }
    let baseline = times[0].1;
    Ok(times.into_iter().map(|(p, t)| (p, baseline / t)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalana_apps::{cg, zeusmp, CgOptions};

    #[test]
    fn analyze_produces_runs_ppgs_and_report() {
        let app = cg::build(&CgOptions {
            na: 20_000,
            iterations: 3,
            delay_rank: None,
        });
        let analysis = analyze_app(&app, &[2, 4, 8], &ScalAnaConfig::default()).unwrap();
        assert_eq!(analysis.runs.len(), 3);
        assert_eq!(analysis.ppgs.len(), 3);
        assert!(analysis.runs.iter().all(|r| r.total_time > 0.0));
        assert!(analysis.runs.iter().all(|r| r.storage_bytes > 0));
        assert!(analysis.detect_seconds >= 0.0);
    }

    #[test]
    fn zeusmp_analysis_finds_paper_root_cause() {
        let app = zeusmp::build(false);
        let analysis = analyze_app(&app, &[4, 8, 16, 32], &ScalAnaConfig::default()).unwrap();
        assert!(
            analysis.report.found_at("bval3d.F:155"),
            "expected bval3d.F:155 in:\n{}",
            analysis.report.render()
        );
    }

    #[test]
    fn staged_profile_then_assemble_matches_analyze() {
        let app = cg::build(&CgOptions {
            na: 20_000,
            iterations: 3,
            delay_rank: None,
        });
        let config = ScalAnaConfig {
            machine: app.machine.clone(),
            ..ScalAnaConfig::default()
        };
        let runs = profile_runs(&app.program, &[2, 4], &config).unwrap();
        assert_eq!(runs.scales, vec![2, 4]);
        assert_eq!(runs.profiles.len(), 2);
        let staged = assemble(runs, &config);
        let direct = analyze(&app.program, &[2, 4], &config).unwrap();
        assert_eq!(staged.report.render(), direct.report.render());
        assert_eq!(staged.runs.len(), direct.runs.len());
    }

    #[test]
    fn independently_profiled_scales_assemble_byte_identical() {
        // The service's per-scale cache relies on this: profiling each
        // scale on its own (against the same refined PSG) and assembling
        // the mix must reproduce the cold `analyze` output exactly.
        let app = cg::build(&CgOptions {
            na: 20_000,
            iterations: 3,
            delay_rank: None,
        });
        let config = ScalAnaConfig {
            machine: app.machine.clone(),
            ..ScalAnaConfig::default()
        };
        let scales = [2usize, 4, 8];
        let psg = Arc::new(refined_psg(&app.program, &config, scales[0]).unwrap());
        // Deliberately out of order — each profile is independent.
        let p8 = profile_one_scale(&app.program, &psg, &config, 8).unwrap();
        let p2 = profile_one_scale(&app.program, &psg, &config, 2).unwrap();
        let p4 = profile_one_scale(&app.program, &psg, &config, 4).unwrap();
        let staged = assemble(
            ProfiledRuns {
                psg,
                scales: scales.to_vec(),
                profiles: vec![p2, p4, p8],
            },
            &config,
        );
        let direct = analyze(&app.program, &scales, &config).unwrap();
        assert_eq!(staged.report.render(), direct.report.render());
        for (a, b) in staged.ppgs.iter().zip(&direct.ppgs) {
            assert_eq!(a.nprocs, b.nprocs);
            assert_eq!(a.rank_elapsed, b.rank_elapsed);
        }
    }

    /// Every rank receives from its right neighbour, and nobody sends.
    const DEADLOCK: &str = "fn main() { recv(src = (rank + 1) % nprocs, tag = 0); }";

    #[test]
    fn no_indirect_call_means_no_discovery_run() {
        // Simulating this program deadlocks, so an `Ok` proves discovery
        // never ran; the trace is what one empty round records.
        let program = scalana_lang::parse_program("t.mmpi", DEADLOCK).unwrap();
        let (psg, trace) = refined_psg_traced(&program, &ScalAnaConfig::default(), 2).unwrap();
        assert_eq!(trace, vec![Vec::new()]);
        assert_eq!(
            psg.vertex_count(),
            build_psg(&program, &PsgOptions::default()).vertex_count()
        );
    }

    #[test]
    fn a_deadlock_still_fails_the_analysis() {
        let program = scalana_lang::parse_program("t.mmpi", DEADLOCK).unwrap();
        let result = analyze(&program, &[2, 4], &ScalAnaConfig::default());
        assert!(
            matches!(result, Err(SimError::Deadlock { .. })),
            "{:?}",
            result.map(|a| a.runs.len())
        );
    }

    #[test]
    fn speedup_curve_is_baselined_at_one() {
        let app = cg::build(&CgOptions {
            na: 30_000,
            iterations: 3,
            delay_rank: None,
        });
        let curve = speedup_curve(&app.program, &[2, 4, 8], &ScalAnaConfig::default()).unwrap();
        assert_eq!(curve[0], (2, 1.0));
        assert!(curve[2].1 > curve[1].1, "speedup grows: {curve:?}");
    }
}
