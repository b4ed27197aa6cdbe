//! Integration tests of the tool-comparison machinery (Table I,
//! Fig. 10/11 claims) and baseline tool behaviour.

use scalana_graph::{build_psg, PsgOptions, VertexKind};
use scalana_mpisim::{Hook, SimConfig, SimResult, Simulation};
use scalana_profile::overhead::ToolKind;
use scalana_profile::{
    measure_overhead, FlatConfig, FlatProfilerHook, ProfileData, ProfilerConfig, ScalAnaProfiler,
    TracerConfig,
};
use std::sync::Arc;

fn cg_app() -> scalana_apps::App {
    scalana_apps::cg::build(&scalana_apps::CgOptions {
        na: 60_000,
        iterations: 10,
        delay_rank: None,
    })
}

/// Table I shape on CG: storage ordering tracing > profiling > ScalAna
/// and overhead ordering tracing > ScalAna.
#[test]
fn table1_shape_holds_on_cg() {
    let app = cg_app();
    let psg = build_psg(&app.program, &PsgOptions::default());
    let tools = vec![
        ToolKind::Tracer(TracerConfig::default()),
        ToolKind::Flat(FlatConfig {
            per_rank_metadata: 2048,
            ..FlatConfig::default()
        }),
        ToolKind::ScalAna(ProfilerConfig::default()),
    ];
    let report = measure_overhead(&app.program, &psg, &SimConfig::with_nprocs(64), &tools).unwrap();
    let tracer = report.tool("Scalasca-like tracer").unwrap();
    let flat = report.tool("HPCToolkit-like profiler").unwrap();
    let scalana = report.tool("ScalAna").unwrap();
    assert!(tracer.storage_bytes > flat.storage_bytes);
    assert!(flat.storage_bytes > scalana.storage_bytes);
    assert!(tracer.overhead_pct > scalana.overhead_pct);
}

/// ScalAna's storage scales with vertices × ranks, not with events:
/// doubling the iteration count must not double the profile.
#[test]
fn scalana_storage_independent_of_run_length() {
    let measure = |iterations| {
        let app = scalana_apps::cg::build(&scalana_apps::CgOptions {
            na: 60_000,
            iterations,
            delay_rank: None,
        });
        let psg = build_psg(&app.program, &PsgOptions::default());
        let mut hook = scalana_profile::ScalAnaProfiler::with_defaults();
        Simulation::new(&app.program, &psg, SimConfig::with_nprocs(16))
            .with_hook(&mut hook)
            .run()
            .unwrap();
        hook.take_data().storage_bytes
    };
    let short = measure(5);
    let long = measure(20);
    assert!(
        (long as f64) < (short as f64) * 1.3,
        "4x iterations should barely grow the profile: {short} -> {long}"
    );
}

/// The tracer's storage, in contrast, grows linearly with run length.
#[test]
fn tracer_storage_grows_with_run_length() {
    let measure = |iterations| {
        let app = scalana_apps::cg::build(&scalana_apps::CgOptions {
            na: 60_000,
            iterations,
            delay_rank: None,
        });
        let psg = build_psg(&app.program, &PsgOptions::default());
        let mut hook = scalana_profile::TracerHook::with_defaults();
        Simulation::new(&app.program, &psg, SimConfig::with_nprocs(16))
            .with_hook(&mut hook)
            .run()
            .unwrap();
        hook.storage_bytes()
    };
    let short = measure(5);
    let long = measure(20);
    assert!(
        long as f64 > short as f64 * 3.0,
        "4x iterations ≈ 4x trace: {short} -> {long}"
    );
}

/// The flat profiler localizes the hot MPI symptom but (structurally)
/// cannot produce the causal chain — its output has no dependence
/// information at all.
#[test]
fn flat_profiler_sees_symptom_without_causality() {
    let app = scalana_apps::zeusmp::build(false);
    let psg = build_psg(&app.program, &PsgOptions::default());
    let mut flat = FlatProfilerHook::new(FlatConfig {
        sampling_hz: 50_000.0,
        ..FlatConfig::default()
    });
    Simulation::new(&app.program, &psg, SimConfig::with_nprocs(16))
        .with_hook(&mut flat)
        .run()
        .unwrap();
    let spots = flat.hot_spots(8);
    // The waitall/allreduce symptoms and the hsmoc loops are hot...
    assert!(
        spots.iter().any(|s| psg.vertex(s.vertex).is_mpi()),
        "MPI wait shows up as hot: {spots:?}"
    );
    assert!(
        spots
            .iter()
            .any(|s| psg.vertex(s.vertex).kind == VertexKind::Comp),
        "compute shows up as hot"
    );
    // ...but nothing in the output connects them (no edges, no paths) —
    // the "significant human effort" gap the paper describes.
}

/// Deterministic workloads: measuring twice gives identical numbers.
#[test]
fn overhead_measurement_is_deterministic() {
    let app = cg_app();
    let psg = build_psg(&app.program, &PsgOptions::default());
    let tools = vec![ToolKind::ScalAna(ProfilerConfig::default())];
    let a = measure_overhead(&app.program, &psg, &SimConfig::with_nprocs(8), &tools).unwrap();
    let b = measure_overhead(&app.program, &psg, &SimConfig::with_nprocs(8), &tools).unwrap();
    assert_eq!(a.baseline, b.baseline);
    assert_eq!(a.tools[0].elapsed, b.tools[0].elapsed);
    assert_eq!(a.tools[0].storage_bytes, b.tools[0].storage_bytes);
}

/// `result` as integers, floats by their bit patterns.
fn sim_bits(result: &SimResult) -> Vec<u64> {
    let mut out = vec![result.nprocs as u64];
    out.extend(result.rank_elapsed.iter().map(|t| t.to_bits()));
    for p in &result.rank_pmu {
        out.extend([p.tot_ins, p.tot_cyc, p.lst_ins, p.l2_miss, p.br_miss].map(f64::to_bits));
    }
    out
}

/// `data` as integers, floats by their bit patterns, lists in their order.
fn profile_bits(data: &ProfileData) -> Vec<u64> {
    let mut out = vec![data.nprocs as u64, data.storage_bytes, data.sample_count];
    out.extend(data.rank_elapsed.iter().map(|t| t.to_bits()));
    for &((vertex, rank), p) in &data.perf {
        out.extend([u64::from(vertex), rank as u64, p.count]);
        out.extend(
            [
                p.time,
                p.tot_ins,
                p.tot_cyc,
                p.lst_ins,
                p.l2_miss,
                p.br_miss,
                p.wait_time,
                p.bytes,
            ]
            .map(f64::to_bits),
        );
    }
    for &((src_rank, src_vertex, dst_rank, dst_vertex), agg) in &data.comm {
        out.extend([
            src_rank as u64,
            u64::from(src_vertex),
            dst_rank as u64,
            u64::from(dst_vertex),
            agg.count,
            agg.bytes,
            agg.wait_time.to_bits(),
        ]);
    }
    out
}

/// The simulator is generic over its hook, and a `&mut dyn Hook` is one
/// more instance of the same code: the profiler passed concretely and
/// passed behind dynamic dispatch must give bit-identical results.
#[test]
fn profiler_is_bit_identical_concrete_and_as_dyn_hook() {
    let app = cg_app();
    let psg = build_psg(&app.program, &PsgOptions::default());
    let mut config = SimConfig::with_nprocs(8);
    config.machine = Arc::new(app.machine.clone());

    let mut concrete = ScalAnaProfiler::with_defaults();
    let by_type = Simulation::new(&app.program, &psg, config.clone())
        .with_hook(&mut concrete)
        .run()
        .unwrap();
    let mut dynamic = ScalAnaProfiler::with_defaults();
    let hook: &mut dyn Hook = &mut dynamic;
    let by_dyn = Simulation::new(&app.program, &psg, config)
        .with_hook(hook)
        .run()
        .unwrap();

    assert_eq!(sim_bits(&by_type), sim_bits(&by_dyn));
    let (a, b) = (concrete.take_data(), dynamic.take_data());
    assert!(!a.perf.is_empty() && !a.comm.is_empty());
    assert_eq!(profile_bits(&a), profile_bits(&b));
    assert_eq!(a.indirect_calls, b.indirect_calls);
}
