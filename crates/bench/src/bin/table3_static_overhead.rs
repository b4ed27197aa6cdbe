//! Table III: the static (compile-time) overhead of ScalAna — how much
//! the PSG construction adds on top of ordinary compilation.
//!
//! Paper: 0.28%–3.01% on top of LLVM compilation. Here "compilation" is
//! lexing + parsing + semantic checking of the MiniMPI source, and the
//! static analysis is local-PSG construction + inter-procedural
//! expansion + contraction. Each measurement is repeated and averaged.
//! The wall-clock columns go to stderr, the rest to stdout.

use scalana_bench::Table;
use scalana_graph::{build_psg, PsgOptions};
use scalana_lang::parse_program;
use std::time::Instant;

fn time_n<F: FnMut()>(n: usize, mut f: F) -> f64 {
    let start = Instant::now();
    for _ in 0..n {
        f();
    }
    start.elapsed().as_secs_f64() / n as f64
}

fn main() {
    println!("Table III — static-analysis overhead vs compilation\n");
    let mut table = Table::new(&["Program", "PSG mem (KB)"]);
    let mut timings = Table::new(&["Program", "compile (µs)", "PSG build (µs)", "overhead"]);

    let reps = 50;
    for app in scalana_apps::all_apps() {
        let source = app.source();
        let compile = time_n(reps, || {
            let _ = parse_program("t.mmpi", &source).unwrap();
        });
        let program = parse_program("t.mmpi", &source).unwrap();
        let psg_build = time_n(reps, || {
            let _ = build_psg(&program, &PsgOptions::default());
        });
        let psg = build_psg(&program, &PsgOptions::default());
        // Paper: ~32 B per vertex of static-analysis memory.
        let mem_kb = psg.vertex_count() * std::mem::size_of::<scalana_graph::Vertex>() / 1024;
        table.row(vec![app.name.clone(), mem_kb.max(1).to_string()]);
        timings.row(vec![
            app.name.clone(),
            format!("{:.1}", compile * 1e6),
            format!("{:.1}", psg_build * 1e6),
            format!("{:.2}%", psg_build / compile * 100.0),
        ]);
    }
    table.print();
    timings.eprint();
    println!(
        "\nnote: the paper reports 0.28%–3.01% because LLVM's optimizing\n\
         compilation dwarfs the pass; MiniMPI parsing is itself tiny, so\n\
         the ratio here is larger while the absolute cost stays microseconds."
    );
}
