//! Every figure and table harness, pinned byte for byte.
//!
//! Each test runs one binary of `src/bin/` and compares its stdout with
//! `golden/<binary>.txt`. A harness's stdout depends only on the build
//! (wall-clock cells go to stderr, which is not compared), and it is
//! the same in the debug and release profiles, so one file serves both.
//! A harness that exits non-zero fails its test too: their `assert!`s
//! are the figures' checks.
//!
//! A golden is regenerated only on the commit *before* a change, never
//! to make a change pass:
//!
//! ```sh
//! for b in crates/bench/src/bin/*.rs; do
//!   n=$(basename "$b" .rs)
//!   cargo run -q -p scalana-bench --bin "$n" > "crates/bench/golden/$n.txt"
//! done
//! ```

use std::path::Path;
use std::process::Command;

fn check(name: &str, exe: &str) {
    let out = Command::new(exe).output().expect("harness starts");
    assert!(
        out.status.success(),
        "{name} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{name}.txt"));
    let expected = std::fs::read_to_string(&golden)
        .unwrap_or_else(|e| panic!("reading {}: {e}", golden.display()));
    let actual = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    if actual == expected {
        return;
    }
    let line = expected
        .lines()
        .zip(actual.lines())
        .position(|(want, got)| want != got)
        .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
    let at = |text: &str| {
        text.lines()
            .nth(line)
            .unwrap_or("<end of output>")
            .to_string()
    };
    let (want, got) = (at(&expected), at(&actual));
    panic!(
        "{name}: stdout differs from {} at line {}\n  golden: {want}\n  actual: {got}",
        golden.display(),
        line + 1
    );
}

macro_rules! golden {
    ($($name:ident),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                check(stringify!($name), env!(concat!("CARGO_BIN_EXE_", stringify!($name))));
            }
        )*
    };
}

golden!(
    ablation,
    fig10_runtime_overhead,
    fig11_storage,
    fig12_zeusmp,
    fig13_zeusmp_overhead,
    fig14_15_sst,
    fig16_nekbone,
    fig2_motivating,
    fig4_psg_stages,
    fig6_ppg,
    fig7_problematic,
    fig8_backtracking,
    fig9_viewer,
    speedup_after_fix,
    table1_overhead_cg,
    table2_psg_stats,
    table3_static_overhead,
    table4_detection_cost,
    tianhe_scale,
);
