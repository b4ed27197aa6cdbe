//! Output bytes pinned across commits.
//!
//! The other byte-identity oracles (golden reports, split == cold, the
//! cache differential) compare two paths through one build, so a change
//! that moves the simulator's numbers on *both* paths passes them. This
//! test holds FNV-1a digests, recorded once, of everything a cold
//! analysis produces per input:
//!
//! - the simulated event count (every hook callback, as scalbench's
//!   `mpisim.events` counts them),
//! - each scale's `store::save` profile image,
//! - the rendered detection report.
//!
//! The inputs are the 11 paper apps at `pipeline_cold`'s scale sets, CG
//! and LU at `[16, 64, 256]`, and one generated program that resolves an
//! indirect call inside a loop. A digest is regenerated only on the
//! commit *before* a change, never to make a change pass: run
//! `cargo test --test sim_digest -- --nocapture` and paste the table it
//! prints.

use scalana_core::{
    assemble, profile_one_scale_observed, refined_psg, ProfiledRuns, ScalAnaConfig,
};
use scalana_lang::{parse_program, Program};
use scalana_mpisim::hook::CountingHook;
use scalana_profile::store;
use scalana_service::hash::StableHasher;
use std::sync::Arc;

/// `scalana_wgen::generate(1, 26).pretty()`: a helper reached through
/// `let fp = &helper; call fp(0);` in a loop, so discovery refines the
/// PSG and the profiled runs attribute into the resolved context.
const WGEN_INDIRECT: &str = r#"
param CASEID = 26;
param P0 = 11993;
param P1 = 32504;

fn main() {
    for i0 in 0 .. min(min(P1, 4), 2) {
        let fp1 = &helper;
        call fp1(0);
    }
    for g2 in 0 .. (rank % 4) {
        comp(cycles = ((P0 % 65536) + min(P1, 65536)));
        comp(cycles = min(min(64, rank), log2(nprocs)), ins = (min(min(64, rank), log2(nprocs)) * 2), lst = (min(min(64, rank), log2(nprocs)) / 4));
    }
    for i3 in 0 .. min(4096, 1) {
        for i4 in 0 .. min((nprocs - i3), 1) {
            sendrecv(dst = ((rank + 1) % nprocs), sendtag = 10, src = (((rank + nprocs) - 1) % nprocs), recvtag = 10, bytes = (abs(P0) % 131072));
            let t5 = (-((-3) + 1000));
        }
    }
    let r6 = irecv(src = (((rank + nprocs) - min(1, (nprocs - 1))) % nprocs), tag = 11);
    let s7 = isend(dst = ((rank + min(1, (nprocs - 1))) % nprocs), tag = 11, bytes = 512);
    wait(r6);
    wait(s7);
}

fn helper(n) {
    for g0 in 0 .. (rank % 4) {
        comp(cycles = abs(max(g0, P0)), brmiss = (abs(max(g0, P0)) / 100));
    }
}
"#;

/// One recorded input: label, simulated events over all scales, report
/// digest, one image digest per scale.
type Expected = (&'static str, u64, u64, &'static [u64]);

#[rustfmt::skip]
const EXPECTED: &[Expected] = &[
    ("BT", 25378, 0x42fc29f955e2d465, &[0xdf61789e9732e2f0, 0xd4fa2c1ae580aa82, 0x0b809d7f6c41dc93, 0xe015483f7e30f7d1, 0x2c02efeb2136c27c]),
    ("CG", 275066, 0xcab259bdc4ddba25, &[0x133f3699d5de4f93, 0xd0088c2d38b30b0e, 0x536bccb9fd968179, 0x21fa83c66df316f3, 0x69642d7c874c05e3]),
    ("EP", 7177, 0xcda47c7cc150ab4a, &[0xeb10f03b11efdbd7, 0x0bf7864c770b971a, 0x61ff9a8eb54d8a34, 0xc9c07c7fa0ce9eb1, 0x913865f077a5e020]),
    ("FT", 16759, 0x980c2c1b94b320ab, &[0x49d4c30d153301ff, 0x6e02d95edfe2b5ea, 0x5908d35706a32df6, 0x94953f70fc8d147a, 0x532c7783eba0aba1]),
    ("MG", 271235, 0xec87dcd3fcb8f467, &[0x53ad8f4bd1ed4ee3, 0xde14261db31f537c, 0xdb60c7a8570a1737, 0x461fe974035ba816, 0x512dc8d7de4814b5]),
    ("SP", 42628, 0x42fc29f955e2d465, &[0x3824d1791162f20b, 0x020e55a59046b12a, 0xe6ba1b2769dadece, 0x79bece0ae2900722, 0x5ac0ec5c1465a5dd]),
    ("LU", 221807, 0xfd1aeff0bc8493c2, &[0x82c08593bd1eb91f, 0xdfed2ab8b8961209, 0xa7dd4410af0d3daa, 0xa25c9bdc331bad32, 0x5575e43fd2f3a9a6]),
    ("IS", 11551, 0xbd5c48b25f37214e, &[0x2218eae58c78ad74, 0xe337193f58bac179, 0xbba2c7fe699de6bd, 0xfc3685ce2aabab47, 0x0c7b5a3acabc62c5]),
    ("SST", 1349502, 0xf42819f311dddb40, &[0x3a85854f68dd2886, 0xe339fed034802445, 0xcb1fb75dd1d4080e]),
    ("NEK", 1484239, 0x01caa088e8dffbbf, &[0xa5255e63419fc8bc, 0x3b9c50c958784643, 0x130b141ec35b870a]),
    ("ZMP", 82401, 0x14301c40fc97ad3f, &[0x844eab522423f9a9, 0x09e8cf564a6c9d30, 0x8c35f76083eb05a6, 0x0322dc78ebbb3dd0, 0x01a211ca3c081b4d]),
    ("CG@large", 1138550, 0x5e3001bc6ee359f7, &[0x536bccb9fd968179, 0x69642d7c874c05e3, 0xa18e3cd74774fa51]),
    ("LU@large", 611289, 0xe57fc2e09a2c7cb3, &[0xa7dd4410af0d3daa, 0x5575e43fd2f3a9a6, 0x238ebcd21e78c3d2]),
    ("wgen-indirect", 1015, 0xee37790b34d41db2, &[0xae4a03d0becdeefa, 0xf0d214f7fad4fbd8, 0x3b82a90f3c77ac9d, 0xeb0d7dc7d09fadb1]),
];

struct Case {
    label: String,
    program: Program,
    config: ScalAnaConfig,
    scales: Vec<usize>,
}

fn cases() -> Vec<Case> {
    let apps = scalana_apps::all_apps();
    let mut cases = Vec::new();
    let mut push = |label: String, app: &scalana_apps::App, scales: &[usize]| {
        cases.push(Case {
            label,
            program: app.program.clone(),
            // `analyze_app` runs an app on its own machine model.
            config: ScalAnaConfig {
                machine: app.machine.clone(),
                ..ScalAnaConfig::default()
            },
            scales: scales.to_vec(),
        });
    };
    for app in &apps {
        let scales: &[usize] = match app.name.as_str() {
            "SST" | "NEK" => &[4, 8, 16],
            _ => &[4, 8, 16, 32, 64],
        };
        push(app.name.clone(), app, scales);
    }
    for name in ["CG", "LU"] {
        let app = apps.iter().find(|a| a.name == name).expect("paper app");
        push(format!("{name}@large"), app, &[16, 64, 256]);
    }
    cases.push(Case {
        label: "wgen-indirect".to_string(),
        program: parse_program("wgen.mmpi", WGEN_INDIRECT).expect("generated source parses"),
        config: ScalAnaConfig::default(),
        scales: vec![2, 4, 8, 16],
    });
    cases
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hasher = StableHasher::new();
    hasher.write_bytes(bytes);
    hasher.finish()
}

/// What one input's cold analysis produced, digested.
#[derive(Debug, PartialEq)]
struct Row {
    label: String,
    events: u64,
    report: u64,
    images: Vec<u64>,
}

impl Row {
    fn line(&self) -> String {
        let images: Vec<String> = self.images.iter().map(|d| format!("{d:#018x}")).collect();
        format!(
            "    (\"{}\", {}, {:#018x}, &[{}]),",
            self.label,
            self.events,
            self.report,
            images.join(", ")
        )
    }
}

fn digest(case: &Case) -> Row {
    let psg =
        Arc::new(refined_psg(&case.program, &case.config, case.scales[0]).expect("discovery run"));
    let mut events = 0;
    let mut images = Vec::new();
    let mut profiles = Vec::new();
    for &nprocs in &case.scales {
        let mut counter = CountingHook::default();
        let data =
            profile_one_scale_observed(&case.program, &psg, &case.config, nprocs, &mut counter)
                .expect("profiled run");
        events += counter.comps
            + counter.mpi_enters
            + counter.mpi_exits
            + counter.comm_deps
            + counter.indirect_calls;
        images.push(fnv1a(&store::save(&data)));
        profiles.push(data);
    }
    let runs = ProfiledRuns {
        psg,
        scales: case.scales.clone(),
        profiles,
    };
    let report = assemble(runs, &case.config).report.render();
    Row {
        label: case.label.clone(),
        events,
        report: fnv1a(report.as_bytes()),
        images,
    }
}

#[test]
fn simulated_outputs_match_recorded_digests() {
    let cases = cases();
    // One thread per input keeps a debug-build run to a few seconds.
    let actual: Vec<Row> = std::thread::scope(|scope| {
        let handles: Vec<_> = cases.iter().map(|c| scope.spawn(|| digest(c))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("digest thread"))
            .collect()
    });
    let table: Vec<String> = actual.iter().map(Row::line).collect();
    let table = format!("const EXPECTED: &[Expected] = &[\n{}\n];", table.join("\n"));
    println!("{table}");
    let expected: Vec<Row> = EXPECTED
        .iter()
        .map(|&(label, events, report, images)| Row {
            label: label.to_string(),
            events,
            report,
            images: images.to_vec(),
        })
        .collect();
    let changed: Vec<&str> = actual
        .iter()
        .zip(&expected)
        .filter(|(a, e)| a != e)
        .map(|(a, _)| a.label.as_str())
        .collect();
    assert!(
        actual == expected,
        "simulated output changed for {changed:?} (rows: {} recorded, {} now); now:\n{table}",
        expected.len(),
        actual.len()
    );
}
