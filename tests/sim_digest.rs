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
//! - the rendered detection report,
//! - the report's canonical JSON (`report_to_json(..).render()`, the
//!   bytes the daemon serves).
//!
//! The inputs are the 11 paper apps at `pipeline_cold`'s scale sets, CG
//! and LU at `[16, 64, 256]`, one generated program that resolves an
//! indirect call inside a loop, `serve_overlap`'s 48 generated
//! programs (the population scalbench draws them from) at
//! `[2, 4, 8, 16, 32, 64]` and at `[2, 64]`, one hand-written program
//! whose loops read and write their variables in every way the
//! lowering tells apart, at `[2, 4, 8]`, one hand-written program whose
//! requests and dependence edges take every shape the engine's request
//! table and the profiler's compression keys tell apart, at `[2, 4, 8]`,
//! and one row that digests 200 more generated programs together, at
//! `[2, 3, 8]`.
//!
//! A second table pins the other tools' numbers: `measure_overhead`'s
//! baseline time, and each tool's elapsed time and storage bytes, for
//! the tracer, the flat profiler and the ScalAna profiler on CG at 128
//! ranks and ZMP at 16, sampling at 200 Hz and at 20 kHz (the figures'
//! rate).
//!
//! A digest is regenerated only on the commit *before* a change, never
//! to make a change pass: run `cargo test --test sim_digest --
//! --nocapture` and paste the tables it prints.

use scalana_core::{
    assemble, profile_one_scale_observed, refined_psg, ProfiledRuns, ScalAnaConfig,
};
use scalana_graph::{build_psg, PsgOptions};
use scalana_lang::{parse_program, Program};
use scalana_mpisim::hook::CountingHook;
use scalana_mpisim::SimConfig;
use scalana_profile::overhead::ToolKind;
use scalana_profile::{
    measure_overhead, store, FlatConfig, ProfileData, ProfilerConfig, TracerConfig,
};
use scalana_service::hash::StableHasher;
use scalana_service::jsonify::{render_report, report_to_json};
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

/// Loops in every shape that decides which of their expressions are
/// loop-invariant: a `while` whose condition has an invariant part, a
/// loop-carried assignment, request variables bound by `irecv`/`isend`
/// and read in the same loop, nested loops that read the outer
/// induction variable, an invariant under an untaken branch, zero-trip
/// loops, `return` inside a loop, division by zero inside invariant
/// expressions, and an indirect call in a loop.
const LOOP_SHAPES: &str = r#"
param N = 6;
param Z = 0;

fn main() {
    let g = &work;
    let acc = 0;
    let k = 5 + rank % 3;
    while k > N / 3 - 1 && Z * 7 == 0 {
        acc = acc + k * (N + rank);
        k = k - 1;
        comp(cycles = 1000 * (N + 1) + acc, ins = N * 7 / Z + acc, lst = (rank + 3) % Z + 5);
    }
    for it in 0 .. 3 {
        let r = irecv(src = (rank + nprocs - 1) % nprocs, tag = it + 1);
        let s = isend(dst = (rank + 1) % nprocs, tag = it + 1, bytes = 64 * (N + 2) + r % 4);
        comp(cycles = 100 + (r % 5) * 10 + (s % 3) * (N * 4), ins = 90 + r * 0 + N / Z);
        wait(r);
        wait(s);
        for j in 0 .. it + 1 {
            comp(cycles = 100 * (it + 1) + j * (N * 2), ins = it * 10 + N * 3);
            for q in 0 .. j % 2 + 1 {
                comp(cycles = N * nprocs + q + it * j, ins = (N + it) * (rank + 1));
            }
        }
        if rank < 0 {
            comp(cycles = N * 1000 + 7);
        }
        for z in 0 .. Z {
            comp(cycles = N * 99 + z);
        }
        while Z > 0 {
            comp(cycles = N * 98);
        }
        call g(N * 2 + it, acc / Z + rank * 3);
        barrier();
    }
    early(N);
    allreduce(bytes = 8 * (N + 1));
}

fn work(n, m) {
    comp(cycles = n * 50 + 10 + m);
}

fn early(n) {
    let i = 0;
    while i < 100 {
        comp(cycles = n * 300 + i * 7);
        for t in 0 .. 10 {
            comp(cycles = n * 40 + t, ins = n * 30 + i);
            if t == n / 3 + i {
                return;
            }
        }
        i = i + 1;
    }
    comp(cycles = 999999);
}
"#;

/// Point-to-point requests and dependence edges in every shape the
/// engine's request table and the profiler's compression keys tell
/// apart: waits out of post order, a `waitall` after partial waits, a
/// rendezvous `isend` (96 KiB, above the 64 KiB eager threshold), a
/// wildcard receive, an `isend` that is never waited on followed by
/// more requests, one edge that cycles three `(tag, bytes)` keys, and
/// one edge whose every message carries a new tag (LU's `tag * 100 +
/// k`).
const REQUEST_SHAPES: &str = r#"
param ROUNDS = 6;

fn main() {
    let right = (rank + 1) % nprocs;
    let left = (rank + nprocs - 1) % nprocs;
    for it in 0 .. ROUNDS {
        let r1 = irecv(src = left, tag = 1);
        let r2 = irecv(src = left, tag = 2);
        let r3 = irecv(src = left, tag = 3);
        let s1 = isend(dst = right, tag = 1, bytes = 256);
        let s2 = isend(dst = right, tag = 2, bytes = 96k);
        let s3 = isend(dst = right, tag = 3, bytes = 512 * (it % 3 + 1));
        comp(cycles = 20_000 * (rank + 1) + 5_000 * it);
        wait(r3);
        wait(s2);
        wait(r1);
        waitall();
        sendrecv(dst = right, sendtag = 10 + it % 3, src = left, recvtag = 10 + it % 3,
                 bytes = 1k * (it % 3 + 1));
        for k in 0 .. 3 {
            sendrecv(dst = left, sendtag = it * 100 + k, src = right, recvtag = it * 100 + k,
                     bytes = 2k);
        }
        if rank == 0 {
            for k in 1 .. nprocs {
                recv(src = any, tag = 7);
            }
        } else {
            comp(cycles = 3_000 * rank);
            send(dst = 0, tag = 7, bytes = 64 * rank);
        }
    }
    let lost = isend(dst = right, tag = 50, bytes = 128);
    recv(src = left, tag = 50);
    for k in 0 .. 4 {
        let q = irecv(src = left, tag = 60 + k);
        send(dst = right, tag = 60 + k, bytes = 32);
        wait(q);
    }
    allreduce(bytes = 8);
}
"#;

/// A second generated population: its generator seed, program count and
/// scales.
const POPULATION_SEED: u64 = 7;
const POPULATION_PROGRAMS: usize = 200;
const POPULATION_SCALES: [usize; 3] = [2, 3, 8];

/// One recorded input: label, simulated events over all scales, text
/// report digest, JSON report digest, one image digest per scale.
type Expected = (&'static str, u64, u64, u64, &'static [u64]);

#[rustfmt::skip]
const EXPECTED: &[Expected] = &[
    ("BT", 25378, 0x42fc29f955e2d465, 0x21d57e8900a766ed, &[0xdf61789e9732e2f0, 0xd4fa2c1ae580aa82, 0x0b809d7f6c41dc93, 0xe015483f7e30f7d1, 0x2c02efeb2136c27c]),
    ("CG", 275066, 0xcab259bdc4ddba25, 0x1b665c8eb93e26a0, &[0x133f3699d5de4f93, 0xd0088c2d38b30b0e, 0x536bccb9fd968179, 0x21fa83c66df316f3, 0x69642d7c874c05e3]),
    ("EP", 7177, 0xcda47c7cc150ab4a, 0xd5653c8be60fefcd, &[0xeb10f03b11efdbd7, 0x0bf7864c770b971a, 0x61ff9a8eb54d8a34, 0xc9c07c7fa0ce9eb1, 0x913865f077a5e020]),
    ("FT", 16759, 0x980c2c1b94b320ab, 0x4262d0375af42bc5, &[0x49d4c30d153301ff, 0x6e02d95edfe2b5ea, 0x5908d35706a32df6, 0x94953f70fc8d147a, 0x532c7783eba0aba1]),
    ("MG", 271235, 0xec87dcd3fcb8f467, 0x8c4c92c30d0f2040, &[0x53ad8f4bd1ed4ee3, 0xde14261db31f537c, 0xdb60c7a8570a1737, 0x461fe974035ba816, 0x512dc8d7de4814b5]),
    ("SP", 42628, 0x42fc29f955e2d465, 0x21d57e8900a766ed, &[0x3824d1791162f20b, 0x020e55a59046b12a, 0xe6ba1b2769dadece, 0x79bece0ae2900722, 0x5ac0ec5c1465a5dd]),
    ("LU", 221807, 0xfd1aeff0bc8493c2, 0xd4bd9e912c0e6e4e, &[0x82c08593bd1eb91f, 0xdfed2ab8b8961209, 0xa7dd4410af0d3daa, 0xa25c9bdc331bad32, 0x5575e43fd2f3a9a6]),
    ("IS", 11551, 0xbd5c48b25f37214e, 0xa6963ca4140b8721, &[0x2218eae58c78ad74, 0xe337193f58bac179, 0xbba2c7fe699de6bd, 0xfc3685ce2aabab47, 0x0c7b5a3acabc62c5]),
    ("SST", 1349502, 0xf42819f311dddb40, 0xb7c9442d094544ca, &[0x3a85854f68dd2886, 0xe339fed034802445, 0xcb1fb75dd1d4080e]),
    ("NEK", 1484239, 0x01caa088e8dffbbf, 0x3a455e14f419998b, &[0xa5255e63419fc8bc, 0x3b9c50c958784643, 0x130b141ec35b870a]),
    ("ZMP", 82401, 0x14301c40fc97ad3f, 0xdb326dae186849e8, &[0x844eab522423f9a9, 0x09e8cf564a6c9d30, 0x8c35f76083eb05a6, 0x0322dc78ebbb3dd0, 0x01a211ca3c081b4d]),
    ("CG@large", 1138550, 0x5e3001bc6ee359f7, 0x39959bc8f2f4e323, &[0x536bccb9fd968179, 0x69642d7c874c05e3, 0xa18e3cd74774fa51]),
    ("LU@large", 611289, 0xe57fc2e09a2c7cb3, 0xd7280acd990ddb36, &[0xa7dd4410af0d3daa, 0x5575e43fd2f3a9a6, 0x238ebcd21e78c3d2]),
    ("wgen-indirect", 1015, 0xee37790b34d41db2, 0xf9e903fee27be5eb, &[0xae4a03d0becdeefa, 0xf0d214f7fad4fbd8, 0x3b82a90f3c77ac9d, 0xeb0d7dc7d09fadb1]),
    ("overlap_0", 2628, 0x2459407dfbbf5960, 0x7462031d22160335, &[0xb515691ee0abfa1d, 0x7b7fd64a910741a6, 0xaba2fb13605b3cf9, 0x95cf45d96f0a95c6, 0x6b60677958563a45, 0xab305ffa3c5839a7]),
    ("overlap_0@2,64", 1380, 0xe67b370df81384e4, 0x5f94369ca75748e7, &[0xb515691ee0abfa1d, 0xab305ffa3c5839a7]),
    ("overlap_1", 1696, 0x9d9de6bab37fb27b, 0xe5c56cc7a17eea8f, &[0x4d653bbe08b0b3cb, 0x2d6ac71b7162bc76, 0x5e892b45e833d83d, 0x09f0a184ca5e192d, 0x4a24ccaa68524da7, 0x28e40f1d68e12769]),
    ("overlap_1@2,64", 890, 0x2f80bdd4b2303539, 0xcc265ada1e4c9048, &[0x4d653bbe08b0b3cb, 0x28e40f1d68e12769]),
    ("overlap_2", 1692, 0xb83f48725a47860f, 0xa91d2f42aed0ee33, &[0x1617e58d6dc617a5, 0x356121024cb88f0c, 0x9becb111ab6f6e67, 0xf3f0607b00e27ba8, 0x4128046e7ada8d20, 0x676c4d76abae5d34]),
    ("overlap_2@2,64", 900, 0x91490c9af418d83a, 0xd14377bd47dc5722, &[0x1617e58d6dc617a5, 0x676c4d76abae5d34]),
    ("overlap_3", 744, 0xae27958ffd075244, 0x2b3e78c01c9f726a, &[0x2cae03d5bfd316da, 0xcd147f2ef8073d28, 0xd0101e3731ae4b43, 0x80cb132a4b5c7722, 0x74f030f65fc95a4a, 0x32e2eff6ec239438]),
    ("overlap_3@2,64", 392, 0xf1c3f3a5ac067baa, 0x07886d977896454d, &[0x2cae03d5bfd316da, 0x32e2eff6ec239438]),
    ("overlap_4", 1506, 0x64f30b9a1a671376, 0x781fa9e673299e4c, &[0x3d2e3e642d135ed3, 0x133c5d5203aecc8b, 0x8c1a805b163be0e9, 0xbdada3472b2abf4b, 0x479a61497a124b9f, 0xe89d923b5e0daf7a]),
    ("overlap_4@2,64", 790, 0x93c0afbe0c1d1c9e, 0xeddc0e7af829d7f5, &[0x3d2e3e642d135ed3, 0xe89d923b5e0daf7a]),
    ("overlap_5", 4950, 0x755244e41cb71cfb, 0x663ca9cdc20abe35, &[0xa379d4089c24fd3a, 0x4550a19af09c6bfb, 0x1941eae195e7854f, 0x87e41c9c66886fad, 0x7974ac0bc2bf7f63, 0x3f6ad124f9de25df]),
    ("overlap_5@2,64", 2598, 0x260e1c75a8278d63, 0xab73c7bd74f61cf0, &[0xa379d4089c24fd3a, 0x3f6ad124f9de25df]),
    ("overlap_6", 1218, 0x3ace4b1ed094f575, 0x7062ee8c41022c58, &[0xd882d3b4196fdf15, 0x21b081017791fea8, 0x73e6c65adb8a0abd, 0x4820c30fc468df39, 0x564e8ffcc7520653, 0x04737706b8287de3]),
    ("overlap_6@2,64", 646, 0x22439219e379cb5d, 0x48cd38c6d4b738a5, &[0xd882d3b4196fdf15, 0x04737706b8287de3]),
    ("overlap_7", 719, 0xa0daac868ae4f1e0, 0x72c08481a5a604bc, &[0x585a69eef5f642ae, 0x7d7dcc8f2c0a7585, 0x18dd9627f07da187, 0xa5d07b6b8e1cce26, 0xc13638f551de6184, 0xc6b90f3d7d046a7b]),
    ("overlap_7@2,64", 374, 0xb937486fb4b77c3a, 0x5f9609d0bda4a64b, &[0x585a69eef5f642ae, 0xc6b90f3d7d046a7b]),
    ("overlap_8", 1632, 0xc06159c5f7e96691, 0x74f6baabef6c02ea, &[0xe3e659e55732d6a3, 0xdde27dddd600b5c6, 0xa826893e32b1c73e, 0x9285df6c607d87d1, 0xb984734d02ddee99, 0xcbd598ea118c3cfd]),
    ("overlap_8@2,64", 856, 0x75c8fe1bdf916797, 0x80393912c48e4a00, &[0xe3e659e55732d6a3, 0xcbd598ea118c3cfd]),
    ("overlap_9", 498, 0xa5068b4a22a55a0e, 0xdb40b8799a0a54e1, &[0xf0c55a1b56f9a267, 0x7e5f000392f4c6c5, 0xcabe4fdb1426a6b7, 0x74a0112abd2045b8, 0x25cb69f60dd8eb7e, 0x0ff4ecc016f3f627]),
    ("overlap_9@2,64", 262, 0xa1e2c80f32ada167, 0x2af9c98d66b08125, &[0xf0c55a1b56f9a267, 0x0ff4ecc016f3f627]),
    ("overlap_10", 252, 0x15e0030f48991888, 0x1c65acb041b00d93, &[0xd0bd5fc8a5d4f7e4, 0xf4fa0953f2dad255, 0xffac230aa3b9075a, 0xfd69657e17a4a777, 0x74632a48c0002501, 0x03ae0bcc729eaa05]),
    ("overlap_10@2,64", 132, 0x94606435734f8b44, 0x458f35e4ac7f18be, &[0xd0bd5fc8a5d4f7e4, 0x03ae0bcc729eaa05]),
    ("overlap_11", 6996, 0x41d81044ced8675d, 0x593ba5332ae1ea81, &[0x998d061569ccb3ed, 0x2d0f43ef32ec95fc, 0x78733bd5532692d4, 0x9f87096049839f4f, 0xe0adb89464e9e190, 0xc87bbb730cafed69]),
    ("overlap_11@2,64", 3684, 0x9fbfe04e9f9e7568, 0x61908b5b557ffac4, &[0x998d061569ccb3ed, 0xc87bbb730cafed69]),
    ("overlap_12", 2703, 0x57ba7e7719204e40, 0xf2ecebe6ed9fa577, &[0x2e20abcf3b867900, 0x02d26b45c86dba58, 0x7bfa910684224168, 0x72cc6a84f120f680, 0x80487b0bc1b6de6e, 0x8cc57351d246c3c6]),
    ("overlap_12@2,64", 1417, 0x4aa5d19f3832420d, 0x6b21c585e3e058e6, &[0x2e20abcf3b867900, 0x8cc57351d246c3c6]),
    ("overlap_13", 2010, 0x519ebc31f5a2840a, 0xab13e38bf641dca4, &[0x0b15cb1429b7c530, 0xdc9b0167a081d458, 0xcf55beaafcbf9ac1, 0x9cd8096aa2750859, 0xf51564f25720a34c, 0x2608ae15b83a6eaf]),
    ("overlap_13@2,64", 1054, 0x29854ec66c0e6cc6, 0xe484d2b0e894cdf2, &[0x0b15cb1429b7c530, 0x2608ae15b83a6eaf]),
    ("overlap_14", 1665, 0xe4f0fad5934d47a3, 0x46a25bc06377ae34, &[0x3083064e0ad3a38e, 0xa974c89184975344, 0xa91b29cf9e621572, 0xcd8b8b01e67b5e0d, 0xe8bfbed5eb4ef248, 0x190681a1d37ced14]),
    ("overlap_14@2,64", 879, 0x1b2a03d4113a3ff1, 0x555de4e094f96e49, &[0x3083064e0ad3a38e, 0x190681a1d37ced14]),
    ("overlap_15", 10112, 0xecace4bfbb6ac33a, 0xde0e4f927f2082ae, &[0xa6b03e39d1dd4c12, 0xd9dc53b70368d573, 0x7e2ee88432299c29, 0x20b7ff3344c43cfa, 0x40b45dda6b94f44e, 0xf8061e6e01bbd465]),
    ("overlap_15@2,64", 5300, 0x608bef440f173a31, 0xa68eb49ade3ab9fe, &[0xa6b03e39d1dd4c12, 0xf8061e6e01bbd465]),
    ("overlap_16", 11278, 0x0c95173def27982d, 0x095e234d13f3ac42, &[0xa73b6986d044e0d9, 0xac8737181a9b3877, 0x3f107b5f9cb00a3d, 0x0a70608b13dc1160, 0x985c09f1cce8f4d2, 0x84541ea57d0336c8]),
    ("overlap_16@2,64", 5947, 0x0790b1e05cf00955, 0xfe5340d3e100d0e2, &[0xa73b6986d044e0d9, 0x84541ea57d0336c8]),
    ("overlap_17", 21285, 0x63976af78b55d0ef, 0xed1dacdf91d6c5a6, &[0x18fc3bbc4f938f2b, 0x0bd0f20abcf22d26, 0x189d75b730829635, 0xd40fbc4adc86f009, 0x74197c01ac7228cb, 0x5c83296bf2223f97]),
    ("overlap_17@2,64", 11163, 0x049e65af70074e96, 0x1b229e77f1046020, &[0x18fc3bbc4f938f2b, 0x5c83296bf2223f97]),
    ("overlap_18", 6144, 0xada819633b2c8759, 0xa587d3e63222b397, &[0x66667c5e2e9d83b4, 0x78acb272e9a0015a, 0x5374f71b10abfb83, 0x69f0965b7eda2ac2, 0x759f64f4bce88e4c, 0x08ebf5b5898b91d5]),
    ("overlap_18@2,64", 3224, 0x76a2e804d3a62532, 0x30f5eaa5d0c66ab5, &[0x66667c5e2e9d83b4, 0x08ebf5b5898b91d5]),
    ("overlap_19", 693, 0xf0f568d8c971acdd, 0x114d67f9058f12fd, &[0xd7e411e0939bbcff, 0x9c64cc52de4effbf, 0xf0b78d46a0aefee1, 0x66bc61bd39fa39ba, 0xe27b448719edfb27, 0x25470069a6a82746]),
    ("overlap_19@2,64", 363, 0x429f30fbba534511, 0x3c3f3af8d23d99e0, &[0xd7e411e0939bbcff, 0x25470069a6a82746]),
    ("overlap_20", 1563, 0xaccd90b8580fcb8f, 0x71290e36e105481d, &[0xfbdb344ce08b77ff, 0xd106225eaa6b090c, 0x2bb4cbb15a25f0f0, 0x3857969621cbabc9, 0x197dde4f9dbe1c09, 0x90f9d681e908f7d3]),
    ("overlap_20@2,64", 821, 0x2cd9a67b3135e5bf, 0x7cd1de6e3331fefe, &[0xfbdb344ce08b77ff, 0x90f9d681e908f7d3]),
    ("overlap_21", 1449, 0x5c6f2da44d3c8702, 0xc7b11c69e0004e95, &[0x24babedb75f8ba60, 0x094e6400b7bdd1c6, 0x001df2ece10cf9f8, 0x612da027caa58043, 0x8f8918e7b483d84e, 0x5bfb63f6bc98969f]),
    ("overlap_21@2,64", 759, 0xe93ad1cbf074b5ac, 0xc094372e97814330, &[0x24babedb75f8ba60, 0x5bfb63f6bc98969f]),
    ("overlap_22", 1224, 0xe0a4a94c153a6e61, 0x2d6cd92df2d7bf31, &[0x908e56493278fe29, 0x7e9e4e6b576ae937, 0x3d775ac7971f9d9d, 0xea76368852cf57e1, 0xdf3764a4a77f7d56, 0x2fd506f28f9a088f]),
    ("overlap_22@2,64", 648, 0xefbbacf817ed9daa, 0x3a9b7c190d8b6b0d, &[0x908e56493278fe29, 0x2fd506f28f9a088f]),
    ("overlap_23", 1386, 0xa5dffcef8f72e9da, 0x6102a09bc6043e1b, &[0x7f3d684913f384bf, 0xe0c08e78edd4b74f, 0x6f8dcd2ad63679ee, 0x4e21665672e7d814, 0x32aaebe3981d37a0, 0x436da58935a26fe3]),
    ("overlap_23@2,64", 726, 0x7d45b60a1e04b116, 0x0e9d84f0ef0724db, &[0x7f3d684913f384bf, 0x436da58935a26fe3]),
    ("overlap_24", 693, 0x467f2389b9a9b709, 0x92c75e2097dae8f7, &[0x46b09ccb43ed6730, 0x4ca3bd80616edef3, 0xc84b8b83c8839e19, 0xfda5a70b35eb98aa, 0xb067ee2e62c23367, 0xd3d8795e44b2a446]),
    ("overlap_24@2,64", 363, 0xf2d394a18ae006f3, 0x5eb98fae01957e28, &[0x46b09ccb43ed6730, 0xd3d8795e44b2a446]),
    ("overlap_25", 732, 0xdbb55dd89a24ccb8, 0xa5d21f6da224344c, &[0xdf08779b5ef6e385, 0x93ed888e3f258279, 0x47b28fe9da5bb285, 0xa138710aa4e9a993, 0x9b1bd06c7666e4c7, 0xd5c582a016bfb71b]),
    ("overlap_25@2,64", 384, 0x3e435ea11d548d05, 0x188181055a7a32fe, &[0xdf08779b5ef6e385, 0xd5c582a016bfb71b]),
    ("overlap_26", 504, 0x8a91f0eb0665d692, 0x8f51def87bb75e53, &[0x56139fd1fd5808d9, 0x4690e4c3c14939f2, 0x62012775122cc2df, 0x9727d8b5715e5a66, 0x82a919b5364a0d14, 0xa380205af69f4a9b]),
    ("overlap_26@2,64", 264, 0x2dc6116b4d7897a0, 0xaa2379b683076083, &[0x56139fd1fd5808d9, 0xa380205af69f4a9b]),
    ("overlap_27", 2604, 0x7e57301ab9d0d853, 0x4baba650f4985863, &[0x9273502805c43514, 0xfd8e09ded386fa52, 0xaee28020e05b1d56, 0x2158d12f0aa2a3ff, 0x68b3c8123f0b6be9, 0x2a7401f90c1ff2f1]),
    ("overlap_27@2,64", 1372, 0x74554838caf80cce, 0xb2d9b26f5f37d9b5, &[0x9273502805c43514, 0x2a7401f90c1ff2f1]),
    ("overlap_28", 2970, 0x9ae5134694def804, 0x650916ef78c8d8f7, &[0x112d20fe33b37dc6, 0xbb3b6d8d6b5a6055, 0x6e79ce3bf304c5af, 0xb12d1ca2f01ac3c5, 0x476715311c1a24ee, 0x05e2c659a8184574]),
    ("overlap_28@2,64", 1566, 0xdd17dab465e02621, 0x9077b9b249751beb, &[0x112d20fe33b37dc6, 0x05e2c659a8184574]),
    ("overlap_29", 1512, 0x25a30921a6ad4f4b, 0xc6666e48c5bc1052, &[0x015399eda593d9da, 0x0673f25e7b3e8621, 0x8005aa77b4d1d92d, 0xc0af7b8094ec407d, 0x78f7bbb5759c05cd, 0xc0a7143081e437d2]),
    ("overlap_29@2,64", 792, 0x50612c81638be193, 0x187f7877738ebaae, &[0x015399eda593d9da, 0xc0a7143081e437d2]),
    ("overlap_30", 2850, 0x1583b4138a00a80d, 0x7a37cc079706728d, &[0x6562902d11d3fbcd, 0x2aef9e83893e4607, 0xa401048410bdc2da, 0x73b5cea281572b46, 0xdb26a3f2bb42d2b3, 0xa56430156bdfd797]),
    ("overlap_30@2,64", 1502, 0x5457d84fc8f35363, 0x3b8ca025dec320ee, &[0x6562902d11d3fbcd, 0xa56430156bdfd797]),
    ("overlap_31", 1216, 0x3555f1d5c5550b54, 0x7b27d83393110b88, &[0x50f76df2530d7993, 0xd3a3425173498de4, 0xb962296fe79dbed4, 0x8ea7cce44344e3ff, 0x2bbdba7866fa6525, 0xfc42961ff4668cc1]),
    ("overlap_31@2,64", 633, 0x10544e1645361b2c, 0xfee733046c2a18f0, &[0x50f76df2530d7993, 0xfc42961ff4668cc1]),
    ("overlap_32", 1443, 0x89c28dd93d645398, 0x08058e18da1631e7, &[0x202ed1e1fd63acba, 0x3b25d05028a1939e, 0x8ed7e19079e3a261, 0x8d15165fb34335f9, 0x11707f876b8e58af, 0xf53888917e1bcf53]),
    ("overlap_32@2,64", 757, 0x09bc324e3885665b, 0xd64ccf8e2d7a1ff2, &[0x202ed1e1fd63acba, 0xf53888917e1bcf53]),
    ("overlap_33", 2348, 0x34a9b6518bcd110a, 0x49ed42344d7aa903, &[0xba5b1c920a4683a5, 0xd12cb475b6064b12, 0xd6e5ed771f5641c0, 0xd99086b493273d16, 0xaf62724fa4a43717, 0x013e384460bfa609]),
    ("overlap_33@2,64", 1231, 0x96bac8d13c1702ae, 0x1aa0d8bb4692a085, &[0xba5b1c920a4683a5, 0x013e384460bfa609]),
    ("overlap_34", 4488, 0xc8b50ce48e9b05fb, 0x1c31fbc14978495d, &[0x788d722d1c944389, 0x2e4a392e50074ec1, 0x6a75f4a0d7f0cad3, 0x0f09a386e276b3b2, 0x9920f533134a5beb, 0x2aa579c81ff725fd]),
    ("overlap_34@2,64", 2352, 0x4ce996a2f9d1518d, 0x45eb4fa6bc26aeaf, &[0x788d722d1c944389, 0x2aa579c81ff725fd]),
    ("overlap_35", 8520, 0x02826ccbd02d6f3a, 0xe216ed105c0eb7a9, &[0x49d445b1f9c5d56b, 0x5de412dfe5fe5adf, 0x78df90e347bf3eb6, 0x5d7f8d18b474fe87, 0x521dab5285a993a0, 0x0b6dd6d5f2780f00]),
    ("overlap_35@2,64", 4472, 0xb3c495dc86572250, 0x26fb25eefd5c3255, &[0x49d445b1f9c5d56b, 0x0b6dd6d5f2780f00]),
    ("overlap_36", 1413, 0x175f157174e1d1d6, 0x6f772aca9bb78a54, &[0x35fb5c9467795d20, 0x431d0bf0494087ba, 0xdfc176dba9aae3da, 0x0c84905b42819418, 0xba9bccf475c3f14a, 0x054b2dda53352de0]),
    ("overlap_36@2,64", 747, 0x6d477ee86adc51bc, 0x4ceb1da293c061bf, &[0x35fb5c9467795d20, 0x054b2dda53352de0]),
    ("overlap_37", 1689, 0x6925765c02885b81, 0x8c01ec061018e5ec, &[0xe75686bbf19249bd, 0x3e5f1f83b749461f, 0xccc086b3cad379e9, 0xcd896c30c0a383ca, 0xc78510158497f94d, 0xfe8f819a0ea15079]),
    ("overlap_37@2,64", 887, 0x777c4492804d59e7, 0x859a988fa95bdfa0, &[0xe75686bbf19249bd, 0xfe8f819a0ea15079]),
    ("overlap_38", 6497, 0xbc1d21cd785ec5ba, 0xaea8b7b6602d1dd3, &[0x06d64bfac2b2c9b2, 0x12505294269b21a9, 0xf9f851799647b005, 0x1ef0442ef9ea983a, 0x24dfa5bab43844c7, 0x4ffd0aa6028a21c5]),
    ("overlap_38@2,64", 3409, 0x35b7f2a09bae941d, 0xf461fddb4c92478f, &[0x06d64bfac2b2c9b2, 0x4ffd0aa6028a21c5]),
    ("overlap_39", 1638, 0x95b74f3827e2be7f, 0x49de15b59c6ba2fc, &[0x4c321617fcd0c4b3, 0x7906bde45e1ed739, 0x37993213f2a0c93a, 0x83bba815836cb0a7, 0xbace8ab7729875c6, 0xa3535097b1e7ba0f]),
    ("overlap_39@2,64", 858, 0xdf48d7e1b6de28b9, 0x3f1fdb8818bfc89f, &[0x4c321617fcd0c4b3, 0xa3535097b1e7ba0f]),
    ("overlap_40", 1098, 0xd0e1ae384150b097, 0x81748f9f50bcffe4, &[0xf557e38ead0cef3f, 0x532bc1d504df6aa3, 0x66d85bcdeac84fd3, 0x04015c157550073e, 0x0e8041ccbce03727, 0x149556ada7b742cc]),
    ("overlap_40@2,64", 577, 0x6b3b927d16590890, 0x5f3cac13363bbc4a, &[0xf557e38ead0cef3f, 0x149556ada7b742cc]),
    ("overlap_41", 7995, 0xcc6dff6c1781202b, 0x3cd9c0ba31f8b814, &[0x5fb4dd809aa7ac6a, 0x1d17e1c4114ef1d9, 0x807fa2cca4bb7f40, 0x9498cf456652b2c4, 0x4acf18851bf674ce, 0xdf9a05beaf1661ba]),
    ("overlap_41@2,64", 4189, 0x9775eec0f812c624, 0x542be829b4878f06, &[0x5fb4dd809aa7ac6a, 0xdf9a05beaf1661ba]),
    ("overlap_42", 1727, 0xfcc91b3ca4690a0f, 0x9b51604c7c7f8c8c, &[0xa91c69f683d622f7, 0xa8c62c72cb6f41ce, 0xd4e1f0db7467db8f, 0xb6f0175162af13ac, 0x0a29058f67bf851a, 0xe511333c8491f9a2]),
    ("overlap_42@2,64", 902, 0xf46d205adf416bbe, 0x2b46a1d830af8698, &[0xa91c69f683d622f7, 0xe511333c8491f9a2]),
    ("overlap_43", 1326, 0x22ea9df5fd9a45b0, 0x6c665e6225634542, &[0x90fbb867d015944b, 0x01910f18fb095522, 0x43b2e1ceb05813fd, 0xbab526304407da22, 0x28cdcaf30cd3447c, 0x40811e801d9e7b6b]),
    ("overlap_43@2,64", 696, 0x9151405a21793adf, 0xe89962037ddc48a6, &[0x90fbb867d015944b, 0x40811e801d9e7b6b]),
    ("overlap_44", 2205, 0xa624d55cbf36e23b, 0x939db9e676e569f6, &[0x226ad14ca104fa0e, 0x22046d4f839abc96, 0x348d0f998c180fa4, 0x15fd79e7a483f41b, 0xe08feee03fa64abe, 0xe2a9375babb04264]),
    ("overlap_44@2,64", 1155, 0xbe9309ed9994c90c, 0xf91bb7f06cc41677, &[0x226ad14ca104fa0e, 0xe2a9375babb04264]),
    ("overlap_45", 972, 0x0567e3a537416827, 0x095ae7336ce33abe, &[0x1adbdd6626f6440c, 0xc4ea0d32da641023, 0xce4f5c29462ae3b3, 0x4076af5900a777bf, 0x467b369cf1cf0d2b, 0xc3a0795f4aef9519]),
    ("overlap_45@2,64", 516, 0x7176ce9c835da427, 0x904757a1bee9e098, &[0x1adbdd6626f6440c, 0xc3a0795f4aef9519]),
    ("overlap_46", 1701, 0x6296d77d11d4c635, 0x70e79939abc5ca85, &[0xdfce85fc0698785a, 0x4bc84364036d4d61, 0xdb8c14d8f91af595, 0xc1a7d582699f84ad, 0xb0b4cce0e2b88372, 0xa279619d895fd617]),
    ("overlap_46@2,64", 891, 0x0d5a128c7fcacb00, 0xe0683d5d9ea13cea, &[0xdfce85fc0698785a, 0xa279619d895fd617]),
    ("overlap_47", 2352, 0xb0c92a227022cdbd, 0x7d4cd9ae9c24b89d, &[0x8d5dcf8bcd9b91c6, 0x1af09ea5d42ab748, 0x206b61efe6348ea4, 0xf5c32bee67adbc52, 0x0b809e7ac5803ff0, 0xec41de41c7b25be9]),
    ("overlap_47@2,64", 1240, 0xe9eba67a3230296d, 0x45df0c73a0eb0dbf, &[0x8d5dcf8bcd9b91c6, 0xec41de41c7b25be9]),
    ("loop-shapes", 1673, 0xd1ffd63699853cf8, 0x25a9df106b1e6006, &[0x58a52626bc77bad5, 0x2a77af6f76d50651, 0xf6767dff238455ea]),
    ("request-shapes", 4477, 0x992ece6624178443, 0x78d68b0c713eb68f, &[0x2deb3a5c6f54f81e, 0xea62fe24bef969ca, 0xf2c1768c2f708afb]),
    ("wgen7x200@2,3,8", 46212, 0x1e2f53927d84509e, 0x72668264697b8e98, &[0xca896d315ceac021, 0xd16c6ea1b51ec827, 0x9976cf8065433892]),
];

/// One program, simulated once per scale of its first scale set and
/// analyzed once per scale set (every set starts at the same discovery
/// scale, so a subset's analysis is the one run on its own would give).
struct Case {
    program: Program,
    config: ScalAnaConfig,
    scale_sets: Vec<(String, Vec<usize>)>,
}

/// `serve_overlap`'s population: scalbench's generator seed and program
/// count, and the scale sets its jobs draw from.
const OVERLAP_SEED: u64 = 0x5ca1_a7a5;
const OVERLAP_PROGRAMS: usize = 48;
const OVERLAP_SCALES: [usize; 6] = [2, 4, 8, 16, 32, 64];

fn cases() -> Vec<Case> {
    let apps = scalana_apps::all_apps();
    let mut cases = Vec::new();
    let mut push = |label: String, app: &scalana_apps::App, scales: &[usize]| {
        cases.push(Case {
            program: app.program.clone(),
            // `analyze_app` runs an app on its own machine model.
            config: ScalAnaConfig {
                machine: app.machine.clone(),
                ..ScalAnaConfig::default()
            },
            scale_sets: vec![(label, scales.to_vec())],
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
        program: parse_program("wgen.mmpi", WGEN_INDIRECT).expect("generated source parses"),
        config: ScalAnaConfig::default(),
        scale_sets: vec![("wgen-indirect".to_string(), vec![2, 4, 8, 16])],
    });
    for p in 0..OVERLAP_PROGRAMS {
        let text = scalana_wgen::generate(OVERLAP_SEED, p).pretty();
        let label = format!("overlap_{p}");
        cases.push(Case {
            program: parse_program(&format!("{label}.mmpi"), &text)
                .expect("generated source parses"),
            config: ScalAnaConfig::default(),
            scale_sets: vec![
                (label.clone(), OVERLAP_SCALES.to_vec()),
                (format!("{label}@2,64"), vec![2, 64]),
            ],
        });
    }
    cases.push(Case {
        program: parse_program("loops.mmpi", LOOP_SHAPES).expect("hand-written source parses"),
        config: ScalAnaConfig::default(),
        scale_sets: vec![("loop-shapes".to_string(), vec![2, 4, 8])],
    });
    cases.push(Case {
        program: parse_program("requests.mmpi", REQUEST_SHAPES)
            .expect("hand-written source parses"),
        config: ScalAnaConfig::default(),
        scale_sets: vec![("request-shapes".to_string(), vec![2, 4, 8])],
    });
    cases
}

/// The population's rows folded into one: events summed, and the report,
/// JSON and per-scale image digests each digested in program order.
fn population_row() -> Row {
    let rows: Vec<Row> = (0..POPULATION_PROGRAMS)
        .flat_map(|p| {
            let label = format!("population_{p}");
            let text = scalana_wgen::generate(POPULATION_SEED, p).pretty();
            digest(&Case {
                program: parse_program(&format!("{label}.mmpi"), &text)
                    .expect("generated source parses"),
                config: ScalAnaConfig::default(),
                scale_sets: vec![(label, POPULATION_SCALES.to_vec())],
            })
        })
        .collect();
    let fold = |field: &dyn Fn(&Row) -> u64| {
        let mut hasher = StableHasher::new();
        for row in &rows {
            hasher.write_bytes(&field(row).to_le_bytes());
        }
        hasher.finish()
    };
    Row {
        label: format!("wgen{POPULATION_SEED}x{POPULATION_PROGRAMS}@2,3,8"),
        events: rows.iter().map(|r| r.events).sum(),
        report: fold(&|r| r.report),
        report_json: fold(&|r| r.report_json),
        images: (0..POPULATION_SCALES.len())
            .map(|i| fold(&|r| r.images[i]))
            .collect(),
    }
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
    report_json: u64,
    images: Vec<u64>,
}

impl Row {
    fn line(&self) -> String {
        let images: Vec<String> = self.images.iter().map(|d| format!("{d:#018x}")).collect();
        format!(
            "    (\"{}\", {}, {:#018x}, {:#018x}, &[{}]),",
            self.label,
            self.events,
            self.report,
            self.report_json,
            images.join(", ")
        )
    }
}

/// One simulated scale: its event count, image digest and profile.
struct Scale {
    nprocs: usize,
    events: u64,
    image: u64,
    data: ProfileData,
}

fn digest(case: &Case) -> Vec<Row> {
    let all = &case.scale_sets[0].1;
    let psg = Arc::new(refined_psg(&case.program, &case.config, all[0]).expect("discovery run"));
    let simulated: Vec<Scale> = all
        .iter()
        .map(|&nprocs| {
            let mut counter = CountingHook::default();
            let data =
                profile_one_scale_observed(&case.program, &psg, &case.config, nprocs, &mut counter)
                    .expect("profiled run");
            Scale {
                nprocs,
                events: counter.comps
                    + counter.mpi_enters
                    + counter.mpi_exits
                    + counter.comm_deps
                    + counter.indirect_calls,
                image: fnv1a(&store::save(&data)),
                data,
            }
        })
        .collect();
    case.scale_sets
        .iter()
        .map(|(label, scales)| {
            let picked: Vec<&Scale> = scales
                .iter()
                .map(|&n| {
                    simulated
                        .iter()
                        .find(|s| s.nprocs == n)
                        .expect("a subset of the first set")
                })
                .collect();
            let runs = ProfiledRuns {
                psg: Arc::clone(&psg),
                scales: scales.clone(),
                profiles: picked.iter().map(|s| s.data.clone()).collect(),
            };
            let report = assemble(runs, &case.config).report;
            let report_json = report_to_json(&report).render();
            // The daemon serves the writer's bytes, not their re-render.
            assert_eq!(render_report(&report), report_json, "{label}");
            Row {
                label: label.clone(),
                events: picked.iter().map(|s| s.events).sum(),
                report: fnv1a(report.render().as_bytes()),
                report_json: fnv1a(report_json.as_bytes()),
                images: picked.iter().map(|s| s.image).collect(),
            }
        })
        .collect()
}

#[test]
fn simulated_outputs_match_recorded_digests() {
    let cases = cases();
    // One thread per input keeps a debug-build run to a few seconds.
    let actual: Vec<Row> = std::thread::scope(|scope| {
        let population = scope.spawn(population_row);
        let handles: Vec<_> = cases.iter().map(|c| scope.spawn(|| digest(c))).collect();
        let mut rows: Vec<Row> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("digest thread"))
            .collect();
        rows.push(population.join().expect("population thread"));
        rows
    });
    let table: Vec<String> = actual.iter().map(Row::line).collect();
    let table = format!("const EXPECTED: &[Expected] = &[\n{}\n];", table.join("\n"));
    println!("{table}");
    let expected: Vec<Row> = EXPECTED
        .iter()
        .map(|&(label, events, report, report_json, images)| Row {
            label: label.to_string(),
            events,
            report,
            report_json,
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

/// One recorded tool measurement: label and the digest of the baseline
/// time and each tool's elapsed time (as bits) and storage bytes.
#[rustfmt::skip]
const TOOLS_EXPECTED: &[(&str, u64)] = &[
    ("CG@128/200Hz", 0x6e0ca6444e4fb807),
    ("CG@128/20000Hz", 0x93cab81a73a6d918),
    ("ZMP@16/200Hz", 0x95e05c7c92b6035e),
    ("ZMP@16/20000Hz", 0x7b1e2de313b76633),
];

/// The digested `measure_overhead` row of `app` at `nprocs` ranks, every
/// sampling tool at `sampling_hz`.
fn tool_row(app: &str, nprocs: usize, sampling_hz: f64) -> (String, u64) {
    let app = scalana_apps::by_name(app).expect("paper app");
    let psg = build_psg(&app.program, &PsgOptions::default());
    let mut config = SimConfig::with_nprocs(nprocs);
    config.machine = Arc::new(app.machine.clone());
    let tools = [
        ToolKind::Tracer(TracerConfig::default()),
        ToolKind::Flat(FlatConfig {
            sampling_hz,
            ..FlatConfig::default()
        }),
        ToolKind::ScalAna(ProfilerConfig {
            sampling_hz,
            ..ProfilerConfig::default()
        }),
    ];
    let report = measure_overhead(&app.program, &psg, &config, &tools).expect("measured run");
    let mut hasher = StableHasher::new();
    hasher.write_bytes(&report.baseline.to_bits().to_le_bytes());
    for tool in &report.tools {
        hasher.write_bytes(&tool.elapsed.to_bits().to_le_bytes());
        hasher.write_bytes(&tool.storage_bytes.to_le_bytes());
    }
    (
        format!("{}@{nprocs}/{sampling_hz}Hz", app.name),
        hasher.finish(),
    )
}

#[test]
fn tool_measurements_match_recorded_digests() {
    let inputs = [
        ("CG", 128, 200.0),
        ("CG", 128, 20_000.0),
        ("ZMP", 16, 200.0),
        ("ZMP", 16, 20_000.0),
    ];
    let actual: Vec<(String, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .iter()
            .map(|&(app, nprocs, hz)| scope.spawn(move || tool_row(app, nprocs, hz)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("measurement thread"))
            .collect()
    });
    let table: Vec<String> = actual
        .iter()
        .map(|(label, digest)| format!("    (\"{label}\", {digest:#018x}),"))
        .collect();
    let table = format!(
        "const TOOLS_EXPECTED: &[(&str, u64)] = &[\n{}\n];",
        table.join("\n")
    );
    println!("{table}");
    let expected: Vec<(String, u64)> = TOOLS_EXPECTED
        .iter()
        .map(|&(label, digest)| (label.to_string(), digest))
        .collect();
    assert!(
        actual == expected,
        "tool measurements changed; now:\n{table}"
    );
}
