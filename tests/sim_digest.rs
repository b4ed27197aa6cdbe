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
//! - each scale's profile content: every field of its `ProfileData`,
//!   floats by their bits, in field order (`profile_bits`). This pins
//!   what a profile holds, not how `store::save` encodes it, so a codec
//!   change that keeps every decoded profile bit-identical passes
//!   unregenerated,
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
use scalana_profile::{measure_overhead, FlatConfig, ProfileData, ProfilerConfig, TracerConfig};
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
/// report digest, JSON report digest, one profile digest per scale.
type Expected = (&'static str, u64, u64, u64, &'static [u64]);

#[rustfmt::skip]
const EXPECTED: &[Expected] = &[
    ("BT", 25378, 0x42fc29f955e2d465, 0x21d57e8900a766ed, &[0xd7f845840c2df8eb, 0x91a45e8ba8ceb292, 0x9474564c0af9224d, 0x44da2882c6f838ed, 0xe31a59b96eae538e]),
    ("CG", 275066, 0xcab259bdc4ddba25, 0x1b665c8eb93e26a0, &[0x4a2eff98090d4920, 0x5fcf52b06aef65cd, 0xb85c256bbc4e24c9, 0x852f13fea1f4b552, 0x92ded92d2638e26b]),
    ("EP", 7177, 0xcda47c7cc150ab4a, 0xd5653c8be60fefcd, &[0xa1a47811061aec1a, 0x495fa6609faa9417, 0x289e9d02c2ccb071, 0xd9715d074e491c34, 0x3640635e5a17c592]),
    ("FT", 16759, 0x980c2c1b94b320ab, 0x4262d0375af42bc5, &[0x60cbdcc02e7471b6, 0x8e588cdb099408ef, 0x7abe31abe00cac9b, 0x9bb76c5aa5779990, 0x6769d00d747bdbd2]),
    ("MG", 271235, 0xec87dcd3fcb8f467, 0x8c4c92c30d0f2040, &[0x3cb44f149aed3ea1, 0xa179f52883bb78cd, 0x625653d91cac9ec3, 0xb2dcd0829360c7c4, 0xb5ef24c005675b14]),
    ("SP", 42628, 0x42fc29f955e2d465, 0x21d57e8900a766ed, &[0x47ca69c149520a94, 0x4983fd1e74704e9a, 0x54dc55c8311e1c40, 0xce8c230d2bea588e, 0x353a3a59d11a9dbb]),
    ("LU", 221807, 0xfd1aeff0bc8493c2, 0xd4bd9e912c0e6e4e, &[0xaa57a7dd3f9116bb, 0x531cb92c65933c9d, 0x80a177a8898e3579, 0x2158cb0ace3b88f4, 0x9bdbfdbcc7d39302]),
    ("IS", 11551, 0xbd5c48b25f37214e, 0xa6963ca4140b8721, &[0xa4e00b8c56ae4bb1, 0x11e7625ca8a1b724, 0xfc91f5ea7032c7e0, 0x8f1065693863de52, 0x977adc5b189925eb]),
    ("SST", 1349502, 0xf42819f311dddb40, 0xb7c9442d094544ca, &[0x1dd35b503776a60f, 0xd253e2859bedc738, 0xd5703d8775f19c23]),
    ("NEK", 1484239, 0x01caa088e8dffbbf, 0x3a455e14f419998b, &[0x72d541da9ceab025, 0xc1030a0e0ebb32f6, 0xc16d1f4608a8d01b]),
    ("ZMP", 82401, 0x14301c40fc97ad3f, 0xdb326dae186849e8, &[0xc89e1d22836e0e41, 0xea25d4185ca33c64, 0xa41e0e4bd271b7d0, 0x08c79eff2766162a, 0x2775697ff38f4bd3]),
    ("CG@large", 1138550, 0x5e3001bc6ee359f7, 0x39959bc8f2f4e323, &[0xb85c256bbc4e24c9, 0x92ded92d2638e26b, 0x7cfe72f674dde9ba]),
    ("LU@large", 611289, 0xe57fc2e09a2c7cb3, 0xd7280acd990ddb36, &[0x80a177a8898e3579, 0x9bdbfdbcc7d39302, 0x3de799936d2deda6]),
    ("wgen-indirect", 1015, 0xee37790b34d41db2, 0xf9e903fee27be5eb, &[0x54d9e4121918a88d, 0x28a1cea18f53c003, 0x9d82514c89356ac0, 0x9de66b7a6407a500]),
    ("overlap_0", 2628, 0x2459407dfbbf5960, 0x7462031d22160335, &[0xb55c0b9546611184, 0xafd248676a8c1b97, 0x169e288e927195bc, 0x7a243a97953402d3, 0x994bdd98bdd09cb8, 0x61906c7a7253d54d]),
    ("overlap_0@2,64", 1380, 0xe67b370df81384e4, 0x5f94369ca75748e7, &[0xb55c0b9546611184, 0x61906c7a7253d54d]),
    ("overlap_1", 1696, 0x9d9de6bab37fb27b, 0xe5c56cc7a17eea8f, &[0x53c7cfe12fbbd2d6, 0xe7464858f2511f55, 0x7144452d41d80206, 0xc92053056207647e, 0x462bb86b9881dcc4, 0xb3e1c10871b29a6d]),
    ("overlap_1@2,64", 890, 0x2f80bdd4b2303539, 0xcc265ada1e4c9048, &[0x53c7cfe12fbbd2d6, 0xb3e1c10871b29a6d]),
    ("overlap_2", 1692, 0xb83f48725a47860f, 0xa91d2f42aed0ee33, &[0xe3e4226de41350ff, 0x8c468cb954bac6d4, 0x693466a77f77d4d7, 0x4fb7bd4cac0c64d4, 0x30ed761f31606384, 0xaecab561340f1763]),
    ("overlap_2@2,64", 900, 0x91490c9af418d83a, 0xd14377bd47dc5722, &[0xe3e4226de41350ff, 0xaecab561340f1763]),
    ("overlap_3", 744, 0xae27958ffd075244, 0x2b3e78c01c9f726a, &[0xbee9979719280b8a, 0x653b8fc45fa83226, 0x8ff6e6aad38627e1, 0x74b14a1cef93c0e4, 0xc49b7cf6a0c59dd0, 0x810ee69457e7a91a]),
    ("overlap_3@2,64", 392, 0xf1c3f3a5ac067baa, 0x07886d977896454d, &[0xbee9979719280b8a, 0x810ee69457e7a91a]),
    ("overlap_4", 1506, 0x64f30b9a1a671376, 0x781fa9e673299e4c, &[0x8d144a9cab96c8ae, 0x0c39db36e3c9d59c, 0x96ceae8cdf3ab7f2, 0x021e3a3800376d20, 0xb773676af8803ac4, 0x92870d0f592bfdaa]),
    ("overlap_4@2,64", 790, 0x93c0afbe0c1d1c9e, 0xeddc0e7af829d7f5, &[0x8d144a9cab96c8ae, 0x92870d0f592bfdaa]),
    ("overlap_5", 4950, 0x755244e41cb71cfb, 0x663ca9cdc20abe35, &[0x7c1b4742eef5e618, 0x8c06602644c52a0d, 0xdf221c57a4935eb9, 0xc0d366b647caad43, 0x93302e697ade6b2a, 0x752e134bf8996ccb]),
    ("overlap_5@2,64", 2598, 0x260e1c75a8278d63, 0xab73c7bd74f61cf0, &[0x7c1b4742eef5e618, 0x752e134bf8996ccb]),
    ("overlap_6", 1218, 0x3ace4b1ed094f575, 0x7062ee8c41022c58, &[0x991f2beb80a6f51e, 0xc3cfa17f3c714b03, 0x3d8d73cc9563d8ee, 0xe8ea9799a9d494ea, 0x10fb148172b8174c, 0x706c79567eb7df80]),
    ("overlap_6@2,64", 646, 0x22439219e379cb5d, 0x48cd38c6d4b738a5, &[0x991f2beb80a6f51e, 0x706c79567eb7df80]),
    ("overlap_7", 719, 0xa0daac868ae4f1e0, 0x72c08481a5a604bc, &[0x1e66783434ccdf15, 0x05915737726dc616, 0x97a74eba09da0521, 0xc346c1302df52bf2, 0xc96594abfd2d7bf4, 0xdca632e9be91da63]),
    ("overlap_7@2,64", 374, 0xb937486fb4b77c3a, 0x5f9609d0bda4a64b, &[0x1e66783434ccdf15, 0xdca632e9be91da63]),
    ("overlap_8", 1632, 0xc06159c5f7e96691, 0x74f6baabef6c02ea, &[0x588143b56b923b0e, 0x8fd07706862b3395, 0x8657951c4897d439, 0x65cdea28ee7b6062, 0xcc371672ecf2378e, 0xd47869babbe2e155]),
    ("overlap_8@2,64", 856, 0x75c8fe1bdf916797, 0x80393912c48e4a00, &[0x588143b56b923b0e, 0xd47869babbe2e155]),
    ("overlap_9", 498, 0xa5068b4a22a55a0e, 0xdb40b8799a0a54e1, &[0xe0f081704c8e480c, 0xac993731b93c6202, 0x4fff9648bca548f8, 0xa43b7e016693051f, 0x0128eac667d22f71, 0xc844f07782d715b4]),
    ("overlap_9@2,64", 262, 0xa1e2c80f32ada167, 0x2af9c98d66b08125, &[0xe0f081704c8e480c, 0xc844f07782d715b4]),
    ("overlap_10", 252, 0x15e0030f48991888, 0x1c65acb041b00d93, &[0x55fcebb04993f17c, 0xd0dcc238686ca60d, 0x3a4bb664f0311f42, 0xc7c18bc1cd109caf, 0xb08ed54c4aabe319, 0xa2d41ed637eb192d]),
    ("overlap_10@2,64", 132, 0x94606435734f8b44, 0x458f35e4ac7f18be, &[0x55fcebb04993f17c, 0xa2d41ed637eb192d]),
    ("overlap_11", 6996, 0x41d81044ced8675d, 0x593ba5332ae1ea81, &[0x842a5bb8c7c5266d, 0x6c9847ab14fd03ba, 0xf6b744e1c355b92f, 0x5bb49912f4eb6f5a, 0x1871a84d918e1d94, 0xb34bb6d698e45cbe]),
    ("overlap_11@2,64", 3684, 0x9fbfe04e9f9e7568, 0x61908b5b557ffac4, &[0x842a5bb8c7c5266d, 0xb34bb6d698e45cbe]),
    ("overlap_12", 2703, 0x57ba7e7719204e40, 0xf2ecebe6ed9fa577, &[0x9af79018378fbb02, 0xf6e74543acf4c269, 0xb24a558fa4280943, 0x95cf51b7f2335837, 0x22e7e4f86625adc2, 0xdc76dffd82b89fff]),
    ("overlap_12@2,64", 1417, 0x4aa5d19f3832420d, 0x6b21c585e3e058e6, &[0x9af79018378fbb02, 0xdc76dffd82b89fff]),
    ("overlap_13", 2010, 0x519ebc31f5a2840a, 0xab13e38bf641dca4, &[0x845eb72a87f0366c, 0xad6305d22311775a, 0x902ca44ca7514967, 0x75d1e1fe3cdd44bf, 0x9516bdff3c731349, 0xba9bcf958c603adb]),
    ("overlap_13@2,64", 1054, 0x29854ec66c0e6cc6, 0xe484d2b0e894cdf2, &[0x845eb72a87f0366c, 0xba9bcf958c603adb]),
    ("overlap_14", 1665, 0xe4f0fad5934d47a3, 0x46a25bc06377ae34, &[0xe89249aa7d4eac8d, 0xe9d5c46d21fd1e68, 0x53b4e734e84a7d80, 0x8cbaad0b7c77ceef, 0x12956cdab2643f6a, 0x363644203d188655]),
    ("overlap_14@2,64", 879, 0x1b2a03d4113a3ff1, 0x555de4e094f96e49, &[0xe89249aa7d4eac8d, 0x363644203d188655]),
    ("overlap_15", 10112, 0xecace4bfbb6ac33a, 0xde0e4f927f2082ae, &[0xcbef594856a685e5, 0x3e083cc6636636d0, 0x19f103b0dca6685d, 0x210e8beb4e41d0e3, 0x7f4986d816b603c2, 0x64bfa6225e1ebcc7]),
    ("overlap_15@2,64", 5300, 0x608bef440f173a31, 0xa68eb49ade3ab9fe, &[0xcbef594856a685e5, 0x64bfa6225e1ebcc7]),
    ("overlap_16", 11278, 0x0c95173def27982d, 0x095e234d13f3ac42, &[0xadbb8049812ae62e, 0x38ff1ee6b88ee709, 0x33dc09b111bed90c, 0x3f2c580935e1584b, 0xb120ad1bc58a84f2, 0xe44c0da450450555]),
    ("overlap_16@2,64", 5947, 0x0790b1e05cf00955, 0xfe5340d3e100d0e2, &[0xadbb8049812ae62e, 0xe44c0da450450555]),
    ("overlap_17", 21285, 0x63976af78b55d0ef, 0xed1dacdf91d6c5a6, &[0xcddacfc5cad2ff7b, 0x354128eacd96c2e7, 0x756741f9d19c8d3a, 0x48a5bd4f80a43d8e, 0xbf6bc8dddf46766f, 0xe98de673ac3ccd69]),
    ("overlap_17@2,64", 11163, 0x049e65af70074e96, 0x1b229e77f1046020, &[0xcddacfc5cad2ff7b, 0xe98de673ac3ccd69]),
    ("overlap_18", 6144, 0xada819633b2c8759, 0xa587d3e63222b397, &[0x67569326b8c2d20f, 0xc621cec7bd5c7c1a, 0x2b0a1788307763bf, 0x6d33cfa4f72b3b56, 0x48d08ec58887007b, 0x7b26df73a16f1de3]),
    ("overlap_18@2,64", 3224, 0x76a2e804d3a62532, 0x30f5eaa5d0c66ab5, &[0x67569326b8c2d20f, 0x7b26df73a16f1de3]),
    ("overlap_19", 693, 0xf0f568d8c971acdd, 0x114d67f9058f12fd, &[0x3364014f9f918654, 0x83c2a10688fecc89, 0xc8908b10f6067105, 0xbe5bcdbf9d55101a, 0x699beb030883304f, 0x4afdfdd9b3d79099]),
    ("overlap_19@2,64", 363, 0x429f30fbba534511, 0x3c3f3af8d23d99e0, &[0x3364014f9f918654, 0x4afdfdd9b3d79099]),
    ("overlap_20", 1563, 0xaccd90b8580fcb8f, 0x71290e36e105481d, &[0x84e3ee6fca6a48fc, 0x6b305fb4fc3b7dec, 0x22087ce193ee3486, 0x716c62a431a450b7, 0xe1d14879f1ccb50b, 0xceacd892c2e0dbee]),
    ("overlap_20@2,64", 821, 0x2cd9a67b3135e5bf, 0x7cd1de6e3331fefe, &[0x84e3ee6fca6a48fc, 0xceacd892c2e0dbee]),
    ("overlap_21", 1449, 0x5c6f2da44d3c8702, 0xc7b11c69e0004e95, &[0x494967ffcb0be005, 0x0f56905f7d4a4b5c, 0x820b9615afad487c, 0x969e55567dd294f3, 0x7ffd2d83f09694a6, 0xe307876b9263894c]),
    ("overlap_21@2,64", 759, 0xe93ad1cbf074b5ac, 0xc094372e97814330, &[0x494967ffcb0be005, 0xe307876b9263894c]),
    ("overlap_22", 1224, 0xe0a4a94c153a6e61, 0x2d6cd92df2d7bf31, &[0x2c3ee46619dfff57, 0x89ee36cad6097b89, 0xac40183372eb402b, 0xf6cf75587750059f, 0x79d218aadada6c74, 0x2cb71ac7689b2546]),
    ("overlap_22@2,64", 648, 0xefbbacf817ed9daa, 0x3a9b7c190d8b6b0d, &[0x2c3ee46619dfff57, 0x2cb71ac7689b2546]),
    ("overlap_23", 1386, 0xa5dffcef8f72e9da, 0x6102a09bc6043e1b, &[0xbca12b7da0f5bbb9, 0xa761e025e00ca7cb, 0xdcca724765febd0e, 0x322aa85d27e94aac, 0x7eece686a57faed8, 0xf173e1b57e72d530]),
    ("overlap_23@2,64", 726, 0x7d45b60a1e04b116, 0x0e9d84f0ef0724db, &[0xbca12b7da0f5bbb9, 0xf173e1b57e72d530]),
    ("overlap_24", 693, 0x467f2389b9a9b709, 0x92c75e2097dae8f7, &[0xda4e477b43125643, 0x94bef47bd3353435, 0xd5eb56879952dd55, 0xe0c0ffb54d3ce19a, 0xbc947dcfe38c086f, 0x1598a6d42292c499]),
    ("overlap_24@2,64", 363, 0xf2d394a18ae006f3, 0x5eb98fae01957e28, &[0xda4e477b43125643, 0x1598a6d42292c499]),
    ("overlap_25", 732, 0xdbb55dd89a24ccb8, 0xa5d21f6da224344c, &[0x0c19f0688f3d7dd1, 0x27c4835f74f02e48, 0x129b3a18487a5552, 0xe5ed6b22d0671ed4, 0x6933274305ed1d14, 0x511e033a69da9c68]),
    ("overlap_25@2,64", 384, 0x3e435ea11d548d05, 0x188181055a7a32fe, &[0x0c19f0688f3d7dd1, 0x511e033a69da9c68]),
    ("overlap_26", 504, 0x8a91f0eb0665d692, 0x8f51def87bb75e53, &[0xabd01e134986c3ad, 0x61e513050861c8ba, 0x31b274b2711c82c7, 0x0f2f2f6964ae80be, 0xd7a75d390f10dd3c, 0xda0336bc546757f3]),
    ("overlap_26@2,64", 264, 0x2dc6116b4d7897a0, 0xaa2379b683076083, &[0xabd01e134986c3ad, 0xda0336bc546757f3]),
    ("overlap_27", 2604, 0x7e57301ab9d0d853, 0x4baba650f4985863, &[0x328d1462843671cd, 0xf6fd298957946ce7, 0x7bc31f55ed456bc3, 0xdabee8206a6f4efa, 0x6a1937bd3121d1d3, 0x37d6e7cd77d47756]),
    ("overlap_27@2,64", 1372, 0x74554838caf80cce, 0xb2d9b26f5f37d9b5, &[0x328d1462843671cd, 0x37d6e7cd77d47756]),
    ("overlap_28", 2970, 0x9ae5134694def804, 0x650916ef78c8d8f7, &[0xa8b616eef999441d, 0xc980e4878fe47750, 0xeb0147da8ca5d6ee, 0xafe0a16e3d22a108, 0xaa2f2ff9ed821050, 0x51a7b508e49e78a0]),
    ("overlap_28@2,64", 1566, 0xdd17dab465e02621, 0x9077b9b249751beb, &[0xa8b616eef999441d, 0x51a7b508e49e78a0]),
    ("overlap_29", 1512, 0x25a30921a6ad4f4b, 0xc6666e48c5bc1052, &[0xdf76274f28ba6084, 0xd2698aab2530d08d, 0xcba017b81a374c3d, 0x43693f6f0ebf5ee5, 0x4d085f7a8d4a8405, 0xf776613249881585]),
    ("overlap_29@2,64", 792, 0x50612c81638be193, 0x187f7877738ebaae, &[0xdf76274f28ba6084, 0xf776613249881585]),
    ("overlap_30", 2850, 0x1583b4138a00a80d, 0x7a37cc079706728d, &[0x6f41ededf468d50b, 0xcc6d1565cd431937, 0x7ccd2ab90ffacfda, 0xfb294f384da5dc42, 0xb1f35563f0d82418, 0x0b514b2b165ac759]),
    ("overlap_30@2,64", 1502, 0x5457d84fc8f35363, 0x3b8ca025dec320ee, &[0x6f41ededf468d50b, 0x0b514b2b165ac759]),
    ("overlap_31", 1216, 0x3555f1d5c5550b54, 0x7b27d83393110b88, &[0xd79bac2d7091ede4, 0xfd7d4b91899b54d3, 0xb4a8bf43e3065bc8, 0x5b4799214bfb9337, 0x093adc84b242b03f, 0xfb432f7b01db5a4a]),
    ("overlap_31@2,64", 633, 0x10544e1645361b2c, 0xfee733046c2a18f0, &[0xd79bac2d7091ede4, 0xfb432f7b01db5a4a]),
    ("overlap_32", 1443, 0x89c28dd93d645398, 0x08058e18da1631e7, &[0x06313e70efba7aa8, 0x5e49fd0bfa10c393, 0x33c5933202d99abe, 0x5fc7cd6be21391ba, 0x327efa034c241c14, 0x58a9792b463d5b8b]),
    ("overlap_32@2,64", 757, 0x09bc324e3885665b, 0xd64ccf8e2d7a1ff2, &[0x06313e70efba7aa8, 0x58a9792b463d5b8b]),
    ("overlap_33", 2348, 0x34a9b6518bcd110a, 0x49ed42344d7aa903, &[0xbd563864619447a7, 0x7bd4521c2c47c29f, 0xde0c4743eb1e946c, 0x85afacae3e04a65c, 0x496569e7a1c2d989, 0x9c88d6f21abda4a4]),
    ("overlap_33@2,64", 1231, 0x96bac8d13c1702ae, 0x1aa0d8bb4692a085, &[0xbd563864619447a7, 0x9c88d6f21abda4a4]),
    ("overlap_34", 4488, 0xc8b50ce48e9b05fb, 0x1c31fbc14978495d, &[0x2a00ab72c3025e4d, 0x9c0edef3f8ab1f3c, 0x3c63e4974ac14b44, 0x9c7e9f637f5d39a5, 0x640ece155a87a1e7, 0x4895ec22d72bba87]),
    ("overlap_34@2,64", 2352, 0x4ce996a2f9d1518d, 0x45eb4fa6bc26aeaf, &[0x2a00ab72c3025e4d, 0x4895ec22d72bba87]),
    ("overlap_35", 8520, 0x02826ccbd02d6f3a, 0xe216ed105c0eb7a9, &[0x425775aeb3696d40, 0xad3357f0de3bdc2d, 0x9f8886afec060fae, 0x4154837b9a86f1cc, 0x8911417d4b6f03d6, 0x04f6ced71b8356f7]),
    ("overlap_35@2,64", 4472, 0xb3c495dc86572250, 0x26fb25eefd5c3255, &[0x425775aeb3696d40, 0x04f6ced71b8356f7]),
    ("overlap_36", 1413, 0x175f157174e1d1d6, 0x6f772aca9bb78a54, &[0x03c06daed8d7e747, 0xea364aa265cce71e, 0xa7645157e3184ae0, 0x4e07b86b0cba0baa, 0x833a8933dfb6b440, 0xf7d0d726c550fa5d]),
    ("overlap_36@2,64", 747, 0x6d477ee86adc51bc, 0x4ceb1da293c061bf, &[0x03c06daed8d7e747, 0xf7d0d726c550fa5d]),
    ("overlap_37", 1689, 0x6925765c02885b81, 0x8c01ec061018e5ec, &[0x61c6bfbc0bd9dd50, 0x650ff02f23ff461b, 0x39e1911d2aef02e3, 0xd8d6cc9a48cd546c, 0xad54d0bca855314b, 0xf12fb0cbd5050b68]),
    ("overlap_37@2,64", 887, 0x777c4492804d59e7, 0x859a988fa95bdfa0, &[0x61c6bfbc0bd9dd50, 0xf12fb0cbd5050b68]),
    ("overlap_38", 6497, 0xbc1d21cd785ec5ba, 0xaea8b7b6602d1dd3, &[0xc53e794ebd03dfff, 0xab0a72eae8ce71d4, 0x1c707b03000f8318, 0xf72c95daefe90664, 0x092ed5411d2db433, 0x0ab413bd80e10ad6]),
    ("overlap_38@2,64", 3409, 0x35b7f2a09bae941d, 0xf461fddb4c92478f, &[0xc53e794ebd03dfff, 0x0ab413bd80e10ad6]),
    ("overlap_39", 1638, 0x95b74f3827e2be7f, 0x49de15b59c6ba2fc, &[0xb5d14e87f160d77b, 0x578deecea1d08a31, 0x737a2253d98936b2, 0x0cbcb3b61a65ce7f, 0x45340aaed22fff39, 0xe2886450692e1ced]),
    ("overlap_39@2,64", 858, 0xdf48d7e1b6de28b9, 0x3f1fdb8818bfc89f, &[0xb5d14e87f160d77b, 0xe2886450692e1ced]),
    ("overlap_40", 1098, 0xd0e1ae384150b097, 0x81748f9f50bcffe4, &[0xfa2d7bbc03f4eb4a, 0x697129b7ac758778, 0xaea46e1bb7b402cc, 0xc99edc43f67ca8f1, 0xb29404670c4b7890, 0x7a0f6fdf587a7fe8]),
    ("overlap_40@2,64", 577, 0x6b3b927d16590890, 0x5f3cac13363bbc4a, &[0xfa2d7bbc03f4eb4a, 0x7a0f6fdf587a7fe8]),
    ("overlap_41", 7995, 0xcc6dff6c1781202b, 0x3cd9c0ba31f8b814, &[0xade90f16bf5a14ab, 0x5f2de145dfaf3cf1, 0xe4e4097750d2b32a, 0x9553f748e0b832c9, 0x09a0d04a66ee7db2, 0x74e46fac4e416c38]),
    ("overlap_41@2,64", 4189, 0x9775eec0f812c624, 0x542be829b4878f06, &[0xade90f16bf5a14ab, 0x74e46fac4e416c38]),
    ("overlap_42", 1727, 0xfcc91b3ca4690a0f, 0x9b51604c7c7f8c8c, &[0xedfeaa31d3fa2876, 0xd01d565ae1e30425, 0xddac272021110059, 0xf40d797dd5504134, 0xf10c26d26f365a72, 0x909d2d3765e04515]),
    ("overlap_42@2,64", 902, 0xf46d205adf416bbe, 0x2b46a1d830af8698, &[0xedfeaa31d3fa2876, 0x909d2d3765e04515]),
    ("overlap_43", 1326, 0x22ea9df5fd9a45b0, 0x6c665e6225634542, &[0x98b75ecce4b0c2d3, 0x2b76da85ab6e0a9a, 0x7a799aa1fe262155, 0x13f692511357fd4a, 0x0c278c030cab6894, 0x9a060219dd7549e8]),
    ("overlap_43@2,64", 696, 0x9151405a21793adf, 0xe89962037ddc48a6, &[0x98b75ecce4b0c2d3, 0x9a060219dd7549e8]),
    ("overlap_44", 2205, 0xa624d55cbf36e23b, 0x939db9e676e569f6, &[0x35084a5850c5204f, 0x3f1d1c26a54eabe4, 0xf1ff5d05014a3010, 0x9e844c3eb0b2519b, 0x5d81fc89b3809951, 0xf6756f1767b9bbe2]),
    ("overlap_44@2,64", 1155, 0xbe9309ed9994c90c, 0xf91bb7f06cc41677, &[0x35084a5850c5204f, 0xf6756f1767b9bbe2]),
    ("overlap_45", 972, 0x0567e3a537416827, 0x095ae7336ce33abe, &[0x9370411ae48f012c, 0x5f81e8c6e00d8771, 0x441c851c8cf90f3d, 0x1de4c53dd794f23d, 0xad3d5bdc10ccece5, 0x163d1559cd64f3c7]),
    ("overlap_45@2,64", 516, 0x7176ce9c835da427, 0x904757a1bee9e098, &[0x9370411ae48f012c, 0x163d1559cd64f3c7]),
    ("overlap_46", 1701, 0x6296d77d11d4c635, 0x70e79939abc5ca85, &[0x9e566107700788b9, 0xb8a8d084c2573b67, 0xa16057fa23a260c9, 0xba3bb7804d1370bd, 0x13760dc5fd67623a, 0x29455b9bdb04ce74]),
    ("overlap_46@2,64", 891, 0x0d5a128c7fcacb00, 0xe0683d5d9ea13cea, &[0x9e566107700788b9, 0x29455b9bdb04ce74]),
    ("overlap_47", 2352, 0xb0c92a227022cdbd, 0x7d4cd9ae9c24b89d, &[0x92641e8adfe9ac7f, 0xfa9e4dbb7bd1d2e7, 0xdddb3eddc104166f, 0xc7dcdc7c5d3ee0c1, 0x88cdc2d56f93efaf, 0x7a7c23cb3f321dc5]),
    ("overlap_47@2,64", 1240, 0xe9eba67a3230296d, 0x45df0c73a0eb0dbf, &[0x92641e8adfe9ac7f, 0x7a7c23cb3f321dc5]),
    ("loop-shapes", 1673, 0xd1ffd63699853cf8, 0x25a9df106b1e6006, &[0xcc7907465a152da8, 0x7f2cf06503bdad88, 0x2b1207d187ad70b7]),
    ("request-shapes", 4477, 0x992ece6624178443, 0x78d68b0c713eb68f, &[0x33746611d73851b4, 0x8062cbc51cf83d14, 0xfdd964b4b82ee4a5]),
    ("wgen7x200@2,3,8", 46212, 0x1e2f53927d84509e, 0x72668264697b8e98, &[0xf0a7305d18002e81, 0x483fca8bbab4e26b, 0x037032990f26bfd1]),
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
/// JSON and per-scale profile digests each digested in program order.
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
        profiles: (0..POPULATION_SCALES.len())
            .map(|i| fold(&|r| r.profiles[i]))
            .collect(),
    }
}

/// FNV-1a of every field of `data` in order, each written as a
/// little-endian `u64`, floats by their bits (as
/// `tests/tool_comparison.rs::profile_bits` walks them). The indirect
/// calls are left out: no analysis reads them.
fn profile_digest(data: &ProfileData) -> u64 {
    let mut hasher = StableHasher::new();
    let mut put = |word: u64| hasher.write_bytes(&word.to_le_bytes());
    put(data.nprocs as u64);
    put(data.storage_bytes);
    put(data.sample_count);
    for t in &data.rank_elapsed {
        put(t.to_bits());
    }
    for &((vertex, rank), p) in &data.perf {
        put(u64::from(vertex));
        put(rank as u64);
        put(p.count);
        for v in [
            p.time,
            p.tot_ins,
            p.tot_cyc,
            p.lst_ins,
            p.l2_miss,
            p.br_miss,
            p.wait_time,
            p.bytes,
        ] {
            put(v.to_bits());
        }
    }
    for &((src_rank, src_vertex, dst_rank, dst_vertex), agg) in &data.comm {
        put(src_rank as u64);
        put(u64::from(src_vertex));
        put(dst_rank as u64);
        put(u64::from(dst_vertex));
        put(agg.count);
        put(agg.bytes);
        put(agg.wait_time.to_bits());
    }
    hasher.finish()
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
    profiles: Vec<u64>,
}

impl Row {
    fn line(&self) -> String {
        let profiles: Vec<String> = self.profiles.iter().map(|d| format!("{d:#018x}")).collect();
        format!(
            "    (\"{}\", {}, {:#018x}, {:#018x}, &[{}]),",
            self.label,
            self.events,
            self.report,
            self.report_json,
            profiles.join(", ")
        )
    }
}

/// One simulated scale: its event count, profile digest and profile.
struct Scale {
    nprocs: usize,
    events: u64,
    content: u64,
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
                content: profile_digest(&data),
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
                profiles: picked.iter().map(|s| s.content).collect(),
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
        .map(|&(label, events, report, report_json, profiles)| Row {
            label: label.to_string(),
            events,
            report,
            report_json,
            profiles: profiles.to_vec(),
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
