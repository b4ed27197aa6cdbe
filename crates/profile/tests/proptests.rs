//! Property-based tests for the profile persistence layer: the record
//! codec (`RecordWriter`/`RecordReader`) and the profile store
//! (`store::save`/`store::load`).
//!
//! Two properties per format:
//! - **round trip** — whatever is written decodes back losslessly;
//! - **truncation fuzz** — any prefix of a valid image is rejected
//!   (store) or cleanly ends the stream (codec); no cut point panics.

use bytes::Bytes;
use proptest::prelude::*;
use scalana_graph::VertexPerf;
use scalana_profile::codec::{Record, RecordReader, RecordWriter};
use scalana_profile::data::{comm_order, CommAgg};
use scalana_profile::{store, ProfileData};
use std::collections::BTreeMap;

/// A writer call we can replay and compare against the decoded stream.
#[derive(Debug, Clone)]
enum Op {
    VertexPerf(u32, u32, f64, f64, f64),
    CommDep(u32, u32, u32, i32, u64),
    TraceEvent(u32, u32, u8, f64, f64),
    SampleEntry(u32, u32, u64, f64, u32),
    IndirectCall(u32, u32, String),
}

impl Op {
    fn write(&self, w: &mut RecordWriter) {
        match self.clone() {
            Op::VertexPerf(v, r, t, i, wt) => w.vertex_perf(v, r, t, i, wt),
            Op::CommDep(sr, sv, dv, tag, b) => w.comm_dep(sr, sv, dv, tag, b),
            Op::TraceEvent(r, v, k, t, p) => w.trace_event(r, v, k, t, p),
            Op::SampleEntry(r, v, c, t, len) => w.sample_entry(r, v, c, t, len),
            Op::IndirectCall(ctx, stmt, name) => w.indirect_call(ctx, stmt, &name),
        }
    }

    fn matches(&self, record: &Record) -> bool {
        match (self, record) {
            (
                Op::VertexPerf(v, r, t, i, wt),
                Record::VertexPerf {
                    vertex,
                    rank,
                    time,
                    tot_ins,
                    wait,
                },
            ) => v == vertex && r == rank && t == time && i == tot_ins && wt == wait,
            (
                Op::CommDep(sr, sv, dv, tg, b),
                Record::CommDep {
                    src_rank,
                    src_vertex,
                    dst_vertex,
                    tag,
                    bytes,
                },
            ) => sr == src_rank && sv == src_vertex && dv == dst_vertex && tg == tag && b == bytes,
            (
                Op::TraceEvent(r, v, k, t, p),
                Record::TraceEvent {
                    rank,
                    vertex,
                    kind,
                    time,
                    payload,
                },
            ) => r == rank && v == vertex && k == kind && t == time && p == payload,
            (
                Op::SampleEntry(r, v, c, t, len),
                Record::SampleEntry {
                    rank,
                    vertex,
                    count,
                    time,
                    path,
                },
            ) => r == rank && v == vertex && c == count && t == time && path.len() == *len as usize,
            (Op::IndirectCall(c, s, n), Record::IndirectCall { ctx, stmt, callee }) => {
                c == ctx && s == stmt && n == callee
            }
            _ => false,
        }
    }
}

fn arb_op() -> BoxedStrategy<Op> {
    prop_oneof![
        (0u32..64, 0u32..16, 0.0f64..10.0, 0.0f64..1e9, 0.0f64..1.0)
            .prop_map(|(v, r, t, i, w)| Op::VertexPerf(v, r, t, i, w)),
        (0u32..16, 0u32..64, 0u32..64, -1i32..1000, 0u64..1_000_000)
            .prop_map(|(sr, sv, dv, tag, b)| Op::CommDep(sr, sv, dv, tag, b)),
        (0u32..16, 0u32..64, 0u8..8, 0.0f64..10.0, 0.0f64..1e6)
            .prop_map(|(r, v, k, t, p)| Op::TraceEvent(r, v, k, t, p)),
        (0u32..16, 0u32..64, 0u64..10_000, 0.0f64..10.0, 0u32..12)
            .prop_map(|(r, v, c, t, len)| Op::SampleEntry(r, v, c, t, len)),
        (0u32..256, 0u32..256, "[a-z_]{0,24}")
            .prop_map(|(ctx, stmt, name)| Op::IndirectCall(ctx, stmt, name)),
    ]
    .boxed()
}

/// A synthetic (but structurally valid) profile: every table populated
/// with arbitrary values, including non-ASCII callee names. Ranks are
/// consistent with `nprocs` — one elapsed time per rank, every perf and
/// comm rank below it — and each table's keys are unique and sorted in
/// the order `ProfileData` keeps them, as `store::load` requires.
fn arb_profile() -> BoxedStrategy<ProfileData> {
    (
        1usize..8,
        proptest::collection::vec(0.0f64..100.0, 8..9),
        proptest::collection::vec(
            (0u32..64, 0usize..8, 0.0f64..5.0, 0u64..1000, 0.0f64..1e9),
            0..24,
        ),
        proptest::collection::vec(
            (
                (0usize..8, 0u32..64, 0usize..8, 0u32..64),
                (0u64..100, 0u64..65536, 0.0f64..2.0),
            ),
            0..24,
        ),
        proptest::collection::vec((0u32..64, 0u32..64, "[a-zA-Z0-9_]{0,12}"), 0..8),
    )
        .prop_map(|(nprocs, mut elapsed, perf, comm, indirect)| {
            let mut data = ProfileData::new(nprocs);
            elapsed.truncate(nprocs);
            data.rank_elapsed = elapsed;
            data.storage_bytes = 12_345;
            data.sample_count = 678;
            let mut perf_by_key = BTreeMap::new();
            for (vertex, rank, time, count, ins) in perf {
                perf_by_key.insert(
                    (vertex, rank % nprocs),
                    VertexPerf {
                        time,
                        count,
                        tot_ins: ins,
                        tot_cyc: ins * 1.25,
                        lst_ins: ins / 4.0,
                        l2_miss: ins / 400.0,
                        br_miss: ins / 1000.0,
                        wait_time: time / 2.0,
                        bytes: 64.0,
                    },
                );
            }
            data.perf = perf_by_key.into_iter().collect();
            let mut comm_by_order = BTreeMap::new();
            for ((sr, sv, dr, dv), (count, bytes, wait)) in comm {
                let key = (sr % nprocs, sv, dr % nprocs, dv);
                let (_, agg) = comm_by_order
                    .entry(comm_order(&key))
                    .or_insert((key, CommAgg::default()));
                agg.count += count;
                agg.bytes += bytes;
                agg.wait_time += wait;
            }
            data.comm = comm_by_order.into_values().collect();
            for (ctx, stmt, name) in indirect {
                data.indirect_calls.push((ctx, stmt, name));
            }
            data
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every record sequence decodes back to exactly what was written.
    #[test]
    fn codec_round_trip_is_lossless(ops in proptest::collection::vec(arb_op(), 0..32)) {
        let mut writer = RecordWriter::new();
        for op in &ops {
            op.write(&mut writer);
        }
        prop_assert_eq!(writer.record_count(), ops.len() as u64);
        let mut reader = RecordReader::new(writer.freeze());
        for (i, op) in ops.iter().enumerate() {
            let record = reader.next();
            prop_assert!(
                record.as_ref().is_some_and(|r| op.matches(r)),
                "record {} mismatch: wrote {:?}, read {:?}", i, op, record
            );
        }
        prop_assert_eq!(reader.next(), None);
    }

    /// Any truncation point decodes a prefix of the written records and
    /// then cleanly ends the stream — never panics, never invents data.
    #[test]
    fn codec_truncation_yields_clean_prefix(
        ops in proptest::collection::vec(arb_op(), 1..16),
        cut_seed in 0usize..10_000,
    ) {
        let mut writer = RecordWriter::new();
        for op in &ops {
            op.write(&mut writer);
        }
        let full = writer.freeze();
        let cut = cut_seed % full.len();
        let mut reader = RecordReader::new(full.slice(0..cut));
        let mut decoded = 0usize;
        while let Some(record) = reader.next() {
            prop_assert!(decoded < ops.len());
            prop_assert!(
                ops[decoded].matches(&record),
                "prefix record {} diverged at cut {}", decoded, cut
            );
            decoded += 1;
        }
        prop_assert!(decoded <= ops.len());
    }

    /// `store::save` → `store::load` is lossless for arbitrary profiles.
    #[test]
    fn store_round_trip_is_lossless(data in arb_profile()) {
        let image = store::save(&data);
        let loaded = store::load(image).unwrap();
        prop_assert_eq!(loaded.nprocs, data.nprocs);
        prop_assert_eq!(loaded.rank_elapsed, data.rank_elapsed);
        prop_assert_eq!(loaded.perf, data.perf);
        prop_assert_eq!(loaded.comm, data.comm);
        prop_assert_eq!(loaded.indirect_calls, data.indirect_calls);
        prop_assert_eq!(loaded.storage_bytes, data.storage_bytes);
        prop_assert_eq!(loaded.sample_count, data.sample_count);
    }

    /// Every strict prefix of a valid image is rejected with a typed
    /// error — never a panic, never a silently partial profile.
    #[test]
    fn store_truncation_always_errors(
        data in arb_profile(),
        cut_seed in 0usize..10_000,
    ) {
        let image = store::save(&data);
        let cut = cut_seed % image.len(); // strict prefix
        let result = store::load(image.slice(0..cut));
        prop_assert!(result.is_err(), "cut at {} of {} parsed", cut, image.len());
    }

    /// Flipping the first byte of the magic or planting a wrong version
    /// yields the matching typed error.
    #[test]
    fn store_rejects_corrupt_headers(data in arb_profile(), version in 2u16..100) {
        let image = store::save(&data);
        let mut bad_magic = image.as_ref().to_vec();
        bad_magic[0] ^= 0xff;
        prop_assert!(matches!(
            store::load(Bytes::from(bad_magic)),
            Err(store::LoadError::BadMagic)
        ));
        let mut bad_version = image.as_ref().to_vec();
        bad_version[4..6].copy_from_slice(&version.to_le_bytes());
        prop_assert!(matches!(
            store::load(Bytes::from(bad_version)),
            Err(store::LoadError::BadVersion(v)) if v == version
        ));
    }

    /// An image whose tables disagree with its rank count — too many or
    /// too few per-rank times, a rank count far beyond its contents, a
    /// perf or comm rank at or past `nprocs` — is rejected with the
    /// matching typed error, before anything sized by `nprocs` exists.
    #[test]
    fn store_rejects_images_inconsistent_with_their_rank_count(
        data in arb_profile(),
        fault in 0usize..5,
        excess in 0usize..1_000_000,
    ) {
        let mut data = data;
        let nprocs = data.nprocs;
        let bad_rank = (nprocs + excess) as u64;
        match fault {
            0 => data.rank_elapsed.push(1.0),
            1 => { data.rank_elapsed.pop(); }
            2 => data.nprocs = nprocs + 1 + excess * 1_000_000,
            3 => {
                // In key order, so the rank is the only fault.
                let key = (0, nprocs + excess);
                let at = data.perf.partition_point(|(k, _)| *k < key);
                data.perf.insert(at, (key, VertexPerf::default()));
            }
            // Its destination rank sorts it after every valid edge.
            _ => data.comm.push(((0, 1, nprocs + excess, 2), Default::default())),
        }
        let result = store::load(store::save(&data));
        match fault {
            0..=2 => prop_assert!(
                matches!(result, Err(store::LoadError::ElapsedLen { .. })),
                "fault {} loaded: {:?}", fault, result.map(|d| d.nprocs)
            ),
            _ => prop_assert!(
                matches!(result, Err(store::LoadError::RankOutOfRange { rank, .. }) if rank == bad_rank),
                "fault {} loaded: {:?}", fault, result.map(|d| d.nprocs)
            ),
        }
    }
}
