//! Property-based tests for the profile store
//! (`store::save`/`store::load`):
//! - **round trip** — whatever is written decodes back losslessly;
//! - **truncation fuzz** — any strict prefix of a valid image is
//!   rejected; no cut point panics;
//! - **corruption** — bad headers and images inconsistent with their
//!   rank count are rejected with typed errors.

use bytes::Bytes;
use proptest::prelude::*;
use scalana_graph::VertexPerf;
use scalana_profile::data::{comm_order, CommAgg};
use scalana_profile::{store, ProfileData};
use std::collections::BTreeMap;

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
