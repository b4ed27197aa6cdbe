//! Property-based tests for the profile store
//! (`store::save`/`store::load`):
//! - **round trip** — whatever is written decodes back losslessly and
//!   re-encodes to the same bytes;
//! - **truncation fuzz** — any strict prefix of a valid image is
//!   rejected; no cut point panics;
//! - **mutation fuzz** — flipped, overwritten, inserted, deleted or cut
//!   bytes never make `load` panic, and an image it accepts is the one
//!   `save` writes for what it decoded;
//! - **corruption** — bad headers and images inconsistent with their
//!   rank count are rejected with typed errors.

use bytes::Bytes;
use proptest::prelude::*;
use scalana_graph::VertexPerf;
use scalana_profile::data::{comm_order, CommAgg};
use scalana_profile::{store, ProfileData};
use std::collections::BTreeMap;

/// `value`, or a zero of either sign when `bit` of `zeros` is set:
/// `+0.0` is left out of an image, `-0.0` is kept.
fn zeroed(value: f64, zeros: u16, negative: bool, bit: u32) -> f64 {
    match (zeros >> bit & 1, negative) {
        (0, _) => value,
        (_, false) => 0.0,
        (_, true) => -0.0,
    }
}

/// A synthetic (but structurally valid) profile: every table populated
/// with arbitrary values, any subset of a perf entry's fields zero
/// (either sign for a float), and keys and counts from one to several
/// varint bytes. Ranks are consistent with `nprocs` — one elapsed time
/// per rank, every perf and comm rank below it — and each table's keys
/// are unique and sorted in the order `ProfileData` keeps them, as
/// `store::load` requires.
fn arb_profile() -> BoxedStrategy<ProfileData> {
    (
        1usize..8,
        proptest::collection::vec(0.0f64..100.0, 8..9),
        proptest::collection::vec(
            (
                (0u32..1 << 20, 0usize..8),
                (0.0f64..5.0, 0u64..u64::MAX, 0.0f64..1e9),
                (0u16..512, 0u8..2),
            ),
            0..24,
        ),
        proptest::collection::vec(
            (
                (0usize..8, 0u32..1 << 20, 0usize..8, 0u32..64),
                (0u64..100, 0u64..1 << 40, 0.0f64..2.0),
            ),
            0..24,
        ),
        0u64..u64::MAX,
    )
        .prop_map(|(nprocs, mut elapsed, perf, comm, storage_bytes)| {
            let mut data = ProfileData::new(nprocs);
            elapsed.truncate(nprocs);
            elapsed[0] = -0.0;
            data.rank_elapsed = elapsed;
            data.storage_bytes = storage_bytes;
            data.sample_count = 678;
            let mut perf_by_key = BTreeMap::new();
            for ((vertex, rank), (time, count, ins), (zeros, negative)) in perf {
                let float = |value, bit| zeroed(value, zeros, negative == 1, bit);
                perf_by_key.insert(
                    (vertex, rank % nprocs),
                    VertexPerf {
                        time: float(time, 1),
                        count: if zeros & 1 == 0 { count } else { 0 },
                        tot_ins: float(ins, 2),
                        tot_cyc: float(ins * 1.25, 3),
                        lst_ins: float(ins / 4.0, 4),
                        l2_miss: float(ins / 400.0, 5),
                        br_miss: float(ins / 1000.0, 6),
                        wait_time: float(time / 2.0, 7),
                        bytes: float(64.0, 8),
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
            data
        })
        .boxed()
}

/// Apply one `(kind, at, byte)` edit to `image`, `at` taken modulo its
/// length. Besides flips, overwrites, inserts, deletes and cuts, two
/// edits aim at what only the canonical-form checks catch: widening a
/// byte into a two-byte varint of the same value (`b` → `b|0x80, 0`)
/// and zeroing eight bytes, which turns an aligned float into a present
/// `+0.0`.
fn mutate(image: &mut Vec<u8>, (kind, at, byte): (u8, usize, u8)) {
    if image.is_empty() {
        return;
    }
    let at = at % image.len();
    match kind {
        0 => image[at] ^= byte.max(1),
        1 => image[at] = byte,
        2 => image.insert(at, byte),
        3 => {
            image.remove(at);
        }
        4 => image.truncate(at),
        5 => {
            image[at] |= 0x80;
            image.insert(at + 1, 0);
        }
        _ => {
            let end = image.len().min(at + 8);
            image[at..end].fill(0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `store::save` → `store::load` is lossless for arbitrary profiles.
    #[test]
    fn store_round_trip_is_lossless(data in arb_profile()) {
        let image = store::save(&data);
        let loaded = store::load(image.clone()).unwrap();
        prop_assert_eq!(loaded.nprocs, data.nprocs);
        prop_assert_eq!(loaded.rank_elapsed, data.rank_elapsed);
        prop_assert_eq!(loaded.perf, data.perf);
        prop_assert_eq!(loaded.comm, data.comm);
        prop_assert_eq!(loaded.storage_bytes, data.storage_bytes);
        prop_assert_eq!(loaded.sample_count, data.sample_count);
        let bits = |p: &ProfileData| -> Vec<u64> {
            let elapsed = p.rank_elapsed.iter().map(|t| t.to_bits());
            let perf = p.perf.iter().flat_map(|(_, v)| {
                [v.time, v.tot_ins, v.tot_cyc, v.lst_ins, v.l2_miss, v.br_miss, v.wait_time, v.bytes]
                    .map(f64::to_bits)
            });
            elapsed.chain(perf).collect()
        };
        // `==` on floats takes -0.0 for +0.0; the bits must match too.
        prop_assert_eq!(bits(&loaded), bits(&data));
        prop_assert!(store::save(&loaded) == image, "re-encoding moved a byte");
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

    /// Flipping the first byte of the magic or planting any other
    /// version (the retired version 1 included) yields the matching
    /// typed error.
    #[test]
    fn store_rejects_corrupt_headers(
        data in arb_profile(),
        version in (0u16..99).prop_map(|v| if v >= 2 { v + 1 } else { v }),
    ) {
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
    /// perf or comm rank at or past `nprocs` — is rejected, before
    /// anything sized by `nprocs` exists. The per-rank times carry no
    /// count of their own, so the first three faults shift every later
    /// field and fail wherever the misread first breaks a rule; a rank
    /// count whose times cannot fit in the image is `Truncated`.
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
            2 if excess > 0 => prop_assert!(
                matches!(result, Err(store::LoadError::Truncated)),
                "fault 2 loaded: {:?}", result.map(|d| d.nprocs)
            ),
            0..=2 => prop_assert!(
                result.is_err(),
                "fault {} loaded: {:?}", fault, result.map(|d| d.nprocs)
            ),
            _ => prop_assert!(
                matches!(result, Err(store::LoadError::RankOutOfRange { rank, .. }) if rank == bad_rank),
                "fault {} loaded: {:?}", fault, result.map(|d| d.nprocs)
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Random edits of a valid image never make `load` panic, and
    /// whatever it accepts is canonical: `save(load(b)) == b`.
    #[test]
    fn store_mutations_never_panic_and_accepted_images_are_canonical(
        data in arb_profile(),
        edits in proptest::collection::vec((0u8..7, 0usize..1 << 16, 0u8..=255), 1..4),
    ) {
        let mut image = store::save(&data).to_vec();
        for edit in edits {
            mutate(&mut image, edit);
        }
        let image = Bytes::from(image);
        if let Ok(loaded) = store::load(image.clone()) {
            prop_assert!(store::save(&loaded) == image, "accepted a non-canonical image");
        }
    }
}
