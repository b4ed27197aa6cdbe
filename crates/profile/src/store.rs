//! Persistence of profile data (paper §V workflow).
//!
//! `ScalAna-prof` runs write one profile file per job scale;
//! `ScalAna-detect` loads them post-mortem. This module serializes
//! [`ProfileData`] to a self-contained binary image and back, so the two
//! stages can run in separate processes — as the real tool's do.
//!
//! The image lists perf entries by `(vertex, rank)` and comm edges by
//! `(dst_rank, dst_vertex, src_rank, src_vertex)`, the orders
//! [`ProfileData`] already keeps them in: `save` writes the lists as
//! they are, and `load` pushes entries in image order and rejects an
//! image whose keys are not strictly increasing
//! ([`LoadError::Unordered`]), so a loaded profile keeps the invariant
//! without sorting or hashing.

use crate::data::{comm_order, CommAgg, ProfileData};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use scalana_graph::VertexPerf;

const MAGIC: u32 = 0x5ca1_a701;
const VERSION: u16 = 1;

/// Serialize a profile to bytes.
pub fn save(data: &ProfileData) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u32_le(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u64_le(data.nprocs as u64);
    buf.put_u64_le(data.storage_bytes);
    buf.put_u64_le(data.sample_count);

    buf.put_u64_le(data.rank_elapsed.len() as u64);
    for t in &data.rank_elapsed {
        buf.put_f64_le(*t);
    }

    debug_assert!(data.perf.windows(2).all(|w| w[0].0 < w[1].0));
    buf.put_u64_le(data.perf.len() as u64);
    for ((vertex, rank), p) in &data.perf {
        buf.put_u32_le(*vertex);
        buf.put_u64_le(*rank as u64);
        buf.put_f64_le(p.time);
        buf.put_u64_le(p.count);
        buf.put_f64_le(p.tot_ins);
        buf.put_f64_le(p.tot_cyc);
        buf.put_f64_le(p.lst_ins);
        buf.put_f64_le(p.l2_miss);
        buf.put_f64_le(p.br_miss);
        buf.put_f64_le(p.wait_time);
        buf.put_f64_le(p.bytes);
    }

    debug_assert!(data
        .comm
        .windows(2)
        .all(|w| comm_order(&w[0].0) < comm_order(&w[1].0)));
    buf.put_u64_le(data.comm.len() as u64);
    for ((src_rank, src_vertex, dst_rank, dst_vertex), agg) in &data.comm {
        buf.put_u64_le(*src_rank as u64);
        buf.put_u32_le(*src_vertex);
        buf.put_u64_le(*dst_rank as u64);
        buf.put_u32_le(*dst_vertex);
        buf.put_u64_le(agg.count);
        buf.put_u64_le(agg.bytes);
        buf.put_f64_le(agg.wait_time);
    }

    buf.put_u64_le(data.indirect_calls.len() as u64);
    for (ctx, stmt, callee) in &data.indirect_calls {
        buf.put_u32_le(*ctx);
        buf.put_u32_le(*stmt);
        buf.put_u16_le(callee.len() as u16);
        buf.put_slice(callee.as_bytes());
    }
    buf.freeze()
}

/// Deserialization failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// Not a profile image.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// Truncated or corrupt payload.
    Truncated,
    /// `rank_elapsed` does not hold exactly one entry per rank.
    ElapsedLen {
        /// The image's rank count.
        nprocs: usize,
        /// Entries it carries.
        len: usize,
    },
    /// A perf or comm entry names a rank outside `0..nprocs`.
    RankOutOfRange {
        /// The offending rank.
        rank: u64,
        /// The image's rank count.
        nprocs: usize,
    },
    /// A time, counter or wait in the named section is NaN or infinite.
    NonFinite(&'static str),
    /// The named section (`"perf"` or `"comm"`) repeats a key or lists
    /// one out of order.
    Unordered(&'static str),
    /// Bytes follow the image's last section.
    TrailingBytes(usize),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::BadMagic => write!(f, "not a ScalAna profile image"),
            LoadError::BadVersion(v) => write!(f, "unsupported profile version {v}"),
            LoadError::Truncated => write!(f, "truncated profile image"),
            LoadError::ElapsedLen { nprocs, len } => {
                write!(f, "{len} per-rank times in a {nprocs}-rank profile")
            }
            LoadError::RankOutOfRange { rank, nprocs } => {
                write!(f, "rank {rank} in a {nprocs}-rank profile")
            }
            LoadError::NonFinite(section) => {
                write!(f, "non-finite number in the profile's {section}")
            }
            LoadError::Unordered(section) => {
                write!(f, "profile {section} keys not strictly increasing")
            }
            LoadError::TrailingBytes(n) => {
                write!(f, "{n} bytes after the profile's last section")
            }
        }
    }
}

impl std::error::Error for LoadError {}

fn need(buf: &Bytes, n: usize) -> Result<(), LoadError> {
    if buf.remaining() < n {
        Err(LoadError::Truncated)
    } else {
        Ok(())
    }
}

/// Bounds-check a length-prefixed section: `count` elements of at least
/// `elem_size` bytes each must fit in the remaining buffer. Uses checked
/// arithmetic so a hostile 2⁶⁴-ish count cannot overflow the product
/// (which would otherwise panic in debug builds or pass the check and
/// panic inside the vendored `Bytes` accessors in release builds).
fn need_counted(buf: &Bytes, count: usize, elem_size: usize) -> Result<(), LoadError> {
    match count.checked_mul(elem_size) {
        Some(total) if buf.remaining() >= total => Ok(()),
        _ => Err(LoadError::Truncated),
    }
}

/// Exact byte size of one serialized perf entry:
/// vertex u32 + rank u64 + 9 × 8-byte metric fields.
const PERF_ENTRY_BYTES: usize = 4 + 8 + 9 * 8;
/// Exact byte size of one serialized comm edge.
const COMM_ENTRY_BYTES: usize = 8 + 4 + 8 + 4 + 8 + 8 + 8;
/// Minimum byte size of one indirect-call record (empty callee name).
const INDIRECT_MIN_BYTES: usize = 4 + 4 + 2;

/// A rank read from an image, checked against its rank count.
fn rank_in(rank: u64, nprocs: usize) -> Result<usize, LoadError> {
    if rank < nprocs as u64 {
        Ok(rank as usize)
    } else {
        Err(LoadError::RankOutOfRange { rank, nprocs })
    }
}

/// Deserialize a profile image.
///
/// The image is untrusted (a peer may post one). Nothing sized by its
/// rank count is allocated before the per-rank times are known to fit
/// in the buffer and to number exactly `nprocs`; every perf and comm
/// rank must lie in `0..nprocs`, the range `into_ppg` indexes; the keys
/// of each section must be strictly increasing, the order
/// [`ProfileData`] keeps; every float must be finite; nothing may follow
/// the last section.
pub fn load(mut buf: Bytes) -> Result<ProfileData, LoadError> {
    need(&buf, 4 + 2)?;
    if buf.get_u32_le() != MAGIC {
        return Err(LoadError::BadMagic);
    }
    let version = buf.get_u16_le();
    if version != VERSION {
        return Err(LoadError::BadVersion(version));
    }
    need(&buf, 8 * 4)?;
    let nprocs = buf.get_u64_le() as usize;
    let storage_bytes = buf.get_u64_le();
    let sample_count = buf.get_u64_le();
    let n_elapsed = buf.get_u64_le() as usize;
    need_counted(&buf, n_elapsed, 8)?;
    if n_elapsed != nprocs {
        return Err(LoadError::ElapsedLen {
            nprocs,
            len: n_elapsed,
        });
    }
    let mut data = ProfileData {
        nprocs,
        rank_elapsed: (0..nprocs).map(|_| buf.get_f64_le()).collect(),
        storage_bytes,
        sample_count,
        ..ProfileData::default()
    };

    need(&buf, 8)?;
    let n_perf = buf.get_u64_le() as usize;
    need_counted(&buf, n_perf, PERF_ENTRY_BYTES)?;
    data.perf.reserve_exact(n_perf);
    for _ in 0..n_perf {
        let vertex = buf.get_u32_le();
        let rank = rank_in(buf.get_u64_le(), nprocs)?;
        let perf = VertexPerf {
            time: buf.get_f64_le(),
            count: buf.get_u64_le(),
            tot_ins: buf.get_f64_le(),
            tot_cyc: buf.get_f64_le(),
            lst_ins: buf.get_f64_le(),
            l2_miss: buf.get_f64_le(),
            br_miss: buf.get_f64_le(),
            wait_time: buf.get_f64_le(),
            bytes: buf.get_f64_le(),
        };
        if data
            .perf
            .last()
            .is_some_and(|(prev, _)| *prev >= (vertex, rank))
        {
            return Err(LoadError::Unordered("perf"));
        }
        data.perf.push(((vertex, rank), perf));
    }

    need(&buf, 8)?;
    let n_comm = buf.get_u64_le() as usize;
    need_counted(&buf, n_comm, COMM_ENTRY_BYTES)?;
    data.comm.reserve_exact(n_comm);
    for _ in 0..n_comm {
        let src_rank = rank_in(buf.get_u64_le(), nprocs)?;
        let src_vertex = buf.get_u32_le();
        let dst_rank = rank_in(buf.get_u64_le(), nprocs)?;
        let dst_vertex = buf.get_u32_le();
        let agg = CommAgg {
            count: buf.get_u64_le(),
            bytes: buf.get_u64_le(),
            wait_time: buf.get_f64_le(),
        };
        let key = (src_rank, src_vertex, dst_rank, dst_vertex);
        if data
            .comm
            .last()
            .is_some_and(|(prev, _)| comm_order(prev) >= comm_order(&key))
        {
            return Err(LoadError::Unordered("comm"));
        }
        data.comm.push((key, agg));
    }

    need(&buf, 8)?;
    let n_indirect = buf.get_u64_le() as usize;
    // Names are variable-length: the upfront check bounds the count by
    // the minimum record size, the per-record checks do the rest.
    need_counted(&buf, n_indirect, INDIRECT_MIN_BYTES)?;
    for _ in 0..n_indirect {
        need(&buf, INDIRECT_MIN_BYTES)?;
        let ctx = buf.get_u32_le();
        let stmt = buf.get_u32_le();
        let len = buf.get_u16_le() as usize;
        need(&buf, len)?;
        let name = buf.copy_to_bytes(len);
        data.indirect_calls
            .push((ctx, stmt, String::from_utf8_lossy(&name).into_owned()));
    }
    if buf.has_remaining() {
        return Err(LoadError::TrailingBytes(buf.remaining()));
    }
    check_finite(&data)?;
    Ok(data)
}

/// Every float of a decoded image must be finite: the simulator never
/// records NaN or infinity, and detection sorts and compares these
/// values on the assumption that it does not. This is a pass of its
/// own after decoding: the same test inside the decode loops costs
/// `load` about half again its time.
fn check_finite(data: &ProfileData) -> Result<(), LoadError> {
    let finite = |values: &[f64]| values.iter().all(|v| v.is_finite());
    let elapsed = finite(&data.rank_elapsed);
    let perf = data.perf.iter().all(|(_, p)| {
        finite(&[
            p.time,
            p.tot_ins,
            p.tot_cyc,
            p.lst_ins,
            p.l2_miss,
            p.br_miss,
            p.wait_time,
            p.bytes,
        ])
    });
    let comm = data.comm.iter().all(|(_, c)| c.wait_time.is_finite());
    match (elapsed, perf, comm) {
        (true, true, true) => Ok(()),
        (false, _, _) => Err(LoadError::NonFinite("rank_elapsed")),
        (_, false, _) => Err(LoadError::NonFinite("perf")),
        _ => Err(LoadError::NonFinite("comm")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScalAnaProfiler;
    use scalana_graph::{build_psg, PsgOptions};
    use scalana_lang::parse_program;
    use scalana_mpisim::{SimConfig, Simulation};

    fn collected_profile() -> ProfileData {
        let src = r#"
            fn main() {
                let f = &work;
                for it in 0 .. 6 {
                    comp(cycles = 100_000);
                    call f(it);
                    sendrecv(dst = (rank + 1) % nprocs, src = (rank + nprocs - 1) % nprocs,
                             sendtag = it, recvtag = it, bytes = 2k);
                }
                allreduce(bytes = 8);
            }
            fn work(n) { comp(cycles = n * 1000); }
        "#;
        let program = parse_program("t.mmpi", src).unwrap();
        let psg = build_psg(&program, &PsgOptions::default());
        let mut profiler = ScalAnaProfiler::with_defaults();
        Simulation::new(&program, &psg, SimConfig::with_nprocs(6))
            .with_hook(&mut profiler)
            .run()
            .unwrap();
        profiler.take_data()
    }

    #[test]
    fn save_load_round_trip_is_lossless() {
        let original = collected_profile();
        let image = save(&original);
        let loaded = load(image).unwrap();
        assert_eq!(loaded.nprocs, original.nprocs);
        assert_eq!(loaded.rank_elapsed, original.rank_elapsed);
        assert_eq!(loaded.perf, original.perf);
        assert_eq!(loaded.comm, original.comm);
        assert_eq!(loaded.sample_count, original.sample_count);
        assert_eq!(loaded.storage_bytes, original.storage_bytes);
        assert_eq!(loaded.indirect_calls, original.indirect_calls);
    }

    #[test]
    fn image_size_matches_storage_accounting_order() {
        let data = collected_profile();
        let image = save(&data);
        // The image is the real serialized size; the in-run accounting
        // (compressed comm + final dump) should be the same order.
        assert!(image.len() as u64 >= data.storage_bytes / 4);
        assert!((image.len() as u64) <= data.storage_bytes * 8);
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(matches!(
            load(Bytes::from_static(b"nope")),
            Err(LoadError::Truncated)
        ));
        assert!(matches!(
            load(Bytes::from_static(&[0u8; 16])),
            Err(LoadError::BadMagic)
        ));
        let data = collected_profile();
        let image = save(&data);
        let truncated = image.slice(0..image.len() / 2);
        assert!(matches!(load(truncated), Err(LoadError::Truncated)));
    }

    #[test]
    fn rejects_bytes_after_the_last_section() {
        let data = collected_profile();
        let mut padded = save(&data).to_vec();
        padded.push(0);
        assert_eq!(
            load(Bytes::from(padded)).err(),
            Some(LoadError::TrailingBytes(1))
        );
        // A callee name past `u16::MAX` bytes is saved with its length
        // cut to 16 bits: the name comes back short and the rest of it
        // trails the image.
        let mut long_name = ProfileData::new(1);
        long_name.rank_elapsed = vec![0.0];
        long_name.indirect_calls.push((0, 0, "f".repeat(70_001)));
        assert_eq!(
            load(save(&long_name)).err(),
            Some(LoadError::TrailingBytes(70_001 - 4_465))
        );
    }

    #[test]
    fn rejects_hostile_element_counts_without_panicking() {
        // A valid header followed by a u64::MAX element count: the
        // count × size product must not overflow into a passing check.
        let mut image = BytesMut::new();
        image.put_u32_le(MAGIC);
        image.put_u16_le(VERSION);
        image.put_u64_le(4); // nprocs
        image.put_u64_le(0); // storage_bytes
        image.put_u64_le(0); // sample_count
        image.put_u64_le(u64::MAX); // hostile rank_elapsed count
        assert!(matches!(load(image.freeze()), Err(LoadError::Truncated)));
    }

    #[test]
    fn rejects_a_huge_rank_count_before_allocating_for_it() {
        // 62 bytes claiming 2^40 ranks and carrying none: loading used to
        // allocate 8 TiB of per-rank times up front and abort the process.
        let mut image = BytesMut::new();
        image.put_u32_le(MAGIC);
        image.put_u16_le(VERSION);
        image.put_u64_le(1 << 40); // nprocs
        for _ in 0..6 {
            image.put_u64_le(0); // storage, samples, and four empty tables
        }
        assert_eq!(image.len(), 62);
        assert_eq!(
            load(image.freeze()).err(),
            Some(LoadError::ElapsedLen {
                nprocs: 1 << 40,
                len: 0
            })
        );
    }

    #[test]
    fn rejects_ranks_outside_the_image() {
        let mut perf = ProfileData::new(2);
        perf.perf.push(((1, 7), VertexPerf::default()));
        assert_eq!(
            load(save(&perf)).err(),
            Some(LoadError::RankOutOfRange { rank: 7, nprocs: 2 })
        );
        let mut comm = ProfileData::new(2);
        comm.comm.push(((0, 1, 2, 1), CommAgg::default()));
        assert_eq!(
            load(save(&comm)).err(),
            Some(LoadError::RankOutOfRange { rank: 2, nprocs: 2 })
        );
    }

    #[test]
    fn rejects_non_finite_floats() {
        let data = collected_profile();
        let mut elapsed = data.clone();
        elapsed.rank_elapsed[0] = f64::NAN;
        assert_eq!(
            load(save(&elapsed)).err(),
            Some(LoadError::NonFinite("rank_elapsed"))
        );
        let mut perf = data.clone();
        perf.perf[0].1.wait_time = f64::INFINITY;
        assert_eq!(load(save(&perf)).err(), Some(LoadError::NonFinite("perf")));
        let mut comm = data;
        comm.comm[0].1.wait_time = f64::NEG_INFINITY;
        assert_eq!(load(save(&comm)).err(), Some(LoadError::NonFinite("comm")));
    }

    /// Byte offset of the first perf entry in `data`'s image.
    fn perf_start(data: &ProfileData) -> usize {
        4 + 2 + 3 * 8 + 8 + data.rank_elapsed.len() * 8 + 8
    }

    #[test]
    fn rejects_swapped_perf_entries() {
        let data = collected_profile();
        assert!(data.perf.len() >= 2);
        let mut image = save(&data).to_vec();
        let (a, b) = (perf_start(&data), perf_start(&data) + PERF_ENTRY_BYTES);
        let first = image[a..b].to_vec();
        image.copy_within(b..b + PERF_ENTRY_BYTES, a);
        image[b..b + PERF_ENTRY_BYTES].copy_from_slice(&first);
        assert_eq!(
            load(Bytes::from(image)).err(),
            Some(LoadError::Unordered("perf"))
        );
    }

    #[test]
    fn rejects_a_repeated_comm_key() {
        let data = collected_profile();
        assert!(data.comm.len() >= 2);
        let mut image = save(&data).to_vec();
        let first = perf_start(&data) + data.perf.len() * PERF_ENTRY_BYTES + 8;
        // The second edge takes the first one's key, its aggregate kept.
        let key_bytes = 8 + 4 + 8 + 4;
        image.copy_within(first..first + key_bytes, first + COMM_ENTRY_BYTES);
        assert_eq!(
            load(Bytes::from(image)).err(),
            Some(LoadError::Unordered("comm"))
        );
    }

    #[test]
    fn rejects_truncation_inside_the_last_perf_field() {
        // Regression: the perf-entry bounds check used to be 8 bytes
        // short, so a buffer cut inside an entry's final field panicked
        // in the byte accessors instead of returning `Truncated`.
        let data = collected_profile();
        assert!(!data.perf.is_empty());
        let image = save(&data);
        let first_perf_end = perf_start(&data) + PERF_ENTRY_BYTES;
        let truncated = image.slice(0..first_perf_end - 4);
        assert!(matches!(load(truncated), Err(LoadError::Truncated)));
    }

    #[test]
    fn rejects_future_versions() {
        let data = collected_profile();
        let mut image = BytesMut::from(&save(&data)[..]);
        image[4] = 99; // bump version field
        assert!(matches!(
            load(image.freeze()),
            Err(LoadError::BadVersion(99))
        ));
    }

    #[test]
    fn loaded_profile_builds_equivalent_ppg() {
        let src = "fn main() { comp(cycles = 50_000); allreduce(bytes = 8); }";
        let program = parse_program("t.mmpi", src).unwrap();
        let psg = std::sync::Arc::new(build_psg(&program, &PsgOptions::default()));
        let mut profiler = ScalAnaProfiler::with_defaults();
        Simulation::new(&program, &psg, SimConfig::with_nprocs(4))
            .with_hook(&mut profiler)
            .run()
            .unwrap();
        let data = profiler.take_data();
        let reloaded = load(save(&data)).unwrap();
        let a = data.into_ppg(std::sync::Arc::clone(&psg));
        let b = reloaded.into_ppg(psg);
        assert_eq!(a.total_time(), b.total_time());
        for v in 0..a.psg.vertex_count() as u32 {
            assert_eq!(a.times_across_ranks(v), b.times_across_ranks(v));
        }
        assert_eq!(a.comm, b.comm);
    }
}
