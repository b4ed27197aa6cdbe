//! Persistence of profile data (paper §V workflow).
//!
//! `ScalAna-prof` runs write one profile file per job scale;
//! `ScalAna-detect` loads them post-mortem. This module serializes
//! [`ProfileData`] to a self-contained binary image and back, so the two
//! stages can run in separate processes — as the real tool's do.
//!
//! # Image layout, version 2
//!
//! Integers are LEB128 varints unless a width is given; floats are raw
//! little-endian `f64`s.
//!
//! - Header: magic `u32`, version `u16`, then `nprocs`, `storage_bytes`
//!   and `sample_count`.
//! - `rank_elapsed`: exactly `nprocs` floats, with no count of their own.
//! - Perf: a count, then per entry `vertex`, `rank`, a `u16` mask of the
//!   fields present (bit 0 `count`, bits 1–8 the floats in
//!   [`VertexPerf`]'s field order), `count` if present, and each present
//!   float. A field is absent exactly when it is zero (`+0.0` for a
//!   float, so `-0.0` is kept bit for bit).
//! - Comm: a count, then per edge `dst_rank`, `dst_vertex`, `src_rank`,
//!   `src_vertex`, `count` and `bytes`, then `wait_time` as a float.
//!
//! Perf entries are listed by `(vertex, rank)` and comm edges by
//! [`comm_order`], the orders [`ProfileData`] already keeps them in:
//! `save` writes the lists as they are, and `load` pushes entries in
//! image order and rejects an image whose keys are not strictly
//! increasing ([`LoadError::Unordered`]), so a loaded profile keeps the
//! invariant without sorting or hashing.
//!
//! `load` accepts only bytes `save` can write: a varint longer than it
//! needs to be, a mask bit above bit 8 or a present field that holds
//! zero is [`LoadError::Malformed`]. An image is therefore the one
//! encoding of its profile, and `save(load(image)) == image` whenever
//! `load` accepts.

use crate::data::{comm_order, CommAgg, ProfileData};
use bytes::Bytes;
use scalana_graph::{VertexId, VertexPerf};

const MAGIC: u32 = 0x5ca1_a701;
const VERSION: u16 = 2;

/// Mask bit of a perf entry's `count`; bits 1–8 flag its floats.
const COUNT_BIT: u16 = 1;
/// Every bit a perf entry's mask may set.
const MASK_BITS: u16 = 0x1ff;

/// A perf field flagged present that holds zero: `save` leaves such a
/// field out.
const ZERO_PRESENT: LoadError = LoadError::Malformed("zero field flagged present");

/// Fewest bytes one perf entry takes: one-byte vertex and rank, the mask.
const PERF_MIN_BYTES: usize = 1 + 1 + 2;
/// Fewest bytes one comm edge takes: six one-byte varints, the wait.
const COMM_MIN_BYTES: usize = 6 + 8;

/// A perf entry's floats in mask-bit order (bits 1–8).
fn floats(p: &VertexPerf) -> [f64; 8] {
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
}

fn put_varint(buf: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        buf.push(value as u8 | 0x80);
        value >>= 7;
    }
    buf.push(value as u8);
}

/// Serialize a profile to bytes.
pub fn save(data: &ProfileData) -> Bytes {
    // A guess: `Bytes::from` copies into an allocation of the exact
    // length, so the spare capacity never outlives the call.
    let mut buf = Vec::with_capacity(
        6 + 3 * 10 + 8 * data.rank_elapsed.len() + 24 * data.perf.len() + 24 * data.comm.len(),
    );
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&VERSION.to_le_bytes());
    put_varint(&mut buf, data.nprocs as u64);
    put_varint(&mut buf, data.storage_bytes);
    put_varint(&mut buf, data.sample_count);
    for t in &data.rank_elapsed {
        buf.extend_from_slice(&t.to_le_bytes());
    }

    debug_assert!(data.perf.windows(2).all(|w| w[0].0 < w[1].0));
    put_varint(&mut buf, data.perf.len() as u64);
    for ((vertex, rank), p) in &data.perf {
        put_varint(&mut buf, u64::from(*vertex));
        put_varint(&mut buf, *rank as u64);
        let floats = floats(p);
        let mut mask = if p.count != 0 { COUNT_BIT } else { 0 };
        for (bit, v) in floats.iter().enumerate() {
            if v.to_bits() != 0 {
                mask |= 2 << bit;
            }
        }
        buf.extend_from_slice(&mask.to_le_bytes());
        if p.count != 0 {
            put_varint(&mut buf, p.count);
        }
        for v in floats.iter().filter(|v| v.to_bits() != 0) {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    debug_assert!(data
        .comm
        .windows(2)
        .all(|w| comm_order(&w[0].0) < comm_order(&w[1].0)));
    put_varint(&mut buf, data.comm.len() as u64);
    for (key, agg) in &data.comm {
        let (dst_rank, dst_vertex, src_rank, src_vertex) = comm_order(key);
        for value in [
            dst_rank as u64,
            u64::from(dst_vertex),
            src_rank as u64,
            u64::from(src_vertex),
            agg.count,
            agg.bytes,
        ] {
            put_varint(&mut buf, value);
        }
        buf.extend_from_slice(&agg.wait_time.to_le_bytes());
    }
    Bytes::from(buf)
}

/// Deserialization failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// Not a profile image.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// The image ends inside a field, or holds fewer bytes than its
    /// counts claim.
    Truncated,
    /// Bytes `save` never writes; the reason names what is wrong.
    Malformed(&'static str),
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
            LoadError::Malformed(reason) => write!(f, "malformed profile image: {reason}"),
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

/// A cursor over an image. Every read checks its bounds and fails with
/// [`LoadError::Truncated`] past the end; nothing it returns is trusted.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], LoadError> {
        let bytes = self
            .buf
            .get(self.pos..self.pos + n)
            .ok_or(LoadError::Truncated)?;
        self.pos += n;
        Ok(bytes)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], LoadError> {
        Ok(self.bytes(N)?.try_into().expect("N bytes"))
    }

    fn f64(&mut self) -> Result<f64, LoadError> {
        self.array().map(f64::from_le_bytes)
    }

    /// A canonical LEB128 `u64`: at most 10 bytes, no bits past bit 63,
    /// and no redundant high zero byte.
    #[inline]
    fn varint(&mut self) -> Result<u64, LoadError> {
        // Most keys, ranks and counts fit in one byte.
        match self.buf.get(self.pos) {
            Some(&byte) if byte < 0x80 => {
                self.pos += 1;
                Ok(u64::from(byte))
            }
            _ => self.long_varint(),
        }
    }

    #[cold]
    fn long_varint(&mut self) -> Result<u64, LoadError> {
        let mut value = 0;
        for i in 0..10 {
            let byte = *self.buf.get(self.pos).ok_or(LoadError::Truncated)?;
            self.pos += 1;
            if i == 9 && byte > 1 {
                return Err(LoadError::Malformed(if byte & 0x80 != 0 {
                    "varint longer than 10 bytes"
                } else {
                    "varint overflows u64"
                }));
            }
            value |= u64::from(byte & 0x7f) << (7 * i);
            if byte & 0x80 == 0 {
                if byte == 0 && i > 0 {
                    return Err(LoadError::Malformed("non-canonical varint"));
                }
                return Ok(value);
            }
        }
        unreachable!("the tenth byte ends the varint or fails")
    }

    fn vertex(&mut self) -> Result<VertexId, LoadError> {
        VertexId::try_from(self.varint()?).map_err(|_| LoadError::Malformed("vertex beyond u32"))
    }

    fn rank(&mut self, nprocs: usize) -> Result<usize, LoadError> {
        match self.varint()? {
            rank if rank < nprocs as u64 => Ok(rank as usize),
            rank => Err(LoadError::RankOutOfRange { rank, nprocs }),
        }
    }

    /// `count` checked against the bytes left before anything is
    /// allocated for it: `count` elements of at least `min_bytes` each
    /// must fit. Checked arithmetic, so a hostile 2⁶⁴-ish count cannot
    /// overflow into a passing check.
    fn fits(&self, count: u64, min_bytes: usize) -> Result<usize, LoadError> {
        match count.checked_mul(min_bytes as u64) {
            Some(total) if total <= self.remaining() as u64 => Ok(count as usize),
            _ => Err(LoadError::Truncated),
        }
    }

    /// A section's element count, checked by [`fits`](Reader::fits).
    fn count(&mut self, min_bytes: usize) -> Result<usize, LoadError> {
        let count = self.varint()?;
        self.fits(count, min_bytes)
    }
}

/// Deserialize a profile image.
///
/// The image is untrusted (a peer may post one). Nothing sized by a
/// count is allocated before that many elements are known to fit in the
/// buffer, so the per-rank times exist only once `nprocs × 8` bytes do;
/// every perf and comm rank must lie in `0..nprocs`, the range `into_ppg`
/// indexes; the keys of each section must be strictly increasing, the
/// order [`ProfileData`] keeps; every float must be finite; every byte
/// must be one `save` writes ([`LoadError::Malformed`]); nothing may
/// follow the last section.
pub fn load(buf: Bytes) -> Result<ProfileData, LoadError> {
    let mut r = Reader { buf: &buf, pos: 0 };
    if r.remaining() < 4 + 2 {
        return Err(LoadError::Truncated);
    }
    if u32::from_le_bytes(r.array()?) != MAGIC {
        return Err(LoadError::BadMagic);
    }
    let version = u16::from_le_bytes(r.array()?);
    if version != VERSION {
        return Err(LoadError::BadVersion(version));
    }
    let nprocs = r.varint()?;
    let storage_bytes = r.varint()?;
    let sample_count = r.varint()?;
    let nprocs = r.fits(nprocs, 8)?;
    let mut data = ProfileData {
        nprocs,
        rank_elapsed: r
            .bytes(nprocs * 8)?
            .chunks_exact(8)
            .map(|t| f64::from_le_bytes(t.try_into().expect("8 bytes")))
            .collect(),
        storage_bytes,
        sample_count,
        ..ProfileData::default()
    };

    let n_perf = r.count(PERF_MIN_BYTES)?;
    data.perf.reserve_exact(n_perf);
    for _ in 0..n_perf {
        let key = (r.vertex()?, r.rank(nprocs)?);
        let mask = u16::from_le_bytes(r.array()?);
        if mask & !MASK_BITS != 0 {
            return Err(LoadError::Malformed("perf mask bit above bit 8"));
        }
        let count = match mask & COUNT_BIT {
            0 => 0,
            _ => match r.varint()? {
                0 => return Err(ZERO_PRESENT),
                count => count,
            },
        };
        // The present floats are read with one bounds check and checked
        // for `+0.0` together.
        let mut values = [0.0; 8];
        let mut words = r
            .bytes(8 * (mask >> 1).count_ones() as usize)?
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")));
        let mut any_zero = false;
        for (bit, value) in values.iter_mut().enumerate() {
            if mask & (2 << bit) != 0 {
                let word = words.next().expect("one word per set bit");
                any_zero |= word == 0;
                *value = f64::from_bits(word);
            }
        }
        if any_zero {
            return Err(ZERO_PRESENT);
        }
        let [time, tot_ins, tot_cyc, lst_ins, l2_miss, br_miss, wait_time, bytes] = values;
        let perf = VertexPerf {
            time,
            count,
            tot_ins,
            tot_cyc,
            lst_ins,
            l2_miss,
            br_miss,
            wait_time,
            bytes,
        };
        if data.perf.last().is_some_and(|(prev, _)| *prev >= key) {
            return Err(LoadError::Unordered("perf"));
        }
        data.perf.push((key, perf));
    }

    let n_comm = r.count(COMM_MIN_BYTES)?;
    data.comm.reserve_exact(n_comm);
    for _ in 0..n_comm {
        let order = (r.rank(nprocs)?, r.vertex()?, r.rank(nprocs)?, r.vertex()?);
        let agg = CommAgg {
            count: r.varint()?,
            bytes: r.varint()?,
            wait_time: r.f64()?,
        };
        if data
            .comm
            .last()
            .is_some_and(|(prev, _)| comm_order(prev) >= order)
        {
            return Err(LoadError::Unordered("comm"));
        }
        let (dst_rank, dst_vertex, src_rank, src_vertex) = order;
        data.comm
            .push(((src_rank, src_vertex, dst_rank, dst_vertex), agg));
    }

    if r.remaining() > 0 {
        return Err(LoadError::TrailingBytes(r.remaining()));
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
    let perf = data.perf.iter().all(|(_, p)| finite(&floats(p)));
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
    use std::ops::Range;

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

    fn varint(value: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        put_varint(&mut buf, value);
        buf
    }

    /// `image` with `range` replaced by `with`.
    fn splice(image: &[u8], range: Range<usize>, with: &[u8]) -> Bytes {
        let mut out = image.to_vec();
        out.splice(range, with.iter().copied());
        Bytes::from(out)
    }

    /// Byte ranges of `data`'s perf entries and of its comm edges in its
    /// image, each entry's size read off the image of a profile holding
    /// it alone.
    fn entry_ranges(data: &ProfileData) -> (Vec<Range<usize>>, Vec<Range<usize>>) {
        let bare = ProfileData {
            perf: Vec::new(),
            comm: Vec::new(),
            ..data.clone()
        };
        let bare_len = save(&bare).len();
        let alone = |one: ProfileData| save(&one).len() - bare_len;
        let back_to_back = |mut at: usize, sizes: Vec<usize>| -> Vec<Range<usize>> {
            sizes
                .into_iter()
                .map(|size| {
                    at += size;
                    at - size..at
                })
                .collect()
        };
        // The bare image ends with two one-byte zero counts.
        let perf_start = bare_len - 2 + varint(data.perf.len() as u64).len();
        let perf = back_to_back(
            perf_start,
            (data.perf.iter())
                .map(|&e| {
                    alone(ProfileData {
                        perf: vec![e],
                        ..bare.clone()
                    })
                })
                .collect(),
        );
        let perf_end = perf.last().map_or(perf_start, |r| r.end);
        let comm = back_to_back(
            perf_end + varint(data.comm.len() as u64).len(),
            (data.comm.iter())
                .map(|&e| {
                    alone(ProfileData {
                        comm: vec![e],
                        ..bare.clone()
                    })
                })
                .collect(),
        );
        (perf, comm)
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
            (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn save_load_round_trip_is_lossless() {
        let original = collected_profile();
        let image = save(&original);
        let loaded = load(image.clone()).unwrap();
        assert_eq!(loaded.nprocs, original.nprocs);
        assert_eq!(loaded.rank_elapsed, original.rank_elapsed);
        assert_eq!(loaded.perf, original.perf);
        assert_eq!(loaded.comm, original.comm);
        assert_eq!(loaded.sample_count, original.sample_count);
        assert_eq!(loaded.storage_bytes, original.storage_bytes);
        assert_eq!(save(&loaded), image);
    }

    /// The version-2 bytes themselves. `tests/sim_digest.rs` pins what
    /// profiles hold; this pins how they are written, so a codec change
    /// shows here and nowhere else.
    #[test]
    fn collected_profile_image_is_pinned() {
        let image = save(&collected_profile());
        assert_eq!(
            (image.len(), fnv1a(&image)),
            (1552, 0x3edd_4a3c_165f_b414),
            "image length and FNV-1a"
        );
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
    }

    /// A valid header, then `counts` as varints.
    fn header_then(counts: &[u64]) -> Bytes {
        let mut image = Vec::new();
        image.extend_from_slice(&MAGIC.to_le_bytes());
        image.extend_from_slice(&VERSION.to_le_bytes());
        for &count in counts {
            put_varint(&mut image, count);
        }
        Bytes::from(image)
    }

    #[test]
    fn rejects_hostile_element_counts_without_panicking() {
        // A u64::MAX count in each counted place: the count × size
        // product must not overflow into a passing check.
        for counts in [
            [u64::MAX, 0, 0, 0, 0], // nprocs, so the per-rank times
            [0, 0, 0, u64::MAX, 0], // perf entries
            [0, 0, 0, 0, u64::MAX], // comm edges
        ] {
            assert_eq!(
                load(header_then(&counts)).err(),
                Some(LoadError::Truncated),
                "{counts:?}"
            );
        }
    }

    #[test]
    fn rejects_a_huge_rank_count_before_allocating_for_it() {
        // 16 bytes claiming 2^40 ranks and carrying none: loading once
        // allocated 8 TiB of per-rank times up front and aborted the
        // process. The times' bytes are checked before they exist.
        let image = header_then(&[1 << 40, 0, 0, 0, 0]);
        assert_eq!(image.len(), 16);
        assert_eq!(load(image).err(), Some(LoadError::Truncated));
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

    #[test]
    fn rejects_swapped_perf_entries() {
        let data = collected_profile();
        assert!(data.perf.len() >= 2);
        let image = save(&data);
        let (perf, _) = entry_ranges(&data);
        let (a, b) = (perf[0].clone(), perf[1].clone());
        let swapped = [&image[b.clone()], &image[a.clone()]].concat();
        assert_eq!(
            load(splice(&image, a.start..b.end, &swapped)).err(),
            Some(LoadError::Unordered("perf"))
        );
    }

    #[test]
    fn rejects_a_repeated_comm_key() {
        let data = collected_profile();
        assert!(data.comm.len() >= 2);
        let image = save(&data);
        let (_, comm) = entry_ranges(&data);
        // The second edge takes the first one's key, its aggregate kept.
        let key_len = |key| {
            let (a, b, c, d) = comm_order(key);
            [a as u64, u64::from(b), c as u64, u64::from(d)]
                .map(|v| varint(v).len())
                .iter()
                .sum::<usize>()
        };
        let first = comm[0].start..comm[0].start + key_len(&data.comm[0].0);
        let second = comm[1].start..comm[1].start + key_len(&data.comm[1].0);
        assert_eq!(
            load(splice(&image, second, &image[first])).err(),
            Some(LoadError::Unordered("comm"))
        );
    }

    #[test]
    fn rejects_truncation_inside_the_last_perf_field() {
        // Regression: the perf-entry bounds check was once 8 bytes
        // short, so a buffer cut inside an entry's final field panicked
        // in the byte accessors instead of returning `Truncated`.
        let data = collected_profile();
        let image = save(&data);
        let (perf, _) = entry_ranges(&data);
        let truncated = image.slice(0..perf[0].end - 4);
        assert!(matches!(load(truncated), Err(LoadError::Truncated)));
    }

    #[test]
    fn rejects_future_versions() {
        let data = collected_profile();
        let mut image = save(&data).to_vec();
        image[4] = 99; // bump version field
        assert!(matches!(
            load(Bytes::from(image)),
            Err(LoadError::BadVersion(99))
        ));
    }

    /// A one-rank profile with one perf entry whose count and time are
    /// set: `[header 0..9][elapsed 9..17][count 17][vertex 18][rank 19]
    /// [mask 20..22][count 22][time 23..31][comm count 31]`.
    fn one_entry() -> Vec<u8> {
        let mut data = ProfileData::new(1);
        let perf = VertexPerf {
            count: 2,
            time: 1.5,
            ..VertexPerf::default()
        };
        data.perf.push(((3, 0), perf));
        let image = save(&data).to_vec();
        assert_eq!(image.len(), 32);
        assert_eq!((image[18], image[20], image[21], image[22]), (3, 3, 0, 2));
        image
    }

    #[test]
    fn rejects_malformed_varints() {
        let image = one_entry();
        // `storage_bytes` is the one-byte varint at offset 7.
        for (bytes, reason) in [
            (&[0xff; 10][..], "varint longer than 10 bytes"),
            (
                &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02],
                "varint overflows u64",
            ),
            (&[0x80, 0x00], "non-canonical varint"),
            (&[0x81, 0x80, 0x00], "non-canonical varint"),
        ] {
            assert_eq!(
                load(splice(&image, 7..8, bytes)).err(),
                Some(LoadError::Malformed(reason)),
                "{bytes:?}"
            );
        }
        // The largest canonical varint is accepted and written back.
        let max = splice(&image, 7..8, &varint(u64::MAX));
        assert_eq!(load(max.clone()).unwrap().storage_bytes, u64::MAX);
        assert_eq!(save(&load(max.clone()).unwrap()), max);
        // A vertex id must fit the `u32` a vertex is.
        assert_eq!(
            load(splice(&image, 18..19, &varint(1 << 32))).err(),
            Some(LoadError::Malformed("vertex beyond u32"))
        );
    }

    #[test]
    fn rejects_mask_bits_save_never_sets() {
        let image = one_entry();
        for high in [0x02, 0x80] {
            assert_eq!(
                load(splice(&image, 21..22, &[high])).err(),
                Some(LoadError::Malformed("perf mask bit above bit 8"))
            );
        }
    }

    #[test]
    fn rejects_a_present_field_that_holds_zero() {
        let image = one_entry();
        // A zero count flagged present.
        assert_eq!(load(splice(&image, 22..23, &[0])).err(), Some(ZERO_PRESENT));
        // `tot_ins` (bit 2) flagged present, its bits +0.0.
        let mut flagged = splice(&image, 20..21, &[3 | 4]).to_vec();
        flagged.splice(31..31, 0.0f64.to_le_bytes());
        assert_eq!(load(Bytes::from(flagged)).err(), Some(ZERO_PRESENT));
    }

    #[test]
    fn negative_zero_round_trips_bit_for_bit() {
        let mut data = ProfileData::new(1);
        data.rank_elapsed[0] = -0.0;
        let perf = VertexPerf {
            wait_time: -0.0,
            ..VertexPerf::default()
        };
        data.perf.push(((0, 0), perf));
        data.comm.push((
            (0, 0, 0, 0),
            CommAgg {
                wait_time: -0.0,
                ..CommAgg::default()
            },
        ));
        let image = save(&data);
        let loaded = load(image.clone()).unwrap();
        assert_eq!(loaded.rank_elapsed[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(loaded.perf[0].1.wait_time.to_bits(), (-0.0f64).to_bits());
        assert_eq!(loaded.comm[0].1.wait_time.to_bits(), (-0.0f64).to_bits());
        assert_eq!(save(&loaded), image);
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
