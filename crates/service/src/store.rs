//! Durable on-disk store for the daemon's content-addressed caches.
//!
//! `scalana serve --store-dir <dir>` writes every per-scale profile
//! image and every refined-PSG discovery trace through to disk, so a
//! restarted (or crashed) daemon answers previously-profiled scales
//! with zero re-simulation, byte-identical to its pre-crash answers.
//! What the store keeps resident does not depend on how much it holds:
//!
//! 1. **Batch files, committed atomically** — an entry is one frame: a
//!    versioned header, its content-addressed key, the payload, a
//!    length/checksum trailer ([`encode_frame`]/[`decode_frame`]). A
//!    data file is one *commit*: every frame the writer found queued
//!    (up to [`BATCH_BYTES`]) back to back ([`decode_frames`]), named
//!    after its content, written to a `.tmp` sibling, fsynced, renamed
//!    into place, and the directory fsynced. A slow disk makes bigger
//!    batches, not a longer queue, and a crash leaves the whole batch,
//!    none of it, or a `.tmp` orphan — never a half-visible file. Torn
//!    or alien bytes are typed ([`CorruptKind`]), quarantined to
//!    `<store-dir>/quarantine/` a file at a time, and counted — never
//!    panicked on.
//! 2. **An index, not a directory walk** — `(kind, key) → (file,
//!    offset, len)`, rebuilt by the warm scan (which validates every
//!    frame and keeps no payload) and updated at each commit. A read
//!    fetches one frame's byte range; the quota sweep evicts whole
//!    files, oldest commit first.
//! 3. **Bounded write-behind** — `save` enqueues for the writer thread
//!    and, past [`QUEUE_BUDGET`] queued bytes, blocks until a commit
//!    lands: backpressure, never a dropped entry.
//! 4. **Injectable IO** — all filesystem traffic goes through the
//!    [`StoreIo`] trait. Production uses [`RealIo`]; tests drive the
//!    seed-deterministic [`FaultIo`]/[`FaultPlan`] (ENOSPC, EIO,
//!    permission loss, fsync failure, torn write then crash) to prove
//!    every failure mode degrades instead of corrupting.
//! 5. **Circuit breaker** — persistent write failures trip the store
//!    into memory-only mode (writes skipped and counted) with half-open
//!    retry probes under exponential backoff, so a full disk costs
//!    durability, not availability. State is surfaced through the
//!    `scalana_store_*` metric families and `/v1/stats`.
//!
//! The PSG side cannot serialize a [`scalana_graph::Psg`] directly;
//! instead the store persists the *indirect-call discovery trace*
//! (see [`scalana_core::pipeline::refined_psg_traced`]) and rebuilds
//! the identical refined PSG by replaying it — no simulation.

use crate::breaker::Breaker;
use crate::hash::StableHasher;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use scalana_profile::recorder::DiscoveryRound;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Seek};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Magic number opening every store frame (distinct from the inner
/// profile-image magic so the two layers cannot be confused).
pub const STORE_MAGIC: u32 = 0x5ca1_ad15;
/// Store frame format version.
pub const STORE_VERSION: u16 = 1;
/// Trailer size: payload-length echo (u64) + FNV-1a checksum (u64).
const TRAILER_BYTES: usize = 16;
/// Payload bytes one commit packs into a single data file at most (a
/// larger entry is a batch of its own).
pub const BATCH_BYTES: usize = 4 << 20;
/// Payload bytes the write-behind queue holds, queued or in the commit
/// under way, before [`DiskStore::save`] blocks its caller.
pub const QUEUE_BUDGET: usize = 8 << 20;
/// What a store entry holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// A `scalana_profile::store::save` image for one (program, config,
    /// discovery-scale, nprocs) profile key.
    Profile,
    /// An indirect-call discovery trace for one refined-PSG key.
    PsgTrace,
}

impl EntryKind {
    fn tag(self) -> u8 {
        match self {
            EntryKind::Profile => 1,
            EntryKind::PsgTrace => 2,
        }
    }

    fn from_tag(tag: u8) -> Option<EntryKind> {
        match tag {
            1 => Some(EntryKind::Profile),
            2 => Some(EntryKind::PsgTrace),
            _ => None,
        }
    }

    /// Which of the index's per-kind key maps holds this kind.
    fn slot(self) -> usize {
        usize::from(self.tag()) - 1
    }
}

/// Why a store file failed to decode. Every reason is quarantinable;
/// none is a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorruptKind {
    /// Shorter than its own framing claims (torn write, byte cut).
    Truncated,
    /// Not a store frame at all (alien file).
    BadMagic,
    /// A frame from a future (or mangled) format version.
    BadVersion(u16),
    /// Unknown entry-kind tag.
    BadKind(u8),
    /// Framing intact but the trailer checksum does not match.
    BadChecksum,
}

impl std::fmt::Display for CorruptKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorruptKind::Truncated => write!(f, "truncated store frame"),
            CorruptKind::BadMagic => write!(f, "not a store frame"),
            CorruptKind::BadVersion(v) => write!(f, "unsupported store version {v}"),
            CorruptKind::BadKind(t) => write!(f, "unknown store entry kind {t}"),
            CorruptKind::BadChecksum => write!(f, "store frame checksum mismatch"),
        }
    }
}

/// Frame an entry: versioned header, content-addressed key, payload,
/// then a length/checksum trailer over every preceding byte.
pub fn encode_frame(kind: EntryKind, key: &str, payload: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(payload.len() + key.len() + 48);
    put_frame(&mut buf, kind, key, payload);
    buf.freeze()
}

/// Append one frame to `buf`; returns the frame's checksum.
fn put_frame(buf: &mut BytesMut, kind: EntryKind, key: &str, payload: &[u8]) -> u64 {
    let start = buf.len();
    buf.put_u32_le(STORE_MAGIC);
    buf.put_u16_le(STORE_VERSION);
    buf.put_u8(kind.tag());
    buf.put_u16_le(key.len() as u16);
    buf.put_slice(key.as_bytes());
    buf.put_u64_le(payload.len() as u64);
    buf.put_slice(payload);
    let mut h = StableHasher::new();
    h.write_bytes(&buf[start..]);
    buf.put_u64_le(payload.len() as u64);
    buf.put_u64_le(h.finish());
    h.finish()
}

/// Parse the frame at the front of a buffer that may run on past it:
/// its kind, key and where the payload sits. The frame ends
/// [`TRAILER_BYTES`] after the payload does.
fn parse_frame(raw: &[u8]) -> Result<(EntryKind, String, Range<usize>), CorruptKind> {
    if raw.len() < 4 {
        return Err(CorruptKind::Truncated);
    }
    if u32::from_le_bytes([raw[0], raw[1], raw[2], raw[3]]) != STORE_MAGIC {
        return Err(CorruptKind::BadMagic);
    }
    if raw.len() < 7 {
        return Err(CorruptKind::Truncated);
    }
    let version = u16::from_le_bytes([raw[4], raw[5]]);
    if version != STORE_VERSION {
        return Err(CorruptKind::BadVersion(version));
    }
    let kind = EntryKind::from_tag(raw[6]).ok_or(CorruptKind::BadKind(raw[6]))?;
    if raw.len() < 9 {
        return Err(CorruptKind::Truncated);
    }
    let key_len = u16::from_le_bytes([raw[7], raw[8]]) as usize;
    let header_end = 9 + key_len;
    if raw.len() < header_end + 8 + TRAILER_BYTES {
        return Err(CorruptKind::Truncated);
    }
    let payload_len =
        u64::from_le_bytes(raw[header_end..header_end + 8].try_into().expect("8 bytes")) as usize;
    let total = header_end
        .checked_add(8)
        .and_then(|n| n.checked_add(payload_len))
        .and_then(|n| n.checked_add(TRAILER_BYTES))
        .ok_or(CorruptKind::Truncated)?;
    if raw.len() < total {
        return Err(CorruptKind::Truncated);
    }
    let echo = u64::from_le_bytes(raw[total - 16..total - 8].try_into().expect("8 bytes"));
    let mut h = StableHasher::new();
    h.write_bytes(&raw[..total - TRAILER_BYTES]);
    let checksum = u64::from_le_bytes(raw[total - 8..total].try_into().expect("8 bytes"));
    if echo != payload_len as u64 || checksum != h.finish() {
        return Err(CorruptKind::BadChecksum);
    }
    let key = String::from_utf8_lossy(&raw[9..header_end]).into_owned();
    Ok((kind, key, header_end + 8..total - TRAILER_BYTES))
}

/// Decode a buffer that is exactly one store frame, returning the typed
/// corruption reason on any mismatch. The checksum covers header and
/// payload, so a single flipped bit anywhere is `BadChecksum`; a byte
/// cut anywhere is `Truncated`.
pub fn decode_frame(raw: &[u8]) -> Result<(EntryKind, String, Bytes), CorruptKind> {
    let (kind, key, payload) = parse_frame(raw)?;
    if payload.end + TRAILER_BYTES != raw.len() {
        return Err(CorruptKind::Truncated);
    }
    Ok((kind, key, Bytes::from(raw[payload].to_vec())))
}

/// Split a data file into its frames, `(kind, key, byte range)` each.
/// A file is one commit — one or more complete frames back to back —
/// and corrupt as a whole if any byte of it is not.
pub fn decode_frames(raw: &[u8]) -> Result<Vec<(EntryKind, String, Range<usize>)>, CorruptKind> {
    let mut frames = Vec::new();
    let mut at = 0;
    loop {
        let (kind, key, payload) = parse_frame(&raw[at..])?;
        let end = at + payload.end + TRAILER_BYTES;
        frames.push((kind, key, at..end));
        at = end;
        if at == raw.len() {
            return Ok(frames);
        }
    }
}

/// Serialize an indirect-call discovery trace (round-ordered, each
/// round's triples in application order).
pub fn encode_trace(trace: &[DiscoveryRound]) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u64_le(trace.len() as u64);
    for round in trace {
        buf.put_u64_le(round.len() as u64);
        for (ctx, stmt, callee) in round {
            buf.put_u32_le(*ctx);
            buf.put_u32_le(*stmt);
            buf.put_u16_le(callee.len() as u16);
            buf.put_slice(callee.as_bytes());
        }
    }
    buf.freeze()
}

/// Deserialize a discovery trace. Bounds-checked throughout (hostile
/// counts return `None`, they never panic or over-allocate).
pub fn decode_trace(mut buf: Bytes) -> Option<Vec<DiscoveryRound>> {
    const TRIPLE_MIN: usize = 4 + 4 + 2;
    if buf.remaining() < 8 {
        return None;
    }
    let rounds = buf.get_u64_le() as usize;
    if rounds > buf.remaining() {
        return None;
    }
    let mut trace = Vec::with_capacity(rounds.min(16));
    for _ in 0..rounds {
        if buf.remaining() < 8 {
            return None;
        }
        let triples = buf.get_u64_le() as usize;
        match triples.checked_mul(TRIPLE_MIN) {
            Some(min) if buf.remaining() >= min => {}
            _ => return None,
        }
        let mut round = Vec::with_capacity(triples);
        for _ in 0..triples {
            if buf.remaining() < TRIPLE_MIN {
                return None;
            }
            let ctx = buf.get_u32_le();
            let stmt = buf.get_u32_le();
            let len = buf.get_u16_le() as usize;
            if buf.remaining() < len {
                return None;
            }
            let name = buf.copy_to_bytes(len);
            round.push((ctx, stmt, String::from_utf8_lossy(&name).into_owned()));
        }
        trace.push(round);
    }
    if buf.has_remaining() {
        return None;
    }
    Some(trace)
}

/// Every filesystem operation the store performs, behind a trait so
/// tests can inject faults at exact points. Implementations must be
/// shareable across the writer thread and request handlers.
pub trait StoreIo: Send + Sync + std::fmt::Debug {
    /// `std::fs::create_dir_all`.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Create/truncate `path` and write all of `bytes`.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Flush a file's data and metadata to disk (`File::sync_all`).
    fn sync_file(&self, path: &Path) -> io::Result<()>;
    /// Atomic rename within the store directory.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Flush the directory entry itself (durability of the rename).
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
    /// Read a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Read up to `len` bytes at `offset` (fewer when the file ends
    /// first — the caller's frame check types that as `Truncated`).
    fn read_range(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>>;
    /// List the *files* (not subdirectories) directly inside `path`.
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;
    /// Delete a file.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// `(len_bytes, mtime_nanos_since_epoch)` of a file.
    fn metadata(&self, path: &Path) -> io::Result<(u64, u64)>;
}

/// The production [`StoreIo`]: plain `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealIo;

impl StoreIo for RealIo {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn read_range(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let mut file = std::fs::File::open(path)?;
        file.seek(io::SeekFrom::Start(offset))?;
        let mut buf = Vec::with_capacity(len);
        file.take(len as u64).read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut files = Vec::new();
        for entry in std::fs::read_dir(path)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                files.push(entry.path());
            }
        }
        files.sort();
        Ok(files)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn metadata(&self, path: &Path) -> io::Result<(u64, u64)> {
        let meta = std::fs::metadata(path)?;
        let mtime = meta
            .modified()
            .ok()
            .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        Ok((meta.len(), mtime))
    }
}

/// The failure a [`FaultPlan`] injects at one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Disk full (`ENOSPC`).
    Enospc,
    /// Generic IO error (`EIO`).
    Eio,
    /// Permission loss (`EACCES`).
    Eacces,
    /// fsync reports failure (data may or may not be durable).
    FsyncFail,
    /// A write persists only a prefix of the bytes, then fails — the
    /// on-disk image of a crash mid-write.
    Torn,
}

impl FaultKind {
    fn error(self, op: &str) -> io::Error {
        match self {
            FaultKind::Enospc => io::Error::from_raw_os_error(28),
            FaultKind::Eio | FaultKind::Torn => io::Error::from_raw_os_error(5),
            FaultKind::Eacces => io::Error::from_raw_os_error(13),
            FaultKind::FsyncFail => io::Error::other(format!("injected fsync failure at {op}")),
        }
    }
}

/// A deterministic schedule of injected faults over the store's
/// *mutating* operations (write, fsync, rename, directory fsync —
/// reads are exercised by the corruption matrix instead). The plan is
/// a pure function of `(seed, operation index)`, so a failing test
/// seed replays exactly.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    rate_per_mille: u32,
    scripted: Vec<(u64, FaultKind)>,
}

impl FaultPlan {
    /// Random-looking faults: each mutating op faults with probability
    /// `rate_per_mille`/1000, the kind derived from the op index.
    pub fn seeded(seed: u64, rate_per_mille: u32) -> FaultPlan {
        FaultPlan {
            seed,
            rate_per_mille,
            scripted: Vec::new(),
        }
    }

    /// Exact faults: mutating op `i` (0-based, store-lifetime counter)
    /// fails with the given kind; all other ops succeed.
    pub fn scripted(faults: Vec<(u64, FaultKind)>) -> FaultPlan {
        FaultPlan {
            seed: 0,
            rate_per_mille: 0,
            scripted: faults,
        }
    }

    fn mix(&self, op_index: u64) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(self.seed);
        h.write_u64(op_index);
        h.finish()
    }

    fn fault_for(&self, op_index: u64) -> Option<FaultKind> {
        if !self.scripted.is_empty() {
            return self
                .scripted
                .iter()
                .find(|(i, _)| *i == op_index)
                .map(|(_, k)| *k);
        }
        if self.rate_per_mille == 0 {
            return None;
        }
        let h = self.mix(op_index);
        if (h % 1000) as u32 >= self.rate_per_mille {
            return None;
        }
        Some(match (h >> 32) % 5 {
            0 => FaultKind::Enospc,
            1 => FaultKind::Eio,
            2 => FaultKind::Eacces,
            3 => FaultKind::FsyncFail,
            _ => FaultKind::Torn,
        })
    }

    /// Where a torn write cuts, as a fraction of the payload.
    fn torn_cut(&self, op_index: u64, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        (self.mix(op_index.wrapping_add(0x7041)) as usize) % len
    }
}

/// [`RealIo`] with a [`FaultPlan`] injected over every mutating
/// operation. Reads and listings pass through untouched.
#[derive(Debug)]
pub struct FaultIo {
    inner: RealIo,
    plan: FaultPlan,
    mutations: AtomicU64,
    injected: AtomicU64,
}

impl FaultIo {
    /// Wrap the real filesystem with a fault schedule.
    pub fn new(plan: FaultPlan) -> FaultIo {
        FaultIo {
            inner: RealIo,
            plan,
            mutations: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// How many faults actually fired.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    /// How many mutating operations were attempted.
    pub fn mutations(&self) -> u64 {
        self.mutations.load(Ordering::SeqCst)
    }

    fn gate(&self, op: &str) -> Result<u64, io::Error> {
        let index = self.mutations.fetch_add(1, Ordering::SeqCst);
        match self.plan.fault_for(index) {
            None => Ok(index),
            Some(FaultKind::Torn) => Ok(index), // handled by `write`
            Some(kind) => {
                self.injected.fetch_add(1, Ordering::SeqCst);
                Err(kind.error(op))
            }
        }
    }
}

impl StoreIo for FaultIo {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let index = self.mutations.fetch_add(1, Ordering::SeqCst);
        match self.plan.fault_for(index) {
            None => self.inner.write(path, bytes),
            Some(FaultKind::Torn) => {
                self.injected.fetch_add(1, Ordering::SeqCst);
                let cut = self.plan.torn_cut(index, bytes.len());
                let _ = self.inner.write(path, &bytes[..cut]);
                Err(FaultKind::Torn.error("write"))
            }
            Some(kind) => {
                self.injected.fetch_add(1, Ordering::SeqCst);
                Err(kind.error("write"))
            }
        }
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.gate("sync_file")?;
        self.inner.sync_file(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.gate("rename")?;
        self.inner.rename(from, to)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.gate("sync_dir")?;
        self.inner.sync_dir(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn read_range(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        self.inner.read_range(path, offset, len)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.read_dir(path)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.gate("remove")?;
        self.inner.remove(path)
    }

    fn metadata(&self, path: &Path) -> io::Result<(u64, u64)> {
        self.inner.metadata(path)
    }
}

/// One queued write-behind request.
#[derive(Debug)]
struct WriteReq {
    kind: EntryKind,
    key: String,
    payload: Bytes,
}

/// The write-behind queue between [`DiskStore::save`] and the writer.
#[derive(Debug, Default)]
struct Queue {
    pending: VecDeque<WriteReq>,
    /// Payload bytes queued or in the commit under way.
    bytes: usize,
    /// A writer thread is draining; otherwise `save` commits itself.
    open: bool,
}

/// Where one live entry's frame sits.
#[derive(Debug, Clone)]
struct Loc {
    file: Arc<str>,
    span: Range<usize>,
}

/// What the directory holds: rebuilt by the warm scan, updated at every
/// commit, sweep and quarantine. Its size follows the number of keys
/// and live files, not the bytes stored or the writes ever made.
#[derive(Debug, Default)]
struct Index {
    /// Data file name → (commit generation, bytes). Generations follow
    /// age: the warm scan numbers files oldest first, commits continue.
    files: HashMap<Arc<str>, (u64, u64)>,
    /// Key → its newest frame, one map per [`EntryKind`].
    keys: [HashMap<String, Loc>; 2],
    generation: u64,
    /// Bytes of every data file.
    bytes: u64,
}

impl Index {
    /// Record a data file and point its keys at it.
    fn add(&mut self, name: &str, bytes: u64, frames: Vec<(EntryKind, String, Range<usize>)>) {
        let file: Arc<str> = Arc::from(name);
        self.generation += 1;
        let replaced = self
            .files
            .insert(Arc::clone(&file), (self.generation, bytes));
        self.bytes = self.bytes + bytes - replaced.map_or(0, |(_, old)| old);
        for (kind, key, span) in frames {
            let file = Arc::clone(&file);
            self.keys[kind.slot()].insert(key, Loc { file, span });
        }
    }

    /// Forget files that left the directory, and every key whose newest
    /// frame went with them.
    fn forget(&mut self, gone: &[Arc<str>]) {
        for name in gone {
            if let Some((_, bytes)) = self.files.remove(name) {
                self.bytes -= bytes;
            }
        }
        let files = &self.files;
        for keys in &mut self.keys {
            keys.retain(|_, loc| files.contains_key(&loc.file));
        }
    }

    fn entries(&self) -> u64 {
        self.keys.iter().map(|keys| keys.len() as u64).sum()
    }
}

/// Counter snapshot for `/v1/stats` and the `scalana_store_*` metric
/// families.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreSnapshot {
    /// Entries successfully persisted.
    pub writes: u64,
    /// Entries of failed commits (any step of the atomic protocol).
    pub write_errors: u64,
    /// Writes skipped because the breaker was open (memory-only mode).
    pub skipped: u64,
    /// Files moved to `quarantine/` (corrupt, torn, alien, orphaned).
    pub quarantined: u64,
    /// Entries successfully loaded from disk (warm scan + read-through).
    pub loaded: u64,
    /// Entries removed by the quota sweep.
    pub evicted: u64,
    /// Live keys the store can answer.
    pub entries: u64,
    /// Bytes of the data files.
    pub bytes: u64,
    /// 1 while the circuit breaker is open (memory-only mode), else 0.
    pub degraded: u64,
    /// Data files committed; `writes / commits` is the mean batch size.
    pub commits: u64,
    /// Payload bytes in the write-behind queue right now.
    pub backlog_bytes: u64,
}

/// Result of one quota sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Entries removed.
    pub evicted: u64,
    /// Bytes freed.
    pub freed_bytes: u64,
}

/// The durable store: a directory of batch files of framed,
/// content-addressed entries, the index over them, and the machinery
/// above (atomic commits, quarantine, warm scan, bounded write-behind
/// queue, circuit breaker, quota sweep).
#[derive(Debug)]
pub struct DiskStore {
    io: Arc<dyn StoreIo>,
    dir: PathBuf,
    quota: u64,
    writes: AtomicU64,
    write_errors: AtomicU64,
    skipped: AtomicU64,
    quarantined: AtomicU64,
    loaded: AtomicU64,
    evicted: AtomicU64,
    commits: AtomicU64,
    degraded: AtomicU64,
    index: Mutex<Index>,
    breaker: Mutex<Breaker>,
    queue: Mutex<Queue>,
    /// Signals both ends of `queue`: work for the writer, room for a
    /// blocked `save`.
    queue_moved: Condvar,
}

impl DiskStore {
    /// Open (creating if needed) a store directory and warm-scan it:
    /// every frame is validated and indexed, no payload is kept.
    ///
    /// Never fails hard: an unreadable or uncreatable directory yields
    /// an empty, already-degraded store — the daemon must stay
    /// available in memory-only mode.
    pub fn open(io: Arc<dyn StoreIo>, dir: &Path, quota: u64) -> DiskStore {
        let store = DiskStore {
            io,
            dir: dir.to_path_buf(),
            quota,
            writes: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            loaded: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            index: Mutex::new(Index::default()),
            breaker: Mutex::new(Breaker::new()),
            queue: Mutex::new(Queue::default()),
            queue_moved: Condvar::new(),
        };
        if store.io.create_dir_all(&store.dir).is_err()
            || store.io.create_dir_all(&store.quarantine_dir()).is_err()
        {
            store.mark_degraded();
        } else {
            store.warm_scan();
        }
        store
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured quota in bytes (0 = unlimited).
    pub fn quota(&self) -> u64 {
        self.quota
    }

    fn quarantine_dir(&self) -> PathBuf {
        self.dir.join("quarantine")
    }

    /// Scan the directory: index every file that is a sequence of valid
    /// frames — whatever its name, so a directory of the older
    /// one-frame-per-file layout loads as batches of one — and
    /// quarantine everything else (`.tmp` orphans, torn frames, alien
    /// files). Each live key counts once in `loaded`.
    fn warm_scan(&self) {
        let Ok(files) = self.io.read_dir(&self.dir) else {
            self.mark_degraded();
            return;
        };
        // Oldest first: a key held by two files resolves to the newer.
        let mut files: Vec<(u64, PathBuf)> = files
            .into_iter()
            .map(|path| (self.io.metadata(&path).map_or(0, |(_, mtime)| mtime), path))
            .collect();
        files.sort();
        let mut index = self.index.lock().unwrap();
        for (_, path) in files {
            let name = path.file_name().and_then(|n| n.to_str());
            let scanned = name
                .filter(|name| !name.ends_with(".tmp"))
                .and_then(|name| Some((name, self.io.read(&path).ok()?)))
                .and_then(|(name, raw)| Some((name, raw.len(), decode_frames(&raw).ok()?)));
            match scanned {
                Some((name, bytes, frames)) => index.add(name, bytes as u64, frames),
                None => self.quarantine(&path),
            }
        }
        self.loaded.store(index.entries(), Ordering::SeqCst);
    }

    /// Move a bad file to `quarantine/`, falling back to deletion; if
    /// both fail the file is left for the next scan. Never panics.
    fn quarantine(&self, path: &Path) {
        let dest = match path.file_name() {
            Some(name) => self.quarantine_dir().join(name),
            None => return,
        };
        if self.io.rename(path, &dest).is_ok() || self.io.remove(path).is_ok() {
            self.quarantined.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Queue an entry for durable write-behind persistence (or commit
    /// it synchronously, as a batch of one, when no writer thread is
    /// running). Past [`QUEUE_BUDGET`] the caller waits for a commit to
    /// land — backpressure; an entry is never dropped for lack of room.
    pub fn save(&self, kind: EntryKind, key: &str, payload: Bytes) {
        let req = WriteReq {
            kind,
            key: key.to_string(),
            payload,
        };
        let mut queue = self.queue.lock().unwrap();
        // An entry bigger than the whole budget waits for an empty
        // queue and goes in alone.
        while queue.open && queue.bytes > 0 && queue.bytes + req.payload.len() > QUEUE_BUDGET {
            queue = self.queue_moved.wait(queue).unwrap();
        }
        if queue.open {
            queue.bytes += req.payload.len();
            queue.pending.push_back(req);
            self.queue_moved.notify_all();
        } else {
            drop(queue);
            self.persist(&[req]);
        }
    }

    /// Read one entry back, counting it in `loaded`. `None`: the store
    /// does not hold the key, or its frame failed to decode and the
    /// file was quarantined.
    pub fn read_entry(&self, kind: EntryKind, key: &str) -> Option<Bytes> {
        let payload = self.fetch(kind, key)?;
        self.loaded.fetch_add(1, Ordering::SeqCst);
        Some(payload)
    }

    /// Read exactly one frame's byte range and decode it.
    fn fetch(&self, kind: EntryKind, key: &str) -> Option<Bytes> {
        let loc = self.index.lock().unwrap().keys[kind.slot()]
            .get(key)?
            .clone();
        let path = self.dir.join(&*loc.file);
        let (offset, len) = (loc.span.start as u64, loc.span.len());
        let raw = self.io.read_range(&path, offset, len).ok()?;
        match decode_frame(&raw) {
            Ok((k, embedded, payload)) if k == kind && embedded == key => Some(payload),
            // One bad range condemns the file: its other frames cannot
            // be trusted either.
            _ => {
                self.quarantine(&path);
                self.index.lock().unwrap().forget(&[loc.file]);
                None
            }
        }
    }

    /// The newest `limit` profile images (0 = every one), for warming
    /// the memory tier at boot. The warm scan already counted them in
    /// `loaded`, so this read does not.
    pub fn warm_images(&self, limit: usize) -> impl Iterator<Item = (String, Bytes)> + '_ {
        let index = self.index.lock().unwrap();
        let mut newest: Vec<(u64, usize, String)> = index.keys[EntryKind::Profile.slot()]
            .iter()
            .map(|(key, loc)| (index.files[&loc.file].0, loc.span.start, key.clone()))
            .collect();
        drop(index);
        newest.sort_unstable_by(|a, b| b.cmp(a));
        newest.truncate(if limit == 0 { usize::MAX } else { limit });
        newest.into_iter().filter_map(|(_, _, key)| {
            let image = self.fetch(EntryKind::Profile, &key)?;
            Some((key, image))
        })
    }

    /// Spawn the write-behind thread. Each pass commits everything
    /// queued (up to [`BATCH_BYTES`]) as one file, in order;
    /// [`DiskStore::stop_writer`] plus joining the returned handle
    /// flushes everything pending (graceful-shutdown contract).
    pub fn start_writer(self: &Arc<Self>) -> std::thread::JoinHandle<()> {
        self.queue.lock().unwrap().open = true;
        let store = Arc::clone(self);
        std::thread::Builder::new()
            .name("store-writer".to_string())
            .spawn(move || store.drain())
            .expect("spawn store-writer thread")
    }

    /// The writer thread: commit batches until stopped and empty.
    fn drain(&self) {
        let mut queue = self.queue.lock().unwrap();
        loop {
            let (mut batch, mut bytes) = (Vec::new(), 0);
            while let Some(next) = queue.pending.front().map(|req| req.payload.len()) {
                if !batch.is_empty() && bytes + next > BATCH_BYTES {
                    break;
                }
                bytes += next;
                batch.extend(queue.pending.pop_front());
            }
            if batch.is_empty() {
                if !queue.open {
                    return;
                }
                queue = self.queue_moved.wait(queue).unwrap();
                continue;
            }
            drop(queue);
            self.persist(&batch);
            queue = self.queue.lock().unwrap();
            queue.bytes -= bytes;
            self.queue_moved.notify_all();
        }
    }

    /// Close the queue: the writer drains what is pending and exits,
    /// and [`DiskStore::save`] calls — blocked ones included — commit
    /// synchronously from here on.
    pub fn stop_writer(&self) {
        self.queue.lock().unwrap().open = false;
        self.queue_moved.notify_all();
    }

    fn mark_degraded(&self) {
        self.degraded.store(1, Ordering::SeqCst);
    }

    /// Whether the breaker currently has the store in memory-only mode.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst) == 1
    }

    /// One durable commit through the breaker and the atomic protocol.
    /// Returns whether the batch reached disk. A batch is all or
    /// nothing, so every counter (and the breaker) moves by its entries.
    fn persist(&self, batch: &[WriteReq]) -> bool {
        let entries = batch.len() as u64;
        if !self.breaker.lock().unwrap().admit(Instant::now()) {
            self.skipped.fetch_add(entries, Ordering::SeqCst);
            return false;
        }
        match self.commit(batch) {
            Ok(()) => {
                self.breaker.lock().unwrap().on_success();
                self.degraded.store(0, Ordering::SeqCst);
                self.writes.fetch_add(entries, Ordering::SeqCst);
                self.commits.fetch_add(1, Ordering::SeqCst);
                if self.quota > 0 && self.index.lock().unwrap().bytes > self.quota {
                    self.sweep();
                }
                true
            }
            Err(_) => {
                self.write_errors.fetch_add(entries, Ordering::SeqCst);
                let mut breaker = self.breaker.lock().unwrap();
                breaker.on_failures(batch.len() as u32, Instant::now());
                let open = breaker.is_open();
                drop(breaker);
                if open {
                    self.mark_degraded();
                }
                false
            }
        }
    }

    /// The atomic commit protocol: concatenate the batch's frames,
    /// write `.tmp`, fsync, rename into place, fsync the directory. A
    /// failure before the rename leaves at most a quarantinable `.tmp`;
    /// after the rename the file is complete and valid even if the
    /// directory fsync fails. The name is a hash of the frames'
    /// checksums: unique across restarts with no counter to persist,
    /// and the same batch written twice is the same file.
    fn commit(&self, batch: &[WriteReq]) -> io::Result<()> {
        let framed = |req: &WriteReq| req.payload.len() + req.key.len() + 48;
        let mut buf = BytesMut::with_capacity(batch.iter().map(framed).sum());
        let mut name = StableHasher::new();
        let mut frames = Vec::with_capacity(batch.len());
        for req in batch {
            let start = buf.len();
            name.write_u64(put_frame(&mut buf, req.kind, &req.key, &req.payload));
            frames.push((req.kind, req.key.clone(), start..buf.len()));
        }
        let name = format!("batch-{}.img", name.hex());
        let final_path = self.dir.join(&name);
        let tmp_path = self.dir.join(format!("{name}.tmp"));

        let staged = self
            .io
            .write(&tmp_path, &buf)
            .and_then(|()| self.io.sync_file(&tmp_path));
        // The rename and the index move together under the index lock,
        // as the sweep's choice and its removals do: a file cannot be
        // chosen as a victim, rewritten, and then removed.
        let renamed = staged.and_then(|()| {
            let mut index = self.index.lock().unwrap();
            self.io.rename(&tmp_path, &final_path)?;
            // Before the directory fsync: the file is already complete
            // and readable, so even a failed dir fsync (counted as a
            // write error by the caller) must not untrack it.
            index.add(&name, buf.len() as u64, frames);
            Ok(())
        });
        if let Err(e) = renamed {
            let _ = self.io.remove(&tmp_path);
            return Err(e);
        }
        self.io.sync_dir(&self.dir)
    }

    /// Quota sweep: delete whole data files, oldest commit first, until
    /// the store fits the quota. It runs under the index lock, so a
    /// file committed after it began is never a victim.
    pub fn sweep(&self) -> SweepReport {
        let mut report = SweepReport::default();
        if self.quota == 0 {
            return report;
        }
        let mut index = self.index.lock().unwrap();
        let mut oldest: Vec<(u64, Arc<str>, u64)> = index
            .files
            .iter()
            .map(|(name, &(generation, bytes))| (generation, Arc::clone(name), bytes))
            .collect();
        oldest.sort();
        let mut gone = Vec::new();
        for (_, name, bytes) in oldest {
            if index.bytes - report.freed_bytes <= self.quota {
                break;
            }
            if self.io.remove(&self.dir.join(&*name)).is_ok() {
                report.freed_bytes += bytes;
                gone.push(name);
            }
        }
        let before = index.entries();
        index.forget(&gone);
        report.evicted = before - index.entries();
        self.evicted.fetch_add(report.evicted, Ordering::SeqCst);
        report
    }

    /// List the data files as `(file name, bytes)`, name-sorted.
    pub fn list(&self) -> Vec<(String, u64)> {
        let index = self.index.lock().unwrap();
        let mut out: Vec<(String, u64)> = index
            .files
            .iter()
            .map(|(name, &(_, bytes))| (name.to_string(), bytes))
            .collect();
        out.sort();
        out
    }

    /// Counter snapshot.
    pub fn snapshot(&self) -> StoreSnapshot {
        let (entries, bytes) = {
            let index = self.index.lock().unwrap();
            (index.entries(), index.bytes)
        };
        StoreSnapshot {
            writes: self.writes.load(Ordering::SeqCst),
            write_errors: self.write_errors.load(Ordering::SeqCst),
            skipped: self.skipped.load(Ordering::SeqCst),
            quarantined: self.quarantined.load(Ordering::SeqCst),
            loaded: self.loaded.load(Ordering::SeqCst),
            evicted: self.evicted.load(Ordering::SeqCst),
            entries,
            bytes,
            degraded: self.degraded.load(Ordering::SeqCst),
            commits: self.commits.load(Ordering::SeqCst),
            backlog_bytes: self.queue.lock().unwrap().bytes as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::{BASE_BACKOFF, TRIP};
    use std::sync::mpsc;
    use std::time::Duration;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "scalana-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The data files in a store directory (not `quarantine/`).
    fn data_files(dir: &Path) -> Vec<PathBuf> {
        RealIo.read_dir(dir).unwrap()
    }

    /// A profile write request, as `save` queues them.
    fn req(key: &str, payload: &[u8]) -> WriteReq {
        WriteReq {
            kind: EntryKind::Profile,
            key: key.to_string(),
            payload: Bytes::from(payload.to_vec()),
        }
    }

    fn backdate(path: &Path, seconds: u64) {
        let t = std::time::SystemTime::now() - Duration::from_secs(seconds);
        std::fs::File::options()
            .write(true)
            .open(path)
            .unwrap()
            .set_times(std::fs::FileTimes::new().set_modified(t))
            .unwrap();
    }

    #[test]
    fn frame_round_trips() {
        let frame = encode_frame(EntryKind::Profile, "abcd1234abcd1234", b"payload bytes");
        let (kind, key, payload) = decode_frame(&frame).unwrap();
        assert_eq!(kind, EntryKind::Profile);
        assert_eq!(key, "abcd1234abcd1234");
        assert_eq!(&payload[..], b"payload bytes");
    }

    #[test]
    fn frame_corruption_reasons_are_typed() {
        let frame = encode_frame(EntryKind::PsgTrace, "k", b"data");
        assert!(matches!(decode_frame(b""), Err(CorruptKind::Truncated)));
        assert!(matches!(
            decode_frame(b"not a store frame at all"),
            Err(CorruptKind::BadMagic)
        ));
        // Every possible byte cut is Truncated — the torn-write space.
        for cut in 0..frame.len() {
            assert!(
                matches!(decode_frame(&frame[..cut]), Err(CorruptKind::Truncated)),
                "cut at {cut}"
            );
        }
        // Any single corrupted payload byte is a checksum mismatch.
        let mut flipped = frame.to_vec();
        let i = frame.len() - TRAILER_BYTES - 1;
        flipped[i] ^= 0xff;
        assert!(matches!(
            decode_frame(&flipped),
            Err(CorruptKind::BadChecksum)
        ));
        let mut versioned = frame.to_vec();
        versioned[4] = 9;
        assert!(matches!(
            decode_frame(&versioned),
            Err(CorruptKind::BadVersion(9))
        ));
        let mut kinded = frame.to_vec();
        kinded[6] = 7;
        assert!(matches!(
            decode_frame(&kinded),
            Err(CorruptKind::BadKind(7))
        ));
    }

    #[test]
    fn a_data_file_is_whole_frames_back_to_back_or_corrupt() {
        let a = encode_frame(EntryKind::Profile, "aaaa", b"first payload");
        let b = encode_frame(EntryKind::PsgTrace, "bbbb", b"second");
        let file = [&a[..], &b[..]].concat();
        let frames = decode_frames(&file).unwrap();
        assert_eq!(
            frames,
            vec![
                (EntryKind::Profile, "aaaa".to_string(), 0..a.len()),
                (EntryKind::PsgTrace, "bbbb".to_string(), a.len()..file.len()),
            ]
        );
        // Each range is one frame `decode_frame` accepts on its own.
        let (_, _, payload) = decode_frame(&file[frames[1].2.clone()]).unwrap();
        assert_eq!(&payload[..], b"second");
        // A single frame is a batch of one: the older layout's files.
        assert_eq!(decode_frames(&a).unwrap().len(), 1);
        // No frames, a cut anywhere, or a trailing byte: not a data file.
        assert_eq!(decode_frames(b""), Err(CorruptKind::Truncated));
        for cut in 1..file.len() {
            if cut != a.len() {
                assert!(decode_frames(&file[..cut]).is_err(), "cut at {cut}");
            }
        }
        let padded = [&file[..], &[0u8][..]].concat();
        assert!(decode_frames(&padded).is_err());
    }

    #[test]
    fn trace_codec_round_trips_and_rejects_hostile_counts() {
        let trace: Vec<DiscoveryRound> = vec![
            vec![(0, 3, "work".to_string()), (1, 9, "inner".to_string())],
            vec![],
            vec![(2, 4, "f".to_string())],
        ];
        assert_eq!(decode_trace(encode_trace(&trace)).unwrap(), trace);
        let mut hostile = BytesMut::new();
        hostile.put_u64_le(u64::MAX);
        assert!(decode_trace(hostile.freeze()).is_none());
        let mut inner_hostile = BytesMut::new();
        inner_hostile.put_u64_le(1);
        inner_hostile.put_u64_le(u64::MAX);
        assert!(decode_trace(inner_hostile.freeze()).is_none());
        // Trailing garbage is rejected, not silently ignored.
        let mut padded = BytesMut::from(&encode_trace(&trace)[..]);
        padded.put_u8(0);
        assert!(decode_trace(padded.freeze()).is_none());
    }

    #[test]
    fn fault_plan_is_deterministic_per_seed() {
        let a = FaultPlan::seeded(42, 300);
        let b = FaultPlan::seeded(42, 300);
        let c = FaultPlan::seeded(43, 300);
        let fire = |p: &FaultPlan| (0..200).map(|i| p.fault_for(i)).collect::<Vec<_>>();
        assert_eq!(fire(&a), fire(&b));
        assert_ne!(fire(&a), fire(&c), "different seeds, different schedules");
        assert!(
            fire(&a).iter().any(|f| f.is_some()),
            "a 30% plan must fire within 200 ops"
        );
    }

    #[test]
    fn write_read_warm_cycle() {
        let dir = temp_dir("cycle");
        let store = DiskStore::open(Arc::new(RealIo), &dir, 0);
        assert_eq!(store.snapshot(), StoreSnapshot::default());
        store.save(EntryKind::Profile, "aaaa", Bytes::from_static(b"image-a"));
        let trace = encode_trace(&[vec![(0, 1, "f".to_string())]]);
        store.save(EntryKind::PsgTrace, "bbbb", trace);
        assert_eq!(store.snapshot().writes, 2);
        assert_eq!(store.snapshot().entries, 2);
        let read = |store: &DiskStore, key| store.read_entry(EntryKind::Profile, key);
        assert_eq!(&read(&store, "aaaa").unwrap()[..], b"image-a");
        assert!(read(&store, "missing").is_none());
        // A key is its kind's: the trace's key holds no profile.
        assert!(read(&store, "bbbb").is_none());

        // A second store over the same directory warms from disk: both
        // entries indexed and counted, only the profile offered to memory.
        let reopened = DiskStore::open(Arc::new(RealIo), &dir, 0);
        let snap = reopened.snapshot();
        assert_eq!((snap.loaded, snap.entries, snap.quarantined), (2, 2, 0));
        assert_eq!(
            reopened.warm_images(0).collect::<Vec<_>>(),
            vec![("aaaa".to_string(), Bytes::from_static(b"image-a"))]
        );
        assert_eq!(reopened.snapshot().loaded, 2, "warming is not a load");
        assert_eq!(
            decode_trace(reopened.read_entry(EntryKind::PsgTrace, "bbbb").unwrap()).unwrap(),
            vec![vec![(0, 1, "f".to_string())]]
        );
        assert_eq!(reopened.snapshot().loaded, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_alien_files_are_quarantined_at_warm_scan() {
        let dir = temp_dir("quarantine");
        DiskStore::open(Arc::new(RealIo), &dir, 0).save(
            EntryKind::Profile,
            "good",
            Bytes::from_static(b"ok"),
        );
        // Torn frame, alien file, orphan tmp — and a batch whose last
        // frame is torn, which condemns its first frame too.
        let torn = encode_frame(EntryKind::Profile, "torn", b"payload");
        std::fs::write(dir.join("profile-torn.img"), &torn[..torn.len() / 2]).unwrap();
        std::fs::write(dir.join("notes.txt"), b"alien").unwrap();
        std::fs::write(dir.join("profile-x.img.tmp"), b"orphan").unwrap();
        let whole = encode_frame(EntryKind::Profile, "whole", b"p");
        let half_batch = [&whole[..], &torn[..torn.len() / 2]].concat();
        std::fs::write(dir.join("batch-0000000000000000.img"), half_batch).unwrap();
        // Valid frames load under any name.
        let renamed = encode_frame(EntryKind::Profile, "real", b"p");
        std::fs::write(dir.join("profile-other.img"), &renamed).unwrap();

        let store = DiskStore::open(Arc::new(RealIo), &dir, 0);
        let snap = store.snapshot();
        assert_eq!(snap.quarantined, 4);
        assert_eq!((snap.entries, snap.loaded), (2, 2));
        for key in ["good", "real"] {
            assert!(store.read_entry(EntryKind::Profile, key).is_some(), "{key}");
        }
        assert!(store.read_entry(EntryKind::Profile, "whole").is_none());
        for bad in [
            "profile-torn.img",
            "notes.txt",
            "profile-x.img.tmp",
            "batch-0000000000000000.img",
        ] {
            assert!(
                dir.join("quarantine").join(bad).exists(),
                "{bad} must be quarantined"
            );
            assert!(!dir.join(bad).exists(), "{bad} must leave the data dir");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_frame_files_of_the_older_layout_load() {
        let dir = temp_dir("old-layout");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = encode_trace(&[vec![(0, 1, "f".to_string())]]);
        let profile = EntryKind::Profile;
        for (name, kind, key, payload) in [
            ("profile-aaaa.img", profile, "aaaa", &b"image-a"[..]),
            ("profile-bbbb.img", profile, "bbbb", &b"image-b"[..]),
            ("psg-cccc.img", EntryKind::PsgTrace, "cccc", &trace[..]),
        ] {
            std::fs::write(dir.join(name), encode_frame(kind, key, payload)).unwrap();
        }
        let store = DiskStore::open(Arc::new(RealIo), &dir, 0);
        let snap = store.snapshot();
        assert_eq!((snap.loaded, snap.entries, snap.quarantined), (3, 3, 0));
        assert_eq!(store.list().len(), 3, "each file is a batch of one");
        assert_eq!(
            &store.read_entry(EntryKind::Profile, "bbbb").unwrap()[..],
            b"image-b"
        );
        assert_eq!(
            store.read_entry(EntryKind::PsgTrace, "cccc").unwrap(),
            trace
        );
        // A rewrite lands in a batch file and takes the key over.
        store.save(EntryKind::Profile, "aaaa", Bytes::from_static(b"image-a2"));
        assert_eq!(
            &store.read_entry(EntryKind::Profile, "aaaa").unwrap()[..],
            b"image-a2"
        );
        assert_eq!(store.snapshot().entries, 3);
        // Warming takes the newest commits first.
        assert_eq!(
            store.warm_images(1).collect::<Vec<_>>(),
            vec![("aaaa".to_string(), Bytes::from_static(b"image-a2"))]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_range_that_fails_to_decode_quarantines_its_file_and_drops_its_keys() {
        let dir = temp_dir("bad-range");
        let store = DiskStore::open(Arc::new(RealIo), &dir, 0);
        let batch: Vec<WriteReq> = ["aaaa", "bbbb"]
            .iter()
            .map(|key| req(key, &[7u8; 100]))
            .collect();
        assert!(store.persist(&batch));
        store.save(EntryKind::Profile, "cccc", Bytes::from_static(b"elsewhere"));
        assert_eq!(data_files(&dir).len(), 2);
        // Flip one byte inside the second frame of the two-entry file.
        let (name, bytes) = store.list().into_iter().max_by_key(|f| f.1).unwrap();
        let mut raw = std::fs::read(dir.join(&name)).unwrap();
        raw[bytes as usize - TRAILER_BYTES - 1] ^= 0xff;
        std::fs::write(dir.join(&name), raw).unwrap();

        // The first frame's range is intact and still answers.
        assert!(store.read_entry(EntryKind::Profile, "aaaa").is_some());
        assert!(store.read_entry(EntryKind::Profile, "bbbb").is_none());
        let snap = store.snapshot();
        assert_eq!((snap.quarantined, snap.entries), (1, 1));
        assert!(dir.join("quarantine").join(&name).exists());
        assert!(store.read_entry(EntryKind::Profile, "aaaa").is_none());
        assert!(store.read_entry(EntryKind::Profile, "cccc").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn breaker_trips_to_memory_only_and_recovers_half_open() {
        let dir = temp_dir("breaker");
        // Each failing persist consumes two mutating ops (the faulted
        // tmp write, then the faulted cleanup remove); fault exactly
        // the first three persists' ops so the later probe succeeds.
        let faults: Vec<(u64, FaultKind)> = (0..6).map(|i| (i, FaultKind::Enospc)).collect();
        let io = Arc::new(FaultIo::new(FaultPlan::scripted(faults)));
        let store = DiskStore::open(io, &dir, 0);
        for i in 0..TRIP {
            store.save(
                EntryKind::Profile,
                &format!("k{i}"),
                Bytes::from_static(b"x"),
            );
        }
        let snap = store.snapshot();
        assert_eq!(snap.write_errors, u64::from(TRIP));
        assert_eq!(snap.degraded, 1, "breaker must trip open");

        // While open, writes are skipped, not attempted.
        store.save(EntryKind::Profile, "skipped", Bytes::from_static(b"x"));
        assert_eq!(store.snapshot().skipped, 1);
        assert!(data_files(&dir).is_empty());

        // After the backoff a half-open probe goes through; the plan's
        // faults for early ops no longer match the op counter, so the
        // probe succeeds and closes the breaker.
        std::thread::sleep(BASE_BACKOFF + Duration::from_millis(50));
        store.save(EntryKind::Profile, "probe", Bytes::from_static(b"x"));
        let snap = store.snapshot();
        assert_eq!(snap.degraded, 0, "successful probe closes the breaker");
        assert_eq!((snap.writes, snap.commits), (1, 1));
        assert!(store.read_entry(EntryKind::Profile, "probe").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_batch_counts_every_entry_and_steps_the_backoff_once() {
        let dir = temp_dir("batch-fault");
        let faults = vec![(0, FaultKind::Eio), (1, FaultKind::Eio)];
        let io = Arc::new(FaultIo::new(FaultPlan::scripted(faults)));
        let store = DiskStore::open(io, &dir, 0);
        let batch: Vec<WriteReq> = (0..TRIP + 2).map(|i| req(&format!("k{i}"), b"x")).collect();
        assert!(!store.persist(&batch));
        let snap = store.snapshot();
        assert_eq!(snap.write_errors, u64::from(TRIP) + 2);
        assert_eq!((snap.entries, snap.degraded), (0, 1));
        std::thread::sleep(BASE_BACKOFF + Duration::from_millis(50));
        assert!(store.persist(&batch), "one backoff step, then the probe");
        assert_eq!(store.snapshot().entries, u64::from(TRIP) + 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    type Hook = Mutex<Option<Box<dyn FnOnce() + Send>>>;

    /// A `StoreIo` with one-shot hooks: `on_write` runs inside the next
    /// `write` before any byte lands (park the writer there), `on_remove`
    /// inside the next `remove` (a commit racing the sweep).
    #[derive(Default)]
    struct HookIo {
        inner: RealIo,
        on_write: Hook,
        on_remove: Hook,
    }

    impl HookIo {
        /// A store over `dir` whose IO the returned handle can hook.
        fn store(dir: &Path, quota: u64) -> (Arc<HookIo>, Arc<DiskStore>) {
            let io = Arc::new(HookIo::default());
            let store = DiskStore::open(io.clone() as Arc<dyn StoreIo>, dir, quota);
            (io, Arc::new(store))
        }

        fn fire(hook: &Hook) {
            let hook = hook.lock().unwrap().take();
            if let Some(hook) = hook {
                hook();
            }
        }

        /// Park the next `write` until the returned sender fires (or
        /// drops); the receiver reports that the write got there.
        fn park_next_write(&self) -> (mpsc::Receiver<()>, mpsc::Sender<()>) {
            let (entered_tx, entered) = mpsc::channel();
            let (release, released) = mpsc::channel::<()>();
            *self.on_write.lock().unwrap() = Some(Box::new(move || {
                let _ = entered_tx.send(());
                let _ = released.recv();
            }));
            (entered, release)
        }
    }

    impl std::fmt::Debug for HookIo {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("HookIo")
        }
    }

    impl StoreIo for HookIo {
        fn create_dir_all(&self, path: &Path) -> io::Result<()> {
            self.inner.create_dir_all(path)
        }
        fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            HookIo::fire(&self.on_write);
            self.inner.write(path, bytes)
        }
        fn sync_file(&self, path: &Path) -> io::Result<()> {
            self.inner.sync_file(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            self.inner.rename(from, to)
        }
        fn sync_dir(&self, path: &Path) -> io::Result<()> {
            self.inner.sync_dir(path)
        }
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            self.inner.read(path)
        }
        fn read_range(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
            self.inner.read_range(path, offset, len)
        }
        fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
            self.inner.read_dir(path)
        }
        fn remove(&self, path: &Path) -> io::Result<()> {
            HookIo::fire(&self.on_remove);
            self.inner.remove(path)
        }
        fn metadata(&self, path: &Path) -> io::Result<(u64, u64)> {
            self.inner.metadata(path)
        }
    }

    #[test]
    fn sweep_never_deletes_an_entry_written_during_the_sweep() {
        let dir = temp_dir("sweep-race");
        // Two files, `old`'s backdated so it is the first victim.
        {
            let setup = DiskStore::open(Arc::new(RealIo), &dir, 0);
            setup.save(
                EntryKind::Profile,
                "old",
                Bytes::from_static(b"stale bytes"),
            );
            backdate(&data_files(&dir)[0], 3600);
            setup.save(
                EntryKind::Profile,
                "young",
                Bytes::from_static(b"newer bytes"),
            );
        }

        // Tiny quota: everything the sweep sees is over it.
        let (io, store) = HookIo::store(&dir, 1);

        // The hook fires inside the sweep, before its first removal: a
        // racing commit rewrites `old` with the same bytes — under the
        // very file name the sweep is about to remove.
        let racer = Arc::clone(&store);
        let (started_tx, started) = mpsc::channel();
        let race = Arc::new(Mutex::new(None));
        let spawned = Arc::clone(&race);
        *io.on_remove.lock().unwrap() = Some(Box::new(move || {
            *spawned.lock().unwrap() = Some(std::thread::spawn(move || {
                started_tx.send(()).unwrap();
                racer.commit(&[req("old", b"stale bytes")]).unwrap();
            }));
            started.recv().unwrap();
        }));

        let report = store.sweep();
        let racing = race.lock().unwrap().take().expect("the hook fired");
        racing.join().unwrap();
        assert_eq!(
            &store.read_entry(EntryKind::Profile, "old").unwrap()[..],
            b"stale bytes",
            "the entry rewritten during the sweep survives"
        );
        // The sweep still evicted everything that was there before it.
        assert_eq!(report.evicted, 2);
        assert!(store.read_entry(EntryKind::Profile, "young").is_none());
        assert_eq!(data_files(&dir).len(), 1);
        assert_eq!(store.snapshot().entries, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quota_sweep_evicts_oldest_first() {
        let dir = temp_dir("quota");
        let store = DiskStore::open(Arc::new(RealIo), &dir, 0);
        // One file per save; the mtimes say `a` is oldest, against the
        // order of the (content-hashed) names.
        for (key, age) in [("a", 300), ("b", 200), ("c", 100)] {
            let before = data_files(&dir);
            store.save(EntryKind::Profile, key, Bytes::from(vec![0u8; 100]));
            let new = data_files(&dir)
                .into_iter()
                .find(|f| !before.contains(f))
                .unwrap();
            backdate(&new, age);
        }
        let frame_len = store.snapshot().bytes / 3;
        // Re-open with a quota that fits exactly one file.
        let store = DiskStore::open(Arc::new(RealIo), &dir, frame_len + 10);
        let report = store.sweep();
        assert_eq!((report.evicted, report.freed_bytes), (2, 2 * frame_len));
        let read = |key| store.read_entry(EntryKind::Profile, key);
        assert!(read("a").is_none(), "oldest evicted first");
        assert!(read("b").is_none());
        assert!(read("c").is_some(), "newest survives");
        let snap = store.snapshot();
        assert_eq!((snap.entries, snap.bytes, snap.evicted), (1, frame_len, 2));
        assert_eq!(data_files(&dir).len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn writer_thread_flushes_pending_writes_on_stop() {
        let dir = temp_dir("writer");
        let store = Arc::new(DiskStore::open(Arc::new(RealIo), &dir, 0));
        let handle = store.start_writer();
        for i in 0..25 {
            let image = Bytes::from(vec![i as u8; 64]);
            store.save(EntryKind::Profile, &format!("k{i:02}"), image);
        }
        store.stop_writer();
        handle.join().unwrap();
        let snap = store.snapshot();
        assert_eq!(snap.writes, 25, "every queued write flushed");
        assert_eq!((snap.entries, snap.backlog_bytes), (25, 0));
        assert_eq!(store.list().len() as u64, snap.commits);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn saves_queued_behind_a_parked_commit_land_in_one_further_file() {
        let dir = temp_dir("batching");
        let (io, store) = HookIo::store(&dir, 0);
        let writer = store.start_writer();
        let (entered, release) = io.park_next_write();
        store.save(EntryKind::Profile, "first", Bytes::from_static(b"alone"));
        entered.recv().unwrap();
        // The writer sits inside its first commit: these pile up.
        let queued: Vec<String> = (0..10).map(|i| format!("k{i:02}")).collect();
        for key in &queued {
            store.save(
                EntryKind::Profile,
                key,
                Bytes::from(key.as_bytes().to_vec()),
            );
        }
        assert_eq!(store.snapshot().writes, 0);
        release.send(()).unwrap();
        store.stop_writer();
        writer.join().unwrap();

        let snap = store.snapshot();
        assert_eq!((snap.writes, snap.commits, snap.entries), (11, 2, 11));
        assert_eq!(data_files(&dir).len(), 2, "one file per commit");
        for key in &queued {
            let image = store.read_entry(EntryKind::Profile, key).unwrap();
            assert_eq!(&image[..], key.as_bytes());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn producers_block_at_the_queue_budget_and_nothing_is_dropped() {
        let dir = temp_dir("backpressure");
        let (io, store) = HookIo::store(&dir, 0);
        let writer = store.start_writer();
        let (entered, release) = io.park_next_write();
        // Eight of these fill the budget exactly; the commit under way
        // keeps its share until it lands.
        let image = Bytes::from(vec![0x5a; QUEUE_BUDGET / 8]);
        store.save(EntryKind::Profile, "k00", image.clone());
        entered.recv().unwrap();

        const ENTRIES: usize = 13;
        let (saved_tx, saved) = mpsc::channel();
        let producer = {
            let (store, image) = (Arc::clone(&store), image.clone());
            std::thread::spawn(move || {
                for i in 1..ENTRIES {
                    store.save(EntryKind::Profile, &format!("k{i:02}"), image.clone());
                    saved_tx.send(i).unwrap();
                }
            })
        };
        // Seven more fit. The eighth `save` cannot return while the
        // writer is parked: it would put the queue over its budget.
        for i in 1..8 {
            assert_eq!(saved.recv().unwrap(), i);
        }
        assert_eq!(store.snapshot().backlog_bytes, QUEUE_BUDGET as u64);
        assert!(saved.try_recv().is_err(), "a save got past a full queue");

        release.send(()).unwrap();
        producer.join().unwrap();
        assert!(store.snapshot().backlog_bytes <= QUEUE_BUDGET as u64);
        store.stop_writer();
        writer.join().unwrap();
        let snap = store.snapshot();
        assert_eq!((snap.skipped, snap.write_errors), (0, 0));
        assert_eq!((snap.writes, snap.backlog_bytes), (ENTRIES as u64, 0));
        for i in 0..ENTRIES {
            let read = store.read_entry(EntryKind::Profile, &format!("k{i:02}"));
            assert_eq!(read, Some(image.clone()), "k{i:02}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
