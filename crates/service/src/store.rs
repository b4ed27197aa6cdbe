//! Durable on-disk store for the daemon's content-addressed caches.
//!
//! `scalana serve --store-dir <dir>` writes every per-scale profile
//! image and every refined-PSG discovery trace through to disk as a
//! content-addressed file, so a restarted (or crashed) daemon warms its
//! caches from the directory and answers previously-profiled scales
//! with zero re-simulation, byte-identical to its pre-crash answers.
//!
//! Three layers keep this crash-safe:
//!
//! 1. **Atomic write protocol** — every entry is written to a `.tmp`
//!    sibling, fsynced, renamed into place, and the directory fsynced.
//!    A crash at any point leaves either the old entry, the new entry,
//!    or a quarantinable `.tmp` orphan — never a half-visible file.
//!    Entries are framed with a versioned header and a length/checksum
//!    trailer ([`encode_frame`]/[`decode_frame`]), so torn or alien
//!    bytes are detected, typed ([`CorruptKind`]), quarantined to
//!    `<store-dir>/quarantine/`, and counted — never panicked on.
//! 2. **Injectable IO** — all filesystem traffic goes through the
//!    [`StoreIo`] trait. Production uses [`RealIo`]; tests drive the
//!    seed-deterministic [`FaultIo`]/[`FaultPlan`] (ENOSPC, EIO,
//!    permission loss, fsync failure, torn write then crash) to prove
//!    every failure mode degrades instead of corrupting.
//! 3. **Circuit breaker** — persistent write failures trip the store
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
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

/// Magic number opening every store frame (distinct from the inner
/// profile-image magic so the two layers cannot be confused).
pub const STORE_MAGIC: u32 = 0x5ca1_ad15;
/// Store frame format version.
pub const STORE_VERSION: u16 = 1;
/// Trailer size: payload-length echo (u64) + FNV-1a checksum (u64).
const TRAILER_BYTES: usize = 16;
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

    /// The entry's file-name prefix and `/v1/peer/<prefix>/…` noun.
    pub fn prefix(self) -> &'static str {
        match self {
            EntryKind::Profile => "profile",
            EntryKind::PsgTrace => "psg",
        }
    }
}

/// The data file name for an entry.
pub fn entry_file_name(kind: EntryKind, key: &str) -> String {
    format!("{}-{}.img", kind.prefix(), key)
}

/// Parse a data file name back into its expected kind and key.
fn parse_file_name(name: &str) -> Option<(EntryKind, &str)> {
    let stem = name.strip_suffix(".img")?;
    if let Some(key) = stem.strip_prefix("profile-") {
        return Some((EntryKind::Profile, key));
    }
    stem.strip_prefix("psg-")
        .map(|key| (EntryKind::PsgTrace, key))
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
    /// Valid frame whose embedded key or kind disagrees with the file
    /// name it was found under (misplaced or renamed file).
    KeyMismatch,
}

impl std::fmt::Display for CorruptKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorruptKind::Truncated => write!(f, "truncated store frame"),
            CorruptKind::BadMagic => write!(f, "not a store frame"),
            CorruptKind::BadVersion(v) => write!(f, "unsupported store version {v}"),
            CorruptKind::BadKind(t) => write!(f, "unknown store entry kind {t}"),
            CorruptKind::BadChecksum => write!(f, "store frame checksum mismatch"),
            CorruptKind::KeyMismatch => write!(f, "store frame key disagrees with file name"),
        }
    }
}

/// Frame an entry: versioned header, content-addressed key, payload,
/// then a length/checksum trailer over every preceding byte.
pub fn encode_frame(kind: EntryKind, key: &str, payload: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(payload.len() + key.len() + 48);
    buf.put_u32_le(STORE_MAGIC);
    buf.put_u16_le(STORE_VERSION);
    buf.put_u8(kind.tag());
    buf.put_u16_le(key.len() as u16);
    buf.put_slice(key.as_bytes());
    buf.put_u64_le(payload.len() as u64);
    buf.put_slice(payload);
    let mut h = StableHasher::new();
    h.write_bytes(&buf);
    buf.put_u64_le(payload.len() as u64);
    buf.put_u64_le(h.finish());
    buf.freeze()
}

/// Decode a store frame, returning the typed corruption reason on any
/// mismatch. The checksum covers header and payload, so a single
/// flipped bit anywhere is `BadChecksum`; a byte cut anywhere is
/// `Truncated`.
pub fn decode_frame(raw: &[u8]) -> Result<(EntryKind, String, Bytes), CorruptKind> {
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
    if raw.len() != total {
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
    let payload = Bytes::from(raw[header_end + 8..total - TRAILER_BYTES].to_vec());
    Ok((kind, key, payload))
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

/// Counter snapshot for `/v1/stats` and the `scalana_store_*` metric
/// families.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreSnapshot {
    /// Entries successfully persisted.
    pub writes: u64,
    /// Failed write attempts (any step of the atomic protocol).
    pub write_errors: u64,
    /// Writes skipped because the breaker was open (memory-only mode).
    pub skipped: u64,
    /// Files moved to `quarantine/` (corrupt, torn, alien, orphaned).
    pub quarantined: u64,
    /// Entries successfully loaded from disk (warm scan + read-through).
    pub loaded: u64,
    /// Entries removed by the quota sweep.
    pub evicted: u64,
    /// Live entries in the store directory.
    pub entries: u64,
    /// Bytes of live entries.
    pub bytes: u64,
    /// 1 while the circuit breaker is open (memory-only mode), else 0.
    pub degraded: u64,
}

/// Result of one LRU quota sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Entries removed.
    pub evicted: u64,
    /// Bytes freed.
    pub freed_bytes: u64,
}

/// The durable store: a directory of framed, content-addressed entries
/// plus the machinery above (atomic writes, quarantine, warm scan,
/// write-behind thread, circuit breaker, LRU quota sweep).
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
    entries: AtomicU64,
    bytes: AtomicU64,
    degraded: AtomicU64,
    /// Bumped once per *completed* write; the sweep snapshots it so an
    /// entry (re)written during the sweep is never a victim.
    generation: AtomicU64,
    write_gens: Mutex<HashMap<String, u64>>,
    breaker: Mutex<Breaker>,
    writer: Mutex<Option<mpsc::Sender<WriteReq>>>,
}

impl DiskStore {
    /// Open (creating if needed) a store directory and warm-scan it.
    /// Returns the store plus every valid profile image found, for
    /// seeding the in-memory per-scale cache; PSG traces stay on disk
    /// and are read on demand.
    ///
    /// Never fails hard: an unreadable or uncreatable directory yields
    /// an empty, already-degraded store — the daemon must stay
    /// available in memory-only mode.
    pub fn open(io: Arc<dyn StoreIo>, dir: &Path, quota: u64) -> (DiskStore, Vec<(String, Bytes)>) {
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
            entries: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            write_gens: Mutex::new(HashMap::new()),
            breaker: Mutex::new(Breaker::new()),
            writer: Mutex::new(None),
        };
        if store.io.create_dir_all(&store.dir).is_err()
            || store.io.create_dir_all(&store.quarantine_dir()).is_err()
        {
            store.mark_degraded();
            return (store, Vec::new());
        }
        let warm = store.warm_scan();
        (store, warm)
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

    fn entry_path(&self, kind: EntryKind, key: &str) -> PathBuf {
        self.dir.join(entry_file_name(kind, key))
    }

    /// Scan the directory: load valid entries, quarantine everything
    /// else (`.tmp` orphans, torn frames, alien files, key mismatches).
    fn warm_scan(&self) -> Vec<(String, Bytes)> {
        let files = match self.io.read_dir(&self.dir) {
            Ok(files) => files,
            Err(_) => {
                self.mark_degraded();
                return Vec::new();
            }
        };
        let mut warm = Vec::new();
        for path in files {
            let name = match path.file_name().and_then(|n| n.to_str()) {
                Some(name) => name.to_string(),
                None => {
                    self.quarantine(&path);
                    continue;
                }
            };
            let expected = match parse_file_name(&name) {
                Some(expected) if !name.ends_with(".tmp") => expected,
                _ => {
                    // `.tmp` orphans from a crash mid-write, and files
                    // the store never wrote.
                    self.quarantine(&path);
                    continue;
                }
            };
            let raw = match self.io.read(&path) {
                Ok(raw) => raw,
                Err(_) => {
                    self.quarantine(&path);
                    continue;
                }
            };
            match decode_frame(&raw) {
                Ok((kind, key, payload)) if (kind, key.as_str()) == expected => {
                    self.entries.fetch_add(1, Ordering::SeqCst);
                    self.bytes.fetch_add(raw.len() as u64, Ordering::SeqCst);
                    self.loaded.fetch_add(1, Ordering::SeqCst);
                    if kind == EntryKind::Profile {
                        warm.push((key, payload));
                    }
                }
                // Decoded fine but filed under the wrong name: treat
                // exactly like `CorruptKind::KeyMismatch`.
                Ok(_) | Err(_) => self.quarantine(&path),
            }
        }
        warm
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

    /// Queue an entry for durable write-behind persistence (or write
    /// synchronously when no writer thread is running).
    pub fn save(&self, kind: EntryKind, key: &str, payload: Bytes) {
        let sender = self.writer.lock().unwrap().clone();
        let req = WriteReq {
            kind,
            key: key.to_string(),
            payload,
        };
        match sender {
            Some(tx) => {
                if let Err(mpsc::SendError(req)) = tx.send(req) {
                    self.persist(req.kind, &req.key, &req.payload);
                }
            }
            None => {
                self.persist(req.kind, &req.key, &req.payload);
            }
        }
    }

    /// [`DiskStore::read_entry`] for a profile image.
    pub fn read_profile(&self, key: &str) -> Option<Bytes> {
        self.read_entry(EntryKind::Profile, key)
    }

    /// Read one entry back. A file that is missing yields `None`; one
    /// that does not decode as this key's frame is quarantined first.
    pub fn read_entry(&self, kind: EntryKind, key: &str) -> Option<Bytes> {
        let path = self.entry_path(kind, key);
        let raw = self.io.read(&path).ok()?;
        match decode_frame(&raw) {
            Ok((k, embedded, payload)) if k == kind && embedded == key => {
                self.loaded.fetch_add(1, Ordering::SeqCst);
                Some(payload)
            }
            _ => {
                self.quarantine(&path);
                self.entries
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |e| {
                        Some(e.saturating_sub(1))
                    })
                    .ok();
                self.bytes
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| {
                        Some(b.saturating_sub(raw.len() as u64))
                    })
                    .ok();
                None
            }
        }
    }

    /// Spawn the write-behind thread. Queued writes drain in order;
    /// [`DiskStore::stop_writer`] plus joining the returned handle
    /// flushes everything pending (graceful-shutdown contract).
    pub fn start_writer(self: &Arc<Self>) -> std::thread::JoinHandle<()> {
        let (tx, rx) = mpsc::channel::<WriteReq>();
        *self.writer.lock().unwrap() = Some(tx);
        let store = Arc::clone(self);
        std::thread::Builder::new()
            .name("store-writer".to_string())
            .spawn(move || {
                for req in rx {
                    store.persist(req.kind, &req.key, &req.payload);
                }
            })
            .expect("spawn store-writer thread")
    }

    /// Drop the writer sender: the thread drains its queue and exits,
    /// and later [`DiskStore::save`] calls persist synchronously.
    pub fn stop_writer(&self) {
        self.writer.lock().unwrap().take();
    }

    fn mark_degraded(&self) {
        self.degraded.store(1, Ordering::SeqCst);
    }

    /// Whether the breaker currently has the store in memory-only mode.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst) == 1
    }

    /// One durable write through the breaker and the atomic protocol.
    /// Returns whether the entry reached disk.
    fn persist(&self, kind: EntryKind, key: &str, payload: &[u8]) -> bool {
        let now = Instant::now();
        if !self.breaker.lock().unwrap().admit(now) {
            self.skipped.fetch_add(1, Ordering::SeqCst);
            return false;
        }
        match self.write_entry(kind, key, payload) {
            Ok(()) => {
                let mut breaker = self.breaker.lock().unwrap();
                breaker.on_success();
                drop(breaker);
                self.degraded.store(0, Ordering::SeqCst);
                self.writes.fetch_add(1, Ordering::SeqCst);
                if self.quota > 0 && self.bytes.load(Ordering::SeqCst) > self.quota {
                    self.sweep();
                }
                true
            }
            Err(_) => {
                self.write_errors.fetch_add(1, Ordering::SeqCst);
                let mut breaker = self.breaker.lock().unwrap();
                breaker.on_failure(Instant::now());
                let open = breaker.is_open();
                drop(breaker);
                if open {
                    self.mark_degraded();
                }
                false
            }
        }
    }

    /// The atomic write protocol: frame, write `.tmp`, fsync, rename
    /// into place, fsync the directory. A failure before the rename
    /// leaves at most a quarantinable `.tmp`; after the rename the
    /// entry is complete and valid even if the directory fsync fails.
    fn write_entry(&self, kind: EntryKind, key: &str, payload: &[u8]) -> io::Result<()> {
        let frame = encode_frame(kind, key, payload);
        let final_path = self.entry_path(kind, key);
        let tmp_path = self.dir.join(format!("{}.tmp", entry_file_name(kind, key)));
        let previous_len = self.io.metadata(&final_path).map(|(len, _)| len).ok();

        let staged = self
            .io
            .write(&tmp_path, &frame)
            .and_then(|()| self.io.sync_file(&tmp_path))
            .and_then(|()| self.io.rename(&tmp_path, &final_path));
        if let Err(e) = staged {
            let _ = self.io.remove(&tmp_path);
            return Err(e);
        }

        // Book-keeping before the directory fsync: the entry is already
        // complete and readable, so even a failed dir fsync (counted as
        // a write error by the caller) must not untrack it.
        let generation = self.generation.fetch_add(1, Ordering::SeqCst) + 1;
        self.write_gens
            .lock()
            .unwrap()
            .insert(entry_file_name(kind, key), generation);
        match previous_len {
            Some(old) => {
                self.bytes.fetch_add(frame.len() as u64, Ordering::SeqCst);
                self.bytes
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| {
                        Some(b.saturating_sub(old))
                    })
                    .ok();
            }
            None => {
                self.entries.fetch_add(1, Ordering::SeqCst);
                self.bytes.fetch_add(frame.len() as u64, Ordering::SeqCst);
            }
        }
        self.io.sync_dir(&self.dir)
    }

    /// LRU sweep: delete oldest entries (by mtime, name-tie-broken)
    /// until the store fits the quota. Entries written after the sweep
    /// started (their write generation exceeds the snapshot) are never
    /// victims. No locks are held across IO calls.
    pub fn sweep(&self) -> SweepReport {
        let snapshot_gen = self.generation.load(Ordering::SeqCst);
        if self.quota == 0 {
            return SweepReport::default();
        }
        let files = match self.io.read_dir(&self.dir) {
            Ok(files) => files,
            Err(_) => return SweepReport::default(),
        };
        let mut candidates: Vec<(u64, String, PathBuf, u64)> = Vec::new();
        let mut total: u64 = 0;
        for path in files {
            let name = match path.file_name().and_then(|n| n.to_str()) {
                Some(name) if parse_file_name(name).is_some() && !name.ends_with(".tmp") => {
                    name.to_string()
                }
                _ => continue,
            };
            if let Ok((len, mtime)) = self.io.metadata(&path) {
                total += len;
                candidates.push((mtime, name, path, len));
            }
        }
        candidates.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));

        let mut report = SweepReport::default();
        for (_, name, path, len) in candidates {
            if total <= self.quota {
                break;
            }
            let fresh = self
                .write_gens
                .lock()
                .unwrap()
                .get(&name)
                .is_some_and(|g| *g > snapshot_gen);
            if fresh {
                continue;
            }
            if self.io.remove(&path).is_ok() {
                total -= len;
                report.evicted += 1;
                report.freed_bytes += len;
                self.evicted.fetch_add(1, Ordering::SeqCst);
                self.entries
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |e| {
                        Some(e.saturating_sub(1))
                    })
                    .ok();
                self.bytes
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| {
                        Some(b.saturating_sub(len))
                    })
                    .ok();
            }
        }
        report
    }

    /// List live entries as `(file name, bytes)`, name-sorted.
    pub fn list(&self) -> Vec<(String, u64)> {
        let files = match self.io.read_dir(&self.dir) {
            Ok(files) => files,
            Err(_) => return Vec::new(),
        };
        let mut out = Vec::new();
        for path in files {
            if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
                if parse_file_name(name).is_some() && !name.ends_with(".tmp") {
                    if let Ok((len, _)) = self.io.metadata(&path) {
                        out.push((name.to_string(), len));
                    }
                }
            }
        }
        out.sort();
        out
    }

    /// Counter snapshot.
    pub fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot {
            writes: self.writes.load(Ordering::SeqCst),
            write_errors: self.write_errors.load(Ordering::SeqCst),
            skipped: self.skipped.load(Ordering::SeqCst),
            quarantined: self.quarantined.load(Ordering::SeqCst),
            loaded: self.loaded.load(Ordering::SeqCst),
            evicted: self.evicted.load(Ordering::SeqCst),
            entries: self.entries.load(Ordering::SeqCst),
            bytes: self.bytes.load(Ordering::SeqCst),
            degraded: self.degraded.load(Ordering::SeqCst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::{BASE_BACKOFF, TRIP};
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
        let (store, warm) = DiskStore::open(Arc::new(RealIo), &dir, 0);
        assert!(warm.is_empty());
        store.save(EntryKind::Profile, "aaaa", Bytes::from_static(b"image-a"));
        let trace = encode_trace(&[vec![(0, 1, "f".to_string())]]);
        store.save(EntryKind::PsgTrace, "bbbb", trace);
        assert_eq!(store.snapshot().writes, 2);
        assert_eq!(store.snapshot().entries, 2);
        assert_eq!(&store.read_profile("aaaa").unwrap()[..], b"image-a");
        assert!(store.read_profile("missing").is_none());

        // A second store over the same directory warms from disk.
        let (reopened, warm) = DiskStore::open(Arc::new(RealIo), &dir, 0);
        assert_eq!(
            warm,
            vec![("aaaa".to_string(), Bytes::from_static(b"image-a"))]
        );
        assert_eq!(
            decode_trace(reopened.read_entry(EntryKind::PsgTrace, "bbbb").unwrap()).unwrap(),
            vec![vec![(0, 1, "f".to_string())]]
        );
        assert_eq!(reopened.snapshot().quarantined, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_alien_files_are_quarantined_at_warm_scan() {
        let dir = temp_dir("quarantine");
        {
            let (store, _) = DiskStore::open(Arc::new(RealIo), &dir, 0);
            store.save(EntryKind::Profile, "good", Bytes::from_static(b"ok"));
        }
        // Torn frame, alien file, orphan tmp, key mismatch.
        let torn = encode_frame(EntryKind::Profile, "torn", b"payload");
        std::fs::write(dir.join("profile-torn.img"), &torn[..torn.len() / 2]).unwrap();
        std::fs::write(dir.join("notes.txt"), b"alien").unwrap();
        std::fs::write(dir.join("profile-x.img.tmp"), b"orphan").unwrap();
        let misfiled = encode_frame(EntryKind::Profile, "real", b"p");
        std::fs::write(dir.join("profile-other.img"), &misfiled).unwrap();

        let (store, warm) = DiskStore::open(Arc::new(RealIo), &dir, 0);
        assert_eq!(warm.len(), 1, "only the good entry survives");
        let snap = store.snapshot();
        assert_eq!(snap.quarantined, 4);
        assert_eq!(snap.entries, 1);
        for bad in [
            "profile-torn.img",
            "notes.txt",
            "profile-x.img.tmp",
            "profile-other.img",
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
    fn breaker_trips_to_memory_only_and_recovers_half_open() {
        let dir = temp_dir("breaker");
        // Each failing persist consumes two mutating ops (the faulted
        // tmp write, then the faulted cleanup remove); fault exactly
        // the first three persists' ops so the later probe succeeds.
        let faults: Vec<(u64, FaultKind)> = (0..6).map(|i| (i, FaultKind::Enospc)).collect();
        let io = Arc::new(FaultIo::new(FaultPlan::scripted(faults)));
        let (store, _) = DiskStore::open(io, &dir, 0);
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
        assert!(!dir.join("profile-skipped.img").exists());

        // After the backoff a half-open probe goes through; the plan's
        // faults for early ops no longer match the op counter, so the
        // probe succeeds and closes the breaker.
        std::thread::sleep(BASE_BACKOFF + Duration::from_millis(50));
        store.save(EntryKind::Profile, "probe", Bytes::from_static(b"x"));
        let snap = store.snapshot();
        assert_eq!(snap.degraded, 0, "successful probe closes the breaker");
        assert_eq!(snap.writes, 1);
        assert!(dir.join("profile-probe.img").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A `StoreIo` that fires a one-shot hook after the sweep's
    /// directory listing, simulating a concurrent write landing between
    /// the listing and the removals.
    struct HookIo {
        inner: RealIo,
        hook: Mutex<Option<Box<dyn FnOnce() + Send>>>,
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
        fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
            let listing = self.inner.read_dir(path);
            if let Some(hook) = self.hook.lock().unwrap().take() {
                hook();
            }
            listing
        }
        fn remove(&self, path: &Path) -> io::Result<()> {
            self.inner.remove(path)
        }
        fn metadata(&self, path: &Path) -> io::Result<(u64, u64)> {
            self.inner.metadata(path)
        }
    }

    #[test]
    fn sweep_never_deletes_an_entry_written_during_the_sweep() {
        let dir = temp_dir("sweep-race");
        // Two entries, `old` backdated so it sorts as the LRU victim.
        {
            let (setup, _) = DiskStore::open(Arc::new(RealIo), &dir, 0);
            setup.persist(EntryKind::Profile, "old", b"stale bytes");
            setup.persist(EntryKind::Profile, "young", b"newer bytes");
        }
        let backdate = std::time::SystemTime::now() - Duration::from_secs(3600);
        let file = std::fs::File::options()
            .write(true)
            .open(dir.join("profile-old.img"))
            .unwrap();
        file.set_times(std::fs::FileTimes::new().set_modified(backdate))
            .unwrap();

        // Tiny quota: everything is over it, so without the generation
        // guard the sweep would delete every listed file.
        let io = Arc::new(HookIo {
            inner: RealIo,
            hook: Mutex::new(None),
        });
        let (store, _) = DiskStore::open(io.clone() as Arc<dyn StoreIo>, &dir, 1);
        let store = Arc::new(store);

        // The hook fires after the sweep lists the directory and before
        // any removal: `old` is rewritten mid-sweep.
        let racer = Arc::clone(&store);
        *io.hook.lock().unwrap() = Some(Box::new(move || {
            racer
                .write_entry(EntryKind::Profile, "old", b"fresh bytes")
                .unwrap();
        }));

        let report = store.sweep();
        assert!(
            dir.join("profile-old.img").exists(),
            "entry rewritten during the sweep must survive"
        );
        assert_eq!(
            &store.read_profile("old").unwrap()[..],
            b"fresh bytes",
            "the surviving entry is the fresh write"
        );
        // The sweep still made progress on stale entries.
        assert_eq!(report.evicted, 1);
        assert!(!dir.join("profile-young.img").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quota_sweep_evicts_oldest_first() {
        let dir = temp_dir("quota");
        let (store, _) = DiskStore::open(Arc::new(RealIo), &dir, 0);
        store.persist(EntryKind::Profile, "a", &[0u8; 100]);
        store.persist(EntryKind::Profile, "b", &[0u8; 100]);
        store.persist(EntryKind::Profile, "c", &[0u8; 100]);
        let frame_len = store.snapshot().bytes / 3;
        for (name, age) in [
            ("profile-a.img", 300),
            ("profile-b.img", 200),
            ("profile-c.img", 100),
        ] {
            let t = std::time::SystemTime::now() - Duration::from_secs(age);
            std::fs::File::options()
                .write(true)
                .open(dir.join(name))
                .unwrap()
                .set_times(std::fs::FileTimes::new().set_modified(t))
                .unwrap();
        }
        // Re-open with a quota that fits exactly one entry.
        let (store, _) = DiskStore::open(Arc::new(RealIo), &dir, frame_len + 10);
        let report = store.sweep();
        assert_eq!(report.evicted, 2);
        assert!(!dir.join("profile-a.img").exists(), "oldest evicted first");
        assert!(!dir.join("profile-b.img").exists());
        assert!(dir.join("profile-c.img").exists(), "newest survives");
        assert_eq!(store.snapshot().entries, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn writer_thread_flushes_pending_writes_on_stop() {
        let dir = temp_dir("writer");
        let (store, _) = DiskStore::open(Arc::new(RealIo), &dir, 0);
        let store = Arc::new(store);
        let handle = store.start_writer();
        for i in 0..25 {
            let image = Bytes::from(vec![i as u8; 64]);
            store.save(EntryKind::Profile, &format!("k{i:02}"), image);
        }
        store.stop_writer();
        handle.join().unwrap();
        assert_eq!(store.snapshot().writes, 25, "every queued write flushed");
        assert_eq!(store.list().len(), 25);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
