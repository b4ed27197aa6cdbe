//! Content-addressed caches for the artifacts *inside* a job.
//!
//! The paper's workflow splits profiling (one run per scale) from
//! detection precisely so profiles are reusable artifacts; the whole-job
//! result cache in [`crate::cache`] cannot exploit that — a submission
//! whose scale set merely overlaps a previous one re-simulates every
//! scale. These caches operate one level down:
//!
//! - [`ProfileCache`] — what `ScalAna-prof` persists, resident: the
//!   memory tier of [`crate::tiers`]. Per-scale profile images (the
//!   exact `scalana_profile::store` bytes), keyed by FNV(program,
//!   profile-relevant config, discovery scale, scale): a job resolves
//!   each requested scale through the chain first and simulates only
//!   the misses, so `submit([2,4,8,16])` after `submit([2,4,8])` runs
//!   the simulator exactly once. The first job to *hit* an entry decodes
//!   its image into the run summary + PPG detection consumes and leaves
//!   that beside the image, so later hits (re-detects with new knobs)
//!   decode nothing. And the encoded PSG discovery traces, keyed like
//!   the [`PsgCache`], from which a refined PSG is replayed.
//! - [`PsgCache`] — refined PSGs (static graph + indirect-call
//!   discovery) with the parsed program they were built from, keyed by
//!   FNV(program, PSG options, discovery scale). Shared by reference; a
//!   fully cache-hit job skips the parse and the discovery run.
//! - [`ProgramIndex`] — previously seen programs by content hash, so
//!   `submit --program-hash` can re-reference an uploaded program
//!   without re-sending its source.
//!
//! Each map sits behind one lock and holds exactly its capacity, the
//! oldest insertion evicted first; the per-scale hit/miss/eviction
//! counters feed `/stats`.

use crate::job::JobProgram;
use bytes::Bytes;
use scalana_core::RunSummary;
use scalana_graph::{Ppg, Psg};
use scalana_lang::Program;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Encoded PSG discovery traces the memory tier keeps resident — the
/// one in-memory copy of a trace in the daemon (a few hundred bytes
/// each; the durable store, when configured, holds every one).
pub const TRACE_CAPACITY: usize = 256;

/// Programs the daemon's [`ProgramIndex`] keeps for `--program-hash`.
pub const PROGRAM_CAPACITY: usize = 512;

/// A string-keyed map behind one lock that holds at most `capacity`
/// entries (0 = unbounded), evicting the oldest insertion first.
struct FifoMap<V> {
    capacity: usize,
    inner: Mutex<Fifo<V>>,
}

struct Fifo<V> {
    map: HashMap<String, V>,
    /// The keys of `map`, oldest insertion first.
    order: VecDeque<String>,
}

impl<V> std::fmt::Debug for FifoMap<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FifoMap")
            .field("capacity", &self.capacity)
            .field("len", &self.inner.lock().unwrap().map.len())
            .finish()
    }
}

impl<V: Clone> FifoMap<V> {
    fn new(capacity: usize) -> FifoMap<V> {
        FifoMap {
            capacity,
            inner: Mutex::new(Fifo {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
        }
    }

    fn get(&self, key: &str) -> Option<V> {
        self.inner.lock().unwrap().map.get(key).cloned()
    }

    /// Insert `value` unless `key` is present: keys are content
    /// addresses, so the resident value is an equal one and keeps its
    /// place. Returns the evicted values, for the caller to drop once
    /// the lock is released (an image's decoded PPG is large).
    fn insert(&self, key: String, value: V) -> Vec<V> {
        let mut fifo = self.inner.lock().unwrap();
        let mut evicted = Vec::new();
        if fifo.map.contains_key(&key) {
            return evicted;
        }
        fifo.map.insert(key.clone(), value);
        fifo.order.push_back(key);
        while self.capacity > 0 && fifo.map.len() > self.capacity {
            let oldest = fifo.order.pop_front().expect("order holds every key");
            evicted.extend(fifo.map.remove(&oldest));
        }
        evicted
    }

    /// Take `key`'s value out of the map.
    fn remove(&self, key: &str) -> Option<V> {
        let mut fifo = self.inner.lock().unwrap();
        let value = fifo.map.remove(key)?;
        // Rare (a corrupt entry), so a scan of the order is fine.
        fifo.order.retain(|k| k != key);
        Some(value)
    }

    fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }
}

/// What detection consumes of one profiled scale
/// ([`scalana_core::scale_ppg`]).
pub type ScaleGraph = (RunSummary, Ppg);

/// One cached scale: the persisted image and, once a job has hit the
/// entry, its decoded form. Both go when the entry is evicted.
#[derive(Debug)]
pub struct CachedScale {
    /// The exact `scalana_profile::store` bytes — what the store and
    /// `/v1/jobs/<id>/profile/<p>` traffic in.
    pub image: Bytes,
    /// `Some(None)` records an image that does not decode.
    decoded: OnceLock<Option<Arc<ScaleGraph>>>,
}

impl CachedScale {
    /// An entry holding `image` only, nothing decoded yet.
    pub fn new(image: Bytes) -> CachedScale {
        CachedScale {
            image,
            decoded: OnceLock::new(),
        }
    }

    /// The entry's decoded form and whether it was already there. The
    /// first caller builds it with `decode`; callers racing it block on
    /// the cell and share the one value. `None` = `decode` refused the
    /// image (the caller should [`ProfileCache::invalidate`] the entry).
    pub fn decoded(
        &self,
        decode: impl FnOnce(&Bytes) -> Option<ScaleGraph>,
    ) -> Option<(Arc<ScaleGraph>, bool)> {
        let mut reused = true;
        let decoded = self.decoded.get_or_init(|| {
            reused = false;
            decode(&self.image).map(Arc::new)
        });
        Some((decoded.clone()?, reused))
    }
}

/// Per-scale profile images and PSG discovery traces, with per-scale
/// hit/miss accounting.
#[derive(Debug)]
pub struct ProfileCache {
    images: FifoMap<Arc<CachedScale>>,
    traces: FifoMap<Bytes>,
    hits: AtomicU64,
    misses: AtomicU64,
    evicted: AtomicU64,
}

/// `/stats` snapshot of a [`ProfileCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileCacheStats {
    /// Requested scales some tier answered (no simulation): memory or
    /// the durable store.
    pub hits: u64,
    /// Requested scales no tier answered, so they were simulated.
    /// `hits + misses` is the number of scales resolved.
    pub misses: u64,
    /// Images evicted to respect the capacity bound.
    pub evicted: u64,
    /// Images currently held.
    pub entries: usize,
}

impl ProfileCache {
    /// Cache holding at most `capacity` profile images (0 = unbounded)
    /// and [`TRACE_CAPACITY`] traces.
    pub fn new(capacity: usize) -> ProfileCache {
        ProfileCache {
            images: FifoMap::new(capacity),
            traces: FifoMap::new(TRACE_CAPACITY),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// The image capacity this cache was built with (0 = unbounded).
    pub fn capacity(&self) -> usize {
        self.images.capacity
    }

    /// The resident entry for one scale, if any. Counts nothing: the
    /// tier chain [`record`](ProfileCache::record)s an outcome once the
    /// last tier has answered.
    pub fn lookup(&self, key: &str) -> Option<Arc<CachedScale>> {
        self.images.get(key)
    }

    /// The resident image for one scale, if any.
    pub fn peek(&self, key: &str) -> Option<Bytes> {
        self.lookup(key).map(|entry| entry.image.clone())
    }

    /// Count one resolved scale: a hit when any tier answered it, a
    /// miss when it had to be simulated.
    pub fn record(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Insert a scale's image (freshly simulated, or read from the
    /// store). Only the bytes are retained until a job hits the entry.
    pub fn store(&self, key: String, image: Bytes) {
        let evicted = self.images.insert(key, Arc::new(CachedScale::new(image)));
        self.evicted
            .fetch_add(evicted.len() as u64, Ordering::Relaxed);
    }

    /// Drop an image that failed to deserialize (counts as eviction).
    pub fn invalidate(&self, key: &str) {
        if self.images.remove(key).is_some() {
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The resident encoded discovery trace under a PSG key, if any.
    pub fn trace(&self, key: &str) -> Option<Bytes> {
        self.traces.get(key)
    }

    /// Keep an encoded discovery trace resident.
    pub fn store_trace(&self, key: String, encoded: Bytes) {
        self.traces.insert(key, encoded);
    }

    /// Drop a trace that failed to decode.
    pub fn invalidate_trace(&self, key: &str) {
        self.traces.remove(key);
    }

    /// Counter snapshot for `/stats`.
    pub fn stats(&self) -> ProfileCacheStats {
        ProfileCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            entries: self.images.len(),
        }
    }
}

/// A refined PSG with the checked program it was built from — what a
/// job needs of its program before any scale runs.
#[derive(Debug, Clone)]
pub struct CachedPsg {
    /// The parsed and checked program.
    pub program: Arc<Program>,
    /// Its indirect-call-refined PSG.
    pub psg: Arc<Psg>,
}

/// Refined-PSG cache (values shared by `Arc`, never copied).
#[derive(Debug)]
pub struct PsgCache {
    psgs: FifoMap<CachedPsg>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PsgCache {
    /// Cache holding at most `capacity` refined PSGs (0 = unbounded).
    pub fn new(capacity: usize) -> PsgCache {
        PsgCache {
            psgs: FifoMap::new(capacity),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Look a refined PSG up, counting the outcome.
    pub fn lookup(&self, key: &str) -> Option<CachedPsg> {
        let entry = self.psgs.get(key);
        match entry {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        entry
    }

    /// Insert a freshly refined PSG.
    pub fn store(&self, key: String, entry: CachedPsg) {
        self.psgs.insert(key, entry);
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// Programs previously seen by the daemon, addressable by content hash.
#[derive(Debug)]
pub struct ProgramIndex {
    programs: FifoMap<JobProgram>,
}

impl ProgramIndex {
    /// Index retaining at most `capacity` programs (0 = unbounded); the
    /// daemon's holds [`PROGRAM_CAPACITY`].
    pub fn new(capacity: usize) -> ProgramIndex {
        ProgramIndex {
            programs: FifoMap::new(capacity),
        }
    }

    /// Remember `program` under its content hash; returns the hash (the
    /// handle echoed back to clients). The key is a content address —
    /// equal hash means equal program — so an already-indexed program
    /// keeps its entry and its FIFO eviction position.
    pub fn remember(&self, program: &JobProgram) -> String {
        let hash = program.content_hash();
        self.programs.insert(hash.clone(), program.clone());
        hash
    }

    /// Resolve a previously seen program. `None` means never seen or
    /// since evicted — the server answers 404 and the client must
    /// re-send the source.
    pub fn resolve(&self, hash: &str) -> Option<JobProgram> {
        self.programs.get(hash)
    }

    /// Programs currently indexed.
    pub fn len(&self) -> usize {
        self.programs.len()
    }

    /// No programs indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A key shaped like the daemon's: a 16-hex-digit content hash.
    fn content_key(i: usize) -> String {
        let mut h = crate::hash::StableHasher::new();
        h.write_usize(i);
        h.hex()
    }

    #[test]
    fn fifo_map_round_trips_and_keeps_a_present_key() {
        let map: FifoMap<u32> = FifoMap::new(0);
        assert!(map.insert("a".into(), 1).is_empty());
        map.insert("b".into(), 2);
        assert_eq!(map.get("a"), Some(1));
        assert_eq!(map.get("missing"), None);
        // A present key keeps its value: keys are content addresses.
        map.insert("a".into(), 3);
        assert_eq!(map.get("a"), Some(1));
        assert_eq!(map.len(), 2);
        assert_eq!(map.remove("a"), Some(1));
        assert_eq!(map.remove("a"), None);
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn fifo_map_evicts_the_oldest_insertion() {
        let map: FifoMap<u32> = FifoMap::new(2);
        map.insert("a".into(), 1);
        map.insert("b".into(), 2);
        assert_eq!(map.insert("c".into(), 3), vec![1], "oldest evicted");
        assert_eq!(map.get("a"), None);
        assert_eq!((map.get("b"), map.get("c")), (Some(2), Some(3)));
        // A removed key comes back as the newest insertion.
        assert_eq!(map.remove("b"), Some(2));
        map.insert("b".into(), 4);
        assert_eq!(map.insert("d".into(), 5), vec![3]);
        assert_eq!(map.get("c"), None);
        assert_eq!((map.get("b"), map.get("d")), (Some(4), Some(5)));
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let capacity = 64;
        let map: FifoMap<usize> = FifoMap::new(capacity);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let map = &map;
                scope.spawn(move || {
                    for i in 0..128 {
                        map.insert(format!("t{t}-{i}"), i);
                        let _ = map.get(&format!("t{t}-{i}"));
                    }
                });
            }
        });
        assert_eq!(map.len(), capacity, "the capacity is exact");
    }

    #[test]
    fn profile_cache_holds_its_capacity_of_distinct_keys() {
        let capacity = 1024;
        let cache = ProfileCache::new(capacity);
        for i in 0..capacity {
            cache.store(content_key(i), Bytes::new());
        }
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evicted), (capacity, 0));
        assert!((0..capacity).all(|i| cache.peek(&content_key(i)).is_some()));
        // One more evicts exactly the oldest.
        cache.store(content_key(capacity), Bytes::new());
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evicted), (capacity, 1));
        assert!(cache.peek(&content_key(0)).is_none());
    }

    #[test]
    fn program_index_holds_its_capacity_of_distinct_programs() {
        let index = ProgramIndex::new(PROGRAM_CAPACITY);
        let program = |i: usize| JobProgram::Source {
            name: "p.mmpi".to_string(),
            text: format!("fn main() {{ comp(cycles = {i}); }}"),
        };
        let hashes: Vec<String> = (0..PROGRAM_CAPACITY)
            .map(|i| index.remember(&program(i)))
            .collect();
        assert_eq!(index.len(), PROGRAM_CAPACITY);
        assert!(hashes.iter().all(|hash| index.resolve(hash).is_some()));
        // Remembering a known program changes nothing.
        index.remember(&program(0));
        assert_eq!(index.len(), PROGRAM_CAPACITY);
        // One more evicts exactly the oldest.
        index.remember(&program(PROGRAM_CAPACITY));
        assert_eq!(index.len(), PROGRAM_CAPACITY);
        assert!(index.resolve(&hashes[0]).is_none());
        assert!(index.resolve(&hashes[1]).is_some());
    }

    #[test]
    fn profile_cache_counts_hits_misses_evictions() {
        let cache = ProfileCache::new(0);
        assert!(cache.lookup("k").is_none());
        cache.store("k".to_string(), Bytes::from_static(b"image"));
        assert_eq!(&cache.lookup("k").unwrap().image[..], b"image");
        cache.invalidate("k");
        assert!(cache.peek("k").is_none());
        // Lookups count nothing; outcomes are recorded by the chain.
        assert_eq!((cache.stats().hits, cache.stats().misses), (0, 0));
        cache.record(true);
        cache.record(false);
        cache.record(false);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.evicted, 1);
        assert_eq!(stats.entries, 0);
    }

    #[test]
    fn trace_shelf_keeps_capacity_distinct_keys_resident_and_stays_bounded() {
        let cache = ProfileCache::new(0);
        let key = |i: usize| {
            let mut h = crate::hash::StableHasher::new();
            h.write_usize(i);
            h.hex()
        };
        for i in 0..TRACE_CAPACITY {
            cache.store_trace(key(i), Bytes::from(i.to_string().into_bytes()));
        }
        for i in 0..TRACE_CAPACITY {
            assert_eq!(
                cache.trace(&key(i)),
                Some(Bytes::from(i.to_string().into_bytes()))
            );
        }
        // Any number more: the oldest go, the count stays at capacity.
        let extra = 40;
        for i in TRACE_CAPACITY..TRACE_CAPACITY + extra {
            cache.store_trace(key(i), Bytes::from(i.to_string().into_bytes()));
        }
        assert_eq!(cache.traces.len(), TRACE_CAPACITY);
        assert!(cache.trace(&key(extra - 1)).is_none());
        assert!(cache.trace(&key(extra)).is_some());
    }

    #[test]
    fn program_index_round_trips_by_content_hash() {
        let index = ProgramIndex::new(0);
        let program = JobProgram::Source {
            name: "x.mmpi".to_string(),
            text: "fn main() { }".to_string(),
        };
        let hash = index.remember(&program);
        assert_eq!(hash, program.content_hash());
        let resolved = index.resolve(&hash).expect("indexed");
        assert_eq!(resolved.content_hash(), hash);
        assert!(index.resolve("0000000000000000").is_none());
        assert_eq!(index.len(), 1);
    }

    fn refined(text: &str) -> CachedPsg {
        let program = scalana_lang::parse_program("t.mmpi", text).unwrap();
        let psg = scalana_graph::build_psg(&program, &Default::default());
        CachedPsg {
            program: Arc::new(program),
            psg: Arc::new(psg),
        }
    }

    #[test]
    fn psg_cache_keeps_capacity_distinct_keys_resident() {
        // The daemon's default capacity, with keys shaped like the real
        // ones: all 64 content hashes stay resident.
        let capacity = 64;
        let cache = PsgCache::new(capacity);
        let entry = refined("fn main() { barrier(); }");
        let keys: Vec<String> = (0..capacity)
            .map(|i| {
                let mut h = crate::hash::StableHasher::new();
                h.write_usize(i);
                h.hex()
            })
            .collect();
        for key in &keys {
            cache.store(key.clone(), entry.clone());
        }
        for key in &keys {
            let hit = cache.lookup(key).expect("every key still resident");
            assert!(Arc::ptr_eq(&hit.program, &entry.program));
        }
        assert_eq!(cache.stats(), (capacity as u64, 0));
        // One more key evicts exactly the oldest.
        cache.store("one-more".to_string(), entry);
        assert!(cache.lookup(&keys[0]).is_none());
        assert!(cache.lookup(&keys[1]).is_some());
    }

    #[test]
    fn racing_decoders_share_one_decoded_value() {
        let CachedPsg { psg, .. } = refined("fn main() { comp(cycles = 10); barrier(); }");
        let data = scalana_profile::ProfileData::new(2);
        let cache = ProfileCache::new(0);
        cache.store("k".to_string(), scalana_profile::store::save(&data));
        let entry = cache.lookup("k").unwrap();

        let decodes = AtomicU64::new(0);
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let decode = |image: &Bytes| {
            decodes.fetch_add(1, Ordering::SeqCst);
            let data = scalana_profile::store::load(image.clone()).ok()?;
            Some(scalana_core::scale_ppg(&psg, 2, data))
        };
        let (entry, cache) = (&*entry, &cache);
        let (first, second) = std::thread::scope(|scope| {
            // The first decoder is held inside the cell's initializer
            // until the second is on its way in.
            let first = scope.spawn(move || {
                entry.decoded(|image| {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    decode(image)
                })
            });
            entered_rx.recv().unwrap();
            let second = scope.spawn(move || {
                release_tx.send(()).unwrap();
                cache.lookup("k").unwrap().decoded(decode)
            });
            (first.join().unwrap(), second.join().unwrap())
        });
        assert_eq!(decodes.load(Ordering::SeqCst), 1, "decoded once");
        let (first, second) = (first.unwrap(), second.unwrap());
        assert!(!first.1, "the first caller built it");
        assert!(second.1, "the second found it");
        assert!(Arc::ptr_eq(&first.0, &second.0));

        // The decoded form goes with the entry.
        cache.invalidate("k");
        cache.store("k".to_string(), scalana_profile::store::save(&data));
        let (_, reused) = cache.lookup("k").unwrap().decoded(decode).unwrap();
        assert!(!reused);
    }
}
