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
//! All three are FIFO-bounded [`crate::sharded`] maps (the PSG cache
//! and the trace shelf a single shard each, so their capacities are
//! exact); the per-scale hit/miss/eviction counters feed `/stats`.

use crate::job::JobProgram;
use crate::sharded::ShardedMap;
use bytes::Bytes;
use scalana_core::RunSummary;
use scalana_graph::{Ppg, Psg};
use scalana_lang::Program;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Shard count shared by the daemon's content-addressed maps. Keys are
/// uniform content hashes, so this just has to exceed the plausible
/// number of simultaneously contending threads.
pub const CACHE_SHARDS: usize = 16;

/// Encoded PSG discovery traces the memory tier keeps resident — the
/// one in-memory copy of a trace in the daemon (a few hundred bytes
/// each; the durable store, when configured, holds every one).
pub const TRACE_CAPACITY: usize = 256;

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
    capacity: usize,
    images: ShardedMap<Arc<CachedScale>>,
    traces: ShardedMap<Bytes>,
    hits: AtomicU64,
    misses: AtomicU64,
    evicted: AtomicU64,
    /// Mirror of the total entry count, so `/stats` reads it without
    /// touching the shard locks.
    entries: AtomicU64,
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
    /// Cache holding at most ~`capacity` profile images (0 = unbounded)
    /// and exactly [`TRACE_CAPACITY`] traces.
    pub fn new(capacity: usize) -> ProfileCache {
        ProfileCache {
            capacity,
            images: ShardedMap::new(CACHE_SHARDS, capacity),
            traces: ShardedMap::new(1, TRACE_CAPACITY),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            entries: AtomicU64::new(0),
        }
    }

    /// The image capacity this cache was built with (0 = unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
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
        let outcome = self.images.insert(key, Arc::new(CachedScale::new(image)));
        if outcome.added {
            self.entries.fetch_add(1, Ordering::Relaxed);
        }
        if outcome.evicted > 0 {
            self.evicted
                .fetch_add(outcome.evicted as u64, Ordering::Relaxed);
            self.entries
                .fetch_sub(outcome.evicted as u64, Ordering::Relaxed);
        }
    }

    /// Drop an image that failed to deserialize (counts as eviction).
    pub fn invalidate(&self, key: &str) {
        if self.images.remove(key) {
            self.evicted.fetch_add(1, Ordering::Relaxed);
            self.entries.fetch_sub(1, Ordering::Relaxed);
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

    /// Counter snapshot for `/stats` — all lock-free.
    pub fn stats(&self) -> ProfileCacheStats {
        ProfileCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed) as usize,
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
    psgs: ShardedMap<CachedPsg>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PsgCache {
    /// Cache holding exactly `capacity` refined PSGs (0 = unbounded).
    /// One shard: a job looks up once, so there is no contention to
    /// spread, and per-shard FIFO bounds would evict well before
    /// `capacity` distinct keys are resident.
    pub fn new(capacity: usize) -> PsgCache {
        PsgCache {
            psgs: ShardedMap::new(1, capacity),
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
    programs: ShardedMap<JobProgram>,
    /// Mirror of the entry count (lock-free `/stats`).
    entries: AtomicU64,
}

impl ProgramIndex {
    /// Index retaining at most ~`capacity` programs (0 = unbounded).
    pub fn new(capacity: usize) -> ProgramIndex {
        ProgramIndex {
            programs: ShardedMap::new(CACHE_SHARDS, capacity),
            entries: AtomicU64::new(0),
        }
    }

    /// Remember `program` under its content hash; returns the hash (the
    /// handle echoed back to clients). The key is a content address —
    /// equal hash means equal program — so an already-indexed program is
    /// left untouched: no source-sized clone, no shard write, and its
    /// FIFO eviction position is unchanged (re-insertion would not
    /// refresh it either).
    pub fn remember(&self, program: &JobProgram) -> String {
        let hash = program.content_hash();
        if self.programs.get(&hash).is_none() {
            let outcome = self.programs.insert(hash.clone(), program.clone());
            if outcome.added {
                self.entries.fetch_add(1, Ordering::Relaxed);
            }
            if outcome.evicted > 0 {
                self.entries
                    .fetch_sub(outcome.evicted as u64, Ordering::Relaxed);
            }
        }
        hash
    }

    /// Resolve a previously seen program. `None` means never seen or
    /// since evicted — the server answers 404 and the client must
    /// re-send the source.
    pub fn resolve(&self, hash: &str) -> Option<JobProgram> {
        self.programs.get(hash)
    }

    /// Programs currently indexed (lock-free).
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed) as usize
    }

    /// No programs indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // ones: over 16 shards of 4, some of 64 content hashes collide
        // five to a shard and push each other out.
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
