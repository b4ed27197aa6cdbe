//! The tier chain: which tier answers a content-addressed key, which
//! tiers admit it, and what is counted — decided here and nowhere else.
//!
//! `ScalAna-prof`'s artifacts (per-scale profile images, PSG discovery
//! traces; [`EntryKind`]) live in up to two tiers, in a fixed
//! precedence: this daemon's **memory** ([`ProfileCache`]) and its
//! durable **disk** store ([`DiskStore`], `--store-dir`). Two entry
//! points, one per way bytes move:
//!
//! | | reads | admits to | counts |
//! |---|---|---|---|
//! | [`get`](Tiers::get) — the job path | memory → disk; the first tier whose bytes decode wins, an undecodable one is dropped (memory) or was quarantined (disk) and skipped | memory, when disk answered | one `scale_hits`/`scale_misses` per profile resolved |
//! | [`put`](Tiers::put) — a fresh local result | — | memory; disk (write-behind) | — |
//!
//! ([`preload`] is the warm start: the disk tier's newest images, as
//! many as memory holds, go to memory only.)
//!
//! [`preload`]: Tiers::preload

use crate::profile_cache::{CachedScale, ProfileCache};
use crate::store::{DiskStore, EntryKind};
use bytes::Bytes;
use std::sync::Arc;

/// The tier that answered a [`Tiers::get`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// This daemon's memory.
    Memory,
    /// This daemon's durable store.
    Disk,
}

impl Source {
    /// The verdict a job's trace carries: `cache: hit` on a `scale`
    /// span, `psg: replay` on `resolve`.
    pub fn tag(self, kind: EntryKind) -> &'static str {
        match kind {
            EntryKind::Profile => "hit",
            EntryKind::PsgTrace => "replay",
        }
    }
}

/// What [`Tiers::get`] found.
#[derive(Debug)]
pub struct Found<T> {
    /// The caller's decoded form of `bytes`.
    pub value: T,
    /// The entry as stored and served.
    pub bytes: Bytes,
    /// Who had it.
    pub source: Source,
}

/// The chain over one daemon's tiers, in precedence order.
#[derive(Clone, Copy)]
pub struct Tiers<'a> {
    /// Resident entries and the per-scale counters.
    pub memory: &'a ProfileCache,
    /// The durable store, when configured.
    pub disk: Option<&'a DiskStore>,
}

impl Tiers<'_> {
    /// Resolve `key` for a job. `decode` is handed each tier's entry in
    /// turn (a resident profile entry carries its decoded form, see
    /// [`CachedScale::decoded`]) and refuses bytes it cannot use.
    /// `None`: no tier has it — compute it, then [`put`](Tiers::put).
    pub fn get<T>(
        &self,
        kind: EntryKind,
        key: &str,
        decode: impl Fn(&CachedScale) -> Option<T>,
    ) -> Option<Found<T>> {
        let found = self.probe(kind, key, decode);
        if kind == EntryKind::Profile {
            self.memory.record(found.is_some());
        }
        found
    }

    fn probe<T>(
        &self,
        kind: EntryKind,
        key: &str,
        decode: impl Fn(&CachedScale) -> Option<T>,
    ) -> Option<Found<T>> {
        let found = |value, entry: &CachedScale, source| Found {
            value,
            bytes: entry.image.clone(),
            source,
        };
        if let Some(entry) = self.resident(kind, key) {
            match decode(&entry) {
                Some(value) => return Some(found(value, &entry, Source::Memory)),
                // A corrupt image must not poison the job.
                None => match kind {
                    EntryKind::Profile => self.memory.invalidate(key),
                    EntryKind::PsgTrace => self.memory.invalidate_trace(key),
                },
            }
        }
        // Evicted from memory, or written by a previous process. Only
        // the bytes are admitted: the decoded form stays with this job
        // until a later one hits the entry.
        let entry = CachedScale::new(self.disk?.read_entry(kind, key)?);
        let value = decode(&entry)?;
        self.admit(kind, key, entry.image.clone());
        Some(found(value, &entry, Source::Disk))
    }

    /// Publish bytes this daemon just computed.
    pub fn put(&self, kind: EntryKind, key: &str, bytes: &Bytes) {
        self.admit(kind, key, bytes.clone());
        if let Some(disk) = self.disk {
            disk.save(kind, key, bytes.clone());
        }
    }

    /// Warm start: memory takes the disk tier's newest images, no more
    /// than it holds. The rest stay on disk until a job asks.
    pub fn preload(&self) {
        let Some(disk) = self.disk else { return };
        for (key, image) in disk.warm_images(self.memory.capacity()) {
            self.memory.store(key, image);
        }
    }

    fn resident(&self, kind: EntryKind, key: &str) -> Option<Arc<CachedScale>> {
        match kind {
            EntryKind::Profile => self.memory.lookup(key),
            EntryKind::PsgTrace => Some(Arc::new(CachedScale::new(self.memory.trace(key)?))),
        }
    }

    fn admit(&self, kind: EntryKind, key: &str, bytes: Bytes) {
        match kind {
            EntryKind::Profile => self.memory.store(key.to_string(), bytes),
            EntryKind::PsgTrace => self.memory.store_trace(key.to_string(), bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{decode_trace, encode_trace, RealIo, StoreIo};
    use std::sync::atomic::{AtomicU64, Ordering};

    const KEY: &str = "00ff5ca1a71e57ed";
    const KINDS: [EntryKind; 2] = [EntryKind::Profile, EntryKind::PsgTrace];

    /// One daemon's two tiers, the disk one in a directory of its own.
    struct Fixture {
        dir: std::path::PathBuf,
        memory: ProfileCache,
        disk: DiskStore,
    }

    impl Fixture {
        fn new() -> Fixture {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let unique = (std::process::id(), NEXT.fetch_add(1, Ordering::SeqCst));
            let dir = std::env::temp_dir().join(format!("scalana-tiers-{unique:?}"));
            let _ = std::fs::remove_dir_all(&dir);
            let disk = DiskStore::open(Arc::new(RealIo), &dir, 0);
            Fixture {
                dir,
                memory: ProfileCache::new(0),
                disk,
            }
        }

        fn tiers(&self) -> Tiers<'_> {
            Tiers {
                memory: &self.memory,
                disk: Some(&self.disk),
            }
        }

        /// The data files in the store directory: [`KEY`]'s, or none.
        fn files(&self) -> Vec<std::path::PathBuf> {
            RealIo.read_dir(&self.dir).unwrap()
        }

        /// Plant [`KEY`] on disk: a whole frame, or a torn write — the
        /// file the index points at cut to half a frame.
        fn plant(&self, kind: EntryKind, whole: bool) {
            self.disk.save(kind, KEY, valid(kind));
            if !whole {
                let path = self.files().pop().unwrap();
                let frame = std::fs::read(&path).unwrap();
                std::fs::write(path, &frame[..frame.len() / 2]).unwrap();
            }
        }

        /// What memory and disk hold under [`KEY`].
        fn holds(&self, kind: EntryKind) -> (Option<Bytes>, bool) {
            (
                self.tiers().resident(kind, KEY).map(|e| e.image.clone()),
                !self.files().is_empty(),
            )
        }

        /// `scale_hits`, `scale_misses`, `scale_evicted`, `store_loaded`,
        /// `store_quarantined`.
        fn counters(&self) -> [u64; 5] {
            let (scale, store) = (self.memory.stats(), self.disk.snapshot());
            [
                scale.hits,
                scale.misses,
                scale.evicted,
                store.loaded,
                store.quarantined,
            ]
        }
    }

    impl Drop for Fixture {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    fn valid(kind: EntryKind) -> Bytes {
        match kind {
            EntryKind::Profile => {
                scalana_profile::store::save(&scalana_profile::ProfileData::new(2))
            }
            EntryKind::PsgTrace => encode_trace(&[vec![(0, 1, "f".to_string())]]),
        }
    }

    fn decode(kind: EntryKind, entry: &CachedScale) -> Option<()> {
        match kind {
            EntryKind::Profile => scalana_profile::store::load(entry.image.clone())
                .ok()
                .map(drop),
            EntryKind::PsgTrace => decode_trace(entry.image.clone()).map(drop),
        }
    }

    #[test]
    fn get_follows_the_precedence_and_admission_table() {
        // What a tier holds going in: nothing, valid bytes, or corrupt ones.
        const HAS: [Option<bool>; 3] = [None, Some(true), Some(false)];
        for (kind, memory, disk) in KINDS.iter().flat_map(|&k| {
            HAS.iter()
                .flat_map(move |&m| HAS.iter().map(move |&d| (k, m, d)))
        }) {
            let case = format!("{kind:?} {memory:?}/{disk:?}");
            let garbage = Bytes::from_static(b"neither an image nor a trace");
            let bytes = |valid_bytes: bool| {
                if valid_bytes {
                    valid(kind)
                } else {
                    garbage.clone()
                }
            };
            let f = Fixture::new();
            if let Some(held) = memory {
                f.tiers().admit(kind, KEY, bytes(held));
            }
            if let Some(whole) = disk {
                f.plant(kind, whole);
            }
            let before = f.counters();

            let found = f.tiers().get(kind, KEY, |entry| decode(kind, entry));

            // The first tier holding valid bytes answers.
            let (in_memory, on_disk) = (memory == Some(true), disk == Some(true));
            let expected = if in_memory {
                Some(Source::Memory)
            } else if on_disk {
                Some(Source::Disk)
            } else {
                None
            };
            assert_eq!(found.as_ref().map(|found| found.source), expected, "{case}");
            if let Some(found) = &found {
                assert_eq!(found.bytes, valid(kind), "{case}");
                assert_eq!(
                    KINDS.map(|k| found.source.tag(k)),
                    ["hit", "replay"],
                    "{case}"
                );
            }

            // Afterwards memory holds valid bytes iff it or the disk
            // had them — never corrupt ones — and a torn frame that was
            // read has left the directory.
            let resident = (in_memory || on_disk).then(|| valid(kind));
            let file_left = on_disk || (disk == Some(false) && in_memory);
            assert_eq!(f.holds(kind), (resident, file_left), "{case}");

            // One outcome per resolved profile, none for a trace; every
            // probe below memory shows in that tier's own counters.
            let profile = kind == EntryKind::Profile;
            let deltas = [
                profile && expected.is_some(),
                profile && expected.is_none(),
                profile && memory == Some(false),
                !in_memory && on_disk,
                !in_memory && disk == Some(false),
            ];
            let after = f.counters();
            for (i, delta) in deltas.into_iter().enumerate() {
                assert_eq!(
                    after[i] - before[i],
                    u64::from(delta),
                    "{case}: counter {i}"
                );
            }
        }
    }

    #[test]
    fn preload_warms_no_more_than_memory_holds_and_counts_nothing_twice() {
        const IMAGES: usize = 40;
        const CAPACITY: usize = 16;
        let f = Fixture::new();
        let image = |i: usize| Bytes::from(format!("image {i}").into_bytes());
        let key = |i: usize| format!("{i:016x}");
        for i in 0..IMAGES {
            f.disk.save(EntryKind::Profile, &key(i), image(i));
        }
        f.disk
            .save(EntryKind::PsgTrace, KEY, valid(EntryKind::PsgTrace));

        // A successor on the directory: everything indexed and counted
        // once, nothing resident until `preload`.
        let disk = DiskStore::open(Arc::new(RealIo), &f.dir, 0);
        let memory = ProfileCache::new(CAPACITY);
        let tiers = Tiers {
            memory: &memory,
            disk: Some(&disk),
        };
        let loaded = IMAGES as u64 + 1;
        let snap = disk.snapshot();
        assert_eq!((snap.loaded, snap.entries), (loaded, loaded));
        tiers.preload();
        let resident: Vec<usize> = (0..IMAGES)
            .filter(|&i| memory.peek(&key(i)).is_some())
            .collect();
        assert_eq!(resident.len(), memory.stats().entries);
        assert!(!resident.is_empty() && resident.len() <= CAPACITY);
        assert_eq!(disk.snapshot().loaded, loaded, "warming is not a load");
        // What memory did not take, disk still answers.
        for i in 0..IMAGES {
            assert_eq!(disk.read_entry(EntryKind::Profile, &key(i)), Some(image(i)));
        }
        assert!(disk.read_entry(EntryKind::PsgTrace, KEY).is_some());
    }

    #[test]
    fn put_follows_the_admission_table() {
        for kind in KINDS {
            let bytes = valid(kind);

            // put: memory and disk, nothing counted.
            let f = Fixture::new();
            f.tiers().put(kind, KEY, &bytes);
            assert_eq!(f.holds(kind), (Some(bytes.clone()), true), "{kind:?}");
            assert_eq!(f.counters(), [0; 5], "{kind:?}");
            assert_eq!(f.disk.read_entry(kind, KEY), Some(bytes), "{kind:?}");
        }
    }
}
