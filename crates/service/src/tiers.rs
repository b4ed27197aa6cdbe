//! The tier chain: which tier answers a content-addressed key, which
//! tiers admit it, and what is counted — decided here and nowhere else.
//!
//! `ScalAna-prof`'s artifacts (per-scale profile images, PSG discovery
//! traces; [`EntryKind`]) live in up to three tiers, in a fixed
//! precedence: this daemon's **memory** ([`ProfileCache`]), its durable
//! **disk** store ([`DiskStore`], `--store-dir`), and the key's ring
//! **owner** elsewhere in the fleet ([`Owner`], `--peer`). Four entry
//! points, one per way bytes move:
//!
//! | | reads | admits to | counts |
//! |---|---|---|---|
//! | [`get`](Tiers::get) — the job path | memory → disk → owner; the first tier whose bytes decode wins, an undecodable one is dropped (memory) or was quarantined (disk) and skipped | memory, when disk answered; an owner's answer is *not* admitted | one `scale_hits`/`scale_misses` per profile resolved |
//! | [`put`](Tiers::put) — a fresh local result | — | memory iff this daemon owns the key; disk (write-behind); offered to the owner | — |
//! | [`serve`](Tiers::serve) — a peer's `GET` | memory → disk, never remote | — | — (it is the peer's lookup) |
//! | [`accept`](Tiers::accept) — a peer's `POST` | — | memory + disk once the bytes decode, never remote | — |
//!
//! The admission rules keep a federated daemon's memory for its own
//! ring shard: admitting remote keys would let a hot fleet working set
//! evict it and collapse the fleet's aggregate capacity to one
//! daemon's. A standalone daemon owns every key. ([`preload`] is the
//! warm start: the disk tier's newest images, as many as memory holds,
//! go to memory only.)
//!
//! [`WriteBehind`] runs the two write-behind threads behind `put` and
//! `accept` and states their drain order.
//!
//! [`preload`]: Tiers::preload

use crate::federation::Federation;
use crate::profile_cache::{CachedScale, ProfileCache};
use crate::store::{decode_trace, DiskStore, EntryKind};
use bytes::Bytes;
use std::sync::Arc;
use std::thread::JoinHandle;

/// The chain's far end: the daemon that owns a key on the fleet's ring.
/// [`Federation`] is the implementation; the chain's tests script one.
pub trait Owner: Sync {
    /// Whether *this* daemon is `key`'s owner.
    fn owns(&self, key: &str) -> bool;
    /// Ask the key's owner for its bytes; `None` when we are the owner
    /// or it cannot answer.
    fn fetch(&self, kind: EntryKind, key: &str) -> Option<Bytes>;
    /// Hand fresh bytes to the key's owner, without blocking.
    fn offer(&self, kind: EntryKind, key: &str, bytes: &Bytes);
}

/// The tier that answered a [`Tiers::get`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// This daemon's memory.
    Memory,
    /// This daemon's durable store.
    Disk,
    /// The key's ring owner.
    Owner,
}

impl Source {
    /// The verdict a job's trace carries: `cache: hit|peer` on a
    /// `scale` span, `psg: replay|peer` on `resolve`.
    pub fn tag(self, kind: EntryKind) -> &'static str {
        match (self, kind) {
            (Source::Owner, _) => "peer",
            (_, EntryKind::Profile) => "hit",
            (_, EntryKind::PsgTrace) => "replay",
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
    /// The fleet; `None` on a standalone executor, which owns every key.
    pub owner: Option<&'a dyn Owner>,
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
        if let Some(bytes) = self.disk.and_then(|disk| disk.read_entry(kind, key)) {
            let entry = CachedScale::new(bytes);
            if let Some(value) = decode(&entry) {
                self.admit(kind, key, entry.image.clone());
                return Some(found(value, &entry, Source::Disk));
            }
        }
        // Re-reading a hot remote key costs a round trip, not a
        // simulator run; every failure shape falls through to `None`.
        let entry = CachedScale::new(self.owner?.fetch(kind, key)?);
        let value = decode(&entry)?;
        Some(found(value, &entry, Source::Owner))
    }

    /// Publish bytes this daemon just computed.
    pub fn put(&self, kind: EntryKind, key: &str, bytes: &Bytes) {
        if self.owner.is_none_or(|owner| owner.owns(key)) {
            self.admit(kind, key, bytes.clone());
        }
        if let Some(disk) = self.disk {
            disk.save(kind, key, bytes.clone());
        }
        if let Some(owner) = self.owner {
            owner.offer(kind, key, bytes);
        }
    }

    /// The bytes this daemon holds for a peer asking after `key`.
    pub fn serve(&self, kind: EntryKind, key: &str) -> Option<Bytes> {
        let resident = match kind {
            EntryKind::Profile => self.memory.peek(key),
            EntryKind::PsgTrace => self.memory.trace(key),
        };
        resident.or_else(|| self.disk?.read_entry(kind, key))
    }

    /// Take bytes a peer wrote through to us (we own the key). `false`:
    /// they do not decode as `kind`, and nothing kept them — a mutated
    /// offer is rejected, never served onward.
    pub fn accept(&self, kind: EntryKind, key: &str, bytes: Bytes) -> bool {
        let valid = match kind {
            EntryKind::Profile => scalana_profile::store::load(bytes.clone()).is_ok(),
            EntryKind::PsgTrace => decode_trace(bytes.clone()).is_some(),
        };
        if valid {
            self.admit(kind, key, bytes.clone());
            if let Some(disk) = self.disk {
                disk.save(kind, key, bytes);
            }
        }
        valid
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

/// The write-behind threads under [`Tiers::put`] and [`Tiers::accept`]:
/// the store's writer, so a save enqueues instead of blocking a worker
/// on fsync (it blocks only once the disk is a whole queue budget
/// behind), and the federation's, which settles offers (and the
/// startup announcements — a seed still booting delays nothing) off the
/// job path.
#[derive(Debug)]
pub struct WriteBehind {
    store: Option<(Arc<DiskStore>, JoinHandle<()>)>,
    peers: (Arc<Federation>, JoinHandle<()>),
}

impl WriteBehind {
    /// Start both writers; call before the first worker runs.
    pub fn start(store: Option<&Arc<DiskStore>>, federation: &Arc<Federation>) -> WriteBehind {
        let store = store.map(|store| (Arc::clone(store), store.start_writer()));
        let peers = (Arc::clone(federation), federation.start_writer());
        federation.announce_peers();
        WriteBehind { store, peers }
    }

    /// Flush and stop, in the one order that loses nothing. Call once
    /// the workers are gone, so nothing more can be enqueued — and no
    /// `save` is left blocked on the store's bounded queue: closing a
    /// queue lets its writer drain the backlog and exit — every pending
    /// store write reaches disk, then every pending offer settles.
    pub fn shutdown(self) {
        if let Some((store, writer)) = self.store {
            store.stop_writer();
            let _ = writer.join();
        }
        let (federation, writer) = self.peers;
        federation.stop_writer();
        let _ = writer.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{encode_trace, RealIo, StoreIo};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    const KEY: &str = "00ff5ca1a71e57ed";
    const KINDS: [EntryKind; 2] = [EntryKind::Profile, EntryKind::PsgTrace];

    /// The ring's other member, scripted: what it holds under [`KEY`],
    /// and what it was asked and offered. Like [`Federation`], nothing
    /// goes remote for a key this daemon owns.
    #[derive(Default)]
    struct ScriptedOwner {
        owned: bool,
        holds: Option<Bytes>,
        fetches: AtomicU64,
        offers: Mutex<Vec<Bytes>>,
    }

    impl Owner for ScriptedOwner {
        fn owns(&self, _key: &str) -> bool {
            self.owned
        }
        fn fetch(&self, _kind: EntryKind, _key: &str) -> Option<Bytes> {
            if self.owned {
                return None;
            }
            self.fetches.fetch_add(1, Ordering::SeqCst);
            self.holds.clone()
        }
        fn offer(&self, _kind: EntryKind, _key: &str, bytes: &Bytes) {
            if !self.owned {
                self.offers.lock().unwrap().push(bytes.clone());
            }
        }
    }

    /// One daemon's three tiers, the disk one in a directory of its own.
    struct Fixture {
        dir: std::path::PathBuf,
        memory: ProfileCache,
        disk: DiskStore,
        owner: ScriptedOwner,
    }

    impl Fixture {
        fn new(owned: bool, owner_holds: Option<Bytes>) -> Fixture {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let unique = (std::process::id(), NEXT.fetch_add(1, Ordering::SeqCst));
            let dir = std::env::temp_dir().join(format!("scalana-tiers-{unique:?}"));
            let _ = std::fs::remove_dir_all(&dir);
            let disk = DiskStore::open(Arc::new(RealIo), &dir, 0);
            let owner = ScriptedOwner {
                owned,
                holds: owner_holds,
                ..ScriptedOwner::default()
            };
            Fixture {
                dir,
                memory: ProfileCache::new(0),
                disk,
                owner,
            }
        }

        fn tiers(&self) -> Tiers<'_> {
            Tiers {
                memory: &self.memory,
                disk: Some(&self.disk),
                owner: Some(&self.owner),
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
        /// `store_quarantined`, fetches the owner saw.
        fn counters(&self) -> [u64; 6] {
            let (scale, store) = (self.memory.stats(), self.disk.snapshot());
            let fetches = self.owner.fetches.load(Ordering::SeqCst);
            [
                scale.hits,
                scale.misses,
                scale.evicted,
                store.loaded,
                store.quarantined,
                fetches,
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
        let states = HAS.iter().flat_map(|&m| HAS.iter().map(move |&d| (m, d)));
        let states = states.flat_map(|(m, d)| HAS.iter().map(move |&o| (m, d, o)));
        for (kind, owned, (memory, disk, owner)) in KINDS
            .iter()
            .flat_map(|&k| [true, false].map(|owned| (k, owned)))
            .flat_map(|(k, owned)| states.clone().map(move |s| (k, owned, s)))
        {
            let case = format!("{kind:?} owned={owned} {memory:?}/{disk:?}/{owner:?}");
            let garbage = Bytes::from_static(b"neither an image nor a trace");
            let bytes = |valid_bytes: bool| {
                if valid_bytes {
                    valid(kind)
                } else {
                    garbage.clone()
                }
            };
            let f = Fixture::new(owned, owner.map(bytes));
            if let Some(held) = memory {
                f.tiers().admit(kind, KEY, bytes(held));
            }
            if let Some(whole) = disk {
                f.plant(kind, whole);
            }
            let before = f.counters();

            let found = f.tiers().get(kind, KEY, |entry| decode(kind, entry));

            // The first tier holding valid bytes answers; the ring is
            // asked only about a key owned elsewhere.
            let (in_memory, on_disk) = (memory == Some(true), disk == Some(true));
            let asks_owner = !in_memory && !on_disk && !owned;
            let expected = if in_memory {
                Some((Source::Memory, ["hit", "replay"]))
            } else if on_disk {
                Some((Source::Disk, ["hit", "replay"]))
            } else if asks_owner && owner == Some(true) {
                Some((Source::Owner, ["peer", "peer"]))
            } else {
                None
            };
            let answered = found.as_ref().map(|found| found.source);
            assert_eq!(answered, expected.map(|(source, _)| source), "{case}");
            if let (Some(found), Some((_, tags))) = (&found, expected) {
                assert_eq!(found.bytes, valid(kind), "{case}");
                assert_eq!(KINDS.map(|k| found.source.tag(k)), tags, "{case}");
            }

            // Afterwards memory holds valid bytes iff it or the disk
            // had them — never the owner's answer, never corrupt ones —
            // and a torn frame that was read has left the directory.
            let resident = (in_memory || on_disk).then(|| valid(kind));
            let file_left = on_disk || (disk == Some(false) && in_memory);
            assert_eq!(f.holds(kind), (resident, file_left), "{case}");
            assert!(f.owner.offers.lock().unwrap().is_empty(), "{case}");

            // One outcome per resolved profile, none for a trace; every
            // probe below memory shows in that tier's own counters.
            let profile = kind == EntryKind::Profile;
            let deltas = [
                profile && expected.is_some(),
                profile && expected.is_none(),
                profile && memory == Some(false),
                !in_memory && on_disk,
                !in_memory && disk == Some(false),
                asks_owner,
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
        let f = Fixture::new(true, None);
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
            owner: None,
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
            assert_eq!(tiers.serve(EntryKind::Profile, &key(i)), Some(image(i)));
        }
        assert!(tiers.serve(EntryKind::PsgTrace, KEY).is_some());
    }

    #[test]
    fn put_serve_and_accept_follow_the_admission_table() {
        for (kind, owned) in KINDS
            .iter()
            .flat_map(|&k| [true, false].map(|owned| (k, owned)))
        {
            let case = format!("{kind:?} owned={owned}");
            let bytes = valid(kind);

            // put: memory iff owned, disk always, offered to the owner.
            let f = Fixture::new(owned, None);
            f.tiers().put(kind, KEY, &bytes);
            assert_eq!(
                f.holds(kind),
                (owned.then(|| bytes.clone()), true),
                "{case}"
            );
            let offered: Vec<Bytes> = (!owned).then(|| bytes.clone()).into_iter().collect();
            assert_eq!(*f.owner.offers.lock().unwrap(), offered, "{case}");

            // serve: memory, then disk, never the ring; nothing counted
            // but the store's own read.
            assert_eq!(f.tiers().serve(kind, KEY), Some(bytes.clone()), "{case}");
            let remote = Fixture::new(owned, Some(bytes.clone()));
            assert_eq!(remote.tiers().serve(kind, KEY), None, "{case}");
            let read = u64::from(!owned);
            assert_eq!(f.counters(), [0, 0, 0, read, 0, 0], "{case}");
            assert_eq!(remote.counters(), [0; 6], "{case}");

            // accept: valid bytes to memory + disk whoever owns the key,
            // nothing offered onward; anything else is kept nowhere.
            let f = Fixture::new(owned, None);
            assert!(
                !f.tiers().accept(kind, KEY, Bytes::from_static(b"mutated")),
                "{case}"
            );
            assert_eq!(f.holds(kind), (None, false), "{case}");
            assert!(f.tiers().accept(kind, KEY, bytes.clone()), "{case}");
            assert_eq!(f.holds(kind), (Some(bytes), true), "{case}");
            assert!(f.owner.offers.lock().unwrap().is_empty(), "{case}");
        }
    }
}
