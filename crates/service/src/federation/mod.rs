//! Cache federation: N daemons as one fleet-wide analysis service.
//!
//! Each daemon started with `--peer` places itself and its peers on a
//! rendezvous ring ([`Ring`]) keyed by the *same* content-addressed FNV
//! keys the local caches use. Every key has exactly one owner that all
//! members agree on, so the fleet behaves as one sharded cache:
//!
//! - **read-through** — as the last tier of [`crate::tiers`], the key's
//!   owner is asked (`GET /v1/peer/profile/<key>`,
//!   `GET /v1/peer/psg/<key>`) before simulating; a remote hit costs one
//!   round trip instead of a simulator run;
//! - **write-behind** — freshly simulated entries are *offered* to their
//!   owner asynchronously on a dedicated writer thread (mirroring the
//!   durable store's write-behind), so the publishing job never blocks
//!   on peer I/O. The `peer_backlog` stat counts offers not yet settled;
//!   once it reads zero, every offer has reached (or conclusively failed
//!   to reach) its owner — the tests and smoke script gate on that to
//!   stay deterministic;
//! - **membership** — at startup each daemon announces itself to its
//!   seeds (`POST /v1/peer/announce`) and merges the rings it gets back,
//!   so transitively connected seeds converge on one member set;
//! - **degradation** — all peer I/O sits behind per-peer circuit
//!   breakers ([`PeerClient`]); a dead peer turns its remote hits back
//!   into local simulations and write-offers into no-ops. Nothing on the
//!   job path ever *requires* a peer.
//!
//! The owner's durable store ([`crate::store`]) backs its share of the
//! key space, so a restarted owner warm-loads and immediately re-serves
//! the fleet.

pub mod peers;
pub mod ring;

pub use peers::PeerClient;
pub use ring::Ring;

use crate::http::HttpResponse;
use crate::json::parse;
use crate::store::EntryKind;
use crate::tiers::Owner;
use bytes::Bytes;
use scalana_api::{paths, PeerAnnounce, PeerBlob, RingView};
use scalana_obs::{Counter, Histogram};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// Pre-registered metric handles the federation layer feeds; clones of
/// the atomics [`crate::ServiceMetrics`] registered, so `/v1/metrics`
/// and `/v1/stats` read the same values.
#[derive(Debug, Clone)]
pub struct PeerMetrics {
    /// Remote fetch attempts actually put on the wire.
    pub requests: Counter,
    /// Remote fetches that came back as a decodable cache entry.
    pub hits: Counter,
    /// Wall time of one remote fetch round trip.
    pub fetch_ns: Histogram,
}

/// One queued write-behind item.
enum Offer {
    /// `POST` a cache entry to its owner. The queue holds the entry's
    /// bytes (shared with the caches); the hex JSON body, twice their
    /// size, exists only while it is being sent.
    Blob {
        addr: String,
        kind: EntryKind,
        key: String,
        bytes: Bytes,
    },
    /// Introduce ourselves to a seed and merge the ring it returns.
    Announce { addr: String },
}

/// The daemon's view of the fleet: ring, peer clients and the
/// write-behind queue.
#[derive(Debug)]
pub struct Federation {
    /// Our advertised identity on the ring.
    self_addr: String,
    ring: RwLock<Ring>,
    /// Lazily created clients, one per remote member ever dialed.
    clients: Mutex<HashMap<String, Arc<PeerClient>>>,
    /// Offers enqueued but not yet settled by the writer.
    backlog: AtomicU64,
    metrics: PeerMetrics,
    writer: Mutex<Option<Sender<Offer>>>,
}

impl std::fmt::Debug for Offer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Offer::Blob {
                addr, kind, key, ..
            } => {
                write!(f, "Blob({addr}, {})", peer_path(*kind, key))
            }
            Offer::Announce { addr } => write!(f, "Announce({addr})"),
        }
    }
}

impl Federation {
    /// A federation of `self_addr` plus `seeds` (either may already
    /// contain the other; the ring dedups).
    pub fn new(self_addr: String, seeds: &[String], metrics: PeerMetrics) -> Federation {
        let ring = Ring::new(
            seeds
                .iter()
                .cloned()
                .chain(std::iter::once(self_addr.clone())),
        );
        Federation {
            self_addr,
            ring: RwLock::new(ring),
            clients: Mutex::new(HashMap::new()),
            backlog: AtomicU64::new(0),
            metrics,
            writer: Mutex::new(None),
        }
    }

    /// Our advertised address.
    pub fn self_addr(&self) -> &str {
        &self.self_addr
    }

    /// Whether there is anyone besides us on the ring.
    pub fn is_federated(&self) -> bool {
        self.ring.read().unwrap().len() > 1
    }

    /// Ring members right now.
    pub fn ring_len(&self) -> usize {
        self.ring.read().unwrap().len()
    }

    /// The `GET /v1/peer/ring` document.
    pub fn ring_view(&self) -> RingView {
        RingView {
            self_addr: self.self_addr.clone(),
            members: self.ring.read().unwrap().members().to_vec(),
        }
    }

    /// Merge an announced member in and answer with the updated view.
    pub fn announce(&self, addr: &str) -> RingView {
        self.ring.write().unwrap().insert(addr);
        self.ring_view()
    }

    /// The client for `addr`, created on first use.
    fn client(&self, addr: &str) -> Arc<PeerClient> {
        let mut clients = self.clients.lock().unwrap();
        Arc::clone(
            clients
                .entry(addr.to_string())
                .or_insert_with(|| Arc::new(PeerClient::new(addr))),
        )
    }

    /// The remote owner of `key`, or `None` when we own it ourselves
    /// (or the ring is empty).
    pub fn remote_owner(&self, key: &str) -> Option<Arc<PeerClient>> {
        let owner = self.ring.read().unwrap().owner(key)?.to_string();
        if owner == self.self_addr {
            return None;
        }
        Some(self.client(&owner))
    }

    /// Breakers currently tripped open across all peer clients.
    pub fn open_breakers(&self) -> u64 {
        self.clients
            .lock()
            .unwrap()
            .values()
            .filter(|c| c.is_open())
            .count() as u64
    }

    /// `(requests, hits, backlog)` for `/v1/stats`.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.metrics.requests.get(),
            self.metrics.hits.get(),
            self.backlog.load(Ordering::Acquire),
        )
    }

    /// Offers enqueued but not yet settled.
    pub fn backlog(&self) -> u64 {
        self.backlog.load(Ordering::Acquire)
    }

    /// Introduce ourselves to every seed (asynchronously, on the writer
    /// thread); the rings they answer with are merged back in, so
    /// transitively connected fleets converge without a coordinator.
    pub fn announce_peers(&self) {
        let members = self.ring.read().unwrap().members().to_vec();
        for addr in members {
            if addr != self.self_addr {
                self.enqueue(Offer::Announce { addr });
            }
        }
    }

    /// Queue one offer for the writer. The backlog counts it *before*
    /// the send so a reader polling `peer_backlog == 0` can never
    /// observe the gap; a missing writer settles it immediately.
    fn enqueue(&self, offer: Offer) {
        self.backlog.fetch_add(1, Ordering::AcqRel);
        let sender = self.writer.lock().unwrap().clone();
        let sent = match sender {
            Some(tx) => tx.send(offer).is_ok(),
            None => false,
        };
        if !sent {
            self.backlog.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Settle one offer (writer thread).
    fn process(&self, offer: Offer) {
        match offer {
            Offer::Blob {
                addr,
                kind,
                key,
                bytes,
            } => {
                // Best effort: the owner either absorbs it or the entry
                // stays local-only until someone re-simulates it there.
                let body = PeerBlob::from_bytes(&key, &bytes).to_json().render();
                let _ = self
                    .client(&addr)
                    .request("POST", &peer_path(kind, &key), &body);
            }
            Offer::Announce { addr } => {
                let body = PeerAnnounce {
                    addr: self.self_addr.clone(),
                }
                .to_json()
                .render();
                let Some(Ok(response)) =
                    self.client(&addr)
                        .request("POST", paths::PEER_ANNOUNCE, &body)
                else {
                    return;
                };
                if response.code != 200 {
                    return;
                }
                let Some(view) = std::str::from_utf8(&response.body)
                    .ok()
                    .and_then(|text| parse(text).ok())
                    .as_ref()
                    .and_then(RingView::from_json)
                else {
                    return;
                };
                let mut ring = self.ring.write().unwrap();
                ring.insert(&view.self_addr);
                for member in &view.members {
                    ring.insert(member);
                }
            }
        }
    }

    /// Start the write-behind thread (mirrors the store writer's
    /// lifecycle; [`crate::tiers::WriteBehind`] runs both).
    pub fn start_writer(self: &Arc<Federation>) -> JoinHandle<()> {
        let (tx, rx) = mpsc::channel::<Offer>();
        *self.writer.lock().unwrap() = Some(tx);
        let federation = Arc::clone(self);
        thread::Builder::new()
            .name("peer-writer".to_string())
            .spawn(move || {
                for offer in rx {
                    federation.process(offer);
                    federation.backlog.fetch_sub(1, Ordering::AcqRel);
                }
            })
            .expect("spawn peer-writer thread")
    }

    /// Drop the sender; the writer drains its queue and exits.
    pub fn stop_writer(&self) {
        self.writer.lock().unwrap().take();
    }
}

/// The peer endpoint one entry travels over.
fn peer_path(kind: EntryKind, key: &str) -> String {
    match kind {
        EntryKind::Profile => paths::peer_profile(key),
        EntryKind::PsgTrace => paths::peer_psg(key),
    }
}

impl Owner for Federation {
    /// Trivially true on an empty or single-member ring.
    fn owns(&self, key: &str) -> bool {
        match self.ring.read().unwrap().owner(key) {
            Some(owner) => owner == self.self_addr,
            None => true,
        }
    }

    /// One remote fetch. `None` covers every miss shape — we own the
    /// key, the breaker is open, transport failed, the owner answered
    /// non-200, or the body did not decode — because all of them mean
    /// the same thing to the executor: do the work locally.
    fn fetch(&self, kind: EntryKind, key: &str) -> Option<Bytes> {
        let peer = self.remote_owner(key)?;
        let started = Instant::now();
        let attempt = peer.request("GET", &peer_path(kind, key), "")?;
        self.metrics.requests.inc();
        self.metrics
            .fetch_ns
            .record(started.elapsed().as_nanos() as u64);
        let response: HttpResponse = attempt.ok()?;
        if response.code != 200 {
            return None;
        }
        let text = std::str::from_utf8(&response.body).ok()?;
        let blob = PeerBlob::from_json(&parse(text).ok()?).ok()?;
        if blob.key != key {
            return None;
        }
        let bytes = blob.bytes().ok()?;
        self.metrics.hits.inc();
        Some(Bytes::from(bytes))
    }

    /// Write-behind; a no-op when we own the key.
    fn offer(&self, kind: EntryKind, key: &str, bytes: &Bytes) {
        let Some(peer) = self.remote_owner(key) else {
            return;
        };
        self.enqueue(Offer::Blob {
            addr: peer.addr().to_string(),
            kind,
            key: key.to_string(),
            bytes: bytes.clone(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalana_obs::MetricsRegistry;

    fn metrics() -> PeerMetrics {
        let registry = MetricsRegistry::new();
        PeerMetrics {
            requests: registry.counter("scalana_peer_requests_total"),
            hits: registry.counter("scalana_peer_hits_total"),
            fetch_ns: registry.histogram("scalana_peer_fetch_ns"),
        }
    }

    #[test]
    fn standalone_daemon_owns_every_key() {
        let fed = Federation::new("127.0.0.1:7878".to_string(), &[], metrics());
        assert!(!fed.is_federated());
        assert_eq!(fed.ring_len(), 1);
        assert!(fed.remote_owner("00ff5ca1a71e57ed").is_none());
        assert!(fed.owns("00ff5ca1a71e57ed"));
        assert!(fed.fetch(EntryKind::Profile, "00ff5ca1a71e57ed").is_none());
        let view = fed.ring_view();
        assert_eq!(view.members, vec!["127.0.0.1:7878".to_string()]);
    }

    #[test]
    fn announce_merges_members_and_offers_settle_without_a_writer() {
        let fed = Federation::new(
            "127.0.0.1:7878".to_string(),
            &["127.0.0.1:7879".to_string()],
            metrics(),
        );
        assert!(fed.is_federated());
        let view = fed.announce("127.0.0.1:7880");
        assert_eq!(view.members.len(), 3);
        // Duplicate announce changes nothing.
        assert_eq!(fed.announce("127.0.0.1:7880").members.len(), 3);
        // No writer started: offers must settle instantly, not leak
        // backlog forever.
        let image = Bytes::from_static(b"image-bytes");
        for i in 0..32 {
            let mut h = crate::hash::StableHasher::new();
            h.write_usize(i);
            fed.offer(EntryKind::Profile, &h.hex(), &image);
        }
        assert_eq!(fed.backlog(), 0);
    }
}
