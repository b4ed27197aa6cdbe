//! One handle per remote daemon: a bounded keep-alive connection pool
//! behind a per-peer circuit breaker — the same `Breaker` ladder the
//! durable store uses for disk faults. While it is open,
//! [`PeerClient::request`] refuses instantly — the caller falls back to
//! local simulation without paying a connect timeout per job. A dead
//! peer therefore degrades fleet throughput (remote hits become local
//! misses), never correctness or availability.

use crate::breaker::Breaker;
use crate::client::Conn;
use crate::http::HttpResponse;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Idle keep-alive connections retained per peer. Requests beyond the
/// pool open a fresh connection and the surplus is dropped on return.
const POOL_SIZE: usize = 4;

/// Budget for opening a TCP connection to a peer.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
/// Budget for one request/response round trip on a peer connection.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// A pooled, breaker-guarded client for one remote daemon.
#[derive(Debug)]
pub struct PeerClient {
    addr: String,
    pool: Mutex<Vec<Conn>>,
    breaker: Mutex<Breaker>,
}

impl PeerClient {
    /// A client for the daemon at `addr`. No connection is opened until
    /// the first request.
    pub fn new(addr: &str) -> PeerClient {
        PeerClient {
            addr: addr.to_string(),
            pool: Mutex::new(Vec::new()),
            breaker: Mutex::new(Breaker::new()),
        }
    }

    /// The peer's address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Whether the breaker is currently tripped open.
    pub fn is_open(&self) -> bool {
        self.breaker.lock().unwrap().is_open()
    }

    /// One request to the peer. `None`: the breaker refused (the peer is
    /// known-bad; fall back without any I/O). `Some(Err)`: this attempt
    /// failed (and fed the breaker). `Some(Ok)`: the peer answered —
    /// any HTTP status, the caller interprets it.
    pub fn request(
        &self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Option<Result<HttpResponse, String>> {
        if !self.breaker.lock().unwrap().admit(Instant::now()) {
            return None;
        }
        let pooled = self.pool.lock().unwrap().pop();
        let mut conn = match pooled {
            Some(conn) => conn,
            None => match Conn::connect_with_timeout(&self.addr, CONNECT_TIMEOUT, READ_TIMEOUT) {
                Ok(conn) => conn,
                Err(e) => {
                    self.breaker.lock().unwrap().on_failure(Instant::now());
                    return Some(Err(e));
                }
            },
        };
        match conn.request_full(method, path, body) {
            Ok(response) => {
                self.breaker.lock().unwrap().on_success();
                if conn.is_alive() {
                    let mut pool = self.pool.lock().unwrap();
                    if pool.len() < POOL_SIZE {
                        pool.push(conn);
                    }
                }
                Some(Ok(response))
            }
            Err(e) => {
                // The pooled connection may simply have idled out
                // server-side; a failure on a *fresh* connection is the
                // signal the breaker should count. Retry once.
                match Conn::connect_with_timeout(&self.addr, CONNECT_TIMEOUT, READ_TIMEOUT)
                    .and_then(|mut fresh| {
                        fresh.request_full(method, path, body).map(|r| (fresh, r))
                    }) {
                    Ok((fresh, response)) => {
                        self.breaker.lock().unwrap().on_success();
                        if fresh.is_alive() {
                            let mut pool = self.pool.lock().unwrap();
                            if pool.len() < POOL_SIZE {
                                pool.push(fresh);
                            }
                        }
                        Some(Ok(response))
                    }
                    Err(_) => {
                        self.breaker.lock().unwrap().on_failure(Instant::now());
                        Some(Err(e))
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dead_peer_refuses_after_trip_without_io() {
        // Nothing listens on this port (reserved, never assigned).
        let peer = PeerClient::new("127.0.0.1:1");
        for _ in 0..crate::breaker::TRIP {
            assert!(matches!(
                peer.request("GET", "/v1/healthz", ""),
                Some(Err(_))
            ));
        }
        assert!(peer.is_open());
        assert!(peer.request("GET", "/v1/healthz", "").is_none());
    }
}
