//! The daemon's epoll readiness loop (Linux).
//!
//! One thread serves every connection: sockets are nonblocking, reads
//! feed the incremental [`RequestBuffer`] (same head/body budgets and
//! error strings as the client's blocking reader), routing happens inline, and
//! responses are batched into a per-connection output buffer that is
//! flushed once per readiness round. The change that motivates all of
//! this is how long-polls wait: `GET /v1/jobs/<id>/wait` parks as a
//! registry *subscription*
//! ([`Registry::subscribe`]) — a completing worker pushes the
//! connection's token onto the loop's ready list and signals an
//! eventfd, and the loop writes the response on its next round. A
//! parked waiter therefore costs one fd plus a small state machine,
//! not an OS thread, which is what lets one daemon hold tens of
//! thousands of concurrent waiters without starving new submissions
//! (the old thread-per-connection cap was 256).
//!
//! Deliberate properties, pinned by `tests/keepalive.rs`,
//! `tests/errors.rs`, and `tests/eventloop.rs`:
//!
//! - pipelined requests answer strictly in order; a parked long-poll
//!   blocks later requests *on that connection only*;
//! - overload shedding drains a bounded request head before writing
//!   the `503`, so the client reads a structured error instead of a
//!   kernel RST over its unread bytes;
//! - transient accept failures (EMFILE) pause the listener with
//!   bounded backoff instead of busy-looping;
//! - `POST /v1/shutdown` wakes the loop through the eventfd, so an
//!   otherwise idle daemon exits immediately.

use crate::cache::{JobStatus, SubscribeOutcome, WaitOutcome, WaitWaker};
use crate::http::{render_response_into, RequestBuffer, MAX_BODY, MAX_HEAD};
use crate::net::{Epoll, Event, Interest, WakeFd};
use crate::server::{
    self, malformed_response, shed_response, wait_outcome_response, Action, Response, Routed, State,
};
use scalana_obs as obs;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Epoll token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// Epoll token of the wake eventfd.
const TOKEN_WAKE: u64 = 1;
/// First connection token (monotonic, never reused).
const TOKEN_FIRST_CONN: u64 = 2;

// Idle keep-alive connections are closed after `State::idle_timeout`
// (`--idle-timeout`, default 30 s) without traffic — the same budget
// the blocking path enforced via its socket read timeout. Parked
// long-polls are exempt (their wait deadline bounds them instead).
/// How often the idle sweep runs.
const IDLE_SWEEP_EVERY: Duration = Duration::from_secs(1);

/// Connections admitted *beyond* `max_connections` purely to be shed
/// politely (drain + `503`). Beyond these, new sockets are dropped
/// outright — under that much pressure the polite answer is itself a
/// resource.
const SHED_SLOTS: usize = 64;
/// How long a shed connection gets to finish sending its request
/// before the `503` is written regardless.
const SHED_DRAIN_TIMEOUT: Duration = Duration::from_secs(2);

/// Stop reading from a connection once this much unparsed input is
/// buffered (enough for any legal request plus pipeline slack); the
/// kernel socket buffer takes over as backpressure, exactly as it did
/// for the blocking reader.
const READ_BUFFER_CAP: usize = MAX_HEAD + MAX_BODY + (16 << 10);
/// Stop reading new requests while this much output is waiting to
/// flush — a slow reader must not grow the daemon's buffers without
/// bound.
const OUT_SOFT_CAP: usize = 256 << 10;

/// Accept-error backoff bounds (doubles from min to max, resets on the
/// next successful accept).
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(10);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(1280);

/// The [`WaitWaker`] workers call at terminal transitions: push the
/// parked connection's token, signal the eventfd. Called with the
/// registry lock held, so it must stay this small.
#[derive(Debug)]
struct LoopWaker {
    ready: Mutex<Vec<u64>>,
    wake: Arc<WakeFd>,
}

impl WaitWaker for LoopWaker {
    fn wake(&self, token: u64) {
        self.ready.lock().unwrap().push(token);
        self.wake.wake();
    }
}

impl LoopWaker {
    fn take_ready(&self) -> Vec<u64> {
        std::mem::take(&mut *self.ready.lock().unwrap())
    }
}

/// A parked `GET /v1/jobs/<id>/wait`.
struct Wait {
    key: String,
    deadline: Instant,
    keep_alive: bool,
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    parser: RequestBuffer,
    /// Rendered-but-unflushed response bytes.
    out: Vec<u8>,
    out_pos: usize,
    wait: Option<Wait>,
    /// `Some(deadline)` — admitted over the cap purely to be shed.
    shed: Option<Instant>,
    /// Interest currently registered with epoll (MOD only on change,
    /// or level-triggered readiness would spin while parked).
    interest: Interest,
    last_activity: Instant,
    /// `obs` stamp when the first byte of the next request arrived.
    read_started: Option<u64>,
    close_after_flush: bool,
    eof: bool,
    dead: bool,
}

struct Reactor<'a> {
    state: &'a Arc<State>,
    epoll: Epoll,
    waker: Arc<LoopWaker>,
    listener: TcpListener,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Connections currently served (excludes shed slots).
    live: usize,
    /// Shed slots currently draining.
    shedding: usize,
    /// Wait and shed deadlines, lazily validated on pop (stale entries
    /// from an earlier wait on the same connection are skipped).
    deadlines: BinaryHeap<Reverse<(Instant, u64)>>,
    next_sweep: Instant,
    /// While `Some`, the listener is deregistered after an accept error
    /// and resumes at the instant.
    accept_resume: Option<Instant>,
    accept_backoff: Duration,
}

/// Serve connections on `listener` until shutdown. Entry point used by
/// [`crate::server::Server::run`].
pub(crate) fn serve(listener: TcpListener, state: &Arc<State>) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let epoll = Epoll::new()?;
    let wake = Arc::new(WakeFd::new()?);
    // Install the wake handle before serving so `trigger_shutdown` can
    // interrupt an idle `epoll_wait` (the throwaway-connection fallback
    // covers the sliver of time before this line).
    let _ = state.wake.set(Arc::clone(&wake));
    epoll.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
    epoll.add(wake.as_raw_fd(), TOKEN_WAKE, Interest::READ)?;
    let waker = Arc::new(LoopWaker {
        ready: Mutex::new(Vec::new()),
        wake,
    });

    let mut reactor = Reactor {
        state,
        epoll,
        waker,
        listener,
        conns: HashMap::new(),
        next_token: TOKEN_FIRST_CONN,
        live: 0,
        shedding: 0,
        deadlines: BinaryHeap::new(),
        next_sweep: Instant::now() + IDLE_SWEEP_EVERY,
        accept_resume: None,
        accept_backoff: ACCEPT_BACKOFF_MIN,
    };

    let mut events: Vec<Event> = Vec::new();
    while !state.shutdown.load(Ordering::SeqCst) {
        let timeout = reactor.next_timeout();
        reactor.epoll.wait(Some(timeout), &mut events)?;
        let round_started = obs::now_ns();

        let mut accept_ready = false;
        for event in events.clone() {
            match event.token {
                TOKEN_LISTENER => accept_ready = true,
                TOKEN_WAKE => reactor.waker.wake.drain(),
                _ => reactor.conn_event(event),
            }
        }
        for token in reactor.waker.take_ready() {
            reactor.resolve_wait(token, false);
        }
        if accept_ready && reactor.accept_resume.is_none() {
            reactor.accept_all();
        }
        reactor.fire_timers(Instant::now());

        if !events.is_empty() {
            state
                .metrics
                .round_ns
                .record(obs::now_ns().saturating_sub(round_started));
        }
        reactor.publish_gauges();
    }
    reactor.drain_on_shutdown();
    Ok(())
}

impl Reactor<'_> {
    /// How long the next `epoll_wait` may sleep: until the nearest
    /// deadline (wait timeout, shed drain, accept resume, idle sweep).
    fn next_timeout(&self) -> Duration {
        let mut nearest = self.next_sweep;
        if let Some(Reverse((when, _))) = self.deadlines.peek() {
            nearest = nearest.min(*when);
        }
        if let Some(resume) = self.accept_resume {
            nearest = nearest.min(resume);
        }
        nearest.saturating_duration_since(Instant::now())
    }

    fn publish_gauges(&self) {
        self.state.connections.store(self.live, Ordering::SeqCst);
        self.state
            .metrics
            .epoll_fds
            .set(2 + self.conns.len() as u64);
    }

    // -- accepting -------------------------------------------------------

    fn accept_all(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.accept_backoff = ACCEPT_BACKOFF_MIN;
                    self.register(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionAborted | io::ErrorKind::Interrupted
                    ) =>
                {
                    continue;
                }
                Err(_) => {
                    // EMFILE/ENFILE and friends: with a level-triggered
                    // listener registration this would re-fire every
                    // round — a 100% CPU busy-loop. Deregister and
                    // retry after a bounded, growing backoff.
                    self.state.metrics.accept_errors.inc();
                    let _ = self.epoll.delete(self.listener.as_raw_fd());
                    self.accept_resume = Some(Instant::now() + self.accept_backoff);
                    self.accept_backoff = (self.accept_backoff * 2).min(ACCEPT_BACKOFF_MAX);
                    break;
                }
            }
        }
    }

    fn resume_accepting(&mut self) {
        self.accept_resume = None;
        if self
            .epoll
            .add(self.listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)
            .is_err()
        {
            // Could not re-register (fd pressure again): retry later
            // rather than going deaf forever.
            self.accept_resume = Some(Instant::now() + self.accept_backoff);
            self.accept_backoff = (self.accept_backoff * 2).min(ACCEPT_BACKOFF_MAX);
            return;
        }
        self.accept_all();
    }

    fn register(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        // Keep-alive exchanges are small request/response pairs; Nagle
        // batching would add delayed-ACK latency to every one of them.
        let _ = stream.set_nodelay(true);
        let shed = if self.live >= self.state.max_connections {
            if self.shedding >= SHED_SLOTS {
                // Too overloaded even to shed politely.
                return;
            }
            Some(Instant::now() + SHED_DRAIN_TIMEOUT)
        } else {
            None
        };
        let token = self.next_token;
        self.next_token += 1;
        if self
            .epoll
            .add(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            return;
        }
        if let Some(deadline) = shed {
            self.shedding += 1;
            self.deadlines.push(Reverse((deadline, token)));
        } else {
            self.live += 1;
        }
        self.conns.insert(
            token,
            Conn {
                stream,
                parser: RequestBuffer::new(),
                out: Vec::new(),
                out_pos: 0,
                wait: None,
                shed,
                interest: Interest::READ,
                last_activity: Instant::now(),
                read_started: None,
                close_after_flush: false,
                eof: false,
                dead: false,
            },
        );
    }

    // -- per-connection events -------------------------------------------

    fn conn_event(&mut self, event: Event) {
        let token = event.token;
        if event.broken {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.dead = true;
            }
        } else if event.readable {
            self.read_some(token);
        }
        self.advance(token);
    }

    /// Drain the socket into the parser until `WouldBlock`, EOF, or the
    /// buffer cap.
    fn read_some(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.last_activity = Instant::now();
        let started = obs::now_ns();
        let mut buf = [0u8; 16 * 1024];
        while conn.parser.buffered() <= READ_BUFFER_CAP {
            match (&conn.stream).read(&mut buf) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => {
                    if conn.read_started.is_none() {
                        conn.read_started = Some(started);
                    }
                    conn.parser.feed(&buf[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
    }

    /// Drive a connection as far as it can go right now: parse and
    /// route buffered requests (unless parked), flush output, update
    /// epoll interest, close when finished.
    fn advance(&mut self, token: u64) {
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        if conn.dead {
            self.close(token);
            return;
        }
        if conn.shed.is_some() {
            self.advance_shed(token, false);
        } else {
            self.process_requests(token);
        }
        self.flush(token);
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.dead {
            self.close(token);
            return;
        }
        let flushed = conn.out_pos >= conn.out.len();
        if flushed && conn.close_after_flush {
            self.close(token);
            return;
        }
        // A clean EOF with nothing buffered, parked, or pending is the
        // normal end of a keep-alive connection. EOF mid-request is
        // protocol garbage; EOF behind a parked wait closes after the
        // wait resolves (close_after_flush is set at resolution).
        if conn.eof && conn.wait.is_none() && !conn.close_after_flush {
            if conn.parser.is_empty() {
                if flushed {
                    self.close(token);
                    return;
                }
                conn.close_after_flush = true;
            } else {
                let response = malformed_response(&io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-request",
                ));
                push_response(conn, &response, false);
                conn.close_after_flush = true;
                self.flush(token);
                let Some(conn) = self.conns.get(&token) else {
                    return;
                };
                if conn.out_pos >= conn.out.len() {
                    self.close(token);
                    return;
                }
            }
        }
        self.update_interest(token);
    }

    /// Parse and route every complete buffered request, in order,
    /// stopping at a parked wait (strict per-connection ordering) or a
    /// connection-fatal condition.
    fn process_requests(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.wait.is_some() || conn.close_after_flush || conn.dead {
                return;
            }
            let request = match conn.parser.try_next() {
                Ok(Some(request)) => request,
                Ok(None) => return,
                Err(e) => {
                    let response = malformed_response(&e);
                    push_response(conn, &response, false);
                    conn.close_after_flush = true;
                    return;
                }
            };
            let now = obs::now_ns();
            self.state
                .metrics
                .http_read_ns
                .record(now.saturating_sub(conn.read_started.take().unwrap_or(now)));
            self.state.metrics.http_requests.inc();

            let route_guard = obs::span_timed(&self.state.metrics.render_ns);
            let (routed, action) = server::route(&request, self.state);
            drop(route_guard);

            let keep_alive = request.keep_alive
                && action != Action::Shutdown
                && !self.state.shutdown.load(Ordering::SeqCst);
            let conn = self.conns.get_mut(&token).expect("conn exists");
            match routed {
                Routed::Done(response) => {
                    push_response(conn, &response, keep_alive);
                    if !keep_alive {
                        conn.close_after_flush = true;
                    }
                }
                Routed::Wait { key, timeout } => {
                    let waker: Arc<dyn WaitWaker> = self.waker.clone();
                    match self.state.registry.subscribe(&key, token, waker) {
                        SubscribeOutcome::Unknown => {
                            let response = wait_outcome_response(WaitOutcome::Unknown);
                            push_response(conn, &response, keep_alive);
                            if !keep_alive {
                                conn.close_after_flush = true;
                            }
                        }
                        SubscribeOutcome::Terminal(view) => {
                            let response = wait_outcome_response(WaitOutcome::Terminal(view));
                            push_response(conn, &response, keep_alive);
                            if !keep_alive {
                                conn.close_after_flush = true;
                            }
                        }
                        SubscribeOutcome::Parked => {
                            let deadline = Instant::now() + timeout;
                            conn.wait = Some(Wait {
                                key,
                                deadline,
                                keep_alive: request.keep_alive,
                            });
                            self.deadlines.push(Reverse((deadline, token)));
                        }
                    }
                }
            }
            if action == Action::Shutdown {
                self.state.trigger_shutdown();
            }
        }
    }

    /// A shed connection: drain a bounded head so the peer's request
    /// bytes are consumed (writing the 503 over unread bytes makes the
    /// kernel RST the connection and the client never sees the
    /// structured error), then answer and close.
    fn advance_shed(&mut self, token: u64, deadline_hit: bool) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.close_after_flush {
            return;
        }
        let drained = match conn.parser.try_next() {
            // One complete request arrived — its bytes are consumed.
            Ok(Some(_)) => true,
            // Still incomplete: keep draining until EOF, the budget,
            // or the drain deadline.
            Ok(None) => conn.eof || conn.parser.buffered() > MAX_HEAD,
            // Oversized or malformed: it gets the 503 all the same
            // (admission, not parsing, is what failed here).
            Err(_) => true,
        };
        if drained || deadline_hit {
            let response = shed_response();
            push_response(conn, &response, false);
            conn.close_after_flush = true;
        }
    }

    /// A parked wait became ready (worker wake), timed out, or is being
    /// re-checked. `timed_out` answers with the still-pending status.
    fn resolve_wait(&mut self, token: u64, timed_out: bool) {
        let Some(Wait {
            key, keep_alive, ..
        }) = self.conns.get(&token).and_then(|conn| conn.wait.as_ref())
        else {
            return;
        };
        let outcome = match self.state.registry.status(key) {
            None => WaitOutcome::Unknown,
            Some(view) if matches!(view.status, JobStatus::Done | JobStatus::Failed) => {
                WaitOutcome::Terminal(view)
            }
            Some(view) => {
                if !timed_out {
                    // Spurious (stale ready token after an earlier
                    // resolution): stay parked.
                    return;
                }
                WaitOutcome::Pending(view)
            }
        };
        let key = key.clone();
        let keep_alive = *keep_alive;
        if timed_out {
            // Gave up before the wake: withdraw the subscription (a
            // concurrent wake is harmless — the stale token resolves to
            // no parked wait).
            let _ = self.state.registry.unsubscribe(&key, token);
        }
        let keep_alive = keep_alive && !self.state.shutdown.load(Ordering::SeqCst);
        let response = wait_outcome_response(outcome);
        let conn = self.conns.get_mut(&token).expect("conn exists");
        conn.wait = None;
        conn.last_activity = Instant::now();
        push_response(conn, &response, keep_alive);
        if !keep_alive {
            conn.close_after_flush = true;
        }
        // Pipelined requests buffered behind the wait resume now —
        // nothing will re-trigger epoll for them.
        self.advance(token);
    }

    // -- output ----------------------------------------------------------

    /// Write as much pending output as the socket accepts.
    fn flush(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.out_pos >= conn.out.len() {
            return;
        }
        let write_guard = obs::span_timed(&self.state.metrics.write_ns);
        while conn.out_pos < conn.out.len() {
            match (&conn.stream).write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    conn.dead = true;
                    break;
                }
                Ok(n) => {
                    conn.out_pos += n;
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        drop(write_guard);
        if conn.out_pos >= conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
        }
    }

    /// Re-register epoll interest when it changed. Readability is
    /// dropped while parked (a level-triggered fd with buffered
    /// pipelined bytes would wake every round for a connection that
    /// cannot make progress) and while buffers are saturated.
    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let readable = !conn.eof
            && !conn.close_after_flush
            && conn.wait.is_none()
            && conn.parser.buffered() <= READ_BUFFER_CAP
            && conn.out.len() - conn.out_pos <= OUT_SOFT_CAP;
        let desired = Interest {
            readable,
            writable: conn.out_pos < conn.out.len(),
        };
        if desired != conn.interest
            && self
                .epoll
                .modify(conn.stream.as_raw_fd(), token, desired)
                .is_ok()
        {
            conn.interest = desired;
        }
    }

    // -- timers ----------------------------------------------------------

    fn fire_timers(&mut self, now: Instant) {
        if self.accept_resume.is_some_and(|at| at <= now) {
            self.resume_accepting();
        }
        while let Some(Reverse((when, token))) = self.deadlines.peek().copied() {
            if when > now {
                break;
            }
            self.deadlines.pop();
            let Some(conn) = self.conns.get(&token) else {
                continue;
            };
            if let Some(deadline) = conn.shed {
                if deadline <= now {
                    self.advance_shed(token, true);
                    self.flush(token);
                    // Close immediately if flushed; a partial write
                    // finishes via EPOLLOUT.
                    self.advance(token);
                }
                continue;
            }
            // A heap entry from an earlier wait on this connection is
            // stale once the deadline it recorded no longer matches.
            if conn.wait.as_ref().is_some_and(|w| w.deadline <= now) {
                self.resolve_wait(token, true);
            }
        }
        if now >= self.next_sweep {
            self.next_sweep = now + IDLE_SWEEP_EVERY;
            let idle: Vec<u64> = self
                .conns
                .iter()
                .filter(|(_, conn)| {
                    conn.wait.is_none()
                        && conn.shed.is_none()
                        && now.saturating_duration_since(conn.last_activity)
                            > self.state.idle_timeout
                })
                .map(|(token, _)| *token)
                .collect();
            for token in idle {
                // Silent close, matching the blocking path's read
                // timeout behavior for idle keep-alive connections.
                self.close(token);
            }
        }
    }

    // -- teardown --------------------------------------------------------

    fn close(&mut self, token: u64) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        if let Some(wait) = &conn.wait {
            let _ = self.state.registry.unsubscribe(&wait.key, token);
        }
        if conn.shed.is_some() {
            self.shedding -= 1;
        } else {
            self.live -= 1;
        }
        // Dropping the stream closes the fd, which also removes its
        // epoll registration.
    }

    /// Shutdown: answer every parked wait with its current (usually
    /// still-pending) status, flush what can be flushed within a small
    /// budget, and drop everything. Workers drain the already-accepted
    /// queue after this returns.
    fn drain_on_shutdown(mut self) {
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.resolve_wait(token, true);
        }
        for (_, conn) in self.conns.drain() {
            if conn.shed.is_some() || conn.out_pos >= conn.out.len() {
                continue;
            }
            let _ = conn.stream.set_nonblocking(false);
            let _ = conn.stream.set_write_timeout(Some(Duration::from_secs(1)));
            let _ = (&conn.stream).write_all(&conn.out[conn.out_pos..]);
        }
    }
}

/// Render `response` into the connection's output buffer (one
/// contiguous write per readiness round, same bytes as the blocking
/// writer).
fn push_response(conn: &mut Conn, response: &Response, keep_alive: bool) {
    render_response_into(
        &mut conn.out,
        response.code,
        &response.content_type,
        &response.headers,
        &response.body,
        keep_alive,
    );
}
