//! The discrete-event scheduler and MPI semantics.
//!
//! Ranks execute independently on their own virtual clocks and interact
//! only through MPI. The engine runs every runnable rank until it blocks
//! (or finishes), then performs a *quiescence matching phase*: complete
//! collectives whose participants all arrived, match posted receives
//! against deposited messages, and re-check blocked waits. The cycle
//! repeats until all ranks finish; no progress with live ranks is a
//! deadlock (reported with per-rank state).
//!
//! Correctness notes:
//! - Matching is **time-based and deterministic**: a specific-source
//!   receive takes the sender's earliest unconsumed matching message (by
//!   per-sender send sequence); a wildcard receive takes the candidate
//!   with the smallest (arrival, source, sequence). Wildcards are only
//!   matched at quiescence, when every potential sender is blocked or
//!   done, so no earlier message can still appear.
//! - Receives of one rank match in post order (MPI ordering rule); a
//!   wildcard receive at the head of the queue blocks later receives
//!   until quiescence resolves it.
//! - Point-to-point timing: eager messages (≤ threshold) let the sender
//!   proceed after overhead + serialization; rendezvous messages block
//!   the sender until the receiver posts, then both complete after the
//!   transfer. `MPI_Sendrecv` uses buffered sends (deadlock-free, as
//!   real implementations guarantee).
//! - Collectives match by per-rank sequence number; mismatched kinds are
//!   reported as errors. Completion uses the cost models in
//!   [`crate::machine`] and emits straggler → waiter dependence edges so
//!   detection can see who delayed a collective.
//!
//! Hot-path layout: each mailbox is a slab of `Copy` messages indexed by
//! per-`(source, tag)` FIFO queues, so the common specific receive is a
//! queue-front pop instead of a scan over every message ever delivered;
//! wildcard receives fold the (few) queue candidates in deposit order,
//! reproducing the historical scan's tie-breaks exactly. Blocked waits
//! record *which* requests they cover (`ReqWait`) instead of cloning
//! request-id vectors, and statement attribution goes through a dense
//! [`AttrIndex`] snapshot rather than hash-map lookups per statement.
//! A rank's requests sit in a window indexed by id (`Requests`): ids
//! are handed out 1, 2, 3, … per rank, so a lookup is a subtraction and
//! a bounds check, and retiring a request trims the window's front past
//! the slots already freed. The window is also what `waitall` covers (a
//! blocking operation retires its request before the rank runs on), so
//! no separate outstanding list is kept, and a blocked `waitall`'s
//! re-check reads the window's slots instead of hashing ids. The
//! collective table, probed on every collective, hashes with
//! [`FxHashMap`] instead of SipHash; its one order-sensitive walk
//! (ready collectives) sorts first.
//! The quiescence phase visits only ranks that changed since it last
//! looked, in ascending rank order, which is the order of a full scan:
//! receive matching visits ranks whose mailbox got a deposit or whose
//! receive queue got a post, and the blocked-wait re-check visits ranks
//! one of whose requests completed (a matched receive or a released
//! rendezvous send). Nothing else can let either step progress, so the
//! marked ranks are exactly those a full scan could advance.
//! Ranks execute the program's lowered form
//! ([`scalana_lang::Program::lowered`]), which checking produced once per
//! program: a variable is a frame slot, and binding a request id writes
//! the request slot an `isend`/`irecv` carries. A run adds only its
//! values: `nprocs` and one table of parameter values, read by index.
//! The engine and the interpreter are generic over the hook type, so the
//! whole event loop is compiled once per tool: a profiler's callbacks for
//! every computation, MPI exit and dependence event inline into it
//! instead of costing a virtual call each. A `&mut dyn Hook` is one more
//! instance of the same code, with dynamic dispatch. Each instance is
//! compiled in the crate that names the hook, not in this one, so the
//! small helpers it calls per statement or event (slot reads, expression
//! evaluation, the machine's cost formulas, attribution lookups, the
//! profiler's callbacks) are marked `#[inline]` to stay inlinable there.

use crate::eval::Run;
use crate::fxhash::FxHashMap;
use crate::hook::{CommDepEvent, Hook, MpiEnterEvent, MpiExitEvent, NullHook};
use crate::interp::{EvaluatedOp, MpiCall, Pmu, RankState, StepCtx, StepOutcome, StmtCosts};
use crate::machine::{CollectiveModel, MachineConfig};
use crate::value::Value;
use scalana_graph::{AttrIndex, MpiKind, Psg, VertexId};
use scalana_lang::lower::Lowered;
use scalana_lang::Program;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Configuration of one simulated run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of ranks.
    pub nprocs: usize,
    /// Program-parameter overrides (merged over the declared defaults).
    pub params: HashMap<String, i64>,
    /// Platform model. Shared behind an `Arc` so configuring many runs
    /// (one per scale, one per tool) never deep-copies the model.
    pub machine: Arc<MachineConfig>,
    /// Per-rank statement budget (runaway-loop guard).
    pub max_steps_per_rank: u64,
    /// Interpreter micro-cost table.
    pub costs: StmtCosts,
}

impl SimConfig {
    /// Default configuration at a given scale.
    pub fn with_nprocs(nprocs: usize) -> SimConfig {
        SimConfig {
            nprocs,
            params: HashMap::new(),
            machine: Arc::new(MachineConfig::default()),
            max_steps_per_rank: 200_000_000,
            costs: StmtCosts::default(),
        }
    }

    /// Builder-style parameter override.
    pub fn with_param(mut self, name: &str, value: i64) -> SimConfig {
        self.params.insert(name.to_string(), value);
        self
    }

    /// Mutable access to the platform model (clones it if shared).
    pub fn machine_mut(&mut self) -> &mut MachineConfig {
        Arc::make_mut(&mut self.machine)
    }
}

/// Simulation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Rank count.
    pub nprocs: usize,
    /// Per-rank end-to-end virtual time.
    pub rank_elapsed: Vec<f64>,
    /// Per-rank cumulative PMU counters.
    pub rank_pmu: Vec<Pmu>,
}

impl SimResult {
    /// End-to-end runtime (slowest rank).
    pub fn total_time(&self) -> f64 {
        self.rank_elapsed.iter().copied().fold(0.0, f64::max)
    }
}

/// Simulation failures.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// No rank can make progress.
    Deadlock {
        /// Human-readable per-rank state dump.
        detail: String,
    },
    /// Ranks disagreed on the next collective.
    CollectiveMismatch {
        /// Description of the disagreement.
        detail: String,
    },
    /// A rank exceeded its statement budget.
    StepLimit {
        /// The offending rank.
        rank: usize,
    },
    /// An MPI operation addressed a rank outside the communicator.
    InvalidRank {
        /// The executing rank.
        rank: usize,
        /// The operation name.
        op: &'static str,
        /// The bad value.
        value: i64,
    },
    /// `wait` on an unknown (or already-completed) request id.
    UnknownRequest {
        /// The executing rank.
        rank: usize,
        /// The request id.
        req: i64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { detail } => write!(f, "deadlock: {detail}"),
            SimError::CollectiveMismatch { detail } => {
                write!(f, "collective mismatch: {detail}")
            }
            SimError::StepLimit { rank } => write!(f, "rank {rank} exceeded step budget"),
            SimError::InvalidRank { rank, op, value } => {
                write!(f, "rank {rank}: `{op}` addressed invalid rank {value}")
            }
            SimError::UnknownRequest { rank, req } => {
                write!(f, "rank {rank}: wait on unknown request {req}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Entry point: couple a program, its PSG, and a config; optionally
/// attach a [`Hook`]; then [`run`](Simulation::run).
///
/// The hook type is a parameter, so the engine is compiled once per tool:
/// a concrete hook's callbacks inline into the interpreter loop, a bare
/// `Simulation::new(..).run()` runs [`NullHook`], and a `&mut dyn Hook`
/// (`H = dyn Hook`) keeps virtual dispatch.
pub struct Simulation<'p, 'g, 'h, H: Hook + ?Sized = NullHook> {
    program: &'p Program,
    psg: &'g Psg,
    config: SimConfig,
    hook: Option<&'h mut H>,
}

impl<'p, 'g, 'h> Simulation<'p, 'g, 'h> {
    /// Create an uninstrumented simulation.
    pub fn new(program: &'p Program, psg: &'g Psg, config: SimConfig) -> Self {
        Simulation {
            program,
            psg,
            config,
            hook: None,
        }
    }
}

impl<'p, 'g, 'h, H: Hook + ?Sized> Simulation<'p, 'g, 'h, H> {
    /// Attach a performance tool.
    pub fn with_hook<H2: Hook + ?Sized>(self, hook: &'h mut H2) -> Simulation<'p, 'g, 'h, H2> {
        Simulation {
            program: self.program,
            psg: self.psg,
            config: self.config,
            hook: Some(hook),
        }
    }

    /// Run to completion.
    pub fn run(self) -> Result<SimResult, SimError> {
        let program = self.program.lowered();
        let params: Vec<i64> = (self.program.params.iter())
            .map(|p| *self.config.params.get(&p.name).unwrap_or(&p.default))
            .collect();
        let attr = AttrIndex::build(self.psg, self.program.next_node_id);
        match self.hook {
            Some(hook) => Engine::new(program, &params, self.psg, attr, self.config, hook).run(),
            None => Engine::new(program, &params, self.psg, attr, self.config, &mut NullHook).run(),
        }
    }
}

// ----- internal machinery -----

#[derive(Debug, Clone, Copy)]
struct Message {
    src_rank: usize,
    src_vertex: VertexId,
    tag: i64,
    bytes: u64,
    /// Sender clock when the payload left (after overhead).
    send_time: f64,
    /// Per-sender monotonically increasing sequence (matching order).
    send_seq: u64,
    /// Earliest receiver availability (eager only; rendezvous computed
    /// at match time).
    arrival: f64,
    rendezvous: bool,
    /// For rendezvous: who to release when matched. `req` is `Some` for
    /// `isend`, `None` for a blocked blocking-send.
    rdv_sender: Option<(usize, Option<i64>)>,
    /// Receiver-side delivery order; wildcard matching folds candidates
    /// in this order to reproduce the historical scan's tie-breaks.
    deposit_seq: u64,
}

/// One rank's incoming messages: a slab of live messages indexed by
/// per-`(source, tag)` FIFO queues. Specific receives pop a queue front
/// in O(1); wildcard receives inspect only queue candidates instead of
/// every message ever delivered, and consumed slots are recycled instead
/// of accumulating for the whole run.
#[derive(Debug, Default)]
struct Mailbox {
    slots: Vec<Message>,
    free: Vec<u32>,
    /// Sparse queue table. Its first `live` entries are the `(source,
    /// tag)` pairs holding messages; a queue that drains is swapped
    /// behind them and re-keyed by the next new pair, so the table only
    /// grows with the pairs live at once (a fresh tag per message costs
    /// one entry, not one per tag) and lookups scan live pairs only.
    /// Those are few per receiver, so a scanned `Vec` beats hashing. No
    /// lookup depends on table order: a specific receive finds its key,
    /// an any-tag receive takes the least (unique) send sequence, and a
    /// wildcard receive sorts by deposit sequence.
    queues: Vec<((usize, i64), VecDeque<u32>)>,
    live: usize,
    deposits: u64,
}

impl Mailbox {
    fn deposit(&mut self, mut msg: Message) {
        msg.deposit_seq = self.deposits;
        self.deposits += 1;
        let key = (msg.src_rank, msg.tag);
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = msg;
                s
            }
            None => {
                self.slots.push(msg);
                (self.slots.len() - 1) as u32
            }
        };
        if let Some((_, q)) = self.queues[..self.live].iter_mut().find(|(k, _)| *k == key) {
            q.push_back(slot);
            return;
        }
        if self.live == self.queues.len() {
            self.queues.push((key, VecDeque::with_capacity(4)));
        }
        let (k, q) = &mut self.queues[self.live];
        *k = key;
        q.push_back(slot);
        self.live += 1;
    }

    fn live_queues(&self) -> &[((usize, i64), VecDeque<u32>)] {
        &self.queues[..self.live]
    }

    #[inline]
    fn msg(&self, slot: u32) -> &Message {
        &self.slots[slot as usize]
    }

    /// Deterministic candidate selection (see module docs). Returns the
    /// slot of the matched message without consuming it.
    fn find_match(&self, src: i64, tag: i64) -> Option<u32> {
        if src >= 0 && tag >= 0 {
            // Fully specific: FIFO per (source, tag); the queue front has
            // the smallest send sequence.
            let key = (src as usize, tag);
            return self
                .live_queues()
                .iter()
                .find(|(k, _)| *k == key)
                .and_then(|(_, q)| q.front().copied());
        }
        if src >= 0 {
            // Any tag from one source: smallest send sequence across the
            // source's queue fronts (each queue is sequence-ascending).
            let mut best: Option<u32> = None;
            for (k, q) in self.live_queues() {
                if k.0 != src as usize {
                    continue;
                }
                let Some(&head) = q.front() else { continue };
                best = match best {
                    Some(b) if self.msg(b).send_seq <= self.msg(head).send_seq => Some(b),
                    _ => Some(head),
                };
            }
            return best;
        }
        // Wildcard source: fold every candidate in deposit order with the
        // historical comparator (same-source by sequence, cross-source by
        // (arrival, source, sequence)), which is order-sensitive.
        let mut candidates: Vec<u32> = Vec::new();
        for (k, q) in self.live_queues() {
            if tag >= 0 && k.1 != tag {
                continue;
            }
            candidates.extend(q.iter().copied());
        }
        candidates.sort_unstable_by_key(|&s| self.msg(s).deposit_seq);
        let mut best: Option<u32> = None;
        for s in candidates {
            best = match best {
                None => Some(s),
                Some(b) => {
                    let (msg, cur) = (self.msg(s), self.msg(b));
                    let better = if msg.src_rank == cur.src_rank {
                        msg.send_seq < cur.send_seq
                    } else {
                        (msg.arrival, msg.src_rank, msg.send_seq)
                            < (cur.arrival, cur.src_rank, cur.send_seq)
                    };
                    if better {
                        Some(s)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        best
    }

    /// Remove a matched message and recycle its slot.
    fn consume(&mut self, slot: u32) -> Message {
        let msg = self.slots[slot as usize];
        let key = (msg.src_rank, msg.tag);
        if let Some(i) = self.live_queues().iter().position(|(k, _)| *k == key) {
            let q = &mut self.queues[i].1;
            if let Some(pos) = q.iter().position(|&s| s == slot) {
                q.remove(pos);
            }
            if q.is_empty() {
                self.live -= 1;
                self.queues.swap(i, self.live);
            }
        }
        self.free.push(slot);
        msg
    }
}

#[derive(Debug, Clone, Copy)]
struct DepInfo {
    src_rank: usize,
    src_vertex: VertexId,
    tag: i64,
    bytes: u64,
}

#[derive(Debug, Clone, Copy)]
enum Request {
    RecvPending { src: i64, tag: i64, posted: f64 },
    SendPending,
    Complete { t: f64, dep: Option<DepInfo> },
}

/// One rank's live requests, indexed by id. Ids are handed out 1, 2,
/// 3, … and the live ones lie in the window `[base, base + len)`: slot
/// `i` holds request `base + i`, or `None` once it was retired. After a
/// retirement [`trim`](Requests::trim) drops freed slots off the front,
/// so the window starts at the oldest live request and ends at the
/// newest. An id outside the window, or a freed slot, is unknown.
///
/// A blocking operation's request is retired before its rank runs on,
/// so whenever a rank reaches an MPI call, its live requests are exactly
/// its un-waited `isend`s and `irecv`s, in post order: what `waitall`
/// covers.
#[derive(Debug)]
struct Requests {
    /// Id of `slots[0]`; with `slots` empty, the next id to hand out.
    base: i64,
    slots: VecDeque<Option<Request>>,
}

impl Requests {
    fn new() -> Requests {
        Requests {
            base: 1,
            slots: VecDeque::new(),
        }
    }

    /// Store `req` under the next id and return the id.
    #[inline]
    fn push(&mut self, req: Request) -> i64 {
        self.slots.push_back(Some(req));
        self.base + self.slots.len() as i64 - 1
    }

    #[inline]
    fn index(&self, id: i64) -> Option<usize> {
        let i = usize::try_from(id.checked_sub(self.base)?).ok()?;
        (i < self.slots.len()).then_some(i)
    }

    #[inline]
    fn get(&self, id: i64) -> Option<&Request> {
        self.slots[self.index(id)?].as_ref()
    }

    #[inline]
    fn get_mut(&mut self, id: i64) -> Option<&mut Request> {
        let i = self.index(id)?;
        self.slots[i].as_mut()
    }

    /// Drop freed slots off the front of the window.
    #[inline]
    fn trim(&mut self) {
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
    }

    /// Ids of the live requests, in post order.
    fn live_ids(&self) -> Vec<i64> {
        (self.base..)
            .zip(&self.slots)
            .filter_map(|(id, slot)| slot.map(|_| id))
            .collect()
    }
}

/// Which requests a blocked operation waits on. `AllOutstanding` lets
/// `waitall` (and the quiescence re-checks) cover the rank's whole
/// request window instead of cloning an id vector per wait — sound
/// because a blocked rank cannot post new requests.
#[derive(Debug, Clone, Copy)]
enum ReqWait {
    /// A single request (blocking recv, sendrecv, `wait`).
    One(i64),
    /// Every live request of the rank: its un-waited non-blocking
    /// requests (`waitall`).
    AllOutstanding,
}

#[derive(Debug, Clone, Copy)]
enum Blocked {
    /// Waiting until the covered requests complete (covers blocking
    /// recv, sendrecv, wait, waitall).
    OnRequests {
        reqs: ReqWait,
        kind: MpiKind,
        vertex: VertexId,
        enter: f64,
        ready: f64,
    },
    /// Rendezvous blocking send waiting for its receiver.
    RdvSend {
        kind: MpiKind,
        vertex: VertexId,
        enter: f64,
    },
    /// Arrived at a collective, waiting for the others.
    Collective { seq: u64, enter: f64 },
}

#[derive(Debug, Clone, Copy)]
enum Status {
    Running,
    Blocked(Blocked),
    Done,
}

#[derive(Debug, Clone, Copy)]
struct CollArrival {
    arrive: f64,
    vertex: VertexId,
    kind: MpiKind,
    bytes: u64,
    root: i64,
}

#[derive(Debug)]
struct CollInstance {
    /// Indexed by rank; dense so completion never iterates a hash map.
    arrivals: Vec<Option<CollArrival>>,
    arrived: usize,
}

impl CollInstance {
    fn new(nprocs: usize) -> CollInstance {
        CollInstance {
            arrivals: vec![None; nprocs],
            arrived: 0,
        }
    }
}

/// A set of ranks, iterated in ascending order: the quiescence phase's
/// worklist.
#[derive(Debug)]
struct RankSet(Vec<u64>);

impl RankSet {
    fn new(nprocs: usize) -> RankSet {
        RankSet(vec![0; nprocs.div_ceil(64)])
    }

    #[inline]
    fn insert(&mut self, r: usize) {
        self.0[r / 64] |= 1 << (r % 64);
    }

    /// Remove and return the smallest rank of the set.
    fn pop_first(&mut self) -> Option<usize> {
        let (i, word) = self.0.iter_mut().enumerate().find(|(_, w)| **w != 0)?;
        let bit = word.trailing_zeros() as usize;
        *word &= *word - 1;
        Some(i * 64 + bit)
    }
}

struct Engine<'p, 'g, 'h, H: Hook + ?Sized> {
    psg: &'g Psg,
    /// Dense `(ctx, stmt)` attribution snapshot of `psg`.
    attr: AttrIndex,
    config: SimConfig,
    hook: &'h mut H,
    ranks: Vec<RankState<'p>>,
    status: Vec<Status>,
    runnable: VecDeque<usize>,
    mailboxes: Vec<Mailbox>,
    send_seq: Vec<u64>,
    requests: Vec<Requests>,
    /// Pending receive requests per rank, in post order.
    recv_order: Vec<VecDeque<i64>>,
    coll_seq: Vec<u64>,
    collectives: FxHashMap<u64, CollInstance>,
    /// Ranks whose mailbox got a deposit or whose receive queue got a
    /// post since the quiescence phase last matched their receives.
    recv_changed: RankSet,
    /// Ranks one of whose requests completed since the quiescence phase
    /// last re-checked their blocked wait.
    req_completed: RankSet,
}

enum MpiOutcome {
    Completed,
    BlockedNow,
}

impl<'p, 'g, 'h, H: Hook + ?Sized> Engine<'p, 'g, 'h, H> {
    fn new(
        program: &'p Lowered,
        params: &'p [i64],
        psg: &'g Psg,
        attr: AttrIndex,
        config: SimConfig,
        hook: &'h mut H,
    ) -> Self {
        let n = config.nprocs;
        let ranks = (0..n)
            .map(|r| {
                let run = Run {
                    rank: r as i64,
                    nprocs: n as i64,
                    params,
                };
                RankState::new(
                    program,
                    run,
                    psg,
                    &config.machine,
                    config.max_steps_per_rank,
                )
            })
            .collect();
        Engine {
            psg,
            attr,
            config,
            hook,
            ranks,
            status: vec![Status::Running; n],
            runnable: (0..n).collect(),
            mailboxes: (0..n).map(|_| Mailbox::default()).collect(),
            send_seq: vec![0; n],
            requests: (0..n).map(|_| Requests::new()).collect(),
            recv_order: vec![VecDeque::new(); n],
            coll_seq: vec![0; n],
            collectives: FxHashMap::default(),
            recv_changed: RankSet::new(n),
            req_completed: RankSet::new(n),
        }
    }

    fn run(mut self) -> Result<SimResult, SimError> {
        self.hook.on_run_start(self.config.nprocs);
        loop {
            // Phase 1: drain runnable ranks.
            while let Some(r) = self.runnable.pop_front() {
                if !matches!(self.status[r], Status::Running) {
                    continue;
                }
                self.run_rank(r)?;
            }
            // Phase 2: quiescence matching.
            let mut progress = false;
            progress |= self.complete_collectives()?;
            progress |= self.match_phase();
            if !progress {
                if self.status.iter().all(|s| matches!(s, Status::Done)) {
                    break;
                }
                return Err(SimError::Deadlock {
                    detail: self.deadlock_detail(),
                });
            }
        }
        let rank_elapsed: Vec<f64> = self.ranks.iter().map(|r| r.clock).collect();
        self.hook.on_run_end(&rank_elapsed);
        Ok(SimResult {
            nprocs: self.config.nprocs,
            rank_elapsed,
            rank_pmu: self.ranks.iter().map(|r| r.pmu).collect(),
        })
    }

    fn deadlock_detail(&self) -> String {
        let mut lines = Vec::new();
        for (r, s) in self.status.iter().enumerate() {
            let desc = match s {
                Status::Running => continue,
                Status::Done => continue,
                Status::Blocked(Blocked::OnRequests { kind, reqs, .. }) => {
                    let what = match reqs {
                        ReqWait::One(id) => format!("request {id}"),
                        ReqWait::AllOutstanding => {
                            format!("requests {:?}", self.requests[r].live_ids())
                        }
                    };
                    format!("rank {r}: blocked in {} on {what}", kind.mpi_name())
                }
                Status::Blocked(Blocked::RdvSend { .. }) => {
                    format!("rank {r}: blocked in rendezvous send")
                }
                Status::Blocked(Blocked::Collective { seq, .. }) => {
                    format!("rank {r}: blocked in collective #{seq}")
                }
            };
            lines.push(desc);
            if lines.len() >= 8 {
                lines.push("...".to_string());
                break;
            }
        }
        lines.join("; ")
    }

    fn step_ctx(&mut self) -> (&mut Vec<RankState<'p>>, StepCtx<'_, H>) {
        let ctx = StepCtx {
            psg: self.psg,
            attr: &self.attr,
            machine: &self.config.machine,
            hook: self.hook,
            costs: self.config.costs,
        };
        (&mut self.ranks, ctx)
    }

    fn run_rank(&mut self, r: usize) -> Result<(), SimError> {
        loop {
            let outcome = {
                let (ranks, mut ctx) = self.step_ctx();
                ranks[r].step(&mut ctx)
            };
            match outcome {
                StepOutcome::Done => {
                    self.status[r] = Status::Done;
                    return Ok(());
                }
                StepOutcome::BudgetExhausted => return Err(SimError::StepLimit { rank: r }),
                StepOutcome::Mpi(call) => match self.handle_mpi(r, call)? {
                    MpiOutcome::Completed => continue,
                    MpiOutcome::BlockedNow => return Ok(()),
                },
            }
        }
    }

    fn wake(&mut self, r: usize) {
        self.status[r] = Status::Running;
        self.runnable.push_back(r);
    }

    fn validate_rank(&self, r: usize, op: &'static str, value: i64) -> Result<usize, SimError> {
        if value >= 0 && (value as usize) < self.config.nprocs {
            Ok(value as usize)
        } else {
            Err(SimError::InvalidRank { rank: r, op, value })
        }
    }

    /// Queue a posted receive request behind rank `r`'s earlier ones.
    fn post_recv(&mut self, r: usize, req: i64) {
        self.recv_order[r].push_back(req);
        self.recv_changed.insert(r);
    }

    fn alloc_req(&mut self, r: usize, req: Request) -> i64 {
        self.requests[r].push(req)
    }

    fn enter_event(&mut self, r: usize, call: &MpiCall) -> f64 {
        let (dst, src, tag, bytes) = match &call.op {
            EvaluatedOp::Send { dst, tag, bytes }
            | EvaluatedOp::Isend {
                dst, tag, bytes, ..
            } => (Some(*dst), None, Some(*tag), Some(*bytes)),
            EvaluatedOp::Recv { src, tag } | EvaluatedOp::Irecv { src, tag, .. } => {
                (None, Some(*src), Some(*tag), None)
            }
            EvaluatedOp::Sendrecv {
                dst, sendtag, src, ..
            } => (Some(*dst), Some(*src), Some(*sendtag), None),
            EvaluatedOp::Wait { .. } | EvaluatedOp::Waitall => (None, None, None, None),
            EvaluatedOp::Collective { root, bytes } => (Some(*root), None, None, Some(*bytes)),
        };
        let ev = MpiEnterEvent {
            rank: r,
            vertex: call.vertex,
            kind: call.kind,
            dst,
            src,
            tag,
            bytes,
            time: self.ranks[r].clock,
        };
        let cost = self.hook.on_mpi_enter(&ev);
        self.ranks[r].clock += cost;
        self.ranks[r].clock
    }

    fn exit_event(&mut self, r: usize, vertex: VertexId, kind: MpiKind, enter: f64, wait: f64) {
        let now = self.ranks[r].clock;
        let ev = MpiExitEvent {
            rank: r,
            vertex,
            kind,
            time: now,
            elapsed: now - enter,
            wait_time: wait,
        };
        let cost = self.hook.on_mpi_exit(&ev);
        self.ranks[r].clock += cost;
    }

    #[allow(clippy::too_many_arguments)] // protocol parameters are clearest flat
    fn deposit(
        &mut self,
        src: usize,
        dst: usize,
        src_vertex: VertexId,
        tag: i64,
        bytes: u64,
        send_time: f64,
        rendezvous: bool,
        rdv_sender: Option<(usize, Option<i64>)>,
    ) {
        let seq = self.send_seq[src];
        self.send_seq[src] += 1;
        let arrival = send_time + self.config.machine.transfer_seconds(bytes);
        self.recv_changed.insert(dst);
        self.mailboxes[dst].deposit(Message {
            src_rank: src,
            src_vertex,
            tag,
            bytes,
            send_time,
            send_seq: seq,
            arrival,
            rendezvous,
            rdv_sender,
            deposit_seq: 0, // assigned by the mailbox
        });
    }

    fn handle_mpi(&mut self, r: usize, call: MpiCall) -> Result<MpiOutcome, SimError> {
        let enter = self.enter_event(r, &call);
        let o = self.config.machine.mpi_overhead;
        let bw = self.config.machine.net_bandwidth;
        match call.op {
            EvaluatedOp::Send { dst, tag, bytes } => {
                let dst = self.validate_rank(r, "send", dst)?;
                let send_time = enter + o;
                if self.config.machine.is_eager(bytes) {
                    self.deposit(r, dst, call.vertex, tag, bytes, send_time, false, None);
                    self.ranks[r].clock = send_time + bytes as f64 / bw;
                    self.exit_event(r, call.vertex, call.kind, enter, 0.0);
                    Ok(MpiOutcome::Completed)
                } else {
                    self.deposit(
                        r,
                        dst,
                        call.vertex,
                        tag,
                        bytes,
                        send_time,
                        true,
                        Some((r, None)),
                    );
                    self.ranks[r].clock = send_time;
                    self.status[r] = Status::Blocked(Blocked::RdvSend {
                        kind: call.kind,
                        vertex: call.vertex,
                        enter,
                    });
                    Ok(MpiOutcome::BlockedNow)
                }
            }
            EvaluatedOp::Isend {
                dst,
                tag,
                bytes,
                req_slot,
            } => {
                let dst = self.validate_rank(r, "isend", dst)?;
                let send_time = enter + o;
                let req = if self.config.machine.is_eager(bytes) {
                    let local_done = send_time + bytes as f64 / bw;
                    self.deposit(r, dst, call.vertex, tag, bytes, send_time, false, None);
                    self.alloc_req(
                        r,
                        Request::Complete {
                            t: local_done,
                            dep: None,
                        },
                    )
                } else {
                    let id = self.alloc_req(r, Request::SendPending);
                    self.deposit(
                        r,
                        dst,
                        call.vertex,
                        tag,
                        bytes,
                        send_time,
                        true,
                        Some((r, Some(id))),
                    );
                    id
                };
                self.ranks[r].set_slot(req_slot, Value::Int(req));
                self.ranks[r].clock = send_time;
                self.exit_event(r, call.vertex, call.kind, enter, 0.0);
                Ok(MpiOutcome::Completed)
            }
            EvaluatedOp::Irecv { src, tag, req_slot } => {
                if src >= 0 {
                    self.validate_rank(r, "irecv", src)?;
                }
                let posted = enter + o;
                let req = self.alloc_req(r, Request::RecvPending { src, tag, posted });
                self.post_recv(r, req);
                self.ranks[r].set_slot(req_slot, Value::Int(req));
                self.ranks[r].clock = posted;
                self.exit_event(r, call.vertex, call.kind, enter, 0.0);
                Ok(MpiOutcome::Completed)
            }
            EvaluatedOp::Recv { src, tag } => {
                if src >= 0 {
                    self.validate_rank(r, "recv", src)?;
                }
                let posted = enter + o;
                self.ranks[r].clock = posted;
                let req = self.alloc_req(r, Request::RecvPending { src, tag, posted });
                self.post_recv(r, req);
                self.match_rank_recvs(r, false);
                self.finish_or_block(r, ReqWait::One(req), call.kind, call.vertex, enter, posted)
            }
            EvaluatedOp::Sendrecv {
                dst,
                sendtag,
                src,
                recvtag,
                bytes,
            } => {
                let dst = self.validate_rank(r, "sendrecv", dst)?;
                if src >= 0 {
                    self.validate_rank(r, "sendrecv", src)?;
                }
                let send_time = enter + o;
                // Sendrecv is deadlock-free: the send half is buffered.
                self.deposit(r, dst, call.vertex, sendtag, bytes, send_time, false, None);
                let posted = send_time + bytes as f64 / bw;
                self.ranks[r].clock = posted;
                let req = self.alloc_req(
                    r,
                    Request::RecvPending {
                        src,
                        tag: recvtag,
                        posted,
                    },
                );
                self.post_recv(r, req);
                self.match_rank_recvs(r, false);
                self.finish_or_block(r, ReqWait::One(req), call.kind, call.vertex, enter, posted)
            }
            EvaluatedOp::Wait { req } => {
                let posted = enter + o;
                self.ranks[r].clock = posted;
                if self.requests[r].get(req).is_none() {
                    return Err(SimError::UnknownRequest { rank: r, req });
                }
                self.match_rank_recvs(r, false);
                self.finish_or_block(r, ReqWait::One(req), call.kind, call.vertex, enter, posted)
            }
            EvaluatedOp::Waitall => {
                let posted = enter + o;
                self.ranks[r].clock = posted;
                if self.requests[r].slots.is_empty() {
                    self.exit_event(r, call.vertex, call.kind, enter, 0.0);
                    return Ok(MpiOutcome::Completed);
                }
                self.match_rank_recvs(r, false);
                self.finish_or_block(
                    r,
                    ReqWait::AllOutstanding,
                    call.kind,
                    call.vertex,
                    enter,
                    posted,
                )
            }
            EvaluatedOp::Collective { root, bytes } => {
                if matches!(call.kind, MpiKind::Bcast | MpiKind::Reduce) {
                    self.validate_rank(r, "collective root", root)?;
                }
                let arrive = enter + o;
                self.ranks[r].clock = arrive;
                let seq = self.coll_seq[r];
                self.coll_seq[r] += 1;
                let n = self.config.nprocs;
                let inst = self
                    .collectives
                    .entry(seq)
                    .or_insert_with(|| CollInstance::new(n));
                if inst.arrivals[r].is_none() {
                    inst.arrived += 1;
                }
                inst.arrivals[r] = Some(CollArrival {
                    arrive,
                    vertex: call.vertex,
                    kind: call.kind,
                    bytes,
                    root,
                });
                self.status[r] = Status::Blocked(Blocked::Collective { seq, enter });
                Ok(MpiOutcome::BlockedNow)
            }
        }
    }

    /// If the covered requests are all complete, finish the operation
    /// now; otherwise block on them.
    fn finish_or_block(
        &mut self,
        r: usize,
        reqs: ReqWait,
        kind: MpiKind,
        vertex: VertexId,
        enter: f64,
        ready: f64,
    ) -> Result<MpiOutcome, SimError> {
        if self.requests_complete(r, reqs) {
            self.complete_on_requests(r, reqs, kind, vertex, enter, ready);
            Ok(MpiOutcome::Completed)
        } else {
            self.status[r] = Status::Blocked(Blocked::OnRequests {
                reqs,
                kind,
                vertex,
                enter,
                ready,
            });
            Ok(MpiOutcome::BlockedNow)
        }
    }

    fn requests_complete(&self, r: usize, reqs: ReqWait) -> bool {
        let complete = |req: &Request| matches!(req, Request::Complete { .. });
        match reqs {
            ReqWait::One(id) => self.requests[r].get(id).is_some_and(complete),
            ReqWait::AllOutstanding => self.requests[r].slots.iter().flatten().all(complete),
        }
    }

    /// All covered requests complete: advance the clock, emit dependence
    /// and exit events, retire the requests.
    fn complete_on_requests(
        &mut self,
        r: usize,
        reqs: ReqWait,
        kind: MpiKind,
        vertex: VertexId,
        enter: f64,
        ready: f64,
    ) {
        // The covered slots of the rank's window, in post order.
        let covered = match reqs {
            ReqWait::One(id) => {
                let i = self.requests[r].index(id).expect("a complete request");
                i..i + 1
            }
            ReqWait::AllOutstanding => 0..self.requests[r].slots.len(),
        };
        let mut done = ready;
        for i in covered.clone() {
            if let Some(Request::Complete { t, .. }) = self.requests[r].slots[i] {
                done = done.max(t);
            }
        }
        self.ranks[r].clock = self.ranks[r].clock.max(done);
        let waited = (done - ready).max(0.0);
        // Emit one dependence edge per request that carried a message.
        for i in covered {
            if let Some(Request::Complete { t, dep: Some(dep) }) = self.requests[r].slots[i].take()
            {
                let ev = CommDepEvent {
                    src_rank: dep.src_rank,
                    src_vertex: dep.src_vertex,
                    dst_rank: r,
                    dst_vertex: vertex,
                    tag: dep.tag,
                    bytes: dep.bytes,
                    wait_time: (t - ready).max(0.0),
                    time: self.ranks[r].clock,
                };
                let cost = self.hook.on_comm_dep(&ev);
                self.ranks[r].clock += cost;
            }
        }
        self.requests[r].trim();
        self.exit_event(r, vertex, kind, enter, waited);
    }

    /// Match rank `r`'s pending receives against its mailbox, in post
    /// order. Wildcard receives only match at quiescence.
    fn match_rank_recvs(&mut self, r: usize, at_quiescence: bool) -> bool {
        let mut progressed = false;
        #[allow(clippy::while_let_loop)] // the loop has three exits; keep them explicit
        loop {
            let Some(&req_id) = self.recv_order[r].front() else {
                break;
            };
            let Some(&Request::RecvPending { src, tag, posted }) = self.requests[r].get(req_id)
            else {
                // Stale entry; drop it.
                self.recv_order[r].pop_front();
                continue;
            };
            let wildcard = src < 0 || tag < 0;
            if wildcard && !at_quiescence {
                break;
            }
            let Some(slot) = self.mailboxes[r].find_match(src, tag) else {
                break;
            };
            let msg = self.mailboxes[r].consume(slot);
            let t = if msg.rendezvous {
                // Transfer starts when both sides are ready.
                let start = msg.send_time.max(posted);
                let finish = start + self.config.machine.transfer_seconds(msg.bytes);
                if let Some((sender, sreq)) = msg.rdv_sender {
                    self.release_rdv_sender(sender, sreq, finish);
                }
                finish
            } else {
                msg.arrival.max(posted)
            };
            self.req_completed.insert(r);
            *self.requests[r].get_mut(req_id).expect("pending receive") = Request::Complete {
                t,
                dep: Some(DepInfo {
                    src_rank: msg.src_rank,
                    src_vertex: msg.src_vertex,
                    tag: msg.tag,
                    bytes: msg.bytes,
                }),
            };
            self.recv_order[r].pop_front();
            progressed = true;
        }
        progressed
    }

    fn release_rdv_sender(&mut self, sender: usize, sreq: Option<i64>, finish: f64) {
        match sreq {
            Some(id) => {
                self.req_completed.insert(sender);
                // Nothing frees a send request before it completes.
                *self.requests[sender].get_mut(id).expect("pending send") = Request::Complete {
                    t: finish,
                    dep: None,
                };
            }
            None => {
                if let Status::Blocked(Blocked::RdvSend {
                    kind,
                    vertex,
                    enter,
                }) = self.status[sender]
                {
                    let before = self.ranks[sender].clock;
                    self.ranks[sender].clock = before.max(finish);
                    let wait = (finish - before).max(0.0);
                    self.exit_event(sender, vertex, kind, enter, wait);
                    self.wake(sender);
                }
            }
        }
    }

    /// Quiescence matching: receives (incl. wildcards), then blocked
    /// request waits, each over the ranks marked for it (module docs).
    /// Neither loop marks a rank for its own set, so each visits its
    /// ranks in ascending order; the receive loop's completions are
    /// marked in time for the wait loop.
    fn match_phase(&mut self) -> bool {
        let mut progress = false;
        while let Some(r) = self.recv_changed.pop_first() {
            progress |= self.match_rank_recvs(r, true);
        }
        while let Some(r) = self.req_completed.pop_first() {
            let Status::Blocked(Blocked::OnRequests {
                reqs,
                kind,
                vertex,
                enter,
                ready,
            }) = self.status[r]
            else {
                continue;
            };
            if self.requests_complete(r, reqs) {
                self.complete_on_requests(r, reqs, kind, vertex, enter, ready);
                self.wake(r);
                progress = true;
            }
        }
        progress
    }

    /// Complete every collective instance whose participants all arrived.
    fn complete_collectives(&mut self) -> Result<bool, SimError> {
        let mut ready: Vec<u64> = self
            .collectives
            .iter()
            .filter(|(_, inst)| inst.arrived == self.config.nprocs)
            .map(|(seq, _)| *seq)
            .collect();
        ready.sort_unstable();
        let mut progress = false;
        for seq in ready {
            self.complete_collective(seq)?;
            progress = true;
        }
        Ok(progress)
    }

    fn complete_collective(&mut self, seq: u64) -> Result<(), SimError> {
        let inst = self.collectives.remove(&seq).expect("instance exists");
        let n = self.config.nprocs;
        let arrival = |r: usize| inst.arrivals[r].as_ref().expect("all ranks arrived");
        // Validate agreement on the operation kind.
        let kind0 = arrival(0).kind;
        for (r, a) in inst.arrivals.iter().enumerate() {
            let a = a.as_ref().expect("all ranks arrived");
            if a.kind != kind0 {
                return Err(SimError::CollectiveMismatch {
                    detail: format!(
                        "collective #{seq}: rank 0 called {}, rank {r} called {}",
                        kind0.mpi_name(),
                        a.kind.mpi_name()
                    ),
                });
            }
        }
        let bytes = inst
            .arrivals
            .iter()
            .flatten()
            .map(|a| a.bytes)
            .max()
            .unwrap_or(0);
        let root = arrival(0).root;
        let max_arrival = inst
            .arrivals
            .iter()
            .flatten()
            .map(|a| a.arrive)
            .fold(0.0, f64::max);
        // Latest arrival; ties go to the larger rank (historical order).
        let mut straggler = 0usize;
        for r in 1..n {
            if arrival(r).arrive >= arrival(straggler).arrive {
                straggler = r;
            }
        }

        let model = match kind0 {
            MpiKind::Barrier => CollectiveModel::Barrier,
            MpiKind::Bcast => CollectiveModel::Bcast,
            MpiKind::Reduce => CollectiveModel::Reduce,
            MpiKind::Allreduce => CollectiveModel::Allreduce,
            MpiKind::Alltoall => CollectiveModel::Alltoall,
            MpiKind::Allgather => CollectiveModel::Allgather,
            other => {
                return Err(SimError::CollectiveMismatch {
                    detail: format!("non-collective {} in collective slot", other.mpi_name()),
                })
            }
        };
        let cost = self.config.machine.collective_seconds(model, n, bytes);
        let o = self.config.machine.mpi_overhead;
        let root_arrive = inst
            .arrivals
            .get(root.max(0) as usize)
            .and_then(|a| a.as_ref())
            .map(|a| a.arrive)
            .unwrap_or(max_arrival);

        for r in 0..n {
            let a = *arrival(r);
            let release = match kind0 {
                MpiKind::Bcast => {
                    if r as i64 == root {
                        a.arrive + o
                    } else {
                        a.arrive.max(root_arrive + cost)
                    }
                }
                MpiKind::Reduce => {
                    if r as i64 == root {
                        max_arrival + cost
                    } else {
                        a.arrive + o
                    }
                }
                _ => max_arrival + cost,
            };
            let wait = (release - a.arrive).max(0.0);
            self.ranks[r].clock = release;
            // Straggler → waiter dependence edges let detection see who
            // delayed a collective.
            if r != straggler && wait > 0.0 {
                let sv = arrival(straggler).vertex;
                let ev = CommDepEvent {
                    src_rank: straggler,
                    src_vertex: sv,
                    dst_rank: r,
                    dst_vertex: a.vertex,
                    tag: -1,
                    bytes,
                    wait_time: wait,
                    time: release,
                };
                let c = self.hook.on_comm_dep(&ev);
                self.ranks[r].clock += c;
            }
            let enter = match self.status[r] {
                Status::Blocked(Blocked::Collective { enter, .. }) => enter,
                _ => a.arrive,
            };
            self.exit_event(r, a.vertex, kind0, enter, wait);
            self.wake(r);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hook::CountingHook;
    use scalana_graph::{build_psg, PsgOptions};
    use scalana_lang::parse_program;

    fn run(src: &str, nprocs: usize) -> SimResult {
        let program = parse_program("t.mmpi", src).unwrap();
        let psg = build_psg(&program, &PsgOptions::default());
        Simulation::new(&program, &psg, SimConfig::with_nprocs(nprocs))
            .run()
            .unwrap()
    }

    #[test]
    fn programs_just_inside_the_nesting_bound_run_on_a_default_thread() {
        // The parser's bound must leave every later walk over the tree
        // (lowering, the PSG, simulation, drop) room on a thread's
        // default 2 MiB stack, in unoptimised builds too.
        let n = scalana_lang::parser::MAX_DEPTH as usize - 6;
        let sources = [
            format!(
                "fn main() {{ {} comp(cycles = 1); {} }}",
                "if 1 { ".repeat(n),
                "} ".repeat(n)
            ),
            format!(
                "fn main() {{ comp(cycles = {}1{}); }}",
                "(".repeat(n),
                ")".repeat(n)
            ),
            format!("fn main() {{ comp(cycles = 1{}); }}", " + 1".repeat(n)),
            // Loops, and deep expressions inside one, go through hoisting.
            format!(
                "fn main() {{ {} comp(cycles = i * 2); {} }}",
                "for i in 0 .. 1 { ".repeat(n),
                "} ".repeat(n)
            ),
            format!(
                "fn main() {{ for i in 0 .. 2 {{ comp(cycles = nprocs{} + i); }} }}",
                " + 1".repeat(n)
            ),
            format!(
                "fn main() {{ for i in 0 .. 2 {{ comp(cycles = {}i{}); }} }}",
                "(".repeat(n - 1),
                " * 2 + nprocs)".repeat(n - 1)
            ),
        ];
        std::thread::spawn(move || {
            for src in &sources {
                assert_eq!(run(src, 2).nprocs, 2);
            }
        })
        .join()
        .unwrap();
    }

    fn run_counting(src: &str, nprocs: usize) -> (SimResult, CountingHook) {
        let program = parse_program("t.mmpi", src).unwrap();
        let psg = build_psg(&program, &PsgOptions::default());
        let mut hook = CountingHook::default();
        let result = Simulation::new(&program, &psg, SimConfig::with_nprocs(nprocs))
            .with_hook(&mut hook)
            .run()
            .unwrap();
        (result, hook)
    }

    #[test]
    fn drained_mailbox_queues_are_reused_for_new_pairs() {
        let mut mailbox = Mailbox::default();
        for tag in 0..10_000 {
            mailbox.deposit(Message {
                src_rank: 1,
                src_vertex: 0,
                tag,
                bytes: 8,
                send_time: 0.0,
                send_seq: tag as u64,
                arrival: 0.0,
                rendezvous: false,
                rdv_sender: None,
                deposit_seq: 0,
            });
            let slot = mailbox.find_match(1, tag).expect("just deposited");
            assert_eq!(mailbox.consume(slot).tag, tag);
        }
        assert_eq!(mailbox.queues.len(), 1, "one live pair at a time");
        assert_eq!(mailbox.live, 0, "every queue drained");
        assert_eq!(mailbox.slots.len(), 1);
    }

    #[test]
    fn compute_only_program() {
        let res = run("fn main() { comp(cycles = 2_300_000); }", 4);
        assert_eq!(res.nprocs, 4);
        for t in &res.rank_elapsed {
            assert!(*t >= 0.001, "1ms of compute, got {t}");
        }
    }

    #[test]
    fn ping_pong_blocking() {
        let src = r#"
            fn main() {
                if rank == 0 {
                    send(dst = 1, tag = 5, bytes = 1024);
                    recv(src = 1, tag = 6);
                } else {
                    recv(src = 0, tag = 5);
                    send(dst = 0, tag = 6, bytes = 1024);
                }
            }
        "#;
        let (res, hook) = run_counting(src, 2);
        assert_eq!(hook.comm_deps, 2);
        assert_eq!(hook.mpi_enters, 4);
        assert_eq!(hook.mpi_exits, 4);
        assert!(res.total_time() > 0.0);
    }

    #[test]
    fn ring_sendrecv_all_ranks() {
        let src = r#"
            fn main() {
                for it in 0 .. 5 {
                    sendrecv(dst = (rank + 1) % nprocs,
                             src = (rank + nprocs - 1) % nprocs,
                             sendtag = it, recvtag = it, bytes = 4k);
                }
            }
        "#;
        let (_, hook) = run_counting(src, 8);
        // 5 iterations x 8 ranks, one matched message each.
        assert_eq!(hook.comm_deps, 40);
    }

    #[test]
    fn rendezvous_send_blocks_until_receiver() {
        // 1 MB > eager threshold: sender must wait for the receiver, who
        // is busy computing first.
        let src = r#"
            fn main() {
                if rank == 0 {
                    send(dst = 1, tag = 0, bytes = 1m);
                } else {
                    comp(cycles = 23_000_000); // 10 ms
                    recv(src = 0, tag = 0);
                }
            }
        "#;
        let res = run(src, 2);
        // Sender finishes only after receiver posted (~10ms) + transfer.
        assert!(
            res.rank_elapsed[0] >= 0.01,
            "rendezvous sender waited: {}",
            res.rank_elapsed[0]
        );
    }

    #[test]
    fn eager_send_does_not_block() {
        let src = r#"
            fn main() {
                if rank == 0 {
                    send(dst = 1, tag = 0, bytes = 1024);
                } else {
                    comp(cycles = 23_000_000); // 10 ms
                    recv(src = 0, tag = 0);
                }
            }
        "#;
        let res = run(src, 2);
        assert!(
            res.rank_elapsed[0] < 0.001,
            "eager sender should finish early: {}",
            res.rank_elapsed[0]
        );
    }

    #[test]
    fn nonblocking_pipeline_with_waitall() {
        let src = r#"
            fn main() {
                let right = (rank + 1) % nprocs;
                let left = (rank + nprocs - 1) % nprocs;
                let s = isend(dst = right, tag = 1, bytes = 8k);
                let q = irecv(src = left, tag = 1);
                comp(cycles = 100_000);
                waitall();
            }
        "#;
        let (res, hook) = run_counting(src, 16);
        assert_eq!(hook.comm_deps, 16);
        assert!(res.total_time() > 0.0);
    }

    #[test]
    fn wait_on_single_request() {
        let src = r#"
            fn main() {
                if rank == 0 {
                    let q = irecv(src = 1, tag = 3);
                    comp(cycles = 1000);
                    wait(q);
                } else {
                    send(dst = 0, tag = 3, bytes = 64);
                }
            }
        "#;
        let (_, hook) = run_counting(src, 2);
        assert_eq!(hook.comm_deps, 1);
    }

    #[test]
    fn wildcard_recv_matches_earliest_arrival() {
        // Rank 2 sends later than rank 1; wildcard recv must take rank 1.
        let src = r#"
            fn main() {
                if rank == 0 {
                    recv(src = any, tag = any);
                    recv(src = any, tag = any);
                } else if rank == 1 {
                    send(dst = 0, tag = 7, bytes = 64);
                } else {
                    comp(cycles = 23_000_000);
                    send(dst = 0, tag = 9, bytes = 64);
                }
            }
        "#;
        struct DepOrder(Vec<usize>);
        impl Hook for DepOrder {
            fn on_comm_dep(&mut self, ev: &CommDepEvent) -> f64 {
                self.0.push(ev.src_rank);
                0.0
            }
        }
        let program = parse_program("t.mmpi", src).unwrap();
        let psg = build_psg(&program, &PsgOptions::default());
        let mut hook = DepOrder(Vec::new());
        Simulation::new(&program, &psg, SimConfig::with_nprocs(3))
            .with_hook(&mut hook)
            .run()
            .unwrap();
        assert_eq!(hook.0, vec![1, 2], "earliest arrival must match first");
    }

    #[test]
    fn rendezvous_release_while_blocked_in_waitall_is_rechecked() {
        // Rank 1's receive matches in phase 1 and completes rank 0's
        // rendezvous request while rank 0 is blocked in `waitall`: the
        // release must mark rank 0 for the quiescence re-check.
        let src = r#"
            fn main() {
                if rank == 0 {
                    let s = isend(dst = 1, tag = 0, bytes = 1m);
                    waitall();
                } else {
                    comp(cycles = 23_000_000); // 10 ms
                    recv(src = 0, tag = 0);
                }
            }
        "#;
        let (res, hook) = run_counting(src, 2);
        assert_eq!(hook.comm_deps, 1);
        assert!(
            res.rank_elapsed[0] >= 0.01,
            "waitall ends after the receiver posted: {}",
            res.rank_elapsed[0]
        );
    }

    #[test]
    fn wildcard_recv_sees_a_deposit_made_after_quiescence() {
        // Rank 0 blocks on a wildcard receive whose only candidate rank 1
        // deposits after a quiescence phase (resolving rank 1's own
        // receive) and a computation: the deposit must mark rank 0.
        let src = r#"
            fn main() {
                if rank == 0 {
                    recv(src = any, tag = any);
                } else if rank == 1 {
                    recv(src = 2, tag = 0);
                    comp(cycles = 23_000_000); // 10 ms
                    send(dst = 0, tag = 1, bytes = 64);
                } else {
                    send(dst = 1, tag = 0, bytes = 64);
                }
            }
        "#;
        let (res, hook) = run_counting(src, 3);
        assert_eq!(hook.comm_deps, 2);
        assert!(
            res.rank_elapsed[0] >= 0.01,
            "the wildcard completes after rank 1 computed: {}",
            res.rank_elapsed[0]
        );
    }

    #[test]
    fn collectives_synchronize_all_ranks() {
        let src = r#"
            fn main() {
                comp(cycles = rank * 1_000_000);
                barrier();
                allreduce(bytes = 8);
            }
        "#;
        let res = run(src, 8);
        let t0 = res.rank_elapsed[0];
        for t in &res.rank_elapsed {
            assert!(
                (t - t0).abs() < 1e-6,
                "collective exit times align: {t} vs {t0}"
            );
        }
    }

    #[test]
    fn bcast_root_leaves_early() {
        let src = "fn main() { bcast(root = 0, bytes = 1k); comp(cycles = 1); }";
        let res = run(src, 8);
        assert!(res.rank_elapsed[0] < res.rank_elapsed[1]);
    }

    #[test]
    fn reduce_root_waits_for_all() {
        let src = r#"
            fn main() {
                comp(cycles = rank * 1_000_000);
                reduce(root = 0, bytes = 1k);
            }
        "#;
        let res = run(src, 8);
        // Root must wait for rank 7's arrival.
        assert!(res.rank_elapsed[0] > res.rank_elapsed[1]);
    }

    #[test]
    fn collective_straggler_dep_edges_point_at_late_rank() {
        let src = r#"
            fn main() {
                if rank == 3 { comp(cycles = 23_000_000); }
                allreduce(bytes = 8);
            }
        "#;
        struct Stragglers(Vec<usize>);
        impl Hook for Stragglers {
            fn on_comm_dep(&mut self, ev: &CommDepEvent) -> f64 {
                self.0.push(ev.src_rank);
                0.0
            }
        }
        let program = parse_program("t.mmpi", src).unwrap();
        let psg = build_psg(&program, &PsgOptions::default());
        let mut hook = Stragglers(Vec::new());
        Simulation::new(&program, &psg, SimConfig::with_nprocs(8))
            .with_hook(&mut hook)
            .run()
            .unwrap();
        assert!(!hook.0.is_empty());
        assert!(hook.0.iter().all(|&s| s == 3), "all waits trace to rank 3");
    }

    #[test]
    fn deadlock_is_detected() {
        let src = "fn main() { recv(src = (rank + 1) % nprocs, tag = 0); }";
        let program = parse_program("t.mmpi", src).unwrap();
        let psg = build_psg(&program, &PsgOptions::default());
        let err = Simulation::new(&program, &psg, SimConfig::with_nprocs(2))
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }));
    }

    #[test]
    fn collective_mismatch_is_detected() {
        let src = r#"
            fn main() {
                if rank == 0 { barrier(); } else { allreduce(bytes = 8); }
            }
        "#;
        let program = parse_program("t.mmpi", src).unwrap();
        let psg = build_psg(&program, &PsgOptions::default());
        let err = Simulation::new(&program, &psg, SimConfig::with_nprocs(2))
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::CollectiveMismatch { .. }));
    }

    #[test]
    fn invalid_rank_is_reported() {
        let src = "fn main() { send(dst = nprocs, tag = 0, bytes = 8); }";
        let program = parse_program("t.mmpi", src).unwrap();
        let psg = build_psg(&program, &PsgOptions::default());
        let err = Simulation::new(&program, &psg, SimConfig::with_nprocs(2))
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidRank { .. }));
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let src = r#"
            fn main() {
                for i in 0 .. 10 {
                    comp(cycles = 100_000 + rank * 1000);
                    sendrecv(dst = (rank + 1) % nprocs,
                             src = (rank + nprocs - 1) % nprocs,
                             sendtag = i, recvtag = i, bytes = 2k);
                }
                allreduce(bytes = 8);
            }
        "#;
        let program = parse_program("t.mmpi", src).unwrap();
        let psg = build_psg(&program, &PsgOptions::default());
        let mk = || {
            let mut cfg = SimConfig::with_nprocs(8);
            cfg.machine_mut().noise = crate::machine::NoiseConfig {
                amplitude: 0.05,
                seed: 99,
            };
            cfg
        };
        let a = Simulation::new(&program, &psg, mk()).run().unwrap();
        let b = Simulation::new(&program, &psg, mk()).run().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn send_to_self_works() {
        let src = r#"
            fn main() {
                let q = irecv(src = rank, tag = 1);
                send(dst = rank, tag = 1, bytes = 64);
                wait(q);
            }
        "#;
        let (_, hook) = run_counting(src, 2);
        assert_eq!(hook.comm_deps, 2);
    }

    #[test]
    fn param_overrides_apply() {
        let src = "param N = 1; fn main() { for i in 0 .. N { comp(cycles = 1_000_000); } }";
        let program = parse_program("t.mmpi", src).unwrap();
        let psg = build_psg(&program, &PsgOptions::default());
        let small = Simulation::new(&program, &psg, SimConfig::with_nprocs(1))
            .run()
            .unwrap();
        let big = Simulation::new(
            &program,
            &psg,
            SimConfig::with_nprocs(1).with_param("N", 10),
        )
        .run()
        .unwrap();
        assert!(big.total_time() > 5.0 * small.total_time());
    }

    #[test]
    fn wait_time_reflects_late_sender() {
        let src = r#"
            fn main() {
                if rank == 0 {
                    recv(src = 1, tag = 0);
                } else {
                    comp(cycles = 23_000_000); // 10 ms
                    send(dst = 0, tag = 0, bytes = 8);
                }
            }
        "#;
        struct WaitCap(f64);
        impl Hook for WaitCap {
            fn on_comm_dep(&mut self, ev: &CommDepEvent) -> f64 {
                self.0 = self.0.max(ev.wait_time);
                0.0
            }
        }
        let program = parse_program("t.mmpi", src).unwrap();
        let psg = build_psg(&program, &PsgOptions::default());
        let mut hook = WaitCap(0.0);
        Simulation::new(&program, &psg, SimConfig::with_nprocs(2))
            .with_hook(&mut hook)
            .run()
            .unwrap();
        assert!(hook.0 >= 0.009, "receiver waited ~10ms, saw {}", hook.0);
    }

    #[test]
    fn hook_costs_inflate_runtime() {
        struct Costly;
        impl Hook for Costly {
            fn on_comp(&mut self, _ev: &crate::hook::CompEvent) -> f64 {
                1e-3
            }
        }
        let src = "fn main() { for i in 0 .. 10 { comp(cycles = 1000); } }";
        let program = parse_program("t.mmpi", src).unwrap();
        let psg = build_psg(&program, &PsgOptions::default());
        let base = Simulation::new(&program, &psg, SimConfig::with_nprocs(1))
            .run()
            .unwrap();
        let mut hook = Costly;
        let tooled = Simulation::new(&program, &psg, SimConfig::with_nprocs(1))
            .with_hook(&mut hook)
            .run()
            .unwrap();
        assert!(tooled.total_time() > base.total_time() + 5e-3);
    }

    #[test]
    fn larger_scale_collective_costs_more() {
        let src = "fn main() { for i in 0 .. 50 { allreduce(bytes = 8); } }";
        let t64 = run(src, 64).total_time();
        let t256 = run(src, 256).total_time();
        assert!(t256 > t64, "allreduce chain should slow with scale");
    }

    #[test]
    fn two_thousand_ranks_complete() {
        let src = r#"
            fn main() {
                comp(cycles = 1_000_000 / nprocs);
                allreduce(bytes = 8);
            }
        "#;
        let res = run(src, 2048);
        assert_eq!(res.rank_elapsed.len(), 2048);
    }
}
