//! The closed-loop load generator: [`CLIENTS`] threads, one keep-alive
//! connection each, every thread sending its next job only after the
//! previous one's result arrived. One op is `POST /v1/jobs`, the
//! long-poll wait, and `GET result`, timed as a whole — the same loop
//! for all four `serve_*` workloads; only the job stream differs.

use crate::blocks::{self, Block, BLOCK_SECONDS};
use crate::daemon::parse_body;
use crate::jobs::{Job, JobStream};
use crate::layers::Samples;
use crate::procfs;
use crate::spec::CLIENTS;
use crate::trace::Recorder;
use scalana_api::{paths, Json};
use scalana_service::client::Conn;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Budget of one long-poll wait; far above any job in these workloads.
const WAIT_BUDGET: Duration = Duration::from_secs(60);

/// In a traced pass every this-many-th op also fetches the daemon's own
/// `/v1/jobs/<id>/trace`.
const TRACE_EVERY: u64 = 8;

/// When the loop stops taking new ops.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// At a deadline (ops in flight finish).
    After(Duration),
    /// When op indices reach this value.
    AtOp(u64),
}

pub struct Plan<'a> {
    pub addr: &'a str,
    pub stream: &'a dyn JobStream,
    /// Index of the first op; later windows continue a stream.
    pub first_op: u64,
    pub stop: Stop,
    /// Keep the result bodies of these ops for checking after the window.
    pub keep: &'a [u64],
    /// `serve_hot`: each base job with its warmed result body, in slot
    /// order; every response must equal its job's byte for byte. Empty
    /// elsewhere.
    pub expect: &'a [(Job, Vec<u8>)],
    /// Record spans and per-layer samples (the traced pass).
    pub traced: Option<Instant>,
    /// The process whose CPU time the block sampler reads (the daemon).
    pub cpu_of: u32,
}

/// What one window measured.
pub struct Window {
    /// Op index after the last one taken.
    pub next_op: u64,
    pub attempted: u64,
    pub failed: u64,
    pub wall: Duration,
    /// `(completion, ns since the window started; latency, ms)` of every
    /// succeeded op.
    pub ops: Vec<(u64, f64)>,
    /// The block sampler's marks: `(ns since the window started, CPU ms
    /// of the daemon so far)`, the first at 0.
    pub marks: Vec<(u64, f64)>,
    pub kept: Vec<(u64, Vec<u8>)>,
    /// Client-side layer samples of a traced pass (round trips, codec,
    /// coverage).
    pub samples: Samples,
    pub recorder: Option<Recorder>,
    /// First few failure messages.
    pub errors: Vec<String>,
}

impl Window {
    pub fn succeeded(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Mean throughput over the whole window.
    pub fn ops_per_s(&self) -> f64 {
        self.succeeded() as f64 / self.wall.as_secs_f64()
    }

    pub fn blocks(&self) -> Vec<Block> {
        blocks::cut(&self.ops, &self.marks)
    }
}

struct Timings {
    submit_ns: u64,
    wait_ns: u64,
    result_ns: u64,
    key: String,
    body: Vec<u8>,
}

fn since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// One op on one connection.
fn one_op(conn: &mut Conn, body: &str) -> Result<Timings, String> {
    let t0 = Instant::now();
    let ack = conn.request_full("POST", paths::JOBS, body)?;
    if !(200..300).contains(&ack.code) {
        return Err(format!("submit answered {}", ack.code));
    }
    let key = parse_body(&ack.body)?
        .get("job")
        .and_then(Json::as_str)
        .ok_or("submit response has no `job`")?
        .to_string();
    let submit_ns = since(t0);

    let t1 = Instant::now();
    let status = conn.wait_for_job(&key, WAIT_BUDGET)?;
    let state = status.get("status").and_then(Json::as_str).unwrap_or("");
    if state != "done" {
        let error = status.get("error").and_then(Json::as_str).unwrap_or("");
        return Err(format!("job {key} ended `{state}` {error}"));
    }
    let wait_ns = since(t1);

    let t2 = Instant::now();
    let (code, body) = conn.request_raw("GET", &paths::job_result(&key), "")?;
    if code != 200 {
        return Err(format!("result of {key} answered {code}"));
    }
    Ok(Timings {
        submit_ns,
        wait_ns,
        result_ns: since(t2),
        key,
        body,
    })
}

/// The top-level spans of a job's `/trace` document as `(name, start
/// offset, duration)`, ns.
fn daemon_spans(conn: &mut Conn, key: &str) -> Result<Vec<(String, u64, u64)>, String> {
    let doc = conn.request_json("GET", &paths::job_trace(key), "")?;
    let spans = doc
        .get("spans")
        .and_then(Json::as_array)
        .ok_or("trace has no `spans`")?;
    let field = |span: &Json, key: &str| span.get(key).and_then(Json::as_i64).unwrap_or(0) as u64;
    Ok(spans
        .iter()
        .map(|span| {
            let name = span.get("name").and_then(Json::as_str).unwrap_or("?");
            (
                format!("daemon.{name}"),
                field(span, "start_ns"),
                field(span, "duration_ns"),
            )
        })
        .collect())
}

struct Client<'a> {
    plan: &'a Plan<'a>,
    conn: Conn,
    started: Instant,
    window: Window,
}

impl Client<'_> {
    fn run_op(&mut self, i: u64) {
        let job = self.plan.stream.job(i);
        let traced = self.window.recorder.is_some();
        let encode_started = Instant::now();
        let body = job.body();
        let encode_ns = since(encode_started);

        let op_started = self.window.recorder.as_ref().map(Recorder::now_ns);
        self.window.attempted += 1;
        let outcome = one_op(&mut self.conn, &body).and_then(|t| {
            let warmed = job.slot.and_then(|slot| self.plan.expect.get(slot));
            if warmed.is_some_and(|(_, body)| *body != t.body) {
                return Err(format!(
                    "result of {} differs from the warmed one",
                    job.name
                ));
            }
            Ok(t)
        });
        let t = match outcome {
            Ok(t) => t,
            Err(error) => {
                self.window.failed += 1;
                if self.window.errors.len() < 4 {
                    self.window.errors.push(format!("op {i}: {error}"));
                }
                // A transport error leaves the connection in an unknown
                // state; the next op starts on a fresh one.
                if let Ok(conn) = Conn::connect(self.plan.addr) {
                    self.conn = conn;
                }
                return;
            }
        };
        let latency_ns = t.submit_ns + t.wait_ns + t.result_ns;
        self.window
            .ops
            .push((since(self.started), latency_ns as f64 / 1e6));

        if traced {
            let samples = &mut self.window.samples;
            samples.push("service.submit_rtt_us", t.submit_ns as f64 / 1e3);
            samples.push("service.wait_rtt_us", t.wait_ns as f64 / 1e3);
            samples.push("service.result_rtt_us", t.result_ns as f64 / 1e3);
            samples.push("api.encode_submit_us", encode_ns as f64 / 1e3);
            samples.push("api.result_bytes", t.body.len() as f64);
            let parse_started = Instant::now();
            let parsed = parse_body(&t.body);
            samples.push("api.parse_result_us", since(parse_started) as f64 / 1e3);
            if let Err(error) = parsed {
                self.window.failed += 1;
                self.window.errors.push(format!("op {i}: result: {error}"));
            }
            let trace = i
                .is_multiple_of(TRACE_EVERY)
                .then(|| daemon_spans(&mut self.conn, &t.key).ok())
                .flatten();
            let rec = self.window.recorder.as_mut().expect("traced pass");
            let start = op_started.expect("traced pass");
            let op = rec.push("op", i, None, start, start + latency_ns);
            let mut at = start;
            for (name, ns) in [
                ("service.submit", t.submit_ns),
                ("service.wait", t.wait_ns),
                ("service.result", t.result_ns),
            ] {
                rec.push(name, i, Some(op), at, at + ns);
                at += ns;
            }
            if let Some(spans) = trace {
                // The daemon's clock starts when it read the submission.
                let total: u64 = spans.iter().map(|(_, _, ns)| ns).sum();
                for (name, offset, ns) in spans {
                    rec.push(&name, i, Some(op), start + offset, start + offset + ns);
                }
                samples.push("service.trace_coverage", total as f64 / latency_ns as f64);
            }
        }
        if self.plan.keep.contains(&i) {
            self.window.kept.push((i, t.body));
        }
    }
}

/// Run one window of closed-loop load and merge what the clients saw.
pub fn run(plan: &Plan<'_>) -> Result<Window, String> {
    let next = AtomicU64::new(plan.first_op);
    let done = AtomicBool::new(false);
    let started = Instant::now();
    let take = || -> Option<u64> {
        match plan.stop {
            Stop::After(budget) if started.elapsed() >= budget => None,
            Stop::After(_) => Some(next.fetch_add(1, Ordering::Relaxed)),
            Stop::AtOp(end) => {
                let i = next.fetch_add(1, Ordering::Relaxed);
                (i < end).then_some(i)
            }
        }
    };
    let conns = (0..CLIENTS)
        .map(|_| Conn::connect(plan.addr))
        .collect::<Result<Vec<Conn>, String>>()?;
    let windows: Vec<Window> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .map(|conn| {
                let take = &take;
                scope.spawn(move || {
                    let mut client = Client {
                        plan,
                        conn,
                        started,
                        window: Window {
                            next_op: 0,
                            attempted: 0,
                            failed: 0,
                            wall: Duration::ZERO,
                            ops: Vec::new(),
                            marks: Vec::new(),
                            kept: Vec::new(),
                            samples: Samples::default(),
                            recorder: plan.traced.map(Recorder::new),
                            errors: Vec::new(),
                        },
                    };
                    while let Some(i) = take() {
                        client.run_op(i);
                    }
                    client.window.wall = started.elapsed();
                    client.window
                })
            })
            .collect();
        // The block sampler: a mark every `BLOCK_SECONDS` until the
        // clients are done. It sleeps between marks.
        let sampler = scope.spawn(|| {
            let mark = || {
                (
                    started.elapsed().as_nanos() as u64,
                    procfs::cpu_ms(plan.cpu_of).unwrap_or(0.0),
                )
            };
            let mut marks = Vec::new();
            let block = Duration::from_secs_f64(BLOCK_SECONDS);
            let mut due = Duration::ZERO;
            while !done.load(Ordering::Acquire) {
                let now = started.elapsed();
                if now < due {
                    std::thread::park_timeout(due - now);
                    continue;
                }
                marks.push(mark());
                due += block;
            }
            // A window shorter than a block is one block.
            while marks.len() < 2 {
                marks.push(mark());
            }
            marks
        });
        let mut windows: Vec<Window> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        done.store(true, Ordering::Release);
        sampler.thread().unpark();
        windows[0].marks = sampler.join().expect("sampler thread panicked");
        windows
    });

    let mut merged = windows
        .into_iter()
        .reduce(|mut a, b| {
            a.attempted += b.attempted;
            a.failed += b.failed;
            a.wall = a.wall.max(b.wall);
            a.ops.extend(b.ops);
            a.kept.extend(b.kept);
            a.samples.extend(b.samples);
            a.errors.extend(b.errors);
            match (&mut a.recorder, b.recorder) {
                (Some(into), Some(from)) => into.absorb(from),
                (slot @ None, from) => *slot = from,
                (Some(_), None) => {}
            }
            a
        })
        .expect("at least one client");
    // `AtOp` overshoots the counter by one failed take per client.
    merged.next_op = match plan.stop {
        Stop::After(_) => next.load(Ordering::Relaxed),
        Stop::AtOp(end) => end,
    };
    merged.kept.sort_by_key(|(i, _)| *i);
    Ok(merged)
}
