//! The differential oracles.
//!
//! Each oracle takes a lowered program (or its pretty-printed source)
//! and returns `Err(message)` on a violation. Because generated
//! programs are matched by construction (see [`crate::spec`]), every
//! oracle asserts *equalities and invariants*, not "probably fine":
//!
//! 1. **Determinism** — the full analysis pipeline run twice over the
//!    same program yields byte-identical profile images and detection
//!    reports.
//! 2. **Cross-scale invariants** — at every scale the simulation
//!    terminates (no phantom deadlock), conserves messages (every
//!    point-to-point send is matched by exactly one communication
//!    dependence), balances enter/exit events, and keeps per-rank
//!    clocks finite and monotone.
//! 3. **Cache differential** — submitting a strict subset of scales to
//!    a live daemon and then the full set over real TCP `/v1` yields a
//!    report and per-scale profile images byte-identical to a cold
//!    in-process analysis, with `/stats` per-scale hit/miss deltas
//!    predicted exactly (generalizing `crates/service/tests/overlap.rs`
//!    from one hand-written program to the whole generated corpus).
//! 4. **Wire fuzz** — mutations of the canonical submit JSON must get a
//!    complete HTTP answer: a structured `ApiError` (with `error` and
//!    `code`) for rejections, a well-formed ack (and a job that reaches
//!    a terminal state) for accepts, and a healthy daemon afterwards.
//!    The same bar holds for *torn* writes: a valid submit dribbled in
//!    random fragments, with full exchanges on other connections
//!    between the fragments, must answer exactly like the whole request
//!    at once (the event loop's per-connection parser state cannot
//!    leak, reset, or stall across readiness rounds).
//!    The observability surface is held to the same bar: `/v1/metrics`
//!    always serves a complete Prometheus exposition, and
//!    `/v1/jobs/<id>/trace` answers every mutated id with a structured
//!    error or a decodable trace — never a hang, never a torn response.

use bytes::Bytes;
use proptest::test_runner::TestRng;
use scalana_api::json::{self, Json};
use scalana_api::{paths, SubmitAck, SubmitRequest, TraceResponse, MAX_SCALE};
use scalana_core::{pipeline, ScalAnaConfig};
use scalana_graph::{build_psg, MpiKind, PsgOptions};
use scalana_lang::Program;
use scalana_mpisim::{CommDepEvent, Hook, MpiEnterEvent, MpiExitEvent, SimConfig, Simulation};
use scalana_service::client::Conn;
use scalana_service::jsonify::report_to_json;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// How long a single daemon job may take before the oracle calls it a
/// hang. Generous: CI machines are slow, the programs are tiny.
const JOB_TIMEOUT: Duration = Duration::from_secs(120);

/// Everything a cold (uncached, in-process) analysis produces that the
/// daemon also serves: the rendered report and one profile image per
/// scale, both in final wire encoding so comparisons are byte-exact.
#[derive(Debug, Clone, PartialEq)]
pub struct Cold {
    /// `report_to_json(..).render()` of the assembled analysis.
    pub report: String,
    /// `store::save` image per scale, ascending scale order.
    pub images: Vec<Bytes>,
}

/// Run the full pipeline in-process and capture its wire artifacts.
pub fn cold_analysis(program: &Program, scales: &[usize]) -> Result<Cold, String> {
    let config = ScalAnaConfig::default();
    let runs = pipeline::profile_runs(program, scales, &config)
        .map_err(|e| format!("cold analysis at scales {scales:?} failed to simulate: {e}"))?;
    let images = runs
        .profiles
        .iter()
        .map(scalana_profile::store::save)
        .collect();
    let report = report_to_json(&pipeline::assemble(runs, &config).report).render();
    Ok(Cold { report, images })
}

/// Oracle 1: the pipeline is deterministic — two cold runs of the same
/// program produce byte-identical artifacts. Returns the artifacts for
/// reuse by the daemon oracle.
pub fn check_determinism(program: &Program, scales: &[usize]) -> Result<Cold, String> {
    let first = cold_analysis(program, scales)?;
    let second = cold_analysis(program, scales)?;
    if first.report != second.report {
        return Err(format!(
            "non-deterministic report at scales {scales:?}:\nfirst:  {}\nsecond: {}",
            first.report, second.report
        ));
    }
    for (i, (a, b)) in first.images.iter().zip(&second.images).enumerate() {
        if a != b {
            return Err(format!(
                "non-deterministic profile image for scale {} ({} vs {} bytes)",
                scales[i],
                a.len(),
                b.len()
            ));
        }
    }
    Ok(first)
}

/// Event auditor: counts and sanity-checks the simulator's hook stream.
#[derive(Debug, Default)]
struct Audit {
    enters: u64,
    exits: u64,
    sends: u64,
    p2p_deps: u64,
    last_exit: Vec<f64>,
    violation: Option<String>,
}

impl Audit {
    fn flag(&mut self, message: String) {
        if self.violation.is_none() {
            self.violation = Some(message);
        }
    }
}

impl Hook for Audit {
    fn on_run_start(&mut self, nprocs: usize) {
        self.last_exit = vec![0.0; nprocs];
    }

    fn on_mpi_enter(&mut self, ev: &MpiEnterEvent) -> f64 {
        self.enters += 1;
        if matches!(ev.kind, MpiKind::Send | MpiKind::Isend | MpiKind::Sendrecv) {
            self.sends += 1;
        }
        if !ev.time.is_finite() || ev.time < 0.0 {
            self.flag(format!(
                "rank {} entered {:?} at bad time {}",
                ev.rank, ev.kind, ev.time
            ));
        }
        0.0
    }

    fn on_mpi_exit(&mut self, ev: &MpiExitEvent) -> f64 {
        self.exits += 1;
        if !ev.time.is_finite() || ev.elapsed < 0.0 || ev.wait_time < -1e-9 {
            self.flag(format!(
                "rank {} exited {:?} with bad clocks: time {} elapsed {} wait {}",
                ev.rank, ev.kind, ev.time, ev.elapsed, ev.wait_time
            ));
        }
        if ev.rank < self.last_exit.len() {
            let last = self.last_exit[ev.rank];
            if ev.time + 1e-9 < last {
                self.flag(format!(
                    "rank {} clock ran backwards: {:?} exited at {} after an exit at {}",
                    ev.rank, ev.kind, ev.time, last
                ));
            }
            self.last_exit[ev.rank] = f64::max(last, ev.time);
        }
        0.0
    }

    fn on_comm_dep(&mut self, ev: &CommDepEvent) -> f64 {
        // Collective dependences carry negative sentinel tags; templates
        // allocate point-to-point tags from 10 upward.
        if ev.tag >= 0 {
            self.p2p_deps += 1;
        }
        if ev.wait_time < -1e-9 || !ev.time.is_finite() {
            self.flag(format!(
                "comm dep {} -> {} (tag {}) with bad clocks: wait {} time {}",
                ev.src_rank, ev.dst_rank, ev.tag, ev.wait_time, ev.time
            ));
        }
        0.0
    }
}

/// Oracle 2: at every scale in `scales`, the program terminates,
/// conserves point-to-point messages, balances MPI enter/exit events,
/// and keeps rank clocks sane.
pub fn check_invariants(program: &Program, scales: &[usize]) -> Result<(), String> {
    let psg = build_psg(program, &PsgOptions::default());
    for &nprocs in scales {
        let mut audit = Audit::default();
        let result = Simulation::new(program, &psg, SimConfig::with_nprocs(nprocs))
            .with_hook(&mut audit)
            .run()
            .map_err(|e| {
                format!("matched-by-construction program failed at {nprocs} procs: {e}")
            })?;
        if let Some(violation) = audit.violation {
            return Err(format!("at {nprocs} procs: {violation}"));
        }
        if audit.sends != audit.p2p_deps {
            return Err(format!(
                "message conservation broken at {nprocs} procs: \
                 {} point-to-point sends but {} matched dependences",
                audit.sends, audit.p2p_deps
            ));
        }
        if audit.enters != audit.exits {
            return Err(format!(
                "unbalanced MPI events at {nprocs} procs: {} enters, {} exits",
                audit.enters, audit.exits
            ));
        }
        for (rank, &t) in result.rank_elapsed.iter().enumerate() {
            if !t.is_finite() || t < 0.0 {
                return Err(format!(
                    "rank {rank} finished with bad elapsed time {t} at {nprocs} procs"
                ));
            }
        }
    }
    Ok(())
}

/// Submit `text` over `/v1` and wait for the job to complete. Fails if
/// the daemon rejects the program or the job ends in `failed`.
fn submit_v1(conn: &mut Conn, text: &str, scales: &[usize]) -> Result<SubmitAck, String> {
    let body = SubmitRequest::source("wgen.mmpi", text)
        .with_scales(scales.to_vec())
        .to_json()
        .render();
    let doc = conn
        .request_json("POST", paths::JOBS, &body)
        .map_err(|e| format!("daemon rejected a generated program: {e}"))?;
    let ack = SubmitAck::from_json(&doc)
        .ok_or_else(|| format!("submit ack is not a SubmitAck: {}", doc.render()))?;
    let status = conn
        .wait_for_job(ack.job(), JOB_TIMEOUT)
        .map_err(|e| format!("job {} never finished: {e}", ack.job()))?;
    match status.get("status").and_then(Json::as_str) {
        Some("done") => Ok(ack),
        other => Err(format!(
            "job {} for a generated program ended as {other:?}: {}",
            ack.job(),
            status.render()
        )),
    }
}

fn scale_stats(conn: &mut Conn) -> Result<(i64, i64), String> {
    let stats = conn.request_json("GET", paths::STATS, "")?;
    let get = |k: &str| {
        stats
            .get(k)
            .and_then(Json::as_i64)
            .ok_or_else(|| format!("/stats missing {k}: {}", stats.render()))
    };
    Ok((get("scale_hits")?, get("scale_misses")?))
}

/// Oracle 3: cache differential against a live daemon.
///
/// Submits `subset` (a strict, non-empty subset of `full`), then `full`,
/// over real TCP `/v1`. Asserts the `/stats` per-scale hit/miss deltas
/// exactly — the first submission of a unique program misses every
/// scale; the second hits exactly the overlap when the discovery scale
/// is unchanged and nothing otherwise — and byte-compares the served
/// report and every profile image against the cold artifacts.
///
/// The caller must guarantee the daemon is otherwise quiescent: the
/// stats deltas account the whole daemon.
pub fn check_daemon(
    addr: &str,
    text: &str,
    subset: &[usize],
    full: &[usize],
    cold: &Cold,
) -> Result<(), String> {
    assert!(
        !subset.is_empty() && subset.len() < full.len(),
        "subset must be strict and non-empty"
    );
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect to daemon: {e}"))?;

    let (h0, m0) = scale_stats(&mut conn)?;
    submit_v1(&mut conn, text, subset)?;
    let (h1, m1) = scale_stats(&mut conn)?;
    if (h1 - h0, m1 - m0) != (0, subset.len() as i64) {
        return Err(format!(
            "first submission of a unique program at {subset:?} must miss every scale, \
             got {} hits / {} misses",
            h1 - h0,
            m1 - m0
        ));
    }

    // A strict subset never triggers the whole-job cache; reuse depends
    // only on whether the discovery (smallest) scale is unchanged.
    let (expected_hits, expected_misses) = if subset[0] == full[0] {
        (subset.len() as i64, (full.len() - subset.len()) as i64)
    } else {
        (0, full.len() as i64)
    };
    let ack = submit_v1(&mut conn, text, full)?;
    let (h2, m2) = scale_stats(&mut conn)?;
    if (h2 - h1, m2 - m1) != (expected_hits, expected_misses) {
        return Err(format!(
            "split {subset:?} ⊂ {full:?} predicted {expected_hits} hits / {expected_misses} \
             misses, daemon counted {} / {}",
            h2 - h1,
            m2 - m1
        ));
    }

    let result = conn
        .request_json("GET", &paths::job_result(ack.job()), "")
        .map_err(|e| format!("fetch result: {e}"))?;
    let served = result
        .get("report")
        .ok_or_else(|| format!("result missing report: {}", result.render()))?
        .render();
    if served != cold.report {
        return Err(format!(
            "assembled-from-cache report diverges from cold run (split {subset:?} ⊂ {full:?})\n\
             served: {served}\ncold:   {}",
            cold.report
        ));
    }
    for (&nprocs, expected) in full.iter().zip(&cold.images) {
        let (code, image) = conn
            .request_raw("GET", &paths::job_profile(ack.job(), nprocs), "")
            .map_err(|e| format!("fetch profile at {nprocs}: {e}"))?;
        if code != 200 {
            return Err(format!("profile at scale {nprocs}: status {code}"));
        }
        if image[..] != expected[..] {
            return Err(format!(
                "profile image at scale {nprocs} diverges from cold run \
                 ({} vs {} bytes)",
                image.len(),
                expected.len()
            ));
        }
    }
    Ok(())
}

/// One raw HTTP request with an arbitrary byte body (possibly invalid
/// UTF-8/JSON) on a fresh `Connection: close` socket. Any transport
/// failure — refused connection, reset, read timeout, truncated
/// response — is a finding: the daemon must always answer.
fn raw_request(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
) -> Result<(u16, Vec<u8>), String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("daemon refused connection: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: wgen\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body))
        .map_err(|e| format!("daemon dropped the request mid-write: {e}"))?;

    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("daemon hung or dropped mid-response: {e}"))?;
    parse_response(&raw)
}

/// Split one raw `Connection: close` HTTP response into status code and
/// body, checking the body against the declared `Content-Length`.
fn parse_response(raw: &[u8]) -> Result<(u16, Vec<u8>), String> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| {
            format!(
                "incomplete HTTP response ({} bytes, no header end)",
                raw.len()
            )
        })?;
    let head_text = std::str::from_utf8(&raw[..head_end])
        .map_err(|_| "response head is not UTF-8".to_string())?;
    let status_line = head_text.lines().next().unwrap_or("");
    let code: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("bad status line: {status_line:?}"))?;
    let content_length = head_text
        .lines()
        .skip(1)
        .filter_map(|line| line.split_once(':'))
        .find(|(name, _)| name.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, value)| value.trim().parse::<usize>().ok());
    let response_body = raw[head_end + 4..].to_vec();
    if let Some(expected) = content_length {
        if response_body.len() != expected {
            return Err(format!(
                "truncated response body: {} of {expected} bytes",
                response_body.len()
            ));
        }
    }
    Ok((code, response_body))
}

/// The readiness loop keeps per-connection parser state across rounds:
/// a valid submit dribbled onto one connection in random fragments,
/// with complete request/response exchanges on *other* connections
/// between the fragments, must produce exactly the answer the whole
/// request gets at once — never a hang, a torn response, or bytes bled
/// across connections.
fn check_interleaved_writes(
    addr: &str,
    canonical: &str,
    rng: &mut TestRng,
    rounds: usize,
) -> Result<(), String> {
    let body = canonical.as_bytes();
    let head = format!(
        "POST {} HTTP/1.1\r\nHost: wgen\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        paths::JOBS,
        body.len()
    );
    let mut request = head.into_bytes();
    request.extend_from_slice(body);

    for round in 0..rounds {
        let mut cuts: Vec<usize> = (0..2 + rng.gen_index(3))
            .map(|_| 1 + rng.gen_index(request.len() - 1))
            .collect();
        cuts.sort_unstable();
        cuts.dedup();

        let context = |what: &str| format!("interleave round {round} (cuts {cuts:?}): {what}");
        let mut slow = TcpStream::connect(addr)
            .map_err(|e| context(&format!("daemon refused connection: {e}")))?;
        slow.set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        slow.set_write_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let mut sent = 0;
        for &cut in &cuts {
            slow.write_all(&request[sent..cut])
                .map_err(|e| context(&format!("daemon dropped a fragment: {e}")))?;
            sent = cut;
            // A full exchange on a fresh connection while the slow
            // request sits half-read.
            let (code, _) =
                raw_request(addr, "GET", paths::HEALTHZ, &[]).map_err(|e| context(&e))?;
            if code != 200 {
                return Err(context(&format!(
                    "daemon unhealthy with a half-written request in flight: healthz {code}"
                )));
            }
        }
        slow.write_all(&request[sent..])
            .map_err(|e| context(&format!("daemon dropped the final fragment: {e}")))?;
        let mut raw = Vec::new();
        slow.read_to_end(&mut raw)
            .map_err(|e| context(&format!("daemon hung or dropped mid-response: {e}")))?;
        let (code, response_body) = parse_response(&raw).map_err(|e| context(&e))?;
        if !(200..300).contains(&code) {
            return Err(context(&format!(
                "valid submit answered {code}: {:?}",
                String::from_utf8_lossy(&response_body)
            )));
        }
        let doc = json::parse(&String::from_utf8_lossy(&response_body))
            .map_err(|e| context(&format!("2xx with a non-JSON body: {e:?}")))?;
        let ack =
            SubmitAck::from_json(&doc).ok_or_else(|| context("2xx body is not a SubmitAck"))?;
        let mut conn = Conn::connect(addr).map_err(|e| context(&e.to_string()))?;
        conn.wait_for_job(ack.job(), JOB_TIMEOUT)
            .map_err(|e| context(&format!("dribbled submit never reached terminal: {e}")))?;
    }
    Ok(())
}

/// Derive one mutant of the canonical submit body. The first arms are
/// structured near-misses (wrong types, missing fields, out-of-range
/// scales, invalid UTF-8); the rest are blind byte-level damage.
fn mutate(rng: &mut TestRng, canonical: &str) -> Vec<u8> {
    let bytes = canonical.as_bytes();
    match rng.gen_index(10) {
        // Missing program: rename the `source` key (same length keeps
        // the JSON well-formed, so this exercises request validation).
        0 => canonical
            .replacen("\"source\"", "\"bounce\"", 1)
            .into_bytes(),
        // Wrong type for scales.
        1 => br#"{"name":"wgen.mmpi","source":"fn main() { }","scales":"two"}"#.to_vec(),
        // Scale of zero.
        2 => br#"{"name":"wgen.mmpi","source":"fn main() { }","scales":[0]}"#.to_vec(),
        // Negative scale.
        3 => br#"{"name":"wgen.mmpi","source":"fn main() { }","scales":[-3]}"#.to_vec(),
        // Scale beyond the documented ceiling.
        4 => format!(
            r#"{{"name":"wgen.mmpi","source":"fn main() {{ }}","scales":[{}]}}"#,
            MAX_SCALE + 1
        )
        .into_bytes(),
        // Empty body.
        5 => Vec::new(),
        // Invalid UTF-8 in the middle of the document.
        6 => {
            let mut damaged = bytes.to_vec();
            let at = 1 + rng.gen_index(damaged.len().saturating_sub(1).max(1));
            damaged.insert(at.min(damaged.len()), 0xFF);
            damaged
        }
        // Leading garbage.
        7 => {
            let mut damaged = b"}{".to_vec();
            damaged.extend_from_slice(bytes);
            damaged
        }
        // Truncation at a random point.
        8 => bytes[..1 + rng.gen_index(bytes.len().saturating_sub(1).max(1))].to_vec(),
        // Single byte flipped to a random printable character.
        _ => {
            let mut damaged = bytes.to_vec();
            let at = rng.gen_index(damaged.len().max(1)).min(damaged.len() - 1);
            damaged[at] = 0x20 + (rng.gen_range(0u32..95) as u8);
            damaged
        }
    }
}

/// Derive one job-id mutant for the trace path. Every arm stays within
/// URL-token characters — request-line framing damage is the HTTP
/// layer's concern, not this oracle's — but together they cover the
/// valid id, empty keys, extra path segments, traversal shapes,
/// percent-damage, oversized ids, and plain garbage.
fn mutate_job_id(rng: &mut TestRng, real: &str) -> String {
    match rng.gen_index(8) {
        // The genuine id: the trace must decode, not just answer.
        0 => real.to_string(),
        1 => format!("{real}junk"),
        2 => String::new(),
        3 => "a".repeat(1024),
        4 => format!("{real}/extra"),
        5 => "../../jobs".to_string(),
        6 => "%00%ff%zz".to_string(),
        _ => {
            const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-._~:@";
            let len = 1 + rng.gen_index(24);
            (0..len)
                .map(|_| ALPHABET[rng.gen_index(ALPHABET.len())] as char)
                .collect()
        }
    }
}

/// Oracle 4: wire fuzz. Sends `rounds` mutants of the canonical submit
/// request; the daemon must answer every one with a complete HTTP
/// response — a structured error for rejections, a valid ack (whose job
/// reaches a terminal state) for accepts. The observability surface
/// rides the same contract: `/v1/metrics` must always serve a complete
/// Prometheus exposition, a freshly completed job's trace must decode
/// as a [`TraceResponse`], `rounds` mutated job ids on the trace path
/// must each get a structured error or a decodable trace, and the
/// daemon must be healthy afterwards.
///
/// Accepted mutants are waited to a terminal state so the daemon is
/// quiescent again before the next case measures `/stats` deltas.
pub fn check_wire(
    addr: &str,
    text: &str,
    scales: &[usize],
    rng: &mut TestRng,
    rounds: usize,
) -> Result<(), String> {
    let canonical = SubmitRequest::source("wgen.mmpi", text)
        .with_scales(scales.to_vec())
        .to_json()
        .render();
    for round in 0..rounds {
        let mutant = mutate(rng, &canonical);
        let (code, body) = raw_request(addr, "POST", paths::JOBS, &mutant)
            .map_err(|e| format!("wire round {round}: {e}"))?;
        let body_text = String::from_utf8(body)
            .map_err(|_| format!("wire round {round}: status {code} with a non-UTF-8 body"))?;
        let doc = json::parse(&body_text).map_err(|e| {
            format!("wire round {round}: status {code} with non-JSON body {body_text:?}: {e}")
        })?;
        if (200..300).contains(&code) {
            let ack = SubmitAck::from_json(&doc).ok_or_else(|| {
                format!("wire round {round}: 2xx body is not a SubmitAck: {body_text}")
            })?;
            let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
            conn.wait_for_job(ack.job(), JOB_TIMEOUT).map_err(|e| {
                format!("wire round {round}: accepted mutant never reached a terminal state: {e}")
            })?;
        } else if doc.get("error").is_none() || doc.get("code").is_none() {
            return Err(format!(
                "wire round {round}: status {code} without a structured ApiError: {body_text}"
            ));
        }
    }

    // Half-written requests interleaved with live traffic: the event
    // loop's per-connection parser state must survive readiness rounds
    // that serve other connections in between.
    check_interleaved_writes(addr, &canonical, rng, rounds.min(3))?;

    // The metrics exposition is unconditional: any live daemon serves
    // it, whatever the fuzzing did to its caches and queues.
    let (code, body) = raw_request(addr, "GET", paths::METRICS, &[])
        .map_err(|e| format!("metrics scrape: {e}"))?;
    let metrics_text = String::from_utf8(body)
        .map_err(|_| format!("metrics scrape: status {code} with a non-UTF-8 body"))?;
    if code != 200 || !metrics_text.contains("# TYPE scalana_") {
        return Err(format!(
            "metrics scrape: status {code} without a Prometheus exposition: {metrics_text:?}"
        ));
    }

    // A real terminal job (the canonical program again — cached, so
    // cheap) anchors the trace-path fuzz with a known-good id.
    let mut conn = Conn::connect(addr).map_err(|e| format!("daemon dead after wire fuzz: {e}"))?;
    let ack = submit_v1(&mut conn, text, scales)
        .map_err(|e| format!("canonical resubmission for the trace fuzz: {e}"))?;
    let trace = conn
        .request_json("GET", &paths::job_trace(ack.job()), "")
        .map_err(|e| format!("trace of a completed job: {e}"))?;
    if TraceResponse::from_json(&trace).is_none() {
        return Err(format!(
            "trace of completed job {} does not decode as a TraceResponse: {}",
            ack.job(),
            trace.render()
        ));
    }
    for round in 0..rounds {
        let target = mutate_job_id(rng, ack.job());
        let (code, body) = raw_request(addr, "GET", &paths::job_trace(&target), &[])
            .map_err(|e| format!("trace round {round} (id {target:?}): {e}"))?;
        let body_text = String::from_utf8(body).map_err(|_| {
            format!("trace round {round} (id {target:?}): status {code} with a non-UTF-8 body")
        })?;
        let doc = json::parse(&body_text).map_err(|e| {
            format!(
                "trace round {round} (id {target:?}): status {code} \
                 with non-JSON body {body_text:?}: {e}"
            )
        })?;
        if (200..300).contains(&code) {
            if TraceResponse::from_json(&doc).is_none() {
                return Err(format!(
                    "trace round {round} (id {target:?}): 2xx body is not a TraceResponse: \
                     {body_text}"
                ));
            }
        } else if doc.get("error").is_none() || doc.get("code").is_none() {
            return Err(format!(
                "trace round {round} (id {target:?}): status {code} without a structured \
                 ApiError: {body_text}"
            ));
        }
    }

    let (code, _) = conn
        .request_raw("GET", paths::HEALTHZ, "")
        .map_err(|e| format!("healthz after wire fuzz: {e}"))?;
    if code != 200 {
        return Err(format!("daemon unhealthy after wire fuzz: healthz {code}"));
    }
    Ok(())
}
