//! Tiny blocking HTTP client for the daemon.
//!
//! Used by the `scalana submit`/`status`/`result`/`diff` subcommands,
//! the integration tests, and the benchmark — the same framing code as
//! the server ([`crate::http`]) and the same wire contract
//! ([`scalana_api`]), so both ends agree by construction.
//!
//! [`Conn`] is the primary interface: one TCP connection carrying any
//! number of sequential requests (HTTP/1.1 keep-alive), so a
//! submit → wait → result interaction costs one TCP handshake, not one
//! per round trip. The free functions remain as one-shot conveniences.
//!
//! Waiting for a job uses the server-side long-poll
//! (`GET /v1/jobs/<id>/wait`): the daemon parks the request until the
//! job completes, so the client observes completion at the transition
//! instead of a poll interval later.
//!
//! Comparing two analyses is the client's job: [`Conn::diff`] submits
//! both sides, waits for each, reads both results and calls
//! [`scalana_api::diff::diff`] locally. The daemon only analyses.

use crate::http::{HttpResponse, MessageReader};
use crate::json::{parse, Json};
use scalana_api::diff::{self, DiffSide};
use scalana_api::{paths, ApiError, JobState, ResultView, SubmitAck, SubmitRequest};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Pause before re-issuing a wait after a retryable error that carries
/// no `Retry-After` header.
const FALLBACK_POLL: Duration = Duration::from_millis(1);

/// How long `scalana submit --wait` and [`Conn::diff`] wait for a job.
pub const JOB_WAIT: Duration = Duration::from_secs(600);

/// A persistent client connection to the daemon.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    reader: MessageReader<TcpStream>,
    addr: String,
    /// Cleared when the server announces `Connection: close`.
    alive: bool,
}

impl Conn {
    /// Connect to `addr` with a 60 s read timeout.
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        // Small request/response exchanges; don't let Nagle batch them.
        let _ = stream.set_nodelay(true);
        let reader = MessageReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("cannot clone stream: {e}"))?,
        );
        Ok(Conn {
            stream,
            reader,
            addr: addr.to_string(),
            alive: true,
        })
    }

    /// The daemon address this connection talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Whether the server has announced it will close the connection.
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// One request; returns the full response (status, headers, body).
    /// Reuses the connection; after the server answers
    /// `Connection: close`, further requests fail and the caller should
    /// reconnect.
    pub fn request_full(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<HttpResponse, String> {
        if !self.alive {
            return Err(format!(
                "connection to {} was closed by the server",
                self.addr
            ));
        }
        crate::http::write_request_conn(&self.stream, method, path, body.as_bytes(), true)
            .map_err(|e| format!("request to {} failed: {e}", self.addr))?;
        let response = self
            .reader
            .next_response_full()
            .map_err(|e| format!("response from {} failed: {e}", self.addr))?;
        self.alive = response.keep_alive;
        Ok(response)
    }

    /// One request; returns `(status code, raw body)`.
    pub fn request_raw(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(u16, Vec<u8>), String> {
        let response = self.request_full(method, path, body)?;
        Ok((response.code, response.body))
    }

    /// One request with a UTF-8 body.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(u16, String), String> {
        let (code, bytes) = self.request_raw(method, path, body)?;
        let text = String::from_utf8(bytes).map_err(|_| "response is not UTF-8".to_string())?;
        Ok((code, text))
    }

    /// One request, parsed as JSON; non-2xx responses become errors
    /// carrying the server's `error` message.
    pub fn request_json(&mut self, method: &str, path: &str, body: &str) -> Result<Json, String> {
        let (code, text) = self.request(method, path, body)?;
        let doc = parse(&text).map_err(|e| format!("bad response JSON: {e}"))?;
        if !(200..300).contains(&code) {
            return Err(request_error(method, path, code, &doc));
        }
        Ok(doc)
    }

    /// Wait until the job reaches a terminal state or `timeout`
    /// elapses; returns the final status document.
    ///
    /// Uses the server-side long-poll
    /// ([`paths::job_wait`]): the daemon answers at the completion
    /// transition, so no client-side sleep quantizes the observed
    /// latency, and each round trip covers up to
    /// [`scalana_api::dto::MAX_WAIT_MS`] of waiting. A retryable
    /// structured error is retried after the server's `Retry-After`;
    /// any other error, `unknown_job` included, ends the wait.
    pub fn wait_for_job(&mut self, key: &str, timeout: Duration) -> Result<Json, String> {
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(format!("job {key} still pending after {timeout:?}"));
            }
            let budget_ms = (remaining.as_millis() as u64).clamp(1, scalana_api::dto::MAX_WAIT_MS);
            let path = paths::job_wait(key, budget_ms);
            let response = self.request_full("GET", &path, "")?;
            let backoff = response
                .header("Retry-After")
                .and_then(|v| v.parse::<u64>().ok())
                .map(Duration::from_secs);
            let code = response.code;
            let text = String::from_utf8(response.body)
                .map_err(|_| "response is not UTF-8".to_string())?;
            let doc = parse(&text).map_err(|e| format!("bad response JSON: {e}"))?;
            if (200..300).contains(&code) {
                match doc.get("status").and_then(Json::as_str) {
                    Some(status) if JobState::parse(status).is_some_and(JobState::is_terminal) => {
                        return Ok(doc)
                    }
                    // Non-terminal 200: the server's budget elapsed
                    // first — re-issue with the remaining client budget.
                    Some(_) => continue,
                    None => return Err("status response missing `status`".to_string()),
                }
            }
            // A retryable structured error (`store_degraded` while the
            // daemon runs memory-only, a backpressure shed) is not
            // fatal mid-wait: honor the server's `Retry-After` and
            // re-issue within the remaining budget.
            if ApiError::from_json(&doc).is_some_and(|e| e.retryable) {
                let backoff = backoff.unwrap_or(FALLBACK_POLL);
                std::thread::sleep(backoff.min(deadline.saturating_duration_since(Instant::now())));
                if !self.alive {
                    let addr = self.addr.clone();
                    *self = Conn::connect(&addr)?;
                }
                continue;
            }
            return Err(request_error("GET", &path, code, &doc));
        }
    }

    /// Run (or reuse) two analyses and compare them with
    /// [`scalana_api::diff::diff`].
    ///
    /// Both sides are submitted before either is waited on, so they run
    /// concurrently across the daemon's workers; each goes through the
    /// normal submission path, so every cache tier applies. Each side
    /// then waits up to [`JOB_WAIT`] and its result is read back. Every
    /// error names its side, and side `a` is checked first.
    pub fn diff(&mut self, a: &SubmitRequest, b: &SubmitRequest) -> Result<Json, String> {
        let mut jobs = Vec::with_capacity(2);
        for (label, request) in [("a", a), ("b", b)] {
            let doc = self
                .request_json("POST", paths::JOBS, &request.to_json().render())
                .map_err(|e| format!("side `{label}`: {e}"))?;
            let ack = SubmitAck::from_json(&doc)
                .ok_or_else(|| format!("side `{label}`: bad submit response {}", doc.render()))?;
            jobs.push((label, ack.job().to_string()));
        }
        let mut sides = Vec::with_capacity(2);
        for (label, job) in jobs {
            let side_error = |e: String| format!("side `{label}` (job {job}): {e}");
            let status = self.wait_for_job(&job, JOB_WAIT).map_err(side_error)?;
            if status.get("status").and_then(Json::as_str) != Some(JobState::Done.as_str()) {
                let error = status.get("error").and_then(Json::as_str);
                return Err(side_error(format!(
                    "failed: {}",
                    error.unwrap_or("unknown error")
                )));
            }
            let doc = self
                .request_json("GET", &paths::job_result(&job), "")
                .map_err(side_error)?;
            let result = ResultView::from_json(&doc)
                .ok_or_else(|| side_error("answered a bad result document".to_string()))?;
            sides.push(DiffSide {
                job: result.job,
                report: result.report,
                runs: result.runs,
            });
        }
        Ok(diff::diff(&sides[0], &sides[1]))
    }
}

/// Error message for a non-2xx response: prefers the structured
/// message, falls back to the legacy `error` member.
fn request_error(method: &str, path: &str, code: u16, doc: &Json) -> String {
    let message = doc
        .get("error")
        .or_else(|| doc.get("message"))
        .and_then(Json::as_str)
        .unwrap_or("request failed");
    format!("{method} {path}: {code} {message}")
}

/// One request on a fresh connection; returns `(status code, raw body)`.
pub fn request_raw(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, Vec<u8>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let _ = stream.set_nodelay(true);
    crate::http::write_request(&stream, method, path, body.as_bytes())
        .map_err(|e| format!("request to {addr} failed: {e}"))?;
    crate::http::read_response(&stream).map_err(|e| format!("response from {addr} failed: {e}"))
}

/// One request with a UTF-8 body.
pub fn request(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let (code, bytes) = request_raw(addr, method, path, body)?;
    let text = String::from_utf8(bytes).map_err(|_| "response is not UTF-8".to_string())?;
    Ok((code, text))
}

/// One request, parsed as JSON; non-2xx responses become errors carrying
/// the server's `error` message.
pub fn request_json(addr: &str, method: &str, path: &str, body: &str) -> Result<Json, String> {
    let (code, text) = request(addr, method, path, body)?;
    let doc = parse(&text).map_err(|e| format!("bad response JSON: {e}"))?;
    if !(200..300).contains(&code) {
        return Err(request_error(method, path, code, &doc));
    }
    Ok(doc)
}

/// Wait for a job on a fresh keep-alive connection (long-poll). Returns
/// the final status document.
pub fn wait_for_job(addr: &str, key: &str, timeout: Duration) -> Result<Json, String> {
    Conn::connect(addr)?.wait_for_job(key, timeout)
}
