//! Path and version constants of the wire protocol — the single source
//! of truth consumed by the server's router, the client, and the CLI.
//!
//! All current endpoints live under the [`PREFIX`] (`/v1`). The
//! unversioned form of every endpoint answers `308 Permanent Redirect`
//! to the versioned path, query string kept. See the README's
//! versioning policy.

/// The protocol version segment this crate describes.
pub const API_VERSION: &str = "v1";

/// The path prefix every current endpoint lives under.
pub const PREFIX: &str = "/v1";

/// `POST {jobs}` submits one job (object) or a batch (array);
/// `GET {jobs}?state=&limit=&after=` lists jobs (paginated).
pub const JOBS: &str = "/v1/jobs";

/// `GET {STATS}` — service counters.
pub const STATS: &str = "/v1/stats";

/// `GET {HEALTHZ}` — liveness probe.
pub const HEALTHZ: &str = "/v1/healthz";

/// `POST {SHUTDOWN}` — graceful stop.
pub const SHUTDOWN: &str = "/v1/shutdown";

/// `GET {METRICS}` — Prometheus-style text exposition of the daemon's
/// self-tracing metrics (stage latency histograms, cache tier
/// counters, queue/connection gauges), deterministically ordered.
pub const METRICS: &str = "/v1/metrics";

/// `GET {STORE}` — the durable store's directory view (entry/byte
/// totals, quota, degradation state, a bounded file listing). `404`
/// on a memory-only daemon.
pub const STORE: &str = "/v1/store";

/// `POST {STORE_GC}` — run one quota sweep now. `503` +
/// `Retry-After` while the store is degraded to memory-only mode.
pub const STORE_GC: &str = "/v1/store/gc";

/// `GET` — status of one job.
pub fn job(key: &str) -> String {
    format!("/v1/jobs/{key}")
}

/// `GET` — completed result document of one job.
pub fn job_result(key: &str) -> String {
    format!("/v1/jobs/{key}/result")
}

/// `GET` — persisted profile image of one job at one scale.
pub fn job_profile(key: &str, nprocs: usize) -> String {
    format!("/v1/jobs/{key}/profile/{nprocs}")
}

/// `GET` — per-job span timeline ([`crate::trace::TraceResponse`]):
/// where the submission spent its wall time, stage by stage, with
/// per-scale spans tagged by which cache tier answered them.
pub fn job_trace(key: &str) -> String {
    format!("/v1/jobs/{key}/trace")
}

/// `GET` — long-poll until the job reaches a terminal state or
/// `timeout_ms` elapses server-side (the server caps the budget at
/// [`crate::dto::MAX_WAIT_MS`]); either way the response is the job's
/// current status document.
pub fn job_wait(key: &str, timeout_ms: u64) -> String {
    format!("/v1/jobs/{key}/wait?timeout_ms={timeout_ms}")
}

/// `GET` — paginated job listing.
pub fn jobs_list(state: Option<&str>, limit: Option<usize>, after: Option<&str>) -> String {
    let mut path = String::from(JOBS);
    let mut sep = '?';
    let mut push = |k: &str, v: &str, path: &mut String| {
        path.push(sep);
        path.push_str(k);
        path.push('=');
        path.push_str(v);
        sep = '&';
    };
    if let Some(state) = state {
        push("state", state, &mut path);
    }
    if let Some(limit) = limit {
        push("limit", &limit.to_string(), &mut path);
    }
    if let Some(after) = after {
        push("after", after, &mut path);
    }
    path
}

/// Split a request target into `(path, query)` at the first `?`.
pub fn split_target(target: &str) -> (&str, &str) {
    match target.split_once('?') {
        Some((path, query)) => (path, query),
        None => (target, ""),
    }
}

/// Decode a query string into `(key, value)` pairs, in order. The
/// protocol's values (hex keys, integers, state names) never need
/// percent-encoding, so none is applied; `+` and `%` pass through
/// verbatim.
pub fn parse_query(query: &str) -> Vec<(&str, &str)> {
    query
        .split('&')
        .filter(|part| !part.is_empty())
        .map(|part| part.split_once('=').unwrap_or((part, "")))
        .collect()
}

/// Whether a path's first segment looks like a version selector
/// (`v<digits>`): used to distinguish "unknown version" (a `/v2/...`
/// request deserves [`crate::ErrorCode::UnsupportedVersion`]) from an
/// unversioned path.
pub fn looks_like_version(segment: &str) -> bool {
    segment.len() >= 2
        && segment.starts_with('v')
        && segment[1..].bytes().all(|b| b.is_ascii_digit())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_agree_with_constants() {
        assert_eq!(job("abc"), "/v1/jobs/abc");
        assert_eq!(job_result("abc"), "/v1/jobs/abc/result");
        assert_eq!(job_profile("abc", 8), "/v1/jobs/abc/profile/8");
        assert_eq!(job_wait("abc", 500), "/v1/jobs/abc/wait?timeout_ms=500");
        assert_eq!(job_trace("abc"), "/v1/jobs/abc/trace");
        assert_eq!(jobs_list(None, None, None), JOBS);
        assert_eq!(
            jobs_list(Some("done"), Some(10), Some("ff")),
            "/v1/jobs?state=done&limit=10&after=ff"
        );
        assert!(JOBS.starts_with(PREFIX));
        assert!(STATS.starts_with(PREFIX));
        assert!(METRICS.starts_with(PREFIX));
        assert!(STORE.starts_with(PREFIX));
        assert!(STORE_GC.starts_with(STORE));
    }

    #[test]
    fn targets_split_and_queries_parse() {
        assert_eq!(
            split_target("/v1/jobs?state=done"),
            ("/v1/jobs", "state=done")
        );
        assert_eq!(split_target("/v1/stats"), ("/v1/stats", ""));
        assert_eq!(
            parse_query("state=done&limit=5&flag"),
            vec![("state", "done"), ("limit", "5"), ("flag", "")]
        );
        assert_eq!(parse_query(""), Vec::<(&str, &str)>::new());
    }

    #[test]
    fn version_segments_are_recognized() {
        assert!(looks_like_version("v1"));
        assert!(looks_like_version("v22"));
        assert!(!looks_like_version("v"));
        assert!(!looks_like_version("vx"));
        assert!(!looks_like_version("jobs"));
    }
}
