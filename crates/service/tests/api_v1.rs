//! The `/v1` protocol over real TCP sockets: versioned routing, the
//! redirect of unversioned paths, the job listing, server-side
//! long-poll, and the diff the client composes from two results.

use scalana_api::{paths, ApiError, ErrorCode, JobPage, JobState, SubmitRequest};
use scalana_service::client::{self, Conn};
use scalana_service::hash::StableHasher;
use scalana_service::http::MessageReader;
use scalana_service::json::Json;
use scalana_service::{Server, ServiceConfig};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn boot(workers: usize) -> String {
    let server = Server::bind(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_capacity: 32,
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    std::thread::spawn(move || server.run());
    addr
}

/// Unique programs per test so cache interactions are test-local.
fn program_text(work: u64) -> String {
    format!(
        "param WORK = {work};\n\
         fn main() {{\n\
             for it in 0 .. 3 {{\n\
                 comp(cycles = WORK / nprocs, ins = WORK / nprocs);\n\
                 if rank == 0 {{ comp(cycles = WORK / 6, ins = WORK / 6); }}\n\
                 barrier();\n\
             }}\n\
             allreduce(bytes = 8);\n\
         }}"
    )
}

fn submit_body(text: &str, scales: &[usize]) -> String {
    Json::obj(vec![
        ("source", text.into()),
        ("name", "v1.mmpi".into()),
        ("scales", scales.to_vec().into()),
    ])
    .render()
}

fn stat(conn: &mut Conn, key: &str) -> i64 {
    let stats = conn.request_json("GET", paths::STATS, "").unwrap();
    stats.get(key).and_then(Json::as_i64).unwrap()
}

#[test]
fn unversioned_paths_redirect_to_v1_with_the_query_kept() {
    let addr = boot(1);
    let mut conn = Conn::connect(&addr).unwrap();

    // Every method/path shape the router accepts.
    let routes = [
        ("GET", "/healthz"),
        ("GET", "/stats"),
        ("GET", "/metrics"),
        ("POST", "/shutdown"),
        ("GET", "/jobs"),
        ("POST", "/jobs"),
        ("GET", "/jobs/abc"),
        ("GET", "/jobs/abc/result"),
        ("GET", "/jobs/abc/wait"),
        ("GET", "/jobs/abc/trace"),
        ("GET", "/jobs/abc/profile/2"),
        ("GET", "/store"),
        ("POST", "/store/gc"),
    ];
    for (method, path) in routes {
        for query in ["", "?state=done&limit=2"] {
            let target = format!("{path}{query}");
            let location = format!("{}{target}", paths::PREFIX);
            let response = conn.request_full(method, &target, "{}").unwrap();
            assert_eq!(response.code, 308, "{method} {target}");
            assert_eq!(
                response.header("Location"),
                Some(location.as_str()),
                "{method} {target}"
            );
            assert!(
                response.header("Deprecation").is_none(),
                "{method} {target}"
            );
        }
    }

    // The redirected `POST /shutdown` did not stop the daemon, and the
    // versioned spelling carries no deprecation notice either.
    let versioned = conn.request_full("GET", paths::STATS, "").unwrap();
    assert_eq!(versioned.code, 200);
    assert!(versioned.header("Deprecation").is_none());

    let _ = client::request(&addr, "POST", paths::SHUTDOWN, "");
}

#[test]
fn wrong_methods_get_405_with_allow_header() {
    let addr = boot(1);
    let mut conn = Conn::connect(&addr).unwrap();
    for (method, target, allow) in [
        ("DELETE", "/v1/jobs/abc", "GET"),
        ("POST", "/v1/healthz", "GET"),
        ("GET", "/v1/shutdown", "POST"),
        ("PUT", "/v1/jobs", "GET, POST"),
        ("DELETE", "/jobs/abc", "GET"), // unversioned paths get the same contract
    ] {
        let response = conn.request_full(method, target, "").unwrap();
        assert_eq!(response.code, 405, "{method} {target}");
        assert_eq!(response.header("Allow"), Some(allow), "{method} {target}");
        let error = ApiError::from_body(std::str::from_utf8(&response.body).unwrap()).unwrap();
        assert_eq!(error.code, ErrorCode::MethodNotAllowed);
        assert!(!error.retryable);
    }
    // Unknown paths stay 404 regardless of method.
    let response = conn.request_full("DELETE", "/v1/nope", "").unwrap();
    assert_eq!(response.code, 404);

    let _ = client::request(&addr, "POST", paths::SHUTDOWN, "");
}

#[test]
fn job_listing_paginates_and_filters_by_state() {
    let addr = boot(2);
    let mut conn = Conn::connect(&addr).unwrap();

    // Three completing jobs plus one that fails to parse.
    let mut keys: Vec<String> = Vec::new();
    for i in 0..3u64 {
        let response = conn
            .request_json(
                "POST",
                paths::JOBS,
                &submit_body(&program_text(601_000 + i), &[2]),
            )
            .unwrap();
        keys.push(response.get("job").unwrap().as_str().unwrap().to_string());
    }
    let bad = Json::obj(vec![
        ("source", "fn main( {".into()),
        ("name", "bad.mmpi".into()),
        ("scales", vec![2usize].into()),
    ])
    .render();
    let response = conn.request_json("POST", paths::JOBS, &bad).unwrap();
    let bad_key = response.get("job").unwrap().as_str().unwrap().to_string();
    for key in keys.iter().chain([&bad_key]) {
        let _ = conn.wait_for_job(key, Duration::from_secs(120)).unwrap();
    }

    // Full listing decodes as the typed page and contains all four.
    let doc = conn.request_json("GET", paths::JOBS, "").unwrap();
    let page = JobPage::from_json(&doc).expect("typed page");
    assert_eq!(page.jobs.len(), 4);
    assert!(page.next_after.is_none());
    let mut listed: Vec<&str> = page.jobs.iter().map(|j| j.job.as_str()).collect();
    assert!(listed.windows(2).all(|w| w[0] < w[1]), "ascending by key");
    listed.sort();

    // State filter.
    let doc = conn
        .request_json("GET", &paths::jobs_list(Some("failed"), None, None), "")
        .unwrap();
    let failed = JobPage::from_json(&doc).unwrap();
    assert_eq!(failed.jobs.len(), 1);
    assert_eq!(failed.jobs[0].job, bad_key);
    assert_eq!(failed.jobs[0].status, JobState::Failed);
    assert!(failed.jobs[0].error.is_some());

    // Cursor walk with limit 3: two pages, no overlap, full coverage.
    let doc = conn
        .request_json("GET", &paths::jobs_list(None, Some(3), None), "")
        .unwrap();
    let first = JobPage::from_json(&doc).unwrap();
    assert_eq!(first.jobs.len(), 3);
    let cursor = first.next_after.expect("more pages");
    let doc = conn
        .request_json("GET", &paths::jobs_list(None, Some(3), Some(&cursor)), "")
        .unwrap();
    let second = JobPage::from_json(&doc).unwrap();
    assert_eq!(second.jobs.len(), 1);
    assert!(second.next_after.is_none());
    let mut walked: Vec<String> = first
        .jobs
        .iter()
        .chain(&second.jobs)
        .map(|j| j.job.clone())
        .collect();
    walked.sort();
    assert_eq!(
        walked,
        listed.iter().map(|s| s.to_string()).collect::<Vec<_>>()
    );

    let _ = client::request(&addr, "POST", paths::SHUTDOWN, "");
}

#[test]
fn a_deadlocking_program_fails_with_the_simulator_error() {
    // No `call` through a pointer, so no discovery run: the deadlock
    // surfaces at the first profiled scale, and the job still fails.
    let addr = boot(1);
    let mut conn = Conn::connect(&addr).unwrap();
    let text = "fn main() { recv(src = (rank + 1) % nprocs, tag = 0); }";
    let response = conn
        .request_json("POST", paths::JOBS, &submit_body(text, &[2, 4]))
        .unwrap();
    let key = response.get("job").unwrap().as_str().unwrap().to_string();
    let doc = conn.wait_for_job(&key, Duration::from_secs(120)).unwrap();
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("failed"));
    let error = doc.get("error").and_then(Json::as_str).unwrap_or_default();
    assert!(error.contains("deadlock"), "{error}");

    let _ = client::request(&addr, "POST", paths::SHUTDOWN, "");
}

#[test]
fn a_too_deeply_nested_program_fails_and_the_daemon_survives() {
    // 10^4 nested parentheses: a ~20 KB body. Parsing runs on a worker
    // thread, where unbounded recursion would overflow its stack and
    // abort the daemon.
    let addr = boot(1);
    let mut conn = Conn::connect(&addr).unwrap();
    let text = format!(
        "fn main() {{ let x = {}1{}; }}",
        "(".repeat(10_000),
        ")".repeat(10_000)
    );
    let response = conn
        .request_json("POST", paths::JOBS, &submit_body(&text, &[2, 4]))
        .unwrap();
    let key = response.get("job").unwrap().as_str().unwrap().to_string();
    let doc = conn.wait_for_job(&key, Duration::from_secs(120)).unwrap();
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("failed"));
    let error = doc.get("error").and_then(Json::as_str).unwrap_or_default();
    assert!(error.contains("nesting deeper than"), "{error}");

    let (code, _) = conn.request("GET", paths::HEALTHZ, "").unwrap();
    assert_eq!(code, 200);

    let _ = client::request(&addr, "POST", paths::SHUTDOWN, "");
}

#[test]
fn longpoll_wait_parks_until_completion() {
    let addr = boot(2);
    let mut conn = Conn::connect(&addr).unwrap();

    // Unknown job: structured 404.
    let (code, body) = conn
        .request("GET", &paths::job_wait("doesnotexist", 50), "")
        .unwrap();
    assert_eq!(code, 404);
    assert_eq!(
        ApiError::from_body(&body).unwrap().code,
        ErrorCode::UnknownJob
    );

    // A job with enough simulated ranks to still be running when the
    // wait starts (wall-clock scales with ranks × statements).
    let response = conn
        .request_json(
            "POST",
            paths::JOBS,
            &submit_body(&program_text(9_701_000), &[2, 4, 48]),
        )
        .unwrap();
    let key = response.get("job").unwrap().as_str().unwrap().to_string();

    // A tiny budget elapses first: 200 with a non-terminal status.
    let doc = conn
        .request_json("GET", &paths::job_wait(&key, 1), "")
        .unwrap();
    let early = doc
        .get("status")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();

    // A generous budget parks until the worker completes the job —
    // observed as a single round trip whose answer is terminal.
    let started = Instant::now();
    let doc = conn
        .request_json("GET", &paths::job_wait(&key, 20_000), "")
        .unwrap();
    let waited = started.elapsed();
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("done"));
    assert!(
        waited < Duration::from_secs(20),
        "woke at completion, not at the budget ({waited:?}, first poll saw `{early}`)"
    );

    let _ = client::request(&addr, "POST", paths::SHUTDOWN, "");
}

fn source_side(text: &str, scales: &[usize]) -> SubmitRequest {
    SubmitRequest::source("v1.mmpi", text).with_scales(scales.to_vec())
}

#[test]
fn diff_reuses_cached_profiles_and_is_deterministic() {
    let addr = boot(2);
    let mut conn = Conn::connect(&addr).unwrap();
    let text = program_text(701_000);

    // Prime scales [2, 4] with a plain submission.
    let response = conn
        .request_json("POST", paths::JOBS, &submit_body(&text, &[2, 4]))
        .unwrap();
    let primed_key = response.get("job").unwrap().as_str().unwrap().to_string();
    conn.wait_for_job(&primed_key, Duration::from_secs(120))
        .unwrap();
    let (hits_before, misses_before) = (
        stat(&mut conn, "scale_hits"),
        stat(&mut conn, "scale_misses"),
    );
    assert_eq!(hits_before, 0);
    assert_eq!(misses_before, 2);

    // Diff the primed scale set against a superset: side `a` is a
    // whole-job cache hit (per-scale cache untouched), side `b`
    // overlaps on 2 and 4 (hits) and simulates only scale 6 (miss).
    let (a, b) = (source_side(&text, &[2, 4]), source_side(&text, &[2, 4, 6]));
    let doc = conn.diff(&a, &b).unwrap();
    assert_eq!(
        stat(&mut conn, "scale_hits") - hits_before,
        2,
        "overlap reused"
    );
    assert_eq!(
        stat(&mut conn, "scale_misses") - misses_before,
        1,
        "only scale 6 simulated"
    );

    assert_eq!(
        doc.get("a").unwrap().get("job").unwrap().as_str(),
        Some(primed_key.as_str()),
        "side `a` coalesced onto the primed job"
    );
    let runs = doc.get("runs").unwrap().as_array().unwrap();
    assert_eq!(runs.len(), 3, "union of scales {{2,4,6}}");
    assert_eq!(runs[2].get("nprocs").unwrap().as_i64(), Some(6));
    assert_eq!(
        runs[2].get("total_time_a"),
        Some(&Json::Null),
        "a did not run scale 6"
    );
    assert!(runs[0].get("ratio").unwrap().as_f64().is_some());
    // Identical program on both sides: every root cause matches up.
    for cause in doc.get("root_causes").unwrap().as_array().unwrap() {
        assert_eq!(cause.get("status").unwrap().as_str(), Some("both"));
    }
    assert!(doc.get("summary").unwrap().get("faster").is_some());

    // Determinism: the identical diff again — now fully cached — is
    // byte-identical and touches no per-scale entries.
    let second = conn.diff(&a, &b).unwrap();
    assert_eq!(
        doc.render(),
        second.render(),
        "diff output must be deterministic"
    );
    assert_eq!(stat(&mut conn, "scale_hits") - hits_before, 2);
    assert_eq!(stat(&mut conn, "scale_misses") - misses_before, 1);

    // A failing side surfaces as an error naming it.
    let broken = source_side("fn main( {", &[2]);
    let error = conn.diff(&a, &broken).unwrap_err();
    assert!(error.contains("`b`"), "names the failing side: {error}");
    assert!(error.contains("failed"), "{error}");

    let _ = client::request(&addr, "POST", paths::SHUTDOWN, "");
}

/// The client-side diff reproduces, byte for byte, the bodies the
/// daemon's former `POST /v1/diff` endpoint answered for the same two
/// pairs of submissions (length and FNV-1a digest, recorded from that
/// endpoint).
#[test]
fn client_diff_matches_the_recorded_endpoint_bodies() {
    let addr = boot(2);
    let mut conn = Conn::connect(&addr).unwrap();
    let cg = |scales: &[usize]| SubmitRequest::app("CG").with_scales(scales.to_vec());
    let delayed = SubmitRequest {
        params: vec![("DELAY_RANK".to_string(), 4)],
        ..cg(&[4, 8])
    };
    for (label, a, b, len, digest) in [
        (
            "CG [2,4] vs [2,4,6]",
            cg(&[2, 4]),
            cg(&[2, 4, 6]),
            1536,
            0x89c8_3766_b23e_61b0,
        ),
        (
            "CG vs delayed CG",
            cg(&[4, 8]),
            delayed,
            1292,
            0x3828_9d38_23d2_5abd,
        ),
    ] {
        let body = conn.diff(&a, &b).unwrap().render();
        let mut hasher = StableHasher::new();
        hasher.write_bytes(body.as_bytes());
        assert_eq!(
            (body.len(), hasher.finish()),
            (len, digest),
            "{label}: {body}"
        );
    }
    let _ = client::request(&addr, "POST", paths::SHUTDOWN, "");
}

#[test]
fn unsupported_versions_are_rejected_up_front() {
    let addr = boot(1);
    let mut conn = Conn::connect(&addr).unwrap();
    for target in ["/v2/jobs", "/v0/stats", "/v99/healthz"] {
        let (code, body) = conn.request("GET", target, "").unwrap();
        assert_eq!(code, 400, "{target}");
        let error = ApiError::from_body(&body).unwrap();
        assert_eq!(error.code, ErrorCode::UnsupportedVersion, "{target}");
        assert!(error.message.contains("v1"), "points at the served version");
    }
    let _ = client::request(&addr, "POST", paths::SHUTDOWN, "");
}

/// Raw socket helper for requests the client cannot express (oversized
/// declared bodies).
#[test]
fn over_budget_bodies_answer_a_structured_error() {
    let addr = boot(1);
    let stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let head = "POST /v1/jobs HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n";
    (&stream).write_all(head.as_bytes()).unwrap();
    let mut reader = MessageReader::new(stream.try_clone().unwrap());
    let (code, body, keep) = reader.next_response().unwrap();
    assert_eq!(code, 400);
    assert!(!keep, "framing errors close the connection");
    let error = ApiError::from_body(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(error.code, ErrorCode::BodyTooLarge);

    // An oversized *head* is malformed_request, not body_too_large — a
    // client must not be told to shrink a body that was never at fault.
    let stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let huge = format!(
        "GET /v1/healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "a".repeat(20 << 10)
    );
    (&stream).write_all(huge.as_bytes()).unwrap();
    let mut reader = MessageReader::new(stream.try_clone().unwrap());
    let (code, body, _) = reader.next_response().unwrap();
    assert_eq!(code, 400);
    let error = ApiError::from_body(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(error.code, ErrorCode::MalformedRequest);

    let _ = client::request(&addr, "POST", paths::SHUTDOWN, "");
}
