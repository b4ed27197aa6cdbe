//! End-to-end daemon test over a real TCP socket.
//!
//! Boots `Server` on an ephemeral port, drives it purely through the
//! HTTP client, and checks the acceptance contract:
//!
//! - N concurrent submissions all complete, and each served report is
//!   **byte-identical** to a direct `scalana_core::pipeline` run of the
//!   same spec;
//! - re-submitting an identical job is answered from the
//!   content-addressed cache — visible in `/stats` as a `cache_hits`
//!   increment with `executed` unchanged (the simulator did not re-run);
//! - persisted profile images are served per scale and reload through
//!   `scalana_profile::store`.

use scalana_api::paths;
use scalana_core::{pipeline, ScalAnaConfig};
use scalana_lang::parse_program;
use scalana_service::json::Json;
use scalana_service::jsonify::report_to_json;
use scalana_service::{client, Server, ServiceConfig};
use std::time::Duration;

/// A family of small programs, parameterized so each worker submits a
/// distinct job. `WORK` shifts the computation size; rank 0 carries a
/// serial section so detection has something to find.
fn program_text(work: u64) -> String {
    format!(
        "param WORK = {work};\n\
         fn main() {{\n\
             for it in 0 .. 4 {{\n\
                 comp(cycles = WORK / nprocs, ins = WORK / nprocs);\n\
                 if rank == 0 {{\n\
                     for s in 0 .. 2 {{ comp(cycles = WORK / 8, ins = WORK / 8); }}\n\
                 }}\n\
                 barrier();\n\
             }}\n\
             allreduce(bytes = 8);\n\
         }}"
    )
}

const SCALES: [usize; 2] = [2, 4];

/// The report JSON a direct (in-process) pipeline run produces.
fn direct_report(name: &str, text: &str) -> String {
    let program = parse_program(name, text).unwrap();
    let config = ScalAnaConfig::default();
    let analysis = pipeline::analyze(&program, &SCALES, &config).unwrap();
    report_to_json(&analysis.report).render()
}

fn submit_body(name: &str, text: &str) -> String {
    Json::obj(vec![
        ("source", text.into()),
        ("name", name.into()),
        ("scales", SCALES.to_vec().into()),
    ])
    .render()
}

fn stat(addr: &str, key: &str) -> i64 {
    let stats = client::request_json(addr, "GET", paths::STATS, "").unwrap();
    stats.get(key).and_then(Json::as_i64).unwrap()
}

#[test]
fn concurrent_submissions_cache_hits_and_byte_identical_reports() {
    let server = Server::bind(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 3,
        queue_capacity: 32,
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let server_thread = std::thread::spawn(move || server.run());

    let specs: Vec<(String, String)> = (0..3)
        .map(|i| (format!("job{i}.mmpi"), program_text(400_000 + 100_000 * i)))
        .collect();

    // Two concurrent submissions per spec: 6 clients race, 3 unique jobs.
    let keys: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..specs.len() * 2)
            .map(|i| {
                let (name, text) = &specs[i % specs.len()];
                let addr = addr.clone();
                scope.spawn(move || {
                    let response =
                        client::request_json(&addr, "POST", paths::JOBS, &submit_body(name, text))
                            .unwrap();
                    response.get("job").unwrap().as_str().unwrap().to_string()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Identical specs resolve to identical content addresses.
    for i in 0..specs.len() {
        assert_eq!(keys[i], keys[i + specs.len()], "same spec, same key");
    }

    // All jobs complete, and every served report matches a direct
    // pipeline run byte for byte.
    for (i, (name, text)) in specs.iter().enumerate() {
        let status = client::wait_for_job(&addr, &keys[i], Duration::from_secs(120)).unwrap();
        assert_eq!(
            status.get("status").and_then(Json::as_str),
            Some("done"),
            "job {i}: {status}"
        );
        let result = client::request_json(&addr, "GET", &paths::job_result(&keys[i]), "").unwrap();
        let served = result.get("report").unwrap().render();
        assert_eq!(
            served,
            direct_report(name, text),
            "served report for {name} diverges from the direct pipeline run"
        );
        assert_eq!(
            result.get("runs").unwrap().as_array().unwrap().len(),
            SCALES.len()
        );
    }

    // The duplicate submissions coalesced: exactly 3 pipeline executions.
    assert_eq!(stat(&addr, "executed"), 3);
    assert_eq!(stat(&addr, "completed"), 3);
    assert_eq!(stat(&addr, "cache_hits"), 3);
    assert_eq!(stat(&addr, "cache_misses"), 3);

    // Re-submitting an identical, already-completed job is served from
    // the cache: hit counter moves, executed does not.
    let (name, text) = &specs[0];
    let response =
        client::request_json(&addr, "POST", paths::JOBS, &submit_body(name, text)).unwrap();
    assert_eq!(response.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(response.get("status").and_then(Json::as_str), Some("done"));
    assert_eq!(stat(&addr, "cache_hits"), 4);
    assert_eq!(stat(&addr, "executed"), 3, "cache hit must not re-simulate");

    // Persisted profile images come back through the store intact.
    for &nprocs in &SCALES {
        let (code, image) =
            client::request_raw(&addr, "GET", &paths::job_profile(&keys[0], nprocs), "").unwrap();
        assert_eq!(code, 200);
        let profile = scalana_profile::store::load(bytes::Bytes::from(image)).unwrap();
        assert_eq!(profile.nprocs, nprocs);
    }
    let (code, _) =
        client::request_raw(&addr, "GET", &paths::job_profile(&keys[0], 999), "").unwrap();
    assert_eq!(code, 404);

    client::request_json(&addr, "POST", paths::SHUTDOWN, "").unwrap();
    server_thread.join().unwrap().unwrap();
}

#[test]
fn error_paths_over_the_wire() {
    let server = Server::bind(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_capacity: 4,
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let server_thread = std::thread::spawn(move || server.run());

    // Liveness.
    let health = client::request_json(&addr, "GET", paths::HEALTHZ, "").unwrap();
    assert_eq!(health.get("ok").and_then(Json::as_bool), Some(true));

    // Bad submissions are 400s with a message.
    let (code, body) = client::request(&addr, "POST", paths::JOBS, "{}").unwrap();
    assert_eq!(code, 400);
    assert!(body.contains("error"), "{body}");

    // Unknown endpoints and jobs.
    let (code, _) = client::request(&addr, "GET", "/nope", "").unwrap();
    assert_eq!(code, 404);
    let (code, _) = client::request(&addr, "GET", &paths::job("doesnotexist"), "").unwrap();
    assert_eq!(code, 404);
    let (code, _) = client::request(&addr, "DELETE", &paths::job("x"), "").unwrap();
    assert_eq!(code, 405);

    // A job that fails to parse surfaces its error through status and
    // result, and does not poison the daemon.
    let bad = Json::obj(vec![
        ("source", "fn main( {".into()),
        ("name", "bad.mmpi".into()),
        ("scales", vec![2usize].into()),
    ])
    .render();
    let response = client::request_json(&addr, "POST", paths::JOBS, &bad).unwrap();
    let key = response.get("job").unwrap().as_str().unwrap().to_string();
    let status = client::wait_for_job(&addr, &key, Duration::from_secs(60)).unwrap();
    assert_eq!(status.get("status").and_then(Json::as_str), Some("failed"));
    assert!(status.get("error").is_some());
    let (code, _) = client::request(&addr, "GET", &paths::job_result(&key), "").unwrap();
    assert_eq!(code, 500);

    // Result of a queued-but-never-run job (workers busy is hard to
    // stage reliably; a fresh pending submission right before asking is
    // enough to hit the 409 path on a slow machine — accept both).
    let pending = Json::obj(vec![
        (
            "source",
            "fn main() { comp(cycles = 200_000); barrier(); }".into(),
        ),
        ("name", "pending.mmpi".into()),
        ("scales", vec![2usize, 4].into()),
    ])
    .render();
    let response = client::request_json(&addr, "POST", paths::JOBS, &pending).unwrap();
    let key = response.get("job").unwrap().as_str().unwrap().to_string();
    let (code, _) = client::request(&addr, "GET", &paths::job_result(&key), "").unwrap();
    assert!(code == 409 || code == 200, "got {code}");

    client::request_json(&addr, "POST", paths::SHUTDOWN, "").unwrap();
    server_thread.join().unwrap().unwrap();
}
