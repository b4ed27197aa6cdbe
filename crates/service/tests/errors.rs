//! The malformed-request matrix, table-driven: every way a request can
//! be wrong is pinned to its structured error `code` (and therefore its
//! HTTP status — [`ErrorCode::http_status`] is part of the contract)
//! and to its `retryable` flag.
//!
//! One daemon serves the whole table; none of these requests register
//! any work, so the rows are independent.

use bytes::Bytes;
use scalana_api::{paths, ApiError, ErrorCode};
use scalana_core::ScalAnaConfig;
use scalana_service::client::{self, Conn};
use scalana_service::json::Json;
use scalana_service::store::EntryKind;
use scalana_service::{DiskStore, JobProgram, JobSpec, RealIo, Server, ServiceConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn boot() -> String {
    boot_with(None)
}

fn boot_with(store_dir: Option<&Path>) -> String {
    let server = Server::bind(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_capacity: 4,
        store_dir: store_dir.map(|dir| dir.display().to_string()),
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    std::thread::spawn(move || server.run());
    addr
}

#[test]
fn malformed_requests_answer_their_pinned_error_codes() {
    let addr = boot();
    let mut conn = Conn::connect(&addr).unwrap();

    #[rustfmt::skip]
    let table: &[(&str, &str, &str, u16, ErrorCode)] = &[
        // -- body problems on submit ------------------------------------
        ("POST", "/v1/jobs", "not json",
            400, ErrorCode::BadJson),
        ("POST", "/v1/jobs", "{}",
            400, ErrorCode::BadRequest),
        ("POST", "/v1/jobs", r#"{"app":"CG","wat":1}"#,
            400, ErrorCode::UnknownField),
        ("POST", "/v1/jobs", r#"{"app":"CG","source":"x"}"#,
            400, ErrorCode::BadRequest),
        ("POST", "/v1/jobs", r#"{"app":"NOPE","scales":[2]}"#,
            400, ErrorCode::UnknownApp),
        ("POST", "/v1/jobs", r#"{"app":"CG","scales":[8,4]}"#,
            400, ErrorCode::BadRequest),
        ("POST", "/v1/jobs", r#"{"app":"CG","scales":[0]}"#,
            400, ErrorCode::BadRequest),
        ("POST", "/v1/jobs", r#"{"program_hash":"ffffffffffffffff"}"#,
            404, ErrorCode::UnknownProgramHash),
        ("POST", "/v1/jobs", "[]",
            400, ErrorCode::BadRequest),
        // -- version prefix ---------------------------------------------
        ("GET", "/v2/stats", "",
            400, ErrorCode::UnsupportedVersion),
        ("POST", "/v7/jobs", r#"{"app":"CG"}"#,
            400, ErrorCode::UnsupportedVersion),
        // -- paths and methods ------------------------------------------
        ("GET", "/v1/nope", "",
            404, ErrorCode::NotFound),
        ("GET", "/nope", "",
            404, ErrorCode::NotFound),
        ("DELETE", "/v1/jobs/abc", "",
            405, ErrorCode::MethodNotAllowed),
        // -- job lookups ------------------------------------------------
        ("GET", "/v1/jobs/doesnotexist", "",
            404, ErrorCode::UnknownJob),
        ("GET", "/v1/jobs/doesnotexist/result", "",
            404, ErrorCode::UnknownJob),
        ("GET", "/v1/jobs/doesnotexist/wait?timeout_ms=10", "",
            404, ErrorCode::UnknownJob),
        ("GET", "/v1/jobs/doesnotexist/profile/4", "",
            404, ErrorCode::UnknownJob),
        ("GET", "/v1/jobs/doesnotexist/profile/x", "",
            400, ErrorCode::BadRequest),
        // -- query problems ---------------------------------------------
        ("GET", "/v1/jobs?state=bogus", "",
            400, ErrorCode::BadRequest),
        ("GET", "/v1/jobs?limit=0", "",
            400, ErrorCode::BadRequest),
        ("GET", "/v1/jobs?wat=1", "",
            400, ErrorCode::UnknownField),
        ("GET", "/v1/jobs/abc/wait?timeout_ms=-1", "",
            400, ErrorCode::BadRequest),
        ("GET", "/v1/jobs/abc/wait?wat=1", "",
            400, ErrorCode::UnknownField),
        // -- the diff endpoint is gone: clients compose diffs -----------
        ("POST", "/v1/diff", "{}",
            404, ErrorCode::NotFound),
        ("GET", "/v1/diff", "",
            404, ErrorCode::NotFound),
        // -- store endpoints on a memory-only daemon --------------------
        ("GET", "/v1/store", "",
            404, ErrorCode::NotFound),
        ("POST", "/v1/store/gc", "",
            404, ErrorCode::NotFound),
        ("DELETE", "/v1/store", "",
            405, ErrorCode::MethodNotAllowed),
        // -- the multi-daemon peer endpoints are gone -------------------
        ("GET", "/v1/peer/ring", "",
            404, ErrorCode::NotFound),
        ("POST", "/v1/peer/profile/00ff5ca1a71e57ed", "{}",
            404, ErrorCode::NotFound),
    ];

    for &(method, target, body, expected_status, expected_code) in table {
        let (code, text) = conn.request(method, target, body).unwrap();
        assert_eq!(code, expected_status, "{method} {target} {body} -> {text}");
        let error = ApiError::from_body(&text)
            .unwrap_or_else(|| panic!("{method} {target}: unstructured error body {text}"));
        assert_eq!(
            error.code, expected_code,
            "{method} {target} {body} -> {text}"
        );
        assert_eq!(
            error.retryable,
            expected_code.retryable(),
            "{method} {target}: retryable flag must follow the code"
        );
        assert!(
            !error.message.is_empty(),
            "{method} {target}: empty message"
        );
    }

    // Batched submissions report per-item errors in place, with the
    // same structured shape, without voiding their siblings.
    let batch = r#"[{"app":"CG","scales":[2]},{"app":"NOPE"},{"wat":1}]"#;
    let (code, text) = conn.request("POST", "/v1/jobs", batch).unwrap();
    assert_eq!(code, 200, "{text}");
    let doc = scalana_service::json::parse(&text).unwrap();
    let items = doc.as_array().unwrap();
    assert_eq!(items.len(), 3);
    assert!(items[0].get("job").is_some(), "good item acknowledged");
    assert_eq!(
        ApiError::from_json(&items[1]).unwrap().code,
        ErrorCode::UnknownApp
    );
    assert_eq!(
        ApiError::from_json(&items[2]).unwrap().code,
        ErrorCode::UnknownField
    );

    let _ = client::request(&addr, "POST", paths::SHUTDOWN, "");
}

#[test]
fn overloaded_daemon_drains_the_request_before_shedding() {
    let server = Server::bind(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_capacity: 4,
        max_connections: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    std::thread::spawn(move || server.run());

    // Occupy the only serving slot. The request (not just the connect)
    // matters: it proves the connection is registered, not still in the
    // accept backlog.
    let mut occupier = Conn::connect(&addr).unwrap();
    let (code, _) = occupier.request("GET", "/v1/stats", "").unwrap();
    assert_eq!(code, 200);

    // The next connection is over the cap. The daemon must *drain* its
    // request before answering: a 503 written over unread request bytes
    // makes the kernel reset the connection, and the client reads
    // ECONNRESET instead of the structured error this asserts on.
    let mut shed = Conn::connect(&addr).unwrap();
    let response = shed
        .request_full("POST", "/v1/jobs", r#"{"app":"CG","scales":[2]}"#)
        .unwrap();
    assert_eq!(response.code, 503);
    assert!(
        response.header("Retry-After").is_some(),
        "shed responses advertise when to retry"
    );
    let text = String::from_utf8(response.body).unwrap();
    let error = ApiError::from_body(&text).expect("shed response carries a structured error");
    assert_eq!(error.code, ErrorCode::TooManyConnections);
    assert!(error.retryable, "shedding is transient, so retryable");

    let _ = occupier.request("POST", paths::SHUTDOWN, "");
}

/// The CG `[2,8]` job the untrusted-image tests submit.
fn cg_job() -> JobSpec {
    JobSpec {
        program: JobProgram::App("CG".to_string()),
        scales: vec![2, 8],
        config: ScalAnaConfig::default(),
    }
}

/// A store directory holding `images` as valid frames, each under the
/// key the CG job resolves at its scale.
fn plant_store(name: &str, images: &[(usize, Bytes)]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scalana-errors-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = cg_job();
    let config = spec.resolve_config().unwrap();
    let store = DiskStore::open(Arc::new(RealIo), &dir, 0);
    for (nprocs, image) in images {
        let key = spec.profile_key(&config, *nprocs);
        store.save(EntryKind::Profile, &key, image.clone());
    }
    dir
}

/// `(scale_hits, scale_misses)` from `/v1/stats`.
fn scale_counts(conn: &mut Conn) -> (i64, i64) {
    let stats = conn.request_json("GET", paths::STATS, "").unwrap();
    let count = |name| stats.get(name).and_then(Json::as_i64).unwrap();
    (count("scale_hits"), count("scale_misses"))
}

/// Boot a daemon on `dir`, check it is healthy, run the CG job to
/// completion, and return its `(scale_hits, scale_misses)` deltas.
fn run_cg_on_store(dir: &Path) -> (i64, i64) {
    let addr = boot_with(Some(dir));
    let mut conn = Conn::connect(&addr).unwrap();
    let (code, text) = conn.request("GET", paths::HEALTHZ, "").unwrap();
    assert_eq!(code, 200, "{text}");

    let before = scale_counts(&mut conn);
    let submit = r#"{"app":"CG","scales":[2,8]}"#;
    let ack = conn.request_json("POST", paths::JOBS, submit).unwrap();
    let job = ack.get("job").and_then(Json::as_str).unwrap().to_string();
    let done = conn.wait_for_job(&job, Duration::from_secs(120)).unwrap();
    assert_eq!(
        done.get("status").and_then(Json::as_str),
        Some("done"),
        "{}",
        done.render()
    );
    let after = scale_counts(&mut conn);

    let _ = client::request(&addr, "POST", paths::SHUTDOWN, "");
    (after.0 - before.0, after.1 - before.1)
}

/// The store directory is untrusted input: the daemon warms its memory
/// from it and decodes what it finds on the job path. A profile image
/// that claims 2^40 ranks and carries none used to make `store::load`
/// allocate 8 TiB up front, and an allocation failure aborts the
/// process, so one planted file killed the daemon. It must be refused:
/// the daemon stays healthy and the job re-simulates that scale.
#[test]
fn crafted_profile_image_is_refused_and_the_daemon_keeps_serving() {
    let (nprocs, scale2) = cg_job().execute().unwrap().profiles.remove(0);
    assert_eq!(nprocs, 2);

    let mut image = scalana_profile::store::save(&scalana_profile::ProfileData::new(0)).to_vec();
    // Magic, version, then one-byte varints: nprocs, storage_bytes,
    // sample_count and the two empty sections' counts.
    assert_eq!(image[6..], [0; 5]);
    let mut nprocs = Vec::new();
    let mut rest = 1u64 << 40;
    while rest >= 0x80 {
        nprocs.push(rest as u8 | 0x80);
        rest >>= 7;
    }
    nprocs.push(rest as u8);
    image.splice(6..7, nprocs);
    let dir = plant_store("crafted", &[(2, scale2), (8, Bytes::from(image))]);

    assert_eq!(run_cg_on_store(&dir), (1, 1), "scale 8 re-simulated");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `data` in the retired version-1 image layout: fixed-width integers,
/// every perf field written, and an (empty) indirect-call section.
fn version_1_image(data: &scalana_profile::ProfileData) -> Bytes {
    let mut image = Vec::new();
    let u64s = |image: &mut Vec<u8>, values: &[u64]| {
        for v in values {
            image.extend_from_slice(&v.to_le_bytes());
        }
    };
    image.extend_from_slice(&0x5ca1_a701u32.to_le_bytes());
    image.extend_from_slice(&1u16.to_le_bytes());
    let (nprocs, elapsed) = (data.nprocs as u64, data.rank_elapsed.len() as u64);
    u64s(
        &mut image,
        &[nprocs, data.storage_bytes, data.sample_count, elapsed],
    );
    let times: Vec<u64> = data.rank_elapsed.iter().map(|t| t.to_bits()).collect();
    u64s(&mut image, &times);
    u64s(&mut image, &[data.perf.len() as u64]);
    for ((vertex, rank), p) in &data.perf {
        image.extend_from_slice(&vertex.to_le_bytes());
        u64s(&mut image, &[*rank as u64, p.time.to_bits(), p.count]);
        let floats = [
            p.tot_ins,
            p.tot_cyc,
            p.lst_ins,
            p.l2_miss,
            p.br_miss,
            p.wait_time,
            p.bytes,
        ];
        u64s(&mut image, &floats.map(f64::to_bits));
    }
    u64s(&mut image, &[data.comm.len() as u64]);
    for ((src_rank, src_vertex, dst_rank, dst_vertex), agg) in &data.comm {
        u64s(&mut image, &[*src_rank as u64]);
        image.extend_from_slice(&src_vertex.to_le_bytes());
        u64s(&mut image, &[*dst_rank as u64]);
        image.extend_from_slice(&dst_vertex.to_le_bytes());
        u64s(&mut image, &[agg.count, agg.bytes, agg.wait_time.to_bits()]);
    }
    u64s(&mut image, &[0]); // indirect calls
    Bytes::from(image)
}

/// A store directory written before the image format's version 2 holds
/// version-1 images under keys a job still resolves. There is no reader
/// for them: the daemon must stay healthy, never serve one, and
/// re-simulate that scale, as for any image it cannot decode.
#[test]
fn version_1_profile_image_is_refused_and_its_scale_re_simulated() {
    let mut profiles = cg_job().execute().unwrap().profiles;
    let (nprocs, image) = profiles.pop().unwrap();
    assert_eq!(nprocs, 8);
    let old = version_1_image(&scalana_profile::store::load(image).unwrap());
    assert_eq!(
        scalana_profile::store::load(old.clone()).err(),
        Some(scalana_profile::store::LoadError::BadVersion(1))
    );
    let dir = plant_store("version-1", &[profiles.remove(0), (8, old)]);

    assert_eq!(run_cg_on_store(&dir), (1, 1), "scale 8 re-simulated");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A profile image whose numbers are not finite is structurally sound.
/// Admitted under the key a CG job resolves, it would reach detection,
/// whose sorts panic on NaN, and fail every job on that key, restarts
/// included. It must be refused, so the job simulates the scale and
/// completes.
#[test]
fn profile_image_with_a_nan_time_is_refused_and_its_job_completes() {
    let mut profiles = cg_job().execute().unwrap().profiles;
    let (nprocs, image) = profiles.pop().unwrap();
    assert_eq!(nprocs, 8);
    let mut data = scalana_profile::store::load(image).unwrap();
    data.rank_elapsed[0] = f64::NAN;
    let poisoned = scalana_profile::store::save(&data);
    let dir = plant_store("nan", &[profiles.remove(0), (8, poisoned)]);

    assert_eq!(run_cg_on_store(&dir), (1, 1), "scale 8 re-simulated");
    let _ = std::fs::remove_dir_all(&dir);
}
