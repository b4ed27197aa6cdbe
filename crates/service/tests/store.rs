//! Durability integration tests: warm restarts over HTTP, boot-time
//! quarantine of damaged store files, the `/v1/store` endpoints, the
//! degradation ladder under injected IO faults, and the atomic-commit
//! protocol property (a store directory only ever contains files of
//! whole valid frames or quarantinable ones, and a commit's entries
//! land together or not at all).

use proptest::prelude::*;
use scalana_api::{paths, ApiError, ErrorCode};
use scalana_service::client::Conn;
use scalana_service::json::Json;
use scalana_service::store::{self, EntryKind, FaultIo, FaultPlan, RealIo};
use scalana_service::{DiskStore, Server, ServiceConfig, StoreIo};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "scalana-store-it-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Boot a daemon; returns the address and a channel that fires when
/// `Server::run` has fully returned (writes flushed).
fn boot(config: ServiceConfig) -> (String, mpsc::Receiver<()>) {
    let server = Server::bind(&config).unwrap();
    let addr = server.local_addr().to_string();
    let (exited_tx, exited) = mpsc::channel();
    std::thread::spawn(move || {
        let served = server.run();
        let _ = exited_tx.send(());
        served
    });
    (addr, exited)
}

fn store_config(dir: &Path) -> ServiceConfig {
    ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 8,
        store_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServiceConfig::default()
    }
}

/// Submit + wait to `done`; returns the job key.
fn run_job(conn: &mut Conn, body: &str) -> String {
    let ack = conn.request_json("POST", paths::JOBS, body).unwrap();
    let key = ack.get("job").and_then(Json::as_str).unwrap().to_string();
    let last = conn.wait_for_job(&key, Duration::from_secs(120)).unwrap();
    assert_eq!(last.get("status").and_then(Json::as_str), Some("done"));
    key
}

fn stat(conn: &mut Conn, key: &str) -> i64 {
    let doc = conn.request_json("GET", paths::STATS, "").unwrap();
    doc.get(key).and_then(Json::as_i64).unwrap()
}

fn shutdown_and_join(conn: &mut Conn, exited: &mpsc::Receiver<()>) {
    let (code, _) = conn.request("POST", paths::SHUTDOWN, "").unwrap();
    assert_eq!(code, 200);
    exited
        .recv_timeout(Duration::from_secs(30))
        .expect("daemon exits after shutdown");
}

/// The tentpole end-to-end: a restarted daemon answers every
/// previously-profiled scale from disk — zero re-simulation, responses
/// byte-identical to the pre-restart ones.
#[test]
fn warm_restart_serves_previous_scales_byte_identically() {
    let dir = temp_dir("warm");
    let body = r#"{"app":"CG","scales":[2,4]}"#;

    // Cold daemon: run the job, capture report + per-scale image bytes.
    // The deterministic slice of a result document: everything but the
    // wall-clock `detect_seconds` measurement.
    let canonical = |raw: Vec<u8>| -> (String, String) {
        let doc = scalana_service::json::parse(&String::from_utf8(raw).unwrap()).unwrap();
        (
            doc.get("report").unwrap().render(),
            doc.get("runs").unwrap().render(),
        )
    };

    let (addr, exited) = boot(store_config(&dir));
    let mut conn = Conn::connect(&addr).unwrap();
    let key = run_job(&mut conn, body);
    let cold_result = canonical(
        conn.request_raw("GET", &paths::job_result(&key), "")
            .unwrap()
            .1,
    );
    let cold_images: Vec<Vec<u8>> = [2usize, 4]
        .iter()
        .map(|&n| {
            conn.request_raw("GET", &paths::job_profile(&key, n), "")
                .unwrap()
                .1
        })
        .collect();
    shutdown_and_join(&mut conn, &exited);

    // Warm daemon on the same directory: the per-scale cache is primed
    // before the listener answers, so the same submission simulates
    // nothing at all.
    let (addr, exited) = boot(store_config(&dir));
    let mut conn = Conn::connect(&addr).unwrap();
    assert_eq!(stat(&mut conn, "profiles_cached"), 2, "warm scan primes");
    assert!(stat(&mut conn, "store_loaded") >= 3, "2 profiles + 1 trace");
    let key2 = run_job(&mut conn, body);
    assert_eq!(key2, key, "content-addressed key is restart-stable");
    assert_eq!(stat(&mut conn, "scale_misses"), 0, "zero re-simulation");
    assert_eq!(stat(&mut conn, "scale_hits"), 2);
    let metrics = conn.request("GET", paths::METRICS, "").unwrap().1;
    assert!(
        metrics.contains("scalana_sim_runs_total 0"),
        "the simulator never ran on the warm daemon"
    );

    let warm_result = canonical(
        conn.request_raw("GET", &paths::job_result(&key2), "")
            .unwrap()
            .1,
    );
    assert_eq!(warm_result, cold_result, "report bytes survive restart");
    for (i, &n) in [2usize, 4].iter().enumerate() {
        let warm = conn
            .request_raw("GET", &paths::job_profile(&key2, n), "")
            .unwrap()
            .1;
        assert_eq!(warm, cold_images[i], "profile image @ {n} ranks");
    }
    shutdown_and_join(&mut conn, &exited);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Boot-time corruption matrix over HTTP: valid entries load, everything
/// damaged or alien is quarantined (counted, never panicked on), and the
/// daemon serves normally afterwards.
#[test]
fn damaged_store_files_are_quarantined_at_boot() {
    let dir = temp_dir("quarantine");
    std::fs::create_dir_all(&dir).unwrap();

    // Valid entries, written with the real frame codec: one under the
    // older layout's name, two as one batch file under an arbitrary one.
    let frame = store::encode_frame(EntryKind::Profile, "aaaaaaaaaaaaaaaa", b"payload bytes");
    std::fs::write(dir.join("profile-aaaaaaaaaaaaaaaa.img"), &frame[..]).unwrap();
    let second = store::encode_frame(EntryKind::Profile, "eeeeeeeeeeeeeeee", b"more bytes");
    let batch = [&frame[..], &second[..]].concat();
    std::fs::write(dir.join("anything-at-all"), &batch).unwrap();
    // Truncated (torn tail), flipped byte (bad checksum), alien file,
    // and an orphaned temp file from a simulated crash mid-write.
    std::fs::write(
        dir.join("profile-bbbbbbbbbbbbbbbb.img"),
        &batch[..batch.len() - 7],
    )
    .unwrap();
    let mut flipped = frame[..].to_vec();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    std::fs::write(dir.join("profile-cccccccccccccccc.img"), &flipped).unwrap();
    std::fs::write(dir.join("notes.txt"), b"not a store file").unwrap();
    std::fs::write(dir.join("profile-dddddddddddddddd.img.tmp"), b"torn").unwrap();

    let (addr, exited) = boot(store_config(&dir));
    let mut conn = Conn::connect(&addr).unwrap();
    assert_eq!(stat(&mut conn, "store_quarantined"), 4);
    assert_eq!(stat(&mut conn, "store_entries"), 2, "the valid keys");
    assert_eq!(stat(&mut conn, "store_loaded"), 2, "each counted once");
    let quarantined = std::fs::read_dir(dir.join("quarantine")).unwrap().count();
    assert_eq!(quarantined, 4, "damaged files moved, not deleted");

    // The daemon is healthy: it runs jobs and reports via /v1/store.
    run_job(&mut conn, r#"{"app":"CG","scales":[2]}"#);
    let view = conn.request_json("GET", paths::STORE, "").unwrap();
    assert_eq!(view.get("degraded"), Some(&Json::Bool(false)));
    shutdown_and_join(&mut conn, &exited);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `GET /v1/store` and `POST /v1/store/gc` round-trip against a healthy
/// store; both answer 404 `not_found` on a memory-only daemon (pinned in
/// the errors matrix too).
#[test]
fn store_endpoints_report_directory_state() {
    let dir = temp_dir("endpoints");
    let (addr, exited) = boot(store_config(&dir));
    let mut conn = Conn::connect(&addr).unwrap();
    run_job(&mut conn, r#"{"app":"CG","scales":[2,4]}"#);

    // Writes are behind a queue; poll until all three entries land.
    let deadline = Instant::now() + Duration::from_secs(30);
    while stat(&mut conn, "store_entries") < 3 {
        assert!(Instant::now() < deadline, "store writes never flushed");
        std::thread::sleep(Duration::from_millis(20));
    }

    let view = conn.request_json("GET", paths::STORE, "").unwrap();
    assert_eq!(view.get("entries").and_then(Json::as_i64), Some(3));
    assert_eq!(view.get("quota").and_then(Json::as_i64), Some(0));
    assert_eq!(view.get("degraded"), Some(&Json::Bool(false)));
    // The files are commits, each a batch of the job's three entries:
    // at least one, at most one per entry, together every byte stored.
    let files = view.get("files").and_then(Json::as_array).unwrap();
    assert!((1..=3).contains(&files.len()), "{files:?}");
    assert_eq!(
        view.get("files_total").and_then(Json::as_i64),
        Some(files.len() as i64)
    );
    let total_bytes = view.get("bytes").and_then(Json::as_i64).unwrap();
    let mut listed_bytes = 0;
    let mut kinds = Vec::new();
    for file in files {
        let name = file.get("name").and_then(Json::as_str).unwrap();
        let raw = std::fs::read(dir.join(name)).unwrap();
        assert_eq!(
            file.get("bytes").and_then(Json::as_i64),
            Some(raw.len() as i64)
        );
        listed_bytes += raw.len() as i64;
        kinds.extend(store::decode_frames(&raw).unwrap().into_iter().map(|f| f.0));
    }
    assert_eq!(listed_bytes, total_bytes);
    kinds.sort_by_key(|kind| *kind == EntryKind::PsgTrace);
    assert_eq!(
        kinds,
        [EntryKind::Profile, EntryKind::Profile, EntryKind::PsgTrace]
    );
    let metrics = conn.request("GET", paths::METRICS, "").unwrap().1;
    assert!(metrics.contains("scalana_store_writes_total 3\n"));
    assert!(metrics.contains(&format!("scalana_store_commits_total {}\n", files.len())));
    assert!(metrics.contains("scalana_store_backlog_bytes 0\n"));

    // Quota 0 = unbounded: a manual sweep has nothing to evict.
    let swept = conn.request_json("POST", paths::STORE_GC, "").unwrap();
    assert_eq!(swept.get("evicted").and_then(Json::as_i64), Some(0));
    assert_eq!(swept.get("entries").and_then(Json::as_i64), Some(3));
    shutdown_and_join(&mut conn, &exited);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The degradation ladder: persistent injected write failures trip the
/// breaker into memory-only mode — the daemon stays fully available,
/// reports `store_degraded`, and `/v1/store/gc` sheds with a retryable
/// 503.
#[test]
fn persistent_write_faults_degrade_to_memory_only_without_losing_service() {
    let dir = temp_dir("degraded");
    // Every mutating IO op faults: nothing can ever be persisted.
    let fault_io: Arc<dyn StoreIo> = Arc::new(FaultIo::new(FaultPlan::seeded(9, 1000)));
    let config = ServiceConfig {
        store_io: Some(fault_io),
        ..store_config(&dir)
    };
    let (addr, exited) = boot(config);
    let mut conn = Conn::connect(&addr).unwrap();

    // Jobs still complete: the caches absorb what the disk rejects.
    run_job(&mut conn, r#"{"app":"CG","scales":[2,4]}"#);
    let deadline = Instant::now() + Duration::from_secs(30);
    while stat(&mut conn, "store_degraded") != 1 {
        assert!(Instant::now() < deadline, "breaker never tripped");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(stat(&mut conn, "store_write_errors") >= 3, "trip threshold");
    assert_eq!(stat(&mut conn, "store_entries"), 0, "nothing persisted");

    // Degraded-mode daemon keeps answering new work from memory.
    run_job(&mut conn, r#"{"app":"CG","scales":[2,4,8]}"#);

    let response = conn.request_full("POST", paths::STORE_GC, "").unwrap();
    assert_eq!(response.code, 503);
    assert!(
        response.header("Retry-After").is_some(),
        "degraded shed carries backoff advice"
    );
    let error = ApiError::from_body(&String::from_utf8(response.body).unwrap()).unwrap();
    assert_eq!(error.code, ErrorCode::StoreDegraded);
    assert!(error.retryable);

    let metrics = conn.request("GET", paths::METRICS, "").unwrap().1;
    assert!(metrics.contains("scalana_store_degraded 1"));
    shutdown_and_join(&mut conn, &exited);
    let _ = std::fs::remove_dir_all(&dir);
}

/// [`FaultIo`] whose first `write` parks until released, so a test can
/// queue a known batch behind the writer thread's first commit.
#[derive(Debug)]
struct ParkedIo {
    faults: FaultIo,
    park: Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>,
}

impl StoreIo for ParkedIo {
    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        self.faults.create_dir_all(path)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let park = self.park.lock().unwrap().take();
        if let Some((entered, released)) = park {
            let _ = entered.send(());
            let _ = released.recv();
        }
        self.faults.write(path, bytes)
    }
    fn sync_file(&self, path: &Path) -> std::io::Result<()> {
        self.faults.sync_file(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.faults.rename(from, to)
    }
    fn sync_dir(&self, path: &Path) -> std::io::Result<()> {
        self.faults.sync_dir(path)
    }
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.faults.read(path)
    }
    fn read_range(&self, path: &Path, offset: u64, len: usize) -> std::io::Result<Vec<u8>> {
        self.faults.read_range(path, offset, len)
    }
    fn read_dir(&self, path: &Path) -> std::io::Result<Vec<PathBuf>> {
        self.faults.read_dir(path)
    }
    fn remove(&self, path: &Path) -> std::io::Result<()> {
        self.faults.remove(path)
    }
    fn metadata(&self, path: &Path) -> std::io::Result<(u64, u64)> {
        self.faults.metadata(path)
    }
}

/// Two commits under a seeded fault schedule covering fail-before-rename,
/// fsync failure and torn cuts — a batch of one, then every other entry
/// as one batch queued behind it. Every surviving data file is a
/// sequence of complete valid frames or is quarantinable at reopen, a
/// clean reopen returns exactly what was saved, and each commit's
/// entries are all there or all absent.
fn check_valid_or_quarantinable(seed: u64, rate: u32, entries: usize) -> Result<(), TestCaseError> {
    let dir = std::env::temp_dir().join(format!(
        "scalana-store-prop-{seed}-{rate}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let (entered_tx, entered) = mpsc::channel();
    let (release, released) = mpsc::channel();
    let io: Arc<dyn StoreIo> = Arc::new(ParkedIo {
        faults: FaultIo::new(FaultPlan::seeded(seed, rate)),
        park: Mutex::new(Some((entered_tx, released))),
    });
    let store = Arc::new(DiskStore::open(io, &dir, 0));
    prop_assert_eq!(store.snapshot().entries, 0);
    let payloads: Vec<(String, Vec<u8>)> = (0..=entries)
        .map(|i| {
            let key = format!("{:016x}", 0xabcd_0000 + i as u64);
            let payload = vec![i as u8 ^ 0x5a; 64 + i * 17];
            (key, payload)
        })
        .collect();
    let writer = store.start_writer();
    let mut queued = payloads.iter();
    let (key, payload) = queued.next().unwrap();
    store.save(EntryKind::Profile, key, payload.clone().into());
    entered.recv().unwrap();
    // The writer is inside its first commit: the rest form the second.
    for (key, payload) in queued {
        store.save(EntryKind::Profile, key, payload.clone().into());
    }
    release.send(()).unwrap();
    store.stop_writer();
    writer.join().unwrap();
    let saved = store.snapshot();
    prop_assert_eq!(
        saved.writes + saved.write_errors + saved.skipped,
        1 + entries as u64
    );
    drop(store);

    // Invariant 1: every data file in the directory (quarantine and
    // temp files aside) is whole valid frames carrying what was saved.
    let expected = |key: &str| &payloads.iter().find(|(k, _)| k == key).unwrap().1;
    if let Ok(dir_entries) = std::fs::read_dir(&dir) {
        for entry in dir_entries.flatten() {
            if !entry.file_type().is_ok_and(|t| t.is_file()) {
                continue;
            }
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".tmp") {
                continue; // orphan from a faulted write: quarantinable
            }
            let raw = std::fs::read(entry.path()).unwrap();
            let frames = store::decode_frames(&raw)
                .map_err(|e| TestCaseError::fail(format!("{name}: {e}")))?;
            for (kind, key, range) in frames {
                prop_assert_eq!(kind, EntryKind::Profile);
                let (_, _, payload) = store::decode_frame(&raw[range]).unwrap();
                prop_assert_eq!(&payload[..], &expected(&key)[..]);
            }
        }
    }

    // Invariant 2: a clean reopen trusts exactly the survivors, each
    // with its exact payload, and holds at least what was reported
    // written (a commit whose directory fsync failed is there too).
    let reopened = DiskStore::open(Arc::new(RealIo), &dir, 0);
    let mut present = Vec::new();
    for (key, payload) in &payloads {
        let image = reopened.read_entry(EntryKind::Profile, key);
        if let Some(image) = &image {
            prop_assert_eq!(&image[..], &payload[..]);
        }
        present.push(image.is_some());
    }
    let survivors = present.iter().filter(|&&p| p).count() as u64;
    prop_assert_eq!(reopened.snapshot().entries, survivors);
    prop_assert!(survivors >= saved.writes);

    // Invariant 3: the second commit landed whole or not at all.
    let second = &present[1..];
    prop_assert!(
        second.iter().all(|&p| p) || !second.iter().any(|&p| p),
        "a commit's entries are all-or-nothing: {:?}",
        present
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn store_directory_only_ever_contains_valid_or_quarantinable_files(
        seed in 0u64..10_000,
        rate in 50u32..1000,
        entries in 1usize..6,
    ) {
        check_valid_or_quarantinable(seed, rate, entries)?;
    }
}
