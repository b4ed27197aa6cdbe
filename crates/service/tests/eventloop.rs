//! Event-loop regressions that the request/response test suites cannot
//! see: shutdown promptness on an *idle* daemon, and long-poll waiter
//! capacity beyond the old thread-per-connection cap.

use scalana_api::paths;
use scalana_service::client::{self, Conn};
use scalana_service::json::Json;
use scalana_service::store::{self, EntryKind};
use scalana_service::{Server, ServiceConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn boot(config: &ServiceConfig) -> (String, mpsc::Receiver<()>) {
    let server = Server::bind(config).unwrap();
    let addr = server.local_addr().to_string();
    let (exited_tx, exited) = mpsc::channel();
    std::thread::spawn(move || {
        let served = server.run();
        let _ = exited_tx.send(());
        served
    });
    (addr, exited)
}

/// The old accept loop only observed the shutdown flag when the *next*
/// connection was accepted, so an idle daemon hung after
/// `POST /v1/shutdown` until `trigger_shutdown`'s throwaway connection
/// poked it. The event loop must exit on its own wake signal: one
/// request carrying the shutdown, then silence.
#[test]
fn idle_daemon_exits_promptly_after_shutdown() {
    let (addr, exited) = boot(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_capacity: 4,
        ..ServiceConfig::default()
    });

    let (code, _) = client::request(&addr, "POST", paths::SHUTDOWN, "").unwrap();
    assert_eq!(code, 200);
    exited
        .recv_timeout(Duration::from_secs(5))
        .expect("idle daemon must exit promptly after shutdown, with no further traffic");
}

/// Graceful shutdown must flush the store's write-behind queue: every
/// profile and PSG trace a worker enqueued before `POST /v1/shutdown`
/// has to be on disk by the time `Server::run` returns — a clean stop
/// that silently dropped queued writes would cold-start the successor.
#[test]
fn graceful_shutdown_flushes_pending_store_writes() {
    let dir = std::env::temp_dir().join(format!(
        "scalana-eventloop-flush-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let (addr, exited) = boot(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 8,
        store_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServiceConfig::default()
    });
    let mut conn = Conn::connect(&addr).unwrap();
    let body = Json::obj(vec![
        ("app", "CG".into()),
        ("scales", vec![2usize, 4usize].into()),
    ])
    .render();
    let ack = conn.request_json("POST", "/v1/jobs", &body).unwrap();
    let key = ack.get("job").unwrap().as_str().unwrap().to_string();
    let done = conn.wait_for_job(&key, Duration::from_secs(120)).unwrap();
    assert_eq!(done.get("status").and_then(Json::as_str), Some("done"));

    // Shut down immediately — the write-behind thread may still hold
    // queued entries; run() must drain them before returning.
    let (code, _) = conn.request("POST", paths::SHUTDOWN, "").unwrap();
    assert_eq!(code, 200);
    exited
        .recv_timeout(Duration::from_secs(30))
        .expect("daemon exits after shutdown");

    let names: Vec<String> = std::fs::read_dir(&dir)
        .expect("store directory exists")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_type().is_ok_and(|t| t.is_file()))
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    // Each file is one commit: whole frames, whichever way the writer
    // happened to batch the job's three entries.
    let kinds: Vec<EntryKind> = names
        .iter()
        .flat_map(|name| {
            let raw = std::fs::read(dir.join(name)).unwrap();
            let frames = store::decode_frames(&raw).expect("a flushed file is whole frames");
            frames.into_iter().map(|(kind, _, _)| kind)
        })
        .collect();
    let profiles = kinds.iter().filter(|k| **k == EntryKind::Profile).count();
    let traces = kinds.iter().filter(|k| **k == EntryKind::PsgTrace).count();
    assert_eq!(
        (profiles, traces),
        (2, 1),
        "2 profile images + 1 PSG trace must be flushed, found {names:?}"
    );
    assert!(
        !names.iter().any(|n| n.ends_with(".tmp")),
        "no torn temp files after graceful shutdown: {names:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--idle-timeout` drives the reactor's idle sweep: a connection that
/// goes silent for longer than the configured window is closed (EOF on
/// the client side), while a shorter silence survives. The default used
/// to be a hardcoded 30 s, which no test could afford to wait out.
#[test]
fn idle_connections_are_swept_after_the_configured_timeout() {
    let (addr, _exited) = boot(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_capacity: 4,
        idle_timeout: Duration::from_secs(1),
        ..ServiceConfig::default()
    });

    // Prove the connection works, then go silent past the window.
    let mut socket = TcpStream::connect(&addr).unwrap();
    let request = "GET /v1/healthz HTTP/1.1\r\nHost: eventloop\r\n\r\n";
    socket.write_all(request.as_bytes()).unwrap();
    socket
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 1024];
    let n = socket.read(&mut buf).unwrap();
    assert!(buf[..n].starts_with(b"HTTP/1.1 200 "));

    // The sweep cadence is coarse; allow a couple of periods.
    let mut eof = Vec::new();
    socket
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let swept = socket.read_to_end(&mut eof);
    assert!(
        matches!(swept, Ok(0)),
        "idle connection must be closed by the sweep, got {swept:?} ({eof:?})"
    );

    // A fresh connection is still served after the sweep.
    let (code, _) = client::request(&addr, "GET", paths::HEALTHZ, "").unwrap();
    assert_eq!(code, 200);
    let _ = client::request(&addr, "POST", paths::SHUTDOWN, "");
}

/// The motivating bug: every parked long-poll used to hold one of the
/// 256 connection threads, so 256 slow waiters starved every new submit
/// into a 503 shed. Park more waiters than that old cap and prove a
/// fresh submission still lands.
#[test]
fn parked_waiters_beyond_the_old_thread_cap_do_not_starve_submits() {
    // > 256, the retired thread-per-connection MAX_CONNECTIONS.
    const WAITERS: usize = 300;

    let (addr, _exited) = boot(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_capacity: 8,
        ..ServiceConfig::default()
    });
    let mut control = Conn::connect(&addr).unwrap();

    // One worker, one slow filler: the target job queues behind it and
    // stays pending for the whole parking phase. Sized for seconds of
    // runway even on a fast machine; the test never waits it out (the
    // shutdown below resolves the parked waiters first).
    let filler = "fn main() {\n\
                  \x20   for it in 0 .. 200000 { comp(cycles = 400); barrier(); allreduce(bytes = 8); }\n\
                  }";
    let body = Json::obj(vec![
        ("source", filler.into()),
        ("name", "filler.mmpi".into()),
        ("scales", vec![4usize].into()),
    ])
    .render();
    control.request_json("POST", "/v1/jobs", &body).unwrap();
    let target_body = Json::obj(vec![
        (
            "source",
            "fn main() { comp(cycles = 100); barrier(); }".into(),
        ),
        ("name", "target.mmpi".into()),
        ("scales", vec![2usize].into()),
    ])
    .render();
    let ack = control
        .request_json("POST", "/v1/jobs", &target_body)
        .unwrap();
    let target = ack.get("job").unwrap().as_str().unwrap().to_string();

    // Park the waiters: write each wait request, never read.
    let wait_request =
        format!("GET /v1/jobs/{target}/wait?timeout_ms=25000 HTTP/1.1\r\nHost: eventloop\r\n\r\n");
    let mut waiters: Vec<TcpStream> = (0..WAITERS)
        .map(|_| {
            let mut socket = TcpStream::connect(&addr).unwrap();
            socket.write_all(wait_request.as_bytes()).unwrap();
            socket
        })
        .collect();

    // All of them must actually park (the gauge is exact, not sampled).
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let metrics = control.request("GET", paths::METRICS, "").unwrap().1;
        let parked = metrics
            .lines()
            .find_map(|l| l.strip_prefix("scalana_longpoll_parked "))
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(0);
        if parked >= WAITERS {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "only {parked}/{WAITERS} waiters parked (filler finished early, \
             or parked waiters are consuming serving capacity)"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The point of the exercise: with every waiter parked, a brand-new
    // submission must still be served, not shed.
    let fresh = Json::obj(vec![
        (
            "source",
            "fn main() { comp(cycles = 50); barrier(); }".into(),
        ),
        ("name", "fresh.mmpi".into()),
        ("scales", vec![2usize].into()),
    ])
    .render();
    let response = control.request_json("POST", "/v1/jobs", &fresh).unwrap();
    assert!(
        response.get("job").is_some(),
        "submit alongside {WAITERS} parked waiters must succeed: {}",
        response.render()
    );

    // Shutdown resolves every parked waiter with its current status —
    // each socket must receive a complete HTTP 200, not a dropped
    // connection.
    let (code, _) = control.request("POST", paths::SHUTDOWN, "").unwrap();
    assert_eq!(code, 200);
    for (i, socket) in waiters.iter_mut().enumerate() {
        socket
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut response = Vec::new();
        socket
            .read_to_end(&mut response)
            .unwrap_or_else(|e| panic!("waiter {i}: daemon dropped the parked wait: {e}"));
        assert!(
            response.starts_with(b"HTTP/1.1 200 "),
            "waiter {i}: parked wait resolved with {:?}",
            String::from_utf8_lossy(&response[..response.len().min(64)])
        );
    }
}
