//! Keep-alive behavior of the daemon over real TCP sockets.
//!
//! - one client socket carries a whole submit → poll → result
//!   interaction (no reconnect per request);
//! - pipelined requests are answered in order, each with a renewed
//!   head/body byte budget;
//! - `Connection: close` and protocol garbage actually close the socket.

use scalana_api::paths;
use scalana_service::client::{self, Conn};
use scalana_service::http::MessageReader;
use scalana_service::json::Json;
use scalana_service::{Server, ServiceConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn boot() -> String {
    let server = Server::bind(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 16,
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    std::thread::spawn(move || server.run());
    addr
}

const PROGRAM: &str = "fn main() { for i in 0 .. 3 { comp(cycles = 80_000 / nprocs); barrier(); } \
     allreduce(bytes = 8); }";

fn submit_body() -> String {
    Json::obj(vec![
        ("source", PROGRAM.into()),
        ("name", "ka.mmpi".into()),
        ("scales", vec![2usize, 4].into()),
    ])
    .render()
}

#[test]
fn one_connection_carries_submit_poll_and_result() {
    let addr = boot();
    let mut conn = Conn::connect(&addr).unwrap();

    // submit → status polls → result → stats, all on one socket.
    let response = conn
        .request_json("POST", paths::JOBS, &submit_body())
        .unwrap();
    let key = response.get("job").unwrap().as_str().unwrap().to_string();
    let status = conn.wait_for_job(&key, Duration::from_secs(60)).unwrap();
    assert_eq!(status.get("status").and_then(Json::as_str), Some("done"));
    let result = conn
        .request_json("GET", &paths::job_result(&key), "")
        .unwrap();
    assert!(result.get("report").is_some());
    let stats = conn.request_json("GET", paths::STATS, "").unwrap();
    assert_eq!(stats.get("executed").and_then(Json::as_i64), Some(1));
    assert!(
        conn.is_alive(),
        "server must keep the connection open throughout"
    );

    let _ = client::request(&addr, "POST", paths::SHUTDOWN, "");
}

#[test]
fn pipelined_requests_answer_in_order() {
    let addr = boot();
    let stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    // Three requests on the wire before reading a single response.
    let mut wire = Vec::new();
    scalana_service::http::write_request_conn(&mut wire, "GET", paths::HEALTHZ, b"", true).unwrap();
    scalana_service::http::write_request_conn(&mut wire, "POST", paths::JOBS, b"not json", true)
        .unwrap();
    scalana_service::http::write_request_conn(&mut wire, "GET", paths::STATS, b"", true).unwrap();
    (&stream).write_all(&wire).unwrap();

    let mut reader = MessageReader::new(stream.try_clone().unwrap());
    let (code, body, keep) = reader.next_response().unwrap();
    assert_eq!(code, 200);
    assert!(String::from_utf8(body).unwrap().contains("\"ok\""));
    assert!(keep);
    // The bad submission gets its 400 *in order* and the connection
    // survives it — a malformed body is not a framing error.
    let (code, _, keep) = reader.next_response().unwrap();
    assert_eq!(code, 400);
    assert!(keep);
    let (code, body, _) = reader.next_response().unwrap();
    assert_eq!(code, 200);
    assert!(String::from_utf8(body).unwrap().contains("queue_depth"));

    let _ = client::request(&addr, "POST", paths::SHUTDOWN, "");
}

#[test]
fn per_request_budgets_renew_but_still_bound_each_request() {
    let addr = boot();
    let stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = MessageReader::new(stream.try_clone().unwrap());

    // Two requests whose heads approach the 16 KiB budget: a
    // per-connection budget would starve the second one.
    let pad = "a".repeat(12 << 10);
    for _ in 0..2 {
        let head = format!(
            "GET {} HTTP/1.1\r\nX-Pad: {pad}\r\nConnection: keep-alive\r\n\r\n",
            paths::HEALTHZ
        );
        (&stream).write_all(head.as_bytes()).unwrap();
        let (code, _, keep) = reader.next_response().unwrap();
        assert_eq!(code, 200, "near-limit head must be admitted");
        assert!(keep);
    }

    // A request declaring a body over the 1 MiB budget is rejected from
    // its headers alone (the body is never sent, so nothing is left
    // unread) and the connection closes — the stream would be
    // desynchronized past this point.
    let oversized = format!(
        "POST {} HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n",
        paths::JOBS
    );
    (&stream).write_all(oversized.as_bytes()).unwrap();
    let (code, _, keep) = reader.next_response().unwrap();
    assert_eq!(code, 400);
    assert!(!keep, "server must announce the close");
    // The socket really is closed: the next read sees EOF.
    let mut rest = Vec::new();
    let mut raw = stream.try_clone().unwrap();
    let _ = raw.read_to_end(&mut rest);
    assert!(rest.is_empty(), "no further responses after the close");

    let _ = client::request(&addr, "POST", paths::SHUTDOWN, "");
}

#[test]
fn connection_close_is_honored() {
    let addr = boot();
    let stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    scalana_service::http::write_request(&stream, "GET", paths::HEALTHZ, b"").unwrap();
    let mut reader = MessageReader::new(stream.try_clone().unwrap());
    let (code, _, keep) = reader.next_response().unwrap();
    assert_eq!(code, 200);
    assert!(!keep, "server echoes Connection: close");
    let mut rest = Vec::new();
    let mut raw = stream.try_clone().unwrap();
    let _ = raw.read_to_end(&mut rest);
    assert!(rest.is_empty(), "socket closed after the one exchange");

    let _ = client::request(&addr, "POST", paths::SHUTDOWN, "");
}
