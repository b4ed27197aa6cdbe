//! Integration tests for the `scalana` command-line tool.

use std::io::Write;
use std::process::Command;

fn scalana(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_scalana"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn write_demo(name: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    writeln!(
        f,
        "param N = 500_000;\n\
         fn main() {{\n\
             for it in 0 .. 6 {{\n\
                 comp(cycles = N / nprocs, ins = N / nprocs);\n\
                 if rank == 0 {{\n\
                     for s in 0 .. 2 {{ comp(cycles = N / 4, ins = N / 4); }}\n\
                 }}\n\
                 barrier();\n\
             }}\n\
             allreduce(bytes = 8);\n\
         }}"
    )
    .unwrap();
    path
}

#[test]
fn help_prints_usage_to_stdout_and_succeeds() {
    let cases: [&[&str]; 7] = [
        &["--help"],
        &["-h"],
        &["help"],
        &["analyze", "--help"],
        &["static", "prog.mmpi", "-h"],
        &["submit", "--app", "CG", "--help"],
        &["serve", "--help"],
    ];
    for args in cases {
        let (stdout, stderr, ok) = scalana(args);
        assert!(ok, "{args:?}: {stderr}");
        assert!(stdout.starts_with("usage:"), "{args:?}: {stdout}");
        assert!(stdout.contains("scalana analyze"), "{args:?}: {stdout}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
}

#[test]
fn static_command_prints_stats() {
    let path = write_demo("cli_static.mmpi");
    let (stdout, _, ok) = scalana(&["static", path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("#VBC="), "{stdout}");
    assert!(stdout.contains("#MPI=2"), "{stdout}");
}

#[test]
fn static_respects_flags() {
    let path = write_demo("cli_flags.mmpi");
    let (with_dot, _, ok) = scalana(&[
        "static",
        path.to_str().unwrap(),
        "--max-loop-depth",
        "0",
        "--dot",
    ]);
    assert!(ok);
    assert!(with_dot.contains("digraph PSG"));
}

#[test]
fn analyze_finds_the_serial_loop() {
    let path = write_demo("cli_analyze.mmpi");
    let (stdout, _, ok) = scalana(&[
        "analyze",
        path.to_str().unwrap(),
        "--scales",
        "2,4,8",
        "--top",
        "3",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("Root causes"), "{stdout}");
    assert!(stdout.contains("Loop"), "{stdout}");
    assert!(stdout.contains("run @"), "{stdout}");
}

#[test]
fn analyze_param_override_changes_runtime() {
    let path = write_demo("cli_param.mmpi");
    let run = |n: &str| {
        let (stdout, _, ok) = scalana(&[
            "analyze",
            path.to_str().unwrap(),
            "--scales",
            "2,4",
            "--param",
            &format!("N={n}"),
        ]);
        assert!(ok);
        stdout
    };
    let small = run("100000");
    let large = run("5000000");
    // Crude but effective: the virtual-seconds figures must differ.
    assert_ne!(small, large);
}

#[test]
fn apps_list_and_run() {
    let (stdout, _, ok) = scalana(&["apps", "--list"]);
    assert!(ok);
    for name in ["BT", "CG", "ZMP", "SST", "NEK"] {
        assert!(stdout.contains(name), "{stdout}");
    }
    let (stdout, _, ok) = scalana(&["apps", "--run", "SST", "--scales", "4,8,16"]);
    assert!(ok, "{stdout}");
    assert!(
        stdout.contains("known root cause mirandaCPU.cc:247: FOUND"),
        "{stdout}"
    );
}

#[test]
fn analyze_json_emits_a_parsable_document() {
    let path = write_demo("cli_json.mmpi");
    let (stdout, _, ok) = scalana(&[
        "analyze",
        path.to_str().unwrap(),
        "--scales",
        "2,4",
        "--json",
    ]);
    assert!(ok, "{stdout}");
    let doc = scalana_service::json::parse(stdout.trim()).expect("valid JSON");
    for key in ["psg", "runs", "speedup", "report", "detect_seconds"] {
        assert!(doc.get(key).is_some(), "missing `{key}` in {stdout}");
    }
    assert_eq!(doc.get("runs").unwrap().as_array().unwrap().len(), 2);
}

/// The serve/submit/status/result/shutdown loop, driven exactly the way
/// scripts/service_smoke.sh drives it — through the CLI binary only.
#[test]
fn serve_submit_status_result_shutdown() {
    use std::io::{BufRead, BufReader};
    use std::process::{Child, Command, Stdio};

    struct Daemon(Child);
    impl Drop for Daemon {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }

    let mut child = Command::new(env!("CARGO_BIN_EXE_scalana"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon starts");
    let stdout = child.stdout.take().unwrap();
    let mut daemon = Daemon(child);
    let mut banner = String::new();
    BufReader::new(stdout).read_line(&mut banner).unwrap();
    let addr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in banner `{banner}`"))
        .to_string();

    let path = write_demo("cli_service.mmpi");
    let submit = |extra: &[&str]| {
        let mut args = vec![
            "submit",
            "--addr",
            &addr,
            path.to_str().unwrap(),
            "--scales",
            "2,4",
        ];
        args.extend_from_slice(extra);
        scalana(&args)
    };

    // First submission runs; --wait blocks until done.
    let (stdout, stderr, ok) = submit(&["--wait"]);
    assert!(ok, "submit failed: {stdout}{stderr}");
    assert!(stdout.contains("\"cached\":false"), "{stdout}");
    assert!(stdout.contains("\"status\":\"done\""), "{stdout}");
    let job = scalana_service::json::parse(stdout.lines().next().unwrap())
        .unwrap()
        .get("job")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();

    // Second identical submission is a cache hit.
    let (stdout, _, ok) = submit(&[]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("\"cached\":true"), "{stdout}");
    let program_hash = scalana_service::json::parse(stdout.lines().next().unwrap())
        .unwrap()
        .get("program_hash")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();

    // status <job>, status (stats), and result all answer.
    let (stdout, _, ok) = scalana(&["status", "--addr", &addr, &job]);
    assert!(ok && stdout.contains("\"status\":\"done\""), "{stdout}");
    let (stdout, _, ok) = scalana(&["status", "--addr", &addr]);
    assert!(ok && stdout.contains("\"cache_hits\":1"), "{stdout}");
    assert!(stdout.contains("\"executed\":1"), "{stdout}");
    let (stdout, _, ok) = scalana(&["result", "--addr", &addr, &job]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("\"report\""), "{stdout}");

    // The program is now addressable by content hash: submit new scales
    // without re-sending the source. The per-scale cache covers 2 and 4,
    // so only scale 8 is simulated.
    let (stdout, stderr, ok) = scalana(&[
        "submit",
        "--addr",
        &addr,
        "--program-hash",
        &program_hash,
        "--scales",
        "2,4,8",
        "--wait",
    ]);
    assert!(ok, "program-hash submit failed: {stdout}{stderr}");
    assert!(stdout.contains("\"status\":\"done\""), "{stdout}");
    let (stdout, _, ok) = scalana(&["status", "--addr", &addr]);
    assert!(ok && stdout.contains("\"scale_hits\":2"), "{stdout}");
    assert!(stdout.contains("\"scale_misses\":3"), "{stdout}");

    // An unknown hash is a clean 404, not a parse error.
    let (_, stderr, ok) = scalana(&[
        "submit",
        "--addr",
        &addr,
        "--program-hash",
        "ffffffffffffffff",
    ]);
    assert!(!ok);
    assert!(stderr.contains("404"), "{stderr}");

    // Graceful shutdown: the daemon exits on its own.
    let (_, _, ok) = scalana(&["shutdown", "--addr", &addr]);
    assert!(ok);
    let status = daemon.0.wait().expect("daemon exits after shutdown");
    assert!(status.success());
}

#[test]
fn bad_usage_reports_errors() {
    let (_, stderr, ok) = scalana(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage:"));

    let (_, stderr, ok) = scalana(&["bogus"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));

    let (_, stderr, ok) = scalana(&["analyze", "/nonexistent.mmpi"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"));

    let path = write_demo("cli_badscales.mmpi");
    let (_, stderr, ok) = scalana(&["analyze", path.to_str().unwrap(), "--scales", "8,4"]);
    assert!(!ok);
    assert!(stderr.contains("ascending"));

    let (_, stderr, ok) = scalana(&["apps", "--run", "NOPE"]);
    assert!(!ok);
    assert!(stderr.contains("unknown app"));

    let (_, stderr, ok) = scalana(&["submit"]);
    assert!(!ok);
    assert!(
        stderr.contains("need exactly one of <file.mmpi>"),
        "{stderr}"
    );

    let (_, stderr, ok) = scalana(&["submit", "--app", "CG", "--program-hash", "abcd"]);
    assert!(!ok);
    assert!(
        stderr.contains("need exactly one of <file.mmpi>"),
        "{stderr}"
    );

    let (_, stderr, ok) = scalana(&["result", "--addr", "127.0.0.1:1"]);
    assert!(!ok);
    assert!(stderr.contains("exactly one JOB"), "{stderr}");

    // Port 1 is never listening: client commands fail with a clear
    // connection error rather than hanging.
    let (_, stderr, ok) = scalana(&["status", "--addr", "127.0.0.1:1"]);
    assert!(!ok);
    assert!(stderr.contains("cannot connect"), "{stderr}");
}

/// `scalana diff` prints, byte for byte, the body the daemon's former
/// `POST /v1/diff` endpoint answered for NPB-CG against CG with the
/// paper's Fig. 2 delay planted on rank 4 (length and FNV-1a digest,
/// recorded from that endpoint). Both files are named `cg.mmpi`, so
/// their locations match across the two sides.
#[test]
fn diff_prints_the_recorded_endpoint_body() {
    use scalana_apps::{cg, CgOptions};
    use scalana_service::hash::StableHasher;
    use scalana_service::{Server, ServiceConfig};

    let server = Server::bind(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    std::thread::spawn(move || server.run());

    let mut files = Vec::new();
    for (side, delay_rank) in [("a", None), ("b", Some(4))] {
        let dir = std::env::temp_dir().join(format!("cli_diff_{side}"));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cg.mmpi");
        let app = cg::build(&CgOptions {
            delay_rank,
            ..CgOptions::default()
        });
        std::fs::write(&path, app.source()).unwrap();
        files.push(path.to_str().unwrap().to_string());
    }
    let (stdout, stderr, ok) = scalana(&[
        "diff", "--addr", &addr, &files[0], &files[1], "--scales", "4,8",
    ]);
    assert!(ok, "diff failed: {stderr}");
    let body = stdout.strip_suffix('\n').unwrap();
    let mut hasher = StableHasher::new();
    hasher.write_bytes(body.as_bytes());
    assert_eq!(
        (body.len(), hasher.finish()),
        (1306, 0x02d5_44da_557d_e6a7),
        "{body}"
    );
    let _ = scalana(&["shutdown", "--addr", &addr]);
}
