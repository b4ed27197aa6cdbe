//! The daemon under test, as a real child process: `scalbench`
//! re-executes itself with the hidden `__daemon` subcommand, so daemon
//! CPU and memory are read from `/proc/<pid>` apart from the load
//! generator's, a restart is a process restart, and the daemon runs
//! with its default cache capacities.

use crate::procfs;
use crate::spec::DAEMON_WORKERS;
use scalana_api::json::parse;
use scalana_api::{paths, Json};
use scalana_service::client::Conn;
use scalana_service::{Server, ServiceConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

/// The hidden subcommand's name.
pub const SUBCOMMAND: &str = "__daemon";

/// How long a daemon may take to exit after `/v1/shutdown` before it is
/// killed and the run fails.
const EXIT_BUDGET: Duration = Duration::from_secs(60);

/// Body of the `__daemon` subcommand: bind, print the bound address on
/// one line, serve until `/v1/shutdown`. `store_dir` "-" means none.
pub fn serve(store_dir: &str) -> Result<(), String> {
    let server = Server::bind(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: DAEMON_WORKERS,
        store_dir: (store_dir != "-").then(|| store_dir.to_string()),
        ..ServiceConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let mut out = std::io::stdout();
    writeln!(out, "{}", server.local_addr())
        .and_then(|()| out.flush())
        .map_err(|e| format!("stdout: {e}"))?;
    // The parent holds the other end of stdin for as long as it lives:
    // end-of-file means it is gone (killed, panicked), and an orphaned
    // daemon must not outlive the benchmark.
    std::thread::spawn(|| {
        let mut sink = Vec::new();
        let _ = std::io::stdin().read_to_end(&mut sink);
        std::process::exit(3);
    });
    server.run().map_err(|e| format!("serve: {e}"))
}

/// A running child daemon. Dropping it kills the child.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    /// Kept open so the child can tell a live parent from a dead one.
    _stdin: ChildStdin,
    pub addr: String,
}

impl Daemon {
    /// Spawn a daemon (on `store_dir` when given) and wait for its
    /// bound address. `Server::bind` loads the store before the child
    /// prints, so a daemon that has printed has finished its preload.
    pub fn spawn(store_dir: Option<&Path>) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let dir = store_dir.map_or_else(|| "-".to_string(), |d| d.display().to_string());
        let mut child = Command::new(exe)
            .args([SUBCOMMAND, &dir])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let mut line = String::new();
        let read = BufReader::new(child.stdout.take().expect("stdout was piped"))
            .read_line(&mut line)
            .map_err(|e| e.to_string());
        match read {
            Ok(n) if n > 0 => Ok(Daemon {
                child,
                _stdin: stdin,
                addr: line.trim().to_string(),
            }),
            failed => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("daemon printed no address: {failed:?}"))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::connect(&self.addr)
    }

    pub fn cpu_ms(&self) -> Result<f64, String> {
        procfs::cpu_ms(self.pid())
    }

    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        procfs::peak_rss_mb(self.pid())
    }

    /// Graceful stop: `POST /v1/shutdown`, then wait for the child to
    /// exit (it drains the write-behind backlog first). Returns the
    /// time from the request to the exit.
    pub fn shutdown(mut self) -> Result<Duration, String> {
        let started = Instant::now();
        self.connect()?
            .request_json("POST", paths::SHUTDOWN, "")
            .map_err(|e| format!("shutdown: {e}"))?;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(started.elapsed()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if started.elapsed() > EXIT_BUDGET => {
                    return Err(format!(
                        "daemon still running {EXIT_BUDGET:?} after shutdown"
                    ))
                }
                Ok(None) => std::thread::sleep(Duration::from_micros(200)),
                Err(e) => return Err(format!("wait for daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // No-ops after a clean `shutdown` (the child is already reaped).
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// An integer member of a `/v1/stats` document (absent reads as 0, as
/// the daemon's own decoder has it).
pub fn counter(stats: &Json, key: &str) -> f64 {
    stats.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// One scrape of `/v1/metrics`: `(sample name, value)` pairs.
#[derive(Debug, Default, Clone)]
pub struct Scrape(Vec<(String, f64)>);

impl Scrape {
    pub fn fetch(conn: &mut Conn) -> Result<Scrape, String> {
        let (code, text) = conn.request("GET", paths::METRICS, "")?;
        if code != 200 {
            return Err(format!("GET {}: {code}", paths::METRICS));
        }
        Ok(Scrape::parse_text(&text))
    }

    pub fn parse_text(text: &str) -> Scrape {
        Scrape(
            text.lines()
                .filter(|line| !line.starts_with('#'))
                .filter_map(|line| {
                    let (name, value) = line.rsplit_once(' ')?;
                    Some((name.to_string(), value.parse().ok()?))
                })
                .collect(),
        )
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Parse a response body the daemon sent as JSON.
pub fn parse_body(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    parse(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_reads_counters_and_summary_samples() {
        let scrape = Scrape::parse_text(
            "# TYPE scalana_job_ns summary\n\
             scalana_job_ns{quantile=\"0.5\"} 768\n\
             scalana_job_ns_count 4\n\
             scalana_job_ns_sum 5195578\n\
             # TYPE scalana_sim_events_total counter\n\
             scalana_sim_events_total 99\n\
             scalana_build_info{version=\"0.1.0\"} 1\n",
        );
        assert_eq!(scrape.get("scalana_job_ns_sum"), 5_195_578.0);
        assert_eq!(scrape.get("scalana_job_ns_count"), 4.0);
        assert_eq!(scrape.get("scalana_sim_events_total"), 99.0);
        assert_eq!(scrape.get("scalana_job_ns{quantile=\"0.5\"}"), 768.0);
        assert_eq!(scrape.get("absent"), 0.0);
    }
}
