//! What `/proc` and the toolchain say: CPU time and peak memory of a
//! process, and the host fingerprint stamped on every result file.

use scalana_api::Json;
use std::process::Command;

/// Kernel clock ticks per second in `/proc/<pid>/stat`. `USER_HZ` is
/// 100 on every Linux ABI this repository builds for.
const TICKS_PER_S: f64 = 100.0;

/// `utime + stime` of a process (all threads) in milliseconds.
pub fn cpu_ms(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // The command name (field 2) may hold spaces; fields count from
    // after its closing parenthesis, where field 3 (state) comes first.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| format!("{path}: no command field"))?;
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("{path}: short stat line"))
    };
    Ok((tick()? + tick()?) * 1000.0 / TICKS_PER_S)
}

/// `VmHWM` (peak resident set) of a process in MB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Where and how a result was measured. `compare` refuses two result
/// files whose fingerprints differ in anything but the commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub governor: String,
    pub rustc: String,
    pub profile: String,
    pub commit: String,
}

impl Fingerprint {
    pub fn read() -> Fingerprint {
        let unknown = || "unknown".to_string();
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(unknown);
        let governor =
            std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
                .map(|g| g.trim().to_string())
                .unwrap_or_else(|_| "unreadable".to_string());
        // Mirrors `[profile.release]` in this package's Cargo.toml, which
        // mirrors the repository's; `debug_assertions` tells a debug
        // build (never a valid measurement) apart.
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release lto=thin codegen-units=4"
        };
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(0, usize::from),
            cpu_model,
            governor,
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(unknown),
            profile: profile.to_string(),
            commit: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("nproc", self.nproc.into()),
            ("cpu_model", self.cpu_model.as_str().into()),
            ("governor", self.governor.as_str().into()),
            ("rustc", self.rustc.as_str().into()),
            ("profile", self.profile.as_str().into()),
            ("commit", self.commit.as_str().into()),
        ])
    }

    pub fn from_json(doc: &Json) -> Option<Fingerprint> {
        let text = |key: &str| Some(doc.get(key)?.as_str()?.to_string());
        Some(Fingerprint {
            nproc: doc.get("nproc")?.as_i64()? as usize,
            cpu_model: text("cpu_model")?,
            governor: text("governor")?,
            rustc: text("rustc")?,
            profile: text("profile")?,
            commit: text("commit")?,
        })
    }

    /// The fields two result files must share to be comparable, or the
    /// name of the first that differs.
    pub fn same_host(&self, other: &Fingerprint) -> Result<(), String> {
        let fields = [
            ("nproc", self.nproc.to_string(), other.nproc.to_string()),
            ("cpu_model", self.cpu_model.clone(), other.cpu_model.clone()),
            ("governor", self.governor.clone(), other.governor.clone()),
            ("rustc", self.rustc.clone(), other.rustc.clone()),
            ("profile", self.profile.clone(), other.profile.clone()),
        ];
        match fields.into_iter().find(|(_, a, b)| a != b) {
            Some((name, a, b)) => Err(format!("{name} differs: `{a}` vs `{b}`")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_has_cpu_time_and_memory() {
        let pid = std::process::id();
        assert!(cpu_ms(pid).unwrap() >= 0.0);
        assert!(peak_rss_mb(pid).unwrap() > 1.0);
        assert!(cpu_ms(u32::MAX).is_err());
    }

    #[test]
    fn fingerprint_round_trips_and_commit_is_not_compared() {
        let a = Fingerprint::read();
        assert_eq!(Fingerprint::from_json(&a.to_json()), Some(a.clone()));
        let mut b = a.clone();
        b.commit = "other".to_string();
        assert!(a.same_host(&b).is_ok());
        b.nproc += 1;
        assert!(a.same_host(&b).unwrap_err().starts_with("nproc differs"));
    }
}
