//! The `od-serve` child process: spawned on a queue directory, killed
//! and reaped on every exit path (the guard's `Drop` runs on return,
//! error and panic alike), and the stray-process check that keeps
//! leftovers of an earlier run from sharing the cores.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

/// A running `od-serve --workers 1` on one queue directory, with the
/// idle timeout the client's keep-alive connection is paced by.
pub struct Serve {
    child: Child,
    /// Held so the banner pipe stays open for the child's lifetime.
    _stdout: BufReader<ChildStdout>,
    /// The bound listen address, read from the startup banner.
    pub addr: SocketAddr,
}

impl Serve {
    /// Spawns the service on an ephemeral port and waits for its
    /// `od-serve listening on <addr>` banner.
    pub fn spawn(bin: &Path, queue: &Path) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .arg("--queue-dir")
            .arg(queue)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--idle-timeout-ms",
            ])
            .arg(crate::client::SERVICE_IDLE_TIMEOUT_MS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        // From here on the guard owns the child, so a bad banner still
        // kills and reaps it.
        let mut serve = Self {
            child,
            _stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        serve
            ._stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading the od-serve banner: {e}"))?;
        serve.addr = line
            .trim()
            .strip_prefix("od-serve listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected od-serve banner {line:?}"))?;
        Ok(serve)
    }

    /// The child's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kib: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kib / 1024.0)
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Live `od-serve` / `od-run` processes other than our own children,
/// as `(pid, name)`.
pub fn stray_processes() -> Vec<(u32, String)> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut found = Vec::new();
    for entry in entries.flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let Ok(comm) = std::fs::read_to_string(entry.path().join("comm")) else {
            continue;
        };
        let comm = comm.trim();
        if comm == "od-serve" || comm == "od-run" {
            found.push((pid, comm.to_string()));
        }
    }
    found
}
