//! Building and running the release `tangled` binary.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a server may take to print its listening line.
const LISTEN_DEADLINE: Duration = Duration::from_secs(120);

/// Build `tangled` in release mode from the checkout in the working
/// directory and return the binary's path. Cargo's output goes to
/// standard error.
pub fn build_tangled() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--bin", "tangled"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of tangled failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let bin = target.join("release").join("tangled");
    if !bin.is_file() {
        return Err(format!("{} missing after build", bin.display()));
    }
    Ok(bin)
}

/// A running `tangled serve` process. Dropping it kills the process and
/// waits for it and for its output reader.
pub struct Server {
    child: Child,
    reader: Option<JoinHandle<()>>,
    /// The address it listens on.
    pub addr: SocketAddr,
    /// From spawn to the `trustd listening on` line.
    pub setup: Duration,
}

impl Server {
    /// Spawn `tangled --threads N serve 127.0.0.1:0 [--journal J]` and
    /// wait for it to listen.
    pub fn spawn(bin: &Path, threads: usize, journal: Option<&Path>) -> Result<Server, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--threads", &threads.to_string(), "serve", "127.0.0.1:0"]);
        if let Some(j) = journal {
            cmd.arg("--journal").arg(j);
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        let started = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // The reader forwards the first line, then drains the pipe until
        // the process exits so the server never blocks on a full pipe.
        let reader = std::thread::spawn(move || {
            let mut lines = BufReader::new(stdout);
            let mut first = String::new();
            let got = lines.read_line(&mut first).map(|n| n > 0).unwrap_or(false);
            let _ = tx.send((got, first, Instant::now()));
            let _ = std::io::copy(&mut lines, &mut std::io::sink());
        });
        let mut server = Server {
            child,
            reader: Some(reader),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setup: Duration::ZERO,
        };
        let (got, line, at) = rx
            .recv_timeout(LISTEN_DEADLINE)
            .map_err(|_| "server did not report listening in time".to_owned())?;
        if !got {
            return Err("server exited before listening".to_owned());
        }
        server.setup = at - started;
        server.addr = line
            .strip_prefix("trustd listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected server line '{}'", line.trim()))?;
        Ok(server)
    }

    /// The process's peak resident set (VmHWM) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("no VmHWM in {path}"))?;
        Ok(kb / 1024.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}
