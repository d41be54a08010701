//! The `symcosim-serve` daemon as a child process of the benchmark.
//!
//! The benchmark binary doubles as the daemon (`e2e serve-daemon` runs
//! the same [`Server`] the `symcosim-serve` binary runs), so a checkout
//! needs to build one package only. The parent reads the bound address
//! from the child's first stdout line and waits for `/healthz`.

use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use symcosim_serve::http::request;
use symcosim_serve::{Server, ServerConfig};

/// Verify workers the daemon runs (the machine the benchmark targets has
/// two cores).
pub const VERIFY_WORKERS: usize = 2;

/// Entry point of `e2e serve-daemon`: binds an ephemeral localhost port,
/// prints it, and serves until `POST /shutdown`.
pub fn daemon_main() -> ExitCode {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        verify_workers: VERIFY_WORKERS,
    };
    let served = Server::bind(&config).and_then(|server| {
        let addr = server.local_addr()?;
        let mut stdout = io::stdout();
        writeln!(stdout, "{addr}")?;
        stdout.flush()?;
        server.run()
    });
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("e2e serve-daemon: {error}");
            ExitCode::FAILURE
        }
    }
}

/// A running daemon child. Dropping it without [`Daemon::shutdown`] kills
/// the child and waits for it.
pub struct Daemon {
    child: Child,
    addr: String,
    // Held so the child's stdout stays open for its lifetime.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Spawns `exe serve-daemon` and waits until `/healthz` answers 200.
    ///
    /// # Errors
    ///
    /// Spawn failures, a child that exits before printing its address, or
    /// a health check that does not pass within ten seconds.
    pub fn spawn(exe: &Path) -> io::Result<Daemon> {
        let mut child = Command::new(exe)
            .arg("serve-daemon")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut addr = String::new();
        stdout.read_line(&mut addr)?;
        let mut daemon = Daemon {
            child,
            addr: addr.trim().to_string(),
            _stdout: stdout,
        };
        if daemon.addr.is_empty() {
            return Err(io::Error::other("daemon exited before binding"));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match request(&daemon.addr, "GET", "/healthz", None) {
                Ok(response) if response.status == 200 => return Ok(daemon),
                _ if Instant::now() >= deadline => {
                    daemon.kill();
                    return Err(io::Error::other("daemon failed its health check"));
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    /// The daemon's `HOST:PORT`.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The daemon's peak resident set so far, in MiB.
    ///
    /// # Errors
    ///
    /// When `/proc/<pid>/status` cannot be read.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Asks the daemon to stop and waits for it to exit.
    ///
    /// # Errors
    ///
    /// The shutdown request failed (the child is killed) or the daemon
    /// exited unsuccessfully.
    pub fn shutdown(mut self) -> io::Result<()> {
        if let Err(error) = request(&self.addr, "POST", "/shutdown", None) {
            self.kill();
            return Err(error);
        }
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("daemon exited with {status}")))
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            self.kill();
        }
    }
}

/// `VmHWM` of a `/proc/*/status` file, in MiB.
///
/// # Errors
///
/// When the file cannot be read or has no `VmHWM` line.
pub fn peak_rss_mb(status_path: &str) -> io::Result<f64> {
    let status = std::fs::read_to_string(status_path)?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| io::Error::other(format!("no VmHWM in {status_path}")))
}
