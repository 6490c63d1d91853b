//! # mrp-oschild — the preemption primitive on a real operating system
//!
//! The simulated stack reproduces the paper's *evaluation*; this crate
//! demonstrates that the *mechanism* is exactly what the paper says it is:
//! Hadoop tasks are ordinary child processes, so a TaskTracker can suspend
//! them with `SIGTSTP`, resume them with `SIGCONT`, and let the OS keep (or
//! page) their memory in the meantime.
//!
//! [`WorkerProcess`] spawns a real child process (by default a small
//! shell loop standing in for a task JVM), delivers job-control signals to
//! it, and observes its state through `/proc/<pid>/stat` — the same
//! information a TaskTracker would use. The example `os_prototype` and the
//! `os_prototype` bench measure real suspend/resume round-trip latencies.
//!
//! Everything here is Unix-only; on other platforms the API returns
//! [`OsChildError::Unsupported`].

#![warn(missing_docs, unreachable_pub)]

use serde::{Deserialize, Serialize};
use std::fmt;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Errors from driving a real worker process.
#[derive(Debug)]
pub enum OsChildError {
    /// Spawning the child failed.
    Spawn(std::io::Error),
    /// Sending a signal failed (e.g. the process is gone).
    Signal(std::io::Error),
    /// `/proc` could not be read for the child.
    ProcRead(std::io::Error),
    /// The child did not reach the expected state within the timeout.
    Timeout {
        /// The state that was expected (`T`, `R`/`S`, …).
        expected: char,
        /// The state observed when the timeout expired.
        observed: char,
    },
    /// The platform does not support POSIX job-control signals.
    Unsupported,
}

impl fmt::Display for OsChildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OsChildError::Spawn(e) => write!(f, "failed to spawn worker: {e}"),
            OsChildError::Signal(e) => write!(f, "failed to signal worker: {e}"),
            OsChildError::ProcRead(e) => write!(f, "failed to read /proc for worker: {e}"),
            OsChildError::Timeout { expected, observed } => {
                write!(
                    f,
                    "worker did not reach state '{expected}' (still '{observed}')"
                )
            }
            OsChildError::Unsupported => {
                write!(f, "POSIX job control is not supported on this platform")
            }
        }
    }
}

impl std::error::Error for OsChildError {}

/// POSIX signal numbers. Only `SIGKILL` is universal; the job-control
/// signals differ between Linux (SIGTSTP=20, SIGCONT=18 on x86/arm/riscv)
/// and the BSD family including macOS (SIGTSTP=18, SIGCONT=19). Linux on
/// mips/sparc uses yet another numbering and is reported as unsupported by
/// [`prototype_supported`].
const SIGKILL: i32 = 9;
#[cfg(target_os = "linux")]
const SIGTSTP: i32 = 20;
#[cfg(target_os = "linux")]
const SIGCONT: i32 = 18;
#[cfg(not(target_os = "linux"))]
const SIGTSTP: i32 = 18;
#[cfg(not(target_os = "linux"))]
const SIGCONT: i32 = 19;

/// Observed state of the worker, mirroring `/proc/<pid>/stat` field 3.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum WorkerState {
    /// Running or runnable (`R`) or sleeping in the kernel (`S`/`D`).
    Running,
    /// Stopped by a job-control signal (`T`).
    Stopped,
    /// Zombie / exited (`Z`, `X`) or no longer present.
    Exited,
}

/// Timing of one suspend/resume round trip on the real OS.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RoundTrip {
    /// Time from sending `SIGTSTP` to observing the `T` state.
    pub suspend_latency: Duration,
    /// Time from sending `SIGCONT` to observing the process runnable again.
    pub resume_latency: Duration,
    /// Resident set size (bytes) observed while the process was stopped.
    pub rss_while_stopped: u64,
}

/// A real child worker process that can be suspended and resumed.
#[derive(Debug)]
pub struct WorkerProcess {
    child: Child,
}

impl WorkerProcess {
    /// Spawns the default synthetic worker: a shell loop that keeps a small
    /// amount of state and burns CPU, standing in for a task JVM.
    pub fn spawn_busy_loop() -> Result<Self, OsChildError> {
        Self::spawn_command(Command::new("sh").args(["-c", "i=0; while true; do i=$((i+1)); done"]))
    }

    /// Spawns an arbitrary command as the worker.
    pub(crate) fn spawn_command(command: &mut Command) -> Result<Self, OsChildError> {
        if !cfg!(unix) {
            return Err(OsChildError::Unsupported);
        }
        let child = command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(OsChildError::Spawn)?;
        Ok(WorkerProcess { child })
    }

    /// The worker's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    #[cfg(unix)]
    fn send_signal(&self, signal: i32) -> Result<(), OsChildError> {
        // Declared directly instead of through the libc crate: the build
        // environment is offline and `kill(2)` is part of every Unix libc the
        // workspace targets.
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        let rc = unsafe { kill(self.child.id() as i32, signal) };
        if rc == 0 {
            Ok(())
        } else {
            Err(OsChildError::Signal(std::io::Error::last_os_error()))
        }
    }

    #[cfg(not(unix))]
    fn send_signal(&self, _signal: i32) -> Result<(), OsChildError> {
        Err(OsChildError::Unsupported)
    }

    /// Reads the worker's state from `/proc/<pid>/stat` (falls back to
    /// [`WorkerState::Exited`] when the entry is gone).
    pub fn state(&self) -> Result<WorkerState, OsChildError> {
        let path = format!("/proc/{}/stat", self.child.id());
        let stat = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WorkerState::Exited),
            Err(e) => return Err(OsChildError::ProcRead(e)),
        };
        // Field 3 follows the parenthesised command name.
        let state_char = stat
            .rsplit(") ")
            .next()
            .and_then(|rest| rest.chars().next())
            .unwrap_or('?');
        Ok(match state_char {
            'T' | 't' => WorkerState::Stopped,
            'Z' | 'X' | 'x' => WorkerState::Exited,
            _ => WorkerState::Running,
        })
    }

    /// Resident set size in bytes, from `/proc/<pid>/statm`.
    pub(crate) fn rss_bytes(&self) -> Result<u64, OsChildError> {
        let path = format!("/proc/{}/statm", self.child.id());
        let statm = std::fs::read_to_string(&path).map_err(OsChildError::ProcRead)?;
        let pages: u64 = statm
            .split_whitespace()
            .nth(1)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let page_size = 4096u64;
        Ok(pages * page_size)
    }

    fn wait_for(
        &self,
        predicate: impl Fn(WorkerState) -> bool,
        expected: char,
    ) -> Result<Duration, OsChildError> {
        let start = Instant::now();
        let timeout = Duration::from_secs(5);
        loop {
            let state = self.state()?;
            if predicate(state) {
                return Ok(start.elapsed());
            }
            if start.elapsed() > timeout {
                return Err(OsChildError::Timeout {
                    expected,
                    observed: match state {
                        WorkerState::Running => 'R',
                        WorkerState::Stopped => 'T',
                        WorkerState::Exited => 'Z',
                    },
                });
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Suspends the worker with `SIGTSTP` and waits for the `T` state.
    /// Returns the observed suspension latency.
    pub(crate) fn suspend(&self) -> Result<Duration, OsChildError> {
        self.send_signal(SIGTSTP)?;
        self.wait_for(|s| s == WorkerState::Stopped, 'T')
    }

    /// Resumes the worker with `SIGCONT` and waits for it to leave the `T`
    /// state. Returns the observed resume latency.
    pub(crate) fn resume(&self) -> Result<Duration, OsChildError> {
        self.send_signal(SIGCONT)?;
        self.wait_for(|s| s != WorkerState::Stopped, 'R')
    }

    /// Performs a full suspend/resume round trip and reports its timings,
    /// including the RSS retained while stopped (the paper's key point: the
    /// state stays in memory, nothing is serialized).
    pub fn suspend_resume_roundtrip(&self) -> Result<RoundTrip, OsChildError> {
        let suspend_latency = self.suspend()?;
        let rss_while_stopped = self.rss_bytes().unwrap_or(0);
        let resume_latency = self.resume()?;
        Ok(RoundTrip {
            suspend_latency,
            resume_latency,
            rss_while_stopped,
        })
    }

    /// Kills the worker with `SIGKILL` and reaps it.
    pub fn kill(mut self) -> Result<(), OsChildError> {
        let _ = self.send_signal(SIGKILL);
        let _ = self.child.wait();
        Ok(())
    }
}

impl Drop for WorkerProcess {
    fn drop(&mut self) {
        let _ = self.send_signal(SIGKILL);
        let _ = self.child.wait();
    }
}

/// True if the current environment supports the prototype (Unix with /proc).
pub fn prototype_supported() -> bool {
    // mips/sparc Linux number the job-control signals differently from the
    // constants above; refuse rather than deliver the wrong signal.
    let odd_signal_numbering = cfg!(all(
        target_os = "linux",
        any(
            target_arch = "mips",
            target_arch = "mips64",
            target_arch = "sparc",
            target_arch = "sparc64"
        )
    ));
    cfg!(unix) && !odd_signal_numbering && std::path::Path::new("/proc/self/stat").exists()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skip() -> bool {
        if prototype_supported() {
            false
        } else {
            eprintln!("skipping: /proc or POSIX signals unavailable");
            true
        }
    }

    #[test]
    fn worker_spawns_and_reports_running() {
        if skip() {
            return;
        }
        let w = WorkerProcess::spawn_busy_loop().unwrap();
        assert!(w.pid() > 0);
        assert_eq!(w.state().unwrap(), WorkerState::Running);
        w.kill().unwrap();
    }

    #[test]
    fn sigtstp_stops_and_sigcont_continues() {
        if skip() {
            return;
        }
        let w = WorkerProcess::spawn_busy_loop().unwrap();
        let suspend_latency = w.suspend().unwrap();
        assert_eq!(w.state().unwrap(), WorkerState::Stopped);
        assert!(suspend_latency < Duration::from_secs(1));
        let resume_latency = w.resume().unwrap();
        assert_ne!(w.state().unwrap(), WorkerState::Stopped);
        assert!(resume_latency < Duration::from_secs(1));
        w.kill().unwrap();
    }

    #[test]
    fn repeated_cycles_are_idempotent() {
        if skip() {
            return;
        }
        let w = WorkerProcess::spawn_busy_loop().unwrap();
        for _ in 0..3 {
            let rt = w.suspend_resume_roundtrip().unwrap();
            assert!(rt.suspend_latency < Duration::from_secs(1));
            assert!(rt.resume_latency < Duration::from_secs(1));
        }
        // Redundant SIGCONT to a running process is harmless.
        w.resume().unwrap();
        w.kill().unwrap();
    }

    #[test]
    fn memory_is_retained_across_suspension() {
        if skip() {
            return;
        }
        // A shell that holds ~32 MiB of dirty memory in a variable, then idles.
        let script = format!(
            "data=$(head -c {} /dev/zero | tr '\\0' 'x'); while true; do sleep 1; done",
            32 * 1024 * 1024
        );
        let w = match WorkerProcess::spawn_command(Command::new("sh").args(["-c", &script])) {
            Ok(w) => w,
            Err(_) => return, // the helper tools may be missing in minimal containers
        };
        // Give the shell a moment to build up its state.
        std::thread::sleep(Duration::from_millis(800));
        let before = w.rss_bytes().unwrap_or(0);
        let rt = w.suspend_resume_roundtrip().unwrap();
        // The stopped process keeps (at least most of) its resident memory:
        // nothing is serialized or dropped by the suspension itself.
        if before > 8 * 1024 * 1024 {
            assert!(
                rt.rss_while_stopped > before / 2,
                "stopped RSS {} vs before {}",
                rt.rss_while_stopped,
                before
            );
        }
        w.kill().unwrap();
    }

    #[test]
    fn signalling_a_dead_worker_fails_cleanly() {
        if skip() {
            return;
        }
        let w = WorkerProcess::spawn_busy_loop().unwrap();
        let pid = w.pid();
        w.kill().unwrap();
        // Either the proc entry is gone or it shows a zombie briefly; both are
        // acceptable "not alive" answers.
        let path = format!("/proc/{pid}/stat");
        if let Ok(stat) = std::fs::read_to_string(path) {
            assert!(!stat.is_empty());
        }
    }
}
