//! POSIX-style signals and process run states.
//!
//! The paper's preemption primitive is built on exactly two signals:
//! `SIGTSTP` to suspend a task process and `SIGCONT` to resume it, chosen over
//! `SIGSTOP` because they can be caught by handlers that need to tidy up
//! external state (e.g. network connections) before the process stops. The
//! simulated kernel reproduces the delivery semantics that matter for the
//! evaluation: state transitions, signals to dead processes failing with
//! `ESRCH`, and `SIGKILL`/`SIGTERM` releasing all memory.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Subset of POSIX signals used by Hadoop task management.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Signal {
    /// Terminal stop: suspends the process, keeping its memory image intact.
    /// Unlike `SIGSTOP` it can be caught, so tasks may close external
    /// connections before stopping.
    Sigtstp,
    /// Continue a stopped process.
    Sigcont,
    /// Graceful termination request (Hadoop's normal task kill path).
    Sigterm,
    /// Forced termination; cannot be caught.
    Sigkill,
    /// Unconditional stop; cannot be caught. Provided for completeness and
    /// used in tests contrasting it with `SIGTSTP`.
    Sigstop,
}

impl fmt::Display for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Signal::Sigtstp => "SIGTSTP",
            Signal::Sigcont => "SIGCONT",
            Signal::Sigterm => "SIGTERM",
            Signal::Sigkill => "SIGKILL",
            Signal::Sigstop => "SIGSTOP",
        };
        f.write_str(name)
    }
}

/// Run state of a simulated process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum ProcessState {
    /// Schedulable and executing.
    Running,
    /// Stopped by `SIGTSTP`/`SIGSTOP`; memory image retained, not scheduled.
    Stopped,
    /// Exited voluntarily with a status code.
    Exited(i32),
    /// Terminated by a signal.
    Killed(Signal),
}

impl ProcessState {
    /// True if the process still exists (is not a terminated entry).
    pub(crate) fn is_alive(self) -> bool {
        matches!(self, ProcessState::Running | ProcessState::Stopped)
    }
}

/// The observable effect of delivering a signal.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum SignalEffect {
    /// The process transitioned from running to stopped.
    Suspended,
    /// The process transitioned from stopped to running.
    Resumed,
    /// The process was terminated by the signal.
    Terminated,
    /// The signal had no effect (e.g. `SIGCONT` to a running process).
    Ignored,
}

/// Errors returned by simulated kernel operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OsError {
    /// The target process does not exist or has already terminated (`ESRCH`).
    NoSuchProcess,
    /// The swap device is full and memory cannot be reclaimed; the kernel's
    /// OOM killer had to intervene.
    OutOfMemory,
    /// The operation is invalid for the process's current state.
    InvalidState,
}

impl fmt::Display for OsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OsError::NoSuchProcess => write!(f, "no such process (ESRCH)"),
            OsError::OutOfMemory => write!(f, "out of memory: swap exhausted"),
            OsError::InvalidState => write!(f, "operation invalid for the current process state"),
        }
    }
}

impl std::error::Error for OsError {}

/// Computes the state transition caused by delivering `signal` to a process in
/// `state`, without any side effects. The kernel uses this pure function so it
/// can be tested exhaustively.
pub fn transition(
    state: ProcessState,
    signal: Signal,
) -> Result<(ProcessState, SignalEffect), OsError> {
    if !state.is_alive() {
        return Err(OsError::NoSuchProcess);
    }
    let outcome = match (state, signal) {
        (ProcessState::Running, Signal::Sigtstp | Signal::Sigstop) => {
            (ProcessState::Stopped, SignalEffect::Suspended)
        }
        (ProcessState::Stopped, Signal::Sigtstp | Signal::Sigstop) => {
            (ProcessState::Stopped, SignalEffect::Ignored)
        }
        (ProcessState::Stopped, Signal::Sigcont) => (ProcessState::Running, SignalEffect::Resumed),
        (ProcessState::Running, Signal::Sigcont) => (ProcessState::Running, SignalEffect::Ignored),
        (_, Signal::Sigkill) => (
            ProcessState::Killed(Signal::Sigkill),
            SignalEffect::Terminated,
        ),
        (_, Signal::Sigterm) => (
            ProcessState::Killed(Signal::Sigterm),
            SignalEffect::Terminated,
        ),
        // Dead states were rejected above with ESRCH.
        (ProcessState::Exited(_) | ProcessState::Killed(_), _) => {
            unreachable!("dead states rejected above")
        }
    };
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tstp_suspends_running() {
        let (s, e) = transition(ProcessState::Running, Signal::Sigtstp).unwrap();
        assert_eq!(s, ProcessState::Stopped);
        assert_eq!(e, SignalEffect::Suspended);
    }

    #[test]
    fn cont_resumes_stopped() {
        let (s, e) = transition(ProcessState::Stopped, Signal::Sigcont).unwrap();
        assert_eq!(s, ProcessState::Running);
        assert_eq!(e, SignalEffect::Resumed);
    }

    #[test]
    fn redundant_signals_are_ignored() {
        let (s, e) = transition(ProcessState::Running, Signal::Sigcont).unwrap();
        assert_eq!(s, ProcessState::Running);
        assert_eq!(e, SignalEffect::Ignored);
        let (s, e) = transition(ProcessState::Stopped, Signal::Sigtstp).unwrap();
        assert_eq!(s, ProcessState::Stopped);
        assert_eq!(e, SignalEffect::Ignored);
    }

    #[test]
    fn kill_terminates_from_any_live_state() {
        for st in [ProcessState::Running, ProcessState::Stopped] {
            let (s, e) = transition(st, Signal::Sigkill).unwrap();
            assert_eq!(s, ProcessState::Killed(Signal::Sigkill));
            assert_eq!(e, SignalEffect::Terminated);
            let (s, _) = transition(st, Signal::Sigterm).unwrap();
            assert_eq!(s, ProcessState::Killed(Signal::Sigterm));
        }
    }

    #[test]
    fn signalling_dead_process_is_esrch() {
        for st in [
            ProcessState::Exited(0),
            ProcessState::Killed(Signal::Sigkill),
        ] {
            for sig in [Signal::Sigtstp, Signal::Sigcont, Signal::Sigkill] {
                assert_eq!(transition(st, sig), Err(OsError::NoSuchProcess));
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Signal::Sigtstp.to_string(), "SIGTSTP");
        assert_eq!(Signal::Sigcont.to_string(), "SIGCONT");
        assert_eq!(
            OsError::NoSuchProcess.to_string(),
            "no such process (ESRCH)"
        );
    }
}
