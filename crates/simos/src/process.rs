//! Simulated processes.
//!
//! Hadoop map and reduce tasks are ordinary Unix child processes spawned by
//! the TaskTracker (one JVM per task attempt). The simulated kernel keeps a
//! process table with exactly the information the preemption primitive relies
//! on: run state, lifetimes, and a per-process view of memory (resident,
//! swapped) maintained by the [`crate::memory::MemoryManager`].

use crate::signal::{ProcessState, Signal};
use mrp_sim::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a simulated process, unique within one simulated node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Pid(pub u32);

impl fmt::Debug for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid:{}", self.0)
    }
}

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A process table entry.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Process {
    /// The process identifier.
    pub pid: Pid,
    /// Human-readable name (e.g. `attempt_0001_m_000000_0`).
    pub name: String,
    /// Current run state.
    pub state: ProcessState,
    /// Virtual time at which the process was spawned.
    pub spawned_at: SimTime,
    /// Virtual time of the last state change.
    pub state_changed_at: SimTime,
    /// Number of times the process has been stopped (suspend cycles).
    pub suspend_count: u32,
    /// Number of times the process has been continued.
    pub resume_count: u32,
}

impl Process {
    /// Creates a new running process entry.
    pub(crate) fn new(pid: Pid, name: impl Into<String>, now: SimTime) -> Self {
        Process {
            pid,
            name: name.into(),
            state: ProcessState::Running,
            spawned_at: now,
            state_changed_at: now,
            suspend_count: 0,
            resume_count: 0,
        }
    }

    /// Records a state change at `now`, updating suspend/resume counters when
    /// the transition stops or continues the process.
    pub(crate) fn set_state(&mut self, state: ProcessState, now: SimTime) {
        if self.state.is_alive()
            && state == ProcessState::Stopped
            && self.state != ProcessState::Stopped
        {
            self.suspend_count += 1;
        }
        if self.state == ProcessState::Stopped && state == ProcessState::Running {
            self.resume_count += 1;
        }
        self.state = state;
        self.state_changed_at = now;
    }

    /// Terminal exit triggered by the process itself.
    pub(crate) fn exit(&mut self, code: i32, now: SimTime) {
        self.set_state(ProcessState::Exited(code), now);
    }

    /// Terminal exit caused by a signal.
    pub(crate) fn killed_by(&mut self, signal: Signal, now: SimTime) {
        self.set_state(ProcessState::Killed(signal), now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_process_is_running() {
        let p = Process::new(Pid(1), "attempt_0001_m_000000_0", SimTime::from_secs(5));
        assert!(p.state.is_alive());
        assert_eq!(p.state, ProcessState::Running);
        assert_eq!(p.spawned_at, SimTime::from_secs(5));
        assert_eq!(p.suspend_count, 0);
    }

    #[test]
    fn suspend_resume_counters() {
        let mut p = Process::new(Pid(1), "t", SimTime::ZERO);
        p.set_state(ProcessState::Stopped, SimTime::from_secs(1));
        p.set_state(ProcessState::Running, SimTime::from_secs(2));
        p.set_state(ProcessState::Stopped, SimTime::from_secs(3));
        assert_eq!(p.suspend_count, 2);
        assert_eq!(p.resume_count, 1);
        assert_eq!(p.state_changed_at, SimTime::from_secs(3));
    }

    #[test]
    fn redundant_stop_does_not_double_count() {
        let mut p = Process::new(Pid(1), "t", SimTime::ZERO);
        p.set_state(ProcessState::Stopped, SimTime::from_secs(1));
        p.set_state(ProcessState::Stopped, SimTime::from_secs(2));
        assert_eq!(p.suspend_count, 1);
    }

    #[test]
    fn termination() {
        let mut p = Process::new(Pid(2), "t", SimTime::ZERO);
        p.exit(0, SimTime::from_secs(1));
        assert!(!p.state.is_alive());
        assert_eq!(p.state, ProcessState::Exited(0));
        let mut q = Process::new(Pid(3), "t", SimTime::ZERO);
        q.killed_by(Signal::Sigkill, SimTime::from_secs(1));
        assert_eq!(q.state, ProcessState::Killed(Signal::Sigkill));
    }

    #[test]
    fn pid_display() {
        assert_eq!(Pid(42).to_string(), "42");
        assert_eq!(format!("{:?}", Pid(42)), "pid:42");
    }
}
