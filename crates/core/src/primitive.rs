//! The three task preemption primitives compared in the paper, plus the
//! checkpoint-based alternative (Natjam) used as a qualitative reference.
//!
//! * [`PreemptionPrimitive::Wait`] — do nothing; the high-priority task waits
//!   for the slot. No work is wasted, but latency can be the entire remaining
//!   runtime of the low-priority task.
//! * [`PreemptionPrimitive::Kill`] — kill the low-priority task. The slot is
//!   released quickly (after a cleanup attempt removes partial output), but
//!   all work done so far is thrown away and re-done later.
//! * [`PreemptionPrimitive::SuspendResume`] — the paper's contribution: stop
//!   the task process with `SIGTSTP` and continue it later with `SIGCONT`.
//!   State stays in memory and is paged to swap only under actual memory
//!   pressure.
//! * [`PreemptionPrimitive::NatjamCheckpoint`] — application-level
//!   suspend/resume that serializes task state to disk on every preemption
//!   (and reads it back on resume), regardless of memory pressure; modelled
//!   analytically in [`crate::natjam`].

use mrp_engine::{SchedulerAction, TaskId, TaskState};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// A preemption primitive: what to do with a running low-priority task when a
/// high-priority task needs its slot.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum PreemptionPrimitive {
    /// Wait for the task to finish.
    Wait,
    /// Kill the task and reschedule it from scratch later.
    Kill,
    /// Suspend the task with `SIGTSTP`, resume it later with `SIGCONT`.
    SuspendResume,
    /// Application-level checkpointing (Natjam-style); behaves like
    /// suspend/resume for scheduling purposes but pays serialization costs
    /// accounted by [`crate::natjam::NatjamModel`].
    NatjamCheckpoint,
}

impl PreemptionPrimitive {
    /// All primitives evaluated in the paper's figures, in plot order.
    pub const PAPER_SET: [PreemptionPrimitive; 3] = [
        PreemptionPrimitive::Wait,
        PreemptionPrimitive::Kill,
        PreemptionPrimitive::SuspendResume,
    ];

    /// The action (if any) that evicts a task under this primitive.
    pub(crate) fn preempt_action(self, task: TaskId) -> Option<SchedulerAction> {
        match self {
            PreemptionPrimitive::Wait => None,
            PreemptionPrimitive::Kill => Some(SchedulerAction::Kill { task }),
            PreemptionPrimitive::SuspendResume | PreemptionPrimitive::NatjamCheckpoint => {
                Some(SchedulerAction::Suspend { task })
            }
        }
    }

    /// The action (if any) that gives the slot back to a previously preempted
    /// task in `state` under this primitive.
    pub(crate) fn restore_action(self, task: TaskId, state: TaskState) -> Option<SchedulerAction> {
        match self {
            PreemptionPrimitive::Wait => None,
            // A killed task is already schedulable; the launch policy will
            // relaunch it. Nothing explicit to do.
            PreemptionPrimitive::Kill => None,
            PreemptionPrimitive::SuspendResume | PreemptionPrimitive::NatjamCheckpoint => {
                if state == TaskState::Suspended {
                    Some(SchedulerAction::Resume { task })
                } else {
                    None
                }
            }
        }
    }

    /// Short label used in plots, traces and CSV output (`wait`, `kill`,
    /// `susp`, `natjam`) — matching the paper's figure legends.
    pub(crate) fn label(self) -> &'static str {
        match self {
            PreemptionPrimitive::Wait => "wait",
            PreemptionPrimitive::Kill => "kill",
            PreemptionPrimitive::SuspendResume => "susp",
            PreemptionPrimitive::NatjamCheckpoint => "natjam",
        }
    }
}

impl fmt::Display for PreemptionPrimitive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Error returned when parsing an unknown primitive name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownPrimitive(pub String);

impl fmt::Display for UnknownPrimitive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown preemption primitive: {}", self.0)
    }
}

impl std::error::Error for UnknownPrimitive {}

impl FromStr for PreemptionPrimitive {
    type Err = UnknownPrimitive;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "wait" => Ok(PreemptionPrimitive::Wait),
            "kill" => Ok(PreemptionPrimitive::Kill),
            "susp" | "suspend" | "suspend-resume" | "suspend_resume" => {
                Ok(PreemptionPrimitive::SuspendResume)
            }
            "natjam" | "checkpoint" => Ok(PreemptionPrimitive::NatjamCheckpoint),
            other => Err(UnknownPrimitive(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_engine::{JobId, TaskKind};

    fn task() -> TaskId {
        TaskId {
            job: JobId(1),
            kind: TaskKind::Map,
            index: 0,
        }
    }

    #[test]
    fn preempt_actions_match_semantics() {
        assert_eq!(PreemptionPrimitive::Wait.preempt_action(task()), None);
        assert!(matches!(
            PreemptionPrimitive::Kill.preempt_action(task()),
            Some(SchedulerAction::Kill { .. })
        ));
        assert!(matches!(
            PreemptionPrimitive::SuspendResume.preempt_action(task()),
            Some(SchedulerAction::Suspend { .. })
        ));
        assert!(matches!(
            PreemptionPrimitive::NatjamCheckpoint.preempt_action(task()),
            Some(SchedulerAction::Suspend { .. })
        ));
    }

    #[test]
    fn restore_actions() {
        assert_eq!(
            PreemptionPrimitive::SuspendResume.restore_action(task(), TaskState::Suspended),
            Some(SchedulerAction::Resume { task: task() })
        );
        assert_eq!(
            PreemptionPrimitive::SuspendResume.restore_action(task(), TaskState::Pending),
            None
        );
        assert_eq!(
            PreemptionPrimitive::Kill.restore_action(task(), TaskState::Pending),
            None
        );
        assert_eq!(
            PreemptionPrimitive::Wait.restore_action(task(), TaskState::Suspended),
            None
        );
    }

    #[test]
    fn parsing_and_labels() {
        for p in [
            PreemptionPrimitive::Wait,
            PreemptionPrimitive::Kill,
            PreemptionPrimitive::SuspendResume,
            PreemptionPrimitive::NatjamCheckpoint,
        ] {
            assert_eq!(p.label().parse::<PreemptionPrimitive>().unwrap(), p);
            assert_eq!(p.to_string(), p.label());
        }
        assert_eq!(
            "SUSPEND".parse::<PreemptionPrimitive>().unwrap(),
            PreemptionPrimitive::SuspendResume
        );
        assert!("teleport".parse::<PreemptionPrimitive>().is_err());
        assert_eq!(PreemptionPrimitive::PAPER_SET.len(), 3);
    }
}
