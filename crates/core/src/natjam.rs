//! An analytical model of application-level (Natjam-style) checkpointing,
//! used as the comparison point the paper argues against (Section II).
//!
//! Natjam suspends tasks at the "application layer": it saves progress
//! counters, and for stateful tasks it relies on hooks that serialize and
//! deserialize the task's in-JVM state. Two consequences follow:
//!
//! 1. the serialization / write / read / deserialization cost is paid on
//!    **every** preemption, whether or not the machine is under memory
//!    pressure — unlike the OS-assisted primitive, which pays only when (and
//!    only as much as) physical memory actually runs short;
//! 2. tasks that keep implicit state in the JVM (common for jobs compiled by
//!    Pig or Hive) cannot be suspended transparently at all.
//!
//! The Natjam authors report roughly a 7% makespan overhead in a setting
//! comparable to the paper's baseline experiments. The model below lets the
//! benchmark harness contrast a measured suspend/resume run with the cost a
//! checkpoint-based primitive would have paid on the same workload.

use mrp_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Cost parameters of a checkpoint-based suspend/resume implementation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NatjamModel {
    /// Rate at which task state is serialized (CPU-bound), bytes/second.
    pub(crate) serialize_bytes_per_sec: f64,
    /// Disk write bandwidth for the checkpoint file, bytes/second.
    pub(crate) disk_write_bytes_per_sec: f64,
    /// Disk read bandwidth when loading the checkpoint, bytes/second.
    pub(crate) disk_read_bytes_per_sec: f64,
    /// Rate at which state is deserialized, bytes/second.
    pub(crate) deserialize_bytes_per_sec: f64,
    /// Fixed per-checkpoint overhead (RPCs, file creation, commit), seconds.
    pub(crate) fixed_overhead_secs: f64,
    /// Fraction of a task's work that is redone after resuming from the last
    /// saved progress counter (checkpoint granularity).
    pub(crate) replay_fraction: f64,
}

impl Default for NatjamModel {
    fn default() -> Self {
        NatjamModel {
            serialize_bytes_per_sec: 400.0 * 1024.0 * 1024.0,
            disk_write_bytes_per_sec: 110.0 * 1024.0 * 1024.0,
            disk_read_bytes_per_sec: 120.0 * 1024.0 * 1024.0,
            deserialize_bytes_per_sec: 500.0 * 1024.0 * 1024.0,
            fixed_overhead_secs: 1.0,
            replay_fraction: 0.02,
        }
    }
}

/// Cost breakdown of one checkpoint-based suspend/resume cycle.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub(crate) struct CheckpointCost {
    /// Time to serialize and write the state at suspension.
    pub(crate) suspend: SimDuration,
    /// Time to read and deserialize the state at resumption.
    pub(crate) resume: SimDuration,
    /// Extra work-phase time re-executed because the checkpoint is coarser
    /// than the exact interruption point.
    pub(crate) replay: SimDuration,
}

impl CheckpointCost {
    /// Total overhead of the cycle.
    pub(crate) fn total(&self) -> SimDuration {
        self.suspend + self.resume + self.replay
    }
}

impl NatjamModel {
    /// Cost of suspending and later resuming a task whose serializable state
    /// is `state_bytes` and whose uninterrupted work phase lasts
    /// `work_duration`.
    pub(crate) fn cycle_cost(
        &self,
        state_bytes: u64,
        work_duration: SimDuration,
    ) -> CheckpointCost {
        let b = state_bytes as f64;
        let suspend = self.fixed_overhead_secs
            + b / self.serialize_bytes_per_sec
            + b / self.disk_write_bytes_per_sec;
        let resume = self.fixed_overhead_secs
            + b / self.disk_read_bytes_per_sec
            + b / self.deserialize_bytes_per_sec;
        CheckpointCost {
            suspend: SimDuration::from_secs_f64(suspend),
            resume: SimDuration::from_secs_f64(resume),
            replay: work_duration.mul_f64(self.replay_fraction),
        }
    }

    /// Predicted makespan of the paper's two-job scenario under checkpointing:
    /// the measured `wait` makespan (no preemption, no wasted work) plus one
    /// full checkpoint cycle for the preempted task.
    pub fn predicted_makespan_secs(
        &self,
        wait_makespan_secs: f64,
        state_bytes: u64,
        work_duration: SimDuration,
    ) -> f64 {
        wait_makespan_secs
            + self
                .cycle_cost(state_bytes, work_duration)
                .total()
                .as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_sim::{GIB, MIB};

    #[test]
    fn stateless_tasks_pay_only_the_fixed_overhead() {
        let m = NatjamModel::default();
        let cost = m.cycle_cost(0, SimDuration::from_secs(80));
        assert!((cost.suspend.as_secs_f64() - 1.0).abs() < 1e-9);
        assert!((cost.resume.as_secs_f64() - 1.0).abs() < 1e-9);
        assert!(cost.replay.as_secs_f64() > 0.0);
        assert!(cost.total().as_secs_f64() < 5.0);
    }

    #[test]
    fn large_state_makes_checkpointing_expensive() {
        let m = NatjamModel::default();
        let small = m.cycle_cost(64 * MIB, SimDuration::from_secs(80)).total();
        let big = m.cycle_cost(2 * GIB, SimDuration::from_secs(80)).total();
        assert!(big.as_secs_f64() > small.as_secs_f64() * 5.0);
        // 2 GB of state must serialize + write + read + deserialize: tens of seconds.
        assert!(big.as_secs_f64() > 30.0, "got {}", big.as_secs_f64());
    }

    #[test]
    fn checkpoint_cost_is_paid_even_without_memory_pressure() {
        // The key qualitative contrast with the OS-assisted primitive: for a
        // light-weight task on an idle machine the OS-assisted suspend costs
        // nothing, but the checkpoint still costs the full cycle.
        let m = NatjamModel::default();
        let cost = m.cycle_cost(512 * MIB, SimDuration::from_secs(80));
        assert!(cost.total().as_secs_f64() > 5.0);
    }

    #[test]
    fn predicted_overheads_compose() {
        let m = NatjamModel::default();
        let makespan = m.predicted_makespan_secs(170.0, 256 * MIB, SimDuration::from_secs(78));
        assert!(makespan > 170.0);
        // Natjam's reported ballpark: mid-single-digit percent overhead on the
        // light-weight workload.
        let overhead = (makespan - 170.0) / 170.0;
        assert!(overhead > 0.01 && overhead < 0.15, "overhead {overhead}");
    }
}
