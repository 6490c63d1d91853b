//! # mrp-engine — a Hadoop-1 style MapReduce engine with suspend/resume
//!
//! This crate is the "patched Hadoop" of the reproduction: a discrete-event
//! model of the Hadoop 1 control plane — JobTracker, TaskTrackers, heartbeats,
//! map/reduce slots, task attempts — extended with the paper's OS-assisted
//! preemption protocol:
//!
//! * new JobTracker task states `MUST_SUSPEND`, `SUSPENDED`, `MUST_RESUME`
//!   ([`TaskState`]), mirroring the kill path;
//! * commands piggybacked on TaskTracker heartbeats (suspend, resume, kill),
//!   with the completion race handled the way Section III-B describes;
//! * TaskTrackers delivering `SIGTSTP` / `SIGCONT` / `SIGKILL` to task child
//!   processes through the simulated kernel (`mrp-simos`), so that memory
//!   pressure — not checkpointing — determines the cost of preemption.
//!
//! Scheduling *policy* is pluggable through [`SchedulerPolicy`]; this crate
//! only ships the non-preemptive priority-FIFO default ([`FifoScheduler`]).
//! Every policy places work through one slot filler, [`fill_node`], handing
//! it the job order it serves; the filler owns locality tiers, delay
//! declines, resume-first and the speculation trigger. The paper's dummy
//! trigger-driven scheduler, its preemption primitives (`wait`, `kill`,
//! `suspend/resume`) and the preemptive job schedulers live in the
//! `mrp-preempt` crate.
//!
//! ```
//! use mrp_engine::{Cluster, ClusterConfig, FifoScheduler, JobSpec};
//! use mrp_sim::{SimTime, MIB};
//!
//! let mut cluster = Cluster::new(ClusterConfig::paper_single_node(),
//!                                Box::new(FifoScheduler::new()));
//! cluster.create_input_file("/user/test/input-512mb", 512 * MIB).unwrap();
//! cluster.submit_job(JobSpec::map_only("tl", "/user/test/input-512mb"));
//! cluster.run(SimTime::from_secs(3_600));
//! let report = cluster.report();
//! assert!(report.all_jobs_complete());
//! ```

#![warn(missing_docs, unreachable_pub)]
#![deny(unsafe_code)]

mod attempt;
mod cluster;
mod config;
mod delay;
mod failure;
mod job;
mod metrics;
mod obs;
mod placement;
mod plugin;
mod reliability;
mod scheduler;
mod shuffle;
mod tasktracker;

pub use attempt::{Attempt, BASE_TASK_MEMORY};
pub use cluster::Cluster;
pub use config::{
    ClusterConfig, DelayConfig, DetectorConfig, FaultEvent, FaultKind, FaultPlan, NodeConfig,
    ObsConfig, RandomFaults, ReliabilityConfig, ShuffleConfig, SpeculationConfig, TraceLevel,
};
pub use delay::DelayScoreboard;
pub use job::{
    AttemptId, JobId, JobRuntime, JobSpec, JobTable, MapInput, TaskId, TaskKind, TaskProfile,
    TaskRuntime, TaskState,
};
pub use metrics::{
    ClusterReport, FaultStats, JobReport, KillCause, LocalityStats, NodeLoss, NodeReport, Record,
    TaskReport, DELAY_WAIT_BUCKET_SECS,
};
pub use obs::{ObsState, Span, SpanKind, ACTION_KINDS};
pub use placement::{fill_node, LocalityIndex};
pub use plugin::{TenantLedger, TenantShareStats};
pub use reliability::ReliabilityTracker;
pub use scheduler::{
    FifoScheduler, PendingTotals, RackSlots, SchedulerAction, SchedulerContext, SchedulerPolicy,
};
pub use shuffle::ShuffleTracker;
pub use tasktracker::TaskTracker;

// Re-exported so downstream crates can talk about placement without pulling
// in the DFS crate explicitly.
pub use mrp_dfs::{Locality, NodeId, RackId, Topology};

// Re-exported so downstream crates can configure the block-granular swap
// device (see [`ClusterConfig::with_swap`]) without depending on `mrp-simos`.
pub use mrp_simos::SwapConfig;

#[cfg(test)]
mod randomized_tests {
    //! Property-style tests driven by seeded randomization (the container has
    //! no proptest); fixed seeds keep every failure reproducible.

    use super::*;
    use mrp_sim::{SimRng, SimTime, MIB};

    /// Any mix of map-only jobs on a small cluster runs to completion,
    /// without paging unless memory demands exceed RAM.
    #[test]
    fn random_workloads_complete() {
        for case in 0..16u64 {
            let mut rng = SimRng::new(0xE9E + case);
            let n = 1 + rng.index(4);
            let mut cfg = ClusterConfig::paper_single_node();
            cfg.nodes[0].map_slots = 1 + rng.index(2) as u32;
            let mut cluster = Cluster::new(cfg, Box::new(FifoScheduler::new()));
            for i in 0..n {
                let path = format!("/input-{i}");
                let size_mib = 32 + rng.index(736) as u64;
                cluster.create_input_file(&path, size_mib * MIB).unwrap();
                cluster.submit_job_at(
                    JobSpec::map_only(format!("job-{i}"), path),
                    SimTime::from_secs(rng.index(200) as u64),
                );
            }
            cluster.run(SimTime::from_secs(24 * 3_600));
            let report = cluster.report();
            assert!(report.all_jobs_complete());
            assert!(report.makespan_secs().unwrap() > 0.0);
            // Light-weight jobs never page, regardless of how many there are:
            // only one runs per slot and each fits comfortably in RAM.
            assert_eq!(report.total_swap_out_bytes(), 0);
            for job in &report.jobs {
                for task in &job.tasks {
                    assert!(task.attempts >= 1);
                    assert!((task.progress - 1.0).abs() < 1e-9);
                }
            }
        }
    }

    /// The engine is deterministic: the same configuration and seed give
    /// byte-identical reports.
    #[test]
    fn runs_are_deterministic() {
        for case in 0..8u64 {
            let mut rng = SimRng::new(0xDE7 + case);
            let size_mib = 64 + rng.index(448) as u64;
            let arrival = rng.index(60) as u64;
            let run = || {
                let mut cluster = Cluster::new(
                    ClusterConfig::paper_single_node(),
                    Box::new(FifoScheduler::new()),
                );
                cluster.create_input_file("/a", size_mib * MIB).unwrap();
                cluster.create_input_file("/b", 256 * MIB).unwrap();
                cluster.submit_job(JobSpec::map_only("a", "/a"));
                cluster.submit_job_at(JobSpec::map_only("b", "/b"), SimTime::from_secs(arrival));
                cluster.run(SimTime::from_secs(24 * 3_600));
                cluster.report()
            };
            assert_eq!(run(), run());
        }
    }
}
