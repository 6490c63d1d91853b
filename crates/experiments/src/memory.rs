//! Memory-pressure scenarios for the block-granular swap-device model.
//!
//! The paper's worst case (Section IV-B) is a memory-hungry task whose dirty
//! state must travel through swap on every suspend/resume cycle. This module
//! scales that worst case from one node to a small cluster and turns the
//! OS-model knobs the swap device adds into an experiment family:
//!
//! * **eager vs. lazy resume** — [`resume_ablation`] runs the same seeded
//!   workload with the whole resident set faulted back at resume time versus
//!   a prefetch fraction plus demand faults (the rest arrives when the task
//!   next touches it, or at finalize);
//! * **resume cost vs. state size** — [`resume_cost_curve`] sweeps the dirty
//!   state per task and reports swap traffic per suspend cycle, the curve the
//!   `memory_pressure` bench pins down (it must *not* be flat);
//! * **thrashing** — [`MemoryPressureConfig::thrashing`] overcommits a node
//!   so hard that pages evicted for an allocation belong to the allocating
//!   task itself, surfaced by the kernel's `thrash_events` counter;
//! * **disk contention** — [`MemoryPressureConfig::contended`] kills a node
//!   mid-run so DFS re-replication traffic shares each disk with swap I/O
//!   (`background_share`), stretching every page-out.
//!
//! The workload is an HFSP queue: big memory-hungry batch jobs saturate every
//! map slot, then a stream of small jobs keeps jumping the queue, each arrival
//! suspending batch tasks whose state must page out and back. Suspend churn —
//! not task runtime — dominates, which is exactly where the swap model's
//! behavior is visible.

use mrp_engine::{
    Cluster, ClusterConfig, ClusterReport, FaultEvent, FaultKind, FaultPlan, JobSpec, NodeId,
    SwapConfig, TaskProfile, TraceLevel,
};
use mrp_sim::{SimDuration, SimTime, GIB, MIB};

use crate::catalogue::hfsp;

/// Configuration of one memory-pressure scenario run.
#[derive(Clone, Debug)]
pub struct MemoryPressureConfig {
    /// Nodes in the (single-rack) cluster.
    pub(crate) nodes: u32,
    /// Map slots per node. Two slots with `state_memory` sized so that two
    /// resident sets exceed usable RAM keeps every node under pressure.
    pub(crate) map_slots: u32,
    /// Physical RAM per node.
    pub(crate) total_ram: u64,
    /// Swap capacity per node (the block device the swap model manages).
    pub(crate) swap_capacity: u64,
    /// Dirty state each batch task allocates in its setup phase — the
    /// resident set that suspend/resume moves through swap.
    pub(crate) state_memory: u64,
    /// Memory-hungry batch jobs submitted at `t = 0`.
    pub(crate) batch_jobs: u32,
    /// Map tasks per batch job.
    pub(crate) batch_tasks: u32,
    /// Input bytes per batch task (sets task duration).
    pub(crate) batch_bytes: u64,
    /// Small queue-jumping jobs; one every `small_every_secs` from 45 s.
    pub(crate) small_jobs: u32,
    /// Map tasks per small job (how many batch tasks each arrival suspends).
    pub(crate) small_tasks: u32,
    /// Seconds between small-job arrivals.
    pub(crate) small_every_secs: u64,
    /// Swap-device knobs (`SwapConfig::default()` = legacy byte-granular
    /// accounting, the byte-identity baseline).
    pub(crate) swap: SwapConfig,
    /// Disk bandwidth share reserved for background DFS traffic while any is
    /// pending; `0.0` disables contention entirely.
    pub(crate) background_share: f64,
    /// Kill one node mid-run so re-replication traffic contends with swap.
    pub(crate) fault: bool,
    /// Replicated DFS ballast written with the doomed node as first replica,
    /// so its loss forces re-replication onto the survivors' disks. Only
    /// materialized when `fault` is set (the batch jobs are synthetic and
    /// store nothing in the DFS themselves).
    pub(crate) replicated_data: u64,
    /// Simulation seed.
    pub(crate) seed: u64,
}

impl MemoryPressureConfig {
    /// The bench-scale scenario: 16 nodes x 2 map slots, 3 GiB RAM per node
    /// and 1.5 GiB of dirty state per batch task, so two resident sets
    /// overflow usable RAM and every suspend pages real state out.
    pub fn full(swap: SwapConfig) -> Self {
        MemoryPressureConfig {
            nodes: 16,
            map_slots: 2,
            total_ram: 3 * GIB,
            swap_capacity: 16 * GIB,
            state_memory: 1536 * MIB,
            batch_jobs: 6,
            batch_tasks: 48,
            batch_bytes: 512 * MIB,
            small_jobs: 36,
            small_tasks: 8,
            small_every_secs: 15,
            swap,
            background_share: 0.0,
            fault: false,
            replicated_data: 8 * GIB,
            seed: 11,
        }
    }

    /// A compact scenario for tests and the bench's `--test` mode:
    /// 4 nodes / 8 map slots, a few minutes of simulated churn.
    pub fn small(swap: SwapConfig) -> Self {
        MemoryPressureConfig {
            nodes: 4,
            map_slots: 2,
            total_ram: 3 * GIB,
            swap_capacity: 16 * GIB,
            state_memory: 1536 * MIB,
            batch_jobs: 2,
            batch_tasks: 12,
            batch_bytes: 512 * MIB,
            small_jobs: 8,
            small_tasks: 4,
            small_every_secs: 20,
            swap,
            background_share: 0.0,
            fault: false,
            replicated_data: 4 * GIB,
            seed: 11,
        }
    }

    /// A calm variant: state fits comfortably, so nothing thrashes and the
    /// `thrash_events` counter must stay at zero (the bench gates on this).
    pub fn calm(mut self) -> Self {
        self.state_memory = 256 * MIB;
        self
    }

    /// Adds disk contention: one node dies mid-run, its DFS blocks
    /// re-replicate as background writes sharing every surviving disk with
    /// swap traffic at the given share.
    pub fn contended(mut self, share: f64) -> Self {
        self.background_share = share;
        self.fault = true;
        self
    }
}

/// Outcome of one memory-pressure scenario run.
#[derive(Clone, Debug)]
pub struct MemoryPressureOutcome {
    /// Discrete events the run processed (the bench's throughput unit).
    pub events_processed: u64,
    /// Suspend/resume cycles across all tasks.
    pub suspend_cycles: u64,
    /// The full engine report: per-node swap traffic, swap-stall time,
    /// thrash events and OOM kills, summed by its `total_*` helpers.
    pub report: ClusterReport,
}

impl MemoryPressureOutcome {
    /// Swap-in bytes per suspend cycle — the resume cost the paper's
    /// Figure 4 measures, here averaged over the whole run.
    pub(crate) fn swap_in_per_cycle(&self) -> f64 {
        if self.suspend_cycles == 0 {
            0.0
        } else {
            self.report.total_swap_in_bytes() as f64 / self.suspend_cycles as f64
        }
    }
}

/// Submits the scenario workload: the memory-hungry batch at `t = 0` and the
/// stream of small queue-jumpers. Everything is map-only and synthetic, so
/// the workload is a pure function of the config.
fn submit_workload(cluster: &mut Cluster, config: &MemoryPressureConfig) {
    for j in 0..config.batch_jobs {
        cluster.submit_job_at(
            JobSpec::synthetic(
                format!("batch-{j:02}"),
                config.batch_tasks,
                config.batch_bytes,
            )
            .with_profile(TaskProfile::memory_hungry(config.state_memory)),
            SimTime::from_secs(u64::from(j)),
        );
    }
    let mut at = SimTime::from_secs(45);
    for j in 0..config.small_jobs {
        cluster.submit_job_at(
            JobSpec::synthetic(format!("small-{j:03}"), config.small_tasks, 64 * MIB),
            at,
        );
        at += SimDuration::from_secs(config.small_every_secs);
    }
}

/// Builds the memory-pressure scenario's cluster with its workload
/// submitted, ready for [`Cluster::run`].
pub fn memory_pressure_cluster(config: &MemoryPressureConfig) -> Cluster {
    let mut cfg = ClusterConfig::small_cluster(config.nodes, config.map_slots, 1)
        .with_trace_level(TraceLevel::Off)
        .with_seed(config.seed)
        .with_swap(config.swap)
        .with_disk_background_share(config.background_share);
    for node in &mut cfg.nodes {
        node.os.memory.total_ram = config.total_ram;
        node.os.memory.swap_capacity = config.swap_capacity;
    }
    if config.fault {
        cfg = cfg.with_faults(FaultPlan {
            events: vec![FaultEvent {
                at: SimTime::from_secs(90),
                kind: FaultKind::Kill {
                    node: NodeId(config.nodes - 1),
                },
            }],
            random: None,
        });
    }
    let mut cluster = Cluster::new(cfg, hfsp());
    if config.fault {
        // DFS ballast whose first replica sits on the doomed node: its death
        // forces re-replication, which the survivors' disks serve as
        // background writes contending with swap at `background_share`.
        let doomed = NodeId(config.nodes - 1);
        for i in 0..config.replicated_data / GIB {
            cluster
                .create_input_file_from(&format!("/ballast-{i:02}"), GIB, Some(doomed))
                .expect("ballast paths are unique");
        }
    }
    submit_workload(&mut cluster, config);
    cluster
}

/// Runs one memory-pressure scenario to completion.
pub fn run_memory_pressure(config: &MemoryPressureConfig) -> MemoryPressureOutcome {
    let mut cluster = memory_pressure_cluster(config);
    cluster.run(SimTime::from_secs(24 * 3_600));
    let events_processed = cluster.events_processed();
    let report = cluster.report();
    assert!(
        report.all_jobs_complete(),
        "memory-pressure workload must drain"
    );
    MemoryPressureOutcome {
        events_processed,
        suspend_cycles: report
            .jobs
            .iter()
            .flat_map(|j| j.tasks.iter())
            .map(|t| u64::from(t.suspend_cycles))
            .sum(),
        report,
    }
}

/// Runs the scenario twice on the same seed — eager resume (the whole
/// resident set faulted back on `SIGCONT`) versus lazy resume (a prefetch
/// fraction up front, the rest on demand) — and returns `(eager, lazy)`.
/// Lazy must read strictly fewer swap bytes: pages the task never touches
/// again before its next suspension are never read back.
pub fn resume_ablation(
    config: &MemoryPressureConfig,
) -> (MemoryPressureOutcome, MemoryPressureOutcome) {
    let eager = run_memory_pressure(&MemoryPressureConfig {
        swap: SwapConfig {
            lazy_resume: false,
            ..SwapConfig::enabled()
        },
        ..config.clone()
    });
    let lazy = run_memory_pressure(&MemoryPressureConfig {
        swap: SwapConfig::lazy(),
        ..config.clone()
    });
    (eager, lazy)
}

/// One point of the resume-cost curve: the scenario re-run with a different
/// dirty-state size per batch task.
#[derive(Clone, Debug)]
pub struct ResumeCostPoint {
    /// Swap-in bytes per suspend cycle at this state size.
    pub swap_in_per_cycle: f64,
}

/// Sweeps `state_memory` and reports the per-cycle resume cost at each
/// point. The paper's Figure 4 in cluster form: the cost of a suspend/resume
/// cycle must grow with the resident set that travels through swap.
pub fn resume_cost_curve(
    config: &MemoryPressureConfig,
    state_sizes: &[u64],
) -> Vec<ResumeCostPoint> {
    state_sizes
        .iter()
        .map(|&state_memory| {
            let outcome = run_memory_pressure(&MemoryPressureConfig {
                state_memory,
                ..config.clone()
            });
            ResumeCostPoint {
                swap_in_per_cycle: outcome.swap_in_per_cycle(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MemoryPressureConfig {
        /// Overcommits so hard that a single task's resident set exceeds usable
        /// RAM: reclaim runs out of other victims and must evict the allocating
        /// task's own pages (`thrash_events` counts those self-evictions).
        fn thrashing(mut self) -> Self {
            self.state_memory = self.total_ram;
            self.batch_tasks = self.batch_tasks.min(8);
            self.small_jobs = 0;
            self
        }
    }

    #[test]
    fn memory_pressure_scenario_is_deterministic() {
        let config = MemoryPressureConfig::small(SwapConfig::enabled());
        let a = run_memory_pressure(&config);
        let b = run_memory_pressure(&config);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.report.makespan_secs(), b.report.makespan_secs());
        assert_eq!(a.report, b.report);
        assert_eq!(a.suspend_cycles, b.suspend_cycles);
    }

    #[test]
    fn pressure_workload_actually_churns_through_swap() {
        let outcome = run_memory_pressure(&MemoryPressureConfig::small(SwapConfig::enabled()));
        assert!(
            outcome.suspend_cycles >= 4,
            "small jobs must keep suspending batch tasks: {outcome:?}"
        );
        let report = &outcome.report;
        assert!(
            report.total_swap_out_bytes() > GIB,
            "suspended resident sets must page out: {}",
            report.total_swap_out_bytes()
        );
        let oom_kills: u64 = report.nodes.iter().map(|n| n.oom_kills).sum();
        assert_eq!(oom_kills, 0, "swap is sized to absorb the churn");
    }

    #[test]
    fn lazy_resume_reads_strictly_fewer_swap_bytes() {
        let (eager, lazy) = resume_ablation(&MemoryPressureConfig::small(SwapConfig::enabled()));
        let (lazy, eager) = (
            lazy.report.total_swap_in_bytes(),
            eager.report.total_swap_in_bytes(),
        );
        assert!(
            lazy < eager,
            "lazy resume must skip pages never touched again: lazy {lazy} vs eager {eager}"
        );
    }

    #[test]
    fn calm_variant_never_thrashes() {
        let outcome =
            run_memory_pressure(&MemoryPressureConfig::small(SwapConfig::enabled()).calm());
        let thrash_events: u64 = outcome.report.nodes.iter().map(|n| n.thrash_events).sum();
        assert_eq!(thrash_events, 0, "no overcommit, no thrash");
    }

    #[test]
    fn thrashing_variant_is_detected() {
        let outcome =
            run_memory_pressure(&MemoryPressureConfig::small(SwapConfig::enabled()).thrashing());
        let thrash_events: u64 = outcome.report.nodes.iter().map(|n| n.thrash_events).sum();
        assert!(
            thrash_events > 0,
            "a resident set larger than RAM must self-evict: {outcome:?}"
        );
    }

    #[test]
    fn resume_cost_grows_with_state_size() {
        let config = MemoryPressureConfig::small(SwapConfig::enabled());
        let curve = resume_cost_curve(&config, &[512 * MIB, 1536 * MIB]);
        assert!(
            curve[1].swap_in_per_cycle > curve[0].swap_in_per_cycle,
            "resume cost must scale with the resident set: {curve:?}"
        );
    }

    #[test]
    fn disk_contention_inflates_swap_io_time() {
        let base = MemoryPressureConfig::small(SwapConfig::enabled());
        let fault_only = run_memory_pressure(&base.clone().contended(0.0));
        let contended = run_memory_pressure(&base.clone().contended(0.5));
        let (contended, fault_only) = (
            contended.report.total_swap_io_secs(),
            fault_only.report.total_swap_io_secs(),
        );
        assert!(
            contended > fault_only,
            "re-replication sharing the disk must slow swap traffic: {contended:.1}s vs {fault_only:.1}s"
        );
    }
}
