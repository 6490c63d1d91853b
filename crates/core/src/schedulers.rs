//! Preemptive job schedulers built on top of the preemption primitives.
//!
//! The paper motivates the primitive with three scheduler families
//! (Section II): fairness schedulers (Hadoop FAIR/Capacity), deadline
//! schedulers, and size-based schedulers such as the authors' own HFSP. This
//! module provides working preemptive implementations of a FAIR-style
//! scheduler, an HFSP-style size-based scheduler and a multi-tenant DRF
//! scheduler with quota reclaim, all parameterised by the
//! [`PreemptionPrimitive`] and the [`EvictionPolicy`], so the ablation
//! benches can measure how the choice of primitive affects realistic
//! scheduling policies rather than only the paper's two-job scenario.
//!
//! Each scheduler is one type whose allocate/preempt/reclaim/backfill
//! stages (`pipeline.rs`) are plain fields, run in order on every hook.
//! Allocation goes through the engine's [`fill_node`](mrp_engine::fill_node),
//! the rack-aware slot filler the engine's FIFO default places through too;
//! each policy here only supplies the job order it serves.

use crate::eviction::{EvictionCandidate, EvictionPolicy};
use crate::pipeline::{
    Allocate, Backfill, DrfJobOrder, FairJobOrder, FairPreempt, HfspJobOrder, Reclaim, SizePreempt,
};
use crate::primitive::PreemptionPrimitive;
use mrp_engine::{
    JobId, JobRuntime, NodeId, SchedulerAction, SchedulerContext, SchedulerPolicy, TaskState,
    TenantLedger, BASE_TASK_MEMORY,
};
use mrp_sim::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

pub(crate) fn candidates_of(job: &JobRuntime) -> Vec<EvictionCandidate> {
    job.tasks
        .iter()
        .filter(|t| t.state == TaskState::Running)
        .map(|t| EvictionCandidate {
            task: t.id,
            progress: t.progress,
            memory_bytes: job.spec.profile.state_memory + BASE_TASK_MEMORY,
        })
        .collect()
}

/// A FAIR-style scheduler with preemption.
///
/// Every job is its own pool with an equal share of the cluster's map slots.
/// A job that has been running fewer slots than its fair share for longer
/// than `preemption_timeout` triggers preemption: tasks of over-share jobs
/// are evicted with the configured primitive, victims chosen by the eviction
/// policy (this is how the Hadoop FAIR scheduler warrants fairness, with
/// kill replaced by suspend/resume).
///
/// Each heartbeat allocates free slots to the most-starved jobs first, then
/// runs the deficit-triggered preemption.
pub struct FairScheduler {
    allocate: Allocate<FairJobOrder>,
    preempt: FairPreempt,
}

impl FairScheduler {
    /// Creates a FAIR scheduler for a cluster with `total_map_slots` map slots.
    pub fn new(
        primitive: PreemptionPrimitive,
        eviction: EvictionPolicy,
        total_map_slots: usize,
        preemption_timeout: SimDuration,
    ) -> Self {
        FairScheduler {
            allocate: Allocate::new(FairJobOrder::default()),
            preempt: FairPreempt::new(primitive, eviction, total_map_slots, preemption_timeout),
        }
    }
}

impl SchedulerPolicy for FairScheduler {
    fn on_heartbeat(&mut self, ctx: &SchedulerContext<'_>, node: NodeId) -> Vec<SchedulerAction> {
        let mut out = self.allocate.on_heartbeat(ctx, node);
        self.preempt.on_heartbeat(ctx, &mut out);
        out
    }

    fn on_job_submitted(
        &mut self,
        _ctx: &SchedulerContext<'_>,
        _job: JobId,
    ) -> Vec<SchedulerAction> {
        self.allocate.job_submitted();
        Vec::new()
    }

    fn on_job_finished(&mut self, _ctx: &SchedulerContext<'_>, job: JobId) -> Vec<SchedulerAction> {
        self.allocate.job_finished(job);
        Vec::new()
    }

    fn name(&self) -> &str {
        "fair"
    }
}

/// An HFSP-style size-based scheduler with preemption.
///
/// Jobs are ordered by remaining size (the input bytes of their unfinished
/// tasks scaled by reported progress, which the engine maintains as
/// `JobRuntime::remaining_bytes`); the smallest job runs first. When a newly submitted job is smaller than what is currently
/// running and no slots are free, tasks of the largest running job are
/// preempted with the configured primitive.
pub struct HfspScheduler {
    allocate: Allocate<HfspJobOrder>,
    preempt: SizePreempt,
}

impl HfspScheduler {
    /// Creates an HFSP-style scheduler.
    pub fn new(primitive: PreemptionPrimitive, eviction: EvictionPolicy) -> Self {
        HfspScheduler {
            allocate: Allocate::new(HfspJobOrder::default()),
            preempt: SizePreempt::new(primitive, eviction),
        }
    }
}

impl SchedulerPolicy for HfspScheduler {
    fn on_heartbeat(&mut self, ctx: &SchedulerContext<'_>, node: NodeId) -> Vec<SchedulerAction> {
        self.allocate.on_heartbeat(ctx, node)
    }

    fn on_job_submitted(&mut self, ctx: &SchedulerContext<'_>, job: JobId) -> Vec<SchedulerAction> {
        self.allocate.job_submitted();
        self.preempt.on_job_submitted(ctx, job)
    }

    fn on_job_finished(&mut self, _ctx: &SchedulerContext<'_>, job: JobId) -> Vec<SchedulerAction> {
        self.allocate.job_finished(job);
        Vec::new()
    }

    fn name(&self) -> &str {
        "hfsp"
    }
}

/// Configuration of a [`MultiTenantScheduler`].
pub struct MultiTenantConfig {
    /// Per-tenant weights; quota is `weight / Σ weights`.
    pub weights: Vec<f64>,
    /// Map slots in the cluster (DRF denominator).
    pub total_map_slots: u32,
    /// Reduce slots in the cluster (DRF denominator).
    pub total_reduce_slots: u32,
    /// Warm-up horizon excluded from the ledger's steady-state statistics.
    pub steady_after: SimTime,
    /// How reclaim evicts: `Kill` (work lost) or `SuspendResume` (the
    /// paper's OS-assisted primitive, work preserved).
    pub primitive: PreemptionPrimitive,
    /// Victim selection within a job.
    pub eviction: EvictionPolicy,
}

/// A multi-tenant scheduler: weighted DRF over tenants, with quota reclaim
/// and best-effort backfill — the shared-cluster setting the paper's
/// primitive was built for.
///
/// Each heartbeat allocates free slots to the tenant with the lowest
/// dominant share relative to its quota, then (once per simulated second)
/// evicts from best-effort jobs and over-quota tenants while starved tenants'
/// claims exceed free capacity — by kill or by OS-assisted suspend, the
/// paper's trade-off as the `primitive` knob — and finally backfills
/// best-effort jobs into whatever capacity is left, including slots freed
/// by suspension.
pub struct MultiTenantScheduler {
    allocate: Allocate<DrfJobOrder>,
    reclaim: Reclaim,
    backfill: Backfill,
}

impl MultiTenantScheduler {
    /// Creates the scheduler plus the [`TenantLedger`] it shares with its
    /// stages, for end-of-run share statistics.
    pub fn new(config: MultiTenantConfig) -> (Self, Rc<RefCell<TenantLedger>>) {
        let ledger = Rc::new(RefCell::new(TenantLedger::new(
            config.weights,
            config.total_map_slots,
            config.total_reduce_slots,
            config.steady_after,
        )));
        let scheduler = MultiTenantScheduler {
            allocate: Allocate::new(DrfJobOrder::new(ledger.clone())),
            reclaim: Reclaim::new(ledger.clone(), config.primitive, config.eviction),
            backfill: Backfill::default(),
        };
        (scheduler, ledger)
    }
}

impl SchedulerPolicy for MultiTenantScheduler {
    fn on_heartbeat(&mut self, ctx: &SchedulerContext<'_>, node: NodeId) -> Vec<SchedulerAction> {
        let mut out = self.allocate.on_heartbeat(ctx, node);
        self.reclaim.on_heartbeat(ctx, &mut out);
        self.backfill.on_heartbeat(ctx, node, &mut out);
        out
    }

    fn on_job_submitted(&mut self, ctx: &SchedulerContext<'_>, job: JobId) -> Vec<SchedulerAction> {
        self.allocate.job_submitted();
        self.backfill.job_submitted(ctx, job);
        Vec::new()
    }

    fn on_job_finished(&mut self, _ctx: &SchedulerContext<'_>, job: JobId) -> Vec<SchedulerAction> {
        self.allocate.job_finished(job);
        self.backfill.job_finished(job);
        Vec::new()
    }

    fn name(&self) -> &str {
        "multi_tenant"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_engine::{Cluster, ClusterConfig, JobSpec};
    use mrp_sim::{SimTime, MIB};

    fn two_job_cluster(scheduler: Box<dyn SchedulerPolicy>) -> mrp_engine::ClusterReport {
        let mut cluster = Cluster::new(ClusterConfig::paper_single_node(), scheduler);
        cluster.create_input_file("/big", 512 * MIB).unwrap();
        cluster.create_input_file("/small", 128 * MIB).unwrap();
        cluster.submit_job(JobSpec::map_only("big", "/big"));
        cluster.submit_job_at(JobSpec::map_only("small", "/small"), SimTime::from_secs(20));
        cluster.run(SimTime::from_secs(4 * 3_600));
        cluster.report()
    }

    #[test]
    fn hfsp_suspend_lets_the_small_job_jump_the_queue() {
        let report = two_job_cluster(Box::new(HfspScheduler::new(
            PreemptionPrimitive::SuspendResume,
            EvictionPolicy::ClosestToCompletion,
        )));
        assert!(report.all_jobs_complete());
        let small = report.sojourn_secs("small").unwrap();
        let big_job = report.job("big").unwrap();
        assert!(
            small < 60.0,
            "with preemption the small job should finish in ~25-40s, got {small}"
        );
        assert_eq!(big_job.tasks[0].suspend_cycles, 1);
        assert_eq!(big_job.tasks[0].attempts, 1, "no work lost");
    }

    #[test]
    fn hfsp_kill_wastes_the_big_jobs_work() {
        let report = two_job_cluster(Box::new(HfspScheduler::new(
            PreemptionPrimitive::Kill,
            EvictionPolicy::ClosestToCompletion,
        )));
        assert!(report.all_jobs_complete());
        let big_job = report.job("big").unwrap();
        assert!(big_job.wasted_work_secs() > 5.0);
        assert!(big_job.tasks[0].attempts >= 2);
    }

    #[test]
    fn hfsp_wait_does_not_preempt() {
        let report = two_job_cluster(Box::new(HfspScheduler::new(
            PreemptionPrimitive::Wait,
            EvictionPolicy::ClosestToCompletion,
        )));
        assert!(report.all_jobs_complete());
        let small = report.sojourn_secs("small").unwrap();
        assert!(
            small > 60.0,
            "without preemption the small job waits, got {small}"
        );
        assert_eq!(report.job("big").unwrap().tasks[0].suspend_cycles, 0);
    }

    #[test]
    fn hfsp_suspend_beats_kill_on_makespan_and_ties_on_small_job_latency() {
        let susp = two_job_cluster(Box::new(HfspScheduler::new(
            PreemptionPrimitive::SuspendResume,
            EvictionPolicy::ClosestToCompletion,
        )));
        let kill = two_job_cluster(Box::new(HfspScheduler::new(
            PreemptionPrimitive::Kill,
            EvictionPolicy::ClosestToCompletion,
        )));
        assert!(susp.makespan_secs().unwrap() < kill.makespan_secs().unwrap());
        assert!(susp.sojourn_secs("small").unwrap() <= kill.sojourn_secs("small").unwrap() + 5.0);
    }

    #[test]
    fn fair_scheduler_shares_a_two_slot_node() {
        let mut cfg = ClusterConfig::paper_single_node();
        cfg.nodes[0].map_slots = 2;
        let scheduler = FairScheduler::new(
            PreemptionPrimitive::SuspendResume,
            EvictionPolicy::ClosestToCompletion,
            2,
            SimDuration::from_secs(10),
        );
        let mut cluster = Cluster::new(cfg, Box::new(scheduler));
        // A job with many tasks hogs both slots; a later job should get one
        // of them back through fairness preemption.
        cluster.submit_job(JobSpec::synthetic("hog", 6, 256 * MIB));
        cluster.submit_job_at(
            JobSpec::synthetic("latecomer", 1, 256 * MIB),
            SimTime::from_secs(30),
        );
        cluster.run(SimTime::from_secs(8 * 3_600));
        let report = cluster.report();
        assert!(report.all_jobs_complete());
        let late = report.sojourn_secs("latecomer").unwrap();
        // Without preemption the latecomer would wait for a full task of the
        // hog to finish (~40s+); with fairness preemption it starts sooner.
        assert!(late < 140.0, "latecomer sojourn {late}");
        let hog = report.job("hog").unwrap();
        let suspensions: u32 = hog.tasks.iter().map(|t| t.suspend_cycles).sum();
        assert!(
            suspensions >= 1,
            "fairness should have suspended at least one hog task"
        );
    }

    #[test]
    fn fair_scheduler_without_contention_never_preempts() {
        let scheduler = FairScheduler::new(
            PreemptionPrimitive::SuspendResume,
            EvictionPolicy::ClosestToCompletion,
            1,
            SimDuration::from_secs(10),
        );
        let mut cluster = Cluster::new(ClusterConfig::paper_single_node(), Box::new(scheduler));
        cluster.submit_job(JobSpec::synthetic("solo", 2, 128 * MIB));
        cluster.run(SimTime::from_secs(4 * 3_600));
        let report = cluster.report();
        assert!(report.all_jobs_complete());
        assert_eq!(
            report
                .job("solo")
                .unwrap()
                .tasks
                .iter()
                .map(|t| t.suspend_cycles)
                .sum::<u32>(),
            0
        );
    }

    #[test]
    fn hfsp_on_racked_cluster_prefers_local_launches() {
        let mut cfg = ClusterConfig::racked_cluster(2, 2, 1, 1);
        cfg.dfs_replication = 1;
        let mut cluster = Cluster::new(
            cfg,
            Box::new(HfspScheduler::new(
                PreemptionPrimitive::SuspendResume,
                EvictionPolicy::ClosestToCompletion,
            )),
        );
        // All replicas on node 3 (rack 1): the first launch should be
        // node-local there, and the scheduler should still spill the
        // remaining blocks to rack-local/off-rack nodes rather than starve.
        cluster
            .create_input_file_from("/pinned", 512 * MIB, Some(mrp_engine::NodeId(3)))
            .unwrap();
        cluster.submit_job(JobSpec::map_only("pinned", "/pinned"));
        cluster.run(SimTime::from_secs(4 * 3_600));
        let report = cluster.report();
        assert!(report.all_jobs_complete());
        assert_eq!(report.locality.total(), 4, "four 128MB blocks, four maps");
        assert!(
            report.locality.node_local >= 1,
            "the replica holder must get node-local work: {:?}",
            report.locality
        );
        assert!(
            report.locality.rack_local + report.locality.off_rack >= 1,
            "non-holders must still get (remote) work: {:?}",
            report.locality
        );
    }

    #[test]
    fn speculation_re_executes_a_stranded_suspended_task() {
        // Two nodes, one map slot each. A four-task "big" job runs in two
        // waves; mid-wave-2 a smaller "medium" job arrives, and HFSP suspends
        // one wave-2 task to make room. The medium job then pins that node
        // while the other node drains — the suspended task is stranded: its
        // progress rate decays below half the job mean (anchored by the three
        // completed siblings). With speculation the idle node runs a backup
        // that finishes before the original can even resume
        // (first-finisher-wins), shrinking the makespan; without it the job
        // waits for the resume.
        let run = |speculation: bool| {
            let mut cfg = ClusterConfig::small_cluster(2, 1, 0);
            if speculation {
                cfg.speculation = mrp_engine::SpeculationConfig::enabled();
            }
            let mut cluster = Cluster::new(
                cfg,
                Box::new(HfspScheduler::new(
                    PreemptionPrimitive::SuspendResume,
                    EvictionPolicy::ClosestToCompletion,
                )),
            );
            cluster.submit_job(JobSpec::synthetic("big", 4, 256 * MIB));
            cluster.submit_job_at(
                JobSpec::synthetic("medium", 1, 320 * MIB),
                SimTime::from_secs(55),
            );
            cluster.run(SimTime::from_secs(8 * 3_600));
            let report = cluster.report();
            assert!(report.all_jobs_complete());
            report
        };
        let with_spec = run(true);
        let without = run(false);
        assert!(
            without.faults.speculative_launched == 0,
            "speculation off must not speculate"
        );
        assert!(
            with_spec.faults.speculative_launched >= 1,
            "the stranded suspended task must draw a backup: {:?}",
            with_spec.faults
        );
        assert!(
            with_spec.faults.speculative_won >= 1,
            "the backup finishes before the stranded original can resume: {:?}",
            with_spec.faults
        );
        assert!(
            with_spec.makespan_secs().unwrap() < without.makespan_secs().unwrap(),
            "speculative re-execution must shrink the makespan: {} vs {}",
            with_spec.makespan_secs().unwrap(),
            without.makespan_secs().unwrap()
        );
    }

    #[test]
    fn a_suspended_map_neither_blocks_nor_loses_its_node() {
        // One node with one map and one reduce slot. "b" suspends the larger
        // "a" and takes the map slot. "f", larger than "a", sits behind it
        // in HFSP's order with a pending map and reduce; "g" has no maps
        // and sits ahead of everything with one pending reduce.
        let mut cluster = Cluster::new(
            ClusterConfig::small_cluster(1, 1, 1),
            Box::new(HfspScheduler::new(
                PreemptionPrimitive::SuspendResume,
                EvictionPolicy::ClosestToCompletion,
            )),
        );
        cluster.submit_job(JobSpec::synthetic("a", 1, 512 * MIB));
        let at = SimTime::from_secs;
        cluster.submit_job_at(JobSpec::synthetic("b", 1, 64 * MIB), at(20));
        let f = JobSpec::synthetic("f", 1, 1024 * MIB).with_reduces(1);
        cluster.submit_job_at(f, at(25));
        cluster.submit_job_at(JobSpec::synthetic("g", 0, 0).with_reduces(1), at(30));
        cluster.run(SimTime::from_secs(4 * 3_600));
        assert!(cluster.report().all_jobs_complete());
        let lines: Vec<String> = cluster
            .trace()
            .iter()
            .map(|r| r.to_line(cluster.jobs()))
            .collect();
        // Where in the (chronological) trace `task` was first `what`.
        let first = |what: &str, task: &str| {
            lines
                .iter()
                .position(|l| l.contains(&format!("] {what} ")) && l.contains(&format!(" {task} ")))
                .unwrap_or_else(|| panic!("{task} never {what}"))
        };
        let a_map = "task_0001_m_000000";
        let a_suspended = first("Suspended", a_map);
        let a_resumed = first("Resumed", a_map);
        let b_done = first("Completed", "task_0002_m_000000");
        let f_reduce = first("Launched", "task_0003_r_000000");
        assert!(
            a_suspended < f_reduce && f_reduce < b_done,
            "with the map slot busy and a map suspended, f's reduce takes the \
             free reduce slot:\n{}",
            lines.join("\n")
        );
        let g_reduce = first("Launched", "task_0004_r_000000");
        assert!(
            b_done < a_resumed && a_resumed < g_reduce,
            "a resumes into the freed map slot while g, ahead of it, has \
             nothing to place:\n{}",
            lines.join("\n")
        );
        assert!(
            first("Launched", "task_0003_m_000000") > first("Completed", a_map),
            "f's fresh map waits for the resumed one"
        );
    }
}
