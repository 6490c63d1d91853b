//! Preemptive job schedulers built on top of the preemption primitives.
//!
//! The paper motivates the primitive with three scheduler families
//! (Section II): fairness schedulers (Hadoop FAIR/Capacity), deadline
//! schedulers, and size-based schedulers such as the authors' own HFSP. This
//! module provides working preemptive implementations of a FAIR-style
//! scheduler, an HFSP-style size-based scheduler, a priority scheduler and
//! a multi-tenant DRF scheduler with quota reclaim, all parameterised by the
//! [`PreemptionPrimitive`] and the [`EvictionPolicy`], so the ablation
//! benches can measure how the choice of primitive affects realistic
//! scheduling policies rather than only the paper's two-job scenario.
//!
//! Each scheduler is one type whose allocate/preempt/reclaim stages
//! (`pipeline.rs`) are plain fields, run in order on every hook.
//! Allocation goes through the engine's [`fill_node`](mrp_engine::fill_node),
//! the rack-aware slot filler the engine's FIFO default places through too;
//! each policy here only supplies the job order it serves.

use crate::eviction::{EvictionCandidate, EvictionPolicy};
use crate::pipeline::{
    Allocate, DrfJobOrder, FairJobOrder, FairPreempt, HfspJobOrder, PriorityPreempt, Reclaim,
    SizePreempt,
};
use crate::primitive::PreemptionPrimitive;
use mrp_engine::{
    FifoScheduler, JobId, JobRuntime, NodeId, SchedulerAction, SchedulerContext, SchedulerPolicy,
    TaskState, TenantLedger, BASE_TASK_MEMORY,
};
use mrp_sim::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// The running tasks of `job` an [`Evictor`](crate::pipeline::Evictor) may
/// pick from: the one place eviction candidates are built.
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

/// A priority scheduler with preemption: the Introduction's motivating case
/// (production jobs preempting best-effort work) as a policy.
///
/// Each heartbeat places work through the engine's [`FifoScheduler`], which
/// serves jobs by priority, then submission, and resumes suspended tasks as
/// their job's turn comes. Whenever a job arrives or a node heartbeats,
/// jobs whose waiting tasks free slots and evictions already under way
/// cannot cover evict running tasks of strictly lower-priority jobs with
/// the configured primitive, victims chosen by the eviction policy. A
/// suspended task counts only the slots and evictions on its own node.
pub struct PriorityScheduler {
    allocate: FifoScheduler,
    preempt: PriorityPreempt,
}

impl PriorityScheduler {
    /// Creates the scheduler.
    pub fn new(primitive: PreemptionPrimitive, eviction: EvictionPolicy) -> Self {
        PriorityScheduler {
            allocate: FifoScheduler::new(),
            preempt: PriorityPreempt::new(primitive, eviction),
        }
    }
}

impl SchedulerPolicy for PriorityScheduler {
    fn on_heartbeat(&mut self, ctx: &SchedulerContext<'_>, node: NodeId) -> Vec<SchedulerAction> {
        let mut out = self.allocate.on_heartbeat(ctx, node);
        self.preempt.preempt(ctx, &mut out);
        out
    }

    fn on_job_submitted(
        &mut self,
        ctx: &SchedulerContext<'_>,
        _job: JobId,
    ) -> Vec<SchedulerAction> {
        let mut out = Vec::new();
        self.preempt.preempt(ctx, &mut out);
        out
    }

    fn on_job_finished(&mut self, ctx: &SchedulerContext<'_>, job: JobId) -> Vec<SchedulerAction> {
        self.allocate.on_job_finished(ctx, job)
    }

    fn name(&self) -> &str {
        "priority-preempting"
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
/// Each heartbeat allocates free slots to the jobs of the tenant with the
/// lowest dominant share relative to its quota first and to best-effort
/// jobs last, so best-effort work backfills whatever capacity quota'd work
/// leaves, including slots freed by suspension. Then (once per simulated
/// second) it evicts from best-effort jobs and over-quota tenants while
/// starved tenants' claims exceed free capacity — by kill or by OS-assisted
/// suspend, the paper's trade-off as the `primitive` knob.
pub struct MultiTenantScheduler {
    allocate: Allocate<DrfJobOrder>,
    reclaim: Reclaim,
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
        };
        (scheduler, ledger)
    }
}

impl SchedulerPolicy for MultiTenantScheduler {
    fn on_heartbeat(&mut self, ctx: &SchedulerContext<'_>, node: NodeId) -> Vec<SchedulerAction> {
        let mut out = self.allocate.on_heartbeat(ctx, node);
        self.reclaim.on_heartbeat(ctx, &mut out);
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
        "multi_tenant"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_engine::{
        Cluster, ClusterConfig, JobSpec, JobTable, PendingTotals, RackSlots, SpeculationConfig,
        TaskId, TaskKind, TaskProfile, TaskRuntime, TaskTracker, Topology,
    };
    use mrp_sim::{SimTime, GIB, MIB};

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

    #[test]
    fn high_priority_job_preempts_best_effort_work() {
        let scheduler = PriorityScheduler::new(
            PreemptionPrimitive::SuspendResume,
            EvictionPolicy::SmallestMemory,
        );
        let mut cluster = Cluster::new(ClusterConfig::paper_single_node(), Box::new(scheduler));
        cluster.submit_job(JobSpec::synthetic("best-effort", 1, 512 * MIB).with_priority(0));
        cluster.submit_job_at(
            JobSpec::synthetic("production", 1, 512 * MIB).with_priority(10),
            SimTime::from_secs(30),
        );
        cluster.run(SimTime::from_secs(8 * 3_600));
        let report = cluster.report();
        assert!(report.all_jobs_complete());
        let prod = report.sojourn_secs("production").unwrap();
        assert!(
            prod < 100.0,
            "the production job must not wait for best-effort work, got {prod}"
        );
        assert_eq!(
            report.job("best-effort").unwrap().tasks[0].suspend_cycles,
            1
        );
        assert_eq!(report.total_wasted_work_secs(), 0.0);
    }

    #[test]
    fn smallest_memory_eviction_pages_less_than_largest_memory() {
        let run = |policy| {
            let scheduler = PriorityScheduler::new(PreemptionPrimitive::SuspendResume, policy);
            let mut cfg = ClusterConfig::paper_single_node();
            cfg.nodes[0].map_slots = 3;
            cfg.nodes[0].os.memory.total_ram = 8 * GIB;
            let mut cluster = Cluster::new(cfg, Box::new(scheduler));
            for (name, state) in [("small", 128 * MIB), ("medium", GIB), ("large", 3 * GIB)] {
                cluster.submit_job(
                    JobSpec::synthetic(name, 1, 512 * MIB)
                        .with_priority(0)
                        .with_profile(TaskProfile::memory_hungry(state)),
                );
            }
            cluster.submit_job_at(
                JobSpec::synthetic("hp", 1, 512 * MIB)
                    .with_priority(10)
                    .with_profile(TaskProfile::memory_hungry(2 * GIB)),
                SimTime::from_secs(40),
            );
            cluster.run(SimTime::from_secs(24 * 3_600));
            let r = cluster.report();
            assert!(r.all_jobs_complete());
            r.total_swap_out_bytes()
        };
        let small_first = run(EvictionPolicy::SmallestMemory);
        let large_first = run(EvictionPolicy::LargestMemory);
        assert!(
            small_first <= large_first,
            "evicting the small-footprint task should not page more ({small_first} vs {large_first})"
        );
    }

    #[test]
    fn priority_preemption_counts_evictions_already_in_flight() {
        // Sixteen two-slot nodes run 32 of lo's tasks when hi arrives with
        // three. The three suspensions issued then reach their nodes one
        // heartbeat at a time; the heartbeats of other nodes in between
        // must not evict again for the same demand.
        let mut cluster = Cluster::new(
            ClusterConfig::racked_cluster(1, 16, 2, 1),
            Box::new(PriorityScheduler::new(
                PreemptionPrimitive::SuspendResume,
                EvictionPolicy::ClosestToCompletion,
            )),
        );
        cluster.submit_job(JobSpec::synthetic("lo", 32, GIB).with_priority(0));
        cluster.submit_job_at(
            JobSpec::synthetic("hi", 3, 256 * MIB).with_priority(10),
            SimTime::from_secs(30),
        );
        cluster.run(SimTime::from_secs(24 * 3_600));
        let report = cluster.report();
        assert!(report.all_jobs_complete());
        let cycles: u32 = report
            .job("lo")
            .unwrap()
            .tasks
            .iter()
            .map(|t| t.suspend_cycles)
            .sum();
        assert_eq!(cycles, 3, "one suspension per waiting hi task");
        let hi = report.sojourn_secs("hi").unwrap();
        assert!((hi - 42.868563).abs() < 1e-6, "hi sojourn {hi}");
        let makespan = report.makespan_secs().unwrap();
        assert!((makespan - 202.815429).abs() < 1e-6, "makespan {makespan}");
    }

    /// Delegates to a policy and fails when one of its calls returns two
    /// evictions of the same task.
    struct DistinctVictims<P>(P);

    fn distinct_victims(actions: Vec<SchedulerAction>) -> Vec<SchedulerAction> {
        let mut victims: Vec<TaskId> = actions
            .iter()
            .filter_map(|a| match a {
                SchedulerAction::Suspend { task } | SchedulerAction::Kill { task } => Some(*task),
                _ => None,
            })
            .collect();
        let named = victims.len();
        victims.sort_unstable();
        victims.dedup();
        assert_eq!(victims.len(), named, "a victim named twice: {actions:?}");
        actions
    }

    impl<P: SchedulerPolicy> SchedulerPolicy for DistinctVictims<P> {
        fn on_heartbeat(
            &mut self,
            ctx: &SchedulerContext<'_>,
            node: NodeId,
        ) -> Vec<SchedulerAction> {
            distinct_victims(self.0.on_heartbeat(ctx, node))
        }

        fn on_job_submitted(
            &mut self,
            ctx: &SchedulerContext<'_>,
            job: JobId,
        ) -> Vec<SchedulerAction> {
            distinct_victims(self.0.on_job_submitted(ctx, job))
        }

        fn on_job_finished(
            &mut self,
            ctx: &SchedulerContext<'_>,
            job: JobId,
        ) -> Vec<SchedulerAction> {
            distinct_victims(self.0.on_job_finished(ctx, job))
        }
    }

    #[test]
    fn priority_preemption_names_each_victim_once_per_call() {
        // lo runs on both slots of one node when two equal-priority jobs
        // arrive together. The first arrival suspends one of lo's tasks;
        // at the second, the first job must count that suspension rather
        // than claim lo's other task alongside the second job.
        let mut cfg = ClusterConfig::paper_single_node();
        cfg.nodes[0].map_slots = 2;
        let scheduler = PriorityScheduler::new(
            PreemptionPrimitive::SuspendResume,
            EvictionPolicy::ClosestToCompletion,
        );
        let mut cluster = Cluster::new(cfg, Box::new(DistinctVictims(scheduler)));
        cluster.submit_job(JobSpec::synthetic("lo", 2, 512 * MIB).with_priority(0));
        for name in ["hi-a", "hi-b"] {
            cluster.submit_job_at(
                JobSpec::synthetic(name, 1, 128 * MIB).with_priority(10),
                SimTime::from_secs(30),
            );
        }
        cluster.run(SimTime::from_secs(8 * 3_600));
        let report = cluster.report();
        assert!(report.all_jobs_complete());
        let lo = report.job("lo").unwrap();
        assert!(lo.tasks.iter().all(|t| t.suspend_cycles == 1), "{lo:?}");
    }

    #[test]
    fn priority_preemption_never_evicts_a_task_twice_in_one_call() {
        // No slot is free. hi and mid each wait with one map; lo runs two.
        // Both are short in the same round and draw on the same victims.
        let mut jobs = JobTable::new();
        let mut lo = pending_job(1, JobSpec::synthetic("lo", 2, 0), 2, &[]);
        for (t, progress) in lo.tasks.iter_mut().zip([0.8, 0.2]) {
            t.state = TaskState::Running;
            t.progress = progress;
        }
        lo.recount_task_states();
        jobs.insert(JobId(1), lo);
        let mid = JobSpec::synthetic("mid", 1, 0).with_priority(5);
        jobs.insert(JobId(2), pending_job(2, mid, 1, &[]));
        let hi = JobSpec::synthetic("hi", 1, 0).with_priority(10);
        jobs.insert(JobId(3), pending_job(3, hi, 1, &[]));
        let mut policy = PriorityScheduler::new(
            PreemptionPrimitive::SuspendResume,
            EvictionPolicy::ClosestToCompletion,
        );
        let suspended: Vec<u32> = round(&mut policy, &jobs, 0)
            .iter()
            .filter_map(|a| match a {
                SchedulerAction::Suspend { task } => Some(task.index),
                _ => None,
            })
            .collect();
        assert_eq!(
            suspended,
            [0, 1],
            "hi takes the most progressed, mid the other"
        );
    }

    #[test]
    fn priority_preemption_matches_waiting_tasks_to_slots_of_their_kind() {
        // lo runs two maps and a reduce; hi waits with one reduce, its map
        // done. No map slot is free.
        let task = |job, kind, index, state| {
            let mut t = TaskRuntime::new(TaskId { job, kind, index }, 64 * MIB, Vec::new());
            t.state = state;
            t.progress = 0.5;
            t
        };
        let mut jobs = JobTable::new();
        let lo = JobSpec::synthetic("lo", 2, 0).with_reduces(1);
        let lo_tasks = vec![
            task(JobId(1), TaskKind::Map, 0, TaskState::Running),
            task(JobId(1), TaskKind::Map, 1, TaskState::Running),
            task(JobId(1), TaskKind::Reduce, 0, TaskState::Running),
        ];
        jobs.insert(
            JobId(1),
            JobRuntime::new(JobId(1), lo, SimTime::ZERO, lo_tasks),
        );
        let hi = JobSpec::synthetic("hi", 1, 0)
            .with_reduces(1)
            .with_priority(10);
        let hi_tasks = vec![
            task(JobId(2), TaskKind::Map, 0, TaskState::Succeeded),
            task(JobId(2), TaskKind::Reduce, 0, TaskState::Pending),
        ];
        jobs.insert(
            JobId(2),
            JobRuntime::new(JobId(2), hi, SimTime::ZERO, hi_tasks),
        );
        let victims = |reduce_slots| {
            let mut policy = PriorityScheduler::new(
                PreemptionPrimitive::SuspendResume,
                EvictionPolicy::ClosestToCompletion,
            );
            round_with(&mut policy, &jobs, 0, reduce_slots)
                .into_iter()
                .filter_map(|a| match a {
                    SchedulerAction::Suspend { task } | SchedulerAction::Kill { task } => {
                        Some(task)
                    }
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            victims(1),
            [],
            "a free reduce slot serves the waiting reduce: full map slots are not its supply"
        );
        let reduce = TaskId {
            job: JobId(1),
            kind: TaskKind::Reduce,
            index: 0,
        };
        assert_eq!(victims(0), [reduce], "only a reduce can free a reduce slot");
    }

    #[test]
    fn a_suspended_task_is_covered_only_by_slots_on_its_own_node() {
        // hi's map is suspended on node 1, which lo's maps fill; node 0's
        // one map slot is free, but hi's map cannot resume there. lo also
        // runs its most progressed map on node 2.
        let task = |job, index, state, node, progress| {
            let id = TaskId {
                job,
                kind: TaskKind::Map,
                index,
            };
            let mut t = TaskRuntime::new(id, 64 * MIB, Vec::new());
            t.state = state;
            t.node = Some(NodeId(node));
            t.progress = progress;
            t
        };
        let mut jobs = JobTable::new();
        let lo_tasks = vec![
            task(JobId(1), 0, TaskState::Running, 2, 0.9),
            task(JobId(1), 1, TaskState::Running, 1, 0.2),
            task(JobId(1), 2, TaskState::Running, 1, 0.5),
        ];
        let lo = JobSpec::synthetic("lo", 3, 0);
        jobs.insert(
            JobId(1),
            JobRuntime::new(JobId(1), lo, SimTime::ZERO, lo_tasks),
        );
        let hi = JobSpec::synthetic("hi", 1, 0).with_priority(10);
        let hi_tasks = vec![task(JobId(2), 0, TaskState::Suspended, 1, 0.4)];
        jobs.insert(
            JobId(2),
            JobRuntime::new(JobId(2), hi, SimTime::ZERO, hi_tasks),
        );
        let mut policy = PriorityScheduler::new(
            PreemptionPrimitive::SuspendResume,
            EvictionPolicy::ClosestToCompletion,
        );
        let suspended: Vec<TaskId> = round_with(&mut policy, &jobs, 1, 0)
            .iter()
            .filter_map(|a| match *a {
                SchedulerAction::Suspend { task } => Some(task),
                _ => None,
            })
            .collect();
        let on_hi_node = TaskId {
            job: JobId(1),
            kind: TaskKind::Map,
            index: 2,
        };
        assert_eq!(
            suspended,
            [on_hi_node],
            "the free slot on node 0 cannot serve hi's map: evict the closest lo map on node 1"
        );
    }

    /// One round of `policy` on node 0 of ten single-rack nodes, where only
    /// node 0 has map slots (`map_slots` of them).
    fn round(
        policy: &mut dyn SchedulerPolicy,
        jobs: &JobTable,
        map_slots: u32,
    ) -> Vec<SchedulerAction> {
        round_with(policy, jobs, map_slots, 0)
    }

    /// [`round`] where every node also has `reduce_slots` reduce slots.
    fn round_with(
        policy: &mut dyn SchedulerPolicy,
        jobs: &JobTable,
        map_slots: u32,
        reduce_slots: u32,
    ) -> Vec<SchedulerAction> {
        let mut configs = ClusterConfig::small_cluster(10, 0, reduce_slots).nodes;
        configs[0].map_slots = map_slots;
        let nodes: Vec<TaskTracker> = configs
            .iter()
            .zip(0..)
            .map(|(config, id)| TaskTracker::new(NodeId(id), config))
            .collect();
        let topology = Topology::single_rack(10);
        let racks = RackSlots::recount(&nodes, &topology);
        let ctx = SchedulerContext {
            now: SimTime::ZERO,
            jobs,
            nodes: &nodes,
            racks: &racks,
            topology: &topology,
            totals: PendingTotals::from_jobs(jobs),
            speculation: SpeculationConfig::default(),
            delay: None,
            shuffle: None,
            reliability: None,
        };
        policy.on_heartbeat(&ctx, NodeId(0))
    }

    /// One DRF round (see [`round`]) with one tenant owning every job.
    fn drf_round(jobs: &JobTable, map_slots: u32) -> Vec<SchedulerAction> {
        let (mut drf, _) = MultiTenantScheduler::new(MultiTenantConfig {
            weights: vec![1.0],
            total_map_slots: map_slots,
            total_reduce_slots: 1,
            steady_after: SimTime::ZERO,
            primitive: PreemptionPrimitive::SuspendResume,
            eviction: EvictionPolicy::ClosestToCompletion,
        });
        round(&mut drf, jobs, map_slots)
    }

    /// A job of `tasks` pending maps whose `i`-th task's only replica is on
    /// `holders[i]`, if given.
    fn pending_job(id: u32, spec: JobSpec, tasks: u32, holders: &[u32]) -> JobRuntime {
        let job = JobId(id);
        let tasks = (0..tasks)
            .map(|index| {
                let id = TaskId {
                    job,
                    kind: TaskKind::Map,
                    index,
                };
                let replicas = holders.get(index as usize).map(|&n| NodeId(n));
                TaskRuntime::new(id, 64 * MIB, replicas.into_iter().collect())
            })
            .collect();
        JobRuntime::new(job, spec, SimTime::from_secs(u64::from(id)), tasks)
    }

    fn launches(actions: &[SchedulerAction]) -> Vec<TaskId> {
        actions
            .iter()
            .filter_map(|a| match *a {
                SchedulerAction::Launch { task, .. } => Some(task),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn drf_serves_best_effort_jobs_after_every_quota_d_job() {
        // The best-effort job was submitted first; it still waits until the
        // quota'd jobs' pending work is served in the round.
        let mut jobs = JobTable::new();
        let scavenger = JobSpec::synthetic("be", 3, 64 * MIB).with_best_effort();
        jobs.insert(JobId(1), pending_job(1, scavenger, 3, &[]));
        jobs.insert(
            JobId(2),
            pending_job(2, JobSpec::synthetic("a", 1, 0), 1, &[]),
        );
        jobs.insert(
            JobId(3),
            pending_job(3, JobSpec::synthetic("b", 1, 0), 1, &[]),
        );
        let served = |slots| -> Vec<JobId> {
            launches(&drf_round(&jobs, slots))
                .iter()
                .map(|t| t.job)
                .collect()
        };
        assert_eq!(served(2), [JobId(2), JobId(3)], "no slot left over");
        assert_eq!(served(4), [JobId(2), JobId(3), JobId(1), JobId(1)]);
    }

    #[test]
    fn drf_launches_a_best_effort_job_node_local_first() {
        // The best-effort job's first map reads a block held by node 5, its
        // second one held by node 0; node 0's one slot takes the second.
        let mut jobs = JobTable::new();
        let scavenger = JobSpec::synthetic("be", 2, 64 * MIB).with_best_effort();
        jobs.insert(JobId(1), pending_job(1, scavenger, 2, &[5, 0]));
        let launched = launches(&drf_round(&jobs, 1));
        assert_eq!(launched.len(), 1);
        assert_eq!(launched[0].index, 1, "the node-local map wins the slot");
    }
}
