//! A manual-priority scheduler with preemption: the Introduction's motivating
//! use case ("best-effort" vs. production jobs) turned into a policy.
//!
//! Low-priority tasks run whenever slots are idle; when a higher-priority job
//! cannot get its slots, running lower-priority tasks are preempted with the
//! configured primitive, victims chosen by the eviction policy. Suspended
//! low-priority tasks are resumed once the high-priority demand drains.

use mrp_engine::{
    FifoScheduler, JobRuntime, NodeId, SchedulerAction, SchedulerContext, SchedulerPolicy,
    TaskKind, TaskState, BASE_TASK_MEMORY,
};
use mrp_preempt::{EvictionCandidate, EvictionPolicy, PreemptionPrimitive};
use mrp_sim::SimRng;

/// Priority scheduler with preemption of lower-priority tasks.
pub(crate) struct PriorityPreemptingScheduler {
    /// Primitive used to evict lower-priority tasks.
    pub(crate) primitive: PreemptionPrimitive,
    /// Victim selection policy.
    pub(crate) eviction: EvictionPolicy,
    launcher: FifoScheduler,
    rng: SimRng,
}

impl PriorityPreemptingScheduler {
    /// Creates the scheduler.
    pub(crate) fn new(primitive: PreemptionPrimitive, eviction: EvictionPolicy) -> Self {
        PriorityPreemptingScheduler {
            primitive,
            eviction,
            // Resumption is handled here, priority-aware, so the launcher must
            // not hand slots back to suspended low-priority tasks while
            // higher-priority work is still waiting.
            launcher: FifoScheduler::non_resuming(),
            rng: SimRng::new(0x9817),
        }
    }

    /// Resumes suspended tasks on `node` with whatever slots the launcher left
    /// over — safe because the launcher has already served every schedulable
    /// task it could.
    fn resume_leftovers(
        ctx: &SchedulerContext<'_>,
        node: NodeId,
        launches_here: usize,
    ) -> Vec<SchedulerAction> {
        let Some(tt) = ctx.node(node) else {
            return Vec::new();
        };
        let free = (tt.free_slots(TaskKind::Map) as usize).saturating_sub(launches_here);
        // Any schedulable task still waiting means slots are contended; do not
        // hand them to suspended low-priority work.
        let schedulable = ctx.totals.schedulable_maps + ctx.totals.schedulable_reduces;
        if schedulable as usize > launches_here {
            return Vec::new();
        }
        ctx.suspended_on(node)
            .into_iter()
            .take(free)
            .map(|task| SchedulerAction::Resume { task })
            .collect()
    }

    fn unmet_high_priority_demand(ctx: &SchedulerContext<'_>) -> Vec<(i32, usize)> {
        ctx.jobs
            .values()
            .filter(|j| !j.is_finished())
            .map(|j| {
                let waiting = j.schedulable_count() + j.suspended_count;
                (j.spec.priority, waiting as usize)
            })
            .filter(|(_, waiting)| *waiting > 0)
            .collect()
    }

    fn preemption_actions(&mut self, ctx: &SchedulerContext<'_>) -> Vec<SchedulerAction> {
        let free_slots = ctx.free_map_slots_total();
        let demand = Self::unmet_high_priority_demand(ctx);
        let mut actions = Vec::new();
        for (priority, waiting) in demand {
            let mut needed = waiting.saturating_sub(free_slots as usize);
            if needed == 0 {
                continue;
            }
            // Victims: running tasks of strictly lower-priority jobs.
            let victim_jobs: Vec<&JobRuntime> = ctx
                .jobs
                .values()
                .filter(|j| j.spec.priority < priority && !j.is_finished())
                .collect();
            let candidates: Vec<EvictionCandidate> = victim_jobs
                .iter()
                .flat_map(|j| {
                    j.tasks
                        .iter()
                        .filter(|t| t.state == TaskState::Running)
                        .map(|t| EvictionCandidate {
                            task: t.id,
                            progress: t.progress,
                            memory_bytes: j.spec.profile.state_memory + BASE_TASK_MEMORY,
                        })
                })
                .collect();
            for victim in self.eviction.pick(&candidates, needed, &mut self.rng) {
                if let Some(a) = self.primitive.preempt_action(victim) {
                    actions.push(a);
                    needed = needed.saturating_sub(1);
                }
            }
        }
        actions
    }
}

impl SchedulerPolicy for PriorityPreemptingScheduler {
    fn on_heartbeat(&mut self, ctx: &SchedulerContext<'_>, node: NodeId) -> Vec<SchedulerAction> {
        // The priority-aware FIFO launcher serves higher priorities first;
        // leftover slots go back to suspended (preempted) tasks.
        let mut actions = self.launcher.on_heartbeat(ctx, node);
        let launches_here = actions
            .iter()
            .filter(|a| matches!(a, SchedulerAction::Launch { node: n, .. } if *n == node))
            .count();
        actions.extend(Self::resume_leftovers(ctx, node, launches_here));
        actions.extend(self.preemption_actions(ctx));
        actions
    }

    fn on_job_submitted(
        &mut self,
        ctx: &SchedulerContext<'_>,
        _job: mrp_engine::JobId,
    ) -> Vec<SchedulerAction> {
        self.preemption_actions(ctx)
    }

    fn name(&self) -> &str {
        "priority-preempting"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_engine::{Cluster, ClusterConfig, JobSpec, TaskProfile};
    use mrp_sim::{SimTime, GIB, MIB};

    #[test]
    fn high_priority_job_preempts_best_effort_work() {
        let scheduler = PriorityPreemptingScheduler::new(
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
            let scheduler =
                PriorityPreemptingScheduler::new(PreemptionPrimitive::SuspendResume, policy);
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
}
