//! The scheduler plug-in interface and the default FIFO policy.
//!
//! The engine separates *mechanism* from *policy* exactly as the paper does:
//! the JobTracker implements the mechanics of launching, killing, suspending
//! and resuming tasks (including the heartbeat-piggybacked command protocol),
//! while a [`SchedulerPolicy`] decides *which* task runs or is preempted
//! *where* and *when*. The paper's dummy trigger-driven scheduler, the
//! preemptive FAIR scheduler and the HFSP-style size-based scheduler all live
//! in the `mrp-preempt` crate and implement this trait. FIFO here and those
//! policies all place work through the slot filler in `placement.rs`; FIFO
//! is just its priority job order.

use crate::config::SpeculationConfig;
use crate::delay::DelayScoreboard;
use crate::job::{JobId, JobRuntime, JobSpec, JobTable, TaskId, TaskKind, TaskRuntime, TaskState};
use crate::placement::{fill_node, LocalityIndex};
use crate::reliability::ReliabilityTracker;
use crate::shuffle::ShuffleTracker;
use crate::tasktracker::TaskTracker;
use mrp_dfs::{Locality, NodeId, RackId, Topology};
use mrp_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;

/// A map task is a straggler when its progress rate is below this fraction
/// of its job's mean progress rate.
const SPECULATION_SLOWNESS_RATIO: f64 = 0.4;
/// Minimum time since a task's first launch before it may be speculated.
const SPECULATION_MIN_RUNTIME: SimDuration = SimDuration::from_secs(30);
/// Cap on concurrently live backup attempts per job (bounds slot waste).
pub(crate) const MAX_LIVE_SPECULATIONS_PER_JOB: u32 = 2;

/// A command a scheduler hands back to the JobTracker.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum SchedulerAction {
    /// Submit a brand-new job (used by trigger-driven experiment schedulers).
    SubmitJob(JobSpec),
    /// Launch a schedulable task on a node with a free slot.
    Launch {
        /// The task to launch.
        task: TaskId,
        /// The node to launch it on.
        node: NodeId,
    },
    /// Launch a speculative (backup) attempt of a straggling task on a node
    /// with a free slot; the first attempt to finish wins and the engine
    /// kills the loser. Only valid for tasks currently running or suspended,
    /// on a node other than the original attempt's.
    LaunchSpeculative {
        /// The straggling task to back up.
        task: TaskId,
        /// The node to run the backup on.
        node: NodeId,
    },
    /// Ask the task's TaskTracker to suspend it (`SIGTSTP`) at its next
    /// heartbeat. This is the paper's new primitive.
    Suspend {
        /// The task to suspend.
        task: TaskId,
    },
    /// Ask the task's TaskTracker to resume it (`SIGCONT`) at its next
    /// heartbeat; requires a free slot on that node when the command arrives.
    Resume {
        /// The task to resume.
        task: TaskId,
    },
    /// Ask the task's TaskTracker to kill the current attempt; the task
    /// becomes schedulable again from scratch.
    Kill {
        /// The task to kill.
        task: TaskId,
    },
}

/// Free slots of one rack, summed over its member TaskTrackers. The engine
/// keeps one per rack and moves it by the before/after difference of every
/// tracker mutation, so policies answer cluster-wide capacity questions in
/// O(racks) instead of O(nodes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RackSlots {
    /// Free map slots across the rack right now.
    pub(crate) free_map: u32,
    /// Free reduce slots across the rack right now.
    pub(crate) free_reduce: u32,
}

impl RackSlots {
    /// Recounts every rack's free slots from its members' trackers (for
    /// hand-built harnesses and invariant checks; the engine maintains the
    /// totals incrementally). `nodes` is indexed by dense node id.
    pub fn recount(nodes: &[TaskTracker], topology: &Topology) -> Vec<RackSlots> {
        (0..topology.rack_count() as u32)
            .map(|rack| {
                let mut slots = RackSlots::default();
                for tt in topology
                    .members_of(RackId(rack))
                    .iter()
                    .filter_map(|m| nodes.get(m.0 as usize))
                {
                    slots.free_map += tt.free_slots(TaskKind::Map);
                    slots.free_reduce += tt.free_slots(TaskKind::Reduce);
                }
                slots
            })
            .collect()
    }
}

/// Cluster-wide pending-work counters, maintained incrementally by the
/// engine on every task state transition. They let a scheduling round prove
/// "this node's free slots cannot be used by anything" in O(1) — the
/// overwhelmingly common case at 10k-node scale (e.g. a free reduce slot on
/// every node of a map-only workload must not trigger job scans).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PendingTotals {
    /// Schedulable map tasks across all jobs.
    pub schedulable_maps: u32,
    /// Schedulable reduce tasks across all jobs.
    pub schedulable_reduces: u32,
    /// Suspended tasks across all jobs.
    pub(crate) suspended: u32,
}

impl PendingTotals {
    /// Recomputes the totals from a job table (for hand-built harnesses and
    /// invariant checks; the engine maintains them incrementally).
    pub fn from_jobs(jobs: &JobTable) -> Self {
        let mut totals = PendingTotals::default();
        for job in jobs.values() {
            totals.schedulable_maps += job.schedulable_maps;
            totals.schedulable_reduces += job.schedulable_reduces;
            totals.suspended += job.suspended_count;
        }
        totals
    }
}

/// Read-only view of the cluster handed to scheduler policies.
pub struct SchedulerContext<'a> {
    /// Current virtual time.
    pub now: SimTime,
    /// All jobs the JobTracker knows about, keyed by id (insertion ordered).
    pub jobs: &'a JobTable,
    /// The TaskTrackers, indexed by dense node id: policies read each node's
    /// free slots and its running and suspended tasks straight from them.
    pub nodes: &'a [TaskTracker],
    /// Per-rack free-slot totals, indexed by rack id (an empty slice is fine
    /// for hand-built harnesses; only cluster-wide capacity helpers read
    /// them).
    pub racks: &'a [RackSlots],
    /// The cluster topology, for rack-aware placement decisions.
    pub topology: &'a Topology,
    /// Cluster-wide pending-work counters (see [`PendingTotals`]).
    pub totals: PendingTotals,
    /// Speculative-execution switch (from
    /// [`ClusterConfig::speculation`](crate::ClusterConfig)); the slot
    /// filler [`fill_node`](crate::fill_node) runs the straggler scan, so
    /// policies never need to read this directly.
    pub speculation: SpeculationConfig,
    /// The engine-owned delay-scheduling scoreboard (from
    /// [`ClusterConfig::delay`](crate::ClusterConfig)), if the cluster has
    /// one. [`fill_node`](crate::fill_node) declines, records skips and
    /// caches declining jobs through it; preempting policies consult
    /// [`SchedulerContext::delay_gated`]. Hand-built harness contexts pass
    /// `None` (delay scheduling off).
    pub delay: Option<&'a DelayScoreboard>,
    /// The engine-owned map-output registry (from
    /// [`ClusterConfig::shuffle`](crate::ClusterConfig)), if the cluster has
    /// one. [`fill_node`](crate::fill_node) consults it for rack-aware
    /// reduce placement; hand-built harness contexts pass `None`
    /// (topology-blind shuffle).
    pub shuffle: Option<&'a ShuffleTracker>,
    /// The engine-owned node-reliability predictor (from
    /// [`ClusterConfig::reliability`](crate::ClusterConfig)), if the cluster
    /// has one. Policies consult it through
    /// [`SchedulerContext::reliability_avoid`]; hand-built harness contexts
    /// pass `None` (failure-blind placement).
    pub reliability: Option<&'a ReliabilityTracker>,
}

/// The order a priority-aware FIFO serves jobs in: priority descending,
/// then submission time, then job id.
fn priority_order(job: &JobRuntime) -> (Reverse<i32>, SimTime, JobId) {
    (Reverse(job.spec.priority), job.submitted_at, job.id)
}

impl<'a> SchedulerContext<'a> {
    /// The TaskTracker of a node, if it exists (O(1): trackers are indexed
    /// by dense node id).
    pub fn node(&self, id: NodeId) -> Option<&TaskTracker> {
        self.nodes.get(id.0 as usize)
    }

    /// Looks up a task across all jobs.
    pub fn task(&self, id: TaskId) -> Option<&crate::job::TaskRuntime> {
        self.jobs.get(&id.job).and_then(|j| j.task(id))
    }

    /// Free map slots across the whole cluster, from the maintained per-rack
    /// counters: O(racks), not O(nodes).
    pub fn free_map_slots_total(&self) -> u32 {
        self.racks.iter().map(|r| r.free_map).sum()
    }

    /// Free reduce slots across the whole cluster (O(racks)).
    pub fn free_reduce_slots_total(&self) -> u32 {
        self.racks.iter().map(|r| r.free_reduce).sum()
    }

    /// True when the node-reliability predictor says fresh launches of `kind`
    /// should be steered off `node` right now: the predictor is on, the node's
    /// combined failure score is above the flaky threshold, **and** free slots
    /// of that kind exist elsewhere in the cluster. The capacity guard keeps
    /// the bias starvation-free — when a flaky node is the only capacity
    /// left, work still lands on it. Policies apply this to fresh `Launch`
    /// and `LaunchSpeculative` decisions only, never to resumes (a suspended
    /// task's memory already lives on its node).
    pub fn reliability_avoid(&self, node: NodeId, kind: TaskKind) -> bool {
        let Some(r) = self.reliability.filter(|r| r.enabled()) else {
            return false;
        };
        let Some(rack) = self.topology.rack_of(node) else {
            return false;
        };
        if !r.flaky(node, rack, self.now) {
            return false;
        }
        let free_here = self.node(node).map_or(0, |tt| tt.free_slots(kind));
        let total = match kind {
            TaskKind::Map => self.free_map_slots_total(),
            TaskKind::Reduce => self.free_reduce_slots_total(),
        };
        total > free_here
    }

    /// True when a reduce of `job` should decline a slot on `node` because
    /// the rack holding the most of the job's map-output bytes is a different
    /// one **and** that rack has a free reduce slot right now (O(1) via the
    /// maintained rack counters — and the guard that makes the preference
    /// starvation-free: when the byte-heavy rack is full, the reduce launches
    /// wherever it can). Always false while fault-tolerant shuffle is off or
    /// the job has no committed map output yet.
    pub(crate) fn prefer_reduce_elsewhere(&self, job: JobId, node: NodeId) -> bool {
        let Some(s) = self.shuffle.filter(|s| s.enabled()) else {
            return false;
        };
        let (Some(pref), Some(here)) = (s.preferred_rack(job), self.topology.rack_of(node)) else {
            return false;
        };
        pref != here
            && self
                .racks
                .get(pref.0 as usize)
                .is_some_and(|r| r.free_reduce > 0)
    }

    /// The tasks suspended on `node` (holding memory there, no slot), in the
    /// order [`FifoScheduler`] serves jobs (priority descending, then
    /// submission), each job's maps before its reduces. Reads the node's
    /// tracker, so it costs O(suspended here), not a job scan.
    pub fn suspended_on(&self, node: NodeId) -> Vec<TaskId> {
        let Some(tt) = self.node(node) else {
            return Vec::new();
        };
        let mut tasks: Vec<_> = tt
            .suspended_tasks()
            .filter_map(|id| {
                let job = self.jobs.get(&id.job)?;
                let t = job.task(id)?;
                // A task whose resume is already issued is `MustResume`.
                (t.state == TaskState::Suspended && t.node == Some(node))
                    .then(|| (priority_order(job), id))
            })
            .collect();
        // Within a job, task ids order maps before reduces by index: the
        // job's task-list order.
        tasks.sort_unstable();
        tasks.into_iter().map(|(_, id)| id).collect()
    }

    /// The loosest locality level `job` may launch map tasks at right now
    /// under delay scheduling: `NodeLocal` means node-local only,
    /// `RackLocal` adds same-rack nodes, `OffRack` means anything goes (and
    /// is always the answer when delay scheduling is off). Tasks with no
    /// placement preference (synthetic input) and reduce tasks are never
    /// restricted — the level only gates map tasks that actually have
    /// preferred replica holders.
    pub(crate) fn delay_allowed(&self, job: JobId) -> Locality {
        match self.delay {
            Some(d) => d.allowed(job, self.now),
            None => Locality::OffRack,
        }
    }

    /// Records that `job` declined a launch opportunity (a free slot of a
    /// kind it has pending work for, on a node below its allowed locality
    /// level): starts/continues the job's wait clock so its allowed level
    /// escalates, and counts the skip in
    /// [`LocalityStats::delayed_skips`](crate::LocalityStats).
    pub(crate) fn note_delay_skip(&self, job: JobId) {
        if let Some(d) = self.delay {
            d.note_skip(job, self.now);
        }
    }

    /// True while `job` is voluntarily declining slots under delay
    /// scheduling: its wait clock is running, it has not yet escalated to
    /// off-rack, and everything it could schedule is locality-restricted.
    /// FAIR uses this to keep waiting jobs out of its starvation deficit —
    /// preempting victims to free slots the job would decline again is pure
    /// churn. A job that was never offered a slot (clock not running) is
    /// *not* gated: it may be genuinely starved.
    pub fn delay_gated(&self, job: &JobRuntime) -> bool {
        let Some(d) = self.delay.filter(|d| d.enabled()) else {
            return false;
        };
        // Reduce work can launch anywhere, so a job with pending reduces
        // always has a legitimate claim on slots. Tasks are laid out
        // maps-first; a preference-less first map means the whole job is
        // synthetic and never delay-restricted.
        if job.schedulable_maps == 0
            || job.schedulable_reduces > 0
            || job
                .tasks
                .first()
                .is_none_or(|t| t.preferred_nodes.is_empty())
        {
            return false;
        }
        d.gated(job.id, self.now)
    }

    /// Offers `node`'s `free_map` map slots left after regular assignment,
    /// which nothing pending can use (Hadoop's trigger), to stragglers of
    /// tail-phase jobs: appends a `LaunchSpeculative` per backup. Straggler
    /// rates move on task timescales while free-slot heartbeats arrive
    /// hundreds of times per second at cluster scale, so the scan runs at
    /// most once per simulated second; `last_scan` holds the policy's last.
    pub(crate) fn speculate(
        &self,
        node: NodeId,
        free_map: u32,
        last_scan: &mut Option<u64>,
        out: &mut Vec<SchedulerAction>,
    ) {
        let second = self.now.as_micros() / 1_000_000;
        if !self.speculation.enabled || free_map == 0 || last_scan.replace(second) == Some(second) {
            return;
        }
        let mut free = free_map as usize;
        for job in self.jobs.values().filter(|j| !j.is_finished()) {
            if free == 0 {
                break;
            }
            free -= self.push_speculative_candidates(job, node, free, out);
        }
    }

    /// Appends up to `max` speculative launches on `node` of stragglers of
    /// `job` and returns how many, using the job's mean progress rate as the
    /// straggler baseline (Hadoop-style, but rate-based so tasks frozen in
    /// `Suspended` decay into candidacy — the re-execution opportunity
    /// preemption churn and node loss create).
    fn push_speculative_candidates(
        &self,
        job: &JobRuntime,
        node: NodeId,
        max: usize,
        out: &mut Vec<SchedulerAction>,
    ) -> usize {
        if max == 0
            || job.speculative_live >= MAX_LIVE_SPECULATIONS_PER_JOB
            || job.schedulable_maps > 0
        {
            return 0;
        }
        let min_runtime = SPECULATION_MIN_RUNTIME.as_secs_f64();
        // Pass 1: the job's mean progress rate. Completed tasks anchor the
        // baseline (their rate is 1/duration), so a job whose remaining
        // attempts are *all* degraded — e.g. every one frozen in `Suspended`
        // — still recognises them as stragglers once siblings have finished.
        let mut rate_sum = 0.0f64;
        let mut count = 0u32;
        let eligible = |t: &TaskRuntime| {
            t.id.kind == TaskKind::Map
                && matches!(
                    t.state,
                    TaskState::Running
                        | TaskState::Suspended
                        | TaskState::MustSuspend
                        | TaskState::MustResume
                )
        };
        for t in &job.tasks {
            if t.id.kind != TaskKind::Map {
                continue;
            }
            let Some(started) = t.first_launched_at else {
                continue;
            };
            if t.state == TaskState::Succeeded {
                if let Some(done) = t.finished_at {
                    let duration = (done - started).as_secs_f64();
                    if duration > 0.0 {
                        rate_sum += 1.0 / duration;
                        count += 1;
                    }
                }
                continue;
            }
            if !eligible(t) {
                continue;
            }
            let elapsed = (self.now - started).as_secs_f64();
            if elapsed < min_runtime {
                continue;
            }
            rate_sum += t.progress / elapsed;
            count += 1;
        }
        if count < 2 {
            return 0; // no population to call anything a straggler against
        }
        let threshold = SPECULATION_SLOWNESS_RATIO * (rate_sum / f64::from(count));
        // Pass 2: tasks whose rate fell below the threshold and that can
        // take a backup on this node. Only `Suspended` stragglers qualify: a
        // running straggler (e.g. a task restarted after a node failure)
        // executes at full speed, so a from-scratch backup loses the race by
        // construction and only wastes a slot, and a `MustResume` task's
        // resume is already riding the next heartbeat — whereas a task
        // frozen in `Suspended` makes no progress at all until its node
        // frees a slot, which is exactly when a backup elsewhere wins. (The
        // engine accepts `LaunchSpeculative` for `MustResume` too, for
        // policies with their own detectors.)
        let budget = max.min((MAX_LIVE_SPECULATIONS_PER_JOB - job.speculative_live) as usize);
        let mut pushed = 0usize;
        for t in &job.tasks {
            if pushed >= budget {
                break;
            }
            if t.state != TaskState::Suspended
                || t.id.kind != TaskKind::Map
                || t.spec_attempt.is_some()
                || t.node == Some(node)
            {
                continue;
            }
            let Some(started) = t.first_launched_at else {
                continue;
            };
            let elapsed = (self.now - started).as_secs_f64();
            if elapsed < min_runtime || t.progress >= 1.0 {
                continue;
            }
            if t.progress / elapsed < threshold {
                out.push(SchedulerAction::LaunchSpeculative { task: t.id, node });
                pushed += 1;
            }
        }
        pushed
    }
}

/// A pluggable scheduling policy driven by JobTracker events.
///
/// Every hook returns the actions the policy wants to perform; the engine
/// validates them (slot availability, task states) and runs the preemption
/// protocol for the ones that need TaskTracker cooperation.
pub trait SchedulerPolicy {
    /// Called when `node` heartbeats and is willing to accept work.
    fn on_heartbeat(&mut self, ctx: &SchedulerContext<'_>, node: NodeId) -> Vec<SchedulerAction>;

    /// Called right after a job is submitted.
    fn on_job_submitted(
        &mut self,
        _ctx: &SchedulerContext<'_>,
        _job: JobId,
    ) -> Vec<SchedulerAction> {
        Vec::new()
    }

    /// Called when a task reaches a terminal state (succeeded).
    fn on_task_finished(
        &mut self,
        _ctx: &SchedulerContext<'_>,
        _task: TaskId,
    ) -> Vec<SchedulerAction> {
        Vec::new()
    }

    /// Called when a job completes (all its tasks succeeded).
    fn on_job_finished(
        &mut self,
        _ctx: &SchedulerContext<'_>,
        _job: JobId,
    ) -> Vec<SchedulerAction> {
        Vec::new()
    }

    /// Called when a progress trigger registered with
    /// [`crate::cluster::Cluster::add_progress_trigger`] fires.
    fn on_progress_trigger(
        &mut self,
        _ctx: &SchedulerContext<'_>,
        _task: TaskId,
        _fraction: f64,
    ) -> Vec<SchedulerAction> {
        Vec::new()
    }

    /// Human-readable policy name (for reports and traces).
    fn name(&self) -> &str {
        "scheduler"
    }
}

/// The default policy: priority-aware FIFO without preemption.
///
/// On every heartbeat it serves the jobs with work in (priority, submission
/// order) order through the shared slot filler [`fill_node`]: each job in
/// turn gets the node's free slots for its node-local, then rack-local,
/// then any pending tasks, as Hadoop 1's `JobQueueTaskScheduler` does. It
/// also resumes suspended tasks when slots free up (so that externally
/// requested suspensions — e.g. from the command-line API — eventually
/// finish).
#[derive(Default)]
pub struct FifoScheduler {
    /// Whether the policy resumes suspended tasks when slots are free.
    resume_suspended: bool,
    /// The job order of the current round (a reused buffer).
    order: Vec<JobId>,
    locality: LocalityIndex,
}

impl FifoScheduler {
    /// Creates the default FIFO policy that also resumes suspended tasks.
    pub fn new() -> Self {
        FifoScheduler {
            resume_suspended: true,
            ..Default::default()
        }
    }

    /// A FIFO launcher that never resumes suspended tasks on its own (used
    /// by wrappers that control resumption themselves).
    pub fn non_resuming() -> Self {
        FifoScheduler::default()
    }
}

impl SchedulerPolicy for FifoScheduler {
    fn on_heartbeat(&mut self, ctx: &SchedulerContext<'_>, node: NodeId) -> Vec<SchedulerAction> {
        // A node with no free slot gets nothing: skip building the order.
        if ctx.node(node).is_none_or(|tt| {
            tt.free_slots(TaskKind::Map) == 0 && tt.free_slots(TaskKind::Reduce) == 0
        }) {
            return Vec::new();
        }
        self.order.clear();
        self.order.extend(
            ctx.jobs
                .values()
                .filter(|j| {
                    !j.is_finished() && (j.schedulable_count() > 0 || j.suspended_count > 0)
                })
                .map(|j| j.id),
        );
        self.order
            .sort_unstable_by_key(|id| priority_order(&ctx.jobs[id]));
        fill_node(
            ctx,
            node,
            &self.order,
            None,
            self.resume_suspended,
            &mut self.locality,
        )
    }

    fn on_job_finished(&mut self, _ctx: &SchedulerContext<'_>, job: JobId) -> Vec<SchedulerAction> {
        self.locality.forget(job);
        Vec::new()
    }

    fn name(&self) -> &str {
        "fifo"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attempt::ExecPlan;
    use crate::config::NodeConfig;
    use crate::job::{AttemptId, JobSpec, TaskRuntime};

    fn make_job(id: u32, priority: i32, submitted: u64, tasks: usize) -> JobRuntime {
        let spec =
            JobSpec::synthetic(format!("job{id}"), tasks as u32, 100).with_priority(priority);
        let job_id = JobId(id);
        JobRuntime::new(
            job_id,
            spec,
            SimTime::from_secs(submitted),
            (0..tasks)
                .map(|i| {
                    TaskRuntime::new(
                        TaskId {
                            job: job_id,
                            kind: TaskKind::Map,
                            index: i as u32,
                        },
                        100,
                        vec![],
                    )
                })
                .collect(),
        )
    }

    /// Idle trackers for nodes 0, 1, ... with the given (map, reduce) slot
    /// counts.
    fn trackers(slots: &[(u32, u32)]) -> Vec<TaskTracker> {
        slots
            .iter()
            .zip(0..)
            .map(|(&(map_slots, reduce_slots), id)| {
                let config = NodeConfig {
                    os: Default::default(),
                    map_slots,
                    reduce_slots,
                };
                TaskTracker::new(NodeId(id), &config)
            })
            .collect()
    }

    /// Idle trackers for `n` nodes, with one map slot on each node in
    /// `free_map` and no other slot anywhere.
    fn map_slots_on(n: usize, free_map: &[u32]) -> Vec<TaskTracker> {
        let mut slots = vec![(0, 0); n];
        for &node in free_map {
            slots[node as usize].0 = 1;
        }
        trackers(&slots)
    }

    /// A context over `jobs`, `nodes` and `topology` at time zero, with every
    /// optional engine part off.
    fn plain_ctx<'a>(
        jobs: &'a JobTable,
        nodes: &'a [TaskTracker],
        topology: &'a Topology,
    ) -> SchedulerContext<'a> {
        SchedulerContext {
            now: SimTime::ZERO,
            jobs,
            nodes,
            racks: &[],
            topology,
            totals: PendingTotals::from_jobs(jobs),
            speculation: SpeculationConfig::default(),
            delay: None,
            shuffle: None,
            reliability: None,
        }
    }

    fn launched(actions: &[SchedulerAction]) -> Vec<TaskId> {
        actions
            .iter()
            .filter_map(|a| match *a {
                SchedulerAction::Launch { task, .. } => Some(task),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn fifo_serves_jobs_by_priority_then_submission() {
        let mut jobs = JobTable::new();
        jobs.insert(JobId(1), make_job(1, 0, 0, 1));
        jobs.insert(JobId(2), make_job(2, 5, 10, 1));
        jobs.insert(JobId(3), make_job(3, 0, 5, 1));
        let nodes = trackers(&[(3, 0)]);
        let topo = Topology::single_rack(10);
        let mut ctx = plain_ctx(&jobs, &nodes, &topo);
        ctx.now = SimTime::from_secs(20);
        let order: Vec<JobId> = launched(&FifoScheduler::new().on_heartbeat(&ctx, NodeId(0)))
            .iter()
            .map(|t| t.job)
            .collect();
        assert_eq!(
            order,
            [JobId(2), JobId(1), JobId(3)],
            "highest priority first, then FIFO by submission"
        );
    }

    #[test]
    fn fifo_serves_an_earlier_jobs_rack_local_task_before_a_later_jobs_node_local_one() {
        // Node 0 and node 1 share rack 0 of a two-rack topology. Job 1 has
        // one map whose only replica is on node 1; job 2, submitted later,
        // has one map with a replica on node 0. Jobs are served in order and
        // tiered within each job, as Hadoop 1's FIFO does.
        let mut jobs = JobTable::new();
        let mut early = make_job(1, 0, 0, 1);
        early.tasks[0].preferred_nodes = vec![NodeId(1)];
        jobs.insert(JobId(1), early);
        let mut late = make_job(2, 0, 5, 1);
        late.tasks[0].preferred_nodes = vec![NodeId(0)];
        jobs.insert(JobId(2), late);
        let nodes = map_slots_on(10, &[0]);
        let topo = Topology::blocked(10, 2);
        let ctx = plain_ctx(&jobs, &nodes, &topo);
        let launches = launched(&FifoScheduler::new().on_heartbeat(&ctx, NodeId(0)));
        assert_eq!(launches.len(), 1, "one free slot");
        assert_eq!(launches[0].job, JobId(1), "the earlier job wins the slot");
    }

    #[test]
    fn non_resuming_fifo_launches_past_a_suspended_task() {
        // Node 0 holds job 1's suspended map and has a free map slot; job 2
        // has a pending map. The non-resuming launcher leaves the suspended
        // task to its wrapper and fills the slot with job 2's map.
        let mut jobs = JobTable::new();
        let mut held = make_job(1, 0, 0, 1);
        held.tasks[0].state = TaskState::Pending;
        held.tasks[0].set_state(TaskState::Running);
        held.tasks[0].set_state(TaskState::MustSuspend);
        held.tasks[0].set_state(TaskState::Suspended);
        held.tasks[0].node = Some(NodeId(0));
        held.recount_task_states();
        let mut nodes = map_slots_on(10, &[0]);
        let attempt = AttemptId {
            task: held.tasks[0].id,
            number: 0,
        };
        let plan = ExecPlan::for_map(&held.spec.profile, 100, Locality::NodeLocal);
        jobs.insert(JobId(1), held);
        jobs.insert(JobId(2), make_job(2, 0, 5, 1));
        nodes[0]
            .launch(attempt, TaskKind::Map, plan, SimTime::ZERO)
            .unwrap();
        nodes[0].suspend(attempt, SimTime::ZERO).unwrap();
        let topo = Topology::single_rack(10);
        let ctx = plain_ctx(&jobs, &nodes, &topo);
        let actions = FifoScheduler::non_resuming().on_heartbeat(&ctx, NodeId(0));
        assert!(
            !actions
                .iter()
                .any(|a| matches!(a, SchedulerAction::Resume { .. })),
            "{actions:?}"
        );
        assert_eq!(
            launched(&actions),
            [TaskId {
                job: JobId(2),
                kind: TaskKind::Map,
                index: 0,
            }]
        );
        // The resuming default gives the slot back to the suspended task.
        let actions = FifoScheduler::new().on_heartbeat(&ctx, NodeId(0));
        assert!(matches!(actions[..], [SchedulerAction::Resume { .. }]));
    }

    #[test]
    fn fifo_fills_free_slots_only() {
        let mut jobs = JobTable::new();
        jobs.insert(JobId(1), make_job(1, 0, 0, 3));
        let nodes = trackers(&[(2, 0)]);
        let topo = Topology::single_rack(10);
        let ctx = SchedulerContext {
            now: SimTime::ZERO,
            jobs: &jobs,
            nodes: &nodes,
            racks: &[],
            topology: &topo,
            totals: PendingTotals::from_jobs(&jobs),
            speculation: SpeculationConfig::default(),
            delay: None,
            shuffle: None,
            reliability: None,
        };
        let mut fifo = FifoScheduler::new();
        let actions = fifo.on_heartbeat(&ctx, NodeId(0));
        let launches = actions
            .iter()
            .filter(|a| matches!(a, SchedulerAction::Launch { .. }))
            .count();
        assert_eq!(launches, 2, "only as many launches as free slots");
    }

    #[test]
    fn fifo_prefers_data_local_tasks() {
        let mut jobs = JobTable::new();
        let mut job = make_job(1, 0, 0, 2);
        job.tasks[0].preferred_nodes = vec![NodeId(5)];
        job.tasks[1].preferred_nodes = vec![NodeId(0)];
        jobs.insert(JobId(1), job);
        let nodes = trackers(&[(1, 0)]);
        let topo = Topology::single_rack(10);
        let ctx = SchedulerContext {
            now: SimTime::ZERO,
            jobs: &jobs,
            nodes: &nodes,
            racks: &[],
            topology: &topo,
            totals: PendingTotals::from_jobs(&jobs),
            speculation: SpeculationConfig::default(),
            delay: None,
            shuffle: None,
            reliability: None,
        };
        let mut fifo = FifoScheduler::new();
        let actions = fifo.on_heartbeat(&ctx, NodeId(0));
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            SchedulerAction::Launch { task, node } => {
                assert_eq!(task.index, 1, "the node-local task should win the slot");
                assert_eq!(*node, NodeId(0));
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn fifo_resumes_suspended_tasks_on_their_node() {
        let mut jobs = JobTable::new();
        let mut job = make_job(1, 0, 0, 1);
        job.tasks[0].state = TaskState::Pending;
        job.tasks[0].set_state(TaskState::Running);
        job.tasks[0].set_state(TaskState::MustSuspend);
        job.tasks[0].set_state(TaskState::Suspended);
        job.tasks[0].node = Some(NodeId(0));
        job.recount_task_states();
        // Node 0 holds the task's suspended attempt; node 9 has a free slot
        // but nothing suspended.
        let mut nodes = map_slots_on(10, &[0, 9]);
        let attempt = AttemptId {
            task: job.tasks[0].id,
            number: 0,
        };
        let plan = ExecPlan::for_map(&job.spec.profile, 100, Locality::NodeLocal);
        jobs.insert(JobId(1), job);
        nodes[0]
            .launch(attempt, TaskKind::Map, plan, SimTime::ZERO)
            .unwrap();
        nodes[0].suspend(attempt, SimTime::ZERO).unwrap();
        let topo = Topology::single_rack(10);
        let ctx = SchedulerContext {
            now: SimTime::ZERO,
            jobs: &jobs,
            nodes: &nodes,
            racks: &[],
            topology: &topo,
            totals: PendingTotals::from_jobs(&jobs),
            speculation: SpeculationConfig::default(),
            delay: None,
            shuffle: None,
            reliability: None,
        };
        let mut fifo = FifoScheduler::new();
        let actions = fifo.on_heartbeat(&ctx, NodeId(0));
        assert!(matches!(actions[0], SchedulerAction::Resume { .. }));

        // On a different node nothing happens.
        let actions = fifo.on_heartbeat(&ctx, NodeId(9));
        assert!(actions.is_empty());
    }

    #[test]
    fn fifo_delay_declines_remote_tiers_until_escalation() {
        use crate::config::DelayConfig;
        use mrp_sim::SimDuration;
        let sb = DelayScoreboard::new(DelayConfig::waits(
            SimDuration::from_secs(3),
            SimDuration::from_secs(3),
        ));
        sb.register_job();
        let mut jobs = JobTable::new();
        let mut job = make_job(1, 0, 0, 1);
        // The only replica holder is node 5, which lives in the other rack
        // of a 2-rack topology: a launch on node 0 would be off-rack.
        job.tasks[0].preferred_nodes = vec![NodeId(5)];
        jobs.insert(JobId(1), job);
        let nodes = trackers(&[(1, 0)]);
        let topo = Topology::blocked(10, 2);
        let ctx_at = |now: SimTime| SchedulerContext {
            now,
            jobs: &jobs,
            nodes: &nodes,
            racks: &[],
            topology: &topo,
            totals: PendingTotals::from_jobs(&jobs),
            speculation: SpeculationConfig::default(),
            delay: Some(&sb),
            shuffle: None,
            reliability: None,
        };
        let mut fifo = FifoScheduler::new();
        // Node-local-only phase: the off-rack launch is declined and the
        // wait clock starts.
        assert!(fifo
            .on_heartbeat(&ctx_at(SimTime::ZERO), NodeId(0))
            .is_empty());
        assert!(sb.job_waiting(JobId(1)));
        assert_eq!(sb.total_skips(), 1);
        // Rack-local phase: node 0 is still in the wrong rack — declined.
        assert!(fifo
            .on_heartbeat(&ctx_at(SimTime::from_secs(4)), NodeId(0))
            .is_empty());
        // Fully escalated: anything goes.
        let actions = fifo.on_heartbeat(&ctx_at(SimTime::from_secs(6)), NodeId(0));
        assert_eq!(actions.len(), 1);
        assert!(matches!(actions[0], SchedulerAction::Launch { .. }));
    }

    #[test]
    fn reliability_avoid_steers_fresh_launches_while_capacity_exists() {
        use crate::config::ReliabilityConfig;
        let mut tracker = ReliabilityTracker::new(ReliabilityConfig::predictive(), 10, 2);
        // Node 1 just crashed and rejoined: flaky.
        tracker.record_failure(NodeId(1), RackId(0), SimTime::from_secs(100));
        let mut jobs = JobTable::new();
        jobs.insert(JobId(1), make_job(1, 0, 0, 2));
        // Free map slots on nodes 0 and 1, both in rack 0.
        let nodes = map_slots_on(10, &[0, 1]);
        let topo = Topology::blocked(10, 2);
        let racks = RackSlots::recount(&nodes, &topo);
        let ctx = SchedulerContext {
            now: SimTime::from_secs(100),
            jobs: &jobs,
            nodes: &nodes,
            racks: &racks,
            topology: &topo,
            totals: PendingTotals::from_jobs(&jobs),
            speculation: SpeculationConfig::default(),
            delay: None,
            shuffle: None,
            reliability: Some(&tracker),
        };
        assert!(ctx.reliability_avoid(NodeId(1), TaskKind::Map));
        assert!(
            !ctx.reliability_avoid(NodeId(0), TaskKind::Map),
            "healthy node"
        );
        // The FIFO policy keeps fresh launches off the flaky node...
        let mut fifo = FifoScheduler::new();
        assert!(fifo.on_heartbeat(&ctx, NodeId(1)).is_empty());
        // ...but still fills the healthy one.
        assert!(!fifo.on_heartbeat(&ctx, NodeId(0)).is_empty());
        // Starvation guard: when the flaky node holds the only free capacity,
        // work lands on it anyway.
        let only_here = map_slots_on(10, &[1]);
        let only_here_racks = RackSlots::recount(&only_here, &topo);
        let ctx2 = SchedulerContext {
            racks: &only_here_racks,
            nodes: &only_here,
            ..ctx
        };
        assert!(!ctx2.reliability_avoid(NodeId(1), TaskKind::Map));
        assert!(!fifo.on_heartbeat(&ctx2, NodeId(1)).is_empty());
    }

    #[test]
    fn reduces_prefer_the_rack_holding_map_output_bytes() {
        use crate::config::ShuffleConfig;
        let mut shuffle = ShuffleTracker::new(ShuffleConfig::fault_tolerant(), 2);
        shuffle.register_job(1, 1);
        // All map output lives on rack 1 (node 5 in the blocked topology).
        shuffle.record_map_output(JobId(1), 0, NodeId(5), RackId(1), 100);
        let mut jobs = JobTable::new();
        let spec = JobSpec::synthetic("red", 0, 100).with_reduces(1);
        let job_id = JobId(1);
        let job = JobRuntime::new(
            job_id,
            spec,
            SimTime::ZERO,
            vec![TaskRuntime::new(
                TaskId {
                    job: job_id,
                    kind: TaskKind::Reduce,
                    index: 0,
                },
                100,
                vec![],
            )],
        );
        jobs.insert(job_id, job);
        // Free reduce slots on node 0 (rack 0) and node 5 (rack 1).
        let mut slots = vec![(0, 0); 10];
        slots[0] = (0, 1);
        slots[5] = (0, 1);
        let nodes = trackers(&slots);
        let topo = Topology::blocked(10, 2);
        let racks = RackSlots::recount(&nodes, &topo);
        let ctx = SchedulerContext {
            now: SimTime::ZERO,
            jobs: &jobs,
            nodes: &nodes,
            racks: &racks,
            topology: &topo,
            totals: PendingTotals::from_jobs(&jobs),
            speculation: SpeculationConfig::default(),
            delay: None,
            shuffle: Some(&shuffle),
            reliability: None,
        };
        // Rack 0 offer is declined: the bytes (and a free slot) are on rack 1.
        assert!(ctx.prefer_reduce_elsewhere(JobId(1), NodeId(0)));
        let mut fifo = FifoScheduler::new();
        assert!(fifo.on_heartbeat(&ctx, NodeId(0)).is_empty());
        // On the byte-holding rack the reduce launches.
        assert!(!ctx.prefer_reduce_elsewhere(JobId(1), NodeId(5)));
        assert_eq!(fifo.on_heartbeat(&ctx, NodeId(5)).len(), 1);
        // Once rack 1 is full, rack 0 stops declining (starvation guard).
        slots[5] = (0, 0);
        let full = trackers(&slots);
        let full_racks = RackSlots::recount(&full, &topo);
        let ctx_full = SchedulerContext {
            nodes: &full,
            racks: &full_racks,
            ..ctx
        };
        assert!(!ctx_full.prefer_reduce_elsewhere(JobId(1), NodeId(0)));
    }

    #[test]
    fn context_helpers() {
        let mut jobs = JobTable::new();
        jobs.insert(JobId(1), make_job(1, 0, 0, 1));
        let nodes = trackers(&[(1, 0)]);
        let topo = Topology::single_rack(10);
        let ctx = SchedulerContext {
            now: SimTime::ZERO,
            jobs: &jobs,
            nodes: &nodes,
            racks: &[],
            topology: &topo,
            totals: PendingTotals::from_jobs(&jobs),
            speculation: SpeculationConfig::default(),
            delay: None,
            shuffle: None,
            reliability: None,
        };
        assert!(ctx.node(NodeId(0)).is_some());
        assert!(ctx.node(NodeId(4)).is_none());
        let tid = TaskId {
            job: JobId(1),
            kind: TaskKind::Map,
            index: 0,
        };
        assert!(ctx.task(tid).is_some());
        assert_eq!(ctx.nodes[0].free_slots(TaskKind::Map), 1);
        assert_eq!(ctx.nodes[0].free_slots(TaskKind::Reduce), 0);
    }
}
