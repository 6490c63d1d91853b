//! Jobs, tasks, and the JobTracker-side task state machine.
//!
//! The paper's contribution adds three states to Hadoop's JobTracker task
//! bookkeeping — `MUST_SUSPEND`, `SUSPENDED` and `MUST_RESUME` — mirroring the
//! way the existing kill path is implemented (a "must" state is set when the
//! command is received, and the actual transition happens when the involved
//! TaskTracker acts on the command piggybacked on its next heartbeat).

use mrp_dfs::{Locality, NodeId, Topology};
use mrp_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a submitted job.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobId(pub u32);

impl fmt::Debug for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job_{:04}", self.0)
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job_{:04}", self.0)
    }
}

/// Map or reduce.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum TaskKind {
    /// A map task consuming one input split.
    Map,
    /// A reduce task consuming one partition of every map output.
    Reduce,
}

impl TaskKind {
    /// Single-letter code used in Hadoop attempt names (`m` / `r`).
    pub(crate) fn code(self) -> char {
        match self {
            TaskKind::Map => 'm',
            TaskKind::Reduce => 'r',
        }
    }
}

/// Identifier of a task within a job.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TaskId {
    /// The job this task belongs to.
    pub job: JobId,
    /// Map or reduce.
    pub kind: TaskKind,
    /// Index among tasks of the same kind.
    pub index: u32,
}

impl fmt::Debug for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "task_{:04}_{}_{:06}",
            self.job.0,
            self.kind.code(),
            self.index
        )
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Identifier of one execution attempt of a task.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AttemptId {
    /// The task being attempted.
    pub(crate) task: TaskId,
    /// Attempt number, starting at 0 (kill-based preemption creates new
    /// attempts; suspend/resume keeps the same one).
    pub(crate) number: u32,
}

impl fmt::Debug for AttemptId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "attempt_{:04}_{}_{:06}_{}",
            self.task.job.0,
            self.task.kind.code(),
            self.task.index,
            self.number
        )
    }
}

impl fmt::Display for AttemptId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Per-job overrides of the synthetic task execution profile.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TaskProfile {
    /// Overrides the cluster-wide parse rate (bytes/second), if set.
    pub parse_rate_bytes_per_sec: Option<f64>,
    /// Extra memory allocated in the task's setup phase, modelling stateful
    /// mappers/reducers (the paper's memory-hungry worst case allocates
    /// 2–2.5 GB here).
    pub state_memory: u64,
    /// Fraction of the state memory written (dirty), in `[0, 1]`; the
    /// paper's tasks write random values to all of it, so the default is
    /// 1.0.
    pub state_dirty_fraction: f64,
    /// Overrides the output/input size ratio, if set.
    pub output_ratio: Option<f64>,
}

impl Default for TaskProfile {
    fn default() -> Self {
        TaskProfile {
            parse_rate_bytes_per_sec: None,
            state_memory: 0,
            state_dirty_fraction: 1.0,
            output_ratio: None,
        }
    }
}

impl TaskProfile {
    /// A light-weight, stateless task (the paper's baseline experiments).
    pub fn lightweight() -> Self {
        TaskProfile::default()
    }

    /// A memory-hungry, stateful task allocating `state_memory` bytes of
    /// dirty memory in its setup phase (the paper's worst-case experiments).
    pub fn memory_hungry(state_memory: u64) -> Self {
        TaskProfile {
            state_memory,
            ..TaskProfile::default()
        }
    }
}

/// Where a job's map input comes from.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum MapInput {
    /// Read an existing file in the simulated HDFS; one map task per block.
    DfsFile {
        /// Path of the input file.
        path: String,
    },
    /// Synthetic input that does not correspond to a stored file: `tasks`
    /// map tasks each reading `bytes_per_task` bytes with no particular
    /// locality.
    Synthetic {
        /// Number of map tasks.
        tasks: u32,
        /// Input bytes per task.
        bytes_per_task: u64,
    },
}

/// The description of a job handed to the JobTracker at submission.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Human-readable name; also used by trigger configurations to refer to
    /// jobs before they have an id.
    pub name: String,
    /// Priority: larger values are more important. The paper's scenario uses
    /// a high-priority job `th` and a low-priority job `tl`.
    pub priority: i32,
    /// Map input description.
    pub input: MapInput,
    /// Number of reduce tasks (0 for the paper's map-only jobs).
    pub reduce_tasks: u32,
    /// Execution profile overrides.
    pub profile: TaskProfile,
    /// Tenant (queue) this job is charged to by multi-tenant policies.
    /// Single-tenant workloads leave the default `0`; the engine itself
    /// never reads it.
    #[serde(default)]
    pub tenant: u32,
    /// True for best-effort (scavenger-class) jobs: excluded from tenant
    /// share accounting, launched only into capacity nobody else wants, and
    /// evicted first when that capacity is reclaimed. The engine itself
    /// never reads it — it is policy metadata, like `tenant`.
    #[serde(default)]
    pub best_effort: bool,
}

impl JobSpec {
    /// A map-only job reading the given DFS file.
    pub fn map_only(name: impl Into<String>, path: impl Into<String>) -> Self {
        JobSpec {
            name: name.into(),
            priority: 0,
            input: MapInput::DfsFile { path: path.into() },
            reduce_tasks: 0,
            profile: TaskProfile::default(),
            tenant: 0,
            best_effort: false,
        }
    }

    /// A synthetic map-only job that does not need a DFS file.
    pub fn synthetic(name: impl Into<String>, tasks: u32, bytes_per_task: u64) -> Self {
        JobSpec {
            name: name.into(),
            priority: 0,
            input: MapInput::Synthetic {
                tasks,
                bytes_per_task,
            },
            reduce_tasks: 0,
            profile: TaskProfile::default(),
            tenant: 0,
            best_effort: false,
        }
    }

    /// Sets the priority, builder style.
    pub fn with_priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the profile, builder style.
    pub fn with_profile(mut self, profile: TaskProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Sets the number of reduce tasks, builder style.
    pub fn with_reduces(mut self, reduces: u32) -> Self {
        self.reduce_tasks = reduces;
        self
    }

    /// Charges the job to a tenant, builder style.
    pub fn with_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }

    /// Marks the job best-effort (scavenger class), builder style.
    pub fn with_best_effort(mut self) -> Self {
        self.best_effort = true;
        self
    }

    /// Validates the job's user-supplied values, returning the first problem
    /// found. [`Cluster::submit_job_at`](crate::Cluster::submit_job_at)
    /// panics on a job this rejects.
    pub fn validate(&self) -> Result<(), String> {
        // NaN must fail this check.
        if !(0.0..=1.0).contains(&self.profile.state_dirty_fraction) {
            return Err("state_dirty_fraction must be in [0, 1]".into());
        }
        Ok(())
    }
}

/// JobTracker-side task states, including the paper's suspension states.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum TaskState {
    /// Not yet assigned to any TaskTracker.
    Pending,
    /// Running on a TaskTracker.
    Running,
    /// The user or the scheduler asked for suspension; the command will be
    /// piggybacked on the next heartbeat of the involved TaskTracker.
    MustSuspend,
    /// The TaskTracker confirmed the task is stopped (`SIGTSTP` delivered).
    Suspended,
    /// Resume requested; the command travels on the next heartbeat.
    MustResume,
    /// Kill requested; the command travels on the next heartbeat.
    MustKill,
    /// The task completed successfully.
    Succeeded,
    /// The current attempt was killed (the task itself goes back to
    /// [`TaskState::Pending`] for rescheduling unless the job is done).
    Killed,
}

impl TaskState {
    /// True if the task is in a terminal state.
    pub(crate) fn is_terminal(self) -> bool {
        matches!(self, TaskState::Succeeded)
    }

    /// True if the task currently occupies a slot on some TaskTracker.
    pub(crate) fn occupies_slot(self) -> bool {
        matches!(
            self,
            TaskState::Running | TaskState::MustSuspend | TaskState::MustKill
        )
    }

    /// True if a scheduler may launch (or re-launch) this task on a node.
    pub fn is_schedulable(self) -> bool {
        matches!(self, TaskState::Pending | TaskState::Killed)
    }

    /// Whether a transition from `self` to `next` is legal in the JobTracker
    /// state machine (including the suspend/resume extension).
    pub(crate) fn can_transition_to(self, next: TaskState) -> bool {
        use TaskState::*;
        matches!(
            (self, next),
            (Pending, Running)
                | (Killed, Running)
                | (Running, MustSuspend)
                | (Running, MustKill)
                | (Running, Succeeded)
                | (Running, Killed)
                | (MustSuspend, Suspended)
                | (MustSuspend, Succeeded) // completed before the command arrived
                | (MustSuspend, Killed)
                | (MustSuspend, MustKill)
                | (Suspended, MustResume)
                | (Suspended, MustKill)
                | (Suspended, Killed)
                | (MustResume, Running)
                | (MustResume, Killed)
                | (MustResume, MustKill)
                | (MustKill, Killed)
                | (MustKill, Succeeded) // completed before the command arrived
                | (Killed, Pending)
                // A speculative backup attempt can complete while the
                // original attempt sits suspended (or waits for a resume):
                // first finisher wins, the task succeeds.
                | (Suspended, Succeeded)
                | (MustResume, Succeeded)
        )
    }
}

/// JobTracker-side bookkeeping for one task.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TaskRuntime {
    /// The task's identifier.
    pub id: TaskId,
    /// Bytes of input this task consumes.
    pub(crate) input_bytes: u64,
    /// Nodes holding a local replica of the input (empty for synthetic input).
    pub preferred_nodes: Vec<NodeId>,
    /// Current JobTracker-side state.
    pub state: TaskState,
    /// Last reported progress in `[0, 1]` (fraction of input processed).
    pub progress: f64,
    /// Node where the current attempt runs or is suspended.
    pub node: Option<NodeId>,
    /// Number of attempts created so far.
    pub(crate) attempts_made: u32,
    /// Identifier of the live attempt, if any.
    pub(crate) current_attempt: Option<AttemptId>,
    /// Identifier of the live speculative (backup) attempt, if any; always on
    /// a different node than [`TaskRuntime::node`].
    pub(crate) spec_attempt: Option<AttemptId>,
    /// Node where the speculative attempt runs.
    pub(crate) spec_node: Option<NodeId>,
    /// When the first attempt started.
    pub(crate) first_launched_at: Option<SimTime>,
    /// When the task succeeded.
    pub(crate) finished_at: Option<SimTime>,
    /// Work thrown away because attempts were killed.
    pub(crate) wasted_work: SimDuration,
    /// Number of suspend/resume cycles the task went through.
    pub(crate) suspend_cycles: u32,
    /// Cumulative bytes of this task's memory paged out to swap (over all
    /// attempts); the quantity reported in Figure 4.
    pub(crate) paged_out_bytes: u64,
    /// Cumulative bytes paged back in.
    pub(crate) paged_in_bytes: u64,
}

impl TaskRuntime {
    /// Creates the bookkeeping entry for a freshly defined task.
    pub fn new(id: TaskId, input_bytes: u64, preferred_nodes: Vec<NodeId>) -> Self {
        TaskRuntime {
            id,
            input_bytes,
            preferred_nodes,
            state: TaskState::Pending,
            progress: 0.0,
            node: None,
            attempts_made: 0,
            current_attempt: None,
            spec_attempt: None,
            spec_node: None,
            first_launched_at: None,
            finished_at: None,
            wasted_work: SimDuration::ZERO,
            suspend_cycles: 0,
            paged_out_bytes: 0,
            paged_in_bytes: 0,
        }
    }

    /// Transitions the task to `next`, panicking on illegal transitions: an
    /// illegal transition is always an engine bug, never a recoverable
    /// runtime condition.
    pub(crate) fn set_state(&mut self, next: TaskState) {
        assert!(
            self.state.can_transition_to(next),
            "illegal task state transition {:?} -> {:?} for {:?}",
            self.state,
            next,
            self.id
        );
        self.state = next;
    }

    /// Input bytes this task still has to process (HFSP's size metric): `0`
    /// once it succeeded, otherwise its input scaled by the progress not yet
    /// reported. Each task contributes a whole number of bytes, so a job's
    /// sum ([`JobRuntime::remaining_bytes`]) moves by exact deltas.
    pub(crate) fn remaining_bytes(&self) -> u64 {
        if self.state.is_terminal() {
            0
        } else {
            ((1.0 - self.progress).max(0.0) * self.input_bytes as f64) as u64
        }
    }

    /// Input locality an attempt of this task gets on `node`: the best
    /// locality over its preferred (replica-holding) nodes. A task with no
    /// placement preference (synthetic input, reduces) counts as node-local,
    /// since every node is equally good. O(replicas) via the topology's
    /// dense rack index.
    pub(crate) fn locality(&self, topology: &Topology, node: NodeId) -> Locality {
        if self.preferred_nodes.is_empty() {
            return Locality::NodeLocal;
        }
        self.preferred_nodes
            .iter()
            .map(|holder| topology.locality(node, *holder))
            .min()
            .unwrap_or(Locality::OffRack)
    }

    /// The next attempt id for this task.
    pub(crate) fn next_attempt(&mut self) -> AttemptId {
        let id = AttemptId {
            task: self.id,
            number: self.attempts_made,
        };
        self.attempts_made += 1;
        id
    }

    /// What `attempt` is to the JobTracker.
    pub(crate) fn role(&self, attempt: AttemptId) -> AttemptRole {
        if self.current_attempt == Some(attempt) {
            AttemptRole::Current
        } else if self.spec_attempt == Some(attempt) {
            AttemptRole::Backup
        } else {
            AttemptRole::Orphan
        }
    }
}

/// What an attempt is to the JobTracker, asked at each of its ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AttemptRole {
    /// The task's current attempt.
    Current,
    /// The task's live speculative backup.
    Backup,
    /// An attempt the JobTracker no longer tracks: written off at a
    /// partition teardown, its task re-run elsewhere since.
    Orphan,
}

/// JobTracker-side bookkeeping for one job.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JobRuntime {
    /// The job's identifier.
    pub id: JobId,
    /// The submitted specification.
    pub spec: JobSpec,
    /// Submission time.
    pub submitted_at: SimTime,
    /// Completion time of the last task, once the job is done.
    pub completed_at: Option<SimTime>,
    /// All tasks of the job (maps first, then reduces).
    pub tasks: Vec<TaskRuntime>,
    /// Number of map tasks currently in a schedulable state. Maintained
    /// incrementally by the engine on every task state transition so
    /// schedulers can skip exhausted jobs in O(1) instead of scanning their
    /// (potentially huge) task lists per heartbeat — and, split by kind, so
    /// a node with only a free reduce slot never scans a map-only job. After
    /// mutating task states directly, call
    /// [`JobRuntime::recount_task_states`].
    pub schedulable_maps: u32,
    /// Number of reduce tasks currently in a schedulable state (same
    /// maintenance contract as [`JobRuntime::schedulable_maps`]).
    pub schedulable_reduces: u32,
    /// Number of tasks currently in [`TaskState::Suspended`] (same
    /// maintenance contract as [`JobRuntime::schedulable_count`]).
    pub suspended_count: u32,
    /// Number of tasks currently occupying a slot somewhere
    /// (`Running`, `MustSuspend` or `MustKill`; same maintenance contract).
    pub occupying_count: u32,
    /// Number of live speculative (backup) attempts across the job's tasks
    /// (same maintenance contract); bounds speculation slot waste in O(1).
    pub speculative_live: u32,
    /// Number of tasks in the terminal state `Succeeded` (same maintenance
    /// contract): the job is complete when it equals the task count.
    pub terminal_count: u32,
    /// Sum of the tasks' unprocessed input bytes (zero once a task
    /// succeeded, otherwise its input scaled by the progress not yet
    /// reported): the job's remaining size, which HFSP orders jobs by.
    /// Maintained by the engine on every task state *and progress* write
    /// (same contract otherwise).
    pub remaining_bytes: u64,
}

impl JobRuntime {
    /// A job submitted at `submitted_at`, its maintained counters counted
    /// from `tasks`. The engine finds a task at the position it lays it out
    /// at, so `tasks` holds the maps first, then the spec's reduces, each at
    /// its index.
    pub fn new(id: JobId, spec: JobSpec, submitted_at: SimTime, tasks: Vec<TaskRuntime>) -> Self {
        let mut job = JobRuntime {
            id,
            spec,
            submitted_at,
            completed_at: None,
            tasks,
            schedulable_maps: 0,
            schedulable_reduces: 0,
            suspended_count: 0,
            occupying_count: 0,
            speculative_live: 0,
            terminal_count: 0,
            remaining_bytes: 0,
        };
        job.recount_task_states();
        job
    }

    /// Tasks of either kind currently in a schedulable state.
    pub fn schedulable_count(&self) -> u32 {
        self.schedulable_maps + self.schedulable_reduces
    }

    /// Recomputes the maintained counters from the task list.
    /// The engine keeps them in sync incrementally; tests and harnesses that
    /// mutate task states by hand call this afterwards.
    pub fn recount_task_states(&mut self) {
        let count = |f: fn(&TaskRuntime) -> bool| self.tasks.iter().filter(|t| f(t)).count() as u32;
        self.schedulable_maps = count(|t| t.id.kind == TaskKind::Map && t.state.is_schedulable());
        self.schedulable_reduces =
            count(|t| t.id.kind == TaskKind::Reduce && t.state.is_schedulable());
        self.suspended_count = count(|t| t.state == TaskState::Suspended);
        self.occupying_count = count(|t| t.state.occupies_slot());
        self.speculative_live = count(|t| t.spec_attempt.is_some());
        self.terminal_count = count(|t| t.state.is_terminal());
        self.remaining_bytes = self.tasks.iter().map(TaskRuntime::remaining_bytes).sum();
    }

    /// The engine-maintained counters, in declaration order:
    /// `(schedulable_maps, schedulable_reduces, suspended_count,
    /// occupying_count, speculative_live, terminal_count, remaining_bytes)`.
    /// Compare against the same tuple of a clone after
    /// [`JobRuntime::recount_task_states`] to check for drift.
    pub fn counters(&self) -> (u32, u32, u32, u32, u32, u32, u64) {
        (
            self.schedulable_maps,
            self.schedulable_reduces,
            self.suspended_count,
            self.occupying_count,
            self.speculative_live,
            self.terminal_count,
            self.remaining_bytes,
        )
    }

    /// Where `id` sits in the task list by construction: maps first at
    /// their index, then the spec's reduces at theirs.
    fn layout_position(&self, id: TaskId) -> Option<usize> {
        match id.kind {
            TaskKind::Map => Some(id.index as usize),
            TaskKind::Reduce => self
                .tasks
                .len()
                .checked_sub(self.spec.reduce_tasks as usize)?
                .checked_add(id.index as usize),
        }
    }

    /// Looks up a task by id, in O(1) at the position the engine lays it
    /// out at (maps first, then reduces, each at its index).
    pub(crate) fn task(&self, id: TaskId) -> Option<&TaskRuntime> {
        let i = self.layout_position(id)?;
        self.tasks.get(i).filter(|t| t.id == id)
    }

    /// Mutable task lookup (see [`JobRuntime::task`]).
    pub(crate) fn task_mut(&mut self, id: TaskId) -> Option<&mut TaskRuntime> {
        let i = self.layout_position(id)?;
        self.tasks.get_mut(i).filter(|t| t.id == id)
    }

    /// True when every task has succeeded: O(1) from
    /// [`JobRuntime::terminal_count`], so that counter must be current —
    /// maintained by the engine, or recounted with
    /// [`JobRuntime::recount_task_states`] after editing tasks by hand.
    /// Debug builds check it against a scan of the tasks.
    pub(crate) fn is_complete(&self) -> bool {
        let complete = !self.tasks.is_empty() && self.terminal_count as usize == self.tasks.len();
        debug_assert_eq!(
            complete,
            !self.tasks.is_empty() && self.tasks.iter().all(|t| t.state.is_terminal()),
            "terminal_count is stale; call recount_task_states after editing tasks"
        );
        complete
    }

    /// The engine stamps `completed_at` the moment the last task succeeds,
    /// so for jobs observed through a
    /// [`SchedulerContext`](crate::SchedulerContext) this is equivalent to
    /// every task having succeeded.
    pub fn is_finished(&self) -> bool {
        self.completed_at.is_some()
    }

    /// Time from submission to completion, if the job is done — the paper's
    /// *sojourn time* metric.
    pub(crate) fn sojourn(&self) -> Option<SimDuration> {
        self.completed_at.map(|c| c - self.submitted_at)
    }
}

/// The JobTracker's job table: a dense `Vec` indexed by job id.
///
/// Job ids are assigned sequentially from 1 and jobs are never removed, so
/// `jobs[id - 1]` is an O(1), single-cache-line lookup — this sits on every
/// hot path that resolves a `TaskId` (per-heartbeat progress refreshes,
/// `fill_node`'s per-job skips), where the `BTreeMap` it replaces cost a
/// multi-level pointer walk per access. The API mirrors the map it replaced
/// (including `(&JobId, &JobRuntime)` iteration in id order), so determinism
/// and call sites are unchanged.
#[derive(Debug, Default)]
pub struct JobTable {
    jobs: Vec<JobRuntime>,
}

impl JobTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        JobTable::default()
    }

    /// Inserts the next job.
    ///
    /// # Panics
    /// Panics unless `id == job.id` and ids arrive densely (1, 2, 3, …) —
    /// the JobTracker assigns them that way, and density is what makes every
    /// lookup O(1).
    pub fn insert(&mut self, id: JobId, job: JobRuntime) {
        assert_eq!(id, job.id, "job inserted under a foreign id");
        assert_eq!(
            id.0 as usize,
            self.jobs.len() + 1,
            "job ids must be dense and sequential from 1"
        );
        self.jobs.push(job);
    }

    /// Looks up a job by id (O(1)).
    pub fn get(&self, id: &JobId) -> Option<&JobRuntime> {
        self.jobs.get((id.0 as usize).checked_sub(1)?)
    }

    /// Mutable lookup by id (O(1)).
    pub fn get_mut(&mut self, id: &JobId) -> Option<&mut JobRuntime> {
        self.jobs.get_mut((id.0 as usize).checked_sub(1)?)
    }

    /// All jobs in id (= submission) order.
    pub fn values(&self) -> std::slice::Iter<'_, JobRuntime> {
        self.jobs.iter()
    }

    /// `(&id, &job)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (&JobId, &JobRuntime)> {
        self.jobs.iter().map(|j| (&j.id, j))
    }

    /// Number of registered jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when no jobs are registered.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

impl std::ops::Index<&JobId> for JobTable {
    type Output = JobRuntime;
    fn index(&self, id: &JobId) -> &JobRuntime {
        self.get(id).expect("unknown job id")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_sim::MIB;

    fn tid() -> TaskId {
        TaskId {
            job: JobId(1),
            kind: TaskKind::Map,
            index: 0,
        }
    }

    #[test]
    fn dirty_fraction_outside_unit_interval_is_rejected() {
        let with = |fraction: f64| {
            let mut profile = TaskProfile::memory_hungry(MIB);
            profile.state_dirty_fraction = fraction;
            JobSpec::synthetic("j", 1, MIB)
                .with_profile(profile)
                .validate()
        };
        for ok in [0.0, 0.5, 1.0] {
            assert!(with(ok).is_ok(), "{ok}");
        }
        for bad in [-0.1, 1.5, f64::NAN] {
            assert!(with(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn identifiers_format_like_hadoop() {
        let t = tid();
        assert_eq!(format!("{t}"), "task_0001_m_000000");
        let a = AttemptId { task: t, number: 2 };
        assert_eq!(format!("{a}"), "attempt_0001_m_000000_2");
        assert_eq!(format!("{}", JobId(7)), "job_0007");
    }

    #[test]
    fn spec_builders() {
        let spec = JobSpec::map_only("tl", "/input")
            .with_priority(-1)
            .with_profile(TaskProfile::memory_hungry(2_000_000_000))
            .with_reduces(2);
        assert_eq!(spec.priority, -1);
        assert_eq!(spec.reduce_tasks, 2);
        assert_eq!(spec.profile.state_memory, 2_000_000_000);
        assert_eq!(spec.tenant, 0);
        assert!(!spec.best_effort);
        let synth = JobSpec::synthetic("s", 4, 1024)
            .with_tenant(3)
            .with_best_effort();
        assert!(matches!(synth.input, MapInput::Synthetic { tasks: 4, .. }));
        assert_eq!(synth.tenant, 3);
        assert!(synth.best_effort);
    }

    #[test]
    fn legal_suspend_resume_lifecycle() {
        let mut t = TaskRuntime::new(tid(), 512, vec![]);
        t.set_state(TaskState::Running);
        t.set_state(TaskState::MustSuspend);
        t.set_state(TaskState::Suspended);
        t.set_state(TaskState::MustResume);
        t.set_state(TaskState::Running);
        t.set_state(TaskState::Succeeded);
        assert!(t.state.is_terminal());
    }

    #[test]
    fn legal_kill_and_reschedule_lifecycle() {
        let mut t = TaskRuntime::new(tid(), 512, vec![]);
        t.set_state(TaskState::Running);
        t.set_state(TaskState::MustKill);
        t.set_state(TaskState::Killed);
        t.set_state(TaskState::Pending);
        t.set_state(TaskState::Running);
        t.set_state(TaskState::Succeeded);
    }

    #[test]
    fn completion_can_race_a_suspend_command() {
        // "The following heartbeat notifies the JobTracker whether the task
        // has been suspended — or whether it completed in the meanwhile."
        let mut t = TaskRuntime::new(tid(), 512, vec![]);
        t.set_state(TaskState::Running);
        t.set_state(TaskState::MustSuspend);
        t.set_state(TaskState::Succeeded);
    }

    #[test]
    #[should_panic(expected = "illegal task state transition")]
    fn illegal_transition_panics() {
        let mut t = TaskRuntime::new(tid(), 512, vec![]);
        t.set_state(TaskState::Suspended); // Pending -> Suspended is illegal
    }

    #[test]
    fn state_predicates() {
        assert!(TaskState::Pending.is_schedulable());
        assert!(TaskState::Killed.is_schedulable());
        assert!(!TaskState::Suspended.is_schedulable());
        assert!(TaskState::Running.occupies_slot());
        assert!(TaskState::MustSuspend.occupies_slot());
        assert!(!TaskState::Suspended.occupies_slot());
        assert!(TaskState::Succeeded.is_terminal());
        assert!(!TaskState::Killed.is_terminal());
    }

    #[test]
    fn attempt_numbers_increment() {
        let mut t = TaskRuntime::new(tid(), 512, vec![]);
        assert_eq!(t.next_attempt().number, 0);
        assert_eq!(t.next_attempt().number, 1);
        assert_eq!(t.attempts_made, 2);
    }

    #[test]
    fn remaining_bytes_follows_progress_and_state() {
        let mut t = TaskRuntime::new(tid(), 100 * MIB, vec![]);
        // A pending task counts its full input.
        assert_eq!(t.remaining_bytes(), 100 * MIB);
        t.set_state(TaskState::Running);
        t.progress = 0.25;
        assert_eq!(t.remaining_bytes(), 75 * MIB);
        // Suspension keeps the progress made so far.
        t.set_state(TaskState::MustSuspend);
        t.set_state(TaskState::Suspended);
        assert_eq!(t.remaining_bytes(), 75 * MIB);
        // A kill throws the progress away: the full input is back.
        t.set_state(TaskState::MustResume);
        t.set_state(TaskState::Running);
        t.set_state(TaskState::MustKill);
        t.set_state(TaskState::Killed);
        t.progress = 0.0;
        assert_eq!(t.remaining_bytes(), 100 * MIB);
        t.set_state(TaskState::Pending);
        t.set_state(TaskState::Running);
        t.progress = 0.5;
        assert_eq!(t.remaining_bytes(), 50 * MIB);
        // Overshooting progress never goes negative.
        t.progress = 1.5;
        assert_eq!(t.remaining_bytes(), 0);
        t.progress = 0.9;
        t.set_state(TaskState::Succeeded);
        assert_eq!(t.remaining_bytes(), 0);
    }

    #[test]
    fn recount_sums_remaining_bytes_over_tasks() {
        let task = |index| {
            TaskRuntime::new(
                TaskId {
                    job: JobId(1),
                    kind: TaskKind::Map,
                    index,
                },
                100 * MIB,
                vec![],
            )
        };
        let mut job = JobRuntime::new(
            JobId(1),
            JobSpec::synthetic("x", 2, 100 * MIB),
            SimTime::ZERO,
            vec![task(0), task(1)],
        );
        assert_eq!(job.remaining_bytes, 200 * MIB);
        job.tasks[0].set_state(TaskState::Running);
        job.tasks[0].progress = 0.5;
        job.recount_task_states();
        assert_eq!(job.remaining_bytes, 150 * MIB);
        job.tasks[0].set_state(TaskState::Succeeded);
        job.recount_task_states();
        assert_eq!(job.remaining_bytes, 100 * MIB);
        assert_eq!(job.counters(), (1, 0, 0, 0, 0, 1, 100 * MIB));
    }

    #[test]
    fn job_runtime_completion_and_sojourn() {
        let spec = JobSpec::synthetic("j", 1, 100);
        let mut job = JobRuntime::new(
            JobId(1),
            spec,
            SimTime::from_secs(10),
            vec![TaskRuntime::new(tid(), 100, vec![])],
        );
        assert_eq!(job.schedulable_count(), 1);
        assert_eq!(job.schedulable_maps, 1);
        assert_eq!(job.schedulable_reduces, 0);
        assert_eq!(job.suspended_count, 0);
        assert_eq!(job.occupying_count, 0);
        assert!(!job.is_complete());
        assert!(job.sojourn().is_none());
        job.tasks[0].set_state(TaskState::Running);
        job.tasks[0].set_state(TaskState::Succeeded);
        job.recount_task_states();
        job.completed_at = Some(SimTime::from_secs(110));
        assert!(job.is_complete());
        assert_eq!(job.sojourn().unwrap(), SimDuration::from_secs(100));
        assert!(job.task(tid()).is_some());
        assert!(job.task_mut(tid()).is_some());
    }

    #[test]
    fn reduce_lookup_is_direct_in_the_engine_layout() {
        let id = |kind, index| TaskId {
            job: JobId(1),
            kind,
            index,
        };
        let task = |kind, index, bytes| TaskRuntime::new(id(kind, index), bytes, vec![]);
        let (m, r) = (TaskKind::Map, TaskKind::Reduce);
        // A decoy copy of reduce 1 in the map region: a scan would return
        // the decoy, the direct lookup returns the task at the reduce's
        // layout position.
        let mut job = JobRuntime::new(
            JobId(1),
            JobSpec::synthetic("r", 2, MIB).with_reduces(3),
            SimTime::ZERO,
            vec![
                task(m, 0, 1),
                task(r, 1, 99),
                task(r, 0, 3),
                task(r, 1, 4),
                task(r, 2, 5),
            ],
        );
        assert_eq!(job.task(id(r, 1)).unwrap().input_bytes, 4);
        job.task_mut(id(r, 1)).unwrap().progress = 0.5;
        assert_eq!(job.tasks[3].progress, 0.5);
        assert_eq!(job.task(id(r, 2)).unwrap().input_bytes, 5);
        assert_eq!(job.task(id(m, 0)).unwrap().input_bytes, 1);
        // A position holding another task, or none, finds nothing.
        assert!(job.task(id(m, 1)).is_none());
        assert!(job.task_mut(id(m, 2)).is_none());
        assert!(job.task(id(r, 3)).is_none());
        assert!(job.task_mut(id(r, u32::MAX)).is_none());
    }
}
