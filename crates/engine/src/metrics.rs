//! Experiment-facing metrics and the end-of-run report.
//!
//! The paper's two performance metrics (Section IV-B) are:
//!
//! * **sojourn time** of the high-priority job `th` — submission to
//!   completion;
//! * **makespan** of the whole workload — first submission to last
//!   completion.
//!
//! plus, for the overhead analysis of Figure 4, the number of bytes paged
//! out for the preempted task's process.

use crate::config::MISSED_HEARTBEATS;
use crate::job::{AttemptId, JobId, JobRuntime, JobTable, TaskId};
use mrp_dfs::NodeId;
use mrp_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Per-task outcome of a simulation run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TaskReport {
    /// The task.
    pub(crate) id: TaskId,
    /// Final reported progress (1.0 when successful).
    pub progress: f64,
    /// Number of attempts that were created.
    pub attempts: u32,
    /// Number of suspend/resume cycles.
    pub suspend_cycles: u32,
    /// Work thrown away because attempts were killed, in seconds.
    pub(crate) wasted_work_secs: f64,
    /// Cumulative bytes of this task's memory paged out to swap.
    pub paged_out_bytes: u64,
    /// Cumulative bytes paged back in from swap.
    pub(crate) paged_in_bytes: u64,
    /// When the first attempt launched.
    pub(crate) first_launched_at: Option<SimTime>,
    /// When the task succeeded.
    pub(crate) finished_at: Option<SimTime>,
}

/// Per-job outcome of a simulation run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobReport {
    /// The job.
    pub(crate) id: JobId,
    /// The job's name (e.g. `th`, `tl`).
    pub(crate) name: String,
    /// Its priority.
    pub priority: i32,
    /// Tenant the job was charged to (mirrors [`crate::JobSpec::tenant`]).
    #[serde(default)]
    pub(crate) tenant: u32,
    /// Whether the job ran best-effort (mirrors
    /// [`crate::JobSpec::best_effort`]).
    #[serde(default)]
    pub best_effort: bool,
    /// Submission time.
    pub(crate) submitted_at: SimTime,
    /// Completion time, if the job finished.
    pub completed_at: Option<SimTime>,
    /// Sojourn time in seconds, if the job finished.
    pub sojourn_secs: Option<f64>,
    /// Per-task details.
    pub tasks: Vec<TaskReport>,
}

impl JobReport {
    /// Builds a report from the JobTracker's bookkeeping.
    pub(crate) fn from_runtime(job: &JobRuntime) -> Self {
        JobReport {
            id: job.id,
            name: job.spec.name.clone(),
            priority: job.spec.priority,
            tenant: job.spec.tenant,
            best_effort: job.spec.best_effort,
            submitted_at: job.submitted_at,
            completed_at: job.completed_at,
            sojourn_secs: job.sojourn().map(|d| d.as_secs_f64()),
            tasks: job
                .tasks
                .iter()
                .map(|t| TaskReport {
                    id: t.id,
                    progress: t.progress,
                    attempts: t.attempts_made,
                    suspend_cycles: t.suspend_cycles,
                    wasted_work_secs: t.wasted_work.as_secs_f64(),
                    paged_out_bytes: t.paged_out_bytes,
                    paged_in_bytes: t.paged_in_bytes,
                    first_launched_at: t.first_launched_at,
                    finished_at: t.finished_at,
                })
                .collect(),
        }
    }

    /// Total paged-out bytes across the job's tasks.
    pub fn paged_out_bytes(&self) -> u64 {
        self.tasks.iter().map(|t| t.paged_out_bytes).sum()
    }

    /// Total wasted work across the job's tasks, in seconds.
    pub fn wasted_work_secs(&self) -> f64 {
        self.tasks.iter().map(|t| t.wasted_work_secs).sum()
    }
}

/// Upper bounds (in seconds) of the delay-scheduling wait-time histogram
/// buckets; the last bucket is open-ended.
pub const DELAY_WAIT_BUCKET_SECS: [f64; 5] = [1.0, 3.0, 10.0, 30.0, 100.0];

/// Map-task launch counts bucketed by input locality (the scheduling analogue
/// of HDFS read locality). Maintained by the engine at every successful map
/// launch, so benches and figures can assert on rack-aware placement quality
/// without replaying the trace.
///
/// When delay scheduling ([`crate::DelayConfig`]) is enabled the struct also
/// carries its cost side: how many launch opportunities jobs declined while
/// waiting for locality, and a histogram of how long the waits that ended in
/// a node-local launch lasted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LocalityStats {
    /// Launches where the node held a replica of the task's input (tasks
    /// with no placement preference at all, e.g. synthetic input, count here:
    /// every node is equally good for them).
    pub node_local: u64,
    /// Launches on a different node in a replica-holding rack.
    pub rack_local: u64,
    /// Launches with every replica in a foreign rack.
    pub off_rack: u64,
    /// Launch opportunities jobs declined under delay scheduling (a free
    /// slot of the right kind the job skipped waiting for a better-placed
    /// one). Zero when delay scheduling is off.
    pub delayed_skips: u64,
    /// Histogram of delay waits that ended in a node-local launch, bucketed
    /// by [`DELAY_WAIT_BUCKET_SECS`] (the last bucket is open-ended). Only
    /// waits that were actually running are recorded, so the histogram
    /// counts *paid* waits, not free node-local launches.
    pub delay_wait_hist: [u64; 6],
}

impl LocalityStats {
    /// Records one completed delay wait (a job's wait clock being reset by a
    /// node-local launch after `waited`).
    pub(crate) fn record_delay_wait(&mut self, waited: mrp_sim::SimDuration) {
        let secs = waited.as_secs_f64();
        let bucket = DELAY_WAIT_BUCKET_SECS
            .iter()
            .position(|&bound| secs < bound)
            .unwrap_or(DELAY_WAIT_BUCKET_SECS.len());
        self.delay_wait_hist[bucket] += 1;
    }

    /// Total completed delay waits across all histogram buckets.
    pub fn delay_waits_total(&self) -> u64 {
        self.delay_wait_hist.iter().sum()
    }
    /// Records one launch at the given locality.
    pub(crate) fn record(&mut self, locality: mrp_dfs::Locality) {
        match locality {
            mrp_dfs::Locality::NodeLocal => self.node_local += 1,
            mrp_dfs::Locality::RackLocal => self.rack_local += 1,
            mrp_dfs::Locality::OffRack => self.off_rack += 1,
        }
    }

    /// Total recorded launches.
    pub fn total(&self) -> u64 {
        self.node_local + self.rack_local + self.off_rack
    }

    /// Fraction of launches that were node-local (0 when nothing recorded).
    pub fn node_local_ratio(&self) -> f64 {
        self.ratio(self.node_local)
    }

    /// Fraction of launches that were rack-local.
    pub fn rack_local_ratio(&self) -> f64 {
        self.ratio(self.rack_local)
    }

    /// Fraction of launches that were off-rack.
    pub(crate) fn off_rack_ratio(&self) -> f64 {
        self.ratio(self.off_rack)
    }

    fn ratio(&self, count: u64) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            count as f64 / total as f64
        }
    }
}

/// Fault-injection and speculative-execution counters for one run,
/// maintained incrementally by the engine.
///
/// `suspended_tasks_lost` / `lost_suspended_work_secs` quantify the paper's
/// key cost under failure: a suspended task's paged-out state lives on the
/// node that suspended it, so losing the node loses all progress the
/// suspension had preserved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Node crashes injected (rack outages count each member).
    pub node_failures: u64,
    /// Administrative decommissions injected.
    pub node_decommissions: u64,
    /// Nodes returned to service.
    pub node_rejoins: u64,
    /// Attempts — running, suspended, or speculative backups — torn down
    /// because their node left the cluster (a superset of
    /// `re_executed_tasks`: a lost original whose backup is promoted, or a
    /// lost backup whose original lives on, costs an attempt without forcing
    /// a re-execution).
    pub attempts_lost: u64,
    /// Suspended attempts whose preserved (suspended-to-disk) state was lost
    /// with their node.
    pub suspended_tasks_lost: u64,
    /// Work the lost suspended attempts had already completed, in seconds.
    pub lost_suspended_work_secs: f64,
    /// Tasks sent back to `Pending` for re-execution by node loss.
    pub re_executed_tasks: u64,
    /// Block replicas re-created on surviving nodes after node loss.
    pub re_replicated_blocks: u64,
    /// Blocks whose last replica was lost in a crash.
    pub(crate) lost_blocks: u64,
    /// Committed map outputs destroyed by node crashes; each forces the map
    /// back to `Pending` (counted in `re_executed_tasks` as well).
    pub lost_map_outputs: u64,
    /// Committed map outputs drained to a surviving node by a graceful
    /// decommission — no re-execution needed, mirroring the graceful block
    /// drain in `mrp_dfs`.
    pub map_outputs_migrated: u64,
    /// Shuffle re-fetch rounds: a reduce finished copying but found map
    /// outputs missing, and went back to sleep on the backoff schedule.
    pub shuffle_refetches: u64,
    /// Speculative (backup) attempts launched.
    pub speculative_launched: u64,
    /// Tasks finished by their speculative attempt (the backup won).
    pub speculative_won: u64,
    /// Work thrown away killing speculation losers, in seconds.
    pub(crate) speculative_wasted_secs: f64,
    /// Nodes the failure detector put under suspicion (missed-heartbeat
    /// timeout fired). Zero when [`crate::DetectorConfig`] is off.
    pub nodes_suspected: u64,
    /// Suspicions confirmed dead: the master tore the node down. A heal that
    /// beats the timeout never reaches this counter.
    pub failures_detected: u64,
    /// Sum over detected failures of the lag between the fault striking and
    /// the master confirming it, in seconds.
    pub(crate) detection_lag_secs_sum: f64,
    /// Largest single detection lag observed, in seconds.
    pub detection_lag_secs_max: f64,
    /// Network partitions injected (rack partitions count each member).
    pub partitions: u64,
    /// Partitions healed (node reconnected to the master).
    pub partition_heals: u64,
    /// Task completions from a healed partition's buffer (or an orphaned
    /// post-heal attempt) that won first-commit-wins and were committed.
    pub reconciled_commits: u64,
    /// Buffered/orphaned completions discarded at reconciliation because a
    /// re-run already committed the task (or the job was retired).
    pub reconciled_discards: u64,
    /// Tasks committed twice. First-commit-wins reconciliation keeps this at
    /// zero by construction; the bench quality gate asserts it.
    pub duplicate_commits: u64,
    /// Gray-failure (slow-disk / slow-net degradation) events injected.
    pub gray_failures: u64,
    /// Gray failures healed (node restored to full speed).
    pub gray_heals: u64,
}

impl FaultStats {
    /// Counts one failure the master detected, `lag_secs` after it struck.
    pub(crate) fn record_detection(&mut self, lag_secs: f64) {
        self.failures_detected += 1;
        self.detection_lag_secs_sum += lag_secs;
        self.detection_lag_secs_max = self.detection_lag_secs_max.max(lag_secs);
    }
}

/// Per-node OS statistics at the end of a run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NodeReport {
    /// The node.
    pub(crate) id: NodeId,
    /// Bytes written to the swap device over the whole run.
    pub swap_out_bytes: u64,
    /// Bytes read back from the swap device.
    pub swap_in_bytes: u64,
    /// Bytes read sequentially from disk (block reads).
    pub(crate) disk_read_bytes: u64,
    /// Bytes written sequentially to disk.
    pub(crate) disk_write_bytes: u64,
    /// Number of OOM-killer invocations on this node.
    pub oom_kills: u64,
    /// Times a process on this node cycled part of its own working set
    /// through swap because it exceeds usable RAM (thrashing under
    /// overcommit).
    #[serde(default)]
    pub thrash_events: u64,
    /// Virtual seconds this node's processes spent stalled on swap I/O,
    /// as accumulated by the block-granular swap device. Zero when the
    /// device is disabled (the legacy byte-granular accounting keeps no
    /// timing) and grows when background DFS traffic shares the spindle.
    #[serde(default)]
    pub swap_io_secs: f64,
}

/// The complete outcome of one simulated run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClusterReport {
    /// One entry per submitted job, in submission order.
    pub jobs: Vec<JobReport>,
    /// One entry per node.
    pub nodes: Vec<NodeReport>,
    /// Map-task launch counts by input locality.
    pub locality: LocalityStats,
    /// Fault-injection and speculation counters.
    pub faults: FaultStats,
    /// Virtual time when the simulation stopped.
    pub finished_at: SimTime,
}

impl ClusterReport {
    /// Finds a job's report by name (the paper refers to jobs as `th`/`tl`).
    pub fn job(&self, name: &str) -> Option<&JobReport> {
        self.jobs.iter().find(|j| j.name == name)
    }

    /// Sojourn time in seconds of the job with the given name.
    pub fn sojourn_secs(&self, name: &str) -> Option<f64> {
        self.job(name).and_then(|j| j.sojourn_secs)
    }

    /// The workload makespan: first submission to last completion, in
    /// seconds. `None` if any job is still incomplete.
    pub fn makespan_secs(&self) -> Option<f64> {
        if self.jobs.is_empty() {
            return None;
        }
        let first_submit = self.jobs.iter().map(|j| j.submitted_at).min()?;
        let mut last_completion = SimTime::ZERO;
        for j in &self.jobs {
            last_completion = last_completion.max(j.completed_at?);
        }
        Some((last_completion - first_submit).as_secs_f64())
    }

    /// Total bytes written to swap across all nodes.
    pub fn total_swap_out_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.swap_out_bytes).sum()
    }

    /// Total bytes read from swap across all nodes.
    pub fn total_swap_in_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.swap_in_bytes).sum()
    }

    /// Total work wasted by killed attempts, in seconds.
    pub fn total_wasted_work_secs(&self) -> f64 {
        self.jobs.iter().map(|j| j.wasted_work_secs()).sum()
    }

    /// True when every submitted job completed.
    pub fn all_jobs_complete(&self) -> bool {
        self.jobs.iter().all(|j| j.completed_at.is_some())
    }

    /// Total virtual seconds processes spent stalled on swap I/O across all
    /// nodes (zero unless the block-granular swap device is enabled).
    pub fn total_swap_io_secs(&self) -> f64 {
        self.nodes.iter().map(|n| n.swap_io_secs).sum()
    }

    /// Renders the run as a short human-readable summary: one line per job,
    /// then cluster-wide totals — including the per-node swap-stall time and
    /// the shuffle re-fetch rounds that previously only appeared as raw
    /// struct fields.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let complete = self
            .jobs
            .iter()
            .filter(|j| j.completed_at.is_some())
            .count();
        let _ = writeln!(
            out,
            "run: {} job(s), {complete} complete, finished at {}",
            self.jobs.len(),
            self.finished_at
        );
        if let Some(makespan) = self.makespan_secs() {
            let _ = writeln!(out, "makespan: {makespan:.1}s");
        }
        for job in &self.jobs {
            let sojourn = match job.sojourn_secs {
                Some(s) => format!("sojourn {s:.1}s"),
                None => "incomplete".to_string(),
            };
            let suspends: u32 = job.tasks.iter().map(|t| t.suspend_cycles).sum();
            let _ = writeln!(
                out,
                "  {:<12} prio {:>3}  {:>3} task(s)  {sojourn}  {suspends} suspend cycle(s)  \
                 {:.1}s wasted",
                job.name,
                job.priority,
                job.tasks.len(),
                job.wasted_work_secs(),
            );
        }
        let _ = writeln!(
            out,
            "swap: {} out / {} in bytes, {:.1}s stalled on swap I/O, {} OOM kill(s)",
            self.total_swap_out_bytes(),
            self.total_swap_in_bytes(),
            self.total_swap_io_secs(),
            self.nodes.iter().map(|n| n.oom_kills).sum::<u64>(),
        );
        let _ = writeln!(
            out,
            "shuffle: {} refetch round(s); faults: {} node failure(s), {} attempt(s) lost, \
             {} task(s) re-executed",
            self.faults.shuffle_refetches,
            self.faults.node_failures,
            self.faults.attempts_lost,
            self.faults.re_executed_tasks,
        );
        if self.locality.total() > 0 {
            let _ = writeln!(
                out,
                "locality: {:.0}% node-local, {:.0}% rack-local, {:.0}% off-rack \
                 ({} launch(es))",
                100.0 * self.locality.node_local_ratio(),
                100.0 * self.locality.rack_local_ratio(),
                100.0 * self.locality.off_rack_ratio(),
                self.locality.total(),
            );
        }
        out
    }
}

/// One fact the cluster observed, at the moment it happened: the typed
/// stream that both the schedule trace ([`Cluster::trace`]) and the
/// observability spans are derived from. Records hold ids and numbers only,
/// never strings; [`Record::to_line`] renders the human-readable form the
/// examples print as Figure-1-style schedules.
///
/// Every variant starts with the virtual time of the fact, followed by its
/// subject (a job, an attempt, a task or a node) and then its numbers.
///
/// [`Cluster::trace`]: crate::Cluster::trace
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Record {
    /// `(at, job)`: a job was submitted.
    JobSubmitted(SimTime, JobId),
    /// `(at, job)`: a job completed.
    JobCompleted(SimTime, JobId),
    /// `(at, attempt, node)`: a task attempt was launched.
    Launched(SimTime, AttemptId, NodeId),
    /// `(at, attempt, node)`: a speculative (backup) attempt was launched.
    Speculated(SimTime, AttemptId, NodeId),
    /// `(at, attempt, node, progress)`: `SIGTSTP` delivered at `progress`
    /// (0–1).
    Suspended(SimTime, AttemptId, NodeId, f64),
    /// `(at, attempt, node, stall)`: `SIGCONT` delivered; the attempt stalls
    /// `stall` paging its state back in.
    Resumed(SimTime, AttemptId, NodeId, SimDuration),
    /// `(at, attempt, node, cause)`: a task's attempt was killed.
    Killed(SimTime, AttemptId, NodeId, KillCause),
    /// `(at, attempt, node, reconciled)`: a task committed; `reconciled`
    /// when the completion was buffered behind a partition or finished by
    /// an orphaned attempt.
    Completed(SimTime, AttemptId, NodeId, bool),
    /// `(at, attempt, node, retry, wait)`: a reduce finished copying but
    /// map outputs are missing; it re-fetches (`retry` counts from 1) after
    /// `wait`.
    ShuffleStalled(SimTime, AttemptId, NodeId, u32, SimDuration),
    /// `(at, attempt, node)`: a reduce that had stalled in its shuffle has
    /// every map output back.
    ShuffleRecovered(SimTime, AttemptId, NodeId),
    /// `(at, attempt, node)`: an attempt was lost with its node (crash or
    /// partition teardown).
    AttemptLost(SimTime, AttemptId, NodeId),
    /// `(at, attempt, node, lost)`: the loser of a first-finisher race, or
    /// an aborted backup, was killed with `lost` of invested work.
    SiblingKilled(SimTime, AttemptId, NodeId, SimDuration),
    /// `(at, map, node)`: a committed map's output died with its node; the
    /// map re-executes.
    MapOutputLost(SimTime, TaskId, NodeId),
    /// `(at, node, cause)`: the master took a node out of service.
    NodeFailed(SimTime, NodeId, NodeLoss),
    /// `(at, node, replicas, lost_blocks)`: a node was decommissioned;
    /// `replicas` blocks were re-created and `lost_blocks` had no survivor.
    NodeDecommissioned(SimTime, NodeId, u64, u64),
    /// `(at, node)`: a node died under the failure detector; the master
    /// does not know yet.
    NodeSilent(SimTime, NodeId),
    /// `(at, node)`: a node returned to service.
    NodeRejoined(SimTime, NodeId),
    /// `(at, node)`: the detector's missed-heartbeat timeout fired.
    NodeSuspected(SimTime, NodeId),
    /// `(at, node)`: a network partition cut the node off from the master.
    NodePartitioned(SimTime, NodeId),
    /// `(at, node)`: a partitioned node reconnected.
    PartitionHealed(SimTime, NodeId),
    /// `(at, node, slow_disk, slow_net)`: a node entered gray failure, its
    /// disk and network slowed by the given multipliers.
    NodeDegraded(SimTime, NodeId, f64, f64),
    /// `(at, node)`: a gray-failed node was restored to full speed.
    DegradationHealed(SimTime, NodeId),
}

/// Why an attempt was killed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KillCause {
    /// `SIGKILL` from a kill command, throwing away the given invested work.
    Signal(SimDuration),
    /// A completion reconciled at a partition heal lost first-commit-wins.
    StaleCompletion,
    /// The OOM killer took the attempt while another task allocated memory.
    Oom,
    /// The OOM killer took a speculative backup.
    SpeculativeOom,
}

/// How the master lost a node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NodeLoss {
    /// `(replicas, lost_blocks)`: the node crashed; `replicas` blocks were
    /// re-created and `lost_blocks` had no surviving replica.
    Crash(u64, u64),
    /// The detector confirmed a partitioned node and tore it down.
    PartitionConfirmed,
}

impl Record {
    /// Renders the record as a single human-readable line, taking job names
    /// from `jobs`.
    pub fn to_line(&self, jobs: &JobTable) -> String {
        let (kind, detail) = match *self {
            Record::JobSubmitted(_, job) => (
                "JobSubmitted",
                jobs.get(&job)
                    .map(|j| j.spec.name.clone())
                    .unwrap_or_default(),
            ),
            Record::JobCompleted(..) => ("JobCompleted", String::new()),
            Record::Launched(_, a, _) => ("Launched", format!("attempt {}", a.number)),
            Record::Speculated(_, a, _) => ("Speculated", format!("backup attempt {}", a.number)),
            Record::Suspended(.., progress) => (
                "Suspended",
                format!("SIGTSTP at {:.0}% progress", progress * 100.0),
            ),
            Record::Resumed(.., stall) => (
                "Resumed",
                format!("SIGCONT, page-in stall {:.2}s", stall.as_secs_f64()),
            ),
            Record::Killed(.., cause) => (
                "Killed",
                match cause {
                    KillCause::Signal(lost) => {
                        format!("SIGKILL, {:.1}s of work lost", lost.as_secs_f64())
                    }
                    KillCause::StaleCompletion => "stale completion discarded at heal".into(),
                    KillCause::Oom => "OOM-killed while another task allocated memory".into(),
                    KillCause::SpeculativeOom => "speculative attempt OOM-killed".into(),
                },
            ),
            Record::Completed(.., reconciled) => (
                "Completed",
                if reconciled { "reconciled" } else { "" }.into(),
            ),
            Record::ShuffleStalled(.., retry, wait) => (
                "ShuffleStalled",
                format!("retry {retry} in {:.1}s", wait.as_secs_f64()),
            ),
            Record::ShuffleRecovered(..) => ("ShuffleRecovered", "map outputs back".into()),
            Record::AttemptLost(_, a, _) => (
                "AttemptLost",
                format!("attempt {} lost with its node", a.number),
            ),
            Record::SiblingKilled(_, a, _, lost) => (
                "SiblingKilled",
                format!(
                    "attempt {}, {:.1}s of work lost",
                    a.number,
                    lost.as_secs_f64()
                ),
            ),
            Record::MapOutputLost(..) => (
                "MapOutputLost",
                "output died with its node; map re-executes".into(),
            ),
            Record::NodeFailed(.., NodeLoss::Crash(replicas, lost)) => (
                "NodeFailed",
                format!("{replicas} replicas re-created, {lost} blocks lost"),
            ),
            Record::NodeFailed(.., NodeLoss::PartitionConfirmed) => {
                ("NodeFailed", "partition confirmed; node torn down".into())
            }
            Record::NodeDecommissioned(.., replicas, lost) => (
                "NodeDecommissioned",
                format!("{replicas} replicas re-created, {lost} blocks lost"),
            ),
            Record::NodeSilent(..) => ("NodeSilent", "died; master not yet aware".into()),
            Record::NodeRejoined(..) => ("NodeRejoined", String::new()),
            Record::NodeSuspected(..) => (
                "NodeSuspected",
                format!("{MISSED_HEARTBEATS} missed heartbeats"),
            ),
            Record::NodePartitioned(..) => ("NodePartitioned", String::new()),
            Record::PartitionHealed(..) => ("PartitionHealed", String::new()),
            Record::NodeDegraded(.., disk, net) => {
                ("NodeDegraded", format!("disk x{disk:.1}, net x{net:.1}"))
            }
            Record::DegradationHealed(..) => ("DegradationHealed", String::new()),
        };
        let (at, job, task, node) = match *self {
            Record::JobSubmitted(at, job) | Record::JobCompleted(at, job) => (at, job, None, None),
            Record::Launched(at, a, node)
            | Record::Speculated(at, a, node)
            | Record::Suspended(at, a, node, _)
            | Record::Resumed(at, a, node, _)
            | Record::Killed(at, a, node, _)
            | Record::Completed(at, a, node, _)
            | Record::ShuffleStalled(at, a, node, ..)
            | Record::ShuffleRecovered(at, a, node)
            | Record::AttemptLost(at, a, node)
            | Record::SiblingKilled(at, a, node, _) => (at, a.task.job, Some(a.task), Some(node)),
            Record::MapOutputLost(at, map, node) => (at, map.job, Some(map), Some(node)),
            Record::NodeFailed(at, node, _)
            | Record::NodeDecommissioned(at, node, ..)
            | Record::NodeSilent(at, node)
            | Record::NodeRejoined(at, node)
            | Record::NodeSuspected(at, node)
            | Record::NodePartitioned(at, node)
            | Record::PartitionHealed(at, node)
            | Record::NodeDegraded(at, node, ..)
            | Record::DegradationHealed(at, node) => (at, JobId(0), None, Some(node)),
        };
        let task = task.map(|t| format!(" {t}")).unwrap_or_default();
        let node = node.map(|n| format!(" on {n}")).unwrap_or_default();
        let detail = if detail.is_empty() {
            detail
        } else {
            format!(" ({detail})")
        };
        format!("[{:>9}] {kind} {job}{task}{node}{detail}", at.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobSpec, TaskKind, TaskRuntime, TaskState};

    fn job_runtime(id: u32, name: &str, submit: u64, complete: Option<u64>) -> JobRuntime {
        let mut task = TaskRuntime::new(
            TaskId {
                job: JobId(id),
                kind: TaskKind::Map,
                index: 0,
            },
            100,
            vec![],
        );
        if complete.is_some() {
            task.set_state(TaskState::Running);
            task.set_state(TaskState::Succeeded);
        }
        let spec = JobSpec::synthetic(name, 1, 100);
        let mut job = JobRuntime::new(JobId(id), spec, SimTime::from_secs(submit), vec![task]);
        job.completed_at = complete.map(SimTime::from_secs);
        job
    }

    fn report_with_two_jobs() -> ClusterReport {
        let make = |id, name, submit, complete| {
            JobReport::from_runtime(&job_runtime(id, name, submit, complete))
        };
        ClusterReport {
            jobs: vec![make(1, "tl", 0, Some(170)), make(2, "th", 40, Some(125))],
            nodes: vec![NodeReport {
                id: NodeId(0),
                swap_out_bytes: 1024,
                swap_in_bytes: 512,
                disk_read_bytes: 0,
                disk_write_bytes: 0,
                oom_kills: 0,
                thrash_events: 0,
                swap_io_secs: 0.0,
            }],
            locality: LocalityStats::default(),
            faults: FaultStats::default(),
            finished_at: SimTime::from_secs(170),
        }
    }

    #[test]
    fn sojourn_and_makespan() {
        let r = report_with_two_jobs();
        assert_eq!(r.sojourn_secs("tl"), Some(170.0));
        assert_eq!(r.sojourn_secs("th"), Some(85.0));
        assert_eq!(r.makespan_secs(), Some(170.0));
        assert!(r.all_jobs_complete());
        assert_eq!(r.total_swap_out_bytes(), 1024);
        assert_eq!(r.total_swap_in_bytes(), 512);
        assert!(r.job("missing").is_none());
    }

    #[test]
    fn incomplete_jobs_have_no_makespan() {
        let mut r = report_with_two_jobs();
        r.jobs[1].completed_at = None;
        r.jobs[1].sojourn_secs = None;
        assert_eq!(r.makespan_secs(), None);
        assert!(!r.all_jobs_complete());
    }

    /// One record of every kind renders to the exact line the schedule
    /// trace has always printed (the examples' output depends on it).
    #[test]
    fn every_record_renders_its_trace_line() {
        use mrp_sim::SimDuration;
        let mut jobs = JobTable::new();
        jobs.insert(JobId(1), job_runtime(1, "tl", 0, None));
        let job = JobId(1);
        let map = TaskId {
            job,
            kind: TaskKind::Map,
            index: 3,
        };
        let reduce = TaskId {
            kind: TaskKind::Reduce,
            index: 0,
            ..map
        };
        let m0 = AttemptId {
            task: map,
            number: 0,
        };
        let m1 = AttemptId { number: 1, ..m0 };
        let r0 = AttemptId {
            task: reduce,
            number: 0,
        };
        let n = NodeId(2);
        let t = SimTime::from_secs_f64;
        let cases = [
            (
                Record::JobSubmitted(t(0.0), job),
                "[   0.000s] JobSubmitted job_0001 (tl)",
            ),
            (
                Record::Launched(t(1.5), m0, n),
                "[   1.500s] Launched job_0001 task_0001_m_000003 on node2 (attempt 0)",
            ),
            (
                Record::Speculated(t(2.0), m1, n),
                "[   2.000s] Speculated job_0001 task_0001_m_000003 on node2 (backup attempt 1)",
            ),
            (
                Record::Suspended(t(41.25), m0, n, 0.514),
                "[  41.250s] Suspended job_0001 task_0001_m_000003 on node2 \
                 (SIGTSTP at 51% progress)",
            ),
            (
                Record::Resumed(t(85.0), m0, n, SimDuration::from_millis(1250)),
                "[  85.000s] Resumed job_0001 task_0001_m_000003 on node2 \
                 (SIGCONT, page-in stall 1.25s)",
            ),
            (
                Record::Killed(
                    t(90.0),
                    m0,
                    n,
                    KillCause::Signal(SimDuration::from_millis(3040)),
                ),
                "[  90.000s] Killed job_0001 task_0001_m_000003 on node2 \
                 (SIGKILL, 3.0s of work lost)",
            ),
            (
                Record::Killed(t(91.0), m0, n, KillCause::StaleCompletion),
                "[  91.000s] Killed job_0001 task_0001_m_000003 on node2 \
                 (stale completion discarded at heal)",
            ),
            (
                Record::Killed(t(92.0), m1, n, KillCause::SpeculativeOom),
                "[  92.000s] Killed job_0001 task_0001_m_000003 on node2 \
                 (speculative attempt OOM-killed)",
            ),
            (
                Record::Killed(t(93.0), m0, n, KillCause::Oom),
                "[  93.000s] Killed job_0001 task_0001_m_000003 on node2 \
                 (OOM-killed while another task allocated memory)",
            ),
            (
                Record::Completed(t(100.0), m0, n, false),
                "[ 100.000s] Completed job_0001 task_0001_m_000003 on node2",
            ),
            (
                Record::Completed(t(101.0), m0, n, true),
                "[ 101.000s] Completed job_0001 task_0001_m_000003 on node2 (reconciled)",
            ),
            (
                Record::JobCompleted(t(102.0), job),
                "[ 102.000s] JobCompleted job_0001",
            ),
            (
                Record::ShuffleStalled(t(60.0), r0, n, 2, SimDuration::from_secs(4)),
                "[  60.000s] ShuffleStalled job_0001 task_0001_r_000000 on node2 (retry 2 in 4.0s)",
            ),
            (
                Record::ShuffleRecovered(t(64.0), r0, n),
                "[  64.000s] ShuffleRecovered job_0001 task_0001_r_000000 on node2 \
                 (map outputs back)",
            ),
            (
                Record::AttemptLost(t(65.0), m0, n),
                "[  65.000s] AttemptLost job_0001 task_0001_m_000003 on node2 \
                 (attempt 0 lost with its node)",
            ),
            (
                Record::SiblingKilled(t(66.0), m1, n, SimDuration::from_millis(2500)),
                "[  66.000s] SiblingKilled job_0001 task_0001_m_000003 on node2 \
                 (attempt 1, 2.5s of work lost)",
            ),
            (
                Record::MapOutputLost(t(61.0), map, n),
                "[  61.000s] MapOutputLost job_0001 task_0001_m_000003 on node2 \
                 (output died with its node; map re-executes)",
            ),
            (
                Record::NodeFailed(t(50.0), n, NodeLoss::Crash(3, 1)),
                "[  50.000s] NodeFailed job_0000 on node2 (3 replicas re-created, 1 blocks lost)",
            ),
            (
                Record::NodeFailed(t(51.0), n, NodeLoss::PartitionConfirmed),
                "[  51.000s] NodeFailed job_0000 on node2 (partition confirmed; node torn down)",
            ),
            (
                Record::NodeDecommissioned(t(52.0), n, 4, 0),
                "[  52.000s] NodeDecommissioned job_0000 on node2 \
                 (4 replicas re-created, 0 blocks lost)",
            ),
            (
                Record::NodeSilent(t(49.0), n),
                "[  49.000s] NodeSilent job_0000 on node2 (died; master not yet aware)",
            ),
            (
                Record::NodeRejoined(t(53.0), n),
                "[  53.000s] NodeRejoined job_0000 on node2",
            ),
            (
                Record::NodeSuspected(t(54.0), n),
                "[  54.000s] NodeSuspected job_0000 on node2 (3 missed heartbeats)",
            ),
            (
                Record::NodePartitioned(t(55.0), n),
                "[  55.000s] NodePartitioned job_0000 on node2",
            ),
            (
                Record::PartitionHealed(t(56.0), n),
                "[  56.000s] PartitionHealed job_0000 on node2",
            ),
            (
                Record::NodeDegraded(t(57.0), n, 2.5, 1.0),
                "[  57.000s] NodeDegraded job_0000 on node2 (disk x2.5, net x1.0)",
            ),
            (
                Record::DegradationHealed(t(58.0), n),
                "[  58.000s] DegradationHealed job_0000 on node2",
            ),
            (
                Record::Launched(
                    t(12_345.678),
                    AttemptId {
                        task: reduce,
                        number: 12,
                    },
                    NodeId(17),
                ),
                "[12345.678s] Launched job_0001 task_0001_r_000000 on node17 (attempt 12)",
            ),
        ];
        for (record, line) in cases {
            assert_eq!(record.to_line(&jobs), line);
        }
    }

    #[test]
    fn empty_report_has_no_makespan() {
        let r = ClusterReport {
            jobs: vec![],
            nodes: vec![],
            locality: LocalityStats::default(),
            faults: FaultStats::default(),
            finished_at: SimTime::ZERO,
        };
        assert_eq!(r.makespan_secs(), None);
        assert!(r.all_jobs_complete());
        assert_eq!(r.total_wasted_work_secs(), 0.0);
    }

    #[test]
    fn summary_surfaces_swap_io_and_refetches() {
        let mut r = report_with_two_jobs();
        r.nodes[0].swap_io_secs = 12.25;
        r.faults.shuffle_refetches = 3;
        assert_eq!(r.total_swap_io_secs(), 12.25);
        let text = r.summary();
        assert!(text.contains("2 job(s), 2 complete"));
        assert!(text.contains("makespan: 170.0s"));
        assert!(text.contains("12.2s stalled on swap I/O"));
        assert!(text.contains("3 refetch round(s)"));
        assert!(text.contains("tl"));
        assert!(text.contains("th"));
    }

    #[test]
    fn locality_stats_record_and_ratios() {
        use mrp_dfs::Locality;
        let mut s = LocalityStats::default();
        assert_eq!(s.total(), 0);
        assert_eq!(s.node_local_ratio(), 0.0);
        s.record(Locality::NodeLocal);
        s.record(Locality::NodeLocal);
        s.record(Locality::RackLocal);
        s.record(Locality::OffRack);
        assert_eq!(s.total(), 4);
        assert_eq!(s.node_local, 2);
        assert_eq!(s.node_local_ratio(), 0.5);
        assert_eq!(s.rack_local_ratio(), 0.25);
        assert_eq!(s.off_rack_ratio(), 0.25);
    }

    #[test]
    fn delay_wait_histogram_buckets() {
        use mrp_sim::SimDuration;
        let mut s = LocalityStats::default();
        s.record_delay_wait(SimDuration::from_millis(500)); // < 1s
        s.record_delay_wait(SimDuration::from_secs(2)); // < 3s
        s.record_delay_wait(SimDuration::from_secs(3)); // < 10s
        s.record_delay_wait(SimDuration::from_secs(29)); // < 30s
        s.record_delay_wait(SimDuration::from_secs(99)); // < 100s
        s.record_delay_wait(SimDuration::from_secs(5_000)); // open-ended
        assert_eq!(s.delay_wait_hist, [1, 1, 1, 1, 1, 1]);
        assert_eq!(s.delay_waits_total(), 6);
    }
}
