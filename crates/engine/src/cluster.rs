//! The simulated cluster: JobTracker, TaskTrackers, heartbeat protocol, and
//! the discrete-event loop.
//!
//! The [`Cluster`] plays the role of the JobTracker plus the glue that, in a
//! real deployment, is the network between the JobTracker and its
//! TaskTrackers. Commands issued by the scheduler (launch, kill, and the
//! paper's suspend/resume) are not applied instantaneously: they put the task
//! in a `MUST_*` state and are delivered when the involved TaskTracker next
//! heartbeats, exactly as Section III-B describes. TaskTrackers heartbeat
//! every `heartbeat_interval` and — as recommended for low-latency Hadoop
//! deployments — send an out-of-band heartbeat whenever a task completes, is
//! suspended, or is killed.
//!
//! # Hot-path design
//!
//! The event loop is the inner loop of every experiment, so its per-event
//! work is kept index-based and allocation-lean:
//!
//! * TaskTrackers live in a `Vec` indexed by node id (node ids are dense by
//!   construction), not a tree;
//! * scheduler policies read the TaskTrackers themselves, and the per-rack
//!   free-slot totals they ask cluster-wide capacity questions of move by
//!   each tracker mutation's before/after difference
//!   ([`Cluster::edit_tracker`]), so a scheduling round refreshes nothing;
//! * pending `MUST_*` commands are indexed per node, so a heartbeat delivers
//!   its commands in O(commands) instead of scanning every task of every job;
//! * "all jobs complete" is an incrementally maintained counter, not an
//!   O(jobs) scan per event;
//! * execution plans are built from borrowed config/profile state — no
//!   per-launch clones of profiles, disk configs or preferred-node lists;
//! * every lifecycle fact (launch, suspend, resume, kill, completion, node
//!   faults) is one typed, string-free [`Record`] handed to a single
//!   recorder, which returns at once when both the schedule trace
//!   ([`TraceLevel`](crate::config::TraceLevel)) and observability are off,
//!   so throughput runs pay nothing for either.

use crate::attempt::{Attempt, AttemptPhase, AttemptState, ExecPlan, OUTPUT_RATIO};
use crate::config::{ClusterConfig, FaultKind, FaultTarget, TraceLevel};
use crate::delay::DelayScoreboard;
use crate::failure::{FailureDomain, Strike, Timer, Verdict};
use crate::job::{
    AttemptId, JobId, JobRuntime, JobSpec, JobTable, MapInput, TaskId, TaskKind, TaskRuntime,
    TaskState,
};
use crate::metrics::{
    ClusterReport, FaultStats, JobReport, KillCause, LocalityStats, NodeLoss, NodeReport, Record,
};
use crate::obs::ObsState;
use crate::reliability::ReliabilityTracker;
use crate::scheduler::{
    PendingTotals, RackSlots, SchedulerAction, SchedulerContext, SchedulerPolicy,
    MAX_LIVE_SPECULATIONS_PER_JOB,
};
use crate::shuffle::ShuffleTracker;
use crate::tasktracker::{FailedAttempt, TaskTracker, TerminationOutcome};
use mrp_dfs::{Locality, NameNode, NodeId, RackId, Topology};
use mrp_sim::{EventId, EventQueue, SimDuration, SimRng, SimTime};

/// Events driving the cluster simulation.
#[derive(Clone, Debug)]
enum Event {
    /// A pre-registered job arrives.
    JobArrival { index: usize },
    /// An out-of-band TaskTracker heartbeat (periodic heartbeats come from
    /// the [`HeartbeatWheel`], not the event queue).
    Heartbeat { node: NodeId },
    /// The current phase segment of an attempt finished.
    PhaseDone {
        node: NodeId,
        attempt: AttemptId,
        phase: AttemptPhase,
    },
    /// The cleanup attempt of a killed task released its slot. `epoch` is
    /// the node's failure epoch at scheduling time: if the node failed in
    /// between, `fail` already freed every slot and the stale release is
    /// discarded.
    CleanupDone {
        node: NodeId,
        kind: TaskKind,
        epoch: u64,
    },
    /// A registered progress trigger fired.
    ProgressTrigger { index: usize },
    /// A fault-plan event (node kill/decommission/rejoin, rack outage)
    /// strikes; `index` points into the cluster's resolved fault schedule.
    Fault { index: usize },
    /// A failure-detector missed-heartbeat timer. `epoch` is the node's
    /// suspicion epoch at arming time; a timer armed before the link state
    /// last changed is discarded.
    Detector { node: NodeId, epoch: u64 },
}

impl Event {
    /// Profiler index of a queue event; index 0 is the heartbeat wheel (see
    /// [`crate::obs::EVENT_KINDS`]).
    fn kind(&self) -> usize {
        match self {
            Self::JobArrival { .. } => 1,
            Self::Heartbeat { .. } => 2,
            Self::PhaseDone { .. } => 3,
            Self::CleanupDone { .. } => 4,
            Self::ProgressTrigger { .. } => 5,
            Self::Fault { .. } => 6,
            Self::Detector { .. } => 7,
        }
    }
}

#[derive(Clone, Debug)]
enum TriggerState {
    Waiting,
    Armed { event: EventId, task: TaskId },
    Fired,
}

/// A progress watch: fires when the named task first reaches the given
/// fraction of its work phase. Used by trigger-driven experiment schedulers
/// to reproduce the paper's "preempt tl at r% progress" scenarios exactly.
#[derive(Clone, Debug)]
struct ProgressTrigger {
    job_name: String,
    task_index: u32,
    fraction: f64,
    state: TriggerState,
}

/// O(1) source of the periodic heartbeat schedule: every node heartbeats
/// every `interval`, staggered evenly over one interval, so the rotation is
/// pure arithmetic — node `idx` of cycle `c` fires at
/// `c * interval + interval * (idx + 1) / (nodes + 1)`. Computing the
/// periodic heartbeats instead of storing them keeps the 10k heartbeat
/// events of a large cluster out of the central heap entirely; without the
/// wheel they dominate the heap and make every pop O(log nodes) over a
/// cache-hostile working set.
#[derive(Debug)]
struct HeartbeatWheel {
    interval_us: u64,
    nodes: u64,
    /// Next node to fire (dense id).
    idx: u64,
    /// Completed full rotations.
    cycle: u64,
    /// Timestamp of the next heartbeat, computed once per [`Self::advance`]
    /// because the event loop peeks at it on every iteration.
    next_at: SimTime,
}

impl HeartbeatWheel {
    fn new(interval_us: u64, nodes: u64) -> Self {
        let mut wheel = HeartbeatWheel {
            interval_us,
            nodes,
            idx: 0,
            cycle: 0,
            next_at: SimTime::ZERO,
        };
        wheel.next_at = wheel.fire_time();
        wheel
    }

    fn fire_time(&self) -> SimTime {
        let offset = (self.interval_us * (self.idx + 1) / (self.nodes + 1)).max(1);
        SimTime::from_micros(self.cycle * self.interval_us + offset)
    }

    /// Timestamp of the next periodic heartbeat.
    fn peek(&self) -> SimTime {
        self.next_at
    }

    /// Consumes the next periodic heartbeat, returning its node.
    fn advance(&mut self) -> NodeId {
        let node = NodeId(self.idx as u32);
        self.idx += 1;
        if self.idx == self.nodes {
            self.idx = 0;
            self.cycle += 1;
        }
        self.next_at = self.fire_time();
        node
    }
}

/// The simulated Hadoop cluster.
pub struct Cluster {
    config: ClusterConfig,
    queue: EventQueue<Event>,
    namenode: NameNode,
    /// TaskTrackers indexed by node id (node ids are dense: 0..n).
    trackers: Vec<TaskTracker>,
    jobs: JobTable,
    scheduler: Box<dyn SchedulerPolicy>,
    rng: SimRng,
    pending_arrivals: Vec<(SimTime, Option<JobSpec>)>,
    arrivals_remaining: usize,
    triggers: Vec<ProgressTrigger>,
    trace: Vec<Record>,
    next_job_id: u32,
    /// Per-rack free-slot totals indexed by rack id, moved by every tracker
    /// mutation in [`Cluster::edit_tracker`].
    rack_slots: Vec<RackSlots>,
    /// Pending `MUST_*` commands indexed by node; delivered at heartbeats.
    pending_cmds: Vec<Vec<TaskId>>,
    /// Reusable buffer for per-heartbeat progress refreshes (attempt id,
    /// task, reported progress).
    progress_buf: Vec<(AttemptId, TaskId, f64)>,
    /// Jobs registered but not yet complete (incremental completion count).
    incomplete_jobs: usize,
    /// Events handled by [`Cluster::run`] so far (throughput accounting).
    events_processed: u64,
    /// Map-task launches bucketed by input locality.
    locality: LocalityStats,
    /// Cluster-wide pending-work counters (see [`PendingTotals`]), updated on
    /// every task state transition alongside the per-job counters.
    totals: PendingTotals,
    /// Computed periodic-heartbeat schedule (see [`HeartbeatWheel`]).
    wheel: HeartbeatWheel,
    /// Fault schedule, link states, gray failures and outage ownership.
    failure: FailureDomain,
    /// Fault-injection and speculation counters for the report.
    fault_stats: FaultStats,
    /// Delay-scheduling state (per-job wait clocks and skip counters),
    /// shared with policies through the [`SchedulerContext`].
    delay: DelayScoreboard,
    /// Per-job map-output registry: which node holds each committed map's
    /// output and how those bytes spread over racks. Shared read-only with
    /// policies through the [`SchedulerContext`].
    shuffle: ShuffleTracker,
    /// ATLAS-style failure-history scores per node and rack, fed by observed
    /// crashes and shared read-only with policies.
    reliability: ReliabilityTracker,
    /// Observability state (span trace and histograms, series sampler,
    /// event-loop profiler); `None` unless [`ObsConfig`](crate::ObsConfig)
    /// is enabled, so the default path pays one null check per site.
    obs: Option<Box<ObsState>>,
}

impl Cluster {
    /// Builds a cluster from a configuration and a scheduling policy.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see
    /// [`ClusterConfig::validate`]); a bad configuration is a programming
    /// error in the experiment, not a runtime condition.
    pub fn new(config: ClusterConfig, scheduler: Box<dyn SchedulerPolicy>) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid cluster configuration: {e}"));
        let node_count = config.nodes.len();
        let topology = Topology::blocked(node_count as u32, config.racks);
        let trackers: Vec<TaskTracker> = (0..)
            .zip(&config.nodes)
            .map(|(id, node)| TaskTracker::new(NodeId(id), node))
            .collect();
        let rack_slots = RackSlots::recount(&trackers, &topology);
        let mut queue = EventQueue::new();
        // First heartbeats are staggered evenly over one interval by the
        // wheel, so they neither all land on the same instant nor (as a
        // fixed per-node offset would at 10k nodes) stretch the cluster's
        // start-up over many minutes of virtual time.
        let wheel = HeartbeatWheel::new(config.heartbeat_interval.as_micros(), node_count as u64);
        let rack_count = topology.rack_count();
        // Fault events go through the ordinary event heap; whether they fire
        // is decided by the run loop like any other event.
        let failure = FailureDomain::new(
            &config,
            (0..rack_count as u32).map(|rack| topology.members_of(RackId(rack))),
        );
        for (index, at) in failure.schedule() {
            queue.schedule(at, Event::Fault { index });
        }
        let namenode = NameNode::new(topology, config.dfs_block_size, config.dfs_replication);
        let rng = SimRng::new(config.seed);
        Cluster {
            queue,
            namenode,
            trackers,
            jobs: JobTable::new(),
            scheduler,
            rng,
            pending_arrivals: Vec::new(),
            arrivals_remaining: 0,
            triggers: Vec::new(),
            trace: Vec::new(),
            next_job_id: 1,
            rack_slots,
            pending_cmds: vec![Vec::new(); node_count],
            progress_buf: Vec::new(),
            incomplete_jobs: 0,
            events_processed: 0,
            locality: LocalityStats::default(),
            totals: PendingTotals::default(),
            wheel,
            failure,
            fault_stats: FaultStats::default(),
            delay: DelayScoreboard::new(config.delay),
            shuffle: ShuffleTracker::new(config.shuffle, rack_count),
            reliability: ReliabilityTracker::new(config.reliability, node_count, rack_count),
            obs: config.obs.enabled.then(|| Box::new(ObsState::new())),
            config,
        }
    }

    /// Read access to the simulated NameNode.
    pub fn namenode(&self) -> &NameNode {
        &self.namenode
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The recorded schedule trace (empty when tracing is
    /// [`TraceLevel::Off`]); render a line with [`Record::to_line`].
    pub fn trace(&self) -> &[Record] {
        &self.trace
    }

    /// Read access to the JobTracker's job table.
    pub fn jobs(&self) -> &JobTable {
        &self.jobs
    }

    /// Number of events processed by [`Cluster::run`] so far; the numerator
    /// of the `sim_throughput` bench's events/sec metric.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Map-task launch counts by input locality so far (also part of the
    /// end-of-run [`ClusterReport`]), including the delay-scheduling skip
    /// count maintained on the scoreboard.
    pub(crate) fn locality_stats(&self) -> LocalityStats {
        let mut stats = self.locality;
        stats.delayed_skips = self.delay.total_skips();
        stats
    }

    /// Read access to the delay-scheduling scoreboard (per-job wait clocks
    /// and skip counters), for tests and harnesses that assert on the delay
    /// state directly.
    pub fn delay_scoreboard(&self) -> &DelayScoreboard {
        &self.delay
    }

    /// The engine-maintained cluster-wide pending-work counters; exposed so
    /// tests can assert they match a recount from the job table.
    pub fn pending_totals(&self) -> PendingTotals {
        self.totals
    }

    /// The TaskTrackers, indexed by dense node id: what scheduler policies
    /// read through the [`SchedulerContext`].
    pub fn trackers(&self) -> &[TaskTracker] {
        &self.trackers
    }

    /// The engine-maintained per-rack free-slot totals, indexed by rack id;
    /// exposed so tests can assert they match [`RackSlots::recount`] over
    /// [`Cluster::trackers`].
    pub fn rack_slots(&self) -> &[RackSlots] {
        &self.rack_slots
    }

    /// The observability state — span trace and histograms, sampled time
    /// series and event-loop profile — accumulated so far; `None` unless
    /// [`ObsConfig`](crate::ObsConfig) is enabled.
    pub fn observability(&self) -> Option<&ObsState> {
        self.obs.as_deref()
    }

    /// Takes the observability state out of the cluster (for harnesses that
    /// want to keep the recordings but drop the cluster). Subsequent events
    /// are no longer observed.
    pub fn take_observability(&mut self) -> Option<Box<ObsState>> {
        self.obs.take()
    }

    /// Whether `node` is currently in service.
    pub(crate) fn node_is_alive(&self, node: NodeId) -> bool {
        self.tracker(node).map(|tt| tt.is_alive()).unwrap_or(false)
    }

    /// Alive *and* reachable: a partition victim the detector tore down is
    /// still alive but offers the master nothing, so promotion and placement
    /// paths must use this stricter check.
    fn node_in_service(&self, node: NodeId) -> bool {
        self.tracker(node)
            .map(|tt| tt.is_alive() && tt.is_reachable())
            .unwrap_or(false)
    }

    fn tracker(&self, node: NodeId) -> Option<&TaskTracker> {
        self.trackers.get(node.0 as usize)
    }

    /// The rack of a cluster node (every node is racked at construction).
    fn rack_of(&self, node: NodeId) -> RackId {
        self.namenode
            .topology()
            .rack_of(node)
            .expect("cluster nodes are racked")
    }

    /// Applies `edit` to `node`'s tracker and moves its rack's free-slot
    /// totals by the tracker's before/after difference. Every engine-side
    /// call of a mutating `TaskTracker` method goes through here, so the
    /// O(racks) capacity answers policies get from [`RackSlots`] stay exact
    /// without a rescan. `None` if the node is unknown.
    #[inline]
    fn edit_tracker<R>(
        &mut self,
        node: NodeId,
        edit: impl FnOnce(&mut TaskTracker) -> R,
    ) -> Option<R> {
        let rack = self.namenode.topology().rack_of(node)?;
        let tt = self.trackers.get_mut(node.0 as usize)?;
        let free = |tt: &TaskTracker| {
            (
                tt.free_slots(TaskKind::Map),
                tt.free_slots(TaskKind::Reduce),
            )
        };
        let before = free(tt);
        let out = edit(tt);
        let after = free(tt);
        if after != before {
            let slots = &mut self.rack_slots[rack.0 as usize];
            slots.free_map = slots.free_map + after.0 - before.0;
            slots.free_reduce = slots.free_reduce + after.1 - before.1;
        }
        Some(out)
    }

    /// A live attempt on `node`, for edits of its phase bookkeeping. An
    /// attempt holds no slot counts, so these edits never move the rack
    /// totals and need no [`Cluster::edit_tracker`].
    fn attempt_mut(&mut self, node: NodeId, attempt: AttemptId) -> Option<&mut Attempt> {
        self.trackers.get_mut(node.0 as usize)?.attempt_mut(attempt)
    }

    /// Creates an input file in the simulated HDFS, writing it from node 0 so
    /// the paper's single-node experiments get node-local splits.
    pub fn create_input_file(&mut self, path: &str, len: u64) -> Result<(), mrp_dfs::DfsError> {
        let writer = self.namenode.topology().node_at(0);
        self.create_input_file_from(path, len, writer)
    }

    /// Creates an input file written from an explicit node, so multi-rack
    /// harnesses can spread first replicas over the cluster instead of
    /// stacking them all on node 0. `None` lets the NameNode pick a random
    /// writer.
    pub fn create_input_file_from(
        &mut self,
        path: &str,
        len: u64,
        writer: Option<NodeId>,
    ) -> Result<(), mrp_dfs::DfsError> {
        self.namenode
            .create_file(path, len, writer, &mut self.rng)?;
        Ok(())
    }

    /// Registers a job to arrive at `at`.
    ///
    /// # Panics
    ///
    /// If the job's `state_dirty_fraction` is outside `[0, 1]`.
    pub fn submit_job_at(&mut self, spec: JobSpec, at: SimTime) {
        if let Err(e) = spec.validate() {
            panic!("invalid job {:?}: {e}", spec.name);
        }
        let index = self.pending_arrivals.len();
        self.pending_arrivals.push((at, Some(spec)));
        self.arrivals_remaining += 1;
        self.queue.schedule(at, Event::JobArrival { index });
    }

    /// Registers a job arriving at time zero.
    pub fn submit_job(&mut self, spec: JobSpec) {
        self.submit_job_at(spec, SimTime::ZERO);
    }

    /// Registers a progress trigger: when map task `task_index` of the job
    /// named `job_name` first reaches `fraction` of its work phase, the
    /// scheduler's `on_progress_trigger` hook is invoked. The trigger fires at
    /// most once; if the watched task is suspended or killed before reaching
    /// the fraction, the watch re-arms when it runs again.
    pub fn add_progress_trigger(&mut self, job_name: &str, task_index: u32, fraction: f64) {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be in [0, 1]"
        );
        self.triggers.push(ProgressTrigger {
            job_name: job_name.to_string(),
            task_index,
            fraction,
            state: TriggerState::Waiting,
        });
    }

    /// Runs the simulation until every submitted job completes, the event
    /// queue drains, or `max_time` is reached. Returns the final virtual time.
    pub fn run(&mut self, max_time: SimTime) -> SimTime {
        if let Some(obs) = self.obs.as_mut() {
            obs.loop_begin();
        }
        loop {
            if self.arrivals_remaining == 0 && self.all_jobs_complete() {
                break;
            }
            // Next event is the earlier of the queue's head and the wheel's
            // computed periodic heartbeat; on a timestamp tie the heartbeat
            // fires first (either order would be deterministic).
            let wheel_at = self.wheel.peek();
            let (next_at, take_wheel) = match self.queue.peek_time() {
                Some(queue_at) if queue_at < wheel_at => (queue_at, false),
                _ => (wheel_at, true),
            };
            if next_at > max_time {
                break;
            }
            self.events_processed += 1;
            if take_wheel {
                self.queue.advance_to(wheel_at);
                let node = self.wheel.advance();
                if let Some(obs) = self.obs.as_mut() {
                    obs.note_event(0);
                }
                self.handle_heartbeat(node, wheel_at);
            } else {
                let (now, event) = self.queue.pop().expect("peeked event must exist");
                if let Some(obs) = self.obs.as_mut() {
                    obs.note_event(event.kind());
                }
                self.handle_event(now, event);
            }
            // The series sampler piggybacks on loop iterations (virtual-time
            // deadline polling) instead of scheduling events of its own, so
            // an observed run processes exactly the same event sequence.
            if self.obs.is_some() {
                self.obs_sample(next_at);
            }
        }
        if let Some(obs) = self.obs.as_mut() {
            obs.loop_end();
        }
        self.queue.now()
    }

    /// Polls the series sampler at `now`, recording one row when a sampling
    /// deadline has passed. Reads only — never mutates simulation state.
    fn obs_sample(&mut self, now: SimTime) {
        if !self.obs.as_ref().is_some_and(|o| o.series_due(now)) {
            return;
        }
        let mut free_map_slots = 0u64;
        let mut free_reduce_slots = 0u64;
        for rack in &self.rack_slots {
            free_map_slots += u64::from(rack.free_map);
            free_reduce_slots += u64::from(rack.free_reduce);
        }
        let mut swapped_bytes = 0u64;
        let mut swap_backlog_bytes = 0u64;
        for tt in &self.trackers {
            swapped_bytes += tt.kernel().memory().swap_used();
            swap_backlog_bytes += tt.kernel().disk().background_pending();
        }
        let row = vec![
            u64::from(self.totals.schedulable_maps),
            u64::from(self.totals.schedulable_reduces),
            u64::from(self.totals.suspended),
            free_map_slots,
            free_reduce_slots,
            swapped_bytes,
            swap_backlog_bytes,
            self.fault_stats.nodes_suspected,
            self.incomplete_jobs as u64,
            self.events_processed,
        ];
        if let Some(obs) = self.obs.as_mut() {
            obs.record_series(now, row);
        }
    }

    fn all_jobs_complete(&self) -> bool {
        self.incomplete_jobs == 0
    }

    /// Builds the end-of-run report.
    pub fn report(&self) -> ClusterReport {
        ClusterReport {
            jobs: self.jobs.values().map(JobReport::from_runtime).collect(),
            nodes: self
                .trackers
                .iter()
                .map(|tt| {
                    let disk = tt.kernel().disk_stats();
                    NodeReport {
                        id: tt.id,
                        swap_out_bytes: disk.swap_bytes_out,
                        swap_in_bytes: disk.swap_bytes_in,
                        disk_read_bytes: disk.bytes_read,
                        disk_write_bytes: disk.bytes_written,
                        oom_kills: tt.kernel().memory_stats().oom_kills,
                        thrash_events: tt.kernel().memory_stats().thrash_events,
                        swap_io_secs: tt
                            .kernel()
                            .memory()
                            .swap_device()
                            .map(|dev| {
                                let s = dev.stats();
                                (s.swap_out_time + s.swap_in_time).as_secs_f64()
                            })
                            .unwrap_or(0.0),
                    }
                })
                .collect(),
            locality: self.locality_stats(),
            faults: self.fault_stats,
            finished_at: self.queue.now(),
        }
    }

    // ----- internal helpers -------------------------------------------------

    /// Records one lifecycle fact: pushes it onto the schedule trace when
    /// tracing is on and hands it to the observability layer when that is
    /// on; with both off it does nothing.
    #[inline]
    fn record(&mut self, record: Record) {
        if self.config.trace_level != TraceLevel::Off {
            self.trace.push(record);
        }
        if let Some(obs) = self.obs.as_mut() {
            obs.observe(&record);
        }
    }

    fn task_mut(&mut self, id: TaskId) -> Option<&mut TaskRuntime> {
        self.jobs.get_mut(&id.job).and_then(|j| j.task_mut(id))
    }

    /// The counter-relevant classification of a task state:
    /// (schedulable, suspended, occupies a slot, terminal).
    #[inline]
    fn state_classes(state: TaskState) -> (bool, bool, bool, bool) {
        (
            state.is_schedulable(),
            state == TaskState::Suspended,
            state.occupies_slot(),
            state.is_terminal(),
        )
    }

    /// Adjusts the job's maintained per-state counters *and* the cluster-wide
    /// pending totals for one task of `kind` moving between the given
    /// classifications. Job counters and totals are updated from the same
    /// branches so they cannot drift apart — the O(1) heartbeat early-exits
    /// trust both to prove "no work exists".
    #[inline]
    fn apply_state_delta(
        job: &mut JobRuntime,
        totals: &mut PendingTotals,
        kind: TaskKind,
        before: (bool, bool, bool, bool),
        after: (bool, bool, bool, bool),
    ) {
        // Counts a task entering (+1) or leaving (-1) a class.
        let step = |counter: &mut u32, entered: bool| {
            if entered {
                *counter += 1;
            } else {
                debug_assert!(*counter > 0);
                *counter -= 1;
            }
        };
        if before.0 != after.0 {
            let (job_field, total_field) = match kind {
                TaskKind::Map => (&mut job.schedulable_maps, &mut totals.schedulable_maps),
                TaskKind::Reduce => (
                    &mut job.schedulable_reduces,
                    &mut totals.schedulable_reduces,
                ),
            };
            step(job_field, after.0);
            step(total_field, after.0);
        }
        if before.1 != after.1 {
            step(&mut job.suspended_count, after.1);
            step(&mut totals.suspended, after.1);
        }
        if before.2 != after.2 {
            step(&mut job.occupying_count, after.2);
        }
        if before.3 != after.3 {
            step(&mut job.terminal_count, after.3);
        }
    }

    /// Applies `edit` to `task` and moves the owning job's maintained
    /// counters — the per-state counts, the cluster-wide pending totals and
    /// `remaining_bytes` — by the task's before/after difference. Every
    /// engine-side write of a task's state or progress goes through here, so
    /// the counters schedulers rely on for O(1) job skipping and HFSP's size
    /// order stay exact without a rescan. `None` if the task is unknown.
    #[inline]
    fn edit_task<R>(
        &mut self,
        task: TaskId,
        edit: impl FnOnce(&mut TaskRuntime) -> R,
    ) -> Option<R> {
        let job = self.jobs.get_mut(&task.job)?;
        let t = job.task_mut(task)?;
        let (state, bytes) = (t.state, t.remaining_bytes());
        let out = edit(t);
        let (after_state, after_bytes) = (t.state, t.remaining_bytes());
        job.remaining_bytes = job.remaining_bytes - bytes + after_bytes;
        // Most edits are progress reports that leave the state alone.
        if after_state != state {
            let shape = |j: &JobRuntime| {
                (
                    j.schedulable_maps > 0,
                    j.schedulable_reduces > 0,
                    j.suspended_count > 0,
                )
            };
            let shape_before = shape(job);
            let (before, after) = (Self::state_classes(state), Self::state_classes(after_state));
            Self::apply_state_delta(job, &mut self.totals, task.kind, before, after);
            if shape(job) != shape_before {
                self.delay.note_shape_change();
            }
        }
        Some(out)
    }

    /// Transitions `task` through the legality-checked state machine,
    /// keeping the job counters in sync.
    fn set_task_state(&mut self, task: TaskId, next: TaskState) {
        self.edit_task(task, |t| t.set_state(next));
    }

    /// Resets a task whose attempt vanished underneath the JobTracker (OOM
    /// kill, lost attempt) straight back to `Pending`, bypassing the legality
    /// check exactly like the old field assignments did, while keeping the
    /// job counters in sync.
    fn force_task_pending(&mut self, task: TaskId) {
        self.edit_task(task, |t| {
            t.state = TaskState::Pending;
            t.progress = 0.0;
            t.node = None;
            t.current_attempt = None;
        });
    }

    /// Forces a task into `next` without the legality check, keeping the job
    /// counters in sync. Used by the fault paths, where a node vanishing
    /// under a task produces transitions the heartbeat protocol never would
    /// (e.g. `Suspended` → `Running` when a speculative backup is promoted).
    fn force_task_state(&mut self, task: TaskId, next: TaskState) {
        self.edit_task(task, |t| t.state = next);
    }

    /// Clears a task's speculative-attempt fields and decrements the owning
    /// job's live-speculation counter. Does *not* touch the backup attempt on
    /// its tracker — callers either killed it already or are promoting it.
    fn clear_speculation_fields(&mut self, task: TaskId) {
        let Some(job) = self.jobs.get_mut(&task.job) else {
            return;
        };
        let Some(t) = job.task_mut(task) else { return };
        if t.spec_attempt.take().is_some() {
            t.spec_node = None;
            debug_assert!(job.speculative_live > 0);
            job.speculative_live = job.speculative_live.saturating_sub(1);
        }
    }

    /// Debug-build invariant: the incrementally maintained job counters match
    /// a recount from the task list.
    #[cfg(debug_assertions)]
    fn debug_check_job_counters(&self, job: JobId) {
        if let Some(j) = self.jobs.get(&job) {
            let mut fresh = j.clone();
            fresh.recount_task_states();
            assert_eq!(
                j.counters(),
                fresh.counters(),
                "maintained job counters drifted for {job:?}"
            );
        }
        assert_eq!(
            self.totals,
            PendingTotals::from_jobs(&self.jobs),
            "maintained cluster-wide pending totals drifted"
        );
    }

    fn task(&self, id: TaskId) -> Option<&TaskRuntime> {
        self.jobs.get(&id.job).and_then(|j| j.task(id))
    }

    /// Records that `task` has a pending `MUST_*` command awaiting delivery
    /// at `node`'s next heartbeat.
    fn enqueue_command(&mut self, node: NodeId, task: TaskId) {
        if let Some(list) = self.pending_cmds.get_mut(node.0 as usize) {
            if !list.contains(&task) {
                list.push(task);
            }
        }
    }

    fn schedule_out_of_band_heartbeat(&mut self, node: NodeId, now: SimTime) {
        self.queue.schedule(now, Event::Heartbeat { node });
    }

    fn handle_event(&mut self, now: SimTime, event: Event) {
        match event {
            Event::JobArrival { index } => {
                self.arrivals_remaining -= 1;
                let spec = self.pending_arrivals[index]
                    .1
                    .take()
                    .expect("each arrival fires exactly once");
                self.register_job(spec, now);
            }
            Event::Heartbeat { node } => {
                self.handle_heartbeat(node, now);
            }
            Event::PhaseDone {
                node,
                attempt,
                phase,
            } => {
                if self.failure.is_silent(node) {
                    return; // the node died with the fault; teardown follows
                }
                self.handle_phase_done(node, attempt, phase, now);
            }
            Event::CleanupDone { node, kind, epoch } => {
                if self.failure.is_silent(node) {
                    return; // dead but undetected; the teardown frees slots
                }
                let Some(tt) = self.tracker(node) else {
                    return;
                };
                if !tt.is_alive() || tt.epoch() != epoch {
                    return; // the node failed since; its slots were all freed
                }
                self.edit_tracker(node, |tt| tt.release_slot(kind));
                self.schedule_out_of_band_heartbeat(node, now);
            }
            Event::ProgressTrigger { index } => {
                self.handle_progress_trigger(index, now);
            }
            Event::Fault { index } => {
                self.handle_fault(index, now);
            }
            Event::Detector { node, epoch } => {
                self.handle_detector(node, epoch, now);
            }
        }
    }

    // ----- fault injection --------------------------------------------------

    /// A fault strikes: a rack fault applies to every member of the rack.
    fn handle_fault(&mut self, index: usize, now: SimTime) {
        let (kind, scripted) = self.failure.fault(index);
        match kind.target() {
            FaultTarget::Node(node) => self.apply_fault(kind, node, scripted, now),
            FaultTarget::Rack(rack) => {
                let members = self.namenode.topology().members_of(rack).to_vec();
                for m in members {
                    self.apply_fault(kind, m, scripted, now);
                }
            }
        }
    }

    fn apply_fault(&mut self, kind: FaultKind, node: NodeId, scripted: bool, now: SimTime) {
        match kind {
            FaultKind::Kill { .. } => {
                if self.strike(node, now) && !scripted {
                    self.failure.own_outage(node, true);
                }
            }
            FaultKind::RackOutage { .. } => {
                // Rack outages are scripted-only: a member already down from
                // churn now belongs to the scripted outage, so its pending
                // churn recovery must not revive it.
                self.strike(node, now);
                self.failure.own_outage(node, false);
            }
            // An operator action: the master knows immediately, detector or
            // not.
            FaultKind::Decommission { .. } => {
                self.fail_node(node, now, true);
            }
            FaultKind::Rejoin { .. } | FaultKind::RackRejoin { .. } => {
                self.rejoin_node(node, now, scripted)
            }
            FaultKind::Partition { .. } | FaultKind::RackPartition { .. } => {
                self.partition_node(node, now)
            }
            FaultKind::PartitionHeal { .. } | FaultKind::RackPartitionHeal { .. } => {
                self.heal_partition(node, now)
            }
            FaultKind::Gray {
                slow_disk,
                slow_net,
                ..
            } => self.degrade_node(node, slow_disk, slow_net, now),
            FaultKind::GrayHeal { .. } => self.heal_degradation(node, now),
        }
    }

    /// A node dies. Without the detector the master tears it down at once;
    /// with it the node only goes dark until the missed-heartbeat timeout.
    /// Returns whether the node was up and went down.
    fn strike(&mut self, node: NodeId, now: SimTime) -> bool {
        let Some(tt) = self.tracker(node) else {
            return false;
        };
        let (alive, reachable) = (tt.is_alive(), tt.is_reachable());
        match self.failure.strike(node, now, alive) {
            Strike::Absorbed => return false,
            Strike::Fail => return self.fail_node(node, now, false),
            Strike::Silence(timer) => self.arm_detector(node, timer),
            // Not torn down yet: the timer armed at partition time is still
            // counting and will confirm this death.
            Strike::BehindPartition if reachable => {}
            Strike::BehindPartition => {
                // The master already resolved every attempt at the partition
                // teardown; the node-side remnants die quietly.
                for f in self.stop_node(node, now) {
                    if let Some(ev) = f.segment_event {
                        self.queue.cancel(ev);
                    }
                }
            }
        }
        self.record(Record::NodeSilent(now, node));
        true
    }

    fn arm_detector(&mut self, node: NodeId, timer: Timer) {
        let epoch = timer.epoch;
        self.queue
            .schedule(timer.at, Event::Detector { node, epoch });
    }

    /// Kills every process on the node; the completions it buffered behind a
    /// partition die with them.
    fn stop_node(&mut self, node: NodeId, now: SimTime) -> Vec<FailedAttempt> {
        self.failure.node_died(node);
        self.edit_tracker(node, |tt| tt.fail(now))
            .unwrap_or_default()
    }

    /// Takes a node out of service: tears down its attempts (suspended-to-
    /// disk state is lost — the paper's key cost under failure) and writes
    /// off the master's view of it. Returns `true` when the node was alive
    /// and actually taken down.
    fn fail_node(&mut self, node: NodeId, now: SimTime, decommission: bool) -> bool {
        if !self.node_is_alive(node) {
            return false; // duplicate fault (e.g. random churn hit a dead node)
        }
        let torn_down = self.stop_node(node, now);
        let (replicas, lost) = self.write_off(node, torn_down, decommission, now);
        let record = if decommission {
            self.fault_stats.node_decommissions += 1;
            Record::NodeDecommissioned(now, node, replicas, lost)
        } else {
            self.fault_stats.node_failures += 1;
            Record::NodeFailed(now, node, NodeLoss::Crash(replicas, lost))
        };
        self.record(record);
        true
    }

    /// Writes off the master's view of a lost node: resolves the attempts it
    /// knew there, drops the node's pending commands, drains or loses its map
    /// outputs, feeds crashes to the reliability predictor and repairs its
    /// blocks. Returns the re-replicated and lost block counts.
    fn write_off(
        &mut self,
        node: NodeId,
        failed: Vec<FailedAttempt>,
        decommission: bool,
        now: SimTime,
    ) -> (u64, u64) {
        let idx = node.0 as usize;
        // Commands addressed to this node can never be delivered now; the
        // teardown below resets their tasks, so drop them wholesale.
        if let Some(cmds) = self.pending_cmds.get_mut(idx) {
            cmds.clear();
        }
        for f in failed {
            self.resolve_failed_attempt(f, node, now);
        }
        // Map outputs are node-local artifacts, not HDFS blocks: a crash
        // destroys them and the affected *completed* maps go back to Pending
        // for re-execution, while a graceful decommission drains them to a
        // live node first so no re-execution is needed — mirroring the
        // NameNode's graceful-vs-crash block handling below.
        let rack = self.rack_of(node);
        let drain = if decommission && self.shuffle.enabled() {
            self.drain_target(node)
        } else {
            None
        };
        match drain {
            Some((to, to_rack)) => {
                for job in self.live_jobs() {
                    let moved = self.shuffle.migrate(job, node, rack, to, to_rack);
                    self.fault_stats.map_outputs_migrated += moved;
                }
            }
            // A crash — or a decommission with nowhere left to drain to —
            // loses the outputs.
            None => self.lose_map_outputs(node, now),
        }
        // Only crashes feed the reliability predictor: a decommission is an
        // operator action, not evidence of flakiness.
        if !decommission {
            self.reliability.record_failure(node, rack, now);
        }
        // Block loss goes through the NameNode: replicas on the node vanish
        // and under-replicated blocks are repaired from survivors (a graceful
        // decommission drains even last-replica blocks).
        let affected = self.namenode.decommission(node);
        let repair = self
            .namenode
            .re_replicate(&affected, decommission, &mut self.rng);
        self.fault_stats.re_replicated_blocks += repair.re_replicated;
        self.fault_stats.lost_blocks += repair.lost_blocks;
        self.charge_re_replication_io(repair.re_replicated);
        (repair.re_replicated, repair.lost_blocks)
    }

    /// Ids of the jobs that have not completed yet.
    fn live_jobs(&self) -> Vec<JobId> {
        self.jobs
            .values()
            .filter(|j| j.completed_at.is_none())
            .map(|j| j.id)
            .collect()
    }

    /// Deterministic target for a decommission drain of map outputs: the
    /// lowest-id live node on the leaving node's rack, else the lowest-id
    /// live node anywhere, else `None` (nothing left to drain to).
    fn drain_target(&self, leaving: NodeId) -> Option<(NodeId, RackId)> {
        let rack = self.rack_of(leaving);
        let mut fallback = None;
        for tt in &self.trackers {
            if tt.id == leaving || !tt.is_alive() {
                continue;
            }
            let r = self.rack_of(tt.id);
            if r == rack {
                return Some((tt.id, r));
            }
            if fallback.is_none() {
                fallback = Some((tt.id, r));
            }
        }
        fallback
    }

    /// Declares every map output on `node` destroyed: affected *completed*
    /// maps go back to `Pending` for re-execution.
    fn lose_map_outputs(&mut self, node: NodeId, now: SimTime) {
        if !self.shuffle.enabled() {
            return;
        }
        let rack = self.rack_of(node);
        for job in self.live_jobs() {
            for index in self.shuffle.on_node_lost(job, node, rack) {
                let map = TaskId {
                    job,
                    kind: TaskKind::Map,
                    index,
                };
                if self.task(map).map(|t| t.state) != Some(TaskState::Succeeded) {
                    // Already re-executing (e.g. reset by the attempt
                    // teardown); nothing to do.
                    continue;
                }
                self.force_task_pending(map);
                self.fault_stats.lost_map_outputs += 1;
                self.fault_stats.re_executed_tasks += 1;
                self.record(Record::MapOutputLost(now, map, node));
            }
        }
    }

    /// Reconciles one attempt torn down by node loss with the JobTracker
    /// state (see [`Cluster::lose_attempt`]).
    fn resolve_failed_attempt(&mut self, failed: FailedAttempt, node: NodeId, now: SimTime) {
        self.fault_stats.attempts_lost += 1;
        self.record(Record::AttemptLost(now, failed.id, node));
        if let Some(ev) = failed.segment_event {
            self.queue.cancel(ev);
        }
        self.unarm_triggers(failed.id.task);
        if failed.state == AttemptState::Suspended {
            self.fault_stats.suspended_tasks_lost += 1;
            self.fault_stats.lost_suspended_work_secs += failed.invested.as_secs_f64();
        }
        self.lose_attempt(failed.id, failed.invested, true);
    }

    /// The JobTracker's side of losing `attempt` — with its node
    /// (`node_lost`) or to the OOM killer on a live node. A lost backup only
    /// clears the task's speculation fields; the original attempt continues.
    /// A lost original promotes the task's backup — the payoff of
    /// speculative re-execution under churn — if there is one (after a node
    /// loss, only if the backup's node is in service: a backup torn down by
    /// the same rack outage is resolved by its own entry); otherwise the task
    /// restarts from scratch as `Pending`. The original's `wasted` time is
    /// charged to the task; node losses also count the waste and the
    /// re-execution in the fault stats.
    fn lose_attempt(&mut self, attempt: AttemptId, wasted: SimDuration, node_lost: bool) {
        let task = attempt.task;
        let Some(t) = self.task(task) else { return };
        let (is_current, backup) = (
            t.current_attempt == Some(attempt),
            t.spec_attempt.zip(t.spec_node),
        );
        if t.spec_attempt == Some(attempt) {
            if node_lost {
                self.fault_stats.speculative_wasted_secs += wasted.as_secs_f64();
            }
            self.clear_speculation_fields(task);
            return;
        }
        if !is_current {
            return;
        }
        self.unarm_triggers(task);
        if backup.is_some() {
            self.clear_speculation_fields(task);
        }
        if let Some(t) = self.task_mut(task) {
            t.wasted_work += wasted;
        }
        match backup {
            Some((spec_attempt, spec_node)) if !node_lost || self.node_in_service(spec_node) => {
                // Progress watches re-arm against the promoted attempt.
                if let Some(t) = self.task_mut(task) {
                    t.current_attempt = Some(spec_attempt);
                    t.node = Some(spec_node);
                }
                self.force_task_state(task, TaskState::Running);
                self.arm_triggers(task, spec_node, spec_attempt);
            }
            _ => {
                if node_lost {
                    self.fault_stats.re_executed_tasks += 1;
                }
                self.force_task_pending(task);
            }
        }
    }

    // ----- suspicion-based failure detection & partitions -------------------

    fn handle_detector(&mut self, node: NodeId, epoch: u64, now: SimTime) {
        let Some((verdict, lag)) = self.failure.suspect(node, epoch, now) else {
            return; // stale timer: the link state changed since it was armed
        };
        self.fault_stats.nodes_suspected += 1;
        self.record(Record::NodeSuspected(now, node));
        self.fault_stats.record_detection(lag);
        match verdict {
            Verdict::Dead => {
                self.fail_node(node, now, false);
            }
            Verdict::Partitioned => self.teardown_partitioned(node, now),
        }
    }

    /// Cuts a node off from the master. It keeps executing — completions
    /// buffer for the heal — while the detector (if on) counts down toward
    /// tearing it down.
    fn partition_node(&mut self, node: NodeId, now: SimTime) {
        let alive = self.node_is_alive(node);
        let Some(timer) = self.failure.partition(node, now, alive) else {
            return; // dead, dark, or already partitioned
        };
        self.fault_stats.partitions += 1;
        if let Some(timer) = timer {
            self.arm_detector(node, timer);
        }
        self.record(Record::NodePartitioned(now, node));
    }

    /// The master gives up on a partitioned node: exactly a crash as far as
    /// the master can tell, except the node itself keeps running toward the
    /// heal and `node_failures` stays untouched (the partition counter
    /// family tracks it instead).
    fn teardown_partitioned(&mut self, node: NodeId, now: SimTime) {
        let tt = &self.trackers[node.0 as usize];
        // Synthesize the master-side view of the teardown. `segment_event`
        // stays `None`: the attempts really are still running out there, and
        // their node-side phase events keep firing toward the heal.
        let failed: Vec<FailedAttempt> = tt
            .attempts()
            .map(|a| FailedAttempt {
                id: a.id,
                state: a.state,
                invested: a.invested_time(now),
                segment_event: None,
            })
            .collect();
        self.edit_tracker(node, |tt| tt.set_reachable(false));
        self.write_off(node, failed, false, now);
        self.record(Record::NodeFailed(now, node, NodeLoss::PartitionConfirmed));
    }

    /// Charges re-replication write traffic against the survivors' spindles:
    /// repaired replicas are written by live nodes, and — with a disk
    /// `background_share` configured — swap I/O on those nodes contends with
    /// the stream until it drains. No-op in the default configuration, where
    /// `queue_background_io` discards the bytes.
    fn charge_re_replication_io(&mut self, replicas: u64) {
        if replicas == 0 {
            return;
        }
        let total = replicas * self.config.dfs_block_size;
        let alive = self.trackers.iter().filter(|tt| tt.is_alive()).count() as u64;
        if alive == 0 {
            return;
        }
        let per_node = total / alive;
        for node in (0..self.trackers.len() as u32).map(NodeId) {
            self.edit_tracker(node, |tt| {
                if tt.is_alive() {
                    tt.queue_background_io(per_node);
                }
            });
        }
    }

    /// Reconnects a partitioned node. Completions it finished behind the
    /// partition reconcile first-commit-wins; if the master had torn it
    /// down, its capacity and replicas return to service.
    fn heal_partition(&mut self, node: NodeId, now: SimTime) {
        let Some(buffered) = self.failure.heal(node, now) else {
            return;
        };
        let idx = node.0 as usize;
        self.fault_stats.partition_heals += 1;
        let torn_down = !self.trackers[idx].is_reachable();
        if torn_down {
            self.edit_tracker(node, |tt| tt.set_reachable(true));
            self.namenode.rejoin(node);
        }
        // Reconcile in completion order: the first committed attempt of a
        // task wins, later ones are discarded.
        for attempt in buffered {
            self.reconcile_completion(attempt, node, now);
        }
        if torn_down {
            // Suspended orphans hold no slot and nothing will ever resume
            // them (the master re-ran their tasks at teardown); running
            // orphans keep going — they may still win first-commit-wins.
            self.edit_tracker(node, |tt| {
                let suspended: Vec<AttemptId> = tt.suspended_attempts().collect();
                for a in suspended {
                    let _ = tt.kill(a, now);
                }
            });
        }
        self.record(Record::PartitionHealed(now, node));
        // The node reconnects: an immediate heartbeat reintroduces it to the
        // scheduler.
        self.schedule_out_of_band_heartbeat(node, now);
    }

    /// Slows a node down without killing it: new launches there stretch by
    /// the disk multiplier (work, finalize) and the net multiplier (shuffle,
    /// re-fetch backoff). Feeds the reliability predictor at half a crash's
    /// weight.
    fn degrade_node(&mut self, node: NodeId, slow_disk: f64, slow_net: f64, now: SimTime) {
        if !self.node_is_alive(node) {
            return;
        }
        self.failure.degrade(node, slow_disk, slow_net);
        self.fault_stats.gray_failures += 1;
        self.reliability.record_degraded(node, now);
        self.record(Record::NodeDegraded(now, node, slow_disk, slow_net));
    }

    /// Restores a gray-failed node to full speed (new launches only;
    /// attempts planned while degraded keep their stretched plans).
    fn heal_degradation(&mut self, node: NodeId, now: SimTime) {
        if self.failure.heal_degradation(node) {
            self.fault_stats.gray_heals += 1;
            self.record(Record::DegradationHealed(now, node));
        }
    }

    /// Returns a failed node to service with empty disks and all slots free.
    /// A *churn* rejoin only revives a node whose current outage was caused
    /// by a churn kill — never one a scripted kill, rack outage or
    /// decommission took down. Scripted rejoins (operator actions) revive
    /// anything.
    fn rejoin_node(&mut self, node: NodeId, now: SimTime, scripted: bool) {
        if !self.failure.may_rejoin(node, scripted) {
            return;
        }
        // Under the failure detector a dead node may still be *silent* —
        // never confirmed. Its reconnect is itself the detection: run the
        // deferred teardown first, then revive from that clean slate. (A
        // partition victim that died after the master confirmed the
        // partition was torn down node-side already: nothing new to observe.)
        if let Some(lag) = self.failure.reconnect(node, now) {
            if self.node_is_alive(node) {
                self.fault_stats.record_detection(lag);
                self.fail_node(node, now, false);
            }
        }
        if self.tracker(node).is_none_or(|tt| tt.is_alive()) {
            return;
        }
        self.edit_tracker(node, |tt| tt.revive());
        self.failure.revived(node, now);
        self.namenode.rejoin(node);
        self.fault_stats.node_rejoins += 1;
        self.record(Record::NodeRejoined(now, node));
    }

    fn register_job(&mut self, spec: JobSpec, now: SimTime) -> JobId {
        let id = JobId(self.next_job_id);
        self.next_job_id += 1;

        // One map per input split: (bytes, replica holders).
        let splits: Vec<(u64, Vec<NodeId>)> = match &spec.input {
            MapInput::DfsFile { path } => {
                let nn = &self.namenode;
                let file = nn.lookup(path).unwrap_or_else(|| {
                    panic!("input file {path} does not exist in the simulated HDFS")
                });
                file.blocks
                    .iter()
                    .map(|&b| {
                        let size = nn.block(b).expect("block metadata").size;
                        (size, nn.replicas_of(b).to_vec())
                    })
                    .collect()
            }
            MapInput::Synthetic {
                tasks: n,
                bytes_per_task,
            } => vec![(*bytes_per_task, Vec::new()); *n as usize],
        };
        // Reduces split the map output evenly (unused without reduces).
        let total_map_input: u64 = splits.iter().map(|(bytes, _)| bytes).sum();
        let output_ratio = spec.profile.output_ratio.unwrap_or(OUTPUT_RATIO);
        let per_reduce =
            ((total_map_input as f64 * output_ratio) / spec.reduce_tasks as f64) as u64;
        let maps = (0..)
            .zip(splits)
            .map(|(i, split)| (TaskKind::Map, i, split));
        let reduces =
            (0..spec.reduce_tasks).map(|i| (TaskKind::Reduce, i, (per_reduce.max(1), Vec::new())));
        let tasks: Vec<TaskRuntime> = maps
            .chain(reduces)
            .map(|(kind, index, (bytes, preferred))| {
                TaskRuntime::new(
                    TaskId {
                        job: id,
                        kind,
                        index,
                    },
                    bytes,
                    preferred,
                )
            })
            .collect();
        assert!(!tasks.is_empty(), "job {} has no tasks", spec.name);

        // Freshly registered tasks are all Pending, hence schedulable.
        let map_count = tasks.iter().filter(|t| t.id.kind == TaskKind::Map).count() as u32;
        let reduce_count = tasks.len() as u32 - map_count;
        let remaining_bytes = tasks.iter().map(TaskRuntime::remaining_bytes).sum();
        self.totals.schedulable_maps += map_count;
        self.totals.schedulable_reduces += reduce_count;
        self.delay.register_job();
        self.shuffle.register_job(map_count, reduce_count);
        self.jobs.insert(
            id,
            JobRuntime {
                id,
                spec,
                submitted_at: now,
                completed_at: None,
                tasks,
                schedulable_maps: map_count,
                schedulable_reduces: reduce_count,
                suspended_count: 0,
                occupying_count: 0,
                speculative_live: 0,
                terminal_count: 0,
                remaining_bytes,
            },
        );
        self.incomplete_jobs += 1;
        self.record(Record::JobSubmitted(now, id));

        self.consult(now, |s, ctx| s.on_job_submitted(ctx, id));
        id
    }

    fn handle_heartbeat(&mut self, node: NodeId, now: SimTime) {
        // Dead nodes do not heartbeat. The wheel keeps computing their
        // periodic slots, but the cluster ignores them until the node
        // rejoins.
        if !self.node_is_alive(node) || !self.failure.heartbeat(node, now) {
            return;
        }
        let node_idx = node.0 as usize;

        // 1. Refresh reported progress for tasks on this node (reusable
        //    buffer: no per-heartbeat allocation).
        let mut buf = std::mem::take(&mut self.progress_buf);
        buf.clear();
        for a in self.trackers[node_idx].attempts() {
            if matches!(a.state, AttemptState::Running | AttemptState::Suspended) {
                buf.push((a.id, a.task, a.progress(now)));
            }
        }
        for &(attempt, task, progress) in &buf {
            self.edit_task(task, |t| {
                // Only attempts the JobTracker still tracks may report: an
                // orphan left running on a healed partition victim must not
                // overwrite the progress of a task that already succeeded
                // (or re-ran) elsewhere.
                if t.current_attempt != Some(attempt) && t.spec_attempt != Some(attempt) {
                    return;
                }
                // With a live backup attempt the task's progress is the best
                // of the two attempts, whichever node reports it.
                if t.spec_attempt.is_some() {
                    t.progress = t.progress.max(progress);
                } else {
                    t.progress = progress;
                }
            });
        }
        buf.clear();
        self.progress_buf = buf;

        // 2. Deliver pending MUST_* commands piggybacked on this heartbeat.
        //    The per-node command index replaces the old O(jobs x tasks) scan.
        let mut pending = std::mem::take(&mut self.pending_cmds[node_idx]);
        for &task in &pending {
            let Some(t) = self.task(task) else { continue };
            if t.node != Some(node) {
                continue;
            }
            match t.state {
                TaskState::MustSuspend => self.deliver_suspend(task, node, now),
                TaskState::MustResume => self.deliver_resume(task, node, now),
                TaskState::MustKill => self.deliver_kill(task, node, now),
                _ => {}
            }
        }
        // Keep commands that could not be delivered yet (e.g. suspend during
        // setup, resume without a free slot); they retry next heartbeat.
        pending.retain(|&task| {
            self.task(task).is_some_and(|t| {
                t.node == Some(node)
                    && matches!(
                        t.state,
                        TaskState::MustSuspend | TaskState::MustResume | TaskState::MustKill
                    )
            })
        });
        let list = &mut self.pending_cmds[node_idx];
        for task in pending {
            if !list.contains(&task) {
                list.push(task);
            }
        }

        // 3. Let the scheduling policy hand out work for this node.
        self.consult(now, |s, ctx| s.on_heartbeat(ctx, node));
    }

    fn deliver_suspend(&mut self, task: TaskId, node: NodeId, now: SimTime) {
        let Some(attempt_id) = self.task(task).and_then(|t| t.current_attempt) else {
            return;
        };
        let Some(attempt) = self.tracker(node).and_then(|tt| tt.attempt(attempt_id)) else {
            return;
        };
        let (phase, pending_event) = (attempt.phase, attempt.segment_event);
        match phase {
            // Too early: retry at the next heartbeat once the task is in its
            // work phase (a task that has not started working has nothing
            // worth preserving yet, and Hadoop cannot stop a task mid-setup).
            AttemptPhase::Setup | AttemptPhase::Shuffle => {}
            // Too late: the task will complete before the suspension matters;
            // the completion heartbeat resolves the race (Section III-B).
            AttemptPhase::Finalize => {}
            AttemptPhase::Work => {
                let Some(Ok(progress)) = self.edit_tracker(node, |tt| tt.suspend(attempt_id, now))
                else {
                    return;
                };
                if let Some(ev) = pending_event {
                    self.queue.cancel(ev);
                }
                self.unarm_triggers(task);
                self.edit_task(task, |t| {
                    t.set_state(TaskState::Suspended);
                    t.progress = progress;
                    t.suspend_cycles += 1;
                });
                self.record(Record::Suspended(now, attempt_id, node, progress));
                self.schedule_out_of_band_heartbeat(node, now);
            }
        }
    }

    fn deliver_resume(&mut self, task: TaskId, node: NodeId, now: SimTime) {
        let Some(attempt_id) = self.task(task).and_then(|t| t.current_attempt) else {
            return;
        };
        // No free slot (or similar): stay in MUST_RESUME and retry at the
        // next heartbeat from this tracker.
        let Some(Ok(stall)) = self.edit_tracker(node, |tt| tt.resume(attempt_id, now)) else {
            return;
        };
        self.enter_phase(node, attempt_id, AttemptPhase::Work, stall, now);
        self.set_task_state(task, TaskState::Running);
        self.record(Record::Resumed(now, attempt_id, node, stall));
    }

    fn deliver_kill(&mut self, task: TaskId, node: NodeId, now: SimTime) {
        let Some(attempt_id) = self.task(task).and_then(|t| t.current_attempt) else {
            return;
        };
        // Killing a task kills the whole task: any live backup dies with it.
        self.abort_speculation(task, now);
        let Some(tt) = self.tracker(node) else {
            return;
        };
        let Some(attempt) = tt.attempt(attempt_id) else {
            // The attempt vanished underneath us (e.g. the OOM killer took
            // it); make the task schedulable again so it restarts from scratch.
            self.force_task_pending(task);
            return;
        };
        let pending_event = attempt.segment_event;
        let invested = attempt.invested_time(now);
        let Some(Ok(outcome)) = self.edit_tracker(node, |tt| tt.kill(attempt_id, now)) else {
            return;
        };
        if let Some(ev) = pending_event {
            self.queue.cancel(ev);
        }
        self.unarm_triggers(task);
        if outcome.held_slot {
            self.hold_cleanup_slot(node, task.kind, now);
        }
        self.edit_task(task, |t| {
            t.set_state(TaskState::Killed);
            t.wasted_work += invested;
            t.paged_out_bytes += outcome.paged_out_bytes;
            t.paged_in_bytes += outcome.paged_in_bytes;
            t.progress = 0.0;
            t.node = None;
            t.current_attempt = None;
            // The task itself is rescheduled from scratch.
            t.set_state(TaskState::Pending);
        });
        let cause = KillCause::Signal(invested);
        self.record(Record::Killed(now, attempt_id, node, cause));
    }

    fn handle_phase_done(
        &mut self,
        node: NodeId,
        attempt_id: AttemptId,
        phase: AttemptPhase,
        now: SimTime,
    ) {
        // Defensive: the attempt may have been suspended, killed or OOM-killed
        // since this event was scheduled; its cancellation normally removes
        // the event, but a removed attempt cannot be cancelled, so re-check.
        let Some(attempt) = self.tracker(node).and_then(|tt| tt.attempt(attempt_id)) else {
            return;
        };
        if attempt.state != AttemptState::Running || attempt.phase != phase {
            return;
        }
        let task = attempt_id.task;
        match phase {
            AttemptPhase::Setup => {
                let alloc = self.edit_tracker(node, |tt| {
                    let alloc = tt.allocate_task_memory(attempt_id, now).ok()?;
                    if !alloc.failed {
                        let input_bytes = tt
                            .attempt(attempt_id)
                            .map(|a| a.plan.input_bytes)
                            .unwrap_or(0);
                        tt.record_input_read(input_bytes);
                    }
                    Some(alloc)
                });
                let Some(alloc) = alloc.flatten() else {
                    return; // unknown attempt: nothing to clean up
                };
                // The allocating attempt itself may be among the victims (the
                // OOM killer sacrificed it); the failure path below resolves
                // it, so only the *other* victims are handled here.
                let mut self_killed = None;
                for &(victim, invested) in &alloc.oom_killed {
                    if victim == attempt_id {
                        self_killed = Some(invested);
                    } else {
                        self.handle_oom_victim(victim, invested, node, now);
                    }
                }
                // An unrecoverable allocation failure: an allocating attempt
                // the OOM killer took is one more victim; a backup that
                // failed is dropped while the original continues; an
                // original still on the tracker goes through the kill path.
                if alloc.failed {
                    if let Some(invested) = self_killed {
                        self.handle_oom_victim(attempt_id, invested, node, now);
                    } else if self.task(task).and_then(|t| t.spec_attempt) == Some(attempt_id) {
                        self.abort_speculation(task, now);
                    } else {
                        // Index the command in case the immediate delivery
                        // cannot complete (the retry rides the next heartbeat).
                        let state = self.task(task).map(|t| t.state);
                        if matches!(state, Some(TaskState::Running | TaskState::MustSuspend)) {
                            self.set_task_state(task, TaskState::MustKill);
                            self.enqueue_command(node, task);
                        }
                        self.deliver_kill(task, node, now);
                    }
                    return;
                }
                let next_phase = if task.kind == TaskKind::Reduce {
                    AttemptPhase::Shuffle
                } else {
                    AttemptPhase::Work
                };
                self.enter_phase(node, attempt_id, next_phase, alloc.stall, now);
            }
            AttemptPhase::Shuffle => {
                // The reduce finished copying, but map outputs may have died
                // with a node mid-shuffle. Graceful degradation: the reduce
                // does not fail — it stalls in Shuffle re-fetching with
                // exponential backoff while the JobTracker re-executes the
                // lost maps, and proceeds once every output is back.
                if !self.shuffle.complete(task.job) {
                    let Some(a) = self.attempt_mut(node, attempt_id) else {
                        return;
                    };
                    let retries = a.shuffle_retries;
                    a.shuffle_retries = retries.saturating_add(1);
                    // A gray-failed NIC stretches every re-fetch round too.
                    let wait = ShuffleTracker::refetch_delay(retries);
                    let wait = self.failure.stretch_net(wait, node);
                    let phase = AttemptPhase::Shuffle;
                    self.schedule_segment(node, attempt_id, phase, now, wait);
                    self.fault_stats.shuffle_refetches += 1;
                    self.record(Record::ShuffleStalled(
                        now,
                        attempt_id,
                        node,
                        retries + 1,
                        wait,
                    ));
                    return;
                }
                let stalled = self
                    .tracker(node)
                    .and_then(|tt| tt.attempt(attempt_id))
                    .is_some_and(|a| a.shuffle_retries > 0);
                if stalled {
                    self.record(Record::ShuffleRecovered(now, attempt_id, node));
                }
                self.enter_phase(node, attempt_id, AttemptPhase::Work, SimDuration::ZERO, now);
            }
            AttemptPhase::Work => {
                // Work finished: fault the task's own state back in (stateful
                // tasks read their memory when finalizing) and write output.
                let stall = self.edit_tracker(node, |tt| {
                    let stall = tt
                        .fault_in_own_memory(attempt_id, now)
                        .unwrap_or(SimDuration::ZERO);
                    let output = tt
                        .attempt(attempt_id)
                        .map(|a| a.plan.output_bytes)
                        .unwrap_or(0);
                    tt.write_output(output);
                    if let Some(a) = tt.attempt_mut(attempt_id) {
                        a.work_completed = a.plan.work;
                    }
                    stall
                });
                let stall = stall.unwrap_or(SimDuration::ZERO);
                self.enter_phase(node, attempt_id, AttemptPhase::Finalize, stall, now);
            }
            AttemptPhase::Finalize => {
                self.complete_attempt(node, attempt_id, now);
            }
        }
    }

    /// Moves an attempt into `phase`, scheduling its completion after
    /// `stall + <phase duration>`.
    fn enter_phase(
        &mut self,
        node: NodeId,
        attempt_id: AttemptId,
        phase: AttemptPhase,
        stall: SimDuration,
        now: SimTime,
    ) {
        let Some(attempt) = self.attempt_mut(node, attempt_id) else {
            return;
        };
        attempt.phase = phase;
        let duration = match phase {
            AttemptPhase::Setup => attempt.plan.setup,
            AttemptPhase::Shuffle => attempt.plan.shuffle,
            AttemptPhase::Work => attempt.remaining_work(),
            AttemptPhase::Finalize => attempt.plan.finalize,
        };
        self.schedule_segment(node, attempt_id, phase, now + stall, duration);
        if phase == AttemptPhase::Work {
            self.arm_triggers(attempt_id.task, node, attempt_id);
        }
    }

    /// Starts a phase segment of `duration` at `start`: schedules its
    /// completion and records the segment on the attempt.
    fn schedule_segment(
        &mut self,
        node: NodeId,
        attempt: AttemptId,
        phase: AttemptPhase,
        start: SimTime,
        duration: SimDuration,
    ) {
        let event = self.queue.schedule(
            start + duration,
            Event::PhaseDone {
                node,
                attempt,
                phase,
            },
        );
        if let Some(a) = self.attempt_mut(node, attempt) {
            a.segment_start = start;
            a.segment_duration = duration;
            a.segment_event = Some(event);
        }
    }

    fn complete_attempt(&mut self, node: NodeId, attempt_id: AttemptId, now: SimTime) {
        let task = attempt_id.task;
        // Behind a partition the node finishes work the master cannot see:
        // the completion buffers until the heal reconciles it.
        if self.failure.buffer_completion(node, attempt_id) {
            return;
        }
        // An attempt the JobTracker no longer tracks (its task was re-run
        // after a partition teardown) completing on a healed node goes
        // through first-commit-wins reconciliation instead.
        let orphan = match self.task(task) {
            None => true,
            Some(t) => t.current_attempt != Some(attempt_id) && t.spec_attempt != Some(attempt_id),
        };
        if orphan {
            self.reconcile_completion(attempt_id, node, now);
            return;
        }
        let Some(finished) = self.finish_attempt(node, attempt_id, now) else {
            return;
        };
        // First finisher wins: a completing attempt kills its sibling (the
        // original kills the backup; a winning backup kills the original,
        // wherever — running or suspended — it currently sits).
        let (is_spec, sibling) = {
            let t = self.task(task).expect("tracked above");
            let sibling = if t.current_attempt == Some(attempt_id) {
                t.spec_attempt.zip(t.spec_node)
            } else {
                t.current_attempt.zip(t.node)
            };
            (t.spec_attempt == Some(attempt_id), sibling)
        };
        if let Some((loser, loser_node)) = sibling {
            self.kill_sibling_attempt(loser, loser_node, now);
        }
        self.clear_speculation_fields(task);
        if is_spec {
            self.fault_stats.speculative_won += 1;
        }
        self.commit(attempt_id, node, finished, false, now);
    }

    /// Takes a finished attempt off its tracker. Returns its termination
    /// outcome and the output bytes it leaves on the node, captured before
    /// `complete` consumes the attempt.
    fn finish_attempt(
        &mut self,
        node: NodeId,
        attempt: AttemptId,
        now: SimTime,
    ) -> Option<(TerminationOutcome, u64)> {
        self.edit_tracker(node, |tt| {
            let output_bytes = tt
                .attempt(attempt)
                .map(|a| a.plan.output_bytes)
                .unwrap_or(0);
            let outcome = tt.complete(attempt, now).ok()?;
            Some((outcome, output_bytes))
        })
        .flatten()
    }

    /// Commits a task's success: marks it `Succeeded` — through the checked
    /// state machine on the live path, forced for a `reconciled` completion,
    /// whose task may sit in any state — registers a map's output, then runs
    /// job-completion bookkeeping and the scheduler hooks.
    fn commit(
        &mut self,
        attempt: AttemptId,
        node: NodeId,
        (outcome, output_bytes): (TerminationOutcome, u64),
        reconciled: bool,
        now: SimTime,
    ) {
        let task = attempt.task;
        self.edit_task(task, |t| {
            if reconciled {
                t.state = TaskState::Succeeded;
            } else {
                t.set_state(TaskState::Succeeded);
            }
            t.progress = 1.0;
            t.finished_at = Some(now);
            t.current_attempt = None;
            t.node = Some(node);
            t.paged_out_bytes += outcome.paged_out_bytes;
            t.paged_in_bytes += outcome.paged_in_bytes;
        });
        // A committed map leaves its output on this node's local disks; the
        // registry is what makes that output a fault domain (and what feeds
        // rack-aware reduce placement).
        if task.kind == TaskKind::Map && self.shuffle.tracked(task.job) {
            let rack = self.rack_of(node);
            self.shuffle
                .record_map_output(task.job, task.index as usize, node, rack, output_bytes);
        }
        self.record(Record::Completed(now, attempt, node, reconciled));
        let job_complete = self
            .jobs
            .get(&task.job)
            .map(|j| j.is_complete())
            .unwrap_or(false);
        if job_complete {
            if let Some(job) = self.jobs.get_mut(&task.job) {
                job.completed_at = Some(now);
            }
            self.shuffle.job_finished(task.job);
            self.incomplete_jobs = self.incomplete_jobs.saturating_sub(1);
            #[cfg(debug_assertions)]
            self.debug_check_job_counters(task.job);
            self.record(Record::JobCompleted(now, task.job));
        }
        self.consult(now, |s, ctx| {
            let mut actions = s.on_task_finished(ctx, task);
            if job_complete {
                actions.extend(s.on_job_finished(ctx, task.job));
            }
            actions
        });
        self.schedule_out_of_band_heartbeat(node, now);
    }

    /// First-commit-wins reconciliation of a completion the master did not
    /// witness live: either buffered behind a partition and drained at the
    /// heal, or finished by an orphaned attempt the teardown already wrote
    /// off. Exactly one commit per task ever happens — if the task already
    /// succeeded elsewhere (or its job retired), this completion is
    /// discarded and only frees the node-side slot.
    fn reconcile_completion(&mut self, attempt_id: AttemptId, node: NodeId, now: SimTime) {
        let task = attempt_id.task;
        let job_retired = self
            .jobs
            .get(&task.job)
            .map(|j| j.completed_at.is_some())
            .unwrap_or(true);
        let task_state = self.task(task).map(|t| t.state);
        let already_succeeded = task_state == Some(TaskState::Succeeded);
        if job_retired || already_succeeded || task_state.is_none() {
            // Discard: someone else committed first (or the job is gone).
            // The duplicate-commit tripwire in FaultStats stays at zero
            // because this path never touches task state.
            self.edit_tracker(node, |tt| {
                let _ = tt.complete(attempt_id, now);
            });
            self.fault_stats.reconciled_discards += 1;
            self.record(Record::Killed(
                now,
                attempt_id,
                node,
                KillCause::StaleCompletion,
            ));
            return;
        }
        // Commit: this attempt is the first finisher. Kill whatever
        // re-execution the teardown started — first commit wins.
        let (current, spec) = {
            let Some(t) = self.task(task) else { return };
            (
                t.current_attempt.zip(t.node),
                t.spec_attempt.zip(t.spec_node),
            )
        };
        for (a, n) in current.into_iter().chain(spec) {
            if a != attempt_id {
                self.kill_sibling_attempt(a, n, now);
            }
        }
        self.clear_speculation_fields(task);
        self.unarm_triggers(task);
        let Some(finished) = self.finish_attempt(node, attempt_id, now) else {
            return;
        };
        // Tripwire, not control flow: if the task somehow reached Succeeded
        // between the routing check above and here, committing again would
        // be a double commit. The bench quality gate asserts this is zero.
        if self.task(task).map(|t| t.state) == Some(TaskState::Succeeded) {
            self.fault_stats.duplicate_commits += 1;
        }
        self.fault_stats.reconciled_commits += 1;
        self.commit(attempt_id, node, finished, true, now);
    }

    /// Handles a task whose process was sacrificed by the OOM killer while
    /// a task was allocating memory (see [`Cluster::lose_attempt`]).
    /// `invested` is the attempt's running time when it died, which the kill
    /// wasted, as [`Cluster::deliver_kill`] charges it.
    fn handle_oom_victim(
        &mut self,
        attempt_id: AttemptId,
        invested: SimDuration,
        node: NodeId,
        now: SimTime,
    ) {
        let Some(t) = self.task(attempt_id.task) else {
            return;
        };
        let cause = if t.spec_attempt == Some(attempt_id) {
            KillCause::SpeculativeOom
        } else {
            KillCause::Oom
        };
        self.record(Record::Killed(now, attempt_id, node, cause));
        // The OOM happened on this node, so a backup elsewhere is promoted.
        self.lose_attempt(attempt_id, invested, false);
    }

    /// Consults the scheduling policy: hands `hook` the policy and a context
    /// over the current state, and applies the actions it returns.
    fn consult(
        &mut self,
        now: SimTime,
        hook: impl FnOnce(&mut dyn SchedulerPolicy, &SchedulerContext<'_>) -> Vec<SchedulerAction>,
    ) {
        let ctx = SchedulerContext {
            now,
            jobs: &self.jobs,
            nodes: &self.trackers,
            racks: &self.rack_slots,
            topology: self.namenode.topology(),
            totals: self.totals,
            speculation: self.config.speculation,
            delay: Some(&self.delay),
            shuffle: Some(&self.shuffle),
            reliability: Some(&self.reliability),
        };
        let actions = hook(self.scheduler.as_mut(), &ctx);
        self.apply_actions(actions, now);
    }

    fn apply_actions(&mut self, actions: Vec<SchedulerAction>, now: SimTime) {
        // Profiler bookkeeping: exact per-action counts, plus direct timing
        // of one invocation in `ACTION_SAMPLE_EVERY` (scaled back up). The
        // array indices mirror [`crate::obs::ACTION_KINDS`].
        let timer = self.obs.as_mut().and_then(|o| o.action_timer());
        let mut acted = [0u32; 6];
        for action in actions {
            if self.obs.is_some() {
                let idx = match &action {
                    SchedulerAction::SubmitJob(_) => 0,
                    SchedulerAction::Launch { .. } => 1,
                    SchedulerAction::LaunchSpeculative { .. } => 2,
                    SchedulerAction::Suspend { .. } => 3,
                    SchedulerAction::Resume { .. } => 4,
                    SchedulerAction::Kill { .. } => 5,
                };
                acted[idx] += 1;
            }
            match action {
                SchedulerAction::SubmitJob(spec) => {
                    // register_job invokes on_job_submitted itself and applies
                    // any actions it returns.
                    self.register_job(spec, now);
                }
                SchedulerAction::Launch { task, node } => {
                    self.launch_task(task, node, now);
                }
                SchedulerAction::LaunchSpeculative { task, node } => {
                    self.launch_speculative(task, node, now);
                }
                SchedulerAction::Suspend { task } => {
                    self.issue_command(task, TaskState::MustSuspend, |s| s == TaskState::Running)
                }
                SchedulerAction::Resume { task } => {
                    self.issue_command(task, TaskState::MustResume, |s| s == TaskState::Suspended)
                }
                SchedulerAction::Kill { task } => {
                    self.issue_command(task, TaskState::MustKill, |s| {
                        matches!(
                            s,
                            TaskState::Running
                                | TaskState::Suspended
                                | TaskState::MustSuspend
                                | TaskState::MustResume
                        )
                    })
                }
            }
        }
        if let Some(obs) = self.obs.as_mut() {
            obs.record_actions(&acted, timer);
        }
    }

    /// Moves a task whose state `from` accepts to the `MUST_*` state `next`;
    /// its node gets the command at its next heartbeat.
    fn issue_command(&mut self, task: TaskId, next: TaskState, from: impl Fn(TaskState) -> bool) {
        let Some(node) = self
            .task(task)
            .filter(|t| from(t.state))
            .and_then(|t| t.node)
        else {
            return;
        };
        self.set_task_state(task, next);
        self.enqueue_command(node, task);
    }

    /// Starts a new attempt of `task` on `node` if the link is up, `admit`
    /// accepts the task and the node has a free slot of its kind: plans it
    /// for the input locality it gets there (stretched on a gray-failed
    /// node) and launches it on the tracker, in its setup phase. Returns the
    /// attempt and its locality.
    fn start_attempt(
        &mut self,
        task: TaskId,
        node: NodeId,
        now: SimTime,
        admit: impl FnOnce(&JobRuntime, &TaskRuntime) -> bool,
    ) -> Option<(AttemptId, Locality)> {
        // A dark node cannot receive a launch: the scheduler's view of it is
        // stale until the detector tears it down or the link heals.
        if !self.failure.is_up(node) {
            return None;
        }
        // Build the execution plan from borrowed state: no clones of the
        // profile or the preferred-node list on this path.
        let job = self.jobs.get(&task.job)?;
        let t = job.task(task)?;
        if !admit(job, t) || self.tracker(node)?.free_slots(task.kind) == 0 {
            return None;
        }
        let locality = t.locality(self.namenode.topology(), node);
        let profile = &job.spec.profile;
        let plan = match task.kind {
            TaskKind::Map => ExecPlan::for_map(profile, t.input_bytes, locality),
            TaskKind::Reduce => {
                let rack = self.rack_of(node);
                let contention = self.shuffle.reduce_contention(task.job, rack);
                ExecPlan::for_reduce_contended(profile, t.input_bytes, contention)
            }
        };
        let plan = self.failure.stretch(plan, node);
        let attempt = self.task_mut(task)?.next_attempt();
        // A failed launch leaves the attempt counter bumped: attempt ids only
        // need to be unique.
        self.edit_tracker(node, |tt| tt.launch(attempt, task.kind, plan, now).ok())
            .flatten()?;
        self.enter_phase(node, attempt, AttemptPhase::Setup, SimDuration::ZERO, now);
        Some((attempt, locality))
    }

    fn launch_task(&mut self, task: TaskId, node: NodeId, now: SimTime) {
        let admit = |_: &JobRuntime, t: &TaskRuntime| t.state.is_schedulable();
        let Some((attempt_id, locality)) = self.start_attempt(task, node, now, admit) else {
            return;
        };
        if task.kind == TaskKind::Map {
            self.locality.record(locality);
            // Delay scheduling: a node-local launch ends the job's wait
            // (reset-on-local-launch); the wait it paid goes into the
            // histogram. Preference-less tasks count as node-local but never
            // start a wait, so they record nothing.
            if locality == Locality::NodeLocal {
                if let Some(waited) = self.delay.local_launch(task.job, now) {
                    self.locality.record_delay_wait(waited);
                }
            }
        }
        self.edit_task(task, |t| {
            t.set_state(TaskState::Running);
            t.node = Some(node);
            t.current_attempt = Some(attempt_id);
            t.progress = 0.0;
            if t.first_launched_at.is_none() {
                t.first_launched_at = Some(now);
            }
        })
        .expect("task exists");
        self.record(Record::Launched(now, attempt_id, node));
    }

    // ----- speculative re-execution -----------------------------------------

    /// Launches a speculative (backup) attempt of `task` on `node`. The task
    /// keeps its JobTracker state (`Running` or `Suspended`); the backup is
    /// tracked through [`TaskRuntime::spec_attempt`] and the first attempt to
    /// finish wins.
    fn launch_speculative(&mut self, task: TaskId, node: NodeId, now: SimTime) {
        let admit = |job: &JobRuntime, t: &TaskRuntime| {
            job.speculative_live < MAX_LIVE_SPECULATIONS_PER_JOB
                && t.spec_attempt.is_none()
                && matches!(
                    t.state,
                    TaskState::Running | TaskState::Suspended | TaskState::MustResume
                )
                && t.node != Some(node)
        };
        let Some((attempt_id, _)) = self.start_attempt(task, node, now, admit) else {
            return;
        };
        let job = self.jobs.get_mut(&task.job).expect("checked above");
        job.speculative_live += 1;
        let t = job.task_mut(task).expect("checked above");
        t.spec_attempt = Some(attempt_id);
        t.spec_node = Some(node);
        self.fault_stats.speculative_launched += 1;
        self.record(Record::Speculated(now, attempt_id, node));
    }

    /// Kills the losing attempt of a first-finisher-wins race (or of an
    /// aborted speculation), wherever it is and whatever state it is in.
    /// Charges its invested time to the speculation-waste counter.
    fn kill_sibling_attempt(&mut self, attempt: AttemptId, node: NodeId, now: SimTime) {
        let Some(a) = self.tracker(node).and_then(|tt| tt.attempt(attempt)) else {
            return;
        };
        let pending_event = a.segment_event;
        let invested = a.invested_time(now);
        let killed = self.edit_tracker(node, |tt| tt.kill(attempt, now));
        if killed.is_some_and(|k| k.is_ok_and(|o| o.held_slot)) {
            self.hold_cleanup_slot(node, attempt.task.kind, now);
        }
        if let Some(ev) = pending_event {
            self.queue.cancel(ev);
        }
        self.fault_stats.speculative_wasted_secs += invested.as_secs_f64();
        self.record(Record::SiblingKilled(now, attempt, node, invested));
        self.schedule_out_of_band_heartbeat(node, now);
    }

    /// A killed attempt that held a slot leaves it to a cleanup attempt,
    /// which occupies it until the partial output is deleted.
    fn hold_cleanup_slot(&mut self, node: NodeId, kind: TaskKind, now: SimTime) {
        let epoch = self.tracker(node).map(|tt| tt.epoch()).unwrap_or(0);
        self.queue.schedule(
            now + crate::attempt::CLEANUP_DURATION,
            Event::CleanupDone { node, kind, epoch },
        );
    }

    /// Tears down a task's live backup attempt (if any) and clears the
    /// speculation fields; the original attempt is unaffected.
    fn abort_speculation(&mut self, task: TaskId, now: SimTime) {
        let backup = self
            .task(task)
            .and_then(|t| t.spec_attempt.zip(t.spec_node));
        if let Some((spec_attempt, spec_node)) = backup {
            self.kill_sibling_attempt(spec_attempt, spec_node, now);
            self.clear_speculation_fields(task);
        }
    }

    // ----- progress triggers -----------------------------------------------

    fn arm_triggers(&mut self, task: TaskId, node: NodeId, attempt_id: AttemptId) {
        if self.triggers.is_empty() || task.kind != TaskKind::Map {
            return;
        }
        let Some(a) = self.tracker(node).and_then(|tt| tt.attempt(attempt_id)) else {
            return;
        };
        let (segment_start, work, work_completed) =
            (a.segment_start, a.plan.work, a.work_completed);
        let Some(job) = self.jobs.get(&task.job) else {
            return;
        };
        for (index, trigger) in self.triggers.iter_mut().enumerate() {
            if !matches!(trigger.state, TriggerState::Waiting)
                || trigger.job_name != job.spec.name
                || trigger.task_index != task.index
            {
                continue;
            }
            let target = work.mul_f64(trigger.fraction);
            let fire_at = segment_start + target.saturating_sub(work_completed);
            let event = self
                .queue
                .schedule(fire_at, Event::ProgressTrigger { index });
            trigger.state = TriggerState::Armed { event, task };
        }
    }

    fn unarm_triggers(&mut self, task: TaskId) {
        for trigger in &mut self.triggers {
            if let TriggerState::Armed {
                event,
                task: armed_task,
            } = trigger.state
            {
                if armed_task == task {
                    self.queue.cancel(event);
                    trigger.state = TriggerState::Waiting;
                }
            }
        }
    }

    fn handle_progress_trigger(&mut self, index: usize, now: SimTime) {
        let (task, fraction) = match &self.triggers[index].state {
            TriggerState::Armed { task, .. } => (*task, self.triggers[index].fraction),
            _ => return,
        };
        self.triggers[index].state = TriggerState::Fired;
        self.consult(now, |s, ctx| s.on_progress_trigger(ctx, task, fraction));
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("now", &self.queue.now())
            .field("nodes", &self.trackers.len())
            .field("jobs", &self.jobs.len())
            .field("scheduler", &self.scheduler.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::TaskProfile;
    use crate::scheduler::FifoScheduler;
    use mrp_sim::{GIB, MIB};

    impl Cluster {
        /// Read access to the node-reliability predictor's failure-history
        /// scores.
        pub(crate) fn reliability_tracker(&self) -> &ReliabilityTracker {
            &self.reliability
        }

        /// Read access to the per-job map-output registry (which node holds
        /// each committed map's output).
        pub(crate) fn shuffle_tracker(&self) -> &ShuffleTracker {
            &self.shuffle
        }
    }

    fn single_node_cluster() -> Cluster {
        Cluster::new(
            ClusterConfig::paper_single_node(),
            Box::new(FifoScheduler::new()),
        )
    }

    #[test]
    fn single_map_only_job_runs_to_completion() {
        let mut c = single_node_cluster();
        c.create_input_file("/input", 512 * MIB).unwrap();
        c.submit_job(JobSpec::map_only("solo", "/input"));
        c.run(SimTime::from_secs(3_600));
        let report = c.report();
        assert!(report.all_jobs_complete());
        let sojourn = report.sojourn_secs("solo").unwrap();
        assert!(
            (70.0..100.0).contains(&sojourn),
            "a 512MB map-only job should take ~80-90s, got {sojourn}"
        );
        assert_eq!(
            report.total_swap_out_bytes(),
            0,
            "no paging for a single light job"
        );
        assert_eq!(report.jobs[0].tasks[0].attempts, 1);
        assert!(c.events_processed() > 0);
    }

    #[test]
    fn two_jobs_on_one_slot_run_sequentially_fifo() {
        let mut c = single_node_cluster();
        c.create_input_file("/a", 512 * MIB).unwrap();
        c.create_input_file("/b", 512 * MIB).unwrap();
        c.submit_job(JobSpec::map_only("first", "/a"));
        c.submit_job_at(JobSpec::map_only("second", "/b"), SimTime::from_secs(1));
        c.run(SimTime::from_secs(3_600));
        let report = c.report();
        assert!(report.all_jobs_complete());
        let first = report.sojourn_secs("first").unwrap();
        let second = report.sojourn_secs("second").unwrap();
        assert!(
            second > first + 40.0,
            "the second job has to wait for the slot"
        );
        let makespan = report.makespan_secs().unwrap();
        assert!(
            (150.0..220.0).contains(&makespan),
            "two ~85s tasks back to back, got {makespan}"
        );
    }

    #[test]
    fn synthetic_jobs_do_not_need_dfs_files() {
        let mut c = single_node_cluster();
        c.submit_job(JobSpec::synthetic("synt", 1, 64 * MIB));
        c.run(SimTime::from_secs(600));
        assert!(c.report().all_jobs_complete());
    }

    #[test]
    fn job_with_reduce_tasks_completes() {
        let mut c = Cluster::new(
            ClusterConfig::small_cluster(2, 1, 1),
            Box::new(FifoScheduler::new()),
        );
        c.create_input_file("/in", 256 * MIB).unwrap();
        c.submit_job(JobSpec::map_only("mr", "/in").with_reduces(1));
        c.run(SimTime::from_secs(3_600));
        let report = c.report();
        assert!(report.all_jobs_complete());
        // 2 maps (128 MB blocks) + 1 reduce.
        assert_eq!(report.jobs[0].tasks.len(), 3);
    }

    #[test]
    fn memory_hungry_tasks_swap_under_contention() {
        let mut c = Cluster::new(
            {
                let mut cfg = ClusterConfig::paper_single_node();
                cfg.nodes[0].map_slots = 2;
                cfg
            },
            Box::new(FifoScheduler::new()),
        );
        c.create_input_file("/a", 512 * MIB).unwrap();
        c.create_input_file("/b", 512 * MIB).unwrap();
        c.submit_job(
            JobSpec::map_only("hog-a", "/a").with_profile(TaskProfile::memory_hungry(2048 * MIB)),
        );
        c.submit_job(
            JobSpec::map_only("hog-b", "/b").with_profile(TaskProfile::memory_hungry(2048 * MIB)),
        );
        c.run(SimTime::from_secs(3_600));
        let report = c.report();
        assert!(report.all_jobs_complete());
        assert!(
            report.total_swap_out_bytes() > 0,
            "two 2GB tasks on a 4GB node must page"
        );
    }

    #[test]
    fn trace_records_the_schedule() {
        let mut c = single_node_cluster();
        c.create_input_file("/input", 512 * MIB).unwrap();
        c.submit_job(JobSpec::map_only("traced", "/input"));
        c.run(SimTime::from_secs(3_600));
        let trace = c.trace();
        assert!(matches!(trace[0], Record::JobSubmitted(..)));
        assert!(trace.iter().any(|r| matches!(r, Record::Launched(..))));
        assert!(trace.iter().any(|r| matches!(r, Record::Completed(..))));
        assert!(matches!(trace.last(), Some(Record::JobCompleted(..))));
        assert!(trace.iter().all(|r| !r.to_line(c.jobs()).is_empty()));
    }

    #[test]
    fn trace_level_off_records_nothing_but_produces_the_same_report() {
        let run = |trace_level| {
            let mut cfg = ClusterConfig::paper_single_node();
            cfg.trace_level = trace_level;
            let mut c = Cluster::new(cfg, Box::new(FifoScheduler::new()));
            c.create_input_file("/input", 512 * MIB).unwrap();
            c.submit_job(JobSpec::map_only("job", "/input"));
            c.run(SimTime::from_secs(3_600));
            (c.trace().len(), c.report())
        };
        let (traced_len, traced_report) = run(TraceLevel::Schedule);
        let (off_len, off_report) = run(TraceLevel::Off);
        assert!(traced_len > 0);
        assert_eq!(off_len, 0, "TraceLevel::Off must record nothing");
        assert_eq!(
            traced_report, off_report,
            "tracing must not alter the simulation"
        );
    }

    #[test]
    fn run_with_no_jobs_returns_immediately() {
        let mut c = single_node_cluster();
        let end = c.run(SimTime::from_secs(100));
        assert_eq!(end, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "does not exist in the simulated HDFS")]
    fn missing_input_file_panics_at_submission() {
        let mut c = single_node_cluster();
        c.submit_job(JobSpec::map_only("broken", "/nope"));
        c.run(SimTime::from_secs(10));
    }

    #[test]
    #[should_panic(expected = "state_dirty_fraction")]
    fn out_of_range_dirty_fraction_panics_at_submission() {
        let mut c = single_node_cluster();
        let mut profile = TaskProfile::memory_hungry(GIB);
        profile.state_dirty_fraction = 1.5;
        c.submit_job(JobSpec::synthetic("dirty", 1, 64 * MIB).with_profile(profile));
    }

    #[test]
    fn multi_rack_cluster_completes_and_records_locality() {
        let mut cfg = ClusterConfig::racked_cluster(2, 2, 1, 1);
        cfg.dfs_replication = 2;
        let mut c = Cluster::new(cfg, Box::new(FifoScheduler::new()));
        assert_eq!(c.namenode().topology().rack_count(), 2);
        assert_eq!(c.rack_slots().len(), 2);
        // Write the input from a node in rack 1; replicas then prefer to
        // span racks, so launches land in every locality bucket over time.
        c.create_input_file_from("/in", 512 * MIB, Some(NodeId(3)))
            .unwrap();
        c.submit_job(JobSpec::map_only("racked", "/in"));
        c.run(SimTime::from_secs(3_600));
        let report = c.report();
        assert!(report.all_jobs_complete());
        // 4 x 128 MB blocks -> 4 map launches, all recorded.
        assert_eq!(report.locality.total(), 4);
        assert_eq!(c.locality_stats(), report.locality);
        // With everything idle again, the maintained rack totals must add
        // back up to the configured slots: two nodes of one map and one
        // reduce slot per rack.
        for rack in c.rack_slots() {
            assert_eq!((rack.free_map, rack.free_reduce), (2, 2));
        }
    }

    #[test]
    fn unrecoverable_allocation_failure_keeps_counters_consistent() {
        // Pinned regression test for `force_kill_after_failure` and the
        // allocation-failure path: a task whose allocation can never succeed
        // (8 GB of state on a 3 GB node with 64 MB of swap) is OOM-killed at
        // the end of every setup phase and rescheduled, forever. The
        // maintained per-job per-kind counters and the cluster-wide
        // PendingTotals must survive this loop without drifting.
        let mut cfg = ClusterConfig::paper_single_node();
        cfg.nodes[0].os.memory = mrp_simos::MemoryConfig {
            total_ram: 3 * 1024 * MIB + 88 * MIB,
            swap_capacity: 64 * MIB,
            ..Default::default()
        };
        let mut c = Cluster::new(cfg, Box::new(FifoScheduler::new()));
        c.submit_job(
            JobSpec::synthetic("doomed", 1, 64 * MIB)
                .with_profile(TaskProfile::memory_hungry(8 * 1024 * MIB)),
        );
        c.run(SimTime::from_secs(60));
        let report = c.report();
        assert!(!report.all_jobs_complete(), "the job can never finish");
        let job = c.jobs().values().next().unwrap();
        assert!(
            job.tasks[0].attempts_made >= 2,
            "the task must have been retried, got {}",
            job.tasks[0].attempts_made
        );
        assert_eq!(job.tasks[0].state, TaskState::Pending);
        // The incrementally maintained counters match a recount.
        let mut fresh = job.clone();
        fresh.recount_task_states();
        assert_eq!(
            job.counters(),
            fresh.counters(),
            "maintained counters drifted across the kill-after-failure loop"
        );
        // A pending task counts its whole input again.
        assert_eq!(job.remaining_bytes, 64 * MIB);
        assert_eq!(c.pending_totals(), PendingTotals::from_jobs(c.jobs()));
        assert!(report.nodes[0].oom_kills >= 1);
    }

    #[test]
    fn oom_victim_is_charged_its_invested_time_as_wasted_work() {
        // Two 2 GiB tasks on a node whose 64 MiB of swap cannot absorb
        // either: when the second one allocates at the end of its setup, the
        // OOM killer takes the first, which has been working for a while.
        let build = || {
            let mut cfg = ClusterConfig::paper_single_node();
            cfg.nodes[0].map_slots = 2;
            cfg.nodes[0].os.memory.swap_capacity = 64 * MIB;
            let mut c = Cluster::new(cfg, Box::new(FifoScheduler::new()));
            c.submit_job(
                JobSpec::synthetic("victim", 1, 256 * MIB)
                    .with_profile(TaskProfile::memory_hungry(2 * GIB)),
            );
            c.submit_job_at(
                JobSpec::synthetic("allocator", 1, 256 * MIB)
                    .with_profile(TaskProfile::memory_hungry(2 * GIB)),
                SimTime::from_secs(20),
            );
            c
        };
        let victim_task = |c: &Cluster| c.jobs().values().next().unwrap().tasks[0].clone();

        let mut probe = build();
        probe.run(SimTime::from_secs(600));
        let (killed_at, attempt) = probe
            .trace()
            .iter()
            .find_map(|r| match r {
                Record::Killed(at, a, _, KillCause::Oom) => Some((*at, *a)),
                _ => None,
            })
            .expect("the OOM killer must fire");
        assert_eq!(attempt.task, victim_task(&probe).id);

        // Stop just before the kill and read what the attempt has invested by
        // then; the kill must charge exactly that.
        let mut c = build();
        c.run(SimTime::from_micros(killed_at.as_micros() - 1));
        let invested = c.trackers[0]
            .attempt(attempt)
            .expect("the victim is still running")
            .invested_time(killed_at);
        assert!(invested > SimDuration::from_secs(10), "{invested:?}");
        assert_eq!(victim_task(&c).wasted_work, SimDuration::ZERO);
        c.run(killed_at);
        assert_eq!(victim_task(&c).wasted_work, invested);
    }

    #[test]
    fn remaining_bytes_follow_heartbeats_and_force_pending() {
        let mut c = Cluster::new(
            ClusterConfig::paper_single_node(),
            Box::new(FifoScheduler::new()),
        );
        c.submit_job(JobSpec::synthetic("sized", 1, 512 * MIB));
        let remaining = |c: &Cluster| {
            let j = c.jobs().values().next().expect("job arrived");
            let mut fresh = j.clone();
            fresh.recount_task_states();
            assert_eq!(j.counters(), fresh.counters());
            j.remaining_bytes
        };
        c.run(SimTime::ZERO);
        assert_eq!(remaining(&c), 512 * MIB, "a pending task counts in full");
        c.run(SimTime::from_secs(40));
        let mid = remaining(&c);
        assert!(
            0 < mid && mid < 512 * MIB,
            "heartbeats report progress: {mid}"
        );
        let task = c.jobs().values().next().unwrap().tasks[0].id;
        c.force_task_pending(task);
        assert_eq!(
            remaining(&c),
            512 * MIB,
            "a reset task counts in full again"
        );
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let run = || {
            let mut c = single_node_cluster();
            c.create_input_file("/a", 512 * MIB).unwrap();
            c.create_input_file("/b", 256 * MIB).unwrap();
            c.submit_job(JobSpec::map_only("j1", "/a"));
            c.submit_job_at(JobSpec::map_only("j2", "/b"), SimTime::from_secs(20));
            c.run(SimTime::from_secs(3_600));
            c.report()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }
}
