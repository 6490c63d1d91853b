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
//! This file holds the event loop, the job and task bookkeeping, the glue
//! to the failure domain (faults, detector, partitions), policy
//! consultation and the report. The attempt lifecycle (launch and
//! speculation, command delivery, phase events, completion, commit and
//! reconciliation, loss and OOM, progress triggers) lives in the child
//! module `lifecycle`. There, every way an attempt leaves its tracker comes
//! back as one end record that a single retire step applies.
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

use crate::attempt::{Attempt, AttemptPhase, OUTPUT_RATIO};
use crate::config::{ClusterConfig, FaultKind, FaultTarget, TraceLevel};
use crate::delay::DelayScoreboard;
use crate::failure::{FailureDomain, Strike, Timer, Verdict};
use crate::job::{
    AttemptId, JobId, JobRuntime, JobSpec, JobTable, MapInput, TaskId, TaskKind, TaskRuntime,
    TaskState,
};
use crate::metrics::{
    ClusterReport, FaultStats, JobReport, LocalityStats, NodeLoss, NodeReport, Record,
};
use crate::obs::ObsState;
use crate::reliability::ReliabilityTracker;
use crate::scheduler::{
    PendingTotals, RackSlots, SchedulerAction, SchedulerContext, SchedulerPolicy,
};
use crate::shuffle::ShuffleTracker;
use crate::tasktracker::{AttemptEnd, TaskTracker};
use lifecycle::ProgressTrigger;
use mrp_dfs::{NameNode, NodeId, RackId, Topology};
use mrp_sim::{EventQueue, SimRng, SimTime};

mod lifecycle;

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

    /// Dense id of the node that beats after the next periodic heartbeat.
    fn after_next(&self) -> usize {
        if self.idx + 1 == self.nodes {
            0
        } else {
            self.idx as usize + 1
        }
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
            obs: config.obs.enabled.then(|| ObsState::new(node_count).into()),
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
            let queue_head = self.queue.peek();
            // A phase event or an out-of-band heartbeat starts with the
            // node's attempt table: start loading it now, whichever event
            // fires first.
            if let Some((_, Event::PhaseDone { node, .. } | Event::Heartbeat { node })) = queue_head
            {
                if let Some(tt) = self.trackers.get(node.0 as usize) {
                    tt.prefetch_attempts();
                }
            }
            let (next_at, take_wheel) = match queue_head {
                Some((queue_at, _)) if queue_at < wheel_at => (queue_at, false),
                _ => (wheel_at, true),
            };
            if next_at > max_time {
                break;
            }
            self.events_processed += 1;
            let kind = if take_wheel {
                self.queue.advance_to(wheel_at);
                let node = self.wheel.advance();
                // The node two beats ahead reports its progress after the
                // next beat: start loading its attempt table now.
                if let Some(tt) = self.trackers.get(self.wheel.after_next()) {
                    tt.prefetch_attempts();
                }
                self.handle_heartbeat(node, wheel_at);
                0
            } else {
                let (now, event) = self.queue.pop().expect("peeked event must exist");
                let kind = event.kind();
                self.handle_event(now, event);
                kind
            };
            // One observability call per event. The series sampler polls
            // virtual-time deadlines here instead of scheduling events of
            // its own, so an observed run processes the same event sequence.
            let sample_due = self
                .obs
                .as_mut()
                .is_some_and(|o| o.note_event(kind, next_at));
            if sample_due {
                self.obs_sample(next_at);
            }
        }
        if let Some(obs) = self.obs.as_mut() {
            obs.loop_end();
        }
        self.queue.now()
    }

    /// Records one series row at `now`, a sampling deadline having passed.
    /// Reads only — never mutates simulation state.
    fn obs_sample(&mut self, now: SimTime) {
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
    /// engine-side write of a task's state or progress goes through here
    /// (or through [`Cluster::edit_task_in`] where a caller holds another
    /// part of the cluster), so the counters schedulers rely on for O(1)
    /// job skipping and HFSP's size order stay exact without a rescan.
    /// `None` if the task is unknown.
    #[inline]
    fn edit_task<R>(
        &mut self,
        task: TaskId,
        edit: impl FnOnce(&mut TaskRuntime) -> R,
    ) -> Option<R> {
        Self::edit_task_in(
            &mut self.jobs,
            &mut self.totals,
            &mut self.delay,
            task,
            edit,
        )
    }

    /// [`Cluster::edit_task`] over the three parts of the cluster it writes,
    /// for callers that borrow another part (a tracker) at the same time.
    #[inline]
    fn edit_task_in<R>(
        jobs: &mut JobTable,
        totals: &mut PendingTotals,
        delay: &mut DelayScoreboard,
        task: TaskId,
        edit: impl FnOnce(&mut TaskRuntime) -> R,
    ) -> Option<R> {
        let job = jobs.get_mut(&task.job)?;
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
            Self::apply_state_delta(job, totals, task.kind, before, after);
            if shape(job) != shape_before {
                delay.note_shape_change();
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
                self.finish_cleanup(node, kind, epoch, now);
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
                for end in self.stop_node(node, now) {
                    self.retire(node, &end, now);
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
    fn stop_node(&mut self, node: NodeId, now: SimTime) -> Vec<AttemptEnd> {
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
        lost: Vec<AttemptEnd>,
        decommission: bool,
        now: SimTime,
    ) -> (u64, u64) {
        let idx = node.0 as usize;
        // Commands addressed to this node can never be delivered now; the
        // teardown below resets their tasks, so drop them wholesale.
        if let Some(cmds) = self.pending_cmds.get_mut(idx) {
            cmds.clear();
        }
        for end in lost {
            self.lose_attempt(node, end, true, now);
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
        let written_off = self.edit_tracker(node, |tt| tt.cut_off(now));
        self.write_off(node, written_off.unwrap_or_default(), false, now);
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
            self.edit_tracker(node, |tt| tt.reconnect());
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
            let orphans: Vec<AttemptId> = self.trackers[idx].suspended_attempts().collect();
            for a in orphans {
                if let Some(Ok(end)) = self.edit_tracker(node, |tt| tt.kill(a, now)) {
                    self.retire(node, &end, now);
                }
            }
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
        let job = JobRuntime::new(id, spec, now, tasks);
        let (maps, reduces) = (job.schedulable_maps, job.schedulable_reduces);
        self.totals.schedulable_maps += maps;
        self.totals.schedulable_reduces += reduces;
        self.delay.register_job();
        self.shuffle.register_job(maps, reduces);
        self.jobs.insert(id, job);
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
        self.refresh_progress(node, now);
        self.deliver_commands(node, now);
        // Then let the scheduling policy hand out work for this node.
        self.consult(now, |s, ctx| s.on_heartbeat(ctx, node));
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
        if actions.is_empty() {
            return;
        }
        // Profiler bookkeeping: exact per-action counts, plus direct timing
        // of one non-empty round in `ACTION_SAMPLE_EVERY` (scaled back up).
        // The array indices mirror [`crate::obs::ACTION_KINDS`].
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
    use crate::metrics::KillCause;
    use crate::scheduler::FifoScheduler;
    use mrp_sim::{SimDuration, GIB, MIB};

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
        // The kill retired the victim: the work-phase event it was running
        // toward was cancelled with it.
        while let Some((_, event)) = c.queue.pop() {
            assert!(
                !matches!(event, Event::PhaseDone { attempt: a, .. } if a == attempt),
                "the OOM victim's phase event is still pending: {event:?}"
            );
        }
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

    /// The run loop prefetches at every peek and beat; this run also
    /// prefetches every node's table each simulated second, through a
    /// node's death (its table emptied), idle nodes' empty tables and
    /// tables holding reduces.
    #[test]
    fn prefetch_steps_are_safe_on_dead_nodes_empty_tables_and_reduces() {
        let mut cfg = ClusterConfig::small_cluster(4, 1, 1);
        cfg.faults.events.push(crate::config::FaultEvent {
            at: SimTime::from_secs(10),
            kind: FaultKind::Kill { node: NodeId(1) },
        });
        let mut c = Cluster::new(cfg, Box::new(FifoScheduler::new()));
        c.create_input_file("/in", 512 * MIB).unwrap();
        c.submit_job(JobSpec::map_only("mr", "/in").with_reduces(2));
        let (mut dead, mut empty, mut reduces) = (false, false, false);
        for second in 0..3_600 {
            c.run(SimTime::from_secs(second));
            for tt in &c.trackers {
                tt.prefetch_attempts();
                dead |= !tt.is_alive();
                empty |= tt.attempts().next().is_none();
                reduces |= tt.attempts().any(|a| a.kind == TaskKind::Reduce);
            }
        }
        assert!(c.report().all_jobs_complete());
        assert!(dead && empty && reduces, "{dead} {empty} {reduces}");
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
