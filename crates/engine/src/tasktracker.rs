//! The TaskTracker: slot management and task child processes on one node.
//!
//! In Hadoop 1, map and reduce tasks are ordinary Unix processes running in
//! child JVMs spawned by the TaskTracker, which is what makes the paper's
//! OS-assisted preemption possible in the first place: the TaskTracker can
//! deliver `SIGTSTP` and `SIGCONT` to them like to any other process.
//!
//! The TaskTracker owns the node's [`Kernel`] (process table + memory + disk)
//! and its map/reduce slots. All methods mutate state and return durations,
//! byte counts or, for an attempt that leaves the node, an [`AttemptEnd`];
//! event scheduling stays in the [`Cluster`](crate::cluster::Cluster).

use crate::attempt::{Attempt, AttemptState, ExecPlan};
use crate::config::NodeConfig;
use crate::job::{AttemptId, TaskId, TaskKind};
use mrp_dfs::NodeId;
use mrp_sim::{EventId, SimDuration, SimTime, VecMap};
use mrp_simos::{Kernel, OsError, Pid, Signal};

/// Result of allocating a task's memory at the end of its setup phase.
#[derive(Clone, Debug, Default)]
pub(crate) struct AllocationOutcome {
    /// Paging stall charged to the allocating task.
    pub(crate) stall: SimDuration,
    /// Attempts whose processes the OOM killer took to satisfy the
    /// allocation (rare; only when swap is exhausted), in kill order. The
    /// allocating attempt itself, if the OOM killer took it, comes last.
    pub(crate) oom_killed: Vec<AttemptEnd>,
    /// The allocating attempt, killed because its allocation failed for good
    /// (RAM and swap exhausted and no further OOM victim); its slot stays
    /// held for the cleanup attempt.
    pub(crate) aborted: Option<AttemptEnd>,
}

/// How an attempt left its tracker. Every method that removes an attempt
/// ([`TaskTracker::kill`], [`TaskTracker::complete`], [`TaskTracker::fail`]
/// and [`TaskTracker::allocate_task_memory`], for its OOM victims and a
/// failed allocating attempt) returns one, and the cluster retires the
/// attempt from it in one step: it cancels the pending phase event, releases
/// the attempt's progress watch and, for a cleanup attempt, schedules the
/// slot's release.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct AttemptEnd {
    /// The attempt.
    pub(crate) id: AttemptId,
    /// Its state on the tracker when it ended: `Running` or `Suspended`.
    pub(crate) state: AttemptState,
    /// Running time invested in it (setup + completed work): what a kill or
    /// a loss wastes.
    pub(crate) invested: SimDuration,
    /// Its pending phase-completion event, for the cluster to cancel.
    pub(crate) phase_event: Option<EventId>,
    /// Cumulative bytes its process paged out over its life (zero for an
    /// OOM victim, whose memory the kernel has already reclaimed).
    pub(crate) paged_out_bytes: u64,
    /// Cumulative bytes paged back in (zero for an OOM victim).
    pub(crate) paged_in_bytes: u64,
    /// A cleanup attempt keeps the slot until it has deleted the partial
    /// output: true for a killed running attempt, whose slot the cluster
    /// releases after [`CLEANUP_DURATION`](crate::attempt::CLEANUP_DURATION).
    pub(crate) cleanup: bool,
}

impl AttemptEnd {
    /// The end record of `a` at `now`, read before its process exits.
    fn new(a: &Attempt, kernel: &Kernel, now: SimTime) -> Self {
        AttemptEnd {
            id: a.id,
            state: a.state,
            invested: a.invested_time(now),
            phase_event: a.segment_event,
            paged_out_bytes: kernel.total_paged_out(a.pid),
            paged_in_bytes: kernel.proc_memory(a.pid).map_or(0, |m| m.total_paged_in),
            cleanup: false,
        }
    }
}

/// Errors surfaced by TaskTracker operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum TrackerError {
    /// No free slot of the required kind.
    NoFreeSlot,
    /// The attempt is not present on this tracker.
    UnknownAttempt,
    /// The attempt is in a state that does not allow the operation.
    InvalidState,
    /// The underlying OS refused the operation.
    Os(OsError),
}

impl std::fmt::Display for TrackerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrackerError::NoFreeSlot => write!(f, "no free slot"),
            TrackerError::UnknownAttempt => write!(f, "unknown attempt"),
            TrackerError::InvalidState => write!(f, "invalid attempt state"),
            TrackerError::Os(e) => write!(f, "os error: {e}"),
        }
    }
}

impl std::error::Error for TrackerError {}

impl From<OsError> for TrackerError {
    fn from(e: OsError) -> Self {
        TrackerError::Os(e)
    }
}

/// Attempts whose entries [`TaskTracker::prefetch_attempts`] loads. An
/// entry spans two and a half 64-byte lines on x86_64, and a node seldom
/// holds more than its slots' worth of attempts.
const PREFETCHED_ATTEMPTS: usize = 3;

/// The per-node TaskTracker.
///
/// Attempts are kept in a [`VecMap`] sorted by attempt id: a node holds a
/// handful of live attempts, so a binary search over one contiguous vector
/// beats any keyed tree or hash on the per-task path, and every iteration is
/// in deterministic id order (std `HashMap` ordering varies per process run,
/// which would leak nondeterminism into scheduler decisions and reports).
/// Scheduler policies read a tracker directly, as the JobTracker reads the
/// slot state a TaskTracker reports on its heartbeat: free slots per kind
/// and the running and suspended tasks, all empty on a node that is dead or
/// cut off from the master.
#[derive(Debug)]
pub struct TaskTracker {
    /// The node this tracker runs on.
    pub(crate) id: NodeId,
    kernel: Kernel,
    map_slots: u32,
    reduce_slots: u32,
    used_map_slots: u32,
    used_reduce_slots: u32,
    attempts: VecMap<AttemptId, Attempt>,
    /// False while the node is failed or decommissioned: a dead tracker
    /// reports zero free slots, accepts no launches, and its heartbeats are
    /// ignored by the cluster.
    alive: bool,
    /// Incremented on every [`TaskTracker::fail`]: slot-releasing events
    /// scheduled before a failure (cleanup completions) carry the epoch they
    /// were scheduled in and are discarded if the node died in between —
    /// `fail` already freed every slot, so a stale release would corrupt the
    /// accounting of whatever runs after a rejoin.
    epoch: u64,
    /// False while the master has torn the node down as a confirmed
    /// partition victim: the node itself is alive — attempts keep running
    /// toward the heal — but it advertises no capacity to the scheduler and
    /// refuses launches until the partition heals.
    reachable: bool,
}

impl TaskTracker {
    /// Creates an idle TaskTracker for node `id` with the node's OS model
    /// and slot counts.
    pub fn new(id: NodeId, config: &NodeConfig) -> Self {
        TaskTracker {
            id,
            kernel: Kernel::new(config.os.clone()),
            map_slots: config.map_slots,
            reduce_slots: config.reduce_slots,
            used_map_slots: 0,
            used_reduce_slots: 0,
            attempts: VecMap::new(),
            alive: true,
            epoch: 0,
            reachable: true,
        }
    }

    /// The current failure epoch (see the field docs).
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether the node is in service.
    pub(crate) fn is_alive(&self) -> bool {
        self.alive
    }

    /// Whether the master can reach the node (see the `reachable` field; an
    /// unreachable node is alive but torn down as a partition victim).
    pub(crate) fn is_reachable(&self) -> bool {
        self.reachable
    }

    /// Makes the node reachable again when its partition heals.
    pub(crate) fn reconnect(&mut self) {
        self.reachable = true;
    }

    /// The master confirms the node partitioned and writes off every attempt
    /// it knew here: the node stops advertising, and the end records, in id
    /// order, carry no phase event because the attempts keep running
    /// node-side toward the heal.
    pub(crate) fn cut_off(&mut self, now: SimTime) -> Vec<AttemptEnd> {
        self.reachable = false;
        self.attempts
            .values()
            .map(|a| AttemptEnd {
                phase_event: None,
                ..AttemptEnd::new(a, &self.kernel, now)
            })
            .collect()
    }

    /// Takes the node out of service (crash or decommission): every live
    /// attempt's process is killed, the attempt table is cleared, and all
    /// slots are freed. Returns an end record per attempt, in id order, so
    /// the cluster can cancel events, account lost work, and reschedule the
    /// tasks.
    pub(crate) fn fail(&mut self, now: SimTime) -> Vec<AttemptEnd> {
        self.alive = false;
        self.epoch += 1;
        let mut torn_down = Vec::with_capacity(self.attempts.len());
        for attempt in self.attempts.values() {
            torn_down.push(AttemptEnd::new(attempt, &self.kernel, now));
            // The process dies with the node; ignore already-dead errors.
            let _ = self.kernel.signal(attempt.pid, Signal::Sigkill, now);
        }
        self.attempts.clear();
        self.used_map_slots = 0;
        self.used_reduce_slots = 0;
        torn_down
    }

    /// Returns the node to service with all slots free (its disks and any
    /// suspended-task state are gone; the kernel's cumulative statistics
    /// survive for the end-of-run report).
    pub(crate) fn revive(&mut self) {
        self.alive = true;
        self.reachable = true;
    }

    /// Read-only access to the node's kernel (for statistics).
    pub(crate) fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Whether the master sees the node: in service and reachable. A node
    /// it does not see advertises no slots and no tasks.
    fn advertised(&self) -> bool {
        self.alive && self.reachable
    }

    /// Free slots of a kind (none on a dead or unreachable node).
    pub fn free_slots(&self, kind: TaskKind) -> u32 {
        if !self.advertised() {
            return 0;
        }
        match kind {
            TaskKind::Map => self.map_slots - self.used_map_slots,
            TaskKind::Reduce => self.reduce_slots - self.used_reduce_slots,
        }
    }

    /// Tasks whose attempts occupy a slot here, in attempt-id order (none on
    /// a dead or unreachable node: a torn-down partition victim's attempts
    /// are written off master-side even though they still run node-side).
    pub(crate) fn running_tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.advertised_tasks(AttemptState::Running)
    }

    /// Tasks suspended here (holding memory but no slot), in attempt-id
    /// order (none on a dead or unreachable node).
    pub fn suspended_tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.advertised_tasks(AttemptState::Suspended)
    }

    fn advertised_tasks(&self, state: AttemptState) -> impl Iterator<Item = TaskId> + '_ {
        let advertised = self.advertised();
        self.attempts
            .values()
            .filter(move |a| advertised && a.state == state)
            .map(|a| a.task)
    }

    fn occupy_slot(&mut self, kind: TaskKind) -> Result<(), TrackerError> {
        match kind {
            TaskKind::Map if self.used_map_slots < self.map_slots => {
                self.used_map_slots += 1;
                Ok(())
            }
            TaskKind::Reduce if self.used_reduce_slots < self.reduce_slots => {
                self.used_reduce_slots += 1;
                Ok(())
            }
            _ => Err(TrackerError::NoFreeSlot),
        }
    }

    /// Releases a slot of the given kind (used by the cluster when a killed
    /// task's cleanup attempt finishes).
    pub(crate) fn release_slot(&mut self, kind: TaskKind) {
        match kind {
            TaskKind::Map => {
                debug_assert!(
                    self.used_map_slots > 0,
                    "releasing a map slot that was never taken"
                );
                self.used_map_slots = self.used_map_slots.saturating_sub(1);
            }
            TaskKind::Reduce => {
                debug_assert!(
                    self.used_reduce_slots > 0,
                    "releasing a reduce slot that was never taken"
                );
                self.used_reduce_slots = self.used_reduce_slots.saturating_sub(1);
            }
        }
    }

    /// A live attempt, if present.
    pub(crate) fn attempt(&self, id: AttemptId) -> Option<&Attempt> {
        self.attempts.get(&id)
    }

    /// Mutable access to a live attempt.
    pub(crate) fn attempt_mut(&mut self, id: AttemptId) -> Option<&mut Attempt> {
        self.attempts.get_mut(&id)
    }

    /// All live attempts on this node, in deterministic (id) order.
    pub(crate) fn attempts(&self) -> impl Iterator<Item = &Attempt> {
        self.attempts.values()
    }

    /// Starts loading the first entries of the attempt table (at most
    /// [`PREFETCHED_ATTEMPTS`]), which the node's next progress report or
    /// phase event reads. Loads nothing for an empty table.
    #[inline]
    pub(crate) fn prefetch_attempts(&self) {
        const LINE: usize = 64;
        let table = self.attempts.as_slice();
        let first = &table[..table.len().min(PREFETCHED_ATTEMPTS)];
        let bytes = std::mem::size_of_val(first);
        if bytes == 0 {
            return;
        }
        // Every line holding a byte of those entries.
        let start = first.as_ptr().cast::<u8>();
        let misalign = start.addr() % LINE;
        let line = start.wrapping_sub(misalign);
        for offset in (0..misalign + bytes).step_by(LINE) {
            mrp_sim::prefetch(line.wrapping_add(offset));
        }
    }

    /// Attempts currently suspended on this node, in deterministic (id) order.
    pub(crate) fn suspended_attempts(&self) -> impl Iterator<Item = AttemptId> + '_ {
        self.attempts
            .values()
            .filter(|a| a.state == AttemptState::Suspended)
            .map(|a| a.id)
    }

    /// Launches a new attempt: occupies a slot and forks the child process.
    /// The attempt starts in its setup phase; the caller schedules the
    /// corresponding phase-completion event.
    pub(crate) fn launch(
        &mut self,
        id: AttemptId,
        kind: TaskKind,
        plan: ExecPlan,
        now: SimTime,
    ) -> Result<Pid, TrackerError> {
        if !self.alive || !self.reachable {
            return Err(TrackerError::NoFreeSlot);
        }
        if self.attempts.contains_key(&id) {
            return Err(TrackerError::InvalidState);
        }
        self.occupy_slot(kind)?;
        // The simulated process name is never read on any engine path, and
        // formatting the attempt id per launch shows up in cluster-scale
        // profiles; attempts are identified through the attempt table instead.
        let pid = self.kernel.spawn(String::new(), now);
        let mut attempt = Attempt::new(id, kind, pid, plan, now);
        attempt.segment_duration = attempt.plan.setup;
        self.attempts.insert(id, attempt);
        Ok(pid)
    }

    /// Allocates the attempt's memory (base footprint + configured state) at
    /// the end of its setup phase. Handles OOM by invoking the OOM killer and
    /// reporting which attempts died.
    ///
    /// An unrecoverable allocation failure kills the attempt and reports it
    /// in [`AllocationOutcome::aborted`], never through `Err`: by the time
    /// the failure is known the OOM killer may already have sacrificed other
    /// attempts, and those victims must reach the caller either way. `Err` is
    /// reserved for an unknown attempt id.
    pub(crate) fn allocate_task_memory(
        &mut self,
        id: AttemptId,
        now: SimTime,
    ) -> Result<AllocationOutcome, TrackerError> {
        let (pid, bytes, dirty) = {
            let a = self.attempts.get(&id).ok_or(TrackerError::UnknownAttempt)?;
            (a.pid, a.plan.memory, a.plan.dirty_fraction)
        };
        let mut outcome = AllocationOutcome::default();
        let mut remaining_oom_retries = 4;
        loop {
            match self.kernel.allocate(pid, bytes, dirty, now) {
                Ok(res) => {
                    outcome.stall += res.stall;
                    return Ok(outcome);
                }
                Err(OsError::OutOfMemory) if remaining_oom_retries > 0 => {
                    remaining_oom_retries -= 1;
                    let Some(victim_pid) = self.kernel.oom_kill(now) else {
                        break;
                    };
                    let victim = self
                        .attempts
                        .values()
                        .find(|a| a.pid == victim_pid)
                        .map(|a| a.id);
                    if let Some(victim) = victim {
                        let v = self.attempts.remove(&victim).expect("found above");
                        // A running victim held a slot; a suspended one did not.
                        if v.state == AttemptState::Running {
                            self.release_slot(v.kind);
                        }
                        outcome
                            .oom_killed
                            .push(AttemptEnd::new(&v, &self.kernel, now));
                        if victim == id {
                            // The OOM killer took the allocating attempt
                            // itself; there is nothing left to retry for.
                            return Ok(outcome);
                        }
                    }
                }
                Err(_) => break,
            }
        }
        outcome.aborted = self.kill(id, now).ok();
        Ok(outcome)
    }

    /// Records the input read of an attempt against the node's disk and file
    /// cache (the parse loop overlaps the read, so no extra time is charged).
    pub(crate) fn record_input_read(&mut self, bytes: u64) {
        let _ = self.kernel.disk_read(bytes);
    }

    /// Queues background DFS re-replication traffic against this node's
    /// spindle; swap I/O contends with it until the backlog drains. No-op
    /// unless the disk's `background_share` is configured.
    pub(crate) fn queue_background_io(&mut self, bytes: u64) {
        self.kernel.queue_background_write(bytes);
    }

    /// Suspends a running attempt with `SIGTSTP`: releases its slot, freezes
    /// its progress. Returns the progress at suspension time.
    pub(crate) fn suspend(&mut self, id: AttemptId, now: SimTime) -> Result<f64, TrackerError> {
        let attempt = self
            .attempts
            .get_mut(&id)
            .ok_or(TrackerError::UnknownAttempt)?;
        if attempt.state != AttemptState::Running {
            return Err(TrackerError::InvalidState);
        }
        attempt.interrupt_work(now);
        attempt.state = AttemptState::Suspended;
        attempt.segment_event = None;
        let progress = attempt.progress(now);
        let kind = attempt.kind;
        let pid = attempt.pid;
        self.kernel.signal(pid, Signal::Sigtstp, now)?;
        self.release_slot(kind);
        Ok(progress)
    }

    /// Resumes a suspended attempt with `SIGCONT`: re-occupies a slot and
    /// faults its swapped memory back in. Returns the page-in stall; the
    /// caller schedules the remaining work after the stall.
    pub(crate) fn resume(
        &mut self,
        id: AttemptId,
        now: SimTime,
    ) -> Result<SimDuration, TrackerError> {
        let (kind, pid) = {
            let attempt = self.attempts.get(&id).ok_or(TrackerError::UnknownAttempt)?;
            if attempt.state != AttemptState::Suspended {
                return Err(TrackerError::InvalidState);
            }
            (attempt.kind, attempt.pid)
        };
        self.occupy_slot(kind)?;
        self.kernel.signal(pid, Signal::Sigcont, now)?;
        // Lazy resume (block swap device only): page in just the prefetch
        // window; the rest faults back on touch, at the latest when the task
        // finalizes and re-reads its state (`fault_in_own_memory`).
        let swap = self.kernel.config().memory.swap;
        let fault = if swap.enabled && swap.lazy_resume {
            self.kernel.fault_in_prefetch(pid, now)?
        } else {
            self.kernel.fault_in_all(pid, now)?
        };
        let attempt = self.attempts.get_mut(&id).expect("checked above");
        attempt.state = AttemptState::Running;
        Ok(fault.stall)
    }

    /// Faults in any of the attempt's own memory that ended up in swap (done
    /// at the start of the finalize phase, when stateful tasks read their
    /// state back).
    pub(crate) fn fault_in_own_memory(
        &mut self,
        id: AttemptId,
        now: SimTime,
    ) -> Result<SimDuration, TrackerError> {
        let pid = self
            .attempts
            .get(&id)
            .ok_or(TrackerError::UnknownAttempt)?
            .pid;
        let out = self.kernel.fault_in_all(pid, now)?;
        Ok(out.stall)
    }

    /// Writes the attempt's output to the local disk.
    pub(crate) fn write_output(&mut self, bytes: u64) {
        let _ = self.kernel.disk_write(bytes);
    }

    /// Kills an attempt with `SIGKILL`. A running attempt's slot stays
    /// occupied: Hadoop runs a cleanup attempt to delete the partial output,
    /// so the end record asks for the cleanup and the cluster schedules its
    /// completion, then calls [`TaskTracker::release_slot`].
    pub(crate) fn kill(&mut self, id: AttemptId, now: SimTime) -> Result<AttemptEnd, TrackerError> {
        let attempt = self.attempts.get(&id).ok_or(TrackerError::UnknownAttempt)?;
        let end = AttemptEnd {
            cleanup: attempt.state == AttemptState::Running,
            ..AttemptEnd::new(attempt, &self.kernel, now)
        };
        self.kernel.signal(attempt.pid, Signal::Sigkill, now)?;
        self.attempts.remove(&id);
        Ok(end)
    }

    /// Completes a running attempt successfully: the child process exits and
    /// the slot is released.
    pub(crate) fn complete(
        &mut self,
        id: AttemptId,
        now: SimTime,
    ) -> Result<AttemptEnd, TrackerError> {
        let attempt = self.attempts.get(&id).ok_or(TrackerError::UnknownAttempt)?;
        if attempt.state != AttemptState::Running {
            return Err(TrackerError::InvalidState);
        }
        let end = AttemptEnd {
            // Its last phase event is the one that just fired.
            phase_event: None,
            ..AttemptEnd::new(attempt, &self.kernel, now)
        };
        let kind = attempt.kind;
        self.kernel.exit(attempt.pid, 0, now)?;
        self.attempts.remove(&id);
        self.release_slot(kind);
        Ok(end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attempt::AttemptPhase;
    use crate::job::{JobId, TaskId, TaskProfile};
    use mrp_dfs::Locality;
    use mrp_sim::{GIB, MIB};
    use mrp_simos::NodeOsConfig;

    fn attempt_id(n: u32) -> AttemptId {
        AttemptId {
            task: TaskId {
                job: JobId(1),
                kind: TaskKind::Map,
                index: n,
            },
            number: 0,
        }
    }

    fn plan(state_memory: u64) -> ExecPlan {
        ExecPlan::for_map(
            &TaskProfile::memory_hungry(state_memory),
            512 * MIB,
            Locality::NodeLocal,
        )
    }

    fn with_slots(os: NodeOsConfig, map_slots: u32, reduce_slots: u32) -> TaskTracker {
        let config = NodeConfig {
            os,
            map_slots,
            reduce_slots,
        };
        TaskTracker::new(NodeId(0), &config)
    }

    fn tracker() -> TaskTracker {
        with_slots(NodeOsConfig::default(), 1, 1)
    }

    /// Gives `id` a pending phase event, as the cluster does when it
    /// schedules a segment, and returns the event.
    fn with_phase_event(tt: &mut TaskTracker, id: AttemptId) -> EventId {
        let event = mrp_sim::EventQueue::new().schedule(SimTime::ZERO, ());
        tt.attempt_mut(id).unwrap().segment_event = Some(event);
        event
    }

    fn running(tt: &TaskTracker) -> usize {
        tt.attempts()
            .filter(|a| a.state == AttemptState::Running)
            .count()
    }

    #[test]
    fn launch_occupies_a_slot() {
        let mut tt = tracker();
        assert_eq!(tt.free_slots(TaskKind::Map), 1);
        tt.launch(attempt_id(0), TaskKind::Map, plan(0), SimTime::ZERO)
            .unwrap();
        assert_eq!(tt.free_slots(TaskKind::Map), 0);
        assert_eq!(tt.free_slots(TaskKind::Reduce), 1);
        assert_eq!(running(&tt), 1);
        // Second map launch fails: no free slot.
        assert_eq!(
            tt.launch(attempt_id(1), TaskKind::Map, plan(0), SimTime::ZERO)
                .unwrap_err(),
            TrackerError::NoFreeSlot
        );
        // Relaunching the same attempt id is invalid.
        assert_eq!(
            tt.launch(attempt_id(0), TaskKind::Map, plan(0), SimTime::ZERO)
                .unwrap_err(),
            TrackerError::InvalidState
        );
    }

    #[test]
    fn suspend_frees_the_slot_and_resume_takes_it_back() {
        let mut tt = tracker();
        tt.launch(attempt_id(0), TaskKind::Map, plan(0), SimTime::ZERO)
            .unwrap();
        tt.allocate_task_memory(attempt_id(0), SimTime::ZERO)
            .unwrap();
        // Move into work phase manually (the cluster normally does this).
        {
            let a = tt.attempt_mut(attempt_id(0)).unwrap();
            a.phase = AttemptPhase::Work;
            a.segment_start = SimTime::from_secs(3);
        }
        let progress = tt.suspend(attempt_id(0), SimTime::from_secs(43)).unwrap();
        assert!(progress > 0.4 && progress < 0.7, "progress {progress}");
        assert_eq!(tt.free_slots(TaskKind::Map), 1);
        assert_eq!(tt.suspended_attempts().count(), 1);
        // Suspending again is invalid.
        assert_eq!(
            tt.suspend(attempt_id(0), SimTime::from_secs(44))
                .unwrap_err(),
            TrackerError::InvalidState
        );
        let stall = tt.resume(attempt_id(0), SimTime::from_secs(50)).unwrap();
        assert_eq!(
            stall,
            SimDuration::ZERO,
            "no paging happened, resume is free"
        );
        assert_eq!(tt.free_slots(TaskKind::Map), 0);
    }

    #[test]
    fn resume_needs_a_free_slot() {
        let mut tt = with_slots(NodeOsConfig::default(), 1, 0);
        tt.launch(attempt_id(0), TaskKind::Map, plan(0), SimTime::ZERO)
            .unwrap();
        {
            let a = tt.attempt_mut(attempt_id(0)).unwrap();
            a.phase = AttemptPhase::Work;
            a.segment_start = SimTime::ZERO;
        }
        tt.suspend(attempt_id(0), SimTime::from_secs(10)).unwrap();
        // Another attempt takes the slot.
        tt.launch(
            attempt_id(1),
            TaskKind::Map,
            plan(0),
            SimTime::from_secs(11),
        )
        .unwrap();
        assert_eq!(
            tt.resume(attempt_id(0), SimTime::from_secs(12))
                .unwrap_err(),
            TrackerError::NoFreeSlot
        );
    }

    #[test]
    fn memory_pressure_pages_out_the_suspended_attempt() {
        let mut tt = tracker();
        tt.launch(attempt_id(0), TaskKind::Map, plan(2 * GIB), SimTime::ZERO)
            .unwrap();
        tt.allocate_task_memory(attempt_id(0), SimTime::ZERO)
            .unwrap();
        {
            let a = tt.attempt_mut(attempt_id(0)).unwrap();
            a.phase = AttemptPhase::Work;
            a.segment_start = SimTime::from_secs(3);
        }
        tt.suspend(attempt_id(0), SimTime::from_secs(30)).unwrap();

        // A second, memory-hungry attempt launches and allocates: the
        // suspended one is the paging victim and the newcomer pays the stall.
        tt.launch(
            attempt_id(1),
            TaskKind::Map,
            plan(2 * GIB),
            SimTime::from_secs(31),
        )
        .unwrap();
        let out = tt
            .allocate_task_memory(attempt_id(1), SimTime::from_secs(34))
            .unwrap();
        assert!(out.stall > SimDuration::ZERO);
        assert!(out.oom_killed.is_empty());
        let victim_pid = tt.attempt(attempt_id(0)).unwrap().pid;
        assert!(tt.kernel().swapped_bytes(victim_pid) > 0);

        // Completing the newcomer and resuming the victim pays the page-in.
        {
            let a = tt.attempt_mut(attempt_id(1)).unwrap();
            a.phase = AttemptPhase::Work;
        }
        tt.complete(attempt_id(1), SimTime::from_secs(120)).unwrap();
        let stall = tt.resume(attempt_id(0), SimTime::from_secs(121)).unwrap();
        assert!(stall > SimDuration::ZERO);
        assert_eq!(tt.kernel().swapped_bytes(victim_pid), 0);
    }

    #[test]
    fn kill_reports_paged_bytes_and_keeps_the_slot_for_cleanup() {
        let mut tt = tracker();
        tt.launch(attempt_id(0), TaskKind::Map, plan(0), SimTime::ZERO)
            .unwrap();
        tt.allocate_task_memory(attempt_id(0), SimTime::ZERO)
            .unwrap();
        let event = with_phase_event(&mut tt, attempt_id(0));
        let out = tt.kill(attempt_id(0), SimTime::from_secs(10)).unwrap();
        assert_eq!(out.id, attempt_id(0));
        assert_eq!(out.state, AttemptState::Running);
        assert_eq!(out.invested, SimDuration::from_secs(10));
        assert_eq!(out.phase_event, Some(event), "the cluster cancels it");
        assert!(out.cleanup, "a cleanup attempt keeps the slot");
        assert_eq!(out.paged_out_bytes, 0);
        // Slot is still occupied until the cleanup attempt finishes.
        assert_eq!(tt.free_slots(TaskKind::Map), 0);
        tt.release_slot(TaskKind::Map);
        assert_eq!(tt.free_slots(TaskKind::Map), 1);
        assert!(tt.attempt(attempt_id(0)).is_none());

        // A suspended attempt holds no slot and has no pending phase event.
        tt.launch(
            attempt_id(1),
            TaskKind::Map,
            plan(0),
            SimTime::from_secs(20),
        )
        .unwrap();
        tt.attempt_mut(attempt_id(1)).unwrap().phase = AttemptPhase::Work;
        with_phase_event(&mut tt, attempt_id(1));
        tt.suspend(attempt_id(1), SimTime::from_secs(30)).unwrap();
        let out = tt.kill(attempt_id(1), SimTime::from_secs(40)).unwrap();
        assert_eq!(out.state, AttemptState::Suspended);
        assert_eq!(out.phase_event, None);
        assert!(!out.cleanup);
        assert_eq!(tt.free_slots(TaskKind::Map), 1);
    }

    #[test]
    fn complete_releases_everything() {
        let mut tt = tracker();
        tt.launch(attempt_id(0), TaskKind::Map, plan(GIB), SimTime::ZERO)
            .unwrap();
        tt.allocate_task_memory(attempt_id(0), SimTime::ZERO)
            .unwrap();
        with_phase_event(&mut tt, attempt_id(0));
        let out = tt.complete(attempt_id(0), SimTime::from_secs(90)).unwrap();
        assert_eq!(out.id, attempt_id(0));
        // The finalize event that completed it has already fired.
        assert_eq!(out.phase_event, None);
        assert!(!out.cleanup, "completion releases the slot itself");
        assert_eq!(tt.free_slots(TaskKind::Map), 1);
        assert_eq!(tt.kernel().memory().total_resident(), 0);
        assert!(tt.attempt(attempt_id(0)).is_none());
        // Completing twice is an error.
        assert_eq!(
            tt.complete(attempt_id(0), SimTime::from_secs(91))
                .unwrap_err(),
            TrackerError::UnknownAttempt
        );
    }

    #[test]
    fn unknown_attempt_operations_fail() {
        let mut tt = tracker();
        let ghost = attempt_id(9);
        assert_eq!(
            tt.suspend(ghost, SimTime::ZERO).unwrap_err(),
            TrackerError::UnknownAttempt
        );
        assert_eq!(
            tt.resume(ghost, SimTime::ZERO).unwrap_err(),
            TrackerError::UnknownAttempt
        );
        assert_eq!(
            tt.kill(ghost, SimTime::ZERO).unwrap_err(),
            TrackerError::UnknownAttempt
        );
        assert_eq!(
            tt.allocate_task_memory(ghost, SimTime::ZERO).unwrap_err(),
            TrackerError::UnknownAttempt
        );
        assert_eq!(
            tt.fault_in_own_memory(ghost, SimTime::ZERO).unwrap_err(),
            TrackerError::UnknownAttempt
        );
    }

    #[test]
    fn fail_tears_down_attempts_and_revive_restores_capacity() {
        let mut tt = with_slots(NodeOsConfig::default(), 2, 1);
        tt.launch(attempt_id(0), TaskKind::Map, plan(0), SimTime::ZERO)
            .unwrap();
        tt.allocate_task_memory(attempt_id(0), SimTime::ZERO)
            .unwrap();
        tt.launch(attempt_id(1), TaskKind::Map, plan(0), SimTime::ZERO)
            .unwrap();
        // Suspend the second attempt so the teardown covers both states.
        {
            let a = tt.attempt_mut(attempt_id(1)).unwrap();
            a.phase = AttemptPhase::Work;
            a.segment_start = SimTime::from_secs(3);
        }
        tt.suspend(attempt_id(1), SimTime::from_secs(20)).unwrap();
        let event = with_phase_event(&mut tt, attempt_id(0));

        let torn_down = tt.fail(SimTime::from_secs(30));
        assert!(!tt.is_alive());
        assert_eq!(torn_down.len(), 2);
        assert_eq!(torn_down[0].id, attempt_id(0));
        assert_eq!(torn_down[0].state, AttemptState::Running);
        assert_eq!(torn_down[0].phase_event, Some(event));
        assert_eq!(torn_down[1].id, attempt_id(1));
        assert_eq!(torn_down[1].state, AttemptState::Suspended);
        assert_eq!(torn_down[1].phase_event, None);
        assert!(torn_down[1].invested > SimDuration::ZERO);
        // The node's slots all come back at once: no cleanup attempts.
        assert!(torn_down.iter().all(|end| !end.cleanup));
        assert_eq!(tt.attempts().count(), 0);
        // Dead nodes expose no capacity and refuse launches.
        assert_eq!(tt.free_slots(TaskKind::Map), 0);
        assert_eq!(tt.free_slots(TaskKind::Reduce), 0);
        assert_eq!(
            tt.launch(
                attempt_id(2),
                TaskKind::Map,
                plan(0),
                SimTime::from_secs(31)
            )
            .unwrap_err(),
            TrackerError::NoFreeSlot
        );
        // Failing an already-dead node again is a no-op teardown.
        assert!(tt.fail(SimTime::from_secs(32)).is_empty());

        tt.revive();
        assert!(tt.is_alive());
        assert_eq!(tt.free_slots(TaskKind::Map), 2);
        assert_eq!(tt.free_slots(TaskKind::Reduce), 1);
        tt.launch(
            attempt_id(3),
            TaskKind::Map,
            plan(0),
            SimTime::from_secs(40),
        )
        .unwrap();
        assert_eq!(tt.free_slots(TaskKind::Map), 1);
    }

    #[test]
    fn unreachable_tracker_hides_capacity_but_keeps_attempts_running() {
        let mut tt = with_slots(NodeOsConfig::default(), 2, 1);
        tt.launch(attempt_id(0), TaskKind::Map, plan(0), SimTime::ZERO)
            .unwrap();
        with_phase_event(&mut tt, attempt_id(0));
        let written_off = tt.cut_off(SimTime::from_secs(1));
        assert_eq!(written_off.len(), 1);
        assert_eq!(
            written_off[0].phase_event, None,
            "the attempt keeps running node-side, so its phase event stays"
        );
        assert!(tt.is_alive());
        assert!(!tt.is_reachable());
        // The scheduler sees no capacity and launches are refused...
        assert_eq!(tt.free_slots(TaskKind::Map), 0);
        assert_eq!(tt.free_slots(TaskKind::Reduce), 0);
        assert_eq!(
            tt.launch(attempt_id(1), TaskKind::Map, plan(0), SimTime::from_secs(1))
                .unwrap_err(),
            TrackerError::NoFreeSlot
        );
        // ...but the node-side attempt is still there, still running.
        assert_eq!(running(&tt), 1);
        tt.reconnect();
        assert_eq!(tt.free_slots(TaskKind::Map), 1);
        assert_eq!(tt.free_slots(TaskKind::Reduce), 1);
    }

    #[test]
    fn oom_killer_sacrifices_a_suspended_attempt_when_swap_is_tiny() {
        let os = NodeOsConfig {
            memory: mrp_simos::MemoryConfig {
                total_ram: 3 * GIB + 88 * MIB,
                swap_capacity: 64 * MIB,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut tt = with_slots(os, 2, 0);
        tt.launch(
            attempt_id(0),
            TaskKind::Map,
            plan(GIB + 512 * MIB),
            SimTime::ZERO,
        )
        .unwrap();
        tt.allocate_task_memory(attempt_id(0), SimTime::ZERO)
            .unwrap();
        {
            let a = tt.attempt_mut(attempt_id(0)).unwrap();
            a.phase = AttemptPhase::Work;
            a.segment_start = SimTime::ZERO;
        }
        tt.suspend(attempt_id(0), SimTime::from_secs(10)).unwrap();
        tt.launch(
            attempt_id(1),
            TaskKind::Map,
            plan(2 * GIB),
            SimTime::from_secs(11),
        )
        .unwrap();
        let invested = tt
            .attempt(attempt_id(0))
            .unwrap()
            .invested_time(SimTime::from_secs(14));
        // Setup plus the ten seconds of work done before the suspension.
        assert!(invested > SimDuration::from_secs(10));
        let out = tt
            .allocate_task_memory(attempt_id(1), SimTime::from_secs(14))
            .unwrap();
        let [victim] = &out.oom_killed[..] else {
            panic!("one victim expected: {:?}", out.oom_killed);
        };
        assert_eq!(victim.id, attempt_id(0));
        assert_eq!(victim.state, AttemptState::Suspended);
        assert_eq!(
            victim.invested, invested,
            "the victim is reported with the time it had invested"
        );
        assert_eq!((victim.phase_event, victim.cleanup), (None, false));
        assert!(tt.attempt(attempt_id(0)).is_none());

        // A running victim is reported with its pending phase event, and its
        // slot is free at once.
        tt.attempt_mut(attempt_id(1)).unwrap().phase = AttemptPhase::Work;
        let event = with_phase_event(&mut tt, attempt_id(1));
        tt.launch(
            attempt_id(2),
            TaskKind::Map,
            plan(2 * GIB),
            SimTime::from_secs(20),
        )
        .unwrap();
        assert_eq!(tt.free_slots(TaskKind::Map), 0);
        let out = tt
            .allocate_task_memory(attempt_id(2), SimTime::from_secs(23))
            .unwrap();
        let [victim] = &out.oom_killed[..] else {
            panic!("one victim expected: {:?}", out.oom_killed);
        };
        assert_eq!(victim.id, attempt_id(1));
        assert_eq!(victim.state, AttemptState::Running);
        assert_eq!((victim.phase_event, victim.cleanup), (Some(event), false));
        assert_eq!(tt.free_slots(TaskKind::Map), 1);
    }

    /// Builds an OS config with plenty of swap and the given swap-device
    /// knobs; 2.5 GiB of RAM stays usable for tasks.
    fn os_with_swap(swap: mrp_simos::SwapConfig) -> NodeOsConfig {
        NodeOsConfig {
            memory: mrp_simos::MemoryConfig {
                total_ram: 3 * GIB + 88 * MIB,
                swap,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// Runs one suspend/resume cycle under memory pressure and returns the
    /// node's cumulative swap-read bytes right after the resume, plus the
    /// resumed attempt's still-swapped bytes.
    fn pressured_resume(swap: mrp_simos::SwapConfig) -> (u64, u64) {
        let mut tt = with_slots(os_with_swap(swap), 2, 0);
        tt.launch(
            attempt_id(0),
            TaskKind::Map,
            plan(GIB + 512 * MIB),
            SimTime::ZERO,
        )
        .unwrap();
        tt.allocate_task_memory(attempt_id(0), SimTime::ZERO)
            .unwrap();
        {
            let a = tt.attempt_mut(attempt_id(0)).unwrap();
            a.phase = AttemptPhase::Work;
            a.segment_start = SimTime::ZERO;
        }
        tt.suspend(attempt_id(0), SimTime::from_secs(10)).unwrap();
        tt.launch(
            attempt_id(1),
            TaskKind::Map,
            plan(GIB + 512 * MIB),
            SimTime::from_secs(11),
        )
        .unwrap();
        tt.allocate_task_memory(attempt_id(1), SimTime::from_secs(11))
            .unwrap();
        let pid = tt.attempt(attempt_id(0)).unwrap().pid;
        assert!(
            tt.kernel().memory().process(pid).unwrap().swapped > 0,
            "the suspended attempt must have been paged out"
        );
        tt.resume(attempt_id(0), SimTime::from_secs(30)).unwrap();
        let swapped_after = tt.kernel().memory().process(pid).unwrap().swapped;
        (tt.kernel().disk_stats().swap_bytes_in, swapped_after)
    }

    #[test]
    fn lazy_resume_reads_strictly_fewer_bytes_than_eager() {
        let (eager_in, eager_left) = pressured_resume(mrp_simos::SwapConfig::enabled());
        let (lazy_in, lazy_left) = pressured_resume(mrp_simos::SwapConfig::lazy());
        assert!(
            lazy_in < eager_in,
            "lazy resume must page in strictly fewer bytes ({lazy_in} vs {eager_in})"
        );
        assert_eq!(eager_left, 0, "eager resume brings everything back");
        assert!(
            lazy_left > 0,
            "lazy resume leaves the remainder to fault in on touch"
        );
    }

    #[test]
    fn lazy_remainder_faults_in_at_finalize() {
        let mut tt = with_slots(os_with_swap(mrp_simos::SwapConfig::lazy()), 2, 0);
        tt.launch(
            attempt_id(0),
            TaskKind::Map,
            plan(GIB + 512 * MIB),
            SimTime::ZERO,
        )
        .unwrap();
        tt.allocate_task_memory(attempt_id(0), SimTime::ZERO)
            .unwrap();
        {
            let a = tt.attempt_mut(attempt_id(0)).unwrap();
            a.phase = AttemptPhase::Work;
            a.segment_start = SimTime::ZERO;
        }
        tt.suspend(attempt_id(0), SimTime::from_secs(10)).unwrap();
        tt.launch(
            attempt_id(1),
            TaskKind::Map,
            plan(GIB + 512 * MIB),
            SimTime::from_secs(11),
        )
        .unwrap();
        tt.allocate_task_memory(attempt_id(1), SimTime::from_secs(11))
            .unwrap();
        tt.resume(attempt_id(0), SimTime::from_secs(30)).unwrap();
        let pid = tt.attempt(attempt_id(0)).unwrap().pid;
        assert!(tt.kernel().memory().process(pid).unwrap().swapped > 0);
        let stall = tt
            .fault_in_own_memory(attempt_id(0), SimTime::from_secs(40))
            .unwrap();
        assert!(stall > SimDuration::ZERO, "the remainder costs swap reads");
        assert_eq!(tt.kernel().memory().process(pid).unwrap().swapped, 0);
    }

    #[test]
    fn suspended_first_victim_order_survives_lazy_resume() {
        let mut tt = with_slots(os_with_swap(mrp_simos::SwapConfig::lazy()), 3, 0);
        for (i, t) in [(0u32, 0u64), (1, 1)] {
            tt.launch(
                attempt_id(i),
                TaskKind::Map,
                plan(GIB + 256 * MIB),
                SimTime::from_secs(t),
            )
            .unwrap();
            tt.allocate_task_memory(attempt_id(i), SimTime::from_secs(t))
                .unwrap();
            let a = tt.attempt_mut(attempt_id(i)).unwrap();
            a.phase = AttemptPhase::Work;
            a.segment_start = SimTime::from_secs(t);
        }
        // Both suspend; allocating for a third attempt pages them out.
        tt.suspend(attempt_id(0), SimTime::from_secs(10)).unwrap();
        tt.suspend(attempt_id(1), SimTime::from_secs(11)).unwrap();
        tt.launch(
            attempt_id(2),
            TaskKind::Map,
            plan(GIB + 256 * MIB),
            SimTime::from_secs(12),
        )
        .unwrap();
        tt.allocate_task_memory(attempt_id(2), SimTime::from_secs(12))
            .unwrap();
        // Attempt 1 resumes lazily: it keeps part of its state in swap but is
        // no longer suspended.
        tt.resume(attempt_id(1), SimTime::from_secs(20)).unwrap();
        let suspended_pid = tt.attempt(attempt_id(0)).unwrap().pid;
        let resumed_pid = tt.attempt(attempt_id(1)).unwrap().pid;
        assert!(tt.kernel().memory().process(resumed_pid).unwrap().swapped > 0);
        let order = tt.kernel().memory().victim_order_snapshot();
        assert_eq!(
            order.first(),
            Some(&suspended_pid),
            "the still-suspended attempt must stay the preferred victim"
        );
        assert!(
            order.iter().position(|p| *p == suspended_pid).unwrap()
                < order.iter().position(|p| *p == resumed_pid).unwrap(),
            "lazy resume must not leave the resumed attempt ahead of a suspended one"
        );
    }

    #[test]
    fn oom_accounting_stays_exact_with_block_device_and_lazy_resume() {
        let os = NodeOsConfig {
            memory: mrp_simos::MemoryConfig {
                total_ram: 3 * GIB + 88 * MIB,
                swap_capacity: 64 * MIB,
                swap: mrp_simos::SwapConfig::lazy(),
            },
            ..Default::default()
        };
        let mut tt = with_slots(os, 2, 0);
        tt.launch(
            attempt_id(0),
            TaskKind::Map,
            plan(GIB + 512 * MIB),
            SimTime::ZERO,
        )
        .unwrap();
        tt.allocate_task_memory(attempt_id(0), SimTime::ZERO)
            .unwrap();
        {
            let a = tt.attempt_mut(attempt_id(0)).unwrap();
            a.phase = AttemptPhase::Work;
            a.segment_start = SimTime::ZERO;
        }
        tt.suspend(attempt_id(0), SimTime::from_secs(10)).unwrap();
        tt.launch(
            attempt_id(1),
            TaskKind::Map,
            plan(2 * GIB),
            SimTime::from_secs(11),
        )
        .unwrap();
        let out = tt
            .allocate_task_memory(attempt_id(1), SimTime::from_secs(14))
            .unwrap();
        assert_eq!(
            out.oom_killed.iter().map(|v| v.id).collect::<Vec<_>>(),
            vec![attempt_id(0)],
            "exactly the suspended hog dies, exactly once"
        );
        assert!(
            out.aborted.is_none(),
            "after the kill the allocation retries and succeeds"
        );
        assert!(tt.attempt(attempt_id(0)).is_none());
        tt.kernel().memory().check_invariants().unwrap();
    }

    #[test]
    fn overcommitted_attempt_thrashes_and_is_counted() {
        let mut tt = with_slots(os_with_swap(mrp_simos::SwapConfig::enabled()), 1, 0);
        // A single working set larger than usable RAM: the attempt thrashes
        // against itself instead of OOMing (swap has room).
        tt.launch(attempt_id(0), TaskKind::Map, plan(3 * GIB), SimTime::ZERO)
            .unwrap();
        let out = tt
            .allocate_task_memory(attempt_id(0), SimTime::ZERO)
            .unwrap();
        assert!(out.aborted.is_none());
        assert!(out.oom_killed.is_empty());
        assert_eq!(tt.kernel().memory_stats().thrash_events, 1);
        assert!(out.stall > SimDuration::ZERO);
        tt.kernel().memory().check_invariants().unwrap();
    }
}
