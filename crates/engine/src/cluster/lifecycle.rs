//! The attempt lifecycle: how an attempt reaches a node, moves through its
//! phases and leaves it again.
//!
//! An attempt starts with a launch (or a speculative backup launch), takes
//! `MUST_*` commands at its node's heartbeats, and advances phase by phase
//! through [`Event::PhaseDone`]. It leaves its tracker exactly one way: a
//! tracker method that removes it (`kill`, `complete`, `fail`, or
//! `allocate_task_memory` for its OOM victims and a failed allocating
//! attempt) returns an [`AttemptEnd`], and [`Cluster::retire`] is where
//! everything scoped to the attempt dies: its phase event, its progress
//! watch and, after the cleanup attempt, its slot. What the JobTracker then
//! does depends on how the attempt ended and on its [`AttemptRole`]; an
//! orphan is retired and leaves its task alone:
//!
//! * a completion commits first-commit-wins, killing the task's other
//!   attempts ([`Cluster::kill_other_attempts`]);
//! * a kill command, or a failed setup allocation of the current attempt,
//!   resets the task to `Pending` and charges its invested time as wasted
//!   work ([`Cluster::reset_killed`]);
//! * a loss with its node or to the OOM killer promotes a live backup or
//!   re-runs the task ([`Cluster::lose_attempt`]).

use super::{Cluster, Event};
use crate::attempt::{AttemptPhase, AttemptState, ExecPlan, CLEANUP_DURATION};
use crate::job::{AttemptId, AttemptRole, JobRuntime, TaskId, TaskKind, TaskRuntime, TaskState};
use crate::metrics::{KillCause, Record};
use crate::scheduler::MAX_LIVE_SPECULATIONS_PER_JOB;
use crate::shuffle::ShuffleTracker;
use crate::tasktracker::AttemptEnd;
use mrp_dfs::{Locality, NodeId};
use mrp_sim::{EventId, SimDuration, SimTime};

#[derive(Clone, Debug)]
enum TriggerState {
    Waiting,
    Armed { event: EventId, attempt: AttemptId },
    Fired,
}

/// A progress watch: fires when the named task first reaches the given
/// fraction of its work phase. Used by trigger-driven experiment schedulers
/// to reproduce the paper's "preempt tl at r% progress" scenarios exactly.
#[derive(Clone, Debug)]
pub(super) struct ProgressTrigger {
    job_name: String,
    task_index: u32,
    fraction: f64,
    state: TriggerState,
}

impl Cluster {
    /// Registers a progress trigger: when map task `task_index` of the job
    /// named `job_name` first reaches `fraction` of its work phase, the
    /// scheduler's `on_progress_trigger` hook is invoked. The trigger fires at
    /// most once. The watch is armed on one attempt's work phase at a time,
    /// and it is released unfired when that attempt is retired or
    /// suspended; it re-arms when the task's work runs again.
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

    // ----- launch and speculation -------------------------------------------

    /// Moves a task whose state `from` accepts to the `MUST_*` state `next`;
    /// its node gets the command at its next heartbeat.
    pub(super) fn issue_command(
        &mut self,
        task: TaskId,
        next: TaskState,
        from: impl Fn(TaskState) -> bool,
    ) {
        let Some(node) = self
            .task(task)
            .filter(|t| from(t.state))
            .and_then(|t| t.node)
        else {
            return;
        };
        self.set_task_state(task, next);
        let pending = &mut self.pending_cmds[node.0 as usize];
        if !pending.contains(&task) {
            pending.push(task);
        }
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

    pub(super) fn launch_task(&mut self, task: TaskId, node: NodeId, now: SimTime) {
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

    /// Launches a speculative (backup) attempt of `task` on `node`. The task
    /// keeps its JobTracker state (`Running` or `Suspended`); the backup is
    /// tracked through [`TaskRuntime::spec_attempt`] and the first attempt to
    /// finish wins.
    pub(super) fn launch_speculative(&mut self, task: TaskId, node: NodeId, now: SimTime) {
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

    // ----- heartbeat: progress reports and command delivery -----------------

    /// Refreshes the reported progress of the tasks whose attempts run or
    /// sit suspended on `node` (reusable buffer: no per-heartbeat
    /// allocation).
    pub(super) fn refresh_progress(&mut self, node: NodeId, now: SimTime) {
        let mut buf = std::mem::take(&mut self.progress_buf);
        buf.clear();
        for a in self.trackers[node.0 as usize].attempts() {
            buf.push((a.id, a.task, a.progress(now)));
        }
        for &(attempt, task, progress) in &buf {
            self.edit_task(task, |t| match t.role(attempt) {
                // An orphan left running on a healed partition victim must
                // not overwrite the progress of a task that already
                // succeeded (or re-ran) elsewhere.
                AttemptRole::Orphan => {}
                // With a live backup attempt the task's progress is the best
                // of the two attempts, whichever node reports it.
                _ if t.spec_attempt.is_some() => t.progress = t.progress.max(progress),
                _ => t.progress = progress,
            });
        }
        buf.clear();
        self.progress_buf = buf;
    }

    /// Delivers the `MUST_*` commands pending for `node`, piggybacked on its
    /// heartbeat. Commands that cannot be delivered yet (suspend during
    /// setup, resume without a free slot) stay indexed and retry at the next
    /// heartbeat.
    pub(super) fn deliver_commands(&mut self, node: NodeId, now: SimTime) {
        let must = |t: &TaskRuntime| {
            t.node == Some(node)
                && matches!(
                    t.state,
                    TaskState::MustSuspend | TaskState::MustResume | TaskState::MustKill
                )
        };
        let mut pending = std::mem::take(&mut self.pending_cmds[node.0 as usize]);
        pending.retain(|&task| {
            let Some(t) = self.task(task).filter(|t| must(t)) else {
                return false;
            };
            if let Some(attempt) = t.current_attempt {
                match t.state {
                    TaskState::MustSuspend => self.deliver_suspend(task, attempt, node, now),
                    TaskState::MustResume => self.deliver_resume(task, attempt, node, now),
                    _ => self.deliver_kill(task, attempt, node, now),
                }
            }
            self.task(task).is_some_and(must)
        });
        // Delivering a command enqueues none.
        debug_assert!(self.pending_cmds[node.0 as usize].is_empty());
        self.pending_cmds[node.0 as usize] = pending;
    }

    fn deliver_suspend(&mut self, task: TaskId, attempt_id: AttemptId, node: NodeId, now: SimTime) {
        // Only the work phase stops. Too early (setup, shuffle): retry at the
        // next heartbeat (a task that has not started working has nothing
        // worth preserving yet, and Hadoop cannot stop a task mid-setup). Too
        // late (finalize): the task will complete before the suspension
        // matters; the completion heartbeat resolves the race (Section III-B).
        let Some(pending_event) = self
            .tracker(node)
            .and_then(|tt| tt.attempt(attempt_id))
            .filter(|a| a.phase == AttemptPhase::Work)
            .map(|a| a.segment_event)
        else {
            return;
        };
        let Some(Ok(progress)) = self.edit_tracker(node, |tt| tt.suspend(attempt_id, now)) else {
            return;
        };
        // The attempt stays on its tracker: the one phase event not cancelled
        // by `retire`.
        if let Some(ev) = pending_event {
            self.queue.cancel(ev);
        }
        self.release_watches(attempt_id);
        self.edit_task(task, |t| {
            t.set_state(TaskState::Suspended);
            t.progress = progress;
            t.suspend_cycles += 1;
        });
        self.record(Record::Suspended(now, attempt_id, node, progress));
        self.schedule_out_of_band_heartbeat(node, now);
    }

    fn deliver_resume(&mut self, task: TaskId, attempt_id: AttemptId, node: NodeId, now: SimTime) {
        // No free slot (or similar): stay in MUST_RESUME and retry at the
        // next heartbeat from this tracker.
        let Some(Ok(stall)) = self.edit_tracker(node, |tt| tt.resume(attempt_id, now)) else {
            return;
        };
        self.enter_phase(node, attempt_id, AttemptPhase::Work, stall, now);
        self.set_task_state(task, TaskState::Running);
        self.record(Record::Resumed(now, attempt_id, node, stall));
    }

    fn deliver_kill(&mut self, task: TaskId, attempt_id: AttemptId, node: NodeId, now: SimTime) {
        // Killing a task kills the whole task: any live backup dies with it.
        self.kill_other_attempts(task, Some(attempt_id), now);
        match self.edit_tracker(node, |tt| tt.kill(attempt_id, now)) {
            Some(Ok(end)) => self.reset_killed(node, end, now),
            // The attempt vanished underneath us (e.g. the OOM killer took
            // it); make the task schedulable again so it restarts from
            // scratch.
            _ => self.force_task_pending(task),
        }
    }

    /// Retires the killed current attempt of a task and reschedules the task
    /// from scratch, charging the attempt's invested time as wasted work.
    fn reset_killed(&mut self, node: NodeId, end: AttemptEnd, now: SimTime) {
        self.retire(node, &end, now);
        self.edit_task(end.id.task, |t| {
            t.set_state(TaskState::Killed);
            t.wasted_work += end.invested;
            t.paged_out_bytes += end.paged_out_bytes;
            t.paged_in_bytes += end.paged_in_bytes;
            t.progress = 0.0;
            t.node = None;
            t.current_attempt = None;
            // The task itself is rescheduled from scratch.
            t.set_state(TaskState::Pending);
        });
        let cause = KillCause::Signal(end.invested);
        self.record(Record::Killed(now, end.id, node, cause));
    }

    // ----- phase events -----------------------------------------------------

    pub(super) fn handle_phase_done(
        &mut self,
        node: NodeId,
        attempt_id: AttemptId,
        phase: AttemptPhase,
        now: SimTime,
    ) {
        // Defensive: an attempt that left its tracker had its event
        // cancelled on retirement, but re-check that it is still there and
        // still in this phase.
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
                    if let Some(input_bytes) = tt.attempt(attempt_id).map(|a| a.plan.input_bytes) {
                        tt.record_input_read(input_bytes);
                    }
                    Some(alloc)
                });
                let Some(alloc) = alloc.flatten() else {
                    return; // unknown attempt: nothing to clean up
                };
                // The OOM killer may have taken the allocating attempt itself,
                // last; `enter_phase` below then finds it gone.
                for victim in alloc.oom_killed {
                    self.lose_attempt(node, victim, false, now);
                }
                if let Some(end) = alloc.aborted {
                    self.abort_setup(node, end, now);
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
            self.arm_watches(node, attempt_id);
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

    // ----- completion, commit and reconciliation ----------------------------

    fn complete_attempt(&mut self, node: NodeId, attempt_id: AttemptId, now: SimTime) {
        let task = attempt_id.task;
        // Behind a partition the node finishes work the master cannot see:
        // the completion buffers until the heal reconciles it.
        if self.failure.buffer_completion(node, attempt_id) {
            return;
        }
        // An orphan (its task was re-run after a partition teardown)
        // completing on a healed node goes through first-commit-wins
        // reconciliation instead.
        let role = self.role(attempt_id);
        if role == AttemptRole::Orphan {
            self.reconcile_completion(attempt_id, node, now);
            return;
        }
        let Some(finished) = self.finish_attempt(node, attempt_id, now) else {
            return;
        };
        // First finisher wins: the original kills the backup; a winning
        // backup kills the original, wherever — running or suspended — it
        // currently sits.
        self.kill_other_attempts(task, Some(attempt_id), now);
        if role == AttemptRole::Backup {
            self.fault_stats.speculative_won += 1;
        }
        self.commit(attempt_id, node, finished, false, now);
    }

    /// Completes `attempt` on its tracker and retires it. Returns its end
    /// record and the output bytes it leaves on the node, read before the
    /// attempt is gone.
    fn finish_attempt(
        &mut self,
        node: NodeId,
        attempt: AttemptId,
        now: SimTime,
    ) -> Option<(AttemptEnd, u64)> {
        let output_bytes = self.tracker(node)?.attempt(attempt)?.plan.output_bytes;
        let end = self
            .edit_tracker(node, |tt| tt.complete(attempt, now))?
            .ok()?;
        self.retire(node, &end, now);
        Some((end, output_bytes))
    }

    /// Commits a task's success: marks it `Succeeded` — through the checked
    /// state machine on the live path, forced for a `reconciled` completion,
    /// whose task may sit in any state — registers a map's output, then runs
    /// job-completion bookkeeping and the scheduler hooks.
    fn commit(
        &mut self,
        attempt: AttemptId,
        node: NodeId,
        (end, output_bytes): (AttemptEnd, u64),
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
            t.paged_out_bytes += end.paged_out_bytes;
            t.paged_in_bytes += end.paged_in_bytes;
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
        let job_complete = match self.jobs.get_mut(&task.job) {
            Some(job) if job.is_complete() => {
                job.completed_at = Some(now);
                true
            }
            _ => false,
        };
        if job_complete {
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
    pub(super) fn reconcile_completion(
        &mut self,
        attempt_id: AttemptId,
        node: NodeId,
        now: SimTime,
    ) {
        let task = attempt_id.task;
        let job_retired = self
            .jobs
            .get(&task.job)
            .is_none_or(|j| j.completed_at.is_some());
        let state = self.task(task).map(|t| t.state);
        if job_retired || matches!(state, None | Some(TaskState::Succeeded)) {
            // Discard: someone else committed first (or the job is gone).
            // The duplicate-commit tripwire in FaultStats stays at zero
            // because this path never touches task state.
            self.finish_attempt(node, attempt_id, now);
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
        self.kill_other_attempts(task, Some(attempt_id), now);
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

    // ----- ends: retirement, kills and losses -------------------------------

    /// Retires an attempt that left `node`'s tracker: cancels its pending
    /// phase event, releases its progress watch and, when a cleanup attempt
    /// keeps its slot, schedules the slot's release. Every end record passes
    /// through here.
    pub(super) fn retire(&mut self, node: NodeId, end: &AttemptEnd, now: SimTime) {
        if let Some(event) = end.phase_event {
            self.queue.cancel(event);
        }
        self.release_watches(end.id);
        if end.cleanup {
            let epoch = self.tracker(node).map_or(0, |tt| tt.epoch());
            self.queue.schedule(
                now + CLEANUP_DURATION,
                Event::CleanupDone {
                    node,
                    kind: end.id.task.kind,
                    epoch,
                },
            );
        }
    }

    /// The cleanup attempt of a killed task finished: its slot is free
    /// again, unless the node failed since (`epoch` moved), which freed
    /// every slot already.
    pub(super) fn finish_cleanup(
        &mut self,
        node: NodeId,
        kind: TaskKind,
        epoch: u64,
        now: SimTime,
    ) {
        if self.failure.is_silent(node) {
            return; // dead but undetected; the teardown frees slots
        }
        if !self
            .tracker(node)
            .is_some_and(|tt| tt.is_alive() && tt.epoch() == epoch)
        {
            return;
        }
        self.edit_tracker(node, |tt| tt.release_slot(kind));
        self.schedule_out_of_band_heartbeat(node, now);
    }

    /// Kills every live attempt of `task` except `keep` (the winner of a
    /// first-commit-wins race, or the original when its backup is dropped),
    /// wherever it sits and whatever its state, then clears the task's
    /// speculation fields.
    fn kill_other_attempts(&mut self, task: TaskId, keep: Option<AttemptId>, now: SimTime) {
        let Some(t) = self.task(task) else { return };
        let live = [
            t.current_attempt.zip(t.node),
            t.spec_attempt.zip(t.spec_node),
        ];
        for (attempt, node) in live.into_iter().flatten() {
            if Some(attempt) == keep {
                continue;
            }
            if let Some(Ok(end)) = self.edit_tracker(node, |tt| tt.kill(attempt, now)) {
                self.retire_sibling(node, &end, now);
            }
        }
        self.clear_speculation_fields(task);
    }

    /// Retires an attempt killed so that a sibling attempt of its task wins
    /// or carries on, charging its invested time to the speculation-waste
    /// counter.
    fn retire_sibling(&mut self, node: NodeId, end: &AttemptEnd, now: SimTime) {
        self.retire(node, end, now);
        self.fault_stats.speculative_wasted_secs += end.invested.as_secs_f64();
        self.record(Record::SiblingKilled(now, end.id, node, end.invested));
        self.schedule_out_of_band_heartbeat(node, now);
    }

    /// What `attempt` is to the JobTracker; an attempt of a task it does not
    /// know is an orphan.
    fn role(&self, attempt: AttemptId) -> AttemptRole {
        self.task(attempt.task)
            .map_or(AttemptRole::Orphan, |t| t.role(attempt))
    }

    /// An unrecoverable setup allocation killed `end`'s attempt on `node`.
    /// A current attempt takes its task down as a kill command would; a
    /// backup is dropped while the original carries on; an orphan is retired
    /// quietly.
    fn abort_setup(&mut self, node: NodeId, end: AttemptEnd, now: SimTime) {
        let task = end.id.task;
        match self.role(end.id) {
            AttemptRole::Current => {
                self.kill_other_attempts(task, Some(end.id), now);
                self.reset_killed(node, end, now);
            }
            AttemptRole::Backup => {
                self.retire_sibling(node, &end, now);
                self.clear_speculation_fields(task);
            }
            AttemptRole::Orphan => self.retire(node, &end, now),
        }
    }

    /// The JobTracker's side of losing an attempt — with its node
    /// (`node_lost`: a crash, a decommission or a confirmed partition) or to
    /// the OOM killer on a live node. Retires the attempt and records the
    /// loss. A lost backup only clears the task's speculation fields; the
    /// original attempt continues. A lost original promotes the task's
    /// backup — the payoff of speculative re-execution under churn — if
    /// there is one (after a node loss, only if the backup's node is in
    /// service: a backup torn down by the same rack outage is resolved by
    /// its own end record); otherwise the task restarts from scratch as
    /// `Pending`. The original's invested time is charged to the task as
    /// wasted work; node losses also count the waste and the re-execution
    /// in the fault stats. A lost orphan leaves its task alone; one lost
    /// with its node is only retired, since the teardown that orphaned it
    /// already counted and recorded its loss.
    pub(super) fn lose_attempt(
        &mut self,
        node: NodeId,
        end: AttemptEnd,
        node_lost: bool,
        now: SimTime,
    ) {
        self.retire(node, &end, now);
        let (attempt, task) = (end.id, end.id.task);
        let role = self.role(attempt);
        if node_lost && role == AttemptRole::Orphan {
            return;
        }
        if node_lost {
            self.fault_stats.attempts_lost += 1;
            self.record(Record::AttemptLost(now, attempt, node));
            if end.state == AttemptState::Suspended {
                self.fault_stats.suspended_tasks_lost += 1;
                self.fault_stats.lost_suspended_work_secs += end.invested.as_secs_f64();
            }
        }
        if !node_lost {
            let cause = if role == AttemptRole::Backup {
                KillCause::SpeculativeOom
            } else {
                KillCause::Oom
            };
            self.record(Record::Killed(now, attempt, node, cause));
        }
        match role {
            AttemptRole::Current => {}
            AttemptRole::Backup => {
                if node_lost {
                    self.fault_stats.speculative_wasted_secs += end.invested.as_secs_f64();
                }
                self.clear_speculation_fields(task);
                return;
            }
            AttemptRole::Orphan => return,
        }
        let backup = self
            .task(task)
            .and_then(|t| t.spec_attempt.zip(t.spec_node));
        self.clear_speculation_fields(task);
        if let Some(t) = self.task_mut(task) {
            t.wasted_work += end.invested;
        }
        match backup {
            Some((spec_attempt, spec_node)) if !node_lost || self.node_in_service(spec_node) => {
                // A node vanishing under a task can promote a suspended one's
                // backup: `Suspended` to `Running`, a transition the heartbeat
                // protocol never makes, hence no legality check.
                self.edit_task(task, |t| {
                    t.current_attempt = Some(spec_attempt);
                    t.node = Some(spec_node);
                    t.state = TaskState::Running;
                });
                // The original's watch died with it; it re-arms against the
                // promoted attempt.
                self.arm_watches(spec_node, spec_attempt);
            }
            _ => {
                if node_lost {
                    self.fault_stats.re_executed_tasks += 1;
                }
                self.force_task_pending(task);
            }
        }
    }

    // ----- progress watches -------------------------------------------------

    /// Arms every waiting watch on `attempt`'s task against `attempt`'s work.
    /// An orphan's work is not its task's: the watch waits for the re-run.
    fn arm_watches(&mut self, node: NodeId, attempt: AttemptId) {
        let task = attempt.task;
        if self.triggers.is_empty()
            || task.kind != TaskKind::Map
            || self.role(attempt) == AttemptRole::Orphan
        {
            return;
        }
        let Some(a) = self.tracker(node).and_then(|tt| tt.attempt(attempt)) else {
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
            trigger.state = TriggerState::Armed { event, attempt };
        }
    }

    /// Releases the watches armed on `attempt`, unfired: they wait for the
    /// task's work to run again.
    fn release_watches(&mut self, attempt: AttemptId) {
        for trigger in &mut self.triggers {
            match trigger.state {
                TriggerState::Armed {
                    event,
                    attempt: armed,
                } if armed == attempt => {
                    self.queue.cancel(event);
                    trigger.state = TriggerState::Waiting;
                }
                _ => {}
            }
        }
    }

    pub(super) fn handle_progress_trigger(&mut self, index: usize, now: SimTime) {
        let (task, fraction) = match &self.triggers[index].state {
            TriggerState::Armed { attempt, .. } => (attempt.task, self.triggers[index].fraction),
            _ => return,
        };
        self.triggers[index].state = TriggerState::Fired;
        self.consult(now, |s, ctx| s.on_progress_trigger(ctx, task, fraction));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::job::{JobId, JobSpec, TaskProfile};
    use crate::scheduler::{SchedulerAction, SchedulerContext, SchedulerPolicy};
    use mrp_sim::{GIB, MIB};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// The progress triggers that fired, in order.
    type Fired = Rc<RefCell<Vec<(TaskId, f64)>>>;

    /// Launches nothing on its own and records every progress trigger that
    /// fires, so a test drives launches and faults by hand.
    struct Watcher(Fired);

    impl SchedulerPolicy for Watcher {
        fn on_heartbeat(&mut self, _: &SchedulerContext<'_>, _: NodeId) -> Vec<SchedulerAction> {
            Vec::new()
        }

        fn on_progress_trigger(
            &mut self,
            _: &SchedulerContext<'_>,
            task: TaskId,
            fraction: f64,
        ) -> Vec<SchedulerAction> {
            self.0.borrow_mut().push((task, fraction));
            Vec::new()
        }
    }

    /// A cluster driven by a [`Watcher`], the jobs registered, and the
    /// watcher's record of fired triggers.
    fn cluster(cfg: ClusterConfig, jobs: Vec<JobSpec>) -> (Cluster, Fired) {
        let fired = Rc::default();
        let mut c = Cluster::new(cfg, Box::new(Watcher(Rc::clone(&fired))));
        for spec in jobs {
            c.submit_job(spec);
        }
        c.run(SimTime::ZERO);
        (c, fired)
    }

    fn map(job: u32, index: u32) -> TaskId {
        TaskId {
            job: JobId(job),
            kind: TaskKind::Map,
            index,
        }
    }

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn an_orphan_whose_setup_allocation_fails_leaves_and_frees_its_slot() {
        // Node 0 runs four small maps and starts a task that needs 8 GiB
        // more than it can ever hold. The master tears the partitioned node
        // down and re-runs that task on node 1, which has room; the orphan
        // on node 0 then fails its allocation even after the OOM killer took
        // the four others.
        let mut cfg = ClusterConfig::small_cluster(2, 5, 1);
        cfg.nodes[0].os.memory.total_ram = 3 * GIB;
        cfg.nodes[0].os.memory.swap_capacity = 64 * MIB;
        cfg.nodes[1].os.memory.total_ram = 16 * GIB;
        let big = TaskProfile::memory_hungry(8 * GIB);
        let (mut c, _) = cluster(
            cfg,
            vec![
                JobSpec::synthetic("small", 4, 512 * MIB),
                JobSpec::synthetic("big", 1, 512 * MIB).with_profile(big),
            ],
        );
        let node0 = NodeId(0);
        for index in 0..4 {
            c.launch_task(map(1, index), node0, SimTime::ZERO);
        }
        c.run(secs(10));
        let task = map(2, 0);
        c.launch_task(task, node0, secs(10));
        let orphan = c.task(task).unwrap().current_attempt.unwrap();
        c.partition_node(node0, secs(10));
        c.teardown_partitioned(node0, secs(10));
        c.launch_task(task, NodeId(1), secs(10));
        let current = c.task(task).unwrap().current_attempt.unwrap();
        assert_ne!(orphan, current);

        c.run(secs(30));
        let oom_kills = c.trace().iter().filter(|r| {
            matches!(r, Record::Killed(_, a, n, KillCause::Oom) if *n == node0 && a.task.job == JobId(1))
        });
        assert_eq!(
            oom_kills.count(),
            4,
            "the OOM killer takes the small maps first"
        );
        assert!(c.trackers[0].attempt(orphan).is_none(), "the orphan left");
        let t = c.task(task).unwrap();
        assert_eq!(
            (t.state, t.node, t.current_attempt),
            (TaskState::Running, Some(NodeId(1)), Some(current)),
            "the task keeps running on node 1"
        );
        assert!(c.trackers[1].attempt(current).is_some());
        c.heal_partition(node0, secs(30));
        assert_eq!(
            c.trackers[0].free_slots(TaskKind::Map),
            5,
            "the orphan's cleanup released its slot"
        );
    }

    #[test]
    fn an_orphans_progress_does_not_fire_its_tasks_watch() {
        // Node 0 is torn down as a partition victim while the attempt is in
        // setup: the attempt runs on there as an orphan, past the watch's
        // 50%, while its task waits as pending. Only the re-run on node 1
        // fires the watch.
        let (mut c, fired) = cluster(
            ClusterConfig::small_cluster(2, 1, 1),
            vec![JobSpec::synthetic("watched", 1, 512 * MIB)],
        );
        c.add_progress_trigger("watched", 0, 0.5);
        let task = map(1, 0);
        let node0 = NodeId(0);
        c.launch_task(task, node0, SimTime::ZERO);
        let orphan = c.task(task).unwrap().current_attempt.unwrap();
        c.partition_node(node0, SimTime::ZERO);
        c.teardown_partitioned(node0, SimTime::ZERO);
        assert_eq!(c.task(task).unwrap().state, TaskState::Pending);
        c.run(secs(60));
        let a = c.trackers[0].attempt(orphan).expect("the orphan runs on");
        assert_eq!(a.phase, AttemptPhase::Work);
        assert!(
            a.work_completed + (secs(60) - a.segment_start) > a.plan.work.mul_f64(0.5),
            "the orphan is past the watch's fraction"
        );
        assert_eq!(*fired.borrow(), [], "the orphan fired the watch");
        c.launch_task(task, NodeId(1), secs(60));
        c.run(secs(600));
        assert_eq!(*fired.borrow(), [(task, 0.5)]);
        assert_eq!(c.task(task).unwrap().state, TaskState::Succeeded);
    }

    #[test]
    fn losing_a_backups_node_keeps_the_originals_watch() {
        let (mut c, fired) = cluster(
            ClusterConfig::small_cluster(2, 1, 1),
            vec![JobSpec::synthetic("watched", 1, 512 * MIB)],
        );
        c.add_progress_trigger("watched", 0, 0.5);
        let task = map(1, 0);
        c.launch_task(task, NodeId(0), SimTime::ZERO);
        c.run(secs(10));
        c.launch_speculative(task, NodeId(1), secs(10));
        assert!(c.task(task).unwrap().spec_attempt.is_some());
        c.run(secs(15));
        assert!(c.fail_node(NodeId(1), secs(15), false));
        assert!(c.task(task).unwrap().spec_attempt.is_none());
        c.run(secs(600));
        assert_eq!(*fired.borrow(), [(task, 0.5)]);
        assert_eq!(c.task(task).unwrap().state, TaskState::Succeeded);
    }

    #[test]
    fn a_watch_dies_with_the_original_its_backup_beat() {
        // Node 0's slow disk stretches the original's work fourfold: the
        // backup on node 1 commits long before the original would reach 90%.
        // A second job that never runs keeps the simulation going past that
        // point.
        let (mut c, fired) = cluster(
            ClusterConfig::small_cluster(2, 1, 1),
            vec![
                JobSpec::synthetic("watched", 1, 512 * MIB),
                JobSpec::synthetic("idle", 1, 512 * MIB),
            ],
        );
        c.add_progress_trigger("watched", 0, 0.9);
        let task = map(1, 0);
        c.degrade_node(NodeId(0), 4.0, 1.0, SimTime::ZERO);
        c.launch_task(task, NodeId(0), SimTime::ZERO);
        c.run(secs(10));
        c.launch_speculative(task, NodeId(1), secs(10));
        c.run(secs(1_200));
        let t = c.task(task).unwrap();
        assert_eq!(t.state, TaskState::Succeeded);
        assert!(
            c.trace()
                .iter()
                .any(|r| matches!(r, Record::SiblingKilled(_, a, n, _) if a.task == task && *n == NodeId(0))),
            "the backup won and killed the original"
        );
        assert_eq!(*fired.borrow(), []);
    }
}
