//! Task attempt execution model.
//!
//! A task attempt is a child process on a TaskTracker that goes through a
//! small number of phases. The paper's synthetic mappers "read and parse the
//! randomly generated input"; their duration is dominated by the parse rate,
//! with fixed startup and commit overheads. Memory behaviour is concentrated
//! in the setup phase (the worst-case experiments allocate their state there,
//! writing random values so every page is dirty) and the finalize phase
//! (where the state is read back).
//!
//! Phases:
//!
//! * `Setup` — JVM startup + allocation of the base footprint and any
//!   configured state memory (stall from paging other processes out is
//!   charged here).
//! * `Shuffle` — reduce tasks only: copy map outputs.
//! * `Work` — the parse loop; the only phase where progress accrues and where
//!   suspension takes effect. It can be split into several segments by
//!   suspend/resume cycles.
//! * `Finalize` — fault back in anything the task itself had swapped, write
//!   the output, commit.

use crate::job::{AttemptId, TaskId, TaskKind, TaskProfile};
use mrp_dfs::Locality;
use mrp_sim::{EventId, SimDuration, SimTime, MIB};
use mrp_simos::{Pid, SEQ_READ_BYTES_PER_SEC, SEQ_WRITE_BYTES_PER_SEC};
use serde::{Deserialize, Serialize};

// Execution-model constants shared by every task, calibrated to the paper's
// testbed (Section IV-A): together they give ≈80 s map tasks over 512 MB
// splits. A job overrides only the parse rate and the output ratio, through
// its `TaskProfile`.

/// Time to fork and initialise the child task JVM.
pub(crate) const JVM_STARTUP: SimDuration = SimDuration::from_millis(3_000);
/// Memory footprint of the Hadoop execution engine inside every task (JVM,
/// I/O buffers, sort buffers) regardless of user code.
pub const BASE_TASK_MEMORY: u64 = 192 * MIB;
/// Fraction of the base footprint that is dirty anonymous memory (the rest
/// is mapped code and read-only data that can be dropped for free).
const BASE_MEMORY_DIRTY_FRACTION: f64 = 0.6;
/// Rate at which the synthetic mappers read **and parse** their input; this,
/// not raw disk bandwidth, bounds task duration (≈6.7 MiB/s gives the
/// paper's ≈80 s tasks over 512 MB splits).
pub(crate) const PARSE_RATE_BYTES_PER_SEC: f64 = 6.7 * MIB as f64;
/// Output size as a fraction of input size.
pub(crate) const OUTPUT_RATIO: f64 = 0.05;
/// Fixed cost of task commit (renaming output, reporting completion).
pub(crate) const COMMIT_OVERHEAD: SimDuration = SimDuration::from_millis(1_200);
/// Duration of the cleanup attempt that removes the partial output of a
/// killed task; it occupies the task's slot before the slot is released.
pub(crate) const CLEANUP_DURATION: SimDuration = SimDuration::from_millis(3_000);
/// Shuffle copy rate for reduce tasks (network-bound).
const SHUFFLE_BYTES_PER_SEC: f64 = 80.0 * MIB as f64;

/// Execution phases of an attempt.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub(crate) enum AttemptPhase {
    /// JVM startup and memory allocation.
    Setup,
    /// Copying map outputs (reduce tasks only).
    Shuffle,
    /// Processing input; the suspendable phase.
    Work,
    /// Output write and commit.
    Finalize,
}

/// TaskTracker-side state of an attempt.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub(crate) enum AttemptState {
    /// Executing one of its phases.
    Running,
    /// Stopped by `SIGTSTP`; keeps its memory, holds no slot.
    Suspended,
}

/// Pre-computed durations and memory plan for an attempt.
///
/// Plans come from the execution model's fixed constants, calibrated to the
/// paper's testbed: a 3 s JVM startup, a 6.7 MiB/s parse rate and a 1.2 s
/// commit make a 512 MB map task take ≈80 s, and every task carries the
/// engine's [`BASE_TASK_MEMORY`] footprint. A job's [`TaskProfile`] can
/// override the parse rate and the output ratio and add state memory.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub(crate) struct ExecPlan {
    /// Duration of the setup phase (before any paging stall).
    pub(crate) setup: SimDuration,
    /// Duration of the shuffle phase (zero for maps).
    pub(crate) shuffle: SimDuration,
    /// Duration of the work phase if never interrupted.
    pub(crate) work: SimDuration,
    /// Duration of the finalize phase (before any page-in stall).
    pub(crate) finalize: SimDuration,
    /// Total memory allocated at the end of setup (base + state).
    pub(crate) memory: u64,
    /// Dirty fraction of that allocation.
    pub(crate) dirty_fraction: f64,
    /// Input bytes consumed.
    pub(crate) input_bytes: u64,
    /// Output bytes produced at finalize.
    pub(crate) output_bytes: u64,
}

impl ExecPlan {
    /// Builds the plan for a map attempt reading `input_bytes` with the given
    /// data locality.
    pub(crate) fn for_map(profile: &TaskProfile, input_bytes: u64, locality: Locality) -> ExecPlan {
        let parse_rate = profile
            .parse_rate_bytes_per_sec
            .unwrap_or(PARSE_RATE_BYTES_PER_SEC);
        // The map task streams its input; the effective rate is bounded by
        // both the parse loop and the (locality-degraded) disk/network read.
        let read_rate = SEQ_READ_BYTES_PER_SEC * locality.throughput_factor();
        let rate = parse_rate.min(read_rate).max(1.0);
        let output_ratio = profile.output_ratio.unwrap_or(OUTPUT_RATIO);
        let output_bytes = (input_bytes as f64 * output_ratio) as u64;
        let write_time = output_bytes as f64 / SEQ_WRITE_BYTES_PER_SEC;
        ExecPlan {
            setup: JVM_STARTUP,
            shuffle: SimDuration::ZERO,
            work: SimDuration::from_secs_f64(input_bytes as f64 / rate),
            finalize: COMMIT_OVERHEAD + SimDuration::from_secs_f64(write_time),
            memory: BASE_TASK_MEMORY + profile.state_memory,
            dirty_fraction: ExecPlan::combined_dirty_fraction(profile),
            input_bytes,
            output_bytes,
        }
    }

    /// Builds the plan for a reduce attempt whose shuffle phase is stretched
    /// by `contention` (≥ 1; `1.0` is the nominal copy rate): the cross-rack
    /// bandwidth term of [`ShuffleConfig`](crate::ShuffleConfig). Only the
    /// shuffle phase pays — once the bytes are local, the sort/reduce work
    /// is network-independent.
    pub(crate) fn for_reduce_contended(
        profile: &TaskProfile,
        shuffle_bytes: u64,
        contention: f64,
    ) -> ExecPlan {
        let parse_rate = profile
            .parse_rate_bytes_per_sec
            .unwrap_or(PARSE_RATE_BYTES_PER_SEC)
            .max(1.0);
        let output_ratio = profile.output_ratio.unwrap_or(OUTPUT_RATIO);
        let output_bytes = (shuffle_bytes as f64 * output_ratio) as u64;
        let write_time = output_bytes as f64 / SEQ_WRITE_BYTES_PER_SEC;
        ExecPlan {
            setup: JVM_STARTUP,
            shuffle: SimDuration::from_secs_f64(
                shuffle_bytes as f64 / SHUFFLE_BYTES_PER_SEC * contention.max(1.0),
            ),
            work: SimDuration::from_secs_f64(shuffle_bytes as f64 / parse_rate),
            finalize: COMMIT_OVERHEAD + SimDuration::from_secs_f64(write_time),
            memory: BASE_TASK_MEMORY + profile.state_memory,
            dirty_fraction: ExecPlan::combined_dirty_fraction(profile),
            input_bytes: shuffle_bytes,
            output_bytes,
        }
    }

    fn combined_dirty_fraction(profile: &TaskProfile) -> f64 {
        let total = (BASE_TASK_MEMORY + profile.state_memory) as f64;
        if total == 0.0 {
            return 0.0;
        }
        (BASE_TASK_MEMORY as f64 * BASE_MEMORY_DIRTY_FRACTION
            + profile.state_memory as f64 * profile.state_dirty_fraction)
            / total
    }
}

/// A live attempt on a TaskTracker.
#[derive(Clone, Debug)]
pub struct Attempt {
    /// The attempt's identifier.
    pub(crate) id: AttemptId,
    /// The task it belongs to.
    pub(crate) task: TaskId,
    /// Kind (map/reduce), cached to pick the right slot pool.
    pub(crate) kind: TaskKind,
    /// The OS process running the attempt.
    pub(crate) pid: Pid,
    /// Current phase.
    pub(crate) phase: AttemptPhase,
    /// TaskTracker-side state.
    pub(crate) state: AttemptState,
    /// Pre-computed execution plan.
    pub(crate) plan: ExecPlan,
    /// When the current phase segment started.
    pub(crate) segment_start: SimTime,
    /// Planned duration of the current phase segment.
    pub(crate) segment_duration: SimDuration,
    /// Event that will fire when the current segment completes, if running.
    pub(crate) segment_event: Option<EventId>,
    /// Work-phase time already completed across previous segments.
    pub(crate) work_completed: SimDuration,
    /// Shuffle re-fetch rounds this attempt has gone through while waiting
    /// for lost map outputs to be re-executed (reduces only; drives the
    /// exponential backoff schedule).
    pub(crate) shuffle_retries: u32,
}

impl Attempt {
    /// Creates a new attempt about to begin its setup phase.
    pub(crate) fn new(
        id: AttemptId,
        kind: TaskKind,
        pid: Pid,
        plan: ExecPlan,
        now: SimTime,
    ) -> Self {
        Attempt {
            id,
            task: id.task,
            kind,
            pid,
            phase: AttemptPhase::Setup,
            state: AttemptState::Running,
            plan,
            segment_start: now,
            segment_duration: SimDuration::ZERO,
            segment_event: None,
            work_completed: SimDuration::ZERO,
            shuffle_retries: 0,
        }
    }

    /// Fraction of the work phase completed at `now` (what the TaskTracker
    /// reports as progress, and what the paper's `r%` refers to).
    pub(crate) fn progress(&self, now: SimTime) -> f64 {
        if self.plan.work.is_zero() {
            return match self.phase {
                AttemptPhase::Setup | AttemptPhase::Shuffle => 0.0,
                _ => 1.0,
            };
        }
        let mut done = self.work_completed;
        if self.phase == AttemptPhase::Work && self.state == AttemptState::Running {
            done += now - self.segment_start;
        }
        if self.phase == AttemptPhase::Finalize {
            return 1.0;
        }
        (done.as_secs_f64() / self.plan.work.as_secs_f64()).clamp(0.0, 1.0)
    }

    /// Work-phase time still to run.
    pub(crate) fn remaining_work(&self) -> SimDuration {
        self.plan.work.saturating_sub(self.work_completed)
    }

    /// Records that the work segment running since `segment_start` was
    /// interrupted at `now` (suspension or kill), accumulating completed work.
    pub(crate) fn interrupt_work(&mut self, now: SimTime) {
        if self.phase == AttemptPhase::Work && self.state == AttemptState::Running {
            self.work_completed += now - self.segment_start;
            if self.work_completed > self.plan.work {
                self.work_completed = self.plan.work;
            }
        }
    }

    /// Time this attempt has spent running (excluding suspension), assuming
    /// it is currently at the start of `now`'s segment; used for wasted-work
    /// accounting when an attempt is killed.
    pub(crate) fn invested_time(&self, now: SimTime) -> SimDuration {
        let phase_time = match self.phase {
            AttemptPhase::Setup => now - self.segment_start,
            _ => self.plan.setup,
        };
        let work_time = if self.phase == AttemptPhase::Work && self.state == AttemptState::Running {
            self.work_completed + (now - self.segment_start)
        } else {
            self.work_completed
        };
        phase_time + work_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;

    fn attempt_id() -> AttemptId {
        AttemptId {
            task: TaskId {
                job: JobId(1),
                kind: TaskKind::Map,
                index: 0,
            },
            number: 0,
        }
    }

    #[test]
    fn map_plan_is_parse_bound_for_local_reads() {
        let plan = ExecPlan::for_map(&TaskProfile::lightweight(), 512 * MIB, Locality::NodeLocal);
        let work = plan.work.as_secs_f64();
        assert!(
            (70.0..90.0).contains(&work),
            "512MB at ~6.7MB/s ≈ 76s, got {work}"
        );
        assert_eq!(plan.shuffle, SimDuration::ZERO);
        assert_eq!(plan.memory, BASE_TASK_MEMORY);
    }

    #[test]
    fn remote_reads_are_not_slower_when_parse_bound() {
        // Parse rate (6.7 MB/s) is far below even off-rack read bandwidth, so
        // locality barely matters for the paper's synthetic jobs.
        let local = ExecPlan::for_map(&TaskProfile::lightweight(), 512 * MIB, Locality::NodeLocal);
        let remote = ExecPlan::for_map(&TaskProfile::lightweight(), 512 * MIB, Locality::OffRack);
        assert_eq!(local.work, remote.work);
    }

    #[test]
    fn locality_matters_when_io_bound() {
        let mut profile = TaskProfile::lightweight();
        profile.parse_rate_bytes_per_sec = Some(1e12); // effectively IO-bound
        let local = ExecPlan::for_map(&profile, 512 * MIB, Locality::NodeLocal);
        let remote = ExecPlan::for_map(&profile, 512 * MIB, Locality::OffRack);
        assert!(remote.work > local.work);
    }

    #[test]
    fn memory_hungry_profile_increases_memory_not_duration() {
        let light = ExecPlan::for_map(&TaskProfile::lightweight(), 512 * MIB, Locality::NodeLocal);
        let heavy = ExecPlan::for_map(
            &TaskProfile::memory_hungry(2048 * MIB),
            512 * MIB,
            Locality::NodeLocal,
        );
        assert_eq!(light.work, heavy.work);
        assert_eq!(heavy.memory, BASE_TASK_MEMORY + 2048 * MIB);
        assert!(heavy.dirty_fraction > light.dirty_fraction);
    }

    #[test]
    fn reduce_plan_has_shuffle() {
        let plan = ExecPlan::for_reduce_contended(&TaskProfile::lightweight(), 256 * MIB, 1.0);
        assert!(plan.shuffle > SimDuration::ZERO);
        assert!(plan.work > SimDuration::ZERO);
    }

    #[test]
    fn contended_reduce_stretches_only_the_shuffle_phase() {
        let base = ExecPlan::for_reduce_contended(&TaskProfile::lightweight(), 256 * MIB, 1.0);
        let contended = ExecPlan::for_reduce_contended(&TaskProfile::lightweight(), 256 * MIB, 1.5);
        assert!((contended.shuffle.as_secs_f64() - base.shuffle.as_secs_f64() * 1.5).abs() < 1e-6);
        assert_eq!(contended.work, base.work);
        assert_eq!(contended.finalize, base.finalize);
        // Sub-unit contention is clamped to the nominal rate.
        let clamped = ExecPlan::for_reduce_contended(&TaskProfile::lightweight(), 256 * MIB, 0.25);
        assert_eq!(clamped, base);
    }

    #[test]
    fn progress_accrues_only_in_work_phase() {
        let plan = ExecPlan::for_map(&TaskProfile::lightweight(), 512 * MIB, Locality::NodeLocal);
        let work = plan.work;
        let mut a = Attempt::new(attempt_id(), TaskKind::Map, Pid(1), plan, SimTime::ZERO);
        // During setup progress stays 0.
        assert_eq!(a.progress(SimTime::from_secs(2)), 0.0);
        // Enter work phase at t=3.
        a.phase = AttemptPhase::Work;
        a.segment_start = SimTime::from_secs(3);
        let halfway = SimTime::from_secs(3) + work.mul_f64(0.5);
        let p = a.progress(halfway);
        assert!(
            (p - 0.5).abs() < 0.01,
            "progress at half the work should be ~0.5, got {p}"
        );
        // Suspend at halfway: progress freezes.
        a.interrupt_work(halfway);
        a.state = AttemptState::Suspended;
        let later = halfway + SimDuration::from_secs(100);
        assert!((a.progress(later) - 0.5).abs() < 0.01);
        assert!((a.remaining_work().as_secs_f64() - work.as_secs_f64() * 0.5).abs() < 1.0);
    }

    #[test]
    fn interrupt_clamps_at_full_work() {
        let plan = ExecPlan::for_map(&TaskProfile::lightweight(), 64 * MIB, Locality::NodeLocal);
        let work = plan.work;
        let mut a = Attempt::new(attempt_id(), TaskKind::Map, Pid(1), plan, SimTime::ZERO);
        a.phase = AttemptPhase::Work;
        a.segment_start = SimTime::ZERO;
        a.interrupt_work(SimTime::ZERO + work + SimDuration::from_secs(50));
        assert_eq!(a.remaining_work(), SimDuration::ZERO);
        assert_eq!(a.progress(SimTime::from_secs(1_000)), 1.0);
    }

    #[test]
    fn zero_work_progress_is_phase_based() {
        let mut plan = ExecPlan::for_map(&TaskProfile::lightweight(), 0, Locality::NodeLocal);
        plan.work = SimDuration::ZERO;
        let mut a = Attempt::new(attempt_id(), TaskKind::Map, Pid(1), plan, SimTime::ZERO);
        assert_eq!(a.progress(SimTime::ZERO), 0.0);
        a.phase = AttemptPhase::Finalize;
        assert_eq!(a.progress(SimTime::ZERO), 1.0);
    }

    #[test]
    fn invested_time_accounts_setup_and_work() {
        let plan = ExecPlan::for_map(&TaskProfile::lightweight(), 512 * MIB, Locality::NodeLocal);
        let mut a = Attempt::new(
            attempt_id(),
            TaskKind::Map,
            Pid(1),
            plan.clone(),
            SimTime::ZERO,
        );
        a.phase = AttemptPhase::Work;
        a.segment_start = SimTime::from_secs(3);
        let t = SimTime::from_secs(33);
        let invested = a.invested_time(t).as_secs_f64();
        assert!((invested - (plan.setup.as_secs_f64() + 30.0)).abs() < 0.5);
    }
}
