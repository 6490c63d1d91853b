//! Delay scheduling: scheduler-independent bookkeeping for data-local
//! task placement.
//!
//! Strict policy orders (smallest-remaining-first HFSP, most-starved-first
//! FAIR, plain FIFO) hand the next free slot to the head job no matter where
//! the slot is, which at cluster scale puts almost every map launch off-rack
//! (~0.2% node-local on the 10k-node `swim_cluster` scenario). Delay
//! scheduling (Zaharia et al., EuroSys 2010) fixes this with a bounded wait:
//! a job that cannot launch node-local on the offered node *declines* the
//! slot, the slot is offered to the next job in policy order, and the
//! declining job's allowed locality level escalates with elapsed time so it
//! can never starve.
//!
//! The [`DelayScoreboard`] is the engine-owned state behind the policy — one
//! wait clock per job:
//!
//! * the clock **starts** the first time the job declines an offered slot
//!   (never before: a job that was never offered anything is genuinely
//!   starved, and e.g. FAIR's deficit tracking must still see it as such);
//! * the allowed level is a pure function of the elapsed wait —
//!   node-local only, then rack-local after
//!   [`DelayConfig::node_local_wait`](crate::DelayConfig), then anything
//!   after an additional
//!   [`DelayConfig::rack_local_wait`](crate::DelayConfig) — so escalation
//!   needs no extra events and keeps working even when every replica holder
//!   of a job's pending tasks is dead (the fault-injection case: a dead node
//!   must not strand the job's wait);
//! * the clock **resets** when the job launches a node-local map task
//!   (reset-on-local-launch), making the job wait again for its next task.
//!
//! Two counters let a policy cache "these jobs decline here" across rounds
//! and stay exact:
//!
//! * the **shape epoch** moves whenever some job's schedulable-map,
//!   schedulable-reduce or suspended count crosses zero (the engine reports
//!   it from `Cluster::edit_task`), i.e. whenever a job may start or stop
//!   having work of a kind;
//! * the **reset count** moves whenever a node-local launch resets a
//!   running wait. While it stands still, every clock once seen running is
//!   still running, so a batch of declines by such jobs is a plain addition
//!   to the skip total ([`DelayScoreboard::note_skips`]).
//!
//! Every policy places through the slot filler
//! [`fill_node`](crate::fill_node), which reaches the scoreboard through the
//! [`SchedulerContext`](crate::SchedulerContext) helpers (`delay_allowed`,
//! `note_delay_skip`) and whose decline window reads the epochs directly;
//! FAIR's preemption asks `delay_gated`. So FIFO, FAIR, HFSP and DRF share
//! one wait clock, one escalation rule and one tiering. Interior mutability (`RefCell`/`Cell`)
//! lets the policies record skips through the shared context; the
//! simulation is single-threaded and every mutation is a deterministic
//! function of the event sequence, so fixed-seed determinism is preserved.

use crate::config::DelayConfig;
use crate::job::JobId;
use mrp_dfs::Locality;
use mrp_sim::{SimDuration, SimTime};
use std::cell::{Cell, RefCell};

/// Engine-owned delay-scheduling state shared with policies through
/// [`SchedulerContext`](crate::SchedulerContext). See the module docs.
#[derive(Debug)]
pub struct DelayScoreboard {
    config: DelayConfig,
    /// Per-job wait clock, dense by `JobId` (ids are sequential from 1):
    /// when the job first declined an offered slot since its last
    /// node-local launch; `None` while the job has nothing to wait for.
    waits: RefCell<Vec<Option<SimTime>>>,
    /// Total declined opportunities, for [`LocalityStats`](crate::LocalityStats).
    total_skips: Cell<u64>,
    /// Running waits reset by a node-local launch so far.
    resets: Cell<u64>,
    /// Zero crossings of any job's schedulable-map, schedulable-reduce or
    /// suspended count so far.
    shape_epoch: Cell<u64>,
}

impl DelayScoreboard {
    /// Creates the scoreboard for a cluster with the given delay knobs.
    pub(crate) fn new(config: DelayConfig) -> Self {
        DelayScoreboard {
            config,
            waits: RefCell::new(Vec::new()),
            total_skips: Cell::new(0),
            resets: Cell::new(0),
            shape_epoch: Cell::new(0),
        }
    }

    /// Whether delay scheduling is switched on at all. Policies use this to
    /// keep the delay branches entirely off the hot path when disabled.
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// Registers the next job (ids are dense; the engine calls this on job
    /// registration, hand-built harnesses once per job they create).
    pub(crate) fn register_job(&self) {
        self.waits.borrow_mut().push(None);
    }

    /// The loosest locality level the job may launch map tasks at right now.
    /// `NodeLocal` means node-local only; `OffRack` means anything goes
    /// (also the answer whenever delay scheduling is disabled).
    pub(crate) fn allowed(&self, job: JobId, now: SimTime) -> Locality {
        self.allowed_until(job, now).0
    }

    /// [`DelayScoreboard::allowed`], plus the earliest instant the level may
    /// loosen ([`SimTime::MAX`] once it is `OffRack`). A clock that has not
    /// started yet starts no earlier than `now`, so such a job holds
    /// `NodeLocal` at least until `now + node_local_wait`; a reset only ever
    /// tightens the level. Additions saturate, so huge waits mean "never".
    pub(crate) fn allowed_until(&self, job: JobId, now: SimTime) -> (Locality, SimTime) {
        if !self.config.enabled {
            return (Locality::OffRack, SimTime::MAX);
        }
        let waits = self.waits.borrow();
        let Some(&wait) = waits.get((job.0 as usize).wrapping_sub(1)) else {
            return (Locality::OffRack, SimTime::MAX);
        };
        let rack_at = wait
            .unwrap_or(now)
            .saturating_add(self.config.node_local_wait);
        let any_at = rack_at.saturating_add(self.config.rack_local_wait);
        if wait.is_none() || now < rack_at {
            (Locality::NodeLocal, rack_at)
        } else if now < any_at {
            (Locality::RackLocal, any_at)
        } else {
            (Locality::OffRack, SimTime::MAX)
        }
    }

    /// Records that `job` declined a launch opportunity it could have used
    /// (a free slot of the right kind on a node below its allowed locality):
    /// starts the wait clock if it is not running and counts the skip.
    pub(crate) fn note_skip(&self, job: JobId, now: SimTime) {
        if !self.config.enabled {
            return;
        }
        let mut waits = self.waits.borrow_mut();
        let Some(wait) = waits.get_mut((job.0 as usize).wrapping_sub(1)) else {
            return;
        };
        wait.get_or_insert(now);
        self.total_skips.set(self.total_skips.get() + 1);
    }

    /// Records one declined offer for each of `jobs` (all registered).
    /// `stamp` is what this call returned the last time it was given the
    /// same jobs, or `None`: when no running wait was reset since, every one
    /// of their clocks is still running and the call is one addition.
    /// Returns the stamp for the next call.
    pub(crate) fn note_skips(&self, jobs: &[JobId], now: SimTime, stamp: Option<u64>) -> u64 {
        if !self.config.enabled {
            return self.resets.get();
        }
        if stamp != Some(self.resets.get()) {
            let mut waits = self.waits.borrow_mut();
            for job in jobs {
                waits[(job.0 as usize).wrapping_sub(1)].get_or_insert(now);
            }
        }
        self.total_skips
            .set(self.total_skips.get() + jobs.len() as u64);
        self.resets.get()
    }

    /// True while the job is *actively* waiting by its own choice: its wait
    /// clock is running (it declined at least one real opportunity) and it
    /// has not yet escalated to off-rack. FAIR uses this to keep
    /// delay-blocked jobs out of its starvation deficit — preempting victims
    /// to free slots the waiting job would only decline again is pure churn.
    /// A job whose clock never started was never offered anything and *is*
    /// starved.
    pub(crate) fn gated(&self, job: JobId, now: SimTime) -> bool {
        self.job_waiting(job) && self.allowed(job, now) != Locality::OffRack
    }

    /// Resets the job's wait after a node-local map launch, returning how
    /// long the job had been waiting (for the wait-time histogram), or
    /// `None` if no wait was running. The engine calls this on every
    /// node-local map launch.
    pub(crate) fn local_launch(&self, job: JobId, now: SimTime) -> Option<SimDuration> {
        if !self.config.enabled {
            return None;
        }
        let started = self
            .waits
            .borrow_mut()
            .get_mut((job.0 as usize).wrapping_sub(1))?
            .take()?;
        self.resets.set(self.resets.get() + 1);
        Some(now - started)
    }

    /// Records that some job's schedulable-map, schedulable-reduce or
    /// suspended count just crossed zero (a no-op while delay scheduling is
    /// off). The engine calls this from its single task-edit path.
    pub(crate) fn note_shape_change(&self) {
        if self.config.enabled {
            self.shape_epoch.set(self.shape_epoch.get() + 1);
        }
    }

    /// The shape epoch: changes whenever some job may have started or
    /// stopped having schedulable maps, schedulable reduces or suspended
    /// tasks.
    pub(crate) fn shape_epoch(&self) -> u64 {
        self.shape_epoch.get()
    }

    /// Total declined launch opportunities so far (all jobs).
    pub fn total_skips(&self) -> u64 {
        self.total_skips.get()
    }

    /// Whether the job's wait clock is currently running (test observability).
    pub fn job_waiting(&self, job: JobId) -> bool {
        self.waits
            .borrow()
            .get((job.0 as usize).wrapping_sub(1))
            .is_some_and(|w| w.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn board(node_secs: u64, rack_secs: u64) -> DelayScoreboard {
        let sb = DelayScoreboard::new(DelayConfig::waits(
            SimDuration::from_secs(node_secs),
            SimDuration::from_secs(rack_secs),
        ));
        sb.register_job();
        sb
    }

    #[test]
    fn disabled_scoreboard_allows_everything_and_records_nothing() {
        let sb = DelayScoreboard::new(DelayConfig::default());
        sb.register_job();
        let job = JobId(1);
        assert_eq!(sb.allowed(job, SimTime::ZERO), Locality::OffRack);
        sb.note_skip(job, SimTime::ZERO);
        assert_eq!(sb.total_skips(), 0);
        assert!(!sb.gated(job, SimTime::ZERO));
    }

    #[test]
    fn wait_clock_escalates_node_to_rack_to_any() {
        let sb = board(3, 3);
        let job = JobId(1);
        // Before any decline: node-local only, but not "gated" (the job was
        // never offered anything, so it may legitimately be starved).
        assert_eq!(
            sb.allowed(job, SimTime::from_secs(100)),
            Locality::NodeLocal
        );
        assert!(!sb.gated(job, SimTime::from_secs(100)));
        sb.note_skip(job, SimTime::from_secs(100));
        assert!(sb.gated(job, SimTime::from_secs(100)));
        assert_eq!(
            sb.allowed(job, SimTime::from_secs(102)),
            Locality::NodeLocal
        );
        assert_eq!(
            sb.allowed(job, SimTime::from_secs(103)),
            Locality::RackLocal
        );
        assert_eq!(
            sb.allowed(job, SimTime::from_secs(105)),
            Locality::RackLocal
        );
        assert_eq!(sb.allowed(job, SimTime::from_secs(106)), Locality::OffRack);
        // Escalated to anything: no longer gated.
        assert!(!sb.gated(job, SimTime::from_secs(106)));
    }

    #[test]
    fn zero_rack_wait_collapses_the_rack_tier() {
        let sb = board(3, 0);
        let job = JobId(1);
        sb.note_skip(job, SimTime::ZERO);
        assert_eq!(sb.allowed(job, SimTime::from_secs(2)), Locality::NodeLocal);
        assert_eq!(sb.allowed(job, SimTime::from_secs(3)), Locality::OffRack);
    }

    #[test]
    fn local_launch_resets_the_clock() {
        let sb = board(3, 3);
        let job = JobId(1);
        sb.note_skip(job, SimTime::from_secs(10));
        sb.note_skip(job, SimTime::from_secs(11));
        assert!(sb.job_waiting(job));
        assert_eq!(sb.total_skips(), 2);
        let waited = sb.local_launch(job, SimTime::from_secs(14));
        assert_eq!(waited, Some(SimDuration::from_secs(4)));
        assert!(!sb.job_waiting(job));
        assert_eq!(sb.total_skips(), 2, "the total survives the reset");
        // The wait starts over for the next task.
        assert_eq!(sb.allowed(job, SimTime::from_secs(20)), Locality::NodeLocal);
        assert_eq!(sb.local_launch(job, SimTime::from_secs(20)), None);
    }

    #[test]
    fn allowed_until_names_the_next_escalation() {
        let sb = board(3, 3);
        let job = JobId(1);
        // An idle clock starts no earlier than now.
        assert_eq!(
            sb.allowed_until(job, SimTime::from_secs(10)),
            (Locality::NodeLocal, SimTime::from_secs(13))
        );
        sb.note_skip(job, SimTime::from_secs(10));
        assert_eq!(
            sb.allowed_until(job, SimTime::from_secs(12)),
            (Locality::NodeLocal, SimTime::from_secs(13))
        );
        assert_eq!(
            sb.allowed_until(job, SimTime::from_secs(13)),
            (Locality::RackLocal, SimTime::from_secs(16))
        );
        assert_eq!(
            sb.allowed_until(job, SimTime::from_secs(16)),
            (Locality::OffRack, SimTime::MAX)
        );
    }

    #[test]
    fn waits_too_long_to_add_saturate_to_never() {
        let sb = DelayScoreboard::new(DelayConfig::waits(
            SimDuration::from_micros(u64::MAX),
            SimDuration::from_micros(1),
        ));
        sb.register_job();
        let job = JobId(1);
        sb.note_skip(job, SimTime::from_secs(5));
        let late = SimTime::from_micros(u64::MAX - 1);
        assert_eq!(
            sb.allowed_until(job, late),
            (Locality::NodeLocal, SimTime::MAX)
        );
        assert!(sb.gated(job, late));
    }

    #[test]
    fn batched_skips_restart_clocks_only_after_a_reset() {
        let sb = board(3, 3);
        sb.register_job();
        let jobs = [JobId(1), JobId(2)];
        let stamp = sb.note_skips(&jobs, SimTime::from_secs(1), None);
        assert!(sb.job_waiting(JobId(1)) && sb.job_waiting(JobId(2)));
        assert_eq!(sb.total_skips(), 2);
        // Nothing reset: the same stamp comes back and only the total moves.
        assert_eq!(
            sb.note_skips(&jobs, SimTime::from_secs(2), Some(stamp)),
            stamp
        );
        assert_eq!(sb.total_skips(), 4);
        // A reset moves the stamp, so the next batch restarts the clock.
        sb.local_launch(JobId(2), SimTime::from_secs(2));
        assert!(!sb.job_waiting(JobId(2)));
        let next = sb.note_skips(&jobs, SimTime::from_secs(3), Some(stamp));
        assert_ne!(next, stamp);
        assert_eq!(
            sb.allowed_until(JobId(2), SimTime::from_secs(3)),
            (Locality::NodeLocal, SimTime::from_secs(6))
        );
        assert_eq!(
            sb.allowed_until(JobId(1), SimTime::from_secs(3)),
            (Locality::NodeLocal, SimTime::from_secs(4)),
            "a running clock keeps its start"
        );
        assert_eq!(sb.total_skips(), 6);
        // A launch that ends no wait is not a reset.
        assert_eq!(
            sb.local_launch(JobId(2), SimTime::from_secs(3)),
            Some(SimDuration::ZERO)
        );
        assert_eq!(sb.local_launch(JobId(2), SimTime::from_secs(3)), None);
        assert_eq!(sb.note_skips(&jobs, SimTime::from_secs(4), None), next + 1);
    }

    #[test]
    fn shape_epoch_moves_only_while_enabled() {
        let sb = board(3, 3);
        sb.note_shape_change();
        assert_eq!(sb.shape_epoch(), 1);
        let off = DelayScoreboard::new(DelayConfig::default());
        off.note_shape_change();
        assert_eq!(off.shape_epoch(), 0);
    }

    #[test]
    fn unknown_jobs_are_unrestricted() {
        let sb = board(3, 3);
        assert_eq!(sb.allowed(JobId(99), SimTime::ZERO), Locality::OffRack);
        sb.note_skip(JobId(99), SimTime::ZERO);
        assert_eq!(sb.total_skips(), 0);
    }
}
