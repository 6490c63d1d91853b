//! Map-output tracking: the registry that makes shuffle a fault domain.
//!
//! In real Hadoop a committed map task leaves its output on the local disks
//! of the node that ran it; reduces fetch those bytes over the network during
//! their shuffle phase. The output is **not** in HDFS — when the node dies,
//! the bytes die with it, the fetching reduces report fetch failures, and the
//! JobTracker re-executes the affected *completed* maps. PR 3's fault model
//! skipped this: blocks re-replicated but map outputs silently survived, so
//! reduces shuffled from ghosts and churn was under-priced.
//!
//! The [`ShuffleTracker`] closes that hole. It is engine-owned state, dense
//! by [`JobId`] like the [`DelayScoreboard`](crate::DelayScoreboard), holding
//! for every tracked job (reduce-carrying jobs while
//! [`ShuffleConfig::enabled`](crate::ShuffleConfig)) the node that holds each
//! map output, the per-rack byte totals (for rack-aware reduce placement and
//! the cross-rack contention term) and how many outputs are currently
//! present. The [`Cluster`](crate::Cluster) mutates it through `&mut self` on
//! map commit, node loss and decommission drain; scheduling policies only
//! read it through [`SchedulerContext`](crate::SchedulerContext), so no
//! interior mutability is needed.

use crate::config::ShuffleConfig;
use crate::job::JobId;
use mrp_dfs::{NodeId, RackId};
use mrp_sim::SimDuration;

/// First re-fetch delay, in seconds, after a reduce finds map outputs
/// missing at the end of its shuffle phase.
const FETCH_RETRY_BASE_SECS: f64 = 2.0;
/// Multiplier applied to the delay on every further failed fetch round
/// (exponential backoff).
const FETCH_RETRY_BACKOFF: f64 = 2.0;
/// Upper bound, in seconds, on the per-round re-fetch delay.
const FETCH_RETRY_CAP_SECS: f64 = 30.0;
/// Shuffle-duration multiplier paid when *all* of a job's map-output bytes
/// live off the reduce's rack; the effective factor scales linearly with the
/// off-rack byte fraction.
const CROSS_RACK_PENALTY: f64 = 2.0;

/// Per-job map-output registry (see module docs).
#[derive(Clone, Debug)]
struct JobShuffle {
    /// Holder of each map output, indexed by map task index; `None` while the
    /// map has not committed or its output died with a node.
    map_holder: Vec<Option<NodeId>>,
    /// Output size of each map task, recorded at commit.
    map_bytes: Vec<u64>,
    /// Live map-output bytes per rack (drives reduce-rack preference).
    bytes_by_rack: Vec<u64>,
    /// Sum of the live entries of `bytes_by_rack`.
    live_bytes: u64,
    /// Number of maps whose output is currently present.
    present: u32,
}

/// Engine-owned map-output registry shared with policies through
/// [`SchedulerContext`](crate::SchedulerContext). See the module docs.
#[derive(Debug)]
pub struct ShuffleTracker {
    enabled: bool,
    rack_count: usize,
    /// Per-job state, dense by `JobId` (ids are sequential from 1); `None`
    /// for untracked jobs (map-only, or tracking disabled) and for jobs whose
    /// registry was already retired on completion.
    jobs: Vec<Option<JobShuffle>>,
}

impl ShuffleTracker {
    /// Creates the tracker for a cluster with the given shuffle config.
    pub(crate) fn new(config: ShuffleConfig, rack_count: usize) -> Self {
        ShuffleTracker {
            enabled: config.enabled,
            rack_count,
            jobs: Vec::new(),
        }
    }

    /// Whether map-output tracking is switched on at all.
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Delay before a stalled reduce's next re-fetch round after `retries`
    /// failed rounds: exponential backoff from the base delay, capped.
    pub(crate) fn refetch_delay(retries: u32) -> SimDuration {
        SimDuration::from_secs_f64(
            (FETCH_RETRY_BASE_SECS * FETCH_RETRY_BACKOFF.powi(retries.min(63) as i32))
                .min(FETCH_RETRY_CAP_SECS),
        )
    }

    /// Shuffle-duration multiplier for a reduce of `job` launching on
    /// `rack`: cross-rack map-output bytes pay the top-of-rack penalty,
    /// `1 + (penalty - 1) * cross_rack_fraction`. `1.0` while tracking is
    /// off, so the default configuration prices every byte identically.
    pub(crate) fn reduce_contention(&self, job: JobId, rack: RackId) -> f64 {
        if !self.enabled {
            return 1.0;
        }
        1.0 + (CROSS_RACK_PENALTY - 1.0) * self.cross_rack_fraction(job, rack)
    }

    /// Registers the next job (ids are dense; called by the engine on job
    /// registration). Only reduce-carrying jobs get a registry; map-only jobs
    /// (and every job while tracking is disabled) stay `None` but still
    /// occupy a slot to keep the vector dense.
    pub(crate) fn register_job(&mut self, map_count: u32, reduce_count: u32) {
        let tracked = self.enabled && reduce_count > 0;
        self.jobs.push(tracked.then(|| JobShuffle {
            map_holder: vec![None; map_count as usize],
            map_bytes: vec![0; map_count as usize],
            bytes_by_rack: vec![0; self.rack_count],
            live_bytes: 0,
            present: 0,
        }));
    }

    fn entry(&self, job: JobId) -> Option<&JobShuffle> {
        self.jobs.get((job.0 as usize).wrapping_sub(1))?.as_ref()
    }

    fn entry_mut(&mut self, job: JobId) -> Option<&mut JobShuffle> {
        self.jobs
            .get_mut((job.0 as usize).wrapping_sub(1))?
            .as_mut()
    }

    /// True when the job has a live registry (reduce-carrying, tracking on,
    /// not yet retired).
    pub(crate) fn tracked(&self, job: JobId) -> bool {
        self.entry(job).is_some()
    }

    /// Records that map `map_index` of `job` committed `bytes` of output on
    /// `node` (rack `rack`). Replaces any previous holder (a re-executed map
    /// commits again).
    pub(crate) fn record_map_output(
        &mut self,
        job: JobId,
        map_index: usize,
        node: NodeId,
        rack: RackId,
        bytes: u64,
    ) {
        let Some(state) = self.entry_mut(job) else {
            return;
        };
        if state.map_holder[map_index].is_some() {
            // A stale duplicate commit: drop the old accounting first. The
            // registry cannot know the old rack here, so duplicate commits
            // are routed through `clear_output` by the cluster instead; this
            // branch is a defensive no-op.
            return;
        }
        state.map_holder[map_index] = Some(node);
        state.map_bytes[map_index] = bytes;
        state.bytes_by_rack[rack.0 as usize] += bytes;
        state.live_bytes += bytes;
        state.present += 1;
    }

    /// Destroys every map output of `job` held by `node` (rack `rack`),
    /// returning the indices of the maps that lost their output. Called on a
    /// node crash; the cluster re-executes the returned maps.
    pub(crate) fn on_node_lost(&mut self, job: JobId, node: NodeId, rack: RackId) -> Vec<u32> {
        let Some(state) = self.entry_mut(job) else {
            return Vec::new();
        };
        let mut lost = Vec::new();
        for (i, holder) in state.map_holder.iter_mut().enumerate() {
            if *holder == Some(node) {
                *holder = None;
                let bytes = state.map_bytes[i];
                state.bytes_by_rack[rack.0 as usize] -= bytes;
                state.live_bytes -= bytes;
                state.present -= 1;
                lost.push(i as u32);
            }
        }
        lost
    }

    /// Migrates every map output of `job` held by `from` to `to` (a graceful
    /// decommission drain: the leaving node copies its outputs out before
    /// shutdown, so no re-execution is needed). Returns how many outputs
    /// moved.
    pub(crate) fn migrate(
        &mut self,
        job: JobId,
        from: NodeId,
        from_rack: RackId,
        to: NodeId,
        to_rack: RackId,
    ) -> u64 {
        let Some(state) = self.entry_mut(job) else {
            return 0;
        };
        let mut moved = 0;
        for (i, holder) in state.map_holder.iter_mut().enumerate() {
            if *holder == Some(from) {
                *holder = Some(to);
                let bytes = state.map_bytes[i];
                state.bytes_by_rack[from_rack.0 as usize] -= bytes;
                state.bytes_by_rack[to_rack.0 as usize] += bytes;
                moved += 1;
            }
        }
        moved
    }

    /// True when every map output of `job` is present (or the job is not
    /// tracked at all — untracked reduces never wait).
    pub(crate) fn complete(&self, job: JobId) -> bool {
        match self.entry(job) {
            Some(state) => state.present as usize == state.map_holder.len(),
            None => true,
        }
    }

    /// The rack currently holding the most live map-output bytes of `job`
    /// (ties break towards the lowest rack id), or `None` when the job is
    /// untracked or no output has been committed yet.
    pub(crate) fn preferred_rack(&self, job: JobId) -> Option<RackId> {
        let state = self.entry(job)?;
        if state.live_bytes == 0 {
            return None;
        }
        let (best, _) = state
            .bytes_by_rack
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| a.cmp(b).then(ib.cmp(ia)))?;
        Some(RackId(best as u32))
    }

    /// Fraction of the job's live map-output bytes that live **off** rack
    /// `rack` — the input to the cross-rack shuffle contention term. Zero for
    /// untracked jobs and for jobs with no committed output.
    pub(crate) fn cross_rack_fraction(&self, job: JobId, rack: RackId) -> f64 {
        let Some(state) = self.entry(job) else {
            return 0.0;
        };
        if state.live_bytes == 0 {
            return 0.0;
        }
        let on_rack = state.bytes_by_rack[rack.0 as usize];
        (state.live_bytes - on_rack) as f64 / state.live_bytes as f64
    }

    /// Retires the job's registry once the job completes (frees the per-map
    /// vectors; completed jobs never shuffle again).
    pub(crate) fn job_finished(&mut self, job: JobId) {
        if let Some(slot) = self.jobs.get_mut((job.0 as usize).wrapping_sub(1)) {
            *slot = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ShuffleTracker {
        /// Number of currently present map outputs of `job` (test observability).
        fn outputs_present(&self, job: JobId) -> u32 {
            self.entry(job).map(|s| s.present).unwrap_or(0)
        }

        /// Live map-output bytes of `job` on `rack` (test observability).
        fn rack_bytes(&self, job: JobId, rack: RackId) -> u64 {
            self.entry(job)
                .map(|s| s.bytes_by_rack[rack.0 as usize])
                .unwrap_or(0)
        }
    }

    fn tracker() -> ShuffleTracker {
        let mut t = ShuffleTracker::new(ShuffleConfig::fault_tolerant(), 2);
        t.register_job(3, 1);
        t
    }

    #[test]
    fn disabled_tracker_tracks_nothing() {
        let mut t = ShuffleTracker::new(ShuffleConfig::default(), 2);
        t.register_job(3, 1);
        assert!(!t.enabled());
        assert!(!t.tracked(JobId(1)));
        assert!(t.complete(JobId(1)));
        t.record_map_output(JobId(1), 0, NodeId(0), RackId(0), 100);
        assert_eq!(t.outputs_present(JobId(1)), 0);
        assert_eq!(t.preferred_rack(JobId(1)), None);
    }

    #[test]
    fn map_only_jobs_are_untracked_even_when_enabled() {
        let mut t = ShuffleTracker::new(ShuffleConfig::fault_tolerant(), 2);
        t.register_job(3, 0);
        assert!(!t.tracked(JobId(1)));
        assert!(t.complete(JobId(1)));
    }

    #[test]
    fn commit_loss_and_reexecution_cycle() {
        let mut t = tracker();
        let job = JobId(1);
        assert!(t.tracked(job));
        assert!(!t.complete(job), "no output committed yet");
        t.record_map_output(job, 0, NodeId(0), RackId(0), 100);
        t.record_map_output(job, 1, NodeId(1), RackId(1), 200);
        t.record_map_output(job, 2, NodeId(0), RackId(0), 50);
        assert!(t.complete(job));
        assert_eq!(t.rack_bytes(job, RackId(0)), 150);
        assert_eq!(t.rack_bytes(job, RackId(1)), 200);
        assert_eq!(t.preferred_rack(job), Some(RackId(1)));

        // Node 0 crashes: maps 0 and 2 lose their output.
        let lost = t.on_node_lost(job, NodeId(0), RackId(0));
        assert_eq!(lost, vec![0, 2]);
        assert!(!t.complete(job));
        assert_eq!(t.outputs_present(job), 1);
        assert_eq!(t.rack_bytes(job, RackId(0)), 0);

        // Re-execution commits the outputs again, elsewhere.
        t.record_map_output(job, 0, NodeId(2), RackId(1), 100);
        t.record_map_output(job, 2, NodeId(2), RackId(1), 50);
        assert!(t.complete(job));
        assert_eq!(t.preferred_rack(job), Some(RackId(1)));
    }

    #[test]
    fn migration_keeps_outputs_present() {
        let mut t = tracker();
        let job = JobId(1);
        t.record_map_output(job, 0, NodeId(0), RackId(0), 100);
        t.record_map_output(job, 1, NodeId(0), RackId(0), 60);
        t.record_map_output(job, 2, NodeId(1), RackId(1), 10);
        let moved = t.migrate(job, NodeId(0), RackId(0), NodeId(3), RackId(1));
        assert_eq!(moved, 2);
        assert!(t.complete(job));
        assert_eq!(t.rack_bytes(job, RackId(0)), 0);
        assert_eq!(t.rack_bytes(job, RackId(1)), 170);
        // The drained node no longer holds anything to lose.
        assert!(t.on_node_lost(job, NodeId(0), RackId(0)).is_empty());
    }

    #[test]
    fn cross_rack_fraction_tracks_byte_placement() {
        let mut t = tracker();
        let job = JobId(1);
        assert_eq!(t.cross_rack_fraction(job, RackId(0)), 0.0);
        t.record_map_output(job, 0, NodeId(0), RackId(0), 300);
        t.record_map_output(job, 1, NodeId(4), RackId(1), 100);
        assert!((t.cross_rack_fraction(job, RackId(0)) - 0.25).abs() < 1e-12);
        assert!((t.cross_rack_fraction(job, RackId(1)) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn preferred_rack_ties_break_low() {
        let mut t = tracker();
        let job = JobId(1);
        t.record_map_output(job, 0, NodeId(4), RackId(1), 100);
        t.record_map_output(job, 1, NodeId(0), RackId(0), 100);
        assert_eq!(t.preferred_rack(job), Some(RackId(0)));
    }

    #[test]
    fn finished_jobs_are_retired() {
        let mut t = tracker();
        let job = JobId(1);
        t.record_map_output(job, 0, NodeId(0), RackId(0), 100);
        t.job_finished(job);
        assert!(!t.tracked(job));
        assert!(t.complete(job));
        assert!(t.on_node_lost(job, NodeId(0), RackId(0)).is_empty());
    }

    #[test]
    fn unknown_jobs_are_harmless() {
        let mut t = tracker();
        assert!(!t.tracked(JobId(99)));
        assert!(t.complete(JobId(99)));
        assert!(t.on_node_lost(JobId(99), NodeId(0), RackId(0)).is_empty());
        assert_eq!(
            t.migrate(JobId(99), NodeId(0), RackId(0), NodeId(1), RackId(0)),
            0
        );
    }
}
