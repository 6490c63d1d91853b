//! ATLAS-style node-reliability predictor.
//!
//! ATLAS (Soualhia et al., PAPERS.md) showed that Hadoop wastes a large
//! fraction of its re-execution budget by re-placing work on nodes that just
//! failed: failure history is a usable predictor of near-future failures.
//! The [`ReliabilityTracker`] keeps an EWMA-like flakiness score per node and
//! per rack, fed by the engine's fault plan as crashes actually strike
//! (scripted events and random churn alike — the predictor sees observations,
//! not the plan):
//!
//! * a crash moves the victim's score halfway towards `1.0`
//!   (`FAILURE_BOOST`), and its rack's score likewise (rack churn — a sick
//!   switch — taints members);
//! * between failures the score decays exponentially with **virtual time**,
//!   halving every five minutes (`HALF_LIFE_SECS`) — a pure function of
//!   `now`, so no decay events are needed and the simulation stays
//!   deterministic and refresh-mode independent;
//! * graceful decommissions are *not* failures and never feed the predictor.
//!
//! Schedulers consult the combined score — the node's own plus a quarter of
//! its rack's (`RACK_WEIGHT`), flaky from 0.35 up (`FLAKY_THRESHOLD`) — through
//! [`SchedulerContext::reliability_avoid`](crate::SchedulerContext), which
//! only steers **fresh** launches and speculative backups, never resumes, and
//! only while the cluster has free capacity elsewhere — the guard that keeps
//! the bias starvation-free.

use crate::config::ReliabilityConfig;
use mrp_dfs::{NodeId, RackId};
use mrp_sim::SimTime;

/// How far one crash moves a score towards 1.0 (the EWMA weight of a new
/// failure observation).
const FAILURE_BOOST: f64 = 0.5;
/// Half-life of a score's exponential decay, in seconds of virtual time
/// since the last failure: a node that stays up is forgiven.
const HALF_LIFE_SECS: f64 = 300.0;
/// Weight of the rack score in a node's combined flakiness estimate.
const RACK_WEIGHT: f64 = 0.25;
/// Combined score at or above which a node is flaky and avoided for fresh
/// launches and speculative backups.
const FLAKY_THRESHOLD: f64 = 0.35;

/// One decaying failure score: its value at the time of the last failure
/// plus the timestamp to decay from.
#[derive(Clone, Copy, Debug, Default)]
struct Score {
    /// Score immediately after the last recorded failure.
    at_failure: f64,
    /// When that failure struck; `None` while the subject never failed.
    last_failure: Option<SimTime>,
}

impl Score {
    /// Current value: exponential decay from the last failure,
    /// `at_failure * 2^(-elapsed / half_life)`.
    fn value(&self, now: SimTime) -> f64 {
        match self.last_failure {
            None => 0.0,
            Some(t) => {
                let elapsed = (now - t).as_secs_f64();
                self.at_failure * (-elapsed * std::f64::consts::LN_2 / HALF_LIFE_SECS).exp()
            }
        }
    }

    /// Records a failure at `now`: decay to the present, then EWMA-bump
    /// towards 1.0.
    fn record(&mut self, now: SimTime, boost: f64) {
        let current = self.value(now);
        self.at_failure = current + boost * (1.0 - current);
        self.last_failure = Some(now);
    }
}

/// Engine-owned failure-history scores shared with policies through
/// [`SchedulerContext`](crate::SchedulerContext). See the module docs.
#[derive(Debug)]
pub struct ReliabilityTracker {
    enabled: bool,
    nodes: Vec<Score>,
    racks: Vec<Score>,
}

impl ReliabilityTracker {
    /// Creates the tracker for a cluster of the given shape.
    pub(crate) fn new(config: ReliabilityConfig, node_count: usize, rack_count: usize) -> Self {
        ReliabilityTracker {
            enabled: config.enabled,
            nodes: vec![Score::default(); node_count],
            racks: vec![Score::default(); rack_count],
        }
    }

    /// Whether the predictor is switched on at all.
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Feeds one observed crash of `node` (rack `rack`) into the scores.
    /// Decommissions are graceful and must not be recorded.
    pub(crate) fn record_failure(&mut self, node: NodeId, rack: RackId, now: SimTime) {
        if !self.enabled {
            return;
        }
        if let Some(s) = self.nodes.get_mut(node.0 as usize) {
            s.record(now, FAILURE_BOOST);
        }
        if let Some(s) = self.racks.get_mut(rack.0 as usize) {
            s.record(now, FAILURE_BOOST);
        }
    }

    /// Feeds one observed gray failure (slow disk / slow net, no crash) of
    /// `node` into the scores at half the crash boost: a degraded node is a
    /// placement risk, but a recoverable one. The rack score is untouched —
    /// gray failures are node-local (a sick disk), not switch-wide.
    pub(crate) fn record_degraded(&mut self, node: NodeId, now: SimTime) {
        if !self.enabled {
            return;
        }
        if let Some(s) = self.nodes.get_mut(node.0 as usize) {
            s.record(now, 0.5 * FAILURE_BOOST);
        }
    }

    /// The node's combined flakiness estimate right now: its own decayed
    /// score plus `RACK_WEIGHT` times its rack's.
    pub(crate) fn score(&self, node: NodeId, rack: RackId, now: SimTime) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        let node_score = self
            .nodes
            .get(node.0 as usize)
            .map(|s| s.value(now))
            .unwrap_or(0.0);
        let rack_score = self
            .racks
            .get(rack.0 as usize)
            .map(|s| s.value(now))
            .unwrap_or(0.0);
        node_score + RACK_WEIGHT * rack_score
    }

    /// True when the node's combined score is at or above the flaky
    /// threshold — the placement bias trigger.
    pub(crate) fn flaky(&self, node: NodeId, rack: RackId, now: SimTime) -> bool {
        self.enabled && self.score(node, rack, now) >= FLAKY_THRESHOLD
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker() -> ReliabilityTracker {
        ReliabilityTracker::new(ReliabilityConfig::predictive(), 4, 2)
    }

    #[test]
    fn disabled_tracker_scores_zero() {
        let mut t = ReliabilityTracker::new(ReliabilityConfig::default(), 4, 2);
        t.record_failure(NodeId(0), RackId(0), SimTime::from_secs(10));
        assert_eq!(t.score(NodeId(0), RackId(0), SimTime::from_secs(10)), 0.0);
        assert!(!t.flaky(NodeId(0), RackId(0), SimTime::from_secs(10)));
    }

    #[test]
    fn a_crash_marks_node_and_rack_flaky() {
        let mut t = tracker();
        let now = SimTime::from_secs(100);
        assert!(!t.flaky(NodeId(1), RackId(0), now));
        t.record_failure(NodeId(1), RackId(0), now);
        // Victim: node score 0.5 + rack share.
        assert!(t.flaky(NodeId(1), RackId(0), now));
        // Rack sibling: only the rack share (0.25 * 0.5 = 0.125 < 0.35).
        assert!(!t.flaky(NodeId(0), RackId(0), now));
        // Other rack: untouched.
        assert_eq!(t.score(NodeId(3), RackId(1), now), 0.0);
    }

    #[test]
    fn scores_decay_with_virtual_time() {
        let mut t = tracker();
        t.record_failure(NodeId(1), RackId(0), SimTime::from_secs(100));
        let s0 = t.score(NodeId(1), RackId(0), SimTime::from_secs(100));
        // One half-life later the score has halved.
        let s1 = t.score(NodeId(1), RackId(0), SimTime::from_secs(400));
        assert!((s1 - s0 / 2.0).abs() < 1e-9, "s0={s0} s1={s1}");
        // Long after the crash the node is forgiven.
        assert!(!t.flaky(NodeId(1), RackId(0), SimTime::from_secs(4_000)));
    }

    #[test]
    fn repeated_crashes_compound_towards_one() {
        let mut t = tracker();
        for k in 0..5u64 {
            t.record_failure(NodeId(2), RackId(1), SimTime::from_secs(100 + k));
        }
        let s = t.score(NodeId(2), RackId(1), SimTime::from_secs(105));
        assert!(s > 0.9, "compounded score {s}");
        assert!(s < 1.0 + RACK_WEIGHT + 1e-9);
    }

    #[test]
    fn gray_failure_scores_half_a_crash_and_spares_the_rack() {
        let mut t = tracker();
        let now = SimTime::from_secs(100);
        t.record_degraded(NodeId(1), now);
        let gray = t.score(NodeId(1), RackId(0), now);
        let mut c = tracker();
        c.record_failure(NodeId(1), RackId(0), now);
        assert!((gray - FAILURE_BOOST / 2.0).abs() < 1e-9, "gray={gray}");
        assert!(gray < c.score(NodeId(1), RackId(0), now));
        // Rack siblings are untouched by a gray failure.
        assert_eq!(t.score(NodeId(0), RackId(0), now), 0.0);
        // Disabled tracker ignores it entirely.
        let mut off = ReliabilityTracker::new(ReliabilityConfig::default(), 4, 2);
        off.record_degraded(NodeId(1), now);
        assert_eq!(off.score(NodeId(1), RackId(0), now), 0.0);
    }

    #[test]
    fn rack_churn_taints_members() {
        let mut t = tracker();
        let now = SimTime::from_secs(50);
        t.record_failure(NodeId(0), RackId(0), now);
        // A sibling that never failed itself still scores the rack term.
        let sibling = t.score(NodeId(1), RackId(0), now);
        assert!(
            (sibling - RACK_WEIGHT * FAILURE_BOOST).abs() < 1e-12,
            "sibling={sibling}"
        );
        assert_eq!(t.score(NodeId(3), RackId(1), now), 0.0);
    }
}
