//! The failure domain: the resolved fault schedule and the master's view of
//! every node's link (heartbeats, missed-heartbeat suspicion, partitions),
//! gray-failure slowdowns and who owns each outage.
//!
//! [`FailureDomain`] owns that state and nothing else. Its transitions never
//! touch trackers, jobs, the DFS or the shuffle registry: each one returns
//! what the [`Cluster`](crate::Cluster) must do next — arm a detector timer,
//! tear a node down, reconcile buffered completions — and the cluster carries
//! it out.

use crate::attempt::ExecPlan;
use crate::config::{ClusterConfig, FaultEvent, FaultKind};
use crate::job::AttemptId;
use mrp_dfs::NodeId;
use mrp_sim::{SimDuration, SimRng, SimTime};

/// Master-side view of the link to one node.
#[derive(Clone, Copy, Debug, PartialEq)]
enum LinkState {
    /// Heartbeats flowing normally.
    Up,
    /// The node is dead but the master has not noticed yet: no heartbeats
    /// arrive and no node-side events fire. `since` is when the fault struck.
    Silent { since: SimTime },
    /// The node is alive but cut off from the master: it keeps executing,
    /// yet the master hears nothing from it. `since` is when the partition
    /// struck.
    Partitioned { since: SimTime },
}

/// A missed-heartbeat timer the cluster must arm: a detector event for the
/// node at `at`, carrying the suspicion `epoch` it was armed in.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Timer {
    pub(crate) at: SimTime,
    pub(crate) epoch: u64,
}

/// What the cluster must do after a node is struck dead.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Strike {
    /// The node was already dead or dark: the strike is absorbed.
    Absorbed,
    /// No detector: the master sees the death at once; tear the node down.
    Fail,
    /// The node went dark: arm the timer, the teardown waits for it.
    Silence(Timer),
    /// A partitioned node died behind its partition. The master cannot tell
    /// the difference: the silence continues, dated from the partition, and
    /// the timer armed then (if any) still counts. If the master had already
    /// torn the node down, its node-side remnants die quietly.
    BehindPartition,
}

/// What a fired detector timer confirmed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Verdict {
    /// A dead node: tear it down.
    Dead,
    /// A partitioned node: the master writes off its view of the node, which
    /// itself keeps running toward the heal.
    Partitioned,
}

/// The failure domain's state (see the module docs).
#[derive(Debug)]
pub(crate) struct FailureDomain {
    /// Resolved fault schedule (scripted events plus pre-drawn random churn),
    /// referenced by fault-event indexes.
    events: Vec<FaultEvent>,
    /// Number of leading `events` that came from the user's script (the rest
    /// are generated churn).
    scripted: usize,
    /// Missed-heartbeat timeout; `None` while the detector is off.
    timeout: Option<SimDuration>,
    /// Master-side link state per node; all `Up` while neither the detector
    /// nor partitions are in use.
    link: Vec<LinkState>,
    /// Per-node suspicion epoch: detector timers carry the epoch they were
    /// armed in and are discarded if the link state changed since.
    suspect_epoch: Vec<u64>,
    /// When each node's last heartbeat reached the master (`SimTime::ZERO`
    /// before the first); anchors the missed-heartbeat timeout so detection
    /// lag is bounded by the timeout plus one heartbeat interval.
    last_heartbeat: Vec<SimTime>,
    /// Completions finished on a node behind a partition, buffered until the
    /// heal reconciles them first-commit-wins. They die with the node.
    partition_buffer: Vec<Vec<AttemptId>>,
    /// Per-node gray-failure multipliers `(slow_disk, slow_net)`; `(1.0,
    /// 1.0)` while healthy. Applied to new launches only: a degraded node
    /// stretches the plans of work placed on it, it does not rewrite history.
    gray: Vec<(f64, f64)>,
    /// Nodes whose current outage was caused by a *churn* kill. A churn
    /// rejoin only revives these: an absorbed churn strike on a node that a
    /// scripted kill, rack outage or decommission took down must not let its
    /// paired recovery cut the scripted outage short. Scripted rejoins (an
    /// operator action) revive anything.
    churn_down: Vec<bool>,
}

impl FailureDomain {
    /// Resolves the configured fault plan over the cluster's racks (member
    /// node ids per rack, in rack order): scripted events first, then
    /// per-rack random churn drawn from a dedicated seed (one derived stream
    /// per rack, so adding a rack never perturbs another rack's failure
    /// times).
    pub(crate) fn new<'a>(
        config: &ClusterConfig,
        racks: impl Iterator<Item = &'a [NodeId]>,
    ) -> Self {
        let node_count = config.nodes.len();
        let mut events = config.faults.events.clone();
        // Events below this index are the user's scripted ones; everything
        // appended by the random generator is churn. The distinction matters
        // at fire time: a churn rejoin must never resurrect a node an
        // operator decommissioned.
        let scripted = events.len();
        if let Some(rf) = config.faults.random {
            let frng = SimRng::new(rf.seed);
            for (rack, members) in racks.enumerate() {
                if members.is_empty() {
                    continue;
                }
                let mut rrng = frng.derive(rack as u64);
                let mut clock = 0.0f64;
                // Scheduled recovery time per member: a strike on a node
                // still down from an earlier strike is absorbed (no Kill, and
                // crucially no orphaned Rejoin that would cut the first
                // outage short).
                let mut down_until = vec![f64::NEG_INFINITY; members.len()];
                loop {
                    clock += rrng.exponential(rf.rack_mtbf_secs);
                    let at = SimTime::from_secs_f64(clock);
                    if at > rf.horizon {
                        break;
                    }
                    let member = rrng.index(members.len());
                    if clock < down_until[member] {
                        continue;
                    }
                    // A strike is a kill plus, when recovery is configured,
                    // its paired rejoin.
                    let node = members[member];
                    events.push(FaultEvent {
                        at,
                        kind: FaultKind::Kill { node },
                    });
                    down_until[member] = match rf.mean_recovery_secs {
                        Some(recovery) => {
                            let downtime = rrng.exponential(recovery).max(1.0);
                            events.push(FaultEvent {
                                at: at + SimDuration::from_secs_f64(downtime),
                                kind: FaultKind::Rejoin { node },
                            });
                            clock + downtime
                        }
                        None => f64::INFINITY,
                    };
                }
            }
        }
        FailureDomain {
            events,
            scripted,
            timeout: config
                .detector
                .enabled
                .then(|| config.detector.timeout(config.heartbeat_interval)),
            link: vec![LinkState::Up; node_count],
            suspect_epoch: vec![0; node_count],
            last_heartbeat: vec![SimTime::ZERO; node_count],
            partition_buffer: vec![Vec::new(); node_count],
            gray: vec![(1.0, 1.0); node_count],
            churn_down: vec![false; node_count],
        }
    }

    /// The resolved schedule as `(index, at)` pairs, in index order.
    pub(crate) fn schedule(&self) -> impl Iterator<Item = (usize, SimTime)> + '_ {
        self.events.iter().map(|ev| ev.at).enumerate()
    }

    /// The fault at `index` and whether it came from the user's script.
    pub(crate) fn fault(&self, index: usize) -> (FaultKind, bool) {
        (self.events[index].kind, index < self.scripted)
    }

    /// Whether the master's link to `node` is up (launches need it).
    #[inline]
    pub(crate) fn is_up(&self, node: NodeId) -> bool {
        self.link.get(node.0 as usize) == Some(&LinkState::Up)
    }

    /// Whether the node is dead-but-undetected: its node-side events are
    /// discarded until the detector confirms the death.
    #[inline]
    pub(crate) fn is_silent(&self, node: NodeId) -> bool {
        matches!(
            self.link.get(node.0 as usize),
            Some(LinkState::Silent { .. })
        )
    }

    /// A live node heartbeats at `now`. Returns whether the heartbeat reaches
    /// the master: a silent or partitioned node's never do, and the detector
    /// timer (if armed) counts down against the last one that did.
    #[inline]
    pub(crate) fn heartbeat(&mut self, node: NodeId, now: SimTime) -> bool {
        let idx = node.0 as usize;
        if self.link[idx] != LinkState::Up {
            return false;
        }
        self.last_heartbeat[idx] = now;
        true
    }

    /// An attempt finished on `node`. Behind a partition the master cannot
    /// see it: the completion is buffered for the heal and `true` returned.
    pub(crate) fn buffer_completion(&mut self, node: NodeId, attempt: AttemptId) -> bool {
        let idx = node.0 as usize;
        if !matches!(self.link.get(idx), Some(LinkState::Partitioned { .. })) {
            return false;
        }
        self.partition_buffer[idx].push(attempt);
        true
    }

    /// The node's processes died: the completions it buffered behind a
    /// partition died with them and must never reach a heal.
    pub(crate) fn node_died(&mut self, node: NodeId) {
        if let Some(buffer) = self.partition_buffer.get_mut(node.0 as usize) {
            buffer.clear();
        }
    }

    /// The missed-heartbeat timer for a newly dark node, anchored on the last
    /// heartbeat the master actually received — which is what bounds
    /// detection lag by `timeout + one heartbeat interval`.
    fn timer(&self, idx: usize, now: SimTime, timeout: SimDuration) -> Timer {
        Timer {
            at: (self.last_heartbeat[idx] + timeout).max(now),
            epoch: self.suspect_epoch[idx],
        }
    }

    /// A node is struck dead (a kill, or a rack outage member); `alive` is
    /// whether its tracker was still in service. With the detector on, the
    /// kill only silences the node: the master keeps scheduling around its
    /// stale view until the missed-heartbeat timeout confirms the death.
    pub(crate) fn strike(&mut self, node: NodeId, now: SimTime, alive: bool) -> Strike {
        if !alive {
            return Strike::Absorbed; // duplicate fault on an already-dead node
        }
        let Some(timeout) = self.timeout else {
            return Strike::Fail;
        };
        let idx = node.0 as usize;
        match self.link[idx] {
            LinkState::Silent { .. } => Strike::Absorbed,
            LinkState::Up => {
                self.link[idx] = LinkState::Silent { since: now };
                self.suspect_epoch[idx] += 1;
                Strike::Silence(self.timer(idx, now, timeout))
            }
            LinkState::Partitioned { since } => {
                self.link[idx] = LinkState::Silent { since };
                Strike::BehindPartition
            }
        }
    }

    /// Records who owns the node's current outage: churn (`true`), whose
    /// paired rejoin may end it, or the script.
    pub(crate) fn own_outage(&mut self, node: NodeId, churn: bool) {
        self.churn_down[node.0 as usize] = churn;
    }

    /// Cuts a node off from the master. `None` if it was dead (`alive` is
    /// false), dark or already partitioned; otherwise the timer to arm, if
    /// the detector is on.
    pub(crate) fn partition(
        &mut self,
        node: NodeId,
        now: SimTime,
        alive: bool,
    ) -> Option<Option<Timer>> {
        let idx = node.0 as usize;
        if !alive || self.link[idx] != LinkState::Up {
            return None;
        }
        self.link[idx] = LinkState::Partitioned { since: now };
        self.suspect_epoch[idx] += 1;
        Some(self.timeout.map(|timeout| self.timer(idx, now, timeout)))
    }

    /// A detector timer armed in `epoch` fires. `None` if it went stale (the
    /// link state changed since it was armed); otherwise the verdict and the
    /// detection lag in seconds. A dead node's link is reset for its
    /// teardown; a partitioned one stays partitioned — it is alive out there.
    pub(crate) fn suspect(
        &mut self,
        node: NodeId,
        epoch: u64,
        now: SimTime,
    ) -> Option<(Verdict, f64)> {
        let idx = node.0 as usize;
        if self.suspect_epoch.get(idx) != Some(&epoch) {
            return None;
        }
        let (verdict, since) = match self.link[idx] {
            LinkState::Up => return None,
            LinkState::Silent { since } => {
                self.link[idx] = LinkState::Up;
                self.suspect_epoch[idx] += 1;
                (Verdict::Dead, since)
            }
            LinkState::Partitioned { since } => (Verdict::Partitioned, since),
        };
        Some((verdict, (now - since).as_secs_f64()))
    }

    /// Reconnects a partitioned node, returning the completions it buffered
    /// behind the partition in completion order. `None` if it was never
    /// partitioned — or died behind the partition (now silent): the pending
    /// timer or its rejoin resolves that death, not the heal.
    pub(crate) fn heal(&mut self, node: NodeId, now: SimTime) -> Option<Vec<AttemptId>> {
        let idx = node.0 as usize;
        let Some(LinkState::Partitioned { .. }) = self.link.get(idx) else {
            return None;
        };
        self.link[idx] = LinkState::Up;
        self.suspect_epoch[idx] += 1;
        self.last_heartbeat[idx] = now;
        Some(std::mem::take(&mut self.partition_buffer[idx]))
    }

    /// A node rejoins. If it was still silent — dead but never confirmed —
    /// the reconnect itself reveals the outage: the link resets and the
    /// detection lag in seconds is returned.
    pub(crate) fn reconnect(&mut self, node: NodeId, now: SimTime) -> Option<f64> {
        let idx = node.0 as usize;
        let Some(&LinkState::Silent { since }) = self.link.get(idx) else {
            return None;
        };
        self.link[idx] = LinkState::Up;
        self.suspect_epoch[idx] += 1;
        Some((now - since).as_secs_f64())
    }

    /// Whether a rejoin may revive `node`: a scripted one (an operator
    /// action) always, a churn one only if churn caused the outage.
    pub(crate) fn may_rejoin(&self, node: NodeId, scripted: bool) -> bool {
        scripted
            || self
                .churn_down
                .get(node.0 as usize)
                .copied()
                .unwrap_or(false)
    }

    /// The node is back in service at `now`.
    pub(crate) fn revived(&mut self, node: NodeId, now: SimTime) {
        let idx = node.0 as usize;
        self.churn_down[idx] = false;
        self.last_heartbeat[idx] = now;
    }

    /// Slows a live node down; multipliers below 1 count as 1.
    pub(crate) fn degrade(&mut self, node: NodeId, slow_disk: f64, slow_net: f64) {
        self.gray[node.0 as usize] = (slow_disk.max(1.0), slow_net.max(1.0));
    }

    /// Restores a gray-failed node to full speed; `false` if it was healthy.
    pub(crate) fn heal_degradation(&mut self, node: NodeId) -> bool {
        match self.gray.get_mut(node.0 as usize) {
            Some(gray) if *gray != (1.0, 1.0) => {
                *gray = (1.0, 1.0);
                true
            }
            _ => false,
        }
    }

    /// Stretches a freshly built [`ExecPlan`] by the node's gray-failure
    /// multipliers: a slow disk stretches the I/O-bound segments (work,
    /// finalize), a slow NIC stretches the shuffle copy. Healthy nodes pass
    /// through untouched — the `!= 1.0` guards also keep the default path
    /// byte-identical (an f64 round-trip of the micros is never taken).
    pub(crate) fn stretch(&self, mut plan: ExecPlan, node: NodeId) -> ExecPlan {
        let slow_disk = self.gray[node.0 as usize].0;
        if slow_disk != 1.0 {
            plan.work = plan.work.mul_f64(slow_disk);
            plan.finalize = plan.finalize.mul_f64(slow_disk);
        }
        plan.shuffle = self.stretch_net(plan.shuffle, node);
        plan
    }

    /// Stretches a network-bound duration on `node` (a shuffle copy, a
    /// re-fetch backoff) by its slow-network multiplier.
    pub(crate) fn stretch_net(&self, wait: SimDuration, node: NodeId) -> SimDuration {
        match self.gray[node.0 as usize].1 {
            slow_net if slow_net != 1.0 => wait.mul_f64(slow_net),
            _ => wait,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DetectorConfig, RandomFaults, ReliabilityConfig, ShuffleConfig};
    use crate::job::{JobId, JobSpec, TaskId, TaskKind};
    use crate::metrics::Record;
    use crate::scheduler::FifoScheduler;
    use crate::Cluster;
    use mrp_dfs::RackId;
    use mrp_sim::MIB;

    fn domain(detector: bool) -> FailureDomain {
        let mut cfg = ClusterConfig::racked_cluster(2, 2, 1, 1);
        if detector {
            cfg.detector = DetectorConfig::enabled();
        }
        FailureDomain::new(&cfg, std::iter::empty())
    }

    fn attempt(index: u32) -> AttemptId {
        let task = TaskId {
            job: JobId(1),
            kind: TaskKind::Map,
            index,
        };
        AttemptId { task, number: 0 }
    }

    const NODE: NodeId = NodeId(3);

    #[test]
    fn timers_go_stale_when_the_link_state_changes() {
        let mut d = domain(true);
        let t = |s| SimTime::from_secs(s);
        assert!(d.heartbeat(NODE, t(3)));
        // The timer is anchored on the last heartbeat, not on the cut.
        let Some(Some(cut)) = d.partition(NODE, t(4), true) else {
            panic!("an up node can be cut off");
        };
        assert_eq!(cut.at, t(3) + SimDuration::from_secs(9));
        assert!(
            !d.heartbeat(NODE, t(6)),
            "a partitioned node's beats are lost"
        );
        assert_eq!(d.heal(NODE, t(7)), Some(Vec::new()));
        assert_eq!(d.suspect(NODE, cut.epoch, t(12)), None, "healed since");
        let Strike::Silence(dark) = d.strike(NODE, t(12), true) else {
            panic!("an up node goes dark under the detector");
        };
        assert_eq!(dark.at, t(16), "the heal counts as a heartbeat");
        assert_eq!(d.suspect(NODE, cut.epoch, t(16)), None, "stale epoch");
        assert_eq!(
            d.suspect(NODE, dark.epoch, t(16)),
            Some((Verdict::Dead, 4.0))
        );
        assert!(d.is_up(NODE), "the teardown starts from a reset link");
        assert_eq!(d.suspect(NODE, dark.epoch, t(17)), None, "fires once");
        assert_eq!(
            d.strike(NODE, t(18), false),
            Strike::Absorbed,
            "already dead"
        );
    }

    #[test]
    fn a_partitioned_node_that_dies_stays_silent_from_the_partition_on() {
        let mut d = domain(true);
        let t = |s| SimTime::from_secs(s);
        let Some(Some(cut)) = d.partition(NODE, t(10), true) else {
            panic!("an up node can be cut off");
        };
        assert!(d.buffer_completion(NODE, attempt(0)));
        assert_eq!(d.strike(NODE, t(12), true), Strike::BehindPartition);
        assert!(d.is_silent(NODE) && !d.is_up(NODE));
        assert!(
            !d.buffer_completion(NODE, attempt(1)),
            "a dark node completes nothing"
        );
        assert_eq!(
            d.strike(NODE, t(13), true),
            Strike::Absorbed,
            "already dark"
        );
        assert_eq!(d.heal(NODE, t(14)), None, "the heal cannot revive the dead");
        // The timer armed at the cut still counts, and the lag dates from it.
        let lag = (cut.at - t(10)).as_secs_f64();
        assert_eq!(
            d.suspect(NODE, cut.epoch, cut.at),
            Some((Verdict::Dead, lag))
        );
    }

    #[test]
    fn a_heal_of_a_dead_node_drains_nothing() {
        // No detector: a kill of a partitioned node tears it down at once,
        // and the link stays partitioned until the heal.
        let mut d = domain(false);
        let t = |s| SimTime::from_secs(s);
        assert_eq!(d.partition(NODE, t(10), true), Some(None), "no timer");
        assert!(d.buffer_completion(NODE, attempt(0)));
        assert_eq!(d.strike(NODE, t(20), true), Strike::Fail);
        d.node_died(NODE);
        assert_eq!(d.heal(NODE, t(25)), Some(Vec::new()));
        assert!(d.is_up(NODE));
        assert_eq!(d.heal(NODE, t(26)), None, "healed once");
    }

    #[test]
    fn a_partition_victim_that_dies_before_the_heal_does_not_hang_its_job() {
        // Detector off: the kill tears the partitioned node down while its
        // buffered completions belong to attempts that died with it. The
        // heal must not reconcile them — committing one would kill the
        // task's live re-execution and leave the task Running forever.
        let mut cfg = ClusterConfig::racked_cluster(2, 2, 1, 1);
        for (at, kind) in [
            (10, FaultKind::Partition { node: NODE }),
            (200, FaultKind::Kill { node: NODE }),
            (205, FaultKind::PartitionHeal { node: NODE }),
        ] {
            let at = SimTime::from_secs(at);
            cfg.faults.events.push(FaultEvent { at, kind });
        }
        let mut c = Cluster::new(cfg, Box::new(FifoScheduler::new()));
        c.submit_job(JobSpec::synthetic("cut-then-killed", 12, 128 * MIB));
        c.run(SimTime::from_secs(36_000));
        let report = c.report();
        assert!(report.all_jobs_complete(), "{:?}", report.faults);
        assert!(report.makespan_secs().unwrap() < 300.0);
        assert_eq!(report.faults.reconciled_commits, 0);
        assert!(!c
            .trace()
            .iter()
            .any(|r| matches!(r, Record::SiblingKilled(..))));
    }

    #[test]
    fn node_failure_reschedules_tasks_and_the_job_still_completes() {
        let mut cfg = ClusterConfig::small_cluster(2, 1, 1);
        cfg.faults.events.push(FaultEvent {
            at: SimTime::from_secs(30),
            kind: FaultKind::Kill { node: NodeId(1) },
        });
        let mut c = Cluster::new(cfg, Box::new(FifoScheduler::new()));
        c.create_input_file("/in", 512 * MIB).unwrap();
        c.submit_job(JobSpec::map_only("churn", "/in"));
        c.run(SimTime::from_secs(3_600));
        let report = c.report();
        assert!(report.all_jobs_complete(), "survivor node finishes the job");
        assert_eq!(report.faults.node_failures, 1);
        assert!(
            report.faults.attempts_lost >= 1,
            "node 1 was running a task at t=30: {:?}",
            report.faults
        );
        assert!(report.faults.attempts_lost >= report.faults.re_executed_tasks);
        assert!(!c.node_is_alive(NodeId(1)));
        assert!(!c.namenode().is_live(NodeId(1)));
        // The re-executed task needed a second attempt.
        let max_attempts = report.jobs[0]
            .tasks
            .iter()
            .map(|t| t.attempts)
            .max()
            .unwrap();
        assert!(max_attempts >= 2);
        assert!(c
            .trace()
            .iter()
            .any(|r| matches!(r, Record::NodeFailed(..))));
    }

    #[test]
    fn failed_node_rejoins_and_takes_work_again() {
        let mut cfg = ClusterConfig::small_cluster(2, 1, 1);
        cfg.faults.events.push(FaultEvent {
            at: SimTime::from_secs(10),
            kind: FaultKind::Kill { node: NodeId(1) },
        });
        cfg.faults.events.push(FaultEvent {
            at: SimTime::from_secs(40),
            kind: FaultKind::Rejoin { node: NodeId(1) },
        });
        let mut c = Cluster::new(cfg, Box::new(FifoScheduler::new()));
        c.create_input_file("/in", 512 * MIB).unwrap();
        c.submit_job(JobSpec::map_only("rejoin", "/in"));
        c.run(SimTime::from_secs(3_600));
        let report = c.report();
        assert!(report.all_jobs_complete());
        assert_eq!(report.faults.node_failures, 1);
        assert_eq!(report.faults.node_rejoins, 1);
        assert!(c.node_is_alive(NodeId(1)));
        assert!(c.namenode().is_live(NodeId(1)));
        // Both nodes active again at the end: total free map slots add up.
        let total_free: u32 = c.rack_slots().iter().map(|r| r.free_map).sum();
        assert_eq!(total_free, 2);
    }

    #[test]
    fn decommission_drains_replicas_and_counts_separately() {
        let mut cfg = ClusterConfig::small_cluster(4, 1, 1);
        cfg.faults.events.push(FaultEvent {
            at: SimTime::from_secs(5),
            kind: FaultKind::Decommission { node: NodeId(0) },
        });
        let mut c = Cluster::new(cfg, Box::new(FifoScheduler::new()));
        // Written from node 0, replication 3: node 0 holds a replica of
        // every block, so decommissioning it forces re-replication.
        c.create_input_file("/in", 512 * MIB).unwrap();
        c.submit_job(JobSpec::map_only("drain", "/in"));
        c.run(SimTime::from_secs(3_600));
        let report = c.report();
        assert!(report.all_jobs_complete());
        assert_eq!(report.faults.node_decommissions, 1);
        assert_eq!(report.faults.node_failures, 0);
        assert!(
            report.faults.re_replicated_blocks >= 1,
            "node 0 held first replicas: {:?}",
            report.faults
        );
        assert_eq!(
            report.faults.lost_blocks, 0,
            "decommission never loses blocks"
        );
    }

    #[test]
    fn rack_outage_fails_every_member_and_rack_rejoin_restores_them() {
        let mut cfg = ClusterConfig::racked_cluster(2, 2, 1, 1);
        cfg.faults.events.push(FaultEvent {
            at: SimTime::from_secs(20),
            kind: FaultKind::RackOutage { rack: RackId(1) },
        });
        cfg.faults.events.push(FaultEvent {
            at: SimTime::from_secs(50),
            kind: FaultKind::RackRejoin { rack: RackId(1) },
        });
        let mut c = Cluster::new(cfg, Box::new(FifoScheduler::new()));
        c.submit_job(JobSpec::synthetic("outage", 8, 128 * MIB));
        c.run(SimTime::from_secs(3_600));
        let report = c.report();
        assert!(report.all_jobs_complete());
        assert_eq!(report.faults.node_failures, 2, "both rack members fail");
        assert_eq!(report.faults.node_rejoins, 2);
        assert!(c.node_is_alive(NodeId(2)) && c.node_is_alive(NodeId(3)));
    }

    #[test]
    fn lost_map_outputs_stall_reduces_and_reexecute_maps() {
        // Fault-tolerant shuffle on: killing a node after its map committed
        // destroys the node-local output; the affected map re-executes, the
        // reduces stall in Shuffle with backoff instead of failing, and the
        // job still completes.
        let mut cfg = ClusterConfig::racked_cluster(2, 2, 1, 1);
        cfg.shuffle = ShuffleConfig::fault_tolerant();
        cfg.faults.events.push(FaultEvent {
            at: SimTime::from_secs(30),
            kind: FaultKind::Kill { node: NodeId(3) },
        });
        let mut c = Cluster::new(cfg, Box::new(FifoScheduler::new()));
        c.submit_job(JobSpec::synthetic("mr", 4, 128 * MIB).with_reduces(2));
        c.run(SimTime::from_secs(3_600));
        let report = c.report();
        assert!(report.all_jobs_complete(), "{:?}", report.faults);
        assert!(
            report.faults.lost_map_outputs >= 1,
            "node 3 held a committed map output at t=30: {:?}",
            report.faults
        );
        assert!(
            report.faults.shuffle_refetches >= 1,
            "reduces must have waited on missing outputs: {:?}",
            report.faults
        );
        assert!(report.faults.re_executed_tasks >= report.faults.lost_map_outputs);
        assert!(c
            .trace()
            .iter()
            .any(|r| matches!(r, Record::MapOutputLost(..))));
        // The registry retires with the job.
        assert!(!c.shuffle_tracker().tracked(JobId(1)));
    }

    #[test]
    fn decommission_drains_map_outputs_without_reexecution() {
        // A graceful decommission migrates the leaving node's map outputs to
        // a live node — no map output is lost and no completed map restarts,
        // mirroring the NameNode's graceful block drain.
        let mut cfg = ClusterConfig::racked_cluster(2, 2, 1, 1);
        cfg.shuffle = ShuffleConfig::fault_tolerant();
        cfg.faults.events.push(FaultEvent {
            at: SimTime::from_secs(30),
            kind: FaultKind::Decommission { node: NodeId(3) },
        });
        let mut c = Cluster::new(cfg, Box::new(FifoScheduler::new()));
        c.submit_job(JobSpec::synthetic("drain", 4, 128 * MIB).with_reduces(2));
        c.run(SimTime::from_secs(3_600));
        let report = c.report();
        assert!(report.all_jobs_complete());
        assert_eq!(report.faults.lost_map_outputs, 0);
        assert!(
            report.faults.map_outputs_migrated >= 1,
            "node 3 held a committed map output at t=30: {:?}",
            report.faults
        );
        // Every map committed exactly once: the drain made re-execution
        // unnecessary.
        for task in report.jobs[0]
            .tasks
            .iter()
            .filter(|t| t.id.kind == TaskKind::Map)
        {
            assert_eq!(task.attempts, 1, "map {:?} restarted", task.id);
        }
    }

    #[test]
    fn crashes_feed_the_reliability_predictor_but_decommissions_do_not() {
        let run = |kind: FaultKind| {
            let mut cfg = ClusterConfig::racked_cluster(2, 2, 1, 1);
            cfg.reliability = ReliabilityConfig::predictive();
            cfg.faults.events.push(FaultEvent {
                at: SimTime::from_secs(10),
                kind,
            });
            let mut c = Cluster::new(cfg, Box::new(FifoScheduler::new()));
            c.submit_job(JobSpec::synthetic("r", 8, 128 * MIB));
            c.run(SimTime::from_secs(60));
            c
        };
        let crashed = run(FaultKind::Kill { node: NodeId(1) });
        assert!(crashed
            .reliability_tracker()
            .flaky(NodeId(1), RackId(0), SimTime::from_secs(11)));
        let drained = run(FaultKind::Decommission { node: NodeId(1) });
        assert_eq!(
            drained
                .reliability_tracker()
                .score(NodeId(1), RackId(0), SimTime::from_secs(11)),
            0.0,
            "an operator action is not evidence of flakiness"
        );
    }

    #[test]
    fn detector_defers_kill_until_missed_heartbeat_timeout() {
        // Detector on, node 1 killed at t=30. Heartbeats come every 3s and
        // suspicion needs 3 missed ones, so the master keeps believing in
        // the dead node — slots occupied, no teardown — until the timeout
        // anchored on the last delivered heartbeat expires.
        let mut cfg = ClusterConfig::small_cluster(2, 1, 1);
        cfg.detector = DetectorConfig::enabled();
        cfg.faults.events.push(FaultEvent {
            at: SimTime::from_secs(30),
            kind: FaultKind::Kill { node: NodeId(1) },
        });
        let timeout = cfg.detector.timeout(cfg.heartbeat_interval);
        let interval = cfg.heartbeat_interval;
        let mut c = Cluster::new(cfg, Box::new(FifoScheduler::new()));
        c.create_input_file("/in", 512 * MIB).unwrap();
        c.submit_job(JobSpec::map_only("late-news", "/in"));
        c.run(SimTime::from_secs(3_600));
        let report = c.report();
        assert!(report.all_jobs_complete(), "{:?}", report.faults);
        assert_eq!(report.faults.nodes_suspected, 1);
        assert_eq!(report.faults.failures_detected, 1);
        assert_eq!(report.faults.node_failures, 1);
        let suspected_at = c
            .trace()
            .iter()
            .find_map(|r| match *r {
                Record::NodeSuspected(at, _) => Some(at),
                _ => None,
            })
            .expect("suspicion trace");
        let failed_at = c
            .trace()
            .iter()
            .find_map(|r| match *r {
                Record::NodeFailed(at, ..) => Some(at),
                _ => None,
            })
            .expect("teardown trace");
        // Zero confirmation grace: suspicion is confirmation.
        assert_eq!(suspected_at, failed_at);
        let killed_at = SimTime::from_secs(30);
        assert!(
            failed_at > killed_at,
            "the kill must be observed strictly after it struck"
        );
        assert!(
            failed_at <= killed_at + timeout,
            "detection lag is bounded by the timeout: failed at {failed_at:?}"
        );
        // The last heartbeat landed at most one interval before the kill.
        assert!(failed_at >= killed_at + timeout.saturating_sub(interval));
        let lag = report.faults.detection_lag_secs_max;
        assert!(
            (lag - (failed_at - killed_at).as_secs_f64()).abs() < 1e-9,
            "lag accounting matches the trace: {lag}"
        );
        assert!(report.faults.detection_lag_secs_sum >= lag);
    }

    #[test]
    fn healed_partition_recontributes_work_without_duplicate_commits() {
        // Node 3 is cut off at t=30 with the detector on: the master tears
        // it down after the timeout and re-runs its work, while the node
        // keeps executing behind the partition. The heal at t=60 drains its
        // buffered completions through first-commit-wins reconciliation.
        let mut cfg = ClusterConfig::racked_cluster(2, 2, 1, 1);
        cfg.detector = DetectorConfig::enabled();
        cfg.shuffle = ShuffleConfig::fault_tolerant();
        cfg.faults.events.push(FaultEvent {
            at: SimTime::from_secs(30),
            kind: FaultKind::Partition { node: NodeId(3) },
        });
        cfg.faults.events.push(FaultEvent {
            at: SimTime::from_secs(60),
            kind: FaultKind::PartitionHeal { node: NodeId(3) },
        });
        let mut c = Cluster::new(cfg, Box::new(FifoScheduler::new()));
        c.submit_job(JobSpec::synthetic("split-brain", 12, 128 * MIB));
        c.run(SimTime::from_secs(3_600));
        let report = c.report();
        assert!(report.all_jobs_complete(), "{:?}", report.faults);
        assert_eq!(report.faults.partitions, 1);
        assert_eq!(report.faults.partition_heals, 1);
        // A partition teardown is not a crash.
        assert_eq!(report.faults.node_failures, 0);
        assert_eq!(report.faults.nodes_suspected, 1);
        assert_eq!(report.faults.failures_detected, 1);
        // The node was mid-task when cut off, so the heal reconciles at
        // least one completion (commit or discard) — and never commits any
        // task twice.
        assert!(
            report.faults.reconciled_commits + report.faults.reconciled_discards >= 1,
            "{:?}",
            report.faults
        );
        assert_eq!(report.faults.duplicate_commits, 0);
        assert!(c.node_is_alive(NodeId(3)));
        for task in &report.jobs[0].tasks {
            assert!((task.progress - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn partition_healed_before_timeout_never_penalizes_the_node() {
        // The heal lands before the suspicion timer fires: the master never
        // learns anything was wrong, so no teardown, no detection, and —
        // the satellite pin — no reliability-score penalty.
        let mut cfg = ClusterConfig::racked_cluster(2, 2, 1, 1);
        cfg.detector = DetectorConfig::enabled();
        cfg.reliability = ReliabilityConfig::predictive();
        cfg.faults.events.push(FaultEvent {
            at: SimTime::from_secs(10),
            kind: FaultKind::Partition { node: NodeId(1) },
        });
        cfg.faults.events.push(FaultEvent {
            at: SimTime::from_secs(12),
            kind: FaultKind::PartitionHeal { node: NodeId(1) },
        });
        let mut c = Cluster::new(cfg, Box::new(FifoScheduler::new()));
        c.submit_job(JobSpec::synthetic("blip", 8, 128 * MIB));
        c.run(SimTime::from_secs(3_600));
        let report = c.report();
        assert!(report.all_jobs_complete(), "{:?}", report.faults);
        assert_eq!(report.faults.partitions, 1);
        assert_eq!(report.faults.partition_heals, 1);
        assert_eq!(report.faults.nodes_suspected, 0, "timer went stale");
        assert_eq!(report.faults.failures_detected, 0);
        assert_eq!(report.faults.node_failures, 0);
        assert_eq!(report.faults.duplicate_commits, 0);
        assert_eq!(
            c.reliability_tracker()
                .score(NodeId(1), RackId(0), SimTime::from_secs(13)),
            0.0,
            "a heal before the timeout leaves the failure score untouched"
        );
    }

    #[test]
    fn gray_failure_stretches_new_launches_and_heals() {
        // A slow disk triples the I/O-bound segments of everything node 1
        // launches while degraded — no crash, no teardown, just a straggler.
        let run = |gray: bool| {
            let mut cfg = ClusterConfig::small_cluster(2, 1, 1);
            cfg.reliability = ReliabilityConfig::predictive();
            if gray {
                cfg.faults.events.push(FaultEvent {
                    at: SimTime::from_secs(5),
                    kind: FaultKind::Gray {
                        node: NodeId(1),
                        slow_disk: 3.0,
                        slow_net: 1.0,
                    },
                });
            }
            let mut c = Cluster::new(cfg, Box::new(FifoScheduler::new()));
            c.submit_job(JobSpec::synthetic("sick-disk", 8, 128 * MIB));
            c.run(SimTime::from_secs(24 * 3_600));
            c
        };
        let healthy = run(false).report();
        let gray = run(true);
        let report = gray.report();
        assert!(report.all_jobs_complete());
        assert_eq!(report.faults.gray_failures, 1);
        assert_eq!(report.faults.node_failures, 0);
        assert!(
            report.makespan_secs().unwrap() > healthy.makespan_secs().unwrap(),
            "a degraded node must slow the job down: {} vs {}",
            report.makespan_secs().unwrap(),
            healthy.makespan_secs().unwrap()
        );
        assert!(
            gray.reliability_tracker()
                .score(NodeId(1), RackId(0), SimTime::from_secs(6))
                > 0.0,
            "gray failures feed the placement predictor"
        );
        // A heal restores full speed for later launches.
        let mut cfg = ClusterConfig::small_cluster(2, 1, 1);
        cfg.faults.events.push(FaultEvent {
            at: SimTime::from_secs(5),
            kind: FaultKind::Gray {
                node: NodeId(1),
                slow_disk: 3.0,
                slow_net: 2.0,
            },
        });
        cfg.faults.events.push(FaultEvent {
            at: SimTime::from_secs(6),
            kind: FaultKind::GrayHeal { node: NodeId(1) },
        });
        let mut c = Cluster::new(cfg, Box::new(FifoScheduler::new()));
        c.submit_job(JobSpec::synthetic("recovered", 8, 128 * MIB));
        c.run(SimTime::from_secs(24 * 3_600));
        let healed = c.report();
        assert!(healed.all_jobs_complete());
        assert_eq!(healed.faults.gray_heals, 1);
    }

    #[test]
    fn random_mtbf_churn_is_deterministic_and_survivable() {
        let run = || {
            let mut cfg = ClusterConfig::racked_cluster(2, 3, 1, 1);
            cfg.faults.random = Some(RandomFaults {
                rack_mtbf_secs: 25.0,
                mean_recovery_secs: Some(20.0),
                horizon: SimTime::from_secs(600),
                seed: 0xFA11,
            });
            let mut c = Cluster::new(cfg, Box::new(FifoScheduler::new()));
            c.submit_job(JobSpec::synthetic("churny", 24, 128 * MIB));
            c.run(SimTime::from_secs(24 * 3_600));
            (c.events_processed(), c.report())
        };
        let (events_a, report_a) = run();
        let (events_b, report_b) = run();
        assert!(report_a.all_jobs_complete());
        assert!(
            report_a.faults.node_failures >= 2,
            "a 60s-per-rack MTBF over a multi-minute run must strike: {:?}",
            report_a.faults
        );
        assert_eq!(events_a, events_b);
        assert_eq!(
            report_a, report_b,
            "fault injection must stay deterministic"
        );
    }
}
