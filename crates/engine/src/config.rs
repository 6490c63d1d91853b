//! Cluster configuration.
//!
//! Defaults are calibrated to the paper's testbed (Section IV-A): a node with
//! 4 GB of RAM running synthetic map-only jobs over single-block 512 MB HDFS
//! files, with a 3-second heartbeat and `swappiness = 0`. The task execution
//! model behind the paper's ≈80 s tasks is fixed: see
//! [`ExecPlan`](crate::ExecPlan).

use mrp_dfs::{NodeId, RackId};
use mrp_sim::{SimDuration, SimTime, MIB};
use mrp_simos::NodeOsConfig;
use serde::{Deserialize, Serialize};

/// Configuration of a single cluster node.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct NodeConfig {
    /// Operating-system model for the node (RAM, swap, disk).
    pub os: NodeOsConfig,
    /// Number of concurrent map tasks allowed
    /// (`mapred.tasktracker.map.tasks.maximum`).
    pub map_slots: u32,
    /// Number of concurrent reduce tasks allowed.
    pub(crate) reduce_slots: u32,
}

impl NodeConfig {
    /// The paper's evaluation node: default OS model (4 GB RAM, swappiness 0)
    /// with a single map slot and a single reduce slot, so that the two jobs
    /// of the scenario contend for the same slot.
    pub(crate) fn paper_node() -> Self {
        NodeConfig {
            os: NodeOsConfig::default(),
            map_slots: 1,
            reduce_slots: 1,
        }
    }
}

/// How much schedule tracing the cluster records.
///
/// The trace is the cluster's [`Record`](crate::Record) stream kept in
/// memory: one small, string-free value per lifecycle fact, rendered only
/// when printed. The trace still grows with the run, so throughput-sensitive
/// runs — the `sim_throughput` bench, large-scale sweeps — switch it off and
/// keep nothing; the paper-scale presets keep it on because the examples
/// print Figure-1-style schedules from the trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum TraceLevel {
    /// Record nothing; `Cluster::trace()` stays empty.
    Off,
    /// Record every schedule event (launch, suspend, resume, kill, completion).
    #[default]
    Schedule,
}

/// What happens to a node (or a whole rack) at a scripted fault time.
///
/// Beyond the clean crash/decommission/rejoin events, two *ambiguous* fault
/// families model what failure traces show dominates real clusters: network
/// partitions (the node is fine but unreachable — the master can only
/// suspect it, and on heal the node's locally completed work is reconciled
/// first-commit-wins) and gray failures (the node answers heartbeats but its
/// disk or network crawls, so nothing crashes and only stragglers betray it).
///
/// ```
/// use mrp_engine::{ClusterConfig, DetectorConfig, FaultEvent, FaultKind, NodeId};
/// use mrp_sim::SimTime;
///
/// let mut cfg = ClusterConfig::racked_cluster(2, 4, 2, 1);
/// cfg.detector = DetectorConfig::enabled();
/// // Cut node 3 off the network for a minute: it keeps executing, the
/// // detector tears it down after the heartbeat timeout, and the heal
/// // reconciles whatever it finished in the meantime.
/// cfg.faults.events.push(FaultEvent {
///     at: SimTime::from_secs(30),
///     kind: FaultKind::Partition { node: NodeId(3) },
/// });
/// cfg.faults.events.push(FaultEvent {
///     at: SimTime::from_secs(90),
///     kind: FaultKind::PartitionHeal { node: NodeId(3) },
/// });
/// // And give node 5 a sick disk: everything it runs stretches 3x.
/// cfg.faults.events.push(FaultEvent {
///     at: SimTime::from_secs(10),
///     kind: FaultKind::Gray { node: NodeId(5), slow_disk: 3.0, slow_net: 1.5 },
/// });
/// cfg.faults.events.push(FaultEvent {
///     at: SimTime::from_secs(300),
///     kind: FaultKind::GrayHeal { node: NodeId(5) },
/// });
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Abrupt node crash: every running attempt dies, every suspended
    /// attempt's swapped-out state is lost (the paper's key cost under
    /// failure), and the node's block replicas disappear (re-replicated from
    /// survivors where possible).
    Kill {
        /// The node that crashes.
        node: NodeId,
    },
    /// Administrative decommission: same task teardown as a crash, but the
    /// DFS drains the node's replicas gracefully (no block loss).
    Decommission {
        /// The node being decommissioned.
        node: NodeId,
    },
    /// A previously removed node returns to service with empty disks and a
    /// fresh TaskTracker.
    Rejoin {
        /// The node rejoining.
        node: NodeId,
    },
    /// Every node of the rack crashes at once (switch/PDU failure).
    RackOutage {
        /// The rack losing power.
        rack: RackId,
    },
    /// Every node of the rack returns to service.
    RackRejoin {
        /// The rack rejoining.
        rack: RackId,
    },
    /// The node is cut off from the network but keeps executing: its
    /// heartbeats stop, the failure detector (when enabled) suspects and
    /// tears it down after the timeout, and work it completes behind the
    /// partition is buffered for first-commit-wins reconciliation at heal.
    Partition {
        /// The node losing connectivity.
        node: NodeId,
    },
    /// The node's partition heals: it reconnects, and any attempts it
    /// finished while unreachable are committed unless a re-execution beat
    /// them to it (never double-committing a task).
    PartitionHeal {
        /// The node reconnecting.
        node: NodeId,
    },
    /// Every node of the rack is cut off at once (top-of-rack switch loss
    /// without power loss): the rack-scoped [`FaultKind::Partition`].
    RackPartition {
        /// The rack losing connectivity.
        rack: RackId,
    },
    /// Every node of the rack reconnects.
    RackPartitionHeal {
        /// The rack reconnecting.
        rack: RackId,
    },
    /// Gray failure: the node stays up and heartbeating, but its local disk
    /// and/or network degrade. Every attempt *launched* on it while degraded
    /// has its work/finalize phases stretched by `slow_disk` and its shuffle
    /// phase (and re-fetch backoff) by `slow_net` — no crash, only the
    /// straggler-speculation and reliability-predictor paths can react.
    Gray {
        /// The afflicted node.
        node: NodeId,
        /// Multiplier (>= 1) on disk-bound phase durations.
        slow_disk: f64,
        /// Multiplier (>= 1) on network-bound phase durations.
        slow_net: f64,
    },
    /// The node's gray failure clears; attempts launched afterwards run at
    /// full speed (already-running ones keep their stretched plans).
    GrayHeal {
        /// The recovering node.
        node: NodeId,
    },
}

/// What a fault strikes: one node, or every member of a rack.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum FaultTarget {
    Node(NodeId),
    Rack(RackId),
}

impl FaultKind {
    /// The node or rack this fault strikes.
    pub(crate) fn target(self) -> FaultTarget {
        match self {
            FaultKind::Kill { node }
            | FaultKind::Decommission { node }
            | FaultKind::Rejoin { node }
            | FaultKind::Partition { node }
            | FaultKind::PartitionHeal { node }
            | FaultKind::Gray { node, .. }
            | FaultKind::GrayHeal { node } => FaultTarget::Node(node),
            FaultKind::RackOutage { rack }
            | FaultKind::RackRejoin { rack }
            | FaultKind::RackPartition { rack }
            | FaultKind::RackPartitionHeal { rack } => FaultTarget::Rack(rack),
        }
    }
}

/// One scripted fault-injection event.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When the fault strikes (virtual time).
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// Seeded random node churn: each rack draws failure times from an
/// exponential distribution with the given MTBF, kills a random member at
/// each strike, and (optionally) rejoins it after an exponential downtime.
/// All draws come from a dedicated seed, so fault timing is reproducible and
/// independent of the cluster's placement randomness.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RandomFaults {
    /// Mean time between failures *per rack*, in seconds.
    pub rack_mtbf_secs: f64,
    /// Mean downtime before a failed node rejoins, in seconds; `None` means
    /// failed nodes stay dead for the rest of the run.
    pub mean_recovery_secs: Option<f64>,
    /// No failures are generated after this virtual time.
    pub horizon: SimTime,
    /// Seed for the fault-time/victim draws.
    pub seed: u64,
}

/// The cluster's fault-injection plan: scripted events plus optional seeded
/// random churn. Empty by default — the failure-free cluster of the paper's
/// testbed.
///
/// ```
/// use mrp_engine::{ClusterConfig, FaultEvent, FaultKind, NodeId, RandomFaults};
/// use mrp_sim::SimTime;
///
/// let mut cfg = ClusterConfig::racked_cluster(2, 4, 2, 1);
/// // Kill node 3 at t=30s and bring it back a minute later...
/// cfg.faults.events.push(FaultEvent {
///     at: SimTime::from_secs(30),
///     kind: FaultKind::Kill { node: NodeId(3) },
/// });
/// cfg.faults.events.push(FaultEvent {
///     at: SimTime::from_secs(90),
///     kind: FaultKind::Rejoin { node: NodeId(3) },
/// });
/// // ...plus seeded random churn for the first ten minutes.
/// cfg.faults.random = Some(RandomFaults {
///     rack_mtbf_secs: 120.0,
///     mean_recovery_secs: Some(45.0),
///     horizon: SimTime::from_secs(600),
///     seed: 7,
/// });
/// assert!(cfg.validate().is_ok());
/// assert!(!cfg.faults.is_empty());
/// ```
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Scripted kill/decommission/rejoin/rack-outage events.
    pub events: Vec<FaultEvent>,
    /// Seeded random per-rack MTBF churn, if any.
    pub random: Option<RandomFaults>,
}

impl FaultPlan {
    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.random.is_none()
    }

    /// Validates the plan against the cluster shape it will be injected
    /// into, returning the first problem found.
    pub(crate) fn validate(&self, node_count: usize, racks: u32) -> Result<(), String> {
        for ev in &self.events {
            match ev.kind.target() {
                FaultTarget::Node(node) if node.0 as usize >= node_count => {
                    return Err(format!("fault event targets unknown node {node:?}"));
                }
                FaultTarget::Rack(rack) if rack.0 >= racks => {
                    return Err(format!("fault event targets unknown rack {rack:?}"));
                }
                _ => {}
            }
            if let FaultKind::Gray {
                slow_disk,
                slow_net,
                ..
            } = ev.kind
            {
                // NaN and sub-unit multipliers must fail these checks.
                if !(slow_disk >= 1.0 && slow_disk.is_finite()) {
                    return Err("gray-failure slow_disk must be finite and at least 1".into());
                }
                if !(slow_net >= 1.0 && slow_net.is_finite()) {
                    return Err("gray-failure slow_net must be finite and at least 1".into());
                }
            }
        }
        if let Some(rf) = &self.random {
            if rf.rack_mtbf_secs <= 0.0 || rf.rack_mtbf_secs.is_nan() {
                return Err("random-fault MTBF must be positive".into());
            }
            if let Some(rec) = rf.mean_recovery_secs {
                // Recovery draws become durations: NaN and infinity must fail.
                if !(rec > 0.0 && rec.is_finite()) {
                    return Err("random-fault mean recovery must be positive and finite".into());
                }
            }
        }
        Ok(())
    }
}

/// Speculative re-execution (straggler mitigation).
///
/// When enabled, schedulers launch a backup attempt for a map task whose
/// progress rate has fallen below 0.4 times its job's mean rate, once it has
/// run for 30 s, at most two live backups per job — including tasks frozen
/// in `Suspended` (their rate decays while they wait, which is exactly the
/// re-execution opportunity preemption churn and node failures create). The
/// first attempt to finish wins; the engine kills the loser.
///
/// ```
/// use mrp_engine::{ClusterConfig, SpeculationConfig};
///
/// let mut cfg = ClusterConfig::racked_cluster(2, 4, 2, 1);
/// cfg.speculation = SpeculationConfig::enabled();
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SpeculationConfig {
    /// Master switch (default off: the paper's scenarios are speculation-free).
    pub enabled: bool,
}

impl SpeculationConfig {
    /// Speculation switched on with the Hadoop-like thresholds.
    pub fn enabled() -> Self {
        SpeculationConfig { enabled: true }
    }
}

/// Delay-scheduling knobs: how long a job waits for a data-local slot
/// before accepting a worse placement (Zaharia et al., "Delay Scheduling",
/// EuroSys 2010), applied as a scheduler-independent placement policy.
///
/// The engine keeps one wait clock per job. The clock starts the first time
/// the job *declines* an offered slot because launching there would not be
/// node-local, escalates the job's allowed locality level with elapsed time
/// (node → rack after the node-local wait, rack → any after an additional
/// rack-local wait; see [`DelayConfig::waits`]), and resets whenever the job
/// launches a node-local map task. Because escalation is purely a function
/// of virtual time, a job whose replica holders all died still drains — the
/// clock keeps running and the job eventually launches anywhere.
///
/// FIFO, FAIR and HFSP read the allowed level and record declines through
/// the shared [`SchedulerContext`](crate::SchedulerContext) helpers, but tier
/// placements in two ways: FIFO buckets the whole schedulable list by
/// locality, so a node-local task of a later job goes before a rack-local
/// one of an earlier job; FAIR and HFSP fill a node job by job in their own
/// order, tiering only within each job.
///
/// ```
/// use mrp_engine::{ClusterConfig, DelayConfig};
/// use mrp_sim::SimDuration;
///
/// // Wait one heartbeat interval for a node-local slot, one more for a
/// // rack-local one, then take anything.
/// let mut cfg = ClusterConfig::racked_cluster(4, 4, 2, 1);
/// cfg.delay = DelayConfig::waits(
///     cfg.heartbeat_interval,
///     cfg.heartbeat_interval,
/// );
/// assert!(cfg.validate().is_ok());
/// // Or express the thresholds in heartbeat intervals directly:
/// let same = ClusterConfig::racked_cluster(4, 4, 2, 1).with_delay_intervals(1.0, 1.0);
/// assert_eq!(cfg.delay, same.delay);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DelayConfig {
    /// Master switch (default off: placement stays greedy, as in PR 2).
    pub(crate) enabled: bool,
    /// How long a job waits for a node-local slot before rack-local
    /// launches are allowed.
    pub(crate) node_local_wait: SimDuration,
    /// How much *additional* waiting (past `node_local_wait`) before
    /// off-rack launches are allowed. Zero collapses the rack tier: the job
    /// goes straight from node-local-only to anywhere.
    pub(crate) rack_local_wait: SimDuration,
}

impl Default for DelayConfig {
    fn default() -> Self {
        DelayConfig {
            enabled: false,
            node_local_wait: SimDuration::ZERO,
            rack_local_wait: SimDuration::ZERO,
        }
    }
}

impl DelayConfig {
    /// Delay scheduling enabled with explicit per-level wait durations.
    pub fn waits(node_local_wait: SimDuration, rack_local_wait: SimDuration) -> Self {
        DelayConfig {
            enabled: true,
            node_local_wait,
            rack_local_wait,
        }
    }

    /// Validates the knobs (no-op while the feature is off), returning the
    /// first problem found.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !self.enabled {
            return Ok(());
        }
        if self.node_local_wait.is_zero() && self.rack_local_wait.is_zero() {
            return Err("delay scheduling needs a positive wait at some locality level".into());
        }
        if self
            .node_local_wait
            .as_micros()
            .checked_add(self.rack_local_wait.as_micros())
            .is_none()
        {
            return Err("delay scheduling waits overflow when added".into());
        }
        Ok(())
    }
}

/// Fault-tolerant shuffle: map outputs as node-local artifacts that die
/// with their node, reduce-side fetch retry with exponential backoff, and a
/// cross-rack bandwidth contention term in the shuffle phase.
///
/// With the master switch on, the engine tracks which node holds each
/// committed map output (per-job registry). A node crash destroys the
/// outputs it held: completed maps of jobs with unfinished reduces go back
/// to `Pending` for re-execution — Hadoop's real behaviour — while reduces
/// stalled in their shuffle phase retry the fetch (2 s, doubling per round,
/// capped at 30 s) instead of failing the job. A graceful decommission
/// migrates the outputs to a surviving node instead (no re-execution),
/// mirroring the graceful-vs-crash block distinction in
/// `mrp_dfs::NameNode::re_replicate`.
///
/// The switch also adds the topology term: a reduce launched on a rack
/// holding little of its job's map-output bytes pays up to twice the base
/// shuffle duration, which is what makes rack-aware reduce placement worth
/// anything.
///
/// ```
/// use mrp_engine::{ClusterConfig, ShuffleConfig};
///
/// let mut cfg = ClusterConfig::racked_cluster(2, 4, 2, 1);
/// cfg.shuffle = ShuffleConfig::fault_tolerant();
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ShuffleConfig {
    /// Master switch (default off: map outputs survive node loss silently,
    /// as in the PR 3 fault model, and shuffle duration stays topology-blind).
    pub(crate) enabled: bool,
}

impl ShuffleConfig {
    /// Fault-tolerant shuffle switched on with Hadoop-like retry defaults
    /// and a 2x worst-case cross-rack contention term.
    pub fn fault_tolerant() -> Self {
        ShuffleConfig { enabled: true }
    }
}

/// ATLAS-style node-reliability predictor (Soualhia et al.: feed failure
/// history back into placement). The engine maintains an EWMA-like
/// flakiness score per node and per rack, bumped on every crash and decaying
/// exponentially with virtual time since the last one (see
/// [`ReliabilityTracker`](crate::ReliabilityTracker)); schedulers consult it
/// through [`SchedulerContext::reliability_avoid`](crate::SchedulerContext)
/// to keep fresh launches and speculative backups off recently-flaky nodes
/// whenever the cluster has capacity elsewhere (the guard that keeps the
/// bias starvation-free).
///
/// ```
/// use mrp_engine::{ClusterConfig, ReliabilityConfig};
///
/// let mut cfg = ClusterConfig::racked_cluster(2, 4, 2, 1);
/// cfg.reliability = ReliabilityConfig::predictive();
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ReliabilityConfig {
    /// Master switch (default off: placement ignores failure history).
    pub(crate) enabled: bool,
}

impl ReliabilityConfig {
    /// The predictor switched on with the default EWMA/decay parameters.
    pub fn predictive() -> Self {
        ReliabilityConfig { enabled: true }
    }
}

/// Heartbeat intervals without a heartbeat before the failure detector
/// suspects a node and tears it down.
pub(crate) const MISSED_HEARTBEATS: u32 = 3;

/// Suspicion-based failure detection: how long the master waits before
/// believing a silent node is dead.
///
/// Default-off the master is omniscient, as in PR 3: a fault event and the
/// scheduler's knowledge of it are simultaneous. With the detector enabled,
/// a killed or partitioned node merely goes *silent*: its slots stay
/// occupied in every scheduler view, nothing is re-executed, and only after
/// three heartbeat intervals without a sign of life (measured from the
/// node's last delivered heartbeat, see [`DetectorConfig::timeout`]) does
/// the teardown — attempt loss, map-output loss, block re-replication, the
/// reliability penalty — actually run. Detection lag is recorded in
/// [`FaultStats`](crate::metrics::FaultStats), because the window between
/// fault and suspicion is exactly when suspended-to-disk state is silently
/// at risk.
///
/// ```
/// use mrp_engine::{ClusterConfig, DetectorConfig};
/// use mrp_sim::SimDuration;
///
/// let mut cfg = ClusterConfig::racked_cluster(2, 4, 2, 1);
/// cfg.detector = DetectorConfig::enabled();
/// assert!(cfg.validate().is_ok());
/// // A silent node is torn down three 3 s heartbeats after its last one.
/// assert_eq!(
///     cfg.detector.timeout(cfg.heartbeat_interval),
///     SimDuration::from_secs(9),
/// );
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Master switch (default off: faults are observed instantaneously).
    pub(crate) enabled: bool,
}

impl DetectorConfig {
    /// The detector switched on with the Hadoop-like threshold of three
    /// missed heartbeats.
    pub fn enabled() -> Self {
        DetectorConfig { enabled: true }
    }

    /// The suspicion-to-teardown timeout for a given heartbeat interval:
    /// three missed heartbeats.
    pub fn timeout(&self, heartbeat_interval: SimDuration) -> SimDuration {
        heartbeat_interval.mul_f64(f64::from(MISSED_HEARTBEATS))
    }
}

/// Observability: the span trace (capped at 2^20 spans) with its duration
/// histograms, virtual-time series sampler (one row every 10 s of virtual
/// time) and event-loop profiler.
///
/// Default-off the cluster allocates no observability state at all and every
/// hot path skips recording behind a single `Option` check, so pinned
/// determinism tests and bench baselines are untouched. Crucially the layer
/// is *passive* even when on: the sampler piggybacks on event-loop
/// iterations instead of scheduling events of its own, and the profiler only
/// reads the wall clock — an observed run produces byte-identical reports
/// and event counts to an unobserved one (pinned by the observability test
/// suite).
///
/// ```
/// use mrp_engine::{ClusterConfig, ObsConfig};
///
/// let cfg = ClusterConfig::small_cluster(4, 2, 1).with_obs(ObsConfig::full());
/// assert!(cfg.validate().is_ok());
/// assert!(cfg.obs.enabled);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ObsConfig {
    /// Master switch (default off: zero observability state, zero overhead).
    pub enabled: bool,
}

impl ObsConfig {
    /// Everything on: series sampling, spans and the event-loop profiler.
    pub fn full() -> Self {
        ObsConfig { enabled: true }
    }
}

/// Whole-cluster configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Per-node configurations; node ids are assigned in order starting at 0.
    pub nodes: Vec<NodeConfig>,
    /// Number of racks the nodes are split over (contiguous blocks of nearly
    /// equal size, rack 0 first). `1` reproduces the paper's single-rack
    /// setup; the `swim_cluster` bench runs 100 racks x 100 nodes.
    pub racks: u32,
    /// TaskTracker heartbeat interval (`mapreduce.jobtracker.heartbeat.interval`).
    pub heartbeat_interval: SimDuration,
    /// HDFS block size used when the harness creates input files.
    pub(crate) dfs_block_size: u64,
    /// HDFS replication factor for created files.
    pub dfs_replication: u32,
    /// Seed for all randomised decisions (placement, tie-breaking).
    pub(crate) seed: u64,
    /// Schedule-trace verbosity (default [`TraceLevel::Schedule`]; set to
    /// [`TraceLevel::Off`] for throughput runs).
    pub trace_level: TraceLevel,
    /// Fault-injection plan (default: no faults).
    pub faults: FaultPlan,
    /// Speculative re-execution switch (default: off).
    pub speculation: SpeculationConfig,
    /// Delay-scheduling knobs for data-local placement (default: off).
    pub delay: DelayConfig,
    /// Fault-tolerant shuffle switch (default: off).
    pub shuffle: ShuffleConfig,
    /// Node-reliability predictor switch (default: off).
    pub reliability: ReliabilityConfig,
    /// Suspicion-based failure-detection switch (default: off — faults are
    /// observed the instant they strike).
    pub detector: DetectorConfig,
    /// Observability switch — span trace and histograms, series sampler,
    /// event-loop profiler (default: off).
    #[serde(default)]
    pub obs: ObsConfig,
}

impl ClusterConfig {
    /// The paper's experimental setup: one node, one map slot, 512 MB blocks.
    ///
    /// ```
    /// use mrp_engine::{Cluster, ClusterConfig, FifoScheduler, JobSpec};
    /// use mrp_sim::{SimTime, MIB};
    ///
    /// let mut cluster = Cluster::new(ClusterConfig::paper_single_node(),
    ///                                Box::new(FifoScheduler::new()));
    /// cluster.create_input_file("/input", 512 * MIB).unwrap();
    /// cluster.submit_job(JobSpec::map_only("tl", "/input"));
    /// cluster.run(SimTime::from_secs(3_600));
    /// assert!(cluster.report().all_jobs_complete());
    /// ```
    pub fn paper_single_node() -> Self {
        ClusterConfig {
            nodes: vec![NodeConfig::paper_node()],
            racks: 1,
            heartbeat_interval: SimDuration::from_secs(3),
            dfs_block_size: 512 * MIB,
            dfs_replication: 1,
            seed: 1,
            trace_level: TraceLevel::Schedule,
            faults: FaultPlan::default(),
            speculation: SpeculationConfig::default(),
            delay: DelayConfig::default(),
            shuffle: ShuffleConfig::default(),
            reliability: ReliabilityConfig::default(),
            detector: DetectorConfig::default(),
            obs: ObsConfig::default(),
        }
    }

    /// A small multi-node cluster for the scheduler examples and the
    /// resume-locality experiments.
    pub fn small_cluster(nodes: u32, map_slots: u32, reduce_slots: u32) -> Self {
        ClusterConfig {
            nodes: (0..nodes)
                .map(|_| NodeConfig {
                    os: NodeOsConfig::default(),
                    map_slots,
                    reduce_slots,
                })
                .collect(),
            racks: 1,
            heartbeat_interval: SimDuration::from_secs(3),
            dfs_block_size: 128 * MIB,
            dfs_replication: 3.min(nodes),
            seed: 1,
            trace_level: TraceLevel::Schedule,
            faults: FaultPlan::default(),
            speculation: SpeculationConfig::default(),
            delay: DelayConfig::default(),
            shuffle: ShuffleConfig::default(),
            reliability: ReliabilityConfig::default(),
            detector: DetectorConfig::default(),
            obs: ObsConfig::default(),
        }
    }

    /// A multi-rack cluster: `racks` racks of `nodes_per_rack` nodes each.
    /// Replica placement, task-input locality and scheduler assignment all
    /// become rack-aware; throughput-sensitive callers still switch
    /// `trace_level` off themselves.
    ///
    /// ```
    /// use mrp_engine::ClusterConfig;
    ///
    /// let cfg = ClusterConfig::racked_cluster(4, 25, 2, 1);
    /// assert_eq!(cfg.node_count(), 100);
    /// assert_eq!(cfg.racks, 4);
    /// assert!(cfg.validate().is_ok());
    /// ```
    pub fn racked_cluster(
        racks: u32,
        nodes_per_rack: u32,
        map_slots: u32,
        reduce_slots: u32,
    ) -> Self {
        let mut cfg = ClusterConfig::small_cluster(racks * nodes_per_rack, map_slots, reduce_slots);
        cfg.racks = racks;
        cfg
    }

    /// Enables delay scheduling with per-level wait thresholds expressed in
    /// heartbeat intervals, builder style. `with_delay_intervals(1.0, 1.0)`
    /// waits one heartbeat interval for a node-local slot and one more for a
    /// rack-local one — the sweet spot the `locality_delay` bench records.
    pub fn with_delay_intervals(mut self, node_local: f64, rack_local: f64) -> Self {
        self.delay = DelayConfig::waits(
            self.heartbeat_interval.mul_f64(node_local),
            self.heartbeat_interval.mul_f64(rack_local),
        );
        self
    }

    /// Replaces the speculative-execution switch, builder style.
    ///
    /// ```
    /// use mrp_engine::{ClusterConfig, SpeculationConfig};
    ///
    /// let cfg = ClusterConfig::racked_cluster(2, 4, 2, 1)
    ///     .with_speculation(SpeculationConfig::enabled());
    /// assert!(cfg.validate().is_ok());
    /// ```
    pub fn with_speculation(mut self, speculation: SpeculationConfig) -> Self {
        self.speculation = speculation;
        self
    }

    /// Replaces the fault-tolerant-shuffle switch, builder style.
    pub fn with_shuffle(mut self, shuffle: ShuffleConfig) -> Self {
        self.shuffle = shuffle;
        self
    }

    /// Replaces the node-reliability-predictor switch, builder style.
    pub fn with_reliability(mut self, reliability: ReliabilityConfig) -> Self {
        self.reliability = reliability;
        self
    }

    /// Replaces the failure-detector switch, builder style.
    pub fn with_detector(mut self, detector: DetectorConfig) -> Self {
        self.detector = detector;
        self
    }

    /// Replaces the fault-injection plan, builder style.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Replaces the observability switch, builder style.
    ///
    /// ```
    /// use mrp_engine::{ClusterConfig, ObsConfig};
    ///
    /// let cfg = ClusterConfig::small_cluster(4, 2, 1).with_obs(ObsConfig::full());
    /// assert!(cfg.obs.enabled);
    /// ```
    pub fn with_obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Switches every node to the given block-granular swap-device model,
    /// builder style (see [`mrp_simos::SwapConfig`]). Default-off: without
    /// this call the legacy byte-granular swap accounting is used.
    ///
    /// ```
    /// use mrp_engine::ClusterConfig;
    /// use mrp_simos::SwapConfig;
    ///
    /// let cfg = ClusterConfig::small_cluster(4, 2, 1).with_swap(SwapConfig::lazy());
    /// assert!(cfg.validate().is_ok());
    /// assert!(cfg.nodes[0].os.memory.swap.lazy_resume);
    /// ```
    pub fn with_swap(mut self, swap: mrp_simos::SwapConfig) -> Self {
        for node in &mut self.nodes {
            node.os.memory.swap = swap;
        }
        self
    }

    /// Sets every node's disk `background_share` — how much spindle
    /// bandwidth queued DFS re-replication steals from swap I/O after a
    /// node failure. `0.0` (the default) disables the contention model.
    pub fn with_disk_background_share(mut self, share: f64) -> Self {
        for node in &mut self.nodes {
            node.os.disk.background_share = share;
        }
        self
    }

    /// Sets the simulation seed, builder style.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the schedule-trace verbosity, builder style (throughput-sensitive
    /// runs pass [`TraceLevel::Off`]).
    pub fn with_trace_level(mut self, trace_level: TraceLevel) -> Self {
        self.trace_level = trace_level;
        self
    }

    /// Number of nodes in the cluster.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Validates the configuration, returning a description of the first
    /// problem found. Cluster-shape checks live here; the feature
    /// sub-configs with settable values (the fault plan, the delay
    /// thresholds and [`mrp_simos::SwapConfig::validate`]) validate their
    /// own and are invoked from this single entry point.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("cluster must have at least one node".into());
        }
        if self.racks == 0 {
            return Err("cluster must have at least one rack".into());
        }
        if self.racks as usize > self.nodes.len() {
            return Err(format!(
                "more racks ({}) than nodes ({})",
                self.racks,
                self.nodes.len()
            ));
        }
        if self.heartbeat_interval.is_zero() {
            return Err("heartbeat interval must be positive".into());
        }
        if self.dfs_block_size == 0 {
            return Err("block size must be positive".into());
        }
        if self.dfs_replication == 0 {
            return Err("replication factor must be at least 1".into());
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if n.map_slots == 0 && n.reduce_slots == 0 {
                return Err(format!("node {i} has no task slots"));
            }
        }
        self.faults.validate(self.nodes.len(), self.racks)?;
        self.delay.validate()?;
        for (i, n) in self.nodes.iter().enumerate() {
            let memory = &n.os.memory;
            if memory.total_ram <= mrp_simos::OS_RESERVE {
                return Err(format!("node {i}: total_ram must exceed the OS reserve"));
            }
            memory
                .swap
                .validate()
                .map_err(|e| format!("node {i}: {e}"))?;
            if memory.swap.enabled
                && memory.swap_capacity / memory.swap.block_size > u64::from(u32::MAX)
            {
                return Err(format!(
                    "node {i}: swap_capacity / swap.block_size exceeds {} blocks",
                    u32::MAX
                ));
            }
            let share = n.os.disk.background_share;
            if !(0.0..1.0).contains(&share) {
                return Err(format!("node {i}: disk background_share must be in [0, 1)"));
            }
        }
        Ok(())
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig::paper_single_node()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_setup_is_valid() {
        let c = ClusterConfig::paper_single_node();
        assert!(c.validate().is_ok());
        assert_eq!(c.node_count(), 1);
        assert_eq!(c.nodes[0].map_slots, 1);
        assert_eq!(c.dfs_block_size, 512 * MIB);
    }

    #[test]
    fn small_cluster_shape() {
        let c = ClusterConfig::small_cluster(5, 2, 1);
        assert!(c.validate().is_ok());
        assert_eq!(c.node_count(), 5);
        assert_eq!(c.dfs_replication, 3);
        let c1 = ClusterConfig::small_cluster(2, 2, 1);
        assert_eq!(c1.dfs_replication, 2);
    }

    #[test]
    fn paper_task_duration_is_about_80_seconds() {
        use crate::attempt::{COMMIT_OVERHEAD, JVM_STARTUP, PARSE_RATE_BYTES_PER_SEC};
        let work = 512.0 * MIB as f64 / PARSE_RATE_BYTES_PER_SEC;
        let total = JVM_STARTUP.as_secs_f64() + work + COMMIT_OVERHEAD.as_secs_f64();
        assert!(
            (75.0..95.0).contains(&total),
            "paper tasks should take ~80s, got {total}"
        );
    }

    #[test]
    fn validation_catches_errors() {
        let mut c = ClusterConfig::paper_single_node();
        c.nodes.clear();
        assert!(c.validate().is_err());

        let mut c = ClusterConfig::paper_single_node();
        c.heartbeat_interval = SimDuration::ZERO;
        assert!(c.validate().is_err());

        let mut c = ClusterConfig::paper_single_node();
        c.dfs_block_size = 0;
        assert!(c.validate().is_err());

        let mut c = ClusterConfig::paper_single_node();
        c.dfs_replication = 0;
        assert!(c.validate().is_err());

        let mut c = ClusterConfig::paper_single_node();
        c.nodes[0].map_slots = 0;
        c.nodes[0].reduce_slots = 0;
        assert!(c.validate().is_err());

        let mut c = ClusterConfig::paper_single_node();
        c.racks = 0;
        assert!(c.validate().is_err());

        let mut c = ClusterConfig::paper_single_node();
        c.racks = 2;
        assert!(c.validate().is_err(), "more racks than nodes is invalid");
    }

    #[test]
    fn ram_not_above_os_reserve_is_rejected() {
        let mut c = ClusterConfig::small_cluster(2, 1, 1);
        c.nodes[1].os.memory.total_ram = mrp_simos::OS_RESERVE;
        let err = c.validate().expect_err("no RAM left for tasks");
        assert_eq!(err, "node 1: total_ram must exceed the OS reserve");
        c.nodes[1].os.memory.total_ram += 1;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn oversized_swap_device_is_rejected() {
        use mrp_sim::GIB;
        use mrp_simos::SwapConfig;
        let mut c = ClusterConfig::paper_single_node();
        let memory = &mut c.nodes[0].os.memory;
        memory.swap = SwapConfig::enabled();
        memory.swap_capacity = 16 * GIB;
        memory.swap.block_size = 1;
        let err = c.validate().expect_err("2^34 one-byte blocks overflow u32");
        assert!(err.contains("swap_capacity"), "{err}");
        c.nodes[0].os.memory.swap.block_size = 4;
        assert!(c.validate().is_err(), "2^32 blocks are one too many");
        c.nodes[0].os.memory.swap.block_size = 8;
        assert!(c.validate().is_ok(), "2^31 blocks fit");
    }

    #[test]
    fn fault_and_speculation_validation() {
        let mut c = ClusterConfig::racked_cluster(2, 2, 1, 1);
        c.faults.events.push(FaultEvent {
            at: SimTime::from_secs(10),
            kind: FaultKind::Kill { node: NodeId(3) },
        });
        c.faults.random = Some(RandomFaults {
            rack_mtbf_secs: 600.0,
            mean_recovery_secs: Some(60.0),
            horizon: SimTime::from_secs(3_600),
            seed: 7,
        });
        c.speculation = SpeculationConfig::enabled();
        assert!(c.validate().is_ok());

        let mut bad = c.clone();
        bad.faults.events[0].kind = FaultKind::Kill { node: NodeId(99) };
        assert!(bad.validate().is_err(), "out-of-range node");

        let mut bad = c.clone();
        bad.faults.events[0].kind = FaultKind::RackOutage { rack: RackId(5) };
        assert!(bad.validate().is_err(), "out-of-range rack");

        let mut bad = c.clone();
        bad.faults.random.as_mut().unwrap().rack_mtbf_secs = 0.0;
        assert!(bad.validate().is_err(), "zero MTBF");

        for recovery in [0.0, f64::NAN, f64::INFINITY] {
            let mut bad = c.clone();
            bad.faults.random.as_mut().unwrap().mean_recovery_secs = Some(recovery);
            assert_eq!(
                bad.validate(),
                Err("random-fault mean recovery must be positive and finite".into()),
                "mean recovery {recovery}"
            );
        }

        assert!(ClusterConfig::paper_single_node().faults.is_empty());
    }

    #[test]
    fn delay_config_builder_and_validation() {
        let cfg = ClusterConfig::racked_cluster(2, 2, 1, 1).with_delay_intervals(1.0, 2.0);
        assert!(cfg.delay.enabled);
        assert_eq!(cfg.delay.node_local_wait, cfg.heartbeat_interval);
        assert_eq!(
            cfg.delay.rack_local_wait,
            cfg.heartbeat_interval.mul_f64(2.0)
        );
        assert!(cfg.validate().is_ok());

        // Zero waits at every level make an enabled delay meaningless.
        let mut bad = ClusterConfig::paper_single_node();
        bad.delay = DelayConfig {
            enabled: true,
            node_local_wait: SimDuration::ZERO,
            rack_local_wait: SimDuration::ZERO,
        };
        assert!(bad.validate().is_err());

        // Disabled delay with zero waits is the default and fine.
        assert!(!ClusterConfig::paper_single_node().delay.enabled);
        assert!(ClusterConfig::paper_single_node().validate().is_ok());
    }

    #[test]
    fn overflowing_delay_waits_are_rejected() {
        let huge = SimDuration::from_micros(u64::MAX);
        let mut cfg = ClusterConfig::paper_single_node();
        cfg.delay = DelayConfig::waits(huge, SimDuration::from_micros(1));
        assert!(cfg.delay.validate().is_err());
        assert!(cfg.validate().is_err());
        // The largest waits that still add up are accepted.
        cfg.delay = DelayConfig::waits(huge, SimDuration::ZERO);
        assert!(cfg.validate().is_ok());
        cfg.delay = DelayConfig::waits(
            SimDuration::from_micros(u64::MAX - 1),
            SimDuration::from_micros(1),
        );
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn shuffle_and_reliability_validation() {
        let mut c = ClusterConfig::racked_cluster(2, 2, 1, 1);
        c.shuffle = ShuffleConfig::fault_tolerant();
        c.reliability = ReliabilityConfig::predictive();
        assert!(c.validate().is_ok());

        // Both off by default.
        let off = ClusterConfig::paper_single_node();
        assert!(!off.shuffle.enabled && !off.reliability.enabled);
    }

    #[test]
    fn detector_partition_and_gray_validation() {
        let mut c = ClusterConfig::racked_cluster(2, 2, 1, 1);
        c.detector = DetectorConfig::enabled();
        c.faults.events.push(FaultEvent {
            at: SimTime::from_secs(10),
            kind: FaultKind::Partition { node: NodeId(1) },
        });
        c.faults.events.push(FaultEvent {
            at: SimTime::from_secs(40),
            kind: FaultKind::PartitionHeal { node: NodeId(1) },
        });
        c.faults.events.push(FaultEvent {
            at: SimTime::from_secs(5),
            kind: FaultKind::RackPartition { rack: RackId(1) },
        });
        c.faults.events.push(FaultEvent {
            at: SimTime::from_secs(25),
            kind: FaultKind::RackPartitionHeal { rack: RackId(1) },
        });
        c.faults.events.push(FaultEvent {
            at: SimTime::from_secs(15),
            kind: FaultKind::Gray {
                node: NodeId(2),
                slow_disk: 2.0,
                slow_net: 1.5,
            },
        });
        c.faults.events.push(FaultEvent {
            at: SimTime::from_secs(60),
            kind: FaultKind::GrayHeal { node: NodeId(2) },
        });
        assert!(c.validate().is_ok());

        let mut bad = c.clone();
        bad.faults.events[0].kind = FaultKind::Partition { node: NodeId(9) };
        assert!(bad.validate().is_err(), "out-of-range partition node");

        let mut bad = c.clone();
        bad.faults.events[2].kind = FaultKind::RackPartition { rack: RackId(7) };
        assert!(bad.validate().is_err(), "out-of-range partition rack");

        let mut bad = c.clone();
        bad.faults.events[4].kind = FaultKind::Gray {
            node: NodeId(2),
            slow_disk: 0.5,
            slow_net: 1.0,
        };
        assert!(bad.validate().is_err(), "sub-unit slow_disk");

        let mut bad = c.clone();
        bad.faults.events[4].kind = FaultKind::Gray {
            node: NodeId(2),
            slow_disk: 1.0,
            slow_net: f64::NAN,
        };
        assert!(bad.validate().is_err(), "NaN slow_net");

        // Off by default.
        assert!(!ClusterConfig::paper_single_node().detector.enabled);
    }

    #[test]
    fn detector_timeout_is_three_missed_heartbeats() {
        assert_eq!(
            DetectorConfig::enabled().timeout(SimDuration::from_secs(3)),
            SimDuration::from_secs(9)
        );
    }

    #[test]
    fn racked_cluster_shape() {
        let c = ClusterConfig::racked_cluster(4, 3, 2, 1);
        assert!(c.validate().is_ok());
        assert_eq!(c.node_count(), 12);
        assert_eq!(c.racks, 4);
        assert_eq!(c.dfs_replication, 3);
    }
}
