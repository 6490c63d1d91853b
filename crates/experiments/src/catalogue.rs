//! The scenario catalogue: the fixed-seed cluster shapes the quality-bar
//! tests pin and `check_bench` times, next to the rack-outage, tenant and
//! memory-pressure configurations that serve both too.
//!
//! Each shape splits into its cluster configuration and a `build` step that
//! loads the workload onto a cluster made from it, so a caller can switch
//! observability or tracing on without changing what the cluster runs.

use mrp_engine::{
    Cluster, ClusterConfig, DetectorConfig, FaultEvent, FaultKind, FaultPlan, JobSpec, NodeId,
    RackId, RandomFaults, ReliabilityConfig, SchedulerPolicy, ShuffleConfig, SpeculationConfig,
    TraceLevel,
};
use mrp_preempt::{EvictionPolicy, HfspScheduler, PreemptionPrimitive};
use mrp_sim::{SimTime, GIB, MIB};
use mrp_workload::{dfs_backed, SwimConfig, SwimGenerator, TraceJob};

/// Virtual-time cap for draining any catalogue shape; every shape finishes
/// well inside it.
pub const CATALOGUE_HORIZON: SimTime = SimTime::from_secs(24 * 3_600);

/// HFSP with suspend/resume preemption and closest-to-completion eviction:
/// the policy every catalogue shape runs.
pub(crate) fn hfsp() -> Box<dyn SchedulerPolicy> {
    Box::new(HfspScheduler::new(
        PreemptionPrimitive::SuspendResume,
        EvictionPolicy::ClosestToCompletion,
    ))
}

/// Builds an HFSP cluster from `config` and loads `trace` with its inputs
/// as DFS files under `dir`. Writers rotate over the nodes so first replicas
/// do not all stack on node 0.
pub(crate) fn dfs_backed_cluster(config: ClusterConfig, trace: &[TraceJob], dir: &str) -> Cluster {
    let nodes = config.nodes.len() as u64;
    let mut cluster = Cluster::new(config, hfsp());
    let (jobs, files) = dfs_backed(trace, dir);
    for (i, (path, bytes)) in files.iter().enumerate() {
        let writer = NodeId(((i as u64 * 37) % nodes) as u32);
        cluster
            .create_input_file_from(path, *bytes, Some(writer))
            .expect("trace input files are unique");
    }
    for job in jobs {
        cluster.submit_job_at(job.spec, job.arrival);
    }
    cluster
}

/// The SWIM settings the catalogue's trace-driven shapes start from: a
/// heavier size tail than [`SwimConfig::default`], 512 MiB to 24 GiB per
/// job, one job in ten stateful.
fn catalogue_swim(jobs: usize, mean_interarrival_secs: f64) -> SwimConfig {
    SwimConfig {
        jobs,
        mean_interarrival_secs,
        size_shape: 0.9,
        min_job_bytes: 512 * MIB,
        max_job_bytes: 24 * GIB,
        stateful_fraction: 0.1,
        ..SwimConfig::default()
    }
}

/// A straggler population: 15% of jobs parse at 1.6 MiB/s, with at most 8
/// tasks each.
fn with_stragglers(swim: SwimConfig) -> SwimConfig {
    SwimConfig {
        slow_fraction: 0.15,
        slow_parse_rate_bytes_per_sec: 1.6 * MIB as f64,
        slow_max_tasks: 8,
        ..swim
    }
}

/// Random per-rack churn with rejoins until `horizon`.
fn churn(rack_mtbf_secs: f64, mean_recovery_secs: f64, horizon: u64, seed: u64) -> RandomFaults {
    RandomFaults {
        rack_mtbf_secs,
        mean_recovery_secs: Some(mean_recovery_secs),
        horizon: SimTime::from_secs(horizon),
        seed,
    }
}

/// Scripted fault events at whole seconds.
fn scripted(events: impl IntoIterator<Item = (u64, FaultKind)>) -> Vec<FaultEvent> {
    events
        .into_iter()
        .map(|(at, kind)| FaultEvent {
            at: SimTime::from_secs(at),
            kind,
        })
        .collect()
}

/// The 200-node suspend-churn shape behind `sim_throughput`: 20 batch jobs
/// of 180 map tasks saturate every slot, then 40 small jobs arrive and HFSP
/// preempts batch tasks to run them. `check_bench` divides every timed
/// shape's events per CPU second by this one's.
pub fn sim_throughput_config() -> ClusterConfig {
    ClusterConfig::small_cluster(200, 2, 1).with_trace_level(TraceLevel::Off)
}

/// Loads the `sim_throughput` workload onto a cluster built from `config`.
pub fn sim_throughput_cluster(config: ClusterConfig) -> Cluster {
    let mut cluster = Cluster::new(config, hfsp());
    for i in 0..20 {
        cluster.submit_job_at(
            JobSpec::synthetic(format!("batch-{i:02}"), 180, 64 * MIB),
            SimTime::from_secs(i),
        );
    }
    for i in 0..40 {
        cluster.submit_job_at(
            JobSpec::synthetic(format!("small-{i:02}"), 10, 16 * MIB),
            SimTime::from_secs(20 + 7 * i),
        );
    }
    cluster
}

/// The `swim_cluster` trace family: the catalogue base with half as many
/// stateful jobs and job sizes between `min_job_bytes` and `max_job_bytes`.
fn swim_cluster_trace(
    jobs: usize,
    mean_interarrival_secs: f64,
    min_job_bytes: u64,
    max_job_bytes: u64,
) -> SwimConfig {
    SwimConfig {
        min_job_bytes,
        max_job_bytes,
        stateful_fraction: 0.05,
        ..catalogue_swim(jobs, mean_interarrival_secs)
    }
}

/// A multi-rack SWIM trace on DFS-backed inputs under HFSP suspend/resume:
/// the `swim_cluster` shape and, with delay scheduling on, the
/// `locality_delay` shape.
#[derive(Clone, Debug)]
pub struct SwimClusterConfig {
    /// Number of racks.
    pub racks: u32,
    /// Nodes per rack.
    pub nodes_per_rack: u32,
    /// The SWIM workload.
    pub swim: SwimConfig,
    /// Delay scheduling at one heartbeat interval per locality level.
    pub delay: bool,
    /// Trace seed.
    pub seed: u64,
}

impl SwimClusterConfig {
    /// The `swim_cluster` shape: 10,000 nodes in 100 racks, 2,400 jobs of
    /// 1 to 128 GiB arriving every 0.06 s on average. Arrivals outpace the
    /// drain slightly, which keeps a preemption-heavy backlog without
    /// collapsing into one giant batch.
    pub fn full() -> Self {
        SwimClusterConfig {
            racks: 100,
            nodes_per_rack: 100,
            swim: swim_cluster_trace(2_400, 0.06, GIB, 128 * GIB),
            delay: false,
            seed: 0x5717,
        }
    }

    /// The `swim_cluster` trace shrunk to 64 nodes and 60 jobs.
    pub fn small() -> Self {
        SwimClusterConfig {
            racks: 8,
            nodes_per_rack: 8,
            swim: swim_cluster_trace(60, 0.4, 256 * MIB, 8 * GIB),
            delay: false,
            seed: 0x5717,
        }
    }

    /// The `locality_delay` shape: a 2,000-node, 40-rack slice of the
    /// `swim_cluster` workload at a moderate backlog, with delay scheduling
    /// on. Strict HFSP order already shows the 10k-node shape's sub-percent
    /// node-local rate here; a deeper backlog would multiply the declining
    /// jobs each free slot scans.
    pub fn locality_delay() -> Self {
        SwimClusterConfig {
            racks: 40,
            nodes_per_rack: 50,
            swim: swim_cluster_trace(500, 0.6, GIB, 64 * GIB),
            delay: true,
            seed: 0x10CA1,
        }
    }

    /// The cluster configuration (tracing off).
    pub fn config(&self) -> ClusterConfig {
        let config = ClusterConfig::racked_cluster(self.racks, self.nodes_per_rack, 2, 1)
            .with_trace_level(TraceLevel::Off);
        if self.delay {
            config.with_delay_intervals(1.0, 1.0)
        } else {
            config
        }
    }

    /// Loads the trace onto a cluster built from `config`.
    pub fn build(&self, config: ClusterConfig) -> Cluster {
        let trace = SwimGenerator::new(self.swim.clone(), self.seed).generate();
        dfs_backed_cluster(config, &trace, "/swim")
    }
}

/// Suspicion-based failure detection under network partitions: random
/// churn plus scripted partitions and a gray-failing node, with
/// speculation, fault-tolerant shuffle and the reliability predictor all
/// on, so the detector runs over the whole robustness stack.
#[derive(Clone, Debug)]
pub struct PartitionDetectConfig {
    /// Number of racks.
    pub racks: u32,
    /// Nodes per rack.
    pub nodes_per_rack: u32,
    /// The SWIM workload.
    pub swim: SwimConfig,
    /// The random churn the detector observes with lag.
    pub churn: RandomFaults,
    /// Whether the missed-heartbeat detector is on; off, faults are seen
    /// the instant they strike.
    pub detector: bool,
    /// Trace seed.
    pub seed: u64,
}

impl PartitionDetectConfig {
    /// 200 nodes in 20 racks at moderate load. A modest reduce share makes
    /// partitions strand shuffle fetches as well as map slots.
    pub fn full() -> Self {
        let seed = 0xDE7EC7;
        PartitionDetectConfig {
            racks: 20,
            nodes_per_rack: 10,
            swim: SwimConfig {
                reduce_ratio: 0.15,
                ..with_stragglers(catalogue_swim(400, 2.0))
            },
            churn: churn(240.0, 60.0, 480, seed ^ 0x9A7),
            detector: true,
            seed,
        }
    }

    /// The cluster configuration. The scripted plan: the last rack is
    /// partitioned for 30 s (past the timeout, so it is torn down and its
    /// heal reconciles first-commit-wins); node 1 is partitioned past the
    /// timeout and node 2 only briefly (healed before suspicion fires);
    /// node 3 gray-fails (disk x3, net x2) and recovers late.
    pub fn config(&self) -> ClusterConfig {
        let dark_rack = RackId(self.racks - 1);
        let faults = FaultPlan {
            random: Some(self.churn),
            events: scripted([
                (
                    30,
                    FaultKind::Gray {
                        node: NodeId(3),
                        slow_disk: 3.0,
                        slow_net: 2.0,
                    },
                ),
                // Heals land shortly after the missed-heartbeat teardown, so
                // completions buffered behind the partitions race the
                // master's re-runs in both directions.
                (40, FaultKind::Partition { node: NodeId(1) }),
                (55, FaultKind::PartitionHeal { node: NodeId(1) }),
                (60, FaultKind::RackPartition { rack: dark_rack }),
                (90, FaultKind::RackPartitionHeal { rack: dark_rack }),
                (100, FaultKind::Partition { node: NodeId(2) }),
                (104, FaultKind::PartitionHeal { node: NodeId(2) }),
                (300, FaultKind::GrayHeal { node: NodeId(3) }),
            ]),
        };
        let config = ClusterConfig::racked_cluster(self.racks, self.nodes_per_rack, 2, 1)
            .with_trace_level(TraceLevel::Off)
            .with_speculation(SpeculationConfig::enabled())
            .with_shuffle(ShuffleConfig::fault_tolerant())
            .with_reliability(ReliabilityConfig::predictive())
            .with_faults(faults);
        if self.detector {
            config.with_detector(DetectorConfig::enabled())
        } else {
            config
        }
    }

    /// The bound on observed detection lag: the detector timeout plus one
    /// heartbeat interval, since suspicion timers anchor on the last
    /// heartbeat received, at most one interval before the fault.
    pub fn lag_bound_secs(&self) -> f64 {
        let config = self.config().with_detector(DetectorConfig::enabled());
        (config.detector.timeout(config.heartbeat_interval) + config.heartbeat_interval)
            .as_secs_f64()
    }

    /// Loads the trace onto a cluster built from `config`.
    pub fn build(&self, config: ClusterConfig) -> Cluster {
        let trace = SwimGenerator::new(self.swim.clone(), self.seed).generate();
        dfs_backed_cluster(config, &trace, "/detect")
    }
}

/// Fault injection under preemption churn: seeded per-rack node failures
/// with rejoins, a scripted whole-rack outage and a decommission, with
/// speculative re-execution togglable.
#[derive(Clone, Debug)]
pub struct FaultChurnConfig {
    /// Number of racks.
    pub racks: u32,
    /// Nodes per rack.
    pub nodes_per_rack: u32,
    /// The SWIM workload; its slow jobs are the straggler population
    /// speculation is for.
    pub swim: SwimConfig,
    /// The random churn.
    pub churn: RandomFaults,
    /// Whether speculative re-execution is on.
    pub speculation: bool,
    /// Trace seed.
    pub seed: u64,
}

impl FaultChurnConfig {
    /// 1,000 nodes in 50 racks at about 0.8 utilisation, with a rack MTBF
    /// short enough that hundreds of nodes fail and rejoin: preemption,
    /// stranded suspended tasks and idle backup slots all coexist.
    pub fn full() -> Self {
        let seed = 0xFA17;
        FaultChurnConfig {
            racks: 50,
            nodes_per_rack: 20,
            swim: with_stragglers(catalogue_swim(1_200, 0.3)),
            churn: churn(90.0, 45.0, 600, seed ^ 0xDEAD),
            speculation: true,
            seed,
        }
    }

    /// The cluster configuration: the churn, the last rack dark from 45 s
    /// to 90 s, and node 0 decommissioned at 30 s.
    pub fn config(&self) -> ClusterConfig {
        let rack = RackId(self.racks - 1);
        let faults = FaultPlan {
            random: Some(self.churn),
            events: scripted([
                (45, FaultKind::RackOutage { rack }),
                (90, FaultKind::RackRejoin { rack }),
                (30, FaultKind::Decommission { node: NodeId(0) }),
            ]),
        };
        let config = ClusterConfig::racked_cluster(self.racks, self.nodes_per_rack, 2, 1)
            .with_trace_level(TraceLevel::Off)
            .with_faults(faults);
        if self.speculation {
            config.with_speculation(SpeculationConfig::enabled())
        } else {
            config
        }
    }

    /// Loads the trace onto a cluster built from `config`.
    pub fn build(&self, config: ClusterConfig) -> Cluster {
        let trace = SwimGenerator::new(self.swim.clone(), self.seed).generate();
        dfs_backed_cluster(config, &trace, "/churn")
    }
}
