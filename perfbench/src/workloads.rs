//! The benchmark's four workloads.
//!
//! A workload is a seeded generator of inputs: a cluster configuration, a
//! batch trace whose arrivals are fixed in virtual time (open loop: they do
//! not depend on completions) and the DFS files the trace reads. [`setup`]
//! hands those inputs to the engine through `Cluster::new`,
//! `Cluster::create_input_file_from` and `Cluster::submit_job_at` only, and
//! times each phase. Every workload runs HFSP with suspend/resume
//! preemption.

use crate::clock::CpuInstant;
use mrp_engine::{
    Cluster, ClusterConfig, DetectorConfig, FaultEvent, FaultKind, FaultPlan, JobSpec, MapInput,
    NodeId, ObsConfig, RackId, RandomFaults, ReliabilityConfig, SchedulerPolicy, ShuffleConfig,
    SpeculationConfig, SwapConfig, TaskProfile, TraceLevel,
};
use mrp_preempt::{EvictionPolicy, HfspScheduler, PreemptionPrimitive};
use mrp_sim::{SimRng, SimTime, GIB, MIB};
use mrp_workload::{dfs_backed, SwimConfig, SwimGenerator, TraceJob};

/// Virtual-time cap handed to `Cluster::run`; every workload drains long
/// before it.
pub const MAX_TIME: SimTime = SimTime::from_secs(24 * 3_600);

/// The `count` trace seeds of a run with seed `seed`: the seed itself (so
/// the default seed's first trace is the bench scenario's own trace), then
/// seeds derived from it.
pub fn trace_seeds(seed: u64, count: usize) -> Vec<u64> {
    (0..count as u64)
        .map(|k| seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect()
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The 10k-node / 100-rack SWIM trace of the `swim_cluster` bench with
    /// greedy placement: mostly launches, engine bookkeeping dominates, and
    /// delay, faults, shuffle and swap are all off.
    SwimGreedy,
    /// The same trace with delay scheduling at 1+1 heartbeat intervals:
    /// mostly declined offers, so policy decisions dominate.
    SwimDelay,
    /// `memory_pressure`'s full scenario replicated 32 times with the block
    /// swap device on: suspend/resume churn that pages task state through
    /// swap on every node.
    SwapPressure,
    /// `partition_detect` scaled five-fold with the whole failure-aware
    /// stack on: failure detector, partitions, gray failures, speculation,
    /// fault-tolerant shuffle and the reliability predictor.
    FaultStack,
}

/// Which shape of a workload to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The shape the benchmark measures.
    Full,
    /// A shrunken shape of the same workload, for tests.
    Smoke,
}

/// Everything the engine receives for one run.
pub struct Inputs {
    /// The cluster configuration.
    pub config: ClusterConfig,
    /// The jobs, each with its arrival time.
    pub jobs: Vec<TraceJob>,
    /// DFS input files: path, length, and the node writing the first replica.
    pub files: Vec<(String, u64, NodeId)>,
    /// Map plus reduce tasks over all jobs.
    pub tasks: u64,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 4] = [
        Workload::SwimGreedy,
        Workload::SwimDelay,
        Workload::SwapPressure,
        Workload::FaultStack,
    ];

    /// The name the command line and the result use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SwimGreedy => "swim_greedy",
            Workload::SwimDelay => "swim_delay",
            Workload::SwapPressure => "swap_pressure",
            Workload::FaultStack => "fault_stack",
        }
    }

    /// The workload called `name`, if there is one.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Traces one benchmark run simulates. Heavy-tailed SWIM job sizes make
    /// a single trace's makespan, tail sojourn and run time swing by 10-25%
    /// from seed to seed, so a run averages ten traces. `swim_delay` takes
    /// five, because one of its traces runs for over three seconds, and so
    /// does `swap_pressure`, whose seed only jitters arrivals.
    pub fn traces_per_run(self) -> usize {
        match self {
            Workload::SwimGreedy | Workload::FaultStack => 10,
            Workload::SwimDelay | Workload::SwapPressure => 5,
        }
    }

    /// The seed of the bench scenario the workload derives from; the
    /// default-seed figures in the README were taken on it.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::SwimGreedy | Workload::SwimDelay => 0x5717,
            Workload::SwapPressure => 11,
            Workload::FaultStack => 0xDE7EC7,
        }
    }

    /// A seed no tuning of the benchmark ran on, kept for checking a later
    /// claim on inputs it was not developed against.
    pub fn held_out_seed(self) -> u64 {
        match self {
            Workload::SwimGreedy | Workload::SwimDelay => 0x0BE5_5717,
            Workload::SwapPressure => 0x0BE5_0011,
            Workload::FaultStack => 0x0BE5_7EC7,
        }
    }

    /// Generates the workload's inputs from `seed`.
    pub fn generate(self, scale: Scale, seed: u64) -> Inputs {
        match self {
            Workload::SwimGreedy => swim(scale, seed, false),
            Workload::SwimDelay => swim(scale, seed, true),
            Workload::SwapPressure => swap_pressure(scale, seed),
            Workload::FaultStack => fault_stack(scale, seed),
        }
    }
}

/// HFSP with suspend/resume preemption and closest-to-completion eviction:
/// the policy every workload runs.
pub fn hfsp() -> Box<dyn SchedulerPolicy> {
    Box::new(HfspScheduler::new(
        PreemptionPrimitive::SuspendResume,
        EvictionPolicy::ClosestToCompletion,
    ))
}

/// CPU seconds of each setup phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Trace and configuration generation.
    pub generate: f64,
    /// `Cluster::new`.
    pub cluster_new: f64,
    /// `Cluster::create_input_file_from` for every input file.
    pub dfs_create: f64,
    /// `Cluster::submit_job_at` for every job.
    pub submit: f64,
}

impl SetupTimes {
    /// The whole setup.
    pub fn total(&self) -> f64 {
        self.generate + self.cluster_new + self.dfs_create + self.submit
    }
}

/// A cluster ready to run, and what setting it up cost.
pub struct Setup {
    /// The cluster, every job submitted.
    pub cluster: Cluster,
    /// CPU seconds of each setup phase.
    pub times: SetupTimes,
    /// Map plus reduce tasks in the trace.
    pub tasks: u64,
    /// Paths of the DFS input files.
    pub files: Vec<String>,
    /// Worst detection lag the failure detector may show: its timeout plus
    /// one heartbeat interval.
    pub lag_bound_secs: f64,
}

/// Generates `workload`'s inputs from `seed` and builds a cluster from them
/// under `policy`, observed as `obs` says.
pub fn setup(
    workload: Workload,
    scale: Scale,
    seed: u64,
    policy: Box<dyn SchedulerPolicy>,
    obs: ObsConfig,
) -> Setup {
    let (mut inputs, generate) = timed(|| workload.generate(scale, seed));
    inputs.config.obs = obs;
    let heartbeat = inputs.config.heartbeat_interval;
    let lag_bound_secs = (inputs.config.detector.timeout(heartbeat) + heartbeat).as_secs_f64();
    let (mut cluster, cluster_new) = timed(|| Cluster::new(inputs.config, policy));
    let ((), dfs_create) = timed(|| {
        for (path, len, writer) in &inputs.files {
            cluster
                .create_input_file_from(path, *len, Some(*writer))
                .expect("generated input paths are unique");
        }
    });
    let ((), submit) = timed(|| {
        for job in inputs.jobs {
            cluster.submit_job_at(job.spec, job.arrival);
        }
    });
    Setup {
        cluster,
        times: SetupTimes {
            generate,
            cluster_new,
            dfs_create,
            submit,
        },
        tasks: inputs.tasks,
        files: inputs.files.into_iter().map(|(path, _, _)| path).collect(),
        lag_bound_secs,
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = CpuInstant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The SWIM generator settings of the `swim_cluster` bench scenario, with
/// the knobs that set its scale left open.
fn swim_config(
    jobs: usize,
    mean_interarrival_secs: f64,
    min_job_bytes: u64,
    max_job_bytes: u64,
) -> SwimConfig {
    SwimConfig {
        jobs,
        mean_interarrival_secs,
        size_shape: 0.9,
        min_job_bytes,
        max_job_bytes,
        bytes_per_task: 128 * MIB,
        stateful_fraction: 0.05,
        stateful_memory: GIB,
        high_priority_fraction: 0.25,
        slow_fraction: 0.0,
        slow_parse_rate_bytes_per_sec: 1.5 * MIB as f64,
        slow_max_tasks: u32::MAX,
        reduce_ratio: 0.0,
        tenants: 1,
        best_effort_fraction: 0.0,
    }
}

/// The `swim_cluster` scenario: 100 racks of 100 nodes, 2,400 SWIM jobs
/// arriving every 0.06 s on average, inputs of 1 to 128 GiB in DFS files.
fn swim(scale: Scale, seed: u64, delay: bool) -> Inputs {
    let (racks, per_rack, swim) = match scale {
        Scale::Full => (100, 100, swim_config(2_400, 0.06, GIB, 128 * GIB)),
        Scale::Smoke => (8, 8, swim_config(60, 0.4, 256 * MIB, 8 * GIB)),
    };
    let mut config =
        ClusterConfig::racked_cluster(racks, per_rack, 2, 1).with_trace_level(TraceLevel::Off);
    if delay {
        config = config.with_delay_intervals(1.0, 1.0);
    }
    file_backed(config, SwimGenerator::new(swim, seed).generate(), "/swim")
}

/// `memory_pressure`'s full scenario — 16 nodes with two map slots and
/// 3 GiB of RAM, six batch jobs of 48 tasks holding 1.5 GiB of dirty state
/// each, 36 small queue-jumpers from 45 s on — replicated `copies` times
/// with the same per-node overcommit and `copies` times denser arrivals.
/// The seed jitters every arrival within its slot and seeds the cluster.
fn swap_pressure(scale: Scale, seed: u64) -> Inputs {
    let copies: u32 = match scale {
        Scale::Full => 32,
        Scale::Smoke => 1,
    };
    let mut config = ClusterConfig::small_cluster(16 * copies, 2, 1)
        .with_trace_level(TraceLevel::Off)
        .with_seed(seed)
        .with_swap(SwapConfig::enabled());
    for node in &mut config.nodes {
        node.os.memory.total_ram = 3 * GIB;
        node.os.memory.swap_capacity = 16 * GIB;
    }
    let mut rng = SimRng::new(seed);
    let mut jobs = Vec::new();
    let batch_every = 1.0 / f64::from(copies);
    for j in 0..6 * copies {
        jobs.push(TraceJob {
            arrival: SimTime::from_secs_f64(batch_every * (f64::from(j) + rng.unit())),
            spec: JobSpec::synthetic(format!("batch-{j:03}"), 48, 512 * MIB)
                .with_profile(TaskProfile::memory_hungry(1536 * MIB)),
        });
    }
    let small_every = 15.0 / f64::from(copies);
    for j in 0..36 * copies {
        jobs.push(TraceJob {
            arrival: SimTime::from_secs_f64(45.0 + small_every * (f64::from(j) + rng.unit())),
            spec: JobSpec::synthetic(format!("small-{j:04}"), 8, 64 * MIB),
        });
    }
    let tasks = jobs.iter().map(task_count).sum();
    Inputs {
        config,
        jobs,
        files: Vec::new(),
        tasks,
    }
}

/// `partition_detect`'s scenario scaled five-fold — 100 racks of 10 nodes,
/// 2,000 jobs arriving five times as fast — with the failure detector on.
/// The scripted faults are the bench's: a gray node, node partitions that
/// outlive and undercut the detector timeout, and the last rack dark for
/// 30 s; seeded per-rack churn comes on top.
fn fault_stack(scale: Scale, seed: u64) -> Inputs {
    let (racks, per_rack, jobs, interarrival, mtbf, recovery) = match scale {
        Scale::Full => (100, 10, 2_000, 0.4, 240.0, 60.0),
        Scale::Smoke => (6, 6, 70, 2.0, 180.0, 45.0),
    };
    let swim = SwimConfig {
        jobs,
        mean_interarrival_secs: interarrival,
        size_shape: 0.9,
        min_job_bytes: 512 * MIB,
        max_job_bytes: 24 * GIB,
        bytes_per_task: 128 * MIB,
        stateful_fraction: 0.1,
        stateful_memory: GIB,
        high_priority_fraction: 0.25,
        slow_fraction: 0.15,
        slow_parse_rate_bytes_per_sec: 1.6 * MIB as f64,
        slow_max_tasks: 8,
        reduce_ratio: 0.15,
        tenants: 1,
        best_effort_fraction: 0.0,
    };
    let mut faults = FaultPlan {
        random: Some(RandomFaults {
            rack_mtbf_secs: mtbf,
            mean_recovery_secs: Some(recovery),
            horizon: SimTime::from_secs(480),
            seed: seed ^ 0x9A7,
        }),
        ..FaultPlan::default()
    };
    let dark_rack = RackId(racks - 1);
    for (at, kind) in [
        (
            30,
            FaultKind::Gray {
                node: NodeId(3),
                slow_disk: 3.0,
                slow_net: 2.0,
            },
        ),
        (40, FaultKind::Partition { node: NodeId(1) }),
        (55, FaultKind::PartitionHeal { node: NodeId(1) }),
        (60, FaultKind::RackPartition { rack: dark_rack }),
        (90, FaultKind::RackPartitionHeal { rack: dark_rack }),
        (100, FaultKind::Partition { node: NodeId(2) }),
        (104, FaultKind::PartitionHeal { node: NodeId(2) }),
        (300, FaultKind::GrayHeal { node: NodeId(3) }),
    ] {
        faults.events.push(FaultEvent {
            at: SimTime::from_secs(at),
            kind,
        });
    }
    let config = ClusterConfig::racked_cluster(racks, per_rack, 2, 1)
        .with_trace_level(TraceLevel::Off)
        .with_speculation(SpeculationConfig::enabled())
        .with_shuffle(ShuffleConfig::fault_tolerant())
        .with_reliability(ReliabilityConfig::predictive())
        .with_faults(faults)
        .with_detector(DetectorConfig::enabled());
    file_backed(config, SwimGenerator::new(swim, seed).generate(), "/detect")
}

/// Turns a synthetic trace into DFS-file-backed jobs, spreading the files'
/// writers over the cluster the way the bench scenarios do.
fn file_backed(config: ClusterConfig, trace: Vec<TraceJob>, dir: &str) -> Inputs {
    let tasks = trace.iter().map(task_count).sum();
    let (jobs, files) = dfs_backed(&trace, dir);
    let nodes = config.node_count() as u64;
    let files = files
        .into_iter()
        .enumerate()
        .map(|(i, (path, len))| (path, len, NodeId((i as u64 * 37 % nodes) as u32)))
        .collect();
    Inputs {
        config,
        jobs,
        files,
        tasks,
    }
}

fn task_count(job: &TraceJob) -> u64 {
    let maps = match job.spec.input {
        MapInput::Synthetic { tasks, .. } => tasks,
        MapInput::DfsFile { .. } => 0,
    };
    u64::from(maps + job.spec.reduce_tasks)
}
