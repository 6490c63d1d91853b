//! Shared throughput-scenario definitions.
//!
//! The tracked scenarios (`sim_throughput`, `swim_cluster`, `fault_churn`,
//! `locality_delay`, `rack_outage`, `partition_detect`, `multi_tenant`)
//! live here so both the bench binaries and the CI
//! bench-regression gate (`check_bench`) run *exactly* the same workloads:
//! the gate compares fresh events/sec ratios against the checked-in
//! baselines, which is only meaningful when the scenarios are identical.

use mrp_engine::{
    Cluster, ClusterConfig, ClusterReport, DetectorConfig, FaultEvent, FaultKind, FaultPlan,
    JobSpec, NodeId, RackId, RandomFaults, ReliabilityConfig, SchedulerPolicy, ShuffleConfig,
    SpeculationConfig, TraceLevel,
};
use mrp_preempt::{EvictionPolicy, HfspScheduler, PreemptionPrimitive};
use mrp_sim::{SimTime, GIB, MIB};
use mrp_workload::{dfs_backed, SwimConfig, SwimGenerator};
use std::time::Instant;

/// What one scenario run produced: the full report, the number of events the
/// run loop handled, and the wall-clock seconds it took.
pub struct ScenarioOutcome {
    /// The end-of-run cluster report.
    pub report: ClusterReport,
    /// Events processed by `Cluster::run`.
    pub events: u64,
    /// Wall-clock seconds for the `Cluster::run` call alone.
    pub wall_secs: f64,
    /// The observability state, when the run was configured with
    /// [`mrp_engine::ObsConfig`] enabled (span trace, series, profile).
    pub obs: Option<Box<mrp_engine::ObsState>>,
}

impl ScenarioOutcome {
    /// Events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_secs
    }
}

fn timed_run(mut cluster: Cluster, max: SimTime, name: &str) -> ScenarioOutcome {
    let start = Instant::now();
    cluster.run(max);
    let wall_secs = start.elapsed().as_secs_f64();
    let obs = cluster.take_observability();
    let report = cluster.report();
    assert!(
        report.all_jobs_complete(),
        "{name} scenario must run to completion"
    );
    ScenarioOutcome {
        report,
        events: cluster.events_processed(),
        wall_secs,
        obs,
    }
}

/// Reads the `events_per_sec` field of a checked-in `BENCH_*.json`
/// baseline at the repository root, if present and parseable.
pub fn baseline_events_per_sec(file: &str) -> Option<f64> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../{file}"));
    let text = std::fs::read_to_string(path).ok()?;
    mrp_preempt::json::Json::parse(&text)
        .ok()?
        .get("events_per_sec")?
        .as_f64()
}

/// The default HFSP suspend/resume policy the throughput scenarios use.
pub fn hfsp() -> Box<dyn SchedulerPolicy> {
    Box::new(HfspScheduler::new(
        PreemptionPrimitive::SuspendResume,
        EvictionPolicy::ClosestToCompletion,
    ))
}

/// The 200-node / 4000-task suspend-churn scenario behind the
/// `sim_throughput` bench.
pub mod sim_throughput {
    use super::*;

    /// Cluster nodes.
    pub const NODES: u32 = 200;
    /// Map slots per node.
    pub const MAP_SLOTS: u32 = 2;
    /// Number of big batch jobs.
    pub const BIG_JOBS: u32 = 20;
    /// Map tasks per batch job.
    pub const BIG_JOB_TASKS: u32 = 180;
    /// Number of small latency-sensitive jobs.
    pub const SMALL_JOBS: u32 = 40;
    /// Map tasks per small job.
    pub const SMALL_JOB_TASKS: u32 = 10;
    /// Input bytes per batch map task.
    pub const BYTES_PER_TASK: u64 = 64 * 1024 * 1024;
    /// Total map tasks in the scenario.
    pub const TOTAL_TASKS: u32 = BIG_JOBS * BIG_JOB_TASKS + SMALL_JOBS * SMALL_JOB_TASKS;

    /// The scenario's cluster configuration (tracing off).
    pub fn config() -> ClusterConfig {
        ClusterConfig::small_cluster(NODES, MAP_SLOTS, 1).with_trace_level(TraceLevel::Off)
    }

    /// Submits the churn workload: batch jobs saturate every slot, then a
    /// stream of small jobs arrives and HFSP preempts batch tasks to run
    /// them.
    pub fn submit_workload(cluster: &mut Cluster) {
        for i in 0..BIG_JOBS {
            cluster.submit_job_at(
                JobSpec::synthetic(format!("batch-{i:02}"), BIG_JOB_TASKS, BYTES_PER_TASK),
                SimTime::from_secs(u64::from(i)),
            );
        }
        for i in 0..SMALL_JOBS {
            cluster.submit_job_at(
                JobSpec::synthetic(format!("small-{i:02}"), SMALL_JOB_TASKS, BYTES_PER_TASK / 4),
                SimTime::from_secs(20 + 7 * u64::from(i)),
            );
        }
    }

    /// Runs the scenario under the given policy.
    pub fn run(scheduler: Box<dyn SchedulerPolicy>) -> ScenarioOutcome {
        run_with_config(scheduler, |_| {})
    }

    /// Runs the scenario with a configuration tweak applied first (the
    /// observability-overhead gate switches `ObsConfig` on this way, so
    /// the obs-on and obs-off runs share one workload and seed).
    pub fn run_with_config(
        scheduler: Box<dyn SchedulerPolicy>,
        tweak: impl FnOnce(&mut ClusterConfig),
    ) -> ScenarioOutcome {
        let mut cfg = config();
        tweak(&mut cfg);
        let mut cluster = Cluster::new(cfg, scheduler);
        submit_workload(&mut cluster);
        timed_run(cluster, SimTime::from_secs(24 * 3_600), "sim_throughput")
    }
}

/// The 10k-node / 100-rack SWIM-trace scenario behind the `swim_cluster`
/// bench.
pub mod swim_cluster {
    use super::*;

    /// Scenario shape; [`SwimScenario::small`] is the CI smoke variant.
    pub struct SwimScenario {
        /// Number of racks.
        pub racks: u32,
        /// Nodes per rack.
        pub nodes_per_rack: u32,
        /// Map slots per node.
        pub map_slots: u32,
        /// Jobs in the SWIM trace.
        pub jobs: usize,
        /// Smallest job input size.
        pub min_job_bytes: u64,
        /// Largest job input size.
        pub max_job_bytes: u64,
        /// Mean job inter-arrival time in seconds.
        pub mean_interarrival_secs: f64,
        /// Sanity floor on the generated map-task count.
        pub min_tasks: usize,
        /// Trace seed.
        pub seed: u64,
    }

    impl SwimScenario {
        /// The full 10,000-node scenario (the tracked baseline).
        pub fn full() -> Self {
            SwimScenario {
                racks: 100,
                nodes_per_rack: 100,
                map_slots: 2,
                jobs: 2_400,
                min_job_bytes: GIB,
                max_job_bytes: 128 * GIB,
                // Total work ~= tasks x 23s over 20k slots ~= 120s saturated;
                // arrivals paced slightly faster than drain keeps a
                // preemption-heavy backlog without collapsing into one giant
                // batch.
                mean_interarrival_secs: 0.06,
                min_tasks: 100_000,
                seed: 0x5717,
            }
        }

        /// The shrunken 64-node CI smoke variant.
        pub fn small() -> Self {
            SwimScenario {
                racks: 8,
                nodes_per_rack: 8,
                map_slots: 2,
                jobs: 60,
                min_job_bytes: 256 * MIB,
                max_job_bytes: 8 * GIB,
                mean_interarrival_secs: 0.4,
                min_tasks: 200,
                seed: 0x5717,
            }
        }

        /// Total cluster nodes.
        pub fn nodes(&self) -> u32 {
            self.racks * self.nodes_per_rack
        }

        /// The SWIM generator configuration for this shape.
        pub fn swim_config(&self) -> SwimConfig {
            SwimConfig {
                jobs: self.jobs,
                mean_interarrival_secs: self.mean_interarrival_secs,
                size_shape: 0.9,
                min_job_bytes: self.min_job_bytes,
                max_job_bytes: self.max_job_bytes,
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

        /// Runs the scenario once (HFSP suspend/resume, DFS-backed inputs).
        pub fn run(&self) -> ScenarioOutcome {
            self.run_with_config(|_| {})
        }

        /// Runs the scenario with a configuration tweak applied before the
        /// cluster is built (the `locality_delay` scenario switches delay
        /// scheduling on this way, so both scenarios share one workload).
        pub fn run_with_config(&self, tweak: impl FnOnce(&mut ClusterConfig)) -> ScenarioOutcome {
            let mut cfg =
                ClusterConfig::racked_cluster(self.racks, self.nodes_per_rack, self.map_slots, 1)
                    .with_trace_level(TraceLevel::Off);
            tweak(&mut cfg);
            let mut cluster = Cluster::new(cfg, hfsp());
            let trace = SwimGenerator::new(self.swim_config(), self.seed).generate();
            let (jobs, files) = dfs_backed(&trace, "/swim");
            let n = u64::from(self.nodes());
            for (i, (path, bytes)) in files.iter().enumerate() {
                let writer = NodeId(((i as u64 * 37) % n) as u32);
                cluster
                    .create_input_file_from(path, *bytes, Some(writer))
                    .expect("swim input files are unique");
            }
            for job in jobs {
                cluster.submit_job_at(job.spec, job.arrival);
            }
            timed_run(cluster, SimTime::from_secs(24 * 3_600), "swim_cluster")
        }
    }
}

/// The delay-scheduling scenario behind the `locality_delay` bench: the
/// `swim_cluster`-shaped workload (multi-rack SWIM trace, DFS-backed inputs,
/// HFSP suspend/resume) run twice on the same seed — greedy placement vs
/// delay scheduling at 1+1 heartbeat intervals — so the bench can record the
/// node-local-rate gain and the makespan cost side by side.
pub mod locality_delay {
    use super::swim_cluster::SwimScenario;
    use super::*;

    /// Wait for a node-local slot, in heartbeat intervals.
    pub const NODE_WAIT_INTERVALS: f64 = 1.0;
    /// Additional wait for a rack-local slot, in heartbeat intervals.
    pub const RACK_WAIT_INTERVALS: f64 = 1.0;

    /// The tracked full shape: a 2,000-node / 40-rack slice of the
    /// `swim_cluster` workload at moderate (rather than collapse-level)
    /// backlog. Large enough that strict HFSP order shows the same
    /// sub-percent node-local rate as the 10k-node scenario, small enough
    /// that `check_bench` can afford the delay-on/off pair, and paced so
    /// the delayed run's per-event cost stays within the 3x bar (a deeper
    /// backlog multiplies declining-job scans per free slot).
    pub fn full() -> SwimScenario {
        SwimScenario {
            racks: 40,
            nodes_per_rack: 50,
            map_slots: 2,
            jobs: 500,
            min_job_bytes: GIB,
            max_job_bytes: 64 * GIB,
            mean_interarrival_secs: 0.6,
            min_tasks: 15_000,
            seed: 0x10CA1,
        }
    }

    /// The shrunken CI smoke variant (64 nodes).
    pub fn small() -> SwimScenario {
        SwimScenario {
            racks: 8,
            nodes_per_rack: 8,
            map_slots: 2,
            jobs: 60,
            min_job_bytes: 256 * MIB,
            max_job_bytes: 8 * GIB,
            mean_interarrival_secs: 0.4,
            min_tasks: 200,
            seed: 0x10CA1,
        }
    }

    /// Runs the scenario with delay scheduling on or off (same seed, same
    /// workload — the only difference is `ClusterConfig::delay`).
    pub fn run(sc: &SwimScenario, delay: bool) -> ScenarioOutcome {
        sc.run_with_config(|cfg| {
            if delay {
                *cfg = cfg
                    .clone()
                    .with_delay_intervals(NODE_WAIT_INTERVALS, RACK_WAIT_INTERVALS);
            }
        })
    }
}

/// The rack-outage scenario behind the `rack_outage` bench: fault-tolerant
/// shuffle plus the ATLAS-style reliability predictor under the loss of a
/// whole rack mid-trace. The scenario itself lives in
/// `mrp_experiments::RackOutageConfig` so the bench, the CI gate and the
/// experiments crate run exactly the same workload; this module pins the
/// tracked full/smoke shapes and adds wall-clock timing.
pub mod rack_outage {
    use super::*;
    pub use mrp_experiments::{run_rack_outage, OutageWindow, RackOutageConfig, RackOutageOutcome};

    /// One timed rack-outage run.
    pub struct RackOutageRun {
        /// The scenario outcome (report, fault counters, sojourn quantiles).
        pub outcome: RackOutageOutcome,
        /// Wall-clock seconds for the run (SWIM generation included; it is
        /// negligible against the event loop at these shapes).
        pub wall_secs: f64,
    }

    impl RackOutageRun {
        /// Events per wall-clock second.
        pub fn events_per_sec(&self) -> f64 {
            self.outcome.events as f64 / self.wall_secs
        }

        /// p99 job sojourn time in seconds.
        pub fn p99_sojourn_secs(&self) -> f64 {
            self.outcome.sojourn_quantiles[2]
        }
    }

    /// The tracked full shape: 72 nodes across 6 racks under a
    /// reduce-heavy SWIM trace at moderate utilisation, with rack 1 a
    /// *repeat offender* — dark twice, rejoining in between — plus light
    /// background churn. The repeat offence is what the reliability
    /// predictor is for: between the windows the rack is up but still
    /// flaky, and predictor-off re-populates it with map outputs (roughly
    /// a sixth of the cluster's) that the second outage then destroys; the
    /// utilisation leaves enough slack elsewhere that declining flaky
    /// slots costs little.
    pub fn full() -> RackOutageConfig {
        RackOutageConfig {
            racks: 6,
            nodes_per_rack: 12,
            map_slots: 2,
            reduce_slots: 1,
            swim: SwimConfig {
                jobs: 240,
                mean_interarrival_secs: 4.5,
                size_shape: 0.9,
                min_job_bytes: 512 * MIB,
                max_job_bytes: 24 * GIB,
                reduce_ratio: 0.4,
                ..SwimConfig::default()
            },
            outage_rack: 1,
            outages: vec![
                OutageWindow::from_secs(120, 300),
                OutageWindow::from_secs(390, 540),
            ],
            churn: Some(RandomFaults {
                rack_mtbf_secs: 300.0,
                mean_recovery_secs: Some(45.0),
                horizon: SimTime::from_secs(600),
                seed: 0xACED,
            }),
            predictor: true,
            seed: 0x0A7A,
        }
    }

    /// The shrunken CI smoke variant (24 nodes; the experiments crate's
    /// compact scenario).
    pub fn small() -> RackOutageConfig {
        RackOutageConfig::compact()
    }

    /// Runs the scenario once with the predictor forced on or off.
    pub fn run(config: &RackOutageConfig, predictor: bool) -> RackOutageRun {
        let mut config = config.clone();
        config.predictor = predictor;
        let start = Instant::now();
        let outcome = run_rack_outage(&config);
        RackOutageRun {
            outcome,
            wall_secs: start.elapsed().as_secs_f64(),
        }
    }
}

/// The failure-detection scenario behind the `partition_detect` bench: a
/// multi-rack cluster under random churn with the suspicion-based failure
/// detector on, plus scripted network partitions (one whole rack dark past
/// the timeout, a node-scoped partition that outlives it, one that heals
/// before it) and a gray-failing node — with speculation,
/// fault-tolerant shuffle and the reliability predictor all enabled, so the
/// detector runs over the full robustness stack. Every run (smoke included)
/// asserts the quality bars the PR's acceptance criteria pin:
/// first-commit-wins reconciliation never double-commits a task, and
/// detection lag never exceeds the timeout plus one heartbeat interval.
pub mod partition_detect {
    use super::*;

    /// Scenario shape; [`PartitionDetectScenario::small`] is the CI smoke
    /// variant.
    pub struct PartitionDetectScenario {
        /// Number of racks.
        pub racks: u32,
        /// Nodes per rack.
        pub nodes_per_rack: u32,
        /// Map slots per node.
        pub map_slots: u32,
        /// Jobs in the SWIM trace.
        pub jobs: usize,
        /// Mean job inter-arrival time in seconds.
        pub mean_interarrival_secs: f64,
        /// Per-rack mean time between node failures, seconds (the random
        /// churn the detector observes with lag).
        pub rack_mtbf_secs: f64,
        /// Mean node downtime before rejoin, seconds.
        pub mean_recovery_secs: f64,
        /// No random failures after this virtual time.
        pub fault_horizon: SimTime,
        /// Trace seed (workload and fault draws derive from it).
        pub seed: u64,
    }

    impl PartitionDetectScenario {
        /// The tracked full shape: 200 nodes across 20 racks at moderate
        /// utilisation with a reduce share (so partitions strand shuffle
        /// fetches, not just map slots).
        pub fn full() -> Self {
            PartitionDetectScenario {
                racks: 20,
                nodes_per_rack: 10,
                map_slots: 2,
                jobs: 400,
                mean_interarrival_secs: 2.0,
                rack_mtbf_secs: 240.0,
                mean_recovery_secs: 60.0,
                fault_horizon: SimTime::from_secs(480),
                seed: 0xDE7EC7,
            }
        }

        /// The shrunken CI smoke variant (36 nodes).
        pub fn small() -> Self {
            PartitionDetectScenario {
                racks: 6,
                nodes_per_rack: 6,
                map_slots: 2,
                jobs: 70,
                mean_interarrival_secs: 2.0,
                rack_mtbf_secs: 180.0,
                mean_recovery_secs: 45.0,
                fault_horizon: SimTime::from_secs(480),
                seed: 0xDE7EC7,
            }
        }

        /// Total cluster nodes.
        pub fn nodes(&self) -> u32 {
            self.racks * self.nodes_per_rack
        }

        /// The SWIM generator configuration for this shape.
        pub fn swim_config(&self) -> SwimConfig {
            SwimConfig {
                jobs: self.jobs,
                mean_interarrival_secs: self.mean_interarrival_secs,
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
                // Reduces make partitions strand shuffle fetches too, which
                // is what the fault-tolerant shuffle + detector combination
                // is for. Kept to a modest share: fault-tolerant shuffle
                // bookkeeping dominates per-event cost, and a heavier mix
                // would drag events/sec under the 1/3 acceptance bar.
                reduce_ratio: 0.15,
                tenants: 1,
                best_effort_fraction: 0.0,
            }
        }

        /// The cluster configuration with the detector on or off (same
        /// workload, same fault plan — the ablation the bench prints).
        ///
        /// The scripted plan: rack `racks-1` is partitioned for 30s (torn
        /// down after the timeout, healed with first-commit-wins
        /// reconciliation); node 1 is partitioned past the timeout and node 2
        /// briefly (healed before suspicion fires — no penalty); node 3 gray-
        /// fails (disk x3, net x2) and recovers late in the run.
        pub fn config(&self, detector: bool) -> ClusterConfig {
            let mut faults = FaultPlan {
                random: Some(RandomFaults {
                    rack_mtbf_secs: self.rack_mtbf_secs,
                    mean_recovery_secs: Some(self.mean_recovery_secs),
                    horizon: self.fault_horizon,
                    seed: self.seed ^ 0x9A7,
                }),
                ..FaultPlan::default()
            };
            let dark_rack = RackId(self.racks - 1);
            for (at, kind) in [
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
                // master's re-runs — first-commit-wins gets exercised in
                // both directions (commits and discards).
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
            let cfg =
                ClusterConfig::racked_cluster(self.racks, self.nodes_per_rack, self.map_slots, 1)
                    .with_trace_level(TraceLevel::Off)
                    .with_speculation(SpeculationConfig::enabled())
                    .with_shuffle(ShuffleConfig::fault_tolerant())
                    .with_reliability(ReliabilityConfig::predictive())
                    .with_faults(faults);
            if detector {
                cfg.with_detector(DetectorConfig::enabled())
            } else {
                cfg
            }
        }

        /// The acceptance bound on observed detection lag: the detector
        /// timeout plus one heartbeat interval (suspicion timers anchor on
        /// the last heartbeat actually received, which is at most one
        /// interval before the fault).
        pub fn lag_bound_secs(&self) -> f64 {
            let cfg = self.config(true);
            (cfg.detector.timeout(cfg.heartbeat_interval) + cfg.heartbeat_interval).as_secs_f64()
        }

        /// Runs the scenario once (HFSP suspend/resume, DFS-backed inputs).
        pub fn run(&self, detector: bool) -> ScenarioOutcome {
            let mut cluster = Cluster::new(self.config(detector), hfsp());
            let trace = SwimGenerator::new(self.swim_config(), self.seed).generate();
            let (jobs, files) = dfs_backed(&trace, "/detect");
            let n = u64::from(self.nodes());
            for (i, (path, bytes)) in files.iter().enumerate() {
                let writer = NodeId(((i as u64 * 37) % n) as u32);
                cluster
                    .create_input_file_from(path, *bytes, Some(writer))
                    .expect("detect input files are unique");
            }
            for job in jobs {
                cluster.submit_job_at(job.spec, job.arrival);
            }
            timed_run(cluster, SimTime::from_secs(24 * 3_600), "partition_detect")
        }
    }

    /// Panics unless a detector-on outcome satisfies the scenario's quality
    /// bars (shared by the bench binary; `check_bench` enforces the same
    /// conditions as an exit-code gate).
    pub fn assert_quality(sc: &PartitionDetectScenario, outcome: &ScenarioOutcome) {
        let f = &outcome.report.faults;
        assert_eq!(
            f.duplicate_commits, 0,
            "first-commit-wins must never double-commit a task: {f:?}"
        );
        assert!(
            f.detection_lag_secs_max <= sc.lag_bound_secs() + 1e-9,
            "detection lag {:.3}s exceeds the {:.1}s bound: {f:?}",
            f.detection_lag_secs_max,
            sc.lag_bound_secs()
        );
        assert!(
            f.nodes_suspected >= 1 && f.failures_detected >= 1,
            "the detector must observe churn and partitions: {f:?}"
        );
        assert!(
            f.partitions >= 2 && f.partition_heals >= 1 && f.partition_heals <= f.partitions,
            "scripted partitions must strike and heal: {f:?}"
        );
        assert!(
            f.reconciled_commits + f.reconciled_discards >= 1,
            "healed partitions must reconcile buffered completions: {f:?}"
        );
        assert!(
            f.gray_failures >= 1 && f.gray_heals >= 1,
            "the gray failure must strike and heal: {f:?}"
        );
    }
}

/// The multi-tenant DRF scenario behind the `multi_tenant` bench: the
/// `MultiTenantScheduler` (`allocate` under DRF job order, quota
/// `reclaim` via kill or OS-assisted suspend, best-effort `backfill`) on a
/// three-tenant cluster with a saturating burst, staggered per-tenant
/// streams and a scavenger class. The scenario itself lives in
/// `mrp_experiments::TenantScenarioConfig` so the bench, the CI gate and
/// the experiments crate run exactly the same workload; this module pins
/// the tracked full/smoke shapes, adds wall-clock timing, and carries the
/// quality bars (DRF quota adherence, suspend-beats-kill on lost work,
/// backfill liveness) shared by the bench binary and `check_bench`.
pub mod multi_tenant {
    use super::*;
    pub use mrp_experiments::{run_tenant_scenario, TenantScenarioConfig, TenantScenarioOutcome};

    /// The tracked full shape: 40 nodes / 80 map slots, weighted tenants
    /// (2:1:1), ~900 s of arrivals.
    pub fn full() -> TenantScenarioConfig {
        TenantScenarioConfig::full(PreemptionPrimitive::SuspendResume)
    }

    /// The shrunken CI smoke variant (8 nodes, equal weights).
    pub fn small() -> TenantScenarioConfig {
        TenantScenarioConfig::compact(PreemptionPrimitive::SuspendResume)
    }

    /// One timed multi-tenant run.
    pub struct TenantRun {
        /// The scenario outcome (per-tenant shares, lost work, backfill
        /// liveness, event count).
        pub outcome: TenantScenarioOutcome,
        /// Wall-clock seconds for the run (workload submission included; it
        /// is negligible against the event loop at these shapes).
        pub wall_secs: f64,
    }

    impl TenantRun {
        /// Events per wall-clock second.
        pub fn events_per_sec(&self) -> f64 {
            self.outcome.events_processed as f64 / self.wall_secs
        }
    }

    /// Runs the scenario once with reclaim evicting via the given
    /// primitive — same seed, same workload, only the eviction mechanism
    /// differs between calls.
    pub fn run(config: &TenantScenarioConfig, primitive: PreemptionPrimitive) -> TenantRun {
        let config = TenantScenarioConfig {
            primitive,
            ..config.clone()
        };
        let start = Instant::now();
        let outcome = run_tenant_scenario(&config);
        TenantRun {
            outcome,
            wall_secs: start.elapsed().as_secs_f64(),
        }
    }

    /// Panics unless a same-seed suspend/kill pair satisfies the scenario's
    /// quality bars (shared by the bench binary; `check_bench` enforces the
    /// same conditions as an exit-code gate):
    ///
    /// 1. **DRF quota adherence** — at steady state, no tenant's mean
    ///    dominant share exceeds its quota by more than 5 percentage points
    ///    while another tenant is starved;
    /// 2. **reclaim liveness** — suspension-based reclaim actually evicts
    ///    (`suspend_cycles >= 1`);
    /// 3. **the paper's trade-off** — suspend-based reclaim strictly beats
    ///    kill-based on lost work on the same seed, and kill's loss is real;
    /// 4. **backfill liveness** — every best-effort job completes.
    pub fn assert_quality(suspend: &TenantScenarioOutcome, kill: &TenantScenarioOutcome) {
        for s in &suspend.shares {
            assert!(
                s.mean_excess_over_quota <= 0.05,
                "DRF gate: tenant {} holds {:.3} above its {:.3} quota while others starve \
                 (bar: 0.05)",
                s.tenant,
                s.mean_excess_over_quota,
                s.quota
            );
        }
        assert!(
            suspend.suspend_cycles >= 1,
            "reclaim must actually fire under contention"
        );
        assert!(
            kill.lost_work_secs > 0.0,
            "kill-based reclaim must waste accrued progress on this workload"
        );
        assert!(
            suspend.lost_work_secs < kill.lost_work_secs,
            "suspend-based reclaim must strictly beat kill on lost work: \
             {:.1}s vs {:.1}s",
            suspend.lost_work_secs,
            kill.lost_work_secs
        );
        assert_eq!(
            suspend.best_effort_completed, suspend.best_effort_jobs,
            "backfill must drain the best-effort class"
        );
    }
}

/// The fault-injection churn scenario behind the `fault_churn` bench: a
/// 200-node multi-rack cluster under HFSP suspend/resume preemption churn
/// *and* seeded random node failures (plus a scripted rack outage and a
/// decommission), with speculative re-execution togglable so the bench can
/// measure its tail-latency payoff on the same seed.
pub mod fault_churn {
    use super::*;

    /// Scenario shape; [`FaultChurnScenario::small`] is the CI smoke variant.
    pub struct FaultChurnScenario {
        /// Number of racks.
        pub racks: u32,
        /// Nodes per rack.
        pub nodes_per_rack: u32,
        /// Map slots per node.
        pub map_slots: u32,
        /// Jobs in the SWIM trace.
        pub jobs: usize,
        /// Mean job inter-arrival time in seconds.
        pub mean_interarrival_secs: f64,
        /// Per-rack mean time between node failures, seconds.
        pub rack_mtbf_secs: f64,
        /// Mean node downtime before rejoin, seconds.
        pub mean_recovery_secs: f64,
        /// No random failures after this virtual time.
        pub fault_horizon: SimTime,
        /// Whether speculative re-execution is enabled.
        pub speculation: bool,
        /// Fraction of jobs whose tasks parse slowly (straggler population).
        pub slow_fraction: f64,
        /// Parse rate of slow jobs' tasks, bytes/second.
        pub slow_parse_rate_bytes_per_sec: f64,
        /// Trace seed (workload and fault draws derive from it).
        pub seed: u64,
    }

    impl FaultChurnScenario {
        /// The full 1000-node scenario (the tracked baseline): ~50 racks of
        /// churn with a rack MTBF short enough that hundreds of nodes fail
        /// (and rejoin) over the run, at ~0.8 utilisation so preemption,
        /// stranded suspended tasks and idle backup slots all coexist.
        pub fn full() -> Self {
            FaultChurnScenario {
                racks: 50,
                nodes_per_rack: 20,
                map_slots: 2,
                jobs: 1_200,
                mean_interarrival_secs: 0.3,
                rack_mtbf_secs: 90.0,
                mean_recovery_secs: 45.0,
                fault_horizon: SimTime::from_secs(600),
                speculation: true,
                slow_fraction: 0.15,
                slow_parse_rate_bytes_per_sec: 1.6 * MIB as f64,
                seed: 0xFA17,
            }
        }

        /// The shrunken CI smoke variant (100 nodes).
        pub fn small() -> Self {
            FaultChurnScenario {
                racks: 10,
                nodes_per_rack: 10,
                map_slots: 2,
                jobs: 150,
                mean_interarrival_secs: 2.2,
                rack_mtbf_secs: 60.0,
                mean_recovery_secs: 45.0,
                fault_horizon: SimTime::from_secs(600),
                speculation: true,
                slow_fraction: 0.15,
                slow_parse_rate_bytes_per_sec: 1.6 * MIB as f64,
                seed: 0xFA17,
            }
        }

        /// Total cluster nodes.
        pub fn nodes(&self) -> u32 {
            self.racks * self.nodes_per_rack
        }

        /// The SWIM generator configuration for this shape.
        pub fn swim_config(&self) -> SwimConfig {
            SwimConfig {
                jobs: self.jobs,
                mean_interarrival_secs: self.mean_interarrival_secs,
                size_shape: 0.9,
                min_job_bytes: 512 * MIB,
                max_job_bytes: 24 * GIB,
                bytes_per_task: 128 * MIB,
                stateful_fraction: 0.1,
                stateful_memory: GIB,
                high_priority_fraction: 0.25,
                // Slow jobs' long tasks pin slots, strand suspended
                // neighbours, and form the straggler population speculative
                // re-execution is for.
                slow_fraction: self.slow_fraction,
                slow_parse_rate_bytes_per_sec: self.slow_parse_rate_bytes_per_sec,
                slow_max_tasks: 8,
                reduce_ratio: 0.0,
                tenants: 1,
                best_effort_fraction: 0.0,
            }
        }

        /// The cluster configuration: SWIM churn plus the fault plan (random
        /// per-rack MTBF churn with rejoins, a scripted whole-rack outage,
        /// and an administrative decommission).
        pub fn config(&self) -> ClusterConfig {
            let faults = FaultPlan {
                random: Some(RandomFaults {
                    rack_mtbf_secs: self.rack_mtbf_secs,
                    mean_recovery_secs: Some(self.mean_recovery_secs),
                    horizon: self.fault_horizon,
                    seed: self.seed ^ 0xDEAD,
                }),
                events: vec![
                    FaultEvent {
                        at: SimTime::from_secs(45),
                        kind: FaultKind::RackOutage {
                            rack: RackId(self.racks - 1),
                        },
                    },
                    FaultEvent {
                        at: SimTime::from_secs(90),
                        kind: FaultKind::RackRejoin {
                            rack: RackId(self.racks - 1),
                        },
                    },
                    FaultEvent {
                        at: SimTime::from_secs(30),
                        kind: FaultKind::Decommission { node: NodeId(0) },
                    },
                ],
            };
            let cfg =
                ClusterConfig::racked_cluster(self.racks, self.nodes_per_rack, self.map_slots, 1)
                    .with_trace_level(TraceLevel::Off)
                    .with_faults(faults);
            if self.speculation {
                cfg.with_speculation(SpeculationConfig::enabled())
            } else {
                cfg
            }
        }

        /// Runs the scenario once (HFSP suspend/resume, DFS-backed inputs).
        pub fn run(&self) -> ScenarioOutcome {
            let mut cluster = Cluster::new(self.config(), hfsp());
            let trace = SwimGenerator::new(self.swim_config(), self.seed).generate();
            let (jobs, files) = dfs_backed(&trace, "/churn");
            let n = u64::from(self.nodes());
            for (i, (path, bytes)) in files.iter().enumerate() {
                let writer = NodeId(((i as u64 * 37) % n) as u32);
                cluster
                    .create_input_file_from(path, *bytes, Some(writer))
                    .expect("churn input files are unique");
            }
            for job in jobs {
                cluster.submit_job_at(job.spec, job.arrival);
            }
            timed_run(cluster, SimTime::from_secs(24 * 3_600), "fault_churn")
        }
    }
}

/// The memory-pressure scenario behind the `memory_pressure` bench: the
/// block-granular swap-device model under real suspend/resume churn.
/// Memory-hungry batch jobs saturate every map slot of a 16-node cluster
/// while a stream of small HFSP queue-jumpers keeps suspending them, so
/// each node's resident sets cycle through swap continuously. The scenario
/// itself lives in `mrp_experiments::MemoryPressureConfig` so the bench,
/// the CI gate and the experiments crate run exactly the same workload;
/// this module pins the tracked full/smoke shapes, adds wall-clock timing,
/// and carries the quality bars (lazy resume strictly cheaper than eager,
/// calm variant never thrashes, resume cost not flat in state size) shared
/// by the bench binary and `check_bench`.
pub mod memory_pressure {
    use super::*;
    use mrp_engine::SwapConfig;
    pub use mrp_experiments::{
        resume_ablation, resume_cost_curve, run_memory_pressure, MemoryPressureConfig,
        MemoryPressureOutcome, ResumeCostPoint,
    };

    /// The tracked full shape: 16 nodes / 32 map slots, 1.5 GiB of dirty
    /// state per batch task on 3 GiB nodes, ~36 queue-jumping arrivals.
    pub fn full() -> MemoryPressureConfig {
        MemoryPressureConfig::full(SwapConfig::enabled())
    }

    /// The shrunken CI smoke variant (4 nodes, 2 batch jobs).
    pub fn small() -> MemoryPressureConfig {
        MemoryPressureConfig::small(SwapConfig::enabled())
    }

    /// The state sizes the resume-cost curve sweeps (the bench records the
    /// per-cycle swap-in bytes at each point and gates on growth).
    pub const CURVE_STATES: [u64; 3] = [512 * MIB, GIB, 1536 * MIB];

    /// One timed memory-pressure run.
    pub struct PressureRun {
        /// The scenario outcome (swap traffic, thrash/OOM counters, the
        /// full report).
        pub outcome: MemoryPressureOutcome,
        /// Wall-clock seconds for the run (workload submission included; it
        /// is negligible against the event loop at these shapes).
        pub wall_secs: f64,
    }

    impl PressureRun {
        /// Events per wall-clock second.
        pub fn events_per_sec(&self) -> f64 {
            self.outcome.events_processed as f64 / self.wall_secs
        }
    }

    /// Runs the scenario once with the given swap-device knobs — same seed,
    /// same workload, only the resume policy differs between calls.
    pub fn run(config: &MemoryPressureConfig, swap: SwapConfig) -> PressureRun {
        let config = MemoryPressureConfig {
            swap,
            ..config.clone()
        };
        let start = Instant::now();
        let outcome = run_memory_pressure(&config);
        PressureRun {
            outcome,
            wall_secs: start.elapsed().as_secs_f64(),
        }
    }

    /// Panics unless a same-seed eager/lazy pair plus the calm variant and
    /// the resume-cost curve satisfy the scenario's quality bars (shared by
    /// the bench binary; `check_bench` enforces the same conditions as an
    /// exit-code gate):
    ///
    /// 1. **churn liveness** — the small jobs actually suspend batch tasks
    ///    and real state pages out (`suspend_cycles`, `swap_out_bytes`);
    /// 2. **lazy beats eager** — lazy resume reads strictly fewer swap
    ///    bytes than eager on the same seed (pages never touched again are
    ///    never read back);
    /// 3. **no false thrash** — the calm (non-overcommitted) variant keeps
    ///    the kernel's `thrash_events` counter at exactly zero;
    /// 4. **cost is not flat** — per-cycle swap-in bytes strictly grow from
    ///    the smallest to the largest state size on the curve;
    /// 5. **disk contention bites** — with one node killed, giving its
    ///    re-replication traffic a bandwidth share (`fault_share`) must
    ///    spend strictly more virtual time on swap I/O than the same fault
    ///    with share zero (`fault_only`): same byte flow, shared spindle.
    pub fn assert_quality(
        eager: &MemoryPressureOutcome,
        lazy: &MemoryPressureOutcome,
        calm: &MemoryPressureOutcome,
        curve: &[ResumeCostPoint],
        fault_only: &MemoryPressureOutcome,
        fault_share: &MemoryPressureOutcome,
    ) {
        assert!(
            eager.suspend_cycles >= 4,
            "queue-jumpers must keep suspending batch tasks, got {} cycles",
            eager.suspend_cycles
        );
        assert!(
            eager.swap_out_bytes > GIB,
            "suspended resident sets must page out, got {} bytes",
            eager.swap_out_bytes
        );
        assert!(
            lazy.swap_in_bytes < eager.swap_in_bytes,
            "lazy-resume gate: lazy must read strictly fewer swap bytes \
             ({} vs eager {})",
            lazy.swap_in_bytes,
            eager.swap_in_bytes
        );
        assert_eq!(
            calm.thrash_events, 0,
            "thrash gate: the non-overcommitted variant must never thrash"
        );
        let (first, last) = (
            curve.first().expect("curve has points"),
            curve.last().expect("curve has points"),
        );
        assert!(
            last.swap_in_per_cycle > first.swap_in_per_cycle,
            "cost-curve gate: resume cost must grow with the resident set \
             ({:.0} bytes/cycle at {} MiB vs {:.0} at {} MiB)",
            first.swap_in_per_cycle,
            first.state_memory / MIB,
            last.swap_in_per_cycle,
            last.state_memory / MIB
        );
        assert!(
            fault_share.swap_io_secs > fault_only.swap_io_secs,
            "contention gate: re-replication sharing the disk must inflate \
             swap I/O time ({:.1}s with share vs {:.1}s without)",
            fault_share.swap_io_secs,
            fault_only.swap_io_secs
        );
    }
}
