//! The observability layer must be a pure observer: switching it on may
//! never change *what* the simulator computes — only record it. These tests
//! run the determinism suites' scenario shapes (preemption churn,
//! detector/partition faults, swap-device memory pressure) and two catalogue
//! shapes (`sim_throughput` and the small `swim_cluster` trace) twice,
//! obs-off and obs-on, and require byte-identical reports and event counts;
//! then they sanity-check what the observer captured (spans balance and export
//! as valid Chrome traces, the series covers the run, the profiler accounts
//! for the loop's wall time).

use hadoop_os_preempt::prelude::*;
use mrp_engine::{
    Cluster, DetectorConfig, FaultEvent, FaultKind, NodeId, RackId, ShuffleConfig, SpanKind,
    SpeculationConfig, SwapConfig,
};
use mrp_experiments::{sim_throughput_cluster, sim_throughput_config, SwimClusterConfig};
use mrp_preempt::obs_export::{chrome_trace_json, validate_chrome_trace};
use mrp_sim::SimTime;

fn hfsp() -> Box<dyn SchedulerPolicy> {
    Box::new(HfspScheduler::new(
        PreemptionPrimitive::SuspendResume,
        EvictionPolicy::ClosestToCompletion,
    ))
}

/// The determinism suite's preemption-churn shape: 8 nodes, batch + small
/// jobs, lots of suspend/resume traffic under HFSP.
fn churn_cluster(cfg: ClusterConfig) -> Cluster {
    let mut cluster = Cluster::new(cfg, hfsp());
    for i in 0..4u32 {
        cluster.submit_job_at(
            JobSpec::synthetic(format!("batch-{i}"), 20, 64 * MIB),
            SimTime::from_secs(u64::from(i)),
        );
    }
    for i in 0..6u32 {
        cluster.submit_job_at(
            JobSpec::synthetic(format!("small-{i}"), 2, 16 * MIB),
            SimTime::from_secs(10 + 5 * u64::from(i)),
        );
    }
    cluster
}

fn churn_config() -> ClusterConfig {
    ClusterConfig::small_cluster(8, 2, 1)
}

/// Detector + partition + gray-failure shape (a condensed version of the
/// determinism suite's detector scenario): every span family fires —
/// attempts, suspend cycles, shuffle stalls, partition windows.
fn partition_config() -> ClusterConfig {
    let mut cfg = ClusterConfig::racked_cluster(3, 4, 1, 1);
    cfg.trace_level = mrp_engine::TraceLevel::Off;
    cfg.speculation = SpeculationConfig::enabled();
    cfg.shuffle = ShuffleConfig::fault_tolerant();
    cfg.detector = DetectorConfig::enabled();
    cfg.faults.events.push(FaultEvent {
        at: SimTime::from_secs(30),
        kind: FaultKind::Partition { node: NodeId(5) },
    });
    cfg.faults.events.push(FaultEvent {
        at: SimTime::from_secs(90),
        kind: FaultKind::PartitionHeal { node: NodeId(5) },
    });
    cfg.faults.events.push(FaultEvent {
        at: SimTime::from_secs(50),
        kind: FaultKind::RackOutage { rack: RackId(2) },
    });
    cfg.faults.events.push(FaultEvent {
        at: SimTime::from_secs(110),
        kind: FaultKind::RackRejoin { rack: RackId(2) },
    });
    cfg
}

fn partition_cluster(cfg: ClusterConfig) -> Cluster {
    let mut cluster = Cluster::new(cfg, hfsp());
    for i in 0..4u32 {
        cluster.submit_job_at(
            JobSpec::synthetic(format!("mr-{i}"), 14, 96 * MIB).with_reduces(2),
            SimTime::from_secs(u64::from(2 * i)),
        );
    }
    for i in 0..5u32 {
        cluster.submit_job_at(
            JobSpec::synthetic(format!("small-{i}"), 2, 16 * MIB),
            SimTime::from_secs(15 + 9 * u64::from(i)),
        );
    }
    cluster
}

/// Swap-device memory-pressure shape (the determinism suite's swap scenario
/// in miniature): working sets overflow RAM, so suspensions page real state
/// through the block-granular swap device.
fn swap_config() -> ClusterConfig {
    let mut cfg = ClusterConfig::small_cluster(4, 2, 1)
        .with_trace_level(mrp_engine::TraceLevel::Off)
        .with_swap(SwapConfig::enabled());
    for node in &mut cfg.nodes {
        node.os.memory.total_ram = 3 * GIB;
        node.os.memory.swap_capacity = 16 * GIB;
    }
    cfg
}

fn swap_cluster(cfg: ClusterConfig) -> Cluster {
    let mut cluster = Cluster::new(cfg, hfsp());
    for j in 0..2u32 {
        cluster.submit_job_at(
            JobSpec::synthetic(format!("batch-{j}"), 8, 64 * MIB)
                .with_profile(TaskProfile::memory_hungry(1536 * MIB)),
            SimTime::from_secs(u64::from(j)),
        );
    }
    for j in 0..4u32 {
        cluster.submit_job_at(
            JobSpec::synthetic(format!("small-{j}"), 2, 64 * MIB),
            SimTime::from_secs(45 + 30 * u64::from(j)),
        );
    }
    cluster
}

/// The catalogue's `swim_cluster` trace at 64 nodes in 8 racks: HFSP churn
/// over DFS-backed inputs.
fn swim_config() -> ClusterConfig {
    SwimClusterConfig::small().config()
}

fn swim_cluster(cfg: ClusterConfig) -> Cluster {
    SwimClusterConfig::small().build(cfg)
}

/// Observing a run may not change it: same events, same report, byte for
/// byte, across all five scenario families.
type Suite = (
    &'static str,
    fn() -> ClusterConfig,
    fn(ClusterConfig) -> Cluster,
);

#[test]
fn obs_on_runs_are_byte_identical() {
    let suites: [Suite; 5] = [
        ("churn", churn_config, churn_cluster),
        ("partition", partition_config, partition_cluster),
        ("swap", swap_config, swap_cluster),
        ("swim", swim_config, swim_cluster),
        (
            "sim_throughput",
            sim_throughput_config,
            sim_throughput_cluster,
        ),
    ];
    for (name, config, build) in suites {
        let mut plain = build(config());
        plain.run(SimTime::from_secs(24 * 3_600));
        let mut observed = build(config().with_obs(ObsConfig::full()));
        observed.run(SimTime::from_secs(24 * 3_600));

        assert!(plain.report().all_jobs_complete(), "{name} must drain");
        assert_eq!(
            observed.events_processed(),
            plain.events_processed(),
            "{name}: observation changed the event count"
        );
        assert_eq!(
            observed.report(),
            plain.report(),
            "{name}: observation changed the report"
        );
        assert!(plain.observability().is_none());

        // What the observer captured is sane: spans were recorded and all
        // closed (the workload drained), the series sampled the whole run.
        let obs = observed.observability().expect("obs enabled");
        assert!(!obs.spans().is_empty(), "{name}: no spans recorded");
        assert_eq!(obs.open_spans(), 0, "{name}: spans left open");
        assert_eq!(obs.dropped_spans(), 0, "{name}: span cap hit");
        let series = obs.series().expect("series sampling on");
        let expected_rows = observed.now().as_micros() / series.interval().as_micros();
        assert!(
            series.rows().len() as u64 >= expected_rows.saturating_sub(1),
            "{name}: series misses samples ({} rows for {expected_rows} intervals)",
            series.rows().len()
        );
        for row in series.rows() {
            assert_eq!(row.values.len(), series.columns().len());
        }
    }
}

/// Every scenario's span trace exports as a schema-valid Chrome trace, and
/// the per-family duration histograms agree with the span counts.
#[test]
fn span_traces_export_as_valid_chrome_json() {
    let suites: [(&str, Cluster); 4] = [
        (
            "churn",
            churn_cluster(churn_config().with_obs(ObsConfig::full())),
        ),
        (
            "partition",
            partition_cluster(partition_config().with_obs(ObsConfig::full())),
        ),
        (
            "swap",
            swap_cluster(swap_config().with_obs(ObsConfig::full())),
        ),
        (
            "swim",
            swim_cluster(swim_config().with_obs(ObsConfig::full())),
        ),
    ];
    for (name, mut cluster) in suites {
        cluster.run(SimTime::from_secs(24 * 3_600));
        let obs = cluster.observability().expect("obs enabled");
        let text = chrome_trace_json(obs.spans(), cluster.now()).pretty();
        validate_chrome_trace(&text).unwrap_or_else(|e| panic!("{name}: invalid trace: {e}"));

        let closed = obs.spans().iter().filter(|s| s.end.is_some()).count() as u64;
        let histogrammed: u64 = [
            SpanKind::Attempt,
            SpanKind::SuspendCycle,
            SpanKind::ShuffleStall,
            SpanKind::Partition,
        ]
        .iter()
        .map(|&kind| obs.histogram(kind).count)
        .sum();
        assert_eq!(
            histogrammed, closed,
            "{name}: histogram/span count mismatch"
        );
    }
    // The partition scenario must have exercised every span family.
    let mut cluster = partition_cluster(partition_config().with_obs(ObsConfig::full()));
    cluster.run(SimTime::from_secs(24 * 3_600));
    let obs = cluster.observability().unwrap();
    for kind in [
        SpanKind::Attempt,
        SpanKind::SuspendCycle,
        SpanKind::Partition,
    ] {
        assert!(
            obs.spans().iter().any(|s| s.kind == kind),
            "partition scenario recorded no {kind:?} spans"
        );
    }
}

/// The profiler must attribute nearly all of the event loop's wall time to
/// event kinds (the batched-timing design loses at most the final partial
/// batch per window), and its counts must cover every processed event.
#[test]
fn profiler_attributes_loop_wall_time() {
    let suites: [Suite; 3] = [
        ("churn", churn_config, churn_cluster),
        ("swim", swim_config, swim_cluster),
        (
            "sim_throughput",
            sim_throughput_config,
            sim_throughput_cluster,
        ),
    ];
    for (name, config, build) in suites {
        let mut cluster = build(config().with_obs(ObsConfig::full()));
        cluster.run(SimTime::from_secs(24 * 3_600));
        let events_processed = cluster.events_processed();
        let obs = cluster.observability().expect("obs enabled");
        let profile = obs.profile().expect("profiling on");
        assert!(
            profile.attribution() >= 0.95,
            "{name}: only {:.1}% of loop wall time attributed",
            100.0 * profile.attribution()
        );
        // The profiler sees the queue events plus the computed wheel
        // heartbeats, each exactly once: no batch is left unflushed.
        assert!(
            profile.total_events() == events_processed,
            "{name}: profiler counted {} events for {events_processed} processed",
            profile.total_events()
        );
        let table = profile.table();
        assert!(table.contains("heartbeat_wheel"));
        assert!(table.contains("loop wall"));
        // Scheduler actions were counted: every suite launches and suspends
        // tasks.
        let actions: u64 = profile.actions.iter().map(|r| r.count).sum();
        assert!(actions > 0, "{name}: no scheduler actions recorded");
        assert!(
            profile
                .actions
                .iter()
                .any(|r| r.name == "suspend" && r.count > 0),
            "{name}: no suspensions"
        );
    }
}

/// `ObsConfig::default()` (enabled = false) must validate and leave the
/// cluster without any observability state.
#[test]
fn disabled_and_invalid_configs() {
    let cfg = churn_config().with_obs(ObsConfig::default());
    cfg.validate().expect("disabled obs validates");
    let mut cluster = churn_cluster(cfg);
    cluster.run(SimTime::from_secs(24 * 3_600));
    assert!(cluster.observability().is_none());
}

/// The schedule-trace kinds the trace recorded before the typed record
/// stream; the text digest below covers these kinds only, so kinds added
/// since are pinned by count alone.
const PINNED_KINDS: [&str; 18] = [
    "JobSubmitted",
    "Launched",
    "Suspended",
    "Resumed",
    "Killed",
    "Completed",
    "JobCompleted",
    "NodeFailed",
    "NodeDecommissioned",
    "NodeRejoined",
    "Speculated",
    "ShuffleStalled",
    "MapOutputLost",
    "NodeSuspected",
    "NodePartitioned",
    "PartitionHealed",
    "NodeDegraded",
    "DegradationHealed",
];

/// FNV-1a over the bytes of `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn trace_lines(cluster: &Cluster) -> Vec<String> {
    let jobs = cluster.jobs();
    cluster.trace().iter().map(|r| r.to_line(jobs)).collect()
}

/// The kind name of a rendered trace line (`[   12.0s] Launched job_0001 ...`).
fn line_kind(line: &str) -> &str {
    let rest = line.split_once("] ").expect("timestamped line").1;
    rest.split(' ').next().expect("kind")
}

/// What one suite's two observation streams must reproduce.
struct StreamPins {
    /// Trace lines per kind.
    kinds: &'static [(&'static str, usize)],
    /// Digest of the trace text over [`PINNED_KINDS`].
    trace: u64,
    /// Digest of the pretty Chrome-trace export.
    chrome: u64,
    /// Spans per kind: attempt, suspend cycle, shuffle stall, partition.
    spans: [usize; 4],
    /// Samples in the four span-duration histograms, same order.
    histograms: [u64; 4],
}

/// The schedule trace and the span trace are two views of the same run:
/// both are pinned per suite, kind by kind, so a change to how either is
/// recorded must reproduce them exactly.
#[test]
fn trace_and_span_streams_are_pinned() {
    use mrp_engine::TraceLevel;
    let suites: [(Suite, StreamPins); 4] = [
        (
            ("churn", churn_config, churn_cluster),
            StreamPins {
                kinds: &[
                    ("Completed", 92),
                    ("JobCompleted", 10),
                    ("JobSubmitted", 10),
                    ("Launched", 92),
                    ("Resumed", 6),
                    ("Suspended", 6),
                ],
                trace: 0x505e_221a_72c5_d369,
                chrome: 0x349e_d1a3_e8d7_6a81,
                spans: [92, 6, 0, 0],
                histograms: [92, 6, 0, 0],
            },
        ),
        (
            ("partition", partition_config, partition_cluster),
            StreamPins {
                kinds: &[
                    ("AttemptLost", 9),
                    ("Completed", 83),
                    ("JobCompleted", 9),
                    ("JobSubmitted", 9),
                    ("Killed", 1),
                    ("Launched", 92),
                    ("MapOutputLost", 9),
                    ("NodeFailed", 5),
                    ("NodePartitioned", 1),
                    ("NodeRejoined", 4),
                    ("NodeSilent", 4),
                    ("NodeSuspected", 5),
                    ("PartitionHealed", 1),
                    ("Resumed", 6),
                    ("ShuffleRecovered", 8),
                    ("ShuffleStalled", 63),
                    ("SiblingKilled", 1),
                    ("Suspended", 7),
                ],
                trace: 0x7253_91d3_632d_34b1,
                chrome: 0xdc52_f77a_3ecf_c31c,
                spans: [92, 7, 10, 1],
                histograms: [92, 7, 10, 1],
            },
        ),
        (
            ("swap", swap_config, swap_cluster),
            StreamPins {
                kinds: &[
                    ("Completed", 24),
                    ("JobCompleted", 6),
                    ("JobSubmitted", 6),
                    ("Launched", 24),
                    ("Resumed", 2),
                    ("Suspended", 2),
                ],
                trace: 0x0daf_5fbc_e47b_2cd5,
                chrome: 0x6001_ce80_e747_c213,
                spans: [24, 2, 0, 0],
                histograms: [24, 2, 0, 0],
            },
        ),
        (
            ("swim", swim_config, swim_cluster),
            StreamPins {
                kinds: &[
                    ("Completed", 424),
                    ("JobCompleted", 60),
                    ("JobSubmitted", 60),
                    ("Launched", 424),
                    ("Resumed", 31),
                    ("Suspended", 31),
                ],
                trace: 0x5acd_2170_a814_e313,
                chrome: 0x350f_9af2_6d10_9507,
                spans: [424, 31, 0, 0],
                histograms: [424, 31, 0, 0],
            },
        ),
    ];
    for ((name, config, build), pins) in suites {
        let cfg = config()
            .with_trace_level(TraceLevel::Schedule)
            .with_obs(ObsConfig::full());
        let mut cluster = build(cfg);
        cluster.run(SimTime::from_secs(24 * 3_600));
        let lines = trace_lines(&cluster);

        let mut kinds: Vec<(&str, usize)> = Vec::new();
        for line in &lines {
            let kind = line_kind(line);
            match kinds.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, n)) => *n += 1,
                None => kinds.push((kind, 1)),
            }
        }
        kinds.sort_unstable();
        let text: String = lines
            .iter()
            .filter(|l| PINNED_KINDS.contains(&line_kind(l)))
            .map(|l| format!("{l}\n"))
            .collect();

        let obs = cluster.observability().expect("obs enabled");
        let chrome = fnv1a(&chrome_trace_json(obs.spans(), cluster.now()).pretty());
        let spans = [
            SpanKind::Attempt,
            SpanKind::SuspendCycle,
            SpanKind::ShuffleStall,
            SpanKind::Partition,
        ]
        .map(|kind| obs.spans().iter().filter(|s| s.kind == kind).count());
        let histograms = [
            SpanKind::Attempt,
            SpanKind::SuspendCycle,
            SpanKind::ShuffleStall,
            SpanKind::Partition,
        ]
        .map(|kind| obs.histogram(kind).count);

        assert_eq!(kinds, pins.kinds, "{name}: trace lines per kind");
        assert_eq!(fnv1a(&text), pins.trace, "{name}: trace text");
        assert_eq!(chrome, pins.chrome, "{name}: Chrome trace");
        assert_eq!(spans, pins.spans, "{name}: spans per kind");
        assert_eq!(histograms, pins.histograms, "{name}: histogram counts");
    }
}

/// A node that dies behind a partition ends its partition window at the
/// death: the heal that follows finds the link already dark and does
/// nothing, so the window must not wait for it. Covers a death before the
/// detector confirms the partition (12 s), one after (28 s), and the plain
/// partition-then-heal run.
#[test]
fn partition_window_closes_when_the_node_dies_behind_it() {
    for kill_at in [None, Some(12), Some(28)] {
        let mut cfg = ClusterConfig::racked_cluster(2, 4, 1, 1).with_obs(ObsConfig::full());
        cfg.detector = DetectorConfig::enabled();
        let node = NodeId(1);
        let mut faults = vec![
            (10, FaultKind::Partition { node }),
            (30, FaultKind::PartitionHeal { node }),
            (40, FaultKind::Rejoin { node }),
        ];
        if let Some(at) = kill_at {
            faults.push((at, FaultKind::Kill { node }));
        }
        for (at, kind) in faults {
            cfg.faults.events.push(FaultEvent {
                at: SimTime::from_secs(at),
                kind,
            });
        }
        let mut cluster = Cluster::new(cfg, hfsp());
        for i in 0..3u32 {
            cluster.submit_job_at(
                JobSpec::synthetic(format!("job-{i}"), 12, 64 * MIB),
                SimTime::from_secs(u64::from(i)),
            );
        }
        cluster.run(SimTime::from_secs(24 * 3_600));
        assert!(cluster.report().all_jobs_complete(), "kill at {kill_at:?}");
        let obs = cluster.observability().expect("obs enabled");
        assert_eq!(obs.open_spans(), 0, "kill at {kill_at:?}: spans left open");
        let windows = obs.histogram(SpanKind::Partition);
        let closed_at = kill_at.unwrap_or(30);
        assert_eq!(
            (windows.count, windows.sum),
            (1, (closed_at - 10) * 1_000_000),
            "kill at {kill_at:?}: one window, partition to heal or death"
        );
    }
}
