//! The observability layer must be a pure observer: switching it on may
//! never change *what* the simulator computes — only record it. These tests
//! run the determinism suites' scenario shapes (preemption churn,
//! detector/partition faults, swap-device memory pressure) twice, obs-off
//! and obs-on, and require byte-identical reports and event counts; then
//! they sanity-check what the observer captured (spans balance and export
//! as valid Chrome traces, the series covers the run, the profiler accounts
//! for the loop's wall time).

use hadoop_os_preempt::prelude::*;
use mrp_engine::{
    Cluster, DetectorConfig, FaultEvent, FaultKind, NodeId, RackId, ShuffleConfig,
    SpeculationConfig, SwapConfig,
};
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

/// Observing a run may not change it: same events, same report, byte for
/// byte, across all three scenario families.
type Suite = (
    &'static str,
    fn() -> ClusterConfig,
    fn(ClusterConfig) -> Cluster,
);

#[test]
fn obs_on_runs_are_byte_identical() {
    let suites: [Suite; 3] = [
        ("churn", churn_config, churn_cluster),
        ("partition", partition_config, partition_cluster),
        ("swap", swap_config, swap_cluster),
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
    let suites: [(&str, Cluster); 3] = [
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
    ];
    for (name, mut cluster) in suites {
        cluster.run(SimTime::from_secs(24 * 3_600));
        let obs = cluster.observability().expect("obs enabled");
        let text = chrome_trace_json(obs.spans(), cluster.now()).pretty();
        validate_chrome_trace(&text).unwrap_or_else(|e| panic!("{name}: invalid trace: {e}"));

        let closed = obs.spans().iter().filter(|s| s.end.is_some()).count() as u64;
        let histogrammed: u64 = [
            "attempt_duration_us",
            "suspend_cycle_us",
            "shuffle_stall_us",
            "partition_window_us",
        ]
        .iter()
        .map(|h| obs.registry().histogram_stats(h).map_or(0, |s| s.count))
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
        mrp_engine::SpanKind::Attempt,
        mrp_engine::SpanKind::SuspendCycle,
        mrp_engine::SpanKind::Partition,
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
    let mut cluster = churn_cluster(churn_config().with_obs(ObsConfig::full()));
    cluster.run(SimTime::from_secs(24 * 3_600));
    let events_processed = cluster.events_processed();
    let obs = cluster.observability().expect("obs enabled");
    let profile = obs.profile().expect("profiling on");
    assert!(
        profile.attribution() >= 0.95,
        "only {:.1}% of loop wall time attributed",
        100.0 * profile.attribution()
    );
    // The profiler sees the queue events plus the computed wheel heartbeats.
    assert!(
        profile.total_events() >= events_processed,
        "profiler counted {} events for {events_processed} processed",
        profile.total_events()
    );
    let table = profile.table();
    assert!(table.contains("heartbeat_wheel"));
    assert!(table.contains("loop wall"));
    // Scheduler actions were counted: churn launches and suspends tasks.
    let actions: u64 = profile.actions.iter().map(|r| r.count).sum();
    assert!(actions > 0, "no scheduler actions recorded");
    assert!(profile
        .actions
        .iter()
        .any(|r| r.name == "suspend" && r.count > 0));
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
