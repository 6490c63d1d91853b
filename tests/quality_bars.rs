//! The quality bars of the scenario catalogue, held at each shape's full
//! size: what the fixed-seed runs compute, not how fast. The bars are the
//! paper's argument at cluster scale — suspension preserves work that kill
//! throws away, lazy resume reads back less swap than eager, resume cost
//! grows with dirty state — plus the bars of the locality, failure and
//! tenant layers built around it. `check_bench` times the same shapes.
//!
//! Each test pins its primary run by event count and report digest, which
//! also holds fixed-seed determinism across runs and builds.

use mrp_engine::{Cluster, ClusterReport, SwapConfig};
use mrp_experiments::{
    predictor_ablation, reclaim_ablation, resume_ablation, resume_cost_curve, run_memory_pressure,
    sojourn_quantile, FaultChurnConfig, MemoryPressureConfig, PartitionDetectConfig,
    RackOutageConfig, SwimClusterConfig, TenantScenarioConfig, CATALOGUE_HORIZON,
};
use mrp_preempt::PreemptionPrimitive;
use mrp_sim::{GIB, MIB};
use mrp_workload::{summarize, SwimGenerator};

/// FNV-1a over a report's `Debug` rendering: two reports share a digest
/// exactly when they are byte-identical (barring collisions).
fn report_digest(report: &ClusterReport) -> u64 {
    format!("{report:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Runs a catalogue cluster until every job completes; returns the events
/// processed and the report.
fn drain(mut cluster: Cluster) -> (u64, ClusterReport) {
    cluster.run(CATALOGUE_HORIZON);
    let report = cluster.report();
    assert!(report.all_jobs_complete(), "catalogue shapes must drain");
    (cluster.events_processed(), report)
}

/// The 10k-node `swim_cluster` trace is as large as the shape claims. Its
/// run is pinned by perfbench's `swim_greedy` trace 0, the same trace on
/// the same cluster.
#[test]
fn swim_cluster_trace_has_over_100k_map_tasks() {
    let sc = SwimClusterConfig::full();
    let summary = summarize(&SwimGenerator::new(sc.swim, sc.seed).generate());
    assert!(summary.tasks >= 100_000, "{} tasks", summary.tasks);
}

/// Delay scheduling at one heartbeat interval per level lifts node-local
/// launches from greedy's sub-percent rate to 30% or more, at no more than
/// 5% of makespan.
#[test]
fn locality_delay_reaches_30_percent_node_local_within_5_percent_makespan() {
    let on = SwimClusterConfig::locality_delay();
    let off = SwimClusterConfig {
        delay: false,
        ..on.clone()
    };
    let (events, delayed) = drain(on.build(on.config()));
    let (_, greedy) = drain(off.build(off.config()));
    assert_eq!(
        (events, report_digest(&delayed)),
        (290_507, 0x82c2_e6d7_5868_7cdf)
    );
    let tasks: usize = delayed.jobs.iter().map(|j| j.tasks.len()).sum();
    assert!(tasks >= 15_000, "{tasks} tasks");

    let (on_loc, off_loc) = (delayed.locality, greedy.locality);
    assert_eq!(off_loc.delayed_skips, 0, "greedy runs never skip");
    assert!(on_loc.delayed_skips > 0, "delay must decline offers");
    assert!(
        on_loc.delay_waits_total() > 0,
        "waits must end in local wins"
    );
    assert!(
        off_loc.rack_local + off_loc.off_rack > 0,
        "a multi-rack run must launch remotely"
    );
    assert!(on_loc.node_local_ratio() > off_loc.node_local_ratio());
    assert!(
        on_loc.node_local_ratio() >= 0.30,
        "node-local rate {:.1}% below 30%",
        on_loc.node_local_ratio() * 100.0
    );
    let makespan_ratio =
        delayed.makespan_secs().expect("drained") / greedy.makespan_secs().expect("drained");
    assert!(
        makespan_ratio <= 1.05,
        "makespan {:+.1}% over greedy",
        (makespan_ratio - 1.0) * 100.0
    );
}

/// Node loss destroys suspended tasks' paged-out state, and speculative
/// re-execution strictly cuts the p99 sojourn on the same seed without
/// lengthening the makespan.
#[test]
fn fault_churn_loses_suspended_state_and_speculation_cuts_p99() {
    let on = FaultChurnConfig::full();
    let off = FaultChurnConfig {
        speculation: false,
        ..on.clone()
    };
    let (events, spec) = drain(on.build(on.config()));
    let (_, plain) = drain(off.build(off.config()));
    assert_eq!(
        (events, report_digest(&spec)),
        (233_871, 0xe9ff_ade7_735e_c997)
    );

    let f = spec.faults;
    assert!(
        spec.jobs
            .iter()
            .flat_map(|j| &j.tasks)
            .any(|t| t.suspend_cycles > 0),
        "the trace must preempt"
    );
    assert!(f.node_failures >= 3, "{f:?}");
    assert!(f.node_decommissions >= 1 && f.node_rejoins >= 1, "{f:?}");
    assert!(
        f.suspended_tasks_lost >= 1 && f.lost_suspended_work_secs > 0.0,
        "a node loss must destroy suspended state: {f:?}"
    );
    assert!(f.re_executed_tasks >= 1, "{f:?}");
    assert!(f.speculative_launched >= 1, "{f:?}");
    assert_eq!(plain.faults.speculative_launched, 0);

    let (spec_p99, plain_p99) = (
        sojourn_quantile(&spec, 0.99),
        sojourn_quantile(&plain, 0.99),
    );
    assert!(
        spec_p99 < plain_p99,
        "p99 sojourn {spec_p99:.1}s with speculation vs {plain_p99:.1}s without"
    );
    assert!(spec.makespan_secs().expect("drained") <= plain.makespan_secs().expect("drained"));
}

/// Under churn, partitions and a gray failure, first-commit-wins never
/// double-commits and detection lag stays within the timeout plus one
/// heartbeat; with the detector off, faults are seen the instant they
/// strike.
#[test]
fn partition_detect_never_double_commits_and_bounds_detection_lag() {
    let on = PartitionDetectConfig::full();
    let off = PartitionDetectConfig {
        detector: false,
        ..on.clone()
    };
    let (events, detected) = drain(on.build(on.config()));
    let (_, instant) = drain(off.build(off.config()));
    assert_eq!(
        (events, report_digest(&detected)),
        (109_189, 0x513e_799c_822e_d722)
    );

    let f = detected.faults;
    assert_eq!(f.duplicate_commits, 0, "{f:?}");
    assert!(
        f.detection_lag_secs_max <= on.lag_bound_secs() + 1e-9,
        "lag {:.3}s over the {:.1}s bound",
        f.detection_lag_secs_max,
        on.lag_bound_secs()
    );
    assert!(f.nodes_suspected >= 1 && f.failures_detected >= 1, "{f:?}");
    assert!(
        f.partitions >= 2 && f.partition_heals >= 1 && f.partition_heals <= f.partitions,
        "{f:?}"
    );
    assert!(f.reconciled_commits + f.reconciled_discards >= 1, "{f:?}");
    assert!(f.gray_failures >= 1 && f.gray_heals >= 1, "{f:?}");

    let g = instant.faults;
    assert_eq!(
        (g.nodes_suspected, g.failures_detected, g.duplicate_commits),
        (0, 0, 0)
    );
    assert_eq!(g.detection_lag_secs_max, 0.0);
}

/// A rack dark twice destroys committed map outputs that reduces re-fetch
/// and maps re-execute; the reliability predictor strictly cuts the p99
/// sojourn on the same seed and fault plan.
#[test]
fn rack_outage_predictor_cuts_p99() {
    let (on, off) = predictor_ablation(&RackOutageConfig::full());
    assert_eq!(
        (on.events, report_digest(&on.report)),
        (55_130, 0x5ba7_f4cf_a6e7_7ba1)
    );
    let f = on.report.faults;
    assert!(f.lost_map_outputs >= 1, "{f:?}");
    assert!(f.shuffle_refetches >= 1, "{f:?}");
    assert!(f.re_executed_tasks >= f.lost_map_outputs, "{f:?}");
    assert!(f.node_failures >= 1 && f.node_rejoins >= 1, "{f:?}");
    assert_eq!(f.node_failures, off.report.faults.node_failures);
    assert!(
        on.sojourn_quantiles[2] < off.sojourn_quantiles[2],
        "p99 sojourn {:.1}s with predictor vs {:.1}s without",
        on.sojourn_quantiles[2],
        off.sojourn_quantiles[2]
    );
}

/// DRF keeps every tenant within 5 points of its quota while another is
/// starved, suspend-based reclaim strictly beats kill on lost work, and
/// backfill drains the best-effort class.
#[test]
fn multi_tenant_reclaim_by_suspension_beats_kill() {
    let (suspend, kill) = reclaim_ablation(&TenantScenarioConfig::full(
        PreemptionPrimitive::SuspendResume,
    ));
    assert_eq!(
        (
            suspend.events_processed,
            suspend.suspend_cycles,
            suspend.makespan_secs,
            suspend.lost_work_secs
        ),
        (30_591, 64, 1_774.233_69, 0.0)
    );
    for s in &suspend.shares {
        assert!(
            s.mean_excess_over_quota <= 0.05,
            "tenant {} holds {:.3} over its {:.3} quota",
            s.tenant,
            s.mean_excess_over_quota,
            s.quota
        );
    }
    assert!(suspend.suspend_cycles >= 1, "reclaim must fire");
    assert!(kill.lost_work_secs > 0.0, "kill must waste progress");
    assert!(
        suspend.lost_work_secs < kill.lost_work_secs,
        "lost work {:.1}s suspend vs {:.1}s kill",
        suspend.lost_work_secs,
        kill.lost_work_secs
    );
    assert_eq!(suspend.best_effort_completed, suspend.best_effort_jobs);
}

/// Through the block-granular swap device: lazy resume reads strictly less
/// swap than eager, nothing thrashes without overcommit, resume cost grows
/// with dirty state, and re-replication sharing the disk inflates swap I/O
/// time.
#[test]
fn memory_pressure_lazy_resume_reads_less_and_cost_grows_with_state() {
    let config = MemoryPressureConfig::full(SwapConfig::enabled());
    let (eager, lazy) = resume_ablation(&config);
    assert_eq!(
        (eager.events_processed, report_digest(&eager.report)),
        (8_495, 0x0cc1_0317_4b03_98c6)
    );
    assert!(eager.suspend_cycles >= 4, "{} cycles", eager.suspend_cycles);
    let (eager, lazy) = (&eager.report, &lazy.report);
    assert!(
        eager.total_swap_out_bytes() > GIB,
        "{} bytes out",
        eager.total_swap_out_bytes()
    );
    assert!(
        lazy.total_swap_in_bytes() < eager.total_swap_in_bytes(),
        "lazy read {} bytes vs eager {}",
        lazy.total_swap_in_bytes(),
        eager.total_swap_in_bytes()
    );

    let calm = run_memory_pressure(&config.clone().calm()).report;
    assert_eq!(calm.nodes.iter().map(|n| n.thrash_events).sum::<u64>(), 0);

    let curve = resume_cost_curve(&config, &[512 * MIB, GIB, 1536 * MIB]);
    let (first, last) = (&curve[0], &curve[2]);
    assert!(
        last.swap_in_per_cycle > first.swap_in_per_cycle,
        "{:.0} bytes/cycle at 512 MiB vs {:.0} at 1.5 GiB",
        first.swap_in_per_cycle,
        last.swap_in_per_cycle
    );

    let fault_only = run_memory_pressure(&config.clone().contended(0.0));
    let fault_share = run_memory_pressure(&config.contended(0.5));
    let (fault_only, fault_share) = (
        fault_only.report.total_swap_io_secs(),
        fault_share.report.total_swap_io_secs(),
    );
    assert!(
        fault_share > fault_only,
        "swap I/O {fault_share:.1}s with a disk share vs {fault_only:.1}s without"
    );
}
