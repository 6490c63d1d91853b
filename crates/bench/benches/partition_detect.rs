//! Suspicion-based failure detection under network partitions at cluster
//! scale: a 200-node / 20-rack cluster under random churn with the
//! missed-heartbeat detector on, plus scripted partitions (a whole rack dark
//! past the timeout, a node-scoped partition outliving it, one healing
//! before it) and a gray-failing node — speculation, fault-tolerant shuffle
//! and the reliability predictor all enabled.
//!
//! Asserted on every invocation (including the 36-node `--test` smoke):
//!
//! 1. **fixed-seed determinism** — two detector-on runs produce
//!    byte-identical `ClusterReport`s, partitions and reconciliation
//!    included;
//! 2. **first-commit-wins** — healed partitions re-contribute buffered
//!    completions (`reconciled_commits + reconciled_discards >= 1`) with
//!    `duplicate_commits == 0`;
//! 3. **bounded detection lag** — `detection_lag_secs_max` never exceeds
//!    the detector timeout plus one heartbeat interval;
//! 4. **the ablation is real** — the detector-off side of the same seed
//!    observes zero detections and zero lag (faults strike instantly), and
//!    both sides drain the workload;
//! 5. **near-O(1) per-event cost** — events/sec is reported against the
//!    checked-in `sim_throughput` baseline; the acceptance bar (within 3x)
//!    is enforced ratio-wise by the `check_bench` CI gate on fresh runs.
//!
//! The scenario lives in `mrp_bench::scenarios::partition_detect` so the CI
//! gate runs exactly the same workload. Full runs with `--write-baseline`
//! write `BENCH_partition_detect.json`.

use mrp_bench::scenarios::partition_detect::{assert_quality, PartitionDetectScenario};
use mrp_bench::Bench;
use mrp_experiments::sojourn_quantile;
use mrp_preempt::json::Json;
use mrp_workload::{summarize, SwimGenerator};

fn sim_throughput_baseline() -> Option<f64> {
    mrp_bench::scenarios::baseline_events_per_sec("BENCH_sim_throughput.json")
}

fn main() {
    let bench = Bench::from_args();
    let sc = if bench.is_test() {
        PartitionDetectScenario::small()
    } else {
        PartitionDetectScenario::full()
    };
    let summary = summarize(&SwimGenerator::new(sc.swim_config(), sc.seed).generate());
    println!(
        "partition_detect: {} racks x {} nodes x {} map slots, {} jobs / {} tasks, \
         HFSP suspend/resume + speculation + FT shuffle + predictor, \
         detector on (lag bound {:.1}s), rack MTBF {:.0}s, seed {:#x}",
        sc.racks,
        sc.nodes_per_rack,
        sc.map_slots,
        summary.jobs,
        summary.tasks,
        sc.lag_bound_secs(),
        sc.rack_mtbf_secs,
        sc.seed,
    );

    // 1. Fixed-seed determinism: two detector-on runs must be identical.
    let first = sc.run(true);
    let second = sc.run(true);
    assert_eq!(
        first.report, second.report,
        "fixed-seed ClusterReport must be byte-identical under detector + partitions"
    );
    assert_eq!(first.events, second.events);

    // 2 + 3. The quality bars shared with the check_bench gate.
    assert_quality(&sc, &first);
    let faults = first.report.faults;

    // 4. Detector-off ablation on the same seed: faults are observed the
    // instant they strike, so no suspicion, no detections, no lag — and the
    // partitions still heal and reconcile without double commits.
    let without = sc.run(false);
    let off = &without.report.faults;
    assert_eq!(off.nodes_suspected, 0);
    assert_eq!(off.failures_detected, 0);
    assert_eq!(off.detection_lag_secs_max, 0.0);
    assert_eq!(off.duplicate_commits, 0);

    let on_makespan = first.report.makespan_secs().expect("all jobs complete");
    let off_makespan = without.report.makespan_secs().expect("all jobs complete");
    let on_p99 = sojourn_quantile(&first.report, 0.99);
    let off_p99 = sojourn_quantile(&without.report, 0.99);
    let lag_mean = if faults.failures_detected > 0 {
        faults.detection_lag_secs_sum / faults.failures_detected as f64
    } else {
        0.0
    };

    println!("events                    : {}", first.events);
    println!(
        "suspected / detected      : {} / {} (lag mean {:.1}s, max {:.1}s, bound {:.1}s)",
        faults.nodes_suspected,
        faults.failures_detected,
        lag_mean,
        faults.detection_lag_secs_max,
        sc.lag_bound_secs(),
    );
    println!(
        "partitions / heals        : {} / {}",
        faults.partitions, faults.partition_heals
    );
    println!(
        "reconciled commit/discard : {} / {} ({} duplicate commits)",
        faults.reconciled_commits, faults.reconciled_discards, faults.duplicate_commits
    );
    println!(
        "gray failures / heals     : {} / {}",
        faults.gray_failures, faults.gray_heals
    );
    println!(
        "node failures / rejoins   : {} / {} ({} re-executed tasks)",
        faults.node_failures, faults.node_rejoins, faults.re_executed_tasks
    );
    println!(
        "sojourn p50/p95/p99/max   : {:.1}/{:.1}/{:.1}/{:.1}s detector on, \
         {:.1}/{:.1}/{:.1}/{:.1}s off",
        sojourn_quantile(&first.report, 0.5),
        sojourn_quantile(&first.report, 0.95),
        on_p99,
        sojourn_quantile(&first.report, 1.0),
        sojourn_quantile(&without.report, 0.5),
        sojourn_quantile(&without.report, 0.95),
        off_p99,
        sojourn_quantile(&without.report, 1.0),
    );
    println!(
        "makespan                  : {on_makespan:.1}s detector on, \
         {off_makespan:.1}s off ({:+.1}%)",
        (on_makespan / off_makespan - 1.0) * 100.0
    );

    let mut wall = first.wall_secs.min(second.wall_secs);
    if !bench.is_test() {
        wall = wall.min(sc.run(true).wall_secs);
    }
    let events_per_sec = first.events as f64 / wall;
    println!("wall seconds (best)       : {wall:.3}");
    println!("events/sec                : {events_per_sec:.0}");
    let ratio_vs_200node = sim_throughput_baseline().map(|base| events_per_sec / base);
    if let Some(ratio) = ratio_vs_200node {
        println!(
            "vs 200-node sim_throughput baseline: {:.2}x (acceptance: >= 1/3x)",
            ratio
        );
    }

    if !bench.is_test() {
        let mut fields = vec![
            (
                "scenario",
                Json::obj(vec![
                    (
                        "racks",
                        Json::Num(f64::from(PartitionDetectScenario::full().racks)),
                    ),
                    (
                        "nodes",
                        Json::Num(f64::from(PartitionDetectScenario::full().nodes())),
                    ),
                    ("jobs", Json::Num(summary.jobs as f64)),
                    ("tasks", Json::Num(summary.tasks as f64)),
                    (
                        "scheduler",
                        Json::Str("hfsp+suspend-resume+speculation+detector".into()),
                    ),
                    ("lag_bound_secs", Json::Num(sc.lag_bound_secs())),
                ]),
            ),
            ("events", Json::Num(first.events as f64)),
            ("wall_secs", Json::Num(wall)),
            ("events_per_sec", Json::Num(events_per_sec.round())),
            (
                "detector",
                Json::obj(vec![
                    ("nodes_suspected", Json::Num(faults.nodes_suspected as f64)),
                    (
                        "failures_detected",
                        Json::Num(faults.failures_detected as f64),
                    ),
                    (
                        "detection_lag_mean_secs",
                        Json::Num((lag_mean * 100.0).round() / 100.0),
                    ),
                    (
                        "detection_lag_max_secs",
                        Json::Num((faults.detection_lag_secs_max * 100.0).round() / 100.0),
                    ),
                    ("partitions", Json::Num(faults.partitions as f64)),
                    ("partition_heals", Json::Num(faults.partition_heals as f64)),
                    (
                        "reconciled_commits",
                        Json::Num(faults.reconciled_commits as f64),
                    ),
                    (
                        "reconciled_discards",
                        Json::Num(faults.reconciled_discards as f64),
                    ),
                    (
                        "duplicate_commits",
                        Json::Num(faults.duplicate_commits as f64),
                    ),
                    ("gray_failures", Json::Num(faults.gray_failures as f64)),
                    ("gray_heals", Json::Num(faults.gray_heals as f64)),
                    ("makespan_secs", Json::Num(on_makespan.round())),
                    ("makespan_secs_without", Json::Num(off_makespan.round())),
                    ("p99_sojourn_secs", Json::Num(on_p99.round())),
                    ("p99_sojourn_secs_without", Json::Num(off_p99.round())),
                ]),
            ),
        ];
        if let Some(ratio) = ratio_vs_200node {
            fields.push((
                "events_per_sec_vs_200node_baseline",
                Json::Num((ratio * 100.0).round() / 100.0),
            ));
        }
        let json = Json::obj(fields);
        bench.write_baseline("BENCH_partition_detect.json", &json.pretty());
    }
}
