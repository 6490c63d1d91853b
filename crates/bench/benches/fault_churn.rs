//! Fault-injection churn at cluster scale: a 1000-node / 50-rack cluster
//! under HFSP suspend/resume preemption churn *plus* seeded random node
//! failures (per-rack MTBF with rejoins), a scripted whole-rack outage, and
//! an administrative decommission, with speculative re-execution enabled.
//!
//! Asserted on every invocation (including the 100-node `--test` smoke):
//!
//! 1. **fixed-seed determinism** — two runs produce byte-identical
//!    `ClusterReport`s, fault injection and speculation included;
//! 2. **the paper's key cost under failure** — at least one node loss
//!    destroys a *suspended* task's paged-out state
//!    (`FaultStats::suspended_tasks_lost >= 1` with lost work recorded);
//! 3. **speculation pays off in the tail** — on the same seed, enabling
//!    speculative re-execution strictly reduces the p99 job sojourn vs.
//!    speculation-off (stranded stragglers are re-executed instead of
//!    waited for; the smoke variant asserts non-regression);
//! 4. **near-O(1) per-event cost** — events/sec is reported against the
//!    checked-in `sim_throughput` baseline; the acceptance bar (within 3x)
//!    is enforced ratio-wise by the `check_bench` CI gate on fresh runs.
//!
//! The scenario lives in `mrp_bench::scenarios::fault_churn` so the CI gate
//! runs exactly the same workload. Full runs with `--write-baseline`
//! write `BENCH_fault_churn.json`.

use mrp_bench::scenarios::fault_churn::FaultChurnScenario;
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
        FaultChurnScenario::small()
    } else {
        FaultChurnScenario::full()
    };
    let summary = summarize(&SwimGenerator::new(sc.swim_config(), sc.seed).generate());
    println!(
        "fault_churn: {} racks x {} nodes x {} map slots, {} jobs / {} tasks, \
         HFSP suspend/resume + speculation, rack MTBF {:.0}s (recovery {:.0}s), seed {:#x}",
        sc.racks,
        sc.nodes_per_rack,
        sc.map_slots,
        summary.jobs,
        summary.tasks,
        sc.rack_mtbf_secs,
        sc.mean_recovery_secs,
        sc.seed,
    );

    // 1. Fixed-seed determinism: two speculation-on runs must be identical.
    let first = sc.run();
    let second = sc.run();
    assert_eq!(
        first.report, second.report,
        "fixed-seed ClusterReport must be byte-identical under fault injection"
    );
    assert_eq!(first.events, second.events);

    let faults = first.report.faults;
    let suspends: u32 = first
        .report
        .jobs
        .iter()
        .flat_map(|j| j.tasks.iter())
        .map(|t| t.suspend_cycles)
        .sum();
    assert!(suspends > 0, "the scenario must exercise preemption churn");
    assert!(
        faults.node_failures >= 3,
        "random churn plus the rack outage must strike repeatedly: {faults:?}"
    );
    assert!(faults.node_decommissions >= 1, "{faults:?}");
    assert!(faults.node_rejoins >= 1, "{faults:?}");
    // 2. The paper's key cost under failure: suspended-to-disk state lost.
    assert!(
        faults.suspended_tasks_lost >= 1 && faults.lost_suspended_work_secs > 0.0,
        "at least one node loss must destroy a suspended task's state: {faults:?}"
    );
    assert!(
        faults.re_executed_tasks >= 1,
        "lost attempts must be re-executed: {faults:?}"
    );

    // 3. Speculation tail payoff on the same seed.
    let mut off = sc;
    off.speculation = false;
    let without = off.run();
    let spec_makespan = first.report.makespan_secs().expect("all jobs complete");
    let off_makespan = without.report.makespan_secs().expect("all jobs complete");
    let spec_p99 = sojourn_quantile(&first.report, 0.99);
    let off_p99 = sojourn_quantile(&without.report, 0.99);
    println!(
        "sojourn p50/p95/p99/max   : {:.1}/{:.1}/{:.1}/{:.1}s with speculation, \
         {:.1}/{:.1}/{:.1}/{:.1}s without",
        sojourn_quantile(&first.report, 0.5),
        sojourn_quantile(&first.report, 0.95),
        spec_p99,
        sojourn_quantile(&first.report, 1.0),
        sojourn_quantile(&without.report, 0.5),
        sojourn_quantile(&without.report, 0.95),
        off_p99,
        sojourn_quantile(&without.report, 1.0),
    );
    assert!(
        first.report.faults.speculative_launched >= 1,
        "stragglers under churn must draw backups: {faults:?}"
    );
    assert_eq!(without.report.faults.speculative_launched, 0);
    if bench.is_test() {
        // The shrunken smoke cluster has too few stranding opportunities for
        // a guaranteed strict win; it still must never regress the tail.
        assert!(
            spec_p99 <= off_p99 && spec_makespan <= off_makespan,
            "speculation must not hurt tail completion time: \
             p99 {spec_p99:.1}s/{off_p99:.1}s, makespan {spec_makespan:.1}s/{off_makespan:.1}s"
        );
    } else {
        assert!(
            spec_p99 < off_p99,
            "speculative re-execution must reduce tail completion time: \
             p99 sojourn {spec_p99:.1}s (on) vs {off_p99:.1}s (off)"
        );
    }

    let mut wall = first.wall_secs.min(second.wall_secs);
    if !bench.is_test() {
        let sc = FaultChurnScenario::full();
        wall = wall.min(sc.run().wall_secs);
    }
    let events_per_sec = first.events as f64 / wall;

    println!("events                    : {}", first.events);
    println!("suspend cycles            : {suspends}");
    println!(
        "node failures / decomm.   : {} / {} ({} rejoins)",
        faults.node_failures, faults.node_decommissions, faults.node_rejoins
    );
    println!(
        "suspended state lost      : {} tasks / {:.1}s of preserved work",
        faults.suspended_tasks_lost, faults.lost_suspended_work_secs
    );
    println!(
        "re-executed / re-replicated: {} tasks / {} blocks ({} blocks lost)",
        faults.re_executed_tasks, faults.re_replicated_blocks, faults.lost_blocks
    );
    println!(
        "speculation               : {} launched, {} won, {:.1}s wasted",
        faults.speculative_launched, faults.speculative_won, faults.speculative_wasted_secs
    );
    println!(
        "makespan                  : {spec_makespan:.1}s with speculation, \
         {off_makespan:.1}s without ({:+.1}%)",
        (spec_makespan / off_makespan - 1.0) * 100.0
    );
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
                        Json::Num(f64::from(FaultChurnScenario::full().racks)),
                    ),
                    (
                        "nodes",
                        Json::Num(f64::from(FaultChurnScenario::full().nodes())),
                    ),
                    ("jobs", Json::Num(summary.jobs as f64)),
                    ("tasks", Json::Num(summary.tasks as f64)),
                    (
                        "scheduler",
                        Json::Str("hfsp+suspend-resume+speculation".into()),
                    ),
                    (
                        "rack_mtbf_secs",
                        Json::Num(FaultChurnScenario::full().rack_mtbf_secs),
                    ),
                    ("suspend_cycles", Json::Num(f64::from(suspends))),
                ]),
            ),
            ("events", Json::Num(first.events as f64)),
            ("wall_secs", Json::Num(wall)),
            ("events_per_sec", Json::Num(events_per_sec.round())),
            (
                "faults",
                Json::obj(vec![
                    ("node_failures", Json::Num(faults.node_failures as f64)),
                    (
                        "node_decommissions",
                        Json::Num(faults.node_decommissions as f64),
                    ),
                    ("node_rejoins", Json::Num(faults.node_rejoins as f64)),
                    (
                        "suspended_tasks_lost",
                        Json::Num(faults.suspended_tasks_lost as f64),
                    ),
                    (
                        "lost_suspended_work_secs",
                        Json::Num(faults.lost_suspended_work_secs.round()),
                    ),
                    (
                        "re_executed_tasks",
                        Json::Num(faults.re_executed_tasks as f64),
                    ),
                    (
                        "re_replicated_blocks",
                        Json::Num(faults.re_replicated_blocks as f64),
                    ),
                    ("lost_blocks", Json::Num(faults.lost_blocks as f64)),
                ]),
            ),
            (
                "speculation",
                Json::obj(vec![
                    ("launched", Json::Num(faults.speculative_launched as f64)),
                    ("won", Json::Num(faults.speculative_won as f64)),
                    (
                        "wasted_secs",
                        Json::Num(faults.speculative_wasted_secs.round()),
                    ),
                    ("makespan_secs", Json::Num(spec_makespan.round())),
                    ("makespan_secs_without", Json::Num(off_makespan.round())),
                    ("p99_sojourn_secs", Json::Num(spec_p99.round())),
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
        bench.write_baseline("BENCH_fault_churn.json", &json.pretty());
    }
}
