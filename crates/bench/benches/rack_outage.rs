//! Fault-tolerant shuffle under rack loss: a 72-node / 6-rack cluster
//! running a reduce-heavy SWIM trace loses one rack *twice* mid-trace (plus
//! background churn with rejoins), with the map-output registry, shuffle
//! re-fetch backoff and the ATLAS-style reliability predictor all enabled.
//!
//! Asserted on every invocation (including the 24-node `--test` smoke):
//!
//! 1. **fixed-seed determinism** — two runs produce byte-identical
//!    `ClusterReport`s, map-output loss and re-fetch backoff included;
//! 2. **shuffle is a real fault domain** — the outage destroys at least one
//!    *committed* map output (`FaultStats::lost_map_outputs >= 1`), stalled
//!    reduces re-fetch with backoff (`shuffle_refetches >= 1`), and every
//!    lost output's map is re-executed rather than failing the job;
//! 3. **the predictor pays off in the tail** — on the same seed, biasing
//!    placement and speculation away from flaky nodes strictly reduces the
//!    p99 job sojourn vs predictor-off (full shape; the smoke variant only
//!    reports the pair);
//! 4. **near-O(1) per-event cost** — events/sec is reported against the
//!    checked-in `sim_throughput` baseline; the acceptance bar (within 3x)
//!    is enforced ratio-wise by the `check_bench` CI gate on fresh runs.
//!
//! The scenario lives in `mrp_experiments::RackOutageConfig` (pinned shapes
//! in `mrp_bench::scenarios::rack_outage`) so the CI gate runs exactly the
//! same workload. Full runs with `--write-baseline` write
//! `BENCH_rack_outage.json`.

use mrp_bench::scenarios::rack_outage;
use mrp_bench::Bench;
use mrp_preempt::json::Json;
use mrp_workload::{summarize, SwimGenerator};

fn sim_throughput_baseline() -> Option<f64> {
    mrp_bench::scenarios::baseline_events_per_sec("BENCH_sim_throughput.json")
}

fn main() {
    let bench = Bench::from_args();
    let sc = if bench.is_test() {
        rack_outage::small()
    } else {
        rack_outage::full()
    };
    let summary = summarize(&SwimGenerator::new(sc.swim.clone(), sc.seed).generate());
    let windows: Vec<String> = sc
        .outages
        .iter()
        .map(|w| format!("{:.0}s-{:.0}s", w.at.as_secs_f64(), w.until.as_secs_f64()))
        .collect();
    println!(
        "rack_outage: {} racks x {} nodes x {}+{} slots, {} jobs / {} tasks \
         (reduce ratio {:.2}), rack {} dark {}, seed {:#x}",
        sc.racks,
        sc.nodes_per_rack,
        sc.map_slots,
        sc.reduce_slots,
        summary.jobs,
        summary.tasks,
        sc.swim.reduce_ratio,
        sc.outage_rack,
        windows.join(" and "),
        sc.seed,
    );

    // 1. Fixed-seed determinism: two predictor-on runs must be identical.
    let first = rack_outage::run(&sc, true);
    let second = rack_outage::run(&sc, true);
    assert_eq!(
        first.outcome.report, second.outcome.report,
        "fixed-seed ClusterReport must be byte-identical under rack outage"
    );
    assert_eq!(first.outcome.events, second.outcome.events);

    // 2. Shuffle as a fault domain: committed outputs die, reduces stall and
    // re-fetch, affected maps re-execute — and the jobs still all complete
    // (asserted inside run_rack_outage).
    let faults = first.outcome.report.faults;
    assert!(
        first.outcome.lost_map_outputs >= 1,
        "the outage must destroy committed map outputs: {faults:?}"
    );
    assert!(
        first.outcome.shuffle_refetches >= 1,
        "stalled reduces must re-fetch with backoff: {faults:?}"
    );
    assert!(
        faults.re_executed_tasks >= first.outcome.lost_map_outputs,
        "every lost map output must re-execute its map: {faults:?}"
    );
    assert!(faults.node_failures >= 1, "{faults:?}");
    assert!(faults.node_rejoins >= 1, "{faults:?}");

    // 3. Predictor tail payoff on the same seed.
    let without = rack_outage::run(&sc, false);
    let on_p99 = first.p99_sojourn_secs();
    let off_p99 = without.p99_sojourn_secs();
    let on_makespan = first.outcome.report.makespan_secs().expect("complete");
    let off_makespan = without.outcome.report.makespan_secs().expect("complete");
    println!(
        "sojourn p50/p95/p99/max   : {:.1}/{:.1}/{:.1}/{:.1}s with predictor, \
         {:.1}/{:.1}/{:.1}/{:.1}s without",
        first.outcome.sojourn_quantiles[0],
        first.outcome.sojourn_quantiles[1],
        on_p99,
        first.outcome.sojourn_quantiles[3],
        without.outcome.sojourn_quantiles[0],
        without.outcome.sojourn_quantiles[1],
        off_p99,
        without.outcome.sojourn_quantiles[3],
    );
    // Same workload, same fault plan: the predictor changes placement only.
    assert_eq!(
        faults.node_failures,
        without.outcome.report.faults.node_failures
    );
    if !bench.is_test() {
        // The smoke shape is too small for a guaranteed ordering; the full
        // tracked shape must show the strict tail win (CI re-checks this in
        // check_bench's quality gate).
        assert!(
            on_p99 < off_p99,
            "failure-aware placement must reduce tail completion time: \
             p99 sojourn {on_p99:.1}s (on) vs {off_p99:.1}s (off)"
        );
    }

    let wall = first.wall_secs.min(second.wall_secs);
    let events_per_sec = first.outcome.events as f64 / wall;

    println!("events                    : {}", first.outcome.events);
    println!(
        "map outputs lost          : {} with predictor, {} without ({} migrated)",
        first.outcome.lost_map_outputs,
        without.outcome.lost_map_outputs,
        first.outcome.map_outputs_migrated
    );
    println!(
        "shuffle re-fetch rounds   : {} with predictor, {} without",
        first.outcome.shuffle_refetches, without.outcome.shuffle_refetches
    );
    println!(
        "node failures / rejoins   : {} / {}",
        faults.node_failures, faults.node_rejoins
    );
    println!(
        "re-executed tasks         : {} ({} speculative launched, {} won)",
        faults.re_executed_tasks, faults.speculative_launched, faults.speculative_won
    );
    println!(
        "makespan                  : {on_makespan:.1}s with predictor, \
         {off_makespan:.1}s without ({:+.1}%)",
        (on_makespan / off_makespan - 1.0) * 100.0
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
                    ("racks", Json::Num(f64::from(sc.racks))),
                    ("nodes", Json::Num(f64::from(sc.racks * sc.nodes_per_rack))),
                    ("jobs", Json::Num(summary.jobs as f64)),
                    ("tasks", Json::Num(summary.tasks as f64)),
                    ("reduce_ratio", Json::Num(sc.swim.reduce_ratio)),
                    (
                        "scheduler",
                        Json::Str("hfsp+suspend-resume+speculation+predictor".into()),
                    ),
                    ("outage_rack", Json::Num(f64::from(sc.outage_rack))),
                ]),
            ),
            ("events", Json::Num(first.outcome.events as f64)),
            ("wall_secs", Json::Num(wall)),
            ("events_per_sec", Json::Num(events_per_sec.round())),
            (
                "shuffle",
                Json::obj(vec![
                    (
                        "lost_map_outputs",
                        Json::Num(first.outcome.lost_map_outputs as f64),
                    ),
                    (
                        "map_outputs_migrated",
                        Json::Num(first.outcome.map_outputs_migrated as f64),
                    ),
                    (
                        "shuffle_refetches",
                        Json::Num(first.outcome.shuffle_refetches as f64),
                    ),
                    (
                        "re_executed_tasks",
                        Json::Num(faults.re_executed_tasks as f64),
                    ),
                    ("node_failures", Json::Num(faults.node_failures as f64)),
                    ("node_rejoins", Json::Num(faults.node_rejoins as f64)),
                ]),
            ),
            (
                "predictor",
                Json::obj(vec![
                    ("p99_sojourn_secs", Json::Num(on_p99.round())),
                    ("p99_sojourn_secs_without", Json::Num(off_p99.round())),
                    ("makespan_secs", Json::Num(on_makespan.round())),
                    ("makespan_secs_without", Json::Num(off_makespan.round())),
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
        bench.write_baseline("BENCH_rack_outage.json", &json.pretty());
    }
}
