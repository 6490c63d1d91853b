//! Delay scheduling on the `swim_cluster`-shaped workload: the
//! locality-vs-latency trade-off, measured.
//!
//! Runs the same SWIM trace (multi-rack, DFS-backed inputs, HFSP
//! suspend/resume) twice on the same seed — greedy placement vs delay
//! scheduling at 1+1 heartbeat intervals — and records:
//!
//! 1. the **node-local launch rate** with and without delay (acceptance on
//!    the full shape: >= 30% with delay, against the sub-percent greedy
//!    baseline);
//! 2. the **makespan cost** of waiting (acceptance: <= 5% same-seed
//!    regression);
//! 3. **events/sec** of the delay-on run (tracked in
//!    `BENCH_locality_delay.json`; the per-event cost must stay within the
//!    existing 3x bar against the 200-node `sim_throughput` rate, enforced
//!    ratio-wise by `check_bench`);
//! 4. fixed-seed determinism: two delay-on runs must produce byte-identical
//!    `ClusterReport`s, asserted on every invocation (including `--test`).
//!
//! The scenario lives in `mrp_bench::scenarios::locality_delay` so the CI
//! regression gate runs exactly the same workload. `--test` runs the
//! shrunken 64-node variant.

use mrp_bench::scenarios::{baseline_events_per_sec, locality_delay};
use mrp_bench::Bench;
use mrp_preempt::json::Json;
use mrp_sim::GIB;
use mrp_workload::{summarize, SwimGenerator};

fn main() {
    let bench = Bench::from_args();
    let sc = if bench.is_test() {
        locality_delay::small()
    } else {
        locality_delay::full()
    };
    let summary = summarize(&SwimGenerator::new(sc.swim_config(), sc.seed).generate());
    println!(
        "locality_delay: {} racks x {} nodes x {} map slots, {} jobs / {} tasks ({:.1} GB), \
         HFSP suspend/resume, delay {}+{} heartbeat intervals, SWIM seed {:#x}",
        sc.racks,
        sc.nodes_per_rack,
        sc.map_slots,
        summary.jobs,
        summary.tasks,
        summary.total_bytes as f64 / GIB as f64,
        locality_delay::NODE_WAIT_INTERVALS,
        locality_delay::RACK_WAIT_INTERVALS,
        sc.seed,
    );
    assert!(
        summary.tasks >= sc.min_tasks,
        "trace too small: {} tasks < {}",
        summary.tasks,
        sc.min_tasks
    );

    let off = locality_delay::run(&sc, false);
    let on = locality_delay::run(&sc, true);
    let again = locality_delay::run(&sc, true);
    assert_eq!(
        on.report, again.report,
        "fixed-seed delay-on ClusterReport must be byte-identical"
    );
    assert_eq!(on.events, again.events);

    let off_loc = off.report.locality;
    let on_loc = on.report.locality;
    let off_makespan = off.report.makespan_secs().expect("all jobs complete");
    let on_makespan = on.report.makespan_secs().expect("all jobs complete");
    let makespan_ratio = on_makespan / off_makespan;

    println!(
        "  greedy : node-local {:>5.1}% / rack-local {:>5.1}% / off-rack {:>5.1}%  \
         makespan {:.0}s",
        off_loc.node_local_ratio() * 100.0,
        off_loc.rack_local_ratio() * 100.0,
        off_loc.off_rack_ratio() * 100.0,
        off_makespan,
    );
    println!(
        "  delayed: node-local {:>5.1}% / rack-local {:>5.1}% / off-rack {:>5.1}%  \
         makespan {:.0}s ({:+.1}%)",
        on_loc.node_local_ratio() * 100.0,
        on_loc.rack_local_ratio() * 100.0,
        on_loc.off_rack_ratio() * 100.0,
        on_makespan,
        (makespan_ratio - 1.0) * 100.0,
    );
    println!(
        "  skipped launch opportunities: {}, completed waits: {} (hist {:?})",
        on_loc.delayed_skips,
        on_loc.delay_waits_total(),
        on_loc.delay_wait_hist,
    );

    // Delay scheduling must actually engage and pay off on every shape.
    assert_eq!(off_loc.delayed_skips, 0, "greedy runs never skip");
    assert!(on_loc.delayed_skips > 0, "delay must decline opportunities");
    assert!(
        on_loc.delay_waits_total() > 0,
        "waits must end in local wins"
    );
    assert!(
        on_loc.node_local_ratio() > off_loc.node_local_ratio(),
        "delay must improve the node-local rate: {:.4} vs {:.4}",
        on_loc.node_local_ratio(),
        off_loc.node_local_ratio()
    );
    if !bench.is_test() {
        // The recorded acceptance bars from the delay-scheduling PR.
        assert!(
            on_loc.node_local_ratio() >= 0.30,
            "full-shape node-local rate must reach 30%, got {:.1}%",
            on_loc.node_local_ratio() * 100.0
        );
        assert!(
            makespan_ratio <= 1.05,
            "full-shape makespan regression must stay within 5%, got {:+.1}%",
            (makespan_ratio - 1.0) * 100.0
        );
    }

    let mut wall = on.wall_secs.min(again.wall_secs);
    if !bench.is_test() {
        wall = wall.min(locality_delay::run(&sc, true).wall_secs);
    }
    let events_per_sec = on.events as f64 / wall;
    println!("events (delay-on)       : {}", on.events);
    println!("wall seconds (best)     : {wall:.3}");
    println!("events/sec              : {events_per_sec:.0}");
    let ratio_vs_200node =
        baseline_events_per_sec("BENCH_sim_throughput.json").map(|base| events_per_sec / base);
    if let Some(ratio) = ratio_vs_200node {
        println!(
            "vs 200-node sim_throughput baseline: {:.2}x (acceptance: >= 1/3x)",
            ratio
        );
    }

    if !bench.is_test() {
        let locality_json = |loc: &mrp_engine::LocalityStats| {
            Json::obj(vec![
                ("node_local", Json::Num(loc.node_local as f64)),
                ("rack_local", Json::Num(loc.rack_local as f64)),
                ("off_rack", Json::Num(loc.off_rack as f64)),
                (
                    "node_local_ratio",
                    Json::Num((loc.node_local_ratio() * 1000.0).round() / 1000.0),
                ),
            ])
        };
        let mut fields = vec![
            (
                "scenario",
                Json::obj(vec![
                    ("racks", Json::Num(f64::from(sc.racks))),
                    ("nodes", Json::Num(f64::from(sc.nodes()))),
                    ("jobs", Json::Num(summary.jobs as f64)),
                    ("tasks", Json::Num(summary.tasks as f64)),
                    (
                        "scheduler",
                        Json::Str("hfsp+suspend-resume+delay-scheduling".into()),
                    ),
                    (
                        "node_wait_intervals",
                        Json::Num(locality_delay::NODE_WAIT_INTERVALS),
                    ),
                    (
                        "rack_wait_intervals",
                        Json::Num(locality_delay::RACK_WAIT_INTERVALS),
                    ),
                ]),
            ),
            ("events", Json::Num(on.events as f64)),
            ("wall_secs", Json::Num(wall)),
            ("events_per_sec", Json::Num(events_per_sec.round())),
            ("locality_with_delay", locality_json(&on_loc)),
            ("locality_without_delay", locality_json(&off_loc)),
            ("delayed_skips", Json::Num(on_loc.delayed_skips as f64)),
            (
                "delay_waits_completed",
                Json::Num(on_loc.delay_waits_total() as f64),
            ),
            ("makespan_secs", Json::Num(on_makespan.round())),
            (
                "makespan_secs_without_delay",
                Json::Num(off_makespan.round()),
            ),
            (
                "makespan_ratio",
                Json::Num((makespan_ratio * 1000.0).round() / 1000.0),
            ),
        ];
        if let Some(ratio) = ratio_vs_200node {
            fields.push((
                "events_per_sec_vs_200node_baseline",
                Json::Num((ratio * 100.0).round() / 100.0),
            ));
        }
        let json = Json::obj(fields);
        bench.write_baseline("BENCH_locality_delay.json", &json.pretty());
    }
}
