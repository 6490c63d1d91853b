//! Rack-sharded cluster engine at production scale: a 10k-node / 100-rack
//! cluster driven by a SWIM-generated, DFS-file-backed trace of >100k map
//! tasks under HFSP suspend/resume churn.
//!
//! Measurements:
//!
//! 1. **events/sec** of the full multi-rack scenario (the number tracked
//!    across PRs in `BENCH_swim_cluster.json`). The acceptance bar is that
//!    per-event cost stays near-O(1) in cluster size: events/sec within 3x of
//!    the 200-node `sim_throughput` rate (checked against the checked-in
//!    `BENCH_sim_throughput.json` when present, and enforced ratio-wise by
//!    the `check_bench` CI gate);
//! 2. **locality-hit ratios** — node-local / rack-local / off-rack map launch
//!    fractions from the engine's maintained `LocalityStats`;
//! 3. fixed-seed determinism: two runs must produce byte-identical
//!    `ClusterReport`s, asserted on every invocation (including `--test`).
//!
//! The scenario itself lives in `mrp_bench::scenarios::swim_cluster` so the
//! CI regression gate runs exactly the same workload. `--test` runs the
//! shrunken 64-node variant so CI can keep the scenario compiling and
//! deterministic on every PR without the 10k-node cost.

use mrp_bench::scenarios::swim_cluster::SwimScenario;
use mrp_bench::Bench;
use mrp_preempt::json::Json;
use mrp_sim::GIB;
use mrp_workload::{summarize, SwimGenerator};

fn sim_throughput_baseline() -> Option<f64> {
    mrp_bench::scenarios::baseline_events_per_sec("BENCH_sim_throughput.json")
}

fn main() {
    let bench = Bench::from_args();
    let sc = if bench.is_test() {
        SwimScenario::small()
    } else {
        SwimScenario::full()
    };
    let summary = summarize(&SwimGenerator::new(sc.swim_config(), sc.seed).generate());
    println!(
        "swim_cluster: {} racks x {} nodes x {} map slots, {} jobs / {} tasks \
         ({:.1} GB), HFSP suspend/resume, SWIM trace seed {:#x}",
        sc.racks,
        sc.nodes_per_rack,
        sc.map_slots,
        summary.jobs,
        summary.tasks,
        summary.total_bytes as f64 / GIB as f64,
        sc.seed,
    );
    assert!(
        summary.tasks >= sc.min_tasks,
        "trace too small: {} tasks < {}",
        summary.tasks,
        sc.min_tasks
    );

    // Run twice and pin fixed-seed report equality on every invocation.
    let first = sc.run();
    let second = sc.run();
    assert_eq!(
        first.report, second.report,
        "fixed-seed ClusterReport must be byte-identical"
    );
    assert_eq!(first.events, second.events);
    let suspends: u32 = first
        .report
        .jobs
        .iter()
        .flat_map(|j| j.tasks.iter())
        .map(|t| t.suspend_cycles)
        .sum();
    assert!(suspends > 0, "the scenario must exercise preemption churn");
    let locality = first.report.locality;
    assert!(
        locality.rack_local + locality.off_rack > 0,
        "a multi-rack run must exercise remote launches"
    );

    let mut wall = first.wall_secs.min(second.wall_secs);
    if !bench.is_test() {
        wall = wall.min(sc.run().wall_secs);
    }
    let events_per_sec = first.events as f64 / wall;

    println!("events                  : {}", first.events);
    println!("suspend cycles          : {suspends}");
    println!("wall seconds (best)     : {wall:.3}");
    println!("events/sec              : {events_per_sec:.0}");
    println!(
        "locality hits           : node-local {:.1}% / rack-local {:.1}% / off-rack {:.1}% \
         ({} launches)",
        locality.node_local_ratio() * 100.0,
        locality.rack_local_ratio() * 100.0,
        locality.off_rack_ratio() * 100.0,
        locality.total(),
    );
    let ratio_vs_200node = sim_throughput_baseline().map(|base| events_per_sec / base);
    if let Some(ratio) = ratio_vs_200node {
        println!(
            "vs 200-node sim_throughput baseline: {:.2}x (acceptance: >= 1/3x)",
            ratio
        );
    }

    // Observability pass: the same scenario with the full obs layer on must
    // stay byte-identical, and its span trace must export as a schema-valid
    // Chrome `trace_event` JSON (balanced B/E pairs, non-decreasing
    // timestamps). This is the CI schema check for the trace exporter.
    let observed = sc.run_with_config(|cfg| {
        cfg.obs = mrp_engine::ObsConfig::full();
    });
    assert_eq!(
        observed.report, first.report,
        "observation must not change the simulation outcome"
    );
    assert_eq!(observed.events, first.events);
    let obs = observed.obs.expect("obs enabled");
    let trace =
        mrp_preempt::obs_export::chrome_trace_json(obs.spans(), observed.report.finished_at)
            .pretty();
    mrp_preempt::obs_export::validate_chrome_trace(&trace)
        .unwrap_or_else(|e| panic!("exported Chrome trace failed schema check: {e}"));
    println!(
        "obs trace               : {} spans ({} dropped), {} KiB of trace_event JSON, schema ok",
        obs.spans().len(),
        obs.dropped_spans(),
        trace.len() / 1024,
    );
    let profile = obs.profile().expect("profiling on");
    assert!(
        profile.attribution() >= 0.95,
        "profiler attributed only {:.1}% of loop wall time",
        100.0 * profile.attribution()
    );
    println!("per-event-kind profile (obs-on run):");
    println!("{}", profile.table());

    if !bench.is_test() {
        let mut fields = vec![
            (
                "scenario",
                Json::obj(vec![
                    ("racks", Json::Num(f64::from(sc.racks))),
                    ("nodes_per_rack", Json::Num(f64::from(sc.nodes_per_rack))),
                    ("nodes", Json::Num(f64::from(sc.nodes()))),
                    ("map_slots_per_node", Json::Num(f64::from(sc.map_slots))),
                    ("jobs", Json::Num(summary.jobs as f64)),
                    ("tasks", Json::Num(summary.tasks as f64)),
                    ("scheduler", Json::Str("hfsp+suspend-resume".into())),
                    ("suspend_cycles", Json::Num(f64::from(suspends))),
                ]),
            ),
            ("events", Json::Num(first.events as f64)),
            ("wall_secs", Json::Num(wall)),
            ("events_per_sec", Json::Num(events_per_sec.round())),
            (
                "locality",
                Json::obj(vec![
                    ("node_local", Json::Num(locality.node_local as f64)),
                    ("rack_local", Json::Num(locality.rack_local as f64)),
                    ("off_rack", Json::Num(locality.off_rack as f64)),
                    (
                        "node_local_ratio",
                        Json::Num((locality.node_local_ratio() * 1000.0).round() / 1000.0),
                    ),
                    (
                        "rack_local_ratio",
                        Json::Num((locality.rack_local_ratio() * 1000.0).round() / 1000.0),
                    ),
                    (
                        "off_rack_ratio",
                        Json::Num((locality.off_rack_ratio() * 1000.0).round() / 1000.0),
                    ),
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
        bench.write_baseline("BENCH_swim_cluster.json", &json.pretty());
    }
}
