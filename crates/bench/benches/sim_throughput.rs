//! Cluster-scale simulation-core throughput: events/sec on a 200-node,
//! >2000-task workload with suspend/resume preemption churn.
//!
//! Two measurements:
//!
//! 1. **events/sec** of the core on the large scenario (the number tracked
//!    across PRs in `BENCH_sim_throughput.json`);
//! 2. a queue-level microbenchmark of the slab/generation [`EventQueue`]
//!    against a naive sorted-vec queue under schedule/cancel/pop churn.
//!
//! Determinism is asserted on every run: two runs, and an observed run, must
//! produce byte-identical `ClusterReport`s from the same seed.

use mrp_bench::scenarios::{hfsp, sim_throughput as scenario};
use mrp_bench::Bench;
use mrp_sim::{EventQueue, SimRng, SimTime};
use std::time::Instant;

/// Queue-level churn comparison: the slab/generation queue vs a naive sorted
/// insert queue over the same deterministic op mix. Returns (fast_ops_per_sec,
/// naive_ops_per_sec).
fn queue_microbench(ops: usize) -> (f64, f64) {
    // Fast queue.
    let start = Instant::now();
    {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut ids = Vec::new();
        let mut floor = SimTime::ZERO;
        let mut rng = SimRng::new(42);
        let mut live: Vec<usize> = Vec::new();
        for i in 0..ops {
            match rng.index(10) {
                0..=5 => {
                    let at = floor + mrp_sim::SimDuration::from_micros(rng.index(1_000_000) as u64);
                    ids.push(q.schedule(at, i as u64));
                    live.push(ids.len() - 1);
                }
                6..=7 => {
                    if !live.is_empty() {
                        let idx = rng.index(live.len());
                        q.cancel(ids[live.swap_remove(idx)]);
                    }
                }
                _ => {
                    if let Some((at, _)) = q.pop() {
                        floor = at;
                    }
                }
            }
        }
        std::hint::black_box(&q);
    }
    let fast = ops as f64 / start.elapsed().as_secs_f64();

    // Naive sorted-vec queue (timestamp-ordered insert, eager cancellation).
    let start = Instant::now();
    {
        let mut entries: Vec<(u64, u64, u64)> = Vec::new(); // (at, seq, id)
        let mut floor = 0u64;
        let mut rng = SimRng::new(42);
        let mut live: Vec<u64> = Vec::new();
        let mut next_id = 0u64;
        for i in 0..ops {
            match rng.index(10) {
                0..=5 => {
                    let at = floor + rng.index(1_000_000) as u64;
                    let id = next_id;
                    next_id += 1;
                    let key = (at, i as u64);
                    let pos = entries
                        .binary_search_by(|(a, s, _)| (*a, *s).cmp(&key))
                        .unwrap_err();
                    entries.insert(pos, (at, i as u64, id));
                    live.push(id);
                }
                6..=7 => {
                    if !live.is_empty() {
                        let idx = rng.index(live.len());
                        let id = live.swap_remove(idx);
                        entries.retain(|(_, _, eid)| *eid != id);
                    }
                }
                _ => {
                    if !entries.is_empty() {
                        let (at, _, _) = entries.remove(0);
                        floor = at;
                    }
                }
            }
        }
        std::hint::black_box(&entries);
    }
    let naive = ops as f64 / start.elapsed().as_secs_f64();
    (fast, naive)
}

fn main() {
    let bench = Bench::from_args();
    println!(
        "sim_throughput: {} nodes x {} map slots, {} tasks \
         ({} batch jobs x {} + {} small jobs x {}), \
         HFSP suspend/resume preemption churn",
        scenario::NODES,
        scenario::MAP_SLOTS,
        scenario::TOTAL_TASKS,
        scenario::BIG_JOBS,
        scenario::BIG_JOB_TASKS,
        scenario::SMALL_JOBS,
        scenario::SMALL_JOB_TASKS,
    );

    // Core throughput, plus a byte-identical-determinism check.
    let first = scenario::run(hfsp());
    let second = scenario::run(hfsp());
    let (report_a, events, wall_first) = (first.report, first.events, first.wall_secs);
    let (report_b, events_b) = (second.report, second.events);
    assert_eq!(
        report_a, report_b,
        "fixed-seed ClusterReport must be byte-identical"
    );
    assert_eq!(events, events_b, "fixed-seed event count must be identical");
    let suspends: u32 = report_a
        .jobs
        .iter()
        .flat_map(|j| j.tasks.iter())
        .map(|t| t.suspend_cycles)
        .sum();
    assert!(suspends > 0, "the scenario must exercise preemption churn");

    // Observability profiler smoke: with the full obs layer on, the run must
    // stay byte-identical and the event-loop profiler must attribute nearly
    // all of the loop's wall time to event kinds (the batched-timing design
    // loses at most one partial batch per loop window).
    let observed = scenario::run_with_config(hfsp(), |cfg| {
        cfg.obs = mrp_engine::ObsConfig::full();
    });
    assert_eq!(
        observed.report, report_a,
        "observation must not change the simulation outcome"
    );
    assert_eq!(observed.events, events);
    let profile = observed
        .obs
        .expect("obs enabled")
        .profile()
        .expect("profiling on");
    assert!(
        profile.attribution() >= 0.95,
        "profiler attributed only {:.1}% of loop wall time",
        100.0 * profile.attribution()
    );
    println!(
        "obs profiler            : {:.1}% of loop wall attributed over {} events",
        100.0 * profile.attribution(),
        profile.total_events(),
    );

    let mut wall = wall_first;
    if !bench.is_test() {
        // A few more runs; keep the fastest for the headline number.
        for _ in 0..2 {
            wall = wall.min(scenario::run(hfsp()).wall_secs);
        }
    }
    let events_per_sec = events as f64 / wall;

    // Queue-level churn microbenchmark.
    let queue_ops = if bench.is_test() { 50_000 } else { 200_000 };
    let (fast_qps, naive_qps) = queue_microbench(queue_ops);
    let queue_speedup = fast_qps / naive_qps;

    println!("events                  : {events}");
    println!("suspend cycles          : {suspends}");
    println!("wall seconds (best)     : {wall:.3}");
    println!("events/sec              : {events_per_sec:.0}");
    println!("queue ops/sec           : {fast_qps:.0} (naive {naive_qps:.0}, {queue_speedup:.1}x)");

    if !bench.is_test() {
        let json = mrp_preempt::json::Json::obj(vec![
            (
                "scenario",
                mrp_preempt::json::Json::obj(vec![
                    (
                        "nodes",
                        mrp_preempt::json::Json::Num(f64::from(scenario::NODES)),
                    ),
                    (
                        "map_slots_per_node",
                        mrp_preempt::json::Json::Num(f64::from(scenario::MAP_SLOTS)),
                    ),
                    (
                        "tasks",
                        mrp_preempt::json::Json::Num(f64::from(scenario::TOTAL_TASKS)),
                    ),
                    (
                        "scheduler",
                        mrp_preempt::json::Json::Str("hfsp+suspend-resume".into()),
                    ),
                    (
                        "suspend_cycles",
                        mrp_preempt::json::Json::Num(f64::from(suspends)),
                    ),
                ]),
            ),
            ("events", mrp_preempt::json::Json::Num(events as f64)),
            ("wall_secs", mrp_preempt::json::Json::Num(wall)),
            (
                "events_per_sec",
                mrp_preempt::json::Json::Num(events_per_sec.round()),
            ),
            (
                "queue_ops_per_sec",
                mrp_preempt::json::Json::Num(fast_qps.round()),
            ),
            (
                "naive_queue_ops_per_sec",
                mrp_preempt::json::Json::Num(naive_qps.round()),
            ),
            (
                "queue_speedup",
                mrp_preempt::json::Json::Num((queue_speedup * 10.0).round() / 10.0),
            ),
        ]);
        bench.write_baseline("BENCH_sim_throughput.json", &json.pretty());
    }
}
