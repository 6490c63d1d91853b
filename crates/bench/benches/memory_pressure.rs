//! Memory pressure through the block-granular swap-device model: big
//! memory-hungry batch jobs on 3 GiB nodes, a stream of small HFSP
//! queue-jumpers suspending them, every resident set cycling through swap.
//!
//! Asserted on every invocation (including the 4-node `--test` smoke):
//!
//! 1. **fixed-seed determinism** — two eager-resume runs agree on event
//!    count, makespan and swap traffic byte-for-byte;
//! 2. **lazy beats eager** — lazy resume reads strictly fewer swap bytes
//!    than eager on the same seed;
//! 3. **no false thrash** — the calm (non-overcommitted) variant keeps the
//!    kernel's `thrash_events` counter at exactly zero;
//! 4. **resume cost is not flat** — per-cycle swap-in bytes strictly grow
//!    with the dirty state per task across the cost curve;
//! 5. **disk contention bites** — giving a killed node's re-replication
//!    traffic a bandwidth share inflates virtual swap-I/O time beyond the
//!    same fault with share zero (same byte flow, shared spindle);
//! 6. **near-O(1) per-event cost** — events/sec is reported against the
//!    checked-in `sim_throughput` baseline. The scenario is small (~8.5k
//!    events) and swap-device heavy, so it carries no hard anchor-ratio
//!    bar; the `check_bench` CI gate catches regressions by comparing the
//!    fresh ratio against the checked-in baseline ratio instead.
//!
//! The scenario lives in `mrp_bench::scenarios::memory_pressure` (backed by
//! `mrp_experiments::MemoryPressureConfig`) so the CI gate runs exactly the
//! same workload. Full runs with `--write-baseline` write
//! `BENCH_memory_pressure.json`.

use mrp_bench::scenarios::memory_pressure::{self, assert_quality};
use mrp_bench::Bench;
use mrp_engine::SwapConfig;
use mrp_preempt::json::Json;
use mrp_sim::MIB;

fn sim_throughput_baseline() -> Option<f64> {
    mrp_bench::scenarios::baseline_events_per_sec("BENCH_sim_throughput.json")
}

fn main() {
    let bench = Bench::from_args();
    let sc = if bench.is_test() {
        memory_pressure::small()
    } else {
        memory_pressure::full()
    };
    println!(
        "memory_pressure: {} nodes x {} map slots, {} MiB RAM / {} MiB state \
         per task, {} batch jobs x {} tasks + {} queue-jumpers every {}s, \
         seed {:#x}",
        sc.nodes,
        sc.map_slots,
        sc.total_ram / MIB,
        sc.state_memory / MIB,
        sc.batch_jobs,
        sc.batch_tasks,
        sc.small_jobs,
        sc.small_every_secs,
        sc.seed,
    );

    // 1. Fixed-seed determinism: two eager-resume runs must agree.
    let first = memory_pressure::run(&sc, SwapConfig::enabled());
    let second = memory_pressure::run(&sc, SwapConfig::enabled());
    assert_eq!(
        first.outcome.events_processed, second.outcome.events_processed,
        "fixed-seed event count must be identical"
    );
    assert_eq!(first.outcome.makespan_secs, second.outcome.makespan_secs);
    assert_eq!(first.outcome.swap_out_bytes, second.outcome.swap_out_bytes);
    assert_eq!(first.outcome.swap_in_bytes, second.outcome.swap_in_bytes);
    assert_eq!(first.outcome.suspend_cycles, second.outcome.suspend_cycles);

    // Same seed, lazy resume: only the fault-back policy differs.
    let lazy = memory_pressure::run(&sc, SwapConfig::lazy());
    // The calm variant: state fits, nothing may thrash.
    let calm = memory_pressure::run(&sc.clone().calm(), SwapConfig::enabled());
    // The resume-cost curve over dirty-state sizes.
    let curve = memory_pressure::resume_cost_curve(&sc, &memory_pressure::CURVE_STATES);
    // The contention pair: same node killed, only the disk share differs.
    let fault_only = memory_pressure::run(&sc.clone().contended(0.0), SwapConfig::enabled());
    let fault_share = memory_pressure::run(&sc.clone().contended(0.5), SwapConfig::enabled());

    // 2-5. The quality bars shared with the check_bench gate.
    assert_quality(
        &first.outcome,
        &lazy.outcome,
        &calm.outcome,
        &curve,
        &fault_only.outcome,
        &fault_share.outcome,
    );

    let eager = &first.outcome;
    println!("events                    : {}", eager.events_processed);
    println!(
        "suspend cycles            : {} (eager), {} (lazy)",
        eager.suspend_cycles, lazy.outcome.suspend_cycles
    );
    println!(
        "swap out / in (eager)     : {} / {} MiB",
        eager.swap_out_bytes / MIB,
        eager.swap_in_bytes / MIB
    );
    println!(
        "swap in (lazy)            : {} MiB ({:.1}% of eager)",
        lazy.outcome.swap_in_bytes / MIB,
        lazy.outcome.swap_in_bytes as f64 / eager.swap_in_bytes as f64 * 100.0
    );
    println!(
        "thrash events             : {} pressured, {} calm (bar: 0)",
        eager.thrash_events, calm.outcome.thrash_events
    );
    for p in &curve {
        println!(
            "resume cost @ {:>5} MiB   : {:.1} MiB/cycle over {} cycles",
            p.state_memory / MIB,
            p.swap_in_per_cycle / MIB as f64,
            p.suspend_cycles
        );
    }
    println!(
        "makespan                  : {:.1}s eager, {:.1}s lazy, {:.1}s with fault",
        eager.makespan_secs, lazy.outcome.makespan_secs, fault_only.outcome.makespan_secs
    );
    println!(
        "swap I/O time under fault : {:.1}s at share 0, {:.1}s at share 0.5",
        fault_only.outcome.swap_io_secs, fault_share.outcome.swap_io_secs
    );

    let mut wall = first.wall_secs.min(second.wall_secs);
    if !bench.is_test() {
        wall = wall.min(memory_pressure::run(&sc, SwapConfig::enabled()).wall_secs);
    }
    let events_per_sec = eager.events_processed as f64 / wall;
    println!("wall seconds (best)       : {wall:.3}");
    println!("events/sec                : {events_per_sec:.0}");
    let ratio_vs_200node = sim_throughput_baseline().map(|base| events_per_sec / base);
    if let Some(ratio) = ratio_vs_200node {
        println!(
            "vs 200-node sim_throughput baseline: {:.2}x (regression-gated by check_bench)",
            ratio
        );
    }

    if !bench.is_test() {
        let curve_json = curve
            .iter()
            .map(|p| {
                Json::obj(vec![
                    ("state_mib", Json::Num((p.state_memory / MIB) as f64)),
                    (
                        "swap_in_mib_per_cycle",
                        Json::Num((p.swap_in_per_cycle / MIB as f64 * 10.0).round() / 10.0),
                    ),
                    ("suspend_cycles", Json::Num(p.suspend_cycles as f64)),
                    ("makespan_secs", Json::Num(p.makespan_secs.round())),
                ])
            })
            .collect::<Vec<_>>();
        let mut fields = vec![
            (
                "scenario",
                Json::obj(vec![
                    ("nodes", Json::Num(f64::from(sc.nodes))),
                    ("map_slots", Json::Num(f64::from(sc.nodes * sc.map_slots))),
                    ("ram_mib", Json::Num((sc.total_ram / MIB) as f64)),
                    ("state_mib", Json::Num((sc.state_memory / MIB) as f64)),
                    (
                        "scheduler",
                        Json::Str("hfsp suspend/resume + block-granular swap device".into()),
                    ),
                ]),
            ),
            ("events", Json::Num(eager.events_processed as f64)),
            ("wall_secs", Json::Num(wall)),
            ("events_per_sec", Json::Num(events_per_sec.round())),
            (
                "swap",
                Json::obj(vec![
                    ("suspend_cycles", Json::Num(eager.suspend_cycles as f64)),
                    (
                        "swap_out_mib_eager",
                        Json::Num((eager.swap_out_bytes / MIB) as f64),
                    ),
                    (
                        "swap_in_mib_eager",
                        Json::Num((eager.swap_in_bytes / MIB) as f64),
                    ),
                    (
                        "swap_in_mib_lazy",
                        Json::Num((lazy.outcome.swap_in_bytes / MIB) as f64),
                    ),
                    (
                        "thrash_events_calm",
                        Json::Num(calm.outcome.thrash_events as f64),
                    ),
                    (
                        "swap_io_secs_fault",
                        Json::Num((fault_only.outcome.swap_io_secs * 10.0).round() / 10.0),
                    ),
                    (
                        "swap_io_secs_fault_contended",
                        Json::Num((fault_share.outcome.swap_io_secs * 10.0).round() / 10.0),
                    ),
                ]),
            ),
            ("resume_cost_curve", Json::Arr(curve_json)),
        ];
        if let Some(ratio) = ratio_vs_200node {
            fields.push((
                "events_per_sec_vs_200node_baseline",
                Json::Num((ratio * 100.0).round() / 100.0),
            ));
        }
        let json = Json::obj(fields);
        bench.write_baseline("BENCH_memory_pressure.json", &json.pretty());
    }
}
