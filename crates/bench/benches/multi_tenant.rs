//! Multi-tenant scheduling through the `MultiTenantScheduler`: DRF
//! `allocate`, quota `reclaim` (kill vs OS-assisted suspend — the paper's
//! trade-off as a knob) and best-effort `backfill` on a weighted
//! three-tenant cluster with a saturating burst and staggered streams.
//!
//! Asserted on every invocation (including the 8-node `--test` smoke):
//!
//! 1. **fixed-seed determinism** — two suspend-based runs agree on event
//!    count, suspend cycles, makespan and lost work;
//! 2. **DRF quota adherence** — at steady state no tenant's mean dominant
//!    share exceeds its quota by more than 5 percentage points while
//!    another tenant is starved;
//! 3. **the paper's trade-off at multi-tenant scale** — suspend-based
//!    reclaim strictly beats kill-based on lost work on the same seed;
//! 4. **backfill liveness** — every best-effort scavenger job completes;
//! 5. **near-O(1) per-event cost** — events/sec is reported against the
//!    checked-in `sim_throughput` baseline; the acceptance bar (within 3x)
//!    is enforced ratio-wise by the `check_bench` CI gate on fresh runs.
//!
//! The scenario lives in `mrp_bench::scenarios::multi_tenant` (backed by
//! `mrp_experiments::TenantScenarioConfig`) so the CI gate runs exactly the
//! same workload. Full runs with `--write-baseline` write
//! `BENCH_multi_tenant.json`.

use mrp_bench::scenarios::multi_tenant::{self, assert_quality};
use mrp_bench::Bench;
use mrp_preempt::json::Json;
use mrp_preempt::PreemptionPrimitive;

fn sim_throughput_baseline() -> Option<f64> {
    mrp_bench::scenarios::baseline_events_per_sec("BENCH_sim_throughput.json")
}

fn main() {
    let bench = Bench::from_args();
    let sc = if bench.is_test() {
        multi_tenant::small()
    } else {
        multi_tenant::full()
    };
    println!(
        "multi_tenant: {} racks x {} nodes x {} map slots, weights {:?}, \
         DRF allocate + reclaim + backfill pipeline, burst {}x{} + streams \
         every {:.0}s to t={:.0}s, seed {:#x}",
        sc.racks,
        sc.nodes_per_rack,
        sc.map_slots,
        sc.weights,
        sc.burst_jobs,
        sc.burst_tasks,
        sc.stream_every.as_secs_f64(),
        sc.horizon.as_secs_f64(),
        sc.seed,
    );

    // 1. Fixed-seed determinism: two suspend-based runs must agree.
    let first = multi_tenant::run(&sc, PreemptionPrimitive::SuspendResume);
    let second = multi_tenant::run(&sc, PreemptionPrimitive::SuspendResume);
    assert_eq!(
        first.outcome.events_processed, second.outcome.events_processed,
        "fixed-seed event count must be identical"
    );
    assert_eq!(first.outcome.suspend_cycles, second.outcome.suspend_cycles);
    assert_eq!(first.outcome.makespan_secs, second.outcome.makespan_secs);
    assert_eq!(first.outcome.lost_work_secs, second.outcome.lost_work_secs);

    // Kill-based reclaim on the same seed: only the eviction mechanism
    // differs.
    let kill = multi_tenant::run(&sc, PreemptionPrimitive::Kill);

    // 2-4. The quality bars shared with the check_bench gate.
    assert_quality(&first.outcome, &kill.outcome);

    let suspend = &first.outcome;
    println!("events                    : {}", suspend.events_processed);
    for s in &suspend.shares {
        println!(
            "tenant {}                  : quota {:.3}, mean share {:.3}, \
             excess-over-quota {:.4} (bar 0.05)",
            s.tenant, s.quota, s.mean_dominant_share, s.mean_excess_over_quota
        );
    }
    println!(
        "reclaim evictions         : {} suspend cycles (suspend run), \
         lost work {:.1}s suspend vs {:.1}s kill",
        suspend.suspend_cycles, suspend.lost_work_secs, kill.outcome.lost_work_secs
    );
    println!(
        "makespan                  : {:.1}s suspend, {:.1}s kill ({:+.1}%)",
        suspend.makespan_secs,
        kill.outcome.makespan_secs,
        (suspend.makespan_secs / kill.outcome.makespan_secs - 1.0) * 100.0
    );
    println!(
        "best-effort (backfill)    : {}/{} jobs completed",
        suspend.best_effort_completed, suspend.best_effort_jobs
    );

    let mut wall = first.wall_secs.min(second.wall_secs);
    if !bench.is_test() {
        wall = wall.min(multi_tenant::run(&sc, PreemptionPrimitive::SuspendResume).wall_secs);
    }
    let events_per_sec = suspend.events_processed as f64 / wall;
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
        let tenants = suspend
            .shares
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("tenant", Json::Num(f64::from(s.tenant))),
                    ("quota", Json::Num((s.quota * 1000.0).round() / 1000.0)),
                    (
                        "mean_dominant_share",
                        Json::Num((s.mean_dominant_share * 1000.0).round() / 1000.0),
                    ),
                    (
                        "mean_excess_over_quota",
                        Json::Num((s.mean_excess_over_quota * 10000.0).round() / 10000.0),
                    ),
                ])
            })
            .collect::<Vec<_>>();
        let mut fields = vec![
            (
                "scenario",
                Json::obj(vec![
                    ("racks", Json::Num(f64::from(sc.racks))),
                    ("nodes", Json::Num(f64::from(sc.racks * sc.nodes_per_rack))),
                    ("map_slots", Json::Num(f64::from(sc.total_map_slots()))),
                    ("tenants", Json::Num(sc.weights.len() as f64)),
                    (
                        "scheduler",
                        Json::Str("pipeline: drf-allocate + reclaim + backfill".into()),
                    ),
                ]),
            ),
            ("events", Json::Num(suspend.events_processed as f64)),
            ("wall_secs", Json::Num(wall)),
            ("events_per_sec", Json::Num(events_per_sec.round())),
            ("tenants", Json::Arr(tenants)),
            (
                "reclaim",
                Json::obj(vec![
                    ("suspend_cycles", Json::Num(suspend.suspend_cycles as f64)),
                    (
                        "lost_work_secs_suspend",
                        Json::Num((suspend.lost_work_secs * 10.0).round() / 10.0),
                    ),
                    (
                        "lost_work_secs_kill",
                        Json::Num((kill.outcome.lost_work_secs * 10.0).round() / 10.0),
                    ),
                    (
                        "makespan_secs_suspend",
                        Json::Num(suspend.makespan_secs.round()),
                    ),
                    (
                        "makespan_secs_kill",
                        Json::Num(kill.outcome.makespan_secs.round()),
                    ),
                    (
                        "best_effort_completed",
                        Json::Num(suspend.best_effort_completed as f64),
                    ),
                    (
                        "best_effort_jobs",
                        Json::Num(suspend.best_effort_jobs as f64),
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
        bench.write_baseline("BENCH_multi_tenant.json", &json.pretty());
    }
}
