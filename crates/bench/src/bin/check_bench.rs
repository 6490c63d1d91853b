//! CI bench-regression gate.
//!
//! Re-runs the eight tracked throughput scenarios (`sim_throughput`,
//! `swim_cluster`, `fault_churn`, `locality_delay`, `rack_outage`,
//! `partition_detect`, `multi_tenant`, `memory_pressure`) on the current
//! machine
//! and compares the events/sec **ratios** between scenarios against the
//! ratios recorded in the checked-in `BENCH_*.json` baselines. Per the
//! ROADMAP rule, absolute events/sec are machine-dependent and never
//! compared across machines — only the ratios are: a scenario whose
//! per-event cost regresses shows up as its ratio against the same-machine
//! `sim_throughput` run dropping.
//!
//! Measurement discipline: the scenarios complete in milliseconds to a
//! couple of seconds, so single timings on shared CI machines jitter by tens
//! of percent. Every number here is a median of several runs, and the
//! regression threshold is a 2x-style guard (fail when a ratio drops below
//! half its baseline) — tight enough to catch accidental O(n) -> O(n^2)
//! hot-path regressions (those show up as 3-10x), loose enough not to flap
//! on timing noise.
//!
//! Fails (exit code 1) when:
//!
//! * a scenario's events/sec ratio vs `sim_throughput` drops below 50% of
//!   the checked-in baseline ratio, or
//! * `fault_churn` or `locality_delay` break the hard acceptance bar:
//!   events/sec below 1/3 of the same-machine `sim_throughput` rate, or
//! * the delay-scheduling quality gate regresses: node-local launch rate
//!   below 30% with delay enabled, or same-seed makespan more than 5%
//!   worse than greedy placement (from one delay-on/off pair), or
//! * the failure-aware placement quality gate regresses: on the
//!   `rack_outage` repeat-offender scenario the reliability predictor must
//!   strictly improve the p99 job sojourn vs predictor-off on the same
//!   seed (from one predictor-on/off pair), or
//! * the failure-detection quality gate regresses: on the
//!   `partition_detect` scenario first-commit-wins reconciliation must
//!   never double-commit a task (`duplicate_commits == 0`) and the observed
//!   detection lag must stay within the missed-heartbeat timeout plus one
//!   heartbeat interval (enforced in quick mode too — these are correctness
//!   bars, not timing bars; `partition_detect` also carries the 1/3
//!   events/sec hard bar), or
//! * the multi-tenant quality gate regresses: on the `multi_tenant`
//!   scenario no tenant's mean dominant share may exceed its quota
//!   by more than 5 percentage points at steady state while another tenant
//!   is starved, and suspend-based reclaim must strictly beat kill-based
//!   reclaim on lost work on the same seed (enforced in quick mode too —
//!   correctness bars; `multi_tenant` also carries the 1/3 events/sec hard
//!   bar), or
//! * the swap-device quality gate regresses: on the `memory_pressure`
//!   scenario lazy resume must read strictly fewer swap bytes than eager on
//!   the same seed, the calm (non-overcommitted) variant must record zero
//!   `thrash_events`, the per-cycle resume cost must strictly grow with the
//!   dirty state per task, and disk contention from re-replication must
//!   strictly inflate virtual swap-I/O time (enforced in quick mode too —
//!   correctness bars), or
//! * the observability-overhead gate regresses: `sim_throughput` with
//!   `ObsConfig::full()` (metrics registry + time-series sampler + span
//!   recording + event-loop profiler) drops below 90% of the obs-off
//!   events/sec on the same seed (full shapes only).
//!
//! `swim_cluster` and `memory_pressure` have no hard bar here: the former's
//! measured ratio straddles 1/3 purely with anchor timing noise (see
//! docs/PERF.md), and the latter is a small scenario (~8.5k events) whose
//! per-event cost is dominated by block-granular swap-device work, landing
//! well under the anchor's ratio by design. Regressions in both are caught
//! by the ratio-vs-baseline comparison instead.
//!
//! Run with `--quick` to use the shrunken smoke scenarios (useful locally;
//! CI runs the full shapes).

use mrp_bench::scenarios::{
    baseline_events_per_sec, fault_churn::FaultChurnScenario, hfsp, locality_delay,
    memory_pressure, multi_tenant, partition_detect::PartitionDetectScenario, rack_outage,
    sim_throughput, swim_cluster,
};
use mrp_engine::SwapConfig;
use mrp_preempt::PreemptionPrimitive;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    xs[xs.len() / 2]
}

struct Measured {
    name: &'static str,
    baseline_file: &'static str,
    events_per_sec: f64,
    /// Hard floor on events/sec as a fraction of the same-machine
    /// `sim_throughput` rate (the scenario's recorded acceptance bar), if
    /// one is enforced.
    hard_bar: Option<f64>,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let runs = if quick { 3 } else { 5 };

    // sim_throughput is the per-machine anchor every ratio is defined
    // against.
    let sim_eps = median(
        (0..runs)
            .map(|_| sim_throughput::run(hfsp()).events_per_sec())
            .collect(),
    );

    // The same anchor with the full observability layer on (registry +
    // series + spans + profiler), for the obs-overhead gate: observation is
    // allowed to cost at most 10% of the obs-off rate on the same seed.
    let obs_eps = median(
        (0..runs)
            .map(|_| {
                sim_throughput::run_with_config(hfsp(), |cfg| {
                    cfg.obs = mrp_engine::ObsConfig::full();
                })
                .events_per_sec()
            })
            .collect(),
    );

    let swim_eps = {
        let sc = if quick {
            swim_cluster::SwimScenario::small()
        } else {
            swim_cluster::SwimScenario::full()
        };
        median((0..3).map(|_| sc.run().events_per_sec()).collect())
    };

    let fault_eps = {
        let sc = if quick {
            FaultChurnScenario::small()
        } else {
            FaultChurnScenario::full()
        };
        median((0..3).map(|_| sc.run().events_per_sec()).collect())
    };

    // locality_delay also gates the delay-scheduling acceptance criteria:
    // node-local launch rate and same-seed makespan cost, from one
    // delay-on/off pair on the full shape.
    let ld_sc = if quick {
        locality_delay::small()
    } else {
        locality_delay::full()
    };
    let ld_runs: Vec<_> = (0..3).map(|_| locality_delay::run(&ld_sc, true)).collect();
    // The greedy side only feeds the quality gate, which quick mode skips.
    let ld_off = (!quick).then(|| locality_delay::run(&ld_sc, false));
    let ld_eps = median(ld_runs.iter().map(|o| o.events_per_sec()).collect());

    // rack_outage also gates the failure-aware placement acceptance
    // criterion: the reliability predictor's strict p99 sojourn win on the
    // same seed, from one predictor-on/off pair on the full shape.
    let ro_sc = if quick {
        rack_outage::small()
    } else {
        rack_outage::full()
    };
    let ro_runs: Vec<_> = (0..3).map(|_| rack_outage::run(&ro_sc, true)).collect();
    // The predictor-off side only feeds the quality gate, which quick mode
    // skips (the smoke shape is too small for a guaranteed ordering).
    let ro_off = (!quick).then(|| rack_outage::run(&ro_sc, false));
    let ro_eps = median(ro_runs.iter().map(|o| o.events_per_sec()).collect());

    // partition_detect also gates the failure-detection acceptance
    // criteria: zero duplicate commits and bounded detection lag, from the
    // detector-on runs (enforced in quick mode too — correctness, not
    // timing).
    let pd_sc = if quick {
        PartitionDetectScenario::small()
    } else {
        PartitionDetectScenario::full()
    };
    let pd_runs: Vec<_> = (0..3).map(|_| pd_sc.run(true)).collect();
    let pd_eps = median(pd_runs.iter().map(|o| o.events_per_sec()).collect());

    // multi_tenant also gates the multi-tenant scheduler's criteria: DRF
    // quota adherence and suspend-beats-kill on lost work, from one
    // suspend/kill pair (enforced in quick mode too — correctness, not
    // timing).
    let mt_sc = if quick {
        multi_tenant::small()
    } else {
        multi_tenant::full()
    };
    let mt_runs: Vec<_> = (0..3)
        .map(|_| multi_tenant::run(&mt_sc, PreemptionPrimitive::SuspendResume))
        .collect();
    let mt_kill = multi_tenant::run(&mt_sc, PreemptionPrimitive::Kill);
    let mt_eps = median(mt_runs.iter().map(|o| o.events_per_sec()).collect());

    // memory_pressure also gates the swap-device acceptance criteria: lazy
    // resume strictly cheaper than eager, zero thrash events when nothing is
    // overcommitted, a resume-cost curve that is not flat, and disk
    // contention that strictly inflates swap-I/O time (enforced in quick
    // mode too — correctness, not timing).
    let mp_sc = if quick {
        memory_pressure::small()
    } else {
        memory_pressure::full()
    };
    let mp_runs: Vec<_> = (0..3)
        .map(|_| memory_pressure::run(&mp_sc, SwapConfig::enabled()))
        .collect();
    let mp_lazy = memory_pressure::run(&mp_sc, SwapConfig::lazy());
    let mp_calm = memory_pressure::run(&mp_sc.clone().calm(), SwapConfig::enabled());
    let mp_curve = memory_pressure::resume_cost_curve(&mp_sc, &memory_pressure::CURVE_STATES);
    let mp_fault = memory_pressure::run(&mp_sc.clone().contended(0.0), SwapConfig::enabled());
    let mp_contended = memory_pressure::run(&mp_sc.clone().contended(0.5), SwapConfig::enabled());
    let mp_eps = median(mp_runs.iter().map(|o| o.events_per_sec()).collect());

    let measured = [
        Measured {
            name: "swim_cluster",
            baseline_file: "BENCH_swim_cluster.json",
            events_per_sec: swim_eps,
            hard_bar: None,
        },
        Measured {
            name: "fault_churn",
            baseline_file: "BENCH_fault_churn.json",
            events_per_sec: fault_eps,
            hard_bar: Some(1.0 / 3.0),
        },
        Measured {
            name: "locality_delay",
            baseline_file: "BENCH_locality_delay.json",
            events_per_sec: ld_eps,
            hard_bar: Some(1.0 / 3.0),
        },
        Measured {
            name: "rack_outage",
            baseline_file: "BENCH_rack_outage.json",
            events_per_sec: ro_eps,
            hard_bar: Some(1.0 / 3.0),
        },
        Measured {
            name: "partition_detect",
            baseline_file: "BENCH_partition_detect.json",
            events_per_sec: pd_eps,
            hard_bar: Some(1.0 / 3.0),
        },
        Measured {
            name: "multi_tenant",
            baseline_file: "BENCH_multi_tenant.json",
            events_per_sec: mt_eps,
            hard_bar: Some(1.0 / 3.0),
        },
        Measured {
            name: "memory_pressure",
            baseline_file: "BENCH_memory_pressure.json",
            events_per_sec: mp_eps,
            hard_bar: None,
        },
    ];

    let Some(sim_base) = baseline_events_per_sec("BENCH_sim_throughput.json") else {
        eprintln!("check_bench: missing/unparseable BENCH_sim_throughput.json baseline");
        std::process::exit(1);
    };

    println!(
        "check_bench: sim_throughput anchor {:.0} ev/s (baseline {:.0}; mode: {})",
        sim_eps,
        sim_base,
        if quick {
            "quick/smoke shapes"
        } else {
            "full shapes"
        }
    );
    let mut failed = false;
    for m in &measured {
        let Some(base_eps) = baseline_events_per_sec(m.baseline_file) else {
            eprintln!(
                "check_bench: missing/unparseable {} baseline",
                m.baseline_file
            );
            failed = true;
            continue;
        };
        let fresh_ratio = m.events_per_sec / sim_eps;
        let base_ratio = base_eps / sim_base;
        let rel = fresh_ratio / base_ratio;
        // The baselines (and the hard acceptance bar) were recorded on the
        // full shapes; quick mode prints the table without enforcing either.
        let ratio_ok = quick || rel >= 0.5;
        let bar_ok = quick || m.hard_bar.map(|bar| fresh_ratio >= bar).unwrap_or(true);
        println!(
            "  {:<16} {:>12.0} ev/s  ratio {:.3} (baseline {:.3}, {:+.1}%)  [{}{}]",
            m.name,
            m.events_per_sec,
            fresh_ratio,
            base_ratio,
            (rel - 1.0) * 100.0,
            if ratio_ok {
                "ratio ok"
            } else {
                "RATIO REGRESSION >50%"
            },
            match (m.hard_bar, bar_ok) {
                (None, _) => "",
                (Some(_), true) => ", 1/3 bar ok",
                (Some(_), false) => ", BELOW 1/3 BAR",
            },
        );
        if !ratio_ok || !bar_ok {
            failed = true;
        }
    }

    // Delay-scheduling acceptance gate (full shapes only; the bars were
    // recorded on them): node-local launch rate >= 30% with delay enabled,
    // at <= 5% same-seed makespan regression.
    match &ld_off {
        None => println!("  delay gate    skipped (--quick shapes; bars hold on full shapes only)"),
        Some(ld_off) => {
            let on_report = &ld_runs[0].report;
            let node_local = on_report.locality.node_local_ratio();
            let makespan_ratio = match (on_report.makespan_secs(), ld_off.report.makespan_secs()) {
                (Some(on), Some(off)) if off > 0.0 => on / off,
                _ => f64::INFINITY,
            };
            let locality_ok = node_local >= 0.30;
            let makespan_ok = makespan_ratio <= 1.05;
            println!(
                "  delay gate    node-local {:.1}% (bar >= 30%)  makespan {:+.1}% vs greedy (bar <= +5%)  [{}{}]",
                node_local * 100.0,
                (makespan_ratio - 1.0) * 100.0,
                if locality_ok { "locality ok" } else { "LOCALITY BELOW 30%" },
                if makespan_ok { ", makespan ok" } else { ", MAKESPAN REGRESSION >5%" },
            );
            if !locality_ok || !makespan_ok {
                failed = true;
            }
        }
    }

    // Failure-aware placement acceptance gate (full shapes only): on the
    // repeat-offender rack outage, predictor-on must strictly beat
    // predictor-off on p99 job sojourn — same seed, same fault plan.
    match &ro_off {
        None => {
            println!("  predictor gate skipped (--quick shapes; bars hold on full shapes only)")
        }
        Some(ro_off) => {
            let on_p99 = ro_runs[0].p99_sojourn_secs();
            let off_p99 = ro_off.p99_sojourn_secs();
            let predictor_ok = on_p99 < off_p99;
            println!(
                "  predictor gate p99 sojourn {:.1}s on vs {:.1}s off ({:+.1}%)  [{}]",
                on_p99,
                off_p99,
                (on_p99 / off_p99 - 1.0) * 100.0,
                if predictor_ok {
                    "predictor ok"
                } else {
                    "PREDICTOR DOES NOT IMPROVE TAIL"
                },
            );
            if !predictor_ok {
                failed = true;
            }
        }
    }

    // Failure-detection acceptance gate (both modes — correctness bars hold
    // at every shape): first-commit-wins must never double-commit a task,
    // and the worst observed detection lag must stay within the
    // missed-heartbeat timeout plus one heartbeat interval.
    {
        let f = &pd_runs[0].report.faults;
        let bound = pd_sc.lag_bound_secs();
        let dup_ok = f.duplicate_commits == 0;
        let lag_ok = f.detection_lag_secs_max <= bound + 1e-9;
        println!(
            "  detector gate  {} duplicate commits (bar = 0)  lag max {:.1}s (bar <= {:.1}s)  [{}{}]",
            f.duplicate_commits,
            f.detection_lag_secs_max,
            bound,
            if dup_ok { "commits ok" } else { "DUPLICATE COMMITS" },
            if lag_ok { ", lag ok" } else { ", LAG EXCEEDS BOUND" },
        );
        if !dup_ok || !lag_ok {
            failed = true;
        }
    }

    // Multi-tenant acceptance gate (both modes — correctness bars hold at
    // every shape): DRF keeps every tenant within 5 percentage points of
    // its quota while others starve, and suspend-based reclaim strictly
    // beats kill-based on lost work on the same seed.
    {
        let suspend = &mt_runs[0].outcome;
        let kill = &mt_kill.outcome;
        let worst_excess = suspend
            .shares
            .iter()
            .map(|s| s.mean_excess_over_quota)
            .fold(0.0, f64::max);
        let drf_ok = worst_excess <= 0.05;
        let reclaim_ok =
            suspend.suspend_cycles >= 1 && suspend.lost_work_secs < kill.lost_work_secs;
        let backfill_ok = suspend.best_effort_completed == suspend.best_effort_jobs;
        println!(
            "  tenant gate    worst excess-over-quota {:.4} (bar <= 0.05)  lost work {:.1}s \
             suspend vs {:.1}s kill  best-effort {}/{}  [{}{}{}]",
            worst_excess,
            suspend.lost_work_secs,
            kill.lost_work_secs,
            suspend.best_effort_completed,
            suspend.best_effort_jobs,
            if drf_ok {
                "drf ok"
            } else {
                "DRF QUOTA EXCEEDED"
            },
            if reclaim_ok {
                ", reclaim ok"
            } else {
                ", SUSPEND DOES NOT BEAT KILL"
            },
            if backfill_ok {
                ", backfill ok"
            } else {
                ", BEST-EFFORT STARVED"
            },
        );
        if !drf_ok || !reclaim_ok || !backfill_ok {
            failed = true;
        }
    }

    // Swap-device acceptance gate (both modes — correctness bars hold at
    // every shape): lazy resume strictly cheaper than eager on swap reads,
    // zero thrash events without overcommit, per-cycle resume cost strictly
    // growing in state size, and contention strictly inflating swap-I/O
    // time. Same conditions as the memory_pressure bench's assert_quality.
    {
        let eager = &mp_runs[0].outcome;
        let lazy_ok = mp_lazy.outcome.swap_in_bytes < eager.swap_in_bytes;
        let thrash_ok = mp_calm.outcome.thrash_events == 0;
        let (first, last) = (
            mp_curve.first().expect("curve has points"),
            mp_curve.last().expect("curve has points"),
        );
        let curve_ok = last.swap_in_per_cycle > first.swap_in_per_cycle;
        let contention_ok = mp_contended.outcome.swap_io_secs > mp_fault.outcome.swap_io_secs;
        println!(
            "  swap gate      lazy {} vs eager {} MiB read  calm thrash {}  cost {:.0}->{:.0} \
             MiB/cycle  swap I/O {:.1}s vs {:.1}s contended  [{}{}{}{}]",
            mp_lazy.outcome.swap_in_bytes / (1 << 20),
            eager.swap_in_bytes / (1 << 20),
            mp_calm.outcome.thrash_events,
            first.swap_in_per_cycle / (1 << 20) as f64,
            last.swap_in_per_cycle / (1 << 20) as f64,
            mp_fault.outcome.swap_io_secs,
            mp_contended.outcome.swap_io_secs,
            if lazy_ok {
                "lazy ok"
            } else {
                "LAZY NOT CHEAPER"
            },
            if thrash_ok {
                ", thrash ok"
            } else {
                ", FALSE THRASH"
            },
            if curve_ok {
                ", curve ok"
            } else {
                ", FLAT CURVE"
            },
            if contention_ok {
                ", contention ok"
            } else {
                ", CONTENTION HAS NO COST"
            },
        );
        if !lazy_ok || !thrash_ok || !curve_ok || !contention_ok {
            failed = true;
        }
    }

    // Observability-overhead gate (full shapes only — the 0.9x bar was
    // recorded on them; quick mode prints the ratio without enforcing it):
    // with `ObsConfig::full()` on, the anchor scenario must keep at least
    // 90% of its obs-off events/sec on the same seed. The byte-identity of
    // the obs-on run itself is asserted by `tests/observability.rs` and the
    // bench binaries.
    {
        let overhead_ratio = obs_eps / sim_eps;
        let obs_ok = quick || overhead_ratio >= 0.9;
        println!(
            "  obs gate       obs-on {:.0} ev/s = {:.2}x obs-off (bar >= 0.90x{})  [{}]",
            obs_eps,
            overhead_ratio,
            if quick {
                "; not enforced on --quick"
            } else {
                ""
            },
            if obs_ok {
                "overhead ok"
            } else {
                "OBS OVERHEAD EXCEEDS 10%"
            },
        );
        if !obs_ok {
            failed = true;
        }
    }

    if failed {
        eprintln!("check_bench: FAILED — events/sec ratio regression beyond tolerance");
        std::process::exit(1);
    }
    println!("check_bench: OK");
}
