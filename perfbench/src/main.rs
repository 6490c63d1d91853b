//! Runs one workload of the simulator benchmark. Every metric is printed by
//! name and unit, then the checks; the last line of standard output is the
//! result as one JSON object with the keys `correct`, `attempted`, `failed`
//! and `metrics`.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out PATH]
//! perfbench --steady N [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! A run simulates the seed's traces in rounds until `--seconds` have
//! passed. `--trace 0` (the default) runs them untraced and reports the
//! end-to-end metrics. `--trace 1` runs each trace untraced and traced and
//! reports the per-layer split. `--steady N` runs each chosen workload N
//! times as child processes, on consecutive seeds, and prints the median
//! and quartiles of every metric, flagging end-to-end metrics whose spread
//! exceeds their bound in `BENCHMARK.json`.

use mrp_engine::{ClusterReport, ObsConfig, ObsState, SchedulerPolicy};
use mrp_preempt::json::Json;
use mrp_sim::{percentile, GIB};
use perfbench::clock::CpuInstant;
use perfbench::gauge::Gauge;
use perfbench::policy::{PolicyCounters, TimedPolicy};
use perfbench::replay::{replay, ReplayCosts};
use perfbench::stats::{
    median, metric, peak_rss_mib, quartiles, report_digest, result_line, Metric,
};
use perfbench::workloads::{hfsp, setup, trace_seeds, Scale, SetupTimes, Workload, MAX_TIME};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out PATH]
       perfbench --steady N [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]";

/// Timed rounds per invocation, however short `--seconds`: the check that a
/// repeat reproduces its report needs two.
const MIN_ROUNDS: usize = 2;

/// Kernel calls in one replay of the OS model.
const REPLAY_OPS: u32 = 20_000;

/// The profiler's event kinds reported per layer (cleanup and progress
/// triggers never fire in these workloads).
const SIM_KINDS: [&str; 6] = [
    "heartbeat_wheel",
    "heartbeat_oob",
    "phase_done",
    "job_arrival",
    "fault",
    "detector",
];

struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    steady: Option<u32>,
    out: Option<PathBuf>,
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(repeats) = args.steady {
        return steady(&args, repeats);
    }
    let Some(workload) = args.workload else {
        eprintln!("perfbench: --workload NAME is required\n{USAGE}");
        return ExitCode::from(2);
    };
    let seed = args.seed.unwrap_or(workload.default_seed());
    let mode = if args.trace { "traced" } else { "timed" };
    println!(
        "perfbench {} seed {seed}, {mode}, {} s",
        workload.name(),
        args.seconds
    );
    let outcome = if args.trace {
        traced(workload, seed, args.seconds)
    } else {
        timed(workload, seed, args.seconds)
    };
    for m in &outcome.metrics {
        println!("{:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "checks: {} of {} runs passed",
        outcome.attempted - outcome.failed,
        outcome.attempted
    );
    let correct = outcome.failed == 0;
    let line = result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics);
    println!("{line}");
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, format!("{line}\n")) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: None,
        seconds: 10.0,
        trace: false,
        steady: None,
        out: None,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workload = None,
            "--workload" => {
                let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                args.workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    format!("unknown workload {value:?} (known: {})", known.join(", "))
                })?);
            }
            "--seed" => {
                let parsed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                };
                args.seed = Some(parsed.map_err(|_| format!("bad --seed {value:?}"))?);
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| (0.0..=600.0).contains(s))
                    .ok_or_else(|| format!("--seconds takes 0 to 600, not {value:?}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            "--steady" => {
                args.steady = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|n: &u32| *n >= 1)
                        .ok_or_else(|| format!("--steady takes a count, not {value:?}"))?,
                );
            }
            "--out" => args.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

/// What one invocation measured.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// One run of a workload: setup, then `Cluster::run` through
/// `Cluster::report`.
struct Run {
    times: SetupTimes,
    /// Wall-clock seconds of `Cluster::run` through `Cluster::report`.
    run_s: f64,
    /// CPU seconds of the same span.
    cpu_s: f64,
    report_s: f64,
    events: u64,
    digest: u64,
    report: ClusterReport,
    obs: Option<Box<ObsState>>,
    tasks: u64,
    blocks: u64,
    lag_bound_secs: f64,
}

fn run_once(
    workload: Workload,
    seed: u64,
    policy: Box<dyn SchedulerPolicy>,
    obs: ObsConfig,
) -> Run {
    let prepared = setup(workload, Scale::Full, seed, policy, obs);
    let mut cluster = prepared.cluster;
    let cpu_start = CpuInstant::now();
    let start = Instant::now();
    cluster.run(MAX_TIME);
    let report_start = Instant::now();
    let report = cluster.report();
    let end = Instant::now();
    let cpu_s = cpu_start.elapsed().as_secs_f64();
    let blocks = prepared
        .files
        .iter()
        .filter_map(|path| cluster.namenode().lookup(path))
        .map(|file| file.blocks.len() as u64)
        .sum();
    Run {
        times: prepared.times,
        run_s: (end - start).as_secs_f64(),
        cpu_s,
        report_s: (end - report_start).as_secs_f64(),
        events: cluster.events_processed(),
        digest: report_digest(&report),
        obs: cluster.take_observability(),
        report,
        tasks: prepared.tasks,
        blocks,
        lag_bound_secs: prepared.lag_bound_secs,
    }
}

/// What is wrong with `run`, if anything. `reference` is a run of the same
/// workload and seed whose report `run` must reproduce byte for byte.
fn problems(run: &Run, reference: Option<&Run>) -> Vec<String> {
    let mut found = Vec::new();
    let report = &run.report;
    let incomplete = report
        .jobs
        .iter()
        .filter(|j| j.completed_at.is_none())
        .count();
    if incomplete > 0 {
        found.push(format!(
            "{incomplete} of {} jobs incomplete",
            report.jobs.len()
        ));
    }
    let faults = &report.faults;
    if faults.duplicate_commits > 0 {
        found.push(format!("{} duplicate commits", faults.duplicate_commits));
    }
    if faults.detection_lag_secs_max > run.lag_bound_secs + 1e-9 {
        found.push(format!(
            "detection lag {:.3} s over its {:.1} s bound",
            faults.detection_lag_secs_max, run.lag_bound_secs
        ));
    }
    if let Some(r) = reference {
        if (r.digest, r.events) != (run.digest, run.events) {
            found.push(format!(
                "report {:016x} with {} events differs from the reference's {:016x} with {}",
                run.digest, run.events, r.digest, r.events
            ));
        }
    }
    found
}

/// Prints one run and its problems; returns whether it passed.
fn note(label: &str, run: &Run, problems: &[String]) -> bool {
    println!(
        "{label}: setup {:.4} s, run {:.4} s CPU ({:.4} s wall), {} events, report {:016x}",
        run.times.total(),
        run.cpu_s,
        run.run_s,
        run.events,
        run.digest
    );
    for p in problems {
        println!("  FAILED: {p}");
    }
    problems.is_empty()
}

/// Repeats rounds of untraced runs — one run per trace of the seed — until
/// `seconds` have passed, and reports the end-to-end metrics: the median
/// over rounds of the per-trace mean timings, and the per-trace mean of the
/// simulated outcomes, which every round must reproduce exactly. Timings
/// are CPU seconds rescaled to the reference host's speed by the [`Gauge`]
/// read before and after each run.
fn timed(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut setups, mut runs) = (Vec::new(), Vec::new());
    let mut first_round: Vec<Run> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let traces = workload.traces_per_run();
    let gauge = Gauge;
    // The first pass also faults the heap in; only the second is a reading.
    gauge.measure();
    let mut gauge_before = gauge.measure();
    while setups.len() < MIN_ROUNDS || Instant::now() < deadline {
        let round = setups.len() + 1;
        let (mut setup_s, mut run_s) = (0.0, 0.0);
        for (k, trace_seed) in trace_seeds(seed, traces).into_iter().enumerate() {
            let run = run_once(workload, trace_seed, hfsp(), ObsConfig::default());
            let gauge_after = gauge.measure();
            let scale = Gauge::scale(gauge_before, gauge_after);
            gauge_before = gauge_after;
            attempted += 1;
            let found = problems(&run, first_round.get(k));
            failed += u64::from(!note(&format!("round {round} trace {k}"), &run, &found));
            println!(
                "  gauge {:.4} s CPU; at reference speed: setup {:.4} s, run {:.4} s",
                gauge_after,
                run.times.total() * scale,
                run.cpu_s * scale
            );
            setup_s += run.times.total() * scale;
            run_s += run.cpu_s * scale;
            if round == 1 {
                first_round.push(run);
            }
        }
        setups.push(setup_s / traces as f64);
        runs.push(run_s / traces as f64);
    }
    let per_trace = |f: &dyn Fn(&ClusterReport) -> f64| {
        first_round.iter().map(|run| f(&run.report)).sum::<f64>() / traces as f64
    };
    let sojourn = |report: &ClusterReport, p: f64| {
        let sojourns: Vec<f64> = report.jobs.iter().filter_map(|j| j.sojourn_secs).collect();
        percentile(&sojourns, p).unwrap_or(0.0)
    };
    println!(
        "sim lost work (per-layer sim.lost_work_s): {} s",
        per_trace(&|r| r.total_wasted_work_secs())
    );
    Outcome {
        attempted,
        failed,
        metrics: vec![
            metric("setup_s", median(&setups), "s"),
            metric("run_s", median(&runs), "s"),
            metric("peak_rss_mib", peak_rss_mib().unwrap_or(0.0), "MiB"),
            metric(
                "sim_makespan_s",
                per_trace(&|r| r.makespan_secs().unwrap_or(0.0)),
                "s",
            ),
            metric("sim_sojourn_p50_s", per_trace(&|r| sojourn(r, 50.0)), "s"),
            metric("sim_sojourn_p95_s", per_trace(&|r| sojourn(r, 95.0)), "s"),
        ],
    }
}

/// Repeats rounds — per trace of the seed, an untraced and a traced run —
/// until `seconds` have passed, and reports the per-layer split: the median
/// over rounds of the per-trace mean. The traced run decorates the policy
/// with [`TimedPolicy`] and turns on `ObsConfig::full()`; its report must
/// match the untraced run's byte for byte. Each round also replays the OS
/// model once.
fn traced(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut rounds: Vec<Vec<Metric>> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    while rounds.is_empty() || Instant::now() < deadline {
        let round = rounds.len() + 1;
        let costs = replay(seed, REPLAY_OPS).unwrap_or_else(|e| {
            println!("  FAILED: kernel replay: {e}");
            ReplayCosts::default()
        });
        attempted += 1;
        failed += u64::from(costs == ReplayCosts::default());
        let mut traces = Vec::new();
        for (k, trace_seed) in trace_seeds(seed, workload.traces_per_run())
            .into_iter()
            .enumerate()
        {
            let plain = run_once(workload, trace_seed, hfsp(), ObsConfig::default());
            let label = format!("round {round} trace {k}");
            let plain_ok = note(
                &format!("{label} untraced"),
                &plain,
                &problems(&plain, None),
            );
            let (policy, counters) = TimedPolicy::wrap(hfsp());
            let traced = run_once(workload, trace_seed, policy, ObsConfig::full());
            let found = problems(&traced, Some(&plain));
            let traced_ok = note(&format!("{label} traced"), &traced, &found);
            attempted += 2;
            failed += u64::from(!plain_ok) + u64::from(!traced_ok);
            traces.push(layer_metrics(&plain, &traced, &counters.borrow(), &costs));
        }
        rounds.push(combine(&traces, |v| v.iter().sum::<f64>() / v.len() as f64));
    }
    Outcome {
        attempted,
        failed,
        metrics: combine(&rounds, median),
    }
}

/// Folds same-shaped metric lists into one, metric by metric.
fn combine(samples: &[Vec<Metric>], fold: impl Fn(&[f64]) -> f64) -> Vec<Metric> {
    (0..samples[0].len())
        .map(|i| {
            let values: Vec<f64> = samples.iter().map(|s| s[i].value).collect();
            Metric {
                value: fold(&values),
                ..samples[0][i].clone()
            }
        })
        .collect()
}

/// The per-layer split of one traced run. `plain` is the untraced run of
/// the same workload and seed, the base for the event rate and the
/// observation overhead.
fn layer_metrics(
    plain: &Run,
    traced: &Run,
    policy: &PolicyCounters,
    replay: &ReplayCosts,
) -> Vec<Metric> {
    let ms = |secs: f64| secs * 1e3;
    let count = |n: u64| n as f64;
    let report = &traced.report;
    let faults = &report.faults;
    let locality = &report.locality;
    let obs = traced.obs.as_deref().expect("traced runs are observed");
    let profile = obs.profile().expect("ObsConfig::full profiles the loop");
    let policy_secs = (policy.heartbeat_time + policy.callback_time).as_secs_f64();
    let launch_secs = profile
        .actions
        .iter()
        .find(|row| row.name == "launch")
        .map_or(0.0, |row| row.wall_secs);
    let mut m = vec![
        metric(
            "core.heartbeat.calls",
            count(policy.heartbeat_calls),
            "count",
        ),
        metric(
            "core.heartbeat.ms",
            ms(policy.heartbeat_time.as_secs_f64()),
            "ms",
        ),
        metric(
            "core.heartbeat.yield",
            share(policy.heartbeat_yielding, policy.heartbeat_calls),
            "share",
        ),
        metric("core.callback.calls", count(policy.callback_calls), "count"),
        metric(
            "core.callback.ms",
            ms(policy.callback_time.as_secs_f64()),
            "ms",
        ),
    ];
    for kind in ["launch", "launch_speculative", "suspend", "resume", "kill"] {
        m.push(metric(
            format!("core.actions.{kind}"),
            count(policy.actions_of(kind)),
            "count",
        ));
    }
    m.extend([
        metric("engine.self_ms", ms(traced.run_s - policy_secs), "ms"),
        metric("engine.apply.launch_ms", ms(launch_secs), "ms"),
        metric("engine.report_ms", ms(traced.report_s), "ms"),
        metric("engine.setup.new_ms", ms(traced.times.cluster_new), "ms"),
        metric("engine.setup.submit_ms", ms(traced.times.submit), "ms"),
        metric(
            "engine.locality.node_local_frac",
            locality.node_local_ratio(),
            "share",
        ),
        metric("engine.delay.skips", count(locality.delayed_skips), "count"),
        metric(
            "engine.delay.waits",
            count(locality.delay_waits_total()),
            "count",
        ),
        metric(
            "engine.shuffle.refetches",
            count(faults.shuffle_refetches),
            "count",
        ),
        metric(
            "engine.shuffle.lost_map_outputs",
            count(faults.lost_map_outputs),
            "count",
        ),
        metric(
            "engine.faults.detected",
            count(faults.failures_detected),
            "count",
        ),
        metric(
            "engine.faults.detection_lag_max_s",
            faults.detection_lag_secs_max,
            "s",
        ),
        metric(
            "engine.faults.re_executed_tasks",
            count(faults.re_executed_tasks),
            "count",
        ),
        metric(
            "engine.faults.duplicate_commits",
            count(faults.duplicate_commits),
            "count",
        ),
        metric(
            "engine.speculation.launched",
            count(faults.speculative_launched),
            "count",
        ),
        metric(
            "engine.speculation.won",
            count(faults.speculative_won),
            "count",
        ),
        metric("sim.events", count(traced.events), "count"),
        metric("sim.events_per_s", plain.events as f64 / plain.run_s, "1/s"),
        metric("sim.lost_work_s", report.total_wasted_work_secs(), "s"),
    ]);
    for kind in SIM_KINDS {
        let row = profile.events.iter().find(|row| row.name == kind);
        m.push(metric(
            format!("sim.{kind}.count"),
            row.map_or(0.0, |r| count(r.count)),
            "count",
        ));
        m.push(metric(
            format!("sim.{kind}.ms"),
            row.map_or(0.0, |r| ms(r.wall_secs)),
            "ms",
        ));
    }
    let suspend_cycles: u64 = report
        .jobs
        .iter()
        .flat_map(|j| &j.tasks)
        .map(|t| u64::from(t.suspend_cycles))
        .sum();
    let gib = |bytes: u64| bytes as f64 / GIB as f64;
    m.extend([
        metric("simos.suspend_cycles", count(suspend_cycles), "count"),
        metric(
            "simos.swap_out_gib",
            gib(report.total_swap_out_bytes()),
            "GiB",
        ),
        metric(
            "simos.swap_in_gib",
            gib(report.total_swap_in_bytes()),
            "GiB",
        ),
        metric("simos.swap_io_s", report.total_swap_io_secs(), "s"),
        metric(
            "simos.thrash_events",
            count(report.nodes.iter().map(|n| n.thrash_events).sum()),
            "count",
        ),
        metric(
            "simos.oom_kills",
            count(report.nodes.iter().map(|n| n.oom_kills).sum()),
            "count",
        ),
        metric("simos.replay.allocate_ns", replay.allocate_ns, "ns"),
        metric("simos.replay.suspend_ns", replay.suspend_ns, "ns"),
        metric("simos.replay.resume_ns", replay.resume_ns, "ns"),
        metric("simos.replay.touch_ns", replay.touch_ns, "ns"),
        metric("dfs.create_ms", ms(traced.times.dfs_create), "ms"),
        metric("dfs.blocks", count(traced.blocks), "count"),
        metric(
            "dfs.re_replicated_blocks",
            count(faults.re_replicated_blocks),
            "count",
        ),
        metric("workload.generate_ms", ms(traced.times.generate), "ms"),
        metric("workload.tasks", count(traced.tasks), "count"),
        metric("obs.overhead", traced.run_s / plain.run_s, "ratio"),
        metric("obs.attribution", profile.attribution(), "share"),
        metric("obs.spans", count(obs.spans().len() as u64), "count"),
    ]);
    m
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Runs each chosen workload `repeats` times as child processes, on seeds
/// `seed`, `seed + 1`, …, and prints the quartiles of every metric.
fn steady(args: &Args, repeats: u32) -> ExitCode {
    let bounds = end_to_end_bounds();
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut all_passed = true;
    for workload in workloads {
        let base = args.seed.unwrap_or(workload.default_seed());
        let mut series: Vec<(String, String, Vec<f64>)> = Vec::new();
        for seed in (0..u64::from(repeats)).map(|i| base.wrapping_add(i)) {
            let output = Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stderr(Stdio::inherit())
                .output();
            let result = output
                .ok()
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .and_then(|text| text.lines().last().and_then(|l| Json::parse(l).ok()));
            let Some(result) = result else {
                println!("{} seed {seed}: no result", workload.name());
                all_passed = false;
                continue;
            };
            if result.get("correct") != Some(&Json::Bool(true)) {
                println!("{} seed {seed}: checks failed", workload.name());
                all_passed = false;
            }
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                continue;
            };
            for (name, m) in metrics {
                let value = m.get("value").and_then(Json::as_f64);
                let unit = m.get("unit").and_then(Json::as_str);
                let (Some(value), Some(unit)) = (value, unit) else {
                    continue;
                };
                match series.iter_mut().find(|(n, _, _)| n == name) {
                    Some(entry) => entry.2.push(value),
                    None => series.push((name.clone(), unit.to_string(), vec![value])),
                }
            }
        }
        println!(
            "\n{}: {repeats} runs, seeds {base}..={}",
            workload.name(),
            base.wrapping_add(u64::from(repeats) - 1)
        );
        println!(
            "  {:<40} {:>6} {:>16} {:>16} {:>16} {:>8} {:>7}  verdict",
            "metric", "unit", "q1", "median", "q3", "spread", "bound"
        );
        for (name, unit, values) in &series {
            let Some([q1, q2, q3]) = quartiles(values) else {
                println!("  {name:<40} {unit:>6} {:>16.6}", values[0]);
                continue;
            };
            let spread = if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2.abs() };
            let bound = bounds.iter().find(|(n, _)| n == name).map(|(_, b)| *b);
            let verdict = match bound {
                Some(b) if spread > b => "UNRESOLVED: spread over its bound",
                Some(b) if spread > b / 3.0 => "noisy: spread over a third of its bound",
                Some(_) => "steady",
                None => "",
            };
            let bound = bound.map_or("-".to_string(), |b| format!("{:.1}%", b * 100.0));
            println!(
                "  {name:<40} {unit:>6} {q1:>16.6} {q2:>16.6} {q3:>16.6} {:>7.2}% {bound:>7}  {verdict}",
                spread * 100.0
            );
        }
    }
    if all_passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `(name, bound)` of every end-to-end metric in `BENCHMARK.json` in the
/// working directory; empty when the file is absent or unreadable.
fn end_to_end_bounds() -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Vec::new();
    };
    let Ok(json) = Json::parse(&text) else {
        return Vec::new();
    };
    json.get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?;
            Some((name.to_string(), m.get("bound")?.as_f64()?))
        })
        .collect()
}
