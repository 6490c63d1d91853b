//! Quickstart: run the paper's scenario once with the suspend/resume
//! primitive and print what happened.
//!
//! ```text
//! cargo run --example quickstart
//! cargo run --example quickstart -- --trace-out trace.json --series-out series.json
//! ```
//!
//! `--trace-out` / `--series-out` turn the observability layer on and dump
//! the span trace (Chrome `trace_event` JSON — load it in `chrome://tracing`
//! or <https://ui.perfetto.dev>) and the sampled time series.

use hadoop_os_preempt::mrp_preempt::obs_export;
use hadoop_os_preempt::prelude::*;

fn main() {
    let (trace_out, series_out) = parse_args();
    let observe = trace_out.is_some() || series_out.is_some();

    // 1. Describe the two jobs: a low-priority tl and a high-priority th,
    //    both single-task map-only jobs over 512 MB inputs.
    let (tl, th) = two_job_scenario(0, 0);

    // 2. Build the paper's dummy scheduler: when tl reaches 50% progress,
    //    submit th and suspend tl; resume tl when th completes.
    let plan = DummyPlan::paper_scenario(PreemptionPrimitive::SuspendResume, "tl", th, 0.5);
    let scheduler = DummyScheduler::new(plan);
    let triggers = scheduler.required_triggers();

    // 3. Build the single-node cluster (4 GB RAM, one map slot, swappiness 0),
    //    create the HDFS inputs and register the progress trigger.
    let mut config = ClusterConfig::paper_single_node();
    if observe {
        config = config.with_obs(ObsConfig::full());
    }
    let mut cluster = Cluster::new(config, Box::new(scheduler));
    for (path, len) in two_job_input_files() {
        cluster.create_input_file(&path, len).expect("create input");
    }
    for (job, task, fraction) in triggers {
        cluster.add_progress_trigger(&job, task, fraction);
    }

    // 4. Submit tl and run.
    cluster.submit_job(tl);
    cluster.run(SimTime::from_secs(3_600));

    // 5. Inspect the outcome.
    let report = cluster.report();
    println!("== schedule trace ==");
    for record in cluster.trace() {
        println!("{}", record.to_line(cluster.jobs()));
    }
    println!("\n== metrics ==");
    println!(
        "sojourn(th) = {:.1}s   makespan = {:.1}s   swap out = {} MiB   tl suspend cycles = {}",
        report.sojourn_secs("th").unwrap(),
        report.makespan_secs().unwrap(),
        report.total_swap_out_bytes() / MIB,
        report.job("tl").unwrap().tasks[0].suspend_cycles,
    );
    println!("\n== summary ==");
    print!("{}", report.summary());

    // 6. Export the observability dumps when asked to.
    if let Some(obs) = cluster.observability() {
        if let Some(path) = trace_out {
            let json = obs_export::chrome_trace_json(obs.spans(), cluster.now());
            std::fs::write(&path, json.pretty()).expect("write trace");
            println!("wrote Chrome trace ({} spans) to {path}", obs.spans().len());
        }
        if let Some(path) = series_out {
            let sampler = obs.series().expect("series sampling enabled");
            std::fs::write(&path, obs_export::series_json(sampler).pretty()).expect("write series");
            println!(
                "wrote time series ({} rows) to {path}",
                sampler.rows().len()
            );
        }
        if let Some(profile) = obs.profile() {
            println!("\n== event-loop profile ==");
            print!("{}", profile.table());
        }
    }
}

/// Parses `--trace-out <path>` and `--series-out <path>`.
fn parse_args() -> (Option<String>, Option<String>) {
    let mut trace_out = None;
    let mut series_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace-out" => trace_out = Some(args.next().expect("--trace-out needs a path")),
            "--series-out" => series_out = Some(args.next().expect("--series-out needs a path")),
            other => panic!("unknown argument `{other}` (try --trace-out/--series-out)"),
        }
    }
    (trace_out, series_out)
}
