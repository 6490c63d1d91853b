//! Compare the three preemption primitives (wait, kill, suspend/resume) on
//! the paper's two-job scenario and print Figure-1-style schedules plus the
//! sojourn/makespan metrics.
//!
//! ```text
//! cargo run --example preemption_primitives [r]
//! ```
//! where `r` is the tl progress (0–1) at which th is launched, default 0.5.

use hadoop_os_preempt::prelude::*;
use mrp_engine::Record;

fn run(primitive: PreemptionPrimitive, fraction: f64) -> (ClusterReport, Vec<String>) {
    let (tl, th) = two_job_scenario(0, 0);
    let plan = DummyPlan::paper_scenario(primitive, "tl", th, fraction);
    let scheduler = DummyScheduler::new(plan);
    let triggers = scheduler.required_triggers();
    let mut cluster = Cluster::new(ClusterConfig::paper_single_node(), Box::new(scheduler));
    for (path, len) in two_job_input_files() {
        cluster.create_input_file(&path, len).expect("create input");
    }
    for (job, task, f) in triggers {
        cluster.add_progress_trigger(&job, task, f);
    }
    cluster.submit_job(tl);
    cluster.run(SimTime::from_secs(3_600));
    let lines = cluster
        .trace()
        .iter()
        .filter(|r| {
            matches!(
                r,
                Record::Launched(..)
                    | Record::Suspended(..)
                    | Record::Resumed(..)
                    | Record::Killed(..)
                    | Record::Completed(..)
            )
        })
        .map(|r| r.to_line(cluster.jobs()))
        .collect();
    (cluster.report(), lines)
}

fn main() {
    let fraction: f64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(0.5);
    println!(
        "th launched when tl reaches {:.0}% progress\n",
        fraction * 100.0
    );
    for primitive in PreemptionPrimitive::PAPER_SET {
        let (report, schedule) = run(primitive, fraction);
        println!("=== primitive: {primitive} ===");
        for line in schedule {
            println!("  {line}");
        }
        println!(
            "  sojourn(th) = {:6.1}s   makespan = {:6.1}s   wasted work = {:5.1}s   tl attempts = {}",
            report.sojourn_secs("th").unwrap(),
            report.makespan_secs().unwrap(),
            report.job("tl").unwrap().wasted_work_secs(),
            report.job("tl").unwrap().tasks[0].attempts,
        );
        println!();
    }
}
