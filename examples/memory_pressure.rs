//! The paper's worst case: both tasks allocate gigabytes of dirty state on a
//! 4 GB node, so suspending tl forces the OS to page it out (and back in).
//! Prints the swap accounting and the overheads relative to kill and wait.
//!
//! ```text
//! cargo run --example memory_pressure [state_mib]
//! ```

use hadoop_os_preempt::prelude::*;
use mrp_experiments::run_once;

fn main() {
    let state_mib: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(2048);
    let state = state_mib * MIB;
    println!("both tasks allocate {state_mib} MiB of dirty state on a 4 GiB node\n");

    let mut results = Vec::new();
    for primitive in PreemptionPrimitive::PAPER_SET {
        let run = run_once(&ScenarioConfig::memory_hungry(primitive, 0.5, state), 1);
        println!(
            "{:<5} sojourn(th) = {:6.1}s  makespan = {:6.1}s  tl paged out = {:5} MiB  swap in = {:5} MiB",
            primitive.to_string(),
            run.sojourn_th_secs,
            run.makespan_secs,
            run.tl_paged_out_bytes / MIB,
            run.report.total_swap_in_bytes() / MIB,
        );
        results.push((primitive, run));
    }

    let susp = &results
        .iter()
        .find(|(p, _)| *p == PreemptionPrimitive::SuspendResume)
        .unwrap()
        .1;
    let kill = &results
        .iter()
        .find(|(p, _)| *p == PreemptionPrimitive::Kill)
        .unwrap()
        .1;
    let wait = &results
        .iter()
        .find(|(p, _)| *p == PreemptionPrimitive::Wait)
        .unwrap()
        .1;
    println!();
    println!(
        "suspend/resume overhead: sojourn +{:.1}s vs kill ({:+.1}%), makespan +{:.1}s vs wait ({:+.1}%)",
        susp.sojourn_th_secs - kill.sojourn_th_secs,
        (susp.sojourn_th_secs - kill.sojourn_th_secs) / kill.sojourn_th_secs * 100.0,
        susp.makespan_secs - wait.makespan_secs,
        (susp.makespan_secs - wait.makespan_secs) / wait.makespan_secs * 100.0,
    );
    println!(
        "…but kill threw away {:.1}s of work, suspend/resume none.",
        kill.report.total_wasted_work_secs()
    );
}
