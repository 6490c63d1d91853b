//! The preemption primitive on the real operating system: spawn a worker
//! process, suspend it with SIGTSTP, observe its /proc state and RSS, resume
//! it with SIGCONT, and print the measured latencies. Where the host cannot
//! spawn or signal the worker, it says why and exits cleanly.
//!
//! ```text
//! cargo run --example os_prototype
//! ```

use mrp_oschild::{prototype_supported, OsChildError, WorkerProcess};

fn main() {
    if !prototype_supported() {
        eprintln!("This example needs a Unix system with /proc; skipping.");
        return;
    }
    if let Err(e) = run() {
        eprintln!("os_prototype skipped: {e}");
    }
}

fn run() -> Result<(), OsChildError> {
    let worker = WorkerProcess::spawn_busy_loop()?;
    println!(
        "spawned worker pid {} (state {:?})",
        worker.pid(),
        worker.state()?
    );

    for cycle in 1..=3 {
        let rt = worker.suspend_resume_roundtrip()?;
        println!(
            "cycle {cycle}: SIGTSTP->stopped in {:?}, SIGCONT->running in {:?}, RSS while stopped {} KiB",
            rt.suspend_latency,
            rt.resume_latency,
            rt.rss_while_stopped / 1024
        );
    }

    println!("final state: {:?}", worker.state()?);
    worker.kill()?;
    println!("worker killed; the same two signals are what the TaskTracker sends to task JVMs.");
    Ok(())
}
