//! A replay of the OS model's calls outside the engine.
//!
//! A seeded mix of allocate / suspend / resume / touch calls drives
//! `mrp_simos::Kernel`'s public API directly, on one node configured like a
//! `swap_pressure` node: 3 GiB of RAM, 16 GiB of swap on the block swap
//! device with eager resume, and task processes that each allocate 1.5 GiB
//! of dirty state. With four such tasks on the node every allocation and
//! resume pages someone out. Each call is timed on its own (so the figures
//! include one clock read), which prices the suspend/resume path without the
//! engine around it.

use mrp_sim::{SimDuration, SimRng, SimTime, GIB, MIB};
use mrp_simos::{Kernel, MemoryConfig, NodeOsConfig, Pid, Signal, SwapConfig};
use std::time::{Duration, Instant};

/// Mean wall-clock nanoseconds per kernel call, by operation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReplayCosts {
    /// `Kernel::allocate` of a task's whole state.
    pub allocate_ns: f64,
    /// `SIGTSTP` delivery.
    pub suspend_ns: f64,
    /// `SIGCONT` delivery plus the eager fault-in of everything swapped.
    pub resume_ns: f64,
    /// `Kernel::touch`.
    pub touch_ns: f64,
}

/// Task processes alive on the node at once.
const TASKS: usize = 4;

/// Dirty state each task allocates, as in the `swap_pressure` workload.
const STATE: u64 = 1536 * MIB;

#[derive(Clone, Copy, PartialEq)]
enum Op {
    Allocate,
    Suspend,
    Resume,
    Touch,
}

struct Task {
    pid: Pid,
    allocated: bool,
    suspended: bool,
}

/// Replays `ops` kernel calls drawn from `seed` and returns their mean cost.
/// A task that has allocated its state may be suspended, touched or retired
/// (its process exits and a fresh one takes its place, untimed); a suspended
/// task is always resumed next.
pub fn replay(seed: u64, ops: u32) -> Result<ReplayCosts, String> {
    let memory = MemoryConfig {
        total_ram: 3 * GIB,
        swap_capacity: 16 * GIB,
        swap: SwapConfig::enabled(),
        ..MemoryConfig::default()
    };
    let mut kernel = Kernel::new(NodeOsConfig {
        memory,
        ..NodeOsConfig::default()
    });
    let mut rng = SimRng::new(seed);
    let mut now = SimTime::ZERO;
    let mut tasks: Vec<Task> = (0..TASKS)
        .map(|_| Task {
            pid: kernel.spawn(String::new(), now),
            allocated: false,
            suspended: false,
        })
        .collect();
    // (calls, time) per operation, indexed like `Op`.
    let mut totals = [(0u32, Duration::ZERO); 4];
    for _ in 0..ops {
        now += SimDuration::from_millis(100);
        let task = &mut tasks[rng.index(TASKS)];
        let op = match (task.suspended, task.allocated) {
            (true, _) => Op::Resume,
            (false, false) => Op::Allocate,
            (false, true) => match rng.index(3) {
                0 => Op::Suspend,
                1 => Op::Touch,
                _ => {
                    kernel.exit(task.pid, 0, now).map_err(|e| e.to_string())?;
                    *task = Task {
                        pid: kernel.spawn(String::new(), now),
                        allocated: false,
                        suspended: false,
                    };
                    continue;
                }
            },
        };
        let pid = task.pid;
        let start = Instant::now();
        let result = match op {
            Op::Allocate => kernel.allocate(pid, STATE, 1.0, now).map(drop),
            Op::Suspend => kernel.signal(pid, Signal::Sigtstp, now).map(drop),
            Op::Resume => kernel
                .signal(pid, Signal::Sigcont, now)
                .and_then(|_| kernel.fault_in_all(pid, now))
                .map(drop),
            Op::Touch => kernel.touch(pid, now),
        };
        let elapsed = start.elapsed();
        result.map_err(|e| e.to_string())?;
        match op {
            Op::Allocate => task.allocated = true,
            Op::Suspend => task.suspended = true,
            Op::Resume => task.suspended = false,
            Op::Touch => {}
        }
        let slot = &mut totals[op as usize];
        slot.0 += 1;
        slot.1 += elapsed;
    }
    let mean = |(calls, time): (u32, Duration)| {
        if calls == 0 {
            0.0
        } else {
            time.as_secs_f64() * 1e9 / f64::from(calls)
        }
    };
    Ok(ReplayCosts {
        allocate_ns: mean(totals[Op::Allocate as usize]),
        suspend_ns: mean(totals[Op::Suspend as usize]),
        resume_ns: mean(totals[Op::Resume as usize]),
        touch_ns: mean(totals[Op::Touch as usize]),
    })
}
