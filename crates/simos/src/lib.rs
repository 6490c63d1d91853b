//! # mrp-simos — a simulated node operating system
//!
//! The paper's preemption primitive ("OS-Assisted Task Preemption for
//! Hadoop") leans entirely on mechanisms the operating system already
//! provides: POSIX job-control signals to stop and continue task processes,
//! and demand paging to move the memory of stopped tasks out of the way only
//! when — and only as much as — physical memory pressure requires.
//!
//! This crate models those mechanisms for one node:
//!
//! * [`Kernel`] — the facade: process table, signal delivery, memory charges,
//!   disk I/O timing, OOM killing.
//! * [`Signal`], [`ProcessState`], [`transition`] — POSIX-style signal
//!   semantics (`SIGTSTP`, `SIGCONT`, `SIGKILL`, …).
//! * [`MemoryManager`] — resident/swapped accounting, file-cache-first reclaim
//!   (`swappiness = 0`), suspended-processes-first LRU victim selection,
//!   clustered page-out with over-eviction, swap-capacity limits.
//! * [`Disk`] — a bandwidth/latency model for block reads and swap traffic.
//!
//! All operations are pure state transitions that *return* their virtual-time
//! cost; the MapReduce engine integrates the costs into its discrete-event
//! simulation.
//!
//! ```
//! use mrp_simos::{Kernel, Signal};
//! use mrp_sim::{SimTime, GIB};
//!
//! let mut kernel = Kernel::default();
//! let low = kernel.spawn("task_low", SimTime::ZERO);
//! let high = kernel.spawn("task_high", SimTime::ZERO);
//!
//! // The low-priority task fills most of the RAM, then gets suspended.
//! kernel.allocate(low, 2 * GIB, 1.0, SimTime::ZERO).unwrap();
//! kernel.signal(low, Signal::Sigtstp, SimTime::from_secs(30)).unwrap();
//!
//! // The high-priority task's allocation pushes the suspended task to swap,
//! // and the stall for doing so is charged to the allocator.
//! let outcome = kernel.allocate(high, 2 * GIB, 1.0, SimTime::from_secs(31)).unwrap();
//! assert!(outcome.charge.dirty_paged_out > 0);
//! assert!(kernel.swapped_bytes(low) > 0);
//! ```

#![warn(missing_docs, unreachable_pub)]
#![deny(unsafe_code)]

mod disk;
mod kernel;
mod memory;
mod process;
mod signal;
mod swapdev;

pub use disk::{Disk, DiskConfig, DiskStats, SEQ_READ_BYTES_PER_SEC, SEQ_WRITE_BYTES_PER_SEC};
pub use kernel::{Kernel, MemOutcome, NodeOsConfig, SignalOutcome};
pub use memory::{MemoryCharge, MemoryConfig, MemoryManager, MemoryStats, ProcMemory, OS_RESERVE};
pub use process::{Pid, Process};
pub use signal::{transition, OsError, ProcessState, Signal, SignalEffect};
pub use swapdev::{SwapConfig, SwapDevice, SwapStats};

#[cfg(test)]
mod refmodel;

#[cfg(test)]
mod randomized_tests {
    //! Property-style tests driven by seeded randomization (the container has
    //! no proptest); fixed seeds keep every failure reproducible.

    use super::*;
    use mrp_sim::{SimRng, SimTime, GIB, MIB};

    /// Arbitrary interleavings of kernel operations never violate the memory
    /// manager's accounting invariants, never panic, and never leave swapped
    /// bytes attributed to dead processes.
    #[test]
    fn kernel_survives_arbitrary_interleavings() {
        for case in 0..64u64 {
            let mut rng = SimRng::new(0x5105 + case);
            let mut k = Kernel::new(NodeOsConfig {
                memory: MemoryConfig {
                    total_ram: 4 * GIB + 88 * MIB,
                    swap_capacity: 16 * GIB,
                    ..MemoryConfig::default()
                },
                disk: DiskConfig::default(),
            });
            let mut pids: Vec<Pid> = Vec::new();
            let ops = 1 + rng.index(120);
            for t in 1..=ops as u64 {
                let now = SimTime::from_secs(t);
                let proc_idx = rng.index(8);
                match rng.index(8) {
                    0 => pids.push(k.spawn(format!("p{t}"), now)),
                    1 => {
                        if let Some(&pid) = pids.get(proc_idx) {
                            let mib = 1 + rng.index(2047) as u64;
                            let frac = if rng.chance(0.5) { 1.0 } else { 0.25 };
                            let _ = k.allocate(pid, mib * MIB, frac, now);
                        }
                    }
                    2 => {
                        if let Some(&pid) = pids.get(proc_idx) {
                            let _ = k.signal(pid, Signal::Sigtstp, now);
                        }
                    }
                    3 => {
                        if let Some(&pid) = pids.get(proc_idx) {
                            let _ = k.signal(pid, Signal::Sigcont, now);
                        }
                    }
                    4 => {
                        if let Some(&pid) = pids.get(proc_idx) {
                            let _ = k.signal(pid, Signal::Sigkill, now);
                        }
                    }
                    5 => {
                        if let Some(&pid) = pids.get(proc_idx) {
                            let _ = k.exit(pid, 0, now);
                        }
                    }
                    6 => {
                        if let Some(&pid) = pids.get(proc_idx) {
                            let _ = k.fault_in_all(pid, now);
                        }
                    }
                    _ => {
                        let _ = k.disk_read((1 + rng.index(1023) as u64) * MIB);
                    }
                }
                assert!(
                    k.memory().check_invariants().is_ok(),
                    "invariant violated (case {case}, op {t}): {:?}",
                    k.memory().check_invariants()
                );
            }
            // Dead processes must not hold memory.
            for &pid in &pids {
                if let Ok(state) = k.state(pid) {
                    if !state.is_alive() {
                        assert!(
                            k.proc_memory(pid).is_none()
                                || k.proc_memory(pid).unwrap().virtual_size() == 0
                        );
                    }
                }
            }
        }
    }

    /// Signal transition function is total over live states and never
    /// resurrects dead processes.
    #[test]
    fn signal_transitions_are_sane() {
        let sigs = [
            Signal::Sigtstp,
            Signal::Sigcont,
            Signal::Sigterm,
            Signal::Sigkill,
            Signal::Sigstop,
        ];
        for case in 0..64u64 {
            let mut rng = SimRng::new(0x5165 + case);
            let mut state = ProcessState::Running;
            let steps = 1 + rng.index(50);
            for _ in 0..steps {
                let sig = sigs[rng.index(sigs.len())];
                match transition(state, sig) {
                    Ok((next, _)) => {
                        // Once dead, transition must error forever after.
                        assert!(state.is_alive());
                        state = next;
                    }
                    Err(e) => {
                        assert_eq!(e, OsError::NoSuchProcess);
                        assert!(!state.is_alive());
                    }
                }
            }
        }
    }
}
