//! The per-node kernel facade: process table + memory manager + disk.
//!
//! The kernel converts the byte-level accounting of the
//! [`MemoryManager`](crate::memory::MemoryManager) into virtual-time charges
//! using the [`Disk`](crate::disk::Disk) model, and wires POSIX signal
//! delivery to both the process table and the memory manager (a `SIGTSTP`ed
//! process becomes a preferred paging victim, a killed process releases its
//! memory immediately).
//!
//! Nothing in this crate schedules events: every operation returns the time it
//! costs, and the MapReduce engine (crate `mrp-engine`) integrates those costs
//! into its discrete-event simulation.

use crate::disk::{Disk, DiskConfig, DiskStats};
use crate::memory::{MemoryCharge, MemoryConfig, MemoryManager, MemoryStats, ProcMemory};
use crate::process::{Pid, Process};
use crate::signal::{transition, OsError, ProcessState, Signal, SignalEffect};
use crate::swapdev::RESUME_PREFETCH;
use mrp_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Full OS configuration of one simulated node.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct NodeOsConfig {
    /// Memory subsystem configuration.
    pub memory: MemoryConfig,
    /// Disk performance model.
    pub disk: DiskConfig,
}

/// Result of a memory operation, with both the byte movements and the stall
/// time charged to the calling process.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MemOutcome {
    /// Byte-level movements (cache reclaim, page-out, page-in, thrash).
    pub charge: MemoryCharge,
    /// Wall-clock (virtual) time the faulting process is stalled by paging.
    pub stall: SimDuration,
}

/// Result of delivering a signal.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SignalOutcome {
    /// What the signal did to the target.
    pub(crate) effect: SignalEffect,
    /// Bytes of RAM and swap released, if the signal terminated the process.
    pub(crate) released_bytes: u64,
}

/// The first pid a kernel hands out; pids then count up by one and are
/// never reused.
const FIRST_PID: u32 = 1000;

/// The simulated per-node operating system kernel.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Kernel {
    config: NodeOsConfig,
    /// The process table, indexed by `pid - FIRST_PID`. Terminated
    /// processes keep their entry, so [`Kernel::state`] still answers for
    /// them, and the next pid is always `FIRST_PID + processes.len()`.
    processes: Vec<Process>,
    memory: MemoryManager,
    disk: Disk,
}

impl Kernel {
    /// Boots a kernel with the given configuration.
    pub fn new(config: NodeOsConfig) -> Self {
        Kernel {
            memory: MemoryManager::new(config.memory.clone()),
            disk: Disk::new(config.disk.clone()),
            config,
            processes: Vec::new(),
        }
    }

    /// The kernel's configuration.
    pub fn config(&self) -> &NodeOsConfig {
        &self.config
    }

    /// Read-only view of the memory manager.
    pub fn memory(&self) -> &MemoryManager {
        &self.memory
    }

    /// Node-wide memory statistics.
    pub fn memory_stats(&self) -> &MemoryStats {
        self.memory.stats()
    }

    /// Disk statistics (block I/O and swap traffic).
    pub fn disk_stats(&self) -> &DiskStats {
        self.disk.stats()
    }

    /// Read-only view of the disk device (queued background I/O, timing
    /// model); the engine's observability sampler reads the swap/background
    /// backlog from here.
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    /// Spawns a new process (a task JVM forked by the TaskTracker).
    pub fn spawn(&mut self, name: impl Into<String>, now: SimTime) -> Pid {
        let pid = Pid(FIRST_PID + self.processes.len() as u32);
        self.processes.push(Process::new(pid, name, now));
        self.memory.register(pid, now);
        pid
    }

    /// Looks up a process table entry.
    pub(crate) fn process(&self, pid: Pid) -> Option<&Process> {
        let index = pid.0.checked_sub(FIRST_PID)?;
        self.processes.get(index as usize)
    }

    fn process_mut(&mut self, pid: Pid) -> Option<&mut Process> {
        let index = pid.0.checked_sub(FIRST_PID)?;
        self.processes.get_mut(index as usize)
    }

    /// The run state of a process, or an error if it never existed.
    pub(crate) fn state(&self, pid: Pid) -> Result<ProcessState, OsError> {
        self.process(pid)
            .map(|p| p.state)
            .ok_or(OsError::NoSuchProcess)
    }

    /// Per-process memory view.
    pub fn proc_memory(&self, pid: Pid) -> Option<&ProcMemory> {
        self.memory.process(pid)
    }

    fn stall_for(&mut self, charge: &MemoryCharge) -> SimDuration {
        let mut stall = SimDuration::ZERO;
        if charge.swap_write_bytes() > 0 {
            let t = self.disk.swap_out(charge.swap_write_bytes());
            if let Some(dev) = self.memory.swap_device_mut() {
                dev.record_out(t);
            }
            stall += t;
        }
        if charge.swap_read_bytes() > 0 {
            let t = self.disk.swap_in(charge.swap_read_bytes());
            if let Some(dev) = self.memory.swap_device_mut() {
                dev.record_in(t);
            }
            stall += t;
        }
        stall
    }

    /// Delivers `signal` to `pid`.
    ///
    /// * `SIGTSTP`/`SIGSTOP` stop the process and mark its memory as a
    ///   preferred eviction victim. Stopping is cheap: no pages move until
    ///   another process actually needs the RAM.
    /// * `SIGCONT` makes the process runnable again; its swapped pages are
    ///   *not* eagerly read back — they fault in when the process touches
    ///   them (see [`Kernel::fault_in_all`]).
    /// * `SIGKILL`/`SIGTERM` terminate it and release all its memory.
    pub fn signal(
        &mut self,
        pid: Pid,
        signal: Signal,
        now: SimTime,
    ) -> Result<SignalOutcome, OsError> {
        let proc_state = self.state(pid)?;
        let (new_state, effect) = transition(proc_state, signal)?;
        let mut released = 0;
        match effect {
            SignalEffect::Suspended => {
                self.memory.set_suspended(pid, true)?;
            }
            SignalEffect::Resumed => {
                self.memory.set_suspended(pid, false)?;
            }
            SignalEffect::Terminated => {
                released = self
                    .memory
                    .process(pid)
                    .map(|m| m.virtual_size())
                    .unwrap_or(0);
                self.memory.remove(pid)?;
            }
            SignalEffect::Ignored => {}
        }
        let entry = self.process_mut(pid).expect("state() checked existence");
        match new_state {
            ProcessState::Killed(sig) => entry.killed_by(sig, now),
            other => entry.set_state(other, now),
        }
        Ok(SignalOutcome {
            effect,
            released_bytes: released,
        })
    }

    /// Voluntary process exit; releases all memory instantly.
    pub fn exit(&mut self, pid: Pid, code: i32, now: SimTime) -> Result<u64, OsError> {
        let state = self.state(pid)?;
        if !state.is_alive() {
            return Err(OsError::NoSuchProcess);
        }
        let released = self
            .memory
            .process(pid)
            .map(|m| m.virtual_size())
            .unwrap_or(0);
        self.memory.remove(pid)?;
        self.process_mut(pid)
            .expect("checked above")
            .exit(code, now);
        Ok(released)
    }

    /// Allocates anonymous memory on behalf of `pid`, returning the paging
    /// stall this caused (zero when enough RAM is free).
    pub fn allocate(
        &mut self,
        pid: Pid,
        bytes: u64,
        dirty_fraction: f64,
        now: SimTime,
    ) -> Result<MemOutcome, OsError> {
        if !self.state(pid)?.is_alive() {
            return Err(OsError::NoSuchProcess);
        }
        let charge = self.memory.allocate(pid, bytes, dirty_fraction, now)?;
        let stall = self.stall_for(&charge);
        debug_assert!(
            self.memory.check_invariants().is_ok(),
            "{:?}",
            self.memory.check_invariants()
        );
        Ok(MemOutcome { charge, stall })
    }

    /// Faults back in everything `pid` has in swap — what happens when a
    /// resumed task starts touching its working set again. Returns the stall
    /// charged to the process.
    pub fn fault_in_all(&mut self, pid: Pid, now: SimTime) -> Result<MemOutcome, OsError> {
        if !self.state(pid)?.is_alive() {
            return Err(OsError::NoSuchProcess);
        }
        let charge = self.memory.page_in_all(pid, now)?;
        let stall = self.stall_for(&charge);
        debug_assert!(self.memory.check_invariants().is_ok());
        Ok(MemOutcome { charge, stall })
    }

    /// The lazy-resume fault path: brings in only the prefetch window of
    /// `pid`'s swapped memory (`RESUME_PREFETCH`, a quarter of it); the rest
    /// faults back in on touch — at the latest through
    /// [`Kernel::fault_in_all`] when the task re-reads its state.
    pub fn fault_in_prefetch(&mut self, pid: Pid, now: SimTime) -> Result<MemOutcome, OsError> {
        if !self.state(pid)?.is_alive() {
            return Err(OsError::NoSuchProcess);
        }
        let want = (self.swapped_bytes(pid) as f64 * RESUME_PREFETCH).ceil() as u64;
        let charge = self.memory.page_in_partial(pid, want, now)?;
        let stall = self.stall_for(&charge);
        debug_assert!(self.memory.check_invariants().is_ok());
        Ok(MemOutcome { charge, stall })
    }

    /// Queues `bytes` of background disk traffic (DFS re-replication sharing
    /// the spindle with the swap area); swap I/O runs at reduced bandwidth
    /// until the backlog drains. No-op unless the disk's `background_share`
    /// is positive.
    pub fn queue_background_write(&mut self, bytes: u64) {
        self.disk.queue_background(bytes);
    }

    /// Marks a running process's memory as recently used.
    pub fn touch(&mut self, pid: Pid, now: SimTime) -> Result<(), OsError> {
        self.memory.touch(pid, now)
    }

    /// Reads `bytes` sequentially from the local disk (an HDFS block read),
    /// populating the file cache, and returns the time it takes.
    pub fn disk_read(&mut self, bytes: u64) -> SimDuration {
        self.memory.populate_file_cache(bytes);
        self.disk.read(bytes)
    }

    /// Writes `bytes` sequentially to the local disk (task output or spills).
    pub fn disk_write(&mut self, bytes: u64) -> SimDuration {
        self.disk.write(bytes)
    }

    /// Runs the OOM killer: terminates the victim chosen by the memory
    /// manager and returns its pid, or `None` if there was nothing to kill.
    pub fn oom_kill(&mut self, now: SimTime) -> Option<Pid> {
        let victim = self.memory.oom_victim()?;
        // SIGKILL the victim; ignore errors (it cannot be dead if it still has memory).
        let _ = self.signal(victim, Signal::Sigkill, now);
        Some(victim)
    }

    /// Swapped bytes currently attributed to `pid` (0 if unknown).
    pub fn swapped_bytes(&self, pid: Pid) -> u64 {
        self.memory.process(pid).map(|m| m.swapped).unwrap_or(0)
    }

    /// Cumulative bytes ever paged out for `pid` (Figure 4's "paged bytes").
    pub fn total_paged_out(&self, pid: Pid) -> u64 {
        self.memory
            .process(pid)
            .map(|m| m.total_paged_out)
            .unwrap_or(0)
    }
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::new(NodeOsConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_sim::{GIB, MIB};

    fn kernel() -> Kernel {
        Kernel::default()
    }

    #[test]
    fn spawn_assigns_unique_pids() {
        let mut k = kernel();
        let a = k.spawn("task-a", SimTime::ZERO);
        let b = k.spawn("task-b", SimTime::ZERO);
        assert_ne!(a, b);
        assert_eq!(k.state(a).unwrap(), ProcessState::Running);
        assert!(k.proc_memory(a).is_some());
    }

    #[test]
    fn suspend_resume_cycle_via_signals() {
        let mut k = kernel();
        let pid = k.spawn("task", SimTime::ZERO);
        let out = k
            .signal(pid, Signal::Sigtstp, SimTime::from_secs(1))
            .unwrap();
        assert_eq!(out.effect, SignalEffect::Suspended);
        assert_eq!(k.state(pid).unwrap(), ProcessState::Stopped);
        assert!(k.memory().process(pid).unwrap().suspended);
        let out = k
            .signal(pid, Signal::Sigcont, SimTime::from_secs(2))
            .unwrap();
        assert_eq!(out.effect, SignalEffect::Resumed);
        assert_eq!(k.state(pid).unwrap(), ProcessState::Running);
        assert!(!k.memory().process(pid).unwrap().suspended);
        assert_eq!(k.process(pid).unwrap().suspend_count, 1);
        assert_eq!(k.process(pid).unwrap().resume_count, 1);
    }

    #[test]
    fn kill_releases_memory() {
        let mut k = kernel();
        let pid = k.spawn("task", SimTime::ZERO);
        k.allocate(pid, GIB, 1.0, SimTime::ZERO).unwrap();
        assert_eq!(k.memory().total_resident(), GIB);
        let out = k
            .signal(pid, Signal::Sigkill, SimTime::from_secs(1))
            .unwrap();
        assert_eq!(out.effect, SignalEffect::Terminated);
        assert_eq!(out.released_bytes, GIB);
        assert_eq!(k.memory().total_resident(), 0);
        assert_eq!(k.state(pid).unwrap(), ProcessState::Killed(Signal::Sigkill));
        // Further signals fail with ESRCH.
        assert_eq!(
            k.signal(pid, Signal::Sigcont, SimTime::from_secs(2))
                .unwrap_err(),
            OsError::NoSuchProcess
        );
    }

    #[test]
    fn exit_releases_memory() {
        let mut k = kernel();
        let pid = k.spawn("task", SimTime::ZERO);
        k.allocate(pid, 512 * MIB, 1.0, SimTime::ZERO).unwrap();
        let released = k.exit(pid, 0, SimTime::from_secs(1)).unwrap();
        assert_eq!(released, 512 * MIB);
        assert_eq!(k.state(pid).unwrap(), ProcessState::Exited(0));
        assert_eq!(
            k.exit(pid, 0, SimTime::from_secs(2)).unwrap_err(),
            OsError::NoSuchProcess
        );
    }

    #[test]
    fn allocation_under_pressure_stalls_the_allocator() {
        let mut k = kernel();
        let victim = k.spawn("low-priority", SimTime::ZERO);
        let newcomer = k.spawn("high-priority", SimTime::ZERO);
        k.allocate(victim, 2 * GIB, 1.0, SimTime::ZERO).unwrap();
        k.signal(victim, Signal::Sigtstp, SimTime::from_secs(1))
            .unwrap();
        let out = k
            .allocate(newcomer, 2 * GIB, 1.0, SimTime::from_secs(2))
            .unwrap();
        assert!(out.charge.dirty_paged_out > 0);
        assert!(out.stall > SimDuration::ZERO);
        assert!(
            out.stall.as_secs_f64() < 60.0,
            "page-out stall should be seconds, not minutes"
        );
        assert!(k.swapped_bytes(victim) > 0);
        assert_eq!(k.swapped_bytes(newcomer), 0);
    }

    #[test]
    fn fault_in_after_resume_costs_swap_reads() {
        let mut k = kernel();
        let victim = k.spawn("tl", SimTime::ZERO);
        let hp = k.spawn("th", SimTime::ZERO);
        k.allocate(victim, 2 * GIB, 1.0, SimTime::ZERO).unwrap();
        k.signal(victim, Signal::Sigtstp, SimTime::from_secs(1))
            .unwrap();
        k.allocate(hp, 2 * GIB, 1.0, SimTime::from_secs(2)).unwrap();
        let swapped = k.swapped_bytes(victim);
        assert!(swapped > 0);
        k.exit(hp, 0, SimTime::from_secs(50)).unwrap();
        k.signal(victim, Signal::Sigcont, SimTime::from_secs(51))
            .unwrap();
        let out = k.fault_in_all(victim, SimTime::from_secs(51)).unwrap();
        assert_eq!(out.charge.paged_in, swapped);
        assert!(out.stall > SimDuration::ZERO);
        assert_eq!(k.swapped_bytes(victim), 0);
        assert_eq!(k.disk_stats().swap_bytes_in, swapped);
    }

    #[test]
    fn suspension_without_pressure_is_free() {
        let mut k = kernel();
        let pid = k.spawn("light", SimTime::ZERO);
        k.allocate(pid, 200 * MIB, 1.0, SimTime::ZERO).unwrap();
        k.signal(pid, Signal::Sigtstp, SimTime::from_secs(1))
            .unwrap();
        // Nothing else needs memory, so nothing is paged: this is the key
        // advantage over checkpoint-based preemption.
        assert_eq!(k.swapped_bytes(pid), 0);
        k.signal(pid, Signal::Sigcont, SimTime::from_secs(2))
            .unwrap();
        let out = k.fault_in_all(pid, SimTime::from_secs(2)).unwrap();
        assert_eq!(out.stall, SimDuration::ZERO);
        assert_eq!(k.disk_stats().swap_bytes_out, 0);
    }

    #[test]
    fn disk_read_populates_file_cache() {
        let mut k = kernel();
        let t = k.disk_read(512 * MIB);
        assert!(t.as_secs_f64() > 1.0);
        assert!(k.memory().file_cache() > 0);
    }

    #[test]
    fn oom_killer_picks_a_victim() {
        let cfg = NodeOsConfig {
            memory: MemoryConfig {
                total_ram: 2 * GIB + 344 * MIB,
                swap_capacity: 128 * MIB,
                ..MemoryConfig::default()
            },
            disk: DiskConfig::default(),
        };
        let mut k = Kernel::new(cfg);
        let a = k.spawn("a", SimTime::ZERO);
        let b = k.spawn("b", SimTime::ZERO);
        k.allocate(a, GIB + 256 * MIB, 1.0, SimTime::ZERO).unwrap();
        k.signal(a, Signal::Sigtstp, SimTime::ZERO).unwrap();
        let err = k
            .allocate(b, GIB + 256 * MIB, 1.0, SimTime::from_secs(1))
            .unwrap_err();
        assert_eq!(err, OsError::OutOfMemory);
        let victim = k.oom_kill(SimTime::from_secs(1)).unwrap();
        assert_eq!(victim, a, "the suspended memory hog should be sacrificed");
        assert!(!k.state(a).unwrap().is_alive());
    }

    #[test]
    fn dead_pids_keep_answering_and_pids_are_not_reused() {
        let mut k = kernel();
        let a = k.spawn("a", SimTime::ZERO);
        let b = k.spawn("b", SimTime::ZERO);
        k.exit(a, 3, SimTime::from_secs(1)).unwrap();
        k.signal(b, Signal::Sigkill, SimTime::from_secs(2)).unwrap();
        assert_eq!(k.state(a).unwrap(), ProcessState::Exited(3));
        assert_eq!(k.state(b).unwrap(), ProcessState::Killed(Signal::Sigkill));
        let c = k.spawn("c", SimTime::from_secs(3));
        assert!(c != a && c != b, "a new process must get a fresh pid");
        assert_eq!(k.process(c).unwrap().pid, c);
        assert_eq!(k.state(c).unwrap(), ProcessState::Running);
    }

    #[test]
    fn unknown_pid_errors() {
        let mut k = kernel();
        let ghost = Pid(9999);
        assert_eq!(k.state(Pid(7)).unwrap_err(), OsError::NoSuchProcess);
        assert!(k.signal(ghost, Signal::Sigtstp, SimTime::ZERO).is_err());
        assert!(k.allocate(ghost, 1, 1.0, SimTime::ZERO).is_err());
        assert!(k.fault_in_all(ghost, SimTime::ZERO).is_err());
        assert!(k.exit(ghost, 0, SimTime::ZERO).is_err());
        assert_eq!(k.swapped_bytes(ghost), 0);
        assert_eq!(k.total_paged_out(ghost), 0);
    }
}
