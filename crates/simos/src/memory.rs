//! Virtual memory accounting: resident/swapped anonymous memory, file cache,
//! LRU victim selection and swap capacity.
//!
//! This module captures the Linux behaviours the paper's evaluation depends
//! on (Section III-A):
//!
//! * With `swappiness = 0` (the recommended Hadoop configuration, and the
//!   only one modelled) the kernel reclaims file-cache pages before it pages
//!   out anonymous memory, so paging of task memory only happens to avoid
//!   out-of-memory conditions.
//! * Pages belonging to **suspended** processes are preferential eviction
//!   victims: they are outside every working set, so an LRU-style policy
//!   evicts them before pages of running processes.
//! * Clean pages are dropped without disk writes; dirty pages must be written
//!   to the swap device.
//! * Page-out is clustered and the approximate page-replacement implementation
//!   reclaims somewhat more than strictly necessary under pressure, which is
//!   why the paper observes swapped bytes growing "more than linearly" with
//!   the memory footprint (Figure 4).
//!
//! The manager is pure bookkeeping: it returns *byte quantities*; the
//! [`crate::kernel::Kernel`] turns them into virtual-time charges using the
//! [`crate::disk::Disk`] model.
//!
//! Its two tables, the per-process accounting and the eviction-victim index
//! (suspended first, then least-recent touch, then pid), are sorted vectors
//! ([`mrp_sim::VecMap`]). A node runs a handful of task processes, and every
//! spawn, allocation, signal and exit looks one up, so a binary search over
//! a few contiguous entries replaces a hash probe or a tree walk; the victim
//! walk reads the index front to back.

use crate::process::Pid;
use crate::signal::OsError;
use crate::swapdev::{SwapConfig, SwapDevice};
use mrp_sim::{SimTime, VecMap, GIB, MIB};
use serde::{Deserialize, Serialize};

/// Extra fraction of pages reclaimed beyond the immediate shortfall when the
/// kernel is under pressure, modelling watermark-based batched reclaim. This
/// produces the super-linear swapped-bytes growth of Figure 4.
pub(crate) const OVER_EVICTION_FACTOR: f64 = 0.18;

/// Granularity of page-out batches; reclaim amounts are rounded up to a
/// multiple of this (Linux `page-cluster` behaviour).
pub(crate) const PAGE_CLUSTER_BYTES: u64 = 2 * MIB;

/// Memory permanently claimed by the OS, the DataNode and the TaskTracker
/// daemons on the paper's evaluation machine; never available to task
/// processes.
pub const OS_RESERVE: u64 = 600 * MIB;

/// Static memory configuration of a simulated node.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MemoryConfig {
    /// Physical RAM installed, in bytes; [`OS_RESERVE`] of it is never
    /// available to task processes.
    pub total_ram: u64,
    /// Capacity of the swap area, in bytes.
    pub swap_capacity: u64,
    /// Block-granular swap-device model (see [`SwapConfig`]); off by default,
    /// in which case swap occupancy stays byte-granular.
    #[serde(default)]
    pub swap: SwapConfig,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        // The paper's evaluation machine: 4 GB of RAM, of which roughly 0.6 GB
        // is used by the OS and the Hadoop daemons, swap on a local disk.
        MemoryConfig {
            total_ram: 4 * GIB,
            swap_capacity: 8 * GIB,
            swap: SwapConfig::default(),
        }
    }
}

impl MemoryConfig {
    /// RAM usable by task processes and the file cache.
    pub(crate) fn usable_ram(&self) -> u64 {
        self.total_ram.saturating_sub(OS_RESERVE)
    }
}

/// Per-process memory accounting.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ProcMemory {
    /// Resident anonymous bytes that have been written (must go to swap if
    /// evicted).
    pub(crate) resident_dirty: u64,
    /// Resident bytes that can be dropped without writing (code, mmapped
    /// read-only data, or anonymous pages already backed by swap).
    pub(crate) resident_clean: u64,
    /// Bytes currently in the swap area.
    pub swapped: u64,
    /// Whether the process is suspended (its pages are preferred eviction
    /// victims).
    pub(crate) suspended: bool,
    /// Last time the process touched its memory; used for LRU ordering among
    /// same-priority victims.
    pub(crate) last_touch: SimTime,
    /// Cumulative bytes this process has had paged out (the quantity plotted
    /// on the left axis of Figure 4).
    pub(crate) total_paged_out: u64,
    /// Cumulative bytes paged back in.
    pub total_paged_in: u64,
}

impl ProcMemory {
    /// Total resident bytes.
    pub(crate) fn resident(&self) -> u64 {
        self.resident_dirty + self.resident_clean
    }

    /// Total virtual size (resident + swapped).
    pub(crate) fn virtual_size(&self) -> u64 {
        self.resident() + self.swapped
    }
}

/// Byte quantities moved during one reclaim / allocation operation.
///
/// The kernel converts these into stall time: `dirty_paged_out` and
/// `self_thrash_bytes` cost swap-write bandwidth, `paged_in` costs swap-read
/// bandwidth, everything else is free.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MemoryCharge {
    /// File-cache bytes reclaimed (no I/O charge).
    pub(crate) cache_reclaimed: u64,
    /// Clean pages dropped (no I/O charge).
    pub clean_dropped: u64,
    /// Dirty pages written to the swap area.
    pub dirty_paged_out: u64,
    /// Bytes paged in from swap (on touch/resume).
    pub(crate) paged_in: u64,
    /// Bytes the allocating process had to cycle through swap itself because
    /// its own working set exceeds usable RAM (thrashing).
    pub(crate) self_thrash_bytes: u64,
    /// Per-victim paged-out bytes `(pid, bytes)`, suspended victims first.
    pub(crate) victims: Vec<(Pid, u64)>,
}

impl MemoryCharge {
    /// Total bytes that will be written to the swap device.
    pub(crate) fn swap_write_bytes(&self) -> u64 {
        self.dirty_paged_out + self.self_thrash_bytes
    }

    /// Total bytes that will be read from the swap device.
    pub(crate) fn swap_read_bytes(&self) -> u64 {
        self.paged_in + self.self_thrash_bytes
    }
}

/// Cumulative node-wide memory statistics.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MemoryStats {
    /// Total bytes ever written to swap.
    pub(crate) swap_out_bytes: u64,
    /// Total bytes ever read back from swap.
    pub(crate) swap_in_bytes: u64,
    /// Total file-cache bytes reclaimed under pressure.
    pub(crate) cache_reclaimed_bytes: u64,
    /// Number of allocation requests that needed reclaim.
    pub(crate) pressure_events: u64,
    /// Number of OOM-killer invocations.
    pub oom_kills: u64,
    /// Number of operations in which a process cycled part of its own working
    /// set through swap because it exceeds usable RAM (thrashing under
    /// overcommit).
    #[serde(default)]
    pub thrash_events: u64,
}

/// Ordering key of the LRU victim index: suspended processes first (their
/// pages are outside every working set), then by least-recent touch, ties
/// broken by pid for determinism.
type VictimKey = (u8, SimTime, Pid);

fn victim_key(pm: &ProcMemory, pid: Pid) -> VictimKey {
    (u8::from(!pm.suspended), pm.last_touch, pid)
}

/// Rounds a reclaim amount up to whole page-out batches.
fn round_cluster(bytes: u64) -> u64 {
    bytes.div_ceil(PAGE_CLUSTER_BYTES) * PAGE_CLUSTER_BYTES
}

/// The per-node memory manager.
///
/// Both tables are sorted vectors (see the module docs). Pids are arbitrary
/// keys here: the kernel hands them out densely, but tests register any
/// pid. Victim selection is backed by the ordered index (`lru`) maintained
/// incrementally on register / touch / suspend / remove, so each `reclaim`
/// walks candidates in eviction order directly instead of collecting and
/// sorting every process table entry per call. Total resident bytes are a
/// counter updated on every byte movement, not an O(processes) sum — both
/// matter because `free_ram()` runs on every allocation in the simulation's
/// hot path.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MemoryManager {
    config: MemoryConfig,
    procs: VecMap<Pid, ProcMemory>,
    /// Eviction-victim index in victim order; one entry per registered
    /// process.
    lru: VecMap<VictimKey, ()>,
    /// Sum of `resident()` over all registered processes.
    resident_total: u64,
    file_cache: u64,
    swap_used: u64,
    stats: MemoryStats,
    /// Block-granular swap device, present iff `config.swap.enabled`. When
    /// present it owns swap occupancy: `swap_used` mirrors its
    /// `allocated_bytes()` (whole blocks, including retained swap cache).
    #[serde(default)]
    swapdev: Option<SwapDevice>,
}

impl MemoryManager {
    /// Creates a memory manager for a node with the given configuration.
    pub(crate) fn new(config: MemoryConfig) -> Self {
        assert!(
            config.total_ram > OS_RESERVE,
            "RAM must exceed the OS reserve"
        );
        config
            .swap
            .validate()
            .unwrap_or_else(|e| panic!("invalid swap config: {e}"));
        let swapdev = config
            .swap
            .enabled
            .then(|| SwapDevice::new(config.swap_capacity, config.swap.block_size));
        MemoryManager {
            config,
            procs: VecMap::new(),
            lru: VecMap::new(),
            resident_total: 0,
            file_cache: 0,
            swap_used: 0,
            stats: MemoryStats::default(),
            swapdev,
        }
    }

    /// Re-keys `pid`'s entry in the victim index around a mutation of its
    /// `suspended` flag or `last_touch` stamp.
    fn reindex<R>(
        &mut self,
        pid: Pid,
        mutate: impl FnOnce(&mut ProcMemory) -> R,
    ) -> Result<R, OsError> {
        let pm = self.procs.get_mut(&pid).ok_or(OsError::NoSuchProcess)?;
        let old = victim_key(pm, pid);
        let out = mutate(pm);
        let new = victim_key(pm, pid);
        if new != old {
            self.lru.remove(&old);
            self.lru.insert(new, ());
        }
        Ok(out)
    }

    /// Node-wide statistics.
    pub(crate) fn stats(&self) -> &MemoryStats {
        &self.stats
    }

    /// Current swap-area occupancy in bytes. With the block-granular device
    /// enabled this counts whole blocks, including retained swap cache.
    pub fn swap_used(&self) -> u64 {
        self.swap_used
    }

    /// The block-granular swap device, if [`SwapConfig::enabled`] is set.
    pub fn swap_device(&self) -> Option<&SwapDevice> {
        self.swapdev.as_ref()
    }

    /// Mutable device access; the kernel records swap I/O timings through it.
    pub(crate) fn swap_device_mut(&mut self) -> Option<&mut SwapDevice> {
        self.swapdev.as_mut()
    }

    /// Reconciles `pid`'s device block counts with its byte-level `swapped`
    /// total and refreshes `swap_used` from block occupancy. `to_cache`
    /// routes a shrink into the swap cache (page-in: content now lives in
    /// RAM *and* on disk) instead of the free list (release). No-op while
    /// the device is disabled.
    fn sync_backing(&mut self, pid: Pid, to_cache: bool) {
        if let Some(dev) = self.swapdev.as_mut() {
            let pm = &self.procs[&pid];
            dev.set_backing(pid, pm.swapped, to_cache)
                .expect("swap capacity pre-checked by reclaim");
            dev.trim_cache(pid, pm.resident_clean);
            self.swap_used = dev.allocated_bytes();
        }
    }

    /// Registers a new process with an empty address space.
    pub(crate) fn register(&mut self, pid: Pid, now: SimTime) {
        if let Some(old) = self.procs.get(&pid) {
            // Re-registering an existing pid replaces its accounting.
            self.lru.remove(&victim_key(old, pid));
            self.resident_total -= old.resident();
            self.swap_used = self.swap_used.saturating_sub(old.swapped);
            if let Some(dev) = self.swapdev.as_mut() {
                dev.remove(pid);
                self.swap_used = dev.allocated_bytes();
            }
        }
        let pm = ProcMemory {
            last_touch: now,
            ..ProcMemory::default()
        };
        self.lru.insert(victim_key(&pm, pid), ());
        self.procs.insert(pid, pm);
    }

    /// Per-process memory view, if the process is registered.
    pub fn process(&self, pid: Pid) -> Option<&ProcMemory> {
        self.procs.get(&pid)
    }

    /// Sum of resident bytes over all registered processes (an incrementally
    /// maintained counter; this runs on every allocation).
    pub fn total_resident(&self) -> u64 {
        self.resident_total
    }

    /// RAM not used by processes, the file cache, or the OS reserve.
    pub(crate) fn free_ram(&self) -> u64 {
        self.config
            .usable_ram()
            .saturating_sub(self.total_resident() + self.file_cache)
    }

    /// Marks a process as suspended or running for victim-selection purposes.
    pub(crate) fn set_suspended(&mut self, pid: Pid, suspended: bool) -> Result<(), OsError> {
        self.reindex(pid, |p| p.suspended = suspended)
    }

    /// Inserts bytes into the file cache (called when HDFS blocks are read);
    /// the cache only grows into otherwise-free RAM, so this never causes
    /// paging.
    pub(crate) fn populate_file_cache(&mut self, bytes: u64) {
        let room = self.free_ram();
        self.file_cache += bytes.min(room);
    }

    /// Orders eviction victims: suspended processes first (their pages are
    /// outside every working set), then stopped-but-not-suspended or idle
    /// processes by least-recent touch. The allocating process itself is
    /// excluded. Backed by the incrementally maintained ordered index — no
    /// per-reclaim sort of the process table.
    fn victim_order(&self, exclude: Pid) -> Vec<Pid> {
        self.lru
            .keys()
            .map(|&(_, _, pid)| pid)
            .filter(|pid| *pid != exclude && self.procs[pid].resident() > 0)
            .collect()
    }

    /// Evicts up to `target` bytes from `victim`, clean pages first, then
    /// dirty pages. Returns `(clean_dropped, dirty_paged_out)`.
    fn evict_from(&mut self, victim: Pid, target: u64) -> (u64, u64) {
        let pm = self
            .procs
            .get_mut(&victim)
            .expect("victim must be registered");
        let clean = pm.resident_clean.min(target);
        pm.resident_clean -= clean;
        pm.swapped += clean;
        let remaining = target - clean;
        let dirty = pm.resident_dirty.min(remaining);
        pm.resident_dirty -= dirty;
        pm.swapped += dirty;
        pm.total_paged_out += clean + dirty;
        self.resident_total -= clean + dirty;
        (clean, dirty)
    }

    /// Reclaims at least `needed` bytes of RAM for the benefit of `for_pid`.
    ///
    /// Reclaim order: file cache, then pages of other processes with
    /// suspended ones first, then — as a last resort — the requesting
    /// process thrashes against its own pages.
    fn reclaim(&mut self, for_pid: Pid, needed: u64) -> Result<MemoryCharge, OsError> {
        let mut charge = MemoryCharge::default();
        if needed == 0 {
            return Ok(charge);
        }
        self.stats.pressure_events += 1;
        let mut shortfall = needed;

        // 1. Reclaim file cache. With swappiness 0 the whole shortfall is taken
        //    from the cache if possible.
        let from_cache = shortfall.min(self.file_cache);
        self.file_cache -= from_cache;
        self.stats.cache_reclaimed_bytes += from_cache;
        charge.cache_reclaimed = from_cache;
        shortfall = shortfall.saturating_sub(from_cache);
        if shortfall == 0 {
            return Ok(charge);
        }

        // 2. Page out other processes' memory, suspended victims first. The
        //    kernel reclaims in clustered batches and overshoots the strict
        //    need under pressure (approximate LRU), hence the over-eviction
        //    factor scaled by how large the shortfall is relative to RAM.
        let pressure = shortfall as f64 / self.config.usable_ram().max(1) as f64;
        let mut to_reclaim = round_cluster(
            (shortfall as f64 * (1.0 + OVER_EVICTION_FACTOR * (1.0 + pressure))) as u64,
        );
        for victim in self.victim_order(for_pid) {
            if to_reclaim == 0 || shortfall == 0 {
                break;
            }
            let available = self.procs[&victim].resident();
            let take = available.min(to_reclaim);
            // Swap capacity check: clean pages do not consume new swap space in
            // real kernels if they are file-backed; we conservatively charge
            // everything against swap capacity. The block device additionally
            // counts whole blocks and droppable swap cache.
            let fits = match self.swapdev.as_ref() {
                Some(dev) => dev.can_back(victim, self.procs[&victim].swapped + take),
                None => self.swap_used + take <= self.config.swap_capacity,
            };
            if !fits {
                self.stats.oom_kills += 1;
                return Err(OsError::OutOfMemory);
            }
            let (clean, dirty) = self.evict_from(victim, take);
            if self.swapdev.is_some() {
                self.sync_backing(victim, false);
            } else {
                self.swap_used += clean + dirty;
            }
            self.stats.swap_out_bytes += dirty;
            charge.clean_dropped += clean;
            charge.dirty_paged_out += dirty;
            charge.victims.push((victim, clean + dirty));
            to_reclaim = to_reclaim.saturating_sub(take);
            shortfall = shortfall.saturating_sub(take);
        }
        if shortfall == 0 {
            return Ok(charge);
        }

        // 3. The requesting process's own working set does not fit: it will
        //    thrash, cycling `shortfall` bytes through swap.
        let fits = match self.swapdev.as_ref() {
            Some(dev) => {
                let own = self.procs.get(&for_pid).map_or(0, |p| p.swapped);
                dev.can_back(for_pid, own + shortfall)
            }
            None => self.swap_used + shortfall <= self.config.swap_capacity,
        };
        if !fits {
            self.stats.oom_kills += 1;
            return Err(OsError::OutOfMemory);
        }
        charge.self_thrash_bytes = shortfall;
        self.stats.swap_out_bytes += shortfall;
        self.stats.swap_in_bytes += shortfall;
        self.stats.thrash_events += 1;
        Ok(charge)
    }

    /// Allocates `bytes` of anonymous memory to `pid`; `dirty_fraction` of it
    /// is written immediately (the paper's memory-hungry tasks write random
    /// values to their whole allocation, making every page dirty).
    ///
    /// Returns the byte movements the allocation caused; the caller charges
    /// the corresponding stall time to the allocating process.
    pub(crate) fn allocate(
        &mut self,
        pid: Pid,
        bytes: u64,
        dirty_fraction: f64,
        now: SimTime,
    ) -> Result<MemoryCharge, OsError> {
        assert!((0.0..=1.0).contains(&dirty_fraction));
        if !self.procs.contains_key(&pid) {
            return Err(OsError::NoSuchProcess);
        }
        let shortfall = bytes.saturating_sub(self.free_ram());
        let charge = self.reclaim(pid, shortfall)?;
        let mut moved = 0;
        self.reindex(pid, |pm| {
            let dirty = (bytes as f64 * dirty_fraction) as u64;
            pm.resident_dirty += dirty;
            pm.resident_clean += bytes - dirty;
            pm.last_touch = now;
            // A thrashing allocation cannot keep everything resident: the
            // excess lives in swap and cycles in and out while the process
            // runs.
            let thrash = charge.self_thrash_bytes;
            if thrash > 0 {
                let from_dirty = pm.resident_dirty.min(thrash);
                pm.resident_dirty -= from_dirty;
                let from_clean = (thrash - from_dirty).min(pm.resident_clean);
                pm.resident_clean -= from_clean;
                moved = from_dirty + from_clean;
                pm.swapped += moved;
                pm.total_paged_out += moved;
            }
        })
        .expect("checked above");
        self.resident_total += bytes - moved;
        if self.swapdev.is_some() {
            self.sync_backing(pid, false);
        } else {
            self.swap_used += moved;
        }
        Ok(charge)
    }

    /// Removes a terminated process, freeing all its resident and swapped
    /// memory instantly (the kernel tears down the address space without any
    /// disk I/O).
    pub(crate) fn remove(&mut self, pid: Pid) -> Result<(), OsError> {
        let pm = self.procs.remove(&pid).ok_or(OsError::NoSuchProcess)?;
        self.lru.remove(&victim_key(&pm, pid));
        self.resident_total -= pm.resident();
        if let Some(dev) = self.swapdev.as_mut() {
            dev.remove(pid);
            self.swap_used = dev.allocated_bytes();
        } else {
            self.swap_used = self.swap_used.saturating_sub(pm.swapped);
        }
        Ok(())
    }

    /// Touches the whole address space of `pid` (as a resumed task does while
    /// it warms back up), faulting in everything that was swapped out.
    ///
    /// Returns the charge whose `paged_in` field is the number of bytes read
    /// back from the swap device; bringing them in may in turn evict memory of
    /// other (suspended) processes.
    pub(crate) fn page_in_all(&mut self, pid: Pid, now: SimTime) -> Result<MemoryCharge, OsError> {
        self.page_in_some(pid, u64::MAX, now)
    }

    /// Faults in at most `max_bytes` of `pid`'s swapped memory — the lazy
    /// resume path: only the configured prefetch window is read eagerly at
    /// `SIGCONT` time, everything else faults back in on touch.
    pub(crate) fn page_in_partial(
        &mut self,
        pid: Pid,
        max_bytes: u64,
        now: SimTime,
    ) -> Result<MemoryCharge, OsError> {
        self.page_in_some(pid, max_bytes, now)
    }

    fn page_in_some(
        &mut self,
        pid: Pid,
        limit: u64,
        now: SimTime,
    ) -> Result<MemoryCharge, OsError> {
        let swapped = self.procs.get(&pid).ok_or(OsError::NoSuchProcess)?.swapped;
        let goal = swapped.min(limit);
        if goal == 0 {
            self.reindex(pid, |pm| pm.last_touch = now)?;
            return Ok(MemoryCharge::default());
        }
        let shortfall = goal.saturating_sub(self.free_ram());
        let mut charge = self.reclaim(pid, shortfall)?;
        // If even evicting every other process cannot make room, part of the
        // address space has to stay in swap (the process will thrash).
        let stay_swapped = (swapped - goal) + charge.self_thrash_bytes.min(goal);
        let bring_in = swapped - stay_swapped;
        self.reindex(pid, |pm| {
            pm.swapped = stay_swapped;
            // Swapped-in pages come back clean (they are backed by their swap
            // slots until rewritten); a process that keeps writing will dirty
            // them again through subsequent allocations.
            pm.resident_clean += bring_in;
            pm.total_paged_in += bring_in;
            pm.last_touch = now;
        })
        .expect("checked above");
        self.resident_total += bring_in;
        if self.swapdev.is_some() {
            // Blocks that were just read stay allocated as swap cache until
            // capacity pressure or a cache trim sheds them.
            self.sync_backing(pid, true);
        } else {
            self.swap_used = self.swap_used.saturating_sub(bring_in);
        }
        self.stats.swap_in_bytes += bring_in;
        charge.paged_in = bring_in;
        Ok(charge)
    }

    /// Marks `pid`'s memory as recently used (it is actively computing).
    pub(crate) fn touch(&mut self, pid: Pid, now: SimTime) -> Result<(), OsError> {
        self.reindex(pid, |pm| pm.last_touch = now)
    }

    /// Chooses the process the OOM killer would sacrifice: the one with the
    /// largest virtual size, preferring suspended processes (smallest harm to
    /// the running workload).
    pub(crate) fn oom_victim(&self) -> Option<Pid> {
        self.procs
            .iter()
            .max_by_key(|(pid, pm)| (pm.suspended, pm.virtual_size(), std::cmp::Reverse(pid.0)))
            .map(|(pid, _)| *pid)
    }

    /// Verifies internal accounting invariants; used by property tests and
    /// debug assertions in the kernel.
    pub fn check_invariants(&self) -> Result<(), String> {
        let resident = self.total_resident();
        let recomputed: u64 = self.procs.values().map(|p| p.resident()).sum();
        if resident != recomputed {
            return Err(format!(
                "resident counter ({resident}) != recomputed sum ({recomputed})"
            ));
        }
        if self.lru.len() != self.procs.len() {
            return Err(format!(
                "victim index has {} entries for {} processes",
                self.lru.len(),
                self.procs.len()
            ));
        }
        if resident + self.file_cache > self.config.usable_ram() {
            return Err(format!(
                "resident ({resident}) + cache ({}) exceeds usable RAM ({})",
                self.file_cache,
                self.config.usable_ram()
            ));
        }
        for (pid, pm) in self.procs.iter() {
            if !self.lru.contains_key(&victim_key(pm, *pid)) {
                return Err(format!(
                    "victim index disagrees with last_touch/suspended of {pid:?}"
                ));
            }
        }
        match &self.swapdev {
            None => {
                let swapped: u64 = self.procs.values().map(|p| p.swapped).sum();
                if swapped != self.swap_used {
                    return Err(format!(
                        "per-process swapped sum ({swapped}) != swap_used ({})",
                        self.swap_used
                    ));
                }
            }
            Some(dev) => {
                dev.check_invariants();
                if self.swap_used != dev.allocated_bytes() {
                    return Err(format!(
                        "swap_used ({}) != device occupancy ({})",
                        self.swap_used,
                        dev.allocated_bytes()
                    ));
                }
                if !self.swap_used.is_multiple_of(dev.block_size()) {
                    return Err("device occupancy not block-aligned".into());
                }
                let bs = dev.block_size();
                for (pid, pm) in self.procs.iter() {
                    if u64::from(dev.active_blocks_of(*pid)) != pm.swapped.div_ceil(bs) {
                        return Err(format!(
                            "{pid:?}: active blocks != ceil(swapped / block_size)"
                        ));
                    }
                    if u64::from(dev.cached_blocks_of(*pid)) > pm.resident_clean.div_ceil(bs) {
                        return Err(format!("{pid:?}: swap cache exceeds resident clean"));
                    }
                }
            }
        }
        if self.swap_used > self.config.swap_capacity {
            return Err("swap used exceeds swap capacity".into());
        }
        Ok(())
    }

    /// The current eviction order over all registered processes: suspended
    /// first, then least-recently touched, pid as the tiebreaker. Exposed so
    /// the differential tests can compare victim order across models.
    pub fn victim_order_snapshot(&self) -> Vec<Pid> {
        self.lru.keys().map(|&(_, _, pid)| pid).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MemoryManager {
        /// Current file-cache size in bytes.
        pub(crate) fn file_cache(&self) -> u64 {
            self.file_cache
        }
    }

    fn mgr() -> MemoryManager {
        MemoryManager::new(MemoryConfig::default())
    }

    #[test]
    fn allocation_within_free_ram_is_free() {
        let mut m = mgr();
        m.register(Pid(1), SimTime::ZERO);
        let charge = m.allocate(Pid(1), GIB, 1.0, SimTime::ZERO).unwrap();
        assert_eq!(
            (charge.swap_write_bytes(), charge.swap_read_bytes()),
            (0, 0)
        );
        assert_eq!(m.process(Pid(1)).unwrap().resident_dirty, GIB);
        assert_eq!(m.swap_used(), 0);
        m.check_invariants().unwrap();
    }

    #[test]
    fn file_cache_reclaimed_before_anonymous_memory() {
        let mut m = mgr();
        m.register(Pid(1), SimTime::ZERO);
        m.register(Pid(2), SimTime::ZERO);
        m.allocate(Pid(1), GIB, 1.0, SimTime::ZERO).unwrap();
        m.populate_file_cache(2 * GIB);
        assert!(m.file_cache() > GIB);
        // Allocating 2 GiB now exceeds free RAM but the cache absorbs it.
        let charge = m
            .allocate(Pid(2), 2 * GIB, 1.0, SimTime::from_secs(1))
            .unwrap();
        assert!(charge.cache_reclaimed > 0);
        assert_eq!(
            charge.dirty_paged_out, 0,
            "no anonymous paging while cache is available"
        );
        m.check_invariants().unwrap();
    }

    #[test]
    fn suspended_process_is_paged_out_first() {
        let mut m = mgr();
        m.register(Pid(1), SimTime::ZERO);
        m.register(Pid(2), SimTime::from_secs(1));
        m.register(Pid(3), SimTime::from_secs(2));
        m.allocate(Pid(1), GIB, 1.0, SimTime::ZERO).unwrap();
        m.allocate(Pid(2), GIB, 1.0, SimTime::from_secs(1)).unwrap();
        m.set_suspended(Pid(2), true).unwrap();
        // Node has 4 GiB - 0.6 reserve = ~3.4 usable; 2 GiB used; allocating
        // 2 GiB more must evict ~0.6 GiB and the victim must be pid 2.
        let charge = m
            .allocate(Pid(3), 2 * GIB, 1.0, SimTime::from_secs(2))
            .unwrap();
        assert!(charge.dirty_paged_out > 0);
        assert_eq!(charge.victims.len(), 1);
        assert_eq!(charge.victims[0].0, Pid(2));
        assert!(m.process(Pid(2)).unwrap().swapped > 0);
        assert_eq!(m.process(Pid(1)).unwrap().swapped, 0);
        m.check_invariants().unwrap();
    }

    #[test]
    fn lru_breaks_ties_between_running_victims() {
        let mut m = mgr();
        m.register(Pid(1), SimTime::ZERO);
        m.register(Pid(2), SimTime::ZERO);
        m.register(Pid(3), SimTime::ZERO);
        m.allocate(Pid(1), GIB, 1.0, SimTime::from_secs(1)).unwrap();
        m.allocate(Pid(2), GIB, 1.0, SimTime::from_secs(5)).unwrap();
        // pid 1 touched longest ago: it is the first victim.
        let charge = m
            .allocate(Pid(3), 2 * GIB, 1.0, SimTime::from_secs(6))
            .unwrap();
        assert_eq!(charge.victims[0].0, Pid(1));
    }

    #[test]
    fn clean_pages_are_dropped_without_swap_writes() {
        let mut m = mgr();
        m.register(Pid(1), SimTime::ZERO);
        m.register(Pid(2), SimTime::ZERO);
        // 1 GiB fully clean (e.g. mapped code/readonly data).
        m.allocate(Pid(1), GIB, 0.0, SimTime::ZERO).unwrap();
        m.set_suspended(Pid(1), true).unwrap();
        let charge = m
            .allocate(Pid(2), 3 * GIB, 1.0, SimTime::from_secs(1))
            .unwrap();
        assert!(charge.clean_dropped > 0);
        assert_eq!(charge.dirty_paged_out, 0);
        m.check_invariants().unwrap();
    }

    #[test]
    fn over_eviction_makes_swap_grow_superlinearly() {
        // Paging out for a small shortfall vs a large shortfall: the ratio of
        // swapped bytes should exceed the ratio of shortfalls.
        let run = |alloc: u64| -> u64 {
            let mut m = mgr();
            m.register(Pid(1), SimTime::ZERO);
            m.register(Pid(2), SimTime::ZERO);
            m.allocate(Pid(1), 2 * GIB + 512 * MIB, 1.0, SimTime::ZERO)
                .unwrap();
            m.set_suspended(Pid(1), true).unwrap();
            m.allocate(Pid(2), alloc, 1.0, SimTime::from_secs(1))
                .unwrap();
            m.process(Pid(1)).unwrap().total_paged_out
        };
        let small = run(GIB);
        let large = run(2 * GIB);
        assert!(small > 0);
        let shortfall_ratio = 2.0; // the second allocation's shortfall is ~2x... (approximately)
        let swap_ratio = large as f64 / small as f64;
        assert!(
            swap_ratio > shortfall_ratio * 0.9,
            "swapped bytes should grow at least roughly linearly: {swap_ratio}"
        );
    }

    #[test]
    fn page_in_restores_resident_memory() {
        let mut m = mgr();
        m.register(Pid(1), SimTime::ZERO);
        m.register(Pid(2), SimTime::ZERO);
        m.allocate(Pid(1), 2 * GIB, 1.0, SimTime::ZERO).unwrap();
        m.set_suspended(Pid(1), true).unwrap();
        m.allocate(Pid(2), 2 * GIB, 1.0, SimTime::from_secs(1))
            .unwrap();
        let swapped_before = m.process(Pid(1)).unwrap().swapped;
        assert!(swapped_before > 0);
        // pid 2 finishes and its memory is freed; pid 1 resumes.
        m.remove(Pid(2)).unwrap();
        m.set_suspended(Pid(1), false).unwrap();
        let charge = m.page_in_all(Pid(1), SimTime::from_secs(100)).unwrap();
        assert_eq!(charge.paged_in, swapped_before);
        let pm = m.process(Pid(1)).unwrap();
        assert_eq!(pm.swapped, 0);
        assert_eq!(pm.virtual_size(), 2 * GIB);
        assert_eq!(m.swap_used(), 0);
        m.check_invariants().unwrap();
    }

    #[test]
    fn page_in_with_no_swapped_bytes_is_free() {
        let mut m = mgr();
        m.register(Pid(1), SimTime::ZERO);
        m.allocate(Pid(1), GIB, 1.0, SimTime::ZERO).unwrap();
        let charge = m.page_in_all(Pid(1), SimTime::from_secs(1)).unwrap();
        assert_eq!(
            (charge.swap_write_bytes(), charge.swap_read_bytes()),
            (0, 0)
        );
    }

    #[test]
    fn remove_frees_memory() {
        let mut m = mgr();
        m.register(Pid(1), SimTime::ZERO);
        m.allocate(Pid(1), GIB, 1.0, SimTime::ZERO).unwrap();
        assert_eq!(m.process(Pid(1)).unwrap().resident(), GIB);
        m.remove(Pid(1)).unwrap();
        assert!(m.process(Pid(1)).is_none());
        assert_eq!(m.total_resident(), 0);
    }

    #[test]
    fn swap_exhaustion_is_oom() {
        let cfg = MemoryConfig {
            total_ram: 2 * GIB + 344 * MIB,
            swap_capacity: 256 * MIB,
            ..MemoryConfig::default()
        };
        let mut m = MemoryManager::new(cfg);
        m.register(Pid(1), SimTime::ZERO);
        m.register(Pid(2), SimTime::ZERO);
        m.allocate(Pid(1), GIB + 512 * MIB, 1.0, SimTime::ZERO)
            .unwrap();
        m.set_suspended(Pid(1), true).unwrap();
        let err = m
            .allocate(Pid(2), GIB + 512 * MIB, 1.0, SimTime::from_secs(1))
            .unwrap_err();
        assert_eq!(err, OsError::OutOfMemory);
        assert_eq!(m.stats().oom_kills, 1);
        assert!(m.oom_victim().is_some());
    }

    #[test]
    fn thrashing_when_working_set_exceeds_ram() {
        let mut m = mgr();
        m.register(Pid(1), SimTime::ZERO);
        // A single process asking for more than usable RAM must thrash.
        let charge = m.allocate(Pid(1), 5 * GIB, 1.0, SimTime::ZERO).unwrap();
        assert!(charge.self_thrash_bytes > 0);
        assert!(charge.swap_read_bytes() > 0 && charge.swap_write_bytes() > 0);
    }

    #[test]
    fn unknown_pid_is_an_error() {
        let mut m = mgr();
        assert_eq!(
            m.allocate(Pid(9), 1, 1.0, SimTime::ZERO).unwrap_err(),
            OsError::NoSuchProcess
        );
        assert_eq!(
            m.page_in_all(Pid(9), SimTime::ZERO).unwrap_err(),
            OsError::NoSuchProcess
        );
        assert_eq!(m.remove(Pid(9)).unwrap_err(), OsError::NoSuchProcess);
        assert_eq!(
            m.set_suspended(Pid(9), true).unwrap_err(),
            OsError::NoSuchProcess
        );
        assert_eq!(
            m.touch(Pid(9), SimTime::ZERO).unwrap_err(),
            OsError::NoSuchProcess
        );
    }
}
