//! A naive reference implementation of the memory path, for differential
//! testing.
//!
//! [`ReferenceMemoryModel`] re-implements the semantics of
//! [`MemoryManager`](crate::MemoryManager) (and, when enabled, the
//! block-granular [`SwapDevice`](crate::SwapDevice)) with the dumbest data
//! structures that can express them: an unsorted process vector scanned and
//! fully re-sorted on every victim selection, byte totals recomputed from
//! scratch on every query, and the swap area as one `Vec<Option<(Pid,
//! cached)>>` slot per block. No LRU index, no incremental counters — every
//! derived value is an O(n) scan, so any bookkeeping bug in the fast model's
//! indexes shows up as a divergence. The fast device keeps only per-process
//! block counts; this slot-per-block model is the oracle for them, and its
//! slot choices never reach an output.
//!
//! The randomized differential test in this module drives both models
//! through thousands of seeded allocate / touch / suspend / resume /
//! remove / page-in / OOM steps and asserts identical charges, errors,
//! victim order, per-process accounting, per-process active and cached
//! block counts and statistics after every step — the same methodology as
//! the reference event queue.

use crate::memory::{
    MemoryCharge, MemoryConfig, MemoryStats, ProcMemory, OVER_EVICTION_FACTOR, PAGE_CLUSTER_BYTES,
};
use crate::process::Pid;
use crate::signal::OsError;

use mrp_sim::SimTime;

/// One swap block in the naive device: free, or owned by a pid with a
/// cached flag (`true` = the content is also resident in RAM).
type Slot = Option<(Pid, bool)>;

/// The naive O(n) re-implementation of the memory manager. See the
/// module docs.
#[derive(Clone, Debug)]
pub(crate) struct ReferenceMemoryModel {
    config: MemoryConfig,
    /// Insertion-ordered process table; every lookup is a linear scan.
    procs: Vec<(Pid, ProcMemory)>,
    file_cache: u64,
    stats: MemoryStats,
    /// One slot per swap block, present iff the device model is enabled.
    blocks: Option<Vec<Slot>>,
    cache_reactivated: u64,
    cache_dropped: u64,
}

impl ReferenceMemoryModel {
    /// Creates the reference model for the given configuration.
    pub(crate) fn new(config: MemoryConfig) -> Self {
        let blocks = config.swap.enabled.then(|| {
            let n = config.swap_capacity / config.swap.block_size;
            vec![None; usize::try_from(n).expect("swap area fits in usize")]
        });
        ReferenceMemoryModel {
            config,
            procs: Vec::new(),
            file_cache: 0,
            stats: MemoryStats::default(),
            blocks,
            cache_reactivated: 0,
            cache_dropped: 0,
        }
    }

    fn find(&self, pid: Pid) -> Option<usize> {
        self.procs.iter().position(|(p, _)| *p == pid)
    }

    fn pm(&self, pid: Pid) -> Option<&ProcMemory> {
        self.procs.iter().find(|(p, _)| *p == pid).map(|(_, pm)| pm)
    }

    /// Per-process memory view.
    pub(crate) fn process(&self, pid: Pid) -> Option<&ProcMemory> {
        self.pm(pid)
    }

    /// Node-wide statistics.
    pub(crate) fn stats(&self) -> &MemoryStats {
        &self.stats
    }

    /// Current file-cache size.
    pub(crate) fn file_cache(&self) -> u64 {
        self.file_cache
    }

    /// Blocks ever re-activated from the swap cache (device model only).
    pub(crate) fn cache_reactivated_blocks(&self) -> u64 {
        self.cache_reactivated
    }

    /// Cached blocks ever dropped for new swap-outs (device model only).
    pub(crate) fn cache_dropped_blocks(&self) -> u64 {
        self.cache_dropped
    }

    /// Total resident bytes, recomputed by scanning every process.
    pub(crate) fn total_resident(&self) -> u64 {
        self.procs.iter().map(|(_, pm)| pm.resident()).sum()
    }

    /// Swap occupancy: the block count when the device is on, the byte sum
    /// otherwise — recomputed from scratch on every call.
    pub(crate) fn swap_used(&self) -> u64 {
        match &self.blocks {
            Some(blocks) => {
                blocks.iter().filter(|s| s.is_some()).count() as u64 * self.config.swap.block_size
            }
            None => self.procs.iter().map(|(_, pm)| pm.swapped).sum(),
        }
    }

    /// Free RAM, recomputed from scratch.
    pub(crate) fn free_ram(&self) -> u64 {
        self.config
            .usable_ram()
            .saturating_sub(self.total_resident() + self.file_cache)
    }

    fn blocks_for(&self, bytes: u64) -> usize {
        usize::try_from(bytes.div_ceil(self.config.swap.block_size)).expect("fits")
    }

    fn count_blocks(&self, pid: Pid, cached: bool) -> usize {
        self.blocks.as_ref().map_or(0, |b| {
            b.iter()
                .flatten()
                .filter(|s| s.0 == pid && s.1 == cached)
                .count()
        })
    }

    fn cached_total(&self) -> usize {
        self.blocks
            .as_ref()
            .map_or(0, |b| b.iter().flatten().filter(|s| s.1).count())
    }

    fn free_blocks(&self) -> usize {
        self.blocks
            .as_ref()
            .map_or(0, |b| b.iter().filter(|s| s.is_none()).count())
    }

    fn can_back(&self, pid: Pid, swapped_bytes: u64) -> bool {
        let want = self.blocks_for(swapped_bytes);
        let have = self.count_blocks(pid, false);
        want.saturating_sub(have) <= self.free_blocks() + self.cached_total()
    }

    /// Mirrors `SwapDevice::set_backing` + `trim_cache`: grow from own cache
    /// first, then free blocks, then by dropping the lowest-pid cached
    /// block; shrink into the cache (page-in) or the free list (release),
    /// then cap the cache at what `resident_clean` can mirror.
    fn sync_backing(&mut self, pid: Pid, to_cache: bool) {
        if self.blocks.is_none() {
            return;
        }
        let (swapped, clean) = match self.pm(pid) {
            Some(pm) => (pm.swapped, pm.resident_clean),
            None => (0, 0),
        };
        let want = self.blocks_for(swapped);
        while self.count_blocks(pid, false) < want {
            let blocks = self.blocks.as_mut().expect("checked");
            if let Some(slot) = blocks.iter_mut().find(|s| **s == Some((pid, true))) {
                *slot = Some((pid, false));
                self.cache_reactivated += 1;
            } else if let Some(slot) = blocks.iter_mut().find(|s| s.is_none()) {
                *slot = Some((pid, false));
            } else {
                let victim = blocks
                    .iter()
                    .flatten()
                    .filter(|s| s.1)
                    .map(|s| s.0)
                    .min()
                    .expect("capacity pre-checked: a cached block must exist");
                let slot = blocks
                    .iter_mut()
                    .rev()
                    .find(|s| **s == Some((victim, true)))
                    .expect("found above");
                *slot = Some((pid, false));
                self.cache_dropped += 1;
            }
        }
        while self.count_blocks(pid, false) > want {
            let blocks = self.blocks.as_mut().expect("checked");
            let slot = blocks
                .iter_mut()
                .rev()
                .find(|s| **s == Some((pid, false)))
                .expect("count checked");
            *slot = if to_cache { Some((pid, true)) } else { None };
        }
        let cap = self.blocks_for(clean);
        while self.count_blocks(pid, true) > cap {
            let blocks = self.blocks.as_mut().expect("checked");
            let slot = blocks
                .iter_mut()
                .rev()
                .find(|s| **s == Some((pid, true)))
                .expect("count checked");
            *slot = None;
            self.cache_dropped += 1;
        }
    }

    fn drop_backing(&mut self, pid: Pid) {
        if let Some(blocks) = self.blocks.as_mut() {
            for slot in blocks.iter_mut() {
                if matches!(slot, Some((p, _)) if *p == pid) {
                    *slot = None;
                }
            }
        }
    }

    /// Registers (or re-registers) a process.
    pub(crate) fn register(&mut self, pid: Pid, now: SimTime) {
        self.drop_backing(pid);
        let pm = ProcMemory {
            last_touch: now,
            ..ProcMemory::default()
        };
        match self.find(pid) {
            Some(i) => self.procs[i].1 = pm,
            None => self.procs.push((pid, pm)),
        }
    }

    /// Marks a process suspended / resumed.
    pub(crate) fn set_suspended(&mut self, pid: Pid, suspended: bool) -> Result<(), OsError> {
        let i = self.find(pid).ok_or(OsError::NoSuchProcess)?;
        self.procs[i].1.suspended = suspended;
        Ok(())
    }

    /// Grows the file cache into free RAM only.
    pub(crate) fn populate_file_cache(&mut self, bytes: u64) {
        let room = self.free_ram();
        self.file_cache += bytes.min(room);
    }

    /// Refreshes a process's `last_touch` stamp.
    pub(crate) fn touch(&mut self, pid: Pid, now: SimTime) -> Result<(), OsError> {
        let i = self.find(pid).ok_or(OsError::NoSuchProcess)?;
        self.procs[i].1.last_touch = now;
        Ok(())
    }

    /// Victim order, rebuilt by fully sorting the process table every call.
    pub(crate) fn victim_order_snapshot(&self) -> Vec<Pid> {
        let mut keyed: Vec<_> = self
            .procs
            .iter()
            .map(|(pid, pm)| ((u8::from(!pm.suspended), pm.last_touch, *pid), *pid))
            .collect();
        keyed.sort();
        keyed.into_iter().map(|(_, pid)| pid).collect()
    }

    fn reclaim(&mut self, for_pid: Pid, needed: u64) -> Result<MemoryCharge, OsError> {
        let mut charge = MemoryCharge::default();
        if needed == 0 {
            return Ok(charge);
        }
        self.stats.pressure_events += 1;
        let mut shortfall = needed;

        let from_cache = shortfall.min(self.file_cache);
        self.file_cache -= from_cache;
        self.stats.cache_reclaimed_bytes += from_cache;
        charge.cache_reclaimed = from_cache;
        shortfall = shortfall.saturating_sub(from_cache);
        if shortfall == 0 {
            return Ok(charge);
        }

        let pressure = shortfall as f64 / self.config.usable_ram().max(1) as f64;
        let target = (shortfall as f64 * (1.0 + OVER_EVICTION_FACTOR * (1.0 + pressure))) as u64;
        let mut to_reclaim = target.div_ceil(PAGE_CLUSTER_BYTES) * PAGE_CLUSTER_BYTES;
        let victims: Vec<Pid> = self
            .victim_order_snapshot()
            .into_iter()
            .filter(|pid| *pid != for_pid && self.pm(*pid).unwrap().resident() > 0)
            .collect();
        for victim in victims {
            if to_reclaim == 0 || shortfall == 0 {
                break;
            }
            let available = self.pm(victim).unwrap().resident();
            let take = available.min(to_reclaim);
            let fits = match &self.blocks {
                Some(_) => self.can_back(victim, self.pm(victim).unwrap().swapped + take),
                None => self.swap_used() + take <= self.config.swap_capacity,
            };
            if !fits {
                self.stats.oom_kills += 1;
                return Err(OsError::OutOfMemory);
            }
            let i = self.find(victim).expect("victim scanned above");
            let pm = &mut self.procs[i].1;
            let clean = pm.resident_clean.min(take);
            pm.resident_clean -= clean;
            pm.swapped += clean;
            let dirty = pm.resident_dirty.min(take - clean);
            pm.resident_dirty -= dirty;
            pm.swapped += dirty;
            pm.total_paged_out += clean + dirty;
            self.sync_backing(victim, false);
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

        let fits = match &self.blocks {
            Some(_) => {
                let own = self.pm(for_pid).map_or(0, |p| p.swapped);
                self.can_back(for_pid, own + shortfall)
            }
            None => self.swap_used() + shortfall <= self.config.swap_capacity,
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

    /// Mirrors [`MemoryManager::allocate`](crate::MemoryManager::allocate).
    pub(crate) fn allocate(
        &mut self,
        pid: Pid,
        bytes: u64,
        dirty_fraction: f64,
        now: SimTime,
    ) -> Result<MemoryCharge, OsError> {
        if self.find(pid).is_none() {
            return Err(OsError::NoSuchProcess);
        }
        let shortfall = bytes.saturating_sub(self.free_ram());
        let charge = self.reclaim(pid, shortfall)?;
        let i = self.find(pid).expect("checked above");
        let pm = &mut self.procs[i].1;
        let dirty = (bytes as f64 * dirty_fraction) as u64;
        pm.resident_dirty += dirty;
        pm.resident_clean += bytes - dirty;
        pm.last_touch = now;
        let thrash = charge.self_thrash_bytes;
        if thrash > 0 {
            let from_dirty = pm.resident_dirty.min(thrash);
            pm.resident_dirty -= from_dirty;
            let from_clean = (thrash - from_dirty).min(pm.resident_clean);
            pm.resident_clean -= from_clean;
            let moved = from_dirty + from_clean;
            pm.swapped += moved;
            pm.total_paged_out += moved;
        }
        self.sync_backing(pid, false);
        Ok(charge)
    }

    /// Mirrors [`MemoryManager::remove`](crate::MemoryManager::remove).
    pub(crate) fn remove(&mut self, pid: Pid) -> Result<(), OsError> {
        let i = self.find(pid).ok_or(OsError::NoSuchProcess)?;
        self.procs.remove(i);
        self.drop_backing(pid);
        Ok(())
    }

    /// Mirrors [`MemoryManager::page_in_all`](crate::MemoryManager::page_in_all).
    pub(crate) fn page_in_all(&mut self, pid: Pid, now: SimTime) -> Result<MemoryCharge, OsError> {
        self.page_in_some(pid, u64::MAX, now)
    }

    /// Mirrors
    /// [`MemoryManager::page_in_partial`](crate::MemoryManager::page_in_partial).
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
        let swapped = self.pm(pid).ok_or(OsError::NoSuchProcess)?.swapped;
        let goal = swapped.min(limit);
        if goal == 0 {
            self.touch(pid, now)?;
            return Ok(MemoryCharge::default());
        }
        let shortfall = goal.saturating_sub(self.free_ram());
        let mut charge = self.reclaim(pid, shortfall)?;
        let stay_swapped = (swapped - goal) + charge.self_thrash_bytes.min(goal);
        let bring_in = swapped - stay_swapped;
        let i = self.find(pid).expect("checked above");
        let pm = &mut self.procs[i].1;
        pm.swapped = stay_swapped;
        pm.resident_clean += bring_in;
        pm.total_paged_in += bring_in;
        pm.last_touch = now;
        self.sync_backing(pid, true);
        self.stats.swap_in_bytes += bring_in;
        charge.paged_in = bring_in;
        Ok(charge)
    }

    /// Mirrors [`MemoryManager::oom_victim`](crate::MemoryManager::oom_victim).
    pub(crate) fn oom_victim(&self) -> Option<Pid> {
        self.procs
            .iter()
            .max_by_key(|(pid, pm)| (pm.suspended, pm.virtual_size(), std::cmp::Reverse(pid.0)))
            .map(|(pid, _)| *pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryManager;
    use crate::swapdev::SwapConfig;
    use mrp_sim::{SimDuration, SimRng, GIB, MIB};

    /// Drives the fast model and the reference through the same seeded step
    /// sequence, comparing every output after every step.
    fn differential_case(seed: u64, swap: SwapConfig, steps: usize) {
        let config = MemoryConfig {
            total_ram: 2 * GIB + 344 * MIB,
            // Small swap so OOM paths are exercised; an odd size leaves a
            // partial trailing block when the device is on.
            swap_capacity: GIB + 3 * MIB,
            swap,
        };
        let mut fast = MemoryManager::new(config.clone());
        let mut reference = ReferenceMemoryModel::new(config);
        let mut rng = SimRng::new(seed);
        let mut pids: Vec<Pid> = Vec::new();
        let mut next_pid = 1u32;
        let mut now = SimTime::ZERO;

        for step in 0..steps {
            now += SimDuration::from_millis(1 + rng.index(5_000) as u64);
            let ctx = format!("seed {seed:#x} step {step}");
            let pick = pids.get(rng.index(pids.len().max(1))).copied();
            match rng.index(12) {
                0 | 1 => {
                    let pid = Pid(next_pid);
                    next_pid += 1;
                    pids.push(pid);
                    fast.register(pid, now);
                    reference.register(pid, now);
                }
                2..=5 => {
                    if let Some(pid) = pick {
                        let bytes = (1 + rng.index(600)) as u64 * MIB;
                        let dirty = [0.0, 0.3, 1.0][rng.index(3)];
                        let f = fast.allocate(pid, bytes, dirty, now);
                        let r = reference.allocate(pid, bytes, dirty, now);
                        assert_eq!(f, r, "{ctx}: allocate({bytes}, {dirty})");
                    }
                }
                6 => {
                    if let Some(pid) = pick {
                        assert_eq!(fast.remove(pid), reference.remove(pid), "{ctx}: remove");
                        pids.retain(|p| *p != pid);
                    }
                }
                7 => {
                    if let Some(pid) = pick {
                        let suspended = rng.chance(0.5);
                        assert_eq!(
                            fast.set_suspended(pid, suspended),
                            reference.set_suspended(pid, suspended),
                            "{ctx}: set_suspended"
                        );
                    }
                }
                8 => {
                    if let Some(pid) = pick {
                        assert_eq!(fast.touch(pid, now), reference.touch(pid, now), "{ctx}");
                    }
                }
                9 => {
                    if let Some(pid) = pick {
                        assert_eq!(
                            fast.page_in_all(pid, now),
                            reference.page_in_all(pid, now),
                            "{ctx}: page_in_all"
                        );
                    }
                }
                10 => {
                    if let Some(pid) = pick {
                        let limit = rng.index(512) as u64 * MIB;
                        assert_eq!(
                            fast.page_in_partial(pid, limit, now),
                            reference.page_in_partial(pid, limit, now),
                            "{ctx}: page_in_partial({limit})"
                        );
                    }
                }
                _ => {
                    let bytes = rng.index(1024) as u64 * MIB;
                    fast.populate_file_cache(bytes);
                    reference.populate_file_cache(bytes);
                }
            }

            // Every derived quantity must agree after every step.
            assert_eq!(fast.free_ram(), reference.free_ram(), "{ctx}: free_ram");
            assert_eq!(fast.swap_used(), reference.swap_used(), "{ctx}: swap_used");
            assert_eq!(
                fast.file_cache(),
                reference.file_cache(),
                "{ctx}: file_cache"
            );
            assert_eq!(fast.stats(), reference.stats(), "{ctx}: stats");
            assert_eq!(
                fast.victim_order_snapshot(),
                reference.victim_order_snapshot(),
                "{ctx}: victim order"
            );
            assert_eq!(fast.oom_victim(), reference.oom_victim(), "{ctx}: oom");
            for pid in &pids {
                let f = fast.process(*pid);
                let r = reference.process(*pid);
                assert_eq!(f, r, "{ctx}: ProcMemory of {pid:?}");
                if let Some(pm) = f {
                    assert_eq!(
                        pm.resident() + pm.swapped,
                        pm.virtual_size(),
                        "{ctx}: virtual size identity"
                    );
                }
            }
            if let Some(dev) = fast.swap_device() {
                assert_eq!(
                    u64::from(dev.cached_blocks()),
                    reference.cached_total() as u64,
                    "{ctx}: cached blocks"
                );
                let slots = reference.blocks.as_ref().map_or(0, Vec::len);
                assert_eq!(
                    dev.allocated_blocks() as usize,
                    slots - reference.free_blocks(),
                    "{ctx}: allocated blocks"
                );
                // Live pids only: with the totals equal, what removed pids
                // hold (nothing, in the reference) agrees too.
                for &pid in &pids {
                    assert_eq!(
                        dev.active_blocks_of(pid) as usize,
                        reference.count_blocks(pid, false),
                        "{ctx}: active blocks of {pid:?}"
                    );
                    assert_eq!(
                        dev.cached_blocks_of(pid) as usize,
                        reference.count_blocks(pid, true),
                        "{ctx}: cached blocks of {pid:?}"
                    );
                }
                assert_eq!(
                    dev.stats().cache_reactivated_blocks,
                    reference.cache_reactivated_blocks(),
                    "{ctx}: reactivations"
                );
                assert_eq!(
                    dev.stats().cache_dropped_blocks,
                    reference.cache_dropped_blocks(),
                    "{ctx}: cache drops"
                );
            }
            fast.check_invariants()
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        }
    }

    /// The headline differential test: 6 seeded cases x 1,200 steps each
    /// (7,200 steps total), half with the legacy byte-granular accounting
    /// and half with the block device enabled.
    #[test]
    fn differential_fast_model_vs_naive_reference() {
        for case in 0..6u64 {
            let swap = if case % 2 == 0 {
                SwapConfig::default()
            } else {
                SwapConfig::enabled()
            };
            differential_case(0x5EED_0000 + case, swap, 1_200);
        }
    }

    /// Small block sizes hit block-rounding corners (many blocks per op).
    #[test]
    fn differential_with_small_blocks() {
        let swap = SwapConfig {
            block_size: 256 * 1024,
            ..SwapConfig::enabled()
        };
        differential_case(0xB10C_5EED, swap, 400);
    }

    /// A wider sweep: 6 more seeds at each of two small block sizes, 256 KiB
    /// and an odd 384 KiB (6,000 steps). The naive reference makes this
    /// take minutes unoptimized, so it runs in release builds only
    /// (`cargo test --release -p mrp-simos differential`).
    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow unoptimized; run with --release")]
    fn differential_seed_sweep_small_blocks() {
        for block_size in [256 * 1024, 384 * 1024] {
            for case in 0..6u64 {
                let swap = SwapConfig {
                    block_size,
                    ..SwapConfig::enabled()
                };
                differential_case(0x5EEB_0000 + case, swap, 500);
            }
        }
    }
}
