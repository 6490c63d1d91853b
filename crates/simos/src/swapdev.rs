//! Block-granular swap-device model.
//!
//! [`SwapDevice`] models the swap area as a number of fixed-size blocks. It
//! keeps, per process, how many blocks back swapped-out bytes (*active*)
//! and how many are swap cache (*cached*: content also resident in RAM),
//! the device-wide totals of both, and KernelX-style swap-in/swap-out
//! timing counters. The device is an *occupancy* model layered under
//! [`crate::MemoryManager`]: byte-exact charge accounting stays in the
//! manager, while the device answers block-granular capacity questions
//! (each process's swapped bytes round up to whole blocks, so swap fills
//! earlier than the byte total suggests), retains freed backing store as
//! reclaimable swap cache after page-ins, and records the I/O counters the
//! benches report.
//!
//! Nothing reads which block holds which page, so the device keeps counts,
//! not a block map: every operation is O(1) except dropping other
//! processes' cache, which walks them in pid order. The differential tests
//! in `refmodel.rs` hold these counts to a slot-per-block reference model.
//!
//! Everything is gated behind [`SwapConfig::enabled`], which defaults to
//! `false` so every pre-existing fixed-seed pin stays byte-identical.

use crate::process::Pid;
use crate::signal::OsError;
use mrp_sim::{SimDuration, VecMap, MIB};
use serde::{Deserialize, Serialize};

/// Fraction of swapped bytes paged in eagerly on a lazy resume.
pub(crate) const RESUME_PREFETCH: f64 = 0.25;

/// Knobs of the block-granular swap-device model. Default-off.
///
/// ```
/// use mrp_simos::SwapConfig;
///
/// // The default configuration leaves the device off: the memory manager
/// // keeps its legacy byte-granular accounting, bit for bit.
/// let off = SwapConfig::default();
/// assert!(!off.enabled);
/// assert!(off.validate().is_ok());
///
/// // `enabled()` switches block-granular swap accounting on with eager
/// // resume (the whole working set pages back in at SIGCONT time).
/// let eager = SwapConfig::enabled();
/// assert!(eager.enabled && !eager.lazy_resume);
///
/// // `lazy()` additionally makes resume lazy: only `RESUME_PREFETCH` (a
/// // quarter) of the swapped bytes page in up front, the rest faults back
/// // in on touch.
/// let lazy = SwapConfig::lazy();
/// assert!(lazy.enabled && lazy.lazy_resume);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SwapConfig {
    /// Master switch. `false` (the default) keeps the legacy byte-granular
    /// swap accounting and leaves every existing pinned trace untouched.
    pub enabled: bool,
    /// Size of one swap block in bytes. Occupancy is charged in whole
    /// blocks, so a process with 1 byte swapped holds a full block.
    pub block_size: u64,
    /// When `true`, a resumed process pages in only `RESUME_PREFETCH` (a
    /// quarter) of its swapped bytes at SIGCONT time; the remainder faults
    /// back in on touch (and at the latest when the task finalizes and
    /// re-reads its state).
    pub lazy_resume: bool,
}

impl Default for SwapConfig {
    fn default() -> Self {
        SwapConfig {
            enabled: false,
            block_size: MIB,
            lazy_resume: false,
        }
    }
}

impl SwapConfig {
    /// Block-granular swap accounting on, resume still eager.
    ///
    /// ```
    /// use mrp_simos::SwapConfig;
    /// assert!(SwapConfig::enabled().validate().is_ok());
    /// ```
    pub fn enabled() -> Self {
        SwapConfig {
            enabled: true,
            ..SwapConfig::default()
        }
    }

    /// Block-granular swap accounting on with lazy (fault-on-touch) resume.
    ///
    /// ```
    /// use mrp_simos::SwapConfig;
    /// let cfg = SwapConfig::lazy();
    /// assert!(cfg.enabled && cfg.lazy_resume);
    /// ```
    pub fn lazy() -> Self {
        SwapConfig {
            lazy_resume: true,
            ..SwapConfig::enabled()
        }
    }

    /// Checks the knobs for consistency. Always `Ok` while disabled.
    ///
    /// ```
    /// use mrp_simos::SwapConfig;
    /// let mut cfg = SwapConfig::lazy();
    /// cfg.block_size = 0;
    /// assert!(cfg.validate().is_err());
    /// cfg.enabled = false; // disabled configs are never rejected
    /// assert!(cfg.validate().is_ok());
    /// ```
    pub fn validate(&self) -> Result<(), String> {
        if !self.enabled {
            return Ok(());
        }
        if self.block_size == 0 {
            return Err("swap.block_size must be positive".into());
        }
        if self.block_size > 64 * MIB {
            return Err("swap.block_size above 64 MiB defeats the model".into());
        }
        Ok(())
    }
}

/// Swap-device counters, in the style of the KernelX anonymous swapper's
/// perf counters (op counts plus cumulative transfer time, maintained by the
/// kernel disk layer; block-level cache counters maintained by the device).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SwapStats {
    /// Swap-out (write) operations charged to the device.
    pub(crate) swap_out_ops: u64,
    /// Swap-in (read) operations charged to the device.
    pub(crate) swap_in_ops: u64,
    /// Cumulative simulated time spent writing to swap.
    pub swap_out_time: SimDuration,
    /// Cumulative simulated time spent reading from swap.
    pub swap_in_time: SimDuration,
    /// Blocks re-activated from the swap cache (clean pages evicted again
    /// without a fresh block allocation).
    pub(crate) cache_reactivated_blocks: u64,
    /// Cached blocks dropped to make room for new swap-outs.
    pub(crate) cache_dropped_blocks: u64,
}

/// Blocks one process holds: `active` blocks back its swapped-out bytes,
/// `cached` blocks are swap cache (content also resident in RAM).
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
struct Held {
    active: u32,
    cached: u32,
}

impl Held {
    fn is_empty(&self) -> bool {
        self.active == 0 && self.cached == 0
    }
}

/// The block-granular swap device. See the module docs.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SwapDevice {
    block_size: u64,
    total_blocks: u32,
    /// Blocks in use (active + cached), summed over `held`.
    allocated: u32,
    /// Swap-cache blocks, summed over `held`. Never above `allocated`.
    cached: u32,
    /// Per-process block counts; processes holding no block have no entry.
    held: VecMap<Pid, Held>,
    stats: SwapStats,
}

impl SwapDevice {
    /// A device covering `capacity` bytes in blocks of `block_size` (partial
    /// trailing blocks are not usable).
    pub(crate) fn new(capacity: u64, block_size: u64) -> Self {
        assert!(block_size > 0, "swap block size must be positive");
        let total_blocks = u32::try_from(capacity / block_size).expect("swap area fits in u32");
        SwapDevice {
            block_size,
            total_blocks,
            allocated: 0,
            cached: 0,
            held: VecMap::new(),
            stats: SwapStats::default(),
        }
    }

    /// Size of one block in bytes.
    pub(crate) fn block_size(&self) -> u64 {
        self.block_size
    }

    /// Bytes of swap area occupied (`allocated_blocks * block_size`).
    pub(crate) fn allocated_bytes(&self) -> u64 {
        u64::from(self.allocated) * self.block_size
    }

    /// The device's I/O and cache counters.
    pub fn stats(&self) -> &SwapStats {
        &self.stats
    }

    /// Records one swap write of `time` against the KernelX-style counters.
    pub(crate) fn record_out(&mut self, time: SimDuration) {
        self.stats.swap_out_ops += 1;
        self.stats.swap_out_time += time;
    }

    /// Records one swap read of `time` against the KernelX-style counters.
    pub(crate) fn record_in(&mut self, time: SimDuration) {
        self.stats.swap_in_ops += 1;
        self.stats.swap_in_time += time;
    }

    /// Blocks backing `pid`'s swapped-out bytes.
    pub(crate) fn active_blocks_of(&self, pid: Pid) -> u32 {
        self.held.get(&pid).map_or(0, |h| h.active)
    }

    /// Swap-cache blocks held for `pid`.
    pub(crate) fn cached_blocks_of(&self, pid: Pid) -> u32 {
        self.held.get(&pid).map_or(0, |h| h.cached)
    }

    fn blocks_for(&self, bytes: u64) -> u32 {
        u32::try_from(bytes.div_ceil(self.block_size)).expect("block count fits in u32")
    }

    /// Drops up to `need` cached blocks of the processes in `held` (the
    /// caller has taken its own entry out), lowest pid first, and returns
    /// how many are still missing. The dropped blocks go straight to the
    /// caller, so `allocated` does not change.
    fn shed_cache(&mut self, mut need: u32) -> u32 {
        if need == 0 {
            return 0;
        }
        for held in self.held.values_mut() {
            let dropped = need.min(held.cached);
            held.cached -= dropped;
            self.cached -= dropped;
            self.stats.cache_dropped_blocks += u64::from(dropped);
            need -= dropped;
            if need == 0 {
                break;
            }
        }
        self.held.retain(|_, held| !held.is_empty());
        need
    }

    /// Could `pid`'s backing grow to cover `swapped_bytes`, counting free
    /// blocks plus every droppable cached block (its own included)?
    pub(crate) fn can_back(&self, pid: Pid, swapped_bytes: u64) -> bool {
        let want = self.blocks_for(swapped_bytes);
        let need = want.saturating_sub(self.active_blocks_of(pid));
        need <= self.total_blocks - self.allocated + self.cached
    }

    /// Grows or shrinks `pid`'s active blocks to cover `swapped_bytes`.
    ///
    /// Growth consumes the process's own swap cache first (re-activation:
    /// the clean copy on disk is still valid, no new block needed), then
    /// free blocks, then drops other processes' cache. Shrink sends blocks
    /// to the swap cache when `to_cache` is set (page-in: content now lives
    /// in both places) and frees them otherwise (release/exit).
    pub(crate) fn set_backing(
        &mut self,
        pid: Pid,
        swapped_bytes: u64,
        to_cache: bool,
    ) -> Result<(), OsError> {
        let want = self.blocks_for(swapped_bytes);
        if !self.can_back(pid, swapped_bytes) {
            return Err(OsError::OutOfMemory);
        }
        let mut own = self.held.remove(&pid).unwrap_or_default();
        let mut result = Ok(());
        if want > own.active {
            let need = want - own.active;
            let reactivated = need.min(own.cached);
            own.cached -= reactivated;
            self.cached -= reactivated;
            self.stats.cache_reactivated_blocks += u64::from(reactivated);
            let fresh = (need - reactivated).min(self.total_blocks - self.allocated);
            self.allocated += fresh;
            let missing = self.shed_cache(need - reactivated - fresh);
            debug_assert_eq!(missing, 0, "can_back admitted an unbackable growth");
            if missing > 0 {
                result = Err(OsError::OutOfMemory);
            }
            own.active = want - missing;
        } else {
            let released = own.active - want;
            own.active = want;
            if to_cache {
                own.cached += released;
                self.cached += released;
            } else {
                self.allocated -= released;
            }
        }
        if !own.is_empty() {
            self.held.insert(pid, own);
        }
        result
    }

    /// Caps `pid`'s swap cache at what `resident_clean_bytes` can still
    /// mirror; excess blocks are freed.
    pub(crate) fn trim_cache(&mut self, pid: Pid, resident_clean_bytes: u64) {
        let cap = self.blocks_for(resident_clean_bytes);
        let Some(held) = self.held.get_mut(&pid) else {
            return;
        };
        let excess = held.cached.saturating_sub(cap);
        held.cached -= excess;
        self.cached -= excess;
        self.allocated -= excess;
        self.stats.cache_dropped_blocks += u64::from(excess);
        if held.is_empty() {
            self.held.remove(&pid);
        }
    }

    /// Frees everything the process held (exit / OOM kill).
    pub(crate) fn remove(&mut self, pid: Pid) {
        if let Some(held) = self.held.remove(&pid) {
            self.allocated -= held.active + held.cached;
            self.cached -= held.cached;
        }
    }

    /// Internal consistency: the per-process counts sum to the device-wide
    /// totals, no entry is empty, and cached <= allocated <= total blocks.
    ///
    /// # Panics
    /// On any violated invariant (used by tests and debug assertions).
    pub(crate) fn check_invariants(&self) {
        let (mut active, mut cached) = (0u64, 0u64);
        for (pid, held) in self.held.iter() {
            assert!(!held.is_empty(), "{pid:?}: entry holds no block");
            active += u64::from(held.active);
            cached += u64::from(held.cached);
        }
        assert_eq!(
            u64::from(self.allocated),
            active + cached,
            "allocated total disagrees with the per-process counts"
        );
        assert_eq!(
            u64::from(self.cached),
            cached,
            "cached total disagrees with the per-process counts"
        );
        assert!(self.cached <= self.allocated && self.allocated <= self.total_blocks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SwapDevice {
        /// Blocks currently allocated (active + cached).
        pub(crate) fn allocated_blocks(&self) -> u32 {
            self.allocated
        }

        /// Blocks currently held as swap cache across all processes.
        pub(crate) fn cached_blocks(&self) -> u32 {
            self.cached
        }
    }

    const PID: Pid = Pid(1);
    const OTHER: Pid = Pid(2);

    #[test]
    fn config_validation() {
        assert!(SwapConfig::default().validate().is_ok());
        assert!(SwapConfig::enabled().validate().is_ok());
        assert!(SwapConfig::lazy().validate().is_ok());
        let mut bad = SwapConfig::enabled();
        bad.block_size = 0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn backing_is_block_granular() {
        let mut dev = SwapDevice::new(8 * MIB, MIB);
        dev.set_backing(PID, 1, false).unwrap();
        assert_eq!(dev.allocated_blocks(), 1, "1 byte still costs a block");
        dev.set_backing(PID, 3 * MIB + 1, false).unwrap();
        assert_eq!(dev.allocated_blocks(), 4);
        dev.set_backing(PID, 0, false).unwrap();
        assert_eq!(dev.allocated_blocks(), 0);
        dev.check_invariants();
    }

    #[test]
    fn page_in_retains_blocks_as_cache() {
        let mut dev = SwapDevice::new(8 * MIB, MIB);
        dev.set_backing(PID, 4 * MIB, false).unwrap();
        dev.set_backing(PID, 0, true).unwrap(); // full page-in
        assert_eq!(dev.active_blocks_of(PID), 0);
        assert_eq!(dev.cached_blocks_of(PID), 4);
        assert_eq!(dev.allocated_blocks(), 4, "cache still occupies swap");
        // Re-eviction re-activates the cached blocks without allocating.
        dev.set_backing(PID, 2 * MIB, false).unwrap();
        assert_eq!(dev.stats().cache_reactivated_blocks, 2);
        assert_eq!(dev.allocated_blocks(), 4);
        dev.check_invariants();
    }

    #[test]
    fn cache_is_shed_under_capacity_pressure_lowest_pid_first() {
        let (low, mid, grower) = (Pid(1), Pid(2), Pid(3));
        let mut dev = SwapDevice::new(10 * MIB, MIB);
        dev.set_backing(low, 3 * MIB, false).unwrap();
        dev.set_backing(low, 0, true).unwrap(); // 3 cached
        dev.set_backing(mid, 4 * MIB, false).unwrap();
        dev.set_backing(mid, 0, true).unwrap(); // 4 cached
        dev.set_backing(grower, 3 * MIB, false).unwrap();
        dev.set_backing(grower, 2 * MIB, true).unwrap(); // 2 active, 1 cached
        assert_eq!(dev.allocated_blocks(), 10, "device full");
        assert!(dev.can_back(grower, 8 * MIB), "cache is droppable");
        // 6 more blocks: 1 from its own cache, then 3 from `low`, 2 from `mid`.
        dev.set_backing(grower, 8 * MIB, false).unwrap();
        assert_eq!(dev.cached_blocks_of(low), 0);
        assert_eq!(dev.cached_blocks_of(mid), 2);
        assert_eq!(dev.cached_blocks_of(grower), 0);
        assert_eq!(dev.active_blocks_of(grower), 8);
        assert_eq!(dev.allocated_blocks(), 10);
        assert_eq!(dev.stats().cache_reactivated_blocks, 1);
        assert_eq!(dev.stats().cache_dropped_blocks, 5);
        dev.check_invariants();
        // 3 more blocks exceed the 2 cached ones left: refused, nothing moves.
        let stats = *dev.stats();
        assert!(!dev.can_back(grower, 11 * MIB));
        assert_eq!(
            dev.set_backing(grower, 11 * MIB, false),
            Err(OsError::OutOfMemory)
        );
        assert_eq!(dev.active_blocks_of(grower), 8);
        assert_eq!(dev.cached_blocks_of(mid), 2);
        assert_eq!((dev.allocated_blocks(), dev.cached_blocks()), (10, 2));
        assert_eq!(*dev.stats(), stats);
        dev.check_invariants();
    }

    #[test]
    fn trim_cache_follows_resident_clean() {
        let mut dev = SwapDevice::new(8 * MIB, MIB);
        dev.set_backing(PID, 4 * MIB, false).unwrap();
        dev.set_backing(PID, 0, true).unwrap();
        dev.trim_cache(PID, MIB + 1);
        assert_eq!(dev.cached_blocks_of(PID), 2, "ceil(1 MiB + 1) = 2 blocks");
        dev.trim_cache(PID, 0);
        assert_eq!(dev.cached_blocks_of(PID), 0);
        assert_eq!(dev.allocated_blocks(), 0);
        dev.check_invariants();
    }

    #[test]
    fn remove_frees_everything() {
        let mut dev = SwapDevice::new(8 * MIB, MIB);
        dev.set_backing(PID, 2 * MIB, false).unwrap();
        dev.set_backing(OTHER, 3 * MIB, false).unwrap();
        dev.set_backing(OTHER, MIB, true).unwrap();
        dev.remove(OTHER);
        assert_eq!(dev.allocated_blocks(), 2);
        assert_eq!(dev.cached_blocks(), 0);
        dev.check_invariants();
    }

    #[test]
    fn io_counters_accumulate() {
        let mut dev = SwapDevice::new(8 * MIB, MIB);
        dev.record_out(SimDuration::from_millis(250));
        dev.record_out(SimDuration::from_millis(250));
        dev.record_in(SimDuration::from_millis(100));
        let stats = dev.stats();
        assert_eq!(stats.swap_out_ops, 2);
        assert_eq!(stats.swap_in_ops, 1);
        assert_eq!(stats.swap_out_time, SimDuration::from_millis(500));
        assert_eq!(stats.swap_in_time, SimDuration::from_millis(100));
    }
}
