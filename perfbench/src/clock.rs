//! The clock the benchmark times host work with: CPU time of the calling
//! thread.
//!
//! The benchmark is single-threaded and never sleeps or waits on I/O, so on
//! an idle host a thread's CPU time and its wall-clock time agree. On a
//! shared host they do not: wall-clock time also counts every stretch in
//! which the thread was runnable but not running — preempted by other
//! processes, or its virtual CPU descheduled by the hypervisor. CPU time
//! leaves those stretches out.

use std::time::Duration;

/// `CLOCK_THREAD_CPUTIME_ID` of `<time.h>` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// A reading of the calling thread's CPU clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CpuInstant(Duration);

impl CpuInstant {
    /// The CPU time the calling thread has used so far.
    pub fn now() -> CpuInstant {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable `struct timespec`, the only
        // memory `clock_gettime` writes.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "the thread CPU clock is always readable on Linux");
        CpuInstant(Duration::new(
            u64::try_from(ts.tv_sec).expect("CPU time is never negative"),
            u32::try_from(ts.tv_nsec).expect("tv_nsec is below one second"),
        ))
    }

    /// CPU time the calling thread has used since `self`.
    pub fn elapsed(self) -> Duration {
        CpuInstant::now().duration_since(self)
    }

    /// CPU time the calling thread used between `earlier` and `self`.
    pub fn duration_since(self, earlier: CpuInstant) -> Duration {
        self.0.saturating_sub(earlier.0)
    }
}
