//! A cache prefetch hint.
//!
//! The event loop knows which node the heartbeat wheel fires next, and what
//! the queue's head event is, before it handles either. Asking the CPU to
//! start loading that node's tables early turns the cache misses of the
//! progress reports into loads that hit. A prefetch only moves data into
//! the cache: it never changes what the program computes.

/// Asks the CPU to start loading the cache line that holds `ptr` into every
/// cache level. On targets other than x86_64 it does nothing.
///
/// `ptr` need not be valid: the hint is dropped for an address that does
/// not map, so a pointer one past a slice's end, or into freed memory, is
/// harmless.
#[inline]
#[allow(unsafe_code)]
pub fn prefetch<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a hint. It never faults, even on an
    // unmapped or dangling address, writes no memory and changes no
    // program state; SSE, which provides it, is part of the x86_64
    // baseline.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(ptr.cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
}

#[cfg(test)]
mod tests {
    use super::prefetch;

    #[test]
    fn prefetch_accepts_any_address() {
        let values = vec![1u64, 2, 3];
        prefetch(values.as_ptr());
        prefetch(values.as_ptr().wrapping_add(values.len()));
        prefetch(std::ptr::null::<u64>());
        prefetch(std::ptr::without_provenance::<u8>(usize::MAX));
        assert_eq!(values, [1, 2, 3]);
    }
}
