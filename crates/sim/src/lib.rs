//! # mrp-sim — discrete-event simulation kernel
//!
//! The foundation shared by every simulated substrate in the
//! `hadoop-os-preempt` workspace: a virtual clock ([`SimTime`] /
//! [`SimDuration`]), a deterministic cancellable event queue
//! ([`EventQueue`]), a sorted-vector map for small per-node tables
//! ([`VecMap`]), a seeded random number generator ([`SimRng`]), the
//! statistics helpers ([`Summary`], [`percentile`]) used by the experiment
//! harness to reproduce the paper's figures, and the observability
//! primitives ([`LogHistogram`], [`TimeSeriesSampler`], [`LoopProfiler`])
//! that the engine threads through its event loop, plus the cache hint
//! ([`prefetch`]) that loop issues for the state of its next events.
//!
//! Determinism is a design goal throughout: same seed, same configuration ⇒
//! bit-identical simulation, which makes the reproduction of the paper's
//! figures and the golden-shape integration tests stable.
//!
//! ```
//! use mrp_sim::{EventQueue, SimTime};
//!
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime::from_secs(3), "heartbeat");
//! queue.schedule(SimTime::from_secs(1), "task-finished");
//! assert_eq!(queue.pop(), Some((SimTime::from_secs(1), "task-finished")));
//! assert_eq!(queue.now(), SimTime::from_secs(1));
//! ```

#![warn(missing_docs, unreachable_pub)]
#![deny(unsafe_code)]

mod events;
mod metrics;
mod prefetch;
mod profile;
mod rng;
mod stats;
mod time;
mod vecmap;

pub use events::{EventId, EventQueue};
pub use metrics::{LogHistogram, SeriesRow, TimeSeriesSampler};
pub use prefetch::prefetch;
pub use profile::{LoopProfiler, ProfileReport, ProfileRow, ACTION_SAMPLE_EVERY};
pub use rng::SimRng;
pub use stats::{percentile, Summary};
pub use time::{SimDuration, SimTime};
pub use vecmap::VecMap;

/// Number of bytes in one mebibyte; sizes throughout the workspace are plain
/// `u64` byte counts and these constants keep call sites readable.
pub const MIB: u64 = 1024 * 1024;
/// Number of bytes in one gibibyte.
pub const GIB: u64 = 1024 * MIB;

#[cfg(test)]
mod randomized_tests {
    //! Property-style tests driven by the crate's own seeded generator (the
    //! container has no proptest): each test runs many randomized cases from
    //! fixed seeds, so failures are reproducible by construction.

    use super::*;

    /// Reference implementation of the queue's ordering contract: a sorted
    /// vector popped front-first, with (timestamp, insertion sequence) order
    /// and eager removal on cancellation.
    struct NaiveQueue<E> {
        entries: Vec<(SimTime, u64, u64, E)>, // (at, seq, id, payload)
        next_seq: u64,
        next_id: u64,
    }

    impl<E> NaiveQueue<E> {
        fn new() -> Self {
            NaiveQueue {
                entries: Vec::new(),
                next_seq: 0,
                next_id: 0,
            }
        }

        fn schedule(&mut self, at: SimTime, payload: E) -> u64 {
            let id = self.next_id;
            self.next_id += 1;
            let seq = self.next_seq;
            self.next_seq += 1;
            self.entries.push((at, seq, id, payload));
            id
        }

        fn cancel(&mut self, id: u64) {
            self.entries.retain(|(_, _, eid, _)| *eid != id);
        }

        fn pop(&mut self) -> Option<(SimTime, E)> {
            if self.entries.is_empty() {
                return None;
            }
            let best = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (at, seq, _, _))| (*at, *seq))
                .map(|(i, _)| i)
                .expect("non-empty");
            let (at, _, _, payload) = self.entries.remove(best);
            Some((at, payload))
        }

        fn len(&self) -> usize {
            self.entries.len()
        }
    }

    /// The event queue produces the identical pop order (timestamp, then
    /// FIFO) as the naive sorted-vec reference across randomized
    /// schedule/cancel/pop interleavings, and its `len()` stays exact.
    #[test]
    fn queue_matches_naive_reference_under_random_interleavings() {
        for case in 0..200u64 {
            let mut rng = SimRng::new(0xE7E7 + case);
            let mut fast = EventQueue::new();
            let mut naive = NaiveQueue::new();
            // Live ids, kept in lockstep between the two implementations.
            let mut live: Vec<(EventId, u64)> = Vec::new();
            let mut floor = SimTime::ZERO;
            let ops = 50 + rng.index(150);
            for _ in 0..ops {
                match rng.index(10) {
                    // Schedule (biased: queues grow more than they shrink).
                    0..=4 => {
                        let at = floor + SimDuration::from_micros(rng.index(1_000) as u64);
                        let fid = fast.schedule(at, live.len());
                        let nid = naive.schedule(at, live.len());
                        live.push((fid, nid));
                    }
                    // Cancel a random live event.
                    5..=6 => {
                        if !live.is_empty() {
                            let i = rng.index(live.len());
                            let (fid, nid) = live.swap_remove(i);
                            fast.cancel(fid);
                            naive.cancel(nid);
                        }
                    }
                    // Cancel an already-dead id (stale handle): must be a no-op.
                    7 => {
                        let fid = fast.schedule(floor, usize::MAX);
                        let nid = naive.schedule(floor, usize::MAX);
                        fast.cancel(fid);
                        naive.cancel(nid);
                        fast.cancel(fid); // double cancel
                    }
                    // Pop: both must agree exactly.
                    _ => {
                        let f = fast.pop();
                        let n = naive.pop();
                        assert_eq!(f, n, "pop mismatch (case {case})");
                        if let Some((at, _)) = f {
                            floor = at;
                            // The popped event's handles stay in `live` on
                            // purpose: a later "cancel" on them exercises the
                            // stale-handle path of both implementations.
                        }
                    }
                }
                assert_eq!(fast.len(), naive.len(), "len drift (case {case})");
            }
            // Drain: the full remaining sequence must match.
            loop {
                let f = fast.pop();
                let n = naive.pop();
                assert_eq!(f, n, "drain mismatch (case {case})");
                if f.is_none() {
                    break;
                }
            }
            assert_eq!(fast.len(), 0);
        }
    }

    /// `VecMap` answers every get, insert, remove, retain and in-order walk
    /// exactly as `BTreeMap` does across randomized interleavings. Keys come from a
    /// small range so inserts hit present keys and removes hit absent ones
    /// often; some cases let the map grow past the handful of entries the
    /// engine's tables usually hold.
    #[test]
    fn vecmap_matches_btreemap_under_random_interleavings() {
        use std::collections::BTreeMap;
        for case in 0..200u64 {
            let mut rng = SimRng::new(0x5EC7 + case);
            let mut fast: VecMap<u32, u64> = VecMap::new();
            let mut reference: BTreeMap<u32, u64> = BTreeMap::new();
            let key_range = 4 + rng.index(60);
            let ops = 50 + rng.index(250);
            for op in 0..ops {
                let key = rng.index(key_range) as u32;
                match rng.index(10) {
                    0..=3 => {
                        let value = rng.next_u64();
                        assert_eq!(
                            fast.insert(key, value),
                            reference.insert(key, value),
                            "insert mismatch (case {case}, op {op})"
                        );
                    }
                    4..=5 => assert_eq!(
                        fast.remove(&key),
                        reference.remove(&key),
                        "remove mismatch (case {case}, op {op})"
                    ),
                    6 => {
                        let bump = rng.next_u64();
                        if let Some(v) = fast.get_mut(&key) {
                            *v = v.wrapping_add(bump);
                        }
                        if let Some(v) = reference.get_mut(&key) {
                            *v = v.wrapping_add(bump);
                        }
                    }
                    7 => {
                        for v in fast.values_mut() {
                            *v ^= 1;
                        }
                        for v in reference.values_mut() {
                            *v ^= 1;
                        }
                    }
                    8 if rng.chance(0.2) => {
                        let cut = rng.index(key_range) as u32;
                        fast.retain(|k, v| *k < cut || *v % 3 != 0);
                        reference.retain(|k, v| *k < cut || *v % 3 != 0);
                    }
                    _ => {
                        assert_eq!(fast.get(&key), reference.get(&key));
                        assert_eq!(fast.contains_key(&key), reference.contains_key(&key));
                    }
                }
                assert_eq!(fast.len(), reference.len(), "len drift (case {case})");
                assert!(
                    fast.iter().eq(reference.iter()),
                    "walk order mismatch (case {case}, op {op})"
                );
            }
            assert!(fast.keys().eq(reference.keys()));
            assert!(fast.values().eq(reference.values()));
            fast.clear();
            assert_eq!(fast.len(), 0);
        }
    }

    /// Events always come out of the queue in non-decreasing time order,
    /// regardless of the insertion order.
    #[test]
    fn queue_pops_in_nondecreasing_order() {
        for case in 0..50u64 {
            let mut rng = SimRng::new(100 + case);
            let n = 1 + rng.index(200);
            let mut q = EventQueue::new();
            for i in 0..n {
                q.schedule(SimTime::from_micros(rng.index(1_000_000) as u64), i);
            }
            let mut last = SimTime::ZERO;
            let mut popped = 0;
            while let Some((t, _)) = q.pop() {
                assert!(t >= last);
                last = t;
                popped += 1;
            }
            assert_eq!(popped, n);
        }
    }

    /// Cancelling an arbitrary subset removes exactly that subset.
    #[test]
    fn queue_cancellation_is_exact() {
        for case in 0..50u64 {
            let mut rng = SimRng::new(200 + case);
            let n = 1 + rng.index(100);
            let mut q = EventQueue::new();
            let ids: Vec<(EventId, usize)> = (0..n)
                .map(|i| {
                    (
                        q.schedule(SimTime::from_micros(rng.index(1_000_000) as u64), i),
                        i,
                    )
                })
                .collect();
            let mut expected: std::collections::HashSet<usize> = (0..n).collect();
            for (id, payload) in &ids {
                if rng.chance(0.5) {
                    q.cancel(*id);
                    expected.remove(payload);
                }
            }
            let mut seen = std::collections::HashSet::new();
            while let Some((_, p)) = q.pop() {
                seen.insert(p);
            }
            assert_eq!(seen, expected);
        }
    }

    /// Summary invariants: min <= mean <= max and spread is non-negative.
    #[test]
    fn summary_invariants() {
        for case in 0..50u64 {
            let mut rng = SimRng::new(300 + case);
            let n = 1 + rng.index(200);
            let values: Vec<f64> = (0..n).map(|_| (rng.unit() - 0.5) * 2e6).collect();
            let s = Summary::of(&values).unwrap();
            assert!(s.min <= s.mean + 1e-9);
            assert!(s.mean <= s.max + 1e-9);
            assert!(s.std_dev >= 0.0);
            assert_eq!(s.count, values.len());
        }
    }

    /// Percentile is monotone in p and bounded by the data range.
    #[test]
    fn percentile_monotone() {
        for case in 0..50u64 {
            let mut rng = SimRng::new(400 + case);
            let n = 1 + rng.index(100);
            let values: Vec<f64> = (0..n).map(|_| rng.unit() * 1e6).collect();
            let (p1, p2) = (rng.unit() * 100.0, rng.unit() * 100.0);
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            let a = percentile(&values, lo).unwrap();
            let b = percentile(&values, hi).unwrap();
            assert!(a <= b + 1e-9);
            let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert!(a >= min - 1e-9 && b <= max + 1e-9);
        }
    }

    /// SimTime arithmetic: (t + d) - t == d for representable values.
    #[test]
    fn time_addition_roundtrip() {
        let mut rng = SimRng::new(500);
        for _ in 0..1000 {
            let t = rng.next_u64() % (u64::MAX / 4);
            let d = rng.next_u64() % (u64::MAX / 4);
            let time = SimTime::from_micros(t);
            let dur = SimDuration::from_micros(d);
            assert_eq!((time + dur) - time, dur);
        }
    }
}
