//! A priority queue of timestamped events.
//!
//! The queue is generic over the event payload so that every layer of the
//! stack (the OS model, the MapReduce engine, the experiment driver) can use
//! its own event type while sharing the same deterministic ordering rules:
//! events fire in timestamp order, and events with equal timestamps fire in
//! insertion order (FIFO), which keeps simulations reproducible.
//!
//! # Layout
//!
//! The binary heap holds only 16-byte ordering keys: the timestamp, and one
//! `u64` packing the insertion sequence number above the event's slot
//! number. Payloads live in a slab of slots beside the heap, so a sift moves
//! keys alone, however large the payload type is. Sequence numbers are
//! unique, so ordering keys by `(time, packed)` is ordering events by
//! `(time, seq)`: the slot bits below never decide a comparison, and a
//! recycled low slot number cannot overtake an earlier event at the same
//! timestamp. `SLOT_BITS` (24) bounds the number of events pending at once
//! and `SEQ_LIMIT` (2^40) the number ever scheduled on one queue; `schedule`
//! panics with a message rather than wrap past either.
//!
//! # Cancellation design
//!
//! Cancellation is slab/generation based rather than tombstone based. Every
//! scheduled event owns a slot in the slab; the slot records a generation
//! counter and holds the payload while the event is pending, and the
//! [`EventId`] handed to the caller packs `(slot, generation)`. Cancelling
//! drops the payload (O(1)); the heap key is discarded lazily when it
//! surfaces, at which point the slot's generation is bumped and the slot is
//! recycled. Consequences:
//!
//! * `cancel()` of an id whose event already fired (or whose slot was
//!   recycled) is a guaranteed no-op — the generation no longer matches, so
//!   nothing leaks and nothing is mis-cancelled;
//! * a cancelled event's payload is dropped at once, so the queue holds no
//!   tombstone bookkeeping;
//! * memory for cancelled events is reclaimed at once (payload) or as the
//!   heap drains (key), and slots are reused, so long-running simulations
//!   with heavy cancellation churn (suspend/resume preemption cancels a timer
//!   per preemption) stay compact.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Bits of a heap key's packed word that hold the slot number; at most
/// `2^SLOT_BITS` events can be pending (or cancelled but not yet popped) at
/// once.
const SLOT_BITS: u32 = 24;

/// Sequence numbers are the packed word's upper `64 - SLOT_BITS` bits, so a
/// queue can schedule at most this many events over its lifetime.
const SEQ_LIMIT: u64 = 1 << (64 - SLOT_BITS);

const SLOT_LIMIT: u64 = 1 << SLOT_BITS;

/// Handle that identifies a scheduled event so it can be cancelled.
///
/// Internally packs a slab slot index and that slot's generation at scheduling
/// time; a stale handle (fired or recycled event) can never affect a newer
/// event that happens to reuse the same slot.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(u64);

impl EventId {
    #[inline]
    fn new(slot: u32, gen: u32) -> Self {
        EventId(u64::from(slot) | (u64::from(gen) << 32))
    }

    #[inline]
    fn slot(self) -> u32 {
        self.0 as u32
    }

    #[inline]
    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// A heap entry: the event's timestamp and `seq << SLOT_BITS | slot`.
/// Derived ordering compares the timestamp first, then the sequence number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Key {
    at: SimTime,
    seq_slot: u64,
}

impl Key {
    #[inline]
    fn new(at: SimTime, seq: u64, slot: u32) -> Self {
        debug_assert!(seq < SEQ_LIMIT && u64::from(slot) < SLOT_LIMIT);
        Key {
            at,
            seq_slot: (seq << SLOT_BITS) | u64::from(slot),
        }
    }

    #[cfg(test)]
    fn seq(self) -> u64 {
        self.seq_slot >> SLOT_BITS
    }

    #[inline]
    fn slot(self) -> u32 {
        (self.seq_slot & (SLOT_LIMIT - 1)) as u32
    }
}

/// One slab slot: the current generation and, while the event that owns
/// the slot is pending, its payload.
#[derive(Debug)]
struct Slot<E> {
    generation: u32,
    payload: Option<E>,
}

/// A deterministic, cancellable event queue keyed by [`SimTime`].
pub struct EventQueue<E> {
    /// Min-heap of ordering keys (see the module docs).
    heap: BinaryHeap<Reverse<Key>>,
    slots: Vec<Slot<E>>,
    free_slots: Vec<u32>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current virtual time: the timestamp of the last popped event, or
    /// zero if nothing has been popped yet.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the clock to `t` without popping anything. Drivers that merge
    /// this queue with computed event sources (e.g. the engine's periodic
    /// heartbeat wheel) use this so `schedule`'s not-in-the-past invariant
    /// keeps holding across events the queue never saw.
    ///
    /// # Panics
    /// Panics if `t` is before [`Self::now`].
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(
            t >= self.now,
            "cannot rewind the clock to {t:?} from {:?}",
            self.now
        );
        self.now = t;
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past (before [`Self::now`]); scheduling in the
    /// past would silently reorder history and is always a logic error. Also
    /// panics once the queue has scheduled 2^40 events, or when 2^24 events
    /// are pending (or cancelled but not yet popped) at once.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule an event at {at:?} before the current time {:?}",
            self.now
        );
        let seq = self.next_seq;
        assert!(
            seq < SEQ_LIMIT,
            "event queue ran out of sequence numbers after {SEQ_LIMIT} events"
        );
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                let entry = &mut self.slots[slot as usize];
                debug_assert!(entry.payload.is_none(), "free slot must not be live");
                entry.payload = Some(payload);
                slot
            }
            None => {
                let slot = self.slots.len() as u64;
                assert!(
                    slot < SLOT_LIMIT,
                    "event queue cannot hold more than {SLOT_LIMIT} pending events"
                );
                self.slots.push(Slot {
                    generation: 0,
                    payload: Some(payload),
                });
                slot as u32
            }
        };
        self.next_seq += 1;
        self.heap.push(Reverse(Key::new(at, seq, slot)));
        EventId::new(slot, self.slots[slot as usize].generation)
    }

    /// Cancels a previously scheduled event. Cancelling an event that already
    /// fired (or was already cancelled) is a no-op: the generation encoded in
    /// the id no longer matches the slot, so the handle is simply stale.
    pub fn cancel(&mut self, id: EventId) {
        if let Some(slot) = self.slots.get_mut(id.slot() as usize) {
            if slot.generation == id.generation() {
                slot.payload = None;
            }
        }
    }

    /// Recycles the slot of a key that has just been removed from the heap,
    /// returning the payload if the event was still live (not cancelled).
    #[inline]
    fn retire_slot(&mut self, slot: u32) -> Option<E> {
        let entry = &mut self.slots[slot as usize];
        entry.generation = entry.generation.wrapping_add(1);
        self.free_slots.push(slot);
        entry.payload.take()
    }

    /// Removes and returns the next event, advancing the clock to its
    /// timestamp. Cancelled events are skipped silently.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(Reverse(key)) = self.heap.pop() {
            if let Some(payload) = self.retire_slot(key.slot()) {
                self.now = key.at;
                return Some((key.at, payload));
            }
        }
        None
    }

    /// The next (non-cancelled) event and its timestamp: what the next
    /// [`Self::pop`] returns. Does not advance the clock.
    pub fn peek(&mut self) -> Option<(SimTime, &E)> {
        // Drop cancelled events lazily so peek is accurate.
        while let Some(&Reverse(key)) = self.heap.peek() {
            let slot = key.slot() as usize;
            if self.slots[slot].payload.is_some() {
                return self.slots[slot].payload.as_ref().map(|e| (key.at, e));
            }
            self.heap.pop();
            self.retire_slot(key.slot());
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    impl<E> EventQueue<E> {
        /// Number of pending (non-cancelled) events: the slots holding a
        /// payload.
        pub(crate) fn len(&self) -> usize {
            self.slots.iter().filter(|s| s.payload.is_some()).count()
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), "c");
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..10 {
            q.schedule(t, i);
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.schedule(SimTime::from_secs(7), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(7));
    }

    #[test]
    fn cancellation_skips_events() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        q.cancel(a);
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
        q.cancel(a);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn cancel_after_fire_does_not_undercount_len() {
        // Regression test: the old tombstone design left a permanent entry in
        // the cancelled set when an already-fired id was cancelled, making
        // len() report fewer pending events than actually existed.
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
        q.cancel(a); // stale id: must not affect anything
        q.schedule(SimTime::from_secs(2), "b");
        q.schedule(SimTime::from_secs(3), "c");
        assert_eq!(q.len(), 2, "len must count both pending events");
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), "c")));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn stale_id_cannot_cancel_a_recycled_slot() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
        // The next schedule reuses slot 0 with a bumped generation.
        let b = q.schedule(SimTime::from_secs(2), "b");
        q.cancel(a); // stale handle into the reused slot
        assert_eq!(q.len(), 1, "the stale cancel must not kill the new event");
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        q.cancel(b); // now b itself is stale too: no-op
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn double_cancel_is_counted_once() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        q.cancel(a);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
    }

    #[test]
    fn peek_respects_cancellation() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        let c = q.schedule(SimTime::from_secs(2), "c");
        q.schedule(SimTime::from_secs(3), "d");
        q.cancel(a);
        q.cancel(c);
        assert_eq!(q.peek(), Some((SimTime::from_secs(2), &"b")));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        assert_eq!(q.peek(), Some((SimTime::from_secs(3), &"d")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), "d")));
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn peek_returns_what_pop_returns_and_keeps_the_clock() {
        let mut q = EventQueue::new();
        for (at, name) in [(4, "d"), (1, "a"), (1, "b"), (2, "c")] {
            q.schedule(SimTime::from_secs(at), name);
        }
        let mut clock = q.now();
        while let Some((at, &next)) = q.peek() {
            assert_eq!(q.peek(), Some((at, &next)), "a second peek agrees");
            assert_eq!(q.now(), clock, "peek must not advance the clock");
            assert_eq!(q.pop(), Some((at, next)));
            clock = at;
        }
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), SimTime::from_secs(4));
    }

    /// Peeking between any two operations changes no pop: two queues driven
    /// by the same random schedule/cancel/pop sequence, one peeked before
    /// every operation, pop the same events at the same times.
    #[test]
    fn peeks_interleaved_with_every_operation_leave_the_pops_unchanged() {
        use crate::rng::SimRng;
        for case in 0..100u64 {
            let mut rng = SimRng::new(0x9EE6 + case);
            let mut plain = EventQueue::new();
            let mut peeked = EventQueue::new();
            let mut live: Vec<(EventId, EventId)> = Vec::new();
            let mut payload = 0u32;
            for _ in 0..300 {
                let head = peeked.peek().map(|(at, &e)| (at, e));
                match rng.index(10) {
                    0..=4 => {
                        let at = plain.now() + SimDuration::from_micros(rng.index(500) as u64);
                        live.push((plain.schedule(at, payload), peeked.schedule(at, payload)));
                        payload += 1;
                    }
                    5..=6 if !live.is_empty() => {
                        let (a, b) = live.swap_remove(rng.index(live.len()));
                        plain.cancel(a);
                        peeked.cancel(b);
                    }
                    _ => {
                        let popped = plain.pop();
                        assert_eq!(popped, head, "peek foretold the pop (case {case})");
                        assert_eq!(peeked.pop(), popped, "pop mismatch (case {case})");
                    }
                }
                assert_eq!(plain.now(), peeked.now());
                assert_eq!(plain.len(), peeked.len());
            }
            while let Some(popped) = plain.pop() {
                assert_eq!(peeked.pop(), Some(popped), "drain mismatch (case {case})");
            }
            assert_eq!(peeked.pop(), None);
        }
    }

    #[test]
    #[should_panic]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), ());
        q.pop();
        q.schedule(SimTime::from_secs(5), ());
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..5)
            .map(|i| q.schedule(SimTime::from_secs(i + 1), i))
            .collect();
        q.cancel(ids[0]);
        q.cancel(ids[3]);
        assert_eq!(q.len(), 3);
        let _ = SimDuration::ZERO; // keep the import exercised
    }

    #[test]
    fn recycled_lower_slot_does_not_overtake_an_equal_timestamp() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        q.schedule(SimTime::from_secs(1), "first"); // slot 0
        q.schedule(t, "early"); // slot 1
        q.schedule(t, "middle"); // slot 2
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "first")));
        // Slot 0 is free again: the next event takes it, a lower slot number
        // than the two pending events at the same timestamp.
        q.schedule(t, "late");
        assert_eq!(q.slots.len(), 3, "the late event must reuse slot 0");
        assert_eq!(q.pop(), Some((t, "early")));
        assert_eq!(q.pop(), Some((t, "middle")));
        assert_eq!(q.pop(), Some((t, "late")));
    }

    #[test]
    fn key_packing_holds_at_its_limits() {
        let t = SimTime::from_secs(1);
        let max_seq = SEQ_LIMIT - 1;
        let max_slot = (SLOT_LIMIT - 1) as u32;
        let top = Key::new(t, max_seq, max_slot);
        assert_eq!((top.seq(), top.slot()), (max_seq, max_slot));
        let bottom = Key::new(t, 0, 0);
        assert_eq!((bottom.seq(), bottom.slot()), (0, 0));
        // The sequence number decides, never the slot bits below it.
        assert!(Key::new(t, 0, max_slot) < Key::new(t, 1, 0));
        assert!(Key::new(t, max_seq - 1, max_slot) < Key::new(t, max_seq, 0));
        // The timestamp decides before either.
        assert!(Key::new(t, max_seq, max_slot) < Key::new(SimTime::from_secs(2), 0, 0));
    }

    #[test]
    fn last_sequence_number_is_usable() {
        let mut q = EventQueue::new();
        q.next_seq = SEQ_LIMIT - 2;
        q.schedule(SimTime::from_secs(2), "a");
        q.schedule(SimTime::from_secs(2), "b");
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
    }

    #[test]
    #[should_panic(expected = "ran out of sequence numbers")]
    fn scheduling_past_the_sequence_limit_panics() {
        let mut q = EventQueue::new();
        q.next_seq = SEQ_LIMIT;
        q.schedule(SimTime::ZERO, ());
    }

    #[test]
    fn slots_are_recycled_under_churn() {
        let mut q = EventQueue::new();
        for round in 0..1000u64 {
            let id = q.schedule(SimTime::from_secs(round + 1), round);
            if round % 2 == 0 {
                q.cancel(id);
            } else {
                q.pop();
            }
        }
        assert!(
            q.slots.len() < 16,
            "slab must stay compact under schedule/cancel churn, got {} slots",
            q.slots.len()
        );
    }
}
