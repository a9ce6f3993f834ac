//! A deterministic discrete-event queue.
//!
//! [`EventQueue`] is a priority queue of `(SimTime, payload)` pairs ordered by
//! time, with FIFO tie-breaking: two events scheduled for the same instant
//! pop in the order they were pushed. This determinism matters — simulation
//! results must be bit-identical across runs for a given seed, and
//! `BinaryHeap` alone does not guarantee a stable order among equal keys.
//!
//! Internally each entry carries a single `u128` comparison key:
//! `(time.ordered_bits() << 64) | seq`. For the non-negative finite times
//! `SimTime` admits, IEEE-754 bit patterns order exactly like the values, so
//! one integer comparison replaces the float-compare + tie-break pair on
//! every operation. The time is recovered losslessly from the high 64 bits
//! on `pop`.
//!
//! The keys live in the radix-rung *ladder* of [`crate::ladder`], which is
//! near-O(1) per operation for the monotone push pattern of a
//! forward-running simulation. Keys are unique (the sequence number breaks
//! every tie), so any correct priority queue pops the identical stream for
//! an identical push sequence; the unit tests pin the ladder to a
//! `BinaryHeap` oracle pop for pop.
//!
//! The queue owns its payloads and makes no assumptions about them; the
//! simulation driver (in the `array` crate) defines the event enum.

use crate::ladder::Ladder;
use crate::time::SimTime;

/// A time-ordered event queue with FIFO tie-breaking.
///
/// # Examples
/// ```
/// use simkit::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2.0), "late");
/// q.push(SimTime::from_secs(1.0), "early");
/// q.push(SimTime::from_secs(1.0), "early-second");
///
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), "early-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2.0), "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    ladder: Ladder<E>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            ladder: Ladder::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at `time`.
    #[inline]
    pub fn push(&mut self, time: SimTime, payload: E) {
        let key = self.reserve_key(time);
        self.push_reserved(key, payload);
    }

    /// Allocates the queue position — packed `(time, seq)` key — that the
    /// next [`push`](Self::push) at `time` would occupy, without storing
    /// anything. Feed it to [`push_reserved`](Self::push_reserved) later,
    /// or drop it to consume the slot.
    ///
    /// This lets a driver decide to handle an event inline (skipping the
    /// queue round-trip) while keeping the sequence numbering — and with
    /// it FIFO tie-breaking — bit-identical to the push-then-pop path.
    #[inline]
    pub fn reserve_key(&mut self, time: SimTime) -> u128 {
        let seq = self.next_seq;
        self.next_seq += 1;
        ((time.ordered_bits() as u128) << 64) | seq as u128
    }

    /// Schedules `payload` under a key from
    /// [`reserve_key`](Self::reserve_key).
    #[inline]
    pub fn push_reserved(&mut self, key: u128, payload: E) {
        self.ladder.push(key, payload);
    }

    /// Removes and returns the earliest event, or `None` if empty.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.ladder.pop().map(|(k, p)| (time_of(k), p))
    }

    /// The firing time of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek_key().map(time_of)
    }

    /// The packed `(time, seq)` key of the earliest pending event, if any.
    /// Comparable against [`reserve_key`](Self::reserve_key) results to
    /// ask "would a push at time t pop before everything queued?".
    #[inline]
    pub fn peek_key(&self) -> Option<u128> {
        self.ladder.peek_key()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ladder.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all pending events. The sequence counter keeps counting, so
    /// FIFO order is preserved across a clear.
    pub fn clear(&mut self) {
        self.ladder.clear()
    }
}

/// Recovers the firing time from a packed key's high 64 bits.
#[inline]
fn time_of(key: u128) -> SimTime {
    SimTime::from_ordered_bits((key >> 64) as u64)
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The `BinaryHeap` queue the ladder replaced, kept as the oracle the
    /// ladder is checked against: same packed keys, min-first pops.
    #[derive(Default)]
    struct HeapOracle {
        heap: BinaryHeap<Reverse<(u128, u32)>>,
        next_seq: u64,
    }

    impl HeapOracle {
        fn push(&mut self, time: SimTime, payload: u32) {
            let key = ((time.ordered_bits() as u128) << 64) | self.next_seq as u128;
            self.next_seq += 1;
            self.heap.push(Reverse((key, payload)));
        }

        fn pop(&mut self) -> Option<(SimTime, u32)> {
            self.heap.pop().map(|Reverse((k, p))| (time_of(k), p))
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|Reverse((k, _))| time_of(*k))
        }

        fn len(&self) -> usize {
            self.heap.len()
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[5.0, 1.0, 3.0, 2.0, 4.0] {
            q.push(SimTime::from_secs(t), t as u32);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1.0);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1.0), 0);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1.0)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert_eq!(q.peek_time(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO, 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10.0), 3);
        q.push(SimTime::from_secs(1.0), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(SimTime::from_secs(5.0), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn zero_time_events_stay_fifo() {
        // SimTime::ZERO packs to key high bits = 0; seq alone must order.
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(SimTime::ZERO, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn pop_recovers_exact_times() {
        let mut q = EventQueue::new();
        let times = [0.0, 1.5e-7, 0.1, 1.0 / 3.0, 7200.0];
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_secs(t), i as u32);
        }
        for &t in &times {
            let (popped, _) = q.pop().unwrap();
            assert_eq!(
                popped,
                SimTime::from_secs(t),
                "times must roundtrip exactly"
            );
        }
    }

    /// Regression test: a long run of equal-time pushes interleaved with a
    /// pop must keep FIFO tie-breaking. The sequence counter lives outside
    /// the ladder's storage, so rung growth must not disturb the order
    /// among equal times.
    #[test]
    fn growth_preserves_fifo_ties() {
        let mut q = EventQueue::new();
        let early = SimTime::from_secs(1.0);
        let tied = SimTime::from_secs(2.0);

        q.push(early, 1000);
        q.push(tied, 0);
        q.push(tied, 1);
        assert_eq!(q.pop(), Some((early, 1000)));
        for i in 2..64 {
            q.push(tied, i);
        }

        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(
            order,
            (0..64).collect::<Vec<_>>(),
            "FIFO tie-breaking must survive growth"
        );
    }

    /// Oracle check: random interleaved pushes and pops, with heavy time
    /// ties and times earlier than already-popped events (forcing the
    /// ladder's late-push fallback), must match the heap oracle pop
    /// for pop. Deterministic LCG, no external RNG.
    #[test]
    fn randomized_churn_matches_heap_oracle() {
        let mut ladder = EventQueue::new();
        let mut heap = HeapOracle::default();
        let mut state = 0x243f6a8885a308d3u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut payload = 0u32;
        for _ in 0..50_000 {
            if rng() % 4 != 0 {
                // Coarse 1/8-second grid over ~2 minutes: plenty of exact
                // ties and plenty of backwards jumps relative to pops.
                let t = SimTime::from_secs((rng() % 1000) as f64 * 0.125);
                ladder.push(t, payload);
                heap.push(t, payload);
                payload += 1;
            } else {
                assert_eq!(ladder.pop(), heap.pop());
            }
            assert_eq!(ladder.len(), heap.len());
            assert_eq!(ladder.peek_time(), heap.peek_time());
        }
        loop {
            let (a, b) = (ladder.pop(), heap.pop());
            assert_eq!(a, b, "drain order diverged");
            if a.is_none() {
                break;
            }
        }
    }

    /// Oracle check for the simulator's actual pattern: drain while
    /// inserting, every push at or after the last popped time (monotone),
    /// so the ladder's rung-relabel path does all the work.
    #[test]
    fn drain_while_inserting_matches_heap_oracle() {
        let mut ladder = EventQueue::new();
        let mut heap = HeapOracle::default();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        let mut payload = 0u32;
        for i in 0..64 {
            let t = SimTime::from_secs(i as f64 * 0.01);
            ladder.push(t, payload);
            heap.push(t, payload);
            payload += 1;
        }
        for _ in 0..20_000 {
            let (a, b) = (ladder.pop(), heap.pop());
            assert_eq!(a, b);
            let Some((now, _)) = a else { break };
            // Schedule 0–2 follow-ups at now + jittered delay (delay 0
            // keeps same-instant FIFO bursts in play).
            for _ in 0..rng() % 3 {
                let t = now + crate::SimDuration::from_secs((rng() % 8) as f64 * 0.05);
                ladder.push(t, payload);
                heap.push(t, payload);
                payload += 1;
            }
        }
        loop {
            let (a, b) = (ladder.pop(), heap.pop());
            assert_eq!(a, b, "drain order diverged");
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn reserved_keys_interleave_with_pushes() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1.0);
        q.push(t, 0);
        // Reserve, push another at the same time, then file the
        // reserved key: pop order must follow reservation order.
        let k = q.reserve_key(t);
        q.push(t, 2);
        q.push_reserved(k, 1);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn peek_key_matches_pop_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(2.0), 2);
        q.push(SimTime::from_secs(1.0), 1);
        let k = q.peek_key().unwrap();
        let probe = q.reserve_key(SimTime::from_secs(0.5));
        assert!(probe < k, "an earlier time must reserve a smaller key");
        q.push_reserved(probe, 0);
        assert_eq!(q.peek_key(), Some(probe));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }
}
