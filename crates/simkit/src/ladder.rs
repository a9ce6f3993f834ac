//! The ladder behind [`crate::EventQueue`]: a 128-rung radix bucket
//! structure over the packed `(time, seq)` `u128` keys.
//!
//! A discrete-event simulation pops keys in ascending order and pushes
//! almost exclusively *ahead* of the last pop (handlers schedule at
//! `now` or later, and the sequence counter rises monotonically). A
//! comparison-based heap pays `O(log n)` sifts of 32-byte entries on
//! every operation for a generality the workload never uses; this
//! structure exploits the monotone pattern instead:
//!
//! * Keys above the current *active* span live in rung `i` = the index
//!   of the highest bit in which they differ from `anchor`. Push is one
//!   XOR + leading-zeros + `Vec` push, and rungs order the queue
//!   coarsely: every key in a lower rung is smaller than every key in a
//!   higher rung (they agree with `anchor` above their rung bit, and a
//!   lower-rung key keeps `anchor`'s 0 where a higher-rung key has a 1).
//! * The imminent keys live in `active`, a small vector sorted
//!   descending, so pop is a branch plus `Vec::pop`. When it drains, the
//!   lowest occupied rung (one `trailing_zeros` of the occupancy bitmap)
//!   is *activated*: sorted once and swapped in whole. An oversized rung
//!   is first *spread* — the anchor advances to the rung's common prefix
//!   and its keys redistribute by their next differing bit. Every spread
//!   moves keys strictly down the ladder, so each key is touched at most
//!   128 times over its whole lifetime: near-O(1) amortized, with none
//!   of the per-pop relabeling a naive radix queue pays.
//! * A push that lands at or below the active span's ceiling rung must
//!   pop before some queued key, so it enters `active` by binary-search
//!   insertion — cheap because `active` holds one small rung's worth of
//!   keys.
//!
//! Keys at equal times differ only in their low (sequence) bits, so
//! same-time bursts spread into the bottom rungs and drain FIFO at
//! `Vec`-sort cost over tiny buckets.
//!
//! Pushes at or before `last` (the most recent non-late pop) — which the
//! simulation never issues but the public `EventQueue` API permits —
//! fall back to a small binary heap (`late`). Every late key is `<=`
//! some earlier value of `last` and therefore smaller than every queued
//! key, so the pop path only has to check `late` first; correctness for
//! arbitrary push orders is preserved at the cost of one branch on the
//! hot path.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Number of rungs: one per bit of the `u128` key.
const RUNGS: usize = 128;

/// A rung bigger than this is spread across lower rungs instead of being
/// sorted wholesale into `active`; it also caps how large `active` —
/// and therefore the cost of a sorted insert into it — usually gets.
const SPREAD_THRESHOLD: usize = 8;

/// A late entry (key pushed at or before `last`), min-ordered so the
/// fallback `BinaryHeap` pops the smallest key first.
struct Late<E> {
    key: u128,
    payload: E,
}

impl<E> PartialEq for Late<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Late<E> {}
impl<E> PartialOrd for Late<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Late<E> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the smallest key pops first.
        other.key.cmp(&self.key)
    }
}

/// The radix-rung priority queue. Keys must be unique (the `EventQueue`
/// wrapper guarantees this by packing a fresh sequence number into the
/// low bits of every key).
pub(crate) struct Ladder<E> {
    /// `rungs[i]` holds the keys whose highest bit of difference from
    /// `anchor` is bit `i`. Unsorted within a rung. Invariant: every
    /// rung key is `>= anchor` and greater than every key in `active`.
    rungs: Box<[Vec<(u128, E)>; RUNGS]>,
    /// Bit `i` set ⟺ `rungs[i]` is non-empty.
    occupied: u128,
    /// Rung placement is relative to this. Starts at 0 and only advances
    /// (to a spread rung's common prefix); always at most the smallest
    /// key still queued in the rungs.
    anchor: u128,
    /// The most recent non-late pop: the late/laddered boundary.
    last: u128,
    /// The imminent keys, sorted descending so the minimum pops from the
    /// back. Everything in the rungs is larger than everything here.
    active: Vec<(u128, E)>,
    /// The rung `active` was taken from: a push whose rung is at or
    /// below this ceiling (or whose key is at or below `anchor`) belongs
    /// in `active`, not the rungs.
    active_rung: u32,
    /// Cached minimum over all *non-late* keys; `None` when `active` and
    /// the rungs are empty. Late keys are always smaller and tracked
    /// separately.
    min_key: Option<u128>,
    /// Fallback for keys pushed at or before `last`.
    late: BinaryHeap<Late<E>>,
    len: usize,
}

impl<E> Ladder<E> {
    pub(crate) fn new() -> Self {
        Ladder {
            rungs: Box::new(std::array::from_fn(|_| Vec::new())),
            occupied: 0,
            anchor: 0,
            last: 0,
            active: Vec::new(),
            active_rung: 0,
            min_key: None,
            late: BinaryHeap::new(),
            len: 0,
        }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The smallest key currently queued, if any.
    #[inline]
    pub(crate) fn peek_key(&self) -> Option<u128> {
        // Every late key is <= a past value of `last` and every other
        // key is > the current (monotone) `last`, so late wins outright.
        match self.late.peek() {
            Some(l) => Some(l.key),
            None => self.min_key,
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, key: u128, payload: E) {
        self.len += 1;
        if key <= self.last {
            self.late.push(Late { key, payload });
            return;
        }
        match self.min_key {
            Some(m) if m <= key => {}
            _ => self.min_key = Some(key),
        }
        // `active` is empty only when the rungs hold everything (bulk
        // loading before the first pop, or after a full drain); then
        // every push belongs in a rung. Otherwise a key at or below the
        // active ceiling would pop before some active key, so it must
        // join `active` in sorted position.
        if !self.active.is_empty()
            && (key <= self.anchor || rung_of(key, self.anchor) as u32 <= self.active_rung)
        {
            let pos = self.active.partition_point(|&(k, _)| k > key);
            self.active.insert(pos, (key, payload));
            return;
        }
        let rung = rung_of(key, self.anchor);
        self.rungs[rung].push((key, payload));
        self.occupied |= 1u128 << rung;
    }

    pub(crate) fn pop(&mut self) -> Option<(u128, E)> {
        if let Some(l) = self.late.pop() {
            // `last` stays put: rung placement remains valid, and late
            // keys never re-enter the ladder.
            self.len -= 1;
            return Some((l.key, l.payload));
        }
        if self.active.is_empty() {
            if self.occupied == 0 {
                return None;
            }
            self.activate();
        }
        let (key, payload) = self.active.pop().expect("activation fills active");
        self.len -= 1;
        self.last = key;
        if self.active.is_empty() && self.occupied != 0 {
            self.activate();
        }
        self.min_key = self.active.last().map(|&(k, _)| k);
        Some((key, payload))
    }

    /// Refills `active` from the lowest occupied rung, spreading
    /// oversized rungs down the ladder first. Caller guarantees `active`
    /// is empty and at least one rung is occupied.
    fn activate(&mut self) {
        loop {
            let rung = self.occupied.trailing_zeros() as usize;
            self.occupied &= !(1u128 << rung);
            let mut bucket =
                std::mem::replace(&mut self.rungs[rung], std::mem::take(&mut self.active));
            if bucket.len() <= SPREAD_THRESHOLD || rung == 0 {
                // Sort descending: the minimum pops from the back.
                bucket.sort_unstable_by_key(|b| std::cmp::Reverse(b.0));
                self.active = bucket;
                self.active_rung = rung as u32;
                return;
            }
            // Spread: advance the anchor to this rung's common prefix
            // (all its keys agree above bit `rung` and have a 1 there)
            // and redistribute by the next differing bit. Rungs above
            // are untouched — they differ from the new anchor at the
            // same bit as before. A key equal to the new anchor is the
            // batch minimum; rung 0 keeps it ahead of everything else.
            let above = if rung == RUNGS - 1 {
                0
            } else {
                self.anchor >> (rung + 1) << (rung + 1)
            };
            self.anchor = above | (1u128 << rung);
            for (k, e) in bucket.drain(..) {
                let r = if k == self.anchor {
                    0
                } else {
                    rung_of(k, self.anchor)
                };
                debug_assert!(r < rung, "spread must move keys down");
                self.rungs[r].push((k, e));
                self.occupied |= 1u128 << r;
            }
            self.rungs[rung] = bucket; // hand the capacity back
        }
    }

    pub(crate) fn clear(&mut self) {
        for r in self.rungs.iter_mut() {
            r.clear();
        }
        self.occupied = 0;
        self.anchor = 0;
        self.last = 0;
        self.active.clear();
        self.active_rung = 0;
        self.min_key = None;
        self.late.clear();
        self.len = 0;
    }
}

/// The rung for `key` relative to `anchor`: the index of the highest
/// differing bit. Caller guarantees `key != anchor` (so they differ).
#[inline]
fn rung_of(key: u128, anchor: u128) -> usize {
    (127 - (key ^ anchor).leading_zeros()) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_ascending_regardless_of_push_order() {
        let mut l = Ladder::new();
        for &k in &[5u128, 1, 9, 3, 7, 2, 8, 4, 6] {
            l.push(k, k);
        }
        let mut out = Vec::new();
        while let Some((k, p)) = l.pop() {
            assert_eq!(k, p);
            out.push(k);
        }
        assert_eq!(out, (1..=9).collect::<Vec<u128>>());
        assert_eq!(l.len(), 0);
    }

    #[test]
    fn late_pushes_still_pop_in_order() {
        let mut l = Ladder::new();
        l.push(10, "ten");
        l.push(20, "twenty");
        assert_eq!(l.pop(), Some((10, "ten")));
        // 5 < last=10: takes the late path but must pop before 20.
        l.push(5, "five");
        assert_eq!(l.peek_key(), Some(5));
        assert_eq!(l.pop(), Some((5, "five")));
        assert_eq!(l.pop(), Some((20, "twenty")));
        assert_eq!(l.pop(), None);
    }

    #[test]
    fn wide_key_spread_exercises_high_rungs() {
        // Powers of two hit every rung; push high-to-low so activation
        // repeatedly finds a new lowest rung to swap in.
        let keys: Vec<u128> = (0..120).rev().map(|i| 1u128 << i).collect();
        let mut l = Ladder::new();
        for &k in &keys {
            l.push(k, k);
        }
        let mut out = Vec::new();
        while let Some((k, _)) = l.pop() {
            out.push(k);
        }
        let mut sorted = keys;
        sorted.sort_unstable();
        assert_eq!(out, sorted);
    }

    #[test]
    fn oversized_rung_spreads_and_still_drains_ascending() {
        // 64 consecutive keys land in one high rung (they share a long
        // prefix), forcing the spread path, then interleave with pushes
        // below and above the active span.
        let mut l = Ladder::new();
        for k in 0..64u128 {
            l.push((1 << 90) + k * 3, k);
        }
        assert_eq!(l.pop().map(|(k, _)| k), Some(1 << 90));
        // Below the active ceiling: must pop before the rest.
        l.push((1 << 90) + 1, 1000);
        // Far above: a plain rung push.
        l.push(1 << 100, 2000);
        let mut prev = 1 << 90;
        while let Some((k, _)) = l.pop() {
            assert!(k > prev, "pops must ascend: {prev} then {k}");
            prev = k;
        }
        assert_eq!(prev, 1 << 100);
        assert_eq!(l.len(), 0);
    }

    #[test]
    fn clear_resets_everything() {
        let mut l = Ladder::new();
        l.push(3, ());
        l.pop();
        l.push(1, ()); // late
        l.push(7, ());
        l.clear();
        assert_eq!(l.len(), 0);
        assert_eq!(l.peek_key(), None);
        assert_eq!(l.pop(), None);
        // After clear the anchor resets, so small keys ladder again.
        l.push(1, ());
        assert_eq!(l.pop(), Some((1, ())));
    }
}
