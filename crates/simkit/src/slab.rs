//! A free-list slab: dense, reusing storage for short-lived records keyed
//! by small integers.
//!
//! The simulator's in-flight request state (gather entries with their
//! retry counts, pending parent volumes, migration jobs and their copy
//! pieces) is born and dies millions of times per run. A hash- or
//! probe-based map pays a key hash plus probe chain on every touch and
//! grows without bound as ids march upward; the slab instead hands out
//! *slot indices* as the ids themselves, so every access is one bounds
//! check and an array index, and a slot freed by a completed request is
//! immediately reused by the next arrival — the backing `Vec` stays as
//! small as the peak concurrency, not the run length.
//!
//! Keys are `u32` slot indices. `insert` returns the key; the caller
//! threads it through whatever queues reference the record and hands it
//! back to `remove` exactly once. Accessing a freed slot is a logic error
//! and panics (in debug via the occupancy check; `get`/`get_mut` return
//! `None`), never yields stale data typed as live.

/// A slot: either a live value or a link in the free list.
enum Slot<T> {
    /// Occupied by a live record.
    Full(T),
    /// Vacant; holds the index of the next free slot (`u32::MAX` = none).
    Free(u32),
}

/// A free-list slab allocator with `u32` keys. See the module docs.
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    /// Head of the free list (`u32::MAX` when empty).
    free_head: u32,
    len: usize,
}

const NIL: u32 = u32::MAX;

impl<T> Slab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty slab with room for `cap` records before growing.
    pub fn with_capacity(cap: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(cap),
            free_head: NIL,
            len: 0,
        }
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no records are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Stores `value`, returning its slot key. Reuses the most recently
    /// freed slot when one exists (LIFO keeps the hot slots cache-warm).
    #[inline]
    pub fn insert(&mut self, value: T) -> u32 {
        self.len += 1;
        if self.free_head != NIL {
            let key = self.free_head;
            match std::mem::replace(&mut self.slots[key as usize], Slot::Full(value)) {
                Slot::Free(next) => self.free_head = next,
                Slot::Full(_) => unreachable!("free list pointed at a full slot"),
            }
            key
        } else {
            let key = self.slots.len() as u32;
            assert!(key != NIL, "slab exhausted u32 key space");
            self.slots.push(Slot::Full(value));
            key
        }
    }

    /// Removes and returns the record at `key`, or `None` if the slot is
    /// vacant or out of range.
    #[inline]
    pub fn remove(&mut self, key: u32) -> Option<T> {
        let slot = self.slots.get_mut(key as usize)?;
        if matches!(slot, Slot::Free(_)) {
            return None;
        }
        match std::mem::replace(slot, Slot::Free(self.free_head)) {
            Slot::Full(v) => {
                self.free_head = key;
                self.len -= 1;
                Some(v)
            }
            Slot::Free(_) => unreachable!("checked occupied above"),
        }
    }

    /// A shared reference to the record at `key`, if live.
    #[inline]
    pub fn get(&self, key: u32) -> Option<&T> {
        match self.slots.get(key as usize) {
            Some(Slot::Full(v)) => Some(v),
            _ => None,
        }
    }

    /// A mutable reference to the record at `key`, if live.
    #[inline]
    pub fn get_mut(&mut self, key: u32) -> Option<&mut T> {
        match self.slots.get_mut(key as usize) {
            Some(Slot::Full(v)) => Some(v),
            _ => None,
        }
    }

    /// True when `key` addresses a live record.
    #[inline]
    pub fn contains_key(&self, key: u32) -> bool {
        matches!(self.slots.get(key as usize), Some(Slot::Full(_)))
    }

    /// Live records in key order, as `(key, &record)`. Walks every slot
    /// up to the high-water mark, so it suits small, rarely scanned slabs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.slots.iter().enumerate().filter_map(|(k, s)| match s {
            Slot::Full(v) => Some((k as u32, v)),
            Slot::Free(_) => None,
        })
    }

    /// Live records in key order, as `(key, &mut record)`.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u32, &mut T)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(k, s)| match s {
                Slot::Full(v) => Some((k as u32, v)),
                Slot::Free(_) => None,
            })
    }

    /// Drops every record and resets the free list. Allocated capacity is
    /// retained.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free_head = NIL;
        self.len = 0;
    }
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_ne!(a, b);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a), Some(&"a"));
        assert_eq!(s.get(b), Some(&"b"));
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.remove(a), None, "double remove is None, not stale data");
        assert!(!s.contains_key(a));
        assert!(s.contains_key(b));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn freed_slots_are_reused_lifo() {
        let mut s = Slab::new();
        let keys: Vec<u32> = (0..4).map(|i| s.insert(i)).collect();
        s.remove(keys[1]);
        s.remove(keys[3]);
        // LIFO: the most recently freed slot comes back first.
        assert_eq!(s.insert(10), keys[3]);
        assert_eq!(s.insert(11), keys[1]);
        // Free list exhausted: next insert grows the vec.
        assert_eq!(s.insert(12), 4);
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut s = Slab::new();
        let k = s.insert(1u64);
        *s.get_mut(k).unwrap() += 41;
        assert_eq!(s.get(k), Some(&42));
    }

    #[test]
    fn clear_resets_keys() {
        let mut s = Slab::new();
        let k = s.insert('x');
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.get(k), None);
        assert_eq!(s.insert('y'), 0, "keys restart after clear");
    }

    #[test]
    fn out_of_range_keys_are_vacant() {
        let mut s = Slab::<u8>::new();
        assert_eq!(s.get(7), None);
        assert_eq!(s.remove(7), None);
        assert!(!s.contains_key(7));
    }

    /// Oracle check against a HashMap through a deterministic churn of
    /// inserts and removes — same live set, same values, at every step,
    /// and `iter` yields exactly that live set in key order.
    #[test]
    fn churn_matches_hashmap_oracle() {
        use std::collections::HashMap;
        let mut s = Slab::new();
        let mut oracle: HashMap<u32, u64> = HashMap::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut live: Vec<u32> = Vec::new();
        for i in 0..10_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            if live.is_empty() || !state.is_multiple_of(3) {
                let k = s.insert(i);
                assert!(oracle.insert(k, i).is_none(), "key {k} reused while live");
                live.push(k);
            } else {
                let ix = (state as usize / 3) % live.len();
                let k = live.swap_remove(ix);
                assert_eq!(s.remove(k), oracle.remove(&k));
            }
            assert_eq!(s.len(), oracle.len());
            if i % 97 == 0 {
                let mut want: Vec<(u32, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
                want.sort_unstable();
                let got: Vec<(u32, u64)> = s.iter().map(|(k, &v)| (k, v)).collect();
                assert_eq!(got, want, "iter disagrees with the oracle at step {i}");
            }
        }
        for (&k, v) in &oracle {
            assert_eq!(s.get(k), Some(v));
        }
        for (k, v) in s.iter_mut() {
            *v += u64::from(k);
        }
        for (&k, &v) in &oracle {
            assert_eq!(
                s.get(k),
                Some(&(v + u64::from(k))),
                "iter_mut missed key {k}"
            );
        }
    }
}
