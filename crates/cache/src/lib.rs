//! Controller cache hierarchy for the disk-array simulator.
//!
//! Two mechanisms live here, both deterministic and std-only:
//!
//! * [`DramCache`] — a set-associative controller DRAM cache with a
//!   write-back buffer. Read hits are served at DRAM latency without
//!   touching a spindle; writes are absorbed and marked dirty, then
//!   destaged in periodic flush batches (or a forced flush when the dirty
//!   set grows past a cap). Flushes are *batched disk writes*, so they can
//!   wake disks a spin-down policy put to sleep — that interaction is the
//!   point of modelling the cache at all.
//! * [`TierDirectory`] — the directory for a cache-*disk* tier (MAID-style):
//!   an LRU map from chunk to a (disk, slot) location on one of a few
//!   always-spinning cache disks. `policies/maid.rs` routes read hits
//!   through it instead of approximating the tier internally.
//!
//! Eviction order, flush order, and set indexing are pure functions of the
//! request history: no hashing randomness, no clocks. The simulator relies
//! on that for bit-identical replays.

/// Tunables for the controller DRAM cache.
///
/// `capacity_chunks == 0` disables the cache entirely: the simulator
/// behaves bit-identically to a build without one (locked down by
/// `tests/cache_equivalence.rs`).
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Total capacity in chunks. Rounded up to a multiple of `ways`.
    /// `0` disables the cache.
    pub capacity_chunks: u32,
    /// Set associativity. Eviction is LRU within a set.
    pub ways: u32,
    /// Latency charged to a request served entirely from DRAM, seconds.
    pub hit_latency_s: f64,
    /// Interval between periodic write-back flushes, seconds.
    pub flush_interval_s: f64,
    /// Dirty chunks that trigger a forced flush before the periodic timer.
    pub max_dirty_chunks: u32,
}

impl CacheConfig {
    /// A cache of `capacity_chunks` with the default shape: 8-way sets,
    /// 200 µs hit latency, 30 s flush interval, forced flush at a quarter
    /// of capacity dirty.
    pub fn with_capacity(capacity_chunks: u32) -> Self {
        CacheConfig {
            capacity_chunks,
            ways: 8,
            hit_latency_s: 200e-6,
            flush_interval_s: 30.0,
            max_dirty_chunks: (capacity_chunks / 4).max(64),
        }
    }

    /// True if the cache participates in the request path at all.
    pub fn is_enabled(&self) -> bool {
        self.capacity_chunks > 0
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self::with_capacity(4096)
    }
}

/// Counters for everything the DRAM layer did during a run.
///
/// `read_hits`/`write_absorbs` count *requests* served without disk
/// traffic; `writebacks`/`flushed_chunks` count *chunks* destaged. The
/// auditor reconciles these against the replayed event stream.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    /// Read requests whose every piece was resident.
    pub read_hits: u64,
    /// Read requests with at least one non-resident piece.
    pub read_misses: u64,
    /// Write requests absorbed into the write-back buffer.
    pub write_absorbs: u64,
    /// Dirty chunks destaged by eviction pressure (outside a flush batch).
    pub writebacks: u64,
    /// Flush batches issued (periodic + forced).
    pub flushes: u64,
    /// Flush batches forced by the dirty cap.
    pub forced_flushes: u64,
    /// Dirty chunks destaged by flush batches.
    pub flushed_chunks: u64,
}

impl CacheStats {
    /// Fraction of read requests served from DRAM.
    pub fn read_hit_rate(&self) -> f64 {
        let total = self.read_hits + self.read_misses;
        if total == 0 {
            0.0
        } else {
            self.read_hits as f64 / total as f64
        }
    }
}

/// One resident chunk within a set.
#[derive(Debug, Clone, Copy)]
struct Way {
    chunk: u32,
    dirty: bool,
    /// Logical LRU clock value of the last touch; smaller = colder.
    tick: u64,
}

/// A set-associative DRAM cache over chunk ids.
///
/// Pure mechanism: it tracks residency, dirtiness, and LRU order, and
/// reports which dirty chunk an insertion evicted. The simulator decides
/// what a hit, an absorb, or a flush *costs* — this type never touches
/// time or energy.
#[derive(Debug, Clone)]
pub struct DramCache {
    cfg: CacheConfig,
    sets: Vec<Vec<Way>>,
    ways: usize,
    /// Monotonic logical clock driving LRU order (deterministic — no wall
    /// time involved).
    clock: u64,
    dirty: usize,
}

impl DramCache {
    /// Builds a cache for `cfg`. Panics if `cfg` is disabled — callers
    /// gate on [`CacheConfig::is_enabled`].
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.is_enabled(), "DramCache::new on a disabled config");
        let ways = cfg.ways.max(1) as usize;
        let sets = (cfg.capacity_chunks as usize).div_ceil(ways).max(1);
        DramCache {
            cfg,
            sets: vec![Vec::new(); sets],
            ways,
            clock: 0,
            dirty: 0,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Number of dirty chunks awaiting destage.
    pub fn dirty_count(&self) -> usize {
        self.dirty
    }

    /// Total resident chunks.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// True if nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.sets.iter().all(Vec::is_empty)
    }

    #[inline]
    fn set_index(&self, chunk: u32) -> usize {
        // Fibonacci spread so striding chunk ids don't alias into one set.
        let h = (chunk as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize % self.sets.len()
    }

    /// True if `chunk` is resident; touches it to MRU.
    pub fn lookup(&mut self, chunk: u32) -> bool {
        let si = self.set_index(chunk);
        self.clock += 1;
        let clock = self.clock;
        match self.sets[si].iter_mut().find(|w| w.chunk == chunk) {
            Some(w) => {
                w.tick = clock;
                true
            }
            None => false,
        }
    }

    /// Makes `chunk` resident (clean if absent), returning the dirty chunk
    /// the insertion evicted, if any. Used to promote read misses.
    pub fn insert_clean(&mut self, chunk: u32) -> Option<u32> {
        self.touch(chunk, false)
    }

    /// Absorbs a write to `chunk`: resident and dirty afterwards. Returns
    /// the dirty chunk the insertion evicted, if any.
    pub fn write(&mut self, chunk: u32) -> Option<u32> {
        self.touch(chunk, true)
    }

    fn touch(&mut self, chunk: u32, dirty: bool) -> Option<u32> {
        let si = self.set_index(chunk);
        self.clock += 1;
        let clock = self.clock;
        let set = &mut self.sets[si];
        if let Some(w) = set.iter_mut().find(|w| w.chunk == chunk) {
            w.tick = clock;
            if dirty && !w.dirty {
                w.dirty = true;
                self.dirty += 1;
            }
            return None;
        }
        let mut evicted = None;
        if set.len() >= self.ways {
            let (coldest, _) = set
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.tick)
                .expect("set is non-empty");
            let victim = set.swap_remove(coldest);
            if victim.dirty {
                self.dirty -= 1;
                evicted = Some(victim.chunk);
            }
        }
        set.push(Way {
            chunk,
            dirty,
            tick: clock,
        });
        if dirty {
            self.dirty += 1;
        }
        evicted
    }

    /// Collects every dirty chunk into `out` (ascending order), marking
    /// them all clean. The chunks stay resident.
    pub fn drain_dirty(&mut self, out: &mut Vec<u32>) {
        out.clear();
        for set in &mut self.sets {
            for w in set.iter_mut() {
                if w.dirty {
                    w.dirty = false;
                    out.push(w.chunk);
                }
            }
        }
        self.dirty = 0;
        // Ascending chunk order: flush submission order must not depend on
        // set layout, only on which chunks are dirty.
        out.sort_unstable();
    }
}

/// Directory for a cache-disk tier: an LRU map from chunk to a
/// `(disk, slot)` location on one of the dedicated cache disks.
///
/// This is the tier MAID routes every request through, so both
/// operations are O(1) and hash nothing: a chunk-indexed table finds a
/// chunk's node, and the LRU order is a doubly linked list threaded
/// through one node per occupied slot.
#[derive(Debug)]
pub struct TierDirectory {
    /// chunk → index of its node in `nodes`, or [`NIL`]; grown to the
    /// highest chunk inserted.
    node_of: Vec<u32>,
    /// One node per occupied slot. Node `i` owns the `i`-th slot handed
    /// out — disk-0-first, low slots first — for as long as the directory
    /// lives; an eviction only hands its node to the incoming chunk.
    nodes: Vec<TierNode>,
    /// Coldest node (next to evict), or [`NIL`] when empty.
    head: u32,
    /// Hottest node, or [`NIL`] when empty.
    tail: u32,
    cache_disks: Vec<u32>,
    chunks_per_disk: u32,
}

/// End of the [`TierDirectory`] LRU list.
const NIL: u32 = u32::MAX;

/// One occupied slot of a [`TierDirectory`], linked into its LRU order.
#[derive(Debug, Clone, Copy)]
struct TierNode {
    chunk: u32,
    loc: (u32, u32),
    /// Next colder node, or [`NIL`].
    prev: u32,
    /// Next hotter node, or [`NIL`].
    next: u32,
}

impl TierDirectory {
    /// Builds a directory over `cache_disks`, each holding
    /// `chunks_per_disk` slots.
    pub fn new(cache_disks: &[u32], chunks_per_disk: u32) -> TierDirectory {
        TierDirectory {
            node_of: Vec::new(),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            cache_disks: cache_disks.to_vec(),
            chunks_per_disk,
        }
    }

    /// The tier location holding a copy of `chunk`, if any; touches it to
    /// MRU.
    pub fn lookup(&mut self, chunk: u32) -> Option<(u32, u32)> {
        let i = self.node(chunk)?;
        if i != self.tail {
            self.unlink(i);
            self.push_hottest(i);
        }
        Some(self.nodes[i as usize].loc)
    }

    /// Inserts `chunk`, evicting the LRU entry if full. Returns the slot
    /// the copy must be written to. A chunk already present keeps its slot
    /// and its place in the LRU order.
    pub fn insert(&mut self, chunk: u32) -> (u32, u32) {
        if let Some(i) = self.node(chunk) {
            return self.nodes[i as usize].loc;
        }
        let i = if self.nodes.len() < self.capacity() {
            let n = self.nodes.len() as u32;
            let loc = (
                self.cache_disks[(n / self.chunks_per_disk) as usize],
                n % self.chunks_per_disk,
            );
            self.nodes.push(TierNode {
                chunk,
                loc,
                prev: NIL,
                next: NIL,
            });
            n
        } else {
            let victim = self.head;
            assert_ne!(victim, NIL, "insert into a zero-capacity tier");
            self.unlink(victim);
            let node = &mut self.nodes[victim as usize];
            self.node_of[node.chunk as usize] = NIL;
            node.chunk = chunk;
            victim
        };
        let c = chunk as usize;
        if c >= self.node_of.len() {
            self.node_of.resize(c + 1, NIL);
        }
        self.node_of[c] = i;
        self.push_hottest(i);
        self.nodes[i as usize].loc
    }

    /// The node holding `chunk`, if the tier has a copy.
    fn node(&self, chunk: u32) -> Option<u32> {
        self.node_of
            .get(chunk as usize)
            .copied()
            .filter(|&i| i != NIL)
    }

    /// Detaches node `i` from the LRU list.
    fn unlink(&mut self, i: u32) {
        let TierNode { prev, next, .. } = self.nodes[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    /// Links detached node `i` in as the hottest.
    fn push_hottest(&mut self, i: u32) {
        let node = &mut self.nodes[i as usize];
        node.prev = self.tail;
        node.next = NIL;
        match self.tail {
            NIL => self.head = i,
            t => self.nodes[t as usize].next = i,
        }
        self.tail = i;
    }

    /// Number of chunks currently cached in the tier.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the tier holds no copies.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total slots across all cache disks.
    pub fn capacity(&self) -> usize {
        self.cache_disks.len() * self.chunks_per_disk as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DramCache {
        let mut cfg = CacheConfig::with_capacity(8);
        cfg.ways = 4;
        DramCache::new(cfg)
    }

    #[test]
    fn read_path_hits_after_promotion() {
        let mut c = small();
        assert!(!c.lookup(3), "cold cache misses");
        assert_eq!(c.insert_clean(3), None);
        assert!(c.lookup(3), "promoted chunk hits");
        assert_eq!(c.dirty_count(), 0, "clean promotion stays clean");
    }

    #[test]
    fn writes_mark_dirty_once() {
        let mut c = small();
        assert_eq!(c.write(5), None);
        assert_eq!(c.write(5), None);
        assert_eq!(c.dirty_count(), 1, "re-dirtying is idempotent");
        let mut out = Vec::new();
        c.drain_dirty(&mut out);
        assert_eq!(out, vec![5]);
        assert_eq!(c.dirty_count(), 0);
        assert!(c.lookup(5), "drained chunk stays resident");
    }

    #[test]
    fn drain_is_sorted_and_complete() {
        let mut c = DramCache::new(CacheConfig::with_capacity(64));
        for chunk in [40u32, 3, 17, 29, 8] {
            c.write(chunk);
        }
        let mut out = Vec::new();
        c.drain_dirty(&mut out);
        assert_eq!(out, vec![3, 8, 17, 29, 40], "ascending chunk order");
    }

    #[test]
    fn lru_eviction_within_set_returns_dirty_victim() {
        let mut cfg = CacheConfig::with_capacity(2);
        cfg.ways = 2;
        let mut c = DramCache::new(cfg);
        // One set of two ways: force eviction by finding three chunks that
        // share the set (with a single set, all do).
        assert_eq!(c.sets.len(), 1);
        c.write(1);
        c.insert_clean(2);
        c.lookup(1); // 2 is now LRU
        assert_eq!(c.insert_clean(3), None, "clean victim needs no writeback");
        assert!(!c.lookup(2), "LRU entry evicted");
        assert!(c.lookup(1), "MRU entry survives");
        // Now 1 (dirty) is cold after touching 3.
        c.lookup(3);
        assert_eq!(c.write(4), Some(1), "dirty victim surfaces for writeback");
        assert_eq!(c.dirty_count(), 1, "only the new write remains dirty");
    }

    #[test]
    fn capacity_rounds_up_to_way_multiple() {
        let mut cfg = CacheConfig::with_capacity(10);
        cfg.ways = 4;
        let c = DramCache::new(cfg);
        assert_eq!(c.sets.len(), 3, "ceil(10/4) sets");
    }

    #[test]
    fn zero_capacity_is_disabled() {
        assert!(!CacheConfig::with_capacity(0).is_enabled());
        assert!(CacheConfig::with_capacity(1).is_enabled());
    }

    #[test]
    fn stats_hit_rate() {
        let s = CacheStats {
            read_hits: 3,
            read_misses: 1,
            ..CacheStats::default()
        };
        assert!((s.read_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().read_hit_rate(), 0.0);
    }

    /// The `Vec` LRU the linked-list directory replaced, kept as its
    /// reference: every hit scans and shifts the order, every eviction
    /// shifts it from the front.
    struct VecTierDirectory {
        entries: std::collections::HashMap<u32, (u32, u32)>,
        /// LRU order: front = coldest.
        lru: Vec<u32>,
        capacity: usize,
        /// Free (disk, slot) pairs, handed out disk-0-first, low slots first.
        free: Vec<(u32, u32)>,
    }

    impl VecTierDirectory {
        fn new(cache_disks: &[u32], chunks_per_disk: u32) -> Self {
            let mut free = Vec::new();
            for &d in cache_disks.iter().rev() {
                for s in (0..chunks_per_disk).rev() {
                    free.push((d, s));
                }
            }
            VecTierDirectory {
                entries: std::collections::HashMap::new(),
                lru: Vec::new(),
                capacity: cache_disks.len() * chunks_per_disk as usize,
                free,
            }
        }

        fn lookup(&mut self, chunk: u32) -> Option<(u32, u32)> {
            let hit = self.entries.get(&chunk).copied();
            if hit.is_some() {
                if let Some(pos) = self.lru.iter().position(|&c| c == chunk) {
                    let c = self.lru.remove(pos);
                    self.lru.push(c);
                }
            }
            hit
        }

        /// As `TierDirectory::insert`, also returning the evicted chunk.
        fn insert(&mut self, chunk: u32) -> ((u32, u32), Option<u32>) {
            if let Some(&loc) = self.entries.get(&chunk) {
                return (loc, None);
            }
            let (loc, victim) = if self.entries.len() < self.capacity {
                (self.free.pop().expect("capacity accounted"), None)
            } else {
                let victim = self.lru.remove(0);
                (self.entries.remove(&victim).unwrap(), Some(victim))
            };
            self.entries.insert(chunk, loc);
            self.lru.push(chunk);
            (loc, victim)
        }
    }

    /// The directory's chunks from coldest to hottest, walking the list.
    fn lru_order(dir: &TierDirectory) -> Vec<u32> {
        let mut out = Vec::new();
        let mut i = dir.head;
        while i != NIL {
            out.push(dir.nodes[i as usize].chunk);
            i = dir.nodes[i as usize].next;
        }
        out
    }

    /// 250 k seeded operations per capacity — MAID's lookup-then-promote,
    /// bare lookups and re-inserts over a skewed chunk population about
    /// twice the capacity — against the `Vec` reference. Every location,
    /// eviction and `len` matches at every step, and the whole LRU order
    /// matches at checkpoints.
    #[test]
    fn tier_directory_matches_vec_reference() {
        let mut state = 0x7D1E_u64;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for (disks, per_disk) in [
            (&[3u32][..], 1u32),
            (&[3, 4][..], 1),
            (&[4, 5][..], 192),
            (&[4, 5][..], 3_072),
        ] {
            let mut dir = TierDirectory::new(disks, per_disk);
            let mut reference = VecTierDirectory::new(disks, per_disk);
            let cap = dir.capacity() as u64;
            let check_every = if cap > 64 { 997 } else { 1 };
            let mut evictions = 0u64;
            for step in 0..250_000u64 {
                // Squaring a uniform draw skews hits toward low chunk ids.
                let u = (next() >> 11) as f64 / (1u64 << 53) as f64;
                let chunk = (u * u * (2 * cap + 3) as f64) as u32;
                match next() % 4 {
                    0 => assert_eq!(dir.lookup(chunk), reference.lookup(chunk), "step {step}"),
                    1 => {
                        let (loc, victim) = reference.insert(chunk);
                        assert_eq!(dir.insert(chunk), loc, "step {step}");
                        if let Some(v) = victim {
                            evictions += 1;
                            assert_eq!(dir.node(v), None, "step {step}: {v} kept");
                        }
                    }
                    _ => {
                        let hit = reference.lookup(chunk);
                        assert_eq!(dir.lookup(chunk), hit, "step {step}");
                        if hit.is_none() {
                            let (loc, victim) = reference.insert(chunk);
                            assert_eq!(dir.insert(chunk), loc, "step {step}");
                            if let Some(v) = victim {
                                evictions += 1;
                                assert_eq!(dir.node(v), None, "step {step}: {v} kept");
                            }
                        }
                    }
                }
                assert_eq!(dir.len(), reference.entries.len(), "step {step}");
                if step % check_every == 0 {
                    assert_eq!(lru_order(&dir), reference.lru, "step {step}");
                }
            }
            assert_eq!(lru_order(&dir), reference.lru);
            assert!(evictions > 10_000, "capacity {cap}: {evictions} evictions");
        }
    }

    // Tier-directory behavior carried over from the MAID-internal version
    // it replaces (policies/maid.rs), so the swap is semantics-preserving.

    #[test]
    fn tier_lru_eviction() {
        let mut dir = TierDirectory::new(&[4, 5], 2); // capacity 4
        for c in 0..4u32 {
            dir.insert(c);
        }
        assert_eq!(dir.len(), 4);
        // Touch chunk 0 so it is MRU; inserting a 5th evicts chunk 1.
        assert!(dir.lookup(0).is_some());
        dir.insert(10);
        assert!(dir.lookup(1).is_none(), "LRU entry evicted");
        assert!(dir.lookup(0).is_some(), "MRU entry survives");
        assert_eq!(dir.len(), 4);
    }

    #[test]
    fn tier_slots_unique() {
        let mut dir = TierDirectory::new(&[4, 5], 64);
        let mut seen = std::collections::HashSet::new();
        for c in 0..128u32 {
            let loc = dir.insert(c);
            assert!(seen.insert(loc), "slot reused while not evicted: {loc:?}");
        }
    }

    #[test]
    fn tier_slots_fill_disk_zero_first() {
        let mut dir = TierDirectory::new(&[7, 9], 2);
        assert_eq!(dir.insert(0), (7, 0));
        assert_eq!(dir.insert(1), (7, 1));
        assert_eq!(dir.insert(2), (9, 0));
        assert_eq!(dir.insert(3), (9, 1));
        assert_eq!(dir.capacity(), 4);
    }

    #[test]
    fn tier_reinsert_is_stable() {
        let mut dir = TierDirectory::new(&[2], 8);
        let loc = dir.insert(11);
        assert_eq!(dir.insert(11), loc, "re-insert keeps the slot");
        assert_eq!(dir.len(), 1);
    }
}
