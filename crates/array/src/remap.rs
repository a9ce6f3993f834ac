//! The chunk remap table: where every volume chunk physically lives.
//!
//! [`RemapTable`] maintains the bijection between volume chunks and
//! `(disk, slot)` placements. The initial layout stripes chunks round-robin
//! across the stripe's `w` disks (chunk *c* → disk *c mod w*, slot
//! *c div w*), exactly the balanced layout a conventional array would use.
//! Power policies then reshape it through [`RemapTable::relocate`] and
//! [`RemapTable::swap`].
//!
//! The table stores the striping formula plus the placements of the pages
//! of chunks that ever moved (see [`PagedTable`]), so a fleet array that
//! moves a few dozen chunks of a large shared volume holds a few pages,
//! while one that moves nearly every chunk holds a dense table.
//!
//! Invariants enforced (and property-tested):
//! * every chunk has exactly one placement;
//! * no two chunks share a placement;
//! * per-disk occupancy never exceeds the slot capacity.

use crate::paged::PagedTable;
use crate::types::{ArrayConfig, ChunkId, DiskId};
use std::ops::Range;

/// Physical placement of one chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Which disk.
    pub disk: DiskId,
    /// Chunk slot on that disk; physical sector = `slot × chunk_sectors`.
    pub slot: u32,
}

/// A [`Placement`] as the table stores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cell {
    disk: u32,
    slot: u32,
}

/// The chunk → placement table with free-slot management.
#[derive(Debug, Clone)]
pub struct RemapTable {
    /// Placements on the pages of chunks that ever moved; every chunk on
    /// an unwritten page is where striping put it.
    moved: PagedTable<Cell>,
    /// Disks the initial layout stripes over.
    stripe: u32,
    /// Recycled free slots per disk (from chunks that moved away).
    free: Vec<Vec<u32>>,
    /// Next never-used slot per disk.
    fresh: Vec<u32>,
    slots_per_disk: u32,
    chunk_sectors: u64,
    occupancy: Vec<u32>,
    /// Bumps on every committed relocation or swap; telemetry reconciles
    /// this against the count of remap-mutating migration commits.
    version: u64,
}

impl RemapTable {
    /// Builds the initial striped layout for `config`.
    ///
    /// # Panics
    /// Panics if the config does not validate.
    pub fn striped(config: &ArrayConfig) -> RemapTable {
        config.validate().expect("invalid array config");
        let stripe = config.effective_stripe_width() as u32;
        let chunks = config.volume_chunks;
        // Slot bookkeeping covers every disk, even those outside the
        // initial stripe (migration may move chunks onto them later).
        let fresh: Vec<u32> = (0..config.disks as u32)
            .map(|d| striped_below(chunks, stripe, d))
            .collect();
        RemapTable {
            moved: PagedTable::new(chunks),
            stripe,
            free: vec![Vec::new(); config.disks],
            occupancy: fresh.clone(),
            fresh,
            slots_per_disk: config.slots_per_disk(),
            chunk_sectors: config.chunk_sectors,
            version: 0,
        }
    }

    /// Number of chunks.
    pub fn chunks(&self) -> u32 {
        self.moved.len()
    }

    /// Number of disks.
    pub fn disks(&self) -> usize {
        self.fresh.len()
    }

    /// Sectors per chunk.
    pub fn chunk_sectors(&self) -> u64 {
        self.chunk_sectors
    }

    /// Where `chunk` lives.
    ///
    /// # Panics
    /// Panics if `chunk` is out of range.
    #[inline]
    pub fn placement(&self, chunk: ChunkId) -> Placement {
        let cell = match self.moved.get(chunk.0) {
            Some(&cell) => cell,
            None => striped(self.stripe, chunk.0),
        };
        Placement {
            disk: DiskId(cell.disk as usize),
            slot: cell.slot,
        }
    }

    /// The disk holding `chunk`.
    pub fn disk_of(&self, chunk: ChunkId) -> DiskId {
        self.placement(chunk).disk
    }

    /// The first physical sector of `chunk` on its disk.
    pub fn physical_sector(&self, chunk: ChunkId) -> u64 {
        u64::from(self.placement(chunk).slot) * self.chunk_sectors
    }

    fn set(&mut self, chunk: ChunkId, p: Placement) {
        let stripe = self.stripe;
        *self.moved.get_or_init(chunk.0, |c| striped(stripe, c)) = Cell {
            disk: p.disk.index() as u32,
            slot: p.slot,
        };
    }

    /// Chunks currently resident on `disk`, ascending (O(chunks / w) plus
    /// the written pages; for planners and the failure path, not per
    /// request).
    pub fn chunks_on(&self, disk: DiskId) -> Vec<ChunkId> {
        let d = disk.index() as u32;
        let w = self.stripe;
        let mut out = Vec::new();
        for (ids, cells) in self.moved.runs(0..self.chunks()) {
            match cells {
                Some(cells) => out.extend(
                    ids.zip(cells)
                        .filter(|(_, cell)| cell.disk == d)
                        .map(|(c, _)| ChunkId(c)),
                ),
                None if d < w => {
                    let first = ids.start + (d + w - ids.start % w) % w;
                    out.extend((first..ids.end).step_by(w as usize).map(ChunkId));
                }
                None => {}
            }
        }
        out
    }

    /// Adds to `counts[d]` the number of chunks with ids in `ids` that live
    /// on disk `d` (O(w) per run of unwritten pages plus the written pages
    /// in range). `counts` holds one entry per disk.
    pub fn count_residents(&self, ids: Range<u32>, counts: &mut [usize]) {
        let w = self.stripe;
        for (ids, cells) in self.moved.runs(ids) {
            match cells {
                Some(cells) => {
                    for cell in cells {
                        counts[cell.disk as usize] += 1;
                    }
                }
                None => {
                    for (d, n) in counts.iter_mut().enumerate().take(w as usize) {
                        let d = d as u32;
                        *n += (striped_below(ids.end, w, d) - striped_below(ids.start, w, d))
                            as usize;
                    }
                }
            }
        }
    }

    /// Reverse lookup: the chunk living at (`disk`, `slot`), if any.
    /// O(1) while the slot's striped owner has not moved, else a scan of
    /// the written pages; used on the failure path (redirecting requests
    /// already addressed to a dead disk), not per request in steady state.
    pub fn chunk_at(&self, disk: DiskId, slot: u32) -> Option<ChunkId> {
        let d = disk.index() as u32;
        let w = self.stripe;
        if d < w {
            let owner = u64::from(slot) * u64::from(w) + u64::from(d);
            if owner < u64::from(self.chunks()) && self.moved.get(owner as u32).is_none() {
                return Some(ChunkId(owner as u32));
            }
        }
        // Anything else there has moved, so it lives on a written page.
        let want = Cell { disk: d, slot };
        self.moved
            .runs(0..self.chunks())
            .filter_map(|(ids, cells)| Some(ids.zip(cells?).find(|(_, c)| **c == want)?.0))
            .next()
            .map(ChunkId)
    }

    /// Current number of chunks on `disk`.
    pub fn occupancy(&self, disk: DiskId) -> u32 {
        self.occupancy[disk.index()]
    }

    /// True if `disk` has at least one free slot.
    pub fn has_free_slot(&self, disk: DiskId) -> bool {
        self.occupancy[disk.index()] < self.slots_per_disk
    }

    /// Allocates a free slot on `disk` without assigning it (the migration
    /// engine reserves the destination before the copy starts). Returns
    /// `None` if the disk is full.
    pub fn reserve_slot(&mut self, disk: DiskId) -> Option<u32> {
        let d = disk.index();
        if self.occupancy[d] >= self.slots_per_disk {
            return None;
        }
        self.occupancy[d] += 1;
        if let Some(s) = self.free[d].pop() {
            Some(s)
        } else {
            let s = self.fresh[d];
            // occupancy < slots_per_disk guarantees fresh slots remain or
            // the free list was non-empty.
            debug_assert!(s < self.slots_per_disk);
            self.fresh[d] += 1;
            Some(s)
        }
    }

    /// Returns a previously reserved (but now unneeded) slot to the pool.
    pub fn release_slot(&mut self, disk: DiskId, slot: u32) {
        let d = disk.index();
        debug_assert!(self.occupancy[d] > 0);
        self.occupancy[d] -= 1;
        self.free[d].push(slot);
    }

    /// Commits a relocation: `chunk` now lives at (`dst`, `dst_slot`), and
    /// its old slot is freed. `dst_slot` must have been obtained from
    /// [`RemapTable::reserve_slot`].
    pub fn relocate(&mut self, chunk: ChunkId, dst: DiskId, dst_slot: u32) {
        let old = self.placement(chunk);
        self.set(
            chunk,
            Placement {
                disk: dst,
                slot: dst_slot,
            },
        );
        let od = old.disk.index();
        debug_assert!(self.occupancy[od] > 0);
        self.occupancy[od] -= 1;
        self.free[od].push(old.slot);
        self.version += 1;
    }

    /// Commits a swap: the two chunks exchange placements. They must live
    /// on different disks (swapping within a disk is a no-op for power
    /// purposes and is rejected to catch planner bugs).
    ///
    /// # Panics
    /// Panics if the chunks share a disk.
    pub fn swap(&mut self, a: ChunkId, b: ChunkId) {
        let pa = self.placement(a);
        let pb = self.placement(b);
        assert_ne!(pa.disk, pb.disk, "swap within one disk");
        self.set(a, pb);
        self.set(b, pa);
        self.version += 1;
    }

    /// Layout version: the number of committed relocations and swaps
    /// since construction.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Checks the bijection invariant: every placement unique, occupancy
    /// counters consistent. O(chunks); used by tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut seen = std::collections::HashSet::with_capacity(self.chunks() as usize);
        let mut occ = vec![0u32; self.fresh.len()];
        for c in 0..self.chunks() {
            let p = self.placement(ChunkId(c));
            if p.slot >= self.slots_per_disk {
                return Err(format!("chunk {c} slot {} out of range", p.slot));
            }
            if !seen.insert((p.disk, p.slot)) {
                return Err(format!("duplicate placement for chunk {c}: {p:?}"));
            }
            occ[p.disk.index()] += 1;
        }
        for (d, (&have, &counted)) in self.occupancy.iter().zip(&occ).enumerate() {
            // `occupancy` includes reserved-but-uncommitted slots, so it may
            // exceed the placed count but never undercount it.
            if have < counted {
                return Err(format!(
                    "disk {d} occupancy {have} below placed count {counted}"
                ));
            }
            if have > self.slots_per_disk {
                return Err(format!("disk {d} over capacity: {have}"));
            }
        }
        Ok(())
    }
}

/// Where striping over `w` disks puts chunk `c`.
#[inline]
fn striped(w: u32, c: u32) -> Cell {
    Cell {
        disk: c % w,
        slot: c / w,
    }
}

/// How many of the chunks `0..x` striping over `w` disks puts on disk `d`.
fn striped_below(x: u32, w: u32, d: u32) -> u32 {
    if d < w {
        x / w + u32::from(x % w > d)
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(disks: usize, chunks: u32) -> ArrayConfig {
        let mut c = ArrayConfig::default_for_volume(1 << 30);
        c.disks = disks;
        c.volume_chunks = chunks;
        c
    }

    #[test]
    fn striped_layout_round_robins() {
        let t = RemapTable::striped(&config(4, 10));
        for c in 0..10u32 {
            let p = t.placement(ChunkId(c));
            assert_eq!(p.disk.index(), (c as usize) % 4);
            assert_eq!(p.slot, c / 4);
        }
        t.check_invariants().unwrap();
        assert_eq!(t.occupancy(DiskId(0)), 3);
        assert_eq!(t.occupancy(DiskId(3)), 2);
    }

    #[test]
    fn physical_sector_uses_slot() {
        let t = RemapTable::striped(&config(4, 10));
        assert_eq!(t.physical_sector(ChunkId(0)), 0);
        assert_eq!(t.physical_sector(ChunkId(4)), t.chunk_sectors());
    }

    #[test]
    fn chunks_on_lists_residents() {
        let t = RemapTable::striped(&config(4, 10));
        let on0 = t.chunks_on(DiskId(0));
        assert_eq!(on0, vec![ChunkId(0), ChunkId(4), ChunkId(8)]);
    }

    #[test]
    fn chunk_at_inverts_placement() {
        let t = RemapTable::striped(&config(4, 10));
        for c in 0..10u32 {
            let p = t.placement(ChunkId(c));
            assert_eq!(t.chunk_at(p.disk, p.slot), Some(ChunkId(c)));
        }
        assert_eq!(t.chunk_at(DiskId(3), 99), None);
    }

    #[test]
    fn relocate_moves_and_frees() {
        let mut t = RemapTable::striped(&config(4, 8));
        let slot = t.reserve_slot(DiskId(3)).unwrap();
        t.relocate(ChunkId(0), DiskId(3), slot);
        assert_eq!(t.disk_of(ChunkId(0)), DiskId(3));
        assert_eq!(t.occupancy(DiskId(0)), 1);
        assert_eq!(t.occupancy(DiskId(3)), 3);
        t.check_invariants().unwrap();
        // The freed slot on disk 0 is reusable.
        let s = t.reserve_slot(DiskId(0)).unwrap();
        assert_eq!(s, 0, "recycled slot should be handed out");
    }

    #[test]
    fn swap_exchanges_placements() {
        let mut t = RemapTable::striped(&config(4, 8));
        let pa = t.placement(ChunkId(0));
        let pb = t.placement(ChunkId(1));
        t.swap(ChunkId(0), ChunkId(1));
        assert_eq!(t.placement(ChunkId(0)), pb);
        assert_eq!(t.placement(ChunkId(1)), pa);
        t.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "swap within one disk")]
    fn swap_same_disk_rejected() {
        let mut t = RemapTable::striped(&config(4, 8));
        t.swap(ChunkId(0), ChunkId(4)); // both on disk 0
    }

    #[test]
    fn reserve_exhausts_at_capacity() {
        let mut cfg = config(2, 4);
        cfg.volume_chunks = 4;
        let mut t = RemapTable::striped(&cfg);
        let cap = cfg.slots_per_disk();
        // Fill disk 0 to the brim.
        let mut got = 0;
        while t.reserve_slot(DiskId(0)).is_some() {
            got += 1;
        }
        assert_eq!(got, cap - 2, "2 slots were taken by initial striping");
        assert!(!t.has_free_slot(DiskId(0)));
    }

    #[test]
    fn release_returns_capacity() {
        let mut t = RemapTable::striped(&config(2, 4));
        let s = t.reserve_slot(DiskId(0)).unwrap();
        let occ = t.occupancy(DiskId(0));
        t.release_slot(DiskId(0), s);
        assert_eq!(t.occupancy(DiskId(0)), occ - 1);
    }

    /// Any interleaving of relocations and swaps preserves the bijection
    /// invariant. Deterministic randomised sweep over 64 op sequences.
    #[test]
    fn random_migrations_keep_bijection() {
        for case in 0..64u64 {
            let mut rng = simkit::DetRng::new(0xB17E ^ case, "remap-bijection");
            let mut t = RemapTable::striped(&config(8, 64));
            for _ in 0..rng.below(200) {
                let a = ChunkId(rng.below(64) as u32);
                let b = ChunkId(rng.below(64) as u32);
                let dst = DiskId(rng.below(8) as usize);
                if rng.chance(0.5) {
                    if let Some(slot) = t.reserve_slot(dst) {
                        t.relocate(a, dst, slot);
                    }
                } else if t.disk_of(a) != t.disk_of(b) {
                    t.swap(a, b);
                }
            }
            assert!(t.check_invariants().is_ok(), "case {case}");
        }
    }

    /// The dense table the paged one replaced: one placement per chunk,
    /// written at construction, and linear scans for the reverse lookups.
    /// Kept only as the oracle of `paged_table_matches_dense_oracle`.
    struct Dense {
        placements: Vec<Placement>,
        free: Vec<Vec<u32>>,
        fresh: Vec<u32>,
        occupancy: Vec<u32>,
        slots_per_disk: u32,
    }

    impl Dense {
        fn striped(config: &ArrayConfig) -> Dense {
            let n = config.effective_stripe_width();
            let mut fresh = vec![0u32; config.disks];
            let mut occupancy = vec![0u32; config.disks];
            let placements = (0..config.volume_chunks as usize)
                .map(|c| {
                    let disk = c % n;
                    fresh[disk] += 1;
                    occupancy[disk] += 1;
                    Placement {
                        disk: DiskId(disk),
                        slot: fresh[disk] - 1,
                    }
                })
                .collect();
            Dense {
                placements,
                free: vec![Vec::new(); config.disks],
                fresh,
                occupancy,
                slots_per_disk: config.slots_per_disk(),
            }
        }

        fn chunks_on(&self, disk: DiskId) -> Vec<ChunkId> {
            (0..self.placements.len() as u32)
                .map(ChunkId)
                .filter(|c| self.placements[c.index()].disk == disk)
                .collect()
        }

        fn chunk_at(&self, disk: DiskId, slot: u32) -> Option<ChunkId> {
            self.placements
                .iter()
                .position(|p| p.disk == disk && p.slot == slot)
                .map(|c| ChunkId(c as u32))
        }

        fn reserve_slot(&mut self, disk: DiskId) -> Option<u32> {
            let d = disk.index();
            if self.occupancy[d] >= self.slots_per_disk {
                return None;
            }
            self.occupancy[d] += 1;
            Some(self.free[d].pop().unwrap_or_else(|| {
                self.fresh[d] += 1;
                self.fresh[d] - 1
            }))
        }

        fn release_slot(&mut self, disk: DiskId, slot: u32) {
            self.occupancy[disk.index()] -= 1;
            self.free[disk.index()].push(slot);
        }

        fn relocate(&mut self, chunk: ChunkId, dst: DiskId, slot: u32) {
            let old = std::mem::replace(
                &mut self.placements[chunk.index()],
                Placement { disk: dst, slot },
            );
            self.occupancy[old.disk.index()] -= 1;
            self.free[old.disk.index()].push(old.slot);
        }

        fn swap(&mut self, a: ChunkId, b: ChunkId) {
            self.placements.swap(a.index(), b.index());
        }
    }

    /// Compares every query of the paged table with the dense oracle.
    fn assert_matches(t: &RemapTable, o: &Dense, rng: &mut simkit::DetRng, ctx: &str) {
        t.check_invariants()
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        let chunks = o.placements.len() as u32;
        for c in 0..chunks {
            let p = o.placements[c as usize];
            assert_eq!(t.placement(ChunkId(c)), p, "{ctx}: placement of {c}");
            assert_eq!(t.chunk_at(p.disk, p.slot), Some(ChunkId(c)), "{ctx}");
        }
        for d in 0..o.occupancy.len() {
            let disk = DiskId(d);
            assert_eq!(t.occupancy(disk), o.occupancy[d], "{ctx}: disk {d}");
            assert_eq!(t.chunks_on(disk), o.chunks_on(disk), "{ctx}: disk {d}");
            // Empty and recycled slots, and slots past the last one used.
            for _ in 0..4 {
                let slot = rng.below(u64::from(o.fresh[d]) + 3) as u32;
                assert_eq!(t.chunk_at(disk, slot), o.chunk_at(disk, slot), "{ctx}");
            }
        }
        let lo = rng.below(u64::from(chunks) + 1) as u32;
        let hi = lo + rng.below(u64::from(chunks - lo) + 1) as u32;
        let mut counts = vec![0; o.occupancy.len()];
        t.count_residents(lo..hi, &mut counts);
        let mut want = vec![0; o.occupancy.len()];
        for p in &o.placements[lo as usize..hi as usize] {
            want[p.disk.index()] += 1;
        }
        assert_eq!(counts, want, "{ctx}: residents of {lo}..{hi}");
    }

    /// Seeded sequences of reservations, releases, relocations and swaps
    /// drive the paged table and the dense oracle alike; every query
    /// agrees after every operation. Volumes span a partial last page and
    /// several pages, with moves clustered on a few pages or spread over
    /// all of them, and the MAID layout (a stripe narrower than the array)
    /// beside the full stripe.
    #[test]
    fn paged_table_matches_dense_oracle() {
        for case in 0..48u64 {
            let mut rng = simkit::DetRng::new(0x2E4A ^ case, "remap-oracle");
            let disks = 2 + rng.below(7) as usize;
            let chunks = 1 + rng.below(3 * u64::from(crate::paged::PAGE) + 40) as u32;
            let mut cfg = config(disks, chunks);
            if case % 3 == 0 {
                cfg.stripe_width = Some(1 + rng.below(disks as u64 - 1) as usize);
            }
            let mut t = RemapTable::striped(&cfg);
            let mut o = Dense::striped(&cfg);
            // A narrow window of chunks keeps the moves on a few pages.
            let window = if rng.chance(0.5) {
                chunks.min(1 + rng.below(40) as u32)
            } else {
                chunks
            };
            let base = rng.below(u64::from(chunks - window) + 1) as u32;
            let mut reserved: Vec<(DiskId, u32)> = Vec::new();
            assert_matches(&t, &o, &mut rng, &format!("case {case} start"));
            for step in 0..60 {
                let ctx = format!("case {case} step {step}");
                let a = ChunkId(base + rng.below(u64::from(window)) as u32);
                let b = ChunkId(base + rng.below(u64::from(window)) as u32);
                match rng.below(4) {
                    0 => {
                        let dst = DiskId(rng.below(disks as u64) as usize);
                        let slot = t.reserve_slot(dst);
                        assert_eq!(slot, o.reserve_slot(dst), "{ctx}");
                        reserved.extend(slot.map(|s| (dst, s)));
                    }
                    1 if !reserved.is_empty() => {
                        let (disk, slot) =
                            reserved.swap_remove(rng.below(reserved.len() as u64) as usize);
                        t.release_slot(disk, slot);
                        o.release_slot(disk, slot);
                    }
                    2 if !reserved.is_empty() => {
                        let (dst, slot) =
                            reserved.swap_remove(rng.below(reserved.len() as u64) as usize);
                        t.relocate(a, dst, slot);
                        o.relocate(a, dst, slot);
                    }
                    _ if t.disk_of(a) != t.disk_of(b) => {
                        t.swap(a, b);
                        o.swap(a, b);
                    }
                    _ => continue,
                }
                assert_matches(&t, &o, &mut rng, &ctx);
            }
        }
    }
}
