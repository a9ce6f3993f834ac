//! A per-chunk table that allocates storage only for the pages written.
//!
//! A workload usually touches a small part of its volume (a fleet array
//! serves a few tenant shards of a shared one), so per-chunk state kept
//! densely costs memory in proportion to the volume, not to the work.
//! [`PagedTable`] splits the index space into pages of [`PAGE`] entries and
//! allocates a page on its first write. An unwritten page reads as absent,
//! and each owner says what absent means: the striped layout for the remap
//! table, zero heat for the heat map. A workload that writes everywhere
//! ends up with every page: a dense table behind a small directory.

/// Entries per page.
pub(crate) const PAGE: u32 = 128;

/// Per-index entries of type `T`, stored only for written pages.
#[derive(Debug, Clone)]
pub(crate) struct PagedTable<T> {
    len: u32,
    /// Per page: 0 while unwritten, else 1 + its position in `cells`.
    dir: Vec<u32>,
    /// The written pages, [`PAGE`] entries each, in the order written.
    cells: Vec<T>,
}

impl<T: Copy> PagedTable<T> {
    /// An empty table over indices `0..len`.
    pub(crate) fn new(len: u32) -> PagedTable<T> {
        PagedTable {
            len,
            dir: vec![0; len.div_ceil(PAGE) as usize],
            cells: Vec::new(),
        }
    }

    /// Number of indices.
    pub(crate) fn len(&self) -> u32 {
        self.len
    }

    /// Entry `i`, or `None` while its page is unwritten.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub(crate) fn get(&self, i: u32) -> Option<&T> {
        assert!(i < self.len, "index {i} out of range {}", self.len);
        self.page(i / PAGE).map(|p| &p[(i % PAGE) as usize])
    }

    /// Page `p`'s entries, or `None` while it is unwritten.
    #[inline]
    fn page(&self, p: u32) -> Option<&[T]> {
        match self.dir[p as usize] {
            0 => None,
            at => {
                let start = (at - 1) as usize * PAGE as usize;
                Some(&self.cells[start..start + PAGE as usize])
            }
        }
    }

    /// Entry `i` for writing. An unwritten page is first filled with
    /// `init(j)` for each of its indices `j`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub(crate) fn get_or_init(&mut self, i: u32, init: impl Fn(u32) -> T) -> &mut T {
        assert!(i < self.len, "index {i} out of range {}", self.len);
        let p = i / PAGE;
        let mut at = self.dir[p as usize];
        if at == 0 {
            let page = PAGE as usize;
            if self.cells.capacity() - self.cells.len() < page {
                // Double, but never past the pages still unwritten (this
                // one included): a table written everywhere ends at its
                // dense size, not up to twice it.
                let unwritten = self.dir.len() - self.cells.len() / page;
                let grow = self.cells.len().max(page).min(unwritten * page);
                self.cells.reserve_exact(grow);
            }
            let base = p * PAGE;
            self.cells.extend((base..base + PAGE).map(init));
            at = (self.cells.len() / PAGE as usize) as u32;
            self.dir[p as usize] = at;
        }
        &mut self.cells[(at - 1) as usize * PAGE as usize + (i % PAGE) as usize]
    }

    /// Splits `range` into maximal runs that lie wholly on written pages
    /// (`Some`, with their entries) or wholly on unwritten ones (`None`),
    /// in index order.
    pub(crate) fn runs(
        &self,
        range: std::ops::Range<u32>,
    ) -> impl Iterator<Item = (std::ops::Range<u32>, Option<&[T]>)> + '_ {
        let end = range.end.min(self.len);
        let mut lo = range.start;
        std::iter::from_fn(move || {
            if lo >= end {
                return None;
            }
            let page_end = |i: u32| ((i / PAGE + 1) * PAGE).min(end);
            let start = lo;
            let run = match self.page(lo / PAGE) {
                Some(cells) => {
                    lo = page_end(lo);
                    let first = (start % PAGE) as usize;
                    Some(&cells[first..first + (lo - start) as usize])
                }
                None => {
                    lo = page_end(lo);
                    while lo < end && self.page(lo / PAGE).is_none() {
                        lo = page_end(lo);
                    }
                    None
                }
            };
            Some((start..lo, run))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_pages_read_as_absent() {
        let mut t: PagedTable<u32> = PagedTable::new(3 * PAGE + 5);
        assert!(t.get(0).is_none());
        *t.get_or_init(PAGE + 3, |j| j * 10) = 7;
        assert_eq!(t.get(PAGE + 3), Some(&7));
        assert_eq!(t.get(PAGE + 4), Some(&((PAGE + 4) * 10)));
        assert!(t.get(PAGE - 1).is_none());
        assert!(t.get(2 * PAGE).is_none());
        // The partial last page holds only in-range indices.
        *t.get_or_init(3 * PAGE + 4, |_| 0) = 1;
        assert_eq!(t.get(3 * PAGE + 4), Some(&1));
    }

    #[test]
    fn a_table_written_everywhere_holds_its_dense_size() {
        for pages in [1, 2, 3, 5, 8, 13, 100] {
            let len = pages * PAGE - 1;
            let mut t: PagedTable<u32> = PagedTable::new(len);
            // Last page first, so page order and index order differ.
            for p in (0..pages).rev() {
                t.get_or_init(p * PAGE, |j| j);
                let written = (pages - p) as usize * PAGE as usize;
                assert!(t.cells.capacity() >= written);
            }
            assert_eq!(t.cells.capacity(), (pages * PAGE) as usize, "{pages}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reads_past_the_end_panic() {
        let t: PagedTable<u32> = PagedTable::new(PAGE + 1);
        t.get(PAGE + 1);
    }

    #[test]
    fn runs_cover_the_range_in_order() {
        let mut t: PagedTable<u32> = PagedTable::new(6 * PAGE);
        for p in [1, 2, 4] {
            t.get_or_init(p * PAGE, |j| j);
        }
        let runs: Vec<(std::ops::Range<u32>, bool)> = t
            .runs(5..5 * PAGE + 9)
            .map(|(r, cells)| {
                if let Some(cells) = cells {
                    let want: Vec<u32> = r.clone().collect();
                    assert_eq!(cells, want.as_slice());
                }
                (r, cells.is_some())
            })
            .collect();
        assert_eq!(
            runs,
            vec![
                (5..PAGE, false),
                (PAGE..2 * PAGE, true),
                (2 * PAGE..3 * PAGE, true),
                (3 * PAGE..4 * PAGE, false),
                (4 * PAGE..5 * PAGE, true),
                (5 * PAGE..5 * PAGE + 9, false),
            ]
        );
        assert_eq!(t.runs(7..7).count(), 0);
    }
}
