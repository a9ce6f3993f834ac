//! Per-chunk access-temperature tracking.
//!
//! Both Hibernator and PDC need "how hot is each chunk lately". [`HeatMap`]
//! keeps one exponentially decaying counter per chunk (time constant `tau`),
//! so temperature reflects recent traffic and forgets ancient history. The
//! decay is applied lazily, making `touch` O(1).
//!
//! A workload usually touches a small fraction of a volume's chunks, so the
//! map stores counters only for the pages of chunks it has touched (see
//! [`PagedTable`]) and lists the chunks it has seen. Ranking decays and
//! sorts only those and emits the warm ones: every other chunk is cold and
//! follows them implicitly, in ascending id order.

use crate::paged::PagedTable;
use crate::types::ChunkId;
use simkit::{SimDuration, SimTime};

/// One chunk's counter: its mass as of its last touch.
#[derive(Debug, Clone, Copy, Default)]
struct Cell {
    mass: f64,
    last: SimTime,
}

/// One decaying counter per chunk.
#[derive(Debug, Clone)]
pub struct HeatMap {
    tau_s: f64,
    cells: PagedTable<Cell>,
    /// Every chunk ever touched, in first-touch order. Each touch adds
    /// exactly 1.0 to a decayed mass, so `mass == 0.0` holds exactly for
    /// the chunks missing here.
    touched: Vec<ChunkId>,
}

impl HeatMap {
    /// Creates a map over `chunks` chunks with decay time constant `tau`.
    ///
    /// # Panics
    /// Panics if `tau` is zero or `chunks == 0`.
    pub fn new(chunks: u32, tau: SimDuration) -> HeatMap {
        assert!(!tau.is_zero(), "HeatMap: zero tau");
        assert!(chunks > 0, "HeatMap: no chunks");
        HeatMap {
            tau_s: tau.as_secs(),
            cells: PagedTable::new(chunks),
            touched: Vec::new(),
        }
    }

    /// Number of chunks tracked.
    pub fn chunks(&self) -> u32 {
        self.cells.len()
    }

    /// Registers one access to `chunk` at `now`.
    pub fn touch(&mut self, now: SimTime, chunk: ChunkId) {
        let cell = self.cells.get_or_init(chunk.0, |_| Cell::default());
        if cell.mass == 0.0 {
            self.touched.push(chunk);
        }
        let dt = now.saturating_since(cell.last).as_secs();
        if dt > 0.0 {
            cell.mass *= (-dt / self.tau_s).exp();
            cell.last = now;
        }
        cell.mass += 1.0;
    }

    /// The decayed temperature of `chunk` as of `now`.
    pub fn temperature(&self, now: SimTime, chunk: ChunkId) -> f64 {
        let Some(cell) = self.cells.get(chunk.0) else {
            return 0.0;
        };
        let dt = now.saturating_since(cell.last).as_secs();
        cell.mass * (-dt / self.tau_s).exp()
    }

    /// Ranks the warm chunks hottest → coldest as of `now` into `scratch`,
    /// reusing its buffers, with each chunk's estimated access rate
    /// (temperature / tau, accesses/sec) alongside.
    ///
    /// The full ranking orders every chunk by temperature descending, id
    /// ascending on ties: a total order, so the permutation is unique.
    /// `scratch` holds its warm prefix, the chunks with a positive
    /// temperature. The rest, the cold tail (never touched, or decayed
    /// until the temperature underflowed to 0.0), is implicit: every other
    /// chunk in ascending id order at rate 0.0, which is where that
    /// comparator puts it. [`RankScratch::extend_cold_tail`] materialises
    /// it for a consumer that needs every chunk.
    pub fn ranking_into(&self, now: SimTime, scratch: &mut RankScratch) {
        let RankScratch { order, rates, hot } = scratch;
        hot.clear();
        hot.reserve_exact(self.touched.len());
        hot.extend(
            self.touched
                .iter()
                .map(|&c| (self.temperature(now, c), c))
                .filter(|&(t, _)| t > 0.0),
        );
        // Every temperature here is positive and finite, where `total_cmp`
        // orders exactly as `<` does.
        hot.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1 .0.cmp(&b.1 .0)));
        order.clear();
        order.extend(hot.iter().map(|&(_, c)| c));
        rates.clear();
        rates.extend(hot.iter().map(|&(t, _)| t / self.tau_s));
    }
}

/// Appends to `order` every id of `0..chunks` it lacks, ascending: a
/// ranking's warm prefix materialised to the full ranking with its cold
/// tail.
pub fn append_cold_tail(order: &mut Vec<ChunkId>, chunks: u32) {
    let n = chunks as usize;
    order.reserve_exact(n.saturating_sub(order.len()));
    // One 64-id word of a transient bitmap at a time.
    let mut ranked = vec![0u64; n.div_ceil(64)];
    for c in order.iter() {
        ranked[c.index() / 64] |= 1 << (c.0 % 64);
    }
    for (lo, &bits) in (0..chunks).step_by(64).zip(&ranked) {
        let ids = (lo..chunks.min(lo + 64)).map(ChunkId);
        if bits == 0 {
            order.extend(ids);
        } else {
            order.extend(ids.filter(|c| bits >> (c.0 - lo) & 1 == 0));
        }
    }
}

/// Reusable buffers for [`HeatMap::ranking_into`].
///
/// Epoch planners rank the chunks each planning round; holding one of these
/// across rounds reuses the order and rate vectors (one entry per warm
/// chunk) and the touched-chunk sort buffer instead of re-allocating them.
#[derive(Debug, Clone, Default)]
pub struct RankScratch {
    order: Vec<ChunkId>,
    rates: Vec<f64>,
    hot: Vec<(f64, ChunkId)>,
}

impl RankScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// The warm prefix of the ranking produced by the most recent
    /// [`HeatMap::ranking_into`] call, hottest first (the whole ranking
    /// after [`RankScratch::extend_cold_tail`]).
    pub fn ranked(&self) -> &[ChunkId] {
        &self.order
    }

    /// The access rate (accesses/sec) of each chunk of
    /// [`RankScratch::ranked`], position for position.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Appends the implicit cold tail of a ranking over `chunks` chunks
    /// (the ranked map's [`HeatMap::chunks`]), so [`RankScratch::ranked`]
    /// lists every chunk (each tail chunk at rate 0.0).
    pub fn extend_cold_tail(&mut self, chunks: u32) {
        append_cold_tail(&mut self.order, chunks);
        self.rates.resize(self.order.len(), 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::DetRng;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// The full ranking, cold tail materialised.
    fn rank(h: &HeatMap, now: SimTime) -> (Vec<ChunkId>, Vec<f64>) {
        let mut scratch = RankScratch::new();
        h.ranking_into(now, &mut scratch);
        scratch.extend_cold_tail(h.chunks());
        (scratch.ranked().to_vec(), scratch.rates().to_vec())
    }

    /// The ranking as a full sort computes it: a temperature for every
    /// chunk, every chunk sorted by (temperature descending, id ascending),
    /// and each rate taken as that chunk's temperature / tau.
    fn full_sort(h: &HeatMap, now: SimTime) -> (Vec<ChunkId>, Vec<f64>) {
        let temps: Vec<f64> = (0..h.chunks())
            .map(|c| h.temperature(now, ChunkId(c)))
            .collect();
        let mut order: Vec<ChunkId> = (0..h.chunks()).map(ChunkId).collect();
        order.sort_unstable_by(|a, b| {
            temps[b.index()]
                .partial_cmp(&temps[a.index()])
                .expect("temperatures are finite")
                .then(a.0.cmp(&b.0))
        });
        let rates = order.iter().map(|c| temps[c.index()] / h.tau_s).collect();
        (order, rates)
    }

    #[test]
    fn untouched_chunks_are_cold() {
        let h = HeatMap::new(8, SimDuration::from_secs(100.0));
        for c in 0..8 {
            assert_eq!(h.temperature(t(50.0), ChunkId(c)), 0.0);
        }
        assert!(rank(&h, t(0.0)).1.iter().all(|&r| r == 0.0));
    }

    #[test]
    fn touches_accumulate_and_decay() {
        let mut h = HeatMap::new(4, SimDuration::from_secs(10.0));
        h.touch(t(0.0), ChunkId(1));
        h.touch(t(0.0), ChunkId(1));
        assert!((h.temperature(t(0.0), ChunkId(1)) - 2.0).abs() < 1e-12);
        // One time constant later: e^{-1} of the mass remains.
        let later = h.temperature(t(10.0), ChunkId(1));
        assert!((later - 2.0 * (-1.0f64).exp()).abs() < 1e-9);
        // Ten time constants later: effectively cold.
        assert!(h.temperature(t(100.0), ChunkId(1)) < 1e-3);
    }

    #[test]
    fn ranking_orders_by_recent_traffic() {
        let mut h = HeatMap::new(4, SimDuration::from_secs(100.0));
        for _ in 0..10 {
            h.touch(t(1.0), ChunkId(2));
        }
        for _ in 0..5 {
            h.touch(t(1.0), ChunkId(0));
        }
        h.touch(t(1.0), ChunkId(3));
        let (r, _) = rank(&h, t(1.0));
        assert_eq!(r, vec![ChunkId(2), ChunkId(0), ChunkId(3), ChunkId(1)]);
    }

    #[test]
    fn ranking_ties_break_by_id() {
        let h = HeatMap::new(3, SimDuration::from_secs(10.0));
        assert_eq!(rank(&h, t(0.0)).0, vec![ChunkId(0), ChunkId(1), ChunkId(2)]);
    }

    #[test]
    fn recency_beats_stale_volume() {
        let mut h = HeatMap::new(2, SimDuration::from_secs(60.0));
        // Chunk 0: heavy traffic long ago. Chunk 1: light traffic now.
        for _ in 0..100 {
            h.touch(t(0.0), ChunkId(0));
        }
        for _ in 0..5 {
            h.touch(t(600.0), ChunkId(1));
        }
        let (r, _) = rank(&h, t(600.0));
        assert_eq!(r[0], ChunkId(1), "recent traffic should dominate");
    }

    #[test]
    fn rate_estimates_frequency() {
        let mut h = HeatMap::new(1, SimDuration::from_secs(50.0));
        for i in 0..2500 {
            h.touch(t(i as f64 * 0.2), ChunkId(0)); // 5/sec
        }
        let r = rank(&h, t(500.0)).1[0];
        assert!((r - 5.0).abs() < 0.5, "rate {r}");
    }

    /// A chunk ranked long enough after its last touch has a temperature
    /// of exactly 0.0 and joins the never-touched chunks in id order.
    #[test]
    fn underflowed_chunk_joins_the_id_ordered_tail() {
        let mut h = HeatMap::new(6, SimDuration::from_secs(1.0));
        h.touch(t(0.0), ChunkId(4));
        h.touch(t(2000.0), ChunkId(3));
        h.touch(t(2000.0), ChunkId(1));
        h.touch(t(2000.0), ChunkId(1));
        assert_eq!(h.temperature(t(2000.0), ChunkId(4)), 0.0);
        let mut scratch = RankScratch::new();
        h.ranking_into(t(2000.0), &mut scratch);
        assert_eq!(scratch.ranked(), &[ChunkId(1), ChunkId(3)], "warm prefix");
        let (order, rates) = rank(&h, t(2000.0));
        let ids: Vec<u32> = order.iter().map(|c| c.0).collect();
        assert_eq!(ids, vec![1, 3, 0, 2, 4, 5]);
        assert_eq!(&rates[2..], &[0.0; 4]);
    }

    /// Seeded touch sequences over 1–512 chunks, with never-touched
    /// chunks, tied temperatures and underflowed ones: the warm prefix
    /// followed by the implied tail (every other id, ascending, at rate
    /// 0.0) matches the full sort in order and in every rate bit, and the
    /// prefix is exactly the full sort's positive temperatures.
    #[test]
    fn ranking_matches_full_sort_bit_for_bit() {
        let mut rng = DetRng::new(0x4EA7, "heat-oracle");
        let mut scratch = RankScratch::new();
        for case in 0..300 {
            let chunks = 1 + rng.below(512) as u32;
            let tau = rng.uniform(1.0, 500.0);
            let mut h = HeatMap::new(chunks, SimDuration::from_secs(tau));
            // Touch only a prefix-sized random subset of ids, so some
            // chunks are never touched.
            let reach = 1 + rng.below(chunks as u64);
            let mut now = 0.0;
            for _ in 0..rng.below(4 * chunks as u64 + 1) {
                if rng.chance(0.2) {
                    // A long gap: chunks touched before it underflow.
                    now += tau * rng.uniform(700.0, 900.0);
                } else if rng.chance(0.5) {
                    now += rng.uniform(0.0, tau);
                }
                let c = ChunkId(rng.below(reach) as u32);
                h.touch(t(now), c);
                if rng.chance(0.2) {
                    // Same instant, same count: a tied temperature.
                    let d = ChunkId(rng.below(reach) as u32);
                    if h.temperature(t(now), d) == 0.0 {
                        h.touch(t(now), d);
                    }
                }
            }
            for probe in [now, now + rng.uniform(0.0, 5.0 * tau), now + 800.0 * tau] {
                h.ranking_into(t(probe), &mut scratch);
                let (order, rates) = full_sort(&h, t(probe));
                // Warm means a positive temperature; its rate may still
                // underflow to 0.0.
                let warm = order
                    .iter()
                    .take_while(|&&c| h.temperature(t(probe), c) > 0.0)
                    .count();
                let prefix = scratch.ranked();
                assert_eq!(prefix, &order[..warm], "case {case}");
                let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(scratch.rates()), bits(&rates[..warm]), "case {case}");
                let mut tail: Vec<ChunkId> = (0..chunks)
                    .map(ChunkId)
                    .filter(|c| !prefix.contains(c))
                    .collect();
                tail.sort_unstable();
                assert_eq!(&order[warm..], tail.as_slice(), "case {case}");
                assert!(
                    rates[warm..].iter().all(|r| r.to_bits() == 0),
                    "case {case}"
                );
                scratch.extend_cold_tail(chunks);
                assert_eq!(scratch.ranked(), order.as_slice(), "case {case}");
                assert_eq!(bits(scratch.rates()), bits(&rates), "case {case}");
            }
        }
    }

    #[test]
    fn ranking_into_reuses_buffers() {
        let mut h = HeatMap::new(16, SimDuration::from_secs(50.0));
        for i in 0..200u32 {
            h.touch(t(i as f64 * 0.3), ChunkId(i * 7 % 16));
        }
        let mut scratch = RankScratch::new();
        h.ranking_into(t(10.0), &mut scratch);
        // Buffers sized exactly to the warm chunks (here all 16) after
        // first use; later calls over no more warm chunks must not grow
        // them.
        let caps = (scratch.order.capacity(), scratch.rates.capacity());
        assert_eq!(scratch.ranked().len(), 16);
        assert_eq!(caps, (16, 16));
        for probe in [30.0, 60.0, 90.0] {
            h.ranking_into(t(probe), &mut scratch);
            assert_eq!((scratch.order.capacity(), scratch.rates.capacity()), caps);
        }
    }
}
