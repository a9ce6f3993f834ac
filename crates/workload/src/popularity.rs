//! Block-popularity models.
//!
//! Data-center workloads are heavily skewed: a small fraction of the blocks
//! receives most of the accesses. [`ZipfExtents`] models this with a Zipf
//! distribution over fixed-size *extents* of the volume, with the rank→extent
//! assignment shuffled so that popularity is not spatially correlated (hot
//! data is scattered across the whole address space, exactly the situation
//! that makes Hibernator's migration worthwhile).
//!
//! [`SequentialRuns`] layers sequential locality on top: with probability
//! `p_seq`, the next request continues where the previous one ended.

use simkit::DetRng;

/// Zipf-distributed popularity over shuffled extents.
///
/// Extent `rank` (0 = hottest) is accessed with probability proportional to
/// `1 / (rank + 1)^theta`. The mapping from rank to physical extent index is
/// a deterministic permutation drawn from the generator's RNG stream.
#[derive(Debug, Clone)]
pub struct ZipfExtents {
    /// Cumulative probability by rank, for inverse-CDF sampling.
    cdf: Vec<f64>,
    /// Guide table into `cdf`: `guide[j]` is the first rank whose CDF
    /// value is at least `j / guide.len()`. The length is a power of two
    /// at least the extent count, so `u · len` is exact and a sample
    /// steps past about one rank on average.
    guide: Vec<u32>,
    /// rank → extent index permutation.
    rank_to_extent: Vec<u32>,
    /// Sectors per extent.
    extent_sectors: u64,
}

impl ZipfExtents {
    /// Builds the model: `extents` extents of `extent_sectors` each, skew
    /// exponent `theta` (0 = uniform, 1 ≈ classic web/OLTP skew).
    ///
    /// # Panics
    /// Panics if `extents == 0`, `extent_sectors == 0`, `theta < 0`, or
    /// `theta` is not finite.
    pub fn new(rng: &mut DetRng, extents: u32, extent_sectors: u64, theta: f64) -> Self {
        assert!(extents > 0, "need at least one extent");
        assert!(extent_sectors > 0, "extents must be non-empty");
        assert!(theta.is_finite() && theta >= 0.0, "bad theta {theta}");
        let mut cdf = Vec::with_capacity(extents as usize);
        let mut acc = 0.0;
        for r in 0..extents {
            acc += 1.0 / f64::from(r + 1).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        let m = cdf.len().next_power_of_two();
        let mut guide = Vec::with_capacity(m);
        let mut rank = 0;
        for j in 0..m {
            let at_least = j as f64 / m as f64;
            while rank < cdf.len() && cdf[rank] < at_least {
                rank += 1;
            }
            guide.push(rank as u32);
        }
        let mut rank_to_extent: Vec<u32> = (0..extents).collect();
        rng.shuffle(&mut rank_to_extent);
        ZipfExtents {
            cdf,
            guide,
            rank_to_extent,
            extent_sectors,
        }
    }

    /// Number of extents.
    pub fn extents(&self) -> u32 {
        self.rank_to_extent.len() as u32
    }

    /// Sectors per extent.
    pub fn extent_sectors(&self) -> u64 {
        self.extent_sectors
    }

    /// Total footprint in sectors.
    pub fn footprint_sectors(&self) -> u64 {
        self.extent_sectors * u64::from(self.extents())
    }

    /// Samples a rank by inverse CDF (0 = hottest).
    pub fn sample_rank(&self, rng: &mut DetRng) -> u32 {
        self.rank_of(rng.uniform01())
    }

    /// The inverse CDF at `u` ∈ [0, 1): the last rank whose CDF value
    /// equals `u` if one does, else the first whose value exceeds it
    /// (the last rank if none does) — what a binary search of the CDF
    /// answers, found in O(1) expected steps from the guide table.
    fn rank_of(&self, u: f64) -> u32 {
        let m = self.guide.len();
        let mut i = self.guide[((u * m as f64) as usize).min(m - 1)] as usize;
        // Never start past the answer, whatever rounding did to `u · m`.
        while i > 0 && self.cdf[i - 1] > u {
            i -= 1;
        }
        while i < self.cdf.len() && self.cdf[i] <= u {
            i += 1;
        }
        // `i` ranks have a CDF value at most `u`.
        if i > 0 && self.cdf[i - 1] == u {
            (i - 1) as u32
        } else {
            (i as u32).min(self.extents() - 1)
        }
    }

    /// Samples a starting sector: Zipf-chosen extent, uniform offset within
    /// it, leaving room for a request of `req_sectors`.
    pub fn sample_sector(&self, rng: &mut DetRng, req_sectors: u32) -> u64 {
        let rank = self.sample_rank(rng);
        let extent = self.rank_to_extent[rank as usize];
        let base = u64::from(extent) * self.extent_sectors;
        let slack = self.extent_sectors.saturating_sub(u64::from(req_sectors));
        let off = if slack == 0 { 0 } else { rng.below(slack) };
        base + off
    }

    /// The analytic fraction of accesses going to the hottest
    /// `fraction` of extents (a skew headline like "80% of I/Os hit 20%
    /// of the data").
    pub fn access_share_of_hottest(&self, fraction: f64) -> f64 {
        assert!((0.0..=1.0).contains(&fraction), "bad fraction");
        let k = ((self.extents() as f64 * fraction).round() as usize).clamp(0, self.cdf.len());
        if k == 0 {
            0.0
        } else {
            self.cdf[k - 1]
        }
    }
}

/// Sequential-run mixer: continues the previous access with probability
/// `p_seq`, otherwise draws a fresh random location.
#[derive(Debug, Clone)]
pub struct SequentialRuns {
    p_seq: f64,
    next_sequential: Option<u64>,
    volume_sectors: u64,
}

impl SequentialRuns {
    /// Creates the mixer for a volume of `volume_sectors`.
    ///
    /// # Panics
    /// Panics if `p_seq` is outside `[0, 1]` or the volume is empty.
    pub fn new(p_seq: f64, volume_sectors: u64) -> Self {
        assert!((0.0..=1.0).contains(&p_seq), "bad p_seq {p_seq}");
        assert!(volume_sectors > 0, "empty volume");
        SequentialRuns {
            p_seq,
            next_sequential: None,
            volume_sectors,
        }
    }

    /// Chooses the start sector for the next request: sequential
    /// continuation with probability `p_seq` (when one is available and
    /// fits), otherwise the provided `random_sector`.
    pub fn choose(&mut self, rng: &mut DetRng, random_sector: u64, req_sectors: u32) -> u64 {
        let take_seq = self.next_sequential.is_some() && rng.chance(self.p_seq);
        let sector = if take_seq {
            let s = self.next_sequential.unwrap();
            if s + u64::from(req_sectors) <= self.volume_sectors {
                s
            } else {
                random_sector
            }
        } else {
            random_sector
        };
        self.next_sequential = Some(sector + u64::from(req_sectors));
        sector
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> DetRng {
        DetRng::new(5, "pop-test")
    }

    /// The binary search of the CDF that `rank_of` replaced.
    fn rank_by_search(z: &ZipfExtents, u: f64) -> u32 {
        match z
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("cdf has no NaN"))
        {
            Ok(i) => i as u32,
            Err(i) => (i as u32).min(z.extents() - 1),
        }
    }

    #[test]
    fn guide_table_matches_the_binary_search_everywhere() {
        let below_one = 1.0f64.next_down();
        for theta in [0.0, 0.8, 1.0, 1.2, 8.0] {
            for extents in [1, 2, 64, 16_384, 24_576] {
                let mut r = rng();
                let z = ZipfExtents::new(&mut r, extents, 8, theta);
                let m = z.guide.len();
                let mut us: Vec<f64> = vec![0.0, below_one];
                for j in 0..m {
                    let t = j as f64 / m as f64;
                    us.extend([t.next_down(), t, t.next_up()]);
                }
                for &c in &z.cdf {
                    us.extend([c.next_down(), c, c.next_up()]);
                }
                us.extend((0..20_000).map(|_| r.uniform01()));
                let mut ties = 0;
                for u in us.into_iter().filter(|u| (0.0..1.0).contains(u)) {
                    let want = rank_by_search(&z, u);
                    assert_eq!(
                        z.rank_of(u),
                        want,
                        "theta {theta}, {extents} extents, u {u:e}"
                    );
                    ties += usize::from(z.cdf[want as usize] == u);
                }
                assert!(
                    extents == 1 || ties > 0,
                    "theta {theta}, {extents} extents: no exact CDF hit"
                );
            }
        }
    }

    #[test]
    fn uniform_theta_zero() {
        let mut r = rng();
        let z = ZipfExtents::new(&mut r, 100, 2048, 0.0);
        // Hottest 10% gets ~10% of accesses when theta = 0.
        let share = z.access_share_of_hottest(0.1);
        assert!((share - 0.1).abs() < 1e-9, "share {share}");
    }

    #[test]
    fn skewed_theta_concentrates() {
        let mut r = rng();
        let z = ZipfExtents::new(&mut r, 10_000, 2048, 1.0);
        let share = z.access_share_of_hottest(0.1);
        assert!(share > 0.6, "hot-10% share {share} too flat for theta=1");
    }

    #[test]
    fn empirical_matches_analytic_share() {
        let mut r = rng();
        let z = ZipfExtents::new(&mut r, 1000, 2048, 0.9);
        let hot_cut = z.extents() / 10;
        let n = 100_000;
        let mut hot = 0;
        for _ in 0..n {
            if z.sample_rank(&mut r) < hot_cut {
                hot += 1;
            }
        }
        let emp = hot as f64 / n as f64;
        let ana = z.access_share_of_hottest(0.1);
        assert!((emp - ana).abs() < 0.02, "empirical {emp} analytic {ana}");
    }

    #[test]
    fn sampled_sectors_in_bounds() {
        let mut r = rng();
        let z = ZipfExtents::new(&mut r, 128, 2048, 0.8);
        for _ in 0..10_000 {
            let s = z.sample_sector(&mut r, 64);
            assert!(s + 64 <= z.footprint_sectors());
        }
    }

    #[test]
    fn rank_shuffle_decorrelates_space() {
        // The hottest extent should rarely be extent 0 itself.
        let mut hits = 0;
        for seed in 0..50 {
            let mut r = DetRng::new(seed, "shuffle-check");
            let z = ZipfExtents::new(&mut r, 1000, 2048, 1.0);
            if z.rank_to_extent[0] == 0 {
                hits += 1;
            }
        }
        assert!(hits <= 2, "rank 0 landed on extent 0 {hits}/50 times");
    }

    #[test]
    fn deterministic_given_seed() {
        let build = || {
            let mut r = DetRng::new(7, "det");
            let z = ZipfExtents::new(&mut r, 64, 1024, 1.0);
            (0..32)
                .map(|_| z.sample_sector(&mut r, 8))
                .collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn sequential_runs_continue() {
        let mut r = rng();
        let mut seq = SequentialRuns::new(1.0, 1 << 30);
        let first = seq.choose(&mut r, 1000, 16);
        assert_eq!(first, 1000);
        let second = seq.choose(&mut r, 555_555, 16);
        assert_eq!(second, 1016, "p_seq=1 must continue the run");
        let third = seq.choose(&mut r, 777_777, 16);
        assert_eq!(third, 1032);
    }

    #[test]
    fn sequential_probability_zero_is_random() {
        let mut r = rng();
        let mut seq = SequentialRuns::new(0.0, 1 << 30);
        let _ = seq.choose(&mut r, 42, 16);
        let s = seq.choose(&mut r, 999, 16);
        assert_eq!(s, 999);
    }

    #[test]
    fn sequential_wraps_at_volume_end() {
        let mut r = rng();
        let vol = 2048u64;
        let mut seq = SequentialRuns::new(1.0, vol);
        let _ = seq.choose(&mut r, vol - 16, 16); // run now points past end
        let s = seq.choose(&mut r, 128, 16);
        assert_eq!(s, 128, "must fall back to random when run exceeds volume");
    }
}
