//! LFU promote/demote migration policy: frequency counters instead of the
//! analytic EWMA temperature.
//!
//! Every foreground access bumps a per-chunk counter; at each planning
//! round the counters are ranked — most-frequently-used first — and
//! halved, so the ranking tracks a geometrically-weighted access history
//! rather than all-time counts. The counts double as the ranking's scores,
//! so the host's round applies count-scale promote/demote hysteresis on
//! top of grace, in-flight dedupe and budget (a chunk must earn at least
//! `promote_threshold` accesses per round to climb, and drop to at most
//! `demote_threshold` to sink).

use array::ChunkId;
use hibernator::{MigrationConfig, MigrationPolicy, PolicyObservation};
use std::collections::BTreeMap;

/// The LFU promote/demote policy (see module docs).
pub struct LfuPolicy {
    cfg: MigrationConfig,
    /// chunk -> decayed access count.
    counts: BTreeMap<u32, f64>,
    /// Desired ranking (hottest first) and aligned scores from the last
    /// refresh.
    ranking: Vec<ChunkId>,
    scores: Vec<f64>,
}

impl LfuPolicy {
    /// LFU with the shared adaptive defaults plus count-scale hysteresis:
    /// promote at ≥ 1 access per round, demote at ≤ 0.5 (i.e. no raw
    /// access since the last halving).
    pub fn new() -> LfuPolicy {
        let mut cfg = MigrationConfig::adaptive();
        cfg.promote_threshold = 1.0;
        cfg.demote_threshold = 0.5;
        LfuPolicy::with_config(cfg)
    }

    /// LFU with explicit shared config.
    pub fn with_config(cfg: MigrationConfig) -> LfuPolicy {
        LfuPolicy {
            cfg,
            counts: BTreeMap::new(),
            ranking: Vec::new(),
            scores: Vec::new(),
        }
    }

    fn refresh(&mut self, chunks: u32) {
        let mut scored: Vec<(ChunkId, f64)> = (0..chunks)
            .map(|c| (ChunkId(c), self.counts.get(&c).copied().unwrap_or(0.0)))
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
        self.ranking = scored.iter().map(|&(c, _)| c).collect();
        self.scores = scored.iter().map(|&(_, s)| s).collect();
        // Halve instead of reset: the ranking remembers past popularity
        // with geometric decay, like LFU-aging.
        for v in self.counts.values_mut() {
            *v *= 0.5;
        }
        self.counts.retain(|_, v| *v > 1e-6);
    }
}

impl Default for LfuPolicy {
    fn default() -> Self {
        LfuPolicy::new()
    }
}

impl MigrationPolicy for LfuPolicy {
    fn name(&self) -> &'static str {
        "lfu"
    }

    fn config(&self) -> &MigrationConfig {
        &self.cfg
    }

    fn observe_access(&mut self, chunk: ChunkId) {
        *self.counts.entry(chunk.0).or_insert(0.0) += 1.0;
    }

    fn rank<'a>(&'a mut self, obs: &PolicyObservation<'a>) -> (&'a [ChunkId], &'a [f64]) {
        self.refresh(obs.state.remap.chunks());
        (&self.ranking, &self.scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use array::{
        ArrayConfig, ArrayState, ArrayStats, HeatMap, MigrationEngine, MigrationJob, RemapTable,
    };
    use diskmodel::{Disk, SpeedLevel};
    use hibernator::GraceTracker;
    use simkit::{SimDuration, SimTime};

    fn mk_state(disks: usize, chunks: u32) -> ArrayState {
        let mut config = ArrayConfig::default_for_volume(1 << 30);
        config.disks = disks;
        config.volume_chunks = chunks;
        let remap = RemapTable::striped(&config);
        let ds = (0..disks)
            .map(|i| Disk::new(i, &config.spec, 1, config.spec.top_level()))
            .collect();
        let stats = ArrayStats::new(config.spec.num_levels(), SimDuration::from_secs(60.0));
        ArrayState {
            config,
            disks: ds,
            remap,
            migrator: MigrationEngine::new(2),
            stats,
            telemetry: telemetry::Recorder::disabled(),
            wake_marks: array::WakeMarks::new(disks),
        }
    }

    /// A host heat map in which exactly the chunks of `warm` are warm.
    fn heat_of(chunks: u32, warm: impl IntoIterator<Item = u32>) -> HeatMap {
        let mut heat = HeatMap::new(chunks, SimDuration::from_secs(60.0));
        for c in warm {
            heat.touch(SimTime::ZERO, ChunkId(c));
        }
        heat
    }

    /// One host round with a fresh tracker and a 100-job budget.
    fn round(
        p: &mut LfuPolicy,
        state: &ArrayState,
        heat: &HeatMap,
        targets: &[SpeedLevel],
        ranking: &[ChunkId],
    ) -> Vec<MigrationJob> {
        let obs = PolicyObservation {
            now: SimTime::ZERO,
            state,
            heat,
            ranking,
            rates: &[],
            disk_levels: targets,
            budget: 100,
        };
        GraceTracker::new().plan_round(p, &obs).jobs
    }

    #[test]
    fn frequent_chunks_rank_first_and_promote() {
        let state = mk_state(4, 16);
        let mut p = LfuPolicy::new();
        // Chunks 2 and 3 live on the slow disks under striping; hammer them.
        for _ in 0..50 {
            p.observe_access(ChunkId(2));
            p.observe_access(ChunkId(3));
        }
        let targets = vec![SpeedLevel(5), SpeedLevel(5), SpeedLevel(0), SpeedLevel(0)];
        let ranking: Vec<ChunkId> = (0..16).map(ChunkId).collect();
        let jobs = round(&mut p, &state, &heat_of(16, [2, 3]), &targets, &ranking);
        assert_eq!(p.ranking[0], ChunkId(2));
        assert_eq!(p.ranking[1], ChunkId(3));
        let promoted: Vec<u32> = jobs
            .iter()
            .filter_map(|j| match j {
                MigrationJob::Relocate { chunk, dst } if dst.index() <= 1 => Some(chunk.0),
                _ => None,
            })
            .collect();
        assert!(
            promoted.contains(&2) && promoted.contains(&3),
            "{promoted:?}"
        );
    }

    #[test]
    fn unaccessed_chunks_never_promote() {
        let state = mk_state(4, 16);
        let mut p = LfuPolicy::new();
        // No accesses the policy saw, though the host's heat map calls
        // every chunk warm: every candidate promotion is below the
        // 1-access threshold, every demotion candidate is below 0.5 so
        // demotions still happen — but nothing may climb.
        let targets = vec![SpeedLevel(5), SpeedLevel(5), SpeedLevel(0), SpeedLevel(0)];
        let ranking: Vec<ChunkId> = (0..16).map(ChunkId).collect();
        let jobs = round(&mut p, &state, &heat_of(16, 0..16), &targets, &ranking);
        assert!(!jobs.is_empty(), "warm chunks must still demote");
        for j in &jobs {
            if let MigrationJob::Relocate { chunk, dst } = j {
                let cur = state.remap.disk_of(*chunk);
                assert!(
                    targets[dst.index()].index() <= targets[cur.index()].index(),
                    "cold chunk {chunk:?} promoted to disk {dst:?}"
                );
            }
        }
    }

    #[test]
    fn counts_halve_each_refresh() {
        let mut p = LfuPolicy::new();
        p.observe_access(ChunkId(0));
        p.observe_access(ChunkId(0));
        p.refresh(4);
        assert_eq!(p.counts.get(&0).copied(), Some(1.0));
        assert_eq!(p.scores[0], 2.0, "refresh ranks on pre-decay counts");
        p.refresh(4);
        assert_eq!(p.counts.get(&0).copied(), Some(0.5));
    }
}
