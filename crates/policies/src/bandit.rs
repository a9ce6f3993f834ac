//! Epsilon-greedy bandit tier classifier: learns per-chunk tier
//! placement online instead of deriving it from a queueing model.
//!
//! Each chunk keeps a per-tier action value `q[chunk][tier]`, updated at
//! every planning round from the reward observed at the tier the chunk
//! actually sat on:
//!
//! ```text
//! reward = −(LATENCY_WEIGHT · accesses · service_s(tier)
//!            + POWER_WEIGHT · idle_w(tier) / chunks_per_disk)
//! q += LEARNING_RATE · (reward − q)
//! ```
//!
//! so a hot chunk on a slow tier earns a large latency penalty (learn:
//! promote) while a cold chunk on a fast tier pays the tier's idle power
//! for nothing (learn: demote). Tier preference is the argmax over
//! *visited* tiers, except with probability ε (decaying per round) a
//! uniformly random tier is preferred instead. The preference only orders
//! the chunk ranking; the host's planning round maps rank positions onto
//! the epoch's actual tiers, enforcing grace, dedupe, and budget as for
//! every other policy.

use array::ChunkId;
use hibernator::{MigrationConfig, MigrationPolicy, PolicyObservation};
use simkit::DetRng;
use std::collections::BTreeMap;

/// Sectors per probe I/O used to price a tier's service time.
const PROBE_SECTORS: u32 = 16;

/// Rounds over which ε decays: `ε = ε₀ / (1 + rounds / EPSILON_DECAY)`.
const EPSILON_DECAY: f64 = 10.0;

/// Q-value step size α in `q += α (reward − q)`.
const LEARNING_RATE: f64 = 0.3;

/// Weight of the latency term (per access-second of service time).
const LATENCY_WEIGHT: f64 = 100.0;

/// Weight of the idle-power term (per watt amortized over a disk's chunk
/// share).
const POWER_WEIGHT: f64 = 1.0;

/// Seed for the exploration RNG.
const SEED: u64 = 0xBA4D17;

/// The bandit tier classifier (see module docs).
pub struct BanditPolicy {
    cfg: MigrationConfig,
    /// Initial exploration probability ε₀.
    epsilon0: f64,
    /// chunk -> per-tier action value; NaN marks a never-visited tier.
    q: BTreeMap<u32, Vec<f64>>,
    /// chunk -> accesses since the last planning round.
    counts: BTreeMap<u32, f64>,
    /// chunk -> tier preferred at the last round.
    preferred: BTreeMap<u32, usize>,
    /// The last round's ranking: preferred tier, fastest first.
    ranking: Vec<ChunkId>,
    rounds: u64,
    rng: DetRng,
}

impl BanditPolicy {
    /// Bandit exploring with ε₀ = 0.2 under the shared adaptive migration
    /// config.
    pub fn new() -> BanditPolicy {
        BanditPolicy::with_epsilon0(0.2)
    }

    /// Bandit whose exploration probability starts at `epsilon0` (0 makes
    /// it purely greedy).
    pub fn with_epsilon0(epsilon0: f64) -> BanditPolicy {
        BanditPolicy {
            cfg: MigrationConfig::adaptive(),
            epsilon0,
            q: BTreeMap::new(),
            counts: BTreeMap::new(),
            preferred: BTreeMap::new(),
            ranking: Vec::new(),
            rounds: 0,
            rng: DetRng::new(SEED, "bandit-explore"),
        }
    }

    /// Current exploration probability.
    pub fn epsilon(&self) -> f64 {
        self.epsilon0 / (1.0 + self.rounds as f64 / EPSILON_DECAY)
    }

    /// The tier preferred for `chunk` at the last planning round.
    pub fn preferred_tier(&self, chunk: ChunkId) -> Option<usize> {
        self.preferred.get(&chunk.0).copied()
    }

    /// The learned action value for (`chunk`, `tier`), if ever visited.
    pub fn q_value(&self, chunk: ChunkId, tier: usize) -> Option<f64> {
        self.q
            .get(&chunk.0)
            .and_then(|v| v.get(tier))
            .copied()
            .filter(|q| !q.is_nan())
    }

    /// Argmax over visited tiers; ties break to the highest tier
    /// (deterministic). `None` when nothing was visited.
    fn exploit(&self, chunk: u32) -> Option<usize> {
        let q = self.q.get(&chunk)?;
        let mut best: Option<(usize, f64)> = None;
        for (tier, &val) in q.iter().enumerate() {
            if val.is_nan() {
                continue;
            }
            match best {
                Some((_, b)) if val < b => {}
                _ => best = Some((tier, val)),
            }
        }
        best.map(|(t, _)| t)
    }
}

impl Default for BanditPolicy {
    fn default() -> Self {
        BanditPolicy::new()
    }
}

impl MigrationPolicy for BanditPolicy {
    fn name(&self) -> &'static str {
        "bandit"
    }

    fn config(&self) -> &MigrationConfig {
        &self.cfg
    }

    fn observe_access(&mut self, chunk: ChunkId) {
        *self.counts.entry(chunk.0).or_insert(0.0) += 1.0;
    }

    fn rank<'a>(&'a mut self, obs: &PolicyObservation<'a>) -> (&'a [ChunkId], &'a [f64]) {
        self.rounds += 1;
        let levels = obs.state.config.spec.num_levels();
        let chunks = obs.state.remap.chunks();
        let alive = obs.state.alive_disks().max(1);
        let cpd = (chunks as usize).div_ceil(alive) as f64;
        let svc_model = obs.state.disks[0].service_model();
        let power_model = obs.state.disks[0].power_model();
        let eps = self.epsilon();

        // 1. Reward the tier each chunk actually sat on this round.
        let mut ranked: Vec<(usize, f64, u32)> = Vec::with_capacity(chunks as usize);
        for c in 0..chunks {
            let rate = self.counts.get(&c).copied().unwrap_or(0.0);
            let cur_disk = obs.state.remap.disk_of(ChunkId(c));
            let tier = obs.disk_levels[cur_disk.index()].index();
            let svc =
                svc_model.expected_random_service_s(diskmodel::SpeedLevel(tier), PROBE_SECTORS);
            let idle = power_model.idle_w(diskmodel::SpeedLevel(tier));
            let reward = -(LATENCY_WEIGHT * rate * svc + POWER_WEIGHT * idle / cpd);
            let q = self.q.entry(c).or_insert_with(|| vec![f64::NAN; levels]);
            if q[tier].is_nan() {
                q[tier] = reward;
            } else {
                q[tier] += LEARNING_RATE * (reward - q[tier]);
            }

            // 2. Prefer a tier: explore with probability ε, else exploit.
            let preferred = if eps > 0.0 && self.rng.chance(eps) {
                self.rng.below(levels as u64) as usize
            } else {
                self.exploit(c).unwrap_or(tier)
            };
            self.preferred.insert(c, preferred);
            ranked.push((preferred, rate, c));
        }
        self.counts.clear();

        // 3. Desired ranking: preferred tier (fastest first), then this
        // round's access rate, then chunk id — all deterministic. No
        // scores: the bandit's moves are never threshold-gated.
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then(b.1.total_cmp(&a.1)).then(a.2.cmp(&b.2)));
        self.ranking.clear();
        self.ranking
            .extend(ranked.iter().map(|&(_, _, c)| ChunkId(c)));
        (&self.ranking, &[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use array::{ArrayConfig, ArrayState, ArrayStats, HeatMap, MigrationEngine, RemapTable};
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

    /// A host heat map in which every chunk of `state` is warm.
    fn all_warm(state: &ArrayState) -> HeatMap {
        let mut heat = HeatMap::new(state.remap.chunks(), SimDuration::from_secs(60.0));
        for c in 0..state.remap.chunks() {
            heat.touch(SimTime::ZERO, ChunkId(c));
        }
        heat
    }

    fn obs<'a>(
        state: &'a ArrayState,
        heat: &'a HeatMap,
        targets: &'a [SpeedLevel],
        ranking: &'a [ChunkId],
    ) -> PolicyObservation<'a> {
        PolicyObservation {
            now: SimTime::ZERO,
            state,
            heat,
            ranking,
            rates: &[],
            disk_levels: targets,
            budget: 100,
        }
    }

    fn greedy() -> BanditPolicy {
        // Exploitation only: deterministic learning path.
        BanditPolicy::with_epsilon0(0.0)
    }

    /// First visit seeds q with the raw reward; later visits blend with
    /// the learning rate — checked against the formula by hand.
    #[test]
    fn reward_accounting_follows_the_update_rule() {
        let state = mk_state(4, 16);
        let heat = all_warm(&state);
        let targets = vec![SpeedLevel(5); 4];
        let ranking: Vec<ChunkId> = (0..16).map(ChunkId).collect();
        let mut p = greedy();
        for _ in 0..3 {
            p.observe_access(ChunkId(0));
        }
        let _ = p.rank(&obs(&state, &heat, &targets, &ranking));

        let svc = state.disks[0]
            .service_model()
            .expected_random_service_s(SpeedLevel(5), PROBE_SECTORS);
        let idle = state.disks[0].power_model().idle_w(SpeedLevel(5));
        let cpd = 16.0 / 4.0;
        let expect = -(LATENCY_WEIGHT * 3.0 * svc + POWER_WEIGHT * idle / cpd);
        let q1 = p.q_value(ChunkId(0), 5).expect("tier visited");
        assert!(
            (q1 - expect).abs() < 1e-12,
            "first visit seeds q: {q1} vs {expect}"
        );

        // Second round with no accesses: reward is the pure idle penalty.
        let _ = p.rank(&obs(&state, &heat, &targets, &ranking));
        let r2 = -(POWER_WEIGHT * idle / cpd);
        let expect2 = q1 + LEARNING_RATE * (r2 - q1);
        let q2 = p.q_value(ChunkId(0), 5).expect("tier visited");
        assert!((q2 - expect2).abs() < 1e-12, "blend: {q2} vs {expect2}");
    }

    #[test]
    fn epsilon_decays_with_rounds() {
        let state = mk_state(4, 16);
        let heat = all_warm(&state);
        let targets = vec![SpeedLevel(5); 4];
        let ranking: Vec<ChunkId> = (0..16).map(ChunkId).collect();
        let mut p = BanditPolicy::new();
        let e0 = p.epsilon();
        for _ in 0..20 {
            let _ = p.rank(&obs(&state, &heat, &targets, &ranking));
        }
        assert!(p.epsilon() < e0 / 2.0, "{} vs {}", p.epsilon(), e0);
        assert!(p.epsilon() > 0.0);
    }

    /// Two identically-seeded bandits fed the same observations make the
    /// same proposals round after round, including explore rounds (each
    /// planned by its own host tracker).
    #[test]
    fn fixed_seed_tie_breaking_is_deterministic() {
        let state = mk_state(4, 32);
        let heat = all_warm(&state);
        let targets = vec![SpeedLevel(5), SpeedLevel(5), SpeedLevel(0), SpeedLevel(0)];
        let ranking: Vec<ChunkId> = (0..32).map(ChunkId).collect();
        let mut a = BanditPolicy::new();
        let mut b = BanditPolicy::new();
        let (mut ga, mut gb) = (GraceTracker::new(), GraceTracker::new());
        for round in 0..10 {
            for c in 0..(round % 5) {
                a.observe_access(ChunkId(c));
                b.observe_access(ChunkId(c));
            }
            let ja = ga
                .plan_round(&mut a, &obs(&state, &heat, &targets, &ranking))
                .jobs;
            let jb = gb
                .plan_round(&mut b, &obs(&state, &heat, &targets, &ranking))
                .jobs;
            assert_eq!(ja, jb, "round {round} diverged");
            assert_eq!(a.preferred, b.preferred);
        }
    }

    /// On a stationary workload the greedy bandit converges: the hot chunk
    /// ends up preferring a tier at least as fast as the cold chunk's, and
    /// its learned fast-tier value beats its slow-tier value.
    #[test]
    fn converges_on_stationary_workload() {
        let state = mk_state(4, 16);
        let heat = all_warm(&state);
        // Alternate the plan so every chunk experiences both tiers.
        let split_a = vec![SpeedLevel(5), SpeedLevel(5), SpeedLevel(0), SpeedLevel(0)];
        let split_b = vec![SpeedLevel(0), SpeedLevel(0), SpeedLevel(5), SpeedLevel(5)];
        let ranking: Vec<ChunkId> = (0..16).map(ChunkId).collect();
        let mut p = greedy();
        for round in 0..60 {
            for _ in 0..40 {
                p.observe_access(ChunkId(0)); // hot: on disk 0
            }
            let t = if round % 2 == 0 { &split_a } else { &split_b };
            let _ = p.rank(&obs(&state, &heat, t, &ranking));
        }
        let hot = p.preferred_tier(ChunkId(0)).expect("preferred");
        let cold = p.preferred_tier(ChunkId(15)).expect("preferred");
        assert!(hot >= cold, "hot tier {hot} vs cold tier {cold}");
        let q_fast = p.q_value(ChunkId(0), 5).expect("visited fast");
        let q_slow = p.q_value(ChunkId(0), 0).expect("visited slow");
        assert!(
            q_fast > q_slow,
            "hot chunk must value the fast tier: {q_fast} vs {q_slow}"
        );
    }
}
