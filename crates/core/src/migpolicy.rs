//! The pluggable migration-policy subsystem (see DESIGN.md §17).
//!
//! [`Hibernator`](crate::Hibernator) hosts one [`MigrationPolicy`] object
//! and consults it at every epoch boundary. A policy only *ranks* chunks:
//! it observes per-chunk accesses and the epoch's disk-level plan and
//! orders the chunks best candidate for the fastest tier first, with
//! optional scores for the thresholds. It may also take over the
//! speed/sleep decision via [`MigrationPolicy::plan_speeds`] (the
//! SleepScale-style joint optimizer does; the others leave speeds to the
//! analytic allocator).
//!
//! The host owns the planning round. Its one [`GraceTracker`] turns every
//! policy's ranking into jobs through [`GraceTracker::plan_round`], which
//! applies the shared [`MigrationConfig`] vocabulary alike to all of them:
//!
//! * **grace** — a cooldown after a committed move during which the chunk
//!   may not be re-proposed (prevents ping-ponging a chunk between tiers);
//! * **promote/demote thresholds** — hysteresis on the policy's own score
//!   scale: a chunk only moves to a *faster* tier when its score is at
//!   least `promote_threshold`, and to a *slower* tier when its score is
//!   at most `demote_threshold`.
//!
//! The round also caps the jobs at the host's per-epoch budget and always
//! skips chunks whose previous move is still copying (re-proposing one
//! would only be dropped by the engine and inflate its `dropped` counter).
//! Config values select behaviour; no preset has a code path of its own.
//!
//! Whatever a policy ranks, the round never moves a **cold** chunk: one
//! whose temperature in the host's [`HeatMap`] is exactly zero (never
//! touched, or decayed to nothing). Copying it costs disk time and energy
//! and buys nothing, since no request has reached it lately. Cold chunks
//! still take their slot in the tier packing; they are just left where
//! they are.
//!
//! So a ranking need not list the cold chunks. The host's ranking is the
//! warm prefix of the full temperature order, and the round reads every
//! chunk it lacks as an implicit **cold tail** in ascending id order. The
//! round counts that tail's residents per tier by arithmetic over the
//! remap table instead of walking it, so a round costs what the warm
//! chunks cost. A policy may return either form: a full order, or a
//! prefix whose complement is all cold.
//!
//! The first implementor, [`AnalyticPolicy`], is the paper's planner
//! behind the trait: the host's temperature ranking in, hottest chunks to
//! the fastest tier out. It is the default [`Hibernator`](crate::Hibernator)
//! brain, with the vacuous [`MigrationConfig::default`] filters.
//! [`RandomPolicy`], the placement ablation, ranks the same chunks in a
//! random order.

use crate::allocator::{Allocation, AllocationInput, SpeedAllocator};
use crate::predictor::ServiceEstimator;
use array::{ArrayState, ChunkId, HeatMap, MigrationJob};
use diskmodel::SpeedLevel;
use simkit::{DetRng, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::ops::Range;

/// Shared tunables of every migration policy.
#[derive(Debug, Clone, Copy)]
pub struct MigrationConfig {
    /// Cooldown after a committed move: a chunk may not be re-proposed
    /// until `grace` has elapsed since the host observed the commit.
    pub grace: SimDuration,
    /// Minimum score for a move to a *faster* tier (`0.0` = no gate).
    pub promote_threshold: f64,
    /// Maximum score for a move to a *slower* tier (`∞` = no gate).
    pub demote_threshold: f64,
}

impl Default for MigrationConfig {
    /// Every filter vacuous — no grace, no thresholds — so the analytic
    /// planner moves whatever the epoch plan asks for (minus chunks still
    /// in flight). The default Hibernator's config.
    fn default() -> MigrationConfig {
        MigrationConfig {
            grace: SimDuration::ZERO,
            promote_threshold: 0.0,
            demote_threshold: f64::INFINITY,
        }
    }
}

impl MigrationConfig {
    /// Sensible defaults for the adaptive policies: a 5-minute grace
    /// period, thresholds left vacuous (each policy tightens them on its
    /// own score scale).
    pub fn adaptive() -> MigrationConfig {
        MigrationConfig {
            grace: SimDuration::from_mins(5.0),
            ..MigrationConfig::default()
        }
    }
}

/// What a policy sees at a migration planning round.
pub struct PolicyObservation<'a> {
    /// The planning instant (an epoch boundary).
    pub now: SimTime,
    /// The array, read-only: remap table, disks, migration engine.
    pub state: &'a ArrayState,
    /// The host's per-chunk temperatures: the round leaves every chunk
    /// that is cold here where it is.
    pub heat: &'a HeatMap,
    /// The host's chunk ranking, hottest first: the warm chunks only. The
    /// full ranking continues with every other chunk, cold, in ascending
    /// id order ([`array::append_cold_tail`] materialises it).
    pub ranking: &'a [ChunkId],
    /// Observed per-chunk request rates aligned with `ranking`, position
    /// for position (empty when the host has none).
    pub rates: &'a [f64],
    /// Per-disk target speed level for the adopted epoch plan.
    pub disk_levels: &'a [SpeedLevel],
    /// The host's per-epoch migration budget (jobs).
    pub budget: usize,
}

/// What a policy sees when offered the speed decision for an epoch.
pub struct SpeedObservation<'a> {
    /// The allocator input the analytic path would use (sorted-descending
    /// chunk rates, alive disk count, effective goal).
    pub input: &'a AllocationInput<'a>,
    /// The host's DP speed allocator.
    pub allocator: &'a SpeedAllocator,
    /// The host's per-level service-time estimator.
    pub estimator: &'a ServiceEstimator,
    /// Externally granted power cap, if any.
    pub power_cap: Option<f64>,
    /// The array, read-only.
    pub state: &'a ArrayState,
}

/// A policy-made speed decision for one epoch.
pub struct SpeedPlan {
    /// The allocation to adopt (per-level counts must cover the alive
    /// disks — sleeping disks are counted at level 0).
    pub alloc: Allocation,
    /// Disks the plan puts to sleep. When nonzero, every bottom-tier disk
    /// goes into standby instead of crawling at level 0 (they wake on
    /// demand).
    pub sleepers: u32,
}

/// A data-movement brain pluggable into [`Hibernator`](crate::Hibernator).
///
/// Infrequent observation (`observe_access`) feeds per-chunk statistics;
/// once per epoch the host first offers [`MigrationPolicy::plan_speeds`],
/// then plans the round through [`GraceTracker::plan_round`], which asks
/// for the policy's [`MigrationPolicy::rank`]. Implementations must be
/// deterministic: identical observation sequences must yield identical
/// rankings (seed any randomness with [`simkit::DetRng`]).
pub trait MigrationPolicy: Send {
    /// Stable policy name for telemetry and reports.
    fn name(&self) -> &'static str;

    /// The shared config in force.
    fn config(&self) -> &MigrationConfig;

    /// A foreground access touched `chunk` (called per request, so keep
    /// it cheap). Default: ignore.
    fn observe_access(&mut self, chunk: ChunkId) {
        let _ = chunk;
    }

    /// Offered the epoch's speed decision; return `None` to defer to the
    /// host's analytic allocator (the default).
    fn plan_speeds(&mut self, obs: &SpeedObservation<'_>) -> Option<SpeedPlan> {
        let _ = obs;
        None
    }

    /// This round's chunk ranking, best candidate for the fastest tier
    /// first, and scores aligned with it for the promote/demote
    /// thresholds (empty: no chunk is threshold-gated). The ranking may
    /// stop early only where every chunk it lacks is cold in the host's
    /// heat map: the round places those in ascending id order after it.
    /// Default: the host's heat ranking and rates.
    fn rank<'a>(&'a mut self, obs: &PolicyObservation<'a>) -> (&'a [ChunkId], &'a [f64]) {
        (obs.ranking, obs.rates)
    }
}

/// The host's planning state: tracks proposed moves through commit and
/// enforces the grace period.
///
/// The host cannot see commits directly (the engine commits between
/// epochs), so the tracker re-checks remembered proposals against the
/// remap table at each round: a chunk now living on its proposed
/// destination has committed, and its cooldown starts at the *observation*
/// instant — which is at or after the true commit, so the audited
/// invariant (no new move within `grace` of a commit) holds.
#[derive(Debug, Default)]
pub struct GraceTracker {
    /// chunk -> proposed destination disk index.
    proposals: BTreeMap<u32, usize>,
    /// chunk -> instant its cooldown ends.
    cooldown_until: BTreeMap<u32, SimTime>,
}

impl GraceTracker {
    /// An empty tracker.
    pub fn new() -> GraceTracker {
        GraceTracker::default()
    }

    /// One planning round: starts the cooldowns of moves committed since
    /// the last round, asks `policy` for its ranking, and packs it onto
    /// the epoch's tiers under the cold-chunk contract, the policy's grace
    /// and thresholds, the in-flight dedupe and the host budget. Keep one
    /// tracker per host across rounds, or committed moves escape their
    /// grace period.
    pub fn plan_round(
        &mut self,
        policy: &mut dyn MigrationPolicy,
        obs: &PolicyObservation<'_>,
    ) -> PlanOutcome {
        let cfg = *policy.config();
        self.note_commits(obs.now, obs.state, cfg.grace);
        let (ranking, scores) = policy.rank(obs);
        plan_migrations_filtered(obs, ranking, scores, &cfg, self)
    }

    /// Forgets remembered proposals that have committed, starting their
    /// cooldowns, and prunes expired cooldowns. Runs once at the top of
    /// every round.
    fn note_commits(&mut self, now: SimTime, state: &ArrayState, grace: SimDuration) {
        let GraceTracker {
            proposals,
            cooldown_until,
        } = self;
        proposals.retain(|&c, &mut dst| {
            let committed = state.remap.disk_of(ChunkId(c)).index() == dst;
            if committed && grace.as_secs() > 0.0 {
                cooldown_until.insert(c, now + grace);
            }
            !committed
        });
        cooldown_until.retain(|_, &mut until| until > now);
    }

    /// True while `chunk` is inside its post-commit cooldown.
    fn blocked(&self, chunk: ChunkId, now: SimTime) -> bool {
        self.cooldown_until
            .get(&chunk.0)
            .is_some_and(|&until| until > now)
    }

    /// Remembers a proposal so its commit can be detected later.
    fn note_proposal(&mut self, chunk: ChunkId, dst: usize) {
        self.proposals.insert(chunk.0, dst);
    }
}

/// A planning round's output.
#[derive(Debug, Default, PartialEq)]
pub struct PlanOutcome {
    /// The jobs to enqueue.
    pub jobs: Vec<MigrationJob>,
    /// Movers withheld because the host's heat map says they are cold.
    pub skipped_cold: u32,
    /// Movers withheld by the grace period.
    pub deferred_grace: u32,
    /// Movers withheld because their previous move is still copying.
    pub deferred_inflight: u32,
    /// Movers withheld by the promote/demote hysteresis.
    pub skipped_threshold: u32,
}

/// The one planning function behind every round: the paper's chunk
/// delta extended with the cold-chunk contract and the [`MigrationConfig`]
/// filters.
///
/// `ranking` is the policy's chunk ordering (best candidate for the
/// fastest tier first; not necessarily `obs.ranking`), followed by the
/// implicit cold tail when it is shorter than the volume, and
/// `obs.disk_levels` the epoch's per-disk targets (from
/// [`match_disks`](crate::match_disks)). Chunks are assigned in ranking
/// order to the fastest tier's alive disks (each taking an equal share),
/// then the next tier, and so on; a [`MigrationJob::Relocate`] is proposed
/// for every chunk not already on a disk of its target tier, to the
/// least-filled disk of that tier, until `obs.budget` jobs are proposed.
///
/// Before a move is proposed it must pass, in order: the cold check (a
/// chunk with zero temperature in `obs.heat` stays put), the grace
/// period, the in-flight check (a chunk whose previous move is still
/// copying is skipped), and the promote/demote thresholds on `scores`,
/// which is aligned with `ranking` (pass `&[]` to disable them). With the
/// default config, every chunk warm and nothing in flight this is the
/// paper's unfiltered planner, which the unit tests keep as an oracle.
fn plan_migrations_filtered(
    obs: &PolicyObservation<'_>,
    ranking: &[ChunkId],
    scores: &[f64],
    cfg: &MigrationConfig,
    grace: &mut GraceTracker,
) -> PlanOutcome {
    let PolicyObservation {
        now,
        state,
        heat,
        disk_levels,
        budget,
        ..
    } = *obs;
    let mut out = PlanOutcome::default();
    let n = disk_levels.len();
    // The full ranking: `ranking`, then the implicit cold tail.
    let chunks = state.remap.chunks() as usize;
    debug_assert!(ranking.len() <= chunks, "ranking longer than the volume");
    if n == 0 || chunks == 0 || budget == 0 {
        return out;
    }
    let alive = state.alive_disks();
    if alive == 0 {
        return out;
    }
    let cpd = chunks.div_ceil(alive);

    let levels = state.config.spec.num_levels();
    let mut tier_disks: Vec<Vec<array::DiskId>> = vec![Vec::new(); levels];
    for (i, &l) in disk_levels.iter().enumerate() {
        if !state.disks[i].has_failed() {
            tier_disks[l.index()].push(array::DiskId(i));
        }
    }

    let tail = (ranking.len() < chunks).then(|| ColdTail::new(ranking));
    let mut residents = vec![0usize; state.remap.disks()];
    let mut fill: Vec<usize> = vec![0; n];
    let mut rank_pos = 0usize;
    'tiers: for level in (0..levels).rev() {
        let disks = &tier_disks[level];
        if disks.is_empty() {
            continue;
        }
        let tier_base = rank_pos;
        rank_pos = (rank_pos + disks.len() * cpd).min(chunks);
        if rank_pos == tier_base {
            continue;
        }
        let in_tier = |d: array::DiskId| {
            disk_levels[d.index()] == SpeedLevel(level) && !state.disks[d.index()].has_failed()
        };
        let members = &ranking[tier_base.min(ranking.len())..rank_pos.min(ranking.len())];
        let mut movers: Vec<(ChunkId, Option<f64>)> = Vec::new();
        for (k, &c) in members.iter().enumerate() {
            let cur = state.remap.disk_of(c);
            if in_tier(cur) {
                fill[cur.index()] += 1;
            } else {
                // A chunk without a score is never threshold-gated.
                movers.push((c, scores.get(tier_base + k).copied()));
            }
        }
        // The tier's share of the cold tail follows its ranked members:
        // residents fill their disks, and every other tail chunk is a
        // mover the cold check withholds.
        let mut tail_movers = 0;
        if let Some(tail) = tail.as_ref().filter(|_| rank_pos > ranking.len()) {
            let skip = ranking.len();
            residents.fill(0);
            tail.count_residents(
                tier_base.max(skip) - skip..rank_pos - skip,
                state,
                &mut residents,
            );
            for (d, &k) in residents.iter().enumerate() {
                if in_tier(array::DiskId(d)) {
                    fill[d] += k;
                } else {
                    tail_movers += k;
                }
            }
        }
        for (c, score) in movers {
            if heat.temperature(now, c) == 0.0 {
                out.skipped_cold += 1;
                continue;
            }
            if grace.blocked(c, now) {
                out.deferred_grace += 1;
                continue;
            }
            if state.migrator.chunk_in_flight(c) {
                out.deferred_inflight += 1;
                continue;
            }
            // Hysteresis: judge the move's direction by where the chunk's
            // current disk is headed this epoch vs the tier being filled.
            let cur_level = disk_levels[state.remap.disk_of(c).index()].index();
            let gated = match score {
                Some(s) if level > cur_level => s < cfg.promote_threshold,
                Some(s) if level < cur_level => s > cfg.demote_threshold,
                // Lateral rebalance within a tier is always allowed, as is
                // any move for a chunk the policy has no score for.
                _ => false,
            };
            if gated {
                out.skipped_threshold += 1;
                continue;
            }
            let &dst = disks
                .iter()
                .min_by_key(|d| fill[d.index()])
                .expect("tier non-empty");
            fill[dst.index()] += 1;
            grace.note_proposal(c, dst.index());
            out.jobs.push(MigrationJob::Relocate { chunk: c, dst });
            if out.jobs.len() >= budget {
                break 'tiers;
            }
        }
        // Tail movers come after every ranked mover of the tier, so a
        // budget exhausted above never reaches them.
        out.skipped_cold += tail_movers as u32;
    }
    out
}

/// The implicit cold tail of a short ranking: every chunk id the ranking
/// lacks, in ascending order.
struct ColdTail {
    /// The ranked ids, ascending.
    ranked: Vec<u32>,
    /// Per ranked id (same order): how many tail ids lie below it.
    below: Vec<u32>,
}

impl ColdTail {
    fn new(ranking: &[ChunkId]) -> ColdTail {
        let mut ranked: Vec<u32> = ranking.iter().map(|c| c.0).collect();
        ranked.sort_unstable();
        let below = ranked
            .iter()
            .enumerate()
            .map(|(i, &c)| c - i as u32)
            .collect();
        ColdTail { ranked, below }
    }

    /// The id of the tail's `k`-th chunk, or the volume's chunk count
    /// when `k` is the tail's length.
    fn id(&self, k: usize) -> u32 {
        let k = k as u32;
        k + self.below.partition_point(|&b| b <= k) as u32
    }

    /// Adds to `counts[d]` how many of the tail's chunks `ks` (positions
    /// in the tail) live on disk `d`: the remap table's residents of the
    /// id range they span, less the ranked chunks inside it.
    fn count_residents(&self, ks: Range<usize>, state: &ArrayState, counts: &mut [usize]) {
        let (lo, hi) = (self.id(ks.start), self.id(ks.end));
        state.remap.count_residents(lo..hi, counts);
        let from = self.ranked.partition_point(|&c| c < lo);
        let to = self.ranked.partition_point(|&c| c < hi);
        for &c in &self.ranked[from..to] {
            counts[state.remap.disk_of(ChunkId(c)).index()] -= 1;
        }
    }
}

/// The paper's analytic planner behind the trait: the host's temperature
/// ranking, planned by the host's round.
pub struct AnalyticPolicy {
    cfg: MigrationConfig,
}

impl AnalyticPolicy {
    /// Analytic planning with the given filters.
    pub fn with_config(cfg: MigrationConfig) -> AnalyticPolicy {
        AnalyticPolicy { cfg }
    }
}

impl MigrationPolicy for AnalyticPolicy {
    fn name(&self) -> &'static str {
        "analytic"
    }

    fn config(&self) -> &MigrationConfig {
        &self.cfg
    }
}

/// The placement ablation (F7): every chunk (the host's warm ranking and
/// its cold tail) in a fresh random order every round, so data moves but
/// lands without regard to temperature. Each chunk keeps its rate beside
/// it.
pub struct RandomPolicy {
    cfg: MigrationConfig,
    rng: DetRng,
    /// Reused per round: the shuffled (chunk, rate) pairs, then each
    /// column on its own for [`MigrationPolicy::rank`].
    pairs: Vec<(ChunkId, f64)>,
    ranking: Vec<ChunkId>,
    rates: Vec<f64>,
}

impl RandomPolicy {
    /// Random placement with the vacuous [`MigrationConfig::default`]
    /// filters.
    pub fn new() -> RandomPolicy {
        RandomPolicy {
            cfg: MigrationConfig::default(),
            rng: DetRng::new(0x41B, "hibernator-shuffle"),
            pairs: Vec::new(),
            ranking: Vec::new(),
            rates: Vec::new(),
        }
    }
}

impl Default for RandomPolicy {
    fn default() -> Self {
        RandomPolicy::new()
    }
}

impl MigrationPolicy for RandomPolicy {
    fn name(&self) -> &'static str {
        "random"
    }

    fn config(&self) -> &MigrationConfig {
        &self.cfg
    }

    fn rank<'a>(&'a mut self, obs: &PolicyObservation<'a>) -> (&'a [ChunkId], &'a [f64]) {
        self.ranking.clear();
        self.ranking.extend_from_slice(obs.ranking);
        array::append_cold_tail(&mut self.ranking, obs.state.remap.chunks());
        let rates = obs.rates.iter().copied().chain(std::iter::repeat(0.0));
        self.pairs.clear();
        self.pairs.extend(self.ranking.iter().copied().zip(rates));
        self.rng.shuffle(&mut self.pairs);
        self.ranking.clear();
        self.ranking.extend(self.pairs.iter().map(|&(c, _)| c));
        self.rates.clear();
        self.rates.extend(self.pairs.iter().map(|&(_, r)| r));
        (&self.ranking, &self.rates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use array::{ArrayConfig, ArrayStats, DiskId, MigrationEngine, RemapTable};
    use diskmodel::Disk;

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

    fn split_levels() -> Vec<SpeedLevel> {
        vec![SpeedLevel(5), SpeedLevel(5), SpeedLevel(0), SpeedLevel(0)]
    }

    /// A heat map over `chunks` chunks in which exactly `warm` are warm.
    fn heat_of(chunks: u32, warm: impl IntoIterator<Item = u32>) -> HeatMap {
        let mut heat = HeatMap::new(chunks, SimDuration::from_secs(60.0));
        for c in warm {
            heat.touch(SimTime::ZERO, ChunkId(c));
        }
        heat
    }

    /// A heat map in which every chunk is warm.
    fn all_warm(state: &ArrayState) -> HeatMap {
        heat_of(state.remap.chunks(), 0..state.remap.chunks())
    }

    /// The observation of a round at `now` (host ranking and rates empty:
    /// the tests pass the policy's ranking to the planner directly).
    fn obs<'a>(
        now: SimTime,
        state: &'a ArrayState,
        heat: &'a HeatMap,
        disk_levels: &'a [SpeedLevel],
        budget: usize,
    ) -> PolicyObservation<'a> {
        PolicyObservation {
            now,
            state,
            heat,
            ranking: &[],
            rates: &[],
            disk_levels,
            budget,
        }
    }

    /// The paper's unfiltered planner, as it stood before the filters:
    /// the oracle the filtered planner must reproduce when every filter
    /// is vacuous, every chunk is warm and nothing is in flight.
    fn plan_migrations(
        state: &ArrayState,
        ranking: &[ChunkId],
        disk_levels: &[SpeedLevel],
        budget: usize,
    ) -> Vec<MigrationJob> {
        let n = disk_levels.len();
        if n == 0 || ranking.is_empty() || budget == 0 {
            return Vec::new();
        }
        let alive = state.alive_disks();
        if alive == 0 {
            return Vec::new();
        }
        let cpd = ranking.len().div_ceil(alive);
        let levels = state.config.spec.num_levels();
        let mut tier_disks: Vec<Vec<DiskId>> = vec![Vec::new(); levels];
        for (i, &l) in disk_levels.iter().enumerate() {
            if !state.disks[i].has_failed() {
                tier_disks[l.index()].push(DiskId(i));
            }
        }
        let mut fill: Vec<usize> = vec![0; n];
        let mut jobs = Vec::new();
        let mut rank_iter = ranking.iter();
        'tiers: for level in (0..levels).rev() {
            let disks = &tier_disks[level];
            if disks.is_empty() {
                continue;
            }
            let members: Vec<ChunkId> = rank_iter
                .by_ref()
                .take(disks.len() * cpd)
                .copied()
                .collect();
            let mut movers = Vec::new();
            for &c in &members {
                let cur = state.remap.disk_of(c);
                if disks.contains(&cur) {
                    fill[cur.index()] += 1;
                } else {
                    movers.push(c);
                }
            }
            for c in movers {
                let &dst = disks
                    .iter()
                    .min_by_key(|d| fill[d.index()])
                    .expect("tier non-empty");
                fill[dst.index()] += 1;
                jobs.push(MigrationJob::Relocate { chunk: c, dst });
                if jobs.len() >= budget {
                    break 'tiers;
                }
            }
        }
        jobs
    }

    /// One default-config planning round with a fresh grace tracker, on
    /// an all-warm heat map.
    fn plan(
        state: &ArrayState,
        ranking: &[ChunkId],
        disk_levels: &[SpeedLevel],
        budget: usize,
    ) -> PlanOutcome {
        let heat = all_warm(state);
        plan_migrations_filtered(
            &obs(SimTime::ZERO, state, &heat, disk_levels, budget),
            ranking,
            &[],
            &MigrationConfig::default(),
            &mut GraceTracker::new(),
        )
    }

    fn relocations(jobs: &[MigrationJob]) -> Vec<(u32, usize)> {
        jobs.iter()
            .map(|j| match j {
                MigrationJob::Relocate { chunk, dst } => (chunk.0, dst.index()),
                other => panic!("unexpected job {other:?}"),
            })
            .collect()
    }

    /// With every filter vacuous, every chunk warm and nothing in flight,
    /// the filtered planner reproduces the unfiltered oracle exactly — job
    /// for job, across budgets.
    #[test]
    fn vacuous_filters_match_reference_planner() {
        for (chunks, budget) in [(16u32, 100usize), (32, 5), (48, 1), (16, 3)] {
            let state = mk_state(4, chunks);
            let ranking: Vec<ChunkId> = (0..chunks).rev().map(ChunkId).collect();
            let reference = plan_migrations(&state, &ranking, &split_levels(), budget);
            let filtered = plan(&state, &ranking, &split_levels(), budget);
            assert_eq!(reference, filtered.jobs, "chunks={chunks} budget={budget}");
            assert_eq!(filtered.deferred_grace, 0);
            assert_eq!(filtered.deferred_inflight, 0);
        }
    }

    /// Regression for the epoch-shorter-than-migration-latency bug: a
    /// chunk whose move is mid-copy must not be re-proposed (the duplicate
    /// would be dropped by the engine), while the unfiltered oracle
    /// visibly re-plans it. Every other chunk the oracle moves still
    /// moves.
    #[test]
    fn inflight_dedupe_skips_busy_chunks() {
        let mut state = mk_state(4, 16);
        let ranking: Vec<ChunkId> = (0..16).map(ChunkId).collect();
        let first = plan(&state, &ranking, &split_levels(), 100).jobs;
        assert!(!first.is_empty());
        // Start the first job copying (pump holds it active until its read
        // and write complete — which never happens here).
        state.migrator.enqueue(first);
        let mut remap = std::mem::replace(&mut state.remap, RemapTable::striped(&state.config));
        let reqs = state.migrator.pump(SimTime::ZERO, &mut remap);
        state.remap = remap;
        assert!(!reqs.is_empty(), "pump must start a job");
        let busy: Vec<u32> = ranking
            .iter()
            .filter(|&&c| state.migrator.chunk_in_flight(c))
            .map(|c| c.0)
            .collect();
        assert!(!busy.is_empty(), "a chunk must be mid-copy");

        // The oracle re-plans the busy chunk…
        let oracle = relocations(&plan_migrations(&state, &ranking, &split_levels(), 100));
        assert!(
            oracle.iter().any(|(c, _)| busy.contains(c)),
            "the oracle should re-plan the in-flight chunk"
        );
        // …the planner skips exactly the busy chunks and nothing else.
        let deduped = plan(&state, &ranking, &split_levels(), 100);
        let moved: Vec<u32> = relocations(&deduped.jobs).iter().map(|m| m.0).collect();
        let expected: Vec<u32> = oracle
            .iter()
            .map(|m| m.0)
            .filter(|c| !busy.contains(c))
            .collect();
        assert_eq!(moved, expected, "dedupe must skip in-flight chunks only");
        assert_eq!(deduped.deferred_inflight as usize, busy.len());
    }

    /// A committed move starts the cooldown; the chunk is blocked until
    /// `grace` elapses, then free again.
    #[test]
    fn grace_blocks_recommitted_chunks() {
        let mut state = mk_state(4, 16);
        let ranking: Vec<ChunkId> = (0..16).map(ChunkId).collect();
        let cfg = MigrationConfig {
            grace: SimDuration::from_secs(100.0),
            ..MigrationConfig::default()
        };
        let mut grace = GraceTracker::new();
        let heat = all_warm(&state);
        let levels = split_levels();
        let round1 = plan_migrations_filtered(
            &obs(SimTime::ZERO, &state, &heat, &levels, 100),
            &ranking,
            &[],
            &cfg,
            &mut grace,
        );
        let (chunk, dst) = match round1.jobs[0] {
            MigrationJob::Relocate { chunk, dst } => (chunk, dst),
            ref other => panic!("unexpected job {other:?}"),
        };
        // Commit the move by hand.
        let slot = state.remap.reserve_slot(dst).expect("free slot");
        state.remap.relocate(chunk, dst, slot);
        let now = SimTime::from_secs(10.0);
        grace.note_commits(now, &state, cfg.grace);
        assert!(grace.blocked(chunk, now), "fresh commit must cool down");
        assert!(
            !grace.blocked(chunk, SimTime::from_secs(111.0)),
            "cooldown must expire"
        );
    }

    /// Promote/demote thresholds gate moves by direction: a cold score
    /// cannot promote, a hot score cannot demote, lateral moves pass.
    #[test]
    fn thresholds_gate_by_direction() {
        let state = mk_state(4, 16);
        let ranking: Vec<ChunkId> = (0..16).map(ChunkId).collect();
        let scores = vec![0.5f64; 16]; // all below promote, above demote
        let cfg = MigrationConfig {
            promote_threshold: 1.0,
            demote_threshold: 0.1,
            ..MigrationConfig::default()
        };
        let heat = all_warm(&state);
        let levels = split_levels();
        let round = obs(SimTime::ZERO, &state, &heat, &levels, 100);
        let out =
            plan_migrations_filtered(&round, &ranking, &scores, &cfg, &mut GraceTracker::new());
        assert!(
            out.jobs.is_empty(),
            "every move should be gated: {:?}",
            out.jobs
        );
        assert!(out.skipped_threshold > 0);
        // With vacuous thresholds the same round emits jobs.
        let out2 = plan_migrations_filtered(
            &round,
            &ranking,
            &scores,
            &MigrationConfig::default(),
            &mut GraceTracker::new(),
        );
        assert!(!out2.jobs.is_empty());
    }

    /// Dead disks neither give up nor receive chunks.
    #[test]
    fn filtered_planner_avoids_dead_disks() {
        let mut state = mk_state(4, 16);
        let lost = state.disks[0].fail(SimTime::ZERO);
        let mut remap = std::mem::replace(&mut state.remap, RemapTable::striped(&state.config));
        let _ = state
            .migrator
            .note_disk_failed(SimTime::ZERO, DiskId(0), &lost, &mut remap);
        state.remap = remap;
        let ranking: Vec<ChunkId> = (0..16).map(ChunkId).collect();
        let heat = all_warm(&state);
        let levels = split_levels();
        let out = plan_migrations_filtered(
            &obs(SimTime::ZERO, &state, &heat, &levels, 100),
            &ranking,
            &[],
            &MigrationConfig::adaptive(),
            &mut GraceTracker::new(),
        );
        for j in &out.jobs {
            if let MigrationJob::Relocate { dst, .. } = j {
                assert_ne!(dst.index(), 0, "dead disk must not receive chunks");
            }
        }
    }

    /// The cold-chunk contract: a chunk the host's heat map calls cold
    /// stays on the wrong tier, while a warm one beside it moves. Striped
    /// over four disks, the fast tier takes ranks 0..8 ({2, 0, 1, 3, 4, 5,
    /// 6, 7}): warm chunk 2 leaves slow disk 2, cold 3, 6 and 7 stay on
    /// the slow disks, and cold 8, 9, 12 and 13 stay on the fast ones.
    #[test]
    fn cold_chunks_stay_put_while_warm_ones_move() {
        let state = mk_state(4, 16);
        let ranking: Vec<ChunkId> = std::iter::once(2)
            .chain((0..16).filter(|&c| c != 2))
            .map(ChunkId)
            .collect();
        let levels = split_levels();
        let run = |heat: &HeatMap, now: SimTime| {
            plan_migrations_filtered(
                &obs(now, &state, heat, &levels, 100),
                &ranking,
                &[],
                &MigrationConfig::default(),
                &mut GraceTracker::new(),
            )
        };
        let mut heat = heat_of(16, [2]);
        let out = run(&heat, SimTime::ZERO);
        assert_eq!(relocations(&out.jobs), vec![(2, 0)]);
        assert_eq!(out.skipped_cold, 7);

        // Decayed to nothing counts as cold too: chunk 7 was touched once,
        // long enough ago that its temperature underflowed to 0.0.
        heat.touch(SimTime::ZERO, ChunkId(7));
        let later = SimTime::from_secs(1e6);
        heat.touch(later, ChunkId(2));
        assert_eq!(heat.temperature(later, ChunkId(7)), 0.0);
        let out = run(&heat, later);
        assert_eq!(relocations(&out.jobs), vec![(2, 0)]);
        assert_eq!(out.skipped_cold, 7);
    }

    /// The host's short ranking and the same ranking materialised to full
    /// length plan the same round, every [`PlanOutcome`] field and the
    /// jobs in order. Seeded states cover committed overrides, a failed
    /// disk, chunks in flight, small budgets, thresholds and grace, and
    /// tiers that straddle the warm/cold boundary; each case plans a
    /// second round after committing some of the first one's moves.
    #[test]
    fn short_ranking_plans_like_its_materialised_form() {
        let mut rng = DetRng::new(0x7A11, "round-oracle");
        let (mut tails, mut straddles) = (0, 0);
        for case in 0..300 {
            let disks = 2 + rng.below(7) as usize;
            let chunks = 1 + rng.below(400) as u32;
            let mut state = mk_state(disks, chunks);
            for _ in 0..rng.below(u64::from(chunks)) {
                let c = ChunkId(rng.below(u64::from(chunks)) as u32);
                let dst = DiskId(rng.below(disks as u64) as usize);
                if let Some(slot) = state.remap.reserve_slot(dst) {
                    state.remap.relocate(c, dst, slot);
                }
            }
            if rng.chance(0.3) {
                let d = rng.below(disks as u64) as usize;
                let lost = state.disks[d].fail(SimTime::ZERO);
                let mut remap =
                    std::mem::replace(&mut state.remap, RemapTable::striped(&state.config));
                let _ =
                    state
                        .migrator
                        .note_disk_failed(SimTime::ZERO, DiskId(d), &lost, &mut remap);
                state.remap = remap;
            }
            // Warm chunks, some touched more often, and chunks whose heat
            // decayed to exactly zero.
            let tau = SimDuration::from_secs(60.0);
            let now = SimTime::from_secs(1e6);
            let mut heat = HeatMap::new(chunks, tau);
            let reach = 1 + rng.below(u64::from(chunks));
            for _ in 0..rng.below(2 * reach) {
                let c = ChunkId(rng.below(reach) as u32);
                let at = if rng.chance(0.3) { SimTime::ZERO } else { now };
                heat.touch(at, c);
            }
            let mut levels: Vec<SpeedLevel> = (0..disks)
                .map(|_| SpeedLevel([0, 0, 2, 5][rng.below(4) as usize]))
                .collect();
            if rng.chance(0.2) {
                levels.fill(SpeedLevel(5));
            }
            let mut scratch = array::RankScratch::new();
            heat.ranking_into(now, &mut scratch);
            let short = (scratch.ranked().to_vec(), scratch.rates().to_vec());
            scratch.extend_cold_tail(chunks);
            let full = (scratch.ranked().to_vec(), scratch.rates().to_vec());
            let alive = state.alive_disks().max(1);
            let cpd = (chunks as usize).div_ceil(alive);
            tails += usize::from(short.0.len() < full.0.len());
            straddles += usize::from(!short.0.len().is_multiple_of(cpd));
            // Start some warm chunks copying.
            if rng.chance(0.5) && alive > 0 {
                let starter = plan(&state, &full.0, &levels, 1 + rng.below(4) as usize);
                state.migrator.enqueue(starter.jobs);
                let mut remap =
                    std::mem::replace(&mut state.remap, RemapTable::striped(&state.config));
                let _ = state.migrator.pump(SimTime::ZERO, &mut remap);
                state.remap = remap;
            }
            let cfg = MigrationConfig {
                grace: SimDuration::from_secs([0.0, 100.0][rng.below(2) as usize]),
                promote_threshold: [0.0, rng.uniform(0.0, 0.05)][rng.below(2) as usize],
                demote_threshold: [f64::INFINITY, rng.uniform(0.0, 0.05)][rng.below(2) as usize],
            };
            let budget = if rng.chance(0.5) {
                1 + rng.below(4) as usize
            } else {
                1 + rng.below(u64::from(chunks)) as usize
            };
            let mut hosts = (GraceTracker::new(), GraceTracker::new());
            let mut round = |at: SimTime, state: &ArrayState| {
                let plan_with = |host: &mut GraceTracker, ranked: &(Vec<ChunkId>, Vec<f64>)| {
                    let mut o = obs(at, state, &heat, &levels, budget);
                    o.ranking = &ranked.0;
                    o.rates = &ranked.1;
                    host.plan_round(&mut AnalyticPolicy::with_config(cfg), &o)
                };
                let a = plan_with(&mut hosts.0, &short);
                assert_eq!(a, plan_with(&mut hosts.1, &full), "case {case} at {at:?}");
                a
            };
            let first = round(now, &state);
            // Commit some of the first round's moves by hand, so the
            // second round sees new overrides and starts their grace.
            for job in first.jobs.iter().take(rng.below(3) as usize) {
                if let MigrationJob::Relocate { chunk, dst } = *job {
                    if !state.migrator.chunk_in_flight(chunk) {
                        if let Some(slot) = state.remap.reserve_slot(dst) {
                            state.remap.relocate(chunk, dst, slot);
                        }
                    }
                }
            }
            round(now + SimDuration::from_secs(10.0), &state);
        }
        assert!(
            tails > 200 && straddles > 100,
            "{tails} tails, {straddles} straddles"
        );
    }

    #[test]
    fn plan_moves_hot_chunks_to_fast_tier() {
        let state = mk_state(4, 16);
        // Ranking: chunks 2, 3 are hottest (they live on disks 2 and 3 under
        // striping), the rest colder.
        let ranking: Vec<ChunkId> = [2u32, 3, 6, 7, 0, 1, 4, 5, 8, 9, 10, 11, 12, 13, 14, 15]
            .iter()
            .map(|&c| ChunkId(c))
            .collect();
        let jobs = plan(&state, &ranking, &split_levels(), 100).jobs;
        // The hot chunks on slow disks (2, 3, 6, 7) must move to disks 0/1.
        let mut moved = relocations(&jobs);
        moved.sort_unstable();
        for (chunk, dst) in &moved[..4.min(moved.len())] {
            if [2, 3, 6, 7].contains(chunk) {
                assert!(*dst <= 1, "hot chunk {chunk} routed to slow disk {dst}");
            }
        }
        assert!(
            jobs.len() >= 4,
            "hot-on-slow and cold-on-fast chunks both need moves: {}",
            jobs.len()
        );
    }

    #[test]
    fn plan_respects_budget_and_orders_hottest_first() {
        let state = mk_state(4, 16);
        let ranking: Vec<ChunkId> = (0..16).map(ChunkId).collect();
        let all = plan(&state, &ranking, &split_levels(), 100).jobs;
        let capped = plan(&state, &ranking, &split_levels(), 2).jobs;
        assert_eq!(capped.len(), 2);
        assert_eq!(&all[..2], &capped[..]);
    }

    #[test]
    fn aligned_layout_needs_no_moves() {
        let state = mk_state(2, 8);
        // Striping: chunks 0,2,4,6 on disk 0; 1,3,5,7 on disk 1.
        let disk_levels = vec![SpeedLevel(5), SpeedLevel(0)];
        // Ranking exactly matches the current split: disk-0 chunks hottest.
        let ranking: Vec<ChunkId> = [0u32, 2, 4, 6, 1, 3, 5, 7]
            .iter()
            .map(|&c| ChunkId(c))
            .collect();
        let jobs = plan(&state, &ranking, &disk_levels, 100).jobs;
        assert!(jobs.is_empty(), "layout already matches: {jobs:?}");
    }

    #[test]
    fn empty_inputs_no_jobs() {
        let state = mk_state(2, 8);
        let slow = [SpeedLevel(0), SpeedLevel(0)];
        assert!(plan(&state, &[], &slow, 10).jobs.is_empty());
        let ranking: Vec<ChunkId> = (0..8).map(ChunkId).collect();
        assert!(plan(&state, &ranking, &slow, 0).jobs.is_empty());
    }

    #[test]
    fn matched_disks_feed_the_planner() {
        // The epoch's planning step end to end: allocation counts to
        // concrete disks, then the chunk delta onto them.
        let state = mk_state(4, 16);
        let mut counts = vec![0; 6];
        counts[0] = 2;
        counts[5] = 2;
        let ranking: Vec<ChunkId> = (0..16).map(ChunkId).collect();
        let disk_levels = crate::match_disks(&state, &counts);
        assert_eq!(disk_levels.len(), 4);
        let jobs = plan(&state, &ranking, &disk_levels, 100).jobs;
        assert!(!jobs.is_empty());
        assert_eq!(jobs, plan_migrations(&state, &ranking, &disk_levels, 100));
    }

    #[test]
    fn destinations_stay_balanced() {
        let state = mk_state(4, 32);
        let ranking: Vec<ChunkId> = (0..32).map(ChunkId).collect();
        let jobs = plan(&state, &ranking, &split_levels(), 1000).jobs;
        let mut per_dst = std::collections::HashMap::new();
        for (_, dst) in relocations(&jobs) {
            *per_dst.entry(dst).or_insert(0usize) += 1;
        }
        let max = per_dst.values().copied().max().unwrap_or(0);
        let min = per_dst.values().copied().min().unwrap_or(0);
        assert!(max - min <= 2, "unbalanced destinations: {per_dst:?}");
    }
}
