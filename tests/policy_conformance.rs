//! The policy-conformance battery (see DESIGN.md §17).
//!
//! Every registered [`MigrationPolicy`] — the filtered analytic planner,
//! LFU, the bandit classifier, the SleepScale joint optimizer, and a
//! test-local policy that does nothing but rank — must honor the shared
//! [`MigrationConfig`] contract regardless of how it ranks chunks. A
//! policy only ranks; the host's [`GraceTracker::plan_round`] (one tracker
//! per policy, kept across rounds as the host keeps it) makes the moves:
//!
//! * a chunk the host's heat map calls cold (never touched, or decayed to
//!   zero) is never proposed, whatever the policy's ranking or scores
//!   say, and the round counts each one it withheld;
//! * a chunk whose move committed is never re-proposed inside `grace`;
//! * the host's per-round budget caps the proposal;
//! * dead disks never receive chunks;
//! * identical observation histories yield identical proposals;
//! * a full simulated run emits `policy` telemetry and survives the
//!   replay audit, including the migration-grace invariant;
//! * the default Hibernator skips chunks still mid-copy at an epoch
//!   boundary and reports the deferrals.
//!
//! New policies join the battery by adding a factory to [`registry`].

use array::{
    run_policy, ArrayConfig, ArrayState, ArrayStats, ChunkId, HeatMap, MigrationEngine,
    MigrationJob, RankScratch, RemapTable, RunOptions,
};
use diskmodel::{Disk, SpeedLevel};
use hibernator::{
    AnalyticPolicy, GraceTracker, Hibernator, HibernatorConfig, MigrationConfig, MigrationPolicy,
    PlanOutcome, PolicyObservation,
};
use policies::{BanditPolicy, LfuPolicy, SleepScalePolicy};
use simkit::{SimDuration, SimTime};
use telemetry::TelemetryConfig;
use workload::WorkloadSpec;

type PolicyFactory = fn() -> Box<dyn MigrationPolicy>;

/// Every registered migration policy, by factory (each test needs fresh
/// instances).
fn registry() -> Vec<(&'static str, PolicyFactory)> {
    vec![
        ("analytic", || {
            Box::new(AnalyticPolicy::with_config(MigrationConfig::adaptive()))
        }),
        ("lfu", || Box::new(LfuPolicy::new())),
        ("bandit", || Box::new(BanditPolicy::new())),
        ("sleepscale", || Box::new(SleepScalePolicy::new())),
        ("flipper", || Box::new(Flipper::new())),
    ]
}

/// A policy that implements only the ranking: every round it flips
/// between ascending and descending chunk ids, so it keeps asking to move
/// just-committed chunks straight back. It applies no filter itself; the
/// host's round alone must hold it to the contract.
struct Flipper {
    cfg: MigrationConfig,
    ascending: bool,
    ranking: Vec<ChunkId>,
}

impl Flipper {
    fn new() -> Flipper {
        Flipper {
            cfg: MigrationConfig::adaptive(),
            ascending: false,
            ranking: Vec::new(),
        }
    }
}

impl MigrationPolicy for Flipper {
    fn name(&self) -> &'static str {
        "flipper"
    }

    fn config(&self) -> &MigrationConfig {
        &self.cfg
    }

    fn rank<'a>(&'a mut self, obs: &PolicyObservation<'a>) -> (&'a [ChunkId], &'a [f64]) {
        self.ascending = !self.ascending;
        self.ranking = (0..obs.state.remap.chunks()).map(ChunkId).collect();
        if !self.ascending {
            self.ranking.reverse();
        }
        (&self.ranking, &[])
    }
}

/// A policy that ranks the host's ranking backwards, so the chunks the
/// host calls cold (its ranking's tail) come first and ask for the
/// fastest tier. Like [`Flipper`] it only ranks; the host's round alone
/// must keep the cold chunks where they are. It joins the cold-chunk
/// test only: on the battery's striped fixtures its ranking matches the
/// layout, so it never moves anything there.
struct ColdFirst {
    cfg: MigrationConfig,
    ranking: Vec<ChunkId>,
}

impl ColdFirst {
    fn new() -> ColdFirst {
        ColdFirst {
            cfg: MigrationConfig::adaptive(),
            ranking: Vec::new(),
        }
    }
}

impl MigrationPolicy for ColdFirst {
    fn name(&self) -> &'static str {
        "cold-first"
    }

    fn config(&self) -> &MigrationConfig {
        &self.cfg
    }

    fn rank<'a>(&'a mut self, obs: &PolicyObservation<'a>) -> (&'a [ChunkId], &'a [f64]) {
        self.ranking.clear();
        self.ranking.extend(obs.ranking.iter().rev());
        (&self.ranking, &[])
    }
}

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

/// Two fast disks, two slow disks.
fn split_levels() -> Vec<SpeedLevel> {
    vec![SpeedLevel(5), SpeedLevel(5), SpeedLevel(0), SpeedLevel(0)]
}

/// Heat-ordered ranking + aligned rates: `hot` chunks first at high rate.
fn ranked(chunks: u32, hot: &[u32]) -> (Vec<ChunkId>, Vec<f64>) {
    let mut ranking: Vec<ChunkId> = hot.iter().copied().map(ChunkId).collect();
    for c in 0..chunks {
        if !hot.contains(&c) {
            ranking.push(ChunkId(c));
        }
    }
    let rates: Vec<f64> = (0..chunks as usize)
        .map(|i| if i < hot.len() { 10.0 } else { 0.1 })
        .collect();
    (ranking, rates)
}

/// A host heat map over `chunks` chunks in which every chunk is warm (the
/// battery's rounds run within a few minutes of it).
fn all_warm(chunks: u32) -> HeatMap {
    let mut heat = HeatMap::new(chunks, SimDuration::from_hours(1.0));
    for c in 0..chunks {
        heat.touch(SimTime::ZERO, ChunkId(c));
    }
    heat
}

/// Feeds each chunk `weight(c)` accesses so count-based policies (LFU)
/// and reward-based ones (bandit) have matching internal statistics.
fn warm(policy: &mut dyn MigrationPolicy, chunks: u32, hot: &[u32]) {
    for c in 0..chunks {
        let n = if hot.contains(&c) { 8 } else { 1 };
        for _ in 0..n {
            policy.observe_access(ChunkId(c));
        }
    }
}

fn observe<'a>(
    now: SimTime,
    state: &'a ArrayState,
    heat: &'a HeatMap,
    ranking: &'a [ChunkId],
    rates: &'a [f64],
    levels: &'a [SpeedLevel],
    budget: usize,
) -> PolicyObservation<'a> {
    PolicyObservation {
        now,
        state,
        heat,
        ranking,
        rates,
        disk_levels: levels,
        budget,
    }
}

#[test]
fn committed_chunks_are_never_reproposed_within_grace() {
    for (name, mk) in registry() {
        let mut p = mk();
        let mut host = GraceTracker::new();
        assert!(
            p.config().grace.as_secs() > 0.0,
            "{name}: battery requires a real grace period"
        );
        let mut state = mk_state(4, 16);
        let heat = all_warm(16);
        let levels = split_levels();
        // Chunks striped onto the slow disks are hot: the policy should
        // want them on the fast tier.
        let hot: Vec<u32> = (0..16).filter(|c| c % 4 >= 2).collect();
        let (ranking, rates) = ranked(16, &hot);

        // Round until the policy proposes something (the bandit needs a
        // few reward rounds before it moves anyone), then commit a couple
        // of its proposals by hand.
        let mut committed = Vec::new();
        let mut when = SimTime::ZERO;
        for round in 0..10u32 {
            when = SimTime::from_secs(f64::from(round) * 10.0);
            warm(p.as_mut(), 16, &hot);
            let obs = observe(when, &state, &heat, &ranking, &rates, &levels, 100);
            let jobs = host.plan_round(p.as_mut(), &obs).jobs;
            for j in &jobs {
                if committed.len() == 2 {
                    break;
                }
                if let MigrationJob::Relocate { chunk, dst } = *j {
                    if let Some(slot) = state.remap.reserve_slot(dst) {
                        state.remap.relocate(chunk, dst, slot);
                        committed.push(chunk);
                    }
                }
            }
            if !committed.is_empty() {
                break;
            }
        }
        assert!(!committed.is_empty(), "{name}: no proposals to commit");

        // Invert the world: the committed chunks go stone cold, so every
        // policy now wants them back on the slow tier — but they are
        // inside their grace period.
        let cold: Vec<u32> = (0..16).filter(|c| !hot.contains(c)).collect();
        let (ranking2, rates2) = ranked(16, &cold);
        let later = when + SimDuration::from_secs(60.0);
        warm(p.as_mut(), 16, &cold);
        let obs = observe(later, &state, &heat, &ranking2, &rates2, &levels, 100);
        let round2 = host.plan_round(p.as_mut(), &obs);
        for j in &round2.jobs {
            if let MigrationJob::Relocate { chunk, .. } = j {
                assert!(
                    !committed.contains(chunk),
                    "{name}: re-proposed {chunk:?} {0:.0} s after its commit (grace {1:.0} s)",
                    60.0,
                    p.config().grace.as_secs()
                );
            }
        }
        if name == "analytic" || name == "flipper" {
            assert!(
                round2.deferred_grace > 0,
                "{name}: the inverted ranking must have tried to move \
                 a committed chunk back ({round2:?})"
            );
        }
    }
}

/// Every move a round considered: made, or withheld by one of its checks.
fn considered(out: &PlanOutcome) -> usize {
    out.jobs.len()
        + (out.skipped_cold + out.deferred_grace + out.deferred_inflight + out.skipped_threshold)
            as usize
}

fn moved_chunks(out: &PlanOutcome) -> Vec<ChunkId> {
    out.jobs
        .iter()
        .map(|j| match *j {
            MigrationJob::Relocate { chunk, .. } => chunk,
            ref other => panic!("unexpected job {other:?}"),
        })
        .collect()
}

/// The cold-chunk contract, for every policy and [`ColdFirst`]: on a heat
/// map with warm, never-touched and decayed chunks, no round proposes a
/// cold chunk, even though every policy's own statistics saw each chunk
/// accessed.
/// Beside each policy runs a twin fed the same history but planned on an
/// all-warm heat map: the two consider the same movers, the policy moves
/// exactly the twin's warm moves, and `skipped_cold` is the difference.
#[test]
fn cold_chunks_are_never_proposed() {
    let chunks = 32u32;
    let hot: Vec<u32> = (0..24).filter(|c| c % 4 >= 2).chain([0, 5]).collect();
    let decayed = [1u32, 4, 9, 13, 30, 31];
    let now = SimTime::from_secs(1e6);
    let mut heat = HeatMap::new(chunks, SimDuration::from_secs(60.0));
    for &c in &decayed {
        heat.touch(SimTime::ZERO, ChunkId(c));
    }
    for (k, &c) in hot.iter().enumerate() {
        for _ in 0..=k {
            heat.touch(now, ChunkId(c));
        }
    }
    let is_cold = |c: ChunkId| heat.temperature(now, c) == 0.0;
    assert!(decayed.iter().all(|&c| is_cold(ChunkId(c))));
    // The full ranking, cold tail materialised: the all-warm twin below
    // plans on the same list, and a short one would hide its tail.
    let mut scratch = RankScratch::new();
    heat.ranking_into(now, &mut scratch);
    scratch.extend_cold_tail(chunks);
    let cold_total = scratch.ranked().iter().filter(|&&c| is_cold(c)).count();
    assert_eq!(cold_total, chunks as usize - hot.len());

    let warm_heat = all_warm(chunks);
    let state = mk_state(4, chunks);
    let levels = split_levels();
    let cold_first: PolicyFactory = || Box::new(ColdFirst::new());
    for (name, mk) in registry().into_iter().chain([("cold-first", cold_first)]) {
        let (mut p, mut twin) = (mk(), mk());
        let (mut host, mut twin_host) = (GraceTracker::new(), GraceTracker::new());
        let mut skipped = 0;
        for round in 0..6u32 {
            warm(p.as_mut(), chunks, &hot);
            warm(twin.as_mut(), chunks, &hot);
            let at = now + SimDuration::from_secs(f64::from(round));
            let obs = observe(
                at,
                &state,
                &heat,
                scratch.ranked(),
                scratch.rates(),
                &levels,
                1000,
            );
            let out = host.plan_round(p.as_mut(), &obs);
            let twin_obs = PolicyObservation {
                heat: &warm_heat,
                ..obs
            };
            let reference = twin_host.plan_round(twin.as_mut(), &twin_obs);

            let moved = moved_chunks(&out);
            for &c in &moved {
                assert!(!is_cold(c), "{name}: round {round} proposed cold {c:?}");
            }
            let warm_moves: Vec<ChunkId> = moved_chunks(&reference)
                .into_iter()
                .filter(|&c| !is_cold(c))
                .collect();
            assert_eq!(moved, warm_moves, "{name}: round {round} warm moves");
            assert_eq!(
                considered(&out),
                considered(&reference),
                "{name}: round {round} considered different movers"
            );
            assert_eq!(reference.skipped_cold, 0);
            assert!(out.skipped_cold as usize <= cold_total);
            skipped += out.skipped_cold;
        }
        assert!(skipped > 0, "{name}: no cold chunk was ever a mover");
    }
}

#[test]
fn host_budget_caps_every_proposal() {
    for (name, mk) in registry() {
        let mut p = mk();
        let state = mk_state(4, 32);
        let heat = all_warm(32);
        let levels = split_levels();
        let hot: Vec<u32> = (0..32).filter(|c| c % 4 >= 2).collect();
        let (ranking, rates) = ranked(32, &hot);
        warm(p.as_mut(), 32, &hot);
        let mut host = GraceTracker::new();
        for budget in [0usize, 1, 3] {
            let obs = observe(
                SimTime::from_secs(1.0),
                &state,
                &heat,
                &ranking,
                &rates,
                &levels,
                budget,
            );
            let jobs = host.plan_round(p.as_mut(), &obs).jobs;
            assert!(
                jobs.len() <= budget,
                "{name}: {} jobs over budget {budget}",
                jobs.len()
            );
        }
    }
}

#[test]
fn dead_disks_never_receive_chunks() {
    for (name, mk) in registry() {
        let mut p = mk();
        let mut state = mk_state(4, 16);
        let lost = state.disks[0].fail(SimTime::ZERO);
        let mut remap = std::mem::replace(&mut state.remap, RemapTable::striped(&state.config));
        let _ = state
            .migrator
            .note_disk_failed(SimTime::ZERO, array::DiskId(0), &lost, &mut remap);
        state.remap = remap;
        let heat = all_warm(16);
        let levels = split_levels();
        let hot: Vec<u32> = (0..16).filter(|c| c % 4 >= 2).collect();
        let (ranking, rates) = ranked(16, &hot);
        warm(p.as_mut(), 16, &hot);
        let obs = observe(SimTime::ZERO, &state, &heat, &ranking, &rates, &levels, 100);
        let jobs = GraceTracker::new().plan_round(p.as_mut(), &obs).jobs;
        for j in &jobs {
            if let MigrationJob::Relocate { dst, .. } = j {
                assert_ne!(dst.index(), 0, "{name}: targeted the dead disk");
            }
        }
    }
}

#[test]
fn identical_histories_yield_identical_proposals() {
    for (name, mk) in registry() {
        let (mut a, mut b) = (mk(), mk());
        let state = mk_state(4, 24);
        let heat = all_warm(24);
        let levels = split_levels();
        let hot: Vec<u32> = (0..24).filter(|c| c % 4 >= 2).collect();
        let (ranking, rates) = ranked(24, &hot);
        let (mut ga, mut gb) = (GraceTracker::new(), GraceTracker::new());
        for round in 0..5u32 {
            let now = SimTime::from_secs(f64::from(round) * 120.0);
            warm(a.as_mut(), 24, &hot);
            warm(b.as_mut(), 24, &hot);
            let obs = observe(now, &state, &heat, &ranking, &rates, &levels, 50);
            let ja = ga.plan_round(a.as_mut(), &obs).jobs;
            let jb = gb.plan_round(b.as_mut(), &obs).jobs;
            assert_eq!(ja, jb, "{name}: round {round} diverged");
        }
    }
}

#[test]
fn full_runs_emit_policy_events_and_pass_the_audit() {
    let duration_s = 1800.0;
    let mut spec = WorkloadSpec::oltp(duration_s, 30.0);
    spec.extents = 2048;
    spec.zipf_theta = 1.0;
    let trace = spec.generate(17);
    for (name, mk) in registry() {
        let mut config = ArrayConfig::default_for_volume(2 << 30);
        config.disks = 8;
        config.seed = 17;
        let mut cfg = HibernatorConfig::for_goal(0.05);
        cfg.epoch = SimDuration::from_secs(300.0);
        cfg.heat_tau = SimDuration::from_secs(300.0);
        let mut opts = RunOptions::for_horizon(duration_s);
        opts.telemetry = Some(TelemetryConfig::new(format!("conformance-{name}")));
        let mut report = run_policy(config, Hibernator::with_policy(cfg, mk()), &trace, opts);

        let stream = report.telemetry.take().expect("stream captured");
        let text = String::from_utf8_lossy(&stream.bytes).into_owned();
        assert!(
            text.contains("\"ev\":\"policy\""),
            "{name}: no PolicyDecision events in the stream"
        );
        let outcome = telemetry::audit::audit_bytes(&stream.bytes).expect("well-formed stream");
        assert!(
            outcome.passed(),
            "{name}: audit failed: {:?}",
            outcome
                .runs
                .iter()
                .flat_map(|r| r.checks.iter().filter(|c| !c.passed))
                .collect::<Vec<_>>()
        );
        assert!(
            outcome.runs.iter().all(|r| r
                .checks
                .iter()
                .any(|c| c.name == "migration-grace" && c.passed)),
            "{name}: the migration-grace check must have run"
        );
    }
}

/// Extracts the integer value of `"key":N` from a JSON line.
fn int_field(line: &str, key: &str) -> Option<u64> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[test]
fn default_hibernator_defers_inflight_chunks_and_passes_the_audit() {
    // Epochs shorter than the migration backlog with one copy at a time:
    // chunks are still mid-copy at the next planning round, which must
    // skip rather than re-propose them — and say so in the stream.
    let duration_s = 1800.0;
    let mut spec = WorkloadSpec::oltp(duration_s, 30.0);
    spec.extents = 2048;
    spec.zipf_theta = 1.0;
    let trace = spec.generate(17);
    let mut config = ArrayConfig::default_for_volume(2 << 30);
    config.disks = 8;
    config.seed = 17;
    let mut opts = RunOptions::for_horizon(duration_s);
    // A goal 1.6x Base's mean response splits the array into speed tiers,
    // so hot chunks have somewhere to go.
    let base = run_policy(config.clone(), array::BasePolicy, &trace, opts.clone());
    let mut cfg = HibernatorConfig::for_goal(base.response.mean() * 1.6);
    cfg.epoch = SimDuration::from_secs(60.0);
    cfg.heat_tau = SimDuration::from_secs(60.0);
    opts.migration_inflight = 1;
    opts.telemetry = Some(TelemetryConfig::new("default-inflight"));
    let mut report = run_policy(config, Hibernator::new(cfg), &trace, opts);

    let stream = report.telemetry.take().expect("stream captured");
    let text = String::from_utf8_lossy(&stream.bytes).into_owned();
    let rounds: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"ev\":\"policy\"") && l.contains("\"policy\":\"analytic\""))
        .collect();
    assert!(
        !rounds.is_empty(),
        "the default planner must emit PolicyDecision"
    );
    let deferred: u64 = rounds
        .iter()
        .map(|l| int_field(l, "deferred_inflight").expect("deferred_inflight field"))
        .sum();
    assert!(deferred > 0, "no in-flight chunk was deferred");
    let outcome = telemetry::audit::audit_bytes(&stream.bytes).expect("well-formed stream");
    assert!(
        outcome.passed(),
        "audit failed: {:?}",
        outcome
            .runs
            .iter()
            .flat_map(|r| r.checks.iter().filter(|c| !c.passed))
            .collect::<Vec<_>>()
    );
    assert!(
        outcome.runs.iter().all(|r| r
            .checks
            .iter()
            .any(|c| c.name == "migration-grace" && c.passed)),
        "the migration-grace check must have run"
    );
}
