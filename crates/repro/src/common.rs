//! Shared infrastructure for the experiment harness: scenario definitions,
//! policy dispatch, goal calibration, run caching, parallel scheduling,
//! and output formatting.
//!
//! All experiments draw from two calibrated scenarios (see DESIGN.md §6):
//!
//! * **OLTP** — 16 disks, 16 GiB hot volume, steady 150 req/s, Zipf 0.95;
//! * **Cello** — 16 disks, 24 GiB volume, diurnal bursty file-server load.
//!
//! The response-time goal of every managed run is `goal_factor ×` the mean
//! response of the unmanaged Base run on the same trace (the paper's
//! "performance goal relative to no power management" formulation).
//!
//! # Parallel execution
//!
//! Every run is an independent, seed-deterministic simulation, so the
//! harness farms the grid out to a [`parallel::Pool`] (`--jobs N`). The
//! run and trace caches are single-flight ([`parallel::OnceMap`]): when
//! two experiments request the same (policy, workload) pair concurrently,
//! exactly one simulation runs and both share the report. The Base-run
//! dependency of every goal-calibrated run is scheduled explicitly:
//! [`Ctx::prefetch`] runs all required Base runs (stage 1) before fanning
//! out the managed runs (stage 2). Because each run owns its seeded RNG
//! and all output formatting happens serially from ordered results,
//! reports — and therefore CSVs — are bit-identical at any `--jobs` value.
//!
//! # One run path
//!
//! Every simulation an experiment starts goes through [`Ctx::run`], which
//! labels it, times it, and banks its telemetry stream when
//! `--telemetry-out` is on. So the stream holds one run block per `[run]`
//! line on stdout, whichever subcommand produced it.

use array::{
    run_policy_streamed, ArrayConfig, PowerPolicy, Redundancy, RunOptions, RunReport, Simulation,
};
use diskmodel::{DiskSpec, SpeedLevel};
use hibernator::{Hibernator, HibernatorConfig, RandomPolicy};
use parallel::{OnceMap, Pool};
use policies::{
    maid_array_config, BanditPolicy, DrpmPolicy, FixedSpeed, LfuPolicy, MaidConfig, MaidPolicy,
    PdcPolicy, SleepScalePolicy, TpmPolicy,
};
use simkit::{SimDuration, TimeSeries};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use telemetry::RunStream;
use workload::{Trace, TraceCursor, TraceSource, WorkloadSpec};

/// Which workload a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Steady, skewed, read-mostly transaction processing.
    Oltp,
    /// Diurnal, bursty file-server traffic.
    Cello,
}

impl Workload {
    /// Short label for tables and CSV.
    pub fn label(self) -> &'static str {
        match self {
            Workload::Oltp => "OLTP",
            Workload::Cello => "Cello",
        }
    }
}

/// Every policy the comparison tables include.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// No power management (all disks full speed).
    Base,
    /// Threshold spin-down.
    Tpm,
    /// Fine-grained per-disk RPM control.
    Drpm,
    /// Popular data concentration + TPM.
    Pdc,
    /// Cache disks + TPM.
    Maid,
    /// The paper's system.
    Hibernator,
    /// Hibernator without data migration (ablation).
    HibernatorNoMig,
    /// Hibernator with random placement (ablation).
    HibernatorRandMig,
    /// Hibernator without the performance guard (ablation).
    HibernatorNoGuard,
    /// Hibernator with the LFU promote/demote migration policy.
    HibernatorLfu,
    /// Hibernator with the ε-greedy bandit tier classifier.
    HibernatorBandit,
    /// Hibernator with the SleepScale-style joint speed+sleep optimizer.
    SleepScale,
    /// Everything pinned at the slowest level (bound).
    FixedSlow,
}

impl PolicyKind {
    /// The seven policies of the headline comparison.
    pub const HEADLINE: [PolicyKind; 7] = [
        PolicyKind::Base,
        PolicyKind::Tpm,
        PolicyKind::Drpm,
        PolicyKind::Pdc,
        PolicyKind::Maid,
        PolicyKind::Hibernator,
        PolicyKind::SleepScale,
    ];

    /// The four Hibernator-hosted migration policies the adaptation-race
    /// experiment (`repro adapt`) ranks against each other.
    pub const ADAPTIVE: [PolicyKind; 4] = [
        PolicyKind::Hibernator,
        PolicyKind::HibernatorLfu,
        PolicyKind::HibernatorBandit,
        PolicyKind::SleepScale,
    ];

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Base => "Base",
            PolicyKind::Tpm => "TPM",
            PolicyKind::Drpm => "DRPM",
            PolicyKind::Pdc => "PDC",
            PolicyKind::Maid => "MAID",
            PolicyKind::Hibernator => "Hibernator",
            PolicyKind::HibernatorNoMig => "Hib(no-mig)",
            PolicyKind::HibernatorRandMig => "Hib(rand-mig)",
            PolicyKind::HibernatorNoGuard => "Hib(no-guard)",
            PolicyKind::HibernatorLfu => "Hib-LFU",
            PolicyKind::HibernatorBandit => "Hib-Bandit",
            PolicyKind::SleepScale => "SleepScale",
            PolicyKind::FixedSlow => "Fixed(slow)",
        }
    }
}

/// Cache key of a standard-scenario run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RunKey {
    policy: PolicyKind,
    workload: Workload,
}

/// What a finished simulation hands back to [`Ctx::run`]: a report, a
/// report plus the policy (for callers that read its counters), or a
/// fleet report with one report per array.
pub trait Outcome {
    /// Moves every captured telemetry stream into `into`.
    fn take_streams(&mut self, into: &mut Vec<RunStream>);
}

impl Outcome for RunReport {
    fn take_streams(&mut self, into: &mut Vec<RunStream>) {
        into.extend(self.telemetry.take());
    }
}

impl<P> Outcome for (RunReport, P) {
    fn take_streams(&mut self, into: &mut Vec<RunStream>) {
        self.0.take_streams(into);
    }
}

impl Outcome for fleet::FleetReport {
    fn take_streams(&mut self, into: &mut Vec<RunStream>) {
        for r in &mut self.arrays {
            r.take_streams(into);
        }
    }
}

/// Cache key of a generated trace: workload plus the exact bit pattern of
/// the load multiplier. Keying by bits (not a rounded value) means loads
/// that differ at all — however close — get distinct traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TraceKey {
    workload: Workload,
    load_bits: u64,
}

/// Experiment-wide context: scale, seed, output directory, the worker
/// pool, and single-flight run/trace caches so `all` never simulates the
/// same (policy, workload) pair twice — even when experiments request it
/// concurrently.
pub struct Ctx {
    /// Reduced scale for smoke runs (`--quick`).
    pub quick: bool,
    /// Master seed.
    pub seed: u64,
    /// Where CSV outputs land.
    pub out_dir: std::path::PathBuf,
    /// Optional horizon override in hours (`--horizon-h`), for cheap
    /// smoke/determinism runs below even `--quick` scale.
    horizon_h: Option<f64>,
    pool: Pool,
    cache: OnceMap<RunKey, RunReport>,
    traces: OnceMap<TraceKey, Trace>,
    goals: OnceMap<Workload, f64>,
    timings: Mutex<Vec<(String, f64)>>,
    /// When true, every run records a telemetry stream (collected in
    /// `streams`, flushed by [`Ctx::write_telemetry`]).
    telemetry: bool,
    streams: Mutex<Vec<RunStream>>,
}

impl Ctx {
    /// Creates the context, ensuring the output directory exists. `jobs`
    /// is the maximum number of simulations in flight at once.
    pub fn new(quick: bool, seed: u64, out_dir: impl Into<std::path::PathBuf>, jobs: usize) -> Ctx {
        let out_dir = out_dir.into();
        std::fs::create_dir_all(&out_dir).expect("create results dir");
        Ctx {
            quick,
            seed,
            out_dir,
            horizon_h: None,
            pool: Pool::new(jobs),
            cache: OnceMap::new(),
            traces: OnceMap::new(),
            goals: OnceMap::new(),
            timings: Mutex::new(Vec::new()),
            telemetry: false,
            streams: Mutex::new(Vec::new()),
        }
    }

    /// Enables telemetry capture for every subsequent run.
    pub fn set_telemetry(&mut self, on: bool) {
        self.telemetry = on;
    }

    /// The warm-up cutoff the experiments use for goal-violation
    /// accounting (a tenth of the horizon).
    pub fn warmup_s(&self) -> f64 {
        self.duration_s() * 0.1
    }

    /// Writes every collected telemetry stream to `path` as one JSON-lines
    /// file, ordered by run label — the completion order of parallel runs
    /// never leaks into the output, so the file is byte-identical at any
    /// `--jobs` value.
    pub fn write_telemetry(&self, path: &std::path::Path) {
        let mut streams = self
            .streams
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        streams.sort_by(|a, b| a.label.cmp(&b.label));
        let mut body: Vec<u8> = Vec::new();
        for s in &streams {
            body.extend_from_slice(&s.bytes);
        }
        std::fs::write(path, body).expect("write telemetry stream");
        println!("  -> {} ({} run stream(s))", path.display(), streams.len());
    }

    /// Overrides the simulated horizon (hours). Used by tests and smoke
    /// runs that need sub-`--quick` durations.
    pub fn set_horizon_hours(&mut self, hours: f64) {
        assert!(hours > 0.0 && hours.is_finite(), "bad horizon {hours}");
        self.horizon_h = Some(hours);
    }

    /// The worker pool experiments schedule ad-hoc run batches on.
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// Simulated duration of the standard runs.
    pub fn duration_s(&self) -> f64 {
        if let Some(h) = self.horizon_h {
            h * 3600.0
        } else if self.quick {
            2.0 * 3600.0
        } else {
            24.0 * 3600.0
        }
    }

    /// Disks in the standard array.
    pub fn disks(&self) -> usize {
        16
    }

    /// The standard goal factor (goal = factor × Base mean response).
    pub fn goal_factor(&self) -> f64 {
        1.3
    }

    /// The standard array config for a workload (6-level multi-speed).
    pub fn array_config(&self, w: Workload) -> ArrayConfig {
        self.array_config_with(w, self.disks(), 6)
    }

    /// Array config with explicit disk count and speed-level count.
    pub fn array_config_with(&self, w: Workload, disks: usize, levels: usize) -> ArrayConfig {
        let spec = self.workload_spec(w, 1.0);
        ArrayConfig {
            disks,
            spec: DiskSpec::ultrastar_multispeed(levels),
            chunk_sectors: 2048,
            volume_chunks: (spec.footprint_sectors() / 2048) as u32,
            redundancy: Redundancy::None,
            seed: self.seed,
            stripe_width: None,
        }
    }

    /// The workload spec at a load multiplier.
    pub fn workload_spec(&self, w: Workload, load: f64) -> WorkloadSpec {
        match w {
            Workload::Oltp => WorkloadSpec::oltp(self.duration_s(), 150.0 * load),
            Workload::Cello => WorkloadSpec::cello_like(self.duration_s(), 80.0 * load),
        }
    }

    /// The standard trace for a workload (cached).
    pub fn trace(&self, w: Workload) -> Arc<Trace> {
        self.trace_with_load(w, 1.0)
    }

    /// Trace at a load multiplier (cached, single-flight, keyed by the
    /// multiplier's exact bits).
    pub fn trace_with_load(&self, w: Workload, load: f64) -> Arc<Trace> {
        let key = TraceKey {
            workload: w,
            load_bits: load.to_bits(),
        };
        self.traces
            .get_or_compute(key, || self.workload_spec(w, load).generate(self.seed))
    }

    /// Default run options for the standard duration.
    pub fn run_options(&self) -> RunOptions {
        let mut o = RunOptions::for_horizon(self.duration_s());
        o.series_bucket = SimDuration::from_secs(if self.quick { 120.0 } else { 600.0 });
        o.sample_interval = o.series_bucket;
        o
    }

    /// The calibrated response-time goal for a workload:
    /// `goal_factor × Base mean response` (Base run cached).
    pub fn goal_s(&self, w: Workload) -> f64 {
        *self.goals.get_or_compute(w, || {
            let base = self.report(PolicyKind::Base, w);
            base.response.mean() * self.goal_factor()
        })
    }

    /// Hibernator config for a goal at standard scale.
    pub fn hibernator_config(&self, goal_s: f64) -> HibernatorConfig {
        let mut cfg = HibernatorConfig::for_goal(goal_s);
        if self.quick || self.horizon_h.is_some() {
            cfg.epoch = SimDuration::from_mins(20.0);
            cfg.heat_tau = SimDuration::from_mins(20.0);
        }
        cfg
    }

    /// Runs (or fetches from the single-flight cache) a standard-scenario
    /// policy run. Safe to call from any worker; the goal's Base-run
    /// dependency resolves through the cache (use [`Ctx::prefetch`] to
    /// schedule it explicitly instead of discovering it mid-run).
    pub fn report(&self, p: PolicyKind, w: Workload) -> Arc<RunReport> {
        let key = RunKey {
            policy: p,
            workload: w,
        };
        self.cache.get_or_compute(key, || {
            let trace = self.trace(w);
            let config = self.array_config(w);
            // Resolve the goal *before* the timed section so a managed
            // run's timing never includes waiting on the Base run.
            let goal = if p == PolicyKind::Base {
                f64::MAX
            } else {
                self.goal_s(w)
            };
            let label = format!("{}/{}", p.label(), w.label());
            self.run(&label, goal, self.warmup_s(), self.run_options(), |o| {
                self.run_kind(p, config, TraceCursor::new(&trace), o, goal)
            })
        })
    }

    /// Schedules a batch of standard-scenario runs on the pool as an
    /// explicit two-stage plan: stage 1 runs the Base run (and goal
    /// calibration) of every workload mentioned, stage 2 runs everything
    /// else. After this, [`Ctx::report`] for any listed pair is a cache
    /// hit, so experiment bodies can format output serially.
    pub fn prefetch(&self, pairs: &[(PolicyKind, Workload)]) {
        let mut workloads: Vec<Workload> = Vec::new();
        for &(_, w) in pairs {
            if !workloads.contains(&w) {
                workloads.push(w);
            }
        }
        self.pool.map(
            workloads
                .iter()
                .map(|&w| {
                    move || {
                        self.goal_s(w); // runs Base, then derives the goal
                    }
                })
                .collect::<Vec<_>>(),
        );

        let mut rest: Vec<(PolicyKind, Workload)> = Vec::new();
        for &(p, w) in pairs {
            if p != PolicyKind::Base && !rest.contains(&(p, w)) {
                rest.push((p, w));
            }
        }
        self.pool.map(
            rest.into_iter()
                .map(|(p, w)| {
                    move || {
                        self.report(p, w);
                    }
                })
                .collect::<Vec<_>>(),
        );
    }

    /// The harness's one run path: runs `simulate` as the run `label`.
    /// When telemetry capture is on, the options `simulate` receives
    /// carry a stream labelled `label` with goal `goal_s` (`f64::MAX` for
    /// Base) and warm-up `warmup_s`, and every stream the outcome holds
    /// is banked for [`Ctx::write_telemetry`]. The wall clock is recorded
    /// under the same label and printed as a `[run]` line; worker threads
    /// may interleave these lines, but the CSVs are formatted serially.
    pub fn run<T: Outcome>(
        &self,
        label: &str,
        goal_s: f64,
        warmup_s: f64,
        mut opts: RunOptions,
        simulate: impl FnOnce(RunOptions) -> T,
    ) -> T {
        if self.telemetry {
            opts.telemetry =
                Some(telemetry::TelemetryConfig::new(label).with_goal(goal_s, warmup_s));
        }
        let started = std::time::Instant::now();
        let mut out = simulate(opts);
        let secs = started.elapsed().as_secs_f64();
        println!("  [run] {label}: {secs:.2} s");
        self.timings
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((label.to_string(), secs));
        out.take_streams(&mut self.streams.lock().unwrap_or_else(|e| e.into_inner()));
        out
    }

    /// A goal-calibrated sweep: stage 1 runs Base on every variant, stage
    /// 2 runs Hibernator on every variant against `goal_factor ×` that
    /// variant's Base mean. `setup` gives a variant's name, array config
    /// and trace; runs are labelled `"{exp} {policy} {name}"`. Each stage
    /// is one pool batch, so `--jobs` schedules the sweep as two waves.
    /// Returns (Base, Hibernator, goal) per variant, in variant order.
    pub fn calibrated_sweep<V: Sync>(
        &self,
        exp: &str,
        variants: &[V],
        setup: impl Fn(&V) -> (String, ArrayConfig, Arc<Trace>) + Sync,
    ) -> Vec<(RunReport, RunReport, f64)> {
        let stage = |p: PolicyKind, goals: &[f64]| {
            self.pool.map(
                variants
                    .iter()
                    .zip(goals)
                    .map(|(v, &goal)| {
                        let setup = &setup;
                        move || {
                            let (name, config, trace) = setup(v);
                            let label = format!("{exp} {} {name}", p.label());
                            self.run(&label, goal, self.warmup_s(), self.run_options(), |o| {
                                self.run_kind(p, config, TraceCursor::new(&trace), o, goal)
                            })
                        }
                    })
                    .collect::<Vec<_>>(),
            )
        };
        let bases = stage(PolicyKind::Base, &vec![f64::MAX; variants.len()]);
        let goals: Vec<f64> = bases
            .iter()
            .map(|b| b.response.mean() * self.goal_factor())
            .collect();
        let hibs = stage(PolicyKind::Hibernator, &goals);
        bases
            .into_iter()
            .zip(hibs)
            .zip(goals)
            .map(|((base, hib), goal)| (base, hib, goal))
            .collect()
    }

    /// Prints the per-run wall-clock summary (slowest first) and the total
    /// simulation time across all workers.
    pub fn print_timings(&self) {
        let mut t = self
            .timings
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        if t.is_empty() {
            return;
        }
        t.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let total: f64 = t.iter().map(|x| x.1).sum();
        println!(
            "\n# run timings — {} runs, {total:.1} s of simulation across {} worker(s)",
            t.len(),
            self.pool.workers()
        );
        for (label, secs) in &t {
            println!("  {secs:>8.2} s  {label}");
        }
    }

    /// Writes a CSV file into the results directory.
    pub fn write_csv(&self, name: &str, header: &str, rows: &[String]) {
        let path = self.out_dir.join(name);
        let mut body = String::with_capacity(rows.len() * 32 + header.len() + 1);
        let _ = writeln!(body, "{header}");
        for r in rows {
            let _ = writeln!(body, "{r}");
        }
        std::fs::write(&path, body).expect("write csv");
        println!("  -> {}", path.display());
    }
}

/// Simulates a policy the experiment built itself (a tuned or extended
/// Hibernator, a pinned speed level) over a materialised trace, handing
/// the policy back so the caller can read its counters. Call it inside
/// [`Ctx::run`]; [`Ctx::run_kind`] builds the standard kinds.
pub fn simulate<P: PowerPolicy + Send>(
    config: ArrayConfig,
    policy: P,
    trace: &Trace,
    opts: RunOptions,
) -> (RunReport, P) {
    Simulation::new(config, policy, trace, opts).run_returning_policy()
}

impl Ctx {
    /// Runs an arbitrary policy kind against a given config, fed from any
    /// [`TraceSource`]: a materialised trace through a [`TraceCursor`], or
    /// a generated stream that never allocates the trace (the scenario
    /// sweep's superposed/rewritten streams run at O(1) trace memory).
    /// `goal_s` is used by goal-aware policies and ignored by the rest.
    /// Hibernator variants pick up the context's scale-appropriate epoch
    /// settings.
    pub fn run_kind(
        &self,
        p: PolicyKind,
        config: ArrayConfig,
        source: impl TraceSource,
        opts: RunOptions,
        goal_s: f64,
    ) -> RunReport {
        match p {
            PolicyKind::Base => run_policy_streamed(config, array::BasePolicy, source, opts),
            PolicyKind::Tpm => run_policy_streamed(config, TpmPolicy::competitive(), source, opts),
            PolicyKind::Drpm => run_policy_streamed(config, DrpmPolicy::default(), source, opts),
            PolicyKind::Pdc => run_policy_streamed(config, PdcPolicy::default(), source, opts),
            PolicyKind::Maid => {
                let cache_disks = (config.disks / 8).max(1) + 1; // 16 disks -> 3
                let cfg = maid_array_config(config, cache_disks);
                run_policy_streamed(
                    cfg,
                    MaidPolicy::new(MaidConfig {
                        cache_disks,
                        cache_chunks_per_disk: 2048,
                        tpm_threshold_s: None,
                    }),
                    source,
                    opts,
                )
            }
            PolicyKind::Hibernator => {
                let cfg = self.hibernator_config(goal_s);
                run_policy_streamed(config, Hibernator::new(cfg), source, opts)
            }
            PolicyKind::HibernatorNoMig => {
                let cfg = self.hibernator_config(goal_s);
                run_policy_streamed(
                    config,
                    Hibernator::new(cfg).without_migration(),
                    source,
                    opts,
                )
            }
            PolicyKind::HibernatorRandMig => {
                let cfg = self.hibernator_config(goal_s);
                run_policy_streamed(
                    config,
                    Hibernator::with_policy(cfg, Box::new(RandomPolicy::new())),
                    source,
                    opts,
                )
            }
            PolicyKind::HibernatorNoGuard => {
                let cfg = self.hibernator_config(goal_s);
                run_policy_streamed(config, Hibernator::new(cfg).without_guard(), source, opts)
            }
            PolicyKind::HibernatorLfu => {
                let cfg = self.hibernator_config(goal_s);
                run_policy_streamed(
                    config,
                    Hibernator::with_policy(cfg, Box::new(LfuPolicy::new())),
                    source,
                    opts,
                )
            }
            PolicyKind::HibernatorBandit => {
                let cfg = self.hibernator_config(goal_s);
                run_policy_streamed(
                    config,
                    Hibernator::with_policy(cfg, Box::new(BanditPolicy::new())),
                    source,
                    opts,
                )
            }
            PolicyKind::SleepScale => {
                let cfg = self.hibernator_config(goal_s);
                run_policy_streamed(
                    config,
                    Hibernator::with_policy(cfg, Box::new(SleepScalePolicy::new())),
                    source,
                    opts,
                )
            }
            PolicyKind::FixedSlow => {
                run_policy_streamed(config, FixedSpeed::new(SpeedLevel(0)), source, opts)
            }
        }
    }
}

/// Fraction of post-warmup series buckets whose mean response exceeded the
/// goal — the "goal violation" metric of the T4 table. A bucket counts
/// only if it starts at or after `warmup_s`: a bucket straddling the
/// warmup boundary mixes warm-up samples into its mean, so it is excluded
/// rather than classified by its midpoint.
pub fn violation_fraction(series: &TimeSeries, goal_s: f64, warmup_s: f64) -> f64 {
    let half_width = series.bucket_width().as_secs() / 2.0;
    let (mut kept, mut over) = (0u64, 0u64);
    for (mid, mean) in series.mean_points() {
        if mid - half_width < warmup_s {
            continue;
        }
        kept += 1;
        if mean > goal_s {
            over += 1;
        }
    }
    if kept == 0 {
        0.0
    } else {
        over as f64 / kept as f64
    }
}

/// Prints a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    let mut s = String::new();
    for (c, w) in cells.iter().zip(widths) {
        let _ = write!(s, "{c:>w$}  ", w = w);
    }
    s
}

/// Compile-time proof that the shared context can cross worker threads:
/// every field is `Send + Sync`, which is what lets `prefetch` borrow it
/// from scoped workers.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<Ctx>();
    assert_sync::<HashMap<RunKey, Arc<RunReport>>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimTime;

    #[test]
    fn trace_keys_distinguish_close_loads() {
        // 1.0 and 1.0004 used to collide under permille rounding; bit keys
        // must keep them apart.
        let a = 1.0f64;
        let b = 1.0004f64;
        assert_ne!(a.to_bits(), b.to_bits());
        let ka = TraceKey {
            workload: Workload::Oltp,
            load_bits: a.to_bits(),
        };
        let kb = TraceKey {
            workload: Workload::Oltp,
            load_bits: b.to_bits(),
        };
        assert_ne!(ka, kb);
    }

    #[test]
    fn violation_excludes_straddling_bucket() {
        // 100 s buckets; warmup ends at 150 s, inside bucket [100, 200).
        let mut s = TimeSeries::new(SimDuration::from_secs(100.0));
        s.record(SimTime::from_secs(150.0), 10.0); // straddles: excluded
        s.record(SimTime::from_secs(250.0), 10.0); // over goal
        s.record(SimTime::from_secs(350.0), 1.0); // under goal
        let f = violation_fraction(&s, 5.0, 150.0);
        assert_eq!(f, 0.5, "straddling bucket must not count");
    }

    #[test]
    fn violation_counts_bucket_starting_exactly_at_warmup() {
        let mut s = TimeSeries::new(SimDuration::from_secs(100.0));
        s.record(SimTime::from_secs(150.0), 10.0); // bucket starts at 100 < 100? no: warmup 100
        s.record(SimTime::from_secs(50.0), 10.0); // bucket [0,100): before warmup
        let f = violation_fraction(&s, 5.0, 100.0);
        // The [100,200) bucket starts exactly at the warmup edge: counted.
        assert_eq!(f, 1.0);
    }

    #[test]
    fn violation_empty_after_warmup_is_zero() {
        let mut s = TimeSeries::new(SimDuration::from_secs(100.0));
        s.record(SimTime::from_secs(10.0), 10.0);
        assert_eq!(violation_fraction(&s, 5.0, 1000.0), 0.0);
    }
}
