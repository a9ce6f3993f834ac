//! `repro bench` — the tracked hot-path benchmark.
//!
//! Times three canonical scenarios end-to-end through the public driver
//! (trace generation and goal calibration happen *outside* the timed
//! region, so the numbers isolate simulation cost):
//!
//! * **quick_t3** — the full quick-scale T3 grid: 8 policies (the seven
//!   headline policies plus FixedSlow) × 2 workloads = 16 runs, the same
//!   set `repro --quick --jobs 1 t3` simulates;
//! * **fault_storm** — Base + Hibernator riding the scripted fault storm
//!   on a RAID-5-like array (exercises retry, redirect, and rebuild
//!   paths);
//! * **f6_highload** — Base + Hibernator at 2× OLTP load (the congested
//!   point of the F6 load sweep, where per-event costs dominate).
//!
//! Results land in `BENCH_hotpath.json` together with the recorded
//! pre-optimization baselines, so the speedup trajectory is tracked in one
//! file.
//!
//! The **fleet bench** ([`fleet_bench`]) then times three fleet shapes (4,
//! 64, and 256 arrays) serially and parallel through the persistent-worker
//! driver, writing `BENCH_fleet.json` with the pre-worker baseline and the
//! parallel-speedup floors.
//!
//! `--check-floor` exits nonzero if quick_t3 throughput falls below
//! [`QUICK_T3_FLOOR_EVENTS_PER_SEC`] or a fleet scenario's min-wall
//! parallel speedup falls below its floor on a machine with enough cores
//! ([`FLEET_QUICK_MIN_SPEEDUP`], [`FLEET_SCALE_MIN_SPEEDUP`]); CI runs it
//! as a smoke test against gross regressions.

use crate::common::{Ctx, PolicyKind, Workload};
use array::{Redundancy, RunOptions, RunReport};
use faults::{FaultConfig, FaultPlan};
use std::fmt::Write as _;
use std::time::Instant;
use workload::TraceCursor;

/// The pre-overhaul quick-t3 timing the hot-path work is measured against:
/// the sum of the 14 per-run wall-clock timings from
/// `repro --quick --jobs 1 t3` at the commit preceding the hot-path
/// overhaul (full wall clock including trace generation and CSV formatting
/// was 13.7 s). The grid had 14 runs then; SleepScale has since joined the
/// headline policies, so today's 16-run grid does more work and the
/// speedups against both baselines understate the per-run gain.
const BASELINE_QUICK_T3_RUN_SUM_S: f64 = 13.36;

/// The quick-t3 run-sum at the commit preceding the ladder-queue /
/// batched-admission PR (heap queue, per-event admission, incremental
/// resync already in), measured the same way on the recorded baseline
/// machine.
const PRE_LADDER_QUICK_T3_RUN_SUM_S: f64 = 8.38;

/// CI floor for quick_t3 throughput. Deliberately far below what any
/// recorded machine measures (the baseline box does several million
/// events/s) so shared-runner noise never trips it, while an algorithmic
/// regression — a queue gone quadratic, admission batching disabled —
/// still does.
const QUICK_T3_FLOOR_EVENTS_PER_SEC: f64 = 600_000.0;

/// One benchmark scenario: a named list of (label, thunk-describable) runs.
struct Scenario {
    name: &'static str,
    /// Runs per iteration: (policy, workload-ish label) resolved by `run`.
    runs: Vec<BenchRun>,
}

/// A fully prepared run: everything `Ctx::run_kind` needs, owned.
struct BenchRun {
    policy: PolicyKind,
    config: array::ArrayConfig,
    trace: std::sync::Arc<workload::Trace>,
    opts: RunOptions,
    goal_s: f64,
}

/// Measured numbers for one scenario.
struct Outcome {
    name: &'static str,
    runs_per_iter: usize,
    iters: usize,
    mean_wall_s: f64,
    min_wall_s: f64,
    events_per_iter: u64,
    events_per_sec: f64,
}

/// Entry point for `repro bench`.
pub fn bench(seed: u64, out: &str, iters: usize, check_floor: bool) {
    assert!(iters >= 1, "bench: need at least one iteration");
    // Quick scale, one job: the baseline was measured single-threaded, and
    // serial timing keeps iteration-to-iteration noise low.
    let ctx = Ctx::new(true, seed, out, 1);
    println!("# hot-path bench — quick scale, seed {seed}, {iters} iteration(s)");

    let scenarios = vec![quick_t3(&ctx), fault_storm(&ctx), f6_highload(&ctx)];

    let mut outcomes = Vec::new();
    for sc in &scenarios {
        let mut walls = Vec::with_capacity(iters);
        let mut events = 0u64;
        for i in 0..iters {
            let started = Instant::now();
            let mut iter_events = 0u64;
            for r in &sc.runs {
                let report = ctx.run_kind(
                    r.policy,
                    r.config.clone(),
                    TraceCursor::new(&r.trace),
                    r.opts.clone(),
                    r.goal_s,
                );
                iter_events += report.events_processed;
            }
            let wall = started.elapsed().as_secs_f64();
            walls.push(wall);
            if i == 0 {
                events = iter_events;
            } else {
                assert_eq!(
                    events, iter_events,
                    "bench: nondeterministic event count in {}",
                    sc.name
                );
            }
            println!(
                "  [{name} iter {n}/{iters}] {wall:.2} s, {iter_events} events",
                name = sc.name,
                n = i + 1,
            );
        }
        let mean = walls.iter().sum::<f64>() / walls.len() as f64;
        let min = walls.iter().cloned().fold(f64::INFINITY, f64::min);
        outcomes.push(Outcome {
            name: sc.name,
            runs_per_iter: sc.runs.len(),
            iters,
            mean_wall_s: mean,
            min_wall_s: min,
            events_per_iter: events,
            events_per_sec: events as f64 / mean,
        });
    }

    let json = render_json(&outcomes, seed, iters);
    let path = std::path::Path::new(out).join("BENCH_hotpath.json");
    std::fs::write(&path, json).expect("write BENCH_hotpath.json");
    println!("  -> {}", path.display());
    for o in &outcomes {
        let speedup = if o.name == "quick_t3" {
            format!(
                " ({:.2}x vs pre-overhaul {BASELINE_QUICK_T3_RUN_SUM_S} s, \
                 {:.2}x vs pre-ladder {PRE_LADDER_QUICK_T3_RUN_SUM_S} s)",
                BASELINE_QUICK_T3_RUN_SUM_S / o.mean_wall_s,
                PRE_LADDER_QUICK_T3_RUN_SUM_S / o.mean_wall_s
            )
        } else {
            String::new()
        };
        println!(
            "bench {}: mean {:.2} s over {} iter(s), {:.0} events/s{speedup}",
            o.name, o.mean_wall_s, o.iters, o.events_per_sec
        );
    }

    let fleet_results = fleet_bench(&ctx, seed, out, iters);

    if check_floor {
        let q = outcomes
            .iter()
            .find(|o| o.name == "quick_t3")
            .expect("quick_t3 scenario always runs");
        if q.events_per_sec < QUICK_T3_FLOOR_EVENTS_PER_SEC {
            eprintln!(
                "bench: quick_t3 at {:.0} events/s is below the floor of {:.0}",
                q.events_per_sec, QUICK_T3_FLOOR_EVENTS_PER_SEC
            );
            std::process::exit(1);
        }
        println!(
            "bench: quick_t3 floor check passed ({:.0} >= {:.0} events/s)",
            q.events_per_sec, QUICK_T3_FLOOR_EVENTS_PER_SEC
        );

        // Fleet speedup floors, gated on core count: the min-wall speedup
        // (least noise-sensitive view) must clear each scenario's floor,
        // but only on machines with enough cores for the comparison to
        // measure parallelism rather than time-slicing.
        let cores = parallel::available_parallelism();
        for r in &fleet_results {
            if cores < r.sc.floor_cores {
                println!(
                    "bench: {} floor check SKIPPED ({cores} core(s) < {} needed)",
                    r.sc.name, r.sc.floor_cores
                );
                continue;
            }
            if r.speedup_min < r.sc.floor {
                eprintln!(
                    "bench: {} parallel speedup {:.3}x (min-wall, jobs {}) is below \
                     the floor of {:.1}x",
                    r.sc.name, r.speedup_min, r.runs[1].jobs, r.sc.floor
                );
                std::process::exit(1);
            }
            println!(
                "bench: {} floor check passed ({:.3}x >= {:.1}x at jobs {})",
                r.sc.name, r.speedup_min, r.sc.floor, r.runs[1].jobs
            );
        }
    }
}

/// The fleet-quick parallel speedup measured at the commit preceding the
/// persistent-worker driver (per-epoch `Pool::map` round-trips: sims
/// moved into boxed jobs and back every fleet epoch) — parallel stepping
/// was a net *loss* on the recorded machine.
const PRE_WORKERS_FLEET_QUICK_SPEEDUP: f64 = 0.963;

/// CI floor for the fleet_quick parallel speedup (jobs ≥ 2 vs serial):
/// with persistent workers, parallel stepping must at minimum not lose.
/// Only enforced when the machine has at least [`FLEET_QUICK_FLOOR_CORES`]
/// cores — on fewer, extra worker threads just time-slice one core.
const FLEET_QUICK_MIN_SPEEDUP: f64 = 1.0;
/// Cores needed before the fleet_quick floor is meaningful.
const FLEET_QUICK_FLOOR_CORES: usize = 2;

/// CI floor for the fleet_scale scenarios (64+ arrays, jobs = 4 vs
/// serial): at that width the per-epoch barrier is amortized over dozens
/// of arrays per worker, so 4 cores must deliver at least 2.5×. Enforced
/// only on machines with [`FLEET_SCALE_FLOOR_CORES`]+ cores.
const FLEET_SCALE_MIN_SPEEDUP: f64 = 2.5;
/// Cores needed before the fleet_scale floor is meaningful.
const FLEET_SCALE_FLOOR_CORES: usize = 4;

/// One fleet bench scenario: a fleet shape timed at two worker counts.
struct FleetScenario {
    name: &'static str,
    arrays: usize,
    tenants: u32,
    /// The parallel worker count to compare against serial.
    jobs_hi: usize,
    /// Speedup floor and the core count that arms it.
    floor: f64,
    floor_cores: usize,
}

/// Measured numbers for one fleet scenario at one worker count.
struct FleetOutcome {
    jobs: usize,
    mean_wall_s: f64,
    min_wall_s: f64,
    events_per_iter: u64,
    events_per_sec: f64,
}

/// One fleet scenario's results: the serial and parallel outcomes plus
/// both speedup views (mean-based for reporting, min-wall-based for the
/// floor gate — minima are far less sensitive to shared-runner noise).
struct FleetResult {
    sc: FleetScenario,
    runs: Vec<FleetOutcome>,
    speedup_mean: f64,
    speedup_min: f64,
}

/// The **fleet** bench: three fleet shapes under a 60 % power budget,
/// each timed serially (`--jobs 1`) and parallel. The fleet driver's
/// persistent worker team is the one place the suite parallelizes
/// *inside* a single run, so this is the scaling number the hot-path
/// bench cannot show.
///
/// * **fleet_quick** — 4 arrays / 8 tenants, parallel at the machine's
///   cores (capped at 4): the latency-sensitive shape where per-epoch
///   overhead shows up directly;
/// * **fleet_scale_64** — 64 arrays / 128 tenants, jobs 4 vs 1;
/// * **fleet_scale_256** — 256 arrays / 512 tenants, jobs 4 vs 1: the
///   scale-out shapes where the barrier must amortize.
///
/// Results land in `BENCH_fleet.json` with the recorded pre-worker
/// baseline and the floor constants; per-iteration event counts must
/// match across worker counts (determinism is asserted, not hoped for).
fn fleet_bench(ctx: &Ctx, seed: u64, out: &str, iters: usize) -> Vec<FleetResult> {
    use fleet::{run_fleet, BudgetSchedule, FleetSpec};
    use hibernator::Hibernator;

    const BUDGET_FRAC: f64 = 0.6;

    let scenarios = [
        FleetScenario {
            name: "fleet_quick",
            arrays: 4,
            tenants: 8,
            jobs_hi: parallel::available_parallelism().clamp(2, 4),
            floor: FLEET_QUICK_MIN_SPEEDUP,
            floor_cores: FLEET_QUICK_FLOOR_CORES,
        },
        FleetScenario {
            name: "fleet_scale_64",
            arrays: 64,
            tenants: 128,
            jobs_hi: 4,
            floor: FLEET_SCALE_MIN_SPEEDUP,
            floor_cores: FLEET_SCALE_FLOOR_CORES,
        },
        FleetScenario {
            name: "fleet_scale_256",
            arrays: 256,
            tenants: 512,
            jobs_hi: 4,
            floor: FLEET_SCALE_MIN_SPEEDUP,
            floor_cores: FLEET_SCALE_FLOOR_CORES,
        },
    ];

    let config = ctx.array_config(Workload::Oltp);
    let trace = ctx.trace(Workload::Oltp);
    let opts = ctx.run_options();
    let (_, goal) = calibrate(ctx, &config, &trace, &opts);

    let mut results = Vec::new();
    for sc in scenarios {
        let nominal_w = crate::fleetcmd::nominal_fleet_w(&config, sc.arrays);
        let mut spec = FleetSpec::new(
            sc.arrays,
            sc.tenants,
            config.clone(),
            opts.clone(),
            BudgetSchedule::constant(nominal_w * BUDGET_FRAC),
        );
        spec.fleet_epoch = simkit::SimDuration::from_secs(ctx.duration_s() / 12.0);

        let mut runs: Vec<FleetOutcome> = Vec::new();
        // One expected event count across every iteration AND worker
        // count: determinism is asserted, not hoped for.
        let mut events = 0u64;
        for jobs in [1usize, sc.jobs_hi] {
            let pool = parallel::Pool::new(jobs);
            let mut walls = Vec::with_capacity(iters);
            for i in 0..iters {
                let started = Instant::now();
                let report = run_fleet(&spec, &trace, &pool, |_| {
                    Hibernator::new(ctx.hibernator_config(goal))
                });
                let wall = started.elapsed().as_secs_f64();
                let iter_events: u64 = report.arrays.iter().map(|r| r.events_processed).sum();
                if i == 0 && runs.is_empty() {
                    events = iter_events;
                } else {
                    assert_eq!(
                        events, iter_events,
                        "bench: nondeterministic {} event count at {jobs} job(s)",
                        sc.name
                    );
                }
                walls.push(wall);
                println!(
                    "  [{name} jobs={jobs} iter {n}/{iters}] {wall:.2} s, {iter_events} events",
                    name = sc.name,
                    n = i + 1,
                );
            }
            let mean = walls.iter().sum::<f64>() / walls.len() as f64;
            let min = walls.iter().cloned().fold(f64::INFINITY, f64::min);
            runs.push(FleetOutcome {
                jobs,
                mean_wall_s: mean,
                min_wall_s: min,
                events_per_iter: events,
                events_per_sec: events as f64 / mean,
            });
        }
        let speedup_mean = runs[0].mean_wall_s / runs[1].mean_wall_s;
        let speedup_min = runs[0].min_wall_s / runs[1].min_wall_s;
        println!(
            "bench {}: {:.2} s at 1 job, {:.2} s at {} job(s) ({speedup_mean:.2}x mean, \
             {speedup_min:.2}x min-wall)",
            sc.name, runs[0].mean_wall_s, runs[1].mean_wall_s, runs[1].jobs
        );
        results.push(FleetResult {
            sc,
            runs,
            speedup_mean,
            speedup_min,
        });
    }

    let json = render_fleet_json(&results, seed, iters);
    let path = std::path::Path::new(out).join("BENCH_fleet.json");
    std::fs::write(&path, json).expect("write BENCH_fleet.json");
    println!("  -> {}", path.display());
    results
}

/// Hand-rolled JSON for `BENCH_fleet.json`: scenarios, both speedup
/// views, the recorded pre-worker baseline, the floor constants, and the
/// core count the numbers were measured on (floors only bind when the
/// machine has enough cores).
fn render_fleet_json(results: &[FleetResult], seed: u64, iters: usize) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"fleet\",");
    let _ = writeln!(s, "  \"seed\": {seed},");
    let _ = writeln!(s, "  \"iters\": {iters},");
    let _ = writeln!(
        s,
        "  \"available_parallelism\": {},",
        parallel::available_parallelism()
    );
    let _ = writeln!(s, "  \"budget_frac\": 0.6,");
    let _ = writeln!(s, "  \"baseline_pre_workers\": {{");
    let _ = writeln!(
        s,
        "    \"label\": \"pre-persistent-workers (per-epoch Pool::map round-trips, \
         sims boxed into jobs and merged back every fleet epoch)\","
    );
    let _ = writeln!(
        s,
        "    \"fleet_quick_speedup_parallel_vs_serial\": {PRE_WORKERS_FLEET_QUICK_SPEEDUP}"
    );
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"floors\": {{");
    let _ = writeln!(
        s,
        "    \"fleet_quick_min_speedup\": {FLEET_QUICK_MIN_SPEEDUP},"
    );
    let _ = writeln!(
        s,
        "    \"fleet_quick_floor_cores\": {FLEET_QUICK_FLOOR_CORES},"
    );
    let _ = writeln!(
        s,
        "    \"fleet_scale_min_speedup\": {FLEET_SCALE_MIN_SPEEDUP},"
    );
    let _ = writeln!(
        s,
        "    \"fleet_scale_floor_cores\": {FLEET_SCALE_FLOOR_CORES}"
    );
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"scenarios\": [");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"name\": \"{}\",", r.sc.name);
        let _ = writeln!(s, "      \"arrays\": {},", r.sc.arrays);
        let _ = writeln!(s, "      \"tenants\": {},", r.sc.tenants);
        let _ = writeln!(s, "      \"runs\": [");
        for (j, o) in r.runs.iter().enumerate() {
            let _ = writeln!(s, "        {{");
            let _ = writeln!(s, "          \"jobs\": {},", o.jobs);
            let _ = writeln!(s, "          \"mean_wall_s\": {:.4},", o.mean_wall_s);
            let _ = writeln!(s, "          \"min_wall_s\": {:.4},", o.min_wall_s);
            let _ = writeln!(s, "          \"events_per_iter\": {},", o.events_per_iter);
            let _ = writeln!(s, "          \"events_per_sec\": {:.0}", o.events_per_sec);
            let _ = writeln!(
                s,
                "        }}{}",
                if j + 1 < r.runs.len() { "," } else { "" }
            );
        }
        let _ = writeln!(s, "      ],");
        let _ = writeln!(
            s,
            "      \"speedup_parallel_vs_serial\": {:.3},",
            r.speedup_mean
        );
        let _ = writeln!(s, "      \"speedup_min_wall\": {:.3}", r.speedup_min);
        let _ = writeln!(s, "    }}{}", if i + 1 < results.len() { "," } else { "" });
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

/// Runs Base untimed and derives the calibrated goal from its mean
/// response (the same `goal = factor × Base mean` rule the experiments
/// use), without touching the context's run cache.
fn calibrate(
    ctx: &Ctx,
    config: &array::ArrayConfig,
    trace: &workload::Trace,
    opts: &RunOptions,
) -> (RunReport, f64) {
    let base = ctx.run_kind(
        PolicyKind::Base,
        config.clone(),
        TraceCursor::new(trace),
        opts.clone(),
        f64::MAX,
    );
    let goal = base.response.mean() * ctx.goal_factor();
    (base, goal)
}

/// The 16-run quick T3 grid (HEADLINE + FixedSlow, both workloads).
fn quick_t3(ctx: &Ctx) -> Scenario {
    let mut runs = Vec::new();
    for w in [Workload::Oltp, Workload::Cello] {
        let config = ctx.array_config(w);
        let trace = ctx.trace(w);
        let opts = ctx.run_options();
        let (_, goal) = calibrate(ctx, &config, &trace, &opts);
        for p in PolicyKind::HEADLINE
            .into_iter()
            .chain([PolicyKind::FixedSlow])
        {
            runs.push(BenchRun {
                policy: p,
                config: config.clone(),
                trace: trace.clone(),
                opts: opts.clone(),
                goal_s: if p == PolicyKind::Base {
                    f64::MAX
                } else {
                    goal
                },
            });
        }
    }
    Scenario {
        name: "quick_t3",
        runs,
    }
}

/// Base + Hibernator under the scripted fault storm, RAID-5-like.
fn fault_storm(ctx: &Ctx) -> Scenario {
    let mut config = ctx.array_config(Workload::Oltp);
    config.redundancy = Redundancy::Raid5Like;
    let trace = ctx.trace(Workload::Oltp);
    let mut opts = ctx.run_options();
    opts.faults = Some(FaultPlan {
        schedule: crate::faults::storm(ctx.duration_s()),
        config: FaultConfig::default(),
    });
    let (_, goal) = calibrate(ctx, &config, &trace, &opts);
    let runs = [PolicyKind::Base, PolicyKind::Hibernator]
        .into_iter()
        .map(|p| BenchRun {
            policy: p,
            config: config.clone(),
            trace: trace.clone(),
            opts: opts.clone(),
            goal_s: if p == PolicyKind::Base {
                f64::MAX
            } else {
                goal
            },
        })
        .collect();
    Scenario {
        name: "fault_storm",
        runs,
    }
}

/// Base + Hibernator at 2× OLTP load (the F6 congested point).
fn f6_highload(ctx: &Ctx) -> Scenario {
    let config = ctx.array_config(Workload::Oltp);
    let trace = ctx.trace_with_load(Workload::Oltp, 2.0);
    let opts = ctx.run_options();
    let (_, goal) = calibrate(ctx, &config, &trace, &opts);
    let runs = [PolicyKind::Base, PolicyKind::Hibernator]
        .into_iter()
        .map(|p| BenchRun {
            policy: p,
            config: config.clone(),
            trace: trace.clone(),
            opts: opts.clone(),
            goal_s: if p == PolicyKind::Base {
                f64::MAX
            } else {
                goal
            },
        })
        .collect();
    Scenario {
        name: "f6_highload",
        runs,
    }
}

/// Hand-rolled JSON (std-only crate): scenarios plus the recorded pre-PR
/// baseline, so the file is self-contained evidence of the trajectory.
fn render_json(outcomes: &[Outcome], seed: u64, iters: usize) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"hotpath\",");
    let _ = writeln!(s, "  \"seed\": {seed},");
    let _ = writeln!(s, "  \"iters\": {iters},");
    let _ = writeln!(
        s,
        "  \"available_parallelism\": {},",
        parallel::available_parallelism()
    );
    let _ = writeln!(
        s,
        "  \"quick_t3_floor_events_per_sec\": {QUICK_T3_FLOOR_EVENTS_PER_SEC},"
    );
    let _ = writeln!(s, "  \"baseline\": {{");
    let _ = writeln!(
        s,
        "    \"label\": \"pre-overhaul (commit 4337876, repro --quick --jobs 1 t3)\","
    );
    let _ = writeln!(
        s,
        "    \"quick_t3_run_sum_s\": {BASELINE_QUICK_T3_RUN_SUM_S},"
    );
    let _ = writeln!(s, "    \"quick_t3_wall_total_s\": 13.7,");
    let _ = writeln!(
        s,
        "    \"note\": \"run_sum_s is the sum of the 14 per-run timings (trace generation and CSV formatting excluded) of the grid as it was then, on the original recording machine; the grid now has 16 runs (SleepScale joined the headline policies), so both speedups understate the per-run gain, and on another machine they also compare hosts; wall_total_s is the full command\""
    );
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"baseline_pre_ladder\": {{");
    let _ = writeln!(
        s,
        "    \"label\": \"pre-ladder-queue (heap queue, per-event admission, incremental resync)\","
    );
    let _ = writeln!(
        s,
        "    \"quick_t3_run_sum_s\": {PRE_LADDER_QUICK_T3_RUN_SUM_S}"
    );
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"scenarios\": [");
    for (i, o) in outcomes.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"name\": \"{}\",", o.name);
        let _ = writeln!(s, "      \"runs_per_iter\": {},", o.runs_per_iter);
        let _ = writeln!(s, "      \"iters\": {},", o.iters);
        let _ = writeln!(s, "      \"mean_wall_s\": {:.4},", o.mean_wall_s);
        let _ = writeln!(s, "      \"min_wall_s\": {:.4},", o.min_wall_s);
        let _ = writeln!(s, "      \"events_per_iter\": {},", o.events_per_iter);
        let _ = writeln!(s, "      \"events_per_sec\": {:.0}{}", o.events_per_sec, {
            if o.name == "quick_t3" {
                ","
            } else {
                ""
            }
        });
        if o.name == "quick_t3" {
            let _ = writeln!(
                s,
                "      \"speedup_vs_baseline\": {:.3},",
                BASELINE_QUICK_T3_RUN_SUM_S / o.mean_wall_s
            );
            let _ = writeln!(
                s,
                "      \"speedup_vs_pre_ladder\": {:.3}",
                PRE_LADDER_QUICK_T3_RUN_SUM_S / o.mean_wall_s
            );
        }
        let _ = writeln!(s, "    }}{}", if i + 1 < outcomes.len() { "," } else { "" });
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}
