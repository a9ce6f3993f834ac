//! The repository benchmark: one command, three workloads, end-to-end
//! metrics from untraced passes and per-layer metrics from traced ones.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid|fleet256|storm_msr --seed N --seconds S --trace 0|1
//! ```
//!
//! A run sets up its input several times (the median is `setup_s`), then
//! repeats its measured pass until `--seconds` is used up (at least
//! [`MIN_PASSES`] passes) and reports medians. Host times are also read
//! at a reference host speed (see [`gauge`]), which steadies them on a
//! shared machine. Every pass is checked (see
//! [`common::RunCheck`]); any failure makes the run exit 1. Progress goes
//! to stderr. Stdout carries a provenance line, a detail line with every
//! metric of the benchmark's definition by name and unit, and, last, the
//! result object: `{"correct", "attempted", "failed", "metrics"}`, where
//! `metrics` holds the end-to-end metrics with `--trace 0` and the
//! per-layer metrics with `--trace 1`. See `perfbench/NOTES.md`.

mod common;
mod fleetw;
mod gauge;
mod grid;
mod json;
mod msr;
mod probe;
mod storm;

use common::RunCheck;
use json::Obj;
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Fewest measured passes per `--trace 0` run.
const MIN_PASSES: usize = 3;
/// Fewest traced iterations per run.
const MIN_TRACED: usize = 1;

/// Simulated, input-determined outcomes of one pass. Repetitions over the
/// same input must reproduce them exactly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Sim {
    /// Hibernator energy saved vs Base on the same input, percent.
    pub energy_savings_pct: f64,
    /// Post-warm-up buckets whose Hibernator mean response exceeded the
    /// goal, percent.
    pub goal_violation_pct: f64,
    /// Hibernator p99 volume response, simulated milliseconds.
    pub p99_response_ms: f64,
    /// Fleet cap-violation time ÷ horizon, percent (fleet only).
    pub cap_violation_pct: Option<f64>,
    /// Requests in the input.
    pub input_requests: u64,
}

/// One untraced (end-to-end) pass.
pub struct PassOut {
    /// Host times of the pass.
    pub times: probe::PassTimes,
    /// Every simulation run of the pass.
    pub runs: Vec<RunCheck>,
    /// Volume requests completed across the pass's runs.
    pub completed: u64,
    /// The simulated outcomes.
    pub sim: Sim,
}

/// One traced iteration: a traced pass plus whatever untraced baseline
/// and auxiliary runs its layer metrics need.
pub struct TracedOut {
    /// Wall time of the traced pass.
    pub traced_wall_s: f64,
    /// Wall time of the same pass untraced.
    pub untraced_wall_s: f64,
    /// Seconds of the traced pass the layer metrics account for.
    pub attributed_s: f64,
    /// Layer metrics (names from [`PER_LAYER`]; absent ones did no work).
    pub layers: Vec<(&'static str, f64)>,
    /// Every simulation run made, traced and untraced, pass by pass.
    pub runs: Vec<RunCheck>,
    /// Runs in one pass.
    pub pass_runs: usize,
}

/// The end-to-end metrics every `--trace 0` run reports, with units.
/// `wall_ref_s` is a pass's wall time at the reference host speed (see
/// [`gauge`]), and `requests_per_ref_s` the throughput it gives; the raw
/// `wall_s` and `requests_per_s` go to the detail line.
/// `energy_share_pct` is Hibernator's energy as a share of the reference
/// (Base on the same input; the fleet's nominal draw for `fleet256`), i.e.
/// 100 − `energy_savings_pct`: the same quantity, expressed so that its
/// relative spread across seeds fits a bound.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_ref_s", "s"),
    ("requests_per_ref_s", "req/s"),
    ("peak_rss_mib", "MiB"),
    ("energy_share_pct", "%"),
    ("p99_response_ms", "ms"),
];

/// The per-layer metrics every `--trace 1` run reports, with units. A
/// layer a workload never enters reports 0 (it did no work there).
pub const PER_LAYER: [(&str, &str); 49] = [
    ("array.driver_s", "s"),
    ("array.driver_ns_per_event", "ns"),
    ("array.events", "count"),
    ("array.events_per_request", "ratio"),
    ("array.migration.committed", "count"),
    ("array.migration.rebuilt", "count"),
    ("array.migration.sectors_moved", "count"),
    ("array.incomplete", "count"),
    ("diskmodel.transitions", "count"),
    ("diskmodel.service_mean_ms", "ms"),
    ("core.tick_s", "s"),
    ("core.tick_calls", "count"),
    ("core.plan_ns_per_epoch", "ns"),
    ("core.tick_max_ms", "ms"),
    ("core.hook_ns_per_request", "ns"),
    ("core.reconfigurations", "count"),
    ("core.boosts", "count"),
    ("core.goal_violation_pct", "%"),
    ("policies.tick_s", "s"),
    ("policies.hook_ns_per_request", "ns"),
    ("fleet.run_s_1w", "s"),
    ("fleet.run_s_2w", "s"),
    ("fleet.speedup_2w", "ratio"),
    ("fleet.scaling_loss_s", "s"),
    ("fleet.placement_s", "s"),
    ("fleet.audit_s", "s"),
    ("fleet.epochs", "count"),
    ("fleet.tenant_moves", "count"),
    ("fleet.cap_violation_pct", "%"),
    ("telemetry.emit_s", "s"),
    ("telemetry.stream_mib", "MiB"),
    ("telemetry.bytes_per_event", "B"),
    ("telemetry.audit_s", "s"),
    ("telemetry.audit_ns_per_event", "ns"),
    ("workload.generate_s", "s"),
    ("workload.requests", "count"),
    ("workload.feed_ns_per_request", "ns"),
    ("workload.trace_io.parse_s", "s"),
    ("workload.trace_io.records_per_s", "1/s"),
    ("workload.trace_io.late_records", "count"),
    ("cache.read_hit_rate", "ratio"),
    ("cache.write_absorbs", "count"),
    ("cache.flushes", "count"),
    ("faults.retries", "count"),
    ("faults.redirects", "count"),
    ("faults.lost_requests", "count"),
    ("faults.disk_failures", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {val}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {val}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// A workload's set-up output, dispatching to its module.
enum Input {
    Grid(grid::Input),
    Fleet(fleetw::Input),
    Storm(storm::Input),
}

impl Input {
    fn pass(&self) -> PassOut {
        match self {
            Input::Grid(i) => grid::pass(i),
            Input::Fleet(i) => fleetw::pass(i, fleetw::WORKERS),
            Input::Storm(i) => storm::pass(i),
        }
    }

    fn traced(&self) -> TracedOut {
        match self {
            Input::Grid(i) => grid::traced(i),
            Input::Fleet(i) => fleetw::traced(i),
            Input::Storm(i) => storm::traced(i),
        }
    }

    /// Horizon and request counts for the provenance block.
    fn describe(&self, o: &mut Obj) {
        match self {
            Input::Grid(i) => grid::describe(i, o),
            Input::Fleet(i) => fleetw::describe(i, o),
            Input::Storm(i) => storm::describe(i, o),
        }
    }

    fn cleanup(&self) {
        if let Input::Storm(i) = self {
            storm::cleanup(i);
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let setup: fn(u64) -> Input = match args.workload.as_str() {
        "grid" => |seed| Input::Grid(grid::setup(seed)),
        "fleet256" => |seed| Input::Fleet(fleetw::setup(seed)),
        "storm_msr" => |seed| Input::Storm(storm::setup(seed)),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (want grid, fleet256 or storm_msr)");
            std::process::exit(2);
        }
    };

    // Set-up, several times; the last input is the one measured.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut input: Option<Input> = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = input.take() {
            old.cleanup();
        }
        let t0 = Instant::now();
        input = Some(setup(args.seed));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let input = input.expect("at least one set-up");
    let setup_s = median(&setups);
    eprintln!(
        "perfbench: {} set-up {setup_s:.3} s (median of {SETUP_REPS})",
        args.workload
    );

    // Every run of every pass; `pass_runs` runs make one pass.
    let mut checks: Vec<RunCheck> = Vec::new();
    let mut sims_agree = true;

    let started = Instant::now();
    let budget = args.seconds;
    let mut result = Obj::new();
    let mut detail = Obj::new();

    let pass_runs = if !args.trace {
        let mut walls = Vec::new();
        let mut ref_walls = Vec::new();
        let mut slowdowns = Vec::new();
        let mut first: Option<(Sim, u64)> = None;
        let mut spent = Vec::new();
        loop {
            let t0 = Instant::now();
            let p = input.pass();
            eprintln!(
                "perfbench: pass {} wall {:.3} s ({:.3} s at reference speed), {} requests completed",
                walls.len() + 1,
                p.times.wall_s,
                p.times.ref_s,
                p.completed
            );
            walls.push(p.times.wall_s);
            ref_walls.push(p.times.ref_s);
            slowdowns.push(p.times.slowdown);
            let (sim, _) = *first.get_or_insert((p.sim, p.completed));
            sims_agree &= p.sim == sim;
            checks.extend(p.runs);
            spent.push(t0.elapsed().as_secs_f64());
            if !more(started, budget, &spent, MIN_PASSES) {
                break;
            }
        }
        let (sim, completed) = first.expect("at least one pass");
        let wall_s = median(&walls);
        let wall_ref_s = median(&ref_walls);
        let values = [
            Some(setup_s),
            Some(wall_ref_s),
            Some(completed as f64 / wall_ref_s),
            peak_rss_mib(),
            Some(100.0 - sim.energy_savings_pct),
            Some(sim.p99_response_ms),
        ];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            if let Some(v) = v {
                result.metric(name, v, unit);
                detail.metric(name, v, unit);
            }
        }
        detail.metric("wall_s", wall_s, "s");
        detail.metric("requests_per_s", completed as f64 / wall_s, "req/s");
        detail.metric("host_slowdown", median(&slowdowns), "ratio");
        detail.metric("goal_violation_pct", sim.goal_violation_pct, "%");
        detail.metric("energy_savings_pct", sim.energy_savings_pct, "%");
        if let Some(c) = sim.cap_violation_pct {
            detail.metric("cap_violation_pct", c, "%");
        }
        detail.int("passes", walls.len() as u64);
        detail.list("wall_s_per_pass", &walls);
        detail.list("wall_ref_s_per_pass", &ref_walls);
        detail.list("host_slowdown_per_pass", &slowdowns);
        detail.list("setup_s_per_rep", &setups);
        checks.len() / walls.len()
    } else {
        let mut traced_walls = Vec::new();
        let mut untraced_walls = Vec::new();
        let mut unattributed = Vec::new();
        let mut layers: Vec<(&'static str, Vec<f64>)> = Vec::new();
        let mut pass_runs = None;
        let mut spent = Vec::new();
        loop {
            let t0 = Instant::now();
            let t = input.traced();
            eprintln!(
                "perfbench: traced iteration {} wall {:.3} s (untraced {:.3} s)",
                traced_walls.len() + 1,
                t.traced_wall_s,
                t.untraced_wall_s
            );
            traced_walls.push(t.traced_wall_s);
            untraced_walls.push(t.untraced_wall_s);
            unattributed.push(1.0 - t.attributed_s / t.traced_wall_s);
            for (name, v) in t.layers {
                match layers.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, vs)) => vs.push(v),
                    None => layers.push((name, vec![v])),
                }
            }
            pass_runs.get_or_insert(t.pass_runs);
            checks.extend(t.runs);
            spent.push(t0.elapsed().as_secs_f64());
            if !more(started, budget, &spent, MIN_TRACED) {
                break;
            }
        }
        let overhead = median(&traced_walls) / median(&untraced_walls) - 1.0;
        for (name, unit) in PER_LAYER {
            let v = match name {
                "trace.overhead_frac" => overhead,
                "trace.unattributed_frac" => median(&unattributed),
                _ => layers
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, vs)| median(vs)),
            };
            result.metric(name, v, unit);
        }
        for (name, _) in &layers {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == name),
                "layer metric {name} is not declared"
            );
        }
        detail.int("iterations", traced_walls.len() as u64);
        detail.list("traced_wall_s", &traced_walls);
        detail.list("untraced_wall_s", &untraced_walls);
        pass_runs.expect("at least one traced iteration")
    };
    input.cleanup();

    // Output checks: every run's invariants, and identical counts across
    // repetitions of the same input. Passes (traced iterations run whole
    // passes back to back) repeat the same runs in order, so run k must
    // repeat run k mod n of the first pass — which also proves the probes
    // change nothing the simulator does.
    let attempted = checks.len();
    let mut failed = 0usize;
    for (k, r) in checks.iter().enumerate() {
        if !r.ok() || r.fingerprint() != checks[k % pass_runs].fingerprint() {
            eprintln!("perfbench: check FAILED for run {}: {r:?}", r.label);
            failed += 1;
        }
    }
    if !sims_agree {
        eprintln!("perfbench: simulated metrics differ across repetitions");
    }
    let correct = failed == 0 && sims_agree;
    detail.metric("failed_frac", failed as f64 / attempted as f64, "ratio");

    let mut prov = Obj::new();
    prov.str("workload", &args.workload);
    prov.int("seed", args.seed);
    prov.num("seconds", args.seconds);
    prov.int("trace", u64::from(args.trace));
    prov.int("nproc", parallel::available_parallelism() as u64);
    prov.str("commit", &commit());
    prov.num("horizon_s", common::HORIZON_S);
    input.describe(&mut prov);
    println!("{}", Obj::wrap("provenance", prov));
    println!("{}", Obj::wrap("detail", detail));

    let mut out = Obj::new();
    out.bool("correct", correct);
    out.int("attempted", attempted as u64);
    out.int("failed", failed as u64);
    out.obj("metrics", result);
    println!("{}", out.render());
    if !correct {
        std::process::exit(1);
    }
}

/// Whether to start another pass (or traced iteration): until `min` are
/// done, always; after that, only while the next one (estimated by the
/// median time each has taken so far) still fits in the time budget.
fn more(started: Instant, budget_s: f64, spent: &[f64], min: usize) -> bool {
    if spent.len() < min {
        return true;
    }
    started.elapsed().as_secs_f64() + median(spent) <= budget_s
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`), MiB; `None` where
/// `/proc/self/status` is unavailable.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// The checked-out commit, read from `.git` in the working directory, or
/// `"unknown"` outside a git checkout.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(hash) = read(&format!(".git/{r}")) {
        return hash;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}
