//! `repro` — regenerates every table and figure of the Hibernator
//! evaluation (see DESIGN.md §6 for the experiment index and
//! EXPERIMENTS.md for recorded results).
//!
//! ```text
//! repro [--quick] [--seed N] [--out DIR] [--jobs N] <experiment...>
//!   experiments: t1..t6 f1..f12 faults cache scenarios adapt | tables | figures | all
//! repro fleet [--arrays N] [--tenants N] [--budget-frac F]
//! repro audit <stream.jsonl>
//! repro ingest <msr_trace.csv>
//! ```
//!
//! `--quick` runs 2-hour traces instead of 24-hour ones (for smoke tests);
//! results land as CSV in `--out` (default `results/`). `--jobs N` caps
//! the number of simulations in flight at once (default: the machine's
//! available parallelism); every run is seed-deterministic, so the CSVs
//! are byte-identical at any jobs count. `--horizon-h H` overrides the
//! simulated horizon (hours) for sub-quick smoke runs.
//!
//! `--telemetry-out PATH` records a structured event stream for every
//! simulation of every subcommand, under its `[run]` label, and writes
//! them (sorted by run label, so byte-identical at any `--jobs`) to PATH
//! as JSON lines; `bench` times its runs and records nothing. `repro audit
//! PATH` then replays such a stream through the cross-cutting invariant
//! checks (energy conservation, dead-disk serving, migration concurrency,
//! goal-violation refit, …) and exits non-zero on any failure.
//!
//! `repro fleet` simulates N Hibernator arrays under one datacenter power
//! budget (see `fleetcmd`); its `fleet_stream.jsonl` output audits through
//! the same `repro audit` command, which detects fleet streams by their
//! first event tag.
//!
//! `repro scenarios` sweeps the adversarial workload suite (flash crowd,
//! popularity flip, write flood, scan poison) across the headline
//! policies, streaming every trace (see `scenarios`). `repro adapt` races
//! the four adaptive migration policies through a mid-run popularity flip
//! and ranks them by time-to-readapt and energy (see `adapt`). `repro
//! ingest PATH` parses an MSR-Cambridge block-trace CSV and prints its
//! vitals, exiting non-zero (with the offending line number) on malformed
//! input.

mod adapt;
mod bench;
mod cachesweep;
mod common;
mod faults;
mod figures;
mod fleetcmd;
mod scenarios;
mod tables;

use common::Ctx;

fn usage() -> ! {
    eprintln!(
        "usage: repro [--quick] [--seed N] [--out DIR] [--jobs N] [--horizon-h H] \
         [--telemetry-out PATH] <t1..t6|f1..f12|faults|cache|scenarios|adapt|tables|figures|all>...\n\
         \x20      repro fleet [--arrays N] [--tenants N] [--budget-frac F] [common flags]\n\
         \x20      repro audit <stream.jsonl>\n\
         \x20      repro ingest <msr_trace.csv>\n\
         \x20      repro bench [--seed N] [--out DIR] [--iters N] \
         [--check-floor]"
    );
    std::process::exit(2);
}

/// Audits a telemetry stream file and exits: 0 if every invariant of every
/// run held, 1 otherwise. Fleet streams (first line tagged `fleet_*`, as
/// written by `repro fleet`) route to the fleet auditor automatically.
fn audit_stream(path: &str) -> ! {
    use std::io::BufRead;
    let cannot_read = |e: std::io::Error| -> ! {
        eprintln!("audit: cannot read {path}: {e}");
        std::process::exit(2);
    };
    let file = std::fs::File::open(path).unwrap_or_else(|e| cannot_read(e));
    let mut reader = std::io::BufReader::new(file);
    // The stream is read one line at a time; the first line (or as much
    // of it as the reader's first buffer holds) picks the auditor.
    const FLEET_TAG: &[u8] = b"\"ev\":\"fleet_";
    let head = reader.fill_buf().unwrap_or_else(|e| cannot_read(e));
    let first = head.split(|&b| b == b'\n').next().unwrap_or_default();
    let is_fleet = first.windows(FLEET_TAG.len()).any(|w| w == FLEET_TAG);
    let outcome = if is_fleet {
        let run = telemetry::audit::audit_fleet_read(reader).unwrap_or_else(|e| {
            eprintln!("audit: malformed fleet stream: {e}");
            std::process::exit(1);
        });
        telemetry::audit::AuditOutcome { runs: vec![run] }
    } else {
        telemetry::audit::audit_read(reader).unwrap_or_else(|e| {
            eprintln!("audit: malformed stream: {e}");
            std::process::exit(1);
        })
    };
    if outcome.runs.is_empty() {
        eprintln!("audit: {path} holds no run streams");
        std::process::exit(1);
    }
    for run in &outcome.runs {
        println!("run {} ({} events)", run.label, run.events);
        for c in &run.checks {
            let verdict = if c.passed { "PASS" } else { "FAIL" };
            if c.detail.is_empty() {
                println!("  [{verdict}] {}", c.name);
            } else {
                println!("  [{verdict}] {} — {}", c.name, c.detail);
            }
        }
    }
    if outcome.passed() {
        println!("audit: all {} run(s) passed", outcome.runs.len());
        std::process::exit(0);
    }
    eprintln!("audit: invariant violations found");
    std::process::exit(1);
}

/// Streams an MSR-Cambridge block-trace CSV once, printing its vitals,
/// and exits: 0 on a clean parse, 1 (naming the offending line) on a
/// malformed one. Runs in O(1) memory regardless of trace size.
///
/// A record is late when its time is below the running maximum of the
/// times before it (its lateness is the gap); these are the records a
/// load has to move when it orders the trace.
fn ingest_msr(path: &str) -> ! {
    let file = std::fs::File::open(path).unwrap_or_else(|e| {
        eprintln!("ingest: cannot open {path}: {e}");
        std::process::exit(2);
    });
    let (mut records, mut reads, mut sectors, mut last_s, mut max_end) =
        (0u64, 0u64, 0u64, 0.0f64, 0u64);
    let (mut late, mut max_late_s) = (0u64, 0.0f64);
    for r in workload::trace_io::MsrReader::new(file) {
        let r = r.unwrap_or_else(|e| {
            eprintln!("ingest: {path}: {e}");
            std::process::exit(1);
        });
        records += 1;
        if r.kind == workload::VolumeIoKind::Read {
            reads += 1;
        }
        sectors += u64::from(r.sectors);
        let t = r.time.as_secs();
        if t < last_s {
            late += 1;
            max_late_s = max_late_s.max(last_s - t);
        }
        last_s = last_s.max(t);
        max_end = max_end.max(r.sector + u64::from(r.sectors));
    }
    if records == 0 {
        eprintln!("ingest: {path} holds no records");
        std::process::exit(1);
    }
    println!("ingest: {path}");
    println!(
        "  records   {records} ({reads} reads, {} writes)",
        records - reads
    );
    println!("  span      {last_s:.3} s");
    println!("  late      {late} record(s), up to {max_late_s:.3} s behind the newest before them");
    println!("  volume    {max_end} sectors touched-end, {sectors} sectors transferred");
    std::process::exit(0);
}

fn main() {
    let mut quick = false;
    let mut seed = 42u64;
    let mut out = String::from("results");
    let mut jobs = parallel::available_parallelism();
    let mut horizon_h: Option<f64> = None;
    let mut telemetry_out: Option<String> = None;
    let mut iters = 3usize;
    let mut check_floor = false;
    let mut arrays = 4usize;
    let mut tenants = 8u32;
    let mut budget_frac = 0.6f64;
    let mut experiments: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--out" => out = args.next().unwrap_or_else(|| usage()),
            "--jobs" => {
                jobs = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--horizon-h" => {
                horizon_h = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&h: &f64| h > 0.0 && h.is_finite())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--telemetry-out" => telemetry_out = Some(args.next().unwrap_or_else(|| usage())),
            "--iters" => {
                iters = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--check-floor" => check_floor = true,
            "--arrays" => {
                arrays = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--tenants" => {
                tenants = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--budget-frac" => {
                budget_frac = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&f: &f64| f.is_finite())
                    .unwrap_or_else(|| usage())
            }
            "--help" | "-h" => usage(),
            e if !e.starts_with('-') => experiments.push(e.to_string()),
            _ => usage(),
        }
    }
    if experiments.first().map(String::as_str) == Some("audit") {
        match experiments.as_slice() {
            [_, path] => audit_stream(path),
            _ => usage(),
        }
    }
    if experiments.first().map(String::as_str) == Some("ingest") {
        match experiments.as_slice() {
            [_, path] => ingest_msr(path),
            _ => usage(),
        }
    }
    if experiments.first().map(String::as_str) == Some("bench") {
        if experiments.len() != 1 {
            usage();
        }
        bench::bench(seed, &out, iters, check_floor);
        return;
    }
    let fleet = experiments.first().map(String::as_str) == Some("fleet");
    if experiments.is_empty() || (fleet && experiments.len() != 1) {
        usage();
    }

    let mut ctx = Ctx::new(quick, seed, &out, jobs);
    if let Some(h) = horizon_h {
        ctx.set_horizon_hours(h);
    }
    ctx.set_telemetry(telemetry_out.is_some());
    let horizon_h = ctx.duration_s() / 3600.0;
    let started = std::time::Instant::now();
    if fleet {
        println!(
            "# Hibernator fleet — {arrays} array(s), seed {seed}, {horizon_h:.1} h horizon, {jobs} job(s)"
        );
        fleetcmd::fleet(&ctx, arrays, tenants, budget_frac);
    } else {
        println!(
            "# Hibernator reproduction — {} scale, seed {seed}, {} disks, {horizon_h:.1} h horizon, {jobs} job(s)",
            if quick { "quick" } else { "full" },
            ctx.disks(),
        );
        for e in &experiments {
            run_one(&ctx, e);
        }
    }
    if let Some(path) = &telemetry_out {
        ctx.write_telemetry(std::path::Path::new(path));
    }
    ctx.print_timings();
    println!("\ndone in {:.1?} (wall clock)", started.elapsed());
}

fn run_one(ctx: &Ctx, name: &str) {
    match name {
        "t1" => tables::t1(ctx),
        "t2" => tables::t2(ctx),
        "t3" => tables::t3(ctx),
        "t4" => tables::t4(ctx),
        "t5" => tables::t5(ctx),
        "t6" => tables::t6(ctx),
        "f1" => figures::f1(ctx),
        "f2" => figures::f2(ctx),
        "f3" => figures::f3(ctx),
        "f4" => figures::f4(ctx),
        "f5" => figures::f5(ctx),
        "f6" => figures::f6(ctx),
        "f7" => figures::f7(ctx),
        "f8" => figures::f8(ctx),
        "f9" => figures::f9(ctx),
        "f10" => figures::f10(ctx),
        "f11" => figures::f11(ctx),
        "f12" => figures::f12(ctx),
        "faults" => faults::faults(ctx),
        "cache" => cachesweep::cachesweep(ctx),
        "scenarios" => scenarios::scenarios(ctx),
        "adapt" => adapt::adapt(ctx),
        "tables" => {
            // One prefetch covers every standard-scenario run the tables
            // need, so the whole grid fans out across the pool at once.
            let mut pairs: Vec<(common::PolicyKind, common::Workload)> = Vec::new();
            for w in [common::Workload::Oltp, common::Workload::Cello] {
                for p in common::PolicyKind::HEADLINE {
                    pairs.push((p, w));
                }
                pairs.push((common::PolicyKind::FixedSlow, w));
            }
            ctx.prefetch(&pairs);
            for t in ["t1", "t2", "t3", "t4", "t5", "t6"] {
                run_one(ctx, t);
            }
        }
        "figures" => figures::all(ctx),
        "all" => {
            run_one(ctx, "tables");
            run_one(ctx, "figures");
        }
        other => {
            eprintln!("unknown experiment {other:?}");
            std::process::exit(2);
        }
    }
}
