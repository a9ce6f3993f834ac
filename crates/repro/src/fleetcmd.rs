//! `repro fleet` — the datacenter-scale experiment: N Hibernator arrays
//! serving a shared multi-tenant OLTP workload under one power budget.
//!
//! The budget is expressed as a *fraction* of the fleet's nominal draw
//! (`arrays × disks × full-speed idle watts`), so `--budget-frac 0.6`
//! means "the fleet may draw 60 % of what it would idling flat-out".
//! A non-positive fraction disables the cap entirely.
//!
//! Outputs (all byte-identical at any `--jobs` value):
//!
//! * `fleet_summary.csv` — one row: energy vs integrated budget,
//!   cap-violation time, request conservation, fleet-wide latency;
//! * `fleet_epochs.csv` — the arbiter's decision log, one row per epoch;
//! * `fleet_tenants.csv` — per-tenant completion counts and percentiles;
//! * `fleet_stream.jsonl` — the fleet event stream, replayable through
//!   `repro audit` (which auto-detects fleet streams).
//!
//! The run self-audits before writing anything; an invariant violation
//! exits non-zero so CI catches it without a separate audit pass.

use crate::common::{Ctx, Workload};
use diskmodel::PowerModel;
use fleet::{run_fleet, BudgetSchedule, FleetSpec};
use hibernator::Hibernator;
use simkit::{LatencyHistogram, SimDuration};

/// Fleet epochs per horizon: the arbiter cadence scales with the run
/// length so even sub-quick smoke runs exercise several grant rounds.
const EPOCHS_PER_HORIZON: f64 = 12.0;

/// Nominal fleet draw: every disk of every array idling at full speed.
pub fn nominal_fleet_w(config: &array::ArrayConfig, arrays: usize) -> f64 {
    let pm = PowerModel::new(&config.spec);
    arrays as f64 * config.disks as f64 * pm.idle_w(config.spec.top_level())
}

/// Entry point for `repro fleet`.
pub fn fleet(ctx: &Ctx, arrays: usize, tenants: u32, budget_frac: f64) {
    let w = Workload::Oltp;
    let trace = ctx.trace(w);
    let config = ctx.array_config(w);
    let goal = ctx.goal_s(w);

    let nominal_w = nominal_fleet_w(&config, arrays);
    let capped = budget_frac > 0.0 && budget_frac.is_finite();
    let budget_w = if capped {
        Some(nominal_w * budget_frac)
    } else {
        None
    };
    let budget = match budget_w {
        Some(b) => BudgetSchedule::constant(b),
        None => BudgetSchedule::unlimited(),
    };
    println!(
        "\n## fleet — {arrays} array(s), {tenants} tenant(s), budget {}",
        match budget_w {
            Some(b) => format!(
                "{b:.0} W ({budget_frac:.0}% of {nominal_w:.0} W nominal)",
                budget_frac = budget_frac * 100.0
            ),
            None => "unlimited".to_string(),
        }
    );

    let fleet_epoch = SimDuration::from_secs((ctx.duration_s() / EPOCHS_PER_HORIZON).max(60.0));
    let report = ctx.run("fleet", goal, ctx.warmup_s(), ctx.run_options(), |opts| {
        let mut spec = FleetSpec::new(arrays, tenants, config, opts, budget);
        spec.fleet_epoch = fleet_epoch;
        run_fleet(&spec, &trace, ctx.pool(), |_| {
            Hibernator::new(ctx.hibernator_config(goal))
        })
    });

    // Self-audit before any output: a fleet run that breaks its own
    // invariants must not leave plausible-looking CSVs behind.
    let audit = report.audit().expect("fleet stream parses");
    for c in &audit.checks {
        let verdict = if c.passed { "PASS" } else { "FAIL" };
        println!("  [{verdict}] {}", c.name);
        if !c.passed {
            eprintln!("fleet: invariant {} violated: {}", c.name, c.detail);
            std::process::exit(1);
        }
    }

    println!("  epoch  start_s   budget_w   demand_w     moves  violated");
    for e in &report.epochs {
        println!(
            "  {:>5}  {:>7.0}  {:>9}  {:>9.1}  {:>8}  {}",
            e.epoch,
            e.start_s,
            fmt_opt(e.budget_w, 1),
            e.demand_w,
            e.moves,
            if e.violated { "yes" } else { "no" }
        );
    }

    // Fleet-wide latency: every tenant histogram shares the standard
    // latency layout, so they merge into one distribution.
    let mut all = LatencyHistogram::new_latency();
    for h in &report.tenant_latency {
        all.merge(h);
    }

    let summary = format!(
        "{arrays},{tenants},{},{nominal_w:.1},{:.1},{},{:.1},{},{},{},{},{},{},{},{}",
        fmt_opt(budget_w, 1),
        report.fleet_energy_j,
        fmt_opt(report.budget_j, 1),
        report.cap_violation_s,
        report.completed,
        report.incomplete,
        report.total_requests,
        report.routed_requests,
        report.tenant_moves,
        fmt_q_ms(&all, 0.50),
        fmt_q_ms(&all, 0.95),
        fmt_q_ms(&all, 0.99),
    );
    ctx.write_csv(
        "fleet_summary.csv",
        "arrays,tenants,budget_w,nominal_w,energy_j,budget_j,cap_violation_s,\
         completed,incomplete,total_requests,routed_requests,tenant_moves,\
         p50_ms,p95_ms,p99_ms",
        &[summary],
    );

    let epoch_rows: Vec<String> = report
        .epochs
        .iter()
        .enumerate()
        .map(|(k, e)| {
            let caps = report.epoch_caps(k);
            let cap_min = caps.iter().cloned().fold(f64::INFINITY, f64::min);
            let cap_max = caps.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            format!(
                "{},{:.0},{},{:.3},{},{},{},{},{}",
                e.epoch,
                e.start_s,
                fmt_opt(e.budget_w, 3),
                e.demand_w,
                if caps.is_empty() {
                    String::new()
                } else {
                    format!("{cap_min:.3}")
                },
                if caps.is_empty() {
                    String::new()
                } else {
                    format!("{cap_max:.3}")
                },
                e.moves,
                e.completed,
                u8::from(e.violated),
            )
        })
        .collect();
    ctx.write_csv(
        "fleet_epochs.csv",
        "epoch,start_s,budget_w,demand_w,cap_min_w,cap_max_w,moves,completed,violated",
        &epoch_rows,
    );

    let tenant_rows: Vec<String> = report
        .tenant_latency
        .iter()
        .enumerate()
        .map(|(t, h)| {
            format!(
                "{t},{},{},{},{}",
                h.count(),
                fmt_q_ms(h, 0.50),
                fmt_q_ms(h, 0.95),
                fmt_q_ms(h, 0.99),
            )
        })
        .collect();
    ctx.write_csv(
        "fleet_tenants.csv",
        "tenant,completed,p50_ms,p95_ms,p99_ms",
        &tenant_rows,
    );

    let stream_path = ctx.out_dir.join("fleet_stream.jsonl");
    std::fs::write(&stream_path, &report.fleet_stream.bytes).expect("write fleet stream");
    println!(
        "  -> {} ({} bytes)",
        stream_path.display(),
        report.fleet_stream.bytes.len()
    );
}

/// Formats an optional value with fixed precision, empty when absent
/// (unlimited budget).
fn fmt_opt(x: Option<f64>, prec: usize) -> String {
    match x {
        Some(v) => format!("{v:.prec$}"),
        None => String::new(),
    }
}

/// A latency quantile in milliseconds, empty when the histogram is empty.
fn fmt_q_ms(h: &LatencyHistogram, q: f64) -> String {
    match h.quantile(q) {
        Some(v) => format!("{:.3}", v * 1e3),
        None => String::new(),
    }
}
