//! Figure experiments F1–F12 (see DESIGN.md §6 for the experiment index).
//!
//! Each figure prints its series to stdout (coarse, human-readable) and
//! writes the full-resolution series to CSV in the results directory.
//!
//! Every figure follows the same parallel shape: *gather* the runs it
//! needs (through [`Ctx::prefetch`] for standard-scenario runs,
//! [`Ctx::calibrated_sweep`] for knob sweeps that calibrate a goal per
//! variant, or a [`Ctx::pool`] batch for the rest), then *format* rows
//! serially from the ordered results — so the CSV bytes never depend on
//! the jobs count.

use crate::common::{simulate, violation_fraction, Ctx, PolicyKind, Workload};
use array::RunReport;
use hibernator::{Hibernator, HibernatorConfig};
use simkit::SimDuration;
use workload::TraceCursor;

/// F1 — array power over time per policy (OLTP).
pub fn f1(ctx: &Ctx) {
    println!("\n== F1: array power over time (OLTP) ==");
    ctx.prefetch(&PolicyKind::HEADLINE.map(|p| (p, Workload::Oltp)));
    let mut rows = Vec::new();
    for p in PolicyKind::HEADLINE {
        let r = ctx.report(p, Workload::Oltp);
        for (t, w) in r.power_series.mean_points() {
            rows.push(format!("{},{t:.0},{w:.1}", p.label()));
        }
        let avg: f64 = {
            let pts = r.power_series.mean_points();
            pts.iter().map(|p| p.1).sum::<f64>() / pts.len().max(1) as f64
        };
        println!("  {:>12}: avg {avg:.0} W", p.label());
    }
    ctx.write_csv("f1_power_over_time.csv", "policy,t_s,power_w", &rows);
}

/// F2 — windowed response time over time vs the goal (Cello, Hibernator).
pub fn f2(ctx: &Ctx) {
    println!("\n== F2: response time over time vs goal (Cello) ==");
    ctx.prefetch(&[
        (PolicyKind::Base, Workload::Cello),
        (PolicyKind::Hibernator, Workload::Cello),
    ]);
    let goal = ctx.goal_s(Workload::Cello);
    let mut rows = Vec::new();
    for p in [PolicyKind::Base, PolicyKind::Hibernator] {
        let r = ctx.report(p, Workload::Cello);
        for (t, v) in r.response_series.mean_points() {
            rows.push(format!("{},{t:.0},{:.3}", p.label(), v * 1e3));
        }
    }
    let hib = ctx.report(PolicyKind::Hibernator, Workload::Cello);
    let viol = violation_fraction(&hib.response_series, goal, ctx.warmup_s());
    println!(
        "  goal {:.2} ms; Hibernator violates in {:.1}% of buckets",
        goal * 1e3,
        viol * 100.0
    );
    ctx.write_csv("f2_response_over_time.csv", "policy,t_s,mean_ms", &rows);
}

/// F3 — energy savings vs response-time goal factor (OLTP).
pub fn f3(ctx: &Ctx) {
    println!("\n== F3: savings vs goal factor (OLTP) ==");
    ctx.prefetch(&[(PolicyKind::Base, Workload::Oltp)]);
    let base = ctx.report(PolicyKind::Base, Workload::Oltp);
    let trace = ctx.trace(Workload::Oltp);
    let factors = [1.1, 1.3, 1.6, 2.0, 3.0];
    let runs = ctx.pool().map(
        factors
            .iter()
            .map(|&factor| {
                let (base, trace) = (&base, &trace);
                move || {
                    let goal = base.response.mean() * factor;
                    let label = format!("f3 goal {factor:.1}x/OLTP");
                    let r = ctx.run(&label, goal, ctx.warmup_s(), ctx.run_options(), |o| {
                        ctx.run_kind(
                            PolicyKind::Hibernator,
                            ctx.array_config(Workload::Oltp),
                            TraceCursor::new(trace),
                            o,
                            goal,
                        )
                    });
                    (goal, r)
                }
            })
            .collect::<Vec<_>>(),
    );
    let mut rows = Vec::new();
    for (factor, (goal, r)) in factors.iter().zip(&runs) {
        let sav = r.savings_vs(&base) * 100.0;
        println!(
            "  goal {factor:.1}x ({:.2} ms): savings {sav:.1}%, mean {:.2} ms",
            goal * 1e3,
            r.mean_response_ms()
        );
        rows.push(format!(
            "{factor},{:.4},{sav:.2},{:.3}",
            goal * 1e3,
            r.mean_response_ms()
        ));
    }
    ctx.write_csv(
        "f3_goal_sweep.csv",
        "goal_factor,goal_ms,savings_pct,mean_ms",
        &rows,
    );
}

/// F4 — energy savings vs epoch length (OLTP): the coarse-grain argument.
pub fn f4(ctx: &Ctx) {
    println!("\n== F4: savings vs epoch length (OLTP) ==");
    ctx.prefetch(&[(PolicyKind::Base, Workload::Oltp)]);
    let base = ctx.report(PolicyKind::Base, Workload::Oltp);
    let trace = ctx.trace(Workload::Oltp);
    let goal = ctx.goal_s(Workload::Oltp);
    let epochs_s: &[f64] = if ctx.quick {
        &[300.0, 1200.0, 3600.0]
    } else {
        &[300.0, 900.0, 1800.0, 3600.0, 7200.0, 14400.0]
    };
    let runs = ctx.pool().map(
        epochs_s
            .iter()
            .map(|&e| {
                let trace = &trace;
                move || {
                    let mut cfg = HibernatorConfig::for_goal(goal);
                    cfg.epoch = SimDuration::from_secs(e);
                    cfg.heat_tau = SimDuration::from_secs(e);
                    let label = format!("f4 epoch {e:.0}s/OLTP");
                    ctx.run(&label, goal, ctx.warmup_s(), ctx.run_options(), |o| {
                        let config = ctx.array_config(Workload::Oltp);
                        simulate(config, Hibernator::new(cfg), trace, o)
                    })
                    .0
                }
            })
            .collect::<Vec<_>>(),
    );
    let mut rows = Vec::new();
    for (&e, r) in epochs_s.iter().zip(&runs) {
        let sav = r.savings_vs(&base) * 100.0;
        println!(
            "  epoch {:>6.0} s: savings {sav:5.1}%, {:>5} transitions, mean {:.2} ms",
            e,
            r.transitions,
            r.mean_response_ms()
        );
        rows.push(format!(
            "{e},{sav:.2},{},{:.3}",
            r.transitions,
            r.mean_response_ms()
        ));
    }
    ctx.write_csv(
        "f4_epoch_sweep.csv",
        "epoch_s,savings_pct,transitions,mean_ms",
        &rows,
    );
}

/// F5 — energy savings vs number of disk speed levels (OLTP).
pub fn f5(ctx: &Ctx) {
    println!("\n== F5: savings vs number of speed levels (OLTP) ==");
    let levels_list: &[usize] = if ctx.quick { &[2, 6] } else { &[2, 3, 4, 6, 8] };
    let runs = ctx.calibrated_sweep("f5", levels_list, |&levels| {
        let config = ctx.array_config_with(Workload::Oltp, ctx.disks(), levels);
        (
            format!("{levels}-level/OLTP"),
            config,
            ctx.trace(Workload::Oltp),
        )
    });
    let mut rows = Vec::new();
    for (&levels, (base, r, _)) in levels_list.iter().zip(&runs) {
        let sav = r.savings_vs(base) * 100.0;
        println!(
            "  {levels} levels: savings {sav:.1}%, mean {:.2} ms",
            r.mean_response_ms()
        );
        rows.push(format!("{levels},{sav:.2},{:.3}", r.mean_response_ms()));
    }
    ctx.write_csv("f5_levels_sweep.csv", "levels,savings_pct,mean_ms", &rows);
}

/// F6 — savings and response vs load scale (OLTP): where saving stops.
pub fn f6(ctx: &Ctx) {
    println!("\n== F6: savings vs load scale (OLTP) ==");
    let loads: &[f64] = if ctx.quick {
        &[0.5, 1.0, 2.0]
    } else {
        &[0.25, 0.5, 1.0, 1.5, 2.0]
    };
    let runs = ctx.calibrated_sweep("f6", loads, |&load| {
        let trace = ctx.trace_with_load(Workload::Oltp, load);
        let config = ctx.array_config(Workload::Oltp);
        (format!("load {load:.2}x/OLTP"), config, trace)
    });
    let mut rows = Vec::new();
    for (&load, (base, r, goal)) in loads.iter().zip(&runs) {
        let sav = r.savings_vs(base) * 100.0;
        println!(
            "  load {load:.2}x: savings {sav:5.1}%, mean {:.2} ms (goal {:.2} ms)",
            r.mean_response_ms(),
            goal * 1e3
        );
        rows.push(format!(
            "{load},{sav:.2},{:.3},{:.3}",
            r.mean_response_ms(),
            goal * 1e3
        ));
    }
    ctx.write_csv(
        "f6_load_sweep.csv",
        "load_factor,savings_pct,mean_ms,goal_ms",
        &rows,
    );
}

/// F7 — migration-policy ablation (OLTP): none vs random vs temperature.
pub fn f7(ctx: &Ctx) {
    println!("\n== F7: migration ablation (OLTP) ==");
    let variants = [
        PolicyKind::HibernatorNoMig,
        PolicyKind::HibernatorRandMig,
        PolicyKind::Hibernator,
    ];
    ctx.prefetch(&variants.map(|p| (p, Workload::Oltp)));
    let base = ctx.report(PolicyKind::Base, Workload::Oltp);
    let mut rows = Vec::new();
    for p in variants {
        let r = ctx.report(p, Workload::Oltp);
        let sav = r.savings_vs(&base) * 100.0;
        println!(
            "  {:>14}: savings {sav:5.1}%, mean {:.2} ms, moved {} chunks",
            p.label(),
            r.mean_response_ms(),
            r.migration.committed
        );
        rows.push(format!(
            "{},{sav:.2},{:.3},{}",
            p.label(),
            r.mean_response_ms(),
            r.migration.committed
        ));
    }
    ctx.write_csv(
        "f7_migration_ablation.csv",
        "mode,savings_pct,mean_ms,chunks_moved",
        &rows,
    );
}

/// F8 — response-time CDF with and without the performance guard (Cello).
pub fn f8(ctx: &Ctx) {
    println!("\n== F8: response CDF, guard on/off (Cello) ==");
    ctx.prefetch(&[
        (PolicyKind::Hibernator, Workload::Cello),
        (PolicyKind::HibernatorNoGuard, Workload::Cello),
    ]);
    let goal = ctx.goal_s(Workload::Cello);
    let mut rows = Vec::new();
    for p in [PolicyKind::Hibernator, PolicyKind::HibernatorNoGuard] {
        let r = ctx.report(p, Workload::Cello);
        for (v, f) in r.response_hist.cdf_points() {
            rows.push(format!("{},{:.5},{f:.5}", p.label(), v * 1e3));
        }
        let p99 = r.response_hist.quantile(0.99).unwrap_or(0.0) * 1e3;
        let viol = violation_fraction(&r.response_series, goal, ctx.warmup_s()) * 100.0;
        println!(
            "  {:>14}: mean {:.2} ms, p99 {p99:.1} ms, violations {viol:.1}%",
            p.label(),
            r.mean_response_ms()
        );
    }
    ctx.write_csv("f8_guard_cdf.csv", "variant,response_ms,cdf", &rows);
}

/// F9 — savings vs array size (OLTP, per-disk load held constant).
pub fn f9(ctx: &Ctx) {
    println!("\n== F9: savings vs array size (OLTP) ==");
    let sizes: &[usize] = if ctx.quick {
        &[8, 16]
    } else {
        &[8, 16, 24, 32]
    };
    // The arrival rate scales with the array, so per-disk load is fixed.
    let runs = ctx.calibrated_sweep("f9", sizes, |&disks| {
        let load = disks as f64 / ctx.disks() as f64;
        let trace = ctx.trace_with_load(Workload::Oltp, load);
        let config = ctx.array_config_with(Workload::Oltp, disks, 6);
        (format!("{disks}-disk/OLTP"), config, trace)
    });
    let mut rows = Vec::new();
    for (&disks, (base, r, _)) in sizes.iter().zip(&runs) {
        let sav = r.savings_vs(base) * 100.0;
        println!(
            "  {disks:>2} disks: savings {sav:5.1}%, mean {:.2} ms",
            r.mean_response_ms()
        );
        rows.push(format!("{disks},{sav:.2},{:.3}", r.mean_response_ms()));
    }
    ctx.write_csv("f9_array_size.csv", "disks,savings_pct,mean_ms", &rows);
}

/// F10 — disks per speed tier over time (Cello): diurnal adaptation.
pub fn f10(ctx: &Ctx) {
    println!("\n== F10: disks per tier over time (Cello, Hibernator) ==");
    ctx.prefetch(&[(PolicyKind::Hibernator, Workload::Cello)]);
    let r = ctx.report(PolicyKind::Hibernator, Workload::Cello);
    let levels = r.level_series.len() - 2;
    let mut rows = Vec::new();
    for (li, series) in r.level_series.iter().enumerate() {
        let label = if li < levels {
            format!("L{li}")
        } else if li == levels {
            "standby".to_string()
        } else {
            "ramping".to_string()
        };
        for (t, v) in series.mean_points() {
            rows.push(format!("{label},{t:.0},{v:.2}"));
        }
    }
    // A compact stdout view: tier counts at a few instants.
    let sample_ts: Vec<f64> = r.level_series[0]
        .mean_points()
        .iter()
        .map(|p| p.0)
        .collect();
    for probe in sample_ts.iter().step_by((sample_ts.len() / 8).max(1)) {
        let mut line = format!("  t={probe:>7.0}s ");
        for (li, series) in r.level_series.iter().enumerate().take(levels) {
            let v = series
                .mean_points()
                .iter()
                .find(|(t, _)| t == probe)
                .map(|(_, v)| *v)
                .unwrap_or(0.0);
            line.push_str(&format!(" L{li}:{v:.0}"));
        }
        println!("{line}");
    }
    ctx.write_csv("f10_tier_adaptation.csv", "tier,t_s,disks", &rows);
}

/// F11 (extension) — the standby option on the diurnal workload: plain
/// Hibernator vs Hibernator+standby vs the TPM bound.
pub fn f11(ctx: &Ctx) {
    println!("\n== F11 (extension): standby option (Cello) ==");
    ctx.prefetch(&[
        (PolicyKind::Base, Workload::Cello),
        (PolicyKind::Hibernator, Workload::Cello),
    ]);
    let base = ctx.report(PolicyKind::Base, Workload::Cello);
    let goal = ctx.goal_s(Workload::Cello);
    let trace = ctx.trace(Workload::Cello);
    let mut rows = Vec::new();
    let plain = ctx.report(PolicyKind::Hibernator, Workload::Cello);
    let hib = Hibernator::new(ctx.hibernator_config(goal)).with_standby();
    let label = "f11 Hib+standby/Cello";
    let (standby, _) = ctx.run(label, goal, ctx.warmup_s(), ctx.run_options(), |o| {
        simulate(ctx.array_config(Workload::Cello), hib, &trace, o)
    });
    for (name, r) in [("Hibernator", &*plain), ("Hib+standby", &standby)] {
        let sav = r.savings_vs(&base) * 100.0;
        let viol = violation_fraction(&r.response_series, goal, ctx.warmup_s()) * 100.0;
        println!(
            "  {name:>12}: savings {sav:5.1}%, mean {:.2} ms, violations {viol:.1}%, standby {:.0} kJ",
            r.mean_response_ms(),
            r.energy.joules(simkit::EnergyComponent::Standby) / 1e3
        );
        rows.push(format!(
            "{name},{sav:.2},{:.3},{viol:.2}",
            r.mean_response_ms()
        ));
    }
    ctx.write_csv(
        "f11_standby_extension.csv",
        "variant,savings_pct,mean_ms,violation_pct",
        &rows,
    );
}

/// F12 (validation) — M/G/1 predictor accuracy: fixed-level arrays under
/// increasing load, predicted vs measured mean response.
pub fn f12(ctx: &Ctx) {
    println!("\n== F12 (validation): M/G/1 predictor vs measurement ==");
    use diskmodel::SpeedLevel;
    use hibernator::mg1_response;
    use policies::FixedSpeed;
    let grid: Vec<(usize, f64)> = [0usize, 3, 5]
        .iter()
        .flat_map(|&level| [0.5, 1.0, 2.0].map(|load| (level, load)))
        .collect();
    let runs: Vec<RunReport> = ctx.pool().map(
        grid.iter()
            .map(|&(level, load)| {
                move || {
                    let trace = ctx.trace_with_load(Workload::Oltp, load);
                    let config = ctx.array_config(Workload::Oltp);
                    let label = format!("f12 L{level} load {load:.1}x/OLTP");
                    ctx.run(&label, f64::MAX, ctx.warmup_s(), ctx.run_options(), |o| {
                        simulate(config, FixedSpeed::new(SpeedLevel(level)), &trace, o)
                    })
                    .0
                }
            })
            .collect::<Vec<_>>(),
    );
    let mut rows = Vec::new();
    for (&(level, load), r) in grid.iter().zip(&runs) {
        let disks = ctx.disks() as f64;
        // Per-disk arrival rate of *disk-level* requests.
        let lambda = r.service.count() as f64 / ctx.duration_s() / disks;
        let es = r.service.mean();
        let es2 = r.service.raw_second_moment();
        let predicted = mg1_response(lambda, es, es2);
        // Skip the first bucket: it contains the initial spindle ramp.
        let steady: Vec<f64> = r
            .response_series
            .mean_points()
            .into_iter()
            .skip(1)
            .map(|(_, v)| v)
            .collect();
        let measured = steady.iter().sum::<f64>() / steady.len().max(1) as f64;
        let err = (measured - predicted) / predicted * 100.0;
        println!(
            "  L{level} load {load:.1}x: rho {:.2}  predicted {:6.2} ms  measured {:6.2} ms  ({err:+.1}%)",
            lambda * es,
            predicted * 1e3,
            measured * 1e3,
        );
        rows.push(format!(
            "{level},{load},{:.4},{:.4},{:.4},{err:.2}",
            lambda * es,
            predicted * 1e3,
            measured * 1e3
        ));
    }
    ctx.write_csv(
        "f12_model_validation.csv",
        "level,load,rho,predicted_ms,measured_ms,error_pct",
        &rows,
    );
}

/// Runs every figure, prefetching the standard-scenario union first so the
/// pool sees the whole grid at once.
pub fn all(ctx: &Ctx) {
    let mut pairs: Vec<(PolicyKind, Workload)> =
        PolicyKind::HEADLINE.map(|p| (p, Workload::Oltp)).to_vec();
    pairs.extend([
        (PolicyKind::HibernatorNoMig, Workload::Oltp),
        (PolicyKind::HibernatorRandMig, Workload::Oltp),
        (PolicyKind::Base, Workload::Cello),
        (PolicyKind::Hibernator, Workload::Cello),
        (PolicyKind::HibernatorNoGuard, Workload::Cello),
    ]);
    ctx.prefetch(&pairs);
    f1(ctx);
    f2(ctx);
    f3(ctx);
    f4(ctx);
    f5(ctx);
    f6(ctx);
    f7(ctx);
    f8(ctx);
    f9(ctx);
    f10(ctx);
    f11(ctx);
    f12(ctx);
}
