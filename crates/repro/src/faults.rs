//! The fault-storm experiment: every headline policy rides out the same
//! scripted failure sequence (see DESIGN.md §4.8).
//!
//! The storm is *identical* across policies — same two whole-disk failures
//! at the same instants, with the same transient-error and sticky-spindle
//! precursors — so the comparison isolates how each policy copes: how much
//! foreground traffic it loses, how fast the rebuild completes, and what
//! the degraded interval does to response times. Hibernator's performance
//! guard treats a failure as an immediate boost trigger; the run prints its
//! boost counter to show that happening.

use crate::common::{row, simulate, violation_fraction, Ctx, PolicyKind, Workload};
use array::{Redundancy, RunReport};
use faults::{FaultConfig, FaultEvent, FaultKind, FaultPlan, FaultSchedule};
use hibernator::Hibernator;
use simkit::SimTime;
use workload::TraceCursor;

/// The scripted storm for a run of `horizon_s` seconds: disk 3 dies at 30%
/// of the horizon (after a transient burst and a sticky-spindle window),
/// disk 9 dies at 55% (after a burst), and a surviving disk suffers a late
/// burst that only the retry machinery sees.
pub(crate) fn storm(horizon_s: f64) -> FaultSchedule {
    let at = |f: f64| SimTime::from_secs(horizon_s * f);
    FaultSchedule::new(vec![
        FaultEvent {
            time: at(0.27),
            disk: 3,
            kind: FaultKind::TransientBurst {
                error_prob: 0.2,
                duration_s: horizon_s * 0.03,
            },
        },
        FaultEvent {
            time: at(0.25),
            disk: 3,
            kind: FaultKind::SlowTransition {
                factor: 3.0,
                duration_s: horizon_s * 0.05,
            },
        },
        FaultEvent {
            time: at(0.30),
            disk: 3,
            kind: FaultKind::DiskFailure,
        },
        FaultEvent {
            time: at(0.52),
            disk: 9,
            kind: FaultKind::TransientBurst {
                error_prob: 0.15,
                duration_s: horizon_s * 0.03,
            },
        },
        FaultEvent {
            time: at(0.55),
            disk: 9,
            kind: FaultKind::DiskFailure,
        },
        FaultEvent {
            time: at(0.70),
            disk: 5,
            kind: FaultKind::TransientBurst {
                error_prob: 0.1,
                duration_s: horizon_s * 0.02,
            },
        },
    ])
}

/// The faults experiment: headline policies under the identical storm.
pub fn faults(ctx: &Ctx) {
    println!("\n== FAULTS: headline policies under an identical fault storm ==");
    let horizon_s = ctx.duration_s();
    let plan = FaultPlan {
        schedule: storm(horizon_s),
        config: FaultConfig::default(),
    };
    let mut config = ctx.array_config(Workload::Oltp);
    config.redundancy = Redundancy::Raid5Like;
    let trace = ctx.trace(Workload::Oltp);
    let opts = {
        let mut o = ctx.run_options();
        o.faults = Some(plan.clone());
        o
    };

    // Goal calibration: the unmanaged array under the same storm. Using the
    // faulted Base keeps "goal = factor × unmanaged mean" meaningful in the
    // degraded regime every policy shares. Stage 1 of the schedule: every
    // managed run below needs this goal.
    let base = ctx.run("faults/Base", f64::MAX, 600.0, opts.clone(), |o| {
        let source = TraceCursor::new(&trace);
        ctx.run_kind(PolicyKind::Base, config.clone(), source, o, f64::MAX)
    });
    let goal = base.response.mean() * ctx.goal_factor();
    println!(
        "storm: disk 3 dies at {:.0} s, disk 9 at {:.0} s ({} scripted events); goal {:.2} ms",
        horizon_s * 0.30,
        horizon_s * 0.55,
        plan.schedule.len(),
        goal * 1e3,
    );

    let widths = [11, 11, 9, 7, 7, 6, 10, 8, 10];
    println!(
        "{}",
        row(
            &[
                "policy",
                "energy(kJ)",
                "mean(ms)",
                "viol%",
                "trans",
                "lost",
                "redirects",
                "rebuilt",
                "rebuild(s)"
            ]
            .map(String::from),
            &widths
        )
    );
    // Stage 2: every managed policy rides the storm concurrently. Each job
    // returns its report plus the Hibernator boost counter (zero for the
    // rest); results come back in headline order regardless of finish
    // order, so the table and CSV are deterministic.
    let managed: Vec<PolicyKind> = PolicyKind::HEADLINE
        .into_iter()
        .filter(|&p| p != PolicyKind::Base)
        .collect();
    let storm_runs: Vec<(RunReport, u64)> = ctx.pool().map(
        managed
            .iter()
            .map(|&p| {
                let (config, trace, opts) = (&config, &trace, &opts);
                move || {
                    let label = format!("faults/{}", p.label());
                    let opts = opts.clone();
                    if p == PolicyKind::Hibernator {
                        let hib = Hibernator::new(ctx.hibernator_config(goal));
                        let (r, hib) = ctx.run(&label, goal, 600.0, opts, |o| {
                            simulate(config.clone(), hib, trace, o)
                        });
                        (r, hib.stats().boosts)
                    } else {
                        let r = ctx.run(&label, goal, 600.0, opts, |o| {
                            ctx.run_kind(p, config.clone(), TraceCursor::new(trace), o, goal)
                        });
                        (r, 0)
                    }
                }
            })
            .collect::<Vec<_>>(),
    );
    let mut rows = Vec::new();
    let mut hib_boosts = 0u64;
    for p in PolicyKind::HEADLINE {
        let owned: Option<&RunReport> = match p {
            PolicyKind::Base => None, // already ran for calibration
            _ => {
                let i = managed.iter().position(|&m| m == p).expect("managed run");
                if p == PolicyKind::Hibernator {
                    hib_boosts = storm_runs[i].1;
                }
                Some(&storm_runs[i].0)
            }
        };
        let report = owned.unwrap_or(&base);
        let f = &report.faults;
        let cells = [
            p.label().to_string(),
            format!("{:.0}", report.energy.total_joules() / 1e3),
            format!("{:.2}", report.response.mean() * 1e3),
            format!(
                "{:.1}",
                violation_fraction(&report.response_series, goal, 600.0) * 100.0
            ),
            format!("{}", report.transitions),
            format!("{}", f.lost_requests),
            format!("{}", f.degraded_redirects),
            format!("{}", f.rebuild_chunks),
            match f.rebuild_completed_s {
                Some(t) => format!("{t:.0}"),
                None => "-".to_string(),
            },
        ];
        println!("{}", row(&cells, &widths));
        rows.push(cells.join(","));
    }
    println!(
        "Hibernator guard: {hib_boosts} boost(s) — failures force an immediate boost + re-plan"
    );
    ctx.write_csv(
        "faults_storm.csv",
        "policy,energy_kj,mean_ms,violation_pct,transitions,lost,redirects,rebuilt_chunks,rebuild_completed_s",
        &rows,
    );
}
