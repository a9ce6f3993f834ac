//! The adversarial scenario sweep (see DESIGN.md §15).
//!
//! Each scenario of [`Scenario::standard_suite`] — flash crowd, mid-run
//! popularity flip, write flood, scan poison — plus the unmodified
//! baseline is streamed into every headline policy. The sweep never
//! materialises a trace: every grid point regenerates its request
//! sequence lazily through [`Scenario::apply`] / [`WorkloadSpec::stream`],
//! so the grid costs O(1) trace memory per in-flight run.
//!
//! Goals are calibrated *per scenario* (1.3 × that scenario's Base mean
//! response): an adversarial load makes even the unmanaged array slower,
//! and holding policies to the clean-trace goal would conflate "energy
//! policy degraded under attack" with "the attack itself is slow".
//!
//! The baseline/Base grid point doubles as the harness-level streaming
//! anchor: it must match the standard materialised OLTP Base run bit for
//! bit.

use crate::common::{row, violation_fraction, Ctx, PolicyKind, Workload};
use array::RunReport;
use workload::{Scenario, TraceSource, WorkloadSpec};

/// The scenario axis: the unmodified baseline plus the standard
/// adversarial suite. Slugs are index-prefixed so sorted run labels (and
/// therefore the telemetry stream) keep sweep order.
pub(crate) fn scenario_axis(duration_s: f64) -> Vec<(String, Option<Scenario>)> {
    let mut axis = vec![("0_baseline".to_string(), None)];
    for (i, sc) in Scenario::standard_suite(duration_s).into_iter().enumerate() {
        axis.push((format!("{}_{}", i + 1, sc.name()), Some(sc)));
    }
    axis
}

/// Deterministic run label for one (scenario, policy) grid point.
pub(crate) fn label(slug: &str, policy: PolicyKind) -> String {
    format!("scenario/{slug}/{}", policy.label())
}

/// The streaming source of one scenario over the base spec.
fn source_for(spec: &WorkloadSpec, sc: &Option<Scenario>, seed: u64) -> Box<dyn TraceSource> {
    match sc {
        None => Box::new(spec.stream(seed)),
        Some(sc) => sc.apply(spec, seed),
    }
}

/// The scenario sweep experiment.
pub fn scenarios(ctx: &Ctx) {
    println!("\n== SCENARIOS: adversarial workload suite x headline policies (OLTP base) ==");
    let spec = ctx.workload_spec(Workload::Oltp, 1.0);
    let config = ctx.array_config(Workload::Oltp);
    let axis = scenario_axis(ctx.duration_s());

    // Stage 1: one unmanaged Base run per scenario calibrates that
    // scenario's response-time goal.
    let bases: Vec<RunReport> = ctx.pool().map(
        axis.iter()
            .map(|(slug, sc)| {
                let (spec, config) = (&spec, &config);
                move || {
                    let name = label(slug, PolicyKind::Base);
                    ctx.run(&name, f64::MAX, ctx.warmup_s(), ctx.run_options(), |o| {
                        let source = source_for(spec, sc, ctx.seed);
                        ctx.run_kind(PolicyKind::Base, config.clone(), source, o, f64::MAX)
                    })
                }
            })
            .collect::<Vec<_>>(),
    );
    let goals: Vec<f64> = bases
        .iter()
        .map(|b| b.response.mean() * ctx.goal_factor())
        .collect();

    // Stage 2: the managed headline policies fan out over the grid.
    let managed: Vec<(usize, PolicyKind)> = (0..axis.len())
        .flat_map(|i| PolicyKind::HEADLINE[1..].iter().map(move |&p| (i, p)))
        .collect();
    let runs: Vec<RunReport> = ctx.pool().map(
        managed
            .iter()
            .map(|&(i, p)| {
                let (spec, config, axis, goals) = (&spec, &config, &axis, &goals);
                move || {
                    let (slug, sc) = &axis[i];
                    let name = label(slug, p);
                    ctx.run(&name, goals[i], ctx.warmup_s(), ctx.run_options(), |o| {
                        let source = source_for(spec, sc, ctx.seed);
                        ctx.run_kind(p, config.clone(), source, o, goals[i])
                    })
                }
            })
            .collect::<Vec<_>>(),
    );

    let widths = [13, 11, 8, 11, 8, 9, 7, 9];
    println!(
        "{}",
        row(
            &[
                "scenario",
                "policy",
                "goal(ms)",
                "energy(kJ)",
                "save%",
                "mean(ms)",
                "viol%",
                "completed"
            ]
            .map(String::from),
            &widths
        )
    );
    let mut rows = Vec::new();
    for (i, (slug, _)) in axis.iter().enumerate() {
        let goal = goals[i];
        let mut emit = |p: PolicyKind, r: &RunReport| {
            let save = (1.0 - r.energy.total_joules() / bases[i].energy.total_joules()) * 100.0;
            let cells = [
                slug.clone(),
                p.label().to_string(),
                format!("{:.2}", goal * 1e3),
                format!("{:.0}", r.energy.total_joules() / 1e3),
                format!("{save:.1}"),
                format!("{:.2}", r.response.mean() * 1e3),
                format!(
                    "{:.1}",
                    violation_fraction(&r.response_series, goal, ctx.warmup_s()) * 100.0
                ),
                format!("{}", r.completed),
            ];
            println!("{}", row(&cells, &widths));
            rows.push(format!(
                "{slug},{},{},{},{},{},{},{},{}",
                p.label(),
                cells[2],
                cells[3],
                cells[4],
                cells[5],
                cells[6],
                r.completed,
                r.incomplete,
            ));
        };
        emit(PolicyKind::Base, &bases[i]);
        let per = PolicyKind::HEADLINE.len() - 1;
        for (k, &p) in PolicyKind::HEADLINE[1..].iter().enumerate() {
            emit(p, &runs[i * per + k]);
        }
    }
    ctx.write_csv(
        "scenario_sweep.csv",
        "scenario,policy,goal_ms,energy_kj,savings_pct,mean_ms,violation_pct,completed,incomplete",
        &rows,
    );

    // The streaming anchor: the untouched-baseline Base point must agree
    // with the standard materialised OLTP Base run, bit for bit.
    let plain = ctx.report(PolicyKind::Base, Workload::Oltp);
    assert_eq!(
        bases[0].energy.total_joules(),
        plain.energy.total_joules(),
        "streamed baseline diverged from the materialised Base run"
    );
    assert_eq!(
        bases[0].response.mean(),
        plain.response.mean(),
        "streamed baseline response diverged from the materialised Base run"
    );
    println!("anchor check: streamed baseline matches the materialised Base run exactly");
}
