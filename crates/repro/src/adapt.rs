//! The adaptation race (see DESIGN.md §17).
//!
//! At the midpoint of an OLTP run the workload's popularity ordering
//! flips ([`Scenario::PopularityFlip`]): every hot extent goes cold and
//! vice versa, invalidating whatever data placement the policy has
//! learned. The four Hibernator-hosted migration policies
//! ([`PolicyKind::ADAPTIVE`]) then race to re-learn the layout. Two
//! numbers summarise each contender:
//!
//! * **readapt(s)** — how long after the flip the windowed mean response
//!   stays above the goal: the end of the *last* post-flip bucket in
//!   violation, minus the flip time. Zero means the flip never pushed
//!   the policy over its goal.
//! * **energy(kJ)** — total energy over the whole run, pricing the
//!   migration traffic the re-adaptation itself costs.
//!
//! Like every experiment the race is streamed (O(1) trace memory) and
//! seed-deterministic, so `adapt_race.csv` is byte-identical at any
//! `--jobs` count (locked down by `tests/adapt_invariance.rs`).

use crate::common::{row, violation_fraction, Ctx, PolicyKind, Workload};
use array::RunReport;
use simkit::TimeSeries;
use workload::Scenario;

/// Deterministic run label for one contender.
pub(crate) fn label(policy: PolicyKind) -> String {
    format!("adapt/pop_flip/{}", policy.label())
}

/// Seconds from `flip_s` to the end of the last response bucket whose
/// mean violates `goal_s`, considering only buckets that start at or
/// after the flip. Zero when no post-flip bucket violates.
pub(crate) fn readapt_seconds(series: &TimeSeries, goal_s: f64, flip_s: f64) -> f64 {
    let w = series.bucket_width().as_secs();
    let mut last_end = None;
    for i in 0..series.len() {
        let start = i as f64 * w;
        if start < flip_s {
            continue;
        }
        if let Some(b) = series.bucket(i) {
            if b.mean().is_some_and(|m| m > goal_s) {
                last_end = Some(start + w);
            }
        }
    }
    last_end.map_or(0.0, |end| end - flip_s)
}

/// The adaptation-race experiment.
pub fn adapt(ctx: &Ctx) {
    println!("\n== ADAPT: mid-run popularity flip x adaptive migration policies (OLTP base) ==");
    let spec = ctx.workload_spec(Workload::Oltp, 1.0);
    let config = ctx.array_config(Workload::Oltp);
    let flip_s = ctx.duration_s() * 0.5;
    let sc = Scenario::PopularityFlip { at_s: flip_s };

    // Stage 1: one unmanaged Base run over the flipped trace calibrates
    // the response-time goal the contenders must re-attain.
    let name = label(PolicyKind::Base);
    let base = ctx.run(&name, f64::MAX, ctx.warmup_s(), ctx.run_options(), |o| {
        let source = sc.apply(&spec, ctx.seed);
        ctx.run_kind(PolicyKind::Base, config.clone(), source, o, f64::MAX)
    });
    let goal = base.response.mean() * ctx.goal_factor();

    // Stage 2: the four adaptive contenders race over the same trace.
    let runs: Vec<RunReport> = ctx.pool().map(
        PolicyKind::ADAPTIVE
            .iter()
            .map(|&p| {
                let (spec, config, sc) = (&spec, &config, &sc);
                move || {
                    let name = label(p);
                    ctx.run(&name, goal, ctx.warmup_s(), ctx.run_options(), |o| {
                        ctx.run_kind(p, config.clone(), sc.apply(spec, ctx.seed), o, goal)
                    })
                }
            })
            .collect::<Vec<_>>(),
    );

    // Rank by time-to-readapt, then by energy — the race's finish order.
    let mut order: Vec<usize> = (0..runs.len()).collect();
    let score = |r: &RunReport| {
        (
            readapt_seconds(&r.response_series, goal, flip_s),
            r.energy.total_joules(),
        )
    };
    order.sort_by(|&a, &b| {
        let (ra, ea) = score(&runs[a]);
        let (rb, eb) = score(&runs[b]);
        ra.total_cmp(&rb).then(ea.total_cmp(&eb)).then(a.cmp(&b))
    });

    let widths = [12, 8, 11, 9, 10, 9, 9];
    println!(
        "{}",
        row(
            &[
                "policy",
                "goal(ms)",
                "energy(kJ)",
                "mean(ms)",
                "readapt(s)",
                "pf-viol%",
                "completed"
            ]
            .map(String::from),
            &widths
        )
    );
    let mut rows = Vec::new();
    for &i in &order {
        let p = PolicyKind::ADAPTIVE[i];
        let r = &runs[i];
        let (readapt, _) = score(r);
        let cells = [
            p.label().to_string(),
            format!("{:.2}", goal * 1e3),
            format!("{:.0}", r.energy.total_joules() / 1e3),
            format!("{:.2}", r.response.mean() * 1e3),
            format!("{readapt:.0}"),
            format!(
                "{:.1}",
                violation_fraction(&r.response_series, goal, flip_s) * 100.0
            ),
            format!("{}", r.completed),
        ];
        println!("{}", row(&cells, &widths));
        rows.push(format!(
            "{},{},{},{},{},{},{},{}",
            p.label(),
            cells[1],
            cells[2],
            cells[3],
            cells[4],
            cells[5],
            r.completed,
            r.incomplete,
        ));
    }
    ctx.write_csv(
        "adapt_race.csv",
        "policy,goal_ms,energy_kj,mean_ms,readapt_s,postflip_viol_pct,completed,incomplete",
        &rows,
    );
    println!(
        "flip at {:.0} s; winner: {}",
        flip_s,
        PolicyKind::ADAPTIVE[order[0]].label()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::{SimDuration, SimTime};

    fn series(bucket_s: f64, means: &[f64]) -> TimeSeries {
        let mut s = TimeSeries::new(SimDuration::from_secs(bucket_s));
        for (i, &m) in means.iter().enumerate() {
            s.record(SimTime::from_secs((i as f64 + 0.5) * bucket_s), m);
        }
        s
    }

    #[test]
    fn readapt_measures_to_last_violating_bucket_end() {
        // flip at 200 s; buckets of 100 s; violations at buckets 2 and 3.
        let s = series(100.0, &[9.0, 9.0, 9.0, 9.0, 1.0, 1.0]);
        assert_eq!(readapt_seconds(&s, 5.0, 200.0), 200.0);
    }

    #[test]
    fn clean_recovery_reads_zero() {
        let s = series(100.0, &[9.0, 9.0, 1.0, 1.0]);
        assert_eq!(readapt_seconds(&s, 5.0, 200.0), 0.0);
        // Pre-flip violations never count.
        assert_eq!(readapt_seconds(&s, 0.5, 400.0), 0.0);
    }

    #[test]
    fn empty_buckets_are_ignored() {
        let mut s = TimeSeries::new(SimDuration::from_secs(100.0));
        s.record(SimTime::from_secs(50.0), 9.0);
        s.record(SimTime::from_secs(450.0), 9.0);
        assert_eq!(readapt_seconds(&s, 5.0, 100.0), 400.0);
    }
}
