//! The controller-cache sensitivity sweep (see DESIGN.md §12).
//!
//! Hibernator rides the OLTP trace with the controller DRAM cache swept
//! over capacity × write-back interval, plus one cache-off point as the
//! anchor: the anchor row must match the plain Hibernator run exactly.
//! The interesting tension is visible in the two extremes: a large cache
//! with a long flush interval absorbs the most foreground traffic (best
//! response times, fewest disk wakes), but every flush then lands as a
//! bigger batch of deferred writes that can yank sleeping disks out of
//! standby at once.

use crate::common::{row, violation_fraction, Ctx, PolicyKind, Workload};
use array::RunReport;
use workload::{TraceCursor, TraceStats};

/// The swept grid: the cache-off anchor plus capacity × flush interval.
/// Chunks are 1 MiB at the standard scale, so the capacities are 1, 4,
/// and 16 GiB of controller DRAM.
pub(crate) fn grid() -> Vec<(u32, f64)> {
    let mut g = vec![(0u32, 0.0f64)];
    for cap in [1024u32, 4096, 16384] {
        for interval in [10.0f64, 60.0, 300.0] {
            g.push((cap, interval));
        }
    }
    g
}

/// Deterministic run label for a grid point; zero-padded so the sorted
/// stream order matches the grid order.
pub(crate) fn label(capacity: u32, interval_s: f64) -> String {
    format!("cache/c{capacity:05}_f{interval_s:03.0}")
}

/// The cache sweep experiment.
pub fn cachesweep(ctx: &Ctx) {
    println!("\n== CACHE: controller DRAM cache sensitivity (Hibernator/OLTP) ==");
    let config = ctx.array_config(Workload::Oltp);
    let trace = ctx.trace(Workload::Oltp);
    let stats = TraceStats::compute(&trace).expect("non-empty trace");
    println!(
        "trace re-reference share {:.1}% — the hit-rate ceiling of any chunk-granular cache",
        stats.re_reference_share * 100.0
    );

    // Stage 1: the unmanaged Base run calibrates the response-time goal,
    // exactly as the standard tables do.
    let goal = ctx.goal_s(Workload::Oltp);
    println!("goal {:.2} ms (1.3 x Base mean)", goal * 1e3);

    // Stage 2: the full grid fans out across the pool. Each point is an
    // independent seeded simulation; results come back in grid order
    // regardless of finish order, so the table and CSV are deterministic.
    let points = grid();
    let runs: Vec<RunReport> = ctx.pool().map(
        points
            .iter()
            .map(|&(cap, interval)| {
                let (config, trace) = (&config, &trace);
                move || {
                    let name = label(cap, interval);
                    let mut opts = ctx.run_options();
                    if cap > 0 {
                        let mut c = cache::CacheConfig::with_capacity(cap);
                        c.flush_interval_s = interval;
                        opts.cache = Some(c);
                    }
                    ctx.run(&name, goal, ctx.warmup_s(), opts, |o| {
                        let source = TraceCursor::new(trace);
                        ctx.run_kind(PolicyKind::Hibernator, config.clone(), source, o, goal)
                    })
                }
            })
            .collect::<Vec<_>>(),
    );

    let widths = [10, 11, 11, 9, 7, 7, 9, 9, 8];
    println!(
        "{}",
        row(
            &[
                "cap(chunk)",
                "flush(s)",
                "energy(kJ)",
                "mean(ms)",
                "viol%",
                "hit%",
                "absorbs",
                "wbacks",
                "flushes"
            ]
            .map(String::from),
            &widths
        )
    );
    let mut rows = Vec::new();
    for (&(cap, interval), report) in points.iter().zip(&runs) {
        let cs = report.cache.unwrap_or_default();
        let cells = [
            format!("{cap}"),
            if cap == 0 {
                "-".to_string()
            } else {
                format!("{interval:.0}")
            },
            format!("{:.0}", report.energy.total_joules() / 1e3),
            format!("{:.2}", report.response.mean() * 1e3),
            format!(
                "{:.1}",
                violation_fraction(&report.response_series, goal, ctx.warmup_s()) * 100.0
            ),
            format!("{:.1}", cs.read_hit_rate() * 100.0),
            format!("{}", cs.write_absorbs),
            format!("{}", cs.writebacks),
            format!("{}", cs.flushes),
        ];
        println!("{}", row(&cells, &widths));
        rows.push(format!(
            "{cap},{interval},{},{},{},{},{},{},{},{}",
            cells[2],
            cells[3],
            cells[4],
            cells[5],
            cs.read_hits,
            cs.write_absorbs,
            cs.writebacks,
            cs.flushes,
        ));
    }
    ctx.write_csv(
        "cache_sweep.csv",
        "capacity_chunks,flush_interval_s,energy_kj,mean_ms,violation_pct,hit_pct,read_hits,write_absorbs,writebacks,flushes",
        &rows,
    );

    // The anchor row must agree with a plain (cache-less) Hibernator run:
    // cache off is the pre-cache simulator, bit for bit.
    let anchor = &runs[0];
    let plain = ctx.report(PolicyKind::Hibernator, Workload::Oltp);
    assert_eq!(
        anchor.energy.total_joules(),
        plain.energy.total_joules(),
        "cache-off sweep point diverged from the plain Hibernator run"
    );
    println!("anchor check: cache-off point matches the plain Hibernator run exactly");
}
