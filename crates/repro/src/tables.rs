//! Table experiments T1–T5 (see DESIGN.md §6 for the experiment index).

use crate::common::{row, violation_fraction, Ctx, PolicyKind, Workload};
use diskmodel::{DiskSpec, PowerModel, ServiceModel, SpeedLevel};
use simkit::EnergyComponent;
use workload::TraceStats;

/// T1 — the multi-speed disk model parameter table.
pub fn t1(ctx: &Ctx) {
    println!("\n== T1: multi-speed disk model (Ultrastar-36Z15-derived) ==");
    let spec = DiskSpec::ultrastar_multispeed(6);
    let pm = PowerModel::new(&spec);
    let sm = ServiceModel::new(&spec);
    println!(
        "capacity {:.1} GB, {} cylinders x {} surfaces, {} zones, avg seek {:.2} ms",
        spec.capacity_bytes() as f64 / 1e9,
        spec.cylinders,
        spec.surfaces,
        spec.zones,
        sm.seek_model().average_seek_time() * 1e3,
    );
    let widths = [6, 8, 9, 9, 11, 13, 13];
    println!(
        "{}",
        row(
            &[
                "level",
                "RPM",
                "idle(W)",
                "xfer(W)",
                "E[S](ms)",
                "ramp-up(s)",
                "ramp-dn(s)"
            ]
            .map(String::from),
            &widths
        )
    );
    let mut rows = Vec::new();
    for l in spec.levels() {
        let up = pm.level_transition(SpeedLevel(0), l);
        let dn = pm.level_transition(spec.top_level(), l);
        let es = sm.expected_random_service_s(l, 16) * 1e3;
        let cells = [
            format!("{}", l.index()),
            format!("{:.0}", spec.rpm(l)),
            format!("{:.2}", pm.idle_w(l)),
            format!("{:.2}", pm.transfer_w(l)),
            format!("{es:.2}"),
            format!("{:.2}", up.duration_s),
            format!("{:.2}", dn.duration_s),
        ];
        println!("{}", row(&cells, &widths));
        rows.push(cells.join(","));
    }
    println!(
        "standby {:.2} W; spin-up 0->top {:.1} s @ {:.0} W; breakeven(standby) {:.0} s",
        pm.standby_w(),
        pm.spinup_from_standby(spec.top_level()).duration_s,
        spec.power_spinup_w,
        pm.breakeven_standby_s(spec.top_level()),
    );
    ctx.write_csv(
        "t1_disk_model.csv",
        "level,rpm,idle_w,xfer_w,es_ms,ramp_up_s,ramp_dn_s",
        &rows,
    );
}

/// T2 — workload characteristics.
pub fn t2(ctx: &Ctx) {
    println!("\n== T2: workload characteristics ==");
    // Generate both traces concurrently (single-flight keeps them shared
    // with every later run that needs them).
    ctx.pool().map(
        [Workload::Oltp, Workload::Cello]
            .iter()
            .map(|&w| {
                move || {
                    ctx.trace(w);
                }
            })
            .collect::<Vec<_>>(),
    );
    let widths = [7, 10, 10, 8, 10, 11, 11, 9, 10];
    println!(
        "{}",
        row(
            &[
                "trace",
                "requests",
                "rate(/s)",
                "read%",
                "size(KiB)",
                "fp(MiB)",
                "top10%shr",
                "re-ref%",
                "peak/mean"
            ]
            .map(String::from),
            &widths
        )
    );
    let mut rows = Vec::new();
    for w in [Workload::Oltp, Workload::Cello] {
        let trace = ctx.trace(w);
        let s = TraceStats::compute(&trace).expect("non-empty trace");
        let cells = [
            w.label().to_string(),
            format!("{}", s.requests),
            format!("{:.1}", s.mean_rate),
            format!("{:.1}", s.read_fraction * 100.0),
            format!("{:.1}", s.mean_size_kib),
            format!("{}", s.footprint_mib),
            format!("{:.2}", s.top_decile_share),
            format!("{:.1}", s.re_reference_share * 100.0),
            format!("{:.2}", s.peak_to_mean),
        ];
        println!("{}", row(&cells, &widths));
        rows.push(cells.join(","));
    }
    ctx.write_csv(
        "t2_workloads.csv",
        "trace,requests,rate,read_pct,size_kib,footprint_mib,top_decile_share,re_reference_share,peak_to_mean",
        &rows,
    );
}

/// T3 — the headline energy table: kJ and savings vs Base, per policy and
/// workload.
pub fn t3(ctx: &Ctx) {
    println!("\n== T3: energy consumption and savings ==");
    let widths = [13, 12, 12, 12, 12];
    println!(
        "{}",
        row(
            &["policy", "OLTP(kJ)", "OLTP sav%", "Cello(kJ)", "Cello sav%"].map(String::from),
            &widths
        )
    );
    let mut rows = Vec::new();
    let mut listed: Vec<PolicyKind> = PolicyKind::HEADLINE.to_vec();
    listed.push(PolicyKind::FixedSlow); // the always-slow energy bracket
    let pairs: Vec<(PolicyKind, Workload)> = listed
        .iter()
        .flat_map(|&p| [(p, Workload::Oltp), (p, Workload::Cello)])
        .collect();
    ctx.prefetch(&pairs);
    let base_o = ctx.report(PolicyKind::Base, Workload::Oltp);
    let base_c = ctx.report(PolicyKind::Base, Workload::Cello);
    for p in listed {
        let ro = ctx.report(p, Workload::Oltp);
        let rc = ctx.report(p, Workload::Cello);
        let cells = [
            p.label().to_string(),
            format!("{:.0}", ro.energy_kj()),
            format!("{:.1}", ro.savings_vs(&base_o) * 100.0),
            format!("{:.0}", rc.energy_kj()),
            format!("{:.1}", rc.savings_vs(&base_c) * 100.0),
        ];
        println!("{}", row(&cells, &widths));
        rows.push(cells.join(","));
    }
    ctx.write_csv(
        "t3_energy.csv",
        "policy,oltp_kj,oltp_savings_pct,cello_kj,cello_savings_pct",
        &rows,
    );
}

/// T4 — response time and goal compliance per policy and workload.
pub fn t4(ctx: &Ctx) {
    println!("\n== T4: response time vs goal ==");
    let warmup = ctx.warmup_s();
    let widths = [13, 11, 11, 11, 11, 11, 11];
    println!(
        "{}",
        row(
            &[
                "policy",
                "O mean(ms)",
                "O p95(ms)",
                "O viol%",
                "C mean(ms)",
                "C p95(ms)",
                "C viol%"
            ]
            .map(String::from),
            &widths
        )
    );
    let mut rows = Vec::new();
    let pairs: Vec<(PolicyKind, Workload)> = PolicyKind::HEADLINE
        .iter()
        .flat_map(|&p| [(p, Workload::Oltp), (p, Workload::Cello)])
        .collect();
    ctx.prefetch(&pairs);
    for p in PolicyKind::HEADLINE {
        let ro = ctx.report(p, Workload::Oltp);
        let rc = ctx.report(p, Workload::Cello);
        let go = ctx.goal_s(Workload::Oltp);
        let gc = ctx.goal_s(Workload::Cello);
        let cells = [
            p.label().to_string(),
            format!("{:.2}", ro.mean_response_ms()),
            format!(
                "{:.2}",
                ro.response_hist.quantile(0.95).unwrap_or(0.0) * 1e3
            ),
            format!(
                "{:.1}",
                violation_fraction(&ro.response_series, go, warmup) * 100.0
            ),
            format!("{:.2}", rc.mean_response_ms()),
            format!(
                "{:.2}",
                rc.response_hist.quantile(0.95).unwrap_or(0.0) * 1e3
            ),
            format!(
                "{:.1}",
                violation_fraction(&rc.response_series, gc, warmup) * 100.0
            ),
        ];
        println!("{}", row(&cells, &widths));
        rows.push(cells.join(","));
    }
    println!(
        "goals: OLTP {:.2} ms, Cello {:.2} ms ({}x Base mean)",
        ctx.goal_s(Workload::Oltp) * 1e3,
        ctx.goal_s(Workload::Cello) * 1e3,
        ctx.goal_factor()
    );
    ctx.write_csv(
        "t4_response.csv",
        "policy,oltp_mean_ms,oltp_p95_ms,oltp_violation_pct,cello_mean_ms,cello_p95_ms,cello_violation_pct",
        &rows,
    );
}

/// T6 — redundancy sensitivity: the headline pair (Base vs Hibernator)
/// under RAID-5-like parity writes, vs plain striping.
pub fn t6(ctx: &Ctx) {
    println!("\n== T6: redundancy mode (OLTP, Base vs Hibernator) ==");
    let modes = [
        ("striped", array::Redundancy::None),
        ("raid5", array::Redundancy::Raid5Like),
    ];
    let runs = ctx.calibrated_sweep("t6", &modes, |&(label, redundancy)| {
        let mut config = ctx.array_config(Workload::Oltp);
        config.redundancy = redundancy;
        (format!("{label}/OLTP"), config, ctx.trace(Workload::Oltp))
    });
    let mut rows = Vec::new();
    for ((label, _), (base, hib, goal)) in modes.iter().zip(&runs) {
        let sav = hib.savings_vs(base) * 100.0;
        println!(
            "  {label:>8}: base {:6.0} kJ, hib {:6.0} kJ ({sav:5.1}% saved), \
             base mean {:.2} ms, hib mean {:.2} ms (goal {:.2} ms)",
            base.energy_kj(),
            hib.energy_kj(),
            base.mean_response_ms(),
            hib.mean_response_ms(),
            goal * 1e3,
        );
        rows.push(format!(
            "{label},{:.1},{:.1},{sav:.2},{:.3},{:.3},{:.3}",
            base.energy_kj(),
            hib.energy_kj(),
            base.mean_response_ms(),
            hib.mean_response_ms(),
            goal * 1e3
        ));
    }
    ctx.write_csv(
        "t6_redundancy.csv",
        "mode,base_kj,hib_kj,savings_pct,base_mean_ms,hib_mean_ms,goal_ms",
        &rows,
    );
}

/// T5 — where the energy went: per-component breakdown (OLTP).
pub fn t5(ctx: &Ctx) {
    println!("\n== T5: energy breakdown by component, OLTP (kJ) ==");
    let widths = [13, 10, 9, 10, 11, 9, 10];
    println!(
        "{}",
        row(
            &[
                "policy",
                "idle",
                "seek",
                "transfer",
                "transition",
                "standby",
                "migration"
            ]
            .map(String::from),
            &widths
        )
    );
    let mut rows = Vec::new();
    ctx.prefetch(&PolicyKind::HEADLINE.map(|p| (p, Workload::Oltp)));
    for p in PolicyKind::HEADLINE {
        let r = ctx.report(p, Workload::Oltp);
        let kj = |c: EnergyComponent| r.energy.joules(c) / 1e3;
        let cells = [
            p.label().to_string(),
            format!("{:.0}", kj(EnergyComponent::IdleSpin)),
            format!("{:.1}", kj(EnergyComponent::Seek)),
            format!("{:.1}", kj(EnergyComponent::Transfer)),
            format!("{:.1}", kj(EnergyComponent::Transition)),
            format!("{:.1}", kj(EnergyComponent::Standby)),
            format!("{:.1}", kj(EnergyComponent::Migration)),
        ];
        println!("{}", row(&cells, &widths));
        rows.push(cells.join(","));
    }
    ctx.write_csv(
        "t5_breakdown.csv",
        "policy,idle_kj,seek_kj,transfer_kj,transition_kj,standby_kj,migration_kj",
        &rows,
    );
}
