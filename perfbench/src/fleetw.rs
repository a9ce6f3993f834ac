//! `fleet256`: 256 Hibernator arrays serving 512 tenants of the OLTP trace
//! under one datacenter power budget (60 % of nominal), fleet epoch =
//! horizon / 12, stepped by 2 workers.
//!
//! The fleet barrier, shard map, arbiter and 256 per-array planners and
//! guards dominate here, while the per-request driver work is the same as
//! one OLTP run of `grid`.

use crate::common::{self, Feed, Kind, RunCheck};
use crate::json::Obj;
use crate::probe::{read, PolicySink, Probe, Spans};
use crate::{PassOut, Sim, TracedOut};
use diskmodel::PowerModel;
use fleet::{plan_placement, run_fleet, BudgetSchedule, FleetSpec};
use hibernator::Hibernator;
use simkit::{LatencyHistogram, Moments, SimDuration};
use std::time::Instant;
use workload::tenants;

/// Arrays in the fleet.
pub const ARRAYS: usize = 256;
/// Tenant shards of the shared volume.
pub const TENANTS: u32 = 512;
/// Power budget as a share of the fleet's nominal draw.
pub const BUDGET_FRAC: f64 = 0.6;
/// Worker threads of the end-to-end pass.
pub const WORKERS: usize = 2;

/// The fleet's input: seed, calibrated goal, request count.
pub struct Input {
    seed: u64,
    goal_s: f64,
    requests: u64,
}

/// Set-up: generates the OLTP trace and runs Base on it solo to calibrate
/// the goal every array's Hibernator plans for.
pub fn setup(seed: u64) -> Input {
    let spec = common::oltp();
    let trace = spec.generate(seed);
    let config = common::array_config(&spec, seed);
    let base = Kind::Base.run(
        config,
        Feed::Slice(&trace),
        common::run_options(),
        f64::MAX,
        None,
    );
    Input {
        seed,
        goal_s: base.response.mean() * common::GOAL_FACTOR,
        requests: trace.len() as u64,
    }
}

/// Provenance: fleet shape and request count.
pub fn describe(i: &Input, o: &mut Obj) {
    o.int("arrays", ARRAYS as u64);
    o.int("tenants", u64::from(TENANTS));
    o.int("workers", WORKERS as u64);
    o.int("requests", i.requests);
}

/// Every disk of every array idling at full speed, watts.
fn nominal_w(config: &array::ArrayConfig) -> f64 {
    let pm = PowerModel::new(&config.spec);
    ARRAYS as f64 * config.disks as f64 * pm.idle_w(config.spec.top_level())
}

/// What one pass counted, beyond its end-to-end outcome.
#[derive(Default)]
struct Tally {
    events: u64,
    committed: u64,
    rebuilt: u64,
    sectors_moved: u64,
    incomplete: u64,
    transitions: u64,
    service: Moments,
    epochs: u64,
    tenant_moves: u64,
    placement_s: f64,
}

/// One fleet pass: generate, run, audit. With `sink`, every array's
/// Hibernator runs inside a probe, and after the wall clock stops the
/// placement planning the driver does internally is timed on its own.
fn run(
    i: &Input,
    workers: usize,
    sink: Option<&PolicySink>,
    spans: &mut Spans,
) -> (PassOut, Tally) {
    let t0 = Instant::now();
    let spec = common::oltp();
    let trace = spans.time("generate", || spec.generate(i.seed));
    let config = common::array_config(&spec, i.seed);
    let nominal = nominal_w(&config);
    let mut fs = FleetSpec::new(
        ARRAYS,
        TENANTS,
        config,
        common::run_options(),
        BudgetSchedule::constant(nominal * BUDGET_FRAC),
    );
    fs.fleet_epoch = SimDuration::from_secs(common::HORIZON_S / 12.0);
    let pool = parallel::Pool::new(workers);
    let cfg = common::hibernator_config(i.goal_s);
    let report = spans.time("fleet", || match sink {
        None => run_fleet(&fs, &trace, &pool, |_| Hibernator::new(cfg.clone())),
        Some(s) => run_fleet(&fs, &trace, &pool, |_| {
            Probe::new(Hibernator::new(cfg.clone()), s).planner(common::hibernator_planner(&cfg))
        }),
    });
    let audit = spans.time("audit", || report.audit());
    let times = spans.close(t0);

    let mut t = Tally::default();
    let (mut over, mut kept, mut lost) = (0u64, 0u64, 0u64);
    for r in &report.arrays {
        t.events += r.events_processed;
        t.committed += r.migration.committed;
        t.rebuilt += r.migration.rebuilt;
        t.sectors_moved += r.migration.sectors_moved;
        t.incomplete += r.incomplete;
        t.transitions += r.transitions;
        t.service.merge(&r.service);
        lost += r.faults.lost_requests;
        let (o, k) = common::violation_counts(&r.response_series, i.goal_s);
        over += o;
        kept += k;
    }
    t.epochs = report.epochs.len() as u64;
    t.tenant_moves = report.tenant_moves;
    let mut all = LatencyHistogram::new_latency();
    for h in &report.tenant_latency {
        all.merge(h);
    }
    let audit_ok = match &audit {
        Ok(a) => a.passed(),
        Err(e) => {
            eprintln!("perfbench: fleet stream does not parse: {e}");
            false
        }
    };
    let check = RunCheck {
        label: format!("fleet{ARRAYS}/{workers}w"),
        input: report.total_requests,
        completed: report.completed,
        incomplete: report.incomplete,
        lost,
        events: t.events,
        energy_bits: report.fleet_energy_j.to_bits(),
        extra_ok: audit_ok
            && report.routed_requests == report.total_requests
            && report.total_requests == trace.len() as u64,
    };
    let sim = Sim {
        energy_savings_pct: 100.0 * (1.0 - report.fleet_energy_j / (nominal * common::HORIZON_S)),
        goal_violation_pct: common::pct(over as f64, kept as f64),
        p99_response_ms: common::p99_ms(&all),
        cap_violation_pct: Some(100.0 * report.cap_violation_s / common::HORIZON_S),
        input_requests: trace.len() as u64,
    };
    if sink.is_some() {
        let epochs = report.epochs.len();
        let t1 = Instant::now();
        let heat = tenants::tenant_heat(
            &trace,
            fs.tenants,
            fs.tenant_sectors,
            fs.fleet_epoch.as_secs(),
            epochs,
        );
        let plan = plan_placement(&heat, fs.arrays, fs.rebalance, fs.max_moves_per_epoch);
        t.placement_s = t1.elapsed().as_secs_f64();
        std::hint::black_box(plan);
    }
    let out = PassOut {
        times,
        runs: vec![check],
        completed: report.completed,
        sim,
    };
    (out, t)
}

/// One untraced pass at `workers` workers.
pub fn pass(i: &Input, workers: usize) -> PassOut {
    run(i, workers, None, &mut Spans::gauged()).0
}

/// A traced pass at 1 worker (one thread, so hook times and the fleet
/// run's wall time add up), then untraced passes at 1 and 2 workers.
pub fn traced(i: &Input) -> TracedOut {
    let sink = PolicySink::default();
    let mut spans = Spans::default();
    let (tr, t) = run(i, 1, Some(&sink), &mut spans);
    let mut s1 = Spans::default();
    let (u1, _) = run(i, 1, None, &mut s1);
    let mut s2 = Spans::default();
    let (u2, _) = run(i, 2, None, &mut s2);
    let core = read(&sink);
    let run_1w = s1.get("fleet");
    let run_2w = s2.get("fleet");
    let fleet_s = spans.get("fleet");
    let driver_s = fleet_s - core.total_ns() / 1e9 - t.placement_s;
    let per = |ns: f64, n: u64| if n == 0 { 0.0 } else { ns / n as f64 };
    let n = tr.sim.input_requests;
    let layers = vec![
        ("array.driver_s", driver_s),
        ("array.driver_ns_per_event", per(driver_s * 1e9, t.events)),
        ("array.events", t.events as f64),
        ("array.events_per_request", per(t.events as f64, n)),
        ("array.migration.committed", t.committed as f64),
        ("array.migration.rebuilt", t.rebuilt as f64),
        ("array.migration.sectors_moved", t.sectors_moved as f64),
        ("array.incomplete", t.incomplete as f64),
        ("diskmodel.transitions", t.transitions as f64),
        ("diskmodel.service_mean_ms", t.service.mean() * 1e3),
        ("core.tick_s", core.tick_ns as f64 / 1e9),
        ("core.tick_calls", core.tick_calls as f64),
        (
            "core.plan_ns_per_epoch",
            per(core.plan_ns as f64, core.plan_ticks),
        ),
        ("core.tick_max_ms", core.tick_max_ns as f64 / 1e6),
        ("core.hook_ns_per_request", per(core.hook_ns(), n)),
        ("core.reconfigurations", core.reconfigurations as f64),
        ("core.boosts", core.boosts as f64),
        ("core.goal_violation_pct", tr.sim.goal_violation_pct),
        ("fleet.run_s_1w", run_1w),
        ("fleet.run_s_2w", run_2w),
        ("fleet.speedup_2w", run_1w / run_2w),
        ("fleet.scaling_loss_s", run_2w - run_1w / 2.0),
        ("fleet.placement_s", t.placement_s),
        ("fleet.audit_s", spans.get("audit")),
        ("fleet.epochs", t.epochs as f64),
        ("fleet.tenant_moves", t.tenant_moves as f64),
        (
            "fleet.cap_violation_pct",
            tr.sim.cap_violation_pct.unwrap_or(0.0),
        ),
        ("workload.generate_s", spans.get("generate")),
        ("workload.requests", n as f64),
    ];
    let mut runs = tr.runs;
    runs.extend(u1.runs);
    runs.extend(u2.runs);
    TracedOut {
        traced_wall_s: tr.times.wall_s,
        untraced_wall_s: u1.times.wall_s,
        attributed_s: spans.get("generate") + fleet_s + spans.get("audit"),
        layers,
        runs,
        pass_runs: 1,
    }
}
