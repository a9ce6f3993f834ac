//! `grid`: the quick-scale headline grid.
//!
//! One pass generates the OLTP and Cello traces, runs Base on each to
//! calibrate the goal, then runs the other six headline policies plus
//! Fixed(slow) on the same trace: 16 serial runs, telemetry off. Almost
//! all of the time is the array driver's (event queue, disk service,
//! routing); Hibernator's planner is a few percent; the fleet, telemetry
//! and ingest layers do no work.

use crate::common::{self, Feed, Kind, Layer, RunCheck, Sinks};
use crate::json::Obj;
use crate::probe::{read, Spans};
use crate::{PassOut, Sim, TracedOut};
use simkit::{LatencyHistogram, Moments};
use std::time::Instant;
use workload::WorkloadSpec;

/// The grid's input: the seed, with the request counts it yields.
pub struct Input {
    seed: u64,
    requests: Vec<(&'static str, u64)>,
}

fn specs() -> [(&'static str, WorkloadSpec); 2] {
    [("oltp", common::oltp()), ("cello", common::cello())]
}

/// Set-up: derives both traces once (counting them for the provenance
/// block and warming the generator), then warms the simulator with Base
/// and Hibernator over a 5-minute slice of OLTP.
pub fn setup(seed: u64) -> Input {
    let requests = specs()
        .into_iter()
        .map(|(name, spec)| (name, spec.generate(seed).len() as u64))
        .collect();
    let warm = WorkloadSpec::oltp(300.0, 150.0);
    let trace = warm.generate(seed);
    let config = common::array_config(&warm, seed);
    let opts = array::RunOptions::for_horizon(300.0);
    let base = Kind::Base.run(
        config.clone(),
        Feed::Slice(&trace),
        opts.clone(),
        f64::MAX,
        None,
    );
    let goal = base.response.mean() * common::GOAL_FACTOR;
    Kind::Hibernator.run(config, Feed::Slice(&trace), opts, goal, None);
    Input { seed, requests }
}

/// Provenance: the requests per trace.
pub fn describe(i: &Input, o: &mut Obj) {
    for (name, n) in &i.requests {
        o.int(&format!("requests_{name}"), *n);
    }
}

/// What one pass counted, beyond its end-to-end outcome.
#[derive(Default)]
struct Tally {
    generated: u64,
    input: u64,
    events: u64,
    committed: u64,
    rebuilt: u64,
    sectors_moved: u64,
    incomplete: u64,
    hib_transitions: u64,
    hib_service: Moments,
    core_requests: u64,
    policy_requests: u64,
}

fn run(i: &Input, sinks: Option<&Sinks>, spans: &mut Spans) -> (PassOut, Tally) {
    let t0 = Instant::now();
    let mut runs = Vec::with_capacity(16);
    let mut tally = Tally::default();
    let mut savings = Vec::new();
    let (mut over, mut kept) = (0u64, 0u64);
    let mut hist = LatencyHistogram::new_latency();
    let mut completed = 0u64;
    for (name, spec) in specs() {
        let trace = spans.time("generate", || spec.generate(i.seed));
        let n = trace.len() as u64;
        tally.generated += n;
        let config = common::array_config(&spec, i.seed);
        let mut base = None;
        let mut goal = f64::MAX;
        for kind in Kind::GRID {
            let r = spans.time("sim", || {
                kind.run(
                    config.clone(),
                    Feed::Slice(&trace),
                    common::run_options(),
                    goal,
                    sinks,
                )
            });
            runs.push(RunCheck::of(format!("{}/{name}", kind.label()), n, &r));
            completed += r.completed;
            tally.input += n;
            tally.events += r.events_processed;
            tally.committed += r.migration.committed;
            tally.rebuilt += r.migration.rebuilt;
            tally.sectors_moved += r.migration.sectors_moved;
            tally.incomplete += r.incomplete;
            match kind.layer() {
                Layer::Core => tally.core_requests += n,
                Layer::Policies => tally.policy_requests += n,
                Layer::Array => {}
            }
            if kind == Kind::Hibernator {
                let b: &array::RunReport = base.as_ref().expect("Base runs first");
                savings.push(100.0 * r.savings_vs(b));
                let (o, k) = common::violation_counts(&r.response_series, goal);
                over += o;
                kept += k;
                // The tail is taken on OLTP alone: Cello's bursts move its
                // p99 by a fifth from seed to seed.
                if name == "oltp" {
                    hist.merge(&r.response_hist);
                }
                tally.hib_transitions += r.transitions;
                tally.hib_service.merge(&r.service);
            }
            if kind == Kind::Base {
                goal = r.response.mean() * common::GOAL_FACTOR;
                base = Some(r);
            }
        }
    }
    let sim = Sim {
        energy_savings_pct: savings.iter().sum::<f64>() / savings.len() as f64,
        goal_violation_pct: common::pct(over as f64, kept as f64),
        p99_response_ms: common::p99_ms(&hist),
        cap_violation_pct: None,
        input_requests: tally.generated,
    };
    let out = PassOut {
        times: spans.close(t0),
        runs,
        completed,
        sim,
    };
    (out, tally)
}

/// One untraced pass.
pub fn pass(i: &Input) -> PassOut {
    run(i, None, &mut Spans::gauged()).0
}

/// A pass with every managed policy inside a probe and every
/// generate/simulate call inside a span, then its untraced twin. Running
/// the traced pass first means a cold first pass can only inflate, never
/// hide, the measured overhead.
pub fn traced(i: &Input) -> TracedOut {
    let sinks = Sinks::default();
    let mut spans = Spans::default();
    let (traced, t) = run(i, Some(&sinks), &mut spans);
    let untraced = pass(i);
    let core = read(&sinks.core);
    let pol = read(&sinks.policies);
    let sim_s = spans.get("sim");
    let gen_s = spans.get("generate");
    let driver_s = sim_s - (core.total_ns() + pol.total_ns()) / 1e9;
    let per = |ns: f64, n: u64| if n == 0 { 0.0 } else { ns / n as f64 };
    let layers = vec![
        ("array.driver_s", driver_s),
        ("array.driver_ns_per_event", per(driver_s * 1e9, t.events)),
        ("array.events", t.events as f64),
        ("array.events_per_request", per(t.events as f64, t.input)),
        ("array.migration.committed", t.committed as f64),
        ("array.migration.rebuilt", t.rebuilt as f64),
        ("array.migration.sectors_moved", t.sectors_moved as f64),
        ("array.incomplete", t.incomplete as f64),
        ("diskmodel.transitions", t.hib_transitions as f64),
        ("diskmodel.service_mean_ms", t.hib_service.mean() * 1e3),
        ("core.tick_s", core.tick_ns as f64 / 1e9),
        ("core.tick_calls", core.tick_calls as f64),
        (
            "core.plan_ns_per_epoch",
            per(core.plan_ns as f64, core.plan_ticks),
        ),
        ("core.tick_max_ms", core.tick_max_ns as f64 / 1e6),
        (
            "core.hook_ns_per_request",
            per(core.hook_ns(), t.core_requests),
        ),
        ("core.reconfigurations", core.reconfigurations as f64),
        ("core.boosts", core.boosts as f64),
        ("core.goal_violation_pct", traced.sim.goal_violation_pct),
        ("policies.tick_s", pol.tick_ns as f64 / 1e9),
        (
            "policies.hook_ns_per_request",
            per(pol.hook_ns(), t.policy_requests),
        ),
        ("workload.generate_s", gen_s),
        ("workload.requests", t.generated as f64),
    ];
    let pass_runs = traced.runs.len();
    let mut runs = traced.runs;
    runs.extend(untraced.runs);
    TracedOut {
        traced_wall_s: traced.times.wall_s,
        untraced_wall_s: untraced.times.wall_s,
        attributed_s: gen_s + sim_s,
        layers,
        runs,
        pass_runs,
    }
}
