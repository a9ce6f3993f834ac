//! `storm_msr`: the write-heavy, degraded path plus full observability.
//!
//! Set-up writes an MSR-Cambridge CSV of OLTP with a write-flood window
//! (see [`crate::msr`]). A pass ingests that file with `read_msr_csv`,
//! then runs Base and Hibernator on a RAID-5 array with the DRAM cache on,
//! under a scripted fault storm, capturing telemetry, and audits every
//! stream. Writes, parity, destage, redirects and rebuilds replace
//! `grid`'s reads; telemetry emit and audit cost more than the simulation
//! itself; ingest does work nowhere else.

use crate::common::{self, Feed, Kind, RunCheck, Sinks};
use crate::json::Obj;
use crate::msr::{self, DISORDER};
use crate::probe::{read, Spans};
use crate::{PassOut, Sim, TracedOut};
use array::{Redundancy, RunOptions, RunReport};
use faults::{FaultConfig, FaultEvent, FaultKind, FaultPlan, FaultSchedule};
use simkit::SimTime;
use std::path::PathBuf;
use std::time::Instant;
use telemetry::TelemetryConfig;
use workload::trace_io::read_msr_csv;
use workload::Scenario;

/// The storm's input: the MSR file set-up wrote.
pub struct Input {
    seed: u64,
    path: PathBuf,
    synth: msr::SynthStats,
}

/// Where set-up writes the MSR file: the benchmark's own `out/`.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Set-up: OLTP with a write flood over 40–60 % of the horizon, written
/// as disordered MSR CSV.
pub fn setup(seed: u64) -> Input {
    let h = common::HORIZON_S;
    let flood = Scenario::WriteFlood {
        start_s: h * 0.4,
        duration_s: h * 0.2,
    };
    let trace = flood.trace(&common::oltp(), seed);
    let dir = out_dir();
    std::fs::create_dir_all(&dir).expect("create the benchmark's out/ directory");
    let path = dir.join(format!("storm_msr-{seed}-{}.csv", std::process::id()));
    let file = std::fs::File::create(&path).expect("create the MSR file");
    let synth = msr::synthesize(&trace, seed, &DISORDER, file).expect("write the MSR file");
    Input { seed, path, synth }
}

/// Removes the MSR file.
pub fn cleanup(i: &Input) {
    let _ = std::fs::remove_file(&i.path);
}

/// Provenance: records and disorder of the MSR file.
pub fn describe(i: &Input, o: &mut Obj) {
    o.int("requests", i.synth.records);
    o.int("late_records", i.synth.late_records);
    o.num(
        "max_lateness_s",
        i.synth.max_lateness_ticks as f64 / msr::TICKS_PER_S,
    );
    o.num(
        "late_window_s",
        DISORDER.window_ticks as f64 / msr::TICKS_PER_S,
    );
}

/// The scripted storm for a run of `horizon_s`: disk 3 dies at 30 % of the
/// horizon (after a sticky-spindle window and a transient burst), disk 9
/// at 55 % (after a burst), and a survivor suffers a late burst that only
/// the retry machinery sees.
fn storm(horizon_s: f64) -> FaultSchedule {
    let at = |f: f64| SimTime::from_secs(horizon_s * f);
    let burst = |error_prob: f64, frac: f64| FaultKind::TransientBurst {
        error_prob,
        duration_s: horizon_s * frac,
    };
    FaultSchedule::new(vec![
        FaultEvent {
            time: at(0.27),
            disk: 3,
            kind: burst(0.2, 0.03),
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
            kind: burst(0.15, 0.03),
        },
        FaultEvent {
            time: at(0.55),
            disk: 9,
            kind: FaultKind::DiskFailure,
        },
        FaultEvent {
            time: at(0.70),
            disk: 5,
            kind: burst(0.1, 0.02),
        },
    ])
}

fn options(label: &str, goal_s: f64, telemetry: bool) -> RunOptions {
    let mut o = common::run_options();
    o.faults = Some(FaultPlan {
        schedule: storm(common::HORIZON_S),
        config: FaultConfig::default(),
    });
    o.cache = Some(cache::CacheConfig::default());
    if telemetry {
        o.telemetry = Some(TelemetryConfig::new(label).with_goal(goal_s, common::WARMUP_S));
    }
    o
}

/// What one pass counted, beyond its end-to-end outcome.
#[derive(Default)]
struct Tally {
    records: u64,
    events: u64,
    committed: u64,
    rebuilt: u64,
    sectors_moved: u64,
    incomplete: u64,
    stream_bytes: u64,
    audit_events: u64,
    /// Both simulations again with telemetry off, seconds (traced only).
    sim_off_s: f64,
    hib: Option<RunReport>,
}

/// Base then Hibernator over `feed`, telemetry on or off.
fn simulate(
    i: &Input,
    trace: &workload::Trace,
    sinks: Option<&Sinks>,
    telemetry: bool,
    spans: &mut Spans,
    span: &'static str,
) -> [RunReport; 2] {
    let mut config = common::array_config(&common::oltp(), i.seed);
    config.redundancy = Redundancy::Raid5Like;
    let feed = Feed::Cursor(trace, sinks.map(|s| &s.feed));
    let base = spans.time(span, || {
        let o = options("storm/Base", f64::MAX, telemetry);
        Kind::Base.run(config.clone(), feed, o, f64::MAX, sinks)
    });
    let goal = hib_goal(&base);
    let hib = spans.time(span, || {
        let o = options("storm/Hibernator", goal, telemetry);
        Kind::Hibernator.run(config, feed, o, goal, sinks)
    });
    [base, hib]
}

fn run(i: &Input, sinks: Option<&Sinks>, spans: &mut Spans) -> (PassOut, Tally) {
    let t0 = Instant::now();
    let trace = spans.time("parse", || {
        let file = std::fs::File::open(&i.path).expect("open the MSR file");
        read_msr_csv(file).expect("the synthesized MSR file parses")
    });
    let n = trace.len() as u64;
    let mut reports = simulate(i, &trace, sinks, true, spans, "sim");
    let mut t = Tally {
        records: n,
        ..Tally::default()
    };
    let mut runs = Vec::with_capacity(2);
    for r in reports.iter_mut() {
        let mut check = RunCheck::of(format!("storm/{}", r.policy), n, r);
        let stream = r.telemetry.take();
        check.extra_ok = match &stream {
            Some(s) => {
                t.stream_bytes += s.bytes.len() as u64;
                match spans.time("audit", || telemetry::audit::audit_bytes(&s.bytes)) {
                    Ok(a) => {
                        t.audit_events += a.runs.iter().map(|r| r.events as u64).sum::<u64>();
                        for c in a.runs.iter().flat_map(|r| &r.checks).filter(|c| !c.passed) {
                            eprintln!("perfbench: audit {} FAILED: {}", c.name, c.detail);
                        }
                        a.passed()
                    }
                    Err(e) => {
                        eprintln!("perfbench: telemetry stream does not parse: {e}");
                        false
                    }
                }
            }
            None => false,
        };
        t.events += r.events_processed;
        t.committed += r.migration.committed;
        t.rebuilt += r.migration.rebuilt;
        t.sectors_moved += r.migration.sectors_moved;
        t.incomplete += r.incomplete;
        runs.push(check);
    }
    let times = spans.close(t0);

    let [base, hib] = reports;
    let (over, kept) = common::violation_counts(&hib.response_series, hib_goal(&base));
    let sim = Sim {
        energy_savings_pct: 100.0 * hib.savings_vs(&base),
        goal_violation_pct: common::pct(over as f64, kept as f64),
        p99_response_ms: common::p99_ms(&hib.response_hist),
        cap_violation_pct: None,
        input_requests: n,
    };
    let completed = base.completed + hib.completed;
    if sinks.is_some() {
        // The telemetry-off twin, outside the wall clock and with probes
        // charged to throwaway sinks, so only capture differs.
        let mut aux = Spans::default();
        simulate(i, &trace, Some(&Sinks::default()), false, &mut aux, "sim");
        t.sim_off_s = aux.get("sim");
    }
    t.hib = Some(hib);
    let out = PassOut {
        times,
        runs,
        completed,
        sim,
    };
    (out, t)
}

/// Hibernator's goal, calibrated from Base under the same storm.
fn hib_goal(base: &RunReport) -> f64 {
    base.response.mean() * common::GOAL_FACTOR
}

/// One untraced pass.
pub fn pass(i: &Input) -> PassOut {
    run(i, None, &mut Spans::gauged()).0
}

/// A traced pass (probes on Hibernator and on the feed, spans on ingest,
/// simulation and audit; then the traced simulations again with telemetry
/// off to price capture), then its untraced twin.
pub fn traced(i: &Input) -> TracedOut {
    let sinks = Sinks::default();
    let mut spans = Spans::default();
    let (tr, t) = run(i, Some(&sinks), &mut spans);
    let untraced = pass(i);
    let core = read(&sinks.core);
    let feed = read(&sinks.feed);
    let hib = t
        .hib
        .as_ref()
        .expect("traced pass keeps its Hibernator report");
    let sim_s = spans.get("sim");
    let parse_s = spans.get("parse");
    let audit_s = spans.get("audit");
    let emit_s = sim_s - t.sim_off_s;
    let driver_s = sim_s - core.total_ns() / 1e9 - feed.est_ns() / 1e9 - emit_s;
    let per = |x: f64, n: u64| if n == 0 { 0.0 } else { x / n as f64 };
    let cache = hib.cache.unwrap_or_default();
    let f = &hib.faults;
    let layers = vec![
        ("array.driver_s", driver_s),
        ("array.driver_ns_per_event", per(driver_s * 1e9, t.events)),
        ("array.events", t.events as f64),
        (
            "array.events_per_request",
            per(t.events as f64, 2 * t.records),
        ),
        ("array.migration.committed", t.committed as f64),
        ("array.migration.rebuilt", t.rebuilt as f64),
        ("array.migration.sectors_moved", t.sectors_moved as f64),
        ("array.incomplete", t.incomplete as f64),
        ("diskmodel.transitions", hib.transitions as f64),
        ("diskmodel.service_mean_ms", hib.service.mean() * 1e3),
        ("core.tick_s", core.tick_ns as f64 / 1e9),
        ("core.tick_calls", core.tick_calls as f64),
        (
            "core.plan_ns_per_epoch",
            per(core.plan_ns as f64, core.plan_ticks),
        ),
        ("core.tick_max_ms", core.tick_max_ns as f64 / 1e6),
        ("core.hook_ns_per_request", per(core.hook_ns(), t.records)),
        ("core.reconfigurations", core.reconfigurations as f64),
        ("core.boosts", core.boosts as f64),
        ("core.goal_violation_pct", tr.sim.goal_violation_pct),
        ("telemetry.emit_s", emit_s),
        (
            "telemetry.stream_mib",
            t.stream_bytes as f64 / (1024.0 * 1024.0),
        ),
        (
            "telemetry.bytes_per_event",
            per(t.stream_bytes as f64, t.events),
        ),
        ("telemetry.audit_s", audit_s),
        (
            "telemetry.audit_ns_per_event",
            per(audit_s * 1e9, t.audit_events),
        ),
        ("workload.requests", t.records as f64),
        (
            "workload.feed_ns_per_request",
            per(feed.est_ns(), feed.calls),
        ),
        ("workload.trace_io.parse_s", parse_s),
        (
            "workload.trace_io.records_per_s",
            t.records as f64 / parse_s,
        ),
        (
            "workload.trace_io.late_records",
            i.synth.late_records as f64,
        ),
        ("cache.read_hit_rate", cache.read_hit_rate()),
        ("cache.write_absorbs", cache.write_absorbs as f64),
        ("cache.flushes", cache.flushes as f64),
        ("faults.retries", f.retries as f64),
        ("faults.redirects", f.degraded_redirects as f64),
        ("faults.lost_requests", f.lost_requests as f64),
        ("faults.disk_failures", f.disk_failures as f64),
    ];
    let pass_runs = tr.runs.len();
    let mut runs = tr.runs;
    runs.extend(untraced.runs);
    TracedOut {
        traced_wall_s: tr.times.wall_s,
        untraced_wall_s: untraced.times.wall_s,
        attributed_s: parse_s + sim_s + audit_s,
        layers,
        runs,
        pass_runs,
    }
}
