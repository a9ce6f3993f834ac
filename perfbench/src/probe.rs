//! Outside-in tracing shims.
//!
//! Nothing inside the simulator is instrumented. Instead the benchmark
//! wraps the two public extension traits the simulator calls back through
//! — [`PowerPolicy`] and [`TraceSource`] — and times calls into the
//! crates' public functions directly ([`Spans`]).
//!
//! Per-request hooks fire millions of times per run, and timing every one
//! roughly doubles their cost, so the wrappers count every call exactly but
//! time only every [`SAMPLE_EVERY`]-th call of each hook kind; hook time is
//! then estimated as `sampled time × calls / sampled calls`. The infrequent
//! hooks (`init`, `on_tick`, `on_disk_failure`, `set_power_cap`) are timed
//! on every call.
//!
//! Each wrapper accumulates into plain local counters and merges them into
//! a shared sink when dropped, so fleet workers never contend per hook.

use array::{ArrayState, ChunkId, DiskId, PowerPolicy};
use diskmodel::{Completion, IoKind};
use simkit::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use workload::{TraceSource, VolumeRequest};

/// One call in this many, per hook kind, is timed.
pub const SAMPLE_EVERY: u64 = 64;

/// Per-request hook kinds, indexing [`PolicyTrace::hooks`].
const ARRIVAL: usize = 0;
const COMPLETION: usize = 1;
const ROUTE: usize = 2;

/// A sampled call counter: every call counted, one in [`SAMPLE_EVERY`]
/// timed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sampled {
    /// Calls made.
    pub calls: u64,
    /// Calls timed.
    pub timed: u64,
    /// Nanoseconds spent in the timed calls.
    pub timed_ns: u64,
}

impl Sampled {
    /// Runs `f`, counting it and timing it when its turn in the sample
    /// comes up.
    #[inline]
    fn call<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.calls += 1;
        if !self.calls.is_multiple_of(SAMPLE_EVERY) {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        self.timed_ns += t0.elapsed().as_nanos() as u64;
        self.timed += 1;
        out
    }

    /// Estimated nanoseconds across every call.
    pub fn est_ns(&self) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            self.timed_ns as f64 * self.calls as f64 / self.timed as f64
        }
    }

    fn merge(&mut self, o: &Sampled) {
        self.calls += o.calls;
        self.timed += o.timed;
        self.timed_ns += o.timed_ns;
    }
}

/// What wrapped policies measured (one policy, or a merged set).
#[derive(Debug, Clone, Copy, Default)]
pub struct PolicyTrace {
    /// `on_tick` calls.
    pub tick_calls: u64,
    /// Nanoseconds in `on_tick`, every call timed.
    pub tick_ns: u64,
    /// The slowest single `on_tick`, nanoseconds.
    pub tick_max_ns: u64,
    /// Ticks that fell on the policy's planning-epoch cadence.
    pub plan_ticks: u64,
    /// Nanoseconds in those ticks.
    pub plan_ns: u64,
    /// Per-request hooks: arrival, completion, route.
    pub hooks: [Sampled; 3],
    /// Nanoseconds in `init`, `on_disk_failure` and `set_power_cap`.
    pub other_ns: u64,
    /// Epochs in which the policy adopted a new configuration (Hibernator
    /// hosts only; read from the policy's public stats when it drops).
    pub reconfigurations: u64,
    /// Performance-guard boosts (Hibernator hosts only).
    pub boosts: u64,
}

impl PolicyTrace {
    /// Adds another trace's counts into this one.
    pub fn merge(&mut self, o: &PolicyTrace) {
        self.tick_calls += o.tick_calls;
        self.tick_ns += o.tick_ns;
        self.tick_max_ns = self.tick_max_ns.max(o.tick_max_ns);
        self.plan_ticks += o.plan_ticks;
        self.plan_ns += o.plan_ns;
        for (a, b) in self.hooks.iter_mut().zip(&o.hooks) {
            a.merge(b);
        }
        self.other_ns += o.other_ns;
        self.reconfigurations += o.reconfigurations;
        self.boosts += o.boosts;
    }

    /// Estimated nanoseconds in the per-request hooks.
    pub fn hook_ns(&self) -> f64 {
        self.hooks.iter().map(Sampled::est_ns).sum()
    }

    /// Estimated nanoseconds in every hook of the policy.
    pub fn total_ns(&self) -> f64 {
        self.tick_ns as f64 + self.other_ns as f64 + self.hook_ns()
    }
}

/// Where wrapped policies deliver their counts when they drop.
pub type PolicySink = Arc<Mutex<PolicyTrace>>;

/// What a probe needs to follow a planning policy from outside: its epoch
/// length, whether its guard holds it boosted, and its
/// `(reconfigurations, boosts)` counters.
pub struct Planner<P> {
    /// The planning epoch.
    pub epoch: SimDuration,
    /// True while the policy's performance guard holds it boosted.
    pub boosted: fn(&P) -> bool,
    /// The policy's `(reconfigurations, boosts)`.
    pub stats: fn(&P) -> (u64, u64),
}

/// A [`PowerPolicy`] wrapper that times and counts every hook of `inner`
/// and otherwise passes every call straight through, so a wrapped run is
/// bit-identical to an unwrapped one.
pub struct Probe<P> {
    inner: P,
    local: PolicyTrace,
    sink: PolicySink,
    /// The planning policy's hooks, when it is one. Planning ticks are
    /// classified by mirroring the documented cadence from outside: the
    /// first plan one epoch after `init`, then one epoch after the previous
    /// plan; no plan while the guard enters or holds a boost; an immediate
    /// re-plan on the tick the boost ends; a disk failure pushes the next
    /// plan at least one epoch out.
    planner: Option<Planner<P>>,
    next_plan: SimTime,
}

impl<P: PowerPolicy> Probe<P> {
    /// Wraps `inner`, delivering counts to `sink` on drop.
    pub fn new(inner: P, sink: &PolicySink) -> Self {
        Probe {
            inner,
            local: PolicyTrace::default(),
            sink: Arc::clone(sink),
            planner: None,
            next_plan: SimTime::ZERO,
        }
    }

    /// Follows `inner` as a planning policy: classifies its planning ticks
    /// and reads its stats when it drops.
    pub fn planner(mut self, planner: Planner<P>) -> Self {
        self.planner = Some(planner);
        self
    }

    #[inline]
    fn timed_other<T>(&mut self, f: impl FnOnce(&mut P) -> T) -> T {
        let t0 = Instant::now();
        let out = f(&mut self.inner);
        self.local.other_ns += t0.elapsed().as_nanos() as u64;
        out
    }
}

impl<P> Drop for Probe<P> {
    fn drop(&mut self) {
        if let Some(p) = &self.planner {
            let (reconfigurations, boosts) = (p.stats)(&self.inner);
            self.local.reconfigurations = reconfigurations;
            self.local.boosts = boosts;
        }
        // A poisoned sink means another probe panicked mid-merge; the
        // counts are statistics only, so merge into whatever is there.
        let mut sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        sink.merge(&self.local);
    }
}

impl<P: PowerPolicy> PowerPolicy for Probe<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn init(&mut self, now: SimTime, state: &mut ArrayState) {
        if let Some(p) = &self.planner {
            self.next_plan = now + p.epoch;
        }
        self.timed_other(|p| p.init(now, state));
    }

    fn tick_interval(&self) -> Option<SimDuration> {
        self.inner.tick_interval()
    }

    fn on_tick(&mut self, now: SimTime, state: &mut ArrayState) {
        let was_boosted = self
            .planner
            .as_ref()
            .is_some_and(|p| (p.boosted)(&self.inner));
        let t0 = Instant::now();
        self.inner.on_tick(now, state);
        let ns = t0.elapsed().as_nanos() as u64;
        self.local.tick_calls += 1;
        self.local.tick_ns += ns;
        self.local.tick_max_ns = self.local.tick_max_ns.max(ns);
        if let Some(p) = &self.planner {
            let planned = match (was_boosted, (p.boosted)(&self.inner)) {
                (_, true) => false,
                (true, false) => true,
                (false, false) => now >= self.next_plan,
            };
            if planned {
                self.next_plan = now + p.epoch;
                self.local.plan_ticks += 1;
                self.local.plan_ns += ns;
            }
        }
    }

    fn route(
        &mut self,
        now: SimTime,
        chunk: ChunkId,
        offset: u64,
        kind: IoKind,
        state: &mut ArrayState,
    ) -> Option<(DiskId, u64)> {
        let inner = &mut self.inner;
        self.local.hooks[ROUTE].call(|| inner.route(now, chunk, offset, kind, state))
    }

    fn on_volume_arrival(
        &mut self,
        now: SimTime,
        req: &VolumeRequest,
        chunks: &[ChunkId],
        state: &mut ArrayState,
    ) {
        let inner = &mut self.inner;
        self.local.hooks[ARRIVAL].call(|| inner.on_volume_arrival(now, req, chunks, state));
    }

    fn on_completion(
        &mut self,
        now: SimTime,
        comp: &Completion,
        volume_response_s: Option<f64>,
        state: &mut ArrayState,
    ) {
        let inner = &mut self.inner;
        self.local.hooks[COMPLETION]
            .call(|| inner.on_completion(now, comp, volume_response_s, state));
    }

    fn on_disk_failure(&mut self, now: SimTime, disk: usize, state: &mut ArrayState) {
        if let Some(p) = &self.planner {
            self.next_plan = self.next_plan.max(now + p.epoch);
        }
        self.timed_other(|p| p.on_disk_failure(now, disk, state));
    }

    fn set_power_cap(&mut self, cap_w: Option<f64>) {
        self.timed_other(|p| p.set_power_cap(cap_w));
    }
}

/// Where wrapped feeds deliver their counts when they drop.
pub type FeedSink = Arc<Mutex<Sampled>>;

/// A [`TraceSource`] wrapper: counts every pull, times a sample.
pub struct FeedProbe<S> {
    inner: S,
    local: Sampled,
    sink: FeedSink,
}

impl<S: TraceSource> FeedProbe<S> {
    /// Wraps `inner`, delivering counts to `sink` on drop.
    pub fn new(inner: S, sink: &FeedSink) -> Self {
        FeedProbe {
            inner,
            local: Sampled::default(),
            sink: Arc::clone(sink),
        }
    }
}

impl<S> Drop for FeedProbe<S> {
    fn drop(&mut self) {
        let mut sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        sink.merge(&self.local);
    }
}

impl<S: TraceSource> TraceSource for FeedProbe<S> {
    fn next_request(&mut self) -> Option<VolumeRequest> {
        let inner = &mut self.inner;
        self.local.call(|| inner.next_request())
    }

    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }
}

/// Wall-clock spans around direct calls into the crates, summed by name.
#[derive(Debug, Default)]
pub struct Spans {
    secs: BTreeMap<&'static str, f64>,
    /// Set on measured passes: the host-speed gauge is sampled before every
    /// span and once more when the pass closes.
    gauge: Option<Gauged>,
}

#[derive(Debug, Default)]
struct Gauged {
    /// Each span's duration, in order.
    spans: Vec<f64>,
    /// Gauge times: one before each span, then one at close.
    samples: Vec<f64>,
    /// Wall time spent sampling, which a pass's wall time leaves out.
    spent_s: f64,
}

impl Gauged {
    fn sample(&mut self) {
        let t0 = Instant::now();
        self.samples.push(crate::gauge::sample());
        self.spent_s += t0.elapsed().as_secs_f64();
    }
}

/// A measured pass's host times.
#[derive(Debug, Clone, Copy)]
pub struct PassTimes {
    /// Wall time, without the gauge's own samples.
    pub wall_s: f64,
    /// The same pass at the reference host speed: each span's time ×
    /// [`gauge::REFERENCE_S`](crate::gauge::REFERENCE_S) ÷ the mean of the
    /// gauge samples either side of it; the time between spans is scaled
    /// by the mean of all samples.
    pub ref_s: f64,
    /// Mean gauge time ÷ the reference: how much slower than the reference
    /// host this one ran.
    pub slowdown: f64,
}

impl Spans {
    /// Spans for a measured pass, sampling the host-speed gauge around
    /// every span.
    pub fn gauged() -> Spans {
        Spans {
            gauge: Some(Gauged::default()),
            ..Spans::default()
        }
    }

    /// Runs `f`, adding its wall time to span `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if let Some(g) = &mut self.gauge {
            g.sample();
        }
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed().as_secs_f64();
        *self.secs.entry(name).or_insert(0.0) += dt;
        if let Some(g) = &mut self.gauge {
            g.spans.push(dt);
        }
        out
    }

    /// Closes a pass that started at `t0`. Without a gauge the
    /// reference-speed time is the wall time.
    pub fn close(&mut self, t0: Instant) -> PassTimes {
        let Some(g) = &mut self.gauge else {
            let wall_s = t0.elapsed().as_secs_f64();
            return PassTimes {
                wall_s,
                ref_s: wall_s,
                slowdown: 1.0,
            };
        };
        g.sample();
        let wall_s = t0.elapsed().as_secs_f64() - g.spent_s;
        let reference = crate::gauge::REFERENCE_S;
        let mean = g.samples.iter().sum::<f64>() / g.samples.len() as f64;
        let between = wall_s - g.spans.iter().sum::<f64>();
        let ref_spans: f64 = g
            .spans
            .iter()
            .zip(g.samples.windows(2))
            .map(|(d, w)| d * reference * 2.0 / (w[0] + w[1]))
            .sum();
        PassTimes {
            wall_s,
            ref_s: ref_spans + between * reference / mean,
            slowdown: mean / reference,
        }
    }

    /// Total seconds recorded under `name` (0 if never entered).
    pub fn get(&self, name: &str) -> f64 {
        self.secs.get(name).copied().unwrap_or(0.0)
    }
}

/// Reads a sink's merged counts.
pub fn read<T: Copy>(sink: &Arc<Mutex<T>>) -> T {
    *sink.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use array::{run_policy, run_policy_streamed, ArrayConfig, BasePolicy, RunOptions};
    use hibernator::{Hibernator, HibernatorConfig};
    use workload::{TraceCursor, WorkloadSpec};

    #[test]
    fn probes_change_nothing_and_count_every_hook() {
        let mut spec = WorkloadSpec::oltp(600.0, 20.0);
        spec.extents = 512;
        let trace = spec.generate(3);
        let mut config = ArrayConfig::default_for_volume(1 << 30);
        config.disks = 4;
        let opts = RunOptions::for_horizon(600.0);
        let base = run_policy(config.clone(), BasePolicy, &trace, opts.clone());
        let mut cfg = HibernatorConfig::for_goal(base.response.mean() * 1.5);
        cfg.epoch = SimDuration::from_secs(120.0);

        let bare = run_policy(
            config.clone(),
            Hibernator::new(cfg.clone()),
            &trace,
            opts.clone(),
        );
        let sink = PolicySink::default();
        let feed = FeedSink::default();
        let planner = Planner {
            epoch: cfg.epoch,
            boosted: Hibernator::is_boosted,
            stats: |h| (h.stats().reconfigurations, h.stats().boosts),
        };
        let probed = run_policy_streamed(
            config,
            Probe::new(Hibernator::new(cfg.clone()), &sink).planner(planner),
            FeedProbe::new(TraceCursor::new(&trace), &feed),
            opts,
        );
        assert_eq!(probed.events_processed, bare.events_processed);
        assert_eq!(probed.completed, bare.completed);
        assert_eq!(
            probed.energy.total_joules().to_bits(),
            bare.energy.total_joules().to_bits()
        );

        let t = read(&sink);
        let ticks = (600.0 / cfg.tick.as_secs()) as u64;
        assert!(t.tick_calls >= ticks - 1 && t.tick_calls <= ticks, "{t:?}");
        assert_eq!(t.hooks[ARRIVAL].calls, trace.len() as u64);
        assert_eq!(t.hooks[ARRIVAL].timed, trace.len() as u64 / SAMPLE_EVERY);
        assert!(t.plan_ticks >= 1 && t.plan_ticks <= 5, "{t:?}");
        assert!(t.plan_ns <= t.tick_ns && t.tick_max_ns <= t.tick_ns);
        // One pull per request plus the final empty pull.
        assert_eq!(read(&feed).calls, trace.len() as u64 + 1);
    }
}
