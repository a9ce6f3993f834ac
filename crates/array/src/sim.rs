//! The discrete-event simulation driver.
//!
//! [`Simulation`] owns the [`ArrayState`] and a [`PowerPolicy`], replays a
//! [`workload::Trace`] against the array, and produces a [`RunReport`].
//!
//! # Event flow
//!
//! * **Arrival** — the next trace request is split at chunk boundaries,
//!   routed through the remap table into per-disk sub-requests (plus a
//!   parity write under [`Redundancy::Raid5Like`]), shown to the policy,
//!   and submitted. Arrivals are scheduled one ahead, keeping the event
//!   heap small.
//! * **DiskWake(disk, gen)** — a disk's next internal event (service
//!   completion or ramp end) is due. Generation counters invalidate stale
//!   wakes: whenever a disk's `next_event_time` changes, the old scheduled
//!   wake is superseded rather than removed.
//! * **Tick** — the policy's periodic hook.
//! * **Sample** — the driver records array power (energy delta over the
//!   sampling interval) and per-level disk counts.
//!
//! After every mutation source (arrival, completion batch, policy hook,
//! migration pump) the driver re-synchronises disk wake schedules — the one
//! invariant that keeps the event queue honest. The resync is *incremental*:
//! handlers mark the disks they touched in [`ArrayState::wake_marks`] and
//! only those are visited, in ascending disk-index order so the sequence of
//! event-queue pushes (and therefore FIFO tie-breaking) is bit-identical to
//! a full scan. The infrequent policy hooks (`init`, `on_tick`,
//! `on_disk_failure`) conservatively mark every disk, so policies may
//! mutate spindles directly there; per-event hooks must go through
//! [`ArrayState::request_speed`]. Debug builds cross-check the dirty set
//! against a full scan after every resync.
//!
//! # Hot-path structure
//!
//! Three optimisations shape the inner loop:
//!
//! * The event queue ([`simkit::EventQueue`]) runs on a radix-rung
//!   *ladder* instead of a binary heap.
//! * Arrival admission is *batched*: when the next trace request would be
//!   the very next pop anyway, [`Self::handle_arrival`] processes it
//!   inline, reserving its `(time, seq)` queue key so ordering and event
//!   counts match the queued path exactly.
//! * In-flight request state (piece→volume gather with each piece's retry
//!   count, pending volumes) lives in [`simkit::Slab`] arenas whose slot
//!   indices *are* the request ids, so the per-request maps never hash and
//!   never grow past peak concurrency.
//!
//! Arrivals come from one streaming feed: [`Simulation::new`] walks a
//! borrowed trace with a [`TraceCursor`], [`Simulation::from_source`]
//! pulls any [`TraceSource`].
//!
//! The incremental resync, the ladder with batched admission and the
//! streamed feed must stay bit-identical to a full-scan resync, a
//! `BinaryHeap` with per-event admission and a materialised-trace slice.
//! Hashed run fingerprints recorded from those simpler paths live in
//! `tests/golden/reference_fingerprints.txt`; `tests/reference_goldens.rs`
//! checks every scenario against them.

use crate::migration::{MigrationJob, MigrationStats};
use crate::policy::{ArrayState, PowerPolicy, WakeMarks};
use crate::remap::RemapTable;
use crate::stats::ArrayStats;
use crate::types::{ArrayConfig, ChunkId, DiskId, Redundancy};
use crate::MigrationEngine;
use diskmodel::{Disk, DiskRequest, IoKind, RequestClass};
use faults::{FaultInjector, FaultKind, FaultOutcome, FaultPlan, ReliabilityLedger};
use simkit::{
    EnergyLedger, EventQueue, LatencyHistogram, Moments, SimDuration, SimTime, Slab, TimeSeries,
};
use workload::{Trace, TraceCursor, TraceSource, VolumeIoKind, VolumeRequest};

/// Tunables of a single simulation run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Simulated duration; events beyond it are not processed and energy is
    /// accrued exactly to this instant.
    pub horizon: SimTime,
    /// Bucket width of all recorded time series.
    pub series_bucket: SimDuration,
    /// Cadence of power/level sampling.
    pub sample_interval: SimDuration,
    /// Maximum concurrently executing migration jobs.
    pub migration_inflight: usize,
    /// Fault injection: a scripted storm plus online-model tunables.
    /// `None` runs fault-free (identical to the pre-fault simulator).
    pub faults: Option<FaultPlan>,
    /// Structured-telemetry capture. `None` (the default) records nothing
    /// and costs one `Option` check per emission site.
    pub telemetry: Option<telemetry::TelemetryConfig>,
    /// Controller DRAM cache in front of the spindles. `None` (the
    /// default) — and a config with `capacity_chunks == 0` — run the
    /// request path untouched, bit-identically to the pre-cache
    /// simulator.
    pub cache: Option<cache::CacheConfig>,
    /// Tenant sharding of the volume: when `Some`, the driver keeps one
    /// response histogram per tenant in [`RunReport::tenant_latency`].
    /// `None` (the default) records nothing per-tenant and leaves the run
    /// bit-identical to a driver without tenant accounting — the
    /// histograms never influence event order or timing either way.
    pub tenants: Option<TenantShards>,
}

/// How the volume splits into tenants: consecutive `sectors`-sector
/// shards, with the tail past `count × sectors` folded into the last
/// tenant (exactly as fleet routing has it, see
/// [`workload::tenants::tenant_of`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantShards {
    /// Volume sectors per tenant shard (nonzero).
    pub sectors: u64,
    /// Tenant count (nonzero).
    pub count: u32,
}

impl RunOptions {
    /// Sensible defaults for a run of `horizon_s` simulated seconds:
    /// 60 s series buckets and sampling, 2 concurrent migrations, no
    /// faults.
    pub fn for_horizon(horizon_s: f64) -> RunOptions {
        RunOptions {
            horizon: SimTime::from_secs(horizon_s),
            series_bucket: SimDuration::from_secs(60.0),
            sample_interval: SimDuration::from_secs(60.0),
            migration_inflight: 2,
            faults: None,
            telemetry: None,
            cache: None,
            tenants: None,
        }
    }

    /// Same defaults, with fault injection from `plan`.
    pub fn with_faults(horizon_s: f64, plan: FaultPlan) -> RunOptions {
        RunOptions {
            faults: Some(plan),
            ..RunOptions::for_horizon(horizon_s)
        }
    }
}

/// Everything a run produces.
#[derive(Debug)]
pub struct RunReport {
    /// Policy name.
    pub policy: String,
    /// Aggregate energy across all disks, accrued to the horizon.
    pub energy: EnergyLedger,
    /// Per-disk energy ledgers.
    pub per_disk_energy: Vec<EnergyLedger>,
    /// Foreground volume-request response-time moments (seconds).
    pub response: Moments,
    /// Foreground disk-level service-time moments (seconds).
    pub service: Moments,
    /// Foreground response-time histogram.
    pub response_hist: LatencyHistogram,
    /// Mean response per bucket over time.
    pub response_series: TimeSeries,
    /// Array power (W) per bucket over time.
    pub power_series: TimeSeries,
    /// Disks per level (then standby, then transitioning) over time.
    pub level_series: Vec<TimeSeries>,
    /// Volume requests completed.
    pub completed: u64,
    /// Volume requests still incomplete at the horizon.
    pub incomplete: u64,
    /// Foreground sectors transferred.
    pub fg_sectors: u64,
    /// Migration activity counters.
    pub migration: MigrationStats,
    /// Total spindle transitions across all disks.
    pub transitions: u64,
    /// Per-disk reliability ledgers (transitions, duty-cycle hours, wear),
    /// accrued to the horizon — populated for every run, faulted or not.
    pub reliability: Vec<ReliabilityLedger>,
    /// What the fault storm did (all-zero when faults were off).
    pub faults: FaultOutcome,
    /// The simulated horizon.
    pub horizon: SimTime,
    /// Events the driver processed (arrivals, wakes, ticks, samples,
    /// faults, retries) — the denominator for events/sec throughput.
    pub events_processed: u64,
    /// What the controller DRAM cache did (`None` when it was disabled).
    pub cache: Option<cache::CacheStats>,
    /// The serialized telemetry stream, when capture was enabled.
    pub telemetry: Option<telemetry::RunStream>,
    /// Per-tenant response histograms, indexed by tenant id — empty
    /// unless [`RunOptions::tenants`] sharded the volume. Slots run up to
    /// the highest tenant id served (never past the last tenant); a
    /// histogram allocates its bucket storage on its first sample, so a
    /// slot for a tenant this array never served costs only the struct.
    pub tenant_latency: Vec<LatencyHistogram>,
}

impl RunReport {
    /// Mean response time in milliseconds.
    pub fn mean_response_ms(&self) -> f64 {
        self.response.mean() * 1e3
    }

    /// Total energy in kilojoules.
    pub fn energy_kj(&self) -> f64 {
        self.energy.total_kilojoules()
    }

    /// Energy savings vs a baseline report (fraction of baseline energy).
    pub fn savings_vs(&self, base: &RunReport) -> f64 {
        self.energy.savings_vs(&base.energy)
    }
}

#[derive(Debug, Clone)]
enum Event {
    /// The request the feed holds ready is due. The payload lives in
    /// [`Feed`], not the event, so the queue stores no requests.
    Arrival,
    DiskWake(usize, u64),
    Tick,
    Sample,
    /// Periodic write-back destage of the controller DRAM cache (only
    /// scheduled when the cache is enabled).
    Flush,
    /// The next scripted fault is due.
    Fault,
    /// Re-submit a foreground request that failed transiently. Boxed:
    /// retries only exist in fault runs, and the embedded `DiskRequest`
    /// would otherwise dominate the size of every queue entry on the
    /// hot path.
    Retry(Box<RetryPayload>),
}

#[derive(Debug, Clone, Copy)]
struct RetryPayload {
    disk: usize,
    req: DiskRequest,
}

/// `Piece::parent` of pieces that gate no volume response (parity and
/// deferred cache writes): they hold a request-id slot while in flight
/// but point at no pending volume.
const NO_PARENT: u32 = u32::MAX;

/// An in-flight foreground piece: the `gather` slot its request id names.
struct Piece {
    /// The pending volume it gates, or `NO_PARENT`.
    parent: u32,
    /// Transient-retry attempts so far; dies with the slot.
    attempts: u32,
}

impl Piece {
    fn new(parent: u32) -> Self {
        Piece {
            parent,
            attempts: 0,
        }
    }
}

struct PendingVolume {
    /// Pieces of this volume not yet dead or completed — the slot's
    /// reference count: only the last piece to die may free the slot.
    remaining: u32,
    arrival: SimTime,
    sectors: u64,
    /// Owning tenant (0 unless `RunOptions::tenants` is set).
    tenant: u32,
    /// The volume was lost (a piece died with no surviving replica); its
    /// response is never recorded, but the slot lives until the in-flight
    /// sibling pieces drain so their completions never observe a recycled
    /// slot.
    lost: bool,
}

/// Where arrivals come from: a pulled [`TraceSource`] holding exactly one
/// request ready, validated pull by pull. A materialised trace is walked
/// by a [`TraceCursor`], so every run takes this one path.
struct Feed<'a> {
    source: Box<dyn TraceSource + 'a>,
    /// The next undelivered request — the *only* buffered state, so trace
    /// memory stays O(1) however long the horizon.
    ready: Option<VolumeRequest>,
    /// Time of the last delivered request, for the monotonicity check.
    last: SimTime,
    /// Volume bound, enforced per pull.
    volume_sectors: u64,
}

/// Pulls one request from a source, enforcing the [`TraceSource`]
/// contract (nondecreasing times) and the volume bound.
fn pull_validated(
    source: &mut dyn TraceSource,
    last: &mut SimTime,
    volume_sectors: u64,
) -> Option<VolumeRequest> {
    source.next_request().inspect(|r| {
        assert!(
            r.time >= *last,
            "trace source emitted non-monotone time {:?} after {:?}",
            r.time,
            *last
        );
        assert!(
            r.sector + u64::from(r.sectors) <= volume_sectors,
            "trace source touches sector {} beyond volume of {} sectors",
            r.sector + u64::from(r.sectors),
            volume_sectors
        );
        *last = r.time;
    })
}

impl<'a> Feed<'a> {
    /// A feed with its first request pulled and validated.
    fn new(mut source: Box<dyn TraceSource + 'a>, volume_sectors: u64) -> Feed<'a> {
        let mut last = SimTime::ZERO;
        let ready = pull_validated(&mut *source, &mut last, volume_sectors);
        Feed {
            source,
            ready,
            last,
            volume_sectors,
        }
    }

    /// Time of the next undelivered request, if any.
    fn peek_time(&self) -> Option<SimTime> {
        self.ready.as_ref().map(|r| r.time)
    }

    /// Delivers the next request and readies the one after it.
    fn next_request(&mut self) -> Option<VolumeRequest> {
        let out = self.ready.take();
        if out.is_some() {
            self.ready = pull_validated(&mut *self.source, &mut self.last, self.volume_sectors);
        }
        out
    }

    /// Requests currently buffered inside the simulation: at most one.
    fn resident(&self) -> usize {
        usize::from(self.ready.is_some())
    }
}

/// The simulation driver. Construct with [`Simulation::new`] (borrowed
/// materialised trace) or [`Simulation::from_source`] (streaming), then
/// call [`Simulation::run`]. Both feed arrivals through one streaming
/// path.
pub struct Simulation<'a, P: PowerPolicy> {
    state: ArrayState,
    policy: P,
    feed: Feed<'a>,
    opts: RunOptions,
    events: EventQueue<Event>,
    scheduled: Vec<Option<SimTime>>,
    gens: Vec<u64>,
    /// In-flight pieces, keyed by the piece's request id — which *is* its
    /// slab slot, so the map never hashes.
    gather: Slab<Piece>,
    /// In-flight volumes, keyed by slab slot (the `gather` values).
    pending: Slab<PendingVolume>,
    /// Pending volumes neither completed nor lost — the report's
    /// `incomplete` count. (`pending` itself also holds lost volumes
    /// whose in-flight sibling pieces are still draining.)
    live_parents: u64,
    last_sample_energy: f64,
    chunk_scratch: Vec<ChunkId>,
    /// Reusable split buffer for [`Self::route_volume_request`]; cleared
    /// per request, so routing allocates nothing once warm.
    piece_scratch: Vec<(ChunkId, u64, u32)>,
    /// Controller DRAM cache; `None` when disabled (including capacity 0),
    /// so the request path stays exactly the pre-cache code.
    dram: Option<cache::DramCache>,
    cache_stats: cache::CacheStats,
    /// Reusable buffer for the dirty set drained by a flush batch.
    flush_scratch: Vec<u32>,
    /// Reusable buffer for dirty chunks evicted by cache insertions.
    victim_scratch: Vec<u32>,
    injector: Option<FaultInjector>,
    outcome: FaultOutcome,
    last_hazard_check: SimTime,
    events_processed: u64,
    /// `outcome.rebuild_chunks` value at the last recorded backlog drain,
    /// so a later failure's rebuild wave updates the completion time.
    rebuilds_drained: u64,
    /// Whether [`Self::start`] has run (header, policy init, event seeds).
    started: bool,
    /// Mean array power over the most recent sampling interval, watts —
    /// the observation a fleet arbiter reads between stepping segments.
    /// Reading this instead of re-integrating energy keeps the energy
    /// accrual schedule (and its float rounding) untouched by observers.
    last_power_w: f64,
    /// Per-tenant response histograms (empty without tenant sharding).
    tenant_lat: Vec<LatencyHistogram>,
}

impl<'a, P: PowerPolicy> Simulation<'a, P> {
    /// Builds a simulation of `trace` against an array described by
    /// `config`, managed by `policy`. The trace is walked by a
    /// [`TraceCursor`], exactly as [`Simulation::from_source`] would.
    ///
    /// # Panics
    /// Panics if the config is invalid; pulling panics if the trace
    /// touches sectors beyond the configured volume.
    pub fn new(config: ArrayConfig, policy: P, trace: &'a Trace, opts: RunOptions) -> Self {
        Self::from_source(config, policy, TraceCursor::new(trace), opts)
    }

    /// Builds a simulation fed by a streaming [`TraceSource`]: at most one
    /// request is buffered at a time, so trace memory is O(1) regardless
    /// of horizon. Each pulled request is validated against the volume
    /// bound and for monotone time as it arrives.
    ///
    /// # Panics
    /// Panics if the config is invalid; later, pulling panics if the
    /// source emits a request beyond the volume or out of time order.
    pub fn from_source(
        config: ArrayConfig,
        policy: P,
        source: impl TraceSource + 'a,
        opts: RunOptions,
    ) -> Self {
        config.validate().expect("invalid array config");
        let hint = source.len_hint().unwrap_or(0);
        let feed = Feed::new(Box::new(source), config.volume_sectors());
        Self::build(config, policy, feed, opts, hint)
    }

    /// Constructor body. `trace_hint` is the expected request count, used
    /// only to pre-size allocations (capacity never affects behaviour —
    /// the slabs key on insertion order).
    fn build(
        config: ArrayConfig,
        policy: P,
        feed: Feed<'a>,
        opts: RunOptions,
        trace_hint: usize,
    ) -> Self {
        if let Some(t) = opts.tenants {
            assert!(
                t.sectors > 0 && t.count > 0,
                "tenant shards must be non-empty"
            );
        }
        let mut disks: Vec<Disk> = (0..config.disks)
            .map(|i| {
                Disk::new(
                    i,
                    &config.spec,
                    config.seed.wrapping_add(i as u64),
                    config.spec.top_level(),
                )
            })
            .collect();
        let remap = RemapTable::striped(&config);
        let stats = ArrayStats::new(config.spec.num_levels(), opts.series_bucket);
        let n = config.disks;
        let injector = opts.faults.as_ref().map(FaultInjector::new);
        let recorder = match opts.telemetry.clone() {
            Some(cfg) => telemetry::Recorder::new(cfg),
            None => telemetry::Recorder::disabled(),
        };
        let mut migrator = MigrationEngine::new(opts.migration_inflight);
        if recorder.is_enabled() {
            for d in &mut disks {
                d.set_transition_recording(true);
            }
            migrator.set_recording(true);
        }
        // Pre-size from the trace: the in-flight maps hold only queued
        // work — capped so a huge trace does not balloon the warm-up
        // allocation.
        let inflight_hint = (trace_hint / 8).clamp(64, 4096);
        let dram = opts
            .cache
            .clone()
            .filter(cache::CacheConfig::is_enabled)
            .map(cache::DramCache::new);
        Simulation {
            state: ArrayState {
                config,
                disks,
                remap,
                migrator,
                stats,
                telemetry: recorder,
                wake_marks: WakeMarks::new(n),
            },
            policy,
            feed,
            opts,
            events: EventQueue::new(),
            scheduled: vec![None; n],
            gens: vec![0; n],
            gather: Slab::with_capacity(inflight_hint),
            pending: Slab::with_capacity(inflight_hint),
            live_parents: 0,
            last_sample_energy: 0.0,
            chunk_scratch: Vec::new(),
            piece_scratch: Vec::new(),
            dram,
            cache_stats: cache::CacheStats::default(),
            flush_scratch: Vec::new(),
            victim_scratch: Vec::new(),
            injector,
            outcome: FaultOutcome::default(),
            last_hazard_check: SimTime::ZERO,
            events_processed: 0,
            rebuilds_drained: 0,
            started: false,
            last_power_w: 0.0,
            tenant_lat: Vec::new(),
        }
    }

    /// Runs the simulation to the horizon and returns the report.
    pub fn run(self) -> RunReport {
        self.run_returning_policy().0
    }

    /// Like [`Simulation::run`], but also hands the policy back so callers
    /// can inspect policy-internal state (hit ratios, boost counters, …).
    pub fn run_returning_policy(mut self) -> (RunReport, P) {
        let horizon = self.opts.horizon;
        self.start();
        self.step_until(horizon);
        self.finish()
    }

    /// Emits the stream header, runs the policy's `init`, and seeds the
    /// event queue. Idempotent: [`Simulation::step_until`] calls it before
    /// the first event, so explicit calls are only useful to drivers that
    /// want setup separated from stepping.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let t0 = SimTime::ZERO;
        let header = self
            .state
            .telemetry
            .config()
            .map(|cfg| telemetry::Event::RunStart {
                time_s: 0.0,
                label: cfg.label.clone(),
                disks: self.state.config.disks as u32,
                levels: self.state.config.spec.num_levels() as u32,
                horizon_s: self.opts.horizon.as_secs(),
                migration_inflight: self.opts.migration_inflight as u32,
                sample_interval_s: self.opts.sample_interval.as_secs(),
                series_bucket_s: self.opts.series_bucket.as_secs(),
                goal_s: cfg.goal_s,
                warmup_s: cfg.warmup_s,
                seed: self.state.config.seed,
            });
        if let Some(ev) = header {
            self.state.telemetry.emit(ev);
        }
        self.policy.init(t0, &mut self.state);
        self.state.wake_marks.mark_all();
        self.resync(t0);

        if let Some(t) = self.feed.peek_time() {
            self.events.push(t, Event::Arrival);
        }
        if let Some(int) = self.policy.tick_interval() {
            self.events.push(t0 + int, Event::Tick);
        }
        self.events
            .push(t0 + self.opts.sample_interval, Event::Sample);
        if let Some(dram) = &self.dram {
            let int = SimDuration::from_secs(dram.config().flush_interval_s);
            self.events.push(t0 + int, Event::Flush);
        }
        if let Some(t) = self.injector.as_ref().and_then(|i| i.next_event_time()) {
            self.events.push(t.max(t0), Event::Fault);
        }
    }

    /// Processes every event due at or before `limit` (never beyond the
    /// run horizon) and returns `true` while the run has more to do.
    /// Beyond-`limit` events stay queued rather than being popped and
    /// re-inserted, so stepping a run in segments — the fleet driver
    /// pauses every array at each arbiter epoch — processes the exact
    /// event sequence, with the exact FIFO tie-breaking, of an unpaused
    /// [`Simulation::run`]. Call [`Simulation::finish`] once stepping is
    /// done.
    pub fn step_until(&mut self, limit: SimTime) -> bool {
        self.start();
        while let Some(t) = self.events.peek_time() {
            if t > limit {
                return true;
            }
            let (now, ev) = self.events.pop().expect("peeked event present");
            if now > self.opts.horizon {
                return false;
            }
            self.events_processed += 1;
            self.dispatch(now, ev, limit);
        }
        false
    }

    /// Handles one popped event — the body of the main loop. `limit` is
    /// the stepping bound, forwarded so batched arrival admission never
    /// runs past the segment the caller asked for.
    fn dispatch(&mut self, now: SimTime, ev: Event, limit: SimTime) {
        match ev {
            Event::Arrival => self.handle_arrival(now, limit),
            Event::DiskWake(d, gen) => self.handle_disk_wake(now, d, gen),
            Event::Tick => {
                self.policy.on_tick(now, &mut self.state);
                // The tick hook may mutate any spindle directly.
                self.state.wake_marks.mark_all();
                self.pump_migration(now);
                if let Some(int) = self.policy.tick_interval() {
                    self.events.push(now + int, Event::Tick);
                }
                self.resync(now);
            }
            Event::Sample => {
                self.take_sample(now);
                self.events
                    .push(now + self.opts.sample_interval, Event::Sample);
            }
            Event::Flush => {
                self.flush_writeback(now, false);
                if let Some(dram) = &self.dram {
                    let int = SimDuration::from_secs(dram.config().flush_interval_s);
                    self.events.push(now + int, Event::Flush);
                }
                self.pump_migration(now);
                self.resync(now);
            }
            Event::Fault => self.handle_fault_due(now),
            Event::Retry(r) => self.handle_retry(now, r.disk, r.req),
        }
    }

    /// Forwards an external power cap to the policy (see
    /// [`PowerPolicy::set_power_cap`]). Callers stepping the run should
    /// invoke this between segments, never mid-event.
    pub fn set_power_cap(&mut self, cap_w: Option<f64>) {
        self.policy.set_power_cap(cap_w);
    }

    /// Mean array power over the most recent completed sampling interval,
    /// watts (0 before the first sample). It is computed when the sample
    /// is taken — reading it accrues no energy, so observers cannot perturb
    /// the run's float stream.
    pub fn observed_power_w(&self) -> f64 {
        self.last_power_w
    }

    /// Volume requests completed so far.
    pub fn completed(&self) -> u64 {
        self.state.stats.fg_completed
    }

    /// Trace requests currently buffered inside the simulation: at most
    /// **one**, whichever constructor built it — the bounded-memory
    /// guarantee `tests/stream_equivalence.rs` asserts on a week-long run.
    /// (A borrowed trace stays with its owner; the simulation holds only a
    /// cursor into it.)
    pub fn feed_resident(&self) -> usize {
        self.feed.resident()
    }

    /// Mean foreground response so far, seconds.
    pub fn mean_response_s(&self) -> f64 {
        self.state.stats.response.mean()
    }

    // ------------------------------------------------------------------

    fn handle_arrival(&mut self, now: SimTime, limit: SimTime) {
        let mut now = now;
        loop {
            let req = self
                .feed
                .next_request()
                .expect("Arrival event with no request ready");
            // Reserve the next arrival's queue position before routing, so
            // its packed (time, seq) key orders it ahead of the wakes the
            // resync below schedules at the same instant — whether it is
            // then queued or handled inline.
            let mut next = None;
            if let Some(t) = self.feed.peek_time() {
                if t <= self.opts.horizon {
                    next = Some((t, self.events.reserve_key(t)));
                }
            }
            self.route_volume_request(now, &req);
            self.pump_migration(now);
            self.resync(now);
            let Some((t, key)) = next else { return };
            // Batched admission: when the reserved key would be the very
            // next pop anyway — smaller than everything queued and due
            // within the stepping limit — handle the arrival inline and
            // skip the queue round-trip. `events_processed` counts it
            // exactly as a pop would, so reports stay identical.
            let pops_next = self.events.peek_key().is_none_or(|k| key < k);
            if pops_next && t <= limit {
                self.events_processed += 1;
                now = t;
            } else {
                self.events.push_reserved(key, Event::Arrival);
                return;
            }
        }
    }

    /// Splits `req` at chunk boundaries and submits the per-disk pieces.
    fn route_volume_request(&mut self, now: SimTime, req: &VolumeRequest) {
        let cs = self.state.config.chunk_sectors;
        self.piece_scratch.clear();
        let mut sector = req.sector;
        let mut left = u64::from(req.sectors);
        while left > 0 {
            let chunk = ChunkId((sector / cs) as u32);
            let off = sector % cs;
            let take = left.min(cs - off);
            self.piece_scratch.push((chunk, off, take as u32));
            sector += take;
            left -= take;
        }

        // Controller DRAM layer: full read hits and writes are served
        // here without touching a spindle; a partial read hit filters
        // `piece_scratch` down to the missing pieces before routing.
        if self.dram.is_some() && self.try_dram_absorb(now, req) {
            return;
        }

        self.chunk_scratch.clear();
        self.chunk_scratch
            .extend(self.piece_scratch.iter().map(|p| p.0));
        let chunks = std::mem::take(&mut self.chunk_scratch);
        self.policy
            .on_volume_arrival(now, req, &chunks, &mut self.state);
        self.chunk_scratch = chunks;

        let parent = self.pending.insert(PendingVolume {
            remaining: self.piece_scratch.len() as u32,
            arrival: req.time,
            sectors: u64::from(req.sectors),
            tenant: self.tenant_of(req.sector),
            lost: false,
        });
        self.live_parents += 1;

        let kind = match req.kind {
            VolumeIoKind::Read => IoKind::Read,
            VolumeIoKind::Write => IoKind::Write,
        };
        // Index loop: the policy's route hook below needs `&mut self`, so
        // the scratch cannot stay borrowed across iterations.
        for i in 0..self.piece_scratch.len() {
            let (chunk, off, sectors) = self.piece_scratch[i];
            let place = self.state.remap.placement(chunk);
            let (target_disk, phys) =
                match self.policy.route(now, chunk, off, kind, &mut self.state) {
                    Some((disk, base)) => (disk, base + off),
                    None => (place.disk, u64::from(place.slot) * cs + off),
                };
            // Degraded mode: the chunk's home may be dead (its rebuild has
            // not committed yet). Serve from the surviving redundancy
            // partner, or count the volume lost if nothing survives.
            let target = if self.state.disks[target_disk.index()].has_failed() {
                match self.alive_partner(target_disk.index(), chunk) {
                    Some(p) => {
                        self.outcome.degraded_redirects += 1;
                        p
                    }
                    None => {
                        self.lose_parent(parent);
                        // This piece was never submitted: release its claim
                        // on the slot so the drain count stays honest.
                        self.release_piece(parent);
                        continue;
                    }
                }
            } else {
                target_disk.index()
            };
            let id = u64::from(self.gather.insert(Piece::new(parent)));
            let sub = DiskRequest {
                id,
                sector: phys,
                sectors,
                kind,
                class: RequestClass::Foreground,
                issue_time: now,
            };
            self.state.disks[target].submit(now, sub);
            self.state.wake_marks.mark(target);

            if kind == IoKind::Write {
                self.state.migrator.note_foreground_write(chunk);
                if self.state.config.redundancy == Redundancy::Raid5Like {
                    // Parity partner: deterministic, never the data disk,
                    // skipping over dead disks.
                    if let Some(p) = self.alive_partner(place.disk.index(), chunk) {
                        // Gathered under NO_PARENT: parity does not gate
                        // response (write-back parity), but it does consume
                        // disk time and energy.
                        let pid = u64::from(self.gather.insert(Piece::new(NO_PARENT)));
                        let parity = DiskRequest {
                            id: pid,
                            sector: phys,
                            sectors,
                            kind: IoKind::Write,
                            class: RequestClass::Foreground,
                            issue_time: now,
                        };
                        self.state.disks[p].submit(now, parity);
                        self.state.wake_marks.mark(p);
                    }
                }
            }
        }
    }

    /// Serves what the DRAM cache can of `req`. Returns `true` when the
    /// request is fully absorbed (read hit on every piece, or any write —
    /// the write-back buffer absorbs all writes and destages them later).
    /// On a partial read hit, `piece_scratch` is truncated to the missing
    /// pieces and the caller continues on the spindle path.
    fn try_dram_absorb(&mut self, now: SimTime, req: &VolumeRequest) -> bool {
        let Some(dram) = self.dram.as_mut() else {
            return false;
        };
        let hit_latency = dram.config().hit_latency_s;
        self.victim_scratch.clear();
        let absorbed = match req.kind {
            VolumeIoKind::Write => {
                for i in 0..self.piece_scratch.len() {
                    let chunk = self.piece_scratch[i].0;
                    // The chunk's on-disk copy is stale until the destage:
                    // abort any in-flight migration of it, exactly as a
                    // foreground write would.
                    self.state.migrator.note_foreground_write(chunk);
                    if let Some(victim) = dram.write(chunk.index() as u32) {
                        self.victim_scratch.push(victim);
                    }
                }
                self.cache_stats.write_absorbs += 1;
                true
            }
            VolumeIoKind::Read => {
                let mut kept = 0;
                for i in 0..self.piece_scratch.len() {
                    if !dram.lookup(self.piece_scratch[i].0.index() as u32) {
                        self.piece_scratch[kept] = self.piece_scratch[i];
                        kept += 1;
                    }
                }
                if kept == 0 {
                    self.cache_stats.read_hits += 1;
                    true
                } else {
                    self.piece_scratch.truncate(kept);
                    self.cache_stats.read_misses += 1;
                    self.state
                        .telemetry
                        .emit_with(|| telemetry::Event::CacheMiss {
                            time_s: now.as_secs(),
                            chunks: kept as u32,
                        });
                    // Promote the missed pieces so re-references hit.
                    for i in 0..kept {
                        let chunk = self.piece_scratch[i].0;
                        if let Some(victim) = dram.insert_clean(chunk.index() as u32) {
                            self.victim_scratch.push(victim);
                        }
                    }
                    false
                }
            }
        };
        if absorbed {
            // A DRAM-served request completes in-line at hit latency: it
            // counts as a completion in every response statistic, and the
            // CacheHit event stands in for RequestServed in the stream.
            self.state
                .stats
                .record_response(now, hit_latency, u64::from(req.sectors));
            let tenant = self.tenant_of(req.sector);
            self.record_tenant(tenant, hit_latency);
            self.state
                .telemetry
                .emit_with(|| telemetry::Event::CacheHit {
                    time_s: now.as_secs(),
                    latency_us: hit_latency * 1e6,
                    op: match req.kind {
                        VolumeIoKind::Read => telemetry::CacheOp::Read,
                        VolumeIoKind::Write => telemetry::CacheOp::Write,
                    },
                });
        }
        // Destage the dirty chunks that insertions squeezed out of their
        // sets — these reach the disks now, outside any flush batch.
        if !self.victim_scratch.is_empty() {
            let victims = std::mem::take(&mut self.victim_scratch);
            self.cache_stats.writebacks += victims.len() as u64;
            for &v in &victims {
                self.submit_deferred_write(now, ChunkId(v));
            }
            self.victim_scratch = victims;
            self.victim_scratch.clear();
        }
        // Absorbing writes without bound would defer unbounded disk work
        // past the horizon; a dirty cap forces an early flush.
        let over_cap = self
            .dram
            .as_ref()
            .is_some_and(|d| d.dirty_count() > d.config().max_dirty_chunks as usize);
        if over_cap {
            self.flush_writeback(now, true);
        }
        absorbed
    }

    /// Destages every dirty chunk in one batch: the periodic [`Event::Flush`]
    /// path, plus forced flushes when the dirty cap is exceeded. The batch
    /// is submitted in ascending chunk order so the event sequence is a
    /// pure function of the dirty set.
    fn flush_writeback(&mut self, now: SimTime, forced: bool) {
        let Some(dram) = self.dram.as_mut() else {
            return;
        };
        dram.drain_dirty(&mut self.flush_scratch);
        if self.flush_scratch.is_empty() {
            return;
        }
        self.cache_stats.flushes += 1;
        if forced {
            self.cache_stats.forced_flushes += 1;
        }
        self.cache_stats.flushed_chunks += self.flush_scratch.len() as u64;
        let chunks = std::mem::take(&mut self.flush_scratch);
        if self.state.telemetry.is_enabled() {
            let mut touched = vec![false; self.state.config.disks];
            for &c in &chunks {
                touched[self.state.remap.placement(ChunkId(c)).disk.index()] = true;
            }
            self.state.telemetry.emit(telemetry::Event::FlushBatch {
                time_s: now.as_secs(),
                chunks: chunks.len() as u32,
                disks: touched.iter().filter(|&&b| b).count() as u32,
                forced,
            });
        }
        for &c in &chunks {
            self.submit_deferred_write(now, ChunkId(c));
        }
        self.flush_scratch = chunks;
        self.flush_scratch.clear();
    }

    /// Submits one deferred chunk-sized write (flush destage or dirty
    /// eviction) to the spindle layer. Deferred writes take the same
    /// policy-visible path as foreground writes — the policy sees the
    /// arrival and may reroute it, per-disk arrival statistics feed the
    /// predictors, and a standby disk is woken — but, like parity writes,
    /// they gate no volume response and skip the gather map.
    fn submit_deferred_write(&mut self, now: SimTime, chunk: ChunkId) {
        let cs = self.state.config.chunk_sectors;
        let req = VolumeRequest {
            time: now,
            sector: chunk.index() as u64 * cs,
            sectors: cs as u32,
            kind: VolumeIoKind::Write,
        };
        self.chunk_scratch.clear();
        self.chunk_scratch.push(chunk);
        let chunks = std::mem::take(&mut self.chunk_scratch);
        self.policy
            .on_volume_arrival(now, &req, &chunks, &mut self.state);
        self.chunk_scratch = chunks;

        let place = self.state.remap.placement(chunk);
        let (target_disk, phys) =
            match self
                .policy
                .route(now, chunk, 0, IoKind::Write, &mut self.state)
            {
                Some((disk, base)) => (disk, base),
                None => (place.disk, u64::from(place.slot) * cs),
            };
        let target = if self.state.disks[target_disk.index()].has_failed() {
            match self.alive_partner(target_disk.index(), chunk) {
                Some(p) => {
                    self.outcome.degraded_redirects += 1;
                    p
                }
                // Nowhere alive to destage to: the write is dropped, like
                // any other foreground work stranded on a dead stripe.
                None => return,
            }
        } else {
            target_disk.index()
        };
        let id = u64::from(self.gather.insert(Piece::new(NO_PARENT)));
        let sub = DiskRequest {
            id,
            sector: phys,
            sectors: cs as u32,
            kind: IoKind::Write,
            class: RequestClass::Foreground,
            issue_time: now,
        };
        self.state.disks[target].submit(now, sub);
        self.state.wake_marks.mark(target);
        self.state.migrator.note_foreground_write(chunk);
        if self.state.config.redundancy == Redundancy::Raid5Like {
            if let Some(p) = self.alive_partner(place.disk.index(), chunk) {
                let pid = u64::from(self.gather.insert(Piece::new(NO_PARENT)));
                let parity = DiskRequest {
                    id: pid,
                    sector: phys,
                    sectors: cs as u32,
                    kind: IoKind::Write,
                    class: RequestClass::Foreground,
                    issue_time: now,
                };
                self.state.disks[p].submit(now, parity);
                self.state.wake_marks.mark(p);
            }
        }
    }

    /// The first live disk on `chunk`'s redundancy walk, starting at its
    /// deterministic parity partner and skipping dead disks and `d` itself.
    /// `None` without RAID-5-like redundancy or when nothing survives.
    fn alive_partner(&self, d: usize, chunk: ChunkId) -> Option<usize> {
        let n = self.state.config.disks;
        if self.state.config.redundancy != Redundancy::Raid5Like || n < 2 {
            return None;
        }
        let base = (d + 1 + chunk.index() % (n - 1)) % n;
        (0..n)
            .map(|k| (base + k) % n)
            .find(|&p| p != d && !self.state.disks[p].has_failed())
    }

    /// Abandons volume `parent`: its response can never be recorded.
    /// Counted once per volume. The slot itself is freed only when the
    /// last in-flight sibling piece dies (see [`Self::release_piece`] and
    /// the drain in [`Self::complete_foreground`]), so a completion racing
    /// the loss can never observe a recycled slot.
    fn lose_parent(&mut self, parent: u32) {
        if let Some(p) = self.pending.get_mut(parent) {
            if !p.lost {
                p.lost = true;
                self.live_parents -= 1;
                self.outcome.lost_requests += 1;
            }
        }
    }

    /// Releases one piece's claim on `parent` without completing it — the
    /// piece died (dropped on a dead stripe, exhausted its retries, or was
    /// never submitted at all). The last claim frees the slot.
    fn release_piece(&mut self, parent: u32) {
        if let Some(p) = self.pending.get_mut(parent) {
            p.remaining -= 1;
            if p.remaining == 0 {
                self.pending.remove(parent);
            }
        }
    }

    fn handle_disk_wake(&mut self, now: SimTime, d: usize, gen: u64) {
        if self.gens[d] != gen {
            return; // superseded
        }
        let completion = self.state.disks[d].poll_event(now);
        self.state.wake_marks.mark(d);
        if let Some(comp) = completion {
            match comp.request.class {
                RequestClass::Migration => {
                    let follow =
                        self.state
                            .migrator
                            .on_completion(now, &comp, &mut self.state.remap);
                    for (disk, req) in follow {
                        self.state.disks[disk.index()].submit(now, req);
                        self.state.wake_marks.mark(disk.index());
                    }
                }
                RequestClass::Foreground => {
                    // Transient-error model: the completion may come back
                    // bad and need a retry (bounded, with linear backoff).
                    let mut retried = false;
                    if let Some(inj) = self.injector.as_mut() {
                        if inj.transient_error(now, comp.disk) {
                            self.outcome.transient_errors += 1;
                            let piece = self
                                .gather
                                .get_mut(comp.request.id as u32)
                                .expect("a foreground piece holds its gather slot until it dies");
                            let cfg = inj.config();
                            if piece.attempts < cfg.max_retries {
                                piece.attempts += 1;
                                let delay = f64::from(piece.attempts) * cfg.retry_backoff_s;
                                self.outcome.retries += 1;
                                self.events.push(
                                    now + SimDuration::from_secs(delay),
                                    Event::Retry(Box::new(RetryPayload {
                                        disk: comp.disk,
                                        req: comp.request,
                                    })),
                                );
                            } else {
                                // Retries exhausted: the piece is lost.
                                let parent = piece.parent;
                                self.gather.remove(comp.request.id as u32);
                                if parent != NO_PARENT {
                                    self.lose_parent(parent);
                                    self.release_piece(parent);
                                }
                            }
                            retried = true;
                        }
                    }
                    if !retried {
                        self.complete_foreground(now, &comp);
                    }
                }
            }
        }
        self.pump_migration(now);
        self.note_rebuild_progress(now);
        self.resync(now);
    }

    /// Books a good foreground completion: service stats, volume gather,
    /// telemetry, and the policy's completion hook.
    fn complete_foreground(&mut self, now: SimTime, comp: &diskmodel::Completion) {
        self.state.stats.service.record(comp.service_s);
        let volume_response = self
            .gather
            .remove(comp.request.id as u32)
            .map(|piece| piece.parent)
            .and_then(|parent| {
                // Parity and deferred cache writes consume disk time but
                // gate no volume response.
                if parent == NO_PARENT {
                    return None;
                }
                let done = {
                    let p = self
                        .pending
                        .get_mut(parent)
                        .expect("parent slot lives until its last piece dies");
                    p.remaining -= 1;
                    p.remaining == 0
                };
                if !done {
                    return None;
                }
                let p = self.pending.remove(parent).expect("checked live above");
                // A lost volume (disk failure with no surviving replica, or
                // an exhausted retry on a sibling piece) still drains its
                // in-flight pieces; only the drain frees the slot, and no
                // response is ever recorded for it.
                if p.lost {
                    return None;
                }
                self.live_parents -= 1;
                let resp = now.saturating_since(p.arrival).as_secs();
                self.state.stats.record_response(now, resp, p.sectors);
                self.record_tenant(p.tenant, resp);
                Some(resp)
            });
        if let Some(resp) = volume_response {
            if self.state.telemetry.is_enabled() {
                let disk = &self.state.disks[comp.disk];
                let tier = if disk.is_standby() {
                    telemetry::STANDBY
                } else {
                    disk.effective_level().index() as telemetry::Tier
                };
                self.state.telemetry.emit(telemetry::Event::RequestServed {
                    time_s: now.as_secs(),
                    latency_us: resp * 1e6,
                    disk: comp.disk as u32,
                    tier,
                });
            }
        }
        self.policy
            .on_completion(now, comp, volume_response, &mut self.state);
    }

    fn pump_migration(&mut self, now: SimTime) {
        let reqs = self.state.migrator.pump(now, &mut self.state.remap);
        for (disk, req) in reqs {
            self.state.disks[disk.index()].submit(now, req);
            self.state.wake_marks.mark(disk.index());
        }
    }

    /// Applies every scripted fault due at `now`, then schedules the next.
    fn handle_fault_due(&mut self, now: SimTime) {
        let Some(inj) = self.injector.as_mut() else {
            return;
        };
        let due = inj.pop_due(now);
        for ev in due {
            // Disk failures are tagged inside `fail_disk` (which also
            // covers hazard-model failures); tag the window faults here.
            if !matches!(ev.kind, FaultKind::DiskFailure) {
                self.state
                    .telemetry
                    .emit_with(|| telemetry::Event::FaultInjected {
                        time_s: now.as_secs(),
                        disk: ev.disk as u32,
                        kind: ev.kind.label(),
                    });
            }
            match ev.kind {
                FaultKind::TransientBurst {
                    error_prob,
                    duration_s,
                } => {
                    let until = ev.time + SimDuration::from_secs(duration_s);
                    self.injector
                        .as_mut()
                        .expect("injector present")
                        .note_burst(ev.disk, error_prob, until);
                }
                FaultKind::SlowTransition { factor, duration_s } => {
                    let until = ev.time + SimDuration::from_secs(duration_s);
                    self.state.disks[ev.disk].set_slow_transitions(factor, until);
                    self.state.wake_marks.mark(ev.disk);
                }
                FaultKind::DiskFailure => self.fail_disk(now, ev.disk),
            }
        }
        if let Some(t) = self.injector.as_ref().and_then(|i| i.next_event_time()) {
            self.events.push(t.max(now), Event::Fault);
        }
        self.pump_migration(now);
        self.note_rebuild_progress(now);
        self.resync(now);
    }

    /// Whole-disk failure: drain the disk, tear down and re-target
    /// migrations, redirect or lose stranded foreground work, queue rebuild
    /// traffic for every chunk that lived there, then let the policy adapt.
    fn fail_disk(&mut self, now: SimTime, d: usize) {
        if self.state.disks[d].has_failed() {
            return;
        }
        self.outcome.disk_failures += 1;
        if self.outcome.first_failure_s.is_none() {
            self.outcome.first_failure_s = Some(now.as_secs());
        }
        self.state
            .telemetry
            .emit_with(|| telemetry::Event::FaultInjected {
                time_s: now.as_secs(),
                disk: d as u32,
                kind: "disk_failure",
            });

        let dropped = self.state.disks[d].fail(now);
        let retarget = self
            .state
            .migrator
            .note_disk_failed(now, DiskId(d), &mut self.state.remap);

        // Stranded foreground requests: re-aim at the surviving redundancy
        // partner (the request id survives, so the volume gather still
        // works), or count the volume lost.
        let cs = self.state.remap.chunk_sectors();
        for req in dropped {
            if req.class != RequestClass::Foreground {
                continue; // migration pieces were handled by the engine
            }
            let Some(&Piece { parent, .. }) = self.gather.get(req.id as u32) else {
                continue;
            };
            if parent == NO_PARENT {
                // Parity or deferred write: consumed load only, nothing
                // gates on it — free its slot (and retry count) and drop it.
                self.gather.remove(req.id as u32);
                continue;
            }
            let slot = (req.sector / cs) as u32;
            let partner = self
                .state
                .remap
                .chunk_at(DiskId(d), slot)
                .and_then(|chunk| self.alive_partner(d, chunk));
            match partner {
                Some(p) => {
                    self.outcome.degraded_redirects += 1;
                    self.state.disks[p].submit(now, req);
                }
                None => {
                    self.gather.remove(req.id as u32);
                    self.lose_parent(parent);
                    self.release_piece(parent);
                }
            }
        }

        // Every chunk whose home just died needs a new one, rebuilt from
        // its surviving partner. Re-targeted jobs from the engine join the
        // same queue with fresh src/dst choices.
        let mut rebuilds = Vec::new();
        for chunk in self.state.remap.chunks_on(DiskId(d)) {
            if let Some(job) = self.plan_rebuild(chunk, d) {
                rebuilds.push(job);
            }
        }
        for job in retarget {
            if let MigrationJob::Rebuild { chunk, .. } = job {
                let home = self.state.remap.disk_of(chunk).index();
                if let Some(j) = self.plan_rebuild(chunk, home) {
                    rebuilds.push(j);
                }
            }
        }
        self.outcome.rebuild_chunks += rebuilds.len() as u64;
        self.state.migrator.enqueue_rebuild(rebuilds);

        self.policy.on_disk_failure(now, d, &mut self.state);
        // A failure touches the dead disk, redirect targets, and whatever
        // the policy just re-planned; failures are rare, so mark everything.
        self.state.wake_marks.mark_all();
    }

    /// Chooses src (surviving redundancy partner) and dst (least-occupied
    /// live disk) for rebuilding `chunk`, whose home `home` is dead.
    fn plan_rebuild(&self, chunk: ChunkId, home: usize) -> Option<MigrationJob> {
        let src = self.alive_partner(home, chunk)?;
        let dst = (0..self.state.disks.len())
            .filter(|&p| p != home && !self.state.disks[p].has_failed())
            .filter(|&p| self.state.remap.has_free_slot(DiskId(p)))
            .min_by_key(|&p| self.state.remap.occupancy(DiskId(p)))?;
        Some(MigrationJob::Rebuild {
            chunk,
            src: DiskId(src),
            dst: DiskId(dst),
        })
    }

    /// Marks the instant the rebuild backlog drains. Re-arms whenever a
    /// later failure queues more rebuilds, so the recorded time is always
    /// the commit of the *last* queued rebuild.
    fn note_rebuild_progress(&mut self, now: SimTime) {
        if self.outcome.rebuild_chunks > self.rebuilds_drained
            && self.state.migrator.rebuild_outstanding() == 0
        {
            self.outcome.rebuild_completed_s = Some(now.as_secs());
            self.rebuilds_drained = self.outcome.rebuild_chunks;
        }
    }

    /// Re-submits a transiently failed request, re-aiming it if its disk
    /// died while the retry was waiting.
    fn handle_retry(&mut self, now: SimTime, disk: usize, req: DiskRequest) {
        if self.state.disks[disk].has_failed() {
            let cs = self.state.remap.chunk_sectors();
            let slot = (req.sector / cs) as u32;
            let partner = self
                .state
                .remap
                .chunk_at(DiskId(disk), slot)
                .and_then(|chunk| self.alive_partner(disk, chunk));
            match partner {
                Some(p) => {
                    self.outcome.degraded_redirects += 1;
                    self.state.disks[p].submit(now, req);
                    self.state.wake_marks.mark(p);
                }
                None => {
                    if let Some(Piece { parent, .. }) = self.gather.remove(req.id as u32) {
                        if parent != NO_PARENT {
                            self.lose_parent(parent);
                            self.release_piece(parent);
                        }
                    }
                }
            }
        } else {
            self.state.disks[disk].submit(now, req);
            self.state.wake_marks.mark(disk);
        }
        self.resync(now);
    }

    fn take_sample(&mut self, now: SimTime) {
        let total = self.state.total_energy(now).total_joules();
        let dt = self.opts.sample_interval.as_secs();
        let watts = (total - self.last_sample_energy) / dt;
        self.last_sample_energy = total;
        self.last_power_w = watts;
        let counts = self.state.level_counts();
        self.state.stats.record_power_sample(now, watts, &counts);
        if self.state.telemetry.is_enabled() {
            self.state.telemetry.emit(telemetry::Event::PowerSample {
                time_s: now.as_secs(),
                watts,
            });
            for i in 0..self.state.disks.len() {
                let depth = self.state.disks[i].queue_len() as f64;
                self.state.telemetry.record_queue_depth(depth);
            }
        }

        // Online wear-scaled failure hazard, evaluated at sampling cadence
        // over each disk's up-to-date ledger.
        let failures = match self.injector.as_mut() {
            Some(inj) if inj.config().base_failure_rate_per_hour > 0.0 => {
                let ledgers: Vec<ReliabilityLedger> = self
                    .state
                    .disks
                    .iter_mut()
                    .map(|d| d.reliability(now))
                    .collect();
                inj.hazard_failures(self.last_hazard_check, now, &ledgers)
            }
            _ => Vec::new(),
        };
        self.last_hazard_check = now;
        if !failures.is_empty() {
            for d in failures {
                self.fail_disk(now, d);
            }
            self.pump_migration(now);
            self.resync(now);
        }
    }

    /// The tenant owning `sector` under the run's tenant sharding (0 when
    /// tenant accounting is off).
    #[inline]
    fn tenant_of(&self, sector: u64) -> u32 {
        self.opts.tenants.map_or(0, |t| {
            workload::tenants::tenant_of(sector, t.sectors, t.count)
        })
    }

    /// Books one completed response into its tenant's histogram. No-op
    /// without tenant sharding. Slots grow on first touch up to the
    /// highest tenant id seen; a slot for a tenant never served costs only
    /// the histogram struct, since buckets are allocated on first sample.
    #[inline]
    fn record_tenant(&mut self, tenant: u32, resp_s: f64) {
        if self.opts.tenants.is_none() {
            return;
        }
        let ix = tenant as usize;
        if self.tenant_lat.len() <= ix {
            self.tenant_lat
                .resize_with(ix + 1, LatencyHistogram::new_latency);
        }
        self.tenant_lat[ix].record(resp_s);
    }

    /// Re-synchronises scheduled disk wakes.
    ///
    /// Incremental: only disks marked dirty since the last resync are
    /// visited, in ascending index order. A disk whose wake actually
    /// changed is always a subset of the marked disks (handlers mark every
    /// disk they touch; unchanged marked disks are no-ops), and index order
    /// matches a full scan — so the push sequence into the event queue, and
    /// with it FIFO tie-breaking among same-time wakes, is the full scan's.
    /// Debug builds verify the subset property after every drain.
    fn resync(&mut self, now: SimTime) {
        let mut marks = std::mem::take(&mut self.state.wake_marks);
        marks.drain_sorted(|d| self.resync_disk(d, now));
        self.state.wake_marks = marks;
        #[cfg(debug_assertions)]
        self.assert_wakes_synced();
        self.drain_instrument_logs();
    }

    /// Refreshes one disk's scheduled wake if its next event time moved.
    #[inline]
    fn resync_disk(&mut self, d: usize, now: SimTime) {
        let t = self.state.disks[d].next_event_time();
        if t != self.scheduled[d] {
            self.scheduled[d] = t;
            self.gens[d] += 1;
            if let Some(t) = t {
                self.events
                    .push(t.max(now), Event::DiskWake(d, self.gens[d]));
            }
        }
    }

    /// Debug cross-check: after an incremental resync, no disk may have a
    /// wake time differing from its scheduled one — that would mean a
    /// handler mutated a disk without marking it.
    #[cfg(debug_assertions)]
    fn assert_wakes_synced(&self) {
        for d in 0..self.state.disks.len() {
            assert_eq!(
                self.state.disks[d].next_event_time(),
                self.scheduled[d],
                "dirty-disk tracking missed disk {d}: a handler changed its state without \
                 marking it (per-event policy hooks must use ArrayState::request_speed)"
            );
        }
    }

    /// Forwards instrument-local logs (per-disk transition records, then
    /// migration lifecycle records, in disk-index/engine order) into the
    /// telemetry stream. Every driver handler ends in [`Self::resync`],
    /// which calls this, so the logs only ever hold records stamped with
    /// the current event time — the stream stays time-ordered. No-op (one
    /// branch) when telemetry is disabled.
    fn drain_instrument_logs(&mut self) {
        if !self.state.telemetry.is_enabled() {
            return;
        }
        use crate::migration::MigrationRecordKind as MK;
        use diskmodel::TransitionCause;
        for d in 0..self.state.disks.len() {
            for r in self.state.disks[d].drain_transitions() {
                self.state
                    .telemetry
                    .emit(telemetry::Event::SpeedTransition {
                        time_s: r.time_s,
                        disk: d as u32,
                        from: r.from,
                        to: r.to,
                        reason: match r.cause {
                            TransitionCause::Policy => telemetry::TransitionReason::Policy,
                            TransitionCause::DemandWake => telemetry::TransitionReason::DemandWake,
                            TransitionCause::Latched => telemetry::TransitionReason::Latched,
                        },
                        stretched: r.stretched,
                    });
            }
        }
        for r in self.state.migrator.drain_records() {
            let ev = match r.kind {
                MK::Started { chunk, src, dst } => telemetry::Event::MigrationStarted {
                    time_s: r.time_s,
                    job: r.job,
                    chunk,
                    src,
                    dst,
                },
                MK::Moved {
                    chunk,
                    src,
                    dst,
                    bytes,
                    kind,
                } => telemetry::Event::MigrationMoved {
                    time_s: r.time_s,
                    job: r.job,
                    chunk,
                    src,
                    dst,
                    bytes,
                    kind,
                },
                MK::Aborted { chunk } => telemetry::Event::MigrationAborted {
                    time_s: r.time_s,
                    job: r.job,
                    chunk,
                },
                MK::Dropped { chunk } => telemetry::Event::MigrationDropped {
                    time_s: r.time_s,
                    job: r.job,
                    chunk,
                },
            };
            self.state.telemetry.emit(ev);
        }
    }

    /// Accrues energy to the horizon, closes the telemetry stream, and
    /// produces the report. The terminal half of
    /// [`Simulation::run_returning_policy`]; drivers using
    /// [`Simulation::step_until`] call it once stepping is done.
    pub fn finish(mut self) -> (RunReport, P) {
        let horizon = self.opts.horizon;
        self.drain_instrument_logs();
        let per_disk_energy: Vec<EnergyLedger> = self
            .state
            .disks
            .iter_mut()
            .map(|d| d.energy(horizon))
            .collect();
        let mut energy = EnergyLedger::new();
        for e in &per_disk_energy {
            energy.merge(e);
        }
        let transitions = self.state.disks.iter().map(|d| d.stats().transitions).sum();
        let reliability: Vec<ReliabilityLedger> = self
            .state
            .disks
            .iter_mut()
            .map(|d| d.reliability(horizon))
            .collect();
        self.outcome.slow_transition_events = self
            .state
            .disks
            .iter()
            .map(|d| d.stats().slow_transitions)
            .sum();

        // Close out the telemetry stream: per-disk summaries, then the
        // whole-run trailer the auditor reconciles everything against.
        let mut recorder = std::mem::take(&mut self.state.telemetry);
        if recorder.is_enabled() {
            let t = horizon.as_secs();
            let components = |e: &EnergyLedger| {
                let mut out = [0.0f64; 6];
                for (k, c) in simkit::EnergyComponent::ALL.iter().enumerate() {
                    out[k] = e.joules(*c);
                }
                out
            };
            if self.dram.is_some() {
                let cs = self.cache_stats;
                recorder.emit(telemetry::Event::CacheSummary {
                    time_s: t,
                    read_hits: cs.read_hits,
                    read_misses: cs.read_misses,
                    write_absorbs: cs.write_absorbs,
                    writebacks: cs.writebacks,
                    flushes: cs.flushes,
                    flushed_chunks: cs.flushed_chunks,
                });
            }
            for (i, e) in per_disk_energy.iter().enumerate() {
                recorder.emit(telemetry::Event::DiskSummary {
                    time_s: t,
                    disk: i as u32,
                    energy_j: components(e),
                    transitions: self.state.disks[i].stats().transitions,
                    failed_at_s: reliability[i].failed_at_s,
                });
            }
            let (goal_s, warmup_s) = recorder
                .config()
                .map(|c| (c.goal_s, c.warmup_s))
                .expect("enabled recorder has a config");
            // Recompute the goal-violation fraction exactly as the
            // experiment harness does (see repro's `violation_fraction`):
            // a bucket counts only if it lies entirely past the warm-up.
            let series = &self.state.stats.response_series;
            let half_width = series.bucket_width().as_secs() / 2.0;
            let (mut kept, mut over) = (0u64, 0u64);
            for (mid, mean) in series.mean_points() {
                if mid - half_width < warmup_s {
                    continue;
                }
                kept += 1;
                if mean > goal_s {
                    over += 1;
                }
            }
            let violation = if kept == 0 {
                0.0
            } else {
                over as f64 / kept as f64
            };
            let (latency_hist, latency_overflow) = recorder
                .latency_hist()
                .map(|h| (h.counts().to_vec(), h.overflow()))
                .unwrap_or_default();
            let (queue_hist, queue_overflow) = recorder
                .queue_hist()
                .map(|h| (h.counts().to_vec(), h.overflow()))
                .unwrap_or_default();
            let mig = self.state.migrator.stats();
            recorder.emit(telemetry::Event::RunSummary {
                time_s: t,
                total_j: energy.total_joules(),
                energy_j: components(&energy),
                completed: self.state.stats.fg_completed,
                incomplete: self.live_parents,
                transitions,
                mean_response_s: self.state.stats.response.mean(),
                violation,
                latency_hist,
                latency_overflow,
                queue_hist,
                queue_overflow,
                moved: mig.committed + mig.rebuilt + mig.raw_writes,
                remap_version: self.state.remap.version(),
                dropped: recorder.dropped(),
            });
        }

        let stats = self.state.stats;
        let policy = self.policy;
        let report = RunReport {
            policy: policy.name().to_string(),
            energy,
            per_disk_energy,
            response: stats.response,
            service: stats.service,
            response_hist: stats.response_hist,
            response_series: stats.response_series,
            power_series: stats.power_series,
            level_series: stats.level_series,
            completed: stats.fg_completed,
            incomplete: self.live_parents,
            fg_sectors: stats.fg_sectors,
            migration: self.state.migrator.stats(),
            transitions,
            reliability,
            faults: self.outcome,
            horizon,
            events_processed: self.events_processed,
            cache: self.dram.is_some().then_some(self.cache_stats),
            telemetry: recorder.into_stream(),
            tenant_latency: self.tenant_lat,
        };
        (report, policy)
    }
}

/// Convenience wrapper: build and run in one call.
///
/// # Examples
/// ```
/// use array::{run_policy, ArrayConfig, BasePolicy, RunOptions};
/// use workload::WorkloadSpec;
///
/// let trace = WorkloadSpec::oltp(30.0, 10.0).generate(1);
/// let config = ArrayConfig::default_for_volume(16 << 30);
/// let report = run_policy(config, BasePolicy, &trace, RunOptions::for_horizon(60.0));
/// assert_eq!(report.completed as usize, trace.len());
/// assert!(report.energy.total_joules() > 0.0);
/// ```
pub fn run_policy<P: PowerPolicy + Send>(
    config: ArrayConfig,
    policy: P,
    trace: &Trace,
    opts: RunOptions,
) -> RunReport {
    Simulation::new(config, policy, trace, opts).run()
}

/// Like [`run_policy`], but fed by a streaming [`TraceSource`]: trace
/// memory stays O(1) however long the horizon. Bit-identical to
/// [`run_policy`] over a source yielding the same requests.
///
/// # Examples
/// ```
/// use array::{run_policy, run_policy_streamed, ArrayConfig, BasePolicy, RunOptions};
/// use workload::WorkloadSpec;
///
/// let spec = WorkloadSpec::oltp(30.0, 10.0);
/// let config = ArrayConfig::default_for_volume(16 << 30);
/// let streamed = run_policy_streamed(
///     config.clone(),
///     BasePolicy,
///     spec.stream(1),
///     RunOptions::for_horizon(60.0),
/// );
/// let trace = spec.generate(1);
/// let batch = run_policy(config, BasePolicy, &trace, RunOptions::for_horizon(60.0));
/// assert_eq!(streamed.completed, batch.completed);
/// ```
pub fn run_policy_streamed<P: PowerPolicy + Send>(
    config: ArrayConfig,
    policy: P,
    source: impl TraceSource,
    opts: RunOptions,
) -> RunReport {
    Simulation::from_source(config, policy, source, opts).run()
}

// The parallel experiment harness farms runs out to worker threads and
// shares the inputs/outputs across them: `run_policy` is the entry point
// it calls from workers (hence `P: Send` above), traces are shared
// read-only, and reports are published behind `Arc`. Keep these
// compile-time proofs next to the entry point so a field that silently
// loses thread-safety fails here, not in the harness.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<RunReport>();
    assert_send_sync::<Trace>();
    assert_send_sync::<RunOptions>();
    assert_send_sync::<ArrayConfig>();
    // The fleet driver moves whole paused simulations into Pool workers
    // (one segment per arbiter epoch), so the driver itself must be Send.
    const fn assert_send<T: Send>() {}
    assert_send::<Simulation<'static, crate::policy::BasePolicy>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::BasePolicy;
    use crate::MigrationJob;
    use diskmodel::{PowerModel, SpeedLevel, SpinTarget};
    use workload::WorkloadSpec;

    fn small_config() -> ArrayConfig {
        let mut c = ArrayConfig::default_for_volume(1 << 30); // 1 GiB volume
        c.disks = 4;
        c
    }

    fn small_trace(duration: f64, rate: f64) -> Trace {
        let mut spec = WorkloadSpec::oltp(duration, rate);
        spec.extents = 1000;
        spec.extent_sectors = 2048; // ~1 GiB footprint
        spec.generate(1)
    }

    #[test]
    fn base_policy_completes_everything() {
        let trace = small_trace(60.0, 20.0);
        let n = trace.len() as u64;
        let report = run_policy(
            small_config(),
            BasePolicy,
            &trace,
            RunOptions::for_horizon(120.0),
        );
        assert_eq!(report.completed, n);
        assert_eq!(report.incomplete, 0);
        assert!(report.response.mean() > 0.0);
        assert!(
            report.response.mean() < 0.1,
            "mean {} s",
            report.response.mean()
        );
    }

    #[test]
    fn energy_close_to_idle_analytic_at_light_load() {
        let trace = small_trace(60.0, 1.0);
        let report = run_policy(
            small_config(),
            BasePolicy,
            &trace,
            RunOptions::for_horizon(600.0),
        );
        let pm = PowerModel::new(&small_config().spec);
        let idle = pm.idle_w(SpeedLevel(5)) * 600.0 * 4.0;
        let total = report.energy.total_joules();
        assert!(total >= idle, "must include service energy");
        assert!(total < idle * 1.05, "total {total} idle {idle}");
    }

    #[test]
    fn deterministic_runs() {
        let trace = small_trace(30.0, 50.0);
        let run = || {
            let r = run_policy(
                small_config(),
                BasePolicy,
                &trace,
                RunOptions::for_horizon(60.0),
            );
            (
                r.completed,
                r.energy.total_joules(),
                r.response.mean(),
                r.response.raw_second_moment(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn chunk_spanning_requests_touch_two_disks() {
        let mut config = small_config();
        config.volume_chunks = 8;
        // One request straddling the chunk 0 / chunk 1 boundary.
        let trace = Trace::from_requests(vec![workload::VolumeRequest {
            time: SimTime::from_secs(1.0),
            sector: config.chunk_sectors - 8,
            sectors: 16,
            kind: VolumeIoKind::Read,
        }]);
        let report = run_policy(config, BasePolicy, &trace, RunOptions::for_horizon(10.0));
        assert_eq!(report.completed, 1);
        assert_eq!(report.fg_sectors, 16);
    }

    #[test]
    fn raid5_writes_add_parity_load() {
        let mk_trace = || {
            Trace::from_requests(
                (0..100)
                    .map(|i| workload::VolumeRequest {
                        time: SimTime::from_secs(0.1 * i as f64),
                        sector: (i * 4096) % 2_000_000,
                        sectors: 16,
                        kind: VolumeIoKind::Write,
                    })
                    .collect(),
            )
        };
        let mut plain_cfg = small_config();
        plain_cfg.redundancy = Redundancy::None;
        let plain = run_policy(
            plain_cfg,
            BasePolicy,
            &mk_trace(),
            RunOptions::for_horizon(30.0),
        );
        let mut raid_cfg = small_config();
        raid_cfg.redundancy = Redundancy::Raid5Like;
        let raid = run_policy(
            raid_cfg,
            BasePolicy,
            &mk_trace(),
            RunOptions::for_horizon(30.0),
        );
        // Parity doubles the write traffic's energy footprint at the disks.
        let seek_xfer = |r: &RunReport| {
            r.energy.joules(simkit::EnergyComponent::Seek)
                + r.energy.joules(simkit::EnergyComponent::Transfer)
        };
        assert!(
            seek_xfer(&raid) > seek_xfer(&plain) * 1.6,
            "raid {} plain {}",
            seek_xfer(&raid),
            seek_xfer(&plain)
        );
        // But response time (write-back parity) is not doubled.
        assert!(raid.response.mean() < plain.response.mean() * 2.0);
    }

    #[test]
    fn sample_series_cover_horizon() {
        let trace = small_trace(120.0, 10.0);
        let report = run_policy(
            small_config(),
            BasePolicy,
            &trace,
            RunOptions::for_horizon(300.0),
        );
        let pts = report.power_series.mean_points();
        assert!(pts.len() >= 4, "power series too sparse: {}", pts.len());
        // All disks at top level throughout.
        let top = &report.level_series[5];
        for (_, v) in top.mean_points() {
            assert_eq!(v, 4.0);
        }
    }

    /// A throwaway policy that spins half the array down at init and
    /// requests one migration.
    struct HalfDown;
    impl PowerPolicy for HalfDown {
        fn name(&self) -> &str {
            "HalfDown"
        }
        fn init(&mut self, now: SimTime, state: &mut ArrayState) {
            let n = state.disks.len();
            for d in 0..n / 2 {
                state.disks[d].request_speed(now, SpinTarget::Level(SpeedLevel(0)));
            }
            state.migrator.enqueue([MigrationJob::Relocate {
                chunk: ChunkId(0),
                dst: DiskId(n - 1),
            }]);
        }
        fn tick_interval(&self) -> Option<SimDuration> {
            Some(SimDuration::from_secs(10.0))
        }
    }

    #[test]
    fn policy_speed_changes_and_migration_execute() {
        let trace = small_trace(60.0, 5.0);
        let config = small_config();
        let mut sim = Simulation::new(config, HalfDown, &trace, RunOptions::for_horizon(120.0));
        sim.policy.init(SimTime::ZERO, &mut sim.state); // warm check only
        let report = run_policy(
            small_config(),
            HalfDown,
            &trace,
            RunOptions::for_horizon(120.0),
        );
        assert!(report.migration.committed >= 1, "migration must commit");
        assert!(
            report.energy.joules(simkit::EnergyComponent::Migration) > 0.0,
            "migration energy must be attributed"
        );
        assert!(report.transitions >= 2);
        // Energy lower than all-full-speed baseline.
        let base = run_policy(
            small_config(),
            BasePolicy,
            &trace,
            RunOptions::for_horizon(120.0),
        );
        assert!(report.energy.total_joules() < base.energy.total_joules());
        assert_eq!(report.completed, base.completed);
    }

    #[test]
    fn response_degrades_at_lower_speed() {
        struct AllSlow;
        impl PowerPolicy for AllSlow {
            fn name(&self) -> &str {
                "AllSlow"
            }
            fn init(&mut self, now: SimTime, state: &mut ArrayState) {
                for d in &mut state.disks {
                    d.request_speed(now, SpinTarget::Level(SpeedLevel(0)));
                }
            }
        }
        let trace = small_trace(120.0, 20.0);
        let slow = run_policy(
            small_config(),
            AllSlow,
            &trace,
            RunOptions::for_horizon(240.0),
        );
        let fast = run_policy(
            small_config(),
            BasePolicy,
            &trace,
            RunOptions::for_horizon(240.0),
        );
        assert!(
            slow.response.mean() > fast.response.mean() * 1.3,
            "slow {} fast {}",
            slow.response.mean(),
            fast.response.mean()
        );
        assert!(slow.energy.total_joules() < fast.energy.total_joules());
    }

    #[test]
    fn horizon_truncates_cleanly() {
        let trace = small_trace(600.0, 20.0);
        let report = run_policy(
            small_config(),
            BasePolicy,
            &trace,
            RunOptions::for_horizon(60.0),
        );
        let expected: u64 = trace
            .requests
            .iter()
            .filter(|r| r.time.as_secs() < 59.0)
            .count() as u64;
        assert!(report.completed >= expected.saturating_sub(5));
        assert!(report.horizon == SimTime::from_secs(60.0));
    }

    #[test]
    fn dram_cache_serves_repeat_reads_and_destages_writes() {
        // Ten reads of one chunk, then a write to it: the first read
        // misses and promotes, the rest hit; the write is absorbed and a
        // later flush destages it.
        let mut reqs: Vec<workload::VolumeRequest> = (0..10)
            .map(|i| workload::VolumeRequest {
                time: SimTime::from_secs(1.0 + i as f64),
                sector: 0,
                sectors: 8,
                kind: VolumeIoKind::Read,
            })
            .collect();
        reqs.push(workload::VolumeRequest {
            time: SimTime::from_secs(12.0),
            sector: 0,
            sectors: 8,
            kind: VolumeIoKind::Write,
        });
        let trace = Trace::from_requests(reqs);
        let mut opts = RunOptions::for_horizon(100.0);
        opts.cache = Some(cache::CacheConfig::with_capacity(64));
        let report = run_policy(small_config(), BasePolicy, &trace, opts);
        let stats = report.cache.expect("cache enabled");
        assert_eq!(report.completed, 11);
        assert_eq!(report.incomplete, 0);
        assert_eq!(stats.read_misses, 1, "only the cold read misses");
        assert_eq!(stats.read_hits, 9);
        assert_eq!(stats.write_absorbs, 1);
        assert_eq!(stats.flushes, 1, "one periodic flush destages the write");
        assert_eq!(stats.flushed_chunks, 1);
        // Hits complete at DRAM latency, far under a disk access.
        assert!(
            report.response.mean() < 0.005,
            "mean {} s",
            report.response.mean()
        );
    }

    #[test]
    fn zero_capacity_cache_is_fully_disabled() {
        let trace = small_trace(60.0, 20.0);
        let plain = run_policy(
            small_config(),
            BasePolicy,
            &trace,
            RunOptions::for_horizon(120.0),
        );
        let mut opts = RunOptions::for_horizon(120.0);
        opts.cache = Some(cache::CacheConfig::with_capacity(0));
        let zero = run_policy(small_config(), BasePolicy, &trace, opts);
        assert!(zero.cache.is_none(), "capacity 0 must report no cache");
        assert_eq!(plain.completed, zero.completed);
        assert_eq!(plain.energy.total_joules(), zero.energy.total_joules());
        assert_eq!(plain.response.mean(), zero.response.mean());
        assert_eq!(plain.events_processed, zero.events_processed);
    }

    #[test]
    fn dirty_cap_forces_early_flush() {
        // Writes to distinct chunks at a rate that crosses the dirty cap
        // long before the (huge) periodic interval.
        let reqs: Vec<workload::VolumeRequest> = (0..200)
            .map(|i| workload::VolumeRequest {
                time: SimTime::from_secs(0.1 * i as f64),
                sector: (i % 500) * 2048,
                sectors: 8,
                kind: VolumeIoKind::Write,
            })
            .collect();
        let trace = Trace::from_requests(reqs);
        let mut cfg = cache::CacheConfig::with_capacity(1024);
        cfg.flush_interval_s = 1e6;
        cfg.max_dirty_chunks = 32;
        let mut opts = RunOptions::for_horizon(120.0);
        opts.cache = Some(cfg);
        let report = run_policy(small_config(), BasePolicy, &trace, opts);
        let stats = report.cache.expect("cache enabled");
        assert!(
            stats.forced_flushes >= 1,
            "dirty cap must force a flush: {stats:?}"
        );
        assert!(stats.flushed_chunks > 0);
        assert_eq!(report.completed, 200);
    }

    #[test]
    #[should_panic(expected = "beyond volume")]
    fn oversized_trace_rejected() {
        let mut config = small_config();
        config.volume_chunks = 4;
        let trace = Trace::from_requests(vec![workload::VolumeRequest {
            time: SimTime::ZERO,
            sector: config.volume_sectors() + 10,
            sectors: 8,
            kind: VolumeIoKind::Read,
        }]);
        let _ = Simulation::new(config, BasePolicy, &trace, RunOptions::for_horizon(1.0));
    }
}
