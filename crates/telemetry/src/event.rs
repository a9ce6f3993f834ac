//! The typed event vocabulary and its JSON-lines serialization.
//!
//! Events are write-only records: the simulator constructs them at decision
//! points and the [`EventSink`](crate::EventSink) serializes each one as it
//! is recorded, with the same hand-rolled JSON-lines discipline the
//! workload trace persistence uses (shortest round-trip floats, in the
//! bytes of `{:?}`, one object per line). The auditor never reconstructs `Event` values — it
//! scans fields straight out of the text — so variants can carry
//! `&'static str` tags without an owned parse-side mirror.

use simkit::text::{push_f64, push_i64, push_u64};
use simkit::EnergyComponent;

/// Why a disk changed (or started changing) speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionReason {
    /// A power policy asked for the new level via `request_speed`.
    Policy,
    /// A request arrived at a standby disk and auto spin-up kicked in.
    DemandWake,
    /// A latched speed request resumed once the in-flight ramp finished.
    Latched,
}

impl TransitionReason {
    /// Stable serialization tag.
    pub fn as_str(self) -> &'static str {
        match self {
            TransitionReason::Policy => "policy",
            TransitionReason::DemandWake => "demand_wake",
            TransitionReason::Latched => "latched",
        }
    }
}

/// What kind of migration job committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveKind {
    /// A chunk relocated to a reserved slot on another disk.
    Relocate,
    /// Two chunks exchanged slots.
    Swap,
    /// A lost chunk reconstructed onto a survivor.
    Rebuild,
    /// A raw sector-range write (no remap change).
    Raw,
}

impl MoveKind {
    /// Stable serialization tag.
    pub fn as_str(self) -> &'static str {
        match self {
            MoveKind::Relocate => "relocate",
            MoveKind::Swap => "swap",
            MoveKind::Rebuild => "rebuild",
            MoveKind::Raw => "raw",
        }
    }
}

/// Why the performance guard acted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoostReason {
    /// The trailing-window response estimate crossed the guard threshold.
    Latency,
    /// A disk failure forced an immediate boost.
    DiskFailure,
}

impl BoostReason {
    /// Stable serialization tag.
    pub fn as_str(self) -> &'static str {
        match self {
            BoostReason::Latency => "latency",
            BoostReason::DiskFailure => "disk_failure",
        }
    }
}

/// Which side of the request path a DRAM cache event sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOp {
    /// A read request (served or missed by the read cache).
    Read,
    /// A write request (absorbed by the write-back buffer).
    Write,
}

impl CacheOp {
    /// Stable serialization tag.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheOp::Read => "read",
            CacheOp::Write => "write",
        }
    }
}

/// Speed tier of a disk in an event: the level index, or [`STANDBY`] (-1)
/// for spun-down.
pub type Tier = i32;

/// The [`Tier`] value denoting standby (spun down).
pub const STANDBY: Tier = -1;

/// One structured telemetry event.
///
/// Every variant carries its simulation timestamp `time_s`; a serialized
/// stream is non-decreasing in time. A run's stream starts with
/// [`Event::RunStart`] and ends with [`Event::RunSummary`].
#[derive(Debug, Clone)]
pub enum Event {
    /// Stream header: the run's identity and the parameters the auditor
    /// needs to recompute derived metrics.
    RunStart {
        /// Simulation time (always 0).
        time_s: f64,
        /// Deterministic run label, e.g. `"Hibernator/OLTP"`.
        label: String,
        /// Number of disks in the array.
        disks: u32,
        /// Number of speed levels per disk.
        levels: u32,
        /// Simulated horizon in seconds.
        horizon_s: f64,
        /// Maximum concurrent migration jobs.
        migration_inflight: u32,
        /// Power/queue sampling interval in seconds.
        sample_interval_s: f64,
        /// Response-series bucket width in seconds.
        series_bucket_s: f64,
        /// Response-time goal in seconds (`f64::MAX` for unmanaged runs).
        goal_s: f64,
        /// Warm-up cutoff for goal-violation accounting, in seconds.
        warmup_s: f64,
        /// The run's master seed.
        seed: u64,
    },
    /// The Hibernator planner finished an epoch boundary.
    EpochPlanned {
        /// Simulation time.
        time_s: f64,
        /// Planned disk count per speed level (index = level).
        per_level: Vec<u32>,
        /// Whether the plan met the response goal in the model.
        feasible: bool,
        /// Model-predicted mean response at the plan, seconds.
        predicted_response_s: f64,
        /// Model-predicted average power at the plan, watts.
        predicted_power_w: f64,
        /// Migration jobs enqueued to realize the plan.
        migration_jobs: u32,
        /// True if the coarse-grain check skipped reconfiguration.
        skipped: bool,
        /// True if the layout actually changed.
        changed: bool,
    },
    /// A Hibernator-hosted migration policy finished a planning round
    /// (runs of other power policies carry none).
    PolicyDecision {
        /// Simulation time.
        time_s: f64,
        /// Stable policy name (e.g. `"lfu"`).
        policy: &'static str,
        /// Migration jobs proposed this round.
        moves: u32,
        /// Moves withheld because the chunk was inside its grace period.
        deferred_grace: u32,
        /// Moves withheld because the chunk's previous move is mid-copy.
        deferred_inflight: u32,
        /// Moves withheld by the promote/demote hysteresis.
        skipped_threshold: u32,
        /// The grace period in force, seconds. Auditable: no chunk may
        /// start a new move within this window of its last commit.
        grace_s: f64,
        /// Disks put to sleep this epoch, whether the policy's plan or
        /// the standby extension parked them.
        sleepers: u32,
    },
    /// A disk began a speed transition (or an instant level commit).
    SpeedTransition {
        /// Simulation time.
        time_s: f64,
        /// Disk index.
        disk: u32,
        /// Level left ([`STANDBY`] = -1 for standby).
        from: Tier,
        /// Level targeted ([`STANDBY`] = -1 for standby).
        to: Tier,
        /// What triggered the transition.
        reason: TransitionReason,
        /// True if a sticky-spindle fault stretched the ramp.
        stretched: bool,
    },
    /// A migration job started reading.
    MigrationStarted {
        /// Simulation time.
        time_s: f64,
        /// Engine-assigned job id (unique within a run).
        job: u64,
        /// Chunk (extent) being moved; 0 for raw writes.
        chunk: u64,
        /// Source disk.
        src: u32,
        /// Destination disk.
        dst: u32,
    },
    /// A migration job committed: data moved and the remap updated.
    MigrationMoved {
        /// Simulation time.
        time_s: f64,
        /// Engine-assigned job id.
        job: u64,
        /// Chunk (extent) moved; 0 for raw writes.
        chunk: u64,
        /// Source disk.
        src: u32,
        /// Destination disk.
        dst: u32,
        /// Payload bytes moved.
        bytes: u64,
        /// The kind of job that committed.
        kind: MoveKind,
    },
    /// A migration job aborted (dirtied by foreground writes, or
    /// degenerate).
    MigrationAborted {
        /// Simulation time.
        time_s: f64,
        /// Engine-assigned job id.
        job: u64,
        /// Chunk the job was moving.
        chunk: u64,
    },
    /// A migration job was dropped or orphaned by a disk failure.
    MigrationDropped {
        /// Simulation time.
        time_s: f64,
        /// Engine-assigned job id.
        job: u64,
        /// Chunk the job was moving.
        chunk: u64,
    },
    /// The performance guard entered or left boost mode.
    GuardBoost {
        /// Simulation time.
        time_s: f64,
        /// True on entry, false on exit.
        entered: bool,
        /// What triggered the action.
        reason: BoostReason,
    },
    /// A fault fired (scripted or hazard-driven).
    FaultInjected {
        /// Simulation time.
        time_s: f64,
        /// Disk index.
        disk: u32,
        /// Stable fault tag (see `FaultKind::label`).
        kind: &'static str,
    },
    /// A foreground volume request completed.
    RequestServed {
        /// Simulation time (completion instant).
        time_s: f64,
        /// End-to-end volume latency in microseconds.
        latency_us: f64,
        /// The disk that completed the final piece.
        disk: u32,
        /// That disk's effective speed tier at completion.
        tier: Tier,
    },
    /// A volume request served entirely by the controller DRAM cache
    /// (read hit or absorbed write) — no disk traffic, no `served` event.
    CacheHit {
        /// Simulation time (the arrival instant; DRAM serves in-line).
        time_s: f64,
        /// Latency charged to the request, microseconds.
        latency_us: f64,
        /// Whether the request was a read hit or an absorbed write.
        op: CacheOp,
    },
    /// A read request with at least one piece not resident in DRAM; the
    /// missing pieces continue to the spindle path.
    CacheMiss {
        /// Simulation time (the arrival instant).
        time_s: f64,
        /// Pieces that missed and were submitted to disks.
        chunks: u32,
    },
    /// A write-back flush batch: dirty chunks destaged to their home
    /// disks (these are the writes that can wake a sleeping spindle).
    FlushBatch {
        /// Simulation time.
        time_s: f64,
        /// Dirty chunks destaged in this batch.
        chunks: u32,
        /// Distinct home disks the batch touched.
        disks: u32,
        /// True if the dirty cap forced the flush ahead of the timer.
        forced: bool,
    },
    /// End-of-run DRAM cache accounting (only present when the cache is
    /// enabled; emitted before the per-disk summaries).
    CacheSummary {
        /// Simulation time (the horizon).
        time_s: f64,
        /// Read requests served entirely from DRAM.
        read_hits: u64,
        /// Read requests with at least one miss.
        read_misses: u64,
        /// Write requests absorbed by the write-back buffer.
        write_absorbs: u64,
        /// Dirty chunks destaged by eviction pressure.
        writebacks: u64,
        /// Flush batches issued.
        flushes: u64,
        /// Dirty chunks destaged by flush batches.
        flushed_chunks: u64,
    },
    /// A periodic power sample (mean watts over the preceding interval).
    PowerSample {
        /// Simulation time.
        time_s: f64,
        /// Mean array power over the interval, watts.
        watts: f64,
    },
    /// Per-disk end-of-run accounting.
    DiskSummary {
        /// Simulation time (the horizon).
        time_s: f64,
        /// Disk index.
        disk: u32,
        /// Energy by [`EnergyComponent::ALL`] order, joules.
        energy_j: [f64; 6],
        /// Speed transitions this disk performed.
        transitions: u64,
        /// When the disk failed, if it did.
        failed_at_s: Option<f64>,
    },
    /// Stream trailer: whole-run totals the auditor reconciles against.
    RunSummary {
        /// Simulation time (the horizon).
        time_s: f64,
        /// Total array energy, joules.
        total_j: f64,
        /// Energy by [`EnergyComponent::ALL`] order, joules.
        energy_j: [f64; 6],
        /// Volume requests completed.
        completed: u64,
        /// Requests still in flight at the horizon.
        incomplete: u64,
        /// Speed transitions across all disks.
        transitions: u64,
        /// Mean volume response, seconds.
        mean_response_s: f64,
        /// Goal-violation fraction per the run's goal/warm-up.
        violation: f64,
        /// Latency histogram bucket counts (fixed layout, microseconds).
        latency_hist: Vec<u64>,
        /// Latency histogram overflow count.
        latency_overflow: u64,
        /// Queue-depth histogram bucket counts (sampled).
        queue_hist: Vec<u64>,
        /// Queue-depth histogram overflow count.
        queue_overflow: u64,
        /// Committed migration moves.
        moved: u64,
        /// Final remap-table version (bumps per relocate/swap).
        remap_version: u64,
        /// Events the ring buffer had to drop (0 for a complete stream).
        dropped: u64,
    },
    /// Fleet-stream header/boundary: the arbiter reviewed the fleet at a
    /// fleet-epoch boundary (these live in a dedicated fleet stream, not
    /// in any per-array stream).
    FleetEpoch {
        /// Simulation time (the epoch boundary).
        time_s: f64,
        /// Zero-based fleet epoch index.
        epoch: u32,
        /// Arrays under management.
        arrays: u32,
        /// The datacenter budget in force, watts (`None` = unlimited).
        budget_w: Option<f64>,
        /// Sum of observed per-array power at the boundary, watts.
        demand_w: f64,
    },
    /// The arbiter granted one array its power cap for the next epoch.
    CapGrant {
        /// Simulation time (the epoch boundary).
        time_s: f64,
        /// Array index.
        array: u32,
        /// Granted cap, watts.
        cap_w: f64,
        /// The array's observed power at the boundary, watts.
        observed_w: f64,
    },
    /// The placement planner moved a tenant between arrays at an epoch
    /// boundary (takes effect for the next epoch's requests).
    TenantMove {
        /// Simulation time (the epoch boundary).
        time_s: f64,
        /// Tenant index.
        tenant: u32,
        /// Array the tenant left.
        from_array: u32,
        /// Array the tenant joined.
        to_array: u32,
    },
    /// Fleet-stream trailer: whole-fleet totals the fleet auditor
    /// reconciles against.
    FleetSummary {
        /// Simulation time (the horizon).
        time_s: f64,
        /// Total energy across every array, joules.
        total_j: f64,
        /// Integrated budget over the horizon, joules (`None` = unlimited).
        budget_j: Option<f64>,
        /// Simulated seconds during which observed fleet power exceeded
        /// the budget at a boundary check.
        cap_violation_s: f64,
        /// Volume requests completed across the fleet.
        completed: u64,
        /// Requests still in flight at the horizon, fleet-wide.
        incomplete: u64,
        /// Requests in the shared input trace.
        total_requests: u64,
        /// Requests routed to arrays by the placement map.
        routed_requests: u64,
        /// Tenant moves performed over the run.
        tenant_moves: u64,
    },
}

impl Event {
    /// The event's simulation timestamp.
    pub fn time_s(&self) -> f64 {
        match self {
            Event::RunStart { time_s, .. }
            | Event::EpochPlanned { time_s, .. }
            | Event::PolicyDecision { time_s, .. }
            | Event::SpeedTransition { time_s, .. }
            | Event::MigrationStarted { time_s, .. }
            | Event::MigrationMoved { time_s, .. }
            | Event::MigrationAborted { time_s, .. }
            | Event::MigrationDropped { time_s, .. }
            | Event::GuardBoost { time_s, .. }
            | Event::FaultInjected { time_s, .. }
            | Event::RequestServed { time_s, .. }
            | Event::CacheHit { time_s, .. }
            | Event::CacheMiss { time_s, .. }
            | Event::FlushBatch { time_s, .. }
            | Event::CacheSummary { time_s, .. }
            | Event::PowerSample { time_s, .. }
            | Event::DiskSummary { time_s, .. }
            | Event::RunSummary { time_s, .. }
            | Event::FleetEpoch { time_s, .. }
            | Event::CapGrant { time_s, .. }
            | Event::TenantMove { time_s, .. }
            | Event::FleetSummary { time_s, .. } => *time_s,
        }
    }

    /// Appends the event as one JSON line. Keys are static bytes,
    /// integers are written from a digit-pair table and floats by
    /// [`push_f64`], whose bytes equal `{:?}`'s (shortest round-trip),
    /// matching the workload trace persistence format.
    pub fn write_jsonl(&self, out: &mut Vec<u8>) {
        match self {
            Event::RunStart {
                time_s,
                label,
                disks,
                levels,
                horizon_s,
                migration_inflight,
                sample_interval_s,
                series_bucket_s,
                goal_s,
                warmup_s,
                seed,
            } => {
                open(out, br#"{"ev":"run_start","t":"#, *time_s);
                // Once per run, so the label's JSON escaping stays `{:?}`.
                out.extend_from_slice(br#","label":"#);
                out.extend_from_slice(format!("{label:?}").as_bytes());
                uint(out, br#","disks":"#, *disks);
                uint(out, br#","levels":"#, *levels);
                float(out, br#","horizon_s":"#, *horizon_s);
                uint(out, br#","inflight":"#, *migration_inflight);
                float(out, br#","sample_s":"#, *sample_interval_s);
                float(out, br#","bucket_s":"#, *series_bucket_s);
                float(out, br#","goal_s":"#, *goal_s);
                float(out, br#","warmup_s":"#, *warmup_s);
                uint(out, br#","seed":"#, *seed);
            }
            Event::EpochPlanned {
                time_s,
                per_level,
                feasible,
                predicted_response_s,
                predicted_power_w,
                migration_jobs,
                skipped,
                changed,
            } => {
                open(out, br#"{"ev":"epoch","t":"#, *time_s);
                array(out, br#","per_level":"#, per_level);
                flag(out, br#","feasible":"#, *feasible);
                float(out, br#","pred_response_s":"#, *predicted_response_s);
                float(out, br#","pred_power_w":"#, *predicted_power_w);
                uint(out, br#","jobs":"#, *migration_jobs);
                flag(out, br#","skipped":"#, *skipped);
                flag(out, br#","changed":"#, *changed);
            }
            Event::PolicyDecision {
                time_s,
                policy,
                moves,
                deferred_grace,
                deferred_inflight,
                skipped_threshold,
                grace_s,
                sleepers,
            } => {
                open(out, br#"{"ev":"policy","t":"#, *time_s);
                tag(out, br#","policy":"#, policy);
                uint(out, br#","moves":"#, *moves);
                uint(out, br#","deferred_grace":"#, *deferred_grace);
                uint(out, br#","deferred_inflight":"#, *deferred_inflight);
                uint(out, br#","skipped_threshold":"#, *skipped_threshold);
                float(out, br#","grace_s":"#, *grace_s);
                uint(out, br#","sleepers":"#, *sleepers);
            }
            Event::SpeedTransition {
                time_s,
                disk,
                from,
                to,
                reason,
                stretched,
            } => {
                open(out, br#"{"ev":"speed","t":"#, *time_s);
                uint(out, br#","disk":"#, *disk);
                int(out, br#","from":"#, *from);
                int(out, br#","to":"#, *to);
                tag(out, br#","reason":"#, reason.as_str());
                flag(out, br#","slow":"#, *stretched);
            }
            Event::MigrationStarted {
                time_s,
                job,
                chunk,
                src,
                dst,
            } => {
                open(out, br#"{"ev":"mig_start","t":"#, *time_s);
                uint(out, br#","job":"#, *job);
                uint(out, br#","chunk":"#, *chunk);
                uint(out, br#","src":"#, *src);
                uint(out, br#","dst":"#, *dst);
            }
            Event::MigrationMoved {
                time_s,
                job,
                chunk,
                src,
                dst,
                bytes,
                kind,
            } => {
                open(out, br#"{"ev":"mig_moved","t":"#, *time_s);
                uint(out, br#","job":"#, *job);
                uint(out, br#","chunk":"#, *chunk);
                uint(out, br#","src":"#, *src);
                uint(out, br#","dst":"#, *dst);
                uint(out, br#","bytes":"#, *bytes);
                tag(out, br#","kind":"#, kind.as_str());
            }
            Event::MigrationAborted { time_s, job, chunk } => {
                open(out, br#"{"ev":"mig_abort","t":"#, *time_s);
                uint(out, br#","job":"#, *job);
                uint(out, br#","chunk":"#, *chunk);
            }
            Event::MigrationDropped { time_s, job, chunk } => {
                open(out, br#"{"ev":"mig_drop","t":"#, *time_s);
                uint(out, br#","job":"#, *job);
                uint(out, br#","chunk":"#, *chunk);
            }
            Event::GuardBoost {
                time_s,
                entered,
                reason,
            } => {
                open(out, br#"{"ev":"boost","t":"#, *time_s);
                flag(out, br#","entered":"#, *entered);
                tag(out, br#","reason":"#, reason.as_str());
            }
            Event::FaultInjected { time_s, disk, kind } => {
                open(out, br#"{"ev":"fault","t":"#, *time_s);
                uint(out, br#","disk":"#, *disk);
                tag(out, br#","kind":"#, kind);
            }
            Event::RequestServed {
                time_s,
                latency_us,
                disk,
                tier,
            } => {
                open(out, br#"{"ev":"served","t":"#, *time_s);
                float(out, br#","latency_us":"#, *latency_us);
                uint(out, br#","disk":"#, *disk);
                int(out, br#","tier":"#, *tier);
            }
            Event::CacheHit {
                time_s,
                latency_us,
                op,
            } => {
                open(out, br#"{"ev":"cache_hit","t":"#, *time_s);
                float(out, br#","latency_us":"#, *latency_us);
                tag(out, br#","op":"#, op.as_str());
            }
            Event::CacheMiss { time_s, chunks } => {
                open(out, br#"{"ev":"cache_miss","t":"#, *time_s);
                uint(out, br#","chunks":"#, *chunks);
            }
            Event::FlushBatch {
                time_s,
                chunks,
                disks,
                forced,
            } => {
                open(out, br#"{"ev":"flush","t":"#, *time_s);
                uint(out, br#","chunks":"#, *chunks);
                uint(out, br#","disks":"#, *disks);
                flag(out, br#","forced":"#, *forced);
            }
            Event::CacheSummary {
                time_s,
                read_hits,
                read_misses,
                write_absorbs,
                writebacks,
                flushes,
                flushed_chunks,
            } => {
                open(out, br#"{"ev":"cache_summary","t":"#, *time_s);
                uint(out, br#","read_hits":"#, *read_hits);
                uint(out, br#","read_misses":"#, *read_misses);
                uint(out, br#","write_absorbs":"#, *write_absorbs);
                uint(out, br#","writebacks":"#, *writebacks);
                uint(out, br#","flushes":"#, *flushes);
                uint(out, br#","flushed_chunks":"#, *flushed_chunks);
            }
            Event::PowerSample { time_s, watts } => {
                open(out, br#"{"ev":"power","t":"#, *time_s);
                float(out, br#","watts":"#, *watts);
            }
            Event::DiskSummary {
                time_s,
                disk,
                energy_j,
                transitions,
                failed_at_s,
            } => {
                open(out, br#"{"ev":"disk","t":"#, *time_s);
                uint(out, br#","disk":"#, *disk);
                energy(out, energy_j);
                uint(out, br#","transitions":"#, *transitions);
                opt_float(out, br#","failed_at_s":"#, *failed_at_s);
            }
            Event::RunSummary {
                time_s,
                total_j,
                energy_j,
                completed,
                incomplete,
                transitions,
                mean_response_s,
                violation,
                latency_hist,
                latency_overflow,
                queue_hist,
                queue_overflow,
                moved,
                remap_version,
                dropped,
            } => {
                open(out, br#"{"ev":"run_end","t":"#, *time_s);
                float(out, br#","total_j":"#, *total_j);
                energy(out, energy_j);
                uint(out, br#","completed":"#, *completed);
                uint(out, br#","incomplete":"#, *incomplete);
                uint(out, br#","transitions":"#, *transitions);
                float(out, br#","mean_response_s":"#, *mean_response_s);
                float(out, br#","violation":"#, *violation);
                array(out, br#","latency_hist":"#, latency_hist);
                uint(out, br#","latency_overflow":"#, *latency_overflow);
                array(out, br#","queue_hist":"#, queue_hist);
                uint(out, br#","queue_overflow":"#, *queue_overflow);
                uint(out, br#","moved":"#, *moved);
                uint(out, br#","remap_version":"#, *remap_version);
                uint(out, br#","dropped":"#, *dropped);
            }
            Event::FleetEpoch {
                time_s,
                epoch,
                arrays,
                budget_w,
                demand_w,
            } => {
                open(out, br#"{"ev":"fleet_epoch","t":"#, *time_s);
                uint(out, br#","epoch":"#, *epoch);
                uint(out, br#","arrays":"#, *arrays);
                opt_float(out, br#","budget_w":"#, *budget_w);
                float(out, br#","demand_w":"#, *demand_w);
            }
            Event::CapGrant {
                time_s,
                array,
                cap_w,
                observed_w,
            } => {
                open(out, br#"{"ev":"cap_grant","t":"#, *time_s);
                uint(out, br#","array":"#, *array);
                float(out, br#","cap_w":"#, *cap_w);
                float(out, br#","observed_w":"#, *observed_w);
            }
            Event::TenantMove {
                time_s,
                tenant,
                from_array,
                to_array,
            } => {
                open(out, br#"{"ev":"tenant_move","t":"#, *time_s);
                uint(out, br#","tenant":"#, *tenant);
                uint(out, br#","from":"#, *from_array);
                uint(out, br#","to":"#, *to_array);
            }
            Event::FleetSummary {
                time_s,
                total_j,
                budget_j,
                cap_violation_s,
                completed,
                incomplete,
                total_requests,
                routed_requests,
                tenant_moves,
            } => {
                open(out, br#"{"ev":"fleet_end","t":"#, *time_s);
                float(out, br#","total_j":"#, *total_j);
                opt_float(out, br#","budget_j":"#, *budget_j);
                float(out, br#","cap_violation_s":"#, *cap_violation_s);
                uint(out, br#","completed":"#, *completed);
                uint(out, br#","incomplete":"#, *incomplete);
                uint(out, br#","total_requests":"#, *total_requests);
                uint(out, br#","routed_requests":"#, *routed_requests);
                uint(out, br#","tenant_moves":"#, *tenant_moves);
            }
        }
        out.extend_from_slice(b"}\n");
    }
}

// Field writers. Each `key` is the field's full static prefix, comma
// included: `,"disk":`.

/// Opens a line: `head` is its whole static prefix, `{"ev":"<tag>","t":`.
/// One copy for it keeps the first write into an empty sink as long as
/// it always was, so the sink grows through the same capacities.
fn open(out: &mut Vec<u8>, head: &[u8], time_s: f64) {
    out.extend_from_slice(head);
    push_f64(out, time_s);
}

fn float(out: &mut Vec<u8>, key: &[u8], v: f64) {
    out.extend_from_slice(key);
    push_f64(out, v);
}

/// A float or `null`.
fn opt_float(out: &mut Vec<u8>, key: &[u8], v: Option<f64>) {
    out.extend_from_slice(key);
    match v {
        Some(v) => push_f64(out, v),
        None => out.extend_from_slice(b"null"),
    }
}

fn uint(out: &mut Vec<u8>, key: &[u8], v: impl Into<u64>) {
    out.extend_from_slice(key);
    push_u64(out, v.into());
}

fn int(out: &mut Vec<u8>, key: &[u8], v: Tier) {
    out.extend_from_slice(key);
    push_i64(out, i64::from(v));
}

fn flag(out: &mut Vec<u8>, key: &[u8], v: bool) {
    out.extend_from_slice(key);
    out.extend_from_slice(if v { b"true" } else { b"false" });
}

/// A string tag that needs no escaping (a stable `&'static str` label).
fn tag(out: &mut Vec<u8>, key: &[u8], v: &str) {
    out.extend_from_slice(key);
    out.push(b'"');
    out.extend_from_slice(v.as_bytes());
    out.push(b'"');
}

/// `,"idle_spin":x,"seek":y,…` in [`EnergyComponent::ALL`] order.
fn energy(out: &mut Vec<u8>, energy_j: &[f64; 6]) {
    for (c, &j) in EnergyComponent::ALL.iter().zip(energy_j) {
        out.extend_from_slice(b",\"");
        out.extend_from_slice(c.label().as_bytes());
        out.extend_from_slice(b"\":");
        push_f64(out, j);
    }
}

/// An integer array: `[a,b,c]`.
fn array<T: Copy + Into<u64>>(out: &mut Vec<u8>, key: &[u8], xs: &[T]) {
    out.extend_from_slice(key);
    out.push(b'[');
    for (i, &x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        push_u64(out, x.into());
    }
    out.push(b']');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(ev: &Event) -> String {
        let mut buf = Vec::new();
        ev.write_jsonl(&mut buf);
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn served_round_trips_latency_exactly() {
        let s = line(&Event::RequestServed {
            time_s: 3.25,
            latency_us: 5123.456789,
            disk: 7,
            tier: STANDBY,
        });
        let field = s.split("\"latency_us\":").nth(1).unwrap();
        let val: f64 = field.split(',').next().unwrap().parse().unwrap();
        assert_eq!(val, 5123.456789);
        assert!(s.contains("\"tier\":-1"));
    }

    /// Position of `ev`'s variant in declaration order. The match has no
    /// wildcard, so a new variant does not compile until it gets an index
    /// here, and the coverage check below then demands a pinned line.
    fn variant_index(ev: &Event) -> usize {
        match ev {
            Event::RunStart { .. } => 0,
            Event::EpochPlanned { .. } => 1,
            Event::PolicyDecision { .. } => 2,
            Event::SpeedTransition { .. } => 3,
            Event::MigrationStarted { .. } => 4,
            Event::MigrationMoved { .. } => 5,
            Event::MigrationAborted { .. } => 6,
            Event::MigrationDropped { .. } => 7,
            Event::GuardBoost { .. } => 8,
            Event::FaultInjected { .. } => 9,
            Event::RequestServed { .. } => 10,
            Event::CacheHit { .. } => 11,
            Event::CacheMiss { .. } => 12,
            Event::FlushBatch { .. } => 13,
            Event::CacheSummary { .. } => 14,
            Event::PowerSample { .. } => 15,
            Event::DiskSummary { .. } => 16,
            Event::RunSummary { .. } => 17,
            Event::FleetEpoch { .. } => 18,
            Event::CapGrant { .. } => 19,
            Event::TenantMove { .. } => 20,
            Event::FleetSummary { .. } => 21,
        }
    }

    /// One exact line per variant (plus the enum tags, `STANDBY` tiers,
    /// `None`/`Some` options, an escaped label, exponent floats and
    /// `f64::MAX`): the stream format is a contract with the auditor and
    /// with every committed golden, so any byte change shows up here.
    #[test]
    fn every_variant_serializes_to_pinned_bytes() {
        let energy = [1.0, 2.5, 3.0, 4.0, 5.0, 6.0];
        let table: Vec<(Event, &str)> = vec![
            (
                Event::RunStart {
                    time_s: 0.0,
                    label: "Base/\"q\"".into(),
                    disks: 16,
                    levels: 6,
                    horizon_s: 7200.0,
                    migration_inflight: 2,
                    sample_interval_s: 120.0,
                    series_bucket_s: 120.0,
                    goal_s: f64::MAX,
                    warmup_s: 720.0,
                    seed: 42,
                },
                r#"{"ev":"run_start","t":0.0,"label":"Base/\"q\"","disks":16,"levels":6,"horizon_s":7200.0,"inflight":2,"sample_s":120.0,"bucket_s":120.0,"goal_s":1.7976931348623157e308,"warmup_s":720.0,"seed":42}"#,
            ),
            (
                Event::EpochPlanned {
                    time_s: 600.0,
                    per_level: vec![0, 2, 14],
                    feasible: true,
                    predicted_response_s: 1e-7,
                    predicted_power_w: 190.5,
                    migration_jobs: 3,
                    skipped: false,
                    changed: true,
                },
                r#"{"ev":"epoch","t":600.0,"per_level":[0,2,14],"feasible":true,"pred_response_s":1e-7,"pred_power_w":190.5,"jobs":3,"skipped":false,"changed":true}"#,
            ),
            (
                Event::EpochPlanned {
                    time_s: 1200.0,
                    per_level: vec![],
                    feasible: false,
                    predicted_response_s: f64::MAX,
                    predicted_power_w: 0.0,
                    migration_jobs: 0,
                    skipped: true,
                    changed: false,
                },
                r#"{"ev":"epoch","t":1200.0,"per_level":[],"feasible":false,"pred_response_s":1.7976931348623157e308,"pred_power_w":0.0,"jobs":0,"skipped":true,"changed":false}"#,
            ),
            (
                Event::PolicyDecision {
                    time_s: 600.0,
                    policy: "lfu",
                    moves: 7,
                    deferred_grace: 2,
                    deferred_inflight: 1,
                    skipped_threshold: 3,
                    grace_s: 300.0,
                    sleepers: 4,
                },
                r#"{"ev":"policy","t":600.0,"policy":"lfu","moves":7,"deferred_grace":2,"deferred_inflight":1,"skipped_threshold":3,"grace_s":300.0,"sleepers":4}"#,
            ),
            (
                Event::SpeedTransition {
                    time_s: 12.5,
                    disk: 3,
                    from: 5,
                    to: STANDBY,
                    reason: TransitionReason::Policy,
                    stretched: false,
                },
                r#"{"ev":"speed","t":12.5,"disk":3,"from":5,"to":-1,"reason":"policy","slow":false}"#,
            ),
            (
                Event::SpeedTransition {
                    time_s: 12.75,
                    disk: 3,
                    from: STANDBY,
                    to: 0,
                    reason: TransitionReason::DemandWake,
                    stretched: true,
                },
                r#"{"ev":"speed","t":12.75,"disk":3,"from":-1,"to":0,"reason":"demand_wake","slow":true}"#,
            ),
            (
                Event::SpeedTransition {
                    time_s: 13.0,
                    disk: 0,
                    from: 0,
                    to: 5,
                    reason: TransitionReason::Latched,
                    stretched: false,
                },
                r#"{"ev":"speed","t":13.0,"disk":0,"from":0,"to":5,"reason":"latched","slow":false}"#,
            ),
            (
                Event::MigrationStarted {
                    time_s: 13.0,
                    job: 1,
                    chunk: 99,
                    src: 0,
                    dst: 5,
                },
                r#"{"ev":"mig_start","t":13.0,"job":1,"chunk":99,"src":0,"dst":5}"#,
            ),
            (
                Event::MigrationMoved {
                    time_s: 14.25,
                    job: 1,
                    chunk: 99,
                    src: 0,
                    dst: 5,
                    bytes: 1 << 20,
                    kind: MoveKind::Relocate,
                },
                r#"{"ev":"mig_moved","t":14.25,"job":1,"chunk":99,"src":0,"dst":5,"bytes":1048576,"kind":"relocate"}"#,
            ),
            (
                Event::MigrationMoved {
                    time_s: 14.5,
                    job: 4,
                    chunk: 7,
                    src: 2,
                    dst: 1,
                    bytes: 512,
                    kind: MoveKind::Swap,
                },
                r#"{"ev":"mig_moved","t":14.5,"job":4,"chunk":7,"src":2,"dst":1,"bytes":512,"kind":"swap"}"#,
            ),
            (
                Event::MigrationMoved {
                    time_s: 14.5,
                    job: 5,
                    chunk: 8,
                    src: 2,
                    dst: 1,
                    bytes: 0,
                    kind: MoveKind::Rebuild,
                },
                r#"{"ev":"mig_moved","t":14.5,"job":5,"chunk":8,"src":2,"dst":1,"bytes":0,"kind":"rebuild"}"#,
            ),
            (
                Event::MigrationMoved {
                    time_s: 14.5,
                    job: u64::MAX,
                    chunk: 0,
                    src: 2,
                    dst: 1,
                    bytes: 4096,
                    kind: MoveKind::Raw,
                },
                r#"{"ev":"mig_moved","t":14.5,"job":18446744073709551615,"chunk":0,"src":2,"dst":1,"bytes":4096,"kind":"raw"}"#,
            ),
            (
                Event::MigrationAborted {
                    time_s: 15.0,
                    job: 2,
                    chunk: 100,
                },
                r#"{"ev":"mig_abort","t":15.0,"job":2,"chunk":100}"#,
            ),
            (
                Event::MigrationDropped {
                    time_s: 16.0,
                    job: 3,
                    chunk: 101,
                },
                r#"{"ev":"mig_drop","t":16.0,"job":3,"chunk":101}"#,
            ),
            (
                Event::GuardBoost {
                    time_s: 17.0,
                    entered: true,
                    reason: BoostReason::DiskFailure,
                },
                r#"{"ev":"boost","t":17.0,"entered":true,"reason":"disk_failure"}"#,
            ),
            (
                Event::GuardBoost {
                    time_s: 17.5,
                    entered: false,
                    reason: BoostReason::Latency,
                },
                r#"{"ev":"boost","t":17.5,"entered":false,"reason":"latency"}"#,
            ),
            (
                Event::FaultInjected {
                    time_s: 18.0,
                    disk: 4,
                    kind: "disk_failure",
                },
                r#"{"ev":"fault","t":18.0,"disk":4,"kind":"disk_failure"}"#,
            ),
            (
                Event::RequestServed {
                    time_s: 3.25,
                    latency_us: 5123.456789,
                    disk: 7,
                    tier: STANDBY,
                },
                r#"{"ev":"served","t":3.25,"latency_us":5123.456789,"disk":7,"tier":-1}"#,
            ),
            (
                Event::CacheHit {
                    time_s: 1.5,
                    latency_us: 200.0,
                    op: CacheOp::Write,
                },
                r#"{"ev":"cache_hit","t":1.5,"latency_us":200.0,"op":"write"}"#,
            ),
            (
                Event::CacheHit {
                    time_s: 1.5,
                    latency_us: 0.1,
                    op: CacheOp::Read,
                },
                r#"{"ev":"cache_hit","t":1.5,"latency_us":0.1,"op":"read"}"#,
            ),
            (
                Event::CacheMiss {
                    time_s: 1.5,
                    chunks: 2,
                },
                r#"{"ev":"cache_miss","t":1.5,"chunks":2}"#,
            ),
            (
                Event::FlushBatch {
                    time_s: 30.0,
                    chunks: 12,
                    disks: 4,
                    forced: true,
                },
                r#"{"ev":"flush","t":30.0,"chunks":12,"disks":4,"forced":true}"#,
            ),
            (
                Event::CacheSummary {
                    time_s: 7200.0,
                    read_hits: 10,
                    read_misses: 4,
                    write_absorbs: 6,
                    writebacks: 1,
                    flushes: 3,
                    flushed_chunks: 5,
                },
                r#"{"ev":"cache_summary","t":7200.0,"read_hits":10,"read_misses":4,"write_absorbs":6,"writebacks":1,"flushes":3,"flushed_chunks":5}"#,
            ),
            (
                Event::PowerSample {
                    time_s: 120.0,
                    watts: 187.25,
                },
                r#"{"ev":"power","t":120.0,"watts":187.25}"#,
            ),
            (
                Event::DiskSummary {
                    time_s: 7200.0,
                    disk: 3,
                    energy_j: energy,
                    transitions: 9,
                    failed_at_s: None,
                },
                r#"{"ev":"disk","t":7200.0,"disk":3,"idle_spin":1.0,"seek":2.5,"transfer":3.0,"transition":4.0,"standby":5.0,"migration":6.0,"transitions":9,"failed_at_s":null}"#,
            ),
            (
                Event::DiskSummary {
                    time_s: 7200.0,
                    disk: 4,
                    energy_j: [0.0; 6],
                    transitions: 0,
                    failed_at_s: Some(18.0),
                },
                r#"{"ev":"disk","t":7200.0,"disk":4,"idle_spin":0.0,"seek":0.0,"transfer":0.0,"transition":0.0,"standby":0.0,"migration":0.0,"transitions":0,"failed_at_s":18.0}"#,
            ),
            (
                Event::RunSummary {
                    time_s: 7200.0,
                    total_j: 21.5,
                    energy_j: energy,
                    completed: 100,
                    incomplete: 2,
                    transitions: 9,
                    mean_response_s: 0.0125,
                    violation: 0.25,
                    latency_hist: vec![3, 0, 97],
                    latency_overflow: 1,
                    queue_hist: vec![],
                    queue_overflow: 0,
                    moved: 5,
                    remap_version: 4,
                    dropped: 0,
                },
                r#"{"ev":"run_end","t":7200.0,"total_j":21.5,"idle_spin":1.0,"seek":2.5,"transfer":3.0,"transition":4.0,"standby":5.0,"migration":6.0,"completed":100,"incomplete":2,"transitions":9,"mean_response_s":0.0125,"violation":0.25,"latency_hist":[3,0,97],"latency_overflow":1,"queue_hist":[],"queue_overflow":0,"moved":5,"remap_version":4,"dropped":0}"#,
            ),
            (
                Event::FleetEpoch {
                    time_s: 0.0,
                    epoch: 0,
                    arrays: 256,
                    budget_w: None,
                    demand_w: 0.0,
                },
                r#"{"ev":"fleet_epoch","t":0.0,"epoch":0,"arrays":256,"budget_w":null,"demand_w":0.0}"#,
            ),
            (
                Event::FleetEpoch {
                    time_s: 60.0,
                    epoch: 1,
                    arrays: 4,
                    budget_w: Some(1234.5),
                    demand_w: 80.0,
                },
                r#"{"ev":"fleet_epoch","t":60.0,"epoch":1,"arrays":4,"budget_w":1234.5,"demand_w":80.0}"#,
            ),
            (
                Event::CapGrant {
                    time_s: 60.0,
                    array: 7,
                    cap_w: 62.5,
                    observed_w: 50.0,
                },
                r#"{"ev":"cap_grant","t":60.0,"array":7,"cap_w":62.5,"observed_w":50.0}"#,
            ),
            (
                Event::TenantMove {
                    time_s: 60.0,
                    tenant: 3,
                    from_array: 0,
                    to_array: 1,
                },
                r#"{"ev":"tenant_move","t":60.0,"tenant":3,"from":0,"to":1}"#,
            ),
            (
                Event::FleetSummary {
                    time_s: 120.0,
                    total_j: 9000.0,
                    budget_j: None,
                    cap_violation_s: 0.0,
                    completed: 90,
                    incomplete: 10,
                    total_requests: 100,
                    routed_requests: 100,
                    tenant_moves: 1,
                },
                r#"{"ev":"fleet_end","t":120.0,"total_j":9000.0,"budget_j":null,"cap_violation_s":0.0,"completed":90,"incomplete":10,"total_requests":100,"routed_requests":100,"tenant_moves":1}"#,
            ),
            (
                Event::FleetSummary {
                    time_s: 120.0,
                    total_j: 13000.0,
                    budget_j: Some(12000.0),
                    cap_violation_s: 60.0,
                    completed: 90,
                    incomplete: 10,
                    total_requests: 100,
                    routed_requests: 100,
                    tenant_moves: 0,
                },
                r#"{"ev":"fleet_end","t":120.0,"total_j":13000.0,"budget_j":12000.0,"cap_violation_s":60.0,"completed":90,"incomplete":10,"total_requests":100,"routed_requests":100,"tenant_moves":0}"#,
            ),
        ];
        let mut seen = [false; 22];
        for (ev, want) in &table {
            assert_eq!(line(ev), format!("{want}\n"));
            seen[variant_index(ev)] = true;
        }
        let missing: Vec<usize> = (0..seen.len()).filter(|&i| !seen[i]).collect();
        assert!(
            missing.is_empty(),
            "variants without a pinned line: {missing:?}"
        );
    }
}
