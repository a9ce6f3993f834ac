//! The typed event vocabulary and its JSON-lines serialization.
//!
//! The simulator constructs events at decision points and the
//! [`EventSink`](crate::EventSink) serializes each one as it is recorded,
//! with the same hand-rolled JSON-lines discipline the workload trace
//! persistence uses (shortest round-trip floats, in the bytes of `{:?}`,
//! one object per line). [`Event::parse_jsonl`] is the exact inverse, and
//! the only reader: the auditor replays typed events, not text. The two
//! free-form tags (a policy's name, a fault's kind) are `Cow`s, so emit
//! borrows its `&'static str` labels and parse owns what it read.

use crate::audit::AuditError;
use simkit::text::{push_f64, push_i64, push_u64};
use simkit::EnergyComponent;
use std::borrow::Cow;
use std::str::FromStr;

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

/// Defines [`Event`] from one table, and from the same table its writer
/// [`Event::write_jsonl`], its parser [`Event::parse_jsonl`] and its
/// accessors, so the two directions cannot drift apart. Each variant names
/// its `ev` tag; each field after `time_s` names its JSON key, and its
/// type's [`Field`] impl writes and reads the value.
macro_rules! events {
    (
        $(#[$em:meta])*
        pub enum Event {
            $(
                $(#[$vm:meta])*
                $v:ident = $tag:literal {
                    $(#[$tm:meta])*
                    time_s: f64,
                    $( $(#[$fm:meta])* $field:ident: $ty:ty = $key:literal, )*
                },
            )*
        }
    ) => {
        $(#[$em])*
        pub enum Event {
            $(
                $(#[$vm])*
                $v {
                    $(#[$tm])*
                    time_s: f64,
                    $( $(#[$fm])* $field: $ty, )*
                },
            )*
        }

        impl Event {
            /// The event's simulation timestamp.
            pub fn time_s(&self) -> f64 {
                match self {
                    $( Event::$v { time_s, .. } => *time_s, )*
                }
            }

            /// The event's `ev` tag.
            pub(crate) fn tag(&self) -> &'static str {
                match self {
                    $( Event::$v { .. } => $tag, )*
                }
            }

            /// Appends the event as one JSON line. Each line opens with one
            /// static copy of its whole prefix, `{"ev":"<tag>","t":`; then
            /// come the fields in table order, each behind its static key.
            /// Integers are written from a digit-pair table and floats by
            /// [`push_f64`], whose bytes equal `{:?}`'s (shortest round-trip),
            /// matching the workload trace persistence format.
            pub fn write_jsonl(&self, out: &mut Vec<u8>) {
                match self {
                    $(
                        Event::$v { time_s, $($field),* } => {
                            out.extend_from_slice(
                                concat!("{\"ev\":\"", $tag, "\",\"t\":").as_bytes(),
                            );
                            push_f64(out, *time_s);
                            $( $field.put(out, concat!(",\"", $key, "\":").as_bytes()); )*
                        }
                    )*
                }
                out.extend_from_slice(b"}\n");
            }

            /// Parses one line [`write_jsonl`](Event::write_jsonl) wrote,
            /// without its `\n`: the exact inverse, so writing the parsed
            /// event gives the line back byte for byte. Every producer
            /// writes through `write_jsonl`, so each variant's keys are
            /// matched as the writer's static prefixes, in the writer's
            /// order, with no whitespace and no key lookup. Floats are read
            /// by `str::parse::<f64>`, which recovers [`push_f64`]'s
            /// shortest round-trip bytes bit for bit, and must be finite;
            /// integers must fit their field's type. Errors name `lineno`.
            pub fn parse_jsonl(line: &str, lineno: usize) -> Result<Event, AuditError> {
                let mut r = Reader { line, rest: line, lineno };
                // Each variant's head, `{"ev":"<tag>"`, in table order.
                let ev = 'ev: {
                    $(
                        let head = concat!("{\"ev\":\"", $tag, "\"");
                        if let Some(rest) = line.strip_prefix(head) {
                            r.rest = rest;
                            break 'ev Event::$v {
                                time_s: f64::take(&mut r, br#","t":"#)?,
                                $( $field: Field::take(
                                    &mut r,
                                    concat!(",\"", $key, "\":").as_bytes(),
                                )?, )*
                            };
                        }
                    )*
                    // No head matched: say why.
                    r.key(br#"{"ev":""#)?;
                    let tag = r.string()?;
                    f64::take(&mut r, br#","t":"#)?;
                    return Err(r.bad(format!("unknown event kind {tag:?}")));
                };
                r.key(b"}")?;
                if !r.rest.is_empty() {
                    return Err(r.malformed("trailing bytes after the object"));
                }
                Ok(ev)
            }
        }
    };
}

events! {
    /// One structured telemetry event.
    ///
    /// Every variant carries its simulation timestamp `time_s`; a serialized
    /// stream is non-decreasing in time. A run's stream starts with
    /// [`Event::RunStart`] and ends with [`Event::RunSummary`].
    #[derive(Debug, Clone, PartialEq)]
    pub enum Event {
        // The per-request events come first: the parser tries tags in table
        // order, and these are nearly every line of a stream.
        /// A foreground volume request completed.
        RequestServed = "served" {
            /// Simulation time (completion instant).
            time_s: f64,
            /// End-to-end volume latency in microseconds.
            latency_us: f64 = "latency_us",
            /// The disk that completed the final piece.
            disk: u32 = "disk",
            /// That disk's effective speed tier at completion.
            tier: Tier = "tier",
        },
        /// A volume request served entirely by the controller DRAM cache
        /// (read hit or absorbed write) — no disk traffic, no `served` event.
        CacheHit = "cache_hit" {
            /// Simulation time (the arrival instant; DRAM serves in-line).
            time_s: f64,
            /// Latency charged to the request, microseconds.
            latency_us: f64 = "latency_us",
            /// Whether the request was a read hit or an absorbed write.
            op: CacheOp = "op",
        },
        /// A read request with at least one piece not resident in DRAM; the
        /// missing pieces continue to the spindle path.
        CacheMiss = "cache_miss" {
            /// Simulation time (the arrival instant).
            time_s: f64,
            /// Pieces that missed and were submitted to disks.
            chunks: u32 = "chunks",
        },
        /// Stream header: the run's identity and the parameters the auditor
        /// needs to recompute derived metrics.
        RunStart = "run_start" {
            /// Simulation time (always 0).
            time_s: f64,
            /// Deterministic run label, e.g. `"Hibernator/OLTP"`.
            label: String = "label",
            /// Number of disks in the array.
            disks: u32 = "disks",
            /// Number of speed levels per disk.
            levels: u32 = "levels",
            /// Simulated horizon in seconds.
            horizon_s: f64 = "horizon_s",
            /// Maximum concurrent migration jobs.
            migration_inflight: u32 = "inflight",
            /// Power/queue sampling interval in seconds.
            sample_interval_s: f64 = "sample_s",
            /// Response-series bucket width in seconds.
            series_bucket_s: f64 = "bucket_s",
            /// Response-time goal in seconds (`f64::MAX` for unmanaged runs).
            goal_s: f64 = "goal_s",
            /// Warm-up cutoff for goal-violation accounting, in seconds.
            warmup_s: f64 = "warmup_s",
            /// The run's master seed.
            seed: u64 = "seed",
        },
        /// The Hibernator planner finished an epoch boundary.
        EpochPlanned = "epoch" {
            /// Simulation time.
            time_s: f64,
            /// Planned disk count per speed level (index = level).
            per_level: Vec<u32> = "per_level",
            /// Whether the plan met the response goal in the model.
            feasible: bool = "feasible",
            /// Model-predicted mean response at the plan, seconds.
            predicted_response_s: f64 = "pred_response_s",
            /// Model-predicted average power at the plan, watts.
            predicted_power_w: f64 = "pred_power_w",
            /// Migration jobs enqueued to realize the plan.
            migration_jobs: u32 = "jobs",
            /// True if the coarse-grain check skipped reconfiguration.
            skipped: bool = "skipped",
            /// True if the layout actually changed.
            changed: bool = "changed",
        },
        /// A Hibernator-hosted migration policy finished a planning round
        /// (runs of other power policies carry none).
        PolicyDecision = "policy" {
            /// Simulation time.
            time_s: f64,
            /// Stable policy name (e.g. `"lfu"`).
            policy: Cow<'static, str> = "policy",
            /// Migration jobs proposed this round.
            moves: u32 = "moves",
            /// Moves withheld because the chunk was inside its grace period.
            deferred_grace: u32 = "deferred_grace",
            /// Moves withheld because the chunk's previous move is mid-copy.
            deferred_inflight: u32 = "deferred_inflight",
            /// Moves withheld by the promote/demote hysteresis.
            skipped_threshold: u32 = "skipped_threshold",
            /// The grace period in force, seconds. Auditable: no chunk may
            /// start a new move within this window of its last commit.
            grace_s: f64 = "grace_s",
            /// Disks put to sleep this epoch, whether the policy's plan or
            /// the standby extension parked them.
            sleepers: u32 = "sleepers",
        },
        /// A disk began a speed transition (or an instant level commit).
        SpeedTransition = "speed" {
            /// Simulation time.
            time_s: f64,
            /// Disk index.
            disk: u32 = "disk",
            /// Level left ([`STANDBY`] = -1 for standby).
            from: Tier = "from",
            /// Level targeted ([`STANDBY`] = -1 for standby).
            to: Tier = "to",
            /// What triggered the transition.
            reason: TransitionReason = "reason",
            /// True if a sticky-spindle fault stretched the ramp.
            stretched: bool = "slow",
        },
        /// A migration job started reading.
        MigrationStarted = "mig_start" {
            /// Simulation time.
            time_s: f64,
            /// Engine-assigned job id (unique within a run).
            job: u64 = "job",
            /// Chunk (extent) being moved; 0 for raw writes.
            chunk: u64 = "chunk",
            /// Source disk.
            src: u32 = "src",
            /// Destination disk.
            dst: u32 = "dst",
        },
        /// A migration job committed: data moved and the remap updated.
        MigrationMoved = "mig_moved" {
            /// Simulation time.
            time_s: f64,
            /// Engine-assigned job id.
            job: u64 = "job",
            /// Chunk (extent) moved; 0 for raw writes.
            chunk: u64 = "chunk",
            /// Source disk.
            src: u32 = "src",
            /// Destination disk.
            dst: u32 = "dst",
            /// Payload bytes moved.
            bytes: u64 = "bytes",
            /// The kind of job that committed.
            kind: MoveKind = "kind",
        },
        /// A migration job aborted (dirtied by foreground writes, or
        /// degenerate).
        MigrationAborted = "mig_abort" {
            /// Simulation time.
            time_s: f64,
            /// Engine-assigned job id.
            job: u64 = "job",
            /// Chunk the job was moving.
            chunk: u64 = "chunk",
        },
        /// A migration job was dropped or orphaned by a disk failure.
        MigrationDropped = "mig_drop" {
            /// Simulation time.
            time_s: f64,
            /// Engine-assigned job id.
            job: u64 = "job",
            /// Chunk the job was moving.
            chunk: u64 = "chunk",
        },
        /// The performance guard entered or left boost mode.
        GuardBoost = "boost" {
            /// Simulation time.
            time_s: f64,
            /// True on entry, false on exit.
            entered: bool = "entered",
            /// What triggered the action.
            reason: BoostReason = "reason",
        },
        /// A fault fired (scripted or hazard-driven).
        FaultInjected = "fault" {
            /// Simulation time.
            time_s: f64,
            /// Disk index.
            disk: u32 = "disk",
            /// Stable fault tag (see `FaultKind::label`).
            kind: Cow<'static, str> = "kind",
        },
        /// A write-back flush batch: dirty chunks destaged to their home
        /// disks (these are the writes that can wake a sleeping spindle).
        FlushBatch = "flush" {
            /// Simulation time.
            time_s: f64,
            /// Dirty chunks destaged in this batch.
            chunks: u32 = "chunks",
            /// Distinct home disks the batch touched.
            disks: u32 = "disks",
            /// True if the dirty cap forced the flush ahead of the timer.
            forced: bool = "forced",
        },
        /// End-of-run DRAM cache accounting (only present when the cache is
        /// enabled; emitted before the per-disk summaries).
        CacheSummary = "cache_summary" {
            /// Simulation time (the horizon).
            time_s: f64,
            /// Read requests served entirely from DRAM.
            read_hits: u64 = "read_hits",
            /// Read requests with at least one miss.
            read_misses: u64 = "read_misses",
            /// Write requests absorbed by the write-back buffer.
            write_absorbs: u64 = "write_absorbs",
            /// Dirty chunks destaged by eviction pressure.
            writebacks: u64 = "writebacks",
            /// Flush batches issued.
            flushes: u64 = "flushes",
            /// Dirty chunks destaged by flush batches.
            flushed_chunks: u64 = "flushed_chunks",
        },
        /// A periodic power sample (mean watts over the preceding interval).
        PowerSample = "power" {
            /// Simulation time.
            time_s: f64,
            /// Mean array power over the interval, watts.
            watts: f64 = "watts",
        },
        /// Per-disk end-of-run accounting.
        DiskSummary = "disk" {
            /// Simulation time (the horizon).
            time_s: f64,
            /// Disk index.
            disk: u32 = "disk",
            /// Energy by [`EnergyComponent::ALL`] order, joules.
            energy_j: [f64; 6] = "idle_spin…migration",
            /// Speed transitions this disk performed.
            transitions: u64 = "transitions",
            /// When the disk failed, if it did.
            failed_at_s: Option<f64> = "failed_at_s",
        },
        /// Stream trailer: whole-run totals the auditor reconciles against.
        RunSummary = "run_end" {
            /// Simulation time (the horizon).
            time_s: f64,
            /// Total array energy, joules.
            total_j: f64 = "total_j",
            /// Energy by [`EnergyComponent::ALL`] order, joules.
            energy_j: [f64; 6] = "idle_spin…migration",
            /// Volume requests completed.
            completed: u64 = "completed",
            /// Requests still in flight at the horizon.
            incomplete: u64 = "incomplete",
            /// Speed transitions across all disks.
            transitions: u64 = "transitions",
            /// Mean volume response, seconds.
            mean_response_s: f64 = "mean_response_s",
            /// Goal-violation fraction per the run's goal/warm-up.
            violation: f64 = "violation",
            /// Latency histogram bucket counts (fixed layout, microseconds).
            latency_hist: Vec<u64> = "latency_hist",
            /// Latency histogram overflow count.
            latency_overflow: u64 = "latency_overflow",
            /// Queue-depth histogram bucket counts (sampled).
            queue_hist: Vec<u64> = "queue_hist",
            /// Queue-depth histogram overflow count.
            queue_overflow: u64 = "queue_overflow",
            /// Committed migration moves.
            moved: u64 = "moved",
            /// Final remap-table version (bumps per relocate/swap).
            remap_version: u64 = "remap_version",
            /// Events the ring buffer had to drop (0 for a complete stream).
            dropped: u64 = "dropped",
        },
        /// Fleet-stream header/boundary: the arbiter reviewed the fleet at a
        /// fleet-epoch boundary (these live in a dedicated fleet stream, not
        /// in any per-array stream).
        FleetEpoch = "fleet_epoch" {
            /// Simulation time (the epoch boundary).
            time_s: f64,
            /// Zero-based fleet epoch index.
            epoch: u32 = "epoch",
            /// Arrays under management.
            arrays: u32 = "arrays",
            /// The datacenter budget in force, watts (`None` = unlimited).
            budget_w: Option<f64> = "budget_w",
            /// Sum of observed per-array power at the boundary, watts.
            demand_w: f64 = "demand_w",
        },
        /// The arbiter granted one array its power cap for the next epoch.
        CapGrant = "cap_grant" {
            /// Simulation time (the epoch boundary).
            time_s: f64,
            /// Array index.
            array: u32 = "array",
            /// Granted cap, watts.
            cap_w: f64 = "cap_w",
            /// The array's observed power at the boundary, watts.
            observed_w: f64 = "observed_w",
        },
        /// The placement planner moved a tenant between arrays at an epoch
        /// boundary (takes effect for the next epoch's requests).
        TenantMove = "tenant_move" {
            /// Simulation time (the epoch boundary).
            time_s: f64,
            /// Tenant index.
            tenant: u32 = "tenant",
            /// Array the tenant left.
            from_array: u32 = "from",
            /// Array the tenant joined.
            to_array: u32 = "to",
        },
        /// Fleet-stream trailer: whole-fleet totals the fleet auditor
        /// reconciles against.
        FleetSummary = "fleet_end" {
            /// Simulation time (the horizon).
            time_s: f64,
            /// Total energy across every array, joules.
            total_j: f64 = "total_j",
            /// Integrated budget over the horizon, joules (`None` = unlimited).
            budget_j: Option<f64> = "budget_j",
            /// Simulated seconds during which observed fleet power exceeded
            /// the budget at a boundary check.
            cap_violation_s: f64 = "cap_violation_s",
            /// Volume requests completed across the fleet.
            completed: u64 = "completed",
            /// Requests still in flight at the horizon, fleet-wide.
            incomplete: u64 = "incomplete",
            /// Requests in the shared input trace.
            total_requests: u64 = "total_requests",
            /// Requests routed to arrays by the placement map.
            routed_requests: u64 = "routed_requests",
            /// Tenant moves performed over the run.
            tenant_moves: u64 = "tenant_moves",
        },
    }
}

/// How a field's value is written behind its static `key` (the field's
/// full prefix, comma included: `,"disk":`) and read back.
trait Field: Sized {
    fn put(&self, out: &mut Vec<u8>, key: &[u8]);
    fn take(r: &mut Reader<'_>, key: &[u8]) -> Result<Self, AuditError>;
}

impl Field for f64 {
    fn put(&self, out: &mut Vec<u8>, key: &[u8]) {
        out.extend_from_slice(key);
        push_f64(out, *self);
    }

    #[inline]
    fn take(r: &mut Reader<'_>, key: &[u8]) -> Result<Self, AuditError> {
        r.key(key)?;
        let raw = r.token()?;
        r.finite(key, raw)
    }
}

/// A float or `null`.
impl Field for Option<f64> {
    fn put(&self, out: &mut Vec<u8>, key: &[u8]) {
        match self {
            Some(v) => v.put(out, key),
            None => put_raw(out, key, b"null"),
        }
    }

    fn take(r: &mut Reader<'_>, key: &[u8]) -> Result<Self, AuditError> {
        r.key(key)?;
        match r.token()? {
            "null" => Ok(None),
            raw => r.finite(key, raw).map(Some),
        }
    }
}

impl Field for bool {
    fn put(&self, out: &mut Vec<u8>, key: &[u8]) {
        put_raw(out, key, if *self { b"true" } else { b"false" });
    }

    fn take(r: &mut Reader<'_>, key: &[u8]) -> Result<Self, AuditError> {
        r.key(key)?;
        match r.token()? {
            "true" => Ok(true),
            "false" => Ok(false),
            _ => Err(r.bad(format!("bad/missing bool field {:?}", name(key)))),
        }
    }
}

/// Integers, read as their own type so out-of-range values fail.
macro_rules! int_fields {
    ($($t:ty => $push:ident),*) => {$(
        impl Field for $t {
            fn put(&self, out: &mut Vec<u8>, key: &[u8]) {
                out.extend_from_slice(key);
                $push(out, (*self).into());
            }

            #[inline]
            fn take(r: &mut Reader<'_>, key: &[u8]) -> Result<Self, AuditError> {
                r.key(key)?;
                let raw = r.token()?;
                raw.parse()
                    .map_err(|_| r.bad(format!("bad/missing integer field {:?}", name(key))))
            }
        }
    )*};
}

int_fields!(u32 => push_u64, u64 => push_u64, i32 => push_i64);

/// An integer array: `[a,b,c]`.
impl<T: Copy + Into<u64> + FromStr> Field for Vec<T> {
    fn put(&self, out: &mut Vec<u8>, key: &[u8]) {
        out.extend_from_slice(key);
        out.push(b'[');
        for (i, &x) in self.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            push_u64(out, x.into());
        }
        out.push(b']');
    }

    fn take(r: &mut Reader<'_>, key: &[u8]) -> Result<Self, AuditError> {
        r.key(key)?;
        r.key(b"[")?;
        let mut xs = Vec::new();
        if r.rest().first() == Some(&b']') {
            r.skip(1);
            return Ok(xs);
        }
        loop {
            let raw = r.token()?;
            let x = raw
                .parse()
                .map_err(|_| r.bad(format!("bad element in array {:?}", name(key))))?;
            xs.push(x);
            match r.rest().first() {
                Some(b',') => r.skip(1),
                Some(b']') => {
                    r.skip(1);
                    return Ok(xs);
                }
                Some(_) => return Err(r.malformed("expected ',' or ']'")),
                None => return Err(r.malformed("truncated line")),
            }
        }
    }
}

/// The run label, escaped as `{:?}` escapes it (once per run).
impl Field for String {
    fn put(&self, out: &mut Vec<u8>, key: &[u8]) {
        put_raw(out, key, format!("{self:?}").as_bytes());
    }

    fn take(r: &mut Reader<'_>, key: &[u8]) -> Result<Self, AuditError> {
        let raw = r.quoted(key)?;
        let mut out = String::with_capacity(raw.len());
        let mut chars = raw.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            let c = match chars.next() {
                Some('n') => '\n',
                Some('r') => '\r',
                Some('t') => '\t',
                Some('0') => '\0',
                Some(c @ ('"' | '\'' | '\\')) => c,
                Some('u') => {
                    let hex = chars
                        .as_str()
                        .strip_prefix('{')
                        .and_then(|h| h.split_once('}'));
                    let c = hex.and_then(|(h, rest)| {
                        let c = char::from_u32(u32::from_str_radix(h, 16).ok()?)?;
                        chars = rest.chars();
                        Some(c)
                    });
                    c.ok_or_else(|| r.bad("bad \\u escape in label".to_string()))?
                }
                _ => return Err(r.bad("bad escape in label".to_string())),
            };
            out.push(c);
        }
        Ok(out)
    }
}

/// A free-form tag (a policy's name, a fault's kind), written unescaped.
impl Field for Cow<'static, str> {
    fn put(&self, out: &mut Vec<u8>, key: &[u8]) {
        put_tag(out, key, self);
    }

    fn take(r: &mut Reader<'_>, key: &[u8]) -> Result<Self, AuditError> {
        Ok(Cow::Owned(r.quoted(key)?.to_string()))
    }
}

/// The tag enums, written by `as_str` and read back by matching it.
macro_rules! tag_fields {
    ($($t:ident [$($v:ident),*]),*) => {$(
        impl Field for $t {
            fn put(&self, out: &mut Vec<u8>, key: &[u8]) {
                put_tag(out, key, self.as_str());
            }

            #[inline]
            fn take(r: &mut Reader<'_>, key: &[u8]) -> Result<Self, AuditError> {
                let v = r.quoted(key)?;
                [$($t::$v),*]
                    .into_iter()
                    .find(|x| x.as_str() == v)
                    .ok_or_else(|| r.bad(format!("unknown {} {v:?}", name(key))))
            }
        }
    )*};
}

tag_fields!(
    TransitionReason [Policy, DemandWake, Latched],
    MoveKind [Relocate, Swap, Rebuild, Raw],
    BoostReason [Latency, DiskFailure],
    CacheOp [Read, Write]
);

/// Per-component energy: one float per [`EnergyComponent::ALL`] entry,
/// each behind its `label()` as key (`,"idle_spin":x,"seek":y,…`), so
/// the table's key for the field (`"idle_spin…migration"`) is never
/// written.
impl Field for [f64; 6] {
    fn put(&self, out: &mut Vec<u8>, _key: &[u8]) {
        for (c, &j) in EnergyComponent::ALL.iter().zip(self) {
            out.extend_from_slice(b",\"");
            out.extend_from_slice(c.label().as_bytes());
            out.extend_from_slice(b"\":");
            push_f64(out, j);
        }
    }

    /// Only `disk` and `run_end` lines carry energy, a few per run, so
    /// each key is built as it is matched.
    fn take(r: &mut Reader<'_>, _key: &[u8]) -> Result<Self, AuditError> {
        let mut energy_j = [0.0; 6];
        for (c, j) in EnergyComponent::ALL.iter().zip(&mut energy_j) {
            *j = f64::take(r, format!(",\"{}\":", c.label()).as_bytes())?;
        }
        Ok(energy_j)
    }
}

fn put_raw(out: &mut Vec<u8>, key: &[u8], raw: &[u8]) {
    out.extend_from_slice(key);
    out.extend_from_slice(raw);
}

/// A string tag that needs no escaping.
fn put_tag(out: &mut Vec<u8>, key: &[u8], v: &str) {
    out.extend_from_slice(key);
    out.push(b'"');
    out.extend_from_slice(v.as_bytes());
    out.push(b'"');
}

/// A cursor over one line for [`Event::parse_jsonl`]: `rest` is what is
/// left of `line` to read.
struct Reader<'a> {
    line: &'a str,
    rest: &'a str,
    lineno: usize,
}

impl<'a> Reader<'a> {
    #[cold]
    fn bad(&self, msg: String) -> AuditError {
        AuditError::Parse(self.lineno, msg)
    }

    #[cold]
    fn malformed(&self, what: &str) -> AuditError {
        self.bad(format!("malformed line: {what}"))
    }

    #[inline]
    fn rest(&self) -> &'a [u8] {
        self.rest.as_bytes()
    }

    #[inline]
    fn skip(&mut self, n: usize) {
        self.rest = &self.rest[n..];
    }

    /// Consumes `key`.
    #[inline]
    fn key(&mut self, key: &[u8]) -> Result<(), AuditError> {
        if self.rest().starts_with(key) {
            self.skip(key.len());
            Ok(())
        } else {
            Err(self.key_error(key))
        }
    }

    /// Why the line does not hold `key` at the cursor.
    #[cold]
    fn key_error(&self, key: &[u8]) -> AuditError {
        let rest = self.rest();
        let open_quotes = rest.iter().filter(|&&b| b == b'"').count() % 2 == 1;
        if key.starts_with(rest) && open_quotes {
            self.malformed("unterminated string")
        } else if key.starts_with(rest) || !self.line.ends_with('}') {
            // The line stops short, or never closes its object.
            self.malformed("truncated line")
        } else if key[0] != b',' {
            self.malformed(&format!("expected {:?}", String::from_utf8_lossy(key)))
        } else if rest[0] == b'}' {
            self.bad(format!("missing field {:?}", name(key)))
        } else if rest[0] == b',' {
            self.bad(format!("expected field {:?}", name(key)))
        } else {
            self.malformed("expected ',' or '}'")
        }
    }

    /// A bare value (number, `true`, `null`) up to the next `,`, `}` or `]`.
    #[inline]
    fn token(&mut self) -> Result<&'a str, AuditError> {
        let rest = self.rest();
        let len = rest
            .iter()
            .position(|c| matches!(c, b',' | b'}' | b']'))
            .unwrap_or(rest.len());
        if len == 0 {
            return Err(self.malformed(if rest.is_empty() {
                "truncated line"
            } else {
                "missing value"
            }));
        }
        let (raw, rest) = self.rest.split_at(len);
        self.rest = rest;
        Ok(raw)
    }

    /// The body of a string whose opening quote was consumed, up to the
    /// next unescaped quote, which is consumed too.
    #[inline]
    fn string(&mut self) -> Result<&'a str, AuditError> {
        let rest = self.rest();
        let mut j = 0;
        while j < rest.len() {
            match rest[j] {
                b'\\' => j += 2,
                b'"' => {
                    let body = &self.rest[..j];
                    self.skip(j + 1);
                    return Ok(body);
                }
                _ => j += 1,
            }
        }
        Err(self.malformed("unterminated string"))
    }

    /// `key`, then a quoted string.
    #[inline]
    fn quoted(&mut self, key: &[u8]) -> Result<&'a str, AuditError> {
        self.key(key)?;
        self.key(b"\"")?;
        self.string()
    }

    /// JSON has no NaN or infinity, so `NaN`, `inf` (which `f64::from_str`
    /// accepts) and out-of-range literals are rejected.
    #[inline]
    fn finite(&self, key: &[u8], raw: &str) -> Result<f64, AuditError> {
        match raw.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(x),
            parsed => Err(self.bad(match parsed {
                Ok(_) => format!("non-finite f64 field {:?}: {raw}", name(key)),
                Err(_) => format!("bad/missing f64 field {:?}", name(key)),
            })),
        }
    }
}

/// The field name inside a static key: `,"disk":` names `disk`.
fn name(key: &[u8]) -> &str {
    std::str::from_utf8(key)
        .unwrap_or_default()
        .trim_matches(|c| matches!(c, '{' | ',' | '"' | ':'))
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
    fn pinned_lines() -> Vec<(Event, &'static str)> {
        let energy = [1.0, 2.5, 3.0, 4.0, 5.0, 6.0];
        vec![
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
                    policy: "lfu".into(),
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
                    kind: "disk_failure".into(),
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
        ]
    }

    #[test]
    fn every_variant_serializes_to_pinned_bytes() {
        let mut seen = [false; 22];
        for (ev, want) in &pinned_lines() {
            assert_eq!(line(ev), format!("{want}\n"));
            seen[variant_index(ev)] = true;
        }
        let missing: Vec<usize> = (0..seen.len()).filter(|&i| !seen[i]).collect();
        assert!(
            missing.is_empty(),
            "variants without a pinned line: {missing:?}"
        );
    }

    #[test]
    fn every_pinned_line_parses_back_to_its_event() {
        for (n, (ev, want)) in pinned_lines().iter().enumerate() {
            assert_eq!(&Event::parse_jsonl(want, n + 1).unwrap(), ev, "{want}");
        }
    }
}
