//! The simulated multi-speed disk: queue, state machine, and energy accrual.
//!
//! [`Disk`] is an event-driven object. The simulation driver (the `array`
//! crate) owns the global event queue; the disk exposes
//! [`Disk::next_event_time`] and expects [`Disk::poll_event`] to be called
//! exactly at that time. Between events the disk's state is piecewise
//! constant, which lets [`Disk::accrue`] attribute energy exactly.
//!
//! # State machine
//!
//! ```text
//!            request_speed(Level l')            ramp done
//! Spinning(l) ─────────────────────► Transitioning ─────────► Spinning(l')
//!     ▲                                   ▲    │
//!     │ ramp done                         │    └──► Standby (if target standby)
//!     │                                   │ auto spin-up on demand
//!     └──────────── Transitioning ◄──── Standby ◄── request_speed(Standby)
//! ```
//!
//! Speed changes requested while a request is in service (or another ramp is
//! running) are *latched* and applied at the next quiescent point — the disk
//! never aborts a request or a ramp halfway.
//!
//! # Service discipline
//!
//! Two FIFO queues: foreground first, migration only when no foreground
//! request waits. One request occupies the head at a time. Service time is
//! seek + rotational latency (sampled uniformly per request from the disk's
//! deterministic RNG) + transfer; see [`crate::service`].

use crate::power::PowerModel;
use crate::request::{Completion, DiskRequest, RequestClass};
use crate::service::ServiceModel;
use crate::spec::{DiskSpec, SpeedLevel};
use faults::ReliabilityLedger;
use simkit::{DetRng, EnergyComponent, EnergyLedger, SimTime, TimeWeighted};
use std::collections::VecDeque;

/// Where a speed change is headed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpinTarget {
    /// Spin at the given level.
    Level(SpeedLevel),
    /// Stop the platters entirely.
    Standby,
}

/// The disk's spindle state.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SpinState {
    /// Platters stopped.
    Standby,
    /// Serving (or ready to serve) at a level.
    Spinning(SpeedLevel),
    /// Ramping toward `target`; done at `until`.
    Transitioning {
        target: SpinTarget,
        until: SimTime,
        power_w: f64,
    },
}

/// A request currently occupying the head.
#[derive(Debug, Clone, Copy)]
struct InService {
    req: DiskRequest,
    start: SimTime,
    /// Seek phase ends here; rotation+transfer run until `finish`.
    seek_end: SimTime,
    finish: SimTime,
    end_cylinder: u32,
}

/// Aggregate per-disk statistics.
#[derive(Debug, Clone)]
pub struct DiskStats {
    /// Foreground requests completed.
    pub fg_completed: u64,
    /// Migration requests completed.
    pub mig_completed: u64,
    /// Total sectors transferred (both classes).
    pub sectors_transferred: u64,
    /// Seconds the head spent in service.
    pub busy_s: f64,
    /// Number of spindle speed/standby transitions started.
    pub transitions: u64,
    /// Transitions stretched by an injected slow-transition fault window.
    pub slow_transitions: u64,
    /// Time-weighted queue depth (foreground + migration + in-service).
    pub queue_depth: TimeWeighted,
}

/// A simulated multi-speed disk.
///
/// # Examples
/// ```
/// use diskmodel::{Disk, DiskRequest, DiskSpec, IoKind, RequestClass};
/// use simkit::SimTime;
///
/// let spec = DiskSpec::ultrastar_multispeed(6);
/// let mut disk = Disk::new(0, &spec, 42, spec.top_level());
/// disk.submit(SimTime::ZERO, DiskRequest {
///     id: 1,
///     sector: 1_000_000,
///     sectors: 16, // 8 KiB
///     kind: IoKind::Read,
///     class: RequestClass::Foreground,
///     issue_time: SimTime::ZERO,
/// });
/// // Drive the disk's event loop to completion.
/// let t = disk.next_event_time().expect("service scheduled");
/// let done = disk.poll_event(t).expect("the request completes");
/// assert!(done.service_s > 0.0 && done.service_s < 0.05);
/// ```
pub struct Disk {
    id: usize,
    service_model: ServiceModel,
    power: PowerModel,
    rng: DetRng,
    auto_spinup: bool,

    state: SpinState,
    /// Speed change to apply at the next quiescent point.
    pending: Option<SpinTarget>,
    /// Level to resume at when spun up on demand from standby.
    resume_level: SpeedLevel,

    fg_queue: VecDeque<DiskRequest>,
    mig_queue: VecDeque<DiskRequest>,
    in_service: Option<InService>,
    head_cylinder: u32,

    energy: EnergyLedger,
    last_accrual: SimTime,
    idle_since: Option<SimTime>,
    stats: DiskStats,
    num_levels: usize,

    ledger: ReliabilityLedger,
    failed: bool,
    /// Injected slow-transition fault: ramps started before `slow_until`
    /// take `slow_factor ×` their nominal duration (and energy).
    slow_factor: f64,
    slow_until: SimTime,

    /// When set, every counted transition appends a [`TransitionRecord`]
    /// for the telemetry layer to drain (off by default: the hot path
    /// stays allocation-free).
    record_transitions: bool,
    transition_log: Vec<TransitionRecord>,
}

/// Why a disk started a speed transition (see [`Disk::drain_transitions`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionCause {
    /// A power policy called [`Disk::request_speed`] at a quiescent point.
    Policy,
    /// A request arrived at a standby disk and auto spin-up kicked in.
    DemandWake,
    /// A latched target applied when the current service/ramp finished.
    Latched,
}

/// One recorded speed transition, drained by the telemetry layer.
///
/// `from`/`to` use the event-stream tier convention: the speed-level
/// index, or `-1` for standby.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransitionRecord {
    /// When the ramp began.
    pub time_s: f64,
    /// Tier left (`-1` = standby).
    pub from: i32,
    /// Tier targeted (`-1` = standby).
    pub to: i32,
    /// What triggered it.
    pub cause: TransitionCause,
    /// True if a sticky-spindle fault stretched this ramp.
    pub stretched: bool,
}

impl Disk {
    /// Creates a disk spinning at `initial_level`, head parked at cylinder 0.
    ///
    /// `seed` feeds the disk's private rotational-latency RNG stream;
    /// `auto_spinup` controls whether a foreground arrival wakes a standby
    /// disk automatically (true for every policy in this suite).
    ///
    /// # Panics
    /// Panics if the spec fails validation or `initial_level` is out of
    /// range.
    pub fn new(id: usize, spec: &DiskSpec, seed: u64, initial_level: SpeedLevel) -> Disk {
        spec.validate().expect("invalid disk spec");
        assert!(initial_level.index() < spec.num_levels(), "bad level");
        Disk {
            id,
            service_model: ServiceModel::new(spec),
            power: PowerModel::new(spec),
            rng: DetRng::new(seed, &format!("disk-{id}")),
            auto_spinup: true,
            state: SpinState::Spinning(initial_level),
            pending: None,
            resume_level: initial_level,
            fg_queue: VecDeque::new(),
            mig_queue: VecDeque::new(),
            in_service: None,
            head_cylinder: 0,
            energy: EnergyLedger::new(),
            last_accrual: SimTime::ZERO,
            idle_since: Some(SimTime::ZERO),
            stats: DiskStats {
                fg_completed: 0,
                mig_completed: 0,
                sectors_transferred: 0,
                busy_s: 0.0,
                transitions: 0,
                slow_transitions: 0,
                queue_depth: TimeWeighted::new(SimTime::ZERO, 0.0),
            },
            num_levels: spec.num_levels(),
            ledger: ReliabilityLedger::default(),
            failed: false,
            slow_factor: 1.0,
            slow_until: SimTime::ZERO,
            record_transitions: false,
            transition_log: Vec::new(),
        }
    }

    /// Enables (or disables) transition recording for telemetry.
    pub fn set_transition_recording(&mut self, on: bool) {
        self.record_transitions = on;
    }

    /// Takes all transition records accumulated since the last drain,
    /// oldest first. Cheap (no allocation) when recording is off.
    pub fn drain_transitions(&mut self) -> Vec<TransitionRecord> {
        std::mem::take(&mut self.transition_log)
    }

    /// True if transition records are waiting to be drained (never while
    /// recording is off).
    #[inline]
    pub fn has_transitions(&self) -> bool {
        !self.transition_log.is_empty()
    }

    /// Disables automatic spin-up on demand (requests then wait in the
    /// queue until a policy calls [`Disk::request_speed`]).
    pub fn set_auto_spinup(&mut self, on: bool) {
        self.auto_spinup = on;
    }

    /// This disk's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The service model (geometry, seek curve) backing this disk.
    pub fn service_model(&self) -> &ServiceModel {
        &self.service_model
    }

    /// The power model backing this disk.
    pub fn power_model(&self) -> &PowerModel {
        &self.power
    }

    /// The current speed level, or `None` while in standby or ramping.
    pub fn current_level(&self) -> Option<SpeedLevel> {
        match self.state {
            SpinState::Spinning(l) => Some(l),
            _ => None,
        }
    }

    /// The level the disk serves at / will next serve at: the current level,
    /// the ramp target, or the resume level from standby.
    pub fn effective_level(&self) -> SpeedLevel {
        match self.state {
            SpinState::Spinning(l) => l,
            SpinState::Transitioning {
                target: SpinTarget::Level(l),
                ..
            } => l,
            _ => self.resume_level,
        }
    }

    /// True if the platters are stopped.
    pub fn is_standby(&self) -> bool {
        matches!(self.state, SpinState::Standby)
    }

    /// True while ramping between speeds.
    pub fn is_transitioning(&self) -> bool {
        matches!(self.state, SpinState::Transitioning { .. })
    }

    /// True if a request occupies the head.
    pub fn is_busy(&self) -> bool {
        self.in_service.is_some()
    }

    /// Number of queued (not yet in-service) requests.
    pub fn queue_len(&self) -> usize {
        self.fg_queue.len() + self.mig_queue.len()
    }

    /// Number of queued foreground requests.
    pub fn fg_queue_len(&self) -> usize {
        self.fg_queue.len()
    }

    /// How long the disk has been spinning idle (no service, empty queue),
    /// or `None` if it is not idle.
    pub fn idle_duration(&self, now: SimTime) -> Option<f64> {
        self.idle_since.map(|t| now.saturating_since(t).as_secs())
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> &DiskStats {
        &self.stats
    }

    /// Energy consumed so far, accrued up to `now`.
    pub fn energy(&mut self, now: SimTime) -> EnergyLedger {
        self.accrue(now);
        self.energy.clone()
    }

    /// True once the disk has suffered a whole-disk failure.
    pub fn has_failed(&self) -> bool {
        self.failed
    }

    /// Reliability ledger snapshot, accrued up to `now`.
    pub fn reliability(&mut self, now: SimTime) -> ReliabilityLedger {
        self.accrue(now);
        self.ledger.clone()
    }

    /// Injects a slow-transition fault window: ramps started before `until`
    /// take `factor ×` their nominal duration (energy scales with it, since
    /// transition power is unchanged).
    pub fn set_slow_transitions(&mut self, factor: f64, until: SimTime) {
        assert!(factor > 0.0, "non-positive slow factor");
        self.slow_factor = factor;
        self.slow_until = until;
    }

    /// Kills the disk at `now`: the spindle stops drawing power, the ledger
    /// records the failure, and every queued or in-flight request is drained
    /// and returned so the driver can redirect or account for it. All later
    /// submissions and speed requests are ignored.
    pub fn fail(&mut self, now: SimTime) -> Vec<DiskRequest> {
        if self.failed {
            return Vec::new();
        }
        self.accrue(now);
        self.failed = true;
        self.ledger.note_failure(now.as_secs());
        let mut dropped = Vec::new();
        if let Some(svc) = self.in_service.take() {
            dropped.push(svc.req);
            self.stats.queue_depth.add(now, -1.0);
        }
        for req in self.fg_queue.drain(..).chain(self.mig_queue.drain(..)) {
            dropped.push(req);
            self.stats.queue_depth.add(now, -1.0);
        }
        self.state = SpinState::Standby;
        self.pending = None;
        self.idle_since = None;
        dropped
    }

    /// The next instant this disk needs [`Disk::poll_event`] called, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        if self.failed {
            return None;
        }
        let t1 = self.in_service.as_ref().map(|s| s.finish);
        let t2 = match self.state {
            SpinState::Transitioning { until, .. } => Some(until),
            _ => None,
        };
        match (t1, t2) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    // ------------------------------------------------------------------
    // Energy accrual
    // ------------------------------------------------------------------

    /// Attributes energy (and reliability duty-cycle time) from the last
    /// accrual point up to `now`.
    fn accrue(&mut self, now: SimTime) {
        let from = self.last_accrual;
        if now <= from {
            return;
        }
        if self.failed {
            // A dead disk draws no power and accrues no duty cycle.
            self.last_accrual = now;
            return;
        }
        let dt_s = (now - from).as_secs();
        match self.state {
            SpinState::Standby => self.ledger.accrue_standby(dt_s),
            _ => self.ledger.accrue_active(dt_s),
        }
        match self.state {
            SpinState::Standby => {
                let dt = (now - from).as_secs();
                self.energy
                    .add(EnergyComponent::Standby, self.power.standby_w() * dt);
            }
            SpinState::Transitioning { power_w, .. } => {
                let dt = (now - from).as_secs();
                self.energy.add(EnergyComponent::Transition, power_w * dt);
            }
            SpinState::Spinning(level) => {
                if let Some(svc) = self.in_service {
                    self.accrue_service(from, now, level, &svc);
                } else {
                    let dt = (now - from).as_secs();
                    self.energy
                        .add(EnergyComponent::IdleSpin, self.power.idle_w(level) * dt);
                }
            }
        }
        self.last_accrual = now;
    }

    fn accrue_service(&mut self, from: SimTime, now: SimTime, level: SpeedLevel, svc: &InService) {
        let migration = svc.req.class == RequestClass::Migration;
        // Seek phase: [start, seek_end)
        let seek_lo = from.max(svc.start);
        let seek_hi = now.min(svc.seek_end);
        if seek_hi > seek_lo {
            let j = self.power.seek_w(level) * (seek_hi - seek_lo).as_secs();
            let comp = if migration {
                EnergyComponent::Migration
            } else {
                EnergyComponent::Seek
            };
            self.energy.add(comp, j);
        }
        // Rotation + transfer phase: [seek_end, finish)
        let xf_lo = from.max(svc.seek_end);
        let xf_hi = now.min(svc.finish);
        if xf_hi > xf_lo {
            let j = self.power.transfer_w(level) * (xf_hi - xf_lo).as_secs();
            let comp = if migration {
                EnergyComponent::Migration
            } else {
                EnergyComponent::Transfer
            };
            self.energy.add(comp, j);
        }
    }

    // ------------------------------------------------------------------
    // Mutators (driver API)
    // ------------------------------------------------------------------

    /// Enqueues a request at `now`. May start service or an automatic
    /// spin-up; the driver must re-read [`Disk::next_event_time`] afterwards.
    pub fn submit(&mut self, now: SimTime, req: DiskRequest) {
        if self.failed {
            // The driver redirects around dead disks; a stray submission is
            // silently dropped rather than stranded in a queue that will
            // never drain.
            return;
        }
        self.accrue(now);
        self.idle_since = None;
        match req.class {
            RequestClass::Foreground => self.fg_queue.push_back(req),
            RequestClass::Migration => self.mig_queue.push_back(req),
        }
        self.stats.queue_depth.add(now, 1.0);

        match self.state {
            SpinState::Standby => {
                if self.auto_spinup {
                    self.begin_transition(
                        now,
                        SpinTarget::Level(self.resume_level),
                        TransitionCause::DemandWake,
                    );
                }
            }
            SpinState::Transitioning { .. } => {
                // Heading to standby while work arrives: bounce back up.
                self.ensure_wake_pending();
            }
            SpinState::Spinning(_) => {
                if self.in_service.is_none() {
                    self.try_start_service(now);
                }
            }
        }
    }

    /// Wake invariant: a disk heading to (or latched for) standby while
    /// requests wait must come back up, or the queue would strand —
    /// on-demand wake-up only triggers on *new* submissions.
    fn ensure_wake_pending(&mut self) {
        if !self.auto_spinup {
            return;
        }
        let queued = !self.fg_queue.is_empty() || !self.mig_queue.is_empty();
        if !queued {
            return;
        }
        let heading_down = matches!(
            self.state,
            SpinState::Transitioning {
                target: SpinTarget::Standby,
                ..
            }
        );
        if heading_down && self.pending.is_none() {
            self.pending = Some(SpinTarget::Level(self.resume_level));
        }
        if self.pending == Some(SpinTarget::Standby) {
            self.pending = Some(SpinTarget::Level(self.resume_level));
        }
    }

    /// Requests a spindle state change. Applied immediately if the disk is
    /// quiescent, otherwise latched and applied when the current request or
    /// ramp finishes.
    ///
    /// # Panics
    /// Panics if the target level is out of range.
    pub fn request_speed(&mut self, now: SimTime, target: SpinTarget) {
        if let SpinTarget::Level(l) = target {
            assert!(l.index() < self.num_levels, "bad target level");
        }
        if self.failed {
            return;
        }
        self.accrue(now);
        match self.state {
            SpinState::Spinning(cur) => {
                if SpinTarget::Level(cur) == target {
                    self.pending = None;
                    return;
                }
                if self.in_service.is_some() {
                    self.pending = Some(target);
                } else {
                    self.pending = None;
                    self.begin_transition(now, target, TransitionCause::Policy);
                }
            }
            SpinState::Standby => {
                if target == SpinTarget::Standby {
                    self.pending = None;
                    return;
                }
                self.pending = None;
                self.begin_transition(now, target, TransitionCause::Policy);
            }
            SpinState::Transitioning { target: cur, .. } => {
                if cur == target {
                    self.pending = None;
                } else {
                    self.pending = Some(target);
                }
                // Never let a standby directive strand queued work.
                self.ensure_wake_pending();
            }
        }
    }

    /// Handles the event due at `now` (service completion and/or ramp end)
    /// and returns the completed request, if any. The driver must call this
    /// exactly at [`Disk::next_event_time`]. A single head means at most
    /// one request finishes per event, so `Option` captures the full
    /// result.
    pub fn poll_event(&mut self, now: SimTime) -> Option<Completion> {
        self.accrue(now);
        if self.failed {
            return None;
        }
        let mut done = None;

        // Ramp end?
        if let SpinState::Transitioning { target, until, .. } = self.state {
            if until <= now {
                self.state = match target {
                    SpinTarget::Level(l) => {
                        self.resume_level = l;
                        SpinState::Spinning(l)
                    }
                    SpinTarget::Standby => SpinState::Standby,
                };
                self.apply_pending_or_continue(now);
                self.update_idle_marker(now);
            }
        }

        // Service completion?
        if let Some(svc) = self.in_service {
            if svc.finish <= now {
                self.in_service = None;
                self.head_cylinder = svc.end_cylinder;
                self.stats.queue_depth.add(now, -1.0);
                self.stats.busy_s += (svc.finish - svc.start).as_secs();
                self.stats.sectors_transferred += u64::from(svc.req.sectors);
                match svc.req.class {
                    RequestClass::Foreground => self.stats.fg_completed += 1,
                    RequestClass::Migration => self.stats.mig_completed += 1,
                }
                done = Some(Completion {
                    request: svc.req,
                    disk: self.id,
                    finish_time: svc.finish,
                    queue_delay_s: (svc.start - svc.req.issue_time).as_secs(),
                    service_s: (svc.finish - svc.start).as_secs(),
                });
                // Quiescent point: apply a latched speed change first, else
                // keep serving.
                self.apply_pending_or_continue(now);
                self.update_idle_marker(now);
            }
        }
        done
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Applies a latched spindle target at a quiescent point. A latched
    /// standby is cancelled (dropped) when requests are waiting and the
    /// disk auto-spins-up — descending would strand the queue, since
    /// on-demand wake-up only triggers on *new* submissions.
    fn apply_pending_or_continue(&mut self, now: SimTime) {
        if let Some(p) = self.pending.take() {
            let strands_queue = p == SpinTarget::Standby
                && self.auto_spinup
                && (!self.fg_queue.is_empty() || !self.mig_queue.is_empty());
            if strands_queue {
                self.try_start_service(now);
            } else {
                self.begin_transition(now, p, TransitionCause::Latched);
            }
        } else if matches!(self.state, SpinState::Spinning(_)) {
            self.try_start_service(now);
        }
    }

    fn update_idle_marker(&mut self, now: SimTime) {
        let idle = matches!(self.state, SpinState::Spinning(_))
            && self.in_service.is_none()
            && self.fg_queue.is_empty()
            && self.mig_queue.is_empty();
        if idle {
            if self.idle_since.is_none() {
                self.idle_since = Some(now);
            }
        } else {
            self.idle_since = None;
        }
    }

    fn begin_transition(&mut self, now: SimTime, target: SpinTarget, cause: TransitionCause) {
        debug_assert!(self.in_service.is_none(), "ramp while head busy");
        let trans = match (self.state, target) {
            (SpinState::Spinning(from), SpinTarget::Level(to)) => {
                if from == to {
                    // Nothing to do; stay spinning.
                    self.try_start_service(now);
                    return;
                }
                self.power.level_transition(from, to)
            }
            (SpinState::Spinning(from), SpinTarget::Standby) => {
                self.power.spindown_to_standby(from)
            }
            (SpinState::Standby, SpinTarget::Level(to)) => self.power.spinup_from_standby(to),
            (SpinState::Standby, SpinTarget::Standby) => return,
            (SpinState::Transitioning { .. }, _) => {
                // Back-to-back ramps happen at a ramp-end boundary; model the
                // second ramp from the first ramp's endpoint state, which
                // `poll_event` has already committed before calling us.
                unreachable!("begin_transition called mid-transition")
            }
        };
        if trans.duration_s == 0.0 {
            // Degenerate ramp (identical RPM); commit instantly.
            self.state = match target {
                SpinTarget::Level(l) => SpinState::Spinning(l),
                SpinTarget::Standby => SpinState::Standby,
            };
            return;
        }
        self.stats.transitions += 1;
        self.ledger.note_transition();
        let mut duration_s = trans.duration_s;
        let stretched = now < self.slow_until;
        if stretched {
            // Sticky-spindle fault: the ramp takes longer at the same
            // transition power, so its energy scales with the stretch too.
            duration_s *= self.slow_factor;
            self.stats.slow_transitions += 1;
        }
        if self.record_transitions {
            let tier = |s: SpinTarget| match s {
                SpinTarget::Level(l) => l.index() as i32,
                SpinTarget::Standby => -1,
            };
            let from = match self.state {
                SpinState::Spinning(l) => l.index() as i32,
                SpinState::Standby => -1,
                SpinState::Transitioning { .. } => unreachable!("checked above"),
            };
            self.transition_log.push(TransitionRecord {
                time_s: now.as_secs(),
                from,
                to: tier(target),
                cause,
                stretched,
            });
        }
        self.state = SpinState::Transitioning {
            target,
            until: now + simkit::SimDuration::from_secs(duration_s),
            power_w: trans.energy_j / trans.duration_s,
        };
        self.idle_since = None;
    }

    fn try_start_service(&mut self, now: SimTime) {
        let SpinState::Spinning(level) = self.state else {
            return;
        };
        if self.in_service.is_some() {
            return;
        }
        let Some(req) = self
            .fg_queue
            .pop_front()
            .or_else(|| self.mig_queue.pop_front())
        else {
            self.update_idle_marker(now);
            return;
        };
        let rot_frac = self.rng.uniform01().min(0.999_999);
        let phases = self
            .service_model
            .service(&req, self.head_cylinder, level, rot_frac);
        let seek_end = now + simkit::SimDuration::from_secs(phases.seek_s);
        let finish =
            seek_end + simkit::SimDuration::from_secs(phases.rotation_s + phases.transfer_s);
        self.in_service = Some(InService {
            req,
            start: now,
            seek_end,
            finish,
            end_cylinder: phases.end_cylinder,
        });
        self.idle_since = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::IoKind;
    use simkit::SimDuration;

    fn spec() -> DiskSpec {
        DiskSpec::ultrastar_multispeed(6)
    }

    fn mk_disk() -> Disk {
        Disk::new(0, &spec(), 42, SpeedLevel(5))
    }

    fn fg_read(id: u64, sector: u64, at: SimTime) -> DiskRequest {
        DiskRequest {
            id,
            sector,
            sectors: 16,
            kind: IoKind::Read,
            class: RequestClass::Foreground,
            issue_time: at,
        }
    }

    /// Drives the disk through all pending events up to (and including) `until`.
    fn drain(disk: &mut Disk, until: SimTime) -> Vec<Completion> {
        let mut done = Vec::new();
        while let Some(t) = disk.next_event_time() {
            if t > until {
                break;
            }
            done.extend(disk.poll_event(t));
        }
        done
    }

    #[test]
    fn serves_a_single_request() {
        let mut d = mk_disk();
        let t0 = SimTime::from_secs(1.0);
        d.submit(t0, fg_read(1, 1_000_000, t0));
        assert!(d.is_busy());
        let done = drain(&mut d, SimTime::from_secs(10.0));
        assert_eq!(done.len(), 1);
        let c = &done[0];
        assert_eq!(c.request.id, 1);
        assert_eq!(c.queue_delay_s, 0.0);
        assert!(c.service_s > 0.0 && c.service_s < 0.1, "{}", c.service_s);
        assert!(!d.is_busy());
        assert_eq!(d.stats().fg_completed, 1);
    }

    #[test]
    fn fifo_queueing_accumulates_delay() {
        let mut d = mk_disk();
        let t0 = SimTime::from_secs(0.0);
        for i in 0..5 {
            d.submit(t0, fg_read(i, i * 500_000, t0));
        }
        let done = drain(&mut d, SimTime::from_secs(10.0));
        assert_eq!(done.len(), 5);
        // Later requests wait longer.
        for w in done.windows(2) {
            assert!(w[1].queue_delay_s >= w[0].queue_delay_s);
        }
        assert_eq!(done[0].queue_delay_s, 0.0);
        assert!(done[4].queue_delay_s > 0.0);
    }

    #[test]
    fn migration_yields_to_foreground() {
        let mut d = mk_disk();
        let t0 = SimTime::ZERO;
        // Occupy the head, then queue one migration and one foreground.
        d.submit(t0, fg_read(0, 0, t0));
        let mig = DiskRequest {
            id: 100,
            sector: 2_000_000,
            sectors: 256,
            kind: IoKind::Read,
            class: RequestClass::Migration,
            issue_time: t0,
        };
        d.submit(t0, mig);
        d.submit(t0, fg_read(1, 1_000_000, t0));
        let done = drain(&mut d, SimTime::from_secs(10.0));
        let order: Vec<u64> = done.iter().map(|c| c.request.id).collect();
        assert_eq!(order, vec![0, 1, 100], "foreground must pre-empt migration");
        assert_eq!(d.stats().mig_completed, 1);
    }

    #[test]
    fn slower_level_gives_longer_service() {
        let run = |level: usize| {
            let mut d = Disk::new(0, &spec(), 7, SpeedLevel(level));
            let t0 = SimTime::ZERO;
            let mut total = 0.0;
            for i in 0..20 {
                d.submit(t0, fg_read(i, i * 1_000_000, t0));
            }
            for c in drain(&mut d, SimTime::from_secs(100.0)) {
                total += c.service_s;
            }
            total
        };
        assert!(run(0) > run(5) * 1.3);
    }

    #[test]
    fn speed_change_applies_when_idle() {
        let mut d = mk_disk();
        let t0 = SimTime::from_secs(1.0);
        d.request_speed(t0, SpinTarget::Level(SpeedLevel(0)));
        assert!(d.is_transitioning());
        let _ = drain(&mut d, SimTime::from_secs(100.0));
        assert_eq!(d.current_level(), Some(SpeedLevel(0)));
        assert_eq!(d.stats().transitions, 1);
    }

    #[test]
    fn speed_change_latched_during_service() {
        let mut d = mk_disk();
        let t0 = SimTime::ZERO;
        d.submit(t0, fg_read(0, 3_000_000, t0));
        d.request_speed(t0, SpinTarget::Level(SpeedLevel(2)));
        // Still serving at the old level; the change is pending.
        assert!(d.is_busy());
        assert_eq!(d.current_level(), Some(SpeedLevel(5)));
        let done = drain(&mut d, SimTime::from_secs(100.0));
        assert_eq!(done.len(), 1);
        assert_eq!(d.current_level(), Some(SpeedLevel(2)));
    }

    #[test]
    fn queued_requests_wait_through_ramp() {
        let mut d = mk_disk();
        let t0 = SimTime::ZERO;
        d.request_speed(t0, SpinTarget::Level(SpeedLevel(0)));
        assert!(d.is_transitioning());
        let t1 = SimTime::from_secs(0.5);
        d.submit(t1, fg_read(9, 0, t1));
        let done = drain(&mut d, SimTime::from_secs(100.0));
        assert_eq!(done.len(), 1);
        // The request could not start before the ramp completed (~8s for
        // 15000→3600 at the configured decel rate).
        assert!(
            done[0].queue_delay_s > 5.0,
            "queue delay {} too short",
            done[0].queue_delay_s
        );
        assert_eq!(d.current_level(), Some(SpeedLevel(0)));
    }

    #[test]
    fn standby_and_demand_spinup() {
        let mut d = mk_disk();
        let t0 = SimTime::from_secs(1.0);
        d.request_speed(t0, SpinTarget::Standby);
        let _ = drain(&mut d, SimTime::from_secs(100.0));
        assert!(d.is_standby());

        let t1 = SimTime::from_secs(200.0);
        d.submit(t1, fg_read(1, 0, t1));
        assert!(d.is_transitioning(), "demand must trigger spin-up");
        let done = drain(&mut d, SimTime::from_secs(300.0));
        assert_eq!(done.len(), 1);
        // Spin-up from standby to 15000 RPM takes 10.9s; the request paid it.
        assert!(done[0].queue_delay_s > 10.0);
        assert_eq!(d.current_level(), Some(SpeedLevel(5)));
    }

    #[test]
    fn no_auto_spinup_waits_for_policy() {
        let mut d = mk_disk();
        d.set_auto_spinup(false);
        let t0 = SimTime::from_secs(1.0);
        d.request_speed(t0, SpinTarget::Standby);
        let _ = drain(&mut d, SimTime::from_secs(100.0));
        assert!(d.is_standby());
        let t1 = SimTime::from_secs(200.0);
        d.submit(t1, fg_read(1, 0, t1));
        assert!(d.is_standby(), "must stay asleep without auto spin-up");
        assert_eq!(d.next_event_time(), None);
        // Policy wakes it explicitly.
        d.request_speed(t1, SpinTarget::Level(SpeedLevel(5)));
        let done = drain(&mut d, SimTime::from_secs(300.0));
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn spindown_interrupted_by_demand_bounces_back() {
        let mut d = mk_disk();
        let t0 = SimTime::from_secs(1.0);
        d.request_speed(t0, SpinTarget::Standby);
        assert!(d.is_transitioning());
        let t1 = SimTime::from_secs(2.0); // mid-ramp
        d.submit(t1, fg_read(5, 0, t1));
        let done = drain(&mut d, SimTime::from_secs(300.0));
        assert_eq!(done.len(), 1);
        assert_eq!(
            d.current_level(),
            Some(SpeedLevel(5)),
            "disk should return to its previous level"
        );
        // Paid the full down-ramp plus the full up-ramp.
        assert!(done[0].queue_delay_s > 15.0);
    }

    #[test]
    fn idle_duration_tracks_quiescence() {
        let mut d = mk_disk();
        let t0 = SimTime::ZERO;
        assert_eq!(d.idle_duration(SimTime::from_secs(5.0)), Some(5.0));
        d.submit(t0, fg_read(0, 0, t0));
        assert_eq!(d.idle_duration(t0), None);
        let done = drain(&mut d, SimTime::from_secs(10.0));
        let fin = done[0].finish_time;
        let later = fin + SimDuration::from_secs(3.0);
        let idle = d.idle_duration(later).unwrap();
        assert!((idle - 3.0).abs() < 1e-9);
    }

    #[test]
    fn energy_idle_spinning_matches_analytic() {
        let mut d = mk_disk();
        let e = d.energy(SimTime::from_secs(100.0));
        let expected = PowerModel::new(&spec()).idle_w(SpeedLevel(5)) * 100.0;
        assert!((e.total_joules() - expected).abs() < 1e-6);
        assert_eq!(e.joules(EnergyComponent::IdleSpin), e.total_joules());
    }

    #[test]
    fn energy_standby_cheaper_than_spinning() {
        let horizon = SimTime::from_secs(1000.0);
        let mut spin = mk_disk();
        let e_spin = spin.energy(horizon).total_joules();

        let mut sleep = mk_disk();
        sleep.request_speed(SimTime::ZERO, SpinTarget::Standby);
        let _ = drain(&mut sleep, horizon);
        let e_sleep = sleep.energy(horizon).total_joules();
        assert!(
            e_sleep < e_spin * 0.5,
            "standby {e_sleep} J vs spinning {e_spin} J"
        );
        // And the ledger shows both the transition and the standby hold.
        let led = sleep.energy(horizon);
        assert!(led.joules(EnergyComponent::Transition) > 0.0);
        assert!(led.joules(EnergyComponent::Standby) > 0.0);
    }

    #[test]
    fn energy_low_speed_cheaper_than_full() {
        let horizon = SimTime::from_secs(2000.0);
        let run = |level: usize| {
            let mut d = Disk::new(0, &spec(), 3, SpeedLevel(level));
            d.energy(horizon).total_joules()
        };
        let full = run(5);
        let slow = run(0);
        assert!(slow < full * 0.45, "slow {slow} vs full {full}");
    }

    #[test]
    fn service_energy_attributed_to_seek_and_transfer() {
        let mut d = mk_disk();
        let t0 = SimTime::ZERO;
        d.submit(t0, fg_read(0, 5_000_000, t0));
        let _ = drain(&mut d, SimTime::from_secs(1.0));
        let e = d.energy(SimTime::from_secs(1.0));
        assert!(e.joules(EnergyComponent::Seek) > 0.0);
        assert!(e.joules(EnergyComponent::Transfer) > 0.0);
        assert!(e.joules(EnergyComponent::Migration) == 0.0);
    }

    #[test]
    fn migration_energy_attributed_to_migration() {
        let mut d = mk_disk();
        let t0 = SimTime::ZERO;
        d.submit(
            t0,
            DiskRequest {
                id: 1,
                sector: 5_000_000,
                sectors: 128,
                kind: IoKind::Read,
                class: RequestClass::Migration,
                issue_time: t0,
            },
        );
        let _ = drain(&mut d, SimTime::from_secs(1.0));
        let e = d.energy(SimTime::from_secs(1.0));
        assert!(e.joules(EnergyComponent::Migration) > 0.0);
        assert_eq!(e.joules(EnergyComponent::Seek), 0.0);
        assert_eq!(e.joules(EnergyComponent::Transfer), 0.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut d = mk_disk();
            let t0 = SimTime::ZERO;
            for i in 0..50 {
                d.submit(t0, fg_read(i, (i * 37) % 40_000_000, t0));
            }
            let done = drain(&mut d, SimTime::from_secs(100.0));
            done.iter().map(|c| c.finish_time.as_secs()).sum::<f64>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn queue_depth_stat_returns_to_zero() {
        let mut d = mk_disk();
        let t0 = SimTime::ZERO;
        d.submit(t0, fg_read(0, 0, t0));
        d.submit(t0, fg_read(1, 100, t0));
        let _ = drain(&mut d, SimTime::from_secs(10.0));
        assert_eq!(d.stats().queue_depth.current(), 0.0);
        assert!(d.stats().queue_depth.max_seen() >= 2.0);
    }

    #[test]
    fn latched_standby_never_strands_queued_requests() {
        let mut d = mk_disk();
        let t0 = SimTime::ZERO;
        d.submit(t0, fg_read(0, 0, t0));
        d.submit(t0, fg_read(1, 1_000_000, t0));
        // Standby latched while the head is busy and another request waits.
        d.request_speed(t0, SpinTarget::Standby);
        let done = drain(&mut d, SimTime::from_secs(60.0));
        assert_eq!(done.len(), 2, "queued request must not be stranded");
        assert!(
            !d.is_standby(),
            "standby must be cancelled when the queue was non-empty"
        );
    }

    #[test]
    fn latched_standby_applies_once_queue_is_empty() {
        let mut d = mk_disk();
        let t0 = SimTime::ZERO;
        d.submit(t0, fg_read(0, 0, t0));
        d.request_speed(t0, SpinTarget::Standby);
        // Single request: at its completion the queue is empty, so the
        // latched standby proceeds.
        let done = drain(&mut d, SimTime::from_secs(60.0));
        assert_eq!(done.len(), 1);
        assert!(d.is_standby());
    }

    #[test]
    fn request_speed_to_current_level_is_noop() {
        let mut d = mk_disk();
        d.request_speed(SimTime::from_secs(1.0), SpinTarget::Level(SpeedLevel(5)));
        assert!(!d.is_transitioning());
        assert_eq!(d.stats().transitions, 0);
    }

    #[test]
    fn failure_drains_queue_and_stops_power() {
        let mut d = mk_disk();
        let t0 = SimTime::ZERO;
        d.submit(t0, fg_read(0, 0, t0));
        d.submit(t0, fg_read(1, 1_000_000, t0));
        d.submit(t0, fg_read(2, 2_000_000, t0));
        let t1 = SimTime::from_secs(0.001);
        let dropped = d.fail(t1);
        assert_eq!(dropped.len(), 3, "in-service + two queued");
        assert!(d.has_failed());
        assert_eq!(d.next_event_time(), None);
        assert_eq!(d.stats().queue_depth.current(), 0.0);
        // No power after death.
        let e1 = d.energy(t1).total_joules();
        let e2 = d.energy(SimTime::from_secs(1000.0)).total_joules();
        assert_eq!(e1, e2, "dead disk must draw nothing");
        // Later traffic and speed requests are ignored.
        let t2 = SimTime::from_secs(2.0);
        d.submit(t2, fg_read(3, 0, t2));
        d.request_speed(t2, SpinTarget::Level(SpeedLevel(0)));
        assert_eq!(d.next_event_time(), None);
        // Ledger recorded the failure instant, once.
        let led = d.reliability(SimTime::from_secs(2000.0));
        assert!(led.failed);
        assert_eq!(led.failed_at_s, Some(0.001));
    }

    #[test]
    fn slow_transition_window_stretches_ramp() {
        let ramp_secs = |d: &mut Disk| {
            d.request_speed(SimTime::from_secs(1.0), SpinTarget::Level(SpeedLevel(0)));
            let done_at = d.next_event_time().unwrap();
            (done_at - SimTime::from_secs(1.0)).as_secs()
        };
        let mut normal = mk_disk();
        let nominal = ramp_secs(&mut normal);
        let mut sticky = mk_disk();
        sticky.set_slow_transitions(3.0, SimTime::from_secs(100.0));
        let slow = ramp_secs(&mut sticky);
        assert!((slow - 3.0 * nominal).abs() < 1e-9, "{slow} vs 3×{nominal}");
        assert_eq!(sticky.stats().slow_transitions, 1);
        // Outside the window the ramp is nominal again.
        let mut expired = mk_disk();
        expired.set_slow_transitions(3.0, SimTime::from_secs(0.5));
        assert!((ramp_secs(&mut expired) - nominal).abs() < 1e-9);
        assert_eq!(expired.stats().slow_transitions, 0);
        // Energy scales with the stretch: same power over 3× the time.
        let _ = drain(&mut sticky, SimTime::from_secs(100.0));
        let _ = drain(&mut normal, SimTime::from_secs(100.0));
        let at = SimTime::from_secs(100.0);
        let j_slow = sticky.energy(at).joules(EnergyComponent::Transition);
        let j_norm = normal.energy(at).joules(EnergyComponent::Transition);
        assert!(
            (j_slow - 3.0 * j_norm).abs() < 1e-6,
            "{j_slow} vs 3×{j_norm}"
        );
    }

    #[test]
    fn ledger_accrues_duty_cycle_and_transitions() {
        let mut d = mk_disk();
        // One hour spinning, then standby for an hour.
        let t1 = SimTime::from_secs(3600.0);
        d.request_speed(t1, SpinTarget::Standby);
        let _ = drain(&mut d, SimTime::from_secs(3700.0));
        let led = d.reliability(SimTime::from_secs(7200.0));
        assert_eq!(led.transitions, 1);
        assert!(led.active_hours >= 1.0, "{}", led.active_hours);
        assert!(led.standby_hours > 0.9, "{}", led.standby_hours);
        assert!(!led.failed);
        assert!(led.wear() > 0.0);
    }
}
