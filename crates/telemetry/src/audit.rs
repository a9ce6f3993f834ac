//! Replay a serialized event stream and check cross-cutting invariants.
//!
//! The auditor is deliberately decoupled from the simulator: it reads the
//! JSON-lines text one line at a time through
//! [`simkit::text::LineReader`], types each line with
//! [`Event::parse_jsonl`], and feeds the event to an incremental
//! [`Auditor`] (or, for fleet streams, a [`FleetAuditor`]). The auditor
//! reconstructs every derived quantity from first principles — energy
//! totals from per-disk summaries, power integrals from samples, the
//! goal-violation fraction from individual `RequestServed` events — then
//! reconciles them against the stream's own trailer. A bug in either the
//! emitters or the accounting shows up as a failed [`Check`], not a
//! silently wrong figure. Memory follows one line and one run's
//! accumulators, never the stream's length.
//!
//! A file may concatenate many runs (the harness flushes one stream per
//! run, sorted by label); each `run_start`…`run_end` segment is audited
//! independently.

use crate::event::{Event, MoveKind};
use simkit::text::LineReader;
use simkit::EnergyComponent;
use std::collections::BTreeMap;
use std::fmt;
use std::io::BufRead;

/// Audit failure: the stream itself was malformed.
#[derive(Debug)]
pub enum AuditError {
    /// `(line_number, message)` — 1-based line numbers.
    Parse(usize, String),
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::Parse(n, msg) => write!(f, "line {n}: {msg}"),
        }
    }
}

impl std::error::Error for AuditError {}

/// One named invariant's verdict for one run.
#[derive(Debug, Clone)]
pub struct Check {
    /// Stable check name (e.g. `"energy-conservation"`).
    pub name: &'static str,
    /// Whether the invariant held.
    pub passed: bool,
    /// Human-readable evidence (the reconciled numbers, or the first
    /// violation).
    pub detail: String,
}

/// All checks for one `run_start`…`run_end` segment.
#[derive(Debug, Clone)]
pub struct RunAudit {
    /// The run's label from its header line.
    pub label: String,
    /// Events in the segment (including header and trailer).
    pub events: usize,
    /// The invariant verdicts.
    pub checks: Vec<Check>,
}

impl RunAudit {
    /// True if every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }
}

/// The audit of a whole stream file.
#[derive(Debug, Clone)]
pub struct AuditOutcome {
    /// Per-run audits, in file order.
    pub runs: Vec<RunAudit>,
}

impl AuditOutcome {
    /// True if every run passed every check.
    pub fn passed(&self) -> bool {
        !self.runs.is_empty() && self.runs.iter().all(|r| r.passed())
    }
}

/// The most response buckets a run header may ask for
/// (`horizon_s / bucket_s`), and the furthest bucket an event may land in:
/// 16 MiB of buckets. A header beyond it is hostile, not a run.
const MAX_BUCKETS: usize = 1 << 20;

/// The most disks a run header may declare.
const MAX_DISKS: u32 = 1 << 16;

/// Advances `last_t` to the time `t` of the event on line `n`, keeping
/// the first step back in time as the stream's order violation.
fn note_time(last_t: &mut f64, violation: &mut Option<String>, t: f64, n: usize) {
    if t < *last_t - 1e-9 && violation.is_none() {
        *violation = Some(format!(
            "line {n}: t={t} after t={last_t} — stream not time-ordered"
        ));
    }
    *last_t = last_t.max(t);
}

/// Trailer totals pulled from a `run_end` line.
struct EndTotals {
    total_j: f64,
    energy_j: [f64; 6],
    completed: u64,
    transitions: u64,
    violation: f64,
    latency_hist_total: u64,
    moved: u64,
    remap_version: u64,
    dropped: u64,
}

/// DRAM-cache totals pulled from a `cache_summary` line.
struct CacheTotals {
    read_hits: u64,
    read_misses: u64,
    write_absorbs: u64,
    flushes: u64,
    flushed_chunks: u64,
}

/// Accumulated state while replaying one run segment.
#[derive(Default)]
struct RunAcc {
    label: String,
    disks: u32,
    levels: u32,
    inflight: u32,
    sample_s: f64,
    bucket_s: f64,
    goal_s: f64,
    warmup_s: f64,
    horizon_s: f64,
    events: usize,
    last_t: f64,
    order_violation: Option<String>,
    /// Per disk, its failure time (first wins).
    dead: Vec<Option<f64>>,
    /// Disks with a failure time.
    failures: usize,
    dead_serve_violation: Option<String>,
    served: u64,
    /// Per response bucket, (count, sum of response seconds), summed in
    /// replay order so float accumulation matches the simulator's.
    buckets: Vec<(u64, f64)>,
    speed_events: u64,
    active_jobs: BTreeMap<u64, u64>,
    max_active: usize,
    mig_shape_violation: Option<String>,
    moved: u64,
    moved_remap: u64,
    power_sum_j: f64,
    power_samples: u64,
    last_power_t: f64,
    disk_energy_j: [f64; 6],
    disk_transitions: u64,
    disk_summaries: u32,
    /// Replayed `cache_hit` events, total and split by op.
    cache_hits: u64,
    cache_read_hits: u64,
    cache_write_absorbs: u64,
    cache_misses: u64,
    flushes: u64,
    flushed_chunks: u64,
    cache_sum: Option<CacheTotals>,
    /// Replayed `policy` (migration-policy decision) events.
    policy_events: u64,
    /// Grace period (seconds) announced by the latest `policy` event.
    policy_grace_s: f64,
    /// chunk -> (commit time, grace in force at commit) for remap-changing
    /// `mig_moved` events; feeds the migration-grace check.
    chunk_commits: BTreeMap<u64, (f64, f64)>,
    grace_violation: Option<String>,
    /// Replayed `epoch` (speed plan) events.
    epochs: u64,
    plan_violation: Option<String>,
    end: Option<EndTotals>,
}

impl RunAcc {
    /// Opens a run from its `run_start` header on line `n`. A header whose
    /// intervals are not positive, or whose horizon spans more buckets or
    /// declares more disks than the auditor holds, is a parse error.
    fn new(n: usize, header: &Event) -> Result<RunAcc, AuditError> {
        let &Event::RunStart {
            ref label,
            disks,
            levels,
            horizon_s,
            migration_inflight,
            sample_interval_s: sample_s,
            series_bucket_s: bucket_s,
            goal_s,
            warmup_s,
            ..
        } = header
        else {
            return Err(AuditError::Parse(n, "expected a run_start".to_string()));
        };
        let bad = |what: String| Err(AuditError::Parse(n, format!("run_start: {what}")));
        for (key, v) in [("sample_s", sample_s), ("bucket_s", bucket_s)] {
            if !(v.is_finite() && v > 0.0) {
                return bad(format!("{key} {v} is not a positive interval"));
            }
        }
        let span = horizon_s / bucket_s;
        if !(0.0..MAX_BUCKETS as f64).contains(&span) {
            return bad(format!(
                "horizon_s / bucket_s = {span} buckets, outside 0..{MAX_BUCKETS}"
            ));
        }
        if disks > MAX_DISKS {
            return bad(format!("{disks} disks, more than {MAX_DISKS}"));
        }
        Ok(RunAcc {
            label: label.clone(),
            disks,
            levels,
            inflight: migration_inflight,
            sample_s,
            bucket_s,
            goal_s,
            warmup_s,
            horizon_s,
            events: 1,
            dead: vec![None; disks as usize],
            buckets: vec![(0, 0.0); span as usize + 1],
            ..RunAcc::default()
        })
    }

    fn end_job(&mut self, job: u64, n: usize, what: &str) {
        if self.active_jobs.remove(&job).is_none() && self.mig_shape_violation.is_none() {
            self.mig_shape_violation =
                Some(format!("line {n}: {what} for job {job} that never started"));
        }
    }

    /// Adds a completion at `t` to its response bucket. Buckets past the
    /// horizon are added as they come, up to [`MAX_BUCKETS`].
    fn bucket(&mut self, n: usize, t: f64, latency_us: f64) -> Result<(), AuditError> {
        // The cast truncates toward zero and saturates negatives to 0, so
        // it is the bucket's floor without a call to `floor`.
        let idx = (t / self.bucket_s) as usize;
        if idx >= self.buckets.len() {
            if idx >= MAX_BUCKETS {
                return Err(AuditError::Parse(
                    n,
                    format!("t={t} lies past the last response bucket"),
                ));
            }
            self.buckets.resize(idx + 1, (0, 0.0));
        }
        let b = &mut self.buckets[idx];
        b.0 += 1;
        b.1 += latency_us / 1e6;
        Ok(())
    }

    /// The failure-time slot of `disk`, named on line `n`. A disk the
    /// header does not declare is a parse error.
    fn disk(&mut self, n: usize, disk: u32) -> Result<&mut Option<f64>, AuditError> {
        let disks = self.disks;
        self.dead
            .get_mut(disk as usize)
            .ok_or_else(|| AuditError::Parse(n, format!("disk {disk} of a {disks}-disk run")))
    }

    /// Replays one event of the run, read from line `n`.
    fn observe(&mut self, n: usize, ev: &Event) -> Result<(), AuditError> {
        let t = ev.time_s();
        self.events += 1;
        note_time(&mut self.last_t, &mut self.order_violation, t, n);
        match ev {
            &Event::RequestServed {
                latency_us, disk, ..
            } => {
                if let Some(died) = *self.disk(n, disk)? {
                    if t > died + 1e-9 && self.dead_serve_violation.is_none() {
                        self.dead_serve_violation = Some(format!(
                            "line {n}: disk {disk} served at t={t} but died at t={died}"
                        ));
                    }
                }
                self.served += 1;
                self.bucket(n, t, latency_us)?;
            }
            Event::FaultInjected { disk, kind, .. } => {
                if kind == "disk_failure" {
                    let slot = self.disk(n, *disk)?;
                    if slot.is_none() {
                        *slot = Some(t);
                        self.failures += 1;
                    }
                }
            }
            Event::SpeedTransition { .. } => self.speed_events += 1,
            &Event::MigrationStarted { job, chunk, .. } => {
                if self.active_jobs.insert(job, n as u64).is_some()
                    && self.mig_shape_violation.is_none()
                {
                    self.mig_shape_violation = Some(format!("line {n}: job {job} started twice"));
                }
                self.max_active = self.max_active.max(self.active_jobs.len());
                // Migration-grace: once a policy has announced a grace
                // period, no chunk may start a new move inside the grace
                // window of its last commit. Suspended after a disk failure
                // (rebuild re-copies are legitimate immediate moves).
                if self.policy_events > 0 && self.failures == 0 && self.grace_violation.is_none() {
                    if let Some(&(committed, grace)) = self.chunk_commits.get(&chunk) {
                        if t < committed + grace - 1e-9 {
                            self.grace_violation = Some(format!(
                                "line {n}: chunk {chunk} re-moved at t={t} only {:.1}s after \
                                 its commit at t={committed} (grace {grace}s)",
                                t - committed
                            ));
                        }
                    }
                }
            }
            &Event::MigrationMoved {
                job, chunk, kind, ..
            } => {
                self.end_job(job, n, "mig_moved");
                self.moved += 1;
                if kind != MoveKind::Raw {
                    self.moved_remap += 1;
                    self.chunk_commits.insert(chunk, (t, self.policy_grace_s));
                }
            }
            &Event::MigrationAborted { job, .. } => self.end_job(job, n, "mig_abort"),
            &Event::MigrationDropped { job, .. } => self.end_job(job, n, "mig_drop"),
            &Event::PowerSample { watts, .. } => {
                self.power_sum_j += watts * self.sample_s;
                self.power_samples += 1;
                self.last_power_t = t;
            }
            &Event::DiskSummary {
                energy_j,
                transitions,
                ..
            } => {
                for (sum, j) in self.disk_energy_j.iter_mut().zip(energy_j) {
                    *sum += j;
                }
                self.disk_transitions = self.disk_transitions.saturating_add(transitions);
                self.disk_summaries += 1;
            }
            Event::RunSummary {
                total_j,
                energy_j,
                completed,
                transitions,
                violation,
                latency_hist,
                latency_overflow,
                moved,
                remap_version,
                dropped,
                ..
            } => {
                self.end = Some(EndTotals {
                    total_j: *total_j,
                    energy_j: *energy_j,
                    completed: *completed,
                    transitions: *transitions,
                    violation: *violation,
                    latency_hist_total: latency_hist
                        .iter()
                        .fold(*latency_overflow, |a, &b| a.saturating_add(b)),
                    moved: *moved,
                    remap_version: *remap_version,
                    dropped: *dropped,
                });
            }
            &Event::CacheHit { latency_us, op, .. } => {
                // A DRAM-served request: counts toward completions and the
                // violation refit, but not toward disk-served tallies.
                self.cache_hits += 1;
                match op {
                    crate::CacheOp::Read => self.cache_read_hits += 1,
                    crate::CacheOp::Write => self.cache_write_absorbs += 1,
                }
                self.bucket(n, t, latency_us)?;
            }
            Event::CacheMiss { .. } => self.cache_misses += 1,
            &Event::FlushBatch { chunks, .. } => {
                self.flushes += 1;
                self.flushed_chunks = self.flushed_chunks.saturating_add(chunks.into());
            }
            &Event::CacheSummary {
                read_hits,
                read_misses,
                write_absorbs,
                flushes,
                flushed_chunks,
                ..
            } => {
                self.cache_sum = Some(CacheTotals {
                    read_hits,
                    read_misses,
                    write_absorbs,
                    flushes,
                    flushed_chunks,
                });
            }
            &Event::PolicyDecision { grace_s, .. } => {
                self.policy_events += 1;
                self.policy_grace_s = grace_s;
            }
            Event::EpochPlanned { per_level, .. } => {
                // Plan shape: one count per speed level, covering exactly
                // the disks still alive.
                self.epochs += 1;
                let alive = u64::from(self.disks) - self.failures as u64;
                let planned: u64 = per_level.iter().map(|&k| u64::from(k)).sum();
                if (per_level.len() != self.levels as usize || planned != alive)
                    && self.plan_violation.is_none()
                {
                    self.plan_violation = Some(format!(
                        "line {n}: plan {per_level:?} at t={t} is not {} levels covering \
                         {alive} alive disk(s)",
                        self.levels
                    ));
                }
            }
            Event::GuardBoost { .. } => {}
            Event::RunStart { .. }
            | Event::FleetEpoch { .. }
            | Event::CapGrant { .. }
            | Event::TenantMove { .. }
            | Event::FleetSummary { .. } => {
                return Err(AuditError::Parse(
                    n,
                    format!("unknown event kind {:?}", ev.tag()),
                ));
            }
        }
        Ok(())
    }

    /// Recomputes the goal-violation fraction from the replayed
    /// `RequestServed` events using the T4 bucket rule: a bucket counts
    /// only if it starts at or after the warm-up cutoff.
    fn recomputed_violation(&self) -> f64 {
        let (mut kept, mut over) = (0u64, 0u64);
        for (idx, &(count, sum)) in self.buckets.iter().enumerate() {
            if count == 0 || (idx as f64) * self.bucket_s < self.warmup_s {
                continue;
            }
            kept += 1;
            if sum / count as f64 > self.goal_s {
                over += 1;
            }
        }
        if kept == 0 {
            0.0
        } else {
            over as f64 / kept as f64
        }
    }

    fn finish(self) -> RunAudit {
        let mut checks = Vec::new();
        let close = |a: f64, b: f64, rel: f64| (a - b).abs() <= rel * a.abs().max(b.abs()) + 1e-6;

        // 1. Stream shape: trailer present, time-ordered, nothing dropped.
        let (shape_ok, shape_detail) = match (&self.end, &self.order_violation) {
            (None, _) => (false, "missing run_end trailer".to_string()),
            (Some(_), Some(v)) => (false, v.clone()),
            (Some(e), None) if e.dropped > 0 => (
                false,
                format!("{} events dropped — stream incomplete", e.dropped),
            ),
            (Some(_), None) => (true, format!("{} events, time-ordered", self.events)),
        };
        checks.push(Check {
            name: "stream-shape",
            passed: shape_ok,
            detail: shape_detail,
        });

        if let Some(end) = &self.end {
            // 2. Energy conservation: Σ per-disk, per-component energies
            //    must equal the trailer's ledger, which must sum to the
            //    total.
            let mut energy_ok = self.disk_summaries == self.disks;
            let mut worst = String::new();
            if !energy_ok {
                worst = format!(
                    "{} disk summaries for {} disks",
                    self.disk_summaries, self.disks
                );
            }
            for (i, c) in EnergyComponent::ALL.iter().enumerate() {
                if !close(self.disk_energy_j[i], end.energy_j[i], 1e-9) {
                    energy_ok = false;
                    worst = format!(
                        "{}: Σdisks {} != run {}",
                        c.label(),
                        self.disk_energy_j[i],
                        end.energy_j[i]
                    );
                    break;
                }
            }
            let comp_sum: f64 = end.energy_j.iter().sum();
            if !close(comp_sum, end.total_j, 1e-9) {
                energy_ok = false;
                worst = format!("component sum {} != total {}", comp_sum, end.total_j);
            }
            checks.push(Check {
                name: "energy-conservation",
                passed: energy_ok,
                detail: if energy_ok {
                    format!("{} disks reconcile to {:.1} J", self.disks, end.total_j)
                } else {
                    worst
                },
            });

            // 3. Power integration: each sample is mean watts over the
            //    preceding interval, so Σ watts·Δt telescopes to the
            //    cumulative energy at the last sample — exactly the total
            //    when the horizon is a sample multiple, a lower bound
            //    otherwise.
            let integral = self.power_sum_j;
            let covered = self.last_power_t >= self.horizon_s - 1e-6;
            let (power_ok, power_detail) = if self.power_samples == 0 {
                (true, "no power samples (horizon < interval)".to_string())
            } else if covered {
                (
                    close(integral, end.total_j, 1e-7),
                    format!(
                        "∫P dt = {:.3} J vs ledger {:.3} J over {} samples",
                        integral, end.total_j, self.power_samples
                    ),
                )
            } else {
                (
                    integral <= end.total_j * (1.0 + 1e-7) + 1e-6,
                    format!(
                        "partial coverage to t={}: ∫P dt = {:.3} J ≤ {:.3} J",
                        self.last_power_t, integral, end.total_j
                    ),
                )
            };
            checks.push(Check {
                name: "power-integration",
                passed: power_ok,
                detail: power_detail,
            });

            // 4. No request served by a disk the fault ledger says is dead.
            checks.push(match &self.dead_serve_violation {
                Some(v) => Check {
                    name: "dead-disk-serve",
                    passed: false,
                    detail: v.clone(),
                },
                None => Check {
                    name: "dead-disk-serve",
                    passed: true,
                    detail: format!("{} served, {} disk failure(s)", self.served, self.failures),
                },
            });

            // 5. Migration concurrency never exceeds the configured cap,
            //    and every job end matches a start.
            let mig_ok =
                self.mig_shape_violation.is_none() && self.max_active <= self.inflight as usize;
            checks.push(Check {
                name: "migration-inflight",
                passed: mig_ok,
                detail: match &self.mig_shape_violation {
                    Some(v) => v.clone(),
                    None => format!(
                        "peak {} concurrent of cap {}",
                        self.max_active, self.inflight
                    ),
                },
            });

            // 6. Goal-violation fraction recomputed from RequestServed
            //    events matches the trailer's (same bucket/warm-up rule).
            let recomputed = self.recomputed_violation();
            let viol_ok = (recomputed - end.violation).abs() <= 1e-9;
            checks.push(Check {
                name: "violation-refit",
                passed: viol_ok,
                detail: format!(
                    "recomputed {:.6} vs reported {:.6} (goal {:.4} ms)",
                    recomputed,
                    end.violation,
                    self.goal_s * 1e3
                ),
            });

            // 7. Count consistency across independent tallies. Completions
            //    are served from disk *or* from the controller DRAM cache,
            //    so both sides of the request path must add up.
            let mut count_ok = true;
            let mut count_detail = format!(
                "served {}, hits {}, transitions {}, moved {}",
                self.served, self.cache_hits, self.speed_events, self.moved
            );
            let pairs: [(&str, u64, u64); 6] = [
                (
                    "served + hits vs completed",
                    self.served + self.cache_hits,
                    end.completed,
                ),
                (
                    "served + hits vs latency_hist",
                    self.served + self.cache_hits,
                    end.latency_hist_total,
                ),
                (
                    "speed events vs transitions",
                    self.speed_events,
                    end.transitions,
                ),
                (
                    "speed events vs disk summaries",
                    self.speed_events,
                    self.disk_transitions,
                ),
                ("mig_moved vs moved", self.moved, end.moved),
                ("remap version", self.moved_remap, end.remap_version),
            ];
            for (what, a, b) in pairs {
                if a != b {
                    count_ok = false;
                    count_detail = format!("{what}: {a} != {b}");
                    break;
                }
            }
            checks.push(Check {
                name: "count-consistency",
                passed: count_ok,
                detail: count_detail,
            });

            // 8. Cache accounting (only for runs that used the DRAM
            //    cache): every completion was a hit or a disk serve, and
            //    the replayed cache events reconcile with the
            //    cache_summary totals.
            let cache_active = self.cache_sum.is_some()
                || self.cache_hits > 0
                || self.cache_misses > 0
                || self.flushes > 0;
            if cache_active {
                let (cache_ok, cache_detail) = match &self.cache_sum {
                    None => (
                        false,
                        "cache events present but no cache_summary".to_string(),
                    ),
                    Some(sum) => {
                        let triples: [(&str, u64, u64); 6] = [
                            (
                                "completed vs hits + disk-served",
                                end.completed,
                                self.cache_hits + self.served,
                            ),
                            ("read hits", sum.read_hits, self.cache_read_hits),
                            ("read misses", sum.read_misses, self.cache_misses),
                            ("write absorbs", sum.write_absorbs, self.cache_write_absorbs),
                            ("flush batches", sum.flushes, self.flushes),
                            ("flushed chunks", sum.flushed_chunks, self.flushed_chunks),
                        ];
                        match triples.iter().find(|(_, a, b)| a != b) {
                            Some((what, a, b)) => (false, format!("{what}: {a} != {b}")),
                            None => (
                                true,
                                format!(
                                    "completed {} = {} hits + {} disk-served; \
                                     {} flushes destaged {} chunks",
                                    end.completed,
                                    self.cache_hits,
                                    self.served,
                                    self.flushes,
                                    self.flushed_chunks
                                ),
                            ),
                        }
                    }
                };
                checks.push(Check {
                    name: "cache-accounting",
                    passed: cache_ok,
                    detail: cache_detail,
                });
            }

            // 9. Migration grace (only for runs driven by a migration
            //    policy that emits `policy` events): no chunk started a
            //    new move inside the announced grace window of its last
            //    commit. Streams without policy events (power policies
            //    other than Hibernator, or Hibernator without migration)
            //    skip this check entirely, like cache-accounting.
            if self.policy_events > 0 {
                checks.push(match &self.grace_violation {
                    Some(v) => Check {
                        name: "migration-grace",
                        passed: false,
                        detail: v.clone(),
                    },
                    None => Check {
                        name: "migration-grace",
                        passed: true,
                        detail: format!(
                            "{} policy rounds, {} chunk commits tracked",
                            self.policy_events,
                            self.chunk_commits.len()
                        ),
                    },
                });
            }

            // 10. Plan shape (only for runs that plan speeds, like the two
            //     above): every `epoch` event's `per_level` has one count
            //     per level of the header and covers exactly the disks not
            //     yet failed.
            if self.epochs > 0 {
                checks.push(match &self.plan_violation {
                    Some(v) => Check {
                        name: "plan-shape",
                        passed: false,
                        detail: v.clone(),
                    },
                    None => Check {
                        name: "plan-shape",
                        passed: true,
                        detail: format!(
                            "{} epoch plans over {} levels cover the alive disks",
                            self.epochs, self.levels
                        ),
                    },
                });
            }
        }

        RunAudit {
            label: self.label,
            events: self.events,
            checks,
        }
    }
}

/// Incremental replay of a run stream: feed it every event of the stream
/// in order with [`observe`](Auditor::observe), then take the verdicts
/// with [`finish`](Auditor::finish). It holds one run's accumulators at a
/// time, so its memory does not grow with the stream.
#[derive(Default)]
pub struct Auditor {
    runs: Vec<RunAudit>,
    run: Option<RunAcc>,
}

impl Auditor {
    /// Replays `ev`, read from line `lineno`. A `run_start` closes the
    /// open run and opens the next; fleet events, events before any
    /// `run_start` and hostile headers are parse errors.
    pub fn observe(&mut self, lineno: usize, ev: &Event) -> Result<(), AuditError> {
        if let Event::RunStart { .. } = ev {
            let next = RunAcc::new(lineno, ev)?;
            if let Some(prev) = self.run.replace(next) {
                self.runs.push(prev.finish());
            }
            return Ok(());
        }
        match &mut self.run {
            Some(run) => run.observe(lineno, ev),
            None => Err(AuditError::Parse(
                lineno,
                format!("{:?} before any run_start", ev.tag()),
            )),
        }
    }

    /// The verdicts of every run, in stream order.
    pub fn finish(mut self) -> Result<AuditOutcome, AuditError> {
        self.runs.extend(self.run.map(RunAcc::finish));
        if self.runs.is_empty() {
            return Err(AuditError::Parse(0, "stream contains no runs".to_string()));
        }
        Ok(AuditOutcome { runs: self.runs })
    }
}

/// Audits a JSON-lines stream (one or more concatenated runs).
pub fn audit_bytes(bytes: &[u8]) -> Result<AuditOutcome, AuditError> {
    audit_read(bytes)
}

/// Audits a JSON-lines stream as [`audit_bytes`] does, reading it one
/// line at a time.
pub fn audit_read(r: impl BufRead) -> Result<AuditOutcome, AuditError> {
    let mut auditor = Auditor::default();
    replay(r, |n, ev| auditor.observe(n, ev))?;
    auditor.finish()
}

/// Fleet-stream trailer totals.
struct FleetTotals {
    total_j: f64,
    budget_j: Option<f64>,
    cap_violation_s: f64,
    completed: u64,
    incomplete: u64,
    total_requests: u64,
    routed_requests: u64,
    tenant_moves: u64,
}

/// Incremental replay of a *fleet* stream, as [`Auditor`] is of a run
/// stream; [`audit_fleet_bytes`] lists its checks.
#[derive(Default)]
pub struct FleetAuditor {
    events: usize,
    last_t: f64,
    order_violation: Option<String>,
    epochs: u64,
    /// The open boundary's finite budget and its running grant sum.
    open_budget: Option<f64>,
    grant_sum: f64,
    grant_violation: Option<String>,
    moves: u64,
    trailer: Option<FleetTotals>,
}

impl FleetAuditor {
    /// Checks the closing boundary's grants against its budget.
    fn close_epoch(&mut self) {
        if let Some(b) = self.open_budget.take() {
            let sum = self.grant_sum;
            if sum > b * (1.0 + 1e-9) + 1e-6 && self.grant_violation.is_none() {
                self.grant_violation = Some(format!("granted {sum} W of budget {b} W"));
            }
        }
        self.grant_sum = 0.0;
    }

    /// Replays `ev`, read from line `lineno`. Per-array events and
    /// anything after `fleet_end` are parse errors.
    pub fn observe(&mut self, lineno: usize, ev: &Event) -> Result<(), AuditError> {
        let n = lineno;
        if self.trailer.is_some() {
            return Err(AuditError::Parse(n, "events after fleet_end".to_string()));
        }
        self.events += 1;
        let t = ev.time_s();
        note_time(&mut self.last_t, &mut self.order_violation, t, n);
        match *ev {
            Event::FleetEpoch { budget_w, .. } => {
                self.close_epoch();
                self.epochs += 1;
                self.open_budget = budget_w;
            }
            Event::CapGrant { cap_w, .. } => self.grant_sum += cap_w,
            Event::TenantMove { .. } => self.moves += 1,
            Event::FleetSummary {
                total_j,
                budget_j,
                cap_violation_s,
                completed,
                incomplete,
                total_requests,
                routed_requests,
                tenant_moves,
                ..
            } => {
                self.close_epoch();
                self.trailer = Some(FleetTotals {
                    total_j,
                    budget_j,
                    cap_violation_s,
                    completed,
                    incomplete,
                    total_requests,
                    routed_requests,
                    tenant_moves,
                });
            }
            _ => {
                return Err(AuditError::Parse(
                    n,
                    format!("unknown fleet event kind {:?}", ev.tag()),
                ));
            }
        }
        Ok(())
    }

    /// The fleet-level verdicts.
    pub fn finish(self) -> RunAudit {
        let FleetAuditor {
            events,
            order_violation,
            epochs,
            grant_violation,
            moves,
            trailer,
            ..
        } = self;
        let mut checks = Vec::new();
        let (shape_ok, shape_detail) = match (&trailer, &order_violation) {
            (None, _) => (false, "missing fleet_end trailer".to_string()),
            (Some(_), Some(v)) => (false, v.clone()),
            (Some(_), None) if epochs == 0 => (false, "no fleet_epoch events".to_string()),
            (Some(_), None) => (
                true,
                format!("{events} events over {epochs} fleet epochs, time-ordered"),
            ),
        };
        checks.push(Check {
            name: "fleet-stream-shape",
            passed: shape_ok,
            detail: shape_detail,
        });

        if let Some(end) = &trailer {
            checks.push(match &grant_violation {
                Some(v) => Check {
                    name: "grant-conservation",
                    passed: false,
                    detail: v.clone(),
                },
                None => Check {
                    name: "grant-conservation",
                    passed: true,
                    detail: format!("grants fit the budget at all {epochs} boundaries"),
                },
            });

            let (budget_ok, budget_detail) = match end.budget_j {
                None => (true, "unlimited budget".to_string()),
                Some(bj) => {
                    let within = end.total_j <= bj * (1.0 + 1e-9) + 1e-6;
                    if within {
                        (
                            true,
                            format!("fleet used {:.1} J of {:.1} J budget", end.total_j, bj),
                        )
                    } else if end.cap_violation_s > 0.0 {
                        (
                            true,
                            format!(
                                "overspend {:.1} J > {:.1} J reported as {:.0} s of cap violation",
                                end.total_j, bj, end.cap_violation_s
                            ),
                        )
                    } else {
                        (
                            false,
                            format!(
                                "fleet used {:.1} J of {:.1} J budget with no violation reported",
                                end.total_j, bj
                            ),
                        )
                    }
                }
            };
            checks.push(Check {
                name: "budget-conservation",
                passed: budget_ok,
                detail: budget_detail,
            });

            let routed_ok = end.routed_requests == end.total_requests
                && end.completed.saturating_add(end.incomplete) <= end.routed_requests;
            checks.push(Check {
                name: "request-conservation",
                passed: routed_ok,
                detail: format!(
                    "routed {} of {} trace requests; {} completed + {} in flight",
                    end.routed_requests, end.total_requests, end.completed, end.incomplete
                ),
            });

            checks.push(Check {
                name: "move-accounting",
                passed: moves == end.tenant_moves,
                detail: format!(
                    "{} tenant_move events vs trailer {}",
                    moves, end.tenant_moves
                ),
            });
        }

        RunAudit {
            label: "fleet".to_string(),
            events,
            checks,
        }
    }
}

/// Audits a *fleet* stream: the arbiter/placement event log the fleet
/// driver records alongside the per-array streams (tags `fleet_epoch`,
/// `cap_grant`, `tenant_move`, `fleet_end`). Fleet events are rejected by
/// [`audit_bytes`] — they never appear inside a per-array
/// `run_start`…`run_end` segment — so the fleet stream gets its own
/// replay with fleet-level invariants:
///
/// 1. **stream shape** — time-ordered, at least one `fleet_epoch`,
///    exactly one `fleet_end`, and it is the last line;
/// 2. **grant conservation** — at every boundary with a finite budget,
///    the sum of granted caps stays within the budget;
/// 3. **budget conservation** — under a finite budget, either total
///    fleet energy fits inside the integrated budget or the overage was
///    detected and reported as cap-violation time (never silent);
/// 4. **request conservation** — the placement map routed every request
///    of the shared trace, and completions never exceed what was routed;
/// 5. **move accounting** — the trailer's move count matches the
///    replayed `tenant_move` events.
pub fn audit_fleet_bytes(bytes: &[u8]) -> Result<RunAudit, AuditError> {
    audit_fleet_read(bytes)
}

/// Audits a fleet stream as [`audit_fleet_bytes`] does, reading it one
/// line at a time.
pub fn audit_fleet_read(r: impl BufRead) -> Result<RunAudit, AuditError> {
    let mut auditor = FleetAuditor::default();
    replay(r, |n, ev| auditor.observe(n, ev))?;
    Ok(auditor.finish())
}

/// The shared loop: every non-blank line, typed and handed to `observe`
/// with its 1-based number.
fn replay(
    r: impl BufRead,
    mut observe: impl FnMut(usize, &Event) -> Result<(), AuditError>,
) -> Result<(), AuditError> {
    let mut lines = LineReader::new(r);
    loop {
        let (n, line) = match lines.next_line() {
            Ok(Some(next)) => next,
            Ok(None) => return Ok(()),
            Err(e) => return Err(AuditError::Parse(lines.lineno(), e.to_string())),
        };
        if !line.trim().is_empty() {
            observe(n, &Event::parse_jsonl(line, n)?)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal_stream() -> String {
        let disks = [
            "{\"ev\":\"disk\",\"t\":100.0,\"disk\":0,\"idle_spin\":40.0,\"seek\":5.0,\"transfer\":5.0,\"transition\":0.0,\"standby\":0.0,\"migration\":0.0,\"transitions\":0,\"failed_at_s\":null}",
            "{\"ev\":\"disk\",\"t\":100.0,\"disk\":1,\"idle_spin\":40.0,\"seek\":5.0,\"transfer\":5.0,\"transition\":0.0,\"standby\":0.0,\"migration\":0.0,\"transitions\":0,\"failed_at_s\":null}",
        ];
        format!(
            "{}\n{}\n{}\n{}\n{}\n{}\n",
            "{\"ev\":\"run_start\",\"t\":0.0,\"label\":\"test\",\"disks\":2,\"levels\":6,\"horizon_s\":100.0,\"inflight\":2,\"sample_s\":50.0,\"bucket_s\":50.0,\"goal_s\":0.01,\"warmup_s\":0.0,\"seed\":1}",
            "{\"ev\":\"served\",\"t\":10.0,\"latency_us\":5000.0,\"disk\":0,\"tier\":5}",
            "{\"ev\":\"power\",\"t\":50.0,\"watts\":1.0}",
            "{\"ev\":\"power\",\"t\":100.0,\"watts\":1.0}",
            disks.join("\n"),
            "{\"ev\":\"run_end\",\"t\":100.0,\"total_j\":100.0,\"idle_spin\":80.0,\"seek\":10.0,\"transfer\":10.0,\"transition\":0.0,\"standby\":0.0,\"migration\":0.0,\"completed\":1,\"incomplete\":0,\"transitions\":0,\"mean_response_s\":0.005,\"violation\":0.0,\"latency_hist\":[0,0,1],\"latency_overflow\":0,\"queue_hist\":[2],\"queue_overflow\":0,\"moved\":0,\"remap_version\":0,\"dropped\":0}",
        )
    }

    #[test]
    fn minimal_consistent_stream_passes_all_checks() {
        let out = audit_bytes(minimal_stream().as_bytes()).expect("parse");
        assert_eq!(out.runs.len(), 1);
        let run = &out.runs[0];
        for c in &run.checks {
            assert!(c.passed, "{} failed: {}", c.name, c.detail);
        }
        assert!(out.passed());
    }

    #[test]
    fn dead_disk_serving_is_caught() {
        let s = minimal_stream().replace(
            "{\"ev\":\"served\",\"t\":10.0,\"latency_us\":5000.0,\"disk\":0,\"tier\":5}",
            "{\"ev\":\"fault\",\"t\":5.0,\"disk\":0,\"kind\":\"disk_failure\"}\n{\"ev\":\"served\",\"t\":10.0,\"latency_us\":5000.0,\"disk\":0,\"tier\":5}",
        );
        let out = audit_bytes(s.as_bytes()).expect("parse");
        let check = out.runs[0]
            .checks
            .iter()
            .find(|c| c.name == "dead-disk-serve")
            .unwrap();
        assert!(!check.passed, "expected dead-disk violation");
    }

    #[test]
    fn wrong_energy_total_is_caught() {
        let s = minimal_stream().replace("\"total_j\":100.0", "\"total_j\":150.0");
        let out = audit_bytes(s.as_bytes()).expect("parse");
        let check = out.runs[0]
            .checks
            .iter()
            .find(|c| c.name == "energy-conservation")
            .unwrap();
        assert!(!check.passed);
        assert!(!out.passed());
    }

    #[test]
    fn wrong_violation_fraction_is_caught() {
        // One bucket whose mean (5 ms) is below the 10 ms goal: reported
        // violation must be 0, so claiming 1.0 fails the refit.
        let s = minimal_stream().replace("\"violation\":0.0", "\"violation\":1.0");
        let out = audit_bytes(s.as_bytes()).expect("parse");
        let check = out.runs[0]
            .checks
            .iter()
            .find(|c| c.name == "violation-refit")
            .unwrap();
        assert!(!check.passed);
    }

    #[test]
    fn streams_without_policy_events_skip_the_grace_check() {
        let out = audit_bytes(minimal_stream().as_bytes()).expect("parse");
        assert!(
            !out.runs[0]
                .checks
                .iter()
                .any(|c| c.name == "migration-grace"),
            "no policy events -> no migration-grace check"
        );
    }

    #[test]
    fn grace_window_restart_is_caught() {
        let extra = "{\"ev\":\"policy\",\"t\":15.0,\"policy\":\"lfu\",\"moves\":1,\"deferred_grace\":0,\"deferred_inflight\":0,\"skipped_threshold\":0,\"grace_s\":100.0,\"sleepers\":0}\n\
                     {\"ev\":\"mig_start\",\"t\":20.0,\"job\":1,\"chunk\":7,\"src\":0,\"dst\":1}\n\
                     {\"ev\":\"mig_moved\",\"t\":30.0,\"job\":1,\"chunk\":7,\"src\":0,\"dst\":1,\"bytes\":1048576,\"kind\":\"relocate\"}\n\
                     {\"ev\":\"mig_start\",\"t\":50.0,\"job\":2,\"chunk\":7,\"src\":1,\"dst\":0}\n\
                     {\"ev\":\"power\",\"t\":50.0,\"watts\":1.0}";
        let s = minimal_stream().replace("{\"ev\":\"power\",\"t\":50.0,\"watts\":1.0}", extra);
        let out = audit_bytes(s.as_bytes()).expect("parse");
        let check = out.runs[0]
            .checks
            .iter()
            .find(|c| c.name == "migration-grace")
            .unwrap();
        assert!(!check.passed, "re-move at t=50 inside grace must fail");
        assert!(check.detail.contains("chunk 7"), "{}", check.detail);
    }

    #[test]
    fn grace_respected_restart_passes() {
        let extra = "{\"ev\":\"policy\",\"t\":15.0,\"policy\":\"lfu\",\"moves\":1,\"deferred_grace\":0,\"deferred_inflight\":0,\"skipped_threshold\":0,\"grace_s\":60.0,\"sleepers\":0}\n\
                     {\"ev\":\"mig_start\",\"t\":20.0,\"job\":1,\"chunk\":7,\"src\":0,\"dst\":1}\n\
                     {\"ev\":\"mig_moved\",\"t\":30.0,\"job\":1,\"chunk\":7,\"src\":0,\"dst\":1,\"bytes\":1048576,\"kind\":\"relocate\"}\n\
                     {\"ev\":\"power\",\"t\":50.0,\"watts\":1.0}\n\
                     {\"ev\":\"mig_start\",\"t\":95.0,\"job\":2,\"chunk\":7,\"src\":1,\"dst\":0}";
        let s = minimal_stream().replace("{\"ev\":\"power\",\"t\":50.0,\"watts\":1.0}", extra);
        let out = audit_bytes(s.as_bytes()).expect("parse");
        let check = out.runs[0]
            .checks
            .iter()
            .find(|c| c.name == "migration-grace")
            .unwrap();
        assert!(check.passed, "{}", check.detail);
    }

    /// The minimal stream with `epoch` lines before its first power
    /// sample, and a failure of disk 1 at t=40 when `fail` is set.
    fn epoch_stream(plans: &[&str], fail: bool) -> String {
        let mut extra = String::new();
        for (i, plan) in plans.iter().enumerate() {
            extra += &format!(
                "{{\"ev\":\"epoch\",\"t\":{}.0,\"per_level\":{plan},\"feasible\":true,\
                 \"pred_response_s\":0.001,\"pred_power_w\":20.0,\"jobs\":0,\
                 \"skipped\":false,\"changed\":true}}\n",
                20 + 25 * i
            );
            if fail && i == 0 {
                extra += "{\"ev\":\"fault\",\"t\":40.0,\"disk\":1,\"kind\":\"disk_failure\"}\n";
            }
        }
        extra += "{\"ev\":\"power\",\"t\":50.0,\"watts\":1.0}";
        minimal_stream().replace("{\"ev\":\"power\",\"t\":50.0,\"watts\":1.0}", &extra)
    }

    fn plan_shape(s: &str) -> Check {
        let out = audit_bytes(s.as_bytes()).expect("parse");
        out.runs[0]
            .checks
            .iter()
            .find(|c| c.name == "plan-shape")
            .cloned()
            .expect("a run with epoch events gets a plan-shape check")
    }

    #[test]
    fn plans_that_cover_the_alive_disks_pass_plan_shape() {
        let ok = plan_shape(&epoch_stream(&["[1,0,0,0,0,1]", "[0,0,0,0,0,1]"], true));
        assert!(ok.passed, "{}", ok.detail);
        assert!(
            !audit_bytes(minimal_stream().as_bytes())
                .expect("parse")
                .runs[0]
                .checks
                .iter()
                .any(|c| c.name == "plan-shape"),
            "no epoch events -> no plan-shape check"
        );
    }

    #[test]
    fn mutated_plans_fail_plan_shape_on_their_line() {
        // Line 3 is the first epoch, line 5 the second (after the fault).
        for (plans, fail, line) in [
            (&["[1,0,0,0,0,0,1]", "[0,0,0,0,0,2]"][..], false, 3),
            (&["[1,0,0,0,0,2]"][..], false, 3),
            (&["[1,0,0,0,0,1]", "[1,0,0,0,0,1]"][..], true, 5),
        ] {
            let bad = plan_shape(&epoch_stream(plans, fail));
            assert!(!bad.passed, "{plans:?} passed: {}", bad.detail);
            assert!(
                bad.detail.starts_with(&format!("line {line}: plan ")),
                "{}",
                bad.detail
            );
        }
    }

    #[test]
    fn inflight_cap_violation_is_caught() {
        let extra = "{\"ev\":\"mig_start\",\"t\":20.0,\"job\":1,\"chunk\":1,\"src\":0,\"dst\":1}\n\
                     {\"ev\":\"mig_start\",\"t\":21.0,\"job\":2,\"chunk\":2,\"src\":0,\"dst\":1}\n\
                     {\"ev\":\"mig_start\",\"t\":22.0,\"job\":3,\"chunk\":3,\"src\":0,\"dst\":1}\n\
                     {\"ev\":\"power\",\"t\":50.0,\"watts\":1.0}";
        let s = minimal_stream().replace("{\"ev\":\"power\",\"t\":50.0,\"watts\":1.0}", extra);
        let out = audit_bytes(s.as_bytes()).expect("parse");
        let check = out.runs[0]
            .checks
            .iter()
            .find(|c| c.name == "migration-inflight")
            .unwrap();
        assert!(!check.passed, "3 concurrent jobs exceed cap 2");
    }

    #[test]
    fn out_of_order_stream_fails_shape() {
        let s = minimal_stream().replace(
            "{\"ev\":\"served\",\"t\":10.0,\"latency_us\":5000.0,\"disk\":0,\"tier\":5}",
            "{\"ev\":\"power\",\"t\":60.0,\"watts\":1.0}\n{\"ev\":\"served\",\"t\":10.0,\"latency_us\":5000.0,\"disk\":0,\"tier\":5}",
        );
        let out = audit_bytes(s.as_bytes()).expect("parse");
        let check = out.runs[0]
            .checks
            .iter()
            .find(|c| c.name == "stream-shape")
            .unwrap();
        assert!(!check.passed);
    }

    /// The minimal stream with one DRAM hit, one miss, a flush batch, and
    /// the matching summary/trailer totals (2 completions = 1 hit + 1
    /// disk-served).
    fn cache_stream() -> String {
        minimal_stream()
            .replace(
                "{\"ev\":\"served\",\"t\":10.0,\"latency_us\":5000.0,\"disk\":0,\"tier\":5}",
                "{\"ev\":\"cache_miss\",\"t\":9.0,\"chunks\":1}\n\
                 {\"ev\":\"served\",\"t\":10.0,\"latency_us\":5000.0,\"disk\":0,\"tier\":5}\n\
                 {\"ev\":\"cache_hit\",\"t\":20.0,\"latency_us\":200.0,\"op\":\"read\"}\n\
                 {\"ev\":\"flush\",\"t\":30.0,\"chunks\":3,\"disks\":2,\"forced\":false}",
            )
            .replace(
                "{\"ev\":\"disk\",\"t\":100.0,\"disk\":0,",
                "{\"ev\":\"cache_summary\",\"t\":100.0,\"read_hits\":1,\"read_misses\":1,\
                 \"write_absorbs\":0,\"writebacks\":0,\"flushes\":1,\"flushed_chunks\":3}\n\
                 {\"ev\":\"disk\",\"t\":100.0,\"disk\":0,",
            )
            .replace("\"completed\":1", "\"completed\":2")
            .replace("\"latency_hist\":[0,0,1]", "\"latency_hist\":[1,0,1]")
    }

    #[test]
    fn cache_stream_passes_cache_accounting() {
        let out = audit_bytes(cache_stream().as_bytes()).expect("parse");
        let run = &out.runs[0];
        for c in &run.checks {
            assert!(c.passed, "{} failed: {}", c.name, c.detail);
        }
        assert!(
            run.checks.iter().any(|c| c.name == "cache-accounting"),
            "cache runs must gain the cache-accounting check"
        );
    }

    #[test]
    fn cacheless_stream_has_no_cache_check() {
        let out = audit_bytes(minimal_stream().as_bytes()).expect("parse");
        assert!(out.runs[0]
            .checks
            .iter()
            .all(|c| c.name != "cache-accounting"));
    }

    #[test]
    fn hit_not_counted_as_completion_is_caught() {
        // Trailer claims only the disk-served request completed: the
        // served = hits + disk-served invariant must flag it.
        let s = cache_stream().replace("\"completed\":2", "\"completed\":1");
        let out = audit_bytes(s.as_bytes()).expect("parse");
        let check = out.runs[0]
            .checks
            .iter()
            .find(|c| c.name == "cache-accounting")
            .unwrap();
        assert!(!check.passed);
        assert!(check.detail.contains("completed vs hits + disk-served"));
    }

    #[test]
    fn flush_count_mismatch_is_caught() {
        let s = cache_stream().replace("\"flushed_chunks\":3", "\"flushed_chunks\":4");
        let out = audit_bytes(s.as_bytes()).expect("parse");
        let check = out.runs[0]
            .checks
            .iter()
            .find(|c| c.name == "cache-accounting")
            .unwrap();
        assert!(!check.passed, "summary/replay flush totals must reconcile");
    }

    #[test]
    fn cache_events_without_summary_fail() {
        let s = cache_stream().replace(
            "{\"ev\":\"cache_summary\",\"t\":100.0,\"read_hits\":1,\"read_misses\":1,\
             \"write_absorbs\":0,\"writebacks\":0,\"flushes\":1,\"flushed_chunks\":3}",
            "{\"ev\":\"power\",\"t\":100.0,\"watts\":0.0}",
        );
        // The replaced power line breaks power integration too; only the
        // cache check matters here.
        let out = audit_bytes(s.as_bytes()).expect("parse");
        let check = out.runs[0]
            .checks
            .iter()
            .find(|c| c.name == "cache-accounting")
            .unwrap();
        assert!(!check.passed);
    }

    #[test]
    fn multi_run_streams_audit_independently() {
        let two = format!("{}{}", minimal_stream(), minimal_stream());
        let out = audit_bytes(two.as_bytes()).expect("parse");
        assert_eq!(out.runs.len(), 2);
        assert!(out.passed());
    }

    #[test]
    fn garbage_is_a_parse_error() {
        assert!(audit_bytes(b"not json\n").is_err());
        assert!(audit_bytes(b"").is_err());
    }

    /// The parse error's line number and message, or a panic if `r` is Ok.
    fn parse_err<T: fmt::Debug>(r: Result<T, AuditError>) -> (usize, String) {
        match r {
            Err(AuditError::Parse(n, msg)) => (n, msg),
            Ok(v) => panic!("expected a parse error, got {v:?}"),
        }
    }

    #[test]
    fn label_escapes_and_quoted_commas_parse_back() {
        let line = r#"{"ev":"run_start","t":0.0,"label":"Base/\"q\", \\ \"x\":1}\u{1b}\n","disks":2,"levels":6,"horizon_s":100.0,"inflight":2,"sample_s":50.0,"bucket_s":50.0,"goal_s":0.01,"warmup_s":0.0,"seed":1}"#;
        match Event::parse_jsonl(line, 7).unwrap() {
            Event::RunStart { label, disks, .. } => {
                assert_eq!(label, "Base/\"q\", \\ \"x\":1}\u{1b}\n");
                assert_eq!(disks, 2);
            }
            ev => panic!("parsed {ev:?}"),
        }
    }

    #[test]
    fn null_reads_as_none_only_where_optional() {
        let epoch = |budget: &str, demand: &str| {
            Event::parse_jsonl(
                &format!(
                    r#"{{"ev":"fleet_epoch","t":0.0,"epoch":0,"arrays":2,"budget_w":{budget},"demand_w":{demand}}}"#
                ),
                7,
            )
        };
        match epoch("null", "3.0").unwrap() {
            Event::FleetEpoch {
                budget_w, demand_w, ..
            } => assert_eq!((budget_w, demand_w), (None, 3.0)),
            ev => panic!("parsed {ev:?}"),
        }
        let (n, msg) = parse_err(epoch("1.0", "null"));
        assert_eq!(n, 7);
        assert!(msg.contains("\"demand_w\""), "{msg}");
        let absent = r#"{"ev":"fleet_epoch","t":0.0,"epoch":0,"arrays":2,"demand_w":3.0}"#;
        assert!(Event::parse_jsonl(absent, 7).is_err(), "absent is not null");
    }

    #[test]
    fn non_finite_floats_are_typed_errors() {
        for bad in [
            "NaN",
            "nan",
            "inf",
            "-inf",
            "infinity",
            "+Infinity",
            "1e999",
        ] {
            let line = format!(r#"{{"ev":"power","t":{bad},"watts":1.0}}"#);
            let (n, msg) = parse_err(Event::parse_jsonl(&line, 7));
            assert_eq!(n, 7);
            assert!(msg.contains("non-finite f64 field \"t\""), "{bad}: {msg}");
            let line = format!(
                r#"{{"ev":"fleet_epoch","t":0.0,"epoch":0,"arrays":2,"budget_w":{bad},"demand_w":0.0}}"#
            );
            assert!(Event::parse_jsonl(&line, 7).is_err(), "{bad}");
        }
        let max = r#"{"ev":"power","t":1.7976931348623157e308,"watts":1.0}"#;
        assert_eq!(Event::parse_jsonl(max, 7).unwrap().time_s(), f64::MAX);
        // A NaN timestamp would otherwise slip through the time-order
        // check (every comparison with NaN is false).
        let s = minimal_stream().replace("\"t\":10.0,", "\"t\":NaN,");
        let (n, msg) = parse_err(audit_bytes(s.as_bytes()));
        assert_eq!(n, 2);
        assert!(msg.contains("non-finite"), "{msg}");
        let s = fleet_stream().replace("\"budget_w\":100.0", "\"budget_w\":inf");
        assert_eq!(parse_err(audit_fleet_bytes(s.as_bytes())).0, 1);
    }

    /// Lines off the writer's layout: reordered, spaced, extra or missing
    /// fields, integers out of their field's range.
    #[test]
    fn lines_off_the_writer_layout_are_typed_errors() {
        let served = r#"{"ev":"served","t":10.0,"latency_us":5000.0,"disk":0,"tier":5}"#;
        assert!(Event::parse_jsonl(served, 3).is_ok());
        for (bad, want) in [
            (
                r#"{"ev":"served","t":10.0,"disk":0,"latency_us":5000.0,"tier":5}"#,
                "expected field \"latency_us\"",
            ),
            (
                r#"{"ev":"served", "t":10.0,"latency_us":5000.0,"disk":0,"tier":5}"#,
                "expected field \"t\"",
            ),
            (
                r#"{"ev":"served","t":10.0,"latency_us":5000.0,"disk":0}"#,
                "missing field \"tier\"",
            ),
            (
                r#"{"ev":"served","t":10.0,"latency_us":5000.0,"disk":0,"tier":5,"x":1}"#,
                "malformed line",
            ),
            (
                r#"{"ev":"served","t":10.0,"latency_us":5000.0,"disk":0 ,"tier":5}"#,
                "bad/missing integer field \"disk\"",
            ),
            (
                r#"{"ev":"served","t":10.0,"latency_us":5000.0,"disk":-1,"tier":5}"#,
                "integer field \"disk\"",
            ),
            (
                r#"{"ev":"served","t":10.0,"latency_us":5000.0,"disk":4294967296,"tier":5}"#,
                "integer field \"disk\"",
            ),
            (
                r#"{"ev":"cache_hit","t":1.5,"latency_us":0.1,"op":"erase"}"#,
                "unknown op \"erase\"",
            ),
            (r#"{"ev":"nope","t":1.5}"#, "unknown event kind \"nope\""),
            (
                r#"{"ev":"epoch","t":600.0,"per_level":[0,x],"feasible":true}"#,
                "bad element in array \"per_level\"",
            ),
        ] {
            let (n, msg) = parse_err(Event::parse_jsonl(bad, 3));
            assert_eq!(n, 3);
            assert!(msg.contains(want), "{bad}: {msg:?} lacks {want:?}");
        }
    }

    /// The run header of [`minimal_stream`] with `field` set to `value`.
    fn with_header(field: &str, value: &str) -> String {
        let stream = minimal_stream();
        let at = stream.find(&format!("\"{field}\":")).unwrap() + field.len() + 3;
        let end = at + stream[at..].find([',', '}']).unwrap();
        format!("{}{value}{}", &stream[..at], &stream[end..])
    }

    #[test]
    fn hostile_headers_are_parse_errors_on_their_line() {
        for (field, value) in [
            ("bucket_s", "0.0"),
            ("bucket_s", "-50.0"),
            ("bucket_s", "1e-300"),
            ("bucket_s", "NaN"),
            ("bucket_s", "inf"),
            ("sample_s", "0.0"),
            ("sample_s", "-1.0"),
            ("sample_s", "1e999"),
            ("horizon_s", "1e300"),
            ("horizon_s", "-100.0"),
            ("disks", "4294967295"),
        ] {
            let s = with_header(field, value);
            let (n, msg) = parse_err(audit_bytes(s.as_bytes()));
            assert_eq!(n, 1, "{field}={value}: {msg}");
        }
        // The largest span the auditor holds is still a run.
        let s = with_header("horizon_s", &format!("{}.0", 50 * (MAX_BUCKETS - 1)));
        assert!(audit_bytes(s.as_bytes()).is_ok());
    }

    #[test]
    fn events_past_the_horizon_never_panic() {
        // A completion past the horizon adds its bucket, as it always did.
        let s = minimal_stream().replace(
            "{\"ev\":\"power\",\"t\":100.0,",
            "{\"ev\":\"served\",\"t\":100.0,\"latency_us\":5000.0,\"disk\":0,\"tier\":5}\n\
             {\"ev\":\"served\",\"t\":1000.0,\"latency_us\":5000.0,\"disk\":0,\"tier\":5}\n\
             {\"ev\":\"power\",\"t\":1000.0,",
        );
        let out = audit_bytes(s.as_bytes()).expect("parse");
        let serve = out.runs[0]
            .checks
            .iter()
            .find(|c| c.name == "dead-disk-serve")
            .unwrap();
        assert!(serve.detail.starts_with("3 served"), "{}", serve.detail);
        // One past the furthest bucket is a parse error on its line.
        let far = minimal_stream().replace("\"t\":10.0,", "\"t\":1e300,");
        assert_eq!(parse_err(audit_bytes(far.as_bytes())).0, 2);
    }

    #[test]
    fn undeclared_disks_are_parse_errors_on_their_line() {
        // A failure of a disk the header does not declare…
        let ghost = minimal_stream().replace(
            "{\"ev\":\"served\"",
            "{\"ev\":\"fault\",\"t\":5.0,\"disk\":9,\"kind\":\"disk_failure\"}\n{\"ev\":\"served\"",
        );
        let (n, msg) = parse_err(audit_bytes(ghost.as_bytes()));
        assert_eq!((n, msg.as_str()), (2, "disk 9 of a 2-disk run"));
        // …and a request served by one.
        let ghost = minimal_stream().replace("\"disk\":0,\"tier\"", "\"disk\":99,\"tier\"");
        let (n, msg) = parse_err(audit_bytes(ghost.as_bytes()));
        assert_eq!((n, msg.as_str()), (2, "disk 99 of a 2-disk run"));
        // The last declared disk is still a disk.
        let last = minimal_stream().replace("\"disk\":0,\"tier\"", "\"disk\":1,\"tier\"");
        assert!(audit_bytes(last.as_bytes()).is_ok());
    }

    #[test]
    fn truncated_and_unterminated_lines_fail_with_their_line_number() {
        let lines: Vec<String> = minimal_stream().lines().map(String::from).collect();
        let cases = [
            (1, lines[1][..24].to_string(), "truncated line"),
            (1, lines[1][..30].to_string(), "unterminated string"),
            (
                1,
                lines[1][..lines[1].len() - 1].to_string(),
                "truncated line",
            ),
            (1, format!("{} junk", lines[1]), "trailing bytes"),
            (
                1,
                lines[1].replace("\"served\"", "\"served"),
                "expected ',' or '}'",
            ),
            (
                0,
                lines[0][..lines[0].find("test").unwrap() + 2].to_string(),
                "unterminated string",
            ),
            (
                0,
                lines[0].replace("\"test\"", "\"te\\\"}"),
                "expected ',' or '}'",
            ),
            (
                0,
                lines[0].replace("\"levels\":6", "\"levels\":"),
                "missing value",
            ),
            (
                5,
                "{\"ev\":\"disk\",\"t\":100.0,\"x\":[1,[2]".to_string(),
                "truncated line",
            ),
        ];
        for (at, bad, want) in cases {
            let mut broken = lines.clone();
            broken[at] = bad;
            let (n, msg) = parse_err(audit_bytes(broken.join("\n").as_bytes()));
            assert_eq!(n, at + 1, "{msg}");
            assert!(msg.contains(want), "line {n}: {msg:?} lacks {want:?}");
        }
    }

    /// A two-epoch, two-array fleet stream whose grants, budget, and
    /// request totals all reconcile.
    fn fleet_stream() -> String {
        [
            "{\"ev\":\"fleet_epoch\",\"t\":0.0,\"epoch\":0,\"arrays\":2,\"budget_w\":100.0,\"demand_w\":0.0}",
            "{\"ev\":\"cap_grant\",\"t\":0.0,\"array\":0,\"cap_w\":50.0,\"observed_w\":0.0}",
            "{\"ev\":\"cap_grant\",\"t\":0.0,\"array\":1,\"cap_w\":50.0,\"observed_w\":0.0}",
            "{\"ev\":\"fleet_epoch\",\"t\":60.0,\"epoch\":1,\"arrays\":2,\"budget_w\":100.0,\"demand_w\":80.0}",
            "{\"ev\":\"cap_grant\",\"t\":60.0,\"array\":0,\"cap_w\":62.5,\"observed_w\":50.0}",
            "{\"ev\":\"cap_grant\",\"t\":60.0,\"array\":1,\"cap_w\":37.5,\"observed_w\":30.0}",
            "{\"ev\":\"tenant_move\",\"t\":60.0,\"tenant\":3,\"from\":0,\"to\":1}",
            "{\"ev\":\"fleet_end\",\"t\":120.0,\"total_j\":9000.0,\"budget_j\":12000.0,\"cap_violation_s\":0.0,\"completed\":90,\"incomplete\":10,\"total_requests\":100,\"routed_requests\":100,\"tenant_moves\":1}",
        ]
        .map(|l| format!("{l}\n"))
        .concat()
    }

    #[test]
    fn consistent_fleet_stream_passes_all_checks() {
        let run = audit_fleet_bytes(fleet_stream().as_bytes()).expect("parse");
        for c in &run.checks {
            assert!(c.passed, "{} failed: {}", c.name, c.detail);
        }
        assert!(run.passed());
    }

    #[test]
    fn overspent_grants_are_caught() {
        let s = fleet_stream().replace("\"cap_w\":62.5", "\"cap_w\":80.0");
        let run = audit_fleet_bytes(s.as_bytes()).expect("parse");
        let check = run
            .checks
            .iter()
            .find(|c| c.name == "grant-conservation")
            .unwrap();
        assert!(!check.passed, "80 + 37.5 W exceeds the 100 W budget");
    }

    #[test]
    fn silent_budget_overspend_is_caught() {
        let s = fleet_stream().replace("\"total_j\":9000.0", "\"total_j\":13000.0");
        let run = audit_fleet_bytes(s.as_bytes()).expect("parse");
        let check = run
            .checks
            .iter()
            .find(|c| c.name == "budget-conservation")
            .unwrap();
        assert!(!check.passed, "overspend with zero violation time");
        // The same overspend *with* violation time reported is legal
        // (caps are advisory-soft; the audit demands honesty, not magic).
        let honest = s.replace("\"cap_violation_s\":0.0", "\"cap_violation_s\":60.0");
        let run = audit_fleet_bytes(honest.as_bytes()).expect("parse");
        assert!(run.passed(), "reported overspend passes");
    }

    #[test]
    fn unlimited_budget_fleet_passes() {
        let s = fleet_stream()
            .replace("\"budget_w\":100.0", "\"budget_w\":null")
            .replace("\"budget_j\":12000.0", "\"budget_j\":null");
        let run = audit_fleet_bytes(s.as_bytes()).expect("parse");
        assert!(run.passed());
    }

    #[test]
    fn lost_requests_are_caught() {
        let s = fleet_stream().replace("\"routed_requests\":100", "\"routed_requests\":99");
        let run = audit_fleet_bytes(s.as_bytes()).expect("parse");
        let check = run
            .checks
            .iter()
            .find(|c| c.name == "request-conservation")
            .unwrap();
        assert!(!check.passed, "a dropped request must fail conservation");
    }

    #[test]
    fn move_count_mismatch_is_caught() {
        let s = fleet_stream().replace("\"tenant_moves\":1", "\"tenant_moves\":2");
        let run = audit_fleet_bytes(s.as_bytes()).expect("parse");
        let check = run
            .checks
            .iter()
            .find(|c| c.name == "move-accounting")
            .unwrap();
        assert!(!check.passed);
    }

    #[test]
    fn truncated_fleet_stream_fails_shape() {
        let full = fleet_stream();
        let cut = full.rsplit_once("{\"ev\":\"fleet_end\"").unwrap().0;
        let run = audit_fleet_bytes(cut.as_bytes()).expect("parse");
        let check = run
            .checks
            .iter()
            .find(|c| c.name == "fleet-stream-shape")
            .unwrap();
        assert!(!check.passed, "missing trailer must fail");
        // And trailing junk after the trailer is a parse error outright.
        let extra = format!("{full}{}", fleet_stream().lines().next().unwrap());
        assert!(audit_fleet_bytes(extra.as_bytes()).is_err());
    }

    #[test]
    fn fleet_events_are_rejected_by_the_array_auditor() {
        let s = minimal_stream().replace(
            "{\"ev\":\"power\",\"t\":50.0,\"watts\":1.0}",
            "{\"ev\":\"cap_grant\",\"t\":50.0,\"array\":0,\"cap_w\":50.0,\"observed_w\":0.0}",
        );
        assert!(audit_bytes(s.as_bytes()).is_err());
    }
}
