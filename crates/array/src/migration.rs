//! Background data migration.
//!
//! Power policies reshape the data layout by enqueueing [`MigrationJob`]s;
//! the engine turns each job into migration-class disk I/O (which yields to
//! all foreground traffic at the disks) and commits the remap-table update
//! only when every copy has finished. Consistency rule: a foreground *write*
//! to a chunk while its copy is in flight marks the job dirty, and a dirty
//! job **aborts** instead of committing — the stale copy is discarded and
//! the planner simply re-plans next epoch. Reads are always served from the
//! current (pre-commit) placement, so they need no special handling.
//!
//! Copies are issued in small *pieces* (default 128 KiB) rather than one
//! chunk-sized I/O, so a foreground request never waits behind more than
//! one piece of migration service — the mechanism that keeps background
//! reorganisation unobtrusive.
//!
//! The engine is deliberately passive: it never touches disks itself.
//! Methods return the disk requests to submit, and the simulation driver
//! performs the submission — keeping all disk mutation in one place.

use crate::remap::RemapTable;
use crate::types::{ChunkId, DiskId};
use diskmodel::{Completion, DiskRequest, IoKind, RequestClass};
use simkit::{SimTime, Slab};
use std::collections::{HashSet, VecDeque};
use telemetry::MoveKind;

/// A requested layout change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationJob {
    /// Move `chunk` to a free slot on `dst`.
    Relocate {
        /// Chunk to move.
        chunk: ChunkId,
        /// Destination disk.
        dst: DiskId,
    },
    /// Exchange the placements of two chunks on different disks (used when
    /// the destination tier is full).
    Swap {
        /// First chunk.
        a: ChunkId,
        /// Second chunk.
        b: ChunkId,
    },
    /// A bare background write with no remap effect — used by policies that
    /// maintain redundant copies (MAID cache promotion/refresh). The data is
    /// assumed to be in controller RAM already (it was just read by the
    /// foreground request), so no read I/O is issued.
    RawWrite {
        /// Target disk.
        disk: DiskId,
        /// First physical sector.
        sector: u64,
        /// Length in sectors.
        sectors: u32,
    },
    /// Reconstruct `chunk` (whose home disk died) from the surviving copy on
    /// `src` into a free slot on `dst`. Unlike `Relocate`, a rebuild runs
    /// through pause windows and never dirty-aborts: aborting would leave
    /// the chunk with no live home.
    Rebuild {
        /// Chunk to reconstruct.
        chunk: ChunkId,
        /// Surviving redundancy partner to read from.
        src: DiskId,
        /// Disk to rebuild onto.
        dst: DiskId,
    },
}

/// Counters describing migration activity so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationStats {
    /// Jobs committed successfully.
    pub committed: u64,
    /// Jobs aborted because a foreground write dirtied a chunk mid-copy.
    pub aborted: u64,
    /// Jobs dropped before starting (queue cleared, or destination full).
    pub dropped: u64,
    /// Raw background writes completed (no remap effect).
    pub raw_writes: u64,
    /// Chunks reconstructed onto a surviving disk after a failure.
    pub rebuilt: u64,
    /// Total sectors read + written by migration I/O.
    pub sectors_moved: u64,
}

/// One recorded migration lifecycle event, produced only while recording
/// is enabled (see [`MigrationEngine::set_recording`]). The driver drains
/// these with [`MigrationEngine::drain_records`] and forwards them to the
/// telemetry stream; field types deliberately match the `telemetry` event
/// variants so forwarding is a plain copy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationRecord {
    /// Simulated time of the event, seconds.
    pub time_s: f64,
    /// Engine-assigned job id (unique within a run).
    pub job: u64,
    /// Which lifecycle stage happened.
    pub kind: MigrationRecordKind,
}

/// Lifecycle stage captured by a [`MigrationRecord`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MigrationRecordKind {
    /// Copy I/O was issued for the job.
    Started {
        /// Chunk being moved (0 for raw writes, which have none).
        chunk: u64,
        /// Disk read from (for swaps: the first chunk's home).
        src: u32,
        /// Disk written to (for swaps: the second chunk's home).
        dst: u32,
    },
    /// The job committed and the remap table was updated (raw writes
    /// commit without a remap change).
    Moved {
        /// Chunk moved (0 for raw writes).
        chunk: u64,
        /// Disk the payload left.
        src: u32,
        /// Disk the payload landed on.
        dst: u32,
        /// Payload bytes written (both directions for a swap).
        bytes: u64,
        /// What kind of job committed.
        kind: MoveKind,
    },
    /// The job finished its I/O but aborted instead of committing
    /// (dirtied by a foreground write, or degenerated to a no-op).
    Aborted {
        /// Chunk the job was moving (0 for raw writes).
        chunk: u64,
    },
    /// The job was torn down mid-copy by a disk failure.
    Dropped {
        /// Chunk the job was moving (0 for raw writes).
        chunk: u64,
    },
}

/// Phase of an active job.
#[derive(Debug)]
enum Phase {
    /// Waiting for `remaining` read-piece completions.
    Reading { remaining: u32 },
    /// Waiting for `remaining` write-piece completions.
    Writing { remaining: u32 },
}

#[derive(Debug)]
struct ActiveJob {
    /// Telemetry job id, from the sequential `next_job_id` counter (the
    /// slab slot is reused, so it cannot name the job in records).
    id: u64,
    job: MigrationJob,
    phase: Phase,
    dirty: bool,
    /// For `Relocate`: the reserved destination slot.
    reserved_slot: Option<u32>,
}

/// The migration engine.
pub struct MigrationEngine {
    pending: VecDeque<MigrationJob>,
    /// Rebuild jobs queue separately: they start even while `paused` (a
    /// boost must not stall redundancy restoration) and survive
    /// [`MigrationEngine::clear_pending`].
    rebuild_pending: VecDeque<MigrationJob>,
    /// In-flight jobs, keyed by slab slot.
    active: Slab<ActiveJob>,
    /// In-flight copy piece → its job's `active` slot, keyed by the piece's
    /// request id minus `MIG_ID_BASE`. A disk failure that tears a job
    /// down re-points its surviving pieces at `ORPHANED`, so their
    /// completions are swallowed and never reach a job that later reuses
    /// the slot. (Pieces queued on the dead disk never complete; their
    /// orphaned slots stay occupied.)
    request_to_job: Slab<u32>,
    /// Disks that have failed; jobs touching them are refused.
    dead: HashSet<usize>,
    active_rebuilds: usize,
    next_job_id: u64,
    max_inflight: usize,
    paused: bool,
    stats: MigrationStats,
    /// When true, every job lifecycle edge is appended to `records`.
    recording: bool,
    records: Vec<MigrationRecord>,
}

/// Sectors per copy piece: 128 KiB pieces keep foreground stalls behind
/// migration service short.
pub const PIECE_SECTORS: u32 = 256;

/// Migration-request ids live in their own namespace (top bit set) so they
/// can never collide with foreground ids handed out by the driver.
const MIG_ID_BASE: u64 = 1 << 63;

/// `request_to_job` value of a piece whose job was torn down.
const ORPHANED: u32 = u32::MAX;

impl MigrationEngine {
    /// Creates an engine allowing `max_inflight` concurrent jobs.
    ///
    /// # Panics
    /// Panics if `max_inflight == 0`.
    pub fn new(max_inflight: usize) -> Self {
        assert!(max_inflight > 0, "need at least one inflight slot");
        MigrationEngine {
            pending: VecDeque::new(),
            rebuild_pending: VecDeque::new(),
            active: Slab::with_capacity(max_inflight),
            request_to_job: Slab::new(),
            dead: HashSet::new(),
            active_rebuilds: 0,
            next_job_id: 0,
            max_inflight,
            paused: false,
            stats: MigrationStats::default(),
            recording: false,
            records: Vec::new(),
        }
    }

    /// Enables or disables lifecycle recording. Off by default, so the
    /// engine allocates nothing for telemetry unless a recorder is
    /// attached.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Takes all records accumulated since the last drain, oldest first.
    pub fn drain_records(&mut self) -> Vec<MigrationRecord> {
        std::mem::take(&mut self.records)
    }

    fn record(&mut self, now: SimTime, job: u64, kind: MigrationRecordKind) {
        if self.recording {
            self.records.push(MigrationRecord {
                time_s: now.as_secs(),
                job,
                kind,
            });
        }
    }

    /// The chunk a job is about, for record-keeping (0 for raw writes).
    fn record_chunk(job: &MigrationJob) -> u64 {
        match *job {
            MigrationJob::Relocate { chunk, .. } | MigrationJob::Rebuild { chunk, .. } => {
                u64::from(chunk.0)
            }
            MigrationJob::Swap { a, .. } => u64::from(a.0),
            MigrationJob::RawWrite { .. } => 0,
        }
    }

    /// Emits piece requests covering `[sector, sector + sectors)`.
    #[allow(clippy::too_many_arguments)]
    fn make_pieces(
        &mut self,
        now: SimTime,
        disk: DiskId,
        sector: u64,
        sectors: u32,
        kind: IoKind,
        job: u32,
        out: &mut Vec<(DiskId, DiskRequest)>,
    ) -> u32 {
        let mut off = 0;
        let mut pieces = 0;
        while off < sectors {
            let take = (sectors - off).min(PIECE_SECTORS);
            let req = self.make_req(now, sector + u64::from(off), take, kind, job);
            out.push((disk, req));
            off += take;
            pieces += 1;
        }
        pieces
    }

    /// Adds jobs to the pending queue (executed FIFO).
    pub fn enqueue(&mut self, jobs: impl IntoIterator<Item = MigrationJob>) {
        self.pending.extend(jobs);
    }

    /// Queues rebuild jobs. Rebuilds outrank ordinary migrations: they
    /// start even while the engine is paused and are not dropped by
    /// [`MigrationEngine::clear_pending`].
    pub fn enqueue_rebuild(&mut self, jobs: impl IntoIterator<Item = MigrationJob>) {
        for job in jobs {
            debug_assert!(
                matches!(job, MigrationJob::Rebuild { .. }),
                "rebuild queue accepts only Rebuild jobs"
            );
            self.rebuild_pending.push_back(job);
        }
    }

    /// Rebuild jobs not yet committed (queued + copying). Zero means every
    /// chunk that lost its home has a live one again.
    pub fn rebuild_outstanding(&self) -> usize {
        self.rebuild_pending.len() + self.active_rebuilds
    }

    /// Drops all not-yet-started jobs. In-flight jobs run to completion
    /// (their I/O is already queued at the disks).
    pub fn clear_pending(&mut self) {
        self.stats.dropped += self.pending.len() as u64;
        self.pending.clear();
    }

    /// Pauses starting new jobs (used during performance boosts). In-flight
    /// jobs finish normally.
    pub fn set_paused(&mut self, paused: bool) {
        self.paused = paused;
    }

    /// The concurrency limit this engine was built with.
    pub fn max_inflight(&self) -> usize {
        self.max_inflight
    }

    /// Jobs waiting to start.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Jobs currently copying.
    pub fn active_len(&self) -> usize {
        self.active.len()
    }

    /// True if no work is queued or in flight.
    pub fn is_quiescent(&self) -> bool {
        self.pending.is_empty() && self.rebuild_pending.is_empty() && self.active.is_empty()
    }

    /// Activity counters.
    pub fn stats(&self) -> MigrationStats {
        self.stats
    }

    /// Marks any in-flight job touching `chunk` dirty (called by the driver
    /// for every foreground **write**).
    pub fn note_foreground_write(&mut self, chunk: ChunkId) {
        for (_, job) in self.active.iter_mut() {
            let touches = match job.job {
                MigrationJob::Relocate { chunk: c, .. } => c == chunk,
                MigrationJob::Swap { a, b } => a == chunk || b == chunk,
                MigrationJob::RawWrite { .. } => false,
                // A rebuild never aborts — the reconstructed data is the
                // redundancy copy, which absorbs the write too.
                MigrationJob::Rebuild { .. } => false,
            };
            if touches {
                job.dirty = true;
            }
        }
    }

    /// Starts queued jobs while below the concurrency limit. Returns the
    /// read requests to submit, as `(disk, request)` pairs. Rebuild jobs go
    /// first and ignore the pause flag; ordinary migrations only start when
    /// unpaused and no rebuild is waiting for a slot.
    pub fn pump(&mut self, now: SimTime, remap: &mut RemapTable) -> Vec<(DiskId, DiskRequest)> {
        let mut out = Vec::new();
        let mut deferred = VecDeque::new();
        while self.active.len() < self.max_inflight {
            let Some(job) = self.rebuild_pending.pop_front() else {
                break;
            };
            match self.try_start(now, remap, job) {
                Some(reqs) => out.extend(reqs),
                // A rebuild that can't start yet (its chunk is mid-copy) is
                // deferred, not dropped — the chunk still needs a home.
                None => deferred.push_back(job),
            }
        }
        self.rebuild_pending.extend(deferred);
        if self.paused {
            return out;
        }
        while self.active.len() < self.max_inflight {
            let Some(job) = self.pending.pop_front() else {
                break;
            };
            match self.try_start(now, remap, job) {
                Some(reqs) => out.extend(reqs),
                None => self.stats.dropped += 1,
            }
        }
        out
    }

    /// True if `chunk` participates in any in-flight job. Migration
    /// policies use this to avoid re-planning a chunk whose previous move
    /// has started but not yet committed (an epoch shorter than the
    /// migration latency would otherwise re-propose the chunk every round,
    /// and each duplicate would be dropped at start — see
    /// [`MigrationEngine::pump`]).
    pub fn chunk_in_flight(&self, chunk: ChunkId) -> bool {
        self.chunk_busy(chunk)
    }

    /// True if `chunk` participates in any in-flight job. Two concurrent
    /// jobs over one chunk would race on its placement, so overlapping jobs
    /// are dropped at start (the planner re-plans next epoch anyway).
    fn chunk_busy(&self, chunk: ChunkId) -> bool {
        self.active.iter().any(|(_, j)| match j.job {
            MigrationJob::Relocate { chunk: c, .. } => c == chunk,
            MigrationJob::Swap { a, b } => a == chunk || b == chunk,
            MigrationJob::RawWrite { .. } => false,
            MigrationJob::Rebuild { chunk: c, .. } => c == chunk,
        })
    }

    fn try_start(
        &mut self,
        now: SimTime,
        remap: &mut RemapTable,
        job: MigrationJob,
    ) -> Option<Vec<(DiskId, DiskRequest)>> {
        match job {
            MigrationJob::Relocate { chunk, .. } if self.chunk_busy(chunk) => return None,
            MigrationJob::Swap { a, b } if self.chunk_busy(a) || self.chunk_busy(b) => return None,
            MigrationJob::Rebuild { chunk, .. } if self.chunk_busy(chunk) => return None,
            _ => {}
        }
        // Jobs touching a dead disk cannot run (its data is gone and its
        // queue will never drain).
        let touches_dead = match job {
            MigrationJob::Relocate { chunk, dst } => {
                self.dead.contains(&remap.disk_of(chunk).index())
                    || self.dead.contains(&dst.index())
            }
            MigrationJob::Swap { a, b } => {
                self.dead.contains(&remap.disk_of(a).index())
                    || self.dead.contains(&remap.disk_of(b).index())
            }
            MigrationJob::RawWrite { disk, .. } => self.dead.contains(&disk.index()),
            MigrationJob::Rebuild { src, dst, .. } => {
                self.dead.contains(&src.index()) || self.dead.contains(&dst.index())
            }
        };
        if touches_dead {
            return None;
        }
        let chunk_sectors = remap.chunk_sectors() as u32;
        // The job as it will run (a rebuild may change destination), its
        // reserved slot, the extents its first phase copies, and the
        // Started record's destination disk.
        let (job, reserved_slot, kind, extents, dst) = match job {
            MigrationJob::Rebuild { chunk, src, dst } => {
                // The reserved destination may have filled up since the
                // driver chose it; fall back to any live disk with space.
                let (dst, slot) = match remap.reserve_slot(dst) {
                    Some(slot) => (dst, slot),
                    None => {
                        let fallback = (0..remap.disks())
                            .map(DiskId)
                            .find(|d| !self.dead.contains(&d.index()) && remap.has_free_slot(*d))?;
                        (fallback, remap.reserve_slot(fallback)?)
                    }
                };
                let read = (src, remap.physical_sector(chunk), chunk_sectors);
                let job = MigrationJob::Rebuild { chunk, src, dst };
                (job, Some(slot), IoKind::Read, vec![read], dst)
            }
            MigrationJob::Relocate { chunk, dst } => {
                let src = remap.placement(chunk);
                if src.disk == dst {
                    return None; // already there — planner noise
                }
                let slot = remap.reserve_slot(dst)?;
                let read = (src.disk, remap.physical_sector(chunk), chunk_sectors);
                (job, Some(slot), IoKind::Read, vec![read], dst)
            }
            MigrationJob::RawWrite {
                disk,
                sector,
                sectors,
            } => (
                job,
                None,
                IoKind::Write,
                vec![(disk, sector, sectors)],
                disk,
            ),
            MigrationJob::Swap { a, b } => {
                let pa = remap.placement(a);
                let pb = remap.placement(b);
                if pa.disk == pb.disk {
                    return None;
                }
                let reads = vec![
                    (pa.disk, remap.physical_sector(a), chunk_sectors),
                    (pb.disk, remap.physical_sector(b), chunk_sectors),
                ];
                (job, None, IoKind::Read, reads, pb.disk)
            }
        };
        let id = self.next_job_id;
        self.next_job_id += 1;
        if matches!(job, MigrationJob::Rebuild { .. }) {
            self.active_rebuilds += 1;
        }
        let key = self.active.insert(ActiveJob {
            id,
            job,
            phase: Phase::Reading { remaining: 0 },
            dirty: false,
            reserved_slot,
        });
        let mut out = Vec::new();
        let mut remaining = 0;
        for &(disk, sector, sectors) in &extents {
            remaining += self.make_pieces(now, disk, sector, sectors, kind, key, &mut out);
        }
        self.active.get_mut(key).expect("just inserted").phase = match kind {
            IoKind::Read => Phase::Reading { remaining },
            IoKind::Write => Phase::Writing { remaining },
        };
        self.record(
            now,
            id,
            MigrationRecordKind::Started {
                chunk: Self::record_chunk(&job),
                src: extents[0].0.index() as u32,
                dst: dst.index() as u32,
            },
        );
        Some(out)
    }

    fn make_req(
        &mut self,
        now: SimTime,
        sector: u64,
        sectors: u32,
        kind: IoKind,
        job: u32,
    ) -> DiskRequest {
        DiskRequest {
            id: MIG_ID_BASE + u64::from(self.request_to_job.insert(job)),
            sector,
            sectors,
            kind,
            class: RequestClass::Migration,
            issue_time: now,
        }
    }

    /// Routes a migration-class completion. Returns follow-on write requests
    /// to submit; commits or aborts the job when its last write lands.
    ///
    /// # Panics
    /// Panics if the completion does not belong to this engine (driver bug).
    pub fn on_completion(
        &mut self,
        now: SimTime,
        comp: &Completion,
        remap: &mut RemapTable,
    ) -> Vec<(DiskId, DiskRequest)> {
        let key = comp
            .request
            .id
            .checked_sub(MIG_ID_BASE)
            .and_then(|k| u32::try_from(k).ok())
            .and_then(|k| self.request_to_job.remove(k))
            .expect("unknown migration completion");
        self.stats.sectors_moved += u64::from(comp.request.sectors);
        if key == ORPHANED {
            // The job this piece belonged to was torn down by a disk
            // failure; the I/O happened, but there is nothing to advance.
            return Vec::new();
        }

        let job = self.active.get_mut(key).expect("job state missing");
        match &mut job.phase {
            Phase::Reading { remaining } => {
                *remaining -= 1;
                if *remaining > 0 {
                    return Vec::new();
                }
                // All reads done → issue writes.
                let chunk_sectors = remap.chunk_sectors() as u32;
                let targets: Vec<(DiskId, u64)> = match job.job {
                    MigrationJob::RawWrite { .. } => {
                        unreachable!("raw writes never enter the read phase")
                    }
                    MigrationJob::Relocate { dst, .. } | MigrationJob::Rebuild { dst, .. } => {
                        let slot = job.reserved_slot.expect("job reserved a slot");
                        vec![(dst, u64::from(slot) * remap.chunk_sectors())]
                    }
                    MigrationJob::Swap { a, b } => {
                        // Each chunk is written into the other's current slot.
                        let pa = remap.placement(a);
                        let pb = remap.placement(b);
                        vec![
                            (pb.disk, u64::from(pb.slot) * remap.chunk_sectors()),
                            (pa.disk, u64::from(pa.slot) * remap.chunk_sectors()),
                        ]
                    }
                };
                let mut out = Vec::new();
                let mut count = 0;
                for (disk, sector) in targets {
                    count += self.make_pieces(
                        now,
                        disk,
                        sector,
                        chunk_sectors,
                        IoKind::Write,
                        key,
                        &mut out,
                    );
                }
                // Reborrow the job (make_pieces needed &mut self).
                let job = self.active.get_mut(key).expect("job still active");
                job.phase = Phase::Writing { remaining: count };
                out
            }
            Phase::Writing { remaining } => {
                *remaining -= 1;
                if *remaining > 0 {
                    return Vec::new();
                }
                // Job complete: commit unless dirtied.
                let job = self.active.remove(key).expect("job vanished");
                let job_id = job.id;
                let chunk_bytes = remap.chunk_sectors() * 512;
                if job.dirty {
                    self.stats.aborted += 1;
                    if let (MigrationJob::Relocate { dst, .. }, Some(slot)) =
                        (job.job, job.reserved_slot)
                    {
                        remap.release_slot(dst, slot);
                    }
                    let chunk = Self::record_chunk(&job.job);
                    self.record(now, job_id, MigrationRecordKind::Aborted { chunk });
                } else {
                    match job.job {
                        MigrationJob::Rebuild { chunk, src, dst } => {
                            let slot = job.reserved_slot.expect("slot reserved");
                            remap.relocate(chunk, dst, slot);
                            self.stats.rebuilt += 1;
                            self.active_rebuilds -= 1;
                            self.record(
                                now,
                                job_id,
                                MigrationRecordKind::Moved {
                                    chunk: u64::from(chunk.0),
                                    src: src.index() as u32,
                                    dst: dst.index() as u32,
                                    bytes: chunk_bytes,
                                    kind: MoveKind::Rebuild,
                                },
                            );
                        }
                        MigrationJob::Relocate { chunk, dst } => {
                            let src = remap.disk_of(chunk);
                            let slot = job.reserved_slot.expect("slot reserved");
                            remap.relocate(chunk, dst, slot);
                            self.stats.committed += 1;
                            self.record(
                                now,
                                job_id,
                                MigrationRecordKind::Moved {
                                    chunk: u64::from(chunk.0),
                                    src: src.index() as u32,
                                    dst: dst.index() as u32,
                                    bytes: chunk_bytes,
                                    kind: MoveKind::Relocate,
                                },
                            );
                        }
                        MigrationJob::Swap { a, b } => {
                            // Placements may have degenerated (e.g. a
                            // foreground-triggered abort path elsewhere);
                            // a same-disk pair is a no-op, not a panic.
                            let (da, db) = (remap.disk_of(a), remap.disk_of(b));
                            if da != db {
                                remap.swap(a, b);
                                self.stats.committed += 1;
                                self.record(
                                    now,
                                    job_id,
                                    MigrationRecordKind::Moved {
                                        chunk: u64::from(a.0),
                                        src: da.index() as u32,
                                        dst: db.index() as u32,
                                        bytes: 2 * chunk_bytes,
                                        kind: MoveKind::Swap,
                                    },
                                );
                            } else {
                                self.stats.aborted += 1;
                                self.record(
                                    now,
                                    job_id,
                                    MigrationRecordKind::Aborted {
                                        chunk: u64::from(a.0),
                                    },
                                );
                            }
                        }
                        MigrationJob::RawWrite { disk, sectors, .. } => {
                            self.stats.raw_writes += 1;
                            self.record(
                                now,
                                job_id,
                                MigrationRecordKind::Moved {
                                    chunk: 0,
                                    src: disk.index() as u32,
                                    dst: disk.index() as u32,
                                    bytes: u64::from(sectors) * 512,
                                    kind: MoveKind::Raw,
                                },
                            );
                        }
                    }
                }
                Vec::new()
            }
        }
    }

    /// Tears down migration state after `disk` fails. Pending jobs touching
    /// the disk are dropped; active jobs touching it are aborted (their
    /// surviving in-flight pieces become orphans, swallowed on completion).
    /// Returns the rebuild jobs that lost their `src` or `dst` and must be
    /// re-targeted by the driver — a failed disk cancels copies, never the
    /// obligation to re-protect a chunk.
    pub fn note_disk_failed(
        &mut self,
        now: SimTime,
        disk: DiskId,
        remap: &mut RemapTable,
    ) -> Vec<MigrationJob> {
        self.dead.insert(disk.index());
        let touches = |job: &MigrationJob, remap: &RemapTable| match *job {
            MigrationJob::Relocate { chunk, dst } => remap.disk_of(chunk) == disk || dst == disk,
            MigrationJob::Swap { a, b } => remap.disk_of(a) == disk || remap.disk_of(b) == disk,
            MigrationJob::RawWrite { disk: d, .. } => d == disk,
            MigrationJob::Rebuild { src, dst, .. } => src == disk || dst == disk,
        };

        // Pending ordinary jobs touching the disk: dropped.
        let before = self.pending.len();
        self.pending.retain(|j| !touches(j, remap));
        self.stats.dropped += (before - self.pending.len()) as u64;

        // Pending rebuilds touching the disk: pulled out for re-targeting.
        let mut retarget = Vec::new();
        let mut keep = VecDeque::new();
        for job in self.rebuild_pending.drain(..) {
            if touches(&job, remap) {
                retarget.push(job);
            } else {
                keep.push_back(job);
            }
        }
        self.rebuild_pending = keep;

        // Active jobs touching the disk: aborted mid-copy. Slab iteration
        // is slot-ordered, not id-ordered — sort by job id so the Dropped
        // records and stats fold in a canonical order regardless of slot
        // history.
        let mut doomed: Vec<(u64, u32)> = self
            .active
            .iter()
            .filter(|(_, a)| touches(&a.job, remap))
            .map(|(key, a)| (a.id, key))
            .collect();
        doomed.sort_unstable();
        for (job_id, key) in doomed {
            let job = self.active.remove(key).expect("doomed job present");
            let chunk = Self::record_chunk(&job.job);
            self.record(now, job_id, MigrationRecordKind::Dropped { chunk });
            // Outstanding pieces on surviving disks will still complete;
            // orphan them so those completions are swallowed.
            for (_, owner) in self.request_to_job.iter_mut() {
                if *owner == key {
                    *owner = ORPHANED;
                }
            }
            match job.job {
                MigrationJob::Relocate { dst, .. } => {
                    if let Some(slot) = job.reserved_slot {
                        if dst != disk {
                            remap.release_slot(dst, slot);
                        }
                    }
                    self.stats.aborted += 1;
                }
                MigrationJob::Swap { .. } | MigrationJob::RawWrite { .. } => {
                    self.stats.aborted += 1;
                }
                MigrationJob::Rebuild { dst, .. } => {
                    if let Some(slot) = job.reserved_slot {
                        if dst != disk {
                            remap.release_slot(dst, slot);
                        }
                    }
                    self.active_rebuilds -= 1;
                    self.stats.aborted += 1;
                    retarget.push(job.job);
                }
            }
        }
        retarget
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ArrayConfig;
    use diskmodel::Completion;

    fn remap(disks: usize, chunks: u32) -> RemapTable {
        let mut c = ArrayConfig::default_for_volume(1 << 30);
        c.disks = disks;
        c.volume_chunks = chunks;
        RemapTable::striped(&c)
    }

    fn complete(req: DiskRequest, at: f64) -> Completion {
        Completion {
            request: req,
            disk: 0,
            finish_time: SimTime::from_secs(at),
            queue_delay_s: 0.0,
            service_s: 0.005,
        }
    }

    /// Runs a single job to completion, feeding completions back manually.
    fn run_job(engine: &mut MigrationEngine, remap: &mut RemapTable, dirty_after_read: bool) {
        let reads = engine.pump(SimTime::ZERO, remap);
        assert!(!reads.is_empty());
        let mut writes = Vec::new();
        for (i, (_, r)) in reads.iter().enumerate() {
            writes.extend(engine.on_completion(
                SimTime::from_secs(0.1 * (i + 1) as f64),
                &complete(*r, 0.1),
                remap,
            ));
        }
        if dirty_after_read {
            let job = engine.active.iter().next().unwrap().1.job;
            match job {
                MigrationJob::Relocate { chunk, .. } => engine.note_foreground_write(chunk),
                MigrationJob::Swap { a, .. } => engine.note_foreground_write(a),
                MigrationJob::RawWrite { .. } => {}
                MigrationJob::Rebuild { chunk, .. } => engine.note_foreground_write(chunk),
            }
        }
        assert!(!writes.is_empty(), "reads must trigger writes");
        for (i, (_, w)) in writes.iter().enumerate() {
            let _ = engine.on_completion(
                SimTime::from_secs(1.0 + i as f64),
                &complete(*w, 1.0),
                remap,
            );
        }
    }

    #[test]
    fn relocate_commits_and_updates_remap() {
        let mut t = remap(4, 16);
        let mut e = MigrationEngine::new(2);
        assert_eq!(t.disk_of(ChunkId(0)), DiskId(0));
        e.enqueue([MigrationJob::Relocate {
            chunk: ChunkId(0),
            dst: DiskId(3),
        }]);
        run_job(&mut e, &mut t, false);
        assert_eq!(t.disk_of(ChunkId(0)), DiskId(3));
        assert_eq!(e.stats().committed, 1);
        assert!(e.is_quiescent());
        t.check_invariants().unwrap();
    }

    #[test]
    fn swap_commits_both_sides() {
        let mut t = remap(4, 16);
        let mut e = MigrationEngine::new(2);
        let a = ChunkId(0); // disk 0
        let b = ChunkId(1); // disk 1
        e.enqueue([MigrationJob::Swap { a, b }]);
        run_job(&mut e, &mut t, false);
        assert_eq!(t.disk_of(a), DiskId(1));
        assert_eq!(t.disk_of(b), DiskId(0));
        assert_eq!(e.stats().committed, 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn dirty_job_aborts_without_commit() {
        let mut t = remap(4, 16);
        let mut e = MigrationEngine::new(2);
        e.enqueue([MigrationJob::Relocate {
            chunk: ChunkId(0),
            dst: DiskId(2),
        }]);
        run_job(&mut e, &mut t, true);
        assert_eq!(t.disk_of(ChunkId(0)), DiskId(0), "abort must not move data");
        assert_eq!(e.stats().aborted, 1);
        assert_eq!(e.stats().committed, 0);
        t.check_invariants().unwrap();
        // The reserved slot was released.
        assert_eq!(t.occupancy(DiskId(2)), 4);
    }

    /// Recording captures the full lifecycle of a committed relocate —
    /// one Started and one Moved record sharing a job id — and nothing is
    /// retained while recording is off.
    #[test]
    fn recording_captures_relocate_lifecycle() {
        let mut t = remap(4, 16);
        let mut e = MigrationEngine::new(2);
        e.set_recording(true);
        e.enqueue([MigrationJob::Relocate {
            chunk: ChunkId(0),
            dst: DiskId(2),
        }]);
        run_job(&mut e, &mut t, false);
        let recs = e.drain_records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].job, recs[1].job);
        assert_eq!(
            recs[0].kind,
            MigrationRecordKind::Started {
                chunk: 0,
                src: 0,
                dst: 2,
            }
        );
        match recs[1].kind {
            MigrationRecordKind::Moved {
                chunk,
                src,
                dst,
                bytes,
                kind,
            } => {
                assert_eq!((chunk, src, dst), (0, 0, 2));
                assert_eq!(bytes, t.chunk_sectors() * 512);
                assert_eq!(kind, MoveKind::Relocate);
            }
            other => panic!("expected Moved, got {other:?}"),
        }
        assert!(e.drain_records().is_empty(), "drain consumes the log");

        // Recording off: a second job leaves no records behind.
        e.set_recording(false);
        e.enqueue([MigrationJob::Relocate {
            chunk: ChunkId(4),
            dst: DiskId(3),
        }]);
        run_job(&mut e, &mut t, false);
        assert!(e.drain_records().is_empty());
    }

    /// A dirty abort and a failure teardown both record their terminal
    /// edge, so an audit can balance every Started against an outcome.
    #[test]
    fn recording_captures_abort_and_drop() {
        let mut t = remap(4, 16);
        let mut e = MigrationEngine::new(2);
        e.set_recording(true);
        e.enqueue([MigrationJob::Relocate {
            chunk: ChunkId(0),
            dst: DiskId(2),
        }]);
        run_job(&mut e, &mut t, true); // dirtied mid-copy
        let recs = e.drain_records();
        assert_eq!(recs.len(), 2);
        assert!(matches!(
            recs[1].kind,
            MigrationRecordKind::Aborted { chunk: 0 }
        ));

        e.enqueue([MigrationJob::Relocate {
            chunk: ChunkId(4), // on disk 0
            dst: DiskId(3),
        }]);
        e.pump(SimTime::ZERO, &mut t);
        e.note_disk_failed(SimTime::from_secs(5.0), DiskId(0), &mut t);
        let recs = e.drain_records();
        assert_eq!(recs.len(), 2);
        assert!(matches!(
            recs[1].kind,
            MigrationRecordKind::Dropped { chunk: 4 }
        ));
        assert_eq!(recs[1].time_s, 5.0);
    }

    #[test]
    fn relocate_to_same_disk_is_dropped() {
        let mut t = remap(4, 16);
        let mut e = MigrationEngine::new(2);
        e.enqueue([MigrationJob::Relocate {
            chunk: ChunkId(0),
            dst: DiskId(0),
        }]);
        let reads = e.pump(SimTime::ZERO, &mut t);
        assert!(reads.is_empty());
        assert_eq!(e.stats().dropped, 1);
        assert!(e.is_quiescent());
    }

    #[test]
    fn inflight_limit_respected() {
        let mut t = remap(8, 64);
        let mut e = MigrationEngine::new(2);
        e.enqueue((0..8).map(|i| MigrationJob::Relocate {
            chunk: ChunkId(i),
            dst: DiskId((i as usize + 1) % 8),
        }));
        let reads = e.pump(SimTime::ZERO, &mut t);
        assert_eq!(e.active_len(), 2);
        // Each chunk copy is split into 128 KiB pieces (2048/256 = 8 per
        // chunk), so two active jobs issue 16 read pieces.
        assert_eq!(reads.len(), 16);
        assert_eq!(e.pending_len(), 6);
    }

    #[test]
    fn paused_engine_starts_nothing() {
        let mut t = remap(4, 16);
        let mut e = MigrationEngine::new(2);
        e.enqueue([MigrationJob::Relocate {
            chunk: ChunkId(0),
            dst: DiskId(1),
        }]);
        e.set_paused(true);
        assert!(e.pump(SimTime::ZERO, &mut t).is_empty());
        e.set_paused(false);
        assert_eq!(e.pump(SimTime::ZERO, &mut t).len(), 8); // 8 read pieces
    }

    #[test]
    fn clear_pending_counts_drops() {
        let mut e = MigrationEngine::new(1);
        e.enqueue([
            MigrationJob::Swap {
                a: ChunkId(0),
                b: ChunkId(1),
            },
            MigrationJob::Swap {
                a: ChunkId(2),
                b: ChunkId(3),
            },
        ]);
        e.clear_pending();
        assert_eq!(e.stats().dropped, 2);
        assert!(e.is_quiescent());
    }

    #[test]
    fn migration_requests_use_reserved_id_space() {
        let mut t = remap(4, 16);
        let mut e = MigrationEngine::new(2);
        e.enqueue([MigrationJob::Relocate {
            chunk: ChunkId(0),
            dst: DiskId(1),
        }]);
        let reads = e.pump(SimTime::ZERO, &mut t);
        assert!(reads[0].1.id >= MIG_ID_BASE);
        assert_eq!(reads[0].1.class, RequestClass::Migration);
    }

    #[test]
    fn rebuild_commits_even_when_dirtied_and_paused() {
        let mut t = remap(4, 16);
        let mut e = MigrationEngine::new(2);
        e.set_paused(true); // boost in progress — rebuilds must still run
        e.enqueue_rebuild([MigrationJob::Rebuild {
            chunk: ChunkId(0), // lives on disk 0
            src: DiskId(1),
            dst: DiskId(3),
        }]);
        assert_eq!(e.rebuild_outstanding(), 1);
        // Dirty it mid-copy: a rebuild must commit anyway.
        run_job(&mut e, &mut t, true);
        assert_eq!(t.disk_of(ChunkId(0)), DiskId(3));
        assert_eq!(e.stats().rebuilt, 1);
        assert_eq!(e.stats().aborted, 0);
        assert_eq!(e.rebuild_outstanding(), 0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn rebuild_falls_back_when_destination_is_full() {
        let mut t = remap(4, 16);
        let mut e = MigrationEngine::new(2);
        // Fill disk 3 completely (4 slots per disk at 16 chunks / 4 disks).
        while t.reserve_slot(DiskId(3)).is_some() {}
        e.enqueue_rebuild([MigrationJob::Rebuild {
            chunk: ChunkId(0),
            src: DiskId(1),
            dst: DiskId(3),
        }]);
        run_job(&mut e, &mut t, false);
        let landed = t.disk_of(ChunkId(0));
        assert_ne!(landed, DiskId(3), "full destination must be bypassed");
        assert_eq!(e.stats().rebuilt, 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn disk_failure_aborts_jobs_and_retargets_rebuilds() {
        let mut t = remap(4, 16);
        let mut e = MigrationEngine::new(4);
        // An ordinary relocate reading from disk 0, plus a queued one.
        e.enqueue([
            MigrationJob::Relocate {
                chunk: ChunkId(0), // on disk 0
                dst: DiskId(2),
            },
            MigrationJob::Relocate {
                chunk: ChunkId(4), // on disk 0
                dst: DiskId(3),
            },
        ]);
        let reads = e.pump(SimTime::ZERO, &mut t);
        assert_eq!(e.active_len(), 2);
        let occupancy_before = t.occupancy(DiskId(2));

        // Disk 0 dies: both active jobs read from it.
        let retarget = e.note_disk_failed(SimTime::ZERO, DiskId(0), &mut t);
        assert!(retarget.is_empty(), "no rebuilds were queued");
        assert_eq!(e.active_len(), 0);
        assert_eq!(e.stats().aborted, 2);
        // Reserved slots were released on the surviving destinations.
        assert_eq!(t.occupancy(DiskId(2)), occupancy_before - 1);

        // Completions for the already-issued reads are swallowed, not a panic.
        for (_, r) in &reads {
            assert!(e
                .on_completion(SimTime::from_secs(1.0), &complete(*r, 1.0), &mut t)
                .is_empty());
        }

        // A rebuild whose src dies comes back for re-targeting.
        e.enqueue_rebuild([MigrationJob::Rebuild {
            chunk: ChunkId(1),
            src: DiskId(1),
            dst: DiskId(2),
        }]);
        let retarget = e.note_disk_failed(SimTime::ZERO, DiskId(1), &mut t);
        assert_eq!(retarget.len(), 1);
        assert!(matches!(retarget[0], MigrationJob::Rebuild { .. }));
        assert_eq!(e.rebuild_outstanding(), 0);

        // New jobs touching dead disks are refused.
        e.enqueue([MigrationJob::Relocate {
            chunk: ChunkId(2), // on disk 2 (alive)
            dst: DiskId(0),    // dead
        }]);
        assert!(e.pump(SimTime::ZERO, &mut t).is_empty());
        assert!(e.is_quiescent());
        t.check_invariants().unwrap();
    }

    /// A torn-down job's slot is reused by the next job while the old
    /// job's surviving pieces are still queued: their completions must be
    /// swallowed, never advance the new job, and the new job must commit
    /// to its own destination.
    #[test]
    fn orphaned_pieces_never_reach_a_job_that_reuses_the_slot() {
        let mut t = remap(4, 16);
        let mut e = MigrationEngine::new(1);
        e.set_recording(true);
        // Job A reads chunk 0 from disk 0 and is bound for disk 2.
        e.enqueue([MigrationJob::Relocate {
            chunk: ChunkId(0),
            dst: DiskId(2),
        }]);
        let stale = e.pump(SimTime::ZERO, &mut t);
        let slot_a = e.active.iter().next().unwrap().0;
        // Disk 2 dies: A is dropped, its reads on disk 0 survive.
        e.note_disk_failed(SimTime::from_secs(1.0), DiskId(2), &mut t);
        assert_eq!(e.active_len(), 0);

        // Job B moves chunk 1 (disk 1) to disk 3, in A's freed slot.
        e.enqueue([MigrationJob::Relocate {
            chunk: ChunkId(1),
            dst: DiskId(3),
        }]);
        let reads = e.pump(SimTime::from_secs(2.0), &mut t);
        assert_eq!(
            e.active.iter().next().unwrap().0,
            slot_a,
            "B reuses A's slot"
        );
        assert!(reads
            .iter()
            .all(|(_, r)| stale.iter().all(|(_, s)| s.id != r.id)));

        // A's pieces land now: swallowed, B untouched.
        for (_, r) in &stale {
            assert!(e
                .on_completion(SimTime::from_secs(3.0), &complete(*r, 3.0), &mut t)
                .is_empty());
        }
        assert!(matches!(
            e.active.get(slot_a).unwrap().phase,
            Phase::Reading { remaining: 8 }
        ));

        let mut writes = Vec::new();
        for (_, r) in &reads {
            writes.extend(e.on_completion(SimTime::from_secs(4.0), &complete(*r, 4.0), &mut t));
        }
        assert!(writes.iter().all(|(d, _)| *d == DiskId(3)));
        for (_, w) in &writes {
            e.on_completion(SimTime::from_secs(5.0), &complete(*w, 5.0), &mut t);
        }
        assert_eq!(t.disk_of(ChunkId(1)), DiskId(3));
        assert_eq!(t.disk_of(ChunkId(0)), DiskId(0), "A never committed");
        assert_eq!((e.stats().committed, e.stats().aborted), (1, 1));
        assert!(e.is_quiescent());
        assert!(e.request_to_job.is_empty(), "every piece slot was freed");
        let recs: Vec<(u64, MigrationRecordKind)> =
            e.drain_records().iter().map(|r| (r.job, r.kind)).collect();
        assert!(matches!(
            recs[1],
            (0, MigrationRecordKind::Dropped { chunk: 0 })
        ));
        assert!(matches!(
            recs[2],
            (1, MigrationRecordKind::Started { chunk: 1, .. })
        ));
        assert!(matches!(
            recs[3],
            (
                1,
                MigrationRecordKind::Moved {
                    chunk: 1,
                    dst: 3,
                    ..
                }
            )
        ));
        t.check_invariants().unwrap();
    }

    #[test]
    fn sectors_moved_accumulates() {
        let mut t = remap(4, 16);
        let mut e = MigrationEngine::new(2);
        e.enqueue([MigrationJob::Relocate {
            chunk: ChunkId(0),
            dst: DiskId(1),
        }]);
        run_job(&mut e, &mut t, false);
        // One read + one write of a whole chunk each.
        assert_eq!(e.stats().sectors_moved, 2 * t.chunk_sectors());
    }
}
