//! Service-time computation.
//!
//! Given the head's current cylinder, the target location, the spindle
//! speed, and a rotational-latency sample, [`ServiceModel`] breaks a request
//! into its three phases:
//!
//! 1. **seek** — arm movement, independent of RPM (plus write settle),
//! 2. **rotation** — waiting for the first sector to pass under the head,
//!    inversely proportional to RPM,
//! 3. **transfer** — reading/writing `n` sectors as the platter turns,
//!    also inversely proportional to RPM (media-limited).
//!
//! Rotational latency is sampled uniformly in one revolution by the caller
//! (via the disk's deterministic RNG) — tracking exact angular position
//! through speed changes buys almost no fidelity at this simulation
//! granularity and costs a great deal of complexity.

use crate::geometry::Geometry;
use crate::request::{DiskRequest, IoKind};
use crate::seek::SeekModel;
use crate::spec::{DiskSpec, SpeedLevel};

/// The phase breakdown of one request's service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServicePhases {
    /// Arm-movement time (s); 0 when the head is already on-cylinder.
    pub seek_s: f64,
    /// Rotational positioning time (s).
    pub rotation_s: f64,
    /// Media transfer time (s).
    pub transfer_s: f64,
    /// Cylinder where the head ends up.
    pub end_cylinder: u32,
}

impl ServicePhases {
    /// Total service time.
    pub fn total_s(&self) -> f64 {
        self.seek_s + self.rotation_s + self.transfer_s
    }
}

/// Computes service phases for requests against one disk spec.
#[derive(Debug, Clone)]
pub struct ServiceModel {
    geometry: Geometry,
    seek: SeekModel,
    /// Seconds per revolution per level.
    rev_time: Vec<f64>,
    /// `seek.seek_time(1)`: the charge per track boundary a transfer
    /// crosses.
    track_switch_s: f64,
}

impl ServiceModel {
    /// Builds the model for `spec`.
    pub fn new(spec: &DiskSpec) -> Self {
        let seek = SeekModel::new(spec);
        ServiceModel {
            geometry: Geometry::new(spec),
            track_switch_s: seek.seek_time(1),
            seek,
            rev_time: spec.levels().map(|l| spec.revolution_time(l)).collect(),
        }
    }

    /// The disk geometry (shared with callers that need capacity checks).
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The fitted seek model.
    pub fn seek_model(&self) -> &SeekModel {
        &self.seek
    }

    /// Computes the phases for `req`, with the head currently on
    /// `head_cylinder` and the spindle at `level`. `rot_frac` ∈ [0, 1) is the
    /// caller-supplied rotational-latency sample (fraction of a revolution).
    ///
    /// # Panics
    /// Panics if the request extends past the end of the disk, if
    /// `rot_frac` is outside `[0, 1)`, or if `sectors == 0`.
    pub fn service(
        &self,
        req: &DiskRequest,
        head_cylinder: u32,
        level: SpeedLevel,
        rot_frac: f64,
    ) -> ServicePhases {
        assert!((0.0..1.0).contains(&rot_frac), "bad rot_frac {rot_frac}");
        assert!(req.sectors >= 1, "empty request");
        let start = self.geometry.locate(req.sector);
        let end_cylinder = self.geometry.last_cylinder(req.sector, &start, req.sectors);

        let distance = start.cylinder.abs_diff(head_cylinder);
        let seek_s = match req.kind {
            IoKind::Read => self.seek.seek_time(distance),
            IoKind::Write => self.seek.seek_time_write(distance),
        };

        let rev = self.rev_time[level.index()];
        let rotation_s = rot_frac * rev;

        // Transfer at the media rate of each track the request touches.
        // Approximation: use the starting track's density for the whole
        // request (requests are small relative to track capacity), plus one
        // head/track switch charge per track boundary crossed.
        let per_sector = rev / f64::from(start.sectors_per_track);
        let mut transfer_s = per_sector * f64::from(req.sectors);
        let crossings = self.track_crossings(req, &start);
        // A track or cylinder switch costs roughly the track-to-track seek.
        transfer_s += f64::from(crossings) * self.track_switch_s;

        ServicePhases {
            seek_s,
            rotation_s,
            transfer_s,
            end_cylinder,
        }
    }

    fn track_crossings(&self, req: &DiskRequest, start: &crate::geometry::Location) -> u32 {
        let first_track_remaining = u64::from(start.sectors_per_track - start.sector);
        if u64::from(req.sectors) <= first_track_remaining {
            0
        } else {
            // Remaining sectors spill onto subsequent tracks of ~equal size.
            let spill = u64::from(req.sectors) - first_track_remaining;
            1 + (spill.saturating_sub(1) / u64::from(start.sectors_per_track)) as u32
        }
    }

    /// Expected service time for a uniformly random small request at
    /// `level` — the analytic figure queueing models seed themselves with
    /// before real measurements accumulate: average seek + half a
    /// revolution + `sectors` of transfer at the mean track density.
    pub fn expected_random_service_s(&self, level: SpeedLevel, sectors: u32) -> f64 {
        let rev = self.rev_time[level.index()];
        let avg_seek = self.seek.average_seek_time();
        let mean_spt = {
            // Weight zone densities by their sector counts via total capacity.
            // A simple midpoint estimate is plenty here.
            let first = self.geometry.locate(0).sectors_per_track;
            let last = self
                .geometry
                .locate(self.geometry.total_sectors() - 1)
                .sectors_per_track;
            f64::from(first + last) / 2.0
        };
        avg_seek + rev / 2.0 + rev / mean_spt * f64::from(sectors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestClass;
    use simkit::SimTime;

    fn model() -> ServiceModel {
        ServiceModel::new(&DiskSpec::ultrastar_multispeed(6))
    }

    fn req(sector: u64, sectors: u32, kind: IoKind) -> DiskRequest {
        DiskRequest {
            id: 0,
            sector,
            sectors,
            kind,
            class: RequestClass::Foreground,
            issue_time: SimTime::ZERO,
        }
    }

    #[test]
    fn same_cylinder_skips_seek() {
        let m = model();
        let p = m.service(&req(0, 8, IoKind::Read), 0, SpeedLevel(5), 0.5);
        assert_eq!(p.seek_s, 0.0);
        assert!(p.rotation_s > 0.0);
        assert!(p.transfer_s > 0.0);
    }

    #[test]
    fn slower_spindle_longer_rotation_and_transfer() {
        let m = model();
        let fast = m.service(&req(0, 64, IoKind::Read), 9000, SpeedLevel(5), 0.5);
        let slow = m.service(&req(0, 64, IoKind::Read), 9000, SpeedLevel(0), 0.5);
        assert_eq!(fast.seek_s, slow.seek_s, "seek is RPM-independent");
        let ratio = 15000.0 / 3600.0;
        assert!((slow.rotation_s / fast.rotation_s - ratio).abs() < 1e-9);
        assert!(slow.transfer_s > fast.transfer_s);
    }

    #[test]
    fn writes_slower_than_reads_when_seeking() {
        let m = model();
        let r = m.service(&req(0, 8, IoKind::Read), 9000, SpeedLevel(5), 0.3);
        let w = m.service(&req(0, 8, IoKind::Write), 9000, SpeedLevel(5), 0.3);
        assert!(w.seek_s > r.seek_s);
        assert_eq!(w.rotation_s, r.rotation_s);
    }

    #[test]
    fn zero_rot_frac_means_no_rotational_wait() {
        let m = model();
        let p = m.service(&req(0, 8, IoKind::Read), 0, SpeedLevel(5), 0.0);
        assert_eq!(p.rotation_s, 0.0);
    }

    /// `service` takes the end cylinder from the start location when the
    /// request stays on its first cylinder and locates the last sector
    /// when it does not (`geometry.rs` checks that shortcut at every edge).
    #[test]
    fn end_cylinder_tracks_request_end() {
        let m = model();
        let spec = DiskSpec::ultrastar_multispeed(6);
        let spt = u64::from(spec.sectors_outer);
        let per_cyl = spt * u64::from(spec.surfaces);
        // (first sector, length, end cylinder): ending on the cylinder's
        // last sector stays on it, one more sector moves to the next, and
        // a request that starts on the last track can still cross.
        for (first, n, end) in [
            (0, per_cyl, 0),
            (0, per_cyl + 1, 1),
            (per_cyl - spt, spt, 0),
            (per_cyl - 1, 2, 1),
            (per_cyl, 2 * per_cyl, 2),
        ] {
            let p = m.service(&req(first, n as u32, IoKind::Read), 0, SpeedLevel(5), 0.0);
            assert_eq!(p.end_cylinder, end, "{first}+{n}");
        }
    }

    #[test]
    fn big_requests_pay_track_crossings() {
        let m = model();
        let small = m.service(&req(0, 8, IoKind::Read), 0, SpeedLevel(5), 0.0);
        let big = m.service(&req(0, 2048, IoKind::Read), 0, SpeedLevel(5), 0.0);
        // 2048 sectors crosses ≥ 2 track boundaries at 700 spt.
        assert!(big.transfer_s > small.transfer_s * 100.0);
    }

    #[test]
    fn expected_service_reasonable() {
        let m = model();
        // 8 KiB (16 sectors) random read at full speed: ~seek 3-4ms + 2ms
        // half-rev + small transfer => 5-7 ms.
        let s = m.expected_random_service_s(SpeedLevel(5), 16);
        assert!((4e-3..9e-3).contains(&s), "expected service {s}");
        // At the lowest speed, rotation dominates: noticeably slower.
        let slow = m.expected_random_service_s(SpeedLevel(0), 16);
        assert!(slow > s * 1.5);
    }

    #[test]
    fn phases_always_nonnegative() {
        let m = model();
        let cap = m.geometry().total_sectors();
        let mut rng = simkit::DetRng::new(0x5E2C, "service-phases");
        for _ in 0..2_000 {
            let sectors = 1 + rng.below(511) as u32;
            let head = rng.below(18_000) as u32;
            let level = rng.below(6) as usize;
            let rot = rng.uniform(0.0, 0.999);
            let sector = rng.below(cap).min(cap - u64::from(sectors) - 1);
            let kind = if rng.chance(0.5) {
                IoKind::Write
            } else {
                IoKind::Read
            };
            let p = m.service(&req(sector, sectors, kind), head, SpeedLevel(level), rot);
            assert!(p.seek_s >= 0.0);
            assert!(p.rotation_s >= 0.0);
            assert!(p.transfer_s > 0.0);
            assert!(
                p.total_s() < 1.0,
                "implausibly long service {}",
                p.total_s()
            );
        }
    }
}
