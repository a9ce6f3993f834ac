//! Logical-block to physical-location mapping over a zoned disk.
//!
//! The disk records more sectors per track on the outer (longer) cylinders
//! than the inner ones — "zoned bit recording". [`Geometry`] precomputes the
//! zone table from a [`DiskSpec`] and answers two questions the service-time
//! model needs:
//!
//! * which **cylinder** a logical sector lives on (seek distance), and
//! * how many **sectors per track** that cylinder has (transfer time and
//!   rotational position granularity).
//!
//! Sector numbering is cylinder-major: all sectors of cylinder 0 (across all
//! surfaces), then cylinder 1, and so on — the conventional serpentine
//! layout abstracted to what a coarse-grained simulator needs.

use crate::spec::DiskSpec;

/// Physical location of a logical sector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Location {
    /// Cylinder index (0 = outermost).
    pub cylinder: u32,
    /// Surface (head) index.
    pub surface: u32,
    /// Sector index within the track.
    pub sector: u32,
    /// Sectors per track at this cylinder.
    pub sectors_per_track: u32,
}

/// Precomputed zone table for sector→location mapping.
#[derive(Debug, Clone)]
pub struct Geometry {
    /// `(first_cylinder, first_sector, sectors_per_track)` per zone,
    /// plus a sentinel with the totals.
    zone_start_cyl: Vec<u32>,
    zone_start_sector: Vec<u64>,
    zone_spt: Vec<u32>,
    surfaces: u32,
    total_sectors: u64,
}

impl Geometry {
    /// Builds the zone table for `spec`.
    pub fn new(spec: &DiskSpec) -> Self {
        let mut zone_start_cyl = Vec::with_capacity(spec.zones as usize + 1);
        let mut zone_start_sector = Vec::with_capacity(spec.zones as usize + 1);
        let mut zone_spt = Vec::with_capacity(spec.zones as usize);
        let mut cyl = 0u32;
        let mut sector = 0u64;
        for z in 0..spec.zones {
            zone_start_cyl.push(cyl);
            zone_start_sector.push(sector);
            let spt = spec.sectors_per_track_in_zone(z);
            zone_spt.push(spt);
            let cyls = spec.cylinders_in_zone(z);
            cyl += cyls;
            sector += u64::from(cyls) * u64::from(spec.surfaces) * u64::from(spt);
        }
        zone_start_cyl.push(cyl);
        zone_start_sector.push(sector);
        Geometry {
            zone_start_cyl,
            zone_start_sector,
            zone_spt,
            surfaces: spec.surfaces,
            total_sectors: sector,
        }
    }

    /// Total sectors on the disk.
    pub fn total_sectors(&self) -> u64 {
        self.total_sectors
    }

    /// Maps a logical sector number to its physical location.
    ///
    /// The zone is the count of zone starts after zone 0 at or below
    /// `sector` — a branch-free pass over at most a few dozen entries that
    /// equals the binary search over the starts whenever no zone is empty,
    /// which [`DiskSpec::validate`] guarantees.
    ///
    /// # Panics
    /// Panics if `sector` is beyond the end of the disk.
    pub fn locate(&self, sector: u64) -> Location {
        assert!(
            sector < self.total_sectors,
            "sector {sector} beyond capacity {}",
            self.total_sectors
        );
        let zones = self.zone_spt.len();
        let zi = self.zone_start_sector[1..zones]
            .iter()
            .map(|&start| usize::from(start <= sector))
            .sum::<usize>();
        let spt = self.zone_spt[zi];
        let within = sector - self.zone_start_sector[zi];
        let per_cylinder = u64::from(self.surfaces) * u64::from(spt);
        let rem = within % per_cylinder;
        Location {
            cylinder: self.zone_start_cyl[zi] + (within / per_cylinder) as u32,
            surface: (rem / u64::from(spt)) as u32,
            sector: (rem % u64::from(spt)) as u32,
            sectors_per_track: spt,
        }
    }

    /// Cylinder of the last sector of the `sectors`-long run that starts at
    /// `first`, whose location is `start`. A run that ends inside its first
    /// cylinder ends on that cylinder, so only a run that leaves it pays a
    /// second [`Geometry::locate`].
    ///
    /// # Panics
    /// Panics if the run extends past the end of the disk.
    pub(crate) fn last_cylinder(&self, first: u64, start: &Location, sectors: u32) -> u32 {
        let spt = u64::from(start.sectors_per_track);
        let into_cylinder = u64::from(start.surface) * spt + u64::from(start.sector);
        if into_cylinder + u64::from(sectors) <= u64::from(self.surfaces) * spt {
            start.cylinder
        } else {
            self.cylinder_of(first + u64::from(sectors) - 1)
        }
    }

    /// Cylinder of a logical sector (the common fast path for seek
    /// distance computations).
    pub fn cylinder_of(&self, sector: u64) -> u32 {
        self.locate(sector).cylinder
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DiskSpec;

    /// The binary-search `locate` that the counted zone lookup replaced,
    /// kept as the reference it must equal.
    fn reference_locate(g: &Geometry, sector: u64) -> Location {
        assert!(sector < g.total_sectors, "beyond capacity");
        let zi = match g.zone_start_sector.binary_search(&sector) {
            Ok(i) => i.min(g.zone_spt.len() - 1),
            Err(i) => i - 1,
        };
        let spt = g.zone_spt[zi];
        let within = sector - g.zone_start_sector[zi];
        let per_cylinder = u64::from(g.surfaces) * u64::from(spt);
        let rem = within % per_cylinder;
        Location {
            cylinder: g.zone_start_cyl[zi] + (within / per_cylinder) as u32,
            surface: (rem / u64::from(spt)) as u32,
            sector: (rem % u64::from(spt)) as u32,
            sectors_per_track: spt,
        }
    }

    /// Both presets.
    fn oracle_geometries() -> Vec<(&'static str, Geometry)> {
        vec![
            (
                "ultrastar",
                Geometry::new(&DiskSpec::ultrastar_multispeed(6)),
            ),
            ("nearline", Geometry::new(&DiskSpec::nearline_multispeed(4))),
        ]
    }

    /// Every zone start and its ±2 neighbours, then 1 M seeded sectors,
    /// on both presets.
    #[test]
    fn locate_matches_binary_search_reference() {
        for (name, g) in oracle_geometries() {
            for &start in &g.zone_start_sector {
                for s in start.saturating_sub(2)..=start + 2 {
                    if s < g.total_sectors() {
                        assert_eq!(g.locate(s), reference_locate(&g, s), "{name} {s}");
                    }
                }
            }
            let mut rng = simkit::DetRng::new(0x6E0, name);
            for _ in 0..1_000_000 {
                let s = rng.below(g.total_sectors());
                assert_eq!(g.locate(s), reference_locate(&g, s), "{name} {s}");
            }
        }
    }

    /// `last_cylinder` equals a full locate of the run's last sector, for
    /// runs that start just before and on track, cylinder and zone
    /// boundaries and end inside, exactly at, and past them.
    #[test]
    fn last_cylinder_matches_full_locate() {
        let mut rng = simkit::DetRng::new(0x6E0, "last-cylinder");
        for (name, g) in oracle_geometries() {
            let total = g.total_sectors();
            let mut starts = Vec::new();
            for zi in 0..g.zone_spt.len() {
                let spt = u64::from(g.zone_spt[zi]);
                let per_cyl = spt * u64::from(g.surfaces);
                let z = g.zone_start_sector[zi];
                for edge in [z, z + spt, z + per_cyl, z + 2 * per_cyl - spt] {
                    starts.extend((0..=3).map(|k| edge.saturating_sub(k)));
                }
            }
            starts.extend((0..20_000).map(|_| rng.below(total)));
            for first in starts {
                let start = g.locate(first);
                let spt = start.sectors_per_track;
                let per_cyl = spt * g.surfaces;
                let to_cyl_end = per_cyl - (start.surface * spt + start.sector);
                let to_track_end = spt - start.sector;
                let mut lengths = vec![1, 2, 3, spt - 1, spt, spt + 1, 2 * per_cyl + 5];
                for edge in [to_track_end, to_cyl_end] {
                    lengths.extend([edge - 1, edge, edge + 1]);
                }
                lengths.push(1 + rng.below(4096) as u32);
                for n in lengths {
                    if n == 0 || first + u64::from(n) > total {
                        continue;
                    }
                    assert_eq!(
                        g.last_cylinder(first, &start, n),
                        reference_locate(&g, first + u64::from(n) - 1).cylinder,
                        "{name} first {first} len {n}"
                    );
                }
            }
        }
    }

    /// Every sector of the Ultrastar preset against the reference. Run
    /// with `cargo test --release -p diskmodel --lib -- --ignored`.
    #[test]
    #[ignore = "sweeps 86 M sectors; run in release"]
    fn locate_matches_reference_on_every_ultrastar_sector() {
        let g = Geometry::new(&DiskSpec::ultrastar_multispeed(6));
        for s in 0..g.total_sectors() {
            assert_eq!(g.locate(s), reference_locate(&g, s), "{s}");
        }
    }

    fn geom() -> (DiskSpec, Geometry) {
        let spec = DiskSpec::ultrastar_multispeed(6);
        let g = Geometry::new(&spec);
        (spec, g)
    }

    #[test]
    fn totals_match_spec() {
        let (spec, g) = geom();
        assert_eq!(g.total_sectors(), spec.capacity_sectors());
    }

    #[test]
    fn first_and_last_sectors() {
        let (spec, g) = geom();
        let first = g.locate(0);
        assert_eq!(first.cylinder, 0);
        assert_eq!(first.surface, 0);
        assert_eq!(first.sector, 0);
        assert_eq!(first.sectors_per_track, spec.sectors_outer);

        let last = g.locate(g.total_sectors() - 1);
        assert_eq!(last.cylinder, spec.cylinders - 1);
        assert_eq!(last.surface, spec.surfaces - 1);
        assert_eq!(last.sector, last.sectors_per_track - 1);
        assert_eq!(last.sectors_per_track, spec.sectors_inner);
    }

    #[test]
    fn consecutive_sectors_advance_correctly() {
        let (spec, g) = geom();
        // Crossing a track boundary bumps the surface; crossing the last
        // surface bumps the cylinder.
        let spt = u64::from(spec.sectors_outer);
        let a = g.locate(spt - 1);
        let b = g.locate(spt);
        assert_eq!(a.surface, 0);
        assert_eq!(b.surface, 1);
        assert_eq!(b.sector, 0);

        let per_cyl = spt * u64::from(spec.surfaces);
        let c = g.locate(per_cyl - 1);
        let d = g.locate(per_cyl);
        assert_eq!(c.cylinder, 0);
        assert_eq!(d.cylinder, 1);
        assert_eq!(d.surface, 0);
        assert_eq!(d.sector, 0);
    }

    #[test]
    fn cylinders_monotone_in_sector_number() {
        let (_, g) = geom();
        let n = g.total_sectors();
        let mut prev = 0;
        for i in 0..1000 {
            let s = i * (n - 1) / 999;
            let c = g.cylinder_of(s);
            assert!(c >= prev, "cylinder decreased at sector {s}");
            prev = c;
        }
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn out_of_range_panics() {
        let (_, g) = geom();
        g.locate(g.total_sectors());
    }

    #[test]
    fn locate_is_within_bounds() {
        let (spec, g) = geom();
        let mut rng = simkit::DetRng::new(0x6E0, "geom-bounds");
        for _ in 0..2_000 {
            let s = rng.below(g.total_sectors());
            let loc = g.locate(s);
            assert!(loc.cylinder < spec.cylinders, "sector {s}");
            assert!(loc.surface < spec.surfaces, "sector {s}");
            assert!(loc.sector < loc.sectors_per_track, "sector {s}");
            assert!(loc.sectors_per_track >= spec.sectors_inner, "sector {s}");
            assert!(loc.sectors_per_track <= spec.sectors_outer, "sector {s}");
        }
    }

    #[test]
    fn locate_is_injective_on_neighbours() {
        let (_, g) = geom();
        let mut rng = simkit::DetRng::new(0x6E0, "geom-inject");
        for _ in 0..2_000 {
            let s = rng.below(g.total_sectors() - 1);
            let a = g.locate(s);
            let b = g.locate(s + 1);
            assert_ne!(
                (a.cylinder, a.surface, a.sector),
                (b.cylinder, b.surface, b.sector),
                "sector {s}"
            );
        }
    }
}
