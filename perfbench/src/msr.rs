//! A deterministic MSR-Cambridge trace synthesizer.
//!
//! Writes a [`Trace`] in the SNIA/MSR-Cambridge block-trace schema
//! (`Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime`, times
//! in Windows FILETIME ticks of 100 ns, offsets and sizes in bytes) with
//! bounded, seeded disorder, the way real captures interleave records from
//! several queues:
//!
//! * a share [`Disorder::late_frac`] of records (never the first) is
//!   emitted late: its sort key is its own timestamp plus a uniform delay
//!   of at most [`Disorder::window_ticks`];
//! * records are written in sort-key order, so no record is written after
//!   one stamped more than the window later than itself — every record's
//!   lateness (the newest timestamp already written minus its own) is at
//!   most the window;
//! * the first record keeps its place, so it carries the earliest
//!   timestamp and the reader's times (relative to the first record) start
//!   at the source's first arrival.
//!
//! The same trace and seed always give the same bytes.

use simkit::{DetRng, SimTime};
use std::io::{self, BufWriter, Write};
use workload::{Trace, VolumeIoKind};

/// FILETIME of the first record: 2007-02-22, inside the MSR capture week.
pub const BASE_TICKS: u64 = 128_166_372_000_000_000;
/// FILETIME ticks per second.
pub const TICKS_PER_S: f64 = 1e7;
/// Bytes per sector.
const SECTOR_BYTES: u64 = 512;

/// How out of order the synthesized records are.
#[derive(Debug, Clone, Copy)]
pub struct Disorder {
    /// Share of records emitted late.
    pub late_frac: f64,
    /// Largest delay of a late record, FILETIME ticks.
    pub window_ticks: u64,
}

/// The benchmark's disorder: 5 % of records up to 100 ms late.
pub const DISORDER: Disorder = Disorder {
    late_frac: 0.05,
    window_ticks: 1_000_000,
};

/// What a synthesis wrote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SynthStats {
    /// Records written.
    pub records: u64,
    /// Records stamped earlier than a record written before them.
    pub late_records: u64,
    /// The largest such lateness, ticks.
    pub max_lateness_ticks: u64,
}

/// A request time as a FILETIME stamp.
pub fn ticks_of(t: SimTime) -> u64 {
    BASE_TICKS + (t.as_secs() * TICKS_PER_S).round() as u64
}

/// Writes `trace` as MSR CSV (with header) to `w`.
pub fn synthesize<W: Write>(
    trace: &Trace,
    seed: u64,
    d: &Disorder,
    w: W,
) -> io::Result<SynthStats> {
    let mut rng = DetRng::new(seed, "perfbench-msr");
    let mut order: Vec<(u64, usize)> = trace
        .requests
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let delay = if i > 0 && rng.chance(d.late_frac) {
                rng.below(d.window_ticks + 1)
            } else {
                0
            };
            (ticks_of(r.time) + delay, i)
        })
        .collect();
    order.sort_unstable();

    let mut out = BufWriter::new(w);
    writeln!(
        out,
        "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime"
    )?;
    let mut stats = SynthStats::default();
    let mut newest = 0u64;
    for &(_, i) in &order {
        let r = &trace.requests[i];
        let ticks = ticks_of(r.time);
        if ticks < newest {
            stats.late_records += 1;
            stats.max_lateness_ticks = stats.max_lateness_ticks.max(newest - ticks);
        }
        newest = newest.max(ticks);
        let kind = match r.kind {
            VolumeIoKind::Read => "Read",
            VolumeIoKind::Write => "Write",
        };
        // The reader ignores ResponseTime; it is seeded noise, as in a
        // real capture.
        let response = 100 + rng.below(20_000);
        writeln!(
            out,
            "{ticks},perfbench,0,{kind},{},{},{response}",
            r.sector * SECTOR_BYTES,
            u64::from(r.sectors) * SECTOR_BYTES
        )?;
        stats.records += 1;
    }
    out.flush()?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::trace_io::read_msr_csv;
    use workload::WorkloadSpec;

    /// A request as MSR encodes it: ticks after the first record, sector,
    /// length, and whether it is a write.
    type Key = (u64, u64, u32, bool);

    fn source_keys(trace: &Trace) -> Vec<Key> {
        let first = ticks_of(trace.requests[0].time);
        let mut keys: Vec<Key> = trace
            .requests
            .iter()
            .map(|r| {
                let w = r.kind == VolumeIoKind::Write;
                (ticks_of(r.time) - first, r.sector, r.sectors, w)
            })
            .collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn sorted_ingest_reproduces_the_source_at_msr_precision() {
        for seed in [1u64, 7, 42] {
            let trace = WorkloadSpec::oltp(120.0, 200.0).generate(seed);
            let mut csv = Vec::new();
            let stats = synthesize(&trace, seed, &DISORDER, &mut csv).unwrap();
            assert_eq!(stats.records, trace.len() as u64);
            assert!(stats.late_records > 0, "seed {seed}: no disorder");

            let back = read_msr_csv(csv.as_slice()).unwrap();
            let mut got: Vec<Key> = back
                .requests
                .iter()
                .map(|r| {
                    let ticks = (r.time.as_secs() * TICKS_PER_S).round() as u64;
                    (ticks, r.sector, r.sectors, r.kind == VolumeIoKind::Write)
                })
                .collect();
            got.sort_unstable();
            assert_eq!(got, source_keys(&trace), "seed {seed}");
        }
    }

    #[test]
    fn no_record_is_later_than_the_window() {
        for seed in [3u64, 11] {
            let trace = WorkloadSpec::oltp(120.0, 200.0).generate(seed);
            let mut csv = Vec::new();
            let stats = synthesize(&trace, seed, &DISORDER, &mut csv).unwrap();
            // Re-derive lateness from the bytes, not from the stats.
            let text = String::from_utf8(csv).unwrap();
            let (mut newest, mut worst, mut late) = (0u64, 0u64, 0u64);
            let mut first = None;
            for line in text.lines().skip(1) {
                let ticks: u64 = line.split(',').next().unwrap().parse().unwrap();
                first.get_or_insert(ticks);
                if ticks < newest {
                    late += 1;
                    worst = worst.max(newest - ticks);
                }
                newest = newest.max(ticks);
            }
            assert!(
                worst <= DISORDER.window_ticks,
                "seed {seed}: {worst} ticks late"
            );
            assert_eq!(late, stats.late_records);
            assert_eq!(worst, stats.max_lateness_ticks);
            assert_eq!(first, Some(ticks_of(trace.requests[0].time)));
        }
    }

    #[test]
    fn synthesis_is_deterministic() {
        let trace = WorkloadSpec::oltp(60.0, 100.0).generate(5);
        let mut a = Vec::new();
        let mut b = Vec::new();
        synthesize(&trace, 9, &DISORDER, &mut a).unwrap();
        synthesize(&trace, 9, &DISORDER, &mut b).unwrap();
        assert_eq!(a, b);
    }
}
