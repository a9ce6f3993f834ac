//! Helpers shared by the root integration tests.
//!
//! Each test binary compiles this module separately and uses only part
//! of it, hence the `dead_code` allowance.
#![allow(dead_code)]

use array::RunReport;
use faults::{FaultOutcome, ReliabilityLedger};

/// Everything numeric a run reports, bit-exact: completion and event
/// counts, energy, response and service moments, migration and fault
/// counters, the per-disk reliability ledgers, per-tenant latency counts
/// and medians, and the mean-response series. Two runs with equal
/// fingerprints agree on every figure the suite compares between runs.
///
/// The fault outcome and the ledgers are destructured exhaustively, so a
/// field added to either fails to compile here until it is fingerprinted.
pub fn fingerprint(r: &RunReport) -> Vec<u64> {
    let mut v = vec![
        r.completed,
        r.incomplete,
        r.events_processed,
        r.transitions,
        r.energy.total_joules().to_bits(),
        r.response.mean().to_bits(),
        r.response.raw_second_moment().to_bits(),
        r.service.mean().to_bits(),
        r.fg_sectors,
        r.migration.committed,
        r.migration.aborted,
        r.migration.rebuilt,
        r.migration.raw_writes,
    ];
    let FaultOutcome {
        disk_failures,
        transient_errors,
        retries,
        lost_requests,
        degraded_redirects,
        slow_transition_events,
        rebuild_chunks,
        first_failure_s,
        rebuild_completed_s,
    } = &r.faults;
    v.extend([
        *disk_failures,
        *transient_errors,
        *retries,
        *lost_requests,
        *degraded_redirects,
        *slow_transition_events,
        *rebuild_chunks,
        opt_bits(*first_failure_s),
        opt_bits(*rebuild_completed_s),
    ]);
    for ledger in &r.reliability {
        let ReliabilityLedger {
            transitions,
            active_hours,
            standby_hours,
            failed,
            failed_at_s,
        } = ledger;
        v.extend([
            *transitions,
            active_hours.to_bits(),
            standby_hours.to_bits(),
            u64::from(*failed),
            opt_bits(*failed_at_s),
        ]);
    }
    // Dense over tenant ids up to the highest served: an unserved id
    // reads as an empty histogram.
    let mut next = 0;
    for (t, h) in &r.tenant_latency {
        for _ in next..*t {
            v.extend([0, opt_bits(None)]);
        }
        v.extend([h.count(), opt_bits(h.quantile(0.5))]);
        next = t + 1;
    }
    for (t, mean) in r.response_series.mean_points() {
        v.extend([t.to_bits(), mean.to_bits()]);
    }
    v
}

/// An optional float's bit pattern, with `u64::MAX` (a NaN pattern no
/// ledger stores) for `None`.
fn opt_bits(x: Option<f64>) -> u64 {
    x.map_or(u64::MAX, f64::to_bits)
}

/// 64-bit FNV-1a over a byte stream.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over a fingerprint's words, little-endian.
pub fn fnv1a_words(words: &[u64]) -> u64 {
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv1a(&bytes)
}
