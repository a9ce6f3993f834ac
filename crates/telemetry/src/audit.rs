//! Replay a serialized event stream and check cross-cutting invariants.
//!
//! The auditor is deliberately decoupled from the simulator: it scans the
//! JSON-lines text directly — one byte pass per line splits it into its
//! top-level fields — and reconstructs every derived quantity from first
//! principles — energy totals from per-disk summaries, power integrals
//! from samples, the goal-violation fraction from individual
//! `RequestServed` events — then reconciles them against the stream's own
//! trailer. A bug in either the emitters or the accounting shows up as a
//! failed [`Check`], not a silently wrong figure.
//!
//! A file may concatenate many runs (the harness flushes one stream per
//! run, sorted by label); each `run_start`…`run_end` segment is audited
//! independently.

use std::collections::BTreeMap;
use std::fmt;

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

/// One stream line split into its top-level `(key, raw value)` pairs.
///
/// [`Fields::scan`] walks the line's bytes once; the pair buffer is reused
/// from line to line, so a whole stream is audited without a per-field
/// allocation or a per-lookup search of the text. The typed accessors look
/// keys up among the pairs and fail with the line number and key.
#[derive(Default)]
struct Fields<'a> {
    /// 1-based line number of the scanned line.
    n: usize,
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    /// Splits the JSON object on `line` (line number `n`) into its
    /// top-level fields. Values stay raw text: strings keep their quotes,
    /// arrays and objects their brackets.
    fn scan(&mut self, line: &'a str, n: usize) -> Result<(), AuditError> {
        self.n = n;
        self.pairs.clear();
        let b = line.as_bytes();
        let err = |what: &str| AuditError::Parse(n, format!("malformed line: {what}"));
        let mut i = skip_ws(b, 0);
        expect_byte(b, i, b'{', "expected '{'").map_err(err)?;
        i = skip_ws(b, i + 1);
        if b.get(i) == Some(&b'}') {
            i += 1;
        } else {
            loop {
                expect_byte(b, i, b'"', "expected a quoted key").map_err(err)?;
                let key_end = string_end(b, i).map_err(err)?;
                let key = &line[i + 1..key_end - 1];
                i = skip_ws(b, key_end);
                expect_byte(b, i, b':', "expected ':' after a key").map_err(err)?;
                i = skip_ws(b, i + 1);
                let start = i;
                i = value_end(b, i).map_err(err)?;
                self.pairs.push((key, &line[start..i]));
                i = skip_ws(b, i);
                match b.get(i) {
                    Some(b',') => i = skip_ws(b, i + 1),
                    Some(b'}') => {
                        i += 1;
                        break;
                    }
                    None => return Err(err("truncated line")),
                    Some(_) => return Err(err("expected ',' or '}'")),
                }
            }
        }
        if skip_ws(b, i) != b.len() {
            return Err(err("trailing bytes after the object"));
        }
        Ok(())
    }

    /// The raw value text of `key`, if present.
    fn raw(&self, key: &str) -> Option<&'a str> {
        self.pairs.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }

    /// A finite `f64` field: JSON has no NaN or infinity, so `NaN`, `inf`
    /// (which `f64::from_str` accepts) and out-of-range literals are
    /// rejected.
    fn f64_field(&self, key: &str) -> Result<f64, AuditError> {
        let raw = self
            .raw(key)
            .ok_or_else(|| AuditError::Parse(self.n, format!("bad/missing f64 field {key:?}")))?;
        self.finite(key, raw)
    }

    fn finite(&self, key: &str, raw: &str) -> Result<f64, AuditError> {
        match raw.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(x),
            Ok(_) => Err(AuditError::Parse(
                self.n,
                format!("non-finite f64 field {key:?}: {raw}"),
            )),
            Err(_) => Err(AuditError::Parse(
                self.n,
                format!("bad/missing f64 field {key:?}"),
            )),
        }
    }

    fn u64_field(&self, key: &str) -> Result<u64, AuditError> {
        self.raw(key)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| AuditError::Parse(self.n, format!("bad/missing u64 field {key:?}")))
    }

    fn str_field(&self, key: &str) -> Result<&'a str, AuditError> {
        self.raw(key)
            .and_then(|v| v.strip_prefix('"'))
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| AuditError::Parse(self.n, format!("bad/missing string field {key:?}")))
    }

    /// An `f64` field that may be JSON `null` (unlimited budgets serialize
    /// as `null`).
    fn opt_f64_field(&self, key: &str) -> Result<Option<f64>, AuditError> {
        match self.raw(key) {
            Some("null") => Ok(None),
            Some(v) => self.finite(key, v).map(Some),
            None => Err(AuditError::Parse(self.n, format!("missing field {key:?}"))),
        }
    }

    fn u64_array(&self, key: &str) -> Result<Vec<u64>, AuditError> {
        let raw = self
            .raw(key)
            .and_then(|v| v.strip_prefix('['))
            .and_then(|v| v.strip_suffix(']'))
            .ok_or_else(|| AuditError::Parse(self.n, format!("bad/missing array field {key:?}")))?;
        if raw.trim().is_empty() {
            return Ok(Vec::new());
        }
        raw.split(',')
            .map(|x| {
                x.trim()
                    .parse()
                    .map_err(|_| AuditError::Parse(self.n, format!("bad element in array {key:?}")))
            })
            .collect()
    }
}

fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while b.get(i).is_some_and(u8::is_ascii_whitespace) {
        i += 1;
    }
    i
}

/// Checks that `b[i]` is `want`; running out of bytes is a truncation.
fn expect_byte(b: &[u8], i: usize, want: u8, what: &'static str) -> Result<(), &'static str> {
    match b.get(i) {
        Some(&c) if c == want => Ok(()),
        Some(_) => Err(what),
        None => Err("truncated line"),
    }
}

/// `b[i]` opens a string; returns the index just past its closing quote.
fn string_end(b: &[u8], i: usize) -> Result<usize, &'static str> {
    let mut j = i + 1;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'"' => return Ok(j + 1),
            _ => j += 1,
        }
    }
    Err("unterminated string")
}

/// Returns the index just past the value starting at `b[i]`: a string, a
/// bracketed array or object (nesting and quoted brackets skipped), or a
/// bare scalar running to the next `,`, `}` or whitespace.
fn value_end(b: &[u8], i: usize) -> Result<usize, &'static str> {
    match b.get(i) {
        None => Err("truncated line"),
        Some(b'"') => string_end(b, i),
        Some(b'[' | b'{') => {
            let (mut depth, mut j) = (0usize, i);
            while j < b.len() {
                match b[j] {
                    b'"' => {
                        j = string_end(b, j)?;
                        continue;
                    }
                    b'[' | b'{' => depth += 1,
                    b']' | b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            return Ok(j + 1);
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            Err("truncated line")
        }
        Some(_) => {
            let mut j = i;
            while j < b.len() && !matches!(b[j], b',' | b'}') && !b[j].is_ascii_whitespace() {
                j += 1;
            }
            if j == i {
                Err("missing value")
            } else {
                Ok(j)
            }
        }
    }
}

/// Energy-component keys in ledger order (see `simkit::EnergyComponent`).
const COMPONENTS: [&str; 6] = [
    "idle_spin",
    "seek",
    "transfer",
    "transition",
    "standby",
    "migration",
];

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
struct RunAcc {
    label: String,
    disks: u32,
    inflight: u32,
    sample_s: f64,
    bucket_s: f64,
    goal_s: f64,
    warmup_s: f64,
    horizon_s: f64,
    events: usize,
    last_t: f64,
    order_violation: Option<String>,
    /// disk -> failure time (first wins).
    dead: BTreeMap<u32, f64>,
    dead_serve_violation: Option<String>,
    served: u64,
    /// bucket index -> (count, sum of response seconds), insertion order
    /// is replay order so float accumulation matches the simulator's.
    buckets: BTreeMap<u64, (u64, f64)>,
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
    end: Option<EndTotals>,
}

impl RunAcc {
    fn new(f: &Fields<'_>) -> Result<RunAcc, AuditError> {
        Ok(RunAcc {
            label: f.str_field("label")?.to_string(),
            disks: f.u64_field("disks")? as u32,
            inflight: f.u64_field("inflight")? as u32,
            sample_s: f.f64_field("sample_s")?,
            bucket_s: f.f64_field("bucket_s")?,
            goal_s: f.f64_field("goal_s")?,
            warmup_s: f.f64_field("warmup_s")?,
            horizon_s: f.f64_field("horizon_s")?,
            events: 1,
            last_t: 0.0,
            order_violation: None,
            dead: BTreeMap::new(),
            dead_serve_violation: None,
            served: 0,
            buckets: BTreeMap::new(),
            speed_events: 0,
            active_jobs: BTreeMap::new(),
            max_active: 0,
            mig_shape_violation: None,
            moved: 0,
            moved_remap: 0,
            power_sum_j: 0.0,
            power_samples: 0,
            last_power_t: 0.0,
            disk_energy_j: [0.0; 6],
            disk_transitions: 0,
            disk_summaries: 0,
            cache_hits: 0,
            cache_read_hits: 0,
            cache_write_absorbs: 0,
            cache_misses: 0,
            flushes: 0,
            flushed_chunks: 0,
            cache_sum: None,
            policy_events: 0,
            policy_grace_s: 0.0,
            chunk_commits: BTreeMap::new(),
            grace_violation: None,
            end: None,
        })
    }

    fn note_time(&mut self, t: f64, n: usize) {
        if t < self.last_t - 1e-9 && self.order_violation.is_none() {
            self.order_violation = Some(format!(
                "line {n}: t={t} after t={} — stream not time-ordered",
                self.last_t
            ));
        }
        self.last_t = self.last_t.max(t);
    }

    fn end_job(&mut self, job: u64, n: usize, what: &str) {
        if self.active_jobs.remove(&job).is_none() && self.mig_shape_violation.is_none() {
            self.mig_shape_violation =
                Some(format!("line {n}: {what} for job {job} that never started"));
        }
    }

    /// Recomputes the goal-violation fraction from the replayed
    /// `RequestServed` events using the T4 bucket rule: a bucket counts
    /// only if it starts at or after the warm-up cutoff.
    fn recomputed_violation(&self) -> f64 {
        let (mut kept, mut over) = (0u64, 0u64);
        for (&idx, &(count, sum)) in &self.buckets {
            if (idx as f64) * self.bucket_s < self.warmup_s {
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
            for (i, name) in COMPONENTS.iter().enumerate() {
                if !close(self.disk_energy_j[i], end.energy_j[i], 1e-9) {
                    energy_ok = false;
                    worst = format!(
                        "{name}: Σdisks {} != run {}",
                        self.disk_energy_j[i], end.energy_j[i]
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
                    detail: format!(
                        "{} served, {} disk failure(s)",
                        self.served,
                        self.dead.len()
                    ),
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
        }

        RunAudit {
            label: self.label,
            events: self.events,
            checks,
        }
    }
}

/// Audits a JSON-lines stream (one or more concatenated runs).
pub fn audit_bytes(bytes: &[u8]) -> Result<AuditOutcome, AuditError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| AuditError::Parse(0, format!("stream is not UTF-8: {e}")))?;
    let mut runs: Vec<RunAudit> = Vec::new();
    let mut acc: Option<RunAcc> = None;
    let mut f = Fields::default();

    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        f.scan(line, n)?;
        let ev = f.str_field("ev")?;
        if ev == "run_start" {
            if let Some(prev) = acc.take() {
                runs.push(prev.finish());
            }
            acc = Some(RunAcc::new(&f)?);
            continue;
        }
        let run = acc
            .as_mut()
            .ok_or_else(|| AuditError::Parse(n, format!("{ev:?} before any run_start")))?;
        run.events += 1;
        let t = f.f64_field("t")?;
        run.note_time(t, n);
        match ev {
            "served" => {
                let disk = f.u64_field("disk")? as u32;
                let latency_us = f.f64_field("latency_us")?;
                if let Some(&died) = run.dead.get(&disk) {
                    if t > died + 1e-9 && run.dead_serve_violation.is_none() {
                        run.dead_serve_violation = Some(format!(
                            "line {n}: disk {disk} served at t={t} but died at t={died}"
                        ));
                    }
                }
                run.served += 1;
                let idx = (t / run.bucket_s).floor() as u64;
                let b = run.buckets.entry(idx).or_insert((0, 0.0));
                b.0 += 1;
                b.1 += latency_us / 1e6;
            }
            "fault" => {
                if f.str_field("kind")? == "disk_failure" {
                    let disk = f.u64_field("disk")? as u32;
                    run.dead.entry(disk).or_insert(t);
                }
            }
            "speed" => run.speed_events += 1,
            "mig_start" => {
                let job = f.u64_field("job")?;
                if run.active_jobs.insert(job, n as u64).is_some()
                    && run.mig_shape_violation.is_none()
                {
                    run.mig_shape_violation = Some(format!("line {n}: job {job} started twice"));
                }
                run.max_active = run.max_active.max(run.active_jobs.len());
                // Migration-grace: once a policy has announced a grace
                // period, no chunk may start a new move inside the grace
                // window of its last commit. Suspended after a disk failure
                // (rebuild re-copies are legitimate immediate moves).
                if run.policy_events > 0 && run.dead.is_empty() && run.grace_violation.is_none() {
                    let chunk = f.u64_field("chunk")?;
                    if let Some(&(committed, grace)) = run.chunk_commits.get(&chunk) {
                        if t < committed + grace - 1e-9 {
                            run.grace_violation = Some(format!(
                                "line {n}: chunk {chunk} re-moved at t={t} only {:.1}s after \
                                 its commit at t={committed} (grace {grace}s)",
                                t - committed
                            ));
                        }
                    }
                }
            }
            "mig_moved" => {
                let job = f.u64_field("job")?;
                run.end_job(job, n, "mig_moved");
                run.moved += 1;
                if f.str_field("kind")? != "raw" {
                    run.moved_remap += 1;
                    let chunk = f.u64_field("chunk")?;
                    run.chunk_commits.insert(chunk, (t, run.policy_grace_s));
                }
            }
            "mig_abort" => {
                let job = f.u64_field("job")?;
                run.end_job(job, n, "mig_abort");
            }
            "mig_drop" => {
                let job = f.u64_field("job")?;
                run.end_job(job, n, "mig_drop");
            }
            "power" => {
                let watts = f.f64_field("watts")?;
                run.power_sum_j += watts * run.sample_s;
                run.power_samples += 1;
                run.last_power_t = t;
            }
            "disk" => {
                for (i, name) in COMPONENTS.iter().enumerate() {
                    run.disk_energy_j[i] += f.f64_field(name)?;
                }
                run.disk_transitions = run
                    .disk_transitions
                    .saturating_add(f.u64_field("transitions")?);
                run.disk_summaries += 1;
            }
            "run_end" => {
                let mut energy_j = [0.0; 6];
                for (i, name) in COMPONENTS.iter().enumerate() {
                    energy_j[i] = f.f64_field(name)?;
                }
                let latency_hist_total = f
                    .u64_array("latency_hist")?
                    .into_iter()
                    .fold(f.u64_field("latency_overflow")?, u64::saturating_add);
                run.end = Some(EndTotals {
                    total_j: f.f64_field("total_j")?,
                    energy_j,
                    completed: f.u64_field("completed")?,
                    transitions: f.u64_field("transitions")?,
                    violation: f.f64_field("violation")?,
                    latency_hist_total,
                    moved: f.u64_field("moved")?,
                    remap_version: f.u64_field("remap_version")?,
                    dropped: f.u64_field("dropped")?,
                });
            }
            "cache_hit" => {
                // A DRAM-served request: counts toward completions and the
                // violation refit, but not toward disk-served tallies.
                let latency_us = f.f64_field("latency_us")?;
                run.cache_hits += 1;
                match f.str_field("op")? {
                    "read" => run.cache_read_hits += 1,
                    "write" => run.cache_write_absorbs += 1,
                    other => {
                        return Err(AuditError::Parse(n, format!("unknown cache op {other:?}")));
                    }
                }
                let idx = (t / run.bucket_s).floor() as u64;
                let b = run.buckets.entry(idx).or_insert((0, 0.0));
                b.0 += 1;
                b.1 += latency_us / 1e6;
            }
            "cache_miss" => run.cache_misses += 1,
            "flush" => {
                run.flushes += 1;
                run.flushed_chunks = run.flushed_chunks.saturating_add(f.u64_field("chunks")?);
            }
            "cache_summary" => {
                run.cache_sum = Some(CacheTotals {
                    read_hits: f.u64_field("read_hits")?,
                    read_misses: f.u64_field("read_misses")?,
                    write_absorbs: f.u64_field("write_absorbs")?,
                    flushes: f.u64_field("flushes")?,
                    flushed_chunks: f.u64_field("flushed_chunks")?,
                });
            }
            "policy" => {
                run.policy_events += 1;
                run.policy_grace_s = f.f64_field("grace_s")?;
            }
            "epoch" | "boost" => {}
            other => {
                return Err(AuditError::Parse(
                    n,
                    format!("unknown event kind {other:?}"),
                ));
            }
        }
    }
    if let Some(prev) = acc.take() {
        runs.push(prev.finish());
    }
    if runs.is_empty() {
        return Err(AuditError::Parse(0, "stream contains no runs".to_string()));
    }
    Ok(AuditOutcome { runs })
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
    let text = std::str::from_utf8(bytes)
        .map_err(|e| AuditError::Parse(0, format!("stream is not UTF-8: {e}")))?;

    struct Trailer {
        total_j: f64,
        budget_j: Option<f64>,
        cap_violation_s: f64,
        completed: u64,
        incomplete: u64,
        total_requests: u64,
        routed_requests: u64,
        tenant_moves: u64,
    }

    let mut events = 0usize;
    let mut last_t = 0.0f64;
    let mut order_violation: Option<String> = None;
    let mut epochs = 0u64;
    // The open boundary's finite budget and its running grant sum.
    let mut open_budget: Option<f64> = None;
    let mut grant_sum = 0.0f64;
    let mut grant_violation: Option<String> = None;
    let mut moves = 0u64;
    let mut trailer: Option<Trailer> = None;
    let mut after_trailer = false;

    let mut f = Fields::default();
    let close_epoch = |budget: &mut Option<f64>, sum: &mut f64, viol: &mut Option<String>| {
        if let Some(b) = budget.take() {
            if *sum > b * (1.0 + 1e-9) + 1e-6 && viol.is_none() {
                *viol = Some(format!("granted {sum} W of budget {b} W"));
            }
        }
        *sum = 0.0;
    };

    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        if after_trailer {
            return Err(AuditError::Parse(n, "events after fleet_end".to_string()));
        }
        events += 1;
        f.scan(line, n)?;
        let ev = f.str_field("ev")?;
        let t = f.f64_field("t")?;
        if t < last_t - 1e-9 && order_violation.is_none() {
            order_violation = Some(format!(
                "line {n}: t={t} after t={last_t} — stream not time-ordered"
            ));
        }
        last_t = last_t.max(t);
        match ev {
            "fleet_epoch" => {
                close_epoch(&mut open_budget, &mut grant_sum, &mut grant_violation);
                epochs += 1;
                open_budget = f.opt_f64_field("budget_w")?;
            }
            "cap_grant" => {
                grant_sum += f.f64_field("cap_w")?;
            }
            "tenant_move" => moves += 1,
            "fleet_end" => {
                close_epoch(&mut open_budget, &mut grant_sum, &mut grant_violation);
                trailer = Some(Trailer {
                    total_j: f.f64_field("total_j")?,
                    budget_j: f.opt_f64_field("budget_j")?,
                    cap_violation_s: f.f64_field("cap_violation_s")?,
                    completed: f.u64_field("completed")?,
                    incomplete: f.u64_field("incomplete")?,
                    total_requests: f.u64_field("total_requests")?,
                    routed_requests: f.u64_field("routed_requests")?,
                    tenant_moves: f.u64_field("tenant_moves")?,
                });
                after_trailer = true;
            }
            other => {
                return Err(AuditError::Parse(
                    n,
                    format!("unknown fleet event kind {other:?}"),
                ));
            }
        }
    }

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

    Ok(RunAudit {
        label: "fleet".to_string(),
        events,
        checks,
    })
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

    fn scan(line: &str) -> Result<Fields<'_>, AuditError> {
        let mut f = Fields::default();
        f.scan(line, 7)?;
        Ok(f)
    }

    /// The parse error's line number and message, or a panic if `r` is Ok.
    fn parse_err<T: fmt::Debug>(r: Result<T, AuditError>) -> (usize, String) {
        match r {
            Err(AuditError::Parse(n, msg)) => (n, msg),
            Ok(v) => panic!("expected a parse error, got {v:?}"),
        }
    }

    #[test]
    fn scanner_splits_top_level_fields_only() {
        let f = scan(r#"{"a":[1,[2,3],{"t":"]"}],"t":2.5, "b" : [] ,"c":{"d":[4]}}"#).unwrap();
        let keys: Vec<&str> = f.pairs.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, ["a", "t", "b", "c"]);
        assert_eq!(f.raw("a"), Some(r#"[1,[2,3],{"t":"]"}]"#));
        assert_eq!(
            f.f64_field("t").unwrap(),
            2.5,
            "nested \"t\" keys are not top-level"
        );
        assert_eq!(f.u64_array("b").unwrap(), Vec::<u64>::new());
        assert_eq!(f.raw("c"), Some(r#"{"d":[4]}"#));
        assert_eq!(f.raw("d"), None);
        assert_eq!(scan("{}").unwrap().pairs.len(), 0);
    }

    #[test]
    fn scanner_skips_escaped_quotes_and_commas_in_strings() {
        let f = scan(r#"{"label":"Base/\"q\", \\ \"x\":1}","t":1.5,"ev":"served"}"#).unwrap();
        assert_eq!(f.str_field("label").unwrap(), r#"Base/\"q\", \\ \"x\":1}"#);
        assert_eq!(f.f64_field("t").unwrap(), 1.5);
        assert_eq!(f.str_field("ev").unwrap(), "served");
        assert_eq!(f.raw("x"), None);
    }

    #[test]
    fn null_reads_as_none_only_where_optional() {
        let f = scan(r#"{"budget_w":null,"demand_w":3.0}"#).unwrap();
        assert_eq!(f.opt_f64_field("budget_w").unwrap(), None);
        assert_eq!(f.opt_f64_field("demand_w").unwrap(), Some(3.0));
        let (n, msg) = parse_err(f.f64_field("budget_w"));
        assert_eq!(n, 7);
        assert!(msg.contains("\"budget_w\""), "{msg}");
        assert!(f.opt_f64_field("cap_w").is_err(), "absent is not null");
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
            let line = format!(r#"{{"t":{bad},"budget_w":{bad}}}"#);
            let f = scan(&line).unwrap();
            let (n, msg) = parse_err(f.f64_field("t"));
            assert_eq!(n, 7);
            assert!(msg.contains("non-finite f64 field \"t\""), "{bad}: {msg}");
            assert!(f.opt_f64_field("budget_w").is_err(), "{bad}");
        }
        assert_eq!(
            scan(r#"{"t":1.7976931348623157e308}"#)
                .unwrap()
                .f64_field("t")
                .unwrap(),
            f64::MAX
        );
        // A NaN timestamp would otherwise slip through the time-order
        // check (every comparison with NaN is false).
        let s = minimal_stream().replace("\"t\":10.0,", "\"t\":NaN,");
        let (n, msg) = parse_err(audit_bytes(s.as_bytes()));
        assert_eq!(n, 2);
        assert!(msg.contains("non-finite"), "{msg}");
        let s = fleet_stream().replace("\"budget_w\":100.0", "\"budget_w\":inf");
        assert_eq!(parse_err(audit_fleet_bytes(s.as_bytes())).0, 1);
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
