//! Trace persistence.
//!
//! Three formats:
//!
//! * **CSV** — `time_s,sector,sectors,kind` per line, human-greppable and
//!   compatible with spreadsheet tooling; `kind` is `R` or `W`.
//! * **JSON lines** — one flat JSON object per [`VolumeRequest`] per line.
//! * **MSR-Cambridge block traces** — the SNIA-published
//!   `Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime` CSV
//!   schema (timestamps in Windows FILETIME ticks, offsets/sizes in
//!   bytes), ingested by the streaming [`MsrReader`].
//!
//! The native writers format times with [`simkit::text::push_f64`]
//! (shortest round-trip, the bytes of `{:?}`), so every field survives a
//! write/read cycle exactly; they build lines in one byte buffer and hand
//! it to the sink in 64 KiB pieces.
//!
//! All three readers share one line loop, [`simkit::text::LineReader`],
//! which the telemetry auditor also reads through: every line is read into
//! the same reused buffer, split into fields without collecting them, and
//! numbered from 1 (blank lines included), so no line allocates. A UTF-8
//! byte-order mark at the start of line 1 is skipped. Readers validate as
//! they parse and report the offending line number in errors, because
//! traces are exactly the kind of input users hand-edit.

use crate::request::{Trace, VolumeIoKind, VolumeRequest};
use simkit::text::{push_f64, push_u64, LineReader};
use simkit::SimTime;
use std::fmt;
use std::io::{BufReader, Read, Write};
use std::str::FromStr;

/// Errors raised by trace parsing.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line: `(line_number, description)`.
    Parse(usize, String),
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceIoError::Parse(line, msg) => write!(f, "trace parse error at line {line}: {msg}"),
        }
    }
}

impl std::error::Error for TraceIoError {}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// The CSV header line.
const CSV_HEADER: &str = "time_s,sector,sectors,kind";

/// Bytes a writer buffers before handing them to its sink.
const WRITE_CHUNK: usize = 1 << 16;

/// Writes the `header` line, if any, and then one line per request,
/// formatted by `line`.
fn write_lines<W: Write>(
    trace: &Trace,
    mut w: W,
    header: Option<&str>,
    line: impl Fn(&mut Vec<u8>, &VolumeRequest),
) -> Result<(), TraceIoError> {
    let mut buf = Vec::with_capacity(WRITE_CHUNK + 128);
    if let Some(h) = header {
        buf.extend_from_slice(h.as_bytes());
        buf.push(b'\n');
    }
    for r in &trace.requests {
        line(&mut buf, r);
        if buf.len() >= WRITE_CHUNK {
            w.write_all(&buf)?;
            buf.clear();
        }
    }
    w.write_all(&buf)?;
    Ok(())
}

fn kind_letter(kind: VolumeIoKind) -> u8 {
    match kind {
        VolumeIoKind::Read => b'R',
        VolumeIoKind::Write => b'W',
    }
}

/// Writes a trace as CSV (with a header line). Times use shortest
/// round-trip float formatting, so [`read_csv`] recovers every bit.
pub fn write_csv<W: Write>(trace: &Trace, w: W) -> Result<(), TraceIoError> {
    write_lines(trace, w, Some(CSV_HEADER), |out, r| {
        push_f64(out, r.time.as_secs());
        out.push(b',');
        push_u64(out, r.sector);
        out.push(b',');
        push_u64(out, r.sectors.into());
        out.push(b',');
        out.push(kind_letter(r.kind));
        out.push(b'\n');
    })
}

/// Calls `f` with the index of every comma byte in `bytes`, in order.
///
/// Eight bytes at a time: XOR with a word of commas zeroes exactly the
/// comma bytes, and the mask below sets the top bit of exactly the zero
/// bytes (no carry crosses a byte, so a neighbour is never marked).
fn for_each_comma(bytes: &[u8], mut f: impl FnMut(usize)) {
    const COMMAS: u64 = u64::from_ne_bytes([b','; 8]);
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    let mut words = bytes.chunks_exact(8);
    let mut base = 0;
    for word in &mut words {
        let x = u64::from_le_bytes(word.try_into().expect("an 8-byte chunk")) ^ COMMAS;
        let mut marks = !(((x & LOW7) + LOW7) | x | LOW7);
        while marks != 0 {
            f(base + marks.trailing_zeros() as usize / 8);
            marks &= marks - 1;
        }
        base += 8;
    }
    for (i, &b) in words.remainder().iter().enumerate() {
        if b == b',' {
            f(base + i);
        }
    }
}

/// Splits `line` at commas into exactly `N` fields, or returns how many
/// fields it has. A comma is one byte in UTF-8 and never part of another
/// character, so every field is a `str` slice.
fn split_fields<const N: usize>(line: &str) -> Result<[&str; N], usize> {
    let mut commas = [0; N];
    let mut n = 0;
    for_each_comma(line.as_bytes(), |at| {
        if let Some(slot) = commas.get_mut(n) {
            *slot = at;
        }
        n += 1;
    });
    if n + 1 != N {
        return Err(n + 1);
    }
    let mut fields = [""; N];
    let mut start = 0;
    for (field, &end) in fields.iter_mut().zip(&commas[..N - 1]) {
        *field = &line[start..end];
        start = end + 1;
    }
    fields[N - 1] = &line[start..];
    Ok(fields)
}

/// Parses a trimmed field, or reports `what: <the parse error>` at
/// `lineno`.
fn parse_field<T: FromStr>(raw: &str, lineno: usize, what: &str) -> Result<T, TraceIoError>
where
    T::Err: fmt::Display,
{
    raw.trim()
        .parse()
        .map_err(|e| TraceIoError::Parse(lineno, format!("{what}: {e}")))
}

/// Parses an unsigned field as [`parse_field`] does. A field of 1 to 19
/// ASCII digits (which cannot overflow `u64`) is read directly; anything
/// else — padding, a sign, more digits, other bytes — goes through
/// [`parse_field`], so its value or error is unchanged.
fn parse_u64_field(raw: &str, lineno: usize, what: &str) -> Result<u64, TraceIoError> {
    let digits = raw.as_bytes();
    if (1..=19).contains(&digits.len()) {
        let mut v = 0u64;
        for &b in digits {
            let d = b.wrapping_sub(b'0');
            if d > 9 {
                return parse_field(raw, lineno, what);
            }
            v = v * 10 + u64::from(d);
        }
        return Ok(v);
    }
    parse_field(raw, lineno, what)
}

/// Runs every line through `parse`, which returns `None` for a line that
/// holds no request, and sorts the requests by time.
fn read_requests<R: Read>(
    r: R,
    mut parse: impl FnMut(usize, &str) -> Result<Option<VolumeRequest>, TraceIoError>,
) -> Result<Trace, TraceIoError> {
    let mut lines = LineReader::new(BufReader::new(r));
    let mut requests = Vec::new();
    while let Some((lineno, line)) = lines.next_line()? {
        requests.extend(parse(lineno, line)?);
    }
    Ok(Trace::from_requests(requests))
}

/// Reads a CSV trace (header line required), sorting the result by time.
pub fn read_csv<R: Read>(r: R) -> Result<Trace, TraceIoError> {
    read_requests(r, |lineno, line| {
        let bad = |msg: String| TraceIoError::Parse(lineno, msg);
        if lineno == 1 {
            if line.trim() != CSV_HEADER {
                return Err(bad("missing/invalid header".into()));
            }
            return Ok(None);
        }
        if line.trim().is_empty() {
            return Ok(None);
        }
        let [time, sector, sectors, kind] =
            split_fields(line).map_err(|n| bad(format!("expected 4 fields, got {n}")))?;
        let time: f64 = parse_field(time, lineno, "bad time")?;
        if !time.is_finite() || time < 0.0 {
            return Err(bad(format!("bad time {time}")));
        }
        let sector: u64 = parse_field(sector, lineno, "bad sector")?;
        let sectors: u32 = parse_field(sectors, lineno, "bad length")?;
        if sectors == 0 {
            return Err(bad("zero-length request".into()));
        }
        let kind = match kind.trim() {
            "R" | "r" => VolumeIoKind::Read,
            "W" | "w" => VolumeIoKind::Write,
            other => return Err(bad(format!("bad kind {other:?} (want R or W)"))),
        };
        Ok(Some(VolumeRequest {
            time: SimTime::from_secs(time),
            sector,
            sectors,
            kind,
        }))
    })
}

/// Writes a trace as JSON lines.
///
/// Each line is a flat object:
/// `{"time_s":1.25,"sector":4096,"sectors":16,"kind":"R"}`. The time is
/// emitted with shortest-round-trip float formatting, so every field
/// survives a write/read cycle exactly.
pub fn write_jsonl<W: Write>(trace: &Trace, w: W) -> Result<(), TraceIoError> {
    write_lines(trace, w, None, |out, r| {
        out.extend_from_slice(br#"{"time_s":"#);
        push_f64(out, r.time.as_secs());
        out.extend_from_slice(br#","sector":"#);
        push_u64(out, r.sector);
        out.extend_from_slice(br#","sectors":"#);
        push_u64(out, r.sectors.into());
        out.extend_from_slice(br#","kind":""#);
        out.push(kind_letter(r.kind));
        out.extend_from_slice(b"\"}\n");
    })
}

/// Pulls the raw text after `needle` (a quoted key and its colon, e.g.
/// `"sector":`) out of a flat one-line JSON object. The format is the
/// fixed four-field schema `write_jsonl` emits — values are numbers or the
/// single-letter strings `"R"`/`"W"`, so a purpose-built scanner (find the
/// needle, read to the next `,` or `}`) is exact.
fn json_field<'a>(line: &'a str, needle: &str) -> Option<&'a str> {
    let start = line.find(needle)? + needle.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Reads a JSON-lines trace, sorting the result by time.
pub fn read_jsonl<R: Read>(r: R) -> Result<Trace, TraceIoError> {
    read_requests(r, |lineno, line| {
        let bad = |msg: String| TraceIoError::Parse(lineno, msg);
        if line.trim().is_empty() {
            return Ok(None);
        }
        let field = |needle: &str| {
            json_field(line, needle).ok_or_else(|| {
                let key = &needle[1..needle.len() - 2];
                bad(format!("bad JSON: missing {key:?}"))
            })
        };
        let time: f64 = parse_field(field(r#""time_s":"#)?, lineno, "bad JSON time")?;
        if !time.is_finite() || time < 0.0 {
            return Err(bad(format!("bad time {time}")));
        }
        let sector: u64 = parse_field(field(r#""sector":"#)?, lineno, "bad JSON sector")?;
        let sectors: u32 = parse_field(field(r#""sectors":"#)?, lineno, "bad JSON length")?;
        if sectors == 0 {
            return Err(bad("zero-length request".into()));
        }
        let kind = match field(r#""kind":"#)? {
            "\"R\"" => VolumeIoKind::Read,
            "\"W\"" => VolumeIoKind::Write,
            other => return Err(bad(format!("bad JSON kind {other} (want \"R\" or \"W\")"))),
        };
        Ok(Some(VolumeRequest {
            time: SimTime::from_secs(time),
            sector,
            sectors,
            kind,
        }))
    })
}

/// Seconds per Windows FILETIME tick (100 ns).
const FILETIME_TICK_S: f64 = 1e-7;

/// Bytes per volume sector.
const SECTOR_BYTES: u64 = 512;

/// Streaming reader for MSR-Cambridge/SNIA-style block traces:
/// `Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime` per
/// line, where `Timestamp` is in Windows FILETIME ticks (100 ns since
/// 1601), `Type` is `Read`/`Write` (case-insensitive), and
/// `Offset`/`Size` are bytes. An optional `Timestamp,...` header line is
/// skipped.
///
/// The reader is an iterator of validated [`VolumeRequest`]s — one line
/// resident at a time, suitable for arbitrarily large trace files:
///
/// * times are made relative to the **first** record (clamped at zero
///   for records time-stamped before it, which real captures contain);
/// * a byte range converts to every 512-byte sector it touches, a
///   partial first and last sector included (a range past `u64::MAX`
///   is an error);
/// * `Hostname`, `DiskNumber` and `ResponseTime` are ignored.
///
/// Errors carry the 1-based line number and fuse the iterator. MSR
/// captures are not globally time-sorted, so the collecting
/// [`read_msr_csv`] orders the records ([`Trace::from_requests`] moves
/// only the late ones); a raw `MsrReader` is **not** a `TraceSource`.
pub struct MsrReader<R: Read> {
    lines: LineReader<BufReader<R>>,
    first_ticks: Option<u64>,
    done: bool,
}

impl<R: Read> MsrReader<R> {
    /// Wraps a byte stream of MSR-format CSV.
    pub fn new(r: R) -> Self {
        MsrReader {
            lines: LineReader::new(BufReader::new(r)),
            first_ticks: None,
            done: false,
        }
    }

    fn next_record(&mut self) -> Result<Option<VolumeRequest>, TraceIoError> {
        while let Some((lineno, line)) = self.lines.next_line()? {
            let line = line.trim();
            if line.is_empty() || (lineno == 1 && line.starts_with("Timestamp,")) {
                continue; // blank, or the optional header
            }
            return parse_msr_line(line, lineno, &mut self.first_ticks).map(Some);
        }
        Ok(None)
    }
}

/// Parses one trimmed MSR record; `first_ticks` anchors relative time at
/// the first record parsed.
fn parse_msr_line(
    line: &str,
    lineno: usize,
    first_ticks: &mut Option<u64>,
) -> Result<VolumeRequest, TraceIoError> {
    let bad = |msg: String| TraceIoError::Parse(lineno, msg);
    let [ticks, _host, _disk, kind, offset, size, _response] = split_fields(line).map_err(|n| {
        bad(format!(
            "expected 7 MSR fields (Timestamp,Hostname,DiskNumber,Type,\
                 Offset,Size,ResponseTime), got {n}"
        ))
    })?;
    let ticks = parse_u64_field(ticks, lineno, "bad timestamp")?;
    let kind = match kind.trim() {
        t if t.eq_ignore_ascii_case("Read") => VolumeIoKind::Read,
        t if t.eq_ignore_ascii_case("Write") => VolumeIoKind::Write,
        other => return Err(bad(format!("bad type {other:?} (want Read or Write)"))),
    };
    let offset = parse_u64_field(offset, lineno, "bad offset")?;
    let size = parse_u64_field(size, lineno, "bad size")?;
    if size == 0 {
        return Err(bad("zero-length request".into()));
    }
    // Every sector the byte range touches, including a partial first one.
    let end = offset.checked_add(size).ok_or_else(|| {
        bad(format!(
            "request of {size} bytes at offset {offset} overflows"
        ))
    })?;
    let sector = offset / SECTOR_BYTES;
    let sectors: u32 = (end.div_ceil(SECTOR_BYTES) - sector)
        .try_into()
        .map_err(|_| bad(format!("request of {size} bytes too large")))?;
    let first = *first_ticks.get_or_insert(ticks);
    let rel_s = ticks.saturating_sub(first) as f64 * FILETIME_TICK_S;
    Ok(VolumeRequest {
        time: SimTime::from_secs(rel_s),
        sector,
        sectors,
        kind,
    })
}

impl<R: Read> Iterator for MsrReader<R> {
    type Item = Result<VolumeRequest, TraceIoError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let item = self.next_record().transpose();
        self.done = matches!(item, Some(Err(_)));
        item
    }
}

/// Reads an entire MSR-format trace (see [`MsrReader`]), sorting the
/// result by time.
pub fn read_msr_csv<R: Read>(r: R) -> Result<Trace, TraceIoError> {
    let requests: Vec<VolumeRequest> = MsrReader::new(r).collect::<Result<_, _>>()?;
    Ok(Trace::from_requests(requests))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::WorkloadSpec;
    use std::io::BufRead;

    fn sample() -> Trace {
        WorkloadSpec::oltp(30.0, 20.0).generate(5)
    }

    #[test]
    fn csv_roundtrip_is_exact() {
        let tr = sample();
        let mut buf = Vec::new();
        write_csv(&tr, &mut buf).unwrap();
        let back = read_csv(buf.as_slice()).unwrap();
        assert_eq!(
            back.requests, tr.requests,
            "CSV must round-trip bit-exactly"
        );
    }

    /// Multi-seed round-trip sweep: generated traces survive CSV and
    /// JSONL write/read cycles bit-exactly, and the two formats agree
    /// with each other (CSV → JSONL → CSV reproduces the bytes).
    #[test]
    fn roundtrip_property_csv_and_jsonl_agree() {
        for seed in 0..20 {
            let tr = WorkloadSpec::oltp(10.0 + seed as f64, 15.0).generate(seed);
            let mut csv = Vec::new();
            write_csv(&tr, &mut csv).unwrap();
            let from_csv = read_csv(csv.as_slice()).unwrap();
            assert_eq!(from_csv.requests, tr.requests, "seed {seed} csv");

            let mut jsonl = Vec::new();
            write_jsonl(&tr, &mut jsonl).unwrap();
            let from_jsonl = read_jsonl(jsonl.as_slice()).unwrap();
            assert_eq!(from_jsonl.requests, tr.requests, "seed {seed} jsonl");

            let mut csv_again = Vec::new();
            write_csv(&from_jsonl, &mut csv_again).unwrap();
            assert_eq!(csv_again, csv, "seed {seed} csv→jsonl→csv bytes");
        }
    }

    #[test]
    fn roundtrip_survives_awkward_floats() {
        // Times that fixed-precision formatting would corrupt: a float
        // artifact (0.1 + 0.2), a subnormal-ish tiny value, and a time
        // needing all 17 significant digits.
        let tr = Trace::from_requests(vec![
            VolumeRequest {
                time: SimTime::from_secs(0.1 + 0.2),
                sector: 0,
                sectors: 8,
                kind: VolumeIoKind::Read,
            },
            VolumeRequest {
                time: SimTime::from_secs(1e-15),
                sector: 7,
                sectors: 1,
                kind: VolumeIoKind::Write,
            },
            VolumeRequest {
                time: SimTime::from_secs(86_399.999_999_999_99),
                sector: u64::MAX / 512,
                sectors: u32::MAX,
                kind: VolumeIoKind::Read,
            },
        ]);
        let mut csv = Vec::new();
        write_csv(&tr, &mut csv).unwrap();
        assert_eq!(read_csv(csv.as_slice()).unwrap().requests, tr.requests);
        let mut jsonl = Vec::new();
        write_jsonl(&tr, &mut jsonl).unwrap();
        assert_eq!(read_jsonl(jsonl.as_slice()).unwrap().requests, tr.requests);
    }

    /// Every malformed input reports the exact offending line.
    #[test]
    fn malformed_csv_corpus_reports_correct_line_numbers() {
        let corpus: &[(&str, usize, &str)] = &[
            ("bogus header\n1.0,2,3,R\n", 1, "header"),
            ("time_s,sector,sectors,kind\nx,2,3,R\n", 2, "bad time"),
            ("time_s,sector,sectors,kind\nnan,2,3,R\n", 2, "bad time"),
            ("time_s,sector,sectors,kind\ninf,2,3,R\n", 2, "bad time"),
            ("time_s,sector,sectors,kind\n-1.0,2,3,R\n", 2, "bad time"),
            ("time_s,sector,sectors,kind\n1.0,-2,3,R\n", 2, "bad sector"),
            ("time_s,sector,sectors,kind\n1.0,2,0,R\n", 2, "zero-length"),
            ("time_s,sector,sectors,kind\n1.0,2,3\n", 2, "4 fields"),
            (
                "time_s,sector,sectors,kind\n1.0,2,3,R\n2.0,4,5,Q\n",
                3,
                "bad kind",
            ),
            (
                "time_s,sector,sectors,kind\n1.0,2,3,R\n\n2.0,4,5,R,extra\n",
                4,
                "4 fields",
            ),
        ];
        for (data, want_line, want_msg) in corpus {
            match read_csv(data.as_bytes()) {
                Err(TraceIoError::Parse(line, msg)) => {
                    assert_eq!(line, *want_line, "input {data:?} reported line {line}");
                    assert!(
                        msg.contains(want_msg),
                        "input {data:?}: message {msg:?} lacks {want_msg:?}"
                    );
                }
                other => panic!("input {data:?}: expected parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_jsonl_corpus_reports_correct_line_numbers() {
        let good = "{\"time_s\":1.0,\"sector\":2,\"sectors\":8,\"kind\":\"R\"}";
        let corpus: &[(String, usize, &str)] = &[
            (format!("{good}\nnot-json\n"), 2, "missing"),
            (
                format!("{good}\n{{\"time_s\":-1.0,\"sector\":2,\"sectors\":8,\"kind\":\"R\"}}\n"),
                2,
                "bad time",
            ),
            (
                format!("{good}\n\n{{\"time_s\":1.0,\"sector\":2,\"sectors\":0,\"kind\":\"R\"}}\n"),
                3,
                "zero-length",
            ),
            (
                "{\"time_s\":1.0,\"sector\":2,\"sectors\":8,\"kind\":\"Z\"}\n".to_string(),
                1,
                "kind",
            ),
        ];
        for (data, want_line, want_msg) in corpus {
            match read_jsonl(data.as_bytes()) {
                Err(TraceIoError::Parse(line, msg)) => {
                    assert_eq!(line, *want_line, "input {data:?} reported line {line}");
                    assert!(
                        msg.contains(want_msg),
                        "input {data:?}: message {msg:?} lacks {want_msg:?}"
                    );
                }
                other => panic!("input {data:?}: expected parse error, got {other:?}"),
            }
        }
    }

    const MSR_BASE: u64 = 128_166_372_000_000_000;

    fn msr_line(tick_off: u64, kind: &str, offset: u64, size: u64) -> String {
        format!(
            "{},src1,0,{kind},{offset},{size},421\n",
            MSR_BASE + tick_off
        )
    }

    #[test]
    fn msr_reader_converts_ticks_offsets_and_sizes() {
        let data = format!(
            "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n{}{}{}",
            msr_line(0, "Read", 1_310_720, 4_096),
            msr_line(5_000_000, "write", 512, 100), // 0.5 s later, ragged size
            msr_line(10_000_000, "READ", 0, 512),
        );
        let tr = read_msr_csv(data.as_bytes()).unwrap();
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.requests[0].time.as_secs(), 0.0);
        assert_eq!(tr.requests[0].sector, 2_560);
        assert_eq!(tr.requests[0].sectors, 8);
        assert_eq!(tr.requests[0].kind, VolumeIoKind::Read);
        assert_eq!(tr.requests[1].time.as_secs(), 0.5);
        assert_eq!(tr.requests[1].sector, 1);
        assert_eq!(tr.requests[1].sectors, 1, "sizes round up to a sector");
        assert_eq!(tr.requests[1].kind, VolumeIoKind::Write);
        assert_eq!(tr.requests[2].time.as_secs(), 1.0);
        assert_eq!(tr.requests[2].sector, 0);
    }

    #[test]
    fn msr_reader_counts_every_sector_a_misaligned_request_touches() {
        let data = [
            msr_line(0, "Read", 1_000, 512),  // bytes 1000..1512: sectors 1, 2
            msr_line(1, "Read", 511, 2),      // bytes 511..513: sectors 0, 1
            msr_line(2, "Write", 1_024, 100), // aligned start, ragged size
            msr_line(3, "Read", 513, 1_023),  // bytes 513..1536: sectors 1, 2
            msr_line(4, "Read", 0, 4_096),    // aligned: 8 sectors
        ]
        .concat();
        let got: Vec<(u64, u32)> = read_msr_csv(data.as_bytes())
            .unwrap()
            .requests
            .iter()
            .map(|r| (r.sector, r.sectors))
            .collect();
        assert_eq!(got, vec![(1, 2), (0, 2), (2, 1), (1, 2), (0, 8)]);

        // A byte range past the end of u64 is a typed error on its line.
        let max = u64::MAX;
        let data = [
            msr_line(0, "Read", 0, 512),
            msr_line(1, "Read", max - 100, 512),
        ]
        .concat();
        match read_msr_csv(data.as_bytes()) {
            Err(TraceIoError::Parse(2, msg)) => assert!(msg.contains("overflows"), "{msg}"),
            other => panic!("want a parse error on line 2, got {other:?}"),
        }
        let data = msr_line(0, "Write", max, 1);
        assert!(matches!(
            read_msr_csv(data.as_bytes()),
            Err(TraceIoError::Parse(1, _))
        ));
        // The last byte of the address space still reads.
        let got = read_msr_csv(msr_line(0, "Read", max - 1, 1).as_bytes()).unwrap();
        assert_eq!(got.requests[0].sector, (max - 1) / 512);
        assert_eq!(got.requests[0].sectors, 1);
    }

    #[test]
    fn msr_reader_is_streaming_and_headerless_tolerant() {
        // No header; records before the first time-stamp clamp to zero;
        // the collect sorts.
        let data = [
            msr_line(20_000_000, "Read", 1_024, 512),
            // 1 s *before* the first record: relative time clamps to 0.
            format!("{},src1,0,Write,2048,512,9\n", MSR_BASE + 10_000_000),
            msr_line(30_000_000, "Read", 4_096, 512),
        ]
        .concat();
        let mut reader = MsrReader::new(data.as_bytes());
        let first = reader.next().unwrap().unwrap();
        assert_eq!(first.time.as_secs(), 0.0);
        let second = reader.next().unwrap().unwrap();
        assert_eq!(second.time.as_secs(), 0.0, "earlier records clamp to zero");
        assert_eq!(second.kind, VolumeIoKind::Write);
        let third = reader.next().unwrap().unwrap();
        assert_eq!(third.time.as_secs(), 1.0);
        assert!(reader.next().is_none());
        let tr = read_msr_csv(data.as_bytes()).unwrap();
        assert!(tr.is_sorted());
    }

    #[test]
    fn malformed_msr_corpus_reports_correct_line_numbers() {
        let header = "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n";
        let good = msr_line(0, "Read", 512, 512);
        let corpus: &[(String, usize, &str)] = &[
            (
                format!("{header}abc,h,0,Read,0,512,1\n"),
                2,
                "bad timestamp",
            ),
            (
                format!("{header}{good}1,h,0,Erase,0,512,1\n"),
                3,
                "bad type",
            ),
            (format!("{good}1,h,0,Read,0,0,1\n"), 2, "zero-length"),
            (format!("{header}{good}1,h,0,Read,0\n"), 3, "7 MSR fields"),
            (
                format!("{header}{good}1,h,0,Read,-4096,512,1\n"),
                3,
                "bad offset",
            ),
        ];
        for (data, want_line, want_msg) in corpus {
            match read_msr_csv(data.as_bytes()) {
                Err(TraceIoError::Parse(line, msg)) => {
                    assert_eq!(line, *want_line, "input {data:?} reported line {line}");
                    assert!(
                        msg.contains(want_msg),
                        "input {data:?}: message {msg:?} lacks {want_msg:?}"
                    );
                }
                other => panic!("input {data:?}: expected parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn msr_reader_fuses_after_error() {
        let data = format!(
            "{}boom\n{}",
            msr_line(0, "Read", 512, 512),
            msr_line(1, "Read", 512, 512)
        );
        let mut reader = MsrReader::new(data.as_bytes());
        assert!(reader.next().unwrap().is_ok());
        assert!(reader.next().unwrap().is_err());
        assert!(reader.next().is_none(), "errors fuse the iterator");
    }

    #[test]
    fn jsonl_roundtrip_is_exact() {
        let tr = sample();
        let mut buf = Vec::new();
        write_jsonl(&tr, &mut buf).unwrap();
        let back = read_jsonl(buf.as_slice()).unwrap();
        assert_eq!(back.requests, tr.requests);
    }

    #[test]
    fn csv_rejects_missing_header() {
        let err = read_csv("1.0,2,3,R\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceIoError::Parse(1, _)), "{err}");
    }

    #[test]
    fn csv_rejects_bad_kind() {
        let data = "time_s,sector,sectors,kind\n1.0,2,3,X\n";
        let err = read_csv(data.as_bytes()).unwrap_err();
        match err {
            TraceIoError::Parse(2, msg) => assert!(msg.contains("bad kind"), "{msg}"),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn csv_rejects_zero_length() {
        let data = "time_s,sector,sectors,kind\n1.0,2,0,R\n";
        assert!(read_csv(data.as_bytes()).is_err());
    }

    #[test]
    fn csv_rejects_negative_time() {
        let data = "time_s,sector,sectors,kind\n-5.0,2,8,R\n";
        assert!(read_csv(data.as_bytes()).is_err());
    }

    #[test]
    fn csv_skips_blank_lines_and_sorts() {
        let data = "time_s,sector,sectors,kind\n2.0,10,8,W\n\n1.0,20,8,R\n";
        let tr = read_csv(data.as_bytes()).unwrap();
        assert_eq!(tr.len(), 2);
        assert!(tr.is_sorted());
        assert_eq!(tr.requests[0].sector, 20);
    }

    #[test]
    fn jsonl_reports_line_numbers() {
        let mut buf = Vec::new();
        write_jsonl(&sample(), &mut buf).unwrap();
        let good = String::from_utf8(buf).unwrap();
        let good_first = good.lines().next().unwrap();
        let data = format!("{good_first}\nnot-json\n");
        let err = read_jsonl(data.as_bytes()).unwrap_err();
        assert!(matches!(err, TraceIoError::Parse(2, _)), "{err}");
    }

    #[test]
    fn jsonl_rejects_bad_kind() {
        let data = "{\"time_s\":1.0,\"sector\":2,\"sectors\":8,\"kind\":\"X\"}\n";
        let err = read_jsonl(data.as_bytes()).unwrap_err();
        match err {
            TraceIoError::Parse(1, msg) => assert!(msg.contains("kind"), "{msg}"),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn writers_emit_pinned_bytes() {
        let tr = Trace::from_requests(vec![
            VolumeRequest {
                time: SimTime::from_secs(0.0),
                sector: 0,
                sectors: 8,
                kind: VolumeIoKind::Read,
            },
            VolumeRequest {
                time: SimTime::from_secs(0.1 + 0.2),
                sector: 4_096,
                sectors: 16,
                kind: VolumeIoKind::Write,
            },
            VolumeRequest {
                time: SimTime::from_secs(2e-5),
                sector: u64::MAX,
                sectors: u32::MAX,
                kind: VolumeIoKind::Read,
            },
        ]);
        let mut csv = Vec::new();
        write_csv(&tr, &mut csv).unwrap();
        assert_eq!(
            String::from_utf8(csv).unwrap(),
            "time_s,sector,sectors,kind\n\
             0.0,0,8,R\n\
             2e-5,18446744073709551615,4294967295,R\n\
             0.30000000000000004,4096,16,W\n"
        );
        let mut jsonl = Vec::new();
        write_jsonl(&tr, &mut jsonl).unwrap();
        assert_eq!(
            String::from_utf8(jsonl).unwrap(),
            "{\"time_s\":0.0,\"sector\":0,\"sectors\":8,\"kind\":\"R\"}\n\
             {\"time_s\":2e-5,\"sector\":18446744073709551615,\"sectors\":4294967295,\"kind\":\"R\"}\n\
             {\"time_s\":0.30000000000000004,\"sector\":4096,\"sectors\":16,\"kind\":\"W\"}\n"
        );
    }

    const BOM: &str = "\u{feff}";

    #[test]
    fn csv_skips_a_leading_bom() {
        let data = format!("{BOM}time_s,sector,sectors,kind\n1.0,2,3,R\n");
        let tr = read_csv(data.as_bytes()).unwrap();
        assert_eq!(tr.len(), 1);
        assert_eq!(tr.requests[0].sector, 2);
        // Only line 1's mark is skipped: one mid-file is malformed input.
        let data = format!("time_s,sector,sectors,kind\n{BOM}1.0,2,3,R\n");
        let err = read_csv(data.as_bytes()).unwrap_err();
        assert!(matches!(err, TraceIoError::Parse(2, _)), "{err}");
    }

    #[test]
    fn jsonl_skips_a_leading_bom() {
        let data = format!("{BOM}{{\"time_s\":1.0,\"sector\":2,\"sectors\":8,\"kind\":\"R\"}}\n");
        let tr = read_jsonl(data.as_bytes()).unwrap();
        assert_eq!(tr.len(), 1);
        assert_eq!(tr.requests[0].sectors, 8);
    }

    #[test]
    fn msr_skips_a_leading_bom_with_or_without_header() {
        let header = "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n";
        let body = [
            msr_line(0, "Read", 512, 512),
            msr_line(5_000_000, "Write", 1_024, 4_096),
        ]
        .concat();
        let want = read_msr_csv(body.as_bytes()).unwrap().requests;
        for data in [format!("{BOM}{header}{body}"), format!("{BOM}{body}")] {
            let got = read_msr_csv(data.as_bytes()).unwrap().requests;
            assert_eq!(got, want, "input {data:?}");
        }
    }

    /// The `BufRead::lines` MSR reader this module used to ship (a `String`
    /// and a `Vec<&str>` per line), kept only as the oracle for the
    /// reused-buffer reader.
    struct OracleMsrReader<R: Read> {
        lines: std::io::Lines<BufReader<R>>,
        lineno: usize,
        first_ticks: Option<u64>,
        done: bool,
    }

    impl<R: Read> OracleMsrReader<R> {
        fn new(r: R) -> Self {
            OracleMsrReader {
                lines: BufReader::new(r).lines(),
                lineno: 0,
                first_ticks: None,
                done: false,
            }
        }

        fn parse_line(&mut self, line: &str) -> Result<VolumeRequest, TraceIoError> {
            let lineno = self.lineno;
            let bad = |msg: String| TraceIoError::Parse(lineno, msg);
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != 7 {
                return Err(bad(format!(
                    "expected 7 MSR fields (Timestamp,Hostname,DiskNumber,Type,\
                     Offset,Size,ResponseTime), got {}",
                    fields.len()
                )));
            }
            let ticks: u64 = fields[0]
                .trim()
                .parse()
                .map_err(|e| bad(format!("bad timestamp: {e}")))?;
            let kind = match fields[3].trim() {
                t if t.eq_ignore_ascii_case("Read") => VolumeIoKind::Read,
                t if t.eq_ignore_ascii_case("Write") => VolumeIoKind::Write,
                other => return Err(bad(format!("bad type {other:?} (want Read or Write)"))),
            };
            let offset: u64 = fields[4]
                .trim()
                .parse()
                .map_err(|e| bad(format!("bad offset: {e}")))?;
            let size: u64 = fields[5]
                .trim()
                .parse()
                .map_err(|e| bad(format!("bad size: {e}")))?;
            if size == 0 {
                return Err(bad("zero-length request".into()));
            }
            let end = offset.checked_add(size).ok_or_else(|| {
                bad(format!(
                    "request of {size} bytes at offset {offset} overflows"
                ))
            })?;
            let sectors = end.div_ceil(SECTOR_BYTES) - offset / SECTOR_BYTES;
            let sectors: u32 = sectors
                .try_into()
                .map_err(|_| bad(format!("request of {size} bytes too large")))?;
            let first = *self.first_ticks.get_or_insert(ticks);
            let rel_s = ticks.saturating_sub(first) as f64 * FILETIME_TICK_S;
            Ok(VolumeRequest {
                time: SimTime::from_secs(rel_s),
                sector: offset / SECTOR_BYTES,
                sectors,
                kind,
            })
        }
    }

    impl<R: Read> Iterator for OracleMsrReader<R> {
        type Item = Result<VolumeRequest, TraceIoError>;

        fn next(&mut self) -> Option<Self::Item> {
            if self.done {
                return None;
            }
            loop {
                let line = match self.lines.next()? {
                    Ok(l) => l,
                    Err(e) => {
                        self.done = true;
                        return Some(Err(TraceIoError::Io(e)));
                    }
                };
                self.lineno += 1;
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue;
                }
                if self.lineno == 1 && trimmed.starts_with("Timestamp,") {
                    continue;
                }
                let parsed = self.parse_line(trimmed);
                if parsed.is_err() {
                    self.done = true;
                }
                return Some(parsed);
            }
        }
    }

    /// Whitespace `str::trim` strips, including what `trim_ascii` keeps
    /// (vertical tab, NBSP, U+3000) and what it also strips (form feed).
    const PADS: [&str; 6] = [" ", "\t", "\u{b}", "\u{c}", "\u{a0}", "\u{3000}"];

    fn pad(rng: &mut simkit::DetRng) -> &'static str {
        PADS[rng.below(PADS.len() as u64) as usize]
    }

    /// A numeric MSR field for `v`, often in an awkward but legal spelling
    /// (`+` sign, leading zeros up to 20 digits, padding, the 19- and
    /// 20-digit extremes) or an illegal one (20 digits past `u64::MAX`, a
    /// minus sign, an exponent, a sign after padding).
    fn awkward_number(rng: &mut simkit::DetRng, v: u64) -> String {
        match rng.below(20) {
            0 => (u128::from(u64::MAX) + 1 + u128::from(rng.below(1_000))).to_string(),
            1 => format!("+{v}"),
            2 => format!("000{v}"),
            3 => format!("  {v}\t"),
            4 => format!("-{v}"),
            5 => "1e5".into(),
            6 => format!("{}{v}{}", pad(rng), pad(rng)),
            7 => format!("{v:020}"),
            8 => ["9999999999999999999", "18446744073709551615", "0"][rng.below(3) as usize].into(),
            9 => format!("{}+{v}", pad(rng)),
            _ => v.to_string(),
        }
    }

    /// An MSR `Type` field: either case of either word, mixed case,
    /// padding, or an illegal word.
    fn awkward_kind(rng: &mut simkit::DetRng) -> String {
        let word = [
            "Read", "Write", "read", "WRITE", "rEaD", "wRiTe", "Erase", "",
        ][rng.below(8) as usize];
        if rng.chance(0.2) {
            format!("{}{word}{}", pad(rng), pad(rng))
        } else {
            word.into()
        }
    }

    /// One seeded MSR file: CRLF and LF endings, blank and padded lines
    /// (with every whitespace in [`PADS`]), awkward numbers and types,
    /// wrong field counts, stray non-ASCII and non-UTF-8 bytes, and a
    /// header on line 1 or (illegally) line 2. No byte-order marks.
    fn msr_corpus_file(rng: &mut simkit::DetRng) -> Vec<u8> {
        let header = "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime";
        let lines = rng.below(10) + 1;
        let header_at = rng.below(4) + 1;
        let mut out = Vec::new();
        for i in 1..=lines {
            let mut line = if i == header_at {
                header.to_string()
            } else if rng.chance(0.1) {
                ["", " ", "\t "][rng.below(3) as usize].to_string()
            } else {
                let size = match rng.below(8) {
                    0 => 0,
                    1 => 1 << 42,
                    _ => rng.below(1 << 20) + 1,
                };
                let ticks = MSR_BASE + rng.below(100_000_000);
                let offset = rng.below(1 << 40);
                let response = rng.below(100_000);
                let mut fields = vec![
                    awkward_number(rng, ticks),
                    "src1".into(),
                    "0".into(),
                    awkward_kind(rng),
                    awkward_number(rng, offset),
                    awkward_number(rng, size),
                    awkward_number(rng, response),
                ];
                match rng.below(20) {
                    0 => drop(fields.pop()),
                    1 => fields.push("extra".into()),
                    _ => {}
                }
                fields.join(",")
            };
            if rng.chance(0.03) {
                // A non-ASCII character (a full-width digit among them),
                // valid UTF-8, at a character boundary.
                let cuts: Vec<usize> = line
                    .char_indices()
                    .map(|(i, _)| i)
                    .chain([line.len()])
                    .collect();
                let at = cuts[rng.below(cuts.len() as u64) as usize];
                line.insert_str(at, ["é", "\u{ff13}"][rng.below(2) as usize]);
            }
            if rng.chance(0.2) {
                line = format!("{}{line}{}", pad(rng), pad(rng));
            }
            out.extend_from_slice(line.as_bytes());
            if rng.chance(0.03) {
                let at = out.len() - rng.below(line.len() as u64 + 1) as usize;
                out.insert(at, [0xff, 0xc3, 0x80][rng.below(3) as usize]);
            }
            if i < lines || rng.chance(0.7) {
                out.extend_from_slice(if rng.chance(0.5) { b"\r\n" } else { b"\n" });
            }
        }
        out
    }

    /// A reader's whole output, with errors reduced to kind, line and
    /// message.
    fn msr_outcome(
        records: impl Iterator<Item = Result<VolumeRequest, TraceIoError>>,
    ) -> Vec<Result<VolumeRequest, String>> {
        records
            .map(|r| {
                r.map_err(|e| match e {
                    TraceIoError::Io(e) => format!("io {:?}: {e}", e.kind()),
                    TraceIoError::Parse(line, msg) => format!("parse {line}: {msg}"),
                })
            })
            .collect()
    }

    #[test]
    fn split_fields_matches_str_split() {
        let mut rng = simkit::DetRng::new(30, "split-fields");
        let alphabet = [",", ",", "-", "7", " ", "é", "\u{3000}", ",-"];
        for len in 0..40 {
            for _ in 0..200 {
                let line: String = (0..len)
                    .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize])
                    .collect();
                let want: Vec<&str> = line.split(',').collect();
                let got = match want.len() {
                    4 => split_fields::<4>(&line).map(|f| f.to_vec()),
                    7 => split_fields::<7>(&line).map(|f| f.to_vec()),
                    _ => Err(split_fields::<7>(&line).unwrap_err()),
                };
                match got {
                    Ok(fields) => assert_eq!(fields, want, "{line:?}"),
                    Err(n) => assert_eq!(n, want.len(), "{line:?}"),
                }
            }
        }
    }

    #[test]
    fn digit_fast_path_matches_parse_field() {
        let outcome = |r: Result<u64, TraceIoError>| r.map_err(|e| e.to_string());
        let mut raws: Vec<String> = [
            "",
            " ",
            "+",
            "-",
            "-0",
            "0",
            "+0",
            "+7",
            "007",
            "1 2",
            "1e5",
            "1_000",
            "0x10",
            "９",
            "7é",
            "9999999999999999999",
            "18446744073709551615",
            "18446744073709551616",
            "00000000000000000007",
            "99999999999999999999",
            "000000000000000000000000001",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        for p in PADS {
            raws.push(format!("{p}42"));
            raws.push(format!("42{p}"));
            raws.push(format!("{p}+42{p}"));
        }
        for raw in &raws {
            assert_eq!(
                outcome(parse_u64_field(raw, 3, "bad offset")),
                outcome(parse_field::<u64>(raw, 3, "bad offset")),
                "field {raw:?}"
            );
        }
    }

    #[test]
    fn msr_reader_matches_the_lines_oracle_on_a_seeded_corpus() {
        let mut rng = simkit::DetRng::new(25, "msr-differential");
        let (mut oks, mut parse_errs, mut io_errs) = (0, 0, 0);
        for case in 0..4_000 {
            let file = msr_corpus_file(&mut rng);
            let want = msr_outcome(OracleMsrReader::new(file.as_slice()));
            let got = msr_outcome(MsrReader::new(file.as_slice()));
            assert_eq!(
                got,
                want,
                "case {case}: {:?}",
                String::from_utf8_lossy(&file)
            );
            match want.last() {
                Some(Err(e)) if e.starts_with("io") => io_errs += 1,
                Some(Err(_)) => parse_errs += 1,
                _ => oks += 1,
            }
        }
        // The corpus reaches every outcome, not just one.
        assert!(
            oks > 100 && parse_errs > 100 && io_errs > 10,
            "{oks} {parse_errs} {io_errs}"
        );
    }
}
