//! Golden-file lockdown of the telemetry stream format and its audit.
//!
//! Runs the `repro` binary on a tiny t3 horizon with `--telemetry-out` at
//! `--jobs 1` and `--jobs 4` and byte-compares both streams against the
//! checked-in fixture. This pins three things at once: the JSON-lines
//! serialization of every event type, the determinism of the simulations
//! feeding it, and the jobs-independence of the stream assembly. A second
//! fixture pins `repro audit`'s stdout on that stream: every check's
//! name, verdict and detail string. Any intentional change regenerates
//! the fixtures with
//! `REGEN_GOLDEN=1 cargo test -p repro --test telemetry_golden`.

use std::collections::BTreeSet;
use std::io::BufRead;
use std::path::PathBuf;
use std::process::Command;
use telemetry::Event;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join("t3_quick_stream.jsonl")
}

/// `repro audit`'s stdout on the golden stream.
fn audit_golden_path() -> PathBuf {
    golden_path().with_file_name("t3_quick_audit.txt")
}

/// Runs t3 on a tiny horizon capturing telemetry, returns the stream bytes.
fn capture_stream(tag: &str, jobs: u32) -> Vec<u8> {
    let tmp = std::env::temp_dir().join(format!("repro_golden_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let stream = tmp.join("stream.jsonl");
    std::fs::create_dir_all(&tmp).expect("create tmp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "--horizon-h", "0.0005", "--seed", "7"])
        .args(["--jobs", &jobs.to_string()])
        .arg("--telemetry-out")
        .arg(&stream)
        .arg("--out")
        .arg(&tmp)
        .arg("t3")
        .output()
        .expect("spawn repro binary");
    assert!(
        out.status.success(),
        "repro --jobs {jobs} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bytes = std::fs::read(&stream).expect("read stream file");
    let _ = std::fs::remove_dir_all(&tmp);
    bytes
}

#[test]
fn stream_matches_golden_at_any_jobs_count() {
    let serial = capture_stream("j1", 1);
    let parallel = capture_stream("j4", 4);
    assert!(
        serial == parallel,
        "telemetry stream differs between --jobs 1 and --jobs 4"
    );

    let golden = golden_path();
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(golden.parent().unwrap()).expect("create golden dir");
        std::fs::write(&golden, &serial).expect("write golden");
        eprintln!("regenerated {}", golden.display());
        return;
    }

    let expected = std::fs::read(&golden).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with REGEN_GOLDEN=1",
            golden.display()
        )
    });
    if serial != expected {
        // Find the first differing line for a readable failure.
        let got = String::from_utf8_lossy(&serial);
        let want = String::from_utf8_lossy(&expected);
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "first divergence at stream line {}", i + 1);
        }
        panic!(
            "stream length changed: {} vs golden {} lines",
            got.lines().count(),
            want.lines().count()
        );
    }

    // The checked-in stream must itself satisfy every audit invariant.
    let outcome = telemetry::audit::audit_bytes(&serial).expect("parsable stream");
    assert!(outcome.passed(), "golden stream fails audit");
    assert_eq!(outcome.runs.len(), 16, "t3 covers 8 policies x 2 workloads");
}

#[test]
fn audit_report_matches_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("audit")
        .arg(golden_path())
        .output()
        .expect("spawn repro binary");
    assert!(
        out.status.success(),
        "repro audit failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let golden = audit_golden_path();
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(&golden, &out.stdout).expect("write golden");
        eprintln!("regenerated {}", golden.display());
        return;
    }
    let expected = std::fs::read_to_string(&golden).expect("read audit golden");
    let got = String::from_utf8_lossy(&out.stdout);
    for (i, (g, w)) in got.lines().zip(expected.lines()).enumerate() {
        assert_eq!(g, w, "first divergence at report line {}", i + 1);
    }
    assert_eq!(got, expected, "report length changed");
}

/// Checks that every line of `stream` parses to an event that writes the
/// line back byte for byte, and returns the event tags seen.
fn assert_lines_round_trip(stream: impl BufRead) -> BTreeSet<String> {
    let mut lines = simkit::text::LineReader::new(stream);
    let mut tags = BTreeSet::new();
    let mut out = Vec::new();
    while let Some((n, line)) = lines.next_line().expect("a UTF-8 stream") {
        let ev = Event::parse_jsonl(line, n).unwrap_or_else(|e| panic!("{e}"));
        out.clear();
        ev.write_jsonl(&mut out);
        assert_eq!(out, format!("{line}\n").as_bytes(), "line {n}");
        tags.insert(line.split('"').nth(3).unwrap_or_default().to_string());
    }
    tags
}

#[test]
fn golden_lines_round_trip_through_the_parser() {
    let golden = std::fs::read(golden_path()).expect("read golden");
    let tags = assert_lines_round_trip(golden.as_slice());
    for tag in ["run_start", "served", "speed", "disk", "run_end"] {
        assert!(tags.contains(tag), "{tag} missing from {tags:?}");
    }
}

/// The quick fault storm's stream is the one with `fault`, `mig_abort`,
/// `epoch` and `policy` events. Capturing it takes seconds and about half
/// a GiB in a release build, so the test is ignored by default; CI runs
/// it with `cargo test --release -p repro --test telemetry_golden --
/// --ignored`.
#[test]
#[ignore]
fn fault_storm_lines_round_trip_through_the_parser() {
    let tmp = std::env::temp_dir().join(format!("repro_faults_rt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("create tmp dir");
    let stream = tmp.join("stream.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "--horizon-h", "0.5", "--jobs", "2"])
        .arg("--telemetry-out")
        .arg(&stream)
        .arg("--out")
        .arg(&tmp)
        .arg("faults")
        .output()
        .expect("spawn repro binary");
    assert!(
        out.status.success(),
        "repro faults failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let file = std::fs::File::open(&stream).expect("open stream");
    let tags = assert_lines_round_trip(std::io::BufReader::new(file));
    let _ = std::fs::remove_dir_all(&tmp);
    for tag in ["fault", "mig_abort", "epoch", "policy"] {
        assert!(tags.contains(tag), "{tag} missing from {tags:?}");
    }
}

/// Mutants audited by [`mutated_golden_lines_fail_typed_never_panic`].
const MUTANTS: usize = 3_000;

/// Truncates, splices and flips bytes in golden-stream lines, parses each
/// mutated line and audits the mutated run with both auditors: every
/// mutant must come back `Ok` or as a typed parse error located on a line
/// of the input — never a panic.
/// The budget is fixed and the mutations are seeded, so a failure
/// reproduces exactly.
#[test]
fn mutated_golden_lines_fail_typed_never_panic() {
    use simkit::DetRng;
    use telemetry::audit::{audit_bytes, audit_fleet_bytes, AuditError};

    let golden = std::fs::read_to_string(golden_path()).expect("read golden");
    let lines: Vec<&str> = golden.lines().collect();
    // Run segments, header through trailer.
    let starts: Vec<usize> = (0..lines.len())
        .filter(|&i| lines[i].starts_with("{\"ev\":\"run_start\""))
        .chain([lines.len()])
        .collect();
    let runs: Vec<&[&str]> = starts.windows(2).map(|w| &lines[w[0]..w[1]]).collect();
    let mut rng = DetRng::new(20, "audit-mutation");
    let mut below = |n: usize| rng.below(n as u64) as usize;
    let (mut ok, mut typed) = (0usize, 0usize);
    let mut parse_errors = 0usize;
    for _ in 0..MUTANTS {
        let run = runs[below(runs.len())];
        let mut mutant: Vec<Vec<u8>> = run.iter().map(|l| l.as_bytes().to_vec()).collect();
        for _ in 0..1 + below(3) {
            let line = &mut mutant[below(run.len())];
            match below(3) {
                0 => line.truncate(below(line.len() + 1)),
                1 => {
                    let other = lines[below(lines.len())].as_bytes();
                    line.truncate(below(line.len() + 1));
                    line.extend_from_slice(&other[below(other.len() + 1)..]);
                }
                _ if line.is_empty() => {}
                _ => {
                    let at = below(line.len());
                    // Printable ASCII: quotes, brackets, digits, `\`, …
                    line[at] = b' ' + below(95) as u8;
                }
            }
        }
        for (i, line) in mutant.iter().enumerate() {
            if let Ok(line) = std::str::from_utf8(line) {
                if let Err(AuditError::Parse(n, _)) = Event::parse_jsonl(line, i + 1) {
                    assert_eq!(n, i + 1, "error located off its line");
                    parse_errors += 1;
                }
            }
        }
        let bytes = mutant.join(&b'\n');
        for outcome in [
            audit_bytes(&bytes).map(|_| ()),
            audit_fleet_bytes(&bytes).map(|_| ()),
        ] {
            match outcome {
                Ok(()) => ok += 1,
                Err(AuditError::Parse(n, _)) => {
                    assert!(n <= mutant.len(), "error located past the input");
                    typed += 1;
                }
            }
        }
    }
    assert!(ok > 0 && typed > 0, "{ok} ok, {typed} typed errors");
    assert!(parse_errors > 0, "no mutated line failed to parse");
}
