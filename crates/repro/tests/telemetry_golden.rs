//! Golden-file lockdown of the telemetry stream format.
//!
//! Runs the `repro` binary on a tiny t3 horizon with `--telemetry-out` at
//! `--jobs 1` and `--jobs 4` and byte-compares both streams against the
//! checked-in fixture. This pins three things at once: the JSON-lines
//! serialization of every event type, the determinism of the simulations
//! feeding it, and the jobs-independence of the stream assembly. Any
//! intentional format change regenerates the fixture with
//! `REGEN_GOLDEN=1 cargo test -p repro --test telemetry_golden`.

use std::path::PathBuf;
use std::process::Command;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join("t3_quick_stream.jsonl")
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

/// Mutants audited by [`mutated_golden_lines_fail_typed_never_panic`].
const MUTANTS: usize = 3_000;

/// Truncates, splices and flips bytes in golden-stream lines and audits
/// the mutated run with both auditors: every mutant must come back `Ok` or
/// as a typed parse error located on a line of the input — never a panic.
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
}
