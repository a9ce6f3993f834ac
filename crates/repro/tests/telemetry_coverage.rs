//! Every simulation `repro` starts lands in the `--telemetry-out` stream.
//!
//! Runs the binary over the sweep experiments, whose runs are built by
//! hand rather than fetched from the standard-scenario cache, and checks
//! that the stream holds one run block per `[run]` line on stdout and
//! that every block passes the invariant audit.

use std::process::Command;

#[test]
fn every_sweep_run_is_captured_and_audits_clean() {
    let tmp = std::env::temp_dir().join(format!("repro_coverage_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("create tmp dir");
    let stream = tmp.join("stream.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "--horizon-h", "0.02", "--jobs", "2"])
        .arg("--telemetry-out")
        .arg(&stream)
        .arg("--out")
        .arg(&tmp)
        .args(["f3", "f4", "f5", "f6", "f9", "f11", "f12", "t6"])
        .output()
        .expect("spawn repro binary");
    assert!(
        out.status.success(),
        "repro failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let runs = stdout
        .lines()
        .filter(|l| l.trim_start().starts_with("[run] "))
        .count();
    let bytes = std::fs::read(&stream).expect("read stream file");
    let _ = std::fs::remove_dir_all(&tmp);
    let starts = bytes
        .split(|&b| b == b'\n')
        .filter(|l| l.starts_with(b"{\"ev\":\"run_start\""))
        .count();
    assert_eq!(starts, runs, "stream run blocks vs [run] lines");
    assert_eq!(runs, 39, "runs of f3 f4 f5 f6 f9 f11 f12 t6");

    let outcome = telemetry::audit::audit_bytes(&bytes).expect("stream parses");
    assert_eq!(outcome.runs.len(), runs);
    for run in &outcome.runs {
        for c in &run.checks {
            assert!(c.passed, "{}: {} failed: {}", run.label, c.name, c.detail);
        }
    }
}
