//! The whole reference-fingerprint golden: every scenario of
//! `tests/reference/mod.rs`, in order, against every row of
//! `tests/golden/reference_fingerprints.txt`. An intentional behaviour
//! change regenerates the file with
//! `REGEN_GOLDEN=1 cargo test --test reference_goldens`.

mod common;
mod reference;

#[test]
fn runs_match_reference_fingerprints() {
    reference::check_whole_golden(&reference::all_rows());
}
