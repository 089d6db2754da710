//! Golden-trace regression suite: the 6 × 3 snapshot matrix (plus two
//! layerwise-ratio variants) under `tests/goldens/` must match the
//! engine byte-for-byte.
//!
//! Each snapshot stores the Espresso-selected strategy and its full
//! Gantt trace for one paper model × GC algorithm on the reference 2×2
//! PCIe cluster, as canonical JSON. The check deserializes the stored
//! strategy, re-simulates it, audits the fresh timeline, and compares
//! the re-rendered document against the file — so a drift anywhere in
//! the timing model, the engine, or the serializers fails with the
//! first differing byte quoted.
//!
//! To accept an intended behavior change, regenerate and review the
//! diff:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --release --test golden_traces
//! # or, equivalently:
//! cargo run --release -p espresso-audit -- goldens --update
//! ```
//!
//! (Release mode recommended: regeneration re-runs the full selection
//! pipeline, which takes minutes in debug builds.)

use std::path::PathBuf;

use espresso_audit::goldens;
use espresso_models::Model;

fn dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens")
}

#[test]
fn golden_traces_match_byte_for_byte() {
    let dir = dir();
    if std::env::var_os("UPDATE_GOLDENS").is_some_and(|v| v == "1") {
        for case in goldens::cases() {
            let path = goldens::update(&case, &dir).expect("regeneration failed");
            eprintln!("regenerated {}", path.display());
        }
        return;
    }
    let mut diffs = Vec::new();
    for case in goldens::cases() {
        if let Err(diff) = goldens::check(&case, &dir) {
            diffs.push(format!("{}: {}", diff.case.label(), diff.message));
        }
    }
    assert!(
        diffs.is_empty(),
        "{} golden trace(s) diverged (regenerate with UPDATE_GOLDENS=1 if intended):\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}

/// The snapshots pin the *planner*, not just the simulator: re-running
/// the full selection pipeline must reproduce the stored documents byte
/// for byte. Selection runs the fast planner; the reference planner is
/// byte-identical to it (`espresso-audit decide` enforces it across a
/// seeded sweep), so the same snapshots pin both.
///
/// Only the cheap models re-select here so the check stays debug-build
/// friendly; `espresso-audit goldens` (release, run by `ci.sh`) covers
/// all 20 cases.
#[test]
fn selection_reproduces_cheap_goldens_byte_for_byte() {
    if std::env::var_os("UPDATE_GOLDENS").is_some_and(|v| v == "1") {
        return;
    }
    let dir = dir();
    let mut diffs = Vec::new();
    for case in goldens::cases() {
        if !matches!(case.model, Model::Lstm | Model::Vgg16) {
            continue;
        }
        if let Err(diff) = goldens::check_selection(&case, &dir) {
            diffs.push(format!("{}: {}", diff.case.label(), diff.message));
        }
    }
    assert!(
        diffs.is_empty(),
        "{} golden selection(s) diverged:\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}

#[test]
fn golden_matrix_is_complete() {
    // The paper's 6 models × 3 GC algorithms plus two adaptive-ratio
    // variants, every file present.
    let cases = goldens::cases();
    assert_eq!(cases.len(), 20);
    for case in &cases {
        assert!(
            dir().join(case.file_name()).exists(),
            "missing golden {}",
            case.file_name()
        );
    }
}
