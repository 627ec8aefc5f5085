//! The source rule `clippy.toml` cannot state: `disallowed-types` catches a
//! `use` of `Ordering`, not a variant spelled in full. Matches text, not
//! tokens; a comment that needs one of these words spells it differently.
//! One rule for a crate boundary: `locus-analysis` analyses recorded traces
//! and audits, and never runs an engine to get them. And one rule for the
//! docs: DESIGN.md describes the system as it is, so it cites no change by
//! number; that history is CHANGES.md's.

use std::fs;
use std::path::{Path, PathBuf};

/// The modules whose `#![expect(clippy::disallowed_types)]` admits atomics.
const AUDITED: [&str; 3] =
    ["crates/router/src/engine.rs", "crates/shmem/src/shard.rs", "crates/service/src/pool.rs"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("a source directory") {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn orderings_are_never_seqcst_and_named_only_in_the_audited_modules() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        rust_files(&krate.expect("a directory entry").path().join("src"), &mut files);
    }
    let mut audited = 0;
    for file in &files {
        let rel = file.strip_prefix(root).expect("under the root").to_string_lossy();
        let text = fs::read_to_string(file).expect("UTF-8 source");
        assert!(!text.contains("SeqCst"), "{rel}: SeqCst is banned everywhere");
        let orderings = ["Relaxed", "Acquire", "Release", "AcqRel"];
        let named = text.contains("sync::atomic")
            || orderings.iter().any(|o| text.contains(&format!("Ordering::{o}")));
        assert!(!named || AUDITED.contains(&&*rel), "{rel} names atomics or an ordering unaudited");
        audited += usize::from(named);
    }
    assert_eq!(audited, AUDITED.len(), "an audited module names no ordering: stale list?");
}

#[test]
fn design_names_no_pull_request_by_number() {
    let design = Path::new(env!("CARGO_MANIFEST_DIR")).join("DESIGN.md");
    let text = fs::read_to_string(design).expect("DESIGN.md");
    for (n, line) in text.lines().enumerate() {
        let numbered = line
            .match_indices("PR ")
            .any(|(at, _)| line[at + 3..].starts_with(|c: char| c.is_ascii_digit()));
        assert!(!numbered, "DESIGN.md:{} cites a PR by number: {line}", n + 1);
    }
}

#[test]
fn the_analysis_crate_analyses_records_and_runs_no_engine() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("crates/analysis/src"), &mut files);
    assert!(!files.is_empty(), "crates/analysis/src holds no source: moved?");
    for file in &files {
        let rel = file.strip_prefix(root).expect("under the root").to_string_lossy();
        let text = fs::read_to_string(file).expect("UTF-8 source");
        for engine in ["ShmemEmulator", "ThreadedRouter", "run_msgpass", "MsgPassConfig"] {
            assert!(!text.contains(engine), "{rel} names {engine}: the experiments run engines");
        }
    }
}
