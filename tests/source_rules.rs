//! The source rule `clippy.toml` cannot state: `disallowed-types` catches a
//! `use` of `Ordering`, not a variant spelled in full. Matches text, not
//! tokens; a comment that needs one of these words spells it differently.

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
