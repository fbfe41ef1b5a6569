//! Knob census: the set of `DM_*` environment variables the workspace reads is
//! a reviewed list, not something the next re-anchor discovers.  The test walks
//! the product and bench sources (`src/`, `crates/*/src`) for
//! `env::var("DM_…")` / `env::var_os("DM_…")` and compares what it finds with
//! [`KNOBS`]: adding a knob, or retiring one, means editing this file.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The five product knobs (the paper runner takes `--scale`, not a variable).
const KNOBS: [&str; 5] = [
    "DM_EXEC_THREADS",
    "DM_FAULTS",
    "DM_OBS",
    "DM_OBS_SLOW_MS",
    "DM_QUANTIZATION",
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The `DM_*` names `source` hands to `env::var` / `env::var_os` as literals.
/// A read whose name is not a literal could hide a knob from the census, so it
/// is reported instead of skipped.
fn knobs_read(path: &Path, source: &str, found: &mut BTreeSet<String>) {
    for (at, _) in source.match_indices("env::var") {
        let call = source[at + "env::var".len()..].trim_start_matches("_os");
        let Some(argument) = call.strip_prefix('(') else {
            continue; // a mention in prose, not a call
        };
        let argument = argument.trim_start();
        let name = argument
            .strip_prefix('"')
            .and_then(|rest| rest.split_once('"'))
            .map(|(name, _)| name)
            .unwrap_or_else(|| {
                panic!(
                    "{}: an environment read whose name is not a string literal: env::var({}",
                    path.display(),
                    argument.lines().next().unwrap_or_default()
                )
            });
        if name.starts_with("DM_") {
            found.insert(name.to_string());
        }
    }
}

#[test]
fn the_workspace_reads_exactly_the_reviewed_knobs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let src = entry.expect("directory entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let mut found = BTreeSet::new();
    for path in &files {
        let source = std::fs::read_to_string(path).expect("readable source file");
        knobs_read(path, &source, &mut found);
    }
    let reviewed: BTreeSet<String> = KNOBS.iter().map(|name| name.to_string()).collect();
    assert_eq!(
        found, reviewed,
        "the DM_* variables read by src/ and crates/*/src differ from tests/knob_census.rs"
    );
}
