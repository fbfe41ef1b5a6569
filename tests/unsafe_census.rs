//! Unsafe census: which product sources hold `unsafe` code, and how many
//! `unsafe` functions each declares, is a reviewed list.  The test walks the
//! product and bench sources (`src/`, `crates/*/src`), comments left out, and
//! compares the files whose code says `unsafe` with [`CEILINGS`], and each
//! file's count of `unsafe fn` with its ceiling.  `unsafe` in a new file, or a
//! count above its ceiling, means editing this file; a count may fall below
//! its ceiling, and the ceiling then comes down with it.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Every product file whose code says `unsafe`, and the most `unsafe fn` it
/// may declare: the counts when the vector kernels were written once over
/// their lane traits (the kernels had 72 before).
const CEILINGS: [(&str, usize); 3] = [
    ("crates/nn/src/encoding.rs", 1),
    ("crates/nn/src/exp.rs", 6),
    ("crates/nn/src/kernel.rs", 61),
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

/// The identifiers and keywords of `source`, line comments (doc comments
/// included) left out.
fn words(source: &str) -> Vec<&str> {
    source
        .lines()
        .map(|line| line.split_once("//").map_or(line, |(code, _)| code))
        .flat_map(|code| code.split(|c: char| !(c.is_alphanumeric() || c == '_')))
        .filter(|word| !word.is_empty())
        .collect()
}

/// `Some(count of unsafe fn)` when the code of `source` says `unsafe`.
fn unsafe_fns(source: &str) -> Option<usize> {
    let words = words(source);
    words.contains(&"unsafe").then(|| words.windows(2).filter(|w| w == &["unsafe", "fn"]).count())
}

#[test]
fn unsafe_code_stays_in_the_reviewed_files_under_their_ceilings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let src = entry.expect("directory entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let mut found = BTreeMap::new();
    for path in &files {
        let source = std::fs::read_to_string(path).expect("readable source file");
        if let Some(count) = unsafe_fns(&source) {
            let relative = path.strip_prefix(root).expect("under the root");
            let name = relative.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>();
            found.insert(name.join("/"), count);
        }
    }
    let reviewed: BTreeMap<String, usize> = CEILINGS.iter().map(|&(name, n)| (name.to_string(), n)).collect();
    assert_eq!(
        found.keys().collect::<Vec<_>>(),
        reviewed.keys().collect::<Vec<_>>(),
        "the files of src/ and crates/*/src with unsafe code differ from tests/unsafe_census.rs"
    );
    for (name, count) in &found {
        assert!(
            *count <= reviewed[name],
            "{name} declares {count} unsafe fn, above its ceiling of {} in tests/unsafe_census.rs",
            reviewed[name]
        );
    }
}

#[test]
fn the_census_reads_code_not_comments() {
    assert_eq!(unsafe_fns("fn safe() {}\n// an unsafe fn in prose\n"), None);
    assert_eq!(unsafe_fns("/// `unsafe fn` in a doc comment\nfn f() {}"), None);
    let code = "pub(super) unsafe fn a() {}\nunsafe  fn b() {}\nfn c() { unsafe { d() } }\n";
    assert_eq!(unsafe_fns(code), Some(2));
}
