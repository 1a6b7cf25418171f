//! Source-level census of `unsafe` in shipped code: the set of files that
//! use it is a list someone has to edit, so "no `unsafe` in `cdp-storage` /
//! `cdp-ml` / `cdp-pipeline`" cannot erode unnoticed.
//!
//! Today three files carry it, each with a `// SAFETY:` argument per block:
//! the worker pool's result slots and borrowed job (`cdp-engine`, kept by
//! PR 18's trial), the serving snapshot ring's cell (`cdp-core::serving`,
//! kept by PR 20's), and the carry-less-multiply CRC-32 body (`cdp-obs::crc`,
//! `#[target_feature]` code behind run-time detection).

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

const ALLOWED: [&str; 3] = [
    "crates/core/src/serving.rs",
    "crates/engine/src/lib.rs",
    "crates/obs/src/crc.rs",
];

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Whether the shipped region of `source` (before its first `#[cfg(test)]`)
/// uses the keyword outside a comment.
fn ships_unsafe(source: &str) -> bool {
    let shipped = source.split("#[cfg(test)]").next().unwrap_or(source);
    shipped.lines().any(|line| {
        let code = line.split("//").next().unwrap_or(line);
        code.split(|c: char| !c.is_alphanumeric() && c != '_')
            .any(|word| word == "unsafe")
    })
}

#[test]
fn unsafe_lives_in_exactly_the_listed_files() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    let crates = fs::read_dir(root.join("crates")).expect("workspace has a crates/ directory");
    for krate in crates.flatten() {
        rust_files(&krate.path().join("src"), &mut files);
    }
    assert!(files.len() > 50, "the scan found the workspace's sources");
    let found: BTreeSet<String> = files
        .iter()
        .filter(|path| ships_unsafe(&fs::read_to_string(path).expect("readable source")))
        .map(|path| {
            let relative = path.strip_prefix(root).expect("under the workspace root");
            relative.to_string_lossy().replace('\\', "/")
        })
        .collect();
    let allowed: BTreeSet<String> = ALLOWED.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        found, allowed,
        "`unsafe` outside the census: justify it with a measurement and add the file here"
    );
}

#[test]
fn the_scan_sees_code_and_skips_comments_and_tests() {
    assert!(ships_unsafe("fn f() { unsafe { g() } }"));
    assert!(ships_unsafe("unsafe impl Send for X {}"));
    assert!(!ships_unsafe(
        "// no unsafe here\nfn f() {} // nor unsafe there"
    ));
    assert!(!ships_unsafe("fn unsafe_census() {}"));
    assert!(!ships_unsafe(
        "fn f() {}\n#[cfg(test)]\nmod t { fn g() { unsafe {} } }"
    ));
}
