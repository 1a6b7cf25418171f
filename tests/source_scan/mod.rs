//! What the source-level gates share: the workspace's sources and the part
//! of each that ships. Every gate is a test binary of its own and compiles
//! this module for the subset it calls.

#![allow(dead_code)]

use std::fs;
use std::path::{Path, PathBuf};

/// The workspace root.
pub fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

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

/// `(path relative to the workspace root, contents)` per source file.
pub type Sources = Vec<(String, String)>;

/// Every `.rs` file under `dir`, sorted by path.
pub fn sources_under(dir: &str) -> Sources {
    let mut files = Vec::new();
    rust_files(&root().join(dir), &mut files);
    files.sort();
    let relative = |path: &PathBuf| {
        let relative = path.strip_prefix(root()).expect("under the workspace root");
        relative.to_string_lossy().replace('\\', "/")
    };
    let read = |path: &PathBuf| fs::read_to_string(path).expect("readable source");
    files.iter().map(|p| (relative(p), read(p))).collect()
}

/// The sources under `crates/*/src`, split into the library crates' and
/// `cdp-bench`'s (binaries that call the libraries, held to neither gate).
pub fn crate_sources() -> (Sources, Sources) {
    let all = sources_under("crates");
    let in_src = all.into_iter().filter(|(path, _)| {
        let mut parts = path.split('/');
        parts.nth(2) == Some("src")
    });
    let (bench, library): (Vec<_>, Vec<_>) =
        in_src.partition(|(path, _)| path.starts_with("crates/bench/"));
    assert!(library.len() > 50, "the scan found the workspace's sources");
    (library, bench)
}

/// The shipped region of `source` — everything before its first
/// `#[cfg(test)]` — with `//` comments blanked out.
pub fn shipped_code(source: &str) -> String {
    let region = source.split("#[cfg(test)]").next().unwrap_or(source);
    let code = region
        .lines()
        .map(|line| line.split("//").next().unwrap_or(line));
    code.flat_map(|line| [line, "\n"]).collect()
}

/// The identifiers and keywords of `code`, in order.
pub fn words(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !c.is_alphanumeric() && c != '_')
        .filter(|word| !word.is_empty())
}
