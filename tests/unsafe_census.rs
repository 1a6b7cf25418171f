//! Source-level census of `unsafe` in shipped code: the set of files that
//! use it is a list someone has to edit, so "no `unsafe` in `cdp-storage` /
//! `cdp-ml` / `cdp-pipeline`" cannot erode unnoticed.
//!
//! Today three files carry it, each with a `// SAFETY:` argument per block:
//! the worker pool's result slots and borrowed job (`cdp-engine`, kept by
//! PR 18's trial), the serving snapshot ring's cell (`cdp-core::serving`,
//! kept by PR 20's), and the carry-less-multiply CRC-32 body (`cdp-obs::crc`,
//! `#[target_feature]` code behind run-time detection).

mod source_scan;

use std::collections::BTreeSet;

use source_scan::{crate_sources, shipped_code, words};

const ALLOWED: [&str; 3] = [
    "crates/core/src/serving.rs",
    "crates/engine/src/lib.rs",
    "crates/obs/src/crc.rs",
];

/// Whether the shipped region of `source` uses the keyword outside a comment.
fn ships_unsafe(source: &str) -> bool {
    words(&shipped_code(source)).any(|word| word == "unsafe")
}

#[test]
fn unsafe_lives_in_exactly_the_listed_files() {
    let (library, bench) = crate_sources();
    let found: BTreeSet<String> = library
        .into_iter()
        .chain(bench)
        .filter(|(_, source)| ships_unsafe(source))
        .map(|(path, _)| path)
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
