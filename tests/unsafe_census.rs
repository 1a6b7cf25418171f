//! Source-level census of `unsafe` in shipped code: the set of files that
//! use it, and how many times each does, is a list someone has to edit, so
//! "no `unsafe` in `cdp-storage` / `cdp-ml` / `cdp-pipeline`" cannot erode
//! unnoticed, and neither can a listed file grow a second use.
//!
//! Today three files carry it, each with a `// SAFETY:` argument per block:
//! the worker pool's lifetime-erased job borrow (`cdp-engine`: one
//! `transmute`; its result slots are handed out safely since the one claim
//! counter replaced the stealing queues), the serving snapshot ring's cell
//! (`cdp-core::serving`, kept by PR 20's trial), and the carry-less-multiply
//! CRC-32 body (`cdp-obs::crc`, `#[target_feature]` code behind run-time
//! detection).

mod source_scan;

use std::collections::BTreeSet;

use source_scan::{crate_sources, shipped_code, words};

/// `(file, unsafe keywords in its shipped region)`.
const ALLOWED: [(&str, usize); 3] = [
    ("crates/core/src/serving.rs", 4),
    ("crates/engine/src/lib.rs", 1),
    ("crates/obs/src/crc.rs", 2),
];

/// How many times the shipped region of `source` uses the keyword outside
/// a comment.
fn unsafe_count(source: &str) -> usize {
    words(&shipped_code(source))
        .filter(|word| *word == "unsafe")
        .count()
}

fn ships_unsafe(source: &str) -> bool {
    unsafe_count(source) > 0
}

#[test]
fn unsafe_lives_in_exactly_the_listed_files() {
    let (library, bench) = crate_sources();
    let found: BTreeSet<(String, usize)> = library
        .into_iter()
        .chain(bench)
        .filter(|(_, source)| ships_unsafe(source))
        .map(|(path, source)| {
            let count = unsafe_count(&source);
            (path, count)
        })
        .collect();
    let allowed: BTreeSet<(String, usize)> = ALLOWED
        .iter()
        .map(|&(path, count)| (path.to_string(), count))
        .collect();
    assert_eq!(
        found, allowed,
        "`unsafe` outside the census, or a listed file's count moved: justify it with a \
         measurement and edit the list here"
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
    assert_eq!(
        unsafe_count("unsafe impl Send for X {}\nfn f() { unsafe { g() } } // unsafe"),
        2
    );
}
