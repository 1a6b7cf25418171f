//! Source-level census of callers: a `pub` item of a library crate stays
//! only if shipped code outside its own file reaches it — another shipped
//! region under `crates/*/src`, `src/`, an `examples/*.rs`, a `cdp-bench`
//! binary or `benchmark/src`. An item nothing reaches is deleted; one only
//! its own file's shipped code uses stops being `pub`, after which rustc's
//! dead-code lint guards it. What only tests reach is either deleted with
//! its tests or listed in [`ALLOWED`] with the shipped behaviour it observes.
//!
//! The scan compares identifiers, not paths, so a name collision can hide
//! an orphan but never invent one: the test cannot flake.

mod source_scan;

use std::collections::{BTreeMap, BTreeSet};

use source_scan::{crate_sources, shipped_code, sources_under, words};

/// `(file, item, why it stays)`: test observers of shipped behaviour and
/// tests-only oracles. Nothing here is "might be useful later".
const ALLOWED: &[(&str, &str, &str)] = &[
    (
        "crates/core/src/data_manager.rs",
        "is_materialized",
        "tests/platform_manual.rs checks a zero-budget sample is all re-materialization",
    ),
    (
        "crates/core/src/deployment.rs",
        "try_run_deployment_in",
        "tests/telemetry.rs and tests/trace_smoke.rs hand a run its metrics, tracer and clock",
    ),
    (
        "crates/core/src/serving.rs",
        "batch_failures",
        "the third term of `attempts == served + rejected + batch_failures` the serving tests reconcile",
    ),
    (
        "crates/core/src/serving.rs",
        "builder",
        "tests/serving_concurrency.rs builds the servers it stresses: threaded scoring, metrics",
    ),
    (
        "crates/core/src/serving.rs",
        "fault_hook",
        "tests/serving_concurrency.rs injects seeded worker panics into batch scoring",
    ),
    (
        "crates/obs/src/chrome.rs",
        "validate_chrome_trace",
        "the tests' loader for the Chrome export (chrome.rs, fig4 smoke, tests/trace_smoke.rs)",
    ),
    (
        "crates/obs/src/flame.rs",
        "to_folded_stacks",
        "tests/trace_smoke.rs checks the folded export of a real run",
    ),
    (
        "crates/obs/src/registry.rs",
        "EVENT_LOG_CAPACITY",
        "tests/telemetry_sample_alloc.rs fills the event log to its bound before it counts",
    ),
    (
        "crates/obs/src/snapshot.rs",
        "lineage_count",
        "storage and trace tests reconcile lineage events with TieredStats",
    ),
    (
        "crates/obs/src/snapshot.rs",
        "metric_count",
        "tests/end_to_end.rs checks a run's snapshot spans every subsystem",
    ),
    (
        "crates/obs/src/trace.rs",
        "crosses_threads",
        "tests/trace_smoke.rs shows a threaded run's spans leave the caller's thread",
    ),
    (
        "crates/obs/src/trace.rs",
        "parent_name",
        "tests/trace_smoke.rs checks which span each stage nests under",
    ),
    (
        "crates/obs/src/trace.rs",
        "span_count",
        "trace tests count the spans a run or a fused step recorded",
    ),
    (
        "crates/obs/src/trace.rs",
        "validate",
        "the span-tree well-formedness oracle of every tracing test",
    ),
    (
        "crates/pipeline/src/encode.rs",
        "bucket_of",
        "tests-only oracle: the row reference hashes tokens with the encoder's own function",
    ),
    (
        "crates/storage/src/disk.rs",
        "decode_chunk",
        "crates/storage/tests/properties.rs drives the spill codec: round trips, flips, cuts",
    ),
    (
        "crates/storage/src/disk.rs",
        "encode_chunk",
        "crates/storage/tests/properties.rs drives the spill codec: round trips, flips, cuts",
    ),
    (
        "crates/storage/src/store.rs",
        "drop_chunk",
        "failure injection for the raw-data-unavailable path (tests/platform_manual.rs)",
    ),
    (
        "crates/storage/src/store.rs",
        "feature_bytes",
        "the byte-accounting invariant crates/storage/tests/properties.rs checks",
    ),
    (
        "crates/storage/src/store.rs",
        "peek_feature",
        "reads a materialized chunk without moving the hit/miss counters a test is checking",
    ),
    (
        "crates/storage/src/wal.rs",
        "last_durable_seq",
        "the WAL tests observe which appends a commit has fsynced",
    ),
];

const KINDS: [&str; 6] = ["fn", "struct", "enum", "trait", "type", "const"];

/// The shipped code of `source` without `pub use …;` re-exports: naming an
/// item in a doc comment or re-exporting it is not calling it.
fn shipped(source: &str) -> String {
    let mut out = String::with_capacity(source.len());
    let mut in_reexport = false;
    for code in shipped_code(source).lines() {
        in_reexport |= code.trim_start().starts_with("pub use ");
        if !in_reexport {
            out.push_str(code);
            out.push('\n');
        }
        in_reexport &= !code.contains(';');
    }
    out
}

/// Names declared `pub fn|struct|enum|trait|type|const` in `code`, each with
/// whether it names a type.
fn pub_items(code: &str) -> BTreeSet<(&str, bool)> {
    const QUALIFIERS: [&str; 3] = ["const", "unsafe", "async"];
    let mut items = BTreeSet::new();
    for line in code.lines() {
        let Some(rest) = line.trim_start().strip_prefix("pub ") else {
            continue;
        };
        let mut words = words(rest).peekable();
        while let (Some(word), Some(next)) = (words.next(), words.peek()) {
            if KINDS.contains(&word) && !(QUALIFIERS.contains(&word) && KINDS.contains(next)) {
                items.insert((*next, !["fn", "const"].contains(&word)));
                break;
            }
            if !QUALIFIERS.contains(&word) {
                break;
            }
        }
    }
    items
}

/// Whether `code` names the type `name` outside its declaration and its
/// `impl` headers: a field or signature of its own file carries it to
/// callers who never spell it, so it cannot stop being `pub`.
fn carried_by_a_signature(code: &str, name: &str) -> bool {
    code.lines().any(|line| {
        let words: Vec<&str> = words(line).collect();
        let declares = words
            .windows(2)
            .any(|w| KINDS.contains(&w[0]) && w[1] == name);
        words.contains(&name) && !declares && words[0] != "impl"
    })
}

#[test]
fn every_pub_item_has_a_shipped_caller_outside_its_file() {
    let ship = |(path, source): (String, String)| (path, shipped(&source));
    let (library, bench) = crate_sources();
    let library: Vec<(String, String)> = library.into_iter().map(ship).collect();
    let outside: Vec<(String, String)> = ["src", "examples", "benchmark/src"]
        .into_iter()
        .flat_map(sources_under)
        .chain(bench)
        .map(ship)
        .collect();
    assert!(
        outside.len() > 30,
        "the scan found the binaries that call the libraries"
    );

    // For each identifier, the files whose shipped code mentions it ("" for
    // any file outside the library crates).
    let mut mentions: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (_, code) in &outside {
        for word in words(code) {
            mentions.entry(word).or_default().insert("");
        }
    }
    for (file, code) in &library {
        for word in words(code) {
            mentions.entry(word).or_default().insert(file);
        }
    }

    let mut orphans = BTreeSet::new();
    for (file, code) in &library {
        for (item, is_type) in pub_items(code) {
            let reached = mentions[item].iter().any(|user| user != file)
                || (is_type && carried_by_a_signature(code, item));
            if !reached {
                orphans.insert((file.as_str(), item));
            }
        }
    }
    let allowed: BTreeSet<(&str, &str)> = ALLOWED.iter().map(|(f, i, _)| (*f, *i)).collect();
    let unlisted: Vec<_> = orphans.difference(&allowed).collect();
    assert!(
        unlisted.is_empty(),
        "`pub` items no shipped code outside their file reaches — delete them, make them \
         private, or list the test that observes shipped behaviour through them: {unlisted:#?}"
    );
    let stale: Vec<_> = allowed.difference(&orphans).collect();
    assert!(
        stale.is_empty(),
        "allowlist entries that are reached or gone: {stale:#?}"
    );
    assert!(ALLOWED.len() <= 40, "the allowlist is a short list");
    assert!(
        ALLOWED.iter().all(|(_, _, reason)| !reason.is_empty()),
        "every allowlist entry says what observes shipped behaviour through it"
    );
}

#[test]
fn the_scan_reads_declarations_and_skips_comments_reexports_and_tests() {
    let items = pub_items(
        "pub fn a() {}\n  pub const fn b() {}\npub const C: u8 = 0;\npub unsafe fn d() {}\n\
         pub struct E;\npub(crate) fn f() {}\nfn g() {}\npub mod h;\npub type I = u8;",
    );
    let expected = ["C", "E", "I", "a", "b", "d"].map(|name| (name, name == "E" || name == "I"));
    assert_eq!(items.into_iter().collect::<Vec<_>>(), expected);
    assert!(carried_by_a_signature("pub struct S { pub e: E }", "E"));
    assert!(!carried_by_a_signature(
        "pub struct E;\nimpl T for E {}",
        "E"
    ));
    let code = shipped(
        "use x::Kept;\npub use y::{\n    Dropped,\n};\nfn f() {} // Comment\n/// Doc\n\
         #[cfg(test)]\nmod t { fn tested() {} }",
    );
    let words: BTreeSet<&str> = words(&code).collect();
    assert!(words.contains("Kept") && words.contains("f"));
    for gone in ["Dropped", "Comment", "Doc", "tested"] {
        assert!(!words.contains(gone), "{gone} is not shipped code");
    }
}
