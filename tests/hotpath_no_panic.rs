//! Source-level gate on every library crate: no `.unwrap()` / `.expect(`
//! in the shipped region of any file under `crates/*/src` (`cdp-bench`, the
//! experiment binaries, excepted). A panic annotation there is a latent
//! crash in the deployment loop; invariants that are genuinely unreachable
//! are written as `match`/`unreachable!` with a comment explaining why, so
//! the gate also forces the justification to exist.
//!
//! The pipeline crate — what every chunk, re-materialization and query goes
//! through — is held to more: no `panic!`/`assert!` either, except inside
//! the constructors that reject a misconfigured pipeline at deployment time.

mod source_scan;

use source_scan::{crate_sources, shipped_code};

/// Constructors allowed to panic: a pipeline naming a field its schema does
/// not have, an absurd hash width or drift windows that cannot detect
/// anything must fail when the deployment is assembled, before any chunk
/// arrives.
const CONSTRUCTOR_PANICS: [&str; 4] = [
    "crates/pipeline/src/parser.rs: SchemaParser::new",
    "crates/pipeline/src/parser.rs: TaxiParser::new",
    "crates/pipeline/src/encode.rs: FeatureHasher::new",
    "crates/pipeline/src/drift.rs: DriftDetector::new",
];

/// `Type::function` enclosing byte offset `at` of `source`: the type named
/// last on the nearest `impl` line above it, and the nearest `fn` above it.
fn enclosing_item(source: &str, at: usize) -> String {
    let above = &source[..at];
    let ident = |s: &str| -> String {
        let is_ident = |c: &char| c.is_alphanumeric() || *c == '_';
        s.chars().take_while(is_ident).collect()
    };
    let impl_line = above
        .rfind("\nimpl")
        .and_then(|i| above[i + 1..].lines().next())
        .unwrap_or("");
    let ty = impl_line.trim_end_matches('{').trim().rsplit(' ').next();
    let function = above.rfind(" fn ").map_or("", |i| &above[i + 4..]);
    format!("{}::{}", ident(ty.unwrap_or("")), ident(function))
}

#[test]
fn pipeline_panics_are_constructor_time_only() {
    let (library, _) = crate_sources();
    let pipeline = library
        .iter()
        .filter(|(name, _)| name.starts_with("crates/pipeline/src/"));
    for (name, source) in pipeline {
        let shipped = shipped_code(source);
        for token in ["panic!(", "assert!(", "assert_eq!(", "unreachable!("] {
            for (at, _) in shipped.match_indices(token) {
                let site = format!("{name}: {}", enclosing_item(&shipped, at));
                assert!(
                    CONSTRUCTOR_PANICS.contains(&site.as_str()),
                    "`{token}` in {site}: only the allow-listed constructors may panic"
                );
            }
        }
    }
}

#[test]
fn hot_paths_carry_no_panic_annotations() {
    let (library, _) = crate_sources();
    for (name, source) in &library {
        let shipped = shipped_code(source);
        for token in [".unwrap()", ".expect("] {
            assert!(
                !shipped.contains(token),
                "{name}: `{token}` found outside #[cfg(test)] — rewrite the \
                 call as a match with an unreachable!/typed-error arm and a \
                 comment documenting the invariant"
            );
        }
    }
}
