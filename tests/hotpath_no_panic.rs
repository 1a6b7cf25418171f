//! Source-level gate for the two paths every arriving chunk runs through:
//! they must not carry `.unwrap()` / `.expect(` outside their test modules.
//!
//! - The training hot path: the SGD inner loop and the model, penalty and
//!   optimizer it updates, the dense, sparse and columnar row kernels, the
//!   engine, and the pipeline manager and proactive trainer that drive them.
//! - The pipeline every chunk, re-materialization and query goes through:
//!   the column batch, parsers, component kernels and encoders. Here the
//!   gate is stricter — no `panic!`/`assert!` either — except inside the
//!   constructors that reject a misconfigured pipeline at deployment time.
//! - The platform's overhead path around it: the chunk store, spill log,
//!   WAL and checkpoint files, the deployment loop with its data manager,
//!   serving publishes and checkpoint codec, and the telemetry sample
//!   (registry, time series, alert and SLO monitors, recorder, checksum).
//! - What each fire and each chunk's evaluation call: the samplers with
//!   their closed forms, and the prequential, windowed and cost accounting.
//!
//! A panic annotation in these files is a latent crash in the deployment
//! loop; invariants that are genuinely unreachable are written as
//! `match`/`unreachable!` with a comment explaining why, so the gate also
//! forces the justification to exist.

/// Everything before the first `#[cfg(test)]` marker — the shipped region.
fn non_test_region(source: &str) -> &str {
    source.split("#[cfg(test)]").next().unwrap_or(source)
}

/// The pipeline crate's files, gated twice: by the annotation scan below
/// and by `pipeline_panics_are_constructor_time_only`.
const PIPELINE: [(&str, &str); 11] = [
    (
        "crates/pipeline/src/pipeline.rs",
        include_str!("../crates/pipeline/src/pipeline.rs"),
    ),
    (
        "crates/pipeline/src/component.rs",
        include_str!("../crates/pipeline/src/component.rs"),
    ),
    (
        "crates/pipeline/src/batch.rs",
        include_str!("../crates/pipeline/src/batch.rs"),
    ),
    (
        "crates/pipeline/src/parser.rs",
        include_str!("../crates/pipeline/src/parser.rs"),
    ),
    (
        "crates/pipeline/src/extract.rs",
        include_str!("../crates/pipeline/src/extract.rs"),
    ),
    (
        "crates/pipeline/src/anomaly.rs",
        include_str!("../crates/pipeline/src/anomaly.rs"),
    ),
    (
        "crates/pipeline/src/impute.rs",
        include_str!("../crates/pipeline/src/impute.rs"),
    ),
    (
        "crates/pipeline/src/scale.rs",
        include_str!("../crates/pipeline/src/scale.rs"),
    ),
    (
        "crates/pipeline/src/minmax.rs",
        include_str!("../crates/pipeline/src/minmax.rs"),
    ),
    (
        "crates/pipeline/src/encode.rs",
        include_str!("../crates/pipeline/src/encode.rs"),
    ),
    (
        "crates/pipeline/src/stats.rs",
        include_str!("../crates/pipeline/src/stats.rs"),
    ),
];

/// Constructors allowed to panic: a pipeline naming a field its schema does
/// not have, inverted clamp bounds or an absurd hash width must fail when
/// the deployment is assembled, before any chunk arrives.
const CONSTRUCTOR_PANICS: [&str; 4] = [
    "crates/pipeline/src/parser.rs: SchemaParser::new",
    "crates/pipeline/src/parser.rs: TaxiParser::new",
    "crates/pipeline/src/minmax.rs: Winsorizer::new",
    "crates/pipeline/src/encode.rs: FeatureHasher::new",
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
    for (name, source) in PIPELINE {
        let shipped = non_test_region(source);
        for token in ["panic!(", "assert!(", "assert_eq!(", "unreachable!("] {
            for (at, _) in shipped.match_indices(token) {
                let site = format!("{name}: {}", enclosing_item(shipped, at));
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
    let gated = [
        (
            "crates/ml/src/sgd.rs",
            include_str!("../crates/ml/src/sgd.rs"),
        ),
        (
            "crates/ml/src/regularizer.rs",
            include_str!("../crates/ml/src/regularizer.rs"),
        ),
        (
            "crates/ml/src/model.rs",
            include_str!("../crates/ml/src/model.rs"),
        ),
        (
            "crates/ml/src/optimizer.rs",
            include_str!("../crates/ml/src/optimizer.rs"),
        ),
        (
            "crates/storage/src/columnar.rs",
            include_str!("../crates/storage/src/columnar.rs"),
        ),
        (
            "crates/linalg/src/dense.rs",
            include_str!("../crates/linalg/src/dense.rs"),
        ),
        (
            "crates/linalg/src/vector.rs",
            include_str!("../crates/linalg/src/vector.rs"),
        ),
        (
            "crates/linalg/src/sparse.rs",
            include_str!("../crates/linalg/src/sparse.rs"),
        ),
        (
            "crates/engine/src/lib.rs",
            include_str!("../crates/engine/src/lib.rs"),
        ),
        (
            "crates/core/src/pipeline_manager.rs",
            include_str!("../crates/core/src/pipeline_manager.rs"),
        ),
        (
            "crates/core/src/proactive.rs",
            include_str!("../crates/core/src/proactive.rs"),
        ),
        (
            "crates/storage/src/disk.rs",
            include_str!("../crates/storage/src/disk.rs"),
        ),
        (
            "crates/storage/src/tiered.rs",
            include_str!("../crates/storage/src/tiered.rs"),
        ),
        (
            "crates/storage/src/wal.rs",
            include_str!("../crates/storage/src/wal.rs"),
        ),
        (
            "crates/storage/src/checkpoint.rs",
            include_str!("../crates/storage/src/checkpoint.rs"),
        ),
        (
            "crates/storage/src/store.rs",
            include_str!("../crates/storage/src/store.rs"),
        ),
        (
            "crates/core/src/data_manager.rs",
            include_str!("../crates/core/src/data_manager.rs"),
        ),
        (
            "crates/core/src/deployment.rs",
            include_str!("../crates/core/src/deployment.rs"),
        ),
        (
            "crates/core/src/serving.rs",
            include_str!("../crates/core/src/serving.rs"),
        ),
        (
            "crates/core/src/checkpoint.rs",
            include_str!("../crates/core/src/checkpoint.rs"),
        ),
        (
            "crates/obs/src/registry.rs",
            include_str!("../crates/obs/src/registry.rs"),
        ),
        (
            "crates/obs/src/recorder.rs",
            include_str!("../crates/obs/src/recorder.rs"),
        ),
        (
            "crates/obs/src/timeseries.rs",
            include_str!("../crates/obs/src/timeseries.rs"),
        ),
        (
            "crates/obs/src/alerts.rs",
            include_str!("../crates/obs/src/alerts.rs"),
        ),
        (
            "crates/obs/src/slo.rs",
            include_str!("../crates/obs/src/slo.rs"),
        ),
        (
            "crates/obs/src/crc.rs",
            include_str!("../crates/obs/src/crc.rs"),
        ),
        (
            "crates/sampling/src/strategy.rs",
            include_str!("../crates/sampling/src/strategy.rs"),
        ),
        (
            "crates/sampling/src/analysis.rs",
            include_str!("../crates/sampling/src/analysis.rs"),
        ),
        (
            "crates/sampling/src/lib.rs",
            include_str!("../crates/sampling/src/lib.rs"),
        ),
        (
            "crates/eval/src/prequential.rs",
            include_str!("../crates/eval/src/prequential.rs"),
        ),
        (
            "crates/eval/src/windowed.rs",
            include_str!("../crates/eval/src/windowed.rs"),
        ),
        (
            "crates/eval/src/cost.rs",
            include_str!("../crates/eval/src/cost.rs"),
        ),
        (
            "crates/eval/src/lib.rs",
            include_str!("../crates/eval/src/lib.rs"),
        ),
    ];
    // The registry's unit tests live in its crate root and the two crate
    // roots hold no tests at all, so the whole file is shipped code.
    let untested = [
        "crates/obs/src/registry.rs",
        "crates/sampling/src/lib.rs",
        "crates/eval/src/lib.rs",
    ];
    for (name, source) in gated.into_iter().chain(PIPELINE) {
        let shipped = non_test_region(source);
        assert!(
            shipped.len() < source.len() || untested.contains(&name),
            "{name}: expected a #[cfg(test)] module splitting the file"
        );
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
