//! Source-level gate for the training hot path: the SGD inner loop and the
//! model, penalty and optimizer it updates, the dense, sparse and columnar
//! row kernels, the engine, and the pipeline manager and proactive trainer
//! that drive them must not carry `.unwrap()` / `.expect(` outside their test
//! modules. A panic annotation in these files is a latent crash in the
//! deployment loop; invariants that are genuinely unreachable are written as
//! `match`/`unreachable!` with a comment explaining why, so the gate also
//! forces the justification to exist.

/// Everything before the first `#[cfg(test)]` marker — the shipped region.
fn non_test_region(source: &str) -> &str {
    source.split("#[cfg(test)]").next().unwrap_or(source)
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
    ];
    for (name, source) in gated {
        let shipped = non_test_region(source);
        assert!(
            shipped.len() < source.len(),
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
