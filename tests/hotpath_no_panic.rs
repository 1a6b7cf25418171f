//! Source-level gate for the two paths every arriving chunk runs through:
//! they must not carry `.unwrap()` / `.expect(` outside their test modules.
//!
//! - The training hot path: the SGD inner loop and the model, penalty and
//!   optimizer it updates, the dense, sparse and columnar row kernels, the
//!   engine, and the pipeline manager and proactive trainer that drive them.
//! - The platform's overhead path around it: the chunk store, spill log,
//!   WAL and checkpoint files, the deployment loop with its data manager,
//!   serving publishes and checkpoint codec, and the telemetry sample
//!   (registry, time series, alert and SLO monitors, recorder, checksum).
//!
//! A panic annotation in these files is a latent crash in the deployment
//! loop; invariants that are genuinely unreachable are written as
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
    ];
    for (name, source) in gated {
        let shipped = non_test_region(source);
        // The registry's unit tests live in its crate root, so the whole
        // file is shipped code.
        assert!(
            shipped.len() < source.len() || name == "crates/obs/src/registry.rs",
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
