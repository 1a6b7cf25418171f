//! The component contract: `update` + `transform` (paper §4.3).

use crate::batch::ColumnBatch;

/// Why a checkpointed component-state payload failed to decode.
///
/// Checkpoint payloads are CRC-protected on disk, so in a healthy system a
/// restore never sees malformed bytes — but a logic error (states fed to the
/// wrong component, a framing bug upstream) must surface as a typed error
/// rather than being silently swallowed and leaving cold statistics behind a
/// warm-looking pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateDecodeError {
    /// Payload ends before its fixed-size header is complete.
    Truncated {
        /// Bytes required to make progress.
        needed: usize,
        /// Bytes actually present.
        found: usize,
    },
    /// Payload length disagrees with the element count its header declares.
    LengthMismatch {
        /// Length implied by the header.
        expected: usize,
        /// Actual payload length.
        found: usize,
    },
    /// A string field is not valid UTF-8.
    InvalidUtf8,
}

impl std::fmt::Display for StateDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateDecodeError::Truncated { needed, found } => {
                write!(
                    f,
                    "state payload truncated: needed {needed} bytes, found {found}"
                )
            }
            StateDecodeError::LengthMismatch { expected, found } => write!(
                f,
                "state payload length {found} disagrees with its header (expected {expected})"
            ),
            StateDecodeError::InvalidUtf8 => write!(f, "state payload holds invalid UTF-8"),
        }
    }
}

impl std::error::Error for StateDecodeError {}

/// A pipeline stage operating on a parsed [`ColumnBatch`].
///
/// The pipeline manager drives components through exactly two entry points,
/// matching the paper's deployment contract:
///
/// * during **online learning** it calls [`Component::update`] then
///   [`Component::transform`] on each arriving chunk;
/// * for **prediction queries** and **re-materialization** it calls only
///   `transform`, so the exact same preprocessing is applied at training and
///   serving time (train/serve consistency, §4.3). A query is a one-row
///   batch through the same kernels.
///
/// Implementations must keep `update` *incremental*: folding a batch into
/// the statistics must be equivalent to folding its rows one at a time, in
/// row order. Components that would need a full rescan (exact percentiles,
/// PCA) are not admissible (§3.1) and should report
/// `is_incremental() == false`, which the pipeline builder rejects.
pub trait Component: Send + Sync {
    /// Stable component name for reports and cost attribution.
    fn name(&self) -> &str;

    /// Incrementally folds a batch into the component statistics.
    ///
    /// Stateless components keep the default no-op.
    fn update(&mut self, _batch: &ColumnBatch<'_>) {}

    /// Transforms a batch in place with the current statistics. May drop
    /// rows ([`ColumnBatch::retain`]) or change the column set (feature
    /// extractors).
    fn transform(&self, batch: &mut ColumnBatch<'_>);

    /// Whether `update` is an exact incremental computation. Non-incremental
    /// components are rejected at pipeline construction.
    fn is_incremental(&self) -> bool {
        true
    }

    /// Whether the component keeps statistics at all.
    fn is_stateful(&self) -> bool {
        false
    }

    /// Serializes the component's online statistics for a deployment
    /// checkpoint. Stateless components keep the default empty payload.
    fn state_bytes(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores statistics captured by [`Component::state_bytes`] on a
    /// component of the same type and position. Stateless components keep
    /// the default no-op. Malformed bytes must leave the state unchanged
    /// and report a typed [`StateDecodeError`].
    fn restore_state(&mut self, _bytes: &[u8]) -> Result<(), StateDecodeError> {
        Ok(())
    }

    /// Clones the component with its statistics (pipeline snapshots).
    fn clone_box(&self) -> Box<dyn Component>;
}

impl Clone for Box<dyn Component> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::SelectColumns;

    #[test]
    fn a_stateless_component_keeps_the_defaults_and_clones_boxed() {
        let mut select: Box<dyn Component> = Box::new(SelectColumns::new(vec![1]));
        let mut batch = ColumnBatch::with_capacity(1, 2);
        batch.push_row(1.0, &[3.0, 4.0], std::iter::empty());
        select.update(&batch); // the default no-op
        assert!(select.is_incremental());
        assert!(!select.is_stateful());
        assert!(select.state_bytes().is_empty());
        assert_eq!(select.restore_state(&[1, 2, 3]), Ok(()));
        let cloned = select.clone();
        assert_eq!(cloned.name(), "select-columns");
        cloned.transform(&mut batch);
        assert_eq!(batch.col(0), Some(&[4.0][..]));
    }
}
