//! The component contract: `update` + `transform` (paper §4.3).

use cdp_storage::{durable, KeptColumns};

use crate::batch::ColumnBatch;

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

    /// How many of this stage's output columns, from the first, are a pure
    /// function of its input rows that costs more to compute than to copy.
    /// When every stage before this one is stateless, the pipeline keeps them
    /// per chunk on arrival ([`KeptColumns`]) and hands them back to
    /// [`Component::transform_kept`] to re-materialize the chunk. Such a
    /// stage drops no row; the default keeps no column.
    fn kept_columns(&self) -> usize {
        0
    }

    /// [`Component::transform`] with the first [`Component::kept_columns`]
    /// output columns copied from `kept`, which this stage computed from the
    /// same rows before, instead of computed: the same bits. Kept columns
    /// that do not fit the batch are ignored; so is `kept` by the default.
    fn transform_kept(&self, batch: &mut ColumnBatch<'_>, _kept: &KeptColumns) {
        self.transform(batch);
    }

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
    /// and report a typed [`durable::Error`].
    fn restore_state(&mut self, _bytes: &[u8]) -> Result<(), durable::Error> {
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
