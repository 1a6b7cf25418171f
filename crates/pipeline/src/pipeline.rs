//! Pipeline composition: parser → components → encoder.

use std::sync::Arc;

use cdp_storage::{
    durable, ColumnSlab, FeatureChunk, KeptColumns, LabeledPoint, RawChunk, RawRows, Record,
    RowView,
};

use crate::batch::ColumnBatch;
use crate::component::Component;
use crate::encode::Encoder;
use crate::parser::Parser;

/// Work counters for cost attribution (rows touched per code path).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineCounters {
    /// Raw records parsed.
    pub parsed_records: u64,
    /// Row-stage statistic updates performed (rows × stateful components).
    pub update_rows: u64,
    /// Row-stage transformations performed (rows × components).
    pub transform_rows: u64,
    /// Feature vectors encoded.
    pub encoded_points: u64,
}

/// Errors constructing a pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// A component declared non-incremental statistics; the platform cannot
    /// deploy it (paper §3.1).
    NonIncremental {
        /// The offending component name.
        component: String,
    },
    /// A checkpoint carried a different number of component-state payloads
    /// than the pipeline has stages — the checkpoint belongs to a different
    /// pipeline structure.
    StateCountMismatch {
        /// Payloads the pipeline structure requires (components + encoder).
        expected: usize,
        /// Payloads the checkpoint actually carried.
        found: usize,
    },
    /// A component-state payload failed structural validation during
    /// restore; the component's statistics were left untouched.
    CorruptState {
        /// The component whose payload failed to decode.
        component: String,
        /// Why the payload failed to decode.
        source: durable::Error,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::NonIncremental { component } => write!(
                f,
                "component '{component}' requires non-incremental statistics, \
                 which the continuous-deployment platform does not support"
            ),
            PipelineError::StateCountMismatch { expected, found } => write!(
                f,
                "checkpoint carries {found} component-state payloads but the \
                 pipeline structure requires {expected}"
            ),
            PipelineError::CorruptState { component, source } => write!(
                f,
                "component '{component}' rejected its checkpointed state: {source}"
            ),
        }
    }
}

impl std::error::Error for PipelineError {}

/// A deployable preprocessing pipeline.
///
/// Two processing paths mirror the paper's deployment contract:
///
/// * [`Pipeline::fit_transform_chunk`] — *online learning path*: every
///   stateful stage updates its statistics from the arriving chunk, then
///   transforms it (online statistics computation, §3.1);
/// * [`Pipeline::transform_chunk`] (on a shared pipeline,
///   [`Pipeline::rematerialize`]) — *transform-only path*: used for
///   prediction queries and for **re-materializing** evicted feature chunks;
///   statistics are left untouched.
///
/// The first stage that keeps columns ([`Component::kept_columns`]) keeps
/// them when only stateless stages run before it: then its input, and so
/// what it keeps, is a pure function of the raw chunk. The online path
/// returns them with the chunk's features and the transform-only path takes
/// them back, so that a re-materialization skips their computation and is
/// still the same bits.
///
/// Cloning a pipeline snapshots all component statistics (warm starting).
#[derive(Clone)]
pub struct Pipeline {
    parser: Box<dyn Parser>,
    components: Vec<Box<dyn Component>>,
    encoder: Box<dyn Encoder>,
    counters: PipelineCounters,
    /// The component whose columns are kept, if any.
    keeper: Option<usize>,
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("parser", &self.parser.name())
            .field(
                "components",
                &self.components.iter().map(|c| c.name()).collect::<Vec<_>>(),
            )
            .field("encoder", &self.encoder.name())
            .field("dim", &self.encoder.dim())
            .finish()
    }
}

/// Builder for [`Pipeline`].
pub struct PipelineBuilder {
    parser: Box<dyn Parser>,
    components: Vec<Box<dyn Component>>,
}

impl PipelineBuilder {
    /// Starts a pipeline with an input parser.
    pub fn new(parser: impl Parser + 'static) -> Self {
        Self {
            parser: Box::new(parser),
            components: Vec::new(),
        }
    }

    /// Appends a component.
    #[allow(clippy::should_implement_trait)]
    pub fn add(mut self, component: impl Component + 'static) -> Self {
        self.components.push(Box::new(component));
        self
    }

    /// Finishes with an encoder.
    ///
    /// # Errors
    /// [`PipelineError::NonIncremental`] when any component declares
    /// non-incrementally-computable statistics.
    pub fn encoder(self, encoder: impl Encoder + 'static) -> Result<Pipeline, PipelineError> {
        for c in &self.components {
            if !c.is_incremental() {
                return Err(PipelineError::NonIncremental {
                    component: c.name().to_owned(),
                });
            }
        }
        let keeper = self
            .components
            .iter()
            .position(|c| c.is_stateful() || c.kept_columns() > 0)
            .filter(|&i| self.components[i].kept_columns() > 0);
        Ok(Pipeline {
            parser: self.parser,
            components: self.components,
            encoder: Box::new(encoder),
            counters: PipelineCounters::default(),
            keeper,
        })
    }
}

/// Every buffer a prediction query needs from record to encoded row, kept
/// between queries: an emptied batch, which carries the stages' spare
/// buffers, and the last one-row slab. It borrows nothing and belongs to no
/// pipeline ([`Pipeline::query`] rebuilds both), so one scratch serves any
/// sequence of records and pipelines, and a query it is large enough for
/// allocates nothing.
#[derive(Debug, Default)]
pub struct QueryScratch {
    batch: ColumnBatch<'static>,
    slab: Option<ColumnSlab>,
}

/// A scratch left with room for more tokens than this is dropped, not kept,
/// so one huge record cannot pin its memory on every serving thread. Tokens
/// are all a record sizes in it (16 bytes each, 16 for the encoder's entry,
/// 12 for the row's cell; buffers at most double: under 48 KiB); the other
/// buffers are as wide as the pipeline. A URL query holds a dozen.
const QUERY_SCRATCH_MAX_TOKENS: usize = 512;

impl Pipeline {
    /// `chunk`'s records parsed into a [`ColumnBatch`](crate::ColumnBatch),
    /// the one batch every component then edits in place: no per-row
    /// intermediate exists.
    fn parse<'r>(&self, chunk: &'r RawChunk, counters: &mut PipelineCounters) -> ColumnBatch<'r> {
        counters.parsed_records += chunk.len() as u64;
        self.parser.parse(chunk.rows(), ColumnBatch::default())
    }

    /// The encoder's slab of the finished batch: the chunk that gets stored.
    fn encode(
        &self,
        chunk: &RawChunk,
        batch: ColumnBatch<'_>,
        counters: &mut PipelineCounters,
    ) -> FeatureChunk {
        counters.encoded_points += batch.len() as u64;
        let slab = Arc::new(self.encoder.encode(batch));
        FeatureChunk::from_slab(chunk.timestamp, chunk.timestamp, slab)
    }

    /// Online-learning path over a raw chunk: each stateful stage folds the
    /// batch into its statistics before transforming it. Produces the
    /// feature chunk to store (with the back-reference for dynamic
    /// materialization), carrying the columns the pipeline keeps.
    pub fn fit_transform_chunk(&mut self, chunk: &RawChunk) -> FeatureChunk {
        let mut counters = self.counters;
        let mut batch = self.parse(chunk, &mut counters);
        let mut kept = None;
        for (i, component) in self.components.iter_mut().enumerate() {
            let rows = batch.len();
            if component.is_stateful() {
                component.update(&batch);
                counters.update_rows += rows as u64;
            }
            counters.transform_rows += rows as u64;
            component.transform(&mut batch);
            if self.keeper == Some(i) && batch.len() == rows {
                let columns = batch.columns().take(component.kept_columns());
                kept = Some(KeptColumns::copy_of(columns, rows));
            }
        }
        if self.encoder.is_stateful() {
            self.encoder.update(&batch);
            counters.update_rows += batch.len() as u64;
        }
        let features = self.encode(chunk, batch, &mut counters);
        self.counters = counters;
        features.with_kept(kept)
    }

    /// Transform-only path over a raw chunk — the **re-materialization**
    /// operation of dynamic materialization (§3.2) — with the work counted
    /// into the pipeline's counters.
    pub fn transform_chunk(&mut self, chunk: &RawChunk) -> FeatureChunk {
        let (features, counters) = self.rematerialize(chunk, None);
        self.absorb_counters(counters);
        features
    }

    /// The transform-only path on a shared pipeline: the chunk's features
    /// and the work they took. `kept` are the columns the online path
    /// returned for this chunk ([`FeatureChunk::kept`]); the stage that kept
    /// them copies them in instead of computing them.
    pub fn rematerialize(
        &self,
        chunk: &RawChunk,
        kept: Option<&KeptColumns>,
    ) -> (FeatureChunk, PipelineCounters) {
        let mut counters = PipelineCounters::default();
        let mut batch = self.parse(chunk, &mut counters);
        for (i, component) in self.components.iter().enumerate() {
            counters.transform_rows += batch.len() as u64;
            match kept {
                Some(kept) if self.keeper == Some(i) => component.transform_kept(&mut batch, kept),
                _ => component.transform(&mut batch),
            }
        }
        (self.encode(chunk, batch, &mut counters), counters)
    }

    /// Preprocesses one prediction query: [`Pipeline::query`] in a fresh
    /// scratch, the encoded row copied out as a point.
    pub fn transform_query(&self, record: &Record) -> Option<LabeledPoint> {
        self.query(record, &mut QueryScratch::default(), |row| row.to_point())
    }

    /// The query path: `record` as a one-row batch through the same kernels
    /// as [`Pipeline::transform_chunk`], in `scratch`'s buffers, then `f` on
    /// the encoded row; `None` when the record is malformed or filtered out
    /// by a cleaning stage. Does not touch any statistics and does not count
    /// toward the work counters (the cost model accounts queries separately).
    pub fn query<R>(
        &self,
        record: &Record,
        scratch: &mut QueryScratch,
        f: impl FnOnce(RowView<'_>) -> R,
    ) -> Option<R> {
        let recycled = std::mem::take(&mut scratch.batch);
        let mut batch = self.parser.parse(RawRows::one(record), recycled);
        for component in &self.components {
            if batch.is_empty() {
                break;
            }
            component.transform(&mut batch);
        }
        // A batch that ended empty still replaces the last query's row.
        let slab = self.encoder.encode_into(&mut batch, scratch.slab.take());
        scratch.batch = batch.recycle(0, 0);
        let out = (!slab.is_empty()).then(|| f(slab.row(0)));
        scratch.slab = Some(slab);
        if scratch.batch.tokens.capacity() > QUERY_SCRATCH_MAX_TOKENS {
            *scratch = QueryScratch::default();
        }
        out
    }

    /// Current encoder output dimension.
    pub fn dim(&self) -> usize {
        self.encoder.dim()
    }

    /// Stateful stages (encoder too) and row components: [`PipelineCounters`]' per-row factors.
    pub fn stage_counts(&self) -> (u64, u64) {
        let stateful = self.components.iter().filter(|c| c.is_stateful()).count();
        let stateful = stateful + usize::from(self.encoder.is_stateful());
        (stateful as u64, self.components.len() as u64)
    }

    /// Component names, parser first, encoder last.
    pub fn stage_names(&self) -> Vec<&str> {
        let mut names = vec![self.parser.name()];
        names.extend(self.components.iter().map(|c| c.name()));
        names.push(self.encoder.name());
        names
    }

    /// Work counters.
    pub fn counters(&self) -> PipelineCounters {
        self.counters
    }

    /// Adds another counter snapshot into this pipeline's counters — used
    /// when work was executed on cloned pipelines (chunk-parallel
    /// transformation on the execution engine) and must be attributed to
    /// the deployed instance for cost accounting.
    pub fn absorb_counters(&mut self, other: PipelineCounters) {
        self.counters.parsed_records += other.parsed_records;
        self.counters.update_rows += other.update_rows;
        self.counters.transform_rows += other.transform_rows;
        self.counters.encoded_points += other.encoded_points;
    }

    /// Overwrites the work counters (checkpoint restore).
    pub fn set_counters(&mut self, counters: PipelineCounters) {
        self.counters = counters;
    }

    /// Serializes every stage's online statistics for a deployment
    /// checkpoint: one payload per component in pipeline order, with the
    /// encoder's payload last. Stateless stages contribute empty payloads so
    /// positions stay aligned with the pipeline structure.
    pub fn component_states(&self) -> Vec<Vec<u8>> {
        let mut states: Vec<Vec<u8>> = self.components.iter().map(|c| c.state_bytes()).collect();
        states.push(self.encoder.state_bytes());
        states
    }

    /// Restores statistics captured by [`Pipeline::component_states`] on a
    /// pipeline with the same structure.
    ///
    /// # Errors
    /// [`PipelineError::StateCountMismatch`] when the payload count is not
    /// `components + 1` (the checkpoint belongs to a different pipeline
    /// structure), and [`PipelineError::CorruptState`] when a component
    /// rejects its payload. Checkpoint payloads are CRC-protected on disk,
    /// so either error indicates a framing logic error upstream; the
    /// offending component's statistics are left untouched, but components
    /// earlier in the pipeline may already have been restored.
    pub fn restore_component_states(&mut self, states: &[Vec<u8>]) -> Result<(), PipelineError> {
        if states.len() != self.components.len() + 1 {
            return Err(PipelineError::StateCountMismatch {
                expected: self.components.len() + 1,
                found: states.len(),
            });
        }
        for (component, bytes) in self.components.iter_mut().zip(states) {
            component
                .restore_state(bytes)
                .map_err(|source| PipelineError::CorruptState {
                    component: component.name().to_owned(),
                    source,
                })?;
        }
        if let Some(bytes) = states.last() {
            self.encoder
                .restore_state(bytes)
                .map_err(|source| PipelineError::CorruptState {
                    component: self.encoder.name().to_owned(),
                    source,
                })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::DenseEncoder;
    use crate::impute::MeanImputer;
    use crate::parser::SchemaParser;
    use crate::scale::StandardScaler;
    use crate::ColumnBatch;
    use cdp_storage::{Schema, Timestamp, Value};

    fn sample_pipeline() -> Pipeline {
        let schema = Schema::new(["y", "a", "b"]);
        let parser = SchemaParser::new(schema, "y", &["a", "b"], None);
        PipelineBuilder::new(parser)
            .add(MeanImputer::new())
            .add(StandardScaler::new())
            .encoder(DenseEncoder::new(2))
            .unwrap()
    }

    fn chunk(ts: u64, rows: &[(f64, f64, f64)]) -> RawChunk {
        let records = rows
            .iter()
            .map(|&(y, a, b)| Record::new(vec![Value::Num(y), Value::Num(a), Value::Num(b)]))
            .collect();
        RawChunk::new(Timestamp(ts), records)
    }

    #[test]
    fn fit_transform_produces_feature_chunk() {
        let mut p = sample_pipeline();
        let raw = chunk(0, &[(1.0, 2.0, 3.0), (0.0, 4.0, 5.0)]);
        let fc = p.fit_transform_chunk(&raw);
        assert_eq!(fc.timestamp, Timestamp(0));
        assert_eq!(fc.raw_ref, Timestamp(0));
        assert_eq!(fc.len(), 2);
        assert_eq!(fc.row(0).dim(), 3); // bias + 2 cols
    }

    #[test]
    fn query_path_matches_training_path() {
        // Train/serve consistency: the same record preprocessed via the
        // query path equals its transform-only training representation.
        let mut p = sample_pipeline();
        p.fit_transform_chunk(&chunk(0, &[(1.0, 2.0, 3.0), (0.0, 4.0, 7.0)]));
        let record = Record::new(vec![Value::Num(1.0), Value::Num(3.0), Value::Num(5.0)]);
        let query = p.transform_query(&record).unwrap();
        let training = p.transform_chunk(&RawChunk::new(Timestamp(9), vec![record]));
        assert_eq!(query, training.row(0).to_point());
    }

    #[test]
    fn a_scratch_a_huge_record_grew_is_dropped_not_kept() {
        let schema = Schema::new(["y", "text"]);
        let p = PipelineBuilder::new(SchemaParser::new(schema, "y", &[], Some("text")))
            .encoder(crate::encode::FeatureHasher::new(8, 0))
            .unwrap();
        let query = |text: &str| Record::new(vec![Value::Num(1.0), Value::Text(text.into())]);
        let mut scratch = QueryScratch::default();
        // An ordinary query leaves its buffers behind for the next one ...
        assert_eq!(
            p.query(&query("a b c"), &mut scratch, |row| row.dim()),
            Some(257)
        );
        let kept = scratch.batch.tokens.capacity();
        assert!(kept >= 3 && scratch.slab.is_some());
        assert!(scratch.batch.is_empty() && scratch.batch.all_tokens().is_empty());
        // ... also when the query after it ends at the parser, which still
        // replaces the row: a rejected record cannot be scored as the last one.
        let malformed = Record::new(vec![Value::Text("label?".into())]);
        assert_eq!(p.query(&malformed, &mut scratch, |row| row.dim()), None);
        assert_eq!(scratch.batch.tokens.capacity(), kept);
        assert!(scratch.slab.as_ref().is_some_and(|slab| slab.is_empty()));
        // A bag past the bound is answered like any other and then takes its
        // buffers with it; the next query starts from nothing again.
        let huge = "t ".repeat(QUERY_SCRATCH_MAX_TOKENS + 1);
        let repeated = |row: RowView<'_>| row.sparse_parts().map(|(indices, _)| indices.len());
        assert_eq!(
            p.query(&query(&huge), &mut scratch, repeated),
            Some(Some(2))
        );
        assert_eq!(scratch.batch.tokens.capacity(), 0);
        assert!(scratch.slab.is_none());
        assert_eq!(
            p.query(&query("a b c"), &mut scratch, |row| row.dim()),
            Some(257)
        );
        assert!(scratch.batch.tokens.capacity() > 0);
    }

    #[test]
    fn query_on_malformed_record_is_none() {
        let p = sample_pipeline();
        let bad = Record::new(vec![Value::Text("not-a-number".into())]);
        assert!(p.transform_query(&bad).is_none());
    }

    #[test]
    fn counters_track_work() {
        let mut p = sample_pipeline();
        p.fit_transform_chunk(&chunk(0, &[(1.0, 2.0, 3.0), (0.0, 4.0, 5.0)]));
        let c = p.counters();
        assert_eq!(c.parsed_records, 2);
        assert_eq!(c.update_rows, 4); // 2 rows × 2 stateful components
        assert_eq!(c.transform_rows, 4); // 2 rows × 2 components
        assert_eq!(c.encoded_points, 2);
        assert_eq!(p.stage_counts(), (c.update_rows / 2, c.transform_rows / 2));
        p.set_counters(PipelineCounters::default());
        p.transform_chunk(&chunk(1, &[(1.0, 2.0, 3.0)]));
        let c = p.counters();
        assert_eq!((c.parsed_records, c.update_rows), (1, 0));
        assert_eq!((c.transform_rows, c.encoded_points), (2, 1));
    }

    #[test]
    fn snapshot_clone_freezes_statistics() {
        let mut p = sample_pipeline();
        p.fit_transform_chunk(&chunk(0, &[(1.0, 2.0, 3.0), (0.0, 4.0, 5.0)]));
        let snapshot = p.clone();
        // Advance the original's statistics.
        p.fit_transform_chunk(&chunk(1, &[(1.0, 100.0, 200.0)]));
        // The snapshot still transforms with the old statistics...
        let mut snap = snapshot.clone();
        let from_snapshot = snap.transform_chunk(&chunk(5, &[(0.0, 4.0, 5.0)]));
        // ... which differ from the advanced pipeline's output.
        let from_advanced = p.transform_chunk(&chunk(6, &[(0.0, 4.0, 5.0)]));
        assert_ne!(from_snapshot.slab(), from_advanced.slab());
    }

    #[test]
    fn component_states_round_trip_bit_identically() {
        let mut trained = sample_pipeline();
        trained.fit_transform_chunk(&chunk(0, &[(1.0, 2.0, 3.0), (0.0, 4.0, 5.0)]));
        trained.fit_transform_chunk(&chunk(1, &[(1.0, 6.0, 1.0)]));

        let mut restored = sample_pipeline();
        restored
            .restore_component_states(&trained.component_states())
            .expect("well-formed states restore");
        restored.set_counters(trained.counters());

        let probe = chunk(9, &[(0.0, 3.3, 4.4)]);
        let a = trained.transform_chunk(&probe);
        let b = restored.transform_chunk(&probe);
        assert_eq!(a, b);
        assert_eq!(trained.counters(), restored.counters());
    }

    #[test]
    fn restore_rejects_mismatched_state_count() {
        let mut p = sample_pipeline();
        assert_eq!(
            p.restore_component_states(&[Vec::new()]),
            Err(PipelineError::StateCountMismatch {
                expected: 3,
                found: 1
            })
        );
    }

    /// An imputer, a scaler and a one-hot encoder, trained on `rows` of
    /// `(y, a, text)`: three stateful payloads.
    fn stateful_pipeline(rows: &[(f64, f64, &str)]) -> Pipeline {
        let schema = Schema::new(["y", "a", "text"]);
        let parser = SchemaParser::new(schema, "y", &["a"], Some("text"));
        let mut p = PipelineBuilder::new(parser)
            .add(MeanImputer::new())
            .add(StandardScaler::new())
            .encoder(crate::encode::OneHotEncoder::new(1))
            .unwrap();
        let records = rows
            .iter()
            .map(|&(y, a, text)| {
                Record::new(vec![Value::Num(y), Value::Num(a), Value::Text(text.into())])
            })
            .collect();
        p.fit_transform_chunk(&RawChunk::new(Timestamp(0), records));
        p
    }

    #[test]
    fn restore_rejects_corrupt_component_payload() {
        // Every strict prefix of each stateful payload, and the payload with
        // a byte appended: the CRC layer upstream would normally catch these,
        // so the decode must fail typed, never leave a cold component behind
        // a warm-looking pipeline.
        let trained = stateful_pipeline(&[(1.0, 2.0, "red blue"), (0.0, f64::NAN, "día")]);
        let states = trained.component_states();
        let other = stateful_pipeline(&[(1.0, -3.0, "green")]);
        let stages = ["mean-imputer", "standard-scaler", "one-hot-encoder"];
        for (at, stage) in stages.into_iter().enumerate() {
            let payload = &states[at];
            let cuts =
                (0..payload.len()).map(|cut| (payload[..cut].to_vec(), durable::Error::Truncated));
            let appended = ([&payload[..], &[0]].concat(), durable::Error::Trailing(1));
            for (bytes, source) in cuts.chain([appended]) {
                let mut damaged = states.clone();
                damaged[at] = bytes;
                // Stages before the damaged one take their payloads; it and
                // those after it keep their statistics, so a restore onto the
                // trained pipeline leaves its states unchanged.
                for target in [&trained, &other] {
                    let mut p = target.clone();
                    assert_eq!(
                        p.restore_component_states(&damaged),
                        Err(PipelineError::CorruptState {
                            component: stage.into(),
                            source: source.clone(),
                        })
                    );
                    let mut expected = target.component_states();
                    expected[..at].clone_from_slice(&states[..at]);
                    assert_eq!(p.component_states(), expected, "{stage}");
                }
            }
        }
    }

    #[test]
    fn builder_rejects_non_incremental_components() {
        #[derive(Clone)]
        struct ExactPercentile;
        impl Component for ExactPercentile {
            fn name(&self) -> &str {
                "exact-percentile"
            }
            fn transform(&self, _batch: &mut ColumnBatch<'_>) {}
            fn is_incremental(&self) -> bool {
                false
            }
            fn clone_box(&self) -> Box<dyn Component> {
                Box::new(self.clone())
            }
        }

        let schema = Schema::new(["y"]);
        let parser = SchemaParser::new(schema, "y", &[], None);
        let err = PipelineBuilder::new(parser)
            .add(ExactPercentile)
            .encoder(DenseEncoder::new(0))
            .unwrap_err();
        assert_eq!(
            err,
            PipelineError::NonIncremental {
                component: "exact-percentile".into()
            }
        );
    }

    #[test]
    fn stage_names_are_ordered() {
        let p = sample_pipeline();
        assert_eq!(
            p.stage_names(),
            vec![
                "schema-parser",
                "mean-imputer",
                "standard-scaler",
                "dense-encoder"
            ]
        );
    }
}
