//! Property-based tests of the pipeline contract: the column pipeline is
//! bit-identical to the row-at-a-time reference it replaced, transform-only
//! is pure, and re-materialization is exact.

mod row_reference;

use cdp_linalg::Vector;
use cdp_pipeline::anomaly::AnomalyFilter;
use cdp_pipeline::encode::{DenseEncoder, Encoder, FeatureHasher, OneHotEncoder};
use cdp_pipeline::extract::{SelectColumns, TaxiFeatureExtractor};
use cdp_pipeline::impute::MeanImputer;
use cdp_pipeline::parser::{SchemaParser, TaxiParser};
use cdp_pipeline::scale::StandardScaler;
use cdp_pipeline::{ColumnBatch, Component, Pipeline, PipelineBuilder, QueryScratch};
use cdp_storage::{
    ColumnSlab, FeatureChunk, KeptColumns, LabeledPoint, RawChunk, Record, Schema, SlabLayout,
    Timestamp, Value, ValueRef,
};
use proptest::prelude::*;
use row_reference::{Encoder as RowEncoder, Parser as RowParser, RowPipeline, Stage};

fn numeric_pipeline() -> Pipeline {
    let schema = Schema::new(["y", "a", "b"]);
    PipelineBuilder::new(SchemaParser::new(schema, "y", &["a", "b"], None))
        .add(MeanImputer::new())
        .add(StandardScaler::new())
        .encoder(DenseEncoder::new(2))
        .expect("incremental components")
}

fn chunk_of(ts: u64, rows: &[(f64, f64, f64)]) -> RawChunk {
    RawChunk::new(
        Timestamp(ts),
        rows.iter()
            .map(|&(y, a, b)| Record::new(vec![Value::Num(y), Value::Num(a), Value::Num(b)]))
            .collect(),
    )
}

fn row_strategy() -> impl Strategy<Value = Vec<(f64, f64, f64)>> {
    prop::collection::vec((-5.0..5.0f64, -100.0..100.0f64, -100.0..100.0f64), 1..20)
}

/// A batch of label-0 rows without tokens.
fn numeric_batch(rows: &[Vec<f64>]) -> ColumnBatch<'static> {
    let width = rows.iter().map(Vec::len).max().unwrap_or(0);
    let mut batch = ColumnBatch::with_capacity(rows.len(), width);
    for row in rows {
        batch.push_row(0.0, row, std::iter::empty());
    }
    batch
}

// ---------------------------------------------------------------------
// The differential harness: one structure, built twice.

/// A pipeline structure both implementations are built from.
#[derive(Debug, Clone)]
struct Spec {
    parser: RowParser,
    stages: Vec<Stage>,
    encoder: RowEncoder,
}

const TAXI_FIELDS: [&str; 7] = [
    "pickup_time",
    "dropoff_time",
    "pickup_lon",
    "pickup_lat",
    "dropoff_lon",
    "dropoff_lat",
    "passengers",
];

impl Spec {
    fn reference(&self) -> RowPipeline {
        RowPipeline::new(
            self.parser.clone(),
            self.stages.clone(),
            self.encoder.clone(),
        )
    }

    fn pipeline(&self) -> Pipeline {
        let mut builder = match &self.parser {
            RowParser::Schema { nums, tokens } => {
                let names: Vec<String> = (0..*nums).map(|i| format!("n{i}")).collect();
                let fields = std::iter::once("label").chain(names.iter().map(String::as_str));
                let schema = Schema::new(fields.chain(["text"]));
                let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                let parser = SchemaParser::new(schema, "label", &refs, tokens.then_some("text"));
                PipelineBuilder::new(parser)
            }
            RowParser::Taxi => PipelineBuilder::new(TaxiParser::new(Schema::new(TAXI_FIELDS))),
        };
        for stage in &self.stages {
            builder = match stage {
                Stage::Imputer(_) => builder.add(MeanImputer::new()),
                Stage::Scaler(_) => builder.add(StandardScaler::new()),
                Stage::Anomaly(bounds) => builder.add(
                    bounds
                        .iter()
                        .fold(AnomalyFilter::new("anomaly"), |filter, &(col, min, max)| {
                            filter.bound(col, min, max)
                        }),
                ),
                Stage::Select(keep) => builder.add(SelectColumns::new(keep.clone())),
                Stage::TaxiExtract => builder.add(TaxiFeatureExtractor::new()),
            };
        }
        match &self.encoder {
            RowEncoder::Hasher(bits, slots) => builder.encoder(FeatureHasher::new(*bits, *slots)),
            RowEncoder::OneHot(_, slots) => builder.encoder(OneHotEncoder::new(*slots)),
            RowEncoder::Dense(columns) => builder.encoder(DenseEncoder::new(*columns)),
        }
        .expect("incremental components")
    }

    /// The URL preset's structure (`cdp-core::presets::url_spec`).
    fn url(lexical: usize, bits: u32) -> Self {
        Spec {
            parser: RowParser::Schema {
                nums: lexical,
                tokens: true,
            },
            stages: vec![Stage::Imputer(Vec::new()), Stage::Scaler(Vec::new())],
            encoder: RowEncoder::Hasher(bits, lexical),
        }
    }

    /// The Taxi preset's structure (`cdp-core::presets::taxi_spec`).
    fn taxi() -> Self {
        Spec {
            parser: RowParser::Taxi,
            stages: vec![
                Stage::TaxiExtract,
                Stage::Anomaly(vec![(10, Some(10.0), Some(79_200.0)), (0, Some(0.0), None)]),
                Stage::Select((0..10).collect()),
                Stage::Scaler(Vec::new()),
            ],
            encoder: RowEncoder::Dense(10),
        }
    }
}

/// Everything observable about a row, floats by bit pattern: the label,
/// whether it is sparse, its dimension and its stored entries.
type Bits = (u64, bool, usize, Vec<(usize, u64)>);

fn bits(p: &LabeledPoint) -> Bits {
    let label = p.label.to_bits();
    match &p.features {
        Vector::Dense(d) => {
            let entries = d.iter().map(|v| v.to_bits()).enumerate().collect();
            (label, false, d.len(), entries)
        }
        Vector::Sparse {
            dim,
            indices,
            values,
        } => {
            let indices = indices.iter().map(|&i| i as usize);
            let entries = indices.zip(values.iter().map(|v| v.to_bits())).collect();
            (label, true, *dim, entries)
        }
    }
}

/// [`bits`] of every row of a chunk, read off its slab's columns.
fn chunk_bits(chunk: &FeatureChunk) -> Vec<Bits> {
    let (labels, layout) = ColumnSlab::clone(chunk.slab()).into_parts();
    let labels = labels.iter().map(|y| y.to_bits());
    match layout {
        SlabLayout::Dense { dim, cols } => labels
            .enumerate()
            .map(|(i, label)| {
                let entries = cols.iter().map(|col| col[i].to_bits()).enumerate();
                (label, false, dim, entries.collect())
            })
            .collect(),
        SlabLayout::Csr {
            dim,
            row_ptr,
            indices,
            values,
        } => labels
            .zip(row_ptr.windows(2))
            .map(|(label, ends)| {
                let row = ends[0] as usize..ends[1] as usize;
                let indices = indices[row.clone()].iter().map(|&i| i as usize);
                let entries = indices.zip(values[row].iter().map(|v| v.to_bits()));
                (label, true, dim, entries.collect())
            })
            .collect(),
    }
}

fn same_points(what: &str, real: &FeatureChunk, reference: &[LabeledPoint]) -> Result<(), String> {
    let reference: Vec<Bits> = reference.iter().map(bits).collect();
    let real = chunk_bits(real);
    if real != reference {
        return Err(format!(
            "{what}: column pipeline {real:?}\n  row reference {reference:?}"
        ));
    }
    Ok(())
}

fn same_state(what: &str, real: &Pipeline, reference: &RowPipeline) -> Result<(), String> {
    if real.counters() != reference.counters {
        let (a, b) = (real.counters(), reference.counters);
        return Err(format!("{what}: counters {a:?} vs reference {b:?}"));
    }
    if real.component_states() != reference.component_states() {
        return Err(format!("{what}: component state bytes differ"));
    }
    if real.dim() != reference.encoder.dim() {
        return Err(format!("{what}: dim differs"));
    }
    Ok(())
}

/// Streams `chunks` through both implementations — the online path on each
/// chunk, then a re-materialization of an earlier chunk and every record as
/// a prediction query under the statistics of the moment — and, after chunk
/// `restore_after`, swaps the column pipeline for a fresh one restored from
/// its `component_states()`.
fn check(spec: &Spec, chunks: &[Vec<Record>], restore_after: usize) -> Result<(), String> {
    let (mut real, mut reference) = (spec.pipeline(), spec.reference());
    for (t, records) in chunks.iter().enumerate() {
        let raw = RawChunk::new(Timestamp(t as u64), records.clone());
        let online = real.fit_transform_chunk(&raw);
        same_points(
            "fit_transform",
            &online,
            &reference.fit_transform(raw.rows()),
        )?;
        same_state("after fit_transform", &real, &reference)?;

        let earlier = &chunks[(t * 7 + 3) % (t + 1)];
        let raw = RawChunk::new(Timestamp(1_000 + t as u64), earlier.clone());
        let again = real.transform_chunk(&raw);
        same_points("transform", &again, &reference.transform(raw.rows()))?;
        same_state("after transform", &real, &reference)?;

        for record in records {
            let (a, b) = (
                real.transform_query(record),
                reference.transform_query(record),
            );
            if a.as_ref().map(bits) != b.as_ref().map(bits) {
                return Err(format!("query {record:?}: {a:?} vs reference {b:?}"));
            }
        }
        same_state("after queries", &real, &reference)?;

        if t == restore_after {
            let mut restored = spec.pipeline();
            restored
                .restore_component_states(&real.component_states())
                .map_err(|e| format!("restore: {e}"))?;
            restored.set_counters(real.counters());
            real = restored;
        }
    }
    Ok(())
}

/// SplitMix64: the cases below are a function of one sampled seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// A numeric field: mostly ordinary values, with exact and negative
    /// zeros, huge values, gaps, and the occasional malformed text.
    fn field(&mut self) -> Value {
        match self.below(20) {
            0..=1 => Value::Missing,
            2 => Value::Num(0.0),
            3 => Value::Num(-0.0),
            4 => Value::Num((self.unit() - 0.5) * 1e9),
            5 if self.chance(0.3) => Value::Text("n/a".into()),
            6..=8 => Value::Num(self.below(5) as f64),
            _ => Value::Num((self.unit() - 0.5) * 200.0),
        }
    }

    /// A token field over a small vocabulary, so bags repeat tokens and
    /// narrow hash spaces collide; sometimes empty, missing or malformed.
    fn text(&mut self) -> Value {
        match self.below(12) {
            0 => Value::Missing,
            1 => Value::Text(String::new()),
            2 if self.chance(0.3) => Value::Num(1.0),
            _ => {
                let n = self.below(7);
                let tokens: Vec<String> = (0..n).map(|_| format!("t{}", self.below(12))).collect();
                Value::Text(tokens.join(if self.chance(0.2) { "  " } else { " " }))
            }
        }
    }

    fn schema_chunk(&mut self, nums: usize) -> Vec<Record> {
        let rows = if self.chance(0.1) { 0 } else { self.below(12) };
        (0..rows)
            .map(|_| {
                let mut values = vec![self.field()];
                values.extend((0..nums).map(|_| self.field()));
                values.push(self.text());
                if self.chance(0.04) {
                    values.truncate(self.below(values.len()));
                }
                Record::new(values)
            })
            .collect()
    }

    /// Trips around Manhattan, a fifth of them anomalous or malformed; a
    /// `clean` chunk has only trips the anomaly filter keeps.
    fn taxi_chunk(&mut self, rows: usize, clean: bool) -> Vec<Record> {
        (0..rows)
            .map(|_| {
                let pickup = (self.unit() * 3e7).floor();
                let kind = if clean { 9 } else { self.below(20) };
                let duration = match kind {
                    0 => self.unit() * 10.0,
                    1 => 79_200.0 + self.unit() * 1e4,
                    2 => -self.unit() * 500.0,
                    _ => 60.0 + (self.unit() * 3_000.0).floor(),
                };
                let (lon, lat) = (-74.05 + self.unit() * 0.3, 40.6 + self.unit() * 0.3);
                let (d_lon, d_lat) = match kind {
                    3 => (lon, lat), // zero distance
                    _ => (-74.05 + self.unit() * 0.3, 40.6 + self.unit() * 0.3),
                };
                let coord = |v: f64, missing: bool| match missing {
                    true => Value::Missing,
                    false => Value::Num(v),
                };
                Record::new(vec![
                    Value::Num(pickup),
                    Value::Num(pickup + duration),
                    coord(lon, kind == 4),
                    Value::Num(lat),
                    Value::Num(d_lon),
                    coord(d_lat, kind == 5),
                    coord(1.0 + self.below(5) as f64, kind == 6),
                ])
            })
            .collect()
    }

    fn stage(&mut self) -> Stage {
        let col = |rng: &mut Rng| rng.below(6);
        match self.below(4) {
            0 => Stage::Imputer(Vec::new()),
            1 => Stage::Scaler(Vec::new()),
            2 => {
                let bounds = (0..1 + self.below(2)).map(|_| {
                    let min = self.chance(0.6).then(|| (self.unit() - 0.8) * 100.0);
                    let max = self.chance(0.6).then(|| (self.unit() - 0.2) * 100.0);
                    (col(self) % 4, min, max)
                });
                Stage::Anomaly(bounds.collect())
            }
            _ => Stage::Select((0..self.below(5)).map(|_| col(self) % 4).collect()),
        }
    }

    fn spec(&mut self, nums: usize) -> Spec {
        Spec {
            parser: RowParser::Schema {
                nums,
                tokens: self.chance(0.7),
            },
            stages: (0..self.below(5)).map(|_| self.stage()).collect(),
            encoder: match self.below(3) {
                0 => RowEncoder::Hasher(1 + self.below(5) as u32, self.below(6)),
                1 => RowEncoder::OneHot(Default::default(), self.below(6)),
                _ => RowEncoder::Dense(self.below(7)),
            },
        }
    }
}

proptest! {
    /// Randomly composed pipelines over random schema chunks: every output
    /// of the column pipeline equals the row reference's, bit for bit.
    #[test]
    fn random_pipelines_match_the_row_reference(seeds in prop::collection::vec(0u64..u64::MAX, 8)) {
        for seed in seeds {
            let mut rng = Rng(seed);
            let nums = rng.below(5);
            let spec = rng.spec(nums);
            let chunks: Vec<Vec<Record>> = (0..1 + rng.below(5)).map(|_| rng.schema_chunk(nums)).collect();
            let outcome = check(&spec, &chunks, rng.below(chunks.len()));
            prop_assert!(outcome.is_ok(), "seed {seed} {spec:?}: {}", outcome.unwrap_err());
        }
    }

    /// The URL preset's structure, at hash widths from all-colliding to roomy.
    #[test]
    fn url_preset_matches_the_row_reference(seeds in prop::collection::vec(0u64..u64::MAX, 4)) {
        for seed in seeds {
            let mut rng = Rng(seed);
            let lexical = 1 + rng.below(6);
            let spec = Spec::url(lexical, [1, 4, 10][rng.below(3)]);
            let chunks: Vec<Vec<Record>> = (0..2 + rng.below(4)).map(|_| rng.schema_chunk(lexical)).collect();
            let outcome = check(&spec, &chunks, rng.below(chunks.len()));
            prop_assert!(outcome.is_ok(), "seed {seed}: {}", outcome.unwrap_err());
        }
    }

    /// The Taxi preset's structure: shared-cosine extractor, filter
    /// compaction, column moves and the dense slab against the row path.
    #[test]
    fn taxi_preset_matches_the_row_reference(seeds in prop::collection::vec(0u64..u64::MAX, 4)) {
        for seed in seeds {
            let mut rng = Rng(seed);
            let chunks: Vec<Vec<Record>> = (0..2 + rng.below(4))
                .map(|_| {
                    let rows = rng.below(40);
                    rng.taxi_chunk(rows, false)
                })
                .collect();
            let outcome = check(&Spec::taxi(), &chunks, rng.below(chunks.len()));
            prop_assert!(outcome.is_ok(), "seed {seed}: {}", outcome.unwrap_err());
        }
    }
}

/// Re-materializes every chunk `pipeline` has seen, under its statistics of
/// the moment, with the columns each arrival kept: the same bits and the
/// same work as `transform_chunk`, and the statistics untouched.
fn kept_matches_transform_chunk(
    pipeline: &Pipeline,
    arrivals: &[(RawChunk, Option<KeptColumns>)],
) -> Result<(), String> {
    let states = pipeline.component_states();
    for (raw, kept) in arrivals {
        let (with_kept, counters) = pipeline.rematerialize(raw, kept.as_ref());
        let mut plain = pipeline.clone();
        plain.set_counters(Default::default());
        let without = plain.transform_chunk(raw);
        if chunk_bits(&with_kept) != chunk_bits(&without) {
            return Err(format!(
                "chunk {}: kept {kept:?} changed the rows",
                raw.timestamp
            ));
        }
        if counters != plain.counters() || pipeline.component_states() != states {
            return Err(format!(
                "chunk {}: counters {counters:?} vs {:?}",
                raw.timestamp,
                plain.counters()
            ));
        }
    }
    Ok(())
}

proptest! {
    /// What an arrival keeps, handed back to the re-materialization of the
    /// same chunk, is `transform_chunk` bit for bit, as statistics move:
    /// trips the parser drops, anomalous trips, empty and one-row chunks.
    /// A pipeline whose extractor runs after a stateful stage, and the URL
    /// structure, which has no extractor, keep nothing and still match.
    #[test]
    fn a_rematerialization_with_the_kept_columns_is_transform_chunk_bit_for_bit(
        seeds in prop::collection::vec(0u64..u64::MAX, 4),
    ) {
        for seed in seeds {
            let mut rng = Rng(seed);
            let lexical = 1 + rng.below(4);
            let scaled_first = Spec {
                stages: [vec![Stage::Scaler(Vec::new())], Spec::taxi().stages].concat(),
                ..Spec::taxi()
            };
            let (spec, keeps) = match rng.below(3) {
                0 => (Spec::taxi(), true),
                1 => (scaled_first, false),
                _ => (Spec::url(lexical, 4), false),
            };
            let mut pipeline = spec.pipeline();
            let mut arrivals = Vec::new();
            for t in 0..2 + rng.below(5) {
                let rows = [0, 1, rng.below(40)][rng.below(3)];
                let records = match spec.parser {
                    RowParser::Taxi => rng.taxi_chunk(rows, false),
                    RowParser::Schema { .. } => rng.schema_chunk(lexical),
                };
                let raw = RawChunk::new(Timestamp(t as u64), records);
                let stored = pipeline.fit_transform_chunk(&raw);
                prop_assert_eq!(stored.kept().is_some(), keeps, "seed {}", seed);
                arrivals.push((raw, stored.kept().cloned()));
                let outcome = kept_matches_transform_chunk(&pipeline, &arrivals);
                prop_assert!(outcome.is_ok(), "seed {seed}: {}", outcome.unwrap_err());
            }
        }
    }
}

/// One pipeline of a serving mix: both implementations under the same
/// statistics, and the width of the schema its records have (`None`: trips).
struct Served {
    real: Pipeline,
    reference: RowPipeline,
    nums: Option<usize>,
}

impl Served {
    fn new(spec: &Spec, nums: Option<usize>) -> Self {
        Served {
            real: spec.pipeline(),
            reference: spec.reference(),
            nums,
        }
    }

    /// A chunk of this pipeline's records, malformed and anomalous included.
    fn chunk(&self, rng: &mut Rng) -> Vec<Record> {
        match self.nums {
            Some(nums) => rng.schema_chunk(nums),
            None => {
                let rows = rng.below(12);
                rng.taxi_chunk(rows, false)
            }
        }
    }

    /// The online path on both sides: statistics move, vocabularies grow.
    fn fit(&mut self, records: &[Record]) {
        let raw = RawChunk::new(Timestamp(0), records.to_vec());
        self.real.fit_transform_chunk(&raw);
        self.reference.fit_transform(raw.rows());
    }

    /// Every record of `records` as a query in `scratch`: the same bits as
    /// a query in a fresh scratch, as the row reference's query (`None`
    /// where it says `None`), and as the record's row of `transform_chunk`
    /// on the whole chunk — what training would have seen.
    fn serve(&mut self, records: &[Record], scratch: &mut QueryScratch) -> Result<(), String> {
        let raw = RawChunk::new(Timestamp(1), records.to_vec());
        let trained = chunk_bits(&self.real.transform_chunk(&raw));
        let mut rows = trained.into_iter();
        for record in records {
            let reused = self.real.query(record, scratch, |row| row.to_point());
            let reused = reused.as_ref().map(bits);
            let fresh = self.real.transform_query(record);
            let reference = self.reference.transform_query(record);
            if reused != fresh.as_ref().map(bits) || reused != reference.as_ref().map(bits) {
                return Err(format!(
                    "{record:?}: reused scratch {reused:?}\n  fresh {fresh:?}\n  reference {reference:?}"
                ));
            }
            if reused.is_some() && reused != rows.next() {
                return Err(format!("{record:?}: query differs from its chunk row"));
            }
        }
        match rows.next() {
            Some(row) => Err(format!("chunk row {row:?} answers no query")),
            None => Ok(()),
        }
    }
}

proptest! {
    /// One scratch, passed from pipeline to pipeline: URL and Taxi shapes, a
    /// growing one-hot vocabulary and random compositions take turns on it,
    /// with statistics moving between turns and malformed or filtered
    /// records (which end a query early) in every chunk. No query sees
    /// anything of the one before it.
    #[test]
    fn one_scratch_serves_any_sequence_of_records_and_pipelines(
        seeds in prop::collection::vec(0u64..u64::MAX, 4),
    ) {
        for seed in seeds {
            let mut rng = Rng(seed);
            let lexical = 1 + rng.below(6);
            let one_hot = Spec {
                encoder: RowEncoder::OneHot(Default::default(), 1),
                ..Spec::url(2, 4)
            };
            let nums = rng.below(5);
            let mut mix = [
                Served::new(&Spec::url(lexical, [1, 4, 10][rng.below(3)]), Some(lexical)),
                Served::new(&Spec::taxi(), None),
                Served::new(&one_hot, Some(2)),
                Served::new(&rng.spec(nums), Some(nums)),
                Served::new(&rng.spec(nums), Some(nums)),
            ];
            let mut scratch = QueryScratch::default();
            for turn in 0..24 {
                let served = &mut mix[rng.below(5)];
                if turn < 5 || rng.chance(0.4) {
                    let records = served.chunk(&mut rng);
                    served.fit(&records);
                }
                let records = served.chunk(&mut rng);
                let outcome = served.serve(&records, &mut scratch);
                prop_assert!(outcome.is_ok(), "seed {seed} turn {turn}: {}", outcome.unwrap_err());
            }
        }
    }
}

/// A record far larger than any the scratch is kept for, then the smallest:
/// a megabyte of tokens followed by an empty bag and a malformed record, in
/// one scratch, between ordinary queries.
#[test]
fn a_huge_record_leaves_nothing_behind_in_the_scratch() {
    let num = Value::Num;
    let record = |text: &str| {
        let text = Value::Text(text.to_owned());
        Record::new(vec![num(1.0), num(0.5), num(-2.0), text])
    };
    let huge = "checkout-a login-bb paypal-ccc ".repeat((1 << 20) / 31 + 1);
    assert!(huge.len() >= 1 << 20);
    let records = vec![
        record("login-bb b c"),
        record(&huge),
        record(""),
        Record::new(vec![Value::Text("label?".into())]),
        record("c b login-bb login-bb"),
    ];
    let one_hot = Spec {
        encoder: RowEncoder::OneHot(Default::default(), 2),
        ..Spec::url(2, 1)
    };
    let mut scratch = QueryScratch::default();
    for spec in [Spec::url(2, 10), one_hot] {
        let mut served = Served::new(&spec, Some(2));
        served.fit(&records);
        served
            .serve(&records, &mut scratch)
            .expect("huge then empty");
    }
}

/// The cases the random streams only hit by luck, spelled out.
#[test]
fn edge_cases_match_the_row_reference() {
    let num = Value::Num;
    let text = |s: &str| Value::Text(s.to_owned());
    let rec = Record::new;
    // URL shape, two buckets: malformed records, a chunk with nothing but
    // malformed records, an empty chunk, a gap in every column, empty token
    // text, repeated and colliding tokens.
    let url_chunks = vec![
        vec![
            rec(vec![num(1.0), num(0.5), num(-2.0), text("a b c d e f")]),
            rec(vec![num(-1.0), num(0.0), Value::Missing, text("a a a b")]),
            rec(vec![text("label?"), num(1.0), num(1.0), text("a")]),
            rec(vec![num(1.0), num(1.0)]),
            rec(vec![num(1.0), Value::Missing, Value::Missing, text("")]),
        ],
        vec![
            rec(vec![num(1.0), text("x"), num(1.0), text("a")]),
            rec(vec![num(1.0), num(2.0), num(1.0), num(3.0)]),
        ],
        vec![],
        vec![
            rec(vec![
                Value::Missing,
                Value::Missing,
                num(4.0),
                Value::Missing,
            ]),
            rec(vec![num(-1.0), num(7.0), Value::Missing, text("  f   f  ")]),
        ],
    ];
    for restore_after in 0..url_chunks.len() {
        check(&Spec::url(2, 1), &url_chunks, restore_after).expect("URL shape");
    }

    // One-hot vocabulary growing mid-stream, restored from bytes in between.
    let one_hot = Spec {
        encoder: RowEncoder::OneHot(Default::default(), 1),
        ..Spec::url(2, 1)
    };
    for restore_after in 0..url_chunks.len() {
        check(&one_hot, &url_chunks, restore_after).expect("one-hot growth");
    }

    // Taxi shape: a chunk the anomaly filter empties between two it thins.
    let mut rng = Rng(16);
    let taxi = RawChunk::new(Timestamp(0), rng.taxi_chunk(12, true));
    let anomalous: Vec<Record> = taxi
        .rows()
        .iter()
        .map(|r| match (r.get(0), r.get(2), r.get(3)) {
            // Dropoff at the pickup point one second later: too short *and*
            // no distance.
            (Some(ValueRef::Num(t)), Some(lon), Some(lat)) => rec(vec![
                num(t),
                num(t + 1.0),
                lon.into(),
                lat.into(),
                lon.into(),
                lat.into(),
                num(1.0),
            ]),
            _ => r.to_record(),
        })
        .collect();
    let taxi_chunks = vec![
        rng.taxi_chunk(30, false),
        anomalous,
        rng.taxi_chunk(30, false),
    ];
    let mut taxi = Spec::taxi().pipeline();
    let kept: Vec<usize> = taxi_chunks
        .iter()
        .enumerate()
        .map(|(t, c)| {
            taxi.fit_transform_chunk(&RawChunk::new(Timestamp(t as u64), c.clone()))
                .len()
        })
        .collect();
    assert!(kept[0] > 0 && kept[0] < 30 && kept[1] == 0, "kept {kept:?}");
    for restore_after in 0..taxi_chunks.len() {
        check(&Spec::taxi(), &taxi_chunks, restore_after).expect("Taxi shape");
    }
    // A pipeline whose parser emits fewer columns than the extractor needs.
    let narrow = Spec {
        parser: RowParser::Schema {
            nums: 2,
            tokens: false,
        },
        ..Spec::taxi()
    };
    check(&narrow, &url_chunks, 1).expect("narrow batch");
}

proptest! {
    /// Re-materialization invariant: for any data, after the online path
    /// runs, transform-only on the same raw chunk reproduces the stored
    /// feature chunk exactly.
    #[test]
    fn rematerialization_is_exact(rows in row_strategy()) {
        let mut pipeline = numeric_pipeline();
        let raw = chunk_of(0, &rows);
        let stored = pipeline.fit_transform_chunk(&raw);
        let rematerialized = pipeline.transform_chunk(&raw);
        prop_assert_eq!(stored, rematerialized);
    }

    /// Transform-only is pure: applying it repeatedly yields identical
    /// output and leaves the statistics untouched.
    #[test]
    fn transform_only_is_pure(warm in row_strategy(), probe in row_strategy()) {
        let mut pipeline = numeric_pipeline();
        pipeline.fit_transform_chunk(&chunk_of(0, &warm));
        let a = pipeline.transform_chunk(&chunk_of(1, &probe));
        let b = pipeline.transform_chunk(&chunk_of(2, &probe));
        prop_assert_eq!(a.slab(), b.slab());
    }

    /// Scaled outputs have bounded magnitude relative to the training
    /// spread: standardization maps warm data into a few standard
    /// deviations.
    #[test]
    fn scaler_bounds_warm_data(values in prop::collection::vec(-100.0..100.0f64, 8..40)) {
        let mut scaler = StandardScaler::new();
        let rows: Vec<Vec<f64>> = values.iter().map(|&a| vec![a]).collect();
        let mut batch = numeric_batch(&rows);
        scaler.update(&batch);
        scaler.transform(&mut batch);
        let n = batch.len() as f64;
        let max = batch.columns().flatten().map(|v| v.abs()).fold(0.0, f64::max);
        // A point can be at most sqrt(n) standard deviations from the mean.
        prop_assert!(max <= n.sqrt() + 1e-6, "max z-score {max} for n={n}");
    }

    /// Feature hashing preserves the row count and the bias coordinate for
    /// arbitrary token bags.
    #[test]
    fn hasher_total_mass(tokens in prop::collection::vec("[a-z]{1,8}", 0..20)) {
        let hasher = FeatureHasher::new(6, 0);
        let mut batch = ColumnBatch::with_capacity(1, 0);
        batch.push_row(1.0, &[], tokens.iter().map(String::as_str));
        let slab = hasher.encode(batch);
        prop_assert_eq!(slab.len(), 1);
        let (indices, values) = slab.row(0).sparse_parts().expect("hashed rows are CSR");
        prop_assert_eq!((indices.first(), values.first()), (Some(&0), Some(&1.0)));
        // Total absolute mass ≤ bias + one unit per token (collisions can
        // only cancel, never amplify).
        let mass: f64 = values.iter().map(|v| v.abs()).sum();
        prop_assert!(mass <= 1.0 + tokens.len() as f64 + 1e-9);
    }

    /// The imputer leaves no NaN behind once it has seen at least one
    /// complete row per column.
    #[test]
    fn imputer_fills_every_gap(pattern in prop::collection::vec(prop::bool::ANY, 1..20)) {
        let mut imputer = MeanImputer::new();
        imputer.update(&numeric_batch(&[vec![1.0, 2.0]]));
        let rows: Vec<Vec<f64>> = pattern
            .iter()
            .map(|&missing| if missing { vec![f64::NAN, 3.0] } else { vec![4.0, f64::NAN] })
            .collect();
        let mut batch = numeric_batch(&rows);
        imputer.transform(&mut batch);
        prop_assert!(batch.columns().flatten().all(|v| !v.is_nan()));
    }
}
