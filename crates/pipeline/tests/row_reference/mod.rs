//! Tests-only reference: the row-at-a-time pipeline the column kernels
//! replaced. A chunk is a `Vec<Row>` handed from stage to stage, statistics
//! are folded row by row and re-derived for every value they are applied
//! to, and every row is encoded into its own `LabeledPoint`, its sparse
//! entries sorted and summed here rather than by the store's CSR builder.
//! Kept as the oracle `properties.rs` checks the column pipeline against
//! bit for bit; nothing ships from here.

use std::collections::HashMap;

use cdp_linalg::Vector;
use cdp_pipeline::encode::FeatureHasher;
use cdp_pipeline::stats::RunningMoments;
use cdp_pipeline::PipelineCounters;
use cdp_storage::{LabeledPoint, Record, Value};

#[derive(Debug, Clone)]
pub struct Row {
    pub label: f64,
    pub nums: Vec<f64>,
    pub tokens: Vec<String>,
}

/// Field positions are fixed: label first, then `nums` numeric fields, then
/// the token text; the Taxi layout is the canonical trip-record order.
#[derive(Debug, Clone)]
pub enum Parser {
    Schema { nums: usize, tokens: bool },
    Taxi,
}

/// A stage and, for the stateful ones, its statistics.
#[derive(Debug, Clone)]
pub enum Stage {
    Imputer(Vec<RunningMoments>),
    Scaler(Vec<RunningMoments>),
    Anomaly(Vec<(usize, Option<f64>, Option<f64>)>),
    Select(Vec<usize>),
    TaxiExtract,
}

#[derive(Debug, Clone)]
pub enum Encoder {
    Hasher(u32, usize),
    OneHot(HashMap<String, usize>, usize),
    Dense(usize),
}

#[derive(Debug, Clone)]
pub struct RowPipeline {
    pub parser: Parser,
    pub stages: Vec<Stage>,
    pub encoder: Encoder,
    pub counters: PipelineCounters,
}

/// A sparse row from raw `(index, value)` entries: sorted by index (stably),
/// each run of one index summed in that order.
fn sorted_and_summed(mut entries: Vec<(usize, f64)>, dim: usize) -> Vector {
    entries.sort_by_key(|&(i, _)| i);
    let (mut indices, mut values): (Vec<u32>, Vec<f64>) = (Vec::new(), Vec::new());
    for (i, v) in entries {
        assert!(i < dim, "index {i} within dimension {dim}");
        match values.last_mut() {
            Some(last) if indices.last() == Some(&(i as u32)) => *last += v,
            _ => {
                indices.push(i as u32);
                values.push(v);
            }
        }
    }
    Vector::Sparse {
        dim,
        indices,
        values,
    }
}

fn haversine_km(lat1: f64, lon1: f64, lat2: f64, lon2: f64) -> f64 {
    let (phi1, phi2) = (lat1.to_radians(), lat2.to_radians());
    let d_phi = (lat2 - lat1).to_radians();
    let d_lambda = (lon2 - lon1).to_radians();
    let a = (d_phi / 2.0).sin().powi(2) + phi1.cos() * phi2.cos() * (d_lambda / 2.0).sin().powi(2);
    2.0 * 6371.0 * a.sqrt().atan2((1.0 - a).sqrt())
}

fn bearing_deg(lat1: f64, lon1: f64, lat2: f64, lon2: f64) -> f64 {
    let (phi1, phi2) = (lat1.to_radians(), lat2.to_radians());
    let d_lambda = (lon2 - lon1).to_radians();
    let y = d_lambda.sin() * phi2.cos();
    let x = phi1.cos() * phi2.sin() - phi1.sin() * phi2.cos() * d_lambda.cos();
    (y.atan2(x).to_degrees() + 360.0) % 360.0
}

fn hour_of_day(epoch_secs: f64) -> f64 {
    ((epoch_secs / 3600.0).floor() % 24.0 + 24.0) % 24.0
}

/// Monday = 0; 1970-01-01 was a Thursday.
fn day_of_week(epoch_secs: f64) -> f64 {
    let days = (epoch_secs / 86_400.0).floor();
    (((days + 3.0) % 7.0) + 7.0) % 7.0
}

impl Parser {
    fn parse(&self, record: &Record) -> Option<Row> {
        match self {
            Parser::Schema {
                nums: width,
                tokens,
            } => {
                let num = |i: usize| match record.get(i)? {
                    Value::Num(x) => Some(*x),
                    Value::Missing => Some(f64::NAN),
                    Value::Text(_) => None,
                };
                let label = num(0)?;
                let nums = (1..=*width).map(num).collect::<Option<Vec<f64>>>()?;
                let tokens = match tokens.then(|| record.get(width + 1)) {
                    None => Vec::new(),
                    Some(field) => match field? {
                        Value::Text(s) => s.split_whitespace().map(str::to_owned).collect(),
                        Value::Missing => Vec::new(),
                        Value::Num(_) => return None,
                    },
                };
                Some(Row {
                    label,
                    nums,
                    tokens,
                })
            }
            Parser::Taxi => {
                let num = |i: usize| record.get(i).and_then(Value::as_num);
                let (pickup, dropoff) = (num(0)?, num(1)?);
                let duration = dropoff - pickup;
                let nums = vec![
                    pickup,
                    num(2)?,
                    num(3)?,
                    num(4)?,
                    num(5)?,
                    num(6).unwrap_or(1.0),
                    duration,
                ];
                Some(Row {
                    label: duration.max(0.0).ln_1p(),
                    nums,
                    tokens: Vec::new(),
                })
            }
        }
    }
}

fn fold_moments(cols: &mut Vec<RunningMoments>, rows: &[Row]) {
    for row in rows {
        if row.nums.len() > cols.len() {
            cols.resize_with(row.nums.len(), RunningMoments::new);
        }
        for (col, &x) in cols.iter_mut().zip(&row.nums) {
            col.update(x);
        }
    }
}

impl Stage {
    fn is_stateful(&self) -> bool {
        matches!(self, Stage::Imputer(_) | Stage::Scaler(_))
    }

    fn update(&mut self, rows: &[Row]) {
        if let Stage::Imputer(cols) | Stage::Scaler(cols) = self {
            fold_moments(cols, rows);
        }
    }

    fn transform(&self, mut rows: Vec<Row>) -> Vec<Row> {
        let moments = |cols: &[RunningMoments], i: usize| cols.get(i).copied().unwrap_or_default();
        match self {
            Stage::Imputer(cols) => rows.iter_mut().for_each(|row| {
                for (i, v) in row.nums.iter_mut().enumerate() {
                    if v.is_nan() {
                        *v = moments(cols, i).mean();
                    }
                }
            }),
            Stage::Scaler(cols) => rows.iter_mut().for_each(|row| {
                for (i, v) in row.nums.iter_mut().enumerate() {
                    let std = moments(cols, i).std_dev();
                    *v -= moments(cols, i).mean();
                    if std > 1e-12 {
                        *v /= std;
                    }
                }
            }),
            Stage::Anomaly(bounds) => rows.retain(|row| {
                bounds.iter().all(|&(col, min, max)| {
                    row.nums.get(col).is_some_and(|&v| {
                        !v.is_nan() && min.is_none_or(|m| v > m) && max.is_none_or(|m| v < m)
                    })
                })
            }),
            Stage::Select(keep) => {
                let max = keep.iter().copied().max().unwrap_or(0);
                rows.retain(|row| row.nums.len() > max);
                for row in &mut rows {
                    row.nums = keep.iter().map(|&i| row.nums[i]).collect();
                }
            }
            Stage::TaxiExtract => {
                rows.retain(|row| row.nums.len() >= 7);
                for row in &mut rows {
                    let n = &row.nums;
                    let weekday = day_of_week(n[0]);
                    row.nums = vec![
                        haversine_km(n[2], n[1], n[4], n[3]),
                        bearing_deg(n[2], n[1], n[4], n[3]),
                        hour_of_day(n[0]),
                        weekday,
                        f64::from(weekday >= 5.0),
                        n[5],
                        n[1],
                        n[2],
                        n[3],
                        n[4],
                        n[6],
                    ];
                }
            }
        }
        rows
    }

    fn state_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        if let Stage::Imputer(cols) | Stage::Scaler(cols) = self {
            buf.extend_from_slice(&(cols.len() as u32).to_be_bytes());
            for (count, mean, m2) in cols.iter().map(RunningMoments::to_parts) {
                buf.extend_from_slice(&count.to_be_bytes());
                buf.extend_from_slice(&mean.to_be_bytes());
                buf.extend_from_slice(&m2.to_be_bytes());
            }
        }
        buf
    }
}

impl Encoder {
    pub fn dim(&self) -> usize {
        match self {
            Encoder::Hasher(bits, slots) => 1 + slots + (1usize << bits),
            Encoder::OneHot(categories, slots) => 1 + slots + categories.len(),
            Encoder::Dense(columns) => columns + 1,
        }
    }

    fn update(&mut self, rows: &[Row]) {
        if let Encoder::OneHot(categories, _) = self {
            for token in rows.iter().flat_map(|row| &row.tokens) {
                let next = categories.len();
                categories.entry(token.clone()).or_insert(next);
            }
        }
    }

    fn encode_row(&self, row: &Row) -> LabeledPoint {
        let slots = match self {
            Encoder::Hasher(_, slots) | Encoder::OneHot(_, slots) => *slots,
            Encoder::Dense(columns) => {
                let mut values = vec![1.0]; // bias
                for i in 0..*columns {
                    let v = row.nums.get(i).copied().unwrap_or(0.0);
                    values.push(if v.is_nan() { 0.0 } else { v });
                }
                return LabeledPoint {
                    label: row.label,
                    features: Vector::Dense(values),
                };
            }
        };
        let mut entries = Vec::with_capacity(1 + row.nums.len() + row.tokens.len());
        entries.push((0, 1.0));
        for (i, &v) in row.nums.iter().take(slots).enumerate() {
            if v != 0.0 && !v.is_nan() {
                entries.push((1 + i, v));
            }
        }
        for token in &row.tokens {
            match self {
                Encoder::Hasher(bits, slots) => {
                    let (bucket, sign) = FeatureHasher::new(*bits, *slots).bucket_of(token);
                    entries.push((bucket, sign));
                }
                Encoder::OneHot(categories, slots) => {
                    if let Some(&idx) = categories.get(token) {
                        entries.push((1 + slots + idx, 1.0));
                    }
                }
                Encoder::Dense(_) => {}
            }
        }
        LabeledPoint {
            label: row.label,
            features: sorted_and_summed(entries, self.dim()),
        }
    }

    fn state_bytes(&self) -> Vec<u8> {
        let Encoder::OneHot(categories, _) = self else {
            return Vec::new();
        };
        let mut by_index: Vec<(&String, &usize)> = categories.iter().collect();
        by_index.sort_by_key(|&(_, idx)| *idx);
        let mut buf = (by_index.len() as u32).to_be_bytes().to_vec();
        for (token, _) in by_index {
            buf.extend_from_slice(&(token.len() as u32).to_be_bytes());
            buf.extend_from_slice(token.as_bytes());
        }
        buf
    }
}

impl RowPipeline {
    pub fn new(parser: Parser, stages: Vec<Stage>, encoder: Encoder) -> Self {
        Self {
            parser,
            stages,
            encoder,
            counters: PipelineCounters::default(),
        }
    }

    fn run(&mut self, records: &[Record], fit: bool) -> Vec<LabeledPoint> {
        self.counters.parsed_records += records.len() as u64;
        let mut rows: Vec<Row> = records
            .iter()
            .filter_map(|r| self.parser.parse(r))
            .collect();
        for stage in &mut self.stages {
            if fit && stage.is_stateful() {
                stage.update(&rows);
                self.counters.update_rows += rows.len() as u64;
            }
            self.counters.transform_rows += rows.len() as u64;
            rows = stage.transform(rows);
        }
        if fit && matches!(self.encoder, Encoder::OneHot(..)) {
            self.encoder.update(&rows);
            self.counters.update_rows += rows.len() as u64;
        }
        self.counters.encoded_points += rows.len() as u64;
        rows.iter()
            .map(|row| self.encoder.encode_row(row))
            .collect()
    }

    pub fn fit_transform(&mut self, records: &[Record]) -> Vec<LabeledPoint> {
        self.run(records, true)
    }

    pub fn transform(&mut self, records: &[Record]) -> Vec<LabeledPoint> {
        self.run(records, false)
    }

    pub fn transform_query(&self, record: &Record) -> Option<LabeledPoint> {
        let mut rows: Vec<Row> = self.parser.parse(record).into_iter().collect();
        for stage in &self.stages {
            rows = stage.transform(rows);
            if rows.is_empty() {
                return None;
            }
        }
        rows.first().map(|row| self.encoder.encode_row(row))
    }

    pub fn component_states(&self) -> Vec<Vec<u8>> {
        let mut states: Vec<Vec<u8>> = self.stages.iter().map(Stage::state_bytes).collect();
        states.push(self.encoder.state_bytes());
        states
    }
}
