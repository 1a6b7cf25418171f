//! Input parsers: borrowed raw rows ([`RawRows`]) → one typed [`ColumnBatch`].
//!
//! Parsers are the first stage of every pipeline. They are stateless and
//! drop malformed records, mirroring the paper's "input parser" components
//! of both evaluation pipelines.

use std::sync::Arc;

use cdp_storage::{RawRow, RawRows, Schema, ValueRef};

use crate::batch::ColumnBatch;

/// Parses raw records into a column batch; the first stage of a pipeline.
pub trait Parser: Send + Sync {
    /// Stable name for reports.
    fn name(&self) -> &str;

    /// Parses `rows` into one batch, in row order, dropping malformed ones.
    /// Tokens borrow from the rows; the buffers are those of `recycled`
    /// ([`ColumnBatch::recycle`]), an earlier batch or a new one.
    fn parse<'a>(&self, rows: RawRows<'a>, recycled: ColumnBatch<'_>) -> ColumnBatch<'a>;

    /// Clones the parser (pipeline snapshots).
    fn clone_box(&self) -> Box<dyn Parser>;
}

impl Clone for Box<dyn Parser> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Generic schema-driven parser: one label field, a set of numeric fields
/// (missing → `NaN`), and an optional whitespace-tokenized text field.
///
/// This is the URL pipeline's input parser: the label, the numeric lexical
/// features (some missing), and the tokenized URL string.
#[derive(Debug, Clone)]
pub struct SchemaParser {
    label_idx: usize,
    num_idx: Vec<usize>,
    token_idx: Option<usize>,
}

impl SchemaParser {
    /// Builds a parser against `schema`.
    ///
    /// # Panics
    /// Panics when a referenced field does not exist in the schema — a
    /// configuration error that must fail fast at deployment time.
    pub fn new(
        schema: Arc<Schema>,
        label_field: &str,
        num_fields: &[&str],
        token_field: Option<&str>,
    ) -> Self {
        let label_idx = schema
            .index_of(label_field)
            .unwrap_or_else(|| panic!("label field '{label_field}' not in schema"));
        let num_idx = num_fields
            .iter()
            .map(|f| {
                schema
                    .index_of(f)
                    .unwrap_or_else(|| panic!("numeric field '{f}' not in schema"))
            })
            .collect();
        let token_idx = token_field.map(|f| {
            schema
                .index_of(f)
                .unwrap_or_else(|| panic!("token field '{f}' not in schema"))
        });
        Self {
            label_idx,
            num_idx,
            token_idx,
        }
    }

    /// One row's label, numeric fields (into `nums`) and token text; `None`
    /// rejects the row.
    fn read<'a>(&self, row: RawRow<'a>, nums: &mut Vec<f64>) -> Option<(f64, &'a str)> {
        let num = |i: usize| match row.get(i)? {
            ValueRef::Num(x) => Some(x),
            ValueRef::Missing => Some(f64::NAN),
            ValueRef::Text(_) => None,
        };
        let label = num(self.label_idx)?;
        nums.clear();
        for &i in &self.num_idx {
            nums.push(num(i)?);
        }
        let text = match self.token_idx {
            None => "",
            Some(i) => match row.get(i)? {
                ValueRef::Text(s) => s,
                ValueRef::Missing => "",
                ValueRef::Num(_) => return None,
            },
        };
        Some((label, text))
    }
}

impl Parser for SchemaParser {
    fn name(&self) -> &str {
        "schema-parser"
    }

    fn parse<'a>(&self, rows: RawRows<'a>, recycled: ColumnBatch<'_>) -> ColumnBatch<'a> {
        let mut batch = recycled.recycle(rows.len(), self.num_idx.len());
        let mut nums = std::mem::take(&mut batch.spare);
        nums.reserve(self.num_idx.len());
        for row in rows.iter() {
            if let Some((label, text)) = self.read(row, &mut nums) {
                batch.push_row(label, &nums, text.split_whitespace());
            }
        }
        batch.spare = nums;
        batch
    }

    fn clone_box(&self) -> Box<dyn Parser> {
        Box::new(self.clone())
    }
}

/// The Taxi pipeline's input parser (paper §5.1): reads pickup/dropoff
/// epoch-second fields and computes the actual trip duration as the label
/// (`log1p(seconds)`, the Kaggle-style RMSLE target), and extracts the trip
/// coordinate and passenger columns.
///
/// Output numeric columns, in order:
/// `[pickup_secs, pickup_lon, pickup_lat, dropoff_lon, dropoff_lat,
/// passengers, trip_distance_km_raw]` — downstream components (anomaly
/// detector, feature extractor) consume these by index.
#[derive(Debug, Clone)]
pub struct TaxiParser {
    idx: TaxiFieldIdx,
}

#[derive(Debug, Clone, Copy)]
struct TaxiFieldIdx {
    pickup_time: usize,
    dropoff_time: usize,
    pickup_lon: usize,
    pickup_lat: usize,
    dropoff_lon: usize,
    dropoff_lat: usize,
    passengers: usize,
}

/// Column count the taxi parser emits.
pub(crate) const TAXI_WIDTH: usize = 7;

impl TaxiParser {
    /// Builds a taxi parser against the canonical trip-record schema
    /// (fields: `pickup_time`, `dropoff_time`, `pickup_lon`, `pickup_lat`,
    /// `dropoff_lon`, `dropoff_lat`, `passengers`).
    ///
    /// # Panics
    /// Panics when a required field is absent.
    pub fn new(schema: Arc<Schema>) -> Self {
        let must = |name: &str| {
            schema
                .index_of(name)
                .unwrap_or_else(|| panic!("taxi field '{name}' not in schema"))
        };
        let idx = TaxiFieldIdx {
            pickup_time: must("pickup_time"),
            dropoff_time: must("dropoff_time"),
            pickup_lon: must("pickup_lon"),
            pickup_lat: must("pickup_lat"),
            dropoff_lon: must("dropoff_lon"),
            dropoff_lat: must("dropoff_lat"),
            passengers: must("passengers"),
        };
        Self { idx }
    }

    /// One row's label and parsed columns; `None` rejects the row.
    fn read(&self, row: RawRow<'_>) -> Option<(f64, [f64; TAXI_WIDTH])> {
        let num = |i: usize| row.get(i).and_then(ValueRef::as_num);
        let pickup = num(self.idx.pickup_time)?;
        let dropoff = num(self.idx.dropoff_time)?;
        let duration = dropoff - pickup;
        // The label is log1p(duration): RMSLE on durations is RMSE on this
        // target. Non-positive durations are kept (the anomaly detector
        // downstream removes them) with a clamped label.
        let label = duration.max(0.0).ln_1p();
        let nums = [
            pickup,
            num(self.idx.pickup_lon)?,
            num(self.idx.pickup_lat)?,
            num(self.idx.dropoff_lon)?,
            num(self.idx.dropoff_lat)?,
            num(self.idx.passengers).unwrap_or(1.0),
            duration,
        ];
        Some((label, nums))
    }
}

impl Parser for TaxiParser {
    fn name(&self) -> &str {
        "taxi-parser"
    }

    fn parse<'a>(&self, rows: RawRows<'a>, recycled: ColumnBatch<'_>) -> ColumnBatch<'a> {
        let mut batch = recycled.recycle(rows.len(), TAXI_WIDTH);
        for row in rows.iter() {
            if let Some((label, nums)) = self.read(row) {
                batch.push_row(label, &nums, std::iter::empty());
            }
        }
        batch
    }

    fn clone_box(&self) -> Box<dyn Parser> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_storage::{RawChunk, Record, Timestamp, Value};

    fn url_schema() -> Arc<Schema> {
        Schema::new(["label", "lex0", "lex1", "url"])
    }

    #[test]
    fn schema_parser_extracts_everything() {
        let schema = url_schema();
        let parser = SchemaParser::new(schema, "label", &["lex0", "lex1"], Some("url"));
        let record = Record::new(vec![
            Value::Num(1.0),
            Value::Num(0.5),
            Value::Missing,
            Value::Text("com example login".into()),
        ]);
        let batch = parser.parse(RawRows::one(&record), ColumnBatch::default());
        assert_eq!(batch.labels(), &[1.0]);
        assert_eq!(batch.col(0), Some(&[0.5][..]));
        assert!(batch.col(1).is_some_and(|c| c[0].is_nan()));
        assert_eq!(batch.tokens(0), &["com", "example", "login"]);
    }

    #[test]
    fn schema_parser_rejects_text_label() {
        let schema = url_schema();
        let parser = SchemaParser::new(schema, "label", &[], None);
        // A rejected record leaves no trace; its neighbours keep their order.
        let records = vec![
            Record::new(vec![Value::Num(1.0)]),
            Record::new(vec![Value::Text("bad".into())]),
            Record::new(vec![Value::Missing]),
        ];
        let chunk = RawChunk::new(Timestamp(0), records);
        let batch = parser.parse(chunk.rows(), ColumnBatch::default());
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.labels()[0], 1.0);
        assert!(batch.labels()[1].is_nan());
    }

    #[test]
    #[should_panic(expected = "not in schema")]
    fn schema_parser_panics_on_unknown_field() {
        SchemaParser::new(url_schema(), "nope", &[], None);
    }

    fn taxi_schema() -> Arc<Schema> {
        Schema::new([
            "pickup_time",
            "dropoff_time",
            "pickup_lon",
            "pickup_lat",
            "dropoff_lon",
            "dropoff_lat",
            "passengers",
        ])
    }

    #[test]
    fn taxi_parser_computes_duration_label() {
        let parser = TaxiParser::new(taxi_schema());
        let record = Record::new(vec![
            Value::Num(1000.0),
            Value::Num(1600.0), // 600 s trip
            Value::Num(-73.98),
            Value::Num(40.75),
            Value::Num(-73.95),
            Value::Num(40.78),
            Value::Num(2.0),
        ]);
        let batch = parser.parse(RawRows::one(&record), ColumnBatch::default());
        assert!((batch.labels()[0] - 601f64.ln()).abs() < 1e-12);
        assert_eq!(batch.col(6), Some(&[600.0][..]));
        assert_eq!(batch.col(5), Some(&[2.0][..]));
        assert_eq!(batch.width(), TAXI_WIDTH);
    }

    #[test]
    fn taxi_parser_clamps_negative_duration_label() {
        let parser = TaxiParser::new(taxi_schema());
        let record = Record::new(vec![
            Value::Num(2000.0),
            Value::Num(1000.0), // negative duration
            Value::Num(0.0),
            Value::Num(0.0),
            Value::Num(0.0),
            Value::Num(0.0),
            Value::Num(1.0),
        ]);
        let batch = parser.parse(RawRows::one(&record), ColumnBatch::default());
        assert_eq!(batch.labels(), &[0.0]);
        assert_eq!(batch.col(6), Some(&[-1000.0][..]));
    }

    #[test]
    fn taxi_parser_rejects_missing_coordinates() {
        let parser = TaxiParser::new(taxi_schema());
        let record = Record::new(vec![
            Value::Num(0.0),
            Value::Num(1.0),
            Value::Missing,
            Value::Num(0.0),
            Value::Num(0.0),
            Value::Num(0.0),
            Value::Num(1.0),
        ]);
        let batch = parser.parse(RawRows::one(&record), ColumnBatch::default());
        assert!(batch.is_empty());
    }
}
