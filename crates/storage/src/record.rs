//! Raw-record model: what arrives at the platform before the pipeline runs.
//!
//! A [`Record`] is a flat row of [`Value`]s described by a shared [`Schema`].
//! The input-parser component of a pipeline is the only stage that looks at
//! records; everything downstream works on feature vectors.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// A single field value in a raw record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// A numeric field.
    Num(f64),
    /// A textual field (e.g. a raw URL or a space-separated token bag).
    Text(String),
    /// An explicitly missing field — the missing-value imputer's input.
    Missing,
}

impl Value {
    /// Numeric view; `None` for text or missing.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        match self {
            Value::Num(_) => std::mem::size_of::<f64>(),
            Value::Text(s) => s.len(),
            Value::Missing => 0,
        }
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Num(x)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

/// Field names for a record layout. Shared (`Arc`) by every record of a
/// stream so each record stores only its values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schema {
    fields: Vec<String>,
}

impl Schema {
    /// Builds a schema from field names. Panics on duplicate names.
    pub fn new<I, S>(fields: I) -> Arc<Self>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let fields: Vec<String> = fields.into_iter().map(Into::into).collect();
        for (i, f) in fields.iter().enumerate() {
            assert!(
                !fields[..i].contains(f),
                "duplicate field name in schema: {f}"
            );
        }
        Arc::new(Self { fields })
    }

    /// Index of `name`, or `None`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f == name)
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Field names in declaration order.
    pub fn fields(&self) -> &[String] {
        &self.fields
    }
}

/// A raw data row: one value per schema field.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    values: Vec<Value>,
}

impl Record {
    /// Creates a record from values (must match the schema length the caller
    /// intends to use; checked at access time via the schema).
    pub fn new(values: Vec<Value>) -> Self {
        Self { values }
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the record has no fields.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Value at positional index.
    pub fn get(&self, index: usize) -> Option<&Value> {
        self.values.get(index)
    }

    /// All values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Approximate heap footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.values.iter().map(Value::size_bytes).sum::<usize>()
            + self.values.len() * std::mem::size_of::<Value>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Arc<Schema> {
        Schema::new(["label", "amount", "tokens"])
    }

    #[test]
    fn schema_index_lookup() {
        let s = schema();
        assert_eq!(s.index_of("label"), Some(0));
        assert_eq!(s.index_of("tokens"), Some(2));
        assert_eq!(s.index_of("nope"), None);
        assert_eq!(s.len(), 3);
    }

    #[test]
    #[should_panic(expected = "duplicate field")]
    fn schema_rejects_duplicates() {
        Schema::new(["a", "b", "a"]);
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(2.5).as_num(), Some(2.5));
        assert_eq!(Value::from("hi"), Value::Text("hi".into()));
        assert_eq!(Value::Missing.as_num(), None);
    }

    #[test]
    fn size_bytes_counts_text_length() {
        let r = Record::new(vec![Value::Num(0.0), Value::Text("abcd".into())]);
        assert!(r.size_bytes() >= 8 + 4);
    }
}
