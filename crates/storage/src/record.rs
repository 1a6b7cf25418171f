//! Raw-record model: what arrives at the platform before the pipeline runs.
//!
//! A [`Record`] is a flat row of [`Value`]s described by a shared [`Schema`],
//! the owned form a generator, decoder or query builds. Readers borrow rows
//! as [`RawRow`]s of [`ValueRef`]s, so only this crate knows their layout.
//! The input parser is the only pipeline stage that reads raw rows.

use std::sync::Arc;

/// A single field value in a raw record.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A numeric field.
    Num(f64),
    /// A textual field (e.g. a raw URL or a space-separated token bag).
    Text(String),
    /// An explicitly missing field — the missing-value imputer's input.
    Missing,
}

impl Value {
    /// Approximate heap footprint in bytes.
    fn size_bytes(&self) -> usize {
        match self {
            Value::Num(_) => std::mem::size_of::<f64>(),
            Value::Text(s) => s.len(),
            Value::Missing => 0,
        }
    }
}

/// Field names for a record layout. Shared (`Arc`) by every record of a
/// stream so each record stores only its values.
#[derive(Debug, Clone, PartialEq)]
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
}

/// A raw data row: one value per schema field. The values sit in a boxed
/// slice, which has no spare capacity to track: a record is 16 bytes beside
/// its values, not 24.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub(crate) values: Box<[Value]>,
}

impl Record {
    /// Creates a record from values (must match the schema length the caller
    /// intends to use; checked at access time via the schema). A vector
    /// built to its exact length, as the generators and decoders build
    /// theirs, becomes the record's slice without a copy.
    pub fn new(values: Vec<Value>) -> Self {
        Self {
            values: values.into_boxed_slice(),
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.values.iter().map(Value::size_bytes).sum::<usize>()
            + self.values.len() * std::mem::size_of::<Value>()
    }
}

/// One field of a raw row, borrowed: text is a `&str` into the row's
/// storage, so what a parser keeps of it lives as long as the chunk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    /// A numeric field.
    Num(f64),
    /// A textual field.
    Text(&'a str),
    /// An explicitly missing field.
    Missing,
}

impl ValueRef<'_> {
    /// Numeric view; `None` for text or missing.
    pub fn as_num(self) -> Option<f64> {
        match self {
            ValueRef::Num(x) => Some(x),
            _ => None,
        }
    }
}

impl<'a> From<&'a Value> for ValueRef<'a> {
    #[inline]
    fn from(value: &'a Value) -> Self {
        match value {
            Value::Num(x) => ValueRef::Num(*x),
            Value::Text(s) => ValueRef::Text(s),
            Value::Missing => ValueRef::Missing,
        }
    }
}

impl From<ValueRef<'_>> for Value {
    fn from(value: ValueRef<'_>) -> Self {
        match value {
            ValueRef::Num(x) => Value::Num(x),
            ValueRef::Text(s) => Value::Text(s.to_owned()),
            ValueRef::Missing => Value::Missing,
        }
    }
}

/// A borrowed raw row: one value per schema field, by position.
#[derive(Debug, Clone, Copy)]
pub struct RawRow<'a> {
    pub(crate) values: &'a [Value],
}

impl<'a> RawRow<'a> {
    /// Number of fields.
    pub fn len(self) -> usize {
        self.values.len()
    }

    /// Whether the row has no fields.
    pub fn is_empty(self) -> bool {
        self.values.is_empty()
    }

    /// Value at positional index.
    #[inline]
    pub fn get(self, index: usize) -> Option<ValueRef<'a>> {
        self.values.get(index).map(ValueRef::from)
    }

    /// The values in field order.
    #[inline]
    pub fn iter(self) -> impl ExactSizeIterator<Item = ValueRef<'a>> {
        self.values.iter().map(ValueRef::from)
    }

    /// An owned copy of the row.
    pub fn to_record(self) -> Record {
        Record::new(self.iter().map(Value::from).collect())
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
        assert_eq!(ValueRef::from(&Value::Num(2.5)).as_num(), Some(2.5));
        assert_eq!(Value::from(ValueRef::Text("hi")), Value::Text("hi".into()));
        assert_eq!(ValueRef::from(&Value::Missing).as_num(), None);
        assert_eq!(ValueRef::Text("hi").as_num(), None);
    }

    #[test]
    fn size_bytes_counts_text_length() {
        let r = Record::new(vec![Value::Num(0.0), Value::Text("abcd".into())]);
        assert!(r.size_bytes() >= 8 + 4);
    }

    #[test]
    fn a_record_is_two_words_and_keeps_its_exact_vector() {
        assert_eq!(std::mem::size_of::<Record>(), 16);
        let values = vec![Value::Num(1.0), Value::Missing, Value::Num(2.0)];
        let at = values.as_ptr();
        let r = Record::new(values);
        assert_eq!(r.values.as_ptr(), at);
        assert_eq!(r.size_bytes(), 3 * std::mem::size_of::<Value>() + 16);
    }
}
