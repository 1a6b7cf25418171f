//! Round-trip tests for the snapshot exporters: export → parse with a
//! minimal spec-following parser → compare against the source snapshot.
//! Exercises the hostile-name escaping paths (commas, quotes, newlines) in
//! both the CSV and JSON encoders.

use cdp_obs::{LineageEventKind, Metrics, MetricsSnapshot, VirtualClock};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Names chosen to break naive encoders.
const HOSTILE_NAMES: &[&str] = &[
    "plain.name",
    "with,comma",
    "with\"quote",
    "with\nnewline",
    "with,\"both\",\r\nand more",
];

fn hostile_snapshot() -> MetricsSnapshot {
    let clock = Arc::new(VirtualClock::new());
    let metrics = Metrics::with_clock(clock.clone());
    for (i, name) in HOSTILE_NAMES.iter().enumerate() {
        metrics.counter(name).add(i as u64 + 1);
        metrics.gauge(&format!("g.{name}")).set(i as f64 + 0.5);
        let h = metrics.histogram_with_bounds(&format!("h.{name}"), &[1.0, 2.0]);
        h.observe(0.5 + i as f64);
        h.observe(f64::NAN); // exercised dropped column
    }
    clock.advance_secs(3.0);
    metrics.event("fault,odd\"name", "detail with \"quotes\"\nand newline");
    metrics.lineage(7, LineageEventKind::Arrival);
    metrics.lineage(7, LineageEventKind::Spill);
    metrics.snapshot()
}

// ---------------------------------------------------------------- CSV side

/// RFC 4180 record splitter: handles quoted fields with embedded commas,
/// doubled quotes, and line breaks.
fn parse_csv(input: &str) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    let mut row = Vec::new();
    let mut field = String::new();
    let mut chars = input.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' if chars.peek() == Some(&'"') => {
                    chars.next();
                    field.push('"');
                }
                '"' => in_quotes = false,
                c => field.push(c),
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => row.push(std::mem::take(&mut field)),
                '\n' => {
                    row.push(std::mem::take(&mut field));
                    rows.push(std::mem::take(&mut row));
                }
                '\r' if chars.peek() == Some(&'\n') => {}
                c => field.push(c),
            }
        }
    }
    if !field.is_empty() || !row.is_empty() {
        row.push(field);
        rows.push(row);
    }
    rows
}

#[test]
fn csv_round_trips_hostile_names() {
    let snap = hostile_snapshot();
    let csv = snap.to_csv();
    let rows = parse_csv(&csv);
    assert_eq!(
        rows[0],
        vec!["kind", "name", "count", "sum", "mean", "min", "max", "dropped"]
    );
    // Every data row has exactly the header's arity.
    for row in &rows[1..] {
        assert_eq!(row.len(), 8, "{row:?}");
    }

    let mut counters = BTreeMap::new();
    let mut gauges = BTreeMap::new();
    let mut hist_counts = BTreeMap::new();
    let mut hist_dropped = BTreeMap::new();
    for row in &rows[1..] {
        match row[0].as_str() {
            "counter" => {
                counters.insert(row[1].clone(), row[2].parse::<u64>().unwrap());
            }
            "gauge" => {
                gauges.insert(row[1].clone(), row[3].parse::<f64>().unwrap());
            }
            "histogram" => {
                hist_counts.insert(row[1].clone(), row[2].parse::<u64>().unwrap());
                hist_dropped.insert(row[1].clone(), row[7].parse::<u64>().unwrap());
            }
            other => panic!("unknown kind {other:?}"),
        }
    }
    assert_eq!(counters, snap.counters);
    assert_eq!(gauges.len(), snap.gauges.len());
    for (name, value) in &snap.gauges {
        assert!((gauges[name] - value).abs() < 1e-12, "{name}");
    }
    for (name, h) in &snap.histograms {
        assert_eq!(hist_counts[name], h.count, "{name}");
        assert_eq!(hist_dropped[name], h.dropped, "{name}");
    }
}

// --------------------------------------------------------------- JSON side

/// Minimal JSON value for the round-trip comparison.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(map) => map.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }
}

/// Strict-enough recursive-descent JSON parser (no trailing garbage check
/// beyond whitespace; enough of the spec for the exporter's output).
fn parse_json(input: &str) -> Json {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let value = p.value();
    p.skip_ws();
    assert_eq!(p.pos, p.bytes.len(), "trailing garbage");
    value
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) {
        self.skip_ws();
        assert_eq!(self.bytes.get(self.pos), Some(&b), "at byte {}", self.pos);
        self.pos += 1;
    }

    fn peek(&mut self) -> u8 {
        self.skip_ws();
        self.bytes[self.pos]
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Json::Str(self.string()),
            b'n' => {
                assert_eq!(&self.bytes[self.pos..self.pos + 4], b"null");
                self.pos += 4;
                Json::Null
            }
            _ => self.number(),
        }
    }

    fn object(&mut self) -> Json {
        self.expect(b'{');
        let mut map = BTreeMap::new();
        if self.peek() == b'}' {
            self.pos += 1;
            return Json::Obj(map);
        }
        loop {
            let key = self.string();
            self.expect(b':');
            map.insert(key, self.value());
            match self.peek() {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Json::Obj(map);
                }
                other => panic!("unexpected {:?} in object", other as char),
            }
        }
    }

    fn array(&mut self) -> Json {
        self.expect(b'[');
        let mut items = Vec::new();
        if self.peek() == b']' {
            self.pos += 1;
            return Json::Arr(items);
        }
        loop {
            items.push(self.value());
            match self.peek() {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Json::Arr(items);
                }
                other => panic!("unexpected {:?} in array", other as char),
            }
        }
    }

    fn string(&mut self) -> String {
        self.expect(b'"');
        let mut out = String::new();
        loop {
            match self.bytes[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return out;
                }
                b'\\' => {
                    self.pos += 1;
                    match self.bytes[self.pos] {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .unwrap();
                            let code = u32::from_str_radix(hex, 16).unwrap();
                            out.push(char::from_u32(code).unwrap());
                            self.pos += 4;
                        }
                        other => panic!("bad escape {:?}", other as char),
                    }
                    self.pos += 1;
                }
                _ => {
                    let start = self.pos;
                    while !matches!(self.bytes[self.pos], b'"' | b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Json {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
        {
            self.pos += 1;
        }
        Json::Num(
            std::str::from_utf8(&self.bytes[start..self.pos])
                .unwrap()
                .parse()
                .unwrap(),
        )
    }
}

#[test]
fn json_round_trips_hostile_names() {
    let snap = hostile_snapshot();
    let parsed = parse_json(&snap.to_json());

    let Json::Obj(counters) = parsed.get("counters") else {
        panic!("counters not an object");
    };
    assert_eq!(counters.len(), snap.counters.len());
    for (name, value) in &snap.counters {
        assert_eq!(counters[name].num(), *value as f64, "{name:?}");
    }

    let Json::Obj(gauges) = parsed.get("gauges") else {
        panic!("gauges not an object");
    };
    for (name, value) in &snap.gauges {
        assert!((gauges[name].num() - value).abs() < 1e-12, "{name:?}");
    }

    let Json::Obj(histograms) = parsed.get("histograms") else {
        panic!("histograms not an object");
    };
    for (name, h) in &snap.histograms {
        let parsed_h = &histograms[name];
        assert_eq!(parsed_h.get("count").num(), h.count as f64, "{name:?}");
        assert_eq!(parsed_h.get("dropped").num(), h.dropped as f64, "{name:?}");
        assert!((parsed_h.get("sum").num() - h.sum).abs() < 1e-12);
    }

    let Json::Arr(events) = parsed.get("events") else {
        panic!("events not an array");
    };
    assert_eq!(events.len(), snap.events.len());
    assert_eq!(
        events[0].get("name"),
        &Json::Str(String::from("fault,odd\"name"))
    );
    assert_eq!(
        events[0].get("detail"),
        &Json::Str(String::from("detail with \"quotes\"\nand newline"))
    );
    assert!((events[0].get("at_secs").num() - 3.0).abs() < 1e-9);

    let Json::Obj(lineage) = parsed.get("lineage") else {
        panic!("lineage not an object");
    };
    let Json::Arr(chunk7) = &lineage["7"] else {
        panic!("chunk lineage not an array");
    };
    assert_eq!(chunk7.len(), 2);
    assert_eq!(chunk7[0].get("kind"), &Json::Str(String::from("arrival")));
    assert_eq!(chunk7[1].get("kind"), &Json::Str(String::from("spill")));

    assert_eq!(parsed.get("dropped_events").num(), 0.0);
    assert_eq!(parsed.get("dropped_lineage").num(), 0.0);
}

#[test]
fn nan_gauge_exports_as_null_and_survives_parsing() {
    let metrics = Metrics::collecting();
    metrics.gauge("bad").set(f64::NAN);
    let parsed = parse_json(&metrics.snapshot().to_json());
    assert_eq!(parsed.get("gauges").get("bad"), &Json::Null);
}
