//! chrome://tracing "Trace Event Format" export of a [`TraceSnapshot`],
//! plus a structural validator used by tests and the CI trace-smoke job.
//!
//! The exporter emits duration events (`B`/`E` pairs) per thread with
//! microsecond timestamps, and `M` metadata events naming each thread. The
//! viewer requires per-thread event streams to be properly nested with
//! non-decreasing timestamps; since spans record on *finish* (children
//! before parents) and wall-clock reads on different threads can interleave
//! arbitrarily close together, emission runs a per-thread stack sweep that
//! clamps each span inside its enclosing span's window.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::snapshot::escape_json;
use crate::trace::{SpanRecord, TraceSnapshot};

impl TraceSnapshot {
    /// Renders the snapshot as chrome://tracing JSON (object form, with a
    /// `traceEvents` array). Load via chrome://tracing or Perfetto's legacy
    /// importer.
    pub fn to_chrome_trace(&self) -> String {
        let mut by_tid: BTreeMap<u32, Vec<&SpanRecord>> = BTreeMap::new();
        for s in &self.spans {
            by_tid.entry(s.thread).or_default().push(s);
        }
        let mut events: Vec<String> = Vec::new();
        for (tid, name) in &self.threads {
            events.push(format!(
                "{{\"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \"name\": \"thread_name\", \
                 \"args\": {{\"name\": \"{}\"}}}}",
                escape_json(name)
            ));
        }
        for (tid, mut spans) in by_tid {
            // Enclosing spans first: earlier start, then longer duration.
            spans.sort_by(|a, b| {
                a.start_secs
                    .total_cmp(&b.start_secs)
                    .then(b.end_secs.total_cmp(&a.end_secs))
                    .then(a.id.0.cmp(&b.id.0))
            });
            // Stack of clamped end timestamps (µs) of currently-open spans.
            let mut stack: Vec<f64> = Vec::new();
            let mut cursor = 0.0f64;
            for s in spans {
                let start_us = (s.start_secs * 1e6).max(0.0);
                let end_us = (s.end_secs * 1e6).max(start_us);
                while let Some(&top_end) = stack.last() {
                    if top_end <= start_us {
                        cursor = top_end.max(cursor);
                        events.push(end_event(tid, cursor));
                        stack.pop();
                    } else {
                        break;
                    }
                }
                let ts = start_us.max(cursor);
                cursor = ts;
                let mut clamped_end = end_us.max(ts);
                if let Some(&top_end) = stack.last() {
                    clamped_end = clamped_end.min(top_end);
                }
                events.push(begin_event(tid, ts, s));
                stack.push(clamped_end.max(ts));
            }
            while let Some(top_end) = stack.pop() {
                cursor = top_end.max(cursor);
                events.push(end_event(tid, cursor));
            }
        }
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        out.push_str(&events.join(",\n"));
        out.push_str("\n]}\n");
        out
    }

    /// Writes [`to_chrome_trace`](Self::to_chrome_trace) to `path`.
    ///
    /// # Errors
    /// I/O errors creating or writing the file.
    pub fn write_chrome_trace(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_trace())
    }
}

fn begin_event(tid: u32, ts: f64, s: &SpanRecord) -> String {
    let mut out = format!(
        "{{\"ph\": \"B\", \"pid\": 1, \"tid\": {tid}, \"ts\": {ts}, \"name\": \"{}\", \
         \"args\": {{\"trace\": {}, \"span\": {}",
        escape_json(&s.name),
        s.trace.0,
        s.id.0
    );
    if let Some(parent) = s.parent {
        let _ = write!(out, ", \"parent\": {}", parent.0);
    }
    out.push_str("}}");
    out
}

fn end_event(tid: u32, ts: f64) -> String {
    format!("{{\"ph\": \"E\", \"pid\": 1, \"tid\": {tid}, \"ts\": {ts}}}")
}

/// Structurally validates chrome-trace JSON as produced by
/// [`TraceSnapshot::to_chrome_trace`]: every event parses with a known
/// phase, per-thread timestamps are monotone non-decreasing, and `B`/`E`
/// events balance on every thread. Returns the number of events checked.
///
/// This is a purpose-built scanner for the exporter's output shape (object
/// form with a `traceEvents` array), not a general JSON parser.
///
/// # Errors
/// A human-readable description of the first structural violation.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    let start = json
        .find("\"traceEvents\"")
        .ok_or_else(|| String::from("missing traceEvents key"))?;
    let array_open = json[start..]
        .find('[')
        .map(|i| start + i)
        .ok_or_else(|| String::from("missing traceEvents array"))?;
    let objects = scan_array_objects(&json[array_open..])?;

    let mut depths: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    let mut last_ts: BTreeMap<u64, f64> = BTreeMap::new();
    let mut checked = 0usize;
    for obj in objects {
        checked += 1;
        let ph = field_str(obj, "ph").ok_or_else(|| format!("event without ph: {obj}"))?;
        if ph == "M" {
            continue;
        }
        let tid = field_u64(obj, "tid").ok_or_else(|| format!("event without tid: {obj}"))?;
        let ts = field_f64(obj, "ts").ok_or_else(|| format!("event without ts: {obj}"))?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(format!("non-finite or negative ts: {obj}"));
        }
        let prev = last_ts.entry(tid).or_insert(ts);
        if ts < *prev {
            return Err(format!(
                "timestamps regress on tid {tid}: {ts} after {prev}: {obj}"
            ));
        }
        *prev = ts;
        let stack = depths.entry(tid).or_default();
        match ph {
            "B" => {
                let name =
                    field_str(obj, "name").ok_or_else(|| format!("B event without name: {obj}"))?;
                stack.push(name.to_string());
            }
            "E" => {
                if stack.pop().is_none() {
                    return Err(format!("E without matching B on tid {tid}"));
                }
            }
            other => return Err(format!("unknown phase {other:?}: {obj}")),
        }
    }
    for (tid, stack) in depths {
        if !stack.is_empty() {
            return Err(format!("unbalanced B events on tid {tid}: {stack:?}"));
        }
    }
    Ok(checked)
}

/// Yields the top-level `{...}` object slices of a JSON array starting at
/// `input[0] == '['`, string- and nesting-aware.
fn scan_array_objects(input: &str) -> Result<Vec<&str>, String> {
    let bytes = input.as_bytes();
    let mut objects = Vec::new();
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut obj_start = None;
    for (i, &b) in bytes.iter().enumerate().skip(1) {
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' => {
                if depth == 0 {
                    obj_start = Some(i);
                }
                depth += 1;
            }
            b'}' => {
                depth = depth
                    .checked_sub(1)
                    .ok_or_else(|| String::from("unbalanced braces"))?;
                if depth == 0 {
                    let start = obj_start.take().ok_or_else(|| String::from("stray '}'"))?;
                    objects.push(&input[start..=i]);
                }
            }
            b']' if depth == 0 => return Ok(objects),
            _ => {}
        }
    }
    Err(String::from("unterminated traceEvents array"))
}

/// The raw JSON value following `"key":` in `obj`, as a trimmed slice up to
/// the next top-level delimiter (sufficient for numbers and simple strings).
fn field_raw<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\"");
    let at = obj.find(&pat)? + pat.len();
    let rest = obj[at..].trim_start().strip_prefix(':')?.trim_start();
    Some(rest)
}

fn field_str<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let rest = field_raw(obj, key)?.strip_prefix('"')?;
    rest.find('"').map(|end| &rest[..end])
}

fn field_f64(obj: &str, key: &str) -> Option<f64> {
    let rest = field_raw(obj, key)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || ".-+eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn field_u64(obj: &str, key: &str) -> Option<u64> {
    field_f64(obj, key).map(|v| v as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::trace::Tracer;
    use std::sync::Arc;

    fn sample_snapshot() -> TraceSnapshot {
        let clock = Arc::new(VirtualClock::new());
        let tracer = Tracer::with_clock(clock.clone());
        let root = tracer.root("deployment.run");
        let ctx = root.context();
        {
            let map = tracer.child_of("engine.map", ctx);
            let map_ctx = map.context();
            clock.advance_secs(0.5);
            std::thread::scope(|scope| {
                let t = tracer.clone();
                scope.spawn(move || {
                    let _task = t.child_of("engine.task", map_ctx);
                });
            });
            clock.advance_secs(0.5);
        }
        clock.advance_secs(1.0);
        root.finish();
        tracer.snapshot()
    }

    #[test]
    fn chrome_export_passes_its_own_validator() {
        let snap = sample_snapshot();
        snap.validate().unwrap();
        let json = snap.to_chrome_trace();
        let checked = validate_chrome_trace(&json).unwrap();
        // 2 threads' metadata + one B and one E per span.
        assert_eq!(checked, snap.threads.len() + 2 * snap.spans.len());
        assert!(json.contains("\"name\": \"engine.task\""));
        assert!(json.contains("thread_name"));
    }

    #[test]
    fn validator_rejects_unbalanced_and_regressing_streams() {
        let unbalanced = r#"{"traceEvents": [
            {"ph": "B", "pid": 1, "tid": 0, "ts": 1, "name": "a"}
        ]}"#;
        assert!(validate_chrome_trace(unbalanced)
            .unwrap_err()
            .contains("unbalanced"));

        let regressing = r#"{"traceEvents": [
            {"ph": "B", "pid": 1, "tid": 0, "ts": 5, "name": "a"},
            {"ph": "E", "pid": 1, "tid": 0, "ts": 2}
        ]}"#;
        assert!(validate_chrome_trace(regressing)
            .unwrap_err()
            .contains("regress"));

        let stray_end = r#"{"traceEvents": [
            {"ph": "E", "pid": 1, "tid": 0, "ts": 2}
        ]}"#;
        assert!(validate_chrome_trace(stray_end)
            .unwrap_err()
            .contains("without matching B"));
    }

    #[test]
    fn overlapping_sibling_spans_are_clamped_not_rejected() {
        // Hand-build two same-thread spans whose wall-clock windows overlap
        // without nesting — the sweep must still emit a balanced stream.
        use crate::trace::{SpanId, SpanRecord, TraceId};
        let snap = TraceSnapshot {
            spans: vec![
                SpanRecord {
                    trace: TraceId(1),
                    id: SpanId(1),
                    parent: None,
                    name: "a".into(),
                    start_secs: 0.0,
                    end_secs: 1.0,
                    thread: 0,
                },
                SpanRecord {
                    trace: TraceId(2),
                    id: SpanId(2),
                    parent: None,
                    name: "b".into(),
                    start_secs: 0.5,
                    end_secs: 2.0,
                    thread: 0,
                },
            ],
            threads: [(0, String::from("main"))].into_iter().collect(),
            dropped_spans: 0,
        };
        let json = snap.to_chrome_trace();
        validate_chrome_trace(&json).unwrap();
    }
}
