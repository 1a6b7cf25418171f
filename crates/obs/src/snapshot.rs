//! Point-in-time exports of a metrics registry: the [`MetricsSnapshot`]
//! attached to deployment results, with hand-rolled CSV and JSON encoders
//! (the workspace intentionally has no serialization dependency).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::lineage::{LineageEntry, LineageEventKind};

/// One structured event from the bounded event log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Event {
    /// Clock seconds (since the registry clock's epoch) when logged.
    pub at_secs: f64,
    /// Event name, dot-namespaced like metric names.
    pub name: String,
    /// Free-form detail string.
    pub detail: String,
}

/// Exported state of one histogram.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (inclusive), ascending.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; the final slot is the overflow bucket.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (0.0 when empty).
    pub min: f64,
    /// Largest observation (0.0 when empty).
    pub max: f64,
    /// Non-finite observations that were counted-and-dropped.
    pub dropped: u64,
}

impl HistogramSnapshot {
    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Upper bound on the `q`-quantile from the bucket counts: the bound of
    /// the first bucket whose cumulative count reaches `ceil(q * count)`
    /// (the recorded `max` for the overflow bucket). `None` when the
    /// histogram is empty or `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket;
            if cumulative >= target {
                return Some(if i < self.bounds.len() {
                    self.bounds[i].min(self.max)
                } else {
                    self.max
                });
            }
        }
        Some(self.max)
    }

    /// Interpolated estimate of the `q`-quantile: linear interpolation
    /// within the bucket containing the target rank, using the recorded
    /// min/max as the outer bucket edges, clamped to `[min, max]`. A far
    /// tighter estimate than [`quantile`](Self::quantile)'s upper bound —
    /// exact when observations are uniform within their bucket. Non-finite
    /// observations were never bucketed ([`dropped`](Self::dropped)), so
    /// they cannot perturb the estimate. `None` when the histogram is empty
    /// or `q` is outside `[0, 1]`.
    pub fn quantile_interp(&self, q: f64) -> Option<f64> {
        interp_quantile(&self.bounds, &self.buckets, q, self.min, self.max)
    }
}

/// Shared quantile interpolation over fixed bucket counts.
///
/// Treats each bucket as uniform mass on `(lower, upper]`, with `lo` as the
/// lower edge of the first bucket and `hi` as the upper edge of the overflow
/// bucket; the result is clamped to `[lo, hi]`. Snapshots pass their
/// recorded min/max; windowed series (which only retain bucket counts) pass
/// the outer bounds, so their estimates saturate there.
pub(crate) fn interp_quantile(
    bounds: &[f64],
    buckets: &[u64],
    q: f64,
    lo: f64,
    hi: f64,
) -> Option<f64> {
    if !(0.0..=1.0).contains(&q) {
        return None;
    }
    let count: u64 = buckets.iter().sum();
    if count == 0 {
        return None;
    }
    let target = q * count as f64;
    let mut cumulative = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let below = cumulative as f64;
        cumulative += c;
        if (cumulative as f64) >= target {
            let bucket_lo = if i == 0 { lo } else { bounds[i - 1].max(lo) };
            let bucket_hi = if i < bounds.len() {
                bounds[i].min(hi)
            } else {
                hi
            };
            let bucket_hi = bucket_hi.max(bucket_lo);
            let fraction = ((target - below) / c as f64).clamp(0.0, 1.0);
            return Some((bucket_lo + fraction * (bucket_hi - bucket_lo)).clamp(lo, hi));
        }
    }
    Some(hi)
}

/// A point-in-time copy of every metric in a registry.
///
/// Serde-serializable; additionally exports itself as CSV (one row per
/// metric) or JSON without any external encoder.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-value gauges by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// The retained tail of the structured event log, oldest first.
    pub events: Vec<Event>,
    /// Events evicted from the bounded log (truncation is visible, not
    /// silent: `dropped_events + events.len()` is the true event total).
    pub dropped_events: u64,
    /// Per-chunk lineage logs keyed by chunk timestamp.
    pub lineage: BTreeMap<u64, Vec<LineageEntry>>,
    /// Lineage entries discarded because the lineage log was full.
    pub dropped_lineage: u64,
}

impl MetricsSnapshot {
    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value by name (0.0 when absent).
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// Histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Number of distinct named metrics (counters + gauges + histograms).
    pub fn metric_count(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// True when nothing was recorded (e.g. metrics were disabled).
    pub fn is_empty(&self) -> bool {
        self.metric_count() == 0 && self.events.is_empty() && self.lineage.is_empty()
    }

    /// Total lineage events of `kind` across every chunk.
    pub fn lineage_count(&self, kind: LineageEventKind) -> u64 {
        self.lineage
            .values()
            .flatten()
            .filter(|e| e.kind == kind)
            .count() as u64
    }

    /// CSV export: `kind,name,count,sum,mean,min,max,dropped`, one row per
    /// metric, sorted by kind then name. Names containing commas, quotes,
    /// or newlines are RFC 4180-quoted.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,count,sum,mean,min,max,dropped\n");
        for (name, value) in &self.counters {
            let _ = writeln!(out, "counter,{},{value},{value},,,,", escape_csv(name));
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "gauge,{},,{value},,,,", escape_csv(name));
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "histogram,{},{},{},{},{},{},{}",
                escape_csv(name),
                h.count,
                h.sum,
                h.mean(),
                h.min,
                h.max,
                h.dropped
            );
        }
        out
    }

    /// JSON export of counters, gauges, histograms, events, lineage, and
    /// drop accounting.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        push_entries(&mut out, self.counters.iter(), |out, (name, value)| {
            let _ = write!(out, "\"{}\": {}", escape_json(name), value);
        });
        out.push_str("},\n  \"gauges\": {");
        push_entries(&mut out, self.gauges.iter(), |out, (name, value)| {
            let _ = write!(out, "\"{}\": {}", escape_json(name), json_num(*value));
        });
        out.push_str("},\n  \"histograms\": {");
        push_entries(&mut out, self.histograms.iter(), |out, (name, h)| {
            let _ = write!(
                out,
                "\"{}\": {{\"count\": {}, \"sum\": {}, \"mean\": {}, \"min\": {}, \"max\": {}, \"dropped\": {}}}",
                escape_json(name),
                h.count,
                json_num(h.sum),
                json_num(h.mean()),
                json_num(h.min),
                json_num(h.max),
                h.dropped
            );
        });
        out.push_str("},\n  \"events\": [");
        push_entries(&mut out, self.events.iter(), |out, event| {
            let _ = write!(
                out,
                "{{\"at_secs\": {}, \"name\": \"{}\", \"detail\": \"{}\"}}",
                json_num(event.at_secs),
                escape_json(&event.name),
                escape_json(&event.detail)
            );
        });
        out.push_str("],\n  \"lineage\": {");
        push_entries(&mut out, self.lineage.iter(), |out, (chunk_ts, entries)| {
            let _ = write!(out, "\"{chunk_ts}\": [");
            push_entries(out, entries.iter(), |out, e| {
                let _ = write!(
                    out,
                    "{{\"at_secs\": {}, \"kind\": \"{}\"}}",
                    json_num(e.at_secs),
                    e.kind.name()
                );
            });
            out.push(']');
        });
        let _ = write!(
            out,
            "}},\n  \"dropped_events\": {},\n  \"dropped_lineage\": {}\n}}\n",
            self.dropped_events, self.dropped_lineage
        );
        out
    }
}

pub(crate) fn push_entries<T>(
    out: &mut String,
    entries: impl Iterator<Item = T>,
    write_one: impl Fn(&mut String, T),
) {
    for (i, entry) in entries.enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_one(out, entry);
    }
}

/// RFC 4180 field quoting: wrap in quotes (doubling embedded quotes) when
/// the value contains a comma, quote, or line break.
pub(crate) fn escape_csv(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// JSON has no NaN/Infinity literals; encode them as null.
pub(crate) fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        String::from("null")
    }
}

pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}
