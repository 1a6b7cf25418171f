//! The metric catalogue, and the report one run prints.
//!
//! `BENCHMARK.json` at the repository root is `describe()`'s output; the
//! names, units, directions and bounds live here only.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, unique over both lists.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Seconds one run measures for.
pub const RUN_SECONDS: u64 = 25;

/// The command the driver runs (it appends `--workload`, `--seed`,
/// `--seconds` and `--trace`).
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// Workload names and why each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "url_mem",
        "URL stream, mu = 1, all subsystems off: the 2^16-dim gradient/optimizer path does nearly all the work",
    ),
    (
        "taxi_remat",
        "Taxi stream, 8-chunk budget: 98% of sampled chunks re-materialize, so parse/extract/scale dominate and the 11-dim model update is negligible",
    ),
    (
        "url_durable",
        "url_mem's stream with WAL, checkpoints, telemetry, spill tier and serving publishes on: the platform's overhead",
    ),
    (
        "serve_storm",
        "closed-loop readers beside a 1 ms publisher: the serving layer used for reads, which url_durable only writes",
    ),
];

/// End-to-end metrics with their regression bounds. Every workload reports
/// every one: an "op" is one chunk through the deployment loop for the
/// deployment workloads and one `predict` call for `serve_storm`, and a
/// "row" is one deployment-range row or one prediction. `op_ms_tail` is p99
/// (`stats::TAIL`).
///
/// The time bounds are the widest the driver allows: the shared host that
/// defined them (NOISE.json) drifts by a quarter between a quiet minute and
/// a loaded one, and tighter bounds would reject the parent commit against
/// itself on such a day.
pub const END_TO_END: &[(MetricDef, f64)] = &[
    (lower("setup_s", "s"), 0.25),
    (higher("rows_per_s", "1/s"), 0.25),
    (lower("op_ms_p50", "ms"), 0.25),
    (lower("op_ms_tail", "ms"), 0.25),
    (lower("peak_rss_mb", "MB"), 0.10),
];

/// Per-layer metrics (`--trace 1`). A workload that does not exercise a
/// layer reports 0 for it.
pub const PER_LAYER: &[MetricDef] = &[
    // Whole runs.
    lower("untraced.wall_s", "s"),
    lower("reference.wall_s", "s"),
    lower("replay.wall_s", "s"),
    lower("threaded.peak_rss_mb", "MB"),
    lower("replay.unattributed_share", "ratio"),
    lower("replay.trace_overhead", "ratio"),
    lower("engine.threaded_over_sequential", "ratio"),
    lower("engine.map.us_per_call", "us"),
    // cdp-core, from the replay's spans.
    lower("pm.initial_fit.busy_s", "s"),
    lower("pm.online.busy_s", "s"),
    lower("pm.online.ms_p50", "ms"),
    lower("proactive.fire.busy_s", "s"),
    lower("proactive.fire.ms_p50", "ms"),
    lower("proactive.fire.ms_p99", "ms"),
    higher("proactive.mat_chunks", "count"),
    lower("proactive.remat_chunks", "count"),
    higher("proactive.mu", "ratio"),
    lower("stream.arrival.busy_s", "s"),
    lower("dm.ingest_raw.busy_s", "s"),
    lower("dm.store_features.busy_s", "s"),
    lower("dm.sample.busy_s", "s"),
    lower("storage.evictions", "count"),
    lower("storage.spill_write_mb", "MB"),
    lower("storage.spill_reads", "count"),
    lower("storage.recomputes", "count"),
    // cdp-ml, cdp-pipeline, cdp-sampling, from the drives.
    lower("ml.online_pass.busy_s", "s"),
    lower("ml.step_rows.busy_s", "s"),
    lower("ml.step_rows.ms_p50", "ms"),
    lower("ml.predict.ns_per_row", "ns"),
    lower("pipeline.fit_transform.busy_s", "s"),
    lower("pipeline.transform.busy_s", "s"),
    lower("pipeline.stats_share", "ratio"),
    lower("pipeline.us_per_row", "us"),
    lower("sampling.uniform.busy_s", "s"),
    lower("sampling.time_based.busy_s", "s"),
    lower("sampling.window.busy_s", "s"),
    // Durability and observability (url_durable).
    lower("wal.append.busy_s", "s"),
    lower("wal.gc.busy_s", "s"),
    lower("wal.recover.busy_s", "s"),
    lower("wal.commits", "count"),
    lower("wal.mb", "MB"),
    lower("checkpoint.encode.busy_s", "s"),
    lower("checkpoint.write.busy_s", "s"),
    lower("checkpoint.decode.busy_s", "s"),
    lower("checkpoint.writes", "count"),
    lower("checkpoint.mb", "MB"),
    lower("obs.sample.busy_s", "s"),
    lower("obs.recorder_flush.busy_s", "s"),
    lower("obs.series", "count"),
    lower("obs.share", "ratio"),
    lower("durable_write_mb", "MB"),
    lower("resume_s", "s"),
    // Serving (publishes on url_durable, reads and publishes on serve_storm).
    lower("serving.publish.busy_s", "s"),
    lower("serving.publish.us_p50", "us"),
    lower("serving.predict.us_p50", "us"),
    lower("serving.predict.us_p99", "us"),
    lower("serving.predict.us_p999", "us"),
    higher("serving.quiet_qps", "1/s"),
    higher("serving.storm_over_quiet", "ratio"),
    higher("serve_batched_qps", "1/s"),
    lower("serving.rejected", "count"),
    // The paper's accounted cost classes: deterministic counts of work.
    lower("cost.accounted_prep_s", "s"),
    lower("cost.accounted_train_s", "s"),
    lower("cost.accounted_predict_s", "s"),
    lower("cost.accounted_io_s", "s"),
];

fn json_str_list(items: &[&str]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    format!("[{}]", quoted.join(", "))
}

fn better_str(b: Better) -> &'static str {
    match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    }
}

/// The contents of `BENCHMARK.json`.
pub fn describe() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let metric = |m: &MetricDef| {
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            m.name,
            m.unit,
            better_str(m.better)
        )
    };
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(m, bound)| format!("{}, \"bound\": {bound}}}", metric(m)))
        .collect();
    let per_layer: Vec<String> = PER_LAYER.iter().map(|m| metric(m) + "}").collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        json_str_list(COMMAND),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

/// What one run measured and checked.
#[derive(Debug)]
pub struct Report {
    trace: bool,
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// An empty report for an end-to-end (`trace == false`) or traced run.
    pub fn new(trace: bool) -> Self {
        Self {
            trace,
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Whether this run reports the per-layer metrics.
    pub fn is_traced(&self) -> bool {
        self.trace
    }

    /// Records a metric.
    ///
    /// # Panics
    /// When `name` is in neither list: a typo in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let known = END_TO_END.iter().any(|(m, _)| m.name == name)
            || PER_LAYER.iter().any(|m| m.name == name);
        assert!(known, "metric {name} is not in the catalogue");
        self.values.insert(name, value);
    }

    /// Counts one operation (a run, a resume, a comparison) and whether it
    /// came out right.
    pub fn op(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {what}");
        }
    }

    /// Counts a batch of operations.
    pub fn ops(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("FAILED: {failed} of {attempted} {what}");
        }
    }

    /// Prints every metric of this run's list by name and unit, then the
    /// result object as the last line. Returns whether the run was correct.
    pub fn print(&self, workload: &str) -> bool {
        let defs: Vec<MetricDef> = if self.trace {
            PER_LAYER.to_vec()
        } else {
            END_TO_END.iter().map(|(m, _)| *m).collect()
        };
        // A metric that was not measured, or is not a number, is one more
        // failed operation.
        let mut unmeasured = 0u64;
        let mut fields = Vec::with_capacity(defs.len());
        for def in &defs {
            let value = match self.values.get(def.name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    eprintln!("FAILED: {} is {v}", def.name);
                    unmeasured += 1;
                    0.0
                }
                // A layer this workload does not exercise.
                None if self.trace => 0.0,
                None => {
                    eprintln!("FAILED: {} was not measured", def.name);
                    unmeasured += 1;
                    0.0
                }
            };
            println!("{workload:<12} {:<34} {value:>16.6} {}", def.name, def.unit);
            fields.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            ));
        }
        let attempted = self.attempted + unmeasured;
        let failed = self.failed + unmeasured;
        let correct = failed == 0 && attempted > 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            attempted.max(1),
            fields.join(", ")
        );
        correct
    }
}
