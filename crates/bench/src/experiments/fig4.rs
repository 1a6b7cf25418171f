//! Figure 4: model quality (a, c) and training cost (b, d) over time for
//! Online vs Periodical vs Continuous deployment, on both pipelines.
//!
//! The paper's headline: continuous deployment cuts total cost ~15× (URL)
//! and ~6× (Taxi) against periodical retraining at the same (slightly
//! better) model quality. Absolute seconds here come from the deterministic
//! cost model; the *shape* — ordering, step-jumps at retraining points, and
//! the cost ratios — is the reproduced result.

use std::path::Path;

use cdp_core::deployment::{DeploymentConfig, DeploymentResult};
use cdp_core::presets::{taxi_spec, url_spec, DeploymentSpec, SpecScale};
use cdp_core::report::{fmt_f, fmt_secs, sparkline, Table};
use cdp_datagen::ChunkStream;
use cdp_sampling::SamplingStrategy;

/// The three approaches, configured with the spec's paper defaults.
pub fn three_approaches(spec: &DeploymentSpec) -> Vec<(&'static str, DeploymentConfig)> {
    vec![
        ("Online", DeploymentConfig::online()),
        (
            "Periodical",
            DeploymentConfig::periodical(spec.retrain_every),
        ),
        (
            "Continuous",
            DeploymentConfig::continuous(
                spec.proactive_every,
                spec.sample_chunks,
                SamplingStrategy::TimeBased,
            ),
        ),
    ]
}

/// Runs the comparison for one pipeline, returning `(name, result)` rows.
pub fn compare(
    stream: &dyn ChunkStream,
    spec: &DeploymentSpec,
) -> Vec<(&'static str, DeploymentResult)> {
    three_approaches(spec)
        .into_iter()
        .map(|(name, mut config)| {
            // Metrics and traces never perturb results (weights, curves,
            // and accounted cost stay bit-identical), so the artifacts
            // always include the observability snapshot and span tree.
            config.collect_metrics = true;
            config.collect_traces = true;
            (name, crate::deploy(stream, spec, config))
        })
        .collect()
}

fn render(dataset: &str, metric: &str, results: &[(&str, DeploymentResult)], out: &Path) -> String {
    let mut table = Table::new([
        "approach",
        metric,
        "avg err",
        "cost",
        "prep",
        "train",
        "predict",
        "error curve",
        "cost curve",
    ]);
    for (name, r) in results {
        table.row([
            (*name).to_owned(),
            fmt_f(r.final_error, 4),
            fmt_f(r.average_error, 4),
            fmt_secs(r.total_secs),
            fmt_secs(r.preprocessing_secs),
            fmt_secs(r.training_secs),
            fmt_secs(r.prediction_secs),
            sparkline(&r.error_curve, 20),
            sparkline(&r.cost_curve, 20),
        ]);
    }
    crate::write_csv(
        &table,
        out.join(format!("fig4_{}_summary.csv", dataset.to_lowercase())),
    );

    // Full curves for external plotting.
    let mut curves = Table::new(["approach", "chunk", "examples", "error", "cost_secs"]);
    for (name, r) in results {
        for (i, ((ex, err), (chunk, cost))) in
            r.error_curve.iter().zip(r.cost_curve.iter()).enumerate()
        {
            // Thin out very long curves.
            if i % ((r.error_curve.len() / 400).max(1)) == 0 {
                curves.row([
                    (*name).to_owned(),
                    chunk.to_string(),
                    ex.to_string(),
                    fmt_f(*err, 6),
                    fmt_f(*cost, 6),
                ]);
            }
        }
    }
    crate::write_csv(
        &curves,
        out.join(format!("fig4_{}_curves.csv", dataset.to_lowercase())),
    );

    // Observability snapshot for the paper's approach (engine / storage /
    // scheduler / trainer counters and latency histograms).
    if let Some((_, r)) = results.iter().find(|(name, _)| *name == "Continuous") {
        let stem = format!("fig4_{}_metrics", dataset.to_lowercase());
        let _ = std::fs::write(out.join(format!("{stem}.csv")), r.metrics.to_csv());
        let _ = std::fs::write(out.join(format!("{stem}.json")), r.metrics.to_json());
        // Causal span tree of the same run, loadable in chrome://tracing
        // (and as flamegraph-folded stacks for inferno et al.).
        let ds = dataset.to_lowercase();
        let _ = r
            .trace
            .write_chrome_trace(out.join(format!("fig4_{ds}_trace.json")));
        let _ = r
            .trace
            .write_folded_stacks(out.join(format!("fig4_{ds}_trace.folded")));
    }

    let periodical = &results[1].1;
    let continuous = &results[2].1;
    format!(
        "-- {dataset} --\n{}\nperiodical/continuous cost ratio: {:.1}x   \
         (paper: {}x)\ncontinuous avg proactive time: {}; periodical retrains: {}\n\n",
        table.render(),
        periodical.cost_ratio_to(continuous),
        if dataset == "URL" { "15" } else { "6" },
        fmt_secs(continuous.avg_proactive_secs),
        periodical.retrain_runs,
    )
}

/// Regenerates Figure 4 (all four panels).
pub fn run(scale: SpecScale, out_dir: &Path) -> String {
    let mut out =
        String::from("Figure 4: deployment approaches — quality (a, c) and cost (b, d)\n\n");
    let (url_stream, url) = url_spec(scale);
    let url_results = compare(&url_stream, &url);
    out.push_str(&render("URL", "error", &url_results, out_dir));

    let (taxi_stream, taxi) = taxi_spec(scale);
    let taxi_results = compare(&taxi_stream, &taxi);
    out.push_str(&render("Taxi", "RMSLE", &taxi_results, out_dir));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_comparison_has_expected_shape() {
        let dir = std::env::temp_dir().join(format!("cdp-f4-{}", std::process::id()));
        let report = run(SpecScale::Tiny, &dir);
        assert!(report.contains("-- URL --"));
        assert!(report.contains("-- Taxi --"));
        assert!(report.contains("cost ratio"));
        assert!(dir.join("fig4_url_curves.csv").exists());
        let metrics_csv = match std::fs::read_to_string(dir.join("fig4_url_metrics.csv")) {
            Ok(s) => s,
            Err(e) => panic!("metrics csv must exist: {e}"),
        };
        assert!(metrics_csv.contains("scheduler.fires"));
        assert!(metrics_csv.contains("proactive.runs"));
        assert!(dir.join("fig4_url_metrics.json").exists());
        // The trace artifact must be chrome://tracing-loadable and span
        // the worker pool (engine tasks on threads other than the driver).
        let trace_json = match std::fs::read_to_string(dir.join("fig4_url_trace.json")) {
            Ok(s) => s,
            Err(e) => panic!("trace json must exist: {e}"),
        };
        match cdp_obs::validate_chrome_trace(&trace_json) {
            Ok(events) => assert!(events > 0, "trace must contain events"),
            Err(e) => panic!("invalid chrome trace: {e}"),
        }
        assert!(dir.join("fig4_url_trace.folded").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
