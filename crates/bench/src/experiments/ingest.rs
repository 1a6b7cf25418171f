//! The arrival scenarios (sudden drift, recurring drift, bursty arrivals,
//! out-of-order chunks) driven end-to-end through the WAL on the simulated
//! clock, each run's prequential-error trajectory written chunk by chunk so
//! drift response is inspectable. What the WAL costs in wall-clock time is
//! the benchmark's `wal.*` layers on `url_durable`, not a number of this
//! experiment.

use std::path::Path;

use cdp_core::deployment::{run_deployment, DeploymentConfig, DeploymentResult, WalConfig};
use cdp_core::presets::{url_spec, DeploymentSpec, SpecScale};
use cdp_core::report::{fmt_f, Table};
use cdp_datagen::scenarios::{BurstyArrivals, OutOfOrderArrivals, RecurringDrift, SuddenDrift};
use cdp_datagen::ChunkStream;
use cdp_sampling::SamplingStrategy;
use cdp_storage::StorageBudget;

fn workload(spec: &DeploymentSpec) -> DeploymentConfig {
    let mut config = DeploymentConfig::continuous(
        spec.proactive_every,
        spec.sample_chunks,
        SamplingStrategy::Uniform,
    );
    config.optimization.budget = StorageBudget::MaxChunks(8);
    config.collect_metrics = true;
    config.engine = crate::engine();
    config
}

/// Runs the scenario suite on the URL pipeline, writing
/// `ingest_scenarios.csv` and `ingest_scenario_trajectories.csv` into
/// `out_dir` (WAL segments land under `ingest-wal/` and are cleaned up).
pub fn run(scale: SpecScale, out_dir: &Path) -> String {
    let (_, spec) = url_spec(scale);
    let base = workload(&spec);
    let wal_root = out_dir.join("ingest-wal");

    // Each wrapper over the same URL stream, commits of 8 appends (the
    // simulated group-commit window off), deterministic on the virtual clock.
    let wrapped: [(&str, Box<dyn ChunkStream>); 4] = [
        ("sudden-drift", {
            let (s, _) = url_spec(scale);
            let cut = s.initial_chunks() + (s.total_chunks() - s.initial_chunks()) / 2;
            Box::new(SuddenDrift::new(s, cut))
        }),
        ("recurring-drift", {
            let (s, _) = url_spec(scale);
            Box::new(RecurringDrift::new(s, 6))
        }),
        ("bursty-arrivals", {
            let (s, _) = url_spec(scale);
            Box::new(BurstyArrivals::new(s, 41, 4, 0.3))
        }),
        ("out-of-order", {
            let (s, _) = url_spec(scale);
            Box::new(OutOfOrderArrivals::new(s, 41, 4))
        }),
    ];
    let mut trajectories = Table::new(["scenario", "chunk", "error", "cost s"]);
    let mut scenario_rows: Vec<(&str, DeploymentResult)> = Vec::new();
    for (name, scenario) in &wrapped {
        let dir = wal_root.join(format!("scenario-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = base.clone();
        config.wal = Some(
            WalConfig::new(&dir)
                .fsync_every(8)
                .group_window(0.0)
                .segment_bytes(64 * 1024),
        );
        let run = run_deployment(scenario.as_ref(), &spec, &config);
        for (i, (chunk, err)) in run.error_curve.iter().enumerate() {
            let cost = run.cost_curve.get(i).map(|(_, c)| *c).unwrap_or(0.0);
            trajectories.row([
                (*name).to_owned(),
                chunk.to_string(),
                fmt_f(*err, 6),
                fmt_f(cost, 3),
            ]);
        }
        scenario_rows.push((name, run));
    }
    let _ = std::fs::remove_dir_all(&wal_root);

    let mut scen_table = Table::new([
        "scenario",
        "final error",
        "cost s",
        "wal appends",
        "wal commits",
        "alerts",
    ]);
    for (name, run) in &scenario_rows {
        scen_table.row([
            (*name).to_owned(),
            fmt_f(run.final_error, 4),
            fmt_f(run.total_secs, 1),
            run.wal_stats.appends.to_string(),
            run.wal_stats.commits.to_string(),
            run.alerts.len().to_string(),
        ]);
    }

    let _ = std::fs::create_dir_all(out_dir);
    crate::write_csv(&scen_table, out_dir.join("ingest_scenarios.csv"));
    crate::write_csv(
        &trajectories,
        out_dir.join("ingest_scenario_trajectories.csv"),
    );
    format!(
        "Ingest: scenario suite on the Continuous URL deployment \
         (WAL on, fsync batch 8, virtual clock):\n{}\n",
        scen_table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_suite_writes_its_artifacts() {
        let dir = std::env::temp_dir().join(format!("cdp-ingest-bench-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let report = run(SpecScale::Tiny, &dir);
        assert!(report.contains("bursty-arrivals"));
        let scenarios = std::fs::read_to_string(dir.join("ingest_scenarios.csv")).unwrap();
        assert!(scenarios.contains("recurring-drift"));
        let traj = std::fs::read_to_string(dir.join("ingest_scenario_trajectories.csv")).unwrap();
        assert!(traj.contains("sudden-drift"));
        assert!(traj.contains("out-of-order"));
        assert!(!dir.join("ingest-wal").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
