//! Figure 5: effect of the hyperparameters on the *deployed* model — the
//! best configuration per adaptation technique, deployed continuously on a
//! slice of the stream.
//!
//! Reproduced claim (paper §5.3): the hyperparameters that win during
//! initial training also win during deployment, so the proactive trainer
//! can be tuned from the initial grid search alone.

use std::path::Path;

use cdp_core::presets::{taxi_spec, url_spec, DeploymentSpec, SpecScale};
use cdp_core::report::{fmt_f, Table};
use cdp_core::tuning::{
    best_per_optimizer, deployed_grid, initial_grid, nan_last, paper_grid, TuningCell,
};
use cdp_datagen::ChunkStream;

fn run_for<S: ChunkStream + Clone>(
    stream: &S,
    spec: &DeploymentSpec,
    base_eta: f64,
    deploy_fraction: f64,
) -> Vec<TuningCell> {
    let grid = paper_grid(base_eta);
    let cells = initial_grid(stream, spec, &grid);
    // Keep only the best configuration per adaptation technique (as the
    // paper's figure does) and deploy those.
    let mut best: Vec<TuningCell> = best_per_optimizer(&cells).into_iter().cloned().collect();
    deployed_grid(stream, spec, &mut best, deploy_fraction);
    best
}

fn render(name: &str, cells: &[TuningCell], prec: usize) -> Table {
    let mut table = Table::new([
        format!("{name} config"),
        "initial error".to_owned(),
        "deployed error".to_owned(),
    ]);
    for cell in cells {
        table.row([
            format!("{} λ={:.0e}", cell.optimizer.name(), cell.lambda),
            fmt_f(cell.initial_error, prec),
            cell.deployed_error
                .map(|e| fmt_f(e, prec))
                .unwrap_or_default(),
        ]);
    }
    table
}

/// Regenerates Figure 5.
pub fn run(scale: SpecScale, out_dir: &Path) -> String {
    let fraction = match scale {
        SpecScale::Tiny => 0.5,
        _ => 0.1, // the paper deploys on 10% of the remaining data
    };
    let mut out =
        String::from("Figure 5: deployed quality per adaptation technique (best λ each)\n\n");
    let (url_stream, url) = url_spec(scale);
    let url_cells = run_for(&url_stream, &url, 0.01, fraction);
    let t = render("URL", &url_cells, 4);
    crate::write_csv(&t, out_dir.join("fig5_url.csv"));
    out.push_str(&t.render());
    out.push_str(&agreement_note(&url_cells));

    let (taxi_stream, taxi) = taxi_spec(scale);
    let taxi_cells = run_for(&taxi_stream, &taxi, 0.1, fraction);
    let t = render("Taxi", &taxi_cells, 5);
    crate::write_csv(&t, out_dir.join("fig5_taxi.csv"));
    out.push_str(&t.render());
    out.push_str(&agreement_note(&taxi_cells));
    out
}

/// Checks the paper's claim: the initial-training ranking matches the
/// deployed ranking (at least for the winner).
fn agreement_note(cells: &[TuningCell]) -> String {
    let by = |key: fn(&TuningCell) -> f64| {
        cells
            .iter()
            .min_by(|a, b| nan_last(key(a)).total_cmp(&nan_last(key(b))))
    };
    let best_initial = by(|c| c.initial_error);
    let best_deployed = by(|c| c.deployed_error.unwrap_or(f64::INFINITY));
    match (best_initial, best_deployed) {
        (Some(i), Some(d)) => {
            let agree = i.optimizer.name() == d.optimizer.name();
            format!(
                "initial winner: {}; deployed winner: {} → rankings {}\n\n",
                i.optimizer.name(),
                d.optimizer.name(),
                if agree {
                    "AGREE (paper's claim)"
                } else {
                    "differ at this scale"
                }
            )
        }
        _ => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deploys_best_configs() {
        let dir = std::env::temp_dir().join(format!("cdp-f5-{}", std::process::id()));
        let report = run(SpecScale::Tiny, &dir);
        assert!(report.contains("deployed error"));
        assert!(report.contains("initial winner"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
