//! Experiment regenerators for every table and figure in the paper's
//! evaluation (§5), plus shared harness utilities.
//!
//! Each experiment is a library function in [`experiments`] returning the
//! rendered report text (and writing CSV artifacts under `results/`); the
//! `src/bin/exp_*` binaries are thin wrappers. Run them in release mode:
//!
//! ```sh
//! cargo run --release -p cdp-bench --bin exp_fig4_deployment -- --scale repo
//! ```
//!
//! | binary | regenerates |
//! |---|---|
//! | `exp_datasets` | Table 2 (dataset descriptions) |
//! | `exp_table3_tuning` | Table 3 (initial hyperparameter grid) |
//! | `exp_fig4_deployment` | Figure 4 a–d (quality & cost over time) |
//! | `exp_fig5_deployed_tuning` | Figure 5 (deployed tuning) |
//! | `exp_fig6_sampling_quality` | Figure 6 (sampling strategies vs quality) |
//! | `exp_table4_mu` | Table 4 (empirical vs theoretical μ) |
//! | `exp_fig7_materialization_cost` | Figure 7 (optimizations vs cost) |
//! | `exp_fig8_tradeoff` | Figure 8 (quality/cost trade-off) |
//! | `exp_fault_recovery` | fault-injection recovery sweep (`fault_recovery.csv`) |
//! | `postmortem` | crash a seeded run / rebuild its timeline from flight-recorder segments |
//! | `exp_all` | everything above, in order |
//!
//! All binaries accept `--workers N` to pick the execution engine
//! (0 = sequential; default: one worker per host core). Engine choice never
//! changes results — deployments are bit-identical across engines.

#![warn(missing_docs)]

pub mod experiments;

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use cdp_core::presets::SpecScale;
use cdp_core::report::Table;
use cdp_engine::ExecutionEngine;

static ENGINE: OnceLock<ExecutionEngine> = OnceLock::new();

/// The execution engine experiment runs use, set once from `--workers`
/// (0 = sequential, N = a persistent pool of N workers; default: one worker
/// per host core). Deployment results are bit-identical across engines, so
/// the choice only affects wall-clock time.
pub fn engine() -> ExecutionEngine {
    *ENGINE.get_or_init(ExecutionEngine::threaded_auto)
}

/// Runs a deployment on the process-wide [`engine`]. Results are
/// bit-identical to a sequential run; only wall-clock time changes.
pub fn deploy(
    stream: &dyn cdp_datagen::ChunkStream,
    spec: &cdp_core::presets::DeploymentSpec,
    mut config: cdp_core::deployment::DeploymentConfig,
) -> cdp_core::deployment::DeploymentResult {
    config.engine = engine();
    cdp_core::deployment::run_deployment(stream, spec, &config)
}

/// Writes `table` as CSV with a leading `# key: value` comment block that
/// records which engine produced the artifact.
pub fn write_csv(table: &Table, path: impl AsRef<Path>) {
    let name = engine().name();
    let _ = table.write_csv_with_meta(path, &[("engine", &name)]);
}

/// Parses `--scale tiny|repo|paper` from argv (default `repo`), an optional
/// `--out <dir>` (default `results/`), and an optional `--workers N`
/// (0 = sequential; default: one worker per core), which fixes the engine
/// returned by [`engine`] for the rest of the process.
pub fn parse_args() -> (SpecScale, PathBuf) {
    let args: Vec<String> = std::env::args().collect();
    let mut scale = SpecScale::Repo;
    let mut out = PathBuf::from("results");
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" if i + 1 < args.len() => {
                scale = match args[i + 1].as_str() {
                    "tiny" => SpecScale::Tiny,
                    "repo" => SpecScale::Repo,
                    "paper" => SpecScale::Paper,
                    other => {
                        eprintln!("unknown scale '{other}', using repo");
                        SpecScale::Repo
                    }
                };
                i += 2;
            }
            "--out" if i + 1 < args.len() => {
                out = PathBuf::from(&args[i + 1]);
                i += 2;
            }
            "--workers" if i + 1 < args.len() => {
                match args[i + 1].parse::<usize>() {
                    Ok(0) => {
                        let _ = ENGINE.set(ExecutionEngine::Sequential);
                    }
                    Ok(workers) => {
                        let _ = ENGINE.set(ExecutionEngine::Threaded { workers });
                    }
                    Err(_) => eprintln!("invalid --workers '{}', using one per core", args[i + 1]),
                }
                i += 2;
            }
            other => {
                eprintln!("ignoring unknown argument '{other}'");
                i += 1;
            }
        }
    }
    (scale, out)
}

/// Standard binary entry: parse args, run the experiment, print its report.
pub fn run_binary(name: &str, run: fn(SpecScale, &std::path::Path) -> String) {
    let (scale, out) = parse_args();
    eprintln!(
        "[{name}] scale = {scale:?}, engine = {}, artifacts → {}",
        engine().name(),
        out.display()
    );
    let started = std::time::Instant::now();
    let report = run(scale, &out);
    println!("{report}");
    eprintln!(
        "[{name}] finished in {:.1} s",
        started.elapsed().as_secs_f64()
    );
}
