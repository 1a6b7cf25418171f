//! Property: the execution engine is an implementation detail. A Continuous
//! deployment run on a persistent worker pool of any size must be
//! bit-identical — prequential error, model weights, accounted cost — to
//! the sequential run, on both paper pipelines.

use cdpipe::core::deployment::{
    run_deployment, try_resume_deployment, try_run_deployment, CheckpointConfig, DeploymentConfig,
    DeploymentError, DeploymentResult,
};
use cdpipe::core::presets::{taxi_spec, url_spec, SpecScale};
use cdpipe::engine::ExecutionEngine;
use cdpipe::faults::{CrashSite, FaultPlan};
use cdpipe::sampling::SamplingStrategy;
use cdpipe::storage::StorageBudget;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

fn continuous_config(bounded_cache: bool) -> DeploymentConfig {
    let mut config = DeploymentConfig::continuous(2, 3, SamplingStrategy::TimeBased);
    if bounded_cache {
        // Force sampled chunks through engine-parallel re-materialization.
        config.optimization.budget = StorageBudget::MaxChunks(5);
    }
    config
}

fn run_on(url: bool, config: &DeploymentConfig) -> DeploymentResult {
    if url {
        let (stream, spec) = url_spec(SpecScale::Tiny);
        run_deployment(&stream, &spec, config)
    } else {
        let (stream, spec) = taxi_spec(SpecScale::Tiny);
        run_deployment(&stream, &spec, config)
    }
}

fn try_run_on(url: bool, config: &DeploymentConfig) -> Result<DeploymentResult, DeploymentError> {
    if url {
        let (stream, spec) = url_spec(SpecScale::Tiny);
        try_run_deployment(&stream, &spec, config)
    } else {
        let (stream, spec) = taxi_spec(SpecScale::Tiny);
        try_run_deployment(&stream, &spec, config)
    }
}

proptest! {
    /// Continuous deployment with `Threaded { workers ∈ 1..8 }` reproduces
    /// the sequential run bit for bit on the URL and Taxi presets.
    #[test]
    fn threaded_continuous_deployment_is_bit_identical(
        workers in 1usize..8,
        url in prop::bool::ANY,
        bounded_cache in prop::bool::ANY,
    ) {
        let sequential = run_on(url, &continuous_config(bounded_cache));
        let mut threaded_cfg = continuous_config(bounded_cache);
        threaded_cfg.engine = ExecutionEngine::Threaded { workers };
        let threaded = run_on(url, &threaded_cfg);

        // Prequential error, at every checkpoint and at the end.
        prop_assert_eq!(
            sequential.final_error.to_bits(),
            threaded.final_error.to_bits()
        );
        prop_assert_eq!(&sequential.error_curve, &threaded.error_curve);
        // Model weights.
        prop_assert_eq!(&sequential.final_weights, &threaded.final_weights);
        // Cost-ledger totals.
        prop_assert_eq!(
            sequential.total_secs.to_bits(),
            threaded.total_secs.to_bits()
        );
        prop_assert_eq!(
            sequential.training_secs.to_bits(),
            threaded.training_secs.to_bits()
        );
        prop_assert_eq!(sequential.proactive_runs, threaded.proactive_runs);
    }

    /// Seeded worker-panic injection does not break engine equivalence:
    /// with the same fault seed, a threaded run under injected panics is
    /// bit-identical to the sequential run under the same plan — and both
    /// report the exact same fault accounting. Panic decisions are keyed by
    /// a per-call epoch, not by worker identity, so worker count cannot
    /// change what is injected; restarts happen before any input is
    /// consumed, so they cannot change the results.
    #[test]
    fn injected_worker_panics_preserve_bit_identity(
        workers in 1usize..8,
        fault_seed in 0u64..1_000,
        url in prop::bool::ANY,
    ) {
        let mut base = continuous_config(true);
        base.faults = FaultPlan {
            seed: fault_seed,
            worker_panic: 0.35,
            ..FaultPlan::none()
        };

        let sequential = try_run_on(url, &base);
        let mut threaded_cfg = base;
        threaded_cfg.engine = ExecutionEngine::Threaded { workers };
        let threaded = try_run_on(url, &threaded_cfg);

        match (sequential, threaded) {
            (Ok(sequential), Ok(threaded)) => {
                prop_assert_eq!(
                    sequential.final_error.to_bits(),
                    threaded.final_error.to_bits()
                );
                prop_assert_eq!(&sequential.error_curve, &threaded.error_curve);
                prop_assert_eq!(&sequential.final_weights, &threaded.final_weights);
                prop_assert_eq!(
                    sequential.total_secs.to_bits(),
                    threaded.total_secs.to_bits()
                );
                prop_assert_eq!(sequential.fault_stats, threaded.fault_stats);

                // The plan contains only recoverable worker faults, so the
                // run also matches the fault-free model exactly.
                let clean = run_on(url, &continuous_config(true));
                prop_assert_eq!(&clean.final_weights, &sequential.final_weights);
            }
            // A seed whose panic streak exhausts the restart budget is fatal
            // on *every* engine or on none: the decision is epoch-keyed, not
            // worker-keyed.
            (Err(_), Err(_)) => {}
            (s, t) => prop_assert!(
                false,
                "engines disagree on fatality: sequential ok={}, threaded ok={}",
                s.is_ok(),
                t.is_ok()
            ),
        }
    }

    /// Span collection is a pure observer: a traced threaded run is
    /// bit-identical to the untraced sequential run — with and without a
    /// recoverable fault plan active — so which participant claims which
    /// unit from the shared counter, which the tracer records, never leaks
    /// into results. This sweeps the full grid the fused proactive path
    /// must survive: worker count × fault plan × tracing on/off.
    #[test]
    fn tracing_never_perturbs_threaded_determinism(
        workers in 1usize..9,
        traced in prop::bool::ANY,
        faulted in prop::bool::ANY,
        url in prop::bool::ANY,
    ) {
        let mut base = continuous_config(true);
        if faulted {
            base.faults = FaultPlan {
                seed: 11,
                worker_panic: 0.2,
                ..FaultPlan::none()
            };
        }
        let baseline = try_run_on(url, &base).expect("baseline run");

        let mut cfg = base;
        cfg.engine = ExecutionEngine::Threaded { workers };
        cfg.collect_traces = traced;
        let run = try_run_on(url, &cfg).expect("traced threaded run");

        prop_assert_eq!(
            baseline.final_error.to_bits(),
            run.final_error.to_bits()
        );
        prop_assert_eq!(&baseline.error_curve, &run.error_curve);
        prop_assert_eq!(&baseline.final_weights, &run.final_weights);
        prop_assert_eq!(baseline.total_secs.to_bits(), run.total_secs.to_bits());
        prop_assert_eq!(baseline.fault_stats, run.fault_stats);
        // Tracing actually happened when requested.
        prop_assert_eq!(traced, !run.trace.spans.is_empty());
    }
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn ckpt_dir() -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "cdp-engine-det-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    /// Kill-and-resume on the shared-counter pool: a run crashed at a chunk
    /// boundary or at a durable operation (here a checkpoint publish, the
    /// only kind this run has) and resumed on a threaded engine ends
    /// bit-identical to the uninterrupted *sequential* run. The restored
    /// worker-fault epoch and trainer state cannot depend on how many
    /// workers the resumed pool has.
    #[test]
    fn threaded_resume_is_bit_identical_to_sequential(
        workers in 1usize..9,
        durable_site in prop::bool::ANY,
        crash_at in 1u64..6,
    ) {
        let baseline = run_on(true, &continuous_config(true));

        let dir = ckpt_dir();
        let mut cfg = continuous_config(true);
        cfg.engine = ExecutionEngine::Threaded { workers };
        cfg.checkpoint = Some(CheckpointConfig::new(&dir).every(1).keep(2));
        cfg.faults = FaultPlan {
            crash_site: Some(if durable_site {
                CrashSite::Durable
            } else {
                CrashSite::ChunkBoundary
            }),
            crash_at,
            ..FaultPlan::none()
        };

        match try_run_on(true, &cfg) {
            Err(DeploymentError::Crashed(_)) => {
                let (stream, spec) = url_spec(SpecScale::Tiny);
                match try_resume_deployment(&stream, &spec, &cfg) {
                    Ok(resumed) => {
                        prop_assert_eq!(&baseline.final_weights, &resumed.final_weights);
                        prop_assert_eq!(&baseline.error_curve, &resumed.error_curve);
                        prop_assert_eq!(
                            baseline.final_error.to_bits(),
                            resumed.final_error.to_bits()
                        );
                        prop_assert_eq!(
                            baseline.total_secs.to_bits(),
                            resumed.total_secs.to_bits()
                        );
                        prop_assert_eq!(baseline.proactive_runs, resumed.proactive_runs);
                    }
                    // Crashed before the first durable checkpoint.
                    Err(DeploymentError::NoCheckpoint(_)) => {}
                    Err(other) => {
                        let _ = std::fs::remove_dir_all(&dir);
                        return Err(format!("resume failed: {other}"));
                    }
                }
            }
            Ok(completed) => {
                // The countdown outlived the run; the checkpointed threaded
                // run itself must still match the sequential baseline.
                prop_assert_eq!(&baseline.final_weights, &completed.final_weights);
            }
            Err(other) => {
                let _ = std::fs::remove_dir_all(&dir);
                return Err(format!("run failed: {other}"));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
