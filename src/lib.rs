//! # cdpipe — Continuous Deployment of Machine Learning Pipelines
//!
//! A from-scratch Rust reproduction of *Continuous Deployment of Machine
//! Learning Pipelines* (Derakhshan, Rezaei Mahdiraji, Rabl, Markl —
//! EDBT 2019): a platform that keeps a deployed ML pipeline + model fresh
//! with **proactive training** (scheduled mini-batch SGD over samples of the
//! history) instead of periodical full retraining, accelerated by **online
//! statistics computation** and **dynamic materialization** of preprocessed
//! feature chunks.
//!
//! ## Quickstart
//!
//! ```
//! use cdpipe::core::{run_deployment, url_spec, DeploymentConfig, SpecScale};
//! use cdpipe::sampling::SamplingStrategy;
//!
//! // The paper's URL experiment at test scale: a drifting, sparse,
//! // high-dimensional classification stream plus its 5-stage pipeline.
//! let (stream, spec) = url_spec(SpecScale::Tiny);
//!
//! // Deploy continuously: proactive training every 2 chunks, sampling 3
//! // chunks per instance with time-based (recency-weighted) sampling.
//! let config = DeploymentConfig::continuous(2, 3, SamplingStrategy::TimeBased);
//! let result = run_deployment(&stream, &spec, &config);
//!
//! assert!(result.proactive_runs > 0);
//! assert!(result.final_error < 0.5);
//! println!(
//!     "error {:.3}, cost {:.1}s, {} proactive steps",
//!     result.final_error, result.total_secs, result.proactive_runs
//! );
//! ```
//!
//! ## Crate map
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`linalg`] | `cdp-linalg` | the row vector a prediction query returns |
//! | [`storage`] | `cdp-storage` | timestamped chunks, budgeted feature cache, disk tier |
//! | [`pipeline`] | `cdp-pipeline` | `update`/`transform` components, online statistics |
//! | [`ml`] | `cdp-ml` | losses, Adam/RMSProp/AdaDelta, mini-batch SGD |
//! | [`sampling`] | `cdp-sampling` | uniform / window / time-based sampling, μ analysis |
//! | [`engine`] | `cdp-engine` | sequential / threaded chunk-parallel execution |
//! | [`eval`] | `cdp-eval` | prequential error, deployment-cost ledger |
//! | [`datagen`] | `cdp-datagen` | synthetic URL & Taxi streams |
//! | [`obs`] | `cdp-obs` | metrics, spans, event log, injectable clock |
//! | [`core`] | `cdp-core` | the platform: managers, scheduler, deployment drivers |

#![warn(missing_docs)]

pub use cdp_core as core;
pub use cdp_datagen as datagen;
pub use cdp_engine as engine;
pub use cdp_eval as eval;
pub use cdp_faults as faults;
pub use cdp_linalg as linalg;
pub use cdp_ml as ml;
pub use cdp_obs as obs;
pub use cdp_pipeline as pipeline;
pub use cdp_sampling as sampling;
pub use cdp_storage as storage;

/// The most common imports for platform users.
pub mod prelude {
    pub use cdp_core::checkpoint::DeploymentCheckpoint;
    pub use cdp_core::deployment::{
        run_deployment, try_resume_deployment, try_run_deployment, try_run_deployment_in,
        CheckpointConfig, CheckpointStats, DeploymentConfig, DeploymentError, DeploymentMode,
        DeploymentResult, OptimizationConfig, RecorderConfig, TelemetryConfig, WalConfig,
    };
    pub use cdp_core::presets::{taxi_spec, url_spec, DeploymentSpec, SpecScale};
    pub use cdp_core::scheduler::Scheduler;
    pub use cdp_core::serving::{ModelServer, Prediction, ServingSnapshot};
    pub use cdp_datagen::scenarios::{
        BurstyArrivals, OutOfOrderArrivals, RecurringDrift, SuddenDrift,
    };
    pub use cdp_datagen::ChunkStream;
    pub use cdp_eval::ErrorMetric;
    pub use cdp_faults::{CrashSite, FaultPlan, FaultStats};
    pub use cdp_ml::{LossKind, OptimizerKind, Regularizer, SgdConfig};
    pub use cdp_obs::{
        load_segments, Alert, AlertMonitor, BurnRule, FlightRecorder, LineageEventKind, Metrics,
        MetricsSnapshot, SloMonitor, TelemetrySegment, TelemetryStore, TraceSnapshot, Tracer,
        VirtualClock, WallClock,
    };
    pub use cdp_sampling::SamplingStrategy;
    pub use cdp_storage::{StorageBudget, WalStats};
}
