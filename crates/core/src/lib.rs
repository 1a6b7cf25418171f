//! The continuous-deployment platform (the paper's primary contribution).
//!
//! This crate assembles the substrates into the architecture of Figure 3:
//!
//! * [`data_manager`] — discretized chunk storage, dynamic materialization,
//!   and sampling (wraps `cdp-storage` + `cdp-sampling`);
//! * [`pipeline_manager`] — owns the deployed pipeline and model; processes
//!   training chunks (online statistics computation + online learning),
//!   answers prediction queries, re-materializes evicted feature chunks;
//! * [`scheduler`] — decides *when* proactive training runs: static
//!   intervals or the dynamic rule `T' = S·T·pr·pl` (Eq. 6);
//! * [`proactive`] — the proactive trainer: executes single mini-batch SGD
//!   iterations over sampled historical data;
//! * [`deployment`] — end-to-end drivers for the three approaches compared
//!   in the paper's evaluation: **Online**, **Periodical** (with TFX-style
//!   warm starting), and **Continuous** (this paper);
//! * [`presets`] — the two evaluation pipelines (URL and Taxi) bound to the
//!   synthetic streams;
//! * [`tuning`] — the hyperparameter grid search of Experiment 2;
//! * [`report`] — plain-text table / CSV helpers for the experiment
//!   binaries.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod data_manager;
pub mod deployment;
pub mod pipeline_manager;
pub mod presets;
pub mod proactive;
pub mod report;
pub mod scheduler;
pub mod serving;
pub mod tuning;

pub use checkpoint::DeploymentCheckpoint;
pub use data_manager::DataManager;
pub use deployment::{
    run_deployment, try_resume_deployment, try_run_deployment, try_run_deployment_in,
    CheckpointConfig, CheckpointStats, DeploymentConfig, DeploymentError, DeploymentMode,
    DeploymentResult, OptimizationConfig, RecorderConfig, TelemetryConfig,
};
pub use pipeline_manager::PipelineManager;
pub use presets::{taxi_spec, url_spec, DeploymentSpec, SpecScale};
pub use proactive::ProactiveTrainer;
pub use scheduler::{Scheduler, SchedulerContext};
pub use serving::{weights_fingerprint, ModelServer, Prediction, ServingSnapshot};
