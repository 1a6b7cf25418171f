//! Machine-learning pipelines with **online statistics computation**.
//!
//! A [`Pipeline`] is the paper's deployable preprocessing unit: an input
//! [`parser::Parser`] turning a chunk's raw [`cdp_storage::Record`]s into one
//! column-major [`ColumnBatch`], a chain of [`Component`]s (imputer, scaler,
//! filters, feature extractors) editing it in place, and a final [`Encoder`]
//! turning it into the columnar slab the store keeps.
//!
//! Every stateful component implements the paper's two methods (§4.3):
//!
//! * `update` — incrementally folds a batch into the component's statistics
//!   (Welford mean/variance for the scaler and imputer, category tables for
//!   the one-hot encoder). This is the *online statistics computation* of
//!   §3.1: statistics are refreshed while the online learner consumes the
//!   arriving chunk, so proactive training and re-materialization never
//!   rescan data to recompute them.
//! * `transform` — applies the component using the current statistics,
//!   without touching them. Prediction queries and chunk re-materialization
//!   use only this path, which also guarantees train/serve consistency.
//!
//! Components whose statistics cannot be updated incrementally (exact
//! percentiles, PCA) are intentionally not provided — the platform does not
//! support them (paper §3.1); [`component::Component::is_incremental`]
//! documents the contract for user-defined components.
//!
//! Snapshot/restore for warm starting is by cloning: a [`Pipeline`] is
//! `Clone`, and a clone carries all component statistics.

#![warn(missing_docs)]

pub mod anomaly;
pub mod batch;
pub mod component;
pub mod drift;
pub mod encode;
pub mod extract;
pub mod impute;
pub mod parser;
pub mod pipeline;
pub mod scale;
pub mod stats;

pub use batch::ColumnBatch;
pub use component::{Component, StateDecodeError};
pub use encode::Encoder;
pub use pipeline::{Pipeline, PipelineBuilder, PipelineCounters, PipelineError, QueryScratch};
