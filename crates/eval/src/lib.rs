//! Evaluation and cost accounting for deployment experiments.
//!
//! * [`prequential`] — cumulative prequential error (Dawid 1984), the
//!   paper's quality metric: every arriving chunk is first used to test the
//!   deployed model, then to train it. Misclassification rate for the URL
//!   pipeline, RMSLE for the Taxi pipeline.
//! * [`cost`] — the deployment-cost ledger. The paper measures "the time the
//!   platforms spend in updating the model, performing proactive training
//!   ... and answering prediction queries" on its testbed; here every unit
//!   of work (records parsed, rows transformed, points trained, bytes read)
//!   is counted and converted to *accounted seconds* by a calibrated
//!   [`cost::CostModel`], making cost curves deterministic and
//!   machine-independent, while wall-clock timers remain available for
//!   validation.

#![warn(missing_docs)]

pub mod cost;
pub mod prequential;

pub use cost::{CostLedger, CostModel, Phase};
pub use prequential::{ErrorMetric, PrequentialEvaluator};
