//! Deploying a *user-defined* pipeline on the platform.
//!
//! The paper's platform is generic: any pipeline whose components implement
//! `update` / `transform` with incrementally-computable statistics can be
//! deployed. This example builds a fraud-scoring pipeline from scratch — a
//! custom parser, a custom log-transform component, the library's scaler and
//! one-hot encoder, and a logistic-regression model — generates its own
//! stream, and runs it through the continuous platform.
//!
//! ```sh
//! cargo run --release --example custom_pipeline
//! ```

use std::sync::Arc;

use cdpipe::core::report::{fmt_f, fmt_secs};
use cdpipe::core::{run_deployment, DeploymentConfig, DeploymentSpec};
use cdpipe::datagen::ChunkStream;
use cdpipe::pipeline::encode::OneHotEncoder;
use cdpipe::pipeline::parser::SchemaParser;
use cdpipe::pipeline::scale::StandardScaler;
use cdpipe::pipeline::{ColumnBatch, Component, PipelineBuilder};
use cdpipe::prelude::*;
use cdpipe::storage::{RawChunk, Record, Schema, Timestamp, Value};

/// A custom stateless component: log1p on heavy-tailed amount columns. A
/// component is a kernel over the batch's numeric columns, edited in place;
/// the same kernel serves training chunks and one-row prediction queries.
#[derive(Debug, Clone)]
struct LogAmounts;

impl Component for LogAmounts {
    fn name(&self) -> &str {
        "log-amounts"
    }

    fn transform(&self, batch: &mut ColumnBatch<'_>) {
        for col in batch.columns_mut() {
            for v in col.iter_mut().filter(|v| !v.is_nan()) {
                *v = v.abs().ln_1p().copysign(*v);
            }
        }
    }

    fn clone_box(&self) -> Box<dyn Component> {
        Box::new(self.clone())
    }
}

/// A synthetic payments stream: amount + hour + merchant category, where
/// fraud concentrates on large night-time transactions in some categories.
#[derive(Debug, Clone)]
struct PaymentsStream {
    schema: Arc<Schema>,
    chunks: usize,
    rows: usize,
}

impl PaymentsStream {
    fn new(chunks: usize, rows: usize) -> Self {
        Self {
            schema: Schema::new(["label", "amount", "hour", "merchant"]),
            chunks,
            rows,
        }
    }
}

impl ChunkStream for PaymentsStream {
    fn schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    fn total_chunks(&self) -> usize {
        self.chunks
    }

    fn initial_chunks(&self) -> usize {
        self.chunks / 5
    }

    fn chunk(&self, index: usize) -> RawChunk {
        // A tiny deterministic generator: hash-based pseudo-randomness.
        let mut state = 0x9E37_79B9u64.wrapping_mul(index as u64 + 1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let records = (0..self.rows)
            .map(|_| {
                let amount = 10.0 + 2000.0 * next() * next();
                let hour = (24.0 * next()).floor();
                let merchant = ((6.0 * next()).floor() as u8).to_string();
                let night = !(6.0..22.0).contains(&hour);
                let risky_merchant = merchant == "0" || merchant == "1";
                let score = 0.8 * f64::from(amount > 900.0)
                    + 0.6 * f64::from(night)
                    + 0.5 * f64::from(risky_merchant)
                    + 0.4 * next();
                let label = if score > 1.2 { 1.0 } else { -1.0 };
                Record::new(vec![
                    Value::Num(label),
                    Value::Num(amount),
                    Value::Num(hour),
                    Value::Text(format!("m{merchant}")),
                ])
            })
            .collect();
        RawChunk::new(Timestamp(index as u64), records)
    }
}

fn main() {
    let stream = PaymentsStream::new(40, 50);
    let schema = stream.schema();

    // Assemble the custom pipeline: parser → log-transform → scaler →
    // one-hot encoder (merchant category; its category table is the
    // incrementally-learned statistic).
    let factory = {
        let schema = Arc::clone(&schema);
        move || {
            let parser = SchemaParser::new(
                Arc::clone(&schema),
                "label",
                &["amount", "hour"],
                Some("merchant"),
            );
            // The factory returns the builder's Result directly: a
            // non-incremental component surfaces as a typed
            // `DeploymentError::Pipeline` instead of a panic.
            PipelineBuilder::new(parser)
                .add(LogAmounts)
                .add(StandardScaler::new())
                .encoder(OneHotEncoder::new(2))
        }
    };

    let sgd = SgdConfig {
        loss: LossKind::Logistic,
        optimizer: OptimizerKind::adam(0.05),
        regularizer: Regularizer::L2(1e-4),
        batch_size: 32,
        ..SgdConfig::for_loss(LossKind::Logistic)
    };

    // Wrap it all into a spec the platform can deploy. The spec type is the
    // same one the built-in URL/Taxi presets use.
    let spec = DeploymentSpec::custom(
        "payments-fraud",
        ErrorMetric::Misclassification,
        sgd,
        32,
        4,
        Arc::new(factory),
    );

    let config = DeploymentConfig::continuous(3, 4, SamplingStrategy::TimeBased);
    let result = run_deployment(&stream, &spec, &config);

    println!("custom pipeline deployed continuously:");
    println!("  fraud-detection error: {}", fmt_f(result.final_error, 4));
    println!("  deployment cost:       {}", fmt_secs(result.total_secs));
    println!("  proactive trainings:   {}", result.proactive_runs);
    println!("  queries answered:      {}", result.queries_answered);
    assert!(
        result.final_error < 0.5,
        "the model must beat coin-flipping"
    );
}
