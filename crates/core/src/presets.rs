//! The paper's two evaluation pipelines, bound to the synthetic streams.
//!
//! * **URL pipeline** (§5.1): input parser → missing-value imputer →
//!   standard scaler → feature hasher → SVM (hinge loss).
//! * **Taxi pipeline** (§5.1): input parser → feature extractor (haversine,
//!   bearing, hour, weekday) → anomaly detector (trips > 22 h, < 10 s, or
//!   zero distance) → standard scaler → linear regression, evaluated with
//!   RMSLE.

use std::sync::Arc;

use cdp_datagen::taxi::{TaxiConfig, TaxiGenerator};
use cdp_datagen::url::{UrlConfig, UrlGenerator};
use cdp_datagen::ChunkStream;
use cdp_eval::ErrorMetric;
use cdp_ml::{ConvergenceCriteria, LossKind, OptimizerKind, Regularizer, SgdConfig};
use cdp_pipeline::anomaly::AnomalyFilter;
use cdp_pipeline::encode::{DenseEncoder, FeatureHasher};
use cdp_pipeline::extract::{taxi_features, SelectColumns, TaxiFeatureExtractor};
use cdp_pipeline::impute::MeanImputer;
use cdp_pipeline::parser::{SchemaParser, TaxiParser};
use cdp_pipeline::scale::StandardScaler;
use cdp_pipeline::{Pipeline, PipelineBuilder, PipelineError};

/// How large a preset experiment should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecScale {
    /// Seconds-scale runs for unit/integration tests.
    Tiny,
    /// The repository default: minutes-scale runs reproducing the paper's
    /// shapes (see DESIGN.md §5).
    Repo,
    /// The paper's dataset shapes (hours of compute; opt-in).
    Paper,
}

/// A deployable pipeline specification: how to build the pipeline, how to
/// train it, and the experiment defaults the paper uses for it.
#[derive(Clone)]
pub struct DeploymentSpec {
    /// Dataset/pipeline name.
    pub name: String,
    /// Quality metric.
    pub metric: ErrorMetric,
    /// SGD configuration (initial training, online updates, retraining).
    pub sgd: SgdConfig,
    /// Mini-batch size of the per-chunk online pass.
    pub online_batch: usize,
    /// Chunks sampled per proactive-training instance.
    pub sample_chunks: usize,
    /// Default static proactive-training interval, in chunks (paper: every
    /// 5 minutes for URL, every 5 hours for Taxi — 5 chunks each).
    pub proactive_every: usize,
    /// Default periodical retraining interval, in chunks (paper: every 10
    /// days for URL, monthly for Taxi).
    pub retrain_every: usize,
    /// Simulated chunk arrival period in seconds.
    pub chunk_period_secs: f64,
    factory: Arc<dyn Fn() -> Result<Pipeline, PipelineError> + Send + Sync>,
}

impl std::fmt::Debug for DeploymentSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeploymentSpec")
            .field("name", &self.name)
            .field("metric", &self.metric.name())
            .field("sample_chunks", &self.sample_chunks)
            .finish()
    }
}

impl DeploymentSpec {
    /// A user-defined spec: deploy your own pipeline factory with the given
    /// metric and training configuration. Scheduling defaults (proactive
    /// every 5 chunks, retrain every 10, 60 s chunk period) can be adjusted
    /// on the returned value.
    pub fn custom(
        name: impl Into<String>,
        metric: ErrorMetric,
        sgd: SgdConfig,
        online_batch: usize,
        sample_chunks: usize,
        factory: Arc<dyn Fn() -> Result<Pipeline, PipelineError> + Send + Sync>,
    ) -> Self {
        Self {
            name: name.into(),
            metric,
            sgd,
            online_batch,
            sample_chunks,
            proactive_every: 5,
            retrain_every: 10,
            chunk_period_secs: 60.0,
            factory,
        }
    }

    /// Builds a fresh (statistics-empty) instance of the pipeline.
    ///
    /// # Errors
    /// [`PipelineError`] when the factory's components violate the builder's
    /// invariants (e.g. a non-incremental component). The deployment drivers
    /// surface this as a typed [`DeploymentError`](crate::DeploymentError)
    /// instead of panicking.
    pub fn try_build_pipeline(&self) -> Result<Pipeline, PipelineError> {
        (self.factory)()
    }

    /// Builds a fresh (statistics-empty) instance of the pipeline.
    ///
    /// # Panics
    /// When the factory fails; use
    /// [`try_build_pipeline`](Self::try_build_pipeline) in deployment-facing
    /// code.
    pub fn build_pipeline(&self) -> Pipeline {
        match self.try_build_pipeline() {
            Ok(pipeline) => pipeline,
            Err(e) => panic!("pipeline factory for {} failed: {e}", self.name),
        }
    }

    /// Returns a copy with a different SGD configuration (used by the
    /// hyperparameter-tuning experiment).
    pub fn with_sgd(&self, sgd: SgdConfig) -> Self {
        Self {
            sgd,
            ..self.clone()
        }
    }
}

/// The URL classification experiment: generator plus pipeline spec.
pub fn url_spec(scale: SpecScale) -> (UrlGenerator, DeploymentSpec) {
    let (config, hash_bits) = match scale {
        SpecScale::Tiny => (
            UrlConfig {
                days: 6,
                chunks_per_day: 3,
                rows_per_chunk: 24,
                base_vocab: 300,
                vocab_growth_per_day: 20,
                tokens_per_row: 8,
                lexical_features: 6,
                ..UrlConfig::repo_scale()
            },
            8u32,
        ),
        SpecScale::Repo => (UrlConfig::repo_scale(), 18),
        SpecScale::Paper => (UrlConfig::paper_scale(), 20),
    };
    url_spec_from(config, hash_bits, scale)
}

/// Builds the URL experiment from an explicit generator configuration —
/// for custom drift speeds, vocabulary sizes, or stream lengths.
pub fn url_spec_from(
    config: UrlConfig,
    hash_bits: u32,
    scale: SpecScale,
) -> (UrlGenerator, DeploymentSpec) {
    let generator = UrlGenerator::new(config.clone());
    let schema = generator.schema();
    let lexical = config.lexical_features;
    let factory = Arc::new(move || {
        let num_fields: Vec<String> = (0..lexical).map(|i| format!("lex{i}")).collect();
        let num_refs: Vec<&str> = num_fields.iter().map(String::as_str).collect();
        let parser = SchemaParser::new(Arc::clone(&schema), "label", &num_refs, Some("url_tokens"));
        PipelineBuilder::new(parser)
            .add(MeanImputer::new())
            .add(StandardScaler::new())
            .encoder(FeatureHasher::new(hash_bits, lexical))
    });
    let sgd = SgdConfig {
        loss: LossKind::Hinge,
        optimizer: OptimizerKind::adam(0.01),
        regularizer: Regularizer::L2(1e-3),
        batch_size: 128,
        convergence: ConvergenceCriteria {
            tolerance: 1e-3,
            max_epochs: 15,
        },
        shuffle_seed: 42,
    };
    let spec = DeploymentSpec {
        name: "URL".to_owned(),
        metric: ErrorMetric::Misclassification,
        sgd,
        // One SGD step per arriving chunk: the paper's online deployment
        // performs a single online-gradient-descent update per incoming
        // batch of training data.
        online_batch: usize::MAX,
        sample_chunks: match scale {
            SpecScale::Tiny => 3,
            SpecScale::Repo => 40,
            SpecScale::Paper => 100,
        },
        proactive_every: match scale {
            SpecScale::Tiny => 2,
            _ => 5,
        },
        retrain_every: match scale {
            SpecScale::Tiny => 5,
            // Every 10 days (paper): 10 days' worth of chunks.
            _ => 10 * config.chunks_per_day,
        },
        chunk_period_secs: 60.0,
        factory,
    };
    (generator, spec)
}

/// The Taxi regression experiment: generator plus pipeline spec.
pub fn taxi_spec(scale: SpecScale) -> (TaxiGenerator, DeploymentSpec) {
    let config = match scale {
        SpecScale::Tiny => TaxiConfig {
            hours: 30,
            initial_hours: 6,
            rows_per_chunk: 30,
            ..TaxiConfig::repo_scale()
        },
        SpecScale::Repo => TaxiConfig::repo_scale(),
        SpecScale::Paper => TaxiConfig::paper_scale(),
    };
    let generator = TaxiGenerator::new(config.clone());
    let schema = generator.schema();
    let factory = Arc::new(move || {
        let parser = TaxiParser::new(Arc::clone(&schema));
        // Keep trips with 10 s < duration < 22 h and non-zero distance.
        let anomaly = AnomalyFilter::new("taxi-anomaly-detector")
            .bound(taxi_features::DURATION_SECS, Some(10.0), Some(79_200.0))
            .bound(taxi_features::HAVERSINE_KM, Some(0.0), None);
        PipelineBuilder::new(parser)
            .add(TaxiFeatureExtractor::new())
            .add(anomaly)
            // Drop the raw-duration column before modelling (it is the label).
            .add(SelectColumns::first(taxi_features::DURATION_SECS))
            .add(StandardScaler::new())
            .encoder(DenseEncoder::new(taxi_features::DURATION_SECS))
    });
    let sgd = SgdConfig {
        loss: LossKind::Squared,
        optimizer: OptimizerKind::rmsprop(0.1),
        regularizer: Regularizer::L2(1e-4),
        // Smaller batches than the URL pipeline: the 11-dimensional taxi
        // model needs many cheap steps (the bias must travel to the mean
        // log-duration ≈ 6.5) rather than few large-batch ones. The epoch
        // cap reflects the paper's observation that the low-dimensional
        // taxi model "converges faster to a solution" when retraining; the
        // tiny scale needs more epochs because its initial set is only a
        // few mini-batches long.
        batch_size: 32,
        convergence: ConvergenceCriteria {
            tolerance: 1e-3,
            max_epochs: if scale == SpecScale::Tiny { 30 } else { 8 },
        },
        shuffle_seed: 43,
    };
    let retrain_every = match scale {
        SpecScale::Tiny => 8,
        // "Monthly": one initial-period's worth of chunks.
        _ => config.initial_hours.max(1),
    };
    let spec = DeploymentSpec {
        name: "Taxi".to_owned(),
        metric: ErrorMetric::Rmsle,
        sgd,
        // One SGD step per arriving chunk (see the URL spec).
        online_batch: usize::MAX,
        sample_chunks: match scale {
            SpecScale::Tiny => 3,
            SpecScale::Repo => 15,
            SpecScale::Paper => 720,
        },
        proactive_every: 5,
        retrain_every,
        chunk_period_secs: 3600.0,
        factory,
    };
    (generator, spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_datagen::ChunkStream;

    #[test]
    fn url_pipeline_builds_and_processes() {
        let (generator, spec) = url_spec(SpecScale::Tiny);
        let mut pipeline = spec.build_pipeline();
        let chunk = generator.chunk(0);
        let fc = pipeline.fit_transform_chunk(&chunk);
        assert_eq!(fc.len(), chunk.len());
        assert!(fc.row(0).sparse_parts().is_some());
        // Labels are ±1.
        assert!(fc.rows().all(|r| r.label().abs() == 1.0));
    }

    #[test]
    fn taxi_pipeline_builds_and_filters_anomalies() {
        let (generator, spec) = taxi_spec(SpecScale::Tiny);
        let mut pipeline = spec.build_pipeline();
        let chunk = generator.chunk(0);
        let fc = pipeline.fit_transform_chunk(&chunk);
        // Some anomalies must have been dropped over enough rows...
        assert!(fc.len() <= chunk.len());
        // ... and every surviving feature vector is dense with 11 features
        // (bias + 10 engineered), matching the paper's feature size.
        assert!(fc.rows().all(|r| r.dim() == 11));
        assert!(fc.rows().all(|r| r.sparse_parts().is_none()));
    }

    #[test]
    fn stage_counts_follow_each_pipeline() {
        // (stateful stages, row components): the NoOptimization rescan's
        // multipliers. URL: imputer + scaler, hashing encoder stateless.
        // Taxi: only the scaler of extract → filter → select → scale.
        assert_eq!(
            url_spec(SpecScale::Tiny).1.build_pipeline().stage_counts(),
            (2, 2)
        );
        assert_eq!(
            taxi_spec(SpecScale::Tiny).1.build_pipeline().stage_counts(),
            (1, 4)
        );
    }

    #[test]
    fn taxi_anomaly_filter_drops_planted_anomalies() {
        let (generator, spec) = taxi_spec(SpecScale::Tiny);
        let mut pipeline = spec.build_pipeline();
        let mut raw_total = 0usize;
        let mut kept_total = 0usize;
        for i in 0..10 {
            let chunk = generator.chunk(i);
            raw_total += chunk.len();
            kept_total += pipeline.fit_transform_chunk(&chunk).len();
        }
        let dropped = (raw_total - kept_total) as f64 / raw_total as f64;
        // anomaly_rate is 0.02; allow sampling noise.
        assert!((0.002..0.08).contains(&dropped), "dropped {dropped}");
    }

    #[test]
    fn specs_expose_paper_defaults() {
        let (_, url) = url_spec(SpecScale::Repo);
        assert_eq!(url.proactive_every, 5);
        assert_eq!(url.retrain_every, 100); // 10 days × 10 chunks/day
        let (gen, taxi) = taxi_spec(SpecScale::Repo);
        assert_eq!(taxi.retrain_every, gen.initial_chunks());
    }

    #[test]
    fn with_sgd_overrides_only_training() {
        let (_, spec) = url_spec(SpecScale::Tiny);
        let mut sgd = spec.sgd;
        sgd.optimizer = OptimizerKind::adadelta();
        let new = spec.with_sgd(sgd);
        assert_eq!(new.name, spec.name);
        assert_eq!(new.sgd.optimizer, OptimizerKind::adadelta());
    }
}
