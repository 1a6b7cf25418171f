//! Synthetic URL-reputation stream: sparse, high-dimensional, drifting.
//!
//! Reproduced properties of the real dataset (Ma et al. 2009, as used in the
//! paper):
//!
//! * binary labels (malicious / legitimate, ≈ 1/3 malicious);
//! * each row: a bag of host/path tokens (sparse in a huge space) plus a
//!   small set of numeric lexical features, some missing;
//! * **gradual concept drift**: each token's class association rotates
//!   slowly over the deployment, and the active vocabulary grows, so recent
//!   data is more informative than old data (this is why time-based
//!   sampling wins Experiment 2);
//! * day structure: `days × chunks_per_day` chunks, day 0 = initial
//!   training.

use std::fmt::Write as _;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use cdp_storage::{RawChunk, Record, Schema, Timestamp, Value};

use crate::{mix_seed, ChunkStream};

/// Configuration of the synthetic URL stream.
#[derive(Debug, Clone)]
pub struct UrlConfig {
    /// Master seed.
    pub seed: u64,
    /// Number of days (the paper's dataset spans 121: day 0 + 120).
    pub days: usize,
    /// Chunks per day (the paper discretizes each day into 1-minute chunks).
    pub chunks_per_day: usize,
    /// Rows per chunk.
    pub rows_per_chunk: usize,
    /// Base vocabulary size at day 0.
    pub base_vocab: usize,
    /// New tokens entering the vocabulary per day (feature growth).
    pub vocab_growth_per_day: usize,
    /// Tokens per row.
    pub tokens_per_row: usize,
    /// Numeric lexical feature count.
    pub lexical_features: usize,
    /// Probability that a lexical value is missing.
    pub missing_rate: f64,
    /// Radians of class-association rotation per day (drift speed).
    pub drift_per_day: f64,
    /// Label-noise rate (fraction of rows with flipped labels).
    pub label_noise: f64,
    /// Fraction of malicious rows.
    pub malicious_rate: f64,
}

impl Default for UrlConfig {
    fn default() -> Self {
        Self::repo_scale()
    }
}

impl UrlConfig {
    /// Laptop-scale defaults: 121 "days" × 10 chunks × 40 rows ≈ 48k rows.
    pub fn repo_scale() -> Self {
        Self {
            seed: 0xD5EED,
            days: 121,
            chunks_per_day: 10,
            rows_per_chunk: 40,
            // A large vocabulary relative to the row count: most tokens are
            // seen only a few times, so a single online pass underfits —
            // the regime of the real URL dataset (3.2M features for 2.4M
            // rows), where retraining and sample-replay pay off.
            base_vocab: 150_000,
            vocab_growth_per_day: 1_000,
            tokens_per_row: 12,
            lexical_features: 16,
            missing_rate: 0.08,
            drift_per_day: 0.03,
            // Enough label noise that single-pass online learning visibly
            // underperforms approaches that revisit history (paper §1).
            label_noise: 0.03,
            malicious_rate: 0.33,
        }
    }

    /// Paper-scale shape: 121 days × ~99 chunks (≈ 12 000 chunks total, the
    /// paper's N) × 200 rows (≈ 2.4M rows).
    pub fn paper_scale() -> Self {
        Self {
            days: 121,
            chunks_per_day: 99,
            rows_per_chunk: 200,
            base_vocab: 400_000,
            vocab_growth_per_day: 2_000,
            ..Self::repo_scale()
        }
    }
}

/// The synthetic URL stream (see module docs).
#[derive(Debug, Clone)]
pub struct UrlGenerator {
    config: UrlConfig,
    schema: Arc<Schema>,
}

/// Field names of the URL schema: `label`, `lex0..lexK`, `url_tokens`.
fn url_schema(lexical_features: usize) -> Arc<Schema> {
    let mut fields = vec!["label".to_owned()];
    fields.extend((0..lexical_features).map(|i| format!("lex{i}")));
    fields.push("url_tokens".to_owned());
    Schema::new(fields)
}

impl UrlGenerator {
    /// Creates a generator.
    pub fn new(config: UrlConfig) -> Self {
        let schema = url_schema(config.lexical_features);
        Self { config, schema }
    }

    /// The configuration in use.
    pub fn config(&self) -> &UrlConfig {
        &self.config
    }

    /// Day of a chunk index.
    fn day_of(&self, index: usize) -> usize {
        index / self.config.chunks_per_day
    }

    /// Active vocabulary size on `day` (grows over time).
    fn vocab_at(&self, day: usize) -> usize {
        self.config.base_vocab + day * self.config.vocab_growth_per_day
    }

    /// The class-association score of token `id` on `day` ∈ [−1, 1].
    ///
    /// Each token has a stable random phase; its association with the
    /// malicious class rotates with the drift angle, so over many days the
    /// informative token set gradually migrates.
    fn token_score(&self, id: u64, day: usize) -> f64 {
        let phase = (mix_seed(self.config.seed ^ 0x70C3, id) % 62_832) as f64 / 10_000.0;
        (phase + day as f64 * self.config.drift_per_day).sin()
    }

    fn generate_row(&self, rng: &mut StdRng, day: usize, text: &mut String) -> Record {
        let c = &self.config;
        let malicious = rng.random::<f64>() < c.malicious_rate;
        let y = if malicious { 1.0 } else { -1.0 };

        // Tokens: rejection-sample so the row's mean token score agrees with
        // the class (score > 0 tokens are "malicious-looking" today).
        let vocab = self.vocab_at(day) as u64;
        // `tok{t}` joined by spaces, copied out of the chunk's scratch.
        text.clear();
        for i in 0..c.tokens_per_row {
            // Up to 4 attempts to find a class-consistent token; then accept
            // anything (keeps token marginals overlapping between classes).
            let mut chosen = rng.random_range(0..vocab);
            for _ in 0..4 {
                let score = self.token_score(chosen, day);
                if (score > 0.0) == malicious {
                    break;
                }
                chosen = rng.random_range(0..vocab);
            }
            let sep = if i == 0 { "" } else { " " };
            let _ = write!(text, "{sep}tok{chosen}");
        }
        let token_text = text.clone();

        // Lexical features: half informative (class-shifted means that drift
        // slowly), half noise; some values missing.
        let drift_shift = (day as f64 * c.drift_per_day).cos();
        let mut values = Vec::with_capacity(c.lexical_features + 2);
        let label = if rng.random::<f64>() < c.label_noise {
            -y
        } else {
            y
        };
        values.push(Value::Num(label));
        for j in 0..c.lexical_features {
            if rng.random::<f64>() < c.missing_rate {
                values.push(Value::Missing);
                continue;
            }
            let informative = j < c.lexical_features / 2;
            let mean = if informative {
                y * 0.35 * drift_shift
            } else {
                0.0
            };
            // Box–Muller style noise via sum of uniforms is avoided; use two
            // uniforms for a cheap approximately-normal sample.
            let noise: f64 =
                (0..3).map(|_| rng.random_range(-1.0..1.0)).sum::<f64>() / 3.0_f64.sqrt();
            values.push(Value::Num(mean + noise));
        }
        values.push(Value::Text(token_text));
        Record::new(values)
    }
}

impl ChunkStream for UrlGenerator {
    fn schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    fn total_chunks(&self) -> usize {
        self.config.days * self.config.chunks_per_day
    }

    fn initial_chunks(&self) -> usize {
        // Day 0 is the initial-training data (paper Table 2).
        self.config.chunks_per_day
    }

    fn chunk(&self, index: usize) -> RawChunk {
        assert!(index < self.total_chunks(), "chunk {index} out of range");
        let day = self.day_of(index);
        let mut rng = StdRng::seed_from_u64(mix_seed(self.config.seed, index as u64));
        let mut text = String::new();
        let records = (0..self.config.rows_per_chunk)
            .map(|_| self.generate_row(&mut rng, day, &mut text))
            .collect();
        RawChunk::new(Timestamp(index as u64), records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_storage::Value;

    fn small() -> UrlGenerator {
        UrlGenerator::new(UrlConfig {
            days: 4,
            chunks_per_day: 3,
            rows_per_chunk: 20,
            base_vocab: 500,
            vocab_growth_per_day: 50,
            ..UrlConfig::repo_scale()
        })
    }

    #[test]
    fn chunks_are_deterministic() {
        let g = small();
        assert_eq!(g.chunk(5), g.chunk(5));
        assert_ne!(g.chunk(5), g.chunk(6));
    }

    #[test]
    fn chunk_shape_matches_config() {
        let g = small();
        assert_eq!(g.total_chunks(), 12);
        assert_eq!(g.initial_chunks(), 3);
        let c = g.chunk(0);
        assert_eq!(c.len(), 20);
        assert_eq!(c.timestamp, Timestamp(0));
        // label + 16 lexical + token text
        assert_eq!(c.records[0].len(), 18);
    }

    #[test]
    fn labels_are_plus_minus_one() {
        let g = small();
        for chunk in [g.chunk(0), g.chunk(11)] {
            for r in chunk.records.iter() {
                let label = r.get(0).unwrap().as_num().unwrap();
                assert!(label == 1.0 || label == -1.0);
            }
        }
    }

    #[test]
    fn some_values_are_missing() {
        let g = small();
        let missing = (0..6)
            .flat_map(|i| g.chunk(i).records.to_vec())
            .flat_map(|r| r.values().to_vec())
            .filter(|v| matches!(v, Value::Missing))
            .count();
        assert!(missing > 0, "missing_rate should produce gaps");
    }

    #[test]
    fn malicious_rate_approximately_holds() {
        let g = small();
        let (mut pos, mut total) = (0usize, 0usize);
        for i in 0..12 {
            for r in g.chunk(i).records.iter() {
                total += 1;
                if r.get(0).unwrap().as_num().unwrap() > 0.0 {
                    pos += 1;
                }
            }
        }
        let rate = pos as f64 / total as f64;
        assert!((rate - 0.33).abs() < 0.12, "rate = {rate}");
    }

    #[test]
    fn token_scores_drift_over_days() {
        let g = small();
        let early = g.token_score(42, 0);
        let late = g.token_score(42, 100);
        assert!((early - late).abs() > 1e-3, "token association must rotate");
    }

    #[test]
    fn vocabulary_grows_over_days() {
        let g = small();
        // Tokens only appearing on later days must exist.
        let max_token = |chunk: RawChunk| -> u64 {
            chunk
                .records
                .iter()
                .filter_map(|r| match r.get(17) {
                    Some(Value::Text(s)) => s
                        .split_whitespace()
                        .map(|t| t.trim_start_matches("tok").parse::<u64>().unwrap())
                        .max(),
                    _ => None,
                })
                .max()
                .unwrap_or(0)
        };
        // Not guaranteed per-sample, but over full days the bound grows.
        let early: u64 = (0..3).map(|i| max_token(g.chunk(i))).max().unwrap();
        assert!(early < 500, "day-0 tokens bounded by base vocab");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_chunk_panics() {
        small().chunk(12);
    }
}
