//! Synthetic NYC-taxi trip stream: dense, low-dimensional, stationary.
//!
//! Reproduced properties of the real dataset (paper §5.1):
//!
//! * trip records with pickup/dropoff times and coordinates and a passenger
//!   count; one chunk per hour of simulated time;
//! * ground-truth duration follows a stable physical model — distance over
//!   an hour/weekday-dependent speed plus noise — so the distribution is
//!   **stationary** over the deployment (the paper: "the underlying
//!   characteristics of the Taxi dataset are known to remain static"),
//!   making all sampling strategies perform alike (Experiment 2);
//! * a small fraction of anomalous trips (zero distance, absurd durations)
//!   that the pipeline's anomaly detector must remove.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use cdp_pipeline::extract::{day_of_week, haversine_km, hour_of_day};
use cdp_storage::{RawChunk, Record, Schema, Timestamp, Value};

use crate::{mix_seed, ChunkStream};

/// Configuration of the synthetic taxi stream.
#[derive(Debug, Clone)]
pub struct TaxiConfig {
    /// Master seed.
    pub seed: u64,
    /// Total hours of simulated time (1 chunk = 1 hour). The paper covers
    /// Jan-2015..Jun-2016 ≈ 12 382 hourly chunks.
    pub hours: usize,
    /// Leading hours that form the initial-training set (paper: Jan 2015 ≈
    /// 744 hours).
    pub initial_hours: usize,
    /// Rows per chunk (trips per hour).
    pub rows_per_chunk: usize,
    /// Fraction of anomalous trips.
    pub anomaly_rate: f64,
    /// Multiplicative log-normal-ish noise scale on durations.
    pub duration_noise: f64,
}

impl Default for TaxiConfig {
    fn default() -> Self {
        Self::repo_scale()
    }
}

impl TaxiConfig {
    /// Laptop-scale defaults: 1 238 hourly chunks × 80 trips ≈ 99k trips.
    pub fn repo_scale() -> Self {
        Self {
            seed: 0x7A41,
            hours: 1_238,
            initial_hours: 74,
            rows_per_chunk: 80,
            anomaly_rate: 0.02,
            duration_noise: 0.15,
        }
    }

    /// Paper-scale shape: 12 382 hourly chunks (Feb-15..Jun-16 deployment
    /// after a 744-hour January), tens of thousands of trips per hour.
    pub fn paper_scale() -> Self {
        Self {
            hours: 12_382 + 744,
            initial_hours: 744,
            rows_per_chunk: 22_000,
            ..Self::repo_scale()
        }
    }
}

/// The synthetic taxi stream (see module docs).
#[derive(Debug, Clone)]
pub struct TaxiGenerator {
    config: TaxiConfig,
    schema: Arc<Schema>,
}

/// Field names of the taxi trip-record schema.
fn taxi_schema() -> Arc<Schema> {
    Schema::new([
        "pickup_time",
        "dropoff_time",
        "pickup_lon",
        "pickup_lat",
        "dropoff_lon",
        "dropoff_lat",
        "passengers",
    ])
}

/// NYC-ish coordinate box.
const LON_RANGE: (f64, f64) = (-74.02, -73.93);
const LAT_RANGE: (f64, f64) = (40.70, 40.82);

impl TaxiGenerator {
    /// Creates a generator.
    pub fn new(config: TaxiConfig) -> Self {
        Self {
            config,
            schema: taxi_schema(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TaxiConfig {
        &self.config
    }

    /// The stationary congestion factor for an hour-of-day/weekday pair:
    /// rush hours and weekdays are slower. Range ≈ [1.0, 2.2].
    fn congestion(hour: f64, weekday: f64) -> f64 {
        let rush = (-((hour - 8.5) / 2.0).powi(2)).exp() + (-((hour - 17.5) / 2.5).powi(2)).exp();
        let weekday_factor = if weekday < 5.0 { 1.0 } else { 0.75 };
        1.0 + 1.2 * rush * weekday_factor
    }

    /// Ground-truth expected duration (seconds) for a trip of `dist_km`
    /// starting at `pickup_secs`.
    fn expected_duration(dist_km: f64, pickup_secs: f64) -> f64 {
        let hour = hour_of_day(pickup_secs);
        let base_speed_kmh = 22.0 / Self::congestion(hour, day_of_week(pickup_secs));
        // Fixed pickup/dropoff overhead of 90 s.
        90.0 + dist_km / base_speed_kmh * 3600.0
    }

    fn generate_row(&self, rng: &mut StdRng, hour_index: usize) -> Record {
        let c = &self.config;
        let pickup_secs = hour_index as f64 * 3600.0 + rng.random_range(0.0..3600.0);
        let p_lon = rng.random_range(LON_RANGE.0..LON_RANGE.1);
        let p_lat = rng.random_range(LAT_RANGE.0..LAT_RANGE.1);

        let anomaly = rng.random::<f64>() < c.anomaly_rate;
        let (d_lon, d_lat, duration) = if anomaly {
            match rng.random_range(0..3u8) {
                // Zero-distance trip (the car never moved).
                0 => (p_lon, p_lat, rng.random_range(60.0..1200.0)),
                // Absurdly long trip (> 22 h).
                1 => (
                    rng.random_range(LON_RANGE.0..LON_RANGE.1),
                    rng.random_range(LAT_RANGE.0..LAT_RANGE.1),
                    rng.random_range(80_000.0..100_000.0),
                ),
                // Instant teleport (< 10 s).
                _ => (
                    rng.random_range(LON_RANGE.0..LON_RANGE.1),
                    rng.random_range(LAT_RANGE.0..LAT_RANGE.1),
                    rng.random_range(0.0..9.0),
                ),
            }
        } else {
            let d_lon = rng.random_range(LON_RANGE.0..LON_RANGE.1);
            let d_lat = rng.random_range(LAT_RANGE.0..LAT_RANGE.1);
            let dist = haversine_km(p_lat, p_lon, d_lat, d_lon);
            let expected = Self::expected_duration(dist, pickup_secs);
            let noise: f64 =
                (0..3).map(|_| rng.random_range(-1.0..1.0)).sum::<f64>() / 3.0_f64.sqrt();
            let duration = (expected * (1.0 + c.duration_noise * noise)).max(11.0);
            (d_lon, d_lat, duration)
        };

        Record::new(vec![
            Value::Num(pickup_secs),
            Value::Num(pickup_secs + duration),
            Value::Num(p_lon),
            Value::Num(p_lat),
            Value::Num(d_lon),
            Value::Num(d_lat),
            Value::Num(f64::from(rng.random_range(1..=6u8))),
        ])
    }
}

impl ChunkStream for TaxiGenerator {
    fn schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    fn total_chunks(&self) -> usize {
        self.config.hours
    }

    fn initial_chunks(&self) -> usize {
        self.config.initial_hours
    }

    fn chunk(&self, index: usize) -> RawChunk {
        assert!(index < self.total_chunks(), "chunk {index} out of range");
        let mut rng = StdRng::seed_from_u64(mix_seed(self.config.seed, index as u64));
        let records = (0..self.config.rows_per_chunk)
            .map(|_| self.generate_row(&mut rng, index))
            .collect();
        RawChunk::new(Timestamp(index as u64), records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TaxiGenerator {
        TaxiGenerator::new(TaxiConfig {
            hours: 10,
            initial_hours: 2,
            rows_per_chunk: 50,
            ..TaxiConfig::repo_scale()
        })
    }

    #[test]
    fn chunks_are_deterministic_and_hourly() {
        let g = small();
        assert_eq!(g.chunk(3), g.chunk(3));
        let c = g.chunk(3);
        for r in c.rows().iter() {
            let pickup = r.get(0).unwrap().as_num().unwrap();
            assert!((3.0 * 3600.0..4.0 * 3600.0).contains(&pickup));
        }
    }

    #[test]
    fn dropoff_after_pickup_for_normal_trips() {
        let g = small();
        let mut positive = 0;
        let mut total = 0;
        for i in 0..10 {
            for r in g.chunk(i).rows().iter() {
                let pickup = r.get(0).unwrap().as_num().unwrap();
                let dropoff = r.get(1).unwrap().as_num().unwrap();
                total += 1;
                if dropoff > pickup {
                    positive += 1;
                }
            }
        }
        assert!(positive as f64 / total as f64 > 0.95);
    }

    #[test]
    fn anomalies_appear_at_configured_rate() {
        let g = TaxiGenerator::new(TaxiConfig {
            hours: 20,
            initial_hours: 1,
            rows_per_chunk: 100,
            anomaly_rate: 0.1,
            ..TaxiConfig::repo_scale()
        });
        let mut anomalous = 0;
        let mut total = 0;
        for i in 0..20 {
            for r in g.chunk(i).rows().iter() {
                let pickup = r.get(0).unwrap().as_num().unwrap();
                let dropoff = r.get(1).unwrap().as_num().unwrap();
                let d = dropoff - pickup;
                let same_point = r.get(2) == r.get(4) && r.get(3) == r.get(5);
                total += 1;
                if !(10.0..=79_200.0).contains(&d) || same_point {
                    anomalous += 1;
                }
            }
        }
        let rate = anomalous as f64 / total as f64;
        assert!((rate - 0.1).abs() < 0.04, "rate = {rate}");
    }

    #[test]
    fn congestion_peaks_at_rush_hour() {
        let rush = TaxiGenerator::congestion(8.5, 2.0);
        let night = TaxiGenerator::congestion(3.0, 2.0);
        assert!(rush > night);
        let weekend = TaxiGenerator::congestion(8.5, 6.0);
        assert!(weekend < rush);
    }

    #[test]
    fn expected_duration_grows_with_distance() {
        let short = TaxiGenerator::expected_duration(1.0, 0.0);
        let long = TaxiGenerator::expected_duration(10.0, 0.0);
        assert!(long > short);
        assert!(short > 90.0);
    }

    #[test]
    fn stationarity_across_deployment() {
        // Mean durations in an early and a late chunk agree within noise —
        // the property that makes sampling strategies tie on this dataset.
        let g = TaxiGenerator::new(TaxiConfig {
            hours: 200,
            initial_hours: 10,
            rows_per_chunk: 200,
            anomaly_rate: 0.0,
            ..TaxiConfig::repo_scale()
        });
        let mean_duration = |i: usize| {
            let c = g.chunk(i);
            c.rows()
                .iter()
                .map(|r| r.get(1).unwrap().as_num().unwrap() - r.get(0).unwrap().as_num().unwrap())
                .sum::<f64>()
                / c.len() as f64
        };
        // Compare the same hour of day one week apart to cancel diurnal cycles.
        let early = mean_duration(10);
        let late = mean_duration(10 + 168);
        assert!(
            (early - late).abs() / early < 0.25,
            "early {early} vs late {late}"
        );
    }

    #[test]
    fn schema_matches_parser_expectations() {
        let schema = taxi_schema();
        for f in [
            "pickup_time",
            "dropoff_time",
            "pickup_lon",
            "pickup_lat",
            "dropoff_lon",
            "dropoff_lat",
            "passengers",
        ] {
            assert!(schema.index_of(f).is_some(), "missing {f}");
        }
    }
}
