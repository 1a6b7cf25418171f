//! Feature extraction components (paper Table 1: "feature extraction" /
//! "feature selection").

use crate::batch::ColumnBatch;
use crate::component::Component;
use crate::parser::TAXI_WIDTH;

/// Mean Earth radius in kilometres.
const EARTH_RADIUS_KM: f64 = 6371.0;

/// Great-circle distance between two `(lat, lon)` points in kilometres
/// (haversine formula, used by the Taxi pipeline per the Kaggle solutions
/// the paper bases its pipeline on).
pub fn haversine_km(lat1: f64, lon1: f64, lat2: f64, lon2: f64) -> f64 {
    let (phi1, phi2) = (lat1.to_radians(), lat2.to_radians());
    let d_phi = (lat2 - lat1).to_radians();
    let d_lambda = (lon2 - lon1).to_radians();
    haversine_from(phi1.cos(), phi2.cos(), d_phi, d_lambda)
}

/// The haversine formula on the terms it shares with the bearing.
#[inline]
fn haversine_from(cos1: f64, cos2: f64, d_phi: f64, d_lambda: f64) -> f64 {
    let a = (d_phi / 2.0).sin().powi(2) + cos1 * cos2 * (d_lambda / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_KM * a.sqrt().atan2((1.0 - a).sqrt())
}

/// Initial compass bearing from point 1 to point 2, in degrees `[0, 360)`,
/// on the terms the formula shares with the haversine.
#[inline]
fn bearing_from(phi1: f64, phi2: f64, cos1: f64, cos2: f64, d_lambda: f64) -> f64 {
    let y = d_lambda.sin() * cos2;
    let x = cos1 * phi2.sin() - phi1.sin() * cos2 * d_lambda.cos();
    compass_degrees(y, x)
}

/// `atan2(y, x)` in degrees `[0, 360)`, the bits of `(deg + 360.0) % 360.0`
/// with no `fmod`: in `[180, 540]`, `- 360.0` is exact (Sterbenz), NaN passes.
#[inline]
fn compass_degrees(y: f64, x: f64) -> f64 {
    match y.atan2(x).to_degrees() + 360.0 {
        v if v >= 360.0 => v - 360.0,
        v => v,
    }
}

/// [`haversine_km`] and the bearing in one pass: `φ`, `cos φ` and `Δλ` are
/// computed once and handed to the same two formulas, so both results are
/// bit-identical to the separate calls'.
fn distance_and_bearing(lat1: f64, lon1: f64, lat2: f64, lon2: f64) -> (f64, f64) {
    let (phi1, phi2) = (lat1.to_radians(), lat2.to_radians());
    let (cos1, cos2) = (phi1.cos(), phi2.cos());
    let d_phi = (lat2 - lat1).to_radians();
    let d_lambda = (lon2 - lon1).to_radians();
    let km = haversine_from(cos1, cos2, d_phi, d_lambda);
    (km, bearing_from(phi1, phi2, cos1, cos2, d_lambda))
}

/// `((x % m) + m) % m` for an integer-valued `x`, bit for bit: in `i64` while
/// that is exact (`|x| < 2^53`, `-0.0` too), else (NaN, ±∞, huge) the chain.
#[inline]
fn wrap_whole(x: f64, m: i64) -> f64 {
    if x.abs() < 9_007_199_254_740_992.0 {
        (x as i64).rem_euclid(m) as f64
    } else {
        ((x % m as f64) + m as f64) % m as f64
    }
}

/// Hour of day `[0, 24)` from epoch seconds.
pub fn hour_of_day(epoch_secs: f64) -> f64 {
    wrap_whole((epoch_secs / 3600.0).floor(), 24)
}

/// Day of week with Monday = 0 (1970-01-01 was a Thursday = 3).
pub fn day_of_week(epoch_secs: f64) -> f64 {
    wrap_whole((epoch_secs / 86_400.0).floor() + 3.0, 7)
}

/// Output column layout of [`TaxiFeatureExtractor`]: haversine km, bearing
/// in degrees, hour of day, day of week (Mon = 0), 1.0 for Saturday/Sunday,
/// passenger count, pickup lon/lat, dropoff lon/lat, trip duration.
pub mod taxi_features {
    /// Haversine distance in km.
    pub const HAVERSINE_KM: usize = 0;
    /// Raw trip duration in seconds — consumed by the anomaly detector and
    /// dropped by [`super::SelectColumns`] before modelling.
    pub const DURATION_SECS: usize = 10;
    /// Total column count.
    pub(super) const WIDTH: usize = 11;
}

/// The Taxi pipeline's feature extractor (paper §5.1): haversine distance,
/// bearing, hour of day, and day of week, computed from the parsed trip
/// columns. Stateless.
#[derive(Debug, Clone, Default)]
pub struct TaxiFeatureExtractor;

impl TaxiFeatureExtractor {
    /// Creates the extractor.
    pub fn new() -> Self {
        Self
    }
}

impl Component for TaxiFeatureExtractor {
    fn name(&self) -> &str {
        "taxi-feature-extractor"
    }

    fn transform(&self, batch: &mut ColumnBatch<'_>) {
        if batch.width() < TAXI_WIDTH {
            batch.clear(); // narrower than the parser's layout: all malformed
        }
        batch.map_columns(taxi_features::WIDTH, |old, new| {
            // Both layouts in order (`TaxiParser`'s columns, `taxi_features`).
            let [secs, p_lon, p_lat, d_lon, d_lat, passengers, duration, ..] = old else {
                return;
            };
            let [km, bearing, hour, weekday, weekend, out @ ..] = new else {
                return;
            };
            for i in 0..secs.len() {
                (km[i], bearing[i]) = distance_and_bearing(p_lat[i], p_lon[i], d_lat[i], d_lon[i]);
                hour[i] = hour_of_day(secs[i]);
                weekday[i] = day_of_week(secs[i]);
                weekend[i] = f64::from(weekday[i] >= 5.0);
            }
            let kept = [passengers, p_lon, p_lat, d_lon, d_lat, duration];
            for (dst, src) in out.iter_mut().zip(kept) {
                dst.copy_from_slice(src);
            }
        });
    }

    fn clone_box(&self) -> Box<dyn Component> {
        Box::new(self.clone())
    }
}

/// Keeps only the listed numeric columns, in the given order — a stateless
/// feature-selection component (paper Table 1). A batch narrower than the
/// largest requested index has every row dropped.
#[derive(Debug, Clone)]
pub struct SelectColumns {
    keep: Vec<usize>,
}

impl SelectColumns {
    /// Keeps `keep` (by index, output order = slice order).
    pub fn new(keep: Vec<usize>) -> Self {
        Self { keep }
    }

    /// Keeps the first `n` columns.
    pub fn first(n: usize) -> Self {
        Self {
            keep: (0..n).collect(),
        }
    }
}

impl Component for SelectColumns {
    fn name(&self) -> &str {
        "select-columns"
    }

    fn transform(&self, batch: &mut ColumnBatch<'_>) {
        if batch.width() <= self.keep.iter().copied().max().unwrap_or(0) {
            batch.clear();
        }
        batch.map_columns(self.keep.len(), |old, new| {
            for (dst, &i) in new.iter_mut().zip(&self.keep) {
                if let Some(src) = old.get(i) {
                    dst.copy_from_slice(src);
                }
            }
        });
    }

    fn clone_box(&self) -> Box<dyn Component> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::tests::{columns, numeric};

    /// The bearing as a call of its own, the oracle of the fused pass.
    fn bearing_deg(lat1: f64, lon1: f64, lat2: f64, lon2: f64) -> f64 {
        let (phi1, phi2) = (lat1.to_radians(), lat2.to_radians());
        let d_lambda = (lon2 - lon1).to_radians();
        bearing_from(phi1, phi2, phi1.cos(), phi2.cos(), d_lambda)
    }

    #[test]
    fn haversine_known_distance() {
        // JFK (40.6413, -73.7781) to LGA (40.7769, -73.8740) ≈ 17 km.
        let d = haversine_km(40.6413, -73.7781, 40.7769, -73.8740);
        assert!((d - 17.0).abs() < 1.0, "d = {d}");
    }

    #[test]
    fn haversine_zero_for_same_point() {
        assert_eq!(haversine_km(40.0, -73.0, 40.0, -73.0), 0.0);
    }

    #[test]
    fn bearing_cardinal_directions() {
        // Due north.
        let north = bearing_deg(40.0, -73.0, 41.0, -73.0);
        assert!(north.abs() < 1e-6 || (north - 360.0).abs() < 1e-6);
        // Due east (approximately 90° at small offsets).
        let east = bearing_deg(0.0, 0.0, 0.0, 1.0);
        assert!((east - 90.0).abs() < 1e-6);
    }

    #[test]
    fn fused_pass_is_bit_identical_to_the_separate_calls() {
        let coords = [-74.3, -73.98, 0.0, 40.6, 89.9, -12.5];
        for &(lat1, lon1) in &[(40.75, -73.98), (0.0, 0.0), (-33.9, 151.2)] {
            for (&lat2, &lon2) in coords.iter().zip(coords.iter().rev()) {
                let (km, deg) = distance_and_bearing(lat1, lon1, lat2, lon2);
                assert_eq!(km.to_bits(), haversine_km(lat1, lon1, lat2, lon2).to_bits());
                assert_eq!(deg.to_bits(), bearing_deg(lat1, lon1, lat2, lon2).to_bits());
            }
        }
    }

    /// The `fmod` forms the kernels replaced, kept as their oracles.
    fn fmod_hour(epoch_secs: f64) -> f64 {
        ((epoch_secs / 3600.0).floor() % 24.0 + 24.0) % 24.0
    }

    fn fmod_weekday(epoch_secs: f64) -> f64 {
        let days = (epoch_secs / 86_400.0).floor();
        (((days + 3.0) % 7.0) + 7.0) % 7.0
    }

    fn fmod_compass(y: f64, x: f64) -> f64 {
        (y.atan2(x).to_degrees() + 360.0) % 360.0
    }

    fn assert_calendar_bits(t: f64) {
        assert_eq!(
            hour_of_day(t).to_bits(),
            fmod_hour(t).to_bits(),
            "hour of {t:e}"
        );
        assert_eq!(
            day_of_week(t).to_bits(),
            fmod_weekday(t).to_bits(),
            "weekday of {t:e}"
        );
    }

    fn assert_compass_bits(y: f64, x: f64) {
        let (got, want) = (compass_degrees(y, x), fmod_compass(y, x));
        assert_eq!(got.to_bits(), want.to_bits(), "atan2({y:e}, {x:e})");
    }

    #[test]
    fn calendar_kernels_are_bit_identical_to_the_fmod_chain_on_the_edges() {
        let p53 = 9_007_199_254_740_992.0_f64;
        let mut grid = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            -1e12,
            1e17,
            -1e17,
        ];
        for base in [p53, 3600.0 * p53, 86_400.0 * p53] {
            for k in -2..=2 {
                grid.extend([base + f64::from(k), -base + f64::from(k)]);
            }
            grid.extend([
                base.next_up(),
                base.next_down(),
                -base.next_up(),
                -base.next_down(),
            ]);
        }
        for period in [3600.0, 86_400.0] {
            for k in [
                -100_000.0, -170.0, -7.0, -3.0, -1.0, 0.0, 1.0, 3.0, 7.0, 24.0, 1e6,
            ] {
                let t: f64 = k * period;
                grid.extend([
                    t,
                    t.next_up(),
                    t.next_down(),
                    t - 1.0,
                    t + 1.0,
                    t - 0.5,
                    t + 0.5,
                ]);
            }
        }
        for t in grid {
            assert_calendar_bits(t);
        }
    }

    #[test]
    fn compass_kernel_is_bit_identical_to_the_fmod_wrap_on_the_edges() {
        let edges = [
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            1.0,
            -1.0,
            1e-300,
            -1e300,
            f64::MAX,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for &y in &edges {
            for &x in &edges {
                assert_compass_bits(y, x);
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn calendar_kernels_match_the_fmod_chain_on_any_bits(bits in 0..u64::MAX, secs in -1e10..1e10f64) {
            assert_calendar_bits(f64::from_bits(bits));
            assert_calendar_bits(secs);
        }

        #[test]
        fn compass_kernel_matches_the_fmod_wrap_on_any_pair(
            y_bits in 0..u64::MAX,
            x_bits in 0..u64::MAX,
            y in -1.0..1.0f64,
            x in -1.0..1.0f64,
        ) {
            let (yb, xb) = (f64::from_bits(y_bits), f64::from_bits(x_bits));
            for (y, x) in [(yb, xb), (y, x), (yb, x), (y, xb), (y, f64::NAN), (f64::NAN, x)] {
                assert_compass_bits(y, x);
            }
        }
    }

    #[test]
    fn hour_and_weekday() {
        // 1970-01-01 00:00 was a Thursday (weekday 3).
        assert_eq!(hour_of_day(0.0), 0.0);
        assert_eq!(day_of_week(0.0), 3.0);
        // +3 days → Sunday (weekday 6), 13:00.
        let t = 3.0 * 86_400.0 + 13.0 * 3600.0 + 120.0;
        assert_eq!(hour_of_day(t), 13.0);
        assert_eq!(day_of_week(t), 6.0);
    }

    /// Pickup at epoch 3 days + 13h, 600 s trip, Manhattan-ish coords.
    const PARSED_ROW: [f64; 7] = [
        3.0 * 86_400.0 + 13.0 * 3600.0,
        -73.98,
        40.75,
        -73.95,
        40.78,
        2.0,
        600.0,
    ];

    #[test]
    fn taxi_extractor_layout() {
        let mut batch = numeric(&[&PARSED_ROW]);
        TaxiFeatureExtractor::new().transform(&mut batch);
        assert_eq!((batch.len(), batch.width()), (1, taxi_features::WIDTH));
        let nums: Vec<f64> = batch.columns().map(|c| c[0]).collect();
        assert_eq!(
            nums[taxi_features::HAVERSINE_KM],
            haversine_km(40.75, -73.98, 40.78, -73.95)
        );
        // North-east, a little east of the diagonal at this latitude.
        assert!((35.0..45.0).contains(&nums[1]));
        // Hour, weekday, weekend, passengers, then the four coordinates.
        assert_eq!(nums[2..6], [13.0, 6.0, 1.0, 2.0]);
        assert_eq!(nums[6..10], [-73.98, 40.75, -73.95, 40.78]);
        assert_eq!(nums[taxi_features::DURATION_SECS], 600.0);
    }

    #[test]
    fn taxi_extractor_drops_malformed_rows() {
        let mut batch = numeric(&[&[1.0]]);
        TaxiFeatureExtractor::new().transform(&mut batch);
        assert!(batch.is_empty());
    }

    #[test]
    fn select_columns_projects_in_order() {
        let mut batch = numeric(&[&[10.0, 20.0, 30.0]]);
        SelectColumns::new(vec![2, 0, 2]).transform(&mut batch);
        assert_eq!(columns(&batch), [[30.0], [10.0], [30.0]]);
        SelectColumns::first(2).transform(&mut batch);
        assert_eq!(columns(&batch), [[30.0], [10.0]]);
    }

    #[test]
    fn select_columns_drops_narrow_rows() {
        let mut batch = numeric(&[&[1.0]]);
        SelectColumns::new(vec![5]).transform(&mut batch);
        assert!(batch.is_empty());
    }
}
