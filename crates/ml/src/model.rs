//! Linear models over dense weights.
//!
//! A model's weights live in one shared buffer: cloning a model — which is
//! what a publish to the serving layer does — hands out the buffer, not a
//! copy. The trainer writes a buffer only while it holds the sole
//! reference; while a published snapshot holds it, the next optimizer sweep
//! writes into a retired buffer instead ([`RetiredWeights`]), so a published
//! model never changes.

use std::sync::{Arc, OnceLock};

use cdp_linalg::Vector;
use cdp_storage::RowView;

use crate::loss::LossKind;
use crate::optimizer::SweepTarget;

/// Order-dependent fingerprint of a weight vector's exact bit patterns,
/// length-mixed. Two weight vectors fingerprint equal iff they are
/// bit-identical (up to 64-bit collisions): a permutation, `-0.0` for `0.0`
/// or a different NaN payload all change it. Used by the publish event log
/// and the resume tests to name *which* model a publish carried.
///
/// Whole `f64::to_bits` words fold FNV-style into eight independently seeded
/// lanes, two words per multiply: a 16-word block gives lane `i` the pair
/// `(a, b) = (w[2i], w[2i+1])` and `h = ((h ^ a) * PRIME) ^ rotl(b, 32)`, so
/// the eight multiply chains overlap and a 2^16-dim vector costs half the
/// multiplies it has words. For a fixed `b` the step is a bijection of `h` in
/// `a` (xor, odd multiply, xor), and for a fixed `a` in `b` (xor); the shift
/// after it, which carries a word's high bits (sign, exponent) back into the
/// low ones as a bare multiply never does, is one too — so changing any
/// single word changes the result by construction, not only with
/// probability 1 − 2⁻⁶⁴. The rotate keeps `b`'s sign away from bit 63, where
/// `a`'s sign arrives untouched by the multiply: negating both words of a
/// pair cannot cancel. Words past the last whole block fold one at a time.
pub fn weights_fingerprint(weights: &[f64]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    fn fold(h: u64, word: u64) -> u64 {
        fold_pair(h, word, 0)
    }
    fn fold_pair(h: u64, a: u64, b: u64) -> u64 {
        let h = (h ^ a).wrapping_mul(PRIME) ^ b.rotate_left(32);
        h ^ (h >> 32)
    }
    let mut lanes: [u64; 8] = std::array::from_fn(|i| BASIS ^ i as u64);
    let (blocks, rest) = weights.as_chunks::<16>();
    for block in blocks {
        for (lane, pair) in lanes.iter_mut().zip(block.as_chunks::<2>().0) {
            *lane = fold_pair(*lane, pair[0].to_bits(), pair[1].to_bits());
        }
    }
    for (i, w) in rest.iter().enumerate() {
        lanes[i % 8] = fold(lanes[i % 8], w.to_bits());
    }
    lanes.into_iter().fold(BASIS, fold) ^ (weights.len() as u64)
}

/// Retired weight buffers a trainer keeps for its next out-of-place sweep:
/// one per slot of a serving ring (`cdp-core`'s `SNAPSHOT_SLOTS`, which
/// asserts the match) plus one for a reader holding a snapshot past it.
pub const RETIRED_BUFFERS: usize = 5;

/// One weight buffer and its [`weights_fingerprint`], computed at most once.
/// Every writer goes through [`WeightBuf::values_mut`], which clears it.
#[derive(Debug, Clone)]
struct WeightBuf {
    values: Vec<f64>,
    fingerprint: OnceLock<u64>,
}

impl WeightBuf {
    fn shared(values: Vec<f64>) -> Arc<Self> {
        Arc::new(Self {
            values,
            fingerprint: OnceLock::new(),
        })
    }

    /// The values for writing: the cached fingerprint is dropped first.
    fn values_mut(&mut self) -> &mut Vec<f64> {
        self.fingerprint.take();
        &mut self.values
    }
}

/// A linear model `f(x) = w·x` (any bias is a constant feature appended by
/// the pipeline, so the weights fully describe the model). Clones share one
/// weight buffer; equality compares weights and loss.
#[derive(Debug, Clone)]
pub struct LinearModel {
    weights: Arc<WeightBuf>,
    loss: LossKind,
}

impl PartialEq for LinearModel {
    fn eq(&self, other: &Self) -> bool {
        self.weights.values == other.weights.values && self.loss == other.loss
    }
}

/// Pads `v` with zeros up to `dim` coordinates; never shrinks it.
pub(crate) fn grow_to(v: &mut Vec<f64>, dim: usize) {
    if dim > v.len() {
        v.resize(dim, 0.0);
    }
}

/// The buffers a trainer's model has retired, newest last, at most
/// [`RETIRED_BUFFERS`]: a snapshot may still hold one, and the first that
/// none holds is the next sweep's destination. Transient like a scratch
/// pool: a clone starts empty and the pool never takes part in equality.
#[derive(Debug, Default)]
pub(crate) struct RetiredWeights(Vec<Arc<WeightBuf>>);

impl RetiredWeights {
    /// A buffer nothing else holds, taken out of the pool, or a zeroed one
    /// of `dim` coordinates when every retired buffer is still held.
    fn take_free(&mut self, dim: usize) -> Arc<WeightBuf> {
        match self.0.iter_mut().position(|b| Arc::get_mut(b).is_some()) {
            Some(free) => self.0.remove(free),
            None => WeightBuf::shared(vec![0.0; dim]),
        }
    }

    /// Keeps `buf` for a later sweep, dropping the oldest beyond the bound.
    fn retire(&mut self, buf: Arc<WeightBuf>) {
        self.0.push(buf);
        if self.0.len() > RETIRED_BUFFERS {
            self.0.remove(0);
        }
    }
}

impl Clone for RetiredWeights {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl PartialEq for RetiredWeights {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl LinearModel {
    /// Creates a zero-initialized model of dimension `dim` for `loss`.
    pub fn zeros(dim: usize, loss: LossKind) -> Self {
        Self::with_weights(vec![0.0; dim], loss)
    }

    /// Creates a model with given weights.
    pub fn with_weights(weights: Vec<f64>, loss: LossKind) -> Self {
        Self {
            weights: WeightBuf::shared(weights),
            loss,
        }
    }

    /// The loss the model trains with.
    pub fn loss(&self) -> LossKind {
        self.loss
    }

    /// The weight vector.
    pub fn weights(&self) -> &Vec<f64> {
        &self.weights.values
    }

    /// [`weights_fingerprint`] of the weights, computed once per buffer: a
    /// clone, and every later call until the weights change, reads the cache.
    pub fn fingerprint(&self) -> u64 {
        *self
            .weights
            .fingerprint
            .get_or_init(|| weights_fingerprint(&self.weights.values))
    }

    /// Weight dimension.
    pub fn dim(&self) -> usize {
        self.weights.values.len()
    }

    /// Grows the weight vector to cover `dim` features. Only a growth
    /// writes, into a private copy when a clone shares the buffer.
    pub fn grow_to(&mut self, dim: usize) {
        if dim > self.dim() {
            grow_to(Arc::make_mut(&mut self.weights).values_mut(), dim);
        }
    }

    /// Hands `sweep` the weights for one optimizer pass. In place when no
    /// clone shares the buffer; else from the current buffer into a retired
    /// one nothing holds (or a fresh one), sized to match, which then becomes
    /// current while the old buffer retires into `retired`.
    pub(crate) fn rewrite(
        &mut self,
        retired: &mut RetiredWeights,
        sweep: impl FnOnce(SweepTarget<'_>),
    ) {
        if let Some(buf) = Arc::get_mut(&mut self.weights) {
            return sweep(SweepTarget::InPlace(buf.values_mut()));
        }
        let mut next = retired.take_free(self.dim());
        // Nothing else holds `next`, so this never copies.
        let dst = Arc::make_mut(&mut next).values_mut();
        dst.resize(self.dim(), 0.0);
        sweep(SweepTarget::OutOfPlace {
            src: &self.weights.values,
            dst,
        });
        retired.retire(std::mem::replace(&mut self.weights, next));
    }

    /// Margin without mutation, by the row vector's own kernel. Total: a row
    /// *wider* than the model multiplies its uncovered coordinates by zero
    /// weights, exactly as if the model had already grown.
    pub fn margin_ref(&self, x: &Vector) -> f64 {
        x.dot_padded(&self.weights.values)
    }

    /// Raw margin `w·x` for a zero-copy columnar row. Grows the weights when
    /// the row is wider than the model (the URL feature space grows over
    /// time), after which the padded dot product is the exact one.
    pub fn margin_row(&mut self, x: RowView<'_>) -> f64 {
        self.grow_to(x.dim());
        x.dot_padded(&self.weights.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use cdp_storage::{ColumnSlab, CsrBuilder, FeatureChunk, Timestamp};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    use crate::optimizer::{OptimizerKind, OptimizerState};
    use crate::regularizer::Regularizer;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A pool of one retired buffer nothing else holds, of `len` words that
    /// are neither zero nor the weights — NaN, `-0.0`, stale values — and
    /// carrying the fingerprint of those words.
    fn stale_pool(len: usize) -> (RetiredWeights, *const WeightBuf) {
        let junk = [f64::NAN, -0.0, 7.5, -1e300];
        let values: Vec<f64> = (0..len).map(|i| junk[i % junk.len()]).collect();
        let stale = WeightBuf::shared(values);
        stale
            .fingerprint
            .get_or_init(|| weights_fingerprint(&stale.values));
        let at = Arc::as_ptr(&stale);
        let mut pool = RetiredWeights::default();
        pool.retire(stale);
        (pool, at)
    }

    /// One Constant-rate sweep of `model` by `grad`.
    fn sweep(model: &mut LinearModel, pool: &mut RetiredWeights, grad: &[f64]) {
        let kind = OptimizerKind::Constant { eta: 0.5 };
        let mut state = OptimizerState::new(kind, grad.len());
        let mut grad = grad.to_vec();
        model.rewrite(pool, |target| {
            state.sweep(target, &mut grad, None, Regularizer::None);
        });
    }

    fn cache_is_fresh(model: &LinearModel) -> bool {
        model.fingerprint() == weights_fingerprint(model.weights())
    }

    proptest! {
        /// A sweep from a shared buffer into a recycled one is the in-place
        /// sweep, bit for bit: weights, both accumulators, the cleared
        /// gradient slots and the clock, for every update rule, scaled or
        /// not, under every penalty — whatever the recycled buffer held and
        /// however long it was.
        #[test]
        fn an_out_of_place_sweep_is_the_in_place_sweep_bit_for_bit(
            seed in 0u64..u64::MAX,
            stale_len in 0usize..1100,
        ) {
            const WORDS: [f64; 5] = [-0.0, 0.0, 5e-324, -1e-310, f64::NAN];
            let mut rng = StdRng::seed_from_u64(seed);
            let penalties = [Regularizer::None, Regularizer::L1(1e-3), Regularizer::L2(1e-3)];
            for dim in [0, 1, 15, 16, 17, 1027] {
                let word = |rng: &mut StdRng, lo: f64| match rng.random_range(0..3 * WORDS.len()) {
                    i if i < WORDS.len() => WORDS[i],
                    _ => rng.random_range(lo..1.0),
                };
                let weights: Vec<f64> = (0..dim).map(|_| word(&mut rng, -1.0)).collect();
                let grad: Vec<f64> = (0..dim).map(|_| word(&mut rng, -1.0)).collect();
                for kind in OptimizerKind::test_cases() {
                    let fresh = OptimizerState::new(kind, dim);
                    let (_, _, acc1, acc2) = fresh.to_parts();
                    let acc1: Vec<f64> = acc1.iter().map(|_| word(&mut rng, -0.5)).collect();
                    let acc2: Vec<f64> = acc2.iter().map(|_| rng.random_range(0.0..1.0)).collect();
                    let clock = [0, 355, 40_000][rng.random_range(0..3usize)];
                    for scale in [None, Some(1.0 / 3.0)] {
                        for penalty in penalties {
                            let run = |shared: bool| {
                                let mut model = LinearModel::with_weights(weights.clone(), LossKind::Hinge);
                                let held = shared.then(|| model.clone());
                                let (mut pool, recycled) = stale_pool(stale_len);
                                let mut state = OptimizerState::from_parts(kind, clock, acc1.clone(), acc2.clone());
                                let mut grad = grad.clone();
                                model.rewrite(&mut pool, |target| state.sweep(target, &mut grad, scale, penalty));
                                let (_, t, a1, a2) = state.to_parts();
                                let wrote_recycled = Arc::as_ptr(&model.weights) == recycled;
                                let held_kept = held.map(|h| bits(h.weights()) == bits(&weights));
                                (bits(model.weights()), t, bits(a1), bits(a2), bits(&grad), wrote_recycled, held_kept, cache_is_fresh(&model))
                            };
                            let (in_place, out_of_place) = (run(false), run(true));
                            let what = format!("{kind:?} scale {scale:?} {penalty:?} dim {dim} stale {stale_len}");
                            prop_assert_eq!(&in_place.0, &out_of_place.0, "weights: {}", what);
                            prop_assert_eq!(in_place.1, out_of_place.1, "clock: {}", what);
                            prop_assert_eq!(&in_place.2, &out_of_place.2, "first accumulator: {}", what);
                            prop_assert_eq!(&in_place.3, &out_of_place.3, "second accumulator: {}", what);
                            prop_assert_eq!(&in_place.4, &out_of_place.4, "gradient slots: {}", what);
                            prop_assert!(!in_place.5 && out_of_place.5, "which buffer was written: {}", what);
                            prop_assert_eq!(out_of_place.6, Some(true), "the held model changed: {}", what);
                            prop_assert!(in_place.7 && out_of_place.7, "a stale fingerprint: {}", what);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn the_fingerprint_is_recomputed_after_every_writer() {
        let grad = [0.25, -1.0, 3.0];
        let fresh = || LinearModel::with_weights(vec![1.0, -2.0, 0.5], LossKind::Hinge);

        // Construction.
        let model = fresh();
        assert_eq!(model.fingerprint(), weights_fingerprint(&[1.0, -2.0, 0.5]));

        // An in-place sweep after the cache was filled.
        let mut model = fresh();
        let before = model.fingerprint();
        sweep(&mut model, &mut RetiredWeights::default(), &grad);
        assert_ne!(model.fingerprint(), before);
        assert!(cache_is_fresh(&model));

        // An out-of-place sweep into a recycled buffer that carries the
        // fingerprint of what it held.
        for stale_len in [0, 2, 3, 9] {
            let mut model = fresh();
            let held = model.clone();
            let (mut pool, recycled) = stale_pool(stale_len);
            sweep(&mut model, &mut pool, &grad);
            assert_eq!(
                Arc::as_ptr(&model.weights),
                recycled,
                "stale length {stale_len}"
            );
            assert!(cache_is_fresh(&model), "stale length {stale_len}");
            assert!(cache_is_fresh(&held));
        }

        // Growth, alone or shared with a clone, and through a wider row.
        let mut model = fresh();
        let held = model.clone();
        let before = model.fingerprint();
        model.grow_to(5);
        assert_eq!(model.dim(), 5);
        assert!(cache_is_fresh(&model));
        assert_eq!((held.dim(), held.fingerprint()), (3, before));
        model.grow_to(9);
        assert!(cache_is_fresh(&model));

        let mut model = fresh();
        model.fingerprint();
        let wide = ColumnSlab::dense(vec![1.0], vec![vec![1.0]; 6]);
        let chunk = FeatureChunk::from_slab(Timestamp(0), Timestamp(0), Arc::new(wide));
        model.margin_row(chunk.row(0));
        assert_eq!(model.dim(), 6);
        assert!(cache_is_fresh(&model));
    }

    #[test]
    fn a_clone_shares_the_buffer_and_its_cache_and_equality_ignores_the_cache() {
        let model = LinearModel::with_weights(vec![0.5, -0.0, 2.0], LossKind::Squared);
        let clone = model.clone();
        assert!(Arc::ptr_eq(&model.weights, &clone.weights));
        assert_eq!(clone.weights.fingerprint.get(), None);
        let fp = model.fingerprint();
        assert_eq!(clone.weights.fingerprint.get(), Some(&fp));

        // Only a growth that happens copies.
        let mut grown = clone.clone();
        grown.grow_to(2);
        assert!(Arc::ptr_eq(&model.weights, &grown.weights));
        grown.grow_to(4);
        assert!(!Arc::ptr_eq(&model.weights, &grown.weights));

        let uncached = LinearModel::with_weights(vec![0.5, -0.0, 2.0], LossKind::Squared);
        assert_eq!(uncached.weights.fingerprint.get(), None);
        assert_eq!(model, uncached);
        assert_ne!(
            model,
            LinearModel::with_weights(vec![0.5, -0.0, 2.0], LossKind::Hinge)
        );
        assert_ne!(
            model,
            LinearModel::with_weights(vec![0.5, 1.0, 2.0], LossKind::Squared)
        );
    }

    #[test]
    fn the_retired_pool_is_bounded_and_hands_out_only_free_buffers() {
        let mut pool = RetiredWeights::default();
        let held: Vec<Arc<WeightBuf>> = (0..2 * RETIRED_BUFFERS)
            .map(|i| WeightBuf::shared(vec![i as f64; 4]))
            .collect();
        for buf in &held {
            pool.retire(Arc::clone(buf));
            assert!(pool.0.len() <= RETIRED_BUFFERS);
        }
        // Every retired buffer is still held: a fresh zeroed one comes out.
        let fresh = pool.take_free(4);
        assert_eq!(fresh.values, [0.0; 4]);
        assert_eq!(Arc::strong_count(&fresh), 1);
        assert_eq!(pool.0.len(), RETIRED_BUFFERS);
        // The newest are kept; releasing one makes it the next destination.
        let newest = held.len() - 1;
        drop(held);
        let free = pool.take_free(4);
        assert_eq!(free.values, [(newest - RETIRED_BUFFERS + 1) as f64; 4]);
        assert_eq!(pool.0.len(), RETIRED_BUFFERS - 1);
    }

    #[test]
    fn margin_row_grows_weights_for_wider_rows() {
        let mut m = LinearModel::zeros(2, LossKind::Hinge);
        let wide = ColumnSlab::dense(vec![1.0], vec![vec![1.0]; 4]);
        let chunk = FeatureChunk::from_slab(Timestamp(0), Timestamp(0), Arc::new(wide));
        assert_eq!(m.margin_row(chunk.row(0)), 0.0);
        assert_eq!(m.dim(), 4);
    }

    #[test]
    fn margin_ref_is_total() {
        let m = LinearModel::with_weights(vec![0.5, -2.0], LossKind::Hinge);
        // Regression: a row wider than the model used to panic.
        let wide = Vector::Dense(vec![2.0, 1.0, 9.0]);
        assert_eq!(m.margin_ref(&wide), 1.0 - 2.0);
    }

    #[test]
    fn margin_ref_is_the_slab_rows_margin_bit_for_bit() {
        // Rows of width 5 in both layouts — a negative zero, a subnormal,
        // products that round, a CSR row ending short of the width and an
        // empty one — against models narrower than, as wide as and wider
        // than the rows.
        let values = [
            [0.1, -0.0, 3.0, 5e-324, -7.25],
            [1.0 / 3.0, 2.0, 0.0, -1e300, 0.7],
        ];
        let cols = (0..5).map(|j| values.iter().map(|row| row[j]).collect());
        let dense = ColumnSlab::dense(vec![1.0, -1.0], cols.collect());
        let mut builder = CsrBuilder::reusing(None, 5, 3, 6);
        builder.push_row(1.0, &mut [(4, 0.3), (0, -1.5), (2, 1.0 / 7.0)]);
        builder.push_row(-1.0, &mut [(1, 2.5), (3, -0.0)]);
        builder.push_row(0.0, &mut []);
        let csr = builder.finish();
        for width in [2, 5, 8] {
            let weights = (0..width).map(|i| 0.9 - 0.37 * i as f64).collect();
            let m = LinearModel::with_weights(weights, LossKind::Hinge);
            for slab in [&dense, &csr] {
                for i in 0..slab.len() {
                    let row = slab.row(i);
                    let point = row.to_point();
                    assert_eq!(
                        m.margin_ref(&point.features).to_bits(),
                        row.dot_padded(m.weights()).to_bits(),
                        "row {i} of {slab:?} against {width} weights"
                    );
                }
            }
        }
    }

    #[test]
    fn fingerprint_separates_weight_vectors() {
        let a = weights_fingerprint(&[1.0, 2.0]);
        let b = weights_fingerprint(&[1.0, 2.0 + 1e-12]);
        let c = weights_fingerprint(&[1.0, 2.0, 0.0]);
        assert_eq!(a, weights_fingerprint(&[1.0, 2.0]));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(weights_fingerprint(&[]), weights_fingerprint(&[0.0]));
        // Order-dependent. In a 16-word block lane `i` folds the pair
        // (2i, 2i+1), so with two blocks words 0 and 16 meet in lane 0 as
        // `a`s, 1 and 17 as its `b`s; 0 and 2 sit in different lanes.
        let v: Vec<f64> = (1..=34).map(f64::from).collect();
        let fp = weights_fingerprint(&v);
        let swapped = |i: usize, j: usize| {
            let mut w = v.clone();
            w.swap(i, j);
            weights_fingerprint(&w)
        };
        for (i, j) in [(0, 16), (1, 17), (0, 2), (0, 17), (32, 33), (15, 32)] {
            assert_ne!(fp, swapped(i, j), "swap {i} <-> {j}");
        }
        // The two words of every pair are told apart, in either block.
        for pair in 0..16 {
            assert_ne!(fp, swapped(2 * pair, 2 * pair + 1), "pair {pair}");
        }
        // Bit patterns, not values: -0.0 == 0.0 and NaN != NaN as floats.
        assert_ne!(weights_fingerprint(&[0.0]), weights_fingerprint(&[-0.0]));
        let quiet = f64::from_bits(0x7ff8_0000_0000_0000);
        let payload = f64::from_bits(0x7ff8_0000_0000_0001);
        assert!(quiet.is_nan() && payload.is_nan());
        for at in [0, 1, 16, 33] {
            let with = |x: f64| {
                let mut w = v.clone();
                w[at] = x;
                weights_fingerprint(&w)
            };
            assert_eq!(with(quiet), with(quiet));
            assert_ne!(with(quiet), with(payload), "NaN payload at {at}");
            assert_ne!(with(0.0), with(-0.0), "zero sign at {at}");
        }
        // Two sign flips in one lane must not cancel in the top bit: as two
        // `a`s, as two `b`s, as the two words of one pair, and in the
        // one-word remainder fold (32 and 40 share lane 0 there).
        let mut long = vec![1.0; 48];
        for (i, j) in [(0, 16), (1, 17), (0, 1), (16, 1), (32, 40)] {
            long[i] = 0.0;
            long[j] = 0.0;
            let plain = weights_fingerprint(&long);
            long[i] = -0.0;
            long[j] = -0.0;
            assert_ne!(plain, weights_fingerprint(&long), "signs {i}, {j}");
            long[i] = 1.0;
            long[j] = 1.0;
        }
    }

    #[test]
    fn fingerprint_changes_with_any_single_bit_of_any_single_word() {
        // Every length through two whole blocks and a remainder that wraps
        // the lanes, every position, every bit: the per-word bijection.
        let words = |n: usize| -> Vec<f64> { (0..n).map(|i| 0.37 * i as f64 - 3.0).collect() };
        for len in 0..=40usize {
            let base = words(len);
            let fp = weights_fingerprint(&base);
            for at in 0..len {
                for bit in 0..64 {
                    let mut w = base.clone();
                    w[at] = f64::from_bits(w[at].to_bits() ^ (1 << bit));
                    assert_ne!(fp, weights_fingerprint(&w), "len {len} word {at} bit {bit}");
                }
            }
        }
    }

    #[test]
    fn fingerprint_tells_lengths_of_equal_words_apart() {
        // Around the block size, where a word moves from the one-word fold
        // into a pair, and for the all-zero vector, which xors nothing in.
        for word in [0.0, 1.0, -2.5] {
            let fps: Vec<u64> = [15, 16, 17, 31, 32, 33]
                .iter()
                .map(|&n| weights_fingerprint(&vec![word; n]))
                .collect();
            for i in 0..fps.len() {
                for j in 0..i {
                    assert_ne!(fps[i], fps[j], "word {word}, lengths #{j} / #{i}");
                }
            }
        }
    }
}
