//! Mini-batch stochastic gradient descent (paper Algorithm 1).
//!
//! [`SgdTrainer`] bundles the three things an SGD iteration needs: the model
//! weights, the per-coordinate optimizer state, and the regularizer. One call
//! to [`SgdTrainer::step_rows`] is one iteration of Algorithm 1 — sample,
//! compute the gradient of the loss `J`, update the model. Because the trainer
//! carries everything an iteration depends on, the platform can execute
//! steps at arbitrary times (online updates and proactive training
//! interleaved) and the sequence is still a valid SGD trajectory (§3.3).

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use cdp_engine::{EngineError, ExecutionEngine, RunCtx};
use cdp_faults::{FaultHook, NoFaults};
use cdp_storage::{slab_runs, ColumnSlab, RowView};

use crate::loss::{Loss, LossKind};
use crate::model::{grow_to, LinearModel, RetiredWeights};
use crate::optimizer::{AdaptiveRate, OptimizerKind, OptimizerState};
use crate::regularizer::Regularizer;

/// Minimum points per gradient shard: below this, sharding overhead
/// (allocating partial gradients) outweighs the parallel win, so a batch
/// runs in-place on the caller's thread.
const GRAD_SHARD_MIN_POINTS: usize = 512;

/// Upper bound on gradient shards per step, so the reduction tree stays
/// shallow and partial-gradient memory stays bounded.
const MAX_GRAD_SHARDS: usize = 8;

/// Number of gradient shards used for a batch of `n` points.
///
/// The count is a function of the batch size **only** — never of the engine
/// or its worker count — so the floating-point summation tree (and thus the
/// resulting weights, bit for bit) is identical no matter which engine runs
/// the shards.
fn gradient_shards(n: usize) -> usize {
    (n / GRAD_SHARD_MIN_POINTS).clamp(1, MAX_GRAD_SHARDS)
}

/// One task's share of a step's gradient: a dense buffer plus the
/// coordinates of it that may be non-zero.
///
/// Invariant: a coordinate of `buf` that is not listed in `touched` is
/// `+0.0` — unless `dense` is set, which a dense row does: it writes every
/// coordinate, so the partial stops listing them and is merged and cleared
/// full-width. A sparse source therefore costs its non-zeros, not the model
/// dimension, to accumulate, merge and recycle.
///
/// Skipping the untouched coordinates cannot change a bit: a buffer starts
/// at `+0.0` and only ever takes `slot += x`, which never produces `-0.0`,
/// and `x + 0.0` is `x` for every other `x` — so the full-width
/// `a[i] += b[i]` this replaces was the identity wherever `b` is untouched.
/// `touched` may list a coordinate twice (a slot that cancelled back to zero
/// and was hit again); [`GradPartial::absorb`] zeroes `other` as it reads,
/// so the second visit adds `0.0`.
#[derive(Debug, Default)]
struct GradPartial {
    buf: Vec<f64>,
    touched: Vec<u32>,
    dense: bool,
    /// The margins, then coefficients, of the slab run its task is folding:
    /// recycled with the partial, so a warm task scores without allocating.
    scores: Vec<f64>,
}

/// Where [`fold_run`] puts `coeff · row` terms: the float operations of
/// [`RowView::axpy_into_growing`], row by row in row order, each row growing
/// the gradient to cover it first.
trait Gradient {
    /// `self += coeff · row`.
    fn add_row(&mut self, coeff: f64, row: RowView<'_>);

    /// `self += coeffs[k] · row(rows.start + k)` for every `k` whose
    /// coefficient is not zero.
    fn add_run(&mut self, slab: &ColumnSlab, rows: Range<usize>, coeffs: &[f64]);
}

/// The unsharded step's own buffer: a plain fold, nothing listed.
impl Gradient for Vec<f64> {
    fn add_row(&mut self, coeff: f64, row: RowView<'_>) {
        row.axpy_into_growing(coeff, self);
    }

    fn add_run(&mut self, slab: &ColumnSlab, rows: Range<usize>, coeffs: &[f64]) {
        slab.axpy_rows(rows, coeffs, self);
    }
}

impl Gradient for GradPartial {
    fn add_row(&mut self, coeff: f64, row: RowView<'_>) {
        if !self.dense {
            if let Some((indices, values)) = row.sparse_parts() {
                if let Some(&last) = indices.last() {
                    grow_to(&mut self.buf, last as usize + 1);
                }
                let slots = self.buf.as_mut_slice();
                for (&i, &v) in indices.iter().zip(values) {
                    let slot = &mut slots[i as usize];
                    if *slot == 0.0 {
                        self.touched.push(i);
                    }
                    *slot += coeff * v;
                }
                return;
            }
            self.dense = true;
        }
        row.axpy_into_growing(coeff, &mut self.buf);
    }

    fn add_run(&mut self, slab: &ColumnSlab, rows: Range<usize>, coeffs: &[f64]) {
        // Row by row while the partial lists what it touches; once a dense
        // row has ended the listing, the rest of the run folds whole.
        let mut k = 0;
        while !self.dense && k < coeffs.len() {
            if coeffs[k] != 0.0 {
                self.add_row(coeffs[k], slab.row(rows.start + k));
            }
            k += 1;
        }
        slab.axpy_rows(rows.start + k..rows.end, &coeffs[k..], &mut self.buf);
    }
}

impl GradPartial {
    /// `self += other` at the width of the wider of the two, visiting only
    /// the coordinates `other` may hold. A sparse `other` is left all-zero.
    fn absorb(&mut self, other: &mut GradPartial) {
        grow_to(&mut self.buf, other.buf.len());
        let slots = self.buf.as_mut_slice();
        if other.dense {
            self.dense = true;
            for (slot, v) in slots.iter_mut().zip(other.buf.as_slice()) {
                *slot += v;
            }
        } else {
            let theirs = other.buf.as_mut_slice();
            for i in other.touched.drain(..) {
                let slot = &mut slots[i as usize];
                if *slot == 0.0 {
                    self.touched.push(i);
                }
                *slot += std::mem::take(&mut theirs[i as usize]);
            }
        }
    }
}

/// A pool of recycled [`GradPartial`]s shared by the sharded and fused
/// training paths, so steady-state steps allocate no per-shard gradient
/// vectors and zero-fill none either.
///
/// Every pooled buffer is all-zero: [`GradScratch::release`] clears the
/// coordinates the partial touched (all of them for a dense one), so
/// [`GradScratch::acquire`] hands a buffer out as it is. A recycled partial
/// is thus bit-indistinguishable from a fresh one and pop order is
/// irrelevant. The reuse/alloc split *is* timing-dependent (two workers may
/// both find the pool empty), which is why it surfaces through
/// observability as histogram samples, not deterministic counters.
#[derive(Debug, Default)]
struct GradScratch {
    pool: Mutex<Vec<GradPartial>>,
    reused: AtomicU64,
    allocated: AtomicU64,
    /// Margins, then coefficients, of the run the unsharded step or
    /// [`SgdTrainer::score_slab`] is on.
    scores: Vec<f64>,
}

impl GradScratch {
    /// An all-zero partial of exactly `dim` coordinates, recycled when the
    /// pool has one (the model only grows, so a pooled buffer is never the
    /// wider; one that is would be dropped).
    fn acquire(&self, dim: usize) -> GradPartial {
        let recycled = self
            .pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        match recycled {
            Some(mut part) if part.buf.len() <= dim => {
                self.reused.fetch_add(1, Ordering::Relaxed);
                grow_to(&mut part.buf, dim);
                part
            }
            _ => {
                self.allocated.fetch_add(1, Ordering::Relaxed);
                GradPartial {
                    buf: vec![0.0; dim],
                    ..GradPartial::default()
                }
            }
        }
    }

    /// Clears what `part` touched and returns it to the pool for a later
    /// step to reuse.
    fn release(&self, mut part: GradPartial) {
        let slots = part.buf.as_mut_slice();
        if part.dense {
            slots.fill(0.0);
            part.dense = false;
        } else {
            for &i in &part.touched {
                slots[i as usize] = 0.0;
            }
        }
        part.touched.clear();
        self.pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(part);
    }

    /// Cumulative `(reused, allocated)` acquisition counts.
    fn counters(&self) -> (u64, u64) {
        (
            self.reused.load(Ordering::Relaxed),
            self.allocated.load(Ordering::Relaxed),
        )
    }
}

/// The trainer's one fold over rows: scores `rows` of `slab` against `model`,
/// adds each row's loss to `sum`, and hands `grad` each row's coefficient
/// `dloss_dz` — times `scale`, when given. A run is scored in one
/// [`ColumnSlab::dot_rows`] and folded in one [`Gradient::add_run`]; a run of
/// one row (what a shuffled batch is made of) takes the row ops instead. Row
/// by row these are the row ops' operations (`dot_padded`, `value`,
/// `dloss_dz`, skip-or-axpy): the loss sum runs in row order and every margin
/// and gradient coordinate is a chain of its own in its own order, so the
/// result is the same bit for bit.
#[inline]
fn fold_run(
    slab: &ColumnSlab,
    rows: Range<usize>,
    model: &LinearModel,
    scale: Option<f64>,
    mut sum: f64,
    scores: &mut Vec<f64>,
    grad: &mut impl Gradient,
) -> f64 {
    let loss = model.loss();
    if rows.len() != 1 {
        // `scores` holds the run's margins, then its coefficients.
        slab.dot_rows(rows.clone(), model.weights(), scores);
        for (z, &y) in scores.iter_mut().zip(&slab.labels()[rows.clone()]) {
            (sum, *z) = loss_and_coeff(loss, *z, y, scale, sum);
        }
        grad.add_run(slab, rows, scores);
        return sum;
    }
    let row = slab.row(rows.start);
    let z = row.dot_padded(model.weights());
    let (sum, coeff) = loss_and_coeff(loss, z, row.label(), scale, sum);
    if coeff != 0.0 {
        grad.add_row(coeff, row);
    }
    sum
}

/// One row of a fold: `sum` plus the row's loss at margin `z`, and the row's
/// coefficient `dloss_dz` — times `scale`, when given.
#[inline]
fn loss_and_coeff(loss: LossKind, z: f64, y: f64, scale: Option<f64>, sum: f64) -> (f64, f64) {
    let dz = loss.dloss_dz(z, y);
    (sum + loss.value(z, y), scale.map_or(dz, |scale| dz * scale))
}

/// Euclidean norm: the squares summed in coordinate order, then the root.
fn norm_l2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Scratch state is transient by definition: clones and deserialized
/// trainers start with an empty pool, and pool contents never participate
/// in trainer equality (they are invisible to results).
impl Clone for GradScratch {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl PartialEq for GradScratch {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// When to stop a multi-epoch `fit`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConvergenceCriteria {
    /// Stop when the relative L2 change of the weights over one epoch falls
    /// below this threshold (the paper's "weight vector does not change").
    pub tolerance: f64,
    /// Hard cap on epochs.
    pub max_epochs: usize,
}

impl Default for ConvergenceCriteria {
    fn default() -> Self {
        Self {
            tolerance: 1e-4,
            max_epochs: 100,
        }
    }
}

/// Full configuration for a trainer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SgdConfig {
    /// The loss / model family.
    pub loss: LossKind,
    /// Learning-rate adaptation technique.
    pub optimizer: OptimizerKind,
    /// Weight penalty.
    pub regularizer: Regularizer,
    /// Mini-batch size for `fit` (the paper's *sample size*
    /// hyperparameter).
    pub batch_size: usize,
    /// Stopping rule for `fit`.
    pub convergence: ConvergenceCriteria,
    /// Seed for mini-batch shuffling.
    pub shuffle_seed: u64,
}

impl SgdConfig {
    /// A reasonable default configuration for the given loss: Adam(0.01),
    /// L2(1e-3), batches of 128.
    pub fn for_loss(loss: LossKind) -> Self {
        Self {
            loss,
            optimizer: OptimizerKind::adam(0.01),
            regularizer: Regularizer::L2(1e-3),
            batch_size: 128,
            convergence: ConvergenceCriteria::default(),
            shuffle_seed: 42,
        }
    }
}

/// Outcome of a multi-epoch `fit`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Epochs actually run.
    pub epochs: usize,
    /// SGD iterations executed during this fit.
    pub steps: u64,
    /// Mean loss (including penalty) before training.
    pub initial_loss: f64,
    /// Mean loss (including penalty) after training.
    pub final_loss: f64,
    /// Whether the tolerance was reached before `max_epochs`.
    pub converged: bool,
}

/// Model + optimizer state + regularizer: the deployable training unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SgdTrainer {
    model: LinearModel,
    optimizer: OptimizerState,
    regularizer: Regularizer,
    /// Scratch gradient buffer, reused across steps. Between steps it holds
    /// what [`OptimizerState::sweep`] left: the last gradient times `0.0`.
    #[serde(skip)]
    grad: Vec<f64>,
    /// Recycled partial-gradient buffers for sharded and fused steps.
    #[serde(skip)]
    scratch: GradScratch,
    /// Weight buffers the model retired, for its next out-of-place sweep.
    #[serde(skip)]
    retired: RetiredWeights,
    /// Total training examples consumed (for cost accounting).
    points_seen: u64,
}

/// Outcome of one fused transform+gradient step
/// ([`SgdTrainer::try_step_fused`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusedStepOutcome {
    /// Mean pre-update data loss over all streamed points, or `None` when
    /// every source was empty (no update was performed).
    pub loss: Option<f64>,
    /// Training points consumed by the step.
    pub points: u64,
}

impl SgdTrainer {
    /// Creates a zero-initialized trainer of feature dimension `dim`.
    pub fn new(dim: usize, config: &SgdConfig) -> Self {
        Self {
            model: LinearModel::zeros(dim, config.loss),
            optimizer: OptimizerState::new(config.optimizer, dim),
            regularizer: config.regularizer,
            grad: vec![0.0; dim],
            scratch: GradScratch::default(),
            retired: RetiredWeights::default(),
            points_seen: 0,
        }
    }

    /// Rebuilds a trainer from checkpointed state, including the cumulative
    /// `points_seen` counter.
    pub fn restore(
        model: LinearModel,
        optimizer: OptimizerState,
        regularizer: Regularizer,
        points_seen: u64,
    ) -> Self {
        let dim = model.dim();
        Self {
            model,
            optimizer,
            regularizer,
            grad: vec![0.0; dim],
            scratch: GradScratch::default(),
            retired: RetiredWeights::default(),
            points_seen,
        }
    }

    /// The deployed model.
    pub fn model(&self) -> &LinearModel {
        &self.model
    }

    /// Mutable access to the deployed model (used for answering queries,
    /// which may grow the weights for wider rows).
    pub fn model_mut(&mut self) -> &mut LinearModel {
        &mut self.model
    }

    /// The optimizer state (serializable for warm starting).
    pub fn optimizer(&self) -> &OptimizerState {
        &self.optimizer
    }

    /// The weight penalty in use.
    pub fn regularizer(&self) -> Regularizer {
        self.regularizer
    }

    /// SGD iterations executed so far (across online + proactive training).
    pub fn steps(&self) -> u64 {
        self.optimizer.steps()
    }

    /// Training examples consumed so far.
    pub fn points_seen(&self) -> u64 {
        self.points_seen
    }

    /// Test-then-train's predictions: the model's margin on every row of
    /// `slab`, handed to `each` with the row's label, in row order. Bit for
    /// bit what [`LinearModel::margin_row`] gives row by row, including its
    /// growing the model to a wider row first (once here: a slab's rows
    /// share one width).
    pub fn score_slab(&mut self, slab: &ColumnSlab, mut each: impl FnMut(f64, f64)) {
        if slab.is_empty() {
            return;
        }
        self.model.grow_to(slab.row(0).dim());
        let scores = &mut self.scratch.scores;
        slab.dot_rows(0..slab.len(), self.model.weights(), scores);
        for (&z, &y) in scores.iter().zip(slab.labels()) {
            each(z, y);
        }
    }

    /// One mini-batch SGD iteration over `batch` (Algorithm 1, lines 3–5),
    /// computing the gradient on `engine` over zero-copy views of slab rows.
    ///
    /// Large batches are split into [`gradient_shards`] contiguous shards
    /// whose partial gradients [`ExecutionEngine::try_map_reduce`] combines
    /// in a shape fixed by the batch size, so every engine produces
    /// bit-identical weights. Small batches (the online path) accumulate in
    /// place with no sharding. The model and the gradient buffer are grown
    /// to the widest row *before* any arithmetic, after which the padded
    /// operations are bit-identical to exact-width ones. Either way the rows
    /// are scored and folded a slab run at a time
    /// ([`cdp_storage::slab_runs`]): a batch cut from one chunk is one run.
    ///
    /// Returns the mean data loss of the batch *before* the update, or
    /// `None` for an empty batch (no update is performed).
    pub fn step_rows(&mut self, batch: &[RowView<'_>], engine: ExecutionEngine) -> Option<f64> {
        self.step_rows_in(batch, engine, &RunCtx::default())
    }

    /// [`SgdTrainer::step_rows`] under `ctx`: a sharded step opens a
    /// `trainer.step` span whose `engine.map` → `engine.task` children land
    /// on the worker threads computing partial gradients. Unsharded
    /// (small-batch) steps run inline and record nothing — they involve no
    /// engine dispatch to explain.
    fn step_rows_in(
        &mut self,
        batch: &[RowView<'_>],
        engine: ExecutionEngine,
        ctx: &RunCtx,
    ) -> Option<f64> {
        if batch.is_empty() {
            return None;
        }
        // Grow the model to the widest row in the batch, so every padded row
        // op below degenerates to the exact-width op (bit-identity).
        let max_dim = batch.iter().map(|r| r.dim()).max().unwrap_or(0);
        if max_dim > self.model.dim() {
            self.model.grow_to(max_dim);
        }
        let dim = self.model.dim();

        let inv_batch = 1.0 / batch.len() as f64;
        let shards = gradient_shards(batch.len());
        let total_loss = if shards == 1 {
            // Cleared already: the sweep of the step before left `g * 0.0`.
            // Covering the widest row, the fold cannot actually grow it.
            grow_to(&mut self.grad, dim);
            let mut sum = 0.0;
            for (slab, run) in slab_runs(batch) {
                let scores = &mut self.scratch.scores;
                let (model, scale) = (&self.model, Some(inv_batch));
                sum = fold_run(slab, run, model, scale, sum, scores, &mut self.grad);
            }
            sum
        } else {
            let step_span = ctx.span("trainer.step");
            let shard_len = batch.len().div_ceil(shards);
            let model = &self.model;
            let scratch = &self.scratch;
            // Shards borrow contiguous ranges of the batch directly — no
            // per-shard `Vec` of point refs — and accumulate into recycled
            // scratch partials rather than freshly allocated ones.
            let reduced = engine.try_map_reduce(
                batch.len().div_ceil(shard_len),
                |p| {
                    let shard = &batch[p * shard_len..batch.len().min((p + 1) * shard_len)];
                    let mut grad = scratch.acquire(dim);
                    let (mut loss_sum, mut scores) = (0.0, std::mem::take(&mut grad.scores));
                    for (slab, run) in slab_runs(shard) {
                        let scale = Some(inv_batch);
                        loss_sum =
                            fold_run(slab, run, model, scale, loss_sum, &mut scores, &mut grad);
                    }
                    grad.scores = scores;
                    (grad, loss_sum)
                },
                |(mut ga, la), (mut gb, lb)| {
                    ga.absorb(&mut gb);
                    scratch.release(gb);
                    (ga, la + lb)
                },
                &NoFaults,
                &ctx.child(&step_span),
            );
            let (grad, sum) = match reduced {
                Ok(Some(part)) => part,
                // Infallible: a non-empty batch yields at least one shard.
                Ok(None) => unreachable!("at least one shard for a non-empty batch"),
                Err(err) => panic!("{err}"),
            };
            self.install_gradient(grad);
            sum
        };
        self.update(None);
        self.points_seen += batch.len() as u64;
        Some(total_loss * inv_batch)
    }

    /// Consumes a stream chunk once, in mini-batches of `batch_size` — the
    /// platform's *online learning* path. The store's chunks stream straight
    /// into mini-batches without ever reconstructing a `LabeledPoint` per
    /// row (only batches of ≥ 512 rows actually shard — see
    /// [`SgdTrainer::step_rows`]).
    ///
    /// Returns the mean pre-update loss over the chunk, or `None` when the
    /// chunk is empty.
    pub fn online_pass_rows(
        &mut self,
        rows: &[RowView<'_>],
        batch_size: usize,
        engine: ExecutionEngine,
    ) -> Option<f64> {
        if rows.is_empty() {
            return None;
        }
        let batch_size = batch_size.max(1);
        let mut total = 0.0;
        let mut count = 0usize;
        for batch in rows.chunks(batch_size) {
            if let Some(loss) = self.step_rows(batch, engine) {
                total += loss * batch.len() as f64;
                count += batch.len();
            }
        }
        (count > 0).then(|| total / count as f64)
    }

    /// Multi-epoch training to convergence over an in-memory dataset — the
    /// paper's *initial training* and the periodical baseline's *retraining*
    /// — with gradient and objective evaluation on `engine`. Shard structure
    /// depends only on data/batch sizes, so every engine converges through
    /// bit-identical weight trajectories.
    ///
    /// The whole fit runs under a `trainer.fit` span (child of
    /// `ctx.parent`), and both objective evaluations plus every sharded step
    /// hang their `engine.map` trees off it. Because
    /// [`SgdTrainer::objective_rows`] always dispatches through the engine,
    /// a traced fit on a threaded engine yields a cross-thread span tree at
    /// any data size.
    pub fn fit_rows(
        &mut self,
        rows: &[RowView<'_>],
        config: &SgdConfig,
        engine: ExecutionEngine,
        ctx: &RunCtx,
    ) -> TrainReport {
        let fit_span = ctx.span("trainer.fit");
        let ctx = &ctx.child(&fit_span);
        let steps_before = self.optimizer.steps();
        // Rows may be wider than the model when the encoder's feature space
        // grew during preprocessing (one-hot vocabulary growth).
        if let Some(max_dim) = rows.iter().map(|r| r.dim()).max() {
            self.model.grow_to(max_dim);
        }
        let initial_loss = self.objective_rows(rows, engine, ctx);
        if rows.is_empty() {
            return TrainReport {
                epochs: 0,
                steps: 0,
                initial_loss,
                final_loss: initial_loss,
                converged: true,
            };
        }
        let mut rng = StdRng::seed_from_u64(config.shuffle_seed);
        let mut indices: Vec<usize> = (0..rows.len()).collect();
        let mut batch: Vec<RowView<'_>> = Vec::new();
        let mut converged = false;
        let mut epochs = 0;
        for _ in 0..config.convergence.max_epochs {
            epochs += 1;
            let weights_before = self.model.weights().clone();
            indices.shuffle(&mut rng);
            for batch_idx in indices.chunks(config.batch_size.max(1)) {
                batch.clear();
                batch.extend(batch_idx.iter().map(|&i| rows[i]));
                self.step_rows_in(&batch, engine, ctx);
            }
            // Both snapshots come from the same model, whose dimension only
            // grew before the epoch started.
            let weights_after = self.model.weights().iter();
            let delta: Vec<f64> = weights_after
                .zip(&weights_before)
                .map(|(a, b)| a - b)
                .collect();
            let denom = norm_l2(&weights_before).max(1e-12);
            if norm_l2(&delta) / denom < config.convergence.tolerance {
                converged = true;
                break;
            }
        }
        TrainReport {
            epochs,
            steps: self.optimizer.steps() - steps_before,
            initial_loss,
            final_loss: self.objective_rows(rows, engine, ctx),
            converged,
        }
    }

    /// Mean data loss plus penalty over a dataset (no update), evaluated on
    /// `engine`. Rows wider than the model score against zero weights;
    /// [`SgdTrainer::fit_rows`] grows the model before calling this.
    ///
    /// Per-shard loss sums are combined by [`ExecutionEngine::try_map_reduce`]
    /// in a shape fixed by `rows.len()`, so the value is bit-identical across
    /// engines. Unlike gradient steps this *always* goes through the engine,
    /// regardless of data size: the dispatch appears as an `engine.map`
    /// (with per-shard `engine.task` children) under `ctx.parent`.
    fn objective_rows(&self, rows: &[RowView<'_>], engine: ExecutionEngine, ctx: &RunCtx) -> f64 {
        if rows.is_empty() {
            return self.regularizer.penalty(self.model.weights());
        }
        let loss = self.model.loss();
        let weights = self.model.weights();
        let shards = gradient_shards(rows.len());
        let shard_len = rows.len().div_ceil(shards);
        // Where `Iterator::sum` starts its fold, whichever zero that is.
        let empty: f64 = std::iter::empty::<f64>().sum();
        let shard_sum = |p: usize| {
            let shard = &rows[p * shard_len..rows.len().min((p + 1) * shard_len)];
            let (mut sum, mut scores) = (empty, Vec::new());
            for (slab, run) in slab_runs(shard) {
                slab.dot_rows(run.clone(), weights, &mut scores);
                for (&z, &y) in scores.iter().zip(&slab.labels()[run]) {
                    sum += loss.value(z, y);
                }
            }
            sum
        };
        let parts = rows.len().div_ceil(shard_len);
        let mean = match engine.try_map_reduce(parts, shard_sum, |a, b| a + b, &NoFaults, ctx) {
            Ok(total) => total.unwrap_or(0.0) / rows.len() as f64,
            Err(err) => panic!("{err}"),
        };
        mean + self.regularizer.penalty(self.model.weights())
    }

    /// One fused transform+gradient SGD iteration over `n_sources` lazily
    /// streamed slab sources (the proactive re-materialization path).
    ///
    /// `access(i, sink)` must hand every slab of source `i` to `sink`, in
    /// source order — stored or just re-materialized, so neither kind
    /// reconstructs a point. The engine task for source `i` scores and folds
    /// each slab whole ([`ColumnSlab::dot_rows`], [`ColumnSlab::axpy_rows`])
    /// straight into a recycled scratch partial — no intermediate
    /// `FeatureChunk` or per-shard point buffer is ever materialized — and a
    /// partial lists the coordinates its sparse rows touched, so the step
    /// costs the sample's non-zeros plus one dense pass over the model, not
    /// `n_sources` of them.
    ///
    /// Determinism: per-source gradients accumulate *unscaled* loss
    /// derivatives (the total point count is only known after all sources
    /// ran), are combined by [`ExecutionEngine::try_map_reduce`] keyed by
    /// source index (sequentially as they come, ≤ `⌊log₂ n⌋ + 1` alive),
    /// and the summed gradient is scaled by `1/points` once at the end. Rows
    /// wider than the model score against zero weights and grow only their
    /// own partial, so parallel tasks never mutate the shared model; it
    /// grows only after the reduce. The result therefore depends on the
    /// source contents and order alone — never on worker count or steal
    /// schedule.
    ///
    /// # Errors
    /// Propagates [`EngineError`] when `hook` injects a fatal worker panic
    /// (after the engine's restart-once recovery is exhausted). The model is
    /// untouched in that case.
    pub fn try_step_fused<A>(
        &mut self,
        n_sources: usize,
        access: A,
        engine: ExecutionEngine,
        hook: &dyn FaultHook,
        ctx: &RunCtx,
    ) -> Result<FusedStepOutcome, EngineError>
    where
        A: Fn(usize, &mut dyn FnMut(&ColumnSlab)) + Sync,
    {
        if n_sources == 0 {
            return Ok(FusedStepOutcome {
                loss: None,
                points: 0,
            });
        }
        let step_span = ctx.span("trainer.step");
        let dim = self.model.dim();
        let model = &self.model;
        let scratch = &self.scratch;
        let reduced = engine.try_map_reduce(
            n_sources,
            |i| {
                let mut grad = scratch.acquire(dim);
                let (mut loss_sum, mut scores) = (0.0, std::mem::take(&mut grad.scores));
                let mut points = 0u64;
                access(i, &mut |slab: &ColumnSlab| {
                    let rows = 0..slab.len();
                    loss_sum = fold_run(slab, rows, model, None, loss_sum, &mut scores, &mut grad);
                    points += slab.len() as u64;
                });
                grad.scores = scores;
                (grad, loss_sum, points)
            },
            |(mut ga, la, na), (mut gb, lb, nb)| {
                ga.absorb(&mut gb);
                scratch.release(gb);
                (ga, la + lb, na + nb)
            },
            hook,
            &ctx.child(&step_span),
        )?;
        let (grad, loss_sum, points) = match reduced {
            Some(part) => part,
            // Infallible: `n_sources == 0` returned early above.
            None => unreachable!("at least one source"),
        };
        if points == 0 {
            self.scratch.release(grad);
            return Ok(FusedStepOutcome {
                loss: None,
                points: 0,
            });
        }
        self.install_gradient(grad);
        let inv_points = 1.0 / points as f64;
        // Only now is it safe to grow the shared model.
        self.model.grow_to(self.grad.len());
        grow_to(&mut self.grad, self.model.dim());
        self.update(Some(inv_points));
        self.points_seen += points;
        Ok(FusedStepOutcome {
            loss: Some(loss_sum * inv_points),
            points,
        })
    }

    /// Ends a step: the one pass over the model, [`OptimizerState::sweep`],
    /// which also leaves `self.grad` cleared for the next step. In place
    /// unless a published snapshot shares the weights; then out of place,
    /// into a buffer the model retired earlier ([`LinearModel::rewrite`]).
    fn update(&mut self, scale: Option<f64>) {
        let (optimizer, grad, penalty) = (&mut self.optimizer, &mut self.grad, self.regularizer);
        self.model.rewrite(&mut self.retired, |target| {
            optimizer.sweep(target, grad, scale, penalty);
        });
    }

    /// Makes a step's reduced partial the trainer's gradient and recycles
    /// the previous one, which the last sweep left cleared but not clean:
    /// any coordinate of it may be `-0.0` or NaN.
    fn install_gradient(&mut self, mut reduced: GradPartial) {
        std::mem::swap(&mut self.grad, &mut reduced.buf);
        reduced.dense = true;
        self.scratch.release(reduced);
    }

    /// Cumulative `(reused, allocated)` scratch-gradient acquisition counts,
    /// for observability (surfaced as `engine.scratch_*` histogram samples).
    pub fn scratch_counters(&self) -> (u64, u64) {
        self.scratch.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_faults::{NoFaults, WorkerOrder, MAX_WORKER_RESTARTS};
    use cdp_obs::Tracer;
    use cdp_storage::CsrBuilder;
    use proptest::prelude::*;
    use rand::RngExt;

    const SEQ: ExecutionEngine = ExecutionEngine::Sequential;

    /// A test row: a label and every coordinate of a dense row, or the
    /// entries of a sparse one (strictly increasing) under its dimension.
    #[derive(Debug, Clone)]
    enum Point {
        Dense(f64, Vec<f64>),
        Sparse(f64, usize, Vec<(u32, f64)>),
    }

    impl Point {
        fn label(&self) -> f64 {
            match self {
                Point::Dense(y, _) | Point::Sparse(y, ..) => *y,
            }
        }

        fn dim(&self) -> usize {
            match self {
                Point::Dense(_, v) => v.len(),
                Point::Sparse(_, dim, _) => *dim,
            }
        }
    }

    /// The slab the trainer's row views borrow: column slabs when every row
    /// is dense at one width, else a CSR block at the widest row's
    /// dimension, in which a dense row stores every coordinate, zeros too.
    fn slab(data: &[Point]) -> ColumnSlab {
        let dim = data.iter().map(Point::dim).max().unwrap_or(0);
        let uniform: Vec<&Vec<f64>> = data
            .iter()
            .filter_map(|p| match p {
                Point::Dense(_, v) if v.len() == dim => Some(v),
                _ => None,
            })
            .collect();
        if !data.is_empty() && uniform.len() == data.len() {
            let labels = data.iter().map(Point::label).collect();
            let column = |j| uniform.iter().map(|v| v[j]).collect();
            return ColumnSlab::dense(labels, (0..dim).map(column).collect());
        }
        let mut builder = CsrBuilder::reusing(None, dim, data.len(), 0);
        for p in data {
            let mut entries = match p {
                Point::Dense(_, v) => (0..).zip(v.iter().copied()).collect(),
                Point::Sparse(_, _, entries) => entries.clone(),
            };
            builder.push_row(p.label(), &mut entries);
        }
        builder.finish()
    }

    /// Rows of `slab` whose margin's sign is not their label.
    fn misclassified(trainer: &SgdTrainer, slab: &ColumnSlab) -> usize {
        let w = trainer.model().weights();
        let wrong = |r: &RowView<'_>| r.dot_padded(w).signum() != r.label();
        rows(slab).iter().filter(|r| wrong(r)).count()
    }

    fn rows(slab: &ColumnSlab) -> Vec<RowView<'_>> {
        (0..slab.len()).map(|i| slab.row(i)).collect()
    }

    /// Hands source `i` of `sources` to a fused step's sink.
    fn stream(sources: &[ColumnSlab]) -> impl Fn(usize, &mut dyn FnMut(&ColumnSlab)) + Sync + '_ {
        |i, sink| sink(&sources[i])
    }

    fn fit(trainer: &mut SgdTrainer, data: &[Point], config: &SgdConfig) -> TrainReport {
        trainer.fit_rows(&rows(&slab(data)), config, SEQ, &RunCtx::default())
    }

    fn make_config(loss: LossKind) -> SgdConfig {
        SgdConfig {
            loss,
            optimizer: OptimizerKind::adam(0.05),
            regularizer: Regularizer::L2(1e-4),
            batch_size: 16,
            convergence: ConvergenceCriteria {
                tolerance: 1e-5,
                max_epochs: 200,
            },
            shuffle_seed: 7,
        }
    }

    /// Linearly separable 2-D blobs (plus a bias coordinate).
    fn blobs(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let y: f64 = if rng.random::<bool>() { 1.0 } else { -1.0 };
                let x1 = 2.0 * y + rng.random_range(-0.5..0.5);
                let x2 = -y + rng.random_range(-0.5..0.5);
                Point::Dense(y, vec![x1, x2, 1.0])
            })
            .collect()
    }

    /// y = 3·x1 − 2·x2 + 1 with small noise.
    fn linear_data(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let x1: f64 = rng.random_range(-1.0..1.0);
                let x2: f64 = rng.random_range(-1.0..1.0);
                let y = 3.0 * x1 - 2.0 * x2 + 1.0 + rng.random_range(-0.01..0.01);
                Point::Dense(y, vec![x1, x2, 1.0])
            })
            .collect()
    }

    #[test]
    fn svm_separates_blobs() {
        let data = blobs(300, 1);
        let config = make_config(LossKind::Hinge);
        let mut trainer = SgdTrainer::new(3, &config);
        let report = fit(&mut trainer, &data, &config);
        assert!(report.final_loss < report.initial_loss);
        let errors = misclassified(&trainer, &slab(&data));
        assert!(
            (errors as f64) / (data.len() as f64) < 0.05,
            "error rate {}",
            errors as f64 / data.len() as f64
        );
    }

    #[test]
    fn logistic_separates_blobs() {
        let data = blobs(300, 2);
        let config = make_config(LossKind::Logistic);
        let mut trainer = SgdTrainer::new(3, &config);
        fit(&mut trainer, &data, &config);
        let errors = misclassified(&trainer, &slab(&data));
        assert!((errors as f64) / (data.len() as f64) < 0.05);
    }

    #[test]
    fn linear_regression_recovers_coefficients() {
        let data = linear_data(500, 3);
        let mut config = make_config(LossKind::Squared);
        config.optimizer = OptimizerKind::adam(0.05);
        config.regularizer = Regularizer::None;
        config.convergence.max_epochs = 400;
        let mut trainer = SgdTrainer::new(3, &config);
        let report = fit(&mut trainer, &data, &config);
        let w = trainer.model().weights();
        assert!((w[0] - 3.0).abs() < 0.1, "w0={}", w[0]);
        assert!((w[1] + 2.0).abs() < 0.1, "w1={}", w[1]);
        assert!((w[2] - 1.0).abs() < 0.1, "w2={}", w[2]);
        assert!(report.final_loss < 0.01);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let config = make_config(LossKind::Hinge);
        let mut trainer = SgdTrainer::new(3, &config);
        assert_eq!(trainer.step_rows(&[], SEQ), None);
        assert_eq!(trainer.steps(), 0);
        assert_eq!(trainer.online_pass_rows(&[], 8, SEQ), None);
    }

    #[test]
    fn step_counts_points_and_iterations() {
        let data = blobs(32, 4);
        let config = make_config(LossKind::Hinge);
        let mut trainer = SgdTrainer::new(3, &config);
        trainer.step_rows(&rows(&slab(&data[..10])), SEQ);
        assert_eq!(trainer.steps(), 1);
        assert_eq!(trainer.points_seen(), 10);
        trainer.online_pass_rows(&rows(&slab(&data)), 8, SEQ);
        assert_eq!(trainer.steps(), 1 + 4);
        assert_eq!(trainer.points_seen(), 10 + 32);
    }

    #[test]
    fn interleaved_steps_equal_contiguous_fit_steps() {
        // Conditional independence: running the same batches through
        // `step_rows` in two bursts gives the same weights as one burst.
        let data = blobs(64, 5);
        let config = make_config(LossKind::Logistic);
        let mut a = SgdTrainer::new(3, &config);
        let mut b = SgdTrainer::new(3, &config);
        let batches: Vec<&[Point]> = data.chunks(8).collect();
        for batch in &batches {
            a.step_rows(&rows(&slab(batch)), SEQ);
        }
        for batch in &batches[..4] {
            b.step_rows(&rows(&slab(batch)), SEQ);
        }
        // ... arbitrary pause (other work happens here) ...
        for batch in &batches[4..] {
            b.step_rows(&rows(&slab(batch)), SEQ);
        }
        assert_eq!(a.model().weights(), b.model().weights());
    }

    #[test]
    fn warm_start_resumes_from_state() {
        let data = blobs(200, 6);
        let config = make_config(LossKind::Hinge);
        let mut trainer = SgdTrainer::new(3, &config);
        fit(&mut trainer, &data, &config);
        let snapshot = trainer.clone();
        // Re-create from the snapshot's parts: identical behaviour.
        let mut resumed = SgdTrainer::restore(
            snapshot.model().clone(),
            snapshot.optimizer().clone(),
            snapshot.regularizer(),
            snapshot.points_seen(),
        );
        let first = slab(&data[..8]);
        let batch = rows(&first);
        let mut orig = trainer.clone();
        let l1 = orig.step_rows(&batch, SEQ);
        let l2 = resumed.step_rows(&batch, SEQ);
        assert_eq!(l1, l2);
        assert_eq!(orig.model().weights(), resumed.model().weights());
    }

    #[test]
    fn growing_feature_space_is_handled() {
        let config = make_config(LossKind::Hinge);
        let mut trainer = SgdTrainer::new(2, &config);
        let narrow = [Point::Dense(1.0, vec![1.0, 0.5])];
        trainer.step_rows(&rows(&slab(&narrow)), SEQ);
        // A wider row arrives later (new features appeared in the stream).
        let wide = [Point::Dense(-1.0, vec![0.1, 0.2, 0.9, 1.0])];
        trainer.step_rows(&rows(&slab(&wide)), SEQ);
        assert_eq!(trainer.model().dim(), 4);
    }

    #[test]
    fn fit_converges_and_reports() {
        let data = blobs(100, 8);
        let config = make_config(LossKind::Hinge);
        let mut trainer = SgdTrainer::new(3, &config);
        let report = fit(&mut trainer, &data, &config);
        assert!(report.epochs >= 1);
        assert!(report.steps >= report.epochs as u64);
        assert!(report.final_loss <= report.initial_loss);
    }

    #[test]
    fn sharded_step_is_bit_identical_across_engines() {
        // 2000 points force the sharded gradient path (≥ 512 per shard).
        let data = blobs(2000, 11);
        let config = make_config(LossKind::Logistic);
        let mut sequential = SgdTrainer::new(3, &config);
        let seq_loss = sequential
            .step_rows(&rows(&slab(&data)), SEQ)
            .expect("non-empty batch");
        for workers in [1, 2, 3, 7] {
            let mut threaded = SgdTrainer::new(3, &config);
            let thr_loss = threaded
                .step_rows(&rows(&slab(&data)), ExecutionEngine::Threaded { workers })
                .expect("non-empty batch");
            assert_eq!(
                sequential.model().weights(),
                threaded.model().weights(),
                "weights diverged at workers={workers}"
            );
            assert_eq!(seq_loss.to_bits(), thr_loss.to_bits());
        }
    }

    #[test]
    fn fit_is_bit_identical_across_engines() {
        let data = linear_data(1500, 12);
        let mut config = make_config(LossKind::Squared);
        config.batch_size = 600; // large enough to shard every step
        config.convergence.max_epochs = 5;
        let mut sequential = SgdTrainer::new(3, &config);
        let ctx = RunCtx::default();
        let report_seq = sequential.fit_rows(&rows(&slab(&data)), &config, SEQ, &ctx);
        let mut threaded = SgdTrainer::new(3, &config);
        let report_thr = threaded.fit_rows(
            &rows(&slab(&data)),
            &config,
            ExecutionEngine::Threaded { workers: 4 },
            &ctx,
        );
        assert_eq!(sequential.model().weights(), threaded.model().weights());
        assert_eq!(
            report_seq.final_loss.to_bits(),
            report_thr.final_loss.to_bits()
        );
        assert_eq!(
            report_seq.initial_loss.to_bits(),
            report_thr.initial_loss.to_bits()
        );
        assert_eq!(report_seq.epochs, report_thr.epochs);
    }

    #[test]
    fn objective_is_bit_identical_across_engines() {
        let data = blobs(3000, 13);
        let config = make_config(LossKind::Hinge);
        let mut trainer = SgdTrainer::new(3, &config);
        trainer.online_pass_rows(&rows(&slab(&data[..200])), 32, SEQ);
        let ctx = RunCtx::default();
        let seq = trainer.objective_rows(&rows(&slab(&data)), SEQ, &ctx);
        for workers in [1, 2, 5] {
            let thr = trainer.objective_rows(
                &rows(&slab(&data)),
                ExecutionEngine::Threaded { workers },
                &ctx,
            );
            assert_eq!(
                seq.to_bits(),
                thr.to_bits(),
                "objective diverged at workers={workers}"
            );
        }
    }

    #[test]
    fn fused_step_is_bit_identical_across_engines_and_reuses_scratch() {
        let data = blobs(2000, 21);
        let config = make_config(LossKind::Logistic);
        let chunks: Vec<ColumnSlab> = data.chunks(250).map(slab).collect();
        let run = |engine: ExecutionEngine| {
            let access = stream(&chunks);
            let mut t = SgdTrainer::new(3, &config);
            let first = t
                .try_step_fused(chunks.len(), &access, engine, &NoFaults, &RunCtx::default())
                .unwrap();
            let second = t
                .try_step_fused(chunks.len(), &access, engine, &NoFaults, &RunCtx::default())
                .unwrap();
            (t, first, second)
        };
        let (reference, ref_first, ref_second) = run(ExecutionEngine::Sequential);
        assert_eq!(ref_first.points, data.len() as u64);
        assert!(ref_second.loss.unwrap() < ref_first.loss.unwrap());
        // The sequential fold keeps at most ⌊log₂ 8⌋ + 1 = 4 partials alive,
        // so the cold step allocates 4 and recycles the rest as merges
        // release them; the second step runs entirely on those 4, handed out
        // as released: all-zero, nothing to reset.
        let acquires = 2 * chunks.len() as u64;
        assert_eq!(reference.scratch_counters(), (acquires - 4, 4));
        assert_pool_is_all_zero(&reference);
        for workers in [1, 2, 4, 8] {
            let (t, first, second) = run(ExecutionEngine::Threaded { workers });
            assert_eq!(
                reference.model().weights(),
                t.model().weights(),
                "fused weights diverged at workers={workers}"
            );
            assert_eq!(
                ref_first.loss.unwrap().to_bits(),
                first.loss.unwrap().to_bits()
            );
            assert_eq!(
                ref_second.loss.unwrap().to_bits(),
                second.loss.unwrap().to_bits()
            );
        }
        // Zero sources and all-empty sources are no-ops.
        let mut t = SgdTrainer::new(3, &config);
        let out = t
            .try_step_fused(
                0,
                |_, _| {},
                ExecutionEngine::Sequential,
                &NoFaults,
                &RunCtx::default(),
            )
            .unwrap();
        assert_eq!(
            out,
            FusedStepOutcome {
                loss: None,
                points: 0
            }
        );
        let out = t
            .try_step_fused(
                3,
                |_, _| {},
                ExecutionEngine::Sequential,
                &NoFaults,
                &RunCtx::default(),
            )
            .unwrap();
        assert_eq!(
            out,
            FusedStepOutcome {
                loss: None,
                points: 0
            }
        );
        assert_eq!(t.steps(), 0);
    }

    #[test]
    fn fused_step_grows_the_model_only_after_the_reduce() {
        let config = make_config(LossKind::Hinge);
        // Sources of different widths: the widest row wins, and the model
        // reaches it only after the deterministic combine.
        let narrow = [Point::Dense(1.0, vec![1.0, 0.5])];
        let wide = [Point::Dense(-1.0, vec![0.1, 0.2, 0.9, 1.0])];
        let sources = [slab(&narrow), slab(&wide)];
        let mut t = SgdTrainer::new(2, &config);
        let out = t
            .try_step_fused(
                sources.len(),
                stream(&sources),
                ExecutionEngine::Threaded { workers: 2 },
                &NoFaults,
                &RunCtx::default(),
            )
            .unwrap();
        assert_eq!(out.points, 2);
        assert_eq!(t.model().dim(), 4);
    }

    /// Every pooled partial is what `acquire` promises to hand out: `+0.0`
    /// in every coordinate (bitwise), nothing listed, not dense.
    fn assert_pool_is_all_zero(t: &SgdTrainer) {
        let pool = t.scratch.pool.lock().unwrap();
        for part in pool.iter() {
            assert!(part.buf.iter().all(|v| v.to_bits() == 0));
            assert!(part.touched.is_empty() && !part.dense);
        }
    }

    /// The URL shape of a fire: 40 stored chunks of 40 hashed rows, 28
    /// non-zeros each, at 2^16 dimensions. The sequential fold keeps at most
    /// ⌊log₂ 40⌋ + 1 = 6 partials alive, so a cold fire allocates no more
    /// than 6 model-wide buffers, a warm one none, and every buffer goes back
    /// to the pool clean.
    #[test]
    fn a_url_shaped_fire_allocates_at_most_log2_partials() {
        const DIM: usize = 1 << 16;
        let sources: Vec<ColumnSlab> = (0..40u64)
            .map(|chunk| {
                let points: Vec<Point> = (0..40u64)
                    .map(|row| {
                        let start = (chunk * 40 + row) * 37 % (DIM as u64 - 28 * 61);
                        let entries = (0..28)
                            .map(|k| ((start + k * 61) as u32, 1.0 / f64::from(k as u32 + 1)))
                            .collect();
                        let label = if row % 3 == 0 { 1.0 } else { 0.0 };
                        Point::Sparse(label, DIM, entries)
                    })
                    .collect();
                slab(&points)
            })
            .collect();
        let mut t = SgdTrainer::new(DIM, &make_config(LossKind::Logistic));
        let fire = |t: &mut SgdTrainer| {
            t.try_step_fused(40, stream(&sources), SEQ, &NoFaults, &RunCtx::default())
                .unwrap()
        };
        assert_eq!(fire(&mut t).points, 40 * 40);
        let (reused, cold) = t.scratch_counters();
        assert!(cold <= 6, "a cold fire allocated {cold} partials");
        assert_eq!(reused + cold, 40);
        assert_pool_is_all_zero(&t);
        for warm in 1..=2 {
            fire(&mut t);
            assert_eq!(t.scratch_counters(), (reused + 40 * warm, cold));
            assert_pool_is_all_zero(&t);
        }
    }

    /// The gradient reduce this module shipped before partials listed the
    /// coordinates they touch, kept as the test-only reference: one dense
    /// model-wide accumulator per source, merged full-width in the same
    /// fixed tree (the engine's, which its own tests hold to the level-wise
    /// tree). `row_scale` is `1.0` for the fused step (exact) and `1/batch`
    /// for the sharded arm of `step_rows`.
    fn dense_reference_reduce(
        model: &LinearModel,
        sources: &[Vec<RowView<'_>>],
        row_scale: f64,
    ) -> Option<(Vec<f64>, f64, u64)> {
        let loss = model.loss();
        let part = |i: usize| {
            let mut grad = vec![0.0; model.dim()];
            let mut loss_sum = 0.0;
            for row in &sources[i] {
                let z = row.dot_padded(model.weights());
                loss_sum += loss.value(z, row.label());
                let coeff = loss.dloss_dz(z, row.label()) * row_scale;
                if coeff != 0.0 {
                    row.axpy_into_growing(coeff, &mut grad);
                }
            }
            (grad, loss_sum, sources[i].len() as u64)
        };
        type Part = (Vec<f64>, f64, u64);
        let merge = |(mut ga, la, na): Part, (mut gb, lb, nb): Part| {
            let width = ga.len().max(gb.len());
            grow_to(&mut ga, width);
            grow_to(&mut gb, width);
            for (a, b) in ga.iter_mut().zip(&gb) {
                *a += b;
            }
            (ga, la + lb, na + nb)
        };
        SEQ.try_map_reduce(sources.len(), part, merge, &NoFaults, &RunCtx::default())
            .unwrap()
    }

    /// The tail of a step as it shipped before `OptimizerState::sweep`: the
    /// penalty's pass over `t.grad`, then the optimizer's.
    fn reference_update(t: &mut SgdTrainer) {
        t.regularizer
            .reference_add_gradient(t.model.weights(), &mut t.grad);
        let mut weights = t.model.weights().clone();
        t.optimizer.reference_apply(&mut weights, &t.grad);
        t.model = LinearModel::with_weights(weights, t.model.loss());
    }

    /// `step_rows` as it shipped before the sweep: the unsharded arm clears
    /// the gradient buffer with a pass of its own, the sharded one sits on
    /// [`dense_reference_reduce`], and both end in [`reference_update`].
    fn reference_step_rows(t: &mut SgdTrainer, batch: &[RowView<'_>]) -> Option<f64> {
        if batch.is_empty() {
            return None;
        }
        let max_dim = batch.iter().map(|r| r.dim()).max().unwrap_or(0);
        t.model.grow_to(max_dim);
        let loss = t.model.loss();
        let inv_batch = 1.0 / batch.len() as f64;
        let shards = gradient_shards(batch.len());
        let total_loss = if shards == 1 {
            grow_to(&mut t.grad, t.model.dim());
            t.grad.iter_mut().for_each(|g| *g *= 0.0);
            let mut sum = 0.0;
            for row in batch {
                let z = row.dot_padded(t.model.weights());
                sum += loss.value(z, row.label());
                let coeff = loss.dloss_dz(z, row.label()) * inv_batch;
                if coeff != 0.0 {
                    row.axpy_into_growing(coeff, &mut t.grad);
                }
            }
            sum
        } else {
            let shard_len = batch.len().div_ceil(shards);
            let shards: Vec<Vec<RowView<'_>>> =
                batch.chunks(shard_len).map(<[_]>::to_vec).collect();
            let (grad, sum, _) = dense_reference_reduce(&t.model, &shards, inv_batch)?;
            t.grad = grad;
            sum
        };
        reference_update(t);
        t.points_seen += batch.len() as u64;
        Some(total_loss * inv_batch)
    }

    /// The fused step on top of [`dense_reference_reduce`].
    fn dense_reference_fused(t: &mut SgdTrainer, sources: &[Vec<RowView<'_>>]) -> FusedStepOutcome {
        let reduced = dense_reference_reduce(&t.model, sources, 1.0);
        let Some((grad, loss_sum, points)) = reduced.filter(|part| part.2 > 0) else {
            return FusedStepOutcome {
                loss: None,
                points: 0,
            };
        };
        let inv_points = 1.0 / points as f64;
        t.grad = grad;
        t.grad.iter_mut().for_each(|g| *g *= inv_points);
        t.model.grow_to(t.grad.len());
        reference_update(t);
        t.points_seen += points;
        FusedStepOutcome {
            loss: Some(loss_sum * inv_points),
            points,
        }
    }

    fn step_fused(
        t: &mut SgdTrainer,
        sources: &[ColumnSlab],
        engine: ExecutionEngine,
        hook: &dyn FaultHook,
    ) -> Result<FusedStepOutcome, EngineError> {
        t.try_step_fused(
            sources.len(),
            stream(sources),
            engine,
            hook,
            &RunCtx::default(),
        )
    }

    /// A float's bit pattern, with every NaN read as the same one: which
    /// payload an operation on two NaNs keeps is the code generator's choice.
    fn float_bits(x: f64) -> u64 {
        if x.is_nan() {
            f64::NAN.to_bits()
        } else {
            x.to_bits()
        }
    }

    /// Everything a step decides, bit for bit: weights (and so the model
    /// dimension), the optimizer's accumulators and clock, the point count.
    fn state_bits(t: &SgdTrainer) -> (Vec<u64>, u64, Vec<u64>, Vec<u64>, u64) {
        let bits = |v: &[f64]| v.iter().copied().map(float_bits).collect();
        let (_, clock, acc1, acc2) = t.optimizer.to_parts();
        (
            bits(t.model.weights()),
            clock,
            bits(acc1),
            bits(acc2),
            t.points_seen,
        )
    }

    /// Model dimension of the differential cases: small, so sources collide
    /// on coordinates, cancel exactly and list coordinates twice.
    const CASE_DIM: usize = 12;

    /// Row values of the differential cases: `-0.0`, `0.0` and exact opposites.
    const PALETTE: [f64; 8] = [1.0, -1.0, 0.5, -0.5, 2.0, 0.0, -0.0, 0.25];

    fn palette_value(rng: &mut StdRng) -> f64 {
        PALETTE[rng.random_range(0..PALETTE.len())]
    }

    fn class_label(rng: &mut StdRng) -> f64 {
        if rng.random::<bool>() {
            1.0
        } else {
            -1.0
        }
    }

    fn sparse_row(rng: &mut StdRng, dim: usize) -> Point {
        let indices: Vec<u32> = (0..dim as u32).filter(|_| rng.random::<bool>()).collect();
        let entries = indices
            .into_iter()
            .map(|i| (i, palette_value(rng)))
            .collect();
        Point::Sparse(class_label(rng), dim, entries)
    }

    fn dense_row(rng: &mut StdRng, dim: usize) -> Point {
        let values: Vec<f64> = (0..dim).map(|_| palette_value(rng)).collect();
        Point::Dense(class_label(rng), values)
    }

    /// A random source: sparse rows (a CSR slab), dense rows (a dense slab),
    /// a mix of both (CSR with the dense rows' coordinates explicit) or
    /// nothing; its rows narrower than, as wide as or wider than the model.
    fn case_source(rng: &mut StdRng) -> ColumnSlab {
        let n_rows = rng.random_range(0..5);
        let dim = [CASE_DIM - 4, CASE_DIM, CASE_DIM, CASE_DIM + 5][rng.random_range(0..4usize)];
        let kind = rng.random_range(0..5);
        let points: Vec<Point> = (0..n_rows)
            .map(|_| match kind {
                0 | 1 => sparse_row(rng, dim),
                2 | 3 => dense_row(rng, dim),
                _ if rng.random::<bool>() => sparse_row(rng, dim),
                _ => dense_row(rng, dim + 1),
            })
            .collect();
        slab(&points)
    }

    /// One to six [`case_source`]s.
    fn case_sources(rng: &mut StdRng) -> Vec<ColumnSlab> {
        let n_sources = rng.random_range(1..7);
        (0..n_sources).map(|_| case_source(rng)).collect()
    }

    /// A trainer with non-zero weights, so hinge margins are satisfied on
    /// some rows (zero coefficient: the row must touch nothing).
    fn case_trainer(rng: &mut StdRng, loss: LossKind, optimizer: OptimizerKind) -> SgdTrainer {
        let weights: Vec<f64> = (0..CASE_DIM).map(|_| rng.random_range(-1.0..1.0)).collect();
        SgdTrainer::restore(
            LinearModel::with_weights(weights, loss),
            OptimizerState::new(optimizer, CASE_DIM),
            Regularizer::L2(1e-3),
            0,
        )
    }

    proptest! {
        /// The shipped fused step is bit-identical to the dense reference on
        /// every engine, twice in a row on one trainer: a coordinate a
        /// recycled partial kept from the first step would show in the second.
        #[test]
        fn fused_step_matches_the_dense_reference(
            seed in 0u64..u64::MAX,
            loss in prop_oneof![
                Just(LossKind::Hinge),
                Just(LossKind::Logistic),
                Just(LossKind::Squared)
            ],
            optimizer in prop_oneof![
                Just(OptimizerKind::adam(0.05)),
                Just(OptimizerKind::Constant { eta: 0.1 })
            ],
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let start = case_trainer(&mut rng, loss, optimizer);
            let steps = [case_sources(&mut rng), case_sources(&mut rng)];
            let mut reference = start.clone();
            let expected: Vec<_> = steps
                .iter()
                .map(|sources| {
                    let sources: Vec<_> = sources.iter().map(rows).collect();
                    let out = dense_reference_fused(&mut reference, &sources);
                    (out.loss.map(f64::to_bits), out.points, state_bits(&reference))
                })
                .collect();
            for workers in [0, 1, 2, 3, 8] {
                let engine = match workers {
                    0 => ExecutionEngine::Sequential,
                    workers => ExecutionEngine::Threaded { workers },
                };
                let mut shipped = start.clone();
                for (sources, expected) in steps.iter().zip(&expected) {
                    let out = step_fused(&mut shipped, sources, engine, &NoFaults).unwrap();
                    let got = (out.loss.map(f64::to_bits), out.points, state_bits(&shipped));
                    prop_assert_eq!(&got, expected, "engine {}", engine.name());
                    assert_pool_is_all_zero(&shipped);
                }
            }
        }
    }

    #[test]
    fn sharded_sparse_step_matches_the_dense_reference() {
        // 2100 sparse rows at 300 dims: 4 shards, each touching a fraction
        // of the coordinates, with opposite-label duplicates cancelling.
        let mut rng = StdRng::seed_from_u64(31);
        let data: Vec<Point> = (0..2100)
            .map(|_| {
                let indices = (0..300).filter(|_| rng.random_range(0..30) == 0);
                let entries = indices.map(|i| (i, 1.0)).collect();
                let y = if rng.random::<bool>() { 1.0 } else { -1.0 };
                Point::Sparse(y, 300, entries)
            })
            .collect();
        let data = slab(&data);
        let batch = rows(&data);
        let config = make_config(LossKind::Hinge);
        let mut reference = SgdTrainer::new(300, &config);
        let mut shipped = reference.clone();
        for _ in 0..2 {
            let expected = reference_step_rows(&mut reference, &batch).unwrap();
            for engine in [SEQ, ExecutionEngine::Threaded { workers: 3 }] {
                let mut t = shipped.clone();
                let loss = t.step_rows(&batch, engine).unwrap();
                assert_eq!(loss.to_bits(), expected.to_bits());
                assert_eq!(state_bits(&t), state_bits(&reference), "{engine:?}");
            }
            // Carry the pool into the second step, not a clone's empty one.
            shipped.step_rows(&batch, SEQ);
            assert_pool_is_all_zero(&shipped);
        }
    }

    /// One operation of a sweep case, owning what its row views borrow.
    enum CaseOp {
        /// `step_rows` below the sharding threshold — an empty batch included.
        Unsharded(ColumnSlab),
        /// `step_rows` on a batch wide enough for two shards.
        Sharded(ColumnSlab),
        /// `try_step_fused`, some sources wider or narrower than the model.
        Fused(Vec<ColumnSlab>),
        /// The model grown from outside by this much, as a wider query does,
        /// so that the next gradient is the narrower of the two.
        GrowModel(usize),
        /// The trainer rebuilt from its own `to_parts()`, as a resume does.
        Restore,
    }

    fn case_op(rng: &mut StdRng) -> CaseOp {
        match rng.random_range(0..10) {
            0..=3 => CaseOp::Unsharded(case_source(rng)),
            4 => {
                let n_rows = 2 * GRAD_SHARD_MIN_POINTS + rng.random_range(0..40usize);
                let dim = CASE_DIM + rng.random_range(0..3usize);
                let points: Vec<Point> = (0..n_rows).map(|_| sparse_row(rng, dim)).collect();
                CaseOp::Sharded(slab(&points))
            }
            5..=7 => CaseOp::Fused(case_sources(rng)),
            8 => CaseOp::GrowModel(rng.random_range(1..4)),
            _ => CaseOp::Restore,
        }
    }

    /// Runs `op` on `t` — through the shipped entry points on `engine`, or
    /// through the three-pass reference when there is none — and returns
    /// what the caller of a step sees: the loss's bits and the point count.
    fn run_case_op(
        t: &mut SgdTrainer,
        op: &CaseOp,
        engine: Option<ExecutionEngine>,
    ) -> (Option<u64>, u64) {
        match op {
            CaseOp::Unsharded(source) | CaseOp::Sharded(source) => {
                let batch = rows(source);
                let loss = match engine {
                    Some(engine) => t.step_rows(&batch, engine),
                    None => reference_step_rows(t, &batch),
                };
                (loss.map(float_bits), batch.len() as u64)
            }
            CaseOp::Fused(sources) => {
                let out = match engine {
                    Some(engine) => step_fused(t, sources, engine, &NoFaults).unwrap(),
                    None => dense_reference_fused(t, &sources.iter().map(rows).collect::<Vec<_>>()),
                };
                (out.loss.map(float_bits), out.points)
            }
            CaseOp::GrowModel(by) => {
                let dim = t.model.dim() + *by;
                t.model_mut().grow_to(dim);
                (None, 0)
            }
            CaseOp::Restore => {
                let (kind, clock, acc1, acc2) = t.optimizer.to_parts();
                let optimizer = OptimizerState::from_parts(kind, clock, acc1.clone(), acc2.clone());
                *t = SgdTrainer::restore(t.model.clone(), optimizer, t.regularizer, t.points_seen);
                (None, 0)
            }
        }
    }

    /// A trainer in mid-run: weights with `-0.0`, zeros and subnormals small
    /// enough for `λ·w` to underflow to `-0.0` among them, the optimizer's
    /// clock at `clock`, its accumulators filled, and in one case out of
    /// four an infinity or a NaN planted in one of them.
    fn sweep_case_trainer(
        rng: &mut StdRng,
        optimizer: OptimizerKind,
        regularizer: Regularizer,
        clock: u64,
    ) -> SgdTrainer {
        const WEIGHTS: [f64; 6] = [-0.0, 0.0, 5e-324, -5e-324, -1e-310, 1e-310];
        const SPECIALS: [f64; 3] = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let weights = (0..CASE_DIM)
            .map(|_| match rng.random_range(0..2 * WEIGHTS.len()) {
                i if i < WEIGHTS.len() => WEIGHTS[i],
                _ => rng.random_range(-1.0..1.0),
            })
            .collect();
        // First accumulators are signed (momentum, Adam's m) or second
        // moments like the others; the rules hold for either.
        let fresh = OptimizerState::new(optimizer, CASE_DIM);
        let (_, _, acc1, acc2) = fresh.to_parts();
        let mut acc1: Vec<f64> = acc1.iter().map(|_| rng.random_range(-0.5..1.0)).collect();
        let mut acc2: Vec<f64> = acc2.iter().map(|_| rng.random_range(0.0..1.0)).collect();
        if rng.random_range(0..4) == 0 {
            let special = SPECIALS[rng.random_range(0..SPECIALS.len())];
            let acc = if rng.random::<bool>() {
                &mut acc1
            } else {
                &mut acc2
            };
            if !acc.is_empty() {
                let at = rng.random_range(0..acc.len());
                acc[at] = special;
            }
        }
        let losses = [LossKind::Hinge, LossKind::Logistic, LossKind::Squared];
        SgdTrainer::restore(
            LinearModel::with_weights(weights, losses[rng.random_range(0..losses.len())]),
            OptimizerState::from_parts(optimizer, clock, acc1, acc2),
            regularizer,
            0,
        )
    }

    proptest! {
        /// The one-sweep step is bit-identical to the three passes it
        /// replaced — through all three entry points, for every update rule
        /// and penalty, on both engines — over sequences that start on either
        /// side of the step where Adam's first bias correction becomes
        /// exactly 1.0 and run across it. Every operation is compared, so
        /// what one step left in the gradient buffer (the signed zeros the
        /// next unsharded step sums on top of) shows in the next.
        #[test]
        fn sweep_matches_the_three_pass_reference(seed in 0u64..u64::MAX) {
            const CLOCKS: [u64; 8] = [0, 352, 353, 354, 355, 356, 357, 40_000];
            let penalties = [Regularizer::None, Regularizer::L2(1e-3), Regularizer::L1(1e-3)];
            let mut rng = StdRng::seed_from_u64(seed);
            for optimizer in OptimizerKind::test_cases() {
                for penalty in penalties {
                    let clock = CLOCKS[rng.random_range(0..CLOCKS.len())];
                    let start = sweep_case_trainer(&mut rng, optimizer, penalty, clock);
                    let ops: Vec<CaseOp> = (0..8).map(|_| case_op(&mut rng)).collect();
                    let mut reference = start.clone();
                    let expected: Vec<_> = ops
                        .iter()
                        .map(|op| (run_case_op(&mut reference, op, None), state_bits(&reference)))
                        .collect();
                    for engine in [SEQ, ExecutionEngine::Threaded { workers: 3 }] {
                        let mut shipped = start.clone();
                        for (i, (op, expected)) in ops.iter().zip(&expected).enumerate() {
                            let got = (run_case_op(&mut shipped, op, Some(engine)), state_bits(&shipped));
                            prop_assert_eq!(
                                &got,
                                expected,
                                "{:?} + {:?} from step {}, operation {} on {}",
                                optimizer,
                                penalty,
                                clock,
                                i,
                                engine.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_negative_gradient_leaves_its_sign_on_the_zero_the_next_step_starts_from() {
        // Random cases do not get here, so by hand: coordinate 1 takes a
        // gradient of -5e-324 in the first step — too small to move a first
        // accumulator resting at -0.0 (its share underflows to -0.0) — and
        // no row in the second, whose gradient there is then the zero the
        // buffer was left at (plus an L2 term that underflows to -0.0). Left
        // at `g * 0.0 = -0.0`, as the clearing pass of old left it, the
        // accumulator stays -0.0; left at `+0.0`, it would turn +0.0.
        let tiny = f64::from_bits(1);
        let point = |entries| Point::Sparse(1.0, 2, entries);
        let first = vec![point(vec![(0, 1.0), (1, tiny)])];
        let second = CaseOp::Unsharded(slab(&[point(vec![(0, 1.0)])]));
        let momentum = OptimizerKind::Momentum {
            eta: 0.05,
            gamma: 0.9,
        };
        for optimizer in [momentum, OptimizerKind::adam(0.05)] {
            for (penalty, w1) in [(Regularizer::None, 0.25), (Regularizer::L2(1e-3), -tiny)] {
                for first in [
                    CaseOp::Unsharded(slab(&first)),
                    CaseOp::Fused(vec![slab(&first)]),
                ] {
                    let fresh = OptimizerState::new(optimizer, 2);
                    let acc2 = vec![1.0; fresh.to_parts().3.len()];
                    let acc1 = vec![0.0, -0.0];
                    let mut shipped = SgdTrainer::restore(
                        LinearModel::with_weights(vec![0.0, w1], LossKind::Hinge),
                        OptimizerState::from_parts(optimizer, 0, acc1, acc2),
                        penalty,
                        0,
                    );
                    let mut reference = shipped.clone();
                    for op in [&first, &second] {
                        run_case_op(&mut shipped, op, Some(SEQ));
                        run_case_op(&mut reference, op, None);
                    }
                    let fused = matches!(first, CaseOp::Fused(_));
                    let case = format!("{optimizer:?} + {penalty:?}, fused first: {fused}");
                    assert_eq!(state_bits(&shipped), state_bits(&reference), "{case}");
                    let (_, _, acc1, _) = shipped.optimizer.to_parts();
                    assert_eq!(acc1[1].to_bits(), (-0.0f64).to_bits(), "{case}");
                }
            }
        }
    }

    #[test]
    fn predictions_and_objective_score_slabs_as_rows_score_alone() {
        // An arrival's predictions are `margin_row` row by row, the model
        // grown the same way, and the online pass after them is the reference
        // step over each batch the chunk is cut into: one row, three rows or
        // the whole chunk at a time, on either engine, with a chunk of two
        // shards in every eighth case. The objective is the `Iterator::sum`
        // of the row losses, whether its rows come as whole slabs or shuffled.
        let mut rng = StdRng::seed_from_u64(17);
        for case in 0..64 {
            let sources = case_sources(&mut rng);
            let sharded = (case % 8 == 0).then(|| {
                let n_rows = 2 * GRAD_SHARD_MIN_POINTS + rng.random_range(0..40usize);
                let dim = CASE_DIM + rng.random_range(0..3usize);
                let points: Vec<Point> = (0..n_rows).map(|_| sparse_row(&mut rng, dim)).collect();
                slab(&points)
            });
            let loss = [LossKind::Hinge, LossKind::Logistic, LossKind::Squared]
                [rng.random_range(0..3usize)];
            let batch_size = [1, 3, usize::MAX][rng.random_range(0..3usize)];
            let engines = [SEQ, ExecutionEngine::Threaded { workers: 2 }];
            let engine = engines[rng.random_range(0..2usize)];
            let mut t = case_trainer(&mut rng, loss, OptimizerKind::adam(0.05));
            let mut reference = t.clone();
            for slab in sources.iter().chain(&sharded) {
                let chunk = rows(slab);
                let expected: Vec<(u64, u64)> = chunk
                    .iter()
                    .map(|&r| {
                        let z = reference.model_mut().margin_row(r);
                        (float_bits(z), r.label().to_bits())
                    })
                    .collect();
                for batch in chunk.chunks(batch_size) {
                    reference_step_rows(&mut reference, batch);
                }
                let mut got = Vec::new();
                t.score_slab(slab, |z, y| got.push((float_bits(z), y.to_bits())));
                assert_eq!(got, expected);
                t.online_pass_rows(&chunk, batch_size, engine);
                assert_eq!(state_bits(&t), state_bits(&reference), "case {case}");
            }
            let mut batch: Vec<RowView<'_>> = sources.iter().flat_map(rows).collect();
            for _ in 0..2 {
                let w = t.model().weights();
                let sum: f64 = batch
                    .iter()
                    .map(|r| loss.value(r.dot_padded(w), r.label()))
                    .sum();
                let expected = match batch.len() {
                    0 => t.regularizer.penalty(w),
                    n => sum / n as f64 + t.regularizer.penalty(w),
                };
                let got = t.objective_rows(&batch, SEQ, &RunCtx::default());
                assert_eq!(float_bits(got), float_bits(expected));
                batch.shuffle(&mut rng);
            }
        }
    }

    /// A hook whose every worker order exceeds the engine's restart budget.
    #[derive(Debug)]
    struct FatalPanic;

    impl FaultHook for FatalPanic {
        fn next_worker_order(&self) -> WorkerOrder {
            WorkerOrder {
                panics: MAX_WORKER_RESTARTS + 1,
                ..Default::default()
            }
        }
    }

    #[test]
    fn pooled_partials_are_all_zero_after_every_kind_of_step() {
        let mut rng = StdRng::seed_from_u64(5);
        let views = case_sources(&mut rng);
        let empty = vec![slab(&[]); 3];
        let sparse = slab(&[Point::Sparse(1.0, CASE_DIM, vec![(1, 2.0), (7, -1.0)])]);
        for engine in [SEQ, ExecutionEngine::Threaded { workers: 2 }] {
            let mut t = case_trainer(&mut rng, LossKind::Logistic, OptimizerKind::adam(0.05));
            // The pool clears a partial released as it was accumulated (the
            // steps only release ones a merge has already drained).
            let mut part = t.scratch.acquire(CASE_DIM);
            part.add_row(0.5, sparse.row(0));
            assert_eq!(part.touched, [1, 7]);
            t.scratch.release(part);
            assert_pool_is_all_zero(&t);
            // A normal step (sparse and dense sources), twice to recycle.
            for _ in 0..2 {
                assert!(
                    step_fused(&mut t, &views, engine, &NoFaults)
                        .unwrap()
                        .points
                        > 0
                );
                assert_pool_is_all_zero(&t);
            }
            // The all-sources-empty early return.
            assert_eq!(
                step_fused(&mut t, &empty, engine, &NoFaults)
                    .unwrap()
                    .points,
                0
            );
            assert_pool_is_all_zero(&t);
            // An injected fatal worker panic: the step fails, the model is
            // untouched, and whatever reached the pool is clean.
            let before = state_bits(&t);
            assert!(step_fused(&mut t, &views, engine, &FatalPanic).is_err());
            assert_eq!(state_bits(&t), before);
            assert_pool_is_all_zero(&t);
            assert!(
                step_fused(&mut t, &views, engine, &NoFaults)
                    .unwrap()
                    .points
                    > 0
            );
            assert_pool_is_all_zero(&t);
        }
    }

    #[test]
    fn traced_fit_is_bit_identical_and_builds_a_span_tree() {
        let data = linear_data(1500, 14);
        let mut config = make_config(LossKind::Squared);
        config.batch_size = 1100; // ≥ 2·GRAD_SHARD_MIN_POINTS ⇒ sharded steps
        config.convergence.max_epochs = 3;
        let engine = ExecutionEngine::Threaded { workers: 2 };

        let mut plain = SgdTrainer::new(3, &config);
        let report_plain = plain.fit_rows(&rows(&slab(&data)), &config, engine, &RunCtx::default());

        let tracer = Tracer::collecting();
        let ctx = RunCtx {
            tracer: tracer.clone(),
            ..RunCtx::default()
        };
        let mut traced = SgdTrainer::new(3, &config);
        let report_traced = traced.fit_rows(&rows(&slab(&data)), &config, engine, &ctx);

        // Tracing must not perturb training in any way.
        assert_eq!(plain.model().weights(), traced.model().weights());
        assert_eq!(
            report_plain.final_loss.to_bits(),
            report_traced.final_loss.to_bits()
        );

        let snap = tracer.snapshot();
        snap.validate().unwrap();
        assert_eq!(snap.span_count("trainer.fit"), 1);
        assert!(snap.span_count("trainer.step") >= 1);
        // Two objective maps plus one per sharded step.
        assert!(snap.span_count("engine.map") >= 3);
        assert!(snap.crosses_threads());
        let fit = snap.roots()[0];
        assert_eq!(fit.name, "trainer.fit");
        for step in snap.spans.iter().filter(|s| s.name == "trainer.step") {
            assert_eq!(snap.parent_name(step), Some("trainer.fit"));
        }
    }

    #[test]
    fn regularization_shrinks_weights() {
        let data = linear_data(200, 9);
        let mut weak = make_config(LossKind::Squared);
        weak.regularizer = Regularizer::None;
        let mut strong = weak;
        strong.regularizer = Regularizer::L2(1.0);
        let mut t_weak = SgdTrainer::new(3, &weak);
        let mut t_strong = SgdTrainer::new(3, &strong);
        fit(&mut t_weak, &data, &weak);
        fit(&mut t_strong, &data, &strong);
        assert!(norm_l2(t_strong.model().weights()) < norm_l2(t_weak.model().weights()));
    }
}
