//! Per-coordinate adaptive learning rates (paper §2.1 "Learning Rate").
//!
//! The platform's proactive trainer "utilizes advanced learning rate
//! adaptation techniques such as Adam, Rmsprop, and AdaDelta to dynamically
//! adjust the learning rate parameter" (paper §4.4). The optimizer state —
//! step counter and the first/second moment accumulators — is the part of
//! SGD that, together with the weights, makes iterations conditionally
//! independent; it is serializable so it can be warm-started across
//! retrainings (TFX-style) and carried across proactive-training instances.

use std::iter::repeat;

use crate::model::grow_to;
use crate::regularizer::Regularizer;

/// The learning-rate adaptation technique and its hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerKind {
    /// Fixed learning rate `η`.
    Constant {
        /// The learning rate.
        eta: f64,
    },
    /// Inverse scaling `η_t = η₀ / (1 + t)^power` — the paper's "trivial
    /// approach" of decaying a small initial rate.
    InvScaling {
        /// Initial learning rate.
        eta0: f64,
        /// Decay exponent (0.5 is a common choice).
        power: f64,
    },
    /// Classical momentum (Qian, 1999): `u_t = γ·u_{t−1} + η·g_t`.
    Momentum {
        /// The learning rate.
        eta: f64,
        /// Momentum coefficient γ ∈ [0, 1).
        gamma: f64,
    },
    /// Adam (Kingma & Ba, 2014) with bias correction.
    Adam {
        /// Step size α.
        eta: f64,
        /// Exponential decay for the first moment.
        beta1: f64,
        /// Exponential decay for the second moment.
        beta2: f64,
        /// Numerical-stability constant.
        eps: f64,
    },
    /// RMSProp (Tieleman & Hinton, 2012).
    RmsProp {
        /// Step size.
        eta: f64,
        /// Decay of the squared-gradient average.
        decay: f64,
        /// Numerical-stability constant.
        eps: f64,
    },
    /// AdaDelta (Zeiler, 2012) — no explicit learning rate.
    AdaDelta {
        /// Decay of the running averages.
        decay: f64,
        /// Numerical-stability constant.
        eps: f64,
    },
}

impl OptimizerKind {
    /// Adam with the usual defaults (η=0.001 scaled by caller, β₁=0.9,
    /// β₂=0.999, ε=1e-8).
    pub fn adam(eta: f64) -> Self {
        OptimizerKind::Adam {
            eta,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }

    /// RMSProp with the usual defaults (decay 0.9, ε=1e-8).
    pub fn rmsprop(eta: f64) -> Self {
        OptimizerKind::RmsProp {
            eta,
            decay: 0.9,
            eps: 1e-8,
        }
    }

    /// AdaDelta with the usual defaults (decay 0.95, ε=1e-6).
    pub fn adadelta() -> Self {
        OptimizerKind::AdaDelta {
            decay: 0.95,
            eps: 1e-6,
        }
    }

    /// Short display name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            OptimizerKind::Constant { .. } => "Constant",
            OptimizerKind::InvScaling { .. } => "InvScaling",
            OptimizerKind::Momentum { .. } => "Momentum",
            OptimizerKind::Adam { .. } => "Adam",
            OptimizerKind::RmsProp { .. } => "RMSProp",
            OptimizerKind::AdaDelta { .. } => "Adadelta",
        }
    }
}

/// Applies gradients to weights with per-coordinate adaptation.
pub trait AdaptiveRate {
    /// Performs one update `w ← w − Δ(g)` in place.
    fn apply(&mut self, weights: &mut [f64], grad: &[f64]);

    /// Grows internal per-coordinate state to cover `dim` coordinates.
    fn grow_to(&mut self, dim: usize);

    /// Number of updates applied so far.
    fn steps(&self) -> u64;
}

/// The state of an adaptive optimizer: step counter plus up to two
/// per-coordinate moment accumulators.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizerState {
    kind: OptimizerKind,
    t: u64,
    /// First accumulator: momentum buffer / Adam m / AdaDelta E[g²].
    acc1: Vec<f64>,
    /// Second accumulator: Adam v / RMSProp E[g²] / AdaDelta E[Δ²].
    acc2: Vec<f64>,
}

impl OptimizerState {
    /// Creates fresh state for `dim` coordinates.
    pub fn new(kind: OptimizerKind, dim: usize) -> Self {
        let (need1, need2) = Self::needs(kind);
        Self {
            kind,
            t: 0,
            acc1: vec![0.0; if need1 { dim } else { 0 }],
            acc2: vec![0.0; if need2 { dim } else { 0 }],
        }
    }

    fn needs(kind: OptimizerKind) -> (bool, bool) {
        match kind {
            OptimizerKind::Constant { .. } | OptimizerKind::InvScaling { .. } => (false, false),
            OptimizerKind::Momentum { .. } => (true, false),
            OptimizerKind::Adam { .. }
            | OptimizerKind::RmsProp { .. }
            | OptimizerKind::AdaDelta { .. } => (true, true),
        }
    }

    /// The configured technique.
    pub fn kind(&self) -> OptimizerKind {
        self.kind
    }

    /// Decomposes the state into `(kind, t, acc1, acc2)` for checkpointing.
    pub fn to_parts(&self) -> (OptimizerKind, u64, &Vec<f64>, &Vec<f64>) {
        (self.kind, self.t, &self.acc1, &self.acc2)
    }

    /// Rebuilds state from checkpointed parts — the exact inverse of
    /// [`OptimizerState::to_parts`], so a restored optimizer continues the
    /// same adaptive-rate trajectory.
    pub fn from_parts(kind: OptimizerKind, t: u64, acc1: Vec<f64>, acc2: Vec<f64>) -> Self {
        Self {
            kind,
            t,
            acc1,
            acc2,
        }
    }

    /// One SGD update as a single pass over the model. Per coordinate, in
    /// this order: take the accumulated data gradient from `grad`, multiply
    /// it by `scale` if there is one, add `penalty`'s (sub)gradient at the
    /// *pre-update* weight, run the update rule, and leave `g * 0.0` in
    /// `grad` — what a `scale(0.0)` before the next accumulation would have
    /// produced, the sign of a zero and a NaN carried — so the caller sums
    /// the next step's gradient on top without clearing first. Out of place,
    /// a coordinate's destination first takes the pre-update weight, so both
    /// targets run the same expressions on the same values.
    ///
    /// Total for any pair of dimensions: it covers the coordinates the
    /// weights and `grad` share (out of place, `dst` takes the rest of `src`
    /// it has room for). The trainer always passes equal ones.
    pub(crate) fn sweep(
        &mut self,
        target: SweepTarget<'_>,
        grad: &mut [f64],
        scale: Option<f64>,
        penalty: Regularizer,
    ) {
        self.grow_to(grad.len());
        match target {
            SweepTarget::InPlace(weights) => {
                let coords = weights.iter_mut().zip(grad).map(|(w, slot)| (*w, w, slot));
                self.sweep_scaled(coords, scale, penalty);
            }
            SweepTarget::OutOfPlace { src, dst } => {
                let past_grad = src.iter().zip(dst.iter_mut()).skip(grad.len());
                past_grad.for_each(|(s, d)| *d = *s);
                let coords = src.iter().zip(dst).zip(grad);
                self.sweep_scaled(coords.map(|((&s, d), slot)| (s, d, slot)), scale, penalty);
            }
        }
    }

    /// [`OptimizerState::sweep`] with the target resolved; the scale is
    /// resolved here, so that no loop branches on it.
    fn sweep_scaled<'a>(
        &mut self,
        coords: impl Iterator<Item = Coord<'a>>,
        scale: Option<f64>,
        penalty: Regularizer,
    ) {
        match scale {
            None => self.sweep_penalized(coords, penalty, |g| g),
            Some(s) => self.sweep_penalized(coords, penalty, move |g| g * s),
        }
    }

    /// [`OptimizerState::sweep_scaled`] with the scale resolved; the penalty
    /// is resolved here in turn.
    fn sweep_penalized<'a>(
        &mut self,
        coords: impl Iterator<Item = Coord<'a>>,
        penalty: Regularizer,
        scaled: impl Fn(f64) -> f64,
    ) {
        match penalty {
            Regularizer::None => self.sweep_with(coords, |g, _| scaled(g)),
            Regularizer::L2(lambda) => {
                self.sweep_with(coords, |g, w| scaled(g) + lambda * w);
            }
            Regularizer::L1(lambda) => self.sweep_with(coords, |g, w| {
                scaled(g) + lambda * w.signum() * f64::from(w != 0.0)
            }),
        }
    }

    /// The update rules, each once. `gradient(slot, w)` is the step's full
    /// gradient at one coordinate, from its buffer slot and pre-update weight.
    fn sweep_with<'a>(
        &mut self,
        coords: impl Iterator<Item = Coord<'a>>,
        gradient: impl Fn(f64, f64) -> f64,
    ) {
        self.t += 1;
        let (acc1, acc2) = (&mut self.acc1[..], &mut self.acc2[..]);
        let plain = |eta: f64| move |g: f64, w: &mut f64, ()| *w -= eta * g;
        match self.kind {
            OptimizerKind::Constant { eta } => {
                sweep_coords(coords, repeat(()), gradient, plain(eta));
            }
            OptimizerKind::InvScaling { eta0, power } => {
                let eta = eta0 / (self.t as f64).powf(power);
                sweep_coords(coords, repeat(()), gradient, plain(eta));
            }
            OptimizerKind::Momentum { eta, gamma } => {
                sweep_coords(coords, acc1.iter_mut(), gradient, |g, w, u| {
                    *u = gamma * *u + eta * g;
                    *w -= *u;
                });
            }
            OptimizerKind::Adam {
                eta,
                beta1,
                beta2,
                eps,
            } => {
                // Clamped, not cast: a wrapped exponent would turn negative,
                // and β^t has underflowed to zero long before the clamp.
                let t = self.t.min(i32::MAX as u64) as i32;
                let bias1 = 1.0 - beta1.powi(t);
                let bias2 = 1.0 - beta2.powi(t);
                let mv = acc1.iter_mut().zip(acc2);
                // A correction that has reached exactly 1.0 (β = 0.9: from
                // step 356 on) is skipped: `x / 1.0` has the bits of `x`.
                match (bias1 == 1.0, bias2 == 1.0) {
                    (false, false) => {
                        let rule = adam_rule(eta, beta1, beta2, eps, |m| m / bias1, |v| v / bias2);
                        sweep_coords(coords, mv, gradient, rule);
                    }
                    (true, false) => {
                        let rule = adam_rule(eta, beta1, beta2, eps, |m| m, |v| v / bias2);
                        sweep_coords(coords, mv, gradient, rule);
                    }
                    (false, true) => {
                        let rule = adam_rule(eta, beta1, beta2, eps, |m| m / bias1, |v| v);
                        sweep_coords(coords, mv, gradient, rule);
                    }
                    (true, true) => {
                        let rule = adam_rule(eta, beta1, beta2, eps, |m| m, |v| v);
                        sweep_coords(coords, mv, gradient, rule);
                    }
                }
            }
            OptimizerKind::RmsProp { eta, decay, eps } => {
                sweep_coords(coords, acc1.iter_mut(), gradient, |g, w, v| {
                    *v = decay * *v + (1.0 - decay) * g * g;
                    *w -= eta * g / (v.sqrt() + eps);
                });
            }
            OptimizerKind::AdaDelta { decay, eps } => {
                let acc = acc1.iter_mut().zip(acc2);
                sweep_coords(coords, acc, gradient, |g, w, (eg2, ed2)| {
                    *eg2 = decay * *eg2 + (1.0 - decay) * g * g;
                    let delta = -((*ed2 + eps).sqrt() / (*eg2 + eps).sqrt()) * g;
                    *ed2 = decay * *ed2 + (1.0 - decay) * delta * delta;
                    *w += delta;
                });
            }
        }
    }
}

/// Where a sweep writes the model's weights.
pub(crate) enum SweepTarget<'a> {
    /// Over the weights themselves.
    InPlace(&'a mut [f64]),
    /// From the current weights into another buffer, which the sweep
    /// overwrites whatever it held.
    OutOfPlace {
        /// The pre-update weights, left as they are.
        src: &'a [f64],
        /// The post-update weights.
        dst: &'a mut [f64],
    },
}

/// One coordinate of a sweep: its pre-update weight, where the updated
/// weight goes (in place, the weight's own slot) and its gradient slot.
type Coord<'a> = (f64, &'a mut f64, &'a mut f64);

/// Runs `rule(g, w, acc)` down the zipped coordinates — `g` the coordinate's
/// full gradient, `w` its destination holding the pre-update weight, `acc`
/// its accumulator slots — clearing each gradient slot behind it.
fn sweep_coords<'a, A>(
    coords: impl Iterator<Item = Coord<'a>>,
    acc: impl Iterator<Item = A>,
    gradient: impl Fn(f64, f64) -> f64,
    mut rule: impl FnMut(f64, &mut f64, A),
) {
    for ((src, w, slot), acc) in coords.zip(acc) {
        let g = gradient(*slot, src);
        *w = src;
        rule(g, w, acc);
        *slot = g * 0.0;
    }
}

/// Adam's update rule around its two bias corrections, which the caller
/// passes in so that it can pass the identity.
fn adam_rule(
    eta: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    m_hat: impl Fn(f64) -> f64,
    v_hat: impl Fn(f64) -> f64,
) -> impl FnMut(f64, &mut f64, (&mut f64, &mut f64)) {
    move |g, w, (m, v)| {
        *m = beta1 * *m + (1.0 - beta1) * g;
        *v = beta2 * *v + (1.0 - beta2) * g * g;
        *w -= eta * m_hat(*m) / (v_hat(*v).sqrt() + eps);
    }
}

impl AdaptiveRate for OptimizerState {
    fn apply(&mut self, weights: &mut [f64], grad: &[f64]) {
        let target = SweepTarget::InPlace(weights);
        self.sweep(target, &mut grad.to_vec(), None, Regularizer::None);
    }

    fn grow_to(&mut self, dim: usize) {
        let (need1, need2) = Self::needs(self.kind);
        if need1 {
            grow_to(&mut self.acc1, dim);
        }
        if need2 {
            grow_to(&mut self.acc2, dim);
        }
    }

    fn steps(&self) -> u64 {
        self.t
    }
}

#[cfg(test)]
impl OptimizerKind {
    /// Every update rule, Adam three times: with the defaults (β₁ = 0.9's
    /// correction is exactly 1.0 from step 356 on, β₂ = 0.999's from 37 412),
    /// with the two decays swapped, and with decays whose corrections reach
    /// 1.0 at no step a test gets to.
    pub(crate) fn test_cases() -> [OptimizerKind; 8] {
        let adam = |beta1, beta2| OptimizerKind::Adam {
            eta: 0.05,
            beta1,
            beta2,
            eps: 1e-8,
        };
        [
            OptimizerKind::Constant { eta: 0.1 },
            OptimizerKind::InvScaling {
                eta0: 0.5,
                power: 0.5,
            },
            OptimizerKind::Momentum {
                eta: 0.05,
                gamma: 0.9,
            },
            adam(0.9, 0.999),
            adam(0.999, 0.9),
            adam(1.0 - 1e-7, 1.0 - 1e-8),
            OptimizerKind::rmsprop(0.05),
            OptimizerKind::adadelta(),
        ]
    }
}

#[cfg(test)]
impl OptimizerState {
    /// The optimizer step as it shipped before [`OptimizerState::sweep`], kept
    /// verbatim as the reference the differential tests compare the sweep with.
    pub(crate) fn reference_apply(&mut self, w: &mut [f64], g: &[f64]) {
        self.grow_to(g.len());
        debug_assert!(w.len() >= g.len());
        self.t += 1;
        let n = g.len();
        match self.kind {
            OptimizerKind::Constant { eta } => {
                for i in 0..n {
                    w[i] -= eta * g[i];
                }
            }
            OptimizerKind::InvScaling { eta0, power } => {
                let eta = eta0 / (self.t as f64).powf(power);
                for i in 0..n {
                    w[i] -= eta * g[i];
                }
            }
            OptimizerKind::Momentum { eta, gamma } => {
                let u = &mut self.acc1;
                for i in 0..n {
                    u[i] = gamma * u[i] + eta * g[i];
                    w[i] -= u[i];
                }
            }
            OptimizerKind::Adam {
                eta,
                beta1,
                beta2,
                eps,
            } => {
                let bias1 = 1.0 - beta1.powi(self.t as i32);
                let bias2 = 1.0 - beta2.powi(self.t as i32);
                let (m, v) = (&mut self.acc1, &mut self.acc2);
                for i in 0..n {
                    m[i] = beta1 * m[i] + (1.0 - beta1) * g[i];
                    v[i] = beta2 * v[i] + (1.0 - beta2) * g[i] * g[i];
                    let m_hat = m[i] / bias1;
                    let v_hat = v[i] / bias2;
                    w[i] -= eta * m_hat / (v_hat.sqrt() + eps);
                }
            }
            OptimizerKind::RmsProp { eta, decay, eps } => {
                let v = &mut self.acc1;
                for i in 0..n {
                    v[i] = decay * v[i] + (1.0 - decay) * g[i] * g[i];
                    w[i] -= eta * g[i] / (v[i].sqrt() + eps);
                }
            }
            OptimizerKind::AdaDelta { decay, eps } => {
                let (eg2, ed2) = (&mut self.acc1, &mut self.acc2);
                for i in 0..n {
                    eg2[i] = decay * eg2[i] + (1.0 - decay) * g[i] * g[i];
                    let delta = -((ed2[i] + eps).sqrt() / (eg2[i] + eps).sqrt()) * g[i];
                    ed2[i] = decay * ed2[i] + (1.0 - decay) * delta * delta;
                    w[i] += delta;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizing f(w) = (w − 3)² with gradient 2(w − 3); every technique
    /// must approach w = 3 on this convex 1-D problem.
    fn minimize(kind: OptimizerKind, iters: usize) -> f64 {
        let mut state = OptimizerState::new(kind, 1);
        let mut w = vec![0.0; 1];
        for _ in 0..iters {
            let grad = vec![2.0 * (w[0] - 3.0)];
            state.apply(&mut w, &grad);
        }
        w[0]
    }

    #[test]
    fn constant_rate_converges_on_quadratic() {
        assert!((minimize(OptimizerKind::Constant { eta: 0.1 }, 200) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn momentum_converges_on_quadratic() {
        let kind = OptimizerKind::Momentum {
            eta: 0.05,
            gamma: 0.9,
        };
        assert!((minimize(kind, 500) - 3.0).abs() < 1e-4);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        assert!((minimize(OptimizerKind::adam(0.1), 2000) - 3.0).abs() < 1e-3);
    }

    #[test]
    fn rmsprop_converges_on_quadratic() {
        assert!((minimize(OptimizerKind::rmsprop(0.05), 2000) - 3.0).abs() < 1e-2);
    }

    #[test]
    fn adadelta_moves_toward_optimum() {
        // AdaDelta has no explicit step size and crawls; just require
        // substantial progress from 0 toward 3.
        let w = minimize(OptimizerKind::adadelta(), 5000);
        assert!(w > 1.0, "AdaDelta stalled at {w}");
    }

    #[test]
    fn inv_scaling_decays_step_size() {
        let kind = OptimizerKind::InvScaling {
            eta0: 1.0,
            power: 1.0,
        };
        let mut state = OptimizerState::new(kind, 1);
        let grad = vec![1.0];
        let mut w = vec![0.0; 1];
        state.apply(&mut w, &grad);
        let first = -w[0]; // η at t=1
        let before = w[0];
        state.apply(&mut w, &grad);
        let second = before - w[0]; // η at t=2
        assert!(second < first);
        assert!((first / second - 2.0).abs() < 1e-9);
    }

    #[test]
    fn state_grows_with_dimension() {
        let mut state = OptimizerState::new(OptimizerKind::adam(0.1), 2);
        let mut w = vec![0.0; 4];
        let g2 = vec![1.0, 1.0];
        state.apply(&mut w, &g2);
        let g4 = vec![1.0, 1.0, 1.0, 1.0];
        state.apply(&mut w, &g4); // must not panic after growth
        assert_eq!(state.steps(), 2);
        assert!(w[3] < 0.0);
    }

    #[test]
    fn adam_first_step_is_eta_sized() {
        // With bias correction, Adam's first update has magnitude ≈ η
        // regardless of the gradient scale.
        for scale in [1e-3, 1.0, 1e3] {
            let mut state = OptimizerState::new(OptimizerKind::adam(0.1), 1);
            let mut w = vec![0.0; 1];
            state.apply(&mut w, &[scale]);
            assert!(
                (w[0].abs() - 0.1).abs() < 1e-3,
                "scale {scale}: step {}",
                w[0]
            );
        }
    }

    #[test]
    fn mismatched_dimensions_update_the_shared_prefix() {
        // Regression: a weight vector narrower than the gradient was an
        // out-of-bounds index in release builds (a `debug_assert!` in debug).
        for kind in OptimizerKind::test_cases() {
            let mut state = OptimizerState::new(kind, 0);
            let mut narrow = vec![1.0, 1.0];
            let mut grad = vec![0.5, -0.5, -7.0];
            state.sweep(
                SweepTarget::InPlace(&mut narrow),
                &mut grad,
                None,
                Regularizer::None,
            );
            assert!(narrow[0] < 1.0 && narrow[1] > 1.0, "{kind:?}: {narrow:?}");
            // What was swept is cleared, sign kept; the rest is untouched.
            let left: Vec<u64> = grad.iter().map(|g| g.to_bits()).collect();
            assert_eq!(left, [0.0f64, -0.0, -7.0].map(f64::to_bits), "{kind:?}");
            // The reverse through the public entry point: weights beyond
            // the gradient are left alone.
            let mut wide = vec![1.0, 1.0, 1.0, 1.0];
            state.apply(&mut wide, &[0.5, -0.5, -7.0]);
            assert!(wide[2] > 1.0 && wide[3] == 1.0, "{kind:?}: {wide:?}");
            assert_eq!(state.steps(), 2);
        }
    }

    #[test]
    fn bias_correction_is_first_exactly_one_at_the_documented_steps() {
        for (beta, first) in [(0.9f64, 356), (0.95, 730), (0.99, 3725), (0.999, 37_412)] {
            assert!(1.0 - beta.powi(first - 1) < 1.0, "beta {beta}");
            for t in first..first + 50 {
                assert_eq!(1.0 - beta.powi(t), 1.0, "beta {beta} at step {t}");
            }
        }
    }

    /// One `step` from clock `t` on fixed weights, accumulators and gradient:
    /// the bits of everything it decides.
    fn step_bits(
        kind: OptimizerKind,
        t: u64,
        step: fn(&mut OptimizerState, &mut [f64], &[f64]),
    ) -> Vec<u64> {
        let acc1 = vec![0.3, -0.2, 1e-9, -0.0];
        let acc2 = vec![0.5, 0.01, 1e-12, 0.0];
        let mut state = OptimizerState::from_parts(kind, t, acc1, acc2);
        let mut w = vec![1.0, -1.0, 0.5, -0.0];
        step(&mut state, &mut w, &[0.7, -1.3, 1e-6, 0.0]);
        assert_eq!(state.steps(), t + 1);
        let (_, _, acc1, acc2) = state.to_parts();
        [&w, acc1, acc2]
            .iter()
            .flat_map(|v| v.iter().map(|x| x.to_bits()))
            .collect()
    }

    #[test]
    fn elided_divides_change_no_bit_on_either_side_of_the_boundary() {
        // β = 0.9 stops dividing at step 356 and β = 0.999 at step 37 412,
        // whichever of the two moments it decays.
        for kind in OptimizerKind::test_cases() {
            for t in (0..3).chain(350..360).chain(37_405..37_415) {
                assert_eq!(
                    step_bits(kind, t, OptimizerState::apply),
                    step_bits(kind, t, OptimizerState::reference_apply),
                    "{kind:?} at step {t}"
                );
            }
        }
    }

    #[test]
    fn step_counter_past_i32_clamps_the_exponent() {
        // Regression: `t as i32` wrapped negative past 2^31 steps, so β^t
        // blew up and the "correction" with it. Clamped, β^t is the zero it
        // has been since β₂ = 0.999 underflowed (t ≈ 745 000).
        let kind = OptimizerKind::adam(0.05);
        let settled = step_bits(kind, 1_000_000, OptimizerState::reference_apply);
        for t in [i32::MAX as u64 - 1, i32::MAX as u64, 1 << 31, u64::MAX - 1] {
            assert_eq!(
                step_bits(kind, t, OptimizerState::apply),
                settled,
                "step {t}"
            );
        }
    }

    #[test]
    fn a_stepped_state_debug_prints_its_kind() {
        let mut state = OptimizerState::new(OptimizerKind::rmsprop(0.01), 3);
        let mut w = vec![0.0; 3];
        state.apply(&mut w, &[1.0, -2.0, 0.5]);
        assert!(format!("{state:?}").contains("RmsProp"));
    }
}
