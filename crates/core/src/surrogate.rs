//! Learned CD surrogate: a small, dependency-free regressor that predicts
//! post-OPC critical dimensions directly from hand-built context features,
//! bypassing the OPC + aerial-imaging + measurement pipeline for windows
//! it is confident about.
//!
//! The model is ridge regression over a fixed-dimension feature vector
//! (the caller builds features from its canonical litho-context keys),
//! optionally boosted by a tiny gradient-boosted-stump ensemble fitted to
//! the ridge residuals. Training is *online*: the model accumulates the
//! Gram matrix `Xᵀ X` and moment vectors `Xᵀ y` sample by sample (exact —
//! nothing is down-weighted or forgotten), and [`SurrogateModel::refit`]
//! re-solves the regularised normal equations by Cholesky factorisation
//! whenever the caller wants fresh coefficients. Everything is plain
//! `f64` arithmetic in a deterministic order, so two runs that absorb the
//! same samples in the same order produce bit-identical models and
//! predictions at any thread count.
//!
//! # Confidence gate
//!
//! Predictions are only trustworthy *in distribution*. The model exposes
//! a leverage score — `n · xᵀ (Xᵀ X + λI)⁻¹ x`, the classical hat-matrix
//! diagonal rescaled so a typical in-distribution point scores near the
//! feature dimension `d` regardless of how many samples have been
//! absorbed — and callers gate on it: a window whose features land far
//! from the training cloud scores orders of magnitude higher and must
//! take the real SOCS simulation path instead. See `DESIGN.md` ("Learned
//! CD surrogate") for the gate-threshold calibration.
//!
//! # Persistence
//!
//! `encode_into` / `decode_from` round-trip the *training state* (Gram,
//! moments, retained samples) through the crate's byte codec, every float
//! as its exact bit pattern; fitted coefficients are derived state and
//! are re-solved after decoding. The warm artifact stores that encoding
//! as its surrogate section, and [`SurrogateModel::to_file_bytes`] seals
//! it in a standalone `POCSURR1` container (magic + version + checksum)
//! for the offline `surrogate_train` artifact.

use crate::codec::{corrupt, fnv1a, put_f64, put_u64, seal, Reader};
use crate::error::{FlowError, Result};

/// Magic bytes identifying a persisted surrogate-model file.
const SURROGATE_MAGIC: [u8; 8] = *b"POCSURR1";

/// Current surrogate file-format version; readers reject any other.
const SURROGATE_FILE_VERSION: u32 = 1;

/// Number of regression targets: delay-equivalent and leakage-equivalent
/// CD deltas, in that order.
pub const SURROGATE_TARGETS: usize = 2;

/// Retained-sample cap for the stump-boost stage. Gram/moment
/// accumulation is exact beyond the cap; only the nonlinear boost stops
/// seeing new samples (deterministically: the first `MAX_RETAINED` in
/// absorption order are kept).
const MAX_RETAINED: usize = 4096;

fn surrogate_err(reason: impl Into<String>) -> FlowError {
    FlowError::Surrogate(reason.into())
}

/// One depth-1 regression tree of the boost ensemble: route on a single
/// feature threshold, emit a constant per side (already scaled by the
/// learning rate).
#[derive(Debug, Clone, PartialEq)]
struct Stump {
    feature: usize,
    threshold: f64,
    left: f64,
    right: f64,
}

impl Stump {
    fn response(&self, x: &[f64]) -> f64 {
        if x[self.feature] <= self.threshold {
            self.left
        } else {
            self.right
        }
    }
}

/// Online ridge regressor with a leverage-score confidence gate and an
/// optional stump-boost stage. See the module docs for the math and the
/// determinism contract.
#[derive(Debug, Clone, PartialEq)]
pub struct SurrogateModel {
    dim: usize,
    lambda: f64,
    boost_rounds: usize,
    /// Samples absorbed (all of them contribute to Gram/moments).
    count: u64,
    /// `Xᵀ X`, row-major `dim × dim`.
    gram: Vec<f64>,
    /// `Xᵀ y` per target, `SURROGATE_TARGETS × dim`.
    moments: Vec<Vec<f64>>,
    /// Retained training samples for the boost stage (first
    /// [`MAX_RETAINED`] in absorption order).
    samples_x: Vec<Vec<f64>>,
    samples_y: Vec<[f64; SURROGATE_TARGETS]>,
    // ---- derived (re-solved by `refit`, not persisted) ----
    fitted: bool,
    fitted_count: u64,
    weights: Vec<Vec<f64>>,
    inverse: Vec<f64>,
    stumps: Vec<Vec<Stump>>,
}

impl SurrogateModel {
    /// A fresh, untrained model over `dim`-dimensional features.
    ///
    /// `lambda` is the ridge regulariser (also what keeps the leverage
    /// matrix invertible before any data arrives); `boost_rounds` is the
    /// number of stumps per target fitted to the ridge residuals at each
    /// refit (`0` disables the boost stage).
    pub fn new(dim: usize, lambda: f64, boost_rounds: usize) -> SurrogateModel {
        SurrogateModel {
            dim,
            lambda: lambda.max(1e-12),
            boost_rounds,
            count: 0,
            gram: vec![0.0; dim * dim],
            moments: vec![vec![0.0; dim]; SURROGATE_TARGETS],
            samples_x: Vec::new(),
            samples_y: Vec::new(),
            fitted: false,
            fitted_count: 0,
            weights: vec![vec![0.0; dim]; SURROGATE_TARGETS],
            inverse: vec![0.0; dim * dim],
            stumps: vec![Vec::new(); SURROGATE_TARGETS],
        }
    }

    /// Feature dimension this model was built for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of samples absorbed so far.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether the model has absorbed no samples yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Whether [`Self::refit`] has solved coefficients covering every
    /// absorbed sample (predictions and scores require this).
    pub fn is_fitted(&self) -> bool {
        self.fitted && self.fitted_count == self.count
    }

    /// Absorbs one training sample: feature vector `x` (length
    /// [`Self::dim`]) and its [`SURROGATE_TARGETS`] regression targets.
    /// Accumulation is exact and order-dependent — callers must absorb in
    /// a deterministic order for bit-identical models.
    ///
    /// # Errors
    ///
    /// [`FlowError::Surrogate`] on a dimension mismatch or a non-finite
    /// feature/target (a poisoned Gram matrix would silently corrupt
    /// every later prediction).
    pub fn absorb(&mut self, x: &[f64], y: [f64; SURROGATE_TARGETS]) -> Result<()> {
        if x.len() != self.dim {
            return Err(surrogate_err(format!(
                "feature dimension mismatch: model {}, sample {}",
                self.dim,
                x.len()
            )));
        }
        if x.iter().any(|v| !v.is_finite()) || y.iter().any(|v| !v.is_finite()) {
            return Err(surrogate_err("non-finite feature or target"));
        }
        for (i, &xi) in x.iter().enumerate() {
            for (j, &xj) in x.iter().enumerate() {
                self.gram[i * self.dim + j] += xi * xj;
            }
            for (t, moment) in self.moments.iter_mut().enumerate() {
                moment[i] += xi * y[t];
            }
        }
        if self.samples_x.len() < MAX_RETAINED {
            self.samples_x.push(x.to_vec());
            self.samples_y.push(y);
        }
        self.count += 1;
        self.fitted = false;
        Ok(())
    }

    /// Re-solves the ridge coefficients (and refits the boost ensemble)
    /// from the accumulated state. Cheap — one `dim × dim` Cholesky plus
    /// `boost_rounds` passes over the retained samples — so callers refit
    /// at every training-round boundary.
    ///
    /// # Errors
    ///
    /// [`FlowError::Surrogate`] if the regularised Gram matrix is not
    /// numerically positive definite (cannot happen for finite features
    /// and `lambda > 0` short of overflow); the model is left unfitted.
    pub fn refit(&mut self) -> Result<()> {
        self.fitted = false;
        let d = self.dim;
        let mut a = self.gram.clone();
        for i in 0..d {
            a[i * d + i] += self.lambda;
        }
        let chol = cholesky(&a, d).ok_or_else(|| {
            surrogate_err("regularised Gram matrix is not positive definite (overflow?)")
        })?;
        // Inverse via d solves against the unit basis — the leverage
        // score needs the full inverse, not just the weights.
        let mut inverse = vec![0.0; d * d];
        let mut basis = vec![0.0; d];
        for j in 0..d {
            basis.iter_mut().for_each(|v| *v = 0.0);
            basis[j] = 1.0;
            let col = chol_solve(&chol, d, &basis);
            for i in 0..d {
                inverse[i * d + j] = col[i];
            }
        }
        for (t, moment) in self.moments.iter().enumerate() {
            self.weights[t] = chol_solve(&chol, d, moment);
        }
        self.inverse = inverse;
        // Boost stage: stumps on the ridge residuals of the retained
        // samples, greedily, one feature split per round.
        for t in 0..SURROGATE_TARGETS {
            self.stumps[t].clear();
            if self.boost_rounds == 0 || self.samples_x.len() < 8 {
                continue;
            }
            let mut residuals: Vec<f64> = self
                .samples_x
                .iter()
                .zip(&self.samples_y)
                .map(|(x, y)| y[t] - dot(&self.weights[t], x))
                .collect();
            for _ in 0..self.boost_rounds {
                let Some(stump) = best_stump(&self.samples_x, &residuals, d) else {
                    break;
                };
                for (r, x) in residuals.iter_mut().zip(&self.samples_x) {
                    *r -= stump.response(x);
                }
                self.stumps[t].push(stump);
            }
        }
        self.fitted = true;
        self.fitted_count = self.count;
        Ok(())
    }

    /// Leverage score of a feature vector against the fitted model:
    /// `n · xᵀ (Xᵀ X + λI)⁻¹ x`. In-distribution points score near the
    /// feature dimension; far-from-training points score orders of
    /// magnitude higher. Returns `None` until [`Self::refit`] has run
    /// over every absorbed sample.
    pub fn score(&self, x: &[f64]) -> Option<f64> {
        if !self.is_fitted() || x.len() != self.dim {
            return None;
        }
        let d = self.dim;
        let mut quad = 0.0;
        for (i, xi) in x.iter().enumerate() {
            let row: f64 = self.inverse[i * d..(i + 1) * d]
                .iter()
                .zip(x)
                .map(|(inv, xj)| inv * xj)
                .sum();
            quad += xi * row;
        }
        Some(self.count as f64 * quad)
    }

    /// Predicts the [`SURROGATE_TARGETS`] regression targets for `x`
    /// (ridge term plus the boost ensemble). Returns `None` until
    /// [`Self::refit`] has run over every absorbed sample.
    pub fn predict(&self, x: &[f64]) -> Option<[f64; SURROGATE_TARGETS]> {
        if !self.is_fitted() || x.len() != self.dim {
            return None;
        }
        let mut out = [0.0; SURROGATE_TARGETS];
        for (t, slot) in out.iter_mut().enumerate() {
            let mut y = dot(&self.weights[t], x);
            for stump in &self.stumps[t] {
                y += stump.response(x);
            }
            *slot = y;
        }
        Some(out)
    }

    /// Serialises the training state (not the derived fit) as canonical
    /// little-endian bytes: equal training histories produce equal bytes.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        put_u64(out, self.dim as u64);
        put_f64(out, self.lambda);
        put_u64(out, self.boost_rounds as u64);
        put_u64(out, self.count);
        for &g in &self.gram {
            put_f64(out, g);
        }
        for moment in &self.moments {
            for &m in moment {
                put_f64(out, m);
            }
        }
        put_u64(out, self.samples_x.len() as u64);
        for (x, y) in self.samples_x.iter().zip(&self.samples_y) {
            for &v in x {
                put_f64(out, v);
            }
            for &v in y {
                put_f64(out, v);
            }
        }
    }

    /// Decodes a model previously written by [`Self::encode_into`]. The
    /// result is unfitted; call [`Self::refit`] before predicting.
    ///
    /// # Errors
    ///
    /// [`FlowError::Artifact`] on truncation, an out-of-range
    /// dimension, boost-round or sample count — never a panic.
    pub(crate) fn decode_from(r: &mut Reader) -> Result<SurrogateModel> {
        // The dimension and boost-round caps bound a refit's work; the
        // Gram matrix and moments must also fit in the bytes left.
        let dim = r.u64()? as usize;
        if dim == 0 || dim > 1 << 12 {
            return Err(corrupt("stored feature dimension out of range"));
        }
        if dim * (dim + SURROGATE_TARGETS) > r.remaining() / 8 {
            return Err(corrupt("truncated surrogate training state"));
        }
        let lambda = r.f64()?;
        let boost_rounds = r.u64()? as usize;
        if boost_rounds > 1 << 16 {
            return Err(corrupt("stored boost rounds out of range"));
        }
        let count = r.u64()?;
        let mut model = SurrogateModel::new(dim, lambda, boost_rounds);
        model.count = count;
        for g in model.gram.iter_mut() {
            *g = r.f64()?;
        }
        for moment in model.moments.iter_mut() {
            for m in moment.iter_mut() {
                *m = r.f64()?;
            }
        }
        let retained = r.count()?;
        if retained > MAX_RETAINED {
            return Err(corrupt("stored sample count out of range"));
        }
        model.samples_x.reserve_exact(retained);
        model.samples_y.reserve_exact(retained);
        for _ in 0..retained {
            let mut x = vec![0.0; dim];
            for v in x.iter_mut() {
                *v = r.f64()?;
            }
            let mut y = [0.0; SURROGATE_TARGETS];
            for v in y.iter_mut() {
                *v = r.f64()?;
            }
            model.samples_x.push(x);
            model.samples_y.push(y);
        }
        Ok(model)
    }

    /// FNV-1a hash of the canonical encoding — the model fingerprint
    /// consumers mix into artifact invalidation keys.
    pub fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::new();
        self.encode_into(&mut bytes);
        fnv1a(&bytes)
    }

    /// Seals the canonical encoding in the standalone `POCSURR1` file
    /// container: magic, version, payload, trailing FNV-1a checksum.
    pub fn to_file_bytes(&self) -> Vec<u8> {
        seal(SURROGATE_MAGIC, SURROGATE_FILE_VERSION, |out| {
            self.encode_into(out)
        })
    }

    /// Parses a `POCSURR1` file written by [`Self::to_file_bytes`]. The
    /// result is unfitted; call [`Self::refit`] before predicting.
    ///
    /// # Errors
    ///
    /// [`FlowError::Artifact`], like a bad warm artifact: `Version` for
    /// a foreign file version, `Corrupt` for bad magic, a checksum
    /// mismatch, truncation, an out-of-range field or trailing bytes.
    pub fn from_file_bytes(bytes: &[u8]) -> Result<SurrogateModel> {
        let mut r = Reader::open(bytes, SURROGATE_MAGIC, SURROGATE_FILE_VERSION)?;
        let model = SurrogateModel::decode_from(&mut r)?;
        r.finish()?;
        Ok(model)
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Cholesky factorisation of a symmetric positive-definite row-major
/// `d × d` matrix: returns the lower factor `L` (row-major), or `None`
/// if a pivot is not strictly positive.
fn cholesky(a: &[f64], d: usize) -> Option<Vec<f64>> {
    let mut l = vec![0.0; d * d];
    for i in 0..d {
        for j in 0..=i {
            let mut sum = a[i * d + j];
            for k in 0..j {
                sum -= l[i * d + k] * l[j * d + k];
            }
            if i == j {
                if !(sum.is_finite() && sum > 0.0) {
                    return None;
                }
                l[i * d + i] = sum.sqrt();
            } else {
                l[i * d + j] = sum / l[j * d + j];
            }
        }
    }
    Some(l)
}

/// Solves `L Lᵀ x = b` by forward + back substitution.
fn chol_solve(l: &[f64], d: usize, b: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; d];
    for i in 0..d {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[i * d + k] * y[k];
        }
        y[i] = sum / l[i * d + i];
    }
    let mut x = vec![0.0; d];
    for i in (0..d).rev() {
        let mut sum = y[i];
        for k in i + 1..d {
            sum -= l[k * d + i] * x[k];
        }
        x[i] = sum / l[i * d + i];
    }
    x
}

/// Learning rate of the boost stage.
const BOOST_SHRINKAGE: f64 = 0.5;

/// Candidate thresholds per feature when growing a stump.
const STUMP_CANDIDATES: usize = 16;

/// The depth-1 split minimising residual SSE over all features and a
/// quantile grid of candidate thresholds. Ties break toward the lowest
/// feature index, then the lowest threshold — fully deterministic.
fn best_stump(xs: &[Vec<f64>], residuals: &[f64], dim: usize) -> Option<Stump> {
    let n = xs.len();
    let total: f64 = residuals.iter().sum();
    let mut best: Option<(f64, Stump)> = None;
    let mut order: Vec<usize> = (0..n).collect();
    // `feature` indexes the inner per-sample vectors, not `xs` itself —
    // an enumerate over `xs` (length n, not dim) would be wrong.
    #[allow(clippy::needless_range_loop)]
    for feature in 0..dim {
        order.sort_by(|&a, &b| xs[a][feature].total_cmp(&xs[b][feature]));
        // Quantile candidate thresholds (midpoints between neighbouring
        // distinct values at evenly spaced ranks).
        for c in 1..=STUMP_CANDIDATES {
            let rank = c * n / (STUMP_CANDIDATES + 1);
            if rank == 0 || rank >= n {
                continue;
            }
            let lo = xs[order[rank - 1]][feature];
            let hi = xs[order[rank]][feature];
            if lo == hi {
                continue;
            }
            let threshold = 0.5 * (lo + hi);
            let mut left_sum = 0.0;
            let mut left_n = 0usize;
            for &i in &order[..rank] {
                left_sum += residuals[i];
                left_n += 1;
            }
            let right_sum = total - left_sum;
            let right_n = n - left_n;
            if left_n == 0 || right_n == 0 {
                continue;
            }
            // SSE reduction of the two-mean fit.
            let gain = left_sum * left_sum / left_n as f64 + right_sum * right_sum / right_n as f64;
            let better = match &best {
                None => true,
                Some((g, _)) => gain > *g + 1e-12,
            };
            if better {
                best = Some((
                    gain,
                    Stump {
                        feature,
                        threshold,
                        left: BOOST_SHRINKAGE * left_sum / left_n as f64,
                        right: BOOST_SHRINKAGE * right_sum / right_n as f64,
                    },
                ));
            }
        }
    }
    best.map(|(_, s)| s)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny deterministic pseudo-random stream for test fixtures.
    struct TestRng(u64);
    impl TestRng {
        fn next_f64(&mut self) -> f64 {
            // SplitMix64 step, mapped to [0, 1).
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z = z ^ (z >> 31);
            (z >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    fn linear_fixture(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<[f64; 2]>) {
        let mut rng = TestRng(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let a = rng.next_f64() * 2.0 - 1.0;
            let b = rng.next_f64() * 2.0 - 1.0;
            let x = vec![1.0, a, b];
            ys.push([3.0 + 2.0 * a - b, -1.0 + 0.5 * a + 4.0 * b]);
            xs.push(x);
        }
        (xs, ys)
    }

    #[test]
    fn ridge_recovers_a_linear_function() {
        let (xs, ys) = linear_fixture(200, 7);
        let mut model = SurrogateModel::new(3, 1e-6, 0);
        for (x, y) in xs.iter().zip(&ys) {
            model.absorb(x, *y).expect("absorb");
        }
        model.refit().expect("refit");
        for (x, y) in xs.iter().zip(&ys) {
            let p = model.predict(x).expect("fitted");
            assert!((p[0] - y[0]).abs() < 1e-4, "{p:?} vs {y:?}");
            assert!((p[1] - y[1]).abs() < 1e-4, "{p:?} vs {y:?}");
        }
    }

    #[test]
    fn leverage_gate_separates_out_of_distribution_points() {
        let (xs, ys) = linear_fixture(300, 11);
        let mut model = SurrogateModel::new(3, 1e-3, 0);
        for (x, y) in xs.iter().zip(&ys) {
            model.absorb(x, *y).expect("absorb");
        }
        model.refit().expect("refit");
        // In-distribution points score near the feature dimension.
        let in_dist = model.score(&xs[17]).expect("fitted");
        assert!(in_dist < 30.0, "in-distribution score {in_dist}");
        // A far-away point scores orders of magnitude higher.
        let ood = model.score(&[1.0, 50.0, -80.0]).expect("fitted");
        assert!(ood > 1000.0, "out-of-distribution score {ood}");
        assert!(ood > in_dist * 100.0);
    }

    #[test]
    fn boost_stage_reduces_nonlinear_residuals() {
        let mut rng = TestRng(23);
        let mut plain = SurrogateModel::new(2, 1e-6, 0);
        let mut boosted = SurrogateModel::new(2, 1e-6, 32);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..400 {
            let a = rng.next_f64() * 2.0 - 1.0;
            let x = vec![1.0, a];
            let y = [a.abs() + 0.2 * a, 0.0]; // nonlinear in `a`
            plain.absorb(&x, y).expect("absorb");
            boosted.absorb(&x, y).expect("absorb");
            xs.push(x);
            ys.push(y);
        }
        plain.refit().expect("refit");
        boosted.refit().expect("refit");
        let sse = |m: &SurrogateModel| -> f64 {
            xs.iter()
                .zip(&ys)
                .map(|(x, y)| {
                    let p = m.predict(x).expect("fitted");
                    (p[0] - y[0]).powi(2)
                })
                .sum()
        };
        let (p, b) = (sse(&plain), sse(&boosted));
        assert!(b < p * 0.5, "boost must cut nonlinear SSE: {b} vs {p}");
    }

    #[test]
    fn encode_decode_round_trips_and_refits_identically() {
        let (xs, ys) = linear_fixture(150, 3);
        let mut model = SurrogateModel::new(3, 1e-4, 8);
        for (x, y) in xs.iter().zip(&ys) {
            model.absorb(x, *y).expect("absorb");
        }
        model.refit().expect("refit");
        let mut bytes = Vec::new();
        model.encode_into(&mut bytes);
        // Canonical: same history, same bytes.
        let mut again = Vec::new();
        model.encode_into(&mut again);
        assert_eq!(bytes, again);
        // The file container's payload is exactly this encoding, and
        // decoding consumes all of it.
        let file = model.to_file_bytes();
        assert_eq!(file[12..file.len() - 8], bytes[..]);
        let mut decoded = SurrogateModel::from_file_bytes(&file).expect("decode");
        assert!(!decoded.is_fitted());
        decoded.refit().expect("refit");
        for x in &xs {
            assert_eq!(model.predict(x), decoded.predict(x), "bit-identical refit");
            assert_eq!(model.score(x), decoded.score(x));
        }
        assert_eq!(model.fingerprint(), decoded.fingerprint());
    }

    #[test]
    fn file_container_validates_magic_version_checksum() {
        let (xs, ys) = linear_fixture(40, 5);
        let mut model = SurrogateModel::new(3, 1e-4, 4);
        for (x, y) in xs.iter().zip(&ys) {
            model.absorb(x, *y).expect("absorb");
        }
        let bytes = model.to_file_bytes();
        let loaded = SurrogateModel::from_file_bytes(&bytes).expect("load");
        assert_eq!(loaded.len(), model.len());
        assert_eq!(loaded.fingerprint(), model.fingerprint());
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(SurrogateModel::from_file_bytes(&bad).is_err());
        // Bad version.
        let mut bad = bytes.clone();
        bad[8] = 0xfe;
        let err = SurrogateModel::from_file_bytes(&bad).expect_err("version");
        assert!(err.to_string().contains("version"));
        // Flipped payload byte.
        let mut bad = bytes.clone();
        let mid = bytes.len() / 2;
        bad[mid] ^= 0x01;
        let err = SurrogateModel::from_file_bytes(&bad).expect_err("corrupt");
        assert!(err.to_string().contains("checksum"));
        // Truncations never panic.
        for cut in [0, 7, 11, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(SurrogateModel::from_file_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn unfitted_and_stale_models_refuse_to_predict() {
        let mut model = SurrogateModel::new(2, 1e-3, 0);
        assert!(model.predict(&[1.0, 0.0]).is_none());
        assert!(model.score(&[1.0, 0.0]).is_none());
        model.absorb(&[1.0, 0.5], [1.0, 2.0]).expect("absorb");
        model.refit().expect("refit");
        assert!(model.predict(&[1.0, 0.0]).is_some());
        // Absorbing invalidates the fit until the next refit.
        model.absorb(&[1.0, -0.5], [0.5, 1.0]).expect("absorb");
        assert!(!model.is_fitted());
        assert!(model.predict(&[1.0, 0.0]).is_none());
        // Dimension mismatches are typed errors.
        assert!(model.absorb(&[1.0], [0.0, 0.0]).is_err());
        assert!(model.absorb(&[1.0, f64::NAN], [0.0, 0.0]).is_err());
    }
}
