//! Learned CD surrogate: the confidence-gated extraction tier between
//! the warm context store and full litho simulation, and the small,
//! dependency-free regressor behind it.
//!
//! # The tier
//!
//! With [`SurrogateConfig::enabled`], every extraction run owns one
//! model: it starts from [`SurrogateConfig::pretrained`] or a fresh
//! model, predicts the novel contexts it is confident about, trains on
//! the ones it simulates, and is dropped when the run returns. No
//! session, ECO or artifact carries a model from one run to the next, so
//! an extraction answer is a function of its design, config, tags and
//! store. A model outlives a run only as a `POCSURR1` file written from
//! [`SurrogateModel::train`].
//!
//! Novel contexts resolve in training rounds of `ROUND` (32): the gate
//! decisions for a round are made serially in key order against the
//! model as of the round start, the round's fallbacks simulate in
//! parallel, and the model absorbs the fresh SOCS truths (serially, in
//! key order) and refits at the round boundary. The round structure, not
//! thread scheduling, defines the training stream, so surrogate runs are
//! bit-identical at any thread count. Every `AUDIT_EVERY`-th (16th) accepted
//! context is simulated anyway, and its surrogate/SOCS residual feeds
//! [`ExtractionStats::surrogate_max_residual_nm`](crate::ExtractionStats::surrogate_max_residual_nm).
//!
//! # The model
//!
//! Ridge regression over a fixed-dimension feature vector (built from
//! the canonical litho-context keys), optionally boosted by a tiny
//! gradient-boosted-stump ensemble fitted to the ridge residuals.
//! Training is *online*: the model accumulates the Gram matrix `Xᵀ X`
//! and moment vectors `Xᵀ y` sample by sample (exact — nothing is
//! down-weighted or forgotten), and [`SurrogateModel::refit`] re-solves
//! the regularised normal equations by Cholesky factorisation whenever
//! the caller wants fresh coefficients. Everything is plain `f64`
//! arithmetic in a deterministic order, so two runs that absorb the same
//! samples in the same order produce bit-identical models and
//! predictions at any thread count.
//!
//! # Confidence gate
//!
//! Predictions are only trustworthy *in distribution*. The model exposes
//! a leverage score — `n · xᵀ (Xᵀ X + λI)⁻¹ x`, the classical hat-matrix
//! diagonal rescaled so a typical in-distribution point scores near the
//! feature dimension `d` regardless of how many samples have been
//! absorbed — and the tier gates on it: a window whose features land far
//! from the training cloud scores orders of magnitude higher and takes
//! the real SOCS simulation path instead. See `DESIGN.md` ("Learned CD
//! surrogate") for the gate-threshold calibration.
//!
//! # Persistence
//!
//! `encode_into` / `decode_from` round-trip the *training state* (Gram,
//! moments, retained samples) through the crate's byte codec, every float
//! as its exact bit pattern; fitted coefficients are derived state and
//! are re-solved after decoding. [`SurrogateModel::to_file_bytes`] seals
//! that encoding in a standalone `POCSURR1` container (magic + version +
//! checksum) for the offline `surrogate_train` artifact.

use crate::codec::{corrupt, fnv1a, put_f64, put_u64, seal, Reader};
use crate::error::{FlowError, Result};
use crate::extract::{
    extract_gates_in, run_novel_batch, ContextKey, ExtractionConfig, SiteKey, UniqueOutcome,
    UniqueResult,
};
use crate::tags::TagSet;
use postopc_device::{EquivalentGate, GateSlice};
use postopc_layout::Design;

/// Magic bytes identifying a persisted surrogate-model file.
const SURROGATE_MAGIC: [u8; 8] = *b"POCSURR1";

/// Current surrogate file-format version; readers reject any other.
const SURROGATE_FILE_VERSION: u32 = 1;

/// Number of regression targets: delay-equivalent and leakage-equivalent
/// CD deltas, in that order.
pub const SURROGATE_TARGETS: usize = 2;

/// Feature-vector dimension of the learned CD surrogate: bias, drawn CD,
/// width, focus (linear + quadratic), dose, four nearest-neighbour gaps,
/// pattern density at three radii, window geometry and edge clearance.
/// The private `site_features` builder fixes the exact layout.
pub const SURROGATE_FEATURE_DIM: usize = 16;

/// Confidence gate: a context is served only when every site's leverage
/// score is at most `GATE_THRESHOLD ×` [`SURROGATE_FEATURE_DIM`].
/// In-distribution points score near the feature dimension, so this is
/// "how many times a typical training point's leverage" is still trusted.
const GATE_THRESHOLD: f64 = 4.0;

/// Samples a model must have absorbed before it serves any prediction
/// (the warm-up: a fresh model's first contexts always simulate).
const MIN_TRAIN: u64 = 32;

/// Novel contexts per training round (see the module docs).
const ROUND: usize = 32;

/// Every `AUDIT_EVERY`-th gate-accepted context is simulated anyway.
const AUDIT_EVERY: usize = 16;

/// Ridge regulariser of a fresh model.
const LAMBDA: f64 = 1e-3;

/// Gradient-boosted stumps per target a fresh model fits to the ridge
/// residuals at each refit.
const BOOST_ROUNDS: usize = 8;

/// Retained-sample cap for the stump-boost stage. Gram/moment
/// accumulation is exact beyond the cap; only the nonlinear boost stops
/// seeing new samples (deterministically: the first `MAX_RETAINED` in
/// absorption order are kept).
const MAX_RETAINED: usize = 4096;

/// Configuration of the learned CD surrogate tier: a confidence-gated
/// fast path between the warm [`ContextStore`](crate::ContextStore) and
/// full litho simulation, trained within each run from the SOCS results
/// the run computes anyway. Out-of-distribution contexts always take the
/// real simulation path. Off by default.
#[derive(Clone, PartialEq, Default)]
pub struct SurrogateConfig {
    /// Master switch. `false` (the default) leaves the engine on its
    /// pre-surrogate path, bit for bit.
    pub enabled: bool,
    /// Optional pre-trained model (from a `POCSURR1` file) each run
    /// starts from instead of a fresh one. Training within the run
    /// continues on a copy; this model never changes.
    pub pretrained: Option<SurrogateModel>,
}

impl SurrogateConfig {
    /// Surrogate disabled (the [`ExtractionConfig::standard`] default).
    pub fn off() -> SurrogateConfig {
        SurrogateConfig::default()
    }

    /// The production surrogate: a fresh model per run, leverage gate at
    /// 4× the feature dimension, 32-context warm-up and rounds, an audit
    /// every 16th accepted context and 8 boost stumps per target.
    pub fn standard() -> SurrogateConfig {
        SurrogateConfig {
            enabled: true,
            pretrained: None,
        }
    }

    /// Validates the configuration ahead of a run.
    ///
    /// # Errors
    ///
    /// [`FlowError::InvalidConfig`] for a pre-trained model of the wrong
    /// feature dimension.
    pub fn validate(&self) -> Result<()> {
        match &self.pretrained {
            Some(pre) if pre.dim() != SURROGATE_FEATURE_DIM => {
                Err(FlowError::InvalidConfig(format!(
                    "surrogate pretrained model has feature dimension {}, engine expects {}",
                    pre.dim(),
                    SURROGATE_FEATURE_DIM
                )))
            }
            _ => Ok(()),
        }
    }

    /// The model a run starts from: a fitted copy of the pre-trained
    /// model, or a fresh one.
    fn start_model(&self) -> Result<SurrogateModel> {
        let Some(pre) = &self.pretrained else {
            return Ok(SurrogateModel::new(
                SURROGATE_FEATURE_DIM,
                LAMBDA,
                BOOST_ROUNDS,
            ));
        };
        let mut model = pre.clone();
        if !model.is_fitted() && !model.is_empty() {
            model.refit()?;
        }
        Ok(model)
    }
}

impl std::fmt::Debug for SurrogateConfig {
    /// The pre-trained model's full training state is summarised as its
    /// [`SurrogateModel::fingerprint`]: the `Debug` rendering feeds
    /// [`crate::content_hash`], where the model *hash* (not megabytes of
    /// Gram state) belongs in the invalidation key.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SurrogateConfig")
            .field("enabled", &self.enabled)
            .field(
                "pretrained",
                &self
                    .pretrained
                    .as_ref()
                    .map(|m| format!("fingerprint={:#018x}", m.fingerprint())),
            )
            .finish()
    }
}

/// What an extraction run made of its novel contexts, in key order.
pub(crate) struct Novel {
    /// Each context's outcome or fault.
    pub(crate) results: Vec<UniqueResult>,
    /// Whether each outcome is a surrogate prediction (never stored).
    pub(crate) predicted: Vec<bool>,
    /// Contexts simulated while the tier was active.
    pub(crate) fallbacks: usize,
    /// Largest audited |surrogate − SOCS| CD, nm.
    pub(crate) max_residual_nm: f64,
}

/// Resolves a run's novel contexts (those neither the in-run cache nor
/// the warm store served). With the tier off they all simulate. With it
/// on, a run-local model serves the ones it is confident about; with a
/// `recorder` the tier instead trains that model on every context and
/// serves none (the trainer's run). Like the store, the tier is bypassed
/// under fault injection: injected faults must never train a model.
///
/// # Errors
///
/// [`FlowError::Surrogate`] if the model cannot absorb a sample or refit.
pub(crate) fn resolve_novel(
    config: &ExtractionConfig,
    threads: usize,
    keys: &[&ContextKey],
    recorder: Option<&mut SurrogateModel>,
) -> Result<Novel> {
    if config.fault_injection.is_some() || !(config.surrogate.enabled || recorder.is_some()) {
        return Ok(Novel {
            results: run_novel_batch(config, threads, keys),
            predicted: vec![false; keys.len()],
            fallbacks: 0,
            max_residual_nm: 0.0,
        });
    }
    let mut run_model;
    let (model, serve) = match recorder {
        Some(model) => (model, false),
        None => {
            run_model = config.surrogate.start_model()?;
            (&mut run_model, true)
        }
    };
    let mut novel = Novel {
        results: Vec::new(),
        predicted: vec![false; keys.len()],
        fallbacks: 0,
        max_residual_nm: 0.0,
    };
    let mut results: Vec<Option<UniqueResult>> = (0..keys.len()).map(|_| None).collect();
    let mut accepted = 0usize;
    for start in (0..keys.len()).step_by(ROUND) {
        let end = (start + ROUND).min(keys.len());
        let mut sim_idx: Vec<usize> = Vec::new();
        let mut audits: Vec<(usize, UniqueOutcome)> = Vec::new();
        for i in start..end {
            let verdict = if serve { predict(model, keys[i]) } else { None };
            match verdict {
                Some(outcome) => {
                    accepted += 1;
                    if accepted.is_multiple_of(AUDIT_EVERY) {
                        // Audit: simulate anyway, keep the SOCS truth, and
                        // record the surrogate/SOCS parity residual.
                        audits.push((i, outcome));
                        sim_idx.push(i);
                    } else {
                        results[i] = Some(Ok(outcome));
                        novel.predicted[i] = true;
                    }
                }
                None => sim_idx.push(i),
            }
        }
        novel.fallbacks += sim_idx.len();
        let sim_keys: Vec<&ContextKey> = sim_idx.iter().map(|&i| keys[i]).collect();
        let sim_results = run_novel_batch(config, threads, &sim_keys);
        // Train on the freshly simulated truths, serially in key order.
        let mut absorbed = false;
        for (&i, result) in sim_idx.iter().zip(&sim_results) {
            let Ok(outcome) = result else {
                continue;
            };
            let Some(per_site) = &outcome.sites else {
                // Failed measurement: member gates keep drawn dimensions;
                // there is no CD truth to learn from.
                continue;
            };
            for (site, (_, equivalent)) in keys[i].sites.iter().zip(per_site) {
                let drawn = f64::from_bits(site.drawn_bits);
                let y = [
                    equivalent.l_delay_nm - drawn,
                    equivalent.l_leakage_nm - drawn,
                ];
                if y.iter().all(|v| v.is_finite()) {
                    model.absorb(&site_features(keys[i], site), y)?;
                    absorbed = true;
                }
            }
            if let Some((_, predicted)) = audits.iter().find(|(a, _)| *a == i) {
                novel.max_residual_nm = novel
                    .max_residual_nm
                    .max(outcome_residual_nm(predicted, outcome));
            }
        }
        for (i, result) in sim_idx.into_iter().zip(sim_results) {
            results[i] = Some(result);
        }
        if absorbed {
            model.refit()?;
        }
    }
    novel.results = results
        .into_iter()
        .map(|r| r.unwrap_or_else(|| unreachable!("every novel context resolves")))
        .collect();
    Ok(novel)
}

/// The surrogate's verdict on one novel context: a fully predicted
/// [`UniqueOutcome`] if the model is warmed up, *every* site passes the
/// leverage gate and every predicted CD is physically plausible —
/// otherwise `None` (take the real simulation path).
fn predict(model: &SurrogateModel, key: &ContextKey) -> Option<UniqueOutcome> {
    if key.sites.is_empty() || model.len() < MIN_TRAIN {
        return None;
    }
    let limit = GATE_THRESHOLD * SURROGATE_FEATURE_DIM as f64;
    let mut per_site = Vec::with_capacity(key.sites.len());
    for site in &key.sites {
        let x = site_features(key, site);
        let score = model.score(&x)?;
        if !(score.is_finite() && score <= limit) {
            return None;
        }
        let pred = model.predict(&x)?;
        let drawn = f64::from_bits(site.drawn_bits);
        let l_delay = drawn + pred[0];
        let l_leakage = drawn + pred[1];
        // Physicality band: a prediction outside ±45% of drawn is a model
        // wobble, not a plausible post-OPC CD — take the real path. This
        // also keeps surrogate output clear of the STA boundary guard.
        let plausible = |l: f64| l.is_finite() && l > drawn * 0.55 && l < drawn * 1.45;
        if !plausible(l_delay) || !plausible(l_leakage) {
            return None;
        }
        let width = f64::from_bits(site.width_bits);
        per_site.push((
            vec![GateSlice {
                w_nm: width,
                l_nm: l_delay,
            }],
            EquivalentGate {
                w_nm: width,
                l_delay_nm: l_delay,
                l_leakage_nm: l_leakage,
            },
        ));
    }
    Some(UniqueOutcome {
        opc_simulations: 0,
        opc_fragment_moves: 0,
        sites: Some(per_site),
    })
}

/// Largest per-site |predicted CD − SOCS CD| in nm, over both equivalent
/// lengths, between a surrogate prediction and the simulated truth for
/// the same context.
fn outcome_residual_nm(predicted: &UniqueOutcome, truth: &UniqueOutcome) -> f64 {
    let (Some(pred), Some(real)) = (&predicted.sites, &truth.sites) else {
        return 0.0;
    };
    let mut max = 0.0f64;
    for ((_, p), (_, r)) in pred.iter().zip(real) {
        max = max
            .max((p.l_delay_nm - r.l_delay_nm).abs())
            .max((p.l_leakage_nm - r.l_leakage_nm).abs());
    }
    max
}

/// Hand-built surrogate features for one channel site of a canonical
/// context ([`SURROGATE_FEATURE_DIM`] entries): bias, drawn CD, width,
/// quantised exposure conditions (focus linear + quadratic, dose),
/// nearest-neighbour clearances in the four directions, bbox pattern
/// density at three radii, and window geometry. Pure arithmetic over the
/// canonical key — equal keys produce bit-equal features, and the window-
/// local frame makes them translation-invariant by construction.
fn site_features(key: &ContextKey, site: &SiteKey) -> Vec<f64> {
    let ambit = 420.0f64;
    let drawn = f64::from_bits(site.drawn_bits);
    let width = f64::from_bits(site.width_bits);
    let focus = f64::from_bits(key.focus_bits);
    let dose = f64::from_bits(key.dose_bits);
    let ch = site.channel;
    let cx = (ch.left() as f64 + ch.right() as f64) * 0.5;
    let cy = (ch.bottom() as f64 + ch.top() as f64) * 0.5;
    // Nearest-neighbour clearances from the channel bbox, per direction
    // (left, right, down, up), capped at the optical ambit. Shapes
    // overlapping the channel (its own gate poly) are skipped.
    let mut gap = [ambit; 4];
    for p in key.targets.iter().chain(key.context.iter()) {
        let b = p.bbox();
        let overlaps_x = b.left() < ch.right() && b.right() > ch.left();
        let overlaps_y = b.bottom() < ch.top() && b.top() > ch.bottom();
        if overlaps_x && overlaps_y {
            continue;
        }
        if overlaps_y && b.right() <= ch.left() {
            gap[0] = gap[0].min((ch.left() - b.right()) as f64);
        }
        if overlaps_y && b.left() >= ch.right() {
            gap[1] = gap[1].min((b.left() - ch.right()) as f64);
        }
        if overlaps_x && b.top() <= ch.bottom() {
            gap[2] = gap[2].min((ch.bottom() - b.top()) as f64);
        }
        if overlaps_x && b.bottom() >= ch.top() {
            gap[3] = gap[3].min((b.bottom() - ch.top()) as f64);
        }
    }
    // Local pattern density: bbox-clipped covered-area fraction of square
    // neighbourhoods around the channel center.
    let density = |r: f64| -> f64 {
        let mut area = 0.0;
        for p in key.targets.iter().chain(key.context.iter()) {
            let b = p.bbox();
            let w = (b.right() as f64).min(cx + r) - (b.left() as f64).max(cx - r);
            let h = (b.top() as f64).min(cy + r) - (b.bottom() as f64).max(cy - r);
            if w > 0.0 && h > 0.0 {
                area += w * h;
            }
        }
        (area / (4.0 * r * r)).min(1.0)
    };
    let win = key.window;
    let edge = (cx - win.left() as f64)
        .min(win.right() as f64 - cx)
        .min(cy - win.bottom() as f64)
        .min(win.top() as f64 - cy);
    vec![
        1.0,
        drawn / 90.0 - 1.0,
        width / 1000.0,
        focus / 60.0,
        (focus / 60.0) * (focus / 60.0),
        dose - 1.0,
        (gap[0] / ambit).clamp(0.0, 1.0),
        (gap[1] / ambit).clamp(0.0, 1.0),
        (gap[2] / ambit).clamp(0.0, 1.0),
        (gap[3] / ambit).clamp(0.0, 1.0),
        density(150.0),
        density(300.0),
        density(450.0),
        win.width() as f64 / 1000.0,
        win.height() as f64 / 1000.0,
        (edge / ambit).clamp(-1.0, 1.0),
    ]
}

impl SurrogateModel {
    /// Trains a model on the tagged gates of `design`: runs the
    /// extraction with the tier recording every novel context and serving
    /// none, starting from `config.surrogate.pretrained` or a fresh model
    /// (`config.surrogate.enabled` is not read), and returns the model
    /// fitted. Under fault injection the tier is bypassed, so the starting
    /// model comes back untrained.
    ///
    /// # Errors
    ///
    /// As [`crate::extract_gates`], plus [`FlowError::Surrogate`] if the
    /// model cannot absorb a sample or refit.
    pub fn train(
        design: &Design,
        config: &ExtractionConfig,
        tags: &TagSet,
    ) -> Result<SurrogateModel> {
        config.validate()?;
        let mut model = config.surrogate.start_model()?;
        extract_gates_in(design, config, tags, None, Some(&mut model))?;
        if !model.is_fitted() {
            model.refit()?;
        }
        Ok(model)
    }
}

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
