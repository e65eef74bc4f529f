//! Monte Carlo statistical timing.
//!
//! Experiment T6's engine: sample per-gate channel lengths either around
//! the *drawn* value (the traditional assumption) or around *extracted*
//! post-OPC values (the paper's proposal), run full STA per sample, and
//! compare the resulting worst-slack distributions against the corner
//! bound.
//!
//! [`run`] evaluates samples through the compiled evaluator
//! ([`crate::CompiledSta`]) along one path: draw every sample's per-gate
//! shift bins, characterize each distinct `(cell, bin)` once into a dense
//! table shared read-only across workers, then evaluate [`LANES`]
//! samples per gate visit against that table. It is bit-identical to
//! [`run_reference`] (one [`TimingModel::analyze`] per sample), the
//! oracle, for the same sample stream.
//!
//! Three [`Sampling`] schemes share one inverse-CDF sampler (the Acklam
//! inverse normal CDF lives in [`postopc_rng`], next to the streams it
//! inverts): plain independent draws, antithetic pairing (sample
//! `2p + 1` negates the normals of sample `2p`, cancelling odd error
//! terms), and tail-targeted importance sampling
//! ([`Sampling::TailIs`]: per-gate draws tilted toward the slow corner
//! along a criticality-weighted sensitivity direction, with exact
//! per-sample log-likelihood-ratio reweighting and self-normalized
//! weighted estimation). A linearized first-order control variate
//! ([`MonteCarloConfig::control_variate`]) composes with every scheme.
//! All are deterministic given the config and thread-count invariant, via
//! per-sample seed splitting.

use crate::annotate::{CdAnnotation, GateAnnotation, TransistorCd};
use crate::compiled::{CompiledSta, SampleCells, LANES};
use crate::error::{Result, StaError};
use crate::graph::TimingModel;
use postopc_layout::GateId;
use postopc_rng::rngs::StdRng;
use postopc_rng::{
    normal_quantile, normal_quantile_central, split_seed, unit_range_f64, LaneRng, RngExt,
    SeedableRng, NORMAL_QUANTILE_P_LOW as P_LOW,
};

/// How per-gate CD shifts are sampled across the run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Sampling {
    /// Independent standard-normal draws per sample (the baseline).
    #[default]
    Plain,
    /// Antithetic pairing: samples `2p` and `2p + 1` share one uniform
    /// stream, with the odd sample's normals negated. First-order (odd)
    /// error terms of the pair cancel, shrinking the variance of smooth
    /// statistics at the same sample count.
    Antithetic,
    /// Tail-targeted importance sampling: every gate's draw distribution
    /// is shifted from `N(0, 1)` to `N(μ_g, 1)`, where the per-gate means
    /// `μ_g` point along the criticality-weighted slack-sensitivity
    /// direction (one extra backward pass over the compiled model, see
    /// `CompiledSta::gate_sensitivities`) with
    /// `Σ μ_g² = tilt²` — so `tilt` is both the slow-corner push in
    /// z-units and the standard deviation of the per-sample
    /// log-likelihood ratio (the weight-degeneracy budget). Each sample
    /// carries the exact log-likelihood ratio
    /// `log w = Σ_g (μ_g²/2 − μ_g z_g)` against the nominal density, and
    /// estimates are self-normalized weighted statistics
    /// ([`MonteCarloResult::weights`]), which concentrates samples — and
    /// so estimator accuracy — on the slow tail the guardband quantiles
    /// read.
    TailIs {
        /// Slow-corner tilt in z-units (`0` degenerates to plain
        /// sampling with unit weights up to rounding; `1.0..=1.5` is the
        /// productive range for q01/q001 estimation).
        tilt: f64,
    },
}

/// Monte Carlo configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloConfig {
    /// Number of samples.
    pub samples: usize,
    /// Standard deviation of the random per-gate CD residual, in nm.
    pub sigma_nm: f64,
    /// RNG seed (runs are deterministic given the config).
    pub seed: u64,
    /// Worker-thread override (`None` resolves `POSTOPC_THREADS`, then
    /// the hardware). Results are identical for any thread count.
    pub threads: Option<usize>,
    /// Variance-reduction scheme for the per-gate shift draws.
    pub sampling: Sampling,
    /// Attach the linearized first-order worst slack (sensitivity
    /// gradient dot sampled shifts) as a control variate: it is exactly
    /// integrable against the nominal normal (`E[C] = 0`), and the
    /// optimal coefficient `β = Cov(Y, C) / Var(C)` is estimated online
    /// from the run itself, so
    /// [`MonteCarloResult::cv_adjusted_mean_worst_slack_ps`] subtracts
    /// the linear part of the sampling noise. Composes with every
    /// [`Sampling`] scheme.
    pub control_variate: bool,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        MonteCarloConfig {
            samples: 500,
            sigma_nm: 2.0,
            seed: 1,
            threads: None,
            sampling: Sampling::Plain,
            control_variate: false,
        }
    }
}

/// Shift-table counters of one Monte Carlo run.
///
/// Diagnostic only, hence excluded from result equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShiftCacheStats {
    /// Per-worker cache hits: always 0, since every lookup reads the
    /// prewarmed table (counted in [`Self::shared_hits`]).
    pub hits: u64,
    /// Device-model runs during evaluation: always 0, since every
    /// `(cell, bin)` a run draws is characterized before evaluation.
    pub misses: u64,
    /// Lookups served by the prewarmed table: one per (gate, lane) of
    /// every evaluated batch, padded tail lanes included.
    pub shared_hits: u64,
    /// Entries characterized once into the table before evaluation (0
    /// for the reference engine, which builds no table).
    pub prewarmed: u64,
}

/// Distribution summary of a Monte Carlo run.
#[derive(Debug, Clone)]
pub struct MonteCarloResult {
    worst_slacks_ps: Vec<f64>,
    critical_delays_ps: Vec<f64>,
    leakages_ua: Vec<f64>,
    /// Worst slacks sorted ascending, computed once at construction so
    /// quantile queries are O(1) instead of a clone+sort per call.
    sorted_worst_slacks_ps: Vec<f64>,
    /// Self-normalized importance weights in sample order; empty means
    /// every sample carries weight `1/n` (all non-IS schemes).
    weights: Vec<f64>,
    /// The weights realigned to `sorted_worst_slacks_ps` (same length
    /// regime as `weights`).
    sorted_weights: Vec<f64>,
    /// Per-sample control-variate values in ps (the linearized
    /// first-order worst slack); empty when the run had no CV.
    control_ps: Vec<f64>,
    /// Sampling scheme that produced the run.
    sampling: Sampling,
    cache_stats: ShiftCacheStats,
}

/// Result equality is over the sampled distributions and the attached
/// estimator state (importance weights, control-variate values), in
/// sample order. [`ShiftCacheStats`] is a diagnostic, so a run and its
/// [`run_reference`] oracle still compare equal.
impl PartialEq for MonteCarloResult {
    fn eq(&self, other: &Self) -> bool {
        self.worst_slacks_ps == other.worst_slacks_ps
            && self.critical_delays_ps == other.critical_delays_ps
            && self.leakages_ua == other.leakages_ua
            && self.weights == other.weights
            && self.control_ps == other.control_ps
    }
}

impl MonteCarloResult {
    /// Assembles a result from per-sample vectors (sample order), sorting
    /// the quantile view once.
    pub fn new(
        worst_slacks_ps: Vec<f64>,
        critical_delays_ps: Vec<f64>,
        leakages_ua: Vec<f64>,
    ) -> MonteCarloResult {
        let sorted_worst_slacks_ps = crate::quantile::sorted_ascending(&worst_slacks_ps);
        MonteCarloResult {
            worst_slacks_ps,
            critical_delays_ps,
            leakages_ua,
            sorted_worst_slacks_ps,
            weights: Vec::new(),
            sorted_weights: Vec::new(),
            control_ps: Vec::new(),
            sampling: Sampling::Plain,
            cache_stats: ShiftCacheStats::default(),
        }
    }

    /// [`Self::new`] with the run's shift-cache counters attached.
    pub fn with_cache_stats(mut self, cache_stats: ShiftCacheStats) -> MonteCarloResult {
        self.cache_stats = cache_stats;
        self
    }

    /// [`Self::new`] with the producing sampling scheme recorded.
    pub fn with_sampling(mut self, sampling: Sampling) -> MonteCarloResult {
        self.sampling = sampling;
        self
    }

    /// Attaches per-sample log-likelihood ratios of an importance-sampled
    /// run: weights are self-normalized ([`normalize_log_weights`],
    /// serially in sample order, so they are identical for any thread
    /// count) and every mean/quantile query becomes weighted.
    ///
    /// # Panics
    ///
    /// Panics if `log_weights` does not cover every sample.
    pub fn with_log_weights(mut self, log_weights: &[f64]) -> MonteCarloResult {
        assert_eq!(
            log_weights.len(),
            self.worst_slacks_ps.len(),
            "one log weight per sample"
        );
        let weights = normalize_log_weights(log_weights);
        let (sorted, sorted_weights) =
            crate::quantile::sorted_with_weights(&self.worst_slacks_ps, &weights);
        self.sorted_worst_slacks_ps = sorted;
        self.sorted_weights = sorted_weights;
        self.weights = weights;
        self
    }

    /// Attaches per-sample control-variate values (ps).
    ///
    /// # Panics
    ///
    /// Panics if `control_ps` does not cover every sample.
    pub fn with_control(mut self, control_ps: Vec<f64>) -> MonteCarloResult {
        assert_eq!(
            control_ps.len(),
            self.worst_slacks_ps.len(),
            "one control value per sample"
        );
        self.control_ps = control_ps;
        self
    }

    /// Shift-table counters of the run that produced this result (zeros
    /// for the naive reference engine, which has no shift table).
    pub fn cache_stats(&self) -> ShiftCacheStats {
        self.cache_stats
    }

    /// Worst slack of each sample, in ps (sample order).
    pub fn worst_slacks_ps(&self) -> &[f64] {
        &self.worst_slacks_ps
    }

    /// Critical delay of each sample, in ps (sample order).
    pub fn critical_delays_ps(&self) -> &[f64] {
        &self.critical_delays_ps
    }

    /// Total leakage of each sample, in µA (sample order).
    pub fn leakages_ua(&self) -> &[f64] {
        &self.leakages_ua
    }

    /// Self-normalized importance weights in sample order (they sum to 1
    /// by construction); empty for unit-weight runs, where every sample
    /// effectively weighs `1/n`.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Per-sample control-variate values in ps (the linearized
    /// first-order worst slack); empty when the run had no CV attached.
    pub fn control_values_ps(&self) -> &[f64] {
        &self.control_ps
    }

    /// The sampling scheme that produced this result.
    pub fn sampling(&self) -> Sampling {
        self.sampling
    }

    /// Weighted mean of `v` under the run's (self-normalized) importance
    /// weights; the plain mean for unit-weight runs.
    fn weighted_mean(&self, v: &[f64]) -> f64 {
        if self.weights.is_empty() {
            mean(v)
        } else {
            self.weights.iter().zip(v).map(|(w, x)| w * x).sum()
        }
    }

    /// Mean of the worst-slack distribution, in ps — the self-normalized
    /// weighted mean for importance-sampled runs.
    pub fn mean_worst_slack_ps(&self) -> f64 {
        self.weighted_mean(&self.worst_slacks_ps)
    }

    /// The control-variate-adjusted mean worst slack, in ps:
    /// `Ȳ_w − β · C̄_w` with `β = Cov_w(Y, C) / Var_w(C)` estimated
    /// online from the run (the optimal linear coefficient) and
    /// `E[C] = 0` exactly under the nominal normal — so on a model whose
    /// worst slack is exactly linear in the sampled shifts, the adjusted
    /// mean reproduces the deterministic value up to rounding, for *any*
    /// seed. Falls back to [`Self::mean_worst_slack_ps`] when the run
    /// carried no control variate or `Var(C)` is degenerate.
    pub fn cv_adjusted_mean_worst_slack_ps(&self) -> f64 {
        if self.control_ps.is_empty() {
            return self.mean_worst_slack_ps();
        }
        let y_bar = self.weighted_mean(&self.worst_slacks_ps);
        let c_bar = self.weighted_mean(&self.control_ps);
        let n = self.worst_slacks_ps.len();
        let uniform = 1.0 / n.max(1) as f64;
        let mut var_c = 0.0;
        let mut cov = 0.0;
        for i in 0..n {
            let w = if self.weights.is_empty() {
                uniform
            } else {
                self.weights[i]
            };
            let dc = self.control_ps[i] - c_bar;
            var_c += w * dc * dc;
            cov += w * (self.worst_slacks_ps[i] - y_bar) * dc;
        }
        let beta = if var_c > f64::MIN_POSITIVE {
            cov / var_c
        } else {
            0.0
        };
        y_bar - beta * c_bar
    }

    /// Standard deviation of the worst-slack distribution, in ps (the
    /// weighted deviation for importance-sampled runs).
    pub fn std_worst_slack_ps(&self) -> f64 {
        if self.weights.is_empty() {
            return std(&self.worst_slacks_ps);
        }
        let m = self.mean_worst_slack_ps();
        self.weights
            .iter()
            .zip(&self.worst_slacks_ps)
            .map(|(w, x)| w * (x - m) * (x - m))
            .sum::<f64>()
            .sqrt()
    }

    /// The `q`-quantile (0..=1) of the worst-slack distribution, in ps.
    ///
    /// Estimated by linear interpolation between order statistics
    /// (Hyndman–Fan type 7, the R/NumPy default): with `n` sorted samples
    /// `x[0..n]`, the position is `h = (n - 1) q` and the estimate
    /// `x[⌊h⌋] + (h - ⌊h⌋) · (x[⌊h⌋+1] - x[⌊h⌋])`. `q = 0` and `q = 1`
    /// return the sample extremes exactly.
    ///
    /// Importance-sampled runs answer with the self-normalized weighted
    /// type-7 estimator instead
    /// ([`crate::quantile::weighted_quantile_of_sorted`]).
    ///
    /// # Panics
    ///
    /// Panics if the result is empty (configs with `samples == 0` are
    /// rejected up front).
    pub fn worst_slack_quantile_ps(&self, q: f64) -> f64 {
        if self.weights.is_empty() {
            crate::quantile::quantile_of_sorted(&self.sorted_worst_slacks_ps, q)
        } else {
            crate::quantile::weighted_quantile_of_sorted(
                &self.sorted_worst_slacks_ps,
                &self.sorted_weights,
                q,
            )
        }
    }

    /// [`Self::worst_slack_quantile_ps`] for several quantiles against the
    /// one cached sorted view — callers needing a quantile profile (e.g.
    /// guardband sweeps) issue one call instead of re-sorting per level.
    ///
    /// # Panics
    ///
    /// Panics if the result is empty (configs with `samples == 0` are
    /// rejected up front).
    pub fn worst_slack_quantiles_ps(&self, qs: &[f64]) -> Vec<f64> {
        qs.iter()
            .map(|&q| self.worst_slack_quantile_ps(q))
            .collect()
    }

    /// Mean critical delay, in ps — the self-normalized weighted mean for
    /// importance-sampled runs, like every other mean.
    pub fn mean_critical_delay_ps(&self) -> f64 {
        self.weighted_mean(&self.critical_delays_ps)
    }

    /// Mean leakage, in µA (weighted for importance-sampled runs).
    pub fn mean_leakage_ua(&self) -> f64 {
        self.weighted_mean(&self.leakages_ua)
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn std(v: &[f64]) -> f64 {
    let m = mean(v);
    (v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / v.len().max(1) as f64).sqrt()
}

/// Self-normalizes per-sample log-likelihood ratios into weights that sum
/// to 1: the running maximum is subtracted before exponentiation (so the
/// largest weight exponentiates exactly 0 and nothing overflows), then
/// the exponentials are normalized by their serial sample-order sum.
/// Every step is serial and deterministic, so the weights are identical
/// for any thread count. Degenerate inputs (empty, or all `-inf`)
/// produce uniform weights.
#[must_use]
pub fn normalize_log_weights(log_weights: &[f64]) -> Vec<f64> {
    let n = log_weights.len();
    let max = log_weights
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    if !max.is_finite() {
        return vec![1.0 / n.max(1) as f64; n];
    }
    let mut w: Vec<f64> = log_weights.iter().map(|lw| (lw - max).exp()).collect();
    let total: f64 = w.iter().sum();
    for x in &mut w {
        *x /= total;
    }
    w
}

fn validate(config: &MonteCarloConfig) -> Result<()> {
    if config.samples == 0 {
        return Err(StaError::InvalidMonteCarlo("samples must be > 0".into()));
    }
    if !(config.sigma_nm.is_finite() && config.sigma_nm >= 0.0) {
        return Err(StaError::InvalidMonteCarlo(format!(
            "sigma must be finite and non-negative, got {}",
            config.sigma_nm
        )));
    }
    if let Sampling::TailIs { tilt } = config.sampling {
        if !(tilt.is_finite() && tilt >= 0.0) {
            return Err(StaError::InvalidMonteCarlo(format!(
                "TailIs tilt must be finite and non-negative, got {tilt}"
            )));
        }
    }
    Ok(())
}

/// Base (systematic) records per gate: the extracted annotation where
/// present, drawn dimensions elsewhere. Both engines reject an annotation
/// naming a gate or net the design does not have, as `evaluate` does.
fn base_records(
    compiled: &CompiledSta<'_>,
    systematic: Option<&CdAnnotation>,
) -> Result<Vec<Vec<TransistorCd>>> {
    let netlist = compiled.model().design().netlist();
    systematic.map_or(Ok(()), |a| a.check_ids(netlist))?;
    Ok((0..netlist.gate_count() as u32)
        .map(|gi| match systematic.and_then(|a| a.gate(GateId(gi))) {
            Some(ann) => ann.transistors.clone(),
            None => compiled.base_records(GateId(gi)).to_vec(),
        })
        .collect())
}

/// Runs Monte Carlo timing through the compiled evaluator.
///
/// Per-gate channel lengths are sampled as
/// `L = base(gate) + N(0, sigma_nm)`, where `base` comes from
/// `systematic` (the extracted annotation) or the drawn dimensions when
/// `systematic` is `None`; wires keep `systematic`'s printed widths in
/// every sample. The same random shift is applied to all fingers of one
/// gate (intra-gate variation is already captured by slice extraction),
/// and the shift is quantized to a `sigma / 16` grid (see
/// [`SHIFT_BINS_PER_SIGMA`]) so characterization memoizes per
/// `(cell, grid bin)` instead of running once per gate per sample.
///
/// The design is compiled once, the whole run's shift bins are drawn,
/// every distinct `(cell, bin)` is characterized once into a read-only
/// table shared across workers, and [`LANES`] samples are evaluated per
/// gate visit against it. Each sample derives its own RNG
/// stream from `(seed, sample index)` (pair index for antithetic
/// sampling), so results are bit-identical to [`run_reference`] and to
/// any thread count.
///
/// # Errors
///
/// Returns [`StaError::InvalidMonteCarlo`] for zero samples or a negative
/// sigma; propagates analysis errors.
pub fn run(
    model: &TimingModel<'_>,
    systematic: Option<&CdAnnotation>,
    config: &MonteCarloConfig,
) -> Result<MonteCarloResult> {
    let compiled = model.compile()?;
    run_with(&compiled, systematic, config)
}

/// [`run`] against an existing compiled evaluator: flows that already
/// hold a [`CompiledSta`] (drawn analysis, corner sweeps) share it
/// instead of compiling a fresh one per Monte Carlo run. Workers still
/// own per-thread scratches internally, so no scratch is taken here.
///
/// # Errors
///
/// Returns [`StaError::InvalidMonteCarlo`] for zero samples or a negative
/// sigma; propagates analysis errors.
pub fn run_with(
    compiled: &CompiledSta<'_>,
    systematic: Option<&CdAnnotation>,
    config: &MonteCarloConfig,
) -> Result<MonteCarloResult> {
    validate(config)?;
    let cells = compiled.sample_cells(&base_records(compiled, systematic)?);
    let wires = compiled.wires(systematic)?;
    let threads = postopc_parallel::effective_threads(config.threads);
    let tilt = tilt_plan(compiled, &cells, systematic, config)?;
    let sampler = ShiftSampler::new(config, tilt.as_ref());
    let n = config.samples;
    let n_gates = cells.cell_of_gate.len();

    // Phase 1 — sampling: one bin block per LANES-wide batch, already in
    // the gate-major `block[gate * LANES + lane]` layout the evaluation
    // hot loop reads — the lockstep lane fill writes it directly.
    let batch_indices: Vec<usize> = (0..n.div_ceil(LANES)).collect();
    let blocks: Vec<BinBlock> = postopc_parallel::par_map_init(
        threads,
        &batch_indices,
        FillBuffers::default,
        |buf, _, &batch| {
            let mut block = BinBlock {
                bins: vec![0i32; n_gates * LANES],
                logw: [0.0; LANES],
                cv: [0.0; LANES],
            };
            sampler.fill_bins_block(
                batch * LANES,
                n,
                buf,
                &mut block.bins,
                &mut block.logw,
                &mut block.cv,
            );
            block
        },
    );

    // Phase 2 — the shift table: every distinct (cell, bin) of the whole
    // run, characterized exactly once.
    let table = compiled.shift_table(
        &cells,
        blocks.iter().map(|block| block.bins.as_slice()),
        shift_step(config.sigma_nm),
        threads,
    )?;

    // Phase 3 — evaluation: contiguous LANES-wide batches in input order.
    // Tail lanes past the last sample repeat the final sample's bins and
    // are discarded (the kernel always evaluates every lane).
    let summaries = postopc_parallel::try_par_map_batched_init(
        threads,
        n,
        LANES,
        || compiled.scratch(),
        |scratch, range| {
            let block = &blocks[range.start / LANES].bins;
            let lanes = compiled.evaluate_shifted_batch(scratch, &cells, &table, block, &wires)?;
            Ok::<_, StaError>(range.clone().map(|s| lanes[s - range.start]).collect())
        },
    )?;
    let stats = ShiftCacheStats {
        // Every (gate, lane) of every batch read the table; a miss would
        // have failed the run.
        shared_hits: (n_gates * LANES * blocks.len()) as u64,
        prewarmed: table.entries() as u64,
        ..ShiftCacheStats::default()
    };
    let mut worst = Vec::with_capacity(n);
    let mut delays = Vec::with_capacity(n);
    let mut leaks = Vec::with_capacity(n);
    for s in summaries {
        worst.push(s.worst_slack_ps);
        delays.push(s.critical_delay_ps);
        leaks.push(s.leakage_ua);
    }
    let logw: Vec<f64> = (0..n).map(|s| blocks[s / LANES].logw[s % LANES]).collect();
    let cv: Vec<f64> = (0..n).map(|s| blocks[s / LANES].cv[s % LANES]).collect();
    let result = MonteCarloResult::new(worst, delays, leaks).with_cache_stats(stats);
    Ok(finish(config, result, &logw, cv))
}

/// The per-gate tilt direction of a run: proposal means `mu` (z-units,
/// `Σ mu² = tilt²`) for importance sampling and linearization
/// coefficients `a` (ps per z-unit of the gate's draw) for the control
/// variate. Both point along the same criticality-weighted sensitivity
/// direction `raw_g = softcrit_g · max(∂D/∂L, 0)`, where `softcrit`
/// decays exponentially in the gate's slack excess over the worst slack
/// (scale: the delay spread three sigma of CD noise produces on an
/// average stage — gates whose slack margin exceeds what CD noise can
/// erase contribute nothing).
struct TiltPlan {
    mu: Vec<f64>,
    a: Vec<f64>,
}

/// Builds the tilt plan when the config needs one (importance sampling
/// and/or control variate): one zero-shift baseline evaluation plus two
/// characterizations per distinct cell
/// ([`CompiledSta::gate_sensitivities`]), computed serially once per run
/// so every worker — and the reference — shares bit-identical `mu`/`a`.
fn tilt_plan(
    compiled: &CompiledSta<'_>,
    cells: &SampleCells,
    systematic: Option<&CdAnnotation>,
    config: &MonteCarloConfig,
) -> Result<Option<TiltPlan>> {
    let tilt = match config.sampling {
        Sampling::TailIs { tilt } => tilt,
        _ if config.control_variate => 0.0,
        _ => return Ok(None),
    };
    // Central-difference step: one shift-grid bin, or a fixed sub-nm step
    // when sigma is 0 (the plan is still needed for the CV coefficients'
    // criticality weighting, even though `a` then collapses to zeros).
    let step_nm = if config.sigma_nm == 0.0 {
        0.125
    } else {
        shift_step(config.sigma_nm)
    };
    let mut scratch = compiled.scratch();
    let sens = compiled.gate_sensitivities(&mut scratch, cells, systematic, step_nm)?;
    let n = sens.slack_ps.len();
    let mean_abs_d = if n == 0 {
        0.0
    } else {
        sens.ddelay_dl_ps_per_nm
            .iter()
            .map(|d| d.abs())
            .sum::<f64>()
            / n as f64
    };
    let crit_scale_ps = 3.0 * config.sigma_nm * mean_abs_d + 1e-9;
    let mut raw = Vec::with_capacity(n);
    for g in 0..n {
        let excess_ps = (sens.slack_ps[g] - sens.worst_slack_ps).max(0.0);
        let softcrit = (-excess_ps / crit_scale_ps).exp();
        raw.push(softcrit * sens.ddelay_dl_ps_per_nm[g].max(0.0));
    }
    let norm = raw.iter().map(|r| r * r).sum::<f64>().sqrt();
    let mu = if norm > 0.0 {
        raw.iter().map(|r| tilt * r / norm).collect()
    } else {
        vec![0.0; n]
    };
    // ps of linearized worst-slack *decrease* per z-unit: a positive
    // shift (longer channel) on a sensitivity-positive gate adds delay,
    // so the control variate `C = Σ a_g z_g` moves with the worst slack.
    let a = raw.iter().map(|r| -r * config.sigma_nm).collect();
    Ok(Some(TiltPlan { mu, a }))
}

/// One gate's contribution to a sample's log-likelihood ratio against the
/// nominal density, `log φ(z) − log φ(z − μ)` for the *post-tilt* draw
/// `z`. Shared verbatim by the streaming sampler and the block fill —
/// bit-identical accumulation is what makes the engine and the reference
/// agree.
#[inline]
fn logw_term(mu: f64, z: f64) -> f64 {
    0.5 * mu * mu - mu * z
}

/// One gate's contribution to a sample's control-variate value (ps).
#[inline]
fn cv_term(a: f64, z: f64) -> f64 {
    a * z
}

/// Assembles a result with the estimator state the config calls for:
/// sampling scheme always, self-normalized weights for importance
/// sampling, control values when the CV was attached.
fn finish(
    config: &MonteCarloConfig,
    result: MonteCarloResult,
    log_weights: &[f64],
    control_ps: Vec<f64>,
) -> MonteCarloResult {
    let mut result = result.with_sampling(config.sampling);
    if matches!(config.sampling, Sampling::TailIs { .. }) {
        result = result.with_log_weights(log_weights);
    }
    if config.control_variate {
        result = result.with_control(control_ps);
    }
    result
}

/// One [`LANES`]-wide batch of the sampling phase: the
/// gate-major shift bins plus each lane's accumulated log-likelihood
/// ratio and control-variate value (both 0 for schemes that carry
/// neither).
struct BinBlock {
    bins: Vec<i32>,
    logw: [f64; LANES],
    cv: [f64; LANES],
}

/// The naive Monte Carlo baseline: one full [`TimingModel::analyze`] —
/// fresh annotation HashMap, wires, characterization and report vectors —
/// per sample.
///
/// The oracle [`run`] is benchmarked against and proven bit-identical to;
/// use [`run`] everywhere else. Consumes the same per-sample streams as
/// [`run`] for every [`Sampling`] scheme.
///
/// # Errors
///
/// Returns [`StaError::InvalidMonteCarlo`] for zero samples or a negative
/// sigma; propagates analysis errors.
pub fn run_reference(
    model: &TimingModel<'_>,
    systematic: Option<&CdAnnotation>,
    config: &MonteCarloConfig,
) -> Result<MonteCarloResult> {
    validate(config)?;
    // The tilt plan reads sensitivities off the compiled evaluator —
    // compile one here just for the plan (it is deterministic, so the
    // reference sees bit-identical `mu`/`a` to [`run`]).
    let compiled = model.compile()?;
    let bases = base_records(&compiled, systematic)?;
    let cells = compiled.sample_cells(&bases);
    let tilt = tilt_plan(&compiled, &cells, systematic, config)?;
    let sampler = ShiftSampler::new(config, tilt.as_ref());
    let sample_indices: Vec<u64> = (0..config.samples as u64).collect();
    let threads = postopc_parallel::effective_threads(config.threads);
    let reports = postopc_parallel::try_par_map(threads, &sample_indices, |_, &sample| {
        let mut stream = sampler.stream(sample);
        let mut ann = CdAnnotation::new();
        for (&net, &wire) in systematic.into_iter().flat_map(CdAnnotation::nets) {
            ann.set_net(net, wire);
        }
        for (gi, base) in bases.iter().enumerate() {
            let (_, shift) = sampler.shift(&mut stream, gi);
            let mut records = base.clone();
            for r in &mut records {
                r.l_delay_nm = (r.l_delay_nm + shift).max(1.0);
                r.l_leakage_nm = (r.l_leakage_nm + shift).max(1.0);
            }
            ann.set_gate(
                GateId(gi as u32),
                GateAnnotation {
                    transistors: records,
                },
            );
        }
        let report = model.analyze(Some(&ann))?;
        Ok::<_, StaError>((
            report.worst_slack_ps(),
            report.critical_delay_ps(),
            report.leakage_ua(),
            stream.logw,
            stream.cv,
        ))
    })?;
    let mut worst = Vec::with_capacity(config.samples);
    let mut delays = Vec::with_capacity(config.samples);
    let mut leaks = Vec::with_capacity(config.samples);
    let mut logw = Vec::with_capacity(config.samples);
    let mut cv = Vec::with_capacity(config.samples);
    for (slack, delay, leakage, lw, c) in reports {
        worst.push(slack);
        delays.push(delay);
        leaks.push(leakage);
        logw.push(lw);
        cv.push(c);
    }
    Ok(finish(
        config,
        MonteCarloResult::new(worst, delays, leaks),
        &logw,
        cv,
    ))
}

/// One point of a variance-reduction convergence study: the worst-slack
/// estimation errors of `(sampling, samples)` against a high-sample
/// reference, averaged over seeds, with the mean per-run wall clock.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergencePoint {
    /// Sampling scheme of this point.
    pub sampling: Sampling,
    /// Samples per run.
    pub samples: usize,
    /// Mean absolute 1%-quantile worst-slack error vs the reference, ps.
    pub q01_abs_err_ps: f64,
    /// Mean absolute 0.1%-quantile worst-slack error vs the reference,
    /// ps — the deep-tail statistic [`Sampling::TailIs`] targets.
    pub q001_abs_err_ps: f64,
    /// Mean absolute mean-worst-slack error vs the reference, ps. The
    /// statistic antithetic sampling actually collapses: pairing cancels
    /// the leading error terms of *smooth* estimators, while a deep tail
    /// order statistic of the max-type worst slack keeps most of its
    /// sampling noise (see the accuracy rows of `BENCH_sta.json`).
    pub mean_abs_err_ps: f64,
}

/// Measures convergence of sampling schemes against a high-sample plain
/// reference run: for each `(sampling, samples)` point, runs one Monte
/// Carlo per seed in `seeds` (re-seeded from `base.seed` xor the entry)
/// and reports the mean absolute errors of the worst-slack mean and
/// 1%- and 0.1%-quantiles — the data behind the accuracy rows of
/// `BENCH_sta.json` and their CI checks.
///
/// `reference_samples` should be several times the largest point (the
/// reference uses plain sampling and `base.seed`).
///
/// # Errors
///
/// Propagates configuration and analysis errors from the underlying runs.
pub fn convergence_study(
    compiled: &CompiledSta<'_>,
    systematic: Option<&CdAnnotation>,
    base: &MonteCarloConfig,
    reference_samples: usize,
    points: &[(Sampling, usize)],
    seeds: &[u64],
) -> Result<Vec<ConvergencePoint>> {
    let reference = run_with(
        compiled,
        systematic,
        &MonteCarloConfig {
            samples: reference_samples,
            sampling: Sampling::Plain,
            ..base.clone()
        },
    )?;
    let ref_q01 = reference.worst_slack_quantile_ps(0.01);
    let ref_q001 = reference.worst_slack_quantile_ps(0.001);
    let ref_mean = reference.mean_worst_slack_ps();
    let mut out = Vec::with_capacity(points.len());
    for &(sampling, samples) in points {
        let mut q01_err_sum = 0.0;
        let mut q001_err_sum = 0.0;
        let mut mean_err_sum = 0.0;
        for &seed in seeds {
            let cfg = MonteCarloConfig {
                samples,
                sampling,
                seed: base.seed ^ seed,
                ..base.clone()
            };
            let mc = run_with(compiled, systematic, &cfg)?;
            q01_err_sum += (mc.worst_slack_quantile_ps(0.01) - ref_q01).abs();
            q001_err_sum += (mc.worst_slack_quantile_ps(0.001) - ref_q001).abs();
            mean_err_sum += (mc.cv_adjusted_mean_worst_slack_ps() - ref_mean).abs();
        }
        let runs = seeds.len().max(1) as f64;
        out.push(ConvergencePoint {
            sampling,
            samples,
            q01_abs_err_ps: q01_err_sum / runs,
            q001_abs_err_ps: q001_err_sum / runs,
            mean_abs_err_ps: mean_err_sum / runs,
        });
    }
    Ok(out)
}

/// Shift-grid resolution: bins per sigma. The sampled distribution is a
/// normal discretized to steps of `sigma / 16` — a quantization error of
/// at most `sigma / 32` (3% of sigma), far below Monte Carlo sampling
/// noise at any practical sample count, in exchange for characterization
/// collapsing to one device-model run per `(cell, bin)`.
pub const SHIFT_BINS_PER_SIGMA: f64 = 16.0;

/// Width of one shift-grid bin in nm (0 when sigma is 0, where every
/// draw collapses to bin 0 with a zero shift).
fn shift_step(sigma_nm: f64) -> f64 {
    if sigma_nm == 0.0 {
        0.0
    } else {
        sigma_nm / SHIFT_BINS_PER_SIGMA
    }
}

/// Quantizes a raw shift (nm) to the grid: returns the grid bin and the
/// shift `bin * step` exactly — the bin is the table identity of the
/// shift, and `bin as f64 * step` reproduces the shift bit for bit (the
/// shift table stores only bins and rebuilds shifts that way).
fn quantize(raw_nm: f64, sigma_nm: f64) -> (i32, f64) {
    if sigma_nm == 0.0 {
        return (0, 0.0);
    }
    let step = sigma_nm / SHIFT_BINS_PER_SIGMA;
    let bin = quantize_bin(raw_nm, SHIFT_BINS_PER_SIGMA / sigma_nm);
    (bin, f64::from(bin) * step)
}

/// The bin of a raw shift given the precomputed inverse step
/// (`SHIFT_BINS_PER_SIGMA / sigma`). Rounds half-to-even — a single
/// rounding instruction, so the block fill vectorizes — and is the one
/// rounding rule both sampler paths share (ties sit exactly between two
/// grid points; either neighbour is an equally valid discretization, it
/// only has to be the *same* one everywhere).
#[inline]
fn quantize_bin(raw_nm: f64, inv_step: f64) -> i32 {
    (raw_nm * inv_step).round_ties_even() as i32
}

/// The per-gate CD shift sampler shared by [`run`] and [`run_reference`].
/// One instance per run; [`Self::stream`] derives a sample's
/// deterministic stream and [`Self::shift`] draws that sample's per-gate
/// shifts from it in gate order, while [`Self::fill_bins_block`] draws
/// [`LANES`] samples' bins at once. Every scheme consumes exactly one
/// uniform per gate, mapped through the inverse normal CDF.
struct ShiftSampler<'a> {
    sigma_nm: f64,
    seed: u64,
    sampling: Sampling,
    /// Per-gate proposal means of an importance-sampled run, z-units
    /// ([`TiltPlan::mu`]); `None` for nominal-density schemes.
    mu: Option<&'a [f64]>,
    /// Per-gate control-variate coefficients ([`TiltPlan::a`]); `None`
    /// when the run carries no control variate.
    cv: Option<&'a [f64]>,
}

/// One sample's deterministic draw state.
struct SampleStream {
    rng: StdRng,
    /// Negate the normal draws (odd half of an antithetic pair).
    negate: bool,
    /// Accumulated log-likelihood ratio vs the nominal density (0 unless
    /// importance sampling).
    logw: f64,
    /// Accumulated control-variate value, ps (0 unless the CV is on).
    cv: f64,
}

impl<'a> ShiftSampler<'a> {
    /// The sampler of `config`, reading the proposal means and the CV
    /// coefficients off `tilt` when the config asks for them.
    fn new(config: &MonteCarloConfig, tilt: Option<&'a TiltPlan>) -> ShiftSampler<'a> {
        let tail = matches!(config.sampling, Sampling::TailIs { .. });
        ShiftSampler {
            sigma_nm: config.sigma_nm,
            seed: config.seed,
            sampling: config.sampling,
            mu: tilt.filter(|_| tail).map(|t| t.mu.as_slice()),
            cv: tilt
                .filter(|_| config.control_variate)
                .map(|t| t.a.as_slice()),
        }
    }

    /// The stream index and negation of sample `sample`: antithetic pairs
    /// share the pair index's stream, the odd half negated.
    fn stream_of(&self, sample: u64) -> (u64, bool) {
        match self.sampling {
            Sampling::Antithetic => (sample >> 1, sample & 1 == 1),
            Sampling::Plain | Sampling::TailIs { .. } => (sample, false),
        }
    }

    /// The deterministic stream of sample `sample`.
    fn stream(&self, sample: u64) -> SampleStream {
        let (stream_index, negate) = self.stream_of(sample);
        SampleStream {
            rng: StdRng::seed_from_u64(split_seed(self.seed, stream_index)),
            negate,
            logw: 0.0,
            cv: 0.0,
        }
    }

    /// The `(grid bin, shift nm)` of gate `gate` in this stream — called
    /// in gate order, consuming one uniform per gate and accumulating the
    /// stream's log-likelihood ratio and control-variate value as a side
    /// effect.
    fn shift(&self, stream: &mut SampleStream, gate: usize) -> (i32, f64) {
        let u = stream.rng.random_range(f64::EPSILON..1.0);
        let mut z = normal_quantile(u);
        if stream.negate {
            z = -z;
        }
        if let Some(mu_all) = self.mu {
            // Importance tilt: draw from N(mu, 1) by shifting the nominal
            // draw, and accumulate the exact log-likelihood ratio of the
            // *post-tilt, pre-quantization* value.
            let mu = mu_all[gate];
            z += mu;
            stream.logw += logw_term(mu, z);
        }
        if let Some(a) = self.cv {
            stream.cv += cv_term(a[gate], z);
        }
        quantize(z * self.sigma_nm, self.sigma_nm)
    }

    /// Fills one [`LANES`]-wide batch block of shift bins, laid out
    /// `block[gate * LANES + lane]` — bit-for-bit the bins [`Self::shift`]
    /// streams for samples `first + lane` (clamped to `n_samples - 1`;
    /// tail lanes replay the last live sample, exactly the padding the
    /// batch evaluator discards).
    ///
    /// Staged for throughput: the [`LANES`] per-sample generators step in
    /// lockstep ([`LaneRng`]), so the draw loop, the central branch of
    /// the quantile inversion and the quantization all run as
    /// straight-line lane loops that autovectorize; the rare tail draws
    /// (~4.9%) are then overwritten through the exact tail branches.
    /// Identical operations on identical values as the streaming path —
    /// the `block_fill_matches_streaming_shifts` unit test and the
    /// batched parity suite hold it there.
    fn fill_bins_block(
        &self,
        first: usize,
        n_samples: usize,
        buf: &mut FillBuffers,
        block: &mut [i32],
        logw: &mut [f64; LANES],
        cv: &mut [f64; LANES],
    ) {
        if self.sigma_nm == 0.0 && self.mu.is_none() && self.cv.is_none() {
            // `quantize` collapses every draw to bin 0 at zero sigma, and
            // with neither accumulator there is nothing else to compute.
            block.fill(0);
            return;
        }
        let n_gates = block.len() / LANES;
        let last = n_samples - 1;
        let mut negate = [false; LANES];
        let mut seeds = [0u64; LANES];
        for l in 0..LANES {
            let (stream_index, neg) = self.stream_of((first + l).min(last) as u64);
            negate[l] = neg;
            seeds[l] = split_seed(self.seed, stream_index);
        }
        let mut rng: LaneRng<LANES> = LaneRng::seed_from(seeds);
        buf.p.resize(block.len(), 0.0);
        for row in buf.p.chunks_exact_mut(LANES) {
            let raws = rng.next_u64s();
            for l in 0..LANES {
                row[l] = unit_range_f64(raws[l], f64::EPSILON, 1.0);
            }
        }
        buf.tails.clear();
        for (i, &p) in buf.p.iter().enumerate() {
            if !(P_LOW..=1.0 - P_LOW).contains(&p) {
                buf.tails.push((i as u32, p));
            }
        }
        for z in buf.p.iter_mut() {
            *z = normal_quantile_central(*z);
        }
        for &(i, p) in &buf.tails {
            buf.p[i as usize] = normal_quantile(p);
        }
        // Importance tilt and control variate ride the z buffer before
        // quantization, per accumulator in gate order — each lane's sums
        // add the exact [`logw_term`]/[`cv_term`] sequence the streaming
        // sampler adds, so the accumulators agree bit for bit. The tilt
        // only exists for [`Sampling::TailIs`], which never negates, so
        // adding `mu` to the pre-negation rows matches the stream's
        // post-negation add.
        if let Some(mu_all) = self.mu {
            for (gate, row) in buf.p.chunks_exact_mut(LANES).enumerate().take(n_gates) {
                let mu = mu_all[gate];
                for l in 0..LANES {
                    row[l] += mu;
                    logw[l] += logw_term(mu, row[l]);
                }
            }
        }
        if let Some(a_all) = self.cv {
            for (gate, row) in buf.p.chunks_exact(LANES).enumerate().take(n_gates) {
                let a = a_all[gate];
                for l in 0..LANES {
                    // The stream sees the post-negation z; rows hold the
                    // pre-negation value, so flip explicitly (exact IEEE
                    // sign flip, same bits as the stream's).
                    let z = if negate[l] { -row[l] } else { row[l] };
                    cv[l] += cv_term(a, z);
                }
            }
        }
        if self.sigma_nm == 0.0 {
            // Accumulators were still needed; the bins all collapse to 0
            // (`quantize` at zero sigma), matching the streaming path.
            block.fill(0);
            return;
        }
        // `-z * s == z * -s` exactly (an IEEE sign flip either way), so
        // each lane's antithetic negation rides its sigma scale factor.
        let mut sigma = [self.sigma_nm; LANES];
        for l in 0..LANES {
            if negate[l] {
                sigma[l] = -self.sigma_nm;
            }
        }
        let inv_step = SHIFT_BINS_PER_SIGMA / self.sigma_nm;
        for (row_bin, row_z) in block.chunks_exact_mut(LANES).zip(buf.p.chunks_exact(LANES)) {
            for l in 0..LANES {
                row_bin[l] = quantize_bin(row_z[l] * sigma[l], inv_step);
            }
        }
    }
}

/// Reusable per-worker staging for [`ShiftSampler::fill_bins_block`]: the
/// uniform-then-z buffer and the (index, uniform) pairs that landed in
/// the quantile's tail branches.
#[derive(Default)]
struct FillBuffers {
    p: Vec<f64>,
    tails: Vec<(u32, f64)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::NetAnnotation;
    use postopc_device::ProcessParams;
    use postopc_layout::{generate, Design, NetId, TechRules};

    fn design() -> Design {
        Design::compile(
            generate::ripple_carry_adder(2).expect("netlist"),
            TechRules::n90(),
        )
        .expect("design")
    }

    #[test]
    fn rejects_bad_config() {
        let d = design();
        let m = TimingModel::new(&d, ProcessParams::n90(), 800.0).expect("model");
        assert!(run(
            &m,
            None,
            &MonteCarloConfig {
                samples: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(run(
            &m,
            None,
            &MonteCarloConfig {
                sigma_nm: -1.0,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let d = design();
        let m = TimingModel::new(&d, ProcessParams::n90(), 800.0).expect("model");
        for sampling in [
            Sampling::Plain,
            Sampling::Antithetic,
            Sampling::TailIs { tilt: 1.0 },
        ] {
            let cfg = MonteCarloConfig {
                samples: 20,
                sigma_nm: 2.0,
                seed: 42,
                sampling,
                ..Default::default()
            };
            let a = run(&m, None, &cfg).expect("mc");
            let b = run(&m, None, &cfg).expect("mc");
            assert_eq!(a.worst_slacks_ps(), b.worst_slacks_ps());
            assert_eq!(a.weights(), b.weights());
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let d = design();
        let m = TimingModel::new(&d, ProcessParams::n90(), 800.0).expect("model");
        for sampling in [
            Sampling::Plain,
            Sampling::Antithetic,
            Sampling::TailIs { tilt: 1.0 },
        ] {
            // Four LANES-wide batches per worker at the widest count, so
            // the partition has batches to split among the workers, and a
            // lane remainder.
            let base = MonteCarloConfig {
                samples: 4 * 7 * LANES + 5,
                sigma_nm: 2.0,
                seed: 5,
                threads: Some(1),
                sampling,
                control_variate: true,
            };
            let one = run(&m, None, &base).expect("mc");
            for threads in [2, 4, 7] {
                let cfg = MonteCarloConfig {
                    threads: Some(threads),
                    ..base.clone()
                };
                let many = run(&m, None, &cfg).expect("mc");
                assert_eq!(one, many, "threads = {threads}, {sampling:?}");
            }
        }
    }

    #[test]
    fn zero_sigma_collapses_to_nominal() {
        let d = design();
        let m = TimingModel::new(&d, ProcessParams::n90(), 800.0).expect("model");
        let cfg = MonteCarloConfig {
            samples: 5,
            sigma_nm: 0.0,
            seed: 1,
            ..Default::default()
        };
        let mc = run(&m, None, &cfg).expect("mc");
        let nominal = m.analyze(None).expect("nominal");
        for &s in mc.worst_slacks_ps() {
            assert!((s - nominal.worst_slack_ps()).abs() < 1e-9);
        }
        assert!(mc.std_worst_slack_ps() < 1e-12);
    }

    #[test]
    fn zero_sigma_keeps_the_printed_wires_it_samples_around() {
        // Samples vary gate CDs around the systematic annotation; its
        // printed wire widths stay in every sample, in both engines and in
        // the tilt plan's baseline.
        let d = design();
        let m = TimingModel::new(&d, ProcessParams::n90(), 800.0).expect("model");
        let mut ann = crate::corners::corner_annotation(&m, 1.0);
        let gates_only = m.analyze(Some(&ann)).expect("gates only").worst_slack_ps();
        let printed_width_nm = 100.0;
        for n in 0..d.netlist().nets().len() {
            ann.set_net(NetId(n as u32), NetAnnotation { printed_width_nm });
        }
        let compiled = m.compile().expect("compile");
        let nominal = compiled.evaluate(&mut compiled.scratch(), Some(&ann));
        let nominal = nominal.expect("nominal").worst_slack_ps();
        assert!(
            (nominal - gates_only).abs() > 1e-3,
            "the wires move the baseline"
        );
        for sampling in [Sampling::Plain, Sampling::TailIs { tilt: 1.0 }] {
            let cfg = MonteCarloConfig {
                samples: 11,
                sigma_nm: 0.0,
                sampling,
                control_variate: true,
                ..Default::default()
            };
            let batched = run(&m, Some(&ann), &cfg).expect("mc");
            let naive = run_reference(&m, Some(&ann), &cfg).expect("reference");
            for s in batched
                .worst_slacks_ps()
                .iter()
                .chain(naive.worst_slacks_ps())
            {
                assert!((s - nominal).abs() < 1e-9, "{s} vs {nominal}, {sampling:?}");
            }
        }
        // A net the design lacks is a typed error in both engines.
        ann.set_net(NetId(10_000), NetAnnotation { printed_width_nm });
        for engine in [run, run_reference] {
            let err = engine(&m, Some(&ann), &MonteCarloConfig::default()).expect_err("net");
            assert!(matches!(
                err,
                StaError::UnknownAnnotation { kind: "net", .. }
            ));
        }
    }

    #[test]
    fn variance_grows_with_sigma() {
        let d = design();
        let m = TimingModel::new(&d, ProcessParams::n90(), 800.0).expect("model");
        let small = run(
            &m,
            None,
            &MonteCarloConfig {
                samples: 60,
                sigma_nm: 1.0,
                seed: 3,
                ..Default::default()
            },
        )
        .expect("mc");
        let large = run(
            &m,
            None,
            &MonteCarloConfig {
                samples: 60,
                sigma_nm: 4.0,
                seed: 3,
                ..Default::default()
            },
        )
        .expect("mc");
        assert!(large.std_worst_slack_ps() > 2.0 * small.std_worst_slack_ps());
    }

    #[test]
    fn quantiles_are_ordered() {
        let d = design();
        let m = TimingModel::new(&d, ProcessParams::n90(), 800.0).expect("model");
        let mc = run(
            &m,
            None,
            &MonteCarloConfig {
                samples: 100,
                sigma_nm: 2.0,
                seed: 9,
                ..Default::default()
            },
        )
        .expect("mc");
        let q01 = mc.worst_slack_quantile_ps(0.01);
        let q50 = mc.worst_slack_quantile_ps(0.5);
        let q99 = mc.worst_slack_quantile_ps(0.99);
        assert!(q01 <= q50 && q50 <= q99);
        assert!((q50 - mc.mean_worst_slack_ps()).abs() < 3.0 * mc.std_worst_slack_ps() + 1e-9);
        // The cached quantile view spans the sample extremes exactly.
        assert_eq!(
            mc.worst_slack_quantile_ps(0.0),
            mc.worst_slacks_ps()
                .iter()
                .cloned()
                .fold(f64::INFINITY, f64::min)
        );
        assert_eq!(
            mc.worst_slack_quantile_ps(1.0),
            mc.worst_slacks_ps()
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max)
        );
        // The multi-quantile helper matches the scalar queries.
        assert_eq!(
            mc.worst_slack_quantiles_ps(&[0.01, 0.5, 0.99]),
            vec![q01, q50, q99]
        );
    }

    #[test]
    fn antithetic_pairs_mirror_each_other() {
        let cfg = MonteCarloConfig {
            samples: 8,
            sigma_nm: 2.0,
            seed: 21,
            sampling: Sampling::Antithetic,
            ..Default::default()
        };
        let sampler = ShiftSampler::new(&cfg, None);
        let mut even = sampler.stream(4);
        let mut odd = sampler.stream(5);
        for gate in 0..10 {
            let (be, se) = sampler.shift(&mut even, gate);
            let (bo, so) = sampler.shift(&mut odd, gate);
            assert_eq!(be, -bo, "gate {gate}");
            assert_eq!(se, -so, "gate {gate}");
        }
    }

    #[test]
    fn block_fill_matches_streaming_shifts() {
        // The block fill must reproduce the streaming sampler bit for bit
        // (bins, log weights, control values) — the stream is what the
        // reference consumes, the block what `run` evaluates. Two full
        // batches plus a partial tail batch, whose padded lanes replay the
        // last live sample.
        let n_gates = 37;
        let mu: Vec<f64> = (0..n_gates).map(|g| 0.05 * g as f64 - 0.6).collect();
        let a: Vec<f64> = (0..n_gates).map(|g| 2.5 - 0.3 * g as f64).collect();
        let n_samples = 2 * LANES + 3;
        let mut buf = FillBuffers::default();
        for sampling in [
            Sampling::Plain,
            Sampling::Antithetic,
            Sampling::TailIs { tilt: 1.2 },
        ] {
            for control in [false, true] {
                for sigma_nm in [1.5, 0.0] {
                    let sampler = ShiftSampler {
                        sigma_nm,
                        seed: 29,
                        sampling,
                        mu: matches!(sampling, Sampling::TailIs { .. }).then_some(mu.as_slice()),
                        cv: control.then_some(a.as_slice()),
                    };
                    let label = format!("{sampling:?} cv={control} sigma={sigma_nm}");
                    for first in (0..n_samples).step_by(LANES) {
                        let mut bins = vec![0i32; n_gates * LANES];
                        let mut logw = [0.0; LANES];
                        let mut cv = [0.0; LANES];
                        sampler.fill_bins_block(
                            first, n_samples, &mut buf, &mut bins, &mut logw, &mut cv,
                        );
                        for lane in 0..LANES {
                            let sample = (first + lane).min(n_samples - 1);
                            let mut stream = sampler.stream(sample as u64);
                            for gate in 0..n_gates {
                                let (bin, shift) = sampler.shift(&mut stream, gate);
                                assert_eq!(
                                    bins[gate * LANES + lane],
                                    bin,
                                    "{label} sample {sample} gate {gate}"
                                );
                                // The table rebuilds the shift from the bin.
                                let rebuilt = f64::from(bin) * shift_step(sigma_nm);
                                assert_eq!(rebuilt.to_bits(), shift.to_bits(), "{label}");
                            }
                            assert_eq!(
                                logw[lane].to_bits(),
                                stream.logw.to_bits(),
                                "{label} sample {sample}"
                            );
                            assert_eq!(
                                cv[lane].to_bits(),
                                stream.cv.to_bits(),
                                "{label} sample {sample}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn reports_table_stats() {
        let d = design();
        let m = TimingModel::new(&d, ProcessParams::n90(), 800.0).expect("model");
        // Fewer samples than one batch, a partial tail after full batches,
        // and an exact multiple of the batch, for plain and antithetic
        // sampling.
        for sampling in [Sampling::Plain, Sampling::Antithetic] {
            for samples in [LANES - 1, 3 * LANES + 3, 5 * LANES] {
                let cfg = MonteCarloConfig {
                    samples,
                    sigma_nm: 2.0,
                    seed: 7,
                    sampling,
                    ..Default::default()
                };
                let mc = run(&m, None, &cfg).expect("mc");
                let stats = mc.cache_stats();
                // Every (cell, bin) of the run is prewarmed, so the hot
                // loop never misses and every lookup lands in the table.
                assert!(stats.prewarmed > 0);
                assert_eq!((stats.hits, stats.misses), (0, 0));
                assert_eq!(
                    stats.shared_hits,
                    (d.netlist().gate_count() * samples.div_ceil(LANES) * LANES) as u64,
                    "{sampling:?}, {samples} samples"
                );
                // The oracle builds no table.
                let reference = run_reference(&m, None, &cfg).expect("reference");
                assert_eq!(reference.cache_stats(), ShiftCacheStats::default());
            }
        }
    }

    #[test]
    fn rejects_bad_tilt() {
        let d = design();
        let m = TimingModel::new(&d, ProcessParams::n90(), 800.0).expect("model");
        for tilt in [-1.0, f64::NAN, f64::INFINITY] {
            assert!(
                run(
                    &m,
                    None,
                    &MonteCarloConfig {
                        sampling: Sampling::TailIs { tilt },
                        ..Default::default()
                    }
                )
                .is_err(),
                "tilt {tilt}"
            );
        }
    }

    #[test]
    fn tail_is_weights_are_normalized_and_estimates_stay_sane() {
        let d = design();
        let m = TimingModel::new(&d, ProcessParams::n90(), 800.0).expect("model");
        let plain = run(
            &m,
            None,
            &MonteCarloConfig {
                samples: 400,
                sigma_nm: 2.0,
                seed: 13,
                ..Default::default()
            },
        )
        .expect("plain");
        let tail = run(
            &m,
            None,
            &MonteCarloConfig {
                samples: 400,
                sigma_nm: 2.0,
                seed: 13,
                sampling: Sampling::TailIs { tilt: 1.0 },
                ..Default::default()
            },
        )
        .expect("tail");
        let sum: f64 = tail.weights().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12, "weights sum to {sum}");
        assert!(tail.weights().iter().all(|&w| w >= 0.0));
        assert_eq!(tail.weights().len(), 400);
        // Self-normalized reweighting recovers nominal-distribution
        // statistics: mean and q01 land near the plain estimates (loose
        // statistical bounds — both are noisy estimators of the same
        // distribution).
        let spread = plain.std_worst_slack_ps();
        assert!(
            (tail.mean_worst_slack_ps() - plain.mean_worst_slack_ps()).abs() < spread,
            "IS mean {} vs plain {}",
            tail.mean_worst_slack_ps(),
            plain.mean_worst_slack_ps()
        );
        assert!(
            (tail.worst_slack_quantile_ps(0.01) - plain.worst_slack_quantile_ps(0.01)).abs()
                < 2.0 * spread,
            "IS q01 {} vs plain {}",
            tail.worst_slack_quantile_ps(0.01),
            plain.worst_slack_quantile_ps(0.01)
        );
        // The tilt pushes samples toward the slow corner: the proposal's
        // raw (unweighted) mean worst slack sits below the nominal one.
        assert!(mean(tail.worst_slacks_ps()) < plain.mean_worst_slack_ps());
        // Every mean is weighted: critical delay is clock − worst slack
        // per sample, so its mean is clock − the mean worst slack.
        let from_slack = 800.0 - tail.mean_worst_slack_ps();
        assert!(
            (tail.mean_critical_delay_ps() - from_slack).abs() < 1e-9,
            "{} vs {from_slack}",
            tail.mean_critical_delay_ps()
        );
        let leakage: f64 = tail
            .weights()
            .iter()
            .zip(tail.leakages_ua())
            .map(|(w, l)| w * l)
            .sum();
        assert_eq!(tail.mean_leakage_ua(), leakage);
    }

    #[test]
    fn control_variate_is_exact_on_linear_model() {
        // On a synthetic result whose worst slack is exactly
        // `c0 + C_i`, the online β is 1 and the adjusted mean recovers
        // `c0` exactly (E[C] = 0 by construction of the estimator), for
        // any control values.
        let control: Vec<f64> = (0..40).map(|i| f64::from(i - 20) * 0.37).collect();
        let worst: Vec<f64> = control.iter().map(|c| 42.0 + c).collect();
        let n = worst.len();
        let r = MonteCarloResult::new(worst, vec![0.0; n], vec![0.0; n]).with_control(control);
        assert!((r.cv_adjusted_mean_worst_slack_ps() - 42.0).abs() < 1e-9);
        // Without a control the adjusted mean is the plain mean.
        let r2 = MonteCarloResult::new(vec![1.0, 3.0], vec![0.0; 2], vec![0.0; 2]);
        assert_eq!(r2.cv_adjusted_mean_worst_slack_ps(), 2.0);
    }

    #[test]
    fn control_variate_reduces_mean_error_on_real_runs() {
        let d = design();
        let m = TimingModel::new(&d, ProcessParams::n90(), 800.0).expect("model");
        // High-sample reference for the true mean.
        let reference = run(
            &m,
            None,
            &MonteCarloConfig {
                samples: 4000,
                sigma_nm: 2.0,
                seed: 2,
                ..Default::default()
            },
        )
        .expect("reference");
        let truth = reference.mean_worst_slack_ps();
        let mut raw_err = 0.0;
        let mut cv_err = 0.0;
        for seed in [101, 202, 303, 404, 505] {
            let mc = run(
                &m,
                None,
                &MonteCarloConfig {
                    samples: 60,
                    sigma_nm: 2.0,
                    seed,
                    control_variate: true,
                    ..Default::default()
                },
            )
            .expect("mc");
            raw_err += (mc.mean_worst_slack_ps() - truth).abs();
            cv_err += (mc.cv_adjusted_mean_worst_slack_ps() - truth).abs();
        }
        assert!(
            cv_err < raw_err,
            "CV-adjusted error {cv_err} should beat raw {raw_err}"
        );
    }

    #[test]
    fn normalize_log_weights_handles_degenerate_inputs() {
        assert!(normalize_log_weights(&[]).is_empty());
        let uniform = normalize_log_weights(&[f64::NEG_INFINITY, f64::NEG_INFINITY]);
        assert_eq!(uniform, vec![0.5, 0.5]);
        // Shift invariance: adding a constant to every log weight leaves
        // the normalized weights unchanged (max-subtract at work).
        let a = normalize_log_weights(&[0.0, 1.0, -2.0]);
        let b = normalize_log_weights(&[700.0, 701.0, 698.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-15);
        }
        let sum: f64 = a.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_tilt_matches_plain_up_to_weights() {
        // tilt = 0 draws the exact plain stream; weights collapse to
        // uniform, so every estimate matches plain sampling bit for bit.
        let d = design();
        let m = TimingModel::new(&d, ProcessParams::n90(), 800.0).expect("model");
        let base = MonteCarloConfig {
            samples: 32,
            sigma_nm: 2.0,
            seed: 77,
            ..Default::default()
        };
        let plain = run(&m, None, &base).expect("plain");
        let zero = run(
            &m,
            None,
            &MonteCarloConfig {
                sampling: Sampling::TailIs { tilt: 0.0 },
                ..base
            },
        )
        .expect("zero tilt");
        assert_eq!(plain.worst_slacks_ps(), zero.worst_slacks_ps());
        for &w in zero.weights() {
            assert!((w - 1.0 / 32.0).abs() < 1e-15);
        }
        assert!(
            (plain.worst_slack_quantile_ps(0.1) - zero.worst_slack_quantile_ps(0.1)).abs() < 1e-9
        );
    }
}
