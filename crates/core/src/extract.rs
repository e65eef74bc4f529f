//! Selective post-OPC extraction: the paper's core engine.
//!
//! For every *tagged* gate instance, the extractor builds a local
//! simulation window around the instance's poly geometry, applies the
//! configured OPC recipe (none / rule / model — with neighbouring
//! geometry as rule-corrected context), images the corrected mask,
//! slices every printed channel, reduces slices to equivalent lengths,
//! and writes the result into a [`CdAnnotation`] ready for timing
//! back-annotation.
//!
//! Windowing is per-instance rather than full-chip: this *is* the paper's
//! "selective extraction from the global circuit netlist" — experiment T9
//! quantifies the resulting scalability.
//!
//! # Engine architecture
//!
//! The engine runs in three phases:
//!
//! 1. **Key building** (parallel): each tagged gate's targets, context,
//!    window, channel sites and local exposure conditions are gathered and
//!    *canonicalised* — translated so the window's lower-left corner is the
//!    origin. Two gates whose neighbourhoods are translated copies of each
//!    other therefore produce identical [`ContextKey`]s. Coordinates are
//!    integer nanometres, so the translation is exact.
//! 2. **Unique-context pipeline** (parallel): OPC, aerial imaging and
//!    channel measurement run once per *distinct* key, in the local frame.
//! 3. **Merge** (serial, in `GateId` order): each gate's annotation is
//!    assembled from its key's shared result; statistics are accumulated
//!    in gate order. Because work distribution only affects *where* a key
//!    is computed — never its value or the merge order — the outcome is
//!    bit-identical for any thread count and for cache on vs off.
//!
//! Across-chip conditions are quantised onto a focus/dose lattice before
//! keying, and simulation runs *at* the quantised conditions, so cache
//! reuse under an [`AcrossChipMap`] is exact rather than approximate.

use crate::error::{FlowError, Result};
use crate::fault::{FaultInjection, FaultPolicy, FaultStage, InjectedFault, QuarantinedGate};
use crate::tags::TagSet;
use postopc_cdex::{extract_gate, ExtractedGate, MeasureConfig};
use postopc_device::{EquivalentGate, GateSlice, MosKind, ProcessParams};
use postopc_geom::{Coord, Polygon, Rect, Vector};
use postopc_layout::{Design, GateId, Layer, TransistorSite};
use postopc_litho::{AerialImage, ProcessConditions, ResistModel, SimulationSpec, SurrogateModel};
use postopc_opc::{model, rules, ModelOpcConfig, RuleOpcConfig};
use postopc_sta::{CdAnnotation, GateAnnotation, TransistorCd};
use std::collections::HashMap;

/// How the mask in each extraction window is corrected before imaging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OpcMode {
    /// No correction: image the drawn layout (the "what if we skipped
    /// OPC" baseline of experiment T1).
    None,
    /// Rule-based OPC on targets and context.
    Rule,
    /// Model-based OPC on the instance's polygons, rule-corrected
    /// context (the production recipe).
    #[default]
    Model,
}

/// Across-chip systematic process variation: a smooth focus/dose surface
/// over the die (lens field curvature, post-exposure-bake plate gradients,
/// etch loading — the dominant 90 nm CD-uniformity terms).
///
/// Real across-field variation lives at the millimetre scale; our
/// substitute die is tens of µm, so the map is scale-compressed: `period`
/// should be chosen relative to the die size (see `DESIGN.md`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcrossChipMap {
    /// Peak focus excursion in nm.
    pub focus_amplitude_nm: f64,
    /// Peak relative dose excursion (0.02 = ±2%).
    pub dose_amplitude: f64,
    /// Spatial period of the variation surface, in nm.
    pub period_nm: f64,
}

impl AcrossChipMap {
    /// A typical 90 nm across-chip budget: ±60 nm focus, ±2% dose.
    pub fn typical(die: postopc_geom::Rect) -> AcrossChipMap {
        AcrossChipMap {
            focus_amplitude_nm: 60.0,
            dose_amplitude: 0.02,
            period_nm: (die.width().max(die.height()) as f64) * 0.8,
        }
    }

    /// Validates the map's numeric fields (finite, in-band).
    ///
    /// # Errors
    ///
    /// [`FlowError::InvalidConfig`] naming the offending field when an
    /// amplitude or the period is non-finite or out of band.
    pub fn validate(&self) -> Result<()> {
        for (name, value) in [
            ("focus_amplitude_nm", self.focus_amplitude_nm),
            ("dose_amplitude", self.dose_amplitude),
            ("period_nm", self.period_nm),
        ] {
            if !value.is_finite() {
                return Err(FlowError::InvalidConfig(format!(
                    "across-chip {name} must be finite, got {value}"
                )));
            }
        }
        if !(0.0..=500.0).contains(&self.focus_amplitude_nm) {
            return Err(FlowError::InvalidConfig(format!(
                "across-chip focus_amplitude_nm must be in [0, 500] nm, got {}",
                self.focus_amplitude_nm
            )));
        }
        if !(0.0..1.0).contains(&self.dose_amplitude) {
            return Err(FlowError::InvalidConfig(format!(
                "across-chip dose_amplitude must be in [0, 1), got {}",
                self.dose_amplitude
            )));
        }
        if self.period_nm <= 0.0 {
            return Err(FlowError::InvalidConfig(format!(
                "across-chip period_nm must be positive, got {}",
                self.period_nm
            )));
        }
        Ok(())
    }

    /// The local exposure conditions at a die position.
    pub fn conditions_at(
        &self,
        die: postopc_geom::Rect,
        position: postopc_geom::Point,
        base: ProcessConditions,
    ) -> ProcessConditions {
        let tau = std::f64::consts::TAU;
        let u = tau * (position.x - die.left()) as f64 / self.period_nm;
        let v = tau * (position.y - die.bottom()) as f64 / self.period_nm;
        ProcessConditions {
            focus_nm: base.focus_nm + self.focus_amplitude_nm * u.sin() * v.cos(),
            dose: base.dose * (1.0 + self.dose_amplitude * (u + 0.7).cos() * (v + 0.3).sin()),
        }
    }
}

/// Feature-vector dimension of the learned CD surrogate: bias, drawn CD,
/// width, focus (linear + quadratic), dose, four nearest-neighbour gaps,
/// pattern density at three radii, window geometry and edge clearance.
/// The private `site_features` builder fixes the exact layout.
pub const SURROGATE_FEATURE_DIM: usize = 16;

/// Configuration of the learned CD surrogate tier (see
/// [`SurrogateModel`]): a confidence-gated fast path between the warm
/// [`ContextStore`] and full litho simulation. Trained online from the
/// SOCS results the run computes anyway; out-of-distribution contexts
/// always take the real simulation path.
#[derive(Clone, PartialEq)]
pub struct SurrogateConfig {
    /// Master switch. `false` (the default) leaves the engine on its
    /// pre-surrogate path, bit for bit.
    pub enabled: bool,
    /// Confidence gate: a context is served by the surrogate only when
    /// every site's leverage score is at most `gate_threshold ×`
    /// [`SURROGATE_FEATURE_DIM`]. In-distribution points score near the
    /// feature dimension, so this is "how many times a typical training
    /// point's leverage" is still trusted. Lower is stricter.
    pub gate_threshold: f64,
    /// Minimum training samples absorbed before any prediction is served
    /// (the warm-up: the first `min_train` contexts always simulate).
    pub min_train: usize,
    /// Training-round size: gate decisions for a round use the model as
    /// of the round start, the round's fallbacks simulate in parallel,
    /// and the model refits at the round boundary. The round structure —
    /// not thread scheduling — defines the training stream, which is what
    /// keeps surrogate runs bit-identical across thread counts.
    pub round: usize,
    /// Audit cadence: every `audit_every`-th gate-accepted context is
    /// simulated anyway; the SOCS result is used (and trained on) and the
    /// surrogate/SOCS residual feeds
    /// [`ExtractionStats::surrogate_max_residual_nm`]. `0` disables
    /// auditing.
    pub audit_every: usize,
    /// Ridge regulariser of the underlying model.
    pub lambda: f64,
    /// Gradient-boosted stumps per target fitted to the ridge residuals
    /// at each refit; `0` keeps the surrogate purely linear.
    pub boost_rounds: usize,
    /// Optional pre-trained model (from a `POCSURR1` file or a warm
    /// artifact) to start from instead of a blank one. Online training
    /// continues on top of it.
    pub pretrained: Option<SurrogateModel>,
}

impl SurrogateConfig {
    /// Surrogate disabled (the [`ExtractionConfig::standard`] default).
    pub fn off() -> SurrogateConfig {
        SurrogateConfig {
            enabled: false,
            ..SurrogateConfig::standard()
        }
    }

    /// The production surrogate recipe: leverage gate at 4× the feature
    /// dimension, 32-context warm-up and rounds, audit every 16th
    /// accepted context, 8 boost stumps per target.
    pub fn standard() -> SurrogateConfig {
        SurrogateConfig {
            enabled: true,
            gate_threshold: 4.0,
            min_train: 32,
            round: 32,
            audit_every: 16,
            lambda: 1e-3,
            boost_rounds: 8,
            pretrained: None,
        }
    }

    /// A blank model matching this configuration's hyper-parameters.
    pub fn fresh_model(&self) -> SurrogateModel {
        SurrogateModel::new(SURROGATE_FEATURE_DIM, self.lambda, self.boost_rounds)
    }

    /// Validates the configuration ahead of a run (no-op when disabled).
    ///
    /// # Errors
    ///
    /// [`FlowError::InvalidConfig`] naming the offending field for a
    /// non-positive gate threshold, regulariser, warm-up or round size,
    /// or a pre-trained model of the wrong feature dimension.
    pub fn validate(&self) -> Result<()> {
        if !self.enabled {
            return Ok(());
        }
        for (name, value) in [
            ("gate_threshold", self.gate_threshold),
            ("lambda", self.lambda),
        ] {
            if !value.is_finite() || value <= 0.0 {
                return Err(FlowError::InvalidConfig(format!(
                    "surrogate {name} must be finite and positive, got {value}"
                )));
            }
        }
        for (name, value) in [("min_train", self.min_train), ("round", self.round)] {
            if value == 0 {
                return Err(FlowError::InvalidConfig(format!(
                    "surrogate {name} must be at least 1"
                )));
            }
        }
        if let Some(pre) = &self.pretrained {
            if pre.dim() != SURROGATE_FEATURE_DIM {
                return Err(FlowError::InvalidConfig(format!(
                    "surrogate pretrained model has feature dimension {}, engine expects {}",
                    pre.dim(),
                    SURROGATE_FEATURE_DIM
                )));
            }
        }
        Ok(())
    }
}

impl Default for SurrogateConfig {
    fn default() -> Self {
        SurrogateConfig::off()
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
            .field("gate_threshold", &self.gate_threshold)
            .field("min_train", &self.min_train)
            .field("round", &self.round)
            .field("audit_every", &self.audit_every)
            .field("lambda", &self.lambda)
            .field("boost_rounds", &self.boost_rounds)
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

/// Extraction configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractionConfig {
    /// Imaging model.
    pub sim: SimulationSpec,
    /// Resist threshold model.
    pub resist: ResistModel,
    /// Gate slicing parameters.
    pub measure: MeasureConfig,
    /// Device model for equivalent-length reduction.
    pub process: ProcessParams,
    /// Mask correction recipe.
    pub opc_mode: OpcMode,
    /// Model-OPC settings (used when `opc_mode == Model`).
    pub model_opc: ModelOpcConfig,
    /// Rule-OPC settings (used for context and `opc_mode == Rule`).
    pub rule_opc: RuleOpcConfig,
    /// Extra margin around the instance bbox for the simulation window, nm.
    pub window_margin_nm: Coord,
    /// Context gathering radius beyond the window (optical ambit), nm.
    pub context_ambit_nm: Coord,
    /// Optional across-chip systematic variation surface: each gate is
    /// imaged at the *local* focus/dose of its die position.
    pub across_chip: Option<AcrossChipMap>,
    /// Worker threads for the parallel phases. `None` defers to the
    /// `POSTOPC_THREADS` environment variable, then to the machine's
    /// available parallelism. The result is identical for any value.
    pub threads: Option<usize>,
    /// Deduplicate identical litho contexts (OPC + imaging + measurement
    /// run once per distinct context). The result is identical either way;
    /// `false` forces every gate down the full pipeline.
    pub cache: bool,
    /// Focus lattice pitch (nm) for quantising across-chip conditions
    /// before context keying. `0.0` disables quantisation (every gate
    /// under an [`AcrossChipMap`] then gets a distinct key). Ignored when
    /// `across_chip` is `None` — nominal conditions are used verbatim.
    pub focus_quantum_nm: f64,
    /// Dose lattice pitch (relative dose) for across-chip quantisation;
    /// `0.0` disables it.
    pub dose_quantum: f64,
    /// What to do when a per-gate fault (typed error or worker panic)
    /// occurs. [`FaultPolicy::Fail`] (the default) aborts on the first
    /// fault — bit-identical to the pre-quarantine engine;
    /// [`FaultPolicy::Quarantine`] records the gate (it keeps drawn
    /// dimensions) and keeps going.
    pub fault_policy: FaultPolicy,
    /// Optional deterministic fault injector — validation plumbing for the
    /// quarantine machinery; `None` (the default) leaves the engine on its
    /// normal path.
    pub fault_injection: Option<FaultInjection>,
    /// Learned CD surrogate tier: confidence-gated ridge/stump predictions
    /// that bypass the OPC → imaging → measurement pipeline for novel
    /// contexts the model is confident about. Off by default — the
    /// surrogate-off engine is bit-identical to the pre-surrogate one.
    pub surrogate: SurrogateConfig,
}

impl ExtractionConfig {
    /// The production recipe: model OPC, standard measurement.
    pub fn standard() -> ExtractionConfig {
        ExtractionConfig {
            sim: SimulationSpec::nominal(),
            resist: ResistModel::standard(),
            measure: MeasureConfig::standard(),
            process: ProcessParams::n90(),
            opc_mode: OpcMode::Model,
            model_opc: ModelOpcConfig::standard(),
            rule_opc: RuleOpcConfig::standard(),
            window_margin_nm: 80,
            context_ambit_nm: 420,
            across_chip: None,
            threads: None,
            cache: true,
            focus_quantum_nm: 0.5,
            dose_quantum: 5e-4,
            fault_policy: FaultPolicy::Fail,
            fault_injection: None,
            surrogate: SurrogateConfig::off(),
        }
    }

    /// Validates the configuration's numeric fields ahead of a run.
    ///
    /// # Errors
    ///
    /// [`FlowError::InvalidConfig`] for an out-of-band across-chip map,
    /// quarantine budget or injection rate.
    pub fn validate(&self) -> Result<()> {
        if let Some(map) = &self.across_chip {
            map.validate()?;
        }
        if let FaultPolicy::Quarantine { max_fraction } = self.fault_policy {
            if !max_fraction.is_finite() || !(0.0..=1.0).contains(&max_fraction) {
                return Err(FlowError::InvalidConfig(format!(
                    "quarantine max_fraction must be in [0, 1], got {max_fraction}"
                )));
            }
        }
        if let Some(injection) = &self.fault_injection {
            injection.validate()?;
        }
        self.surrogate.validate()?;
        Ok(())
    }

    /// The same configuration at different process conditions (for
    /// process-window timing, experiment F5).
    pub fn with_conditions(&self, conditions: ProcessConditions) -> ExtractionConfig {
        let mut cfg = self.clone();
        cfg.sim = cfg.sim.with_conditions(conditions);
        cfg.model_opc.sim = cfg.model_opc.sim.clone(); // OPC stays at nominal: masks are built once
        cfg
    }
}

impl Default for ExtractionConfig {
    fn default() -> Self {
        ExtractionConfig::standard()
    }
}

/// Bookkeeping of one extraction run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExtractionStats {
    /// Gates successfully extracted.
    pub gates_extracted: usize,
    /// Gates that fell back to drawn dimensions (unprinted channels).
    pub gates_failed: usize,
    /// Simulation windows imaged (one per *distinct* litho context).
    pub windows: usize,
    /// Model-OPC aerial simulations (cost metric of experiment T7/T9).
    pub opc_simulations: usize,
    /// Model-OPC fragment moves.
    pub opc_fragment_moves: usize,
    /// Gates whose litho context matched one already seen earlier in
    /// this run and reused its result.
    pub cache_hits: usize,
    /// Gates that were the first in-run occurrence of their distinct
    /// litho context (every other gate is a `cache_hit`). Split by
    /// provenance into `windows` (imaged this run) and `store_hits`
    /// (served from a warm [`ContextStore`] without re-imaging).
    pub cache_misses: usize,
    /// Distinct contexts served from a warm [`ContextStore`] instead of
    /// being re-imaged (always `0` without one). `windows` counts only the
    /// contexts this run actually imaged, so under an incremental (ECO)
    /// re-extraction `windows` *is* the number of dirtied windows.
    pub store_hits: usize,
    /// Distinct contexts served by the learned CD surrogate instead of
    /// being imaged (always `0` with the surrogate off). Together,
    /// `windows + store_hits + surrogate_hits == cache_misses`.
    pub surrogate_hits: usize,
    /// Novel contexts that took the full simulation path while the
    /// surrogate was enabled: warm-up, leverage-gate rejections,
    /// implausible predictions and audits. Always `0` with it off.
    pub surrogate_fallbacks: usize,
    /// Largest |surrogate CD − SOCS CD| (nm, over both equivalent
    /// lengths) observed on audited contexts — contexts the gate accepted
    /// but that were simulated anyway on the configured audit cadence.
    /// `0.0` when nothing was audited.
    pub surrogate_max_residual_nm: f64,
    /// All per-transistor extraction records (input to CD statistics, T2).
    pub extracted: Vec<ExtractedGate>,
    /// Gates quarantined under [`FaultPolicy::Quarantine`] (they keep
    /// drawn dimensions, like measurement fallbacks). Always `0` under
    /// [`FaultPolicy::Fail`].
    pub gates_quarantined: usize,
    /// Per-gate quarantine records, in `GateId` order.
    pub quarantined: Vec<QuarantinedGate>,
}

impl ExtractionStats {
    /// Fraction of gates served from the context cache, in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Fraction of submitted gates that were quarantined, in `[0, 1]`.
    pub fn quarantine_fraction(&self) -> f64 {
        let total = self.gates_extracted + self.gates_failed + self.gates_quarantined;
        if total == 0 {
            0.0
        } else {
            self.gates_quarantined as f64 / total as f64
        }
    }
}

/// Result of an extraction run: the annotation plus its statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractionOutcome {
    /// Per-gate extracted CDs, ready for [`postopc_sta::TimingModel::analyze`].
    pub annotation: CdAnnotation,
    /// Run statistics.
    pub stats: ExtractionStats,
}

/// A transistor channel's contribution to a [`ContextKey`]: geometry in
/// the window-local frame, dimensions as exact bit patterns.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SiteKey {
    channel: Rect,
    kind: MosKind,
    width_bits: u64,
    drawn_bits: u64,
    finger: usize,
}

/// Everything the per-window pipeline depends on, canonicalised to the
/// window-local frame. Two gates with equal keys print identically.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ContextKey {
    targets: Vec<Polygon>,
    context: Vec<Polygon>,
    window: Rect,
    sites: Vec<SiteKey>,
    focus_bits: u64,
    dose_bits: u64,
}

/// Phase-1 output for one gate: its canonical key plus what the merge
/// phase needs to re-anchor shared results to this instance.
struct GateWork {
    gate: GateId,
    site_indices: Vec<usize>,
    key: ContextKey,
}

/// Phase-2 output for one distinct context.
#[derive(Clone)]
struct UniqueOutcome {
    opc_simulations: usize,
    opc_fragment_moves: usize,
    /// Per-channel slices and equivalent, in site order; `None` if any
    /// channel failed to print (member gates keep drawn dimensions).
    sites: Option<Vec<(Vec<GateSlice>, EquivalentGate)>>,
}

/// Phase-2 result per distinct context, policy-resolved: under
/// [`FaultPolicy::Fail`] a failing context carries its typed error (the
/// merge aborts on the first one in `GateId` order, as before); under
/// [`FaultPolicy::Quarantine`] it carries the rendered cause and the merge
/// quarantines every member gate instead.
enum UniqueResult {
    Ok(UniqueOutcome),
    Err(FlowError),
    Fault(String),
}

/// A warm store of distinct litho-context outcomes, keyed by the engine's
/// canonical context keys (exact window-local geometry + quantised
/// conditions — the same keys the in-run dedup uses, so reuse is exact,
/// never approximate).
///
/// Pass one to [`extract_gates_with_store`] to make extraction
/// incremental: contexts already in the store are *not* re-imaged — their
/// stored per-site measurements are merged as if freshly computed, bit
/// for bit — and every novel context is imaged once and then retained.
/// After an ECO that dirties K gates, a re-extraction therefore images
/// only the dirtied optical-influence windows ([`ExtractionStats::windows`]
/// counts exactly those; [`ExtractionStats::store_hits`] the reused ones).
///
/// The store is bypassed whenever fault injection is active — injected
/// faults are validation plumbing and must not poison warm state.
#[derive(Clone, Default)]
pub struct ContextStore {
    entries: HashMap<ContextKey, UniqueOutcome>,
}

impl std::fmt::Debug for ContextStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContextStore")
            .field("entries", &self.entries.len())
            .finish()
    }
}

impl ContextStore {
    /// An empty store.
    pub fn new() -> ContextStore {
        ContextStore::default()
    }

    /// Number of distinct contexts retained.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no contexts yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes the store into `out` as length-prefixed canonical bytes
    /// (entries sorted by their encoding, so equal stores produce equal
    /// bytes regardless of hash-map iteration order).
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        let mut encoded: Vec<Vec<u8>> = self
            .entries
            .iter()
            .map(|(key, outcome)| {
                let mut buf = Vec::new();
                encode_context_key(key, &mut buf);
                encode_unique_outcome(outcome, &mut buf);
                buf
            })
            .collect();
        encoded.sort_unstable();
        put_u64(out, encoded.len() as u64);
        for buf in encoded {
            put_u64(out, buf.len() as u64);
            out.extend_from_slice(&buf);
        }
    }

    /// Decodes a store previously written by [`Self::encode_into`].
    pub(crate) fn decode_from(bytes: &[u8], cursor: &mut usize) -> Result<ContextStore> {
        let count = take_u64(bytes, cursor)?;
        let mut entries = HashMap::with_capacity(count.min(1 << 20) as usize);
        for _ in 0..count {
            let len = take_u64(bytes, cursor)? as usize;
            let end = cursor
                .checked_add(len)
                .filter(|&e| e <= bytes.len())
                .ok_or_else(|| artifact_err("context store entry overruns the payload"))?;
            let entry = &bytes[..end];
            let key = decode_context_key(entry, cursor)?;
            let outcome = decode_unique_outcome(entry, cursor)?;
            if *cursor != end {
                return Err(artifact_err("context store entry has trailing bytes"));
            }
            entries.insert(key, outcome);
        }
        Ok(ContextStore { entries })
    }
}

pub(crate) fn artifact_err(reason: &str) -> FlowError {
    FlowError::Artifact(crate::error::ArtifactError::corrupt(reason))
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn take_u64(bytes: &[u8], cursor: &mut usize) -> Result<u64> {
    let end = cursor
        .checked_add(8)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| artifact_err("truncated integer field"))?;
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes[*cursor..end]);
    *cursor = end;
    Ok(u64::from_le_bytes(raw))
}

pub(crate) fn take_i64(bytes: &[u8], cursor: &mut usize) -> Result<i64> {
    Ok(take_u64(bytes, cursor)? as i64)
}

fn encode_polygon(p: &Polygon, out: &mut Vec<u8>) {
    put_u64(out, p.vertices().len() as u64);
    for v in p.vertices() {
        put_i64(out, v.x);
        put_i64(out, v.y);
    }
}

fn decode_polygon(bytes: &[u8], cursor: &mut usize) -> Result<Polygon> {
    let n = take_u64(bytes, cursor)?;
    if n > 1 << 20 {
        return Err(artifact_err("polygon vertex count out of range"));
    }
    let mut vertices = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let x = take_i64(bytes, cursor)?;
        let y = take_i64(bytes, cursor)?;
        vertices.push(postopc_geom::Point::new(x, y));
    }
    Polygon::new(vertices).map_err(|e| artifact_err(&format!("invalid stored polygon: {e}")))
}

fn encode_rect(r: Rect, out: &mut Vec<u8>) {
    put_i64(out, r.left());
    put_i64(out, r.bottom());
    put_i64(out, r.right());
    put_i64(out, r.top());
}

fn decode_rect(bytes: &[u8], cursor: &mut usize) -> Result<Rect> {
    let (x0, y0) = (take_i64(bytes, cursor)?, take_i64(bytes, cursor)?);
    let (x1, y1) = (take_i64(bytes, cursor)?, take_i64(bytes, cursor)?);
    Rect::new(x0, y0, x1, y1).map_err(|e| artifact_err(&format!("invalid stored rect: {e}")))
}

fn encode_context_key(key: &ContextKey, out: &mut Vec<u8>) {
    put_u64(out, key.targets.len() as u64);
    for p in &key.targets {
        encode_polygon(p, out);
    }
    put_u64(out, key.context.len() as u64);
    for p in &key.context {
        encode_polygon(p, out);
    }
    encode_rect(key.window, out);
    put_u64(out, key.sites.len() as u64);
    for s in &key.sites {
        encode_rect(s.channel, out);
        out.push(match s.kind {
            MosKind::Nmos => 0,
            MosKind::Pmos => 1,
        });
        put_u64(out, s.width_bits);
        put_u64(out, s.drawn_bits);
        put_u64(out, s.finger as u64);
    }
    put_u64(out, key.focus_bits);
    put_u64(out, key.dose_bits);
}

fn decode_context_key(bytes: &[u8], cursor: &mut usize) -> Result<ContextKey> {
    let n_targets = take_u64(bytes, cursor)?;
    let mut targets = Vec::with_capacity(n_targets.min(1 << 20) as usize);
    for _ in 0..n_targets {
        targets.push(decode_polygon(bytes, cursor)?);
    }
    let n_context = take_u64(bytes, cursor)?;
    let mut context = Vec::with_capacity(n_context.min(1 << 20) as usize);
    for _ in 0..n_context {
        context.push(decode_polygon(bytes, cursor)?);
    }
    let window = decode_rect(bytes, cursor)?;
    let n_sites = take_u64(bytes, cursor)?;
    let mut sites = Vec::with_capacity(n_sites.min(1 << 20) as usize);
    for _ in 0..n_sites {
        let channel = decode_rect(bytes, cursor)?;
        let kind = match bytes.get(*cursor) {
            Some(0) => MosKind::Nmos,
            Some(1) => MosKind::Pmos,
            _ => return Err(artifact_err("invalid stored MOS kind")),
        };
        *cursor += 1;
        sites.push(SiteKey {
            channel,
            kind,
            width_bits: take_u64(bytes, cursor)?,
            drawn_bits: take_u64(bytes, cursor)?,
            finger: take_u64(bytes, cursor)? as usize,
        });
    }
    Ok(ContextKey {
        targets,
        context,
        window,
        sites,
        focus_bits: take_u64(bytes, cursor)?,
        dose_bits: take_u64(bytes, cursor)?,
    })
}

fn encode_unique_outcome(outcome: &UniqueOutcome, out: &mut Vec<u8>) {
    put_u64(out, outcome.opc_simulations as u64);
    put_u64(out, outcome.opc_fragment_moves as u64);
    match &outcome.sites {
        None => out.push(0),
        Some(per_site) => {
            out.push(1);
            put_u64(out, per_site.len() as u64);
            for (slices, equivalent) in per_site {
                put_u64(out, slices.len() as u64);
                for s in slices {
                    put_u64(out, s.w_nm.to_bits());
                    put_u64(out, s.l_nm.to_bits());
                }
                put_u64(out, equivalent.w_nm.to_bits());
                put_u64(out, equivalent.l_delay_nm.to_bits());
                put_u64(out, equivalent.l_leakage_nm.to_bits());
            }
        }
    }
}

fn decode_unique_outcome(bytes: &[u8], cursor: &mut usize) -> Result<UniqueOutcome> {
    let opc_simulations = take_u64(bytes, cursor)? as usize;
    let opc_fragment_moves = take_u64(bytes, cursor)? as usize;
    let tag = bytes.get(*cursor).copied();
    *cursor += 1;
    let sites = match tag {
        Some(0) => None,
        Some(1) => {
            let n = take_u64(bytes, cursor)?;
            let mut per_site = Vec::with_capacity(n.min(1 << 20) as usize);
            for _ in 0..n {
                let n_slices = take_u64(bytes, cursor)?;
                let mut slices = Vec::with_capacity(n_slices.min(1 << 20) as usize);
                for _ in 0..n_slices {
                    slices.push(GateSlice {
                        w_nm: f64::from_bits(take_u64(bytes, cursor)?),
                        l_nm: f64::from_bits(take_u64(bytes, cursor)?),
                    });
                }
                let equivalent = EquivalentGate {
                    w_nm: f64::from_bits(take_u64(bytes, cursor)?),
                    l_delay_nm: f64::from_bits(take_u64(bytes, cursor)?),
                    l_leakage_nm: f64::from_bits(take_u64(bytes, cursor)?),
                };
                per_site.push((slices, equivalent));
            }
            Some(per_site)
        }
        _ => return Err(artifact_err("invalid stored outcome tag")),
    };
    Ok(UniqueOutcome {
        opc_simulations,
        opc_fragment_moves,
        sites,
    })
}

/// First non-physical (non-finite or non-positive) dimension in a gate's
/// merged CD records, if any — the extraction → STA boundary guard.
fn invalid_cd(records: &[TransistorCd]) -> Option<(&'static str, f64)> {
    for r in records {
        for (field, value) in [
            ("width_nm", r.width_nm),
            ("l_delay_nm", r.l_delay_nm),
            ("l_leakage_nm", r.l_leakage_nm),
        ] {
            if !value.is_finite() || value <= 0.0 {
                return Some((field, value));
            }
        }
    }
    None
}

fn quantize(value: f64, quantum: f64) -> f64 {
    if quantum > 0.0 {
        (value / quantum).round() * quantum
    } else {
        value
    }
}

/// Extracts post-OPC CDs for every tagged gate of `design`.
///
/// The output is deterministic: bit-identical for any thread count and
/// for `cache` on vs off (see the module docs for why).
///
/// # Errors
///
/// Under [`FaultPolicy::Fail`] (the default), propagates simulation/OPC
/// errors (the first in `GateId` order) and rejects non-physical merged
/// CDs with [`postopc_sta::StaError::InvalidCd`]. Under
/// [`FaultPolicy::Quarantine`], per-gate faults are recorded in the stats
/// instead (the gate keeps drawn dimensions) and only an overrun of the
/// quarantine budget ([`FlowError::QuarantineExceeded`]) or an invalid
/// configuration aborts the run. Per-gate *measurement* failures are
/// recorded as `gates_failed` under either policy, as before.
pub fn extract_gates(
    design: &Design,
    config: &ExtractionConfig,
    tags: &TagSet,
) -> Result<ExtractionOutcome> {
    extract_gates_with_store(design, config, tags, None)
}

/// [`extract_gates`] against a warm [`ContextStore`]: contexts already in
/// the store skip the OPC → imaging → measurement pipeline (their stored
/// results are merged bit-identically), novel contexts are imaged once
/// and retained. With `None` (or an empty store) this *is* a cold run.
///
/// # Errors
///
/// As [`extract_gates`] — the store only changes where a context's result
/// comes from, never its value.
pub fn extract_gates_with_store(
    design: &Design,
    config: &ExtractionConfig,
    tags: &TagSet,
    store: Option<&mut ContextStore>,
) -> Result<ExtractionOutcome> {
    extract_gates_with_caches(design, config, tags, store, None)
}

/// [`extract_gates_with_store`] with an additional *external* surrogate
/// model: when `config.surrogate.enabled` and `surrogate` is `Some`, the
/// engine gates, predicts and trains against the caller's model in place
/// (so a warm service accumulates training across runs); with `None` it
/// uses a run-local model seeded from `config.surrogate.pretrained`. The
/// model parameter is ignored while the surrogate is disabled.
///
/// # Errors
///
/// As [`extract_gates`], plus [`FlowError::InvalidConfig`] for a model of
/// the wrong feature dimension and [`FlowError::Litho`] if a (pre-trained
/// or online) model cannot be refitted.
pub fn extract_gates_with_caches(
    design: &Design,
    config: &ExtractionConfig,
    tags: &TagSet,
    store: Option<&mut ContextStore>,
    surrogate: Option<&mut SurrogateModel>,
) -> Result<ExtractionOutcome> {
    config.validate()?;
    // Group transistor sites by gate for quick lookup.
    let mut sites_by_gate: HashMap<GateId, Vec<usize>> = HashMap::new();
    for (i, site) in design.transistor_sites().iter().enumerate() {
        sites_by_gate.entry(site.gate).or_default().push(i);
    }
    let gate_order = tags.sorted();
    let threads = postopc_parallel::effective_threads(config.threads);
    let injection = config.fault_injection;
    let injected_for = |gate: GateId| injection.and_then(|inj| inj.fault_for(gate));

    // Phase 1: build each gate's canonical context key. Under `Quarantine`
    // a faulting gate (typed error *or* worker panic) is set aside instead
    // of aborting the run; the fault list comes back in input order, so
    // the record is thread-count invariant.
    let mut quarantined: Vec<QuarantinedGate> = Vec::new();
    let work_fn = |_: usize, gate_id: &GateId| {
        let injected = injected_for(*gate_id);
        if injected == Some(InjectedFault::WorkerPanic) {
            panic!(
                "injected fault: worker panic while building gate {} context",
                gate_id.0
            );
        }
        build_gate_work(design, config, &sites_by_gate, *gate_id, injected)
    };
    let works: Vec<Option<GateWork>> = match config.fault_policy {
        FaultPolicy::Fail => postopc_parallel::try_par_map(threads, &gate_order, work_fn)?
            .into_iter()
            .map(Some)
            .collect(),
        FaultPolicy::Quarantine { .. } => {
            let (results, faults) =
                postopc_parallel::try_par_map_quarantine(threads, &gate_order, "context", work_fn);
            for fault in faults {
                quarantined.push(QuarantinedGate {
                    gate: gate_order[fault.item],
                    stage: FaultStage::Context,
                    cause: fault.cause.to_string(),
                });
            }
            results
        }
    };

    // Deduplicate keys in gate order (first member of each distinct
    // context is its representative), then run each distinct context
    // through the OPC → imaging → measurement pipeline. Quarantined gates
    // have no key and join no context.
    let mut unique_index: HashMap<&ContextKey, usize> = HashMap::new();
    let mut unique_keys: Vec<&ContextKey> = Vec::new();
    let mut membership: Vec<Option<usize>> = Vec::with_capacity(works.len());
    for work in &works {
        let Some(work) = work else {
            membership.push(None);
            continue;
        };
        if config.cache {
            let next = unique_keys.len();
            let idx = *unique_index.entry(&work.key).or_insert_with(|| {
                unique_keys.push(&work.key);
                next
            });
            membership.push(Some(idx));
        } else {
            membership.push(Some(unique_keys.len()));
            unique_keys.push(&work.key);
        }
    }
    // Partition distinct contexts into store-served (their retained
    // outcome replays bit for bit, no pipeline) and novel. Injection runs
    // bypass the store entirely: injected faults must not poison it.
    let store_enabled = config.fault_injection.is_none();
    let mut served: Vec<Option<UniqueResult>> = (0..unique_keys.len()).map(|_| None).collect();
    let mut provenance = vec![Provenance::Imaged; unique_keys.len()];
    let mut novel_pos: Vec<usize> = Vec::new();
    let mut novel_keys: Vec<&ContextKey> = Vec::new();
    {
        let warm = if store_enabled {
            store.as_deref()
        } else {
            None
        };
        for (i, key) in unique_keys.iter().enumerate() {
            match warm.and_then(|s| s.entries.get(*key)) {
                Some(outcome) => {
                    served[i] = Some(UniqueResult::Ok(outcome.clone()));
                    provenance[i] = Provenance::Store;
                }
                None => {
                    novel_pos.push(i);
                    novel_keys.push(key);
                }
            }
        }
    }
    // The learned-surrogate tier sits between the warm store and full
    // simulation. Like the store it is bypassed entirely under fault
    // injection: injected faults must never train the model.
    let surrogate_active = config.surrogate.enabled && config.fault_injection.is_none();
    let mut local_model: SurrogateModel;
    let model: Option<&mut SurrogateModel> = if surrogate_active {
        match surrogate {
            Some(m) => Some(m),
            None => {
                local_model = match &config.surrogate.pretrained {
                    Some(pre) => pre.clone(),
                    None => config.surrogate.fresh_model(),
                };
                Some(&mut local_model)
            }
        }
    } else {
        None
    };
    let mut from_surrogate = vec![false; novel_keys.len()];
    let mut surrogate_fallbacks = 0usize;
    let mut surrogate_max_residual_nm = 0.0f64;
    let novel_results: Vec<UniqueResult> = match model {
        Some(model) => {
            if model.dim() != SURROGATE_FEATURE_DIM {
                return Err(FlowError::InvalidConfig(format!(
                    "surrogate model has feature dimension {}, engine expects {}",
                    model.dim(),
                    SURROGATE_FEATURE_DIM
                )));
            }
            if !model.is_fitted() && !model.is_empty() {
                model.refit()?;
            }
            run_novel_with_surrogate(
                config,
                threads,
                &novel_keys,
                model,
                &mut from_surrogate,
                &mut surrogate_fallbacks,
                &mut surrogate_max_residual_nm,
            )?
        }
        None => run_novel_batch(config, threads, &novel_keys),
    };
    // Retain every freshly *simulated* context — surrogate predictions
    // never enter the store, which stays pure SOCS — then slot the novel
    // results back into key order.
    if store_enabled {
        if let Some(store) = store {
            for ((&pos, &predicted), result) in
                novel_pos.iter().zip(&from_surrogate).zip(&novel_results)
            {
                if predicted {
                    continue;
                }
                if let UniqueResult::Ok(outcome) = result {
                    store
                        .entries
                        .insert(unique_keys[pos].clone(), outcome.clone());
                }
            }
        }
    }
    for ((pos, predicted), result) in novel_pos.into_iter().zip(from_surrogate).zip(novel_results) {
        if predicted {
            provenance[pos] = Provenance::Surrogate;
        }
        served[pos] = Some(result);
    }
    let results: Vec<UniqueResult> = served
        .into_iter()
        .map(|r| r.unwrap_or_else(|| unreachable!("every context is served or novel")))
        .collect();

    // Phase 3: merge in gate order — deterministic regardless of which
    // worker computed which context.
    let mut annotation = CdAnnotation::new();
    let mut stats = ExtractionStats::default();
    let mut seen = vec![false; unique_keys.len()];
    for ((work, uidx), &gate_id) in works.iter().zip(&membership).zip(&gate_order) {
        let (Some(work), Some(uidx)) = (work.as_ref(), *uidx) else {
            // Already quarantined in phase 1: the gate keeps drawn
            // dimensions and contributes nothing to the annotation.
            continue;
        };
        let outcome = match &results[uidx] {
            UniqueResult::Ok(outcome) => outcome,
            UniqueResult::Err(e) => return Err(e.clone()),
            UniqueResult::Fault(cause) => {
                quarantined.push(QuarantinedGate {
                    gate: gate_id,
                    stage: FaultStage::Pipeline,
                    cause: cause.clone(),
                });
                continue;
            }
        };
        if seen[uidx] {
            stats.cache_hits += 1;
        } else {
            seen[uidx] = true;
            stats.cache_misses += 1;
            match provenance[uidx] {
                // Served warm or predicted: no window was imaged, no OPC
                // cost was paid this run — only the reuse is recorded.
                Provenance::Store => stats.store_hits += 1,
                Provenance::Surrogate => stats.surrogate_hits += 1,
                Provenance::Imaged => {
                    stats.windows += 1;
                    stats.opc_simulations += outcome.opc_simulations;
                    stats.opc_fragment_moves += outcome.opc_fragment_moves;
                }
            }
        }
        let per_site = match &outcome.sites {
            Some(per_site) if !work.site_indices.is_empty() => per_site,
            _ => {
                stats.gates_failed += 1;
                continue;
            }
        };
        let gate = design.netlist().gate(work.gate);
        let cell = design.library().cell(gate.kind, gate.drive);
        let mut records = Vec::with_capacity(per_site.len());
        let mut extracted = Vec::with_capacity(per_site.len());
        for (&site_index, (slices, equivalent)) in work.site_indices.iter().zip(per_site) {
            let site = design.transistor_sites()[site_index];
            // Recover the logical input pin from the cell template.
            let input_pin = cell
                .transistors()
                .iter()
                .find(|t| t.finger == site.finger && t.kind == site.kind)
                .and_then(|t| t.input_pin);
            records.push(TransistorCd {
                kind: site.kind,
                width_nm: site.width_nm,
                l_delay_nm: equivalent.l_delay_nm,
                l_leakage_nm: equivalent.l_leakage_nm,
                input_pin,
                finger: site.finger,
            });
            extracted.push(ExtractedGate {
                site,
                slices: slices.clone(),
                equivalent: *equivalent,
            });
        }
        if injected_for(gate_id) == Some(InjectedFault::NanCd) {
            for r in &mut records {
                r.l_delay_nm = f64::NAN;
            }
        }
        // Boundary guard: non-physical CDs never cross into STA — they
        // either abort the run or quarantine the gate here at the seam.
        if let Some((field, value)) = invalid_cd(&records) {
            match config.fault_policy {
                FaultPolicy::Fail => {
                    return Err(postopc_sta::StaError::InvalidCd { field, value }.into());
                }
                FaultPolicy::Quarantine { .. } => {
                    quarantined.push(QuarantinedGate {
                        gate: gate_id,
                        stage: FaultStage::Boundary,
                        cause: format!("non-physical {field} = {value}"),
                    });
                    continue;
                }
            }
        }
        stats.extracted.extend(extracted);
        annotation.set_gate(
            work.gate,
            GateAnnotation {
                transistors: records,
            },
        );
        stats.gates_extracted += 1;
    }

    // Enforce the quarantine budget, then publish the records in `GateId`
    // order (context faults arrive before merge-time ones; the sort is
    // stable and each gate appears at most once).
    stats.gates_quarantined = quarantined.len();
    if let FaultPolicy::Quarantine { max_fraction } = config.fault_policy {
        let total = gate_order.len();
        if quarantined.len() as f64 > max_fraction * total as f64 {
            return Err(FlowError::QuarantineExceeded {
                quarantined: quarantined.len(),
                total,
                max_fraction,
            });
        }
    }
    quarantined.sort_by_key(|q| q.gate.0);
    stats.quarantined = quarantined;
    stats.surrogate_fallbacks = surrogate_fallbacks;
    stats.surrogate_max_residual_nm = surrogate_max_residual_nm;
    Ok(ExtractionOutcome { annotation, stats })
}

/// Where a distinct context's result came from this run.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Provenance {
    /// Imaged through the full OPC → imaging → measurement pipeline.
    Imaged,
    /// Replayed from a warm [`ContextStore`].
    Store,
    /// Predicted by the learned CD surrogate.
    Surrogate,
}

/// Runs a batch of novel contexts through the full pipeline under the
/// configured fault policy, returning policy-resolved results in input
/// order. Cost-aware scheduling: a window's pipeline cost scales with its
/// pixel count (OPC iterations and measurement both ride on the same
/// raster), so the pool hands out chunks weighted by estimated pixels
/// instead of item counts.
fn run_novel_batch(
    config: &ExtractionConfig,
    threads: usize,
    keys: &[&ContextKey],
) -> Vec<UniqueResult> {
    match config.fault_policy {
        FaultPolicy::Fail => postopc_parallel::par_map_costed(
            threads,
            keys,
            |_, key| window_pixel_cost(config, key),
            |_, key| run_unique(config, key),
        )
        .into_iter()
        .map(|r| match r {
            Ok(outcome) => UniqueResult::Ok(outcome),
            Err(e) => UniqueResult::Err(e),
        })
        .collect(),
        FaultPolicy::Quarantine { .. } => {
            let (oks, faults) = postopc_parallel::try_par_map_quarantine_init(
                threads,
                keys,
                "pipeline",
                |_, key| window_pixel_cost(config, key),
                || (),
                |(), _, key| run_unique(config, key),
            );
            let mut out: Vec<Option<UniqueResult>> =
                oks.into_iter().map(|o| o.map(UniqueResult::Ok)).collect();
            for fault in faults {
                out[fault.item] = Some(UniqueResult::Fault(fault.cause.to_string()));
            }
            out.into_iter()
                .map(|o| o.unwrap_or_else(|| unreachable!("every context resolves or faults")))
                .collect()
        }
    }
}

/// Runs the novel contexts with the surrogate tier active, in training
/// rounds: gate decisions for a round are made *serially in key order*
/// against the model as of the round start, the round's fallbacks
/// simulate in parallel, the model absorbs the fresh SOCS truths
/// (serially, in key order) and refits at the round boundary. Work
/// distribution never touches the decision or training stream, so the
/// outcome — including the model's final state — is bit-identical for any
/// thread count.
#[allow(clippy::too_many_arguments)]
fn run_novel_with_surrogate(
    config: &ExtractionConfig,
    threads: usize,
    keys: &[&ContextKey],
    model: &mut SurrogateModel,
    from_surrogate: &mut [bool],
    fallbacks: &mut usize,
    max_residual_nm: &mut f64,
) -> Result<Vec<UniqueResult>> {
    let sc = &config.surrogate;
    let round = sc.round.max(1);
    let mut results: Vec<Option<UniqueResult>> = (0..keys.len()).map(|_| None).collect();
    let mut accepted = 0usize;
    let mut start = 0;
    while start < keys.len() {
        let end = start.saturating_add(round).min(keys.len());
        let mut sim_idx: Vec<usize> = Vec::new();
        let mut audits: Vec<(usize, UniqueOutcome)> = Vec::new();
        for i in start..end {
            match surrogate_outcome(model, sc, keys[i]) {
                Some(outcome) => {
                    accepted += 1;
                    if sc.audit_every > 0 && accepted.is_multiple_of(sc.audit_every) {
                        // Audit: simulate anyway, keep the SOCS truth, and
                        // record the surrogate/SOCS parity residual.
                        audits.push((i, outcome));
                        sim_idx.push(i);
                    } else {
                        results[i] = Some(UniqueResult::Ok(outcome));
                        from_surrogate[i] = true;
                    }
                }
                None => sim_idx.push(i),
            }
        }
        *fallbacks += sim_idx.len();
        let sim_keys: Vec<&ContextKey> = sim_idx.iter().map(|&i| keys[i]).collect();
        let sim_results = run_novel_batch(config, threads, &sim_keys);
        // Train on the freshly simulated truths, serially in key order.
        let mut absorbed = false;
        for (&i, result) in sim_idx.iter().zip(&sim_results) {
            let UniqueResult::Ok(outcome) = result else {
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
                let residual = outcome_residual_nm(predicted, outcome);
                if residual > *max_residual_nm {
                    *max_residual_nm = residual;
                }
            }
        }
        for (i, result) in sim_idx.into_iter().zip(sim_results) {
            results[i] = Some(result);
        }
        if absorbed {
            model.refit()?;
        }
        start = end;
    }
    Ok(results
        .into_iter()
        .map(|r| r.unwrap_or_else(|| unreachable!("every novel context resolves")))
        .collect())
}

/// The surrogate's verdict on one novel context: a fully predicted
/// [`UniqueOutcome`] if the model is warmed up, *every* site passes the
/// leverage gate and every predicted CD is physically plausible —
/// otherwise `None` (take the real simulation path).
fn surrogate_outcome(
    model: &SurrogateModel,
    sc: &SurrogateConfig,
    key: &ContextKey,
) -> Option<UniqueOutcome> {
    if key.sites.is_empty() || model.len() < sc.min_train as u64 {
        return None;
    }
    let limit = sc.gate_threshold * SURROGATE_FEATURE_DIM as f64;
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

/// Phase 1: gather one gate's targets, context, window, sites and local
/// conditions, canonicalised to the window-local frame.
fn build_gate_work(
    design: &Design,
    config: &ExtractionConfig,
    sites_by_gate: &HashMap<GateId, Vec<usize>>,
    gate_id: GateId,
    injected: Option<InjectedFault>,
) -> Result<GateWork> {
    let gate = design.netlist().gate(gate_id);
    let cell = design.library().cell(gate.kind, gate.drive);
    let inst = design.placement().instance(gate_id).ok_or_else(|| {
        FlowError::InvalidConfig(format!("gate {} has no placement instance", gate_id.0))
    })?;
    // Target polygons: this instance's poly shapes in chip coordinates.
    let targets: Vec<Polygon> = cell
        .shapes_on(Layer::Poly)
        .map(|p| inst.transform.apply_polygon(p))
        .collect();
    let window = targets
        .iter()
        .map(|p| p.bbox())
        .reduce(|a, b| a.union_bbox(&b))
        .ok_or_else(|| {
            FlowError::InvalidConfig(format!("cell of gate {} has no poly geometry", gate_id.0))
        })?
        .expand(config.window_margin_nm)?;
    let window = if injected == Some(InjectedFault::DegenerateGeometry) {
        // Collapse the window to a point so the real degenerate-rect
        // validation fires: the fault surfaces as a genuine geometry
        // error, not a synthetic one.
        Rect::new(
            window.left(),
            window.bottom(),
            window.left(),
            window.bottom(),
        )?
    } else {
        window
    };
    // Context: every other poly shape within the optical ambit.
    let search = window.expand(config.context_ambit_nm)?;
    let target_set: std::collections::HashSet<&Polygon> = targets.iter().collect();
    let context = design
        .shapes_in_window(Layer::Poly, search)
        .into_iter()
        .filter(|p| !target_set.contains(p));

    // Canonicalise: translate everything so the window's lower-left corner
    // is the origin. Translated-duplicate neighbourhoods then key (and
    // simulate) identically; integer-nm coordinates keep the shift exact.
    let shift = Vector {
        dx: -window.left(),
        dy: -window.bottom(),
    };
    let local_targets: Vec<Polygon> = targets.iter().map(|p| p.translate(shift)).collect();
    let mut local_context: Vec<Polygon> = context.map(|p| p.translate(shift)).collect();
    // The spatial index returns context in insertion order, which is not
    // translation-invariant — sort into a canonical order.
    local_context.sort_by(|a, b| {
        let ka = a.vertices().iter().map(|p| (p.x, p.y));
        let kb = b.vertices().iter().map(|p| (p.x, p.y));
        ka.cmp(kb)
    });

    // Local exposure conditions, quantised onto the cache lattice. The
    // simulation later runs *at* the quantised conditions, so reuse is
    // exact. Without an across-chip map the nominal conditions pass
    // through untouched.
    let conditions = match &config.across_chip {
        Some(map) => {
            let local = map.conditions_at(design.die(), window.center(), config.sim.conditions);
            ProcessConditions {
                focus_nm: quantize(local.focus_nm, config.focus_quantum_nm),
                dose: quantize(local.dose, config.dose_quantum),
            }
        }
        None => config.sim.conditions,
    };

    let site_indices = sites_by_gate.get(&gate_id).cloned().unwrap_or_default();
    let sites: Vec<SiteKey> = site_indices
        .iter()
        .map(|&i| {
            let s = &design.transistor_sites()[i];
            SiteKey {
                channel: s.channel.translate(shift),
                kind: s.kind,
                width_bits: s.width_nm.to_bits(),
                drawn_bits: s.drawn_l_nm.to_bits(),
                finger: s.finger,
            }
        })
        .collect();
    Ok(GateWork {
        gate: gate_id,
        site_indices,
        key: ContextKey {
            targets: local_targets,
            context: local_context,
            window: window.translate(shift),
            sites,
            focus_bits: conditions.focus_nm.to_bits(),
            dose_bits: conditions.dose.to_bits(),
        },
    })
}

/// Estimated pipeline cost of one distinct context: the pixel count of its
/// padded simulation raster. The padding margin is condition-dependent
/// (defocus widens the kernels, hence the ambit), so it is derived from the
/// key's own quantised conditions — the same stack `run_unique` images with.
fn window_pixel_cost(config: &ExtractionConfig, key: &ContextKey) -> u64 {
    let sim = config.sim.with_conditions(ProcessConditions {
        focus_nm: f64::from_bits(key.focus_bits),
        dose: f64::from_bits(key.dose_bits),
    });
    let margin = sim.kernel_stack().ambit_nm().ceil();
    let nx = (key.window.width() as f64 + 2.0 * margin) / sim.pixel_nm + 1.0;
    let ny = (key.window.height() as f64 + 2.0 * margin) / sim.pixel_nm + 1.0;
    (nx.max(1.0) * ny.max(1.0)) as u64
}

/// Phase 2: OPC, imaging and per-channel measurement for one distinct
/// context, entirely in the window-local frame.
fn run_unique(config: &ExtractionConfig, key: &ContextKey) -> Result<UniqueOutcome> {
    let targets = &key.targets;
    let context = &key.context;
    let window = key.window;
    let mut opc_simulations = 0;
    let mut opc_fragment_moves = 0;

    // Correct the mask.
    let (mask_targets, mask_context) = match config.opc_mode {
        OpcMode::None => (targets.clone(), context.clone()),
        OpcMode::Rule => {
            let t = rules::correct(&config.rule_opc, targets, context)?;
            let c = rules::correct(&config.rule_opc, context, targets)?;
            (t.corrected, c.corrected)
        }
        OpcMode::Model => {
            let c = rules::correct(&config.rule_opc, context, targets)?;
            let m = model::correct(&config.model_opc, targets, &c.corrected, window)?;
            opc_simulations = m.report.simulations;
            opc_fragment_moves = m.report.fragment_moves;
            (m.corrected, c.corrected)
        }
    };

    // Image the corrected mask at the key's (possibly quantised local
    // across-chip) conditions.
    let mask: Vec<Polygon> = mask_targets
        .iter()
        .chain(mask_context.iter())
        .cloned()
        .collect();
    let sim = config.sim.with_conditions(ProcessConditions {
        focus_nm: f64::from_bits(key.focus_bits),
        dose: f64::from_bits(key.dose_bits),
    });
    let image = AerialImage::simulate(&sim, &mask, window)?;

    // Measure every channel; any failure fails the whole context (member
    // gates keep drawn dimensions), matching the per-gate fallback rule.
    let mut per_site = Vec::with_capacity(key.sites.len());
    for sk in &key.sites {
        let site = TransistorSite {
            gate: GateId(0), // local frame: the real id is re-anchored at merge
            kind: sk.kind,
            channel: sk.channel,
            width_nm: f64::from_bits(sk.width_bits),
            drawn_l_nm: f64::from_bits(sk.drawn_bits),
            finger: sk.finger,
        };
        match extract_gate(
            &config.measure,
            &config.process,
            &image,
            &config.resist,
            &site,
        ) {
            Ok(e) => per_site.push((e.slices, e.equivalent)),
            Err(_) => {
                return Ok(UniqueOutcome {
                    opc_simulations,
                    opc_fragment_moves,
                    sites: None,
                })
            }
        }
    }
    Ok(UniqueOutcome {
        opc_simulations,
        opc_fragment_moves,
        sites: Some(per_site),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use postopc_layout::{generate, TechRules};

    fn chain_design(n: usize) -> Design {
        Design::compile(
            generate::inverter_chain(n).expect("netlist"),
            TechRules::n90(),
        )
        .expect("design")
    }

    fn fast_config(mode: OpcMode) -> ExtractionConfig {
        let mut cfg = ExtractionConfig::standard();
        cfg.opc_mode = mode;
        cfg.model_opc.iterations = 3;
        cfg
    }

    #[test]
    fn extracts_all_tagged_gates() {
        let d = chain_design(6);
        let tags = TagSet::all(&d);
        let out = extract_gates(&d, &fast_config(OpcMode::Rule), &tags).expect("extract");
        assert_eq!(out.stats.gates_extracted, 6);
        assert_eq!(out.stats.gates_failed, 0);
        assert_eq!(out.annotation.gate_count(), 6);
        // Each inverter has 2 channels.
        assert_eq!(out.stats.extracted.len(), 12);
        // Extracted lengths are near drawn but not exactly drawn.
        let mean = out.annotation.mean_l_delay_nm().expect("annotated");
        assert!((mean - 90.0).abs() < 20.0, "mean extracted L = {mean}");
    }

    #[test]
    fn selective_extraction_touches_only_tagged() {
        let d = chain_design(8);
        let mut tags = TagSet::new();
        tags.insert(GateId(0));
        tags.insert(GateId(3));
        let out = extract_gates(&d, &fast_config(OpcMode::Rule), &tags).expect("extract");
        assert_eq!(out.annotation.gate_count(), 2);
        assert!(out.annotation.gate(GateId(0)).is_some());
        assert!(out.annotation.gate(GateId(1)).is_none());
        assert_eq!(out.stats.windows, 2);
    }

    #[test]
    fn model_mode_costs_simulations() {
        let d = chain_design(3);
        let mut tags = TagSet::new();
        tags.insert(GateId(1));
        let rule = extract_gates(&d, &fast_config(OpcMode::Rule), &tags).expect("extract");
        let model = extract_gates(&d, &fast_config(OpcMode::Model), &tags).expect("extract");
        assert_eq!(rule.stats.opc_simulations, 0);
        assert!(model.stats.opc_simulations >= 3);
        assert!(model.stats.opc_fragment_moves > 0);
    }

    #[test]
    fn opc_improves_extracted_cd_accuracy() {
        let d = chain_design(5);
        let tags = TagSet::all(&d);
        let none = extract_gates(&d, &fast_config(OpcMode::None), &tags).expect("extract");
        let model = extract_gates(&d, &fast_config(OpcMode::Model), &tags).expect("extract");
        let rms = |out: &ExtractionOutcome| {
            let v: Vec<f64> = out
                .stats
                .extracted
                .iter()
                .map(|e| e.equivalent.l_delay_nm - e.site.drawn_l_nm)
                .collect();
            (v.iter().map(|d| d * d).sum::<f64>() / v.len() as f64).sqrt()
        };
        assert!(
            rms(&model) < rms(&none),
            "model OPC should bring printed CDs toward drawn: {} vs {}",
            rms(&model),
            rms(&none)
        );
    }

    #[test]
    fn annotation_preserves_pin_mapping() {
        let d = Design::compile(
            generate::ripple_carry_adder(1).expect("netlist"),
            TechRules::n90(),
        )
        .expect("design");
        let mut tags = TagSet::new();
        tags.insert(GateId(0)); // a NAND2
        let out = extract_gates(&d, &fast_config(OpcMode::Rule), &tags).expect("extract");
        let ann = out.annotation.gate(GateId(0)).expect("annotated");
        assert_eq!(ann.transistors.len(), 4); // 2 fingers × N/P
        let pins: std::collections::HashSet<Option<usize>> =
            ann.transistors.iter().map(|t| t.input_pin).collect();
        assert!(pins.contains(&Some(0)) && pins.contains(&Some(1)));
    }

    #[test]
    fn parallel_output_is_bit_identical_to_serial() {
        let d = chain_design(10);
        let tags = TagSet::all(&d);
        let mut serial = fast_config(OpcMode::Rule);
        serial.threads = Some(1);
        let mut pooled = fast_config(OpcMode::Rule);
        pooled.threads = Some(4);
        let a = extract_gates(&d, &serial, &tags).expect("serial");
        let b = extract_gates(&d, &pooled, &tags).expect("pooled");
        assert_eq!(a, b, "thread count must not change the outcome");
    }

    #[test]
    fn costed_scheduling_is_bit_identical_across_thread_counts() {
        // A mixed-cell design: inverters and NAND gates have different
        // window sizes, so cost-aware chunking actually varies chunk
        // boundaries with the thread count — the outcome must not.
        let d = Design::compile(
            generate::ripple_carry_adder(2).expect("netlist"),
            TechRules::n90(),
        )
        .expect("design");
        let tags = TagSet::all(&d);
        let mut reference: Option<ExtractionOutcome> = None;
        for threads in [1usize, 2, 3, 8] {
            let mut cfg = fast_config(OpcMode::Rule);
            cfg.threads = Some(threads);
            let out = extract_gates(&d, &cfg, &tags).expect("extract");
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(&out, r, "threads = {threads}"),
            }
        }
    }

    #[test]
    fn cache_hit_path_matches_forced_miss_run() {
        let d = chain_design(10);
        let tags = TagSet::all(&d);
        let mut cached = fast_config(OpcMode::Rule);
        cached.cache = true;
        let mut uncached = fast_config(OpcMode::Rule);
        uncached.cache = false;
        let hit = extract_gates(&d, &cached, &tags).expect("cached");
        let miss = extract_gates(&d, &uncached, &tags).expect("uncached");
        // Identical CDs whether served from the cache or recomputed.
        assert_eq!(hit.annotation, miss.annotation);
        assert_eq!(hit.stats.extracted, miss.stats.extracted);
        assert_eq!(
            hit.stats.cache_hits + hit.stats.cache_misses,
            miss.stats.cache_misses,
            "every gate is accounted for exactly once"
        );
        assert_eq!(miss.stats.cache_hits, 0);
        assert!(
            hit.stats.cache_hits > 0,
            "a uniform inverter chain must share contexts: {:?} misses",
            hit.stats.cache_misses
        );
        assert!(hit.stats.windows < miss.stats.windows);
    }

    #[test]
    fn thread_env_fallback_is_honoured() {
        // `threads: None` defers to POSTOPC_THREADS; forcing 1 must both
        // work and give the standard (multi-thread-identical) outcome.
        let d = chain_design(4);
        let tags = TagSet::all(&d);
        let mut explicit = fast_config(OpcMode::Rule);
        explicit.threads = Some(2);
        let expected = extract_gates(&d, &explicit, &tags).expect("explicit");
        std::env::set_var(postopc_parallel::THREADS_ENV, "1");
        let mut via_env = fast_config(OpcMode::Rule);
        via_env.threads = None;
        let got = extract_gates(&d, &via_env, &tags);
        std::env::remove_var(postopc_parallel::THREADS_ENV);
        assert_eq!(got.expect("env fallback"), expected);
    }

    #[test]
    fn warm_store_reuses_contexts_bit_identically() {
        let d = chain_design(8);
        let tags = TagSet::all(&d);
        let cfg = fast_config(OpcMode::Rule);
        let cold = extract_gates(&d, &cfg, &tags).expect("cold");
        let mut store = ContextStore::new();
        let first = extract_gates_with_store(&d, &cfg, &tags, Some(&mut store)).expect("first");
        // Filling pass: behaves exactly like a cold run, then retains
        // every distinct context.
        assert_eq!(first, cold);
        assert_eq!(store.len(), cold.stats.windows);
        // Warm pass: nothing is re-imaged, the annotation replays exactly.
        let warm = extract_gates_with_store(&d, &cfg, &tags, Some(&mut store)).expect("warm");
        assert_eq!(warm.annotation, cold.annotation);
        assert_eq!(warm.stats.extracted, cold.stats.extracted);
        assert_eq!(warm.stats.windows, 0);
        assert_eq!(warm.stats.store_hits, cold.stats.windows);
    }

    #[test]
    fn context_store_round_trips_through_bytes() {
        let d = chain_design(6);
        let tags = TagSet::all(&d);
        let cfg = fast_config(OpcMode::Rule);
        let mut store = ContextStore::new();
        let cold = extract_gates_with_store(&d, &cfg, &tags, Some(&mut store)).expect("fill");
        let mut bytes = Vec::new();
        store.encode_into(&mut bytes);
        // Canonical encoding: equal stores produce equal bytes.
        let mut again = Vec::new();
        store.encode_into(&mut again);
        assert_eq!(bytes, again);
        let mut cursor = 0;
        let mut decoded = ContextStore::decode_from(&bytes, &mut cursor).expect("decode");
        assert_eq!(cursor, bytes.len());
        assert_eq!(decoded.len(), store.len());
        // The decoded store serves every context of a fresh run.
        let replay = extract_gates_with_store(&d, &cfg, &tags, Some(&mut decoded)).expect("warm");
        assert_eq!(replay.annotation, cold.annotation);
        assert_eq!(replay.stats.windows, 0);
        // Truncation surfaces as a typed error, never a panic.
        let err = ContextStore::decode_from(&bytes[..bytes.len() - 3], &mut 0)
            .expect_err("truncated store must fail");
        assert!(matches!(err, FlowError::Artifact(_)));
    }

    /// A surrogate recipe sized for test designs: tiny warm-up and
    /// rounds so the tier actually engages on a few dozen contexts.
    fn surrogate_config(d: &Design) -> ExtractionConfig {
        let mut cfg = fast_config(OpcMode::Rule);
        // Across-chip variation diversifies the contexts (distinct
        // focus/dose per gate) — exactly the regime where the exact-reuse
        // cache is blind and the surrogate earns its keep.
        cfg.across_chip = Some(AcrossChipMap::typical(d.die()));
        cfg.surrogate = SurrogateConfig {
            enabled: true,
            min_train: 6,
            round: 6,
            audit_every: 3,
            ..SurrogateConfig::standard()
        };
        cfg
    }

    #[test]
    fn surrogate_run_is_bit_identical_across_thread_counts() {
        let d = chain_design(24);
        let tags = TagSet::all(&d);
        let mut reference: Option<ExtractionOutcome> = None;
        for threads in [1usize, 2, 4] {
            let mut cfg = surrogate_config(&d);
            cfg.threads = Some(threads);
            let out = extract_gates(&d, &cfg, &tags).expect("extract");
            assert!(
                out.stats.surrogate_hits > 0,
                "tier must engage: {:?}",
                out.stats
            );
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(&out, r, "threads = {threads}"),
            }
        }
    }

    #[test]
    fn surrogate_predictions_track_simulated_truth() {
        let d = chain_design(24);
        let tags = TagSet::all(&d);
        let with = extract_gates(&d, &surrogate_config(&d), &tags).expect("surrogate");
        let mut cfg_off = surrogate_config(&d);
        cfg_off.surrogate.enabled = false;
        let without = extract_gates(&d, &cfg_off, &tags).expect("exact");
        assert_eq!(without.stats.surrogate_hits, 0);
        assert_eq!(without.stats.surrogate_fallbacks, 0);
        let mut worst = 0.0f64;
        for gate in tags.sorted() {
            let (a, b) = (
                with.annotation.gate(gate).expect("annotated"),
                without.annotation.gate(gate).expect("annotated"),
            );
            for (ta, tb) in a.transistors.iter().zip(&b.transistors) {
                worst = worst.max((ta.l_delay_nm - tb.l_delay_nm).abs());
                worst = worst.max((ta.l_leakage_nm - tb.l_leakage_nm).abs());
            }
        }
        assert!(worst < 2.5, "surrogate CD error {worst} nm too large");
        assert!(
            with.stats.surrogate_max_residual_nm < 2.5,
            "audited residual {} nm too large",
            with.stats.surrogate_max_residual_nm
        );
    }

    #[test]
    fn surrogate_predictions_never_enter_the_warm_store() {
        let d = chain_design(24);
        let tags = TagSet::all(&d);
        let cfg = surrogate_config(&d);
        let mut store = ContextStore::new();
        let out = extract_gates_with_store(&d, &cfg, &tags, Some(&mut store)).expect("extract");
        assert!(out.stats.surrogate_hits > 0);
        // Only the imaged contexts are retained: the store stays pure SOCS.
        assert_eq!(store.len(), out.stats.windows);
        assert_eq!(
            out.stats.windows + out.stats.store_hits + out.stats.surrogate_hits,
            out.stats.cache_misses
        );
    }

    #[test]
    fn fault_injection_bypasses_the_surrogate() {
        let d = chain_design(12);
        let tags = TagSet::all(&d);
        let mut cfg = surrogate_config(&d);
        cfg.fault_policy = FaultPolicy::Quarantine { max_fraction: 1.0 };
        cfg.fault_injection = Some(FaultInjection {
            seed: 7,
            rate: 0.25,
            nan_cd: true,
            degenerate_geometry: false,
            worker_panic: false,
        });
        let out = extract_gates(&d, &cfg, &tags).expect("extract");
        assert_eq!(
            out.stats.surrogate_hits, 0,
            "injected faults must never reach the surrogate"
        );
        assert_eq!(out.stats.surrogate_fallbacks, 0);
        assert!(out.stats.gates_quarantined > 0);
    }

    #[test]
    fn external_model_accumulates_training_across_runs() {
        let d = chain_design(18);
        let tags = TagSet::all(&d);
        let cfg = surrogate_config(&d);
        let mut model = cfg.surrogate.fresh_model();
        let first =
            extract_gates_with_caches(&d, &cfg, &tags, None, Some(&mut model)).expect("first");
        let trained = model.len();
        assert!(trained > 0, "the run must train the external model");
        // Second run starts warm: no warm-up fallbacks, more hits.
        let second =
            extract_gates_with_caches(&d, &cfg, &tags, None, Some(&mut model)).expect("second");
        assert!(model.len() >= trained);
        assert!(second.stats.surrogate_hits >= first.stats.surrogate_hits);
        assert_eq!(second.annotation.gate_count(), d.netlist().gate_count());
    }

    #[test]
    fn across_chip_quantisation_keeps_cache_effective() {
        let d = chain_design(10);
        let tags = TagSet::all(&d);
        let mut cfg = fast_config(OpcMode::Rule);
        cfg.across_chip = Some(AcrossChipMap::typical(d.die()));
        // Coarse lattice: neighbouring gates land on the same conditions.
        cfg.focus_quantum_nm = 10.0;
        cfg.dose_quantum = 0.01;
        let coarse = extract_gates(&d, &cfg, &tags).expect("coarse");
        cfg.focus_quantum_nm = 0.0;
        cfg.dose_quantum = 0.0;
        let exact = extract_gates(&d, &cfg, &tags).expect("exact");
        assert!(
            coarse.stats.cache_hits >= exact.stats.cache_hits,
            "quantisation can only merge contexts: {} vs {}",
            coarse.stats.cache_hits,
            exact.stats.cache_hits
        );
    }
}
