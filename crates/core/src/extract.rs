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

use crate::codec::{corrupt, put_f64, put_mos_kind, put_polygon, put_rect, put_u64, Reader};
use crate::error::{FlowError, Result};
use crate::fault::{FaultInjection, FaultPolicy, FaultStage, InjectedFault, QuarantinedGate};
use crate::surrogate::{SurrogateConfig, SurrogateModel};
use crate::tags::TagSet;
use postopc_cdex::{extract_gate, ExtractedGate, MeasureConfig};
use postopc_device::{EquivalentGate, GateSlice, MosKind, ProcessParams};
use postopc_geom::{Coord, Polygon, Rect, Vector};
use postopc_layout::{Design, GateId, Layer, TransistorSite};
use postopc_litho::{AerialImage, ProcessConditions, ResistModel, SimulationSpec};
use postopc_opc::{rules, selective, ModelOpcConfig, RuleOpcConfig};
use postopc_parallel::FaultCause;
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
    /// fault in `GateId` order, a panic as [`FlowError::WorkerPanic`];
    /// [`FaultPolicy::Quarantine`] records the gate (it keeps drawn
    /// dimensions) and keeps going.
    pub fault_policy: FaultPolicy,
    /// Optional deterministic fault injector — validation plumbing for the
    /// quarantine machinery; `None` (the default) leaves the engine on its
    /// normal path.
    pub fault_injection: Option<FaultInjection>,
    /// Learned CD surrogate tier: confidence-gated ridge/stump predictions
    /// that bypass the OPC → imaging → measurement pipeline for novel
    /// contexts a run-local model is confident about. Off by default — the
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
    /// quarantine budget or injection rate, and [`FlowError::Opc`] for a
    /// model-OPC EPE search range that is not finite and positive.
    pub fn validate(&self) -> Result<()> {
        self.model_opc.validate()?;
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

    /// The same configuration imaged at different process conditions (for
    /// process-window timing, experiment F5). Only `sim` moves: model OPC
    /// images at `model_opc.sim`, which this leaves nominal, and rule OPC
    /// reads no conditions, so OPC builds the same masks at every
    /// condition.
    pub fn with_conditions(&self, conditions: ProcessConditions) -> ExtractionConfig {
        let mut cfg = self.clone();
        cfg.sim = cfg.sim.with_conditions(conditions);
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
pub(crate) struct SiteKey {
    pub(crate) channel: Rect,
    kind: MosKind,
    pub(crate) width_bits: u64,
    pub(crate) drawn_bits: u64,
    finger: usize,
}

/// Everything the per-window pipeline depends on, canonicalised to the
/// window-local frame. Two gates with equal keys print identically.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct ContextKey {
    pub(crate) targets: Vec<Polygon>,
    pub(crate) context: Vec<Polygon>,
    pub(crate) window: Rect,
    pub(crate) sites: Vec<SiteKey>,
    pub(crate) focus_bits: u64,
    pub(crate) dose_bits: u64,
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
pub(crate) struct UniqueOutcome {
    pub(crate) opc_simulations: usize,
    pub(crate) opc_fragment_moves: usize,
    /// Per-channel slices and equivalent, in site order; `None` if any
    /// channel failed to print (member gates keep drawn dimensions).
    pub(crate) sites: Option<Vec<(Vec<GateSlice>, EquivalentGate)>>,
}

/// Phase-2 result per distinct context: its outcome, or the fault (typed
/// error or captured panic) the merge resolves under the run's
/// [`FaultPolicy`] for every member gate.
pub(crate) type UniqueResult = std::result::Result<UniqueOutcome, FaultCause<FlowError>>;

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
                encode_entry(key, outcome, &mut buf);
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
    pub(crate) fn decode_from(r: &mut Reader) -> Result<ContextStore> {
        let count = r.count()?;
        let mut entries = HashMap::with_capacity(count);
        for _ in 0..count {
            let mut entry = r.sub()?;
            let (key, outcome) = decode_entry(&mut entry)?;
            entry.finish()?;
            entries.insert(key, outcome);
        }
        Ok(ContextStore { entries })
    }
}

/// One stored context: its key (targets, context, window, sites,
/// conditions), then its outcome (OPC counters and, when every channel
/// printed, per-site slices and equivalent).
fn encode_entry(key: &ContextKey, outcome: &UniqueOutcome, out: &mut Vec<u8>) {
    for polygons in [&key.targets, &key.context] {
        put_u64(out, polygons.len() as u64);
        for p in polygons {
            put_polygon(out, p);
        }
    }
    put_rect(out, key.window);
    put_u64(out, key.sites.len() as u64);
    for s in &key.sites {
        put_rect(out, s.channel);
        put_mos_kind(out, s.kind);
        put_u64(out, s.width_bits);
        put_u64(out, s.drawn_bits);
        put_u64(out, s.finger as u64);
    }
    put_u64(out, key.focus_bits);
    put_u64(out, key.dose_bits);
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
                    put_f64(out, s.w_nm);
                    put_f64(out, s.l_nm);
                }
                put_f64(out, equivalent.w_nm);
                put_f64(out, equivalent.l_delay_nm);
                put_f64(out, equivalent.l_leakage_nm);
            }
        }
    }
}

fn decode_polygons(r: &mut Reader) -> Result<Vec<Polygon>> {
    let n = r.count()?;
    let mut polygons = Vec::with_capacity(n);
    for _ in 0..n {
        polygons.push(r.polygon()?);
    }
    Ok(polygons)
}

/// Reads an entry written by [`encode_entry`]. An outcome must cover
/// exactly its key's sites: the merge pairs them one to one.
fn decode_entry(r: &mut Reader) -> Result<(ContextKey, UniqueOutcome)> {
    let targets = decode_polygons(r)?;
    let context = decode_polygons(r)?;
    let window = r.rect()?;
    let n_sites = r.count()?;
    let mut sites = Vec::with_capacity(n_sites);
    for _ in 0..n_sites {
        sites.push(SiteKey {
            channel: r.rect()?,
            kind: r.mos_kind()?,
            width_bits: r.u64()?,
            drawn_bits: r.u64()?,
            finger: r.u64()? as usize,
        });
    }
    let key = ContextKey {
        targets,
        context,
        window,
        sites,
        focus_bits: r.u64()?,
        dose_bits: r.u64()?,
    };
    let opc_simulations = r.u64()? as usize;
    let opc_fragment_moves = r.u64()? as usize;
    let sites = match r.u8()? {
        0 => None,
        1 => {
            let n = r.count()?;
            if n != key.sites.len() {
                return Err(corrupt("stored outcome does not cover its key's sites"));
            }
            let mut per_site = Vec::with_capacity(n);
            for _ in 0..n {
                let n_slices = r.count()?;
                let mut slices = Vec::with_capacity(n_slices);
                for _ in 0..n_slices {
                    slices.push(GateSlice {
                        w_nm: r.f64()?,
                        l_nm: r.f64()?,
                    });
                }
                let equivalent = EquivalentGate {
                    w_nm: r.f64()?,
                    l_delay_nm: r.f64()?,
                    l_leakage_nm: r.f64()?,
                };
                per_site.push((slices, equivalent));
            }
            Some(per_site)
        }
        _ => return Err(corrupt("invalid stored outcome tag")),
    };
    let outcome = UniqueOutcome {
        opc_simulations,
        opc_fragment_moves,
        sites,
    };
    Ok((key, outcome))
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
/// errors and captured worker panics ([`FlowError::WorkerPanic`]), the
/// first in `GateId` order, and rejects non-physical merged CDs with
/// [`postopc_sta::StaError::InvalidCd`]. Under
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
    extract_gates_in(design, config, tags, store, None)
}

/// [`extract_gates_with_store`], with the surrogate tier recording every
/// novel context into `recorder` and serving none when one is given: the
/// trainer's run ([`SurrogateModel::train`]).
pub(crate) fn extract_gates_in(
    design: &Design,
    config: &ExtractionConfig,
    tags: &TagSet,
    store: Option<&mut ContextStore>,
    recorder: Option<&mut SurrogateModel>,
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

    // Phase 1: build each gate's canonical context key. A faulting gate
    // (typed error *or* worker panic) comes back as its fault, in input
    // order, and is resolved in `GateId` order: the first one fails the run
    // under `Fail`, every one is set aside under `Quarantine`.
    let mut quarantined: Vec<QuarantinedGate> = Vec::new();
    let built = postopc_parallel::par_map_caught(
        threads,
        &gate_order,
        |_, _| 1,
        |_, gate_id| {
            let injected = injected_for(*gate_id);
            if injected == Some(InjectedFault::WorkerPanic) {
                panic!(
                    "injected fault: worker panic while building gate {} context",
                    gate_id.0
                );
            }
            build_gate_work(design, config, &sites_by_gate, *gate_id, injected)
        },
    );
    let mut works: Vec<Option<GateWork>> = Vec::with_capacity(built.len());
    for (work, &gate) in built.into_iter().zip(&gate_order) {
        works.push(match work {
            Ok(work) => Some(work),
            Err(cause) => {
                resolve_fault(
                    config.fault_policy,
                    &mut quarantined,
                    gate,
                    FaultStage::Context,
                    cause.to_string(),
                    cause.into(),
                )?;
                None
            }
        });
    }

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
                    served[i] = Some(Ok(outcome.clone()));
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
    // simulation.
    let novel = crate::surrogate::resolve_novel(config, threads, &novel_keys, recorder)?;
    // Retain every freshly *simulated* context — surrogate predictions
    // never enter the store, which stays pure SOCS — then slot the novel
    // results back into key order.
    if store_enabled {
        if let Some(store) = store {
            for ((&pos, &predicted), result) in
                novel_pos.iter().zip(&novel.predicted).zip(&novel.results)
            {
                if predicted {
                    continue;
                }
                if let Ok(outcome) = result {
                    store
                        .entries
                        .insert(unique_keys[pos].clone(), outcome.clone());
                }
            }
        }
    }
    for ((pos, predicted), result) in novel_pos
        .into_iter()
        .zip(novel.predicted)
        .zip(novel.results)
    {
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
            Ok(outcome) => outcome,
            Err(cause) => {
                resolve_fault(
                    config.fault_policy,
                    &mut quarantined,
                    gate_id,
                    FaultStage::Pipeline,
                    cause.to_string(),
                    cause.clone().into(),
                )?;
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
            resolve_fault(
                config.fault_policy,
                &mut quarantined,
                gate_id,
                FaultStage::Boundary,
                format!("non-physical {field} = {value}"),
                postopc_sta::StaError::InvalidCd { field, value }.into(),
            )?;
            continue;
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
    stats.surrogate_fallbacks = novel.fallbacks;
    stats.surrogate_max_residual_nm = novel.max_residual_nm;
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

/// Resolves one gate's fault under the run's [`FaultPolicy`]: `Fail` makes
/// `error` the run's error, and `Quarantine` records the gate at `stage`
/// with `cause` as its text (the gate keeps drawn dimensions) and lets the
/// run go on. Every fault the run meets, in either phase or at the
/// boundary guard, is resolved here.
fn resolve_fault(
    policy: FaultPolicy,
    quarantined: &mut Vec<QuarantinedGate>,
    gate: GateId,
    stage: FaultStage,
    cause: String,
    error: FlowError,
) -> Result<()> {
    match policy {
        FaultPolicy::Fail => Err(error),
        FaultPolicy::Quarantine { .. } => {
            quarantined.push(QuarantinedGate { gate, stage, cause });
            Ok(())
        }
    }
}

/// Runs a batch of novel contexts through the full pipeline, returning
/// each context's outcome or fault in input order. Cost-aware scheduling:
/// a window's pipeline cost scales with its pixel count (OPC iterations
/// and measurement both ride on the same raster), so the pool hands out
/// chunks weighted by estimated pixels instead of item counts.
pub(crate) fn run_novel_batch(
    config: &ExtractionConfig,
    threads: usize,
    keys: &[&ContextKey],
) -> Vec<UniqueResult> {
    postopc_parallel::par_map_caught(
        threads,
        keys,
        |_, key| window_pixel_cost(config, key),
        |_, key| run_unique(config, key),
    )
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
            // Model OPC on the targets against the rule-corrected context.
            let (model_opc, rule_opc) = (&config.model_opc, &config.rule_opc);
            let m = selective::correct(model_opc, rule_opc, targets, context, &[], window)?;
            opc_simulations = m.model_report.simulations;
            opc_fragment_moves = m.model_report.fragment_moves;
            (m.corrected_tagged, m.corrected_untagged)
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
    fn validate_rejects_a_non_finite_epe_search() {
        for value in [f64::INFINITY, f64::NAN] {
            let mut cfg = ExtractionConfig::standard();
            cfg.model_opc.epe_search = value;
            let err = cfg.validate().expect_err("rejected");
            assert!(
                matches!(
                    err,
                    FlowError::Opc(postopc_opc::OpcError::InvalidEpeSearch { .. })
                ),
                "{err}"
            );
        }
        assert!(ExtractionConfig::standard().validate().is_ok());
    }

    #[test]
    fn with_conditions_moves_only_the_imaging_conditions() {
        let base = ExtractionConfig::standard();
        let conditions = ProcessConditions {
            focus_nm: 75.0,
            dose: 1.06,
        };
        let mut expected = base.clone();
        expected.sim = base.sim.with_conditions(conditions);
        assert_eq!(base.with_conditions(conditions), expected);
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
        for threads in [1usize, 2, 3, 4, 8] {
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
        let mut decoded = decode_store(&bytes).expect("decode");
        assert_eq!(decoded.len(), store.len());
        // The decoded store serves every context of a fresh run.
        let replay = extract_gates_with_store(&d, &cfg, &tags, Some(&mut decoded)).expect("warm");
        assert_eq!(replay.annotation, cold.annotation);
        assert_eq!(replay.stats.windows, 0);
        // Truncation surfaces as a typed error, never a panic.
        let err = decode_store(&bytes[..bytes.len() - 3]).expect_err("truncated store must fail");
        assert!(matches!(err, FlowError::Artifact(_)));
    }

    /// Decodes an encoded store through the codec's container, requiring
    /// the decoder to consume every byte.
    fn decode_store(payload: &[u8]) -> Result<ContextStore> {
        let sealed = crate::codec::seal(*b"TESTSTOR", 1, |out| out.extend_from_slice(payload));
        let mut r = Reader::open(&sealed, *b"TESTSTOR", 1)?;
        let store = ContextStore::decode_from(&mut r)?;
        r.finish()?;
        Ok(store)
    }

    #[test]
    fn a_stored_outcome_must_cover_its_keys_sites() {
        // The merge pairs a gate's sites with its outcome's entries one to
        // one, so an outcome one channel short would silently drop a
        // transistor from every member gate's annotation.
        let d = chain_design(6);
        let tags = TagSet::all(&d);
        let cfg = fast_config(OpcMode::Rule);
        let mut store = ContextStore::new();
        extract_gates_with_store(&d, &cfg, &tags, Some(&mut store)).expect("fill");
        let mut shortened = 0;
        for outcome in store.entries.values_mut() {
            if let Some(per_site) = outcome.sites.as_mut().filter(|s| s.len() == 2) {
                per_site.pop();
                shortened += 1;
            }
        }
        assert!(shortened > 0, "an inverter chain stores two-site contexts");
        let mut bytes = Vec::new();
        store.encode_into(&mut bytes);
        match decode_store(&bytes) {
            Err(FlowError::Artifact(e)) => {
                assert_eq!(e.kind, crate::error::ArtifactErrorKind::Corrupt);
                assert!(e.detail.contains("does not cover"), "{e}");
            }
            other => panic!("a short stored outcome must not decode: {other:?}"),
        }
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
