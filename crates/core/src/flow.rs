//! The end-to-end post-OPC timing flow.
//!
//! The sequence the DAC 2005 paper describes:
//!
//! 1. **drawn STA** over the placed-and-routed design;
//! 2. **tag critical gates** on the top-k speed paths;
//! 3. **selective extraction**: OPC + imaging + slice extraction on the
//!    tagged gates (optionally every gate);
//! 4. optional **multi-layer extraction** of the critical nets' printed
//!    wire widths;
//! 5. **back-annotated STA** and comparison (criticality reordering,
//!    worst-slack deviation).

use crate::artifact::{content_hash, WarmArtifact};
use crate::compare::TimingComparison;
use crate::durable::{ArtifactIo, ArtifactLock, IoFaultInjection, RetryPolicy};
use crate::error::{ArtifactErrorKind, FlowError, Result};
use crate::extract::{
    extract_gates_in, Admitted, ContextStore, ExtractionConfig, ExtractionOutcome, ExtractionStats,
    GateEntries,
};
use crate::multilayer::{extract_wires, WireExtractionStats};
use crate::session::{BudgetedOutcome, SampleBudget, SessionQuery, TimingSession};
use crate::tags::TagSet;
use postopc_device::ProcessParams;
use postopc_layout::{Design, NetId};
use postopc_sta::{CdAnnotation, TimingModel, TimingReport};
use std::path::Path;
use std::time::{Duration, Instant};

/// Which gates the flow extracts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selection {
    /// Every gate in the design (full-chip extraction).
    All,
    /// Only gates on the top-`paths` drawn speed paths (the paper's
    /// selective extraction).
    Critical {
        /// Number of top paths whose gates are tagged.
        paths: usize,
    },
}

/// Flow configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowConfig {
    /// Clock period for slack computation, in ps.
    pub clock_ps: f64,
    /// Number of speed paths reported in the comparison.
    pub report_paths: usize,
    /// Gate selection policy.
    pub selection: Selection,
    /// Extraction settings (OPC recipe, imaging, slicing).
    pub extraction: ExtractionConfig,
    /// Run the multi-layer step: measure the printed metal-1 widths of
    /// every net a tagged gate drives or reads, imaged with `extraction`'s
    /// model.
    pub wires: bool,
    /// Device process for timing.
    pub process: ProcessParams,
}

impl FlowConfig {
    /// The paper's flow: selective extraction on the top-20 paths,
    /// model OPC, poly only.
    pub fn standard(clock_ps: f64) -> FlowConfig {
        FlowConfig {
            clock_ps,
            report_paths: 20,
            selection: Selection::Critical { paths: 20 },
            extraction: ExtractionConfig::standard(),
            wires: false,
            process: ProcessParams::n90(),
        }
    }
}

/// The complete result of one flow run.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowReport {
    /// Tagged gates.
    pub tags: TagSet,
    /// Extraction statistics.
    pub extraction: ExtractionStats,
    /// Wire extraction statistics (if the multi-layer step ran).
    pub wire_stats: Option<WireExtractionStats>,
    /// The final annotation (gates + optional nets).
    pub annotation: CdAnnotation,
    /// Drawn vs annotated timing with path comparisons.
    pub comparison: TimingComparison,
    /// Wall-clock time of the extraction step.
    pub extraction_time: Duration,
    /// Wall-clock time of the two timing runs.
    pub timing_time: Duration,
}

impl FlowReport {
    /// Gates quarantined during extraction, in `GateId` order (empty under
    /// [`FaultPolicy::Fail`](crate::FaultPolicy::Fail) or a clean run).
    #[must_use]
    pub fn quarantined(&self) -> &[crate::fault::QuarantinedGate] {
        &self.extraction.quarantined
    }
}

/// A clock `margin` above `design`'s drawn critical delay (0.1 = 10 %
/// slack at drawn timing), with the drawn delay timed on the standard
/// process at a 1 µs probe clock.
///
/// # Errors
///
/// Propagates timing errors.
pub fn margin_clock(design: &Design, margin: f64) -> Result<f64> {
    let probe = TimingModel::new(design, ProcessParams::n90(), 1e6)?;
    let compiled = probe.compile()?;
    let drawn = compiled.evaluate(&mut compiled.scratch(), None)?;
    Ok(drawn.critical_delay_ps() * (1.0 + margin))
}

/// Runs the complete post-OPC timing flow on a compiled design.
///
/// # Errors
///
/// Propagates configuration, simulation, extraction and timing errors.
pub fn run_flow(design: &Design, config: &FlowConfig) -> Result<FlowReport> {
    let model = TimingModel::new(design, config.process.clone(), config.clock_ps)?;
    // One compiled model serves the drawn pass and the final comparison.
    let compiled = model.compile()?;
    let mut scratch = compiled.scratch();

    // Step 1-2: drawn timing and tagging.
    let drawn = compiled.evaluate(&mut scratch, None)?;
    let tags = select_tags(design, config, &drawn);

    // Steps 3-4: selective extraction and the optional wire step.
    let t0 = Instant::now();
    let (outcome, wire_stats, _) = extract_step(
        design,
        config,
        &tags,
        &mut ContextStore::new(),
        &GateEntries::new(),
    )?;
    let extraction_time = t0.elapsed();

    // Step 5: back-annotated timing and comparison.
    let t1 = Instant::now();
    let comparison = TimingComparison::compare_with(
        &compiled,
        &mut scratch,
        design,
        &outcome.annotation,
        config.report_paths,
    )?;
    let timing_time = t1.elapsed();

    Ok(FlowReport {
        tags,
        extraction: outcome.stats,
        wire_stats,
        annotation: outcome.annotation,
        comparison,
        extraction_time,
        timing_time,
    })
}

/// The flow's tag step: every gate, or the gates on the top drawn speed
/// paths of `drawn`.
pub(crate) fn select_tags(design: &Design, config: &FlowConfig, drawn: &TimingReport) -> TagSet {
    match config.selection {
        Selection::All => TagSet::all(design),
        Selection::Critical { paths } => TagSet::from_critical_paths(design, drawn, paths),
    }
}

/// The flow's extraction steps: extracts the tagged gates through
/// `store`, with `known` mapping gates to the entries holding their
/// contexts, then, when the config enables the multi-layer step,
/// annotates the printed widths of every net a tagged gate drives or
/// reads into the outcome's annotation. Also returns the entries the
/// map may admit ([`extract_gates_in`]).
///
/// # Errors
///
/// Propagates extraction and wire-extraction errors.
pub(crate) fn extract_step(
    design: &Design,
    config: &FlowConfig,
    tags: &TagSet,
    store: &mut ContextStore,
    known: &GateEntries,
) -> Result<(ExtractionOutcome, Option<WireExtractionStats>, Admitted)> {
    let (mut outcome, admitted) =
        extract_gates_in(design, &config.extraction, tags, store, known, None)?;
    if !config.wires {
        return Ok((outcome, None, admitted));
    }
    let mut nets: Vec<NetId> = Vec::new();
    for gate in tags.sorted() {
        let g = design.netlist().gate(gate);
        nets.push(g.output);
        nets.extend(g.inputs.iter().copied());
    }
    nets.sort_unstable();
    nets.dedup();
    let stats = extract_wires(design, &config.extraction, &nets, &mut outcome.annotation)?;
    Ok((outcome, Some(stats), admitted))
}

/// Why a [`serve`] invocation came up cold instead of warm — the rung of
/// the recovery ladder that rejected the persisted artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColdReason {
    /// No artifact existed at the given path (first run, or a previous
    /// crash before any artifact was published).
    Missing,
    /// The artifact bytes were torn or garbled: bad magic, truncation, a
    /// checksum mismatch or an undecodable section.
    Corrupt,
    /// The artifact decoded cleanly but its content hash does not match
    /// these inputs — the layout, process or config changed since it was
    /// written.
    Stale,
    /// The artifact carries an unsupported format version (written by a
    /// different build).
    Version,
    /// The artifact could not be read at all (I/O error, including an
    /// exhausted transient-retry budget).
    Io,
}

impl std::fmt::Display for ColdReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ColdReason::Missing => "missing",
            ColdReason::Corrupt => "corrupt",
            ColdReason::Stale => "stale-hash",
            ColdReason::Version => "version",
            ColdReason::Io => "io",
        })
    }
}

impl ColdReason {
    /// Classifies a failed artifact load into its ladder rung. Non-artifact
    /// errors (which the load path does not produce) classify as `Io`.
    fn classify(e: &FlowError) -> ColdReason {
        match e {
            FlowError::Artifact(a) => match a.kind {
                ArtifactErrorKind::Corrupt => ColdReason::Corrupt,
                ArtifactErrorKind::Version { .. } => ColdReason::Version,
                ArtifactErrorKind::StaleHash { .. } => ColdReason::Stale,
                ArtifactErrorKind::Io { .. } | ArtifactErrorKind::Locked { .. } => ColdReason::Io,
            },
            _ => ColdReason::Io,
        }
    }
}

/// What happened to artifact persistence during a [`serve`] invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistStatus {
    /// Nothing to persist: no artifact path was given, or the session
    /// came up warm from a still-valid artifact.
    Skipped,
    /// A fresh artifact was atomically published for the next caller.
    Persisted,
    /// The save failed after retries. The serve still answered every
    /// query (persistence is an optimization, not a correctness
    /// dependency); the next caller pays a cold start.
    Failed {
        /// The rendered artifact error that aborted the save.
        detail: String,
    },
}

/// Durability and deadline options for [`serve_with`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeOptions {
    /// Seeded I/O fault injection over every artifact read, write, fsync,
    /// rename and lock this serve performs. `None` (the default) is the
    /// plain production I/O path. Injection never changes query answers —
    /// only whether/how persistence succeeds — so it deliberately lives
    /// outside [`FlowConfig`] and the artifact content hash.
    pub io_fault: Option<IoFaultInjection>,
    /// Retry policy for the transient I/O error class.
    pub retry: RetryPolicy,
    /// Optional query deadline as a deterministic sample-count budget
    /// shared by the whole batch (Monte Carlo samples, corners and
    /// what-ifs all draw from it in evaluation-equivalents). Exhaustion
    /// yields typed [`BudgetedOutcome::Partial`] / `Skipped` outcomes,
    /// never a hang or a panic.
    pub budget: Option<u64>,
}

/// The result of one [`serve`] invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// One outcome per submitted query, in submission order. Without a
    /// budget every entry is [`BudgetedOutcome::Full`].
    pub outcomes: Vec<BudgetedOutcome>,
    /// Whether the session came up warm from a valid persisted artifact
    /// (false: it compiled cold, and — when a path was given — wrote a
    /// fresh artifact for the next invocation).
    pub warm: bool,
    /// Why the session came up cold, when it did and a path was given:
    /// the recovery-ladder rung that rejected the artifact. `None` on a
    /// warm start or a pathless serve.
    pub cold_reason: Option<ColdReason>,
    /// Whether a fresh artifact was persisted for the next caller.
    pub persist: PersistStatus,
    /// Wall-clock time to bring the session up (cold compile + extract,
    /// or artifact load + baseline re-evaluation).
    pub startup_time: Duration,
    /// Wall-clock time to answer all queries against the warm state.
    pub query_time: Duration,
}

/// Batch-query service mode: brings up one [`TimingSession`] — warm from
/// `artifact_path` when a valid artifact for these exact inputs exists
/// there, cold otherwise (persisting a fresh artifact to the path for
/// the next caller) — and answers every query against it. Equivalent to
/// [`serve_with`] under [`ServeOptions::default`].
///
/// A stale artifact (different content hash over the layout, process,
/// clock, gate selection, wire step or extraction config), a corrupt
/// one, or one that cannot be read is treated as absent: the service
/// recompiles cold and overwrites it, recording the
/// [`ServeReport::cold_reason`]. Answers are bit-identical either way;
/// only `startup_time` differs.
///
/// # Errors
///
/// Propagates configuration, extraction and timing errors, and the typed
/// [`ArtifactErrorKind::Locked`] contention error. A failed artifact
/// *save* is not an error: it degrades to [`PersistStatus::Failed`] and
/// the queries are still answered.
pub fn serve(
    design: &Design,
    config: &FlowConfig,
    artifact_path: Option<&Path>,
    queries: &[SessionQuery],
) -> Result<ServeReport> {
    serve_with(
        design,
        config,
        artifact_path,
        queries,
        &ServeOptions::default(),
    )
}

/// [`serve`] with explicit durability and deadline options: seeded I/O
/// fault injection, a transient-retry policy and a sample-count query
/// budget. See [`ServeOptions`].
///
/// # Errors
///
/// As [`serve`]; additionally [`FlowError::InvalidConfig`] when the
/// fault injection is malconfigured.
pub fn serve_with(
    design: &Design,
    config: &FlowConfig,
    artifact_path: Option<&Path>,
    queries: &[SessionQuery],
    options: &ServeOptions,
) -> Result<ServeReport> {
    if let Some(injection) = &options.io_fault {
        injection.validate()?;
    }
    let mut io = ArtifactIo::new(options.io_fault, options.retry);
    // The sidecar advisory lock (`<path>.lock`) brackets the whole
    // load/save window, so two serves against one artifact path cannot
    // interleave; dropping the guard (on every exit path) releases it.
    let _lock = match artifact_path {
        Some(path) => Some(ArtifactLock::acquire(&mut io, path)?),
        None => None,
    };
    let model = TimingModel::new(design, config.process.clone(), config.clock_ps)?;
    let t0 = Instant::now();
    let expected = content_hash(design, config);
    // The recovery ladder: missing → cold; unreadable/torn/foreign-version/
    // stale → cold with the rung recorded; valid → warm.
    let (restored, cold_reason) = match artifact_path {
        None => (None, None),
        Some(p) if !p.exists() => (None, Some(ColdReason::Missing)),
        Some(p) => match WarmArtifact::load_validated_with(p, expected, &mut io) {
            Ok(artifact) => (Some(artifact), None),
            Err(e) => (None, Some(ColdReason::classify(&e))),
        },
    };
    let warm = restored.is_some();
    let mut session = match restored {
        Some(artifact) => TimingSession::restore_hashed(&model, config, artifact, expected)?,
        None => TimingSession::new_hashed(&model, config, expected)?,
    };
    let persist = match (artifact_path, warm) {
        (Some(path), false) => match session.artifact().save_with(path, &mut io) {
            Ok(()) => PersistStatus::Persisted,
            // Graceful degradation: the artifact is a warm-start
            // optimization, so a failed save must not take down the
            // answers. The next caller simply starts cold.
            Err(e) => PersistStatus::Failed {
                detail: e.to_string(),
            },
        },
        _ => PersistStatus::Skipped,
    };
    let startup_time = t0.elapsed();
    let t1 = Instant::now();
    let mut budget = options.budget.map(SampleBudget::new);
    let outcomes = queries
        .iter()
        .map(|q| session.run_budgeted(q, budget.as_mut()))
        .collect::<Result<Vec<_>>>()?;
    let query_time = t1.elapsed();
    Ok(ServeReport {
        outcomes,
        warm,
        cold_reason,
        persist,
        startup_time,
        query_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::OpcMode;
    use postopc_layout::{generate, TechRules};

    fn small_design() -> Design {
        Design::compile(
            generate::ripple_carry_adder(2).expect("netlist"),
            TechRules::n90(),
        )
        .expect("design")
    }

    fn fast_flow(selection: Selection) -> FlowConfig {
        let mut cfg = FlowConfig::standard(800.0);
        cfg.selection = selection;
        cfg.extraction.opc_mode = OpcMode::Rule;
        cfg.report_paths = 5;
        cfg
    }

    #[test]
    fn selective_flow_runs_end_to_end() {
        let d = small_design();
        let report = run_flow(&d, &fast_flow(Selection::Critical { paths: 2 })).expect("flow");
        assert!(!report.tags.is_empty());
        assert!(report.tags.len() < d.netlist().gate_count());
        assert_eq!(report.extraction.gates_extracted, report.tags.len());
        assert_eq!(report.annotation.gate_count(), report.tags.len());
        // Annotated timing differs from drawn.
        assert_ne!(
            report.comparison.drawn.critical_delay_ps(),
            report.comparison.annotated.critical_delay_ps()
        );
        assert!(report.wire_stats.is_none());
    }

    #[test]
    fn full_flow_annotates_every_gate() {
        let d = small_design();
        let report = run_flow(&d, &fast_flow(Selection::All)).expect("flow");
        assert_eq!(report.annotation.gate_count(), d.netlist().gate_count());
    }

    #[test]
    fn selective_is_cheaper_than_full() {
        let d = small_design();
        let selective = run_flow(&d, &fast_flow(Selection::Critical { paths: 1 })).expect("flow");
        let full = run_flow(&d, &fast_flow(Selection::All)).expect("flow");
        assert!(selective.extraction.windows < full.extraction.windows);
    }

    #[test]
    fn serve_warms_up_from_its_own_artifact_bit_identically() {
        let d = small_design();
        let cfg = fast_flow(Selection::Critical { paths: 2 });
        let monte_carlo = postopc_sta::MonteCarloConfig {
            samples: 30,
            sigma_nm: 1.5,
            seed: 7,
            ..postopc_sta::MonteCarloConfig::default()
        };
        let queries = vec![
            SessionQuery::Corners(postopc_sta::Corner::classic_set(6.0)),
            SessionQuery::MonteCarlo(monte_carlo.clone()),
            SessionQuery::Guardband(crate::guardband::GuardbandConfig {
                monte_carlo,
                ..crate::guardband::GuardbandConfig::default()
            }),
        ];
        let dir = std::env::temp_dir().join("postopc-serve-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("serve.bin");
        std::fs::remove_file(&path).ok();

        let cold = serve(&d, &cfg, Some(&path), &queries).expect("cold serve");
        assert!(!cold.warm);
        assert!(path.exists(), "cold serve persists an artifact");
        let warm = serve(&d, &cfg, Some(&path), &queries).expect("warm serve");
        assert!(warm.warm);
        assert_eq!(cold.outcomes, warm.outcomes);

        // A config change invalidates the artifact: back to cold.
        let mut other = cfg.clone();
        other.clock_ps = 900.0;
        let stale = serve(&d, &other, Some(&path), &queries).expect("stale serve");
        assert!(!stale.warm);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_invalidates_on_selection_or_wire_changes() {
        let d = small_design();
        let cfg = fast_flow(Selection::Critical { paths: 2 });
        // Monte Carlo samples around the extracted baseline, so its
        // answer genuinely depends on which gates the selection tagged.
        let queries = vec![SessionQuery::MonteCarlo(postopc_sta::MonteCarloConfig {
            samples: 30,
            sigma_nm: 1.5,
            seed: 7,
            ..postopc_sta::MonteCarloConfig::default()
        })];
        let dir = std::env::temp_dir().join("postopc-serve-selection-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("serve.bin");
        std::fs::remove_file(&path).ok();
        let cold = serve(&d, &cfg, Some(&path), &queries).expect("cold serve");
        assert!(!cold.warm);

        // Varying only the tagged-path count must not reuse the artifact:
        // the extraction (and so every answer) covers different gates.
        let mut wider = cfg.clone();
        wider.selection = Selection::Critical { paths: 3 };
        let invalidated = serve(&d, &wider, Some(&path), &queries).expect("wider serve");
        assert!(
            !invalidated.warm,
            "a --paths change must invalidate the artifact"
        );
        let reference = serve(&d, &wider, None, &queries).expect("reference serve");
        assert_eq!(invalidated.outcomes, reference.outcomes);
        // The overwritten artifact now serves the wider selection warm.
        let warm = serve(&d, &wider, Some(&path), &queries).expect("warm serve");
        assert!(warm.warm);
        assert_eq!(warm.outcomes, reference.outcomes);

        // Enabling the wire step likewise invalidates.
        let mut wired = wider.clone();
        wired.wires = true;
        let rewired = serve(&d, &wired, Some(&path), &queries).expect("wired serve");
        assert!(
            !rewired.warm,
            "enabling the wire step must invalidate the artifact"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_quarantining_serve_never_warms_a_clean_one() {
        let d = small_design();
        let clean = fast_flow(Selection::Critical { paths: 2 });
        let queries = vec![SessionQuery::MonteCarlo(postopc_sta::MonteCarloConfig {
            samples: 30,
            sigma_nm: 1.5,
            seed: 7,
            ..postopc_sta::MonteCarloConfig::default()
        })];
        let dir = std::env::temp_dir().join("postopc-serve-quarantine-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("serve.bin");
        std::fs::remove_file(&path).ok();

        // Every tagged gate's merged CD turns NaN and is quarantined: the
        // persisted annotation keeps drawn CDs for all of them.
        let mut quarantining = clean.clone();
        quarantining.extraction.fault_policy = crate::FaultPolicy::Quarantine { max_fraction: 1.0 };
        quarantining.extraction.fault_injection = Some(crate::FaultInjection {
            seed: 3,
            rate: 1.0,
            nan_cd: true,
            degenerate_geometry: false,
            worker_panic: false,
        });
        let faulted = serve(&d, &quarantining, Some(&path), &queries).expect("quarantined serve");
        assert_eq!(faulted.persist, PersistStatus::Persisted);

        let reference = serve(&d, &clean, None, &queries).expect("clean cold serve");
        assert_ne!(faulted.outcomes, reference.outcomes, "the faults must bite");
        let after = serve(&d, &clean, Some(&path), &queries).expect("clean serve");
        assert!(
            !after.warm,
            "a clean serve must not trust a quarantined artifact"
        );
        assert_eq!(after.cold_reason, Some(ColdReason::Stale));
        assert_eq!(after.outcomes, reference.outcomes);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn multilayer_step_annotates_nets() {
        let d = small_design();
        let mut cfg = fast_flow(Selection::Critical { paths: 1 });
        cfg.wires = true;
        let report = run_flow(&d, &cfg).expect("flow");
        let stats = report.wire_stats.expect("wire step ran");
        assert!(stats.nets_annotated > 0);
        assert_eq!(report.annotation.net_count(), stats.nets_annotated);
    }
}
