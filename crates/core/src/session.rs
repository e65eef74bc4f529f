//! Warm batch-query timing sessions: one expensive compile, many cheap
//! queries.
//!
//! A cold [`run_flow`](crate::run_flow) pays for OPC + imaging +
//! extraction on every invocation, even when the design has not changed.
//! A [`TimingSession`] pays once — or not at all, when restored from a
//! persisted [`WarmArtifact`] — and then answers guardband, corner,
//! Monte Carlo and what-if queries against the warm compiled state,
//! reusing one [`StaScratch`]'s buffers across every query.
//!
//! Incremental ECO re-analysis rides the same state: an edit that
//! dirties K gates re-images only the litho contexts the warm
//! [`ContextStore`] has not seen (`stats.windows` counts exactly those)
//! and re-propagates only the affected fanout cone through the compiled
//! CSR graph ([`CompiledSta::evaluate_eco`]) — bit-identical to a full
//! recompile, by construction and by test.

use crate::artifact::{content_hash, WarmArtifact};
use crate::error::{FlowError, Result};
use crate::extract::{extract_gates_with_caches, ContextStore, ExtractionStats};
use crate::flow::{FlowConfig, Selection};
use crate::guardband::{GuardbandAnalysis, GuardbandConfig};
use crate::multilayer::extract_wires;
use crate::tags::TagSet;
use postopc_layout::{Design, NetId};
use postopc_litho::SurrogateModel;
use postopc_sta::{
    analyze_corners_with, statistical, CdAnnotation, CompiledSta, Corner, MonteCarloConfig,
    MonteCarloResult, StaScratch, TimingModel, TimingReport,
};

/// One request against a warm session.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionQuery {
    /// Corner-vs-statistical guardband comparison around the session's
    /// extracted baseline.
    Guardband(GuardbandConfig),
    /// A corner sweep (uniform CD shifts) through the warm evaluator.
    Corners(Vec<Corner>),
    /// A Monte Carlo run around the session's extracted baseline.
    MonteCarlo(MonteCarloConfig),
    /// A speculative annotation edit: evaluated incrementally against
    /// the baseline, then rolled back — the session baseline is
    /// unchanged afterwards.
    WhatIf(CdAnnotation),
}

/// The answer to one [`SessionQuery`], in the same order they were
/// submitted.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutcome {
    /// Answer to [`SessionQuery::Guardband`].
    Guardband(GuardbandAnalysis),
    /// Answer to [`SessionQuery::Corners`]: one report per corner.
    Corners(Vec<TimingReport>),
    /// Answer to [`SessionQuery::MonteCarlo`].
    MonteCarlo(MonteCarloResult),
    /// Answer to [`SessionQuery::WhatIf`]: full timing under the edit.
    WhatIf(TimingReport),
}

/// A sample-count query budget for one batch of session queries: the
/// deterministic analogue of a wall-clock deadline. Costs are counted in
/// evaluation-equivalents (Monte Carlo samples, corners, what-if
/// evaluations), so exhaustion — and therefore every answer — is a pure
/// function of the submitted batch, never of machine speed or thread
/// count. Checked at batch boundaries by
/// [`TimingSession::run_budgeted`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleBudget {
    granted: u64,
    remaining: u64,
}

impl SampleBudget {
    /// A budget of `samples` evaluation-equivalents.
    #[must_use]
    pub fn new(samples: u64) -> SampleBudget {
        SampleBudget {
            granted: samples,
            remaining: samples,
        }
    }

    /// Evaluation-equivalents left.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// The budget this was opened with.
    #[must_use]
    pub fn granted(&self) -> u64 {
        self.granted
    }

    /// Takes up to `want` units, returning how many were available.
    fn take(&mut self, want: u64) -> u64 {
        let got = want.min(self.remaining);
        self.remaining -= got;
        got
    }
}

/// The cost of one query in budget units (evaluation-equivalents).
fn query_cost(query: &SessionQuery) -> u64 {
    match query {
        SessionQuery::MonteCarlo(mc) => mc.samples as u64,
        SessionQuery::Guardband(g) => g.monte_carlo.samples as u64,
        SessionQuery::Corners(corners) => corners.len() as u64,
        SessionQuery::WhatIf(_) => 1,
    }
}

/// The answer to one budgeted [`SessionQuery`]
/// ([`TimingSession::run_budgeted`]): complete, truncated to the budget,
/// or skipped outright — a runaway batch degrades gracefully instead of
/// hanging, panicking or silently shortchanging an answer.
#[derive(Debug, Clone, PartialEq)]
pub enum BudgetedOutcome {
    /// The full requested work ran.
    Full(QueryOutcome),
    /// The budget ran out mid-query: `completed` of `requested` units
    /// ran, deterministically (a Monte Carlo query re-scoped to
    /// `completed` samples, a corner sweep truncated to its first
    /// `completed` corners).
    Partial {
        /// Units of work actually evaluated.
        completed: usize,
        /// Units of work the query asked for.
        requested: usize,
        /// The (reduced-scope) answer.
        outcome: QueryOutcome,
    },
    /// The budget was already exhausted; nothing ran.
    Skipped {
        /// Units of work the query asked for.
        requested: usize,
    },
}

impl BudgetedOutcome {
    /// The underlying answer, when any work ran.
    #[must_use]
    pub fn outcome(&self) -> Option<&QueryOutcome> {
        match self {
            BudgetedOutcome::Full(out) | BudgetedOutcome::Partial { outcome: out, .. } => Some(out),
            BudgetedOutcome::Skipped { .. } => None,
        }
    }

    /// Whether the full requested work ran.
    #[must_use]
    pub fn is_full(&self) -> bool {
        matches!(self, BudgetedOutcome::Full(_))
    }
}

/// The result of one incremental ECO re-analysis
/// ([`TimingSession::apply_eco`]).
#[derive(Debug, Clone, PartialEq)]
pub struct EcoOutcome {
    /// Extraction statistics of the incremental pass. `stats.windows`
    /// is the number of freshly-imaged (dirtied) litho contexts;
    /// `stats.store_hits` the contexts served from the warm store.
    pub stats: ExtractionStats,
    /// Timing under the new baseline (bit-identical to a full re-run).
    pub report: TimingReport,
}

/// A long-running timing service over one compiled design.
///
/// Borrows the caller's [`TimingModel`] (which borrows the [`Design`]),
/// so a session lives as long as the model it was opened against:
///
/// ```no_run
/// use postopc::{FlowConfig, SessionQuery, TimingSession};
/// use postopc_layout::{generate, Design, TechRules};
/// use postopc_sta::TimingModel;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let design = Design::compile(generate::ripple_carry_adder(8)?, TechRules::n90())?;
/// let config = FlowConfig::standard(800.0);
/// let model = TimingModel::new(&design, config.process.clone(), config.clock_ps)?;
/// let mut session = TimingSession::new(&model, &config)?; // pay once
/// for corner_nm in [2.0, 4.0, 6.0] {
///     let out = session.run(&SessionQuery::Corners(
///         postopc_sta::Corner::classic_set(corner_nm),
///     ))?; // cheap
///     println!("{out:?}");
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TimingSession<'m> {
    config: FlowConfig,
    compiled: CompiledSta<'m>,
    scratch: StaScratch,
    store: ContextStore,
    /// Warm CD-surrogate state (`Some` iff the config enables the tier):
    /// incremental passes keep gating and training against it, so the
    /// model's experience accumulates across ECOs — and persists through
    /// [`Self::artifact`].
    surrogate: Option<SurrogateModel>,
    tags: TagSet,
    annotation: CdAnnotation,
    baseline: TimingReport,
    extraction_stats: ExtractionStats,
    /// True when the scratch holds some query's evaluation instead of
    /// the baseline; incremental passes re-establish the baseline first.
    scratch_dirty: bool,
}

/// The session's starting surrogate model for `config`: pre-trained if
/// one is configured, fresh otherwise, `None` with the tier disabled.
fn session_model(config: &FlowConfig) -> Option<SurrogateModel> {
    let sc = &config.extraction.surrogate;
    sc.enabled.then(|| match &sc.pretrained {
        Some(pre) => pre.clone(),
        None => sc.fresh_model(),
    })
}

/// Runs the (optional) multi-layer wire step for the tagged gates' nets
/// into `annotation` — the same net selection as [`crate::run_flow`].
fn annotate_wires(
    design: &Design,
    config: &FlowConfig,
    tags: &TagSet,
    annotation: &mut CdAnnotation,
) -> Result<()> {
    if let Some(wire_config) = &config.wires {
        let mut nets: Vec<NetId> = Vec::new();
        for gate in tags.sorted() {
            let g = design.netlist().gate(gate);
            nets.push(g.output);
            nets.extend(g.inputs.iter().copied());
        }
        nets.sort_unstable();
        nets.dedup();
        extract_wires(design, wire_config, &nets, annotation)?;
    }
    Ok(())
}

impl<'m> TimingSession<'m> {
    /// Opens a session cold: compiles the evaluator, runs drawn timing,
    /// tags, extracts (filling a fresh [`ContextStore`]) and establishes
    /// the annotated baseline. This is the expensive call every
    /// subsequent query amortizes.
    ///
    /// The model must have been built with the same process and clock as
    /// `config` for artifact keys to line up.
    ///
    /// # Errors
    ///
    /// Propagates configuration, simulation, extraction and timing
    /// errors.
    pub fn new(model: &'m TimingModel<'m>, config: &FlowConfig) -> Result<TimingSession<'m>> {
        let design = model.design();
        let compiled = model.compile()?;
        let mut scratch = compiled.scratch();
        let drawn = compiled.evaluate(&mut scratch, None)?;
        let tags = match config.selection {
            Selection::All => TagSet::all(design),
            Selection::Critical { paths } => TagSet::from_critical_paths(design, &drawn, paths),
        };
        let mut store = ContextStore::new();
        let mut surrogate = session_model(config);
        let outcome = extract_gates_with_caches(
            design,
            &config.extraction,
            &tags,
            Some(&mut store),
            surrogate.as_mut(),
        )?;
        let mut annotation = outcome.annotation;
        annotate_wires(design, config, &tags, &mut annotation)?;
        let baseline = compiled.evaluate(&mut scratch, Some(&annotation))?;
        Ok(TimingSession {
            config: config.clone(),
            compiled,
            scratch,
            store,
            surrogate,
            tags,
            annotation,
            baseline,
            extraction_stats: outcome.stats,
            scratch_dirty: false,
        })
    }

    /// Opens a session warm from a persisted artifact: no OPC, no
    /// imaging — the annotation, tags, context store and surrogate are
    /// restored in exact bits and one annotated evaluation (which
    /// characterizes only the annotated gates) re-establishes the
    /// baseline.
    ///
    /// # Errors
    ///
    /// [`FlowError::Artifact`] when the artifact's content hash does not
    /// match the flow inputs (design, process, clock, selection, wire
    /// and extraction config) the session is being opened for — a stale
    /// artifact is rejected, never silently reused — or when it tags a
    /// gate the design does not have; plus ordinary timing errors.
    pub fn restore(
        model: &'m TimingModel<'m>,
        config: &FlowConfig,
        artifact: WarmArtifact,
    ) -> Result<TimingSession<'m>> {
        let design = model.design();
        let expected = content_hash(design, config);
        if artifact.content_hash != expected {
            return Err(FlowError::Artifact(crate::error::ArtifactError::stale(
                artifact.content_hash,
                expected,
            )));
        }
        let gate_count = design.netlist().gate_count();
        if let Some(gate) = artifact.tags.iter().find(|g| g.0 as usize >= gate_count) {
            return Err(FlowError::Artifact(crate::error::ArtifactError::corrupt(
                &format!(
                    "tag id {} is not a gate of the {gate_count}-gate design",
                    gate.0
                ),
            )));
        }
        let compiled = model.compile()?;
        let mut scratch = compiled.scratch();
        let tags = artifact.tags;
        let annotation = artifact.annotation;
        let baseline = compiled.evaluate(&mut scratch, Some(&annotation))?;
        let stats = ExtractionStats {
            gates_extracted: annotation.gate_count(),
            ..Default::default()
        };
        // Resume the trained surrogate iff the config still enables the
        // tier (the content hash already guarantees surrogate/non-
        // surrogate artifacts are never mixed); a version-2 artifact built
        // without one falls back to a fresh session model.
        let surrogate = if config.extraction.surrogate.enabled {
            artifact.surrogate.or_else(|| session_model(config))
        } else {
            None
        };
        Ok(TimingSession {
            config: config.clone(),
            compiled,
            scratch,
            store: artifact.context_store,
            surrogate,
            tags,
            annotation,
            baseline,
            extraction_stats: stats,
            scratch_dirty: false,
        })
    }

    /// Snapshots the session's warm state into a [`WarmArtifact`] for
    /// persistence; [`Self::restore`] of the result reproduces this
    /// session's answers bit-identically.
    pub fn artifact(&self) -> WarmArtifact {
        WarmArtifact {
            content_hash: content_hash(self.compiled.model().design(), &self.config),
            annotation: self.annotation.clone(),
            tags: self.tags.clone(),
            context_store: self.store.clone(),
            surrogate: self.surrogate.clone(),
        }
    }

    /// The annotated baseline timing report.
    pub fn baseline(&self) -> &TimingReport {
        &self.baseline
    }

    /// The session's extracted baseline annotation.
    pub fn annotation(&self) -> &CdAnnotation {
        &self.annotation
    }

    /// The tagged gates the baseline extraction covered.
    pub fn tags(&self) -> &TagSet {
        &self.tags
    }

    /// The warm litho-context store backing incremental re-extraction.
    pub fn store(&self) -> &ContextStore {
        &self.store
    }

    /// Statistics of the session's most recent extraction pass (zeroed,
    /// except for the gate count, after a warm [`Self::restore`]).
    pub fn extraction_stats(&self) -> &ExtractionStats {
        &self.extraction_stats
    }

    /// Re-establishes the baseline evaluation in the scratch after a
    /// query left other state there.
    fn ensure_baseline(&mut self) -> Result<()> {
        if self.scratch_dirty {
            self.baseline = self
                .compiled
                .evaluate(&mut self.scratch, Some(&self.annotation))?;
            self.scratch_dirty = false;
        }
        Ok(())
    }

    /// Answers one query against the warm state.
    ///
    /// # Errors
    ///
    /// Propagates timing and Monte Carlo errors; the session stays
    /// usable after an error.
    pub fn run(&mut self, query: &SessionQuery) -> Result<QueryOutcome> {
        match query {
            SessionQuery::Guardband(config) => {
                self.scratch_dirty = true;
                Ok(QueryOutcome::Guardband(GuardbandAnalysis::compute_with(
                    &self.compiled,
                    &mut self.scratch,
                    &self.annotation,
                    config,
                )?))
            }
            SessionQuery::Corners(corners) => {
                self.scratch_dirty = true;
                Ok(QueryOutcome::Corners(analyze_corners_with(
                    &self.compiled,
                    &mut self.scratch,
                    corners,
                )?))
            }
            SessionQuery::MonteCarlo(config) => Ok(QueryOutcome::MonteCarlo(
                statistical::run_with(&self.compiled, Some(&self.annotation), config)?,
            )),
            SessionQuery::WhatIf(next) => {
                self.ensure_baseline()?;
                // `evaluate_eco` mutates warm scratch state before the
                // points where it can fail (a non-physical user-supplied
                // CD errors mid-recharacterization), so the scratch is
                // dirty until the roll-back lands — an error here then
                // forces a full baseline re-evaluation on the next query
                // instead of incrementing against corrupted state.
                self.scratch_dirty = true;
                let report = self.compiled.evaluate_eco(
                    &mut self.scratch,
                    Some(&self.annotation),
                    Some(next),
                )?;
                // Roll the scratch back so the next incremental query
                // starts from the unchanged baseline.
                self.compiled.evaluate_eco(
                    &mut self.scratch,
                    Some(next),
                    Some(&self.annotation),
                )?;
                self.scratch_dirty = false;
                Ok(QueryOutcome::WhatIf(report))
            }
        }
    }

    /// Answers one query under an optional [`SampleBudget`] — the
    /// deterministic deadline discipline. Without a budget this is
    /// exactly [`Self::run`]. With one, the query's cost (Monte Carlo
    /// samples, corners, evaluations) is drawn from the budget first:
    /// a fully-funded query runs unchanged, a partially-funded one runs
    /// at reduced scope (fewer samples / corners — still deterministic,
    /// because the reduction depends only on the budget arithmetic) and
    /// comes back as [`BudgetedOutcome::Partial`], and an unfunded one
    /// is [`BudgetedOutcome::Skipped`]. Never hangs, never panics.
    ///
    /// # Errors
    ///
    /// As [`Self::run`]; the session stays usable after an error.
    pub fn run_budgeted(
        &mut self,
        query: &SessionQuery,
        budget: Option<&mut SampleBudget>,
    ) -> Result<BudgetedOutcome> {
        let Some(budget) = budget else {
            return Ok(BudgetedOutcome::Full(self.run(query)?));
        };
        let requested = query_cost(query);
        let granted = budget.take(requested);
        if granted == requested {
            return Ok(BudgetedOutcome::Full(self.run(query)?));
        }
        if granted == 0 {
            return Ok(BudgetedOutcome::Skipped {
                requested: requested as usize,
            });
        }
        // Deterministic graceful degradation: re-scope the query to the
        // granted units. The reduced run is a first-class answer (same
        // seed, same engine), just smaller.
        let reduced = match query {
            SessionQuery::MonteCarlo(mc) => {
                let mut mc = mc.clone();
                mc.samples = granted as usize;
                SessionQuery::MonteCarlo(mc)
            }
            SessionQuery::Guardband(config) => {
                let mut config = config.clone();
                config.monte_carlo.samples = granted as usize;
                SessionQuery::Guardband(config)
            }
            SessionQuery::Corners(corners) => {
                SessionQuery::Corners(corners[..granted as usize].to_vec())
            }
            // Cost 1: always fully funded or skipped, never split.
            SessionQuery::WhatIf(_) => unreachable!("what-if cost is 1"),
        };
        Ok(BudgetedOutcome::Partial {
            completed: granted as usize,
            requested: requested as usize,
            outcome: self.run(&reduced)?,
        })
    }

    /// Applies an ECO: re-extracts for `tags` against the warm context
    /// store — only litho contexts the store has never imaged are
    /// simulated (`outcome.stats.windows` counts exactly those dirtied
    /// windows) — then re-propagates only the affected fanout cone
    /// through the compiled graph. The session baseline advances to the
    /// new annotation. Bit-identical to extracting and evaluating from
    /// scratch.
    ///
    /// # Errors
    ///
    /// Propagates extraction and timing errors. A failed ECO **rolls the
    /// session back** to the last good baseline: the context store and
    /// surrogate model are journaled before the pass and restored on any
    /// error (a half-trained surrogate or half-filled store must not
    /// leak into later answers), and the warm scratch is re-established
    /// from the unchanged baseline annotation on the next query.
    pub fn apply_eco(&mut self, tags: &TagSet) -> Result<EcoOutcome> {
        self.ensure_baseline()?;
        // Journal everything an aborted pass can half-mutate. The
        // annotation, tags and baseline only advance after the commit
        // point below, so they need no journal entry.
        let journal_store = self.store.clone();
        let journal_surrogate = self.surrogate.clone();
        match self.apply_eco_inner(tags) {
            Ok(outcome) => Ok(outcome),
            Err(e) => {
                self.store = journal_store;
                self.surrogate = journal_surrogate;
                // The scratch may hold a half-applied evaluation; flag it
                // so the next query re-establishes the (unchanged)
                // baseline before incrementing.
                self.scratch_dirty = true;
                Err(e)
            }
        }
    }

    fn apply_eco_inner(&mut self, tags: &TagSet) -> Result<EcoOutcome> {
        let design = self.compiled.model().design();
        let outcome = extract_gates_with_caches(
            design,
            &self.config.extraction,
            tags,
            Some(&mut self.store),
            self.surrogate.as_mut(),
        )?;
        let mut next = outcome.annotation;
        annotate_wires(design, &self.config, tags, &mut next)?;
        // As in the what-if path: a failing `evaluate_eco` leaves
        // half-updated scratch state behind, so flag it dirty until the
        // commit below succeeds.
        self.scratch_dirty = true;
        let report =
            self.compiled
                .evaluate_eco(&mut self.scratch, Some(&self.annotation), Some(&next))?;
        self.scratch_dirty = false;
        self.tags = tags.clone();
        self.annotation = next;
        self.baseline = report.clone();
        self.extraction_stats = outcome.stats.clone();
        Ok(EcoOutcome {
            stats: outcome.stats,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::OpcMode;
    use crate::run_flow;
    use postopc_layout::{generate, TechRules};

    fn design() -> Design {
        Design::compile(
            generate::ripple_carry_adder(2).expect("netlist"),
            TechRules::n90(),
        )
        .expect("design")
    }

    fn fast_config(selection: Selection) -> FlowConfig {
        let mut cfg = FlowConfig::standard(800.0);
        cfg.selection = selection;
        cfg.extraction.opc_mode = OpcMode::Rule;
        cfg
    }

    fn mc_config() -> MonteCarloConfig {
        MonteCarloConfig {
            samples: 40,
            sigma_nm: 1.5,
            seed: 7,
            ..MonteCarloConfig::default()
        }
    }

    #[test]
    fn session_answers_match_cold_runs_bit_identically() {
        let d = design();
        let cfg = fast_config(Selection::Critical { paths: 3 });
        let model = TimingModel::new(&d, cfg.process.clone(), cfg.clock_ps).expect("model");
        let mut session = TimingSession::new(&model, &cfg).expect("session");

        // Baseline == the flow's annotated report.
        let flow = run_flow(&d, &cfg).expect("flow");
        assert_eq!(flow.annotation, *session.annotation());
        assert_eq!(flow.comparison.annotated, *session.baseline());

        // Monte Carlo through the session == cold run, bit for bit, and
        // answers are stable across repeated queries on the warm state.
        let mc = mc_config();
        let cold = statistical::run(&model, Some(session.annotation()), &mc).expect("cold mc");
        let a = session
            .run(&SessionQuery::MonteCarlo(mc.clone()))
            .expect("q");
        let b = session
            .run(&SessionQuery::MonteCarlo(mc.clone()))
            .expect("q");
        match (&a, &b) {
            (QueryOutcome::MonteCarlo(a), QueryOutcome::MonteCarlo(b)) => {
                assert_eq!(a, &cold);
                assert_eq!(a, b);
            }
            other => panic!("expected Monte Carlo outcomes, got {other:?}"),
        }

        // Corners through the warm scratch == corners cold.
        let corners = Corner::classic_set(6.0);
        let warm = session
            .run(&SessionQuery::Corners(corners.clone()))
            .expect("q");
        let cold = postopc_sta::analyze_corners(&model, &corners).expect("cold corners");
        assert_eq!(warm, QueryOutcome::Corners(cold));

        // Guardband through the session == guardband cold.
        let gb = GuardbandConfig {
            monte_carlo: mc_config(),
            ..GuardbandConfig::default()
        };
        let warm = session
            .run(&SessionQuery::Guardband(gb.clone()))
            .expect("q");
        let cold = GuardbandAnalysis::compute(&model, session.annotation(), &gb).expect("cold gb");
        assert_eq!(warm, QueryOutcome::Guardband(cold));
    }

    #[test]
    fn tail_is_round_trips_warm_session_bit_identically() {
        // A tail-targeted importance-sampled query (with the control
        // variate on) through a warm restored session must equal the cold
        // run bit for bit — weights and control values included. The
        // tilt plan is re-derived from the restored compiled state, so
        // this proves the whole sensitivity pass is artifact-stable.
        let d = design();
        let cfg = fast_config(Selection::Critical { paths: 3 });
        let model = TimingModel::new(&d, cfg.process.clone(), cfg.clock_ps).expect("model");
        let mut cold = TimingSession::new(&model, &cfg).expect("cold session");
        let mc = MonteCarloConfig {
            samples: 48,
            sigma_nm: 1.5,
            seed: 19,
            sampling: postopc_sta::Sampling::TailIs { tilt: 1.2 },
            control_variate: true,
            ..MonteCarloConfig::default()
        };
        let direct = statistical::run(&model, Some(cold.annotation()), &mc).expect("direct mc");
        assert_eq!(direct.weights().len(), 48, "IS must attach weights");
        assert_eq!(direct.control_values_ps().len(), 48);

        let bytes = cold.artifact().to_bytes();
        let restored = WarmArtifact::from_bytes(&bytes).expect("parse");
        let mut warm = TimingSession::restore(&model, &cfg, restored).expect("warm session");
        for session in [&mut cold, &mut warm] {
            match session
                .run(&SessionQuery::MonteCarlo(mc.clone()))
                .expect("query")
            {
                QueryOutcome::MonteCarlo(mc_out) => {
                    assert_eq!(mc_out, direct);
                    for (a, b) in mc_out.weights().iter().zip(direct.weights()) {
                        assert_eq!(a.to_bits(), b.to_bits());
                    }
                    for (a, b) in mc_out
                        .control_values_ps()
                        .iter()
                        .zip(direct.control_values_ps())
                    {
                        assert_eq!(a.to_bits(), b.to_bits());
                    }
                }
                other => panic!("expected Monte Carlo outcome, got {other:?}"),
            }
        }
    }

    #[test]
    fn what_if_is_bit_identical_and_rolls_back() {
        let d = design();
        let cfg = fast_config(Selection::Critical { paths: 2 });
        let model = TimingModel::new(&d, cfg.process.clone(), cfg.clock_ps).expect("model");
        let mut session = TimingSession::new(&model, &cfg).expect("session");
        let baseline = session.baseline().clone();

        let edit = postopc_sta::corner_annotation(&model, 3.0);
        let compiled = model.compile().expect("compile");
        let mut scratch = compiled.scratch();
        let full = compiled.evaluate(&mut scratch, Some(&edit)).expect("full");

        let out = session.run(&SessionQuery::WhatIf(edit)).expect("what-if");
        assert_eq!(out, QueryOutcome::WhatIf(full));
        // Rolled back: the baseline answer is unchanged afterwards.
        assert_eq!(*session.baseline(), baseline);
        let again = session
            .run(&SessionQuery::Corners(vec![Corner {
                name: "TT".into(),
                delta_l_nm: 0.0,
            }]))
            .expect("corner");
        match again {
            QueryOutcome::Corners(reports) => {
                let drawn = compiled.evaluate(&mut scratch, None).expect("drawn");
                assert_eq!(reports[0], drawn);
            }
            other => panic!("expected corner outcome, got {other:?}"),
        }
    }

    #[test]
    fn session_recovers_after_a_failed_what_if() {
        let d = design();
        let cfg = fast_config(Selection::All);
        let model = TimingModel::new(&d, cfg.process.clone(), cfg.clock_ps).expect("model");
        let mut session = TimingSession::new(&model, &cfg).expect("session");
        let baseline = session.baseline().clone();

        let mut ids: Vec<postopc_layout::GateId> =
            session.annotation().gates().map(|(&g, _)| g).collect();
        ids.sort_by_key(|g| g.0);
        assert!(ids.len() >= 3, "need several annotated gates");

        // A what-if where a low-id gate changes validly and a high-id
        // gate carries a non-physical CD: `evaluate_eco` re-characterizes
        // in id order, so the valid edit lands in the warm scratch before
        // the bad one aborts the pass mid-way.
        let mut bad = session.annotation().clone();
        let mut valid = bad.gate(ids[0]).expect("annotated").clone();
        valid.transistors[0].l_delay_nm *= 1.05;
        valid.transistors[0].l_leakage_nm *= 1.05;
        bad.set_gate(ids[0], valid);
        let last = *ids.last().expect("last");
        let mut broken = bad.gate(last).expect("annotated").clone();
        broken.transistors[0].l_delay_nm = -1.0;
        bad.set_gate(last, broken);
        session
            .run(&SessionQuery::WhatIf(bad))
            .expect_err("a non-physical what-if CD must fail");

        // The failure must not poison the warm state: a following what-if
        // touching a *different* gate (so nothing re-characterizes the
        // gate the aborted pass already moved) must still be bit-identical
        // to a cold full evaluation of the same edit.
        let mut edit = session.annotation().clone();
        let mut probe = edit.gate(ids[1]).expect("annotated").clone();
        probe.transistors[0].l_delay_nm *= 1.02;
        edit.set_gate(ids[1], probe);
        let compiled = model.compile().expect("compile");
        let mut scratch = compiled.scratch();
        let full = compiled.evaluate(&mut scratch, Some(&edit)).expect("full");
        let out = session.run(&SessionQuery::WhatIf(edit)).expect("what-if");
        assert_eq!(out, QueryOutcome::WhatIf(full));
        // And the baseline survived both queries untouched.
        assert_eq!(*session.baseline(), baseline);
    }

    #[test]
    fn eco_reextracts_only_dirtied_windows_bit_identically() {
        let d = design();
        let cfg = fast_config(Selection::Critical { paths: 2 });
        let model = TimingModel::new(&d, cfg.process.clone(), cfg.clock_ps).expect("model");
        let mut session = TimingSession::new(&model, &cfg).expect("session");
        let cold_windows = session.extraction_stats().windows;
        assert!(cold_windows > 0);

        // The ECO: widen extraction to every gate. Contexts already in
        // the warm store are served, only novel ones are imaged.
        let all = TagSet::all(&d);
        let eco = session.apply_eco(&all).expect("eco");
        let full_cfg = fast_config(Selection::All);
        let full = run_flow(&d, &full_cfg).expect("full flow");
        assert_eq!(*session.annotation(), full.annotation);
        assert_eq!(eco.report, full.comparison.annotated);
        // Only the dirtied windows were imaged incrementally.
        assert!(eco.stats.windows < full.extraction.windows);
        assert_eq!(
            eco.stats.windows + eco.stats.store_hits,
            full.extraction.windows
        );

        // A no-op ECO dirties nothing at all.
        let noop = session.apply_eco(&all).expect("noop eco");
        assert_eq!(noop.stats.windows, 0);
        assert_eq!(noop.report, full.comparison.annotated);
    }

    #[test]
    fn restore_keeps_an_ecos_tag_set() {
        // An ECO retags the session; the artifact must carry that tag set
        // rather than let a restore re-derive it from the config.
        let d = design();
        let cfg = fast_config(Selection::Critical { paths: 2 });
        let model = TimingModel::new(&d, cfg.process.clone(), cfg.clock_ps).expect("model");
        let mut live = TimingSession::new(&model, &cfg).expect("session");
        let all = TagSet::all(&d);
        assert!(live.tags().len() < all.len());
        live.apply_eco(&all).expect("eco");
        let bytes = live.artifact().to_bytes();
        let restored = WarmArtifact::from_bytes(&bytes).expect("parse");
        let warm = TimingSession::restore(&model, &cfg, restored).expect("restore");
        assert_eq!(warm.tags(), live.tags());
        assert_eq!(warm.annotation(), live.annotation());
        assert_eq!(warm.baseline(), live.baseline());

        // A tag id past the design's last gate is a typed corrupt error.
        let mut foreign = live.artifact();
        foreign
            .tags
            .insert(postopc_layout::GateId(d.netlist().gate_count() as u32));
        match TimingSession::restore(&model, &cfg, foreign) {
            Err(FlowError::Artifact(e)) => {
                assert_eq!(e.kind, crate::error::ArtifactErrorKind::Corrupt);
            }
            other => panic!("expected a corrupt-artifact error, got {other:?}"),
        }
    }

    #[test]
    fn surrogate_session_persists_and_resumes_the_model() {
        let d = design();
        let mut cfg = fast_config(Selection::All);
        cfg.extraction.surrogate = crate::extract::SurrogateConfig {
            enabled: true,
            min_train: 4,
            round: 4,
            audit_every: 3,
            ..crate::extract::SurrogateConfig::standard()
        };
        let model = TimingModel::new(&d, cfg.process.clone(), cfg.clock_ps).expect("model");
        let session = TimingSession::new(&model, &cfg).expect("session");
        let artifact = session.artifact();
        let trained = artifact.surrogate.as_ref().expect("model persisted").len();
        assert!(trained > 0, "the compile must train the session model");
        let bytes = artifact.to_bytes();

        // The restored session resumes the trained model, not a blank one.
        let restored = WarmArtifact::from_bytes(&bytes).expect("parse");
        let warm = TimingSession::restore(&model, &cfg, restored).expect("restore");
        assert_eq!(
            warm.artifact().surrogate.expect("resumed model").len(),
            trained
        );
        assert_eq!(session.baseline(), warm.baseline());

        // A surrogate-off consumer must reject the surrogate artifact —
        // the invalidation key keeps the two worlds apart.
        let off = fast_config(Selection::All);
        let stale = WarmArtifact::from_bytes(&bytes).expect("parse");
        assert!(matches!(
            TimingSession::restore(&model, &off, stale),
            Err(FlowError::Artifact(_))
        ));
    }

    #[test]
    fn artifact_restore_reproduces_the_session() {
        let d = design();
        let cfg = fast_config(Selection::Critical { paths: 3 });
        let model = TimingModel::new(&d, cfg.process.clone(), cfg.clock_ps).expect("model");
        let mut cold = TimingSession::new(&model, &cfg).expect("cold session");
        let artifact = cold.artifact();
        let bytes = artifact.to_bytes();
        let restored = WarmArtifact::from_bytes(&bytes).expect("parse");
        let mut warm = TimingSession::restore(&model, &cfg, restored).expect("warm session");
        assert_eq!(cold.annotation(), warm.annotation());
        assert_eq!(cold.baseline(), warm.baseline());
        assert_eq!(cold.store().len(), warm.store().len());

        let mc = SessionQuery::MonteCarlo(mc_config());
        assert_eq!(
            cold.run(&mc).expect("cold q"),
            warm.run(&mc).expect("warm q")
        );

        // A mismatched config is rejected, not silently reused.
        let mut other = cfg.clone();
        other.clock_ps = 900.0;
        let model2 = TimingModel::new(&d, other.process.clone(), other.clock_ps).expect("model");
        let stale = WarmArtifact::from_bytes(&bytes).expect("parse");
        assert!(matches!(
            TimingSession::restore(&model2, &other, stale),
            Err(FlowError::Artifact(_))
        ));
    }
}
