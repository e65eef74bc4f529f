//! Warm batch-query timing sessions: one expensive compile, many cheap
//! queries.
//!
//! A cold [`run_flow`](crate::run_flow) pays for OPC + imaging +
//! extraction on every invocation, even when the design has not changed.
//! A [`TimingSession`] pays once — or not at all, when restored from a
//! persisted [`WarmArtifact`] — and then answers guardband, corner,
//! Monte Carlo and what-if queries against the warm compiled state,
//! reusing one [`StaScratch`]'s buffers across every query. A Monte
//! Carlo answer is a pure function of the baseline and the config, so the
//! session keeps the last few and answers a repeated config (a guardband
//! whose Monte Carlo repeats an earlier query's, say) from that memo,
//! until an ECO moves the baseline ([`TimingSession::memo_hits`] counts
//! such reads).
//!
//! Incremental ECO re-analysis rides the same state: an edit that
//! dirties K gates re-images only the litho contexts the warm
//! [`ContextStore`] has not seen (`stats.windows` counts exactly those)
//! and re-propagates only the affected fanout cone through the compiled
//! CSR graph ([`CompiledSta::evaluate_eco`]) — bit-identical to a full
//! recompile, by construction and by test.

use crate::artifact::{content_hash, WarmArtifact};
use crate::error::{FlowError, Result};
use crate::extract::{ContextStore, ExtractionStats};
use crate::flow::{extract_step, select_tags, FlowConfig};
use crate::guardband::{GuardbandAnalysis, GuardbandConfig};
use crate::tags::TagSet;
use postopc_layout::Design;
use postopc_sta::{
    analyze_corners_with, statistical, CdAnnotation, CompiledSta, Corner, MonteCarloConfig,
    MonteCarloResult, Sampling, StaScratch, TimingModel, TimingReport,
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

/// Monte Carlo answers a session keeps for its current baseline.
const MC_MEMO_ENTRIES: usize = 4;

/// The Monte Carlo answers of a session's current baseline, keyed by
/// config. An answer is a pure function of the baseline annotation and
/// the config, the same for any thread count, so a repeated config is
/// read instead of rerun. Emptied whenever the baseline moves; never
/// persisted.
#[derive(Debug, Default)]
struct MonteCarloMemo {
    /// The most recent distinct configs first run since the last clear,
    /// oldest first.
    entries: Vec<(MonteCarloConfig, MonteCarloResult)>,
    /// Answers read from `entries` instead of run.
    hits: u64,
}

impl MonteCarloMemo {
    /// The run of `config` around `annotation`: read when a config that
    /// asks for the same answer ran since the last clear, run (and kept,
    /// evicting the oldest entry when full) otherwise.
    fn get_or_run(
        &mut self,
        compiled: &CompiledSta<'_>,
        annotation: &CdAnnotation,
        config: &MonteCarloConfig,
    ) -> Result<&MonteCarloResult> {
        let i = match self
            .entries
            .iter()
            .position(|(c, _)| same_answer(c, config))
        {
            Some(i) => {
                self.hits += 1;
                i
            }
            None => {
                let result = statistical::run_with(compiled, Some(annotation), config)?;
                if self.entries.len() == MC_MEMO_ENTRIES {
                    self.entries.remove(0);
                }
                self.entries.push((config.clone(), result));
                self.entries.len() - 1
            }
        };
        Ok(&self.entries[i].1)
    }
}

/// Whether two Monte Carlo configs ask for the same answer: every field
/// equal but `threads`, floats by their bits.
fn same_answer(a: &MonteCarloConfig, b: &MonteCarloConfig) -> bool {
    let MonteCarloConfig {
        samples,
        sigma_nm,
        seed,
        threads: _,
        sampling,
        control_variate,
    } = a;
    let sampling_matches = match (sampling, &b.sampling) {
        (Sampling::TailIs { tilt }, Sampling::TailIs { tilt: other }) => {
            tilt.to_bits() == other.to_bits()
        }
        (mine, theirs) => mine == theirs,
    };
    *samples == b.samples
        && sigma_nm.to_bits() == b.sigma_nm.to_bits()
        && *seed == b.seed
        && sampling_matches
        && *control_variate == b.control_variate
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
/// Borrows the caller's [`TimingModel`] (which borrows the
/// [`Design`](postopc_layout::Design)), so a session lives as long as the
/// model it was opened against:
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
    tags: TagSet,
    annotation: CdAnnotation,
    baseline: TimingReport,
    /// True when the scratch holds some query's evaluation instead of
    /// the baseline; incremental passes re-establish the baseline first.
    scratch_dirty: bool,
    /// Monte Carlo answers around `annotation`, emptied by every ECO.
    memo: MonteCarloMemo,
    /// [`content_hash`] of the design and config the session was opened
    /// or restored with, both fixed for its life.
    content_hash: u64,
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
        Self::new_hashed(model, config, content_hash(model.design(), config))
    }

    /// [`Self::new`] for a caller that already holds the design and
    /// config's [`content_hash`].
    pub(crate) fn new_hashed(
        model: &'m TimingModel<'m>,
        config: &FlowConfig,
        content_hash: u64,
    ) -> Result<TimingSession<'m>> {
        let design = model.design();
        let compiled = model.compile()?;
        let mut scratch = compiled.scratch();
        let drawn = compiled.evaluate(&mut scratch, None)?;
        let tags = select_tags(design, config, &drawn);
        let mut store = ContextStore::new();
        let (outcome, _) = extract_step(design, config, &tags, Some(&mut store))?;
        let annotation = outcome.annotation;
        let baseline = compiled.evaluate(&mut scratch, Some(&annotation))?;
        Ok(TimingSession {
            config: config.clone(),
            compiled,
            scratch,
            store,
            tags,
            annotation,
            baseline,
            scratch_dirty: false,
            memo: MonteCarloMemo::default(),
            content_hash,
        })
    }

    /// Opens a session warm from a persisted artifact: no OPC, no
    /// imaging — the annotation, tags and context store are restored in
    /// exact bits and one annotated evaluation (which characterizes only
    /// the annotated gates) re-establishes the baseline.
    ///
    /// # Errors
    ///
    /// [`FlowError::Artifact`] when the artifact's content hash does not
    /// match the flow inputs (design, process, clock, selection, wire
    /// and extraction config) the session is being opened for — a stale
    /// artifact is rejected, never silently reused — when it tags a gate
    /// the design does not have, or when an annotated gate's transistor
    /// records are not its own sites; plus ordinary timing errors.
    pub fn restore(
        model: &'m TimingModel<'m>,
        config: &FlowConfig,
        artifact: WarmArtifact,
    ) -> Result<TimingSession<'m>> {
        Self::restore_hashed(
            model,
            config,
            artifact,
            content_hash(model.design(), config),
        )
    }

    /// [`Self::restore`] for a caller that already holds the design and
    /// config's [`content_hash`], `expected`.
    pub(crate) fn restore_hashed(
        model: &'m TimingModel<'m>,
        config: &FlowConfig,
        artifact: WarmArtifact,
        expected: u64,
    ) -> Result<TimingSession<'m>> {
        let design = model.design();
        if artifact.content_hash != expected {
            return Err(FlowError::Artifact(crate::error::ArtifactError::stale(
                artifact.content_hash,
                expected,
            )));
        }
        let gate_count = design.netlist().gate_count();
        if let Some(gate) = artifact.tags.iter().find(|g| g.0 as usize >= gate_count) {
            return Err(crate::codec::corrupt(&format!(
                "tag id {} is not a gate of the {gate_count}-gate design",
                gate.0
            )));
        }
        check_transistor_records(design, &artifact.annotation)?;
        let compiled = model.compile()?;
        let mut scratch = compiled.scratch();
        let tags = artifact.tags;
        let annotation = artifact.annotation;
        let baseline = compiled.evaluate(&mut scratch, Some(&annotation))?;
        Ok(TimingSession {
            config: config.clone(),
            compiled,
            scratch,
            store: artifact.context_store,
            tags,
            annotation,
            baseline,
            scratch_dirty: false,
            memo: MonteCarloMemo::default(),
            content_hash: expected,
        })
    }

    /// Snapshots the session's warm state into a [`WarmArtifact`] for
    /// persistence; [`Self::restore`] of the result reproduces this
    /// session's answers bit-identically.
    pub fn artifact(&self) -> WarmArtifact {
        WarmArtifact {
            content_hash: self.content_hash,
            annotation: self.annotation.clone(),
            tags: self.tags.clone(),
            context_store: self.store.clone(),
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

    /// How many Monte Carlo runs, of [`SessionQuery::MonteCarlo`] and
    /// [`SessionQuery::Guardband`] queries, the session has read from its
    /// memo of the current baseline's answers instead of running.
    pub fn memo_hits(&self) -> u64 {
        self.memo.hits
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
                let mc =
                    self.memo
                        .get_or_run(&self.compiled, &self.annotation, &config.monte_carlo)?;
                self.scratch_dirty = true;
                Ok(QueryOutcome::Guardband(
                    GuardbandAnalysis::from_monte_carlo(
                        &self.compiled,
                        &mut self.scratch,
                        mc,
                        config,
                    )?,
                ))
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
                self.memo
                    .get_or_run(&self.compiled, &self.annotation, config)?
                    .clone(),
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

    /// Applies an ECO: runs the flow's extract step for `tags` on the warm
    /// context store — only litho contexts the store has never imaged are
    /// simulated (`outcome.stats.windows` counts exactly those dirtied
    /// windows) — then re-propagates only the affected fanout cone
    /// through the compiled graph. The session baseline advances to the
    /// new annotation. The outcome is a function of the design, config,
    /// `tags` and store alone, and bit-identical to extracting on that
    /// store and evaluating from scratch.
    ///
    /// # Errors
    ///
    /// Propagates extraction and timing errors. A failed ECO **rolls the
    /// session back** to the last good baseline: the context store is
    /// journaled before the pass and restored on any error (a half-filled
    /// store must not leak into later answers), and the warm scratch is
    /// re-established from the unchanged baseline annotation on the next
    /// query.
    pub fn apply_eco(&mut self, tags: &TagSet) -> Result<EcoOutcome> {
        self.ensure_baseline()?;
        // Every answer in the memo is of the baseline this ECO moves.
        self.memo.entries.clear();
        // Journal everything an aborted pass can half-mutate. The
        // annotation, tags and baseline only advance after the commit
        // point below, so they need no journal entry.
        let journal_store = self.store.clone();
        match self.apply_eco_inner(tags) {
            Ok(outcome) => Ok(outcome),
            Err(e) => {
                self.store = journal_store;
                // The scratch may hold a half-applied evaluation; flag it
                // so the next query re-establishes the (unchanged)
                // baseline before incrementing.
                self.scratch_dirty = true;
                Err(e)
            }
        }
    }

    fn apply_eco_inner(&mut self, tags: &TagSet) -> Result<EcoOutcome> {
        let (outcome, _) = extract_step(
            self.compiled.model().design(),
            &self.config,
            tags,
            Some(&mut self.store),
        )?;
        let next = outcome.annotation;
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
        Ok(EcoOutcome {
            stats: outcome.stats,
            report,
        })
    }
}

/// Rejects an annotation in which a gate's transistor records, as (kind,
/// finger) in order, are not the gate's transistor sites: timing would
/// otherwise run on whatever records are left, without an error.
fn check_transistor_records(design: &Design, annotation: &CdAnnotation) -> Result<()> {
    let sites = design.transistor_sites();
    // Each gate's first site and number of sites.
    let mut spans = vec![(0, 0); design.netlist().gate_count()];
    for (i, site) in sites.iter().enumerate().rev() {
        if let Some((first, count)) = spans.get_mut(site.gate.0 as usize) {
            (*first, *count) = (i, *count + 1);
        }
    }
    for (gate, records) in annotation.gates() {
        let (first, count) = spans.get(gate.0 as usize).copied().unwrap_or((0, 0));
        let own = sites[first..]
            .iter()
            .filter(|s| s.gate == *gate)
            .take(count);
        let held = records.transistors.iter().map(|t| (t.kind, t.finger));
        if !held.eq(own.map(|s| (s.kind, s.finger))) {
            return Err(crate::codec::corrupt(&format!(
                "gate {} carries {} transistor records that are not its {count} sites",
                gate.0,
                records.transistors.len()
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::OpcMode;
    use crate::flow::Selection;
    use crate::run_flow;
    use postopc_layout::{generate, NetId, TechRules};
    use postopc_sta::TransistorCd;

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

    /// The Monte Carlo answer of `outcome`.
    fn monte_carlo(outcome: QueryOutcome) -> MonteCarloResult {
        match outcome {
            QueryOutcome::MonteCarlo(mc) => mc,
            other => panic!("expected a Monte Carlo outcome, got {other:?}"),
        }
    }

    #[test]
    fn a_guardband_reads_the_batchs_monte_carlo_from_the_memo() {
        let d = design();
        let cfg = fast_config(Selection::Critical { paths: 3 });
        let model = TimingModel::new(&d, cfg.process.clone(), cfg.clock_ps).expect("model");
        let mut session = TimingSession::new(&model, &cfg).expect("session");
        let mc = mc_config();
        let gb = GuardbandConfig {
            monte_carlo: mc.clone(),
            ..GuardbandConfig::default()
        };
        let got_mc = session
            .run(&SessionQuery::MonteCarlo(mc.clone()))
            .expect("mc");
        assert_eq!(session.memo_hits(), 0);
        let got_gb = session
            .run(&SessionQuery::Guardband(gb.clone()))
            .expect("guardband");
        assert_eq!(session.memo_hits(), 1);
        let fresh_mc = statistical::run(&model, Some(session.annotation()), &mc).expect("mc");
        let fresh_gb = GuardbandAnalysis::compute(&model, session.annotation(), &gb).expect("gb");
        assert_eq!(got_mc, QueryOutcome::MonteCarlo(fresh_mc.clone()));
        assert_eq!(got_gb, QueryOutcome::Guardband(fresh_gb));
        // The thread count is normalised out of the key: the same answer.
        let pinned = MonteCarloConfig {
            threads: Some(3),
            ..mc.clone()
        };
        let again = monte_carlo(session.run(&SessionQuery::MonteCarlo(pinned)).expect("mc"));
        assert_eq!(session.memo_hits(), 2);
        assert_eq!(again, fresh_mc);
    }

    #[test]
    fn configs_that_ask_for_another_answer_never_hit_the_memo() {
        let d = design();
        let cfg = fast_config(Selection::Critical { paths: 3 });
        let model = TimingModel::new(&d, cfg.process.clone(), cfg.clock_ps).expect("model");
        let mut session = TimingSession::new(&model, &cfg).expect("session");
        let base = mc_config();
        let tail = |tilt| MonteCarloConfig {
            sampling: postopc_sta::Sampling::TailIs { tilt },
            ..base.clone()
        };
        let variants = [
            MonteCarloConfig {
                seed: base.seed + 1,
                ..base.clone()
            },
            MonteCarloConfig {
                samples: base.samples + 2,
                ..base.clone()
            },
            MonteCarloConfig {
                sigma_nm: 1.25,
                ..base.clone()
            },
            MonteCarloConfig {
                sampling: postopc_sta::Sampling::Antithetic,
                ..base.clone()
            },
            tail(1.0),
            tail(1.2),
            MonteCarloConfig {
                control_variate: true,
                ..base.clone()
            },
        ];
        // More distinct configs than the memo holds, the base among them,
        // so the base is run again once the variants have evicted it.
        for mc in std::iter::once(&base).chain(&variants).chain([&base]) {
            let got = monte_carlo(
                session
                    .run(&SessionQuery::MonteCarlo(mc.clone()))
                    .expect("mc"),
            );
            let fresh = statistical::run(&model, Some(session.annotation()), mc).expect("mc");
            assert_eq!(got, fresh, "{mc:?}");
        }
        assert_eq!(session.memo_hits(), 0);

        // A budget-reduced run is keyed by the samples it ran, never read
        // as the full answer, and the full run never as the reduced one.
        let full = monte_carlo(
            session
                .run(&SessionQuery::MonteCarlo(base.clone()))
                .expect("mc"),
        );
        assert_eq!(session.memo_hits(), 1);
        let mut budget = SampleBudget::new(base.samples as u64 / 2);
        let reduced = session
            .run_budgeted(&SessionQuery::MonteCarlo(base.clone()), Some(&mut budget))
            .expect("budgeted");
        let half = MonteCarloConfig {
            samples: base.samples / 2,
            ..base.clone()
        };
        let fresh_half = statistical::run(&model, Some(session.annotation()), &half).expect("mc");
        match reduced {
            BudgetedOutcome::Partial { outcome, .. } => {
                assert_eq!(outcome, QueryOutcome::MonteCarlo(fresh_half));
                assert_ne!(outcome, QueryOutcome::MonteCarlo(full));
            }
            other => panic!("expected a partial answer, got {other:?}"),
        }
        assert_eq!(session.memo_hits(), 1);
    }

    #[test]
    fn an_eco_empties_the_memo() {
        let d = design();
        let cfg = fast_config(Selection::Critical { paths: 2 });
        let model = TimingModel::new(&d, cfg.process.clone(), cfg.clock_ps).expect("model");
        let mut session = TimingSession::new(&model, &cfg).expect("session");
        let mc = SessionQuery::MonteCarlo(mc_config());
        let before = session.run(&mc).expect("mc");
        // A what-if leaves the baseline, and so the memo, in place.
        let edit = postopc_sta::corner_annotation(&model, 3.0);
        session.run(&SessionQuery::WhatIf(edit)).expect("what-if");
        assert_eq!(session.run(&mc).expect("mc"), before);
        assert_eq!(session.memo_hits(), 1);

        session.apply_eco(&TagSet::all(&d)).expect("eco");
        let after = session.run(&mc).expect("mc");
        assert_eq!(session.memo_hits(), 1, "the ECO must empty the memo");
        assert_ne!(after, before);
        let mut fresh = TimingSession::new(&model, &fast_config(Selection::All)).expect("fresh");
        assert_eq!(fresh.annotation(), session.annotation());
        assert_eq!(after, fresh.run(&mc).expect("mc"));
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
    fn what_if_naming_an_unknown_gate_or_net_fails_typed() {
        let d = design();
        let cfg = fast_config(Selection::Critical { paths: 2 });
        let model = TimingModel::new(&d, cfg.process.clone(), cfg.clock_ps).expect("model");
        let mut session = TimingSession::new(&model, &cfg).expect("session");
        let gates = d.netlist().gate_count();
        let mut bad_gate = session.annotation().clone();
        bad_gate.set_gate(
            postopc_layout::GateId(gates as u32 + 5),
            postopc_sta::GateAnnotation::default(),
        );
        let mut bad_net = session.annotation().clone();
        bad_net.set_net(
            NetId(10_000),
            postopc_sta::NetAnnotation {
                printed_width_nm: 120.0,
            },
        );
        for (bad, kind, index) in [(bad_gate, "gate", gates + 5), (bad_net, "net", 10_000)] {
            let err = session
                .run(&SessionQuery::WhatIf(bad))
                .expect_err("an unknown id must fail");
            assert_eq!(
                err,
                FlowError::Sta(postopc_sta::StaError::UnknownAnnotation { kind, index })
            );
        }
        // The next valid what-if answers exactly as a fresh session does.
        let edit = postopc_sta::corner_annotation(&model, 3.0);
        let mut fresh = TimingSession::new(&model, &cfg).expect("fresh session");
        let expected = fresh
            .run(&SessionQuery::WhatIf(edit.clone()))
            .expect("fresh what-if");
        let out = session.run(&SessionQuery::WhatIf(edit)).expect("what-if");
        assert_eq!(out, expected);
    }

    #[test]
    fn eco_reextracts_only_dirtied_windows_bit_identically() {
        let d = design();
        let cfg = fast_config(Selection::Critical { paths: 2 });
        let model = TimingModel::new(&d, cfg.process.clone(), cfg.clock_ps).expect("model");
        let mut session = TimingSession::new(&model, &cfg).expect("session");
        assert!(!session.store().is_empty());

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
    fn restore_rejects_gates_whose_transistor_records_are_not_their_sites() {
        // Every gate tagged, so every gate carries records.
        let d = design();
        let cfg = fast_config(Selection::All);
        let model = TimingModel::new(&d, cfg.process.clone(), cfg.clock_ps).expect("model");
        let bytes = TimingSession::new(&model, &cfg)
            .expect("cold session")
            .artifact()
            .to_bytes();
        type Edit = fn(&mut CdAnnotation);
        let resealed = |edit: Edit| {
            let mut artifact = WarmArtifact::from_bytes(&bytes).expect("parse");
            edit(&mut artifact.annotation);
            WarmArtifact::from_bytes(&artifact.to_bytes()).expect("resealed")
        };
        fn every_gate(annotation: &mut CdAnnotation, change: impl Fn(&mut Vec<TransistorCd>)) {
            let gates: Vec<_> = annotation.gates().map(|(g, a)| (*g, a.clone())).collect();
            for (gate, mut records) in gates {
                change(&mut records.transistors);
                annotation.set_gate(gate, records);
            }
        }
        let unchanged = resealed(|_| {});
        assert!(TimingSession::restore(&model, &cfg, unchanged).is_ok());
        let edits: [(&str, Edit); 4] = [
            ("one record dropped", |a| {
                every_gate(a, |records| {
                    records.pop();
                })
            }),
            ("records swapped", |a| {
                every_gate(a, |records| records.swap(0, 1))
            }),
            ("finger renumbered", |a| {
                every_gate(a, |records| records[0].finger += 1)
            }),
            ("gate not in the design", |a| {
                let records = a.gates().next().expect("a gate").1.clone();
                a.set_gate(postopc_layout::GateId(u32::MAX), records);
            }),
        ];
        for (what, edit) in edits {
            let got = TimingSession::restore(&model, &cfg, resealed(edit));
            assert!(
                matches!(&got, Err(FlowError::Artifact(e)) if e.to_string().contains("transistor records")),
                "{what}: {:?}",
                got.map(|s| s.baseline().critical_delay_ps())
            );
        }
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
