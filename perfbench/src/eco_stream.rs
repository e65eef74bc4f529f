//! `eco-stream`: an interactive ECO session on random logic (1500 gates,
//! rule OPC). One op is ten ECOs, each followed by five what-if queries,
//! then a republish of the warm artifact.

use crate::common::{
    compile, drawn_clock, err, record_extraction, replay_window, timed, Ctx, Outcome, Tally, SETUPS,
};
use crate::trace::{Tracer, REPLAY};
use postopc::{
    content_hash, extract_gates, extract_gates_with_store, ArtifactIo, ContextStore, EcoOutcome,
    ExtractionConfig, FlowConfig, OpcMode, QueryOutcome, RetryPolicy, Selection, SessionQuery,
    TagSet, TimingSession, WarmArtifact,
};
use postopc_layout::generate::{random_logic, RandomLogicSpec};
use postopc_layout::{Design, GateId, PlacementOptions};
use postopc_rng::{split_seed, RngExt, SeedableRng, StdRng};
use postopc_sta::{CdAnnotation, CompiledSta, StaScratch, TimingModel, TimingReport};
use std::path::Path;
use std::time::Instant;

const GATES: usize = 1500;
/// Top paths whose gates the session opens on (and every ECO keeps).
const OPEN_PATHS: usize = 5;
/// Gates of the seeded permutation each ECO tags besides the open set.
const WINDOW: usize = 200;
/// Permutation positions the window advances per ECO.
const STRIDE: usize = 2;
const ECOS_PER_OP: usize = 10;
const WHATIFS_PER_ECO: usize = 5;
/// One what-if in this many is re-checked against a fresh evaluation.
const CHECK_EVERY: u64 = 10;
/// Ops per second of `--seconds`. The stream is a fixed script: the
/// context store grows with every ECO, so a time-bounded run would make
/// a faster build replay a longer (and costlier) stream than its parent.
const OPS_PER_SECOND: f64 = 1.5;
const MIN_OPS: usize = 4;
/// Extraction windows replayed through OPC / imaging / slicing.
const REPLAY_WINDOWS: usize = 40;

/// The seeded ECO script: which gates each ECO tags and which what-ifs
/// follow it.
struct Stream {
    open: TagSet,
    perm: Vec<GateId>,
    seed: u64,
}

impl Stream {
    fn new(design: &Design, open: TagSet, seed: u64) -> Stream {
        let mut perm: Vec<GateId> = (0..design.netlist().gate_count() as u32)
            .map(GateId)
            .collect();
        let mut rng = StdRng::seed_from_u64(split_seed(seed, 0xEC0));
        for i in (1..perm.len()).rev() {
            let j = rng.random_range(0..=i);
            perm.swap(i, j);
        }
        Stream { open, perm, seed }
    }

    /// ECOs the script holds before the window would wrap.
    fn len(&self) -> usize {
        (self.perm.len() - WINDOW) / STRIDE + 1
    }

    fn tags(&self, k: usize) -> TagSet {
        let mut tags = self.open.clone();
        for &g in &self.perm[k * STRIDE..k * STRIDE + WINDOW] {
            tags.insert(g);
        }
        tags
    }

    /// Gates that enter the window at ECO `k > 0`.
    fn entering(&self, k: usize) -> &[GateId] {
        &self.perm[k * STRIDE + WINDOW - STRIDE..k * STRIDE + WINDOW]
    }

    /// What-if `w` after ECO `k`: 1–3 nm added to every channel length of
    /// one seeded annotated gate.
    fn whatif(&self, annotation: &CdAnnotation, k: usize, w: usize) -> CdAnnotation {
        let mut rng =
            StdRng::seed_from_u64(split_seed(self.seed, (k * WHATIFS_PER_ECO + w) as u64));
        let mut gates: Vec<GateId> = annotation.gates().map(|(g, _)| *g).collect();
        gates.sort_unstable();
        let mut next = annotation.clone();
        if gates.is_empty() {
            return next;
        }
        let gate = gates[rng.random_range(0..gates.len())];
        let delta = rng.random_range(1.0..3.0);
        if let Some(ann) = annotation.gate(gate) {
            let mut ann = ann.clone();
            for tr in &mut ann.transistors {
                tr.l_delay_nm += delta;
                tr.l_leakage_nm += delta;
            }
            next.set_gate(gate, ann);
        }
        next
    }

    fn checked(&self, k: usize, w: usize) -> bool {
        split_seed(self.seed ^ 0xC4EC, (k * WHATIFS_PER_ECO + w) as u64).is_multiple_of(CHECK_EVERY)
    }
}

/// The design (1500 random gates, abutted rows) and its rule-OPC config.
fn eco_design(ctx: &Ctx, t: &mut Tracer) -> Result<(Design, FlowConfig), String> {
    let netlist = random_logic(&RandomLogicSpec {
        gates: GATES,
        seed: ctx.seed,
        ..RandomLogicSpec::default()
    })
    .map_err(err)?;
    let design = compile(
        t,
        netlist,
        &PlacementOptions {
            utilization: 1.0,
            seed: ctx.seed,
        },
    )?;
    let mut cfg = FlowConfig::standard(drawn_clock(&design)?);
    cfg.selection = Selection::Critical { paths: OPEN_PATHS };
    cfg.extraction.opc_mode = OpcMode::Rule;
    cfg.extraction.threads = Some(ctx.threads);
    Ok((design, cfg))
}

fn new_model<'d>(
    t: &mut Tracer,
    design: &'d Design,
    cfg: &FlowConfig,
) -> Result<TimingModel<'d>, String> {
    t.span("sta.model_new", || {
        TimingModel::new(design, cfg.process.clone(), cfg.clock_ps)
    })
    .map_err(err)
}

/// Opens the cold session on the top-path tags and applies ECO 0.
fn open<'m>(
    model: &'m TimingModel<'m>,
    cfg: &FlowConfig,
    seed: u64,
) -> Result<(TimingSession<'m>, Stream, EcoOutcome), String> {
    let mut session = TimingSession::new(model, cfg).map_err(err)?;
    let stream = Stream::new(model.design(), session.tags().clone(), seed);
    let first = session.apply_eco(&stream.tags(0)).map_err(err)?;
    Ok((session, stream, first))
}

fn same_first(tally: &mut Tally, first: &mut Option<EcoOutcome>, eco: EcoOutcome) {
    match first {
        Some(f) => tally.op(*f == eco),
        None => {
            tally.op(true);
            *first = Some(eco);
        }
    }
}

/// A benchmark-owned evaluator for the answer checks.
struct Checker<'m> {
    compiled: CompiledSta<'m>,
    scratch: StaScratch,
}

impl Checker<'_> {
    fn evaluate(&mut self, annotation: &CdAnnotation) -> Result<TimingReport, String> {
        self.compiled
            .evaluate(&mut self.scratch, Some(annotation))
            .map_err(err)
    }

    /// Every sampled what-if equals a fresh evaluation of its edit.
    fn whatifs_hold(&mut self, sampled: &[(CdAnnotation, TimingReport)]) -> bool {
        sampled
            .iter()
            .all(|(edit, report)| self.evaluate(edit).is_ok_and(|fresh| fresh == *report))
    }
}

pub fn run(ctx: &Ctx, t: &mut Tracer) -> Result<Outcome, String> {
    let path = ctx
        .out_dir
        .join(format!("eco-{}-{}.bin", ctx.seed, std::process::id()));
    let mut out = Outcome::default();
    let mut first = None;
    for _ in 1..SETUPS {
        let start = Instant::now();
        let (design, cfg) = eco_design(ctx, t)?;
        let model = new_model(t, &design, &cfg)?;
        let (_, _, eco) = open(&model, &cfg, ctx.seed)?;
        out.setup_s.push(start.elapsed().as_secs_f64());
        same_first(&mut out.tally, &mut first, eco);
    }
    let start = Instant::now();
    let (design, cfg) = eco_design(ctx, t)?;
    let model = new_model(t, &design, &cfg)?;
    let (mut session, stream, eco) = open(&model, &cfg, ctx.seed)?;
    out.setup_s.push(start.elapsed().as_secs_f64());
    same_first(&mut out.tally, &mut first, eco);

    let result = stream_ops(
        ctx,
        t,
        &mut out,
        &design,
        &cfg,
        &model,
        &mut session,
        &stream,
        &path,
    );
    let _ = std::fs::remove_file(&path);
    result.map(|()| out)
}

#[allow(clippy::too_many_arguments)]
fn stream_ops(
    ctx: &Ctx,
    t: &mut Tracer,
    out: &mut Outcome,
    design: &Design,
    cfg: &FlowConfig,
    model: &TimingModel<'_>,
    session: &mut TimingSession<'_>,
    stream: &Stream,
    path: &Path,
) -> Result<(), String> {
    let compiled = model.compile().map_err(err)?;
    let mut checker = Checker {
        scratch: compiled.scratch(),
        compiled,
    };
    let capacity = (stream.len() - 1) / ECOS_PER_OP;
    let ops = ((ctx.seconds.as_secs_f64() * OPS_PER_SECOND).round() as usize)
        .max(if t.enabled() { 2 * MIN_OPS } else { MIN_OPS })
        .min(capacity);
    let untraced_ops = if t.enabled() { ops / 2 } else { ops };
    let mut io = ArtifactIo::new(None, RetryPolicy::default());
    let mut next_eco = 1;

    for _ in 0..untraced_ops {
        let sampled = timed(out, || {
            untraced_op(session, stream, next_eco, path, &mut io)
        });
        out.tally
            .op(sampled.is_ok_and(|s| checker.whatifs_hold(&s)));
        next_eco += ECOS_PER_OP;
    }

    if t.enabled() {
        let first_traced = next_eco;
        let (mut replay, baseline) = Replay::from_session(t, model, cfg, session)?;
        out.tally.op(baseline == *session.baseline());
        for i in untraced_ops..ops {
            t.set_op(i as i64);
            let (ms, ok) = traced_op(
                t,
                &mut replay,
                session,
                stream,
                next_eco,
                path,
                &mut io,
                &mut checker,
            );
            out.traced_op_ms.push(ms);
            out.tally.op(ok);
            next_eco += ECOS_PER_OP;
        }
        t.set_op(REPLAY);
        let replayed_ecos = (REPLAY_WINDOWS / STRIDE).min(next_eco - first_traced);
        let replayed: Result<(), String> = (first_traced..first_traced + replayed_ecos)
            .flat_map(|k| stream.entering(k).iter().copied())
            .try_for_each(|gate| replay_window(t, design, cfg, gate));
        out.tally.op(replayed.is_ok());
        out.replay_ops = replayed_ecos as f64 / ECOS_PER_OP as f64;
    }

    // Run-end checks (untimed): the session equals a fresh extraction and
    // evaluation of its final tags, and a restore of the last published
    // artifact answers identically.
    let fresh = extract_gates(design, &cfg.extraction, session.tags());
    out.tally.op(fresh.is_ok_and(|f| {
        f.annotation == *session.annotation()
            && checker
                .evaluate(&f.annotation)
                .is_ok_and(|r| r == *session.baseline())
    }));
    let probe = stream.whatif(session.annotation(), next_eco, 0);
    let restored = WarmArtifact::load_validated(path, content_hash(design, cfg))
        .and_then(|a| TimingSession::restore(model, cfg, a))
        .and_then(|mut r| {
            let q = SessionQuery::WhatIf(probe.clone());
            Ok((
                r.baseline().clone(),
                r.annotation().clone(),
                r.run(&q)?,
                session.run(&q)?,
            ))
        });
    out.tally
        .op(restored.is_ok_and(|(baseline, annotation, a, b)| {
            baseline == *session.baseline() && annotation == *session.annotation() && a == b
        }));
    Ok(())
}

/// One untraced op through the session; returns the sampled what-ifs.
fn untraced_op(
    session: &mut TimingSession<'_>,
    stream: &Stream,
    first_eco: usize,
    path: &Path,
    io: &mut ArtifactIo,
) -> Result<Vec<(CdAnnotation, TimingReport)>, String> {
    let mut sampled = Vec::new();
    for k in first_eco..first_eco + ECOS_PER_OP {
        session.apply_eco(&stream.tags(k)).map_err(err)?;
        for w in 0..WHATIFS_PER_ECO {
            let query = SessionQuery::WhatIf(stream.whatif(session.annotation(), k, w));
            let QueryOutcome::WhatIf(report) = session.run(&query).map_err(err)? else {
                return Err("what-if answered with another outcome".into());
            };
            if let (true, SessionQuery::WhatIf(edit)) = (stream.checked(k, w), query) {
                sampled.push((edit, report));
            }
        }
    }
    session
        .artifact()
        .save_with(path, io)
        .map_err(err)
        .map(|()| sampled)
}

/// The traced run's own copy of the session state: ECOs replay as
/// `extract_gates_with_store` against this store, then `evaluate_eco`.
struct Replay<'m> {
    config: ExtractionConfig,
    compiled: CompiledSta<'m>,
    scratch: StaScratch,
    store: ContextStore,
    annotation: CdAnnotation,
}

impl<'m> Replay<'m> {
    fn from_session(
        t: &mut Tracer,
        model: &'m TimingModel<'m>,
        cfg: &FlowConfig,
        session: &TimingSession<'_>,
    ) -> Result<(Replay<'m>, TimingReport), String> {
        let compiled = t.span("sta.compile", || model.compile()).map_err(err)?;
        let mut scratch = compiled.scratch();
        let annotation = session.annotation().clone();
        let baseline = t
            .span("sta.evaluate", || {
                compiled.evaluate(&mut scratch, Some(&annotation))
            })
            .map_err(err)?;
        let replay = Replay {
            config: cfg.extraction.clone(),
            compiled,
            scratch,
            store: session.store().clone(),
            annotation,
        };
        Ok((replay, baseline))
    }
}

/// What a traced ECO answered, for the lock-step comparison.
struct TracedEco {
    k: usize,
    eco: EcoOutcome,
    whatifs: Vec<(CdAnnotation, TimingReport)>,
}

/// One traced op: the ECOs and what-ifs in spans under an `op` root, then
/// (untimed) the same ECOs and what-ifs through the session, compared
/// answer for answer, then the republish in spans under a `persist` root.
/// Returns the traced latency (op + persist) and whether every answer held.
#[allow(clippy::too_many_arguments)]
fn traced_op(
    t: &mut Tracer,
    replay: &mut Replay<'_>,
    session: &mut TimingSession<'_>,
    stream: &Stream,
    first_eco: usize,
    path: &Path,
    io: &mut ArtifactIo,
    checker: &mut Checker<'_>,
) -> (f64, bool) {
    let start = Instant::now();
    let root = t.begin("op");
    let traced = traced_ecos(t, replay, stream, first_eco);
    t.end(root);
    let mut ms = start.elapsed().as_secs_f64() * 1e3;
    let Ok(traced) = traced else {
        return (ms, false);
    };

    let mut ok = true;
    for step in &traced {
        ok &= session
            .apply_eco(&stream.tags(step.k))
            .is_ok_and(|eco| eco == step.eco);
        for (edit, report) in &step.whatifs {
            ok &= session
                .run(&SessionQuery::WhatIf(edit.clone()))
                .is_ok_and(|o| o == QueryOutcome::WhatIf(report.clone()));
        }
        let sampled: Vec<_> = step
            .whatifs
            .iter()
            .enumerate()
            .filter(|(w, _)| stream.checked(step.k, *w))
            .map(|(_, pair)| pair.clone())
            .collect();
        ok &= checker.whatifs_hold(&sampled);
    }

    let start = Instant::now();
    let root = t.begin("persist");
    let artifact = t.span("session.snapshot", || session.artifact());
    let saved = t.span("durable.save", || artifact.save_with(path, io));
    if let Ok(meta) = std::fs::metadata(path) {
        t.count("artifact.bytes", meta.len() as f64);
    }
    t.end(root);
    ms += start.elapsed().as_secs_f64() * 1e3;
    (ms, ok && saved.is_ok())
}

fn traced_ecos(
    t: &mut Tracer,
    replay: &mut Replay<'_>,
    stream: &Stream,
    first_eco: usize,
) -> Result<Vec<TracedEco>, String> {
    let mut steps = Vec::with_capacity(ECOS_PER_OP);
    for k in first_eco..first_eco + ECOS_PER_OP {
        let tags = stream.tags(k);
        let extracted = t
            .span("extract.gates", || {
                extract_gates_with_store(
                    replay.compiled.model().design(),
                    &replay.config,
                    &tags,
                    Some(&mut replay.store),
                )
            })
            .map_err(err)?;
        record_extraction(t, &extracted.stats, tags.len());
        let report = t
            .span("sta.evaluate_eco", || {
                replay.compiled.evaluate_eco(
                    &mut replay.scratch,
                    Some(&replay.annotation),
                    Some(&extracted.annotation),
                )
            })
            .map_err(err)?;
        replay.annotation = extracted.annotation;
        let mut whatifs = Vec::with_capacity(WHATIFS_PER_ECO);
        for w in 0..WHATIFS_PER_ECO {
            let edit = stream.whatif(&replay.annotation, k, w);
            let answer = t
                .span("sta.evaluate_eco", || {
                    replay.compiled.evaluate_eco(
                        &mut replay.scratch,
                        Some(&replay.annotation),
                        Some(&edit),
                    )
                })
                .map_err(err)?;
            t.span("sta.evaluate_eco", || {
                replay.compiled.evaluate_eco(
                    &mut replay.scratch,
                    Some(&edit),
                    Some(&replay.annotation),
                )
            })
            .map_err(err)?;
            whatifs.push((edit, answer));
        }
        steps.push(TracedEco {
            k,
            eco: EcoOutcome {
                stats: extracted.stats,
                report,
            },
            whatifs,
        });
    }
    Ok(steps)
}
