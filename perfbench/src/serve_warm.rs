//! `serve-warm`: one warm `serve_with` per op against the artifact that a
//! cold serve of the same design and config published during set-up.

use crate::common::{err, paper_config, testcase, timed, Ctx, Outcome, SETUPS};
use crate::trace::Tracer;
use postopc::guardband::GuardbandConfig;
use postopc::{
    content_hash, serve_with, ArtifactIo, ArtifactLock, BudgetedOutcome, ColdReason, FlowConfig,
    PersistStatus, QueryOutcome, RetryPolicy, ServeOptions, SessionQuery, TimingSession,
    WarmArtifact,
};
use postopc_layout::Design;
use postopc_sta::{Corner, MonteCarloConfig, Sampling, TimingModel};
use std::path::Path;
use std::time::Instant;

/// Fewest untraced (and, when tracing, traced) ops a run makes.
const MIN_OPS: usize = 10;

/// The batch every serve answers: corners, plain MC, tail-IS MC and a
/// guardband whose statistical bound is another MC run.
fn queries(threads: usize) -> Vec<SessionQuery> {
    let mc = MonteCarloConfig {
        samples: 2000,
        sigma_nm: 1.5,
        seed: 7,
        threads: Some(threads),
        ..MonteCarloConfig::default()
    };
    vec![
        SessionQuery::Corners(Corner::classic_set(6.0)),
        SessionQuery::MonteCarlo(mc.clone()),
        SessionQuery::MonteCarlo(MonteCarloConfig {
            samples: 500,
            sampling: Sampling::TailIs { tilt: 1.2 },
            ..mc.clone()
        }),
        SessionQuery::Guardband(GuardbandConfig {
            monte_carlo: mc,
            ..GuardbandConfig::default()
        }),
    ]
}

fn remove_artifact(path: &Path) {
    let _ = std::fs::remove_file(path);
}

pub fn run(ctx: &Ctx, t: &mut Tracer) -> Result<Outcome, String> {
    let path = ctx
        .out_dir
        .join(format!("serve-{}-{}.bin", ctx.seed, std::process::id()));
    let result = run_at(ctx, t, &path);
    remove_artifact(&path);
    result
}

fn run_at(ctx: &Ctx, t: &mut Tracer, path: &Path) -> Result<Outcome, String> {
    let queries = queries(ctx.threads);
    let options = ServeOptions::default();
    let mut out = Outcome::default();
    let mut reference: Option<Vec<BudgetedOutcome>> = None;
    let mut last = None;
    for _ in 0..SETUPS {
        remove_artifact(path);
        let start = Instant::now();
        let (design, clock) = testcase(ctx.seed, t)?;
        let cfg = paper_config(clock, ctx.threads);
        let cold = serve_with(&design, &cfg, Some(path), &queries, &options).map_err(err)?;
        out.setup_s.push(start.elapsed().as_secs_f64());
        let published = !cold.warm
            && cold.cold_reason == Some(ColdReason::Missing)
            && cold.persist == PersistStatus::Persisted
            && cold.outcomes.iter().all(BudgetedOutcome::is_full);
        match &reference {
            Some(first) => out.tally.op(published && cold.outcomes == *first),
            None => {
                out.tally.op(published);
                reference = Some(cold.outcomes);
            }
        }
        last = Some((design, cfg));
    }
    let (design, cfg) = last.ok_or("no set-up ran")?;
    let reference = reference.ok_or("no set-up ran")?;

    let deadline = Instant::now() + ctx.seconds;
    let mut i = 0i64;
    loop {
        let untraced_done = out.op_ms.len() >= MIN_OPS;
        let traced_done = !t.enabled() || out.traced_op_ms.len() >= MIN_OPS;
        if Instant::now() >= deadline && untraced_done && traced_done {
            break;
        }
        if t.enabled() && i % 2 == 1 {
            t.set_op(i);
            let start = Instant::now();
            let got = traced_serve(t, &design, &cfg, path, &queries);
            out.traced_op_ms.push(start.elapsed().as_secs_f64() * 1e3);
            out.tally.op(got.is_ok_and(|o| o == reference));
        } else {
            let got = timed(&mut out, || {
                serve_with(&design, &cfg, Some(path), &queries, &options)
            });
            out.tally.op(got.is_ok_and(|r| {
                r.warm && r.cold_reason.is_none() && r.outcomes == reference
            }));
        }
        i += 1;
    }
    Ok(out)
}

/// The calls a warm `serve_with` makes, each in its own span under an
/// `op` root: lock, model, content hash, load + validate, restore, then
/// one `TimingSession::run` per query.
fn traced_serve(
    t: &mut Tracer,
    design: &Design,
    cfg: &FlowConfig,
    path: &Path,
    queries: &[SessionQuery],
) -> Result<Vec<BudgetedOutcome>, String> {
    let root = t.begin("op");
    let result = (|| -> Result<Vec<BudgetedOutcome>, String> {
        let mut io = ArtifactIo::new(None, RetryPolicy::default());
        let _lock = t
            .span("durable.lock", || ArtifactLock::acquire(&mut io, path))
            .map_err(err)?;
        let model = t
            .span("sta.model_new", || {
                TimingModel::new(design, cfg.process.clone(), cfg.clock_ps)
            })
            .map_err(err)?;
        let expected = t.span("artifact.content_hash", || content_hash(design, cfg));
        let artifact = t
            .span("durable.load", || {
                WarmArtifact::load_validated_with(path, expected, &mut io)
            })
            .map_err(err)?;
        if let Ok(meta) = std::fs::metadata(path) {
            t.count("artifact.bytes", meta.len() as f64);
        }
        let mut session = t
            .span("session.restore", || {
                TimingSession::restore(&model, cfg, artifact)
            })
            .map_err(err)?;
        let mut outcomes = Vec::with_capacity(queries.len());
        for query in queries {
            let name = match query {
                SessionQuery::Corners(_) => "sta.corners",
                SessionQuery::MonteCarlo(mc) if matches!(mc.sampling, Sampling::TailIs { .. }) => {
                    "sta.tail_is"
                }
                SessionQuery::MonteCarlo(_) => "sta.mc",
                SessionQuery::Guardband(_) => "guardband.compute",
                SessionQuery::WhatIf(_) => "sta.evaluate_eco",
            };
            let outcome = t.span(name, || session.run(query)).map_err(err)?;
            if let (QueryOutcome::MonteCarlo(mc), "sta.mc") = (&outcome, name) {
                let stats = mc.cache_stats();
                t.count("sta.mc_samples", mc.worst_slacks_ps().len() as f64);
                t.count("sta.mc_shift_hits", (stats.hits + stats.shared_hits) as f64);
                t.count("sta.mc_shift_misses", stats.misses as f64);
                t.count("sta.mc_prewarmed", stats.prewarmed as f64);
            }
            outcomes.push(BudgetedOutcome::Full(outcome));
        }
        Ok(outcomes)
    })();
    t.end(root);
    result
}
