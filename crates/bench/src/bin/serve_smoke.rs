//! Warm-service smoke test and the recorded warm-batch floors for the CI
//! script (`scripts/check.sh`, `serve` and `bench_serve` stages). Three
//! modes, run by [`postopc_bench::runner::run`]; each fails the process
//! (exit 1) when an invariant breaks:
//!
//! **Default (parity + speedup gates)**:
//!
//! 1. **Cold-vs-warm bit parity** — `serve` cold (persisting an
//!    artifact), then warm from that artifact: every query answer must
//!    match bit for bit, and corrupt / truncated / version-mismatched
//!    artifacts must come back as typed `FlowError::Artifact` values,
//!    never panics (a bad byte then silently serves a cold compile).
//! 2. **Incremental-vs-full ECO bit parity** — an ECO that widens the
//!    extraction set must re-image only the dirtied litho windows
//!    (`windows` strictly less than a from-scratch run) while producing
//!    the identical annotation and timing report.
//! 3. **Warm-query speedup floor** — repeat guardband/corner/MC queries
//!    against the warm session must beat the cold full pipeline by at
//!    least [`SPEEDUP_FLOOR`]× on the T6 composite and T9 farm designs,
//!    comparing the medians of [`postopc_bench::runner::measure`]. Every
//!    repeated cold pipeline and warm batch must answer exactly as the
//!    first cold pipeline did.
//!
//! **`--record` / `--bench-regression`** — measures the warm batch of
//! both workloads on one thread ([`rows`]), after one untimed cold
//! pipeline, then writes `BENCH_serve.json` or holds the batches to their
//! recorded floors ([`postopc_bench::runner::FLOORS`]).

use postopc::guardband::GuardbandConfig;
use postopc::{
    serve, FlowConfig, FlowError, OpcMode, QueryOutcome, Selection, SessionQuery, TagSet,
    TimingSession, WarmArtifact,
};
use postopc_bench::runner::{measure, Gate, Row, Timing, T6};
use postopc_bench::OrExit;
use postopc_layout::Design;
use postopc_sta::{Corner, MonteCarloConfig, TimingModel};

/// Minimum cold-pipeline / warm-repeat-query median speedup in default
/// mode.
const SPEEDUP_FLOOR: f64 = 10.0;

/// Query batches per timed run of a recorded row. One batch takes a few
/// milliseconds, so a brief burst of outside load can move a whole
/// median of five; eight per run average over such bursts.
const RECORDED_BATCHES: usize = 8;

/// The two gated workloads: name, design builder, tagged path count.
fn workloads() -> Vec<(&'static str, Design, usize)> {
    vec![
        (T6, postopc_bench::evaluation_design(11), 12),
        ("T9 farm 12x16", postopc_bench::farm_design(12, 16, 7), 8),
    ]
}

fn main() {
    postopc_bench::runner::run(Gate::Serve, || parity_gates() | speedup_gate(), rows);
}

/// A serve config over `paths` critical paths with the fast OPC recipe.
fn config(design: &Design, paths: usize) -> FlowConfig {
    let probe = TimingModel::new(design, postopc_device::ProcessParams::n90(), 1_000_000.0)
        .or_exit("probe model");
    let clock = probe
        .analyze(None)
        .or_exit("probe timing")
        .critical_delay_ps()
        * 1.10;
    let mut cfg = FlowConfig::standard(clock);
    cfg.selection = Selection::Critical { paths };
    cfg.extraction.opc_mode = OpcMode::Rule;
    cfg
}

/// The repeat query batch every gate measures: a corner sweep, a Monte
/// Carlo run and a guardband analysis, their Monte Carlo on `threads`
/// workers (`None`: the ambient pool).
fn query_batch(threads: Option<usize>) -> Vec<SessionQuery> {
    let monte_carlo = MonteCarloConfig {
        samples: 120,
        sigma_nm: 1.5,
        seed: 17,
        threads,
        ..MonteCarloConfig::default()
    };
    vec![
        SessionQuery::Corners(Corner::classic_set(6.0)),
        SessionQuery::MonteCarlo(monte_carlo.clone()),
        SessionQuery::Guardband(GuardbandConfig {
            monte_carlo,
            ..GuardbandConfig::default()
        }),
    ]
}

/// Gates 1 and 2: artifact round-trip / typed-error behaviour and
/// incremental-vs-full ECO parity. Returns `true` on failure.
fn parity_gates() -> bool {
    let mut failed = false;
    let design = postopc_bench::evaluation_design(11);
    let cfg = config(&design, 12);
    let queries = query_batch(None);

    // --- Gate 1: cold-vs-warm bit parity through the persisted artifact.
    let dir = std::env::temp_dir().join("postopc-serve-smoke");
    std::fs::create_dir_all(&dir).or_exit("temp dir");
    let path = dir.join("t6.warm");
    std::fs::remove_file(&path).ok();
    let cold = serve(&design, &cfg, Some(&path), &queries).or_exit("cold serve");
    let warm = serve(&design, &cfg, Some(&path), &queries).or_exit("warm serve");
    if cold.warm || !warm.warm {
        eprintln!("serve_smoke: FAIL - artifact did not switch the session cold->warm");
        failed = true;
    }
    if cold.outcomes != warm.outcomes {
        eprintln!("serve_smoke: FAIL - warm answers differ from cold answers");
        failed = true;
    }

    // Malformed artifacts must produce typed errors, never panics.
    let bytes = std::fs::read(&path).or_exit("artifact bytes");
    let mut corrupt = bytes.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 1;
    if !matches!(
        WarmArtifact::from_bytes(&corrupt),
        Err(FlowError::Artifact(_))
    ) {
        eprintln!("serve_smoke: FAIL - corrupt artifact did not yield FlowError::Artifact");
        failed = true;
    }
    if !matches!(
        WarmArtifact::from_bytes(&bytes[..bytes.len() / 3]),
        Err(FlowError::Artifact(_))
    ) {
        eprintln!("serve_smoke: FAIL - truncated artifact did not yield FlowError::Artifact");
        failed = true;
    }
    let mut wrong_version = bytes.clone();
    wrong_version[8] = 0xfe;
    match WarmArtifact::from_bytes(&wrong_version) {
        Err(FlowError::Artifact(reason)) if reason.to_string().contains("version") => {}
        other => {
            eprintln!("serve_smoke: FAIL - version mismatch not reported as such: {other:?}");
            failed = true;
        }
    }
    // A stale artifact (config changed) must force a cold run, not a
    // wrong-answer warm one.
    let mut other_cfg = cfg.clone();
    other_cfg.clock_ps += 1.0;
    let stale = serve(&design, &other_cfg, Some(&path), &queries).or_exit("stale serve");
    if stale.warm {
        eprintln!("serve_smoke: FAIL - stale artifact was served warm");
        failed = true;
    }
    std::fs::remove_file(&path).ok();

    // --- Gate 2: incremental ECO == full re-run, touching fewer windows.
    let model = TimingModel::new(&design, cfg.process.clone(), cfg.clock_ps).or_exit("model");
    let mut session = TimingSession::new(&model, &cfg).or_exit("session");
    let all = TagSet::all(&design);
    let eco = session.apply_eco(&all).or_exit("eco");
    let mut full_cfg = cfg.clone();
    full_cfg.selection = Selection::All;
    let full = postopc::run_flow(&design, &full_cfg).or_exit("full flow");
    if *session.annotation() != full.annotation || eco.report != full.comparison.annotated {
        eprintln!("serve_smoke: FAIL - incremental ECO differs from the full re-run");
        failed = true;
    }
    if eco.stats.windows >= full.extraction.windows {
        eprintln!(
            "serve_smoke: FAIL - ECO re-imaged {} windows, full run needed {}",
            eco.stats.windows, full.extraction.windows
        );
        failed = true;
    }
    if !failed {
        println!("serve_smoke: PASS - cold/warm answers bit-identical, bad artifacts typed");
        println!(
            "serve_smoke: PASS - ECO re-imaged {} of {} windows, bit-identical to full",
            eco.stats.windows, full.extraction.windows
        );
    }
    failed
}

/// Answers `queries` on `session`, in order.
fn answer(session: &mut TimingSession<'_>, queries: &[SessionQuery]) -> Vec<QueryOutcome> {
    queries
        .iter()
        .map(|q| session.run(q).or_exit("query"))
        .collect()
}

/// The cold full pipeline, as a one-shot run would do it: compile,
/// extract and answer `queries` from scratch. Returns the warm session it
/// leaves behind with its answers.
fn cold_run<'m>(
    model: &'m TimingModel,
    cfg: &FlowConfig,
    queries: &[SessionQuery],
) -> (TimingSession<'m>, Vec<QueryOutcome>) {
    let mut session = TimingSession::new(model, cfg).or_exit("cold session");
    let answers = answer(&mut session, queries);
    (session, answers)
}

/// Times `batches` repeats of `queries` per run on the warm `session`.
/// Clears `identical` unless every batch, the warm-up's included, answers
/// as `cold` did.
fn warm_batches(
    session: &mut TimingSession<'_>,
    queries: &[SessionQuery],
    batches: usize,
    cold: &[QueryOutcome],
    identical: &mut bool,
) -> Timing {
    let same = |runs: &Vec<Vec<QueryOutcome>>| runs.iter().all(|answers| answers == cold);
    let (first, warm) = measure(
        || (0..batches).map(|_| answer(session, queries)).collect(),
        |_, runs| *identical &= same(runs),
    );
    *identical &= same(&first);
    warm
}

/// Gate 3: the warm session must beat the cold pipeline by
/// [`SPEEDUP_FLOOR`]× on every workload, both sides timed on the ambient
/// pool. Returns `true` on failure.
fn speedup_gate() -> bool {
    let mut failed = false;
    for (name, design, paths) in workloads() {
        let cfg = config(&design, paths);
        let queries = query_batch(None);
        let model = TimingModel::new(&design, cfg.process.clone(), cfg.clock_ps).or_exit("model");
        let mut identical = true;
        let ((mut session, cold_answers), cold) = measure(
            || cold_run(&model, &cfg, &queries),
            |(_, first), (_, answers)| identical &= answers == first,
        );
        let warm = warm_batches(&mut session, &queries, 1, &cold_answers, &mut identical);
        let speedup = cold.median_s / warm.median_s.max(1e-9);
        println!("serve_smoke: {name}: cold {cold}, warm {warm}, {speedup:.1}x");
        if !identical {
            eprintln!("serve_smoke: FAIL - {name} repeated answers differ from the first cold run");
            failed = true;
        }
        if speedup < SPEEDUP_FLOOR {
            eprintln!(
                "serve_smoke: FAIL - {name} warm speedup {speedup:.1}x below the \
                 {SPEEDUP_FLOOR}x floor"
            );
            failed = true;
        }
    }
    if !failed {
        println!("serve_smoke: PASS - warm sessions at or above the {SPEEDUP_FLOOR}x floor");
    }
    failed
}

/// The recorded rows: each workload's warm batch on one thread,
/// [`RECORDED_BATCHES`] times per timed run, after one untimed cold
/// pipeline. Returns the rows and `true` if a warm answer differed from
/// the cold one.
fn rows() -> (Vec<Row>, bool) {
    let mut failed = false;
    let mut rows = Vec::new();
    for (name, design, paths) in workloads() {
        let cfg = config(&design, paths);
        let queries = query_batch(Some(1));
        let model = TimingModel::new(&design, cfg.process.clone(), cfg.clock_ps).or_exit("model");
        let (mut session, cold_answers) = cold_run(&model, &cfg, &queries);
        let mut identical = true;
        let warm = warm_batches(
            &mut session,
            &queries,
            RECORDED_BATCHES,
            &cold_answers,
            &mut identical,
        );
        println!("serve_smoke: {name}: {RECORDED_BATCHES} warm batches {warm}");
        if !identical {
            eprintln!("serve_smoke: FAIL - {name} warm answers differ from cold answers");
            failed = true;
        }
        let work = RECORDED_BATCHES * queries.len();
        rows.push(Row::timed(name, "warm session", work, 1, warm));
    }
    (rows, failed)
}
