//! The timing binary of the CI script (`scripts/check.sh`, stages `smoke`
//! and `bench`), and the only reader and writer of the `BENCH_*.json`
//! records. Correctness checks live in `cargo test`: this binary makes no
//! parity check beyond the equality checks of its own timed runs. Three
//! modes, run by [`postopc_bench::runner::run`]; each fails the process
//! (exit 1) when a check breaks:
//!
//! **Default (ratio checks)** — three absolute speedup ratios, each
//! comparing the medians of [`postopc_bench::runner::measure`]:
//!
//! 1. **Pool** — extracts a small uniform inverter farm with the context
//!    cache, serial and with the worker pool. The pooled median must stay
//!    within [`POOL_TOLERANCE`] of the serial median (parity on one core,
//!    faster on many). The tolerance absorbs timer noise on loaded CI
//!    machines; a real pool regression — the chunked scheduler falling
//!    over its own overhead — shows up far above it. Every run of each
//!    engine must match its first run, and the two engines' outcomes must
//!    be bit-identical.
//! 2. **Warm serve** — repeat guardband/corner/MC queries against the warm
//!    session must beat the cold full pipeline by at least
//!    [`SERVE_SPEEDUP_FLOOR`]× on the T6 composite and T9 farm designs,
//!    both sides on the ambient pool. Every repeated cold pipeline and
//!    warm batch must answer exactly as the first cold pipeline did. The
//!    warm batch repeats Monte Carlo configs the session has already run
//!    around its baseline, so the session reads them from its memo: the
//!    warm side times the corners and those reads, and the check prints
//!    how many of its queries the memo answered. The Monte Carlo engine's
//!    own speed is held by the `bench` mode's T6 batched MC@2000 floor.
//! 3. **Surrogate** — the learned CD surrogate (cache + pool) must beat
//!    the serial no-cache baseline by at least [`SURROGATE_SPEEDUP_FLOOR`]×
//!    on the dense shuffled speed-path farm. Every run of each engine must
//!    match its first run.
//!
//! **`--record` / `--bench-regression`** — measures the rows of
//! `BENCH_extract.json`, `BENCH_sta.json` and `BENCH_serve.json`
//! ([`rows`]), then writes them or holds them to their recorded floors
//! ([`postopc_bench::runner::FLOORS`]), so the perf wins of earlier PRs
//! cannot silently regress.

use postopc::guardband::GuardbandConfig;
use postopc::{
    extract_gates, margin_clock, ExtractionConfig, FlowConfig, OpcMode, QueryOutcome, Selection,
    SessionQuery, SurrogateConfig, TagSet, TimingSession,
};
use postopc_bench::runner::{measure, Row, Timing, RUNS, T6};
use postopc_bench::{dense_design, OrExit};
use postopc_device::ProcessParams;
use postopc_layout::{generate, Design};
use postopc_sta::{statistical, Corner, MonteCarloConfig, TimingModel};

/// The pooled median may exceed the serial median by at most this factor.
const POOL_TOLERANCE: f64 = 1.25;

/// Minimum cold-pipeline / warm-repeat-query median speedup.
const SERVE_SPEEDUP_FLOOR: f64 = 10.0;

/// Minimum serial-no-cache-baseline / surrogate median speedup on the
/// shuffled farm. The recorded single-thread surrogate row of
/// `BENCH_extract.json` is floored separately; this absolute floor keeps
/// the check meaningful on any machine.
const SURROGATE_SPEEDUP_FLOOR: f64 = 3.0;

/// Antithetic sampling at 500 samples may exceed plain@2000's mean
/// absolute error of the mean worst slack by at most this factor. The T6
/// study records ~0.044 ps against ~0.40 ps, so the check trips only if
/// the scheme stops reducing variance at all.
const ANTITHETIC_MEAN_RATIO: f64 = 1.25;

/// Query batches per timed run of a recorded warm-session row. One batch
/// takes a few milliseconds, so a brief burst of outside load can move a
/// whole median of five; eight per run average over such bursts.
const RECORDED_BATCHES: usize = 8;

fn main() {
    postopc_bench::runner::run(|| pool_ratio() | serve_ratio() | surrogate_ratio(), rows);
}

/// The dense shuffled speed-path farm: the surrogate's home workload.
fn shuffled_farm() -> Design {
    dense_design(generate::speed_path_farm(20, 24, 11).or_exit("netlist"))
}

/// Context-cache extraction with the rule-OPC recipe on `threads`.
fn cached(threads: Option<usize>) -> ExtractionConfig {
    let mut cfg = ExtractionConfig::standard();
    cfg.opc_mode = OpcMode::Rule;
    cfg.threads = threads;
    cfg
}

/// The cached recipe with the standard learned surrogate on `threads`.
fn surrogate(threads: Option<usize>) -> ExtractionConfig {
    let mut cfg = cached(threads);
    cfg.surrogate = SurrogateConfig::standard();
    cfg
}

/// Ratio check 1: pooled vs serial cached extraction. Returns `true` on
/// failure.
fn pool_ratio() -> bool {
    // The T9 uniform-farm shape, scaled down for CI.
    let design = dense_design(generate::inverter_chain(48).or_exit("netlist"));
    let tags = TagSet::all(&design);
    let mut repeatable = true;
    let mut run = |cfg: &ExtractionConfig| {
        measure(
            || extract_gates(&design, cfg, &tags).or_exit("extraction"),
            |first, out| repeatable &= out == first,
        )
    };
    let (serial_out, serial) = run(&cached(Some(1)));
    let (pool_out, pool) = run(&cached(None));
    let threads = postopc_parallel::effective_threads(None);
    println!("perf_smoke: cache-only {serial}, cache+pool {pool} ({threads} worker(s))");

    let mut failed = false;
    if !repeatable {
        eprintln!("perf_smoke: FAIL - a repeated extraction differs from its first run");
        failed = true;
    }
    if serial_out != pool_out {
        eprintln!("perf_smoke: FAIL - pooled outcome differs from serial outcome");
        failed = true;
    }
    if pool.median_s > serial.median_s * POOL_TOLERANCE {
        eprintln!(
            "perf_smoke: FAIL - cache+pool median {:.4} s exceeds cache-only {:.4} s x \
             {POOL_TOLERANCE}",
            pool.median_s, serial.median_s
        );
        failed = true;
    }
    if !failed {
        println!("perf_smoke: PASS - pooled engine at parity or better, outcomes bit-identical");
    }
    failed
}

/// The two warm-session workloads: name, design, tagged path count.
fn serve_workloads() -> Vec<(&'static str, Design, usize)> {
    vec![
        (T6, postopc_bench::evaluation_design(11), 12),
        ("T9 farm 12x16", postopc_bench::farm_design(12, 16, 7), 8),
    ]
}

/// A serve config over `paths` critical paths with the fast OPC recipe.
fn serve_config(design: &Design, paths: usize) -> FlowConfig {
    let mut cfg = FlowConfig::standard(margin_clock(design, 0.10).or_exit("drawn timing"));
    cfg.selection = Selection::Critical { paths };
    cfg.extraction.opc_mode = OpcMode::Rule;
    cfg
}

/// The repeat query batch of every warm-session measurement: a corner
/// sweep, a Monte Carlo run and a guardband analysis, their Monte Carlo
/// on `threads` workers (`None`: the ambient pool).
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

/// Ratio check 2: the warm session must beat the cold pipeline by
/// [`SERVE_SPEEDUP_FLOOR`]× on every workload, both sides timed on the
/// ambient pool. Returns `true` on failure.
fn serve_ratio() -> bool {
    let mut failed = false;
    for (name, design, paths) in serve_workloads() {
        let cfg = serve_config(&design, paths);
        let queries = query_batch(None);
        let model = TimingModel::new(&design, cfg.process.clone(), cfg.clock_ps).or_exit("model");
        let mut identical = true;
        let ((mut session, cold_answers), cold) = measure(
            || cold_run(&model, &cfg, &queries),
            |(_, first), (_, answers)| identical &= answers == first,
        );
        let hits = session.memo_hits();
        let warm = warm_batches(&mut session, &queries, 1, &cold_answers, &mut identical);
        let memo_reads = session.memo_hits() - hits;
        let speedup = cold.median_s / warm.median_s.max(1e-9);
        println!("perf_smoke: {name}: cold {cold}, warm {warm}, {speedup:.1}x");
        println!(
            "perf_smoke: {name}: the session memo answered {memo_reads} of the {} warm-batch \
             queries",
            (1 + RUNS) * queries.len()
        );
        if !identical {
            eprintln!("perf_smoke: FAIL - {name} repeated answers differ from the first cold run");
            failed = true;
        }
        if speedup < SERVE_SPEEDUP_FLOOR {
            eprintln!(
                "perf_smoke: FAIL - {name} warm speedup {speedup:.1}x below the \
                 {SERVE_SPEEDUP_FLOOR}x floor"
            );
            failed = true;
        }
    }
    if !failed {
        println!("perf_smoke: PASS - warm sessions at or above the {SERVE_SPEEDUP_FLOOR}x floor");
    }
    failed
}

/// Ratio check 3: the surrogate run must beat the serial no-cache
/// baseline, the honest cost of what the surrogate replaces, by
/// [`SURROGATE_SPEEDUP_FLOOR`]×. Returns `true` on failure.
fn surrogate_ratio() -> bool {
    let farm = shuffled_farm();
    let tags = TagSet::all(&farm);
    let mut repeatable = true;
    let mut run = |cfg: &ExtractionConfig| {
        measure(
            || extract_gates(&farm, cfg, &tags).or_exit("extraction"),
            |first, out| repeatable &= out == first,
        )
        .1
    };
    let mut baseline_cfg = cached(Some(1));
    baseline_cfg.cache = false;
    let baseline = run(&baseline_cfg);
    let fast = run(&surrogate(None));
    let speedup = baseline.median_s / fast.median_s.max(1e-9);
    println!(
        "perf_smoke: shuffled farm 20x24: baseline {baseline}, surrogate {fast} ({speedup:.1}x)"
    );
    let mut failed = false;
    if !repeatable {
        eprintln!("perf_smoke: FAIL - a repeated farm extraction differs from its first run");
        failed = true;
    }
    if speedup < SURROGATE_SPEEDUP_FLOOR {
        eprintln!(
            "perf_smoke: FAIL - surrogate speedup {speedup:.1}x below the \
             {SURROGATE_SPEEDUP_FLOOR}x floor"
        );
        failed = true;
    }
    if !failed {
        println!("perf_smoke: PASS - surrogate at or above the {SURROGATE_SPEEDUP_FLOOR}x floor");
    }
    failed
}

/// Every recorded row: the engine rows of `BENCH_extract.json` and
/// `BENCH_sta.json`, then the warm-session rows of `BENCH_serve.json`.
/// Returns the rows and `true` if a check made along the way failed.
fn rows() -> (Vec<Row>, bool) {
    let (mut rows, engines_failed) = engine_rows();
    let (serve, serve_failed) = serve_rows();
    rows.extend(serve);
    (rows, engines_failed | serve_failed)
}

/// The engine rows, each timed on one thread: the T9 uniform-farm
/// context cache, the shuffled-farm surrogate (its output is
/// thread-invariant), T6 batched Monte Carlo at 2000 samples, and the six
/// sampling-accuracy rows of the T6 convergence study. Returns the rows
/// and `true` if a check made along the way failed: a timed run differs
/// from its first run, the surrogate serves no context, batched differs
/// from the naive oracle at 250 samples, tail-IS@500 loses to plain@2000
/// on the 1%-quantile, or antithetic@500 loses to plain@2000 on the mean
/// by more than [`ANTITHETIC_MEAN_RATIO`].
fn engine_rows() -> (Vec<Row>, bool) {
    let mut failed = false;
    let mut repeatable = true;
    let mut rows = Vec::new();
    // Every gate of a dense design, extracted on one thread.
    let mut extraction = |name: &str, engine: &str, design: Design, cfg: &ExtractionConfig| {
        let tags = TagSet::all(&design);
        let (out, t) = measure(
            || extract_gates(&design, cfg, &tags).or_exit(engine),
            |first, out| repeatable &= out == first,
        );
        rows.push(Row::timed(name, engine, tags.len(), 1, t));
        out
    };
    let chain = dense_design(generate::inverter_chain(240).or_exit("netlist"));
    extraction(
        "uniform inv farm 240",
        "context cache",
        chain,
        &cached(Some(1)),
    );
    let out = extraction(
        "shuffled farm 20x24",
        "cache + surrogate",
        shuffled_farm(),
        &surrogate(Some(1)),
    );
    if out.stats.surrogate_hits == 0 {
        eprintln!("perf_smoke: FAIL - surrogate served no contexts on the shuffled farm");
        failed = true;
    }

    // T6: the composite design, top-40 paths extracted with rule OPC as
    // the systematic CD annotation, clock 10 % over the drawn delay.
    let design = postopc_bench::evaluation_design(11);
    let clock = margin_clock(&design, 0.10).or_exit("drawn timing");
    let model = TimingModel::new(&design, ProcessParams::n90(), clock).or_exit("model");
    let drawn = model.analyze(None).or_exit("drawn timing");
    let path_tags = TagSet::from_critical_paths(&design, &drawn, 40);
    let out = extract_gates(&design, &cached(None), &path_tags).or_exit("extraction");
    let compiled = model.compile().or_exit("compile");
    let mc = |samples| MonteCarloConfig {
        samples,
        sigma_nm: 1.5,
        seed: 17,
        threads: Some(1),
        ..MonteCarloConfig::default()
    };
    let batched = |mc: &MonteCarloConfig| {
        statistical::run_with(&compiled, Some(&out.annotation), mc).or_exit("batched MC")
    };
    // The naive oracle is slow, so parity runs at 250 samples; the timed
    // row runs the batched engine at 2000, long enough to time steadily.
    let parity = mc(250);
    let naive =
        statistical::run_reference(&model, Some(&out.annotation), &parity).or_exit("naive MC");
    if batched(&parity) != naive {
        eprintln!("perf_smoke: FAIL - batched Monte Carlo differs from the naive oracle");
        failed = true;
    }
    let timed = mc(2000);
    let (_, t) = measure(|| batched(&timed), |first, run| repeatable &= run == first);
    rows.push(Row::timed(T6, "batched", timed.samples, 1, t));
    if !repeatable {
        eprintln!("perf_smoke: FAIL - a timed run differs from its first run");
        failed = true;
    }

    // The two variance-reduction claims, re-proved on the fresh study:
    // tail-IS matches plain's deep-tail accuracy, and antithetic its mean
    // accuracy, at a quarter of the samples.
    let accuracy = postopc_bench::sta_accuracy_rows(T6, &compiled, Some(&out.annotation));
    let errors = |engine: &str, work: usize| {
        accuracy
            .iter()
            .find(|r| r.engine == engine && r.work == work)
            .and_then(Row::accuracy)
    };
    let q01 = |engine, work| errors(engine, work).map_or(f64::NAN, |a| a.q01_abs_err_ps);
    let mean = |engine, work| errors(engine, work).map_or(f64::NAN, |a| a.mean_abs_err_ps);
    let (tail, plain) = (q01("tail-is", 500), q01("plain", 2000));
    if tail <= plain {
        println!(
            "perf_smoke: accuracy tail-IS@500 q01 err {tail:.3} ps <= plain@2000 q01 err \
             {plain:.3} ps - OK"
        );
    } else {
        eprintln!(
            "perf_smoke: FAIL - tail-IS@500 q01 err {tail:.3} ps exceeds plain@2000 q01 err \
             {plain:.3} ps"
        );
        failed = true;
    }
    let (antithetic, plain) = (mean("antithetic", 500), mean("plain", 2000));
    let bound = plain * ANTITHETIC_MEAN_RATIO;
    if antithetic <= bound {
        println!(
            "perf_smoke: accuracy antithetic@500 mean err {antithetic:.4} ps <= plain@2000 mean \
             err {plain:.4} ps x {ANTITHETIC_MEAN_RATIO} - OK"
        );
    } else {
        eprintln!(
            "perf_smoke: FAIL - antithetic@500 mean err {antithetic:.4} ps exceeds plain@2000 \
             mean err {plain:.4} ps x {ANTITHETIC_MEAN_RATIO}"
        );
        failed = true;
    }
    rows.extend(accuracy);
    (rows, failed)
}

/// The warm-session rows: each workload's warm batch on one thread,
/// [`RECORDED_BATCHES`] times per timed run, after one untimed cold
/// pipeline. Returns the rows and `true` if a warm answer differed from
/// the cold one.
fn serve_rows() -> (Vec<Row>, bool) {
    let mut failed = false;
    let mut rows = Vec::new();
    for (name, design, paths) in serve_workloads() {
        let cfg = serve_config(&design, paths);
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
        println!("perf_smoke: {name}: {RECORDED_BATCHES} warm batches {warm}");
        if !identical {
            eprintln!("perf_smoke: FAIL - {name} warm answers differ from cold answers");
            failed = true;
        }
        let work = RECORDED_BATCHES * queries.len();
        rows.push(Row::timed(name, "warm session", work, 1, warm));
    }
    (rows, failed)
}
