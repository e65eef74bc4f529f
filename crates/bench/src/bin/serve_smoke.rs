//! Warm-service smoke test and bench-regression gate for the CI script
//! (`scripts/check.sh`, `serve` stage). Three modes, all fail the process
//! (exit 1) when an invariant breaks:
//!
//! **Default (parity + floor gates)**:
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
//!    least [`SPEEDUP_FLOOR`]× on the T6 composite and T9 farm designs.
//!    Each side is the median of [`RUNS`] timed runs; the printed IQR
//!    shows their spread.
//!
//! **`--record`** — runs the speedup measurement and writes
//! `BENCH_serve.json` in the working directory (committed, so later PRs
//! gate against it).
//!
//! **`--bench-regression`** — re-measures the warm-session speedups and
//! fails if any drops below [`FLOOR_FRACTION`] of the value recorded in
//! `BENCH_serve.json`.

use postopc::guardband::GuardbandConfig;
use postopc::{
    serve, FlowConfig, FlowError, OpcMode, Selection, SessionQuery, TagSet, TimingSession,
    WarmArtifact,
};
use postopc_bench::json::{parse_speedups, write_serve_rows, ServeBenchRow};
use postopc_bench::OrExit;
use postopc_layout::Design;
use postopc_sta::quantile::{quantiles_of_sorted, sorted_ascending};
use postopc_sta::{Corner, MonteCarloConfig, TimingModel};
use std::path::Path;

/// Minimum cold-pipeline / warm-repeat-query speedup in default mode.
const SPEEDUP_FLOOR: f64 = 10.0;

/// Fraction of the recorded speedup a fresh `--bench-regression`
/// measurement must retain (same tolerance as the other bench gates).
const FLOOR_FRACTION: f64 = 0.6;

/// Timed cold pipelines, and timed warm batches, per workload.
const RUNS: usize = 5;

/// The two gated workloads: name, design builder, tagged path count.
fn workloads() -> Vec<(&'static str, Design, usize)> {
    vec![
        ("T6 composite 70%", postopc_bench::evaluation_design(11), 12),
        ("T9 farm 12x16", postopc_bench::farm_design(12, 16, 7), 8),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let failed = match args.first().map(String::as_str) {
        None => parity_gates() | speedup_gate(None),
        Some("--record") => speedup_gate(Some(Path::new("BENCH_serve.json"))),
        Some("--bench-regression") => bench_regression(),
        Some(other) => {
            eprintln!(
                "serve_smoke: unknown argument {other} (expected --record or --bench-regression)"
            );
            true
        }
    };
    if failed {
        std::process::exit(1);
    }
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
/// Carlo run and a guardband analysis.
fn query_batch() -> Vec<SessionQuery> {
    let monte_carlo = MonteCarloConfig {
        samples: 120,
        sigma_nm: 1.5,
        seed: 17,
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
    let queries = query_batch();

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

/// Measures one workload: cold full pipeline (compile + extract + query
/// batch) vs the same batch repeated against the warm session, each the
/// median of [`RUNS`] runs. Returns `(row, failed)`.
fn measure(name: &'static str, design: &Design, paths: usize) -> (ServeBenchRow, bool) {
    let cfg = config(design, paths);
    let queries = query_batch();
    let model = TimingModel::new(design, cfg.process.clone(), cfg.clock_ps).or_exit("model");
    let answer =
        |session: &mut TimingSession<'_>, queries: &[SessionQuery]| -> Vec<postopc::QueryOutcome> {
            queries
                .iter()
                .map(|q| session.run(q).or_exit("query"))
                .collect()
        };
    // Cold: everything from scratch, as a one-shot pipeline would.
    let cold_run = || {
        postopc_bench::timing::time(|| {
            let mut session = TimingSession::new(&model, &cfg).or_exit("cold session");
            let answers = answer(&mut session, &queries);
            (session, answers)
        })
    };
    let ((mut session, cold_answers), first_s) = cold_run();
    let mut cold = vec![first_s];
    let mut identical = true;
    for _ in 1..RUNS {
        let ((_, answers), secs) = cold_run();
        identical &= answers == cold_answers;
        cold.push(secs);
    }
    // Warm: the same batch again and again on the living session.
    let mut warm = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        let (warm_answers, secs) = postopc_bench::timing::time(|| answer(&mut session, &queries));
        identical &= warm_answers == cold_answers;
        warm.push(secs);
    }
    let (cold_s, cold_iqr) = median_and_iqr(&cold);
    let (warm_s, warm_iqr) = median_and_iqr(&warm);
    let speedup = cold_s / warm_s.max(1e-9);
    println!(
        "serve_smoke: {name}: cold {cold_s:.3} s (IQR {cold_iqr:.3}), warm {warm_s:.4} s \
         (IQR {warm_iqr:.4}), median of {RUNS} each, {speedup:.1}x, identical: {identical}"
    );
    let row = ServeBenchRow {
        design: name.to_string(),
        engine: "warm session".to_string(),
        queries: queries.len(),
        wall_s: warm_s,
        speedup,
        identical,
    };
    (row, !identical)
}

/// Median and interquartile range of `samples`.
fn median_and_iqr(samples: &[f64]) -> (f64, f64) {
    let q = quantiles_of_sorted(&sorted_ascending(samples), &[0.25, 0.5, 0.75]);
    (q[1], q[2] - q[0])
}

/// Gate 3: the warm session must beat the cold pipeline by
/// [`SPEEDUP_FLOOR`]× on every workload. With `record_to`, also writes
/// `BENCH_serve.json`. Returns `true` on failure.
fn speedup_gate(record_to: Option<&Path>) -> bool {
    let mut failed = false;
    let mut rows = Vec::new();
    for (name, design, paths) in workloads() {
        let (row, bad) = measure(name, &design, paths);
        failed |= bad;
        if row.speedup < SPEEDUP_FLOOR {
            eprintln!(
                "serve_smoke: FAIL - {name} warm speedup {:.1}x below the {SPEEDUP_FLOOR}x floor",
                row.speedup
            );
            failed = true;
        }
        rows.push(row);
    }
    if let Some(path) = record_to {
        let threads = postopc_parallel::effective_threads(None);
        match write_serve_rows(path, threads, &rows) {
            Ok(()) => println!(
                "serve_smoke: recorded {} rows to {}",
                rows.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("serve_smoke: FAIL - cannot write {}: {e}", path.display());
                failed = true;
            }
        }
    }
    if !failed {
        println!("serve_smoke: PASS - warm sessions at or above the {SPEEDUP_FLOOR}x floor");
    }
    failed
}

/// The `--bench-regression` mode: fresh measurements against the recorded
/// `BENCH_serve.json` floors. Returns `true` on failure.
fn bench_regression() -> bool {
    let recorded = match std::fs::read_to_string("BENCH_serve.json") {
        Ok(doc) => parse_speedups(&doc),
        Err(e) => {
            eprintln!("serve_smoke: FAIL - cannot read BENCH_serve.json: {e}");
            return true;
        }
    };
    let mut failed = false;
    for (name, design, paths) in workloads() {
        let (row, bad) = measure(name, &design, paths);
        failed |= bad;
        let Some(baseline) = recorded
            .iter()
            .find(|r| r.design == name && r.engine == "warm session")
        else {
            eprintln!(
                "serve_smoke: FAIL - no recorded row for {name} in BENCH_serve.json \
                 (re-record with --record?)"
            );
            failed = true;
            continue;
        };
        let floor = baseline.speedup * FLOOR_FRACTION;
        if row.speedup < floor {
            eprintln!(
                "serve_smoke: FAIL - {name} fresh {:.1}x below floor {floor:.1}x \
                 (recorded {:.1}x)",
                row.speedup, baseline.speedup
            );
            failed = true;
        } else {
            println!(
                "serve_smoke: bench {name}: fresh {:.1}x vs recorded {:.1}x (floor {floor:.1}x) - OK",
                row.speedup, baseline.speedup
            );
        }
    }
    if !failed {
        println!("serve_smoke: PASS - warm-session speedups within their recorded floors");
    }
    failed
}
