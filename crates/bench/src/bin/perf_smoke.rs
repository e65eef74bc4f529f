//! Performance smoke test and the recorded engine floors for the CI
//! script (`scripts/check.sh`). Three modes, run by
//! [`postopc_bench::runner::run`]; each fails the process (exit 1) when an
//! invariant breaks:
//!
//! **Default (parity gates)** — fast enough to repeat across the CI thread
//! matrix (`POSTOPC_THREADS=1,2,4`):
//!
//! 1. Extracts a small uniform inverter farm with the context cache,
//!    serial and with the worker pool. Every run of each engine must
//!    match its first run, and the two engines' outcomes must be
//!    bit-identical (scheduling must never change extracted CDs). The
//!    pooled median must stay within [`POOL_TOLERANCE`] of the serial
//!    median (parity on one core, faster on many). The tolerance absorbs
//!    timer noise on loaded CI machines; a real pool regression — the
//!    chunked scheduler falling over its own overhead — shows up far
//!    above it.
//! 2. The compiled STA evaluator must match the naive `analyze` path bit
//!    for bit on a small adder: drawn, corner-annotated, and a short
//!    Monte Carlo run per sampling scheme against the `run_reference`
//!    oracle, all through ONE shared `CompiledSta` + scratch (the
//!    compile-once flow shape). The corner-sweep API (`analyze_corner`,
//!    which shifts each distinct cell once instead of building the
//!    annotation) is held to the same `analyze` oracle.
//!
//! **`--record` / `--bench-regression`** — measures the rows of
//! `BENCH_extract.json` and `BENCH_sta.json` ([`rows`]), then writes them
//! or holds them to their recorded floors
//! ([`postopc_bench::runner::FLOORS`]), so the perf wins of earlier PRs
//! cannot silently regress.

use postopc::{extract_gates, ExtractionConfig, OpcMode, SurrogateConfig, TagSet};
use postopc_bench::runner::{measure, Gate, Row, T6};
use postopc_bench::OrExit;
use postopc_device::ProcessParams;
use postopc_layout::{generate, Design, PlacementOptions, TechRules};
use postopc_sta::{
    analyze_corner, corner_annotation, statistical, Corner, MonteCarloConfig, Sampling, TimingModel,
};

/// The pooled median may exceed the serial median by at most this factor.
const POOL_TOLERANCE: f64 = 1.25;

/// Antithetic sampling at 500 samples may exceed plain@2000's mean
/// absolute error of the mean worst slack by at most this factor. The T6
/// study records ~0.044 ps against ~0.40 ps, so the check trips only if
/// the scheme stops reducing variance at all.
const ANTITHETIC_MEAN_RATIO: f64 = 1.25;

fn main() {
    postopc_bench::runner::run(Gate::Perf, parity_gates, rows);
}

/// Compiles `netlist` at 100 % utilization, so every gate sees the
/// repeated neighbourhoods the context cache thrives on.
fn dense(netlist: postopc_layout::Netlist) -> Design {
    Design::compile_with(
        netlist,
        TechRules::n90(),
        &PlacementOptions {
            utilization: 1.0,
            seed: 11,
        },
    )
    .or_exit("design")
}

/// Context-cache extraction with the rule-OPC recipe on `threads`.
fn cached(threads: Option<usize>) -> ExtractionConfig {
    let mut cfg = ExtractionConfig::standard();
    cfg.opc_mode = OpcMode::Rule;
    cfg.threads = threads;
    cfg
}

/// The default mode: pooled-extraction and compiled-STA parity gates.
/// Returns `true` on failure.
fn parity_gates() -> bool {
    // The T9 uniform-farm shape, scaled down for CI.
    let design = dense(generate::inverter_chain(48).or_exit("netlist"));
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
    // STA section: compiled evaluator vs naive analyze, bit for bit, with
    // one compile shared across drawn, corner and Monte Carlo analyses.
    let sta_design = Design::compile(
        generate::ripple_carry_adder(3).or_exit("netlist"),
        TechRules::n90(),
    )
    .or_exit("sta design");
    let model = TimingModel::new(&sta_design, ProcessParams::n90(), 800.0).or_exit("model");
    let compiled = model.compile().or_exit("compile");
    let mut scratch = compiled.scratch();

    let drawn_naive = model.analyze(None).or_exit("naive drawn");
    let drawn_compiled = compiled
        .evaluate(&mut scratch, None)
        .or_exit("compiled drawn");
    if drawn_naive != drawn_compiled {
        eprintln!("perf_smoke: FAIL - compiled drawn report differs from naive analyze");
        failed = true;
    }

    let corner = Corner {
        name: "SS".into(),
        delta_l_nm: 6.0,
    };
    let ann = corner_annotation(&model, corner.delta_l_nm);
    let corner_naive = model.analyze(Some(&ann)).or_exit("naive corner");
    let corner_sweep = analyze_corner(&model, &corner).or_exit("corner sweep");
    if corner_sweep != corner_naive {
        eprintln!("perf_smoke: FAIL - corner sweep report differs from naive analyze");
        failed = true;
    }
    let corner_compiled = compiled
        .evaluate(&mut scratch, Some(&ann))
        .or_exit("compiled corner");
    if corner_naive != corner_compiled {
        eprintln!("perf_smoke: FAIL - compiled corner report differs from naive analyze");
        failed = true;
    }

    // Monte Carlo: the batched SoA engine against the naive oracle, for
    // every sampling scheme (same streams, different evaluation shape).
    // The tail-IS row runs with the control variate attached so the
    // weight and control accumulators are parity-checked as well.
    for sampling in [
        Sampling::Plain,
        Sampling::Antithetic,
        Sampling::TailIs {
            tilt: postopc_bench::TAIL_TILT,
        },
    ] {
        let mc = MonteCarloConfig {
            samples: 20,
            sigma_nm: 1.5,
            seed: 5,
            threads: None,
            sampling,
            control_variate: matches!(sampling, Sampling::TailIs { .. }),
        };
        let batched = statistical::run_with(&compiled, Some(&ann), &mc).or_exit("batched MC");
        let naive = statistical::run_reference(&model, Some(&ann), &mc).or_exit("naive MC");
        if batched != naive {
            eprintln!("perf_smoke: FAIL - batched Monte Carlo differs from naive ({sampling:?})");
            failed = true;
        }
    }

    if !failed {
        println!("perf_smoke: PASS - pooled engine at parity or better, outcomes bit-identical");
        println!(
            "perf_smoke: PASS - compiled STA bit-identical to naive (drawn, corner, MC for \
             every sampling)"
        );
    }
    failed
}

/// The recorded rows, each timed on one thread: the T9 uniform-farm
/// context cache, the shuffled-farm surrogate (its output is
/// thread-invariant), T6 batched Monte Carlo at 2000 samples, and the six
/// sampling-accuracy rows of the T6 convergence study. Returns the rows
/// and `true` if a check made along the way failed: a timed run differs
/// from its first run, the surrogate serves no context, batched differs
/// from the naive oracle at 250 samples, tail-IS@500 loses to plain@2000
/// on the 1%-quantile, or antithetic@500 loses to plain@2000 on the mean
/// by more than [`ANTITHETIC_MEAN_RATIO`].
fn rows() -> (Vec<Row>, bool) {
    let mut failed = false;
    let mut repeatable = true;
    let mut rows = Vec::new();
    // Every gate of a dense design, extracted on one thread.
    let mut extraction = |name: &str, engine: &str, netlist, cfg: &ExtractionConfig| {
        let design = dense(netlist);
        let tags = TagSet::all(&design);
        let (out, t) = measure(
            || extract_gates(&design, cfg, &tags).or_exit(engine),
            |first, out| repeatable &= out == first,
        );
        rows.push(Row::timed(name, engine, tags.len(), 1, t));
        out
    };
    let serial = cached(Some(1));
    let chain = generate::inverter_chain(240).or_exit("netlist");
    extraction("uniform inv farm 240", "context cache", chain, &serial);
    let mut surrogate = serial.clone();
    surrogate.surrogate = SurrogateConfig::standard();
    let farm = generate::speed_path_farm(20, 24, 11).or_exit("netlist");
    let out = extraction("shuffled farm 20x24", "cache + surrogate", farm, &surrogate);
    if out.stats.surrogate_hits == 0 {
        eprintln!("perf_smoke: FAIL - surrogate served no contexts on the shuffled farm");
        failed = true;
    }

    // T6: the composite design, top-40 paths extracted with rule OPC as
    // the systematic CD annotation, clock 10 % over the drawn delay.
    let design = postopc_bench::evaluation_design(11);
    let probe = TimingModel::new(&design, ProcessParams::n90(), 1_000_000.0).or_exit("probe model");
    let clock = probe
        .analyze(None)
        .or_exit("probe timing")
        .critical_delay_ps()
        * 1.10;
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
