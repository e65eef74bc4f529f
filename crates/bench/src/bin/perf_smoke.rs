//! Performance smoke test and bench-regression gate for the CI script
//! (`scripts/check.sh`). Two modes, both fail the process (exit 1) when an
//! invariant breaks:
//!
//! **Default (parity gates)** — fast enough to repeat across the CI thread
//! matrix (`POSTOPC_THREADS=1,2,4`):
//!
//! 1. Extracts a small uniform inverter farm twice — context cache with
//!    the serial engine, then with the worker pool. The two outcomes must
//!    be bit-identical (scheduling must never change extracted CDs), and
//!    the pooled engine must stay within a small tolerance of the serial
//!    wall time (parity on one core, faster on many). The tolerance
//!    absorbs timer noise on loaded single-core CI machines; a real pool
//!    regression — the chunked scheduler falling over its own overhead —
//!    shows up far above it.
//! 2. The compiled STA evaluator must match the naive `analyze` path bit
//!    for bit on a small adder: drawn, corner-annotated, and a short
//!    Monte Carlo run per sampling scheme against the `run_reference`
//!    oracle, all through ONE shared `CompiledSta` + scratch (the
//!    compile-once flow shape).
//!
//! **`--bench-regression`** — re-measures the headline engine speedups at
//! the recorded workload scale and fails if any drops below a floor
//! fraction of the value committed in `BENCH_extract.json` /
//! `BENCH_sta.json` ([`BENCH_FLOORS`]), so the perf wins of earlier PRs
//! cannot silently regress. Run once per CI pass (it is the expensive
//! stage: the extraction baseline alone is a few seconds).

use postopc::{extract_gates, ExtractionConfig, OpcMode, SurrogateConfig, TagSet};
use postopc_bench::json::{parse_accuracy, parse_speedups};
use postopc_bench::OrExit;
use postopc_device::ProcessParams;
use postopc_layout::{generate, Design, PlacementOptions, TechRules};
use postopc_sta::{
    analyze_corner, corner_annotation, statistical, Corner, MonteCarloConfig, Sampling, TimingModel,
};

/// Pool wall time may exceed serial by at most this factor.
const POOL_TOLERANCE: f64 = 1.25;

/// A fresh sampling-accuracy error may exceed its recorded value by at
/// most this factor. The convergence study is deterministic and
/// thread-invariant, so a fresh run normally reproduces the artifact
/// exactly — the headroom only lets intentional estimator retunes land
/// without re-recording in the same commit, while a real regression
/// (a broken weight path, a lost tilt) blows the quantile errors by
/// integer factors.
const ACCURACY_TOLERANCE: f64 = 1.5;

/// One gated benchmark row: where its recorded speedup lives and the
/// fraction of it a fresh measurement must retain. The floors live in this
/// one table so retuning the gate is a single-diff change.
struct BenchFloor {
    file: &'static str,
    design: &'static str,
    engine: &'static str,
    samples: Option<usize>,
    fraction: f64,
}

/// Every (artifact, row) pair the regression gate re-measures. 0.6× floors
/// absorb machine-to-machine variance while still catching a lost cache or
/// a de-compiled hot loop (which cost integer factors, not 40%).
const BENCH_FLOORS: &[BenchFloor] = &[
    BenchFloor {
        file: "BENCH_extract.json",
        design: "shuffled farm 20x24",
        engine: "cache + surrogate",
        samples: None,
        fraction: 0.6,
    },
    BenchFloor {
        file: "BENCH_extract.json",
        design: "uniform inv farm 240",
        engine: "context cache",
        samples: None,
        fraction: 0.6,
    },
    BenchFloor {
        file: "BENCH_extract.json",
        design: "uniform inv farm 240",
        engine: "cache + pool",
        samples: None,
        fraction: 0.6,
    },
    BenchFloor {
        file: "BENCH_sta.json",
        design: "T6 composite 70%",
        engine: "batched",
        samples: Some(250),
        fraction: 0.6,
    },
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let failed = match args.first().map(String::as_str) {
        None => parity_gates(),
        Some("--bench-regression") => bench_regression(),
        Some(other) => {
            eprintln!("perf_smoke: unknown argument {other} (expected --bench-regression)");
            true
        }
    };
    if failed {
        std::process::exit(1);
    }
}

/// The default mode: pooled-extraction and compiled-STA parity gates.
/// Returns `true` on failure.
fn parity_gates() -> bool {
    // Dense placement (100% utilization) so every gate sees the repeated
    // neighbourhood the context cache thrives on — the same shape as the
    // T9 uniform-farm row, scaled down for CI.
    let design = Design::compile_with(
        generate::inverter_chain(48).or_exit("netlist"),
        TechRules::n90(),
        &PlacementOptions {
            utilization: 1.0,
            seed: 11,
        },
    )
    .or_exit("design");
    let tags = TagSet::all(&design);
    let mut cached = ExtractionConfig::standard();
    cached.opc_mode = OpcMode::Rule;
    cached.threads = Some(1);
    let mut pooled = cached.clone();
    pooled.threads = None; // all cores

    // Each engine gets one warm-up run (fills the thread-local imaging
    // workspaces) and the best of two timed runs.
    let run = |cfg: &ExtractionConfig| {
        let warm = extract_gates(&design, cfg, &tags).or_exit("extraction");
        let mut best = f64::MAX;
        for _ in 0..2 {
            let (out, secs) = postopc_bench::timing::time(|| {
                extract_gates(&design, cfg, &tags).or_exit("extraction")
            });
            assert_eq!(out, warm, "extraction must be deterministic");
            best = best.min(secs);
        }
        (warm, best)
    };
    let (serial_out, serial_s) = run(&cached);
    let (pool_out, pool_s) = run(&pooled);
    let threads = postopc_parallel::effective_threads(None);
    println!(
        "perf_smoke: cache-only {serial_s:.2} s, cache+pool {pool_s:.2} s ({threads} worker(s))"
    );

    let mut failed = false;
    if serial_out != pool_out {
        eprintln!("perf_smoke: FAIL - pooled outcome differs from serial outcome");
        failed = true;
    }
    if pool_s > serial_s * POOL_TOLERANCE {
        eprintln!(
            "perf_smoke: FAIL - cache+pool {pool_s:.2} s exceeds cache-only {serial_s:.2} s x {POOL_TOLERANCE}"
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
    let corner_naive = analyze_corner(&model, &corner).or_exit("naive corner");
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

/// Looks up the recorded speedup for one gated row in its committed
/// artifact (relative to the working directory — `check.sh` runs from the
/// repository root, where the artifacts live).
fn recorded_speedup(gate: &BenchFloor) -> Option<f64> {
    let doc = std::fs::read_to_string(gate.file).ok()?;
    parse_speedups(&doc)
        .into_iter()
        .find(|r| r.design == gate.design && r.engine == gate.engine && r.samples == gate.samples)
        .map(|r| r.speedup)
}

/// Compares one fresh measurement against its recorded floor, printing the
/// verdict. Returns `true` on failure (row missing counts as failure: a
/// gate that cannot find its baseline is not protecting anything).
fn check_floor(gate: &BenchFloor, fresh: f64) -> bool {
    let label = match gate.samples {
        Some(s) => format!("{} / {} @ {s} samples", gate.design, gate.engine),
        None => format!("{} / {}", gate.design, gate.engine),
    };
    match recorded_speedup(gate) {
        None => {
            eprintln!(
                "perf_smoke: FAIL - no recorded row for {label} in {} (re-record the artifact?)",
                gate.file
            );
            true
        }
        Some(recorded) => {
            let floor = recorded * gate.fraction;
            let ok = fresh >= floor;
            println!(
                "perf_smoke: bench {label}: fresh {fresh:.2}x vs recorded {recorded:.2}x \
                 (floor {floor:.2}x) - {}",
                if ok { "OK" } else { "FAIL" }
            );
            if !ok {
                eprintln!(
                    "perf_smoke: FAIL - {label} regressed below {:.0}% of the recorded speedup",
                    100.0 * gate.fraction
                );
            }
            !ok
        }
    }
}

/// The `--bench-regression` mode: re-measures the gated speedups at the
/// recorded workload scale (same designs, same engine configurations, same
/// single-shot methodology as `t9` / `mc_scaling`) and applies
/// [`BENCH_FLOORS`]. Returns `true` on failure.
fn bench_regression() -> bool {
    let mut failed = false;

    // Extraction: the T9 shuffled-farm surrogate row — the learned CD
    // surrogate (cache + pool + online-trained model) vs the serial
    // no-cache baseline on the diverse-context workload where plain
    // dedup buys little.
    let farm = Design::compile_with(
        generate::speed_path_farm(20, 24, 11).or_exit("netlist"),
        TechRules::n90(),
        &PlacementOptions {
            utilization: 1.0,
            seed: 11,
        },
    )
    .or_exit("farm design");
    let farm_tags = TagSet::all(&farm);
    let mut farm_baseline = ExtractionConfig::standard();
    farm_baseline.opc_mode = OpcMode::Rule;
    farm_baseline.cache = false;
    farm_baseline.threads = Some(1);
    let mut farm_surrogate = farm_baseline.clone();
    farm_surrogate.cache = true;
    farm_surrogate.threads = None; // all cores
    farm_surrogate.surrogate = SurrogateConfig::standard();
    let (_, farm_baseline_s) = postopc_bench::timing::time(|| {
        extract_gates(&farm, &farm_baseline, &farm_tags).or_exit("farm baseline")
    });
    let (surrogate_out, farm_surrogate_s) = postopc_bench::timing::time(|| {
        extract_gates(&farm, &farm_surrogate, &farm_tags).or_exit("farm surrogate")
    });
    if surrogate_out.stats.surrogate_hits == 0 {
        eprintln!("perf_smoke: FAIL - surrogate served no contexts on the shuffled farm");
        failed = true;
    }
    failed |= check_floor(
        &BENCH_FLOORS[0],
        farm_baseline_s / farm_surrogate_s.max(1e-9),
    );

    // Extraction: the T9 uniform-farm row — baseline (serial, no cache)
    // vs context cache vs cache + pool, dense 240-inverter farm.
    let design = Design::compile_with(
        generate::inverter_chain(240).or_exit("netlist"),
        TechRules::n90(),
        &PlacementOptions {
            utilization: 1.0,
            seed: 11,
        },
    )
    .or_exit("design");
    let tags = TagSet::all(&design);
    let mut baseline = ExtractionConfig::standard();
    baseline.opc_mode = OpcMode::Rule;
    baseline.cache = false;
    baseline.threads = Some(1);
    let mut cached = baseline.clone();
    cached.cache = true;
    let mut pooled = cached.clone();
    pooled.threads = None; // all cores
    let (_, baseline_s) = postopc_bench::timing::time(|| {
        extract_gates(&design, &baseline, &tags).or_exit("baseline")
    });
    let (_, cached_s) =
        postopc_bench::timing::time(|| extract_gates(&design, &cached, &tags).or_exit("cached"));
    let (_, pooled_s) =
        postopc_bench::timing::time(|| extract_gates(&design, &pooled, &tags).or_exit("pooled"));
    failed |= check_floor(&BENCH_FLOORS[1], baseline_s / cached_s.max(1e-9));
    failed |= check_floor(&BENCH_FLOORS[2], baseline_s / pooled_s.max(1e-9));

    // STA: the mc_scaling 250-sample row — naive per-sample analyze vs the
    // batched evaluator on the T6 composite workload, one thread.
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
    let mut cfg = ExtractionConfig::standard();
    cfg.opc_mode = OpcMode::Rule;
    let out = extract_gates(&design, &cfg, &path_tags).or_exit("extraction");
    let compiled_sta = model.compile().or_exit("compile");
    let mc = MonteCarloConfig {
        samples: 250,
        sigma_nm: 1.5,
        seed: 17,
        threads: Some(1),
        ..MonteCarloConfig::default()
    };
    let (naive_mc, naive_s) = postopc_bench::timing::time(|| {
        statistical::run_reference(&model, Some(&out.annotation), &mc).or_exit("naive MC")
    });
    let (batched_run, batched_s) = postopc_bench::timing::time(|| {
        statistical::run_with(&compiled_sta, Some(&out.annotation), &mc).or_exit("batched MC")
    });
    if naive_mc != batched_run {
        eprintln!("perf_smoke: FAIL - engines diverged during the bench-regression run");
        failed = true;
    }
    failed |= check_floor(&BENCH_FLOORS[3], naive_s / batched_s.max(1e-9));

    // STA accuracy: the schema-v3 rows of BENCH_sta.json — the sampling
    // convergence study on the same compiled T6 workload. Every fresh
    // (sampling, samples) error must stay within ACCURACY_TOLERANCE of
    // the recorded value, and the tail claim itself is re-proved: the
    // importance sampler at 500 samples must still beat plain at 2000
    // on the 1%-quantile.
    failed |= accuracy_floors(&postopc_bench::sta_accuracy_rows(
        "T6 composite 70%",
        &compiled_sta,
        Some(&out.annotation),
    ));

    if !failed {
        println!("perf_smoke: PASS - all gated speedups within their recorded floors");
    }
    failed
}

/// Applies the sampling-accuracy floors to a fresh convergence study.
/// Returns `true` on failure (missing recorded rows count as failure).
fn accuracy_floors(fresh: &[postopc_bench::json::StaAccuracyRow]) -> bool {
    let recorded = match std::fs::read_to_string("BENCH_sta.json") {
        Ok(doc) => parse_accuracy(&doc),
        Err(e) => {
            eprintln!("perf_smoke: FAIL - cannot read BENCH_sta.json: {e}");
            return true;
        }
    };
    let mut failed = false;
    for row in fresh {
        let label = format!(
            "{} / {} @ {} samples",
            row.design, row.sampling, row.samples
        );
        let Some(rec) = recorded.iter().find(|r| {
            r.design == row.design && r.sampling == row.sampling && r.samples == row.samples
        }) else {
            eprintln!(
                "perf_smoke: FAIL - no recorded accuracy row for {label} \
                 (re-record BENCH_sta.json with mc_scaling?)"
            );
            failed = true;
            continue;
        };
        let q01_bound = rec.q01_abs_err_ps * ACCURACY_TOLERANCE;
        let q001_bound = rec.q001_abs_err_ps * ACCURACY_TOLERANCE;
        let ok = row.q01_abs_err_ps <= q01_bound && row.q001_abs_err_ps <= q001_bound;
        println!(
            "perf_smoke: accuracy {label}: fresh q01 {:.3} ps / q001 {:.3} ps vs recorded \
             {:.3} / {:.3} ps (x{ACCURACY_TOLERANCE}) - {}",
            row.q01_abs_err_ps,
            row.q001_abs_err_ps,
            rec.q01_abs_err_ps,
            rec.q001_abs_err_ps,
            if ok { "OK" } else { "FAIL" }
        );
        if !ok {
            eprintln!("perf_smoke: FAIL - {label} quantile error regressed past its floor");
            failed = true;
        }
    }
    // The headline tail claim, re-proved on the fresh study.
    let tail = fresh
        .iter()
        .find(|r| r.sampling == "tail-is" && r.samples == 500);
    let plain = fresh
        .iter()
        .find(|r| r.sampling == "plain" && r.samples == 2000);
    match (tail, plain) {
        (Some(tail), Some(plain)) => {
            if tail.q01_abs_err_ps > plain.q01_abs_err_ps {
                eprintln!(
                    "perf_smoke: FAIL - tail-IS@500 q01 err {:.3} ps exceeds plain@2000 \
                     q01 err {:.3} ps",
                    tail.q01_abs_err_ps, plain.q01_abs_err_ps
                );
                failed = true;
            } else {
                println!(
                    "perf_smoke: accuracy tail-IS@500 q01 err {:.3} ps <= plain@2000 \
                     q01 err {:.3} ps - OK",
                    tail.q01_abs_err_ps, plain.q01_abs_err_ps
                );
            }
        }
        _ => {
            eprintln!("perf_smoke: FAIL - fresh study missing tail-is@500 or plain@2000");
            failed = true;
        }
    }
    failed
}
