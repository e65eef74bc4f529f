//! Tail-targeted Monte Carlo gates for the CI script (`scripts/check.sh`,
//! stage `tail`). Exits 1 when an invariant breaks:
//!
//! 1. **Engine parity and thread invariance** — on a small adder, an
//!    importance-sampled run with the control variate attached
//!    (`Sampling::TailIs` + `control_variate`) must be bit-identical
//!    between the batched SoA engine and the naive per-sample `analyze`
//!    reference, at sample counts covering every lane remainder class —
//!    and a run with `threads:
//!    None` (which resolves `POSTOPC_THREADS`) must equal the
//!    single-thread run bit for bit. `check.sh` runs this binary under
//!    `POSTOPC_THREADS=1,2,4`, so a pass across the matrix proves the
//!    tilted stream, the log-likelihood weights and the control values
//!    never see the worker partition.
//! 2. **Weight sanity** — self-normalized weights cover every sample,
//!    are finite, non-negative and sum to 1; a zero-tilt run collapses
//!    to plain sampling bit for bit with uniform weights; and on a pure
//!    linear model (worst slack = c + control) the control-variate
//!    estimator is *exact*, recovering `c` to floating-point noise.
//! 3. **Tail convergence** — on the T6 evaluation workload, tail-tilted
//!    importance sampling at 500 samples must estimate the 1%-quantile
//!    of the worst slack at least as well as plain sampling at 2000
//!    samples (the tail claim: matched deep-tail accuracy at 4x fewer
//!    samples). The 0.1%-quantile errors are printed alongside for the
//!    trajectory but not gated — at 500 samples the self-normalized
//!    estimator resolves q001 from a handful of effective tail samples
//!    and a gate there would codify noise.

use postopc::{extract_gates, ExtractionConfig, OpcMode, TagSet};
use postopc_bench::OrExit;
use postopc_device::ProcessParams;
use postopc_layout::{generate, Design, TechRules};
use postopc_sta::{statistical, MonteCarloConfig, MonteCarloResult, Sampling, TimingModel, LANES};

/// Default slow-corner tilt budget of the gated runs — the value the
/// `postopc serve --sampling tail` CLI defaults to and the tail-IS
/// accuracy rows `perf_smoke --record` writes to `BENCH_sta.json` use.
const TILT: f64 = postopc_bench::TAIL_TILT;

/// Tail-IS at 500 samples may exceed plain@2000's q01 absolute error by
/// at most this factor. The acceptance claim is "at least as good", so
/// the ratio is 1.0 — the study is deterministic (fixed seeds, thread
/// invariant), so there is no run-to-run noise to absorb. Measured on
/// the T6 workload over ten seeds: tail-IS@500 q01 err ~1.30 ps against
/// plain@2000's ~2.18 ps, a 0.60 ratio — 40% of headroom under the gate.
const Q01_RATIO: f64 = 1.0;

fn main() {
    let failed = parity_gates() | weight_gates() | tail_convergence_gate();
    if failed {
        std::process::exit(1);
    }
}

fn rca_model() -> (Design, f64) {
    let design = Design::compile(
        generate::ripple_carry_adder(6).or_exit("netlist"),
        TechRules::n90(),
    )
    .or_exit("design");
    (design, 900.0)
}

/// Gate 1: engine-vs-oracle bit-parity of tail-IS + control variate over
/// lane remainders, plus thread invariance under the ambient
/// `POSTOPC_THREADS`. Returns `true` on failure.
fn parity_gates() -> bool {
    let (design, clock) = rca_model();
    let model = TimingModel::new(&design, ProcessParams::n90(), clock).or_exit("model");
    let compiled = model.compile().or_exit("compile");
    let mut failed = false;
    // LANES - 1 exercises the sub-batch path, 3 * LANES + 3 a partial
    // tail after full batches, 4 * LANES the exact-multiple path.
    let counts = [LANES - 1, 3 * LANES + 3, 4 * LANES];
    for samples in counts {
        let batched_cfg = MonteCarloConfig {
            samples,
            sigma_nm: 1.5,
            seed: 23,
            sampling: Sampling::TailIs { tilt: TILT },
            control_variate: true,
            ..MonteCarloConfig::default()
        };
        let naive = statistical::run_reference(&model, None, &batched_cfg).or_exit("naive MC");
        let batched = statistical::run_with(&compiled, None, &batched_cfg).or_exit("batched MC");
        if batched != naive {
            eprintln!("FAIL: batched != naive (tail-IS + CV, {samples} samples)");
            failed = true;
        }
        // Thread invariance: `threads: None` resolves POSTOPC_THREADS
        // (the matrix axis check.sh drives); it must change nothing.
        let env_cfg = MonteCarloConfig {
            threads: None,
            ..batched_cfg.clone()
        };
        let pinned_cfg = MonteCarloConfig {
            threads: Some(1),
            ..batched_cfg
        };
        let env_run = statistical::run_with(&compiled, None, &env_cfg).or_exit("env MC");
        let pinned = statistical::run_with(&compiled, None, &pinned_cfg).or_exit("pinned MC");
        if env_run != pinned {
            eprintln!(
                "FAIL: POSTOPC_THREADS changed tail-IS results ({samples} samples, \
                 POSTOPC_THREADS={:?})",
                std::env::var("POSTOPC_THREADS").ok()
            );
            failed = true;
        }
        for ((a, b), (wa, wb)) in env_run
            .worst_slacks_ps()
            .iter()
            .zip(pinned.worst_slacks_ps())
            .zip(env_run.weights().iter().zip(pinned.weights()))
        {
            if a.to_bits() != b.to_bits() || wa.to_bits() != wb.to_bits() {
                eprintln!("FAIL: slack/weight bits differ across thread counts ({samples})");
                failed = true;
                break;
            }
        }
    }
    if !failed {
        println!(
            "tail parity: batched == naive, thread-invariant across {} configs \
             (POSTOPC_THREADS={})",
            counts.len(),
            std::env::var("POSTOPC_THREADS").unwrap_or_else(|_| "unset".to_string())
        );
    }
    failed
}

/// Gate 2: weight normalization, zero-tilt collapse to plain sampling,
/// and control-variate exactness on a pure linear model. Returns `true`
/// on failure.
fn weight_gates() -> bool {
    let (design, clock) = rca_model();
    let model = TimingModel::new(&design, ProcessParams::n90(), clock).or_exit("model");
    let mut failed = false;

    let cfg = MonteCarloConfig {
        samples: 3 * LANES + 5,
        sigma_nm: 1.5,
        seed: 41,
        sampling: Sampling::TailIs { tilt: TILT },
        control_variate: true,
        ..MonteCarloConfig::default()
    };
    let run = statistical::run(&model, None, &cfg).or_exit("tail MC");
    let weights = run.weights();
    let sum: f64 = weights.iter().sum();
    if weights.len() != cfg.samples
        || weights.iter().any(|w| !w.is_finite() || *w < 0.0)
        || (sum - 1.0).abs() > 1e-9
    {
        eprintln!(
            "FAIL: weight sanity ({} weights for {} samples, sum {sum:.12})",
            weights.len(),
            cfg.samples
        );
        failed = true;
    }

    // Zero tilt: the proposal IS the nominal distribution, so the run
    // must collapse to plain sampling bit for bit with uniform weights.
    let zero_cfg = MonteCarloConfig {
        sampling: Sampling::TailIs { tilt: 0.0 },
        ..cfg.clone()
    };
    let plain_cfg = MonteCarloConfig {
        sampling: Sampling::Plain,
        control_variate: false,
        ..cfg.clone()
    };
    let zero = statistical::run(&model, None, &zero_cfg).or_exit("zero-tilt MC");
    let plain = statistical::run(&model, None, &plain_cfg).or_exit("plain MC");
    let uniform = 1.0 / cfg.samples as f64;
    if zero
        .worst_slacks_ps()
        .iter()
        .zip(plain.worst_slacks_ps())
        .any(|(a, b)| a.to_bits() != b.to_bits())
        || zero.weights().iter().any(|w| (w - uniform).abs() > 1e-12)
    {
        eprintln!("FAIL: zero-tilt tail-IS did not collapse to plain sampling");
        failed = true;
    }

    // Pure linear model: worst slack = c + control value. The adjusted
    // estimator subtracts beta * mean(control) with beta -> 1, so it
    // recovers c exactly — the control variate integrates to zero
    // against the nominal distribution by construction.
    let c0 = 42.0;
    let control: Vec<f64> = run.control_values_ps().to_vec();
    let log_weights: Vec<f64> = run.weights().iter().map(|w| w.ln()).collect();
    let linear: Vec<f64> = control.iter().map(|c| c0 + c).collect();
    let synthetic = MonteCarloResult::new(linear.clone(), linear.clone(), linear)
        .with_sampling(cfg.sampling)
        .with_log_weights(&log_weights)
        .with_control(control);
    let adjusted = synthetic.cv_adjusted_mean_worst_slack_ps();
    if (adjusted - c0).abs() > 1e-6 {
        eprintln!("FAIL: control variate not exact on linear model ({adjusted:.9} vs {c0})");
        failed = true;
    }

    if !failed {
        println!(
            "tail weights: normalized (sum {sum:.12}), zero-tilt collapses to plain, \
             CV exact on linear model ({adjusted:.9} vs {c0})"
        );
    }
    failed
}

/// Gate 3: the deep-tail convergence claim on the T6 workload. Returns
/// `true` on failure.
fn tail_convergence_gate() -> bool {
    let design = postopc_bench::evaluation_design(11);
    let probe = TimingModel::new(&design, ProcessParams::n90(), 1_000_000.0).or_exit("probe model");
    let clock = probe
        .analyze(None)
        .or_exit("probe timing")
        .critical_delay_ps()
        * 1.10;
    let model = TimingModel::new(&design, ProcessParams::n90(), clock).or_exit("model");
    let drawn = model.analyze(None).or_exit("drawn timing");
    let tags = TagSet::from_critical_paths(&design, &drawn, 40);
    let mut cfg = ExtractionConfig::standard();
    cfg.opc_mode = OpcMode::Rule;
    let out = extract_gates(&design, &cfg, &tags).or_exit("extraction");
    let compiled = model.compile().or_exit("compile");
    let base = MonteCarloConfig {
        sigma_nm: 1.5,
        seed: 17,
        ..MonteCarloConfig::default()
    };
    let points = statistical::convergence_study(
        &compiled,
        Some(&out.annotation),
        &base,
        16_384,
        &[
            (Sampling::Plain, 2000),
            (Sampling::TailIs { tilt: TILT }, 500),
        ],
        &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
    )
    .or_exit("convergence study");
    let plain = &points[0];
    let tail = &points[1];
    println!(
        "tail convergence: tail-IS@{} q01 err {:.3} ps, q001 err {:.3} ps \
         (plain@{} q01 err {:.3} ps, q001 err {:.3} ps)",
        tail.samples,
        tail.q01_abs_err_ps,
        tail.q001_abs_err_ps,
        plain.samples,
        plain.q01_abs_err_ps,
        plain.q001_abs_err_ps
    );
    let bound = plain.q01_abs_err_ps * Q01_RATIO;
    if tail.q01_abs_err_ps > bound {
        eprintln!(
            "FAIL: tail-IS@{} q01 err {:.3} ps exceeds plain@{} q01 err {:.3} ps * {Q01_RATIO}",
            tail.samples, tail.q01_abs_err_ps, plain.samples, plain.q01_abs_err_ps
        );
        return true;
    }
    println!(
        "tail convergence: tail-IS @500 matches plain @2000 on the 1%-quantile \
         (4x fewer samples, ratio <= {Q01_RATIO})"
    );
    false
}
