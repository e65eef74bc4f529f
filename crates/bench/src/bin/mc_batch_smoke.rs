//! Batched Monte Carlo gates for the CI script (`scripts/check.sh`,
//! stage `mc_batch`). Exits 1 when an invariant breaks:
//!
//! 1. **Engine parity** — on a small adder, the batched SoA engine and
//!    the naive per-sample `analyze` reference must produce bit-identical
//!    distributions for plain and antithetic sampling, at sample counts
//!    covering every lane remainder class (full batches, a partial tail,
//!    fewer samples than one batch).
//! 2. **Table coverage** — every (gate, lane) lookup of every batch is
//!    served by the prewarmed shift table (`shared_hits == gates × padded
//!    samples`, `prewarmed > 0`, no hits or misses elsewhere).
//! 3. **Convergence** — on the T6 evaluation workload, antithetic
//!    sampling at 500 samples must match plain sampling at 2000 samples
//!    on mean absolute error of the *mean* worst slack
//!    (the variance-reduction claim: matched accuracy at 4x fewer
//!    samples; measured margin is over an order of magnitude). The
//!    1%-quantile errors are printed alongside but not gated: marginal
//!    variance reduction barely touches a deep tail order statistic of
//!    the max-type worst slack (see the `mc_batch` benchmark and
//!    EXPERIMENTS.md), and a gate on it would codify noise.

use postopc::{extract_gates, ExtractionConfig, OpcMode, TagSet};
use postopc_bench::OrExit;
use postopc_device::ProcessParams;
use postopc_layout::{generate, Design, TechRules};
use postopc_sta::{statistical, MonteCarloConfig, Sampling, TimingModel, LANES};

/// A variance-reduced scheme at 500 samples may exceed plain@2000's mean
/// absolute error of the mean worst slack by at most this factor. The
/// measured errors on the T6 workload are ~0.03 ps (antithetic @500)
/// against ~0.5 ps (plain @2000), so the gate passes with more than an
/// order of magnitude of headroom and trips only if the scheme stops
/// reducing variance at all.
const CONVERGENCE_RATIO: f64 = 1.25;

fn main() {
    let failed = parity_gates() | convergence_gate();
    if failed {
        std::process::exit(1);
    }
}

/// Gates 1 and 2: engine-vs-oracle bit-parity over sampling schemes and
/// lane remainders, plus shift-table coverage. Returns `true` on failure.
fn parity_gates() -> bool {
    let design = Design::compile(
        generate::ripple_carry_adder(6).or_exit("netlist"),
        TechRules::n90(),
    )
    .or_exit("design");
    let model = TimingModel::new(&design, ProcessParams::n90(), 900.0).or_exit("model");
    let compiled = model.compile().or_exit("compile");
    let mut failed = false;
    // LANES - 1 exercises the sub-batch path, 3 * LANES + 3 a partial
    // tail after full batches, 4 * LANES the exact-multiple path.
    let counts = [LANES - 1, 3 * LANES + 3, 4 * LANES];
    let samplings = [Sampling::Plain, Sampling::Antithetic];
    for sampling in samplings {
        for samples in counts {
            let cfg = MonteCarloConfig {
                samples,
                sigma_nm: 1.5,
                seed: 23,
                sampling,
                ..MonteCarloConfig::default()
            };
            let naive = statistical::run_reference(&model, None, &cfg).or_exit("naive MC");
            let batched = statistical::run_with(&compiled, None, &cfg).or_exit("batched MC");
            if batched != naive {
                eprintln!("FAIL: batched != naive ({sampling:?}, {samples} samples)");
                failed = true;
            }
            let stats = batched.cache_stats();
            let lookups = (design.netlist().gate_count() * samples.div_ceil(LANES) * LANES) as u64;
            if stats.prewarmed == 0
                || stats.shared_hits != lookups
                || stats.hits != 0
                || stats.misses != 0
            {
                eprintln!(
                    "FAIL: lookups not all served by the shift table ({sampling:?}, {samples} \
                     samples): prewarmed={} shared_hits={} (expected {lookups}) hits={} misses={}",
                    stats.prewarmed, stats.shared_hits, stats.hits, stats.misses
                );
                failed = true;
            }
        }
    }
    if !failed {
        println!(
            "mc_batch parity: batched == naive across {} configs, every lookup served by the \
             shift table",
            samplings.len() * counts.len()
        );
    }
    failed
}

/// Gate 3: the variance-reduction convergence claim on the T6 workload.
/// Returns `true` on failure.
fn convergence_gate() -> bool {
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
        &[(Sampling::Plain, 2000), (Sampling::Antithetic, 500)],
        &[1, 2, 3, 4, 5],
    )
    .or_exit("convergence study");
    let plain = &points[0];
    let mut failed = false;
    for vr in &points[1..] {
        println!(
            "mc_batch convergence: {:?}@{} mean err {:.4} ps, q01 err {:.3} ps, q001 err \
             {:.3} ps (plain@{} mean err {:.4} ps, q01 err {:.3} ps, q001 err {:.3} ps)",
            vr.sampling,
            vr.samples,
            vr.mean_abs_err_ps,
            vr.q01_abs_err_ps,
            vr.q001_abs_err_ps,
            plain.samples,
            plain.mean_abs_err_ps,
            plain.q01_abs_err_ps,
            plain.q001_abs_err_ps
        );
        let bound = plain.mean_abs_err_ps * CONVERGENCE_RATIO;
        if vr.mean_abs_err_ps > bound {
            eprintln!(
                "FAIL: {:?}@{} mean err {:.4} ps exceeds {:.4} ps \
                 (plain@2000 mean err {:.4} ps * {CONVERGENCE_RATIO})",
                vr.sampling, vr.samples, vr.mean_abs_err_ps, bound, plain.mean_abs_err_ps
            );
            failed = true;
        }
    }
    if !failed {
        println!(
            "mc_batch convergence: antithetic @500 matches plain @2000 \
             on the mean worst slack (4x fewer samples, ratio <= {CONVERGENCE_RATIO})"
        );
    }
    failed
}
