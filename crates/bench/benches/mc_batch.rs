//! Variance-reduction convergence benchmark: how fast each sampling
//! scheme's worst-slack estimates converge on the T6 evaluation
//! workload, and what one run costs.
//!
//! For each `(sampling, samples)` point the study runs five re-seeded
//! Monte Carlos through the batched engine and reports the mean absolute
//! errors of the worst-slack mean and 1%-quantile against a
//! 16384-sample plain reference, next to the median wall clock of one
//! run (`postopc_bench::runner::measure`).
//! The table is the evidence behind `perf_smoke`'s accuracy check
//! (antithetic@500 vs plain@2000 on the mean) and the honest
//! caveat recorded in EXPERIMENTS.md — variance reduction collapses the
//! smooth mean statistic by orders of magnitude but leaves the deep tail
//! quantile of the max-type worst slack nearly untouched. The recorded
//! Monte Carlo rows of `BENCH_sta.json` come from `perf_smoke --record`.

use postopc::{extract_gates, ExtractionConfig, OpcMode, TagSet};
use postopc_bench::runner::measure;
use postopc_device::ProcessParams;
use postopc_sta::{statistical, MonteCarloConfig, Sampling, TimingModel};

fn main() {
    let design = postopc_bench::evaluation_design(11);
    let probe = TimingModel::new(&design, ProcessParams::n90(), 1_000_000.0).expect("probe model");
    let clock = probe
        .analyze(None)
        .expect("probe timing")
        .critical_delay_ps()
        * 1.10;
    let model = TimingModel::new(&design, ProcessParams::n90(), clock).expect("model");
    let drawn = model.analyze(None).expect("drawn timing");
    let tags = TagSet::from_critical_paths(&design, &drawn, 40);
    let mut cfg = ExtractionConfig::standard();
    cfg.opc_mode = OpcMode::Rule;
    let out = extract_gates(&design, &cfg, &tags).expect("extraction");
    let compiled = model.compile().expect("compile");
    let base = MonteCarloConfig {
        sigma_nm: 1.5,
        seed: 17,
        threads: Some(1),
        ..MonteCarloConfig::default()
    };
    let points: Vec<(Sampling, usize)> = [Sampling::Plain, Sampling::Antithetic]
        .into_iter()
        .flat_map(|s| [250usize, 500, 1000, 2000].map(|n| (s, n)))
        .collect();
    let study = statistical::convergence_study(
        &compiled,
        Some(&out.annotation),
        &base,
        16_384,
        &points,
        &[1, 2, 3, 4, 5],
    )
    .expect("convergence study");
    println!("mc_batch: T6 composite 70%, batched engine, single thread");
    println!("reference: plain sampling, 16384 samples; errors averaged over 5 seeds");
    println!(
        "{:>12} {:>8} {:>17} {:>16} {:>14}",
        "sampling", "samples", "mean |err| (ps)", "q01 |err| (ps)", "run median (s)"
    );
    for p in &study {
        let run = MonteCarloConfig {
            samples: p.samples,
            sampling: p.sampling,
            ..base.clone()
        };
        let (_, wall) = measure(
            || statistical::run_with(&compiled, Some(&out.annotation), &run).expect("monte carlo"),
            |_, _| {},
        );
        println!(
            "{:>12} {:>8} {:>17.3} {:>16.3} {:>14.4}",
            format!("{:?}", p.sampling),
            p.samples,
            p.mean_abs_err_ps,
            p.q01_abs_err_ps,
            wall.median_s
        );
    }
}
