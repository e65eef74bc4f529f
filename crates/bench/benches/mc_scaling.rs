//! Benchmarks Monte Carlo STA scaling with sample count: the naive
//! per-sample `analyze` oracle vs the batched SoA evaluator, both pinned
//! to one thread so the comparison isolates the per-sample cost.
//!
//! Uses the in-tree timing harness (`postopc_bench::timing`); criterion is
//! not available offline. Alongside the human table, the comparison is
//! written to `BENCH_sta.json` in the same schema the `repro -- t6` run
//! emits, so perf trajectories can be diffed by tooling. Every row also
//! checks the engine bit-identical to the oracle and aborts on a
//! mismatch — a perf number from a wrong engine is worse than none.

use postopc::{extract_gates, ExtractionConfig, OpcMode, TagSet};
use postopc_bench::json::{write_sta_rows, StaBenchRow};
use postopc_bench::timing::time;
use postopc_device::ProcessParams;
use postopc_sta::{statistical, MonteCarloConfig, TimingModel};

fn main() {
    // The T6 workload: composite design at 70% utilization, top-40 paths
    // extracted with rule OPC as the systematic CD annotation.
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
    // Compiled once for the whole sweep (the flow shape): the timed region
    // of every compiled row is pure evaluation, no compile cost.
    let compiled_sta = model.compile().expect("compile");

    let mut rows: Vec<StaBenchRow> = Vec::new();
    println!("mc_scaling: T6 composite 70%, single thread, naive vs batched");
    println!(
        "{:>8} {:>11} {:>11} {:>9} {:>10}",
        "samples", "naive (s)", "batched (s)", "speedup", "identical"
    );
    for samples in [250usize, 1000, 2000] {
        let mc = MonteCarloConfig {
            samples,
            sigma_nm: 1.5,
            seed: 17,
            threads: Some(1),
            ..MonteCarloConfig::default()
        };
        let (naive, naive_s) = time(|| {
            statistical::run_reference(&model, Some(&out.annotation), &mc).expect("naive MC")
        });
        let (batched, batched_s) = time(|| {
            statistical::run_with(&compiled_sta, Some(&out.annotation), &mc).expect("batched MC")
        });
        let batched_identical = naive == batched;
        let batched_speedup = naive_s / batched_s.max(1e-9);
        println!(
            "{samples:>8} {naive_s:>11.3} {batched_s:>11.3} {batched_speedup:>8.1}x \
             {batched_identical:>10}"
        );
        let batched_stats = batched.cache_stats();
        rows.push(StaBenchRow {
            design: "T6 composite 70%".to_string(),
            engine: "naive analyze".to_string(),
            samples,
            wall_s: naive_s,
            speedup: 1.0,
            identical: true,
            shift_hits: 0,
            shift_misses: 0,
        });
        rows.push(StaBenchRow {
            design: "T6 composite 70%".to_string(),
            engine: "batched".to_string(),
            samples,
            wall_s: batched_s,
            speedup: batched_speedup,
            identical: batched_identical,
            shift_hits: batched_stats.hits + batched_stats.shared_hits,
            shift_misses: batched_stats.misses,
        });
        assert!(
            batched_identical,
            "batched engine diverged at {samples} samples"
        );
    }
    // The schema-v3 accuracy section: sampling-scheme convergence errors
    // against a 16384-sample plain reference (deterministic, so the
    // committed artifact regenerates bit-identically).
    let accuracy =
        postopc_bench::sta_accuracy_rows("T6 composite 70%", &compiled_sta, Some(&out.annotation));
    println!(
        "\n{:>12} {:>8} {:>14} {:>15} {:>15}",
        "sampling", "samples", "q01 err (ps)", "q001 err (ps)", "mean err (ps)"
    );
    for row in &accuracy {
        println!(
            "{:>12} {:>8} {:>14.3} {:>15.3} {:>15.4}",
            row.sampling, row.samples, row.q01_abs_err_ps, row.q001_abs_err_ps, row.mean_abs_err_ps
        );
    }
    let path = std::path::Path::new("BENCH_sta.json");
    match write_sta_rows(path, 1, &rows, &accuracy) {
        Ok(()) => println!("[mc_scaling wrote {}]", path.display()),
        Err(e) => eprintln!("[mc_scaling could not write {}: {e}]", path.display()),
    }
}
