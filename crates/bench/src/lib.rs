//! # postopc-bench
//!
//! The benchmark harness of the reproduction: one function per table and
//! figure of the DAC 2005 evaluation (as reconstructed in `DESIGN.md`),
//! run by the `repro` binary, plus the [`runner`] the timing binary
//! `perf_smoke` measures through.
//!
//! Run everything with:
//!
//! ```bash
//! cargo run --release -p postopc-bench --bin repro -- all
//! ```

#![warn(missing_docs)]
// The bench *library* is setup/harness code whose documented contract is
// to panic when a workload cannot even be constructed (see the `# Panics`
// sections). The strict no-panic discipline (`clippy::unwrap_used` /
// `clippy::expect_used` in the `strict` CI stage) applies to the
// CI-gating binaries, which must fail with a rendered message and exit
// code 1, never a backtrace.
#![allow(clippy::unwrap_used, clippy::expect_used)]

pub mod experiments;
pub mod runner;

use postopc_layout::{generate, Design, Netlist, PlacementOptions, TechRules};
use postopc_sta::{statistical, CdAnnotation, CompiledSta, MonteCarloConfig, Sampling};

/// Unwrap-or-die for the CI-gating binaries: renders the error and exits
/// with code 1 instead of panicking, so a smoke-test failure reads as a
/// clean diagnostic rather than a backtrace. This is what the bench bins
/// use where library code would propagate a `Result`.
pub trait OrExit<T> {
    /// Returns the success value, or prints `fatal: <what>: <error>` and
    /// exits the process with code 1.
    fn or_exit(self, what: &str) -> T;
}

impl<T, E: std::fmt::Display> OrExit<T> for Result<T, E> {
    fn or_exit(self, what: &str) -> T {
        match self {
            Ok(value) => value,
            Err(e) => {
                eprintln!("fatal: {what}: {e}");
                std::process::exit(1);
            }
        }
    }
}

impl<T> OrExit<T> for Option<T> {
    fn or_exit(self, what: &str) -> T {
        match self {
            Some(value) => value,
            None => {
                eprintln!("fatal: {what}: missing value");
                std::process::exit(1);
            }
        }
    }
}

/// Slow-corner tilt budget of the gated tail-IS rows — kept equal to the
/// `postopc serve --tilt` default so the recorded accuracy numbers
/// describe the configuration users actually get.
pub const TAIL_TILT: f64 = 1.2;

/// Runs the sampling-accuracy study behind the accuracy rows of
/// `BENCH_sta.json`: q01 / q001 / mean absolute worst-slack errors of
/// plain, antithetic and tail-tilted importance sampling at 500 and 2000
/// samples, against a 16384-sample plain reference over ten fixed seeds,
/// on one thread. Deterministic and thread-invariant, so the recorded
/// rows regenerate bit-identically on any machine.
///
/// # Panics
///
/// Panics if a Monte Carlo run fails (binary-harness context).
pub fn sta_accuracy_rows(
    design_name: &str,
    compiled: &CompiledSta<'_>,
    systematic: Option<&CdAnnotation>,
) -> Vec<runner::Row> {
    let base = MonteCarloConfig {
        sigma_nm: 1.5,
        seed: 17,
        threads: Some(1),
        ..MonteCarloConfig::default()
    };
    let schemes = [
        ("plain", Sampling::Plain),
        ("antithetic", Sampling::Antithetic),
        ("tail-is", Sampling::TailIs { tilt: TAIL_TILT }),
    ];
    let mut points = Vec::new();
    for &(_, sampling) in &schemes {
        for samples in [500usize, 2000] {
            points.push((sampling, samples));
        }
    }
    let study = statistical::convergence_study(
        compiled,
        systematic,
        &base,
        16_384,
        &points,
        &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
    )
    .expect("accuracy study");
    study
        .iter()
        .zip(&points)
        .map(|(point, &(sampling, _))| runner::Row {
            design: design_name.to_string(),
            engine: schemes
                .iter()
                .find(|(_, s)| *s == sampling)
                .map(|(name, _)| (*name).to_string())
                .expect("scheme label"),
            work: point.samples,
            threads: 1,
            value: runner::Value::Accuracy(runner::Accuracy {
                q01_abs_err_ps: point.q01_abs_err_ps,
                q001_abs_err_ps: point.q001_abs_err_ps,
                mean_abs_err_ps: point.mean_abs_err_ps,
            }),
        })
        .collect()
}

/// Compiles the composite evaluation design (adder + multiplier + random
/// logic; see [`generate::paper_testcase`]).
///
/// # Panics
///
/// Panics if generation fails (impossible for valid seeds) — the harness
/// is a binary context where aborting is the right failure mode.
pub fn evaluation_design(seed: u64) -> Design {
    // 70% row utilization: filler gaps give gates diverse lithographic
    // contexts (dense vs semi-isolated neighbourhoods), as in real designs.
    Design::compile_with(
        generate::paper_testcase(seed).expect("testcase generates"),
        TechRules::n90(),
        &PlacementOptions {
            utilization: 0.7,
            seed,
        },
    )
    .expect("testcase compiles")
}

/// Compiles the speed-path-farm design used by the criticality-reordering
/// experiment: parallel near-identical chains in diverse placement
/// contexts (70% utilization).
///
/// # Panics
///
/// Panics if generation fails (impossible for sane sizes).
pub fn farm_design(paths: usize, depth: usize, seed: u64) -> Design {
    // 85% utilization: enough filler gaps for context diversity without
    // letting random wirelength dominate the drawn slack spread.
    Design::compile_with(
        generate::speed_path_farm(paths, depth, seed).expect("farm generates"),
        TechRules::n90(),
        &PlacementOptions {
            utilization: 0.85,
            seed,
        },
    )
    .expect("farm compiles")
}

/// Compiles `netlist` at 100% utilization (placement seed 11), the
/// placement of the T9 engine rows: every gate sees the repeated
/// neighbourhoods the context cache thrives on.
///
/// # Panics
///
/// Panics if the design does not compile (impossible for generated
/// netlists).
pub fn dense_design(netlist: Netlist) -> Design {
    Design::compile_with(
        netlist,
        TechRules::n90(),
        &PlacementOptions {
            utilization: 1.0,
            seed: 11,
        },
    )
    .expect("dense design compiles")
}

/// Compiles a random-logic design of roughly `gates` gates.
///
/// # Panics
///
/// Panics if generation fails (impossible for sane sizes).
pub fn random_design(gates: usize, seed: u64) -> Design {
    Design::compile(
        generate::random_logic(&generate::RandomLogicSpec {
            gates,
            inputs: 16,
            depth_bias: 2.0,
            seed,
        })
        .expect("random logic generates"),
        TechRules::n90(),
    )
    .expect("random logic compiles")
}
