//! CI gates for the learned CD surrogate (`scripts/check.sh` stage
//! `surrogate`). Exits 1 when any invariant breaks:
//!
//! 1. **In-distribution parity** — on the dense shuffled speed-path farm
//!    (the diverse-context T9 workload) the surrogate must actually serve
//!    contexts, and every annotated CD must stay within
//!    [`PARITY_TOL_NM`] of the pure-SOCS truth (the audit residual the
//!    engine reports must agree).
//! 2. **Determinism** — the surrogate run is bit-identical whether the
//!    worker pool runs serial or wide (round-based training makes the
//!    training stream a function of key order, not scheduling).
//! 3. **Out-of-distribution fallback** — a model trained on a uniform
//!    inverter farm must refuse to predict on an unrelated adder layout:
//!    100% of its unique contexts fall back to real simulation.
//! 4. **Speedup floor** — the surrogate run must beat the serial no-cache
//!    baseline by at least [`SPEEDUP_FLOOR`]× on the shuffled farm,
//!    comparing the medians of [`postopc_bench::runner::measure`].
//!
//! With `--model FILE` (a `POCSURR1` file from `surrogate_train`), the
//! pretrained model additionally seeds a farm run that must hit at least
//! as often as the online-trained run while holding the same parity.

use postopc::{
    extract_gates, extract_gates_with_caches, ExtractionConfig, ExtractionOutcome, OpcMode,
    SurrogateConfig, TagSet,
};
use postopc_bench::runner::measure;
use postopc_bench::OrExit;
use postopc_layout::{generate, Design, PlacementOptions, TechRules};
use postopc_litho::SurrogateModel;

/// Worst tolerated |surrogate − SOCS| per annotated channel length, nm.
/// Audited residuals run ~0.01 nm; a model predicting physics it never
/// saw lands far above this.
const PARITY_TOL_NM: f64 = 1.0;

/// Fresh surrogate-vs-baseline median-time floor on the shuffled farm.
/// `perf_smoke --bench-regression` separately floors the surrogate's
/// recorded single-thread time in `BENCH_extract.json`; this absolute
/// floor keeps the smoke meaningful on any machine.
const SPEEDUP_FLOOR: f64 = 3.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let model_path = args
        .iter()
        .position(|a| a == "--model")
        .and_then(|i| args.get(i + 1))
        .cloned();
    if args
        .iter()
        .any(|a| a != "--model" && Some(a) != model_path.as_ref())
    {
        eprintln!("surrogate_smoke: unknown arguments {args:?} (expected [--model FILE])");
        std::process::exit(1);
    }
    if gates(model_path.as_deref()) {
        std::process::exit(1);
    }
}

/// Compiles a dense (100% utilization) design — the placement the T9
/// benchmark rows use.
fn dense(netlist: postopc_layout::Netlist) -> Design {
    Design::compile_with(
        netlist,
        TechRules::n90(),
        &PlacementOptions {
            utilization: 1.0,
            seed: 11,
        },
    )
    .or_exit("design compiles")
}

/// Worst |Δl| over all annotated channel lengths between two outcomes of
/// the same design, nm.
fn worst_cd_delta_nm(truth: &ExtractionOutcome, fast: &ExtractionOutcome) -> f64 {
    let mut worst: f64 = 0.0;
    for (gate, t_ann) in truth.annotation.gates() {
        let f_ann = fast
            .annotation
            .gate(*gate)
            .or_exit("both runs annotate the same gates");
        for (t, f) in t_ann.transistors.iter().zip(&f_ann.transistors) {
            worst = worst
                .max((t.l_delay_nm - f.l_delay_nm).abs())
                .max((t.l_leakage_nm - f.l_leakage_nm).abs());
        }
    }
    worst
}

/// Runs every gate; returns `true` on failure.
fn gates(model_path: Option<&str>) -> bool {
    let mut failed = false;
    let farm = dense(generate::speed_path_farm(20, 24, 11).or_exit("farm generates"));
    let farm_tags = TagSet::all(&farm);

    // Serial no-cache baseline: the denominator of the speedup gate and
    // the honest cost of what the surrogate replaces.
    let mut baseline_cfg = ExtractionConfig::standard();
    baseline_cfg.opc_mode = OpcMode::Rule;
    baseline_cfg.cache = false;
    baseline_cfg.threads = Some(1);
    let (_, baseline) = measure(
        || extract_gates(&farm, &baseline_cfg, &farm_tags).or_exit("baseline extraction"),
        |_, _| {},
    );

    // Pure-SOCS truth (cache + pool, no surrogate) for the parity gates.
    let mut truth_cfg = ExtractionConfig::standard();
    truth_cfg.opc_mode = OpcMode::Rule;
    let truth = extract_gates(&farm, &truth_cfg, &farm_tags).or_exit("truth extraction");

    // Gate 1+4: the surrogate run — serves contexts, tracks truth, beats
    // the baseline.
    let mut surrogate_cfg = truth_cfg.clone();
    surrogate_cfg.surrogate = SurrogateConfig::standard();
    let (fast, fast_t) = measure(
        || extract_gates(&farm, &surrogate_cfg, &farm_tags).or_exit("surrogate extraction"),
        |_, _| {},
    );
    let speedup = baseline.median_s / fast_t.median_s.max(1e-9);
    println!(
        "surrogate_smoke: shuffled farm 20x24: baseline {baseline}, surrogate {fast_t} \
         ({speedup:.1}x), {} predicted / {} fell back of {} unique contexts",
        fast.stats.surrogate_hits,
        fast.stats.surrogate_fallbacks,
        fast.stats.surrogate_hits + fast.stats.windows,
    );
    if fast.stats.surrogate_hits == 0 {
        eprintln!("surrogate_smoke: FAIL - surrogate served no contexts on its home workload");
        failed = true;
    }
    let worst = worst_cd_delta_nm(&truth, &fast);
    println!(
        "surrogate_smoke: parity: worst CD delta {worst:.3} nm, max audited residual {:.3} nm \
         (tolerance {PARITY_TOL_NM} nm)",
        fast.stats.surrogate_max_residual_nm,
    );
    if worst > PARITY_TOL_NM || fast.stats.surrogate_max_residual_nm > PARITY_TOL_NM {
        eprintln!("surrogate_smoke: FAIL - surrogate CDs drifted past {PARITY_TOL_NM} nm of SOCS");
        failed = true;
    }
    if speedup < SPEEDUP_FLOOR {
        eprintln!(
            "surrogate_smoke: FAIL - surrogate speedup {speedup:.1}x below the {SPEEDUP_FLOOR}x floor"
        );
        failed = true;
    }

    // Gate 2: scheduling must not touch the result — serial vs pooled
    // surrogate runs are bit-identical (stats included).
    let mut serial_cfg = surrogate_cfg.clone();
    serial_cfg.threads = Some(1);
    let serial = extract_gates(&farm, &serial_cfg, &farm_tags).or_exit("serial surrogate");
    if serial != fast {
        eprintln!("surrogate_smoke: FAIL - surrogate outcome differs between serial and pool");
        failed = true;
    } else {
        println!("surrogate_smoke: PASS - surrogate run bit-identical serial vs pooled");
    }

    // Gate 3: a model trained only on the uniform inverter farm must
    // decline every context of an unrelated adder layout. One giant
    // round freezes the decisions on the pretrained state, so online
    // training cannot quietly pull the layout in-distribution mid-run.
    let chain = dense(generate::inverter_chain(240).or_exit("chain generates"));
    let mut train_cfg = ExtractionConfig::standard();
    train_cfg.opc_mode = OpcMode::Rule;
    train_cfg.surrogate = SurrogateConfig {
        min_train: usize::MAX,
        ..SurrogateConfig::standard()
    };
    let mut chain_model = train_cfg.surrogate.fresh_model();
    extract_gates_with_caches(
        &chain,
        &train_cfg,
        &TagSet::all(&chain),
        None,
        Some(&mut chain_model),
    )
    .or_exit("chain training run");
    let ood_design = Design::compile(
        generate::ripple_carry_adder(4).or_exit("adder generates"),
        TechRules::n90(),
    )
    .or_exit("adder compiles");
    let mut ood_cfg = ExtractionConfig::standard();
    ood_cfg.opc_mode = OpcMode::Rule;
    ood_cfg.surrogate = SurrogateConfig {
        min_train: 8,
        round: usize::MAX,
        pretrained: Some(chain_model),
        ..SurrogateConfig::standard()
    };
    let ood =
        extract_gates(&ood_design, &ood_cfg, &TagSet::all(&ood_design)).or_exit("OOD extraction");
    println!(
        "surrogate_smoke: OOD adder: {} predicted, {} of {} unique contexts fell back",
        ood.stats.surrogate_hits, ood.stats.surrogate_fallbacks, ood.stats.windows,
    );
    if ood.stats.surrogate_hits != 0 || ood.stats.surrogate_fallbacks != ood.stats.windows {
        eprintln!(
            "surrogate_smoke: FAIL - leverage gate let an out-of-distribution context through"
        );
        failed = true;
    } else {
        println!("surrogate_smoke: PASS - 100% fallback on the out-of-distribution layout");
    }

    // Optional gate 5: a pretrained model from `surrogate_train` must
    // load, serve at least as much as online training from scratch, and
    // hold the same parity.
    if let Some(path) = model_path {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("surrogate_smoke: FAIL - cannot read model {path:?}: {e}");
                return true;
            }
        };
        let model = match SurrogateModel::from_file_bytes(&bytes) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("surrogate_smoke: FAIL - bad model file {path:?}: {e}");
                return true;
            }
        };
        let mut pre_cfg = surrogate_cfg.clone();
        pre_cfg.surrogate.pretrained = Some(model);
        let pre = extract_gates(&farm, &pre_cfg, &farm_tags).or_exit("pretrained extraction");
        let pre_worst = worst_cd_delta_nm(&truth, &pre);
        println!(
            "surrogate_smoke: pretrained: {} predicted (online run: {}), worst CD delta {pre_worst:.3} nm",
            pre.stats.surrogate_hits, fast.stats.surrogate_hits,
        );
        if pre.stats.surrogate_hits < fast.stats.surrogate_hits || pre_worst > PARITY_TOL_NM {
            eprintln!("surrogate_smoke: FAIL - pretrained model underperforms online training");
            failed = true;
        } else {
            println!("surrogate_smoke: PASS - pretrained model serves warm and tracks truth");
        }
    }

    if !failed {
        println!("surrogate_smoke: PASS - all surrogate gates held");
    }
    failed
}
