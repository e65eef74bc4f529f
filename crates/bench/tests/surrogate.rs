//! The learned CD surrogate on its home workload, the dense shuffled
//! speed-path farm (the diverse-context T9 design): it must serve
//! contexts, stay within [`PARITY_TOL_NM`] of SOCS, answer bit-identically
//! at every thread count, refuse an out-of-distribution layout, and seed
//! a run from a model file written by `surrogate_train`.

use postopc::{
    extract_gates, extract_gates_with_caches, ExtractionConfig, ExtractionOutcome, OpcMode,
    SurrogateConfig, SurrogateModel, TagSet,
};
use postopc_bench::dense_design;
use postopc_layout::{generate, Design, TechRules};

/// Worst tolerated |surrogate − SOCS| per annotated channel length, nm.
/// Audited residuals run ~0.01 nm; a model predicting physics it never
/// saw lands far above this.
const PARITY_TOL_NM: f64 = 1.0;

fn shuffled_farm() -> Design {
    dense_design(generate::speed_path_farm(20, 24, 11).expect("farm"))
}

/// The rule-OPC recipe with the context cache on `threads` workers.
fn rule(threads: Option<usize>) -> ExtractionConfig {
    let mut cfg = ExtractionConfig::standard();
    cfg.opc_mode = OpcMode::Rule;
    cfg.threads = threads;
    cfg
}

/// [`rule`] with the standard surrogate, trained online within the run.
fn with_surrogate(threads: Option<usize>) -> ExtractionConfig {
    let mut cfg = rule(threads);
    cfg.surrogate = SurrogateConfig::standard();
    cfg
}

/// Worst |Δl| over all annotated channel lengths between two outcomes of
/// the same design, nm.
fn worst_cd_delta_nm(truth: &ExtractionOutcome, fast: &ExtractionOutcome) -> f64 {
    let mut worst: f64 = 0.0;
    for (gate, t_ann) in truth.annotation.gates() {
        let f_ann = fast.annotation.gate(*gate).expect("both annotate the gate");
        for (t, f) in t_ann.transistors.iter().zip(&f_ann.transistors) {
            worst = worst
                .max((t.l_delay_nm - f.l_delay_nm).abs())
                .max((t.l_leakage_nm - f.l_leakage_nm).abs());
        }
    }
    worst
}

#[test]
fn surrogate_tracks_socs_on_the_shuffled_farm_at_every_thread_count() {
    let farm = shuffled_farm();
    let tags = TagSet::all(&farm);
    let truth = extract_gates(&farm, &rule(None), &tags).expect("SOCS extraction");
    let mut reference: Option<ExtractionOutcome> = None;
    for threads in [1, 2, 4] {
        let fast = extract_gates(&farm, &with_surrogate(Some(threads)), &tags).expect("surrogate");
        match &reference {
            Some(r) => assert_eq!(&fast, r, "threads = {threads}"),
            None => {
                assert!(fast.stats.surrogate_hits > 0, "{:?}", fast.stats);
                let worst = worst_cd_delta_nm(&truth, &fast);
                assert!(worst <= PARITY_TOL_NM, "worst CD delta {worst} nm");
                let residual = fast.stats.surrogate_max_residual_nm;
                assert!(residual <= PARITY_TOL_NM, "audit residual {residual} nm");
                reference = Some(fast);
            }
        }
    }
}

#[test]
fn a_model_trained_off_distribution_falls_back_on_every_context() {
    // Record-only training on a uniform inverter farm: the warm-up
    // exceeds every context count, so the model never predicts here.
    let chain = dense_design(generate::inverter_chain(240).expect("chain"));
    let mut train = rule(None);
    train.surrogate = SurrogateConfig {
        min_train: usize::MAX,
        ..SurrogateConfig::standard()
    };
    let mut model = train.surrogate.fresh_model();
    extract_gates_with_caches(&chain, &train, &TagSet::all(&chain), None, Some(&mut model))
        .expect("training run");
    // One round spanning the whole run freezes every decision on the
    // pretrained state, so online training cannot pull the adder
    // in-distribution mid-run.
    let adder = Design::compile(
        generate::ripple_carry_adder(4).expect("adder"),
        TechRules::n90(),
    )
    .expect("adder");
    let mut cfg = rule(None);
    cfg.surrogate = SurrogateConfig {
        min_train: 8,
        round: usize::MAX,
        pretrained: Some(model),
        ..SurrogateConfig::standard()
    };
    let out = extract_gates(&adder, &cfg, &TagSet::all(&adder)).expect("adder extraction");
    assert_eq!(out.stats.surrogate_hits, 0, "{:?}", out.stats);
    assert_eq!(out.stats.surrogate_fallbacks, out.stats.windows);
}

#[test]
fn a_model_file_from_surrogate_train_seeds_a_farm_run() {
    let path = std::env::temp_dir().join(format!(
        "postopc-surrogate-train-{}.bin",
        std::process::id()
    ));
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_surrogate_train"))
        .arg("--out")
        .arg(&path)
        .output()
        .expect("surrogate_train starts");
    assert!(
        run.status.success(),
        "surrogate_train failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let bytes = std::fs::read(&path).expect("model file");
    std::fs::remove_file(&path).ok();
    let model = SurrogateModel::from_file_bytes(&bytes).expect("a POCSURR1 model");

    let farm = shuffled_farm();
    let tags = TagSet::all(&farm);
    let truth = extract_gates(&farm, &rule(None), &tags).expect("SOCS extraction");
    let online = extract_gates(&farm, &with_surrogate(None), &tags).expect("online surrogate");
    let mut seeded = with_surrogate(None);
    seeded.surrogate.pretrained = Some(model);
    let pre = extract_gates(&farm, &seeded, &tags).expect("pretrained surrogate");
    assert!(
        pre.stats.surrogate_hits >= online.stats.surrogate_hits,
        "pretrained {} hits, online {}",
        pre.stats.surrogate_hits,
        online.stats.surrogate_hits
    );
    let worst = worst_cd_delta_nm(&truth, &pre);
    assert!(worst <= PARITY_TOL_NM, "worst CD delta {worst} nm");
}
