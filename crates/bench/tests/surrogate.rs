//! The learned CD surrogate on its home workload, the dense shuffled
//! speed-path farm (the diverse-context T9 design), at its standard
//! values: it must serve contexts, stay within [`PARITY_TOL_NM`] of SOCS,
//! answer bit-identically at every thread count, keep its predictions out
//! of the warm store, stand aside under fault injection, refuse an
//! out-of-distribution layout, seed a run from a model file written by
//! `surrogate_train`, and leave every ECO a function of its inputs.

use postopc::{
    extract_gates, extract_gates_with_store, margin_clock, ContextStore, EcoOutcome,
    ExtractionConfig, ExtractionOutcome, FaultInjection, FaultPolicy, FlowConfig, OpcMode,
    Selection, SurrogateConfig, SurrogateModel, TagSet, TimingSession, WarmArtifact,
};
use postopc_bench::dense_design;
use postopc_layout::{generate, Design, TechRules};
use postopc_sta::TimingModel;

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

/// [`rule`] with the standard surrogate, trained within the run.
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
        let mut store = ContextStore::new();
        let fast = extract_gates_with_store(
            &farm,
            &with_surrogate(Some(threads)),
            &tags,
            Some(&mut store),
        )
        .expect("surrogate");
        // Only the imaged contexts are retained: the store stays pure SOCS.
        assert_eq!(store.len(), fast.stats.windows, "threads = {threads}");
        match &reference {
            Some(r) => assert_eq!(&fast, r, "threads = {threads}"),
            None => {
                let s = &fast.stats;
                assert!(s.surrogate_hits > 0, "{s:?}");
                assert_eq!(s.windows + s.store_hits + s.surrogate_hits, s.cache_misses);
                let worst = worst_cd_delta_nm(&truth, &fast);
                assert!(worst <= PARITY_TOL_NM, "worst CD delta {worst} nm");
                let residual = s.surrogate_max_residual_nm;
                assert!(residual <= PARITY_TOL_NM, "audit residual {residual} nm");
                reference = Some(fast);
            }
        }
    }
}

#[test]
fn fault_injection_bypasses_the_tier() {
    // A run that can quarantine gates must neither train a model on its
    // (possibly poisoned) results nor serve predictions into it: the
    // injected surrogate run is bit-identical to the injected exact run,
    // and the trainer comes back with an untrained model.
    let farm = shuffled_farm();
    let tags = TagSet::all(&farm);
    let inject = |mut cfg: ExtractionConfig| {
        cfg.fault_policy = FaultPolicy::Quarantine { max_fraction: 1.0 };
        cfg.fault_injection = Some(FaultInjection {
            seed: 7,
            rate: 0.1,
            nan_cd: true,
            degenerate_geometry: false,
            worker_panic: false,
        });
        cfg
    };
    let exact = extract_gates(&farm, &inject(rule(None)), &tags).expect("exact run");
    assert!(exact.stats.gates_quarantined > 0, "injection must bite");
    let guarded = extract_gates(&farm, &inject(with_surrogate(None)), &tags).expect("guarded");
    assert_eq!(guarded, exact, "the tier must be inert under injection");
    assert_eq!(guarded.stats.surrogate_hits, 0);
    assert_eq!(guarded.stats.surrogate_fallbacks, 0);
    let model = SurrogateModel::train(&farm, &inject(rule(None)), &tags).expect("training run");
    assert!(model.is_empty(), "trained on {} samples", model.len());
}

#[test]
fn a_model_trained_off_distribution_falls_back_on_every_context() {
    // Training on a uniform inverter farm: its 16 distinct contexts give
    // 32 samples, enough to clear the warm-up.
    let chain = dense_design(generate::inverter_chain(240).expect("chain"));
    let model =
        SurrogateModel::train(&chain, &rule(None), &TagSet::all(&chain)).expect("training run");
    assert_eq!(model.len(), 32);
    // A 27-gate adder has fewer distinct contexts than one training
    // round, so every gate decision is made against the pretrained state
    // and none is pulled in-distribution by the run's own training.
    let adder = Design::compile(
        generate::ripple_carry_adder(3).expect("adder"),
        TechRules::n90(),
    )
    .expect("adder");
    let mut cfg = with_surrogate(None);
    cfg.surrogate.pretrained = Some(model);
    let out = extract_gates(&adder, &cfg, &TagSet::all(&adder)).expect("adder extraction");
    assert!(out.stats.windows > 0);
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

#[test]
fn an_eco_is_the_extract_step_on_the_store_it_starts_from() {
    // A surrogate session whose cold extraction serves predictions, then
    // ECOs that widen the tagged paths and so image new contexts. Each
    // ECO must equal extracting on a copy of the store it started from
    // and evaluating the change: no model trained by earlier runs may
    // reach it.
    let farm = shuffled_farm();
    let mut cfg = FlowConfig::standard(margin_clock(&farm, 0.1).expect("clock"));
    cfg.selection = Selection::Critical { paths: 10 };
    cfg.extraction = with_surrogate(None);
    let model = TimingModel::new(&farm, cfg.process.clone(), cfg.clock_ps).expect("model");
    let drawn = model.analyze(None).expect("drawn timing");
    let mut session = TimingSession::new(&model, &cfg).expect("session");
    let cold = extract_gates(&farm, &cfg.extraction, session.tags()).expect("cold extraction");
    assert!(cold.stats.surrogate_hits > 0, "{:?}", cold.stats);
    assert_eq!(&cold.annotation, session.annotation());

    let compiled = model.compile().expect("compile");
    let mut scratch = compiled.scratch();
    let mut annotation = cold.annotation;
    compiled
        .evaluate(&mut scratch, Some(&annotation))
        .expect("baseline");
    let mut restored: Option<TimingSession<'_>> = None;
    for (step, paths) in [12, 14, 17, 20].into_iter().enumerate() {
        let tags = TagSet::from_critical_paths(&farm, &drawn, paths);
        let mut store = session.store().clone();
        let next = extract_gates_with_store(&farm, &cfg.extraction, &tags, Some(&mut store))
            .expect("extract step");
        let report = compiled
            .evaluate_eco(&mut scratch, Some(&annotation), Some(&next.annotation))
            .expect("evaluate_eco");
        let expected = EcoOutcome {
            stats: next.stats,
            report,
        };
        let eco = session.apply_eco(&tags).expect("eco");
        assert!(eco.stats.windows > 0, "step {step} images new contexts");
        assert_eq!(eco, expected, "step {step}");
        assert_eq!(session.annotation(), &next.annotation, "step {step}");
        assert_eq!(session.store().len(), store.len(), "step {step}");
        if let Some(warm) = restored.as_mut() {
            assert_eq!(warm.apply_eco(&tags).expect("restored eco"), eco);
            assert_eq!(warm.annotation(), session.annotation());
        }
        if step == 1 {
            let bytes = session.artifact().to_bytes();
            let artifact = WarmArtifact::from_bytes(&bytes).expect("artifact");
            restored = Some(TimingSession::restore(&model, &cfg, artifact).expect("restore"));
        }
        annotation = next.annotation;
    }
}
