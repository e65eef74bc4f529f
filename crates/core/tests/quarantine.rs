//! Integration tests for the fault-quarantine machinery: policy parity,
//! thread-count determinism, replayable injection, budget enforcement and
//! the extraction → STA boundary guard.

use postopc::{
    extract_gates, run_flow, ExtractionConfig, FaultInjection, FaultPolicy, FaultStage, FlowConfig,
    FlowError, OpcMode, Selection, TagSet,
};
use postopc_layout::{generate, Design, TechRules};
use std::sync::Mutex;

fn small_design() -> Design {
    Design::compile(
        generate::ripple_carry_adder(2).expect("netlist"),
        TechRules::n90(),
    )
    .expect("design")
}

fn fast_config() -> ExtractionConfig {
    let mut cfg = ExtractionConfig::standard();
    cfg.opc_mode = OpcMode::Rule;
    cfg
}

/// The whole flow over every gate, extracting with `extraction`.
fn flow_config(extraction: &ExtractionConfig) -> FlowConfig {
    let mut cfg = FlowConfig::standard(800.0);
    cfg.selection = Selection::All;
    cfg.extraction = extraction.clone();
    cfg
}

/// Runs `f` with panic output silenced — injected worker panics are the
/// point of these tests, their backtraces are noise. Serialized so
/// concurrent tests never race on the global hook.
fn quiet<R>(f: impl FnOnce() -> R) -> R {
    static GUARD: Mutex<()> = Mutex::new(());
    let _guard = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

#[test]
fn clean_runs_are_policy_invariant() {
    let design = small_design();
    let tags = TagSet::all(&design);
    let fail = extract_gates(&design, &fast_config(), &tags).expect("fail-policy run");
    let mut cfg = fast_config();
    cfg.fault_policy = FaultPolicy::Quarantine { max_fraction: 1.0 };
    let quarantine = extract_gates(&design, &cfg, &tags).expect("quarantine-policy run");
    assert_eq!(fail, quarantine);
    assert!(quarantine.stats.quarantined.is_empty());
    assert_eq!(quarantine.stats.gates_quarantined, 0);
}

#[test]
fn injected_quarantine_is_thread_invariant_and_replayable() {
    let design = small_design();
    let tags = TagSet::all(&design);
    let injection = FaultInjection::all(9, 0.4);
    let mut cfg = fast_config();
    cfg.fault_policy = FaultPolicy::Quarantine { max_fraction: 1.0 };
    cfg.fault_injection = Some(injection);
    cfg.threads = Some(1);
    let reference = quiet(|| extract_gates(&design, &cfg, &tags)).expect("injected run");
    // The injector replay predicts the exact quarantine set.
    let predicted: Vec<_> = tags
        .sorted()
        .into_iter()
        .filter(|&g| injection.fault_for(g).is_some())
        .collect();
    assert!(!predicted.is_empty(), "rate 0.4 must inject something");
    let recorded: Vec<_> = reference.stats.quarantined.iter().map(|q| q.gate).collect();
    assert_eq!(recorded, predicted);
    assert_eq!(reference.stats.gates_quarantined, predicted.len());
    // Quarantined gates keep drawn dimensions — no annotation entry.
    assert_eq!(
        reference.annotation.gate_count(),
        reference.stats.gates_extracted
    );
    // Same faults, same records, bit for bit, at 2 and 4 workers.
    for threads in [2usize, 4] {
        cfg.threads = Some(threads);
        let run = quiet(|| extract_gates(&design, &cfg, &tags)).expect("thread-matrix run");
        assert_eq!(run, reference, "outcome diverged at {threads} threads");
    }
    // The flow completes over the same faults and reports the same
    // records through `FlowReport::quarantined`.
    let report = quiet(|| run_flow(&design, &flow_config(&cfg))).expect("injected flow");
    let flow_recorded: Vec<_> = report.quarantined().iter().map(|q| q.gate).collect();
    assert_eq!(flow_recorded, predicted);
    assert_eq!(report.extraction.gates_quarantined, predicted.len());
    assert!(report.quarantined().iter().all(|q| !q.cause.is_empty()));
}

#[test]
fn quarantine_budget_aborts_past_the_cap() {
    let design = small_design();
    let tags = TagSet::all(&design);
    let injection = FaultInjection::all(9, 0.4);
    let predicted = tags
        .sorted()
        .into_iter()
        .filter(|&g| injection.fault_for(g).is_some())
        .count();
    let mut cfg = fast_config();
    cfg.fault_injection = Some(injection);
    // No budget at all, and the tightest cap the injected faults overrun:
    // half a gate below their count.
    for max_fraction in [0.0, (predicted as f64 - 0.5) / tags.len() as f64] {
        cfg.fault_policy = FaultPolicy::Quarantine { max_fraction };
        let err = quiet(|| extract_gates(&design, &cfg, &tags)).expect_err("budget must trip");
        match err {
            FlowError::QuarantineExceeded {
                quarantined, total, ..
            } => {
                assert!(quarantined > 0);
                assert_eq!(quarantined, predicted, "cap {max_fraction}");
                assert_eq!(total, tags.len());
            }
            other => panic!("expected QuarantineExceeded, got {other:?}"),
        }
    }
}

#[test]
fn context_faults_abort_typed_under_fail() {
    // Under the default `Fail` policy a context-stage fault is the run's
    // typed error, from `extract_gates` and `run_flow` alike: the geometry
    // error of a collapsed window, or `WorkerPanic` for a worker that
    // panicked, which never unwinds out of the run.
    let design = small_design();
    let tags = TagSet::all(&design);
    let only = |degenerate_geometry, worker_panic| FaultInjection {
        nan_cd: false,
        degenerate_geometry,
        worker_panic,
        ..FaultInjection::all(3, 1.0)
    };
    let geometry: fn(&FlowError) -> bool = |e| matches!(e, FlowError::Geometry(_));
    let panic: fn(&FlowError) -> bool =
        |e| matches!(e, FlowError::WorkerPanic(p) if p.contains("injected fault"));
    for (injection, expected) in [(only(true, false), geometry), (only(false, true), panic)] {
        let mut cfg = fast_config();
        cfg.fault_injection = Some(injection);
        cfg.threads = Some(1);
        let err = quiet(|| extract_gates(&design, &cfg, &tags)).expect_err("fault must abort");
        assert!(expected(&err), "{injection:?}: {err:?}");
        // The first fault in `GateId` order, whatever the thread count.
        for threads in [2usize, 4] {
            cfg.threads = Some(threads);
            let run = quiet(|| extract_gates(&design, &cfg, &tags));
            assert_eq!(run, Err(err.clone()), "{threads} threads");
        }
        let flow = quiet(|| run_flow(&design, &flow_config(&cfg))).expect_err("flow must abort");
        assert_eq!(flow, err);
    }
}

#[test]
fn nan_boundary_guard_aborts_under_fail() {
    let design = small_design();
    let tags = TagSet::all(&design);
    let mut cfg = fast_config();
    cfg.fault_injection = Some(FaultInjection {
        worker_panic: false,
        degenerate_geometry: false,
        ..FaultInjection::all(3, 1.0)
    });
    let err = extract_gates(&design, &cfg, &tags).expect_err("NaN CDs must not cross into STA");
    match err {
        FlowError::Sta(postopc_sta::StaError::InvalidCd { field, value }) => {
            assert_eq!(field, "l_delay_nm");
            assert!(value.is_nan());
        }
        other => panic!("expected StaError::InvalidCd, got {other:?}"),
    }
}

#[test]
fn nan_cds_quarantine_at_the_boundary_stage() {
    let design = small_design();
    let tags = TagSet::all(&design);
    let mut cfg = fast_config();
    cfg.fault_policy = FaultPolicy::Quarantine { max_fraction: 1.0 };
    cfg.fault_injection = Some(FaultInjection {
        worker_panic: false,
        degenerate_geometry: false,
        ..FaultInjection::all(3, 1.0)
    });
    let out = extract_gates(&design, &cfg, &tags).expect("run completes");
    assert_eq!(out.stats.gates_quarantined, tags.len());
    assert_eq!(out.stats.gates_extracted, 0);
    assert_eq!(out.annotation.gate_count(), 0);
    for q in &out.stats.quarantined {
        assert_eq!(q.stage, FaultStage::Boundary);
        assert!(q.cause.contains("l_delay_nm"), "cause: {}", q.cause);
    }
}

#[test]
fn pipeline_faults_quarantine_without_injection() {
    // A non-injected pipeline failure (invalid optics caught inside the
    // imaging engine) must land in the Pipeline stage for every gate.
    let design = small_design();
    let tags = TagSet::all(&design);
    let mut cfg = fast_config();
    cfg.sim.optics.na = 2.0; // rejected by OpticsParams::validate
    cfg.fault_policy = FaultPolicy::Quarantine { max_fraction: 1.0 };
    let out = extract_gates(&design, &cfg, &tags).expect("run completes");
    assert_eq!(out.stats.gates_quarantined, tags.len());
    assert_eq!(out.stats.gates_extracted, 0);
    for q in &out.stats.quarantined {
        assert_eq!(q.stage, FaultStage::Pipeline);
        assert!(q.cause.contains("NA"), "cause: {}", q.cause);
    }
    // The same configuration aborts on the first gate under Fail.
    cfg.fault_policy = FaultPolicy::Fail;
    assert!(extract_gates(&design, &cfg, &tags).is_err());
}

#[test]
fn validation_rejects_bad_fault_settings() {
    let design = small_design();
    let tags = TagSet::all(&design);
    let mut cfg = fast_config();
    cfg.fault_policy = FaultPolicy::Quarantine {
        max_fraction: f64::NAN,
    };
    assert!(matches!(
        extract_gates(&design, &cfg, &tags),
        Err(FlowError::InvalidConfig(_))
    ));
    let mut cfg = fast_config();
    cfg.fault_injection = Some(FaultInjection::all(1, 1.5));
    assert!(matches!(
        extract_gates(&design, &cfg, &tags),
        Err(FlowError::InvalidConfig(_))
    ));
}
