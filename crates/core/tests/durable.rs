//! Integration tests for the crash-safe serving layer: exhaustive
//! truncation and bit-flip sweeps over the artifact decoder, advisory
//! lock contention between interleaved serves, crash-before-rename
//! atomicity, deterministic query budgets and ECO journal rollback.

use postopc::durable::{lock_path, tmp_path};
use postopc::{
    serve_with, ArtifactErrorKind, ArtifactIo, ArtifactLock, BudgetedOutcome, ColdReason,
    ContextStore, FaultInjection, FlowConfig, FlowError, IoFaultInjection, OpcMode, PersistStatus,
    RetryPolicy, SampleBudget, Selection, ServeOptions, SessionQuery, TagSet, TimingSession,
    WarmArtifact,
};
use postopc_device::MosKind;
use postopc_layout::{generate, Design, GateId, NetId, TechRules};
use postopc_sta::{
    CdAnnotation, Corner, GateAnnotation, MonteCarloConfig, NetAnnotation, TimingModel,
    TransistorCd,
};
use std::path::PathBuf;

fn small_design() -> Design {
    Design::compile(
        generate::ripple_carry_adder(2).expect("netlist"),
        TechRules::n90(),
    )
    .expect("design")
}

fn fast_config() -> FlowConfig {
    let mut cfg = FlowConfig::standard(800.0);
    cfg.selection = Selection::Critical { paths: 2 };
    cfg.extraction.opc_mode = OpcMode::Rule;
    cfg.report_paths = 5;
    cfg
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("postopc-durable-it-{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A hand-built artifact a couple of kilobytes long — small enough that
/// an exhaustive per-byte sweep over it stays fast, while still
/// populating every section of the format.
fn tiny_artifact() -> WarmArtifact {
    let record = TransistorCd {
        kind: MosKind::Nmos,
        width_nm: 260.0,
        l_delay_nm: 89.5,
        l_leakage_nm: 91.25,
        input_pin: Some(1),
        finger: 0,
    };
    let mut annotation = CdAnnotation::new();
    annotation.set_gate(
        GateId(3),
        GateAnnotation {
            transistors: vec![record],
        },
    );
    annotation.set_net(
        NetId(5),
        NetAnnotation {
            printed_width_nm: 118.5,
        },
    );
    let mut tags = TagSet::new();
    for gate in [1, 3, 4] {
        tags.insert(GateId(gate));
    }
    WarmArtifact {
        content_hash: 0x0123_4567_89ab_cdef,
        annotation,
        tags,
        context_store: ContextStore::new(),
        surrogate: None,
    }
}

#[test]
fn every_truncation_offset_is_a_typed_error_never_a_panic() {
    let bytes = tiny_artifact().to_bytes();
    assert!(
        bytes.len() < 8192,
        "sweep artifact grew too large ({}) for an exhaustive scan",
        bytes.len()
    );
    // Sanity: the intact bytes round-trip.
    WarmArtifact::from_bytes(&bytes).expect("intact artifact parses");
    for cut in 0..bytes.len() {
        match WarmArtifact::from_bytes(&bytes[..cut]) {
            Err(FlowError::Artifact(_)) => {}
            Err(other) => panic!("prefix of {cut} bytes: non-artifact error {other:?}"),
            Ok(_) => panic!("prefix of {cut} bytes parsed as a valid artifact"),
        }
    }
}

#[test]
fn every_single_bit_flip_is_a_typed_error_never_a_panic() {
    let bytes = tiny_artifact().to_bytes();
    // Any one-bit damage anywhere — magic, version, a length prefix, a
    // float payload, the checksum itself — must surface as a typed
    // artifact error: the checksum (or an earlier structural check)
    // catches every case.
    for index in 0..bytes.len() {
        for bit in [0u8, 7] {
            let mut damaged = bytes.clone();
            damaged[index] ^= 1 << bit;
            match WarmArtifact::from_bytes(&damaged) {
                Err(FlowError::Artifact(_)) => {}
                Err(other) => panic!("flip {index}.{bit}: non-artifact error {other:?}"),
                Ok(_) => panic!("flip {index}.{bit} still parsed as a valid artifact"),
            }
        }
    }
}

#[test]
fn double_serve_lock_contention_is_a_typed_error() {
    let design = small_design();
    let cfg = fast_config();
    let queries = vec![SessionQuery::Corners(Corner::classic_set(6.0))];
    let dir = scratch_dir("lock");
    let path = dir.join("serve.bin");
    // First "serve" holds the advisory lock; a concurrent serve against
    // the same artifact path must refuse to interleave, with a typed
    // error naming the owner.
    let mut io = ArtifactIo::faultless();
    let guard = ArtifactLock::acquire(&mut io, &path).expect("first serve's lock");
    let err = serve_with(
        &design,
        &cfg,
        Some(&path),
        &queries,
        &ServeOptions::default(),
    )
    .expect_err("second serve must not interleave");
    match err {
        FlowError::Artifact(e) => {
            assert_eq!(
                e.kind,
                ArtifactErrorKind::Locked {
                    owner_pid: std::process::id()
                }
            );
        }
        other => panic!("expected typed Locked error, got {other:?}"),
    }
    // Releasing the lock unblocks the path; with locking disabled the
    // contention check is skipped entirely.
    drop(guard);
    let report = serve_with(
        &design,
        &cfg,
        Some(&path),
        &queries,
        &ServeOptions::default(),
    )
    .expect("serve after release");
    assert_eq!(report.persist, PersistStatus::Persisted);
    assert!(!lock_path(&path).exists(), "lock must be released");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_before_rename_keeps_the_old_artifact_bit_identical() {
    let design = small_design();
    let cfg = fast_config();
    let queries = vec![SessionQuery::Corners(Corner::classic_set(6.0))];
    let dir = scratch_dir("crash");
    let path = dir.join("serve.bin");
    serve_with(
        &design,
        &cfg,
        Some(&path),
        &queries,
        &ServeOptions::default(),
    )
    .expect("publish a good artifact");
    let good_bytes = std::fs::read(&path).expect("published bytes");

    // A different config invalidates the artifact; the overwrite then
    // crashes between write and rename. The old artifact must survive
    // untouched, and the serve must still answer.
    let mut other_cfg = cfg.clone();
    other_cfg.clock_ps += 1.0;
    let crash = ServeOptions {
        io_fault: Some(IoFaultInjection {
            seed: 1,
            rate: 1.0,
            short_write: false,
            transient_error: false,
            crash_before_rename: true,
        }),
        retry: RetryPolicy {
            base_delay_us: 0,
            ..RetryPolicy::default()
        },
        ..ServeOptions::default()
    };
    let report = serve_with(&design, &other_cfg, Some(&path), &queries, &crash)
        .expect("crashed persist must not take down the serve");
    assert_eq!(report.cold_reason, Some(ColdReason::Stale));
    assert!(matches!(report.persist, PersistStatus::Failed { .. }));
    assert_eq!(
        std::fs::read(&path).expect("old bytes"),
        good_bytes,
        "a crash between write and rename must leave the previous artifact bit-identical"
    );
    assert!(
        tmp_path(&path).exists(),
        "the crash leaves its staged temporary orphaned, like a real crash"
    );
    // The surviving artifact still serves its own config warm.
    let warm = serve_with(
        &design,
        &cfg,
        Some(&path),
        &queries,
        &ServeOptions::default(),
    )
    .expect("warm serve from the survivor");
    assert!(warm.warm);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn budgeted_queries_are_deterministic_and_partial_matches_rescoped() {
    let design = small_design();
    let cfg = fast_config();
    let model = TimingModel::new(&design, cfg.process.clone(), cfg.clock_ps).expect("model");
    let mut session = TimingSession::new(&model, &cfg).expect("session");
    let mc = MonteCarloConfig {
        samples: 40,
        sigma_nm: 1.5,
        seed: 7,
        ..MonteCarloConfig::default()
    };
    let query = SessionQuery::MonteCarlo(mc.clone());
    // 25 of 40 samples funded: a deterministic partial.
    let mut budget = SampleBudget::new(25);
    let partial = session
        .run_budgeted(&query, Some(&mut budget))
        .expect("budgeted run");
    assert_eq!(budget.remaining(), 0);
    let BudgetedOutcome::Partial {
        completed,
        requested,
        outcome,
    } = &partial
    else {
        panic!("expected a partial outcome, got {partial:?}");
    };
    assert_eq!((*completed, *requested), (25, 40));
    // The partial answer is exactly the re-scoped full query.
    let rescoped = session
        .run(&SessionQuery::MonteCarlo(MonteCarloConfig {
            samples: 25,
            ..mc.clone()
        }))
        .expect("re-scoped run");
    assert_eq!(*outcome, rescoped);
    // Replaying the same budget replays the same answer, bit for bit.
    let mut budget = SampleBudget::new(25);
    let replay = session
        .run_budgeted(&query, Some(&mut budget))
        .expect("replayed budgeted run");
    assert_eq!(partial, replay);
    // An exhausted budget skips; an absent one runs in full.
    let mut empty = SampleBudget::new(0);
    let skipped = session
        .run_budgeted(&query, Some(&mut empty))
        .expect("skipped run");
    assert_eq!(skipped, BudgetedOutcome::Skipped { requested: 40 });
    let full = session.run_budgeted(&query, None).expect("unbudgeted run");
    assert!(full.is_full());
}

#[test]
fn failed_eco_rolls_the_session_back_to_its_baseline() {
    let design = small_design();
    let mut cfg = fast_config();
    cfg.selection = Selection::Critical { paths: 1 };
    // Find a seeded extraction-fault schedule that spares every gate of
    // the baseline selection but hits at least one gate an `All` ECO
    // adds — so the session comes up cleanly and only the ECO fails.
    let model = TimingModel::new(&design, cfg.process.clone(), cfg.clock_ps).expect("model");
    let probe = TimingSession::new(&model, &cfg).expect("probe session");
    let baseline_tags = probe.tags().clone();
    drop(probe);
    let all_gates = TagSet::all(&design);
    let injection = [0.02, 0.05, 0.1, 0.2]
        .iter()
        .flat_map(|&rate| (0..2000u64).map(move |seed| FaultInjection::all(seed, rate)))
        .find(|inj| {
            baseline_tags
                .sorted()
                .iter()
                .all(|&g| inj.fault_for(g).is_none())
                && all_gates
                    .sorted()
                    .iter()
                    .any(|&g| inj.fault_for(g).is_some())
        })
        .expect("some seed spares the baseline and hits the ECO");
    cfg.extraction.fault_injection = Some(injection);
    let mut session = TimingSession::new(&model, &cfg).expect("session under injection");
    let query = SessionQuery::Corners(Corner::classic_set(6.0));
    let before = session.run(&query).expect("baseline query");
    let store_len = session.store().len();
    // The ECO hits an injected fault under the default Fail policy.
    let err = session.apply_eco(&all_gates).expect_err("ECO must fail");
    assert!(!err.to_string().is_empty());
    // Journal rollback: the same query answers bit-identically, the
    // warm store was restored, and the baseline tags are unchanged.
    assert_eq!(session.store().len(), store_len);
    assert_eq!(*session.tags(), baseline_tags);
    let after = session.run(&query).expect("post-rollback query");
    assert_eq!(before, after);
}
