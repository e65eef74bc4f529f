//! Integration tests for the crash-safe serving layer: exhaustive
//! truncation and bit-flip sweeps over the artifact decoder, seeded I/O
//! fault schedules and torn artifacts against `serve_with`, advisory lock
//! contention and stale-lock takeover, crash-before-rename atomicity,
//! artifacts of another format version, deterministic query budgets and
//! ECO journal rollback.
//!
//! Every serve-level test runs at 1, 2 and 4 extraction and Monte Carlo
//! threads: fault schedules are keyed off operation order, not wall
//! clock or thread count, so each must hold identically at every count.

use postopc::durable::{lock_path, process_alive, tmp_path};
use postopc::{
    serve_with, ArtifactErrorKind, ArtifactIo, ArtifactLock, BudgetedOutcome, ColdReason,
    ContextStore, FaultInjection, FlowConfig, FlowError, IoFaultInjection, OpcMode, PersistStatus,
    RetryPolicy, SampleBudget, Selection, ServeOptions, SessionQuery, TagSet, TimingSession,
    WarmArtifact, ARTIFACT_VERSION,
};
use postopc_device::MosKind;
use postopc_layout::{generate, Design, GateId, NetId, TechRules};
use postopc_sta::{
    CdAnnotation, Corner, GateAnnotation, MonteCarloConfig, NetAnnotation, TimingModel,
    TransistorCd,
};
use std::path::{Path, PathBuf};

/// The worker-thread counts every serve-level test runs at.
const THREADS: [usize; 3] = [1, 2, 4];

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

/// The fault-sweep workload: a 4-bit adder with three tagged paths on
/// `threads` extraction workers, answering a corner sweep and a seeded
/// 48-sample Monte Carlo on `threads` workers.
fn chaos_workload(threads: usize) -> (Design, FlowConfig, Vec<SessionQuery>) {
    let design = Design::compile(
        generate::ripple_carry_adder(4).expect("netlist"),
        TechRules::n90(),
    )
    .expect("design");
    let mut cfg = fast_config();
    cfg.selection = Selection::Critical { paths: 3 };
    cfg.extraction.threads = Some(threads);
    let queries = vec![
        SessionQuery::Corners(Corner::classic_set(6.0)),
        SessionQuery::MonteCarlo(MonteCarloConfig {
            samples: 48,
            sigma_nm: 1.5,
            seed: 7,
            threads: Some(threads),
            ..MonteCarloConfig::default()
        }),
    ];
    (design, cfg, queries)
}

/// The artifact at `path` is absent, or loads and holds exactly
/// `reference`: no torn or stale artifact is ever published.
fn assert_absent_or_reference(path: &Path, reference: &[u8], context: &str) {
    if !path.exists() {
        return;
    }
    let bytes = std::fs::read(path).expect("published artifact reads");
    assert!(
        bytes == reference,
        "{context}: published artifact differs from the reference bytes"
    );
    if let Err(e) = WarmArtifact::from_bytes(&bytes) {
        panic!("{context}: published artifact does not load: {e}");
    }
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
fn seeded_io_fault_schedules_answer_bit_identically_or_fail_typed() {
    for threads in THREADS {
        let (design, cfg, queries) = chaos_workload(threads);
        let dir = scratch_dir(&format!("sweep-{threads}"));
        let path = dir.join("sweep.warm");
        let reference = serve_with(
            &design,
            &cfg,
            Some(&path),
            &queries,
            &ServeOptions::default(),
        )
        .expect("fault-free serve");
        let reference_bytes = std::fs::read(&path).expect("reference bytes");
        for seed in 1..=8u64 {
            // Short writes, transient errors and crashes before rename,
            // with fast retries so transient storms don't sleep.
            let options = ServeOptions {
                io_fault: Some(IoFaultInjection::all(seed, 0.35)),
                retry: RetryPolicy {
                    base_delay_us: 1,
                    ..RetryPolicy::default()
                },
                ..ServeOptions::default()
            };
            // A warm start under fire, then a cold one, so the schedule
            // also exercises the publish path from scratch.
            for start in ["warm", "cold"] {
                if start == "cold" {
                    std::fs::remove_file(&path).ok();
                    std::fs::remove_file(tmp_path(&path)).ok();
                }
                let context = format!("{threads} threads, schedule {seed} ({start})");
                match serve_with(&design, &cfg, Some(&path), &queries, &options) {
                    Ok(report) => assert_eq!(report.outcomes, reference.outcomes, "{context}"),
                    Err(FlowError::Artifact(_)) => {}
                    Err(other) => panic!("{context}: non-artifact error {other:?}"),
                }
                assert_absent_or_reference(&path, &reference_bytes, &context);
            }
            // Re-publish the clean artifact for the next warm start.
            std::fs::remove_file(tmp_path(&path)).ok();
            std::fs::write(&path, &reference_bytes).expect("republish the reference");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn torn_artifacts_serve_cold_as_corrupt_and_are_republished() {
    for threads in THREADS {
        let (design, cfg, queries) = chaos_workload(threads);
        let dir = scratch_dir(&format!("torn-{threads}"));
        let path = dir.join("torn.warm");
        let serve = || {
            serve_with(
                &design,
                &cfg,
                Some(&path),
                &queries,
                &ServeOptions::default(),
            )
        };
        let reference = serve().expect("reference serve");
        let reference_bytes = std::fs::read(&path).expect("reference bytes");
        // Empty, header-only, mid-section and checksum-clipped.
        for keep in [0, 9, reference_bytes.len() / 2, reference_bytes.len() - 3] {
            std::fs::write(&path, &reference_bytes[..keep]).expect("plant a torn artifact");
            let report = serve().expect("serve over a torn artifact");
            let context = format!("{threads} threads, {keep} bytes kept");
            assert!(!report.warm, "{context}");
            assert_eq!(report.cold_reason, Some(ColdReason::Corrupt), "{context}");
            assert_eq!(report.outcomes, reference.outcomes, "{context}");
            assert_eq!(report.persist, PersistStatus::Persisted, "{context}");
            assert!(
                std::fs::read(&path).expect("republished bytes") == reference_bytes,
                "{context}: the reference bytes must be published again"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// `sealed` with its header's format version set to `version` and the
/// trailing FNV-1a checksum recomputed, so only the version is wrong.
fn reseal_at_version(sealed: &[u8], version: u32) -> Vec<u8> {
    let mut body = sealed[..sealed.len() - 8].to_vec();
    body[8..12].copy_from_slice(&version.to_le_bytes());
    let checksum = body.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    body.extend_from_slice(&checksum.to_le_bytes());
    body
}

#[test]
fn an_artifact_of_another_version_serves_cold_and_is_rewritten() {
    assert_eq!(ARTIFACT_VERSION, 5);
    for threads in THREADS {
        let (design, cfg, queries) = chaos_workload(threads);
        let dir = scratch_dir(&format!("version-{threads}"));
        let path = dir.join("version.warm");
        let serve = |path: Option<&Path>| {
            serve_with(&design, &cfg, path, &queries, &ServeOptions::default())
        };
        let reference = serve(None).expect("pathless cold serve");
        serve(Some(&path)).expect("publish an artifact");
        let current = std::fs::read(&path).expect("published bytes");
        assert_eq!(reseal_at_version(&current, ARTIFACT_VERSION), current);
        std::fs::write(&path, reseal_at_version(&current, 4)).expect("plant a version-4 artifact");
        let report = serve(Some(&path)).expect("serve over a version-4 artifact");
        let context = format!("{threads} threads");
        assert!(!report.warm, "{context}");
        assert_eq!(report.cold_reason, Some(ColdReason::Version), "{context}");
        assert_eq!(report.outcomes, reference.outcomes, "{context}");
        assert_eq!(report.persist, PersistStatus::Persisted, "{context}");
        let rewritten = std::fs::read(&path).expect("rewritten bytes");
        assert!(rewritten == current, "{context}: rewritten at version 5");
        let warm = serve(Some(&path)).expect("warm serve");
        assert!(warm.warm, "{context}");
        assert_eq!(warm.outcomes, reference.outcomes, "{context}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn double_serve_lock_contention_is_a_typed_error() {
    let design = small_design();
    let queries = vec![SessionQuery::Corners(Corner::classic_set(6.0))];
    for threads in THREADS {
        let mut cfg = fast_config();
        cfg.extraction.threads = Some(threads);
        let serve = |path: &Path| {
            serve_with(
                &design,
                &cfg,
                Some(path),
                &queries,
                &ServeOptions::default(),
            )
        };
        let dir = scratch_dir(&format!("lock-{threads}"));
        let path = dir.join("serve.bin");
        // First "serve" holds the advisory lock; a concurrent serve against
        // the same artifact path must refuse to interleave, with a typed
        // error naming the owner.
        let mut io = ArtifactIo::faultless();
        let guard = ArtifactLock::acquire(&mut io, &path).expect("first serve's lock");
        let err = serve(&path).expect_err("second serve must not interleave");
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
        // Releasing the lock unblocks the path.
        drop(guard);
        let report = serve(&path).expect("serve after release");
        assert_eq!(report.persist, PersistStatus::Persisted);
        assert!(!lock_path(&path).exists(), "lock must be released");
        // A lock naming a dead process is stale: the serve takes it over,
        // persists, and leaves no lock behind.
        let stale = dir.join("stale.bin");
        let mut dead_pid = u32::MAX - 1;
        while process_alive(dead_pid) {
            dead_pid -= 1;
        }
        std::fs::write(lock_path(&stale), dead_pid.to_string()).expect("plant a stale lock");
        let report = serve(&stale).expect("serve past a stale lock");
        assert_eq!(report.persist, PersistStatus::Persisted);
        assert!(!lock_path(&stale).exists(), "stale lock must be released");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn crash_before_rename_keeps_the_old_artifact_bit_identical() {
    let design = small_design();
    let queries = vec![SessionQuery::Corners(Corner::classic_set(6.0))];
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
    for threads in THREADS {
        let mut cfg = fast_config();
        cfg.extraction.threads = Some(threads);
        let dir = scratch_dir(&format!("crash-{threads}"));
        let path = dir.join("serve.bin");
        // First publish, nothing on disk yet: the crash degrades
        // persistence, publishes nothing and orphans its temporary, and
        // the serve still answers.
        let first = serve_with(&design, &cfg, Some(&path), &queries, &crash)
            .expect("a crashed first publish must not take down the serve");
        assert!(matches!(first.persist, PersistStatus::Failed { .. }));
        assert!(!path.exists(), "a crashed first publish leaves no artifact");
        assert!(tmp_path(&path).exists(), "the crash orphans its temporary");
        // A clean serve over the orphan publishes normally.
        let clean = serve_with(
            &design,
            &cfg,
            Some(&path),
            &queries,
            &ServeOptions::default(),
        )
        .expect("publish a good artifact");
        assert_eq!(clean.cold_reason, Some(ColdReason::Missing));
        assert_eq!(clean.persist, PersistStatus::Persisted);
        assert_eq!(clean.outcomes, first.outcomes);
        let good_bytes = std::fs::read(&path).expect("published bytes");

        // A different config invalidates the artifact; the overwrite then
        // crashes between write and rename. The old artifact must survive
        // untouched, and the serve must still answer.
        let mut other_cfg = cfg.clone();
        other_cfg.clock_ps += 1.0;
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
}

#[test]
fn budgeted_queries_are_deterministic_and_partial_matches_rescoped() {
    let design = small_design();
    let corners = Corner::classic_set(6.0);
    for threads in THREADS {
        let mut cfg = fast_config();
        cfg.extraction.threads = Some(threads);
        let model = TimingModel::new(&design, cfg.process.clone(), cfg.clock_ps).expect("model");
        let mut session = TimingSession::new(&model, &cfg).expect("session");
        let mc = MonteCarloConfig {
            samples: 40,
            sigma_nm: 1.5,
            seed: 7,
            threads: Some(threads),
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

        // Through `serve_with`, a serve budget funds the corner sweep in
        // full and gives Monte Carlo exactly the leftover: the same
        // partial, on every repeat. A starved budget skips Monte Carlo.
        let queries = vec![SessionQuery::Corners(corners.clone()), query.clone()];
        let budgeted = |budget: u64| {
            let options = ServeOptions {
                budget: Some(budget),
                ..ServeOptions::default()
            };
            serve_with(&design, &cfg, None, &queries, &options).expect("budgeted serve")
        };
        let funded = corners.len() as u64 + 25;
        let served = budgeted(funded);
        assert_eq!(served.outcomes, budgeted(funded).outcomes);
        assert!(served.outcomes[0].is_full());
        assert_eq!(served.outcomes[1], partial);
        let starved = budgeted(corners.len() as u64);
        assert_eq!(
            starved.outcomes[1],
            BudgetedOutcome::Skipped { requested: 40 }
        );
    }
}

#[test]
fn failed_eco_rolls_the_session_back_to_its_baseline() {
    let design = small_design();
    let mut cfg = fast_config();
    cfg.selection = Selection::Critical { paths: 1 };
    let model = TimingModel::new(&design, cfg.process.clone(), cfg.clock_ps).expect("model");
    let probe = TimingSession::new(&model, &cfg).expect("probe session");
    let baseline_tags = probe.tags().clone();
    drop(probe);
    let all_gates = TagSet::all(&design);
    // Every fault kind, then worker panics alone: a panicking worker must
    // come back as a typed error and roll back like any other fault.
    for panics_only in [false, true] {
        // Find a seeded extraction-fault schedule that spares every gate
        // of the baseline selection but hits at least one gate an `All`
        // ECO adds — so the session comes up cleanly and only the ECO
        // fails.
        let injection = [0.02, 0.05, 0.1, 0.2]
            .iter()
            .flat_map(|&rate| (0..2000u64).map(move |seed| FaultInjection::all(seed, rate)))
            .map(|inj| FaultInjection {
                nan_cd: !panics_only,
                degenerate_geometry: !panics_only,
                ..inj
            })
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
        if panics_only {
            assert!(matches!(err, FlowError::WorkerPanic(_)), "{err:?}");
        }
        // Journal rollback: the same query answers bit-identically, the
        // warm store was restored, and the baseline tags are unchanged.
        assert_eq!(session.store().len(), store_len);
        assert_eq!(*session.tags(), baseline_tags);
        let after = session.run(&query).expect("post-rollback query");
        assert_eq!(before, after);
    }
}
