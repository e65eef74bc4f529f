//! Seeded random ECO sequences through a warm `TimingSession`, checked
//! step by step against the full re-analysis: each `apply_eco` must equal
//! the flow's extract step on a copy of the store the ECO started from,
//! followed by `evaluate_eco` from the session's baseline — the outcome,
//! the annotation and the store's encoded bytes — and a failed ECO must
//! leave the session's warm state as it was. Half-way through, a session
//! restored from the live one's artifact joins and steps in lock step with
//! it, though it starts without the live session's per-gate context map.
//!
//! The sequences add and drop gates, re-add dropped gates, add gates
//! that print alike with a tagged gate (and so almost always share its
//! context), and add gates an injected fault hits, on `rand:`, `farm:`
//! and `regfarm:` designs at 1 and 2 threads, with the context cache on
//! and off, the surrogate on, a NaN schedule under `Quarantine` whose
//! budget some steps overrun, and a worker-panic schedule under `Fail`.
//! On `regfarm:` designs what-if queries run between the ECOs, and each
//! must equal a fresh evaluation of its edit.

use postopc::{
    content_hash, extract_gates_with_store, margin_clock, ContextStore, EcoOutcome,
    ExtractionConfig, FaultInjection, FaultPolicy, FlowConfig, FlowError, OpcMode, QueryOutcome,
    Selection, SessionQuery, SurrogateConfig, TagSet, TimingSession, WarmArtifact,
};
use postopc_layout::generate::{self, RandomLogicSpec};
use postopc_layout::{Design, GateId, TechRules};
use postopc_rng::{RngExt, SeedableRng, StdRng};
use postopc_sta::{CdAnnotation, CompiledSta, StaScratch, TimingModel};
use std::collections::HashMap;

/// ECOs per sequence; the restored session joins after half of them.
const STEPS: usize = 10;

/// A `rand:` design: `gates` random gates, abutted.
fn rand_design(gates: usize, seed: u64) -> Design {
    let netlist = generate::random_logic(&RandomLogicSpec {
        gates,
        seed,
        ..RandomLogicSpec::default()
    })
    .expect("netlist");
    Design::compile(netlist, TechRules::n90()).expect("design")
}

/// A `farm:` design: identical speed-path chains, so contexts repeat.
fn farm_design(paths: usize, depth: usize) -> Design {
    Design::compile(
        generate::speed_path_farm(paths, depth, 7).expect("netlist"),
        TechRules::n90(),
    )
    .expect("design")
}

/// A `regfarm:` design: registered speed-path chains, so timing runs
/// register to register.
fn regfarm_design(paths: usize, depth: usize) -> Design {
    Design::compile(
        generate::registered_farm(paths, depth, 7).expect("netlist"),
        TechRules::n90(),
    )
    .expect("design")
}

/// Rule OPC on `threads` workers.
fn rule(threads: usize) -> ExtractionConfig {
    let mut cfg = ExtractionConfig::standard();
    cfg.opc_mode = OpcMode::Rule;
    cfg.threads = Some(threads);
    cfg
}

/// One sequence: a design, the paths the session opens on, its
/// extraction config, how the script edits and the script's seed.
struct Scenario {
    name: &'static str,
    design: Design,
    /// Top drawn paths whose gates the session opens on.
    paths: usize,
    extraction: ExtractionConfig,
    /// Most gates one edit adds or drops.
    edit: usize,
    /// Steps that add gates an injected fault hits: how many to add.
    poison_steps: Vec<(usize, usize)>,
    /// What-if queries after each ECO.
    whatifs: usize,
    seed: u64,
}

/// Every gate of `design` grouped by litho context. Each gate runs alone
/// against one growing store: a gate the store serves shares its context
/// with an earlier gate, and so prints alike with it, and a two-gate run
/// that reuses one context for both finds which.
fn context_groups(design: &Design) -> Vec<Vec<GateId>> {
    let cfg = rule(1);
    let run = |gates: &[GateId], store: Option<&mut ContextStore>| {
        let mut tags = TagSet::new();
        for &g in gates {
            tags.insert(g);
        }
        extract_gates_with_store(design, &cfg, &tags, store).expect("clean run")
    };
    let mut store = ContextStore::new();
    let mut groups: Vec<Vec<GateId>> = Vec::new();
    // The groups whose gates print alike, by their cell and record bits.
    let mut alike: HashMap<Vec<u64>, Vec<usize>> = HashMap::new();
    for gate in TagSet::all(design).sorted() {
        let out = run(&[gate], Some(&mut store));
        let g = design.netlist().gate(gate);
        let mut print = vec![g.kind as u64, g.drive as u64];
        for t in out
            .annotation
            .gate(gate)
            .map_or(&[][..], |a| &a.transistors)
        {
            print.extend([t.l_delay_nm.to_bits(), t.l_leakage_nm.to_bits()]);
        }
        let candidates = alike.entry(print).or_default();
        let shared = match out.stats.store_hits {
            0 => None,
            _ => candidates
                .iter()
                .copied()
                .find(|&i| run(&[groups[i][0], gate], None).stats.cache_hits == 1),
        };
        match shared {
            Some(i) => groups[i].push(gate),
            None => {
                candidates.push(groups.len());
                groups.push(vec![gate]);
            }
        }
    }
    groups
}

/// The seeded script of tag-set edits.
struct Script {
    rng: StdRng,
    gates: u32,
    edit: usize,
    /// Gates an earlier step dropped.
    dropped: Vec<GateId>,
    /// Gates grouped by litho context: group mates share one context.
    groups: Vec<Vec<GateId>>,
    group_of: HashMap<GateId, usize>,
    /// Gates an injected fault hits.
    poison: Vec<GateId>,
    /// Gates added for sharing a tagged gate's context.
    shared: usize,
}

impl Script {
    fn new(scenario: &Scenario, poison: Vec<GateId>) -> Script {
        let design = &scenario.design;
        let groups = context_groups(design);
        let mut group_of = HashMap::new();
        for (i, group) in groups.iter().enumerate() {
            for &gate in group {
                group_of.insert(gate, i);
            }
        }
        Script {
            rng: StdRng::seed_from_u64(scenario.seed),
            gates: design.netlist().gate_count() as u32,
            edit: scenario.edit,
            dropped: Vec::new(),
            groups,
            group_of,
            poison,
            shared: 0,
        }
    }

    fn spared(&self, gate: GateId) -> bool {
        !self.poison.contains(&gate)
    }

    /// The next tag set from `tags`, and what the edit did. A poison step
    /// adds `poison` gates an injected fault hits; any other step leaves
    /// them out.
    fn next(&mut self, tags: &TagSet, poison: usize) -> (TagSet, String) {
        let mut next = tags.clone();
        if poison > 0 {
            let mut hit = self.poison.clone();
            hit.retain(|&g| !tags.contains(g));
            for &g in hit.iter().take(poison) {
                next.insert(g);
            }
            return (next, format!("add {poison} faulting gates"));
        }
        let n = self.rng.random_range(1..=self.edit);
        let what = match self.rng.random_range(0..5) {
            0 => {
                let mut added = 0;
                for _ in 0..4 * n {
                    let g = GateId(self.rng.random_range(0..self.gates));
                    if added < n && !next.contains(g) && self.spared(g) {
                        next.insert(g);
                        added += 1;
                    }
                }
                format!("add {added}")
            }
            1 | 4 => {
                // Drop `n` tagged gates (keeping one), then for a swap
                // add as many untagged ones.
                let mut kept = tags.sorted();
                let mut dropped = 0;
                while dropped < n && kept.len() > 1 {
                    let i = self.rng.random_range(0..kept.len());
                    self.dropped.push(kept.swap_remove(i));
                    dropped += 1;
                }
                next = TagSet::new();
                for &g in &kept {
                    next.insert(g);
                }
                if self.rng.random_range(0..2) == 0 {
                    for _ in 0..dropped {
                        let g = GateId(self.rng.random_range(0..self.gates));
                        if !tags.contains(g) && self.spared(g) {
                            next.insert(g);
                        }
                    }
                    format!("swap {dropped}")
                } else {
                    format!("drop {dropped}")
                }
            }
            2 => {
                let mut readded = 0;
                while readded < n && !self.dropped.is_empty() {
                    let i = self.rng.random_range(0..self.dropped.len());
                    next.insert(self.dropped.swap_remove(i));
                    readded += 1;
                }
                format!("re-add {readded}")
            }
            _ => {
                // Add untagged gates that share a tagged gate's context.
                let mut shared = 0;
                for g in tags.sorted() {
                    if shared == n {
                        break;
                    }
                    let group = &self.groups[self.group_of[&g]];
                    let mate = group
                        .iter()
                        .copied()
                        .find(|&m| !next.contains(m) && self.spared(m));
                    if let Some(mate) = mate {
                        next.insert(mate);
                        shared += 1;
                    }
                }
                self.shared += shared;
                format!("add {shared} sharing a context")
            }
        };
        (next, what)
    }
}

/// The full re-analysis the session is held to: a compiled evaluator
/// whose scratch follows the session's committed baselines.
struct Reference<'m> {
    compiled: CompiledSta<'m>,
    scratch: StaScratch,
    content_hash: u64,
}

impl Reference<'_> {
    /// Runs `edit` as a what-if on `session` and checks it against a
    /// fresh evaluation of the edit; the restored `twin`, if any, must
    /// answer alike.
    fn what_if(
        &self,
        session: &mut TimingSession<'_>,
        twin: Option<&mut TimingSession<'_>>,
        edit: CdAnnotation,
        what: &str,
    ) {
        let fresh = self
            .compiled
            .evaluate(&mut self.compiled.scratch(), Some(&edit))
            .expect("fresh evaluation");
        let query = SessionQuery::WhatIf(edit);
        let got = session.run(&query).expect("what-if");
        assert_eq!(got, QueryOutcome::WhatIf(fresh), "{what}");
        if let Some(twin) = twin {
            assert_eq!(twin.run(&query).expect("what-if"), got, "{what}: twin");
        }
    }

    /// Applies `tags` to `session` and checks the answer against the
    /// extract step on a copy of the store it starts from plus
    /// `evaluate_eco`; a failed ECO must fail alike and change nothing.
    fn step(
        &mut self,
        design: &Design,
        cfg: &FlowConfig,
        session: &mut TimingSession<'_>,
        tags: &TagSet,
        what: &str,
    ) -> Result<EcoOutcome, FlowError> {
        let before = session.artifact().to_bytes();
        let baseline = session.baseline().clone();
        let prev = session.annotation().clone();
        let mut store = session.store().clone();
        let expected = extract_gates_with_store(design, &cfg.extraction, tags, Some(&mut store));
        let got = session.apply_eco(tags);
        match (expected, &got) {
            (Ok(next), Ok(eco)) => {
                let report = self
                    .compiled
                    .evaluate_eco(&mut self.scratch, Some(&prev), Some(&next.annotation))
                    .expect("evaluate_eco");
                let full = EcoOutcome {
                    stats: next.stats,
                    report,
                };
                assert_eq!(eco, &full, "{what}");
                assert_eq!(session.annotation(), &next.annotation, "{what}");
                let artifact = WarmArtifact {
                    content_hash: self.content_hash,
                    annotation: next.annotation,
                    tags: tags.clone(),
                    context_store: store.into(),
                };
                assert!(
                    session.artifact().to_bytes() == artifact.to_bytes(),
                    "{what}: the session's warm state is not the extract step's"
                );
            }
            (Err(e), Err(g)) => {
                assert_eq!(g, &e, "{what}");
                assert!(
                    session.artifact().to_bytes() == before,
                    "{what}: the failed ECO changed the warm state"
                );
                assert_eq!(session.baseline(), &baseline, "{what}");
            }
            (expected, got) => panic!(
                "{what}: the extract step gave {:?}, the session {:?}",
                expected.map(|o| o.stats),
                got.as_ref().map(|o| &o.stats)
            ),
        }
        got
    }
}

/// What a sequence saw, for the scenario's own checks.
#[derive(Default)]
struct Tally {
    failed: usize,
    /// Successful ECOs right after a failed one.
    recovered: usize,
    quarantined: usize,
    surrogate_hits: usize,
    windows: usize,
    cache_hits: usize,
    /// Gates the script added for sharing a tagged gate's context.
    shared: usize,
    /// What-ifs checked against a fresh evaluation.
    whatifs: usize,
}

/// A what-if edit of `annotation`: 1–3 nm added to every channel length
/// of one seeded annotated gate.
fn what_if_edit(annotation: &CdAnnotation, rng: &mut StdRng) -> CdAnnotation {
    let mut gates: Vec<GateId> = annotation.gates().map(|(&g, _)| g).collect();
    gates.sort_unstable();
    let mut next = annotation.clone();
    let gate = gates[rng.random_range(0..gates.len())];
    let delta = rng.random_range(1.0..3.0);
    let mut edited = annotation.gate(gate).expect("annotated").clone();
    for t in &mut edited.transistors {
        t.l_delay_nm += delta;
        t.l_leakage_nm += delta;
    }
    next.set_gate(gate, edited);
    next
}

fn run(scenario: &Scenario, policy: FaultPolicy, injection: Option<FaultInjection>) -> Tally {
    let design = &scenario.design;
    let mut cfg = FlowConfig::standard(margin_clock(design, 0.1).expect("clock"));
    cfg.selection = Selection::Critical {
        paths: scenario.paths,
    };
    cfg.extraction = scenario.extraction.clone();
    let model = TimingModel::new(design, cfg.process.clone(), cfg.clock_ps).expect("model");
    let open = open_tags(&model, scenario.paths);
    // The poison gates: those the schedule hits, which the open must spare.
    let poison: Vec<GateId> = match injection {
        Some(inj) => {
            assert!(
                open.iter().all(|g| inj.fault_for(g).is_none()),
                "{}: the schedule hits the open tags",
                scenario.name
            );
            TagSet::all(design)
                .sorted()
                .into_iter()
                .filter(|&g| inj.fault_for(g).is_some())
                .collect()
        }
        None => Vec::new(),
    };
    cfg.extraction.fault_policy = policy;
    cfg.extraction.fault_injection = injection;
    let mut script = Script::new(scenario, poison);
    let mut live = TimingSession::new(&model, &cfg).expect("session");
    let compiled = model.compile().expect("compile");
    let mut scratch = compiled.scratch();
    compiled
        .evaluate(&mut scratch, Some(live.annotation()))
        .expect("baseline");
    let mut reference = Reference {
        compiled,
        scratch,
        content_hash: content_hash(design, &cfg),
    };
    let mut restored: Option<TimingSession<'_>> = None;
    let mut tally = Tally::default();
    let mut last_failed = false;
    let mut edits = StdRng::seed_from_u64(scenario.seed ^ 0x5eed);
    for step in 0..STEPS {
        let poison = scenario
            .poison_steps
            .iter()
            .find(|(s, _)| *s == step)
            .map_or(0, |&(_, n)| n);
        let (tags, edit) = script.next(live.tags(), poison);
        let what = format!("{} step {step} ({edit})", scenario.name);
        let got = reference.step(design, &cfg, &mut live, &tags, &what);
        if let Some(twin) = restored.as_mut() {
            assert_eq!(twin.apply_eco(&tags), got, "{what}: the restored session");
            assert!(
                twin.artifact().to_bytes() == live.artifact().to_bytes(),
                "{what}: the restored session's warm state"
            );
        }
        match &got {
            Ok(eco) => {
                tally.recovered += usize::from(last_failed);
                tally.quarantined += eco.stats.gates_quarantined;
                tally.surrogate_hits += eco.stats.surrogate_hits;
                tally.windows += eco.stats.windows;
                tally.cache_hits += eco.stats.cache_hits;
            }
            Err(_) => tally.failed += 1,
        }
        last_failed = got.is_err();
        tally.shared = script.shared;
        for w in 0..scenario.whatifs {
            let edit = what_if_edit(live.annotation(), &mut edits);
            let what = format!("{what}, what-if {w}");
            reference.what_if(&mut live, restored.as_mut(), edit, &what);
            tally.whatifs += 1;
        }
        if step + 1 == STEPS / 2 {
            let bytes = live.artifact().to_bytes();
            let artifact = WarmArtifact::from_bytes(&bytes).expect("artifact");
            restored = Some(TimingSession::restore(&model, &cfg, artifact).expect("restore"));
        }
    }
    tally
}

/// The tags a session opens on: the gates of the top `paths` drawn
/// paths.
fn open_tags(model: &TimingModel<'_>, paths: usize) -> TagSet {
    let drawn = model.analyze(None).expect("drawn timing");
    TagSet::from_critical_paths(model.design(), &drawn, paths)
}

/// The first injection of `kind` whose schedule spares the open tags of
/// `scenario` and hits at least `hits` other gates.
fn sparing(
    scenario: &Scenario,
    rate: f64,
    hits: usize,
    kind: fn(FaultInjection) -> FaultInjection,
) -> FaultInjection {
    let design = &scenario.design;
    let clock = margin_clock(design, 0.1).expect("clock");
    let cfg = FlowConfig::standard(clock);
    let model = TimingModel::new(design, cfg.process.clone(), cfg.clock_ps).expect("model");
    let open = open_tags(&model, scenario.paths);
    let all = TagSet::all(design).sorted();
    (0..1000u64)
        .map(|seed| kind(FaultInjection::all(seed, rate)))
        .find(|inj| {
            open.iter().all(|g| inj.fault_for(g).is_none())
                && all.iter().filter(|&&g| inj.fault_for(g).is_some()).count() >= hits
        })
        .expect("a schedule spares the open tags")
}

#[test]
fn random_eco_sequences_on_one_thread_with_the_cache_equal_the_extract_step() {
    let scenario = Scenario {
        name: "rand:160, 1 thread",
        design: rand_design(160, 3),
        paths: 2,
        extraction: rule(1),
        edit: 4,
        poison_steps: Vec::new(),
        whatifs: 0,
        seed: 101,
    };
    let tally = run(&scenario, FaultPolicy::Fail, None);
    assert_eq!(tally.failed, 0);
    assert!(tally.windows > 0, "the sequence images new contexts");
    assert!(tally.shared > 0, "no gate was added for sharing a context");
    assert!(tally.cache_hits > 0, "the sequence shares contexts");
}

#[test]
fn random_eco_sequences_on_two_threads_without_the_cache_equal_the_extract_step() {
    let mut extraction = rule(2);
    extraction.cache = false;
    let scenario = Scenario {
        name: "farm:6x12, 2 threads, no cache",
        design: farm_design(6, 12),
        paths: 2,
        extraction,
        edit: 4,
        poison_steps: Vec::new(),
        whatifs: 0,
        seed: 202,
    };
    let tally = run(&scenario, FaultPolicy::Fail, None);
    assert_eq!(tally.failed, 0);
    assert_eq!(tally.cache_hits, 0, "no cache, no in-run reuse");
}

#[test]
fn random_eco_sequences_with_the_surrogate_equal_the_extract_step() {
    // The open predicts contexts, which never enter the store, so every
    // ECO keys their gates again: its novel batch outgrows the
    // surrogate's 32-context warm-up and it predicts contexts too.
    let mut extraction = rule(2);
    extraction.surrogate = SurrogateConfig::standard();
    let scenario = Scenario {
        name: "farm:20x24, surrogate",
        design: farm_design(20, 24),
        paths: 10,
        extraction,
        edit: 12,
        poison_steps: Vec::new(),
        whatifs: 0,
        seed: 303,
    };
    let tally = run(&scenario, FaultPolicy::Fail, None);
    assert_eq!(tally.failed, 0);
    assert!(tally.surrogate_hits > 0, "no ECO predicted a context");
}

#[test]
fn random_eco_sequences_under_quarantine_with_injected_nans_equal_the_extract_step() {
    // One faulting gate fits the 10 % budget; ten overrun it after the
    // pass has stored its new contexts, which the rollback must take out.
    let scenario = Scenario {
        name: "farm:6x12, quarantine, NaN",
        design: farm_design(6, 12),
        paths: 2,
        extraction: rule(2),
        edit: 3,
        poison_steps: vec![(2, 1), (5, 10), (8, 1)],
        whatifs: 0,
        seed: 404,
    };
    let injection = sparing(&scenario, 0.2, 12, |inj| FaultInjection {
        degenerate_geometry: false,
        worker_panic: false,
        ..inj
    });
    let policy = FaultPolicy::Quarantine { max_fraction: 0.1 };
    let tally = run(&scenario, policy, Some(injection));
    assert!(tally.quarantined > 0, "no faulting gate was quarantined");
    assert!(tally.failed > 0, "no step overran the quarantine budget");
    assert!(tally.recovered > 0, "no ECO followed a failed one");
}

#[test]
fn random_eco_sequences_with_an_injected_panic_equal_the_extract_step() {
    let scenario = Scenario {
        name: "rand:160, 2 threads, panic",
        design: rand_design(160, 9),
        paths: 2,
        extraction: rule(2),
        edit: 4,
        poison_steps: vec![(3, 1), (7, 2)],
        whatifs: 0,
        seed: 505,
    };
    let injection = sparing(&scenario, 0.05, 3, |inj| FaultInjection {
        nan_cd: false,
        degenerate_geometry: false,
        ..inj
    });
    let tally = run(&scenario, FaultPolicy::Fail, Some(injection));
    assert!(tally.failed >= 2, "the faulting gates must fail their ECOs");
    assert!(tally.recovered > 0, "no ECO followed a failed one");
}

/// ECOs on a registered farm with what-ifs between them, on `threads`
/// workers.
fn regfarm_sequence(threads: usize, seed: u64) {
    let scenario = Scenario {
        name: "regfarm:8x10",
        design: regfarm_design(8, 10),
        paths: 2,
        extraction: rule(threads),
        edit: 4,
        poison_steps: Vec::new(),
        whatifs: 3,
        seed,
    };
    let tally = run(&scenario, FaultPolicy::Fail, None);
    assert_eq!(tally.failed, 0);
    assert!(tally.windows > 0, "the sequence images new contexts");
    assert_eq!(tally.whatifs, 3 * STEPS);
}

#[test]
fn random_eco_sequences_on_a_registered_farm_with_what_ifs_on_one_thread() {
    regfarm_sequence(1, 606);
}

#[test]
fn random_eco_sequences_on_a_registered_farm_with_what_ifs_on_two_threads() {
    regfarm_sequence(2, 707);
}
