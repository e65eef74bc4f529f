//! Reference-implementation tests: the compiled evaluator must be
//! **bit-identical** to the naive `TimingModel::analyze` path — drawn,
//! corner, annotated (gates and nets), and Monte Carlo-sampled CDs all
//! produce exactly equal reports (arrivals, requireds, delays, endpoint
//! slacks, leakage), and an annotation naming an unknown gate or net is
//! the same typed error from every engine. `TimingReport` derives
//! `PartialEq` over every field, so one `assert_eq!` covers the whole
//! report.

use postopc_device::ProcessParams;
use postopc_layout::{generate, Design, GateId, NetId, TechRules};
use postopc_rng::{rngs::StdRng, RngExt, SeedableRng};
use postopc_sta::{
    analyze_corners, corner_annotation, corners, statistical, CdAnnotation, Corner, GateAnnotation,
    MonteCarloConfig, NetAnnotation, StaError, TimingModel, PRIMARY_INPUT_SLEW_PS,
};

fn rca_design() -> Design {
    Design::compile(
        generate::ripple_carry_adder(4).expect("netlist"),
        TechRules::n90(),
    )
    .expect("design")
}

fn random_design(seed: u64) -> Design {
    Design::compile(
        generate::random_logic(&generate::RandomLogicSpec {
            gates: 60,
            inputs: 8,
            depth_bias: 1.5,
            seed,
        })
        .expect("netlist"),
        TechRules::n90(),
    )
    .expect("design")
}

/// A registered design so sequential endpoints (register D required
/// times, clock-launched arrivals) are covered too.
fn registered_design() -> Design {
    Design::compile(
        generate::registered_farm(4, 6, 3).expect("netlist"),
        TechRules::n90(),
    )
    .expect("design")
}

#[test]
fn drawn_reports_are_bit_identical() {
    for design in [rca_design(), random_design(7), registered_design()] {
        let model = TimingModel::new(&design, ProcessParams::n90(), 900.0).expect("model");
        let naive = model.analyze(None).expect("naive");
        let compiled = model.compile().expect("compile");
        let report = compiled
            .evaluate(&mut compiled.scratch(), None)
            .expect("compiled");
        assert_eq!(naive, report);
    }
}

#[test]
fn corner_reports_are_bit_identical() {
    // The classic set plus a fractional shift, on designs whose cells
    // collapse differently; the registered design puts DFF setup and
    // clock-to-Q arcs through the per-cell shift path too.
    let mut set = Corner::classic_set(6.0);
    set.push(Corner {
        name: "SS-2.75".into(),
        delta_l_nm: 2.75,
    });
    for design in [
        rca_design(),
        random_design(7),
        random_design(31),
        registered_design(),
    ] {
        let model = TimingModel::new(&design, ProcessParams::n90(), 900.0).expect("model");
        let naive: Vec<_> = set
            .iter()
            .map(|corner| {
                let ann = corner_annotation(&model, corner.delta_l_nm);
                model.analyze(Some(&ann)).expect("naive")
            })
            .collect();
        for (corner, naive) in set.iter().zip(&naive) {
            let through_api = corners::analyze_corner(&model, corner).expect("corner");
            assert_eq!(naive, &through_api, "corner {}", corner.name);
        }
        // The batched entry point shares one scratch across corners; a
        // dirty scratch must not leak between evaluations.
        let batch = analyze_corners(&model, &set).expect("batch");
        assert_eq!(naive, batch);
    }
}

#[test]
fn annotated_reports_are_bit_identical_including_nets() {
    let design = random_design(19);
    let model = TimingModel::new(&design, ProcessParams::n90(), 900.0).expect("model");
    // Mixed annotation: random subset of gates with random CDs, plus
    // printed widths on the routed nets — the F8 multi-layer shape.
    let mut rng = StdRng::seed_from_u64(99);
    let mut ann = CdAnnotation::new();
    for (gi, g) in design.netlist().gates().iter().enumerate() {
        if rng.random_range(0.0..1.0) < 0.5 {
            continue;
        }
        let mut records = model.library().drawn_transistors(g.kind, g.drive).to_vec();
        for r in &mut records {
            let delta: f64 = rng.random_range(-6.0..6.0);
            r.l_delay_nm = (r.l_delay_nm + delta).max(40.0);
            r.l_leakage_nm = (r.l_leakage_nm + delta).max(40.0);
        }
        ann.set_gate(
            GateId(gi as u32),
            GateAnnotation {
                transistors: records,
            },
        );
    }
    let m1_width = design.tech().m1_width as f64;
    for ni in 0..design.netlist().nets().len() {
        let net = NetId(ni as u32);
        let routed = design
            .routing()
            .route_of(net)
            .map(|r| r.length_nm >= 1.0)
            .unwrap_or(false);
        if routed && rng.random_range(0.0..1.0) < 0.5 {
            ann.set_net(
                net,
                NetAnnotation {
                    printed_width_nm: m1_width * rng.random_range(0.8..1.2),
                },
            );
        }
    }
    assert!(ann.net_count() > 0, "test must exercise net annotations");
    let naive = model.analyze(Some(&ann)).expect("naive");
    let compiled = model.compile().expect("compile");
    let mut scratch = compiled.scratch();
    let report = compiled
        .evaluate(&mut scratch, Some(&ann))
        .expect("compiled");
    assert_eq!(naive, report);
    // Same scratch, second annotation — still exact.
    let report2 = compiled.evaluate(&mut scratch, Some(&ann)).expect("again");
    assert_eq!(naive, report2);
    // A gate or net outside the design: naive, full and incremental
    // evaluation return the same typed error and leave the scratch as it
    // was, so the incremental engine still agrees with the full one.
    let gates = design.netlist().gate_count();
    let mut bad_gate = ann.clone();
    bad_gate.set_gate(GateId(gates as u32 + 5), GateAnnotation::default());
    let mut bad_net = ann.clone();
    bad_net.set_net(
        NetId(10_000),
        NetAnnotation {
            printed_width_nm: m1_width,
        },
    );
    for (bad, kind, index) in [(bad_gate, "gate", gates + 5), (bad_net, "net", 10_000)] {
        let expected = Err(StaError::UnknownAnnotation { kind, index });
        assert_eq!(model.analyze(Some(&bad)), expected);
        assert_eq!(compiled.evaluate(&mut scratch, Some(&bad)), expected);
        assert_eq!(
            compiled.evaluate_eco(&mut scratch, Some(&ann), Some(&bad)),
            expected
        );
    }
    let eco = compiled
        .evaluate_eco(&mut scratch, Some(&ann), Some(&ann))
        .expect("eco after rejected edits");
    assert_eq!(naive, eco);
}

#[test]
fn shared_compile_matches_per_call_apis() {
    // One CompiledSta + scratch serving drawn, corner-sweep and Monte
    // Carlo analyses (the flow/guardband shape) must reproduce each
    // standalone API bit for bit, however dirty the shared scratch is.
    let design = registered_design();
    let model = TimingModel::new(&design, ProcessParams::n90(), 900.0).expect("model");
    let compiled = model.compile().expect("compile");
    let mut scratch = compiled.scratch();
    let drawn_shared = compiled.evaluate(&mut scratch, None).expect("drawn");
    assert_eq!(drawn_shared, model.analyze(None).expect("naive drawn"));
    let set = Corner::classic_set(5.0);
    let shared = corners::analyze_corners_with(&compiled, &mut scratch, &set).expect("shared");
    assert_eq!(shared, analyze_corners(&model, &set).expect("standalone"));
    let cfg = MonteCarloConfig {
        samples: 12,
        sigma_nm: 1.0,
        seed: 3,
        ..MonteCarloConfig::default()
    };
    let mc_shared = statistical::run_with(&compiled, None, &cfg).expect("shared mc");
    assert_eq!(mc_shared, statistical::run(&model, None, &cfg).expect("mc"));
    // And the scratch is still clean for another drawn pass.
    assert_eq!(
        compiled.evaluate(&mut scratch, None).expect("drawn again"),
        drawn_shared
    );
}

#[test]
fn slew_propagation_is_bit_identical_and_meaningful() {
    // The 2-D NLDM model makes every report carry per-net slews; both
    // engines must agree on them bit for bit (covered by report equality
    // above, re-asserted here per net), and the propagation must actually
    // do something: driven nets carry their driver's table slew, undriven
    // nets the primary-input default.
    for design in [rca_design(), random_design(23), registered_design()] {
        let model = TimingModel::new(&design, ProcessParams::n90(), 900.0).expect("model");
        let ann = corner_annotation(&model, 2.0);
        let naive = model.analyze(Some(&ann)).expect("naive");
        let compiled = model.compile().expect("compile");
        let report = compiled
            .evaluate(&mut compiled.scratch(), Some(&ann))
            .expect("compiled");
        let netlist = design.netlist();
        let mut driven_differs = 0usize;
        for ni in 0..netlist.nets().len() {
            let net = NetId(ni as u32);
            assert_eq!(
                naive.slew_ps(net).to_bits(),
                report.slew_ps(net).to_bits(),
                "slew of net {ni}"
            );
            assert!(naive.slew_ps(net) > 0.0);
            match netlist.driver(net) {
                Some(_) => {
                    if naive.slew_ps(net) != PRIMARY_INPUT_SLEW_PS {
                        driven_differs += 1;
                    }
                }
                None => assert_eq!(naive.slew_ps(net), PRIMARY_INPUT_SLEW_PS),
            }
        }
        assert!(
            driven_differs > 0,
            "slew propagation left every driven net at the default"
        );
    }
}

#[test]
fn monte_carlo_engines_are_bit_identical() {
    for design in [rca_design(), registered_design()] {
        let model = TimingModel::new(&design, ProcessParams::n90(), 900.0).expect("model");
        // Systematic annotation: every gate uniformly shifted, as the T6
        // extracted-systematics flow produces.
        let systematic = corner_annotation(&model, -1.5);
        for systematic in [None, Some(&systematic)] {
            let cfg = MonteCarloConfig {
                samples: 25,
                sigma_nm: 1.5,
                seed: 17,
                ..MonteCarloConfig::default()
            };
            let compiled = statistical::run(&model, systematic, &cfg).expect("compiled mc");
            let naive = statistical::run_reference(&model, systematic, &cfg).expect("naive mc");
            assert_eq!(compiled, naive);
            // Exact bits, spelled out: not approximately equal — equal.
            for (a, b) in compiled
                .worst_slacks_ps()
                .iter()
                .zip(naive.worst_slacks_ps())
            {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
