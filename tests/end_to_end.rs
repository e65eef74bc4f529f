//! End-to-end integration tests: the complete DAC 2005 flow across every
//! crate of the workspace.

use postopc::{run_flow, FlowConfig, OpcMode, Selection};
use postopc_device::ProcessParams;
use postopc_layout::{generate, Design, TechRules};
use postopc_sta::TimingModel;

fn compiled(bits: usize) -> Design {
    Design::compile(
        generate::ripple_carry_adder(bits).expect("netlist"),
        TechRules::n90(),
    )
    .expect("design")
}

fn fast_config(clock_ps: f64) -> FlowConfig {
    let mut cfg = FlowConfig::standard(clock_ps);
    cfg.extraction.opc_mode = OpcMode::Rule;
    cfg.report_paths = 5;
    cfg.selection = Selection::Critical { paths: 3 };
    cfg
}

#[test]
fn flow_produces_consistent_timing_views() {
    let design = compiled(2);
    let report = run_flow(&design, &fast_config(800.0)).expect("flow");
    let cmp = &report.comparison;
    // Both views agree on structure: same endpoints, finite slacks.
    assert_eq!(
        cmp.drawn.endpoint_slacks().len(),
        cmp.annotated.endpoint_slacks().len()
    );
    for &(net, slack) in cmp.drawn.endpoint_slacks() {
        assert!(slack.is_finite());
        assert!(cmp.annotated.slack_ps(net).is_finite());
    }
    // Worst slack is the minimum endpoint slack in both views.
    let min_drawn = cmp
        .drawn
        .endpoint_slacks()
        .iter()
        .map(|&(_, s)| s)
        .fold(f64::INFINITY, f64::min);
    assert!((min_drawn - cmp.drawn.worst_slack_ps()).abs() < 1e-9);
}

#[test]
fn silicon_timing_differs_from_drawn_but_is_physical() {
    let design = compiled(2);
    let report = run_flow(&design, &fast_config(800.0)).expect("flow");
    let cmp = &report.comparison;
    // Annotated timing differs (extraction found real CDs)...
    assert_ne!(
        cmp.drawn.critical_delay_ps(),
        cmp.annotated.critical_delay_ps()
    );
    // ...but within a physical envelope: printed CDs are within a few nm
    // of drawn, so delay shifts stay under 25%.
    let shift = cmp.critical_delay_shift_fraction().abs();
    assert!(shift < 0.25, "delay shift {shift} is unphysically large");
    // Leakage stays positive and within a decade.
    let leak_ratio = cmp.annotated.leakage_ua() / cmp.drawn.leakage_ua();
    assert!(
        (0.1..10.0).contains(&leak_ratio),
        "leakage ratio {leak_ratio}"
    );
}

#[test]
fn annotation_covers_exactly_the_tagged_gates() {
    let design = compiled(3);
    let report = run_flow(&design, &fast_config(900.0)).expect("flow");
    assert_eq!(
        report.annotation.gate_count(),
        report.extraction.gates_extracted
    );
    for gate in report.tags.sorted() {
        assert!(
            report.annotation.gate(gate).is_some() || report.extraction.gates_failed > 0,
            "tagged gate {gate:?} lost by the flow"
        );
    }
    // Every annotated transistor has physical dimensions.
    for (_, ann) in report.annotation.gates() {
        for t in &ann.transistors {
            assert!(t.l_delay_nm > 40.0 && t.l_delay_nm < 180.0);
            assert!(t.l_leakage_nm > 40.0 && t.l_leakage_nm <= t.l_delay_nm + 5.0);
            assert!(t.width_nm > 0.0);
        }
    }
}

#[test]
fn full_flow_is_deterministic() {
    let design = compiled(2);
    let a = run_flow(&design, &fast_config(800.0)).expect("flow");
    let b = run_flow(&design, &fast_config(800.0)).expect("flow");
    assert_eq!(a.annotation, b.annotation);
    assert_eq!(
        a.comparison.drawn.worst_slack_ps(),
        b.comparison.drawn.worst_slack_ps()
    );
    assert_eq!(
        a.comparison.annotated.worst_slack_ps(),
        b.comparison.annotated.worst_slack_ps()
    );
}

#[test]
fn multilayer_flow_shifts_timing_beyond_poly_only() {
    let design = Design::compile(
        generate::inverter_chain(40).expect("netlist"),
        TechRules::n90(),
    )
    .expect("design");
    let probe = TimingModel::new(&design, ProcessParams::n90(), 1e6).expect("model");
    let clock = probe.analyze(None).expect("drawn").critical_delay_ps() * 1.1;
    let mut poly_cfg = fast_config(clock);
    poly_cfg.selection = Selection::Critical { paths: 1 };
    let poly = run_flow(&design, &poly_cfg).expect("flow");
    let mut multi_cfg = poly_cfg.clone();
    multi_cfg.wires = true;
    let multi = run_flow(&design, &multi_cfg).expect("flow");
    let stats = multi.wire_stats.expect("wire step ran");
    assert!(stats.segments_measured > 0);
    // Wire annotation must not corrupt gate annotation.
    assert_eq!(poly.annotation.gate_count(), multi.annotation.gate_count());
    if stats.nets_annotated > 0 {
        assert_ne!(
            poly.comparison.annotated.critical_delay_ps(),
            multi.comparison.annotated.critical_delay_ps(),
            "wire widths extracted but timing unchanged"
        );
    }
}

#[test]
fn clock_scaling_shifts_slack_not_delay() {
    let design = compiled(2);
    let fast = run_flow(&design, &fast_config(700.0)).expect("flow");
    let slow = run_flow(&design, &fast_config(900.0)).expect("flow");
    // Delay is clock-independent; slack shifts by exactly the difference.
    assert!(
        (fast.comparison.drawn.critical_delay_ps() - slow.comparison.drawn.critical_delay_ps())
            .abs()
            < 1e-9
    );
    assert!(
        ((slow.comparison.drawn.worst_slack_ps() - fast.comparison.drawn.worst_slack_ps()) - 200.0)
            .abs()
            < 1e-9
    );
}
