//! One function per table/figure of the evaluation (see the experiment
//! index in `DESIGN.md`). Every function returns the rendered report text
//! and is deterministic apart from T9's wall-clock medians.

use postopc::report::render_table;
use postopc::{
    extract_gates, margin_clock, run_flow, ExtractionConfig, ExtractionOutcome, FlowConfig,
    FlowReport, OpcMode, Selection, TagSet,
};
use postopc_cdex::CdStatistics;
use postopc_device::ProcessParams;
use postopc_layout::Design;
use postopc_litho::ProcessConditions;
use postopc_sta::{analyze_corners_with, statistical, Corner, MonteCarloConfig, TimingModel};

/// A timing model with the clock 10% above the drawn critical delay.
fn model_with_margin(design: &Design) -> TimingModel<'_> {
    let clock = margin_clock(design, 0.10).expect("drawn timing");
    TimingModel::new(design, ProcessParams::n90(), clock).expect("timing model")
}

/// [`run_flow`] at a clock 10% above the drawn critical delay, tagging
/// the gates of the top `paths` drawn speed paths and comparing the top
/// `report_paths`, with the multi-layer step when `wires` is set.
fn paper_flow(
    design: &Design,
    paths: usize,
    report_paths: usize,
    extraction: ExtractionConfig,
    wires: bool,
) -> FlowReport {
    let mut config = FlowConfig::standard(margin_clock(design, 0.10).expect("drawn timing"));
    config.selection = Selection::Critical { paths };
    config.report_paths = report_paths;
    config.extraction = extraction;
    config.wires = wires;
    run_flow(design, &config).expect("flow")
}

/// Extraction config with a bounded model-OPC iteration count (the
/// benchmark default trades a little convergence for wall time).
fn config(mode: OpcMode) -> ExtractionConfig {
    let mut cfg = ExtractionConfig::standard();
    cfg.opc_mode = mode;
    cfg.model_opc.iterations = 4;
    cfg
}

/// "Silicon-calibrated" extraction: masks are rule-OPC-corrected at nominal,
/// but the wafer is imaged at slightly off-nominal conditions (every real
/// lot is) — this is what makes extracted CDs *context-dependently*
/// different from drawn, the driver of criticality reordering.
fn silicon_config() -> ExtractionConfig {
    let mut cfg = config(OpcMode::Rule).with_conditions(ProcessConditions {
        focus_nm: 40.0,
        dose: 1.01,
    });
    cfg.across_chip = true;
    cfg
}

fn delta_l(out: &ExtractionOutcome) -> Vec<f64> {
    out.stats
        .extracted
        .iter()
        .map(|e| e.equivalent.l_delay_nm - e.site.drawn_l_nm)
        .collect()
}

fn rms(v: &[f64]) -> f64 {
    (v.iter().map(|x| x * x).sum::<f64>() / v.len().max(1) as f64).sqrt()
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn max_abs(v: &[f64]) -> f64 {
    v.iter().map(|x| x.abs()).fold(0.0, f64::max)
}

/// **T1 — residual OPC error.** Full-contour residual EPE (ORC) and
/// printed channel-CD deviation under no OPC, rule OPC and model OPC.
///
/// Rule OPC nails the 1-D channel regime its bias table was calibrated
/// on; the full-contour statistics (line ends, contact pads, corners)
/// show the model-based ordering the paper relies on.
pub fn t1() -> String {
    use postopc_geom::Polygon;
    use postopc_layout::{CellLibrary, Drive, GateKind, Layer, TechRules};
    use postopc_litho::{ResistModel, SimulationSpec};
    use postopc_opc::{orc, rules, selective, ModelOpcConfig, OrcConfig, RuleOpcConfig};

    // A realistic pattern: a NAND3 cell's poly with a neighbouring
    // inverter's poly as context.
    let lib = CellLibrary::new(TechRules::n90()).expect("library");
    let nand = lib.cell(GateKind::Nand3, Drive::X1);
    let inv = lib.cell(GateKind::Inv, Drive::X1);
    let targets: Vec<Polygon> = nand.shapes_on(Layer::Poly).cloned().collect();
    let context: Vec<Polygon> = inv
        .shapes_on(Layer::Poly)
        .map(|p| p.translate(postopc_geom::Vector::new(nand.width(), 0)))
        .collect();
    let window = targets
        .iter()
        .chain(context.iter())
        .map(|p| p.bbox())
        .reduce(|a, b| a.union_bbox(&b))
        .expect("non-empty")
        .expand(120)
        .expect("expand");

    let sim = SimulationSpec::nominal();
    let resist = ResistModel::standard();
    let orc_cfg = OrcConfig::standard();
    let verify = |mask: &[Polygon], ctx: &[Polygon]| {
        orc::verify(&orc_cfg, &sim, &resist, &targets, mask, ctx, window).expect("orc")
    };

    let none_report = verify(&targets, &context);
    let (model_cfg, rule_cfg) = (ModelOpcConfig::standard(), RuleOpcConfig::standard());
    let rule = rules::correct(&rule_cfg, &targets, &context).expect("rule");
    // Extraction's model recipe: model OPC against rule-corrected context.
    let model =
        selective::correct(&model_cfg, &rule_cfg, &targets, &context, window).expect("model");
    let rule_report = verify(&rule.corrected, &model.corrected_untagged);
    let model_report = verify(&model.corrected_tagged, &model.corrected_untagged);

    let mut rows = Vec::new();
    for (name, report) in [
        ("none", &none_report),
        ("rule", &rule_report),
        ("model", &model_report),
    ] {
        rows.push(vec![
            name.to_string(),
            format!("{}", report.epes.len()),
            format!("{:+.2}", report.mean_epe),
            format!("{:.2}", report.rms_epe),
            format!("{:.2}", report.max_abs_epe),
            format!("{}", report.hotspots.len()),
        ]);
    }
    let mut out = render_table(
        "T1a: full-contour residual EPE vs OPC recipe (NAND3 poly + context)",
        &[
            "opc",
            "fragments",
            "mean EPE (nm)",
            "rms EPE (nm)",
            "max |EPE| (nm)",
            "hotspots",
        ],
        &rows,
    );
    // Channel-CD view over a real placed block.
    let design = Design::compile(
        postopc_layout::generate::ripple_carry_adder(2).expect("netlist"),
        postopc_layout::TechRules::n90(),
    )
    .expect("design");
    let tags = TagSet::all(&design);
    let mut cd_rows = Vec::new();
    for (name, mode) in [
        ("none", OpcMode::None),
        ("rule", OpcMode::Rule),
        ("model", OpcMode::Model),
    ] {
        let ext = extract_gates(&design, &config(mode), &tags).expect("extraction");
        let d = delta_l(&ext);
        cd_rows.push(vec![
            name.to_string(),
            format!("{:+.2}", mean(&d)),
            format!("{:.2}", rms(&d)),
            format!("{:.2}", max_abs(&d)),
        ]);
    }
    out.push_str(&render_table(
        "T1b: printed channel-CD deviation (18-gate adder block)",
        &["opc", "mean dL (nm)", "rms dL (nm)", "max |dL| (nm)"],
        &cd_rows,
    ));
    out.push_str(&format!(
        "shape check: contour EPE model ({:.2}) < rule ({:.2}) < none ({:.2}); \
         both OPC flavours beat no-OPC channel CDs -> {}\n",
        model_report.rms_epe,
        rule_report.rms_epe,
        none_report.rms_epe,
        if model_report.rms_epe < rule_report.rms_epe && rule_report.rms_epe < none_report.rms_epe {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    ));
    out
}

/// **T2 — post-OPC gate-CD distribution.** Drawn CDs are one value; the
/// extracted population has context-dependent spread.
pub fn t2() -> String {
    let design = crate::random_design(150, 3);
    let tags = TagSet::all(&design);
    let out = extract_gates(&design, &config(OpcMode::Model), &tags).expect("extraction");
    let stats = CdStatistics::of(&out.stats.extracted).expect("non-empty population");
    let hist = CdStatistics::histogram(&out.stats.extracted, 1.0);
    let mut rows = vec![vec![
        format!("{}", stats.count),
        format!("{:.2}", stats.mean_nm),
        format!("{:.2}", stats.std_nm),
        format!("{:.2}", stats.min_nm),
        format!("{:.2}", stats.max_nm),
    ]];
    let mut text = render_table(
        "T2: post-OPC delay-equivalent gate-CD distribution (150-gate block, drawn L = 90 nm)",
        &[
            "channels",
            "mean (nm)",
            "sigma (nm)",
            "min (nm)",
            "max (nm)",
        ],
        &std::mem::take(&mut rows),
    );
    let hist_rows: Vec<Vec<String>> = hist
        .iter()
        .map(|&(center, count)| {
            vec![
                format!("{center:.1}"),
                format!("{count}"),
                "#".repeat((count * 60 / stats.count.max(1)).max(usize::from(count > 0))),
            ]
        })
        .collect();
    text.push_str(&render_table(
        "histogram (1 nm bins)",
        &["L (nm)", "count", ""],
        &hist_rows,
    ));
    text.push_str(&format!(
        "shape check: non-zero spread with systematic offset -> {}\n",
        if stats.std_nm > 0.3 && (stats.mean_nm - 90.0).abs() < 15.0 {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    ));
    text
}

/// **F3 + T4 — speed-path criticality reordering and worst-slack
/// deviation.** The paper's headline results, on the composite test case.
pub fn f3_t4() -> (String, String) {
    // 20 near-identical speed paths in diverse placement contexts: the
    // "slack wall" of a timing-optimized design.
    let design = crate::farm_design(20, 24, 11);
    // Tag generously so every candidate path is annotated.
    let flow = paper_flow(&design, 40, 20, silicon_config(), false);
    let comparison = &flow.comparison;
    let f3 = {
        let mut text = postopc::report::render_path_comparison(&design, comparison);
        text.insert_str(
            0,
            &format!(
                "F3: {} gates tagged ({}% of design), {} extracted\n",
                flow.tags.len(),
                (100.0 * flow.tags.coverage(&design)).round(),
                flow.extraction.gates_extracted
            ),
        );
        text.push_str(&format!(
            "shape check: tau < 0.9 or displacement > 1 -> {}\n",
            if comparison.kendall_tau() < 0.9 || comparison.mean_rank_displacement() > 1.0 {
                "HOLDS"
            } else {
                "VIOLATED"
            }
        ));
        text
    };
    let t4 = {
        let rows = vec![vec![
            format!("{:.1}", comparison.drawn.worst_slack_ps()),
            format!("{:.1}", comparison.annotated.worst_slack_ps()),
            format!("{:.1}%", 100.0 * comparison.worst_slack_shift_fraction()),
            format!(
                "{:+.2}%",
                100.0 * comparison.critical_delay_shift_fraction()
            ),
            format!("{:+.1}%", 100.0 * comparison.leakage_shift_fraction()),
        ]];
        let mut text = render_table(
            "T4: worst-case slack, drawn vs post-OPC annotated (paper: 36.4% shift)",
            &[
                "drawn ws (ps)",
                "annotated ws (ps)",
                "|ws shift|",
                "delay shift",
                "leakage shift",
            ],
            &rows,
        );
        text.push_str(&format!(
            "shape check: worst-slack deviation in the tens of percent -> {}\n",
            if comparison.worst_slack_shift_fraction() > 0.10 {
                "HOLDS"
            } else {
                "VIOLATED"
            }
        ));
        text
    };
    (f3, t4)
}

/// **F5 — process-window timing.** Critical-path delay across the
/// focus-exposure matrix (extraction per condition, rule-OPC masks).
pub fn f5() -> String {
    let design = crate::evaluation_design(11);
    let model = model_with_margin(&design);
    let drawn = model.analyze(None).expect("drawn timing");
    let tags = TagSet::from_critical_paths(&design, &drawn, 3);
    let focus_values = [-150.0, -75.0, 0.0, 75.0, 150.0];
    let dose_values = [0.94, 1.0, 1.06];
    let mut rows = Vec::new();
    let mut nominal_delay = 0.0;
    let mut max_delay: f64 = 0.0;
    for &dose in &dose_values {
        let mut row = vec![format!("{dose:.2}")];
        for &focus_nm in &focus_values {
            let cfg = config(OpcMode::Rule).with_conditions(ProcessConditions { focus_nm, dose });
            let out = extract_gates(&design, &cfg, &tags).expect("extraction");
            let report = model.analyze(Some(&out.annotation)).expect("timing");
            let delay = report.critical_delay_ps();
            if dose == 1.0 && focus_nm == 0.0 {
                nominal_delay = delay;
            }
            max_delay = max_delay.max(delay);
            row.push(format!("{delay:.1}"));
        }
        rows.push(row);
    }
    let mut headers: Vec<String> = vec!["dose \\ focus (nm)".into()];
    headers.extend(focus_values.iter().map(|f| format!("{f:+.0}")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut text = render_table(
        "F5: critical-path delay (ps) across the focus-exposure matrix",
        &header_refs,
        &rows,
    );
    text.push_str(&format!(
        "nominal delay {nominal_delay:.1} ps, window worst {max_delay:.1} ps ({:+.1}%)\n",
        100.0 * (max_delay - nominal_delay) / nominal_delay
    ));
    text.push_str(&format!(
        "shape check: off-nominal conditions shift delay -> {}\n",
        if (max_delay - nominal_delay).abs() > 0.2 {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    ));
    text
}

/// **T6 — corner pessimism vs extracted-distribution Monte Carlo**, with
/// the batched Monte Carlo engine held bit-identical to the naive oracle
/// at N = 2000 and the tail check of the sampling-accuracy study.
pub fn t6() -> String {
    let design = crate::evaluation_design(11);
    let model = model_with_margin(&design);
    // One compiled evaluator serves the drawn pass, the corner sweep and
    // the batched Monte Carlo run (compile-once-per-flow).
    let compiled = model.compile().expect("compile");
    let mut scratch = compiled.scratch();
    let drawn = compiled.evaluate(&mut scratch, None).expect("drawn timing");
    let tags = TagSet::from_critical_paths(&design, &drawn, 40);
    let out = extract_gates(&design, &config(OpcMode::Rule), &tags).expect("extraction");
    // Traditional corners: uniform ±3σ CD guardband (shared compiled model
    // and scratch; each corner characterizes each distinct cell once).
    let corners = Corner::classic_set(6.0);
    let reports = analyze_corners_with(&compiled, &mut scratch, &corners).expect("corners");
    let (ff, ss) = (&reports[0], &reports[2]);
    // Monte Carlo around the extracted systematic values, engine and
    // oracle on one thread.
    let mc_config = MonteCarloConfig {
        samples: 2000,
        sigma_nm: 1.5,
        seed: 17,
        threads: Some(1),
        ..MonteCarloConfig::default()
    };
    let mc =
        statistical::run_with(&compiled, Some(&out.annotation), &mc_config).expect("monte carlo");
    let naive = statistical::run_reference(&model, Some(&out.annotation), &mc_config)
        .expect("naive monte carlo");
    let batched_identical = mc == naive;
    let q99_delay = model.clock_ps() - mc.worst_slack_quantile_ps(0.01);
    let batched_stats = mc.cache_stats();
    let rows = vec![
        vec![
            "corner SS (+6 nm)".into(),
            format!("{:.1}", ss.critical_delay_ps()),
            format!("{:.1}", ss.worst_slack_ps()),
        ],
        vec![
            "corner FF (-6 nm)".into(),
            format!("{:.1}", ff.critical_delay_ps()),
            format!("{:.1}", ff.worst_slack_ps()),
        ],
        vec![
            "drawn TT".into(),
            format!("{:.1}", drawn.critical_delay_ps()),
            format!("{:.1}", drawn.worst_slack_ps()),
        ],
        vec![
            "MC mean (extracted + 1.5 nm sigma)".into(),
            format!("{:.1}", mc.mean_critical_delay_ps()),
            format!("{:.1}", mc.mean_worst_slack_ps()),
        ],
        vec![
            "MC 99th percentile".into(),
            format!("{q99_delay:.1}"),
            format!("{:.1}", mc.worst_slack_quantile_ps(0.01)),
        ],
    ];
    let mut text = render_table(
        "T6: corner-based worst case vs extracted-distribution Monte Carlo",
        &["analysis", "critical delay (ps)", "worst slack (ps)"],
        &rows,
    );
    let pessimism = 100.0 * (ss.critical_delay_ps() - q99_delay) / q99_delay;
    text.push_str(&format!("corner pessimism over MC q99: {pessimism:+.1}%\n"));
    text.push_str(&format!(
        "shape check: SS corner slower than MC 99th percentile -> {}\n",
        if ss.critical_delay_ps() > q99_delay {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    ));
    text.push_str(&format!(
        "engine check: batched vs naive bit-identical over {} samples -> {}\n",
        mc_config.samples,
        if batched_identical {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    ));
    text.push_str(&format!(
        "shift table: batched {} prewarmed, {} shared hits, {} misses\n",
        batched_stats.prewarmed, batched_stats.shared_hits, batched_stats.misses
    ));
    // The sampling-scheme convergence study (tail-IS at 500 samples vs
    // plain at 2000 on the deep quantiles).
    let accuracy = crate::sta_accuracy_rows(crate::runner::T6, &compiled, Some(&out.annotation));
    let point = |engine: &str, work: usize| {
        accuracy
            .iter()
            .find(|r| r.engine == engine && r.work == work)
            .and_then(crate::runner::Row::accuracy)
    };
    if let (Some(tail), Some(plain)) = (point("tail-is", 500), point("plain", 2000)) {
        text.push_str(&format!(
            "tail check: tail-IS@500 q01 err {:.3} ps <= plain@2000 q01 err {:.3} ps -> {}\n",
            tail.q01_abs_err_ps,
            plain.q01_abs_err_ps,
            if tail.q01_abs_err_ps <= plain.q01_abs_err_ps {
                "HOLDS"
            } else {
                "VIOLATED"
            }
        ));
    }
    text
}

/// **T7 — selective OPC.** Model OPC on tagged critical gates vs rule
/// everywhere vs model everywhere: accuracy on critical gates against cost.
pub fn t7() -> String {
    let design = crate::random_design(120, 9);
    let model = model_with_margin(&design);
    let drawn = model.analyze(None).expect("drawn timing");
    let tagged = TagSet::from_critical_paths(&design, &drawn, 10);
    let all = TagSet::all(&design);
    let mut rows = Vec::new();
    let mut results: Vec<(f64, usize)> = Vec::new();
    for (name, tags, mode) in [
        ("rule everywhere", &all, OpcMode::Rule),
        ("model everywhere", &all, OpcMode::Model),
        ("selective (model on tagged)", &tagged, OpcMode::Model),
    ] {
        let out = extract_gates(&design, &config(mode), tags).expect("extraction");
        // Accuracy on the *critical* gates only.
        let critical_deltas: Vec<f64> = out
            .stats
            .extracted
            .iter()
            .filter(|e| tagged.contains(e.site.gate))
            .map(|e| e.equivalent.l_delay_nm - e.site.drawn_l_nm)
            .collect();
        let acc = rms(&critical_deltas);
        results.push((acc, out.stats.opc_simulations));
        rows.push(vec![
            name.to_string(),
            format!("{}", tags.len()),
            format!("{:.2}", acc),
            format!("{}", out.stats.opc_simulations),
            format!("{}", out.stats.opc_fragment_moves),
        ]);
    }
    let mut text = render_table(
        "T7: selective OPC - accuracy on critical gates vs correction cost",
        &[
            "recipe",
            "gates corrected",
            "critical rms dL (nm)",
            "model sims",
            "fragment moves",
        ],
        &rows,
    );
    let (rule_acc, _) = results[0];
    let (model_acc, model_cost) = results[1];
    let (sel_acc, sel_cost) = results[2];
    text.push_str(&format!(
        "shape check: selective accuracy ({sel_acc:.2}) near full-model ({model_acc:.2}), \
         better than rule ({rule_acc:.2}), at {:.0}% of model cost -> {}\n",
        100.0 * sel_cost as f64 / model_cost.max(1) as f64,
        if sel_acc < rule_acc && sel_cost * 2 < model_cost {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    ));
    text
}

/// **F8 — multi-layer extension.** Poly-only vs poly + printed metal-1
/// wire widths: the extra interconnect perturbation.
pub fn f8() -> String {
    let design = crate::evaluation_design(11);
    // The same flow without and with the wire step on the tagged gates'
    // nets.
    let [poly, wired] =
        [false, true].map(|wires| paper_flow(&design, 20, 5, config(OpcMode::Rule), wires));
    let drawn = &poly.comparison.drawn;
    let poly_only = &poly.comparison.annotated;
    let multi = &wired.comparison.annotated;
    let wire_stats = wired.wire_stats.expect("the wire step ran");
    let rows: Vec<Vec<String>> = poly_only
        .top_paths(&design, 5)
        .iter()
        .map(|p| {
            vec![
                design.netlist().net(p.endpoint).name.clone(),
                format!("{:.1}", drawn.arrival_ps(p.endpoint)),
                format!("{:.1}", p.arrival_ps),
                format!("{:.1}", multi.arrival_ps(p.endpoint)),
                format!("{:+.2}", multi.arrival_ps(p.endpoint) - p.arrival_ps),
            ]
        })
        .collect();
    let mut text = render_table(
        "F8: multi-layer extraction - top-path arrivals (ps)",
        &["endpoint", "drawn", "poly-only", "poly+m1", "m1 delta"],
        &rows,
    );
    text.push_str(&format!(
        "{} nets wire-annotated ({} segments measured, {} rejected)\n",
        wire_stats.nets_annotated, wire_stats.segments_measured, wire_stats.segments_failed
    ));
    let shift = (multi.critical_delay_ps() - poly_only.critical_delay_ps()).abs();
    text.push_str(&format!(
        "critical delay: poly-only {:.1} ps, poly+m1 {:.1} ps\n",
        poly_only.critical_delay_ps(),
        multi.critical_delay_ps()
    ));
    text.push_str(&format!(
        "shape check: wire annotation produces measurable extra shift -> {}\n",
        if shift > 0.005 && wire_stats.nets_annotated > 0 {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    ));
    text
}

/// Times `extract_gates(design, cfg, tags)` with [`crate::runner::measure`]
/// and returns the first run's outcome with the median time in seconds.
///
/// # Panics
///
/// Panics if the extraction fails or a timed run differs from the first.
fn timed_extraction(
    design: &Design,
    cfg: &ExtractionConfig,
    tags: &TagSet,
) -> (ExtractionOutcome, f64) {
    let (out, timing) = crate::runner::measure(
        || extract_gates(design, cfg, tags).expect("extraction"),
        |first, run| assert!(run == first, "a timed run differs from the first"),
    );
    (out, timing.median_s)
}

/// **T9 — selective-extraction scalability.** Full-chip vs tagged-only
/// extraction wall time across design sizes, then the extraction engine
/// comparison. Every time is the median of [`crate::runner::RUNS`] runs.
/// The scaling check reads the work ratio (full / tagged windows imaged),
/// which no load on the machine can move; the timed speedups are printed
/// beside it.
pub fn t9() -> String {
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    for &gates in &[60usize, 150, 400] {
        let design = crate::random_design(gates, 21);
        let model = model_with_margin(&design);
        let drawn = model.analyze(None).expect("drawn timing");
        let tagged = TagSet::from_critical_paths(&design, &drawn, 5);
        let cfg = config(OpcMode::Rule);
        let (full, full_s) = timed_extraction(&design, &cfg, &TagSet::all(&design));
        let (selective, selective_s) = timed_extraction(&design, &cfg, &tagged);
        ratios.push(full.stats.windows as f64 / selective.stats.windows.max(1) as f64);
        rows.push(vec![
            format!("{}", design.netlist().gate_count()),
            format!("{}", full.stats.windows),
            format!("{full_s:.3}"),
            format!("{}", selective.stats.windows),
            format!("{selective_s:.3}"),
            format!("{:.1}x", full_s / selective_s.max(1e-9)),
        ]);
    }
    let mut text = render_table(
        &format!(
            "T9: full-chip vs selective extraction (rule-OPC recipe, median of {} runs)",
            crate::runner::RUNS
        ),
        &[
            "gates",
            "full windows",
            "full (s)",
            "tagged windows",
            "tagged (s)",
            "speedup",
        ],
        &rows,
    );
    let work: Vec<String> = ratios.iter().map(|r| format!("{r:.1}x")).collect();
    text.push_str(&format!(
        "shape check: work ratio (full / tagged windows: {}) grows with design size -> {}\n",
        work.join(" -> "),
        if ratios.windows(2).all(|w| w[1] > w[0] * 0.8) && ratios.last() > ratios.first() {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    ));
    text.push('\n');
    text.push_str(&t9_engine());
    text
}

/// The engine-scaling half of T9: baseline (serial, no dedup) vs the
/// context cache vs cache + worker pool vs cache + pool + learned CD
/// surrogate, on two dense (100% utilization) designs — a speed-path farm
/// with per-chain shuffled stages (diverse contexts: the honest low end
/// of dedup) and a uniform inverter farm (repeated identical contexts:
/// what standard-cell regularity gives the extractor in practice). The
/// surrogate engine trades bit-exactness for wall time, so its CDs are
/// compared against the simulated truth with a tolerance instead of
/// joining the bit-identity checks.
fn t9_engine() -> String {
    let designs = [
        (
            "shuffled farm 20x24",
            crate::dense_design(
                postopc_layout::generate::speed_path_farm(20, 24, 11).expect("farm generates"),
            ),
        ),
        (
            "uniform inv farm 240",
            crate::dense_design(
                postopc_layout::generate::inverter_chain(240).expect("chain generates"),
            ),
        ),
    ];
    let threads = postopc_parallel::effective_threads(None);
    let engines: Vec<(&str, ExtractionConfig)> = vec![
        ("baseline (serial, no cache)", {
            let mut c = config(OpcMode::Rule);
            c.cache = false;
            c.threads = Some(1);
            c
        }),
        ("context cache", {
            let mut c = config(OpcMode::Rule);
            c.threads = Some(1);
            c
        }),
        (
            "cache + pool",
            config(OpcMode::Rule), // threads: None -> all cores
        ),
        ("cache + surrogate", {
            let mut c = config(OpcMode::Rule); // threads: None -> all cores
            c.surrogate = postopc::SurrogateConfig::standard();
            c
        }),
    ];
    let mut rows = Vec::new();
    let mut cds_identical = true;
    let mut pool_identical = true;
    let mut farm_hit_rate: f64 = 0.0;
    let mut uniform_speedup: f64 = 0.0;
    let mut surrogate_served = false;
    let mut surrogate_worst_nm: f64 = 0.0;
    for (name, design) in &designs {
        let tags = TagSet::all(design);
        let mut baseline_s = 0.0;
        let mut outcomes: Vec<ExtractionOutcome> = Vec::new();
        for (i, (label, cfg)) in engines.iter().enumerate() {
            let (out, secs) = timed_extraction(design, cfg, &tags);
            if i == 0 {
                baseline_s = secs;
            }
            let speedup = baseline_s / secs.max(1e-9);
            rows.push(vec![
                (*name).to_string(),
                (*label).to_string(),
                format!("{}", out.stats.windows),
                format!("{}", out.stats.cache_hits),
                format!("{:.1}%", 100.0 * out.stats.cache_hit_rate()),
                format!("{}", out.stats.surrogate_hits),
                format!("{secs:.3}"),
                format!("{speedup:.1}x"),
            ]);
            if *name == "shuffled farm 20x24" {
                farm_hit_rate = farm_hit_rate.max(out.stats.cache_hit_rate());
            } else {
                uniform_speedup = uniform_speedup.max(speedup);
            }
            outcomes.push(out);
        }
        // The CDs must be bit-identical whichever *exact* engine produced
        // them (the surrogate engine is compared by tolerance below); the
        // full outcome (stats included) must be identical between the
        // serial and pooled runs of the *same* cache configuration.
        let exact = &outcomes[..3];
        cds_identical &= exact.windows(2).all(|w| {
            w[0].annotation == w[1].annotation && w[0].stats.extracted == w[1].stats.extracted
        });
        pool_identical &= exact[1] == exact[2];
        let surrogate = &outcomes[3];
        surrogate_served |= surrogate.stats.surrogate_hits > 0;
        for (gate, truth) in exact[1].annotation.gates() {
            let fast = surrogate
                .annotation
                .gate(*gate)
                .expect("surrogate annotates every gate");
            for (t, f) in truth.transistors.iter().zip(&fast.transistors) {
                surrogate_worst_nm = surrogate_worst_nm
                    .max((t.l_delay_nm - f.l_delay_nm).abs())
                    .max((t.l_leakage_nm - f.l_leakage_nm).abs());
            }
        }
    }
    let mut text = render_table(
        &format!(
            "T9: extraction engine scaling, {threads} worker(s), median of {} runs",
            crate::runner::RUNS
        ),
        &[
            "design",
            "engine",
            "windows",
            "hits",
            "hit rate",
            "surr hits",
            "wall (s)",
            "vs baseline",
        ],
        &rows,
    );
    text.push_str(&format!(
        "shape check: bit-identical CDs across engines -> {}\n",
        if cds_identical { "HOLDS" } else { "VIOLATED" }
    ));
    text.push_str(&format!(
        "shape check: pooled outcome bit-identical to serial -> {}\n",
        if pool_identical { "HOLDS" } else { "VIOLATED" }
    ));
    text.push_str(&format!(
        "shape check: nonzero hit rate on the speed-path farm -> {}\n",
        if farm_hit_rate > 0.0 {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    ));
    text.push_str(&format!(
        "shape check: >=2x dedup speedup on the uniform farm -> {}\n",
        if uniform_speedup >= 2.0 {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    ));
    text.push_str(&format!(
        "shape check: surrogate serves contexts and tracks truth within 2.5 nm \
         (worst {surrogate_worst_nm:.3} nm) -> {}\n",
        if surrogate_served && surrogate_worst_nm < 2.5 {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    ));
    text
}

/// **A1 — kernel-stack ablation** (DESIGN.md ablation #1): how much of the
/// proximity phenomenology disappears with a single-Gaussian imaging
/// model, and what that does to extracted CDs.
pub fn a1() -> String {
    use postopc_geom::{Polygon, Rect};
    use postopc_litho::{cutline, AerialImage, KernelMode, ResistModel, SimulationSpec};
    let resist = ResistModel::standard();
    let window = Rect::new(-400, -400, 400, 400).expect("rect");
    let line = |x0: i64, x1: i64| Polygon::from(Rect::new(x0, -700, x1, 700).expect("rect"));
    let mut rows = Vec::new();
    let mut bias = Vec::new();
    for (name, mode) in [
        ("center-surround", KernelMode::CenterSurround),
        ("single gaussian", KernelMode::SingleGaussian),
    ] {
        let spec = SimulationSpec {
            kernel_mode: mode,
            ..SimulationSpec::nominal()
        };
        let cd_of = |mask: &[Polygon]| {
            let image = AerialImage::simulate(&spec, mask, window).expect("image");
            cutline::measure_cd(&image, &resist, (0.0, 0.0), (1.0, 0.0), 150.0).expect("prints")
        };
        let iso = cd_of(&[line(-45, 45)]);
        let dense = cd_of(&[line(-45, 45), line(-325, -235), line(235, 325)]);
        bias.push(iso - dense);
        rows.push(vec![
            name.to_string(),
            format!("{iso:.2}"),
            format!("{dense:.2}"),
            format!("{:+.2}", iso - dense),
        ]);
    }
    let mut text = render_table(
        "A1: imaging-kernel ablation - iso/dense printed CD (nm)",
        &["kernel stack", "iso CD", "dense CD", "iso-dense bias"],
        &rows,
    );
    text.push_str(&format!(
        "shape check: center-surround bias ({:+.2} nm) exceeds single-gaussian ({:+.2} nm) -> {}\n",
        bias[0],
        bias[1],
        if bias[0].abs() > 2.0 * bias[1].abs() {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    ));
    text
}

/// **A2 — slice-model ablation** (DESIGN.md ablation #2): error of the
/// single mid-gate-CD shortcut against the slice-based equivalent length
/// when line-end pullback intrudes into the channel.
pub fn a2() -> String {
    use postopc_cdex::{extract_gate, MeasureConfig};
    use postopc_device::{MosKind, Mosfet};
    use postopc_geom::{Polygon, Rect};
    use postopc_layout::{GateId, TransistorSite};
    use postopc_litho::{AerialImage, ResistModel, SimulationSpec};
    let process = ProcessParams::n90();
    let mut rows = Vec::new();
    let mut leak_errors = Vec::new();
    for (name, poly_top) in [
        ("generous endcap (260 nm)", 470i64),
        ("tight endcap (30 nm)", 240),
    ] {
        let poly = Polygon::from(Rect::new(-45, -500, 45, poly_top).expect("rect"));
        let channel = Rect::new(-45, -210, 45, 210).expect("rect");
        let image = AerialImage::simulate(
            &SimulationSpec::nominal(),
            &[poly],
            Rect::new(-400, -500, 400, 500).expect("rect"),
        )
        .expect("image");
        let site = TransistorSite {
            gate: GateId(0),
            kind: MosKind::Nmos,
            channel,
            width_nm: 420.0,
            drawn_l_nm: 90.0,
            finger: 0,
        };
        let extracted = extract_gate(
            &MeasureConfig::standard(),
            &process,
            &image,
            &ResistModel::standard(),
            &site,
        )
        .expect("extraction");
        // Mid-gate single CD: the naive annotation.
        let mid_cd = extracted.slices[extracted.slices.len() / 2].l_nm;
        let slice_leak = Mosfet::new(MosKind::Nmos, 420.0, extracted.equivalent.l_leakage_nm)
            .expect("device")
            .i_off(&process);
        let mid_leak = Mosfet::new(MosKind::Nmos, 420.0, mid_cd)
            .expect("device")
            .i_off(&process);
        let leak_err = 100.0 * (mid_leak - slice_leak) / slice_leak;
        leak_errors.push(leak_err);
        rows.push(vec![
            name.to_string(),
            format!("{mid_cd:.2}"),
            format!("{:.2}", extracted.equivalent.l_delay_nm),
            format!("{:.2}", extracted.equivalent.l_leakage_nm),
            format!("{leak_err:+.1}%"),
        ]);
    }
    let mut text = render_table(
        "A2: slice-model ablation - mid-CD shortcut vs slice equivalents",
        &[
            "gate",
            "mid CD (nm)",
            "slice L_delay (nm)",
            "slice L_leak (nm)",
            "mid-CD leakage error",
        ],
        &rows,
    );
    text.push_str(&format!(
        "shape check: mid-CD leakage error grows with endcap intrusion ({:+.1}% -> {:+.1}%) -> {}\n",
        leak_errors[0],
        leak_errors[1],
        if leak_errors[1].abs() > leak_errors[0].abs() + 1.0 { "HOLDS" } else { "VIOLATED" }
    ));
    text
}

/// **T10 — register-to-register flow** (sequential extension): the paper's
/// comparison on true launch/capture speed paths, including extracted
/// register cells (clock-to-Q and setup move with printed CDs).
pub fn t10() -> String {
    use postopc_layout::{generate, PlacementOptions, TechRules};
    let design = Design::compile_with(
        generate::registered_farm(12, 16, 23).expect("netlist"),
        TechRules::n90(),
        &PlacementOptions {
            utilization: 0.85,
            seed: 23,
        },
    )
    .expect("design");
    let flow = paper_flow(&design, 24, 12, silicon_config(), false);
    let comparison = &flow.comparison;
    let registers_tagged = flow
        .tags
        .sorted()
        .into_iter()
        .filter(|&g| design.netlist().gate(g).kind == postopc_layout::GateKind::Dff)
        .count();
    let mut text = postopc::report::render_path_comparison(&design, comparison);
    text.insert_str(
        0,
        &format!(
            "T10: {} gates tagged including {} launch/capture registers\n",
            flow.tags.len(),
            registers_tagged
        ),
    );
    text.push_str(&format!(
        "shape check: register paths reorder and shift like combinational ones \
         (tau < 1 or displacement > 0, registers extracted) -> {}\n",
        if (comparison.kendall_tau() < 0.999 || comparison.mean_rank_displacement() > 0.0)
            && registers_tagged > 0
        {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    ));
    text
}
