//! Plain-text report rendering for flow results and experiment tables.

use crate::compare::TimingComparison;
use postopc_layout::Design;

/// Renders an ASCII table with a title row, headers, and rows.
///
/// ```
/// use postopc::report::render_table;
/// let t = render_table(
///     "demo",
///     &["path", "slack (ps)"],
///     &[vec!["fa0".into(), "-12.3".into()]],
/// );
/// assert!(t.contains("slack"));
/// assert!(t.contains("fa0"));
/// ```
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:<w$}", w = widths[i]))
        .collect();
    out.push_str(&header_line.join(" | "));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 3 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<w$}", w = widths.get(i).copied().unwrap_or(c.len())))
            .collect();
        out.push_str(&cells.join(" | "));
        out.push('\n');
    }
    out
}

/// Renders an extraction run's statistics: gate counts, window/OPC cost,
/// how much of the work the litho-context cache deduplicated, and — when
/// the learned CD surrogate is enabled — how many unique contexts it
/// served without simulation (plus the worst audited residual).
///
/// ```
/// use postopc::report::render_extraction_stats;
/// let mut stats = postopc::ExtractionStats::default();
/// stats.gates_extracted = 8;
/// stats.windows = 3;
/// stats.cache_hits = 5;
/// stats.cache_misses = 3;
/// let t = render_extraction_stats(&stats);
/// assert!(t.contains("62.5%"));
/// assert!(t.contains("surr hits"));
/// ```
pub fn render_extraction_stats(stats: &crate::ExtractionStats) -> String {
    let rows = vec![vec![
        format!("{}", stats.gates_extracted),
        format!("{}", stats.gates_failed),
        format!("{}", stats.gates_quarantined),
        format!("{}", stats.windows),
        format!("{}", stats.store_hits),
        format!("{}", stats.surrogate_hits),
        format!("{}", stats.surrogate_fallbacks),
        format!("{}", stats.opc_simulations),
        format!("{}", stats.cache_hits),
        format!("{}", stats.cache_misses),
        format!("{:.1}%", 100.0 * stats.cache_hit_rate()),
    ]];
    let mut out = render_table(
        "extraction statistics",
        &[
            "extracted",
            "failed",
            "quarantined",
            "windows",
            "store hits",
            "surr hits",
            "surr fbacks",
            "opc sims",
            "cache hits",
            "cache misses",
            "hit rate",
        ],
        &rows,
    );
    if stats.surrogate_hits > 0 || stats.surrogate_fallbacks > 0 {
        out.push_str(&format!(
            "surrogate: {} contexts predicted, {} fell back to simulation, max audited residual {:.3} nm\n",
            stats.surrogate_hits, stats.surrogate_fallbacks, stats.surrogate_max_residual_nm,
        ));
    }
    out
}

/// One query outcome's table row: the query kind and a one-line answer.
fn summarize_outcome(outcome: &crate::QueryOutcome) -> (&'static str, String) {
    match outcome {
        crate::QueryOutcome::Guardband(g) => (
            "guardband",
            format!(
                "corner {:.1} ps vs statistical {:.1} ps (recoverable {:.1} ps)",
                g.corner_delay_ps, g.statistical_delay_ps, g.recoverable_margin_ps
            ),
        ),
        crate::QueryOutcome::Corners(reports) => (
            "corners",
            reports
                .iter()
                .map(|r| format!("{:.1} ps", r.critical_delay_ps()))
                .collect::<Vec<_>>()
                .join(", "),
        ),
        crate::QueryOutcome::MonteCarlo(mc) => {
            let scheme = match mc.sampling() {
                postopc_sta::Sampling::Plain => String::new(),
                postopc_sta::Sampling::Antithetic => " [antithetic]".into(),
                postopc_sta::Sampling::TailIs { tilt } => {
                    format!(" [tail-IS tilt {tilt:.2}]")
                }
            };
            let mean_ps = if mc.control_values_ps().is_empty() {
                format!("mean slack {:.1} ps", mc.mean_worst_slack_ps())
            } else {
                format!(
                    "CV-adjusted mean slack {:.1} ps",
                    mc.cv_adjusted_mean_worst_slack_ps()
                )
            };
            (
                "monte carlo",
                format!(
                    "{} samples{scheme}, {mean_ps}, p1 slack {:.1} ps",
                    mc.worst_slacks_ps().len(),
                    mc.worst_slack_quantile_ps(0.01)
                ),
            )
        }
        crate::QueryOutcome::WhatIf(r) => (
            "what-if",
            format!(
                "critical {:.1} ps, worst slack {:.1} ps",
                r.critical_delay_ps(),
                r.worst_slack_ps()
            ),
        ),
    }
}

/// Renders one [`crate::serve`] invocation: how the session came up
/// (warm/cold, with the recovery-ladder reason on a cold start), whether
/// a fresh artifact was persisted, the startup-vs-query wall clock, and
/// a one-line summary per answered query — partial and skipped answers
/// under a sample budget are flagged on their rows.
///
/// ```
/// use postopc::report::render_serve_report;
/// use postopc::{PersistStatus, ServeReport};
/// let t = render_serve_report(&ServeReport {
///     outcomes: vec![],
///     warm: true,
///     cold_reason: None,
///     persist: PersistStatus::Skipped,
///     startup_time: std::time::Duration::from_millis(12),
///     query_time: std::time::Duration::from_millis(3),
/// });
/// assert!(t.contains("warm"));
/// ```
pub fn render_serve_report(report: &crate::ServeReport) -> String {
    let rows: Vec<Vec<String>> = report
        .outcomes
        .iter()
        .enumerate()
        .map(|(i, budgeted)| {
            let (kind, summary) = match budgeted {
                crate::BudgetedOutcome::Full(outcome) => summarize_outcome(outcome),
                crate::BudgetedOutcome::Partial {
                    completed,
                    requested,
                    outcome,
                } => {
                    let (kind, summary) = summarize_outcome(outcome);
                    (
                        kind,
                        format!("{summary} [partial: budget granted {completed}/{requested}]"),
                    )
                }
                crate::BudgetedOutcome::Skipped { requested } => (
                    "skipped",
                    format!("budget exhausted before its {requested} requested samples"),
                ),
            };
            vec![format!("{}", i + 1), kind.into(), summary]
        })
        .collect();
    let mut out = render_table("warm service queries", &["#", "query", "answer"], &rows);
    match (report.warm, report.cold_reason) {
        (true, _) | (false, None) => {}
        (false, Some(crate::ColdReason::Missing)) => {
            out.push_str("recovery: cold start, no artifact at the given path yet\n");
        }
        (false, Some(reason)) => {
            out.push_str(&format!(
                "recovery: cold start, persisted artifact rejected as `{reason}`\n"
            ));
        }
    }
    if let crate::PersistStatus::Failed { detail } = &report.persist {
        out.push_str(&format!(
            "warning: artifact persist failed ({detail}); queries were still answered, next caller starts cold\n"
        ));
    }
    out.push_str(&format!(
        "session: {} startup {:.3} s, {} queries in {:.3} s\n",
        if report.warm { "warm" } else { "cold" },
        report.startup_time.as_secs_f64(),
        report.outcomes.len(),
        report.query_time.as_secs_f64(),
    ));
    out
}

/// Renders the per-gate quarantine diagnostics: which gates were set
/// aside (keeping drawn dimensions), at which pipeline stage, and why.
/// Empty input renders a headers-only table, so the section is safe to
/// print unconditionally.
///
/// ```
/// use postopc::report::render_quarantine;
/// use postopc::{FaultStage, QuarantinedGate};
/// use postopc_layout::GateId;
/// let t = render_quarantine(&[QuarantinedGate {
///     gate: GateId(7),
///     stage: FaultStage::Boundary,
///     cause: "non-physical l_delay_nm = NaN".into(),
/// }]);
/// assert!(t.contains("boundary"));
/// assert!(t.contains("NaN"));
/// ```
pub fn render_quarantine(quarantined: &[crate::QuarantinedGate]) -> String {
    let rows: Vec<Vec<String>> = quarantined
        .iter()
        .map(|q| {
            vec![
                format!("{}", q.gate.0),
                q.stage.to_string(),
                q.cause.clone(),
            ]
        })
        .collect();
    render_table(
        "quarantined gates (kept drawn dimensions)",
        &["gate", "stage", "cause"],
        &rows,
    )
}

/// Renders the paper's speed-path comparison table: drawn rank vs
/// annotated rank, slacks in both views.
pub fn render_path_comparison(design: &Design, comparison: &TimingComparison) -> String {
    let annotated_rank: std::collections::HashMap<_, _> = {
        let mut endpoints: Vec<_> = comparison.drawn_paths.iter().map(|p| p.endpoint).collect();
        endpoints.sort_by(|a, b| {
            comparison
                .annotated
                .slack_ps(*a)
                .total_cmp(&comparison.annotated.slack_ps(*b))
        });
        endpoints
            .into_iter()
            .enumerate()
            .map(|(r, e)| (e, r))
            .collect()
    };
    let rows: Vec<Vec<String>> = comparison
        .drawn_paths
        .iter()
        .enumerate()
        .map(|(rank, p)| {
            vec![
                format!("{}", rank + 1),
                design.netlist().net(p.endpoint).name.clone(),
                format!("{:.1}", p.slack_ps),
                format!("{:.1}", comparison.annotated.slack_ps(p.endpoint)),
                format!("{}", annotated_rank[&p.endpoint] + 1),
                format!("{}", p.gates.len()),
            ]
        })
        .collect();
    let mut out = render_table(
        "speed-path criticality: drawn vs post-OPC annotated",
        &[
            "drawn rank",
            "endpoint",
            "drawn slack (ps)",
            "annotated slack (ps)",
            "annotated rank",
            "gates",
        ],
        &rows,
    );
    out.push_str(&format!(
        "kendall tau = {:.3}, mean rank displacement = {:.2}, worst-slack shift = {:.1}%\n",
        comparison.kendall_tau(),
        comparison.mean_rank_displacement(),
        100.0 * comparison.worst_slack_shift_fraction(),
    ));
    out
}

/// Renders a per-gate breakdown of one timing path: cell, drive, delay,
/// output slew, and cumulative arrival — the classic STA path report.
pub fn render_path_detail(
    design: &Design,
    report: &postopc_sta::TimingReport,
    path: &postopc_sta::TimingPath,
) -> String {
    let netlist = design.netlist();
    let mut cumulative = 0.0;
    let rows: Vec<Vec<String>> = path
        .gates
        .iter()
        .map(|&gid| {
            let gate = netlist.gate(gid);
            let delay = report.gate_delay_ps(gid);
            cumulative += delay;
            vec![
                gate.name.clone(),
                format!("{}{}", gate.kind, gate.drive),
                netlist.net(gate.output).name.clone(),
                format!("{delay:.2}"),
                format!("{:.2}", report.slew_ps(gate.output)),
                format!("{cumulative:.2}"),
            ]
        })
        .collect();
    let mut out = render_table(
        &format!(
            "path to {} (arrival {:.1} ps, slack {:.1} ps)",
            netlist.net(path.endpoint).name,
            path.arrival_ps,
            path.slack_ps
        ),
        &[
            "gate",
            "cell",
            "output net",
            "delay (ps)",
            "slew (ps)",
            "arrival (ps)",
        ],
        &rows,
    );
    out.push_str(&format!(
        "stages: {}, mean stage delay {:.2} ps
",
        path.gates.len(),
        path.arrival_ps / path.gates.len().max(1) as f64
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = render_table(
            "x",
            &["a", "bbbb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[1].contains('|'));
        // All data lines equal length (aligned).
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn empty_rows_render_headers_only() {
        let t = render_table("empty", &["h1"], &[]);
        assert!(t.contains("h1"));
        assert_eq!(t.lines().count(), 3);
    }

    #[test]
    fn path_detail_renders_every_stage() {
        use postopc_device::ProcessParams;
        use postopc_layout::{generate, TechRules};
        use postopc_sta::TimingModel;
        let design = Design::compile(
            generate::inverter_chain(5).expect("netlist"),
            TechRules::n90(),
        )
        .expect("design");
        let model = TimingModel::new(&design, ProcessParams::n90(), 500.0).expect("model");
        let report = model.analyze(None).expect("analysis");
        let path = &report.top_paths(&design, 1)[0];
        let text = render_path_detail(&design, &report, path);
        assert!(text.contains("inv0"));
        assert!(text.contains("inv4"));
        assert!(text.contains("slew (ps)"));
        assert!(text.contains("stages: 5"));
        // Final cumulative equals the endpoint arrival.
        assert!(text.contains(&format!("{:.2}", path.arrival_ps)));
    }
}
