//! Quickstart: compile a small design, run the complete post-OPC timing
//! flow, and print the drawn-vs-silicon comparison.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use postopc::{margin_clock, run_flow, FlowConfig, OpcMode, Selection};
use postopc_layout::{generate, Design, TechRules};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build and compile a design: a 4-bit ripple-carry adder placed,
    //    routed and flattened to polygons.
    let netlist = generate::ripple_carry_adder(4)?;
    let design = Design::compile(netlist, TechRules::n90())?;
    println!(
        "compiled {}: {} gates, die {:.1} x {:.1} um",
        design.netlist().name(),
        design.netlist().gate_count(),
        design.die().width() as f64 / 1000.0,
        design.die().height() as f64 / 1000.0,
    );

    // 2. Pick a clock with 10% margin over drawn timing.
    let clock = margin_clock(&design, 0.1)?;
    println!("clock (drawn critical delay + 10%): {clock:.1} ps");

    // 3. Run the paper's flow: tag critical gates, OPC + extract their
    //    printed CDs, back-annotate, re-time.
    let mut config = FlowConfig::standard(clock);
    config.selection = Selection::Critical { paths: 5 };
    config.extraction.opc_mode = OpcMode::Model;
    config.extraction.model_opc.iterations = 4;
    let report = run_flow(&design, &config)?;

    println!(
        "tagged {} critical gates ({:.0}% of design), extracted {} (failures: {})",
        report.tags.len(),
        100.0 * report.tags.coverage(&design),
        report.extraction.gates_extracted,
        report.extraction.gates_failed,
    );
    println!(
        "extraction took {:.1} s, timing {:.1} ms",
        report.extraction_time.as_secs_f64(),
        report.timing_time.as_secs_f64() * 1000.0,
    );
    let cmp = &report.comparison;
    println!(
        "worst slack: drawn {:.1} ps -> silicon-calibrated {:.1} ps ({:+.1}%)",
        cmp.drawn.worst_slack_ps(),
        cmp.annotated.worst_slack_ps(),
        100.0 * cmp.worst_slack_shift_fraction(),
    );
    println!(
        "leakage: drawn {:.1} uA -> annotated {:.1} uA",
        cmp.drawn.leakage_ua(),
        cmp.annotated.leakage_ua(),
    );
    println!("{}", postopc::report::render_path_comparison(&design, cmp));
    Ok(())
}
