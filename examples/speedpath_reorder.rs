//! Speed-path criticality reordering — the paper's headline phenomenon,
//! on a farm of near-identical paths in diverse layout contexts.
//!
//! ```bash
//! cargo run --release --example speedpath_reorder
//! ```

use postopc::{margin_clock, run_flow, FlowConfig, OpcMode, Selection};
use postopc_layout::{generate, Design, PlacementOptions, TechRules};
use postopc_litho::ProcessConditions;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Ten parallel chains of identical cell multisets: drawn timing ranks
    // them within a few ps; placement context breaks the tie on silicon.
    let netlist = generate::speed_path_farm(10, 18, 42)?;
    let design = Design::compile_with(
        netlist,
        TechRules::n90(),
        &PlacementOptions {
            utilization: 0.85,
            seed: 42,
        },
    )?;

    // The flow on the top-10 drawn paths at a clock 10% over drawn timing,
    // with silicon-calibrated extraction: rule-OPC masks imaged at the
    // local across-chip focus/dose of each gate's die position.
    let mut config = FlowConfig::standard(margin_clock(&design, 0.1)?);
    config.selection = Selection::Critical { paths: 10 };
    config.report_paths = 10;
    config.extraction.opc_mode = OpcMode::Rule;
    config.extraction = config.extraction.with_conditions(ProcessConditions {
        focus_nm: 40.0,
        dose: 1.01,
    });
    config.extraction.across_chip = true;
    let report = run_flow(&design, &config)?;
    println!(
        "extracted {} gates on the top paths",
        report.extraction.gates_extracted
    );

    let comparison = &report.comparison;
    println!(
        "{}",
        postopc::report::render_path_comparison(&design, comparison)
    );
    println!(
        "newly-critical endpoints in the silicon top-10: {}",
        comparison.newly_critical()
    );
    Ok(())
}
