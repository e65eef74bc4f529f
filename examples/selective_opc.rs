//! Selective OPC: route critical-gate geometry to model-based OPC and the
//! rest to cheap rule OPC — the paper's design-intent feedback proposal.
//!
//! ```bash
//! cargo run --release --example selective_opc
//! ```

use postopc_geom::{Polygon, Rect};
use postopc_litho::{ResistModel, SimulationSpec};
use postopc_opc::{orc, selective, ModelOpcConfig, OrcConfig, RuleOpcConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Four poly lines; the first is on a critical path (tagged).
    let lines: Vec<Polygon> = (0..4)
        .map(|i| Rect::new(i * 280, -300, i * 280 + 90, 300).map(Polygon::from))
        .collect::<Result<_, _>>()?;
    let window = Rect::new(-300, -450, 1200, 450)?;
    let tagged = &lines[..1];
    let untagged = &lines[1..];

    let result = selective::correct(
        &ModelOpcConfig::standard(),
        &RuleOpcConfig::standard(),
        tagged,
        untagged,
        window,
    )?;
    println!(
        "selective OPC: {} model simulations, {} fragment moves on tagged geometry;\n\
         {} fragments rule-corrected on the rest",
        result.model_report.simulations, result.model_report.fragment_moves, result.rule_fragments,
    );

    // Verify the tagged geometry post-correction.
    let mut mask = result.corrected_tagged.clone();
    mask.extend(result.corrected_untagged.clone());
    let report = orc::verify(
        &OrcConfig::standard(),
        &SimulationSpec::nominal(),
        &ResistModel::standard(),
        tagged,
        &mask,
        &[],
        window,
    )?;
    println!(
        "tagged-geometry residual EPE: mean {:+.2} nm, rms {:.2} nm, max |{:.2}| nm, {} hotspots",
        report.mean_epe,
        report.rms_epe,
        report.max_abs_epe,
        report.hotspots.len()
    );
    for (center, count) in report.histogram(2.0) {
        println!("  EPE {center:+5.1} nm | {}", "#".repeat(count));
    }
    Ok(())
}
