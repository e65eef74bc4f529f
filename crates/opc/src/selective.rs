//! Selective OPC: route tagged (critical) polygons to model-based OPC and
//! the rest to cheap rule-based OPC.
//!
//! This is the paper's closing proposal: "by passing design intent to
//! process/OPC engineers, selective OPC can be applied to improve CD
//! variation control based on gates' functions such as critical gates and
//! matching transistors." The cost asymmetry (simulations vs table
//! lookups) is what experiment T7 quantifies.

use crate::error::Result;
use crate::model::{self, ModelOpcConfig, OpcReport};
use crate::rules::{self, RuleOpcConfig};
use postopc_geom::{Polygon, Rect};

/// Result of a selective correction run.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectiveResult {
    /// Model-corrected masks, parallel to the tagged targets.
    pub corrected_tagged: Vec<Polygon>,
    /// Rule-corrected masks, parallel to the untagged targets.
    pub corrected_untagged: Vec<Polygon>,
    /// Model-OPC cost report (simulations, fragment moves).
    pub model_report: OpcReport,
    /// Rule-OPC fragment count (its only cost).
    pub rule_fragments: usize,
}

/// Corrects `tagged` polygons with model-based OPC and `untagged` with
/// rule-based OPC.
///
/// The rule pass runs first, with the tagged polygons as its context; its
/// output becomes frozen context for the model pass, so critical-gate
/// corrections account for their (cheaply corrected) neighbours. `window`
/// must cover the tagged polygons and the model pass's `epe_search` reach
/// past their edges, as for [`model::correct`].
///
/// # Errors
///
/// Propagates model/rule correction errors.
pub fn correct(
    model_config: &ModelOpcConfig,
    rule_config: &RuleOpcConfig,
    tagged: &[Polygon],
    untagged: &[Polygon],
    window: Rect,
) -> Result<SelectiveResult> {
    // Rule pass over the non-critical geometry.
    let rule_result = rules::correct(rule_config, untagged, tagged)?;
    // Model pass over the critical geometry, seeing the rule-corrected
    // neighbours as context.
    let model_result = model::correct(model_config, tagged, &rule_result.corrected, window)?;
    Ok(SelectiveResult {
        corrected_tagged: model_result.corrected,
        corrected_untagged: rule_result.corrected,
        model_report: model_result.report,
        rule_fragments: rule_result.fragments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orc::{self, OrcConfig};
    use postopc_litho::{ResistModel, SimulationSpec};

    fn line(x0: i64, x1: i64) -> Polygon {
        Polygon::from(Rect::new(x0, -300, x1, 300).expect("rect"))
    }

    fn window() -> Rect {
        Rect::new(-500, -450, 700, 450).expect("rect")
    }

    #[test]
    fn selective_splits_work_between_engines() {
        let tagged = vec![line(-45, 45)];
        let untagged = vec![line(-325, -235), line(235, 325), line(515, 605)];
        let result = correct(
            &ModelOpcConfig::standard(),
            &RuleOpcConfig::standard(),
            &tagged,
            &untagged,
            window(),
        )
        .expect("selective");
        assert_eq!(result.corrected_tagged.len(), 1);
        assert_eq!(result.corrected_untagged.len(), 3);
        assert!(result.model_report.simulations > 0);
        assert!(result.rule_fragments > 0);
    }

    #[test]
    fn tagged_geometry_verifies_better_than_rule_only() {
        let tagged = vec![line(-45, 45)];
        let untagged = vec![line(-325, -235), line(235, 325)];
        let selective = correct(
            &ModelOpcConfig::standard(),
            &RuleOpcConfig::standard(),
            &tagged,
            &untagged,
            window(),
        )
        .expect("selective");
        // Compare against an all-rule flow.
        let all_rule = rules::correct(
            &RuleOpcConfig::standard(),
            &[tagged.clone(), untagged.clone()].concat(),
            &[],
        )
        .expect("rule");
        let orc_cfg = OrcConfig::standard();
        let sim = SimulationSpec::nominal();
        let resist = ResistModel::standard();
        let mut selective_mask = selective.corrected_tagged.clone();
        selective_mask.extend(selective.corrected_untagged.clone());
        let sel_report = orc::verify(
            &orc_cfg,
            &sim,
            &resist,
            &tagged,
            &selective_mask,
            &[],
            window(),
        )
        .expect("verify");
        let rule_report = orc::verify(
            &orc_cfg,
            &sim,
            &resist,
            &tagged,
            &all_rule.corrected,
            &[],
            window(),
        )
        .expect("verify");
        assert!(
            sel_report.rms_epe < rule_report.rms_epe,
            "selective (model on tagged) rms {} should beat all-rule {}",
            sel_report.rms_epe,
            rule_report.rms_epe
        );
    }

    #[test]
    fn cost_scales_with_tagged_fraction() {
        let all = vec![
            line(-45, 45),
            line(-325, -235),
            line(235, 325),
            line(515, 605),
        ];
        // Tag one polygon vs tag all.
        let one = correct(
            &ModelOpcConfig::standard(),
            &RuleOpcConfig::standard(),
            &all[..1],
            &all[1..],
            window(),
        )
        .expect("selective");
        let every = correct(
            &ModelOpcConfig::standard(),
            &RuleOpcConfig::standard(),
            &all,
            &[],
            window(),
        )
        .expect("selective");
        assert!(
            one.model_report.fragment_moves < every.model_report.fragment_moves,
            "tagging fewer gates must cost fewer model moves"
        );
        assert!(one.model_report.fragments < every.model_report.fragments);
    }
}
