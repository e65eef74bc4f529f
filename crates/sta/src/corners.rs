//! Corner-based timing: the traditional worst-case CD guardband the paper
//! argues is overly pessimistic.

use crate::annotate::{CdAnnotation, GateAnnotation};
use crate::compiled::{CompiledSta, StaScratch};
use crate::error::Result;
use crate::graph::{TimingModel, TimingReport};
use postopc_layout::GateId;

/// A process corner expressed as a uniform gate-CD shift.
#[derive(Debug, Clone, PartialEq)]
pub struct Corner {
    /// Corner name (`"SS"`, `"TT"`, `"FF"`, ...).
    pub name: String,
    /// Uniform channel-length shift applied to every transistor, in nm
    /// (positive = longer/slower).
    pub delta_l_nm: f64,
}

impl Corner {
    /// The classic three-corner set with ±`sigma3_nm` CD guardband.
    pub fn classic_set(sigma3_nm: f64) -> Vec<Corner> {
        vec![
            Corner {
                name: "FF".into(),
                delta_l_nm: -sigma3_nm,
            },
            Corner {
                name: "TT".into(),
                delta_l_nm: 0.0,
            },
            Corner {
                name: "SS".into(),
                delta_l_nm: sigma3_nm,
            },
        ]
    }
}

/// Builds the annotation representing a corner: every transistor of every
/// gate shifted by `delta_l_nm`. Corner sweeps never build it — they shift
/// each distinct cell once — but `model.analyze` of this annotation is
/// their oracle.
pub fn corner_annotation(model: &TimingModel<'_>, delta_l_nm: f64) -> CdAnnotation {
    let mut ann = CdAnnotation::new();
    for (gi, gate) in model.design().netlist().gates().iter().enumerate() {
        let mut records = model
            .library()
            .drawn_transistors(gate.kind, gate.drive)
            .to_vec();
        for r in &mut records {
            r.l_delay_nm = (r.l_delay_nm + delta_l_nm).max(1.0);
            r.l_leakage_nm = (r.l_leakage_nm + delta_l_nm).max(1.0);
        }
        ann.set_gate(
            GateId(gi as u32),
            GateAnnotation {
                transistors: records,
            },
        );
    }
    ann
}

/// Runs timing at a corner through the compiled evaluator (bit-identical
/// to `model.analyze(Some(&corner_annotation(..)))`).
///
/// # Errors
///
/// Propagates device-model errors for non-physical corner shifts.
pub fn analyze_corner(model: &TimingModel<'_>, corner: &Corner) -> Result<TimingReport> {
    let mut reports = analyze_corners(model, std::slice::from_ref(corner))?;
    Ok(reports.remove(0))
}

/// Runs timing at every corner of a set, sharing one compiled model and
/// one scratch. A uniform corner shift runs the device model once per
/// distinct cell, not once per gate.
///
/// # Errors
///
/// Propagates device-model errors for non-physical corner shifts.
pub fn analyze_corners(model: &TimingModel<'_>, corners: &[Corner]) -> Result<Vec<TimingReport>> {
    let compiled = model.compile()?;
    let mut scratch = compiled.scratch();
    analyze_corners_with(&compiled, &mut scratch, corners)
}

/// [`analyze_corners`] against an existing compiled evaluator and
/// scratch: flows that already hold a [`CompiledSta`] (drawn analysis,
/// Monte Carlo) share it instead of recompiling per corner sweep.
///
/// The drawn gates are deduplicated into cells once per sweep; each
/// corner then characterizes every cell at its shift through the path
/// the Monte Carlo shift table uses, so each report is bit-identical to
/// `model.analyze(Some(&corner_annotation(model, corner.delta_l_nm)))`.
///
/// # Errors
///
/// Propagates device-model errors for non-physical corner shifts.
pub fn analyze_corners_with(
    compiled: &CompiledSta<'_>,
    scratch: &mut StaScratch,
    corners: &[Corner],
) -> Result<Vec<TimingReport>> {
    let cells = compiled.drawn_cells();
    corners
        .iter()
        .map(|corner| compiled.evaluate_shift(scratch, &cells, corner.delta_l_nm))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use postopc_device::ProcessParams;
    use postopc_layout::{generate, Design, TechRules};

    #[test]
    fn corners_order_delay_and_leakage() {
        let design = Design::compile(
            generate::ripple_carry_adder(3).expect("netlist"),
            TechRules::n90(),
        )
        .expect("design");
        let model = TimingModel::new(&design, ProcessParams::n90(), 800.0).expect("model");
        let corners = Corner::classic_set(6.0);
        let ff = analyze_corner(&model, &corners[0]).expect("FF");
        let tt = analyze_corner(&model, &corners[1]).expect("TT");
        let ss = analyze_corner(&model, &corners[2]).expect("SS");
        // Slow corner (long L) is slowest; fast corner leaks most.
        assert!(ss.critical_delay_ps() > tt.critical_delay_ps());
        assert!(tt.critical_delay_ps() > ff.critical_delay_ps());
        assert!(ff.leakage_ua() > tt.leakage_ua());
        assert!(tt.leakage_ua() > ss.leakage_ua());
    }

    #[test]
    fn tt_corner_equals_drawn_timing() {
        let design = Design::compile(
            generate::inverter_chain(12).expect("netlist"),
            TechRules::n90(),
        )
        .expect("design");
        let model = TimingModel::new(&design, ProcessParams::n90(), 800.0).expect("model");
        let drawn = model.analyze(None).expect("drawn");
        let tt = analyze_corner(
            &model,
            &Corner {
                name: "TT".into(),
                delta_l_nm: 0.0,
            },
        )
        .expect("TT");
        assert!((drawn.critical_delay_ps() - tt.critical_delay_ps()).abs() < 1e-9);
    }

    #[test]
    fn classic_set_is_symmetric() {
        let set = Corner::classic_set(5.0);
        assert_eq!(set.len(), 3);
        assert_eq!(set[0].delta_l_nm, -5.0);
        assert_eq!(set[2].delta_l_nm, 5.0);
    }
}
