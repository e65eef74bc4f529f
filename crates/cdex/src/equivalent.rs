//! Reduction of measured slices to equivalent rectangular transistors, and
//! the complete per-site extraction record.

use crate::error::Result;
use crate::measure::{measure_gate_slices, MeasureConfig};
use postopc_device::{EquivalentGate, ProcessParams, SlicedGate};
use postopc_layout::TransistorSite;
use postopc_litho::{AerialImage, ResistModel};

/// The complete extraction record of one transistor channel.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractedGate {
    /// The site this record was extracted from.
    pub site: TransistorSite,
    /// Measured slices (bottom to top along the width).
    pub slices: Vec<postopc_device::GateSlice>,
    /// Equivalent rectangular transistor (delay and leakage lengths).
    pub equivalent: EquivalentGate,
}

impl ExtractedGate {
    /// Deviation of the delay-equivalent length from drawn, in nm.
    pub fn delta_l_nm(&self) -> f64 {
        self.equivalent.l_delay_nm - self.site.drawn_l_nm
    }
}

/// Extracts one transistor site from an aerial image: slice measurement
/// followed by equivalent-length reduction under `process`.
///
/// # Errors
///
/// Returns a measurement error if the channel does not print, or a device
/// error if the reduction fails (requires pathological slice data).
pub fn extract_gate(
    config: &MeasureConfig,
    process: &ProcessParams,
    image: &AerialImage,
    resist: &ResistModel,
    site: &TransistorSite,
) -> Result<ExtractedGate> {
    let slices = measure_gate_slices(config, image, resist, site)?;
    let sliced = SlicedGate::new(site.kind, slices.clone())?;
    let equivalent = sliced.equivalent(process)?;
    Ok(ExtractedGate {
        site: *site,
        slices,
        equivalent,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use postopc_device::MosKind;
    use postopc_geom::{Polygon, Rect};
    use postopc_layout::GateId;
    use postopc_litho::SimulationSpec;

    fn extract_finger(poly_top: i64) -> ExtractedGate {
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
        extract_gate(
            &MeasureConfig::standard(),
            &ProcessParams::n90(),
            &image,
            &ResistModel::standard(),
            &site,
        )
        .expect("extraction")
    }

    #[test]
    fn long_finger_extracts_near_drawn() {
        let e = extract_finger(500);
        assert!((e.equivalent.l_delay_nm - 90.0).abs() < 20.0);
        let total_w: f64 = e.slices.iter().map(|s| s.w_nm).sum();
        let mean_cd = e.slices.iter().map(|s| s.w_nm * s.l_nm).sum::<f64>() / total_w;
        assert!((mean_cd - 90.0).abs() < 20.0);
        assert_eq!(e.equivalent.w_nm, 420.0);
    }

    #[test]
    fn leakage_length_at_most_delay_length() {
        let e = extract_finger(500);
        assert!(e.equivalent.l_leakage_nm <= e.equivalent.l_delay_nm + 1e-9);
    }

    #[test]
    fn short_endcap_shifts_equivalent_length_down() {
        // Insufficient endcap: line-end pullback intrudes into the channel,
        // the top slices narrow, and both equivalent lengths drop below the
        // long-finger case.
        let long = extract_finger(500);
        let short = extract_finger(240); // endcap only 30 nm past active
        assert!(
            short.equivalent.l_delay_nm < long.equivalent.l_delay_nm,
            "short endcap {} should be faster than long {}",
            short.equivalent.l_delay_nm,
            long.equivalent.l_delay_nm
        );
        assert!(short.equivalent.l_leakage_nm < long.equivalent.l_leakage_nm);
        assert!(short.delta_l_nm() < long.delta_l_nm());
    }
}
