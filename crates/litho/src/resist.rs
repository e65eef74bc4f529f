//! Constant-threshold resist model.

/// A constant-threshold resist: the printed pattern is the region where
/// dose-scaled aerial intensity exceeds the threshold.
///
/// The threshold is expressed relative to the normalized clear-feature
/// intensity of 1.0; 0.5 places the printed edge of a large isolated
/// feature at (approximately) the drawn edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResistModel {
    /// Intensity threshold (relative to large-feature intensity 1.0).
    pub threshold: f64,
}

impl ResistModel {
    /// The production threshold model.
    pub fn standard() -> ResistModel {
        ResistModel { threshold: 0.5 }
    }
}

impl Default for ResistModel {
    fn default() -> Self {
        ResistModel::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{AerialImage, SimulationSpec};
    use postopc_geom::{Polygon, Rect};

    #[test]
    fn prints_inside_not_outside() {
        let line = Polygon::from(Rect::new(-45, -600, 45, 600).expect("rect"));
        let img = AerialImage::simulate(
            &SimulationSpec::nominal(),
            &[line],
            Rect::new(-300, -300, 300, 300).expect("rect"),
        )
        .expect("image");
        let resist = ResistModel::standard();
        assert!(img.intensity_at(0.0, 0.0) >= resist.threshold);
        assert!(img.intensity_at(200.0, 0.0) < resist.threshold);
    }

    #[test]
    fn higher_dose_prints_wider() {
        let line = Polygon::from(Rect::new(-45, -600, 45, 600).expect("rect"));
        let window = Rect::new(-300, -300, 300, 300).expect("rect");
        let spec = SimulationSpec::nominal();
        let nominal =
            AerialImage::simulate(&spec, std::slice::from_ref(&line), window).expect("image");
        let over = AerialImage::simulate(
            &spec.with_conditions(crate::ProcessConditions {
                focus_nm: 0.0,
                dose: 1.25,
            }),
            &[line],
            window,
        )
        .expect("image");
        let resist = ResistModel::standard();
        // A probe just outside the nominal printed edge prints only at
        // the higher dose.
        let probe_x = 55.0;
        assert!(nominal.intensity_at(probe_x, 0.0) < resist.threshold);
        assert!(over.intensity_at(probe_x, 0.0) >= resist.threshold);
    }
}
