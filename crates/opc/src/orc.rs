//! ORC — optical rule check (post-OPC verification).
//!
//! After correction, the mask is re-simulated and every target fragment's
//! residual EPE is measured; pinch checks guard against catastrophic CD
//! collapse. The residual-EPE distribution is exactly what experiment T1
//! reports, and the hotspot list is what a production flow would feed to
//! repair.

use crate::error::Result;
use crate::fragment::{FragmentSpec, FragmentedPolygon};
use crate::model::check_epe_search;
use postopc_geom::{Polygon, Rect};
use postopc_litho::{cutline, AerialImage, ResistModel, SimulationSpec};

/// Kind of verification violation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HotspotKind {
    /// Residual |EPE| above threshold.
    EpeViolation,
    /// Printed CD collapsed below the pinch limit (or feature missing).
    Pinch,
}

/// One verification violation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hotspot {
    /// Violation kind.
    pub kind: HotspotKind,
    /// Location (target-edge control point), in nm.
    pub x_nm: f64,
    /// Location y in nm.
    pub y_nm: f64,
    /// Measured value (EPE in nm, or printed CD for pinch).
    pub value: f64,
}

/// Verification thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrcConfig {
    /// |EPE| above this is a violation, in nm.
    pub epe_limit: f64,
    /// Printed CD below this fraction of drawn CD is a pinch.
    pub pinch_fraction: f64,
    /// Fragmentation used to place control points.
    pub fragment: FragmentSpec,
    /// EPE search range in nm.
    pub epe_search: f64,
}

impl OrcConfig {
    /// Production-style limits: 8 nm EPE, 60% pinch.
    pub fn standard() -> OrcConfig {
        OrcConfig {
            epe_limit: 8.0,
            pinch_fraction: 0.6,
            fragment: FragmentSpec::standard(),
            epe_search: 80.0,
        }
    }

    /// Validates the EPE search range.
    ///
    /// # Errors
    ///
    /// Returns [`crate::OpcError::InvalidEpeSearch`] unless `epe_search`
    /// is finite and positive.
    pub fn validate(&self) -> Result<()> {
        check_epe_search(self.epe_search)
    }
}

impl Default for OrcConfig {
    fn default() -> Self {
        OrcConfig::standard()
    }
}

/// Residual-error statistics and hotspot list of one verification run.
#[derive(Debug, Clone, PartialEq)]
pub struct OrcReport {
    /// Residual EPE samples (one per fragment control point), in nm.
    /// Missing contours are recorded at `-epe_search`.
    pub epes: Vec<f64>,
    /// Mean EPE in nm.
    pub mean_epe: f64,
    /// RMS EPE in nm.
    pub rms_epe: f64,
    /// Maximum |EPE| in nm.
    pub max_abs_epe: f64,
    /// Violations found.
    pub hotspots: Vec<Hotspot>,
}

impl OrcReport {
    /// Histogram of EPE values with the given bin width, as
    /// `(bin_center_nm, count)` pairs covering the observed range.
    pub fn histogram(&self, bin_nm: f64) -> Vec<(f64, usize)> {
        if self.epes.is_empty() || bin_nm <= 0.0 {
            return Vec::new();
        }
        let min = self.epes.iter().copied().fold(f64::MAX, f64::min);
        let max = self.epes.iter().copied().fold(f64::MIN, f64::max);
        let first_bin = (min / bin_nm).floor() as i64;
        let last_bin = (max / bin_nm).floor() as i64;
        let mut bins = vec![0usize; (last_bin - first_bin + 1) as usize];
        let last = bins.len() - 1;
        for &e in &self.epes {
            let b = ((e / bin_nm).floor() as i64 - first_bin) as usize;
            bins[b.min(last)] += 1;
        }
        bins.into_iter()
            .enumerate()
            .map(|(i, count)| (((first_bin + i as i64) as f64 + 0.5) * bin_nm, count))
            .collect()
    }
}

/// Verifies a corrected `mask` against its drawn `targets`.
///
/// `context` shapes are imaged but not measured. `window` must cover all
/// targets and the `epe_search` reach past their edges, since the image is
/// defined only inside it.
///
/// # Errors
///
/// Returns [`crate::OpcError::InvalidEpeSearch`] for an invalid
/// `epe_search`, or a litho error for invalid optics or a degenerate
/// window; EPE measurement failures are recorded as pinch hotspots, not
/// errors.
pub fn verify(
    config: &OrcConfig,
    sim: &SimulationSpec,
    resist: &ResistModel,
    targets: &[Polygon],
    mask: &[Polygon],
    context: &[Polygon],
    window: Rect,
) -> Result<OrcReport> {
    config.validate()?;
    let full_mask: Vec<Polygon> = mask.iter().chain(context.iter()).cloned().collect();
    let image = AerialImage::simulate(sim, &full_mask, window)?;
    let mut epes = Vec::new();
    let mut hotspots = Vec::new();
    for target in targets {
        let frag = FragmentedPolygon::new(target, &config.fragment)?;
        for fr in frag.fragments() {
            let pt = (fr.control.x as f64, fr.control.y as f64);
            let normal = (fr.outward.dx as f64, fr.outward.dy as f64);
            match cutline::edge_placement_error(&image, resist, pt, normal, config.epe_search) {
                Ok(epe) => {
                    epes.push(epe);
                    if epe.abs() > config.epe_limit {
                        hotspots.push(Hotspot {
                            kind: HotspotKind::EpeViolation,
                            x_nm: pt.0,
                            y_nm: pt.1,
                            value: epe,
                        });
                    }
                }
                Err(_) => {
                    epes.push(-config.epe_search);
                    hotspots.push(Hotspot {
                        kind: HotspotKind::Pinch,
                        x_nm: pt.0,
                        y_nm: pt.1,
                        value: 0.0,
                    });
                }
            }
        }
    }
    let n = epes.len().max(1) as f64;
    let mean = epes.iter().sum::<f64>() / n;
    let rms = (epes.iter().map(|e| e * e).sum::<f64>() / n).sqrt();
    let max_abs = epes.iter().map(|e| e.abs()).fold(0.0, f64::max);
    Ok(OrcReport {
        epes,
        mean_epe: mean,
        rms_epe: rms,
        max_abs_epe: max_abs,
        hotspots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{self, ModelOpcConfig};
    use crate::OpcError;

    fn line(x0: i64, x1: i64) -> Polygon {
        Polygon::from(Rect::new(x0, -300, x1, 300).expect("rect"))
    }

    fn window() -> Rect {
        Rect::new(-400, -450, 500, 450).expect("rect")
    }

    fn verify_mask(targets: &[Polygon], mask: &[Polygon]) -> OrcReport {
        verify(
            &OrcConfig::standard(),
            &SimulationSpec::nominal(),
            &ResistModel::standard(),
            targets,
            mask,
            &[],
            window(),
        )
        .expect("verify")
    }

    #[test]
    fn non_finite_or_non_positive_epe_search_is_rejected() {
        let targets = [line(-45, 45)];
        for value in [f64::INFINITY, f64::NAN, 0.0, -80.0] {
            let config = OrcConfig {
                epe_search: value,
                ..OrcConfig::standard()
            };
            let sim = SimulationSpec::nominal();
            let resist = ResistModel::standard();
            let err = verify(&config, &sim, &resist, &targets, &targets, &[], window())
                .expect_err("rejected");
            assert!(
                matches!(err, OpcError::InvalidEpeSearch { value: v } if v.to_bits() == value.to_bits()),
                "{err}"
            );
        }
    }

    #[test]
    fn uncorrected_mask_has_violations() {
        let targets = vec![line(-45, 45), line(-325, -235), line(235, 325)];
        let report = verify_mask(&targets, &targets);
        assert!(!report.epes.is_empty());
        assert!(
            !report.hotspots.is_empty(),
            "line-end pullback must violate uncorrected"
        );
        assert!(report.rms_epe > 3.0, "rms = {}", report.rms_epe);
    }

    #[test]
    fn model_corrected_mask_verifies_cleaner() {
        let targets = vec![line(-45, 45), line(-325, -235), line(235, 325)];
        let before = verify_mask(&targets, &targets);
        let result =
            model::correct(&ModelOpcConfig::standard(), &targets, &[], window()).expect("opc");
        let after = verify_mask(&targets, &result.corrected);
        assert!(after.rms_epe < before.rms_epe);
        assert!(after.max_abs_epe < before.max_abs_epe);
        assert!(after.hotspots.len() <= before.hotspots.len());
    }

    #[test]
    fn histogram_covers_all_samples() {
        let targets = vec![line(-45, 45)];
        let report = verify_mask(&targets, &targets);
        let hist = report.histogram(2.0);
        let total: usize = hist.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, report.epes.len());
        assert!(report.histogram(0.0).is_empty());
    }

    #[test]
    fn pinch_detected_for_missing_feature() {
        // Target drawn but mask empty: every control point is a pinch.
        let targets = vec![line(-45, 45)];
        let report = verify_mask(&targets, &[]);
        assert!(report.hotspots.iter().all(|h| h.kind == HotspotKind::Pinch));
        assert_eq!(report.hotspots.len(), report.epes.len());
    }
}
