//! Model-based OPC: iterative edge correction driven by aerial-image
//! simulation.
//!
//! The classic damped-feedback loop: simulate the current mask, measure
//! the edge placement error of every fragment against its drawn target,
//! move each fragment along its normal by `-gain × EPE`, repeat. All
//! target polygons in the job are corrected *simultaneously* so that
//! corrections interact through the image, as in production OPC.

use crate::error::{OpcError, Result};
use crate::fragment::{FragmentSpec, FragmentedPolygon};
use postopc_geom::{Coord, Polygon, Rect};
use postopc_litho::{cutline, AerialImage, ResistModel, SimulationSpec};

/// Configuration of the model-based corrector.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelOpcConfig {
    /// Feedback iterations.
    pub iterations: usize,
    /// Fraction of the measured EPE corrected per iteration (damping).
    pub gain: f64,
    /// Maximum cumulative fragment move in nm (mask-rule constraint).
    pub max_move: Coord,
    /// Fragmentation parameters.
    pub fragment: FragmentSpec,
    /// Imaging model used inside the loop.
    pub sim: SimulationSpec,
    /// Resist threshold model.
    pub resist: ResistModel,
    /// EPE search range in nm.
    pub epe_search: f64,
}

impl ModelOpcConfig {
    /// Production-style settings: 6 iterations, 0.6 gain, 20 nm move cap.
    pub fn standard() -> ModelOpcConfig {
        ModelOpcConfig {
            iterations: 6,
            gain: 0.6,
            max_move: 20,
            fragment: FragmentSpec::standard(),
            sim: SimulationSpec::nominal(),
            resist: ResistModel::standard(),
            epe_search: 80.0,
        }
    }

    /// Validates the settings [`correct`] cannot run with.
    ///
    /// # Errors
    ///
    /// Returns [`OpcError::InvalidEpeSearch`] unless `epe_search` is finite
    /// and positive, [`OpcError::InvalidMaxMove`] for a negative
    /// `max_move` (the move clamp would have no range) and
    /// [`OpcError::InvalidGain`] for a non-finite `gain` (an infinite one
    /// turns every measured EPE into a saturated move, NaN into none).
    pub fn validate(&self) -> Result<()> {
        check_epe_search(self.epe_search)?;
        if self.max_move < 0 {
            return Err(OpcError::InvalidMaxMove {
                value: self.max_move,
            });
        }
        if !self.gain.is_finite() {
            return Err(OpcError::InvalidGain { value: self.gain });
        }
        Ok(())
    }
}

/// An EPE search must reach a finite, positive distance: an infinite one
/// never returns on a feature printed to the window edge, and NaN or a
/// non-positive one measures nothing.
pub(crate) fn check_epe_search(value: f64) -> Result<()> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        Err(OpcError::InvalidEpeSearch { value })
    }
}

impl Default for ModelOpcConfig {
    fn default() -> Self {
        ModelOpcConfig::standard()
    }
}

/// Cost and convergence record of a correction run.
#[derive(Debug, Clone, PartialEq)]
pub struct OpcReport {
    /// Aerial-image simulations performed.
    pub simulations: usize,
    /// Individual fragment moves applied.
    pub fragment_moves: usize,
    /// Total fragments under correction.
    pub fragments: usize,
    /// Maximum |EPE| (nm) measured at the start of each iteration —
    /// a convergence trace.
    pub max_epe_history: Vec<f64>,
}

/// Result of model-based correction.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelOpcResult {
    /// Corrected mask polygons, parallel to the input targets.
    pub corrected: Vec<Polygon>,
    /// Cost/convergence report.
    pub report: OpcReport,
}

/// Applies model-based OPC to `targets` with frozen `context` geometry.
///
/// `window` must cover all targets and the `epe_search` reach past their
/// edges, since the image is defined only inside it; it is padded
/// internally by the optical ambit.
///
/// # Errors
///
/// Returns the [`ModelOpcConfig::validate`] errors for an invalid
/// configuration, [`OpcError::DegenerateCorrection`] if a polygon cannot
/// be rebuilt even after clamping (pathological fragmentation), or a
/// litho error for invalid optics.
pub fn correct(
    config: &ModelOpcConfig,
    targets: &[Polygon],
    context: &[Polygon],
    window: Rect,
) -> Result<ModelOpcResult> {
    config.validate()?;
    let fragmented: Vec<FragmentedPolygon> = targets
        .iter()
        .map(|t| FragmentedPolygon::new(t, &config.fragment))
        .collect::<Result<_>>()?;
    let total_fragments: usize = fragmented.iter().map(|f| f.len()).sum();
    let mut offsets: Vec<Vec<Coord>> = fragmented.iter().map(|f| vec![0; f.len()]).collect();
    // The mask the loop images: the corrected targets first, each replaced
    // in place when rebuilt, then the frozen context.
    let mut mask: Vec<Polygon> = targets.iter().chain(context).cloned().collect();
    let mut report = OpcReport {
        simulations: 0,
        fragment_moves: 0,
        fragments: total_fragments,
        max_epe_history: Vec::with_capacity(config.iterations),
    };

    for _iter in 0..config.iterations {
        let image = AerialImage::simulate(&config.sim, &mask, window)?;
        report.simulations += 1;
        let mut max_epe = 0.0_f64;
        for (pi, frag) in fragmented.iter().enumerate() {
            for (fi, fr) in frag.fragments().iter().enumerate() {
                let target_pt = (fr.control.x as f64, fr.control.y as f64);
                let normal = (fr.outward.dx as f64, fr.outward.dy as f64);
                let epe = cutline::edge_placement_error(
                    &image,
                    &config.resist,
                    target_pt,
                    normal,
                    config.epe_search,
                )
                // A missing contour means the feature pinched away locally:
                // treat as maximal pullback so the loop pushes the mask out.
                .unwrap_or(-config.epe_search);
                max_epe = max_epe.max(epe.abs());
                let delta = (-config.gain * epe).round() as Coord;
                if delta != 0 {
                    // The cast saturates and so does the sum, so no finite
                    // gain overflows before the clamp.
                    offsets[pi][fi] = offsets[pi][fi]
                        .saturating_add(delta)
                        .clamp(-config.max_move, config.max_move);
                    report.fragment_moves += 1;
                }
            }
            // Rebuild; on degeneracy, progressively halve this polygon's
            // offsets until the contour is valid again.
            mask[pi] = rebuild_with_backoff(frag, &mut offsets[pi], pi)?;
        }
        report.max_epe_history.push(max_epe);
    }
    mask.truncate(targets.len());
    Ok(ModelOpcResult {
        corrected: mask,
        report,
    })
}

/// Rebuilds a polygon from offsets, halving the offsets up to 4 times if
/// the contour degenerates.
fn rebuild_with_backoff(
    frag: &FragmentedPolygon,
    offsets: &mut [Coord],
    polygon_index: usize,
) -> Result<Polygon> {
    for _ in 0..4 {
        match frag.apply_offsets(offsets) {
            Ok(p) => return Ok(p),
            Err(_) => {
                for o in offsets.iter_mut() {
                    *o /= 2;
                }
            }
        }
    }
    match frag.apply_offsets(offsets) {
        Ok(p) => Ok(p),
        Err(_) => Err(OpcError::DegenerateCorrection {
            polygon: polygon_index,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use postopc_litho::cutline::edge_placement_error;

    fn line(x0: Coord, x1: Coord, y0: Coord, y1: Coord) -> Polygon {
        Polygon::from(Rect::new(x0, y0, x1, y1).expect("rect"))
    }

    fn window() -> Rect {
        Rect::new(-400, -500, 500, 500).expect("rect")
    }

    /// RMS EPE of a mask against its targets at nominal conditions.
    fn rms_epe(targets: &[Polygon], mask: &[Polygon]) -> f64 {
        let cfg = ModelOpcConfig::standard();
        let image = AerialImage::simulate(&cfg.sim, mask, window()).expect("image");
        let mut sum = 0.0;
        let mut n = 0;
        for t in targets {
            let frag = FragmentedPolygon::new(t, &cfg.fragment).expect("fragment");
            for fr in frag.fragments() {
                let epe = edge_placement_error(
                    &image,
                    &cfg.resist,
                    (fr.control.x as f64, fr.control.y as f64),
                    (fr.outward.dx as f64, fr.outward.dy as f64),
                    cfg.epe_search,
                )
                .unwrap_or(-cfg.epe_search);
                sum += epe * epe;
                n += 1;
            }
        }
        (sum / n as f64).sqrt()
    }

    #[test]
    fn non_finite_or_non_positive_epe_search_is_rejected() {
        let targets = [line(-45, 45, -300, 300)];
        for value in [f64::INFINITY, f64::NAN, 0.0, -80.0] {
            let cfg = ModelOpcConfig {
                epe_search: value,
                ..ModelOpcConfig::standard()
            };
            let err = correct(&cfg, &targets, &[], window()).expect_err("rejected");
            assert!(
                matches!(err, OpcError::InvalidEpeSearch { value: v } if v.to_bits() == value.to_bits()),
                "{err}"
            );
            assert!(cfg.validate().is_err());
        }
        assert!(ModelOpcConfig::standard().validate().is_ok());
    }

    #[test]
    fn a_negative_move_cap_or_a_non_finite_gain_is_rejected() {
        let targets = [line(-45, 45, -300, 300)];
        let capped = ModelOpcConfig {
            max_move: -5,
            ..ModelOpcConfig::standard()
        };
        let err = correct(&capped, &targets, &[], window()).expect_err("rejected");
        assert_eq!(err, OpcError::InvalidMaxMove { value: -5 });
        for gain in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let cfg = ModelOpcConfig {
                gain,
                ..ModelOpcConfig::standard()
            };
            let err = correct(&cfg, &targets, &[], window()).expect_err("rejected");
            assert!(
                matches!(err, OpcError::InvalidGain { value } if value.to_bits() == gain.to_bits()),
                "{err}"
            );
        }
        // A zero cap freezes the mask; it is valid.
        let frozen = ModelOpcConfig {
            max_move: 0,
            ..ModelOpcConfig::standard()
        };
        let result = correct(&frozen, &targets, &[], window()).expect("opc");
        assert_eq!(result.corrected[0].bbox(), targets[0].bbox());
        assert_eq!(result.corrected[0].area(), targets[0].area());
    }

    #[test]
    fn a_huge_finite_gain_saturates_at_the_move_cap() {
        // Every nonzero EPE becomes a move past `i64`'s range, which the
        // update saturates and the cap clamps.
        let cfg = ModelOpcConfig {
            gain: 1e300,
            ..ModelOpcConfig::standard()
        };
        let targets = vec![line(-45, 45, -300, 300)];
        let result = correct(&cfg, &targets, &[], window()).expect("opc");
        assert!(result.report.fragment_moves > 0);
        let (t, c) = (targets[0].bbox(), result.corrected[0].bbox());
        for (a, b) in [
            (c.left(), t.left()),
            (c.right(), t.right()),
            (c.bottom(), t.bottom()),
            (c.top(), t.top()),
        ] {
            assert!((a - b).abs() <= cfg.max_move, "{c:?} vs {t:?}");
        }
    }

    /// A seeded farm-like window: parallel lines at jittered pitches, some
    /// of them ending inside the window.
    fn seeded_farm_mask(seed: u64) -> Vec<Polygon> {
        use postopc_rng::{RngExt, SeedableRng};
        let mut rng = postopc_rng::StdRng::seed_from_u64(seed);
        let mut mask = Vec::new();
        let mut x = -600i64;
        while x < 600 {
            let width = rng.random_range(70i64..=110);
            let (y0, y1) = if rng.random_range(0u32..4) == 0 {
                (
                    -rng.random_range(100i64..=300),
                    rng.random_range(100i64..=300),
                )
            } else {
                (-600, 600)
            };
            mask.push(line(x, x + width, y0, y1));
            x += width + rng.random_range(120i64..=260);
        }
        mask
    }

    #[test]
    fn model_opc_computes_at_most_55_percent_of_the_row_passes_it_asks_for() {
        // The imaging engine takes the pass of a row an image shares with
        // the previous image on the thread (or with another row of its
        // own) instead of convolving it. Over a correction loop, where
        // most fragments settle after the first moves, most rows repeat.
        let mask = seeded_farm_mask(11);
        let (targets, context) = mask.split_at(mask.len() / 2);
        let window = Rect::new(-500, -400, 500, 400).expect("rect");
        let before = AerialImage::thread_row_passes();
        let result = correct(&ModelOpcConfig::standard(), targets, context, window).expect("opc");
        let after = AerialImage::thread_row_passes();
        let (requested, computed) = (
            after.requested - before.requested,
            after.computed - before.computed,
        );
        assert_eq!(result.report.simulations, 6);
        assert!(result.report.fragment_moves > 0);
        assert!(
            requested > 0 && computed * 100 <= requested * 55,
            "{computed} of {requested} row passes computed"
        );
    }

    #[test]
    fn correction_reduces_epe() {
        // A finite line plus dense neighbours: pullback + proximity.
        let targets = vec![
            line(-45, 45, -300, 300),
            line(-325, -235, -300, 300),
            line(235, 325, -300, 300),
        ];
        let uncorrected = rms_epe(&targets, &targets);
        let result = correct(&ModelOpcConfig::standard(), &targets, &[], window()).expect("opc");
        let corrected = rms_epe(&targets, &result.corrected);
        assert!(
            corrected < 0.6 * uncorrected,
            "model OPC must cut RMS EPE: {uncorrected:.2} -> {corrected:.2} nm"
        );
    }

    #[test]
    fn convergence_trace_is_recorded_and_improves() {
        let targets = vec![line(-45, 45, -300, 300)];
        let result = correct(&ModelOpcConfig::standard(), &targets, &[], window()).expect("opc");
        let h = &result.report.max_epe_history;
        assert_eq!(h.len(), ModelOpcConfig::standard().iterations);
        assert!(
            h.last().expect("non-empty") < h.first().expect("non-empty"),
            "max EPE should shrink: {h:?}"
        );
        assert!(result.report.simulations == h.len());
        assert!(result.report.fragment_moves > 0);
    }

    #[test]
    fn moves_respect_mask_rule_cap() {
        let cfg = ModelOpcConfig {
            max_move: 5,
            ..ModelOpcConfig::standard()
        };
        let targets = vec![line(-45, 45, -300, 300)];
        let result = correct(&cfg, &targets, &[], window()).expect("opc");
        // Every corrected vertex within max_move of some target edge:
        // cheap proxy — bbox cannot grow by more than max_move per side.
        let t = targets[0].bbox();
        let c = result.corrected[0].bbox();
        assert!((c.left() - t.left()).abs() <= 5);
        assert!((c.right() - t.right()).abs() <= 5);
        assert!((c.top() - t.top()).abs() <= 5);
        assert!((c.bottom() - t.bottom()).abs() <= 5);
    }

    #[test]
    fn corrected_masks_stay_simple() {
        let targets = vec![
            line(-45, 45, -300, 300),
            line(-325, -235, -200, 400),
            line(235, 325, -400, 200),
        ];
        let result = correct(&ModelOpcConfig::standard(), &targets, &[], window()).expect("opc");
        for p in &result.corrected {
            assert!(p.is_simple(), "corrected mask self-intersects");
        }
    }

    #[test]
    fn context_is_left_uncorrected_but_influences() {
        let targets = vec![line(-45, 45, -300, 300)];
        let context = vec![line(-325, -235, -300, 300)];
        let with_ctx =
            correct(&ModelOpcConfig::standard(), &targets, &context, window()).expect("opc");
        let without = correct(&ModelOpcConfig::standard(), &targets, &[], window()).expect("opc");
        assert_eq!(with_ctx.corrected.len(), 1);
        assert_ne!(
            with_ctx.corrected[0], without.corrected[0],
            "context must change the correction"
        );
    }
}
