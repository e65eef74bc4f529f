//! Aerial image simulation.

use crate::error::Result;
use crate::kernels::KernelStack;
use crate::optics::{OpticsParams, ProcessConditions};
use crate::workspace::{self, SimWorkspace};
use postopc_geom::{Grid, PixelRect, Polygon, Rect};

/// Which kernel stack to image with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// Center-surround stack with proximity interactions (production).
    #[default]
    CenterSurround,
    /// Single Gaussian blur (ablation baseline).
    SingleGaussian,
}

/// Full specification of one imaging run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationSpec {
    /// Projection optics.
    pub optics: OpticsParams,
    /// Focus/dose conditions.
    pub conditions: ProcessConditions,
    /// Raster pixel size in nm (5 nm resolves all kernels comfortably).
    pub pixel_nm: f64,
    /// Kernel stack selection.
    pub kernel_mode: KernelMode,
}

impl SimulationSpec {
    /// Nominal-conditions spec at 5 nm/pixel with the production stack.
    pub fn nominal() -> SimulationSpec {
        SimulationSpec {
            optics: OpticsParams::default(),
            conditions: ProcessConditions::nominal(),
            pixel_nm: 5.0,
            kernel_mode: KernelMode::CenterSurround,
        }
    }

    /// The same spec at different conditions.
    pub fn with_conditions(&self, conditions: ProcessConditions) -> SimulationSpec {
        SimulationSpec {
            conditions,
            ..self.clone()
        }
    }

    /// The kernel stack this spec images with.
    pub fn kernel_stack(&self) -> KernelStack {
        match self.kernel_mode {
            KernelMode::CenterSurround => KernelStack::new(&self.optics, &self.conditions),
            KernelMode::SingleGaussian => {
                KernelStack::single_gaussian(&self.optics, &self.conditions)
            }
        }
    }
}

impl Default for SimulationSpec {
    fn default() -> Self {
        SimulationSpec::nominal()
    }
}

/// A simulated aerial image over a window of the layout.
///
/// Intensity is normalized so that the interior of a very large feature
/// images at `dose × 1.0`; the printed contour is where intensity crosses
/// the resist threshold. The image is defined only inside the simulated
/// window: reads outside it clamp to the window's edge pixels.
///
/// ```
/// use postopc_litho::{AerialImage, SimulationSpec};
/// use postopc_geom::{Polygon, Rect};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let line = Polygon::from(Rect::new(-45, -400, 45, 400)?);
/// let image = AerialImage::simulate(&SimulationSpec::nominal(), &[line], Rect::new(-200, -200, 200, 200)?)?;
/// // Bright inside the feature, dark far away.
/// assert!(image.intensity_at(0.0, 0.0) > image.intensity_at(190.0, 0.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AerialImage {
    grid: Grid,
    /// The pixels of `grid` the engine computed: every pixel a bilinear
    /// read of a point inside the window uses.
    defined: PixelRect,
    dose: f64,
}

impl AerialImage {
    /// Images `mask` polygons over `window`.
    ///
    /// The caller should pass every polygon within the optical ambit
    /// (≈ 3σ of the widest kernel, see [`KernelStack::ambit_nm`]) of the
    /// window; the raster is automatically padded by the ambit so border
    /// features image correctly.
    ///
    /// The image is defined only inside `window`: the engine computes just
    /// the pixels a read inside it uses, and [`AerialImage::intensity_at`]
    /// clamps any read outside it to the window's edge pixels.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid optics or a degenerate window.
    pub fn simulate(spec: &SimulationSpec, mask: &[Polygon], window: Rect) -> Result<AerialImage> {
        workspace::with_thread_workspace(|ws| AerialImage::simulate_with(ws, spec, mask, window))
    }

    /// [`AerialImage::simulate`] with caller-owned scratch state.
    ///
    /// The workspace's base grid and convolution buffers are reused across
    /// calls and its tap cache persists, so a loop that images many windows
    /// (model OPC, extraction, FEM sweeps) allocates only the returned
    /// intensity grid per call. Results are bit-identical to
    /// [`AerialImage::simulate`] — both run this engine, `simulate` merely
    /// borrows a per-thread workspace.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid optics or a degenerate window.
    pub fn simulate_with(
        workspace: &mut SimWorkspace,
        spec: &SimulationSpec,
        mask: &[Polygon],
        window: Rect,
    ) -> Result<AerialImage> {
        spec.optics.validate()?;
        spec.conditions.validate()?;
        let stack = spec.kernel_stack();
        let margin = stack.ambit_nm().ceil() as i64;
        let base = workspace.base_grid(window, margin, spec.pixel_nm)?;
        for polygon in mask {
            base.add_polygon(polygon, 1.0);
        }
        // Split the workspace so the base grid (read), tap cache (borrowed
        // slices) and convolution scratch (written) coexist.
        let SimWorkspace {
            base,
            scratch,
            taps,
        } = workspace;
        let Some(base) = base.as_ref() else {
            unreachable!("base grid built by base_grid() above");
        };
        let defined = base.sample_footprint(window);
        let mut intensity = vec![0.0; base.len()];
        for kernel in stack.kernels() {
            let kernel_taps = taps.taps(kernel, spec.pixel_nm);
            base.convolve_separable_scaled_into(
                kernel_taps,
                kernel.weight,
                defined,
                &mut intensity,
                scratch,
            );
        }
        Ok(AerialImage {
            grid: base.with_data(intensity),
            defined,
            dose: spec.conditions.dose,
        })
    }

    /// Dose-scaled intensity at a position (bilinear sampled).
    ///
    /// Defined inside the simulated window, where every read is bit-for-bit
    /// the read of a whole-raster image. A position outside the window
    /// clamps to the nearest computed pixels, as a position outside the
    /// raster clamps to its edge.
    pub fn intensity_at(&self, x_nm: f64, y_nm: f64) -> f64 {
        self.dose * self.grid.sample(x_nm, y_nm, self.defined)
    }

    /// The underlying (dose-free) intensity grid, on the lattice of the
    /// ambit-padded raster. Only the pixels reads inside the simulated
    /// window use are filled; the rest of the grid is zero.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The dose this image was exposed at.
    pub fn dose(&self) -> f64 {
        self.dose
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use postopc_geom::{Coord, Point};

    fn line(x0: Coord, x1: Coord) -> Polygon {
        Polygon::from(Rect::new(x0, -600, x1, 600).expect("rect"))
    }

    fn window() -> Rect {
        Rect::new(-300, -300, 300, 300).expect("rect")
    }

    #[test]
    fn clear_field_normalizes_to_one() {
        // A huge feature: interior intensity must be ~1.0.
        let big = Polygon::from(Rect::new(-2000, -2000, 2000, 2000).expect("rect"));
        let img =
            AerialImage::simulate(&SimulationSpec::nominal(), &[big], window()).expect("image");
        let v = img.intensity_at(0.0, 0.0);
        assert!((v - 1.0).abs() < 1e-3, "interior intensity = {v}");
    }

    #[test]
    fn empty_mask_images_dark() {
        let img = AerialImage::simulate(&SimulationSpec::nominal(), &[], window()).expect("image");
        assert!(img.intensity_at(0.0, 0.0).abs() < 1e-9);
    }

    #[test]
    fn isolated_line_profile_shape() {
        let img = AerialImage::simulate(&SimulationSpec::nominal(), &[line(-45, 45)], window())
            .expect("image");
        let center = img.intensity_at(0.0, 0.0);
        let edge = img.intensity_at(45.0, 0.0);
        let far = img.intensity_at(280.0, 0.0);
        assert!(center > edge, "center {center} <= edge {edge}");
        assert!(edge > far, "edge {edge} <= far {far}");
        assert!(center > 0.5, "90 nm line must print: center = {center}");
        // The negative surround makes the far field slightly negative (dark
        // ring) rather than monotone.
        assert!(far < 0.05, "far field = {far}");
    }

    #[test]
    fn dense_context_changes_edge_intensity() {
        // Iso vs dense (pitch 280): proximity must move the edge intensity.
        let iso = AerialImage::simulate(&SimulationSpec::nominal(), &[line(-45, 45)], window())
            .expect("image");
        let dense_mask = vec![line(-45, 45), line(-325, -235), line(235, 325)];
        let dense = AerialImage::simulate(&SimulationSpec::nominal(), &dense_mask, window())
            .expect("image");
        let iso_edge = iso.intensity_at(45.0, 0.0);
        let dense_edge = dense.intensity_at(45.0, 0.0);
        assert!(
            (iso_edge - dense_edge).abs() > 0.005,
            "no iso-dense interaction: iso {iso_edge} vs dense {dense_edge}"
        );
    }

    #[test]
    fn single_gaussian_has_weaker_proximity() {
        let dense_mask = vec![line(-45, 45), line(-325, -235), line(235, 325)];
        let mut spec = SimulationSpec::nominal();
        let full = AerialImage::simulate(&spec, &dense_mask, window()).expect("image");
        spec.kernel_mode = KernelMode::SingleGaussian;
        let single = AerialImage::simulate(&spec, &dense_mask, window()).expect("image");
        let iso_mask = vec![line(-45, 45)];
        let full_iso =
            AerialImage::simulate(&SimulationSpec::nominal(), &iso_mask, window()).expect("image");
        let single_iso = AerialImage::simulate(&spec, &iso_mask, window()).expect("image");
        let prox_full = (full.intensity_at(45.0, 0.0) - full_iso.intensity_at(45.0, 0.0)).abs();
        let prox_single =
            (single.intensity_at(45.0, 0.0) - single_iso.intensity_at(45.0, 0.0)).abs();
        assert!(
            prox_full > prox_single,
            "center-surround proximity {prox_full} should exceed single-Gaussian {prox_single}"
        );
    }

    #[test]
    fn dose_scales_intensity_linearly() {
        let spec = SimulationSpec::nominal();
        let over = spec.with_conditions(ProcessConditions {
            focus_nm: 0.0,
            dose: 1.1,
        });
        let a = AerialImage::simulate(&spec, &[line(-45, 45)], window()).expect("image");
        let b = AerialImage::simulate(&over, &[line(-45, 45)], window()).expect("image");
        let ratio = b.intensity_at(0.0, 0.0) / a.intensity_at(0.0, 0.0);
        assert!((ratio - 1.1).abs() < 1e-9, "ratio = {ratio}");
    }

    #[test]
    fn defocus_reduces_peak_intensity() {
        let spec = SimulationSpec::nominal();
        let blur = spec.with_conditions(ProcessConditions {
            focus_nm: 200.0,
            dose: 1.0,
        });
        let a = AerialImage::simulate(&spec, &[line(-45, 45)], window()).expect("image");
        let b = AerialImage::simulate(&blur, &[line(-45, 45)], window()).expect("image");
        assert!(b.intensity_at(0.0, 0.0) < a.intensity_at(0.0, 0.0));
    }

    #[test]
    fn line_end_pullback_signal_exists() {
        // A finite line: intensity at the drawn line-end must be lower than
        // at the line middle edge (the line-end pullback driver).
        let short = Polygon::from(Rect::new(-45, -200, 45, 200).expect("rect"));
        let img =
            AerialImage::simulate(&SimulationSpec::nominal(), &[short], window()).expect("image");
        let end = img.intensity_at(0.0, 200.0);
        let side = img.intensity_at(45.0, 0.0);
        assert!(
            end < side,
            "line-end {end} should be dimmer than side edge {side}"
        );
        let _ = Point::new(0, 0); // keep Point import used in this module
    }

    /// The pre-workspace engine (clone per kernel, re-discretize per call,
    /// `zip_map` accumulation, every pixel of the padded raster), kept as
    /// the bit-identity reference for the fused window-restricted engine.
    pub(crate) fn simulate_reference(
        spec: &SimulationSpec,
        mask: &[Polygon],
        window: Rect,
    ) -> AerialImage {
        spec.optics.validate().expect("valid optics");
        let stack = spec.kernel_stack();
        let margin = stack.ambit_nm().ceil() as i64;
        let mut base = Grid::new(window, margin, spec.pixel_nm).expect("grid");
        for polygon in mask {
            base.add_polygon(polygon, 1.0);
        }
        let mut result: Option<Grid> = None;
        for kernel in stack.kernels() {
            let taps = KernelStack::discretize(kernel, spec.pixel_nm);
            let mut field = base.clone();
            field.convolve_separable(&taps);
            field.map_inplace(|v| v * kernel.weight);
            result = Some(match result {
                None => field,
                Some(acc) => acc.zip_map(&field, |a, b| a + b),
            });
        }
        let grid = result.expect("stack has at least one kernel");
        AerialImage {
            defined: grid.extent(),
            grid,
            dose: spec.conditions.dose,
        }
    }

    /// A fixed-seed farm-like window: parallel lines at jittered pitches
    /// with a couple of stubs, the mask-population class extraction images.
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
            mask.push(Polygon::from(
                Rect::new(x, y0, x + width, y1).expect("rect"),
            ));
            x += width + rng.random_range(120i64..=260);
        }
        mask
    }

    #[test]
    fn fused_engine_is_bit_identical_to_reference_engine() {
        let mask = seeded_farm_mask(11);
        let window = Rect::new(-500, -400, 500, 400).expect("rect");
        let off_nominal = ProcessConditions {
            focus_nm: 40.0,
            dose: 1.01,
        };
        let defocused = ProcessConditions {
            focus_nm: 200.0,
            dose: 1.0,
        };
        let specs = [
            SimulationSpec::nominal(),
            SimulationSpec::nominal().with_conditions(off_nominal),
            SimulationSpec::nominal().with_conditions(defocused),
            SimulationSpec {
                kernel_mode: KernelMode::SingleGaussian,
                ..SimulationSpec::nominal()
            },
            SimulationSpec {
                pixel_nm: 2.5,
                ..SimulationSpec::nominal()
            },
        ];
        let mut ws = SimWorkspace::new();
        for spec in &specs {
            let reference = simulate_reference(spec, &mask, window);
            let fused = AerialImage::simulate(spec, &mask, window).expect("image");
            let label = format!("{:?} at {} nm", spec.conditions, spec.pixel_nm);
            // Same lattice; every computed pixel equals the whole-raster one.
            let (grid, rect) = (fused.grid(), fused.defined);
            assert_eq!(grid.extent(), reference.grid().extent(), "{label}");
            for iy in rect.y0..rect.y1 {
                for ix in rect.x0..rect.x1 {
                    assert_eq!(
                        grid.at(ix, iy).to_bits(),
                        reference.grid().at(ix, iy).to_bits(),
                        "pixel ({ix},{iy}) diverged for {label}"
                    );
                }
            }
            // Every read on a dense lattice over the window, its boundary
            // included, equals the whole-raster read.
            let (left, bottom) = (window.left() as f64, window.bottom() as f64);
            let (w, h) = (window.width() as f64, window.height() as f64);
            let n = 97;
            for i in 0..=n {
                for j in 0..=n {
                    let x = left + w * i as f64 / n as f64;
                    let y = bottom + h * j as f64 / n as f64;
                    assert_eq!(
                        fused.intensity_at(x, y).to_bits(),
                        reference.intensity_at(x, y).to_bits(),
                        "read ({x}, {y}) diverged for {label}"
                    );
                }
            }
            // Reads outside the window clamp to the computed rectangle's
            // edge pixels.
            let center = |i: usize, origin: i64| origin as f64 + (i as f64 + 0.5) * spec.pixel_nm;
            let origin = grid.origin();
            let (x_lo, x_hi) = (center(rect.x0, origin.x), center(rect.x1 - 1, origin.x));
            let (y_lo, y_hi) = (center(rect.y0, origin.y), center(rect.y1 - 1, origin.y));
            for (x, y) in [
                (left - 300.0, 17.0),
                (left + w + 250.0, -120.0),
                (-33.0, bottom - 399.0),
                (210.0, bottom + h + 1e6),
                (-1e9, 1e9),
            ] {
                assert_eq!(
                    fused.intensity_at(x, y).to_bits(),
                    fused
                        .intensity_at(x.clamp(x_lo, x_hi), y.clamp(y_lo, y_hi))
                        .to_bits(),
                    "outside read ({x}, {y}) for {label}"
                );
            }
            let with_ws = AerialImage::simulate_with(&mut ws, spec, &mask, window).expect("image");
            assert_eq!(with_ws, fused, "explicit-workspace path diverged");
        }
    }

    #[test]
    fn workspace_reuse_across_windows_matches_fresh_workspaces() {
        // One workspace across windows of different shapes and conditions
        // must match a fresh workspace per window (stale-buffer detector).
        let mask = seeded_farm_mask(23);
        let windows = [
            Rect::new(-500, -400, 500, 400).expect("rect"),
            Rect::new(-100, -350, 250, 350).expect("rect"),
            Rect::new(-500, -400, 500, 400).expect("rect"),
            Rect::new(0, 0, 90, 600).expect("rect"),
        ];
        let spec = SimulationSpec::nominal();
        let blur = spec.with_conditions(ProcessConditions {
            focus_nm: 80.0,
            dose: 0.98,
        });
        let mut shared = SimWorkspace::new();
        for (i, &window) in windows.iter().enumerate() {
            let spec = if i % 2 == 0 { &spec } else { &blur };
            let reused =
                AerialImage::simulate_with(&mut shared, spec, &mask, window).expect("image");
            let fresh = AerialImage::simulate_with(&mut SimWorkspace::new(), spec, &mask, window)
                .expect("image");
            assert_eq!(reused, fresh, "window {i} diverged under workspace reuse");
        }
    }
}
