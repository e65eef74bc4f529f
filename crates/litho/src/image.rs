//! Aerial image simulation.

use crate::error::Result;
use crate::kernels::KernelStack;
use crate::optics::{OpticsParams, ProcessConditions};
use crate::workspace::{self, SimWorkspace};
use postopc_geom::{Grid, Lattice, PixelRect, Polygon, Rect, RowField, RowPasses};
use std::cell::Cell;
use std::sync::Arc;

/// The corners of an interpolation cell and their dose-free intensities.
type EvaluatedCell = ([usize; 2], [usize; 2], [[f64; 2]; 2]);

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
/// The image is lazy. Simulation rasterizes the mask and runs each
/// kernel's row pass, once per distinct class row, taking from the
/// previous image on the same thread the passes of rows it shares with
/// that image; a read runs the column pass of the four pixels of the
/// interpolation cell it falls in, both rows in one loop, and the last
/// cell evaluated is kept for the next read. Every pixel is the same
/// computation in the same floating-point order whenever it runs, so an
/// image reads the same bits whatever was imaged or read before. The
/// kept cell makes the image `!Sync`.
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
#[derive(Debug, Clone)]
pub struct AerialImage {
    /// The lattice of the ambit-padded raster.
    lattice: Lattice,
    /// The pixels a bilinear read of a point inside the window uses: the
    /// only pixels the image evaluates.
    defined: PixelRect,
    dose: f64,
    /// Each kernel's weight and row pass over `defined`, in stack order,
    /// shared with the workspace that imaged it while it is the last
    /// image there.
    fields: Arc<[(f64, RowField)]>,
    /// A bound on how fast a read changes per nm moved along either axis
    /// (see [`AerialImage::new`]).
    slope: f64,
    /// The last cell evaluated.
    last: Cell<Option<EvaluatedCell>>,
    /// How many cells this image has evaluated.
    evaluated: Cell<usize>,
}

impl PartialEq for AerialImage {
    /// Two images are equal when they compute the same pixels; the slope
    /// bound and what has been evaluated so far do not matter.
    fn eq(&self, other: &AerialImage) -> bool {
        self.lattice == other.lattice
            && self.defined == other.defined
            && self.dose == other.dose
            && self.fields == other.fields
    }
}

impl AerialImage {
    /// Images `mask` polygons over `window`.
    ///
    /// The caller should pass every polygon within the optical ambit
    /// (≈ 3σ of the widest kernel, see [`KernelStack::ambit_nm`]) of the
    /// window; the raster is automatically padded by the ambit so border
    /// features image correctly.
    ///
    /// The image is defined only inside `window`: the engine evaluates only
    /// the pixels each read uses, when it reads them, and
    /// [`AerialImage::intensity_at`] clamps any read outside it to the
    /// window's edge pixels.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid optics or a degenerate window.
    pub fn simulate(spec: &SimulationSpec, mask: &[Polygon], window: Rect) -> Result<AerialImage> {
        workspace::with_thread_workspace(|ws| AerialImage::simulate_with(ws, spec, mask, window))
    }

    /// [`AerialImage::simulate`] with caller-owned scratch state.
    ///
    /// Decomposes `mask` into rectangles, rasterizes them into the
    /// workspace's row classes (one row per run of identical rows of the
    /// ambit-padded raster, buffers reused across calls) and runs each
    /// kernel's row pass over the window's
    /// pixels once per distinct class row, copying the pass of a row the
    /// workspace's last image computed with the same taps and output
    /// columns (see [`SimWorkspace`]); the column pass is left to the
    /// reads. The workspace's tap cache persists, so a loop that images
    /// many windows (model OPC, extraction) discretizes each kernel once.
    /// Results are bit-identical to [`AerialImage::simulate`] — both run
    /// this engine, `simulate` merely borrows a per-thread workspace —
    /// and to imaging on a fresh workspace.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid optics or a degenerate window.
    pub(crate) fn simulate_with(
        workspace: &mut SimWorkspace,
        spec: &SimulationSpec,
        mask: &[Polygon],
        window: Rect,
    ) -> Result<AerialImage> {
        spec.optics.validate()?;
        spec.conditions.validate()?;
        let stack = spec.kernel_stack();
        let margin = stack.ambit_nm().ceil() as i64;
        let SimWorkspace {
            rects,
            rect_scratch,
            classes,
            spare,
            last,
            taps,
            passes,
        } = workspace;
        rects.clear();
        for polygon in mask {
            polygon.push_rects(rect_scratch, rects);
        }
        spare.rasterize(window, margin, spec.pixel_nm, rects.iter().copied())?;
        let lattice = spare.lattice();
        let defined = lattice.sample_footprint(window);
        let fields: Arc<[(f64, RowField)]> = stack
            .kernels()
            .iter()
            .map(|kernel| {
                let kernel_taps = taps.taps(kernel, spec.pixel_nm);
                let earlier = last.iter().map(|(_, field)| field);
                let field = spare.row_field(kernel_taps, defined, classes, earlier);
                passes.requested += field.passes().requested;
                passes.computed += field.passes().computed;
                (kernel.weight, field)
            })
            .collect();
        // This image becomes the memo.
        std::mem::swap(classes, spare);
        *last = Arc::clone(&fields);
        Ok(AerialImage::new(
            lattice,
            defined,
            spec.conditions.dose,
            fields,
            classes.max_coverage(),
        ))
    }

    /// The row passes the images simulated through
    /// [`AerialImage::simulate`] on this thread have asked for (one per
    /// kernel and run of identical mask rows the column taps reach) and
    /// computed rather than reused, since the thread started: a count of
    /// the engine's work, off the results path.
    pub fn thread_row_passes() -> RowPasses {
        workspace::thread_row_passes()
    }

    /// An image with no pixel evaluated yet, over row passes whose source
    /// values all lie within `source_span` of each other and of zero (the
    /// value of a tap that reaches past the raster).
    ///
    /// A kernel with taps `t` moves its row pass by at most `rise(t) ×
    /// source_span` from one pixel to the next, where `rise(t) = Σ max(0,
    /// t[m] − t[m−1])` with zero ends: the differences of the taps sum to
    /// zero, and those above zero sum to `rise`. Its column pass scales
    /// that by at most `Σ t`, and moves by at most `rise × Σ t ×
    /// source_span` between neighbouring rows the same way; the taps are
    /// positive. The intensity, `dose × Σ_k w_k × pass_k`, then moves by
    /// at most `dose × Σ_k |w_k| × Σ t_k × rise(t_k) × source_span` per
    /// pixel, and a bilinear read, linear between pixel centers and flat
    /// where it clamps, by that ÷ `pixel` per nm along either axis. The
    /// factor `1 + 1e-9` covers the rounding of these sums.
    fn new(
        lattice: Lattice,
        defined: PixelRect,
        dose: f64,
        fields: Arc<[(f64, RowField)]>,
        source_span: f64,
    ) -> AerialImage {
        let rise = |taps: &[f64]| {
            let mut previous = 0.0;
            let mut rise = 0.0;
            for &t in taps.iter().chain([&0.0]) {
                rise += (t - previous).max(0.0);
                previous = t;
            }
            rise
        };
        let per_pixel: f64 = fields
            .iter()
            .map(|(weight, field)| {
                let taps = field.kernel();
                weight.abs() * taps.iter().sum::<f64>() * rise(taps)
            })
            .sum();
        AerialImage {
            lattice,
            defined,
            dose,
            fields,
            slope: dose * per_pixel * source_span / lattice.pixel() * (1.0 + 1e-9),
            last: Cell::new(None),
            evaluated: Cell::new(0),
        }
    }

    /// Dose-scaled intensity at a position (bilinear sampled).
    ///
    /// Defined inside the simulated window, where every read is bit-for-bit
    /// the read of a whole-raster image. A position outside the window
    /// clamps to the nearest defined pixels, as a position outside the
    /// raster clamps to its edge.
    pub fn intensity_at(&self, x_nm: f64, y_nm: f64) -> f64 {
        self.dose
            * self
                .lattice
                .sample(x_nm, y_nm, self.defined, |xs, ys| self.cell(xs, ys))
    }

    /// The dose-free intensity at the corners of a defined cell: the last
    /// cell's values when the read falls in it again, else evaluated and
    /// kept in its place.
    fn cell(&self, xs: [usize; 2], ys: [usize; 2]) -> [[f64; 2]; 2] {
        if let Some((last_xs, last_ys, values)) = self.last.get() {
            if (last_xs, last_ys) == (xs, ys) {
                return values;
            }
        }
        let values = self.evaluate(xs, ys);
        self.last.set(Some((xs, ys, values)));
        self.evaluated.set(self.evaluated.get() + 1);
        values
    }

    /// A bound on how much [`AerialImage::intensity_at`] changes per nm
    /// moved along the x or the y axis, anywhere.
    pub(crate) fn slope_bound(&self) -> f64 {
        self.slope
    }

    /// Whether every read from `(x_nm, y_nm)` on along the direction
    /// `(dx, dy)` is the read at `(x_nm, y_nm)`: on every axis the
    /// direction moves along, the point already clamps to the edge of the
    /// defined pixels it moves towards.
    pub(crate) fn settled(&self, (x_nm, y_nm): (f64, f64), (dx, dy): (f64, f64)) -> bool {
        let (fx, fy) = self.lattice.continuous(x_nm, y_nm);
        let d = self.defined;
        let settled = |f: f64, step: f64, first: usize, end: usize| {
            step == 0.0
                || (step > 0.0 && f >= (end - 1) as f64)
                || (step < 0.0 && f <= first as f64)
        };
        settled(fx, dx, d.x0, d.x1) && settled(fy, dy, d.y0, d.y1)
    }

    /// The dose-free intensity at the corners of a defined cell: per pixel
    /// `acc = 0; acc += weight × column pass` for each kernel in stack
    /// order.
    fn evaluate(&self, xs: [usize; 2], ys: [usize; 2]) -> [[f64; 2]; 2] {
        let mut acc = [[0.0; 2]; 2];
        for (weight, field) in self.fields.iter() {
            let column = field.column_cell(xs, ys);
            for (a, c) in acc.iter_mut().flatten().zip(column.iter().flatten()) {
                *a += weight * c;
            }
        }
        acc
    }

    /// The (dose-free) intensity grid, on the lattice of the ambit-padded
    /// raster, materialized on demand: every pixel a read inside the
    /// simulated window uses is evaluated, and the rest of the grid is
    /// zero. It evaluates without memoizing, so it costs a full column
    /// pass over the window and leaves the cost of later reads unchanged.
    pub fn grid(&self) -> Grid {
        let d = self.defined;
        let nx = self.lattice.nx();
        let mut data = vec![0.0; self.lattice.len()];
        // Cells tiling the defined pixels; on an odd edge a cell's two
        // corners along that axis are the same pixel.
        for iy in (d.y0..d.y1).step_by(2) {
            for ix in (d.x0..d.x1).step_by(2) {
                let (xs, ys) = ([ix, (ix + 1).min(d.x1 - 1)], [iy, (iy + 1).min(d.y1 - 1)]);
                for (row, &y) in self.evaluate(xs, ys).iter().zip(&ys) {
                    for (&v, &x) in row.iter().zip(&xs) {
                        data[y * nx + x] = v;
                    }
                }
            }
        }
        self.lattice.with_data(data)
    }

    /// The dose this image was exposed at.
    pub fn dose(&self) -> f64 {
        self.dose
    }

    /// How many interpolation cells the reads so far have evaluated.
    #[cfg(test)]
    pub(crate) fn cells_evaluated(&self) -> usize {
        self.evaluated.get()
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
    }

    /// The pre-workspace engine (clone per kernel, re-discretize per call,
    /// `zip_map` accumulation, every pixel of the padded raster through the
    /// pixel-outer `Grid::convolve_separable`), kept as the bit-identity
    /// reference for the lazy engine. Its intensity grid reaches the image
    /// through an identity row field (one tap of 1.0, its slope bound from
    /// the grid's value range), which passes every
    /// pixel through as `0 + 1·(0 + 1·(0 + 1·v))`: that is `v` for every
    /// value but `-0.0`, which a sum of positive taps times coverage never
    /// is. The pass-through is checked bit for bit before returning.
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
        let identity = grid.row_field(&[1.0], grid.extent());
        let (lo, hi) = grid
            .data()
            .iter()
            .fold((0.0_f64, 0.0_f64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let image = AerialImage::new(
            grid.lattice(),
            grid.extent(),
            spec.conditions.dose,
            Arc::new([(1.0, identity)]),
            hi - lo,
        );
        let passed = image.grid();
        assert!(
            passed
                .data()
                .iter()
                .zip(grid.data())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "identity pass-through changed a pixel"
        );
        image
    }

    /// Every spec the lazy engine is checked against the oracle with:
    /// nominal, off-nominal, defocused, single-Gaussian, and a finer pixel.
    fn parity_specs() -> [SimulationSpec; 5] {
        let off_nominal = ProcessConditions {
            focus_nm: 40.0,
            dose: 1.01,
        };
        let defocused = ProcessConditions {
            focus_nm: 200.0,
            dose: 1.0,
        };
        [
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
        ]
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
        let mut ws = SimWorkspace::new();
        for spec in &parity_specs() {
            let reference = simulate_reference(spec, &mask, window);
            let fused = AerialImage::simulate(spec, &mask, window).expect("image");
            let label = format!("{:?} at {} nm", spec.conditions, spec.pixel_nm);
            // Same lattice; every computed pixel equals the whole-raster one.
            let (grid, rect) = (fused.grid(), fused.defined);
            let reference_grid = reference.grid();
            assert_eq!(grid.extent(), reference_grid.extent(), "{label}");
            for iy in rect.y0..rect.y1 {
                for ix in rect.x0..rect.x1 {
                    assert_eq!(
                        grid.at(ix, iy).to_bits(),
                        reference_grid.at(ix, iy).to_bits(),
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

    /// A random Manhattan mask around the origin: vertical lines at iso
    /// and dense pitches, some ending inside the area (line ends), some
    /// jogged sideways halfway up.
    fn random_manhattan_mask(rng: &mut postopc_rng::StdRng) -> Vec<Polygon> {
        use postopc_rng::RngExt;
        let mut mask = Vec::new();
        let mut x = -700i64;
        while x < 700 {
            let w = rng.random_range(60i64..=130);
            let y0 = -rng.random_range(100i64..=700);
            let y1 = rng.random_range(100i64..=700);
            let line = if rng.random_range(0u32..3) == 0 {
                let dx = rng.random_range(10i64..=w / 2) * [-1, 1][rng.random_range(0usize..2)];
                let ym = rng.random_range(y0 + 50..=y1 - 50);
                Polygon::new(
                    [
                        (x, y0),
                        (x + w, y0),
                        (x + w, ym),
                        (x + w + dx, ym),
                        (x + w + dx, y1),
                        (x + dx, y1),
                        (x + dx, ym),
                        (x, ym),
                    ]
                    .map(|(px, py)| Point::new(px, py))
                    .to_vec(),
                )
                .expect("jogged line")
            } else {
                Polygon::from(Rect::new(x, y0, x + w, y1).expect("rect"))
            };
            mask.push(line);
            // Dense (≈ 1:1) and iso (≥ 3× the width) spaces.
            x += w + rng.random_range(80i64..=420);
        }
        mask
    }

    #[test]
    fn lazy_reads_are_bit_identical_to_the_oracle_on_random_masks_and_windows() {
        use postopc_rng::{RngExt, SeedableRng};
        let mut rng = postopc_rng::StdRng::seed_from_u64(18);
        for spec in &parity_specs() {
            // Windows narrower than the core kernel's 3σ half-width (on
            // either axis), one pixel wide, and ordinary ones.
            let core_half = 3.0 * spec.kernel_stack().kernels()[0].sigma_nm;
            let pixel = spec.pixel_nm.floor() as i64;
            for (w, h) in [
                (pixel, rng.random_range(200i64..600)),
                (rng.random_range(300i64..700), pixel),
                (rng.random_range(20..core_half as i64), 500),
                (600, rng.random_range(20..core_half as i64)),
                (rng.random_range(200i64..900), rng.random_range(200i64..900)),
            ] {
                let mask = random_manhattan_mask(&mut rng);
                let (x, y) = (
                    rng.random_range(-500i64..300),
                    rng.random_range(-400i64..200),
                );
                let window = Rect::new(x, y, x + w, y + h).expect("window");
                let label = format!(
                    "{:?} at {} nm, window {window:?}",
                    spec.conditions, spec.pixel_nm
                );
                let oracle = simulate_reference(spec, &mask, window);
                let image = AerialImage::simulate(spec, &mask, window).expect("image");
                let oracle_grid = oracle.grid();
                // The defined pixels equal the oracle's, the rest are zero,
                // before any read and after some.
                let defined_matches = |grid: &Grid| {
                    let d = image.defined;
                    (0..grid.ny()).all(|iy| {
                        (0..grid.nx()).all(|ix| {
                            let inside = (d.x0..d.x1).contains(&ix) && (d.y0..d.y1).contains(&iy);
                            let expected = if inside { oracle_grid.at(ix, iy) } else { 0.0 };
                            grid.at(ix, iy).to_bits() == expected.to_bits()
                        })
                    })
                };
                assert!(defined_matches(&image.grid()), "grid before reads, {label}");
                // Seeded points inside and around the window, each read
                // twice, in random order. A point outside the window reads
                // the oracle at its clamp to the defined pixels' centers.
                let d = image.defined;
                let origin = image.lattice.origin();
                let center = |i: usize, o: i64| o as f64 + (i as f64 + 0.5) * spec.pixel_nm;
                let (x_lo, x_hi) = (center(d.x0, origin.x), center(d.x1 - 1, origin.x));
                let (y_lo, y_hi) = (center(d.y0, origin.y), center(d.y1 - 1, origin.y));
                let mut points: Vec<(f64, f64)> = (0..400)
                    .map(|_| {
                        let u = rng.random_range(-0.3..1.3);
                        let v = rng.random_range(-0.3..1.3);
                        (
                            window.left() as f64 + u * w as f64,
                            window.bottom() as f64 + v * h as f64,
                        )
                    })
                    .collect();
                points.extend(points.clone());
                for i in (1..points.len()).rev() {
                    points.swap(i, rng.random_range(0..=i));
                }
                let mut clone = None;
                for (n, &(px, py)) in points.iter().enumerate() {
                    let expected = oracle
                        .intensity_at(px.clamp(x_lo, x_hi), py.clamp(y_lo, y_hi))
                        .to_bits();
                    assert_eq!(
                        image.intensity_at(px, py).to_bits(),
                        expected,
                        "({px}, {py}), {label}"
                    );
                    if n == points.len() / 2 {
                        assert!(defined_matches(&image.grid()), "grid mid-read, {label}");
                        clone = Some(image.clone());
                    }
                    if let Some(clone) = &clone {
                        assert_eq!(
                            clone.intensity_at(px, py).to_bits(),
                            expected,
                            "clone, {label}"
                        );
                    }
                }
                assert!(defined_matches(&image.grid()), "grid after reads, {label}");
                let clone = clone.expect("clone taken mid-read");
                assert!(defined_matches(&clone.grid()), "clone grid, {label}");
                assert_eq!(clone, image);
            }
        }
    }

    /// [`random_manhattan_mask`] with overlaps and extremes added: blocks
    /// laid across the lines (coverage above 1 where they overlap), lines
    /// reaching far past the raster, and slivers thinner than a pixel.
    fn random_overlapping_mask(rng: &mut postopc_rng::StdRng) -> Vec<Polygon> {
        use postopc_rng::RngExt;
        let mut mask = random_manhattan_mask(rng);
        let mut pick = |lo: i64, hi: i64| rng.random_range(lo..=hi);
        for _ in 0..pick(1, 4) {
            let (x, y) = (pick(-700, 600), pick(-700, 600));
            let block = Rect::new(x, y, x + pick(40, 300), y + pick(40, 300));
            mask.push(Polygon::from(block.expect("block")));
        }
        for _ in 0..pick(0, 2) {
            let (x, y) = (pick(-600, 600), pick(-600, 600));
            let line = if pick(0, 1) == 0 {
                Rect::new(x, -9000, x + pick(60, 120), y)
            } else {
                Rect::new(-9000, y, x, y + pick(60, 120))
            };
            mask.push(Polygon::from(line.expect("long line")));
        }
        for _ in 0..pick(1, 3) {
            let (x, y) = (pick(-600, 600), pick(-600, 600));
            let (w, h) = if pick(0, 1) == 0 {
                (pick(1, 4), pick(50, 400))
            } else {
                (pick(50, 400), pick(1, 4))
            };
            mask.push(Polygon::from(
                Rect::new(x, y, x + w, y + h).expect("sliver"),
            ));
        }
        mask
    }

    #[test]
    fn random_rays_on_random_masks_read_the_march_and_oracle_bits() {
        use crate::cutline::{find_edge, find_edge_march};
        use crate::resist::ResistModel;
        use postopc_rng::{RngExt, SeedableRng};
        let mut rng = postopc_rng::StdRng::seed_from_u64(25);
        let resist = ResistModel::standard();
        let mut specs = parity_specs().to_vec();
        specs.push(SimulationSpec {
            pixel_nm: 7.3,
            ..SimulationSpec::nominal()
        });
        specs.push(
            SimulationSpec::nominal().with_conditions(ProcessConditions {
                focus_nm: 0.0,
                dose: 1.3,
            }),
        );
        let diagonal = std::f64::consts::FRAC_1_SQRT_2;
        let directions = [
            (1.0, 0.0),
            (-1.0, 0.0),
            (0.0, 1.0),
            (0.0, -1.0),
            (diagonal, diagonal),
            (-diagonal, diagonal),
            (diagonal, -diagonal),
            (-diagonal, -diagonal),
            (0.0, 0.0),
        ];
        let (mut crossed, mut missed, mut compared, mut deepest) = (0, 0, 0, 0.0_f64);
        let mut ws = SimWorkspace::new();
        for spec in &specs {
            for _ in 0..3 {
                let mask = random_overlapping_mask(&mut rng);
                let (x, y) = (
                    rng.random_range(-500i64..200),
                    rng.random_range(-500i64..200),
                );
                let (w, h) = (rng.random_range(150i64..600), rng.random_range(150i64..600));
                let window = Rect::new(x, y, x + w, y + h).expect("window");
                let label = format!(
                    "{:?} at {} nm, window {window:?}",
                    spec.conditions, spec.pixel_nm
                );
                let image =
                    AerialImage::simulate_with(&mut ws, spec, &mask, window).expect("image");
                let oracle = simulate_reference(spec, &mask, window);
                // Every class row is the row `add_polygon` gives.
                let margin = spec.kernel_stack().ambit_nm().ceil() as i64;
                let mut coverage = Grid::new(window, margin, spec.pixel_nm).expect("grid");
                for polygon in &mask {
                    coverage.add_polygon(polygon, 1.0);
                }
                let nx = coverage.nx();
                for (iy, row) in coverage.data().chunks_exact(nx).enumerate() {
                    let class = ws.classes.row(iy);
                    assert!(
                        class
                            .iter()
                            .zip(row)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "row {iy}, {label}"
                    );
                }
                deepest = deepest.max(ws.classes.max_coverage());
                // The slope bound holds between every two neighbouring
                // pixels of the oracle's whole raster.
                let field = oracle.grid();
                let step = |a: f64, b: f64| image.dose * (a - b).abs() / spec.pixel_nm;
                for iy in 0..field.ny() {
                    for ix in 0..field.nx() {
                        let v = field.at(ix, iy);
                        let right = (ix + 1 < field.nx()).then(|| field.at(ix + 1, iy));
                        let up = (iy + 1 < field.ny()).then(|| field.at(ix, iy + 1));
                        for n in [right, up].into_iter().flatten() {
                            assert!(step(v, n) <= image.slope, "({ix},{iy}), {label}");
                        }
                    }
                }
                // Rays from printed and unprinted points, on and around
                // the window: zero distance, to the window's edge, random.
                let printed: Vec<Rect> = mask
                    .iter()
                    .filter_map(|p| p.bbox().intersection(&window))
                    .collect();
                for _ in 0..60 {
                    let start = if printed.is_empty() || rng.random_range(0u32..4) == 0 {
                        (
                            window.left() as f64 + rng.random_range(-0.2..1.2) * w as f64,
                            window.bottom() as f64 + rng.random_range(-0.2..1.2) * h as f64,
                        )
                    } else {
                        let r = printed[rng.random_range(0..printed.len())];
                        (
                            rng.random_range(r.left() as f64..=r.right() as f64),
                            rng.random_range(r.bottom() as f64..=r.top() as f64),
                        )
                    };
                    let direction = directions[rng.random_range(0..directions.len())];
                    let edge = |p: f64, d: f64, lo: i64, hi: i64| match d {
                        d if d > 0.0 => (hi as f64 - p) / d,
                        d if d < 0.0 => (lo as f64 - p) / d,
                        _ => f64::INFINITY,
                    };
                    let to_edge = edge(start.0, direction.0, window.left(), window.right())
                        .min(edge(start.1, direction.1, window.bottom(), window.top()));
                    let to_edge = if to_edge.is_finite() {
                        to_edge.max(0.0)
                    } else {
                        0.0
                    };
                    for distance in [0.0, to_edge, to_edge.ceil(), rng.random_range(0.0..400.0)] {
                        let search = |img: &AerialImage, march: bool| {
                            let f = if march { find_edge_march } else { find_edge };
                            f(img, &resist, start, direction, distance).map(f64::to_bits)
                        };
                        let jumped = search(&image, false);
                        let what = format!("{start:?} {direction:?} {distance}, {label}");
                        assert_eq!(jumped, search(&image, true), "march, {what}");
                        // The oracle is defined on its whole raster, so it
                        // reads the same only where the ray stays inside
                        // the window.
                        let last = distance.ceil();
                        let end = (start.0 + direction.0 * last, start.1 + direction.1 * last);
                        let inside = |(px, py): (f64, f64)| {
                            (window.left() as f64..=window.right() as f64).contains(&px)
                                && (window.bottom() as f64..=window.top() as f64).contains(&py)
                        };
                        if inside(start) && inside(end) {
                            assert_eq!(jumped, search(&oracle, true), "oracle, {what}");
                            assert_eq!(jumped, search(&oracle, false), "oracle jumps, {what}");
                            compared += 1;
                        }
                        match jumped {
                            Ok(_) => crossed += 1,
                            Err(_) => missed += 1,
                        }
                    }
                }
            }
        }
        assert!(
            crossed > 500 && missed > 500 && compared > 500,
            "{crossed} crossed, {missed} missed, {compared} against the oracle"
        );
        assert!(deepest > 1.0, "coverage never above 1: {deepest}");
    }

    /// Images `steps` one after another on one workspace and checks each
    /// image, bit for bit, against the same image on a fresh workspace
    /// (`==` and every pixel of `grid()`) and against the oracle (the
    /// defined pixels, and reads over the window). Returns the row passes
    /// each step asked for and computed on the shared workspace, and the
    /// number it computed on the fresh one.
    fn check_sequence(steps: &[(SimulationSpec, Vec<Polygon>, Rect)]) -> Vec<(RowPasses, u64)> {
        let mut shared = SimWorkspace::new();
        let mut passes = Vec::new();
        for (i, (spec, mask, window)) in steps.iter().enumerate() {
            let before = shared.passes;
            let image =
                AerialImage::simulate_with(&mut shared, spec, mask, *window).expect("image");
            let mut alone = SimWorkspace::new();
            let fresh = AerialImage::simulate_with(&mut alone, spec, mask, *window).expect("image");
            let step = RowPasses {
                requested: shared.passes.requested - before.requested,
                computed: shared.passes.computed - before.computed,
            };
            assert_eq!(step.requested, alone.passes.requested);
            passes.push((step, alone.passes.computed));
            let label = format!(
                "step {i}: {:?} at {} nm, window {window:?}",
                spec.conditions, spec.pixel_nm
            );
            assert_eq!(image, fresh, "{label}");
            let (grid, fresh_grid) = (image.grid(), fresh.grid());
            assert_eq!(grid.lattice(), fresh_grid.lattice(), "{label}");
            assert!(
                grid.data()
                    .iter()
                    .zip(fresh_grid.data())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "grid, {label}"
            );
            let oracle = simulate_reference(spec, mask, *window);
            let oracle_grid = oracle.grid();
            let d = image.defined;
            for iy in d.y0..d.y1 {
                for ix in d.x0..d.x1 {
                    assert_eq!(
                        grid.at(ix, iy).to_bits(),
                        oracle_grid.at(ix, iy).to_bits(),
                        "pixel ({ix},{iy}), {label}"
                    );
                }
            }
            let n = 37;
            for u in 0..=n {
                for v in 0..=n {
                    let x = window.left() as f64 + window.width() as f64 * u as f64 / n as f64;
                    let y = window.bottom() as f64 + window.height() as f64 * v as f64 / n as f64;
                    assert_eq!(
                        image.intensity_at(x, y).to_bits(),
                        oracle.intensity_at(x, y).to_bits(),
                        "read ({x}, {y}), {label}"
                    );
                }
            }
        }
        passes
    }

    /// The lines of a farm-like mask cut into fragments about 100 nm tall,
    /// each its own rectangle with its left and right edges moved by its
    /// offsets: the mask a model-OPC loop images.
    fn fragmented(fragments: &[(Rect, Coord, Coord)]) -> Vec<Polygon> {
        fragments
            .iter()
            .map(|&(r, left, right)| {
                Polygon::from(
                    Rect::new(r.left() - left, r.bottom(), r.right() + right, r.top())
                        .expect("fragment"),
                )
            })
            .collect()
    }

    #[test]
    fn opc_like_moves_between_images_match_fresh_workspaces_and_the_oracle() {
        use postopc_rng::{RngExt, SeedableRng};
        let mut rng = postopc_rng::StdRng::seed_from_u64(31);
        let mut fragments: Vec<(Rect, Coord, Coord)> = seeded_farm_mask(5)
            .iter()
            .flat_map(|line| {
                let r = line.bbox();
                (r.bottom()..r.top())
                    .step_by(100)
                    .map(move |y| {
                        let top = (y + 100).min(r.top());
                        (
                            Rect::new(r.left(), y, r.right(), top).expect("fragment"),
                            0,
                            0,
                        )
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        let window = Rect::new(-450, -350, 450, 350).expect("rect");
        let mut steps = Vec::new();
        // Per mille of the fragments that move after each image: fewer as
        // the loop settles, none after the last but one.
        for moving in [300, 150, 60, 20, 0, 0] {
            steps.push((SimulationSpec::nominal(), fragmented(&fragments), window));
            for fragment in &mut fragments {
                if rng.random_range(0u32..1000) < moving {
                    fragment.1 += rng.random_range(-3i64..=3);
                    fragment.2 += rng.random_range(-3i64..=3);
                }
            }
        }
        let passes = check_sequence(&steps);
        // Once few fragments move, most rows repeat the previous image and
        // reuse its passes; an image of an unmoved mask computes none.
        assert!(
            passes[2..5]
                .iter()
                .all(|&(p, alone)| p.computed * 2 < alone),
            "{passes:?}"
        );
        assert_eq!(passes[5].0.computed, 0, "{passes:?}");
    }

    #[test]
    fn masks_that_keep_move_and_swap_polygons_match_fresh_workspaces_and_the_oracle() {
        use postopc_rng::{RngExt, SeedableRng};
        let mut rng = postopc_rng::StdRng::seed_from_u64(32);
        // Lines with pseudo-vertices every 100 nm up their long edges, as
        // OPC fragments them, and the same lines with fragments moved.
        let cut: Vec<Polygon> = seeded_farm_mask(13)
            .iter()
            .map(|line| {
                let cuts: Vec<Vec<Coord>> = line
                    .edges()
                    .map(|e| match e.start.x == e.end.x {
                        true => (100..e.length()).step_by(100).collect(),
                        false => Vec::new(),
                    })
                    .collect();
                line.with_cuts(&cuts).expect("fragments")
            })
            .collect();
        let mut jog = |line: &Polygon| {
            let offsets: Vec<Coord> = (0..line.edge_count())
                .map(|_| match rng.random_range(0u32..3) {
                    0 => rng.random_range(-4i64..=4),
                    _ => 0,
                })
                .collect();
            line.with_edge_offsets(&offsets).expect("jogged")
        };
        let mut mask: Vec<Polygon> = cut.iter().map(&mut jog).collect();
        let context = mask.split_off(mask.len() / 2);
        let targets = mask.len();
        mask.extend(context.iter().map(|p| Polygon::from(p.bbox())));
        let window = Rect::new(-450, -350, 450, 350).expect("rect");
        let spec = SimulationSpec::nominal();
        let mut masks = vec![mask.clone()];
        // One target's middle fragment moves in, inside its bounding box;
        // another target moves its fragments anywhere.
        let mut inner = vec![0; cut[1].edge_count()];
        let middle = (0..inner.len())
            .filter(|&i| {
                let e = cut[1].edge(i);
                e.start.x == e.end.x && e.start.y.min(e.end.y) > -250
            })
            .nth(1)
            .expect("a middle fragment");
        inner[middle] = -3;
        let moved_in = cut[1].with_edge_offsets(&inner).expect("moved in");
        assert_eq!(moved_in.bbox(), cut[1].bbox());
        mask[1] = cut[1].clone();
        masks.push(mask.clone());
        mask[1] = moved_in;
        mask[3] = jog(&cut[3]);
        masks.push(mask.clone());
        // Targets and context swap places.
        mask.swap(0, 2);
        mask.swap(targets, targets + 1);
        masks.push(mask.clone());
        // The mask grows, shrinks, repeats, moves one polygon by 1 nm, and
        // returns to the first mask.
        mask.push(jog(&cut[0]));
        masks.push(mask.clone());
        mask.truncate(mask.len() - 3);
        masks.push(mask.clone());
        masks.push(mask.clone());
        mask[targets - 1] = mask[targets - 1].translate(postopc_geom::Vector::new(1, 0));
        masks.push(mask.clone());
        masks.push(masks[0].clone());
        let steps: Vec<_> = masks
            .into_iter()
            .map(|mask| (spec.clone(), mask, window))
            .collect();
        let passes = check_sequence(&steps);
        // An unchanged mask reuses every row pass.
        assert_eq!(passes[6].0.computed, 0, "{passes:?}");
    }

    #[test]
    fn windows_of_other_widths_and_translated_windows_match_fresh_workspaces() {
        let mask = seeded_farm_mask(19);
        let window = Rect::new(-500, -400, 500, 400).expect("rect");
        let (dx, dy) = (37, -55);
        let translated: Vec<Polygon> = mask
            .iter()
            .map(|p| p.translate(postopc_geom::Vector::new(dx, dy)))
            .collect();
        let moved = window.translate(postopc_geom::Vector::new(dx, dy));
        let spec = SimulationSpec::nominal();
        let steps = [
            (spec.clone(), mask.clone(), window),
            (
                spec.clone(),
                mask.clone(),
                Rect::new(-500, -400, 430, 400).expect("rect"),
            ),
            (
                spec.clone(),
                mask.clone(),
                Rect::new(-260, -400, 500, 300).expect("rect"),
            ),
            (spec.clone(), mask.clone(), window),
            (spec.clone(), translated.clone(), moved),
        ];
        let passes = check_sequence(&steps);
        // Other output columns reuse nothing; the translated window, on a
        // lattice translated with it, computes no row pass at all.
        for step in [1, 2] {
            assert_eq!(passes[step].0.computed, passes[step].1, "{passes:?}");
        }
        assert_eq!(passes[3].0.computed, passes[3].1, "{passes:?}");
        assert_eq!(passes[4].0.computed, 0, "{passes:?}");
        // And reads the same bits at the translated points.
        let image = AerialImage::simulate(&spec, &mask, window).expect("image");
        let shifted = AerialImage::simulate(&spec, &translated, moved).expect("image");
        for i in 0..=200 {
            let x = window.left() as f64 + i as f64 * 5.0;
            let y = window.bottom() as f64 + i as f64 * 4.0 + 0.25;
            assert_eq!(
                shifted.intensity_at(x + dx as f64, y + dy as f64).to_bits(),
                image.intensity_at(x, y).to_bits(),
                "({x}, {y})"
            );
        }
    }

    #[test]
    fn other_conditions_kernels_and_pixels_match_fresh_workspaces_and_the_oracle() {
        let mask = seeded_farm_mask(29);
        let window = Rect::new(-400, -300, 400, 300).expect("rect");
        let nominal = SimulationSpec::nominal();
        let conditions =
            |focus_nm, dose| nominal.with_conditions(ProcessConditions { focus_nm, dose });
        let single = SimulationSpec {
            kernel_mode: KernelMode::SingleGaussian,
            ..nominal.clone()
        };
        let reweighted = SimulationSpec {
            optics: OpticsParams {
                surround_weight: nominal.optics.surround_weight * 0.8,
                ..nominal.optics
            },
            ..nominal.clone()
        };
        let specs = [
            nominal.clone(),
            conditions(0.0, 1.05),
            reweighted,
            single.clone(),
            single.with_conditions(ProcessConditions {
                focus_nm: 0.0,
                dose: 0.97,
            }),
            conditions(40.0, 1.0),
            SimulationSpec {
                pixel_nm: 2.5,
                ..nominal.clone()
            },
            nominal.clone(),
        ];
        let steps: Vec<_> = specs
            .iter()
            .map(|spec| (spec.clone(), mask.clone(), window))
            .collect();
        let passes = check_sequence(&steps);
        // Dose and kernel weight are not part of the key: another dose or
        // another surround weight reuses every pass. The single-Gaussian
        // stack pads its raster by its own, narrower ambit, so its rows
        // are not the previous image's; a second one at another dose
        // reuses every pass. Another focus widens both kernels and another
        // pixel changes every row, so they reuse none.
        for (step, &(shared, alone)) in passes.iter().enumerate() {
            let expected = if [1, 2, 4].contains(&step) { 0 } else { alone };
            assert_eq!(shared.computed, expected, "step {step}: {passes:?}");
        }
    }

    #[test]
    fn epe_probes_evaluate_few_cells_and_fewer_than_the_march() {
        // Model-OPC-style probes (an 80 nm EPE search from fragment control
        // points every 140 nm along the line edges, plus the line ends)
        // over a seeded farm window: the search evaluates only a few
        // interpolation cells per probe, fewer than a march over every
        // point of the same probes, and finds the march's edges.
        use crate::cutline::{edge_placement_error, find_edge_march};
        use crate::resist::ResistModel;
        let mask = seeded_farm_mask(7);
        let window = Rect::new(-500, -400, 500, 400).expect("rect");
        let image = |()| AerialImage::simulate(&SimulationSpec::nominal(), &mask, window);
        let (jumped, marched) = (image(()).expect("image"), image(()).expect("image"));
        let resist = ResistModel::standard();
        let reach = window.expand(-80).expect("probe area");
        let mut probes: Vec<((f64, f64), (f64, f64))> = Vec::new();
        for line in &mask {
            let r = line.bbox();
            let ys =
                (reach.bottom().max(r.bottom() + 30)..=reach.top().min(r.top() - 30)).step_by(140);
            for y in ys {
                for (x, dx) in [(r.left(), -1.0), (r.right(), 1.0)] {
                    if (reach.left()..=reach.right()).contains(&x) {
                        probes.push(((x as f64, y as f64), (dx, 0.0)));
                    }
                }
            }
            let cx = (r.left() + r.right()) as f64 / 2.0;
            for (y, dy) in [(r.bottom(), -1.0), (r.top(), 1.0)] {
                if reach.contains(Point::new(cx as i64, y)) {
                    probes.push(((cx, y as f64), (0.0, dy)));
                }
            }
        }
        for &(target, outward) in &probes {
            let epe = edge_placement_error(&jumped, &resist, target, outward, 80.0);
            // `edge_placement_error`'s probe: from 30 nm inside the target.
            let start = (target.0 - outward.0 * 30.0, target.1 - outward.1 * 30.0);
            let march = find_edge_march(&marched, &resist, start, outward, 110.0).map(|d| d - 30.0);
            assert_eq!(
                epe.map(f64::to_bits),
                march.map(f64::to_bits),
                "{target:?} {outward:?}"
            );
        }
        let per_probe = jumped.cells_evaluated() as f64 / probes.len() as f64;
        let march_per_probe = marched.cells_evaluated() as f64 / probes.len() as f64;
        assert!(probes.len() >= 20, "{} probes", probes.len());
        assert!(
            per_probe <= 6.0 && per_probe < march_per_probe,
            "{per_probe} cells per probe, the march {march_per_probe}"
        );
    }
}
