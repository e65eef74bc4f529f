//! Scalar field rasterization: mask transmission grids and aerial images.
//!
//! A [`Grid`] is a uniform scalar field over a rectangular window of layout
//! space. The lithography simulator rasterizes mask polygons into a
//! transmission grid (pixel value = covered area fraction), convolves it
//! with optical kernels, and samples the resulting intensity field at
//! arbitrary nm positions via bilinear interpolation.

use crate::error::{GeomError, Result};
use crate::point::Point;
use crate::polygon::Polygon;
use crate::rect::Rect;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// The pixel lattice of a [`Grid`]: where pixel `(0, 0)` sits, the pixel
/// pitch and the pixel counts.
///
/// Pixel `(ix, iy)` covers the square
/// `[origin + ix·pixel, origin + (ix+1)·pixel) × [...y...]`, and its sample
/// point (for interpolation) is the pixel center.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lattice {
    origin: Point,
    pixel: f64,
    nx: usize,
    ny: usize,
}

impl Lattice {
    /// Width in pixels.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Height in pixels.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Number of pixels (`nx × ny`).
    pub fn len(&self) -> usize {
        self.nx * self.ny
    }

    /// True when the lattice holds no pixels.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pixel size in nm.
    pub fn pixel(&self) -> f64 {
        self.pixel
    }

    /// Lower-left corner of pixel `(0, 0)` in nm.
    pub fn origin(&self) -> Point {
        self.origin
    }

    /// Every pixel of the lattice, as a [`PixelRect`].
    pub fn extent(&self) -> PixelRect {
        PixelRect {
            x0: 0,
            x1: self.nx,
            y0: 0,
            y1: self.ny,
        }
    }

    /// A grid on this lattice holding the given row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != nx * ny`.
    pub fn with_data(&self, data: Vec<f64>) -> Grid {
        assert_eq!(data.len(), self.len(), "data length must match grid shape");
        Grid {
            lattice: *self,
            data,
        }
    }

    /// The pixels a bilinear [`Lattice::sample`] of any point inside
    /// `window` reads, clipped to the lattice: from `floor(fx(left))`
    /// through `floor(fx(right)) + 1` in continuous pixel-center
    /// coordinates (and likewise for rows). Sampling within this rectangle
    /// reads the same pixels with the same weights as sampling within
    /// [`Lattice::extent`], for every point of `window`.
    pub fn sample_footprint(&self, window: Rect) -> PixelRect {
        let (fx0, fy0) = self.continuous(window.left() as f64, window.bottom() as f64);
        let (fx1, fy1) = self.continuous(window.right() as f64, window.top() as f64);
        // Float-to-usize casts saturate, so points left of (below) the grid
        // clip to index 0.
        let first = |f: f64, n: usize| (f.floor() as usize).min(n - 1);
        let end = |f: f64, n: usize| ((f.floor() + 2.0) as usize).clamp(1, n);
        PixelRect {
            x0: first(fx0, self.nx),
            x1: end(fx1, self.nx),
            y0: first(fy0, self.ny),
            y1: end(fy1, self.ny),
        }
    }

    /// Continuous pixel-center coordinates of an nm position: pixel
    /// `(ix, iy)`'s center maps to `(ix, iy)`. [`Lattice::sample`] clamps
    /// these to its rectangle.
    pub fn continuous(&self, x_nm: f64, y_nm: f64) -> (f64, f64) {
        (
            (x_nm - self.origin.x as f64) / self.pixel - 0.5,
            (y_nm - self.origin.y as f64) / self.pixel - 0.5,
        )
    }

    /// Bilinear sample at an arbitrary nm position, reading only pixels of
    /// `within`: a position outside it clamps to its nearest edge, as a
    /// position outside the lattice clamps with `within = self.extent()`.
    ///
    /// `cell(xs, ys)` supplies the field's values at the corners of the
    /// interpolation cell, row by row: `[[(xs[0], ys[0]), (xs[1], ys[0])],
    /// [(xs[0], ys[1]), (xs[1], ys[1])]]`. On a one-pixel axis of `within`
    /// both corners of that axis are the same pixel.
    ///
    /// # Panics
    ///
    /// Panics if `within` is empty or reaches past the lattice.
    pub fn sample(
        &self,
        x_nm: f64,
        y_nm: f64,
        within: PixelRect,
        cell: impl FnOnce([usize; 2], [usize; 2]) -> [[f64; 2]; 2],
    ) -> f64 {
        assert!(
            within.x0 < within.x1
                && within.x1 <= self.nx
                && within.y0 < within.y1
                && within.y1 <= self.ny,
            "sample rectangle {within:?} not a non-empty part of the {}x{} lattice",
            self.nx,
            self.ny
        );
        let (fx, fy) = self.continuous(x_nm, y_nm);
        let fx = fx.clamp(within.x0 as f64, (within.x1 - 1) as f64);
        let fy = fy.clamp(within.y0 as f64, (within.y1 - 1) as f64);
        let ix = (fx.floor() as usize)
            .min(within.x1.saturating_sub(2))
            .max(within.x0);
        let iy = (fy.floor() as usize)
            .min(within.y1.saturating_sub(2))
            .max(within.y0);
        // Degenerate 1-pixel axes collapse the interpolation cell: clamp the
        // far corner indices so they never read past the rectangle.
        let ix1 = (ix + 1).min(within.x1 - 1);
        let iy1 = (iy + 1).min(within.y1 - 1);
        let tx = fx - ix as f64;
        let ty = fy - iy as f64;
        let [[v00, v10], [v01, v11]] = cell([ix, ix1], [iy, iy1]);
        v00 * (1.0 - tx) * (1.0 - ty)
            + v10 * tx * (1.0 - ty)
            + v01 * (1.0 - tx) * ty
            + v11 * tx * ty
    }
}

/// A uniform scalar field over a window of layout space, on a [`Lattice`].
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    lattice: Lattice,
    data: Vec<f64>,
}

impl Grid {
    /// Creates a zero-filled grid covering `window` (expanded by `margin`
    /// nm on all sides) at `pixel` nm per pixel.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::InvalidResolution`] if `pixel <= 0`, is not
    /// finite, or the window would require an absurd (> 10⁸) pixel count.
    pub fn new(window: Rect, margin: i64, pixel: f64) -> Result<Grid> {
        let lattice = lattice_of(window, margin, pixel)?;
        Ok(lattice.with_data(vec![0.0; lattice.len()]))
    }

    /// The grid's pixel lattice.
    pub fn lattice(&self) -> Lattice {
        self.lattice
    }

    /// Number of pixels (`nx × ny`).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the grid holds no pixels.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Grid width in pixels.
    pub fn nx(&self) -> usize {
        self.lattice.nx
    }

    /// Grid height in pixels.
    pub fn ny(&self) -> usize {
        self.lattice.ny
    }

    /// Pixel size in nm.
    pub fn pixel(&self) -> f64 {
        self.lattice.pixel
    }

    /// Lower-left corner of pixel `(0, 0)` in nm.
    pub fn origin(&self) -> Point {
        self.lattice.origin
    }

    /// Raw row-major data (`iy * nx + ix`).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Value at pixel `(ix, iy)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn at(&self, ix: usize, iy: usize) -> f64 {
        assert!(
            ix < self.nx() && iy < self.ny(),
            "pixel ({ix},{iy}) out of grid"
        );
        self.data[iy * self.nx() + ix]
    }

    /// Sets the value at pixel `(ix, iy)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn set(&mut self, ix: usize, iy: usize, v: f64) {
        assert!(
            ix < self.nx() && iy < self.ny(),
            "pixel ({ix},{iy}) out of grid"
        );
        let nx = self.nx();
        self.data[iy * nx + ix] = v;
    }

    /// Accumulates `weight` × (covered area fraction) of `rect` into every
    /// overlapped pixel. Partial pixels receive fractional coverage, so the
    /// rasterization conserves total area exactly.
    pub fn add_rect(&mut self, rect: Rect, weight: f64) {
        let span = PixelSpan::of(rect, &self.lattice);
        let nx = self.nx();
        for iy in span.rows(self.ny()) {
            span.add_to_row(&mut self.data[iy * nx..(iy + 1) * nx], iy, weight);
        }
    }

    /// Rasterizes a polygon (via its rectangle decomposition) with the given
    /// weight.
    pub fn add_polygon(&mut self, polygon: &Polygon, weight: f64) {
        for r in polygon.to_rects() {
            self.add_rect(r, weight);
        }
    }

    /// Every pixel of the grid, as a [`PixelRect`].
    pub fn extent(&self) -> PixelRect {
        self.lattice.extent()
    }

    /// Bilinear sample of this grid at an arbitrary nm position, reading
    /// only pixels of `within` (see [`Lattice::sample`]).
    ///
    /// # Panics
    ///
    /// Panics if `within` is empty or reaches past the grid.
    pub fn sample(&self, x_nm: f64, y_nm: f64, within: PixelRect) -> f64 {
        let nx = self.nx();
        self.lattice.sample(x_nm, y_nm, within, |xs, ys| {
            ys.map(|iy| xs.map(|ix| self.data[iy * nx + ix]))
        })
    }

    /// Sum of all pixel values (× pixel area gives integrated quantity).
    pub fn total(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Convolves each row with a symmetric kernel (odd length, centered),
    /// then each column, in place — the separable-convolution primitive the
    /// imaging model builds Gaussian blurs from. Taps that fall outside the
    /// grid read zero.
    ///
    /// The plain pixel-outer loops: per pixel, the taps accumulate from
    /// zero in ascending order with out-of-grid taps skipped. This is the
    /// reference the lazy [`RowField`] column pass reproduces bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` has even length.
    pub fn convolve_separable(&mut self, kernel: &[f64]) {
        assert!(
            kernel.len() % 2 == 1,
            "separable kernel must have odd length"
        );
        let half = kernel.len() / 2;
        let (nx, ny) = (self.nx(), self.ny());
        let mut scratch = vec![0.0; nx.max(ny)];
        for iy in 0..ny {
            let row = &self.data[iy * nx..(iy + 1) * nx];
            for (ix, out) in scratch[..nx].iter_mut().enumerate() {
                let mut acc = 0.0;
                for (k, &w) in kernel.iter().enumerate() {
                    let j = ix as isize + k as isize - half as isize;
                    if j >= 0 && (j as usize) < nx {
                        acc += w * row[j as usize];
                    }
                }
                *out = acc;
            }
            self.data[iy * nx..(iy + 1) * nx].copy_from_slice(&scratch[..nx]);
        }
        for ix in 0..nx {
            for (iy, out) in scratch[..ny].iter_mut().enumerate() {
                let mut acc = 0.0;
                for (k, &w) in kernel.iter().enumerate() {
                    let j = iy as isize + k as isize - half as isize;
                    if j >= 0 && (j as usize) < ny {
                        acc += w * self.data[j as usize * nx + ix];
                    }
                }
                *out = acc;
            }
            for (iy, &value) in scratch[..ny].iter().enumerate() {
                self.data[iy * nx + ix] = value;
            }
        }
    }

    /// The row pass of a separable convolution with `kernel` over the
    /// output pixels `out`, kept for a lazy column pass: every in-grid row
    /// the column taps of `out` reach (`out` ± the kernel half-width),
    /// convolved along x over `out`'s columns, each row on its own. Per
    /// pixel the taps accumulate from zero in ascending order with
    /// out-of-grid taps skipped, as in [`Grid::convolve_separable`]; the
    /// imaging engine builds the same field from [`RowClasses`], one row
    /// pass per distinct class row.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` has even length or `out` is empty or reaches
    /// past the grid.
    pub fn row_field(&self, kernel: &[f64], out: PixelRect) -> RowField {
        let (width, reach) = field_shape(kernel, out, &self.lattice);
        let nx = self.nx();
        let mut rows = vec![0.0; reach.len() * width];
        for (iy, dst) in reach.clone().zip(rows.chunks_exact_mut(width)) {
            convolve_row(
                &self.data[iy * nx..(iy + 1) * nx],
                kernel,
                out.x0..out.x1,
                dst,
            );
        }
        RowField {
            kernel: kernel.to_vec(),
            out,
            first: reach.start,
            index: (0..reach.len()).collect(),
            rows,
            source: 0,
            passes: RowPasses {
                requested: reach.len() as u64,
                computed: reach.len() as u64,
            },
        }
    }

    /// Returns a grid with identical shape whose pixels are
    /// `f(self, other)` applied element-wise.
    ///
    /// # Panics
    ///
    /// Panics if the grids have different shapes.
    pub fn zip_map(&self, other: &Grid, f: impl Fn(f64, f64) -> f64) -> Grid {
        assert!(
            self.nx() == other.nx() && self.ny() == other.ny(),
            "grid shape mismatch: {}x{} vs {}x{}",
            self.nx(),
            self.ny(),
            other.nx(),
            other.ny()
        );
        self.lattice.with_data(
            self.data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        )
    }

    /// Applies `f` to every pixel in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }
}

/// A half-open rectangle of grid pixels: columns `x0..x1`, rows `y0..y1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PixelRect {
    /// First column.
    pub x0: usize,
    /// One past the last column.
    pub x1: usize,
    /// First row.
    pub y0: usize,
    /// One past the last row.
    pub y1: usize,
}

/// Mask coverage on a lattice, held as one row per run of identical rows:
/// the raster the imaging engine convolves, without the padded grid.
///
/// [`RowClasses::rasterize`] cuts the lattice rows at the floor and the
/// ceiling of every rectangle's bottom and top edge in pixel space.
/// Between two cuts every row is fully inside or fully outside each
/// rectangle, so every row of such a class gets the same coverage: the
/// class's first row is rasterized with [`Grid::add_rect`]'s per-pixel
/// arithmetic, rectangles in input order, and stands for the whole
/// class. The cuts are marked in a per-row bitmap, and each rectangle is
/// listed once per rasterization under the classes it covers, so a class
/// adds only its own rectangles, still in input order. Consecutive
/// classes with bit-identical rows merge into one run.
/// Every row is bit for bit the row `add_rect` gives the same rectangles
/// on a zeroed [`Grid`] over the same lattice.
///
/// Each run's row is hashed once, so [`RowClasses::row_field`] finds the
/// runs, of this rasterization or the one before it, that hold the same
/// bits; a full bit compare then decides.
///
/// The buffers are kept across calls, so a loop that rasterizes many
/// windows allocates only when a window needs more than any before it.
#[derive(Debug)]
pub struct RowClasses {
    lattice: Lattice,
    /// Unique to the last rasterization (0 before the first): the
    /// [`RowField::source`] of the fields built over it.
    stamp: u64,
    /// The lattice rows of each run, ascending and covering `0..ny`.
    runs: Vec<Range<usize>>,
    /// One `nx`-wide coverage row per run, row-major.
    rows: Vec<f64>,
    /// The hash of each run's row.
    hashes: Vec<u64>,
    /// `(hash, run)` for every run, ascending.
    by_hash: Vec<(u64, usize)>,
    /// Each run's nearest earlier run with a bit-identical row.
    twins: Vec<Option<usize>>,
    /// Largest coverage of any pixel (coverage is never negative).
    max: f64,
    /// Scratch: the rectangles in pixel space with the rows they touch;
    /// which of the rows `0..=ny` are cuts, the cuts in ascending order
    /// (class `k` is rows `cuts[k]..cuts[k + 1]`) and the class starting
    /// at each cut; and, as compressed rows, the rectangles covering each
    /// class: class `k`'s are `members[starts[k]..starts[k + 1]]`, in
    /// input order.
    spans: Vec<(PixelSpan, Range<usize>)>,
    marks: Vec<bool>,
    cuts: Vec<usize>,
    class_at: Vec<usize>,
    starts: Vec<usize>,
    members: Vec<usize>,
}

/// The source of stamps for [`RowClasses::rasterize`]: every
/// rasterization takes the next one, so no two share a stamp.
static RASTERIZATIONS: AtomicU64 = AtomicU64::new(1);

impl Default for RowClasses {
    fn default() -> RowClasses {
        RowClasses {
            lattice: Lattice {
                origin: Point::new(0, 0),
                pixel: 1.0,
                nx: 0,
                ny: 0,
            },
            stamp: 0,
            runs: Vec::new(),
            rows: Vec::new(),
            hashes: Vec::new(),
            by_hash: Vec::new(),
            twins: Vec::new(),
            max: 0.0,
            spans: Vec::new(),
            marks: Vec::new(),
            cuts: Vec::new(),
            class_at: Vec::new(),
            starts: Vec::new(),
            members: Vec::new(),
        }
    }
}

impl RowClasses {
    /// Empty buffers; [`RowClasses::rasterize`] sizes them.
    pub fn new() -> RowClasses {
        RowClasses::default()
    }

    /// Rasterizes `rects` (weight 1, in order) over `window` expanded by
    /// `margin` nm on all sides at `pixel` nm per pixel: the lattice of
    /// [`Grid::new`] with the same arguments.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Grid::new`]; on error the classes are
    /// unchanged.
    pub fn rasterize(
        &mut self,
        window: Rect,
        margin: i64,
        pixel: f64,
        rects: impl IntoIterator<Item = Rect>,
    ) -> Result<()> {
        let lattice = lattice_of(window, margin, pixel)?;
        let ny = lattice.ny;
        self.lattice = lattice;
        self.spans.clear();
        self.marks.clear();
        self.marks.resize(ny + 1, false);
        self.marks[0] = true;
        self.marks[ny] = true;
        for rect in rects {
            let span = PixelSpan::of(rect, &lattice);
            for cut in span.cuts(ny) {
                self.marks[cut] = true;
            }
            self.spans.push((span, span.rows(ny)));
        }
        self.cuts.clear();
        self.class_at.clear();
        self.class_at.resize(ny + 1, 0);
        for (row, _) in self.marks.iter().enumerate().filter(|&(_, &cut)| cut) {
            self.class_at[row] = self.cuts.len();
            self.cuts.push(row);
        }
        self.list_members();
        let RowClasses {
            lattice,
            runs,
            rows,
            max,
            spans,
            cuts,
            starts,
            members,
            ..
        } = self;
        fill_runs(lattice.nx, cuts, runs, rows, max, |class, first, row| {
            for &i in &members[starts[class]..starts[class + 1]] {
                spans[i].0.add_to_row(row, first, 1.0);
            }
        });
        self.finish();
        Ok(())
    }

    /// Lists the rectangles covering each class, in input order: a
    /// rectangle reaching rows `r0..r1` covers the classes from the one
    /// starting at `r0` up to the one starting at `r1` (both rows are
    /// cuts), and only those are visited.
    fn list_members(&mut self) {
        let classes = self.cuts.len() - 1;
        let RowClasses {
            spans,
            class_at,
            starts,
            members,
            ..
        } = self;
        let covered = |rows: &Range<usize>| {
            if rows.is_empty() {
                0..0
            } else {
                class_at[rows.start]..class_at[rows.end]
            }
        };
        starts.clear();
        starts.resize(classes + 1, 0);
        for (_, rows) in spans.iter() {
            for class in covered(rows) {
                starts[class] += 1;
            }
        }
        // Running sums: `starts[k]` is where class `k`'s members end.
        let mut total = 0;
        for start in starts.iter_mut() {
            total += *start;
            *start = total;
        }
        // Filled back to front, each class's members keep input order,
        // and `starts[k]` steps back to where class `k`'s begin.
        members.clear();
        members.resize(total, 0);
        for (i, (_, rows)) in spans.iter().enumerate().rev() {
            for class in covered(rows) {
                starts[class] -= 1;
                members[starts[class]] = i;
            }
        }
    }

    /// Stamps the rasterization, hashes its runs' rows and links twins.
    fn finish(&mut self) {
        self.stamp = RASTERIZATIONS.fetch_add(1, Ordering::Relaxed);
        self.hashes.clear();
        let nx = self.lattice.nx;
        self.hashes.extend(self.rows.chunks_exact(nx).map(row_hash));
        self.find_twins();
    }

    /// [`RowClasses::rasterize`] with sorted, deduplicated row cuts and
    /// every rectangle tested against every class: the rasterization the
    /// cut bitmap and per-class rectangle lists replaced.
    #[cfg(test)]
    fn rasterize_by_class_scan(
        &mut self,
        window: Rect,
        margin: i64,
        pixel: f64,
        rects: impl IntoIterator<Item = Rect>,
    ) -> Result<()> {
        let lattice = lattice_of(window, margin, pixel)?;
        let ny = lattice.ny;
        self.lattice = lattice;
        self.spans.clear();
        self.cuts.clear();
        self.cuts.extend([0, ny]);
        for rect in rects {
            let span = PixelSpan::of(rect, &lattice);
            self.cuts.extend(span.cuts(ny));
            self.spans.push((span, span.rows(ny)));
        }
        self.cuts.sort_unstable();
        self.cuts.dedup();
        let RowClasses {
            lattice,
            runs,
            rows,
            max,
            spans,
            cuts,
            ..
        } = self;
        fill_runs(lattice.nx, cuts, runs, rows, max, |_, first, row| {
            for (span, rows) in spans.iter() {
                if rows.contains(&first) {
                    span.add_to_row(row, first, 1.0);
                }
            }
        });
        self.finish();
        Ok(())
    }

    /// Sorts the runs by hash and links each run to its nearest earlier
    /// run with a bit-identical row, comparing bits within each group of
    /// equal hashes.
    fn find_twins(&mut self) {
        self.by_hash.clear();
        self.by_hash.extend(self.hashes.iter().copied().zip(0..));
        self.by_hash.sort_unstable();
        self.twins.clear();
        self.twins.resize(self.runs.len(), None);
        for group in self.by_hash.chunk_by(|a, b| a.0 == b.0) {
            for (i, &(_, run)) in group.iter().enumerate() {
                let row = self.class_row(run);
                self.twins[run] = group[..i]
                    .iter()
                    .rev()
                    .map(|&(_, earlier)| earlier)
                    .find(|&earlier| bits_eq(self.class_row(earlier), row));
            }
        }
    }

    /// The lattice of the last rasterization.
    pub fn lattice(&self) -> Lattice {
        self.lattice
    }

    /// The coverage of lattice row `iy`: its run's row.
    ///
    /// # Panics
    ///
    /// Panics if `iy` is not a row of the lattice.
    pub fn row(&self, iy: usize) -> &[f64] {
        let run = self.runs.partition_point(|run| run.end <= iy);
        assert!(run < self.runs.len(), "row {iy} outside the lattice");
        self.class_row(run)
    }

    /// The row of run `run`.
    fn class_row(&self, run: usize) -> &[f64] {
        let nx = self.lattice.nx;
        &self.rows[run * nx..(run + 1) * nx]
    }

    /// The largest coverage of any pixel; the smallest is never below 0.
    pub fn max_coverage(&self) -> f64 {
        self.max
    }

    /// [`Grid::row_field`] of the rasterized coverage, with one row pass
    /// per distinct class row that the column taps of `out` reach.
    ///
    /// A run whose row holds the bits of an earlier run's row points at
    /// that run's pass. A row whose pass one of the `earlier` fields holds
    /// — a field built over `previous`, the rasterization before this one,
    /// with the same taps (bit for bit) and output columns — gets a copy
    /// of that pass; a pass is a function of those three, so the copy is
    /// the pass this row would compute. Only the remaining rows are
    /// convolved ([`RowField::passes`] counts them). Fields built over
    /// other rasterizations are ignored, and the first field that matches
    /// is the one used. The field's layout does not depend on `earlier`,
    /// so it equals the field built without one.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` has even length or `out` is empty or reaches
    /// past the lattice.
    pub fn row_field<'a>(
        &self,
        kernel: &[f64],
        out: PixelRect,
        previous: &RowClasses,
        earlier: impl IntoIterator<Item = &'a RowField>,
    ) -> RowField {
        let (width, reach) = field_shape(kernel, out, &self.lattice);
        let earlier = earlier.into_iter().find(|field| {
            field.source == previous.stamp
                && (field.out.x0, field.out.x1) == (out.x0, out.x1)
                && bits_eq(&field.kernel, kernel)
        });
        let mut index: Vec<usize> = Vec::with_capacity(reach.len());
        let mut rows: Vec<f64> = Vec::new();
        let mut passes = RowPasses::default();
        for (r, run) in self.runs.iter().enumerate() {
            let held = run.start.max(reach.start)..run.end.min(reach.end);
            if held.is_empty() {
                continue;
            }
            passes.requested += 1;
            let twin = self.twins[r].filter(|&t| self.runs[t].end > reach.start);
            let pass = match twin {
                Some(t) => index[self.runs[t].start.max(reach.start) - reach.start],
                None => {
                    let row = self.class_row(r);
                    let start = rows.len();
                    let held_earlier =
                        earlier.and_then(|field| field.pass_of(previous, self.hashes[r], row));
                    match held_earlier {
                        Some(pass) => rows.extend_from_slice(pass),
                        None => {
                            rows.resize(start + width, 0.0);
                            convolve_row(row, kernel, out.x0..out.x1, &mut rows[start..]);
                            passes.computed += 1;
                        }
                    }
                    start / width
                }
            };
            index.extend(std::iter::repeat_n(pass, held.len()));
        }
        debug_assert_eq!(index.len(), reach.len(), "runs cover every row");
        RowField {
            kernel: kernel.to_vec(),
            out,
            first: reach.start,
            index,
            rows,
            source: self.stamp,
            passes,
        }
    }
}

/// A rectangle in continuous pixel coordinates of a lattice (pixel
/// `(ix, iy)` covers `[ix, ix + 1) × [iy, iy + 1)`): the per-pixel coverage
/// arithmetic of [`Grid::add_rect`] and [`RowClasses::rasterize`].
#[derive(Debug, Clone, Copy)]
struct PixelSpan {
    x0: f64,
    x1: f64,
    y0: f64,
    y1: f64,
}

impl PixelSpan {
    fn of(rect: Rect, lattice: &Lattice) -> PixelSpan {
        let Lattice { origin, pixel, .. } = *lattice;
        PixelSpan {
            x0: (rect.left() - origin.x) as f64 / pixel,
            x1: (rect.right() - origin.x) as f64 / pixel,
            y0: (rect.bottom() - origin.y) as f64 / pixel,
            y1: (rect.top() - origin.y) as f64 / pixel,
        }
    }

    /// The rows of an `ny`-row lattice the rectangle reaches.
    fn rows(&self, ny: usize) -> Range<usize> {
        self.y0.floor().max(0.0) as usize..(self.y1.ceil() as usize).min(ny)
    }

    /// The rows of an `ny`-row lattice where the rectangle's coverage of
    /// a row may change: the floor and the ceiling of its bottom and top
    /// edge, clamped to `0..=ny`. Both ends of [`PixelSpan::rows`] are
    /// among them when it is not empty.
    fn cuts(&self, ny: usize) -> [usize; 4] {
        [
            self.y0.floor(),
            self.y0.ceil(),
            self.y1.floor(),
            self.y1.ceil(),
        ]
        .map(|edge| edge.clamp(0.0, ny as f64) as usize)
    }

    /// Accumulates `weight` × (covered area fraction) into every pixel of
    /// lattice row `iy` (`row`, all of its pixels) the rectangle overlaps.
    fn add_to_row(&self, row: &mut [f64], iy: usize, weight: f64) {
        let cov_y = (self.y1.min((iy + 1) as f64) - self.y0.max(iy as f64)).max(0.0);
        if cov_y <= 0.0 {
            return;
        }
        let ix0 = self.x0.floor().max(0.0) as usize;
        let ix1 = (self.x1.ceil() as usize).min(row.len());
        for (ix, pixel) in (ix0..ix1).zip(&mut row[ix0.min(ix1)..ix1]) {
            let cov_x = (self.x1.min((ix + 1) as f64) - self.x0.max(ix as f64)).max(0.0);
            if cov_x > 0.0 {
                *pixel += weight * cov_x * cov_y;
            }
        }
    }
}

/// One kernel's row pass of a separable convolution over an output
/// rectangle, built by [`Grid::row_field`] or [`RowClasses::row_field`]:
/// the input of a column pass evaluated on demand
/// ([`RowField::column_cell`]). Rows with the same bits share one
/// row-pass result; a field built by [`RowClasses::row_field`] may hold
/// results copied from the fields of the rasterization before it.
#[derive(Debug, Clone)]
pub struct RowField {
    kernel: Vec<f64>,
    out: PixelRect,
    /// Grid row of `index[0]`.
    first: usize,
    /// The distinct row-pass row of each grid row from `first` on.
    index: Vec<usize>,
    /// The distinct row-pass rows, `out`-wide, row-major.
    rows: Vec<f64>,
    /// The stamp of the [`RowClasses`] rasterization the field was built
    /// over (0 for a [`Grid`]'s): a later field reuses its passes only
    /// against that rasterization's rows.
    source: u64,
    passes: RowPasses,
}

impl PartialEq for RowField {
    /// Two fields are equal when they hold the same passes in the same
    /// layout; where the passes came from does not matter.
    fn eq(&self, other: &RowField) -> bool {
        (&self.kernel, self.out, self.first, &self.index, &self.rows)
            == (
                &other.kernel,
                other.out,
                other.first,
                &other.index,
                &other.rows,
            )
    }
}

/// The row passes of [`RowField`]s: how many they asked for (one per run
/// of identical rows their column taps reach) and how many of those they
/// convolved rather than took from another row's pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowPasses {
    /// Row passes asked for.
    pub requested: u64,
    /// Row passes convolved.
    pub computed: u64,
}

impl RowField {
    /// The kernel taps of the pass.
    pub fn kernel(&self) -> &[f64] {
        &self.kernel
    }

    /// How many row passes building the field asked for and computed.
    pub fn passes(&self) -> RowPasses {
        self.passes
    }

    /// The pass this field holds for a run of `previous` (the
    /// rasterization it was built over) whose row has `row`'s bits, if
    /// it holds one; `hash` is the row's hash.
    fn pass_of(&self, previous: &RowClasses, hash: u64, row: &[f64]) -> Option<&[f64]> {
        let width = self.out.x1 - self.out.x0;
        let end = self.first + self.index.len();
        let at = previous.by_hash.partition_point(|&(h, _)| h < hash);
        previous.by_hash[at..]
            .iter()
            .take_while(|&&(h, _)| h == hash)
            .filter(|&&(_, run)| bits_eq(previous.class_row(run), row))
            .find_map(|&(_, run)| {
                let rows = &previous.runs[run];
                let start = rows.start.max(self.first);
                (start < rows.end.min(end)).then(|| {
                    let pass = self.index[start - self.first] * width;
                    &self.rows[pass..pass + width]
                })
            })
    }

    /// The column pass at the corners of a cell: columns `xs` of rows
    /// `ys`, laid out as [`Lattice::sample`] takes them; corners may
    /// coincide. Per pixel, the kernel taps times the row-pass values of
    /// the rows they reach accumulate from zero in ascending tap order,
    /// with taps reaching rows outside the grid skipped — bit for bit the
    /// column loop of [`Grid::convolve_separable`].
    ///
    /// Both rows run in one loop over the held rows their taps reach, in
    /// ascending order: the rows only the lower one reaches, the rows
    /// both reach, then the rows only the upper one reaches. Each row's
    /// sums still add its taps in ascending order from zero, so the loop
    /// is the per-row loop with each held row's pass read once. A cell
    /// whose two rows are one row runs the loop for that row alone.
    ///
    /// # Panics
    ///
    /// Panics if a corner lies outside the output rectangle.
    pub fn column_cell(&self, xs: [usize; 2], ys: [usize; 2]) -> [[f64; 2]; 2] {
        let out = self.out;
        assert!(
            xs.iter().all(|x| (out.x0..out.x1).contains(x))
                && ys.iter().all(|y| (out.y0..out.y1).contains(y)),
            "cell {xs:?} x {ys:?} outside the output rectangle {out:?}"
        );
        let cols = xs.map(|x| x - out.x0);
        let half = self.kernel.len() / 2;
        let end = self.first + self.index.len();
        // Row `y`'s taps reach rows `y - half ..= y + half`; the held rows
        // are exactly the in-grid rows the taps of `out` reach, so the
        // taps that are not skipped reach `reach(y)`.
        let reach = |y: usize| y.saturating_sub(half).max(self.first)..(y + half + 1).min(end);
        let (low, high) = (ys[0].min(ys[1]), ys[0].max(ys[1]));
        let below = reach(low);
        let above = if high == low {
            below.end..below.end
        } else {
            reach(high)
        };
        let (mut at_low, mut at_high) = ([0.0; 2], [0.0; 2]);
        let only_low = below.start..below.end.min(above.start);
        self.accumulate(only_low, [low], cols, [&mut at_low]);
        let both = above.start..below.end.max(above.start);
        self.accumulate(both, [low, high], cols, [&mut at_low, &mut at_high]);
        let only_high = below.end.max(above.start)..above.end;
        self.accumulate(only_high, [high], cols, [&mut at_high]);
        if high == low {
            at_high = at_low;
        }
        if ys[0] <= ys[1] {
            [at_low, at_high]
        } else {
            [at_high, at_low]
        }
    }

    /// Adds, for each held row of `rows` in ascending order, row `ys[n]`'s
    /// tap reaching it times its pass at columns `cols` (offsets into
    /// `out`) to `sums[n]`. Every row of `rows` must be within reach of
    /// every row of `ys`.
    ///
    /// The sums stay in locals over the loop and are written back at its
    /// end; each held row is one `width`-long slice whose two columns
    /// were checked once, before the loop. The multiplies and adds are
    /// the same, in the same order.
    fn accumulate<const N: usize>(
        &self,
        rows: Range<usize>,
        ys: [usize; N],
        [c0, c1]: [usize; 2],
        sums: [&mut [f64; 2]; N],
    ) {
        if rows.is_empty() {
            return;
        }
        let half = self.kernel.len() / 2;
        let width = self.out.x1 - self.out.x0;
        assert!(c0 < width && c1 < width, "columns outside the pass");
        let held = &self.index[rows.start - self.first..rows.end - self.first];
        let taps = ys.map(|y| &self.kernel[rows.start + half - y..rows.end + half - y]);
        let mut acc = sums.each_ref().map(|sum| **sum);
        for (i, &pass) in held.iter().enumerate() {
            let row = &self.rows[pass * width..][..width];
            let (v0, v1) = (row[c0], row[c1]);
            for (sum, taps) in acc.iter_mut().zip(&taps) {
                let w = taps[i];
                sum[0] += w * v0;
                sum[1] += w * v1;
            }
        }
        for (sum, acc) in sums.into_iter().zip(acc) {
            *sum = acc;
        }
    }
}

/// The output width of a row pass of `kernel` over `out` on `lattice`,
/// and the lattice rows its column taps reach (`out` ± the kernel
/// half-width, clipped to the lattice).
///
/// # Panics
///
/// Panics if `kernel` has even length or `out` is empty or reaches past
/// the lattice.
fn field_shape(kernel: &[f64], out: PixelRect, lattice: &Lattice) -> (usize, Range<usize>) {
    assert!(
        kernel.len() % 2 == 1,
        "separable kernel must have odd length"
    );
    let (nx, ny) = (lattice.nx, lattice.ny);
    assert!(
        out.x0 < out.x1 && out.x1 <= nx && out.y0 < out.y1 && out.y1 <= ny,
        "output rectangle {out:?} not a non-empty part of the {nx}x{ny} grid"
    );
    let half = kernel.len() / 2;
    (
        out.x1 - out.x0,
        out.y0.saturating_sub(half)..(out.y1 + half).min(ny),
    )
}

/// The lattice covering `window` expanded by `margin` at `pixel` nm:
/// shared by [`Grid::new`] and [`RowClasses::rasterize`].
fn lattice_of(window: Rect, margin: i64, pixel: f64) -> Result<Lattice> {
    if !(pixel.is_finite() && pixel > 0.0) {
        return Err(GeomError::InvalidResolution(pixel));
    }
    let origin = Point::new(window.left() - margin, window.bottom() - margin);
    let w = (window.width() + 2 * margin) as f64;
    let h = (window.height() + 2 * margin) as f64;
    let nx = (w / pixel).ceil() as usize + 1;
    let ny = (h / pixel).ceil() as usize + 1;
    if nx.saturating_mul(ny) > 100_000_000 {
        return Err(GeomError::InvalidResolution(pixel));
    }
    Ok(Lattice {
        origin,
        pixel,
        nx,
        ny,
    })
}

/// Rasterizes the classes between consecutive `cuts` into `rows`, one
/// `nx`-wide row each, and merges neighbours with bit-identical rows into
/// one run; `max` becomes the largest value of any row. `add(k, first,
/// row)` adds class `k`'s rectangles to `row`, its first lattice row
/// `first`, zeroed.
fn fill_runs(
    nx: usize,
    cuts: &[usize],
    runs: &mut Vec<Range<usize>>,
    rows: &mut Vec<f64>,
    max: &mut f64,
    mut add: impl FnMut(usize, usize, &mut [f64]),
) {
    runs.clear();
    rows.clear();
    *max = 0.0;
    for (class, cut) in cuts.windows(2).enumerate() {
        let (first, end) = (cut[0], cut[1]);
        let at = rows.len();
        rows.resize(at + nx, 0.0);
        let (held, row) = rows.split_at_mut(at);
        add(class, first, row);
        let previous = &held[held.len().saturating_sub(nx)..];
        match runs.last_mut() {
            Some(run) if bits_eq(previous, row) => {
                run.end = end;
                rows.truncate(at);
            }
            _ => {
                *max = row.iter().fold(*max, |m, &v| m.max(v));
                runs.push(first..end);
            }
        }
    }
}

/// Whether two rows hold the same bits.
fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A hash of a row's bits and length: a multiply-rotate mix over four
/// interleaved lanes, so the lanes' multiplies overlap. Rows with equal
/// bits hash equal; equal hashes only nominate rows for [`bits_eq`].
fn row_hash(row: &[f64]) -> u64 {
    const MIX: u64 = 0x517c_c1b7_2722_0a95;
    let mix = |h: u64, v: u64| (h.rotate_left(5) ^ v).wrapping_mul(MIX);
    let mut lanes = [row.len() as u64, 1, 2, 3];
    let chunks = row.chunks_exact(4);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (lane, v) in lanes.iter_mut().zip(chunk) {
            *lane = mix(*lane, v.to_bits());
        }
    }
    for (lane, v) in lanes.iter_mut().zip(tail) {
        *lane = mix(*lane, v.to_bits());
    }
    lanes.into_iter().fold(0, mix)
}

/// Convolves `src_row` along x with `kernel` at the output columns `cols`
/// into `dst`, which must start zeroed. Tap-outer over contiguous slices;
/// each output pixel accumulates taps in ascending order with taps outside
/// the row skipped, matching the per-pixel formulation bit for bit.
fn convolve_row(src_row: &[f64], kernel: &[f64], cols: Range<usize>, dst: &mut [f64]) {
    let half = kernel.len() / 2;
    let nx = src_row.len();
    for (k, &w) in kernel.iter().enumerate() {
        let shift = k as isize - half as isize;
        let ix0 = (cols.start as isize).max(-shift);
        let ix1 = (cols.end as isize).min(nx as isize - shift);
        if ix0 >= ix1 {
            continue;
        }
        let n = (ix1 - ix0) as usize;
        let s0 = (ix0 + shift) as usize;
        let o0 = ix0 as usize - cols.start;
        for (o, &s) in dst[o0..o0 + n].iter_mut().zip(&src_row[s0..s0 + n]) {
            *o += w * s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_10x10() -> Grid {
        Grid::new(Rect::new(0, 0, 100, 100).expect("rect"), 0, 10.0).expect("grid")
    }

    #[test]
    fn rejects_bad_resolution() {
        let w = Rect::new(0, 0, 10, 10).expect("rect");
        assert!(Grid::new(w, 0, 0.0).is_err());
        assert!(Grid::new(w, 0, -1.0).is_err());
        assert!(Grid::new(w, 0, f64::NAN).is_err());
    }

    #[test]
    fn rect_coverage_conserves_area() {
        let mut g = grid_10x10();
        // 25x35 rect not aligned to the 10 nm pixel grid.
        g.add_rect(Rect::new(12, 13, 37, 48).expect("rect"), 1.0);
        let total_area = g.total() * 10.0 * 10.0;
        assert!((total_area - 25.0 * 35.0).abs() < 1e-9, "{total_area}");
    }

    #[test]
    fn full_pixel_coverage_is_one() {
        let mut g = grid_10x10();
        g.add_rect(Rect::new(10, 10, 20, 20).expect("rect"), 1.0);
        assert!((g.at(1, 1) - 1.0).abs() < 1e-12);
        assert_eq!(g.at(0, 0), 0.0);
        assert_eq!(g.at(2, 2), 0.0);
    }

    #[test]
    fn polygon_coverage_matches_area() {
        let mut g = grid_10x10();
        let l = Polygon::new(vec![
            Point::new(5, 5),
            Point::new(55, 5),
            Point::new(55, 25),
            Point::new(25, 25),
            Point::new(25, 65),
            Point::new(5, 65),
        ])
        .expect("valid L");
        g.add_polygon(&l, 1.0);
        let total_area = g.total() * 100.0;
        assert!((total_area - l.area() as f64).abs() < 1e-6);
    }

    #[test]
    fn bilinear_sample_interpolates() {
        let mut g = grid_10x10();
        g.set(0, 0, 0.0);
        g.set(1, 0, 1.0);
        // Pixel centers at x = 5 and x = 15 (y = 5): halfway is 10.
        let v = g.sample(10.0, 5.0, g.extent());
        assert!((v - 0.5).abs() < 1e-12, "{v}");
        // At a center, exact value.
        assert!((g.sample(15.0, 5.0, g.extent()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sample_clamps_outside() {
        let mut g = grid_10x10();
        g.set(0, 0, 7.0);
        assert!((g.sample(-100.0, -100.0, g.extent()) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn identity_kernel_is_noop() {
        let mut g = grid_10x10();
        g.add_rect(Rect::new(20, 20, 60, 70).expect("rect"), 1.0);
        let before = g.data().to_vec();
        g.convolve_separable(&[1.0]);
        assert_eq!(g.data(), &before[..]);
    }

    #[test]
    fn box_kernel_conserves_mass_in_interior() {
        let mut g = grid_10x10();
        g.set(5, 5, 9.0);
        g.convolve_separable(&[1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]);
        assert!((g.total() - 9.0).abs() < 1e-9);
        assert!((g.at(5, 5) - 1.0).abs() < 1e-12);
        assert!((g.at(4, 4) - 1.0).abs() < 1e-12);
        assert_eq!(g.at(2, 2), 0.0);
    }

    #[test]
    fn box_kernel_conserves_mass_on_wide_grid() {
        // nx > ny: the column pass must write back only ny values.
        let mut g = Grid::new(Rect::new(0, 0, 200, 50).expect("rect"), 0, 10.0).expect("grid");
        g.set(10, 2, 9.0);
        g.convolve_separable(&[1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]);
        assert!((g.total() - 9.0).abs() < 1e-9);
        assert!((g.at(10, 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zip_map_combines_fields() {
        let mut a = grid_10x10();
        let mut b = grid_10x10();
        a.set(3, 3, 2.0);
        b.set(3, 3, 5.0);
        let c = a.zip_map(&b, |x, y| x + y);
        assert!((c.at(3, 3) - 7.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn zip_map_panics_on_shape_mismatch() {
        let a = grid_10x10();
        let b = Grid::new(Rect::new(0, 0, 50, 50).expect("rect"), 0, 10.0).expect("grid");
        let _ = a.zip_map(&b, |x, _| x);
    }

    /// A negative margin exactly cancelling one dimension produces a
    /// single-pixel axis (`nx == 1` or `ny == 1`).
    fn degenerate_column_grid() -> Grid {
        let g = Grid::new(Rect::new(0, 0, 100, 1000).expect("rect"), -50, 10.0).expect("grid");
        assert_eq!(g.nx(), 1);
        assert!(g.ny() > 1);
        g
    }

    #[test]
    fn sample_on_one_column_grid_does_not_panic() {
        let mut g = degenerate_column_grid();
        for iy in 0..g.ny() {
            g.set(0, iy, iy as f64);
        }
        // Anywhere in x collapses to the single column; y still interpolates.
        let v = g.sample(50.0, 960.0, g.extent());
        assert!(v.is_finite());
        // Top-right corner forces the largest indices on both axes.
        let v = g.sample(1e9, 1e9, g.extent());
        assert!((v - (g.ny() - 1) as f64).abs() < 1e-12, "{v}");
    }

    #[test]
    fn sample_on_one_row_grid_does_not_panic() {
        let mut g = Grid::new(Rect::new(0, 0, 1000, 100).expect("rect"), -50, 10.0).expect("grid");
        assert_eq!(g.ny(), 1);
        for ix in 0..g.nx() {
            g.set(ix, 0, ix as f64);
        }
        let v = g.sample(960.0, 50.0, g.extent());
        assert!(v.is_finite());
        let v = g.sample(-1e9, -1e9, g.extent());
        assert_eq!(v, 0.0);
    }

    #[test]
    fn sample_on_one_pixel_grid_returns_the_pixel() {
        let mut g = Grid::new(Rect::new(0, 0, 100, 100).expect("rect"), -50, 200.0).expect("grid");
        assert_eq!((g.nx(), g.ny()), (1, 1));
        g.set(0, 0, 3.5);
        assert_eq!(g.sample(0.0, 0.0, g.extent()), 3.5);
        assert_eq!(g.sample(1e6, -1e6, g.extent()), 3.5);
    }

    #[test]
    fn with_data_preserves_shape() {
        let g = grid_10x10();
        let d = vec![2.0; g.len()];
        let h = g.lattice().with_data(d);
        assert_eq!((h.nx(), h.ny()), (g.nx(), g.ny()));
        assert_eq!(h.origin(), g.origin());
        assert_eq!(h.at(3, 7), 2.0);
    }

    /// Naive dense 2-D convolution with the outer product of the separable
    /// kernel — the ground truth both implementations approximate.
    fn convolve_dense_reference(g: &Grid, kernel: &[f64]) -> Vec<f64> {
        let half = kernel.len() as isize / 2;
        let (nx, ny) = (g.nx() as isize, g.ny() as isize);
        let mut out = vec![0.0; g.len()];
        for oy in 0..ny {
            for ox in 0..nx {
                let mut acc = 0.0;
                for (ky, &wy) in kernel.iter().enumerate() {
                    let sy = oy + ky as isize - half;
                    if sy < 0 || sy >= ny {
                        continue;
                    }
                    for (kx, &wx) in kernel.iter().enumerate() {
                        let sx = ox + kx as isize - half;
                        if sx < 0 || sx >= nx {
                            continue;
                        }
                        acc += wy * wx * g.data()[(sy * nx + sx) as usize];
                    }
                }
                out[(oy * nx + ox) as usize] = acc;
            }
        }
        out
    }

    fn random_grid(rng: &mut postopc_rng::StdRng, w: i64, h: i64, pixel: f64) -> Grid {
        use postopc_rng::RngExt;
        let mut g = Grid::new(Rect::new(0, 0, w, h).expect("rect"), 0, pixel).expect("grid");
        for v in g.data_mut() {
            *v = rng.random_range(0.0..1.0);
        }
        g
    }

    fn random_kernel(rng: &mut postopc_rng::StdRng, half: usize) -> Vec<f64> {
        use postopc_rng::RngExt;
        (0..2 * half + 1)
            .map(|_| rng.random_range(-0.5..1.0))
            .collect()
    }

    #[test]
    fn column_cell_is_bit_identical_to_pixel_outer_oracle() {
        use postopc_rng::{RngExt, SeedableRng};
        let mut rng = postopc_rng::StdRng::seed_from_u64(31);
        // Asymmetric shapes, kernels wider than an axis, single-pixel axes.
        for (w, h, half) in [
            (200, 50, 2),
            (50, 200, 7),
            (30, 470, 19),
            (470, 30, 19),
            (10, 10, 40),
            (100, 1000, 0),
        ] {
            let kernel = random_kernel(&mut rng, half);
            let g = random_grid(&mut rng, w, h, 10.0);
            let mut oracle = g.clone();
            oracle.convolve_separable(&kernel);
            let field = g.row_field(&kernel, g.extent());
            let (nx, ny) = (g.nx(), g.ny());
            // Cells tiling the grid (corners coincide on odd edges), then
            // cells with arbitrary corners.
            let tiles = (0..ny).step_by(2).flat_map(|iy| {
                (0..nx)
                    .step_by(2)
                    .map(move |ix| ([ix, (ix + 1).min(nx - 1)], [iy, (iy + 1).min(ny - 1)]))
            });
            let random: Vec<_> = (0..200)
                .map(|_| {
                    let mut pick = |n: usize| rng.random_range(0..n);
                    ([pick(nx), pick(nx)], [pick(ny), pick(ny)])
                })
                .collect();
            for (xs, ys) in tiles.chain(random) {
                let cell = field.column_cell(xs, ys);
                for (row, &iy) in cell.iter().zip(&ys) {
                    for (v, &ix) in row.iter().zip(&xs) {
                        assert_eq!(
                            v.to_bits(),
                            oracle.at(ix, iy).to_bits(),
                            "({ix},{iy}) of {w}x{h} half={half}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn separable_matches_dense_reference_on_asymmetric_grids() {
        use postopc_rng::SeedableRng;
        let mut rng = postopc_rng::StdRng::seed_from_u64(57);
        for (w, h, half) in [(170, 60, 3), (60, 170, 6), (250, 40, 11)] {
            let kernel = random_kernel(&mut rng, half);
            let g = random_grid(&mut rng, w, h, 10.0);
            let dense = convolve_dense_reference(&g, &kernel);
            let mut separable = g.clone();
            separable.convolve_separable(&kernel);
            for (i, (&s, &d)) in separable.data().iter().zip(&dense).enumerate() {
                assert!(
                    (s - d).abs() < 1e-9,
                    "pixel {i} of {w}x{h} half={half}: separable {s} vs dense {d}"
                );
            }
        }
    }

    /// A grid whose rows come in runs of a few repeated random patterns,
    /// some runs broken by a row that differs from its predecessor in one
    /// random pixel, so the row pass takes both its repeated-row copy and
    /// its compute path, near and far from the kernel's reach.
    fn repeated_row_grid(rng: &mut postopc_rng::StdRng, w: i64, h: i64, pixel: f64) -> Grid {
        use postopc_rng::RngExt;
        let mut g = Grid::new(Rect::new(0, 0, w, h).expect("rect"), 0, pixel).expect("grid");
        let nx = g.nx();
        let patterns: Vec<Vec<f64>> = (0..3)
            .map(|_| (0..nx).map(|_| rng.random_range(0.0..1.0)).collect())
            .collect();
        let mut previous = patterns[0].clone();
        for (iy, row) in g.data_mut().chunks_exact_mut(nx).enumerate() {
            if rng.random_range(0u32..6) == 0 {
                row.copy_from_slice(&previous);
                row[rng.random_range(0..nx)] = rng.random_range(0.0..1.0);
            } else {
                row.copy_from_slice(&patterns[(iy / 4) % 3]);
            }
            previous.copy_from_slice(row);
        }
        g
    }

    #[test]
    fn lazy_weighted_sum_is_bit_identical_to_unfused_oracle_on_every_rectangle() {
        use postopc_rng::{RngExt, SeedableRng};
        let mut rng = postopc_rng::StdRng::seed_from_u64(83);
        let weights = [1.6, -0.6];
        // Wide, tall, and smaller than the wider kernel on both axes.
        for (w, h, halves) in [(310, 90, [5, 13]), (300, 1200, [3, 20]), (60, 40, [9, 40])] {
            let g = repeated_row_grid(&mut rng, w, h, 10.0);
            let kernels = halves.map(|half| random_kernel(&mut rng, half));
            // Oracle: pixel-outer convolve → scale → add, per kernel.
            let mut unfused = vec![0.0; g.len()];
            for (kernel, &weight) in kernels.iter().zip(&weights) {
                let mut field = g.clone();
                field.convolve_separable(kernel);
                field.map_inplace(|v| v * weight);
                for (a, &v) in unfused.iter_mut().zip(field.data()) {
                    *a += v;
                }
            }
            let (nx, ny) = (g.nx(), g.ny());
            let rect = |x0, x1, y0, y1| PixelRect { x0, x1, y0, y1 };
            let rects = [
                g.extent(),
                rect(nx / 2, nx / 2 + 1, ny / 3, ny / 3 + 1),
                rect(nx - 1, nx, ny - 1, ny),
                rect(0, nx / 3 + 1, 1, ny - 1),
                rect(nx / 2, nx, 1, ny / 2 + 1),
                rect(nx / 3, nx - 1, 0, 2),
                rect(1, nx / 2 + 1, ny / 2, ny),
            ];
            for out in rects {
                let fields: Vec<RowField> = kernels.iter().map(|k| g.row_field(k, out)).collect();
                // Every pixel, in a seeded random order, as a corner of a
                // cell whose other corners are random pixels of `out`,
                // summed as the imaging engine sums it:
                // `acc = 0; acc += weight × column pass` per kernel.
                let mut pixels: Vec<(usize, usize)> = (out.y0..out.y1)
                    .flat_map(|iy| (out.x0..out.x1).map(move |ix| (ix, iy)))
                    .collect();
                for i in (1..pixels.len()).rev() {
                    pixels.swap(i, rng.random_range(0..=i));
                }
                for (ix, iy) in pixels {
                    let xs = [ix, rng.random_range(out.x0..out.x1)];
                    let ys = [rng.random_range(out.y0..out.y1), iy];
                    let mut acc = [[0.0; 2]; 2];
                    for (field, &weight) in fields.iter().zip(&weights) {
                        let column = field.column_cell(xs, ys);
                        for (a, c) in acc.iter_mut().flatten().zip(column.iter().flatten()) {
                            *a += weight * c;
                        }
                    }
                    for (row, &iy) in acc.iter().zip(&ys) {
                        for (a, &ix) in row.iter().zip(&xs) {
                            assert_eq!(
                                a.to_bits(),
                                unfused[iy * nx + ix].to_bits(),
                                "pixel ({ix},{iy}) of {w}x{h} with output {out:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Seeded random rectangles around a window: overlapping lines and
    /// blocks (coverage above 1), rectangles partly or wholly off the
    /// raster, and slivers thinner than a pixel on either axis.
    fn random_rects(rng: &mut postopc_rng::StdRng, window: Rect) -> Vec<Rect> {
        use postopc_rng::RngExt;
        let (w, h) = (window.width(), window.height());
        let mut pick = |lo: i64, hi: i64| rng.random_range(lo..=hi);
        (0..pick(0, 24))
            .map(|_| {
                let x = window.left() + pick(-w / 2, w + w / 2);
                let y = window.bottom() + pick(-h / 2, h + h / 2);
                let (dx, dy) = match pick(0, 3) {
                    0 => (pick(1, 4), pick(20, 2 * h + 20)),
                    1 => (pick(20, 2 * w + 20), pick(1, 4)),
                    _ => (pick(5, w + 20), pick(5, h + 20)),
                };
                Rect::new(x, y, x + dx, y + dy).expect("rect")
            })
            .collect()
    }

    #[test]
    fn class_rows_are_bit_identical_to_add_rect_rows() {
        use postopc_rng::{RngExt, SeedableRng};
        let mut rng = postopc_rng::StdRng::seed_from_u64(25);
        let mut classes = RowClasses::new();
        let (mut merged, mut rasterized, mut deepest) = (0, 0, 0.0_f64);
        for round in 0..60 {
            let pixel = [5.0, 2.5, 7.3][round % 3];
            let margin = rng.random_range(0i64..=120);
            let (x, y) = (
                rng.random_range(-300i64..300),
                rng.random_range(-300i64..300),
            );
            let window = Rect::new(
                x,
                y,
                x + rng.random_range(1i64..400),
                y + rng.random_range(1i64..400),
            )
            .expect("window");
            let rects = random_rects(&mut rng, window);
            // One buffer across every round: a smaller window after a
            // larger one must leave nothing stale behind.
            classes
                .rasterize(window, margin, pixel, rects.iter().copied())
                .expect("classes");
            let mut grid = Grid::new(window, margin, pixel).expect("grid");
            for &r in &rects {
                grid.add_rect(r, 1.0);
            }
            let label = format!("round {round}, {window:?} + {margin} at {pixel} nm");
            assert_eq!(classes.lattice(), grid.lattice(), "{label}");
            let (nx, ny) = (grid.nx(), grid.ny());
            for iy in 0..ny {
                let row = &grid.data()[iy * nx..(iy + 1) * nx];
                assert!(bits_eq(classes.row(iy), row), "row {iy}, {label}");
            }
            // Runs tile the rows in order, and neighbouring runs differ.
            assert_eq!(classes.runs.first().map(|r| r.start), Some(0), "{label}");
            assert_eq!(classes.runs.last().map(|r| r.end), Some(ny), "{label}");
            for (i, pair) in classes.runs.windows(2).enumerate() {
                assert_eq!(pair[0].end, pair[1].start, "{label}");
                let (a, b) = (
                    &classes.rows[i * nx..][..nx],
                    &classes.rows[(i + 1) * nx..][..nx],
                );
                assert!(!bits_eq(a, b), "unmerged runs {i}, {label}");
            }
            assert_eq!(classes.rows.len(), classes.runs.len() * nx, "{label}");
            let max = grid.data().iter().fold(0.0, |m: f64, &v| m.max(v));
            assert_eq!(classes.max_coverage().to_bits(), max.to_bits(), "{label}");
            assert!(grid.data().iter().all(|&v| v >= 0.0), "{label}");
            merged += classes.runs.len();
            rasterized += classes.cuts.len() - 1;
            deepest = deepest.max(max);
            // The field built from the runs reads the grid's field bits.
            let half = rng.random_range(0usize..=30);
            let kernel = random_kernel(&mut rng, half);
            let out = PixelRect {
                x0: rng.random_range(0..nx),
                x1: nx,
                y0: rng.random_range(0..ny),
                y1: ny,
            };
            let (from_classes, from_grid) = (
                classes.row_field(&kernel, out, &RowClasses::new(), []),
                grid.row_field(&kernel, out),
            );
            assert!(from_classes.rows.len() <= from_grid.rows.len(), "{label}");
            for _ in 0..40 {
                let xs = [
                    rng.random_range(out.x0..out.x1),
                    rng.random_range(out.x0..out.x1),
                ];
                let ys = [
                    rng.random_range(out.y0..out.y1),
                    rng.random_range(out.y0..out.y1),
                ];
                let (a, b) = (
                    from_classes.column_cell(xs, ys),
                    from_grid.column_cell(xs, ys),
                );
                assert!(
                    bits_eq(a.as_flattened(), b.as_flattened()),
                    "{xs:?} {ys:?}, {label}"
                );
            }
        }
        // Some classes really do merge, and rectangles do overlap.
        assert!(
            merged < rasterized,
            "{merged} runs from {rasterized} classes"
        );
        assert!(deepest > 1.0, "coverage never above 1: {deepest}");
        // A failed rasterization leaves the classes as they were.
        let before = (
            classes.lattice(),
            classes.runs.clone(),
            classes.rows.clone(),
        );
        let window = Rect::new(0, 0, 10, 10).expect("rect");
        assert!(classes.rasterize(window, 0, -1.0, [window]).is_err());
        assert_eq!(
            before,
            (
                classes.lattice(),
                classes.runs.clone(),
                classes.rows.clone()
            )
        );
    }

    /// [`random_rects`] with coincident and stacked edges added, in a
    /// seeded order: rectangles whose corners come from a few shared
    /// abscissae and ordinates, and stacks of three to five small
    /// rectangles around one point, on and off the pixel lattice, whose
    /// shared pixels sum three or more fractional coverages.
    fn coincident_and_stacked_rects(rng: &mut postopc_rng::StdRng, window: Rect) -> Vec<Rect> {
        use postopc_rng::RngExt;
        let mut rects = random_rects(rng, window);
        let (w, h) = (window.width(), window.height());
        let mut pick = |lo: i64, hi: i64| rng.random_range(lo..=hi);
        let xs: Vec<i64> = (0..5)
            .map(|_| window.left() + pick(-w / 4, w + w / 4))
            .collect();
        let ys: Vec<i64> = (0..5)
            .map(|_| window.bottom() + pick(-h / 4, h + h / 4))
            .collect();
        for _ in 0..pick(2, 10) {
            let (x0, x1) = (xs[pick(0, 4) as usize], xs[pick(0, 4) as usize]);
            let (y0, y1) = (ys[pick(0, 4) as usize], ys[pick(0, 4) as usize]);
            if let Ok(r) = Rect::new(x0, y0, x1, y1) {
                rects.push(r);
            }
        }
        for _ in 0..pick(1, 3) {
            let (x, y) = (window.left() + pick(0, w), window.bottom() + pick(0, h));
            for _ in 0..pick(3, 5) {
                let rect = Rect::new(
                    x - pick(1, 30),
                    y - pick(1, 30),
                    x + pick(1, 30),
                    y + pick(1, 30),
                );
                rects.push(rect.expect("stacked"));
            }
        }
        for i in (1..rects.len()).rev() {
            rects.swap(i, pick(0, i as i64) as usize);
        }
        rects
    }

    /// How many pixels of `lattice` three or more of `rects` cover only
    /// in part.
    fn pixels_under_three_fractions(lattice: &Lattice, rects: &[Rect]) -> usize {
        let (nx, ny) = (lattice.nx, lattice.ny);
        let mut fractions = vec![0u8; nx * ny];
        for &rect in rects {
            let span = PixelSpan::of(rect, lattice);
            for iy in span.rows(ny) {
                let cov_y = span.y1.min((iy + 1) as f64) - span.y0.max(iy as f64);
                let ix0 = span.x0.floor().max(0.0) as usize;
                for ix in ix0..(span.x1.ceil() as usize).min(nx) {
                    let cov_x = span.x1.min((ix + 1) as f64) - span.x0.max(ix as f64);
                    if cov_x * cov_y < 1.0 {
                        fractions[iy * nx + ix] += 1;
                    }
                }
            }
        }
        fractions.iter().filter(|&&n| n >= 3).count()
    }

    #[test]
    fn rasterize_equals_the_class_scan_and_add_rect_rows() {
        use postopc_rng::{RngExt, SeedableRng};
        let mut rng = postopc_rng::StdRng::seed_from_u64(32);
        let (mut classes, mut scan) = (RowClasses::new(), RowClasses::new());
        let (mut stacked, mut outside) = (0, 0);
        for round in 0..90 {
            let pixel = [5.0, 2.5, 7.3][round % 3];
            let margin = rng.random_range(0i64..=120);
            let (x, y) = (
                rng.random_range(-300i64..300),
                rng.random_range(-300i64..300),
            );
            let window = Rect::new(
                x,
                y,
                x + rng.random_range(1i64..400),
                y + rng.random_range(1i64..400),
            )
            .expect("window");
            let rects = coincident_and_stacked_rects(&mut rng, window);
            // Both buffers are reused across rounds.
            classes
                .rasterize(window, margin, pixel, rects.iter().copied())
                .expect("classes");
            scan.rasterize_by_class_scan(window, margin, pixel, rects.iter().copied())
                .expect("scan");
            let label = format!("round {round}, {window:?} + {margin} at {pixel} nm");
            let lattice = classes.lattice();
            assert_eq!(lattice, scan.lattice(), "{label}");
            assert_eq!(classes.cuts, scan.cuts, "{label}");
            assert_eq!(classes.runs, scan.runs, "{label}");
            assert!(bits_eq(&classes.rows, &scan.rows), "{label}");
            assert_eq!(classes.max.to_bits(), scan.max.to_bits(), "{label}");
            assert_eq!(classes.hashes, scan.hashes, "{label}");
            assert_eq!(classes.twins, scan.twins, "{label}");
            let mut grid = Grid::new(window, margin, pixel).expect("grid");
            for &r in &rects {
                grid.add_rect(r, 1.0);
            }
            let nx = grid.nx();
            for (iy, row) in grid.data().chunks_exact(nx).enumerate() {
                assert!(bits_eq(classes.row(iy), row), "row {iy}, {label}");
            }
            stacked += pixels_under_three_fractions(&lattice, &rects);
            let raster = Rect::new(
                lattice.origin.x,
                lattice.origin.y,
                lattice.origin.x + (lattice.nx as f64 * pixel) as i64,
                lattice.origin.y + (lattice.ny as f64 * pixel) as i64,
            )
            .expect("raster");
            outside += rects
                .iter()
                .filter(|r| r.intersection(&raster) != Some(**r))
                .count();
        }
        assert!(stacked > 2000, "{stacked} pixels under three fractions");
        assert!(outside > 400, "{outside} rectangles reach off the raster");
    }

    /// The column pass one row at a time: per row, the taps that reach
    /// held rows, ascending from zero — the loop the fused pass replaced.
    fn column_cell_per_row(field: &RowField, xs: [usize; 2], ys: [usize; 2]) -> [[f64; 2]; 2] {
        let width = field.out.x1 - field.out.x0;
        let [c0, c1] = xs.map(|x| x - field.out.x0);
        let half = field.kernel.len() / 2;
        ys.map(|iy| {
            let k0 = (half + field.first).saturating_sub(iy);
            let k1 = (field.first + field.index.len() + half - iy).min(field.kernel.len());
            let held = &field.index[iy + k0 - half - field.first..];
            let mut acc = [0.0; 2];
            for (&w, &pass) in field.kernel[k0..k1].iter().zip(held) {
                acc[0] += w * field.rows[pass * width + c0];
                acc[1] += w * field.rows[pass * width + c1];
            }
            acc
        })
    }

    #[test]
    fn fused_column_cell_equals_the_per_row_loop_on_random_fields() {
        use postopc_rng::{RngExt, SeedableRng};
        let mut rng = postopc_rng::StdRng::seed_from_u64(31);
        let mut classes = RowClasses::new();
        let mut checked = 0;
        for round in 0..24 {
            let half = rng.random_range(0usize..=25);
            let kernel = random_kernel(&mut rng, half);
            let window = Rect::new(
                0,
                0,
                rng.random_range(10i64..400),
                rng.random_range(10i64..400),
            )
            .expect("window");
            let (grid, out) = if round % 2 == 0 {
                let g = repeated_row_grid(&mut rng, window.width(), window.height(), 10.0);
                let (nx, ny) = (g.nx(), g.ny());
                // Output rows inside the grid, so the held rows stop short of
                // its edges, or reaching them.
                let y0 = rng.random_range(0..ny);
                let y1 = rng.random_range(y0 + 1..=ny);
                let x0 = rng.random_range(0..nx);
                (
                    g,
                    PixelRect {
                        x0,
                        x1: rng.random_range(x0 + 1..=nx),
                        y0,
                        y1,
                    },
                )
            } else {
                let rects = random_rects(&mut rng, window);
                classes
                    .rasterize(window, 30, 5.0, rects.iter().copied())
                    .expect("classes");
                let lattice = classes.lattice();
                let mut g = Grid::new(window, 30, 5.0).expect("grid");
                for &r in &rects {
                    g.add_rect(r, 1.0);
                }
                (g, lattice.sample_footprint(window))
            };
            let fields = if round % 2 == 0 {
                vec![grid.row_field(&kernel, out)]
            } else {
                vec![
                    grid.row_field(&kernel, out),
                    classes.row_field(&kernel, out, &RowClasses::new(), []),
                ]
            };
            // Cells of neighbouring rows over every output row (the edge
            // ones reach the first and last held rows), clamped one-row
            // cells, and random pairs in either order, near and far apart.
            let rows = (out.y0..out.y1).flat_map(|y| [[y, (y + 1).min(out.y1 - 1)], [y, y]]);
            let random: Vec<[usize; 2]> = (0..60)
                .map(|_| {
                    [
                        rng.random_range(out.y0..out.y1),
                        rng.random_range(out.y0..out.y1),
                    ]
                })
                .collect();
            for ys in rows.chain(random) {
                let xs = [
                    rng.random_range(out.x0..out.x1),
                    rng.random_range(out.x0..out.x1),
                ];
                for field in &fields {
                    let (fused, per_row) = (
                        field.column_cell(xs, ys),
                        column_cell_per_row(field, xs, ys),
                    );
                    assert!(
                        bits_eq(fused.as_flattened(), per_row.as_flattened()),
                        "{xs:?} {ys:?}, half {half}, {out:?} of {}x{}",
                        grid.nx(),
                        grid.ny()
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 2000, "{checked} cells");
    }

    /// Rectangles whose rows repeat (equal lines stacked at several
    /// heights) and whose class rows differ between two calls only where
    /// `moved` shifts one line's edge.
    fn stacked_lines(moved: i64) -> Vec<Rect> {
        let rect = |x0, y0, x1, y1| Rect::new(x0, y0, x1, y1).expect("rect");
        vec![
            rect(0, 0, 90, 100),
            rect(200, 0, 290, 100),
            rect(0, 200, 90, 300),
            rect(200, 200, 290 + moved, 300),
            rect(0, 400, 90, 500),
            rect(200, 400, 290, 500),
            rect(100, 600, 180, 640),
        ]
    }

    /// Every cell of `field` against the pixel-outer oracle on `grid`.
    fn assert_field_matches_grid(field: &RowField, grid: &Grid, kernel: &[f64], label: &str) {
        let mut oracle = grid.clone();
        oracle.convolve_separable(kernel);
        let out = field.out;
        for y in out.y0..out.y1 {
            for x in out.x0..out.x1 {
                let cell = field.column_cell([x, x], [y, y]);
                assert_eq!(
                    cell[0][0].to_bits(),
                    oracle.at(x, y).to_bits(),
                    "({x},{y}), {label}"
                );
            }
        }
    }

    #[test]
    fn row_passes_are_reused_only_for_equal_bits_taps_and_columns_of_the_previous_rasterization() {
        let window = Rect::new(0, 0, 300, 650).expect("window");
        let kernel = random_kernel(&mut postopc_rng::SeedableRng::seed_from_u64(5), 6);
        let other = random_kernel(&mut postopc_rng::SeedableRng::seed_from_u64(6), 6);
        let raster = |moved: i64| {
            let mut classes = RowClasses::new();
            classes
                .rasterize(window, 40, 5.0, stacked_lines(moved))
                .expect("classes");
            let mut grid = Grid::new(window, 40, 5.0).expect("grid");
            for r in stacked_lines(moved) {
                grid.add_rect(r, 1.0);
            }
            (classes, grid)
        };
        let (previous, _) = raster(0);
        let (current, grid) = raster(3);
        let out = current.lattice().sample_footprint(window);
        let none = RowClasses::new();
        let earlier = previous.row_field(&kernel, out, &none, []);
        // Equal lines at three heights: one pass serves all three.
        let fresh = current.row_field(&kernel, out, &none, []);
        assert!(
            fresh.passes().computed < fresh.passes().requested,
            "{:?}",
            fresh.passes()
        );
        assert_field_matches_grid(&fresh, &grid, &kernel, "fresh");
        // After the previous rasterization only the moved line's rows are
        // convolved, and the field is the fresh one.
        let reused = current.row_field(&kernel, out, &previous, [&earlier]);
        assert_eq!(reused, fresh);
        assert_eq!(reused.passes().requested, fresh.passes().requested);
        assert_eq!(reused.passes().computed, 1, "{:?}", reused.passes());
        // Other taps, other output columns, or passes of another
        // rasterization than `previous`: nothing is reused.
        let other_taps = current.row_field(&other, out, &previous, [&earlier]);
        assert_eq!(other_taps, current.row_field(&other, out, &none, []));
        assert_eq!(other_taps.passes().computed, fresh.passes().computed);
        let narrower = PixelRect {
            x1: out.x1 - 1,
            ..out
        };
        let shifted = current.row_field(&kernel, narrower, &previous, [&earlier]);
        assert_eq!(shifted, current.row_field(&kernel, narrower, &none, []));
        assert_eq!(shifted.passes().computed, fresh.passes().computed);
        let (stale, _) = raster(0);
        let unmatched = current.row_field(&kernel, out, &stale, [&earlier]);
        assert_eq!(unmatched.passes().computed, fresh.passes().computed);
        // The first matching field is used; a non-matching one before it
        // is skipped.
        let other_earlier = previous.row_field(&other, out, &none, []);
        let second = current.row_field(&kernel, out, &previous, [&other_earlier, &earlier]);
        assert_eq!((second.passes().computed, &second), (1, &fresh));
    }

    #[test]
    fn a_row_sharing_a_hash_with_a_different_row_is_computed() {
        let window = Rect::new(0, 0, 300, 650).expect("window");
        let kernel = random_kernel(&mut postopc_rng::SeedableRng::seed_from_u64(8), 5);
        let mut previous = RowClasses::new();
        previous
            .rasterize(window, 40, 5.0, stacked_lines(0))
            .expect("classes");
        let mut current = RowClasses::new();
        current
            .rasterize(window, 40, 5.0, stacked_lines(3))
            .expect("classes");
        let mut grid = Grid::new(window, 40, 5.0).expect("grid");
        for r in stacked_lines(3) {
            grid.add_rect(r, 1.0);
        }
        let out = current.lattice().sample_footprint(window);
        let none = RowClasses::new();
        let earlier = previous.row_field(&kernel, out, &none, []);
        // Across rasterizations: every current row takes the hash of the
        // previous rasterization's first run, which holds other bits than
        // all but the empty rows.
        let forced = previous.hashes[0];
        current.hashes.iter_mut().for_each(|h| *h = forced);
        current.find_twins();
        let field = current.row_field(&kernel, out, &previous, [&earlier]);
        assert_field_matches_grid(&field, &grid, &kernel, "across");
        let distinct = field.rows.len() / (out.x1 - out.x0);
        assert_eq!(
            field.passes().computed as usize,
            distinct - 1,
            "{:?}",
            field.passes()
        );
        // Within one rasterization: all rows share one hash, and only rows
        // with equal bits share a pass.
        let fresh = current.row_field(&kernel, out, &none, []);
        assert_field_matches_grid(&fresh, &grid, &kernel, "within");
        assert_eq!(fresh.passes().computed as usize, distinct);
        assert!(distinct > 3, "{distinct} distinct rows");
    }

    #[test]
    #[should_panic(expected = "outside the output rectangle")]
    fn column_cell_rejects_pixels_outside_its_rectangle() {
        let g = grid_10x10();
        let out = PixelRect {
            x0: 2,
            x1: 6,
            y0: 3,
            y1: 7,
        };
        let field = g.row_field(&[0.25, 0.5, 0.25], out);
        field.column_cell([2, 3], [6, 7]);
    }

    #[test]
    fn footprint_sampling_matches_whole_grid_sampling_inside_the_window() {
        use postopc_rng::{RngExt, SeedableRng};
        let mut rng = postopc_rng::StdRng::seed_from_u64(7);
        let window = Rect::new(-137, 40, 261, 333).expect("rect");
        for pixel in [2.5, 5.0, 7.3] {
            let mut g = Grid::new(window, 60, pixel).expect("grid");
            for v in g.data_mut() {
                *v = rng.random_range(0.0..1.0);
            }
            let footprint = g.lattice().sample_footprint(window);
            let span = |n: i64| (n as f64 / pixel).ceil() as usize + 2;
            assert!(footprint.x0 > 0 && footprint.x1 - footprint.x0 <= span(window.width()));
            assert!(footprint.y0 > 0 && footprint.y1 - footprint.y0 <= span(window.height()));
            for i in 0..=40 {
                for j in 0..=40 {
                    let x = window.left() as f64 + window.width() as f64 * i as f64 / 40.0;
                    let y = window.bottom() as f64 + window.height() as f64 * j as f64 / 40.0;
                    assert_eq!(
                        g.sample(x, y, footprint).to_bits(),
                        g.sample(x, y, g.extent()).to_bits(),
                        "({x}, {y}) at {pixel} nm"
                    );
                }
            }
            // The whole grid is its own footprint's bound; a window off the
            // grid still yields a non-empty edge rectangle.
            let whole = g
                .lattice()
                .sample_footprint(Rect::new(-10_000, -10_000, 10_000, 10_000).expect("rect"));
            assert_eq!(whole, g.extent());
            let off = g
                .lattice()
                .sample_footprint(Rect::new(5_000, 5_000, 6_000, 6_000).expect("rect"));
            assert_eq!(
                (off.x0, off.x1, off.y0, off.y1),
                (g.nx() - 1, g.nx(), g.ny() - 1, g.ny())
            );
        }
    }
}
