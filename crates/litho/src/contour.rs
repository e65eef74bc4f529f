//! Printed-contour extraction and image-quality metrics.
//!
//! Beyond point measurements (cutlines), the flow sometimes needs the
//! whole printed shape — e.g. to report hotspot snippets or to compute
//! printed-area statistics — and edge-quality metrics (ILS/NILS) that
//! predict CD stability through dose.

use crate::error::Result;
use crate::image::AerialImage;
use crate::resist::ResistModel;
use postopc_geom::{Coord, Point, Polygon, Rect};

/// Extracts the printed contours inside `window` as rectilinear polygons
/// at the given trace resolution (nm per step). `window` should lie inside
/// the window `image` was simulated over: reads outside that clamp to its
/// edge.
///
/// The printed region is discretized at `step_nm` and each connected
/// component's boundary is traced; the result is a pixel-accurate
/// rectilinear approximation of the resist contour (adequate for area,
/// snippet and hotspot-shape work; use cutlines for sub-nm CD metrology).
///
/// # Errors
///
/// Returns a geometry error only for a degenerate `window` or
/// non-positive `step_nm`.
pub fn printed_contours(
    image: &AerialImage,
    resist: &ResistModel,
    window: Rect,
    step_nm: f64,
) -> Result<Vec<Polygon>> {
    if !(step_nm.is_finite() && step_nm > 0.0) {
        return Err(postopc_geom::GeomError::InvalidResolution(step_nm).into());
    }
    let nx = (window.width() as f64 / step_nm).ceil() as usize + 1;
    let ny = (window.height() as f64 / step_nm).ceil() as usize + 1;
    // Sample the printed predicate on the grid.
    let mut printed = vec![false; nx * ny];
    for iy in 0..ny {
        for ix in 0..nx {
            let x = window.left() as f64 + (ix as f64 + 0.5) * step_nm;
            let y = window.bottom() as f64 + (iy as f64 + 0.5) * step_nm;
            printed[iy * nx + ix] = resist.printed_at(image, x, y);
        }
    }
    // Connected components by flood fill (4-connectivity).
    let mut label = vec![usize::MAX; nx * ny];
    let mut components = 0usize;
    let mut stack = Vec::new();
    for start in 0..nx * ny {
        if !printed[start] || label[start] != usize::MAX {
            continue;
        }
        let id = components;
        components += 1;
        stack.push(start);
        label[start] = id;
        while let Some(i) = stack.pop() {
            let (ix, iy) = (i % nx, i / nx);
            let mut push = |j: usize| {
                if printed[j] && label[j] == usize::MAX {
                    label[j] = id;
                    stack.push(j);
                }
            };
            if ix > 0 {
                push(i - 1);
            }
            if ix + 1 < nx {
                push(i + 1);
            }
            if iy > 0 {
                push(i - nx);
            }
            if iy + 1 < ny {
                push(i + nx);
            }
        }
    }
    // Build each component's polygon from its pixel rows (union of
    // per-row runs, merged through the polygon's rect decomposition
    // equivalence: we construct the boundary by tracing runs).
    let mut polygons = Vec::with_capacity(components);
    for id in 0..components {
        if let Some(poly) = component_polygon(&label, nx, ny, id, window, step_nm) {
            polygons.push(poly);
        }
    }
    Ok(polygons)
}

/// Builds the rectilinear outline of one labelled component by tracing
/// its boundary edges (pixel-edge walk, outer contour only).
fn component_polygon(
    label: &[usize],
    nx: usize,
    ny: usize,
    id: usize,
    window: Rect,
    step_nm: f64,
) -> Option<Polygon> {
    let inside = |ix: isize, iy: isize| -> bool {
        if ix < 0 || iy < 0 || ix as usize >= nx || iy as usize >= ny {
            return false;
        }
        label[iy as usize * nx + ix as usize] == id
    };
    // Find the lowest-leftmost boundary pixel.
    let start = (0..nx * ny).find(|&i| label[i] == id)?;
    let (sx, sy) = ((start % nx) as isize, (start / nx) as isize);
    // Boundary walk over pixel corners, keeping the component on the left.
    // Directions: 0 = +x, 1 = +y, 2 = -x, 3 = -y.
    let mut corners: Vec<(isize, isize)> = Vec::new();
    let (mut cx, mut cy) = (sx, sy); // current corner (pixel lower-left)
    let mut dir = 0usize;
    let start_corner = (cx, cy);
    loop {
        corners.push((cx, cy));
        // Try to turn left first (keeps the region on the left), then
        // straight, then right, then back.
        let mut moved = false;
        for turn in [3usize, 0, 1, 2] {
            let nd = (dir + turn) % 4;
            let (dx, dy) = [(1isize, 0isize), (0, 1), (-1, 0), (0, -1)][nd];
            // A step along (dx,dy) from corner (cx,cy) is a boundary edge
            // iff the pixel on its left is inside and on its right outside.
            let (lx, ly, rx, ry) = match nd {
                0 => (cx, cy, cx, cy - 1),
                1 => (cx - 1, cy, cx, cy),
                2 => (cx - 1, cy - 1, cx - 1, cy),
                _ => (cx, cy - 1, cx - 1, cy - 1),
            };
            if inside(lx, ly) && !inside(rx, ry) {
                cx += dx;
                cy += dy;
                dir = nd;
                moved = true;
                break;
            }
        }
        if !moved {
            return None; // isolated pixel patterns degenerate; skip
        }
        if (cx, cy) == start_corner {
            break;
        }
        if corners.len() > 8 * nx * ny {
            return None; // tracing failure guard
        }
    }
    // Convert corners to nm and simplify collinear runs.
    let to_nm = |c: (isize, isize)| {
        Point::new(
            window.left() + (c.0 as f64 * step_nm).round() as Coord,
            window.bottom() + (c.1 as f64 * step_nm).round() as Coord,
        )
    };
    let vertices: Vec<Point> = corners.into_iter().map(to_nm).collect();
    Polygon::new(vertices)
        .ok()
        .and_then(|p| p.simplified().ok())
}

/// Image log slope at a point along a unit direction, in 1/nm:
/// `ILS = |dI/dn| / I`. Higher is better (steeper edges, more dose
/// latitude).
pub fn image_log_slope(image: &AerialImage, at: (f64, f64), direction: (f64, f64)) -> f64 {
    const H: f64 = 2.0;
    let (x, y) = at;
    let (dx, dy) = direction;
    let i0 = image.intensity_at(x, y).max(1e-12);
    let plus = image.intensity_at(x + dx * H, y + dy * H);
    let minus = image.intensity_at(x - dx * H, y - dy * H);
    ((plus - minus) / (2.0 * H)).abs() / i0
}

/// Normalized image log slope: `NILS = ILS × CD`, the standard
/// dimensionless edge-quality figure (≥ 2 is comfortable at the 90 nm
/// node; below ~1.5 dose control collapses).
pub fn nils(image: &AerialImage, edge: (f64, f64), normal: (f64, f64), cd_nm: f64) -> f64 {
    image_log_slope(image, edge, normal) * cd_nm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::SimulationSpec;

    fn line_image() -> AerialImage {
        let line = Polygon::from(Rect::new(-45, -600, 45, 600).expect("rect"));
        AerialImage::simulate(
            &SimulationSpec::nominal(),
            &[line],
            Rect::new(-300, -300, 300, 300).expect("rect"),
        )
        .expect("image")
    }

    #[test]
    fn contour_of_a_line_is_one_polygon_with_right_area() {
        let image = line_image();
        let window = Rect::new(-200, -250, 200, 250).expect("rect");
        let contours =
            printed_contours(&image, &ResistModel::standard(), window, 5.0).expect("contours");
        assert_eq!(contours.len(), 1, "expected one printed component");
        let printed = &contours[0];
        // Printed CD ≈ 95 nm over the 500 nm window height: area within
        // ~15% of that estimate.
        let area = printed.area() as f64;
        let expected = 95.0 * 500.0;
        assert!(
            (area - expected).abs() / expected < 0.15,
            "printed area {area} vs expected {expected}"
        );
        assert!(printed.is_simple());
    }

    #[test]
    fn empty_image_has_no_contours() {
        let image = AerialImage::simulate(
            &SimulationSpec::nominal(),
            &[],
            Rect::new(-300, -300, 300, 300).expect("rect"),
        )
        .expect("image");
        let contours = printed_contours(
            &image,
            &ResistModel::standard(),
            Rect::new(-200, -200, 200, 200).expect("rect"),
            5.0,
        )
        .expect("contours");
        assert!(contours.is_empty());
    }

    #[test]
    fn two_lines_give_two_components() {
        let mask = vec![
            Polygon::from(Rect::new(-45, -600, 45, 600).expect("rect")),
            Polygon::from(Rect::new(235, -600, 325, 600).expect("rect")),
        ];
        let image = AerialImage::simulate(
            &SimulationSpec::nominal(),
            &mask,
            Rect::new(-300, -300, 600, 300).expect("rect"),
        )
        .expect("image");
        let contours = printed_contours(
            &image,
            &ResistModel::standard(),
            Rect::new(-200, -250, 500, 250).expect("rect"),
            5.0,
        )
        .expect("contours");
        assert_eq!(contours.len(), 2);
    }

    #[test]
    fn contours_from_shared_workspace_match_direct_simulation() {
        use crate::workspace::SimWorkspace;
        let line = Polygon::from(Rect::new(-45, -600, 45, 600).expect("rect"));
        let sim_window = Rect::new(-300, -300, 300, 300).expect("rect");
        let trace_window = Rect::new(-200, -250, 200, 250).expect("rect");
        let mut ws = SimWorkspace::new();
        let pooled = AerialImage::simulate_with(
            &mut ws,
            &SimulationSpec::nominal(),
            std::slice::from_ref(&line),
            sim_window,
        )
        .expect("image");
        let direct = line_image();
        let resist = ResistModel::standard();
        let from_pooled = printed_contours(&pooled, &resist, trace_window, 5.0).expect("contours");
        let from_direct = printed_contours(&direct, &resist, trace_window, 5.0).expect("contours");
        assert_eq!(from_pooled, from_direct);
    }

    #[test]
    fn rejects_bad_step() {
        let image = line_image();
        assert!(printed_contours(
            &image,
            &ResistModel::standard(),
            Rect::new(-100, -100, 100, 100).expect("rect"),
            0.0
        )
        .is_err());
    }

    #[test]
    fn nils_is_physical_at_the_edge() {
        let image = line_image();
        // Printed edge near x = 47; NILS between 0.5 and 5 for this node.
        let n = nils(&image, (47.0, 0.0), (1.0, 0.0), 90.0);
        assert!((0.5..5.0).contains(&n), "NILS = {n}");
        // ILS at the line center is much smaller than at the edge.
        let ils_center = image_log_slope(&image, (0.0, 0.0), (1.0, 0.0));
        let ils_edge = image_log_slope(&image, (47.0, 0.0), (1.0, 0.0));
        assert!(ils_edge > 3.0 * ils_center);
    }

    #[test]
    fn defocus_degrades_nils() {
        let line = Polygon::from(Rect::new(-45, -600, 45, 600).expect("rect"));
        let window = Rect::new(-300, -300, 300, 300).expect("rect");
        let focused = AerialImage::simulate(
            &SimulationSpec::nominal(),
            std::slice::from_ref(&line),
            window,
        )
        .expect("image");
        let blurred = AerialImage::simulate(
            &SimulationSpec::nominal().with_conditions(crate::ProcessConditions {
                focus_nm: 200.0,
                dose: 1.0,
            }),
            &[line],
            window,
        )
        .expect("image");
        assert!(
            nils(&blurred, (47.0, 0.0), (1.0, 0.0), 90.0)
                < nils(&focused, (47.0, 0.0), (1.0, 0.0), 90.0)
        );
    }
}
