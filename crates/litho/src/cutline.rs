//! Cutline measurements: printed edge positions, CDs, and edge placement
//! errors — the "design-based metrology" primitives of the flow.

use crate::error::{LithoError, Result};
use crate::image::AerialImage;
use crate::resist::ResistModel;

/// Search step along a cutline in nm (sub-pixel; the field is smooth).
const STEP_NM: f64 = 1.0;

/// Finds the distance (nm) from `start` along the unit direction
/// `(dx, dy)` at which the printed contour is crossed.
///
/// The start must be on the *printed* side. The search reads the image at
/// the points `STEP_NM` apart along the ray, up to `max_dist_nm`, finds
/// the first one below the resist threshold and interpolates the crossing
/// linearly between it and the point before.
///
/// It does not read every point. The image carries a bound on how fast a
/// read can change per nm along an axis (times `|dx| + |dy|` along the
/// ray), so from a point at intensity `v` the next `⌊(v − threshold −
/// 1e-12) ÷ bound⌋` points cannot cross and are skipped; the first point
/// past them is read, and on a crossing the point before it too. Once the
/// ray clamps to the edge of the image's defined pixels on every axis it
/// moves along, every later read repeats the last one, so the search
/// stops there. The points read are the march's points, so the result
/// is bit for bit the result of reading every point.
///
/// # Errors
///
/// Returns [`LithoError::InvalidSearchDistance`] if `max_dist_nm` is
/// negative or not finite, [`LithoError::NonFiniteRay`] if a coordinate of
/// `start` or `direction` is NaN or infinite, and
/// [`LithoError::NoContourCrossing`] if the start is not printed or no
/// crossing occurs within range (pinched feature or bridged gap).
pub fn find_edge(
    image: &AerialImage,
    resist: &ResistModel,
    start: (f64, f64),
    direction: (f64, f64),
    max_dist_nm: f64,
) -> Result<f64> {
    // NaN would silently search nowhere; an infinite distance has no last
    // point.
    if !(max_dist_nm.is_finite() && max_dist_nm >= 0.0) {
        return Err(LithoError::InvalidSearchDistance { max_dist_nm });
    }
    // A NaN ray reads NaN at every point and never settles; an infinite
    // one has no points to read.
    check_ray(start, direction)?;
    let (x0, y0) = start;
    let (dx, dy) = direction;
    let threshold = resist.threshold;
    let no_crossing = LithoError::NoContourCrossing { x_nm: x0, y_nm: y0 };
    // Point `i` of the ray, and its read.
    let point = |i: usize| {
        let d = i as f64 * STEP_NM;
        (x0 + dx * d, y0 + dy * d)
    };
    let read = |(x, y): (f64, f64)| image.intensity_at(x, y);
    let mut v = read(start);
    if v < threshold {
        return Err(no_crossing);
    }
    let steps = (max_dist_nm / STEP_NM).ceil() as usize;
    let per_step = (dx.abs() + dy.abs()) * image.slope_bound() * STEP_NM;
    let (mut i, mut at): (usize, _) = (0, start);
    loop {
        if image.settled(at, direction) {
            return Err(no_crossing);
        }
        // A cast saturates: NaN (a zero bound at the threshold) skips
        // nothing, +∞ (a zero bound above it) everything.
        let skip = ((v - threshold - 1e-12) / per_step).floor() as usize;
        let next = i.saturating_add(skip).saturating_add(1);
        if next > steps {
            return Err(no_crossing);
        }
        at = point(next);
        let w = read(at);
        if w < threshold {
            let prev = if next - 1 == i {
                v
            } else {
                read(point(next - 1))
            };
            // Linear interpolation between the last two points.
            let t = (prev - threshold) / (prev - w);
            let d = next as f64 * STEP_NM;
            return Ok(d - STEP_NM + t * STEP_NM);
        }
        (i, v) = (next, w);
    }
}

/// Rejects a search ray with a NaN or infinite coordinate.
fn check_ray(start: (f64, f64), direction: (f64, f64)) -> Result<()> {
    let finite = [start.0, start.1, direction.0, direction.1]
        .iter()
        .all(|v| v.is_finite());
    if finite {
        Ok(())
    } else {
        Err(LithoError::NonFiniteRay { start, direction })
    }
}

/// The search [`find_edge`] reproduces: every point in turn, kept as its
/// oracle.
#[cfg(test)]
pub(crate) fn find_edge_march(
    image: &AerialImage,
    resist: &ResistModel,
    start: (f64, f64),
    direction: (f64, f64),
    max_dist_nm: f64,
) -> Result<f64> {
    if !(max_dist_nm.is_finite() && max_dist_nm >= 0.0) {
        return Err(LithoError::InvalidSearchDistance { max_dist_nm });
    }
    check_ray(start, direction)?;
    let (x0, y0) = start;
    let (dx, dy) = direction;
    let mut prev = image.intensity_at(x0, y0);
    if prev < resist.threshold {
        return Err(LithoError::NoContourCrossing { x_nm: x0, y_nm: y0 });
    }
    let steps = (max_dist_nm / STEP_NM).ceil() as usize;
    for i in 1..=steps {
        let d = i as f64 * STEP_NM;
        let v = image.intensity_at(x0 + dx * d, y0 + dy * d);
        if v < resist.threshold {
            // Linear interpolation between the last two samples.
            let t = (prev - resist.threshold) / (prev - v);
            return Ok(d - STEP_NM + t * STEP_NM);
        }
        prev = v;
    }
    Err(LithoError::NoContourCrossing { x_nm: x0, y_nm: y0 })
}

/// Measures the printed critical dimension across a feature.
///
/// Casts a cutline through `center` along the unit `axis` and returns the
/// distance between the two printed-contour crossings.
///
/// # Errors
///
/// Returns [`LithoError::NoContourCrossing`] if the feature does not print
/// at `center` or an edge is out of range, and
/// [`LithoError::InvalidSearchDistance`] for a negative or non-finite
/// `max_half_nm`.
pub fn measure_cd(
    image: &AerialImage,
    resist: &ResistModel,
    center: (f64, f64),
    axis: (f64, f64),
    max_half_nm: f64,
) -> Result<f64> {
    let plus = find_edge(image, resist, center, axis, max_half_nm)?;
    let minus = find_edge(image, resist, center, (-axis.0, -axis.1), max_half_nm)?;
    Ok(plus + minus)
}

/// Signed edge placement error at a target edge point.
///
/// `outward` is the unit outward normal of the *target* edge (pointing
/// away from the feature). Positive EPE means the printed edge lies
/// outside the target (feature prints fat); negative means pullback.
///
/// The probe starts slightly inside the feature (`probe_inset_nm`) so the
/// measurement tolerates small negative EPE at the start point.
///
/// # Errors
///
/// Returns [`LithoError::NoContourCrossing`] if the feature is missing
/// entirely at the probe point (catastrophic pinch), and
/// [`LithoError::InvalidSearchDistance`] if `search_nm` is not finite or
/// reaches less than zero past the inset start.
pub fn edge_placement_error(
    image: &AerialImage,
    resist: &ResistModel,
    target: (f64, f64),
    outward: (f64, f64),
    search_nm: f64,
) -> Result<f64> {
    let inset = 30.0_f64.min(search_nm / 2.0);
    let start = (target.0 - outward.0 * inset, target.1 - outward.1 * inset);
    let d = find_edge(image, resist, start, outward, search_nm + inset)?;
    Ok(d - inset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::SimulationSpec;
    use crate::optics::ProcessConditions;
    use postopc_geom::{Polygon, Rect};

    fn image_of(mask: &[Polygon]) -> AerialImage {
        AerialImage::simulate(
            &SimulationSpec::nominal(),
            mask,
            Rect::new(-400, -400, 400, 400).expect("rect"),
        )
        .expect("image")
    }

    fn vertical_line() -> Polygon {
        Polygon::from(Rect::new(-45, -600, 45, 600).expect("rect"))
    }

    #[test]
    fn printed_cd_close_to_drawn_for_isolated_line() {
        let img = image_of(&[vertical_line()]);
        let cd = measure_cd(
            &img,
            &ResistModel::standard(),
            (0.0, 0.0),
            (1.0, 0.0),
            150.0,
        )
        .expect("feature prints");
        assert!(
            (cd - 90.0).abs() < 20.0,
            "isolated 90 nm line printed at {cd} nm"
        );
    }

    #[test]
    fn edge_positions_are_symmetric() {
        let img = image_of(&[vertical_line()]);
        let r = ResistModel::standard();
        let right = find_edge(&img, &r, (0.0, 0.0), (1.0, 0.0), 150.0).expect("edge");
        let left = find_edge(&img, &r, (0.0, 0.0), (-1.0, 0.0), 150.0).expect("edge");
        assert!((right - left).abs() < 0.5, "asymmetry {right} vs {left}");
    }

    #[test]
    fn unprinted_start_errors() {
        let img = image_of(&[vertical_line()]);
        let r = ResistModel::standard();
        assert!(matches!(
            find_edge(&img, &r, (300.0, 0.0), (1.0, 0.0), 50.0),
            Err(LithoError::NoContourCrossing { .. })
        ));
    }

    #[test]
    fn non_finite_or_negative_search_distance_is_a_typed_error() {
        // The ray from the line's center crosses its edge, so only the
        // distance check can reject it; an infinite march on a ray that
        // never crosses would not return.
        let img = image_of(&[vertical_line()]);
        let r = ResistModel::standard();
        for max_dist_nm in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let rejected: Result<f64> = Err(LithoError::InvalidSearchDistance { max_dist_nm });
            let got = find_edge(&img, &r, (0.0, 0.0), (1.0, 0.0), max_dist_nm);
            assert_eq!(format!("{got:?}"), format!("{rejected:?}"));
        }
        assert!(matches!(
            edge_placement_error(&img, &r, (45.0, 0.0), (1.0, 0.0), f64::NAN),
            Err(LithoError::InvalidSearchDistance { .. })
        ));
        // A zero distance is a search that takes no step.
        assert!(matches!(
            find_edge(&img, &r, (0.0, 0.0), (1.0, 0.0), 0.0),
            Err(LithoError::NoContourCrossing { .. })
        ));
    }

    #[test]
    fn huge_searches_on_rays_that_never_cross_return_promptly() {
        // Past the window every read clamps to its edge, so a search that
        // has not crossed by then never will. A march over 1e15 points
        // would take days; these return at the window's edge.
        let r = ResistModel::standard();
        let line = image_of(&[vertical_line()]);
        let block = image_of(&[Polygon::from(
            Rect::new(-2000, -2000, 2000, 2000).expect("rect"),
        )]);
        for (image, start, direction) in [
            (&line, (0.0, 0.0), (0.0, 1.0)),
            (&line, (10.0, -30.0), (0.0, -1.0)),
            (&block, (0.0, 0.0), (0.6, 0.8)),
            (&block, (-500.0, 120.0), (-1.0, 0.0)),
            (&block, (7.0, 7.0), (0.0, 0.0)),
        ] {
            let (x_nm, y_nm) = start;
            assert_eq!(
                find_edge(image, &r, start, direction, 1e15),
                Err(LithoError::NoContourCrossing { x_nm, y_nm }),
                "{start:?} {direction:?}"
            );
            assert_eq!(
                find_edge(image, &r, start, direction, 2000.0),
                find_edge_march(image, &r, start, direction, 2000.0),
                "{start:?} {direction:?}"
            );
        }
        // A ray that does cross still finds its edge.
        let far = find_edge(&line, &r, (0.0, 0.0), (1.0, 0.0), 1e15).expect("edge");
        assert_eq!(
            far.to_bits(),
            find_edge_march(&line, &r, (0.0, 0.0), (1.0, 0.0), 150.0)
                .expect("edge")
                .to_bits()
        );
    }

    #[test]
    fn non_finite_rays_are_a_typed_error_before_any_read() {
        // A NaN direction reads NaN at every point and an infinite start
        // reads the clamped edge value: marches that would take years at
        // 1e15 nm. Both searches reject the ray before reading it.
        let r = ResistModel::standard();
        let block = image_of(&[Polygon::from(
            Rect::new(-2000, -2000, 2000, 2000).expect("rect"),
        )]);
        for (start, direction) in [
            ((0.0, 0.0), (f64::NAN, 0.0)),
            ((0.0, 0.0), (0.0, f64::INFINITY)),
            ((f64::INFINITY, 0.0), (-1.0, 0.0)),
            ((f64::NEG_INFINITY, 0.0), (1.0, 0.0)),
            ((0.0, f64::NAN), (0.0, 1.0)),
        ] {
            // NaN payloads compare unequal, so compare renderings.
            let rejected: Result<f64> = Err(LithoError::NonFiniteRay { start, direction });
            for got in [
                find_edge(&block, &r, start, direction, 1e15),
                find_edge_march(&block, &r, start, direction, 1e15),
            ] {
                assert_eq!(format!("{got:?}"), format!("{rejected:?}"));
            }
        }
    }

    #[test]
    fn epe_sign_convention() {
        let img = image_of(&[vertical_line()]);
        let r = ResistModel::standard();
        // Overdose → prints fat → positive EPE at the drawn right edge.
        let over = AerialImage::simulate(
            &SimulationSpec::nominal().with_conditions(ProcessConditions {
                focus_nm: 0.0,
                dose: 1.3,
            }),
            &[vertical_line()],
            Rect::new(-400, -400, 400, 400).expect("rect"),
        )
        .expect("image");
        let epe_nominal =
            edge_placement_error(&img, &r, (45.0, 0.0), (1.0, 0.0), 60.0).expect("epe");
        let epe_over = edge_placement_error(&over, &r, (45.0, 0.0), (1.0, 0.0), 60.0).expect("epe");
        assert!(epe_over > epe_nominal, "overdose must push the edge out");
        assert!(epe_nominal.abs() < 25.0, "nominal EPE = {epe_nominal}");
    }

    #[test]
    fn line_end_pulls_back() {
        // Finite line: EPE at the line end is negative (pullback) and
        // more negative than at the side edge — the classic OPC target.
        let short = Polygon::from(Rect::new(-45, -250, 45, 250).expect("rect"));
        let img = image_of(&[short]);
        let r = ResistModel::standard();
        let end_epe = edge_placement_error(&img, &r, (0.0, 250.0), (0.0, 1.0), 120.0).expect("epe");
        let side_epe = edge_placement_error(&img, &r, (45.0, 0.0), (1.0, 0.0), 120.0).expect("epe");
        assert!(
            end_epe < side_epe,
            "line end EPE {end_epe} should be below side EPE {side_epe}"
        );
        assert!(end_epe < 0.0, "line end must pull back, got {end_epe}");
    }

    #[test]
    fn cds_from_shared_workspace_are_bit_identical() {
        // CD metrology must not care which workspace imaged the window:
        // the same masks through one reused workspace give bitwise-equal
        // CDs to the thread-local `simulate` path.
        use crate::workspace::SimWorkspace;
        let r = ResistModel::standard();
        let masks: Vec<Vec<Polygon>> = vec![
            vec![vertical_line()],
            vec![
                vertical_line(),
                Polygon::from(Rect::new(-325, -600, -235, 600).expect("rect")),
            ],
        ];
        let window = Rect::new(-400, -400, 400, 400).expect("rect");
        let mut ws = SimWorkspace::new();
        for mask in &masks {
            let pooled =
                AerialImage::simulate_with(&mut ws, &SimulationSpec::nominal(), mask, window)
                    .expect("image");
            let direct = image_of(mask);
            let cd_pooled = measure_cd(&pooled, &r, (0.0, 0.0), (1.0, 0.0), 150.0).expect("cd");
            let cd_direct = measure_cd(&direct, &r, (0.0, 0.0), (1.0, 0.0), 150.0).expect("cd");
            assert_eq!(cd_pooled.to_bits(), cd_direct.to_bits());
        }
    }

    #[test]
    fn probes_ending_on_the_window_edge_read_the_oracle_bits() {
        // The extraction geometry: the window is the target's bbox plus an
        // 80 nm margin, so an 80 nm EPE search from a target edge ends on
        // the window edge, as does a CD march over the half-window from
        // the target's center. Sweeping the mask's edges across the
        // window's puts the printed crossing on both sides of it.
        use crate::image::tests::simulate_reference;
        let r = ResistModel::standard();
        let spec = SimulationSpec::nominal();
        let target = Rect::new(-45, -300, 45, 300).expect("rect");
        let window = target.expand(80).expect("window");
        let (half_w, half_h) = (window.right() as f64, window.top() as f64);
        let (mut crossed_last_step, mut missed) = (0, 0);
        for reach in 100..=150 {
            let mask = [Polygon::from(
                Rect::new(-reach, -reach - 255, reach, reach + 255).expect("rect"),
            )];
            let image = AerialImage::simulate(&spec, &mask, window).expect("image");
            let oracle = simulate_reference(&spec, &mask, window);
            let probe = |i: usize, img: &AerialImage| match i {
                0 => edge_placement_error(img, &r, (45.0, 0.0), (1.0, 0.0), 80.0),
                1 => edge_placement_error(img, &r, (0.0, 300.0), (0.0, 1.0), 80.0),
                2 => measure_cd(img, &r, (0.0, 0.0), (1.0, 0.0), half_w),
                _ => measure_cd(img, &r, (0.0, 0.0), (0.0, 1.0), half_h),
            };
            for i in 0..4 {
                match (probe(i, &image), probe(i, &oracle)) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.to_bits(), b.to_bits(), "probe {i}, mask reach {reach}");
                        crossed_last_step += usize::from(i < 2 && a > 79.0);
                    }
                    (a, b) => {
                        assert_eq!(a, b, "probe {i}, mask reach {reach}");
                        missed += 1;
                    }
                }
            }
        }
        assert!(crossed_last_step > 0 && missed > 0);
    }

    #[test]
    fn dense_and_iso_cds_differ() {
        let iso = image_of(&[vertical_line()]);
        let dense = image_of(&[
            vertical_line(),
            Polygon::from(Rect::new(-325, -600, -235, 600).expect("rect")),
            Polygon::from(Rect::new(235, -600, 325, 600).expect("rect")),
        ]);
        let r = ResistModel::standard();
        let cd_iso = measure_cd(&iso, &r, (0.0, 0.0), (1.0, 0.0), 150.0).expect("cd");
        let cd_dense = measure_cd(&dense, &r, (0.0, 0.0), (1.0, 0.0), 150.0).expect("cd");
        assert!(
            (cd_iso - cd_dense).abs() > 1.0,
            "iso-dense bias too small: iso {cd_iso} vs dense {cd_dense}"
        );
    }
}
