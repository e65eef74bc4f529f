//! Printed wire-width extraction — the paper's multi-layer extension.

use crate::error::Result;
use postopc_geom::Rect;
use postopc_litho::{cutline, AerialImage, ResistModel};

/// Measures the printed width of a wire segment at several stations along
/// its length and returns the mean, or `None` if nothing printed.
///
/// The segment is assumed rectangular with its length along the longer
/// axis; stations are spaced evenly, inset from the ends. `segment` must
/// lie inside the window `image` was simulated over, with a quarter of its
/// drawn width to spare across the wire: each station searches up to
/// 0.75 drawn widths from the centre line, and an image is defined only
/// inside its window.
///
/// # Errors
///
/// Currently infallible (unprintable stations are skipped and an
/// all-failed segment returns `Ok(None)`).
pub fn measure_wire_width(
    image: &AerialImage,
    resist: &ResistModel,
    segment: Rect,
    stations: usize,
) -> Result<Option<f64>> {
    let horizontal = segment.width() >= segment.height();
    let (axis, drawn_w) = if horizontal {
        ((0.0, 1.0), segment.height() as f64)
    } else {
        ((1.0, 0.0), segment.width() as f64)
    };
    let n = stations.max(1);
    let mut widths = Vec::with_capacity(n);
    for i in 0..n {
        let frac = (i as f64 + 0.5) / n as f64;
        let (x, y) = if horizontal {
            (
                segment.left() as f64 + frac * segment.width() as f64,
                (segment.bottom() + segment.top()) as f64 / 2.0,
            )
        } else {
            (
                (segment.left() + segment.right()) as f64 / 2.0,
                segment.bottom() as f64 + frac * segment.height() as f64,
            )
        };
        // Search only modestly past the drawn half-width: a station whose
        // contour is farther out is measuring into merged metal (rails,
        // straps) and is rejected rather than recorded.
        if let Ok(cd) = cutline::measure_cd(image, resist, (x, y), axis, drawn_w * 0.75) {
            widths.push(cd);
        }
    }
    if widths.is_empty() {
        return Ok(None);
    }
    Ok(Some(widths.iter().sum::<f64>() / widths.len() as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use postopc_geom::Polygon;
    use postopc_litho::SimulationSpec;

    #[test]
    fn wire_width_extracts_near_drawn() {
        let wire = Rect::new(-600, -60, 600, 60).expect("rect"); // 120 nm wide
        let image = AerialImage::simulate(
            &SimulationSpec::nominal(),
            &[Polygon::from(wire)],
            Rect::new(-500, -300, 500, 300).expect("rect"),
        )
        .expect("image");
        let inside = Rect::new(-500, -60, 500, 60).expect("rect");
        let w = measure_wire_width(&image, &ResistModel::standard(), inside, 5)
            .expect("measurement")
            .expect("wire prints");
        assert!((w - 120.0).abs() < 25.0, "printed width {w}");
    }

    #[test]
    fn vertical_wires_measured_across() {
        let wire = Rect::new(-60, -600, 60, 600).expect("rect");
        let image = AerialImage::simulate(
            &SimulationSpec::nominal(),
            &[Polygon::from(wire)],
            Rect::new(-300, -500, 300, 500).expect("rect"),
        )
        .expect("image");
        let inside = Rect::new(-60, -500, 60, 500).expect("rect");
        let w = measure_wire_width(&image, &ResistModel::standard(), inside, 5)
            .expect("measurement")
            .expect("wire prints");
        assert!((w - 120.0).abs() < 25.0, "printed width {w}");
    }

    #[test]
    fn missing_wire_returns_none() {
        let wire = Rect::new(-500, -60, 500, 60).expect("rect");
        let image = AerialImage::simulate(
            &SimulationSpec::nominal(),
            &[],
            Rect::new(-500, -300, 500, 300).expect("rect"),
        )
        .expect("image");
        assert_eq!(
            measure_wire_width(&image, &ResistModel::standard(), wire, 3).expect("measurement"),
            None
        );
    }
}
