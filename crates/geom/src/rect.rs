//! Axis-aligned rectangles.

use crate::error::{GeomError, Result};
use crate::point::{Coord, Point, Vector};
use std::fmt;

/// An axis-aligned rectangle with strictly positive area.
///
/// The canonical representation stores the lower-left (`min`) and upper-right
/// (`max`) corners with `min.x < max.x` and `min.y < max.y`. Constructors
/// normalize corner order; degenerate (zero-width or zero-height) rectangles
/// are rejected so that downstream geometry never has to special-case them.
///
/// ```
/// use postopc_geom::Rect;
/// # fn main() -> Result<(), postopc_geom::GeomError> {
/// let r = Rect::new(0, 0, 90, 400)?;
/// assert_eq!(r.width(), 90);
/// assert_eq!(r.area(), 36_000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    min: Point,
    max: Point,
}

impl Rect {
    /// Creates a rectangle spanning the two corner points, in any order.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::EmptyRect`] if the rectangle would have zero
    /// width or height.
    pub fn new(x0: Coord, y0: Coord, x1: Coord, y1: Coord) -> Result<Rect> {
        let min = Point::new(x0.min(x1), y0.min(y1));
        let max = Point::new(x0.max(x1), y0.max(y1));
        if min.x == max.x || min.y == max.y {
            // Saturating: an extent wider than `Coord` (one stored
            // corner near each end of the range) is reported, not a panic.
            return Err(GeomError::EmptyRect {
                width: max.x.saturating_sub(min.x),
                height: max.y.saturating_sub(min.y),
            });
        }
        Ok(Rect { min, max })
    }

    /// Creates a rectangle from corner points.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::EmptyRect`] for degenerate extents.
    pub fn from_points(a: Point, b: Point) -> Result<Rect> {
        Rect::new(a.x, a.y, b.x, b.y)
    }

    /// Creates a rectangle centered at `center` with the given width/height.
    ///
    /// Odd sizes are rounded so the full width/height is preserved
    /// (`min = center - size/2`, `max = min + size`).
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::EmptyRect`] if `width` or `height` is `<= 0`.
    pub fn centered(center: Point, width: Coord, height: Coord) -> Result<Rect> {
        if width <= 0 || height <= 0 {
            return Err(GeomError::EmptyRect { width, height });
        }
        let min = Point::new(center.x - width / 2, center.y - height / 2);
        Rect::new(min.x, min.y, min.x + width, min.y + height)
    }

    /// Lower-left corner.
    pub fn min(&self) -> Point {
        self.min
    }

    /// Upper-right corner.
    pub fn max(&self) -> Point {
        self.max
    }

    /// Left edge x-coordinate.
    pub fn left(&self) -> Coord {
        self.min.x
    }

    /// Right edge x-coordinate.
    pub fn right(&self) -> Coord {
        self.max.x
    }

    /// Bottom edge y-coordinate.
    pub fn bottom(&self) -> Coord {
        self.min.y
    }

    /// Top edge y-coordinate.
    pub fn top(&self) -> Coord {
        self.max.y
    }

    /// Width in nm (always positive).
    pub fn width(&self) -> Coord {
        self.max.x - self.min.x
    }

    /// Height in nm (always positive).
    pub fn height(&self) -> Coord {
        self.max.y - self.min.y
    }

    /// Area in nm² as `i128` (a full-chip rectangle overflows `i64`).
    pub fn area(&self) -> i128 {
        self.width() as i128 * self.height() as i128
    }

    /// Center point (rounded toward `min` for odd extents).
    pub fn center(&self) -> Point {
        Point::new(
            self.min.x + self.width() / 2,
            self.min.y + self.height() / 2,
        )
    }

    /// Whether `p` lies inside or on the boundary.
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Whether `other` is fully contained (boundary touching allowed).
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.contains(other.min) && self.contains(other.max)
    }

    /// Whether the two rectangles share interior area (touching edges do
    /// not count as intersection).
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min.x < other.max.x
            && other.min.x < self.max.x
            && self.min.y < other.max.y
            && other.min.y < self.max.y
    }

    /// The overlapping region, if the interiors intersect.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Rect::new(
            self.min.x.max(other.min.x),
            self.min.y.max(other.min.y),
            self.max.x.min(other.max.x),
            self.max.y.min(other.max.y),
        )
        .ok()
    }

    /// Smallest rectangle containing both inputs.
    pub fn union_bbox(&self, other: &Rect) -> Rect {
        Rect {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// Grows (positive `bias`) or shrinks (negative) all four sides by
    /// `bias` nm.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::EmptyRect`] if shrinking collapses the rectangle.
    pub fn expand(&self, bias: Coord) -> Result<Rect> {
        Rect::new(
            self.min.x - bias,
            self.min.y - bias,
            self.max.x + bias,
            self.max.y + bias,
        )
    }

    /// The rectangle translated by `v`.
    pub fn translate(&self, v: Vector) -> Rect {
        Rect {
            min: self.min + v,
            max: self.max + v,
        }
    }

    /// Euclidean gap between the closest points of two rectangles
    /// (0.0 if they touch or overlap).
    pub fn gap(&self, other: &Rect) -> f64 {
        let dx = (other.min.x - self.max.x)
            .max(self.min.x - other.max.x)
            .max(0);
        let dy = (other.min.y - self.max.y)
            .max(self.min.y - other.max.y)
            .max(0);
        (dx as f64).hypot(dy as f64)
    }

    /// The four corner points, counter-clockwise from `min`.
    pub fn corners(&self) -> [Point; 4] {
        [
            self.min,
            Point::new(self.max.x, self.min.y),
            self.max,
            Point::new(self.min.x, self.max.y),
        ]
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x0: Coord, y0: Coord, x1: Coord, y1: Coord) -> Rect {
        Rect::new(x0, y0, x1, y1).expect("valid rect")
    }

    #[test]
    fn normalizes_corner_order() {
        let a = r(10, 20, 0, 0);
        assert_eq!(a.min(), Point::new(0, 0));
        assert_eq!(a.max(), Point::new(10, 20));
    }

    #[test]
    fn rejects_degenerate() {
        assert!(matches!(
            Rect::new(0, 0, 0, 10),
            Err(GeomError::EmptyRect { .. })
        ));
        assert!(Rect::centered(Point::ORIGIN, 0, 5).is_err());
    }

    #[test]
    fn a_degenerate_rect_spanning_the_whole_range_is_a_typed_error() {
        for (x0, y0, x1, y1) in [
            (0, Coord::MIN, 0, Coord::MAX),
            (Coord::MIN, 7, Coord::MAX, 7),
        ] {
            assert!(matches!(
                Rect::new(x0, y0, x1, y1),
                Err(GeomError::EmptyRect { .. })
            ));
        }
    }

    #[test]
    fn centered_preserves_size() {
        let c = Rect::centered(Point::new(100, 100), 91, 45).expect("valid");
        assert_eq!(c.width(), 91);
        assert_eq!(c.height(), 45);
    }

    #[test]
    fn intersection_and_touching() {
        let a = r(0, 0, 10, 10);
        let b = r(10, 0, 20, 10); // shares an edge only
        assert!(!a.intersects(&b));
        assert_eq!(a.intersection(&b), None);
        let c = r(5, 5, 15, 15);
        assert_eq!(a.intersection(&c), Some(r(5, 5, 10, 10)));
    }

    #[test]
    fn union_bbox_covers_both() {
        let a = r(0, 0, 1, 1);
        let b = r(5, -3, 6, 9);
        let u = a.union_bbox(&b);
        assert!(u.contains_rect(&a) && u.contains_rect(&b));
        assert_eq!(u, r(0, -3, 6, 9));
    }

    #[test]
    fn expand_and_shrink() {
        let a = r(0, 0, 10, 10);
        assert_eq!(a.expand(5).expect("grown"), r(-5, -5, 15, 15));
        assert_eq!(a.expand(-4).expect("shrunk"), r(4, 4, 6, 6));
        assert!(a.expand(-5).is_err());
    }

    #[test]
    fn gap_between_rects() {
        let a = r(0, 0, 10, 10);
        let b = r(13, 0, 20, 10);
        assert!((a.gap(&b) - 3.0).abs() < 1e-12);
        let c = r(13, 14, 20, 20);
        assert!((a.gap(&c) - 5.0).abs() < 1e-12);
        let d = r(5, 5, 6, 6);
        assert_eq!(a.gap(&d), 0.0);
    }

    #[test]
    fn area_uses_wide_arithmetic() {
        let big = r(0, 0, 3_000_000_000, 3_000_000_000);
        assert_eq!(big.area(), 9_000_000_000_000_000_000i128);
    }

    #[test]
    fn corners_ccw() {
        let a = r(0, 0, 2, 3);
        let c = a.corners();
        assert_eq!(c[0], Point::new(0, 0));
        assert_eq!(c[1], Point::new(2, 0));
        assert_eq!(c[2], Point::new(2, 3));
        assert_eq!(c[3], Point::new(0, 3));
    }
}
