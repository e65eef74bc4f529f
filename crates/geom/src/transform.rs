//! Placement transforms: the eight Manhattan orientations plus translation.

use crate::point::{Point, Vector};
use crate::polygon::Polygon;
use crate::rect::Rect;
use std::fmt;

/// One of the eight layout orientations (rotations by multiples of 90° and
/// their mirrored versions), as used for cell placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Orient {
    /// Identity.
    #[default]
    R0,
    /// 90° counter-clockwise.
    R90,
    /// 180°.
    R180,
    /// 270° counter-clockwise.
    R270,
    /// Mirror about the x-axis (flip vertically), then `R0`.
    MX,
    /// Mirror about the x-axis, then rotate 90° CCW.
    MX90,
    /// Mirror about the y-axis (flip horizontally), then `R0`.
    MY,
    /// Mirror about the y-axis, then rotate 90° CCW.
    MY90,
}

impl Orient {
    /// All eight orientations.
    pub const ALL: [Orient; 8] = [
        Orient::R0,
        Orient::R90,
        Orient::R180,
        Orient::R270,
        Orient::MX,
        Orient::MX90,
        Orient::MY,
        Orient::MY90,
    ];

    /// Applies the orientation to a point about the origin.
    pub fn apply(self, p: Point) -> Point {
        match self {
            Orient::R0 => p,
            Orient::R90 => Point::new(-p.y, p.x),
            Orient::R180 => Point::new(-p.x, -p.y),
            Orient::R270 => Point::new(p.y, -p.x),
            Orient::MX => Point::new(p.x, -p.y),
            Orient::MX90 => Point::new(p.y, p.x),
            Orient::MY => Point::new(-p.x, p.y),
            Orient::MY90 => Point::new(-p.y, -p.x),
        }
    }
}

impl fmt::Display for Orient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Orient::R0 => "R0",
            Orient::R90 => "R90",
            Orient::R180 => "R180",
            Orient::R270 => "R270",
            Orient::MX => "MX",
            Orient::MX90 => "MX90",
            Orient::MY => "MY",
            Orient::MY90 => "MY90",
        };
        f.write_str(s)
    }
}

/// A rigid placement transform: orientation about the origin followed by a
/// translation.
///
/// ```
/// use postopc_geom::{Transform, Orient, Point, Vector};
/// let t = Transform::new(Orient::MY, Vector::new(1000, 0));
/// assert_eq!(t.apply(Point::new(100, 50)), Point::new(900, 50));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Transform {
    /// Orientation applied first, about the origin.
    pub orient: Orient,
    /// Translation applied after the orientation.
    pub offset: Vector,
}

impl Transform {
    /// Creates a transform from orientation and translation.
    pub const fn new(orient: Orient, offset: Vector) -> Transform {
        Transform { orient, offset }
    }

    /// The identity transform.
    pub const IDENTITY: Transform = Transform::new(Orient::R0, Vector::ZERO);

    /// A pure translation.
    pub const fn translation(offset: Vector) -> Transform {
        Transform::new(Orient::R0, offset)
    }

    /// Applies the transform to a point.
    pub fn apply(&self, p: Point) -> Point {
        self.orient.apply(p) + self.offset
    }

    /// Applies the transform to a rectangle.
    pub fn apply_rect(&self, r: Rect) -> Rect {
        let a = self.apply(r.min());
        let b = self.apply(r.max());
        // Orientation permutes corners but preserves non-degeneracy.
        Rect::from_points(a, b)
            .unwrap_or_else(|_| unreachable!("Manhattan transforms preserve rect validity"))
    }

    /// Applies the transform to a polygon (winding is re-normalized).
    pub fn apply_polygon(&self, poly: &Polygon) -> Polygon {
        let vertices = poly.vertices().iter().map(|&v| self.apply(v)).collect();
        // Axis-parallelism and area are preserved by Manhattan transforms.
        Polygon::new(vertices)
            .unwrap_or_else(|_| unreachable!("Manhattan transforms preserve polygon validity"))
    }
}

impl fmt::Display for Transform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}+{}", self.orient, self.offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Coord;

    fn r(x0: Coord, y0: Coord, x1: Coord, y1: Coord) -> Rect {
        Rect::new(x0, y0, x1, y1).expect("rect")
    }

    #[test]
    fn orientations_are_distinct() {
        let p = Point::new(3, 1);
        let images: std::collections::HashSet<Point> =
            Orient::ALL.iter().map(|o| o.apply(p)).collect();
        assert_eq!(images.len(), 8);
    }

    #[test]
    fn r90_four_times_is_identity() {
        let p = Point::new(7, -2);
        let mut q = p;
        for _ in 0..4 {
            q = Orient::R90.apply(q);
        }
        assert_eq!(q, p);
    }

    #[test]
    fn mirrors_are_involutions() {
        for o in [Orient::MX, Orient::MY] {
            let p = Point::new(5, 9);
            assert_eq!(o.apply(o.apply(p)), p);
        }
    }

    #[test]
    fn rect_transform_preserves_area() {
        let rect = r(10, 20, 40, 90);
        for &o in &Orient::ALL {
            let t = Transform::new(o, Vector::new(-17, 33));
            let out = t.apply_rect(rect);
            assert_eq!(out.area(), rect.area(), "orientation {o}");
        }
    }

    #[test]
    fn polygon_transform_preserves_area_and_winding() {
        let l = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(20, 0),
            Point::new(20, 10),
            Point::new(10, 10),
            Point::new(10, 20),
            Point::new(0, 20),
        ])
        .expect("valid L");
        for &o in &Orient::ALL {
            let t = Transform::new(o, Vector::new(100, 200));
            let out = t.apply_polygon(&l);
            assert_eq!(out.area(), l.area(), "orientation {o}");
            assert!(out.is_simple());
        }
    }

    #[test]
    fn my_mirror_in_row_placement() {
        // Standard-cell rows alternate MY-mirrored cells about the cell width.
        let t = Transform::new(Orient::MY, Vector::new(1000, 0));
        assert_eq!(t.apply(Point::new(0, 0)), Point::new(1000, 0));
        assert_eq!(t.apply(Point::new(400, 10)), Point::new(600, 10));
    }
}
