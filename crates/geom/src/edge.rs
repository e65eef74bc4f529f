//! Axis-parallel polygon edges.

use crate::point::{Coord, Point, Vector};
use std::fmt;

/// Orientation of an axis-parallel edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Orientation {
    /// Constant `y`, varying `x`.
    Horizontal,
    /// Constant `x`, varying `y`.
    Vertical,
}

impl Orientation {
    /// The perpendicular orientation.
    pub fn perpendicular(self) -> Orientation {
        match self {
            Orientation::Horizontal => Orientation::Vertical,
            Orientation::Vertical => Orientation::Horizontal,
        }
    }
}

/// A directed, axis-parallel edge of a rectilinear polygon.
///
/// Edges are directed so that for a counter-clockwise polygon the interior
/// lies to the *left* of the direction of travel and [`Edge::outward_normal`]
/// points away from the interior.
///
/// ```
/// use postopc_geom::{Edge, Point, Vector};
/// let e = Edge::new(Point::new(0, 0), Point::new(10, 0)); // +x direction
/// assert_eq!(e.outward_normal(), Vector::new(0, -1));     // CCW: outside below
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Start point (tail).
    pub start: Point,
    /// End point (head).
    pub end: Point,
}

impl Edge {
    /// Creates an edge from `start` to `end`.
    ///
    /// # Panics
    ///
    /// Panics if the edge is not axis-parallel or has zero length; edges are
    /// only ever produced from validated rectilinear polygons, so a diagonal
    /// here is an internal logic error.
    pub fn new(start: Point, end: Point) -> Edge {
        assert!(
            (start.x == end.x) ^ (start.y == end.y),
            "edge must be axis-parallel and non-degenerate: {start} -> {end}"
        );
        Edge { start, end }
    }

    /// The edge's orientation.
    pub fn orientation(&self) -> Orientation {
        if self.start.y == self.end.y {
            Orientation::Horizontal
        } else {
            Orientation::Vertical
        }
    }

    /// Length in nm.
    pub fn length(&self) -> Coord {
        (self.end.x - self.start.x).abs() + (self.end.y - self.start.y).abs()
    }

    /// Unit direction of travel (one of the four axis directions).
    pub fn direction(&self) -> Vector {
        Vector::new(
            (self.end.x - self.start.x).signum(),
            (self.end.y - self.start.y).signum(),
        )
    }

    /// Unit normal pointing away from the interior of a CCW polygon
    /// (90 degrees clockwise from the direction of travel).
    pub fn outward_normal(&self) -> Vector {
        -self.direction().rotate90()
    }

    /// Midpoint of the edge (rounded toward `start` for odd lengths).
    pub fn midpoint(&self) -> Point {
        Point::new(
            (self.start.x + self.end.x) / 2,
            (self.start.y + self.end.y) / 2,
        )
    }

    /// A point a fraction `t` in `[0, 1]` of the way along the edge.
    pub fn point_at(&self, t: f64) -> Point {
        let t = t.clamp(0.0, 1.0);
        Point::new(
            self.start.x + ((self.end.x - self.start.x) as f64 * t).round() as Coord,
            self.start.y + ((self.end.y - self.start.y) as f64 * t).round() as Coord,
        )
    }

    /// The fixed coordinate: `y` for horizontal edges, `x` for vertical.
    pub fn level(&self) -> Coord {
        match self.orientation() {
            Orientation::Horizontal => self.start.y,
            Orientation::Vertical => self.start.x,
        }
    }

    /// The edge translated by `offset` nm along its outward normal.
    pub fn shifted(&self, offset: Coord) -> Edge {
        let v = self.outward_normal() * offset;
        Edge {
            start: self.start + v,
            end: self.end + v,
        }
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ccw_square_outward_normals_point_out() {
        // CCW square: bottom, right, top, left.
        let bottom = Edge::new(Point::new(0, 0), Point::new(10, 0));
        let right = Edge::new(Point::new(10, 0), Point::new(10, 10));
        let top = Edge::new(Point::new(10, 10), Point::new(0, 10));
        let left = Edge::new(Point::new(0, 10), Point::new(0, 0));
        assert_eq!(bottom.outward_normal(), Vector::new(0, -1));
        assert_eq!(right.outward_normal(), Vector::new(1, 0));
        assert_eq!(top.outward_normal(), Vector::new(0, 1));
        assert_eq!(left.outward_normal(), Vector::new(-1, 0));
    }

    #[test]
    fn shifted_moves_along_normal() {
        let bottom = Edge::new(Point::new(0, 0), Point::new(10, 0));
        let out = bottom.shifted(3);
        assert_eq!(out.start, Point::new(0, -3)); // outward = grows the polygon
        let inward = bottom.shifted(-2);
        assert_eq!(inward.start, Point::new(0, 2));
    }

    #[test]
    fn levels_and_collinearity() {
        let a = Edge::new(Point::new(0, 5), Point::new(10, 5));
        let b = Edge::new(Point::new(20, 5), Point::new(30, 5));
        let c = Edge::new(Point::new(0, 6), Point::new(10, 6));
        assert_eq!(a.level(), 5);
        assert_eq!((a.orientation(), a.level()), (b.orientation(), b.level()));
        assert_ne!(a.level(), c.level());
    }

    #[test]
    fn point_at_interpolates() {
        let e = Edge::new(Point::new(0, 0), Point::new(100, 0));
        assert_eq!(e.point_at(0.25), Point::new(25, 0));
        assert_eq!(e.point_at(-1.0), e.start);
        assert_eq!(e.point_at(2.0), e.end);
    }

    #[test]
    #[should_panic(expected = "axis-parallel")]
    fn diagonal_edge_panics() {
        let _ = Edge::new(Point::new(0, 0), Point::new(1, 1));
    }

    #[test]
    fn length_and_midpoint() {
        let e = Edge::new(Point::new(2, 7), Point::new(2, -3));
        assert_eq!(e.length(), 10);
        assert_eq!(e.midpoint(), Point::new(2, 2));
        assert_eq!(e.orientation(), Orientation::Vertical);
    }
}
