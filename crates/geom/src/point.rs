//! Integer-nanometer points and displacement vectors.
//!
//! Layout coordinates use `i64` database units with 1 DBU = 1 nm, matching
//! the convention of the rest of the workspace (see `DESIGN.md`).

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// Coordinate type used for all layout geometry (1 unit = 1 nm).
pub type Coord = i64;

/// A point in layout space.
///
/// ```
/// use postopc_geom::Point;
/// let p = Point::new(100, 200);
/// assert_eq!(p + postopc_geom::Vector::new(-50, 0), Point::new(50, 200));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Point {
    /// Horizontal coordinate in nm.
    pub x: Coord,
    /// Vertical coordinate in nm.
    pub y: Coord,
}

/// A displacement between two points.
///
/// Distinguished from [`Point`] so that positions and offsets cannot be
/// accidentally mixed (C-NEWTYPE).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Vector {
    /// Horizontal displacement in nm.
    pub dx: Coord,
    /// Vertical displacement in nm.
    pub dy: Coord,
}

impl Point {
    /// Creates a point at `(x, y)`.
    pub const fn new(x: Coord, y: Coord) -> Self {
        Point { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point::new(0, 0);

    /// Euclidean distance to `other`, in nm as `f64`.
    pub fn distance(self, other: Point) -> f64 {
        let dx = (self.x - other.x) as f64;
        let dy = (self.y - other.y) as f64;
        dx.hypot(dy)
    }

    /// Component-wise minimum of two points.
    pub fn min(self, other: Point) -> Point {
        Point::new(self.x.min(other.x), self.y.min(other.y))
    }

    /// Component-wise maximum of two points.
    pub fn max(self, other: Point) -> Point {
        Point::new(self.x.max(other.x), self.y.max(other.y))
    }
}

impl Vector {
    /// Creates a displacement of `(dx, dy)`.
    pub const fn new(dx: Coord, dy: Coord) -> Self {
        Vector { dx, dy }
    }

    /// The zero displacement.
    pub const ZERO: Vector = Vector::new(0, 0);

    /// Euclidean norm of the vector in nm.
    pub fn length(self) -> f64 {
        (self.dx as f64).hypot(self.dy as f64)
    }

    /// 2D cross product (z-component), useful for winding computations.
    pub fn cross(self, other: Vector) -> i128 {
        self.dx as i128 * other.dy as i128 - self.dy as i128 * other.dx as i128
    }

    /// Dot product as an `i128` to avoid overflow on large coordinates.
    pub fn dot(self, other: Vector) -> i128 {
        self.dx as i128 * other.dx as i128 + self.dy as i128 * other.dy as i128
    }

    /// Rotates the vector 90 degrees counter-clockwise.
    pub fn rotate90(self) -> Vector {
        Vector::new(-self.dy, self.dx)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}, {}>", self.dx, self.dy)
    }
}

impl Add<Vector> for Point {
    type Output = Point;
    fn add(self, rhs: Vector) -> Point {
        Point::new(self.x + rhs.dx, self.y + rhs.dy)
    }
}

impl AddAssign<Vector> for Point {
    fn add_assign(&mut self, rhs: Vector) {
        self.x += rhs.dx;
        self.y += rhs.dy;
    }
}

impl Sub<Vector> for Point {
    type Output = Point;
    fn sub(self, rhs: Vector) -> Point {
        Point::new(self.x - rhs.dx, self.y - rhs.dy)
    }
}

impl SubAssign<Vector> for Point {
    fn sub_assign(&mut self, rhs: Vector) {
        self.x -= rhs.dx;
        self.y -= rhs.dy;
    }
}

impl Sub for Point {
    type Output = Vector;
    fn sub(self, rhs: Point) -> Vector {
        Vector::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Add for Vector {
    type Output = Vector;
    fn add(self, rhs: Vector) -> Vector {
        Vector::new(self.dx + rhs.dx, self.dy + rhs.dy)
    }
}

impl Sub for Vector {
    type Output = Vector;
    fn sub(self, rhs: Vector) -> Vector {
        Vector::new(self.dx - rhs.dx, self.dy - rhs.dy)
    }
}

impl Neg for Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        Vector::new(-self.dx, -self.dy)
    }
}

impl Mul<Coord> for Vector {
    type Output = Vector;
    fn mul(self, rhs: Coord) -> Vector {
        Vector::new(self.dx * rhs, self.dy * rhs)
    }
}

impl From<(Coord, Coord)> for Point {
    fn from((x, y): (Coord, Coord)) -> Point {
        Point::new(x, y)
    }
}

impl From<(Coord, Coord)> for Vector {
    fn from((dx, dy): (Coord, Coord)) -> Vector {
        Vector::new(dx, dy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_arithmetic_roundtrips() {
        let p = Point::new(10, -3);
        let v = Vector::new(7, 9);
        assert_eq!((p + v) - v, p);
        assert_eq!((p + v) - p, v);
    }

    #[test]
    fn distances() {
        let a = Point::new(0, 0);
        let b = Point::new(3, 4);
        assert!((a.distance(b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn cross_and_dot() {
        let x = Vector::new(1, 0);
        let y = Vector::new(0, 1);
        assert_eq!(x.cross(y), 1);
        assert_eq!(y.cross(x), -1);
        assert_eq!(x.dot(y), 0);
        assert_eq!(x.rotate90(), y);
    }

    #[test]
    fn min_max_are_componentwise() {
        let a = Point::new(1, 9);
        let b = Point::new(5, 2);
        assert_eq!(a.min(b), Point::new(1, 2));
        assert_eq!(a.max(b), Point::new(5, 9));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Point::new(1, 2).to_string(), "(1, 2)");
        assert_eq!(Vector::new(-1, 0).to_string(), "<-1, 0>");
    }

    #[test]
    fn no_overflow_in_cross_for_large_coords() {
        let v = Vector::new(i64::MAX / 2, 0);
        let w = Vector::new(0, 2);
        assert_eq!(v.cross(w), (i64::MAX / 2) as i128 * 2);
    }
}
