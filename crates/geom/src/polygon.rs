//! Rectilinear (Manhattan) polygons.
//!
//! These are the workhorse of the layout model: every drawn shape, every
//! OPC-corrected mask shape, and every printed-contour approximation is a
//! rectilinear polygon. The representation is a closed counter-clockwise
//! vertex loop in which *collinear* consecutive edges are permitted — OPC
//! fragmentation inserts such pseudo-vertices on purpose so that individual
//! edge fragments can be biased independently.

use crate::edge::{Edge, Orientation};
use crate::error::{GeomError, Result};
use crate::point::{Coord, Point, Vector};
use crate::rect::Rect;
use std::fmt;

/// A closed rectilinear polygon with counter-clockwise winding.
///
/// # Invariants
///
/// - at least 4 vertices;
/// - every edge is axis-parallel with non-zero length;
/// - non-zero enclosed area;
/// - counter-clockwise winding (normalized on construction).
///
/// Collinear consecutive edges (pseudo-vertices) are allowed; see
/// [`Polygon::simplified`] to remove them.
///
/// ```
/// use postopc_geom::{Polygon, Rect};
/// # fn main() -> Result<(), postopc_geom::GeomError> {
/// let line = Polygon::from(Rect::new(0, 0, 90, 600)?);
/// assert_eq!(line.area(), 54_000);
/// assert_eq!(line.edge_count(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Polygon {
    vertices: Vec<Point>,
}

impl Polygon {
    /// Builds a polygon from a vertex loop (implicitly closed).
    ///
    /// Clockwise input is reversed to the canonical counter-clockwise
    /// winding. Consecutive duplicate vertices are rejected.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::InvalidPolygon`] if there are fewer than four
    /// vertices, any edge is diagonal or zero-length, or the area is zero.
    pub fn new(vertices: Vec<Point>) -> Result<Polygon> {
        if vertices.len() < 4 {
            return Err(GeomError::InvalidPolygon(format!(
                "need at least 4 vertices, got {}",
                vertices.len()
            )));
        }
        let n = vertices.len();
        for i in 0..n {
            let a = vertices[i];
            let b = vertices[(i + 1) % n];
            if a == b {
                return Err(GeomError::InvalidPolygon(format!(
                    "zero-length edge at vertex {i} ({a})"
                )));
            }
            if a.x != b.x && a.y != b.y {
                return Err(GeomError::InvalidPolygon(format!(
                    "diagonal edge at vertex {i}: {a} -> {b}"
                )));
            }
        }
        let signed = signed_area2(&vertices);
        if signed == 0 {
            return Err(GeomError::InvalidPolygon("zero area".into()));
        }
        let mut vertices = vertices;
        if signed < 0 {
            vertices.reverse();
        }
        // Canonicalize the loop so equality and hashing are independent of
        // which vertex the caller started from: rotate the smallest vertex
        // to the front.
        let first = vertices
            .iter()
            .enumerate()
            .min_by_key(|&(_, p)| *p)
            .map_or(0, |(i, _)| i);
        vertices.rotate_left(first);
        Ok(Polygon { vertices })
    }

    /// The vertex loop (counter-clockwise, implicitly closed).
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Number of edges (== number of vertices).
    pub fn edge_count(&self) -> usize {
        self.vertices.len()
    }

    /// The `i`-th directed edge, from vertex `i` to vertex `i + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.edge_count()`.
    pub fn edge(&self, i: usize) -> Edge {
        let n = self.vertices.len();
        assert!(i < n, "edge index {i} out of bounds for {n} edges");
        Edge::new(self.vertices[i], self.vertices[(i + 1) % n])
    }

    /// Iterator over all directed edges in CCW order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.edge_count()).map(move |i| self.edge(i))
    }

    /// Enclosed area in nm² (always positive).
    pub fn area(&self) -> i128 {
        signed_area2(&self.vertices).unsigned_abs() as i128 / 2
    }

    /// Total boundary length in nm.
    pub fn perimeter(&self) -> Coord {
        self.edges().map(|e| e.length()).sum()
    }

    /// Axis-aligned bounding box.
    pub fn bbox(&self) -> Rect {
        let mut min = self.vertices[0];
        let mut max = self.vertices[0];
        for &v in &self.vertices[1..] {
            min = min.min(v);
            max = max.max(v);
        }
        // Invariant: non-zero area implies non-degenerate bbox.
        Rect::from_points(min, max)
            .unwrap_or_else(|_| unreachable!("non-zero polygon area implies a valid bbox"))
    }

    /// Even-odd containment with the half-open convention: a point on the
    /// bottom/left boundary is inside, on the top/right boundary outside.
    ///
    /// ```
    /// use postopc_geom::{Polygon, Point, Rect};
    /// # fn main() -> Result<(), postopc_geom::GeomError> {
    /// let p = Polygon::from(Rect::new(0, 0, 10, 10)?);
    /// assert!(p.contains(Point::new(5, 5)));
    /// assert!(p.contains(Point::new(0, 0)));
    /// assert!(!p.contains(Point::new(10, 10)));
    /// # Ok(())
    /// # }
    /// ```
    pub fn contains(&self, p: Point) -> bool {
        let mut inside = false;
        for e in self.edges() {
            if e.orientation() == Orientation::Vertical {
                let (ylo, yhi) = if e.start.y < e.end.y {
                    (e.start.y, e.end.y)
                } else {
                    (e.end.y, e.start.y)
                };
                if ylo <= p.y && p.y < yhi && e.start.x > p.x {
                    inside = !inside;
                }
            }
        }
        inside
    }

    /// The polygon translated by `v`.
    pub fn translate(&self, v: Vector) -> Polygon {
        Polygon {
            vertices: self.vertices.iter().map(|&p| p + v).collect(),
        }
    }

    /// Decomposes the polygon into non-overlapping horizontal-band
    /// rectangles whose union is exactly the polygon.
    ///
    /// Works for any simple rectilinear polygon, including those with
    /// pseudo-vertices. The result is ordered bottom-to-top, left-to-right.
    pub fn to_rects(&self) -> Vec<Rect> {
        let mut ys: Vec<Coord> = self.vertices.iter().map(|p| p.y).collect();
        ys.sort_unstable();
        ys.dedup();
        let mut rects = Vec::new();
        for band in ys.windows(2) {
            let (y0, y1) = (band[0], band[1]);
            let mut xs: Vec<Coord> = Vec::new();
            for e in self.edges() {
                if e.orientation() == Orientation::Vertical {
                    let (lo, hi) = if e.start.y < e.end.y {
                        (e.start.y, e.end.y)
                    } else {
                        (e.end.y, e.start.y)
                    };
                    if lo <= y0 && hi >= y1 {
                        xs.push(e.start.x);
                    }
                }
            }
            xs.sort_unstable();
            for pair in xs.chunks_exact(2) {
                if let Ok(r) = Rect::new(pair[0], y0, pair[1], y1) {
                    rects.push(r);
                }
            }
        }
        rects
    }

    /// Removes pseudo-vertices (collinear triples), zero-length edges and
    /// back-and-forth spikes, returning the minimal equivalent polygon.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::InvalidPolygon`] if simplification collapses the
    /// polygon below four vertices (e.g. a degenerate OPC reconstruction).
    pub fn simplified(&self) -> Result<Polygon> {
        let mut v = self.vertices.clone();
        loop {
            let n = v.len();
            if n < 4 {
                return Err(GeomError::InvalidPolygon(
                    "polygon collapsed during simplification".into(),
                ));
            }
            let mut removed = false;
            let mut out: Vec<Point> = Vec::with_capacity(n);
            let mut i = 0;
            while i < n {
                let prev = match out.last() {
                    Some(&p) => p,
                    None => v[(i + n - 1) % n],
                };
                let cur = v[i];
                let next = v[(i + 1) % n];
                if cur == prev || cur == next {
                    removed = true; // duplicate vertex
                    i += 1;
                    continue;
                }
                let collinear =
                    (prev.x == cur.x && cur.x == next.x) || (prev.y == cur.y && cur.y == next.y);
                if collinear {
                    removed = true; // pseudo-vertex or spike midpoint
                    i += 1;
                    continue;
                }
                out.push(cur);
                i += 1;
            }
            // The wrap-around vertex may itself be redundant; loop until fixpoint.
            if !removed {
                return Polygon::new(out);
            }
            v = out;
        }
    }

    /// Inserts pseudo-vertices along edges.
    ///
    /// `cuts[i]` lists distances from the start of edge `i` (each strictly
    /// between 0 and the edge length) at which to split. Used by OPC
    /// fragmentation so fragments can be biased independently.
    ///
    /// The result keeps the edge order: edge 0 starts at vertex 0, and the
    /// pieces of edge `i`, from its start to its end, follow those of edge
    /// `i - 1`. A cut point lies strictly inside an edge, so it is greater
    /// than one of that edge's ends: it never becomes the least vertex,
    /// which stays first, and it never changes the winding.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::OutOfBounds`] if `cuts.len()` differs from the
    /// edge count, or [`GeomError::InvalidPolygon`] if any cut is outside
    /// the open interval `(0, edge length)`.
    pub fn with_cuts(&self, cuts: &[Vec<Coord>]) -> Result<Polygon> {
        if cuts.len() != self.edge_count() {
            return Err(GeomError::OutOfBounds {
                index: cuts.len(),
                len: self.edge_count(),
            });
        }
        let mut vertices =
            Vec::with_capacity(self.vertices.len() + cuts.iter().map(Vec::len).sum::<usize>());
        for (i, edge_cuts) in cuts.iter().enumerate() {
            let e = self.edge(i);
            vertices.push(e.start);
            let mut sorted = edge_cuts.clone();
            sorted.sort_unstable();
            let dir = e.direction();
            for &d in &sorted {
                if d <= 0 || d >= e.length() {
                    return Err(GeomError::InvalidPolygon(format!(
                        "cut {d} outside edge {i} of length {}",
                        e.length()
                    )));
                }
                vertices.push(e.start + dir * d);
            }
        }
        Polygon::new(vertices)
    }

    /// Rebuilds the polygon with each edge independently displaced along its
    /// outward normal by `offsets[i]` nm — the core primitive of model-based
    /// OPC edge movement.
    ///
    /// Perpendicular neighbours meet at the intersection of the two shifted
    /// lines; collinear neighbours (fragment boundaries) are joined by a
    /// perpendicular jog at the original boundary coordinate. Offsets large
    /// enough to make the contour self-intersect are the caller's
    /// responsibility to avoid (OPC clamps its moves).
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::OutOfBounds`] if `offsets.len()` differs from
    /// the edge count, or [`GeomError::InvalidPolygon`] if the displaced
    /// contour degenerates (e.g. an edge inverted by an excessive offset).
    pub fn with_edge_offsets(&self, offsets: &[Coord]) -> Result<Polygon> {
        let n = self.edge_count();
        if offsets.len() != n {
            return Err(GeomError::OutOfBounds {
                index: offsets.len(),
                len: n,
            });
        }
        let shifted: Vec<Edge> = (0..n).map(|i| self.edge(i).shifted(offsets[i])).collect();
        let mut vertices: Vec<Point> = Vec::with_capacity(n * 2);
        for i in 0..n {
            let cur = &shifted[i];
            let next = &shifted[(i + 1) % n];
            if cur.orientation() == next.orientation() {
                // Collinear neighbours: jog at the original shared coordinate.
                let boundary = self.edge(i).end;
                match cur.orientation() {
                    Orientation::Horizontal => {
                        vertices.push(Point::new(boundary.x, cur.level()));
                        vertices.push(Point::new(boundary.x, next.level()));
                    }
                    Orientation::Vertical => {
                        vertices.push(Point::new(cur.level(), boundary.y));
                        vertices.push(Point::new(next.level(), boundary.y));
                    }
                }
            } else {
                // Perpendicular neighbours: intersection of the two lines.
                let p = match cur.orientation() {
                    Orientation::Horizontal => Point::new(next.level(), cur.level()),
                    Orientation::Vertical => Point::new(cur.level(), next.level()),
                };
                vertices.push(p);
            }
        }
        // Drop exact duplicates introduced by zero-offset jogs.
        let mut dedup: Vec<Point> = Vec::with_capacity(vertices.len());
        for p in vertices {
            if dedup.last() != Some(&p) {
                dedup.push(p);
            }
        }
        while dedup.len() > 1 && dedup.first() == dedup.last() {
            dedup.pop();
        }
        Polygon::new(dedup)
    }

    /// O(n²) simplicity check: no two non-adjacent edges touch or cross.
    ///
    /// Intended for validation in tests and debug assertions; production
    /// paths maintain simplicity by construction.
    pub fn is_simple(&self) -> bool {
        let edges: Vec<Edge> = self.edges().collect();
        let n = edges.len();
        for i in 0..n {
            for j in (i + 1)..n {
                if j == i + 1 || (i == 0 && j == n - 1) {
                    continue; // adjacent edges share exactly one vertex
                }
                if edges_touch(&edges[i], &edges[j]) {
                    return false;
                }
            }
        }
        true
    }
}

impl From<Rect> for Polygon {
    fn from(r: Rect) -> Polygon {
        Polygon {
            vertices: r.corners().to_vec(),
        }
    }
}

impl fmt::Display for Polygon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "poly[")?;
        for (i, v) in self.vertices.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

/// Twice the signed area (positive for CCW winding).
fn signed_area2(vertices: &[Point]) -> i128 {
    let n = vertices.len();
    let mut sum: i128 = 0;
    for i in 0..n {
        let a = vertices[i];
        let b = vertices[(i + 1) % n];
        sum += a.x as i128 * b.y as i128 - b.x as i128 * a.y as i128;
    }
    sum
}

/// Whether two axis-parallel segments share any point.
fn edges_touch(a: &Edge, b: &Edge) -> bool {
    fn span(e: &Edge) -> (Coord, Coord, Coord, Coord) {
        (
            e.start.x.min(e.end.x),
            e.start.x.max(e.end.x),
            e.start.y.min(e.end.y),
            e.start.y.max(e.end.y),
        )
    }
    let (ax0, ax1, ay0, ay1) = span(a);
    let (bx0, bx1, by0, by1) = span(b);
    ax0 <= bx1 && bx0 <= ax1 && ay0 <= by1 && by0 <= ay1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect_poly(x0: Coord, y0: Coord, x1: Coord, y1: Coord) -> Polygon {
        Polygon::from(Rect::new(x0, y0, x1, y1).expect("valid rect"))
    }

    /// An L-shaped polygon used by several tests:
    /// 20 wide x 10 tall base with a 10x10 tower on the left.
    fn l_shape() -> Polygon {
        Polygon::new(vec![
            Point::new(0, 0),
            Point::new(20, 0),
            Point::new(20, 10),
            Point::new(10, 10),
            Point::new(10, 20),
            Point::new(0, 20),
        ])
        .expect("valid L")
    }

    #[test]
    fn rejects_bad_polygons() {
        assert!(Polygon::new(vec![Point::new(0, 0), Point::new(1, 0), Point::new(1, 1)]).is_err());
        // diagonal
        assert!(Polygon::new(vec![
            Point::new(0, 0),
            Point::new(5, 5),
            Point::new(5, 0),
            Point::new(0, 0)
        ])
        .is_err());
        // zero area (out-and-back)
        assert!(Polygon::new(vec![
            Point::new(0, 0),
            Point::new(10, 0),
            Point::new(10, 0),
            Point::new(0, 0)
        ])
        .is_err());
    }

    #[test]
    fn normalizes_winding_to_ccw() {
        let cw = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(0, 10),
            Point::new(10, 10),
            Point::new(10, 0),
        ])
        .expect("valid");
        assert!(signed_area2(cw.vertices()) > 0);
        assert_eq!(cw.area(), 100);
    }

    #[test]
    fn area_and_perimeter_of_l() {
        let l = l_shape();
        assert_eq!(l.area(), 300);
        assert_eq!(l.perimeter(), 80);
        assert_eq!(l.bbox(), Rect::new(0, 0, 20, 20).expect("valid"));
    }

    #[test]
    fn containment_even_odd() {
        let l = l_shape();
        assert!(l.contains(Point::new(5, 5)));
        assert!(l.contains(Point::new(5, 15)));
        assert!(l.contains(Point::new(15, 5)));
        assert!(!l.contains(Point::new(15, 15)));
        assert!(!l.contains(Point::new(-1, 5)));
        assert!(!l.contains(Point::new(25, 5)));
    }

    #[test]
    fn to_rects_partitions_area() {
        let l = l_shape();
        let rects = l.to_rects();
        let total: i128 = rects.iter().map(|r| r.area()).sum();
        assert_eq!(total, l.area());
        // No pairwise overlap.
        for i in 0..rects.len() {
            for j in (i + 1)..rects.len() {
                assert!(!rects[i].intersects(&rects[j]));
            }
        }
    }

    #[test]
    fn with_cuts_inserts_pseudo_vertices() {
        let p = rect_poly(0, 0, 100, 10);
        let cuts = vec![vec![30, 60], vec![], vec![50], vec![]];
        let cut = p.with_cuts(&cuts).expect("valid cuts");
        assert_eq!(cut.edge_count(), 4 + 3);
        assert_eq!(cut.area(), p.area());
        assert!(cut.vertices().contains(&Point::new(30, 0)));
        assert!(cut.vertices().contains(&Point::new(50, 10)));
    }

    #[test]
    fn with_cuts_rejects_out_of_range() {
        let p = rect_poly(0, 0, 100, 10);
        assert!(p.with_cuts(&[vec![0], vec![], vec![], vec![]]).is_err());
        assert!(p.with_cuts(&[vec![100], vec![], vec![], vec![]]).is_err());
        assert!(p.with_cuts(&[vec![]]).is_err());
    }

    #[test]
    fn zero_offsets_preserve_polygon() {
        let l = l_shape();
        let same = l
            .with_edge_offsets(&vec![0; l.edge_count()])
            .expect("rebuild");
        assert_eq!(same.simplified().expect("simplify"), l);
    }

    #[test]
    fn uniform_outward_offsets_grow_rect() {
        let p = rect_poly(0, 0, 10, 10);
        let grown = p.with_edge_offsets(&[2, 2, 2, 2]).expect("grown");
        assert_eq!(
            grown.simplified().expect("simplify"),
            rect_poly(-2, -2, 12, 12)
        );
        let shrunk = p.with_edge_offsets(&[-3, -3, -3, -3]).expect("shrunk");
        assert_eq!(
            shrunk.simplified().expect("simplify"),
            rect_poly(3, 3, 7, 7)
        );
    }

    #[test]
    fn fragment_offsets_create_jogs() {
        // Split the bottom edge of a wide line and push only the middle
        // fragment outward (a classic OPC hammerhead-like move).
        let p = rect_poly(0, 0, 100, 10);
        let cut = p
            .with_cuts(&[vec![30, 70], vec![], vec![], vec![]])
            .expect("cut");
        // Edges now: bottom[0..30], bottom[30..70], bottom[70..100], right, top, left.
        let mut offsets = vec![0; cut.edge_count()];
        offsets[1] = 4; // outward = downward for the bottom edge
        let moved = cut.with_edge_offsets(&offsets).expect("moved");
        assert!(moved.is_simple());
        assert_eq!(moved.area(), p.area() + 40 * 4);
        assert!(moved.contains(Point::new(50, -2)));
        assert!(!moved.contains(Point::new(10, -2)));
    }

    #[test]
    fn simplified_removes_pseudo_vertices() {
        let p = rect_poly(0, 0, 100, 10);
        let cut = p
            .with_cuts(&[vec![50], vec![], vec![5, 95], vec![]])
            .expect("cut");
        assert_eq!(cut.simplified().expect("simplify"), p);
    }

    #[test]
    fn is_simple_detects_self_touch() {
        let l = l_shape();
        assert!(l.is_simple());
        // Bowtie-like rectilinear self-touching loop.
        let bad = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(10, 0),
            Point::new(10, 10),
            Point::new(5, 10),
            Point::new(5, -5),
            Point::new(0, -5),
        ])
        .expect("constructed");
        assert!(!bad.is_simple());
    }

    #[test]
    fn from_rect_round_trips_area() {
        let r = Rect::new(-5, -5, 5, 5).expect("valid");
        let p = Polygon::from(r);
        assert_eq!(p.area(), r.area());
        assert_eq!(p.bbox(), r);
    }
}
