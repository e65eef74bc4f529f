//! Edge fragmentation: splitting polygon edges into independently movable
//! correction fragments.
//!
//! Following production OPC practice, each edge gets short *corner*
//! fragments at its ends (corners round the most and need independent
//! control) and the remainder is split into *normal* fragments no longer
//! than `max_len`. Short edges whose neighbours both turn the same way are
//! classified as *line ends* — the fragments that receive hammerhead
//! treatment in rule-based OPC and the largest moves in model-based OPC.

use crate::error::{OpcError, Result};
use postopc_geom::{Coord, Point, Polygon, Vector};

/// Fragmentation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragmentSpec {
    /// Maximum fragment length in nm.
    pub max_len: Coord,
    /// Corner fragment length in nm.
    pub corner_len: Coord,
    /// Minimum fragment length (edges shorter than this are not split).
    pub min_len: Coord,
}

impl FragmentSpec {
    /// Production-style fragmentation for the 90 nm node.
    pub fn standard() -> FragmentSpec {
        FragmentSpec {
            max_len: 140,
            corner_len: 60,
            min_len: 40,
        }
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns [`OpcError::InvalidFragmentSpec`] if any length is
    /// non-positive or `corner_len >= max_len`.
    pub fn validate(&self) -> Result<()> {
        for (name, v) in [
            ("max_len", self.max_len),
            ("corner_len", self.corner_len),
            ("min_len", self.min_len),
        ] {
            if v <= 0 {
                return Err(OpcError::InvalidFragmentSpec { name, value: v });
            }
        }
        if self.corner_len >= self.max_len {
            return Err(OpcError::InvalidFragmentSpec {
                name: "corner_len",
                value: self.corner_len,
            });
        }
        Ok(())
    }
}

impl Default for FragmentSpec {
    fn default() -> Self {
        FragmentSpec::standard()
    }
}

/// Classification of a fragment for correction policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FragmentKind {
    /// Interior run of a long edge.
    Normal,
    /// End segment of an edge adjacent to a convex corner.
    Corner,
    /// A short edge capping a line (both neighbours turn the same way).
    LineEnd,
}

/// Metadata of one movable fragment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FragmentInfo {
    /// Fragment classification.
    pub kind: FragmentKind,
    /// Control point: the fragment midpoint on the *target* (drawn) edge,
    /// where EPE is measured.
    pub control: Point,
    /// Unit outward normal of the fragment.
    pub outward: Vector,
    /// Fragment length in nm.
    pub length: Coord,
}

/// A polygon with pseudo-vertices inserted at fragment boundaries, plus
/// per-edge fragment metadata (entry `i` describes edge `i`).
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentedPolygon {
    polygon: Polygon,
    fragments: Vec<FragmentInfo>,
}

impl FragmentedPolygon {
    /// Fragments `target` according to `spec`.
    ///
    /// # Errors
    ///
    /// Returns [`OpcError::InvalidFragmentSpec`] for an invalid spec;
    /// geometry errors cannot occur for cuts derived from edge lengths.
    pub fn new(target: &Polygon, spec: &FragmentSpec) -> Result<FragmentedPolygon> {
        spec.validate()?;
        let mut cuts: Vec<Vec<Coord>> = Vec::with_capacity(target.edge_count());
        for i in 0..target.edge_count() {
            let len = target.edge(i).length();
            cuts.push(edge_cuts(len, spec));
        }
        let polygon = target.with_cuts(&cuts)?;
        // `with_cuts` keeps the edge order, so edge k of `polygon` is the
        // k-th piece cut below, in edge order.
        let mut fragments = Vec::with_capacity(polygon.edge_count());
        for (i, cut_offsets) in cuts.iter().enumerate() {
            let original = target.edge(i);
            let n_pieces = cut_offsets.len() + 1;
            let is_line_end = n_pieces == 1 && original.length() <= 2 * spec.max_len && {
                // Both neighbours turn the same way => this edge caps a line.
                let prev = target.edge((i + target.edge_count() - 1) % target.edge_count());
                let next = target.edge((i + 1) % target.edge_count());
                prev.direction() == -next.direction()
            };
            for piece in 0..n_pieces {
                let start = if piece == 0 {
                    0
                } else {
                    cut_offsets[piece - 1]
                };
                let end = if piece == n_pieces - 1 {
                    original.length()
                } else {
                    cut_offsets[piece]
                };
                let mid_t = (start + end) as f64 / (2.0 * original.length() as f64);
                let kind = if is_line_end {
                    FragmentKind::LineEnd
                } else if n_pieces > 1 && (piece == 0 || piece == n_pieces - 1) {
                    FragmentKind::Corner
                } else if n_pieces == 1 {
                    // Unsplit short edge bounded by corners.
                    FragmentKind::Corner
                } else {
                    FragmentKind::Normal
                };
                fragments.push(FragmentInfo {
                    kind,
                    control: original.point_at(mid_t),
                    outward: original.outward_normal(),
                    length: end - start,
                });
            }
        }
        debug_assert_eq!(fragments.len(), polygon.edge_count());
        Ok(FragmentedPolygon { polygon, fragments })
    }

    /// The fragmented polygon (with pseudo-vertices).
    pub fn polygon(&self) -> &Polygon {
        &self.polygon
    }

    /// Per-edge fragment metadata.
    pub fn fragments(&self) -> &[FragmentInfo] {
        &self.fragments
    }

    /// Number of fragments.
    pub fn len(&self) -> usize {
        self.fragments.len()
    }

    /// Whether there are no fragments (never for a valid polygon).
    pub fn is_empty(&self) -> bool {
        self.fragments.is_empty()
    }

    /// Rebuilds the corrected polygon from per-fragment normal offsets.
    ///
    /// # Errors
    ///
    /// Returns [`OpcError::Geometry`] if the offsets degenerate the
    /// contour (callers clamp moves to prevent this).
    pub fn apply_offsets(&self, offsets: &[Coord]) -> Result<Polygon> {
        Ok(self.polygon.with_edge_offsets(offsets)?)
    }
}

/// Cut positions for an edge of length `len`: corner fragments at both
/// ends, the middle split into `<= max_len` pieces.
fn edge_cuts(len: Coord, spec: &FragmentSpec) -> Vec<Coord> {
    if len < 2 * spec.corner_len + spec.min_len {
        return Vec::new(); // too short to split
    }
    let mut cuts = vec![spec.corner_len];
    let interior = len - 2 * spec.corner_len;
    let pieces = ((interior as f64) / (spec.max_len as f64)).ceil() as Coord;
    let piece_len = interior / pieces.max(1);
    for p in 1..pieces {
        cuts.push(spec.corner_len + p * piece_len);
    }
    cuts.push(len - spec.corner_len);
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;
    use postopc_geom::Rect;

    fn long_line() -> Polygon {
        Polygon::from(Rect::new(0, 0, 90, 1000).expect("rect"))
    }

    #[test]
    fn spec_validation() {
        assert!(FragmentSpec::standard().validate().is_ok());
        let bad = FragmentSpec {
            max_len: 0,
            ..FragmentSpec::standard()
        };
        assert!(bad.validate().is_err());
        let bad = FragmentSpec {
            corner_len: 200,
            max_len: 140,
            min_len: 40,
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn fragments_align_with_edges() {
        let f = FragmentedPolygon::new(&long_line(), &FragmentSpec::standard()).expect("fragment");
        assert_eq!(f.fragments().len(), f.polygon().edge_count());
        assert!(f.len() > 4, "long edges must be split, got {}", f.len());
        assert!(!f.is_empty());
    }

    #[test]
    fn line_ends_are_classified() {
        let f = FragmentedPolygon::new(&long_line(), &FragmentSpec::standard()).expect("fragment");
        let line_ends = f
            .fragments()
            .iter()
            .filter(|fr| fr.kind == FragmentKind::LineEnd)
            .count();
        // The two 90 nm edges cap the line.
        assert_eq!(line_ends, 2);
    }

    #[test]
    fn long_edges_get_corner_fragments() {
        let f = FragmentedPolygon::new(&long_line(), &FragmentSpec::standard()).expect("fragment");
        let corners = f
            .fragments()
            .iter()
            .filter(|fr| fr.kind == FragmentKind::Corner)
            .count();
        // Each 1000 nm edge contributes 2 corner fragments.
        assert_eq!(corners, 4);
        for fr in f
            .fragments()
            .iter()
            .filter(|fr| fr.kind == FragmentKind::Corner)
        {
            assert_eq!(fr.length, FragmentSpec::standard().corner_len);
        }
    }

    #[test]
    fn fragment_lengths_respect_max() {
        let spec = FragmentSpec::standard();
        let f = FragmentedPolygon::new(&long_line(), &spec).expect("fragment");
        for fr in f.fragments() {
            assert!(
                fr.length <= spec.max_len + 1,
                "fragment of {} nm",
                fr.length
            );
            assert!(fr.length > 0);
        }
        // Total length conserved.
        let total: Coord = f.fragments().iter().map(|fr| fr.length).sum();
        assert_eq!(total, long_line().perimeter());
    }

    #[test]
    fn control_points_on_target_boundary() {
        let target = long_line();
        let f = FragmentedPolygon::new(&target, &FragmentSpec::standard()).expect("fragment");
        for fr in f.fragments() {
            // Control point is on an edge: stepping inward lands inside.
            let inside = fr.control - fr.outward * 2;
            assert!(
                target.contains(inside),
                "control {} not on boundary",
                fr.control
            );
        }
    }

    #[test]
    fn zero_offsets_reproduce_target() {
        let target = long_line();
        let f = FragmentedPolygon::new(&target, &FragmentSpec::standard()).expect("fragment");
        let rebuilt = f.apply_offsets(&vec![0; f.len()]).expect("rebuild");
        assert_eq!(rebuilt.simplified().expect("simplify"), target);
    }

    #[test]
    fn hammerhead_offsets_produce_valid_polygon() {
        let target = long_line();
        let f = FragmentedPolygon::new(&target, &FragmentSpec::standard()).expect("fragment");
        let offsets: Vec<Coord> = f
            .fragments()
            .iter()
            .map(|fr| match fr.kind {
                FragmentKind::LineEnd => 15,
                FragmentKind::Corner => 5,
                FragmentKind::Normal => 2,
            })
            .collect();
        let corrected = f.apply_offsets(&offsets).expect("apply");
        assert!(corrected.is_simple());
        assert!(corrected.area() > target.area());
    }
}
