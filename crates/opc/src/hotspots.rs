//! Hotspot snippet classification by pattern clustering.
//!
//! Implements the companion-paper methodology ("Automatic hotspot
//! classification using pattern-based clustering", Ma et al. with
//! Capodieci; and the DRC-Plus pattern work): small layout snippets are
//! clipped around each verification hotspot, rasterized to binary
//! bitmaps, compared by overlap (Jaccard) similarity, and grouped by fast
//! incremental clustering.

use crate::error::Result;
use crate::orc::Hotspot;
use postopc_geom::{Coord, GridIndex, Point, Polygon, Rect};

/// Snippet capture and clustering parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotspotConfig {
    /// Snippet half-size (radius) around the hotspot, in nm.
    pub radius_nm: Coord,
    /// Bitmap resolution (pixels per side).
    pub bitmap_px: usize,
    /// Jaccard similarity at or above which two snippets share a cluster.
    pub similarity_threshold: f64,
}

impl HotspotConfig {
    /// Production-style settings: 400 nm radius, 32×32 bitmaps, 0.8
    /// similarity.
    pub fn standard() -> HotspotConfig {
        HotspotConfig {
            radius_nm: 400,
            bitmap_px: 32,
            similarity_threshold: 0.8,
        }
    }
}

impl Default for HotspotConfig {
    fn default() -> Self {
        HotspotConfig::standard()
    }
}

/// A layout snippet around one hotspot, with its rasterized signature.
#[derive(Debug, Clone, PartialEq)]
pub struct HotspotSnippet {
    /// The hotspot this snippet was captured for.
    pub hotspot: Hotspot,
    /// Capture window in chip coordinates.
    pub window: Rect,
    /// Binary occupancy bitmap, row-major `bitmap_px × bitmap_px`.
    bitmap: Vec<bool>,
    px: usize,
}

impl HotspotSnippet {
    /// Captures the snippet around `hotspot` from the given layout shapes.
    ///
    /// # Errors
    ///
    /// Returns a geometry error only for a non-positive radius.
    pub fn capture(
        config: &HotspotConfig,
        hotspot: Hotspot,
        shapes: &[Polygon],
    ) -> Result<HotspotSnippet> {
        let center = Point::new(hotspot.x_nm.round() as Coord, hotspot.y_nm.round() as Coord);
        let window = Rect::centered(center, 2 * config.radius_nm, 2 * config.radius_nm)?;
        let px = config.bitmap_px.max(4);
        let step = window.width() as f64 / px as f64;
        let mut bitmap = vec![false; px * px];
        // Index the shapes for the containment probes.
        let mut index: GridIndex<usize> = GridIndex::new(1_000);
        for (i, p) in shapes.iter().enumerate() {
            index.insert(p.bbox(), i);
        }
        for iy in 0..px {
            for ix in 0..px {
                let x = window.left() as f64 + (ix as f64 + 0.5) * step;
                let y = window.bottom() as f64 + (iy as f64 + 0.5) * step;
                let probe = Point::new(x.round() as Coord, y.round() as Coord);
                let probe_window = Rect::centered(probe, 2, 2)?;
                bitmap[iy * px + ix] = index
                    .query(probe_window)
                    .iter()
                    .any(|(_, &i)| shapes[i].contains(probe));
            }
        }
        Ok(HotspotSnippet {
            hotspot,
            window,
            bitmap,
            px,
        })
    }

    /// Jaccard similarity of two snippets' occupancy bitmaps (1 =
    /// identical geometry, 0 = disjoint).
    ///
    /// # Panics
    ///
    /// Panics if the snippets were captured at different bitmap
    /// resolutions (mixing configs is a caller bug).
    pub fn similarity(&self, other: &HotspotSnippet) -> f64 {
        assert_eq!(
            self.px, other.px,
            "snippets captured at different resolutions"
        );
        let mut intersection = 0usize;
        let mut union = 0usize;
        for (a, b) in self.bitmap.iter().zip(&other.bitmap) {
            if *a && *b {
                intersection += 1;
            }
            if *a || *b {
                union += 1;
            }
        }
        if union == 0 {
            return 1.0; // both empty: vacuously identical
        }
        intersection as f64 / union as f64
    }

    /// Fraction of occupied pixels (pattern density of the snippet).
    pub fn density(&self) -> f64 {
        self.bitmap.iter().filter(|&&b| b).count() as f64 / self.bitmap.len() as f64
    }
}

/// A cluster of geometrically similar hotspots.
#[derive(Debug, Clone, PartialEq)]
pub struct HotspotCluster {
    /// The representative (first-seen) snippet of the cluster.
    pub representative: HotspotSnippet,
    /// All member hotspots (including the representative's).
    pub members: Vec<Hotspot>,
}

/// Groups hotspot snippets by fast incremental clustering: each snippet
/// joins the first cluster whose representative is at least
/// `similarity_threshold` similar, or founds a new cluster.
///
/// The result is ordered by discovery; clusters are sorted most-populated
/// first, which is the triage order a fab would use.
pub fn cluster_hotspots(
    config: &HotspotConfig,
    snippets: Vec<HotspotSnippet>,
) -> Vec<HotspotCluster> {
    let mut clusters: Vec<HotspotCluster> = Vec::new();
    for snippet in snippets {
        match clusters
            .iter_mut()
            .find(|c| c.representative.similarity(&snippet) >= config.similarity_threshold)
        {
            Some(cluster) => cluster.members.push(snippet.hotspot),
            None => clusters.push(HotspotCluster {
                members: vec![snippet.hotspot],
                representative: snippet,
            }),
        }
    }
    clusters.sort_by_key(|c| std::cmp::Reverse(c.members.len()));
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orc::HotspotKind;

    fn hotspot_at(x: f64, y: f64) -> Hotspot {
        Hotspot {
            kind: HotspotKind::EpeViolation,
            x_nm: x,
            y_nm: y,
            value: -10.0,
        }
    }

    fn line(x0: Coord, x1: Coord, y0: Coord, y1: Coord) -> Polygon {
        Polygon::from(Rect::new(x0, y0, x1, y1).expect("rect"))
    }

    /// Two line-end patterns at different chip locations + one dense-line
    /// pattern.
    fn test_shapes() -> Vec<Polygon> {
        vec![
            line(-45, 45, -600, 0),         // line end near (0, 0)
            line(4955, 5045, 4400, 5000),   // same line-end pattern at (5000, 5000)
            line(9955, 10045, 9000, 11000), // through line at (10000, 10000)
            line(9735, 9825, 9000, 11000),  // with a dense neighbour
        ]
    }

    #[test]
    fn identical_patterns_cluster_together() {
        let cfg = HotspotConfig::standard();
        let shapes = test_shapes();
        let snippets = vec![
            HotspotSnippet::capture(&cfg, hotspot_at(0.0, 0.0), &shapes).expect("snippet"),
            HotspotSnippet::capture(&cfg, hotspot_at(5000.0, 5000.0), &shapes).expect("snippet"),
            HotspotSnippet::capture(&cfg, hotspot_at(10000.0, 10000.0), &shapes).expect("snippet"),
        ];
        assert!(snippets[0].similarity(&snippets[1]) > 0.9);
        assert!(snippets[0].similarity(&snippets[2]) < 0.7);
        let clusters = cluster_hotspots(&cfg, snippets);
        assert_eq!(clusters.len(), 2);
        assert_eq!(clusters[0].members.len(), 2); // the repeated line-end
        assert_eq!(clusters[1].members.len(), 1);
    }

    #[test]
    fn similarity_is_reflexive_and_symmetric() {
        let cfg = HotspotConfig::standard();
        let shapes = test_shapes();
        let a = HotspotSnippet::capture(&cfg, hotspot_at(0.0, 0.0), &shapes).expect("snippet");
        let b =
            HotspotSnippet::capture(&cfg, hotspot_at(10000.0, 10000.0), &shapes).expect("snippet");
        assert!((a.similarity(&a) - 1.0).abs() < 1e-12);
        assert!((a.similarity(&b) - b.similarity(&a)).abs() < 1e-12);
    }

    #[test]
    fn density_reflects_occupancy() {
        let cfg = HotspotConfig::standard();
        let shapes = test_shapes();
        let line_end =
            HotspotSnippet::capture(&cfg, hotspot_at(0.0, 0.0), &shapes).expect("snippet");
        let empty =
            HotspotSnippet::capture(&cfg, hotspot_at(20000.0, 20000.0), &shapes).expect("snippet");
        assert!(line_end.density() > 0.01);
        assert_eq!(empty.density(), 0.0);
        // Two empty snippets are vacuously identical.
        let empty2 =
            HotspotSnippet::capture(&cfg, hotspot_at(30000.0, 30000.0), &shapes).expect("snippet");
        assert_eq!(empty.similarity(&empty2), 1.0);
    }

    #[test]
    fn clusters_sorted_by_population() {
        let cfg = HotspotConfig::standard();
        let shapes = test_shapes();
        // Three copies of pattern A (same location → identical snippets),
        // one of pattern B.
        let snippets = vec![
            HotspotSnippet::capture(&cfg, hotspot_at(10000.0, 10000.0), &shapes).expect("s"),
            HotspotSnippet::capture(&cfg, hotspot_at(0.0, 0.0), &shapes).expect("s"),
            HotspotSnippet::capture(&cfg, hotspot_at(0.0, 0.0), &shapes).expect("s"),
            HotspotSnippet::capture(&cfg, hotspot_at(0.0, 0.0), &shapes).expect("s"),
        ];
        let clusters = cluster_hotspots(&cfg, snippets);
        assert_eq!(clusters[0].members.len(), 3);
        assert!(clusters
            .windows(2)
            .all(|w| w[0].members.len() >= w[1].members.len()));
    }
}
