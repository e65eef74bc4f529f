//! Randomized tests for the geometry kernel invariants.
//!
//! Formerly proptest-based; now driven by the in-tree `postopc-rng`
//! generator so the suite runs with no external dependencies (offline
//! tier-1 verify). Each test sweeps a fixed number of seeded random cases
//! and is fully deterministic.

use postopc_geom::{Coord, Grid, Point, Polygon, Rect, Transform, Vector};
use postopc_rng::{rngs::StdRng, RngExt, SeedableRng};

const CASES: usize = 96;

fn arb_rect(rng: &mut StdRng) -> Rect {
    let x = rng.random_range(-10_000i64..10_000);
    let y = rng.random_range(-10_000i64..10_000);
    let w = rng.random_range(1i64..5_000);
    let h = rng.random_range(1i64..5_000);
    Rect::new(x, y, x + w, y + h).expect("positive extents")
}

/// A random rectilinear "staircase" polygon: monotone staircase up, then
/// closed back along the axes. Always simple by construction.
fn arb_staircase(rng: &mut StdRng) -> Polygon {
    let steps = rng.random_range(2usize..12);
    let mut v = vec![Point::new(0, 0)];
    let mut x = 0;
    let mut y = 0;
    for _ in 0..steps {
        x += rng.random_range(1i64..500);
        v.push(Point::new(x, y));
        y += rng.random_range(1i64..500);
        v.push(Point::new(x, y));
    }
    v.push(Point::new(0, y));
    Polygon::new(v).expect("staircase is valid")
}

#[test]
fn rect_intersection_is_commutative_and_contained() {
    let mut rng = StdRng::seed_from_u64(0xEA01);
    for _ in 0..CASES {
        let a = arb_rect(&mut rng);
        let b = arb_rect(&mut rng);
        let ab = a.intersection(&b);
        let ba = b.intersection(&a);
        assert_eq!(ab, ba);
        if let Some(i) = ab {
            assert!(a.contains_rect(&i));
            assert!(b.contains_rect(&i));
        }
    }
}

#[test]
fn union_bbox_contains_both() {
    let mut rng = StdRng::seed_from_u64(0xEA02);
    for _ in 0..CASES {
        let a = arb_rect(&mut rng);
        let b = arb_rect(&mut rng);
        let u = a.union_bbox(&b);
        assert!(u.contains_rect(&a));
        assert!(u.contains_rect(&b));
    }
}

#[test]
fn staircase_rect_decomposition_partitions_area() {
    let mut rng = StdRng::seed_from_u64(0xEA03);
    for _ in 0..CASES {
        let p = arb_staircase(&mut rng);
        let rects = p.to_rects();
        let sum: i128 = rects.iter().map(|r| r.area()).sum();
        assert_eq!(sum, p.area());
        for i in 0..rects.len() {
            for j in (i + 1)..rects.len() {
                assert!(!rects[i].intersects(&rects[j]));
            }
        }
    }
}

#[test]
fn staircase_contains_agrees_with_rect_decomposition() {
    let mut rng = StdRng::seed_from_u64(0xEA04);
    for _ in 0..CASES {
        let p = arb_staircase(&mut rng);
        let pt = Point::new(
            rng.random_range(-100i64..2000),
            rng.random_range(-100i64..2000),
        );
        let in_poly = p.contains(pt);
        // Half-open convention on both sides: point is in a decomposition
        // rect iff min <= p < max componentwise.
        let in_rects = p
            .to_rects()
            .iter()
            .any(|r| pt.x >= r.left() && pt.x < r.right() && pt.y >= r.bottom() && pt.y < r.top());
        assert_eq!(in_poly, in_rects);
    }
}

#[test]
fn zero_offsets_round_trip() {
    let mut rng = StdRng::seed_from_u64(0xEA05);
    for _ in 0..CASES {
        let p = arb_staircase(&mut rng);
        let offsets = vec![0 as Coord; p.edge_count()];
        let rebuilt = p.with_edge_offsets(&offsets).expect("rebuild");
        assert_eq!(rebuilt.simplified().expect("simplify"), p);
    }
}

#[test]
fn small_offsets_change_area_by_first_order() {
    let mut rng = StdRng::seed_from_u64(0xEA06);
    for _ in 0..CASES {
        let r = arb_rect(&mut rng);
        let bias = rng.random_range(1i64..20);
        // Uniform outward bias on a rectangle: area grows by exactly
        // perimeter*bias + 4*bias^2.
        let p = Polygon::from(r);
        let offsets = vec![bias; 4];
        let grown = p.with_edge_offsets(&offsets).expect("grow");
        let expected = p.area() + p.perimeter() as i128 * bias as i128 + 4 * (bias as i128).pow(2);
        assert_eq!(grown.area(), expected);
    }
}

#[test]
fn transforms_preserve_polygon_area() {
    let mut rng = StdRng::seed_from_u64(0xEA07);
    for _ in 0..CASES {
        let p = arb_staircase(&mut rng);
        let oi = rng.random_range(0usize..8);
        let dx = rng.random_range(-1000i64..1000);
        let dy = rng.random_range(-1000i64..1000);
        let t = Transform::new(postopc_geom::Orient::ALL[oi], Vector::new(dx, dy));
        let q = t.apply_polygon(&p);
        assert_eq!(q.area(), p.area());
        assert!(q.is_simple());
    }
}

#[test]
fn raster_conserves_polygon_area() {
    let mut rng = StdRng::seed_from_u64(0xEA08);
    for _ in 0..CASES / 2 {
        let p = arb_staircase(&mut rng);
        let mut g = Grid::new(p.bbox(), 32, 7.3).expect("grid");
        g.add_polygon(&p, 1.0);
        let raster_area = g.total() * 7.3 * 7.3;
        let exact = p.area() as f64;
        assert!((raster_area - exact).abs() < exact.max(1.0) * 1e-9 + 1e-6);
    }
}

#[test]
fn grid_sample_within_range() {
    let mut rng = StdRng::seed_from_u64(0xEA09);
    for _ in 0..CASES / 2 {
        let p = arb_staircase(&mut rng);
        let fx: f64 = rng.random_range(0.0..1.0);
        let fy: f64 = rng.random_range(0.0..1.0);
        let mut g = Grid::new(p.bbox(), 16, 5.0).expect("grid");
        g.add_polygon(&p, 1.0);
        let bb = p.bbox();
        let x = bb.left() as f64 + fx * bb.width() as f64;
        let y = bb.bottom() as f64 + fy * bb.height() as f64;
        let v = g.sample(x, y, g.extent());
        assert!(
            (-1e-12..=1.0 + 1e-12).contains(&v),
            "sample {v} out of [0,1]"
        );
    }
}
