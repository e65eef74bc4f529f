//! Randomized tests for fragmentation and correction invariants, seeded
//! via the in-tree `postopc-rng` generator (offline replacement for the
//! former proptest suite; every sweep is deterministic).

use postopc_geom::{Coord, Point, Polygon, Rect};
use postopc_opc::{FragmentKind, FragmentSpec, FragmentedPolygon};
use postopc_rng::{rngs::StdRng, RngExt, SeedableRng};

const CASES: usize = 96;

fn arb_line(rng: &mut StdRng) -> Polygon {
    let w = rng.random_range(60i64..200);
    let h = rng.random_range(200i64..1500);
    Polygon::from(Rect::new(0, 0, w, h).expect("positive extents"))
}

/// A random rectilinear staircase (same construction as the geom tests).
fn arb_staircase(rng: &mut StdRng) -> Polygon {
    let steps = rng.random_range(2usize..6);
    let mut v = vec![Point::new(0, 0)];
    let (mut x, mut y) = (0, 0);
    for _ in 0..steps {
        x += rng.random_range(80i64..400);
        v.push(Point::new(x, y));
        y += rng.random_range(80i64..400);
        v.push(Point::new(x, y));
    }
    v.push(Point::new(0, y));
    Polygon::new(v).expect("staircase is valid")
}

#[test]
fn fragmentation_conserves_perimeter() {
    let mut rng = StdRng::seed_from_u64(0x0C01);
    for _ in 0..CASES {
        let p = arb_staircase(&mut rng);
        let frag = FragmentedPolygon::new(&p, &FragmentSpec::standard()).expect("fragment");
        let total: Coord = frag.fragments().iter().map(|f| f.length).sum();
        assert_eq!(total, p.perimeter());
        assert_eq!(frag.fragments().len(), frag.polygon().edge_count());
    }
}

#[test]
fn fragmentation_preserves_area() {
    let mut rng = StdRng::seed_from_u64(0x0C02);
    for _ in 0..CASES {
        let p = arb_staircase(&mut rng);
        let frag = FragmentedPolygon::new(&p, &FragmentSpec::standard()).expect("fragment");
        assert_eq!(frag.polygon().area(), p.area());
    }
}

#[test]
fn fragments_respect_max_length() {
    let mut rng = StdRng::seed_from_u64(0x0C03);
    for _ in 0..CASES {
        let p = arb_line(&mut rng);
        let max_len = rng.random_range(80i64..300);
        let spec = FragmentSpec {
            max_len,
            corner_len: 50,
            min_len: 30,
        };
        let frag = FragmentedPolygon::new(&p, &spec).expect("fragment");
        for f in frag.fragments() {
            // + corner_len tolerates the integer division remainder on the
            // last piece.
            assert!(
                f.length <= max_len + spec.corner_len,
                "fragment of {} nm exceeds bound",
                f.length
            );
        }
    }
}

#[test]
fn uniform_offsets_shift_area_predictably() {
    let mut rng = StdRng::seed_from_u64(0x0C04);
    for _ in 0..CASES {
        let p = arb_line(&mut rng);
        let bias = rng.random_range(-10i64..10);
        let frag = FragmentedPolygon::new(&p, &FragmentSpec::standard()).expect("fragment");
        let offsets = vec![bias; frag.len()];
        let corrected = frag.apply_offsets(&offsets).expect("apply");
        // Uniform outward bias on a rectangle: exact area formula.
        let expected =
            p.area() + p.perimeter() as i128 * bias as i128 + 4 * (bias as i128) * (bias as i128);
        assert_eq!(corrected.area(), expected);
    }
}

#[test]
fn small_random_offsets_keep_polygon_simple() {
    let mut rng = StdRng::seed_from_u64(0x0C05);
    for _ in 0..CASES {
        let p = arb_line(&mut rng);
        let frag = FragmentedPolygon::new(&p, &FragmentSpec::standard()).expect("fragment");
        let offsets: Vec<Coord> = (0..frag.len())
            .map(|_| rng.random_range(-8i64..8))
            .collect();
        if let Ok(corrected) = frag.apply_offsets(&offsets) {
            assert!(
                corrected.is_simple(),
                "offsets produced a self-touching mask"
            );
        }
    }
}

#[test]
fn line_caps_are_line_ends() {
    let mut rng = StdRng::seed_from_u64(0x0C06);
    for _ in 0..CASES {
        let p = arb_line(&mut rng);
        let frag = FragmentedPolygon::new(&p, &FragmentSpec::standard()).expect("fragment");
        let bbox = p.bbox();
        if bbox.width() <= 2 * FragmentSpec::standard().max_len
            && bbox.width()
                < 2 * FragmentSpec::standard().corner_len + FragmentSpec::standard().min_len
        {
            // Narrow lines: top/bottom edges unsplit and capped.
            let line_ends = frag
                .fragments()
                .iter()
                .filter(|f| f.kind == FragmentKind::LineEnd)
                .count();
            assert_eq!(line_ends, 2);
        }
    }
}

#[test]
fn control_points_lie_on_the_target_boundary() {
    let mut rng = StdRng::seed_from_u64(0x0C07);
    for _ in 0..CASES {
        let p = arb_staircase(&mut rng);
        let frag = FragmentedPolygon::new(&p, &FragmentSpec::standard()).expect("fragment");
        for f in frag.fragments() {
            let inside = f.control - f.outward * 2;
            let outside = f.control + f.outward * 2;
            assert!(p.contains(inside) || p.contains(f.control));
            assert!(!p.contains(outside));
        }
    }
}

/// A rectangle, L- or U-shape of random size and place, about half of
/// them at negative coordinates.
fn arb_shape(rng: &mut StdRng) -> Polygon {
    let (w, h) = (rng.random_range(3i64..1500), rng.random_range(2i64..1500));
    let (x, y) = (
        rng.random_range(-3000i64..3000),
        rng.random_range(-3000i64..3000),
    );
    let vertices = match rng.random_range(0u32..3) {
        0 => return Polygon::from(Rect::new(x, y, x + w, y + h).expect("rect")),
        // An L: the full-width foot and the left part of the top.
        1 => {
            let (foot, arm) = (rng.random_range(1..h), rng.random_range(1..w));
            vec![
                Point::new(x, y),
                Point::new(x + w, y),
                Point::new(x + w, y + foot),
                Point::new(x + arm, y + foot),
                Point::new(x + arm, y + h),
                Point::new(x, y + h),
            ]
        }
        // A U, open at the top.
        _ => {
            let foot = rng.random_range(1..h);
            let left = rng.random_range(1..w - 1);
            let right = rng.random_range(left + 1..w);
            vec![
                Point::new(x, y),
                Point::new(x + w, y),
                Point::new(x + w, y + h),
                Point::new(x + right, y + h),
                Point::new(x + right, y + foot),
                Point::new(x + left, y + foot),
                Point::new(x + left, y + h),
                Point::new(x, y + h),
            ]
        }
    };
    Polygon::new(vertices).expect("L or U")
}

/// Fragment k spans exactly edge k of the cut polygon: the same length
/// and outward normal, its control point on that edge at the midpoint
/// (within the 1 nm the midpoint rounds by).
fn assert_fragments_span_their_edges(target: &Polygon) {
    let frag = FragmentedPolygon::new(target, &FragmentSpec::standard()).expect("fragment");
    assert_eq!(frag.len(), frag.polygon().edge_count(), "{target}");
    for (k, (f, e)) in frag
        .fragments()
        .iter()
        .zip(frag.polygon().edges())
        .enumerate()
    {
        assert_eq!(f.length, e.length(), "fragment {k} of {target}");
        assert_eq!(f.outward, e.outward_normal(), "fragment {k} of {target}");
        let dir = e.direction();
        let along = (f.control.x - e.start.x) * dir.dx + (f.control.y - e.start.y) * dir.dy;
        assert_eq!(f.control, e.start + dir * along, "fragment {k} of {target}");
        assert!(
            (2 * along - e.length()).abs() <= 1,
            "fragment {k} of {target}"
        );
    }
}

#[test]
fn fragment_k_spans_edge_k_of_the_cut_polygon() {
    let mut rng = StdRng::seed_from_u64(0x0C08);
    let mut corrected = 0;
    for _ in 0..CASES {
        let shape = arb_shape(&mut rng);
        assert_fragments_span_their_edges(&shape);
        // A corrected contour, with jogs at the fragment boundaries.
        let frag = FragmentedPolygon::new(&shape, &FragmentSpec::standard()).expect("fragment");
        let offsets: Vec<Coord> = (0..frag.len())
            .map(|_| rng.random_range(-8i64..8))
            .collect();
        if let Ok(contour) = frag.apply_offsets(&offsets) {
            assert_fragments_span_their_edges(&contour);
            corrected += 1;
        }
    }
    assert!(corrected > CASES / 2, "only {corrected} corrected contours");
}
