//! Rule-based OPC: table-driven edge biasing without simulation.
//!
//! Rule OPC is the cheap path of the paper's selective-OPC tradeoff: a
//! space-dependent bias table, hammerhead extension for line ends, and a
//! small corner bias. No aerial image is computed — correction quality is
//! bounded, which is exactly why the paper routes *critical* gates to
//! model-based OPC instead.

use crate::error::Result;
use crate::fragment::{FragmentInfo, FragmentKind, FragmentSpec, FragmentedPolygon};
use postopc_geom::{Coord, GridIndex, Point, Polygon, Rect, Vector};

/// Configuration of the rule-based corrector.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleOpcConfig {
    /// Bias table: `(max_space, bias)` rows, ascending in `max_space`.
    /// A fragment whose facing space is `<= max_space` receives `bias` nm
    /// of outward movement (first matching row wins).
    pub bias_table: Vec<(Coord, Coord)>,
    /// Bias for fragments more isolated than the last table row.
    pub iso_bias: Coord,
    /// Outward extension of line-end fragments (hammerhead stem).
    pub line_end_extension: Coord,
    /// Outward bias of corner fragments (serif approximation).
    pub corner_bias: Coord,
    /// Fragmentation parameters.
    pub fragment: FragmentSpec,
    /// Maximum distance to search for a facing neighbour, in nm.
    pub space_search: Coord,
}

impl RuleOpcConfig {
    /// The default 90 nm rule deck, calibrated against the workspace
    /// imaging model by measuring printed-CD error vs pitch on line
    /// triplets: dense edges (space <= 220 nm) print thin and get outward
    /// bias, semi-isolated and isolated edges print fat and are pulled in.
    pub fn standard() -> RuleOpcConfig {
        RuleOpcConfig {
            bias_table: vec![(120, 1), (170, 3), (220, 1), (280, -1), (360, -2)],
            iso_bias: -2,
            line_end_extension: 18,
            corner_bias: 2,
            fragment: FragmentSpec::standard(),
            space_search: 600,
        }
    }
}

impl Default for RuleOpcConfig {
    fn default() -> Self {
        RuleOpcConfig::standard()
    }
}

/// Outcome of a rule-based correction run.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleOpcResult {
    /// Corrected mask polygons, parallel to the input targets.
    pub corrected: Vec<Polygon>,
    /// Total fragments processed (the rule-OPC cost metric).
    pub fragments: usize,
}

/// Search step of the facing-space probe along a fragment's outward
/// normal, in nm.
const STEP: Coord = 10;

/// Applies rule-based OPC to `targets` in the presence of `context`
/// geometry (corrected masks of neighbouring windows, SRAFs, etc.).
///
/// # Errors
///
/// Returns an error for an invalid fragment spec; degenerate corrections
/// fall back to the uncorrected target polygon.
pub fn correct(
    config: &RuleOpcConfig,
    targets: &[Polygon],
    context: &[Polygon],
) -> Result<RuleOpcResult> {
    config.fragment.validate()?;
    let near = Neighbourhood::new(targets, context);
    let mut candidates = Vec::new();
    let mut corrected = Vec::with_capacity(targets.len());
    let mut fragments = 0;
    for (ti, target) in targets.iter().enumerate() {
        let frag = FragmentedPolygon::new(target, &config.fragment)?;
        fragments += frag.len();
        near.candidates(ti, config.space_search, &mut candidates);
        let offsets: Vec<Coord> = frag
            .fragments()
            .iter()
            .map(|fr| {
                let space = facing_space(fr.control, fr.outward, &candidates, config.space_search);
                offset(config, fr, space)
            })
            .collect();
        match frag.apply_offsets(&offsets) {
            Ok(p) => corrected.push(p),
            Err(_) => corrected.push(target.clone()), // conservative fallback
        }
    }
    Ok(RuleOpcResult {
        corrected,
        fragments,
    })
}

/// The normal offset of one fragment whose facing space is `space`.
fn offset(config: &RuleOpcConfig, fr: &FragmentInfo, space: Coord) -> Coord {
    let base = match fr.kind {
        FragmentKind::LineEnd => config.line_end_extension,
        FragmentKind::Corner => config.corner_bias,
        FragmentKind::Normal => 0,
    };
    let bias = config
        .bias_table
        .iter()
        .find(|&&(max_space, _)| space <= max_space)
        .map(|&(_, b)| b)
        .unwrap_or(config.iso_bias);
    // Bridge guard: both facing edges may bias into the same gap, so each
    // side may take at most half minus a margin.
    (base + bias).min((space / 2 - 10).max(0))
}

/// Everything that can face a fragment (the targets, then the context),
/// indexed by bounding box.
struct Neighbourhood<'a> {
    all: Vec<&'a Polygon>,
    index: GridIndex<usize>,
}

impl<'a> Neighbourhood<'a> {
    fn new(targets: &'a [Polygon], context: &'a [Polygon]) -> Neighbourhood<'a> {
        let mut index = GridIndex::new(2_000);
        let all: Vec<&Polygon> = targets.iter().chain(context).collect();
        for (i, p) in all.iter().enumerate() {
            index.insert(p.bbox(), i);
        }
        Neighbourhood { all, index }
    }

    /// Fills `out` with every polygon but target `ti` whose box meets the
    /// target's box grown by `space_search` plus one step, with its box.
    /// A fragment's control point lies on the target's boundary, so every
    /// probe lies within `space_search` of the target's box, and a polygon
    /// that contains a probe has it in its half-open box: every polygon
    /// that can contain a probe is here. Empty when no step is in range.
    fn candidates(&self, ti: usize, space_search: Coord, out: &mut Vec<(Rect, &'a Polygon)>) {
        out.clear();
        if space_search < STEP {
            return;
        }
        // A box grown by a positive amount is non-degenerate.
        #[allow(clippy::expect_used)]
        let reach = self.all[ti]
            .bbox()
            .expand(space_search + STEP)
            .expect("grown box is non-degenerate");
        out.extend(
            self.index
                .query(reach)
                .into_iter()
                .filter(|&(_, &pi)| pi != ti)
                .map(|(bbox, &pi)| (*bbox, self.all[pi])),
        );
    }
}

/// Distance from a fragment control point to the nearest facing polygon:
/// the first probe `control + outward × d` (d = 10, 20, … nm, up to
/// `space_search`) that a candidate contains, or `space_search + 1` if
/// none does.
///
/// [`Polygon::contains`] is a half-open crossing test, false outside the
/// polygon's half-open box [left, right) × [bottom, top), so each
/// candidate is tested only at the steps whose probe lies in its box, and
/// only below the best hit so far. That is the same predicate at the same
/// points as testing every step against every polygon near it, so the
/// smallest hit is the march's first ([`facing_space_march`] is the
/// oracle).
fn facing_space(
    control: Point,
    outward: Vector,
    candidates: &[(Rect, &Polygon)],
    space_search: Coord,
) -> Coord {
    let mut last = space_search.div_euclid(STEP);
    let mut hit = None;
    for (bbox, polygon) in candidates {
        let (x0, x1) = steps_inside(control.x, outward.dx * STEP, bbox.left(), bbox.right());
        let (y0, y1) = steps_inside(control.y, outward.dy * STEP, bbox.bottom(), bbox.top());
        let (first, end) = (x0.max(y0).max(1), x1.min(y1).min(last));
        if let Some(k) = (first..=end).find(|&k| polygon.contains(control + outward * (STEP * k))) {
            (hit, last) = (Some(k), k - 1);
        }
    }
    hit.map_or(space_search + 1, |k| k * STEP)
}

/// The inclusive range of integer `k` with `lo <= c + step × k < hi`:
/// every `k` when `step` is 0 and `lo <= c < hi`, empty (first > last)
/// when it is 0 and not.
fn steps_inside(c: Coord, step: Coord, lo: Coord, hi: Coord) -> (Coord, Coord) {
    // ⌊a / b⌋ and ⌈a / b⌉ for b > 0, negative a included.
    let floor = |a: Coord, b: Coord| a.div_euclid(b);
    let ceil = |a: Coord, b: Coord| -(-a).div_euclid(b);
    match step.signum() {
        0 if lo <= c && c < hi => (Coord::MIN, Coord::MAX),
        0 => (1, 0),
        1 => (ceil(lo - c, step), floor(hi - 1 - c, step)),
        _ => (ceil(c - hi + 1, -step), floor(c - lo, -step)),
    }
}

/// The search [`facing_space`] reproduces, kept as its oracle: every step
/// in turn, each against the polygons whose boxes meet a 20 × 20 nm
/// window around its probe.
#[cfg(test)]
fn facing_space_march(
    control: Point,
    outward: Vector,
    self_index: usize,
    near: &Neighbourhood<'_>,
    space_search: Coord,
) -> Coord {
    let mut d = STEP;
    while d <= space_search {
        let probe = control + outward * d;
        let window = Rect::centered(probe, 2 * STEP, 2 * STEP).expect("probe window");
        for (_, &pi) in near.index.query(window) {
            if pi != self_index && near.all[pi].contains(probe) {
                return d;
            }
        }
        d += STEP;
    }
    space_search + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(x0: Coord, x1: Coord) -> Polygon {
        Polygon::from(Rect::new(x0, 0, x1, 1000).expect("rect"))
    }

    #[test]
    fn line_ends_get_hammerhead_extension() {
        let cfg = RuleOpcConfig::standard();
        let result = correct(&cfg, &[line(0, 90)], &[]).expect("correct");
        let out = &result.corrected[0];
        // The corrected polygon must extend past the drawn line end by the
        // hammerhead extension plus the (negative) isolated-edge bias.
        let expected = cfg.line_end_extension + cfg.iso_bias;
        assert!(out.bbox().top() >= 1000 + expected);
        assert!(out.bbox().bottom() <= -expected);
        assert!(result.fragments > 4);
    }

    #[test]
    fn dense_edges_biased_differently_from_iso() {
        let cfg = RuleOpcConfig::standard();
        // Isolated line vs the same line with a close neighbour.
        let iso = correct(&cfg, &[line(0, 90)], &[]).expect("correct");
        let dense = correct(&cfg, &[line(0, 90)], &[line(280, 370)]).expect("correct");
        // The dense right edge faces a neighbour at 190 nm space → +4 bias;
        // the iso right edge gets the iso bias (negative).
        let iso_right = iso.corrected[0].bbox().right();
        let dense_right = dense.corrected[0].bbox().right();
        assert!(
            dense_right > iso_right,
            "dense {dense_right} should be biased out vs iso {iso_right}"
        );
    }

    #[test]
    fn bias_never_bridges_the_gap() {
        let mut cfg = RuleOpcConfig::standard();
        cfg.bias_table = vec![(500, 100)]; // absurd bias
        let result = correct(&cfg, &[line(0, 90), line(150, 240)], &[]).expect("correct");
        // Gap between corrected polygons must remain open.
        let a = result.corrected[0].bbox();
        let b = result.corrected[1].bbox();
        assert!(a.right() < b.left(), "corrected masks bridged: {a} vs {b}");
    }

    #[test]
    fn corrected_masks_are_simple_polygons() {
        let cfg = RuleOpcConfig::standard();
        let targets = vec![line(0, 90), line(280, 370), line(700, 790)];
        let result = correct(&cfg, &targets, &[]).expect("correct");
        for p in &result.corrected {
            assert!(p.is_simple());
        }
        assert_eq!(result.corrected.len(), targets.len());
    }

    /// [`correct`] with every facing space from [`facing_space_march`].
    fn correct_march(
        config: &RuleOpcConfig,
        targets: &[Polygon],
        context: &[Polygon],
    ) -> Result<RuleOpcResult> {
        config.fragment.validate()?;
        let near = Neighbourhood::new(targets, context);
        let (mut corrected, mut fragments) = (Vec::new(), 0);
        for (ti, target) in targets.iter().enumerate() {
            let frag = FragmentedPolygon::new(target, &config.fragment)?;
            fragments += frag.len();
            let offsets: Vec<Coord> = frag
                .fragments()
                .iter()
                .map(|fr| {
                    let space =
                        facing_space_march(fr.control, fr.outward, ti, &near, config.space_search);
                    offset(config, fr, space)
                })
                .collect();
            corrected.push(
                frag.apply_offsets(&offsets)
                    .unwrap_or_else(|_| target.clone()),
            );
        }
        Ok(RuleOpcResult {
            corrected,
            fragments,
        })
    }

    /// A random rectilinear mask across the index's 2,000 nm bucket lines:
    /// rectangles, L- and U-shapes that overlap, abut the shape before them
    /// (sharing its right edge) or nest inside it, slivers narrower than
    /// one step among them.
    fn random_mask(rng: &mut postopc_rng::StdRng) -> Vec<Polygon> {
        use postopc_rng::RngExt;
        let n = rng.random_range(3usize..16);
        let mut mask: Vec<Polygon> = Vec::new();
        for _ in 0..n {
            let size = |rng: &mut postopc_rng::StdRng| {
                if rng.random_range(0u32..4) == 0 {
                    rng.random_range(1i64..STEP)
                } else {
                    rng.random_range(1i64..700)
                }
            };
            let (w, h) = (size(rng), size(rng));
            let (x, y) = match (rng.random_range(0u32..4), mask.last().map(Polygon::bbox)) {
                (0, Some(b)) => (b.right(), rng.random_range(b.bottom() - h..b.top())),
                (1, Some(b)) if b.width() > w && b.height() > h => (
                    rng.random_range(b.left()..=b.right() - w),
                    rng.random_range(b.bottom()..=b.top() - h),
                ),
                // Around a bucket corner, so shapes straddle bucket lines.
                _ => (
                    2_000 * rng.random_range(0i64..2) + rng.random_range(-500i64..500),
                    rng.random_range(-500i64..500),
                ),
            };
            let shape = match rng.random_range(0u32..4) {
                // An L: the full-width foot and the left part of the top.
                0 if w > 1 && h > 1 => {
                    let (foot, arm) = (rng.random_range(1..h), rng.random_range(1..w));
                    Polygon::new(vec![
                        Point::new(x, y),
                        Point::new(x + w, y),
                        Point::new(x + w, y + foot),
                        Point::new(x + arm, y + foot),
                        Point::new(x + arm, y + h),
                        Point::new(x, y + h),
                    ])
                    .expect("L-shape")
                }
                // A U, whose arms face each other across its own gap.
                1 if w > 2 && h > 1 => {
                    let foot = rng.random_range(1..h);
                    let left = rng.random_range(1..w - 1);
                    let right = rng.random_range(left + 1..w);
                    Polygon::new(vec![
                        Point::new(x, y),
                        Point::new(x + w, y),
                        Point::new(x + w, y + h),
                        Point::new(x + right, y + h),
                        Point::new(x + right, y + foot),
                        Point::new(x + left, y + foot),
                        Point::new(x + left, y + h),
                        Point::new(x, y + h),
                    ])
                    .expect("U-shape")
                }
                _ => Polygon::from(Rect::new(x, y, x + w, y + h).expect("rect")),
            };
            mask.push(shape);
        }
        mask
    }

    #[test]
    fn facing_space_reads_the_march_on_random_masks() {
        use postopc_rng::{RngExt, SeedableRng};
        let mut rng = postopc_rng::StdRng::seed_from_u64(26);
        let (mut hits, mut misses) = (0, 0);
        for round in 0..60 {
            let mask = random_mask(&mut rng);
            // Half the rounds move the whole mask to negative coordinates.
            let shift = if round % 2 == 1 {
                Vector::new(
                    -rng.random_range(3_000i64..20_000),
                    -rng.random_range(3_000i64..20_000),
                )
            } else {
                Vector::new(0, 0)
            };
            let mask: Vec<Polygon> = mask.iter().map(|p| p.translate(shift)).collect();
            let split = rng.random_range(1..=mask.len());
            let (targets, context) = mask.split_at(split);
            let near = Neighbourhood::new(targets, context);
            let mut candidates = Vec::new();
            for space_search in [-10, 0, 5, 10, 15, 600, 601] {
                let config = RuleOpcConfig {
                    space_search,
                    ..RuleOpcConfig::standard()
                };
                for (ti, target) in targets.iter().enumerate() {
                    near.candidates(ti, space_search, &mut candidates);
                    let frag = FragmentedPolygon::new(target, &config.fragment).expect("frag");
                    for fr in frag.fragments() {
                        let (control, outward) = (fr.control, fr.outward);
                        let fast = facing_space(control, outward, &candidates, space_search);
                        let march = facing_space_march(control, outward, ti, &near, space_search);
                        assert_eq!(
                            fast, march,
                            "round {round}, search {space_search}, target {ti}, {control}"
                        );
                        if space_search == 600 {
                            (hits, misses) = if fast <= 600 {
                                (hits + 1, misses)
                            } else {
                                (hits, misses + 1)
                            };
                        }
                    }
                }
                assert_eq!(
                    correct(&config, targets, context).expect("correct"),
                    correct_march(&config, targets, context).expect("march"),
                    "round {round}, search {space_search}"
                );
            }
        }
        assert!(hits > 100 && misses > 100, "{hits} hits, {misses} misses");
    }

    #[test]
    fn steps_inside_is_the_half_open_box_on_either_side_of_zero() {
        for c in [-35, -30, -1, 0, 7, 30] {
            for step in [-20, -10, -3, 0, 3, 10, 20] {
                for (lo, hi) in [(-40, -20), (-5, 5), (0, 1), (10, 60), (-100, 100)] {
                    let (first, last) = steps_inside(c, step, lo, hi);
                    for k in -60..=60 {
                        let inside = (lo..hi).contains(&(c + step * k));
                        assert_eq!(
                            inside,
                            (first..=last).contains(&k),
                            "c {c}, step {step}, [{lo}, {hi}), k {k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn context_affects_bias_without_being_corrected() {
        let cfg = RuleOpcConfig::standard();
        let result = correct(&cfg, &[line(0, 90)], &[line(200, 290)]).expect("correct");
        assert_eq!(result.corrected.len(), 1);
    }
}
