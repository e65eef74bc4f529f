//! Multi-layer extraction — the paper's proposed extension.
//!
//! Beyond poly, the printed widths of routed metal-1 wires perturb
//! interconnect RC. This module measures printed wire widths segment by
//! segment and merges per-net [`postopc_sta::NetAnnotation`]s into an
//! existing annotation. Metal is imaged without OPC (metal OPC was not
//! part of the paper's flow; the extension is about *extraction*) but
//! with the extraction's imaging model, resist and optical ambit, so it
//! prints at the wafer's exposure conditions, as poly does. The
//! across-chip map moves only the poly windows.

use crate::error::Result;
use crate::extract::ExtractionConfig;
use postopc_cdex::measure_wire_width;
use postopc_geom::{Coord, Rect};
use postopc_layout::{Design, Layer, NetId};
use postopc_litho::AerialImage;
use postopc_sta::{CdAnnotation, NetAnnotation};

/// Measurement stations per segment: several land between cell-internal
/// metal even on congested drops.
const STATIONS: usize = 9;

/// Segments longer than this are measured over a centred sub-window of
/// this length, in nm (bounds simulation cost): the stations spread over
/// the sub-window, which is imaged together with a drawn width of margin
/// on every side, and the segment's mean width stands for its whole
/// length.
const MAX_WINDOW_LEN: Coord = 4_000;

/// Statistics of a wire extraction run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireExtractionStats {
    /// Nets annotated with a printed width.
    pub nets_annotated: usize,
    /// Segments measured.
    pub segments_measured: usize,
    /// Measured segments whose width reaches no annotation: the segments
    /// where the wire failed to print, plus every printed segment of a
    /// net whose mean width fell outside the plausibility band.
    pub segments_failed: usize,
}

/// Extracts printed metal-1 widths for `nets` and merges them into
/// `annotation`, imaging with `config`'s `sim`, `resist` and
/// `context_ambit_nm`.
///
/// # Errors
///
/// Propagates simulation errors; unprintable segments are skipped and
/// counted in the stats.
pub fn extract_wires(
    design: &Design,
    config: &ExtractionConfig,
    nets: &[NetId],
    annotation: &mut CdAnnotation,
) -> Result<WireExtractionStats> {
    let mut stats = WireExtractionStats::default();
    for &net in nets {
        let Some(route) = design.routing().route_of(net) else {
            continue;
        };
        let mut weighted = 0.0;
        let mut total_len = 0.0;
        let mut printed_segments = 0;
        for seg in &route.segments {
            if seg.layer != Layer::Metal1 {
                continue;
            }
            let seg_len = seg.rect.width().max(seg.rect.height());
            stats.segments_measured += 1;
            match segment_width(design, config, seg.rect, MAX_WINDOW_LEN)? {
                Some(width) => {
                    weighted += width * seg_len as f64;
                    total_len += seg_len as f64;
                    printed_segments += 1;
                }
                None => stats.segments_failed += 1,
            }
        }
        if total_len > 0.0 {
            let printed = weighted / total_len;
            let drawn = design.tech().m1_width as f64;
            // Plausibility band: a mean outside ±40% of drawn means the
            // stations hit merged metal; keep the drawn width instead.
            if (0.6 * drawn..1.4 * drawn).contains(&printed) {
                annotation.set_net(
                    net,
                    NetAnnotation {
                        printed_width_nm: printed,
                    },
                );
                stats.nets_annotated += 1;
            } else {
                stats.segments_failed += printed_segments;
            }
        }
    }
    Ok(stats)
}

/// The printed width of one metal-1 `segment` over its central
/// `max_window_len`, or `None` where the wire does not print.
fn segment_width(
    design: &Design,
    config: &ExtractionConfig,
    segment: Rect,
    max_window_len: Coord,
) -> Result<Option<f64>> {
    let stations_over = measurement_window(segment, max_window_len)?;
    // The across-wire searches reach 0.75 drawn widths from the centre
    // line: a drawn width of margin keeps them in the image.
    let drawn_w = segment.width().min(segment.height());
    let window = stations_over.expand(drawn_w)?;
    let search = window.expand(config.context_ambit_nm)?;
    let mask: Vec<postopc_geom::Polygon> = design
        .shapes_in_window(Layer::Metal1, search)
        .into_iter()
        .cloned()
        .collect();
    let image = AerialImage::simulate(&config.sim, &mask, window)?;
    Ok(measure_wire_width(
        &image,
        &config.resist,
        stations_over,
        STATIONS,
    )?)
}

/// A measurement window over (at most the central `max_len` of) a segment.
fn measurement_window(segment: Rect, max_len: Coord) -> Result<Rect> {
    let horizontal = segment.width() >= segment.height();
    let len = if horizontal {
        segment.width()
    } else {
        segment.height()
    };
    if len <= max_len {
        return Ok(segment);
    }
    let c = segment.center();
    let window = if horizontal {
        Rect::new(
            c.x - max_len / 2,
            segment.bottom(),
            c.x + max_len / 2,
            segment.top(),
        )?
    } else {
        Rect::new(
            segment.left(),
            c.y - max_len / 2,
            segment.right(),
            c.y + max_len / 2,
        )?
    };
    Ok(window)
}

#[cfg(test)]
mod tests {
    use super::*;
    use postopc_layout::{generate, TechRules};

    #[test]
    fn annotates_routed_nets() {
        // Needs a multi-row design: single-row chains route entirely on
        // metal-2 trunks and have no metal-1 drops to measure.
        let d = Design::compile(
            generate::inverter_chain(60).expect("netlist"),
            TechRules::n90(),
        )
        .expect("design");
        assert!(d.placement().rows() > 1);
        let nets: Vec<NetId> = (0..d.netlist().nets().len() as u32)
            .map(NetId)
            .take(30)
            .collect();
        let mut ann = CdAnnotation::new();
        let stats =
            extract_wires(&d, &ExtractionConfig::standard(), &nets, &mut ann).expect("wires");
        assert!(stats.nets_annotated > 0, "no nets annotated");
        assert!(stats.segments_measured >= stats.nets_annotated);
        // Printed widths should be near the drawn 120 nm.
        assert_eq!(
            ann.gates().count(),
            0,
            "wire extraction must not annotate gates"
        );
        assert_eq!(ann.net_count(), stats.nets_annotated);
    }

    #[test]
    fn clipped_window_measures_what_an_image_of_the_whole_segment_shows() {
        // Net 34 of this chain is one 2.53 µm metal-1 drop. Clipped to a
        // 1 µm window, its width must be what an image over the whole drop
        // shows at the clipped window's stations.
        let d = Design::compile(
            generate::inverter_chain(60).expect("netlist"),
            TechRules::n90(),
        )
        .expect("design");
        let net = NetId(34);
        let route = d.routing().route_of(net).expect("routed");
        let m1: Vec<Rect> = route
            .segments
            .iter()
            .filter(|s| s.layer == Layer::Metal1)
            .map(|s| s.rect)
            .collect();
        assert!(m1.len() == 1 && m1[0].height() > 2_500, "{m1:?}");
        let segment = m1[0];
        let cfg = ExtractionConfig::standard();
        let clipped = segment_width(&d, &cfg, segment, 1_000)
            .expect("width")
            .expect("wire prints");

        let window = segment.expand(segment.width()).expect("window");
        let search = window.expand(cfg.context_ambit_nm).expect("search");
        let mask: Vec<postopc_geom::Polygon> = d
            .shapes_in_window(Layer::Metal1, search)
            .into_iter()
            .cloned()
            .collect();
        let image = AerialImage::simulate(&cfg.sim, &mask, window).expect("image");
        let stations_over = measurement_window(segment, 1_000).expect("window");
        let whole = measure_wire_width(&image, &cfg.resist, stations_over, STATIONS)
            .expect("measurement")
            .expect("wire prints");
        assert!(
            (clipped - whole).abs() < 1e-6,
            "clipped window {clipped} nm vs whole-segment image {whole} nm"
        );
    }

    #[test]
    fn every_segment_of_a_rejected_net_counts_as_failed() {
        // Underexposed at dose 0.7, a 2-bit adder's wires print thin: net
        // 17 prints both its metal-1 segments at about half the drawn
        // width, so its mean leaves the plausibility band and neither
        // segment's width reaches the annotation.
        let d = Design::compile(
            generate::ripple_carry_adder(2).expect("netlist"),
            TechRules::n90(),
        )
        .expect("design");
        let cfg = ExtractionConfig::standard().with_conditions(postopc_litho::ProcessConditions {
            focus_nm: 0.0,
            dose: 0.7,
        });
        let mut rejected_with_several_printed = 0;
        for net in (0..d.netlist().nets().len() as u32).map(NetId) {
            let printed = d.routing().route_of(net).map_or(0, |route| {
                route
                    .segments
                    .iter()
                    .filter(|s| s.layer == Layer::Metal1)
                    .filter(|s| {
                        segment_width(&d, &cfg, s.rect, MAX_WINDOW_LEN)
                            .expect("width")
                            .is_some()
                    })
                    .count()
            });
            let mut ann = CdAnnotation::new();
            let stats = extract_wires(&d, &cfg, &[net], &mut ann).expect("wires");
            let annotated = ann.net(net).is_some();
            let reached = if annotated { printed } else { 0 };
            assert_eq!(
                stats.segments_measured - stats.segments_failed,
                reached,
                "net {}",
                net.0
            );
            if !annotated && printed >= 2 {
                rejected_with_several_printed += 1;
            }
        }
        assert!(rejected_with_several_printed > 0);
    }

    #[test]
    fn window_clipping_bounds_cost() {
        let long = Rect::new(0, 0, 100_000, 120).expect("rect");
        let w = measurement_window(long, 4_000).expect("window");
        assert_eq!(w.width(), 4_000);
        assert_eq!(w.height(), 120);
        let short = Rect::new(0, 0, 1_000, 120).expect("rect");
        assert_eq!(measurement_window(short, 4_000).expect("window"), short);
    }

    #[test]
    fn empty_net_list_is_a_noop() {
        let d = Design::compile(
            generate::inverter_chain(3).expect("netlist"),
            TechRules::n90(),
        )
        .expect("design");
        let mut ann = CdAnnotation::new();
        let stats = extract_wires(&d, &ExtractionConfig::standard(), &[], &mut ann).expect("wires");
        assert_eq!(stats.nets_annotated, 0);
        assert_eq!(ann.net_count(), 0);
    }
}
