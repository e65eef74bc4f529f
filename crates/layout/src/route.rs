//! Net routing: L-shaped driver-to-sink connections on metal-1/metal-2.
//!
//! Horizontal trunks run on metal-2 and vertical drops on metal-1, with a
//! via at each bend. The router is geometric rather than DRC-exact — its
//! purpose is (a) realistic wire *lengths* for RC back-annotation and
//! (b) printed metal shapes for the paper's multi-layer extraction
//! extension.

use crate::error::{LayoutError, Result};
use crate::layer::Layer;
use crate::library::CellLibrary;
use crate::netlist::{NetId, Netlist};
use crate::place::Placement;
use postopc_geom::{Coord, Point, Rect};

/// One rectangular wire or via piece of a routed net.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteSegment {
    /// Layer of the piece.
    pub layer: Layer,
    /// Geometry of the piece.
    pub rect: Rect,
}

/// The complete route of one net.
#[derive(Debug, Clone, PartialEq)]
pub struct NetRoute {
    /// The routed net.
    pub net: NetId,
    /// Wire and via pieces.
    pub segments: Vec<RouteSegment>,
    /// Total routed wirelength in nm.
    pub length_nm: f64,
}

/// Routing of a whole design.
#[derive(Debug, Clone, PartialEq)]
pub struct Routing {
    routes: Vec<NetRoute>,
}

impl Routing {
    /// Routes every gate-driven and primary-input net of the design with
    /// star topology L-routes from driver to each sink.
    ///
    /// # Errors
    ///
    /// Propagates geometry errors (degenerate route rectangles are skipped,
    /// so this only fails on inconsistent technology rules).
    pub fn route(
        netlist: &Netlist,
        placement: &Placement,
        library: &CellLibrary,
    ) -> Result<Routing> {
        let tech = library.tech();
        let mut routes = Vec::new();
        for (net_index, _net) in netlist.nets().iter().enumerate() {
            let net = NetId(net_index as u32);
            let driver_pos = match netlist.driver(net) {
                Some(gid) => {
                    let inst = placement.instance(gid).ok_or(LayoutError::UnknownId {
                        kind: "gate",
                        index: gid.0 as usize,
                    })?;
                    let cell = library.cell(netlist.gate(gid).kind, netlist.gate(gid).drive);
                    inst.transform.apply(cell.output_pin())
                }
                // Primary inputs enter at the die's left edge at mid-height.
                None => Point::new(placement.die().left(), placement.die().center().y),
            };
            let mut segments = Vec::new();
            let mut length = 0.0;
            for sink_gate in netlist.sinks(net) {
                let g = netlist.gate(sink_gate);
                let inst = placement
                    .instance(sink_gate)
                    .ok_or(LayoutError::UnknownId {
                        kind: "gate",
                        index: sink_gate.0 as usize,
                    })?;
                let cell = library.cell(g.kind, g.drive);
                for (pin_index, &input) in g.inputs.iter().enumerate() {
                    if input != net {
                        continue;
                    }
                    let pin = inst.transform.apply(cell.input_pins()[pin_index]);
                    // Spread vertical drops across neighbouring tracks so
                    // distinct nets do not overlap on metal-1, clamping the
                    // drop inside the die.
                    let die = placement.die();
                    let mut track = [0, 1, -1, 2, -2][net_index % 5] * tech.track_pitch;
                    // Reflect the offset back inside the die rather than
                    // clamping (clamping would pile edge nets onto one track).
                    if pin.x + track < die.left() + tech.m1_width
                        || pin.x + track > die.right() - tech.m1_width
                    {
                        track = -track;
                    }
                    let (segs, len) = l_route(driver_pos, pin, tech.m2_width, tech.m1_width, track);
                    segments.extend(segs);
                    length += len;
                }
            }
            routes.push(NetRoute {
                net,
                segments,
                length_nm: length,
            });
        }
        Ok(Routing { routes })
    }

    /// All net routes, indexed by net id.
    pub fn routes(&self) -> &[NetRoute] {
        &self.routes
    }

    /// The route of one net.
    pub fn route_of(&self, net: NetId) -> Option<&NetRoute> {
        self.routes.get(net.0 as usize)
    }
}

/// Builds an L-route: horizontal metal-2 trunk at the driver's y, a
/// vertical metal-1 drop at the sink's x shifted by `track_offset`, a via
/// at the bend, and (when offset) a short metal-2 approach stub into the
/// pin.
fn l_route(
    from: Point,
    to: Point,
    m2w: Coord,
    m1w: Coord,
    track_offset: Coord,
) -> (Vec<RouteSegment>, f64) {
    let mut segments = Vec::new();
    let mut length = 0.0;
    let drop_x = to.x + track_offset;
    // Horizontal trunk on metal-2, driver to the drop track.
    if (drop_x - from.x).abs() > m2w {
        let (x0, x1) = (from.x.min(drop_x), from.x.max(drop_x));
        if let Ok(rect) = Rect::new(x0, from.y - m2w / 2, x1, from.y + m2w / 2) {
            segments.push(RouteSegment {
                layer: Layer::Metal2,
                rect,
            });
            length += (x1 - x0) as f64;
        }
    }
    // Vertical drop on metal-1.
    let mut dropped = false;
    if (to.y - from.y).abs() > m1w {
        let (y0, y1) = (from.y.min(to.y), from.y.max(to.y));
        if let Ok(rect) = Rect::new(drop_x - m1w / 2, y0, drop_x + m1w / 2, y1) {
            segments.push(RouteSegment {
                layer: Layer::Metal1,
                rect,
            });
            length += (y1 - y0) as f64;
            dropped = true;
            if let Ok(via) = Rect::centered(Point::new(drop_x, from.y), m1w, m1w) {
                segments.push(RouteSegment {
                    layer: Layer::Via1,
                    rect: via,
                });
            }
        }
    }
    // Approach stub from the drop track into the pin (metal-2, to avoid
    // running over cell-internal metal-1).
    if dropped && track_offset != 0 && (drop_x - to.x).abs() > 0 {
        let (x0, x1) = (drop_x.min(to.x), drop_x.max(to.x));
        if let Ok(rect) = Rect::new(x0 - m1w / 2, to.y - m2w / 2, x1 + m1w / 2, to.y + m2w / 2) {
            segments.push(RouteSegment {
                layer: Layer::Metal2,
                rect,
            });
            length += (x1 - x0) as f64;
            if let Ok(via) = Rect::centered(Point::new(drop_x, to.y), m1w, m1w) {
                segments.push(RouteSegment {
                    layer: Layer::Via1,
                    rect: via,
                });
            }
        }
    }
    (segments, length)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use crate::tech::TechRules;

    fn routed() -> (Netlist, CellLibrary, Placement, Routing) {
        let nl = generate::ripple_carry_adder(4).expect("netlist");
        let lib = CellLibrary::new(TechRules::n90()).expect("library");
        let p = Placement::place(&nl, &lib).expect("placement");
        let r = Routing::route(&nl, &p, &lib).expect("routing");
        (nl, lib, p, r)
    }

    #[test]
    fn every_net_has_a_route_entry() {
        let (nl, _, _, r) = routed();
        assert_eq!(r.routes().len(), nl.nets().len());
    }

    #[test]
    fn multi_sink_nets_route_to_every_sink() {
        let (nl, _, _, r) = routed();
        for (i, _) in nl.nets().iter().enumerate() {
            let net = NetId(i as u32);
            let sinks: usize = nl
                .sinks(net)
                .iter()
                .map(|&g| nl.gate(g).inputs.iter().filter(|&&n| n == net).count())
                .sum();
            let route = r.route_of(net).expect("route exists");
            if sinks > 0 {
                // At most 5 segments per sink (trunk, drop, via, stub, via).
                assert!(route.segments.len() <= 5 * sinks);
            } else {
                assert!(route.segments.is_empty());
            }
        }
    }

    #[test]
    fn wirelength_is_positive_and_reasonable() {
        let (_, _, p, r) = routed();
        let total: f64 = r.routes().iter().map(|route| route.length_nm).sum();
        assert!(total > 0.0);
        // Wirelength should not exceed a generous multiple of the die
        // semi-perimeter times the net count.
        let semi = (p.die().width() + p.die().height()) as f64;
        assert!(total < semi * r.routes().len() as f64);
    }

    #[test]
    fn segments_have_correct_layers() {
        let (_, _, _, r) = routed();
        for route in r.routes() {
            for seg in &route.segments {
                assert!(matches!(
                    seg.layer,
                    Layer::Metal1 | Layer::Metal2 | Layer::Via1
                ));
            }
        }
    }

    #[test]
    fn l_route_geometry() {
        let (segs, len) = l_route(Point::new(0, 0), Point::new(1000, 2000), 140, 120, 0);
        assert_eq!(segs.len(), 3);
        assert_eq!(len, 3000.0);
        assert_eq!(segs[0].layer, Layer::Metal2);
        assert_eq!(segs[1].layer, Layer::Metal1);
        assert_eq!(segs[2].layer, Layer::Via1);
        // Collinear sink: single segment, no via.
        let (segs, len) = l_route(Point::new(0, 0), Point::new(1000, 0), 140, 120, 0);
        assert_eq!(segs.len(), 1);
        assert_eq!(len, 1000.0);
    }

    #[test]
    fn offset_route_adds_approach_stub() {
        let (segs, len) = l_route(Point::new(0, 0), Point::new(1000, 2000), 140, 120, 240);
        // Trunk, drop, via, stub, pin via.
        assert_eq!(segs.len(), 5);
        assert!(len > 3000.0);
        // The drop sits on the offset track.
        let drop = segs
            .iter()
            .find(|s| s.layer == Layer::Metal1)
            .expect("drop");
        assert_eq!(drop.rect.center().x, 1240);
        // The stub reaches the pin.
        let stub = &segs[3];
        assert_eq!(stub.layer, Layer::Metal2);
        assert!(stub.rect.left() <= 1000 && stub.rect.right() >= 1240);
    }

    #[test]
    fn distinct_nets_use_distinct_tracks() {
        // Drops of different nets to the same pin column must not overlap.
        let nl = generate::inverter_chain(60).expect("netlist");
        let lib = CellLibrary::new(TechRules::n90()).expect("library");
        let p = Placement::place(&nl, &lib).expect("placement");
        let r = Routing::route(&nl, &p, &lib).expect("routing");
        let mut drops: Vec<(usize, Rect)> = Vec::new();
        for (i, route) in r.routes().iter().enumerate() {
            for s in &route.segments {
                if s.layer == Layer::Metal1 {
                    drops.push((i, s.rect));
                }
            }
        }
        for a in 0..drops.len() {
            for b in (a + 1)..drops.len() {
                if drops[a].0 != drops[b].0 {
                    assert!(
                        !drops[a].1.intersects(&drops[b].1),
                        "net {} and net {} drops overlap",
                        drops[a].0,
                        drops[b].0
                    );
                }
            }
        }
    }
}
