//! The compiled design: netlist + library + placement + routing, with
//! flattened-geometry queries.

use crate::error::Result;
use crate::layer::Layer;
use crate::library::CellLibrary;
use crate::netlist::{GateId, Netlist};
use crate::place::{Placement, PlacementOptions};
use crate::route::Routing;
use crate::tech::TechRules;
use crate::xref::{transistor_sites, TransistorSite};
use postopc_geom::{GridIndex, Polygon, Rect};
use std::collections::HashMap;

/// A fully compiled design, ready for lithography simulation and timing.
///
/// ```
/// use postopc_layout::{Design, generate, TechRules, Layer};
/// # fn main() -> Result<(), postopc_layout::LayoutError> {
/// let netlist = generate::inverter_chain(8)?;
/// let design = Design::compile(netlist, TechRules::n90())?;
/// assert_eq!(design.transistor_sites().len(), 16); // 8 cells × N + P
/// assert!(!design.shapes_on(Layer::Poly).is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Design {
    netlist: Netlist,
    library: CellLibrary,
    placement: Placement,
    routing: Routing,
    sites: Vec<TransistorSite>,
    /// Each gate's sites as a `start..end` range of `sites`, by gate id.
    gate_sites: Vec<(u32, u32)>,
    // Flattened chip-coordinate shapes per layer, with a spatial index over
    // shape bounding boxes for windowed queries.
    shapes: HashMap<Layer, Vec<Polygon>>,
    indexes: HashMap<Layer, GridIndex<usize>>,
}

impl Design {
    /// Places, routes and flattens a netlist into a complete design.
    ///
    /// # Errors
    ///
    /// Propagates netlist/placement/routing errors.
    pub fn compile(netlist: Netlist, tech: TechRules) -> Result<Design> {
        Design::compile_with(netlist, tech, &PlacementOptions::default())
    }

    /// Like [`Design::compile`], with explicit placement options
    /// (utilization < 1 inserts filler gaps for context diversity).
    ///
    /// # Errors
    ///
    /// Propagates netlist/placement/routing errors.
    pub fn compile_with(
        netlist: Netlist,
        tech: TechRules,
        options: &PlacementOptions,
    ) -> Result<Design> {
        let library = CellLibrary::new(tech)?;
        let placement = Placement::place_with(&netlist, &library, options)?;
        let routing = Routing::route(&netlist, &placement, &library)?;
        let sites = transistor_sites(&netlist, &placement, &library);
        // Sites come one instance at a time, so each gate's are one run.
        let mut gate_sites = vec![(0, 0); netlist.gate_count()];
        for (i, site) in sites.iter().enumerate() {
            let span = &mut gate_sites[site.gate.0 as usize];
            if span.0 == span.1 {
                *span = (i as u32, i as u32);
            }
            span.1 += 1;
        }

        let mut shapes: HashMap<Layer, Vec<Polygon>> = HashMap::new();
        for inst in placement.instances() {
            let g = netlist.gate(inst.gate);
            let cell = library.cell(g.kind, g.drive);
            for (layer, shape) in cell.shapes() {
                shapes
                    .entry(*layer)
                    .or_default()
                    .push(inst.transform.apply_polygon(shape));
            }
        }
        for route in routing.routes() {
            for seg in &route.segments {
                shapes
                    .entry(seg.layer)
                    .or_default()
                    .push(Polygon::from(seg.rect));
            }
        }
        let mut indexes = HashMap::new();
        for (layer, polys) in &shapes {
            let mut idx = GridIndex::new(5_000);
            for (i, p) in polys.iter().enumerate() {
                idx.insert(p.bbox(), i);
            }
            indexes.insert(*layer, idx);
        }
        Ok(Design {
            netlist,
            library,
            placement,
            routing,
            sites,
            gate_sites,
            shapes,
            indexes,
        })
    }

    /// The logic netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The cell library.
    pub fn library(&self) -> &CellLibrary {
        &self.library
    }

    /// The placement.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The routing.
    pub fn routing(&self) -> &Routing {
        &self.routing
    }

    /// The technology rules.
    pub fn tech(&self) -> &TechRules {
        self.library.tech()
    }

    /// Every transistor channel in chip coordinates.
    pub fn transistor_sites(&self) -> &[TransistorSite] {
        &self.sites
    }

    /// The transistor channels of one gate, in cell transistor order
    /// (empty for an id the netlist does not have).
    pub fn gate_sites(&self, gate: GateId) -> &[TransistorSite] {
        match self.gate_sites.get(gate.0 as usize) {
            Some(&(start, end)) => &self.sites[start as usize..end as usize],
            None => &[],
        }
    }

    /// All flattened shapes on a layer (empty slice for unused layers).
    pub fn shapes_on(&self, layer: Layer) -> &[Polygon] {
        self.shapes.get(&layer).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Shapes on `layer` whose bounding box intersects `window`.
    pub fn shapes_in_window(&self, layer: Layer, window: Rect) -> Vec<&Polygon> {
        let Some(idx) = self.indexes.get(&layer) else {
            return Vec::new();
        };
        let polys = &self.shapes[&layer];
        idx.query(window)
            .into_iter()
            .map(|(_, &i)| &polys[i])
            .collect()
    }

    /// The die bounding box.
    pub fn die(&self) -> Rect {
        self.placement.die()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    fn design() -> Design {
        let nl = generate::ripple_carry_adder(2).expect("netlist");
        Design::compile(nl, TechRules::n90()).expect("design")
    }

    #[test]
    fn compile_produces_all_critical_layers() {
        let d = design();
        assert!(!d.shapes_on(Layer::Poly).is_empty());
        assert!(!d.shapes_on(Layer::Active).is_empty());
        assert!(!d.shapes_on(Layer::Metal1).is_empty());
        assert_eq!(d.shapes_on(Layer::Poly).len(), d.netlist().gate_count() * 2);
    }

    #[test]
    fn gate_sites_are_each_gates_own_sites_in_order() {
        let d = design();
        for g in 0..d.netlist().gate_count() as u32 {
            let gate = GateId(g);
            let scanned: Vec<&TransistorSite> = d
                .transistor_sites()
                .iter()
                .filter(|s| s.gate == gate)
                .collect();
            assert!(!scanned.is_empty());
            assert!(d.gate_sites(gate).iter().eq(scanned));
        }
        let past = GateId(d.netlist().gate_count() as u32);
        assert!(d.gate_sites(past).is_empty());
    }

    #[test]
    fn windowed_query_matches_full_scan() {
        let d = design();
        let window = Rect::new(0, 0, 3_000, 3_000).expect("rect");
        let windowed = d.shapes_in_window(Layer::Poly, window);
        let scanned: Vec<&Polygon> = d
            .shapes_on(Layer::Poly)
            .iter()
            .filter(|p| p.bbox().intersects(&window))
            .collect();
        assert_eq!(windowed.len(), scanned.len());
    }

    #[test]
    fn transistor_channels_sit_under_poly() {
        let d = design();
        for site in d.transistor_sites() {
            let hits = d.shapes_in_window(Layer::Poly, site.channel);
            assert!(
                !hits.is_empty(),
                "channel at {} has no poly above it",
                site.channel
            );
        }
    }

    #[test]
    fn die_covers_all_shapes() {
        let d = design();
        let die = d.die().expand(d.tech().poly_endcap).expect("expand");
        for layer in Layer::ALL {
            for p in d.shapes_on(layer) {
                assert!(die.contains_rect(&p.bbox()), "{layer} shape escapes die");
            }
        }
    }
}
