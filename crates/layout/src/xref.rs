//! Netlist ↔ geometry cross-reference.
//!
//! The heart of the paper's methodology is a *traceable correspondence*
//! between selected netlist gates and their silicon geometry ("tagging
//! critical gates, post-OPC layout back-annotation, and selective
//! extraction from the global circuit netlist"). [`TransistorSite`] is that
//! correspondence: one record per transistor channel, in chip coordinates,
//! carrying the netlist ids needed to put extracted CDs back into timing.

use crate::library::CellLibrary;
use crate::netlist::{GateId, Netlist};
use crate::place::Placement;
use postopc_device::MosKind;
use postopc_geom::Rect;

/// One transistor channel of the placed design, in chip coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransistorSite {
    /// The netlist gate instance this channel belongs to.
    pub gate: GateId,
    /// Device polarity.
    pub kind: MosKind,
    /// Channel region (poly ∩ active) in chip coordinates.
    pub channel: Rect,
    /// Channel width in nm.
    pub width_nm: f64,
    /// Drawn channel length in nm.
    pub drawn_l_nm: f64,
    /// Finger index within the cell.
    pub finger: usize,
}

/// Enumerates every transistor channel of the placed design.
///
/// Order: placement order, then cell transistor order — deterministic for
/// a given design.
pub fn transistor_sites(
    netlist: &Netlist,
    placement: &Placement,
    library: &CellLibrary,
) -> Vec<TransistorSite> {
    let mut sites = Vec::new();
    for inst in placement.instances() {
        let g = netlist.gate(inst.gate);
        let cell = library.cell(g.kind, g.drive);
        for t in cell.transistors() {
            sites.push(TransistorSite {
                gate: inst.gate,
                kind: t.kind,
                channel: inst.transform.apply_rect(t.channel),
                width_nm: t.width_nm,
                drawn_l_nm: t.length_nm,
                finger: t.finger,
            });
        }
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use crate::tech::TechRules;

    #[test]
    fn sites_cover_all_gates() {
        let nl = generate::ripple_carry_adder(2).expect("netlist");
        let lib = CellLibrary::new(TechRules::n90()).expect("library");
        let p = Placement::place(&nl, &lib).expect("placement");
        let sites = transistor_sites(&nl, &p, &lib);
        // Every NAND2 has 4 transistors (2 fingers × N/P).
        assert_eq!(sites.len(), nl.gate_count() * 4);
        let gates: std::collections::HashSet<GateId> = sites.iter().map(|s| s.gate).collect();
        assert_eq!(gates.len(), nl.gate_count());
    }

    #[test]
    fn channels_are_inside_die_and_vertical() {
        let nl = generate::inverter_chain(20).expect("netlist");
        let lib = CellLibrary::new(TechRules::n90()).expect("library");
        let p = Placement::place(&nl, &lib).expect("placement");
        for site in transistor_sites(&nl, &p, &lib) {
            assert!(p.die().contains_rect(&site.channel));
            assert!(site.channel.height() > site.channel.width());
            assert_eq!(site.channel.width(), 90);
            assert_eq!(site.drawn_l_nm, 90.0);
        }
    }

    #[test]
    fn mirrored_rows_preserve_channel_size() {
        let nl = generate::inverter_chain(60).expect("netlist");
        let lib = CellLibrary::new(TechRules::n90()).expect("library");
        let p = Placement::place(&nl, &lib).expect("placement");
        assert!(p.rows() > 1, "need a mirrored row for this test");
        for site in transistor_sites(&nl, &p, &lib) {
            assert_eq!(site.channel.width(), 90);
            assert!(site.channel.height() >= 420);
        }
    }
}
