//! Row-based standard-cell placement.
//!
//! A simple deterministic placer: gates are placed in topological order,
//! serpentine across rows of a roughly square die. This keeps connected
//! gates near each other (short routes) while producing the *varied local
//! poly density* the experiments rely on — row ends, row turns and
//! drive-strength mixes give every gate a different lithographic context.

use crate::error::{LayoutError, Result};
use crate::library::CellLibrary;
use crate::netlist::{GateId, Netlist};
use postopc_geom::{Coord, Orient, Rect, Transform, Vector};
use postopc_rng::rngs::StdRng;
use postopc_rng::{RngExt, SeedableRng};

/// Placement tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementOptions {
    /// Target row utilization in (0, 1]: 1.0 packs cells abutted; lower
    /// values insert random filler gaps, giving gates diverse lithographic
    /// contexts (dense rows vs isolated neighbours) like real designs.
    pub utilization: f64,
    /// RNG seed for gap insertion (placement is deterministic given the
    /// options).
    pub seed: u64,
}

impl Default for PlacementOptions {
    fn default() -> Self {
        PlacementOptions {
            utilization: 1.0,
            seed: 0,
        }
    }
}

/// A placed gate instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacedGate {
    /// The netlist gate this instance realizes.
    pub gate: GateId,
    /// Transform from cell coordinates to chip coordinates.
    pub transform: Transform,
    /// Row index (0 = bottom).
    pub row: usize,
}

/// The placement of a whole netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    instances: Vec<PlacedGate>,
    /// Index into `instances` of each gate's instance, by gate id.
    position: Vec<u32>,
    die: Rect,
    rows: usize,
}

impl Placement {
    /// Places every gate of `netlist` using cells from `library`.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::EmptyDesign`] for an empty netlist.
    pub fn place(netlist: &Netlist, library: &CellLibrary) -> Result<Placement> {
        Placement::place_with(netlist, library, &PlacementOptions::default())
    }

    /// Places with explicit options (utilization, gap seed).
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::EmptyDesign`] for an empty netlist.
    pub fn place_with(
        netlist: &Netlist,
        library: &CellLibrary,
        options: &PlacementOptions,
    ) -> Result<Placement> {
        if netlist.gate_count() == 0 {
            return Err(LayoutError::EmptyDesign);
        }
        let utilization = options.utilization.clamp(0.2, 1.0);
        let mut rng = StdRng::seed_from_u64(options.seed);
        let tech = library.tech();
        let total_width: Coord = netlist
            .gates()
            .iter()
            .map(|g| library.cell(g.kind, g.drive).width())
            .sum();
        let spread_width = (total_width as f64 / utilization) as Coord;
        // Aim for a square-ish die with a little row slack.
        let rows = (((spread_width as f64) / (tech.cell_height as f64))
            .sqrt()
            .ceil() as usize)
            .max(1);
        let row_width = spread_width / rows as Coord + tech.poly_pitch * 4;
        // Mean filler gap that realizes the target utilization.
        let mean_gap = total_width as f64 * (1.0 / utilization - 1.0) / netlist.gate_count() as f64;

        let mut instances = Vec::with_capacity(netlist.gate_count());
        let mut row = 0usize;
        let mut x: Coord = 0;
        let mut max_x: Coord = 0;
        for &gid in netlist.topological_order() {
            let g = netlist.gate(gid);
            let cell = library.cell(g.kind, g.drive);
            if x + cell.width() > row_width && x > 0 {
                row += 1;
                x = 0;
            }
            if mean_gap > 0.0 {
                // Random filler gap in whole poly pitches, 0..2×mean.
                let gap: f64 = rng.random_range(0.0..2.0 * mean_gap);
                x += (gap / tech.poly_pitch as f64).round() as Coord * tech.poly_pitch;
            }
            let y = row as Coord * tech.cell_height;
            // Alternate rows are flipped about x so power rails abut.
            let transform = if row.is_multiple_of(2) {
                Transform::new(Orient::R0, Vector::new(x, y))
            } else {
                Transform::new(Orient::MX, Vector::new(x, y + tech.cell_height))
            };
            instances.push(PlacedGate {
                gate: gid,
                transform,
                row,
            });
            x += cell.width();
            max_x = max_x.max(x);
        }
        let die = Rect::new(0, 0, max_x, (row as Coord + 1) * tech.cell_height)?;
        let mut position = vec![u32::MAX; netlist.gate_count()];
        for (i, inst) in instances.iter().enumerate() {
            position[inst.gate.0 as usize] = i as u32;
        }
        Ok(Placement {
            instances,
            position,
            die,
            rows: row + 1,
        })
    }

    /// All placed instances, in placement order.
    pub fn instances(&self) -> &[PlacedGate] {
        &self.instances
    }

    /// The placed instance for a netlist gate (`None` for an id the
    /// netlist does not have).
    pub fn instance(&self, gate: GateId) -> Option<&PlacedGate> {
        let position = *self.position.get(gate.0 as usize)?;
        self.instances.get(position as usize)
    }

    /// The die bounding box.
    pub fn die(&self) -> Rect {
        self.die
    }

    /// Number of cell rows.
    pub fn rows(&self) -> usize {
        self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use crate::tech::TechRules;

    fn placed(gates: usize) -> (Netlist, CellLibrary, Placement) {
        let nl = generate::random_logic(&generate::RandomLogicSpec {
            gates,
            ..Default::default()
        })
        .expect("netlist");
        let lib = CellLibrary::new(TechRules::n90()).expect("library");
        let p = Placement::place(&nl, &lib).expect("placement");
        (nl, lib, p)
    }

    #[test]
    fn every_gate_is_placed_once() {
        let (nl, _, p) = placed(150);
        assert_eq!(p.instances().len(), nl.gate_count());
        let mut seen = vec![false; nl.gate_count()];
        for inst in p.instances() {
            assert!(!seen[inst.gate.0 as usize], "duplicate placement");
            seen[inst.gate.0 as usize] = true;
        }
        assert!(seen.into_iter().all(|s| s));
        // The by-id lookup finds each gate's own instance; an id past the
        // last gate has none.
        for inst in p.instances() {
            assert_eq!(p.instance(inst.gate), Some(inst));
        }
        assert_eq!(p.instance(GateId(nl.gate_count() as u32)), None);
    }

    #[test]
    fn no_overlaps_within_rows() {
        let (nl, lib, p) = placed(200);
        let boxes: Vec<Rect> = p
            .instances()
            .iter()
            .map(|inst| {
                let cell = lib.cell(nl.gate(inst.gate).kind, nl.gate(inst.gate).drive);
                inst.transform.apply_rect(cell.bbox())
            })
            .collect();
        for i in 0..boxes.len() {
            for j in (i + 1)..boxes.len() {
                assert!(
                    !boxes[i].intersects(&boxes[j]),
                    "instances {i} and {j} overlap"
                );
            }
        }
    }

    #[test]
    fn all_instances_inside_die() {
        let (nl, lib, p) = placed(120);
        for inst in p.instances() {
            let cell = lib.cell(nl.gate(inst.gate).kind, nl.gate(inst.gate).drive);
            let bb = inst.transform.apply_rect(cell.bbox());
            assert!(p.die().contains_rect(&bb));
        }
    }

    #[test]
    fn die_is_roughly_square() {
        let (_, _, p) = placed(400);
        let aspect = p.die().width() as f64 / p.die().height() as f64;
        assert!((0.2..5.0).contains(&aspect), "aspect = {aspect}");
        assert!(p.rows() > 1);
    }

    #[test]
    fn odd_rows_are_mirrored() {
        let (_, _, p) = placed(300);
        let mirrored = p
            .instances()
            .iter()
            .filter(|i| i.row % 2 == 1)
            .all(|i| i.transform.orient == Orient::MX);
        assert!(mirrored);
    }
}
