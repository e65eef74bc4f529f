//! Technology rules of the simplified 90 nm-class process.

use postopc_geom::Coord;

/// Geometric design rules and standard-cell template dimensions, in nm.
///
/// These numbers define the generated layouts; they are chosen to match a
/// 90 nm logic process (drawn gate length 90 nm, contacted poly pitch
/// 280 nm, M1 half-pitch 120 nm) so that the lithography simulator operates
/// at the k₁ ≈ 0.35 regime the paper targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TechRules {
    /// Drawn transistor gate length (poly width over active).
    pub gate_length: Coord,
    /// Poly line width outside the channel (field poly).
    pub poly_width: Coord,
    /// Contacted poly pitch (gate-to-gate spacing within a cell).
    pub poly_pitch: Coord,
    /// Poly endcap extension past active.
    pub poly_endcap: Coord,
    /// Contact cut size (square).
    pub contact_size: Coord,
    /// Minimum metal-1 width.
    pub m1_width: Coord,
    /// Minimum metal-1 spacing.
    pub m1_space: Coord,
    /// Metal-2 width.
    pub m2_width: Coord,
    /// Routing track pitch for both metals.
    pub track_pitch: Coord,
    /// Standard-cell height (a multiple of the track pitch).
    pub cell_height: Coord,
    /// NMOS active width for a 1× cell.
    pub nmos_width_x1: Coord,
    /// PMOS active width for a 1× cell.
    pub pmos_width_x1: Coord,
    /// Gap between NMOS and PMOS active regions.
    pub active_gap: Coord,
    /// Margin from the active region to the cell boundary.
    pub active_margin: Coord,
}

impl TechRules {
    /// The 90 nm-class rule set used throughout the reproduction.
    pub fn n90() -> TechRules {
        TechRules {
            gate_length: 90,
            poly_width: 90,
            poly_pitch: 280,
            poly_endcap: 130,
            contact_size: 120,
            m1_width: 120,
            m1_space: 120,
            m2_width: 140,
            track_pitch: 240,
            cell_height: 2640, // 11 tracks
            nmos_width_x1: 420,
            pmos_width_x1: 640,
            active_gap: 460,
            active_margin: 280,
        }
    }

    /// NMOS width for a given drive strength multiplier.
    pub fn nmos_width(&self, drive: Drive) -> Coord {
        self.nmos_width_x1 * drive.factor()
    }
}

impl Default for TechRules {
    fn default() -> Self {
        TechRules::n90()
    }
}

/// Standard-cell drive strength.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Drive {
    /// Unit drive.
    #[default]
    X1,
    /// Double drive.
    X2,
    /// Quadruple drive.
    X4,
}

impl Drive {
    /// All drive strengths, weakest first.
    pub const ALL: [Drive; 3] = [Drive::X1, Drive::X2, Drive::X4];

    /// Width multiplier relative to the 1× cell.
    pub fn factor(self) -> Coord {
        match self {
            Drive::X1 => 1,
            Drive::X2 => 2,
            Drive::X4 => 4,
        }
    }
}

impl std::fmt::Display for Drive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Drive::X1 => f.write_str("X1"),
            Drive::X2 => f.write_str("X2"),
            Drive::X4 => f.write_str("X4"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n90_dimensions_are_consistent() {
        let t = TechRules::n90();
        assert_eq!(t.gate_length, 90);
        assert!(t.poly_pitch > t.poly_width + t.contact_size);
        assert_eq!(t.cell_height % t.track_pitch, 0);
        // The actives, gap, and margins must fit inside the cell height.
        assert!(
            t.nmos_width_x1 + t.pmos_width_x1 + t.active_gap + 2 * t.active_margin <= t.cell_height
        );
    }

    #[test]
    fn drive_factors() {
        let t = TechRules::n90();
        assert_eq!(t.nmos_width(Drive::X2), 2 * t.nmos_width_x1);
        assert_eq!(Drive::X1.to_string(), "X1");
    }
}
