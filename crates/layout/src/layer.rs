//! Mask layers of the simplified 90 nm-class process stack.

use std::fmt;

/// A drawn mask layer.
///
/// The reproduction models the layers the DAC 2005 flow touches: poly (the
/// critical gate layer), active (to locate channels), contacts, and two
/// routing metals (for the multi-layer extraction extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    /// N-well (PMOS body region).
    Nwell,
    /// Diffusion / active area.
    Active,
    /// Polysilicon gate layer — the critical layer for timing.
    Poly,
    /// Contact cuts between active/poly and metal-1.
    Contact,
    /// First routing metal.
    Metal1,
    /// Via cuts between metal-1 and metal-2.
    Via1,
    /// Second routing metal.
    Metal2,
}

impl Layer {
    /// All layers, in process order.
    pub const ALL: [Layer; 7] = [
        Layer::Nwell,
        Layer::Active,
        Layer::Poly,
        Layer::Contact,
        Layer::Metal1,
        Layer::Via1,
        Layer::Metal2,
    ];
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Layer::Nwell => "nwell",
            Layer::Active => "active",
            Layer::Poly => "poly",
            Layer::Contact => "contact",
            Layer::Metal1 => "metal1",
            Layer::Via1 => "via1",
            Layer::Metal2 => "metal2",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_layers_distinct() {
        let set: std::collections::HashSet<Layer> = Layer::ALL.into_iter().collect();
        assert_eq!(set.len(), Layer::ALL.len());
    }

    #[test]
    fn display_names() {
        assert_eq!(Layer::Poly.to_string(), "poly");
        assert_eq!(Layer::Metal2.to_string(), "metal2");
    }
}
