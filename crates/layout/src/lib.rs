//! # postopc-layout
//!
//! Layout database, standard-cell library, netlist, placement and routing —
//! the substrate that stands in for the paper's production placed-and-routed
//! full-chip layout (see `DESIGN.md` for the substitution argument).
//!
//! Pipeline:
//!
//! 1. build or generate a [`Netlist`] ([`generate`] has adders, multipliers,
//!    random logic and the composite [`generate::paper_testcase`]);
//! 2. [`Design::compile`] places it in standard-cell rows, routes every net
//!    with metal-1/metal-2 L-routes, flattens all polygons to chip
//!    coordinates, and extracts the [`TransistorSite`] cross-reference that
//!    ties each netlist gate to its channel geometry — the correspondence
//!    the paper's "selective extraction" and "back-annotation" steps need.
//!
//! # Example
//!
//! ```
//! use postopc_layout::{Design, generate, TechRules, Layer};
//! # fn main() -> Result<(), postopc_layout::LayoutError> {
//! let netlist = generate::ripple_carry_adder(4)?;
//! let design = Design::compile(netlist, TechRules::n90())?;
//! println!(
//!     "die {} x {} nm, {} poly shapes",
//!     design.die().width(),
//!     design.die().height(),
//!     design.shapes_on(Layer::Poly).len()
//! );
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod design;
pub mod drc;
mod error;
pub mod generate;
pub mod io;
mod layer;
mod library;
mod netlist;
mod place;
mod route;
mod stdcells;
mod tech;
mod xref;

pub use design::Design;
pub use error::{LayoutError, Result};
pub use layer::Layer;
pub use library::CellLibrary;
pub use netlist::{Gate, GateId, GateKind, Net, NetId, Netlist, NetlistBuilder};
pub use place::{PlacedGate, Placement, PlacementOptions};
pub use route::{NetRoute, RouteSegment, Routing};
pub use stdcells::{CellLayout, CellTransistor};
pub use tech::{Drive, TechRules};
pub use xref::{transistor_sites, TransistorSite};
