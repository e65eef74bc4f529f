//! # postopc-geom
//!
//! Integer-nanometer rectilinear geometry kernel for the `postopc`
//! workspace — the layout substrate underneath lithography simulation, OPC,
//! critical-dimension extraction and litho-aware timing.
//!
//! All coordinates are `i64` database units with **1 DBU = 1 nm**. The crate
//! provides:
//!
//! - [`Point`] / [`Vector`] / [`Rect`]: primitive layout geometry;
//! - [`Polygon`]: validated rectilinear polygons with CCW winding,
//!   rectangle decomposition, pseudo-vertex insertion ([`Polygon::with_cuts`])
//!   and independent per-edge normal displacement
//!   ([`Polygon::with_edge_offsets`]) — the primitive OPC edge movement is
//!   built on;
//! - [`Edge`]: directed axis-parallel edges with outward normals;
//! - [`Grid`]: scalar-field rasterization with area-exact coverage,
//!   separable convolution and bilinear sampling (mask transmission and
//!   aerial-image fields);
//! - [`RowClasses`] / [`RowField`]: the same coverage held one row per
//!   run of identical rows, and one kernel's row pass over it (one pass
//!   per distinct row, reusing the passes of the rasterization before),
//!   for an image whose column pass runs on demand;
//! - [`GridIndex`]: a uniform-bucket spatial index for full-chip queries;
//! - [`Transform`] / [`Orient`]: the eight Manhattan placement orientations.
//!
//! # Example
//!
//! ```
//! use postopc_geom::{Polygon, Rect, Grid};
//! # fn main() -> Result<(), postopc_geom::GeomError> {
//! // A 90 nm drawn poly line, rasterized at 5 nm/pixel.
//! let line = Polygon::from(Rect::new(0, 0, 90, 600)?);
//! let mut mask = Grid::new(line.bbox(), 200, 5.0)?;
//! mask.add_polygon(&line, 1.0);
//! assert!((mask.total() * 25.0 - line.area() as f64).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod edge;
mod error;
mod index;
mod point;
mod polygon;
mod raster;
mod rect;
mod transform;

pub use edge::{Edge, Orientation};
pub use error::{GeomError, Result};
pub use index::GridIndex;
pub use point::{Coord, Point, Vector};
pub use polygon::{Polygon, RectScratch};
pub use raster::{Grid, Lattice, PixelRect, RowClasses, RowField, RowPasses};
pub use rect::Rect;
pub use transform::{Orient, Transform};
