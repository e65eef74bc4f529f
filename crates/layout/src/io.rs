//! Layout stream output: a minimal line-oriented text interchange format.
//!
//! Real flows exchange GDSII/OASIS; this workspace dumps flattened
//! geometry as a transparent text equivalent that can be diffed — one
//! shape per line:
//!
//! ```text
//! postopc-layout v1
//! poly 0,0 90,0 90,600 0,600
//! metal1 0,0 120,0 120,5000 0,5000
//! ```
//!
//! Vertices are `x,y` integer nm pairs in the polygon's vertex order.

use crate::error::{LayoutError, Result};
use crate::layer::Layer;
use postopc_geom::Polygon;
use std::io::Write;

/// The format header line.
const HEADER: &str = "postopc-layout v1";

/// Writes `(layer, polygon)` records to `writer` in the text format.
///
/// A `mut` reference can be passed for `writer` (e.g. `&mut Vec<u8>` or
/// `&mut File`).
///
/// # Errors
///
/// Returns [`LayoutError::Io`] on write failure.
pub fn write_shapes<'a, W, I>(mut writer: W, shapes: I) -> Result<()>
where
    W: Write,
    I: IntoIterator<Item = (Layer, &'a Polygon)>,
{
    writeln!(writer, "{HEADER}").map_err(io_err)?;
    for (layer, polygon) in shapes {
        write!(writer, "{layer}").map_err(io_err)?;
        for v in polygon.vertices() {
            write!(writer, " {},{}", v.x, v.y).map_err(io_err)?;
        }
        writeln!(writer).map_err(io_err)?;
    }
    Ok(())
}

fn io_err(e: std::io::Error) -> LayoutError {
    LayoutError::Io(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use postopc_geom::Rect;

    #[test]
    fn writes_header_then_one_line_per_shape() {
        let gate = Polygon::from(Rect::new(0, 0, 90, 600).expect("rect"));
        let wire = Polygon::from(Rect::new(0, 0, 120, 5000).expect("rect"));
        let mut buffer = Vec::new();
        write_shapes(&mut buffer, [(Layer::Poly, &gate), (Layer::Metal1, &wire)]).expect("write");
        assert_eq!(
            String::from_utf8(buffer).expect("utf-8"),
            "postopc-layout v1\n\
             poly 0,0 90,0 90,600 0,600\n\
             metal1 0,0 120,0 120,5000 0,5000\n"
        );
    }
}
