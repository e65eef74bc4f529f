//! Error types for layout and netlist construction.

use std::error::Error;
use std::fmt;

/// Errors produced by netlist validation, placement and routing.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LayoutError {
    /// A net has no driver or more than one driver.
    DriverConflict {
        /// Net name.
        net: String,
        /// Number of drivers found.
        drivers: usize,
    },
    /// A gate has the wrong number of input connections for its kind.
    ArityMismatch {
        /// Gate name.
        gate: String,
        /// Expected input count.
        expected: usize,
        /// Actual input count.
        actual: usize,
    },
    /// The combinational portion of the netlist contains a cycle.
    CombinationalLoop {
        /// A gate on the cycle.
        gate: String,
    },
    /// A referenced id does not exist.
    UnknownId {
        /// What kind of id (`"net"`, `"gate"`, `"cell"`).
        kind: &'static str,
        /// The offending index.
        index: usize,
    },
    /// The design is empty (nothing to place).
    EmptyDesign,
    /// Geometry construction failed while generating cell layouts.
    Geometry(postopc_geom::GeomError),
    /// Stream I/O failed while writing a layout.
    Io(String),
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::DriverConflict { net, drivers } => {
                write!(f, "net {net} has {drivers} drivers, expected exactly 1")
            }
            LayoutError::ArityMismatch {
                gate,
                expected,
                actual,
            } => write!(f, "gate {gate} expects {expected} inputs, got {actual}"),
            LayoutError::CombinationalLoop { gate } => {
                write!(f, "combinational loop through gate {gate}")
            }
            LayoutError::UnknownId { kind, index } => {
                write!(f, "unknown {kind} id {index}")
            }
            LayoutError::EmptyDesign => write!(f, "design contains no gates"),
            LayoutError::Geometry(e) => write!(f, "geometry error: {e}"),
            LayoutError::Io(reason) => write!(f, "layout stream i/o failed: {reason}"),
        }
    }
}

impl Error for LayoutError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LayoutError::Geometry(e) => Some(e),
            _ => None,
        }
    }
}

impl From<postopc_geom::GeomError> for LayoutError {
    fn from(e: postopc_geom::GeomError) -> Self {
        LayoutError::Geometry(e)
    }
}

/// Convenience result alias for the layout crate.
pub type Result<T> = std::result::Result<T, LayoutError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = LayoutError::DriverConflict {
            net: "n42".into(),
            drivers: 2,
        };
        assert!(e.to_string().contains("n42"));
        let g = LayoutError::Geometry(postopc_geom::GeomError::InvalidResolution(0.0));
        assert!(g.source().is_some());
    }
}
