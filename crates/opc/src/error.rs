//! Error types for OPC processing.

use std::error::Error;
use std::fmt;

/// Errors produced by fragmentation, correction and verification.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum OpcError {
    /// Underlying geometry failure.
    Geometry(postopc_geom::GeomError),
    /// Underlying lithography failure.
    Litho(postopc_litho::LithoError),
    /// A fragmentation parameter was out of range.
    InvalidFragmentSpec {
        /// Which parameter.
        name: &'static str,
        /// The rejected value in nm.
        value: i64,
    },
    /// An EPE search range was not finite and positive.
    InvalidEpeSearch {
        /// The rejected range in nm.
        value: f64,
    },
    /// A model-OPC move cap was negative.
    InvalidMaxMove {
        /// The rejected cap in nm.
        value: i64,
    },
    /// A model-OPC feedback gain was not finite.
    InvalidGain {
        /// The rejected gain.
        value: f64,
    },
    /// Edge correction produced a degenerate polygon that could not be
    /// recovered by clamping.
    DegenerateCorrection {
        /// Index of the polygon in the job.
        polygon: usize,
    },
}

impl fmt::Display for OpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpcError::Geometry(e) => write!(f, "geometry error: {e}"),
            OpcError::Litho(e) => write!(f, "lithography error: {e}"),
            OpcError::InvalidFragmentSpec { name, value } => {
                write!(f, "invalid fragmentation parameter {name} = {value} nm")
            }
            OpcError::InvalidEpeSearch { value } => {
                write!(
                    f,
                    "EPE search range must be finite and positive, got {value} nm"
                )
            }
            OpcError::InvalidMaxMove { value } => {
                write!(f, "model-OPC move cap must not be negative, got {value} nm")
            }
            OpcError::InvalidGain { value } => {
                write!(f, "model-OPC gain must be finite, got {value}")
            }
            OpcError::DegenerateCorrection { polygon } => {
                write!(f, "correction degenerated polygon {polygon}")
            }
        }
    }
}

impl Error for OpcError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            OpcError::Geometry(e) => Some(e),
            OpcError::Litho(e) => Some(e),
            _ => None,
        }
    }
}

impl From<postopc_geom::GeomError> for OpcError {
    fn from(e: postopc_geom::GeomError) -> Self {
        OpcError::Geometry(e)
    }
}

impl From<postopc_litho::LithoError> for OpcError {
    fn from(e: postopc_litho::LithoError) -> Self {
        OpcError::Litho(e)
    }
}

/// Convenience result alias for the OPC crate.
pub type Result<T> = std::result::Result<T, OpcError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = OpcError::InvalidFragmentSpec {
            name: "max_len",
            value: -10,
        };
        assert!(e.to_string().contains("max_len"));
        let g = OpcError::from(postopc_geom::GeomError::InvalidResolution(0.0));
        assert!(g.source().is_some());
    }
}
