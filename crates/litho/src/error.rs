//! Error types for lithography simulation.

use std::error::Error;
use std::fmt;

/// Errors produced by the imaging and measurement pipeline.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LithoError {
    /// Underlying geometry failure (invalid window, resolution, ...).
    Geometry(postopc_geom::GeomError),
    /// Optical parameters out of physical range.
    InvalidOptics {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// An edge-position search found no threshold crossing in range.
    NoContourCrossing {
        /// Search start x in nm.
        x_nm: f64,
        /// Search start y in nm.
        y_nm: f64,
    },
    /// An edge-position search was asked to march a negative or
    /// non-finite distance.
    InvalidSearchDistance {
        /// The rejected distance in nm.
        max_dist_nm: f64,
    },
    /// An edge-position search was given a start point or direction
    /// with a NaN or infinite coordinate.
    NonFiniteRay {
        /// The search start `(x, y)` in nm.
        start: (f64, f64),
        /// The search direction `(dx, dy)`.
        direction: (f64, f64),
    },
}

impl fmt::Display for LithoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LithoError::Geometry(e) => write!(f, "geometry error: {e}"),
            LithoError::InvalidOptics { name, value } => {
                write!(f, "invalid optical parameter {name} = {value}")
            }
            LithoError::NoContourCrossing { x_nm, y_nm } => {
                write!(f, "no printed contour crossing near ({x_nm}, {y_nm})")
            }
            LithoError::InvalidSearchDistance { max_dist_nm } => write!(
                f,
                "edge search distance must be finite and non-negative, got {max_dist_nm} nm"
            ),
            LithoError::NonFiniteRay { start, direction } => write!(
                f,
                "edge search ray must be finite, got start {start:?} nm and direction \
                 {direction:?}"
            ),
        }
    }
}

impl Error for LithoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LithoError::Geometry(e) => Some(e),
            _ => None,
        }
    }
}

impl From<postopc_geom::GeomError> for LithoError {
    fn from(e: postopc_geom::GeomError) -> Self {
        LithoError::Geometry(e)
    }
}

/// Convenience result alias for the litho crate.
pub type Result<T> = std::result::Result<T, LithoError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = LithoError::InvalidOptics {
            name: "NA",
            value: 2.0,
        };
        assert!(e.to_string().contains("NA"));
        assert!(e.source().is_none());
        let g = LithoError::from(postopc_geom::GeomError::InvalidResolution(0.0));
        assert!(g.source().is_some());
    }
}
