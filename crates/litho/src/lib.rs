//! # postopc-litho
//!
//! Lithography simulation for the post-OPC timing flow: a SOCS-style
//! aerial-image model with genuine proximity phenomenology (iso-dense bias,
//! line-end pullback, corner rounding, through-focus/dose CD walk), a
//! constant-threshold resist and cutline metrology.
//!
//! This crate substitutes the paper's calibrated commercial OPC/litho
//! models (see `DESIGN.md`): the imaging operator is a weighted stack of
//! analytic center-surround kernels rather than eigenfunctions of a
//! measured system, but it exposes the same interfaces the flow consumes —
//! intensity fields, EPE and CD measurements.
//!
//! # Example
//!
//! ```
//! use postopc_litho::{AerialImage, ResistModel, SimulationSpec, cutline};
//! use postopc_geom::{Polygon, Rect};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let gate = Polygon::from(Rect::new(-45, -600, 45, 600)?);
//! let window = Rect::new(-300, -300, 300, 300)?;
//! let image = AerialImage::simulate(&SimulationSpec::nominal(), &[gate], window)?;
//! let cd = cutline::measure_cd(&image, &ResistModel::standard(), (0.0, 0.0), (1.0, 0.0), 150.0)?;
//! println!("printed CD = {cd:.1} nm (drawn 90)");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod cutline;
mod error;
mod image;
mod kernels;
mod optics;
mod resist;
mod workspace;

pub use error::{LithoError, Result};
pub use image::{AerialImage, KernelMode, SimulationSpec};
pub use kernels::{ImagingKernel, KernelStack};
pub use optics::{OpticsParams, ProcessConditions};
pub use resist::ResistModel;
