//! # postopc-device
//!
//! Compact device models for litho-aware timing: the electrical layer that
//! turns *printed critical dimensions* into currents, capacitances and
//! delays.
//!
//! The crate substitutes foundry BSIM decks (unavailable; see `DESIGN.md`)
//! with an alpha-power-law MOSFET model whose CD sensitivities match
//! silicon qualitatively:
//!
//! - [`Mosfet`]: drive current, subthreshold leakage (exponential in V_th),
//!   gate/junction capacitance, effective switching resistance;
//! - [`ProcessParams`]: 90 nm-class technology constants with documented
//!   calibration targets;
//! - [`SlicedGate`]: non-rectangular printed gates reduced to equivalent
//!   rectangular transistors — one length for delay, another for leakage —
//!   following the companion paper "From poly line to transistor" (#44);
//! - [`Wire`]: interconnect RC with printed-width perturbation and Elmore
//!   delay, supporting the paper's multi-layer extraction extension.
//!
//! Units are chosen so arithmetic is unit-safe by construction:
//! volts, nm, µA, fF, kΩ and ps, with kΩ·fF = ps.
//!
//! # Example
//!
//! ```
//! use postopc_device::{Mosfet, MosKind, ProcessParams};
//! # fn main() -> Result<(), postopc_device::DeviceError> {
//! let p = ProcessParams::n90();
//! let drawn = Mosfet::new(MosKind::Nmos, 1000.0, 90.0)?;
//! let printed = Mosfet::new(MosKind::Nmos, 1000.0, 86.5)?; // post-OPC extracted CD
//! let delay_shift = drawn.r_eff(&p) / printed.r_eff(&p) - 1.0;
//! assert!(delay_shift > 0.0); // shorter channel drives harder
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod error;
mod mosfet;
mod params;
mod rc;
mod slices;

pub use error::{DeviceError, Result};
pub use mosfet::Mosfet;
pub use params::{MosKind, ProcessParams};
pub use rc::{Wire, WireLayerParams};
pub use slices::{EquivalentGate, GateSlice, SlicedGate};
