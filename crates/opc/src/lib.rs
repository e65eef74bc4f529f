//! # postopc-opc
//!
//! Optical proximity correction for the post-OPC timing flow:
//!
//! - [`fragment`]: edge fragmentation with corner/line-end classification;
//! - [`rules`]: table-driven rule OPC (bias tables, hammerheads) — the
//!   cheap path;
//! - [`model`]: iterative model-based OPC with damped EPE feedback — the
//!   accurate path;
//! - [`orc`]: post-OPC verification (residual EPE statistics, pinch
//!   hotspots) — the source of experiment T1's distributions;
//! - [`selective`]: the paper's selective-OPC proposal — model OPC on
//!   tagged critical gates, rule OPC elsewhere.
//!
//! # Example
//!
//! ```
//! use postopc_opc::model::{self, ModelOpcConfig};
//! use postopc_geom::{Polygon, Rect};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let gate = Polygon::from(Rect::new(-45, -300, 45, 300)?);
//! let window = Rect::new(-300, -400, 300, 400)?;
//! let result = model::correct(&ModelOpcConfig::standard(), &[gate], &[], window)?;
//! assert_eq!(result.corrected.len(), 1);
//! println!("converged to max EPE {:.1} nm", result.report.max_epe_history.last().unwrap());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod error;
pub mod fragment;
pub mod hotspots;
pub mod model;
pub mod orc;
pub mod rules;
pub mod selective;

pub use error::{OpcError, Result};
pub use fragment::{FragmentInfo, FragmentKind, FragmentSpec, FragmentedPolygon};
pub use hotspots::{cluster_hotspots, HotspotCluster, HotspotConfig, HotspotSnippet};
pub use model::{ModelOpcConfig, ModelOpcResult, OpcReport};
pub use orc::{Hotspot, HotspotKind, OrcConfig, OrcReport};
pub use rules::{RuleOpcConfig, RuleOpcResult};
pub use selective::SelectiveResult;
