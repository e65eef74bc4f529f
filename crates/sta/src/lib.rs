//! # postopc-sta
//!
//! Static timing analysis for the post-OPC flow: a full arrival/required/
//! slack engine over compiled designs, with the back-annotation interface
//! the paper's methodology revolves around.
//!
//! - [`TimingLibrary`]: cell electrical characterization from the
//!   alpha-power device model (the Liberty/NLDM stand-in);
//! - [`TimingModel`] / [`TimingReport`]: arrival and required propagation,
//!   endpoint slacks, and speed-path extraction (worst path per endpoint);
//! - [`CdAnnotation`]: extracted per-gate channel lengths and per-net
//!   printed wire widths, consumed in place of drawn dimensions;
//! - [`CompiledSta`]: the compiled sample evaluator
//!   ([`TimingModel::compile`]) — annotation-invariant structure computed
//!   once, per-sample evaluation against reusable [`StaScratch`] buffers,
//!   bit-identical to [`TimingModel::analyze`];
//! - [`corners`]: traditional uniform worst-case CD corners;
//! - [`statistical`]: Monte Carlo timing over CD distributions.
//!
//! # Example
//!
//! ```
//! use postopc_sta::TimingModel;
//! use postopc_layout::{Design, generate, TechRules};
//! use postopc_device::ProcessParams;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = Design::compile(generate::ripple_carry_adder(4)?, TechRules::n90())?;
//! let model = TimingModel::new(&design, ProcessParams::n90(), 600.0)?;
//! let report = model.analyze(None)?;
//! for path in report.top_paths(&design, 3) {
//!     println!("endpoint slack {:.1} ps over {} gates", path.slack_ps, path.gates.len());
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod annotate;
mod compiled;
pub mod corners;
mod error;
mod graph;
mod liberty;
pub mod paths;
pub mod quantile;
pub mod statistical;

pub use annotate::{CdAnnotation, GateAnnotation, NetAnnotation, TransistorCd};
pub use compiled::{CompiledSta, StaScratch, LANES};
pub use corners::{
    analyze_corner, analyze_corners, analyze_corners_with, corner_annotation, Corner,
};
pub use error::{Result, StaError};
pub use graph::{TimingModel, TimingPath, TimingReport};
pub use liberty::{
    CellTiming, NldmTable, SequentialTiming, TimingLibrary, CLOCK_SLEW_PS, NLDM_LOAD_PTS,
    NLDM_SLEW_AXIS_PS, NLDM_SLEW_PTS, PRIMARY_INPUT_SLEW_PS,
};
pub use paths::k_worst_paths;
pub use statistical::{
    ConvergencePoint, MonteCarloConfig, MonteCarloResult, Sampling, ShiftCacheStats,
};
