//! # postopc
//!
//! Litho-aware timing analysis based on post-OPC extraction of critical
//! dimensions — a from-scratch Rust reproduction of the DAC 2005 paper by
//! Yang, Capodieci and Sylvester (see `DESIGN.md` at the workspace root
//! for the full experiment map and substitution notes).
//!
//! The flow ([`run_flow`]):
//!
//! 1. drawn-CD static timing over a placed-and-routed design;
//! 2. tagging of critical gates on the top speed paths ([`TagSet`]);
//! 3. selective extraction: per-gate OPC (rule or model), aerial-image
//!    simulation, printed-channel slicing and equivalent-length reduction
//!    ([`extract_gates`]);
//! 4. optional multi-layer wire-width extraction ([`extract_wires`]);
//! 5. back-annotated timing and comparison — speed-path criticality
//!    reordering and worst-slack deviation ([`TimingComparison`]).
//!
//! # Example
//!
//! ```no_run
//! use postopc::{run_flow, FlowConfig, Selection};
//! use postopc_layout::{Design, generate, TechRules};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = Design::compile(generate::ripple_carry_adder(8)?, TechRules::n90())?;
//! let mut config = FlowConfig::standard(800.0);
//! config.selection = Selection::Critical { paths: 10 };
//! let report = run_flow(&design, &config)?;
//! println!(
//!     "tagged {} gates; worst slack {:.1} -> {:.1} ps (tau {:.2})",
//!     report.tags.len(),
//!     report.comparison.drawn.worst_slack_ps(),
//!     report.comparison.annotated.worst_slack_ps(),
//!     report.comparison.kendall_tau(),
//! );
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod artifact;
mod codec;
mod compare;
pub mod durable;
mod error;
mod extract;
mod fault;
mod flow;
pub mod guardband;
mod multilayer;
pub mod report;
mod session;
mod surrogate;
mod tags;

pub use artifact::{content_hash, WarmArtifact, ARTIFACT_MAGIC, ARTIFACT_VERSION};
pub use compare::TimingComparison;
pub use durable::{
    retry_transient, ArtifactIo, ArtifactLock, InjectedIoFault, IoFaultInjection, RetryPolicy,
};
pub use error::{ArtifactError, ArtifactErrorKind, ArtifactOp, FlowError, Result};
pub use extract::{
    extract_gates, extract_gates_with_store, AcrossChipMap, ContextStore, ExtractionConfig,
    ExtractionOutcome, ExtractionStats, OpcMode,
};
pub use fault::{FaultInjection, FaultPolicy, FaultStage, InjectedFault, QuarantinedGate};
pub use flow::{
    margin_clock, run_flow, serve, serve_with, ColdReason, FlowConfig, FlowReport, PersistStatus,
    Selection, ServeOptions, ServeReport,
};
pub use multilayer::{extract_wires, WireExtractionConfig, WireExtractionStats};
pub use session::{
    BudgetedOutcome, EcoOutcome, QueryOutcome, SampleBudget, SessionQuery, TimingSession,
};
pub use surrogate::{SurrogateConfig, SurrogateModel, SURROGATE_FEATURE_DIM, SURROGATE_TARGETS};
pub use tags::TagSet;
