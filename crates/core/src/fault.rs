//! Fault taxonomy, quarantine policy and the deterministic fault injector.
//!
//! At full-chip scale a single degenerate gate — a non-finite measured CD,
//! a window that collapses under a bad bias, a panic inside a worker —
//! must not abort a multi-minute extraction. This module defines *what*
//! the engine does when a per-gate fault occurs ([`FaultPolicy`]), *where*
//! in the pipeline it happened ([`FaultStage`]), and a seeded, in-tree
//! fault injector ([`FaultInjection`]) that exercises all of it
//! deterministically from CI.
//!
//! Injection decisions are keyed off `split_seed(seed, gate_id)`, so
//! whether a given gate faults depends only on the seed and the gate id —
//! never on thread count, scheduling, or which other gates are tagged.
//! Quarantined runs therefore stay bit-identical across
//! `POSTOPC_THREADS=1,2,4`, which the quarantine integration tests
//! assert.

use postopc_layout::GateId;
use postopc_rng::{split_seed, RngExt, SeedableRng, StdRng};

/// What the extraction engine does when a per-gate fault (typed error or
/// worker panic) occurs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FaultPolicy {
    /// Abort the run on the first fault in `GateId` order, returning
    /// its typed error — a captured worker panic as
    /// [`crate::FlowError::WorkerPanic`]. The default; clean runs are
    /// bit-identical under either policy.
    #[default]
    Fail,
    /// Quarantine the offending gate — it keeps drawn dimensions, exactly
    /// like a measurement fallback — and keep going. The run still fails
    /// (with [`crate::FlowError::QuarantineExceeded`]) if the quarantined
    /// fraction of tagged gates exceeds `max_fraction`.
    Quarantine {
        /// Largest tolerated `quarantined / tagged` ratio, in `[0, 1]`.
        max_fraction: f64,
    },
}

/// Pipeline stage at which a gate was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultStage {
    /// Phase 1: context/window building (geometry gathering and
    /// canonicalisation).
    Context,
    /// Phase 2: the OPC → imaging → measurement pipeline of the gate's
    /// distinct litho context.
    Pipeline,
    /// Merge-time CD validation at the extraction → STA boundary.
    Boundary,
}

impl std::fmt::Display for FaultStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FaultStage::Context => "context",
            FaultStage::Pipeline => "pipeline",
            FaultStage::Boundary => "boundary",
        })
    }
}

/// One quarantined gate: where it failed and the rendered cause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedGate {
    /// The gate that was quarantined (it keeps drawn dimensions).
    pub gate: GateId,
    /// Pipeline stage at which the fault surfaced.
    pub stage: FaultStage,
    /// Human-readable cause: the typed error's display text, or
    /// `panic: <payload>` for a captured worker panic.
    pub cause: String,
}

/// The fault kinds the injector can plant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Overwrite the gate's merged delay CD with NaN — caught by the
    /// boundary guard at the extraction → STA seam.
    NanCd,
    /// Collapse the gate's simulation window to a degenerate rectangle —
    /// surfaces as a real geometry error in context building.
    DegenerateGeometry,
    /// Panic inside the phase-1 worker while building the gate's context.
    WorkerPanic,
}

/// Deterministic, seeded fault injection — validation plumbing for the
/// quarantine machinery. Disabled unless explicitly configured; a `None`
/// injector on [`crate::ExtractionConfig`] leaves the engine byte-for-byte
/// on its normal path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultInjection {
    /// Base seed; child seeds are split per gate id.
    pub seed: u64,
    /// Per-gate fault probability, in `[0, 1]`.
    pub rate: f64,
    /// Enable [`InjectedFault::NanCd`].
    pub nan_cd: bool,
    /// Enable [`InjectedFault::DegenerateGeometry`].
    pub degenerate_geometry: bool,
    /// Enable [`InjectedFault::WorkerPanic`].
    pub worker_panic: bool,
}

impl FaultInjection {
    /// All three fault kinds enabled at `rate`.
    #[must_use]
    pub fn all(seed: u64, rate: f64) -> FaultInjection {
        FaultInjection {
            seed,
            rate,
            nan_cd: true,
            degenerate_geometry: true,
            worker_panic: true,
        }
    }

    /// The fault injected for `gate`, if any.
    ///
    /// Keyed off `split_seed(seed, gate)`, so the decision depends only on
    /// the seed and the gate id — never on thread count or execution
    /// order. Tests replay this to predict the exact quarantine set.
    #[must_use]
    pub fn fault_for(&self, gate: GateId) -> Option<InjectedFault> {
        let kinds = [
            (self.nan_cd, InjectedFault::NanCd),
            (self.degenerate_geometry, InjectedFault::DegenerateGeometry),
            (self.worker_panic, InjectedFault::WorkerPanic),
        ];
        seeded_fault(split_seed(self.seed, u64::from(gate.0)), self.rate, &kinds)
    }

    /// Validates the injector's numeric fields.
    ///
    /// # Errors
    ///
    /// [`crate::FlowError::InvalidConfig`] when `rate` is non-finite or
    /// outside `[0, 1]`.
    pub fn validate(&self) -> crate::error::Result<()> {
        check_rate("fault injection", self.rate)
    }
}

/// The draw behind both fault injectors: with `StdRng` seeded from
/// `seed`, a fault fires when a uniform draw falls below `rate`, and a
/// second draw picks uniformly among the enabled `kinds`. No enabled kind
/// means no fault (and no draw).
pub(crate) fn seeded_fault<K: Copy>(seed: u64, rate: f64, kinds: &[(bool, K)]) -> Option<K> {
    let mut enabled = kinds.iter().filter(|(on, _)| *on).map(|&(_, kind)| kind);
    let n = enabled.clone().count();
    if n == 0 {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    if rng.random_range(0.0..1.0) >= rate {
        return None;
    }
    enabled.nth(rng.random_range(0..n))
}

/// The rate check both fault injectors share: `rate` must lie in
/// `[0, 1]` (which no NaN does).
pub(crate) fn check_rate(what: &str, rate: f64) -> crate::error::Result<()> {
    if !(0.0..=1.0).contains(&rate) {
        return Err(crate::FlowError::InvalidConfig(format!(
            "{what} rate must be in [0, 1], got {rate}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_decisions_depend_only_on_seed_and_gate() {
        let inj = FaultInjection::all(42, 0.3);
        let a: Vec<_> = (0..200).map(|i| inj.fault_for(GateId(i))).collect();
        let b: Vec<_> = (0..200).map(|i| inj.fault_for(GateId(i))).collect();
        assert_eq!(a, b, "replay must be exact");
        let hits = a.iter().flatten().count();
        assert!(hits > 20 && hits < 120, "rate ~0.3 of 200: got {hits}");
        // A different seed rearranges the fault set.
        let other = FaultInjection::all(43, 0.3);
        let c: Vec<_> = (0..200).map(|i| other.fault_for(GateId(i))).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn disabled_kinds_are_never_drawn() {
        let inj = FaultInjection {
            seed: 7,
            rate: 1.0,
            nan_cd: true,
            degenerate_geometry: false,
            worker_panic: false,
        };
        for i in 0..50 {
            assert_eq!(inj.fault_for(GateId(i)), Some(InjectedFault::NanCd));
        }
        let none = FaultInjection {
            nan_cd: false,
            ..inj
        };
        for i in 0..50 {
            assert_eq!(none.fault_for(GateId(i)), None);
        }
    }

    #[test]
    fn rate_validation() {
        assert!(FaultInjection::all(1, 0.0).validate().is_ok());
        assert!(FaultInjection::all(1, 1.0).validate().is_ok());
        assert!(FaultInjection::all(1, f64::NAN).validate().is_err());
        assert!(FaultInjection::all(1, 1.5).validate().is_err());
    }

    #[test]
    fn default_policy_is_fail() {
        assert_eq!(FaultPolicy::default(), FaultPolicy::Fail);
    }
}
