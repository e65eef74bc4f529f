//! Error type of the integrated post-OPC timing flow.

use postopc_parallel::FaultCause;
use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};

/// The artifact I/O operation that failed — carried by
/// [`ArtifactErrorKind::Io`] so a recovery ladder can tell a torn write
/// from a failed fsync from a rename that never landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactOp {
    /// Reading artifact bytes from disk.
    Read,
    /// Writing the temporary file of an atomic save.
    Write,
    /// Flushing the file (or its parent directory) to stable storage.
    Fsync,
    /// Renaming the temporary file into place.
    Rename,
    /// Creating or inspecting the sidecar advisory lock.
    Lock,
}

impl fmt::Display for ArtifactOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArtifactOp::Read => "read",
            ArtifactOp::Write => "write",
            ArtifactOp::Fsync => "fsync",
            ArtifactOp::Rename => "rename",
            ArtifactOp::Lock => "lock",
        })
    }
}

/// Why a persisted artifact could not be used. The kinds mirror the
/// recovery ladder in [`crate::serve`]: torn/partial bytes, a format from
/// another era, a stale invalidation key, an I/O failure (possibly
/// transient and retryable), or another live serve holding the lock.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ArtifactErrorKind {
    /// Torn or malformed bytes: bad magic, checksum mismatch,
    /// truncation, or a corrupt field. The artifact must be rebuilt.
    Corrupt,
    /// The artifact was written by a different format version.
    Version {
        /// Version stored in the artifact header.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// The artifact parses but was built from different inputs (its
    /// content hash does not match the consumer's).
    StaleHash {
        /// Hash stored in the artifact.
        stored: u64,
        /// Hash of the consumer's current inputs.
        expected: u64,
    },
    /// An I/O operation failed. `transient` marks the `EINTR`-style
    /// class that [`crate::durable::retry_transient`] may retry.
    Io {
        /// The operation that failed.
        op: ArtifactOp,
        /// Whether a bounded retry is worthwhile.
        transient: bool,
    },
    /// Another live process holds the sidecar advisory lock.
    Locked {
        /// Pid recorded in the lock file.
        owner_pid: u32,
    },
}

/// A typed artifact failure: what went wrong ([`ArtifactErrorKind`]),
/// where (the path, when one is involved), and a rendered detail line.
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactError {
    /// The failure class, for programmatic recovery decisions.
    pub kind: ArtifactErrorKind,
    /// The artifact (or lock/temporary) path involved, if any.
    pub path: Option<PathBuf>,
    /// Human-readable cause.
    pub detail: String,
}

impl ArtifactError {
    /// Torn or malformed artifact bytes.
    #[must_use]
    pub fn corrupt(detail: &str) -> ArtifactError {
        ArtifactError {
            kind: ArtifactErrorKind::Corrupt,
            path: None,
            detail: detail.to_string(),
        }
    }

    /// Unsupported format version.
    #[must_use]
    pub fn version(found: u32, expected: u32) -> ArtifactError {
        ArtifactError {
            kind: ArtifactErrorKind::Version { found, expected },
            path: None,
            detail: format!("unsupported version {found} (expected {expected})"),
        }
    }

    /// Content-hash mismatch: the inputs changed since the artifact was
    /// built.
    #[must_use]
    pub fn stale(stored: u64, expected: u64) -> ArtifactError {
        ArtifactError {
            kind: ArtifactErrorKind::StaleHash { stored, expected },
            path: None,
            detail: format!(
                "content hash mismatch: artifact {stored:#018x}, inputs {expected:#018x} — \
                 layout, process or config changed since it was built"
            ),
        }
    }

    /// An I/O failure during `op` on `path`.
    #[must_use]
    pub fn io(op: ArtifactOp, path: &Path, transient: bool, detail: &str) -> ArtifactError {
        ArtifactError {
            kind: ArtifactErrorKind::Io { op, transient },
            path: Some(path.to_path_buf()),
            detail: format!(
                "cannot {op} {}: {detail}{}",
                path.display(),
                if transient { " (transient)" } else { "" }
            ),
        }
    }

    /// The sidecar advisory lock is held by a live process.
    #[must_use]
    pub fn locked(path: &Path, owner_pid: u32) -> ArtifactError {
        ArtifactError {
            kind: ArtifactErrorKind::Locked { owner_pid },
            path: Some(path.to_path_buf()),
            detail: format!(
                "artifact is locked by live pid {owner_pid} ({}) — \
                 another serve is using it",
                path.display()
            ),
        }
    }

    /// The same error anchored to `path` (decode errors gain the file
    /// they came from when loading from disk).
    #[must_use]
    pub fn with_path(mut self, path: &Path) -> ArtifactError {
        self.path = Some(path.to_path_buf());
        self
    }

    /// Whether a bounded retry may clear the failure (the `EINTR`-style
    /// transient I/O class).
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(
            self.kind,
            ArtifactErrorKind::Io {
                transient: true,
                ..
            }
        )
    }
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.detail)?;
        // I/O and lock details already name their path.
        if let Some(path) = &self.path {
            if !matches!(
                self.kind,
                ArtifactErrorKind::Io { .. } | ArtifactErrorKind::Locked { .. }
            ) {
                write!(f, " [{}]", path.display())?;
            }
        }
        Ok(())
    }
}

impl Error for ArtifactError {}

/// Errors produced by the end-to-end flow.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FlowError {
    /// Layout/netlist substrate failure.
    Layout(postopc_layout::LayoutError),
    /// Lithography simulation failure.
    Litho(postopc_litho::LithoError),
    /// Learned CD surrogate training failure: a bad training sample or
    /// unsolvable normal equations. (A corrupt persisted model is an
    /// [`FlowError::Artifact`].)
    Surrogate(String),
    /// OPC failure.
    Opc(postopc_opc::OpcError),
    /// CD extraction failure.
    Cdex(postopc_cdex::CdexError),
    /// Timing analysis failure.
    Sta(postopc_sta::StaError),
    /// Geometry failure.
    Geometry(postopc_geom::GeomError),
    /// A flow configuration value was out of range.
    InvalidConfig(String),
    /// A persisted artifact could not be used: torn/partial bytes, an
    /// unsupported version, a stale content hash, an I/O failure or a
    /// held advisory lock — see [`ArtifactErrorKind`]. Loading never
    /// panics — every malformed input lands here.
    Artifact(ArtifactError),
    /// Quarantined gates exceeded the configured budget
    /// ([`crate::FaultPolicy::Quarantine`]'s `max_fraction`).
    QuarantineExceeded {
        /// Gates quarantined during the run.
        quarantined: usize,
        /// Tagged gates submitted to extraction.
        total: usize,
        /// The configured budget the run overran.
        max_fraction: f64,
    },
    /// An extraction worker panicked under
    /// [`crate::FaultPolicy::Fail`]; the payload rendered to text. Under
    /// [`crate::FaultPolicy::Quarantine`] the gate is quarantined instead.
    WorkerPanic(String),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Layout(e) => write!(f, "layout error: {e}"),
            FlowError::Litho(e) => write!(f, "lithography error: {e}"),
            FlowError::Surrogate(reason) => write!(f, "surrogate model error: {reason}"),
            FlowError::Opc(e) => write!(f, "opc error: {e}"),
            FlowError::Cdex(e) => write!(f, "extraction error: {e}"),
            FlowError::Sta(e) => write!(f, "timing error: {e}"),
            FlowError::Geometry(e) => write!(f, "geometry error: {e}"),
            FlowError::InvalidConfig(reason) => write!(f, "invalid flow configuration: {reason}"),
            FlowError::Artifact(reason) => write!(f, "invalid artifact: {reason}"),
            FlowError::QuarantineExceeded {
                quarantined,
                total,
                max_fraction,
            } => write!(
                f,
                "quarantine budget exceeded: {quarantined} of {total} gates \
                 quarantined (max fraction {max_fraction})"
            ),
            FlowError::WorkerPanic(payload) => write!(f, "extraction worker panicked: {payload}"),
        }
    }
}

impl Error for FlowError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FlowError::Layout(e) => Some(e),
            FlowError::Litho(e) => Some(e),
            FlowError::Opc(e) => Some(e),
            FlowError::Cdex(e) => Some(e),
            FlowError::Sta(e) => Some(e),
            FlowError::Geometry(e) => Some(e),
            FlowError::Surrogate(_) | FlowError::InvalidConfig(_) => None,
            FlowError::Artifact(e) => Some(e),
            FlowError::QuarantineExceeded { .. } | FlowError::WorkerPanic(_) => None,
        }
    }
}

macro_rules! from_error {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for FlowError {
            fn from(e: $ty) -> Self {
                FlowError::$variant(e)
            }
        }
    };
}

from_error!(Layout, postopc_layout::LayoutError);
from_error!(Litho, postopc_litho::LithoError);
from_error!(Opc, postopc_opc::OpcError);
from_error!(Cdex, postopc_cdex::CdexError);
from_error!(Sta, postopc_sta::StaError);
from_error!(Geometry, postopc_geom::GeomError);

impl From<FaultCause<FlowError>> for FlowError {
    fn from(cause: FaultCause<FlowError>) -> Self {
        match cause {
            FaultCause::Error(e) => e,
            FaultCause::Panic(payload) => FlowError::WorkerPanic(payload),
        }
    }
}

/// Convenience result alias for the flow crate.
pub type Result<T> = std::result::Result<T, FlowError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_sources() {
        let e: FlowError = postopc_geom::GeomError::InvalidResolution(0.0).into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("geometry"));
        let c = FlowError::InvalidConfig("bad".into());
        assert!(c.source().is_none());
        // A captured fault resolves to the typed error it carried, or to
        // `WorkerPanic` for a caught panic.
        assert_eq!(FlowError::from(FaultCause::Error(c.clone())), c);
        let panic = FlowError::from(FaultCause::Panic("boom".into()));
        assert_eq!(panic, FlowError::WorkerPanic("boom".into()));
        assert_eq!(panic.to_string(), "extraction worker panicked: boom");
        assert!(panic.source().is_none());
    }

    #[test]
    fn artifact_error_kinds_render_their_ladder_rung() {
        let corrupt = ArtifactError::corrupt("checksum mismatch: artifact is corrupt")
            .with_path(Path::new("/tmp/warm.bin"));
        assert_eq!(corrupt.kind, ArtifactErrorKind::Corrupt);
        assert!(corrupt.to_string().contains("checksum"));
        assert!(corrupt.to_string().contains("warm.bin"));
        assert!(!corrupt.is_transient());

        let version = ArtifactError::version(7, 2);
        assert!(version.to_string().contains("version 7"));
        assert_eq!(
            version.kind,
            ArtifactErrorKind::Version {
                found: 7,
                expected: 2
            }
        );

        let stale = ArtifactError::stale(1, 2);
        assert!(stale.to_string().contains("content hash mismatch"));

        let io = ArtifactError::io(ArtifactOp::Rename, Path::new("/x/a.bin"), true, "EINTR");
        assert!(io.is_transient());
        assert!(io.to_string().contains("rename"));
        assert!(io.to_string().contains("transient"));
        let hard = ArtifactError::io(ArtifactOp::Write, Path::new("/x/a.bin"), false, "ENOSPC");
        assert!(!hard.is_transient());

        let locked = ArtifactError::locked(Path::new("/x/a.bin.lock"), 42);
        assert!(locked.to_string().contains("pid 42"));
        let flow: FlowError = FlowError::Artifact(locked);
        assert!(flow.source().is_some());
        assert!(flow.to_string().contains("invalid artifact"));
    }
}
