//! Reusable scratch state for the imaging engine.
//!
//! Every aerial-image simulation needs the mask's coverage rows and
//! discretized kernel taps. A [`SimWorkspace`] owns both so that repeated
//! simulations — the OPC iteration loop, full-chip extraction — stop
//! paying fresh raster buffers and a kernel re-discretization per window.
//!
//! [`AerialImage::simulate`](crate::AerialImage::simulate) borrows a
//! per-thread workspace transparently — worker-pool threads each get their
//! own, so the engine stays lock-free. Only the imaging engine and its
//! tests name a workspace directly.

use std::cell::RefCell;

use crate::kernels::TapCache;
use postopc_geom::RowClasses;

/// Scratch state reused across imaging runs: the mask's row classes and
/// the discretized-tap cache.
///
/// The class buffers grow to the largest window simulated and are then
/// reused allocation-free; the tap cache persists across windows so kernel
/// discretization happens once per distinct `(σ, pixel)` condition.
#[derive(Debug, Default)]
pub(crate) struct SimWorkspace {
    pub(crate) classes: RowClasses,
    pub(crate) taps: TapCache,
}

impl SimWorkspace {
    /// Creates an empty workspace; buffers are sized lazily on first use.
    pub(crate) fn new() -> SimWorkspace {
        SimWorkspace::default()
    }
}

thread_local! {
    static THREAD_WORKSPACE: RefCell<SimWorkspace> = RefCell::new(SimWorkspace::new());
}

/// Runs `f` with this thread's shared workspace. Falls back to a fresh
/// workspace if the thread-local one is already borrowed (re-entrant
/// simulation through a callback), so the fast path can never panic.
pub(crate) fn with_thread_workspace<R>(f: impl FnOnce(&mut SimWorkspace) -> R) -> R {
    THREAD_WORKSPACE.with(|cell| match cell.try_borrow_mut() {
        Ok(mut workspace) => f(&mut workspace),
        Err(_) => f(&mut SimWorkspace::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_workspace_is_reused() {
        let first = with_thread_workspace(|ws| ws as *const SimWorkspace as usize);
        let second = with_thread_workspace(|ws| ws as *const SimWorkspace as usize);
        assert_eq!(first, second);
        // Nested access falls back instead of panicking.
        let ok = with_thread_workspace(|_outer| with_thread_workspace(|_inner| true));
        assert!(ok);
    }
}
