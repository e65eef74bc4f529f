//! Reusable scratch state for the imaging engine.
//!
//! Every aerial-image simulation needs the mask's coverage rows and
//! discretized kernel taps. A [`SimWorkspace`] owns both so that repeated
//! simulations — the OPC iteration loop, full-chip extraction — stop
//! paying fresh raster buffers and a kernel re-discretization per window.
//! It also keeps the last image's class rows and row passes, so the next
//! image computes only the row passes of rows that moved.
//!
//! [`AerialImage::simulate`](crate::AerialImage::simulate) borrows a
//! per-thread workspace transparently — worker-pool threads each get their
//! own, so the engine stays lock-free. Only the imaging engine and its
//! tests name a workspace directly.

use std::cell::RefCell;
use std::sync::Arc;

use crate::kernels::TapCache;
use postopc_geom::{Rect, RectScratch, RowClasses, RowField, RowPasses};

/// Scratch state reused across imaging runs: the mask's rectangles and
/// their decomposition buffers, the last image's row classes and row
/// passes, spare class buffers, and the discretized-tap cache.
///
/// The rectangle and class buffers grow to the largest mask and window
/// simulated and are then reused allocation-free; the tap cache persists
/// across windows so kernel discretization happens once per distinct
/// `(σ, pixel)` condition.
///
/// The row-pass memo holds exactly the last image: its class rows
/// (`classes`) and a shared handle on its fields, the same passes the
/// image reads. The next image rasterizes into `spare`, takes from the
/// memo the pass of every class row whose bits, kernel taps and output
/// columns equal one the last image computed
/// ([`RowClasses::row_field`]), and then becomes the memo itself, its
/// buffers trading places with `spare`. A pass is a function of those
/// three, so a reused pass is the one the row would compute: the memo
/// changes no bit of any image. The lattice origin, the dose and the
/// kernel weight are not part of the key, so a translated window, another
/// dose or another kernel weight reuse passes too. A fresh workspace
/// (the re-entrant fallback's) starts with an empty memo.
#[derive(Debug, Default)]
pub(crate) struct SimWorkspace {
    /// The rectangles of the mask being imaged.
    pub(crate) rects: Vec<Rect>,
    pub(crate) rect_scratch: RectScratch,
    /// The last image's class rows.
    pub(crate) classes: RowClasses,
    /// Buffers the next image rasterizes into.
    pub(crate) spare: RowClasses,
    /// The last image's weighted row passes, built over `classes`.
    pub(crate) last: Arc<[(f64, RowField)]>,
    pub(crate) taps: TapCache,
    /// The row passes the workspace's images asked for and computed.
    pub(crate) passes: RowPasses,
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

/// The row passes this thread's shared workspace has asked for and
/// computed since the thread started (a re-entrant fallback's are not
/// counted).
pub(crate) fn thread_row_passes() -> RowPasses {
    THREAD_WORKSPACE.with(|cell| cell.try_borrow().map(|ws| ws.passes).unwrap_or_default())
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
