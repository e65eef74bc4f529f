//! Reusable scratch state for the imaging engine.
//!
//! Every aerial-image simulation needs a padded base grid and discretized
//! kernel taps. A [`SimWorkspace`] owns both so that repeated simulations —
//! the OPC iteration loop, FEM sweeps, full-chip extraction — stop paying a
//! fresh raster allocation and a kernel re-discretization per window.
//!
//! [`AerialImage::simulate`](crate::AerialImage::simulate) borrows a
//! per-thread workspace transparently — worker-pool threads each get their
//! own, so the engine stays lock-free. Only the imaging engine and its
//! tests name a workspace directly.

use std::cell::RefCell;

use crate::error::Result;
use crate::kernels::TapCache;
use postopc_geom::{Grid, Rect};

/// Scratch state reused across imaging runs: the padded base grid and the
/// discretized-tap cache.
///
/// The base grid grows to the largest window simulated and is then reused
/// allocation-free; the tap cache persists across windows so kernel
/// discretization happens once per distinct `(σ, pixel)` condition.
#[derive(Debug, Default)]
pub(crate) struct SimWorkspace {
    pub(crate) base: Option<Grid>,
    pub(crate) taps: TapCache,
}

impl SimWorkspace {
    /// Creates an empty workspace; buffers are sized lazily on first use.
    pub(crate) fn new() -> SimWorkspace {
        SimWorkspace::default()
    }

    /// The base grid reshaped (zero-filled) to cover `window` expanded by
    /// `margin` at `pixel` nm, reusing the previous allocation.
    pub(crate) fn base_grid(&mut self, window: Rect, margin: i64, pixel: f64) -> Result<&mut Grid> {
        match &mut self.base {
            Some(grid) => {
                grid.reset(window, margin, pixel)?;
            }
            None => {
                self.base = Some(Grid::new(window, margin, pixel)?);
            }
        }
        match &mut self.base {
            Some(grid) => Ok(grid),
            None => unreachable!("base grid just ensured"),
        }
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
    fn base_grid_reshapes_and_zeroes() {
        let mut ws = SimWorkspace::new();
        let w1 = Rect::new(0, 0, 400, 200).expect("rect");
        let g = ws.base_grid(w1, 50, 5.0).expect("grid");
        g.set(3, 3, 1.0);
        let (nx1, ny1) = (g.nx(), g.ny());
        // A smaller window must come back zeroed with the right shape.
        let w2 = Rect::new(-100, -100, 100, 100).expect("rect");
        let g = ws.base_grid(w2, 50, 5.0).expect("grid");
        assert!(g.nx() < nx1 || g.ny() < ny1);
        let fresh = Grid::new(w2, 50, 5.0).expect("grid");
        assert_eq!(*g, fresh);
    }

    #[test]
    fn thread_workspace_is_reused() {
        let first = with_thread_workspace(|ws| {
            let w = Rect::new(0, 0, 100, 100).expect("rect");
            ws.base_grid(w, 10, 5.0).expect("grid");
            ws as *const SimWorkspace as usize
        });
        let second = with_thread_workspace(|ws| ws as *const SimWorkspace as usize);
        assert_eq!(first, second);
        // Nested access falls back instead of panicking.
        let ok = with_thread_workspace(|_outer| with_thread_workspace(|_inner| true));
        assert!(ok);
    }
}
