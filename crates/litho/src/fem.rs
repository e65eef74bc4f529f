//! Focus-exposure matrix (FEM): CD response across the process window.

use crate::error::Result;
use crate::optics::ProcessConditions;

/// One measured point of a focus-exposure matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FemPoint {
    /// Conditions of this exposure.
    pub conditions: ProcessConditions,
    /// Measured value (typically a CD in nm), or `None` if the feature
    /// failed to print at these conditions.
    pub value: Option<f64>,
}

/// A focus-exposure matrix: a rectangular sweep of focus × dose with one
/// measured value per cell.
#[derive(Debug, Clone, PartialEq)]
pub struct FocusExposureMatrix {
    focus_values: Vec<f64>,
    dose_values: Vec<f64>,
    points: Vec<FemPoint>,
}

impl FocusExposureMatrix {
    /// Runs `measure` at every (focus, dose) combination.
    ///
    /// `measure` returns `Ok(cd)` for printable conditions; an `Err` is
    /// recorded as a failed (`None`) cell rather than aborting the sweep —
    /// dying at the window edge is exactly what a FEM is for.
    ///
    /// # Errors
    ///
    /// Never fails currently; the `Result` return leaves room for sweep-
    /// level failures (e.g. aborted simulations) without an API break.
    pub fn sweep(
        focus_values: Vec<f64>,
        dose_values: Vec<f64>,
        mut measure: impl FnMut(&ProcessConditions) -> Result<f64>,
    ) -> Result<FocusExposureMatrix> {
        let mut points = Vec::with_capacity(focus_values.len() * dose_values.len());
        for &dose in &dose_values {
            for &focus_nm in &focus_values {
                let conditions = ProcessConditions { focus_nm, dose };
                let value = measure(&conditions).ok();
                points.push(FemPoint { conditions, value });
            }
        }
        Ok(FocusExposureMatrix {
            focus_values,
            dose_values,
            points,
        })
    }

    /// [`FocusExposureMatrix::sweep`] with the cells measured on the
    /// shared worker pool: one task per (focus, dose) cell, results
    /// merged in grid order so the matrix is identical to a serial sweep.
    ///
    /// `threads` follows the pool convention: `None` defers to the
    /// `POSTOPC_THREADS` environment variable, then to the machine's
    /// available parallelism.
    ///
    /// # Errors
    ///
    /// Never fails currently (failed cells are recorded as `None`), like
    /// the serial sweep.
    pub fn sweep_parallel(
        focus_values: Vec<f64>,
        dose_values: Vec<f64>,
        threads: Option<usize>,
        measure: impl Fn(&ProcessConditions) -> Result<f64> + Sync,
    ) -> Result<FocusExposureMatrix> {
        let mut grid = Vec::with_capacity(focus_values.len() * dose_values.len());
        for &dose in &dose_values {
            for &focus_nm in &focus_values {
                grid.push(ProcessConditions { focus_nm, dose });
            }
        }
        let workers = postopc_parallel::effective_threads(threads);
        let points = postopc_parallel::par_map(workers, &grid, |_, conditions| FemPoint {
            conditions: *conditions,
            value: measure(conditions).ok(),
        });
        Ok(FocusExposureMatrix {
            focus_values,
            dose_values,
            points,
        })
    }

    /// The focus axis values.
    pub fn focus_values(&self) -> &[f64] {
        &self.focus_values
    }

    /// The dose axis values.
    pub fn dose_values(&self) -> &[f64] {
        &self.dose_values
    }

    /// All points, dose-major (rows of constant dose).
    pub fn points(&self) -> &[FemPoint] {
        &self.points
    }

    /// The measured value at a (focus index, dose index) cell.
    pub fn at(&self, focus_index: usize, dose_index: usize) -> Option<f64> {
        self.points
            .get(dose_index * self.focus_values.len() + focus_index)
            .and_then(|p| p.value)
    }

    /// The fraction of cells whose value lies within ±`tolerance` of
    /// `target` — a scalar process-window metric.
    pub fn window_yield(&self, target: f64, tolerance: f64) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let good = self
            .points
            .iter()
            .filter(|p| matches!(p.value, Some(v) if (v - target).abs() <= tolerance))
            .count();
        good as f64 / self.points.len() as f64
    }

    /// The largest contiguous rectangular process window (focus range ×
    /// dose range) in which every cell stays within ±`tolerance` of
    /// `target`, or `None` if no cell qualifies.
    ///
    /// Ranges are reported as `(min, max)` of the matrix axis values; the
    /// window with the largest (focus span × dose span) area wins, with
    /// focus span breaking ties (depth of focus is the scarcer resource).
    pub fn process_window(&self, target: f64, tolerance: f64) -> Option<ProcessWindow> {
        let nf = self.focus_values.len();
        let nd = self.dose_values.len();
        let ok = |fi: usize, di: usize| matches!(self.at(fi, di), Some(v) if (v - target).abs() <= tolerance);
        let mut best: Option<(f64, f64, ProcessWindow)> = None; // (area, fspan, window)
        for f0 in 0..nf {
            for f1 in f0..nf {
                for d0 in 0..nd {
                    'd1: for d1 in d0..nd {
                        for fi in f0..=f1 {
                            for di in d0..=d1 {
                                if !ok(fi, di) {
                                    continue 'd1;
                                }
                            }
                        }
                        let fspan = self.focus_values[f1] - self.focus_values[f0];
                        let dspan = self.dose_values[d1] - self.dose_values[d0];
                        // Single cells count with epsilon spans so a
                        // one-point window still beats no window.
                        let area = (fspan + 1e-9) * (dspan + 1e-9);
                        let candidate = ProcessWindow {
                            focus_range_nm: (self.focus_values[f0], self.focus_values[f1]),
                            dose_range: (self.dose_values[d0], self.dose_values[d1]),
                        };
                        let better = match &best {
                            None => true,
                            Some((a, f, _)) => {
                                area > *a + 1e-15 || ((area - *a).abs() <= 1e-15 && fspan > *f)
                            }
                        };
                        if better {
                            best = Some((area, fspan, candidate));
                        }
                    }
                }
            }
        }
        best.map(|(_, _, w)| w)
    }
}

/// A rectangular process window: the focus and dose ranges over which a
/// feature stays in spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessWindow {
    /// Focus range (min, max) in nm.
    pub focus_range_nm: (f64, f64),
    /// Dose range (min, max), relative.
    pub dose_range: (f64, f64),
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An analytic stand-in CD model: bowl in focus, linear in dose.
    fn toy_cd(c: &ProcessConditions) -> Result<f64> {
        Ok(90.0 - 20.0 * (c.dose - 1.0) * 10.0 + 0.0002 * c.focus_nm * c.focus_nm)
    }

    #[test]
    fn sweep_covers_grid() {
        let fem =
            FocusExposureMatrix::sweep(vec![-100.0, 0.0, 100.0], vec![0.95, 1.0, 1.05], toy_cd)
                .expect("sweep");
        assert_eq!(fem.points().len(), 9);
        assert_eq!(fem.at(1, 1), Some(90.0));
        // Bossung bowl: defocus raises CD symmetrically.
        assert!(fem.at(0, 1).expect("cell") > fem.at(1, 1).expect("cell"));
        assert_eq!(fem.at(0, 1), fem.at(2, 1));
    }

    #[test]
    fn failed_cells_recorded_as_none() {
        let fem = FocusExposureMatrix::sweep(vec![0.0], vec![1.0, 9.0], |c| {
            if c.dose > 2.0 {
                Err(crate::error::LithoError::NoContourCrossing {
                    x_nm: 0.0,
                    y_nm: 0.0,
                })
            } else {
                Ok(90.0)
            }
        })
        .expect("sweep");
        assert_eq!(fem.at(0, 0), Some(90.0));
        assert_eq!(fem.at(0, 1), None);
    }

    #[test]
    fn parallel_sweep_matches_serial() {
        let focus = vec![-150.0, -75.0, 0.0, 75.0, 150.0];
        let dose = vec![0.9, 1.0, 1.1];
        let serial =
            FocusExposureMatrix::sweep(focus.clone(), dose.clone(), toy_cd).expect("serial");
        for workers in [Some(1), Some(4), None] {
            let pooled =
                FocusExposureMatrix::sweep_parallel(focus.clone(), dose.clone(), workers, toy_cd)
                    .expect("pooled");
            assert_eq!(pooled, serial, "workers = {workers:?}");
        }
    }

    #[test]
    fn imaging_sweep_with_shared_workspace_matches_fresh_workspaces() {
        // A real imaging measure across the FEM grid: every (focus, dose)
        // cell re-discretizes kernels unless the tap cache works, and the
        // base grid is reused across all cells. The shared-workspace sweep
        // must be bit-identical to fresh workspaces per cell.
        use crate::cutline;
        use crate::image::{AerialImage, SimulationSpec};
        use crate::resist::ResistModel;
        use crate::workspace::SimWorkspace;
        use postopc_geom::{Polygon, Rect};

        let line = Polygon::from(Rect::new(-45, -600, 45, 600).expect("rect"));
        let window = Rect::new(-200, -200, 200, 200).expect("rect");
        let resist = ResistModel::standard();
        let measure_with = |ws: &mut SimWorkspace, c: &ProcessConditions| -> Result<f64> {
            let spec = SimulationSpec::nominal().with_conditions(*c);
            let image = AerialImage::simulate_with(ws, &spec, std::slice::from_ref(&line), window)?;
            cutline::measure_cd(&image, &resist, (0.0, 0.0), (1.0, 0.0), 150.0)
        };
        let focus = vec![-120.0, 0.0, 120.0];
        let dose = vec![0.97, 1.03];
        let mut shared = SimWorkspace::new();
        let reused = FocusExposureMatrix::sweep(focus.clone(), dose.clone(), |c| {
            measure_with(&mut shared, c)
        })
        .expect("sweep");
        let fresh =
            FocusExposureMatrix::sweep(focus, dose, |c| measure_with(&mut SimWorkspace::new(), c))
                .expect("sweep");
        assert_eq!(reused, fresh);
        // The sweep actually measured something plausible everywhere.
        assert!(reused.points().iter().all(|p| p.value.is_some()));
    }

    #[test]
    fn process_window_finds_the_in_spec_rectangle() {
        let fem = FocusExposureMatrix::sweep(
            vec![-150.0, -75.0, 0.0, 75.0, 150.0],
            vec![0.9, 1.0, 1.1],
            toy_cd,
        )
        .expect("sweep");
        // toy_cd: 90 at (0, 1.0); grows quadratically in focus (4.5 nm at
        // |focus| = 150) and ±20 nm at dose 0.9/1.1. Tolerance 3 nm keeps
        // |focus| <= 75 at dose 1.0 only.
        let w = fem.process_window(90.0, 3.0).expect("window exists");
        assert_eq!(w.dose_range, (1.0, 1.0));
        assert_eq!(w.focus_range_nm, (-75.0, 75.0));
        // Impossible tolerance: no window.
        assert!(fem.process_window(50.0, 0.1).is_none());
        // Huge tolerance: the whole matrix.
        let all = fem.process_window(90.0, 1000.0).expect("window");
        assert_eq!(all.focus_range_nm, (-150.0, 150.0));
        assert_eq!(all.dose_range, (0.9, 1.1));
    }

    #[test]
    fn window_yield_counts_in_spec_cells() {
        let fem = FocusExposureMatrix::sweep(vec![-150.0, 0.0, 150.0], vec![0.9, 1.0, 1.1], toy_cd)
            .expect("sweep");
        let y_all = fem.window_yield(90.0, 1000.0);
        assert!((y_all - 1.0).abs() < 1e-12);
        let y_tight = fem.window_yield(90.0, 4.0);
        assert!(y_tight > 0.0 && y_tight < 1.0, "yield = {y_tight}");
    }
}
