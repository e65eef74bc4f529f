//! Benchmarks a focus-exposure-matrix sweep over an isolated line (the
//! primitive behind experiment F5), serial vs pooled.
//!
//! Times through `postopc_bench::runner::measure` (median of 5 after a
//! warm-up); criterion is not available offline.

use postopc_bench::runner::{measure, render_timings};
use postopc_geom::{Polygon, Rect};
use postopc_litho::{cutline, AerialImage, FocusExposureMatrix, ResistModel, SimulationSpec};

fn main() {
    let line = Polygon::from(Rect::new(-45, -600, 45, 600).expect("rect"));
    let window = Rect::new(-300, -300, 300, 300).expect("rect");
    let resist = ResistModel::standard();
    let line_cd = |conditions: &postopc_litho::ProcessConditions| {
        let spec = SimulationSpec::nominal().with_conditions(*conditions);
        let image = AerialImage::simulate(&spec, std::slice::from_ref(&line), window)?;
        cutline::measure_cd(&image, &resist, (0.0, 0.0), (1.0, 0.0), 150.0)
    };
    let entries = vec![
        (
            "5x3_line_cd_sweep/serial".to_string(),
            measure(
                || {
                    FocusExposureMatrix::sweep(
                        vec![-150.0, -75.0, 0.0, 75.0, 150.0],
                        vec![0.94, 1.0, 1.06],
                        line_cd,
                    )
                    .expect("sweep succeeds")
                },
                |_, _| {},
            )
            .1,
        ),
        (
            "5x3_line_cd_sweep/pooled".to_string(),
            measure(
                || {
                    FocusExposureMatrix::sweep_parallel(
                        vec![-150.0, -75.0, 0.0, 75.0, 150.0],
                        vec![0.94, 1.0, 1.06],
                        None,
                        line_cd,
                    )
                    .expect("sweep succeeds")
                },
                |_, _| {},
            )
            .1,
        ),
    ];
    print!("{}", render_timings("fem", &entries));
}
