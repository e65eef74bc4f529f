//! Ablation benches for the design choices called out in DESIGN.md:
//! kernel stack vs single Gaussian, and slice-based equivalent length vs
//! single mid-gate CD.
//!
//! The image is lazy (its column pass runs per pixel as reads touch it),
//! so each imaging row times a simulation plus a fixed read set — a CD
//! cut across each of the five lines at three heights — and so compares
//! the convolution cost of the two kernel stacks.
//!
//! Times through `postopc_bench::runner::measure` (median of 5 after a
//! warm-up); criterion is not available offline.

use postopc_bench::runner::{measure, render_timings};
use postopc_device::{GateSlice, MosKind, Mosfet, ProcessParams, SlicedGate};
use postopc_geom::{Polygon, Rect};
use postopc_litho::{cutline, AerialImage, KernelMode, ResistModel, SimulationSpec};

fn main() {
    let mask: Vec<Polygon> = (0..5)
        .map(|i| Polygon::from(Rect::new(i * 280, -600, i * 280 + 90, 600).expect("rect")))
        .collect();
    let window = Rect::new(-300, -700, 1500, 700).expect("rect");
    let resist = ResistModel::standard();
    let cuts: Vec<(f64, f64)> = (0..5)
        .flat_map(|i| [-400.0, 0.0, 400.0].map(|y| (i as f64 * 280.0 + 45.0, y)))
        .collect();
    let mut imaging = Vec::new();
    for (name, mode) in [
        ("center_surround", KernelMode::CenterSurround),
        ("single_gaussian", KernelMode::SingleGaussian),
    ] {
        let spec = SimulationSpec {
            kernel_mode: mode,
            ..SimulationSpec::nominal()
        };
        let (_, timing) = measure(
            || {
                let image = AerialImage::simulate(&spec, std::hint::black_box(&mask), window)
                    .expect("image");
                cuts.iter()
                    .map(|&center| {
                        cutline::measure_cd(&image, &resist, center, (1.0, 0.0), 140.0)
                            .expect("every line prints")
                    })
                    .sum::<f64>()
            },
            |_, _| {},
        );
        imaging.push((name.to_string(), timing));
    }
    print!("{}", render_timings("imaging", &imaging));

    let process = ProcessParams::n90();
    let slices: Vec<GateSlice> = (0..8)
        .map(|i| GateSlice {
            w_nm: 52.5,
            l_nm: 86.0 + i as f64,
        })
        .collect();
    let gate = SlicedGate::new(MosKind::Nmos, slices).expect("gate");
    let equivalent = vec![
        (
            "slice_bisection".to_string(),
            measure(
                || {
                    gate.equivalent(std::hint::black_box(&process))
                        .expect("converges")
                },
                |_, _| {},
            )
            .1,
        ),
        (
            "mid_cd_single_eval".to_string(),
            measure(
                || {
                    Mosfet::new(MosKind::Nmos, 420.0, std::hint::black_box(89.5))
                        .expect("device")
                        .i_on(&process)
                },
                |_, _| {},
            )
            .1,
        ),
    ];
    print!("{}", render_timings("equivalent_length", &equivalent));
}
