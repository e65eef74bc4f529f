//! Benchmarks the model-OPC feedback loop: cost per iteration count on a
//! dense three-line pattern (backs experiment T1 and DESIGN ablation #3).
//!
//! Times through `postopc_bench::runner::measure` (median of 5 after a
//! warm-up); criterion is not available offline.

use postopc_bench::runner::{measure, render_timings};
use postopc_geom::{Polygon, Rect};
use postopc_opc::{model, ModelOpcConfig};

fn targets() -> Vec<Polygon> {
    vec![
        Polygon::from(Rect::new(-45, -300, 45, 300).expect("rect")),
        Polygon::from(Rect::new(-325, -300, -235, 300).expect("rect")),
        Polygon::from(Rect::new(235, -300, 325, 300).expect("rect")),
    ]
}

fn main() {
    let window = Rect::new(-450, -450, 450, 450).expect("rect");
    let targets = targets();
    let mut entries = Vec::new();
    for iterations in [1usize, 3, 6] {
        let cfg = ModelOpcConfig {
            iterations,
            ..ModelOpcConfig::standard()
        };
        let (_, timing) = measure(
            || {
                model::correct(&cfg, std::hint::black_box(&targets), &[], window)
                    .expect("opc converges")
            },
            |_, _| {},
        );
        entries.push((format!("iterations/{iterations}"), timing));
    }
    print!("{}", render_timings("model_opc", &entries));
}
