//! Benchmarks the selective-OPC cost asymmetry (experiment T7): rule-only
//! vs selective vs model-everywhere on a small job.
//!
//! Times through `postopc_bench::runner::measure` (median of 5 after a
//! warm-up); criterion is not available offline.

use postopc_bench::runner::{measure, render_timings};
use postopc_geom::{Polygon, Rect};
use postopc_opc::{model, rules, selective, ModelOpcConfig, RuleOpcConfig};

fn lines() -> Vec<Polygon> {
    (0..4)
        .map(|i| Polygon::from(Rect::new(i * 280, -300, i * 280 + 90, 300).expect("rect")))
        .collect()
}

fn main() {
    let window = Rect::new(-300, -450, 1200, 450).expect("rect");
    let all = lines();
    let model_cfg = ModelOpcConfig {
        iterations: 3,
        ..ModelOpcConfig::standard()
    };
    let rule_cfg = RuleOpcConfig::standard();
    let entries = vec![
        (
            "rule_only".to_string(),
            measure(
                || rules::correct(&rule_cfg, std::hint::black_box(&all), &[]).expect("rule"),
                |_, _| {},
            )
            .1,
        ),
        (
            "selective_1_of_4".to_string(),
            measure(
                || {
                    selective::correct(&model_cfg, &rule_cfg, &all[..1], &all[1..], &[], window)
                        .expect("selective")
                },
                |_, _| {},
            )
            .1,
        ),
        (
            "model_all_4".to_string(),
            measure(
                || model::correct(&model_cfg, &all, &[], window).expect("model"),
                |_, _| {},
            )
            .1,
        ),
    ];
    print!("{}", render_timings("selective_opc", &entries));
}
