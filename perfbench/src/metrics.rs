//! The metric registry — every name the benchmark prints, with its unit,
//! direction and (for per-layer metrics) the end-to-end metric and
//! workloads it should move — and the derivation of the per-layer
//! metrics from a trace. The manifest test holds `BENCHMARK.json` to
//! these tables, so the printed names and the manifest cannot drift.

use crate::common::{mean, median, Outcome};
use crate::trace::Tracer;
use std::collections::BTreeMap;

/// A workload name and the one-line reason it is in the benchmark.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "flow-cold",
        "The paper's cold flow: model OPC and imaging of ~34 novel windows dominate and contexts barely repeat, so imaging and OPC changes show here first.",
    ),
    (
        "serve-warm",
        "A repeated warm serve: artifact load, restore and a Monte Carlo batch with no imaging, so STA/MC and artifact-read changes show here and imaging changes must not.",
    ),
    (
        "eco-stream",
        "An ECO session: ~99% warm-store context reuse, one rule-OPC image per novel window, incremental STA commits and what-ifs, and artifact republishes.",
    ),
];

/// An end-to-end metric: printed by every untraced run.
// `better` is read by the manifest test only.
#[cfg_attr(not(test), allow(dead_code))]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

pub const END_TO_END: &[Metric] = &[
    Metric {
        name: "setup_s",
        unit: "s",
        better: "lower",
    },
    Metric {
        name: "alloc_mb_per_op",
        unit: "MB",
        better: "lower",
    },
    Metric {
        name: "op_cpu_ms.p50",
        unit: "ms",
        better: "lower",
    },
];

/// A per-layer metric: printed by every traced run, `0` on a workload
/// where its layer does no work.
// `better`, `moves` and `on` are read by the manifest test only.
#[cfg_attr(not(test), allow(dead_code))]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric a change to this layer should move...
    pub moves: &'static str,
    /// ...on these workloads (elsewhere the prediction is "no change").
    pub on: &'static [&'static str],
}

const ALL: &[&str] = &["flow-cold", "serve-warm", "eco-stream"];
const FLOW: &[&str] = &["flow-cold"];
const SERVE: &[&str] = &["serve-warm"];
const ECO: &[&str] = &["eco-stream"];
const FLOW_SERVE: &[&str] = &["flow-cold", "serve-warm"];
const FLOW_ECO: &[&str] = &["flow-cold", "eco-stream"];
const SERVE_ECO: &[&str] = &["serve-warm", "eco-stream"];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static [&'static str],
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
        on,
    }
}

const OP: &str = "op_cpu_ms.p50";

pub const PER_LAYER: &[LayerMetric] = &[
    layer("layout.compile_ms", "ms", "lower", "setup_s", ALL),
    layer("litho.simulate_ms_per_window", "ms", "lower", OP, FLOW_ECO),
    layer("litho.pixels_per_window", "count", "lower", OP, FLOW_ECO),
    layer("litho.calls_per_op", "count", "lower", OP, FLOW_ECO),
    layer("litho.share_pct", "%", "lower", OP, FLOW_ECO),
    layer("opc.model_ms_per_window", "ms", "lower", OP, FLOW),
    layer("opc.model_sims_per_window", "count", "lower", OP, FLOW),
    layer("opc.rules_ms_per_window", "ms", "lower", OP, FLOW_ECO),
    layer("opc.calls_per_op", "count", "lower", OP, FLOW_ECO),
    layer("opc.share_pct", "%", "lower", OP, FLOW_ECO),
    layer("cdex.extract_gate_us_per_site", "us", "lower", OP, FLOW_ECO),
    layer("cdex.calls_per_op", "count", "lower", OP, FLOW_ECO),
    layer("cdex.share_pct", "%", "lower", OP, FLOW_ECO),
    layer("extract.ms", "ms", "lower", OP, FLOW_ECO),
    layer("extract.ms_per_window", "ms", "lower", OP, FLOW_ECO),
    layer("extract.windows", "count", "lower", OP, FLOW_ECO),
    layer("extract.cache_hits", "count", "higher", OP, FLOW_ECO),
    layer("extract.store_hits", "count", "higher", OP, ECO),
    layer("extract.reuse_rate", "ratio", "higher", OP, FLOW_ECO),
    layer("extract.opc_simulations", "count", "lower", OP, FLOW),
    layer("extract.calls_per_op", "count", "lower", OP, FLOW_ECO),
    layer("extract.share_pct", "%", "lower", OP, FLOW_ECO),
    layer("tags.ms", "ms", "lower", OP, FLOW),
    layer("tags.calls_per_op", "count", "lower", OP, FLOW),
    layer("tags.share_pct", "%", "lower", OP, FLOW),
    layer("compare.ms", "ms", "lower", OP, FLOW),
    layer("compare.calls_per_op", "count", "lower", OP, FLOW),
    layer("compare.share_pct", "%", "lower", OP, FLOW),
    layer("sta.model_new_ms", "ms", "lower", OP, FLOW_SERVE),
    layer("sta.compile_ms", "ms", "lower", OP, FLOW_SERVE),
    layer("sta.evaluate_ms", "ms", "lower", OP, FLOW_SERVE),
    layer("sta.mc_ms", "ms", "lower", OP, SERVE),
    layer("sta.mc_samples_per_s", "1/s", "higher", OP, SERVE),
    layer("sta.tail_is_ms", "ms", "lower", OP, SERVE),
    layer("sta.mc_shift_hits", "count", "higher", OP, SERVE),
    layer("sta.mc_shift_misses", "count", "lower", OP, SERVE),
    layer("sta.mc_prewarmed", "count", "lower", OP, SERVE),
    layer("sta.evaluate_eco_ms", "ms", "lower", OP, ECO),
    layer("sta.corners_ms", "ms", "lower", OP, SERVE),
    layer("sta.calls_per_op", "count", "lower", OP, ALL),
    layer("sta.share_pct", "%", "lower", OP, ALL),
    layer("guardband.ms", "ms", "lower", OP, SERVE),
    layer("guardband.calls_per_op", "count", "lower", OP, SERVE),
    layer("guardband.share_pct", "%", "lower", OP, SERVE),
    layer("session.restore_ms", "ms", "lower", OP, SERVE),
    layer("session.snapshot_ms", "ms", "lower", OP, ECO),
    layer("session.calls_per_op", "count", "lower", OP, SERVE_ECO),
    layer("session.share_pct", "%", "lower", OP, SERVE_ECO),
    layer("artifact.content_hash_ms", "ms", "lower", OP, SERVE),
    layer("artifact.bytes", "B", "lower", OP, SERVE_ECO),
    layer("artifact.calls_per_op", "count", "lower", OP, SERVE),
    layer("artifact.share_pct", "%", "lower", OP, SERVE),
    layer("durable.lock_ms", "ms", "lower", OP, SERVE),
    layer("durable.load_ms", "ms", "lower", OP, SERVE),
    layer("durable.save_ms", "ms", "lower", OP, ECO),
    layer("durable.calls_per_op", "count", "lower", OP, SERVE_ECO),
    layer("durable.share_pct", "%", "lower", OP, SERVE_ECO),
    layer("trace.overhead_ms", "ms", "lower", OP, ALL),
    layer("trace.overhead_pct", "%", "lower", OP, ALL),
];

/// Layers with `calls_per_op` / `share_pct` metrics, and whether their
/// calls are only visible in the window replay (`extract_gates` makes
/// them internally, so their share is of the replayed windows' time).
const LAYERS: &[(&str, bool)] = &[
    ("litho", true),
    ("opc", true),
    ("cdex", true),
    ("extract", false),
    ("tags", false),
    ("compare", false),
    ("sta", false),
    ("guardband", false),
    ("session", false),
    ("artifact", false),
    ("durable", false),
];

/// Root spans of timed work; their summed duration is an op's latency.
const OP_ROOTS: &[&str] = &["op", "persist"];
const REPLAY_ROOTS: &[&str] = &["replay.window"];

pub fn end_to_end(outcome: &Outcome) -> BTreeMap<&'static str, f64> {
    BTreeMap::from([
        ("setup_s", median(&outcome.setup_s)),
        ("alloc_mb_per_op", median(&outcome.op_alloc_mb)),
        ("op_cpu_ms.p50", median(&outcome.op_cpu_ms)),
    ])
}

pub fn per_layer(t: &Tracer, outcome: &Outcome) -> BTreeMap<&'static str, f64> {
    let med = |name: &str| median(&t.durations_ms(name));
    let avg = |name: &str| mean(&t.counts(name));
    let sum = |v: Vec<f64>| v.iter().sum::<f64>();
    let per_window = |name: &str| median(&t.per_root_ms("replay.window", name));
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut m = BTreeMap::from([
        ("layout.compile_ms", med("layout.compile")),
        ("litho.simulate_ms_per_window", per_window("litho.simulate")),
        ("litho.pixels_per_window", avg("litho.pixels")),
        ("opc.model_ms_per_window", per_window("opc.model")),
        ("opc.model_sims_per_window", avg("opc.model_sims")),
        ("opc.rules_ms_per_window", per_window("opc.rules")),
        (
            "cdex.extract_gate_us_per_site",
            1e3 * med("cdex.extract_gate"),
        ),
        ("extract.ms", med("extract.gates")),
        (
            "extract.ms_per_window",
            ratio(
                sum(t.durations_ms("extract.gates")),
                sum(t.counts("extract.windows")),
            ),
        ),
        ("extract.windows", avg("extract.windows")),
        ("extract.cache_hits", avg("extract.cache_hits")),
        ("extract.store_hits", avg("extract.store_hits")),
        (
            "extract.reuse_rate",
            ratio(
                sum(t.counts("extract.cache_hits")) + sum(t.counts("extract.store_hits")),
                sum(t.counts("extract.tagged")),
            ),
        ),
        ("extract.opc_simulations", avg("extract.opc_simulations")),
        ("tags.ms", med("tags.from_critical_paths")),
        ("compare.ms", med("compare.compare_with")),
        ("sta.model_new_ms", med("sta.model_new")),
        ("sta.compile_ms", med("sta.compile")),
        ("sta.evaluate_ms", med("sta.evaluate")),
        ("sta.mc_ms", med("sta.mc")),
        (
            "sta.mc_samples_per_s",
            ratio(
                sum(t.counts("sta.mc_samples")),
                sum(t.durations_ms("sta.mc")) / 1e3,
            ),
        ),
        ("sta.tail_is_ms", med("sta.tail_is")),
        ("sta.mc_shift_hits", avg("sta.mc_shift_hits")),
        ("sta.mc_shift_misses", avg("sta.mc_shift_misses")),
        ("sta.mc_prewarmed", avg("sta.mc_prewarmed")),
        ("sta.evaluate_eco_ms", med("sta.evaluate_eco")),
        ("sta.corners_ms", med("sta.corners")),
        ("guardband.ms", med("guardband.compute")),
        ("session.restore_ms", med("session.restore")),
        ("session.snapshot_ms", med("session.snapshot")),
        ("artifact.content_hash_ms", med("artifact.content_hash")),
        ("artifact.bytes", avg("artifact.bytes")),
        ("durable.lock_ms", med("durable.lock")),
        ("durable.load_ms", med("durable.load")),
        ("durable.save_ms", med("durable.save")),
    ]);

    let traced_ops = outcome.traced_op_ms.len() as f64;
    for &(layer, in_replay) in LAYERS {
        let (roots, ops) = if in_replay {
            (REPLAY_ROOTS, outcome.replay_ops)
        } else {
            (OP_ROOTS, traced_ops)
        };
        let (calls, share) = t.layer_share(layer, roots);
        m.insert(calls_name(layer), ratio(calls as f64, ops));
        m.insert(share_name(layer), share);
    }

    let untraced = median(&outcome.op_ms);
    let overhead = median(&outcome.traced_op_ms) - untraced;
    m.insert("trace.overhead_ms", overhead);
    m.insert("trace.overhead_pct", 100.0 * ratio(overhead, untraced));
    m
}

/// The registry's `&'static` name for `<layer>.calls_per_op`.
fn calls_name(layer: &str) -> &'static str {
    static_name(&format!("{layer}.calls_per_op"))
}

fn share_name(layer: &str) -> &'static str {
    static_name(&format!("{layer}.share_pct"))
}

fn static_name(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|m| m.name)
        .find(|n| *n == name)
        .unwrap_or_else(|| panic!("{name} is not in the per-layer registry"))
}
