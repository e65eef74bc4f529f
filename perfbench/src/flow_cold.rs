//! `flow-cold`: one cold `run_flow` per op on the seeded paper testcase
//! (model OPC, clock = drawn critical delay × 1.1, top-3 paths tagged).

use crate::common::{
    err, paper_config, record_extraction, replay_window, testcase, timed, Ctx, Outcome, SETUPS,
};
use crate::trace::{Tracer, REPLAY};
use postopc::{extract_gates, run_flow, ExtractionStats, FlowReport, TagSet, TimingComparison};
use postopc_device::MosKind;
use postopc_layout::{Design, GateId};
use postopc_sta::{CdAnnotation, TimingModel};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::time::Instant;

/// The seed whose per-gate lengths are pinned by the stored reference.
pub const REFERENCE_SEED: u64 = 11;
/// Largest per-gate deviation from the reference, nm: the surrogate
/// tier's parity bound, so a tolerance-gated imaging engine still passes.
const REFERENCE_TOLERANCE_NM: f64 = 1.0;
/// Fewest untraced (and, when tracing, traced) ops a run makes.
const MIN_OPS: usize = 3;

pub fn reference_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("reference/flow-cold-seed11.tsv")
}

/// The answer of one flow, without its wall-clock fields.
type Answer = (TagSet, ExtractionStats, CdAnnotation, TimingComparison);

fn answer(r: FlowReport) -> Answer {
    (r.tags, r.extraction, r.annotation, r.comparison)
}

pub fn run(ctx: &Ctx, t: &mut Tracer, write_reference: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut reference: Option<Answer> = None;
    let mut last = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let (design, clock) = testcase(ctx.seed, t)?;
        let cfg = paper_config(clock, ctx.threads);
        let warm = answer(run_flow(&design, &cfg).map_err(err)?);
        out.setup_s.push(start.elapsed().as_secs_f64());
        match &reference {
            Some(first) => out.tally.op(&warm == first),
            None => {
                out.tally.op(lengths_in_band(&design, &warm.2));
                reference = Some(warm);
            }
        }
        last = Some((design, cfg));
    }
    let (design, cfg) = last.ok_or("no set-up ran")?;
    let reference = reference.ok_or("no set-up ran")?;

    if write_reference {
        std::fs::write(reference_path(), summary(&reference.2)).map_err(err)?;
    }
    if ctx.seed == REFERENCE_SEED {
        let stored = std::fs::read_to_string(reference_path()).map_err(err)?;
        out.tally.op(matches_reference(&reference.2, &stored));
    }

    let deadline = Instant::now() + ctx.seconds;
    let mut i = 0i64;
    loop {
        let untraced_done = out.op_ms.len() >= MIN_OPS;
        let traced_done = !t.enabled() || out.traced_op_ms.len() >= MIN_OPS;
        if Instant::now() >= deadline && untraced_done && traced_done {
            break;
        }
        if t.enabled() && i % 2 == 1 {
            t.set_op(i);
            let start = Instant::now();
            let got = traced_flow(t, &design, &cfg);
            out.traced_op_ms.push(start.elapsed().as_secs_f64() * 1e3);
            out.tally.op(got.is_ok_and(|a| a == reference));
        } else {
            let got = timed(&mut out, || run_flow(&design, &cfg));
            out.tally.op(got.is_ok_and(|r| answer(r) == reference));
        }
        i += 1;
    }

    if t.enabled() {
        t.set_op(REPLAY);
        let replayed: Result<(), String> = reference
            .0
            .sorted()
            .into_iter()
            .try_for_each(|gate| replay_window(t, &design, &cfg, gate));
        out.tally.op(replayed.is_ok());
        out.replay_ops = 1.0;
    }
    Ok(out)
}

/// The calls `run_flow` makes, each in its own span under an `op` root.
fn traced_flow(
    t: &mut Tracer,
    design: &Design,
    cfg: &postopc::FlowConfig,
) -> Result<Answer, String> {
    let root = t.begin("op");
    let result = (|| -> Result<Answer, String> {
        let model = t
            .span("sta.model_new", || {
                TimingModel::new(design, cfg.process.clone(), cfg.clock_ps)
            })
            .map_err(err)?;
        let compiled = t.span("sta.compile", || model.compile()).map_err(err)?;
        let mut scratch = compiled.scratch();
        let drawn = t
            .span("sta.evaluate", || compiled.evaluate(&mut scratch, None))
            .map_err(err)?;
        let tags = t.span("tags.from_critical_paths", || {
            TagSet::from_critical_paths(design, &drawn, crate::common::TESTCASE_PATHS)
        });
        let extracted = t
            .span("extract.gates", || {
                extract_gates(design, &cfg.extraction, &tags)
            })
            .map_err(err)?;
        record_extraction(t, &extracted.stats, tags.len());
        let comparison = t
            .span("compare.compare_with", || {
                TimingComparison::compare_with(
                    &compiled,
                    &mut scratch,
                    design,
                    &extracted.annotation,
                    cfg.report_paths,
                )
            })
            .map_err(err)?;
        Ok((tags, extracted.stats, extracted.annotation, comparison))
    })();
    t.end(root);
    result
}

/// Every extracted length is finite, positive and within 0.55–1.45× its
/// drawn length (the surrogate tier's physicality band).
pub fn lengths_in_band(design: &Design, annotation: &CdAnnotation) -> bool {
    let drawn: HashMap<(GateId, usize, MosKind), f64> = design
        .transistor_sites()
        .iter()
        .map(|s| ((s.gate, s.finger, s.kind), s.drawn_l_nm))
        .collect();
    annotation.gates().all(|(gate, ann)| {
        ann.transistors.iter().all(|tr| {
            drawn.get(&(*gate, tr.finger, tr.kind)).is_some_and(|&d| {
                [tr.l_delay_nm, tr.l_leakage_nm]
                    .iter()
                    .all(|&l| l.is_finite() && l > 0.0 && (0.55 * d..=1.45 * d).contains(&l))
            })
        })
    })
}

/// Per-gate mean delay-equivalent length, in gate order.
fn per_gate_l(annotation: &CdAnnotation) -> BTreeMap<u32, f64> {
    annotation
        .gates()
        .map(|(gate, ann)| {
            let n = ann.transistors.len().max(1) as f64;
            let sum: f64 = ann.transistors.iter().map(|tr| tr.l_delay_nm).sum();
            (gate.0, sum / n)
        })
        .collect()
}

fn summary(annotation: &CdAnnotation) -> String {
    let mut s = String::from(
        "# flow-cold reference, seed 11: per-gate mean delay-equivalent channel length\n# gate\tl_delay_nm\n",
    );
    for (gate, l) in per_gate_l(annotation) {
        s.push_str(&format!("{gate}\t{l:.4}\n"));
    }
    s
}

/// The same gates as the stored summary, each within
/// [`REFERENCE_TOLERANCE_NM`] of its stored length.
fn matches_reference(annotation: &CdAnnotation, stored: &str) -> bool {
    let mut expected = BTreeMap::new();
    for line in stored
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let mut cols = line.split('\t');
        let parsed = (|| {
            Some((
                cols.next()?.parse::<u32>().ok()?,
                cols.next()?.parse::<f64>().ok()?,
            ))
        })();
        match parsed {
            Some((gate, l)) => expected.insert(gate, l),
            None => return false,
        };
    }
    let got = per_gate_l(annotation);
    got.len() == expected.len()
        && got.iter().all(|(gate, l)| {
            expected
                .get(gate)
                .is_some_and(|e| (l - e).abs() <= REFERENCE_TOLERANCE_NM)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use postopc_sta::{GateAnnotation, TransistorCd};

    fn annotation(l: f64) -> CdAnnotation {
        let mut a = CdAnnotation::new();
        a.set_gate(
            GateId(4),
            GateAnnotation {
                transistors: vec![TransistorCd::drawn(MosKind::Nmos, 200.0, l, Some(0), 0)],
            },
        );
        a
    }

    #[test]
    fn reference_check_allows_one_nanometre() {
        let stored = summary(&annotation(88.0));
        assert!(matches_reference(&annotation(88.9), &stored));
        assert!(!matches_reference(&annotation(89.2), &stored));
        assert!(!matches_reference(&CdAnnotation::new(), &stored));
        assert!(!matches_reference(&annotation(88.0), "4\tnot-a-number\n"));
    }
}
