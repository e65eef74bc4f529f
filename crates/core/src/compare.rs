//! Drawn-vs-silicon timing comparison: speed-path criticality reordering
//! and worst-slack deviation — the paper's headline metrics.

use crate::error::Result;
use postopc_layout::{Design, NetId};
use postopc_sta::{CdAnnotation, CompiledSta, StaScratch, TimingPath, TimingReport};
use std::collections::HashMap;

/// The two timing views of one design plus path-level comparisons.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingComparison {
    /// Drawn-CD timing.
    pub drawn: TimingReport,
    /// Post-OPC-annotated timing.
    pub annotated: TimingReport,
    /// Top-k speed paths under drawn timing.
    pub drawn_paths: Vec<TimingPath>,
    /// Top-k speed paths under annotated timing.
    pub annotated_paths: Vec<TimingPath>,
}

impl TimingComparison {
    /// Runs the drawn and the annotated analysis through a compiled
    /// evaluator and scratch the caller shares with its other analyses
    /// (the flow's drawn pass), and collects the top-`k` speed paths of
    /// each.
    ///
    /// # Errors
    ///
    /// Propagates timing-analysis errors.
    pub fn compare_with(
        compiled: &CompiledSta<'_>,
        scratch: &mut StaScratch,
        design: &Design,
        annotation: &CdAnnotation,
        k: usize,
    ) -> Result<TimingComparison> {
        let drawn = compiled.evaluate(scratch, None)?;
        let annotated = compiled.evaluate(scratch, Some(annotation))?;
        let drawn_paths = drawn.top_paths(design, k);
        let annotated_paths = annotated.top_paths(design, k);
        Ok(TimingComparison {
            drawn,
            annotated,
            drawn_paths,
            annotated_paths,
        })
    }

    /// Kendall rank correlation (τ-b, tie-adjusted) between the drawn and
    /// annotated criticality orderings of the drawn top-k endpoints.
    ///
    /// τ = 1 means the ranking is unchanged; values well below 1 are the
    /// paper's "significant reordering of speed path criticality". The
    /// tie adjustment matters because symmetric layouts produce exactly
    /// tied slacks: an unchanged ranking with ties still scores τ = 1.
    pub fn kendall_tau(&self) -> f64 {
        let endpoints: Vec<NetId> = self.drawn_paths.iter().map(|p| p.endpoint).collect();
        if endpoints.len() < 2 {
            return 1.0;
        }
        let drawn_slack: HashMap<NetId, f64> = self
            .drawn_paths
            .iter()
            .map(|p| (p.endpoint, p.slack_ps))
            .collect();
        // Annotated slack of each endpoint.
        let annotated_slack: HashMap<NetId, f64> = endpoints
            .iter()
            .map(|&e| (e, self.annotated.slack_ps(e)))
            .collect();
        let n = endpoints.len();
        let mut concordant = 0i64;
        let mut discordant = 0i64;
        let mut drawn_ties = 0i64;
        let mut annotated_ties = 0i64;
        for i in 0..n {
            for j in (i + 1)..n {
                let di = drawn_slack[&endpoints[i]];
                let dj = drawn_slack[&endpoints[j]];
                let si = annotated_slack[&endpoints[i]];
                let sj = annotated_slack[&endpoints[j]];
                if di == dj {
                    drawn_ties += 1;
                }
                if si == sj {
                    annotated_ties += 1;
                }
                if di == dj || si == sj {
                    continue;
                }
                // Drawn order: i more critical than j by construction.
                if si < sj {
                    concordant += 1;
                } else {
                    discordant += 1;
                }
            }
        }
        let pairs = (n * (n - 1) / 2) as i64;
        let denom = (((pairs - drawn_ties) as f64) * ((pairs - annotated_ties) as f64)).sqrt();
        if denom == 0.0 {
            return 1.0; // Everything tied in both views: no reordering.
        }
        (concordant - discordant) as f64 / denom
    }

    /// Mean absolute rank displacement of the drawn top-k endpoints when
    /// re-ranked by annotated slack.
    pub fn mean_rank_displacement(&self) -> f64 {
        let endpoints: Vec<NetId> = self.drawn_paths.iter().map(|p| p.endpoint).collect();
        if endpoints.is_empty() {
            return 0.0;
        }
        let mut by_annotated = endpoints.clone();
        by_annotated.sort_by(|a, b| {
            self.annotated
                .slack_ps(*a)
                .total_cmp(&self.annotated.slack_ps(*b))
        });
        let annotated_rank: HashMap<NetId, usize> = by_annotated
            .iter()
            .enumerate()
            .map(|(r, &e)| (e, r))
            .collect();
        endpoints
            .iter()
            .enumerate()
            .map(|(drawn_rank, e)| (annotated_rank[e] as f64 - drawn_rank as f64).abs())
            .sum::<f64>()
            / endpoints.len() as f64
    }

    /// Number of endpoints in the annotated top-k that were *not* in the
    /// drawn top-k (paths that "became critical" only on silicon).
    pub fn newly_critical(&self) -> usize {
        let drawn: std::collections::HashSet<NetId> =
            self.drawn_paths.iter().map(|p| p.endpoint).collect();
        self.annotated_paths
            .iter()
            .filter(|p| !drawn.contains(&p.endpoint))
            .count()
    }

    /// Relative deviation of the worst-case slack between the two views:
    /// `|ws_annotated − ws_drawn| / |ws_drawn|` — the paper reports 36.4%.
    pub fn worst_slack_shift_fraction(&self) -> f64 {
        let d = self.drawn.worst_slack_ps();
        let a = self.annotated.worst_slack_ps();
        if d.abs() < 1e-12 {
            return 0.0;
        }
        (a - d).abs() / d.abs()
    }

    /// Relative deviation of the critical-path delay.
    pub fn critical_delay_shift_fraction(&self) -> f64 {
        let d = self.drawn.critical_delay_ps();
        if d.abs() < 1e-12 {
            return 0.0;
        }
        (self.annotated.critical_delay_ps() - d) / d
    }

    /// Relative change of total leakage.
    pub fn leakage_shift_fraction(&self) -> f64 {
        let d = self.drawn.leakage_ua();
        if d.abs() < 1e-12 {
            return 0.0;
        }
        (self.annotated.leakage_ua() - d) / d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use postopc_device::{MosKind, ProcessParams};
    use postopc_layout::{generate, GateId, TechRules};
    use postopc_sta::{GateAnnotation, TimingModel};

    fn compare(model: &TimingModel, d: &Design, ann: &CdAnnotation, k: usize) -> TimingComparison {
        let compiled = model.compile().expect("compile");
        TimingComparison::compare_with(&compiled, &mut compiled.scratch(), d, ann, k)
            .expect("compare")
    }

    fn design() -> Design {
        // The composite test case has many near-critical paths — the
        // precondition for criticality reordering.
        Design::compile(
            generate::paper_testcase(5).expect("netlist"),
            TechRules::n90(),
        )
        .expect("design")
    }

    /// A synthetic annotation that perturbs each gate deterministically
    /// but gate-dependently (stand-in for real extraction).
    fn perturbed_annotation(d: &Design, model: &TimingModel<'_>, amplitude: f64) -> CdAnnotation {
        let mut ann = CdAnnotation::new();
        for (gi, g) in d.netlist().gates().iter().enumerate() {
            let mut records = model.library().drawn_transistors(g.kind, g.drive).to_vec();
            // Deterministic pseudo-random shift in [-amplitude, amplitude].
            let h = (gi as f64 * 2.399963) % 2.0 - 1.0;
            for r in &mut records {
                let shift = amplitude * h * if r.kind == MosKind::Nmos { 1.0 } else { 0.8 };
                r.l_delay_nm += shift;
                r.l_leakage_nm += shift;
            }
            ann.set_gate(
                GateId(gi as u32),
                GateAnnotation {
                    transistors: records,
                },
            );
        }
        ann
    }

    #[test]
    fn identical_annotation_gives_tau_one() {
        let d = design();
        let model = TimingModel::new(&d, ProcessParams::n90(), 600.0).expect("model");
        let mut ann = CdAnnotation::new();
        for (gi, g) in d.netlist().gates().iter().enumerate() {
            ann.set_gate(
                GateId(gi as u32),
                GateAnnotation {
                    transistors: model.library().drawn_transistors(g.kind, g.drive).to_vec(),
                },
            );
        }
        let cmp = compare(&model, &d, &ann, 10);
        assert!((cmp.kendall_tau() - 1.0).abs() < 1e-12);
        assert_eq!(cmp.mean_rank_displacement(), 0.0);
        assert_eq!(cmp.newly_critical(), 0);
        assert!(cmp.worst_slack_shift_fraction() < 1e-12);
    }

    #[test]
    fn perturbation_reorders_paths() {
        let d = design();
        let model = TimingModel::new(&d, ProcessParams::n90(), 600.0).expect("model");
        let ann = perturbed_annotation(&d, &model, 6.0);
        let cmp = compare(&model, &d, &ann, 15);
        assert!(
            cmp.kendall_tau() < 0.999,
            "tau = {} should drop under perturbation",
            cmp.kendall_tau()
        );
        assert!(cmp.mean_rank_displacement() > 0.0);
        assert!(cmp.worst_slack_shift_fraction() > 0.0);
    }

    #[test]
    fn stronger_perturbation_reorders_more() {
        let d = design();
        let model = TimingModel::new(&d, ProcessParams::n90(), 600.0).expect("model");
        let weak = compare(&model, &d, &perturbed_annotation(&d, &model, 1.0), 15);
        let strong = compare(&model, &d, &perturbed_annotation(&d, &model, 8.0), 15);
        assert!(strong.kendall_tau() <= weak.kendall_tau());
        assert!(strong.worst_slack_shift_fraction() >= weak.worst_slack_shift_fraction());
    }

    #[test]
    fn uniformly_short_gates_speed_up_timing() {
        let d = design();
        let model = TimingModel::new(&d, ProcessParams::n90(), 600.0).expect("model");
        let mut ann = CdAnnotation::new();
        for (gi, g) in d.netlist().gates().iter().enumerate() {
            let mut records = model.library().drawn_transistors(g.kind, g.drive).to_vec();
            for r in &mut records {
                r.l_delay_nm -= 4.0;
                r.l_leakage_nm -= 4.0;
            }
            ann.set_gate(
                GateId(gi as u32),
                GateAnnotation {
                    transistors: records,
                },
            );
        }
        let cmp = compare(&model, &d, &ann, 10);
        assert!(cmp.critical_delay_shift_fraction() < 0.0);
        assert!(cmp.leakage_shift_fraction() > 0.0);
    }
}
