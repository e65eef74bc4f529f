//! Guardband analysis: how much timing margin post-OPC extraction
//! recovers versus traditional worst-case corners.
//!
//! The practical payoff of experiment T6: if the extracted-distribution
//! Monte Carlo bound is tighter than the uniform-corner bound, a design
//! signed off on extraction can run at a faster clock (or ship with less
//! margin) — quantified here.

use crate::error::Result;
use postopc_sta::{
    analyze_corners_with, statistical, CdAnnotation, CompiledSta, Corner, MonteCarloConfig,
    MonteCarloResult, StaScratch, TimingModel,
};

/// Guardband comparison configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardbandConfig {
    /// Uniform corner CD guardband (3σ) in nm.
    pub corner_sigma3_nm: f64,
    /// Monte Carlo settings for the extracted-distribution bound.
    pub monte_carlo: MonteCarloConfig,
    /// Percentile of the MC delay distribution used as the statistical
    /// bound (0.99 = 99th percentile of delay = 1st percentile of slack).
    pub percentile: f64,
}

impl Default for GuardbandConfig {
    fn default() -> Self {
        GuardbandConfig {
            corner_sigma3_nm: 6.0,
            monte_carlo: MonteCarloConfig {
                samples: 300,
                sigma_nm: 1.5,
                seed: 7,
                ..MonteCarloConfig::default()
            },
            percentile: 0.99,
        }
    }
}

/// The two worst-case bounds and the margin between them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardbandAnalysis {
    /// Nominal (drawn TT) critical delay, in ps.
    pub nominal_delay_ps: f64,
    /// Slow-corner critical delay, in ps.
    pub corner_delay_ps: f64,
    /// Extracted-distribution percentile delay, in ps.
    pub statistical_delay_ps: f64,
    /// Statistical delay at the 50th / 90th / 99th delay percentiles, in
    /// ps — the distribution profile behind `statistical_delay_ps`,
    /// computed in one pass over the cached quantile view.
    pub statistical_profile_ps: [f64; 3],
    /// Margin the corner wastes relative to the statistical bound, in ps.
    pub recoverable_margin_ps: f64,
}

impl GuardbandAnalysis {
    /// Runs both analyses against the same timing model.
    ///
    /// `extracted` is the systematic annotation the Monte Carlo samples
    /// around (pass the post-OPC extraction result); the corner uses the
    /// traditional uniform shift.
    ///
    /// # Errors
    ///
    /// Propagates timing and Monte Carlo errors.
    pub fn compute(
        model: &TimingModel<'_>,
        extracted: &CdAnnotation,
        config: &GuardbandConfig,
    ) -> Result<GuardbandAnalysis> {
        // One compiled evaluator serves all three analyses (drawn,
        // corner, Monte Carlo) instead of compiling per call.
        let compiled = model.compile()?;
        let mut scratch = compiled.scratch();
        Self::compute_with(&compiled, &mut scratch, extracted, config)
    }

    /// [`Self::compute`] against an existing compiled evaluator and
    /// scratch — warm sessions ([`crate::TimingSession`]) answer repeated
    /// guardband queries without recompiling.
    ///
    /// Leaves `scratch` holding the SS-corner evaluation, not the
    /// extracted baseline; callers that interleave incremental (ECO)
    /// queries must re-establish their baseline afterwards.
    ///
    /// # Errors
    ///
    /// Propagates timing and Monte Carlo errors.
    pub fn compute_with(
        compiled: &CompiledSta<'_>,
        scratch: &mut StaScratch,
        extracted: &CdAnnotation,
        config: &GuardbandConfig,
    ) -> Result<GuardbandAnalysis> {
        let mc = statistical::run_with(compiled, Some(extracted), &config.monte_carlo)?;
        Self::from_monte_carlo(compiled, scratch, &mc, config)
    }

    /// [`Self::compute_with`] around an existing Monte Carlo run: `mc`
    /// must be `config.monte_carlo`'s run around the extracted
    /// annotation, which is how a warm session answers a guardband from
    /// its memo of that run.
    ///
    /// Leaves `scratch` holding the SS-corner evaluation.
    ///
    /// # Errors
    ///
    /// Propagates timing errors.
    pub(crate) fn from_monte_carlo(
        compiled: &CompiledSta<'_>,
        scratch: &mut StaScratch,
        mc: &MonteCarloResult,
        config: &GuardbandConfig,
    ) -> Result<GuardbandAnalysis> {
        let model = compiled.model();
        let nominal = compiled.evaluate(scratch, None)?;
        let ss = analyze_corners_with(
            compiled,
            scratch,
            &[Corner {
                name: "SS".into(),
                delta_l_nm: config.corner_sigma3_nm,
            }],
        )?
        .pop()
        .unwrap_or_else(|| unreachable!("one corner in, one report out"));
        // One multi-quantile query against the cached sorted view: the
        // signoff percentile plus the p50/p90/p99 delay profile (delay
        // percentile p = slack quantile 1 - p).
        let qs = mc.worst_slack_quantiles_ps(&[1.0 - config.percentile, 0.5, 0.1, 0.01]);
        let statistical_delay = model.clock_ps() - qs[0];
        Ok(GuardbandAnalysis {
            nominal_delay_ps: nominal.critical_delay_ps(),
            corner_delay_ps: ss.critical_delay_ps(),
            statistical_delay_ps: statistical_delay,
            statistical_profile_ps: [
                model.clock_ps() - qs[1],
                model.clock_ps() - qs[2],
                model.clock_ps() - qs[3],
            ],
            recoverable_margin_ps: ss.critical_delay_ps() - statistical_delay,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{extract_gates, ExtractionConfig, OpcMode};
    use crate::tags::TagSet;
    use postopc_device::ProcessParams;
    use postopc_layout::{generate, Design, TechRules};

    #[test]
    fn extraction_recovers_margin_over_corners() {
        let design = Design::compile(
            generate::ripple_carry_adder(2).expect("netlist"),
            TechRules::n90(),
        )
        .expect("design");
        let model = TimingModel::new(&design, ProcessParams::n90(), 800.0).expect("model");
        let mut cfg = ExtractionConfig::standard();
        cfg.opc_mode = OpcMode::Rule;
        let out = extract_gates(&design, &cfg, &TagSet::all(&design)).expect("extraction");
        let analysis = GuardbandAnalysis::compute(
            &model,
            &out.annotation,
            &GuardbandConfig {
                monte_carlo: MonteCarloConfig {
                    samples: 80,
                    sigma_nm: 1.5,
                    seed: 7,
                    ..MonteCarloConfig::default()
                },
                ..GuardbandConfig::default()
            },
        )
        .expect("analysis");
        // The corner bound is the most pessimistic; the statistical bound
        // sits between nominal and corner.
        assert!(analysis.corner_delay_ps > analysis.statistical_delay_ps);
        assert!(analysis.statistical_delay_ps > 0.9 * analysis.nominal_delay_ps);
        assert!(analysis.recoverable_margin_ps > 0.0);
        assert!(analysis.recoverable_margin_ps < 0.5 * analysis.corner_delay_ps);
        // The delay profile is monotone in the percentile, and the default
        // signoff percentile (0.99) coincides with the profile's p99 entry.
        let [p50, p90, p99] = analysis.statistical_profile_ps;
        assert!(p50 <= p90 && p90 <= p99);
        assert_eq!(p99, analysis.statistical_delay_ps);
    }
}
