//! Monte Carlo parity tests: the batched SoA lane evaluator behind
//! `statistical::run` must be **bit-identical** to the naive
//! `run_reference` oracle for every sampling scheme, every lane remainder
//! (partial tail batches), annotated and drawn systematics, any thread
//! count, and seeded random designs.

use postopc_device::ProcessParams;
use postopc_layout::{generate, Design, NetId, TechRules};
use postopc_rng::rngs::StdRng;
use postopc_rng::{RngExt, SeedableRng};
use postopc_sta::{
    corner_annotation, statistical, MonteCarloConfig, NetAnnotation, Sampling, TimingModel, LANES,
};

fn rca_design() -> Design {
    Design::compile(
        generate::ripple_carry_adder(4).expect("netlist"),
        TechRules::n90(),
    )
    .expect("design")
}

/// A registered design so sequential endpoints (register D required
/// times, clock-launched arrivals) are covered too.
fn registered_design() -> Design {
    Design::compile(
        generate::registered_farm(4, 6, 3).expect("netlist"),
        TechRules::n90(),
    )
    .expect("design")
}

const ALL_SAMPLINGS: [Sampling; 3] = [
    Sampling::Plain,
    Sampling::Antithetic,
    Sampling::TailIs { tilt: 1.0 },
];

#[test]
fn every_lane_remainder_is_bit_identical() {
    // Sample counts covering each tail-batch size 1..LANES (plus the full
    // batch) and fewer samples than one batch, on drawn and annotated
    // systematics. The batched evaluator pads tail lanes by repeating the
    // last live sample; none of that padding may leak into results.
    let design = rca_design();
    let model = TimingModel::new(&design, ProcessParams::n90(), 900.0).expect("model");
    let systematic = corner_annotation(&model, -1.5);
    let counts = (0..LANES).map(|remainder| LANES + remainder.max(1));
    for systematic in [None, Some(&systematic)] {
        for samples in counts.clone().chain([LANES - 1]) {
            let cfg = MonteCarloConfig {
                samples,
                sigma_nm: 1.5,
                seed: 17,
                ..MonteCarloConfig::default()
            };
            let naive = statistical::run_reference(&model, systematic, &cfg).expect("naive mc");
            let batched = statistical::run(&model, systematic, &cfg).expect("batched mc");
            assert_eq!(naive, batched, "{samples} samples");
            for (a, b) in naive
                .worst_slacks_ps()
                .iter()
                .zip(batched.worst_slacks_ps())
            {
                assert_eq!(a.to_bits(), b.to_bits(), "{samples} samples");
            }
        }
    }
}

#[test]
fn batched_matches_naive_reference_for_every_sampling() {
    // Per sampling scheme, on a registered design (sequential endpoints)
    // with a systematic annotation.
    let design = registered_design();
    let model = TimingModel::new(&design, ProcessParams::n90(), 900.0).expect("model");
    let systematic = corner_annotation(&model, -1.5);
    for sampling in ALL_SAMPLINGS {
        let cfg = MonteCarloConfig {
            samples: 2 * LANES + 3,
            sigma_nm: 1.5,
            seed: 23,
            sampling,
            ..MonteCarloConfig::default()
        };
        let batched = statistical::run(&model, Some(&systematic), &cfg).expect("batched mc");
        let naive = statistical::run_reference(&model, Some(&systematic), &cfg).expect("naive mc");
        assert_eq!(batched, naive, "{sampling:?}");
        for (a, b) in batched
            .worst_slacks_ps()
            .iter()
            .zip(naive.worst_slacks_ps())
        {
            assert_eq!(a.to_bits(), b.to_bits(), "{sampling:?}");
        }
    }
}

#[test]
fn variance_reduced_samplers_are_thread_count_invariant() {
    // Plain streams, antithetic pair streams and tilted streams are
    // derived from the config alone (seed splitting per sample), so the
    // worker partition must never show up in the results — across an
    // uneven thread matrix, with four LANES-wide batches per worker at
    // the widest count and a lane remainder.
    let design = registered_design();
    let model = TimingModel::new(&design, ProcessParams::n90(), 900.0).expect("model");
    for sampling in [
        Sampling::Plain,
        Sampling::Antithetic,
        Sampling::TailIs { tilt: 1.2 },
    ] {
        let base = MonteCarloConfig {
            samples: 4 * 7 * LANES + 5,
            sigma_nm: 2.0,
            seed: 31,
            threads: Some(1),
            sampling,
            control_variate: true,
        };
        let one = statistical::run(&model, None, &base).expect("mc");
        for threads in [2, 3, 4, 7] {
            let cfg = MonteCarloConfig {
                threads: Some(threads),
                ..base.clone()
            };
            let many = statistical::run(&model, None, &cfg).expect("mc");
            assert_eq!(one, many, "{sampling:?} threads {threads}");
            for (a, b) in one.worst_slacks_ps().iter().zip(many.worst_slacks_ps()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{sampling:?} threads {threads}");
            }
        }
    }
}

#[test]
fn antithetic_reduces_mean_estimator_variance() {
    // The estimator property behind the scheme: over seed replicates, the
    // sample-mean of worst slack should fluctuate less under antithetic
    // pairing than under plain sampling at the same sample count.
    let design = rca_design();
    let model = TimingModel::new(&design, ProcessParams::n90(), 900.0).expect("model");
    let spread = |sampling: Sampling| {
        let means: Vec<f64> = (0..12u64)
            .map(|seed| {
                let cfg = MonteCarloConfig {
                    samples: 64,
                    sigma_nm: 2.0,
                    seed: 1000 + seed,
                    sampling,
                    ..MonteCarloConfig::default()
                };
                statistical::run(&model, None, &cfg)
                    .expect("mc")
                    .mean_worst_slack_ps()
            })
            .collect();
        let m = means.iter().sum::<f64>() / means.len() as f64;
        means.iter().map(|x| (x - m).powi(2)).sum::<f64>() / means.len() as f64
    };
    assert!(
        spread(Sampling::Antithetic) < spread(Sampling::Plain),
        "antithetic pairing should shrink the mean estimator's variance"
    );
}

#[test]
fn random_designs_match_reference() {
    // Seeded random differential: random layered logic, random sample
    // counts covering every lane remainder, random sigma and systematic
    // shift (with printed wire widths in two cases), every scheme with
    // and without the control variate, on one and three worker threads —
    // `run` must equal the oracle bit for bit.
    let mut rng = StdRng::seed_from_u64(0x5eed_ba7c);
    for remainder in 0..LANES {
        let gates = rng.random_range(20..90usize);
        let netlist = generate::random_logic(&generate::RandomLogicSpec {
            gates,
            inputs: rng.random_range(4..16usize),
            depth_bias: rng.random_range(1.0..3.0),
            seed: rng.random_range(0..u64::MAX),
        })
        .expect("netlist");
        let design = Design::compile(netlist, TechRules::n90()).expect("design");
        let model = TimingModel::new(&design, ProcessParams::n90(), 900.0).expect("model");
        let delta = rng.random_range(-2.0..2.0);
        let mut annotation = corner_annotation(&model, delta);
        if remainder % 4 == 3 {
            // Printed wire widths on every other net, drawn without a
            // random draw so the other cases keep their streams.
            for ni in (0..design.netlist().nets().len()).step_by(2) {
                let printed_width_nm = 104.0 + (ni % 5) as f64 * 8.0;
                annotation.set_net(NetId(ni as u32), NetAnnotation { printed_width_nm });
            }
        }
        let systematic = (remainder % 2 == 1).then_some(&annotation);
        let samples = LANES * rng.random_range(0..4usize) + remainder;
        let samples = if samples == 0 { LANES } else { samples };
        let sigma_nm = rng.random_range(0.25..3.0);
        let tilt = rng.random_range(0.5..1.5);
        for sampling in [
            Sampling::Plain,
            Sampling::Antithetic,
            Sampling::TailIs { tilt },
        ] {
            for control_variate in [false, true] {
                for threads in [1, 3] {
                    let cfg = MonteCarloConfig {
                        samples,
                        sigma_nm,
                        seed: rng.random_range(0..u64::MAX),
                        threads: Some(threads),
                        sampling,
                        control_variate,
                    };
                    let label = format!(
                        "{gates} gates, {samples} samples, sigma {sigma_nm:.3}, \
                         {sampling:?}, cv {control_variate}, {threads} threads"
                    );
                    let batched = statistical::run(&model, systematic, &cfg).expect("mc");
                    let naive =
                        statistical::run_reference(&model, systematic, &cfg).expect("naive");
                    assert_eq!(batched, naive, "{label}");
                    for (a, b) in batched
                        .worst_slacks_ps()
                        .iter()
                        .zip(naive.worst_slacks_ps())
                    {
                        assert_eq!(a.to_bits(), b.to_bits(), "{label}");
                    }
                }
            }
        }
    }
}
