//! Sort-once quantile estimation.
//!
//! One public home for the Hyndman–Fan type 7 estimator (the R/NumPy
//! default) that statistical timing consumers — the Monte Carlo result
//! ([`crate::MonteCarloResult`]), the convergence study behind the
//! sampling-accuracy gates, and guardband sweeps — previously each
//! re-derived.
//! The contract is *sort once, query many times*: callers build an
//! ascending view with [`sorted_ascending`] (or keep their own), then
//! issue O(1) [`quantile_of_sorted`] queries against it.

/// Returns a copy of `values` sorted ascending by [`f64::total_cmp`],
/// the view the `*_of_sorted` queries expect. Total ordering means NaNs
/// (if any leak in) land deterministically at the top instead of
/// poisoning the sort.
#[must_use]
pub fn sorted_ascending(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The `q`-quantile (0..=1, clamped) of an ascending-sorted sample, by
/// linear interpolation between order statistics (Hyndman–Fan type 7):
/// with `n` sorted samples `x[0..n]`, the position is `h = (n - 1) q`
/// and the estimate `x[⌊h⌋] + (h - ⌊h⌋) · (x[⌊h⌋+1] - x[⌊h⌋])`.
/// `q = 0` and `q = 1` return the sample extremes exactly.
///
/// # Panics
///
/// Panics if `sorted` is empty — a quantile of nothing has no value.
#[must_use]
pub fn quantile_of_sorted(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let h = (n - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = (h.floor() as usize).min(n - 1);
    let frac = h - lo as f64;
    if frac == 0.0 || lo + 1 >= n {
        sorted[lo]
    } else {
        sorted[lo] + frac * (sorted[lo + 1] - sorted[lo])
    }
}

/// [`quantile_of_sorted`] for several levels against one sorted view —
/// callers needing a quantile profile (e.g. guardband sweeps) issue one
/// call instead of re-sorting per level.
///
/// # Panics
///
/// Panics if `sorted` is empty.
#[must_use]
pub fn quantiles_of_sorted(sorted: &[f64], qs: &[f64]) -> Vec<f64> {
    qs.iter().map(|&q| quantile_of_sorted(sorted, q)).collect()
}

/// Sorts `(value, weight)` pairs ascending by value ([`f64::total_cmp`]),
/// the view the weighted quantile queries expect. The sort is stable, so
/// ties keep their input order and the result is deterministic.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[must_use]
pub fn sorted_with_weights(values: &[f64], weights: &[f64]) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(values.len(), weights.len(), "one weight per value");
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let sorted = order.iter().map(|&i| values[i]).collect();
    let w = order.iter().map(|&i| weights[i]).collect();
    (sorted, w)
}

/// The `q`-quantile (0..=1, clamped) of an ascending-sorted *weighted*
/// sample — the self-normalized estimator importance-sampled Monte Carlo
/// queries ([`crate::statistical::Sampling::TailIs`]).
///
/// Weights are normalized internally (`ŵᵢ = wᵢ / Σw`), then each sample
/// gets the type-7 plotting position
/// `pᵢ = Cᵢ₋₁ · n_eff / (n_eff − 1)` with `p₀ = 0`, where `Cᵢ₋₁` is the
/// cumulative normalized weight *before* sample `i` and
/// `n_eff = 1 / Σŵᵢ²` is the Kish effective sample size. The estimate
/// interpolates linearly between the bracketing positions and clamps to
/// the last value past the final position. At equal weights
/// `pᵢ = i / (n − 1)` exactly, so the estimator reduces to the
/// unweighted Hyndman–Fan type 7 of [`quantile_of_sorted`] (the
/// debiasing that fixes the small-`n` low bias of plain weighted-ECDF
/// inversion). Degenerate inputs fall back deterministically: a single
/// sample is every quantile, and `n_eff ≤ 1` (all mass on one sample)
/// answers with the weighted-ECDF inverse over the positive-weight
/// samples.
///
/// # Panics
///
/// Panics if the slices are empty or differ in length, if any weight is
/// negative or non-finite, or if the weights sum to zero.
#[must_use]
pub fn weighted_quantile_of_sorted(sorted: &[f64], weights: &[f64], q: f64) -> f64 {
    assert_eq!(sorted.len(), weights.len(), "one weight per value");
    let n = sorted.len();
    assert!(n > 0, "a quantile of nothing has no value");
    assert!(
        weights.iter().all(|w| w.is_finite() && *w >= 0.0),
        "weights must be finite and non-negative"
    );
    if n == 1 {
        return sorted[0];
    }
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weights must not sum to zero");
    let q = q.clamp(0.0, 1.0);
    let sum_sq: f64 = weights.iter().map(|w| (w / total) * (w / total)).sum();
    let n_eff = 1.0 / sum_sq;
    if n_eff <= 1.0 + 1e-12 {
        // All mass effectively on one sample: the interpolation scale
        // n_eff/(n_eff − 1) is unusable, so invert the weighted ECDF
        // over the samples that actually carry weight.
        let mut cum = 0.0;
        for (x, w) in sorted.iter().zip(weights) {
            if *w > 0.0 {
                cum += w / total;
                if cum >= q {
                    return *x;
                }
            }
        }
        return sorted[n - 1];
    }
    let scale = n_eff / (n_eff - 1.0);
    let mut prev_p = 0.0;
    let mut prev_x = sorted[0];
    let mut cum = 0.0;
    for i in 1..n {
        cum += weights[i - 1] / total;
        let p = cum * scale;
        let x = sorted[i];
        if q <= p {
            if p > prev_p {
                return prev_x + (q - prev_p) / (p - prev_p) * (x - prev_x);
            }
            // Zero-width segment (a zero-weight run): step to its end.
            return x;
        }
        prev_p = p;
        prev_x = x;
    }
    sorted[n - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_between_order_statistics() {
        // Hyndman–Fan type 7 on a known vector: n = 5, h = 4q.
        let sorted = [10.0, 20.0, 40.0, 80.0, 160.0];
        assert_eq!(quantile_of_sorted(&sorted, 0.0), 10.0);
        assert_eq!(quantile_of_sorted(&sorted, 0.25), 20.0);
        // h = 4 * 0.5 = 2 → exactly the middle order statistic.
        assert_eq!(quantile_of_sorted(&sorted, 0.5), 40.0);
        // h = 4 * 0.1 = 0.4 → 10 + 0.4 * (20 - 10).
        assert!((quantile_of_sorted(&sorted, 0.1) - 14.0).abs() < 1e-12);
        // h = 4 * 0.9 = 3.6 → 80 + 0.6 * (160 - 80).
        assert!((quantile_of_sorted(&sorted, 0.9) - 128.0).abs() < 1e-12);
        assert_eq!(quantile_of_sorted(&sorted, 1.0), 160.0);
        // Out-of-range quantiles clamp to the extremes.
        assert_eq!(quantile_of_sorted(&sorted, -0.5), 10.0);
        assert_eq!(quantile_of_sorted(&sorted, 1.5), 160.0);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let sorted = [7.5];
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(quantile_of_sorted(&sorted, q), 7.5);
        }
    }

    #[test]
    fn sorted_ascending_orders_totally() {
        let sorted = sorted_ascending(&[3.0, -1.0, 2.0, -0.0, 0.0]);
        // total_cmp puts -0.0 before +0.0 deterministically.
        assert_eq!(sorted.len(), 5);
        assert_eq!(sorted[0], -1.0);
        assert!(sorted[1].is_sign_negative() && sorted[1] == 0.0);
        assert!(sorted[2].is_sign_positive() && sorted[2] == 0.0);
        assert_eq!(&sorted[3..], &[2.0, 3.0]);
    }

    #[test]
    fn weighted_equal_weights_reduce_to_type7() {
        // Property: uniform weights must reproduce the unweighted
        // estimator for any sample and any level (up to rounding).
        let sorted = sorted_ascending(&[10.0, 20.0, 40.0, 80.0, 160.0, -3.0, 0.5]);
        let weights = vec![1.0; sorted.len()];
        for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let w = weighted_quantile_of_sorted(&sorted, &weights, q);
            let u = quantile_of_sorted(&sorted, q);
            assert!((w - u).abs() < 1e-9, "q={q}: weighted {w} vs type7 {u}");
        }
        // Scaling every weight by a constant changes nothing.
        let scaled = vec![0.125; sorted.len()];
        for q in [0.01, 0.5, 0.99] {
            assert_eq!(
                weighted_quantile_of_sorted(&sorted, &weights, q).to_bits(),
                weighted_quantile_of_sorted(&sorted, &scaled, q).to_bits()
            );
        }
    }

    #[test]
    fn weighted_degenerate_weights_answer_from_the_massive_sample() {
        // All mass on one sample: every interior quantile is that value.
        let sorted = [1.0, 2.0, 3.0, 4.0];
        let weights = [0.0, 0.0, 1.0, 0.0];
        for q in [0.01, 0.25, 0.5, 0.75, 0.99, 1.0] {
            assert_eq!(weighted_quantile_of_sorted(&sorted, &weights, q), 3.0);
        }
        // Near-degenerate (tiny but positive side weights) stays finite
        // and inside the sample range.
        let near = [1e-300, 1e-300, 1.0, 1e-300];
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            let v = weighted_quantile_of_sorted(&sorted, &near, q);
            assert!((1.0..=4.0).contains(&v), "q={q} escaped the range: {v}");
        }
    }

    #[test]
    fn weighted_single_sample_is_every_quantile() {
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(weighted_quantile_of_sorted(&[7.5], &[0.25], q), 7.5);
        }
    }

    #[test]
    fn weighted_all_equal_values_are_every_quantile() {
        // All-equal slacks: whatever the weights, the answer is the value.
        let sorted = [4.25; 9];
        let weights = [0.3, 1.0, 0.01, 2.0, 0.5, 0.5, 0.7, 0.2, 4.0];
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(weighted_quantile_of_sorted(&sorted, &weights, q), 4.25);
        }
    }

    #[test]
    fn weighted_profile_is_monotone_and_zero_weights_are_skipped() {
        let values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0];
        let weights = [0.5, 0.0, 1.5, 1.0, 0.25, 2.0, 0.75];
        let (sorted, w) = sorted_with_weights(&values, &weights);
        assert_eq!(sorted, sorted_ascending(&values));
        let qs: Vec<f64> = (0..=20).map(|i| f64::from(i) / 20.0).collect();
        let profile: Vec<f64> = qs
            .iter()
            .map(|&q| weighted_quantile_of_sorted(&sorted, &w, q))
            .collect();
        for pair in profile.windows(2) {
            assert!(pair[0] <= pair[1], "profile not monotone: {profile:?}");
        }
        // Estimates stay inside the positive-weight sample range.
        for v in &profile {
            assert!((2.0..=9.0).contains(v), "escaped support: {v}");
        }
    }

    #[test]
    fn multi_quantile_matches_scalar_queries() {
        let sorted = sorted_ascending(&[5.0, 1.0, 9.0, 3.0, 7.0, 2.0]);
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0];
        let profile = quantiles_of_sorted(&sorted, &qs);
        for (i, &q) in qs.iter().enumerate() {
            assert_eq!(
                profile[i].to_bits(),
                quantile_of_sorted(&sorted, q).to_bits()
            );
        }
        // Quantile profile of any sample is monotone in q.
        for pair in profile.windows(2) {
            assert!(pair[0] <= pair[1]);
        }
    }
}
