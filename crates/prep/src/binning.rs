//! Discretization of continuous features (§III-E).
//!
//! The paper bins continuous attributes into quartiles via *equal
//! frequency* binning, after peeling off two kinds of special values:
//!
//! * a *zero bin* for zero-inflated features (`SM Util = 0%`,
//!   `GMem Used = 0GB`);
//! * a *spike bin* for default request values (`CPU Request = Std` —
//!   roughly half of PAI jobs request exactly the standard 600 cores).
//!
//! Equal-*width* binning is also implemented because the paper evaluates
//! and rejects it (long-tailed features leave high bins empty); the
//! ablation bench reproduces that comparison.

/// How bin edges are derived from the observed values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BinningScheme {
    /// Edges at quantiles: every bin holds ~the same number of points.
    #[default]
    EqualFrequency,
    /// Edges evenly spaced over `[min, max]`.
    EqualWidth,
}

/// Computed edges for one feature: `edges.len() == n_bins - 1` interior
/// boundaries; value `v` lands in bin `i` iff `edges[i-1] < v <= edges[i]`
/// (left-open/right-closed, first bin open below). Right-closed intervals
/// make heavy tie masses — e.g. the >50% zero queue waits on an unloaded
/// pool — land in the *lowest* bin, which is what `Queue = Bin1` must mean.
#[derive(Debug, Clone, PartialEq)]
pub struct BinEdges {
    edges: Vec<f64>,
    n_bins: usize,
}

impl BinEdges {
    /// Fits edges over `values`, ignoring non-finite entries (NaN, ±inf):
    /// trace columns routinely carry sentinel NaNs for never-scheduled
    /// jobs, and a single one reaching the sort would poison every edge
    /// in a release build.
    ///
    /// Returns `None` when no finite values remain. With heavily tied
    /// data, equal-frequency edges may coincide; values equal to a run of
    /// duplicate edges land below the whole run (right-closed intervals),
    /// so the tied mass fills the lowest bin and the skipped bins are
    /// simply empty.
    pub fn fit(values: &[f64], n_bins: usize, scheme: BinningScheme) -> Option<BinEdges> {
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        sorted.sort_unstable_by(f64::total_cmp);
        BinEdges::fit_sorted(&sorted, n_bins, scheme)
    }

    /// [`BinEdges::fit`] over values that are already finite and sorted
    /// by [`f64::total_cmp`], for callers that sorted them for another
    /// reason (the spike search) and should not pay for a second sort.
    pub(crate) fn fit_sorted(
        sorted: &[f64],
        n_bins: usize,
        scheme: BinningScheme,
    ) -> Option<BinEdges> {
        assert!(n_bins >= 1, "need at least one bin");
        if sorted.is_empty() {
            return None;
        }
        let edges = match scheme {
            BinningScheme::EqualFrequency => (1..n_bins)
                .map(|i| try_quantile_sorted(sorted, i as f64 / n_bins as f64))
                .collect::<Option<Vec<f64>>>()?,
            BinningScheme::EqualWidth => {
                let lo = sorted[0];
                let hi = sorted[sorted.len() - 1];
                let width = (hi - lo) / n_bins as f64;
                (1..n_bins).map(|i| lo + width * i as f64).collect()
            }
        };
        Some(BinEdges { edges, n_bins })
    }

    /// The bin index of `value`, in `0..n_bins`.
    pub fn assign(&self, value: f64) -> usize {
        // Count of edges strictly below value; a value equal to an edge
        // falls in the lower bin, consistent with right-closed intervals
        // (e_{i-1}, e_i].
        self.edges.partition_point(|&e| e < value)
    }

    /// Number of bins.
    pub fn n_bins(&self) -> usize {
        self.n_bins
    }

    /// The interior edges.
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Histogram of `values` across the bins.
    pub fn histogram(&self, values: &[f64]) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_bins];
        for &v in values {
            counts[self.assign(v)] += 1;
        }
        counts
    }
}

/// Linear-interpolated quantile of a slice sorted by [`f64::total_cmp`].
///
/// Non-finite entries are ignored: total order puts `-NaN`/`-inf` before
/// and `+inf`/`+NaN` after every finite value, so the finite region is a
/// contiguous sub-slice and the quantile is taken over it alone. Returns
/// `None` when no finite value remains — the all-sentinel column (every
/// sample NaN, e.g. a GPU metric on a CPU-only pool) is a caller decision,
/// not a crash; [`BinEdges::fit`] propagates it as `None`.
pub fn try_quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q));
    let start = sorted.partition_point(|v| !v.is_finite() && v.is_sign_negative());
    let end = sorted.partition_point(|v| v.is_finite() || v.is_sign_negative());
    let finite = &sorted[start..end];
    if finite.is_empty() {
        return None;
    }
    if finite.len() == 1 {
        return Some(finite[0]);
    }
    let pos = q * (finite.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(finite[lo] * (1.0 - frac) + finite[hi] * frac)
}

/// Infallible wrapper over [`try_quantile_sorted`] for callers that have
/// already established at least one finite value. Panics otherwise.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    try_quantile_sorted(sorted, q).expect("no finite values to take a quantile of")
}

/// Detects a "standard value" spike: the modal value of `sorted` (finite
/// values ordered by [`f64::total_cmp`]) if it covers at least `min_share`
/// of them. Exact equality is intended — request defaults are exact
/// constants in schedulers. Taking the values sorted lets the encoder fit
/// bin edges from the same sort.
pub fn detect_spike(sorted: &[f64], min_share: f64) -> Option<f64> {
    debug_assert!(sorted.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()));
    if sorted.is_empty() {
        return None;
    }
    let mut best_value = sorted[0];
    let mut best_count = 0usize;
    let mut i = 0;
    while i < sorted.len() {
        let mut j = i;
        while j < sorted.len() && sorted[j] == sorted[i] {
            j += 1;
        }
        if j - i > best_count {
            best_count = j - i;
            best_value = sorted[i];
        }
        i = j;
    }
    if best_count as f64 / sorted.len() as f64 >= min_share {
        Some(best_value)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_frequency_quartiles_balance() {
        let values: Vec<f64> = (0..1000).map(|i| (i as f64).powi(2)).collect();
        let edges = BinEdges::fit(&values, 4, BinningScheme::EqualFrequency).unwrap();
        let hist = edges.histogram(&values);
        for &count in &hist {
            assert!((230..=270).contains(&count), "unbalanced {hist:?}");
        }
    }

    #[test]
    fn equal_width_fails_on_long_tails() {
        // Long-tailed data: most mass in the lowest equal-width bin — the
        // paper's §III-E argument against equal-width binning.
        let values: Vec<f64> = (1..1000).map(|i| 1.0 / i as f64 * 1e6).collect();
        let edges = BinEdges::fit(&values, 4, BinningScheme::EqualWidth).unwrap();
        let hist = edges.histogram(&values);
        assert!(hist[0] as f64 / values.len() as f64 > 0.9);
        assert!(hist[2] <= 5);
    }

    #[test]
    fn assign_right_closed_intervals() {
        let edges = BinEdges {
            edges: vec![10.0, 20.0, 30.0],
            n_bins: 4,
        };
        assert_eq!(edges.assign(-5.0), 0);
        assert_eq!(edges.assign(10.0), 0);
        assert_eq!(edges.assign(10.001), 1);
        assert_eq!(edges.assign(25.0), 2);
        assert_eq!(edges.assign(30.0), 2);
        assert_eq!(edges.assign(1e9), 3);
    }

    #[test]
    fn tied_edges_take_lowest_bin() {
        // >50% zeros make q25 == q50 == 0 — like queue waits on an
        // unloaded pool. The tied mass must land in Bin1.
        let mut values = vec![0.0; 60];
        values.extend((1..41).map(|i| i as f64));
        let edges = BinEdges::fit(&values, 4, BinningScheme::EqualFrequency).unwrap();
        assert_eq!(edges.assign(0.0), 0);
        assert_eq!(edges.assign(40.0), 3);
    }

    #[test]
    fn quantile_interpolates() {
        let sorted = vec![0.0, 10.0, 20.0, 30.0];
        assert_eq!(quantile_sorted(&sorted, 0.0), 0.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 30.0);
        assert_eq!(quantile_sorted(&sorted, 0.5), 15.0);
    }

    #[test]
    fn fit_empty_returns_none() {
        assert!(BinEdges::fit(&[], 4, BinningScheme::EqualFrequency).is_none());
    }

    #[test]
    fn fit_ignores_non_finite_values() {
        // A NaN sentinel or an overflow inf in a trace column must not
        // shift any edge: fitting with them interleaved gives the same
        // edges as fitting the pre-filtered data.
        let clean: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let mut dirty = clean.clone();
        dirty.insert(0, f64::NAN);
        dirty.insert(40, f64::INFINITY);
        dirty.push(f64::NEG_INFINITY);
        dirty.push(-f64::NAN);
        for scheme in [BinningScheme::EqualFrequency, BinningScheme::EqualWidth] {
            let expect = BinEdges::fit(&clean, 4, scheme).unwrap();
            let got = BinEdges::fit(&dirty, 4, scheme).unwrap();
            assert_eq!(got, expect, "{scheme:?}");
        }
    }

    #[test]
    fn fit_all_non_finite_returns_none() {
        let values = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        assert!(BinEdges::fit(&values, 4, BinningScheme::EqualFrequency).is_none());
        assert!(BinEdges::fit(&values, 4, BinningScheme::EqualWidth).is_none());
    }

    #[test]
    fn quantile_skips_non_finite_ends() {
        let mut sorted = vec![
            -f64::NAN,
            f64::NEG_INFINITY,
            0.0,
            10.0,
            20.0,
            30.0,
            f64::INFINITY,
            f64::NAN,
        ];
        sorted.sort_unstable_by(f64::total_cmp);
        assert_eq!(quantile_sorted(&sorted, 0.0), 0.0);
        assert_eq!(quantile_sorted(&sorted, 0.5), 15.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 30.0);
    }

    #[test]
    fn try_quantile_none_replaces_the_panic() {
        // The old `quantile_sorted` asserted on an all-sentinel slice; the
        // fallible form reports it as data, not a crash.
        let mut sorted = vec![-f64::NAN, f64::NEG_INFINITY, f64::INFINITY, f64::NAN];
        sorted.sort_unstable_by(f64::total_cmp);
        for q in [0.0, 0.25, 0.5, 1.0] {
            assert_eq!(try_quantile_sorted(&sorted, q), None);
        }
        assert_eq!(try_quantile_sorted(&[], 0.5), None);
        // One finite value among sentinels is enough for every quantile.
        sorted.push(7.0);
        sorted.sort_unstable_by(f64::total_cmp);
        assert_eq!(try_quantile_sorted(&sorted, 0.0), Some(7.0));
        assert_eq!(try_quantile_sorted(&sorted, 1.0), Some(7.0));
    }

    #[test]
    #[should_panic(expected = "no finite values")]
    fn infallible_quantile_still_panics() {
        quantile_sorted(&[f64::NAN], 0.5);
    }

    #[test]
    fn fit_constant_column() {
        let values = vec![5.0; 100];
        let edges = BinEdges::fit(&values, 4, BinningScheme::EqualFrequency).unwrap();
        let b = edges.assign(5.0);
        assert!(b < 4);
    }

    #[test]
    fn spike_detection() {
        let mut values = vec![600.0; 50];
        values.extend((0..50).map(|i| 100.0 + i as f64));
        values.sort_unstable_by(f64::total_cmp);
        assert_eq!(detect_spike(&values, 0.3), Some(600.0));
        assert_eq!(detect_spike(&values, 0.6), None);
        assert_eq!(detect_spike(&[], 0.1), None);
    }

    #[test]
    fn spike_prefers_most_frequent() {
        let mut values = vec![1.0; 10];
        values.extend(vec![2.0; 20]);
        assert_eq!(detect_spike(&values, 0.5), Some(2.0));
    }
}
