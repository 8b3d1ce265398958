//! Descriptive statistics for the reporting layer (CDFs, box plots).

/// Empirical CDF over a finite sample.
#[derive(Debug, Clone, Default)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds the CDF from samples (non-finite values are dropped).
    pub fn new(values: &[f64]) -> Cdf {
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        sorted.sort_unstable_by(f64::total_cmp);
        Cdf { sorted }
    }

    /// P(X <= x).
    pub fn at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.partition_point(|&v| v <= x) as f64 / self.sorted.len() as f64
    }

    /// The q-quantile (linear interpolation), `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q));
        assert!(!self.sorted.is_empty(), "quantile of empty sample");
        if self.sorted.len() == 1 {
            return self.sorted[0];
        }
        let pos = q * (self.sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// Evenly spaced `(x, F(x))` points for plotting/export.
    pub fn points(&self, n: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || n == 0 {
            return Vec::new();
        }
        (0..=n)
            .map(|i| {
                let x = self.quantile(i as f64 / n as f64);
                (x, self.at(x))
            })
            .collect()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no samples were provided.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }
}

/// Five-number summary used for the paper's Fig. 2 box plots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxStats {
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample count.
    pub n: usize,
}

impl BoxStats {
    /// Computes the summary; returns `None` for empty input.
    pub fn new(values: &[f64]) -> Option<BoxStats> {
        let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        if finite.is_empty() {
            return None;
        }
        let cdf = Cdf::new(&finite);
        Some(BoxStats {
            min: cdf.quantile(0.0),
            q1: cdf.quantile(0.25),
            median: cdf.quantile(0.5),
            q3: cdf.quantile(0.75),
            max: cdf.quantile(1.0),
            mean: finite.iter().sum::<f64>() / finite.len() as f64,
            n: finite.len(),
        })
    }
}

/// Mean of a slice (0 for empty) — shared convenience.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_basic() {
        let cdf = Cdf::new(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cdf.at(0.0), 0.0);
        assert_eq!(cdf.at(2.0), 0.5);
        assert_eq!(cdf.at(10.0), 1.0);
        assert_eq!(cdf.quantile(0.0), 1.0);
        assert_eq!(cdf.quantile(1.0), 4.0);
        assert_eq!(cdf.quantile(0.5), 2.5);
    }

    #[test]
    fn cdf_drops_non_finite() {
        let cdf = Cdf::new(&[1.0, f64::NAN, 2.0, f64::INFINITY]);
        assert_eq!(cdf.len(), 2);
    }

    #[test]
    fn cdf_points_monotone() {
        let cdf = Cdf::new(&(0..100).map(|i| (i as f64).sqrt()).collect::<Vec<_>>());
        let pts = cdf.points(10);
        assert_eq!(pts.len(), 11);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn box_stats_five_numbers() {
        let b = BoxStats::new(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(b.min, 1.0);
        assert_eq!(b.median, 3.0);
        assert_eq!(b.max, 5.0);
        assert_eq!(b.q1, 2.0);
        assert_eq!(b.q3, 4.0);
        assert_eq!(b.mean, 3.0);
        assert_eq!(b.n, 5);
    }

    #[test]
    fn box_stats_empty_is_none() {
        assert!(BoxStats::new(&[]).is_none());
        assert!(BoxStats::new(&[f64::NAN]).is_none());
    }

    #[test]
    fn zero_share_via_cdf() {
        // The Fig. 4 headline number is just CDF(0+eps).
        let mut xs = vec![0.0; 46];
        xs.extend((1..55).map(|i| i as f64));
        let cdf = Cdf::new(&xs);
        assert!((cdf.at(0.5) - 0.46).abs() < 0.01);
    }
}
