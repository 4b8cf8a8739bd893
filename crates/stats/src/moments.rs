//! Online (streaming) moment accumulation.
//!
//! Long OSSE runs record RMSE/spread series over thousands of cycles; the
//! Welford accumulator lets the harness track means and variances without
//! storing the series.

/// Numerically stable running mean/variance (Welford).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineMoments {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineMoments {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineMoments { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Minimum observed value (+inf when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observed value (-inf when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl Extend<f64> for OnlineMoments {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_batch_statistics() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin() * 3.0 + 1.0).collect();
        let mut acc = OnlineMoments::new();
        acc.extend(xs.iter().copied());
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var =
            xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((acc.mean() - mean).abs() < 1e-12);
        assert!((acc.variance() - var).abs() < 1e-12);
        assert_eq!(acc.count(), 100);
    }

    #[test]
    fn empty_and_single() {
        let mut acc = OnlineMoments::new();
        assert_eq!(acc.mean(), 0.0);
        assert_eq!(acc.variance(), 0.0);
        acc.push(5.0);
        assert_eq!(acc.mean(), 5.0);
        assert_eq!(acc.variance(), 0.0);
        assert_eq!(acc.min(), 5.0);
        assert_eq!(acc.max(), 5.0);
    }
}
