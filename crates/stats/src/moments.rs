//! Online (streaming) moment accumulation.
//!
//! Long OSSE runs record RMSE/spread series over thousands of cycles; the
//! Welford accumulator lets the harness track means and variances without
//! storing the series, and merges across parallel workers.

/// Numerically stable running mean/variance (Welford), mergeable.
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

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observed value (+inf when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observed value (-inf when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (Chan et al. parallel form).
    pub fn merge(&mut self, other: &OnlineMoments) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
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
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = (50..100).map(|i| (i as f64).sqrt()).collect();
        let mut whole = OnlineMoments::new();
        whole.extend(xs.iter().copied().chain(ys.iter().copied()));
        let mut a = OnlineMoments::new();
        a.extend(xs.iter().copied());
        let mut b = OnlineMoments::new();
        b.extend(ys.iter().copied());
        a.merge(&b);
        assert!((a.mean() - whole.mean()).abs() < 1e-10);
        assert!((a.variance() - whole.variance()).abs() < 1e-10);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
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

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineMoments::new();
        a.extend([1.0, 2.0, 3.0]);
        let before = a;
        a.merge(&OnlineMoments::new());
        assert_eq!(a, before);
        let mut empty = OnlineMoments::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }
}
