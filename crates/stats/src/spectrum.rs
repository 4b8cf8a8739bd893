//! Inertial-range slope fitting for isotropic kinetic-energy spectra.
//!
//! The SQG model's claim to realism is its `k^{-5/3}` KE spectrum
//! (Nastrom & Gage); [`fit_loglog_slope`] fits the slope of shell-binned
//! spectra (`sqg::diag::ke_spectrum`) so tests can assert it.

/// Least-squares slope of `log(E)` vs `log(k)` over shells
/// `k in [k_min, k_max]`, skipping empty shells. Returns `None` when fewer
/// than two usable shells exist.
pub fn fit_loglog_slope(shells: &[f64], k_min: usize, k_max: usize) -> Option<f64> {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for k in k_min..=k_max.min(shells.len().saturating_sub(1)) {
        if k == 0 || shells[k] <= 0.0 {
            continue;
        }
        xs.push((k as f64).ln());
        ys.push(shells[k].ln());
    }
    if xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut num = 0.0;
    let mut den = 0.0;
    for (x, y) in xs.iter().zip(&ys) {
        num += (x - mx) * (y - my);
        den += (x - mx) * (x - mx);
    }
    if den == 0.0 { // lint: allow(float-exact-compare, reason="exactly-zero denominator is the degenerate-input sentinel")
        None
    } else {
        Some(num / den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_fit_recovers_synthetic_power_law() {
        // Build shells E(k) = k^{-5/3} directly.
        let shells: Vec<f64> =
            (0..64).map(|k| if k == 0 { 0.0 } else { (k as f64).powf(-5.0 / 3.0) }).collect();
        let slope = fit_loglog_slope(&shells, 4, 32).unwrap();
        assert!((slope + 5.0 / 3.0).abs() < 1e-10, "slope {slope}");
    }

    #[test]
    fn slope_fit_needs_two_points() {
        let shells = vec![0.0, 1.0, 0.0, 0.0];
        assert!(fit_loglog_slope(&shells, 1, 3).is_none());
    }
}
