//! A minimal double-precision complex number type.
//!
//! We deliberately avoid an external complex-number dependency: the FFT and
//! the SQG spectral kernels only need a handful of operations, and keeping the
//! type local lets us guarantee `#[repr(C)]` layout (two adjacent `f64`s)
//! which the vector kernels rely on when they load complexes as `f64` lanes.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Complex number with `f64` components.
#[derive(Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from its real and imaginary parts.
    #[inline(always)]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Euler's formula: `exp(i theta)`.
    #[inline(always)]
    pub fn cis(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Complex { re: c, im: s }
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        Complex { re: self.re, im: -self.im }
    }

    /// Squared modulus `re^2 + im^2`.
    #[inline(always)]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`.
    #[inline(always)]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument (phase angle) in radians.
    #[inline(always)]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplication by a real scalar.
    #[inline(always)]
    pub fn scale(self, s: f64) -> Self {
        Complex { re: self.re * s, im: self.im * s }
    }

    /// Multiplicative inverse `1/z`.
    #[inline(always)]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        Complex { re: self.re / d, im: -self.im / d }
    }

    /// Fused multiply-add: `self * b + c`, written to help the optimizer
    /// keep everything in registers in the FFT butterflies.
    #[inline(always)]
    pub fn mul_add(self, b: Complex, c: Complex) -> Self {
        Complex {
            re: self.re * b.re - self.im * b.im + c.re,
            im: self.re * b.im + self.im * b.re + c.im,
        }
    }

    /// Returns true if either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// Returns true if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl fmt::Debug for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline(always)]
    fn add(self, rhs: Complex) -> Complex {
        Complex { re: self.re + rhs.re, im: self.im + rhs.im }
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline(always)]
    fn sub(self, rhs: Complex) -> Complex {
        Complex { re: self.re - rhs.re, im: self.im - rhs.im }
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline(always)]
    fn mul(self, rhs: Complex) -> Complex {
        Complex {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline(always)]
    #[allow(clippy::suspicious_arithmetic_impl)] // z/w computed as z * w^{-1}
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.inv()
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline(always)]
    fn neg(self) -> Complex {
        Complex { re: -self.re, im: -self.im }
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline(always)]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    #[inline(always)]
    fn mul(self, rhs: Complex) -> Complex {
        rhs.scale(self)
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline(always)]
    fn div(self, rhs: f64) -> Complex {
        self.scale(1.0 / rhs)
    }
}

impl AddAssign for Complex {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl SubAssign for Complex {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl MulAssign for Complex {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl MulAssign<f64> for Complex {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: f64) {
        self.re *= rhs;
        self.im *= rhs;
    }
}

impl DivAssign<f64> for Complex {
    #[inline(always)]
    fn div_assign(&mut self, rhs: f64) {
        let inv = 1.0 / rhs;
        self.re *= inv;
        self.im *= inv;
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |a, b| a + b)
    }
}

impl From<f64> for Complex {
    #[inline(always)]
    fn from(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn arithmetic_identities() {
        let z = Complex::new(3.0, -4.0);
        assert_eq!(z + Complex::ZERO, z);
        assert_eq!(z * Complex::from(1.0), z);
        assert_eq!(-z + z, Complex::ZERO);
        assert!((z * z.inv() - Complex::from(1.0)).abs() < EPS);
    }

    #[test]
    fn modulus_and_conjugate() {
        let z = Complex::new(3.0, 4.0);
        assert!((z.abs() - 5.0).abs() < EPS);
        assert_eq!(z.conj(), Complex::new(3.0, -4.0));
        assert!((z * z.conj() - Complex::from(25.0)).abs() < EPS);
    }

    #[test]
    fn cis_matches_euler() {
        let t = 0.7;
        let z = Complex::cis(t);
        assert!((z.re - t.cos()).abs() < EPS);
        assert!((z.im - t.sin()).abs() < EPS);
        assert!((z.abs() - 1.0).abs() < EPS);
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert!((Complex::I * Complex::I + Complex::from(1.0)).abs() < EPS);
    }

    #[test]
    fn mul_add_matches_separate_ops() {
        let a = Complex::new(1.5, -0.5);
        let b = Complex::new(-2.0, 3.0);
        let c = Complex::new(0.25, 0.75);
        let fused = a.mul_add(b, c);
        let plain = a * b + c;
        assert!((fused - plain).abs() < EPS);
    }

    #[test]
    fn division() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        let q = a / b;
        assert!((q * b - a).abs() < EPS);
    }

    #[test]
    fn sum_iterator() {
        let s: Complex = (0..4).map(|k| Complex::new(k as f64, -(k as f64))).sum();
        assert_eq!(s, Complex::new(6.0, -6.0));
    }

    #[test]
    fn arg_quadrants() {
        assert!((Complex::new(1.0, 0.0).arg() - 0.0).abs() < EPS);
        assert!((Complex::new(0.0, 1.0).arg() - std::f64::consts::FRAC_PI_2).abs() < EPS);
        assert!((Complex::new(-1.0, 0.0).arg() - std::f64::consts::PI).abs() < EPS);
    }
}
