//! Complex-valued (I/Q) sample type and buffers.
//!
//! Software-defined radios deliver *quadrature* samples: pairs of
//! in-phase (I) and quadrature (Q) values that together represent the
//! complex envelope of the RF signal around the tuner's centre
//! frequency. This module provides the [`Complex`] type used across
//! the whole workspace (no external complex-number crate is used).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components, used for I/Q samples,
/// FFT bins and channel coefficients.
///
/// # Examples
///
/// ```
/// use emsc_sdr::iq::Complex;
///
/// let a = Complex::new(3.0, 4.0);
/// assert_eq!(a.abs(), 5.0);
/// let rotated = a * Complex::from_polar(1.0, std::f64::consts::FRAC_PI_2);
/// assert!((rotated.re - -4.0).abs() < 1e-12);
/// assert!((rotated.im - 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real (in-phase) component.
    pub re: f64,
    /// Imaginary (quadrature) component.
    pub im: f64,
}

impl Complex {
    /// The additive identity, `0 + 0i`.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity, `1 + 0i`.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

    /// Creates a complex number from rectangular components.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a complex number from polar form `r·e^{iθ}`.
    ///
    /// # Examples
    ///
    /// ```
    /// use emsc_sdr::iq::Complex;
    /// let z = Complex::from_polar(2.0, std::f64::consts::PI);
    /// assert!((z.re + 2.0).abs() < 1e-12);
    /// assert!(z.im.abs() < 1e-12);
    /// ```
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex::new(r * theta.cos(), r * theta.sin())
    }

    /// `e^{iθ}`: a unit phasor at angle `theta` (radians).
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Complex::from_polar(1.0, theta)
    }

    /// Magnitude (absolute value) `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²`, cheaper than [`Complex::abs`] as it
    /// avoids the square root.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Complex conjugate `re − i·im`.
    #[inline]
    pub fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex::new(self.re * k, self.im * k)
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::new(re, 0.0)
    }
}

impl From<(f64, f64)> for Complex {
    fn from((re, im): (f64, f64)) -> Self {
        Complex::new(re, im)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(self.re * rhs.re - self.im * rhs.im, self.re * rhs.im + self.im * rhs.re)
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        rhs.scale(self)
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: Complex) -> Complex {
        let d = rhs.norm_sqr();
        Complex::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl DivAssign for Complex {
    #[inline]
    fn div_assign(&mut self, rhs: Complex) {
        *self = *self / rhs;
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |acc, z| acc + z)
    }
}

impl<'a> Sum<&'a Complex> for Complex {
    fn sum<I: Iterator<Item = &'a Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |acc, z| acc + *z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn constructs_from_rectangular_and_polar() {
        let a = Complex::new(1.0, -2.0);
        assert_eq!(a.re, 1.0);
        assert_eq!(a.im, -2.0);
        let b = Complex::from_polar(2.0, std::f64::consts::FRAC_PI_2);
        assert!(b.re.abs() < EPS);
        assert!((b.im - 2.0).abs() < EPS);
    }

    #[test]
    fn arithmetic_identities() {
        let a = Complex::new(3.0, 4.0);
        assert_eq!(a + Complex::ZERO, a);
        assert_eq!(a * Complex::ONE, a);
        assert_eq!(a - a, Complex::ZERO);
        assert_eq!(-a + a, Complex::ZERO);
    }

    #[test]
    fn multiplication_matches_hand_computation() {
        // (1+2i)(3+4i) = 3+4i+6i+8i² = -5 + 10i
        let p = Complex::new(1.0, 2.0) * Complex::new(3.0, 4.0);
        assert_eq!(p, Complex::new(-5.0, 10.0));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex::new(1.5, -2.5);
        let b = Complex::new(-0.5, 3.0);
        let q = (a * b) / b;
        assert!((q.re - a.re).abs() < EPS);
        assert!((q.im - a.im).abs() < EPS);
    }

    #[test]
    fn conj_and_norm() {
        let a = Complex::new(3.0, 4.0);
        assert_eq!(a.conj(), Complex::new(3.0, -4.0));
        assert_eq!(a.norm_sqr(), 25.0);
        assert_eq!(a.abs(), 5.0);
        let aa = a * a.conj();
        assert!((aa.re - 25.0).abs() < EPS && aa.im.abs() < EPS);
    }

    #[test]
    fn cis_is_unit_magnitude() {
        for k in 0..16 {
            let z = Complex::cis(k as f64 * 0.7);
            assert!((z.abs() - 1.0).abs() < EPS);
        }
    }

    #[test]
    fn sum_of_unit_circle_is_zero() {
        let n = 64;
        let s: Complex =
            (0..n).map(|k| Complex::cis(2.0 * std::f64::consts::PI * k as f64 / n as f64)).sum();
        assert!(s.abs() < 1e-9);
    }

    #[test]
    fn scalar_ops() {
        let a = Complex::new(2.0, -6.0);
        assert_eq!(a * 0.5, Complex::new(1.0, -3.0));
        assert_eq!(0.5 * a, Complex::new(1.0, -3.0));
        assert_eq!(a / 2.0, Complex::new(1.0, -3.0));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2i");
    }
}
