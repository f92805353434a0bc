//! Radix-2 fast Fourier transform, implemented from scratch.
//!
//! The workspace's dependency policy does not allow an FFT crate, so
//! this module provides an iterative, in-place, decimation-in-time
//! radix-2 FFT with precomputed twiddle factors. A reusable
//! [`FftPlan`] amortises twiddle/bit-reversal setup across the many
//! transforms an STFT performs.
//!
//! Conventions: the forward transform computes
//! `X[k] = Σ_n x[n]·e^{-2πi·kn/N}` (no scaling); the inverse applies
//! the conjugate kernel and divides by `N`, so an inverse transform
//! undoes a forward one.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use crate::iq::Complex;

/// Transform direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Time domain to frequency domain (`e^{-2πi kn/N}` kernel).
    Forward,
    /// Frequency domain to time domain (conjugate kernel, scaled by `1/N`).
    Inverse,
}

/// A reusable FFT plan for a fixed power-of-two size.
///
/// # Examples
///
/// ```
/// use emsc_sdr::fft::FftPlan;
/// use emsc_sdr::iq::Complex;
///
/// let plan = FftPlan::new(8);
/// let mut buf: Vec<Complex> = (0..8).map(|n| Complex::new(n as f64, 0.0)).collect();
/// let time = buf.clone();
/// plan.forward(&mut buf);
/// plan.inverse(&mut buf);
/// for (a, b) in buf.iter().zip(&time) {
///     assert!((*a - *b).abs() < 1e-9);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    log2n: u32,
    /// Twiddles for the forward transform: `e^{-2πi k / N}` for `k < N/2`.
    twiddles: Vec<Complex>,
    /// Bit-reversed index for every position.
    bitrev: Vec<u32>,
}

impl FftPlan {
    /// Creates a plan for transforms of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two() && n > 0, "FFT size must be a power of two, got {n}");
        let log2n = n.trailing_zeros();
        let twiddles = (0..n / 2).map(|k| forward_twiddle(k, n)).collect();
        let mut bitrev = vec![0u32; n];
        for (i, slot) in bitrev.iter_mut().enumerate() {
            *slot = (i as u32).reverse_bits() >> (32 - log2n.max(1));
        }
        if n == 1 {
            bitrev[0] = 0;
        }
        FftPlan { n, log2n, twiddles, bitrev }
    }

    /// Transform length this plan was built for.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` when [`FftPlan::len`] is zero — which never
    /// happens, because [`FftPlan::new`] rejects any size that is not
    /// a power of two (and zero is not one). Provided so the type
    /// satisfies the usual `len`/`is_empty` contract.
    ///
    /// # Examples
    ///
    /// ```
    /// use emsc_sdr::fft::FftPlan;
    ///
    /// let plan = FftPlan::new(8);
    /// assert_eq!(plan.is_empty(), plan.len() == 0);
    /// assert!(!FftPlan::new(1).is_empty()); // length-1 is degenerate, not empty
    /// ```
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place forward FFT.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != self.len()`.
    pub fn forward(&self, buf: &mut [Complex]) {
        self.transform(buf, Direction::Forward);
    }

    /// In-place inverse FFT (scaled by `1/N`).
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != self.len()`.
    pub fn inverse(&self, buf: &mut [Complex]) {
        self.transform(buf, Direction::Inverse);
    }

    /// In-place transform in the given [`Direction`].
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != self.len()`.
    pub fn transform(&self, buf: &mut [Complex], dir: Direction) {
        assert_eq!(buf.len(), self.n, "buffer length must equal plan size");
        if self.n == 1 {
            return;
        }
        // Bit-reversal permutation.
        for i in 0..self.n {
            let j = self.bitrev[i] as usize;
            if i < j {
                buf.swap(i, j);
            }
        }
        // Iterative butterflies. The twiddle index `k` is the outer
        // loop so the direction branch (and the conjugation) resolves
        // once per twiddle instead of once per butterfly; butterflies
        // within a stage touch disjoint index pairs, so reordering
        // them leaves every result bit-identical.
        for stage in 1..=self.log2n {
            let m = 1usize << stage; // butterfly group size
            let half = m >> 1;
            let step = self.n / m; // twiddle stride
            for k in 0..half {
                let w = match dir {
                    Direction::Forward => self.twiddles[k * step],
                    Direction::Inverse => self.twiddles[k * step].conj(),
                };
                let mut base = 0;
                while base < self.n {
                    let t = w * buf[base + k + half];
                    let u = buf[base + k];
                    buf[base + k] = u + t;
                    buf[base + k + half] = u - t;
                    base += m;
                }
            }
        }
        if dir == Direction::Inverse {
            let inv_n = 1.0 / self.n as f64;
            for v in buf.iter_mut() {
                *v = v.scale(inv_n);
            }
        }
    }
}

/// The forward transform's twiddle `e^{-2πi k / n}`, as every
/// [`FftPlan`] of length `n` holds it. Crate code that runs some of
/// the plan's butterflies itself takes its twiddles from here, so they
/// are the plan's to the bit.
pub(crate) fn forward_twiddle(k: usize, n: usize) -> Complex {
    Complex::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64)
}

thread_local! {
    /// Per-thread plan cache keyed by transform length. Twiddle and
    /// bit-reversal tables are pure functions of the length, so a
    /// cached plan is indistinguishable from a fresh one; thread-local
    /// storage keeps the cache lock-free under the worker pool.
    static PLAN_CACHE: RefCell<HashMap<usize, Rc<FftPlan>>> = RefCell::new(HashMap::new());
}

/// Returns this thread's cached [`FftPlan`] for length `n`, building
/// and memoising it on first use.
///
/// Callers that transform many buffers of one size (STFT frames, a
/// loop of one-shot transforms) get the twiddle tables for free after
/// the first call.
///
/// # Panics
///
/// Panics if `n` is zero or not a power of two.
///
/// # Examples
///
/// ```
/// use emsc_sdr::fft::plan_for;
///
/// let a = plan_for(256);
/// let b = plan_for(256);
/// assert!(std::rc::Rc::ptr_eq(&a, &b)); // second lookup is a cache hit
/// ```
pub fn plan_for(n: usize) -> Rc<FftPlan> {
    PLAN_CACHE.with(|cache| {
        Rc::clone(cache.borrow_mut().entry(n).or_insert_with(|| Rc::new(FftPlan::new(n))))
    })
}

/// The frequency in hertz of FFT bin `k` for a transform of `n` points
/// sampled at `sample_rate`, mapping the upper half of the spectrum to
/// negative frequencies (complex-baseband convention).
///
/// # Examples
///
/// ```
/// use emsc_sdr::fft::bin_frequency;
/// assert_eq!(bin_frequency(0, 8, 800.0), 0.0);
/// assert_eq!(bin_frequency(1, 8, 800.0), 100.0);
/// assert_eq!(bin_frequency(7, 8, 800.0), -100.0);
/// ```
pub fn bin_frequency(k: usize, n: usize, sample_rate: f64) -> f64 {
    let k = k % n;
    if k <= n / 2 {
        k as f64 * sample_rate / n as f64
    } else {
        (k as f64 - n as f64) * sample_rate / n as f64
    }
}

/// The largest transform, in points, that a receiver configuration may
/// ask for: both the covert receiver's sliding-DFT window and the
/// keystroke detector's STFT window are checked against it. The
/// chain's own sizes are far below it (sliding windows up to 1024
/// points in the ablations, 8192-point keylog windows), while a size
/// near `usize::MAX` would otherwise reach the allocator and abort the
/// process.
pub const MAX_TRANSFORM_SIZE: usize = 1 << 16;

/// The FFT bin index (0-based, mod `n`) closest to `freq` hertz for a
/// transform of `n` points at `sample_rate`, using the complex-baseband
/// convention (negative frequencies wrap to the upper half).
///
/// # Examples
///
/// ```
/// use emsc_sdr::fft::frequency_bin;
/// assert_eq!(frequency_bin(100.0, 8, 800.0), 1);
/// assert_eq!(frequency_bin(-100.0, 8, 800.0), 7);
/// ```
pub fn frequency_bin(freq: f64, n: usize, sample_rate: f64) -> usize {
    let raw = (freq / sample_rate * n as f64).round() as i64;
    raw.rem_euclid(n as i64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: Complex, b: Complex, eps: f64) {
        assert!((a - b).abs() < eps, "expected {b}, got {a} (err {})", (a - b).abs());
    }

    /// Plan-based one-shot forward transform.
    fn fft(input: &[Complex]) -> Vec<Complex> {
        let mut buf = input.to_vec();
        plan_for(input.len()).forward(&mut buf);
        buf
    }

    /// Plan-based one-shot inverse transform.
    fn ifft(input: &[Complex]) -> Vec<Complex> {
        let mut buf = input.to_vec();
        plan_for(input.len()).inverse(&mut buf);
        buf
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut x = vec![Complex::ZERO; 16];
        x[0] = Complex::ONE;
        let spectrum = fft(&x);
        for bin in spectrum {
            assert_close(bin, Complex::ONE, 1e-12);
        }
    }

    #[test]
    fn dc_transforms_to_bin_zero() {
        let x = vec![Complex::ONE; 8];
        let spectrum = fft(&x);
        assert_close(spectrum[0], Complex::new(8.0, 0.0), 1e-12);
        for bin in &spectrum[1..] {
            assert!(bin.abs() < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_in_single_bin() {
        let n = 64;
        let k0 = 5;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::cis(2.0 * std::f64::consts::PI * k0 as f64 * i as f64 / n as f64))
            .collect();
        let spectrum = fft(&x);
        for (k, bin) in spectrum.iter().enumerate() {
            if k == k0 {
                assert!((bin.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(bin.abs() < 1e-9, "leakage at bin {k}: {}", bin.abs());
            }
        }
    }

    #[test]
    fn real_cosine_splits_into_two_bins() {
        let n = 32;
        let k0 = 3;
        let x: Vec<Complex> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * k0 as f64 * i as f64 / n as f64).cos())
            .map(|re| Complex::new(re, 0.0))
            .collect();
        let spectrum = fft(&x);
        assert!((spectrum[k0].abs() - n as f64 / 2.0).abs() < 1e-9);
        assert!((spectrum[n - k0].abs() - n as f64 / 2.0).abs() < 1e-9);
    }

    #[test]
    fn round_trip_restores_signal() {
        let x: Vec<Complex> = (0..128)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let y = ifft(&fft(&x));
        for (a, b) in y.iter().zip(&x) {
            assert_close(*a, *b, 1e-9);
        }
    }

    #[test]
    fn linearity() {
        let n = 32;
        let a: Vec<Complex> = (0..n).map(|i| Complex::new(i as f64, -(i as f64))).collect();
        let b: Vec<Complex> = (0..n).map(|i| Complex::new((i as f64).sqrt(), 1.0)).collect();
        let sum: Vec<Complex> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let fa = fft(&a);
        let fb = fft(&b);
        let fsum = fft(&sum);
        for k in 0..n {
            assert_close(fsum[k], fa[k] + fb[k], 1e-9);
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let x: Vec<Complex> = (0..256)
            .map(|i| Complex::new((i as f64 * 1.7).sin(), (i as f64 * 0.3).sin()))
            .collect();
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let spectrum = fft(&x);
        let freq_energy: f64 = spectrum.iter().map(|z| z.norm_sqr()).sum::<f64>() / x.len() as f64;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-10);
    }

    #[test]
    fn length_one_is_identity() {
        let x = vec![Complex::new(2.5, -1.0)];
        assert_eq!(fft(&x), x);
        assert_eq!(ifft(&x), x);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        FftPlan::new(12);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn wrong_buffer_length_panics() {
        let plan = FftPlan::new(8);
        let mut buf = vec![Complex::ZERO; 4];
        plan.forward(&mut buf);
    }

    #[test]
    fn bin_frequency_round_trips_with_frequency_bin() {
        let n = 1024;
        let fs = 2.4e6;
        for k in [0usize, 1, 17, 400, 512, 700, 1023] {
            let f = bin_frequency(k, n, fs);
            assert_eq!(frequency_bin(f, n, fs), k % n);
        }
    }

    #[test]
    #[allow(clippy::len_zero)] // the point is to pin is_empty to len() == 0
    fn is_empty_agrees_with_len() {
        for n in [1usize, 2, 8, 1024] {
            let plan = FftPlan::new(n);
            assert_eq!(plan.is_empty(), plan.len() == 0);
            assert!(!plan.is_empty());
        }
    }

    #[test]
    fn cached_plan_matches_fresh_plan() {
        let x: Vec<Complex> =
            (0..64).map(|i| Complex::new((i as f64 * 0.9).sin(), (i as f64 * 0.4).cos())).collect();
        let mut fresh = x.clone();
        FftPlan::new(64).forward(&mut fresh);
        let cached = fft(&x); // goes through plan_for
        for (a, b) in cached.iter().zip(&fresh) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        assert!(Rc::ptr_eq(&plan_for(64), &plan_for(64)));
    }

    #[test]
    fn time_shift_is_phase_ramp() {
        // x[n-1] circularly shifted ⇒ X[k]·e^{-2πik/N}
        let n = 16;
        let x: Vec<Complex> = (0..n).map(|i| Complex::new((i * i % 7) as f64, 0.0)).collect();
        let mut shifted = x.clone();
        shifted.rotate_right(1);
        let fx = fft(&x);
        let fs = fft(&shifted);
        for k in 0..n {
            let expect = fx[k] * Complex::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64);
            assert_close(fs[k], expect, 1e-9);
        }
    }
}
