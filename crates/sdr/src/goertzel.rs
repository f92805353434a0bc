//! Goertzel algorithm: single-bin DFT evaluation.
//!
//! An alternative to the sliding DFT for tracking a handful of bins:
//! where the sliding DFT updates every bin each sample (`O(|S|)` per
//! sample, every-sample output), Goertzel evaluates one bin over one
//! block with two multiplies per sample and no ring buffer — the
//! classic choice for block-wise tone detection.

use crate::iq::Complex;

/// Block-wise Goertzel evaluator for one DFT bin of size `n`.
#[derive(Debug, Clone)]
pub struct Goertzel {
    n: usize,
    k: usize,
    coeff: f64,
    /// `e^{+2πik/N}` — the final correction twiddle.
    twiddle: Complex,
}

impl Goertzel {
    /// Creates an evaluator for bin `k` of an `n`-point DFT.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `k >= n`.
    pub fn new(n: usize, k: usize) -> Self {
        assert!(n > 0, "block size must be positive");
        assert!(k < n, "bin index out of range");
        let w = 2.0 * std::f64::consts::PI * k as f64 / n as f64;
        Goertzel { n, k, coeff: 2.0 * w.cos(), twiddle: Complex::cis(w) }
    }

    /// Block size `N`.
    pub fn block_size(&self) -> usize {
        self.n
    }

    /// Bin index `k`.
    pub fn bin(&self) -> usize {
        self.k
    }

    /// Evaluates `X[k] = Σ_m x[m]·e^{-2πikm/N}` over one block.
    ///
    /// # Panics
    ///
    /// Panics if `block.len() != N`.
    pub fn evaluate(&self, block: &[Complex]) -> Complex {
        assert_eq!(block.len(), self.n, "block length must equal N");
        // Complex input: run the real-valued recurrence on both
        // components (the recurrence is linear).
        let run = |pick: fn(&Complex) -> f64| -> (f64, f64) {
            let mut s1 = 0.0;
            let mut s2 = 0.0;
            for x in block {
                let s0 = pick(x) + self.coeff * s1 - s2;
                s2 = s1;
                s1 = s0;
            }
            (s1, s2)
        };
        let (re1, re2) = run(|x| x.re);
        let (im1, im2) = run(|x| x.im);
        // Closed form: X[k] = s1·e^{+iω} − s2 (the trailing rotation
        // e^{-iωN} is 1 because ωN = 2πk).
        let s1 = Complex::new(re1, im1);
        let s2 = Complex::new(re2, im2);
        s1 * self.twiddle - s2
    }
}

/// Per-block magnitudes of one bin across a capture: the block-wise
/// (non-overlapping) analogue of [`crate::sliding::energy_signal`].
pub fn block_energies(samples: &[Complex], n: usize, bins: &[usize]) -> Vec<f64> {
    let detectors: Vec<Goertzel> = bins.iter().map(|&k| Goertzel::new(n, k)).collect();
    samples
        .chunks_exact(n)
        .map(|block| detectors.iter().map(|g| g.evaluate(block).abs()).sum())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::plan_for;

    fn chirp(n: usize) -> Vec<Complex> {
        (0..n).map(|i| Complex::new((0.07 * i as f64).sin(), (0.013 * i as f64).cos())).collect()
    }

    #[test]
    fn matches_fft_bin_exactly() {
        let n = 64;
        let x = chirp(n);
        let mut spectrum = x.clone();
        plan_for(n).forward(&mut spectrum);
        for k in [0usize, 1, 7, 31, 63] {
            let g = Goertzel::new(n, k).evaluate(&x);
            assert!((g - spectrum[k]).abs() < 1e-9, "bin {k}: goertzel {g}, fft {}", spectrum[k]);
        }
    }

    #[test]
    fn detects_a_bin_centred_tone() {
        let n = 128;
        let k = 16;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::cis(2.0 * std::f64::consts::PI * (k * i) as f64 / n as f64))
            .collect();
        let mag = Goertzel::new(n, k).evaluate(&x).abs();
        assert!((mag - n as f64).abs() < 1e-9);
        let off = Goertzel::new(n, k + 3).evaluate(&x).abs();
        assert!(off < 1e-9);
    }

    #[test]
    fn block_energies_track_onoff_keying() {
        let n = 128;
        let k = 8;
        let mut x: Vec<Complex> = (0..n * 8)
            .map(|i| Complex::cis(2.0 * std::f64::consts::PI * (k * i) as f64 / n as f64))
            .collect();
        for s in x.iter_mut().skip(n * 4) {
            *s = Complex::ZERO;
        }
        let e = block_energies(&x, n, &[k]);
        assert_eq!(e.len(), 8);
        for (i, &v) in e.iter().enumerate() {
            if i < 4 {
                assert!(v > 100.0, "block {i}: {v}");
            } else {
                assert!(v < 1e-9, "block {i}: {v}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "bin index")]
    fn out_of_range_bin_panics() {
        Goertzel::new(16, 16);
    }
}
