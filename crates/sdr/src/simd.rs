//! Lane-chunked reduction kernels (autovectorizable, reassociated).
//!
//! Stable Rust cannot spell SIMD intrinsics without `unsafe`, but it
//! does not need to: a reduction written as `LANES` independent
//! accumulators over `chunks_exact(LANES)` compiles to packed vector
//! code on every target this workspace builds for, because each lane's
//! dependency chain is separate. The cost is *reassociation* — the
//! floating-point sums are grouped differently from the naive
//! left-to-right fold, so results differ from the scalar reference in
//! the last few ulps.
//!
//! The crate's rule (DESIGN.md §12): kernels that feed **bit-pinned**
//! paths (the Eq. (1) energy chain, the streaming state machines)
//! keep the scalar evaluation order; kernels that feed **tolerance-
//! bounded** paths (matched-filter integrate-and-dump, AGC peak scan)
//! may use these. The reassociated [`sum_sq`] has an `_exact` scalar
//! oracle, compiled only for tests, and a test pinning the divergence
//! below −120 dB; [`peak_abs`] is pinned equal to the scalar fold.

use crate::iq::Complex;

/// Accumulator width. Four f64 lanes cover one AVX2 register and two
/// NEON registers; wider inputs still vectorize because LLVM unrolls
/// the chunk loop.
pub const LANES: usize = 4;

/// Lane-chunked sum of squares. Reassociated relative to
/// `sum_sq_exact`.
pub fn sum_sq(xs: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let chunks = xs.chunks_exact(LANES);
    let tail = chunks.remainder();
    for c in chunks {
        for (a, &x) in acc.iter_mut().zip(c) {
            *a += x * x;
        }
    }
    let mut total = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for &x in tail {
        total += x * x;
    }
    total
}

/// Scalar oracle for [`sum_sq`].
#[cfg(test)]
fn sum_sq_exact(xs: &[f64]) -> f64 {
    xs.iter().map(|&x| x * x).sum()
}

/// Largest `max(|re|, |im|)` over the buffer — the AGC peak scan.
///
/// `max` is associative over the non-NaN reals and Rust's `f64::max`
/// ignores a NaN operand, so unlike the additive kernels this one is
/// *value-identical* to the scalar fold for every input.
pub fn peak_abs(zs: &[Complex]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let chunks = zs.chunks_exact(LANES);
    let tail = chunks.remainder();
    for c in chunks {
        for (a, z) in acc.iter_mut().zip(c) {
            *a = a.max(z.re.abs().max(z.im.abs()));
        }
    }
    let mut peak = acc[0].max(acc[1]).max(acc[2]).max(acc[3]);
    for z in tail {
        peak = peak.max(z.re.abs().max(z.im.abs()));
    }
    peak
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random doubles (xorshift, no deps).
    fn noise(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 2_000_000) as f64 / 1_000_000.0 - 1.0
            })
            .collect()
    }

    fn db(err: f64, reference: f64) -> f64 {
        10.0 * (err.abs().max(1e-300) / reference.abs().max(1e-300)).log10()
    }

    #[test]
    fn fast_reductions_match_oracles_below_minus_120_db() {
        for n in [0, 1, 3, 4, 5, 17, 1024, 4099] {
            let xs = noise(n, 0xD5B_u64 ^ n as u64);
            assert!(db(sum_sq(&xs) - sum_sq_exact(&xs), sum_sq_exact(&xs).max(1.0)) <= -120.0);
        }
    }

    #[test]
    fn peak_abs_is_value_identical_to_scalar_fold() {
        for n in [0, 1, 5, 64, 1003] {
            let xs = noise(n, 3 + n as u64);
            let ys = noise(n, 9 + n as u64);
            let zs: Vec<Complex> = xs.iter().zip(&ys).map(|(&a, &b)| Complex::new(a, b)).collect();
            let scalar = zs.iter().map(|z| z.re.abs().max(z.im.abs())).fold(0.0f64, f64::max);
            assert_eq!(peak_abs(&zs), scalar, "n = {n}");
        }
    }

    #[test]
    fn peak_abs_ignores_nan_like_the_scalar_fold() {
        let mut zs = vec![Complex::new(0.5, -0.25); 9];
        zs[3] = Complex::new(f64::NAN, 0.1);
        let scalar = zs.iter().map(|z| z.re.abs().max(z.im.abs())).fold(0.0f64, f64::max);
        assert_eq!(peak_abs(&zs), scalar);
    }

    #[test]
    fn empty_inputs_reduce_to_zero() {
        assert_eq!(sum_sq(&[]), 0.0);
        assert_eq!(peak_abs(&[]), 0.0);
    }
}
