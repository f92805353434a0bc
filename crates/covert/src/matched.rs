//! The matched-filter receiver the paper tried first — and rejected.
//!
//! §IV-B1: "when applying the matched filter approach to our received
//! signal, the BER was high … the actual bit positions in the signal
//! quickly become misaligned with the clock created by the receiver."
//! This module implements that approach so the ablation benchmark can
//! reproduce the comparison: it locks a symbol clock to the first
//! detected edge and samples at a *fixed* period, with no per-bit
//! timing recovery.

use emsc_sdr::dsp::{convolve_same, edge_kernel, find_peaks};
use emsc_sdr::simd::sum_sq;
use emsc_sdr::stats::{try_quantile, try_quantile_in_place};

/// Demodulates the energy signal `y` (sample spacing `dt_s` seconds)
/// by integrating fixed windows of `symbol_period_s` from the first
/// detected edge onward — the conventional matched-filter/synchronous
/// sampling approach.
///
/// The edge quantile selects in place on a clamped copy of the edge
/// response, and each integrate-and-dump window is the lane-chunked
/// [`sum_sq`] reduction. This is a tolerance-bounded path (DESIGN.md
/// §12): the reassociated window sums differ from a scalar fold only
/// in the last ulps, far inside the mid-range decision threshold's
/// margin.
///
/// Returns the decoded bits: none if no edge is found or no window
/// has a finite power.
pub fn matched_filter_demodulate(y: &[f64], dt_s: f64, symbol_period_s: f64) -> Vec<u8> {
    if y.is_empty() || symbol_period_s <= 0.0 || dt_s <= 0.0 {
        return Vec::new();
    }
    let period = symbol_period_s / dt_s;
    // Find the first strong rising edge to anchor the clock.
    let l_d = ((period / 4.0).round() as usize * 2).max(4);
    let response = convolve_same(y, &edge_kernel(l_d));
    let mut positive: Vec<f64> = response.iter().map(|&v| v.max(0.0)).collect();
    let peaks = match try_quantile_in_place(&mut positive, 0.98) {
        Ok(robust) => find_peaks(&response, 0.3 * robust.max(1e-30), (period * 0.5) as usize),
        Err(_) => Vec::new(),
    };
    let Some(&first) = peaks.first() else {
        return Vec::new();
    };
    // Integrate-and-dump at the fixed period (no timing recovery).
    let mut powers = Vec::new();
    let mut pos = first.index as f64;
    while (pos + period) as usize <= y.len() {
        let s = pos as usize;
        let e = (pos + period) as usize;
        powers.push(sum_sq(&y[s..e]) / (e - s) as f64);
        pos += period;
    }
    // Same mid-range threshold rule as the batch receiver's fallback.
    // Both quantiles fail alike: no window, or a NaN in every one.
    let (Ok(lo), Ok(hi)) = (try_quantile(&powers, 0.05), try_quantile(&powers, 0.95)) else {
        return Vec::new();
    };
    let thr = (lo + hi) / 2.0;
    powers.iter().map(|&p| (p > thr) as u8).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An ideal OOK energy signal with exact symbol timing, padded
    /// with idle lead-in/lead-out.
    fn ideal_energy(bits: &[u8], spb: usize) -> Vec<f64> {
        let mut y = vec![0.05; spb];
        for &b in bits {
            for n in 0..spb {
                let on = if b == 1 { n < spb / 2 } else { n < spb / 10 };
                y.push(if on { 1.0 } else { 0.05 });
            }
        }
        y.extend(std::iter::repeat_n(0.05, spb));
        y
    }

    /// The same signal with per-bit positive timing jitter.
    fn jittered_energy(bits: &[u8], spb: usize, jitter_frac: f64) -> Vec<f64> {
        let mut y = Vec::new();
        let mut state = 99u64;
        for &b in bits {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let j = ((state % 1000) as f64 / 1000.0) * jitter_frac;
            let len = (spb as f64 * (1.0 + j)) as usize;
            for n in 0..len {
                let on = if b == 1 { n < spb / 2 } else { n < spb / 10 };
                y.push(if on { 1.0 } else { 0.05 });
            }
        }
        y
    }

    #[test]
    fn perfect_clock_decodes_perfectly() {
        let bits = vec![1u8, 0, 1, 1, 0, 0, 1, 0, 1, 0, 0, 1];
        let y = ideal_energy(&bits, 40);
        let out = matched_filter_demodulate(&y, 1.0, 40.0);
        // The idle lead-out may decode as one extra trailing 0.
        assert!(out.len() >= bits.len());
        assert_eq!(&out[..bits.len()], &bits[..]);
        assert!(out[bits.len()..].iter().all(|&b| b == 0));
    }

    #[test]
    fn timing_jitter_destroys_the_matched_filter() {
        // With ~25 % positive jitter per symbol, the fixed clock walks
        // off the bit grid: BER collapses toward coin-flipping, which
        // is exactly why the paper abandoned this receiver.
        let bits: Vec<u8> = (0..200).map(|i| ((i * 5 + 1) % 3 == 0) as u8).collect();
        let y = jittered_energy(&bits, 40, 0.25);
        let out = matched_filter_demodulate(&y, 1.0, 40.0);
        let compare = bits.len().min(out.len());
        let errors = bits[..compare].iter().zip(&out[..compare]).filter(|(a, b)| a != b).count();
        let ber = errors as f64 / compare as f64;
        assert!(ber > 0.15, "matched filter unexpectedly robust: BER {ber}");
    }

    #[test]
    fn empty_input_yields_no_bits() {
        assert!(matched_filter_demodulate(&[], 1.0, 10.0).is_empty());
        assert!(matched_filter_demodulate(&[0.0; 100], 1.0, 10.0).is_empty());
    }
}
