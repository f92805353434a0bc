//! Digital mixing: retuning a capture in software.
//!
//! An RTL-SDR capture is centred wherever the tuner was pointed; to
//! put a specific VRM harmonic at a convenient baseband offset (or at
//! DC for a filter-and-decimate chain), multiply by a complex
//! exponential. Lossless and exact — the software equivalent of
//! turning the tuning knob.
//!
//! The steady-state entry point is [`mix_into`]: an incrementally
//! rotated phasor (one complex multiply per sample) re-anchored with
//! an exact `cis` every [`PHASOR_REFRESH`] samples, the same
//! drift-control pattern as `Frontend::digitize` and
//! `SlidingDft::refresh`. `mix_exact`, compiled only for tests, keeps
//! the one-`cis`-per-sample reference path as the accuracy oracle
//! (≤ −120 dB divergence, pinned in tests).

use crate::frontend::Capture;
use crate::iq::Complex;

/// Samples between exact re-anchors of the incremental mixing phasor.
/// Drift accumulates at ≲ 1 ulp per multiply, so the error at refresh
/// time stays near 1e-14 — far below the −120 dB kernel contract.
pub const PHASOR_REFRESH: usize = 64;

/// Frequency-shifts complex baseband samples by `shift_hz` into `out`:
/// energy at baseband frequency `f` moves to `f + shift_hz`.
///
/// `out` is cleared and refilled; after a warm-up call at the largest
/// input size the function performs no allocation. Matches
/// `mix_exact` to better than −120 dB.
pub fn mix_into(samples: &[Complex], sample_rate: f64, shift_hz: f64, out: &mut Vec<Complex>) {
    let step = 2.0 * std::f64::consts::PI * shift_hz / sample_rate;
    out.clear();
    out.reserve(samples.len());
    let rotator = Complex::cis(step);
    for (block_idx, block) in samples.chunks(PHASOR_REFRESH).enumerate() {
        // Exact anchor once per block, incremental rotation inside it.
        let mut phasor = Complex::cis(step * (block_idx * PHASOR_REFRESH) as f64);
        for &z in block {
            out.push(z * phasor);
            phasor *= rotator;
        }
    }
}

/// Reference mixer: an exact `Complex::cis` per sample. The accuracy
/// oracle for [`mix_into`]; O(n) libm calls.
#[cfg(test)]
fn mix_exact(samples: &[Complex], sample_rate: f64, shift_hz: f64) -> Vec<Complex> {
    let step = 2.0 * std::f64::consts::PI * shift_hz / sample_rate;
    samples.iter().enumerate().map(|(n, &z)| z * Complex::cis(step * n as f64)).collect()
}

/// Returns a copy of `capture` digitally retuned to `new_center_hz`:
/// the samples are mixed so that RF frequencies keep their identity
/// while the baseband origin moves.
pub fn retune(capture: &Capture, new_center_hz: f64) -> Capture {
    let shift = capture.center_freq - new_center_hz;
    let mut samples = Vec::new();
    mix_into(&capture.samples, capture.sample_rate, shift, &mut samples);
    Capture { samples, sample_rate: capture.sample_rate, center_freq: new_center_hz }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::{frequency_bin, plan_for};

    fn tone(f_bb: f64, fs: f64, n: usize) -> Vec<Complex> {
        (0..n).map(|i| Complex::cis(2.0 * std::f64::consts::PI * f_bb * i as f64 / fs)).collect()
    }

    fn mix(samples: &[Complex], sample_rate: f64, shift_hz: f64) -> Vec<Complex> {
        let mut out = Vec::new();
        mix_into(samples, sample_rate, shift_hz, &mut out);
        out
    }

    fn peak_bin(samples: &[Complex]) -> usize {
        let mut spec = samples.to_vec();
        plan_for(spec.len()).forward(&mut spec);
        spec.iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
            .map(|(k, _)| k)
            .expect("non-empty")
    }

    #[test]
    fn mixing_moves_a_tone_by_the_shift() {
        let fs = 1024.0;
        let x = tone(128.0, fs, 1024);
        let shifted = mix(&x, fs, 64.0);
        assert_eq!(peak_bin(&shifted), frequency_bin(192.0, 1024, fs));
        // Negative shifts too.
        let down = mix(&x, fs, -256.0);
        assert_eq!(peak_bin(&down), frequency_bin(-128.0, 1024, fs));
    }

    #[test]
    fn mixing_preserves_magnitude() {
        let fs = 1000.0;
        let x = tone(100.0, fs, 512);
        let y = mix(&x, fs, 333.0);
        for (a, b) in x.iter().zip(&y) {
            assert!((a.abs() - b.abs()).abs() < 1e-12);
        }
    }

    #[test]
    fn fast_mixer_matches_exact_oracle_below_minus_120_db() {
        let fs = 2.4e6;
        // Long enough to cross many phasor refreshes, with an awkward
        // non-bin-aligned shift.
        let x = tone(-431e3, fs, 50_000);
        let fast = mix(&x, fs, 123_456.789);
        let exact = mix_exact(&x, fs, 123_456.789);
        let err: f64 = fast.iter().zip(&exact).map(|(a, b)| (*a - *b).norm_sqr()).sum();
        let sig: f64 = exact.iter().map(|z| z.norm_sqr()).sum();
        let db = 10.0 * (err.max(1e-300) / sig).log10();
        assert!(db <= -120.0, "mixer error {db:.1} dB");
    }

    #[test]
    fn mix_into_reuses_the_output_buffer() {
        let x = tone(10.0, 100.0, 1000);
        let mut out = Vec::new();
        mix_into(&x, 100.0, 5.0, &mut out);
        let cap = out.capacity();
        mix_into(&x, 100.0, -5.0, &mut out);
        assert_eq!(out.capacity(), cap);
        assert_eq!(out.len(), x.len());
    }

    #[test]
    fn retune_keeps_rf_identity() {
        // A tone at RF 1.0 MHz in a capture centred at 1.4 MHz sits at
        // −400 kHz; retuned to 1.2 MHz it must sit at −200 kHz.
        let fs = 2.4e6;
        let n = 4096;
        let cap = Capture { samples: tone(-400e3, fs, n), sample_rate: fs, center_freq: 1.4e6 };
        let retuned = retune(&cap, 1.2e6);
        assert_eq!(retuned.center_freq, 1.2e6);
        assert_eq!(peak_bin(&retuned.samples), frequency_bin(-200e3, n, fs));
        // The RF frequency implied by the peak is unchanged.
        assert!((retuned.baseband(1.0e6) - -200e3).abs() < 1e-6);
    }

    #[test]
    fn zero_shift_is_identity() {
        let x = tone(50.0, 500.0, 256);
        let y = mix(&x, 500.0, 0.0);
        for (a, b) in x.iter().zip(&y) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_input_mixes_to_empty() {
        assert!(mix(&[], 100.0, 10.0).is_empty());
        assert!(mix_exact(&[], 100.0, 10.0).is_empty());
    }
}
