//! Short-time Fourier transform and spectrogram containers.
//!
//! The paper's analyses are all spectral-over-time: Fig. 2 and Fig. 11
//! are spectrograms of the received capture, and the keylogging
//! detector (§V-C) works on non-overlapping 5 ms STFT windows. This
//! module provides a planned, windowed, overlapping STFT over complex
//! I/Q buffers and a [`Spectrogram`] type with band-extraction helpers.

use crate::fft::{frequency_bin, plan_for};
use crate::iq::Complex;
use crate::window::Window;

/// Configuration for a short-time Fourier transform.
#[derive(Debug, Clone, PartialEq)]
pub struct StftConfig {
    /// FFT size per frame (power of two).
    pub fft_size: usize,
    /// Samples advanced between consecutive frames; `hop < fft_size`
    /// means overlapping frames.
    pub hop: usize,
    /// Analysis window applied to each frame.
    pub window: Window,
}

impl StftConfig {
    /// Creates a config with the given FFT size and hop.
    ///
    /// # Panics
    ///
    /// Panics if `fft_size` is not a power of two or `hop` is zero.
    pub fn new(fft_size: usize, hop: usize, window: Window) -> Self {
        assert!(fft_size.is_power_of_two(), "fft_size must be a power of two");
        assert!(hop > 0, "hop must be positive");
        StftConfig { fft_size, hop, window }
    }

    /// Non-overlapping frames (`hop == fft_size`), as used by the
    /// keylogging detector's 5 ms windows.
    pub fn non_overlapping(fft_size: usize, window: Window) -> Self {
        StftConfig::new(fft_size, fft_size, window)
    }

    /// Number of frames produced for an input of `n` samples.
    pub fn frame_count(&self, n: usize) -> usize {
        if n < self.fft_size {
            0
        } else {
            (n - self.fft_size) / self.hop + 1
        }
    }
}

/// A magnitude spectrogram: `frames × bins` matrix of `|X[k]|`.
///
/// Row `t` corresponds to the frame starting at sample `t · hop`;
/// column `k` to FFT bin `k` (complex-baseband bin convention).
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrogram {
    magnitudes: Vec<f64>,
    frames: usize,
    bins: usize,
    sample_rate: f64,
}

impl Spectrogram {
    /// Number of time frames (rows).
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Number of frequency bins per frame (columns).
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Sample rate of the analysed signal, in hertz.
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// Magnitude at frame `t`, bin `k`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= frames()` or `k >= bins()`.
    pub fn magnitude(&self, t: usize, k: usize) -> f64 {
        assert!(t < self.frames && k < self.bins, "spectrogram index out of range");
        self.magnitudes[t * self.bins + k]
    }

    /// The full row (all bins) for frame `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= frames()`.
    pub fn frame(&self, t: usize) -> &[f64] {
        assert!(t < self.frames, "frame index out of range");
        &self.magnitudes[t * self.bins..(t + 1) * self.bins]
    }

    /// Per-frame sum of magnitudes of the bins nearest the given
    /// baseband frequencies — the multi-harmonic energy signal `Y[n]`
    /// of the paper's Eq. (1), evaluated at the STFT frame rate.
    pub fn band_energy(&self, frequencies: &[f64]) -> Vec<f64> {
        let bins: Vec<usize> =
            frequencies.iter().map(|&f| frequency_bin(f, self.bins, self.sample_rate)).collect();
        (0..self.frames)
            .map(|t| bins.iter().map(|&k| self.magnitudes[t * self.bins + k]).sum())
            .collect()
    }

    /// The bin index with the greatest total magnitude across all
    /// frames, searched over `lo..=hi` hertz — a standard peak-detection
    /// shortcut for locating the VRM spike when `f_sw` is unknown.
    pub fn dominant_bin_in(&self, lo_hz: f64, hi_hz: f64) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for k in 0..self.bins {
            let f = crate::fft::bin_frequency(k, self.bins, self.sample_rate);
            if f < lo_hz || f > hi_hz {
                continue;
            }
            let total: f64 = (0..self.frames).map(|t| self.magnitudes[t * self.bins + k]).sum();
            if best.is_none_or(|(_, b)| total > b) {
                best = Some((k, total));
            }
        }
        best.map(|(k, _)| k)
    }

    /// Renders an ASCII-art spectrogram (time flows down, frequency
    /// rightwards over `lo..hi` hertz), for terminal demonstrations of
    /// Fig. 2 / Fig. 11.
    pub fn to_ascii(&self, lo_hz: f64, hi_hz: f64, width: usize, max_rows: usize) -> String {
        const SHADES: &[u8] = b" .:-=+*#%@";
        let mut rows = String::new();
        let row_stride = (self.frames / max_rows.max(1)).max(1);
        let peak = self.magnitudes.iter().cloned().fold(f64::MIN, f64::max).max(1e-30);
        let mut t = 0;
        while t < self.frames {
            let frame = self.frame(t);
            for c in 0..width {
                let f = lo_hz + (hi_hz - lo_hz) * c as f64 / width.max(1) as f64;
                let k = frequency_bin(f, self.bins, self.sample_rate);
                let norm = (frame[k] / peak).clamp(0.0, 1.0);
                // log-ish compression so weak spikes remain visible
                let level = (norm.powf(0.35) * (SHADES.len() - 1) as f64).round() as usize;
                rows.push(SHADES[level.min(SHADES.len() - 1)] as char);
            }
            rows.push('\n');
            t += row_stride;
        }
        rows
    }
}

/// Computes the magnitude spectrogram of complex I/Q samples.
///
/// Frames shorter than `fft_size` at the tail are dropped, matching
/// common practice.
///
/// # Examples
///
/// ```
/// use emsc_sdr::iq::Complex;
/// use emsc_sdr::stft::{stft, StftConfig};
/// use emsc_sdr::window::Window;
///
/// let fs = 1024.0;
/// let tone: Vec<Complex> = (0..4096)
///     .map(|n| Complex::cis(2.0 * std::f64::consts::PI * 128.0 * n as f64 / fs))
///     .collect();
/// let spec = stft(&tone, fs, &StftConfig::new(256, 128, Window::Hann));
/// let peak_bin = spec.dominant_bin_in(0.0, 512.0).unwrap();
/// assert_eq!(peak_bin, 32); // 128 Hz at 4 Hz/bin
/// ```
pub fn stft(samples: &[Complex], sample_rate: f64, config: &StftConfig) -> Spectrogram {
    let n = config.fft_size;
    let frames = config.frame_count(samples.len());
    let plan = plan_for(n);
    let win = config.window.coefficients(n);
    let mut magnitudes = Vec::with_capacity(frames * n);
    let mut buf = vec![Complex::ZERO; n];
    for t in 0..frames {
        let start = t * config.hop;
        for (i, slot) in buf.iter_mut().enumerate() {
            *slot = samples[start + i].scale(win[i]);
        }
        plan.forward(&mut buf);
        magnitudes.extend(buf.iter().map(|z| z.abs()));
    }
    Spectrogram { magnitudes, frames, bins: n, sample_rate }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(freq: f64, fs: f64, n: usize) -> Vec<Complex> {
        (0..n).map(|i| Complex::cis(2.0 * std::f64::consts::PI * freq * i as f64 / fs)).collect()
    }

    #[test]
    fn frame_count_matches_definition() {
        let cfg = StftConfig::new(256, 64, Window::Rectangular);
        assert_eq!(cfg.frame_count(255), 0);
        assert_eq!(cfg.frame_count(256), 1);
        assert_eq!(cfg.frame_count(256 + 64), 2);
        assert_eq!(cfg.frame_count(256 + 63), 1);
    }

    #[test]
    fn stationary_tone_is_constant_across_frames() {
        let fs = 2048.0;
        let x = tone(256.0, fs, 8192);
        let spec = stft(&x, fs, &StftConfig::new(512, 256, Window::Rectangular));
        let k = frequency_bin(256.0, 512, fs);
        let first = spec.magnitude(0, k);
        assert!(first > 100.0);
        for t in 0..spec.frames() {
            assert!((spec.magnitude(t, k) - first).abs() / first < 1e-6);
        }
    }

    #[test]
    fn on_off_keying_visible_in_bin_series() {
        // Tone on for the first half, off for the second half.
        let fs = 2048.0;
        let mut x = tone(512.0, fs, 4096);
        for s in x.iter_mut().skip(2048) {
            *s = Complex::ZERO;
        }
        let spec = stft(&x, fs, &StftConfig::non_overlapping(256, Window::Rectangular));
        let series = spec.band_energy(&[512.0]);
        let on_avg: f64 = series[..7].iter().sum::<f64>() / 7.0;
        let off_avg: f64 = series[9..].iter().sum::<f64>() / (series.len() - 9) as f64;
        assert!(on_avg > 50.0 * (off_avg + 1e-9), "on {on_avg} vs off {off_avg}");
    }

    #[test]
    fn band_energy_sums_requested_bins() {
        let fs = 1024.0;
        let x: Vec<Complex> = (0..2048)
            .map(|n| {
                let t = n as f64 / fs;
                Complex::cis(2.0 * std::f64::consts::PI * 128.0 * t)
                    + Complex::cis(2.0 * std::f64::consts::PI * 256.0 * t)
            })
            .collect();
        let spec = stft(&x, fs, &StftConfig::non_overlapping(256, Window::Rectangular));
        let single = spec.band_energy(&[128.0]);
        let double = spec.band_energy(&[128.0, 256.0]);
        assert!(double[0] > 1.9 * single[0] * 0.99);
    }

    #[test]
    fn dominant_bin_restricted_to_range() {
        let fs = 1000.0;
        // strong tone at 100 Hz, weak at 300 Hz
        let x: Vec<Complex> = (0..4096)
            .map(|n| {
                let t = n as f64 / fs;
                Complex::cis(2.0 * std::f64::consts::PI * 100.0 * t).scale(10.0)
                    + Complex::cis(2.0 * std::f64::consts::PI * 300.0 * t)
            })
            .collect();
        let spec = stft(&x, fs, &StftConfig::non_overlapping(512, Window::Hann));
        let k_all = spec.dominant_bin_in(0.0, 500.0).unwrap();
        assert_eq!(k_all, frequency_bin(100.0, 512, fs));
        let k_hi = spec.dominant_bin_in(200.0, 400.0).unwrap();
        assert_eq!(k_hi, frequency_bin(300.0, 512, fs));
    }

    #[test]
    fn ascii_rendering_has_expected_shape() {
        let fs = 1000.0;
        let x = tone(200.0, fs, 2048);
        let spec = stft(&x, fs, &StftConfig::non_overlapping(256, Window::Hann));
        let art = spec.to_ascii(0.0, 500.0, 40, 8);
        assert!(art.lines().count() <= 9);
        assert!(art.lines().all(|l| l.len() == 40));
        // There must be at least one strong cell per row.
        assert!(art.lines().all(|l| l.contains('@') || l.contains('%')));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_fft_size_panics() {
        StftConfig::new(300, 10, Window::Hann);
    }
}
