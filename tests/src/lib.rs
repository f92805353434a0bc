//! Shared fixtures for the cross-crate integration tests.
//!
//! The torture corpus — every degenerate capture a real deployment can
//! produce — lives here so the panic-safety suite (`torture.rs`) and
//! the chunk-invariance suite (`streaming.rs`) exercise the *same*
//! inputs: any capture a whole-capture push must survive, every
//! chunking of it must survive too, with bit-identical output.
//!
//! The batch oracle lives here as well: the receive front ends rebuilt
//! from the `emsc-sdr` batch kernels ([`batch_energy`],
//! [`batch_edge_response`], [`batch_window_energy`]), which the
//! receivers' streaming front ends must reproduce bit for bit.

use emsc_covert::rx::RxConfig;
use emsc_keylog::detect::{DetectorConfig, HARMONICS, WINDOW_SAMPLES};
use emsc_sdr::dsp::{convolve_same, edge_kernel, moving_average};
use emsc_sdr::error::CaptureError;
use emsc_sdr::fft::frequency_bin;
use emsc_sdr::sliding::SlidingDft;
use emsc_sdr::stft::{stft, StftConfig};
use emsc_sdr::window::Window;
use emsc_sdr::{Capture, Complex};

/// Sample rate shared by every corpus capture, hertz.
pub const FS: f64 = 2.4e6;
/// VRM switching frequency the corpus receivers are tuned to, hertz.
pub const F_SW: f64 = 250e3;

/// Wraps samples in a [`Capture`] at the corpus tuning ([`FS`]/[`F_SW`]).
pub fn capture(samples: Vec<Complex>) -> Capture {
    Capture { samples, sample_rate: FS, center_freq: F_SW }
}

/// A deterministic xorshift so the corpus needs no RNG plumbing.
pub fn noise(n: usize, mut state: u64) -> Vec<Complex> {
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let re = ((state & 0xFFFF) as f64 / 65535.0) - 0.5;
            let im = (((state >> 16) & 0xFFFF) as f64 / 65535.0) - 0.5;
            Complex::new(re, im)
        })
        .collect()
}

/// An on-off-keyed tone at the VRM line: structurally a transmission,
/// so truncating it mid-"frame" exercises the decode tail.
pub fn ook_tone(n: usize, bit_samples: usize) -> Vec<Complex> {
    (0..n)
        .map(|i| {
            let on = (i / bit_samples).is_multiple_of(2);
            let amp = if on { 0.5 } else { 0.02 };
            // Carrier at baseband 0 Hz (center_freq == f_sw).
            Complex::new(amp, 0.0) + noise(1, i as u64 + 1)[0].scale(0.05)
        })
        .collect()
}

/// The torture corpus: label plus capture. Degenerate sample rates get
/// their own entries in the torture suite (they need different
/// [`Capture`] fields).
pub fn corpus() -> Vec<(&'static str, Capture)> {
    let mut nan_laced = ook_tone(60_000, 600);
    for i in (0..nan_laced.len()).step_by(97) {
        nan_laced[i] = Complex::new(f64::NAN, f64::INFINITY);
    }
    let all_nan = vec![Complex::new(f64::NAN, f64::NAN); 20_000];
    let clipped: Vec<Complex> = ook_tone(60_000, 600)
        .into_iter()
        .map(|s| Complex::new(s.re.clamp(-0.03, 0.03), s.im.clamp(-0.03, 0.03)))
        .collect();
    let mut truncated = ook_tone(120_000, 600);
    truncated.truncate(truncated.len() / 3 + 17);

    vec![
        ("empty", capture(Vec::new())),
        ("one-sample", capture(vec![Complex::new(0.1, 0.0)])),
        ("shorter-than-window", capture(noise(100, 5))),
        ("dc-only", capture(vec![Complex::new(0.3, 0.0); 50_000])),
        ("silence", capture(vec![Complex::new(0.0, 0.0); 50_000])),
        ("pure-noise", capture(noise(50_000, 42))),
        ("nan-laced", capture(nan_laced)),
        ("all-nan", capture(all_nan)),
        ("hard-clipped", capture(clipped)),
        ("truncated-mid-frame", capture(truncated)),
    ]
}

/// Smoothed Eq. (1) energy signal of `capture` from the sdr batch
/// kernels: one [`SlidingDft::process_into`] call over a sanitised
/// copy of the capture (non-finite samples zeroed) at the in-band
/// harmonic bins, then a 3-sample [`moving_average`] — the covert
/// receiver's stages 1–2a up to the edge convolution.
///
/// # Errors
///
/// The tracker's [`CaptureError::InvalidConfig`], then, checked here,
/// [`CaptureError::Empty`], [`CaptureError::TooShort`] for a capture
/// shorter than one window, and [`CaptureError::NonFinite`] for a
/// majority of non-finite samples.
pub fn batch_energy(cfg: &RxConfig, capture: &Capture) -> Result<Vec<f64>, CaptureError> {
    let (fs, fc) = (capture.sample_rate, capture.center_freq);
    let bins: Vec<usize> = (1..=cfg.harmonics)
        .map(|h| cfg.switching_freq_hz * h as f64)
        .filter(|f| (f - fc).abs() < fs / 2.0)
        .map(|f| frequency_bin(f - fc, cfg.fft_size, fs))
        .collect();
    let mut sdft = SlidingDft::try_new(cfg.fft_size, &bins)?;
    let samples = &capture.samples;
    if samples.is_empty() {
        return Err(CaptureError::Empty);
    }
    if samples.len() < cfg.fft_size {
        return Err(CaptureError::TooShort { needed: cfg.fft_size, got: samples.len() });
    }
    let finite = |x: &Complex| x.re.is_finite() && x.im.is_finite();
    let non_finite = samples.iter().filter(|x| !finite(x)).count();
    if non_finite * 2 > samples.len() {
        return Err(CaptureError::NonFinite { count: non_finite, total: samples.len() });
    }
    let sanitised: Vec<Complex> =
        samples.iter().map(|&x| if finite(&x) { x } else { Complex::ZERO }).collect();
    let mut raw = Vec::new();
    sdft.process_into(&sanitised, cfg.decimation, &mut raw);
    Ok(moving_average(&raw, 3))
}

/// §IV-B2 edge response of a smoothed energy signal sampled every
/// `dt` seconds, for an expected bit period of `bit_period_s`:
/// [`convolve_same`] with an [`edge_kernel`] of
/// `edge_kernel_fraction` bit periods (even, at least 4 taps).
pub fn batch_edge_response(energy: &[f64], cfg: &RxConfig, dt: f64, bit_period_s: f64) -> Vec<f64> {
    let expected_bit = (bit_period_s / dt).max(4.0);
    let len = (((expected_bit * cfg.edge_kernel_fraction) / 2.0).round() as usize * 2).max(4);
    convolve_same(energy, &edge_kernel(len))
}

/// Per-window VRM-band energy of `capture` from the sdr batch kernels:
/// a non-overlapping Hann [`stft`], then `band_energy` over the
/// in-band harmonics, with non-finite windows zeroed — the keystroke
/// detector's front end.
pub fn batch_window_energy(cfg: &DetectorConfig, capture: &Capture) -> Vec<f64> {
    let spec = stft(
        &capture.samples,
        capture.sample_rate,
        &StftConfig::non_overlapping(WINDOW_SAMPLES, Window::Hann),
    );
    let freqs: Vec<f64> = (1..=HARMONICS)
        .map(|h| cfg.switching_freq_hz * h as f64 - capture.center_freq)
        .filter(|f| f.abs() < capture.sample_rate / 2.0)
        .collect();
    spec.band_energy(&freqs).into_iter().map(|e| if e.is_finite() { e } else { 0.0 }).collect()
}
