//! Software-defined-radio receiver model and from-scratch DSP library.
//!
//! This crate is the signal-processing substrate for reproducing the
//! HPCA 2020 paper *"A New Side-Channel Vulnerability on Modern
//! Computers by Exploiting Electromagnetic Emanations from the Power
//! Management Unit"*. The paper's receiver is an RTL-SDR v3 (8-bit,
//! 2.4 Msps) feeding a MATLAB detection pipeline; this crate provides
//! the Rust equivalents of every primitive it needs:
//!
//! - [`iq`]: the [`iq::Complex`] I/Q sample type,
//! - [`fft`]: a from-scratch radix-2 FFT ([`fft::FftPlan`]),
//! - [`window`]/[`stft`]: windowed short-time analysis and
//!   [`stft::Spectrogram`]s (Fig. 2, Fig. 11),
//! - [`sliding`]: per-sample tracking of selected bins — the paper's
//!   Eq. (1) energy signal at "maximum overlap" cost `O(|S|)`/sample,
//! - [`dsp`]: convolution, the edge-detection kernel of §IV-B2, peak
//!   finding, each kernel in one form that returns a fresh result,
//! - [`stats`]: histograms, medians, Rayleigh fits (Fig. 6) and
//!   bimodal threshold selection (Fig. 7),
//! - [`stream`]: chunk-fed energy, band-energy, smoothing and
//!   convolution state machines, bit-identical to the batch kernels;
//!   each owns its working buffers, so a warmed-up push allocates
//!   nothing,
//! - [`frontend`]: the RTL-SDR front-end imperfection model (8-bit
//!   quantisation, crystal ppm error, DC spur, AGC),
//! - [`impair`]: deterministic channel-impairment injection (clock
//!   drift, AGC steps, dropped samples, bursts, clipping),
//! - [`record`]: the `rtl_sdr` interleaved-u8 capture format, so the
//!   pipeline also runs against real dongle recordings,
//! - [`error`]: the typed capture and statistics errors,
//! - [`simd`]: lane-chunked (autovectorizable) reductions, pinned
//!   against exact scalar oracles in tests,
//! - [`rounding`]: `floor` and `ceil` (and, inside the crate, `round`)
//!   without a libm call, bit-identical to the `f64` methods.
//!
//! # Examples
//!
//! Locating a strong spectral spike the way the paper's receiver finds
//! the VRM switching frequency:
//!
//! ```
//! use emsc_sdr::iq::Complex;
//! use emsc_sdr::stft::{stft, StftConfig};
//! use emsc_sdr::window::Window;
//! use emsc_sdr::fft::bin_frequency;
//!
//! let fs = 2.4e6;
//! let f_sw = 970e3 - 1.4e6; // 970 kHz at a 1.4 MHz tuner = -430 kHz baseband
//! let capture: Vec<Complex> = (0..16_384)
//!     .map(|n| Complex::cis(2.0 * std::f64::consts::PI * f_sw * n as f64 / fs))
//!     .collect();
//! let spec = stft(&capture, fs, &StftConfig::new(1024, 512, Window::Hann));
//! let bin = spec.dominant_bin_in(-1.2e6, 1.2e6).unwrap();
//! let found = bin_frequency(bin, 1024, fs);
//! assert!((found - f_sw).abs() < fs / 1024.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod dsp;
pub mod error;
pub mod fft;
pub mod frontend;
pub mod impair;
pub mod iq;
pub mod record;
pub mod rounding;
pub mod simd;
pub mod sliding;
pub mod stats;
pub mod stft;
pub mod stream;
pub mod window;

pub use error::{CaptureError, StatsError};
pub use frontend::{Capture, Frontend, FrontendConfig};
pub use iq::Complex;
