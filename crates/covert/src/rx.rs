//! The covert-channel receiver: the paper's §IV-B detection pipeline.
//!
//! Stages, each corresponding to a paper artefact:
//!
//! 1. **Signal acquisition** (Eq. (1), Fig. 4): the energy signal
//!    `Y[n] = Σ_{k∈S} |F_n[k]|` over the VRM fundamental and its first
//!    harmonic, computed with a sliding DFT (maximum overlap).
//! 2. **Edge detection** (Fig. 5): convolve `Y` with a `±1` kernel to
//!    mimic a derivative; local maxima are bit-start candidates.
//! 3. **Signal timing** (Fig. 6): the inter-start distances form a
//!    positively-skewed (Rayleigh-like) distribution; the median
//!    (CDF = 0.5) is taken as the signalling period, and gaps where
//!    starts were missed are filled at that period.
//! 4. **Labeling** (Eq. (2), Fig. 7): per-bit average power, with a
//!    threshold placed midway between the two modes of the power
//!    histogram of the bits around each one.
//!
//! Every intermediate is exposed in the [`RxReport`] so experiments
//! can regenerate the paper's figures (C-INTERMEDIATE).
//!
//! Stages 1–2a run sample by sample in [`StreamingReceiver`]; the
//! decision stages 2b–4 live here (`decode_from_energy`), run once at
//! [`StreamingReceiver::finish`]. [`Receiver`] is the whole-capture
//! entry point: it pushes a capture through a `StreamingReceiver` in
//! one chunk and finishes it.

use emsc_sdr::dsp::find_peaks;
use emsc_sdr::error::CaptureError;
use emsc_sdr::fft::{frequency_bin, MAX_TRANSFORM_SIZE};
use emsc_sdr::stats::{median, quantile, try_quantile, try_quantile_in_place, Histogram};
use emsc_sdr::Capture;

use crate::stream::StreamingReceiver;

/// Why the acquisition / symbol-sync stage could not lock — the
/// diagnostic payload of [`RxError::SyncLost`].
///
/// Fieldless so [`RxError`] stays `Copy`/`Eq`; each variant names one
/// concrete way [`try_find_switching_frequency`] or
/// [`try_estimate_bit_period`] loses lock, so a long-running streaming
/// session can report *why* instead of a bare `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncLoss {
    /// The capture is shorter than one spectral-analysis frame, so no
    /// spectrum exists to scan for the VRM line.
    NoSpectralFrames,
    /// The requested scan band contains no bin of the captured span
    /// (tuner parked outside the band of interest).
    BandOutsideCapture,
    /// Every bin inside the scan band carries zero energy — nothing is
    /// radiating where the VRM line should be.
    SilentBand,
    /// Too few energy samples to autocorrelate for a bit clock.
    TooFewSamples,
    /// The energy signal's time step is non-positive.
    InvalidTimeStep,
    /// The plausible-period window maps to an empty lag range at this
    /// time step and signal length.
    EmptyLagRange,
    /// The energy signal has no variance (flat line), so its
    /// autocorrelation is undefined.
    NoVariance,
    /// No autocorrelation peak stands out above the significance bar —
    /// the signal carries no visible bit clock.
    NoPeriodicity,
}

impl std::fmt::Display for SyncLoss {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            SyncLoss::NoSpectralFrames => "capture shorter than one spectral-analysis frame",
            SyncLoss::BandOutsideCapture => "scan band lies outside the captured span",
            SyncLoss::SilentBand => "no energy anywhere in the scan band",
            SyncLoss::TooFewSamples => "too few energy samples to autocorrelate",
            SyncLoss::InvalidTimeStep => "non-positive energy time step",
            SyncLoss::EmptyLagRange => "period window maps to an empty lag range",
            SyncLoss::NoVariance => "energy signal has no variance",
            SyncLoss::NoPeriodicity => "no autocorrelation peak above the significance bar",
        };
        f.write_str(msg)
    }
}

/// Why the receiver could not demodulate a capture.
///
/// `Copy`/`Eq` so experiment grids can carry per-cell decode failures
/// through `Clone`d outcome structs and compare them bit-for-bit in
/// determinism tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxError {
    /// The receiver configuration violates an invariant (the message
    /// names it).
    InvalidConfig(&'static str),
    /// The capture itself is unusable (empty, too short for one
    /// analysis window, majority-non-finite, bad sample rate).
    Capture(CaptureError),
    /// No configured VRM harmonic falls inside the captured band, so
    /// there is no carrier to track.
    NoCarrier,
    /// The acquisition stage lost (or never achieved) lock, for the
    /// stated reason.
    SyncLost(SyncLoss),
}

impl RxError {
    /// Whether re-running the capture could plausibly clear this
    /// error. Channel-condition failures — an unusable capture
    /// ([`CaptureError::is_retryable`]) or lost acquisition lock
    /// ([`RxError::SyncLost`]: the channel was silent, flat or
    /// aperiodic *this time*) — are retryable. Configuration failures
    /// ([`RxError::InvalidConfig`], [`RxError::NoCarrier`]: the tuner
    /// is parked where no harmonic can ever appear) are fatal: a
    /// supervisor should quarantine the session rather than restart
    /// it.
    pub fn is_retryable(&self) -> bool {
        match self {
            RxError::Capture(e) => e.is_retryable(),
            RxError::SyncLost(_) => true,
            RxError::InvalidConfig(_) | RxError::NoCarrier => false,
        }
    }
}

impl std::fmt::Display for RxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RxError::InvalidConfig(msg) => write!(f, "invalid receiver configuration: {msg}"),
            RxError::Capture(e) => write!(f, "unusable capture: {e}"),
            RxError::NoCarrier => {
                write!(f, "no VRM harmonic falls inside the captured band")
            }
            RxError::SyncLost(loss) => write!(f, "acquisition lost lock: {loss}"),
        }
    }
}

impl std::error::Error for RxError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RxError::Capture(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CaptureError> for RxError {
    fn from(e: CaptureError) -> Self {
        RxError::Capture(e)
    }
}

/// Which per-bit statistic the labeler thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LabelFeature {
    /// Eq. (2): mean power over the whole bit — the paper's rule.
    #[default]
    MeanPower,
    /// Return-to-zero differential: mean power of the bit's first
    /// half minus its second half. A `1` (active-then-sleep) is
    /// strongly positive; a `0` is ≈ 0 — and any slow pedestal (for
    /// example a CPU hog on another core of the shared rail) cancels.
    RzDifferential,
}

/// Receiver configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RxConfig {
    /// VRM switching frequency (RF), hertz. Must be finite. The paper
    /// finds it by peak detection when unknown; see
    /// [`try_find_switching_frequency`].
    pub switching_freq_hz: f64,
    /// How many harmonics form the set `S` of Eq. (1) (1 = fundamental
    /// only; the paper uses 2: fundamental + first harmonic). At least
    /// 1, and `harmonics × fft_size` at most
    /// [`MAX_REFRESH_TWIDDLES`]: the sliding DFT keeps a window of
    /// refresh twiddles for every in-band harmonic, duplicate bins
    /// included.
    pub harmonics: usize,
    /// Sliding-DFT window (the paper's 1024-point FFT). A power of two,
    /// at most [`MAX_TRANSFORM_SIZE`] (2^16) points.
    pub fft_size: usize,
    /// Decimation of the energy signal (receiver-side processing
    /// budget; 24 ⇒ 10 µs resolution at 2.4 Msps).
    pub decimation: usize,
    /// The attacker's prior on the bit period (from the known
    /// transmitter parameters), seconds. Must be positive and at most
    /// 1 s; the slowest bit any scenario sends is about 1 ms.
    pub expected_bit_period_s: f64,
    /// Edge-kernel length as a fraction of the expected bit period.
    /// Must be finite and in (0, 1].
    pub edge_kernel_fraction: f64,
    /// Peak threshold as a fraction of the robust (98th-percentile)
    /// maximum of the edge response.
    pub peak_threshold_frac: f64,
    /// Insert missing bit starts at the recovered period, where the
    /// edge response shows weak evidence of a start.
    pub gap_fill: bool,
    /// Per-bit statistic to threshold.
    pub label_feature: LabelFeature,
}

impl RxConfig {
    /// Defaults for a given switching frequency and expected bit
    /// period.
    ///
    /// Deviation from the paper: §IV-C1 uses a 1024-point FFT, but a
    /// 1024-sample sliding window is 427 µs at 2.4 Msps — longer than
    /// one ~250 µs bit — and against our simulated captures it smears
    /// adjacent bits into each other (the `window` rows of
    /// `reproduce -- ablations` quantify this). 256 points resolves
    /// individual bits while keeping the VRM line within one bin.
    pub fn new(switching_freq_hz: f64, expected_bit_period_s: f64) -> Self {
        RxConfig {
            switching_freq_hz,
            harmonics: 2,
            fft_size: 256,
            decimation: 24,
            expected_bit_period_s,
            edge_kernel_fraction: 0.5,
            peak_threshold_frac: 0.22,
            gap_fill: true,
            label_feature: LabelFeature::default(),
        }
    }
}

/// Everything the receiver computed, intermediates included.
#[derive(Debug, Clone, PartialEq)]
pub struct RxReport {
    /// The Eq. (1) energy signal `Y`, decimated.
    pub energy: Vec<f64>,
    /// Seconds per energy sample.
    pub energy_dt_s: f64,
    /// Edge-detector response (same length as `energy`).
    pub edge_response: Vec<f64>,
    /// Detected bit-start indices before gap filling.
    pub raw_starts: Vec<usize>,
    /// Bit-start indices after gap filling.
    pub starts: Vec<usize>,
    /// Inter-start distances (seconds) — the Fig. 6 data.
    pub distances_s: Vec<f64>,
    /// Recovered signalling period (median of distances), seconds.
    pub bit_period_s: f64,
    /// Per-bit mean power — the Fig. 7 data.
    pub powers: Vec<f64>,
    /// Decision threshold over the whole power histogram (Fig. 7).
    /// Each bit is labelled against the same rule applied to the
    /// bits within 60 of it, which tracks slow level shifts.
    pub threshold: f64,
    /// The two power-histogram modes the threshold came from, if the
    /// histogram was bimodal.
    pub threshold_modes: Option<(f64, f64)>,
    /// Demodulated bits.
    pub bits: Vec<u8>,
    /// Number of non-finite capture samples zeroed before analysis
    /// (0 for a clean capture).
    pub sanitized_samples: usize,
}

impl RxReport {
    /// Effective transmission rate of this capture, bits/second.
    pub fn transmission_rate_bps(&self) -> f64 {
        if self.bit_period_s > 0.0 {
            1.0 / self.bit_period_s
        } else {
            0.0
        }
    }

    /// The explicit "nothing decoded" report: every intermediate
    /// empty, zero period and threshold. Callers that must keep going
    /// when [`Receiver::receive`] fails (an experiment grid cell, a
    /// session) record the error and carry this report instead.
    pub fn empty(energy_dt_s: f64) -> Self {
        RxReport {
            energy: Vec::new(),
            energy_dt_s,
            edge_response: Vec::new(),
            raw_starts: Vec::new(),
            starts: Vec::new(),
            distances_s: Vec::new(),
            bit_period_s: 0.0,
            powers: Vec::new(),
            threshold: 0.0,
            threshold_modes: None,
            bits: Vec::new(),
            sanitized_samples: 0,
        }
    }
}

/// Locates the strongest spectral spike in `lo..hi` Hz (RF) — the
/// standard peak-detection step the paper uses when the VRM band is
/// not already known for the device (§V-C) — or reports *why* no VRM
/// line could be located.
///
/// # Errors
///
/// [`RxError::SyncLost`] carrying the [`SyncLoss`] reason: a capture
/// too short to form one spectral frame, a scan band outside the
/// captured span, or a band with no energy at all.
pub fn try_find_switching_frequency(
    capture: &Capture,
    lo_hz: f64,
    hi_hz: f64,
) -> Result<f64, RxError> {
    use emsc_sdr::stft::{stft, StftConfig};
    use emsc_sdr::window::Window;
    if capture.samples.len() < 1024 {
        return Err(RxError::SyncLost(SyncLoss::NoSpectralFrames));
    }
    let spec =
        stft(&capture.samples, capture.sample_rate, &StftConfig::new(1024, 4096, Window::Hann));
    let bin = spec
        .dominant_bin_in(capture.baseband(lo_hz), capture.baseband(hi_hz))
        .ok_or(RxError::SyncLost(SyncLoss::BandOutsideCapture))?;
    let total: f64 = (0..spec.frames()).map(|t| spec.frame(t)[bin]).sum();
    if total <= 0.0 {
        return Err(RxError::SyncLost(SyncLoss::SilentBand));
    }
    Ok(emsc_sdr::fft::bin_frequency(bin, 1024, capture.sample_rate) + capture.center_freq)
}

/// Estimates the signalling period of an on-off-keyed energy signal
/// without any transmitter-side knowledge, from the autocorrelation
/// of the (mean-removed) signal: the RZ bit clock produces a
/// periodic structure whose first strong autocorrelation peak sits at
/// one bit period.
///
/// This is what the paper's sync preamble (alternating 1/0, §IV-C1)
/// is *for* — a maximally periodic header the receiver can lock onto
/// blind. When no bit clock can be recovered the [`SyncLoss`] says
/// why, so streaming sessions can log the cause when they fall back
/// to the configured prior.
///
/// # Errors
///
/// The [`SyncLoss`] reason: too few samples, a bad time step, an
/// empty lag range, a flat signal, or no autocorrelation peak.
pub fn try_estimate_bit_period(
    energy: &[f64],
    dt_s: f64,
    min_s: f64,
    max_s: f64,
) -> Result<f64, SyncLoss> {
    if energy.len() < 16 {
        return Err(SyncLoss::TooFewSamples);
    }
    if dt_s <= 0.0 {
        return Err(SyncLoss::InvalidTimeStep);
    }
    let mean = energy.iter().sum::<f64>() / energy.len() as f64;
    let x: Vec<f64> = energy.iter().map(|&v| v - mean).collect();
    let lo = (min_s / dt_s).floor().max(1.0) as usize;
    let hi = ((max_s / dt_s).ceil() as usize).min(x.len() / 2);
    if lo >= hi {
        return Err(SyncLoss::EmptyLagRange);
    }
    let energy0: f64 = x.iter().map(|&v| v * v).sum();
    if energy0 <= 0.0 {
        return Err(SyncLoss::NoVariance);
    }
    let mut best: Option<(usize, f64)> = None;
    let mut prev = f64::INFINITY;
    let mut rising = false;
    for lag in lo..hi {
        let mut acc = 0.0;
        for i in 0..x.len() - lag {
            acc += x[i] * x[i + lag];
        }
        let r = acc / energy0;
        // Track the first pronounced local maximum after a rise.
        if r > prev {
            rising = true;
        } else if rising && prev > 0.15 {
            // prev was a local max above the significance bar.
            best = Some((lag - 1, prev));
            break;
        } else if r < prev {
            rising = false;
        }
        prev = r;
    }
    best.map(|(lag, _)| lag as f64 * dt_s).ok_or(SyncLoss::NoPeriodicity)
}

/// Ceiling on [`RxConfig::expected_bit_period_s`]. It bounds the edge
/// kernel, whose length is a fraction of the bit period.
const MAX_BIT_PERIOD_S: f64 = 1.0;

/// Checks the invariants every receiver configuration must hold; its
/// one caller is [`StreamingReceiver`]'s construction, which every
/// receive path goes through.
///
/// # Errors
///
/// [`RxError::InvalidConfig`] naming the first violated invariant.
pub(crate) fn validate(cfg: &RxConfig) -> Result<(), RxError> {
    let broken = if !cfg.fft_size.is_power_of_two() {
        "FFT size must be a power of two"
    } else if cfg.fft_size > MAX_TRANSFORM_SIZE {
        "FFT size must be at most 2^16"
    } else if cfg.decimation == 0 {
        "decimation must be positive"
    } else if cfg.harmonics == 0 {
        "need at least the fundamental in S"
    } else if cfg.harmonics.checked_mul(cfg.fft_size).is_none_or(|n| n > MAX_REFRESH_TWIDDLES) {
        "harmonics × FFT size must be at most 2^20"
    } else if !(cfg.expected_bit_period_s > 0.0 && cfg.expected_bit_period_s.is_finite()) {
        "bit period must be positive"
    } else if cfg.expected_bit_period_s > MAX_BIT_PERIOD_S {
        "bit period must be at most 1 s"
    } else if !(cfg.edge_kernel_fraction > 0.0 && cfg.edge_kernel_fraction <= 1.0) {
        "edge-kernel fraction must be in (0, 1]"
    } else if !cfg.switching_freq_hz.is_finite() {
        "switching frequency must be finite"
    } else {
        return Ok(());
    };
    Err(RxError::InvalidConfig(broken))
}

/// The whole-capture receiver: each call pushes one capture through a
/// [`StreamingReceiver`] in a single chunk and finishes it. It holds
/// the configuration and checks nothing itself: a bad configuration
/// surfaces from [`Receiver::receive`] or [`Receiver::receive_blind`]
/// as [`RxError::InvalidConfig`].
#[derive(Debug, Clone)]
pub struct Receiver {
    config: RxConfig,
}

impl Receiver {
    /// Creates a receiver.
    pub fn new(config: RxConfig) -> Self {
        Receiver { config }
    }

    /// Demodulates a capture *blind*: the bit period is estimated from
    /// the signal itself (autocorrelation of the energy signal over
    /// the sync preamble) instead of taken from configuration. The
    /// attacker needs only the VRM frequency, which
    /// [`try_find_switching_frequency`] recovers from the spectrum.
    ///
    /// # Errors
    ///
    /// The same failures as [`Receiver::receive`]; the period
    /// estimation itself cannot fail (it falls back to the configured
    /// prior when no periodicity stands out).
    pub fn receive_blind(&self, capture: &Capture) -> Result<RxReport, RxError> {
        let rx = StreamingReceiver::new_blind(
            self.config.clone(),
            capture.sample_rate,
            capture.center_freq,
        )?;
        push_whole(rx, capture)
    }

    /// Runs the full §IV-B pipeline over a capture, reporting failure
    /// as a typed [`RxError`] instead of panicking.
    ///
    /// A *silent* capture (carrier present in configuration but no
    /// transmission) is **not** an error: it produces `Ok` with an
    /// empty bit vector, since "nothing was sent" is a legitimate
    /// decode result. Errors are reserved for captures that cannot be
    /// analysed at all.
    ///
    /// # Errors
    ///
    /// In this precedence:
    ///
    /// - [`StreamingReceiver::new`]'s, for the configuration and the
    ///   capture's tuning: [`RxError::InvalidConfig`] for a
    ///   configuration that violates an invariant, then
    ///   [`RxError::Capture`] for a bad sample rate, then
    ///   [`RxError::NoCarrier`] when no configured VRM harmonic falls
    ///   inside the captured band;
    /// - [`RxError::Capture`] for an empty capture, one shorter than a
    ///   single analysis window, or a majority-non-finite capture.
    pub fn receive(&self, capture: &Capture) -> Result<RxReport, RxError> {
        let rx =
            StreamingReceiver::new(self.config.clone(), capture.sample_rate, capture.center_freq)?;
        push_whole(rx, capture)
    }
}

/// One push of the whole capture, then the decision stages.
fn push_whole(mut rx: StreamingReceiver, capture: &Capture) -> Result<RxReport, RxError> {
    rx.push(&capture.samples);
    rx.finish()
}

/// The harmonic bins of `S` that fall inside a band captured at
/// `sample_rate` around `center_freq`.
pub(crate) fn carrier_bins_for(cfg: &RxConfig, sample_rate: f64, center_freq: f64) -> Vec<usize> {
    (1..=cfg.harmonics)
        .map(|h| cfg.switching_freq_hz * h as f64)
        .filter(|f| (f - center_freq).abs() < sample_rate / 2.0)
        .map(|f| frequency_bin(f - center_freq, cfg.fft_size, sample_rate))
        .collect()
}

/// Expected bit period in energy samples, floored at the 4-sample
/// minimum every downstream stage assumes.
fn expected_bit_samples(cfg: &RxConfig, dt: f64) -> f64 {
    (cfg.expected_bit_period_s / dt).max(4.0)
}

/// Ceiling on the edge kernel's length in taps. The kernel spans a
/// fraction of a bit period counted in energy samples, so its length
/// grows with the capture's sample rate; [`StreamingReceiver`]
/// construction rejects any rate that would exceed this. 2^20 taps
/// (8 MiB) sits far above any real capture (the blind estimator's 5 ms
/// ceiling at 2.4 Msps undecimated is 12 000 samples) and keeps a huge
/// finite rate from overflowing the length.
pub const MAX_EDGE_KERNEL_TAPS: usize = 1 << 20;

/// Ceiling on `harmonics × fft_size`, the refresh twiddles the sliding
/// DFT allocates at construction: 2^20 complex values (16 MiB). The
/// largest table any experiment builds is 2 × 1024, and without the
/// bound a tuner at 0 Hz with `switching_freq_hz` 0 and as many
/// harmonics as bins would need 64 GiB at a 2^16-point window.
pub const MAX_REFRESH_TWIDDLES: usize = 1 << 20;

/// Whether the edge kernel for a `period_s` bit at energy time step
/// `dt` stays within [`MAX_EDGE_KERNEL_TAPS`]. Evaluated in `f64`, so
/// no rate can overflow the check itself.
pub(crate) fn edge_kernel_fits(cfg: &RxConfig, period_s: f64, dt: f64) -> bool {
    period_s / dt * cfg.edge_kernel_fraction <= MAX_EDGE_KERNEL_TAPS as f64
}

/// Length of the §IV-B2 edge-detection kernel for this configuration
/// and energy time step (even, at least 4 taps).
pub(crate) fn edge_kernel_len(cfg: &RxConfig, dt: f64) -> usize {
    let expected_bit = expected_bit_samples(cfg, dt);
    (((expected_bit * cfg.edge_kernel_fraction) / 2.0).round() as usize * 2).max(4)
}

/// Stages 2b–4 of the §IV-B pipeline: peak finding, timing recovery,
/// gap filling, per-bit power and thresholding, given an already
/// smoothed energy signal and its edge response — what
/// [`StreamingReceiver::finish`] runs over the energy it accumulated.
pub(crate) fn decode_from_energy(
    cfg: &RxConfig,
    energy: Vec<f64>,
    edge_response: Vec<f64>,
    dt: f64,
    sanitized_samples: usize,
) -> RxReport {
    let expected_bit = expected_bit_samples(cfg, dt);
    // The robust max is selected in place on the clamped copy, which
    // is dropped before the peak picking allocates.
    let robust_max = {
        let mut positive: Vec<f64> = edge_response.iter().map(|&v| v.max(0.0)).collect();
        try_quantile_in_place(&mut positive, 0.98).unwrap_or(0.0).max(1e-30)
    };
    let min_dist = (expected_bit * 0.55).round() as usize;
    let peaks = find_peaks(&edge_response, cfg.peak_threshold_frac * robust_max, min_dist.max(1));
    let raw_starts: Vec<usize> = peaks.iter().map(|p| p.index).collect();

    // Stage 3: timing from the inter-start distance distribution.
    let mut distances_s: Vec<f64> =
        raw_starts.windows(2).map(|w| (w[1] - w[0]) as f64 * dt).collect();
    // Two-pass period recovery: the expected-period prior is only
    // approximate (jitter and wake latency lengthen real bits), so
    // first take the median over a generous window around the
    // prior, then re-take it over a tight window around that
    // estimate. Multi-bit gaps (missed starts) are excluded both
    // times so they cannot bias the median upward.
    let median_in = |lo: f64, hi: f64, fallback: f64| {
        let kept: Vec<f64> = distances_s.iter().copied().filter(|&d| d >= lo && d <= hi).collect();
        if kept.is_empty() {
            fallback
        } else {
            median(&kept)
        }
    };
    let prior = cfg.expected_bit_period_s;
    let coarse = median_in(0.4 * prior, 3.0 * prior, prior);
    let bit_period_s = median_in(0.55 * coarse, 1.6 * coarse, coarse);
    distances_s.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));

    let starts = if cfg.gap_fill {
        // Second-pass evidence bar: half the 10th-percentile
        // strength of the first-pass edges. Adaptive, so weak
        // (0-bit) edges still qualify while interrupt bumps —
        // which sit well below real edges on platforms with
        // strong housekeeping signatures — do not.
        let detected: Vec<f64> = raw_starts.iter().map(|&i| edge_response[i]).collect();
        let low_bar =
            if detected.is_empty() { 0.12 * robust_max } else { 0.35 * quantile(&detected, 0.10) };
        fill_gaps(&raw_starts, bit_period_s / dt, &edge_response, low_bar)
    } else {
        raw_starts.clone()
    };

    // Stage 4: per-bit average power and bimodal threshold.
    // Windows much longer than the signalling period are
    // transmission pauses (lead-in/lead-out), not bits — skip them.
    let period_samples = bit_period_s / dt;
    let mean_sq = |w: &[f64]| {
        if w.is_empty() {
            0.0
        } else {
            w.iter().map(|&v| v * v).sum::<f64>() / w.len() as f64
        }
    };
    let mut powers = Vec::with_capacity(starts.len());
    for (i, &s) in starts.iter().enumerate() {
        let end = if i + 1 < starts.len() {
            starts[i + 1]
        } else {
            (s + period_samples.round() as usize).min(energy.len())
        };
        if end > s && (end - s) as f64 <= 1.9 * period_samples {
            let p = match cfg.label_feature {
                LabelFeature::MeanPower => mean_sq(&energy[s..end]),
                LabelFeature::RzDifferential => {
                    let mid = s + (end - s) / 2;
                    mean_sq(&energy[s..mid]) - mean_sq(&energy[mid..end])
                }
            };
            powers.push(p);
        }
    }
    let (threshold, threshold_modes) = select_threshold(&powers);
    let bits = local_decisions(&powers);

    RxReport {
        energy,
        energy_dt_s: dt,
        edge_response,
        raw_starts,
        starts,
        distances_s,
        bit_period_s,
        powers,
        threshold,
        threshold_modes,
        bits,
        sanitized_samples,
    }
}

/// Inserts synthetic starts into gaps longer than ~1.5 signalling
/// periods (§IV-B2: "having the signaling time of the transmitted
/// bits helps to fill the gaps that the detection algorithm could not
/// find at its first attempt") — a second detection pass: each
/// candidate position is only accepted if the edge response shows at
/// least weak evidence (`low_bar`) of a start near it. A gap with no
/// such evidence is one *long* bit (an interrupt stretched it), not a
/// run of missed starts.
///
/// Very long gaps (more than [`MAX_FILLED_GAP`] periods) are left
/// alone: deletions are rare (<0.2 %, §IV-B4), so a many-period
/// silence means the transmission paused or ended.
fn fill_gaps(
    starts: &[usize],
    period_samples: f64,
    edge_response: &[f64],
    low_bar: f64,
) -> Vec<usize> {
    if starts.len() < 2 || period_samples <= 0.0 {
        return starts.to_vec();
    }
    let search = (period_samples * 0.25) as usize;
    let mut out = Vec::with_capacity(starts.len());
    for w in starts.windows(2) {
        out.push(w[0]);
        let gap = (w[1] - w[0]) as f64;
        let missing = (gap / period_samples).round() as usize;
        if (2..=MAX_FILLED_GAP).contains(&missing) {
            let step = gap / missing as f64;
            for k in 1..missing {
                let nominal = w[0] + (k as f64 * step).round() as usize;
                // Second pass: look for weak edge evidence near the
                // predicted position.
                let lo = nominal.saturating_sub(search).max(w[0] + 1);
                let hi = (nominal + search).min(w[1].saturating_sub(1));
                let best = (lo..=hi.min(edge_response.len().saturating_sub(1))).max_by(|&a, &b| {
                    edge_response[a]
                        .partial_cmp(&edge_response[b])
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                if let Some(idx) = best {
                    if edge_response[idx] >= low_bar {
                        out.push(idx);
                    }
                }
            }
        }
    }
    out.push(*starts.last().expect("len checked above"));
    out.sort_unstable();
    out.dedup();
    out
}

/// Longest gap, in signalling periods, that gap filling treats as
/// missed starts rather than an intentional pause.
const MAX_FILLED_GAP: usize = 12;

/// Half-width, in bits, of the sliding batch each bit's threshold is
/// chosen from (§IV-B2's batch processing: each bit is judged against
/// "a number of bit periods that precede and follow it"). Local
/// thresholds track slow level shifts such as a CPU hog on another
/// core.
const THRESHOLD_HALF_WINDOW_BITS: usize = 60;

/// Histogram bins for a batch of `len` per-bit powers.
fn threshold_bins(len: usize) -> usize {
    48.min(len.max(2))
}

/// Picks the decision threshold from the per-bit power histogram:
/// midway between the two modes when bimodal (Fig. 7), or a robust
/// mid-range fallback when not.
fn select_threshold(powers: &[f64]) -> (f64, Option<(f64, f64)>) {
    if powers.is_empty() {
        return (0.0, None);
    }
    // `try_from_data` only fails on all-non-finite powers; fall back
    // to the quantile mid-range in that (pathological) case.
    let modes = Histogram::try_from_data(powers, threshold_bins(powers.len()))
        .ok()
        .and_then(|h| h.two_modes());
    (threshold_between(modes, powers), modes)
}

/// The threshold [`select_threshold`] derives from a batch's modes:
/// their midpoint, else the midpoint of the batch's 5th and 95th
/// percentiles (NaN when every power is NaN).
fn threshold_between(modes: Option<(f64, f64)>, powers: &[f64]) -> f64 {
    match modes {
        Some((lo, hi)) => (lo + hi) / 2.0,
        None => {
            let at = |q| try_quantile(powers, q).unwrap_or(f64::NAN);
            (at(0.05) + at(0.95)) / 2.0
        }
    }
}

/// Labels each bit against the threshold [`select_threshold`] picks
/// for the batch of [`THRESHOLD_HALF_WINDOW_BITS`] bits either side of
/// it, in one sliding pass with the same results.
///
/// The batch's histogram is kept while it still [fits] the batch (same
/// bin count, same finite span): the power leaving the batch is
/// removed and the one entering is added, so every count equals a
/// rebuild's. The modes are re-derived only when a count moved, and
/// the histogram is rebuilt only when the span changes.
///
/// [fits]: Histogram::fits
fn local_decisions(powers: &[f64]) -> Vec<u8> {
    let mut hist: Option<Histogram> = None;
    let mut modes = None;
    let mut prev = 0..0;
    let mut bits = Vec::with_capacity(powers.len());
    for (i, &p) in powers.iter().enumerate() {
        let batch = i.saturating_sub(THRESHOLD_HALF_WINDOW_BITS)
            ..(i + THRESHOLD_HALF_WINDOW_BITS + 1).min(powers.len());
        let window = &powers[batch.clone()];
        let bins = threshold_bins(window.len());
        match hist.as_mut() {
            Some(h) if h.fits(window, bins) => {
                let left = (batch.start > prev.start).then(|| h.remove(powers[prev.start]));
                let entered = (batch.end > prev.end).then(|| h.add(powers[prev.end]));
                if left.flatten() != entered.flatten() {
                    modes = h.two_modes();
                }
            }
            _ => {
                hist = Histogram::try_from_data(window, bins).ok();
                modes = hist.as_ref().and_then(Histogram::two_modes);
            }
        }
        prev = batch;
        bits.push((p > threshold_between(modes, window)) as u8);
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use emsc_sdr::iq::Complex;

    /// Builds a synthetic OOK capture directly (no simulator): tone
    /// bursts at `f_bb` for `1` bits, silence for `0` bits.
    fn ook_capture(bits: &[u8], bit_s: f64, fs: f64, f_bb: f64, amp: f64, noise: f64) -> Capture {
        let spb = (bit_s * fs) as usize;
        // Lead-in/lead-out silence: the channel is idle before the
        // transmitter starts and after it stops.
        let pad = 2 * spb;
        let mut samples = Vec::with_capacity(bits.len() * spb + 2 * pad);
        samples.resize(pad, Complex::ZERO);
        let mut rng_state = 0x9e3779b97f4a7c15u64;
        let mut next_noise = || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            (rng_state % 10_000) as f64 / 10_000.0 - 0.5
        };
        for (i, &b) in bits.iter().enumerate() {
            for n in 0..spb {
                let t = (i * spb + n) as f64 / fs;
                let mut z = Complex::ZERO;
                // Every bit gets a short leading blip (the usleep
                // housekeeping edge); 1-bits stay on for half the bit.
                let on = if b == 1 { n < spb / 2 } else { n < spb / 12 };
                if on {
                    z += Complex::from_polar(amp, 2.0 * std::f64::consts::PI * f_bb * t);
                }
                z += Complex::new(noise * next_noise(), noise * next_noise());
                samples.push(z);
            }
        }
        samples.extend(std::iter::repeat_n(Complex::ZERO, pad));
        Capture { samples, sample_rate: fs, center_freq: 1.5e6 }
    }

    fn test_config(bit_s: f64) -> RxConfig {
        RxConfig { fft_size: 256, decimation: 8, ..RxConfig::new(1.5e6 - 0.4e6, bit_s) }
    }

    fn test_receiver(bit_s: f64) -> Receiver {
        Receiver::new(test_config(bit_s))
    }

    #[test]
    fn demodulates_clean_ook() {
        let bits = vec![1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1];
        let cap = ook_capture(&bits, 400e-6, 2.4e6, -0.4e6, 1.0, 0.02);
        let report = test_receiver(400e-6).receive(&cap).expect("clean capture decodes");
        assert_eq!(report.bits.len(), bits.len(), "starts {:?}", report.starts.len());
        assert_eq!(report.bits, bits);
        assert_eq!(report.sanitized_samples, 0);
    }

    #[test]
    fn recovers_bit_period() {
        let bits: Vec<u8> = (0..64).map(|i| (i % 3 != 0) as u8).collect();
        let cap = ook_capture(&bits, 400e-6, 2.4e6, -0.4e6, 1.0, 0.02);
        let report = test_receiver(400e-6).receive(&cap).expect("clean capture decodes");
        assert!((report.bit_period_s - 400e-6).abs() < 40e-6, "period {}", report.bit_period_s);
        assert!((report.transmission_rate_bps() - 2500.0).abs() < 300.0);
    }

    #[test]
    fn threshold_comes_from_bimodal_histogram() {
        let bits: Vec<u8> = (0..128).map(|i| (i % 2) as u8).collect();
        let cap = ook_capture(&bits, 400e-6, 2.4e6, -0.4e6, 1.0, 0.02);
        let report = test_receiver(400e-6).receive(&cap).expect("clean capture decodes");
        let (lo, hi) = report.threshold_modes.expect("alternating bits must be bimodal");
        assert!(lo < report.threshold && report.threshold < hi);
    }

    #[test]
    fn distances_are_positively_skewed_under_jitter() {
        // Jittered bit lengths (like usleep lengthening) ⇒ the Fig. 6
        // right-skewed distance distribution.
        let fs = 2.4e6;
        let f_bb = -0.4e6;
        let mut samples = Vec::new();
        let mut state = 7u64;
        let mut jitter = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // exponential-ish positive jitter up to ~40%
            ((state % 1000) as f64 / 1000.0).powi(2) * 0.4
        };
        let bits: Vec<u8> = (0..96).map(|i| (i % 2) as u8).collect();
        samples.resize((2.0 * 400e-6 * fs) as usize, Complex::ZERO);
        for &b in &bits {
            let spb = (400e-6 * (1.0 + jitter()) * fs) as usize;
            for n in 0..spb {
                let t = (samples.len()) as f64 / fs;
                let on = if b == 1 { n < spb / 2 } else { n < spb / 12 };
                let z = if on {
                    Complex::from_polar(1.0, 2.0 * std::f64::consts::PI * f_bb * t)
                } else {
                    Complex::ZERO
                };
                samples.push(z);
            }
        }
        let cap = Capture { samples, sample_rate: fs, center_freq: 1.5e6 };
        let report = test_receiver(400e-6).receive(&cap).expect("clean capture decodes");
        assert!(report.distances_s.len() > 50);
        let skew = emsc_sdr::stats::skewness(&report.distances_s);
        assert!(skew > 0.2, "skewness {skew}");
    }

    #[test]
    fn gap_fill_inserts_missing_starts_with_evidence() {
        // Weak edges (above the low bar) at the true positions 300/400.
        let mut resp = vec![0.0; 700];
        resp[302] = 5.0;
        resp[399] = 5.0;
        let starts = vec![0usize, 100, 200, 500, 600];
        let filled = fill_gaps(&starts, 100.0, &resp, 1.0);
        assert_eq!(filled, vec![0, 100, 200, 302, 399, 500, 600]);
    }

    #[test]
    fn gap_fill_skips_gaps_without_edge_evidence() {
        // A 2-period gap with a flat edge response is one long bit.
        let resp = vec![0.0; 700];
        let starts = vec![0usize, 100, 300, 400];
        let filled = fill_gaps(&starts, 100.0, &resp, 1.0);
        assert_eq!(filled, starts);
    }

    #[test]
    fn gap_fill_leaves_long_silences_alone() {
        let resp = vec![10.0; 2200];
        let starts = vec![0usize, 100, 2000, 2100];
        let filled = fill_gaps(&starts, 100.0, &resp, 1.0);
        assert_eq!(filled, starts, "a 19-period silence is not 18 deletions");
    }

    #[test]
    fn gap_fill_handles_short_input() {
        let resp = vec![0.0; 10];
        assert_eq!(fill_gaps(&[], 100.0, &resp, 1.0), Vec::<usize>::new());
        assert_eq!(fill_gaps(&[5], 100.0, &resp, 1.0), vec![5]);
    }

    #[test]
    fn blind_period_estimation_finds_the_bit_clock() {
        // A mixed bit pattern at 400 µs. (A *pure* alternating
        // sequence autocorrelates at 2T — the "10" super-period —
        // which is why real transmissions with a payload after the
        // preamble are what the estimator sees.)
        let bits: Vec<u8> = (0..64).map(|i| ((i * 3 + 1) % 4 < 2) as u8).collect();
        let cap = ook_capture(&bits, 400e-6, 2.4e6, -0.4e6, 1.0, 0.02);
        let cfg = test_config(400e-6);
        let bins = vec![emsc_sdr::fft::frequency_bin(
            cfg.switching_freq_hz - cap.center_freq,
            cfg.fft_size,
            cap.sample_rate,
        )];
        let energy =
            emsc_sdr::sliding::try_energy_signal(&cap.samples, cfg.fft_size, &bins, cfg.decimation)
                .expect("clean capture")
                .samples;
        let dt = cfg.decimation as f64 / cap.sample_rate;
        let est = try_estimate_bit_period(&energy, dt, 50e-6, 5e-3).expect("periodicity");
        assert!((est - 400e-6).abs() < 50e-6, "estimated {est}");
    }

    #[test]
    fn blind_demodulation_matches_informed() {
        let bits: Vec<u8> = (0..48).map(|i| ((i * 3 + 1) % 4 < 2) as u8).collect();
        let cap = ook_capture(&bits, 400e-6, 2.4e6, -0.4e6, 1.0, 0.02);
        // The blind receiver is primed with a WRONG expected period.
        let blind = test_receiver(150e-6).receive_blind(&cap).expect("blind decode");
        assert_eq!(blind.bits, bits, "blind demod must recover the stream");
    }

    #[test]
    fn estimate_handles_degenerate_input() {
        assert_eq!(try_estimate_bit_period(&[], 1e-5, 50e-6, 5e-3), Err(SyncLoss::TooFewSamples));
        assert_eq!(
            try_estimate_bit_period(&[1.0; 100], 1e-5, 50e-6, 5e-3),
            Err(SyncLoss::NoVariance)
        );
    }

    #[test]
    fn threshold_fallback_for_unimodal_powers() {
        let powers = vec![1.0; 40];
        let (thr, modes) = select_threshold(&powers);
        assert!(modes.is_none() || thr > 0.0);
        assert!(thr.is_finite());
    }

    /// Each bit against `select_threshold` of its own batch: the
    /// oracle for the sliding pass.
    fn per_bit_decisions(powers: &[f64]) -> Vec<u8> {
        (0..powers.len())
            .map(|i| {
                let lo = i.saturating_sub(THRESHOLD_HALF_WINDOW_BITS);
                let hi = (i + THRESHOLD_HALF_WINDOW_BITS + 1).min(powers.len());
                (powers[i] > select_threshold(&powers[lo..hi]).0) as u8
            })
            .collect()
    }

    /// Two-level OOK powers (`0.2` and `1.0` plus up to `noise`), with
    /// the levels scaled by `1 + drift·i` to mimic a slow level shift.
    fn ook_powers(n: usize, noise: f64, drift: f64, seed: u64) -> Vec<f64> {
        let mut s = seed;
        (0..n)
            .map(|i| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let level = if s & 1 == 1 { 1.0 } else { 0.2 };
                (level + noise * ((s >> 11) % 1000) as f64 / 1000.0) * (1.0 + drift * i as f64)
            })
            .collect()
    }

    #[test]
    fn sliding_local_threshold_matches_per_bit_selection() {
        let mut cases: Vec<(&str, Vec<f64>)> = Vec::new();
        // Fewer powers than histogram bins: the bin count follows the
        // batch length.
        for n in [1, 2, 3, 5, 17, 47, 48, 49] {
            cases.push(("short", ook_powers(n, 0.1, 0.0, 11 + n as u64)));
        }
        // Degenerate spans: constant runs, alone and between bimodal
        // stretches.
        cases.push(("constant", vec![0.7; 300]));
        let mut runs = vec![1.0; 130];
        runs.extend(ook_powers(200, 0.05, 0.0, 3));
        runs.extend(vec![5.0; 140]);
        cases.push(("constant runs", runs));
        // A monotone ramp moves the span every bit.
        cases.push(("ramp", (0..400).map(|i| i as f64 * 0.01).collect()));
        // A unimodal stretch (one level, a tenth of the bits scattered
        // thinly around it) falls back to the quantile mid-range.
        let unimodal: Vec<f64> = (0..300)
            .map(|i| if i % 10 == 0 { 2.95 + ((i * 37) % 100) as f64 * 1e-3 } else { 3.0 })
            .collect();
        assert!(select_threshold(&unimodal[..121]).1.is_none(), "the fallback must be exercised");
        cases.push(("unimodal", unimodal));
        // Non-finite powers: scattered, and a NaN run longer than a
        // batch, where no histogram can be built at all.
        let mut laced = ook_powers(900, 0.1, 1e-3, 5);
        for (i, v) in laced.iter_mut().enumerate() {
            match i % 37 {
                3 => *v = f64::NAN,
                11 => *v = f64::INFINITY,
                29 => *v = f64::NEG_INFINITY,
                _ => {}
            }
        }
        laced[400..550].fill(f64::NAN);
        cases.push(("non-finite", laced));
        // A long drifting capture, the shape a live session decodes.
        cases.push(("drift", ook_powers(3000, 0.3, 2e-4, 9)));
        for (name, powers) in &cases {
            assert_eq!(
                local_decisions(powers),
                per_bit_decisions(powers),
                "{name}, {} powers",
                powers.len()
            );
        }
    }

    #[test]
    fn harmonic_count_is_respected() {
        assert_eq!(RxConfig::new(970e3, 300e-6).harmonics, 2);
        // A transmission on the second harmonic alone (2.2 MHz, +0.7 MHz
        // at baseband): the set S of two harmonics sees it, the
        // fundamental alone sees the noise floor.
        let bits = vec![1, 0, 1, 1, 0, 0, 1, 0];
        let cap = ook_capture(&bits, 400e-6, 2.4e6, 0.7e6, 1.0, 0.02);
        let peak = |harmonics| {
            let rx = Receiver::new(RxConfig { harmonics, ..test_config(400e-6) });
            let report = rx.receive(&cap).expect("clean capture decodes");
            report.energy.iter().copied().fold(0.0, f64::max)
        };
        let (both, fundamental) = (peak(2), peak(1));
        assert!(
            both > 10.0 * fundamental,
            "S = 2 harmonics {both}, fundamental only {fundamental}"
        );
    }

    #[test]
    fn try_new_reports_config_errors() {
        let cap = ook_capture(&[1, 0, 1, 1], 400e-6, 2.4e6, -0.4e6, 1.0, 0.02);
        let (fs, fc) = (cap.sample_rate, cap.center_freq);
        for bad in [
            RxConfig { fft_size: 1000, ..test_config(400e-6) },
            RxConfig { decimation: 0, ..test_config(400e-6) },
            RxConfig { harmonics: 0, ..test_config(400e-6) },
        ] {
            assert!(matches!(
                StreamingReceiver::new(bad.clone(), fs, fc),
                Err(RxError::InvalidConfig(_))
            ));
            let rx = Receiver::new(bad);
            assert!(matches!(rx.receive(&cap), Err(RxError::InvalidConfig(_))));
            assert!(matches!(rx.receive_blind(&cap), Err(RxError::InvalidConfig(_))));
        }
        assert!(StreamingReceiver::new(test_config(400e-6), fs, fc).is_ok());
        // A bad configuration wins over a bad capture.
        let empty = Capture { samples: Vec::new(), sample_rate: 0.0, center_freq: 100e6 };
        let rx = Receiver::new(RxConfig { fft_size: 1000, ..test_config(400e-6) });
        assert!(matches!(rx.receive(&empty), Err(RxError::InvalidConfig(_))));
        assert!(test_receiver(400e-6).receive(&cap).is_ok());
    }

    #[test]
    fn receive_classifies_degenerate_captures() {
        let rx = test_receiver(400e-6);
        let empty = Capture { samples: Vec::new(), sample_rate: 2.4e6, center_freq: 1.5e6 };
        assert_eq!(rx.receive(&empty), Err(RxError::Capture(CaptureError::Empty)));
        let short =
            Capture { samples: vec![Complex::ZERO; 100], sample_rate: 2.4e6, center_freq: 1.5e6 };
        assert_eq!(
            rx.receive(&short),
            Err(RxError::Capture(CaptureError::TooShort { needed: 256, got: 100 }))
        );
        let bad_rate =
            Capture { samples: vec![Complex::ZERO; 1000], sample_rate: 0.0, center_freq: 1.5e6 };
        assert_eq!(rx.receive(&bad_rate), Err(RxError::Capture(CaptureError::InvalidSampleRate)));
        // Carrier out of band: tuner parked far from every harmonic.
        let off_band = Capture {
            samples: vec![Complex::ZERO; 10_000],
            sample_rate: 2.4e6,
            center_freq: 100e6,
        };
        assert_eq!(rx.receive(&off_band), Err(RxError::NoCarrier));
    }

    #[test]
    fn silence_is_an_ok_empty_decode_not_an_error() {
        let rx = test_receiver(400e-6);
        let silence = Capture {
            samples: vec![Complex::ZERO; 50_000],
            sample_rate: 2.4e6,
            center_freq: 1.5e6,
        };
        let report = rx.receive(&silence).expect("silence is a valid (empty) decode");
        assert!(report.bits.is_empty());
    }

    #[test]
    fn nan_laced_capture_decodes_with_sanitization() {
        let bits = vec![1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0];
        let mut cap = ook_capture(&bits, 400e-6, 2.4e6, -0.4e6, 1.0, 0.02);
        // A sprinkle of NaN (far fewer than half the samples).
        for i in (0..cap.samples.len()).step_by(5000) {
            cap.samples[i] = Complex::new(f64::NAN, f64::INFINITY);
        }
        let report = test_receiver(400e-6).receive(&cap).expect("minority NaN is recoverable");
        assert!(report.sanitized_samples > 0);
        assert!(report.bits.iter().all(|&b| b <= 1));
        // All-NaN is not recoverable.
        for s in &mut cap.samples {
            *s = Complex::new(f64::NAN, f64::NAN);
        }
        assert!(matches!(
            test_receiver(400e-6).receive(&cap),
            Err(RxError::Capture(CaptureError::NonFinite { .. }))
        ));
    }

    #[test]
    fn rx_error_display_names_the_cause() {
        let e = RxError::Capture(CaptureError::TooShort { needed: 256, got: 3 });
        assert!(e.to_string().contains("256"));
        assert!(RxError::NoCarrier.to_string().contains("band"));
        use std::error::Error;
        assert!(e.source().is_some());
    }
}
