//! Sliding discrete Fourier transform for per-sample bin tracking.
//!
//! The paper's receiver (§IV-B, Eq. (1)) computes, for *every* sample
//! position `n`, the sum of FFT-bin magnitudes over the set `S` of
//! VRM-related frequency components — an STFT with "maximum
//! overlapping" (hop = 1). Computing a full 1024-point FFT per sample
//! is wasteful when only two or three bins are needed, so this module
//! implements the classic sliding-DFT recursion
//!
//! ```text
//! F_{n+1}[k] = (F_n[k] + x[n+1] − x[n+1−M]) · e^{+2πik/M}
//! ```
//!
//! with periodic exact re-summation to keep floating-point drift
//! bounded. The result is numerically equal (to ~1e-9) to evaluating a
//! rectangular-windowed DFT at every sample, at `O(|S|)` per sample.

use crate::error::CaptureError;
use crate::iq::Complex;
use crate::scratch::{reset_complex, DspScratch};

/// Tracks the complex value of selected DFT bins over a sliding
/// rectangular window of `M` samples.
#[derive(Debug, Clone)]
pub struct SlidingDft {
    window: usize,
    bins: Vec<usize>,
    /// Per-bin phase rotator `e^{+2πik/M}`.
    rotators: Vec<Complex>,
    /// Exact-resummation twiddles `e^{-2πikm/M}`, row-major per bin —
    /// precomputed so the periodic [`refresh`](Self::push) costs no
    /// trig at runtime.
    refresh_twiddles: Vec<Complex>,
    /// Per-bin current value `F_n[k]`.
    values: Vec<Complex>,
    /// Ring buffer of the last `M` input samples.
    ring: Vec<Complex>,
    head: usize,
    seen: usize,
    since_refresh: usize,
}

impl SlidingDft {
    /// Creates a tracker over a window of `window` samples for the
    /// given bin indices.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero, `bins` is empty, or any bin index
    /// is `>= window`.
    pub fn new(window: usize, bins: &[usize]) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(!bins.is_empty(), "at least one bin must be tracked");
        assert!(bins.iter().all(|&k| k < window), "bin index out of range");
        Self::build(window, bins)
    }

    /// Fallible variant of [`SlidingDft::new`]: reports the violated
    /// precondition as a [`CaptureError::InvalidConfig`] instead of
    /// panicking. An empty `bins` slice is what the receiver sees when
    /// no tracked harmonic falls inside the captured band, so callers
    /// can map that case to a "no carrier" decode failure.
    pub fn try_new(window: usize, bins: &[usize]) -> Result<Self, CaptureError> {
        if window == 0 {
            return Err(CaptureError::InvalidConfig("window must be positive"));
        }
        if bins.is_empty() {
            return Err(CaptureError::InvalidConfig("at least one bin must be tracked"));
        }
        if bins.iter().any(|&k| k >= window) {
            return Err(CaptureError::InvalidConfig("bin index out of range"));
        }
        Ok(Self::build(window, bins))
    }

    fn build(window: usize, bins: &[usize]) -> Self {
        let rotators = bins
            .iter()
            .map(|&k| Complex::cis(2.0 * std::f64::consts::PI * k as f64 / window as f64))
            .collect();
        let refresh_twiddles = bins
            .iter()
            .flat_map(|&k| {
                (0..window).map(move |m| {
                    Complex::cis(-2.0 * std::f64::consts::PI * k as f64 * m as f64 / window as f64)
                })
            })
            .collect();
        SlidingDft {
            window,
            bins: bins.to_vec(),
            rotators,
            refresh_twiddles,
            values: vec![Complex::ZERO; bins.len()],
            ring: vec![Complex::ZERO; window],
            head: 0,
            seen: 0,
            since_refresh: 0,
        }
    }

    /// Window length `M`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Tracked bin indices.
    pub fn bins(&self) -> &[usize] {
        &self.bins
    }

    /// Pushes one sample and updates every tracked bin.
    pub fn push(&mut self, x: Complex) {
        let oldest = self.ring[self.head];
        self.ring[self.head] = x;
        self.head += 1;
        if self.head == self.window {
            self.head = 0;
        }
        self.seen += 1;
        self.since_refresh += 1;
        if self.since_refresh >= self.window {
            self.refresh();
        } else {
            for (v, r) in self.values.iter_mut().zip(&self.rotators) {
                *v = (*v + x - oldest) * *r;
            }
        }
    }

    /// Exactly recomputes every tracked bin from the ring buffer,
    /// clearing accumulated floating-point drift. Twiddles come from
    /// the table built in [`SlidingDft::new`] and the ring is walked
    /// as two contiguous runs, so the summation order — and therefore
    /// every bit of the result — matches the original modular-index,
    /// trig-per-term loop.
    fn refresh(&mut self) {
        self.since_refresh = 0;
        let w = self.window;
        // Ring order: ring[head] is the oldest sample (index 0 of the
        // window). Bins interleave at each `m` so the independent
        // accumulator chains overlap in the pipeline; each bin's own
        // `acc += x · tw[m]` sequence — and therefore every result
        // bit — is unchanged from a bin-at-a-time walk.
        for v in self.values.iter_mut() {
            *v = Complex::ZERO;
        }
        let tw = &self.refresh_twiddles[..];
        let mut m = 0;
        for run in [&self.ring[self.head..], &self.ring[..self.head]] {
            for &x in run {
                for (bi, v) in self.values.iter_mut().enumerate() {
                    *v += x * tw[bi * w + m];
                }
                m += 1;
            }
        }
    }

    /// Advances the tracker over a whole block of (already finite)
    /// samples, appending one Eq. (1) energy value — the bin-order
    /// [`SlidingDft::magnitude_sum`] fold — for every primed position
    /// on the `decimation` grid, exactly as a
    /// [`SlidingDft::push`]-per-sample loop would.
    ///
    /// **Bit-identical by construction** (the chunk-equivalence suite
    /// pins it): each step replays exactly `push`'s bin-interleaved
    /// `((v + x) − oldest) · r` update, and the emitted sums still
    /// fold `|F[k]|` in bin order from `0.0`; the independent per-bin
    /// chains overlap in the pipeline, so the block walk costs roughly
    /// one complex-multiply *throughput* (not latency) per bin per
    /// sample. Evicted samples are snapshotted from the ring into
    /// `scratch.c0` before the run overwrites it. Exact re-summation
    /// still fires every `window`-th push via the unchanged
    /// [`refresh`](Self::push) path.
    ///
    /// The decimation grid is anchored at the priming sample: an
    /// output is emitted after push number `s` (counted from the
    /// tracker's birth) iff `s ≥ window` and
    /// `(s − window) % decimation == 0`.
    ///
    /// # Panics
    ///
    /// Panics if `decimation` is zero.
    pub fn process_into(
        &mut self,
        chunk: &[Complex],
        decimation: usize,
        out: &mut Vec<f64>,
        scr: &mut DspScratch,
    ) {
        assert!(decimation > 0, "decimation must be positive");
        let w = self.window;
        let mut consumed = 0usize;
        while consumed < chunk.len() {
            // Pushes until (and including) the next exact re-summation.
            let steps_to_refresh = w - self.since_refresh;
            let run = (chunk.len() - consumed).min(steps_to_refresh);
            let refreshes = run == steps_to_refresh;
            // The refresh push replaces its incremental update.
            let inc = if refreshes { run - 1 } else { run };
            let block = &chunk[consumed..consumed + run];
            consumed += run;

            // Snapshot the samples each push will evict (ring slot
            // (head + t) mod w is read at step t and first written at
            // step t, so gathering all of them up front is exact),
            // then write the whole run into the ring.
            reset_complex(&mut scr.c0, inc);
            let first = (w - self.head).min(inc);
            scr.c0[..first].copy_from_slice(&self.ring[self.head..self.head + first]);
            scr.c0[first..].copy_from_slice(&self.ring[..inc - first]);
            let first = (w - self.head).min(run);
            self.ring[self.head..self.head + first].copy_from_slice(&block[..first]);
            self.ring[..run - first].copy_from_slice(&block[first..]);
            self.head = (self.head + run) % w;

            // Emission schedule over the incremental steps: local step
            // t corresponds to push number seen0 + t + 1.
            let seen0 = self.seen;
            let first_emit = {
                let t_prime = w.saturating_sub(seen0 + 1);
                if t_prime >= inc {
                    usize::MAX
                } else {
                    let phase = (seen0 + t_prime + 1 - w) % decimation;
                    let t = t_prime + (decimation - phase) % decimation;
                    if t < inc {
                        t
                    } else {
                        usize::MAX
                    }
                }
            };
            let out_base = out.len();
            if first_emit != usize::MAX {
                let emits = (inc - 1 - first_emit) / decimation + 1;
                out.resize(out_base + emits, 0.0);
            }

            // Bin-interleaved replay: each step applies the same
            // `((v + x) − oldest) · r` update per bin as `push`, so the
            // per-bin floating-point sequence is unchanged, while the
            // independent bin chains overlap in the pipeline instead of
            // serialising one bin's multiply-latency chain at a time.
            let (values, rotators) = (&mut self.values[..], &self.rotators[..]);
            let mut next = first_emit;
            let mut slot = out_base;
            for (t, (&x, &old)) in block[..inc].iter().zip(&scr.c0[..inc]).enumerate() {
                for (v, &r) in values.iter_mut().zip(rotators) {
                    *v = (*v + x - old) * r;
                }
                if t == next {
                    // Bin-order fold from 0.0 — exactly `magnitude_sum`.
                    out[slot] = values.iter().map(|v| v.abs()).sum();
                    slot += 1;
                    next = next.saturating_add(decimation);
                }
            }
            self.seen += inc;
            self.since_refresh += inc;

            if refreshes {
                self.seen += 1;
                self.since_refresh += 1;
                self.refresh();
                if self.seen >= w && (self.seen - w).is_multiple_of(decimation) {
                    out.push(self.magnitude_sum());
                }
            }
        }
    }

    /// Returns `true` once at least one full window has been seen, so
    /// the tracked values describe a fully-populated window.
    pub fn is_primed(&self) -> bool {
        self.seen >= self.window
    }

    /// Current complex value of each tracked bin.
    pub fn values(&self) -> &[Complex] {
        &self.values
    }

    /// Sum of the magnitudes of all tracked bins — one sample of the
    /// paper's Eq. (1) energy signal `Y[n]`.
    pub fn magnitude_sum(&self) -> f64 {
        self.values.iter().map(|v| v.abs()).sum()
    }
}

/// Computes the paper's Eq. (1) energy signal for an entire capture:
/// `Y[n] = Σ_{k∈S} |F_n[k]|`, one value per input sample once the
/// window is primed, optionally decimated by `decimation` to keep
/// downstream processing tractable.
///
/// Returns `(signal, effective_sample_rate_divisor)` where the signal
/// has one entry per `decimation` input samples.
///
/// # Panics
///
/// Panics if `decimation` is zero (see [`SlidingDft::new`] for the
/// window/bin preconditions).
///
/// # Examples
///
/// ```
/// use emsc_sdr::iq::Complex;
/// use emsc_sdr::sliding::energy_signal;
///
/// let fs = 1024.0;
/// let tone: Vec<Complex> = (0..4096)
///     .map(|n| Complex::cis(2.0 * std::f64::consts::PI * 128.0 * n as f64 / fs))
///     .collect();
/// let y = energy_signal(&tone, 256, &[32], 4);
/// // steady tone ⇒ steady energy ≈ window size
/// assert!(y.iter().all(|&v| (v - 256.0).abs() < 1.0));
/// ```
pub fn energy_signal(
    samples: &[Complex],
    window: usize,
    bins: &[usize],
    decimation: usize,
) -> Vec<f64> {
    let mut out = Vec::with_capacity(samples.len().saturating_sub(window) / decimation + 1);
    energy_signal_into(samples, window, bins, decimation, &mut out, &mut DspScratch::new());
    out
}

/// [`energy_signal`] into a caller-owned buffer, via the blocked
/// [`SlidingDft::process_into`] path (bit-identical to a
/// push-per-sample loop). The `SlidingDft` tables are still built per
/// call; hold a [`SlidingDft`] (or an [`crate::stream::EnergyStream`])
/// across captures for fully allocation-free steady state.
///
/// # Panics
///
/// Panics if `decimation` is zero (see [`SlidingDft::new`] for the
/// window/bin preconditions).
pub fn energy_signal_into(
    samples: &[Complex],
    window: usize,
    bins: &[usize],
    decimation: usize,
    out: &mut Vec<f64>,
    scr: &mut DspScratch,
) {
    assert!(decimation > 0, "decimation must be positive");
    let mut sdft = SlidingDft::new(window, bins);
    out.clear();
    sdft.process_into(samples, decimation, out, scr);
}

/// Result of [`try_energy_signal`]: the energy samples plus how many
/// non-finite input samples had to be zeroed before analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergySignal {
    /// The decimated Eq. (1) energy signal.
    pub samples: Vec<f64>,
    /// Number of NaN/infinite input samples replaced with zero.
    pub sanitized: usize,
}

/// Fallible variant of [`energy_signal`] for captures of unknown
/// provenance. Reports degenerate input as a typed [`CaptureError`]
/// instead of panicking or silently propagating NaN:
///
/// - an empty capture is [`CaptureError::Empty`],
/// - a capture shorter than one analysis window is
///   [`CaptureError::TooShort`],
/// - a capture where **more than half** the samples are NaN/infinite
///   is [`CaptureError::NonFinite`] (nothing useful survives),
/// - a minority of non-finite samples is *sanitized*: each is replaced
///   with zero (a dropout, exactly what a dongle glitch produces) and
///   counted in [`EnergySignal::sanitized`].
///
/// A fully-finite capture takes the same code path as
/// [`energy_signal`], so the hot loop costs nothing extra.
///
/// # Errors
///
/// See above; configuration violations (zero window/decimation, empty
/// or out-of-range bins) are [`CaptureError::InvalidConfig`].
pub fn try_energy_signal(
    samples: &[Complex],
    window: usize,
    bins: &[usize],
    decimation: usize,
) -> Result<EnergySignal, CaptureError> {
    if decimation == 0 {
        return Err(CaptureError::InvalidConfig("decimation must be positive"));
    }
    // Validate window/bins before looking at the data so config errors
    // win over capture errors (they are the caller's bug, not the
    // channel's).
    SlidingDft::try_new(window, bins)?;
    if samples.is_empty() {
        return Err(CaptureError::Empty);
    }
    if samples.len() < window {
        return Err(CaptureError::TooShort { needed: window, got: samples.len() });
    }
    let non_finite = samples.iter().filter(|x| !(x.re.is_finite() && x.im.is_finite())).count();
    if non_finite * 2 > samples.len() {
        return Err(CaptureError::NonFinite { count: non_finite, total: samples.len() });
    }
    if non_finite == 0 {
        return Ok(EnergySignal {
            samples: energy_signal(samples, window, bins, decimation),
            sanitized: 0,
        });
    }
    let cleaned: Vec<Complex> = samples
        .iter()
        .map(|&x| if x.re.is_finite() && x.im.is_finite() { x } else { Complex::ZERO })
        .collect();
    Ok(EnergySignal {
        samples: energy_signal(&cleaned, window, bins, decimation),
        sanitized: non_finite,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::{frequency_bin, plan_for};

    /// Direct windowed DFT of the window ending at sample `end`
    /// (inclusive), for cross-checking the recursion.
    fn direct_bin(samples: &[Complex], end: usize, window: usize, k: usize) -> Complex {
        let start = end + 1 - window;
        let mut acc = Complex::ZERO;
        for m in 0..window {
            acc += samples[start + m]
                * Complex::cis(-2.0 * std::f64::consts::PI * k as f64 * m as f64 / window as f64);
        }
        acc
    }

    fn chirpy_signal(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                Complex::new(
                    (0.013 * t).sin() + 0.2 * (0.11 * t).cos(),
                    (0.007 * t * t * 1e-3).sin(),
                )
            })
            .collect()
    }

    #[test]
    fn matches_direct_dft_everywhere() {
        let samples = chirpy_signal(700);
        let window = 128;
        let bins = [5usize, 31, 64];
        let mut sdft = SlidingDft::new(window, &bins);
        for (n, &x) in samples.iter().enumerate() {
            sdft.push(x);
            if sdft.is_primed() {
                for (i, &k) in bins.iter().enumerate() {
                    let want = direct_bin(&samples, n, window, k);
                    let got = sdft.values()[i];
                    assert!((want - got).abs() < 1e-8, "bin {k} at n={n}: want {want}, got {got}");
                }
            }
        }
    }

    #[test]
    fn agrees_with_full_fft_at_window_boundary() {
        let samples = chirpy_signal(256);
        let window = 256;
        let mut sdft = SlidingDft::new(window, &[3, 17]);
        for &x in &samples {
            sdft.push(x);
        }
        let mut spectrum = samples.clone();
        plan_for(spectrum.len()).forward(&mut spectrum);
        assert!((sdft.values()[0] - spectrum[3]).abs() < 1e-8);
        assert!((sdft.values()[1] - spectrum[17]).abs() < 1e-8);
    }

    #[test]
    fn drift_stays_bounded_over_long_runs() {
        // 50k samples, window 64: the periodic refresh must keep the
        // recursion glued to the direct computation.
        let samples = chirpy_signal(50_000);
        let window = 64;
        let k = 9;
        let mut sdft = SlidingDft::new(window, &[k]);
        let mut worst = 0.0f64;
        for (n, &x) in samples.iter().enumerate() {
            sdft.push(x);
            if sdft.is_primed() && n % 997 == 0 {
                let err = (sdft.values()[0] - direct_bin(&samples, n, window, k)).abs();
                worst = worst.max(err);
            }
        }
        assert!(worst < 1e-7, "worst drift {worst}");
    }

    #[test]
    fn energy_signal_tracks_onoff_keying() {
        let fs = 2048.0;
        let f = 512.0;
        let mut samples: Vec<Complex> = (0..8192)
            .map(|n| Complex::cis(2.0 * std::f64::consts::PI * f * n as f64 / fs))
            .collect();
        for s in samples.iter_mut().skip(4096) {
            *s = Complex::ZERO;
        }
        let y = energy_signal(&samples, 256, &[frequency_bin(f, 256, fs)], 1);
        // Energy high in the "on" region, low in the "off" region.
        assert!(y[1000] > 250.0);
        assert!(y[y.len() - 100] < 1.0);
        // Transition is a ramp of exactly `window` samples.
        let hi = y[3500];
        let lo = y[4600];
        assert!(hi / (lo + 1e-12) > 1e3);
    }

    #[test]
    fn decimation_reduces_length() {
        let samples = chirpy_signal(4096);
        let full = energy_signal(&samples, 128, &[7], 1);
        let dec = energy_signal(&samples, 128, &[7], 8);
        assert_eq!(full.len(), 4096 - 128 + 1);
        assert_eq!(dec.len(), (4096 - 128) / 8 + 1);
        // Decimated values are a strict subsequence of the full ones.
        for (i, &v) in dec.iter().enumerate() {
            assert!((v - full[i * 8]).abs() < 1e-12);
        }
    }

    #[test]
    fn process_into_is_bit_identical_to_push_per_sample() {
        let samples = chirpy_signal(3001);
        for (window, decimation) in [(64usize, 1usize), (64, 7), (128, 24), (1, 1), (3, 2)] {
            let bins: Vec<usize> =
                [0usize, 5, 31].iter().copied().filter(|&k| k < window).collect();
            // Reference: the per-sample push loop.
            let mut reference_sdft = SlidingDft::new(window, &bins);
            let mut reference = Vec::new();
            for (n, &x) in samples.iter().enumerate() {
                reference_sdft.push(x);
                if reference_sdft.is_primed() && (n + 1 - window).is_multiple_of(decimation) {
                    reference.push(reference_sdft.magnitude_sum());
                }
            }
            // Blocked path at awkward chunk boundaries.
            for chunk in [1usize, 7, 63, 64, 65, 1000, usize::MAX] {
                let mut sdft = SlidingDft::new(window, &bins);
                let mut scr = DspScratch::new();
                let mut got = Vec::new();
                for c in samples.chunks(chunk.min(samples.len())) {
                    sdft.process_into(c, decimation, &mut got, &mut scr);
                }
                assert_eq!(got.len(), reference.len(), "w={window} d={decimation} c={chunk}");
                for (i, (a, b)) in got.iter().zip(&reference).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "w={window} d={decimation} c={chunk} out={i}"
                    );
                }
                for (a, b) in sdft.values().iter().zip(reference_sdft.values()) {
                    assert_eq!(a.re.to_bits(), b.re.to_bits());
                    assert_eq!(a.im.to_bits(), b.im.to_bits());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "bin index")]
    fn bin_out_of_range_panics() {
        SlidingDft::new(64, &[64]);
    }

    #[test]
    fn try_new_reports_config_errors() {
        use crate::error::CaptureError;
        assert!(matches!(SlidingDft::try_new(0, &[1]), Err(CaptureError::InvalidConfig(_))));
        assert!(matches!(SlidingDft::try_new(64, &[]), Err(CaptureError::InvalidConfig(_))));
        assert!(matches!(SlidingDft::try_new(64, &[64]), Err(CaptureError::InvalidConfig(_))));
        assert!(SlidingDft::try_new(64, &[63]).is_ok());
    }

    #[test]
    fn try_energy_signal_matches_panicking_path_on_clean_input() {
        let samples = chirpy_signal(2048);
        let want = energy_signal(&samples, 128, &[7], 4);
        let got = try_energy_signal(&samples, 128, &[7], 4).unwrap();
        assert_eq!(got.samples, want);
        assert_eq!(got.sanitized, 0);
    }

    #[test]
    fn try_energy_signal_classifies_degenerate_captures() {
        use crate::error::CaptureError;
        let samples = chirpy_signal(64);
        assert_eq!(try_energy_signal(&[], 128, &[7], 1), Err(CaptureError::Empty));
        assert_eq!(
            try_energy_signal(&samples, 128, &[7], 1),
            Err(CaptureError::TooShort { needed: 128, got: 64 })
        );
        assert!(matches!(
            try_energy_signal(&samples, 32, &[7], 0),
            Err(CaptureError::InvalidConfig(_))
        ));
        let all_nan = vec![Complex::new(f64::NAN, f64::NAN); 256];
        assert_eq!(
            try_energy_signal(&all_nan, 64, &[7], 1),
            Err(CaptureError::NonFinite { count: 256, total: 256 })
        );
    }

    #[test]
    fn try_energy_signal_sanitizes_a_minority_of_nans() {
        let mut samples = chirpy_signal(2048);
        samples[100] = Complex::new(f64::NAN, 0.0);
        samples[700] = Complex::new(f64::INFINITY, f64::NEG_INFINITY);
        let got = try_energy_signal(&samples, 128, &[7], 4).unwrap();
        assert_eq!(got.sanitized, 2);
        assert!(got.samples.iter().all(|v| v.is_finite()), "NaN leaked through");
        // Away from the zeroed samples the signal matches the clean path.
        let mut cleaned = samples.clone();
        cleaned[100] = Complex::ZERO;
        cleaned[700] = Complex::ZERO;
        assert_eq!(got.samples, energy_signal(&cleaned, 128, &[7], 4));
    }
}
