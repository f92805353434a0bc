//! Incremental keystroke detection from chunked I/Q — the detector's
//! only STFT front end.
//!
//! [`StreamingDetector`] takes raw samples in arbitrarily-sized
//! chunks, transforms each completed non-overlapping STFT window
//! (Hann-weighted, VRM-band bin magnitudes summed in harmonic order)
//! as soon as its last sample arrives, and
//! [`StreamingDetector::finish`] runs the global threshold/grouping
//! pass over the accumulated window energies.
//! [`Detector::try_detect`](crate::detect::Detector::try_detect) is
//! one push of a whole capture followed by `finish`.
//!
//! Windows are non-overlapping, so buffering exactly `window_samples`
//! raw samples performs the same floating-point operations however
//! the stream was chunked: every chunking gives the same report as
//! one push. The trailing partial window is dropped (it still counts
//! towards the non-finite-majority check).

use emsc_sdr::error::CaptureError;
use emsc_sdr::fft::{frequency_bin, FftPlan};
use emsc_sdr::iq::Complex;
use emsc_sdr::window::Window;

use crate::detect::{DetectError, DetectionReport, Detector, DetectorConfig};

/// Progress counters returned by [`StreamingDetector::push`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectProgress {
    /// Completed STFT windows so far (energies accumulated).
    pub windows: usize,
    /// Raw samples consumed so far (including the partial tail window).
    pub samples_seen: usize,
    /// Non-finite raw samples observed so far.
    pub non_finite_samples: usize,
}

/// Resumable keystroke detector: push I/Q chunks, then [`finish`].
///
/// [`finish`]: StreamingDetector::finish
#[derive(Debug, Clone)]
pub struct StreamingDetector {
    detector: Detector,
    sample_rate: f64,
    plan: FftPlan,
    win: Vec<f64>,
    band_bins: Vec<usize>,
    /// Raw samples of the current (incomplete) window.
    window: Vec<Complex>,
    /// The Hann-weighted frame, `window_samples` long.
    buf: Vec<Complex>,
    /// [`FftPlan::forward_bin`] scratch, `window_samples / 2` long.
    bin_scratch: Vec<Complex>,
    energies: Vec<f64>,
    seen: usize,
    non_finite: usize,
    finished: bool,
}

impl StreamingDetector {
    /// Creates a streaming detector for captures with the given sample
    /// rate and tuner centre frequency.
    ///
    /// # Errors
    ///
    /// [`DetectError::InvalidConfig`] for a degenerate configuration
    /// (as [`Detector::try_new`]), then
    /// [`DetectError::Capture`]([`CaptureError::InvalidSampleRate`])
    /// for a non-positive or non-finite sample rate.
    pub fn new(
        config: DetectorConfig,
        sample_rate: f64,
        center_freq: f64,
    ) -> Result<Self, DetectError> {
        let detector = Detector::try_new(config)?;
        if !(sample_rate > 0.0 && sample_rate.is_finite()) {
            return Err(DetectError::Capture(CaptureError::InvalidSampleRate));
        }
        let cfg = detector.config();
        let n = cfg.window_samples;
        // The VRM band: harmonics in order, out-of-capture harmonics
        // dropped, nearest-bin mapping.
        let band_bins: Vec<usize> = (1..=cfg.harmonics)
            .map(|h| cfg.switching_freq_hz * h as f64 - center_freq)
            .filter(|f| f.abs() < sample_rate / 2.0)
            .map(|f| frequency_bin(f, n, sample_rate))
            .collect();
        Ok(StreamingDetector {
            plan: FftPlan::new(n),
            win: Window::Hann.coefficients(n),
            band_bins,
            window: Vec::with_capacity(n),
            buf: vec![Complex::ZERO; n],
            bin_scratch: Vec::with_capacity(n / 2),
            energies: Vec::new(),
            seen: 0,
            non_finite: 0,
            detector,
            sample_rate,
            finished: false,
        })
    }

    /// Feeds a chunk of raw I/Q samples.
    ///
    /// Every window completed by this chunk is transformed immediately,
    /// so per-push work is bounded by the chunk size (plus one window
    /// of carry-over).
    ///
    /// # Panics
    ///
    /// Panics if called after [`StreamingDetector::finish`].
    pub fn push(&mut self, chunk: &[Complex]) -> DetectProgress {
        assert!(!self.finished, "push after finish");
        let n = self.detector.config().window_samples;
        // Counters first, then whole windows in bulk: a full window
        // sitting inside the chunk is transformed straight off the
        // caller's slice — no per-sample carry-buffer pushes. The
        // window/transform/band-sum sequence is unchanged, so energies
        // are bit-identical to the per-sample formulation.
        self.non_finite += chunk.iter().filter(|z| !(z.re.is_finite() && z.im.is_finite())).count();
        self.seen += chunk.len();
        let mut remaining = chunk;
        while !remaining.is_empty() {
            if self.window.is_empty() && remaining.len() >= n {
                let (frame, rest) = remaining.split_at(n);
                self.transform_frame(frame);
                remaining = rest;
                continue;
            }
            let take = (n - self.window.len()).min(remaining.len());
            let (head, rest) = remaining.split_at(take);
            self.window.extend_from_slice(head);
            remaining = rest;
            if self.window.len() == n {
                let frame = std::mem::take(&mut self.window);
                self.transform_frame(&frame);
                self.window = frame;
                self.window.clear();
            }
        }
        DetectProgress {
            windows: self.energies.len(),
            samples_seen: self.seen,
            non_finite_samples: self.non_finite,
        }
    }

    /// Same per-frame pipeline as `stft`: window, transform, then sum
    /// the selected bins' magnitudes in band order. Only the band bins
    /// are transformed, each bit-identical to the full FFT's.
    fn transform_frame(&mut self, frame: &[Complex]) {
        for (slot, (&s, &w)) in self.buf.iter_mut().zip(frame.iter().zip(self.win.iter())) {
            *slot = s.scale(w);
        }
        let energy: f64 = self
            .band_bins
            .iter()
            .map(|&k| self.plan.forward_bin(&self.buf, k, &mut self.bin_scratch).abs())
            .sum();
        self.energies.push(energy);
    }

    /// Classifies the stream and runs the global threshold/grouping
    /// pass over the window energies, non-finite ones zeroed.
    ///
    /// # Errors
    ///
    /// [`DetectError::Capture`], in this precedence: empty stream,
    /// stream shorter than one window, majority-non-finite stream.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn finish(&mut self) -> Result<DetectionReport, DetectError> {
        assert!(!self.finished, "finish called twice");
        self.finished = true;
        let needed = self.detector.config().window_samples;
        if self.seen == 0 {
            return Err(DetectError::Capture(CaptureError::Empty));
        }
        if self.seen < needed {
            return Err(DetectError::Capture(CaptureError::TooShort { needed, got: self.seen }));
        }
        if self.non_finite * 2 > self.seen {
            return Err(DetectError::Capture(CaptureError::NonFinite {
                count: self.non_finite,
                total: self.seen,
            }));
        }
        let mut window_energy = std::mem::take(&mut self.energies);
        for e in &mut window_energy {
            if !e.is_finite() {
                *e = 0.0;
            }
        }
        let window_s = needed as f64 / self.sample_rate;
        Ok(self.detector.detect_from_energies(window_energy, window_s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emsc_sdr::Capture;

    fn capture_with_bursts(bursts: &[(f64, f64)], duration_s: f64) -> Capture {
        let fs = 2.4e6_f64;
        let f_bb = -485e3;
        let n = (duration_s * fs) as usize;
        let mut samples = vec![Complex::ZERO; n];
        let mut state = 77u64;
        for s in samples.iter_mut() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = (state % 10_000) as f64 / 10_000.0 - 0.5;
            *s = Complex::new(0.02 * u, 0.02 * u);
        }
        for &(t0, dur) in bursts {
            let a = (t0 * fs) as usize;
            let b = (((t0 + dur) * fs) as usize).min(n);
            for (i, s) in samples.iter_mut().enumerate().take(b).skip(a) {
                *s += Complex::from_polar(1.0, 2.0 * std::f64::consts::PI * f_bb * i as f64 / fs);
            }
        }
        Capture { samples, sample_rate: fs, center_freq: 1.455e6 }
    }

    fn streaming(cap: &Capture, chunk: usize) -> StreamingDetector {
        let mut det =
            StreamingDetector::new(DetectorConfig::new(970e3), cap.sample_rate, cap.center_freq)
                .expect("valid config");
        for c in cap.samples.chunks(chunk.max(1)) {
            det.push(c);
        }
        det
    }

    #[test]
    fn streaming_is_bit_identical_to_batch_at_every_chunk_size() {
        let cap = capture_with_bursts(&[(0.1, 0.05), (0.3, 0.06)], 0.5);
        let batch =
            Detector::new(DetectorConfig::new(970e3)).try_detect(&cap).expect("batch detects");
        for chunk in [1usize, 7, 8192, 10_000, usize::MAX] {
            let report = streaming(&cap, chunk).finish().expect("streaming detects");
            assert_eq!(report, batch, "chunk size {chunk}");
        }
    }

    #[test]
    fn nan_laced_stream_matches_batch() {
        let mut cap = capture_with_bursts(&[(0.1, 0.05)], 0.3);
        for i in 0..50 {
            cap.samples[500_000 + i] = Complex::new(f64::NAN, 0.0);
        }
        let batch =
            Detector::new(DetectorConfig::new(970e3)).try_detect(&cap).expect("minority NaN ok");
        let report = streaming(&cap, 997).finish().expect("streaming detects");
        assert_eq!(report, batch);
    }

    #[test]
    fn typed_errors_match_batch_precedence() {
        let cfg = DetectorConfig::new(970e3);
        // Construction-time classification.
        let bad = DetectorConfig { window_samples: 12_000, ..cfg.clone() };
        assert!(matches!(
            StreamingDetector::new(bad, 2.4e6, 0.0),
            Err(DetectError::InvalidConfig(_))
        ));
        assert_eq!(
            StreamingDetector::new(cfg.clone(), 0.0, 0.0).err(),
            Some(DetectError::Capture(CaptureError::InvalidSampleRate))
        );
        // Stream-content classification at finish.
        let mut det = StreamingDetector::new(cfg.clone(), 2.4e6, 1.455e6).unwrap();
        assert_eq!(det.finish(), Err(DetectError::Capture(CaptureError::Empty)));
        let mut det = StreamingDetector::new(cfg.clone(), 2.4e6, 1.455e6).unwrap();
        det.push(&[Complex::ZERO; 100]);
        assert_eq!(
            det.finish(),
            Err(DetectError::Capture(CaptureError::TooShort { needed: 8192, got: 100 }))
        );
        let mut det = StreamingDetector::new(cfg, 2.4e6, 1.455e6).unwrap();
        det.push(&vec![Complex::new(f64::NAN, f64::NAN); 20_000]);
        assert_eq!(
            det.finish(),
            Err(DetectError::Capture(CaptureError::NonFinite { count: 20_000, total: 20_000 }))
        );
    }

    #[test]
    fn progress_counters_track_the_stream() {
        let cfg = DetectorConfig::new(970e3);
        let mut det = StreamingDetector::new(cfg, 2.4e6, 1.455e6).unwrap();
        let p = det.push(&[Complex::ZERO; 8191]);
        assert_eq!(p, DetectProgress { windows: 0, samples_seen: 8191, non_finite_samples: 0 });
        let p = det.push(&[Complex::new(f64::INFINITY, 0.0)]);
        assert_eq!(p, DetectProgress { windows: 1, samples_seen: 8192, non_finite_samples: 1 });
    }
}
