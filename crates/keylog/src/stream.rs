//! Incremental keystroke detection from chunked I/Q — the detector's
//! only STFT front end.
//!
//! [`StreamingDetector`] takes raw samples in arbitrarily-sized
//! chunks and feeds them to a [`BandEnergyStream`]: non-overlapping
//! Hann windows whose VRM-band bin magnitudes are summed in harmonic
//! order. The stream runs the first FFT stage of the band's bins as
//! samples arrive and the rest as each window's last sample arrives,
//! with no copy of the window.
//! [`StreamingDetector::finish`] runs the global threshold/grouping
//! pass ([`detect_from_energies`]) over the accumulated window
//! energies. [`StreamingDetector::detect`], the whole-capture form, is
//! one push of a capture followed by `finish`.
//!
//! Windows are non-overlapping and each sample enters the same
//! floating-point operations wherever a chunk ends, so every chunking
//! gives the same report as one push. The trailing partial window is
//! dropped (it still counts towards the non-finite-majority check).

use emsc_sdr::error::CaptureError;
use emsc_sdr::fft::frequency_bin;
use emsc_sdr::iq::Complex;
use emsc_sdr::stream::BandEnergyStream;
use emsc_sdr::window::Window;
use emsc_sdr::Capture;

use crate::detect::{
    detect_from_energies, validate, DetectError, DetectionReport, DetectorConfig, HARMONICS,
    WINDOW_SAMPLES,
};

/// Resumable keystroke detector: push I/Q chunks, then [`finish`].
///
/// [`finish`]: StreamingDetector::finish
#[derive(Debug, Clone)]
pub struct StreamingDetector {
    sample_rate: f64,
    band: BandEnergyStream,
    energies: Vec<f64>,
    finished: bool,
}

impl StreamingDetector {
    /// Creates a streaming detector for captures with the given sample
    /// rate and tuner centre frequency.
    ///
    /// # Errors
    ///
    /// [`DetectError::InvalidConfig`] for a non-finite switching
    /// frequency, then
    /// [`DetectError::Capture`]([`CaptureError::InvalidSampleRate`])
    /// for a non-positive or non-finite sample rate.
    pub fn new(
        config: DetectorConfig,
        sample_rate: f64,
        center_freq: f64,
    ) -> Result<Self, DetectError> {
        validate(&config)?;
        if !(sample_rate > 0.0 && sample_rate.is_finite()) {
            return Err(DetectError::Capture(CaptureError::InvalidSampleRate));
        }
        let f_sw = config.switching_freq_hz;
        // The VRM band: harmonics in order, out-of-capture harmonics
        // dropped, nearest-bin mapping.
        let band_bins: Vec<usize> = (1..=HARMONICS)
            .map(|h| f_sw * h as f64 - center_freq)
            .filter(|f| f.abs() < sample_rate / 2.0)
            .map(|f| frequency_bin(f, WINDOW_SAMPLES, sample_rate))
            .collect();
        Ok(StreamingDetector {
            band: BandEnergyStream::new(WINDOW_SAMPLES, Window::Hann, &band_bins)?,
            energies: Vec::new(),
            sample_rate,
            finished: false,
        })
    }

    /// Runs detection over a whole capture: one push of it, then
    /// [`StreamingDetector::finish`]. Non-finite window energies (from
    /// isolated corrupt samples) are zeroed before thresholding; a
    /// capture whose samples are *mostly* non-finite is rejected.
    ///
    /// # Errors
    ///
    /// [`StreamingDetector::new`]'s errors for the configuration and
    /// the capture's sample rate, then [`StreamingDetector::finish`]'s
    /// for its samples.
    pub fn detect(
        config: DetectorConfig,
        capture: &Capture,
    ) -> Result<DetectionReport, DetectError> {
        let mut detector = Self::new(config, capture.sample_rate, capture.center_freq)?;
        detector.push(&capture.samples);
        detector.finish()
    }

    /// Feeds a chunk of raw I/Q samples.
    ///
    /// Every window completed by this chunk is transformed immediately,
    /// so per-push work is bounded by the chunk size plus one window's
    /// later FFT stages.
    ///
    /// # Panics
    ///
    /// Panics if called after [`StreamingDetector::finish`].
    pub fn push(&mut self, chunk: &[Complex]) {
        assert!(!self.finished, "push after finish");
        self.band.push_into(chunk, &mut self.energies);
    }

    /// Classifies the stream and runs the global threshold/grouping
    /// pass over the window energies ([`detect_from_energies`]).
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
        self.band.classify()?;
        let window_s = WINDOW_SAMPLES as f64 / self.sample_rate;
        Ok(detect_from_energies(std::mem::take(&mut self.energies), window_s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let batch = StreamingDetector::detect(DetectorConfig::new(970e3), &cap).expect("one push");
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
            StreamingDetector::detect(DetectorConfig::new(970e3), &cap).expect("minority NaN ok");
        let report = streaming(&cap, 997).finish().expect("streaming detects");
        assert_eq!(report, batch);
    }

    #[test]
    fn typed_errors_match_batch_precedence() {
        let cfg = DetectorConfig::new(970e3);
        // Construction-time classification.
        assert!(matches!(
            StreamingDetector::new(DetectorConfig::new(f64::NAN), 2.4e6, 0.0),
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
        // (windows completed, samples seen, non-finite samples seen)
        let progress =
            |det: &StreamingDetector| (det.energies.len(), det.band.seen(), det.band.non_finite());
        det.push(&[Complex::ZERO; 8191]);
        assert_eq!(progress(&det), (0, 8191, 0));
        det.push(&[Complex::new(f64::INFINITY, 0.0)]);
        assert_eq!(progress(&det), (1, 8192, 1));
    }
}
