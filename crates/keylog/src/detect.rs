//! The keystroke detector of §V-C.
//!
//! The capture is divided into short non-overlapping STFT windows
//! ("5 ms long" in the paper; we use [`WINDOW_SAMPLES`] = 8192 samples
//! ≈ 3.4 ms at 2.4 Msps, the nearest power of two); the energy of the
//! VRM band's first [`HARMONICS`] harmonics per window is thresholded
//! (the Fig. 7 bimodal rule) into active/idle; consecutive active
//! windows are grouped into bursts, bridging up to two idle windows;
//! and bursts shorter than 30 ms are discarded as non-keystroke
//! activity.

use emsc_sdr::error::CaptureError;
use emsc_sdr::stats::{quantile, Histogram};

/// Why keystroke detection could not run over a capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectError {
    /// The detector configuration violates an invariant (the message
    /// names it).
    InvalidConfig(&'static str),
    /// The capture itself is unusable (empty, shorter than one STFT
    /// window, majority-non-finite, bad sample rate).
    Capture(CaptureError),
}

impl DetectError {
    /// Whether re-capturing could plausibly clear this error: capture
    /// faults follow [`CaptureError::is_retryable`] (transient device
    /// conditions are worth a retry); configuration faults are fatal —
    /// a supervisor should quarantine the session rather than burn its
    /// restart budget on an invariant that can never hold.
    pub fn is_retryable(&self) -> bool {
        match self {
            DetectError::Capture(e) => e.is_retryable(),
            DetectError::InvalidConfig(_) => false,
        }
    }
}

impl std::fmt::Display for DetectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DetectError::InvalidConfig(msg) => write!(f, "invalid detector configuration: {msg}"),
            DetectError::Capture(e) => write!(f, "unusable capture: {e}"),
        }
    }
}

impl std::error::Error for DetectError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DetectError::Capture(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CaptureError> for DetectError {
    fn from(e: CaptureError) -> Self {
        DetectError::Capture(e)
    }
}

/// Harmonics of the switching frequency included in the band energy.
pub const HARMONICS: usize = 2;

/// STFT window size, samples (non-overlapping; ≈5 ms class).
pub const WINDOW_SAMPLES: usize = 8192;

/// Minimum keystroke burst duration, seconds (the paper's 30 ms
/// false-positive filter).
const MIN_BURST_S: f64 = 30e-3;

/// Maximum number of consecutive idle windows tolerated inside one
/// burst (bridges brief dips during a keystroke).
const MAX_GAP_WINDOWS: usize = 2;

/// Detector configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorConfig {
    /// VRM switching frequency (RF), hertz. Must be finite.
    pub switching_freq_hz: f64,
}

impl DetectorConfig {
    /// The detector for a given switching frequency.
    pub fn new(switching_freq_hz: f64) -> Self {
        DetectorConfig { switching_freq_hz }
    }
}

/// A detected activity burst.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectedBurst {
    /// Burst start, seconds.
    pub start_s: f64,
    /// Burst duration, seconds.
    pub duration_s: f64,
}

impl DetectedBurst {
    /// Burst end, seconds.
    pub fn end_s(&self) -> f64 {
        self.start_s + self.duration_s
    }
}

/// Detector output, intermediates included. The `Default` report is
/// the empty one (no windows, no bursts) that callers which must keep
/// going record when detection fails.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DetectionReport {
    /// Per-window band energy.
    pub window_energy: Vec<f64>,
    /// Seconds per window.
    pub window_s: f64,
    /// The threshold used.
    pub threshold: f64,
    /// Bursts that survived the duration filter.
    pub bursts: Vec<DetectedBurst>,
    /// Bursts rejected by the duration filter (kept for analysis).
    pub rejected: Vec<DetectedBurst>,
}

/// Detection quality against ground truth (Table IV, character
/// columns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionScore {
    /// True keystrokes matched by a detection.
    pub true_positives: usize,
    /// Detections matching no true keystroke.
    pub false_positives: usize,
    /// True keystrokes with no matching detection.
    pub missed: usize,
}

impl DetectionScore {
    /// True-positive rate: detected keystrokes / actual keystrokes.
    pub fn tpr(&self) -> f64 {
        let total = self.true_positives + self.missed;
        if total == 0 {
            0.0
        } else {
            self.true_positives as f64 / total as f64
        }
    }

    /// False-positive rate: spurious detections / all detections.
    pub fn fpr(&self) -> f64 {
        let total = self.true_positives + self.false_positives;
        if total == 0 {
            0.0
        } else {
            self.false_positives as f64 / total as f64
        }
    }
}

/// Checks the invariants every detector configuration must hold; its
/// one caller is
/// [`StreamingDetector::new`](crate::stream::StreamingDetector::new).
///
/// # Errors
///
/// [`DetectError::InvalidConfig`] naming the first violated invariant.
pub(crate) fn validate(cfg: &DetectorConfig) -> Result<(), DetectError> {
    if cfg.switching_freq_hz.is_finite() {
        Ok(())
    } else {
        Err(DetectError::InvalidConfig("switching frequency must be finite"))
    }
}

/// Thresholds and groups window energies. It is the global pass
/// [`StreamingDetector::finish`](crate::stream::StreamingDetector::finish)
/// runs over the energies it accumulated, and what a caller runs over
/// the concatenated [`DetectionReport::window_energy`] of several
/// detections (for example chunks of one long recording). Non-finite
/// energies are zeroed first, so the report's energies are all finite.
pub fn detect_from_energies(mut window_energy: Vec<f64>, window_s: f64) -> DetectionReport {
    for e in &mut window_energy {
        if !e.is_finite() {
            *e = 0.0;
        }
    }
    let threshold = select_threshold(&window_energy);
    let active: Vec<bool> = window_energy.iter().map(|&e| e > threshold).collect();

    // Group active windows into bursts, bridging short gaps.
    let mut bursts = Vec::new();
    let mut rejected = Vec::new();
    let mut start: Option<usize> = None;
    let mut gap = 0usize;
    let mut last_active = 0usize;
    for (i, &a) in active.iter().enumerate() {
        match (a, start) {
            (true, None) => {
                start = Some(i);
                last_active = i;
            }
            (true, Some(_)) => {
                gap = 0;
                last_active = i;
            }
            (false, Some(s)) => {
                gap += 1;
                if gap > MAX_GAP_WINDOWS {
                    push_burst(&mut bursts, &mut rejected, s, last_active, window_s);
                    start = None;
                    gap = 0;
                }
            }
            (false, None) => {}
        }
    }
    if let Some(s) = start {
        push_burst(&mut bursts, &mut rejected, s, last_active, window_s);
    }

    DetectionReport { window_energy, window_s, threshold, bursts, rejected }
}

fn push_burst(
    bursts: &mut Vec<DetectedBurst>,
    rejected: &mut Vec<DetectedBurst>,
    start_w: usize,
    end_w: usize,
    window_s: f64,
) {
    let burst = DetectedBurst {
        start_s: start_w as f64 * window_s,
        duration_s: (end_w + 1 - start_w) as f64 * window_s,
    };
    if burst.duration_s >= MIN_BURST_S {
        bursts.push(burst);
    } else {
        rejected.push(burst);
    }
}

/// Threshold between idle-floor and keystroke-burst window energies:
/// bimodal midpoint when possible, robust quantile fallback otherwise.
fn select_threshold(energies: &[f64]) -> f64 {
    if energies.is_empty() {
        return 0.0;
    }
    // `try_from_data` only fails when every energy is non-finite;
    // treat that as "no bimodality" and fall through to the quantile
    // rule instead of panicking.
    let modes = Histogram::try_from_data(energies, 64.min(energies.len().max(2)))
        .ok()
        .and_then(|h| h.two_modes());
    // Keystroke bursts are orders of magnitude above the idle floor;
    // two "modes" closer than 4× apart are just noise-histogram bumps.
    if let Some((lo, hi)) = modes.filter(|(lo, hi)| *hi > 4.0 * lo.max(1e-30)) {
        (lo + hi) / 2.0
    } else {
        // Mostly-idle captures: the keystrokes are sparse outliers, so
        // set the bar well above the idle floor.
        let floor = quantile(energies, 0.5);
        let top = quantile(energies, 0.995);
        floor + 0.25 * (top - floor).max(floor * 3.0)
    }
}

/// Scores detected bursts against ground-truth keystroke press times:
/// a burst matches the nearest unmatched keystroke whose press time is
/// within `tolerance_s` of the burst's start.
pub fn score_detections(
    bursts: &[DetectedBurst],
    truth_press_s: &[f64],
    tolerance_s: f64,
) -> DetectionScore {
    let mut matched = vec![false; truth_press_s.len()];
    let mut true_positives = 0;
    let mut false_positives = 0;
    for b in bursts {
        let mut best: Option<(usize, f64)> = None;
        for (i, &t) in truth_press_s.iter().enumerate() {
            if matched[i] {
                continue;
            }
            let d = (b.start_s - t).abs();
            if d <= tolerance_s && best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        match best {
            Some((i, _)) => {
                matched[i] = true;
                true_positives += 1;
            }
            None => false_positives += 1,
        }
    }
    let missed = matched.iter().filter(|&&m| !m).count();
    DetectionScore { true_positives, false_positives, missed }
}

/// Convenience: the detected keystroke press-time estimates (burst
/// starts), for downstream word grouping.
pub fn detected_times(report: &DetectionReport) -> Vec<f64> {
    report.bursts.iter().map(|b| b.start_s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamingDetector;
    use emsc_sdr::iq::Complex;
    use emsc_sdr::Capture;

    /// Synthetic capture: tone bursts at given times over a noise floor.
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

    fn detect(capture: &Capture) -> Result<DetectionReport, DetectError> {
        StreamingDetector::detect(DetectorConfig::new(970e3), capture)
    }

    #[test]
    fn detects_well_separated_keystrokes() {
        let truth = [(0.2, 0.05), (0.5, 0.06), (0.9, 0.05)];
        let cap = capture_with_bursts(&truth, 1.2);
        let report = detect(&cap).expect("capture is usable");
        assert_eq!(report.bursts.len(), 3, "bursts: {:?}", report.bursts);
        let score = score_detections(
            &report.bursts,
            &truth.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
            0.05,
        );
        assert_eq!(score.true_positives, 3);
        assert_eq!(score.false_positives, 0);
        assert!((score.tpr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn short_bursts_are_filtered_out() {
        // A 10 ms housekeeping blip must be rejected by the 30 ms rule.
        let cap = capture_with_bursts(&[(0.2, 0.05), (0.5, 0.010)], 0.8);
        let report = detect(&cap).expect("capture is usable");
        assert_eq!(report.bursts.len(), 1);
        assert_eq!(report.rejected.len(), 1);
        assert!(report.rejected[0].duration_s < 0.03);
    }

    #[test]
    fn burst_duration_is_estimated() {
        let cap = capture_with_bursts(&[(0.3, 0.08)], 0.7);
        let report = detect(&cap).expect("capture is usable");
        assert_eq!(report.bursts.len(), 1);
        let b = report.bursts[0];
        assert!((b.start_s - 0.3).abs() < 0.01, "start {}", b.start_s);
        assert!((b.duration_s - 0.08).abs() < 0.015, "duration {}", b.duration_s);
    }

    #[test]
    fn gap_bridging_merges_split_bursts() {
        // Two half-bursts 5 ms apart are one keystroke, not two.
        let cap = capture_with_bursts(&[(0.3, 0.025), (0.33, 0.03)], 0.7);
        let report = detect(&cap).expect("capture is usable");
        assert_eq!(report.bursts.len(), 1, "bursts {:?}", report.bursts);
    }

    #[test]
    fn scoring_counts_false_positives_and_misses() {
        let bursts = [
            DetectedBurst { start_s: 0.2, duration_s: 0.05 },
            DetectedBurst { start_s: 0.6, duration_s: 0.05 }, // spurious
        ];
        let truth = [0.2, 0.9];
        let score = score_detections(&bursts, &truth, 0.05);
        assert_eq!(score.true_positives, 1);
        assert_eq!(score.false_positives, 1);
        assert_eq!(score.missed, 1);
        assert!((score.tpr() - 0.5).abs() < 1e-12);
        assert!((score.fpr() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_capture_detects_nothing() {
        let cap = capture_with_bursts(&[], 0.3);
        let report = detect(&cap).expect("capture is usable");
        assert!(report.bursts.is_empty());
    }

    #[test]
    fn try_new_reports_config_errors() {
        let cap = capture_with_bursts(&[], 0.1);
        for switching_freq_hz in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let bad = DetectorConfig::new(switching_freq_hz);
            assert!(matches!(
                StreamingDetector::new(bad.clone(), 2.4e6, 1.455e6),
                Err(DetectError::InvalidConfig(_))
            ));
            assert!(matches!(
                StreamingDetector::detect(bad, &cap),
                Err(DetectError::InvalidConfig(_))
            ));
        }
        assert!(StreamingDetector::new(DetectorConfig::new(970e3), 2.4e6, 1.455e6).is_ok());
    }

    #[test]
    fn try_detect_classifies_degenerate_captures() {
        let empty = Capture { samples: Vec::new(), sample_rate: 2.4e6, center_freq: 1.455e6 };
        assert_eq!(detect(&empty), Err(DetectError::Capture(CaptureError::Empty)));
        let short =
            Capture { samples: vec![Complex::ZERO; 100], sample_rate: 2.4e6, center_freq: 1.455e6 };
        assert!(matches!(detect(&short), Err(DetectError::Capture(CaptureError::TooShort { .. }))));
        let bad_rate =
            Capture { samples: vec![Complex::ZERO; 20_000], sample_rate: 0.0, center_freq: 0.0 };
        assert_eq!(detect(&bad_rate), Err(DetectError::Capture(CaptureError::InvalidSampleRate)));
        let all_nan = Capture {
            samples: vec![Complex::new(f64::NAN, f64::NAN); 20_000],
            sample_rate: 2.4e6,
            center_freq: 1.455e6,
        };
        assert!(matches!(
            detect(&all_nan),
            Err(DetectError::Capture(CaptureError::NonFinite { .. }))
        ));
    }

    #[test]
    fn try_detect_zeroes_isolated_corrupt_windows() {
        let truth = [(0.2, 0.05)];
        let mut cap = capture_with_bursts(&truth, 0.6);
        // Poison a handful of samples far from the burst.
        for i in 0..50 {
            cap.samples[1_000_000 + i] = Complex::new(f64::NAN, 0.0);
        }
        let report = detect(&cap).expect("minority NaN is recoverable");
        assert!(report.window_energy.iter().all(|e| e.is_finite()));
        assert_eq!(report.bursts.len(), 1, "bursts: {:?}", report.bursts);
    }
}
