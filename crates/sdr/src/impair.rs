//! Channel-impairment fault injection.
//!
//! The paper's receiver runs against a $25 RTL-SDR over an air gap; the
//! channel it sees is never the clean simulator output. This module
//! injects the impairments that dominate in practice — sample-clock
//! ppm drift, AGC gain steps, dropped-sample gaps (USB overruns),
//! impulsive interference bursts, and hard clipping — directly into a
//! [`Capture`], so BER-vs-severity sweeps can measure how gracefully
//! the demodulator degrades.
//!
//! Every impairment is **deterministic**: the only randomness comes
//! from the `seed` passed to [`Impairment::apply`], so the same
//! capture, impairment list and seed always produce the same corrupted
//! capture — bit-identical across thread counts under the positional
//! seeding of `emsc_runtime::seed_for`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::frontend::Capture;
use crate::iq::Complex;

/// Probability that any one sample inside an impulse burst carries an
/// impulse (the rest of the burst window is untouched).
const IMPULSE_DENSITY: f64 = 0.02;

/// One channel impairment, applied in place to a [`Capture`].
///
/// All variants are total: applied to an empty or degenerate capture
/// they do nothing rather than panic, and out-of-range times/counts
/// are clamped to the capture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Impairment {
    /// Sample-clock frequency error of `ppm` parts-per-million: the
    /// receiver's crystal runs fast (`ppm > 0`) or slow (`ppm < 0`),
    /// so the capture is resampled by `1 + ppm/1e6` with linear
    /// interpolation. Positive ppm shortens the capture slightly and,
    /// over many bits, desynchronises bit-start estimates.
    ClockDrift {
        /// Clock error in parts-per-million.
        ppm: f64,
    },
    /// An abrupt AGC gain step: every sample from `at_s` onward is
    /// scaled by `gain` (a nearby appliance switching on, the dongle
    /// re-ranging mid-capture).
    AgcStep {
        /// Time of the step, seconds from capture start.
        at_s: f64,
        /// Linear gain applied to everything after the step.
        gain: f64,
    },
    /// `count` consecutive samples removed starting at `at_s` — a USB
    /// transfer overrun. Everything after the gap shifts earlier, so
    /// downstream bit timing is desynchronised by `count` samples.
    DroppedSamples {
        /// Time of the gap, seconds from capture start.
        at_s: f64,
        /// Number of samples dropped.
        count: usize,
    },
    /// Impulsive interference: inside `[at_s, at_s + duration_s)` a
    /// seeded ~2% of samples get a random-phase impulse of magnitude
    /// `amplitude` added (motor brushes, switching transients).
    ImpulseBurst {
        /// Burst start, seconds from capture start.
        at_s: f64,
        /// Burst length in seconds.
        duration_s: f64,
        /// Impulse magnitude, in full-scale units.
        amplitude: f64,
    },
    /// Hard clipping: both I and Q limited to `±level` (front-end
    /// saturation from a too-hot signal).
    Clipping {
        /// Clip level in full-scale units (must be positive to have
        /// any effect; non-positive levels are ignored).
        level: f64,
    },
}

impl Impairment {
    /// Applies this impairment to `capture` in place. Deterministic:
    /// the same capture, impairment and `seed` always produce the same
    /// result. Degenerate captures (empty, zero sample rate) and
    /// out-of-range parameters are clamped, never a panic.
    pub fn apply(&self, capture: &mut Capture, seed: u64) {
        match *self {
            Impairment::ClockDrift { ppm } => clock_drift(capture, ppm),
            Impairment::AgcStep { at_s, gain } => {
                let at = time_to_index(capture, at_s);
                for s in &mut capture.samples[at..] {
                    *s = s.scale(gain);
                }
            }
            Impairment::DroppedSamples { at_s, count } => {
                let at = time_to_index(capture, at_s);
                let end = at.saturating_add(count).min(capture.samples.len());
                capture.samples.drain(at..end);
            }
            Impairment::ImpulseBurst { at_s, duration_s, amplitude } => {
                let at = time_to_index(capture, at_s);
                let len = (duration_s.max(0.0) * capture.sample_rate) as usize;
                let end = at.saturating_add(len).min(capture.samples.len());
                let mut rng = StdRng::seed_from_u64(seed);
                for s in &mut capture.samples[at..end] {
                    if rng.gen_bool(IMPULSE_DENSITY) {
                        let phase = rng.gen::<f64>() * 2.0 * std::f64::consts::PI;
                        *s += Complex::from_polar(amplitude, phase);
                    }
                }
            }
            Impairment::Clipping { level } => {
                if level > 0.0 {
                    for s in &mut capture.samples {
                        *s = Complex::new(s.re.clamp(-level, level), s.im.clamp(-level, level));
                    }
                }
            }
        }
    }
}

/// Applies a list of impairments in order. Each gets a distinct
/// sub-seed derived positionally from `seed`, so reordering the list
/// changes the corruption but re-running never does.
pub fn apply_all(capture: &mut Capture, impairments: &[Impairment], seed: u64) {
    for (i, imp) in impairments.iter().enumerate() {
        imp.apply(capture, seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    }
}

/// Severity levels [`severity_stack`] defines (0 = clean … 4 = severe).
pub const SEVERITY_LEVELS: usize = 5;

/// The canonical impairment stack at a given severity, shared by
/// everything that reports "severity 0–4" (E6's rigid-vs-marker sweep
/// and the covert-impaired benchmark): levels compose, each adding
/// impairments and raising the magnitudes of the ones it keeps. Times
/// assume the transmission body of the standard near-field capture
/// (tens of milliseconds). Severities above 4 saturate at the severe
/// stack.
pub fn severity_stack(severity: usize) -> Vec<Impairment> {
    match severity {
        0 => Vec::new(),
        // Mild: a cheap crystal and slight front-end saturation.
        1 => vec![Impairment::ClockDrift { ppm: 20.0 }, Impairment::Clipping { level: 0.65 }],
        // Moderate: worse drift, an AGC re-range mid-capture and a
        // short interference burst.
        2 => vec![
            Impairment::ClockDrift { ppm: 60.0 },
            Impairment::AgcStep { at_s: 0.045, gain: 1.6 },
            Impairment::ImpulseBurst { at_s: 0.03, duration_s: 0.01, amplitude: 1.0 },
            Impairment::Clipping { level: 0.6 },
        ],
        // Heavy: add a USB-overrun gap and crush the dynamic range.
        3 => vec![
            Impairment::ClockDrift { ppm: 120.0 },
            Impairment::AgcStep { at_s: 0.045, gain: 0.55 },
            Impairment::DroppedSamples { at_s: 0.035, count: 2_000 },
            Impairment::ImpulseBurst { at_s: 0.03, duration_s: 0.03, amplitude: 2.0 },
            Impairment::Clipping { level: 0.45 },
        ],
        // Severe: everything at once, at magnitudes that defeat frame
        // sync entirely. The 20 000-sample gap deletes ~30 bits of the
        // standard transmission, positioned (0.037 s) to swallow the
        // start marker and the first body bits — the frame envelope is
        // still detectable but the rigid bit grid has nothing to
        // anchor to, which is precisely the deletion failure mode E6's
        // rigid rows show and its marker rows fix.
        _ => vec![
            Impairment::ClockDrift { ppm: 300.0 },
            Impairment::AgcStep { at_s: 0.03, gain: 0.35 },
            Impairment::DroppedSamples { at_s: 0.037, count: 20_000 },
            Impairment::ImpulseBurst { at_s: 0.02, duration_s: 0.05, amplitude: 4.0 },
            Impairment::Clipping { level: 0.25 },
        ],
    }
}

/// Human-readable description of [`severity_stack`]'s level.
pub fn severity_label(severity: usize) -> &'static str {
    match severity {
        0 => "clean",
        1 => "mild (drift, clip)",
        2 => "moderate (+AGC step, burst)",
        3 => "heavy (+dropped samples)",
        _ => "severe (all, large)",
    }
}

/// Converts a time offset into a clamped sample index (0 for NaN or
/// negative times, `len` past the end).
fn time_to_index(capture: &Capture, at_s: f64) -> usize {
    let idx = at_s * capture.sample_rate;
    if idx.is_finite() && idx > 0.0 {
        (idx as usize).min(capture.samples.len())
    } else {
        0
    }
}

/// Resamples the capture by `1 + ppm/1e6` with linear interpolation:
/// output sample `k` reads input position `k · (1 + ppm/1e6)`.
///
/// In place, with no second capture: a fast clock (`rate ≥ 1`) reads
/// output `k` from input at or after `k`, so the outputs overwrite the
/// input going forward. A slow clock reads at or before `k`, so the
/// buffer grows first and the outputs go backward; only output 0 reads
/// an input (sample 1, at weight 0) that a later output overwrote, so
/// it is taken first.
fn clock_drift(capture: &mut Capture, ppm: f64) {
    let rate = 1.0 + ppm / 1e6;
    if !rate.is_finite() || rate <= 0.0 || ppm == 0.0 || capture.samples.len() < 2 {
        return;
    }
    let samples = &mut capture.samples;
    let n = samples.len();
    let out_len = (((n - 1) as f64 / rate).floor() as usize).saturating_add(1).min(2 * n);
    if rate >= 1.0 {
        for k in 0..out_len {
            samples[k] = drift_sample(samples, n, k, rate);
        }
        samples.truncate(out_len);
    } else {
        let first = drift_sample(samples, n, 0, rate);
        samples.reserve_exact(out_len - n);
        samples.resize(out_len, Complex::ZERO);
        for k in (1..out_len).rev() {
            samples[k] = drift_sample(samples, n, k, rate);
        }
        samples[0] = first;
    }
}

/// Output `k` of [`clock_drift`] from the first `n` samples of `src`.
#[inline]
fn drift_sample(src: &[Complex], n: usize, k: usize, rate: f64) -> Complex {
    let pos = k as f64 * rate;
    let i = pos as usize;
    if i + 1 >= n {
        src[n - 1]
    } else {
        let frac = pos - i as f64;
        src[i].scale(1.0 - frac) + src[i + 1].scale(frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_capture(n: usize) -> Capture {
        let samples = (0..n)
            .map(|i| Complex::new((0.01 * i as f64).sin(), (0.013 * i as f64).cos()))
            .collect();
        Capture { samples, sample_rate: 1000.0, center_freq: 0.0 }
    }

    #[test]
    fn severity_stacks_compose_monotonically() {
        assert!(severity_stack(0).is_empty(), "severity 0 is the clean channel");
        for s in 0..SEVERITY_LEVELS - 1 {
            assert!(
                severity_stack(s).len() <= severity_stack(s + 1).len(),
                "severity {s} stack larger than severity {}",
                s + 1
            );
        }
        // Above the top level the stack saturates.
        assert_eq!(severity_stack(99), severity_stack(SEVERITY_LEVELS - 1));
    }

    #[test]
    fn zero_ppm_drift_is_identity() {
        let mut cap = test_capture(500);
        let orig = cap.samples.clone();
        Impairment::ClockDrift { ppm: 0.0 }.apply(&mut cap, 1);
        assert_eq!(cap.samples, orig);
    }

    #[test]
    fn positive_ppm_shortens_negative_lengthens() {
        let mut fast = test_capture(100_000);
        Impairment::ClockDrift { ppm: 100.0 }.apply(&mut fast, 1);
        assert!(fast.samples.len() < 100_000, "fast clock must shorten: {}", fast.samples.len());
        let mut slow = test_capture(100_000);
        Impairment::ClockDrift { ppm: -100.0 }.apply(&mut slow, 1);
        assert!(slow.samples.len() > 100_000, "slow clock must lengthen: {}", slow.samples.len());
        // ~100 ppm over 100k samples ≈ 10 samples either way.
        assert!(fast.samples.len().abs_diff(100_000) < 20);
        assert!(slow.samples.len().abs_diff(100_000) < 20);
    }

    #[test]
    fn drift_interpolates_smoothly() {
        // A linear ramp resampled by any rate stays a linear ramp.
        let samples: Vec<Complex> = (0..1000).map(|i| Complex::new(i as f64, 0.0)).collect();
        let mut cap = Capture { samples, sample_rate: 1000.0, center_freq: 0.0 };
        Impairment::ClockDrift { ppm: 500.0 }.apply(&mut cap, 1);
        for (k, s) in cap.samples.iter().enumerate() {
            let expect = k as f64 * (1.0 + 500.0 / 1e6);
            assert!((s.re - expect.min(999.0)).abs() < 1e-9, "sample {k}");
        }
    }

    /// The resampler that built a second capture: the oracle of the
    /// in-place [`clock_drift`].
    fn clock_drift_copying(capture: &mut Capture, ppm: f64) {
        let rate = 1.0 + ppm / 1e6;
        if !rate.is_finite() || rate <= 0.0 || ppm == 0.0 || capture.samples.len() < 2 {
            return;
        }
        let src = &capture.samples;
        let n = src.len();
        let out_len = (((n - 1) as f64 / rate).floor() as usize).saturating_add(1).min(2 * n);
        let mut out = Vec::with_capacity(out_len);
        for k in 0..out_len {
            let pos = k as f64 * rate;
            let i = pos as usize;
            if i + 1 >= n {
                out.push(src[n - 1]);
            } else {
                let frac = pos - i as f64;
                out.push(src[i].scale(1.0 - frac) + src[i + 1].scale(frac));
            }
        }
        capture.samples = out;
    }

    #[test]
    fn in_place_drift_matches_the_copying_resampler_bit_for_bit() {
        let bits = |s: &[Complex]| -> Vec<(u64, u64)> {
            s.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        // −900 000 ppm hits the 2n cap on the output length.
        for ppm in [-900_000.0, -300.0, -100.0, 20.0, 300.0, 500.0] {
            for n in [2, 3, 1_000, 100_000] {
                let mut cap = test_capture(n);
                // An infinity, signed zeros and the largest finite
                // values at both ends, which output 0 and the clamped
                // tail read: output 0 takes `∞ + x·0`, which is ∞ only
                // while input 1 still holds its finite `x`.
                cap.samples[0] = Complex::new(f64::INFINITY, -0.0);
                cap.samples[1] = Complex::new(f64::MAX, -0.0);
                cap.samples[n - 1] = Complex::new(-0.0, f64::MIN);
                let mut want = cap.clone();
                clock_drift_copying(&mut want, ppm);
                Impairment::ClockDrift { ppm }.apply(&mut cap, 1);
                assert_eq!(bits(&cap.samples), bits(&want.samples), "ppm {ppm}, n {n}");
            }
        }
    }

    #[test]
    fn agc_step_scales_only_the_tail() {
        let mut cap = test_capture(1000);
        let orig = cap.samples.clone();
        // 0.5 s at 1 kHz = sample 500.
        Impairment::AgcStep { at_s: 0.5, gain: 2.0 }.apply(&mut cap, 1);
        for (got, want) in cap.samples.iter().zip(&orig).take(500) {
            assert_eq!(got, want);
        }
        for (got, want) in cap.samples.iter().zip(&orig).skip(500) {
            assert!((got.re - 2.0 * want.re).abs() < 1e-12);
        }
    }

    #[test]
    fn dropped_samples_splice_the_stream() {
        let mut cap = test_capture(1000);
        let orig = cap.samples.clone();
        Impairment::DroppedSamples { at_s: 0.1, count: 30 }.apply(&mut cap, 1);
        assert_eq!(cap.samples.len(), 970);
        assert_eq!(cap.samples[99], orig[99]);
        assert_eq!(cap.samples[100], orig[130]);
    }

    #[test]
    fn impulse_burst_is_seed_deterministic_and_localised() {
        let mut a = test_capture(2000);
        let mut b = test_capture(2000);
        let orig = a.samples.clone();
        let imp = Impairment::ImpulseBurst { at_s: 0.5, duration_s: 0.5, amplitude: 3.0 };
        imp.apply(&mut a, 42);
        imp.apply(&mut b, 42);
        assert_eq!(a.samples, b.samples, "same seed must reproduce the same burst");
        let mut c = test_capture(2000);
        imp.apply(&mut c, 43);
        assert_ne!(a.samples, c.samples, "different seed must move the impulses");
        // Untouched outside [0.5 s, 1.0 s) = samples [500, 1000).
        assert_eq!(&a.samples[..500], &orig[..500]);
        assert_eq!(&a.samples[1000..], &orig[1000..]);
        let hit = a.samples[500..1000].iter().zip(&orig[500..1000]).filter(|(x, o)| x != o).count();
        assert!(hit > 0, "burst injected nothing");
        assert!(hit < 100, "burst density too high: {hit}");
    }

    #[test]
    fn clipping_bounds_both_components() {
        let mut cap = test_capture(1000);
        for s in &mut cap.samples {
            *s = s.scale(5.0);
        }
        Impairment::Clipping { level: 0.8 }.apply(&mut cap, 1);
        assert!(cap.samples.iter().all(|s| s.re.abs() <= 0.8 && s.im.abs() <= 0.8));
        // Non-positive level is a no-op, not a capture wipe.
        let orig = cap.samples.clone();
        Impairment::Clipping { level: -1.0 }.apply(&mut cap, 1);
        assert_eq!(cap.samples, orig);
    }

    #[test]
    fn every_impairment_is_total_on_degenerate_captures() {
        let all = [
            Impairment::ClockDrift { ppm: 250.0 },
            Impairment::AgcStep { at_s: f64::NAN, gain: 0.5 },
            Impairment::DroppedSamples { at_s: 1e9, count: usize::MAX },
            Impairment::ImpulseBurst { at_s: -1.0, duration_s: f64::INFINITY, amplitude: 1.0 },
            Impairment::Clipping { level: f64::NAN },
        ];
        let mut empty = Capture { samples: Vec::new(), sample_rate: 0.0, center_freq: 0.0 };
        apply_all(&mut empty, &all, 7);
        assert!(empty.samples.is_empty());
        let mut tiny = test_capture(3);
        apply_all(&mut tiny, &all, 7);
        assert!(tiny.samples.len() <= 3);
    }

    #[test]
    fn empty_impairment_list_is_bit_identical_to_the_clean_path() {
        // Severity 0 maps to an empty stack: applying it must not move
        // a single bit, whatever the seed.
        let mut cap = test_capture(4096);
        let orig = cap.samples.clone();
        for seed in [0, 1, 0xDEAD_BEEF] {
            apply_all(&mut cap, &[], seed);
            assert!(
                cap.samples.iter().zip(&orig).all(|(a, b)| {
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
                }),
                "empty impairment list changed the capture under seed {seed}"
            );
        }
    }

    #[test]
    fn neutral_parameters_are_identities() {
        // Each impairment has a "dial at zero" setting; all of them
        // must be exact no-ops, not merely small perturbations.
        let neutral = [
            Impairment::ClockDrift { ppm: 0.0 },
            Impairment::AgcStep { at_s: 0.2, gain: 1.0 },
            Impairment::DroppedSamples { at_s: 0.2, count: 0 },
            Impairment::ImpulseBurst { at_s: 0.2, duration_s: 0.0, amplitude: 3.0 },
            Impairment::Clipping { level: f64::MAX },
        ];
        for imp in neutral {
            let mut cap = test_capture(2000);
            let orig = cap.samples.clone();
            imp.apply(&mut cap, 99);
            assert_eq!(cap.samples, orig, "{imp:?} is not an identity at its neutral setting");
        }
    }

    #[test]
    fn apply_all_composes_as_the_manual_positional_sequence() {
        // The composition contract: apply_all([a, b, c], seed) is
        // exactly a.apply(sub_seed(0)); b.apply(sub_seed(1));
        // c.apply(sub_seed(2)) — so a supervisor replaying a fault
        // plan one event at a time reproduces the batch corruption
        // bit for bit.
        let imps = [
            Impairment::ImpulseBurst { at_s: 0.1, duration_s: 0.4, amplitude: 1.5 },
            Impairment::AgcStep { at_s: 0.5, gain: 0.7 },
            Impairment::ImpulseBurst { at_s: 0.6, duration_s: 0.3, amplitude: 2.0 },
        ];
        let seed = 4242;
        let mut composed = test_capture(2000);
        apply_all(&mut composed, &imps, seed);
        let mut manual = test_capture(2000);
        for (i, imp) in imps.iter().enumerate() {
            imp.apply(
                &mut manual,
                seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            );
        }
        assert_eq!(composed.samples, manual.samples);
        // And the whole composition is rerun-deterministic.
        let mut again = test_capture(2000);
        apply_all(&mut again, &imps, seed);
        assert_eq!(composed.samples, again.samples);
    }

    #[test]
    fn apply_all_gives_each_impairment_its_own_substream() {
        let imps = [
            Impairment::ImpulseBurst { at_s: 0.0, duration_s: 0.5, amplitude: 1.0 },
            Impairment::ImpulseBurst { at_s: 0.5, duration_s: 0.5, amplitude: 1.0 },
        ];
        let mut a = test_capture(1000);
        apply_all(&mut a, &imps, 9);
        let mut b = test_capture(1000);
        apply_all(&mut b, &imps, 9);
        assert_eq!(a.samples, b.samples);
        // The two bursts must not be the same draw sequence: mirror the
        // capture halves and check the corruption is not mirrored.
        let first: Vec<Complex> = a.samples[..500].to_vec();
        let second: Vec<Complex> = a.samples[500..].to_vec();
        let orig = test_capture(1000);
        let d1: Vec<usize> = first
            .iter()
            .zip(&orig.samples[..500])
            .enumerate()
            .filter(|(_, (x, o))| x != o)
            .map(|(i, _)| i)
            .collect();
        let d2: Vec<usize> = second
            .iter()
            .zip(&orig.samples[500..])
            .enumerate()
            .filter(|(_, (x, o))| x != o)
            .map(|(i, _)| i)
            .collect();
        assert_ne!(d1, d2, "positional sub-seeding failed: identical impulse patterns");
    }
}
