//! Torture corpus: no public receive-chain entry point may panic.
//!
//! Every capture here is one a real deployment can produce — a dead
//! dongle (empty), a capture cut off mid-transfer, a saturated front
//! end, raw DC, pure noise, or NaN-laced sample streams from a buggy
//! driver. The contract pinned by this suite: each public RX entry
//! point either returns a report or a typed error. Panics are the one
//! forbidden outcome.

use std::io::{self, Read};

use emsc_core::session::SessionRegistry;
use emsc_covert::frame::{
    frame_payload, try_deframe, FrameConfig, FrameError, START_MARKER, ZEROS_LEN,
};
use emsc_covert::matched::matched_filter_demodulate;
use emsc_covert::rx::{
    try_estimate_bit_period, try_find_switching_frequency, Receiver, RxConfig, RxError, SyncLoss,
    MAX_EDGE_KERNEL_TAPS,
};
use emsc_covert::stream::{Deframer, FrameEvent, StreamingReceiver};
use emsc_keylog::detect::detect_from_energies;
use emsc_keylog::{DetectError, DetectorConfig, StreamingDetector};
use emsc_sdr::error::{CaptureError, StatsError};
use emsc_sdr::impair::{apply_all, Impairment};
use emsc_sdr::record::read_rtl_u8;
use emsc_sdr::stats::{quantile, try_mean, try_quantile, Histogram, RayleighFit};
use emsc_sdr::{Capture, Complex};
use emsc_tests::{capture, corpus, noise, FS, F_SW};

fn rx_config() -> RxConfig {
    RxConfig::new(F_SW, 250e-6)
}

fn receiver() -> Receiver {
    Receiver::new(rx_config())
}

#[test]
fn receiver_entry_points_never_panic_on_the_corpus() {
    let rx = receiver();
    for (label, cap) in corpus() {
        // Fallible paths: typed error or a report — both fine, panic
        // is not.
        let _ = rx.receive(&cap).map_err(|e| format!("{label}: {e}"));
        let _ = rx.receive_blind(&cap).map_err(|e| format!("{label}: {e}"));
        let _ = try_find_switching_frequency(&cap, 100e3, 500e3);
    }
}

#[test]
fn structural_failures_map_to_the_right_typed_errors() {
    let rx = receiver();
    assert_eq!(
        rx.receive(&capture(Vec::new())),
        Err(RxError::Capture(CaptureError::Empty)),
        "empty capture"
    );
    assert!(
        matches!(
            rx.receive(&capture(noise(100, 5))),
            Err(RxError::Capture(CaptureError::TooShort { .. }))
        ),
        "sub-window capture"
    );
    assert!(
        matches!(
            rx.receive(&capture(vec![Complex::new(f64::NAN, f64::NAN); 20_000])),
            Err(RxError::Capture(CaptureError::NonFinite { .. }))
        ),
        "all-NaN capture"
    );
    // Silence is NOT an error: nothing sent is a legitimate decode.
    let silent = rx.receive(&capture(vec![Complex::new(0.0, 0.0); 50_000]));
    assert!(silent.is_ok(), "silence must decode to Ok: {silent:?}");

    // Degenerate sample rates are capture errors, not panics. That
    // includes finite rates so high that the edge kernel, whose length
    // is a fraction of a bit period counted in samples, would exceed
    // its tap cap: the rate at which a `period_s` bit reaches the cap
    // is `cap_rate(period_s)`.
    let cfg = rx_config();
    let cap_rate = |period_s: f64| {
        MAX_EDGE_KERNEL_TAPS as f64 * cfg.decimation as f64 / (period_s * cfg.edge_kernel_fraction)
    };
    let just_above = |rate: f64| rate * (1.0 + 1e-9);
    let at_rate =
        |rate: f64| Capture { samples: noise(10_000, 3), sample_rate: rate, center_freq: F_SW };
    let bad_rate = Err(RxError::Capture(CaptureError::InvalidSampleRate));
    let informed_cap = cap_rate(cfg.expected_bit_period_s);
    for rate in [0.0, -1.0, f64::NAN, f64::INFINITY, 1e300, just_above(informed_cap)] {
        assert_eq!(rx.receive(&at_rate(rate)), bad_rate, "sample rate {rate}");
        assert_eq!(rx.receive_blind(&at_rate(rate)), bad_rate, "blind, sample rate {rate}");
    }
    // Blind mode may size its kernel from any period up to the
    // estimator's 5 ms ceiling, so its cap sits at a lower rate.
    let blind_cap = cap_rate(5e-3);
    assert_eq!(rx.receive_blind(&at_rate(just_above(blind_cap))), bad_rate, "blind cap");
    assert!(rx.receive(&at_rate(just_above(blind_cap))).is_ok(), "informed below its cap");

    // A band that contains no configured harmonic is NoCarrier.
    let off_band = Capture { samples: noise(10_000, 3), sample_rate: FS, center_freq: 1e9 };
    assert_eq!(rx.receive(&off_band), Err(RxError::NoCarrier));
}

/// Receiver configurations that violate an invariant.
fn bad_rx_configs() -> Vec<RxConfig> {
    let good = rx_config();
    vec![
        RxConfig { fft_size: 300, ..good.clone() },
        // Powers of two too large to allocate a window for.
        RxConfig { fft_size: 1 << 44, ..good.clone() },
        RxConfig { fft_size: 1 << 62, ..good.clone() },
        RxConfig { decimation: 0, ..good.clone() },
        RxConfig { harmonics: 0, ..good.clone() },
        // More harmonics than the window has bins: building the band
        // would walk every one of them.
        RxConfig { harmonics: 1 << 40, ..good.clone() },
        RxConfig { harmonics: usize::MAX, ..good.clone() },
        // As many harmonics as bins: a twiddle table quadratic in the
        // window (64 MiB here).
        RxConfig { fft_size: 2048, harmonics: 2048, ..good.clone() },
        RxConfig { expected_bit_period_s: 0.0, ..good.clone() },
        RxConfig { expected_bit_period_s: f64::NAN, ..good.clone() },
        RxConfig { expected_bit_period_s: f64::INFINITY, ..good.clone() },
        RxConfig { expected_bit_period_s: 1e300, ..good.clone() },
        RxConfig { edge_kernel_fraction: 1e300, ..good.clone() },
        RxConfig { edge_kernel_fraction: f64::NAN, ..good.clone() },
        RxConfig { edge_kernel_fraction: 0.0, ..good.clone() },
        RxConfig { switching_freq_hz: f64::INFINITY, ..good },
    ]
}

#[test]
fn receiver_constructor_rejects_bad_configs_without_panicking() {
    // Every constructor checks a configuration through the one
    // construction step, so each rejects every bad one the same way,
    // before any sample is seen or any buffer is sized.
    let is_invalid = |r: Result<(), RxError>| matches!(r, Err(RxError::InvalidConfig(_)));
    let mut registry = SessionRegistry::new(7, 1 << 16);
    for cfg in bad_rx_configs() {
        let streaming = StreamingReceiver::new(cfg.clone(), FS, F_SW).map(drop);
        assert!(is_invalid(streaming), "StreamingReceiver::new accepted {cfg:?}");
        let blind = StreamingReceiver::new_blind(cfg.clone(), FS, F_SW).map(drop);
        assert!(is_invalid(blind), "StreamingReceiver::new_blind accepted {cfg:?}");
        let session = registry.open_covert(cfg.clone(), FS, F_SW).map(drop);
        assert!(is_invalid(session), "open_covert accepted {cfg:?}");
    }
    assert!(StreamingReceiver::new(rx_config(), FS, F_SW).is_ok());
}

#[test]
fn receiver_new_hands_every_bad_config_to_receive_as_a_typed_error() {
    // `Receiver::new` only holds the configuration: `receive` and
    // `receive_blind` check it through the same construction step,
    // before they look at the capture.
    let cap = capture(noise(10_000, 3));
    let is_invalid = |r: Result<(), RxError>| matches!(r, Err(RxError::InvalidConfig(_)));
    for cfg in bad_rx_configs() {
        let rx = Receiver::new(cfg.clone());
        assert!(is_invalid(rx.receive(&cap).map(drop)), "receive accepted {cfg:?}");
        assert!(is_invalid(rx.receive_blind(&cap).map(drop)), "receive_blind accepted {cfg:?}");
    }
    assert!(receiver().receive(&cap).is_ok());
}

#[test]
fn every_keylog_entry_point_reports_a_nan_switching_frequency_as_a_typed_error() {
    let bad = DetectorConfig::new(f64::NAN);
    let cap = capture(noise(10_000, 3));
    let is_invalid = |r: Result<(), DetectError>| matches!(r, Err(DetectError::InvalidConfig(_)));
    assert!(is_invalid(StreamingDetector::new(bad.clone(), FS, F_SW).map(drop)));
    assert!(is_invalid(StreamingDetector::detect(bad.clone(), &cap).map(drop)));
    let mut registry = SessionRegistry::new(7, 1 << 16);
    assert!(is_invalid(registry.open_keylog(bad, FS, F_SW).map(drop)));
}

#[test]
fn keylog_detector_never_panics_on_the_corpus() {
    let detect = |cap: &Capture| StreamingDetector::detect(DetectorConfig::new(F_SW), cap);
    for (label, cap) in corpus() {
        let _ = detect(&cap).map_err(|e| format!("{label}: {e}"));
    }
    for rate in [0.0, f64::NAN] {
        let cap = Capture { samples: noise(10_000, 3), sample_rate: rate, center_freq: F_SW };
        assert!(detect(&cap).is_err(), "sample rate {rate} must be an error");
    }
}

#[test]
fn keylog_thresholding_zeroes_non_finite_energies() {
    // Window energies as a capture with corrupt stretches leaves them:
    // every one, or some, NaN or infinite.
    let laced: Vec<f64> = (0..300)
        .map(|i| match i % 11 {
            0 => f64::NAN,
            4 => f64::INFINITY,
            7 => f64::NEG_INFINITY,
            _ if (100..140).contains(&i) => 50.0,
            _ => 1.0 + (i % 3) as f64 * 0.1,
        })
        .collect();
    let mixed_inf = [f64::INFINITY, f64::NEG_INFINITY].repeat(5);
    for energies in
        [vec![f64::NAN; 10], vec![f64::INFINITY; 10], vec![f64::NEG_INFINITY; 10], mixed_inf, laced]
    {
        let zeroed: Vec<f64> =
            energies.iter().map(|&e| if e.is_finite() { e } else { 0.0 }).collect();
        let report = detect_from_energies(energies, 3.4e-3);
        assert_eq!(report.window_energy, zeroed);
        assert!(report.threshold.is_finite(), "threshold {}", report.threshold);
    }
}

#[test]
fn matched_filter_never_panics_on_the_corpus() {
    for (_, cap) in corpus() {
        let energy: Vec<f64> = cap.samples.iter().map(|s| s.norm_sqr()).collect();
        let _ = matched_filter_demodulate(&energy, 1.0 / FS, 250e-6);
    }
    // An edge, then a stream gone NaN: every integrate-and-dump window
    // holds a NaN, so no window has a power to threshold.
    let edge_then_nan = [vec![0.05; 400], vec![1.0; 60], vec![f64::NAN; 2000]].concat();
    assert!(matched_filter_demodulate(&edge_then_nan, 1.0, 100.0).is_empty());
}

#[test]
fn frame_sync_reports_truncation_and_absence_distinctly() {
    let config = FrameConfig::default();
    // No marker anywhere.
    assert_eq!(try_deframe(&[], config, 1), Err(FrameError::MarkerNotFound));
    assert_eq!(try_deframe(&[0, 1, 0, 1, 1, 0], config, 1), Err(FrameError::MarkerNotFound));

    // A real frame cut off inside the length header.
    let bits = frame_payload(b"torture", config);
    let truncated = &bits[..bits.len().min(config.sync_len + ZEROS_LEN + 18)];
    match try_deframe(truncated, config, 1) {
        Err(FrameError::TruncatedHeader) | Err(FrameError::MarkerNotFound) => {}
        other => panic!("truncated frame must be a typed error, got {other:?}"),
    }

    // The full frame still round-trips.
    let full = try_deframe(&bits, config, 1).expect("intact frame must deframe");
    assert_eq!(full.payload, b"torture");
}

#[test]
fn deframer_floods_of_markers_are_chunk_invariant() {
    let config = FrameConfig::default();
    // Back-to-back one-error start markers, each followed by an empty
    // length header: a thousand frames only finish() can resolve.
    let mut near = START_MARKER;
    near[3] ^= 1;
    let near_flood: Vec<u8> = (0..1000).flat_map(|_| near.into_iter().chain([0; 28])).collect();
    // Bare marker copies: every position a candidate, every header
    // garbage.
    let marker_flood = START_MARKER.repeat(4500);
    for bits in [near_flood, marker_flood] {
        let pass = |chunk: usize| {
            let mut d = Deframer::new(config, 1);
            let mut events: Vec<FrameEvent> = bits.chunks(chunk).flat_map(|c| d.push(c)).collect();
            events.extend(d.finish());
            events
        };
        let whole = pass(bits.len());
        for chunk in [1, 7, 64 * 1024] {
            assert_eq!(pass(chunk), whole, "chunk {chunk}");
        }
    }
}

#[test]
fn estimation_helpers_are_total_on_garbage() {
    // Period estimation over empty / NaN / constant energy.
    assert_eq!(try_estimate_bit_period(&[], 1e-5, 50e-6, 5e-3), Err(SyncLoss::TooFewSamples));
    let nan_energy = vec![f64::NAN; 256];
    let _ = try_estimate_bit_period(&nan_energy, 1e-5, 50e-6, 5e-3);
    let flat = vec![1.0; 256];
    let _ = try_estimate_bit_period(&flat, 1e-5, 50e-6, 5e-3);

    // Stats: typed errors, no panics.
    assert_eq!(try_quantile(&[], 0.5), Err(StatsError::EmptyData));
    assert_eq!(try_quantile(&[1.0], f64::NAN), Err(StatsError::InvalidQuantile));
    assert_eq!(try_mean(&[]), Err(StatsError::EmptyData));
    assert_eq!(try_mean(&[f64::NAN, f64::NAN]), Err(StatsError::NoFiniteData));
    assert!(Histogram::try_from_data(&[], 10).is_err());
    assert!(Histogram::try_from_data(&[f64::NAN], 10).is_err());
    assert!(RayleighFit::try_fit(&[]).is_err());
    assert!(RayleighFit::try_fit(&[f64::NAN]).is_err());

    // Quantiles skip NaN entries and order ±∞: NaN-laced data has the
    // quantiles of its other values, and all-NaN data is a typed error.
    assert_eq!(try_quantile(&[f64::NAN, f64::NAN], 0.5), Err(StatsError::NoFiniteData));
    assert_eq!(try_quantile(&[3.0, f64::NAN, 1.0, f64::NAN, 2.0], 0.5), Ok(2.0));
    assert_eq!(try_quantile(&[f64::NAN, f64::INFINITY, 1.0], 1.0), Ok(f64::INFINITY));
    assert_eq!(try_quantile(&[1.0, f64::NEG_INFINITY, f64::NAN], 0.0), Ok(f64::NEG_INFINITY));
    let mut s = 0x5eed_u64;
    let mut next = || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    for _ in 0..500 {
        let len = 1 + next() % 64;
        let data: Vec<f64> = (0..len)
            .map(|_| match next() % 8 {
                0 | 1 => f64::NAN,
                2 => f64::INFINITY,
                r => (next() % 1000) as f64 - 500.0 + r as f64 * 0.25,
            })
            .collect();
        let clean: Vec<f64> = data.iter().copied().filter(|v| !v.is_nan()).collect();
        for q in [0.0, 0.1, 0.5, 0.98, 1.0] {
            let want = if clean.is_empty() {
                Err(StatsError::NoFiniteData)
            } else {
                Ok(quantile(&clean, q))
            };
            assert_eq!(try_quantile(&data, q), want, "{data:?} at {q}");
            if let Ok(v) = want {
                assert_eq!(quantile(&data, q), v);
            }
        }
    }
}

/// A reader that fails mid-stream, after yielding some valid bytes.
struct FailAfter {
    remaining: usize,
}

impl Read for FailAfter {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.remaining == 0 {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "dongle unplugged"));
        }
        let n = buf.len().min(self.remaining);
        for b in &mut buf[..n] {
            *b = 0x80;
        }
        self.remaining -= n;
        Ok(n)
    }
}

#[test]
fn recording_reader_failures_surface_as_io_errors() {
    // Mid-capture failure is an Err, not a panic or a silent truncate.
    let err = read_rtl_u8(FailAfter { remaining: 1000 }, FS, F_SW).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);

    // An odd-length (truncated IQ pair) stream still parses the pairs
    // it has.
    let bytes = vec![0x80u8; 2001];
    let cap = read_rtl_u8(&bytes[..], FS, F_SW).expect("odd-length stream must parse");
    assert_eq!(cap.samples.len(), 1000);
}

#[test]
fn impaired_corpus_still_never_panics() {
    let stack = [
        Impairment::ClockDrift { ppm: 300.0 },
        Impairment::AgcStep { at_s: 0.005, gain: 0.4 },
        Impairment::DroppedSamples { at_s: 0.004, count: 5_000 },
        Impairment::ImpulseBurst { at_s: 0.002, duration_s: 0.01, amplitude: 3.0 },
        Impairment::Clipping { level: 0.2 },
    ];
    let rx = receiver();
    for (label, mut cap) in corpus() {
        apply_all(&mut cap, &stack, 0xDEAD_BEEF);
        let _ = rx.receive(&cap).map_err(|e| format!("{label}: {e}"));
        let _ = rx.receive_blind(&cap).map_err(|e| format!("{label}: {e}"));
        let detected = StreamingDetector::detect(DetectorConfig::new(F_SW), &cap);
        let _ = detected.map_err(|e| format!("{label}: {e}"));
    }
}
