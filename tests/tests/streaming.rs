//! Chunk invariance of the receive chain over the torture corpus.
//!
//! The receive stages exist once, as streaming state machines; the
//! whole-capture entry points (`Receiver::receive`/`receive_blind`,
//! `StreamingDetector::detect`, `try_deframe`) push their whole input
//! once and finish. The contract pinned here has two halves:
//!
//! - **Chunk invariance.** Feeding a capture in chunks of 1, 7 and
//!   64 Ki samples, or in a mixed walk of sizes, gives exactly the
//!   result of one push — the same report, floating-point
//!   intermediates included, or the same typed error — for the
//!   informed receiver, the blind receiver and the keystroke
//!   detector.
//! - **The batch oracle.** The one-push front ends equal the
//!   receivers rebuilt from the `emsc-sdr` batch kernels
//!   (`emsc_tests::batch_energy`, `batch_edge_response`,
//!   `batch_window_energy`).

use emsc_core::chain::{Chain, Setup};
use emsc_core::fused::{ChainStream, FUSED_BLOCK};
use emsc_core::laptop::Laptop;
use emsc_covert::rx::{try_estimate_bit_period, Receiver, RxConfig, RxError, RxReport};
use emsc_covert::stream::StreamingReceiver;
use emsc_keylog::detect::{DetectError, DetectionReport, DetectorConfig};
use emsc_keylog::stream::StreamingDetector;
use emsc_pmu::workload::Program;
use emsc_runtime::with_threads;
use emsc_sdr::error::CaptureError;
use emsc_sdr::{Capture, Complex};
use emsc_tests::{batch_edge_response, batch_energy, batch_window_energy, corpus, noise, FS, F_SW};

/// Fixed chunk sizes every capture is replayed at.
const CHUNKINGS: [usize; 3] = [1, 7, 64 * 1024];

fn rx_config() -> RxConfig {
    RxConfig::new(F_SW, 250e-6)
}

fn stream_receive(pieces: &[&[Complex]], cap: &Capture, blind: bool) -> Result<RxReport, RxError> {
    let mut rx = if blind {
        StreamingReceiver::new_blind(rx_config(), cap.sample_rate, cap.center_freq)?
    } else {
        StreamingReceiver::new(rx_config(), cap.sample_rate, cap.center_freq)?
    };
    for piece in pieces {
        rx.push(piece);
    }
    rx.finish()
}

fn stream_detect(pieces: &[&[Complex]], cap: &Capture) -> Result<DetectionReport, DetectError> {
    let mut det =
        StreamingDetector::new(DetectorConfig::new(F_SW), cap.sample_rate, cap.center_freq)?;
    for piece in pieces {
        det.push(piece);
    }
    det.finish()
}

/// `samples` split into fixed-size chunks.
fn fixed(samples: &[Complex], chunk: usize) -> Vec<&[Complex]> {
    samples.chunks(chunk).collect()
}

/// `samples` split into a mixed walk of chunk sizes (1 up to 4096),
/// so state carry-over cannot depend on a uniform chunking.
fn mixed(samples: &[Complex]) -> Vec<&[Complex]> {
    let mut pieces = Vec::new();
    let (mut i, mut step) = (0usize, 1usize);
    while i < samples.len() {
        let end = (i + step).min(samples.len());
        pieces.push(&samples[i..end]);
        i = end;
        step = (step * 3 + 1) % 4096 + 1;
    }
    pieces
}

#[test]
fn informed_receiver_is_bit_identical_to_batch_on_the_corpus() {
    let one_push = Receiver::new(rx_config());
    for (label, cap) in corpus() {
        let whole = one_push.receive(&cap);
        for chunk in CHUNKINGS {
            let streamed = stream_receive(&fixed(&cap.samples, chunk), &cap, false);
            assert_eq!(streamed, whole, "{label} diverged at chunk size {chunk}");
        }
    }
}

#[test]
fn blind_receiver_is_bit_identical_to_batch_on_the_corpus() {
    let one_push = Receiver::new(rx_config());
    for (label, cap) in corpus() {
        let whole = one_push.receive_blind(&cap);
        for chunk in CHUNKINGS {
            let streamed = stream_receive(&fixed(&cap.samples, chunk), &cap, true);
            assert_eq!(streamed, whole, "{label} (blind) diverged at chunk size {chunk}");
        }
    }
}

#[test]
fn keylog_detector_is_bit_identical_to_batch_on_the_corpus() {
    for (label, cap) in corpus() {
        let whole = StreamingDetector::detect(DetectorConfig::new(F_SW), &cap);
        for chunk in CHUNKINGS {
            let streamed = stream_detect(&fixed(&cap.samples, chunk), &cap);
            assert_eq!(streamed, whole, "{label} (keylog) diverged at chunk size {chunk}");
        }
    }
}

#[test]
fn streaming_survives_single_sample_pushes_interleaved_with_bulk() {
    // Mixed chunk sizes within ONE stream, for every machine.
    let rx = Receiver::new(rx_config());
    for (label, cap) in corpus() {
        let pieces = mixed(&cap.samples);
        assert_eq!(stream_receive(&pieces, &cap, false), rx.receive(&cap), "{label} (informed)");
        assert_eq!(stream_receive(&pieces, &cap, true), rx.receive_blind(&cap), "{label} (blind)");
        let whole = StreamingDetector::detect(DetectorConfig::new(F_SW), &cap);
        assert_eq!(stream_detect(&pieces, &cap), whole, "{label} (keylog)");
    }
}

#[test]
fn one_push_receiver_front_end_equals_the_sdr_kernel_chain() {
    let cfg = rx_config();
    let rx = Receiver::new(cfg.clone());
    let mut decoded = 0;
    for (label, cap) in corpus() {
        let oracle = batch_energy(&cfg, &cap);
        let dt = cfg.decimation as f64 / cap.sample_rate;
        match rx.receive(&cap) {
            Ok(report) => {
                let energy = oracle.as_ref().unwrap_or_else(|e| panic!("{label}: oracle: {e}"));
                assert_eq!(&report.energy, energy, "{label}: energy");
                let edge = batch_edge_response(energy, &cfg, dt, cfg.expected_bit_period_s);
                assert_eq!(report.edge_response, edge, "{label}: edge response");
                decoded += 1;
            }
            Err(RxError::Capture(e)) => assert_eq!(oracle, Err(e), "{label}: error"),
            Err(e) => panic!("{label}: unexpected {e}"),
        }
        // Blind: the same energy, and the edge kernel sized from the
        // period estimated over it (the prior when none stands out).
        if let Ok(report) = rx.receive_blind(&cap) {
            let energy = oracle.as_ref().expect("a blind decode implies a usable capture");
            let period = try_estimate_bit_period(energy, dt, 50e-6, 5e-3)
                .unwrap_or(cfg.expected_bit_period_s);
            assert_eq!(&report.energy, energy, "{label}: blind energy");
            assert_eq!(
                report.edge_response,
                batch_edge_response(energy, &cfg, dt, period),
                "{label}: blind edge response"
            );
        }
    }
    assert!(decoded >= 5, "the corpus must exercise the decode path, got {decoded}");
}

#[test]
fn one_push_keylog_window_energy_equals_the_stft_chain() {
    let cfg = DetectorConfig::new(F_SW);
    let mut detected = 0;
    for (label, cap) in corpus() {
        if let Ok(report) = StreamingDetector::detect(cfg.clone(), &cap) {
            assert_eq!(report.window_energy, batch_window_energy(&cfg, &cap), "{label}");
            detected += 1;
        }
    }
    assert!(detected >= 5, "the corpus must exercise detection, got {detected}");
}

#[test]
fn degenerate_sample_rates_error_identically() {
    // Every machine rejects a degenerate rate or an off-band tuning
    // at construction, with the same typed error the one-push entry
    // points report.
    for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        let cap = Capture { samples: noise(10_000, 3), sample_rate: rate, center_freq: F_SW };
        let expected = Err(RxError::Capture(CaptureError::InvalidSampleRate));
        assert_eq!(Receiver::new(rx_config()).receive(&cap), expected, "sample rate {rate}");
        for blind in [false, true] {
            assert_eq!(stream_receive(&[], &cap, blind), expected, "sample rate {rate}");
        }
        assert_eq!(
            StreamingDetector::new(DetectorConfig::new(F_SW), rate, F_SW).err(),
            Some(DetectError::Capture(CaptureError::InvalidSampleRate)),
            "keylog sample rate {rate} must be rejected at construction"
        );
    }
    let off = Capture { samples: noise(10_000, 3), sample_rate: FS, center_freq: 1e9 };
    assert_eq!(Receiver::new(rx_config()).receive(&off), Err(RxError::NoCarrier));
    assert!(matches!(
        StreamingReceiver::new_blind(rx_config(), off.sample_rate, off.center_freq),
        Err(RxError::NoCarrier)
    ));
}

#[test]
fn fused_tx_chain_is_bit_identical_at_any_block_size_and_thread_count() {
    // The TX-side mirror of the receiver contract above: the fused
    // producer (synth→AWGN→digitise per cache-resident block) must
    // reproduce a one-block run — the whole analog waveform rendered,
    // then digitised in one sweep — bit for bit at every block size
    // and worker count. A short trace keeps the deliberately
    // pathological 1-sample blocking affordable in debug builds.
    let laptop = Laptop::dell_inspiron();
    let chain = Chain::new(&laptop, Setup::ThroughWall);
    let program = Program::alternating(200e-6, 200e-6, 4, chain.machine.steady_state_ips());
    let trace = chain.machine.run(&program, 41);
    let capture = |block: usize| {
        let mut stream = ChainStream::with_block_samples(&chain, trace.clone(), 41, block);
        let mut samples = Vec::with_capacity(stream.total_samples());
        while let Some(b) = stream.next_block() {
            samples.extend_from_slice(b);
        }
        samples
    };
    let whole = with_threads(1, || capture(usize::MAX));
    for threads in [1usize, 3] {
        for block in [1usize, 7, 4096, FUSED_BLOCK] {
            let fused = with_threads(threads, || capture(block));
            assert_eq!(fused.len(), whole.len());
            for (i, (a, b)) in fused.iter().zip(&whole).enumerate() {
                assert!(
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                    "block {block}, {threads} threads: sample {i} differs"
                );
            }
        }
    }
}

#[test]
fn marker_deframer_is_chunk_oblivious_on_an_impaired_capture() {
    // End-to-end marker-coding mirror of the chunk-invariance
    // contract: a marker-coded frame is sent over the real chain, the
    // capture is corrupted with the severity-3 impairment stack (clock
    // drift, AGC step, dropped samples, burst, clipping), and then
    // BOTH layers must be chunk-oblivious — the chunked receiver must
    // reproduce the one-push demodulated bits, and the chunked
    // deframer fed those bits must reproduce the one-push
    // anchor-chain decode.
    use emsc_core::covert_run::CovertScenario;
    use emsc_covert::frame::try_deframe;
    use emsc_covert::marker::MarkerConfig;
    use emsc_covert::stream::{Deframer, FrameEvent};
    use emsc_sdr::impair::severity_stack;

    let laptop = Laptop::dell_inspiron();
    let chain = Chain::new(&laptop, Setup::NearField);
    let mut scenario = CovertScenario::for_laptop(&laptop, chain);
    scenario.tx.frame.marker = Some(MarkerConfig::standard());
    let payload = b"sync-robust marker coding";
    let outcome = scenario.run_impaired(payload, 23, &severity_stack(3), 7);
    let cap = &outcome.chain_run.capture;

    // Sample level: the streaming receiver on the impaired capture.
    for chunk in CHUNKINGS {
        let streamed =
            StreamingReceiver::new(scenario.rx.clone(), cap.sample_rate, cap.center_freq)
                .and_then(|mut rx| {
                    for c in cap.samples.chunks(chunk) {
                        rx.push(c);
                    }
                    rx.finish()
                })
                .expect("impaired capture still demodulates");
        assert_eq!(streamed, outcome.report, "receiver diverged at chunk size {chunk}");
    }

    // Bit level: the chunked deframer against one push of every bit.
    let batch = try_deframe(&outcome.report.bits, scenario.tx.frame, 1)
        .expect("severity 3 is within the marker code's budget");
    assert_eq!(&batch.payload, payload, "one-push decode must survive severity 3");
    for chunk in [1usize, 7, 64] {
        let mut d = Deframer::new(scenario.tx.frame, 1);
        let mut events = Vec::new();
        for c in outcome.report.bits.chunks(chunk) {
            events.extend(d.push(c));
        }
        events.extend(d.finish());
        let frames: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                FrameEvent::Frame(f) => Some(f),
                _ => None,
            })
            .collect();
        assert_eq!(frames.len(), 1, "bit chunk {chunk}: {events:?}");
        assert_eq!(*frames[0], batch, "deframer diverged at bit chunk size {chunk}");
    }
}

#[test]
fn empty_pushes_are_no_ops() {
    let (label, cap) = corpus().into_iter().find(|(l, _)| *l == "truncated-mid-frame").unwrap();
    let whole = Receiver::new(rx_config()).receive(&cap);
    let streamed =
        StreamingReceiver::new(rx_config(), cap.sample_rate, cap.center_freq).and_then(|mut rx| {
            rx.push(&[]);
            for c in cap.samples.chunks(777) {
                rx.push(c);
                rx.push(&[]);
            }
            rx.finish()
        });
    assert_eq!(streamed, whole, "{label} diverged with empty pushes");
}
