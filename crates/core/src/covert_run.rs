//! Covert-channel scenario runner: the one place a covert transfer is
//! built ([`CovertScenario::new`]), run ([`CovertScenario::run`] and
//! its twins) and scored (`CovertOutcome::score`, averaged over a row's
//! runs by `mean`).

use emsc_covert::coding::bytes_to_bits;
use emsc_covert::frame::{salvage_marker_bits, try_deframe, Deframed, FrameConfig};
use emsc_covert::metrics::{align_semiglobal, align_trace, AlignOp, Alignment};
use emsc_covert::rx::{Receiver, RxConfig, RxError, RxReport};
use emsc_covert::stream::StreamingReceiver;
use emsc_covert::tx::{Transmitter, TxConfig};
use emsc_pmu::trace::PowerTrace;
use emsc_pmu::workload::Program;
use emsc_sdr::impair::{apply_all, Impairment};

use crate::chain::{Chain, ChainRun};
use crate::fused::ChainStream;
use crate::laptop::{Laptop, Os};

/// Idle time the chain simulates before and after the transmission,
/// seconds. Keeps the receiver's windows primed and realistic.
pub const LEAD_SILENCE_S: f64 = 2e-3;

/// Busy warm-up the transmitter runs before the first bit, seconds —
/// locks the DVFS governor at its steady state so early bits are not
/// stretched by the ramp (an attacker calibrating LOOP_PERIOD on the
/// live machine gets this for free).
pub const WARMUP_S: f64 = 20e-3;

/// Shortest aligned match run of a *salvaged* stream that earns
/// delivery credit: two Hamming codewords. An optimal alignment of
/// garbage against the payload still matches ~half the bits, but in
/// runs of only a few bits — an unlucky salvage earns nothing, while
/// verbatim recovered segments (28-bit runs) are credited in full.
const MIN_CREDIT_RUN_BITS: usize = 14;

/// A complete covert-channel exchange and its scoring. `S` holds the
/// chain stages the run keeps: every intermediate stage for the batch
/// runs, nothing for [`CovertScenario::run_streamed`], whose capture
/// never existed as one buffer.
#[derive(Debug, Clone)]
pub struct CovertOutcome<S = ChainRun> {
    /// The bits that went on the air (framed and coded).
    pub tx_bits: Vec<u8>,
    /// The receiver's full report (energy signal, timings, bits, …).
    pub report: RxReport,
    /// Semi-global alignment of transmitted vs. received bits.
    pub alignment: Alignment,
    /// Deframed payload, if the marker was found.
    pub deframed: Option<Deframed>,
    /// The chain stages the run kept.
    pub chain_run: S,
    /// Measured transmission rate: on-air bits over the time they took.
    pub transmission_rate_bps: f64,
    /// Why the receiver failed, when it did. `None` for a successful
    /// decode (even an empty one); `Some` means `report` is the empty
    /// placeholder and every received-side metric counts the whole
    /// transmission as lost.
    pub rx_error: Option<RxError>,
}

impl<S> CovertOutcome<S> {
    /// Whether the exact payload was recovered.
    pub fn recovered(&self, payload: &[u8]) -> bool {
        self.deframed.as_ref().is_some_and(|d| d.payload == payload)
    }

    /// Scores this transfer of `payload`, sent in `frame`. The salvage
    /// runs at most once, and only when a score needs it: no deframed
    /// byte is right at its position, or the deframed frame carries no
    /// marker statistics.
    pub(crate) fn score(&self, payload: &[u8], frame: FrameConfig) -> TransferScore {
        let deframed = self.deframed.as_ref();
        let framed = deframed
            .map_or(0, |d| 8 * payload.iter().zip(&d.payload).filter(|(a, b)| a == b).count());
        let framed_marker = deframed.and_then(|d| d.marker);
        let salvage = if framed == 0 || framed_marker.is_none() {
            salvage_marker_bits(&self.report.bits, frame)
        } else {
            None
        };
        let delivered_bits = if framed > 0 {
            framed
        } else {
            salvage.as_ref().map_or(0, |s| salvage_run_credit(&bytes_to_bits(payload), &s.bits))
        };
        let marker = framed_marker.or_else(|| salvage.map(|s| s.stats));
        let rate_bps = self.transmission_rate_bps;
        TransferScore {
            ber: self.alignment.ber(),
            ip: self.alignment.insertion_probability(),
            dp: self.alignment.deletion_probability(),
            tr_bps: rate_bps,
            goodput_bps: goodput_bps(delivered_bits, rate_bps, self.tx_bits.len()),
            recovered: self.recovered(payload),
            rx_failed: self.rx_error.is_some(),
            delivered_bits,
            resyncs: marker.map_or(0, |s| s.resyncs),
            markers_missed: marker.map_or(0, |s| s.markers_missed),
            corrected: deframed.map_or(0, |d| d.coding.corrected),
        }
    }
}

/// How one covert transfer scored: the unit every covert experiment
/// averages over its runs ([`mean`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TransferScore {
    /// Bit-error rate (substitutions) of the on-air bits.
    pub ber: f64,
    /// Insertion probability.
    pub ip: f64,
    /// Deletion probability.
    pub dp: f64,
    /// Measured transmission rate, bits/second.
    pub tr_bps: f64,
    /// Payload bits delivered per second of air time: `delivered_bits`
    /// over the transfer's air time.
    pub goodput_bps: f64,
    /// Whether the exact payload was recovered.
    pub recovered: bool,
    /// Whether the receiver could not decode the capture at all (a
    /// typed `RxError`; the alignment then counts every bit as lost).
    pub rx_failed: bool,
    /// Payload bits genuinely delivered. A deframed payload claims
    /// positional integrity, so it earns 8 bits per byte that is right
    /// at its index: a spurious marker match that deframes a shifted
    /// read earns nothing, as any checksum would reject it. When no
    /// byte is right, a marker-coded frame's blind salvage
    /// ([`salvage_marker_bits`]) earns its aligned match runs of at
    /// least two Hamming codewords; a rigid frame has no salvage.
    pub delivered_bits: usize,
    /// Marker-decoder resynchronisations (recovered indel events), from
    /// the deframed frame or else the salvage.
    pub resyncs: usize,
    /// Markers the decoder had to skip.
    pub markers_missed: usize,
    /// Hamming codewords with a nonzero syndrome in the deframed frame.
    pub corrected: usize,
}

/// The mean of `field` over a row's transfer scores. The sum runs
/// serially in the order given (run order), so a row is bit-identical
/// at any worker count.
pub(crate) fn mean(scores: &[TransferScore], field: impl Fn(&TransferScore) -> f64) -> f64 {
    scores.iter().map(field).fold(0.0, |sum, x| sum + x) / scores.len().max(1) as f64
}

/// `delivered_bits` per second of air: the transfer ran at `rate_bps`
/// and put `airtime_bits` on the air.
fn goodput_bps(delivered_bits: usize, rate_bps: f64, airtime_bits: usize) -> f64 {
    if airtime_bits == 0 {
        0.0
    } else {
        delivered_bits as f64 * rate_bps / airtime_bits as f64
    }
}

/// Salvage credit: total length of aligned match runs of at least
/// [`MIN_CREDIT_RUN_BITS`] between the payload and the salvaged bits.
fn salvage_run_credit(tx_payload: &[u8], salvaged: &[u8]) -> usize {
    if salvaged.is_empty() {
        return 0;
    }
    let mut credit = 0usize;
    let mut run = 0usize;
    for op in align_trace(tx_payload, salvaged) {
        if matches!(op, AlignOp::Match) {
            run += 1;
        } else {
            if run >= MIN_CREDIT_RUN_BITS {
                credit += run;
            }
            run = 0;
        }
    }
    if run >= MIN_CREDIT_RUN_BITS {
        credit += run;
    }
    credit
}

/// Runs one covert transfer over a chain.
#[derive(Debug, Clone)]
pub struct CovertScenario {
    /// The physical chain.
    pub chain: Chain,
    /// Transmitter parameters.
    pub tx: TxConfig,
    /// Receiver parameters.
    pub rx: RxConfig,
}

impl CovertScenario {
    /// A transfer with transmitter `tx` over `chain`, and the batch
    /// receiver primed with the bit period `tx` produces on the
    /// chain's machine.
    pub fn new(chain: Chain, tx: TxConfig) -> Self {
        let rx =
            RxConfig::new(chain.switching_freq_hz(), tx.expected_bit_period_on(&chain.machine));
        CovertScenario { chain, tx, rx }
    }

    /// The laptop's calibrated transmitter (§IV-C1 timing for its OS)
    /// with both phases stretched by `stretch`, the way the paper backs
    /// the rate off to hold BER over longer links, and the receiver
    /// [`CovertScenario::new`] primes for it. The per-bit overhead does
    /// not stretch.
    pub fn backed_off(laptop: &Laptop, chain: Chain, stretch: f64) -> Self {
        let tx = TxConfig::calibrated(
            &chain.machine,
            laptop.tx_active_period_s() * stretch,
            laptop.tx_sleep_period_s() * stretch,
            laptop.tx_overhead_s(),
        );
        CovertScenario::new(chain, tx)
    }

    /// The standard scenario for a laptop: the calibrated transmitter
    /// at its native rate and the batch receiver primed with the
    /// expected bit period.
    pub fn for_laptop(laptop: &Laptop, chain: Chain) -> Self {
        let mut scenario = CovertScenario::backed_off(laptop, chain, 1.0);
        if laptop.os == Os::Windows {
            // Windows bits are millisecond-scale: a narrower edge
            // kernel resolves the wake+housekeeping blip at 0-bit
            // starts, and the higher peak bar rejects interrupt wakes
            // (which lack the heavy Sleep-call housekeeping).
            scenario.rx.edge_kernel_fraction = 0.2;
            scenario.rx.peak_threshold_frac = 0.45;
            // First-pass coverage is near-total at millisecond bits;
            // the second pass would mostly admit interrupt bumps.
            scenario.rx.gap_fill = false;
        }
        scenario
    }

    /// Transmits `payload` and demodulates it; deterministic per seed.
    pub fn run(&self, payload: &[u8], seed: u64) -> CovertOutcome {
        self.run_impaired(payload, seed, &[], 0)
    }

    /// Like [`CovertScenario::run`], but corrupts the capture with the
    /// given channel impairments (via [`emsc_sdr::impair::apply_all`]
    /// under `impair_seed`) before handing it to the receiver. With an
    /// empty impairment list this is exactly [`CovertScenario::run`].
    pub fn run_impaired(
        &self,
        payload: &[u8],
        seed: u64,
        impairments: &[Impairment],
        impair_seed: u64,
    ) -> CovertOutcome {
        let tx_bits = Transmitter::new(self.tx).on_air_bits(payload);
        let trace = self.chain.machine.run(&self.transfer_program(&tx_bits), seed);
        self.run_trace(tx_bits, trace, seed, impairments, impair_seed)
    }

    /// A transfer of `tx_bits` from its power trace on: `trace` through
    /// the chain under `seed`, the impairments, the batch receiver, the
    /// alignment, deframing and the rate. [`CovertScenario::run_impaired`]
    /// feeds it the PMU run of [`CovertScenario::transfer_program`];
    /// the §IV-C2 hog rows feed it that program run beside a hog on a
    /// second core.
    pub(crate) fn run_trace(
        &self,
        tx_bits: Vec<u8>,
        trace: PowerTrace,
        seed: u64,
        impairments: &[Impairment],
        impair_seed: u64,
    ) -> CovertOutcome {
        let mut chain_run = self.chain.run_trace(trace, seed);
        apply_all(&mut chain_run.capture, impairments, impair_seed);
        let received = Receiver::new(self.rx.clone()).receive(&chain_run.capture);
        let trace_s = chain_run.trace.duration_s();
        self.outcome(tx_bits, received, trace_s, chain_run)
    }

    /// [`CovertScenario::run`] without ever materialising the capture:
    /// the fused chain ([`ChainStream`]) digitises block by
    /// block into the chunk-oblivious [`StreamingReceiver`], so the
    /// run's peak resident sample count is the analog arena plus one
    /// block instead of analog + capture. Bit-identical metrics to the
    /// unimpaired batch path for the same `(payload, seed)`.
    pub fn run_streamed(&self, payload: &[u8], seed: u64) -> CovertOutcome<()> {
        let tx_bits = Transmitter::new(self.tx).on_air_bits(payload);
        let trace = self.chain.machine.run(&self.transfer_program(&tx_bits), seed);
        let mut stream = ChainStream::new(&self.chain, trace, seed);
        let sample_rate = self.chain.frontend.sample_rate;
        let center_freq = self.chain.frontend.center_freq;
        // A failure counts whether it surfaces at construction (bad
        // config / rate / carrier) or at finish.
        let received = StreamingReceiver::new(self.rx.clone(), sample_rate, center_freq).and_then(
            |mut receiver| {
                while let Some(block) = stream.next_block() {
                    receiver.push(block);
                }
                receiver.finish()
            },
        );
        let (trace, _train) = stream.into_trace_train();
        self.outcome(tx_bits, received, trace.duration_s(), ())
    }

    /// Transmits a raw, already-framed bit sequence (e.g. the output
    /// of [`emsc_covert::packets::packetize`]) and returns the
    /// receiver report (the empty report when the capture cannot be
    /// decoded). No deframing is attempted — the caller owns the
    /// framing.
    pub fn run_bits(&self, bits: &[u8], seed: u64) -> RxReport {
        let chain_run = self.chain.run_program(&self.transfer_program(bits), seed);
        let receiver = Receiver::new(self.rx.clone());
        receiver.receive(&chain_run.capture).unwrap_or_else(|_| RxReport::empty(0.0))
    }

    /// The received side of a transfer of `tx_bits` whose trace lasted
    /// `trace_s` seconds: the alignment, deframing and rate of what the
    /// receiver returned. A decode failure (truncated / corrupt /
    /// carrier-less capture) becomes the empty report plus its error,
    /// so the scenario still yields an outcome — the grid cell records
    /// the error instead of panicking the whole experiment. The rate
    /// is the on-air bits over the trace less the lead silences and the
    /// warm-up.
    fn outcome<S>(
        &self,
        tx_bits: Vec<u8>,
        received: Result<RxReport, RxError>,
        trace_s: f64,
        chain_run: S,
    ) -> CovertOutcome<S> {
        let (report, rx_error) = match received {
            Ok(report) => (report, None),
            Err(e) => (RxReport::empty(0.0), Some(e)),
        };
        let alignment = align_semiglobal(&tx_bits, &report.bits);
        let deframed = try_deframe(&report.bits, self.tx.frame, 1).ok();
        let air_time = trace_s - 2.0 * LEAD_SILENCE_S - WARMUP_S;
        let transmission_rate_bps =
            if air_time > 0.0 { tx_bits.len() as f64 / air_time } else { 0.0 };
        CovertOutcome {
            tx_bits,
            report,
            alignment,
            deframed,
            chain_run,
            transmission_rate_bps,
            rx_error,
        }
    }

    /// The PMU program of a transfer of `bits`: lead silence, the
    /// governor warm-up, the bits, lead silence.
    pub(crate) fn transfer_program(&self, bits: &[u8]) -> Program {
        let mut program = Program::new();
        program.sleep(LEAD_SILENCE_S);
        program.busy(self.chain.machine.iterations_for_duration(WARMUP_S));
        program.extend(Transmitter::new(self.tx).program_for_bits(bits).ops().iter().copied());
        program.sleep(LEAD_SILENCE_S);
        program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Setup;

    #[test]
    fn near_field_transfer_recovers_payload() {
        let laptop = Laptop::dell_inspiron();
        let chain = Chain::new(&laptop, Setup::NearField);
        let scenario = CovertScenario::for_laptop(&laptop, chain);
        let payload = b"attack at dawn";
        let outcome = scenario.run(payload, 2024);
        assert!(
            outcome.recovered(payload),
            "payload not recovered: {:?} (BER {:.4}, ins {}, del {})",
            outcome.deframed,
            outcome.alignment.ber(),
            outcome.alignment.insertions,
            outcome.alignment.deletions
        );
        // Short transfers spend a larger fraction of their bits in the
        // DVFS warm-up region, so the BER bound is looser than the
        // long-stream Table II numbers.
        assert!(outcome.alignment.ber() < 0.06, "BER {}", outcome.alignment.ber());
        assert!(outcome.rx_error.is_none(), "unexpected decode failure: {:?}", outcome.rx_error);
    }

    #[test]
    fn streamed_run_matches_batch_run_metrics() {
        use emsc_covert::marker::MarkerConfig;
        let laptop = Laptop::dell_inspiron();
        let chain = Chain::new(&laptop, Setup::NearField);
        let rigid = CovertScenario::for_laptop(&laptop, chain);
        let mut marker = rigid.clone();
        marker.tx.frame.marker = Some(MarkerConfig::standard());
        let payload = b"streamed==batch";
        for scenario in [rigid, marker] {
            let batch = scenario.run(payload, 31);
            let streamed = scenario.run_streamed(payload, 31);
            assert_eq!(streamed.tx_bits, batch.tx_bits);
            assert_eq!(streamed.report.bits, batch.report.bits);
            let frame = scenario.tx.frame;
            assert_eq!(streamed.score(payload, frame), batch.score(payload, frame));
            assert!(streamed.recovered(payload));
            assert!(streamed.rx_error.is_none());
        }
    }

    #[test]
    fn severity_zero_is_bit_identical_to_the_unimpaired_run() {
        // Severity 0 is the empty stack, so an impaired run at it must
        // be *exactly* the unimpaired run — same capture bits, same
        // decode — for any impair seed.
        use emsc_sdr::impair::severity_stack;
        let laptop = Laptop::dell_inspiron();
        let chain = Chain::new(&laptop, Setup::NearField);
        let scenario = CovertScenario::for_laptop(&laptop, chain);
        let clean = scenario.run(b"severity-zero", 31);
        let impaired = scenario.run_impaired(b"severity-zero", 31, &severity_stack(0), 0xABCD);
        assert!(clean
            .chain_run
            .capture
            .samples
            .iter()
            .zip(&impaired.chain_run.capture.samples)
            .all(|(a, b)| a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()));
        assert_eq!(clean.report.bits, impaired.report.bits);
        assert_eq!(clean.rx_error, impaired.rx_error);
    }

    #[test]
    fn unix_laptop_reaches_kbps_class_rates() {
        let laptop = Laptop::macbook_pro_2015();
        let chain = Chain::new(&laptop, Setup::NearField);
        let scenario = CovertScenario::for_laptop(&laptop, chain);
        let outcome = scenario.run(b"0123456789abcdef", 11);
        assert!(outcome.transmission_rate_bps > 2000.0, "TR {}", outcome.transmission_rate_bps);
    }

    #[test]
    fn windows_laptop_is_much_slower() {
        let unix = {
            let l = Laptop::dell_inspiron();
            let s = CovertScenario::for_laptop(&l, Chain::new(&l, Setup::NearField));
            s.run(b"windows-vs-unix", 5).transmission_rate_bps
        };
        let win = {
            let l = Laptop::dell_precision();
            let s = CovertScenario::for_laptop(&l, Chain::new(&l, Setup::NearField));
            s.run(b"windows-vs-unix", 5).transmission_rate_bps
        };
        assert!(win < 1300.0, "windows TR {win}");
        assert!(unix > 2.0 * win, "unix {unix} vs windows {win}");
    }

    #[test]
    fn transfer_alignments_are_pinned() {
        // The exact counts that score three real transfers, so that a
        // rewrite of the alignment that takes another co-optimal path
        // fails here. Two Table II cells at the paper's 96 bytes (run 0
        // of seed 2 and seed 3), and an E6 marker-coded transfer under
        // the severity-3 impairments; each error kind is nonzero in
        // every case.
        use crate::experiments::tables::pseudo_payload;
        use emsc_covert::marker::MarkerConfig;
        use emsc_sdr::impair::severity_stack;
        let pinned = |matches, substitutions, insertions, deletions| Alignment {
            matches,
            substitutions,
            insertions,
            deletions,
        };
        let table2 = |laptop: Laptop, seed: u64| {
            let scenario =
                CovertScenario::for_laptop(&laptop, Chain::new(&laptop, Setup::NearField));
            scenario.run_streamed(&pseudo_payload(96, seed), seed).alignment
        };
        assert_eq!(table2(Laptop::dell_inspiron(), 2), pinned(1434, 1, 1, 1), "Unix");
        assert_eq!(table2(Laptop::dell_precision(), 3), pinned(1431, 2, 13, 3), "Windows");
        let laptop = Laptop::dell_inspiron();
        let mut marker = CovertScenario::for_laptop(&laptop, Chain::new(&laptop, Setup::NearField));
        marker.tx.frame.marker = Some(MarkerConfig::standard());
        let e6 = marker.run_impaired(&pseudo_payload(96, 3), 3, &severity_stack(3), 80).alignment;
        assert_eq!(e6, pinned(1773, 1, 3, 5), "E6 marker-coded, severity 3");
    }
}
