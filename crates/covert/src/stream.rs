//! Streaming receive chain: resumable acquisition → symbol-sync →
//! demod → deframe stages fed IQ in chunks.
//!
//! The paper's receiver runs *live*: the SDR produces I/Q continuously
//! and the attacker demodulates while samples arrive. These state
//! machines are the only receive implementation: they carry their
//! state (sliding-DFT window, decimation phase, smoothing prefix,
//! convolution ring, marker-scan position) across chunk boundaries,
//! and the whole-capture entry points
//! ([`Receiver::receive`](crate::rx::Receiver::receive),
//! [`Receiver::receive_blind`](crate::rx::Receiver::receive_blind),
//! [`try_deframe`](crate::frame::try_deframe)) are one push of the
//! whole input followed by `finish`. Their contract is chunk
//! invariance: every chunking of a stream yields the same result as
//! one push.
//!
//! - [`StreamingReceiver`] — IQ chunks in, a final [`RxReport`] out.
//!   The per-sample front end (energy, smoothing, edge convolution)
//!   runs incrementally with O(kernel) state; only the decision stages
//!   (peak timing, thresholds), which are global by construction in
//!   §IV-B, run at [`StreamingReceiver::finish`] over the accumulated
//!   energy signal (`decode_from_energy`).
//! - [`Deframer`] — demodulated bits in, [`FrameEvent`]s out. Commits
//!   to the first exact start marker as soon as it appears and then
//!   emits each frame the moment its declared length is on hand, so
//!   payloads surface mid-stream; inexact candidates are resolved at
//!   [`Deframer::finish`] by the earliest-minimum rule (rigid frames)
//!   or the ranked anchor chain (marker-coded frames). It keeps
//!   scanning after a frame, so a long-running session can recover a
//!   *sequence* of frames.
//!
//! Typed errors ([`RxError`], [`FrameError`]) are per-stream values,
//! never panics, so one poisoned stream in a multi-tenant session can
//! never take down its neighbours.

use emsc_sdr::dsp::{convolve_same, edge_kernel};
use emsc_sdr::error::CaptureError;
use emsc_sdr::iq::Complex;
use emsc_sdr::stream::{ConvolveSameStream, EnergyStream, SmoothStream};

use crate::frame::{
    body_span, decode_rigid_body, header_span, lattice_score, lattice_window, marker_errors_at,
    peek_declared, peek_declared_rigid, peek_need, ranked_marker_anchors, rigid_body_span,
    Deframed, FrameConfig, FrameError, LATTICE_EXTRA_TOLERANCE, LATTICE_PROBE_MARKERS,
    START_MARKER,
};
use crate::marker::{segments_for, MarkerConfig, MarkerStream};
use crate::rx::{
    carrier_bins_for, decode_from_energy, edge_kernel_fits, edge_kernel_len,
    try_estimate_bit_period, validate, RxConfig, RxError, RxReport, SyncLoss,
};

/// Width of the energy moving average.
const SMOOTH_WIDTH: usize = 3;
/// Plausible covert bit periods for blind estimation, seconds.
const BLIND_MIN_PERIOD_S: f64 = 50e-6;
const BLIND_MAX_PERIOD_S: f64 = 5e-3;

/// Per-push progress counters from a [`StreamingReceiver`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RxProgress {
    /// Decimated energy samples completed by this chunk.
    pub energy_samples: usize,
    /// Edge-response samples completed by this chunk (always 0 in
    /// blind mode, where the kernel length is only known at finish).
    pub edge_samples: usize,
    /// Non-finite input samples sanitised in this chunk.
    pub sanitized_samples: usize,
}

/// The incremental covert-channel receiver.
///
/// Feed IQ with [`StreamingReceiver::push`]; call
/// [`StreamingReceiver::finish`] at end of stream for the
/// [`RxReport`]. Construction validates in this precedence order:
/// configuration errors first, then the sample rate, then carrier
/// presence.
#[derive(Debug, Clone)]
pub struct StreamingReceiver {
    config: RxConfig,
    dt: f64,
    blind: bool,
    front: EnergyStream,
    smoother: SmoothStream,
    /// Edge convolver (informed mode only: blind mode cannot size the
    /// kernel until the bit period is estimated at finish).
    conv: Option<ConvolveSameStream>,
    energy: Vec<f64>,
    edge: Vec<f64>,
    raw_scratch: Vec<f64>,
    sync_loss: Option<SyncLoss>,
    finished: bool,
}

impl StreamingReceiver {
    /// Creates an *informed* streaming receiver (bit period from
    /// configuration).
    ///
    /// # Errors
    ///
    /// [`RxError::InvalidConfig`], [`RxError::Capture`]
    /// (`InvalidSampleRate`: a rate that is not positive and finite,
    /// or so high that the edge kernel would exceed
    /// [`MAX_EDGE_KERNEL_TAPS`](crate::rx::MAX_EDGE_KERNEL_TAPS) taps)
    /// or [`RxError::NoCarrier`], in that order.
    pub fn new(config: RxConfig, sample_rate: f64, center_freq: f64) -> Result<Self, RxError> {
        Self::build(config, sample_rate, center_freq, false)
    }

    /// Creates a *blind* streaming receiver (bit period estimated from
    /// the stream at finish).
    ///
    /// # Errors
    ///
    /// As [`StreamingReceiver::new`]; the edge-kernel bound is checked
    /// at the longer of the configured period and the estimator's
    /// 5 ms ceiling.
    pub fn new_blind(
        config: RxConfig,
        sample_rate: f64,
        center_freq: f64,
    ) -> Result<Self, RxError> {
        Self::build(config, sample_rate, center_freq, true)
    }

    fn build(
        config: RxConfig,
        sample_rate: f64,
        center_freq: f64,
        blind: bool,
    ) -> Result<Self, RxError> {
        validate(&config)?;
        if !(sample_rate > 0.0 && sample_rate.is_finite()) {
            return Err(RxError::Capture(CaptureError::InvalidSampleRate));
        }
        let dt = config.decimation as f64 / sample_rate;
        // A blind finish sizes the kernel from an estimate of at most
        // BLIND_MAX_PERIOD_S, or from the configured prior.
        let longest_period = if blind {
            config.expected_bit_period_s.max(BLIND_MAX_PERIOD_S)
        } else {
            config.expected_bit_period_s
        };
        if !edge_kernel_fits(&config, longest_period, dt) {
            return Err(RxError::Capture(CaptureError::InvalidSampleRate));
        }
        let bins = carrier_bins_for(&config, sample_rate, center_freq);
        if bins.is_empty() {
            return Err(RxError::NoCarrier);
        }
        let front = EnergyStream::new(config.fft_size, &bins, config.decimation)?;
        let conv = if blind {
            None
        } else {
            Some(ConvolveSameStream::new(&edge_kernel(edge_kernel_len(&config, dt))))
        };
        Ok(StreamingReceiver {
            config,
            dt,
            blind,
            front,
            smoother: SmoothStream::new(SMOOTH_WIDTH),
            conv,
            energy: Vec::new(),
            edge: Vec::new(),
            raw_scratch: Vec::new(),
            sync_loss: None,
            finished: false,
        })
    }

    /// Why symbol sync fell back to the configured prior, if blind
    /// estimation failed at [`StreamingReceiver::finish`].
    pub fn sync_loss(&self) -> Option<SyncLoss> {
        self.sync_loss
    }

    /// Feeds one chunk of IQ samples. Steady-state allocation-free:
    /// all per-sample state lives in fixed-size rings, and the
    /// accumulated energy/edge vectors grow amortised.
    pub fn push(&mut self, chunk: &[Complex]) -> RxProgress {
        let sanitized_before = self.front.sanitized();
        self.raw_scratch.clear();
        self.front.push_into(chunk, &mut self.raw_scratch);
        let smoothed_from = self.energy.len();
        self.smoother.push_into(&self.raw_scratch, &mut self.energy);
        let energy_samples = self.energy.len() - smoothed_from;
        let edge_samples = match &mut self.conv {
            Some(conv) => conv.push_into(&self.energy[smoothed_from..], &mut self.edge),
            None => 0,
        };
        RxProgress {
            energy_samples,
            edge_samples,
            sanitized_samples: self.front.sanitized() - sanitized_before,
        }
    }

    /// Ends the stream and runs the decision stages over the
    /// accumulated energy signal.
    ///
    /// # Errors
    ///
    /// [`RxError::Capture`] with the end-of-stream classification
    /// (empty, too short for one window, majority-non-finite), or
    /// [`RxError::InvalidConfig`] if a blind-estimated period is
    /// degenerate.
    pub fn finish(&mut self) -> Result<RxReport, RxError> {
        assert!(!self.finished, "finish() may only be called once");
        self.finished = true;
        self.front.classify()?;
        let tail_from = self.energy.len();
        self.smoother.finish_into(&mut self.energy);
        let sanitized = self.front.sanitized();
        if self.blind {
            // Estimate the period over the whole smoothed energy
            // signal, fall back to the prior, re-validate the tuned
            // configuration, then size the edge kernel from it and
            // decode. Only the bit period changed, so the energy
            // signal accumulated here is already the tuned one.
            let estimated = match try_estimate_bit_period(
                &self.energy,
                self.dt,
                BLIND_MIN_PERIOD_S,
                BLIND_MAX_PERIOD_S,
            ) {
                Ok(period) => period,
                Err(loss) => {
                    self.sync_loss = Some(loss);
                    self.config.expected_bit_period_s
                }
            };
            let tuned = RxConfig { expected_bit_period_s: estimated, ..self.config.clone() };
            validate(&tuned)?;
            let energy = std::mem::take(&mut self.energy);
            let edge = convolve_same(&energy, &edge_kernel(edge_kernel_len(&tuned, self.dt)));
            Ok(decode_from_energy(&tuned, energy, edge, self.dt, sanitized))
        } else {
            let conv = self.conv.as_mut().expect("informed mode has a convolver");
            conv.push_into(&self.energy[tail_from..], &mut self.edge);
            conv.finish_into(&mut self.edge);
            let energy = std::mem::take(&mut self.energy);
            let edge = std::mem::take(&mut self.edge);
            Ok(decode_from_energy(&self.config, energy, edge, self.dt, sanitized))
        }
    }
}

/// An event from the streaming [`Deframer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameEvent {
    /// A start marker was accepted at the given absolute bit position
    /// (with this many marker-bit errors).
    MarkerFound {
        /// Absolute bit index of the marker's first bit.
        position: usize,
        /// Marker bits that mismatched (0 for an exact lock).
        errors: usize,
    },
    /// A frame decoded. `payload_start` is the absolute bit index of
    /// its body in the whole stream.
    Frame(Deframed),
    /// The stream ended without (or inside) a frame.
    Lost(FrameError),
}

/// Incremental deframer: push demodulated bits, collect
/// [`FrameEvent`]s.
///
/// The marker scan and body decode run online, except for rigid
/// interleaved frames: their body is deinterleaved whole and the final
/// interleaver block depends on the last bit of the stream, so with
/// `interleave_depth` set (and no marker code) the deframer buffers
/// until [`Deframer::finish`].
#[derive(Debug, Clone)]
pub struct Deframer {
    config: FrameConfig,
    max_marker_errors: usize,
    bits: Vec<u8>,
    /// Absolute bit index of `bits[0]` (bits of emitted frames are
    /// dropped; positions stay absolute across the whole stream).
    base: usize,
    /// Next unscanned relative position for the marker search.
    scanned: usize,
    /// Best inexact candidate so far: `(errors, relative position)`.
    best: Option<(usize, usize)>,
    /// Committed (exact) marker, relative position.
    committed: Option<usize>,
    /// Incremental marker-code decoder for the committed frame's body
    /// (marker-coded frames only).
    marker_rx: Option<MarkerRx>,
    frames_emitted: usize,
    finished: bool,
}

/// Incremental recovery of a marker-coded frame body: first enough
/// segments to peek the declared length, then exactly the declared
/// body. The push path pumps it as bits arrive; [`Deframer::finish`]
/// pumps it over the rest of the stream.
#[derive(Debug, Clone)]
struct MarkerRx {
    ms: MarkerStream,
    rigid: Vec<u8>,
    /// Body-relative bits already fed to the marker decoder.
    fed: usize,
    declared: Option<usize>,
}

impl MarkerRx {
    fn new(mcfg: MarkerConfig) -> Self {
        MarkerRx { ms: MarkerStream::new(mcfg), rigid: Vec::new(), fed: 0, declared: None }
    }

    /// Feeds any new body bits and pumps segments as far as they can
    /// be decided. Returns `true` once the rigid body is complete
    /// (always, at end of stream, once the declared length is known).
    fn pump(&mut self, body: &[u8], config: FrameConfig, end_of_stream: bool) -> bool {
        if self.fed < body.len() {
            self.ms.push(&body[self.fed..]);
            self.fed = body.len();
        }
        let s = self.ms.config().segment_len;
        if self.declared.is_none() {
            let need = peek_need(config);
            while self.rigid.len() < need && self.ms.next_segment(&mut self.rigid, end_of_stream) {}
            if self.rigid.len() < need && !end_of_stream {
                return false;
            }
            self.declared = peek_declared_rigid(&self.rigid, config);
        }
        let Some(declared) = self.declared else {
            // Stream exhausted inside the header; nothing more can
            // resolve (end of stream only).
            return end_of_stream;
        };
        let want = segments_for(self.ms.config(), rigid_body_span(config, declared)) * s;
        self.ms.expect_segments(want / s);
        while self.rigid.len() < want && self.ms.next_segment(&mut self.rigid, end_of_stream) {}
        self.rigid.len() >= want || end_of_stream
    }

    /// Decodes the pumped rigid body. A body cut short by the end of
    /// the stream is zero-padded to its declared length so the rigid
    /// grid keeps its nominal length — unless less than half of it
    /// ever arrived: genuine truncation still materialises most of
    /// its declared segments, so then the header was garbage (a
    /// spurious lock or a destroyed header), not a frame.
    fn decode(mut self, config: FrameConfig, payload_start: usize) -> Result<Deframed, FrameError> {
        let declared = self.declared.ok_or(FrameError::TruncatedHeader)?;
        let want = segments_for(self.ms.config(), rigid_body_span(config, declared))
            * self.ms.config().segment_len;
        let mut stats = self.ms.stats();
        if self.rigid.len() < want {
            if self.rigid.len() * 2 < want {
                return Err(FrameError::ImplausibleLength { declared });
            }
            stats.truncated_bits += want - self.rigid.len();
            self.rigid.resize(want, 0);
        }
        self.rigid.truncate(want);
        Ok(decode_rigid_body(&self.rigid, config)?.into_deframed(payload_start, Some(stats)))
    }

    /// Received body bits consumed by the emitted segments.
    fn consumed(&self) -> usize {
        self.ms.consumed_bits()
    }
}

impl Deframer {
    /// Creates a deframer tolerating up to `max_marker_errors` bit
    /// errors in the start marker.
    pub fn new(config: FrameConfig, max_marker_errors: usize) -> Self {
        Deframer {
            config,
            max_marker_errors,
            bits: Vec::new(),
            base: 0,
            scanned: 0,
            best: None,
            committed: None,
            marker_rx: None,
            frames_emitted: 0,
            finished: false,
        }
    }

    /// Frames emitted so far.
    pub fn frames_emitted(&self) -> usize {
        self.frames_emitted
    }

    /// Rigid interleaved frames are resolved only at finish (see the
    /// type docs).
    fn rigid_interleaved(&self) -> bool {
        self.config.interleave_depth.is_some() && self.config.parity && self.config.marker.is_none()
    }

    /// Feeds demodulated bits, returning any events they complete.
    pub fn push(&mut self, new_bits: &[u8]) -> Vec<FrameEvent> {
        self.bits.extend_from_slice(new_bits);
        if self.rigid_interleaved() {
            return Vec::new();
        }
        let mut events = Vec::new();
        loop {
            if self.committed.is_none() {
                self.scan_for_marker(&mut events);
            }
            let Some(pos) = self.committed else { break };
            let body_at = pos + START_MARKER.len();
            if let Some(mcfg) = self.config.marker {
                // Marker-coded body: the incremental drift-tracking
                // decoder peeks the declared length and completes the
                // frame as soon as every alignment window is on hand.
                let mrx = self.marker_rx.get_or_insert_with(|| MarkerRx::new(mcfg));
                if !mrx.pump(&self.bits[body_at..], self.config, false) {
                    break;
                }
                let mrx = self.marker_rx.take().expect("pumped above");
                let consumed = mrx.consumed().min(self.bits.len() - body_at);
                let frame =
                    mrx.decode(self.config, self.base + body_at).expect("declared length resolved");
                events.push(FrameEvent::Frame(frame));
                self.frames_emitted += 1;
                self.bits.drain(..body_at + consumed);
                self.base += body_at + consumed;
                self.scanned = 0;
                self.best = None;
                self.committed = None;
                continue;
            }
            // Emit the frame as soon as the declared body is on hand.
            let available = self.bits.len() - body_at;
            let Some(declared) = peek_declared(&self.bits[body_at..], self.config) else {
                break;
            };
            let needed = header_span(self.config) + body_span(self.config, declared);
            if available < needed {
                break;
            }
            let span = &self.bits[body_at..body_at + needed];
            let body = decode_rigid_body(span, self.config).expect("complete header span decodes");
            events.push(FrameEvent::Frame(body.into_deframed(self.base + body_at, None)));
            self.frames_emitted += 1;
            // Rebase past the consumed frame and keep scanning: a
            // long-running session sees a *sequence* of frames.
            self.bits.drain(..body_at + needed);
            self.base += body_at + needed;
            self.scanned = 0;
            self.best = None;
            self.committed = None;
        }
        events
    }

    fn scan_for_marker(&mut self, events: &mut Vec<FrameEvent>) {
        let m = START_MARKER.len();
        if self.bits.len() < m {
            return;
        }
        if let Some(mcfg) = self.config.marker {
            // Marker-coded frames rank anchors by segment-marker
            // lattice score (see `ranked_marker_anchors`). A
            // candidate's score is final only once its whole probe
            // window is buffered, so scan decidable positions and
            // commit at the first candidate no later position can
            // outrank — an un-aliased, fully *exact* lattice with an
            // exact start marker, the unique maximum of the ranking.
            // Anything weaker is resolved at finish() by the ranked
            // chain over the full buffer.
            let window = m + lattice_window(mcfg);
            while self.scanned + window <= self.bits.len() {
                let pos = self.scanned;
                self.scanned += 1;
                let errors = marker_errors_at(&self.bits, pos);
                if errors > self.max_marker_errors + LATTICE_EXTRA_TOLERANCE {
                    continue;
                }
                let score = lattice_score(&self.bits, pos + m, mcfg);
                if errors == 0 && score.exact == LATTICE_PROBE_MARKERS && !score.aliased {
                    self.committed = Some(pos);
                    events.push(FrameEvent::MarkerFound { position: self.base + pos, errors: 0 });
                    return;
                }
            }
            return;
        }
        // Rigid frames: the earliest minimum-error marker within the
        // tolerance. An exact match can never be beaten, so commit to
        // it at once and let the frame stream out.
        for pos in self.scanned..=self.bits.len() - m {
            let errors = marker_errors_at(&self.bits, pos);
            if errors <= self.max_marker_errors && self.best.is_none_or(|(e, _)| errors < e) {
                self.best = Some((errors, pos));
                if errors == 0 {
                    self.committed = Some(pos);
                    events.push(FrameEvent::MarkerFound { position: self.base + pos, errors: 0 });
                    self.scanned = pos + 1;
                    return;
                }
            }
        }
        self.scanned = self.bits.len() - m + 1;
    }

    /// Ends the stream, resolving what the push path left open. A
    /// rigid stream decodes from the committed exact marker, else from
    /// the earliest minimum-error one, as far as the body goes. A
    /// marker-coded stream runs the ranked anchor chain over the
    /// unresolved tail. A stream with no marker (and no frames already
    /// emitted) reports [`FrameError::MarkerNotFound`].
    pub fn finish(&mut self) -> Vec<FrameEvent> {
        assert!(!self.finished, "finish() may only be called once");
        self.finished = true;
        if let Some(mcfg) = self.config.marker {
            return self.finish_ranked(mcfg);
        }
        let mut events = Vec::new();
        if self.rigid_interleaved() {
            // push() only buffered.
            self.scan_for_marker(&mut events);
        }
        let pos = match self.committed {
            Some(pos) => Some(pos),
            None => {
                let best = self.best;
                if let Some((errors, pos)) = best {
                    events.push(FrameEvent::MarkerFound { position: self.base + pos, errors });
                }
                best.map(|(_, pos)| pos)
            }
        };
        match pos {
            Some(pos) => {
                let body_at = pos + START_MARKER.len();
                match decode_rigid_body(&self.bits[body_at..], self.config) {
                    Ok(body) => {
                        self.frames_emitted += 1;
                        let frame = body.into_deframed(self.base + body_at, None);
                        events.push(FrameEvent::Frame(frame));
                    }
                    Err(e) => events.push(FrameEvent::Lost(e)),
                }
            }
            None if self.frames_emitted == 0 => {
                events.push(FrameEvent::Lost(FrameError::MarkerNotFound))
            }
            None => {}
        }
        events
    }

    /// End of a marker-coded stream. The push path commits only to an
    /// anchor nothing can outrank, but that anchor's header may still
    /// prove implausible, and candidates whose lattice windows never
    /// filled were never scored; so the whole unresolved tail is
    /// ranked afresh (a frame the push path already emitted has been
    /// drained). Candidates decode in rank order until one yields a
    /// plausible frame; when none does, the top-ranked candidate's
    /// error is reported — it is the most likely true anchor.
    fn finish_ranked(&mut self, mcfg: MarkerConfig) -> Vec<FrameEvent> {
        let mut first_err = None;
        for pos in ranked_marker_anchors(&self.bits, mcfg, self.max_marker_errors) {
            let body_at = pos + START_MARKER.len();
            let mut mrx = MarkerRx::new(mcfg);
            mrx.pump(&self.bits[body_at..], self.config, true);
            match mrx.decode(self.config, self.base + body_at) {
                Ok(frame) => {
                    self.frames_emitted += 1;
                    let errors = marker_errors_at(&self.bits, pos);
                    return vec![
                        FrameEvent::MarkerFound { position: self.base + pos, errors },
                        FrameEvent::Frame(frame),
                    ];
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        if self.frames_emitted == 0 {
            vec![FrameEvent::Lost(first_err.unwrap_or(FrameError::MarkerNotFound))]
        } else {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{frame_payload, try_deframe};
    use crate::rx::Receiver;
    use emsc_sdr::Capture;

    /// Chunk sizes compared against one push of the whole input.
    const CHUNKINGS: [usize; 3] = [1, 7, 64 * 1024];

    /// Synthetic OOK capture (tone bursts for 1-bits over silence).
    fn ook_capture(bits: &[u8]) -> Capture {
        let fs = 2.4e6;
        let f_bb = -0.4e6;
        let spb = (400e-6 * fs) as usize;
        let pad = 2 * spb;
        let mut samples = vec![Complex::ZERO; pad];
        for (i, &b) in bits.iter().enumerate() {
            for n in 0..spb {
                let t = (i * spb + n) as f64 / fs;
                let on = if b == 1 { n < spb / 2 } else { n < spb / 12 };
                samples.push(if on {
                    Complex::from_polar(1.0, 2.0 * std::f64::consts::PI * f_bb * t)
                } else {
                    Complex::ZERO
                });
            }
        }
        samples.extend(std::iter::repeat_n(Complex::ZERO, pad));
        Capture { samples, sample_rate: fs, center_freq: 1.5e6 }
    }

    fn rx_config(expected_bit_period_s: f64) -> RxConfig {
        RxConfig {
            fft_size: 256,
            decimation: 8,
            ..RxConfig::new(1.5e6 - 0.4e6, expected_bit_period_s)
        }
    }

    #[test]
    fn streaming_receiver_is_bit_identical_to_batch() {
        let bits = vec![1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1];
        let cap = ook_capture(&bits);
        let batch = Receiver::new(rx_config(400e-6)).receive(&cap).expect("clean capture decodes");
        for chunk in CHUNKINGS {
            let mut rx =
                StreamingReceiver::new(rx_config(400e-6), cap.sample_rate, cap.center_freq)
                    .expect("valid config");
            for c in cap.samples.chunks(chunk) {
                rx.push(c);
            }
            let report = rx.finish().expect("stream decodes");
            assert_eq!(report, batch, "chunk {chunk}");
        }
    }

    #[test]
    fn blind_streaming_receiver_matches_receive_blind() {
        let bits: Vec<u8> = (0..48).map(|i| ((i * 3 + 1) % 4 < 2) as u8).collect();
        let cap = ook_capture(&bits);
        // Deliberately wrong prior: blind estimation must recover it.
        let batch = Receiver::new(rx_config(150e-6)).receive_blind(&cap).expect("blind decode");
        for chunk in [7usize, 65_536] {
            let mut rx =
                StreamingReceiver::new_blind(rx_config(150e-6), cap.sample_rate, cap.center_freq)
                    .expect("valid config");
            for c in cap.samples.chunks(chunk) {
                rx.push(c);
            }
            let report = rx.finish().expect("stream decodes");
            assert_eq!(report, batch, "chunk {chunk}");
            assert!(rx.sync_loss().is_none(), "periodicity was present");
        }
    }

    #[test]
    fn streaming_receiver_reports_typed_errors() {
        // Construction-time checks, in precedence order.
        let bad = RxConfig { fft_size: 1000, ..rx_config(400e-6) };
        assert!(matches!(
            StreamingReceiver::new(bad, 2.4e6, 1.5e6),
            Err(RxError::InvalidConfig(_))
        ));
        assert_eq!(
            StreamingReceiver::new(rx_config(400e-6), 0.0, 1.5e6).unwrap_err(),
            RxError::Capture(CaptureError::InvalidSampleRate)
        );
        assert_eq!(
            StreamingReceiver::new(rx_config(400e-6), 2.4e6, 100e6).unwrap_err(),
            RxError::NoCarrier
        );
        // End-of-stream classification.
        let mut rx = StreamingReceiver::new(rx_config(400e-6), 2.4e6, 1.5e6).unwrap();
        assert_eq!(rx.finish().unwrap_err(), RxError::Capture(CaptureError::Empty));
        let mut rx = StreamingReceiver::new(rx_config(400e-6), 2.4e6, 1.5e6).unwrap();
        rx.push(&[Complex::ZERO; 100]);
        assert_eq!(
            rx.finish().unwrap_err(),
            RxError::Capture(CaptureError::TooShort { needed: 256, got: 100 })
        );
        let mut rx = StreamingReceiver::new(rx_config(400e-6), 2.4e6, 1.5e6).unwrap();
        rx.push(&vec![Complex::new(f64::NAN, f64::NAN); 1000]);
        assert!(matches!(
            rx.finish().unwrap_err(),
            RxError::Capture(CaptureError::NonFinite { .. })
        ));
    }

    #[test]
    fn nan_laced_stream_matches_batch_sanitization() {
        let bits = vec![1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0];
        let mut cap = ook_capture(&bits);
        for i in (0..cap.samples.len()).step_by(5000) {
            cap.samples[i] = Complex::new(f64::NAN, f64::INFINITY);
        }
        let batch = Receiver::new(rx_config(400e-6)).receive(&cap).expect("minority NaN decodes");
        let mut rx =
            StreamingReceiver::new(rx_config(400e-6), cap.sample_rate, cap.center_freq).unwrap();
        let mut sanitized = 0;
        for c in cap.samples.chunks(997) {
            sanitized += rx.push(c).sanitized_samples;
        }
        let report = rx.finish().expect("stream decodes");
        assert_eq!(report, batch);
        assert_eq!(sanitized, batch.sanitized_samples);
    }

    #[test]
    fn deframer_matches_batch_for_every_chunking() {
        let cfg = FrameConfig::default();
        let payload = b"streaming secret";
        let mut bits = vec![0u8, 1, 1, 0, 1, 0, 0, 1];
        bits.extend(frame_payload(payload, cfg));
        bits.extend([0, 1, 0, 0, 1, 1]);
        let batch = try_deframe(&bits, cfg, 1).expect("frame");
        for chunk in CHUNKINGS {
            let mut d = Deframer::new(cfg, 1);
            let mut events = Vec::new();
            for c in bits.chunks(chunk) {
                events.extend(d.push(c));
            }
            events.extend(d.finish());
            let frames: Vec<&Deframed> = events
                .iter()
                .filter_map(|e| match e {
                    FrameEvent::Frame(f) => Some(f),
                    _ => None,
                })
                .collect();
            assert_eq!(frames.len(), 1, "chunk {chunk}: {events:?}");
            assert_eq!(*frames[0], batch, "chunk {chunk}");
        }
    }

    #[test]
    fn deframer_emits_frames_mid_stream() {
        let cfg = FrameConfig::default();
        let bits = frame_payload(b"early", cfg);
        let mut d = Deframer::new(cfg, 1);
        // Feed everything except the last bit of the frame, then the
        // rest: the frame must appear from push(), before finish().
        let events: Vec<FrameEvent> = bits.chunks(1).flat_map(|c| d.push(c)).collect();
        assert!(
            events.iter().any(|e| matches!(e, FrameEvent::Frame(f) if f.payload == b"early")),
            "frame must stream out of push(): {events:?}"
        );
        assert!(d.finish().is_empty());
    }

    #[test]
    fn deframer_recovers_a_sequence_of_frames() {
        let cfg = FrameConfig::default();
        let mut bits = frame_payload(b"one", cfg);
        bits.extend(frame_payload(b"two!", cfg));
        bits.extend(frame_payload(b"three", cfg));
        let mut d = Deframer::new(cfg, 1);
        let mut events = Vec::new();
        for c in bits.chunks(13) {
            events.extend(d.push(c));
        }
        events.extend(d.finish());
        let payloads: Vec<Vec<u8>> = events
            .iter()
            .filter_map(|e| match e {
                FrameEvent::Frame(f) => Some(f.payload.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(payloads, vec![b"one".to_vec(), b"two!".to_vec(), b"three".to_vec()]);
        assert_eq!(d.frames_emitted(), 3);
    }

    #[test]
    fn deframer_resolves_inexact_markers_like_batch() {
        let cfg = FrameConfig::default();
        let payload = b"tolerant";
        let mut bits = frame_payload(payload, cfg);
        let marker_at = cfg.sync_len + cfg.zeros_len;
        bits[marker_at + 3] ^= 1; // 1 marker error: only finish() can commit
        let batch = try_deframe(&bits, cfg, 1).expect("tolerant batch deframe");
        for chunk in CHUNKINGS {
            let mut d = Deframer::new(cfg, 1);
            let mut events = Vec::new();
            for c in bits.chunks(chunk) {
                events.extend(d.push(c));
            }
            events.extend(d.finish());
            let frame = events
                .iter()
                .find_map(|e| match e {
                    FrameEvent::Frame(f) => Some(f.clone()),
                    _ => None,
                })
                .expect("frame");
            assert_eq!(frame, batch, "chunk {chunk}");
            assert!(events.iter().any(
                |e| matches!(e, FrameEvent::MarkerFound { errors: 1, position } if *position == marker_at)
            ));
        }
    }

    #[test]
    fn deframer_reports_typed_losses() {
        let cfg = FrameConfig::default();
        // No marker at all.
        let mut d = Deframer::new(cfg, 0);
        d.push(&[0u8; 64]);
        assert_eq!(d.finish(), vec![FrameEvent::Lost(FrameError::MarkerNotFound)]);
        // Truncated inside the header.
        let mut bits = frame_payload(b"xy", cfg);
        bits.truncate(cfg.sync_len + cfg.zeros_len + START_MARKER.len() + 5);
        let mut d = Deframer::new(cfg, 0);
        d.push(&bits);
        assert_eq!(d.finish(), vec![FrameEvent::Lost(FrameError::TruncatedHeader)]);
    }

    #[test]
    fn interleaved_frames_defer_to_finish_and_match_batch() {
        let cfg = FrameConfig { interleave_depth: Some(7), ..FrameConfig::default() };
        let bits = frame_payload(b"interleaved stream", cfg);
        let batch = try_deframe(&bits, cfg, 0).expect("frame");
        let mut d = Deframer::new(cfg, 0);
        for c in bits.chunks(11) {
            assert!(d.push(c).is_empty(), "interleaved mode must defer");
        }
        let events = d.finish();
        let frame = events
            .iter()
            .find_map(|e| match e {
                FrameEvent::Frame(f) => Some(f.clone()),
                _ => None,
            })
            .expect("frame at finish");
        assert_eq!(frame, batch);
    }

    #[test]
    fn marker_deframer_matches_batch_for_every_chunking() {
        use crate::marker::MarkerConfig;
        let cfg = FrameConfig { marker: Some(MarkerConfig::standard()), ..FrameConfig::default() };
        let payload = b"drifting stream payload";
        let mut bits = vec![0u8, 1, 1, 0, 0, 1, 0];
        bits.extend(frame_payload(payload, cfg));
        let body_at = 7 + cfg.sync_len + cfg.zeros_len + START_MARKER.len();
        bits.remove(body_at + 100); // a deletion the marker code absorbs
                                    // Alternating tail (can never alias START_MARKER) so the last
                                    // alignment window fills without fabricating a second frame.
        bits.extend(std::iter::repeat_n([0u8, 1], 16).flatten());
        let batch = try_deframe(&bits, cfg, 1).expect("marker frame");
        assert!(batch.marker.is_some());
        for chunk in CHUNKINGS {
            let mut d = Deframer::new(cfg, 1);
            let mut events = Vec::new();
            for c in bits.chunks(chunk) {
                events.extend(d.push(c));
            }
            events.extend(d.finish());
            let frames: Vec<&Deframed> = events
                .iter()
                .filter_map(|e| match e {
                    FrameEvent::Frame(f) => Some(f),
                    _ => None,
                })
                .collect();
            assert_eq!(frames.len(), 1, "chunk {chunk}: {events:?}");
            assert_eq!(*frames[0], batch, "chunk {chunk}");
        }
    }

    #[test]
    fn marker_deframer_defers_damaged_anchor_to_finish_like_batch() {
        use crate::marker::MarkerConfig;
        let cfg = FrameConfig { marker: Some(MarkerConfig::standard()), ..FrameConfig::default() };
        let payload = b"burst over the anchor";
        let mut bits = frame_payload(payload, cfg);
        let marker_at = cfg.sync_len + cfg.zeros_len;
        // 3 START_MARKER errors: the push path can never commit (it
        // requires an exact anchor), so every chunking must defer to
        // finish and agree with the one-push ranked chain.
        for i in [0, 3, 6] {
            bits[marker_at + i] ^= 1;
        }
        let batch = try_deframe(&bits, cfg, 1).expect("lattice-confirmed anchor");
        assert_eq!(batch.payload, payload.to_vec());
        for chunk in CHUNKINGS {
            let mut d = Deframer::new(cfg, 1);
            let mut events = Vec::new();
            for c in bits.chunks(chunk) {
                events.extend(d.push(c));
            }
            events.extend(d.finish());
            let frames: Vec<&Deframed> = events
                .iter()
                .filter_map(|e| match e {
                    FrameEvent::Frame(f) => Some(f),
                    _ => None,
                })
                .collect();
            assert_eq!(frames.len(), 1, "chunk {chunk}: {events:?}");
            assert_eq!(*frames[0], batch, "chunk {chunk}");
        }
    }

    #[test]
    fn marker_interleaved_deframer_matches_batch() {
        use crate::marker::MarkerConfig;
        let cfg = FrameConfig {
            interleave_depth: Some(7),
            marker: Some(MarkerConfig::standard()),
            ..FrameConfig::default()
        };
        let payload = b"marker+interleave";
        let mut bits = frame_payload(payload, cfg);
        bits.extend([1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0]);
        let batch = try_deframe(&bits, cfg, 0).expect("frame");
        assert_eq!(batch.payload, payload.to_vec());
        for chunk in CHUNKINGS {
            let mut d = Deframer::new(cfg, 0);
            let mut events = Vec::new();
            for c in bits.chunks(chunk) {
                events.extend(d.push(c));
            }
            events.extend(d.finish());
            let frame = events
                .iter()
                .find_map(|e| match e {
                    FrameEvent::Frame(f) => Some(f.clone()),
                    _ => None,
                })
                .expect("frame");
            assert_eq!(frame, batch, "chunk {chunk}");
        }
    }

    #[test]
    fn marker_frames_emit_mid_stream() {
        use crate::marker::MarkerConfig;
        let cfg = FrameConfig { marker: Some(MarkerConfig::standard()), ..FrameConfig::default() };
        let mut bits = frame_payload(b"early marker", cfg);
        // Trailing bits so the final segment's alignment window fills
        // before the stream ends.
        bits.extend(std::iter::repeat_n([0u8, 1], 32).flatten());
        let mut d = Deframer::new(cfg, 1);
        let events: Vec<FrameEvent> = bits.chunks(3).flat_map(|c| d.push(c)).collect();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, FrameEvent::Frame(f) if f.payload == b"early marker")),
            "marker frame must stream out of push(): {events:?}"
        );
    }

    #[test]
    fn truncated_mid_body_decodes_what_arrived_like_batch() {
        let cfg = FrameConfig::default();
        let bits = frame_payload(b"cut off mid-frame", cfg);
        let cut = bits.len() * 2 / 3;
        let batch = try_deframe(&bits[..cut], cfg, 0);
        let mut d = Deframer::new(cfg, 0);
        d.push(&bits[..cut]);
        let events = d.finish();
        match batch {
            Ok(frame) => assert!(events.contains(&FrameEvent::Frame(frame))),
            Err(e) => assert!(events.contains(&FrameEvent::Lost(e))),
        }
    }
}
