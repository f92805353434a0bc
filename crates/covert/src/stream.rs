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
//! one push. [`StreamingReceiver`]'s construction is the one place a
//! receiver configuration is checked; the batch
//! [`Receiver`](crate::rx::Receiver) only holds one.
//!
//! - [`StreamingReceiver`] — IQ chunks in, a final [`RxReport`] out.
//!   The per-sample front end (energy, smoothing, edge convolution)
//!   runs incrementally with O(kernel) state; only the decision stages
//!   (peak timing, thresholds), which are global by construction in
//!   §IV-B, run at [`StreamingReceiver::finish`] over the accumulated
//!   energy signal (`decode_from_energy`).
//! - [`Deframer`] — demodulated bits in, [`FrameEvent`]s out: the only
//!   code that cuts a bit stream into frames. It commits to an exact
//!   start marker as soon as it appears and emits the frame, rigid or
//!   marker-coded, the moment its last bit is on hand, so payloads
//!   surface mid-stream; then it scans on after the frame.
//!   [`Deframer::finish`] resolves every frame left in the tail with
//!   the same step, by the earliest-minimum rule (rigid frames, in
//!   linear time) or the ranked anchor chain re-ranked after each
//!   frame (marker-coded frames, O(frames × tail)).
//!
//! Typed errors ([`RxError`], [`FrameError`]) are per-stream values,
//! never panics, so one poisoned stream in a multi-tenant session can
//! never take down its neighbours.

use emsc_sdr::dsp::{convolve_same, edge_kernel};
use emsc_sdr::error::CaptureError;
use emsc_sdr::iq::Complex;
use emsc_sdr::stream::{ConvolveSameStream, EnergyStream, SmoothStream};

use crate::frame::{
    decode_rigid_body, header_span, lattice_score, lattice_window, marker_errors_at, peek_declared,
    ranked_marker_anchors, rigid_body_span, Deframed, FrameConfig, FrameError,
    LATTICE_PROBE_MARKERS, START_MARKER,
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
    pub fn push(&mut self, chunk: &[Complex]) {
        self.raw_scratch.clear();
        self.front.push_into(chunk, &mut self.raw_scratch);
        let smoothed_from = self.energy.len();
        self.smoother.push_into(&self.raw_scratch, &mut self.energy);
        if let Some(conv) = &mut self.conv {
            conv.push_into(&self.energy[smoothed_from..], &mut self.edge);
        }
    }

    /// Ends the stream and runs the decision stages over the
    /// accumulated energy signal.
    ///
    /// # Errors
    ///
    /// [`RxError::Capture`] with the end-of-stream classification
    /// (empty, too short for one window, majority-non-finite).
    pub fn finish(&mut self) -> Result<RxReport, RxError> {
        assert!(!self.finished, "finish() may only be called once");
        self.finished = true;
        self.front.classify()?;
        let tail_from = self.energy.len();
        self.smoother.finish_into(&mut self.energy);
        let sanitized = self.front.sanitized();
        if self.blind {
            // Estimate the period over the whole smoothed energy
            // signal, fall back to the prior, then size the edge
            // kernel from it and decode. Only the bit period changed,
            // so the energy signal accumulated here is already the
            // tuned one. The tuned configuration needs no second
            // check: an estimate is a whole number of energy steps in
            // [dt, BLIND_MAX_PERIOD_S), positive and under the 1 s
            // ceiling, and construction sized the kernel bound for
            // BLIND_MAX_PERIOD_S.
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
/// One pass cuts the stream into every frame it carries, and one
/// resolve step completes each frame, on the push path and at
/// [`Deframer::finish`] alike. A rigid frame ends
/// `rigid_body_span(declared)` bits after its start marker; a
/// marker-coded frame ends where its drift-tracking decoder stopped.
/// After a frame its bits are retired and the scan goes on, so a
/// long-running session recovers a *sequence* of frames.
///
/// The push path commits only to a marker no later position can beat,
/// an exact one (for marker-coded frames with an exact, un-aliased
/// segment-marker lattice as well), and emits the frame the moment its
/// last bit is on hand. `finish` resolves the unresolved tail frame by
/// frame until no candidate decodes: rigid streams take the committed
/// or earliest minimum-error marker, and marker-coded streams the
/// ranked anchor chain, re-ranked after each frame.
///
/// Events follow one rule for both frame kinds. The push path reports
/// a `MarkerFound` when it commits; `finish` reports one before each
/// frame it resolves, and a `Lost` only when no frame came out of the
/// whole stream.
///
/// Cost: the push path and a rigid `finish` are linear in the stream.
/// A rigid scan stops at the fewest marker errors still possible: 0
/// while pushing, and at `finish` the error count of the frame just
/// resolved, since that frame's scan found no fewer anywhere after it.
/// A marker-coded `finish` ranks and decodes the remaining tail once
/// per frame it resolves: O(frames resolved at `finish` × tail).
#[derive(Debug, Clone)]
pub struct Deframer {
    config: FrameConfig,
    max_marker_errors: usize,
    bits: Vec<u8>,
    /// Leading bits of `bits` that belong to emitted frames. They are
    /// dropped at the end of each push; the unresolved tail is
    /// `bits[retired..]`, and every relative position below indexes it.
    retired: usize,
    /// Absolute bit index of the tail's first bit (positions stay
    /// absolute across the whole stream).
    base: usize,
    /// Next unscanned relative position for the marker search.
    scanned: usize,
    /// Earliest minimum-error rigid marker so far: `(errors, position)`.
    best: Option<(usize, usize)>,
    /// Marker the scan committed to, relative position: no later
    /// position can beat it, so its frame is the next to resolve.
    committed: Option<usize>,
    /// Incremental marker-code decoder for the frame being resolved
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
            let need = header_span(config);
            while self.rigid.len() < need && self.ms.next_segment(&mut self.rigid, end_of_stream) {}
            if self.rigid.len() < need && !end_of_stream {
                return false;
            }
            self.declared = peek_declared(&self.rigid, config);
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
}

impl Deframer {
    /// Creates a deframer tolerating up to `max_marker_errors` bit
    /// errors in the start marker.
    pub fn new(config: FrameConfig, max_marker_errors: usize) -> Self {
        Deframer {
            config,
            max_marker_errors,
            bits: Vec::new(),
            retired: 0,
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

    /// Feeds demodulated bits, returning any events they complete.
    pub fn push(&mut self, new_bits: &[u8]) -> Vec<FrameEvent> {
        self.bits.extend_from_slice(new_bits);
        let mut events = Vec::new();
        loop {
            if self.committed.is_none() {
                self.scan(0);
                let Some(pos) = self.committed else { break };
                events.push(FrameEvent::MarkerFound { position: self.base + pos, errors: 0 });
            }
            let resolved = self.committed.and_then(|pos| self.resolve(pos, false));
            let Some(Ok((frame, end))) = resolved else { break };
            self.emit(frame, end, &mut events);
        }
        self.bits.drain(..self.retired);
        self.retired = 0;
        events
    }

    /// Scans the tail for a marker to commit to, from the first
    /// position not yet scanned. Marker-coded frames commit only at an
    /// exact marker whose lattice window is buffered and scores fully
    /// exact and un-aliased: the unique maximum of
    /// `ranked_marker_anchors`. Rigid frames track the earliest
    /// minimum-error marker within the tolerance and commit once it
    /// has `floor` errors, the fewest any unscanned position can have.
    fn scan(&mut self, floor: usize) {
        let m = START_MARKER.len();
        let tail = &self.bits[self.retired..];
        let window = m + self.config.marker.map_or(0, lattice_window);
        while self.committed.is_none() && self.scanned + window <= tail.len() {
            let pos = self.scanned;
            self.scanned += 1;
            let errors = marker_errors_at(tail, pos);
            if let Some(mcfg) = self.config.marker {
                if errors == 0 {
                    let score = lattice_score(tail, pos + m, mcfg);
                    if score.exact == LATTICE_PROBE_MARKERS && !score.aliased {
                        self.committed = Some(pos);
                    }
                }
            } else if errors <= self.max_marker_errors && self.best.is_none_or(|(e, _)| errors < e)
            {
                self.best = Some((errors, pos));
                if errors <= floor {
                    self.committed = Some(pos);
                }
            }
        }
    }

    /// The one resolve step: completes the frame whose start marker
    /// sits at relative `pos`, giving the frame and the relative bit
    /// where it ends, or why the candidate decoded none. `None` while
    /// its last bit is still to come; never at the end of the stream,
    /// where a frame cut short decodes what arrived.
    fn resolve(
        &mut self,
        pos: usize,
        end_of_stream: bool,
    ) -> Option<Result<(Deframed, usize), FrameError>> {
        let body_at = pos + START_MARKER.len();
        let body = &self.bits[self.retired + body_at..];
        let payload_start = self.base + body_at;
        let Some(mcfg) = self.config.marker else {
            let span = peek_declared(body, self.config)
                .map(|declared| rigid_body_span(self.config, declared));
            let end = match span {
                Some(span) if span <= body.len() => span,
                _ if end_of_stream => body.len(),
                _ => return None,
            };
            let decoded = decode_rigid_body(&body[..end], self.config);
            return Some(decoded.map(|b| (b.into_deframed(payload_start, None), body_at + end)));
        };
        let mrx = self.marker_rx.get_or_insert_with(|| MarkerRx::new(mcfg));
        if !mrx.pump(body, self.config, end_of_stream) {
            return None;
        }
        let mrx = self.marker_rx.take().expect("pumped above");
        let end = body_at + mrx.ms.consumed_bits().min(body.len());
        Some(mrx.decode(self.config, payload_start).map(|frame| (frame, end)))
    }

    /// Emits a frame that ends at relative bit `end`, retires its bits
    /// and restarts the scan after it.
    fn emit(&mut self, frame: Deframed, end: usize, events: &mut Vec<FrameEvent>) {
        events.push(FrameEvent::Frame(frame));
        self.frames_emitted += 1;
        self.retired += end;
        self.base += end;
        self.scanned = 0;
        self.best = None;
        self.committed = None;
    }

    /// Ends the stream and resolves every frame left in the tail (see
    /// the type docs for the candidate order and the cost). A stream
    /// that yielded no frame reports why: the first candidate's
    /// error, or [`FrameError::MarkerNotFound`] when there was none.
    pub fn finish(&mut self) -> Vec<FrameEvent> {
        self.finish_frames(usize::MAX)
    }

    /// Takes `bits` as the whole stream and returns its first frame,
    /// else the first candidate's error, else
    /// [`FrameError::MarkerNotFound`]: what a push of `bits` and
    /// [`Deframer::finish`] report first. It runs `finish` only when the
    /// push emitted no frame, and stops it after its first frame.
    pub(crate) fn first_frame(&mut self, bits: &[u8]) -> Result<Deframed, FrameError> {
        let mut events = self.push(bits);
        if !events.iter().any(|e| matches!(e, FrameEvent::Frame(_))) {
            events.extend(self.finish_frames(1));
        }
        let mut lost = FrameError::MarkerNotFound;
        for event in events {
            match event {
                FrameEvent::Frame(frame) => return Ok(frame),
                FrameEvent::Lost(e) => lost = e,
                FrameEvent::MarkerFound { .. } => {}
            }
        }
        Err(lost)
    }

    /// [`Deframer::finish`], stopping after `limit` frames.
    fn finish_frames(&mut self, limit: usize) -> Vec<FrameEvent> {
        assert!(!self.finished, "finish() may only be called once");
        self.finished = true;
        let mut events = Vec::new();
        let mut lost = None;
        let mut floor = 0;
        // A committed marker-coded anchor may still declare an
        // implausible length, and candidates whose lattice windows never
        // filled were never scored: the tail is ranked afresh, and every
        // candidate decodes from a fresh decoder, the committed one too.
        self.marker_rx = None;
        for _ in 0..limit {
            let candidates: Vec<(usize, usize)> = match self.config.marker {
                Some(mcfg) => {
                    let tail = &self.bits[self.retired..];
                    ranked_marker_anchors(tail, mcfg, self.max_marker_errors)
                        .into_iter()
                        .map(|pos| (marker_errors_at(tail, pos), pos))
                        .collect()
                }
                None => {
                    self.scan(floor);
                    self.best.into_iter().collect()
                }
            };
            let resolved =
                candidates.into_iter().find_map(|(errors, pos)| match self.resolve(pos, true)? {
                    Ok((frame, end)) => Some((errors, pos, frame, end)),
                    Err(e) => {
                        lost.get_or_insert(e);
                        None
                    }
                });
            let Some((errors, pos, frame, end)) = resolved else { break };
            events.push(FrameEvent::MarkerFound { position: self.base + pos, errors });
            self.emit(frame, end, &mut events);
            floor = errors;
        }
        if self.frames_emitted == 0 {
            events.push(FrameEvent::Lost(lost.unwrap_or(FrameError::MarkerNotFound)));
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{frame_payload, try_deframe, ZEROS_LEN};
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
    fn a_twiddle_table_quadratic_in_the_window_is_an_invalid_config() {
        // Every harmonic of a 0 Hz switching frequency lands on the
        // tuner's bin, and each would get a window of twiddles.
        let cfg = RxConfig {
            switching_freq_hz: 0.0,
            fft_size: 2048,
            harmonics: 2048,
            ..rx_config(400e-6)
        };
        assert!(matches!(StreamingReceiver::new(cfg, 2.4e6, 0.0), Err(RxError::InvalidConfig(_))));
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
        for c in cap.samples.chunks(997) {
            rx.push(c);
        }
        assert_eq!(rx.front.sanitized(), batch.sanitized_samples);
        let report = rx.finish().expect("stream decodes");
        assert_eq!(report, batch);
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
        let marker_at = cfg.sync_len + ZEROS_LEN;
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
        bits.truncate(cfg.sync_len + ZEROS_LEN + START_MARKER.len() + 5);
        let mut d = Deframer::new(cfg, 0);
        d.push(&bits);
        assert_eq!(d.finish(), vec![FrameEvent::Lost(FrameError::TruncatedHeader)]);
    }

    /// Every event of one pass over `bits` pushed in `chunk`-bit
    /// pieces, with the events `push` returned first.
    fn one_pass(bits: &[u8], cfg: FrameConfig, max_errors: usize, chunk: usize) -> Vec<FrameEvent> {
        let mut d = Deframer::new(cfg, max_errors);
        let mut events: Vec<FrameEvent> = bits.chunks(chunk).flat_map(|c| d.push(c)).collect();
        events.extend(d.finish());
        events
    }

    fn payloads(events: &[FrameEvent]) -> Vec<&[u8]> {
        events
            .iter()
            .filter_map(|e| match e {
                FrameEvent::Frame(f) => Some(f.payload.as_slice()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn one_pass_resolves_every_inexact_rigid_frame() {
        let config = crate::packets::PacketConfig { packet_bytes: 8, ..Default::default() };
        let cfg = config.frame;
        let mut bits = crate::packets::packetize(b"packet-0packet-1packet-2packet-3", config);
        let packet_len = bits.len() / 4;
        // The last three packets carry one start-marker error each, so
        // only finish() may commit to them.
        for k in 1..4 {
            bits[k * packet_len + cfg.sync_len + ZEROS_LEN + 3] ^= 1;
        }
        for chunk in CHUNKINGS {
            let events = one_pass(&bits, cfg, 1, chunk);
            let expected: [&[u8]; 4] =
                [b"\0packet-0", b"\x01packet-1", b"\x02packet-2", b"\x03packet-3"];
            assert_eq!(payloads(&events), expected, "chunk {chunk}: {events:?}");
            let inexact = events
                .iter()
                .filter(|e| matches!(e, FrameEvent::MarkerFound { errors: 1, .. }))
                .count();
            assert_eq!(inexact, 3, "chunk {chunk}");
        }
    }

    #[test]
    fn one_pass_resolves_every_marker_coded_frame_behind_a_damaged_anchor() {
        use crate::marker::MarkerConfig;
        let cfg = FrameConfig { marker: Some(MarkerConfig::standard()), ..FrameConfig::default() };
        let sent: [&[u8]; 3] = [b"anchor one", b"the second anchor", b"third and last"];
        let mut bits = Vec::new();
        for payload in sent {
            // One start-marker error per anchor: nothing commits before
            // finish(), which must rank its way through all three.
            let marker_at = bits.len() + cfg.sync_len + ZEROS_LEN;
            bits.extend(frame_payload(payload, cfg));
            bits[marker_at + 3] ^= 1;
        }
        for chunk in CHUNKINGS {
            let events = one_pass(&bits, cfg, 1, chunk);
            assert_eq!(payloads(&events), sent, "chunk {chunk}: {events:?}");
        }
    }

    #[test]
    fn first_frame_stops_before_the_rest_of_a_damaged_anchor_train() {
        use crate::marker::MarkerConfig;
        let cfg = FrameConfig { marker: Some(MarkerConfig::standard()), ..FrameConfig::default() };
        let mut bits = Vec::new();
        for k in 0..32u8 {
            // One start-marker error per anchor, so no frame commits on
            // the push path and `finish` ranks the tail for each one.
            let payload: Vec<u8> = (0..16u8).map(|i| (i ^ k).wrapping_mul(37) ^ 0x5A).collect();
            let marker_at = bits.len() + cfg.sync_len + ZEROS_LEN;
            bits.extend(frame_payload(&payload, cfg));
            bits[marker_at + 3] ^= 1;
        }
        let full = one_pass(&bits, cfg, 1, bits.len());
        assert_eq!(payloads(&full).len(), 32, "the full pass resolves the whole train");
        let first = full.iter().find_map(|e| match e {
            FrameEvent::Frame(f) => Some(f.clone()),
            _ => None,
        });
        let mut d = Deframer::new(cfg, 1);
        assert_eq!(d.first_frame(&bits).ok(), first);
        assert_eq!(d.frames_emitted(), 1, "only the first frame is resolved");
        assert_eq!(try_deframe(&bits, cfg, 1).ok(), first);
    }

    #[test]
    fn marker_deframer_matches_batch_for_every_chunking() {
        use crate::marker::MarkerConfig;
        let cfg = FrameConfig { marker: Some(MarkerConfig::standard()), ..FrameConfig::default() };
        let payload = b"drifting stream payload";
        let mut bits = vec![0u8, 1, 1, 0, 0, 1, 0];
        bits.extend(frame_payload(payload, cfg));
        let body_at = 7 + cfg.sync_len + ZEROS_LEN + START_MARKER.len();
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
        let marker_at = cfg.sync_len + ZEROS_LEN;
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
