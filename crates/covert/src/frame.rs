//! Framing and synchronisation for the covert bitstream.
//!
//! §IV-C1: "For synchronization between the transmitter and receiver
//! at the start of the communication, the transmitter sends a
//! pre-defined bit-stream of interleaved ones and zeros followed by a
//! known short bit-stream of zeros only. The transmitter then sends a
//! preamble to indicate the start of the transmission, and then sends
//! the actual data."

use crate::coding::{bits_to_bytes, bytes_to_bits, decode_bits, encode_bits, CodingStats};
use crate::marker::{
    blind_lock, marker_encode, MarkerConfig, MarkerStats, MarkerStream, SEARCH_RADIUS,
    SEGMENT_MARKER,
};
use crate::stream::Deframer;

/// Default number of alternating sync bits (long enough for the
/// victim's DVFS governor to settle at its steady state).
pub const DEFAULT_SYNC_LEN: usize = 48;
/// Length of the all-zeros gap between the sync pattern and the start
/// marker.
pub const ZEROS_LEN: usize = 8;
/// The start-of-transmission marker (chosen to be impossible within
/// the alternating sync sequence and unlikely in the zeros run).
pub const START_MARKER: [u8; 8] = [1, 1, 1, 0, 0, 0, 1, 1];

/// Framing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameConfig {
    /// Alternating 1/0 bits at the head of a transmission.
    pub sync_len: usize,
    /// Apply Hamming(7,4) to the payload.
    pub parity: bool,
    /// Wrap the coded body in the synchronization-robust marker code
    /// (see [`crate::marker`]): periodic known markers let the decoder
    /// track bit-clock drift and recover from insertions/deletions
    /// that would shift a rigid bit grid. `None` transmits the body
    /// rigidly, as the paper does.
    pub marker: Option<MarkerConfig>,
}

impl Default for FrameConfig {
    fn default() -> Self {
        FrameConfig { sync_len: DEFAULT_SYNC_LEN, parity: true, marker: None }
    }
}

/// Builds the on-air bit sequence for a payload of bytes:
/// `[1,0,1,0,…] ++ [0; ZEROS_LEN] ++ START_MARKER ++ code(len ++ payload)`,
/// where `len` is a 16-bit big-endian byte count so the receiver can
/// discard whatever trailing noise decodes after the payload.
///
/// # Panics
///
/// Panics if the payload exceeds 65 535 bytes.
pub fn frame_payload(payload: &[u8], config: FrameConfig) -> Vec<u8> {
    assert!(payload.len() <= u16::MAX as usize, "payload too large for one frame");
    let mut bits = Vec::new();
    for i in 0..config.sync_len {
        bits.push((1 - i % 2) as u8);
    }
    bits.extend(std::iter::repeat_n(0u8, ZEROS_LEN));
    bits.extend_from_slice(&START_MARKER);
    let mut body = (payload.len() as u16).to_be_bytes().to_vec();
    body.extend_from_slice(payload);
    let payload_bits = bytes_to_bits(&body);
    let rigid = if config.parity { encode_bits(&payload_bits) } else { payload_bits };
    match config.marker {
        Some(mcfg) => bits.extend(marker_encode(mcfg, &rigid)),
        None => bits.extend(rigid),
    }
    bits
}

/// Result of deframing a received bit sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deframed {
    /// Recovered payload bytes.
    pub payload: Vec<u8>,
    /// Bit index at which the payload started in the received stream.
    pub payload_start: usize,
    /// Number of Hamming corrections applied (0 when parity is off).
    /// Equal to [`CodingStats::corrected`] — kept for callers that
    /// predate the full accounting.
    pub corrections: usize,
    /// Full Hamming-decoder accounting (codeword count, nonzero
    /// syndromes, dropped trailing bits). Note that a distance-3 code
    /// cannot distinguish a genuine correction from a double-error
    /// *miscorrection*; see [`CodingStats`].
    pub coding: CodingStats,
    /// Marker-decoder statistics when the frame used the
    /// synchronization-robust marker code, `None` otherwise.
    pub marker: Option<MarkerStats>,
}

/// Why a received bit stream could not be deframed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// No start marker was found within the error tolerance — either
    /// nothing was transmitted or sync was lost before the marker.
    MarkerNotFound,
    /// A marker was found but the stream ends before the 16-bit
    /// length header completes, so the payload size is unknown.
    TruncatedHeader,
    /// The decoded length header declares a body far larger than the
    /// stream could ever have carried — the header bits are garbage
    /// (a spurious marker match or a destroyed header), not a frame.
    ImplausibleLength {
        /// The payload byte count the garbled header declared.
        declared: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::MarkerNotFound => write!(f, "start marker not found in received stream"),
            FrameError::TruncatedHeader => {
                write!(f, "stream truncated inside the frame length header")
            }
            FrameError::ImplausibleLength { declared } => {
                write!(f, "header declares {declared} payload bytes the stream cannot hold")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Locates the start marker in a received bit stream (tolerating up to
/// `max_marker_errors` bit errors in the marker itself) and decodes
/// the first frame that follows, reporting *why* recovery failed so
/// experiments can distinguish "no transmission detected" from
/// "transmission cut off mid-frame".
///
/// One push of the whole stream into a [`Deframer`], then, if the push
/// emitted no frame, [`Deframer::finish`] up to its first frame: the
/// first frame they emit is the result, and the loss they report is
/// the error. A tail of frames behind damaged start markers costs one
/// ranking of the tail, not one per frame.
///
/// # Errors
///
/// [`FrameError::MarkerNotFound`] when no start marker matches within
/// `max_marker_errors`; [`FrameError::TruncatedHeader`] when the
/// stream ends inside the length header;
/// [`FrameError::ImplausibleLength`] when every anchor candidate of a
/// marker-coded frame declares a body the stream cannot hold.
pub fn try_deframe(
    received: &[u8],
    config: FrameConfig,
    max_marker_errors: usize,
) -> Result<Deframed, FrameError> {
    Deframer::new(config, max_marker_errors).first_frame(received)
}

/// Segment markers consulted when ranking start-marker candidates of a
/// marker-coded frame (see [`ranked_marker_anchors`]).
pub(crate) const LATTICE_PROBE_MARKERS: usize = 4;

/// Extra start-marker bit errors tolerated for marker-coded frames
/// when the candidate is corroborated by the segment-marker lattice.
/// Generous on purpose: a burst that lands on the start marker can
/// corrupt half of it, and a lattice-corroborated candidate that
/// turns out to be spurious is cheap — its implausible header rejects
/// it and the candidate chain moves on.
pub(crate) const LATTICE_EXTRA_TOLERANCE: usize = 3;

/// Anchor candidates the decoder will actually attempt to decode, in
/// rank order, before giving up (see [`ranked_marker_anchors`]).
pub(crate) const MAX_ANCHOR_CANDIDATES: usize = 8;

/// Bits required *after* a candidate's start marker for its lattice
/// score to be final (every probed segment marker, at its largest
/// drift offset, inside the buffer).
pub(crate) fn lattice_window(mcfg: MarkerConfig) -> usize {
    (LATTICE_PROBE_MARKERS - 1) * mcfg.period() + SEGMENT_MARKER.len() + SEARCH_RADIUS
}

/// How well the [`SEGMENT_MARKER`] lattice of a body starting at
/// `body_at` corroborates a start-marker candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LatticeScore {
    /// Probes that found the marker exactly where predicted.
    pub exact: usize,
    /// Probes that found it only within ± the drift radius.
    pub drifted: usize,
    /// A segment marker also sits one period *behind* the candidate's
    /// body — the signature of a period alias. A candidate at
    /// `true + k·period` sees the same perfect forward lattice as the
    /// true anchor (its probes land on real markers k..k+K), so the
    /// forward probes cannot tell them apart; the backward probe can,
    /// because the true anchor is preceded by the alternating sync and
    /// the zeros run, where [`SEGMENT_MARKER`] (which opens with three
    /// ones) cannot occur.
    pub aliased: bool,
}

impl LatticeScore {
    /// Probes that found a marker at all.
    pub fn hits(&self) -> usize {
        self.exact + self.drifted
    }

    /// Ranking weight. An exact hit outweighs a drifted one: a
    /// candidate whose every probe is off by the same shift is itself
    /// shifted, so exactness is what distinguishes the true anchor
    /// from its ±1 aliases. The maximum, `2 * LATTICE_PROBE_MARKERS`,
    /// is reachable only by a fully exact lattice.
    pub fn score(&self) -> usize {
        2 * self.exact + self.drifted
    }
}

/// Scores the first [`LATTICE_PROBE_MARKERS`] lattice positions of a
/// body starting at `body_at`. Each probe first checks its predicted
/// position exactly, then searches ± `SEARCH_RADIUS` bits —
/// the same tolerance the tracking decoder will apply — so an indel
/// between markers demotes a probe to a drifted hit instead of a
/// miss. Probes that run past the buffer count as misses.
pub(crate) fn lattice_score(received: &[u8], body_at: usize, mcfg: MarkerConfig) -> LatticeScore {
    let m = SEGMENT_MARKER.len();
    let exact_at = |p: usize| {
        p + m <= received.len()
            && received[p..p + m].iter().zip(&SEGMENT_MARKER).all(|(a, b)| (*a & 1) == *b)
    };
    let mut score = LatticeScore { exact: 0, drifted: 0, aliased: false };
    for k in 0..LATTICE_PROBE_MARKERS {
        let at = body_at + k * mcfg.period();
        if exact_at(at) {
            score.exact += 1;
        } else if (at.saturating_sub(SEARCH_RADIUS)..=at + SEARCH_RADIUS).any(exact_at) {
            score.drifted += 1;
        }
    }
    if body_at >= mcfg.period() {
        let at = body_at - mcfg.period();
        score.aliased =
            exact_at(at) || (at.saturating_sub(SEARCH_RADIUS)..=at + SEARCH_RADIUS).any(exact_at);
    }
    score
}

/// Ranks start-marker anchor candidates of a marker-coded frame.
///
/// The 8-bit [`START_MARKER`] alone is a fragile anchor: burst noise
/// that corrupts two of its bits makes the rigid scan latch onto a
/// spurious downstream match and decode a shifted read of the body.
/// A marker-coded body carries a much longer implicit anchor — the
/// [`SEGMENT_MARKER`] lattice — so candidates are ranked by the
/// backward alias probe first (a candidate with a segment marker one
/// period *behind* it is a period alias, demoted below every
/// un-aliased candidate), lattice score second (exact hits
/// outweighing drifted ones), start-marker errors third, position
/// fourth. The alias demotion is what keeps long frames decodable:
/// a body of `n` segments offers `n - K` period aliases with perfect
/// forward lattices, and without the backward probe they crowd the
/// true anchor out of the capped candidate list. Candidates noisier
/// than `max_marker_errors` (up to [`LATTICE_EXTRA_TOLERANCE`] extra
/// bit errors) are admitted only with at least two corroborating
/// lattice hits.
///
/// Ranking alone cannot always identify the true anchor — inside a
/// marker-coded body *every* position on the segment lattice scores
/// well, and a bad lock shows up only when its decoded header
/// declares an implausible length. [`Deframer::finish`] therefore
/// decodes candidates in this order until one yields a plausible
/// frame; the list is capped at [`MAX_ANCHOR_CANDIDATES`] to bound
/// that work.
pub(crate) fn ranked_marker_anchors(
    received: &[u8],
    mcfg: MarkerConfig,
    max_marker_errors: usize,
) -> Vec<usize> {
    let m = START_MARKER.len();
    if received.len() < m {
        return Vec::new();
    }
    // (aliased, score, errors, position)
    let mut candidates: Vec<(bool, usize, usize, usize)> = Vec::new();
    for pos in 0..=received.len() - m {
        let errors = marker_errors_at(received, pos);
        if errors > max_marker_errors + LATTICE_EXTRA_TOLERANCE {
            continue;
        }
        let score = lattice_score(received, pos + m, mcfg);
        if errors > max_marker_errors && score.hits() < 2 {
            continue;
        }
        candidates.push((score.aliased, score.score(), errors, pos));
    }
    candidates
        .sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)).then(a.2.cmp(&b.2)).then(a.3.cmp(&b.3)));
    candidates.truncate(MAX_ANCHOR_CANDIDATES);
    candidates.into_iter().map(|(_, _, _, pos)| pos).collect()
}

/// Number of marker-bit mismatches when [`START_MARKER`] is laid over
/// `received` at `pos` (bits compared on their LSB, as on air).
pub(crate) fn marker_errors_at(received: &[u8], pos: usize) -> usize {
    received[pos..pos + START_MARKER.len()]
        .iter()
        .zip(&START_MARKER)
        .filter(|(a, b)| (**a & 1) != **b)
        .count()
}

/// Coded bits occupied by the 16-bit length header.
pub(crate) fn header_span(config: FrameConfig) -> usize {
    // 16 bits → 4 codewords → 28 coded bits under parity.
    if config.parity {
        28
    } else {
        16
    }
}

/// Coded bits occupied by a `declared`-byte payload body.
pub(crate) fn body_span(config: FrameConfig, declared: usize) -> usize {
    if config.parity {
        declared * 8 / 4 * 7
    } else {
        declared * 8
    }
}

/// Declared payload byte count peeked from the first
/// [`header_span`] bits of a rigid body, or `None` when fewer bits
/// are available yet.
pub(crate) fn peek_declared(body: &[u8], config: FrameConfig) -> Option<usize> {
    let span = header_span(config);
    if body.len() < span {
        return None;
    }
    let header_bits =
        if config.parity { decode_bits(&body[..span]).0 } else { body[..span].to_vec() };
    let header = bits_to_bytes(&header_bits);
    Some(u16::from_be_bytes([header[0], header[1]]) as usize)
}

/// Rigid coded bits of the frame body (length header + `declared`
/// payload bytes), before marker wrapping.
pub(crate) fn rigid_body_span(config: FrameConfig, declared: usize) -> usize {
    header_span(config) + body_span(config, declared)
}

/// A decoded frame body, before its stream position is known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BodyDecode {
    pub payload: Vec<u8>,
    pub coding: CodingStats,
}

impl BodyDecode {
    /// The frame at `payload_start`, with the marker decoder's
    /// statistics when its body was marker-coded.
    pub(crate) fn into_deframed(
        self,
        payload_start: usize,
        marker: Option<MarkerStats>,
    ) -> Deframed {
        Deframed {
            payload: self.payload,
            payload_start,
            corrections: self.coding.corrected,
            coding: self.coding,
            marker,
        }
    }
}

/// Decodes a rigid coded body — a rigid frame's on-air body, or a
/// marker-coded one after the marker layer is unwrapped: reads the
/// 16-bit length header, then exactly the declared number of payload
/// bytes — anything after belongs to the channel (or the next
/// packet), not to this frame.
pub(crate) fn decode_rigid_body(
    body: &[u8],
    config: FrameConfig,
) -> Result<BodyDecode, FrameError> {
    let mut coding = CodingStats::default();
    let (header_bits, len_span) = if config.parity {
        let span = header_span(config).min(body.len());
        let (bits, stats) = decode_bits(&body[..span]);
        coding.absorb(stats);
        (bits, span)
    } else {
        let span = header_span(config).min(body.len());
        (body[..span].to_vec(), span)
    };
    let header = bits_to_bytes(&header_bits);
    if header.len() < 2 {
        return Err(FrameError::TruncatedHeader);
    }
    let declared = u16::from_be_bytes([header[0], header[1]]) as usize;
    let span = body_span(config, declared);
    let rest = &body[len_span..(len_span + span).min(body.len())];
    let bits = if config.parity {
        let (bits, stats) = decode_bits(rest);
        coding.absorb(stats);
        bits
    } else {
        rest.to_vec()
    };
    let mut bytes = bits_to_bytes(&bits);
    bytes.truncate(declared);
    Ok(BodyDecode { payload: bytes, coding })
}

/// A blind salvage of a marker-coded stream (see [`salvage_marker_bits`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Salvage {
    /// Recovered *data* bits (Hamming-decoded when the frame uses
    /// parity). The starting segment index is unknown, so these bits
    /// begin at an arbitrary segment boundary of the original body —
    /// score them against ground truth with an alignment, not a
    /// positional compare.
    pub bits: Vec<u8>,
    /// Bit position in `received` where the marker lattice locked.
    pub lock_position: usize,
    /// Marker-decoder statistics for the salvaged span.
    pub stats: MarkerStats,
}

/// Last-ditch recovery for a marker-coded frame whose [`START_MARKER`]
/// was destroyed (severity-4 dropped-sample gaps land exactly there):
/// finds the periodic segment-marker lattice with [`blind_lock`],
/// decodes segments from the first surviving marker, and
/// Hamming-decodes the result on the codeword grid — which segment
/// boundaries preserve, because [`MarkerConfig::segment_len`] is a
/// multiple of 7.
///
/// Returns `None` when the frame is not marker-coded or when no
/// lattice is found.
pub fn salvage_marker_bits(received: &[u8], config: FrameConfig) -> Option<Salvage> {
    let mcfg = config.marker?;
    let lock = blind_lock(mcfg, received)?;
    let mut ms = MarkerStream::new(mcfg);
    ms.push(&received[lock..]);
    let mut rigid = Vec::new();
    while ms.next_segment(&mut rigid, true) {}
    let bits = if config.parity { decode_bits(&rigid).0 } else { rigid };
    Some(Salvage { bits, lock_position: lock, stats: ms.stats() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_layout() {
        let cfg = FrameConfig { sync_len: 6, parity: false, marker: None };
        let bits = frame_payload(&[0xFF], cfg);
        assert_eq!(&bits[..6], &[1, 0, 1, 0, 1, 0]);
        assert_eq!(&bits[6..14], &[0; ZEROS_LEN]);
        assert_eq!(&bits[14..22], &START_MARKER);
        // 16-bit length (0x0001) precedes the payload byte.
        assert_eq!(&bits[22..38], &[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]);
        assert_eq!(&bits[38..], &[1; 8]);
    }

    #[test]
    fn deframe_round_trip() {
        let cfg = FrameConfig::default();
        let payload = b"secret!";
        let bits = frame_payload(payload, cfg);
        let out = try_deframe(&bits, cfg, 0).expect("marker must be found");
        assert_eq!(out.payload, payload.to_vec());
        assert_eq!(out.corrections, 0);
    }

    #[test]
    fn deframe_corrects_payload_errors() {
        let cfg = FrameConfig::default();
        let payload = b"ab";
        let mut bits = frame_payload(payload, cfg);
        let start = cfg.sync_len + ZEROS_LEN + START_MARKER.len();
        bits[start + 2] ^= 1; // 1 error in the first codeword
        bits[start + 9] ^= 1; // 1 error in the second codeword
        let out = try_deframe(&bits, cfg, 0).expect("marker");
        assert_eq!(out.payload, payload.to_vec());
        assert_eq!(out.corrections, 2);
    }

    #[test]
    fn deframe_tolerates_marker_bit_error() {
        let cfg = FrameConfig::default();
        let payload = b"x";
        let mut bits = frame_payload(payload, cfg);
        let marker_at = cfg.sync_len + ZEROS_LEN;
        bits[marker_at + 3] ^= 1;
        assert!(!try_deframe(&bits, cfg, 0).is_ok_and(|d| d.payload == payload.to_vec()));
        let out = try_deframe(&bits, cfg, 1).expect("tolerant deframe");
        assert_eq!(out.payload, payload.to_vec());
    }

    #[test]
    fn deframe_ignores_leading_noise() {
        let cfg = FrameConfig::default();
        let payload = b"hi";
        let mut bits = vec![0u8, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1];
        bits.extend(frame_payload(payload, cfg));
        let out = try_deframe(&bits, cfg, 0).expect("marker");
        assert_eq!(out.payload, payload.to_vec());
    }

    #[test]
    fn deframe_without_marker_returns_none() {
        let cfg = FrameConfig::default();
        let stream = vec![0u8; 64];
        assert_eq!(try_deframe(&stream, cfg, 0), Err(FrameError::MarkerNotFound));
    }

    #[test]
    fn try_deframe_distinguishes_truncation_from_no_marker() {
        let cfg = FrameConfig::default();
        // Too short to even hold the marker.
        assert_eq!(try_deframe(&[1, 0, 1], cfg, 0), Err(FrameError::MarkerNotFound));
        // Marker present but the stream ends inside the length header.
        let mut bits = frame_payload(b"xy", cfg);
        let header_end = cfg.sync_len + ZEROS_LEN + START_MARKER.len() + 5;
        bits.truncate(header_end);
        assert_eq!(try_deframe(&bits, cfg, 0), Err(FrameError::TruncatedHeader));
    }

    #[test]
    fn marker_coded_frame_round_trips() {
        for parity in [true, false] {
            let cfg = FrameConfig {
                parity,
                marker: Some(MarkerConfig::standard()),
                ..FrameConfig::default()
            };
            let payload = b"marker-coded payload";
            let bits = frame_payload(payload, cfg);
            let out = try_deframe(&bits, cfg, 0).expect("marker frame deframes");
            assert_eq!(out.payload, payload.to_vec(), "parity={parity}");
            assert!(out.marker.is_some());
            assert_eq!(out.marker.unwrap().resyncs, 0, "clean channel never resyncs");
        }
    }

    #[test]
    fn framed_length_matches_rigid_and_marker_spans() {
        for marker in [None, Some(MarkerConfig::standard()), Some(MarkerConfig::new(14))] {
            for parity in [true, false] {
                let cfg = FrameConfig { parity, marker, ..FrameConfig::default() };
                let payload = b"span check";
                let rigid = rigid_body_span(cfg, payload.len());
                let body = marker.map_or(rigid, |mcfg| crate::marker::on_air_len(mcfg, rigid));
                let preamble = cfg.sync_len + ZEROS_LEN + START_MARKER.len();
                assert_eq!(
                    frame_payload(payload, cfg).len(),
                    preamble + body,
                    "marker={marker:?} parity={parity}"
                );
            }
        }
    }

    #[test]
    fn marker_coded_frame_survives_a_deletion() {
        let cfg = FrameConfig { marker: Some(MarkerConfig::standard()), ..FrameConfig::default() };
        let payload = b"deletion proof payload";
        let mut bits = frame_payload(payload, cfg);
        let body_start = cfg.sync_len + ZEROS_LEN + START_MARKER.len();
        // Delete one bit late in the body: the rigid grid would shift
        // every bit after it; the marker decoder resynchronises.
        bits.remove(body_start + 150);
        let out = try_deframe(&bits, cfg, 0).expect("marker frame deframes");
        let stats = out.marker.expect("marker stats");
        assert!(stats.resyncs >= 1, "the deletion must be recovered as a resync");
        // Everything outside the damaged segment survives; allow the
        // resampled segment to corrupt at most its own 2 bytes.
        let wrong = out.payload.iter().zip(payload).filter(|(a, b)| a != b).count()
            + payload.len().saturating_sub(out.payload.len());
        assert!(wrong <= 2, "deletion must stay local: {wrong} bytes wrong");

        // The same deletion without the marker layer destroys the
        // payload from that point on.
        let rigid_cfg = FrameConfig::default();
        let mut rigid_bits = frame_payload(payload, rigid_cfg);
        rigid_bits.remove(body_start + 150);
        let broken = try_deframe(&rigid_bits, rigid_cfg, 0).expect("start marker still intact");
        let rigid_wrong = broken.payload.iter().zip(payload).filter(|(a, b)| a != b).count()
            + payload.len().saturating_sub(broken.payload.len());
        assert!(rigid_wrong > wrong, "rigid framing must fare worse ({rigid_wrong} vs {wrong})");
    }

    #[test]
    fn salvage_recovers_payload_bits_when_start_marker_is_destroyed() {
        let cfg = FrameConfig { marker: Some(MarkerConfig::standard()), ..FrameConfig::default() };
        let payload = b"salvage me from the wreckage";
        let bits = frame_payload(payload, cfg);
        // Severity-4 shape: a gap that wipes the sync tail, the zeros,
        // START_MARKER and the leading body segments — including the
        // length header, so no anchor candidate can decode a plausible
        // frame and even the ranked chain comes up empty.
        let mcfg = MarkerConfig::standard();
        let marker_at = cfg.sync_len + ZEROS_LEN;
        let mut damaged = bits.clone();
        damaged.drain(marker_at - 10..marker_at + START_MARKER.len() + 2 * mcfg.period() + 10);
        // With its anchor gone the normal deframe path is lost: it
        // either finds nothing or locks a spurious marker match and
        // decodes garbage.
        assert!(
            !try_deframe(&damaged, cfg, 1).is_ok_and(|d| d.payload == payload.to_vec()),
            "a destroyed start marker must not rigidly deframe to the true payload"
        );
        let salvage = salvage_marker_bits(&damaged, cfg).expect("lattice survives");
        // The salvaged bits contain a long verbatim run of the true
        // payload bits (positional equality is impossible: the lock
        // lands on an unknown segment).
        let tx_bits = bytes_to_bits(payload);
        let probe = &tx_bits[tx_bits.len() / 2..tx_bits.len() / 2 + 48];
        assert!(
            salvage.bits.windows(probe.len()).any(|w| w == probe),
            "salvaged stream must contain payload bits verbatim"
        );
    }

    #[test]
    fn salvage_declines_unmarked_frames() {
        let plain = FrameConfig::default();
        let bits = frame_payload(b"x", plain);
        assert!(salvage_marker_bits(&bits, plain).is_none());
    }

    #[test]
    fn deframed_coding_stats_are_reported() {
        let cfg = FrameConfig::default();
        let payload = b"ab";
        let mut bits = frame_payload(payload, cfg);
        let start = cfg.sync_len + ZEROS_LEN + START_MARKER.len();
        bits[start + 2] ^= 1;
        let out = try_deframe(&bits, cfg, 0).expect("frame");
        assert_eq!(out.corrections, out.coding.corrected);
        assert_eq!(out.coding.corrected, 1);
        // 4 header codewords + 4 payload codewords.
        assert_eq!(out.coding.codewords, 8);
        assert_eq!(out.coding.dropped_tail_bits, 0, "clean termination");
        // A stream cut mid-codeword surfaces as dropped tail bits.
        let full = frame_payload(b"tail", cfg);
        let cut = try_deframe(&full[..full.len() - 3], cfg, 0).expect("frame");
        assert!(cut.coding.dropped_tail_bits > 0, "mid-codeword truncation must be visible");
    }

    #[test]
    fn lattice_rescues_a_burst_damaged_start_marker() {
        let mcfg = MarkerConfig::standard();
        let cfg = FrameConfig { marker: Some(mcfg), ..FrameConfig::default() };
        let payload = b"anchored through the burst";
        let mut bits = frame_payload(payload, cfg);
        let marker_at = cfg.sync_len + ZEROS_LEN;
        // A burst puts 3 errors into START_MARKER — beyond the 1-error
        // scan budget that a rigid frame gets.
        for i in [0, 3, 6] {
            bits[marker_at + i] ^= 1;
        }
        let ranked = ranked_marker_anchors(&bits, mcfg, 1);
        assert_eq!(
            ranked.first(),
            Some(&marker_at),
            "the fully exact segment lattice must rank the damaged anchor first"
        );
        let out = try_deframe(&bits, cfg, 1).expect("lattice-confirmed anchor");
        assert_eq!(out.payload, payload.to_vec());
        // The same damage on a rigid frame loses the anchor entirely
        // (or locks a spurious match elsewhere).
        let rigid_cfg = FrameConfig::default();
        let mut rigid_bits = frame_payload(payload, rigid_cfg);
        for i in [0, 3, 6] {
            rigid_bits[marker_at + i] ^= 1;
        }
        let rigid = try_deframe(&rigid_bits, rigid_cfg, 1);
        assert!(
            !rigid.is_ok_and(|d| d.payload == payload.to_vec()),
            "rigid framing must not survive a 3-bit marker burst"
        );
    }

    #[test]
    fn lattice_probe_tolerates_marker_drift() {
        let mcfg = MarkerConfig::standard();
        let cfg = FrameConfig { marker: Some(mcfg), ..FrameConfig::default() };
        let mut bits = frame_payload(b"probe under drift", cfg);
        let body_at = cfg.sync_len + ZEROS_LEN + START_MARKER.len();
        let clean = lattice_score(&bits, body_at, mcfg);
        assert_eq!(clean.exact, LATTICE_PROBE_MARKERS);
        // A deletion between markers 2 and 3 shifts the later probes by
        // one bit: the drift radius must still find them, demoting them
        // to drifted hits rather than misses.
        bits.remove(body_at + 2 * mcfg.period() + SEGMENT_MARKER.len() + 1);
        let shifted = lattice_score(&bits, body_at, mcfg);
        assert_eq!(shifted.hits(), LATTICE_PROBE_MARKERS);
        assert_eq!(shifted.exact, 3);
        assert!(shifted.score() < clean.score(), "drift must cost rank");
    }

    #[test]
    fn implausible_declared_length_is_rejected() {
        let mcfg = MarkerConfig::standard();
        let cfg = FrameConfig { marker: Some(mcfg), ..FrameConfig::default() };
        let payload = vec![0xA5u8; 64];
        let bits = frame_payload(&payload, cfg);
        let body_start = cfg.sync_len + ZEROS_LEN + START_MARKER.len();
        // Keep the anchor and the first few segments — enough for the
        // header to decode and declare 64 bytes — but cut the stream
        // long before half that body could have arrived. A garbled
        // header in a real capture produces the same shape with an
        // absurd declared length; pumping it would zero-pad hundreds of
        // kilobits of fiction.
        let cut = body_start + 6 * mcfg.period();
        let err = try_deframe(&bits[..cut], cfg, 1).unwrap_err();
        assert!(
            matches!(err, FrameError::ImplausibleLength { declared: 64 }),
            "expected ImplausibleLength, got {err:?}"
        );
    }

    #[test]
    fn marker_cannot_appear_in_sync_or_zeros() {
        // Sliding the marker over an alternating or zero sequence must
        // always produce ≥2 mismatches, so a 1-error-tolerant search
        // cannot lock onto the header.
        let cfg = FrameConfig::default();
        let header: Vec<u8> = frame_payload(&[], cfg)[..cfg.sync_len + ZEROS_LEN].to_vec();
        for pos in 0..=header.len() - START_MARKER.len() {
            let errors = header[pos..pos + START_MARKER.len()]
                .iter()
                .zip(&START_MARKER)
                .filter(|(a, b)| **a != **b)
                .count();
            assert!(errors >= 2, "marker aliases header at {pos}");
        }
    }
}
