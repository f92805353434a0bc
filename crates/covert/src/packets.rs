//! Packetised transfers: bounding indel damage.
//!
//! §IV-C1: "Depending on the requirement, the data can be sent in
//! packets or continuously." A single bit insertion or deletion shifts
//! everything after it — fatal to a long monolithic frame, since the
//! Hamming code only corrects substitutions. Splitting the payload
//! into independently-framed packets re-synchronises the receiver at
//! every packet marker, so an indel costs one packet instead of the
//! rest of the transmission. The receive side is one pass of the
//! streaming [`Deframer`], which cuts the train into its frames.

use crate::frame::{frame_payload, FrameConfig};
use crate::stream::{Deframer, FrameEvent};

/// Idle bits between packets (gives the receiver a quiet gap to
/// re-synchronise on).
const INTER_PACKET_ZEROS: usize = 4;

/// Packetisation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketConfig {
    /// Payload bytes per packet.
    pub packet_bytes: usize,
    /// Per-packet framing.
    pub frame: FrameConfig,
}

impl Default for PacketConfig {
    fn default() -> Self {
        PacketConfig {
            packet_bytes: 16,
            frame: FrameConfig {
                // Later packets don't need the long governor-warm-up
                // sync of the first one.
                sync_len: 12,
                ..FrameConfig::default()
            },
        }
    }
}

/// Builds the on-air bit sequence for `payload` as a train of
/// sequence-numbered packets. Each packet body is
/// `[seq: u8] ++ chunk`, framed and coded independently.
///
/// # Panics
///
/// Panics if `packet_bytes` is zero or the payload needs more than
/// 256 packets.
pub fn packetize(payload: &[u8], config: PacketConfig) -> Vec<u8> {
    assert!(config.packet_bytes > 0, "packets must hold at least one byte");
    let n_packets = payload.len().div_ceil(config.packet_bytes).max(1);
    assert!(n_packets <= 256, "payload needs more than 256 packets");
    let mut bits = Vec::new();
    for (seq, chunk) in payload.chunks(config.packet_bytes.max(1)).enumerate() {
        let mut body = Vec::with_capacity(chunk.len() + 1);
        body.push(seq as u8);
        body.extend_from_slice(chunk);
        bits.extend(frame_payload(&body, config.frame));
        bits.extend(std::iter::repeat_n(0u8, INTER_PACKET_ZEROS));
    }
    if payload.is_empty() {
        bits.extend(frame_payload(&[0], config.frame));
    }
    bits
}

/// One reassembled packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredPacket {
    /// Sequence number carried in the packet.
    pub seq: u8,
    /// Payload bytes.
    pub data: Vec<u8>,
    /// Hamming corrections applied inside this packet.
    pub corrections: usize,
}

/// Result of depacketising a received bitstream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reassembly {
    /// Packets recovered, in sequence order (duplicates dropped).
    pub packets: Vec<RecoveredPacket>,
    /// Sequence numbers in `0..expected` that never arrived (only
    /// meaningful when the expected count is known).
    pub missing: Vec<u8>,
    /// The reassembled payload (holes skipped).
    pub payload: Vec<u8>,
}

/// Reassembles the payload from a received packet train: one push of
/// the whole stream into a [`Deframer`] (tolerating one start-marker
/// bit error) and its `finish`, then the frames collected by sequence
/// number. A frame too short to carry a sequence number, a duplicate,
/// or one numbered past `expected_packets` is skipped, and deframing
/// goes on after it. `expected_packets` (when known) drives the
/// missing-packet report; pass `None` to accept whatever arrives.
pub fn depacketize(
    received: &[u8],
    config: PacketConfig,
    expected_packets: Option<usize>,
) -> Reassembly {
    let mut deframer = Deframer::new(config.frame, 1);
    let mut events = deframer.push(received);
    events.extend(deframer.finish());
    let mut packets: Vec<RecoveredPacket> = events
        .into_iter()
        .filter_map(|event| {
            let FrameEvent::Frame(d) = event else { return None };
            let (&seq, data) = d.payload.split_first()?;
            let plausible = expected_packets.is_none_or(|n| (seq as usize) < n);
            let corrections = d.corrections;
            plausible.then(|| RecoveredPacket { seq, data: data.to_vec(), corrections })
        })
        .collect();
    // A stable sort keeps the first copy of a replayed packet first.
    packets.sort_by_key(|p| p.seq);
    packets.dedup_by_key(|p| p.seq);
    let missing = match expected_packets {
        Some(n) => (0..=u8::MAX).take(n).filter(|s| !packets.iter().any(|p| p.seq == *s)).collect(),
        None => Vec::new(),
    };
    let payload = packets.iter().flat_map(|p| p.data.iter().copied()).collect();
    Reassembly { packets, missing, payload }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::ZEROS_LEN;
    use crate::marker::MarkerConfig;

    #[test]
    fn round_trip_multiple_packets() {
        let cfg = PacketConfig { packet_bytes: 8, ..PacketConfig::default() };
        let payload = b"0123456789abcdefghijklmn"; // 24 bytes → 3 packets
        let bits = packetize(payload, cfg);
        let out = depacketize(&bits, cfg, Some(3));
        assert_eq!(out.packets.len(), 3);
        assert!(out.missing.is_empty());
        assert_eq!(out.payload, payload.to_vec());
    }

    #[test]
    fn an_indel_costs_one_packet_not_the_rest() {
        let cfg = PacketConfig { packet_bytes: 8, ..PacketConfig::default() };
        let payload = b"0123456789abcdefghijklmn";
        let mut bits = packetize(payload, cfg);
        // Delete a bit inside packet 1's body (past its marker).
        let packet_len = bits.len() / 3;
        bits.remove(packet_len + packet_len / 2);
        let out = depacketize(&bits, cfg, Some(3));
        // Packets 0 and 2 still arrive exactly.
        let p0 = out.packets.iter().find(|p| p.seq == 0).expect("packet 0");
        let p2 = out.packets.iter().find(|p| p.seq == 2).expect("packet 2");
        assert_eq!(p0.data, b"01234567".to_vec());
        assert_eq!(p2.data, b"ghijklmn".to_vec());
    }

    #[test]
    fn duplicate_sequence_numbers_are_dropped() {
        let cfg = PacketConfig { packet_bytes: 4, ..PacketConfig::default() };
        let mut bits = packetize(b"abcd", cfg);
        let copy = bits.clone();
        bits.extend(copy); // replay the same packet
        let out = depacketize(&bits, cfg, Some(1));
        assert_eq!(out.packets.len(), 1);
        assert_eq!(out.payload, b"abcd".to_vec());
    }

    #[test]
    fn missing_packets_are_reported() {
        let cfg = PacketConfig { packet_bytes: 4, ..PacketConfig::default() };
        let bits_full = packetize(b"aaaabbbbcccc", cfg);
        // Keep only the first and last thirds (drop packet 1 wholesale).
        let third = bits_full.len() / 3;
        let mut bits = bits_full[..third].to_vec();
        bits.extend_from_slice(&bits_full[2 * third..]);
        let out = depacketize(&bits, cfg, Some(3));
        assert_eq!(out.missing, vec![1]);
        assert_eq!(out.payload, b"aaaacccc".to_vec());
    }

    #[test]
    fn a_lost_last_packet_is_reported_at_the_full_sequence_space() {
        // 256 packets use every sequence number `packetize` accepts.
        let cfg = PacketConfig { packet_bytes: 1, ..PacketConfig::default() };
        let payload: Vec<u8> = (0..=u8::MAX).collect();
        let bits = packetize(&payload, cfg);
        let packet_len = bits.len() / 256;
        let out = depacketize(&bits[..255 * packet_len], cfg, Some(256));
        assert_eq!(out.packets.len(), 255);
        assert_eq!(out.missing, vec![255]);
        assert_eq!(out.payload, payload[..255].to_vec());
    }

    #[test]
    fn empty_payload_round_trips() {
        let cfg = PacketConfig::default();
        let bits = packetize(&[], cfg);
        let out = depacketize(&bits, cfg, None);
        assert!(out.payload.len() <= 1);
    }

    #[test]
    fn clean_round_trip_for_every_frame_layout() {
        for parity in [true, false] {
            for marker in [None, Some(MarkerConfig::standard())] {
                let (cfg, payload) = layout_train(parity, marker);
                let frame = cfg.frame;
                let out = depacketize(&packetize(&payload, cfg), cfg, Some(4));
                assert!(out.missing.is_empty(), "{frame:?}: missing {:?}", out.missing);
                assert_eq!(out.payload, payload, "{frame:?}");
            }
        }
    }

    /// The 4-packet train of `clean_round_trip_for_every_frame_layout`
    /// for one frame layout.
    fn layout_train(parity: bool, marker: Option<MarkerConfig>) -> (PacketConfig, Vec<u8>) {
        let payload: Vec<u8> = (0..32u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
        let frame = FrameConfig { parity, marker, ..PacketConfig::default().frame };
        let cfg = PacketConfig { packet_bytes: 8, frame };
        (cfg, payload)
    }

    #[test]
    fn packets_behind_inexact_markers_arrive() {
        let cfg = PacketConfig { packet_bytes: 8, ..PacketConfig::default() };
        let payload = b"packet-0packet-1packet-2packet-3";
        let mut bits = packetize(payload, cfg);
        let packet_len = bits.len() / 4;
        for k in 1..4 {
            bits[k * packet_len + cfg.frame.sync_len + ZEROS_LEN + 3] ^= 1;
        }
        let out = depacketize(&bits, cfg, Some(4));
        assert!(out.missing.is_empty(), "missing {:?}", out.missing);
        assert_eq!(out.payload, payload.to_vec());
    }

    #[test]
    fn an_empty_frame_mid_train_costs_no_packet() {
        let cfg = PacketConfig { packet_bytes: 4, ..PacketConfig::default() };
        let payload = b"aaaabbbbccccdddd";
        let bits = packetize(payload, cfg);
        let packet_len = bits.len() / 4;
        let mut spliced = bits[..2 * packet_len].to_vec();
        spliced.extend(frame_payload(&[], cfg.frame));
        spliced.extend_from_slice(&bits[2 * packet_len..]);
        let out = depacketize(&spliced, cfg, Some(4));
        assert!(out.missing.is_empty(), "missing {:?}", out.missing);
        assert_eq!(out.payload, payload.to_vec());
    }

    #[test]
    fn a_destroyed_packet_costs_only_itself_in_every_frame_layout() {
        for parity in [true, false] {
            for marker in [None, Some(MarkerConfig::standard())] {
                let (cfg, payload) = layout_train(parity, marker);
                let mut bits = packetize(&payload, cfg);
                let packet_len = bits.len() / 4;
                bits[packet_len..2 * packet_len].fill(0);
                let out = depacketize(&bits, cfg, Some(4));
                assert_eq!(out.missing, vec![1], "{:?}", cfg.frame);
                let mut survivors = payload[..8].to_vec();
                survivors.extend_from_slice(&payload[16..]);
                assert_eq!(out.payload, survivors, "{:?}", cfg.frame);
            }
        }
    }

    #[test]
    #[should_panic(expected = "256 packets")]
    fn oversized_payload_panics() {
        let cfg = PacketConfig { packet_bytes: 1, ..PacketConfig::default() };
        packetize(&vec![0u8; 300], cfg);
    }
}
