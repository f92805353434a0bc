//! Property-based tests for coding, framing and alignment.

use emsc_covert::coding::{bits_to_bytes, bytes_to_bits, decode_bits, encode_bits};
use emsc_covert::frame::{frame_payload, try_deframe, FrameConfig, ZEROS_LEN};
use emsc_covert::marker::MarkerConfig;
use emsc_covert::metrics::{align, align_semiglobal};
use emsc_covert::packets::{depacketize, packetize, PacketConfig};
use emsc_covert::stream::{Deframer, FrameEvent};
use proptest::prelude::*;

fn bits(max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..=1, 0..max)
}

/// Packet framing over every layout: parity × marker code (none, or
/// 28 or 14 coded bits per marker).
fn packet_layout() -> impl Strategy<Value = FrameConfig> {
    (any::<bool>(), 0usize..3).prop_map(|(parity, marker)| FrameConfig {
        parity,
        marker: [None, Some(MarkerConfig::standard()), Some(MarkerConfig::new(14))][marker],
        ..PacketConfig::default().frame
    })
}

/// Every event of one deframing pass, the bits pushed in `chunk`-bit
/// pieces.
fn deframe_pass(bits: &[u8], config: FrameConfig, chunk: usize) -> Vec<FrameEvent> {
    let mut d = Deframer::new(config, 1);
    let mut events: Vec<FrameEvent> = bits.chunks(chunk).flat_map(|c| d.push(c)).collect();
    events.extend(d.finish());
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hamming_round_trips(data in bits(64)) {
        let coded = encode_bits(&data);
        let (decoded, stats) = decode_bits(&coded);
        prop_assert_eq!(&decoded[..data.len()], &data[..]);
        prop_assert_eq!(stats.corrected, 0);
    }

    #[test]
    fn hamming_corrects_one_error_per_codeword(
        data in bits(64),
        flip_positions in prop::collection::vec(0usize..7, 0..16),
    ) {
        let mut coded = encode_bits(&data);
        // Flip at most one bit in each distinct codeword.
        let codewords = coded.len() / 7;
        for (cw, &pos) in flip_positions.iter().enumerate() {
            if cw >= codewords {
                break;
            }
            coded[cw * 7 + pos] ^= 1;
        }
        let (decoded, _) = decode_bits(&coded);
        prop_assert_eq!(&decoded[..data.len()], &data[..]);
    }

    #[test]
    fn bytes_bits_round_trip(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(bits_to_bytes(&bytes_to_bits(&bytes)), bytes);
    }

    #[test]
    fn framing_round_trips(payload in prop::collection::vec(any::<u8>(), 0..48)) {
        let cfg = FrameConfig::default();
        let on_air = frame_payload(&payload, cfg);
        let out = try_deframe(&on_air, cfg, 1).expect("clean frame must deframe");
        prop_assert_eq!(out.payload, payload);
    }

    #[test]
    fn framing_survives_one_error_per_codeword(
        payload in prop::collection::vec(any::<u8>(), 1..24),
        err_seed in any::<u64>(),
    ) {
        let cfg = FrameConfig::default();
        let mut on_air = frame_payload(&payload, cfg);
        let body_start = cfg.sync_len + ZEROS_LEN + 8;
        // One deterministic flip in each codeword of the body.
        let mut state = err_seed | 1;
        let mut cw = 0;
        while body_start + cw * 7 + 6 < on_air.len() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let pos = (state % 7) as usize;
            on_air[body_start + cw * 7 + pos] ^= 1;
            cw += 1;
        }
        let out = try_deframe(&on_air, cfg, 1).expect("deframe");
        prop_assert_eq!(out.payload, payload);
    }

    #[test]
    fn one_deframing_pass_is_chunk_invariant_and_reassembles_packets(
        payload in prop::collection::vec(any::<u8>(), 0..64),
        packet_bytes in 1usize..16,
        frame in packet_layout(),
        chunk in 1usize..256,
    ) {
        let config = PacketConfig { packet_bytes, frame };
        let on_air = packetize(&payload, config);
        prop_assert_eq!(
            deframe_pass(&on_air, frame, chunk),
            deframe_pass(&on_air, frame, on_air.len())
        );
        let n_packets = payload.len().div_ceil(packet_bytes);
        let out = depacketize(&on_air, config, Some(n_packets));
        prop_assert!(out.missing.is_empty(), "missing {:?}: {:?}", out.missing, config);
        prop_assert_eq!(out.payload, payload);
    }

    #[test]
    fn alignment_counts_are_consistent(tx in bits(80), rx in bits(80)) {
        let a = align(&tx, &rx);
        prop_assert_eq!(a.tx_len(), tx.len());
        prop_assert_eq!(a.rx_len(), rx.len());
        // Total edits bounded by the larger length.
        prop_assert!(a.substitutions + a.insertions + a.deletions <= tx.len().max(rx.len()));
    }

    #[test]
    fn identical_streams_have_zero_errors(tx in bits(120)) {
        let a = align(&tx, &tx);
        prop_assert_eq!(a.substitutions, 0);
        prop_assert_eq!(a.insertions, 0);
        prop_assert_eq!(a.deletions, 0);
        prop_assert_eq!(a.matches, tx.len());
    }

    #[test]
    fn semiglobal_never_worse_than_global(tx in bits(60), rx in bits(80)) {
        let g = align(&tx, &rx);
        let s = align_semiglobal(&tx, &rx);
        let g_cost = g.substitutions + g.insertions + g.deletions;
        let s_cost = s.substitutions + s.insertions + s.deletions;
        prop_assert!(s_cost <= g_cost, "semiglobal {} vs global {}", s_cost, g_cost);
    }

    #[test]
    fn alignment_cost_is_symmetric(tx in bits(60), rx in bits(60)) {
        // Optimal-alignment *composition* is not unique (one deletion
        // can trade against substitutions at equal cost), but the
        // minimal edit cost itself is symmetric.
        let ab = align(&tx, &rx);
        let ba = align(&rx, &tx);
        let cost = |a: &emsc_covert::Alignment| a.substitutions + a.insertions + a.deletions;
        prop_assert_eq!(cost(&ab), cost(&ba));
    }
}
