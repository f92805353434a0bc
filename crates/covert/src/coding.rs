//! Error-correcting code for the covert channel.
//!
//! §IV-B4: "this problem can be addressed by employing even relatively
//! simple error correcting codes … we use a very simple (parity) code"
//! with minimum Hamming distance of at least three, so one error per
//! codeword can be corrected (§IV-C2). Hamming(7,4) is exactly that
//! code: 4 data bits, 3 parity bits, distance 3, single-error
//! correction — and small enough to "manually implement on a target
//! machine in a few minutes".

/// Encodes 4 data bits into a 7-bit Hamming codeword
/// (positions: p1 p2 d1 p3 d2 d3 d4, 1-indexed parity convention).
///
/// # Panics
///
/// Panics if `data.len() != 4`.
pub fn hamming74_encode(data: &[u8]) -> [u8; 7] {
    assert_eq!(data.len(), 4, "Hamming(7,4) encodes exactly 4 bits");
    let d = [data[0] & 1, data[1] & 1, data[2] & 1, data[3] & 1];
    let p1 = d[0] ^ d[1] ^ d[3];
    let p2 = d[0] ^ d[2] ^ d[3];
    let p3 = d[1] ^ d[2] ^ d[3];
    [p1, p2, d[0], p3, d[1], d[2], d[3]]
}

/// Decodes a 7-bit Hamming codeword, correcting up to one bit error.
/// Returns the 4 data bits and whether a correction was applied.
///
/// Runs on a fixed `[u8; 7]` working buffer — this is the hot RX
/// decode path and must not touch the heap (pinned by
/// `tests/tests/alloc.rs`).
///
/// A distance-3 code cannot *detect* double errors: any 2-bit error
/// produces a nonzero syndrome that "corrects" a third position, so
/// `corrected == true` only means the syndrome was nonzero, not that
/// the output is right. [`crate::metrics::codeword_audit`] measures
/// the resulting miscorrection rate against ground truth.
///
/// # Panics
///
/// Panics if `code.len() != 7`.
pub fn hamming74_decode(code: &[u8]) -> ([u8; 4], bool) {
    assert_eq!(code.len(), 7, "Hamming(7,4) decodes exactly 7 bits");
    let mut c = [0u8; 7];
    for (dst, &src) in c.iter_mut().zip(code) {
        *dst = src & 1;
    }
    let s1 = c[0] ^ c[2] ^ c[4] ^ c[6];
    let s2 = c[1] ^ c[2] ^ c[5] ^ c[6];
    let s3 = c[3] ^ c[4] ^ c[5] ^ c[6];
    let syndrome = (s3 << 2) | (s2 << 1) | s1;
    let corrected = syndrome != 0;
    if corrected {
        let pos = syndrome as usize - 1; // 1-indexed position
        c[pos] ^= 1;
    }
    ([c[2], c[4], c[5], c[6]], corrected)
}

/// Per-stream accounting for [`decode_bits`].
///
/// `corrected` counts codewords whose syndrome was nonzero. Because
/// Hamming(7,4) has distance 3, a nonzero syndrome conflates genuine
/// single-bit corrections with silent double-error *miscorrections*;
/// treat `corrected` as a lower bound on channel errors, not an upper
/// bound on residual errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CodingStats {
    /// Complete 7-bit codewords decoded.
    pub codewords: usize,
    /// Codewords with a nonzero syndrome (corrected *or* miscorrected).
    pub corrected: usize,
    /// Trailing bits that did not fill a codeword and were dropped.
    /// Nonzero means the coded stream was truncated mid-codeword —
    /// distinct from clean termination (`dropped_tail_bits == 0`).
    pub dropped_tail_bits: usize,
}

impl CodingStats {
    /// Adds another decode's counts into this one (a frame decodes
    /// its header and payload spans separately).
    pub fn absorb(&mut self, other: CodingStats) {
        self.codewords += other.codewords;
        self.corrected += other.corrected;
        self.dropped_tail_bits += other.dropped_tail_bits;
    }
}

/// Encodes an arbitrary bit string with Hamming(7,4), zero-padding the
/// final nibble.
pub fn encode_bits(bits: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(bits.len().div_ceil(4) * 7);
    for chunk in bits.chunks(4) {
        let mut nibble = [0u8; 4];
        nibble[..chunk.len()].copy_from_slice(chunk);
        out.extend_from_slice(&hamming74_encode(&nibble));
    }
    out
}

/// Decodes a Hamming(7,4)-coded bit string, correcting one error per
/// codeword, with full accounting: codeword count, nonzero-syndrome
/// count and the number of trailing bits that were dropped because
/// they did not fill a codeword.
pub fn decode_bits(coded: &[u8]) -> (Vec<u8>, CodingStats) {
    let mut out = Vec::with_capacity(coded.len() / 7 * 4);
    let mut stats = CodingStats { dropped_tail_bits: coded.len() % 7, ..CodingStats::default() };
    for chunk in coded.chunks_exact(7) {
        let (nibble, fixed) = hamming74_decode(chunk);
        out.extend_from_slice(&nibble);
        stats.codewords += 1;
        if fixed {
            stats.corrected += 1;
        }
    }
    (out, stats)
}

/// Converts bytes to a most-significant-bit-first bit vector.
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<u8> {
    let mut bits = Vec::with_capacity(bytes.len() * 8);
    for &b in bytes {
        for i in (0..8).rev() {
            bits.push((b >> i) & 1);
        }
    }
    bits
}

/// Converts an MSB-first bit vector back to bytes (trailing partial
/// bytes are dropped).
pub fn bits_to_bytes(bits: &[u8]) -> Vec<u8> {
    bits.chunks_exact(8).map(|c| c.iter().fold(0u8, |acc, &b| (acc << 1) | (b & 1))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_nibbles() -> impl Iterator<Item = [u8; 4]> {
        (0..16u8).map(|v| [(v >> 3) & 1, (v >> 2) & 1, (v >> 1) & 1, v & 1])
    }

    #[test]
    fn round_trip_without_errors() {
        for nibble in all_nibbles() {
            let code = hamming74_encode(&nibble);
            let (decoded, corrected) = hamming74_decode(&code);
            assert_eq!(decoded, nibble);
            assert!(!corrected);
        }
    }

    #[test]
    fn corrects_every_single_bit_error() {
        for nibble in all_nibbles() {
            let code = hamming74_encode(&nibble);
            for flip in 0..7 {
                let mut corrupted = code;
                corrupted[flip] ^= 1;
                let (decoded, corrected) = hamming74_decode(&corrupted);
                assert_eq!(decoded, nibble, "flip at {flip}");
                assert!(corrected);
            }
        }
    }

    #[test]
    fn minimum_distance_is_three() {
        let words: Vec<[u8; 7]> = all_nibbles().map(|n| hamming74_encode(&n)).collect();
        for (i, a) in words.iter().enumerate() {
            for b in words.iter().skip(i + 1) {
                let dist: u32 = a.iter().zip(b).map(|(x, y)| (x ^ y) as u32).sum();
                assert!(dist >= 3, "distance {dist} between codewords");
            }
        }
    }

    #[test]
    fn stream_encode_decode() {
        let bits: Vec<u8> = (0..64).map(|i| ((i * 7 + 3) % 5 % 2) as u8).collect();
        let coded = encode_bits(&bits);
        assert_eq!(coded.len(), 64 / 4 * 7);
        let (decoded, stats) = decode_bits(&coded);
        assert_eq!(&decoded[..64], &bits[..]);
        assert_eq!(stats.corrected, 0);
    }

    #[test]
    fn stream_survives_scattered_errors() {
        let bits: Vec<u8> = (0..40).map(|i| (i % 3 == 0) as u8).collect();
        let mut coded = encode_bits(&bits);
        // One flip in each of the 10 codewords.
        for cw in 0..10 {
            coded[cw * 7 + (cw % 7)] ^= 1;
        }
        let (decoded, stats) = decode_bits(&coded);
        assert_eq!(&decoded[..40], &bits[..]);
        assert_eq!(stats.corrected, 10);
    }

    #[test]
    fn padding_rounds_up() {
        let coded = encode_bits(&[1, 0, 1]); // 3 bits → 1 codeword
        assert_eq!(coded.len(), 7);
        let (decoded, _) = decode_bits(&coded);
        assert_eq!(&decoded[..3], &[1, 0, 1]);
        assert_eq!(decoded[3], 0); // padding bit
    }

    #[test]
    fn dropped_tail_bits_are_reported() {
        let coded = encode_bits(&[1, 0, 1, 1, 0, 1, 0, 0]); // 2 codewords
        let (full, stats) = decode_bits(&coded);
        assert_eq!(full.len(), 8);
        assert_eq!(stats.codewords, 2);
        assert_eq!(stats.dropped_tail_bits, 0, "clean termination");
        // Truncate mid-codeword: the 3 leftover bits must be counted,
        // not silently discarded.
        let (partial, stats) = decode_bits(&coded[..10]);
        assert_eq!(partial.len(), 4);
        assert_eq!(stats.codewords, 1);
        assert_eq!(stats.dropped_tail_bits, 3);
    }

    #[test]
    fn double_errors_miscorrect_with_nonzero_syndrome() {
        // Distance 3: a 2-bit error always lands within distance 1 of
        // some *other* codeword, so the decoder "corrects" to wrong
        // data while still reporting corrected == true. This pins the
        // behaviour CodingStats documents.
        let nibble = [1, 0, 1, 1];
        let code = hamming74_encode(&nibble);
        let mut seen_wrong = 0;
        for i in 0..7 {
            for j in (i + 1)..7 {
                let mut corrupted = code;
                corrupted[i] ^= 1;
                corrupted[j] ^= 1;
                let (decoded, corrected) = hamming74_decode(&corrupted);
                assert!(corrected, "double error at ({i},{j}) must raise the syndrome");
                if decoded != nibble {
                    seen_wrong += 1;
                }
            }
        }
        assert_eq!(seen_wrong, 21, "every double error miscorrects");
    }

    #[test]
    fn bytes_bits_round_trip() {
        let bytes = b"The quick brown fox";
        let bits = bytes_to_bits(bytes);
        assert_eq!(bits.len(), bytes.len() * 8);
        assert_eq!(bits_to_bytes(&bits), bytes.to_vec());
    }

    #[test]
    fn bits_to_bytes_drops_partial() {
        assert_eq!(bits_to_bytes(&[1, 0, 1]), Vec::<u8>::new());
        assert_eq!(bits_to_bytes(&bytes_to_bits(&[0xA5])), vec![0xA5]);
    }
}
