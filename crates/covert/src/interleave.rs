//! Block interleaving: burst-error protection for the parity code.
//!
//! Hamming(7,4) corrects one error per codeword, but the channel's
//! errors cluster — a long interrupt corrupts several *consecutive*
//! bits (§IV-B4). A block interleaver writes the coded bits row-wise
//! into a `rows × columns` matrix and transmits column-wise, so a
//! burst of up to `columns` consecutive channel errors lands in
//! `columns` different codewords, one error each — exactly what the
//! code can fix. A natural strengthening of the paper's §IV-B4
//! parity-only scheme.

/// A block interleaver over `depth` codewords of `codeword_len` bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interleaver {
    codeword_len: usize,
    depth: usize,
}

impl Interleaver {
    /// Creates an interleaver: each block holds `depth` codewords of
    /// `codeword_len` bits (7 for Hamming(7,4)); on the wire, a burst
    /// of up to `depth` consecutive errors lands at most once per
    /// codeword.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(codeword_len: usize, depth: usize) -> Self {
        assert!(codeword_len > 0 && depth > 0, "interleaver dimensions must be positive");
        Interleaver { codeword_len, depth }
    }

    /// Bits per block.
    pub fn block_len(&self) -> usize {
        self.codeword_len * self.depth
    }

    /// Interleaves `bits`: each block is a `depth × codeword_len`
    /// matrix with one codeword per row; the wire stream reads it
    /// column-major (the tail is zero-padded to a whole block).
    pub fn interleave(&self, bits: &[u8]) -> Vec<u8> {
        let block = self.block_len();
        let blocks = bits.len().div_ceil(block).max(1);
        let mut out = Vec::with_capacity(blocks * block);
        for b in 0..blocks {
            let base = b * block;
            for c in 0..self.codeword_len {
                for r in 0..self.depth {
                    out.push(bits.get(base + r * self.codeword_len + c).copied().unwrap_or(0));
                }
            }
        }
        out
    }

    /// Inverts [`Interleaver::interleave`]: reads the wire stream
    /// column-major and emits the codewords back in order.
    pub fn deinterleave(&self, bits: &[u8]) -> Vec<u8> {
        let block = self.block_len();
        let blocks = bits.len().div_ceil(block).max(1);
        let mut out = Vec::with_capacity(blocks * block);
        for b in 0..blocks {
            let base = b * block;
            for r in 0..self.depth {
                for c in 0..self.codeword_len {
                    out.push(bits.get(base + c * self.depth + r).copied().unwrap_or(0));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coding::{decode_bits, encode_bits};

    #[test]
    fn round_trip_is_identity() {
        let il = Interleaver::new(7, 8);
        let bits: Vec<u8> = (0..112).map(|i| ((i * 5 + 1) % 3 == 0) as u8).collect();
        let wire = il.interleave(&bits);
        assert_eq!(wire.len(), 112);
        let back = il.deinterleave(&wire);
        assert_eq!(&back[..bits.len()], &bits[..]);
    }

    #[test]
    fn partial_block_pads_with_zeros() {
        let il = Interleaver::new(3, 4);
        let bits = vec![1u8; 5];
        let wire = il.interleave(&bits);
        assert_eq!(wire.len(), 12);
        let back = il.deinterleave(&wire);
        assert_eq!(&back[..5], &[1, 1, 1, 1, 1]);
        assert!(back[5..].iter().all(|&b| b == 0));
    }

    #[test]
    fn burst_spreads_across_codewords() {
        // 8 codewords of 7 bits, interleaved; corrupt a 8-bit burst on
        // the wire; after deinterleaving, no codeword has >1 error.
        let il = Interleaver::new(7, 8);
        let data: Vec<u8> = (0..32).map(|i| (i % 2) as u8).collect();
        let coded = encode_bits(&data); // 56 bits = 8 codewords
        let mut wire = il.interleave(&coded);
        for b in wire.iter_mut().skip(20).take(8) {
            *b ^= 1;
        }
        let received = il.deinterleave(&wire);
        let (decoded, stats) = decode_bits(&received[..coded.len()]);
        assert_eq!(&decoded[..32], &data[..], "burst must be fully corrected");
        assert_eq!(stats.corrected, 8);
    }

    #[test]
    fn without_interleaving_the_same_burst_kills_codewords() {
        let data: Vec<u8> = (0..32).map(|i| (i % 2) as u8).collect();
        let mut coded = encode_bits(&data);
        for b in coded.iter_mut().skip(20).take(8) {
            *b ^= 1;
        }
        let (decoded, _) = decode_bits(&coded);
        assert_ne!(&decoded[..32], &data[..], "8-bit burst must defeat bare Hamming");
    }

    #[test]
    #[should_panic(expected = "dimensions")]
    fn zero_dimension_panics() {
        Interleaver::new(0, 4);
    }
}
