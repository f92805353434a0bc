//! Channel-quality metrics: BER, insertion and deletion probabilities.
//!
//! The covert channel can *substitute* bits (power mislabeled),
//! *insert* bits (an interrupt splits one signalling period into two)
//! and *delete* bits (system activity suppresses a start edge) —
//! Fig. 8. Table II/III therefore report BER, IP and DP, which
//! requires aligning the transmitted and received sequences with an
//! edit-distance (Needleman–Wunsch) alignment, exactly as one compares
//! sequences with indels.

/// Outcome of aligning a transmitted against a received bit sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Alignment {
    /// Bits aligned and equal.
    pub matches: usize,
    /// Bits aligned but flipped (bit errors).
    pub substitutions: usize,
    /// Received bits with no transmitted counterpart.
    pub insertions: usize,
    /// Transmitted bits missing from the received sequence.
    pub deletions: usize,
}

impl Alignment {
    /// Bit-error rate: substitutions per transmitted bit.
    pub fn ber(&self) -> f64 {
        self.substitutions as f64 / self.tx_len().max(1) as f64
    }

    /// Insertion probability: insertions per transmitted bit.
    pub fn insertion_probability(&self) -> f64 {
        self.insertions as f64 / self.tx_len().max(1) as f64
    }

    /// Deletion probability: deletions per transmitted bit.
    pub fn deletion_probability(&self) -> f64 {
        self.deletions as f64 / self.tx_len().max(1) as f64
    }

    /// Length of the transmitted sequence implied by the alignment.
    pub fn tx_len(&self) -> usize {
        self.matches + self.substitutions + self.deletions
    }

    /// Length of the received sequence implied by the alignment.
    pub fn rx_len(&self) -> usize {
        self.matches + self.substitutions + self.insertions
    }
}

/// One step of an optimal alignment (see [`align_trace`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlignOp {
    /// `tx[i] == rx[j]`.
    Match,
    /// `tx[i] != rx[j]` (bit error).
    Substitute,
    /// `rx[j]` has no tx counterpart.
    Insert,
    /// `tx[i]` is missing from rx.
    Delete,
}

/// Globally aligns `tx` and `rx` with unit costs for substitution,
/// insertion and deletion, and returns the per-kind counts of the
/// minimal-cost alignment.
///
/// `O(|tx|·|rx|)` time and memory.
pub fn align(tx: &[u8], rx: &[u8]) -> Alignment {
    let trace = align_trace(tx, rx);
    let mut out = Alignment { matches: 0, substitutions: 0, insertions: 0, deletions: 0 };
    for op in trace {
        match op {
            AlignOp::Match => out.matches += 1,
            AlignOp::Substitute => out.substitutions += 1,
            AlignOp::Insert => out.insertions += 1,
            AlignOp::Delete => out.deletions += 1,
        }
    }
    out
}

/// The full operation sequence of an optimal alignment, in tx/rx
/// order. Useful for locating *where* errors happen, not just how
/// many (C-INTERMEDIATE).
pub fn align_trace(tx: &[u8], rx: &[u8]) -> Vec<AlignOp> {
    let n = tx.len();
    let m = rx.len();
    // dp[i][j]: min cost aligning tx[..i] with rx[..j]
    let mut dp = vec![0u32; (n + 1) * (m + 1)];
    let idx = |i: usize, j: usize| i * (m + 1) + j;
    for i in 0..=n {
        dp[idx(i, 0)] = i as u32;
    }
    for j in 0..=m {
        dp[idx(0, j)] = j as u32;
    }
    for i in 1..=n {
        for j in 1..=m {
            let sub = dp[idx(i - 1, j - 1)] + u32::from((tx[i - 1] & 1) != (rx[j - 1] & 1));
            let del = dp[idx(i - 1, j)] + 1;
            let ins = dp[idx(i, j - 1)] + 1;
            dp[idx(i, j)] = sub.min(del).min(ins);
        }
    }
    // Traceback, preferring diagonal moves (match/substitute).
    let mut i = n;
    let mut j = m;
    let mut ops = Vec::with_capacity(n.max(m));
    while i > 0 || j > 0 {
        if i > 0 && j > 0 {
            let sub_cost = u32::from((tx[i - 1] & 1) != (rx[j - 1] & 1));
            if dp[idx(i, j)] == dp[idx(i - 1, j - 1)] + sub_cost {
                ops.push(if sub_cost == 0 { AlignOp::Match } else { AlignOp::Substitute });
                i -= 1;
                j -= 1;
                continue;
            }
        }
        if i > 0 && dp[idx(i, j)] == dp[idx(i - 1, j)] + 1 {
            ops.push(AlignOp::Delete);
            i -= 1;
        } else {
            ops.push(AlignOp::Insert);
            j -= 1;
        }
    }
    ops.reverse();
    ops
}

/// Semi-global alignment: like [`align`], but *leading and trailing*
/// received bits that precede/follow the transmission cost nothing
/// and are not counted as insertions. This matches how the channel is
/// actually scored: the receiver synchronises on the preamble, so
/// junk decoded from channel noise before the transmission started
/// (or after it ended) is not a channel error.
pub fn align_semiglobal(tx: &[u8], rx: &[u8]) -> Alignment {
    let n = tx.len();
    let m = rx.len();
    if n == 0 {
        return Alignment { matches: 0, substitutions: 0, insertions: 0, deletions: 0 };
    }
    let mut dp = vec![0u32; (n + 1) * (m + 1)];
    let idx = |i: usize, j: usize| i * (m + 1) + j;
    for i in 0..=n {
        dp[idx(i, 0)] = i as u32;
    }
    // dp[0][j] = 0: leading rx bits are free.
    for i in 1..=n {
        for j in 1..=m {
            let sub = dp[idx(i - 1, j - 1)] + u32::from((tx[i - 1] & 1) != (rx[j - 1] & 1));
            let del = dp[idx(i - 1, j)] + 1;
            let ins = dp[idx(i, j - 1)] + 1;
            dp[idx(i, j)] = sub.min(del).min(ins);
        }
    }
    // Free trailing rx bits: finish anywhere on the last row.
    let mut j_end = m;
    for j in 0..=m {
        if dp[idx(n, j)] < dp[idx(n, j_end)] {
            j_end = j;
        }
    }
    let mut i = n;
    let mut j = j_end;
    let mut out = Alignment { matches: 0, substitutions: 0, insertions: 0, deletions: 0 };
    while i > 0 {
        if j > 0 {
            let sub_cost = u32::from((tx[i - 1] & 1) != (rx[j - 1] & 1));
            if dp[idx(i, j)] == dp[idx(i - 1, j - 1)] + sub_cost {
                if sub_cost == 0 {
                    out.matches += 1;
                } else {
                    out.substitutions += 1;
                }
                i -= 1;
                j -= 1;
                continue;
            }
            if dp[idx(i, j)] == dp[idx(i, j - 1)] + 1 {
                out.insertions += 1;
                j -= 1;
                continue;
            }
        }
        out.deletions += 1;
        i -= 1;
    }
    out
}

/// Ground-truth accounting for the Hamming(7,4) decode of a coded
/// stream (see [`crate::coding::hamming74_decode`]'s caveat: a nonzero
/// syndrome conflates genuine corrections with silent double-error
/// *miscorrections* — only a comparison against the transmitted
/// codewords can tell them apart).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CodewordAudit {
    /// Codeword pairs compared.
    pub codewords: usize,
    /// Received codewords with no channel errors.
    pub clean: usize,
    /// Codewords the decoder genuinely repaired (single-bit errors).
    pub corrected: usize,
    /// Codewords where the decoder's nonzero-syndrome "correction"
    /// produced the *wrong* data (≥2 channel errors) — the silent
    /// failure mode this audit exists to expose.
    pub miscorrected: usize,
    /// Codewords with channel errors but a zero syndrome (an error
    /// pattern that lands exactly on another codeword): the decoder
    /// saw nothing wrong and still emitted wrong data.
    pub undetected: usize,
}

/// Audits a received coded stream against the transmitted one,
/// codeword by codeword, classifying each 7-bit pair as clean,
/// corrected, miscorrected or undetected. Both streams are walked on
/// the transmitted codeword grid (trailing partial codewords are
/// ignored), so this measures the *substitution* channel the coding
/// layer actually sees — run it on marker-recovered bits, where indels
/// have already been resampled onto the nominal grid.
pub fn codeword_audit(tx_coded: &[u8], rx_coded: &[u8]) -> CodewordAudit {
    let mut audit = CodewordAudit::default();
    for (tx_cw, rx_cw) in tx_coded.chunks_exact(7).zip(rx_coded.chunks_exact(7)) {
        audit.codewords += 1;
        let errors = tx_cw.iter().zip(rx_cw).filter(|(a, b)| (**a & 1) != (**b & 1)).count();
        let (tx_nibble, _) = crate::coding::hamming74_decode(tx_cw);
        let (rx_nibble, syndrome_fired) = crate::coding::hamming74_decode(rx_cw);
        match (errors, syndrome_fired, rx_nibble == tx_nibble) {
            (0, _, _) => audit.clean += 1,
            (_, true, true) => audit.corrected += 1,
            (_, true, false) => audit.miscorrected += 1,
            (_, false, _) => audit.undetected += 1,
        }
    }
    audit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sequences_align_perfectly() {
        let bits = [1u8, 0, 1, 1, 0, 1, 0, 0];
        let a = align(&bits, &bits);
        assert_eq!(a.matches, 8);
        assert_eq!(a.substitutions + a.insertions + a.deletions, 0);
        assert_eq!(a.ber(), 0.0);
    }

    #[test]
    fn counts_substitutions() {
        let tx = [1u8, 0, 1, 0, 1, 0, 1, 0];
        let rx = [1u8, 0, 0, 0, 1, 0, 0, 0];
        let a = align(&tx, &rx);
        assert_eq!(a.substitutions, 2);
        assert_eq!(a.insertions, 0);
        assert_eq!(a.deletions, 0);
        assert!((a.ber() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn counts_a_deletion() {
        let tx = [1u8, 1, 0, 1, 0, 0, 1, 1];
        let rx = [1u8, 1, 0, 0, 0, 1, 1]; // 4th bit dropped
        let a = align(&tx, &rx);
        assert_eq!(a.deletions, 1);
        assert_eq!(a.insertions, 0);
        assert_eq!(a.substitutions, 0);
        assert_eq!(a.matches, 7);
        assert!((a.deletion_probability() - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn counts_an_insertion() {
        let tx = [0u8, 1, 1, 0, 1];
        let rx = [0u8, 1, 0, 1, 0, 1]; // extra bit after index 1
        let a = align(&tx, &rx);
        assert_eq!(a.insertions, 1);
        assert_eq!(a.deletions, 0);
        assert_eq!(a.substitutions, 0);
    }

    #[test]
    fn mixed_errors() {
        let tx = [1u8, 0, 1, 1, 0, 0, 1, 0, 1, 1];
        // delete tx[2], flip tx[5], insert a bit at the end
        let rx = [1u8, 0, 1, 0, 1, 1, 0, 1, 1, 0];
        let a = align(&tx, &rx);
        assert_eq!(a.tx_len(), 10);
        assert_eq!(a.rx_len(), 10);
        // The minimal alignment cost is bounded by the constructed errors.
        assert!(a.substitutions + a.insertions + a.deletions <= 4);
    }

    #[test]
    fn empty_sequences() {
        let a = align(&[], &[]);
        assert_eq!(a.matches, 0);
        assert_eq!(a.ber(), 0.0);
        let b = align(&[1, 0, 1], &[]);
        assert_eq!(b.deletions, 3);
        let c = align(&[], &[1, 1]);
        assert_eq!(c.insertions, 2);
    }

    #[test]
    fn semiglobal_ignores_lead_and_trail_junk() {
        let tx = [1u8, 0, 1, 1, 0, 0, 1, 0];
        let mut rx = vec![0u8, 0, 1, 0, 1]; // lead junk
        rx.extend_from_slice(&tx);
        rx.extend_from_slice(&[0, 0, 1]); // trail junk
        let a = align_semiglobal(&tx, &rx);
        assert_eq!(a.matches, 8);
        assert_eq!(a.substitutions + a.insertions + a.deletions, 0);
        // The global alignment, by contrast, must pay for the junk.
        let g = align(&tx, &rx);
        assert!(g.insertions >= 8);
    }

    #[test]
    fn semiglobal_still_counts_internal_errors() {
        let tx = [1u8, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1];
        let mut rx = vec![1u8, 1]; // lead junk
        let mut body = tx.to_vec();
        body[5] ^= 1; // substitution
        body.insert(8, 1); // insertion
        rx.extend(body);
        let a = align_semiglobal(&tx, &rx);
        assert_eq!(a.substitutions, 1);
        assert_eq!(a.insertions, 1);
        assert_eq!(a.deletions, 0);
    }

    #[test]
    fn lengths_are_consistent() {
        let tx: Vec<u8> = (0..57).map(|i| (i % 2) as u8).collect();
        let rx: Vec<u8> = (0..49).map(|i| (i % 3 == 1) as u8).collect();
        let a = align(&tx, &rx);
        assert_eq!(a.tx_len(), tx.len());
        assert_eq!(a.rx_len(), rx.len());
    }

    #[test]
    fn codeword_audit_classifies_every_outcome() {
        use crate::coding::encode_bits;
        // 4 codewords: leave #0 clean, flip 1 bit in #1, 2 bits in #2,
        // and hit #3 with an error pattern equal to another codeword
        // (distance 3) so the syndrome stays silent.
        let data: Vec<u8> = vec![1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1];
        let tx = encode_bits(&data);
        let mut rx = tx.clone();
        rx[7] ^= 1; // single error in codeword 1
        rx[14] ^= 1; // double error in codeword 2
        rx[15] ^= 1;
        // Codeword-weight error pattern for #3: XOR with a nonzero
        // codeword (encode of [1,0,0,0] = [1,1,1,0,0,0,0]).
        for (i, bit) in [1u8, 1, 1, 0, 0, 0, 0].iter().enumerate() {
            rx[21 + i] ^= bit;
        }
        let audit = codeword_audit(&tx, &rx);
        assert_eq!(audit.codewords, 4);
        assert_eq!(audit.clean, 1);
        assert_eq!(audit.corrected, 1);
        assert_eq!(audit.miscorrected, 1);
        assert_eq!(audit.undetected, 1);
    }

    #[test]
    fn codeword_audit_exposes_what_coding_stats_conflates() {
        use crate::coding::{decode_bits_reported, encode_bits};
        let data: Vec<u8> = (0..32).map(|i| (i % 3 == 0) as u8).collect();
        let tx = encode_bits(&data);
        let mut rx = tx.clone();
        rx[0] ^= 1; // genuine single-bit correction in codeword 0
        rx[8] ^= 1; // double error in codeword 1 → miscorrection
        rx[9] ^= 1;
        let (_, stats) = decode_bits_reported(&rx);
        let audit = codeword_audit(&tx, &rx);
        // The decoder alone sees two "corrections"; only the audit can
        // tell that one of them silently produced wrong data.
        assert_eq!(stats.corrected, 2);
        assert_eq!(audit.corrected, 1);
        assert_eq!(audit.miscorrected, 1);
        assert_eq!(audit.undetected, 0);
    }

    #[test]
    fn codeword_audit_of_identical_streams_is_all_clean() {
        use crate::coding::encode_bits;
        let tx = encode_bits(&[1, 0, 0, 1, 1, 1, 0, 0]);
        let audit = codeword_audit(&tx, &tx);
        assert_eq!(audit.clean, audit.codewords);
    }
}
