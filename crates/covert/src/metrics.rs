//! Channel-quality metrics: BER, insertion and deletion probabilities.
//!
//! The covert channel can *substitute* bits (power mislabeled),
//! *insert* bits (an interrupt splits one signalling period into two)
//! and *delete* bits (system activity suppresses a start edge) —
//! Fig. 8. Table II/III therefore report BER, IP and DP, which
//! requires aligning the transmitted and received sequences with a
//! unit-cost edit-distance alignment, as one compares sequences with
//! indels.
//!
//! # The alignment kernel
//!
//! Every alignment here walks back through one unit-cost matrix:
//! `dp[i][j]` is the least number of substitutions, insertions and
//! deletions that turns `tx[..i]` into `rx[..j]`, with `dp[i][0] = i`
//! and a top row of `dp[0][j] = j` ([`align`], [`align_trace`]) or
//! `dp[0][j] = 0` ([`align_semiglobal`], whose leading received bits
//! are free). The matrix is never stored. Myers' bit-vector algorithm
//! (G. Myers, "A fast bit-vector algorithm for approximate string
//! matching based on dynamic programming", J. ACM 46(3), 1999), in
//! its block form, computes it a column at a time: a `u64` holds the
//! vertical deltas `dp[i][j] − dp[i−1][j]` (each −1, 0 or +1) of 64
//! rows, and the horizontal delta of a block's last row carries into
//! the next block. The kernel keeps every column's vertical and
//! horizontal delta words, so the traceback reads exact differences of
//! `dp`. For `n = |tx|` and `m = |rx|` it takes `O(m·⌈n/64⌉)` word
//! operations and `4·(m+1)·⌈n/64⌉` words of memory: about 1.4 MB at
//! 1.65 k bits each, where the matrix would take 11 MB. The integers
//! are exact, so the counts equal the full-matrix DP's; the tests keep
//! that DP as the oracle.
//!
//! Co-optimal paths can differ in their counts (one deletion and one
//! insertion cost as much as two substitutions), so the traceback's
//! tie rules are part of the contract:
//! - bits compare by their low bit (`& 1`);
//! - global ([`align`], [`align_trace`]): from `(n, m)` to `(0, 0)`,
//!   each step is diagonal (match or substitution) when that is
//!   optimal, else a deletion when that is, else an insertion;
//! - semi-global ([`align_semiglobal`]): the walk starts on the last
//!   row, at column `m` when `dp[n][m]` is the row's minimum and else
//!   at the first column that reaches it. Each step is diagonal when
//!   that is optimal, else an insertion when that is, else a deletion
//!   (the only step at column 0). It ends on row 0.

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
    const EMPTY: Alignment =
        Alignment { matches: 0, substitutions: 0, insertions: 0, deletions: 0 };

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

    fn count(&mut self, op: AlignOp) {
        match op {
            AlignOp::Match => self.matches += 1,
            AlignOp::Substitute => self.substitutions += 1,
            AlignOp::Insert => self.insertions += 1,
            AlignOp::Delete => self.deletions += 1,
        }
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
/// minimal-cost alignment that the global tie rules pick (see the
/// [module docs](self)).
///
/// `O(|rx|·⌈|tx|/64⌉)` time and memory.
pub fn align(tx: &[u8], rx: &[u8]) -> Alignment {
    let mut out = Alignment::EMPTY;
    DeltaMatrix::fill(tx, rx, Top::Paid).walk(tx, rx, tx.len(), rx.len(), |op| out.count(op));
    out
}

/// The full operation sequence of the alignment [`align`] counts, in
/// tx/rx order. Useful for locating *where* errors happen, not just
/// how many (C-INTERMEDIATE).
pub fn align_trace(tx: &[u8], rx: &[u8]) -> Vec<AlignOp> {
    let mut ops = Vec::with_capacity(tx.len().max(rx.len()));
    DeltaMatrix::fill(tx, rx, Top::Paid).walk(tx, rx, tx.len(), rx.len(), |op| ops.push(op));
    ops.reverse();
    ops
}

/// Semi-global alignment: like [`align`], but *leading and trailing*
/// received bits that precede/follow the transmission cost nothing
/// and are not counted as insertions. This matches how the channel is
/// actually scored: the receiver synchronises on the preamble, so
/// junk decoded from channel noise before the transmission started
/// (or after it ended) is not a channel error. The semi-global tie
/// rules of the [module docs](self) pick the counted path.
///
/// `O(|rx|·⌈|tx|/64⌉)` time and memory.
pub fn align_semiglobal(tx: &[u8], rx: &[u8]) -> Alignment {
    let mut out = Alignment::EMPTY;
    let dp = DeltaMatrix::fill(tx, rx, Top::Free);
    dp.walk(tx, rx, tx.len(), dp.semiglobal_end(tx.len(), rx.len()), |op| out.count(op));
    out
}

/// The top row of the alignment matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Top {
    /// `dp[0][j] = j`: every received bit costs (global).
    Paid,
    /// `dp[0][j] = 0`: leading received bits are free (semi-global).
    Free,
}

/// One column's deltas on one 64-row block: bit `k` of block `b` is
/// row `64·b + k + 1`. `pv`/`mv` mark the rows whose vertical delta
/// `dp[i][j] − dp[i−1][j]` is +1/−1, and `ph`/`mh` those whose
/// horizontal delta `dp[i][j] − dp[i][j−1]` is +1/−1.
#[derive(Debug, Clone, Copy)]
struct Deltas {
    pv: u64,
    mv: u64,
    ph: u64,
    mh: u64,
}

/// The alignment matrix as every column's delta words (see the
/// [module docs](self)).
struct DeltaMatrix {
    top: Top,
    /// `⌈|tx|/64⌉`.
    blocks: usize,
    /// Column `j` (0 to `|rx|`) at `j·blocks..(j+1)·blocks`.
    cols: Vec<Deltas>,
}

impl DeltaMatrix {
    /// Fills the matrix of `tx` (rows) against `rx` (columns) a column
    /// at a time.
    fn fill(tx: &[u8], rx: &[u8], top: Top) -> Self {
        let blocks = tx.len().div_ceil(64);
        // eq[b][c]: the rows of block b whose tx bit is c.
        let mut eq = vec![[0u64; 2]; blocks];
        for (i, &bit) in tx.iter().enumerate() {
            eq[i / 64][usize::from(bit & 1)] |= 1 << (i % 64);
        }
        let mut cols = Vec::with_capacity((rx.len() + 1) * blocks);
        // Column 0 is dp[i][0] = i: every vertical delta is +1.
        cols.resize(blocks, Deltas { pv: !0, mv: 0, ph: 0, mh: 0 });
        let top_step = Self::top_step(top);
        for (j, &bit) in rx.iter().enumerate() {
            let c = usize::from(bit & 1);
            let mut h_in = top_step;
            for (b, eq) in eq.iter().enumerate() {
                let prev = cols[j * blocks + b];
                let (next, h_out) = advance(prev.pv, prev.mv, eq[c], h_in);
                cols.push(next);
                h_in = h_out;
            }
        }
        DeltaMatrix { top, blocks, cols }
    }

    /// `dp[0][j] − dp[0][j−1]`.
    fn top_step(top: Top) -> i32 {
        match top {
            Top::Paid => 1,
            Top::Free => 0,
        }
    }

    /// `dp[i][j] − dp[i−1][j]`, for `i ≥ 1`.
    fn dv(&self, i: usize, j: usize) -> i32 {
        let d = self.cols[j * self.blocks + (i - 1) / 64];
        let k = (i - 1) % 64;
        ((d.pv >> k) & 1) as i32 - ((d.mv >> k) & 1) as i32
    }

    /// `dp[i][j] − dp[i][j−1]`, for `j ≥ 1`.
    fn dh(&self, i: usize, j: usize) -> i32 {
        if i == 0 {
            return Self::top_step(self.top);
        }
        let d = self.cols[j * self.blocks + (i - 1) / 64];
        let k = (i - 1) % 64;
        ((d.ph >> k) & 1) as i32 - ((d.mh >> k) & 1) as i32
    }

    /// The semi-global walk's start column on the last row `n`: `m`
    /// when `dp[n][m]` is the row's minimum, else the first column
    /// that reaches it.
    fn semiglobal_end(&self, n: usize, m: usize) -> usize {
        let mut cost = n as i64;
        let (mut least, mut first) = (cost, 0);
        for j in 1..=m {
            cost += i64::from(self.dh(n, j));
            if cost < least {
                (least, first) = (cost, j);
            }
        }
        if cost == least {
            m
        } else {
            first
        }
    }

    /// Walks an optimal path back from `(i, j)` by the tie rules of the
    /// module docs, handing `visit` each step, last step first.
    fn walk(
        &self,
        tx: &[u8],
        rx: &[u8],
        mut i: usize,
        mut j: usize,
        mut visit: impl FnMut(AlignOp),
    ) {
        while i > 0 || (j > 0 && self.top == Top::Paid) {
            if i > 0 && j > 0 {
                let differ = (tx[i - 1] ^ rx[j - 1]) & 1;
                // dp[i][j] − dp[i−1][j−1], through dp[i−1][j].
                if self.dv(i, j) + self.dh(i - 1, j) == i32::from(differ) {
                    visit(if differ == 0 { AlignOp::Match } else { AlignOp::Substitute });
                    i -= 1;
                    j -= 1;
                    continue;
                }
            }
            let op = match self.top {
                Top::Paid if i > 0 && self.dv(i, j) == 1 => AlignOp::Delete,
                Top::Paid => AlignOp::Insert,
                Top::Free if j > 0 && self.dh(i, j) == 1 => AlignOp::Insert,
                Top::Free => AlignOp::Delete,
            };
            if op == AlignOp::Delete {
                i -= 1;
            } else {
                j -= 1;
            }
            visit(op);
        }
    }
}

/// Advances one 64-row block by one column: the block step of Myers
/// (1999). `pv`/`mv` are the block's vertical deltas in the previous
/// column, `eq` marks its rows whose tx bit equals this column's rx
/// bit, and `h_in` is the horizontal delta of the row above the block.
/// Returns the block's deltas in this column and the horizontal delta
/// of its last row.
#[inline]
fn advance(pv: u64, mv: u64, eq: u64, h_in: i32) -> (Deltas, i32) {
    let xv = eq | mv;
    let eq = eq | u64::from(h_in < 0);
    let xh = ((eq & pv).wrapping_add(pv) ^ pv) | eq;
    let ph = mv | !(xh | pv);
    let mh = pv & xh;
    let h_out = (ph >> 63) as i32 - (mh >> 63) as i32;
    let ph_in = (ph << 1) | u64::from(h_in > 0);
    let mh_in = (mh << 1) | u64::from(h_in < 0);
    let next = Deltas { pv: mh_in | !(xv | ph_in), mv: ph_in & xv, ph, mh };
    (next, h_out)
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
    use proptest::prelude::*;

    /// The full `(n+1)·(m+1)` matrix the kernel computes, row-major:
    /// the oracle of the bit-parallel alignment.
    fn matrix(tx: &[u8], rx: &[u8], top: Top) -> Vec<u32> {
        let n = tx.len();
        let m = rx.len();
        let mut dp = vec![0u32; (n + 1) * (m + 1)];
        let idx = |i: usize, j: usize| i * (m + 1) + j;
        for i in 0..=n {
            dp[idx(i, 0)] = i as u32;
        }
        if top == Top::Paid {
            for j in 0..=m {
                dp[idx(0, j)] = j as u32;
            }
        }
        for i in 1..=n {
            for j in 1..=m {
                let sub = dp[idx(i - 1, j - 1)] + u32::from((tx[i - 1] & 1) != (rx[j - 1] & 1));
                let del = dp[idx(i - 1, j)] + 1;
                let ins = dp[idx(i, j - 1)] + 1;
                dp[idx(i, j)] = sub.min(del).min(ins);
            }
        }
        dp
    }

    /// Global alignment over the full matrix, traced back by the tie
    /// rules of the module docs.
    fn matrix_trace(tx: &[u8], rx: &[u8]) -> Vec<AlignOp> {
        let n = tx.len();
        let m = rx.len();
        let dp = matrix(tx, rx, Top::Paid);
        let idx = |i: usize, j: usize| i * (m + 1) + j;
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

    fn matrix_align(tx: &[u8], rx: &[u8]) -> Alignment {
        let mut out = Alignment::EMPTY;
        matrix_trace(tx, rx).into_iter().for_each(|op| out.count(op));
        out
    }

    /// Semi-global alignment over the full matrix, traced back by the
    /// tie rules of the module docs.
    fn matrix_semiglobal(tx: &[u8], rx: &[u8]) -> Alignment {
        let n = tx.len();
        let m = rx.len();
        if n == 0 {
            return Alignment::EMPTY;
        }
        let dp = matrix(tx, rx, Top::Free);
        let idx = |i: usize, j: usize| i * (m + 1) + j;
        let mut j_end = m;
        for j in 0..=m {
            if dp[idx(n, j)] < dp[idx(n, j_end)] {
                j_end = j;
            }
        }
        let mut i = n;
        let mut j = j_end;
        let mut out = Alignment::EMPTY;
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

    /// All three alignments equal their matrix oracles on `(tx, rx)`.
    fn assert_matches_matrix(tx: &[u8], rx: &[u8]) {
        let what = || format!("|tx| {} |rx| {}", tx.len(), rx.len());
        assert_eq!(align_trace(tx, rx), matrix_trace(tx, rx), "align_trace, {}", what());
        assert_eq!(align(tx, rx), matrix_align(tx, rx), "align, {}", what());
        assert_eq!(align_semiglobal(tx, rx), matrix_semiglobal(tx, rx), "semiglobal, {}", what());
    }

    /// xorshift64 bits for the seeded cases below.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn random_bits(n: usize, state: &mut u64) -> Vec<u8> {
        (0..n).map(|_| (next(state) & 1) as u8).collect()
    }

    /// What a receiver makes of `tx`: junk before and after it, and
    /// per bit a substitution, deletion or insertion with the given
    /// per-mille rates.
    fn channel(
        tx: &[u8],
        lead: usize,
        trail: usize,
        per_mille: [u64; 3],
        state: &mut u64,
    ) -> Vec<u8> {
        let [sub, del, ins] = per_mille;
        let mut rx = random_bits(lead, state);
        for &bit in tx {
            let roll = next(state) % 1000;
            if roll < sub {
                rx.push(bit ^ 1);
            } else if roll < sub + del {
            } else if roll < sub + del + ins {
                rx.push((next(state) & 1) as u8);
                rx.push(bit);
            } else {
                rx.push(bit);
            }
        }
        rx.extend(random_bits(trail, state));
        rx
    }

    #[test]
    fn kernel_matches_the_matrix_at_every_word_boundary() {
        let lengths = [0, 1, 2, 63, 64, 65, 127, 128, 129, 191, 192, 193, 255, 256, 257];
        let mut state = 0x5EED_A119;
        for &n in &lengths {
            for &m in &lengths {
                let tx = random_bits(n, &mut state);
                assert_matches_matrix(&tx, &random_bits(m, &mut state));
                let rx = channel(&tx, 0, 0, [30, 30, 30], &mut state);
                assert_matches_matrix(&tx, &rx[..rx.len().min(m)]);
            }
        }
    }

    #[test]
    fn kernel_matches_the_matrix_on_channel_like_pairs_at_table_lengths() {
        // Table II transfers carry about 1.45 k-1.65 k bits, E6's
        // marker-coded ones up to about 2 k; the rates run from a
        // clean near field to a heavily impaired channel.
        let mut state = 0xE6_7AB1E2;
        for (n, per_mille) in
            [(600, [2, 1, 1]), (1_000, [40, 20, 20]), (1_450, [10, 5, 5]), (2_000, [80, 40, 40])]
        {
            let tx = random_bits(n, &mut state);
            let rx = channel(&tx, 37, 21, per_mille, &mut state);
            assert_matches_matrix(&tx, &rx);
        }
    }

    #[test]
    fn semiglobal_end_column_rule() {
        // Last row of tx = [1] against rx = [1, 0, 1]: 1 0 1 0. The
        // minimum is at m, so the walk starts there, not at column 1.
        let (tx, rx) = ([1u8], [1u8, 0, 1]);
        assert_eq!(DeltaMatrix::fill(&tx, &rx, Top::Free).semiglobal_end(1, 3), 3);
        assert_matches_matrix(&tx, &rx);
        // Against rx = [1, 0, 1, 0] it is 1 0 1 0 1: the minimum is
        // not at m, so the walk starts at its first column, 1, not 3.
        let (tx, rx) = ([1u8], [1u8, 0, 1, 0]);
        assert_eq!(DeltaMatrix::fill(&tx, &rx, Top::Free).semiglobal_end(1, 4), 1);
        assert_matches_matrix(&tx, &rx);
        // The same two outcomes over three words of rows. A copy of tx
        // and then a copy with its last bit flipped: the first copy's
        // end, column 130, is the only zero of the last row.
        let mut state = 0xC0FFEE;
        let tx = random_bits(130, &mut state);
        let mut rx = tx.clone();
        rx.extend(&tx[..129]);
        rx.push(tx[129] ^ 1);
        assert_eq!(DeltaMatrix::fill(&tx, &rx, Top::Free).semiglobal_end(130, rx.len()), 130);
        assert_matches_matrix(&tx, &rx);
        // A copy of tx, its complement and a copy again: columns 130
        // and m both reach 0, and the walk starts at m.
        let mut rx = tx.clone();
        rx.extend(tx.iter().map(|b| b ^ 1));
        rx.extend(&tx);
        assert_eq!(DeltaMatrix::fill(&tx, &rx, Top::Free).semiglobal_end(130, rx.len()), rx.len());
        assert_matches_matrix(&tx, &rx);
    }

    /// A bit pattern of period 1-6 repeated to a length of 0-300: many
    /// co-optimal paths, so the tie rules decide the counts.
    fn periodic() -> impl Strategy<Value = Vec<u8>> {
        (prop::collection::vec(0u8..=1, 1..=6), 0usize..=300)
            .prop_map(|(period, n)| period.iter().copied().cycle().take(n).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn kernel_matches_the_matrix_on_raw_bytes(
            tx in prop::collection::vec(any::<u8>(), 0..=300),
            rx in prop::collection::vec(any::<u8>(), 0..=300),
        ) {
            assert_matches_matrix(&tx, &rx);
        }

        #[test]
        fn kernel_matches_the_matrix_on_periodic_inputs(tx in periodic(), rx in periodic()) {
            assert_matches_matrix(&tx, &rx);
        }

        #[test]
        fn kernel_matches_the_matrix_on_channel_like_pairs(
            n in 0usize..=300,
            lead in 0usize..40,
            trail in 0usize..40,
            (sub, del, ins) in (0u64..150, 0u64..100, 0u64..100),
            seed in any::<u64>(),
        ) {
            let mut state = seed | 1;
            let tx = random_bits(n, &mut state);
            let rx = channel(&tx, lead, trail, [sub, del, ins], &mut state);
            assert_matches_matrix(&tx, &rx);
        }
    }

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
        assert_eq!(align_trace(&[1, 0, 1], &[]), vec![AlignOp::Delete; 3]);
        assert_eq!(align_trace(&[], &[1, 1]), vec![AlignOp::Insert; 2]);
        assert_eq!(align_semiglobal(&[1, 0, 1], &[]).deletions, 3);
        assert_eq!(align_semiglobal(&[], &[1, 1]), Alignment::EMPTY);
        for (tx, rx) in [(&[][..], &[][..]), (&[1, 0, 1][..], &[][..]), (&[][..], &[1, 1][..])] {
            assert_matches_matrix(tx, rx);
        }
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
        use crate::coding::{decode_bits, encode_bits};
        let data: Vec<u8> = (0..32).map(|i| (i % 3 == 0) as u8).collect();
        let tx = encode_bits(&data);
        let mut rx = tx.clone();
        rx[0] ^= 1; // genuine single-bit correction in codeword 0
        rx[8] ^= 1; // double error in codeword 1 → miscorrection
        rx[9] ^= 1;
        let (_, stats) = decode_bits(&rx);
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
