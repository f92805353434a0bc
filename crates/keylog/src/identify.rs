//! Key identification: shrinking the search space from timing alone.
//!
//! §V-B: "existing work has shown that the duration of each keystroke
//! and the time difference between two consecutive keys can also be
//! leveraged to further reduce the search space for key
//! identification" — Salthouse's regularities make the *inter-key
//! interval* informative about the key *pair* (far-apart pairs come
//! faster; frequent digraphs come faster). This module quantifies that
//! reduction: given an observed interval, how many of the possible
//! digraphs remain plausible, and how many bits of password-guessing
//! entropy the attacker gains.

#[cfg(test)]
use crate::typist::key_distance;
use crate::typist::Typist;

/// The lowercase key set considered for identification.
pub const KEY_SET: &[char] = &[
    'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 'n', 'o', 'p', 'q', 'r', 's',
    't', 'u', 'v', 'w', 'x', 'y', 'z', ' ',
];

/// Candidate digraphs consistent with one observed inter-key interval.
#[derive(Debug, Clone)]
pub struct DigraphCandidates {
    /// The observed interval, seconds.
    pub interval_s: f64,
    /// Digraphs whose expected interval lies within the tolerance.
    pub candidates: Vec<(char, char)>,
    /// Total digraphs considered.
    pub universe: usize,
}

impl DigraphCandidates {
    /// Entropy gained over a uniform prior, in bits
    /// (`log₂(universe / candidates)`).
    pub fn entropy_gain_bits(&self) -> f64 {
        if self.candidates.is_empty() || self.universe == 0 {
            return 0.0;
        }
        (self.universe as f64 / self.candidates.len() as f64).log2()
    }
}

/// Returns the digraphs whose expected inter-key interval (under the
/// typist model) is within `±tolerance` (relative) of the observed
/// interval.
pub fn digraph_candidates(typist: &Typist, interval_s: f64, tolerance: f64) -> DigraphCandidates {
    let mut candidates = Vec::new();
    let mut universe = 0;
    for &a in KEY_SET {
        for &b in KEY_SET {
            universe += 1;
            let expected = typist.mean_interval_s(a, b);
            if (interval_s - expected).abs() <= tolerance * expected {
                candidates.push((a, b));
            }
        }
    }
    DigraphCandidates { interval_s, candidates, universe }
}

/// Search-space summary for a whole observed keystroke sequence: the
/// per-interval entropy gains and their total — the number of bits of
/// brute-force work the timing analysis saves the attacker.
#[derive(Debug, Clone)]
pub struct SearchSpaceReduction {
    /// Per-interval entropy gain, bits.
    pub per_interval_bits: Vec<f64>,
    /// Total gain over the sequence, bits.
    pub total_bits: f64,
}

/// Analyses the intervals of a detected keystroke time sequence.
pub fn search_space_reduction(
    typist: &Typist,
    times_s: &[f64],
    tolerance: f64,
) -> SearchSpaceReduction {
    let per_interval_bits: Vec<f64> = times_s
        .windows(2)
        .map(|w| digraph_candidates(typist, w[1] - w[0], tolerance).entropy_gain_bits())
        .collect();
    let total_bits = per_interval_bits.iter().sum();
    SearchSpaceReduction { per_interval_bits, total_bits }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fast_intervals_exclude_slow_digraphs() {
        let typist = Typist::default();
        // A very fast interval: only far-apart or frequent pairs fit.
        let fast = digraph_candidates(&typist, 0.10, 0.1);
        // A middling interval keeps more of the universe.
        let mid = digraph_candidates(&typist, 0.20, 0.1);
        assert!(fast.candidates.len() < mid.candidates.len());
        assert!(fast.entropy_gain_bits() > mid.entropy_gain_bits());
        // The fast candidates are dominated by distant/frequent pairs.
        let mean_distance: f64 =
            fast.candidates.iter().map(|&(a, b)| key_distance(a, b)).sum::<f64>()
                / fast.candidates.len().max(1) as f64;
        let mid_distance: f64 =
            mid.candidates.iter().map(|&(a, b)| key_distance(a, b)).sum::<f64>()
                / mid.candidates.len().max(1) as f64;
        assert!(mean_distance > mid_distance);
    }

    #[test]
    fn entropy_gain_is_nonnegative_and_bounded() {
        let typist = Typist::default();
        for interval in [0.08, 0.12, 0.18, 0.25, 0.4] {
            let c = digraph_candidates(&typist, interval, 0.15);
            let g = c.entropy_gain_bits();
            let max = (c.universe as f64).log2();
            assert!((0.0..=max).contains(&g), "gain {g} for interval {interval}");
        }
    }

    #[test]
    fn real_typing_yields_positive_reduction() {
        let typist = Typist::default();
        let mut rng = StdRng::seed_from_u64(4);
        let keys = typist.type_text("the quick brown fox", 0.0, &mut rng);
        let times: Vec<f64> = keys.iter().map(|k| k.press_s).collect();
        let r = search_space_reduction(&typist, &times, 0.2);
        assert_eq!(r.per_interval_bits.len(), times.len() - 1);
        assert!(r.total_bits > 5.0, "total gain {} bits", r.total_bits);
        // Average of at least ~0.3 bit per keystroke from timing alone.
        let per_key = r.total_bits / r.per_interval_bits.len() as f64;
        assert!(per_key > 0.3, "per-interval {per_key}");
    }

    #[test]
    fn impossible_interval_gains_nothing() {
        let typist = Typist::default();
        let c = digraph_candidates(&typist, 10.0, 0.05);
        assert!(c.candidates.is_empty());
        assert_eq!(c.entropy_gain_bits(), 0.0);
    }

    #[test]
    fn empty_sequence_reduces_nothing() {
        let typist = Typist::default();
        let r = search_space_reduction(&typist, &[], 0.2);
        assert!(r.per_interval_bits.is_empty());
        assert_eq!(r.total_bits, 0.0);
    }
}
