//! Real-valued DSP helpers: convolution, smoothing, peak detection.
//!
//! These are the building blocks of the paper's receiver: the edge
//! detector (§IV-B2) convolves the energy signal with a `[+1 … +1,
//! −1 … −1]` kernel to mimic a derivative, then takes local maxima of
//! the result as bit-start points.
//!
//! The convolution kernels here sit on **bit-pinned** paths (the
//! streaming `ConvolveStream` equivalence suite and the receiver's
//! edge chain), so their rewrites are restructure-only: they drop
//! per-element bounds checks, but every output accumulates its terms
//! in the historical order and is bit-identical to the original
//! implementation (DESIGN.md §12). Each kernel has one form: a
//! one-shot call returns a fresh result, and the streams in
//! [`crate::stream`] own the buffers of their chunk-fed equivalents.

/// Full linear convolution of `signal` with `kernel` (output length
/// `signal.len() + kernel.len() - 1`, empty if either input is empty)
/// into a caller-owned buffer (cleared and refilled; no allocation
/// after a warm-up call at the largest size). The kernel of
/// [`convolve_same`].
///
/// Scatter form: for each input sample the kernel is swept across a
/// contiguous output slice — an axpy the compiler vectorizes — and
/// each output still receives its `signal[i]·kernel[j]` terms in
/// ascending-`i` order, so results are bit-identical to the historical
/// nested-index loop.
pub fn convolve_full_into(signal: &[f64], kernel: &[f64], out: &mut Vec<f64>) {
    out.clear();
    if signal.is_empty() || kernel.is_empty() {
        return;
    }
    let n = signal.len() + kernel.len() - 1;
    out.resize(n, 0.0);
    for (i, &s) in signal.iter().enumerate() {
        for (o, &r) in out[i..i + kernel.len()].iter_mut().zip(kernel) {
            *o += s * r;
        }
    }
}

/// "Same"-size convolution: the centre `signal.len()` samples of the
/// full convolution, so output index `i` aligns with input index `i`.
///
/// Alignment convention for **even-length** kernels (which have no
/// centre tap): output index `i` is full-convolution index
/// `i + (k − 1)/2` with flooring division, i.e. the kernel's notional
/// centre sits half a sample *early* — the same convention as NumPy's
/// `convolve(…, 'same')`. This is deliberate, not an off-by-one: for
/// the always-even [`edge_kernel`] it places the response peak of a
/// rising step *exactly at the step index* (a step at sample `s`
/// peaks at full index `s + l/2 − 1`, and `start = l/2 − 1` maps that
/// back to `s`), so bit-start estimates are not biased late. Centring
/// on `k/2` instead would report every edge one sample early.
pub fn convolve_same(signal: &[f64], kernel: &[f64]) -> Vec<f64> {
    if signal.is_empty() || kernel.is_empty() {
        return vec![0.0; signal.len()];
    }
    let mut full = Vec::new();
    convolve_full_into(signal, kernel, &mut full);
    let start = (kernel.len() - 1) / 2;
    full.truncate(start + signal.len());
    full.drain(..start);
    full
}

/// The paper's derivative-mimicking kernel: `l/2` ones followed by
/// `l/2` minus-ones. Convolving with it produces a peak wherever the
/// signal steps upward (the start-of-bit edge).
///
/// Note on orientation: convolution flips the kernel, so to score
/// "recent samples high, older samples low" (a rising edge) the
/// *leading* half holds `+1`.
///
/// # Panics
///
/// Panics if `l` is zero or odd.
pub fn edge_kernel(l: usize) -> Vec<f64> {
    assert!(l > 0 && l.is_multiple_of(2), "edge kernel length must be positive and even");
    let mut k = vec![1.0; l];
    for v in k.iter_mut().take(l / 2) {
        *v = -1.0;
    }
    // After convolution's flip, the -1 half applies to newer samples'
    // past and +1 to the recent rise. We build [-1…,+1…] so that the
    // flipped kernel is [+1…,-1…] over (past → present).
    k.reverse();
    k
}

/// Simple moving average over a centred window of `width` samples
/// (edges use the available partial window).
pub fn moving_average(signal: &[f64], width: usize) -> Vec<f64> {
    if width <= 1 || signal.is_empty() {
        return signal.to_vec();
    }
    let half = width / 2;
    // prefix sums for O(n)
    let mut prefix = vec![0.0; signal.len() + 1];
    let mut running = 0.0;
    for (slot, &v) in prefix[1..].iter_mut().zip(signal) {
        running += v;
        *slot = running;
    }
    (0..signal.len())
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(signal.len());
            (prefix[hi] - prefix[lo]) / (hi - lo) as f64
        })
        .collect()
}

/// A detected local maximum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// Sample index of the maximum.
    pub index: usize,
    /// Signal value at the maximum.
    pub value: f64,
}

/// Finds local maxima of `signal` that are at least `min_height` tall,
/// enforcing a minimum spacing of `min_distance` samples between
/// retained peaks (taller peaks win).
///
/// A flat-topped maximum (a plateau, e.g. `[1, 5, 5, 5, 1]`) is
/// reported once, at the **centre** of the plateau — reporting the
/// first or last plateau sample would bias bit-start estimates early
/// or late whenever quantisation flattens an edge-response peak.
///
/// Suppression is greedy: candidates are visited tallest first
/// (stable on ties), and each one still kept drops every shorter or
/// equal candidate closer than `min_distance`. Candidates are in index
/// order, so those form a contiguous run on either side of the kept
/// peak, and only that run is walked: `O(c log c + c·w)` for `c`
/// candidates with at most `w` inside any `min_distance` span.
pub fn find_peaks(signal: &[f64], min_height: f64, min_distance: usize) -> Vec<Peak> {
    let candidates: Vec<Peak> = local_maxima(signal, min_height).collect();
    if min_distance <= 1 {
        return candidates;
    }
    // `total_cmp` keeps the sort total even if a non-finite value ever
    // slips through the threshold test (NaN can't — `NaN >= h` is
    // false — but +inf can), matching the panic-free policy.
    let mut by_height: Vec<usize> = (0..candidates.len()).collect();
    by_height.sort_by(|&a, &b| candidates[b].value.total_cmp(&candidates[a].value));
    let mut keep = vec![true; candidates.len()];
    for &i in &by_height {
        if !keep[i] {
            continue;
        }
        let Peak { index, value } = candidates[i];
        let near = |j: &usize| candidates[*j].index.abs_diff(index) < min_distance;
        for j in (0..i).rev().take_while(near).chain((i + 1..candidates.len()).take_while(near)) {
            if candidates[j].value <= value {
                keep[j] = false;
            }
        }
    }
    candidates.into_iter().zip(keep).filter_map(|(p, k)| k.then_some(p)).collect()
}

/// The interior local maxima of `signal` at least `min_height` tall,
/// in index order, each plateau once at its centre: the candidates
/// [`find_peaks`] suppresses among.
pub(crate) fn local_maxima(signal: &[f64], min_height: f64) -> impl Iterator<Item = Peak> + '_ {
    let n = signal.len();
    let mut i = 1;
    std::iter::from_fn(move || {
        while i < n.saturating_sub(1) {
            // A candidate plateau starts where the signal stops falling:
            // signal[i] >= signal[i-1], and runs while values stay equal.
            if signal[i] >= min_height && signal[i] >= signal[i - 1] {
                let start = i;
                let mut j = i;
                while j + 1 < n && signal[j + 1] == signal[start] {
                    j += 1;
                }
                i = j + 1;
                // Interior maximum only: the plateau must be followed by
                // a strict drop (a plateau running to the last sample is
                // an edge, not a peak).
                if j + 1 < n && signal[j + 1] < signal[start] {
                    return Some(Peak { index: start + (j - start) / 2, value: signal[start] });
                }
            } else {
                i += 1;
            }
        }
        None
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`convolve_full_into`] into a buffer holding stale data, which
    /// the kernel must clear.
    fn full(signal: &[f64], kernel: &[f64]) -> Vec<f64> {
        let mut out = vec![9.0; 3];
        convolve_full_into(signal, kernel, &mut out);
        out
    }

    #[test]
    fn convolution_with_identity_kernel() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(full(&x, &[1.0]), x.to_vec());
        assert_eq!(convolve_same(&x, &[1.0]), x.to_vec());
    }

    #[test]
    fn convolution_known_answer() {
        // [1,2,3] * [1,1] = [1,3,5,3]
        assert_eq!(full(&[1.0, 2.0, 3.0], &[1.0, 1.0]), vec![1.0, 3.0, 5.0, 3.0]);
    }

    #[test]
    fn convolution_is_commutative() {
        let a = [1.0, -2.0, 0.5, 3.0];
        let b = [0.25, 4.0, -1.0];
        assert_eq!(full(&a, &b), full(&b, &a));
    }

    #[test]
    fn edge_kernel_peaks_on_rising_step() {
        // Step from 0 to 1 at index 50.
        let mut x = vec![0.0; 100];
        for v in x.iter_mut().skip(50) {
            *v = 1.0;
        }
        let response = convolve_same(&x, &edge_kernel(16));
        let peak = find_peaks(&response, 1.0, 4);
        assert_eq!(peak.len(), 1);
        assert!(peak[0].index.abs_diff(50) <= 8, "peak at {}", peak[0].index);
        assert!((peak[0].value - 8.0).abs() < 1e-9); // l/2 · step height
    }

    #[test]
    fn edge_kernel_ignores_falling_step() {
        let mut x = vec![1.0; 100];
        for v in x.iter_mut().skip(50) {
            *v = 0.0;
        }
        let response = convolve_same(&x, &edge_kernel(16));
        assert!(find_peaks(&response, 1.0, 4).is_empty());
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_edge_kernel_panics() {
        edge_kernel(7);
    }

    #[test]
    fn even_kernel_alignment_pins_step_response_at_step_index() {
        // Pin the documented convention: for every even edge-kernel
        // length, the 'same'-mode response to a clean step peaks at
        // exactly the step index — no late (or early) bias.
        for l in [2usize, 4, 8, 16, 32] {
            let step_at = 40;
            let mut x = vec![0.0; 100];
            for v in x.iter_mut().skip(step_at) {
                *v = 1.0;
            }
            let response = convolve_same(&x, &edge_kernel(l));
            let argmax = response
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap();
            assert_eq!(argmax, step_at, "kernel length {l}");
        }
    }

    #[test]
    fn find_peaks_is_nan_and_inf_safe() {
        // NaN samples can never clear the threshold; an +inf sample
        // may, and the suppression sort must stay total either way.
        let x = [0.0, 3.0, 0.0, f64::NAN, 0.0, f64::INFINITY, 0.0, 2.0, 0.0];
        let peaks = find_peaks(&x, 0.5, 3);
        assert!(peaks.iter().all(|p| !p.value.is_nan()));
        assert!(peaks.iter().any(|p| p.index == 5));
    }

    #[test]
    fn plateau_peak_reports_centre() {
        // [0,1,5,5,5,1,0]: the plateau spans indices 2..=4 — the
        // reported peak must be the centre sample, index 3.
        let x = [0.0, 1.0, 5.0, 5.0, 5.0, 1.0, 0.0];
        let peaks = find_peaks(&x, 0.5, 1);
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].index, 3);
        assert_eq!(peaks[0].value, 5.0);
        // Even-length plateau: centre rounds down (index 2 of 2..=3).
        let y = [0.0, 5.0, 5.0, 0.0];
        let peaks = find_peaks(&y, 0.5, 1);
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].index, 1);
    }

    #[test]
    fn moving_average_smooths_noise() {
        let x: Vec<f64> = (0..200).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let y = moving_average(&x, 10);
        assert!(y[100].abs() < 0.21);
    }

    #[test]
    fn moving_average_preserves_constant() {
        let x = vec![3.5; 64];
        for v in moving_average(&x, 9) {
            assert!((v - 3.5).abs() < 1e-12);
        }
    }

    #[test]
    fn peaks_respect_min_distance() {
        // Two nearby bumps: only the taller survives.
        let mut x = vec![0.0; 64];
        x[20] = 2.0;
        x[24] = 5.0;
        x[50] = 3.0;
        let peaks = find_peaks(&x, 0.5, 10);
        let idx: Vec<usize> = peaks.iter().map(|p| p.index).collect();
        assert_eq!(idx, vec![24, 50]);
    }

    #[test]
    fn peaks_respect_min_height() {
        let mut x = vec![0.0; 32];
        x[5] = 0.4;
        x[15] = 2.0;
        let peaks = find_peaks(&x, 1.0, 1);
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].index, 15);
    }

    #[test]
    fn plateau_counts_once() {
        // Flat-topped bump: >= on the left, > on the right reports the
        // plateau once, at its centre sample.
        let x = [0.0, 1.0, 1.0, 1.0, 0.0];
        let peaks = find_peaks(&x, 0.5, 1);
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].index, 2);
    }

    #[test]
    fn moving_average_handles_empty_and_single_sample_inputs() {
        assert!(moving_average(&[], 5).is_empty());
        assert!(moving_average(&[], 0).is_empty());
        // A single sample is its own centred average at any width.
        assert_eq!(moving_average(&[7.25], 1), vec![7.25]);
        assert_eq!(moving_average(&[7.25], 2), vec![7.25]);
        assert_eq!(moving_average(&[7.25], 99), vec![7.25]);
        // Width larger than the signal degrades to the global mean.
        assert_eq!(moving_average(&[1.0, 3.0], 100), vec![2.0, 2.0]);
    }

    #[test]
    fn convolve_same_empty_inputs_keep_signal_length() {
        assert!(convolve_same(&[], &[1.0, 2.0]).is_empty());
        assert_eq!(convolve_same(&[1.0, 2.0, 3.0], &[]), vec![0.0; 3]);
        assert!(full(&[], &[1.0]).is_empty());
        assert!(full(&[1.0], &[]).is_empty());
    }
}
