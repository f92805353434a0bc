//! Incremental (chunk-fed) counterparts of the batch receive DSP.
//!
//! The paper's attack is inherently streaming: the SDR near the victim
//! produces I/Q continuously, and a practical receiver demodulates
//! while samples arrive instead of materialising a whole capture
//! first. This module provides resumable state machines that consume
//! arbitrary sample chunks and produce **bit-identical** output to the
//! batch functions they mirror:
//!
//! | Streaming type | Batch equivalent |
//! |---|---|
//! | [`EnergyStream`] | [`crate::sliding::try_energy_signal`] |
//! | [`SmoothStream`] | [`crate::dsp::moving_average`] |
//! | [`ConvolveSameStream`] | [`crate::dsp::convolve_same`] |
//!
//! The energy pair is one implementation: `try_energy_signal` is one
//! push of an [`EnergyStream`] and its classification, and the stream
//! is pinned to a single [`SlidingDft::process_into`] call over the
//! whole input.
//!
//! Bit-identity is an invariant, not an aspiration: every accumulator
//! here performs the *same floating-point operations in the same
//! order* as its batch counterpart, so chunk boundaries can never
//! change a single output bit (the `emsc-tests` chunk-invariance suite
//! pins the receivers built on these across chunk sizes 1, 7, 64 Ki
//! and a mixed walk, and pins their one-push output to the batch
//! kernels).
//! That is what lets a long-running multi-sensor service reuse every
//! determinism guarantee the batch experiments already have.

use std::collections::VecDeque;

use crate::error::CaptureError;
use crate::fft::{forward_twiddle, MAX_TRANSFORM_SIZE};
use crate::iq::Complex;
use crate::sliding::SlidingDft;
use crate::window::Window;

fn is_finite(x: &Complex) -> bool {
    x.re.is_finite() && x.im.is_finite()
}

/// The end-of-stream verdict every stream here shares, in this
/// precedence: nothing seen, less than one `window`, or mostly
/// non-finite samples.
fn classify(seen: usize, window: usize, non_finite: usize) -> Result<(), CaptureError> {
    if seen == 0 {
        return Err(CaptureError::Empty);
    }
    if seen < window {
        return Err(CaptureError::TooShort { needed: window, got: seen });
    }
    if non_finite * 2 > seen {
        return Err(CaptureError::NonFinite { count: non_finite, total: seen });
    }
    Ok(())
}

/// Incremental Eq. (1) energy signal: feeds a [`SlidingDft`] and emits
/// one decimated energy value wherever one
/// [`SlidingDft::process_into`] call over the whole input would,
/// carrying the DFT window, the decimation phase and the sanitisation
/// counters across chunk boundaries. The whole-capture form
/// [`crate::sliding::try_energy_signal`] is one push of it.
///
/// Non-finite samples are replaced with zero *inline* (a dropout, as a
/// dongle glitch produces) and counted; whether the whole stream was
/// usable is decided at the end via
/// [`EnergyStream::classify`], because "majority non-finite" is a
/// whole-capture property that cannot be known mid-stream.
///
/// The stream owns every buffer it works in: the tracker its ring
/// copies, and the stream the sanitised copy of a chunk that holds a
/// non-finite sample. Once they have grown to the largest chunk, a
/// push allocates nothing beyond `out`'s growth.
#[derive(Debug, Clone)]
pub struct EnergyStream {
    sdft: SlidingDft,
    decimation: usize,
    seen: usize,
    sanitized: usize,
    /// The sanitised copy of the last chunk that needed one.
    clean: Vec<Complex>,
}

impl EnergyStream {
    /// Creates a stream tracking the given bins over `window`-sample
    /// sliding DFTs, emitting every `decimation`-th primed value.
    ///
    /// # Errors
    ///
    /// [`CaptureError::InvalidConfig`] for a zero window or
    /// decimation, an empty bin set, or an out-of-range bin.
    pub fn new(window: usize, bins: &[usize], decimation: usize) -> Result<Self, CaptureError> {
        if decimation == 0 {
            return Err(CaptureError::InvalidConfig("decimation must be positive"));
        }
        let sdft = SlidingDft::try_new(window, bins)?;
        Ok(EnergyStream { sdft, decimation, seen: 0, sanitized: 0, clean: Vec::new() })
    }

    /// Feeds one chunk, appending any newly-completed energy samples
    /// to `out`. Returns how many were appended. The common all-finite
    /// case runs straight off the caller's slice via the blocked
    /// [`SlidingDft::process_into`]; a chunk with a non-finite sample
    /// runs off the stream's sanitised copy.
    pub fn push_into(&mut self, chunk: &[Complex], out: &mut Vec<f64>) -> usize {
        let before = out.len();
        if chunk.iter().all(is_finite) {
            self.sdft.process_into(chunk, self.decimation, out);
        } else {
            self.clean.clear();
            self.clean.extend(chunk.iter().map(|x| {
                if is_finite(x) {
                    *x
                } else {
                    self.sanitized += 1;
                    Complex::ZERO
                }
            }));
            self.sdft.process_into(&self.clean, self.decimation, out);
        }
        self.seen += chunk.len();
        out.len() - before
    }

    /// Non-finite input samples zeroed so far.
    pub fn sanitized(&self) -> usize {
        self.sanitized
    }

    /// End-of-stream classification, in this precedence: empty,
    /// shorter than one window, or majority-non-finite streams are
    /// errors; anything else is a legitimate (possibly silent)
    /// capture.
    ///
    /// # Errors
    ///
    /// [`CaptureError::Empty`], [`CaptureError::TooShort`] or
    /// [`CaptureError::NonFinite`], as above.
    pub fn classify(&self) -> Result<(), CaptureError> {
        classify(self.seen, self.sdft.window(), self.sanitized)
    }
}

/// Incremental band energy of non-overlapping windows: for every
/// complete `n`-sample window, `Σ |X[k]|` over the band's bins in
/// their order, where `X` is the forward FFT of the window's samples
/// weighted by a [`Window`]. Bit-identical to a non-overlapping
/// [`crate::stft::stft`] followed by
/// [`crate::stft::Spectrogram::band_energy`], but it computes only the
/// butterflies that feed the band.
///
/// At stage `s` of the radix-2 decimation-in-time transform
/// ([`crate::fft::FftPlan::forward`]), the butterflies that feed bin
/// `k` pair the natural indices `r` and `r + n/2^s`, for `r < n/2^s`.
/// (Slot `i` of the plan's bit-reversed buffer holds `r = bitrev(i)`,
/// and `bitrev(2i + 1) = bitrev(2i) + n/2^s` at that stage's width.)
/// Each butterfly takes the twiddle of `k mod 2^(s−1)` and, by bit
/// `s − 1` of `k`, the sum or the difference. So the stream keeps the
/// plan's operands, twiddles and expressions and changes only where
/// the values are stored:
///
/// - Stage 1 runs as the samples arrive. The window's first half is
///   stored weighted; each second-half sample `x` completes
///   `u ± w₀·(x·h)` in place over its partner `u`, once for each bin
///   parity the band needs. The same pass counts non-finite samples.
/// - At the window's last sample each band bin halves its parity's
///   stage-1 values into a contiguous scratch, `z[r] = u ± w·z[r + h]`,
///   and halves that in place down to `X[k]`.
///
/// Non-finite samples are counted, not replaced: they propagate
/// through the butterflies as through the full transform. A trailing
/// partial window emits nothing.
#[derive(Debug, Clone)]
pub struct BandEnergyStream {
    /// Window weights, `n` long.
    weights: Vec<f64>,
    bins: Vec<usize>,
    /// Per band bin in order, the twiddle and the sign (`true` for
    /// `u − t`) of each stage after the first: `log2 n − 1` entries a
    /// bin.
    stages: Vec<(Complex, bool)>,
    /// Stage 1's twiddle, `e^{-2πi·0/n}` as the plan holds it.
    w0: Complex,
    /// The window's first half, weighted; the second half turns it in
    /// place into stage 1 of the odd bins when the band has only odd
    /// ones (`head_odd`), else of the even bins. `⌈n/2⌉` long, so a
    /// one-point window is stored here whole.
    head: Vec<Complex>,
    head_odd: bool,
    /// Stage 1 of the odd bins when the band has even ones too; empty
    /// otherwise.
    odd: Vec<Complex>,
    /// The halvings of one bin, `n/4` long.
    scratch: Vec<Complex>,
    /// Samples of the current window received so far.
    fill: usize,
    seen: usize,
    non_finite: usize,
}

impl BandEnergyStream {
    /// Creates a stream over `n`-sample windows weighted by `window`,
    /// summing the magnitudes of `bins` in the order given. An empty
    /// band is allowed: each window's energy is then the empty sum.
    ///
    /// # Errors
    ///
    /// [`CaptureError::InvalidConfig`] when `n` is not a power of two
    /// or exceeds [`MAX_TRANSFORM_SIZE`], or a bin is `n` or more.
    pub fn new(n: usize, window: Window, bins: &[usize]) -> Result<Self, CaptureError> {
        if !n.is_power_of_two() || n > MAX_TRANSFORM_SIZE {
            return Err(CaptureError::InvalidConfig(
                "window must be a power of two of at most 2^16 samples",
            ));
        }
        if bins.iter().any(|&k| k >= n) {
            return Err(CaptureError::InvalidConfig("bin index out of range"));
        }
        let log2n = n.trailing_zeros();
        let stages = bins
            .iter()
            .flat_map(|&k| {
                (2..=log2n).map(move |s| {
                    let half = 1usize << (s - 1);
                    (forward_twiddle((k & (half - 1)) * (n >> s), n), k & half != 0)
                })
            })
            .collect();
        let has_even = bins.iter().any(|&k| k % 2 == 0);
        let has_odd = bins.iter().any(|&k| k % 2 == 1);
        Ok(BandEnergyStream {
            weights: window.coefficients(n),
            bins: bins.to_vec(),
            stages,
            w0: forward_twiddle(0, n),
            head: vec![Complex::ZERO; n.div_ceil(2)],
            head_odd: has_odd && !has_even,
            odd: if has_odd && has_even { vec![Complex::ZERO; n / 2] } else { Vec::new() },
            scratch: vec![Complex::ZERO; n / 4],
            fill: 0,
            seen: 0,
            non_finite: 0,
        })
    }

    /// Feeds one chunk, appending the energy of every window it
    /// completes to `out`. Returns how many were appended. Allocates
    /// nothing apart from `out`'s amortised growth.
    pub fn push_into(&mut self, mut chunk: &[Complex], out: &mut Vec<f64>) -> usize {
        let before = out.len();
        let n = self.weights.len();
        let lead = self.head.len();
        self.seen += chunk.len();
        while !chunk.is_empty() {
            let at = self.fill;
            let end = if at < lead { lead } else { n };
            let take = (end - at).min(chunk.len());
            let (part, rest) = chunk.split_at(take);
            let weights = &self.weights[at..at + take];
            self.non_finite += if at < lead {
                store_weighted(&mut self.head[at..at + take], part, weights)
            } else {
                let r = at - lead;
                let head = &mut self.head[r..r + take];
                let w0 = self.w0;
                if !self.odd.is_empty() {
                    stage1_both(head, &mut self.odd[r..r + take], part, weights, w0)
                } else if self.head_odd {
                    stage1(head, part, weights, w0, |u, t| u - t)
                } else {
                    stage1(head, part, weights, w0, |u, t| u + t)
                }
            };
            self.fill += take;
            chunk = rest;
            if self.fill == n {
                self.fill = 0;
                let energy = (0..self.bins.len()).map(|b| self.bin(b).abs()).sum();
                out.push(energy);
            }
        }
        out.len() - before
    }

    /// `X[k]` of the band's `b`-th bin, from stage 1 of the window just
    /// completed.
    fn bin(&mut self, b: usize) -> Complex {
        let k = self.bins[b];
        let src = if k % 2 == 1 && !self.odd.is_empty() { &self.odd } else { &self.head };
        let per_bin = (self.weights.len().trailing_zeros() as usize).saturating_sub(1);
        let stages = &self.stages[b * per_bin..(b + 1) * per_bin];
        let Some((&(w, upper), rest)) = stages.split_first() else {
            // n ≤ 2: stage 1 (or, at n = 1, the weighted sample) is
            // the whole transform.
            return src[0];
        };
        let mut h = src.len() / 2;
        let (lo, hi) = src.split_at(h);
        if upper {
            halve(lo, hi, &mut self.scratch[..h], w, |u, t| u - t);
        } else {
            halve(lo, hi, &mut self.scratch[..h], w, |u, t| u + t);
        }
        for &(w, upper) in rest {
            h /= 2;
            let (lo, hi) = self.scratch[..2 * h].split_at_mut(h);
            if upper {
                halve_in_place(lo, hi, w, |u, t| u - t);
            } else {
                halve_in_place(lo, hi, w, |u, t| u + t);
            }
        }
        self.scratch[0]
    }

    /// Raw samples consumed so far, the partial window included.
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// Non-finite samples consumed so far.
    pub fn non_finite(&self) -> usize {
        self.non_finite
    }

    /// End-of-stream classification, with [`EnergyStream::classify`]'s
    /// rules against one window of `n` samples.
    ///
    /// # Errors
    ///
    /// [`CaptureError::Empty`], [`CaptureError::TooShort`] or
    /// [`CaptureError::NonFinite`].
    pub fn classify(&self) -> Result<(), CaptureError> {
        classify(self.seen, self.weights.len(), self.non_finite)
    }
}

/// The first half of a window: `slot = x·h`. Returns how many samples
/// were not finite.
fn store_weighted(slots: &mut [Complex], xs: &[Complex], weights: &[f64]) -> usize {
    let mut bad = 0;
    for ((slot, x), &h) in slots.iter_mut().zip(xs).zip(weights) {
        bad += usize::from(!is_finite(x));
        *slot = x.scale(h);
    }
    bad
}

/// Stage 1 over the second half for one bin parity: `u = op(u, w₀·(x·h))`.
/// Returns how many samples were not finite.
fn stage1(
    head: &mut [Complex],
    xs: &[Complex],
    weights: &[f64],
    w0: Complex,
    op: impl Fn(Complex, Complex) -> Complex,
) -> usize {
    let mut bad = 0;
    for ((u, x), &h) in head.iter_mut().zip(xs).zip(weights) {
        bad += usize::from(!is_finite(x));
        *u = op(*u, w0 * x.scale(h));
    }
    bad
}

/// Stage 1 over the second half for both parities: the sum in place,
/// the difference into `odd`. Returns how many samples were not finite.
fn stage1_both(
    head: &mut [Complex],
    odd: &mut [Complex],
    xs: &[Complex],
    weights: &[f64],
    w0: Complex,
) -> usize {
    let mut bad = 0;
    for (((u, d), x), &h) in head.iter_mut().zip(odd).zip(xs).zip(weights) {
        bad += usize::from(!is_finite(x));
        let t = w0 * x.scale(h);
        *d = *u - t;
        *u += t;
    }
    bad
}

/// One later stage of one bin into `out`: `out[r] = op(lo[r], w·hi[r])`.
fn halve(
    lo: &[Complex],
    hi: &[Complex],
    out: &mut [Complex],
    w: Complex,
    op: impl Fn(Complex, Complex) -> Complex,
) {
    for ((o, &u), &v) in out.iter_mut().zip(lo).zip(hi) {
        *o = op(u, w * v);
    }
}

/// `halve` with `out` = `lo`.
fn halve_in_place(
    lo: &mut [Complex],
    hi: &[Complex],
    w: Complex,
    op: impl Fn(Complex, Complex) -> Complex,
) {
    for (u, &v) in lo.iter_mut().zip(hi) {
        *u = op(*u, w * v);
    }
}

/// Incremental centred moving average, bit-identical to
/// [`crate::dsp::moving_average`].
///
/// The batch version computes prefix sums and divides windowed
/// differences; reproducing its results exactly means carrying the
/// *same running prefix accumulator* (not re-summing windows, which
/// would change floating-point rounding). Output `i` needs the prefix
/// value at `i + half + 1`, so the stream runs `half` samples behind
/// its input; [`SmoothStream::finish_into`] flushes the tail with the
/// end-of-signal clamp the batch version applies.
#[derive(Debug, Clone)]
pub struct SmoothStream {
    width: usize,
    half: usize,
    /// Running prefix value `p[seen]` and the retained tail of recent
    /// prefix values `p[seen + 1 - len ..= seen]`, enough to serve the
    /// widest window either emission path can request.
    prefix_last: f64,
    prefix_tail: VecDeque<f64>,
    seen: usize,
    emitted: usize,
}

impl SmoothStream {
    /// Creates a moving average over `width` samples. A width of zero
    /// or one is a pass-through, exactly like the batch function.
    pub fn new(width: usize) -> Self {
        let half = width / 2;
        let mut prefix_tail = VecDeque::with_capacity(2 * half + 2);
        prefix_tail.push_back(0.0);
        SmoothStream { width, half, prefix_last: 0.0, prefix_tail, seen: 0, emitted: 0 }
    }

    fn prefix_at(&self, j: usize) -> f64 {
        // prefix_tail holds p[seen + 1 - len ..= seen] back-to-front.
        let oldest = self.seen + 1 - self.prefix_tail.len();
        self.prefix_tail[j - oldest]
    }

    /// Feeds one chunk, appending completed outputs to `out`; returns
    /// how many were appended.
    pub fn push_into(&mut self, chunk: &[f64], out: &mut Vec<f64>) -> usize {
        if self.width <= 1 {
            out.extend_from_slice(chunk);
            return chunk.len();
        }
        let before = out.len();
        for &v in chunk {
            self.prefix_last += v;
            self.prefix_tail.push_back(self.prefix_last);
            if self.prefix_tail.len() > 2 * self.half + 2 {
                self.prefix_tail.pop_front();
            }
            self.seen += 1;
            // Sample j (= seen-1) completes output i = j - half: its
            // window tops out at prefix[i + half + 1] = prefix[j + 1].
            let j = self.seen - 1;
            if j >= self.half {
                let i = j - self.half;
                let lo = i.saturating_sub(self.half);
                let hi = i + self.half + 1;
                out.push((self.prefix_at(hi) - self.prefix_at(lo)) / (hi - lo) as f64);
                self.emitted += 1;
            }
        }
        out.len() - before
    }

    /// Flushes the `half` trailing outputs whose windows are clamped
    /// by the end of the signal, appending them to `out`.
    pub fn finish_into(&mut self, out: &mut Vec<f64>) -> usize {
        if self.width <= 1 {
            return 0;
        }
        let n = self.seen;
        let before = out.len();
        for i in self.emitted..n {
            let lo = i.saturating_sub(self.half);
            let hi = (i + self.half + 1).min(n);
            out.push((self.prefix_at(hi) - self.prefix_at(lo)) / (hi - lo) as f64);
        }
        self.emitted = n;
        out.len() - before
    }
}

/// Incremental "same"-size convolution, bit-identical to
/// [`crate::dsp::convolve_same`].
///
/// The batch version accumulates `out[i + j] += s[i] * k[j]` with the
/// signal index ascending, so each full-convolution output is a fold
/// over signal samples in increasing order starting from `0.0`. This
/// stream reproduces that fold directly over a ring of the last
/// `kernel.len()` inputs. Output `i` aligns with full-convolution
/// index `i + (l − 1)/2`, so emission runs `(l − 1)/2` samples behind
/// the input; [`ConvolveSameStream::finish_into`] flushes the tail.
#[derive(Debug, Clone)]
pub struct ConvolveSameStream {
    kernel: Vec<f64>,
    ring: Vec<f64>,
    start: usize,
    seen: usize,
    emitted: usize,
}

impl ConvolveSameStream {
    /// Creates a stream convolving its input with `kernel`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel is empty (the receiver's edge kernel is
    /// always at least 4 taps).
    pub fn new(kernel: &[f64]) -> Self {
        assert!(!kernel.is_empty(), "kernel must not be empty");
        ConvolveSameStream {
            kernel: kernel.to_vec(),
            ring: vec![0.0; kernel.len()],
            start: (kernel.len() - 1) / 2,
            seen: 0,
            emitted: 0,
        }
    }

    /// Full-convolution output `m`, folded over retained signal
    /// samples in ascending index order — the exact operation sequence
    /// of [`crate::dsp::convolve_full_into`].
    fn full_at(&self, m: usize) -> f64 {
        let l = self.kernel.len();
        let lo = m.saturating_sub(l - 1);
        let hi = m.min(self.seen - 1);
        // Sample `i` sits in ring slot `i % l`: samples `lo..=hi` are
        // the ring from slot `lo % l`, wrapping at most once, so the
        // fold walks two slices instead of dividing per tap.
        let n = hi + 1 - lo;
        let start = lo % l;
        let first = n.min(l - start);
        let samples = self.ring[start..start + first].iter().chain(&self.ring[..n - first]);
        let taps = self.kernel[m - hi..=m - lo].iter().rev();
        samples.zip(taps).fold(0.0, |acc, (x, k)| acc + x * k)
    }

    /// Feeds one chunk, appending completed outputs to `out`; returns
    /// how many were appended.
    pub fn push_into(&mut self, chunk: &[f64], out: &mut Vec<f64>) -> usize {
        let before = out.len();
        let l = self.kernel.len();
        for &v in chunk {
            self.ring[self.seen % l] = v;
            self.seen += 1;
            let j = self.seen - 1;
            if j >= self.start {
                out.push(self.full_at(j));
                self.emitted += 1;
            }
        }
        out.len() - before
    }

    /// Flushes the trailing outputs (full-convolution indices past the
    /// last input), appending them to `out`.
    pub fn finish_into(&mut self, out: &mut Vec<f64>) -> usize {
        let n = self.seen;
        let before = out.len();
        for i in self.emitted..n {
            out.push(self.full_at(i + self.start));
        }
        self.emitted = n;
        out.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsp::{convolve_same, edge_kernel, moving_average};
    use crate::fft::{frequency_bin, FftPlan};
    use crate::stft::{stft, StftConfig};

    fn chirpy(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                Complex::new(
                    (0.013 * t).sin() + 0.2 * (0.11 * t).cos(),
                    (0.007 * t * t * 1e-3).sin(),
                )
            })
            .collect()
    }

    fn chunk_sizes() -> Vec<usize> {
        vec![1, 7, 64, 1000, usize::MAX]
    }

    /// The energy signal from one [`SlidingDft::process_into`] call
    /// over the whole (finite) input.
    fn one_process_into(
        samples: &[Complex],
        window: usize,
        bins: &[usize],
        decimation: usize,
    ) -> Vec<f64> {
        let mut out = Vec::new();
        SlidingDft::try_new(window, bins).unwrap().process_into(samples, decimation, &mut out);
        out
    }

    #[test]
    fn energy_stream_is_bit_identical_to_batch_at_any_chunking() {
        let samples = chirpy(5000);
        let batch = one_process_into(&samples, 128, &[7, 31], 24);
        for chunk in chunk_sizes() {
            let mut stream = EnergyStream::new(128, &[7, 31], 24).unwrap();
            let mut got = Vec::new();
            for c in samples.chunks(chunk.min(samples.len())) {
                stream.push_into(c, &mut got);
            }
            assert_eq!(got.len(), batch.len(), "chunk {chunk}");
            for (i, (a, b)) in got.iter().zip(&batch).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "chunk {chunk}, sample {i}");
            }
            assert!(stream.classify().is_ok());
        }
    }

    #[test]
    fn energy_stream_sanitizes_like_the_batch_path() {
        let mut samples = chirpy(3000);
        samples[100] = Complex::new(f64::NAN, 0.0);
        samples[1700] = Complex::new(f64::INFINITY, f64::NEG_INFINITY);
        let mut cleaned = samples.clone();
        cleaned[100] = Complex::ZERO;
        cleaned[1700] = Complex::ZERO;
        let batch = one_process_into(&cleaned, 128, &[7], 8);
        // 700-sample chunks hold a lane group of four 128-sample runs
        // and end inside the next, so the sanitised copies of the
        // chunks with a NaN take the lane path too.
        for chunk in [17, 700, samples.len()] {
            let mut stream = EnergyStream::new(128, &[7], 8).unwrap();
            let mut got = Vec::new();
            for c in samples.chunks(chunk) {
                stream.push_into(c, &mut got);
            }
            assert_eq!(stream.sanitized(), 2, "chunk {chunk}");
            assert_eq!(got.len(), batch.len(), "chunk {chunk}");
            for (a, b) in got.iter().zip(&batch) {
                assert_eq!(a.to_bits(), b.to_bits(), "chunk {chunk}");
            }
        }
    }

    #[test]
    fn energy_stream_classifies_like_the_batch_path() {
        let mut empty = EnergyStream::new(64, &[3], 1).unwrap();
        assert_eq!(empty.classify(), Err(CaptureError::Empty));
        empty.push_into(&chirpy(10), &mut Vec::new());
        assert_eq!(empty.classify(), Err(CaptureError::TooShort { needed: 64, got: 10 }));
        let mut nan = EnergyStream::new(64, &[3], 1).unwrap();
        nan.push_into(&vec![Complex::new(f64::NAN, f64::NAN); 256], &mut Vec::new());
        assert_eq!(nan.classify(), Err(CaptureError::NonFinite { count: 256, total: 256 }));
        assert!(matches!(EnergyStream::new(64, &[3], 0), Err(CaptureError::InvalidConfig(_))));
        assert!(matches!(EnergyStream::new(64, &[], 1), Err(CaptureError::InvalidConfig(_))));
    }

    #[test]
    fn smooth_stream_is_bit_identical_to_batch_at_any_chunking() {
        let signal: Vec<f64> = (0..777).map(|i| ((i * 37) % 91) as f64 * 0.173 - 3.0).collect();
        for width in [0usize, 1, 2, 3, 5, 8, 900] {
            let batch = moving_average(&signal, width);
            for chunk in chunk_sizes() {
                let mut stream = SmoothStream::new(width);
                let mut got = Vec::new();
                for c in signal.chunks(chunk.min(signal.len())) {
                    stream.push_into(c, &mut got);
                }
                stream.finish_into(&mut got);
                assert_eq!(got.len(), batch.len(), "width {width}, chunk {chunk}");
                for (i, (a, b)) in got.iter().zip(&batch).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "width {width}, chunk {chunk}, out {i}");
                }
            }
        }
    }

    #[test]
    fn convolve_stream_is_bit_identical_to_batch_at_any_chunking() {
        let signal: Vec<f64> = (0..500).map(|i| ((i * 53) % 101) as f64 * 0.07 - 2.5).collect();
        for l in [2usize, 4, 16, 64] {
            let kernel = edge_kernel(l);
            let batch = convolve_same(&signal, &kernel);
            for chunk in chunk_sizes() {
                let mut stream = ConvolveSameStream::new(&kernel);
                let mut got = Vec::new();
                for c in signal.chunks(chunk.min(signal.len())) {
                    stream.push_into(c, &mut got);
                }
                stream.finish_into(&mut got);
                assert_eq!(got.len(), batch.len(), "l {l}, chunk {chunk}");
                for (i, (a, b)) in got.iter().zip(&batch).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "l {l}, chunk {chunk}, out {i}");
                }
            }
        }
    }

    #[test]
    fn convolve_stream_handles_signals_shorter_than_the_kernel() {
        let kernel = edge_kernel(16);
        for n in 0..12 {
            let signal: Vec<f64> = (0..n).map(|i| i as f64 + 0.5).collect();
            let batch = convolve_same(&signal, &kernel);
            let mut stream = ConvolveSameStream::new(&kernel);
            let mut got = Vec::new();
            stream.push_into(&signal, &mut got);
            stream.finish_into(&mut got);
            assert_eq!(got.len(), batch.len(), "n {n}");
            for (a, b) in got.iter().zip(&batch) {
                assert_eq!(a.to_bits(), b.to_bits(), "n {n}");
            }
        }
    }

    /// Deterministic xorshift input with a few exact zeros and
    /// negative zeros among the values.
    fn noisy(n: usize, seed: u64) -> Vec<Complex> {
        let mut s = seed;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            match s % 16 {
                0 => 0.0,
                1 => -0.0,
                r => (s >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0 + r as f64 * 1e-3,
            }
        };
        (0..n).map(|_| Complex::new(next(), next())).collect()
    }

    /// `f64` bits with every NaN payload mapped to one: the compiler
    /// may commute an addition's operands, which keeps the value but
    /// not a NaN's payload.
    fn bits(v: f64) -> u64 {
        if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    /// Feeds one `x.len()`-sample window in `chunk`-sized pieces and
    /// asserts that every band bin of `bins` is bit-identical to that
    /// bin of the window weighted and run through `forward`, and the
    /// emitted energy to their magnitudes summed in band order.
    fn assert_window_matches_forward(x: &[Complex], window: Window, bins: &[usize], chunk: usize) {
        let n = x.len();
        let mut stream = BandEnergyStream::new(n, window, bins).expect("valid band");
        let mut energies = Vec::new();
        for c in x.chunks(chunk) {
            stream.push_into(c, &mut energies);
        }
        let mut full: Vec<Complex> =
            x.iter().zip(window.coefficients(n)).map(|(s, w)| s.scale(w)).collect();
        FftPlan::new(n).forward(&mut full);
        for (b, &k) in bins.iter().enumerate() {
            let bin = stream.bin(b);
            assert_eq!(
                (bits(bin.re), bits(bin.im)),
                (bits(full[k].re), bits(full[k].im)),
                "bin {k} of a {n}-point transform, band {bins:?}"
            );
        }
        let energy: f64 = bins.iter().map(|&k| full[k].abs()).sum();
        assert_eq!(energies.len(), 1);
        assert_eq!(bits(energies[0]), bits(energy), "{n}-point band {bins:?}");
    }

    #[test]
    fn band_stream_bins_equal_the_full_transform_bit_for_bit() {
        for log2n in 0..=10 {
            let n = 1usize << log2n;
            let x = noisy(n, 0x9E37_79B9 + n as u64);
            // Every bin at once (both parities), then single bins of
            // each parity and a repeated bin.
            assert_window_matches_forward(&x, Window::Hann, &(0..n).collect::<Vec<_>>(), n);
            for bins in [vec![0], vec![n - 1], vec![n / 2, n / 2], vec![n - 1, 0, n - 1]] {
                assert_window_matches_forward(&x, Window::Hann, &bins, 7);
            }
        }
        // The edges of the spectrum and the keystroke detector's band
        // at its 8192-point window: the 970 kHz VRM and its second
        // harmonic, tuned at 1.455 MHz and sampled at 2.4 Msps (both
        // odd bins).
        let n = 8192;
        let band: Vec<usize> =
            [970e3, 1.94e6].iter().map(|f| frequency_bin(f - 1.455e6, n, 2.4e6)).collect();
        assert!(band.iter().all(|k| k % 2 == 1), "band {band:?}");
        let x = noisy(n, 7);
        assert_window_matches_forward(&x, Window::Hann, &band, n);
        let mut bins = vec![0, 1, n / 2 - 1, n / 2, n - 1];
        bins.extend(&band);
        assert_window_matches_forward(&x, Window::Blackman, &bins, 1000);
    }

    #[test]
    fn band_stream_propagates_non_finite_samples_like_the_transform() {
        let mut x = noisy(64, 3);
        x[5] = Complex::new(f64::INFINITY, 0.0);
        x[17] = Complex::new(f64::NAN, -1.0);
        x[40] = Complex::new(0.5, f64::NEG_INFINITY);
        for window in [Window::Hann, Window::Rectangular] {
            assert_window_matches_forward(&x, window, &(0..64).collect::<Vec<_>>(), 64);
            assert_window_matches_forward(&x, window, &[3, 3, 9], 1);
            assert_window_matches_forward(&x, window, &[12], 33);
        }
    }

    #[test]
    fn band_stream_matches_the_stft_band_energy_at_any_chunking() {
        // Four and a half windows, so the chunkings straddle every
        // window edge and leave a partial window behind.
        let n = 256;
        let mut x = noisy(4 * n + n / 2, 11);
        x[300] = Complex::new(f64::NAN, 0.0);
        x[777] = Complex::new(f64::NEG_INFINITY, f64::INFINITY);
        for (window, bins) in [
            (Window::Hann, vec![37]),
            (Window::Hamming, vec![8, 200, 8]),
            (Window::Rectangular, vec![1, 2, 255]),
        ] {
            let spec = stft(&x, 1.0, &StftConfig::non_overlapping(n, window));
            let want: Vec<f64> = (0..spec.frames())
                .map(|t| bins.iter().map(|&k| spec.magnitude(t, k)).sum())
                .collect();
            for chunk in [1, 7, n - 1, n, n + 1, x.len()] {
                let mut stream = BandEnergyStream::new(n, window, &bins).expect("valid band");
                let mut got = Vec::new();
                for c in x.chunks(chunk) {
                    stream.push_into(c, &mut got);
                }
                assert_eq!(got.len(), 4, "chunk {chunk}");
                let got: Vec<u64> = got.into_iter().map(bits).collect();
                assert_eq!(got, want.iter().map(|&e| bits(e)).collect::<Vec<_>>(), "chunk {chunk}");
            }
        }
        // The keylog band through the spectrogram's own band extraction.
        let fs = 2.4e6;
        let band = [970e3 - 1.455e6, 1.94e6 - 1.455e6];
        let x = noisy(3 * 8192 + 100, 5);
        let spec = stft(&x, fs, &StftConfig::non_overlapping(8192, Window::Hann));
        let bins: Vec<usize> = band.iter().map(|&f| frequency_bin(f, 8192, fs)).collect();
        let mut stream = BandEnergyStream::new(8192, Window::Hann, &bins).expect("valid band");
        let mut got = Vec::new();
        for c in x.chunks(32 * 1024 / 3) {
            stream.push_into(c, &mut got);
        }
        let want = spec.band_energy(&band);
        assert_eq!(got.len(), 3);
        assert_eq!(
            got.into_iter().map(bits).collect::<Vec<_>>(),
            want.into_iter().map(bits).collect::<Vec<_>>()
        );
    }

    #[test]
    fn band_stream_counts_samples_and_classifies_like_the_energy_stream() {
        let mut stream = BandEnergyStream::new(16, Window::Hann, &[3]).expect("valid band");
        assert_eq!(stream.classify(), Err(CaptureError::Empty));
        let mut out = Vec::new();
        let mut x = noisy(40, 9);
        x[2] = Complex::new(f64::NAN, 0.0);
        x[20] = Complex::new(0.0, f64::INFINITY);
        x[39] = Complex::new(f64::NEG_INFINITY, f64::NAN);
        assert_eq!(stream.push_into(&x[..10], &mut out), 0);
        assert_eq!((stream.seen(), stream.non_finite()), (10, 1));
        assert_eq!(stream.classify(), Err(CaptureError::TooShort { needed: 16, got: 10 }));
        // Two whole windows and a trailing partial one of 8 samples.
        assert_eq!(stream.push_into(&x[10..], &mut out), 2);
        assert_eq!((stream.seen(), stream.non_finite(), out.len()), (40, 3, 2));
        assert_eq!(stream.classify(), Ok(()));
        stream.push_into(&vec![Complex::new(f64::NAN, 1.0); 50], &mut out);
        assert_eq!(stream.classify(), Err(CaptureError::NonFinite { count: 53, total: 90 }));
        // An empty band still counts its windows, at the empty sum.
        let mut empty = BandEnergyStream::new(4, Window::Hann, &[]).expect("valid band");
        let mut out = Vec::new();
        empty.push_into(&noisy(9, 1), &mut out);
        let empty_sum: f64 = std::iter::empty::<f64>().sum();
        assert_eq!(
            out.iter().map(|e| e.to_bits()).collect::<Vec<_>>(),
            vec![empty_sum.to_bits(); 2]
        );
    }

    #[test]
    fn band_stream_scratch_is_reused() {
        // Bins of both parities, so stage 1 fills `head` and `odd`, and
        // every bin halves through `scratch`.
        let mut stream =
            BandEnergyStream::new(256, Window::Hann, &[0, 37, 255]).expect("valid band");
        let buffers = |s: &BandEnergyStream| {
            [&s.head, &s.odd, &s.scratch].map(|v| (v.as_ptr(), v.capacity()))
        };
        let before = buffers(&stream);
        let mut out = Vec::with_capacity(8);
        for c in noisy(5 * 256 + 100, 11).chunks(97) {
            stream.push_into(c, &mut out);
        }
        assert_eq!(out.len(), 5);
        assert_eq!(buffers(&stream), before, "stage buffers must not reallocate");
    }

    #[test]
    fn band_stream_rejects_a_bin_past_the_end_and_a_bad_window() {
        for (n, bins) in
            [(8, vec![8]), (8, vec![2, 9]), (0, vec![]), (12, vec![1]), (1 << 17, vec![1])]
        {
            assert!(
                matches!(
                    BandEnergyStream::new(n, Window::Hann, &bins),
                    Err(CaptureError::InvalidConfig(_))
                ),
                "n {n}, bins {bins:?}"
            );
        }
        assert!(BandEnergyStream::new(1, Window::Hann, &[0]).is_ok());
    }
}
