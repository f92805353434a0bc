//! Sliding discrete Fourier transform for per-sample bin tracking.
//!
//! The paper's receiver (§IV-B, Eq. (1)) computes, for *every* sample
//! position `n`, the sum of FFT-bin magnitudes over the set `S` of
//! VRM-related frequency components — an STFT with "maximum
//! overlapping" (hop = 1). Computing a full 1024-point FFT per sample
//! is wasteful when only two or three bins are needed, so this module
//! implements the classic sliding-DFT recursion
//!
//! ```text
//! F_{n+1}[k] = (F_n[k] + x[n+1] − x[n+1−M]) · e^{+2πik/M}
//! ```
//!
//! with an exact re-summation from the last `M` samples every `M`
//! pushes (the *refresh*) to keep floating-point drift bounded. The
//! result is numerically equal (to ~1e-9) to evaluating a
//! rectangular-windowed DFT at every sample, at `O(|S|)` per sample.
//!
//! # Runs as lanes
//!
//! A refresh recomputes every bin from the ring of the last `M`
//! samples alone, so the `M − 1` incremental pushes that follow it (a
//! *run*) depend only on input samples, never on an earlier run. The
//! block kernel [`SlidingDft::process_into`] therefore advances
//! `LANES` consecutive runs of a chunk in lockstep, one run per lane.
//! Each lane performs exactly [`SlidingDft::push`]'s floating-point
//! operations in `push`'s order, so its results are bit-identical,
//! while the core overlaps `LANES` independent `((v + x) − old)·r`
//! chains instead of waiting on one.

use crate::error::CaptureError;
use crate::iq::Complex;
use crate::stream::EnergyStream;

/// Runs that [`SlidingDft::process_into`] advances in lockstep: four
/// `f64` lanes fill one AVX register or two SSE2/NEON registers.
const LANES: usize = 4;

/// Steps the walker transposes into lane-major form at a time.
const BLOCK: usize = 16;

/// Tracks the complex value of selected DFT bins over a sliding
/// rectangular window of `M` samples.
#[derive(Debug, Clone)]
pub struct SlidingDft {
    window: usize,
    bins: Vec<usize>,
    /// Per-bin phase rotator `e^{+2πik/M}`.
    rotators: Vec<Complex>,
    /// Exact-resummation twiddles `e^{-2πikm/M}`, row-major per bin —
    /// precomputed so the periodic refresh costs no trig at runtime.
    refresh_twiddles: Vec<Complex>,
    /// Per-bin current value `F_n[k]`.
    values: Vec<Complex>,
    /// Ring buffer of the last `M` input samples.
    ring: Vec<Complex>,
    head: usize,
    seen: usize,
    since_refresh: usize,
    /// The lane walker's per-bin state: bin `k`'s value in each run
    /// of the group it is advancing.
    lanes: Vec<BinLanes>,
    /// The walker's next `BLOCK` steps, lane-major: the real and
    /// imaginary parts of each lane's pushed and evicted sample.
    block: Vec<[[f64; LANES]; 4]>,
    /// [`SlidingDft::process_into`]'s copies from the ring: the
    /// samples the run in progress still evicts, then the window of a
    /// refresh that reaches back across the chunk edge.
    ring_copies: Vec<Complex>,
}

/// One bin's value in each of up to `LANES` runs, real and imaginary
/// parts apart so one step updates every lane with packed arithmetic.
#[derive(Debug, Clone, Copy, Default)]
struct BinLanes {
    re: [f64; LANES],
    im: [f64; LANES],
}

/// The incremental pushes of one run, as a lane of the walker sees
/// them.
#[derive(Clone, Copy)]
struct Run<'a> {
    /// The sample each push adds…
    xs: &'a [Complex],
    /// …and the one it evicts, `window` samples older.
    olds: &'a [Complex],
    /// Step of the run's first emission (step 0 is the state the run
    /// opens with, step `t` follows `xs[t − 1]`), and the output slot
    /// it fills; later emissions follow every `decimation` steps.
    emit: usize,
    slot: usize,
}

/// The decimation grid: push number `s`, counted from the tracker's
/// birth, emits iff `s ≥ window` and `(s − window) % decimation == 0`.
#[derive(Clone, Copy)]
struct Grid {
    window: usize,
    decimation: usize,
}

impl Grid {
    /// How many of the pushes `1..=s` emit.
    fn emitted_through(self, s: usize) -> usize {
        if s < self.window {
            0
        } else {
            (s - self.window) / self.decimation + 1
        }
    }

    /// The first emitting push numbered `s` or later (saturating).
    fn next_from(self, s: usize) -> usize {
        if s <= self.window {
            return self.window;
        }
        (s - self.window)
            .div_ceil(self.decimation)
            .saturating_mul(self.decimation)
            .saturating_add(self.window)
    }
}

impl SlidingDft {
    /// Creates a tracker over a window of `window` samples for the
    /// given bin indices.
    ///
    /// # Errors
    ///
    /// [`CaptureError::InvalidConfig`] if `window` is zero, `bins` is
    /// empty, or any bin index is `>= window`. An empty `bins` slice
    /// is what the receiver sees when no tracked harmonic falls inside
    /// the captured band, so callers can map that case to a "no
    /// carrier" decode failure.
    pub fn try_new(window: usize, bins: &[usize]) -> Result<Self, CaptureError> {
        if window == 0 {
            return Err(CaptureError::InvalidConfig("window must be positive"));
        }
        if bins.is_empty() {
            return Err(CaptureError::InvalidConfig("at least one bin must be tracked"));
        }
        if bins.iter().any(|&k| k >= window) {
            return Err(CaptureError::InvalidConfig("bin index out of range"));
        }
        let rotators = bins
            .iter()
            .map(|&k| Complex::cis(2.0 * std::f64::consts::PI * k as f64 / window as f64))
            .collect();
        let refresh_twiddles = bins
            .iter()
            .flat_map(|&k| {
                (0..window).map(move |m| {
                    Complex::cis(-2.0 * std::f64::consts::PI * k as f64 * m as f64 / window as f64)
                })
            })
            .collect();
        Ok(SlidingDft {
            window,
            bins: bins.to_vec(),
            rotators,
            refresh_twiddles,
            values: vec![Complex::ZERO; bins.len()],
            ring: vec![Complex::ZERO; window],
            head: 0,
            seen: 0,
            since_refresh: 0,
            lanes: vec![BinLanes::default(); bins.len()],
            block: vec![[[0.0; LANES]; 4]; BLOCK],
            ring_copies: Vec::new(),
        })
    }

    /// Window length `M`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Tracked bin indices.
    pub fn bins(&self) -> &[usize] {
        &self.bins
    }

    /// Pushes one sample and updates every tracked bin. This
    /// per-sample recurrence is the reference that tests pin
    /// [`SlidingDft::process_into`] to, bit for bit.
    pub fn push(&mut self, x: Complex) {
        let oldest = self.ring[self.head];
        self.ring[self.head] = x;
        self.head += 1;
        if self.head == self.window {
            self.head = 0;
        }
        self.seen += 1;
        self.since_refresh += 1;
        if self.since_refresh >= self.window {
            self.refresh();
        } else {
            for (v, r) in self.values.iter_mut().zip(&self.rotators) {
                *v = (*v + x - oldest) * *r;
            }
        }
    }

    /// Exactly recomputes every tracked bin from the ring buffer,
    /// clearing accumulated floating-point drift. Twiddles come from
    /// the table built in [`SlidingDft::try_new`] and the ring is walked
    /// as two contiguous runs, so the summation order — and therefore
    /// every bit of the result — matches the original modular-index,
    /// trig-per-term loop.
    fn refresh(&mut self) {
        self.since_refresh = 0;
        let w = self.window;
        // Ring order: ring[head] is the oldest sample (index 0 of the
        // window). Bins interleave at each `m` so the independent
        // accumulator chains overlap in the pipeline; each bin's own
        // `acc += x · tw[m]` sequence — and therefore every result
        // bit — is unchanged from a bin-at-a-time walk.
        for v in self.values.iter_mut() {
            *v = Complex::ZERO;
        }
        let tw = &self.refresh_twiddles[..];
        let mut m = 0;
        for run in [&self.ring[self.head..], &self.ring[..self.head]] {
            for &x in run {
                for (bi, v) in self.values.iter_mut().enumerate() {
                    *v += x * tw[bi * w + m];
                }
                m += 1;
            }
        }
    }

    /// Advances the tracker over a whole block of (already finite)
    /// samples, appending one Eq. (1) energy value — the bin-order
    /// [`SlidingDft::magnitude_sum`] fold — for every primed position
    /// on the `decimation` grid, exactly as a
    /// [`SlidingDft::push`]-per-sample loop would.
    ///
    /// The block splits at the refresh pushes into runs (see the
    /// [module docs](self)), and a lane walker advances them:
    ///
    /// - the run in progress carries on from the tracked values, its
    ///   evicted samples copied from the ring;
    /// - the run opened by the first refresh, if that refresh's window
    ///   still reaches back into the ring, opens from a copy of that
    ///   window;
    /// - every later run reads its window and samples straight from
    ///   `chunk`, and they go `LANES` at a time through the walker.
    ///   Leftover runs and the run cut by the end of the chunk go
    ///   through the same walker as a single lane.
    ///
    /// **Bit-identical by construction** (the oracle test and the
    /// chunk-equivalence suite pin it): a lane's opening refresh sums
    /// `x[m] · e^{−2πikm/M}` over its window oldest first, as `push`'s
    /// refresh does, and each step applies `push`'s
    /// `((v + x) − old) · r` per bin; every emission folds `|F[k]|` in
    /// bin order from the same start as `magnitude_sum`. The tracker
    /// keeps both copies in one buffer it owns, which holds fewer than
    /// two windows of samples whatever the chunk length.
    ///
    /// The decimation grid is anchored at the priming sample: an
    /// output is emitted after push number `s` (counted from the
    /// tracker's birth) iff `s ≥ window` and
    /// `(s − window) % decimation == 0`.
    ///
    /// # Panics
    ///
    /// Panics if `decimation` is zero.
    pub fn process_into(&mut self, chunk: &[Complex], decimation: usize, out: &mut Vec<f64>) {
        assert!(decimation > 0, "decimation must be positive");
        let (w, len, seen0) = (self.window, chunk.len(), self.seen);
        let grid = Grid { window: w, decimation };
        let out_base = out.len();
        let before = grid.emitted_through(seen0);
        out.resize(out_base + grid.emitted_through(seen0 + len) - before, 0.0);
        // The first emission of a run that opens at push `s`, as a
        // step of the run, and its output slot.
        let schedule =
            |s: usize| (grid.next_from(s) - s, out_base + grid.emitted_through(s - 1) - before);

        // Chunk index of the next refresh push: the run in progress
        // has `open` incremental pushes left. Unless it was just
        // opened, the window of that refresh reaches back into the
        // ring, which also holds the samples the run still evicts.
        let mut open = w - 1 - self.since_refresh;
        let carried = open.min(len);
        let straddles = open < len && open + 1 < w;
        let (newer, older) = self.ring.split_at(self.head);
        let ring = || older.iter().chain(newer);
        let mut copies = std::mem::take(&mut self.ring_copies);
        copies.clear();
        copies.extend(ring().take(carried));
        if straddles {
            copies.extend(ring().skip(open + 1));
            copies.extend_from_slice(&chunk[..=open]);
        }
        let (evicted, straddling) = copies.split_at(carried);
        if carried > 0 {
            let emit = grid.next_from(seen0 + 1) - seen0;
            let run = Run { xs: &chunk[..carried], olds: evicted, emit, slot: out_base };
            self.walk(None, [run], decimation, out);
        }
        if straddles {
            let n = (w - 1).min(len - 1 - open);
            let (emit, slot) = schedule(seen0 + open + 1);
            let run =
                Run { xs: &chunk[open + 1..open + 1 + n], olds: &straddling[..n], emit, slot };
            self.walk(Some([straddling]), [run], decimation, out);
            open += w;
        }
        // Every later window lies inside the chunk.
        let window = |open: usize| &chunk[open + 1 - w..=open];
        let run = |open: usize| {
            let n = (w - 1).min(len - 1 - open);
            let (emit, slot) = schedule(seen0 + open + 1);
            Run { xs: &chunk[open + 1..open + 1 + n], olds: &window(open)[..n], emit, slot }
        };
        while open + LANES * w <= len {
            let opens: [usize; LANES] = std::array::from_fn(|l| open + l * w);
            self.walk(Some(opens.map(window)), opens.map(run), decimation, out);
            open += LANES * w;
        }
        while open < len {
            self.walk(Some([window(open)]), [run(open)], decimation, out);
            open += w;
        }
        self.ring_copies = copies;

        // The ring keeps the chunk's last `w` samples.
        let keep = len.min(w);
        let head = (self.head + len) % w;
        let at = if head >= keep { head - keep } else { head + w - keep };
        let first = (w - at).min(keep);
        self.ring[at..at + first].copy_from_slice(&chunk[len - keep..len - keep + first]);
        self.ring[..keep - first].copy_from_slice(&chunk[len - keep + first..]);
        self.head = head;
        self.seen += len;
        self.since_refresh = (self.since_refresh + len) % w;
    }

    /// Advances `L` runs in lockstep, one per lane, writing each run's
    /// emissions into `out` at its slots and leaving the last run's
    /// final values in `values`.
    ///
    /// With `windows`, lane `l` opens at the refresh over
    /// `windows[l]`; without, every lane carries on from `values`.
    /// All runs take the same number of steps.
    fn walk<const L: usize>(
        &mut self,
        windows: Option<[&[Complex]; L]>,
        runs: [Run<'_>; L],
        decimation: usize,
        out: &mut [f64],
    ) {
        let w = self.window;
        let (lanes, rotators, block) = (&mut self.lanes[..], &self.rotators[..], &mut self.block);
        match windows {
            Some(windows) => {
                let windows = windows.map(|x| &x[..w]);
                // `push`'s refresh: per bin, `acc += x · tw` over the
                // window oldest first.
                for (s, tws) in lanes.iter_mut().zip(self.refresh_twiddles.chunks_exact(w)) {
                    let (mut re, mut im) = ([0.0; LANES], [0.0; LANES]);
                    for (m, tw) in tws.iter().enumerate() {
                        for l in 0..L {
                            let x = windows[l][m];
                            re[l] += x.re * tw.re - x.im * tw.im;
                            im[l] += x.re * tw.im + x.im * tw.re;
                        }
                    }
                    *s = BinLanes { re, im };
                }
            }
            None => {
                for (s, v) in lanes.iter_mut().zip(&self.values) {
                    *s = BinLanes { re: [v.re; LANES], im: [v.im; LANES] };
                }
            }
        }

        let n = runs[0].xs.len();
        let xs = runs.map(|r| &r.xs[..n]);
        let olds = runs.map(|r| &r.olds[..n]);
        let mut next = runs.map(|r| r.emit);
        let mut slot = runs.map(|r| r.slot);
        let mut t = 0;
        loop {
            for l in 0..L {
                if next[l] == t {
                    // `magnitude_sum`'s bin-order fold.
                    out[slot[l]] = lanes.iter().map(|s| Complex::new(s.re[l], s.im[l]).abs()).sum();
                    slot[l] += 1;
                    next[l] = next[l].saturating_add(decimation);
                }
            }
            if t == n {
                break;
            }
            // Step to the next emission, a block at a time.
            let stop = next.iter().fold(n.min(t + BLOCK), |a, &b| a.min(b));
            let block = &mut block[..stop - t];
            for (j, b) in block.iter_mut().enumerate() {
                for l in 0..L {
                    let (x, old) = (xs[l][t + j], olds[l][t + j]);
                    [b[0][l], b[1][l], b[2][l], b[3][l]] = [x.re, x.im, old.re, old.im];
                }
            }
            // `push`'s update `((v + x) − old) · r`, one bin at a time
            // so its lanes stay in registers across the block.
            for (s, r) in lanes.iter_mut().zip(rotators) {
                let BinLanes { mut re, mut im } = *s;
                for [xr, xi, or, oi] in block.iter() {
                    for l in 0..L {
                        let a = (re[l] + xr[l]) - or[l];
                        let b = (im[l] + xi[l]) - oi[l];
                        re[l] = a * r.re - b * r.im;
                        im[l] = a * r.im + b * r.re;
                    }
                }
                *s = BinLanes { re, im };
            }
            t = stop;
        }
        for (v, s) in self.values.iter_mut().zip(lanes.iter()) {
            *v = Complex::new(s.re[L - 1], s.im[L - 1]);
        }
    }

    /// Returns `true` once at least one full window has been seen, so
    /// the tracked values describe a fully-populated window.
    pub fn is_primed(&self) -> bool {
        self.seen >= self.window
    }

    /// Current complex value of each tracked bin.
    pub fn values(&self) -> &[Complex] {
        &self.values
    }

    /// Sum of the magnitudes of all tracked bins — one sample of the
    /// paper's Eq. (1) energy signal `Y[n]`.
    pub fn magnitude_sum(&self) -> f64 {
        self.values.iter().map(|v| v.abs()).sum()
    }
}

/// Result of [`try_energy_signal`]: the energy samples plus how many
/// non-finite input samples had to be zeroed before analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergySignal {
    /// The decimated Eq. (1) energy signal.
    pub samples: Vec<f64>,
    /// Number of NaN/infinite input samples replaced with zero.
    pub sanitized: usize,
}

/// Computes the paper's Eq. (1) energy signal for an entire capture:
/// `Y[n] = Σ_{k∈S} |F_n[k]|`, one value per input sample once the
/// window is primed, decimated by `decimation` to keep downstream
/// processing tractable.
///
/// This is one push of an [`EnergyStream`] followed by its
/// [`EnergyStream::classify`], so the sanitise-and-classify rule is
/// the stream's:
///
/// - an empty capture is [`CaptureError::Empty`],
/// - a capture shorter than one analysis window is
///   [`CaptureError::TooShort`],
/// - a capture where **more than half** the samples are NaN/infinite
///   is [`CaptureError::NonFinite`] (nothing useful survives),
/// - a minority of non-finite samples is *sanitized*: each is replaced
///   with zero (a dropout, exactly what a dongle glitch produces) and
///   counted in [`EnergySignal::sanitized`].
///
/// The output is reserved once, and a fully-finite capture runs
/// straight off `samples` through one blocked
/// [`SlidingDft::process_into`] call; only a capture holding a
/// non-finite sample is copied. The tracker's tables are built per
/// call; hold an [`EnergyStream`] across chunks instead.
///
/// # Errors
///
/// See above; configuration violations (zero window/decimation, empty
/// or out-of-range bins) are [`CaptureError::InvalidConfig`], and win
/// over capture errors.
///
/// # Examples
///
/// ```
/// use emsc_sdr::iq::Complex;
/// use emsc_sdr::sliding::try_energy_signal;
///
/// let fs = 1024.0;
/// let tone: Vec<Complex> = (0..4096)
///     .map(|n| Complex::cis(2.0 * std::f64::consts::PI * 128.0 * n as f64 / fs))
///     .collect();
/// let y = try_energy_signal(&tone, 256, &[32], 4).unwrap();
/// // steady tone ⇒ steady energy ≈ window size
/// assert!(y.samples.iter().all(|&v| (v - 256.0).abs() < 1.0));
/// assert_eq!(y.sanitized, 0);
/// ```
pub fn try_energy_signal(
    samples: &[Complex],
    window: usize,
    bins: &[usize],
    decimation: usize,
) -> Result<EnergySignal, CaptureError> {
    let mut stream = EnergyStream::new(window, bins, decimation)?;
    let mut out = Vec::with_capacity(samples.len().saturating_sub(window) / decimation + 1);
    stream.push_into(samples, &mut out);
    stream.classify()?;
    Ok(EnergySignal { samples: out, sanitized: stream.sanitized() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::{frequency_bin, plan_for};

    /// Direct windowed DFT of the window ending at sample `end`
    /// (inclusive), for cross-checking the recursion.
    fn direct_bin(samples: &[Complex], end: usize, window: usize, k: usize) -> Complex {
        let start = end + 1 - window;
        let mut acc = Complex::ZERO;
        for m in 0..window {
            acc += samples[start + m]
                * Complex::cis(-2.0 * std::f64::consts::PI * k as f64 * m as f64 / window as f64);
        }
        acc
    }

    fn chirpy_signal(n: usize) -> Vec<Complex> {
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

    #[test]
    fn matches_direct_dft_everywhere() {
        let samples = chirpy_signal(700);
        let window = 128;
        let bins = [5usize, 31, 64];
        let mut sdft = SlidingDft::try_new(window, &bins).unwrap();
        for (n, &x) in samples.iter().enumerate() {
            sdft.push(x);
            if sdft.is_primed() {
                for (i, &k) in bins.iter().enumerate() {
                    let want = direct_bin(&samples, n, window, k);
                    let got = sdft.values()[i];
                    assert!((want - got).abs() < 1e-8, "bin {k} at n={n}: want {want}, got {got}");
                }
            }
        }
    }

    #[test]
    fn agrees_with_full_fft_at_window_boundary() {
        let samples = chirpy_signal(256);
        let window = 256;
        let mut sdft = SlidingDft::try_new(window, &[3, 17]).unwrap();
        for &x in &samples {
            sdft.push(x);
        }
        let mut spectrum = samples.clone();
        plan_for(spectrum.len()).forward(&mut spectrum);
        assert!((sdft.values()[0] - spectrum[3]).abs() < 1e-8);
        assert!((sdft.values()[1] - spectrum[17]).abs() < 1e-8);
    }

    #[test]
    fn drift_stays_bounded_over_long_runs() {
        // 50k samples, window 64: the periodic refresh must keep the
        // recursion glued to the direct computation.
        let samples = chirpy_signal(50_000);
        let window = 64;
        let k = 9;
        let mut sdft = SlidingDft::try_new(window, &[k]).unwrap();
        let mut worst = 0.0f64;
        for (n, &x) in samples.iter().enumerate() {
            sdft.push(x);
            if sdft.is_primed() && n % 997 == 0 {
                let err = (sdft.values()[0] - direct_bin(&samples, n, window, k)).abs();
                worst = worst.max(err);
            }
        }
        assert!(worst < 1e-7, "worst drift {worst}");
    }

    /// The energy signal from one [`SlidingDft::process_into`] call
    /// over the whole input: the oracle [`try_energy_signal`] must
    /// reproduce.
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
    fn energy_signal_tracks_onoff_keying() {
        let fs = 2048.0;
        let f = 512.0;
        let mut samples: Vec<Complex> = (0..8192)
            .map(|n| Complex::cis(2.0 * std::f64::consts::PI * f * n as f64 / fs))
            .collect();
        for s in samples.iter_mut().skip(4096) {
            *s = Complex::ZERO;
        }
        let y = try_energy_signal(&samples, 256, &[frequency_bin(f, 256, fs)], 1).unwrap().samples;
        // Energy high in the "on" region, low in the "off" region.
        assert!(y[1000] > 250.0);
        assert!(y[y.len() - 100] < 1.0);
        // Transition is a ramp of exactly `window` samples.
        let hi = y[3500];
        let lo = y[4600];
        assert!(hi / (lo + 1e-12) > 1e3);
    }

    #[test]
    fn decimation_reduces_length() {
        let samples = chirpy_signal(4096);
        let full = try_energy_signal(&samples, 128, &[7], 1).unwrap().samples;
        let dec = try_energy_signal(&samples, 128, &[7], 8).unwrap().samples;
        assert_eq!(full.len(), 4096 - 128 + 1);
        assert_eq!(dec.len(), (4096 - 128) / 8 + 1);
        // Decimated values are a strict subsequence of the full ones.
        for (i, &v) in dec.iter().enumerate() {
            assert!((v - full[i * 8]).abs() < 1e-12);
        }
    }

    /// Chunk lengths that cut `n` samples one push before, on and one
    /// push after every `every`-th refresh in turn (the refresh pushes
    /// end at multiples of `window`), with the rest as the last chunk.
    fn cuts_around_refreshes(n: usize, window: usize, every: usize) -> Vec<usize> {
        let mut lens = Vec::new();
        let mut at = 0;
        for k in 1.. {
            let end = k * every * window + k % 3 - 1;
            if end >= n {
                break;
            }
            if end > at {
                lens.push(end - at);
                at = end;
            }
        }
        lens.push(n - at);
        lens
    }

    #[test]
    fn process_into_is_bit_identical_to_push_per_sample() {
        // Long enough that one chunk holds several lane groups of four
        // runs at every window below.
        let samples = chirpy_signal(6001);
        let n = samples.len();
        let grids = [(64usize, 1usize), (64, 7), (128, 24), (1, 1), (3, 2), (16, 40), (1, 5)];
        for (window, decimation) in grids {
            let half = window / 2;
            let bin_sets = [
                vec![0],
                vec![half],
                vec![5 % window, 5 % window],
                vec![0, half, 31 % window],
                vec![1 % window, half, 0, window - 1],
            ];
            // Fixed sizes, cuts around every refresh and around every
            // sixth one (one lane group, one more run and a cut run
            // per chunk), and an irregular cycle ending inside groups.
            let mut chunkings: Vec<Vec<usize>> =
                [1usize, 7, 63, 64, 65, 1000, n].iter().map(|&c| vec![c; n.div_ceil(c)]).collect();
            chunkings.push(cuts_around_refreshes(n, window, 1));
            chunkings.push(cuts_around_refreshes(n, window, 6));
            let cycle = [3, 4 * window + 5, window - 1, 9 * window + 2, 1, window, 2 * window + 1];
            chunkings.push(cycle.iter().copied().filter(|&c| c > 0).cycle().take(n).collect());
            for bins in &bin_sets {
                // Reference: the per-sample push loop.
                let mut reference_sdft = SlidingDft::try_new(window, bins).unwrap();
                let mut reference = Vec::new();
                for (i, &x) in samples.iter().enumerate() {
                    reference_sdft.push(x);
                    if reference_sdft.is_primed() && (i + 1 - window).is_multiple_of(decimation) {
                        reference.push(reference_sdft.magnitude_sum());
                    }
                }
                for (c, lens) in chunkings.iter().enumerate() {
                    let case = format!("w={window} d={decimation} bins={bins:?} chunking {c}");
                    let mut sdft = SlidingDft::try_new(window, bins).unwrap();
                    let mut got = Vec::new();
                    let mut rest = &samples[..];
                    for &len in lens {
                        let (chunk, tail) = rest.split_at(len.min(rest.len()));
                        sdft.process_into(chunk, decimation, &mut got);
                        rest = tail;
                    }
                    assert!(rest.is_empty(), "{case}: chunking too short");
                    assert_eq!(got.len(), reference.len(), "{case}");
                    for (i, (a, b)) in got.iter().zip(&reference).enumerate() {
                        assert_eq!(a.to_bits(), b.to_bits(), "{case} out={i}");
                    }
                    for (a, b) in sdft.values().iter().zip(reference_sdft.values()) {
                        assert_eq!(a.re.to_bits(), b.re.to_bits(), "{case}");
                        assert_eq!(a.im.to_bits(), b.im.to_bits(), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn ring_copies_stay_under_two_windows_and_are_reused() {
        for w in [16usize, 64] {
            let lens = [1, w - 1, w, w + 1, 5 * w + 3, 4096];
            let samples = chirpy_signal(2 * lens.iter().sum::<usize>());
            let mut sdft = SlidingDft::try_new(w, &[1, w / 2]).unwrap();
            let mut out = Vec::new();
            let mut rest = &samples[..];
            let mut round = || {
                for len in lens {
                    let (chunk, tail) = rest.split_at(len);
                    sdft.process_into(chunk, 3, &mut out);
                    rest = tail;
                    let held = sdft.ring_copies.len();
                    assert!(held < 2 * w, "w={w}: {held} copied after a {len}-sample chunk");
                }
                (sdft.ring_copies.as_ptr(), sdft.ring_copies.capacity())
            };
            let first = round();
            assert_eq!(round(), first, "w={w}: the ring-copy buffer must not reallocate");
        }
    }

    #[test]
    fn try_new_reports_config_errors() {
        use crate::error::CaptureError;
        assert!(matches!(SlidingDft::try_new(0, &[1]), Err(CaptureError::InvalidConfig(_))));
        assert!(matches!(SlidingDft::try_new(64, &[]), Err(CaptureError::InvalidConfig(_))));
        assert!(matches!(SlidingDft::try_new(64, &[64]), Err(CaptureError::InvalidConfig(_))));
        assert!(SlidingDft::try_new(64, &[63]).is_ok());
    }

    #[test]
    fn try_energy_signal_matches_one_process_into_call_on_clean_input() {
        let samples = chirpy_signal(2048);
        let want = one_process_into(&samples, 128, &[7], 4);
        let got = try_energy_signal(&samples, 128, &[7], 4).unwrap();
        assert_eq!(got.samples, want);
        assert_eq!(got.sanitized, 0);
    }

    #[test]
    fn try_energy_signal_classifies_degenerate_captures() {
        use crate::error::CaptureError;
        let samples = chirpy_signal(64);
        assert_eq!(try_energy_signal(&[], 128, &[7], 1), Err(CaptureError::Empty));
        assert_eq!(
            try_energy_signal(&samples, 128, &[7], 1),
            Err(CaptureError::TooShort { needed: 128, got: 64 })
        );
        assert!(matches!(
            try_energy_signal(&samples, 32, &[7], 0),
            Err(CaptureError::InvalidConfig(_))
        ));
        let all_nan = vec![Complex::new(f64::NAN, f64::NAN); 256];
        assert_eq!(
            try_energy_signal(&all_nan, 64, &[7], 1),
            Err(CaptureError::NonFinite { count: 256, total: 256 })
        );
    }

    #[test]
    fn try_energy_signal_sanitizes_a_minority_of_nans() {
        let mut samples = chirpy_signal(2048);
        samples[100] = Complex::new(f64::NAN, 0.0);
        samples[700] = Complex::new(f64::INFINITY, f64::NEG_INFINITY);
        let got = try_energy_signal(&samples, 128, &[7], 4).unwrap();
        assert_eq!(got.sanitized, 2);
        assert!(got.samples.iter().all(|v| v.is_finite()), "NaN leaked through");
        // Away from the zeroed samples the signal matches the clean path.
        let mut cleaned = samples.clone();
        cleaned[100] = Complex::ZERO;
        cleaned[700] = Complex::ZERO;
        assert_eq!(got.samples, one_process_into(&cleaned, 128, &[7], 4));
    }
}
