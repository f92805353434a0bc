//! Property-based tests for the DSP substrate.

use emsc_sdr::dsp::{convolve_full_into, find_peaks, moving_average, Peak};
use emsc_sdr::fft::{plan_for, FftPlan};
use emsc_sdr::iq::Complex;
use emsc_sdr::sliding::SlidingDft;
use emsc_sdr::stats::{median, quantile, try_mean, try_quantile, Histogram};
use emsc_sdr::stream::BandEnergyStream;
use emsc_sdr::window::Window;
use proptest::prelude::*;

/// Out-of-place transforms over the cached plan.
fn fft(x: &[Complex]) -> Vec<Complex> {
    let mut buf = x.to_vec();
    plan_for(x.len()).forward(&mut buf);
    buf
}

fn ifft(x: &[Complex]) -> Vec<Complex> {
    let mut buf = x.to_vec();
    plan_for(x.len()).inverse(&mut buf);
    buf
}

fn convolve_full(signal: &[f64], kernel: &[f64]) -> Vec<f64> {
    let mut out = Vec::new();
    convolve_full_into(signal, kernel, &mut out);
    out
}

/// `find_peaks` with its original all-pairs suppression: each kept
/// peak, tallest first, scans every candidate. The oracle for the
/// neighbourhood walk.
fn find_peaks_all_pairs(signal: &[f64], min_height: f64, min_distance: usize) -> Vec<Peak> {
    let mut candidates = Vec::new();
    let n = signal.len();
    let mut i = 1;
    while i < n.saturating_sub(1) {
        if signal[i] >= min_height && signal[i] >= signal[i - 1] {
            let mut j = i;
            while j + 1 < n && signal[j + 1] == signal[i] {
                j += 1;
            }
            if j + 1 < n && signal[j + 1] < signal[i] {
                candidates.push(Peak { index: i + (j - i) / 2, value: signal[i] });
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    if min_distance <= 1 {
        return candidates;
    }
    let mut by_height: Vec<usize> = (0..candidates.len()).collect();
    by_height.sort_by(|&a, &b| candidates[b].value.total_cmp(&candidates[a].value));
    let mut keep = vec![true; candidates.len()];
    for &i in &by_height {
        if !keep[i] {
            continue;
        }
        for (j, k) in keep.iter_mut().enumerate() {
            if j != i
                && *k
                && candidates[j].index.abs_diff(candidates[i].index) < min_distance
                && candidates[j].value <= candidates[i].value
            {
                *k = false;
            }
        }
    }
    candidates.into_iter().zip(keep).filter_map(|(p, k)| k.then_some(p)).collect()
}

/// `Histogram::two_modes` as first written: smooth, pad, keep peaks
/// with `find_peaks`, then rank them by height.
fn two_modes_by_ranking(h: &Histogram) -> Option<(f64, f64)> {
    let counts: Vec<f64> = h.counts().iter().map(|&c| c as f64).collect();
    let smoothed = moving_average(&counts, (counts.len() / 16).max(3));
    let mut padded = vec![0.0];
    padded.extend_from_slice(&smoothed);
    padded.push(0.0);
    let min_sep = (counts.len() / 8).max(2);
    let floor = smoothed.iter().cloned().fold(0.0f64, f64::max) * 0.05;
    let mut best = find_peaks(&padded, floor, min_sep);
    if best.len() < 2 {
        return None;
    }
    best.sort_by(|a, b| b.value.partial_cmp(&a.value).unwrap());
    let (a, b) = (best[0].index - 1, best[1].index - 1);
    Some((h.bin_center(a.min(b)), h.bin_center(a.max(b))))
}

/// The quantile by sorting a NaN-free copy in `total_cmp` order.
fn quantile_by_sorting(data: &[f64], q: f64) -> Option<f64> {
    let mut sorted: Vec<f64> = data.iter().copied().filter(|v| !v.is_nan()).collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    let frac = pos - lo as f64;
    Some(if lo == hi { sorted[lo] } else { sorted[lo] * (1.0 - frac) + sorted[hi] * frac })
}

/// Signals of small-integer levels held for 1–4 samples, so plateaus
/// and equal-height peaks are common; level 9 is `+∞`.
fn stepped_signal() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((0u8..10, 1usize..5), 0..160).prop_map(|runs| {
        runs.into_iter()
            .flat_map(|(level, run)| {
                let v = if level == 9 { f64::INFINITY } else { level as f64 };
                std::iter::repeat_n(v, run)
            })
            .collect()
    })
}

/// Finite values with ±0, ±∞ and NaN mixed in.
fn laced_value() -> impl Strategy<Value = f64> {
    (0u8..14, -1e3f64..1e3).prop_map(|(tag, v)| match tag {
        0 => 0.0,
        1 => -0.0,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 | 5 => f64::NAN,
        _ => v,
    })
}

fn complex_vec(len: usize) -> impl Strategy<Value = Vec<Complex>> {
    prop::collection::vec(
        (-1e3f64..1e3, -1e3f64..1e3).prop_map(|(re, im)| Complex::new(re, im)),
        len..=len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fft_round_trip_is_identity(x in complex_vec(64)) {
        let y = ifft(&fft(&x));
        for (a, b) in y.iter().zip(&x) {
            prop_assert!((*a - *b).abs() < 1e-6);
        }
    }

    #[test]
    fn parseval_holds(x in complex_vec(128)) {
        let time: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let freq: f64 = fft(&x).iter().map(|z| z.norm_sqr()).sum::<f64>() / x.len() as f64;
        let scale = time.max(1.0);
        prop_assert!((time - freq).abs() / scale < 1e-9);
    }

    #[test]
    fn fft_is_linear(a in complex_vec(32), b in complex_vec(32), k in -10.0f64..10.0) {
        let lhs: Vec<Complex> = a.iter().zip(&b).map(|(x, y)| *x + y.scale(k)).collect();
        let fa = fft(&a);
        let fb = fft(&b);
        let f_lhs = fft(&lhs);
        for i in 0..32 {
            let expect = fa[i] + fb[i].scale(k);
            prop_assert!((f_lhs[i] - expect).abs() < 1e-6 * (1.0 + expect.abs()));
        }
    }

    #[test]
    fn plan_and_oneshot_agree(x in complex_vec(256)) {
        let plan = FftPlan::new(256);
        let mut buf = x.clone();
        plan.forward(&mut buf);
        let oneshot = fft(&x);
        for (a, b) in buf.iter().zip(&oneshot) {
            prop_assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn sliding_dft_matches_direct(x in complex_vec(200), k in 0usize..32) {
        let window = 32;
        let mut sdft = SlidingDft::try_new(window, &[k]).unwrap();
        for (n, &s) in x.iter().enumerate() {
            sdft.push(s);
            if n + 1 >= window && n % 37 == 0 {
                let start = n + 1 - window;
                let mut direct = Complex::ZERO;
                for m in 0..window {
                    direct += x[start + m]
                        * Complex::cis(-2.0 * std::f64::consts::PI * (k * m) as f64 / window as f64);
                }
                prop_assert!((sdft.values()[0] - direct).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn process_into_matches_push_per_sample(
        window in 1usize..=512,
        bin_picks in prop::collection::vec(any::<u16>(), 1..=4),
        decimation in 1usize..=64,
        lens in prop::collection::vec(1usize..=3000, 1..=6),
        n in 0usize..=6000,
        seed in any::<u64>(),
    ) {
        let bins: Vec<usize> = bin_picks.iter().map(|&b| b as usize % window).collect();
        // Deterministic xorshift samples in [-1, 1)².
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        };
        let samples: Vec<Complex> = (0..n).map(|_| Complex::new(next(), next())).collect();
        let mut reference_sdft = SlidingDft::try_new(window, &bins).unwrap();
        let mut reference = Vec::new();
        for (i, &x) in samples.iter().enumerate() {
            reference_sdft.push(x);
            if reference_sdft.is_primed() && (i + 1 - window).is_multiple_of(decimation) {
                reference.push(reference_sdft.magnitude_sum());
            }
        }
        // The chunk lengths in `lens`, cycled until the stream ends.
        let mut sdft = SlidingDft::try_new(window, &bins).unwrap();
        let mut got = Vec::new();
        let mut rest = &samples[..];
        for &len in lens.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (chunk, tail) = rest.split_at(len.min(rest.len()));
            sdft.process_into(chunk, decimation, &mut got);
            rest = tail;
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&got), bits(&reference));
        let value_bits = |s: &SlidingDft| {
            s.values().iter().map(|v| (v.re.to_bits(), v.im.to_bits())).collect::<Vec<_>>()
        };
        prop_assert_eq!(value_bits(&sdft), value_bits(&reference_sdft));
    }

    #[test]
    fn convolution_is_commutative(
        a in prop::collection::vec(-100.0f64..100.0, 1..20),
        b in prop::collection::vec(-100.0f64..100.0, 1..20),
    ) {
        let ab = convolve_full(&a, &b);
        let ba = convolve_full(&b, &a);
        prop_assert_eq!(ab.len(), ba.len());
        for (x, y) in ab.iter().zip(&ba) {
            prop_assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn convolution_length_is_sum_minus_one(
        a in prop::collection::vec(-1.0f64..1.0, 1..50),
        b in prop::collection::vec(-1.0f64..1.0, 1..50),
    ) {
        prop_assert_eq!(convolve_full(&a, &b).len(), a.len() + b.len() - 1);
    }

    #[test]
    fn moving_average_preserves_mean_range(
        x in prop::collection::vec(-1e3f64..1e3, 2..100),
        w in 1usize..20,
    ) {
        let y = moving_average(&x, w);
        prop_assert_eq!(y.len(), x.len());
        let lo = x.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for &v in &y {
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
    }

    #[test]
    fn quantiles_are_monotone(x in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let q1 = quantile(&x, 0.1);
        let q5 = quantile(&x, 0.5);
        let q9 = quantile(&x, 0.9);
        prop_assert!(q1 <= q5 && q5 <= q9);
        prop_assert_eq!(median(&x), q5);
        // Median between min and max, mean too.
        let lo = quantile(&x, 0.0);
        let hi = quantile(&x, 1.0);
        prop_assert!(lo <= q5 && q5 <= hi);
        let m = try_mean(&x).unwrap();
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
    }

    #[test]
    fn histogram_conserves_counts(x in prop::collection::vec(-1e3f64..1e3, 1..300), bins in 1usize..64) {
        let h = Histogram::try_from_data(&x, bins).unwrap();
        prop_assert_eq!(h.total(), x.len());
        prop_assert_eq!(h.counts().iter().sum::<usize>(), x.len());
    }

    #[test]
    fn find_peaks_matches_all_pairs_suppression(
        x in stepped_signal(),
        min_height in 0.0f64..6.0,
        min_distance in 1usize..=64,
    ) {
        prop_assert_eq!(
            find_peaks(&x, min_height, min_distance),
            find_peaks_all_pairs(&x, min_height, min_distance)
        );
    }

    #[test]
    fn two_modes_are_the_two_highest_ranked_peaks(
        centres in prop::collection::vec(0u8..40, 1..6),
        spread in 0.1f64..3.0,
        n in 1usize..400,
        bins in 2usize..=64,
    ) {
        // Clusters around a few centres, so histograms range from
        // unimodal to several well-separated modes of equal height.
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let c = centres[i % centres.len()] as f64;
                c + spread * (((i * 7919) % 101) as f64 / 101.0 - 0.5)
            })
            .collect();
        let h = Histogram::try_from_data(&x, bins).unwrap();
        prop_assert_eq!(h.two_modes(), two_modes_by_ranking(&h));
    }

    #[test]
    fn quantile_selects_the_sorted_order_statistics(
        x in prop::collection::vec(laced_value(), 1..200),
        q in 0.0f64..=1.0,
    ) {
        let want = quantile_by_sorting(&x, q);
        let got = try_quantile(&x, q).ok();
        prop_assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
    }

    #[test]
    fn band_energy_stream_matches_the_windowed_forward_transform(
        log2n in 0u32..=12,
        bin_picks in prop::collection::vec(any::<u16>(), 1..=4),
        window in prop_oneof![
            Just(Window::Rectangular),
            Just(Window::Hann),
            Just(Window::Hamming),
            Just(Window::Blackman),
        ],
        lens in prop::collection::vec(1usize..=5000, 1..=6),
        len_pick in any::<u16>(),
        seed in any::<u64>(),
    ) {
        let n = 1usize << log2n;
        let bins: Vec<usize> = bin_picks.iter().map(|&b| b as usize % n).collect();
        // Deterministic xorshift samples in [-1, 1)². In odd windows
        // about one component in 40 is NaN or ±∞; even windows stay
        // finite, since one such sample spreads to every bin.
        let mut state = seed | 1;
        let mut next = |laced: bool| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match state % 120 {
                0 if laced => f64::NAN,
                1 if laced => f64::INFINITY,
                2 if laced => f64::NEG_INFINITY,
                _ => (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0,
            }
        };
        // Up to four windows, the last one possibly partial.
        let len = len_pick as usize % (4 * n + 1);
        let samples: Vec<Complex> = (0..len)
            .map(|i| {
                let laced = (i / n) % 2 == 1;
                Complex::new(next(laced), next(laced))
            })
            .collect();
        // The oracle: each whole window weighted, transformed by
        // `forward`, and its band's magnitudes summed in order.
        let weights = window.coefficients(n);
        let plan = FftPlan::new(n);
        let reference: Vec<f64> = samples
            .chunks_exact(n)
            .map(|frame| {
                let mut buf: Vec<Complex> =
                    frame.iter().zip(&weights).map(|(x, &w)| x.scale(w)).collect();
                plan.forward(&mut buf);
                bins.iter().map(|&k| buf[k].abs()).sum()
            })
            .collect();
        // The chunk lengths in `lens`, cycled until the stream ends.
        let mut stream = BandEnergyStream::new(n, window, &bins).expect("valid band");
        let mut got = Vec::new();
        let mut rest = &samples[..];
        for &l in lens.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (chunk, tail) = rest.split_at(l.min(rest.len()));
            stream.push_into(chunk, &mut got);
            rest = tail;
        }
        // NaN payloads are not compared: the compiler may commute an
        // addition's operands.
        let bits = |v: &[f64]| {
            v.iter().map(|x| if x.is_nan() { f64::NAN.to_bits() } else { x.to_bits() }).collect::<Vec<_>>()
        };
        prop_assert_eq!(bits(&got), bits(&reference));
        let non_finite = samples.iter().filter(|x| !(x.re.is_finite() && x.im.is_finite())).count();
        prop_assert_eq!((stream.seen(), stream.non_finite()), (len, non_finite));
    }
}
