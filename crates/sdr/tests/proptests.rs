//! Property-based tests for the DSP substrate.

use emsc_sdr::dsp::{convolve_full_into, moving_average};
use emsc_sdr::fft::{plan_for, FftPlan};
use emsc_sdr::iq::Complex;
use emsc_sdr::sliding::SlidingDft;
use emsc_sdr::stats::{mean, median, quantile, Histogram};
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
        let mut sdft = SlidingDft::new(window, &[k]);
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
        let m = mean(&x);
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
    }

    #[test]
    fn histogram_conserves_counts(x in prop::collection::vec(-1e3f64..1e3, 1..300), bins in 1usize..64) {
        let h = Histogram::from_data(&x, bins);
        prop_assert_eq!(h.total(), x.len());
        prop_assert_eq!(h.counts().iter().sum::<usize>(), x.len());
    }
}
