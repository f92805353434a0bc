//! Operating-system sleep/timer models.
//!
//! The covert channel's bit rate is limited by how precisely the
//! transmitter can control idleness (§IV-A, §IV-C2): `usleep()` on
//! Linux/macOS has microsecond-class granularity but is "lengthened
//! slightly due to other system activities", and below ~10 µs the
//! actual sleep time becomes highly variable; Windows `Sleep()` has a
//! 1 ms timer granularity, capping Windows laptops at ~1 kbps in
//! Table II. This module models those behaviours as distributions over
//! *actual* sleep duration given a *requested* one.

use rand::Rng;

/// Which OS timer API the transmitter uses, with its granularity and
/// jitter behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SleepModel {
    /// POSIX `usleep()` as implemented by Linux (hrtimers): requests
    /// are honoured at microsecond granularity with a small positive
    /// overhead and an exponential "lengthening" tail.
    LinuxUsleep,
    /// macOS `usleep()`: same shape as Linux with marginally larger
    /// scheduling jitter.
    MacosUsleep,
    /// Win32 `Sleep()`: millisecond argument, quantised up to the
    /// timer tick (modelled at 1 ms), with tick-scale jitter.
    WindowsSleep,
    /// A custom model, for experiments.
    Custom {
        /// Requests are rounded up to a multiple of this, seconds.
        granularity_s: f64,
        /// Fixed entry/exit overhead added to every sleep, seconds.
        overhead_s: f64,
        /// Mean of the exponential lengthening tail, seconds.
        jitter_mean_s: f64,
    },
}

impl SleepModel {
    /// Timer granularity: actual sleeps are a multiple of this.
    pub fn granularity_s(self) -> f64 {
        match self {
            SleepModel::LinuxUsleep => 1e-6,
            SleepModel::MacosUsleep => 1e-6,
            SleepModel::WindowsSleep => 1e-3,
            SleepModel::Custom { granularity_s, .. } => granularity_s,
        }
    }

    /// Fixed call overhead (syscall entry/exit, timer programming).
    pub fn overhead_s(self) -> f64 {
        match self {
            SleepModel::LinuxUsleep => 3e-6,
            SleepModel::MacosUsleep => 5e-6,
            SleepModel::WindowsSleep => 20e-6,
            SleepModel::Custom { overhead_s, .. } => overhead_s,
        }
    }

    /// Mean of the exponential lengthening applied on top of the
    /// quantised request.
    pub fn jitter_mean_s(self) -> f64 {
        match self {
            SleepModel::LinuxUsleep => 4e-6,
            SleepModel::MacosUsleep => 7e-6,
            SleepModel::WindowsSleep => 150e-6,
            SleepModel::Custom { jitter_mean_s, .. } => jitter_mean_s,
        }
    }

    /// The smallest request the OS can honour usefully; the paper
    /// found ~10 µs to be the floor below which `usleep` idle periods
    /// become "highly variable" (§IV-A).
    pub fn practical_floor_s(self) -> f64 {
        match self {
            SleepModel::LinuxUsleep | SleepModel::MacosUsleep => 10e-6,
            SleepModel::WindowsSleep => 1e-3,
            SleepModel::Custom { granularity_s, .. } => granularity_s,
        }
    }

    /// Draws the *actual* duration of a sleep requested for
    /// `requested_s` seconds.
    ///
    /// The result is always ≥ the quantised request (sleeps are never
    /// shortened), is lengthened by call overhead plus an exponential
    /// tail, and becomes proportionally more variable below the
    /// practical floor.
    ///
    /// # Panics
    ///
    /// Panics if `requested_s` is negative.
    pub fn actual_sleep<R: Rng + ?Sized>(self, requested_s: f64, rng: &mut R) -> f64 {
        assert!(requested_s >= 0.0, "cannot request a negative sleep");
        let g = self.granularity_s();
        let quantised = (requested_s / g).ceil() * g;
        let mut jitter_mean = self.jitter_mean_s();
        // Below the practical floor the relative variability blows up:
        // scale the jitter tail by how far below the floor we are. The
        // multiplier is capped — even `usleep(1)` returns within tens
        // of microseconds, it is just wildly imprecise relative to the
        // request.
        let floor = self.practical_floor_s();
        if requested_s > 0.0 && requested_s < floor {
            jitter_mean *= (1.0 + 3.0 * (floor / requested_s - 1.0)).min(20.0);
        }
        let tail = exponential(jitter_mean, rng);
        quantised + self.overhead_s() + tail
    }
}

/// Draws from an exponential distribution with the given mean (zero
/// mean ⇒ always zero).
pub fn exponential<R: Rng + ?Sized>(mean: f64, rng: &mut R) -> f64 {
    if mean <= 0.0 {
        return 0.0;
    }
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -mean * u.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5eed)
    }

    fn sample_sleeps(model: SleepModel, req: f64, n: usize) -> Vec<f64> {
        let mut r = rng();
        (0..n).map(|_| model.actual_sleep(req, &mut r)).collect()
    }

    #[test]
    fn sleeps_are_never_shortened() {
        for model in [SleepModel::LinuxUsleep, SleepModel::MacosUsleep, SleepModel::WindowsSleep] {
            for &req in &[0.0, 1e-6, 100e-6, 1e-3, 0.5] {
                for &actual in &sample_sleeps(model, req, 200) {
                    assert!(actual >= req, "{model:?} shortened {req} to {actual}");
                }
            }
        }
    }

    #[test]
    fn linux_hits_requested_duration_closely() {
        let samples = sample_sleeps(SleepModel::LinuxUsleep, 100e-6, 2000);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        // 100 µs request: mean actual ≈ 100 + 3 + 4 µs.
        assert!((mean - 107e-6).abs() < 3e-6, "mean {mean}");
    }

    #[test]
    fn windows_quantises_to_milliseconds() {
        let samples = sample_sleeps(SleepModel::WindowsSleep, 100e-6, 500);
        // Requested 100 µs, but granularity forces ≥ 1 ms.
        for &s in &samples {
            assert!(s >= 1e-3, "windows slept only {s}");
        }
    }

    #[test]
    fn windows_granularity_dominates_unix() {
        let win = sample_sleeps(SleepModel::WindowsSleep, 100e-6, 500);
        let lin = sample_sleeps(SleepModel::LinuxUsleep, 100e-6, 500);
        let wmean = win.iter().sum::<f64>() / win.len() as f64;
        let lmean = lin.iter().sum::<f64>() / lin.len() as f64;
        assert!(wmean > 8.0 * lmean, "windows {wmean} vs linux {lmean}");
    }

    #[test]
    fn sub_floor_requests_are_highly_variable() {
        let fine = sample_sleeps(SleepModel::LinuxUsleep, 50e-6, 2000);
        let coarse = sample_sleeps(SleepModel::LinuxUsleep, 2e-6, 2000);
        let cv = |v: &[f64]| {
            let m = v.iter().sum::<f64>() / v.len() as f64;
            let var = v.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64;
            var.sqrt() / m
        };
        assert!(
            cv(&coarse) > 2.0 * cv(&fine),
            "cv below floor {} vs above {}",
            cv(&coarse),
            cv(&fine)
        );
    }

    #[test]
    fn jitter_is_positively_skewed() {
        let samples = sample_sleeps(SleepModel::LinuxUsleep, 100e-6, 5000);
        let m = samples.iter().sum::<f64>() / samples.len() as f64;
        let med = {
            let mut s = samples.clone();
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            s[s.len() / 2]
        };
        assert!(m > med, "mean {m} should exceed median {med} (right skew)");
    }

    #[test]
    fn exponential_mean_is_accurate() {
        let mut r = rng();
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| exponential(5.0, &mut r)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.15, "mean {mean}");
        assert_eq!(exponential(0.0, &mut r), 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = sample_sleeps(SleepModel::MacosUsleep, 100e-6, 50);
        let b = sample_sleeps(SleepModel::MacosUsleep, 100e-6, 50);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "negative sleep")]
    fn negative_request_panics() {
        SleepModel::LinuxUsleep.actual_sleep(-1.0, &mut rng());
    }
}
