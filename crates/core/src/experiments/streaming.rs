//! Synthetic live-receive captures: the inputs of E5, the supervised
//! capture-daemon soak in `emsc-service`, and of the service and
//! streaming tests.
//!
//! A listening post sees I/Q arrive in chunks, not as one recorded
//! capture. These builders make the captures a fleet of sensors
//! replays chunk by chunk: a Table I laptop's covert transmission
//! ([`covert_capture`]), a keylogging sensor's keystroke bursts
//! ([`keylog_capture`]), and the seeded noise under both
//! ([`seeded_noise`]). Each is a pure function of its seed, so a fleet
//! built under positional seeds replays bit-identically.

use emsc_covert::rx::RxConfig;
use emsc_covert::tx::Transmitter;
use emsc_keylog::detect::DetectorConfig;
use emsc_sdr::iq::Complex;
use emsc_sdr::Capture;

use crate::chain::{Chain, Setup};
use crate::covert_run::CovertScenario;
use crate::laptop::Laptop;

/// Seeded uniform noise, `n` samples with both rails equal and within
/// `±amplitude / 2`: the floor under every synthetic live-receive
/// capture (xorshift64 from `seed | 1`).
pub fn seeded_noise(seed: u64, n: usize, amplitude: f64) -> Vec<Complex> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = (state % 10_000) as f64 / 10_000.0 - 0.5;
            Complex::new(amplitude * u, amplitude * u)
        })
        .collect()
}

/// Synthetic keylogging capture: two keystroke-like tone bursts over
/// a noise floor (the detect-stage shape, without the full chain).
pub fn keylog_capture(seed: u64) -> (DetectorConfig, Capture) {
    let fs = 2.4e6_f64;
    let center = 1.455e6;
    let f_sw = 970e3;
    let f_bb = f_sw - center;
    let n = (0.4 * fs) as usize;
    let mut samples = seeded_noise(seed, n, 0.02);
    for &(t0, dur) in &[(0.08, 0.05), (0.25, 0.06)] {
        let a = (t0 * fs) as usize;
        let b = (((t0 + dur) * fs) as usize).min(n);
        for (i, s) in samples.iter_mut().enumerate().take(b).skip(a) {
            *s += Complex::from_polar(1.0, 2.0 * std::f64::consts::PI * f_bb * i as f64 / fs);
        }
    }
    (DetectorConfig::new(f_sw), Capture { samples, sample_rate: fs, center_freq: center })
}

/// Synthetic covert sensor: `laptop` sends `payload` near-field under
/// `seed`. Returns the receiver configuration and the capture — the
/// one [`CovertScenario::run`] decodes, bit for bit, without the
/// decode.
pub fn covert_capture(laptop: &Laptop, payload: &[u8], seed: u64) -> (RxConfig, Capture) {
    let chain = Chain::new(laptop, Setup::NearField);
    let scenario = CovertScenario::for_laptop(laptop, chain);
    let on_air_bits = Transmitter::new(scenario.tx).on_air_bits(payload);
    let program = scenario.transfer_program(&on_air_bits);
    (scenario.rx, scenario.chain.run_program(&program, seed).capture)
}
