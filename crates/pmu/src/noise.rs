//! System-activity noise: interrupts, housekeeping and background
//! processes.
//!
//! The paper's measurements were all taken "in the presence of other
//! system's normal activities (i.e., handling interrupts,
//! context-switch, etc.)" (§IV-C1), and §IV-B4 attributes bit
//! insertions/deletions to exactly these events. This module models
//! them as superimposed point processes that briefly wake the core
//! while the program under test sleeps.

use rand::Rng;

use crate::timer::exponential;

/// What produced a noise event (ground truth for detector scoring).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NoiseKind {
    /// Short interrupt: timer tick, device IRQ, context switch.
    ShortInterrupt,
    /// Rare, long burst: page-fault storm, kernel housekeeping; the
    /// cause of bit deletions/insertions in §IV-B4.
    LongInterrupt,
    /// A resource-intensive background process (the §IV-C2 stress
    /// experiment).
    Background,
}

/// One wake-the-core noise event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseEvent {
    /// Event start, seconds.
    pub t_s: f64,
    /// How long the core stays busy servicing it, seconds.
    pub duration_s: f64,
    /// What it was.
    pub kind: NoiseKind,
}

/// Rates and durations of the noise processes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseConfig {
    /// Poisson rate of short interrupts, events/second.
    pub short_rate_hz: f64,
    /// Mean service time of a short interrupt, seconds.
    pub short_duration_s: f64,
    /// Poisson rate of long bursts, events/second.
    pub long_rate_hz: f64,
    /// Mean service time of a long burst, seconds.
    pub long_duration_s: f64,
    /// Duty cycle (0–1) of a heavy background task, or 0 when absent.
    pub background_duty: f64,
    /// Burst length of the background task when active, seconds.
    pub background_burst_s: f64,
}

impl NoiseConfig {
    /// Normal OS background activity: frequent tiny interrupts, rare
    /// longer bursts, no heavy background task.
    pub fn normal() -> Self {
        NoiseConfig {
            short_rate_hz: 150.0,
            short_duration_s: 4e-6,
            long_rate_hz: 1.2,
            long_duration_s: 250e-6,
            background_duty: 0.0,
            background_burst_s: 0.0,
        }
    }

    /// Perfectly quiet machine (useful for isolating other effects in
    /// tests and ablations).
    pub fn silent() -> Self {
        NoiseConfig {
            short_rate_hz: 0.0,
            short_duration_s: 0.0,
            long_rate_hz: 0.0,
            long_duration_s: 0.0,
            background_duty: 0.0,
            background_burst_s: 0.0,
        }
    }

    /// Normal activity plus a resource-intensive background process
    /// (the §IV-C2 experiment that forces a ~15 % TR reduction).
    pub fn with_heavy_background() -> Self {
        NoiseConfig {
            // §IV-C2: "the OS tends to produce short bursts of
            // activity which do not affect our covert-channel
            // detection much since they are smaller than one
            // sleep/active period", plus far more frequent long
            // bursts than a quiet system. (Modelled as elevated
            // interrupt pressure; a duty-cycle CPU hog serialised
            // into the transmitter's own sleep slots is maximally
            // adversarial in a single-core model and overstates the
            // damage the paper observed.)
            short_rate_hz: 500.0,
            long_rate_hz: 12.0,
            ..NoiseConfig::normal()
        }
    }
}

/// A stateful generator of noise events, advancing monotonically in
/// time so the simulator can pull events interval-by-interval.
#[derive(Debug, Clone)]
pub struct NoiseProcess<R: Rng> {
    config: NoiseConfig,
    rng: R,
    next_short_s: f64,
    next_long_s: f64,
    next_background_s: f64,
}

impl<R: Rng> NoiseProcess<R> {
    /// Creates a process starting at time zero.
    pub fn new(config: NoiseConfig, mut rng: R) -> Self {
        let next_short_s = next_arrival(0.0, config.short_rate_hz, &mut rng);
        let next_long_s = next_arrival(0.0, config.long_rate_hz, &mut rng);
        let next_background_s = if config.background_duty > 0.0 {
            background_period(&config) * rng.gen::<f64>()
        } else {
            f64::INFINITY
        };
        NoiseProcess { config, rng, next_short_s, next_long_s, next_background_s }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &NoiseConfig {
        &self.config
    }

    /// Returns every event starting in `[t0_s, t1_s)`, in time order.
    /// Must be called with non-decreasing `t0_s` across calls.
    pub fn events_in(&mut self, t0_s: f64, t1_s: f64) -> Vec<NoiseEvent> {
        let mut events = Vec::new();
        // Catch the generators up to t0 (events before the window are
        // dropped — the core was busy and absorbed them).
        while self.next_short_s < t0_s {
            self.next_short_s =
                next_arrival(self.next_short_s, self.config.short_rate_hz, &mut self.rng);
        }
        while self.next_long_s < t0_s {
            self.next_long_s =
                next_arrival(self.next_long_s, self.config.long_rate_hz, &mut self.rng);
        }
        while self.next_background_s < t0_s {
            self.next_background_s = next_arrival(
                self.next_background_s,
                1.0 / background_period(&self.config),
                &mut self.rng,
            );
        }
        while self.next_short_s < t1_s {
            events.push(NoiseEvent {
                t_s: self.next_short_s,
                duration_s: exponential(self.config.short_duration_s, &mut self.rng),
                kind: NoiseKind::ShortInterrupt,
            });
            self.next_short_s =
                next_arrival(self.next_short_s, self.config.short_rate_hz, &mut self.rng);
        }
        while self.next_long_s < t1_s {
            events.push(NoiseEvent {
                t_s: self.next_long_s,
                duration_s: self.config.long_duration_s * (0.5 + self.rng.gen::<f64>()),
                kind: NoiseKind::LongInterrupt,
            });
            self.next_long_s =
                next_arrival(self.next_long_s, self.config.long_rate_hz, &mut self.rng);
        }
        while self.next_background_s < t1_s {
            events.push(NoiseEvent {
                t_s: self.next_background_s,
                duration_s: self.config.background_burst_s,
                kind: NoiseKind::Background,
            });
            // Poisson arrivals: scheduler quanta are jittered, and a
            // strictly periodic process would alias against the covert
            // channel's bit clock.
            self.next_background_s = next_arrival(
                self.next_background_s,
                1.0 / background_period(&self.config),
                &mut self.rng,
            );
        }
        events.sort_by(|a, b| a.t_s.partial_cmp(&b.t_s).unwrap_or(std::cmp::Ordering::Equal));
        events
    }
}

fn next_arrival<R: Rng + ?Sized>(now_s: f64, rate_hz: f64, rng: &mut R) -> f64 {
    if rate_hz <= 0.0 {
        f64::INFINITY
    } else {
        now_s + exponential(1.0 / rate_hz, rng)
    }
}

fn background_period(config: &NoiseConfig) -> f64 {
    if config.background_duty <= 0.0 {
        f64::INFINITY
    } else {
        config.background_burst_s / config.background_duty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn process(cfg: NoiseConfig) -> NoiseProcess<StdRng> {
        NoiseProcess::new(cfg, StdRng::seed_from_u64(42))
    }

    #[test]
    fn silent_config_produces_no_events() {
        let mut p = process(NoiseConfig::silent());
        assert!(p.events_in(0.0, 100.0).is_empty());
    }

    #[test]
    fn poisson_rate_is_respected() {
        let mut p = process(NoiseConfig::normal());
        let events = p.events_in(0.0, 50.0);
        let shorts = events.iter().filter(|e| e.kind == NoiseKind::ShortInterrupt).count();
        let expected = 150.0 * 50.0;
        assert!(
            (shorts as f64 - expected).abs() < 4.0 * expected.sqrt(),
            "got {shorts}, expected ≈{expected}"
        );
        let longs = events.iter().filter(|e| e.kind == NoiseKind::LongInterrupt).count();
        let expected_long = 1.2 * 50.0;
        assert!(
            (longs as f64 - expected_long).abs() < 5.0 * expected_long.sqrt(),
            "got {longs}, expected ≈{expected_long}"
        );
    }

    #[test]
    fn events_are_ordered_and_in_window() {
        let mut p = process(NoiseConfig::with_heavy_background());
        let events = p.events_in(1.0, 2.0);
        assert!(!events.is_empty());
        for w in events.windows(2) {
            assert!(w[0].t_s <= w[1].t_s);
        }
        for e in &events {
            assert!((1.0..2.0).contains(&e.t_s));
        }
    }

    #[test]
    fn successive_windows_do_not_repeat_events() {
        let mut p = process(NoiseConfig::normal());
        let a = p.events_in(0.0, 1.0);
        let b = p.events_in(1.0, 2.0);
        if let (Some(last), Some(first)) = (a.last(), b.first()) {
            assert!(last.t_s < first.t_s);
        }
    }

    #[test]
    fn long_interrupts_are_much_longer_than_short() {
        let mut p = process(NoiseConfig::normal());
        let events = p.events_in(0.0, 30.0);
        let mean = |k: NoiseKind| {
            let v: Vec<f64> = events.iter().filter(|e| e.kind == k).map(|e| e.duration_s).collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        assert!(mean(NoiseKind::LongInterrupt) > 10.0 * mean(NoiseKind::ShortInterrupt));
    }

    #[test]
    fn background_duty_cycle_is_respected() {
        let cfg = NoiseConfig::with_heavy_background();
        let mut p = process(cfg);
        let events = p.events_in(0.0, 10.0);
        let busy: f64 =
            events.iter().filter(|e| e.kind == NoiseKind::Background).map(|e| e.duration_s).sum();
        let duty = busy / 10.0;
        assert!((duty - cfg.background_duty).abs() < 0.02, "duty {duty}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = process(NoiseConfig::normal()).events_in(0.0, 5.0);
        let b = process(NoiseConfig::normal()).events_in(0.0, 5.0);
        assert_eq!(a, b);
    }
}
