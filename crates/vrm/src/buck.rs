//! Buck (step-down) converter model with light-load pulse skipping.
//!
//! §II of the paper: the VRM keeps an output capacitor at the VID
//! voltage, periodically connecting it to the (10–20 V) input in a
//! burst of current that replenishes the charge the load drained. At
//! light load a typical VRM "does not switch [for some periods],
//! skipping the replenishment of the still-almost-full capacitor"
//! (phase shedding / pulse skipping) — which is exactly what makes the
//! emanation amplitude track processor activity.
//!
//! The model walks the switching clock tick by tick, integrates the
//! load charge drawn from the capacitor, and fires a replenishment
//! pulse whenever the accumulated droop exceeds the controller's
//! ripple threshold. VID transitions inject (or absorb) the capacitor
//! re-charge `ΔQ = C·ΔV`.

use emsc_pmu::trace::PowerTrace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::train::{Pulse, SwitchingTrain};
use crate::vid::VidTable;

/// Switching-period randomisation (a circuit-level countermeasure,
/// §VI): each period is drawn uniformly from
/// `nominal · [1−spread, 1+spread]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodRandomization {
    /// Relative spread (0.1 = ±10 %), in `[0, 1)`: every period stays
    /// positive, so the pulse train stays in time order.
    pub spread: f64,
    /// RNG seed for the period sequence.
    pub seed: u64,
}

/// Buck-converter configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct BuckConfig {
    /// Nominal switching frequency, hertz (250 kHz – 1 MHz typical).
    pub switching_frequency_hz: f64,
    /// Input supply voltage (battery/adapter), volts.
    pub input_voltage_v: f64,
    /// Output capacitance, farads.
    pub output_capacitance_f: f64,
    /// Output ripple the controller tolerates before replenishing,
    /// volts. Sets the pulse-skip threshold: `Q_fire = C·ΔV`.
    pub ripple_threshold_v: f64,
    /// Maximum charge one pulse can transfer (current capability ×
    /// period), coulombs.
    pub max_pulse_charge_c: f64,
    /// Scale applied to the trace's load current before conversion.
    /// 1.0 for a motherboard VR driving the core rail directly; ≈0.6
    /// for the *input stage* feeding a FIVR (same power drawn from a
    /// higher intermediate voltage).
    pub current_scale: f64,
    /// VID grid.
    pub vid: VidTable,
    /// VID transition slew rate, volts/second (VR soft-start limits
    /// the inrush when the rail re-charges after a voltage-gated
    /// C-state; VRD-class parts slew at ~10 mV/µs).
    pub vid_slew_v_per_s: f64,
    /// Optional switching-period randomisation countermeasure.
    pub randomization: Option<PeriodRandomization>,
}

impl BuckConfig {
    /// A laptop core-rail VRM switching at `f_sw` hertz.
    ///
    /// # Panics
    ///
    /// Panics if `f_sw` is not positive.
    pub fn laptop(f_sw: f64) -> Self {
        assert!(f_sw > 0.0, "switching frequency must be positive");
        let period = 1.0 / f_sw;
        BuckConfig {
            switching_frequency_hz: f_sw,
            input_voltage_v: 12.0,
            output_capacitance_f: 300e-6,
            ripple_threshold_v: 5e-3,
            // 30 A current capability.
            max_pulse_charge_c: 30.0 * period,
            current_scale: 1.0,
            vid: VidTable::vrd11(),
            vid_slew_v_per_s: 1.0e4,
            randomization: None,
        }
    }

    /// Nominal switching period, seconds.
    pub fn period_s(&self) -> f64 {
        1.0 / self.switching_frequency_hz
    }

    /// The charge threshold at which the controller fires, coulombs.
    pub fn fire_threshold_c(&self) -> f64 {
        self.output_capacitance_f * self.ripple_threshold_v
    }
}

/// The buck converter simulator.
#[derive(Debug, Clone)]
pub struct Buck {
    config: BuckConfig,
}

impl Buck {
    /// Creates a converter from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is not physical (non-positive
    /// frequency, capacitance or thresholds, or a period spread
    /// outside `[0, 1)`).
    pub fn new(config: BuckConfig) -> Self {
        assert!(config.switching_frequency_hz > 0.0, "switching frequency must be positive");
        assert!(config.output_capacitance_f > 0.0, "capacitance must be positive");
        assert!(config.ripple_threshold_v > 0.0, "ripple threshold must be positive");
        assert!(config.max_pulse_charge_c > 0.0, "pulse charge cap must be positive");
        if let Some(r) = config.randomization {
            assert!((0.0..1.0).contains(&r.spread), "period spread must be in [0, 1)");
        }
        Buck { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BuckConfig {
        &self.config
    }

    /// Converts a processor power trace into the VRM's switching
    /// pulse train.
    ///
    /// Walks the switching clock across the whole trace; each tick
    /// integrates the load charge since the previous tick, adds any
    /// VID-transition recharge, and fires when the deficit reaches the
    /// ripple threshold.
    pub fn convert(&self, trace: &PowerTrace) -> SwitchingTrain {
        let cfg = &self.config;
        let nominal = cfg.period_s();
        let fire_at = cfg.fire_threshold_c();
        let mut rng = cfg.randomization.map(|r| (r, StdRng::seed_from_u64(r.seed)));

        let segments = trace.segments();
        let duration = trace.duration_s();
        let mut pulses = Vec::new();
        let mut t = 0.0_f64;
        let mut seg_idx = 0usize;
        // Deficit: charge the capacitor is missing relative to its
        // setpoint. Negative = surplus (after a downward VID step).
        let mut deficit_c = 0.0_f64;
        // VID of `segments[seg_idx]`, quantised when `seg_idx` moves
        // rather than on every tick the segment spans.
        let vid_at = |i: usize| segments.get(i).map_or(0.0, |s| cfg.vid.quantize(s.voltage_v));
        let mut seg_vid = vid_at(0);
        let mut rail_v = seg_vid;
        let mut target_vid = rail_v;

        while t < duration {
            let period = match &mut rng {
                Some((r, rng)) => nominal * (1.0 + r.spread * (2.0 * rng.gen::<f64>() - 1.0)),
                None => nominal,
            };
            let t_next = t + period;
            // Integrate load charge over [t, t_next), walking segments.
            while seg_idx < segments.len() {
                let s = &segments[seg_idx];
                let lo = t.max(s.start_s);
                let hi = t_next.min(s.end_s());
                if hi > lo {
                    deficit_c += cfg.current_scale * s.current_a * (hi - lo);
                }
                if s.start_s < t_next {
                    target_vid = seg_vid;
                }
                if s.end_s() <= t_next {
                    seg_idx += 1;
                    seg_vid = vid_at(seg_idx);
                } else {
                    break;
                }
            }
            // Slew the rail toward the VID target; the re-charge (or
            // discharge surplus) enters the deficit gradually, soft-
            // start style.
            if (target_vid - rail_v).abs() > 1e-12 {
                let max_step = cfg.vid_slew_v_per_s * period;
                let dv = (target_vid - rail_v).clamp(-max_step, max_step);
                deficit_c += cfg.output_capacitance_f * dv;
                rail_v += dv;
            }
            // Controller decision at the tick.
            if deficit_c >= fire_at {
                let charge = deficit_c.min(cfg.max_pulse_charge_c);
                pulses.push(Pulse { t_s: t_next.min(duration), charge_c: charge });
                deficit_c -= charge;
            }
            t = t_next;
        }
        SwitchingTrain { pulses, nominal_period_s: nominal, duration_s: duration }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emsc_pmu::trace::ActivityKind;

    fn flat_trace(current_a: f64, duration_s: f64) -> PowerTrace {
        let mut t = PowerTrace::new();
        t.push(duration_s, 0, 0, current_a, 1.1, ActivityKind::Work);
        t
    }

    fn buck_1mhz() -> Buck {
        Buck::new(BuckConfig::laptop(1.0e6))
    }

    #[test]
    fn heavy_load_fires_every_period() {
        // 8 A × 1 µs = 8 µC per period ≫ 1.5 µC threshold.
        let train = buck_1mhz().convert(&flat_trace(8.0, 1e-3));
        assert!((train.firing_fraction() - 1.0).abs() < 0.01, "{}", train.firing_fraction());
        // Steady state: each pulse carries one period's charge.
        let mid = &train.pulses[train.pulses.len() / 2];
        assert!((mid.charge_c - 8e-6).abs() < 1e-7, "pulse charge {}", mid.charge_c);
    }

    #[test]
    fn light_load_skips_pulses() {
        // 0.1 A × 1 µs = 0.1 µC per period; threshold 1.5 µC ⇒ fire
        // every ~15 periods.
        let train = buck_1mhz().convert(&flat_trace(0.1, 1e-3));
        let frac = train.firing_fraction();
        assert!((frac - 1.0 / 15.0).abs() < 0.02, "firing fraction {frac}");
    }

    #[test]
    fn charge_is_conserved() {
        for current in [0.05, 0.5, 3.0, 8.0] {
            let duration = 2e-3;
            let train = buck_1mhz().convert(&flat_trace(current, duration));
            let delivered = train.total_charge_c();
            let drawn = current * duration;
            assert!(
                (delivered - drawn).abs() / drawn < 0.02,
                "I={current}: delivered {delivered}, drawn {drawn}"
            );
        }
    }

    #[test]
    fn mean_replenish_current_tracks_load() {
        // Same VID in both phases so the contrast isolates the load
        // effect (a downward VID step would suppress idle pulses even
        // harder — see `downward_vid_step_suppresses_pulses`).
        let mut trace = PowerTrace::new();
        trace.push(1e-3, 0, 0, 8.0, 1.1, ActivityKind::Work);
        trace.push(2e-3, 6, 0, 0.1, 1.1, ActivityKind::Idle);
        let train = buck_1mhz().convert(&trace);
        let active = train.mean_current_in(0.1e-3, 0.9e-3);
        let idle = train.mean_current_in(1.5e-3, 2.9e-3);
        assert!(active > 7.0, "active {active}");
        assert!(idle > 0.0 && idle < 0.3, "idle {idle}");
        assert!(active / idle > 20.0, "contrast {}", active / idle);
    }

    #[test]
    fn upward_vid_step_injects_recharge_ramp() {
        // Constant light load, but a 0.4 V → 1.1 V VID step midway:
        // ΔQ = 300 µF × 0.7 V = 210 µC, delivered over the soft-start
        // slew (0.7 V at 10 mV/µs = 70 µs, ~3 A average).
        let mut trace = PowerTrace::new();
        trace.push(1e-3, 6, 0, 0.1, 0.4, ActivityKind::Idle);
        trace.push(1e-3, 0, 0, 0.1, 1.1, ActivityKind::Work);
        let train = buck_1mhz().convert(&trace);
        let before = train.mean_current_in(0.5e-3, 0.9e-3);
        let during = train.mean_current_in(1.0e-3, 1.07e-3);
        let after = train.mean_current_in(1.2e-3, 1.9e-3);
        assert!(during > 2.0, "ramp current {during}");
        assert!(during > 10.0 * (before + 1e-9), "ramp {during} vs before {before}");
        // Slew-limited: nowhere near the VRM's 30 A capability.
        assert!(during < 8.0, "ramp {during} should be soft-started");
        // Once re-charged, back to the light-load regime.
        assert!(after < 0.3, "after {after}");
    }

    #[test]
    fn downward_vid_step_suppresses_pulses() {
        // After a downward VID step the capacitor is overcharged: the
        // VRM skips until the load drains the surplus.
        let mut trace = PowerTrace::new();
        trace.push(1e-3, 0, 0, 2.0, 1.1, ActivityKind::Work);
        trace.push(2e-3, 0, 0, 2.0, 0.7, ActivityKind::Work);
        let train = buck_1mhz().convert(&trace);
        // Surplus 300 µF × 0.4 V = 120 µC at 2 A takes 60 µs to drain.
        let right_after = train.mean_current_in(1.0e-3, 1.05e-3);
        let later = train.mean_current_in(1.5e-3, 2.0e-3);
        assert!(right_after < 0.2 * later, "suppressed {right_after} vs later {later}");
    }

    #[test]
    fn pulse_charge_never_exceeds_capability() {
        let mut trace = PowerTrace::new();
        trace.push(0.2e-3, 6, 0, 0.05, 0.4, ActivityKind::Idle);
        trace.push(0.2e-3, 0, 0, 8.0, 1.1, ActivityKind::Work);
        let train = buck_1mhz().convert(&trace);
        let cap = buck_1mhz().config().max_pulse_charge_c;
        for p in &train.pulses {
            assert!(p.charge_c <= cap + 1e-15);
        }
    }

    #[test]
    fn pulses_are_time_ordered_and_on_grid() {
        let train = buck_1mhz().convert(&flat_trace(8.0, 0.5e-3));
        for w in train.pulses.windows(2) {
            assert!(w[0].t_s < w[1].t_s);
        }
        // Without randomization, every pulse time is a multiple of the period.
        for p in &train.pulses {
            let phase = p.t_s / train.nominal_period_s;
            assert!((phase - phase.round()).abs() < 1e-6, "off-grid pulse at {}", p.t_s);
        }
    }

    #[test]
    fn randomization_moves_pulses_off_grid() {
        let mut cfg = BuckConfig::laptop(1.0e6);
        cfg.randomization = Some(PeriodRandomization { spread: 0.2, seed: 1 });
        let train = Buck::new(cfg).convert(&flat_trace(8.0, 0.5e-3));
        let off_grid = train
            .pulses
            .iter()
            .filter(|p| {
                let phase = p.t_s / train.nominal_period_s;
                (phase - phase.round()).abs() > 0.02
            })
            .count();
        assert!(off_grid > train.pulses.len() / 2, "{off_grid} off-grid");
    }

    #[test]
    fn fivr_input_stage_scales_load_but_keeps_contrast() {
        let mut active = PowerTrace::new();
        active.push(1e-3, 0, 0, 8.0, 1.1, ActivityKind::Work);
        let mobo = Buck::new(BuckConfig::laptop(1e6)).convert(&active);
        // Same power drawn at ~1.8 V instead of ~1.1 V core voltage.
        let fivr_input = BuckConfig { current_scale: 0.6, ..BuckConfig::laptop(1e6) };
        let fivr = Buck::new(fivr_input.clone()).convert(&active);
        let ratio = fivr.total_charge_c() / mobo.total_charge_c();
        assert!((ratio - 0.6).abs() < 0.05, "ratio {ratio}");
        // The input stage still fires continuously under load…
        assert!((fivr.firing_fraction() - 1.0).abs() < 0.05);
        // …and still skips at idle: the modulation (and the leak) remains.
        let mut idle = PowerTrace::new();
        idle.push(1e-3, 6, 0, 0.1, 1.1, ActivityKind::Idle);
        let fivr_idle = Buck::new(fivr_input).convert(&idle);
        assert!(fivr_idle.firing_fraction() < 0.1);
    }

    #[test]
    fn empty_trace_produces_empty_train() {
        let train = buck_1mhz().convert(&PowerTrace::new());
        assert!(train.pulses.is_empty());
        assert_eq!(train.duration_s, 0.0);
    }

    #[test]
    #[should_panic(expected = "capacitance")]
    fn invalid_config_panics() {
        let mut cfg = BuckConfig::laptop(1e6);
        cfg.output_capacitance_f = 0.0;
        Buck::new(cfg);
    }

    fn randomized(spread: f64) -> Buck {
        let mut cfg = BuckConfig::laptop(1e6);
        cfg.randomization = Some(PeriodRandomization { spread, seed: 1 });
        Buck::new(cfg)
    }

    #[test]
    #[should_panic(expected = "period spread")]
    fn a_spread_that_allows_negative_periods_panics() {
        randomized(1.5);
    }

    #[test]
    #[should_panic(expected = "period spread")]
    fn a_nan_spread_panics() {
        randomized(f64::NAN);
    }
}
