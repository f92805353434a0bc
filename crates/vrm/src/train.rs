//! The VRM's output as seen by the electromagnetic world: a train of
//! replenishment current pulses.

/// One replenishment event: the VRM connects its output capacitor to
/// the input rail and transfers `charge_c` coulombs in a brief burst.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pulse {
    /// Pulse time, seconds.
    pub t_s: f64,
    /// Charge transferred, coulombs. The EM field transient scales
    /// with this (Faraday: the burst of `di/dt`).
    pub charge_c: f64,
}

/// The complete switching activity of a VRM over a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchingTrain {
    /// Fired pulses in time order: [`crate::buck::Buck::new`] keeps
    /// every switching period positive, so each pulse falls strictly
    /// after the one before. [`SwitchingTrain::pulses_in`] and the
    /// windowed renderer binary-search on this order.
    pub pulses: Vec<Pulse>,
    /// Nominal switching period, seconds (1–4 µs for laptop VRMs).
    pub nominal_period_s: f64,
    /// Total simulated span, seconds.
    pub duration_s: f64,
}

impl SwitchingTrain {
    /// Total charge delivered, coulombs.
    pub fn total_charge_c(&self) -> f64 {
        self.pulses.iter().map(|p| p.charge_c).sum()
    }

    /// Mean pulse rate over the run, pulses/second.
    pub fn pulse_rate_hz(&self) -> f64 {
        if self.duration_s <= 0.0 {
            0.0
        } else {
            self.pulses.len() as f64 / self.duration_s
        }
    }

    /// Fraction of switching periods in which the VRM actually fired —
    /// 1.0 in continuous (heavy-load) operation, ≪ 1 under pulse
    /// skipping at light load.
    pub fn firing_fraction(&self) -> f64 {
        let periods = self.duration_s / self.nominal_period_s;
        if periods <= 0.0 {
            0.0
        } else {
            (self.pulses.len() as f64 / periods).min(1.0)
        }
    }

    /// Pulses whose time lies in `[t0_s, t1_s)`.
    pub fn pulses_in(&self, t0_s: f64, t1_s: f64) -> &[Pulse] {
        let lo = self.pulses.partition_point(|p| p.t_s < t0_s);
        let hi = self.pulses.partition_point(|p| p.t_s < t1_s);
        &self.pulses[lo..hi]
    }

    /// Mean replenishment current (charge/time) over `[t0_s, t1_s)` —
    /// the quantity amplitude-modulated onto the EM carrier.
    pub fn mean_current_in(&self, t0_s: f64, t1_s: f64) -> f64 {
        let span = t1_s - t0_s;
        if span <= 0.0 {
            return 0.0;
        }
        self.pulses_in(t0_s, t1_s).iter().map(|p| p.charge_c).sum::<f64>() / span
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train() -> SwitchingTrain {
        SwitchingTrain {
            pulses: (0..100).map(|k| Pulse { t_s: k as f64 * 1e-6, charge_c: 2e-6 }).collect(),
            nominal_period_s: 1e-6,
            duration_s: 100e-6,
        }
    }

    #[test]
    fn aggregates() {
        let t = train();
        assert!((t.total_charge_c() - 200e-6).abs() < 1e-12);
        assert!((t.pulse_rate_hz() - 1e6).abs() < 1.0);
        assert!((t.firing_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pulses_in_selects_window() {
        let t = train();
        // Query between pulse times to avoid float-boundary ambiguity.
        let w = t.pulses_in(9.5e-6, 19.5e-6);
        assert_eq!(w.len(), 10);
        assert!((w[0].t_s - 10e-6).abs() < 1e-12, "w0 {}", w[0].t_s);
        assert!((w[9].t_s - 19e-6).abs() < 1e-12);
    }

    #[test]
    fn mean_current_matches_charge_over_time() {
        let t = train();
        // 2 µC per 1 µs ⇒ 2 A.
        assert!((t.mean_current_in(0.0, 100e-6) - 2.0).abs() < 1e-9);
        assert_eq!(t.mean_current_in(5e-6, 5e-6), 0.0);
    }

    #[test]
    fn sparse_train_has_low_firing_fraction() {
        let t = SwitchingTrain {
            pulses: (0..10).map(|k| Pulse { t_s: k as f64 * 10e-6, charge_c: 2e-6 }).collect(),
            nominal_period_s: 1e-6,
            duration_s: 100e-6,
        };
        assert!((t.firing_fraction() - 0.1).abs() < 1e-9);
    }
}
