//! Energy accounting over power traces (RAPL-style).
//!
//! Intel's Running Average Power Limit exposes cumulative package
//! energy; this module computes the same quantities from a simulated
//! [`PowerTrace`]. Two uses here: sanity-checking the physics (the
//! covert channel costs real joules — the §VI countermeasure
//! discussion notes the "significant" energy overheads of disabling
//! power states), and reporting energy-per-bit figures for the
//! transmitter.

use crate::trace::{ActivityKind, PowerTrace};

/// Energy/power summary of a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Total energy drawn from the core rail, joules.
    pub total_j: f64,
    /// Mean power, watts.
    pub mean_w: f64,
    /// Peak instantaneous power, watts.
    pub peak_w: f64,
    /// Energy spent executing the program under test (Work), joules.
    pub work_j: f64,
    /// Energy spent idling (C-state residency or idle spin), joules.
    pub idle_j: f64,
    /// Energy spent on interrupts/background/wake transitions, joules.
    pub overhead_j: f64,
}

impl EnergyReport {
    /// Computes the report for a trace (`P = V · I` per segment).
    pub fn from_trace(trace: &PowerTrace) -> Self {
        let mut total_j = 0.0;
        let mut work_j = 0.0;
        let mut idle_j = 0.0;
        let mut overhead_j = 0.0;
        let mut peak_w = 0.0f64;
        for s in trace.segments() {
            let p = s.current_a * s.voltage_v;
            let e = p * s.duration_s;
            total_j += e;
            peak_w = peak_w.max(p);
            match s.kind {
                ActivityKind::Work => work_j += e,
                ActivityKind::Idle => idle_j += e,
                ActivityKind::Wake | ActivityKind::Interrupt | ActivityKind::Background => {
                    overhead_j += e
                }
            }
        }
        let duration = trace.duration_s();
        EnergyReport {
            total_j,
            mean_w: if duration > 0.0 { total_j / duration } else { 0.0 },
            peak_w,
            work_j,
            idle_j,
            overhead_j,
        }
    }

    /// Energy per transmitted bit, joules, given how many bits the
    /// trace carried.
    pub fn energy_per_bit_j(&self, bits: usize) -> f64 {
        if bits == 0 {
            0.0
        } else {
            self.total_j / bits as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::{CStatePolicy, DvfsPolicy};
    use crate::noise::NoiseConfig;
    use crate::sim::Machine;
    use crate::workload::Program;

    #[test]
    fn known_trace_energy() {
        let mut t = PowerTrace::new();
        t.push(2.0, 0, 0, 5.0, 1.0, ActivityKind::Work); // 10 J
        t.push(2.0, 6, 0, 0.5, 0.4, ActivityKind::Idle); // 0.4 J
        let r = EnergyReport::from_trace(&t);
        assert!((r.total_j - 10.4).abs() < 1e-12);
        assert!((r.work_j - 10.0).abs() < 1e-12);
        assert!((r.idle_j - 0.4).abs() < 1e-12);
        assert!((r.mean_w - 10.4 / 4.0).abs() < 1e-12);
        assert!((r.peak_w - 5.0).abs() < 1e-12);
        assert!((r.energy_per_bit_j(52) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_zero() {
        let r = EnergyReport::from_trace(&PowerTrace::new());
        assert_eq!(r.total_j, 0.0);
        assert_eq!(r.mean_w, 0.0);
        assert_eq!(r.energy_per_bit_j(0), 0.0);
    }

    #[test]
    fn duty_cycle_workload_power_is_plausible() {
        // 50 % duty at mobile-class currents: a few watts mean power.
        let m = Machine { noise: NoiseConfig::silent(), ..Machine::intel_laptop() };
        let p = Program::alternating(500e-6, 500e-6, 100, m.steady_state_ips());
        let r = EnergyReport::from_trace(&m.run(&p, 1));
        assert!((1.0..15.0).contains(&r.mean_w), "mean power {} W out of laptop range", r.mean_w);
        assert!(r.peak_w > r.mean_w);
        assert!(r.work_j > r.idle_j);
    }

    #[test]
    fn disabling_power_states_costs_energy() {
        // §VI: disabling P/C-states has "significant" energy overheads.
        let program_for =
            |m: &Machine| Program::alternating(500e-6, 500e-6, 100, m.steady_state_ips());
        let normal = Machine { noise: NoiseConfig::silent(), ..Machine::intel_laptop() };
        let hardened = Machine {
            noise: NoiseConfig::silent(),
            cstates: CStatePolicy::disabled(),
            dvfs: DvfsPolicy::disabled(),
            ..Machine::intel_laptop()
        };
        let e_normal = EnergyReport::from_trace(&normal.run(&program_for(&normal), 1));
        let e_hardened = EnergyReport::from_trace(&hardened.run(&program_for(&hardened), 1));
        assert!(
            e_hardened.mean_w > 1.5 * e_normal.mean_w,
            "hardened {} W vs normal {} W",
            e_hardened.mean_w,
            e_normal.mean_w
        );
    }
}
