//! Power-state governors: who decides which P-/C-state to use, when.
//!
//! Up to Haswell/Broadwell the OS writes the desired P-state into a
//! model-specific register; from Skylake on, *Speed Shift* (HWP) lets
//! the hardware pick P-states autonomously and much faster (§II).
//! C-states are chosen by an OS idle governor (Linux's "menu"
//! governor) from the predicted idle interval. Both can be disabled in
//! BIOS — the countermeasure experiment of §III.

use crate::power::{CState, PowerStateTable};

/// Who controls P-state selection, and how quickly it reacts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PStateMode {
    /// Hardware-controlled P-states (Intel Speed Shift / HWP,
    /// Skylake+): sub-millisecond ramp to full speed.
    SpeedShift {
        /// Time from waking to reaching P0, seconds.
        ramp_s: f64,
    },
    /// OS-driven DVFS (pre-Skylake): reacts at the governor's sampling
    /// period, so short bursts may run entirely at a low P-state.
    OsDriven {
        /// Governor sampling/ramp period, seconds.
        ramp_s: f64,
    },
    /// Pinned to one P-state (e.g. via `cpufrequtils`, §II).
    Fixed(u8),
}

impl PStateMode {
    /// Default Speed-Shift behaviour (post-Skylake parts).
    pub fn speed_shift() -> Self {
        PStateMode::SpeedShift { ramp_s: 0.3e-3 }
    }

    /// Default OS-driven behaviour (pre-Skylake parts).
    pub fn os_driven() -> Self {
        PStateMode::OsDriven { ramp_s: 4e-3 }
    }

    /// Busy time needed to ramp from the deepest P-state to P0.
    pub fn ramp_s(self) -> f64 {
        match self {
            PStateMode::SpeedShift { ramp_s } | PStateMode::OsDriven { ramp_s } => ramp_s,
            PStateMode::Fixed(_) => 0.0,
        }
    }

    /// Idle time over which the governor's utilisation estimate —
    /// and with it the selected P-state — decays back to the deepest
    /// state. Periodic duty-cycle workloads (like the covert
    /// transmitter alternating ~100 µs busy/idle) therefore *hold*
    /// a high P-state across their short sleeps, which is what real
    /// HWP/ondemand governors do.
    pub fn decay_s(self) -> f64 {
        match self {
            PStateMode::SpeedShift { .. } => 5e-3,
            // ondemand-style governors keep their utilisation estimate
            // across many sampling periods, so the estimate decays far
            // more slowly than HWP reacts.
            PStateMode::OsDriven { .. } => 100e-3,
            PStateMode::Fixed(_) => f64::INFINITY,
        }
    }
}

/// DVFS (P-state) policy, including the BIOS enable switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsPolicy {
    /// BIOS switch: `false` forces nominal voltage/frequency (P0)
    /// always, as in the §III experiment.
    pub enabled: bool,
    /// Selection mode when enabled.
    pub mode: PStateMode,
}

impl DvfsPolicy {
    /// Enabled, hardware-controlled policy.
    pub fn speed_shift() -> Self {
        DvfsPolicy { enabled: true, mode: PStateMode::speed_shift() }
    }

    /// Enabled, OS-controlled policy.
    pub fn os_driven() -> Self {
        DvfsPolicy { enabled: true, mode: PStateMode::os_driven() }
    }

    /// P-states disabled in BIOS: the core always runs at P0.
    pub fn disabled() -> Self {
        DvfsPolicy { enabled: false, mode: PStateMode::Fixed(0) }
    }
}

/// C-state (idle) policy, including the BIOS enable switch and a
/// depth cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CStatePolicy {
    /// BIOS switch: `false` means idling spins in C0 (the OS "idle"
    /// process of §III footnote 2).
    pub enabled: bool,
    /// Deepest C-state index the OS may request.
    pub max_index: u8,
}

impl CStatePolicy {
    /// All C-states available (the common default).
    pub fn all() -> Self {
        CStatePolicy { enabled: true, max_index: u8::MAX }
    }

    /// C-states disabled in BIOS.
    pub fn disabled() -> Self {
        CStatePolicy { enabled: false, max_index: 0 }
    }

    /// Menu-governor selection: the deepest permitted state whose
    /// target residency fits the expected idle interval and whose exit
    /// latency is small relative to it. Returns `None` when C-states
    /// are disabled (caller spins instead).
    pub fn select(&self, table: &PowerStateTable, expected_idle_s: f64) -> Option<CState> {
        if !self.enabled {
            return None;
        }
        let mut chosen = table.cstates[0];
        for &c in &table.cstates {
            let fits_residency = c.target_residency_s <= expected_idle_s;
            let fits_latency = 2.0 * c.exit_latency_s <= expected_idle_s;
            if c.index <= self.max_index && fits_residency && fits_latency {
                chosen = c;
            }
        }
        Some(chosen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> PowerStateTable {
        PowerStateTable::intel_mobile()
    }

    #[test]
    fn menu_governor_deepens_with_idle_time() {
        let p = CStatePolicy::all();
        let t = table();
        let c_short = p.select(&t, 5e-6).unwrap();
        let c_mid = p.select(&t, 150e-6).unwrap();
        let c_long = p.select(&t, 5e-3).unwrap();
        assert!(c_short.index < c_mid.index);
        assert!(c_mid.index < c_long.index);
        assert_eq!(c_long.index, 7);
    }

    #[test]
    fn latency_constraint_prevents_deep_states_for_short_idles() {
        let p = CStatePolicy::all();
        let t = table();
        // 300 µs fits C6 residency (300 µs) but 2·85 µs latency also fits;
        // 170 µs fits C3 residency but not C6 latency comfortably.
        let c = p.select(&t, 170e-6).unwrap();
        assert_eq!(c.index, 3);
    }

    #[test]
    fn max_index_caps_depth() {
        let p = CStatePolicy { enabled: true, max_index: 2 };
        let c = p.select(&table(), 1.0).unwrap();
        assert_eq!(c.index, 2);
    }

    #[test]
    fn disabled_cstates_select_none() {
        assert_eq!(CStatePolicy::disabled().select(&table(), 1.0), None);
    }
}
