//! Processor performance states (P-states) and idle states (C-states).
//!
//! Modern Intel-style processors expose Demand Based Switching with a
//! set of *P-states* (voltage/frequency operating points used while
//! executing) and *C-states* (increasingly deep idle modes). The
//! side-channel exists because transitions between these states change
//! the load presented to the voltage regulator (§II of the paper).

/// One performance state: a voltage/frequency operating point.
///
/// `P0` is the highest-performance state; higher indices are slower
/// and lower-voltage (matching Intel numbering).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PState {
    /// Index in the platform's P-state table (0 = fastest).
    pub index: u8,
    /// Core clock frequency in hertz.
    pub frequency_hz: f64,
    /// Core supply voltage in volts (the VID the CPU requests).
    pub voltage_v: f64,
}

impl PState {
    /// Creates a P-state.
    ///
    /// # Panics
    ///
    /// Panics if frequency or voltage is not positive.
    pub fn new(index: u8, frequency_hz: f64, voltage_v: f64) -> Self {
        assert!(frequency_hz > 0.0, "frequency must be positive");
        assert!(voltage_v > 0.0, "voltage must be positive");
        PState { index, frequency_hz, voltage_v }
    }
}

/// How much of the core a C-state gates (§II: "C1 through C3 only
/// apply clock-gating, C4 through C6 reduce the voltage, and new
/// Enhanced C-states can do both").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GatingClass {
    /// C0: executing instructions, nothing gated.
    None,
    /// Clock gating only (shallow states).
    Clock,
    /// Voltage reduction (deep states).
    Voltage,
    /// Combined clock and voltage gating (enhanced states).
    Enhanced,
}

/// One idle state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CState {
    /// Index: 0 = C0 (active), larger = deeper idle.
    pub index: u8,
    /// What this state gates.
    pub gating: GatingClass,
    /// Time to wake back to C0, seconds.
    pub exit_latency_s: f64,
    /// Minimum profitable residency, seconds: the menu governor only
    /// selects this state when it predicts at least this much idleness.
    pub target_residency_s: f64,
    /// Core current draw while resident, amperes (the quantity the
    /// VRM — and therefore the attacker — observes).
    pub current_a: f64,
}

impl CState {
    /// Creates a C-state.
    ///
    /// # Panics
    ///
    /// Panics if any latency/current is negative.
    pub fn new(
        index: u8,
        gating: GatingClass,
        exit_latency_s: f64,
        target_residency_s: f64,
        current_a: f64,
    ) -> Self {
        assert!(exit_latency_s >= 0.0 && target_residency_s >= 0.0 && current_a >= 0.0);
        CState { index, gating, exit_latency_s, target_residency_s, current_a }
    }
}

/// The platform's full power-state tables plus the active-execution
/// current model.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerStateTable {
    /// P-states, ordered P0 first.
    pub pstates: Vec<PState>,
    /// C-states, ordered C0 (active) first, deepening.
    pub cstates: Vec<CState>,
    /// Static leakage current at C0, amperes.
    pub leakage_a: f64,
    /// Rail voltage retained in voltage-gated C-states, volts.
    pub retention_voltage_v: f64,
    /// Dynamic current per (GHz · volt²) of switching activity; the
    /// classic `I ∝ C·V·f` CMOS model folded into one coefficient.
    pub dynamic_a_per_ghz_v2: f64,
}

impl PowerStateTable {
    /// A representative Intel mobile-class table (Haswell-era values;
    /// individual laptops in `emsc-core` tweak these).
    pub fn intel_mobile() -> Self {
        PowerStateTable {
            pstates: vec![
                PState::new(0, 3.0e9, 1.10),
                PState::new(1, 2.6e9, 1.02),
                PState::new(2, 2.2e9, 0.96),
                PState::new(3, 1.8e9, 0.90),
                PState::new(4, 1.4e9, 0.84),
                PState::new(5, 1.0e9, 0.78),
                PState::new(6, 0.8e9, 0.72),
            ],
            cstates: vec![
                CState::new(0, GatingClass::None, 0.0, 0.0, 0.0), // current comes from active model
                CState::new(1, GatingClass::Clock, 1e-6, 2e-6, 0.9),
                CState::new(2, GatingClass::Clock, 10e-6, 20e-6, 0.55),
                CState::new(3, GatingClass::Clock, 33e-6, 100e-6, 0.35),
                CState::new(6, GatingClass::Voltage, 85e-6, 300e-6, 0.10),
                CState::new(7, GatingClass::Enhanced, 120e-6, 1e-3, 0.04),
            ],
            leakage_a: 0.5,
            retention_voltage_v: 0.40,
            dynamic_a_per_ghz_v2: 2.2,
        }
    }

    /// The fastest P-state (P0).
    ///
    /// # Panics
    ///
    /// Panics if the table has no P-states.
    pub fn p0(&self) -> PState {
        self.pstates[0]
    }

    /// The slowest (deepest) P-state.
    ///
    /// # Panics
    ///
    /// Panics if the table has no P-states.
    pub fn deepest_pstate(&self) -> PState {
        *self.pstates.last().expect("P-state table must not be empty")
    }

    /// Current drawn while actively executing (C0) in P-state `p`:
    /// leakage plus the `C·V²·f`-style dynamic term.
    pub fn active_current_a(&self, p: PState) -> f64 {
        self.leakage_a
            + self.dynamic_a_per_ghz_v2 * (p.frequency_hz / 1e9) * p.voltage_v * p.voltage_v
    }

    /// Current drawn while resident in C-state `c` (for `C0` use
    /// [`PowerStateTable::active_current_a`]).
    pub fn idle_current_a(&self, c: CState) -> f64 {
        if c.index == 0 {
            self.active_current_a(self.p0())
        } else {
            c.current_a
        }
    }

    /// The core rail voltage while resident in C-state `c` with
    /// P-state `p` selected: voltage-gated states drop to the
    /// retention voltage, everything else holds the P-state's VID.
    pub fn rail_voltage_v(&self, c: CState, p: PState) -> f64 {
        match c.gating {
            GatingClass::Voltage | GatingClass::Enhanced => self.retention_voltage_v,
            GatingClass::None | GatingClass::Clock => p.voltage_v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intel_table_is_ordered() {
        let t = PowerStateTable::intel_mobile();
        for w in t.pstates.windows(2) {
            assert!(w[0].frequency_hz > w[1].frequency_hz, "P-states must slow down");
            assert!(w[0].voltage_v > w[1].voltage_v, "P-state voltage must drop");
        }
        for w in t.cstates.windows(2) {
            assert!(w[0].exit_latency_s <= w[1].exit_latency_s);
            assert!(w[0].target_residency_s <= w[1].target_residency_s);
        }
    }

    #[test]
    fn deeper_cstates_draw_less_current() {
        let t = PowerStateTable::intel_mobile();
        let mut last = f64::INFINITY;
        for &c in t.cstates.iter().skip(1) {
            let i = t.idle_current_a(c);
            assert!(i < last, "C{} current {} should drop", c.index, i);
            last = i;
        }
    }

    #[test]
    fn active_current_scales_with_frequency_and_voltage() {
        let t = PowerStateTable::intel_mobile();
        let fast = t.active_current_a(t.p0());
        let slow = t.active_current_a(t.deepest_pstate());
        assert!(fast > 2.0 * slow, "fast {fast} vs slow {slow}");
        // The active/idle contrast that creates the side channel:
        let deep_idle = t.idle_current_a(*t.cstates.last().unwrap());
        assert!(fast / deep_idle > 50.0, "contrast {}", fast / deep_idle);
    }

    #[test]
    fn c0_idle_current_is_active_current() {
        let t = PowerStateTable::intel_mobile();
        let c0 = t.cstates[0];
        assert_eq!(t.idle_current_a(c0), t.active_current_a(t.p0()));
    }

    #[test]
    #[should_panic(expected = "frequency")]
    fn zero_frequency_pstate_panics() {
        PState::new(0, 0.0, 1.0);
    }
}
