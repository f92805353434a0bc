//! Countermeasures against the PMU side channel (§III and §VI).
//!
//! The paper's §III BIOS experiment: disabling *either* C-states or
//! P-states leaves the channel alive (the processor can still switch
//! between one high- and one low-power state); disabling *both* pins
//! the VRM in its high-power mode and the spikes become constant —
//! no modulation, no channel. §VI additionally proposes randomising
//! the VRM's operation and conventional EMI shielding.

use emsc_pmu::governor::{CStatePolicy, DvfsPolicy};
use emsc_vrm::buck::PeriodRandomization;

use crate::chain::{BlinkingConfig, Chain};

/// A deployable mitigation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Countermeasure {
    /// BIOS: disable C-states (idle spins in C0).
    DisableCStates,
    /// BIOS: disable P-states (always nominal voltage/frequency).
    DisablePStates,
    /// BIOS: disable both — the §III configuration that kills the
    /// modulation entirely.
    DisableBoth,
    /// Circuit-level: randomise the VRM switching period by ±spread
    /// (§VI "adding pre-determinism, randomness, and/or noise to the
    /// operation of the PMU").
    RandomizeVrm {
        /// Relative period spread (0.2 = ±20 %), in `[0, 1)`:
        /// [`emsc_vrm::buck::Buck::new`] rejects any other value.
        spread: f64,
    },
    /// EMI shielding: attenuates the emission by the given amount.
    Shielding {
        /// Shielding effectiveness, decibels.
        attenuation_db: f64,
    },
    /// Architecture blinking (§VI, Althoff et al. \[101\]): the core is
    /// periodically disconnected from the PMU and runs off stored
    /// charge, hiding its activity for `duty` of every `period_s`.
    Blinking {
        /// Blink scheduling period, seconds.
        period_s: f64,
        /// Fraction of time blinked (0–1).
        duty: f64,
    },
}

impl Countermeasure {
    /// Applies the countermeasure to a chain, returning the modified
    /// chain (the original is consumed; chains are cheap to clone).
    pub fn apply(self, mut chain: Chain) -> Chain {
        match self {
            Countermeasure::DisableCStates => {
                chain.machine.cstates = CStatePolicy::disabled();
            }
            Countermeasure::DisablePStates => {
                chain.machine.dvfs = DvfsPolicy::disabled();
            }
            Countermeasure::DisableBoth => {
                chain.machine.cstates = CStatePolicy::disabled();
                chain.machine.dvfs = DvfsPolicy::disabled();
            }
            Countermeasure::RandomizeVrm { spread } => {
                chain.vrm.randomization = Some(PeriodRandomization { spread, seed: 0x5EED });
            }
            Countermeasure::Shielding { attenuation_db } => {
                chain.scene.emission_scale *= 10f64.powf(-attenuation_db / 20.0);
            }
            Countermeasure::Blinking { period_s, duty } => {
                chain.blinking = Some(BlinkingConfig {
                    period_s,
                    duty,
                    // The decoupling capacitor is recharged at a steady
                    // mid-scale current.
                    level_a: 4.0,
                });
            }
        }
        chain
    }

    /// Human-readable label.
    pub fn label(self) -> String {
        match self {
            Countermeasure::DisableCStates => "C-states disabled".into(),
            Countermeasure::DisablePStates => "P-states disabled".into(),
            Countermeasure::DisableBoth => "C- and P-states disabled".into(),
            Countermeasure::RandomizeVrm { spread } => {
                format!("VRM period randomised ±{:.0} %", spread * 100.0)
            }
            Countermeasure::Shielding { attenuation_db } => {
                format!("EMI shielding {attenuation_db:.0} dB")
            }
            Countermeasure::Blinking { period_s, duty } => format!(
                "architecture blinking {:.0} % of every {:.1} ms",
                duty * 100.0,
                period_s * 1e3
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Setup;
    use crate::laptop::Laptop;

    fn chain() -> Chain {
        Chain::new(&Laptop::dell_inspiron(), Setup::NearField)
    }

    #[test]
    fn bios_switches_toggle_policies() {
        let c = Countermeasure::DisableCStates.apply(chain());
        assert!(!c.machine.cstates.enabled);
        assert!(c.machine.dvfs.enabled);

        let p = Countermeasure::DisablePStates.apply(chain());
        assert!(p.machine.cstates.enabled);
        assert!(!p.machine.dvfs.enabled);

        let both = Countermeasure::DisableBoth.apply(chain());
        assert!(!both.machine.cstates.enabled);
        assert!(!both.machine.dvfs.enabled);
    }

    #[test]
    fn vrm_randomization_is_installed() {
        let c = Countermeasure::RandomizeVrm { spread: 0.3 }.apply(chain());
        let r = c.vrm.randomization.expect("randomization installed");
        assert!((r.spread - 0.3).abs() < 1e-12);
    }

    #[test]
    fn shielding_attenuates_emission() {
        let base = chain().scene.emission_scale;
        let c = Countermeasure::Shielding { attenuation_db: 20.0 }.apply(chain());
        assert!((c.scene.emission_scale - base * 0.1).abs() < 1e-9);
    }

    #[test]
    fn blinking_is_installed_on_the_chain() {
        let c = Countermeasure::Blinking { period_s: 1e-3, duty: 0.5 }.apply(chain());
        let b = c.blinking.expect("blinking installed");
        assert!((b.duty - 0.5).abs() < 1e-12);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<String> = [
            Countermeasure::DisableCStates,
            Countermeasure::DisablePStates,
            Countermeasure::DisableBoth,
            Countermeasure::RandomizeVrm { spread: 0.2 },
            Countermeasure::Shielding { attenuation_db: 30.0 },
            Countermeasure::Blinking { period_s: 1e-3, duty: 0.5 },
        ]
        .iter()
        .map(|c| c.label())
        .collect();
        for (i, a) in labels.iter().enumerate() {
            for b in labels.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }
}
