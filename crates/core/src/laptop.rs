//! The six evaluation laptops (Table I) as simulation presets.
//!
//! Each preset bundles the properties that matter to the side channel:
//! the OS sleep API (which bounds the covert bit rate), the
//! microarchitecture generation (which selects Speed Shift vs.
//! OS-driven DVFS, §II), the VRM's switching frequency (where the
//! spikes appear, ~970 kHz for the laptop in Fig. 2), and an emission
//! anchor (MacBooks radiate less — the aluminium unibody is a decent
//! shield — but their precise `usleep` still makes them the fastest
//! transmitters in Table II).

use emsc_pmu::governor::DvfsPolicy;
use emsc_pmu::sim::Machine;
use emsc_pmu::timer::SleepModel;
use emsc_vrm::buck::BuckConfig;

/// Operating-system family (Table I column 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Os {
    /// Linux (Debian/Ubuntu): microsecond-class `usleep`.
    Linux,
    /// macOS (Mojave): microsecond-class `usleep`.
    Macos,
    /// Windows 8/10: millisecond-class `Sleep`.
    Windows,
}

impl Os {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Os::Linux => "Linux",
            Os::Macos => "macOS",
            Os::Windows => "Windows",
        }
    }
}

/// Intel microarchitecture generation (Table I column 3). Skylake and
/// later support Speed Shift (hardware P-states).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Microarch {
    /// Ivy Bridge (2012).
    IvyBridge,
    /// Haswell (2013) — first FIVR generation.
    Haswell,
    /// Broadwell (2014).
    Broadwell,
    /// Skylake (2015) — Speed Shift introduced.
    Skylake,
    /// Kaby Lake (2016).
    KabyLake,
    /// Coffee Lake (2017).
    CoffeeLake,
}

impl Microarch {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Microarch::IvyBridge => "Ivy Bridge",
            Microarch::Haswell => "Haswell",
            Microarch::Broadwell => "Broadwell",
            Microarch::Skylake => "SkyLake",
            Microarch::KabyLake => "Kaby Lake",
            Microarch::CoffeeLake => "Coffee Lake",
        }
    }

    /// Whether the part has hardware-controlled P-states (§II: "more
    /// recently (starting with the Skylake architecture)").
    pub fn has_speed_shift(self) -> bool {
        matches!(self, Microarch::Skylake | Microarch::KabyLake | Microarch::CoffeeLake)
    }
}

/// One evaluation laptop.
#[derive(Debug, Clone)]
pub struct Laptop {
    /// Model name (Table I column 1).
    pub model: &'static str,
    /// Operating system.
    pub os: Os,
    /// Processor generation.
    pub microarch: Microarch,
    /// VRM switching frequency, hertz.
    pub switching_freq_hz: f64,
    /// Emission strength relative to the reference laptop (chassis
    /// material, board layout).
    pub emission_scale: f64,
    /// OS sleep-timer behaviour.
    pub sleep_model: SleepModel,
}

impl Laptop {
    /// Dell Precision 7290 — Windows 10, Kaby Lake.
    pub fn dell_precision() -> Self {
        Laptop {
            model: "DELL Precision 7290",
            os: Os::Windows,
            microarch: Microarch::KabyLake,
            switching_freq_hz: 920e3,
            emission_scale: 1.0,
            sleep_model: SleepModel::Custom {
                granularity_s: 1e-3,
                overhead_s: 15e-6,
                jitter_mean_s: 40e-6,
            },
        }
    }

    /// MacBookPro-2015 — macOS Mojave, Broadwell.
    pub fn macbook_pro_2015() -> Self {
        Laptop {
            model: "MacBookPro (2015)",
            os: Os::Macos,
            microarch: Microarch::Broadwell,
            switching_freq_hz: 1.05e6,
            // Aluminium unibody: weaker emission ⇒ the higher BER the
            // paper measured on both MacBooks.
            emission_scale: 0.12,
            sleep_model: SleepModel::Custom {
                granularity_s: 1e-6,
                overhead_s: 4e-6,
                jitter_mean_s: 9e-6,
            },
        }
    }

    /// Dell Inspiron 15-3537 — Debian Linux, Haswell. The paper's
    /// workhorse (Fig. 2, Table III).
    pub fn dell_inspiron() -> Self {
        Laptop {
            model: "DELL Inspiron 15-3537",
            os: Os::Linux,
            microarch: Microarch::Haswell,
            switching_freq_hz: 970e3,
            emission_scale: 1.0,
            sleep_model: SleepModel::Custom {
                granularity_s: 1e-6,
                overhead_s: 5e-6,
                jitter_mean_s: 18e-6,
            },
        }
    }

    /// MacBookPro-2018 — macOS Mojave, Coffee Lake.
    pub fn macbook_pro_2018() -> Self {
        Laptop {
            model: "MacBookPro (2018)",
            os: Os::Macos,
            microarch: Microarch::CoffeeLake,
            switching_freq_hz: 1.10e6,
            emission_scale: 0.125,
            sleep_model: SleepModel::Custom {
                granularity_s: 1e-6,
                overhead_s: 4e-6,
                jitter_mean_s: 10e-6,
            },
        }
    }

    /// Lenovo ThinkPad — Ubuntu Linux, Skylake.
    pub fn lenovo_thinkpad() -> Self {
        Laptop {
            model: "Lenovo Thinkpad",
            os: Os::Linux,
            microarch: Microarch::Skylake,
            switching_freq_hz: 880e3,
            emission_scale: 0.85,
            sleep_model: SleepModel::Custom {
                granularity_s: 1e-6,
                overhead_s: 6e-6,
                jitter_mean_s: 24e-6,
            },
        }
    }

    /// Sony Ultrabook — Windows 8, Ivy Bridge.
    pub fn sony_ultrabook() -> Self {
        Laptop {
            model: "Sony Ultrabook",
            os: Os::Windows,
            microarch: Microarch::IvyBridge,
            switching_freq_hz: 800e3,
            emission_scale: 0.9,
            sleep_model: SleepModel::Custom {
                granularity_s: 1e-3,
                overhead_s: 20e-6,
                jitter_mean_s: 45e-6,
            },
        }
    }

    /// All six laptops in Table I order.
    pub fn all() -> Vec<Laptop> {
        vec![
            Laptop::dell_precision(),
            Laptop::macbook_pro_2015(),
            Laptop::dell_inspiron(),
            Laptop::macbook_pro_2018(),
            Laptop::lenovo_thinkpad(),
            Laptop::sony_ultrabook(),
        ]
    }

    /// Builds the machine simulator for this laptop (default BIOS
    /// settings: all power states enabled, normal OS noise).
    pub fn machine(&self) -> Machine {
        let dvfs = if self.microarch.has_speed_shift() {
            DvfsPolicy::speed_shift()
        } else {
            DvfsPolicy::os_driven()
        };
        Machine { sleep_model: self.sleep_model, dvfs, ..Machine::intel_laptop() }
    }

    /// Builds this laptop's VRM configuration.
    pub fn vrm(&self) -> BuckConfig {
        BuckConfig::laptop(self.switching_freq_hz)
    }

    /// The covert transmitter's SLEEP_PERIOD for this OS (§IV-C1:
    /// 100 µs for UNIX-likes; the millisecond Windows timer forces a
    /// 0.5 ms request that quantises to the 1 ms tick).
    pub fn tx_sleep_period_s(&self) -> f64 {
        match self.os {
            Os::Linux | Os::Macos => 100e-6,
            Os::Windows => 0.5e-3,
        }
    }

    /// Per-bit housekeeping cost of the transmitter loop on this OS
    /// (bit reading + sleep call entry/exit).
    pub fn tx_overhead_s(&self) -> f64 {
        match self.os {
            // usleep entry/exit, hrtimer programming, scheduler round
            // trip and the fgetc of the next bit.
            Os::Linux | Os::Macos => 20e-6,
            // Win32 `Sleep` + file read + scheduler round trip.
            Os::Windows => 80e-6,
        }
    }

    /// The covert transmitter's busy-phase target for this OS (sized
    /// so active and idle phases are comparable, §IV-C1).
    pub fn tx_active_period_s(&self) -> f64 {
        match self.os {
            Os::Linux | Os::Macos => 100e-6,
            // Windows bits are ~1 ms (timer tick); the busy phase must
            // fill a comparable share of the bit for the power
            // labeling to separate.
            Os::Windows => 450e-6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_has_six_laptops() {
        let all = Laptop::all();
        assert_eq!(all.len(), 6);
        // Distinct models, three OS families represented.
        for (i, a) in all.iter().enumerate() {
            for b in all.iter().skip(i + 1) {
                assert_ne!(a.model, b.model);
            }
        }
        assert!(all.iter().any(|l| l.os == Os::Linux));
        assert!(all.iter().any(|l| l.os == Os::Macos));
        assert!(all.iter().any(|l| l.os == Os::Windows));
    }

    #[test]
    fn speed_shift_matches_generation() {
        assert!(!Microarch::Haswell.has_speed_shift());
        assert!(!Microarch::Broadwell.has_speed_shift());
        assert!(!Microarch::IvyBridge.has_speed_shift());
        assert!(Microarch::Skylake.has_speed_shift());
        assert!(Microarch::KabyLake.has_speed_shift());
        assert!(Microarch::CoffeeLake.has_speed_shift());
    }

    #[test]
    fn switching_frequencies_are_in_the_vrm_band() {
        // §II: spikes at 250 kHz – 1 MHz and harmonics.
        for l in Laptop::all() {
            assert!(
                (250e3..=1.2e6).contains(&l.switching_freq_hz),
                "{}: f_sw {}",
                l.model,
                l.switching_freq_hz
            );
        }
    }

    #[test]
    fn windows_laptops_have_millisecond_timers() {
        for l in Laptop::all() {
            let g = l.sleep_model.granularity_s();
            match l.os {
                Os::Windows => assert!(g >= 1e-3, "{}", l.model),
                _ => assert!(g <= 1e-6, "{}", l.model),
            }
        }
    }

    #[test]
    fn machines_reflect_the_preset() {
        let inspiron = Laptop::dell_inspiron();
        let m = inspiron.machine();
        assert_eq!(m.sleep_model, inspiron.sleep_model);
        assert!(m.dvfs.enabled);
        // Haswell: OS-driven DVFS.
        assert_eq!(m.dvfs, DvfsPolicy::os_driven());
        let thinkpad = Laptop::lenovo_thinkpad().machine();
        assert_eq!(thinkpad.dvfs, DvfsPolicy::speed_shift());
    }

    #[test]
    fn macbooks_radiate_less() {
        let all = Laptop::all();
        let mac_max = all
            .iter()
            .filter(|l| l.os == Os::Macos)
            .map(|l| l.emission_scale)
            .fold(0.0f64, f64::max);
        let others_min = all
            .iter()
            .filter(|l| l.os != Os::Macos)
            .map(|l| l.emission_scale)
            .fold(f64::INFINITY, f64::min);
        assert!(mac_max < others_min);
    }
}
