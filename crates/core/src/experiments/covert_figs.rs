//! The covert-channel mechanism figures: Figs. 4–8.

use emsc_covert::metrics::{align, Alignment};
use emsc_covert::rx::RxReport;
use emsc_pmu::noise::NoiseConfig;
use emsc_runtime::par_map;
use emsc_sdr::stats::{skewness, Histogram, RayleighFit};

use crate::chain::{Chain, Setup};
use crate::covert_run::CovertScenario;
use crate::laptop::Laptop;

fn standard_scenario() -> CovertScenario {
    let laptop = Laptop::dell_inspiron();
    let chain = Chain::new(&laptop, Setup::NearField);
    CovertScenario::for_laptop(&laptop, chain)
}

fn pseudo_payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(151).wrapping_add(43)).collect()
}

/// Fig. 4: the Eq. (1) energy signal with the transmitted bits.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// The receiver's full report (energy, starts, bits…).
    pub report: RxReport,
    /// The bits that were transmitted.
    pub tx_bits: Vec<u8>,
}

impl Fig4 {
    /// Renders the energy signal as an ASCII strip chart with bit
    /// boundaries.
    pub fn render(&self) -> String {
        let mut s = String::from("Fig. 4 — energy signal Y[n] (Eq. 1) with recovered bit starts\n");
        let y = &self.report.energy;
        let n = y.len().min(4000);
        let peak = y[..n].iter().cloned().fold(1e-30, f64::max);
        let cols = 96;
        let per_col = n.div_ceil(cols);
        let mut levels = Vec::new();
        for c in 0..cols {
            let lo = c * per_col;
            let hi = ((c + 1) * per_col).min(n);
            if lo >= hi {
                break;
            }
            let m = y[lo..hi].iter().cloned().fold(0.0, f64::max);
            levels.push((m / peak * 7.0).round() as usize);
        }
        for row in (0..8).rev() {
            for &l in &levels {
                s.push(if l >= row { '#' } else { ' ' });
            }
            s.push('\n');
        }
        s.push_str(&format!(
            "{} bits transmitted, {} starts detected, bit period {:.0} µs\n",
            self.tx_bits.len(),
            self.report.starts.len(),
            self.report.bit_period_s * 1e6
        ));
        s
    }
}

/// Runs Fig. 4: a short pattern over the standard near-field chain.
pub fn fig4(seed: u64) -> Fig4 {
    let scenario = standard_scenario();
    let outcome = scenario.run(&pseudo_payload(4), seed);
    Fig4 { report: outcome.report, tx_bits: outcome.tx_bits }
}

/// Fig. 5: the edge-detection convolution and its peaks.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// The receiver report (the edge response lives in it).
    pub report: RxReport,
    /// Fraction of transmitted bits whose start produced a raw edge
    /// peak (before gap filling).
    pub raw_edge_coverage: f64,
}

/// Runs Fig. 5 on the standard chain.
pub fn fig5(seed: u64) -> Fig5 {
    let scenario = standard_scenario();
    let payload = pseudo_payload(8);
    let outcome = scenario.run(&payload, seed);
    let coverage = outcome.report.raw_starts.len() as f64 / outcome.tx_bits.len() as f64;
    Fig5 { report: outcome.report, raw_edge_coverage: coverage }
}

/// Fig. 6: the pulse-width (inter-start distance) distribution.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// Inter-start distances, seconds.
    pub distances_s: Vec<f64>,
    /// Shifted-Rayleigh fit to the distances.
    pub fit: RayleighFit,
    /// Sample skewness (positive = right-skewed, as in the paper).
    pub skewness: f64,
    /// The median the receiver picked as the signalling time.
    pub median_s: f64,
}

impl Fig6 {
    /// Renders the distance histogram with the fitted density: the
    /// header alone when there are no distances to bin.
    pub fn render(&self) -> String {
        let mut s = format!(
            "Fig. 6 — pulse-width distribution: median {:.0} µs, skewness {:+.2}, Rayleigh σ {:.1} µs\n",
            self.median_s * 1e6,
            self.skewness,
            self.fit.sigma * 1e6
        );
        let Ok(hist) = Histogram::try_from_data(&self.distances_s, 36) else { return s };
        let density = hist.density();
        let peak = density.iter().cloned().fold(1e-30, f64::max);
        for (i, &d) in density.iter().enumerate() {
            let bar = (d / peak * 60.0).round() as usize;
            s.push_str(&format!("{:7.0} µs | {}\n", hist.bin_center(i) * 1e6, "*".repeat(bar)));
        }
        s
    }
}

/// Runs Fig. 6 over a longer stream so the distribution fills in.
pub fn fig6(seed: u64) -> Fig6 {
    let scenario = standard_scenario();
    let outcome = scenario.run(&pseudo_payload(48), seed);
    // Single-bit spacings only: multi-bit gaps (lead-in, pauses,
    // missed starts) belong to the detection pathology, not the
    // pulse-width distribution of Fig. 6.
    let distances: Vec<f64> = outcome
        .report
        .distances_s
        .iter()
        .copied()
        .filter(|&d| d < 1.8 * outcome.report.bit_period_s)
        .collect();
    // A decode that produced no inter-start distances (e.g. a fully
    // impaired capture) degrades to a flat fit instead of panicking.
    let fit = RayleighFit::try_fit(&distances).unwrap_or(RayleighFit { location: 0.0, sigma: 0.0 });
    Fig6 {
        skewness: skewness(&distances),
        median_s: outcome.report.bit_period_s,
        distances_s: distances,
        fit,
    }
}

/// Fig. 7: the per-bit power distribution and the threshold between
/// its two modes.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// Per-bit mean powers.
    pub powers: Vec<f64>,
    /// Selected threshold.
    pub threshold: f64,
    /// The two modes, when found.
    pub modes: Option<(f64, f64)>,
}

impl Fig7 {
    /// Renders the power histogram with the threshold marked: the
    /// header alone when there are no powers to bin.
    pub fn render(&self) -> String {
        let mut s = match self.modes {
            Some((lo, hi)) => format!(
                "Fig. 7 — per-bit power distribution: modes at {lo:.1} and {hi:.1}, threshold {:.1}\n",
                self.threshold
            ),
            None => format!("Fig. 7 — per-bit power distribution: threshold {:.1}\n", self.threshold),
        };
        let Ok(hist) = Histogram::try_from_data(&self.powers, 36) else { return s };
        let counts = hist.counts();
        let peak = counts.iter().cloned().max().unwrap_or(1) as f64;
        for (i, &c) in counts.iter().enumerate() {
            let center = hist.bin_center(i);
            let mark =
                if (center - self.threshold).abs() < (hist.bin_center(1) - hist.bin_center(0)) {
                    "<-- thr"
                } else {
                    ""
                };
            s.push_str(&format!(
                "{:9.1} | {} {}\n",
                center,
                "*".repeat((c as f64 / peak * 60.0).round() as usize),
                mark
            ));
        }
        s
    }
}

/// Runs Fig. 7 on the standard chain.
pub fn fig7(seed: u64) -> Fig7 {
    let scenario = standard_scenario();
    let outcome = scenario.run(&pseudo_payload(48), seed);
    Fig7 {
        powers: outcome.report.powers.clone(),
        threshold: outcome.report.threshold,
        modes: outcome.report.threshold_modes,
    }
}

/// Fig. 8: bit insertion/deletion under interrupt-heavy conditions.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// Alignment under normal system noise.
    pub normal: Alignment,
    /// Alignment with an interrupt storm (long bursts injected).
    pub stormy: Alignment,
}

impl Fig8 {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        super::render_table(
            "Fig. 8 — insertions/deletions from system activity",
            &["condition", "substitutions", "insertions", "deletions"],
            &[
                vec![
                    "normal OS noise".into(),
                    self.normal.substitutions.to_string(),
                    self.normal.insertions.to_string(),
                    self.normal.deletions.to_string(),
                ],
                vec![
                    "interrupt storm".into(),
                    self.stormy.substitutions.to_string(),
                    self.stormy.insertions.to_string(),
                    self.stormy.deletions.to_string(),
                ],
            ],
        )
    }
}

/// Runs Fig. 8: the same transfer with normal noise and with an
/// injected storm of long interrupts (the §IV-B4 "domino effect"
/// conditions). Uses the *global* alignment so the error events are
/// visible even at the stream edges.
pub fn fig8(seed: u64) -> Fig8 {
    let payload = pseudo_payload(24);
    let storm =
        NoiseConfig { long_rate_hz: 120.0, long_duration_s: 500e-6, ..NoiseConfig::normal() };
    // The two arms are independent captures — run them concurrently.
    let arms = par_map(&[NoiseConfig::normal(), storm], |&noise| {
        let laptop = Laptop::dell_inspiron();
        let mut chain = Chain::new(&laptop, Setup::NearField);
        chain.machine.noise = noise;
        let outcome = CovertScenario::for_laptop(&laptop, chain).run(&payload, seed);
        align(&outcome.tx_bits, &outcome.report.bits)
    });
    Fig8 { normal: arms[0], stormy: arms[1] }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_energy_tracks_bits() {
        let f = fig4(1);
        assert!(!f.report.energy.is_empty());
        // Start count within ~15 % of the transmitted bit count.
        let ratio = f.report.starts.len() as f64 / f.tx_bits.len() as f64;
        assert!((0.85..1.15).contains(&ratio), "ratio {ratio}");
        assert!(f.render().contains("Fig. 4"));
    }

    #[test]
    fn fig5_edges_cover_most_bits() {
        let f = fig5(1);
        assert!(f.raw_edge_coverage > 0.8, "coverage {}", f.raw_edge_coverage);
        assert!(!f.report.edge_response.is_empty());
    }

    #[test]
    fn fig6_distances_are_right_skewed() {
        let f = fig6(1);
        assert!(f.distances_s.len() > 100);
        assert!(f.skewness > 0.0, "skewness {}", f.skewness);
        // Median near the fit's median (Rayleigh-like shape).
        let rel = (f.fit.median() - f.median_s).abs() / f.median_s;
        assert!(rel < 0.25, "fit median {} vs {}", f.fit.median(), f.median_s);
        assert!(f.render().contains("µs"));
    }

    #[test]
    fn fig7_powers_are_bimodal() {
        let f = fig7(1);
        let (lo, hi) = f.modes.expect("bimodal power histogram");
        assert!(lo < f.threshold && f.threshold < hi);
        assert!(hi > 3.0 * lo, "modes too close: {lo} {hi}");
    }

    #[test]
    fn fig6_and_fig7_without_data_render_their_header_alone() {
        let fig6 = Fig6 {
            distances_s: Vec::new(),
            fit: RayleighFit { location: 0.0, sigma: 0.0 },
            skewness: 0.0,
            median_s: 0.0,
        };
        assert_eq!(
            fig6.render(),
            "Fig. 6 — pulse-width distribution: median 0 µs, skewness +0.00, Rayleigh σ 0.0 µs\n"
        );
        let fig7 = Fig7 { powers: Vec::new(), threshold: 0.0, modes: None };
        assert_eq!(fig7.render(), "Fig. 7 — per-bit power distribution: threshold 0.0\n");
    }

    #[test]
    fn fig8_storm_causes_more_indels() {
        let f = fig8(1);
        let normal_indels = f.normal.insertions + f.normal.deletions;
        let stormy_indels = f.stormy.insertions + f.stormy.deletions;
        assert!(stormy_indels > normal_indels, "storm {stormy_indels} vs normal {normal_indels}");
    }
}
