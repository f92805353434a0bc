//! Spectrogram experiments: Fig. 2, the §III BIOS sweep, and Fig. 11.

use emsc_pmu::workload::Program;
use emsc_runtime::par_map;
use emsc_sdr::stats::quantile;
use emsc_sdr::stft::{stft, Spectrogram, StftConfig};
use emsc_sdr::window::Window;

use crate::chain::{Chain, Setup};
use crate::countermeasure::Countermeasure;
use crate::keylog_run::KeylogScenario;
use crate::laptop::Laptop;

/// Scale of a spectral experiment (tests use `quick`, the harness
/// uses `paper`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Fast configuration for unit tests.
    Quick,
    /// Full configuration for the reproduction harness.
    Paper,
}

/// Fig. 2 output: the spectrogram of the alternating micro-benchmark.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// The measured spectrogram.
    pub spectrogram: Spectrogram,
    /// The switching frequency located by peak detection, hertz (RF).
    pub detected_f_sw_hz: f64,
    /// The configured switching frequency, hertz.
    pub true_f_sw_hz: f64,
    /// Spike on/off contrast at `f_sw` (q90/q10 of the bin series).
    pub spike_contrast: f64,
    /// Spike contrast at the first harmonic.
    pub harmonic_contrast: f64,
}

impl Fig2 {
    /// ASCII rendering of the spectrogram (time ↓, frequency →).
    pub fn render(&self) -> String {
        let lo = -1.2e6;
        let hi = 1.2e6;
        let mut s = format!(
            "Fig. 2 — spectrogram, alternating active/idle (f_sw = {:.0} kHz, detected {:.0} kHz)\n",
            self.true_f_sw_hz / 1e3,
            self.detected_f_sw_hz / 1e3
        );
        s.push_str(&format!(
            "spike contrast: fundamental {:.1}x, first harmonic {:.1}x\n",
            self.spike_contrast, self.harmonic_contrast
        ));
        s.push_str(&self.spectrogram.to_ascii(lo, hi, 96, 24));
        s
    }
}

/// Runs the Fig. 2 experiment: the Fig. 1 micro-benchmark alternating
/// `t1 = t2 = 5 ms`, captured near-field on the Dell Inspiron.
pub fn fig2(scale: Scale, seed: u64) -> Fig2 {
    let laptop = Laptop::dell_inspiron();
    let chain = Chain::new(&laptop, Setup::NearField);
    fig2_on(&chain, laptop.switching_freq_hz, scale, seed)
}

/// Fig. 2 on an arbitrary chain (used by the BIOS sweep).
pub fn fig2_on(chain: &Chain, f_sw: f64, scale: Scale, seed: u64) -> Fig2 {
    let reps = match scale {
        Scale::Quick => 8,
        Scale::Paper => 40,
    };
    let ips = chain.machine.steady_state_ips();
    let program = Program::alternating(5e-3, 5e-3, reps, ips);
    let run = chain.run_program(&program, seed);
    let spec = stft(
        &run.capture.samples,
        run.capture.sample_rate,
        &StftConfig::new(1024, 1024, Window::Hann),
    );
    let detected = spec
        .dominant_bin_in(run.capture.baseband(200e3), run.capture.baseband(1.2e6))
        .map(|k| {
            emsc_sdr::fft::bin_frequency(k, 1024, run.capture.sample_rate) + run.capture.center_freq
        })
        .unwrap_or(0.0);
    let contrast_at = |f_rf: f64| {
        let series = spec.band_energy(&[run.capture.baseband(f_rf)]);
        let lo = quantile(&series, 0.10).max(1e-30);
        let hi = quantile(&series, 0.90);
        hi / lo
    };
    Fig2 {
        detected_f_sw_hz: detected,
        true_f_sw_hz: f_sw,
        spike_contrast: contrast_at(f_sw),
        harmonic_contrast: contrast_at(2.0 * f_sw),
        spectrogram: spec,
    }
}

/// One row of the §III BIOS sweep.
#[derive(Debug, Clone)]
pub struct BiosRow {
    /// Configuration label.
    pub config: String,
    /// Median spike level at `f_sw` (arbitrary units).
    pub spike_level: f64,
    /// On/off contrast (q90/q10) of the spike.
    pub contrast: f64,
}

/// The §III experiment: re-run Fig. 2 with C-states and/or P-states
/// disabled in the BIOS. Expected shape: either alone keeps the
/// modulation; both disabled leaves a *strong but constant* spike.
pub fn fig2_bios(scale: Scale, seed: u64) -> Vec<BiosRow> {
    let laptop = Laptop::dell_inspiron();
    let f_sw = laptop.switching_freq_hz;
    let configs: Vec<(String, Chain)> = vec![
        ("all power states enabled".into(), Chain::new(&laptop, Setup::NearField)),
        (
            Countermeasure::DisableCStates.label(),
            Countermeasure::DisableCStates.apply(Chain::new(&laptop, Setup::NearField)),
        ),
        (
            Countermeasure::DisablePStates.label(),
            Countermeasure::DisablePStates.apply(Chain::new(&laptop, Setup::NearField)),
        ),
        (
            Countermeasure::DisableBoth.label(),
            Countermeasure::DisableBoth.apply(Chain::new(&laptop, Setup::NearField)),
        ),
    ];
    // Four independent captures — one pool cell each.
    par_map(&configs, |(config, chain)| {
        let f = fig2_on(chain, f_sw, scale, seed);
        let series = f.spectrogram.band_energy(&[f_sw - chain.scene.synth.center_freq]);
        BiosRow {
            config: config.clone(),
            spike_level: quantile(&series, 0.5),
            contrast: f.spike_contrast,
        }
    })
}

/// Renders the BIOS sweep as a table.
pub fn render_bios(rows: &[BiosRow]) -> String {
    super::render_table(
        "§III — BIOS power-state sweep (spike level and on/off contrast at f_sw)",
        &["configuration", "median spike level", "contrast (q90/q10)"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.config.clone(),
                    format!("{:.1}", r.spike_level),
                    format!("{:.1}x", r.contrast),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// Fig. 11 output: keylogging spectrogram while typing a sentence.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// The spectrogram.
    pub spectrogram: Spectrogram,
    /// The sentence typed.
    pub text: String,
    /// Ground-truth keystroke press times, seconds.
    pub keystroke_times: Vec<f64>,
    /// Detected burst start times, seconds.
    pub detected_times: Vec<f64>,
}

impl Fig11 {
    /// ASCII rendering: per-keystroke spikes over time.
    pub fn render(&self) -> String {
        let mut s = format!(
            "Fig. 11 — PMU emanations while typing \"{}\" ({} keystrokes, {} detected)\n",
            self.text,
            self.keystroke_times.len(),
            self.detected_times.len()
        );
        s.push_str(&self.spectrogram.to_ascii(-1.0e6, 1.0e6, 96, 32));
        s
    }
}

/// Runs Fig. 11: the Dell Precision typing "can you hear me" at
/// near field.
pub fn fig11(seed: u64) -> Fig11 {
    let text = "can you hear me";
    let laptop = Laptop::dell_precision();
    let chain = Chain::new(&laptop, Setup::NearField);
    let scenario = KeylogScenario::standard(chain);
    let outcome = scenario.run(text, seed);
    let spec = stft(
        &outcome.chain_run.capture.samples,
        outcome.chain_run.capture.sample_rate,
        &StftConfig::new(1024, 8192, Window::Hann),
    );
    Fig11 {
        spectrogram: spec,
        text: text.to_string(),
        keystroke_times: outcome.keystrokes.iter().map(|k| k.press_s).collect(),
        detected_times: outcome.detection.bursts.iter().map(|b| b.start_s).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_finds_the_switching_frequency() {
        let f = fig2(Scale::Quick, 3);
        let err = (f.detected_f_sw_hz - f.true_f_sw_hz).abs();
        assert!(err < 5e3, "detected {} vs true {}", f.detected_f_sw_hz, f.true_f_sw_hz);
    }

    #[test]
    fn fig2_spikes_alternate() {
        let f = fig2(Scale::Quick, 3);
        assert!(f.spike_contrast > 5.0, "fundamental contrast {}", f.spike_contrast);
        assert!(f.harmonic_contrast > 3.0, "harmonic contrast {}", f.harmonic_contrast);
    }

    #[test]
    fn fig2_renders() {
        let s = fig2(Scale::Quick, 3).render();
        assert!(s.contains("Fig. 2"));
        assert!(s.lines().count() > 5);
    }

    #[test]
    fn bios_sweep_matches_section_iii() {
        let rows = fig2_bios(Scale::Quick, 3);
        assert_eq!(rows.len(), 4);
        let baseline = &rows[0];
        let no_c = &rows[1];
        let no_p = &rows[2];
        let both = &rows[3];
        // Either alone: modulation survives.
        assert!(no_c.contrast > 3.0, "no-C contrast {}", no_c.contrast);
        assert!(no_p.contrast > 3.0, "no-P contrast {}", no_p.contrast);
        // Both disabled: spikes strong but constant.
        assert!(both.contrast < 2.0, "both-off contrast {}", both.contrast);
        assert!(
            both.spike_level > 3.0 * baseline.spike_level,
            "both-off level {} vs baseline {}",
            both.spike_level,
            baseline.spike_level
        );
    }
}
