//! Scene composition: emitter → path → interference → receiver input.
//!
//! A [`Scene`] bundles everything between the VRM's switching pulses
//! and the SDR's antenna connector: the synthesis configuration, the
//! propagation path, environmental interferers, and the receiver-side
//! noise floor. Rendering a scene produces the ideal analog baseband
//! waveform that [`emsc_sdr::Frontend::digitize`] then quantises.

use emsc_sdr::iq::Complex;
use emsc_vrm::train::SwitchingTrain;

use crate::interference::{add_awgn_window, Interferer};
use crate::path::Path;
use crate::synth::{render_train_window, SynthConfig};

/// A complete RF scene.
#[derive(Debug, Clone, PartialEq)]
pub struct Scene {
    /// Tuner/sampling configuration.
    pub synth: SynthConfig,
    /// Propagation path from the laptop's VRM to the antenna.
    pub path: Path,
    /// Other emitters in the environment.
    pub interferers: Vec<Interferer>,
    /// Receiver-side noise standard deviation per complex sample
    /// (thermal + environmental background), in received units.
    pub noise_sigma: f64,
    /// Emission strength: received amplitude per ampere of replenish
    /// current at the near-field reference path. Folds the VRM's loop
    /// geometry and the probe's coupling into one constant.
    pub emission_scale: f64,
}

impl Scene {
    /// The near-field measurement setup of §IV-C2: coil probe at
    /// 10 cm, quiet lab, RTL-SDR tuned for the given `f_sw`.
    pub fn near_field(f_sw: f64) -> Self {
        Scene {
            synth: SynthConfig::rtl_sdr_for(f_sw),
            path: Path::near_field(),
            interferers: Vec::new(),
            noise_sigma: 2.0,
            emission_scale: 1.0,
        }
    }

    /// Line-of-sight loop-antenna setup at `distance_m` (Table III).
    pub fn line_of_sight(f_sw: f64, distance_m: f64) -> Self {
        Scene { path: Path::line_of_sight(distance_m), ..Scene::near_field(f_sw) }
    }

    /// The Fig. 10 through-the-wall setup, complete with the printer
    /// and refrigerator interferers the paper kept in the rooms.
    pub fn through_wall(f_sw: f64) -> Self {
        Scene {
            path: Path::through_wall(),
            interferers: vec![Interferer::printer(0.8), Interferer::refrigerator(0.5)],
            ..Scene::near_field(f_sw)
        }
    }

    /// A renderer for the windows of the received analog baseband
    /// waveform of one `(train, seed)` run: deterministic, and the
    /// same bit for bit however a capture is cut into windows. This is
    /// what a blockwise producer holds for the run's lifetime; a whole
    /// capture of [`samples_for`](crate::synth::samples_for) samples is
    /// one window at 0.
    pub fn window_renderer<'a>(
        &'a self,
        train: &'a SwitchingTrain,
        seed: u64,
    ) -> WindowRenderer<'a> {
        WindowRenderer { scene: self, train, seed }
    }

    /// Signal-to-noise ratio (dB) a steady replenish current of
    /// `current_a` amperes would enjoy in one FFT bin of `fft_size`
    /// points: the link-budget summary used to pick workable bit rates.
    pub fn bin_snr_db(&self, current_a: f64, fft_size: usize) -> f64 {
        let line = current_a * self.path.gain() * self.emission_scale * fft_size as f64;
        let noise = self.noise_sigma * (fft_size as f64).sqrt();
        20.0 * (line / noise).log10()
    }
}

/// Windowed renderer bound to one `(scene, train, seed)` run — see
/// [`Scene::window_renderer`]. Every window it renders is bit-identical
/// to the matching range of any other decomposition of the run.
#[derive(Debug, Clone, Copy)]
pub struct WindowRenderer<'a> {
    scene: &'a Scene,
    train: &'a SwitchingTrain,
    seed: u64,
}

impl WindowRenderer<'_> {
    /// Renders the window `[start, start + out.len())` of the received
    /// waveform into a caller-zeroed slice: synthesis, path gain,
    /// interferer combs and AWGN, all applied while the block is
    /// cache-resident. Every stage is window-invariant
    /// ([`render_train_window`]'s globally anchored phasors,
    /// positional interferer phases, blockwise sub-seeded noise), so
    /// the decomposition into blocks is unobservable in the output.
    pub fn render_into(&self, start: usize, out: &mut [Complex]) {
        let scene = self.scene;
        render_train_window(self.train, scene.synth, start, out);
        let gain = scene.path.gain() * scene.emission_scale;
        for s in out.iter_mut() {
            *s = s.scale(gain);
        }
        for (i, intf) in scene.interferers.iter().enumerate() {
            intf.add_to_window(
                out,
                scene.synth.sample_rate,
                scene.synth.center_freq,
                self.seed ^ (i as u64) << 32,
                start,
            );
        }
        add_awgn_window(out, scene.noise_sigma, self.seed ^ 0x00ff_00ff_00ff_00ff, start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::samples_for;
    use emsc_sdr::fft::{frequency_bin, plan_for};
    use emsc_vrm::train::Pulse;

    fn regular_train(f_sw: f64, charge_c: f64, duration_s: f64) -> SwitchingTrain {
        let period = 1.0 / f_sw;
        let n = (duration_s / period) as usize;
        SwitchingTrain {
            pulses: (0..n).map(|k| Pulse { t_s: k as f64 * period, charge_c }).collect(),
            nominal_period_s: period,
            duration_s,
        }
    }

    /// The whole capture of a run: one window at 0.
    fn render(scene: &Scene, train: &SwitchingTrain, seed: u64) -> Vec<Complex> {
        let mut buf = vec![Complex::ZERO; samples_for(train, scene.synth)];
        scene.window_renderer(train, seed).render_into(0, &mut buf);
        buf
    }

    fn line_amp(buf: &[Complex], fs: f64, f_bb: f64) -> f64 {
        let n = 8192;
        let mut spec = buf[..n].to_vec();
        plan_for(n).forward(&mut spec);
        let k = frequency_bin(f_bb, n, fs);
        spec[k].abs() / n as f64
    }

    #[test]
    fn near_field_line_is_far_above_noise() {
        let f_sw = 970e3;
        let scene = Scene::near_field(f_sw);
        let train = regular_train(f_sw, 8e-6, 8e-3);
        let buf = render(&scene, &train, 5);
        let line = line_amp(&buf, scene.synth.sample_rate, scene.synth.baseband(f_sw));
        let noise_bin = line_amp(&buf, scene.synth.sample_rate, scene.synth.baseband(f_sw) + 200e3);
        assert!(line / noise_bin > 30.0, "line {line}, noise {noise_bin}");
    }

    #[test]
    fn distance_reduces_line_amplitude() {
        let f_sw = 970e3;
        let train = regular_train(f_sw, 8e-6, 8e-3);
        let mut amps = Vec::new();
        for d in [1.0, 1.5, 2.5] {
            let scene = Scene::line_of_sight(f_sw, d);
            let buf = render(&scene, &train, 5);
            amps.push(line_amp(&buf, scene.synth.sample_rate, scene.synth.baseband(f_sw)));
        }
        assert!(amps[0] > amps[1] && amps[1] > amps[2], "{amps:?}");
    }

    #[test]
    fn wall_scene_has_interferers_but_signal_survives() {
        let f_sw = 970e3;
        let scene = Scene::through_wall(f_sw);
        let train = regular_train(f_sw, 8e-6, 8e-3);
        let buf = render(&scene, &train, 5);
        let fs = scene.synth.sample_rate;
        let line = line_amp(&buf, fs, scene.synth.baseband(f_sw));
        // Printer harmonic (310 kHz × 4 = 1.24 MHz ⇒ −215 kHz baseband) is present…
        let printer = line_amp(&buf, fs, 310e3 * 4.0 - scene.synth.center_freq);
        assert!(printer > 0.1, "printer line {printer}");
        // …and does not sit on the VRM bin, whose line is still detectable.
        let off_bin = line_amp(&buf, fs, scene.synth.baseband(f_sw) + 150e3);
        assert!(line > 3.0 * off_bin, "line {line} vs floor {off_bin}");
    }

    #[test]
    fn bin_snr_budget_orders_scenarios() {
        let f_sw = 970e3;
        let near = Scene::near_field(f_sw).bin_snr_db(8.0, 1024);
        let m1 = Scene::line_of_sight(f_sw, 1.0).bin_snr_db(8.0, 1024);
        let m25 = Scene::line_of_sight(f_sw, 2.5).bin_snr_db(8.0, 1024);
        let wall = Scene::through_wall(f_sw).bin_snr_db(8.0, 1024);
        assert!(near > m1 && m1 > m25 && m25 > wall, "{near} {m1} {m25} {wall}");
        // Near-field budget is comfortably positive; the wall case is
        // the marginal one, as in the paper.
        assert!(near > 30.0);
        assert!(wall > 0.0 && wall < near - 20.0);
    }

    #[test]
    fn windowed_scene_render_composes_bitwise() {
        // through_wall exercises every stage: synthesis, path gain,
        // both interferer combs and AWGN.
        let f_sw = 970e3;
        let scene = Scene::through_wall(f_sw);
        let train = regular_train(f_sw, 8e-6, 4e-3);
        let whole = render(&scene, &train, 77);
        let n = whole.len();
        let renderer = scene.window_renderer(&train, 77);
        for window in [7usize, 997, 4096, n] {
            let mut composed = vec![Complex::ZERO; n];
            let mut start = 0;
            while start < n {
                let len = window.min(n - start);
                renderer.render_into(start, &mut composed[start..start + len]);
                start += len;
            }
            for (i, (a, b)) in composed.iter().zip(&whole).enumerate() {
                assert!(
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                    "window {window}: sample {i} differs"
                );
            }
        }
    }

    #[test]
    fn render_is_deterministic() {
        let f_sw = 1e6;
        let scene = Scene::through_wall(f_sw);
        let train = regular_train(f_sw, 4e-6, 2e-3);
        assert_eq!(render(&scene, &train, 9), render(&scene, &train, 9));
        assert_ne!(render(&scene, &train, 9), render(&scene, &train, 10));
    }
}
