//! The full side-channel signal chain, end to end.
//!
//! `Program (or events) → Machine → PowerTrace → Buck → SwitchingTrain
//! → Scene → analog baseband → SDR front end → Capture`.
//!
//! A [`Chain`] owns every stage's configuration so a scenario is one
//! value: a laptop, a measurement setup and the BIOS/countermeasure
//! switches.

use emsc_emfield::scene::Scene;
use emsc_pmu::sim::{ExternalEvent, Machine};
use emsc_pmu::trace::PowerTrace;
use emsc_pmu::workload::Program;
use emsc_sdr::{Capture, FrontendConfig};
use emsc_vrm::buck::BuckConfig;
use emsc_vrm::train::SwitchingTrain;

use crate::laptop::Laptop;

/// Where the receiver sits (maps onto [`Scene`] presets).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Setup {
    /// Coin probe at 10 cm (§IV-C2).
    NearField,
    /// Loop antenna at a line-of-sight distance in metres (§IV-C3).
    LineOfSight(f64),
    /// Loop antenna behind the 35 cm wall, with the printer and
    /// refrigerator interferers (Fig. 10).
    ThroughWall,
}

impl Setup {
    /// Builds the EM scene for a given switching frequency.
    pub fn scene(self, f_sw: f64) -> Scene {
        match self {
            Setup::NearField => Scene::near_field(f_sw),
            Setup::LineOfSight(d) => Scene::line_of_sight(f_sw, d),
            Setup::ThroughWall => Scene::through_wall(f_sw),
        }
    }
}

/// Architecture-blinking parameters (the §VI \[101\] countermeasure):
/// during each blink the core runs from locally stored charge and the
/// VRM sees a constant draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlinkingConfig {
    /// Blink scheduling period, seconds.
    pub period_s: f64,
    /// Fraction of each period spent blinked (0–1).
    pub duty: f64,
    /// Constant current the PMU sees during a blink, amperes.
    pub level_a: f64,
}

/// The composed chain.
#[derive(Debug, Clone)]
pub struct Chain {
    /// The victim machine.
    pub machine: Machine,
    /// Its VRM.
    pub vrm: BuckConfig,
    /// The measurement scene.
    pub scene: Scene,
    /// The SDR front end.
    pub frontend: FrontendConfig,
    /// Optional architecture-blinking countermeasure.
    pub blinking: Option<BlinkingConfig>,
}

/// Everything a chain run produces, every stage exposed
/// (C-INTERMEDIATE): the power trace for ground truth, the switching
/// train for VRM-level analysis, and the capture for the receiver.
#[derive(Debug, Clone)]
pub struct ChainRun {
    /// Ground-truth power-state trace.
    pub trace: PowerTrace,
    /// The VRM's switching activity.
    pub train: SwitchingTrain,
    /// The digitised I/Q capture.
    pub capture: Capture,
}

impl Chain {
    /// Builds the chain for a laptop and measurement setup.
    pub fn new(laptop: &Laptop, setup: Setup) -> Self {
        let mut scene = setup.scene(laptop.switching_freq_hz);
        scene.emission_scale *= laptop.emission_scale;
        let frontend = FrontendConfig::rtl_sdr_v3(scene.synth.center_freq);
        Chain { machine: laptop.machine(), vrm: laptop.vrm(), scene, frontend, blinking: None }
    }

    /// The VRM switching frequency this chain is tuned around.
    pub fn switching_freq_hz(&self) -> f64 {
        self.vrm.switching_frequency_hz
    }

    /// Runs a program through the whole chain.
    pub fn run_program(&self, program: &Program, seed: u64) -> ChainRun {
        self.run_trace(self.machine.run(program, seed), seed)
    }

    /// Runs an event-driven scenario (idle machine + injected bursts).
    pub fn run_events(&self, duration_s: f64, events: &[ExternalEvent], seed: u64) -> ChainRun {
        self.run_trace(self.machine.run_events(duration_s, events, seed), seed)
    }

    /// Pushes a power trace, from [`Machine::run`] or built outside
    /// it (e.g. a multi-core composition from
    /// [`emsc_pmu::multicore`]), through the VRM → EM → SDR stages.
    pub fn run_trace(&self, trace: PowerTrace, seed: u64) -> ChainRun {
        // Fused blockwise path (see `crate::fused`): one
        // cache-resident pass per block, bit-identical at any block size.
        crate::fused::ChainStream::new(self, trace, seed).into_run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emsc_pmu::workload::Program;

    #[test]
    fn chain_produces_consistent_stages() {
        let laptop = Laptop::dell_inspiron();
        let chain = Chain::new(&laptop, Setup::NearField);
        let program = Program::alternating(500e-6, 500e-6, 20, chain.machine.steady_state_ips());
        let run = chain.run_program(&program, 7);
        // Stage durations line up (within the sleep-jitter slack).
        assert!(run.train.duration_s >= run.trace.duration_s() - 1e-9);
        let cap_s = run.capture.duration();
        assert!((cap_s - run.trace.duration_s()).abs() < 1e-3);
        assert!(!run.train.pulses.is_empty());
        assert!(!run.capture.samples.is_empty());
    }

    #[test]
    fn setups_map_to_scene_presets() {
        let f = 970e3;
        assert_eq!(Setup::NearField.scene(f).path.distance_m, 0.10);
        assert_eq!(Setup::LineOfSight(2.5).scene(f).path.distance_m, 2.5);
        let wall = Setup::ThroughWall.scene(f);
        assert!(wall.path.wall_loss_db > 0.0);
        assert!(!wall.interferers.is_empty());
    }

    #[test]
    fn emission_scale_multiplies_into_scene() {
        let mut quiet = Laptop::dell_inspiron();
        quiet.emission_scale = 0.5;
        let chain = Chain::new(&quiet, Setup::NearField);
        assert!((chain.scene.emission_scale - 0.5).abs() < 1e-12);
    }

    #[test]
    fn runs_are_deterministic() {
        let laptop = Laptop::lenovo_thinkpad();
        let chain = Chain::new(&laptop, Setup::NearField);
        let program = Program::alternating(200e-6, 200e-6, 10, chain.machine.steady_state_ips());
        let a = chain.run_program(&program, 3);
        let b = chain.run_program(&program, 3);
        assert_eq!(a.capture.samples, b.capture.samples);
    }
}
