//! Electromagnetic emanation synthesis and propagation.
//!
//! Bridges the gap between the VRM's switching activity
//! ([`emsc_vrm::train::SwitchingTrain`]) and the I/Q samples an
//! RTL-SDR would capture: harmonic-rich pulse synthesis at complex
//! baseband ([`synth`]), near-field `1/r³` propagation with antenna
//! and wall models ([`path`]), environmental interferers and AWGN
//! ([`interference`]), and the [`scene::Scene`] composition tying a
//! measurement setup together.
//!
//! # Examples
//!
//! ```
//! use emsc_pmu::{sim::Machine, workload::Program};
//! use emsc_sdr::iq::Complex;
//! use emsc_vrm::buck::{Buck, BuckConfig};
//! use emsc_emfield::scene::Scene;
//! use emsc_emfield::synth::samples_for;
//!
//! let machine = Machine::intel_laptop();
//! let program = Program::alternating(1e-3, 1e-3, 5, machine.nominal_ips());
//! let trace = machine.run(&program, 3);
//! let train = Buck::new(BuckConfig::laptop(970e3)).convert(&trace);
//!
//! // The whole capture as one window at sample 0.
//! let scene = Scene::near_field(970e3);
//! let mut analog = vec![Complex::ZERO; samples_for(&train, scene.synth)];
//! scene.window_renderer(&train, 3).render_into(0, &mut analog);
//! assert!(analog.len() > 20_000); // ≥ 10 ms at 2.4 Msps
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod interference;
pub mod path;
pub mod scene;
pub mod synth;

pub use path::{Antenna, Path};
pub use scene::Scene;
pub use synth::SynthConfig;
