//! Discrete-event CPU power-management simulator.
//!
//! This crate is the bottom substrate for reproducing the HPCA 2020
//! paper *"A New Side-Channel Vulnerability on Modern Computers by
//! Exploiting Electromagnetic Emanations from the Power Management
//! Unit"*. The paper's channel is driven entirely by the time series
//! of processor power-state residency: when the core executes it draws
//! amperes from its voltage regulator; when it parks in a deep C-state
//! it draws almost nothing. Everything the attacker ever sees is a
//! consequence of that trace, so this crate simulates it faithfully:
//!
//! - [`power`]: P-state / C-state tables and the current-draw model,
//! - [`governor`]: DVFS policies (Speed Shift vs. OS-driven) and the
//!   menu-style C-state governor, including the BIOS disable switches
//!   exercised by the paper's §III experiment,
//! - [`timer`]: OS sleep models (`usleep` vs. Windows `Sleep`) with
//!   the granularity and positive-skew jitter that bound the covert
//!   channel's bit rate,
//! - [`workload`]: the Fig. 1 / Fig. 3 style micro-benchmark programs,
//! - [`noise`]: interrupt / housekeeping / background-load processes,
//! - [`sim`]: the [`sim::Machine`] engine tying it together,
//! - [`trace`]: the [`trace::PowerTrace`] output format,
//! - [`energy`]: RAPL-style energy accounting over traces,
//! - [`multicore`]: several cores sharing one voltage rail.
//!
//! # Examples
//!
//! ```
//! use emsc_pmu::sim::Machine;
//! use emsc_pmu::workload::Program;
//!
//! let machine = Machine::intel_laptop();
//! // Alternate 500 µs of work with 500 µs of sleep, 50 times.
//! let program = Program::alternating(500e-6, 500e-6, 50, machine.nominal_ips());
//! let trace = machine.run(&program, 42);
//! assert!(trace.duration_s() > 45e-3);
//! // Work draws far more current than idle: the side channel's root cause.
//! assert!(trace.mean_current_a() > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod energy;
pub mod governor;
pub mod multicore;
pub mod noise;
pub mod power;
pub mod sim;
pub mod timer;
pub mod trace;
pub mod workload;

pub use sim::{ExternalEvent, Machine};
pub use trace::{ActivityKind, PowerTrace, Segment};
