//! Locating the VRM spike without prior knowledge of the laptop —
//! the peak-detection step the paper mentions in §V-C (and the core
//! of the FASE methodology the authors cite as closest prior work).
//!
//! ```text
//! cargo run --release -p emsc-examples --example spectrum_scan
//! ```

use emsc_core::chain::{Chain, Setup};
use emsc_core::laptop::Laptop;
use emsc_covert::rx::try_find_switching_frequency;
use emsc_pmu::workload::Program;

fn main() {
    println!("scanning 200 kHz – 1.3 MHz for each laptop's VRM spike\n");
    for laptop in Laptop::all() {
        let chain = Chain::new(&laptop, Setup::NearField);
        // Drive the Fig. 1 micro-benchmark so the spike is modulated.
        let program = Program::alternating(2e-3, 2e-3, 20, chain.machine.steady_state_ips());
        let run = chain.run_program(&program, 1);
        match try_find_switching_frequency(&run.capture, 200e3, 1.3e6) {
            Ok(f) => println!(
                "{:<24} true f_sw {:7.0} kHz, found {:7.0} kHz ({:+.1} kHz)",
                laptop.model,
                laptop.switching_freq_hz / 1e3,
                f / 1e3,
                (f - laptop.switching_freq_hz) / 1e3
            ),
            Err(e) => println!("{:<24} spike not found: {e}", laptop.model),
        }
    }
}
