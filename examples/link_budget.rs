//! Link-budget report: effective information rate and energy cost of
//! every operating point in the paper's evaluation.
//!
//! ```text
//! cargo run --release -p emsc-examples --example link_budget
//! ```
//!
//! Combines the measured BER/IP/DP with the BSC capacity bound
//! (`emsc_covert::capacity`) and RAPL-style energy accounting
//! (`emsc_pmu::energy`) — numbers the paper does not report but a
//! defender doing risk assessment would want.

use emsc_core::chain::{Chain, Setup};
use emsc_core::covert_run::CovertScenario;
use emsc_core::laptop::Laptop;
use emsc_covert::capacity::{bsc_capacity, effective_rate_bps, shannon_capacity_bps};
use emsc_pmu::energy::EnergyReport;

fn main() {
    let payload: Vec<u8> = (0..48u8).map(|i| i.wrapping_mul(37)).collect();
    println!(
        "{:<26} {:>8} {:>10} {:>10} {:>9} {:>11}",
        "operating point", "TR(bps)", "BER", "eff(bps)", "mean(W)", "energy/bit"
    );

    let laptop = Laptop::dell_inspiron();
    let points: Vec<(String, CovertScenario)> = vec![
        (
            "10 cm probe".into(),
            CovertScenario::for_laptop(&laptop, Chain::new(&laptop, Setup::NearField)),
        ),
        ("1 m loop".into(), backed_off(&laptop, Setup::LineOfSight(1.0), 2.0)),
        ("2.5 m loop".into(), backed_off(&laptop, Setup::LineOfSight(2.5), 3.75)),
        ("1.5 m + wall".into(), backed_off(&laptop, Setup::ThroughWall, 5.2)),
    ];

    for (label, scenario) in points {
        let outcome = scenario.run(&payload, 11);
        let a = &outcome.alignment;
        let eff = effective_rate_bps(
            outcome.transmission_rate_bps,
            a.ber().min(0.5),
            a.insertion_probability(),
            a.deletion_probability(),
        );
        let energy = EnergyReport::from_trace(&outcome.chain_run.trace);
        println!(
            "{:<26} {:>8.0} {:>10.1e} {:>10.0} {:>9.2} {:>8.2} µJ",
            label,
            outcome.transmission_rate_bps,
            a.ber(),
            eff,
            energy.mean_w,
            energy.energy_per_bit_j(outcome.tx_bits.len()) * 1e6
        );
    }

    println!();
    println!(
        "BSC capacity at the paper's worst Table II BER (3e-2): {:.2} bit/use",
        bsc_capacity(3e-2)
    );
    println!(
        "Shannon ceiling for a 2.4 kHz bit-bandwidth at 30 dB: {:.0} bps",
        shannon_capacity_bps(2400.0, 30.0)
    );
}

fn backed_off(laptop: &Laptop, setup: Setup, stretch: f64) -> CovertScenario {
    CovertScenario::backed_off(laptop, Chain::new(laptop, setup), stretch)
}
