//! The Fig. 10 scenario: exfiltration through a 35 cm office wall,
//! with a printer and a refrigerator polluting the spectrum.
//!
//! ```text
//! cargo run --release -p emsc-examples --example through_the_wall
//! ```

use emsc_core::chain::{Chain, Setup};
use emsc_core::covert_run::CovertScenario;
use emsc_core::experiments::tables::fig10_scenario;
use emsc_core::laptop::Laptop;

fn main() {
    let secret = b"NLoS: wall is not an air gap";
    let laptop = Laptop::dell_inspiron();
    println!("victim    : {} in the office", laptop.model);
    println!("receiver  : loop antenna in the next room (1.5 m, 35 cm wall)");
    println!("interferers: laser printer (310 kHz), refrigerator inverter (64 kHz)");

    // Fig. 10's link: the paper backs the rate off until the link is
    // reliable (821 bps).
    let outcome = fig10_scenario().run(secret, 0x0A11);
    println!();
    println!(
        "link      : {:.0} bps, BER {:.1e}, {} ins, {} del",
        outcome.transmission_rate_bps,
        outcome.alignment.ber(),
        outcome.alignment.insertions,
        outcome.alignment.deletions
    );
    if outcome.recovered(secret) {
        println!("received  : {:?}", String::from_utf8_lossy(secret));
    } else if let Some(d) = &outcome.deframed {
        let right = secret.iter().zip(&d.payload).filter(|(a, b)| a == b).count();
        println!(
            "received  : misdecoded, {right} of {} bytes right at their position",
            secret.len()
        );
    } else {
        println!("received  : frame lost");
    }

    // Compare with the same payload at line of sight, same distance.
    let los_chain = Chain::new(&laptop, Setup::LineOfSight(1.5));
    let los = CovertScenario::for_laptop(&laptop, los_chain).run(secret, 0x0A11);
    println!();
    println!(
        "for reference, line-of-sight at 1.5 m runs {:.0} bps at BER {:.1e}",
        los.transmission_rate_bps,
        los.alignment.ber()
    );
}
