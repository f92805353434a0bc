//! The Fig. 10 scenario: exfiltration through a 35 cm office wall,
//! with a printer and a refrigerator polluting the spectrum.
//!
//! ```text
//! cargo run --release -p emsc-examples --example through_the_wall
//! ```

use emsc_core::chain::{Chain, Setup};
use emsc_core::covert_run::CovertScenario;
use emsc_core::laptop::Laptop;

fn main() {
    let secret = b"NLoS: wall is not an air gap";
    let laptop = Laptop::dell_inspiron();
    println!("victim    : {} in the office", laptop.model);
    println!("receiver  : loop antenna in the next room (1.5 m, 35 cm wall)");
    println!("interferers: laser printer (310 kHz), refrigerator inverter (64 kHz)");

    // The paper backs the rate off until the link is reliable (821 bps).
    let scenario =
        CovertScenario::backed_off(&laptop, Chain::new(&laptop, Setup::ThroughWall), 5.2);

    let outcome = scenario.run(secret, 0x0A11);
    println!();
    println!(
        "link      : {:.0} bps, BER {:.1e}, {} ins, {} del",
        outcome.transmission_rate_bps,
        outcome.alignment.ber(),
        outcome.alignment.insertions,
        outcome.alignment.deletions
    );
    match &outcome.deframed {
        Some(d) => println!("received  : {:?}", String::from_utf8_lossy(&d.payload)),
        None => println!("received  : frame lost"),
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
