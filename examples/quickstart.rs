//! Quickstart: exfiltrate a secret across the air gap and read it back.
//!
//! ```text
//! cargo run --release -p emsc-examples --example quickstart
//! ```
//!
//! Builds the full chain — a simulated Linux laptop running the Fig. 3
//! transmitter, its buck VRM, the EM scene with a coin probe at 10 cm,
//! an RTL-SDR front end — then demodulates the capture with the
//! paper's batch receiver and prints what came out. Exits with status
//! 1 unless the secret comes back exactly.

use emsc_core::chain::{Chain, Setup};
use emsc_core::covert_run::CovertScenario;
use emsc_core::laptop::Laptop;

fn main() {
    let secret = b"meet at the usual place, 23:00";
    let laptop = Laptop::dell_inspiron();
    println!("victim    : {} ({} / {})", laptop.model, laptop.os.name(), laptop.microarch.name());
    println!("receiver  : RTL-SDR v3 + coin probe, 10 cm");
    println!("secret    : {:?}", String::from_utf8_lossy(secret));

    let chain = Chain::new(&laptop, Setup::NearField);
    let scenario = CovertScenario::for_laptop(&laptop, chain);
    let outcome = scenario.run(secret, 2);

    println!();
    println!(
        "on-air    : {} bits at {:.0} bps ({} VRM pulses over {:.0} ms)",
        outcome.tx_bits.len(),
        outcome.transmission_rate_bps,
        outcome.chain_run.train.pulses.len(),
        outcome.chain_run.capture.duration() * 1e3,
    );
    println!(
        "channel   : BER {:.2e}, {} insertions, {} deletions",
        outcome.alignment.ber(),
        outcome.alignment.insertions,
        outcome.alignment.deletions,
    );
    match &outcome.deframed {
        Some(d) => {
            println!(
                "received  : {:?} ({} parity corrections)",
                String::from_utf8_lossy(&d.payload),
                d.corrections
            );
            if d.payload == secret {
                println!("result    : secret recovered exactly — the air gap is crossed");
            } else {
                println!("result    : partially corrupted (indels shift the stream)");
            }
        }
        None => println!("received  : frame marker not found"),
    }
    if outcome.deframed.is_none_or(|d| d.payload != secret) {
        std::process::exit(1);
    }
}
