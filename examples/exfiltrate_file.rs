//! Exfiltrate a multi-packet "file" from an air-gapped machine.
//!
//! ```text
//! cargo run --release -p emsc-examples --example exfiltrate_file
//! ```
//!
//! The threat model of §IV-A: a user-level process that can read a
//! secret file but has no network. It sends the file as a train of
//! independently-framed packets (§IV-C1: "the data can be sent in
//! packets or continuously") — a bit insertion or deletion then costs
//! one packet instead of everything after it. The attacker's receiver
//! sits at 1 m with the briefcase loop antenna. Exits with status 1
//! unless the file comes back exactly.

use emsc_core::chain::{Chain, Setup};
use emsc_core::covert_run::CovertScenario;
use emsc_core::laptop::Laptop;
use emsc_covert::packets::{depacketize, packetize, PacketConfig};

fn main() {
    let file = b"BEGIN RSA PRIVATE KEY simulated contents 0123456789abcdef END";
    let laptop = Laptop::lenovo_thinkpad();
    let config = PacketConfig::default();
    let n_packets = file.len().div_ceil(config.packet_bytes);
    println!("victim    : {} ({})", laptop.model, laptop.os.name());
    println!("receiver  : AOR LA390 loop antenna at 1 m (briefcase)");
    println!("file      : {} bytes in {} packets", file.len(), n_packets);

    let chain = Chain::new(&laptop, Setup::LineOfSight(1.0));
    let scenario = CovertScenario::for_laptop(&laptop, chain);

    let bits = packetize(file, config);
    let report = scenario.run_bits(&bits, 0xF12B);
    let out = depacketize(&report.bits, config, Some(n_packets));

    println!();
    println!(
        "link      : {} on-air bits at ~{:.0} bps",
        bits.len(),
        report.transmission_rate_bps()
    );
    println!(
        "packets   : {}/{} recovered (missing: {:?})",
        out.packets.len(),
        n_packets,
        out.missing
    );
    let total_corrections: usize = out.packets.iter().map(|p| p.corrections).sum();
    println!("parity    : {} corrections applied", total_corrections);
    println!("recovered : {:?}", String::from_utf8_lossy(&out.payload));
    if out.payload != file {
        std::process::exit(1);
    }
    println!("result    : file recovered exactly");
}
