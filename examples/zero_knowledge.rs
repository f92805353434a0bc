//! Zero-knowledge interception: demodulate a covert transmission
//! knowing *nothing* about the victim machine or the transmitter's
//! parameters.
//!
//! ```text
//! cargo run --release -p emsc-examples --example zero_knowledge
//! ```
//!
//! Pipeline: ① locate the VRM spike by peak detection (§V-C's
//! standard trick), ② estimate the bit clock from the energy
//! signal's autocorrelation (what the §IV-C1 sync preamble enables),
//! ③ run the batch receiver, ④ deframe.

use emsc_core::chain::{Chain, Setup};
use emsc_core::covert_run::CovertScenario;
use emsc_core::laptop::Laptop;
use emsc_covert::frame::{try_deframe, FrameConfig};
use emsc_covert::rx::{try_find_switching_frequency, Receiver, RxConfig};

fn main() {
    // The victim: chosen "secretly" — the attacker code below never
    // reads `laptop` or the transmitter configuration.
    let laptop = Laptop::lenovo_thinkpad();
    let secret = b"nobody briefed the attacker";
    let chain = Chain::new(&laptop, Setup::NearField);
    let scenario = CovertScenario::for_laptop(&laptop, chain);
    let outcome = scenario.run(secret, 0x2E20);
    let capture = outcome.chain_run.capture;
    println!("attacker gets: {:.0} ms of I/Q at 2.4 Msps. Nothing else.", capture.duration() * 1e3);

    // ① Where does this laptop's VRM sing?
    let f_sw = match try_find_switching_frequency(&capture, 200e3, 1.3e6) {
        Ok(f) => f,
        Err(e) => {
            println!("① no VRM spike located: {e}");
            return;
        }
    };
    println!("① spectral peak at {:.0} kHz — that's the switching frequency", f_sw / 1e3);

    // ② + ③ Blind demodulation: the receiver is primed with a
    // deliberately wrong bit-period guess and recovers the real one
    // from the signal.
    let rx = Receiver::new(RxConfig::new(f_sw, 1e-3 /* wrong guess */));
    let report = match rx.receive_blind(&capture) {
        Ok(report) => report,
        Err(e) => {
            println!("②③ blind demodulation failed: {e}");
            return;
        }
    };
    println!(
        "②③ recovered bit clock: {:.0} µs ({:.0} bps), {} bits demodulated",
        report.bit_period_s * 1e6,
        report.transmission_rate_bps(),
        report.bits.len()
    );

    // ④ Deframe.
    match try_deframe(&report.bits, FrameConfig::default(), 1) {
        Ok(d) => {
            println!("④ payload: {:?}", String::from_utf8_lossy(&d.payload));
            if d.payload == secret {
                println!("   exact recovery — zero prior knowledge needed");
            }
        }
        Err(e) => println!("④ frame lost: {e}"),
    }
}
