//! Full-chain validation: transmitter program → power trace → buck
//! converter → EM scene → SDR front end → batch receiver → payload.

use emsc_covert::frame::{try_deframe, FrameConfig};
use emsc_covert::metrics::align;
use emsc_covert::rx::{Receiver, RxConfig};
use emsc_covert::tx::{Transmitter, TxConfig};
use emsc_emfield::scene::Scene;
use emsc_emfield::synth::samples_for;
use emsc_pmu::sim::Machine;
use emsc_sdr::{Complex, Frontend, FrontendConfig};
use emsc_vrm::buck::{Buck, BuckConfig};

const F_SW: f64 = 970e3;

fn transmit_and_receive(payload: &[u8], seed: u64) -> (Vec<u8>, emsc_covert::rx::RxReport) {
    let machine = Machine::intel_laptop();
    let tx = Transmitter::new(TxConfig::calibrated(&machine, 100e-6, 100e-6, 8e-6));
    let mut program = emsc_pmu::workload::Program::new();
    // Lead-in idle so the receiver's window primes before the first bit.
    program.sleep(2e-3);
    program.extend(tx.program(payload).ops().iter().copied());
    program.sleep(2e-3);

    let trace = machine.run(&program, seed);
    let train = Buck::new(BuckConfig::laptop(F_SW)).convert(&trace);
    let scene = Scene::near_field(F_SW);
    let mut analog = vec![Complex::ZERO; samples_for(&train, scene.synth)];
    scene.window_renderer(&train, seed).render_into(0, &mut analog);
    let capture =
        Frontend::new(FrontendConfig::rtl_sdr_v3(scene.synth.center_freq)).digitize(&analog);

    let bit_period = tx.config().expected_bit_period_on(&machine);
    let rx = Receiver::new(RxConfig::new(F_SW, bit_period));
    let report = rx.receive(&capture).expect("the capture decodes");
    (tx.on_air_bits(payload), report)
}

#[test]
fn payload_recovered_over_the_full_chain() {
    let payload = b"hi";
    let (tx_bits, report) = transmit_and_receive(payload, 42);
    let alignment = align(&tx_bits, &report.bits);
    eprintln!(
        "tx {} bits, rx {} bits: {} sub, {} ins, {} del (BER {:.4})",
        tx_bits.len(),
        report.bits.len(),
        alignment.substitutions,
        alignment.insertions,
        alignment.deletions,
        alignment.ber()
    );
    assert!(alignment.ber() < 0.05, "BER {}", alignment.ber());
    let out = try_deframe(&report.bits, FrameConfig::default(), 1)
        .expect("frame marker must be detectable");
    assert_eq!(out.payload, payload.to_vec());
}
