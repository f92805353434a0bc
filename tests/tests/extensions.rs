//! Integration tests for the extension features: packetised
//! transfers, capture recording, architecture blinking and website
//! fingerprinting.

use emsc_core::chain::{Chain, Setup};
use emsc_core::countermeasure::Countermeasure;
use emsc_core::covert_run::CovertScenario;
use emsc_core::fingerprint_run::FingerprintScenario;
use emsc_core::laptop::Laptop;
use emsc_covert::packets::{depacketize, packetize, PacketConfig};
use emsc_covert::rx::{Receiver, RxConfig};
use emsc_covert::tx::{Transmitter, TxConfig};
use emsc_emfield::synth::samples_for;
use emsc_fingerprint::workload::site_library;
use emsc_sdr::record::{read_rtl_u8, write_rtl_u8};
use emsc_sdr::{Capture, Frontend, FrontendConfig};

#[test]
fn packetised_transfer_survives_the_air() {
    let laptop = Laptop::dell_inspiron();
    let chain = Chain::new(&laptop, Setup::NearField);
    let scenario = CovertScenario::for_laptop(&laptop, chain);
    let file = b"multi-packet payload across the gap!";
    let config = PacketConfig::default();
    let n = file.len().div_ceil(config.packet_bytes);

    let bits = packetize(file, config);
    let report = scenario.run_bits(&bits, 0xFA57);
    let out = depacketize(&report.bits, config, Some(n));
    // Indels can cost a packet, never the rest.
    assert!(out.packets.len() >= n - 1, "{} of {} packets", out.packets.len(), n);
    let recovered_bytes = out.payload.len();
    assert!(
        recovered_bytes >= file.len() - config.packet_bytes,
        "only {recovered_bytes} bytes back"
    );
}

#[test]
fn captures_round_trip_through_the_rtl_sdr_format() {
    // Digitise a transmission, serialise it as rtl_sdr u8, read it
    // back, and demodulate the *file* — the receiver must not care.
    let laptop = Laptop::dell_inspiron();
    let chain = Chain::new(&laptop, Setup::NearField);
    let scenario = CovertScenario::for_laptop(&laptop, chain);
    let payload = b"saved to disk";
    let outcome = scenario.run(payload, 31);

    let mut bytes = Vec::new();
    write_rtl_u8(&outcome.chain_run.capture, &mut bytes).unwrap();
    let restored = read_rtl_u8(
        &bytes[..],
        outcome.chain_run.capture.sample_rate,
        outcome.chain_run.capture.center_freq,
    )
    .unwrap();

    let receiver = Receiver::new(scenario.rx.clone());
    let report = receiver.receive(&restored).expect("the restored capture decodes");
    let from_disk = emsc_covert::align_semiglobal(&outcome.tx_bits, &report.bits);
    assert!(from_disk.ber() < 0.02, "BER after u8 round trip: {}", from_disk.ber());
}

#[test]
fn blinking_starves_the_receiver() {
    let laptop = Laptop::dell_inspiron();
    let chain = Countermeasure::Blinking { period_s: 1e-3, duty: 0.6 }
        .apply(Chain::new(&laptop, Setup::NearField));
    let scenario = CovertScenario::for_laptop(&laptop, chain);
    let payload = b"hidden by blinking";
    let outcome = scenario.run(payload, 12);
    assert!(!outcome.recovered(payload), "blinking must break the transfer");
    // Most of the modulation is blanked: far fewer bits demodulate
    // than were sent.
    assert!(
        outcome.report.bits.len() < outcome.tx_bits.len() / 2,
        "{} bits demodulated of {}",
        outcome.report.bits.len(),
        outcome.tx_bits.len()
    );
}

#[test]
fn fingerprinting_separates_extreme_sites() {
    // The heaviest and lightest profiles must be distinguishable from
    // a couple of visits each.
    let lib = site_library();
    let news = lib.iter().find(|s| s.name == "news-portal").unwrap().clone();
    let search = lib.iter().find(|s| s.name == "search").unwrap().clone();
    let laptop = Laptop::dell_precision();
    let chain = Chain::new(&laptop, Setup::NearField);
    let scenario = FingerprintScenario::standard(chain, vec![news, search]);
    let outcome = scenario.run(2, 9);
    assert!(
        outcome.accuracy >= 0.75,
        "two extreme sites should separate: accuracy {}",
        outcome.accuracy
    );
}

#[test]
fn two_transmitters_share_the_ether_by_frequency_division() {
    // Two different laptops (different VRM switching frequencies)
    // transmit simultaneously in the same room; one receiver capture
    // demodulates both, each at its own f_sw — the EM analogue of FDM.
    let a = Laptop::dell_inspiron(); // 970 kHz
    let b = Laptop::lenovo_thinkpad(); // 880 kHz
    let secret_a = b"alpha transmission";
    let secret_b = b"bravo transmission";

    let render = |laptop: &Laptop, payload: &[u8], tuned_to: f64| {
        // Build the laptop's transmission and render it through a
        // noiseless scene tuned to the *shared* receiver frequency.
        let chain = Chain::new(laptop, Setup::NearField);
        let tx = TxConfig::calibrated(
            &chain.machine,
            laptop.tx_active_period_s(),
            laptop.tx_sleep_period_s(),
            laptop.tx_overhead_s(),
        );
        let transmitter = Transmitter::new(tx);
        let mut program = emsc_pmu::workload::Program::new();
        program.sleep(2e-3);
        program.busy(chain.machine.iterations_for_duration(20e-3));
        program.extend(transmitter.program(payload).ops().iter().copied());
        let trace = chain.machine.run(&program, 77);
        let train = emsc_vrm::buck::Buck::new(chain.vrm.clone()).convert(&trace);
        let mut scene = chain.scene.clone();
        scene.synth.center_freq = tuned_to;
        scene.noise_sigma = 0.0; // noise added once, after summing
        let mut analog = vec![emsc_sdr::Complex::ZERO; samples_for(&train, scene.synth)];
        scene.window_renderer(&train, 77).render_into(0, &mut analog);
        (analog, tx, transmitter.on_air_bits(payload))
    };

    // Tune midway between the two fundamentals so both (and their
    // harmonics) stay in the 2.4 MHz window.
    let f_tune = 1.4e6;
    let (sig_a, tx_a, bits_a) = render(&a, secret_a, f_tune);
    let (sig_b, tx_b, bits_b) = render(&b, secret_b, f_tune);

    let n = sig_a.len().min(sig_b.len());
    let mut sum: Vec<emsc_sdr::Complex> = (0..n).map(|i| sig_a[i] + sig_b[i]).collect();
    emsc_emfield::interference::add_awgn_window(&mut sum, 2.0, 99, 0);
    let analog = Capture { samples: sum, sample_rate: 2.4e6, center_freq: f_tune };
    let capture = Frontend::new(FrontendConfig::rtl_sdr_v3(f_tune)).digitize(&analog.samples);
    let capture = Capture { center_freq: f_tune, ..capture };

    for (laptop, tx, bits, secret) in
        [(&a, tx_a, bits_a, &secret_a[..]), (&b, tx_b, bits_b, &secret_b[..])]
    {
        let machine = laptop.machine();
        let expected = tx.expected_bit_period_on(&machine);
        let rx = RxConfig::new(laptop.switching_freq_hz, expected);
        let report = Receiver::new(rx).receive(&capture).expect("the shared capture decodes");
        let alignment = emsc_covert::align_semiglobal(&bits, &report.bits);
        assert!(
            alignment.ber() < 0.03,
            "{}: BER {} in the shared ether",
            laptop.model,
            alignment.ber()
        );
        let out = emsc_covert::frame::try_deframe(&report.bits, tx.frame, 1);
        assert!(out.is_ok(), "{}: frame lost: {out:?}", laptop.model);
        let _ = secret; // exact recovery not required; BER bound is the check
    }
}

#[test]
fn cw_interference_on_f_sw_is_survivable_until_agc_capture() {
    // Fault injection: a continuous tone lands *exactly* on the
    // victim's switching frequency. On-off keying is robust to a
    // constant tone — both levels shift together and the bimodal
    // threshold adapts — until the interferer is strong enough to
    // capture the 8-bit AGC and quantise the modulation away.
    let laptop = Laptop::dell_inspiron(); // f_sw = 970 kHz
    let payload = b"jammed fundamental";

    let run_with = |amplitude: f64| {
        let mut chain = Chain::new(&laptop, Setup::NearField);
        chain.scene.interferers.push(emsc_emfield::interference::Interferer {
            fundamental_hz: laptop.switching_freq_hz,
            amplitude,
            harmonics: 1,
            rolloff: 1.0,
        });
        let scenario = CovertScenario::for_laptop(&laptop, chain);
        let o = scenario.run(payload, 3);
        o.alignment.ber() + o.alignment.insertion_probability() + o.alignment.deletion_probability()
    };

    let moderate = run_with(6.0);
    assert!(
        moderate < 0.05,
        "a tone comparable to the signal must not break OOK: total error {moderate}"
    );
    let capture_level = run_with(2000.0);
    assert!(
        capture_level > 5.0 * moderate.max(0.004),
        "AGC capture should finally break the link: {capture_level} vs {moderate}"
    );
}
