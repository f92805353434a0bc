//! Thread-count independence of the experiment runtime.
//!
//! Every experiment fans its (scenario × run) cells across the
//! `emsc-runtime` worker pool, with each cell's RNG seed derived from
//! the cell index rather than from scheduling order. These tests pin
//! the resulting guarantee: the typed rows an experiment returns are
//! bit-identical whether the pool has one worker or many.

use emsc_core::chain::{Chain, Setup};
use emsc_core::covert_run::CovertScenario;
use emsc_core::experiments::tables::{measure_channel_grid, ChannelRow, TableScale};
use emsc_core::laptop::Laptop;
use emsc_runtime::{seed_for, with_threads};

fn small_grid(seed: u64) -> Vec<ChannelRow> {
    // Two laptops × two runs keeps this under a second while still
    // exercising multi-cell scheduling on the pool.
    let scenarios: Vec<(String, CovertScenario)> = Laptop::all()
        .iter()
        .take(2)
        .map(|laptop| {
            let chain = Chain::new(laptop, Setup::NearField);
            (laptop.model.to_string(), CovertScenario::for_laptop(laptop, chain))
        })
        .collect();
    let scale = TableScale { payload_bytes: 16, runs: 2 };
    measure_channel_grid(&scenarios, scale, seed)
}

/// FNV-1a over the little-endian bytes of each word: a golden digest
/// of a sweep's serial rows (every float's bits and every count), so
/// that a change to a scorer or reducer that moves one bit fails here.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Field-for-field bit equality of two row sets. Float fields are
/// compared via `to_bits` so `-0.0 != 0.0` and NaN payloads would be
/// caught too.
fn assert_rows_bit_identical(a: &[ChannelRow], b: &[ChannelRow]) {
    assert_eq!(a.len(), b.len(), "row counts differ");
    for (ra, rb) in a.iter().zip(b) {
        assert_eq!(ra.label, rb.label);
        assert_eq!(ra.ber.to_bits(), rb.ber.to_bits(), "ber for {}", ra.label);
        assert_eq!(ra.tr_bps.to_bits(), rb.tr_bps.to_bits(), "tr_bps for {}", ra.label);
        assert_eq!(ra.ip.to_bits(), rb.ip.to_bits(), "ip for {}", ra.label);
        assert_eq!(ra.dp.to_bits(), rb.dp.to_bits(), "dp for {}", ra.label);
        assert_eq!(
            ra.recovery_rate.to_bits(),
            rb.recovery_rate.to_bits(),
            "recovery_rate for {}",
            ra.label
        );
        assert_eq!(ra.decode_failures, rb.decode_failures, "decode_failures for {}", ra.label);
    }
}

#[test]
fn channel_grid_rows_are_identical_across_thread_counts() {
    let seed = 2020;
    let serial = with_threads(1, || small_grid(seed));
    let digest = fnv1a(serial.iter().flat_map(|r| {
        [r.ber, r.tr_bps, r.ip, r.dp, r.recovery_rate]
            .map(f64::to_bits)
            .into_iter()
            .chain([r.decode_failures as u64])
    }));
    assert_eq!(digest, 0x6d25_4783_901c_59ce, "grid rows moved: {serial:?}");
    for threads in [2, 4, 7] {
        let pooled = with_threads(threads, || small_grid(seed));
        assert_rows_bit_identical(&serial, &pooled);
    }
}

#[test]
fn fused_streamed_runs_match_batch_across_thread_counts() {
    // The grid above now runs every cell through the fused streamed
    // path; this pins the underlying per-run guarantee directly: a
    // streamed covert run yields the batch path's metrics bit for bit,
    // at any worker count.
    let laptop = Laptop::all()[0].clone();
    let chain = Chain::new(&laptop, Setup::NearField);
    let scenario = CovertScenario::for_laptop(&laptop, chain);
    let payload = b"fused-thread-sweep";
    let batch = with_threads(1, || scenario.run(payload, 2020));
    for threads in [1usize, 3] {
        let streamed = with_threads(threads, || scenario.run_streamed(payload, 2020));
        assert_eq!(streamed.report.bits, batch.report.bits, "{threads} threads");
        assert_eq!(
            streamed.alignment.ber().to_bits(),
            batch.alignment.ber().to_bits(),
            "{threads} threads"
        );
        assert_eq!(
            streamed.transmission_rate_bps.to_bits(),
            batch.transmission_rate_bps.to_bits(),
            "{threads} threads"
        );
        assert_eq!(streamed.recovered(payload), batch.recovered(payload), "{threads} threads");
    }
}

#[test]
fn channel_grid_rows_depend_on_the_seed() {
    // Guard against the degenerate way the test above could pass:
    // rows that ignore the seed entirely.
    let a = with_threads(1, || small_grid(2020));
    let b = with_threads(1, || small_grid(2021));
    assert!(
        a.iter().zip(&b).any(|(ra, rb)| ra.ber.to_bits() != rb.ber.to_bits()
            || ra.tr_bps.to_bits() != rb.tr_bps.to_bits()),
        "different base seeds must change at least one row"
    );
}

#[test]
fn robust_sweep_is_identical_across_thread_counts_and_meets_e6_acceptance() {
    use emsc_core::experiments::robust::{robust_sweep, RobustRow};
    let scale = TableScale { payload_bytes: 16, runs: 1 };
    let serial = with_threads(1, || robust_sweep(scale, 19));
    let pooled = with_threads(3, || robust_sweep(scale, 19));
    let digest = fnv1a(serial.iter().flat_map(|r| {
        [
            r.severity as u64,
            r.channel.ber.to_bits(),
            r.channel.dp.to_bits(),
            r.goodput_bps.to_bits(),
            r.channel.recovery_rate.to_bits(),
            r.lost as u64,
            r.resyncs as u64,
            r.markers_missed as u64,
            r.corrected as u64,
            r.channel.tr_bps.to_bits(),
        ]
    }));
    assert_eq!(digest, 0x6cdf_92d8_647b_1f31, "E6 rows moved: {serial:?}");
    let typed = fnv1a(
        serial.iter().flat_map(|r| [r.channel.ip.to_bits(), r.channel.decode_failures as u64]),
    );
    // Both read 0 in every row at this scale.
    assert_eq!(typed, 0x81b1_69c3_31ca_bfa5, "E6 IP or receiver failures moved: {serial:?}");
    let channels = |rows: &[RobustRow]| rows.iter().map(|r| r.channel.clone()).collect::<Vec<_>>();
    assert_rows_bit_identical(&channels(&serial), &channels(&pooled));
    for (ra, rb) in serial.iter().zip(&pooled) {
        let at = format!("severity {} mode {}", ra.severity, ra.mode);
        assert_eq!(ra.severity, rb.severity);
        assert_eq!(ra.mode, rb.mode, "mode at {at}");
        assert_eq!(ra.goodput_bps.to_bits(), rb.goodput_bps.to_bits(), "goodput at {at}");
        assert_eq!(ra.lost, rb.lost, "lost at {at}");
        assert_eq!(ra.resyncs, rb.resyncs, "resyncs at {at}");
        assert_eq!(ra.markers_missed, rb.markers_missed, "markers_missed at {at}");
        assert_eq!(ra.corrected, rb.corrected, "corrected at {at}");
    }
    // E6 acceptance on the same rows: at the severe stack the rigid
    // mode delivers nothing while the marker mode still delivers.
    let row = |sev: usize, mode: &str| {
        serial
            .iter()
            .find(|r| r.severity == sev && r.mode == mode)
            .unwrap_or_else(|| panic!("missing row: severity {sev} mode {mode}"))
    };
    assert_eq!(row(4, "rigid").goodput_bps, 0.0, "severity 4 must silence the rigid mode");
    assert!(row(4, "marker").goodput_bps > 0.0, "marker mode must deliver at severity 4");
}

#[test]
fn cell_seeds_do_not_collide_on_a_real_grid() {
    // The per-cell seeds an experiment derives must be distinct even
    // for adjacent base seeds and cell indices.
    let mut seen = std::collections::HashSet::new();
    for base in 2020..2024u64 {
        for cell in 0..64u64 {
            assert!(
                seen.insert(seed_for(base, cell)),
                "seed collision at base {base}, cell {cell}"
            );
        }
    }
}
