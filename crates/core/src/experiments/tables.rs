//! The evaluation tables: Table I, Table II (+ background stress),
//! Table III, Fig. 9 and the Fig. 10 NLoS result.

use emsc_baselines::{all_baselines, Baseline};
use emsc_covert::rx::LabelFeature;
use emsc_covert::tx::{Transmitter, TxConfig};
use emsc_pmu::multicore::MultiCoreMachine;
use emsc_pmu::noise::NoiseConfig;
use emsc_pmu::workload::Program;
use emsc_runtime::par_map;

use crate::chain::{Chain, Setup};
use crate::covert_run::{mean, CovertScenario, TransferScore};
use crate::laptop::Laptop;

/// Scale of a table experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableScale {
    /// Payload bytes per run.
    pub payload_bytes: usize,
    /// Averaging runs (the paper uses 5).
    pub runs: usize,
}

impl TableScale {
    /// Fast scale for unit tests.
    pub fn quick() -> Self {
        TableScale { payload_bytes: 16, runs: 1 }
    }

    /// The paper's scale: 5 runs of a longer random stream.
    pub fn paper() -> Self {
        TableScale { payload_bytes: 96, runs: 5 }
    }
}

pub(crate) fn pseudo_payload(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed ^ 0x243F_6A88_85A3_08D3;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state & 0xFF) as u8
        })
        .collect()
}

/// Renders Table I (the laptop inventory).
pub fn table1() -> String {
    super::render_table(
        "Table I — evaluation laptops",
        &["Model", "OS", "Architecture", "f_sw (kHz)"],
        &Laptop::all()
            .iter()
            .map(|l| {
                vec![
                    l.model.to_string(),
                    l.os.name().to_string(),
                    l.microarch.name().to_string(),
                    format!("{:.0}", l.switching_freq_hz / 1e3),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// One row of averaged channel quality: a Table II / Table III row,
/// and the shared part of an E6 row
/// ([`RobustRow`](crate::experiments::robust::RobustRow)).
#[derive(Debug, Clone)]
pub struct ChannelRow {
    /// Row label (laptop model, distance or impairment stack).
    pub label: String,
    /// Mean bit-error rate.
    pub ber: f64,
    /// Mean transmission rate, bits/second.
    pub tr_bps: f64,
    /// Mean insertion probability.
    pub ip: f64,
    /// Mean deletion probability.
    pub dp: f64,
    /// Fraction of runs whose payload was exactly recovered after
    /// parity correction.
    pub recovery_rate: f64,
    /// Number of runs the receiver could not decode at all (typed
    /// `RxError`): those runs contribute an all-lost alignment to the
    /// averages instead of aborting the grid.
    pub decode_failures: usize,
}

/// One averaging run of a covert transfer — the independent unit the
/// worker pool schedules. The seed arithmetic (`seed + run` for the
/// payload, `seed + 1000·run` for the channel) is the same as the
/// original serial loop, so a cell computes identical numbers no
/// matter which worker picks it up.
fn channel_cell(
    scenario: &CovertScenario,
    payload_bytes: usize,
    seed: u64,
    run: usize,
) -> TransferScore {
    let payload = pseudo_payload(payload_bytes, seed + run as u64);
    // Fused streamed run: identical metrics to `scenario.run`, without
    // materialising the cell's multi-megabyte capture.
    scenario.run_streamed(&payload, seed + 1000 * run as u64).score(&payload, scenario.tx.frame)
}

/// The row of a label's run scores.
pub(crate) fn channel_row(label: &str, scores: &[TransferScore]) -> ChannelRow {
    ChannelRow {
        label: label.to_string(),
        ber: mean(scores, |s| s.ber),
        tr_bps: mean(scores, |s| s.tr_bps),
        ip: mean(scores, |s| s.ip),
        dp: mean(scores, |s| s.dp),
        recovery_rate: mean(scores, |s| f64::from(s.recovered)),
        decode_failures: scores.iter().filter(|s| s.rx_failed).count(),
    }
}

/// Measures several scenarios at once by flattening the full
/// (scenario × run) grid into one [`par_map`], so the pool stays busy
/// even when rows have unequal cost. Rows come back in input order.
pub fn measure_channel_grid(
    scenarios: &[(String, CovertScenario)],
    scale: TableScale,
    seed: u64,
) -> Vec<ChannelRow> {
    let cells: Vec<(usize, usize)> =
        (0..scenarios.len()).flat_map(|i| (0..scale.runs).map(move |r| (i, r))).collect();
    let stats =
        par_map(&cells, |&(i, run)| channel_cell(&scenarios[i].1, scale.payload_bytes, seed, run));
    scenarios
        .iter()
        .enumerate()
        .map(|(i, (label, _))| channel_row(label, &stats[i * scale.runs..(i + 1) * scale.runs]))
        .collect()
}

/// Table II: near-field channel quality for all six laptops. The
/// 6 laptops × `scale.runs` cells all run concurrently.
pub fn table2(scale: TableScale, seed: u64) -> Vec<ChannelRow> {
    let scenarios: Vec<(String, CovertScenario)> = Laptop::all()
        .iter()
        .map(|laptop| {
            let chain = Chain::new(laptop, Setup::NearField);
            (laptop.model.to_string(), CovertScenario::for_laptop(laptop, chain))
        })
        .collect();
    measure_channel_grid(&scenarios, scale, seed)
}

/// Renders channel rows in the Table II/III format.
pub fn render_channel_rows(title: &str, rows: &[ChannelRow]) -> String {
    super::render_table(
        title,
        &["", "BER", "TR (bps)", "IP", "DP"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.label.clone(),
                    super::fmt_prob(r.ber),
                    format!("{:.0}", r.tr_bps),
                    super::fmt_prob(r.ip),
                    super::fmt_prob(r.dp),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// §IV-C2: the background-activity stress experiment. Returns the
/// baseline row, the stressed row at the same rate, and the stressed
/// row after backing the rate off (longer sleep period).
pub fn table2_background(scale: TableScale, seed: u64) -> Vec<ChannelRow> {
    let laptop = Laptop::dell_inspiron();

    let baseline_chain = Chain::new(&laptop, Setup::NearField);
    let baseline = CovertScenario::for_laptop(&laptop, baseline_chain);

    let busy_chain = {
        let mut c = Chain::new(&laptop, Setup::NearField);
        c.machine.noise = NoiseConfig::with_heavy_background();
        c
    };
    let stressed = CovertScenario::for_laptop(&laptop, busy_chain.clone());

    // Back the rate off ~15 % (the paper's average reduction) by
    // stretching both phases.
    let backed_off = CovertScenario::backed_off(&laptop, busy_chain, 1.18);

    // The last two rows are the realistic variant: the hog runs
    // *concurrently on another core* of the shared voltage rail (the
    // paper's laptops are multi-core), not time-sliced into the
    // transmitter's sleeps. A concurrent hog shifts the whole power
    // level up and down; the RZ differential cancels that pedestal.
    let hog = |stretch| {
        let chain = Chain::new(&laptop, Setup::NearField);
        let mut scenario = CovertScenario::backed_off(&laptop, chain, stretch);
        scenario.rx.label_feature = LabelFeature::RzDifferential;
        scenario
    };
    // (label, scenario, hog on another core). All five rows ×
    // `scale.runs` cells are flattened into one fan-out so the pool
    // never idles between rows.
    let rows: [(&str, CovertScenario, bool); 5] = [
        ("quiet system", baseline, false),
        ("heavy background, same rate", stressed, false),
        ("heavy background, rate backed off", backed_off, false),
        ("hog on another core, same rate", hog(1.0), true),
        ("hog on another core, rate backed off", hog(1.18), true),
    ];
    let cells: Vec<(usize, usize)> =
        (0..rows.len()).flat_map(|i| (0..scale.runs).map(move |r| (i, r))).collect();
    let stats = par_map(&cells, |&(i, run)| {
        let (_, scenario, hog) = &rows[i];
        if *hog {
            multicore_background_cell(scenario, scale.payload_bytes, seed, run)
        } else {
            channel_cell(scenario, scale.payload_bytes, seed, run)
        }
    });
    rows.iter()
        .enumerate()
        .map(|(i, (label, ..))| channel_row(label, &stats[i * scale.runs..(i + 1) * scale.runs]))
        .collect()
}

/// One averaging run of the §IV-C2 hog-on-another-core experiment:
/// the transfer program runs on one core of a two-core package while
/// a hog runs on the other, and their shared-rail trace goes through
/// the rest of the transfer.
fn multicore_background_cell(
    scenario: &CovertScenario,
    payload_bytes: usize,
    seed: u64,
    run: usize,
) -> TransferScore {
    let machine = &scenario.chain.machine;
    let payload = pseudo_payload(payload_bytes, seed + run as u64);
    let tx_bits = Transmitter::new(scenario.tx).on_air_bits(&payload);
    let program = scenario.transfer_program(&tx_bits);
    let duration = program.nominal_duration_s(machine.steady_state_ips()) * 1.4;
    // A resource-intensive hog: ~97 % duty (10 ms of work, a
    // 0.3 ms scheduler breather).
    let hog = Program::alternating(
        10e-3,
        0.3e-3,
        (duration / 10.3e-3).ceil() as usize,
        machine.steady_state_ips(),
    );
    let chain_seed = seed + 1000 * run as u64;
    let trace = MultiCoreMachine::new(machine.clone(), 2).run(&[program, hog], chain_seed);
    scenario.run_trace(tx_bits, trace, chain_seed, &[], 0).score(&payload, scenario.tx.frame)
}

/// Table III: distance sweep on the Dell Inspiron with the loop
/// antenna. The paper lowers TR as distance grows to hold BER; the
/// rate factor stretches both transmitter phases.
pub fn table3(scale: TableScale, seed: u64) -> Vec<ChannelRow> {
    let laptop = Laptop::dell_inspiron();
    // (distance m, phase stretch, label) — two operating points at 1 m
    // like the paper's Table III.
    let settings: [(f64, f64, &str); 4] = [
        (1.0, 2.0, "1 m (fast)"),
        (1.0, 2.4, "1 m (reliable)"),
        (1.5, 2.8, "1.5 m"),
        (2.5, 3.75, "2.5 m"),
    ];
    let scenarios: Vec<(String, CovertScenario)> = settings
        .iter()
        .map(|&(d, stretch, label)| {
            let chain = Chain::new(&laptop, Setup::LineOfSight(d));
            (label.to_string(), CovertScenario::backed_off(&laptop, chain, stretch))
        })
        .collect();
    measure_channel_grid(&scenarios, scale, seed)
}

/// The Fig. 10 / §IV-C3 link: the Dell Inspiron in an office, the
/// receiver 1.5 m away behind a 35 cm wall with the printer and
/// refrigerator interferers in place, and both transmitter phases
/// stretched ×5.2, the rate backed off until reliable (the paper lands
/// at 821 bps).
pub fn fig10_scenario() -> CovertScenario {
    let laptop = Laptop::dell_inspiron();
    let chain = Chain::new(&laptop, Setup::ThroughWall);
    let stretch = 5.2;
    // The generic 8 µs per-bit overhead, not the laptop's.
    let tx = TxConfig::calibrated(
        &chain.machine,
        laptop.tx_active_period_s() * stretch,
        laptop.tx_sleep_period_s() * stretch,
        8e-6,
    );
    CovertScenario::new(chain, tx)
}

/// Fig. 10 / §IV-C3: the through-the-wall NLoS measurement over
/// [`fig10_scenario`]'s link.
pub fn fig10_nlos(scale: TableScale, seed: u64) -> ChannelRow {
    let scenario = ("1.5 m through 35 cm wall".to_string(), fig10_scenario());
    measure_channel_grid(&[scenario], scale, seed).remove(0)
}

/// Fig. 9: transmission-rate comparison against prior physical covert
/// channels. `measured_bps` is this reproduction's best near-field
/// rate (pass the Table II maximum).
pub fn fig9(measured_bps: f64) -> (Vec<Baseline>, f64) {
    (all_baselines(), measured_bps)
}

/// Renders Fig. 9 as a log-scale ASCII bar chart.
pub fn render_fig9(baselines: &[Baseline], measured_bps: f64) -> String {
    let mut s =
        String::from("Fig. 9 — transmission rate vs. prior physical covert channels (log scale)\n");
    let max_log = measured_bps.log10();
    let bar = |rate: f64| {
        let len = ((rate.log10() / max_log) * 56.0).max(1.0) as usize;
        "#".repeat(len)
    };
    for b in baselines {
        s.push_str(&format!(
            "{:>10} | {} {:.0} bps\n",
            b.name,
            bar(b.max_rate_bps),
            b.max_rate_bps
        ));
    }
    s.push_str(&format!("{:>10} | {} {:.0} bps\n", "this work", bar(measured_bps), measured_bps));
    let fastest = baselines.last().map(|b| b.max_rate_bps).unwrap_or(1.0);
    s.push_str(&format!("speedup over fastest prior attack: {:.1}x\n", measured_bps / fastest));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over the little-endian bytes of each word.
    fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
        words
            .into_iter()
            .flat_map(|w| w.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    /// The bits of every float and every count of a row; `with_tr`
    /// false leaves the rate out.
    fn row_words(r: &ChannelRow, with_tr: bool) -> Vec<u64> {
        let mut words = vec![r.ber.to_bits()];
        if with_tr {
            words.push(r.tr_bps.to_bits());
        }
        words.extend([r.ip, r.dp, r.recovery_rate].map(f64::to_bits));
        words.push(r.decode_failures as u64);
        words
    }

    /// Golden digest of rows, so that a change to a scorer or reducer
    /// that moves one bit of a row fails here and not only in a full
    /// `reproduce` diff.
    fn digest(rows: &[ChannelRow]) -> u64 {
        fnv1a(rows.iter().flat_map(|r| row_words(r, true)))
    }

    #[test]
    fn table1_lists_all_laptops() {
        let t = table1();
        for l in Laptop::all() {
            assert!(t.contains(l.model), "missing {}", l.model);
        }
    }

    #[test]
    fn table2_shape_matches_paper() {
        let rows = table2(TableScale::quick(), 42);
        assert_eq!(rows.len(), 6);
        assert_eq!(digest(&rows), 0x40ce_40e7_dbea_fdc3, "Table II rows moved: {rows:?}");
        let by_label = |m: &str| rows.iter().find(|r| r.label.contains(m)).unwrap().clone();
        // UNIX laptops ≫ Windows laptops in TR (Table II's headline).
        let unix_min = ["Inspiron", "MacBookPro", "Thinkpad"]
            .iter()
            .map(|m| by_label(m).tr_bps)
            .fold(f64::INFINITY, f64::min);
        let win_max =
            ["Precision", "Sony"].iter().map(|m| by_label(m).tr_bps).fold(0.0f64, f64::max);
        assert!(unix_min > 2.0 * win_max, "unix {unix_min} vs windows {win_max}");
        // All BERs in the paper's band (≤ ~3 %, give slack for quick scale).
        for r in &rows {
            assert!(r.ber < 0.06, "{}: BER {}", r.label, r.ber);
        }
    }

    #[test]
    fn table3_rate_decreases_with_distance() {
        let rows = table3(TableScale::quick(), 7);
        assert_eq!(rows.len(), 4);
        assert_eq!(digest(&rows), 0x9aad_0b93_bf9c_7198, "Table III rows moved: {rows:?}");
        assert!(rows[0].tr_bps > rows[2].tr_bps);
        assert!(rows[2].tr_bps > rows[3].tr_bps);
        for r in &rows {
            assert!(r.ber < 0.08, "{}: BER {}", r.label, r.ber);
        }
    }

    #[test]
    fn fig10_is_slower_than_any_los_setting() {
        let wall = fig10_nlos(TableScale::quick(), 7);
        assert_eq!(
            digest(std::slice::from_ref(&wall)),
            0x613e_61a7_bbf1_4872,
            "Fig. 10 row moved: {wall:?}"
        );
        let rows = table3(TableScale::quick(), 7);
        assert!(wall.tr_bps < rows[3].tr_bps, "wall {} vs 2.5 m {}", wall.tr_bps, rows[3].tr_bps);
        assert!(wall.ber < 0.08, "wall BER {}", wall.ber);
    }

    #[test]
    fn background_rows_are_pinned() {
        // The §IV-C2 rows; the last two run the transfer beside a hog
        // on a second core. Their rates are pinned to 1e-12 relative
        // rather than to the bit: the air time is the trace less
        // 2·LEAD_SILENCE_S and then less WARMUP_S, two roundings that
        // one subtraction of their sum may not reproduce.
        let rows = table2_background(TableScale::quick(), 7);
        assert_eq!(rows.len(), 5);
        let hog_rates = [2793.076169372974, 2359.056586248137];
        let words = rows.iter().enumerate().flat_map(|(i, r)| row_words(r, i < 3));
        assert_eq!(fnv1a(words), 0xe3f4_968f_6add_5abf, "background rows moved: {rows:?}");
        for (row, pinned) in rows[3..].iter().zip(hog_rates) {
            let relative = ((row.tr_bps - pinned) / pinned).abs();
            assert!(relative < 1e-12, "{}: TR {} vs {pinned}", row.label, row.tr_bps);
        }
        // Backing the rate off slows the transfer, on one core or two.
        assert!(rows[2].tr_bps < rows[1].tr_bps);
        assert!(rows[4].tr_bps < rows[3].tr_bps);
    }

    #[test]
    fn fig9_renders_with_speedup() {
        let (baselines, measured) = fig9(3500.0);
        let s = render_fig9(&baselines, measured);
        assert!(s.contains("this work"));
        assert!(s.contains("GSMem"));
        assert!(s.contains("speedup"));
    }
}
