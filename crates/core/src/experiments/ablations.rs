//! Ablations of the design choices DESIGN.md calls out, each a set of
//! covert transfers on the Dell Inspiron near-field channel that
//! differ only in the choice under study:
//!
//! - **receiver** — the paper's rejected fixed-clock matched filter vs.
//!   the batch-timing receiver (§IV-B1), over the same energy signal;
//! - **harmonics** — Eq. (1)'s component set `S`: the fundamental
//!   alone vs. the fundamental plus the first harmonic;
//! - **window** — the sliding-DFT size `M` (the paper used 1024, this
//!   reproduction defaults to 256);
//! - **label feature** — Eq. (2)'s mean power vs. the return-to-zero
//!   differential;
//! - **parity** — frames with and without §IV-B4's Hamming(7,4) code;
//! - **sleep period** — rate and errors as SLEEP_PERIOD shrinks toward
//!   §IV-A's ~10 µs `usleep` floor;
//! - **countermeasure** — channel quality under each §III/§VI
//!   mitigation.
//!
//! Every row is one transfer. Within a study all rows send the same
//! payload under the same chain seed, both drawn from the artefact
//! seed, so a row differs from its neighbours only in its setting. The
//! rows are independent and fan out across the worker pool, so the
//! table is identical at any `EMSC_THREADS`.

use emsc_covert::frame::{try_deframe, FrameConfig};
use emsc_covert::matched::matched_filter_demodulate;
use emsc_covert::metrics::align_semiglobal;
use emsc_covert::rx::{LabelFeature, RxConfig};
use emsc_covert::tx::TxConfig;
use emsc_runtime::{par_map, seed_for};

use crate::chain::{Chain, Setup};
use crate::countermeasure::Countermeasure;
use crate::covert_run::CovertScenario;
use crate::experiments::tables::pseudo_payload;
use crate::laptop::Laptop;

/// One transfer of one ablation study.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// The design choice the study varies.
    pub study: String,
    /// This row's setting of that choice.
    pub setting: String,
    /// Measured transmission rate, bits/second.
    pub tr_bps: f64,
    /// Bit-error rate (substitutions).
    pub ber: f64,
    /// Insertion probability.
    pub ip: f64,
    /// Deletion probability.
    pub dp: f64,
    /// Whether the exact payload was recovered.
    pub recovered: bool,
}

/// One transfer to run: a study's scenario at one setting.
struct Cell {
    study: &'static str,
    setting: String,
    scenario: CovertScenario,
    payload_bytes: usize,
    seed: u64,
    /// Demodulate with the fixed-clock matched filter instead of the
    /// scenario's receiver.
    matched_filter: bool,
}

/// Payload bytes of the receiver and frame studies.
const RX_PAYLOAD_BYTES: usize = 32;
/// Payload bytes of the sleep-period and countermeasure studies.
const TX_PAYLOAD_BYTES: usize = 24;

fn inspiron(chain: Chain) -> CovertScenario {
    CovertScenario::for_laptop(&Laptop::dell_inspiron(), chain)
}

fn near_field() -> Chain {
    Chain::new(&Laptop::dell_inspiron(), Setup::NearField)
}

/// A study: its name, payload size, and `(setting, scenario,
/// matched_filter)` rows.
type Study = (&'static str, usize, Vec<(String, CovertScenario, bool)>);

/// Every study's cells, in print order. Study `k` draws its payload
/// and chain seed from `seed_for(seed, k)`.
fn cells(seed: u64) -> Vec<Cell> {
    let base = inspiron(near_field());
    let with_rx = |rx: RxConfig| CovertScenario { rx, ..base.clone() };
    let countermeasures = [
        Countermeasure::DisableCStates,
        Countermeasure::DisablePStates,
        Countermeasure::DisableBoth,
        Countermeasure::RandomizeVrm { spread: 0.2 },
        Countermeasure::RandomizeVrm { spread: 0.45 },
        Countermeasure::Shielding { attenuation_db: 30.0 },
        Countermeasure::Blinking { period_s: 1e-3, duty: 0.5 },
    ];
    let studies: Vec<Study> = vec![
        (
            "receiver",
            RX_PAYLOAD_BYTES,
            vec![
                ("batch timing".into(), base.clone(), false),
                ("matched filter".into(), base.clone(), true),
            ],
        ),
        (
            "harmonics",
            RX_PAYLOAD_BYTES,
            [(1, "fundamental only"), (2, "fundamental + 1st harmonic")]
                .into_iter()
                .map(|(harmonics, label)| {
                    (label.into(), with_rx(RxConfig { harmonics, ..base.rx.clone() }), false)
                })
                .collect(),
        ),
        (
            "window",
            RX_PAYLOAD_BYTES,
            [128, 256, 512, 1024]
                .into_iter()
                .map(|fft_size| {
                    let rx = RxConfig { fft_size, ..base.rx.clone() };
                    (format!("M = {fft_size}"), with_rx(rx), false)
                })
                .collect(),
        ),
        (
            "label feature",
            RX_PAYLOAD_BYTES,
            [LabelFeature::MeanPower, LabelFeature::RzDifferential]
                .into_iter()
                .map(|label_feature| {
                    let rx = RxConfig { label_feature, ..base.rx.clone() };
                    (format!("{label_feature:?}"), with_rx(rx), false)
                })
                .collect(),
        ),
        (
            "parity",
            RX_PAYLOAD_BYTES,
            [false, true]
                .into_iter()
                .map(|parity| {
                    let frame = FrameConfig { parity, ..FrameConfig::default() };
                    let scenario =
                        CovertScenario { tx: TxConfig { frame, ..base.tx }, ..base.clone() };
                    (if parity { "Hamming(7,4)" } else { "none" }.into(), scenario, false)
                })
                .collect(),
        ),
        (
            "sleep period",
            TX_PAYLOAD_BYTES,
            [200.0, 100.0, 50.0, 25.0, 10.0, 5.0]
                .into_iter()
                .map(|sleep_us: f64| {
                    let chain = near_field();
                    let tx = TxConfig::calibrated(
                        &chain.machine,
                        sleep_us * 1e-6,
                        sleep_us * 1e-6,
                        Laptop::dell_inspiron().tx_overhead_s(),
                    );
                    (format!("{sleep_us:.0} µs"), CovertScenario::new(chain, tx), false)
                })
                .collect(),
        ),
        (
            "countermeasure",
            TX_PAYLOAD_BYTES,
            std::iter::once(("none".into(), base.clone(), false))
                .chain(
                    countermeasures
                        .into_iter()
                        .map(|c| (c.label(), inspiron(c.apply(near_field())), false)),
                )
                .collect(),
        ),
    ];
    studies
        .into_iter()
        .enumerate()
        .flat_map(|(k, (study, payload_bytes, rows))| {
            let seed = seed_for(seed, k as u64);
            rows.into_iter().map(move |(setting, scenario, matched_filter)| Cell {
                study,
                setting,
                scenario,
                payload_bytes,
                seed,
                matched_filter,
            })
        })
        .collect()
}

fn run_cell(cell: &Cell) -> AblationRow {
    let payload = pseudo_payload(cell.payload_bytes, cell.seed);
    let outcome = cell.scenario.run(&payload, cell.seed);
    let (alignment, recovered) = if cell.matched_filter {
        let bits = matched_filter_demodulate(
            &outcome.report.energy,
            outcome.report.energy_dt_s,
            cell.scenario.rx.expected_bit_period_s,
        );
        let recovered =
            try_deframe(&bits, cell.scenario.tx.frame, 1).is_ok_and(|d| d.payload == payload);
        (align_semiglobal(&outcome.tx_bits, &bits), recovered)
    } else {
        (outcome.alignment, outcome.recovered(&payload))
    };
    AblationRow {
        study: cell.study.to_string(),
        setting: cell.setting.clone(),
        tr_bps: outcome.transmission_rate_bps,
        ber: alignment.ber(),
        ip: alignment.insertion_probability(),
        dp: alignment.deletion_probability(),
        recovered,
    }
}

/// Runs every ablation study; rows come back in study order.
pub fn ablations(seed: u64) -> Vec<AblationRow> {
    par_map(&cells(seed), run_cell)
}

/// Renders the ablation rows as one table.
pub fn render_ablation_rows(rows: &[AblationRow]) -> String {
    super::render_table(
        "Ablations — one transfer per row (Dell Inspiron, near-field)",
        &["Study", "Setting", "TR (bps)", "BER", "IP", "DP", "Recovered"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.study.clone(),
                    r.setting.clone(),
                    format!("{:.0}", r.tr_bps),
                    super::fmt_prob(r.ber),
                    super::fmt_prob(r.ip),
                    super::fmt_prob(r.dp),
                    if r.recovered { "yes" } else { "no" }.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_of_a_study_share_its_payload_and_seed() {
        let cells = cells(2020);
        let mut studies: Vec<&str> = cells.iter().map(|c| c.study).collect();
        studies.dedup();
        assert_eq!(
            studies,
            [
                "receiver",
                "harmonics",
                "window",
                "label feature",
                "parity",
                "sleep period",
                "countermeasure"
            ]
        );
        for pair in cells.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            if a.study == b.study {
                assert_eq!((a.seed, a.payload_bytes), (b.seed, b.payload_bytes), "{}", a.study);
            } else {
                assert_ne!(a.seed, b.seed, "{} and {} share a seed", a.study, b.study);
            }
        }
        let matched: Vec<&str> =
            cells.iter().filter(|c| c.matched_filter).map(|c| c.setting.as_str()).collect();
        assert_eq!(matched, ["matched filter"]);
    }
}
