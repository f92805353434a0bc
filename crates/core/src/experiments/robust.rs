//! E6 — the channel's deletion failure mode under RTL-SDR
//! impairments, and its fix: rigid vs. marker-coded framing across
//! impairment severities.
//!
//! The paper's numbers come from a clean near-field capture; a real
//! deployment sees clock drift, AGC re-ranging, USB overruns,
//! impulsive interference and front-end saturation. This sweep drives
//! the standard near-field scenario through growing stacks of those
//! impairments ([`emsc_sdr::impair`]) in two modes:
//!
//! - **rigid** — the paper's frame exactly (Hamming(7,4), rigid grid).
//!   Its rows show why the channel dies at severity 4: the
//!   dropped-sample gap deletes ~33 bits, the rigid bit grid shifts,
//!   and the Hamming layer (substitution-only) recovers nothing — BER
//!   looks fine, recovery is zero.
//! - **marker** — the same frame wrapped in the synchronization-robust
//!   marker code ([`emsc_covert::marker`]), scored with the blind
//!   lattice salvage when even the start marker is destroyed.
//!
//! Reported per (severity × mode): the channel statistics Tables II
//! and III report (BER, IP, DP, exact recovery, typed receiver
//! failures and the on-air rate, one [`ChannelRow`]), *goodput*
//! (payload bits actually delivered per second of air time — zero when
//! nothing decodes), lost transfers and marker-decoder activity.
//!
//! Deterministic: the (mode × severity × run) grid flattens into one
//! [`par_map`] with positional sub-seeds, so rows are bit-identical
//! across `EMSC_THREADS` settings.

use emsc_covert::marker::MarkerConfig;
use emsc_runtime::{par_map, seed_for};
use emsc_sdr::impair::{severity_label, severity_stack, SEVERITY_LEVELS};

use crate::chain::{Chain, Setup};
use crate::covert_run::{mean, CovertScenario, TransferScore};
use crate::experiments::tables::{channel_row, pseudo_payload, ChannelRow, TableScale};
use crate::laptop::Laptop;

/// The two transmission modes the sweep compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Rigid,
    Marker,
}

const MODES: [Mode; 2] = [Mode::Rigid, Mode::Marker];

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Rigid => "rigid",
            Mode::Marker => "marker",
        }
    }
}

/// One (severity × mode) row of the E6 sweep, averaged over runs.
#[derive(Debug, Clone)]
pub struct RobustRow {
    /// Severity level, 0 (clean) through 4 (severe).
    pub severity: usize,
    /// Transmission mode (`rigid` or `marker`).
    pub mode: String,
    /// The channel statistics every covert table reports, labelled
    /// with the impairment stack. Its DP is the quantity that kills
    /// the rigid mode.
    pub channel: ChannelRow,
    /// Mean payload bits delivered per second of air time. Exact
    /// recovery delivers the whole payload; a salvaged wreck delivers
    /// the bits the lattice recovered; a lost frame delivers zero.
    pub goodput_bps: f64,
    /// Runs that delivered no payload bits at all: the frame was never
    /// found, or deframed to bytes that are wrong at every claimed
    /// position (a misframed read any checksum would reject).
    pub lost: usize,
    /// Marker-decoder resynchronisations (recovered indel events),
    /// summed over runs.
    pub resyncs: usize,
    /// Markers the decoder had to skip, summed over runs.
    pub markers_missed: usize,
    /// Hamming codewords with a nonzero syndrome, summed over runs.
    pub corrected: usize,
}

/// One transfer of the sweep: run `run` of `MODES[m]` at `severity`.
fn robust_cell(
    base: &CovertScenario,
    payload_bytes: usize,
    seed: u64,
    m: usize,
    severity: usize,
    run: usize,
    runs: usize,
) -> TransferScore {
    let mut scenario = base.clone();
    if MODES[m] == Mode::Marker {
        scenario.tx.frame.marker = Some(MarkerConfig::standard());
    }
    let payload = pseudo_payload(payload_bytes, seed + run as u64);
    // One positional cell index per (mode, severity, run) triple, so
    // nothing depends on scheduling order. The impairments draw from
    // the cell's sub-seed 0, the seed the pinned E6 rows were drawn
    // with.
    let cell = ((m * SEVERITY_LEVELS + severity) * runs + run) as u64;
    let outcome = scenario.run_impaired(
        &payload,
        seed + 1000 * run as u64,
        &severity_stack(severity),
        seed_for(seed_for(seed, cell), 0),
    );
    outcome.score(&payload, scenario.tx.frame)
}

fn robust_row(severity: usize, mode: Mode, scores: &[TransferScore]) -> RobustRow {
    let total = |field: fn(&TransferScore) -> usize| scores.iter().map(field).sum();
    RobustRow {
        severity,
        mode: mode.label().to_string(),
        channel: channel_row(severity_label(severity), scores),
        goodput_bps: mean(scores, |s| s.goodput_bps),
        lost: scores.iter().filter(|s| s.delivered_bits == 0).count(),
        resyncs: total(|s| s.resyncs),
        markers_missed: total(|s| s.markers_missed),
        corrected: total(|s| s.corrected),
    }
}

/// Runs the full E6 sweep on the standard near-field scenario: every
/// (severity × mode × run) cell in one flattened [`par_map`], reduced
/// serially in grid order.
pub fn robust_sweep(scale: TableScale, seed: u64) -> Vec<RobustRow> {
    let laptop = Laptop::dell_inspiron();
    let chain = Chain::new(&laptop, Setup::NearField);
    let base = CovertScenario::for_laptop(&laptop, chain);

    let cells: Vec<(usize, usize, usize)> = (0..SEVERITY_LEVELS)
        .flat_map(|s| {
            MODES.iter().enumerate().flat_map(move |(m, _)| (0..scale.runs).map(move |r| (s, m, r)))
        })
        .collect();
    let stats = par_map(&cells, |&(sev, m, run)| {
        robust_cell(&base, scale.payload_bytes, seed, m, sev, run, scale.runs)
    });
    let mut rows = Vec::with_capacity(SEVERITY_LEVELS * MODES.len());
    for s in 0..SEVERITY_LEVELS {
        for (m, &mode) in MODES.iter().enumerate() {
            let at = (s * MODES.len() + m) * scale.runs;
            rows.push(robust_row(s, mode, &stats[at..at + scale.runs]));
        }
    }
    rows
}

/// Renders the sweep: one row per (severity × mode).
pub fn render_robust_rows(rows: &[RobustRow]) -> String {
    super::render_table(
        "E6: deletion robustness — rigid vs. marker (Dell Inspiron, near-field)",
        &[
            "Severity",
            "Stack",
            "Mode",
            "BER",
            "IP",
            "DP",
            "Goodput b/s",
            "Recovery",
            "Lost",
            "Rx err",
            "Resyncs",
            "Rate b/s",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.severity.to_string(),
                    r.channel.label.clone(),
                    r.mode.clone(),
                    super::fmt_prob(r.channel.ber),
                    super::fmt_prob(r.channel.ip),
                    super::fmt_prob(r.channel.dp),
                    format!("{:.0}", r.goodput_bps),
                    format!("{:.2}", r.channel.recovery_rate),
                    r.lost.to_string(),
                    r.channel.decode_failures.to_string(),
                    r.resyncs.to_string(),
                    format!("{:.0}", r.channel.tr_bps),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row<'a>(rows: &'a [RobustRow], severity: usize, mode: &str) -> &'a RobustRow {
        rows.iter().find(|r| r.severity == severity && r.mode == mode).expect("row exists")
    }

    #[test]
    fn clean_channel_every_mode_delivers() {
        let rows = robust_sweep(TableScale::quick(), 19);
        assert_eq!(rows.len(), SEVERITY_LEVELS * MODES.len());
        for mode in ["rigid", "marker"] {
            let r = row(&rows, 0, mode);
            assert!(r.channel.recovery_rate > 0.99, "{mode} failed on a clean channel: {r:?}");
            assert!(r.goodput_bps > 0.0, "{mode} clean goodput {}", r.goodput_bps);
            assert_eq!(r.channel.decode_failures, 0, "{mode} clean channel failed to decode");
        }
    }

    #[test]
    fn severe_deletions_kill_rigid_but_not_marker() {
        let rows = robust_sweep(TableScale::quick(), 19);
        let worst = SEVERITY_LEVELS - 1;
        let rigid = row(&rows, worst, "rigid");
        assert_eq!(
            rigid.goodput_bps, 0.0,
            "rigid framing must deliver nothing through the severity-4 gap"
        );
        assert!(rigid.lost > 0);
        let marker = row(&rows, worst, "marker");
        assert!(
            marker.goodput_bps > 0.0,
            "marker coding must recover bits where rigid delivers zero: {marker:?}"
        );
    }
}
