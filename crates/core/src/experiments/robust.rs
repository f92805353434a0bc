//! E6 — the deletion failure mode, fixed: rigid vs. marker-coded vs.
//! adaptive transmission across impairment severities.
//!
//! E3 established *why* the reproduced channel dies at severity 4: the
//! dropped-sample gap deletes ~33 bits, the rigid bit grid shifts, and
//! the Hamming layer (substitution-only) recovers nothing — BER looks
//! fine, recovery is zero. This sweep measures the fix. Three modes
//! run the same impaired channel:
//!
//! - **rigid** — the paper's frame exactly (Hamming(7,4), rigid grid),
//! - **marker** — the same frame wrapped in the synchronization-robust
//!   marker code ([`emsc_covert::marker`]), scored with the blind
//!   lattice salvage when even the start marker is destroyed,
//! - **adaptive** — the closed-loop controller
//!   ([`emsc_covert::adapt`]) probes the channel, walks the rate
//!   ladder until it settles, then sends the payload at the chosen
//!   rung — the paper's manual rate-vs-distance table, automated.
//!
//! Reported per (severity × mode): channel BER/DP, *goodput* (payload
//! bits actually delivered per second of air time — zero when nothing
//! decodes), exact-recovery rate, deframe failures, marker-decoder
//! activity and, for the adaptive mode, the settled rate and probe
//! spend.
//!
//! Deterministic: the (mode × severity × run) grid flattens into one
//! [`par_map`] with positional sub-seeds, so rows are bit-identical
//! across `EMSC_THREADS` settings; the adaptive probe loop runs
//! serially *inside* its cell.

use emsc_covert::adapt::{AdaptPolicy, ProbeOutcome, RateController, RateLadder, RateStep};
use emsc_covert::coding::bytes_to_bits;
use emsc_covert::marker::MarkerConfig;
use emsc_covert::metrics::align;
use emsc_runtime::{par_map, seed_for};
use emsc_sdr::impair::{severity_label, severity_stack, SEVERITY_LEVELS};

use crate::chain::{Chain, Setup};
use crate::covert_run::{mean, CovertOutcome, CovertScenario, TransferScore};
use crate::experiments::tables::{pseudo_payload, TableScale};
use crate::laptop::Laptop;

/// Cap on probe frames the adaptive controller may spend per cell
/// before it must commit to its current rung.
pub const MAX_PROBES: usize = 8;

/// Payload bytes of one probe frame (small: probes cost air time).
const PROBE_BYTES: usize = 8;

/// Retransmissions the adaptive mode may spend on a failed transfer.
/// The closed loop already has a feedback channel (it carries the
/// probe results), so a transfer that delivered nothing is reported
/// back and resent — every attempt's airtime is charged against
/// goodput. The open-loop rigid and marker modes get no such channel:
/// their first attempt is their only attempt.
pub const MAX_RETRANSMITS: usize = 2;

/// The three transmission modes the sweep compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Rigid,
    Marker,
    Adaptive,
}

const MODES: [Mode; 3] = [Mode::Rigid, Mode::Marker, Mode::Adaptive];

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Rigid => "rigid",
            Mode::Marker => "marker",
            Mode::Adaptive => "adaptive",
        }
    }
}

/// One (severity × mode) row of the E6 sweep, averaged over runs.
#[derive(Debug, Clone)]
pub struct RobustRow {
    /// Severity level, 0 (clean) through 4 (severe).
    pub severity: usize,
    /// Impairment-stack description.
    pub label: String,
    /// Transmission mode (`rigid`, `marker`, `adaptive`).
    pub mode: String,
    /// Mean on-air bit-error rate (substitutions).
    pub ber: f64,
    /// Mean on-air deletion probability — the quantity that kills the
    /// rigid mode.
    pub dp: f64,
    /// Mean payload bits delivered per second of air time. Exact
    /// recovery delivers the whole payload; a salvaged wreck delivers
    /// the bits the lattice recovered; a lost frame delivers zero.
    pub goodput_bps: f64,
    /// Fraction of runs whose payload was exactly recovered.
    pub recovery_rate: f64,
    /// Runs that delivered no payload bits at all: the frame was never
    /// found, or deframed to bytes that are wrong at every claimed
    /// position (a misframed read any checksum would reject).
    pub decode_failures: usize,
    /// Marker-decoder resynchronisations (recovered indel events),
    /// summed over runs.
    pub resyncs: usize,
    /// Markers the decoder had to skip, summed over runs.
    pub markers_missed: usize,
    /// Hamming codewords with a nonzero syndrome, summed over runs.
    pub corrected: usize,
    /// Mean on-air rate of the (final) payload transfer — for the
    /// adaptive mode, the rate of the rung the controller settled on.
    pub selected_rate_bps: f64,
    /// Probe frames spent before settling, summed over runs
    /// (adaptive mode only; zero otherwise).
    pub probes: usize,
    /// Retransmissions of the final transfer, summed over runs
    /// (adaptive mode only; zero otherwise). Each one's airtime is
    /// charged against goodput.
    pub retransmits: usize,
}

/// The marker-mode rung: native rate, standard marker code, no
/// interleaver (so the blind salvage stays applicable).
fn marker_step() -> RateStep {
    RateStep {
        label: "1.0x marker",
        stretch: 1.0,
        marker: Some(MarkerConfig::standard()),
        interleave_depth: None,
    }
}

/// BER of a decoded probe against the probe pattern (aligned, so a
/// short payload scores by content, not position).
fn probe_result(outcome: &CovertOutcome, probe_payload: &[u8]) -> ProbeOutcome {
    match &outcome.deframed {
        Some(d) => {
            let tx = bytes_to_bits(probe_payload);
            let rx = bytes_to_bits(&d.payload);
            let a = align(&tx, &rx);
            let ber = 1.0 - a.matches as f64 / tx.len().max(1) as f64;
            ProbeOutcome { decoded: true, ber }
        }
        None => ProbeOutcome::failed(),
    }
}

fn robust_cell(
    base: &CovertScenario,
    payload_bytes: usize,
    seed: u64,
    mode: Mode,
    severity: usize,
    run: usize,
    runs: usize,
) -> TransferScore {
    let impairments = severity_stack(severity);
    let payload = pseudo_payload(payload_bytes, seed + run as u64);
    let mode_idx = MODES.iter().position(|&m| m == mode).unwrap_or(0);
    // One positional cell index per (mode, severity, run) triple; all
    // sub-seeds (probe and final) derive from it, so nothing depends
    // on scheduling order.
    let cell = ((mode_idx * SEVERITY_LEVELS + severity) * runs + run) as u64;
    let cell_seed = seed_for(seed, cell);

    let transfer = |scenario: &CovertScenario| {
        let outcome = scenario.run_impaired(
            &payload,
            seed + 1000 * run as u64,
            &impairments,
            seed_for(cell_seed, 0),
        );
        outcome.score(&payload, scenario.tx.frame)
    };

    match mode {
        Mode::Rigid => transfer(base),
        Mode::Marker => transfer(&base.at_rate_step(&marker_step())),
        Mode::Adaptive => {
            let mut rc = RateController::new(RateLadder::standard(), AdaptPolicy::default());
            let probe_payload = pseudo_payload(PROBE_BYTES, seed ^ 0x5052_4F42);
            while !rc.settled() && rc.probes() < MAX_PROBES {
                let k = rc.probes() as u64;
                let scenario = base.at_rate_step(rc.current());
                let outcome = scenario.run_impaired(
                    &probe_payload,
                    seed_for(cell_seed, 100 + k),
                    &impairments,
                    seed_for(cell_seed, 1 + k),
                );
                rc.observe(probe_result(&outcome, &probe_payload));
            }
            // Closed-loop ARQ at the settled rung: a transfer that
            // delivered nothing is reported over the feedback channel
            // and resent; every attempt's airtime counts against
            // goodput. Attempt 0 uses the same seeds as the open-loop
            // modes so a clean channel reproduces their outcome.
            let scenario = base.at_rate_step(rc.current());
            let mut airtime_bits = 0usize;
            let mut attempts = 0usize;
            loop {
                let (tx_seed, impair_seed) = if attempts == 0 {
                    (seed + 1000 * run as u64, seed_for(cell_seed, 0))
                } else {
                    (
                        seed_for(cell_seed, 200 + attempts as u64),
                        seed_for(cell_seed, 300 + attempts as u64),
                    )
                };
                let outcome = scenario.run_impaired(&payload, tx_seed, &impairments, impair_seed);
                airtime_bits += outcome.tx_bits.len();
                let score = outcome.score(&payload, scenario.tx.frame);
                if score.delivered_bits > 0 || attempts >= MAX_RETRANSMITS {
                    return TransferScore {
                        probes: rc.probes(),
                        ..score.resent(attempts, airtime_bits)
                    };
                }
                attempts += 1;
            }
        }
    }
}

fn robust_row(severity: usize, mode: Mode, scores: &[TransferScore]) -> RobustRow {
    let total = |field: fn(&TransferScore) -> usize| scores.iter().map(field).sum();
    RobustRow {
        severity,
        label: severity_label(severity).to_string(),
        mode: mode.label().to_string(),
        ber: mean(scores, |s| s.ber),
        dp: mean(scores, |s| s.dp),
        goodput_bps: mean(scores, |s| s.goodput_bps),
        recovery_rate: mean(scores, |s| f64::from(s.recovered)),
        decode_failures: scores.iter().filter(|s| s.delivered_bits == 0).count(),
        resyncs: total(|s| s.resyncs),
        markers_missed: total(|s| s.markers_missed),
        corrected: total(|s| s.corrected),
        selected_rate_bps: mean(scores, |s| s.tr_bps),
        probes: total(|s| s.probes),
        retransmits: total(|s| s.retransmits),
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
        robust_cell(&base, scale.payload_bytes, seed, MODES[m], sev, run, scale.runs)
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
        "E6: deletion robustness — rigid vs. marker vs. adaptive (Dell Inspiron, near-field)",
        &[
            "Severity",
            "Stack",
            "Mode",
            "BER",
            "DP",
            "Goodput b/s",
            "Recovery",
            "Lost",
            "Resyncs",
            "Rate b/s",
            "Probes",
            "ReTx",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.severity.to_string(),
                    r.label.clone(),
                    r.mode.clone(),
                    super::fmt_prob(r.ber),
                    super::fmt_prob(r.dp),
                    format!("{:.0}", r.goodput_bps),
                    format!("{:.2}", r.recovery_rate),
                    r.decode_failures.to_string(),
                    r.resyncs.to_string(),
                    format!("{:.0}", r.selected_rate_bps),
                    r.probes.to_string(),
                    r.retransmits.to_string(),
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
        for mode in ["rigid", "marker", "adaptive"] {
            let r = row(&rows, 0, mode);
            assert!(r.recovery_rate > 0.99, "{mode} failed on a clean channel: {r:?}");
            assert!(r.goodput_bps > 0.0, "{mode} clean goodput {}", r.goodput_bps);
        }
        // On a clean channel the controller must hold the fastest rung:
        // its rate matches the rigid mode's.
        let rigid = row(&rows, 0, "rigid");
        let adaptive = row(&rows, 0, "adaptive");
        let ratio = adaptive.selected_rate_bps / rigid.selected_rate_bps;
        assert!((0.8..1.25).contains(&ratio), "clean adaptive rate drifted: ratio {ratio}");
    }

    #[test]
    fn severe_deletions_kill_rigid_but_not_marker_or_adaptive() {
        let rows = robust_sweep(TableScale::quick(), 19);
        let worst = SEVERITY_LEVELS - 1;
        let rigid = row(&rows, worst, "rigid");
        assert_eq!(
            rigid.goodput_bps, 0.0,
            "rigid framing must deliver nothing through the severity-4 gap"
        );
        assert!(rigid.decode_failures > 0);
        let marker = row(&rows, worst, "marker");
        assert!(
            marker.goodput_bps > 0.0,
            "marker coding must recover bits where rigid delivers zero: {marker:?}"
        );
        let adaptive = row(&rows, worst, "adaptive");
        assert!(adaptive.goodput_bps > 0.0, "adaptive must deliver at severity 4: {adaptive:?}");
        // The controller must have backed off: strictly lower rate at
        // severity 4 than on the clean channel, after at least one
        // probe failure.
        let clean_adaptive = row(&rows, 0, "adaptive");
        assert!(
            adaptive.selected_rate_bps < clean_adaptive.selected_rate_bps,
            "adaptive rate did not back off: {} vs {}",
            adaptive.selected_rate_bps,
            clean_adaptive.selected_rate_bps
        );
        assert!(adaptive.probes > clean_adaptive.probes, "backing off costs probes");
    }
}
