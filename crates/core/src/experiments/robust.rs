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
use emsc_covert::frame::{salvage_marker_bits, FrameConfig};
use emsc_covert::marker::MarkerConfig;
use emsc_covert::metrics::{align, align_trace, AlignOp};
use emsc_runtime::{par_map, seed_for};
use emsc_sdr::impair::{severity_label, severity_stack, SEVERITY_LEVELS};

use crate::chain::{Chain, Setup};
use crate::covert_run::{CovertOutcome, CovertScenario};
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

/// What one finished transfer contributes to its row.
struct RobustCell {
    ber: f64,
    dp: f64,
    goodput_bps: f64,
    recovered: bool,
    decode_failed: bool,
    resyncs: usize,
    markers_missed: usize,
    corrected: usize,
    selected_rate_bps: f64,
    probes: usize,
    retransmits: usize,
}

/// Shortest aligned match run of a *salvaged* stream that earns
/// goodput credit: two Hamming codewords. An optimal alignment of
/// garbage against the payload still matches ~half the bits, but in
/// runs of only a few bits — an unlucky salvage earns nothing, while
/// verbatim recovered segments (28-bit runs) are credited in full.
const MIN_CREDIT_RUN_BITS: usize = 14;

/// Salvage credit: total length of aligned match runs of at least
/// [`MIN_CREDIT_RUN_BITS`] between the payload and the salvaged bits.
fn salvage_run_credit(tx_payload: &[u8], salvaged: &[u8]) -> usize {
    if salvaged.is_empty() {
        return 0;
    }
    let mut credit = 0usize;
    let mut run = 0usize;
    for op in align_trace(tx_payload, salvaged) {
        if matches!(op, AlignOp::Match) {
            run += 1;
        } else {
            if run >= MIN_CREDIT_RUN_BITS {
                credit += run;
            }
            run = 0;
        }
    }
    if run >= MIN_CREDIT_RUN_BITS {
        credit += run;
    }
    credit
}

/// Payload bits genuinely delivered by an outcome.
///
/// A *deframed* payload claims positional integrity — byte `i` of the
/// frame is byte `i` of the message — so it is credited positionally:
/// 8 bits per byte that is correct at its claimed index. This is what
/// kills the rigid mode's severity-4 fluke, where a spurious marker
/// match deframes a shifted read of the body: real payload *content*
/// at entirely wrong addresses, which any checksum would reject.
///
/// When no frame decoded — or the deframed bytes are worthless, as a
/// receiver discovers when its checksum fails — the blind marker
/// salvage (if the frame has a marker layer) delivers bits with no
/// addresses at all; those are credited by verbatim run
/// ([`salvage_run_credit`]). Rigid frames have no salvage: their loss
/// is total.
fn delivered_payload_bits(outcome: &CovertOutcome, payload: &[u8], frame: FrameConfig) -> usize {
    let framed = outcome
        .deframed
        .as_ref()
        .map_or(0, |d| 8 * payload.iter().zip(&d.payload).filter(|(a, b)| a == b).count());
    if framed > 0 {
        return framed;
    }
    let tx_payload = bytes_to_bits(payload);
    salvage_marker_bits(&outcome.report.bits, frame)
        .map_or(0, |s| salvage_run_credit(&tx_payload, &s.bits))
}

fn score(outcome: &CovertOutcome, payload: &[u8], frame: FrameConfig, probes: usize) -> RobustCell {
    let airtime = outcome.tx_bits.len();
    score_with_airtime(outcome, payload, frame, probes, airtime, 0)
}

/// Like [`score`], but charging goodput against `airtime_bits` of
/// total on-air transmission — which exceeds the outcome's own length
/// when earlier attempts of the same transfer were lost (ARQ).
fn score_with_airtime(
    outcome: &CovertOutcome,
    payload: &[u8],
    frame: FrameConfig,
    probes: usize,
    airtime_bits: usize,
    retransmits: usize,
) -> RobustCell {
    let matches = delivered_payload_bits(outcome, payload, frame);
    let goodput_bps = if airtime_bits == 0 {
        0.0
    } else {
        matches as f64 * outcome.transmission_rate_bps / airtime_bits as f64
    };
    let marker_stats = outcome
        .deframed
        .as_ref()
        .and_then(|d| d.marker)
        .or_else(|| salvage_marker_bits(&outcome.report.bits, frame).map(|s| s.stats));
    RobustCell {
        ber: outcome.alignment.ber(),
        dp: outcome.alignment.deletion_probability(),
        goodput_bps,
        recovered: outcome.recovered(payload),
        decode_failed: matches == 0,
        resyncs: marker_stats.map_or(0, |s| s.resyncs),
        markers_missed: marker_stats.map_or(0, |s| s.markers_missed),
        corrected: outcome.deframed.as_ref().map_or(0, |d| d.coding.corrected),
        selected_rate_bps: outcome.transmission_rate_bps,
        probes,
        retransmits,
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
) -> RobustCell {
    let impairments = severity_stack(severity);
    let payload = pseudo_payload(payload_bytes, seed + run as u64);
    let mode_idx = MODES.iter().position(|&m| m == mode).unwrap_or(0);
    // One positional cell index per (mode, severity, run) triple; all
    // sub-seeds (probe and final) derive from it, so nothing depends
    // on scheduling order.
    let cell = ((mode_idx * SEVERITY_LEVELS + severity) * runs + run) as u64;
    let cell_seed = seed_for(seed, cell);

    let transfer = |scenario: &CovertScenario, probes: usize| {
        let outcome = scenario.run_impaired(
            &payload,
            seed + 1000 * run as u64,
            &impairments,
            seed_for(cell_seed, 0),
        );
        score(&outcome, &payload, scenario.tx.frame, probes)
    };

    match mode {
        Mode::Rigid => transfer(base, 0),
        Mode::Marker => transfer(&base.at_rate_step(&marker_step()), 0),
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
                let delivered = delivered_payload_bits(&outcome, &payload, scenario.tx.frame) > 0;
                if delivered || attempts >= MAX_RETRANSMITS {
                    return score_with_airtime(
                        &outcome,
                        &payload,
                        scenario.tx.frame,
                        rc.probes(),
                        airtime_bits,
                        attempts,
                    );
                }
                attempts += 1;
            }
        }
    }
}

fn reduce(severity: usize, mode: Mode, cells: &[RobustCell]) -> RobustRow {
    let n = cells.len().max(1) as f64;
    let mut row = RobustRow {
        severity,
        label: severity_label(severity).to_string(),
        mode: mode.label().to_string(),
        ber: 0.0,
        dp: 0.0,
        goodput_bps: 0.0,
        recovery_rate: 0.0,
        decode_failures: 0,
        resyncs: 0,
        markers_missed: 0,
        corrected: 0,
        selected_rate_bps: 0.0,
        probes: 0,
        retransmits: 0,
    };
    for c in cells {
        row.ber += c.ber;
        row.dp += c.dp;
        row.goodput_bps += c.goodput_bps;
        if c.recovered {
            row.recovery_rate += 1.0;
        }
        if c.decode_failed {
            row.decode_failures += 1;
        }
        row.resyncs += c.resyncs;
        row.markers_missed += c.markers_missed;
        row.corrected += c.corrected;
        row.selected_rate_bps += c.selected_rate_bps;
        row.probes += c.probes;
        row.retransmits += c.retransmits;
    }
    row.ber /= n;
    row.dp /= n;
    row.goodput_bps /= n;
    row.recovery_rate /= n;
    row.selected_rate_bps /= n;
    row
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
            rows.push(reduce(s, mode, &stats[at..at + scale.runs]));
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
