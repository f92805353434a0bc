//! BER vs. channel-impairment severity: the fault-injection sweep.
//!
//! The paper's numbers come from a clean near-field capture; a real
//! deployment sees clock drift, AGC re-ranging, USB overruns,
//! impulsive interference and front-end saturation. This sweep drives
//! the standard near-field scenario through growing stacks of those
//! impairments (see [`emsc_sdr::impair`]) and reports how gracefully
//! the receiver degrades — including how often it fails to decode at
//! all, which the panic-free receive chain now surfaces as a typed
//! error instead of a crash.
//!
//! Deterministic: every cell derives its impairment sub-seed
//! positionally via [`emsc_runtime::seed_for`], so the table is
//! bit-identical across `EMSC_THREADS` settings.

use emsc_runtime::{par_map, seed_for};
use emsc_sdr::impair::{severity_label, severity_stack, SEVERITY_LEVELS};

use crate::chain::{Chain, Setup};
use crate::covert_run::{mean, CovertScenario, TransferScore};
use crate::experiments::tables::{pseudo_payload, TableScale};
use crate::laptop::Laptop;

/// One severity level of the impairment sweep, averaged over runs.
#[derive(Debug, Clone)]
pub struct ImpairmentRow {
    /// Severity level, 0 (clean channel) through 4 (severe).
    pub severity: usize,
    /// Human-readable description of the impairment stack.
    pub label: String,
    /// Mean bit-error rate.
    pub ber: f64,
    /// Mean insertion probability.
    pub ip: f64,
    /// Mean deletion probability.
    pub dp: f64,
    /// Fraction of runs whose payload was exactly recovered.
    pub recovery_rate: f64,
    /// Runs the receiver could not decode at all (typed `RxError`).
    pub decode_failures: usize,
}

fn impaired_cell(
    scenario: &CovertScenario,
    payload_bytes: usize,
    seed: u64,
    severity: usize,
    run: usize,
    runs: usize,
) -> TransferScore {
    let payload = pseudo_payload(payload_bytes, seed + run as u64);
    // One positional cell index per (severity, run) pair keeps the
    // impairment randomness independent of scheduling order.
    let cell = (severity * runs + run) as u64;
    let outcome = scenario.run_impaired(
        &payload,
        seed + 1000 * run as u64,
        &severity_stack(severity),
        seed_for(seed, cell),
    );
    outcome.score(&payload, scenario.tx.frame)
}

fn impairment_row(severity: usize, scores: &[TransferScore]) -> ImpairmentRow {
    ImpairmentRow {
        severity,
        label: severity_label(severity).to_string(),
        ber: mean(scores, |s| s.ber),
        ip: mean(scores, |s| s.ip),
        dp: mean(scores, |s| s.dp),
        recovery_rate: mean(scores, |s| f64::from(s.recovered)),
        decode_failures: scores.iter().filter(|s| s.rx_failed).count(),
    }
}

/// Runs the full severity sweep on the standard near-field scenario
/// (Dell Inspiron). The (severity × run) grid is flattened into one
/// [`par_map`] so the pool stays busy; reduction is serial and in run
/// order, so results are bit-identical across thread counts.
pub fn impairment_sweep(scale: TableScale, seed: u64) -> Vec<ImpairmentRow> {
    let laptop = Laptop::dell_inspiron();
    let chain = Chain::new(&laptop, Setup::NearField);
    let scenario = CovertScenario::for_laptop(&laptop, chain);

    let cells: Vec<(usize, usize)> =
        (0..SEVERITY_LEVELS).flat_map(|s| (0..scale.runs).map(move |r| (s, r))).collect();
    let stats = par_map(&cells, |&(sev, run)| {
        impaired_cell(&scenario, scale.payload_bytes, seed, sev, run, scale.runs)
    });
    (0..SEVERITY_LEVELS)
        .map(|s| impairment_row(s, &stats[s * scale.runs..(s + 1) * scale.runs]))
        .collect()
}

/// Renders the sweep in the Table II style.
pub fn render_impairment_rows(rows: &[ImpairmentRow]) -> String {
    super::render_table(
        "BER vs. channel-impairment severity (Dell Inspiron, near-field)",
        &["Severity", "Stack", "BER", "IP", "DP", "Recovery", "Decode failures"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.severity.to_string(),
                    r.label.clone(),
                    super::fmt_prob(r.ber),
                    super::fmt_prob(r.ip),
                    super::fmt_prob(r.dp),
                    format!("{:.2}", r.recovery_rate),
                    r.decode_failures.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_zero_is_bit_identical_to_the_unimpaired_run() {
        // The clean row of the E3 sweep must be *exactly* the
        // unimpaired scenario — same capture bits, same decode — for
        // any impair seed, because severity 0 is the empty stack.
        let laptop = Laptop::dell_inspiron();
        let chain = Chain::new(&laptop, Setup::NearField);
        let scenario = CovertScenario::for_laptop(&laptop, chain);
        let clean = scenario.run(b"severity-zero", 31);
        let impaired = scenario.run_impaired(b"severity-zero", 31, &severity_stack(0), 0xABCD);
        assert!(clean
            .chain_run
            .capture
            .samples
            .iter()
            .zip(&impaired.chain_run.capture.samples)
            .all(|(a, b)| a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()));
        assert_eq!(clean.report.bits, impaired.report.bits);
        assert_eq!(clean.rx_error, impaired.rx_error);
    }

    #[test]
    fn sweep_degrades_with_severity_and_never_panics() {
        let rows = impairment_sweep(TableScale::quick(), 77);
        assert_eq!(rows.len(), SEVERITY_LEVELS);
        // The clean channel decodes.
        assert_eq!(rows[0].decode_failures, 0, "clean channel failed to decode");
        assert!(rows[0].ber < 0.1, "clean BER {}", rows[0].ber);
        // The severe channel is strictly worse than the clean one.
        // Impairments that desynchronise timing (dropped samples,
        // drift) surface as insertions/deletions rather than raw
        // substitutions, so compare the combined error probability —
        // or an outright decode failure.
        let total = |r: &ImpairmentRow| r.ber + r.ip + r.dp;
        let worst = &rows[SEVERITY_LEVELS - 1];
        assert!(
            total(worst) > 2.0 * total(&rows[0]) || worst.decode_failures > 0,
            "severity 4 did not degrade the channel: {} vs {}",
            total(worst),
            total(&rows[0])
        );
    }
}
