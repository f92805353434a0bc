//! E5: soak run of the supervised capture daemon under an escalating
//! fault schedule.
//!
//! Ten sensors stream into one supervised daemon backed by a
//! [`SessionRegistry`](emsc_core::session::SessionRegistry) (see
//! [`crate::supervisor`]):
//!
//! | # | sensor | faults |
//! |---|--------|--------|
//! | 0–2 | covert receivers, Table I laptops (healthy), in 65 536-, 1009- and 9973-sample chunks | none |
//! | 3–5 | covert receivers, Table I laptops | escalating: truncate/drop → reorder/corrupt → stall → disconnect |
//! | 6 | keylogging detector | watchdog-length stall |
//! | 7 | covert receiver over a spooled `rtl_sdr` u8 recording | disconnect |
//! | 8 | keylogging detector, looping source with session rotation | none |
//! | 9 | doomed: poisoned front end | poison |
//!
//! The run demonstrates the service guarantees end to end: no injected
//! fault crashes the daemon; every faulted sensor is restarted (with
//! seeded backoff) or quarantined per policy; and every sensor that
//! completes — healthy or restarted — produces a report **bit-identical
//! to the unfaulted batch reference** for its capture, because a
//! restart rewinds the source and replays the stream clean. The
//! healthy sensors' odd chunk sizes show that chunking changes no
//! report, and the 65 536-sample one fills its session buffer every
//! tick, so the registry refuses a chunk, pumps and admits it: the
//! table's "Rejected" column. The doomed sensor exercises the other
//! exit: its front end starts emitting NaN, so every restart meets the
//! same poisoned stream and the budget drains into quarantine while
//! nine neighbours stream on.
//!
//! Everything — captures, fault ticks, backoff jitter — derives from
//! the one seed, so the whole soak is bit-identical across
//! `EMSC_THREADS` settings and reruns (asserted by the service test
//! suite).

use emsc_core::experiments::render_table;
use emsc_core::experiments::streaming::{covert_capture, keylog_capture, seeded_noise};
use emsc_core::laptop::Laptop;
use emsc_core::session::SessionOutput;
use emsc_covert::rx::Receiver;
use emsc_keylog::stream::StreamingDetector;
use emsc_runtime::{par_map, seed_for};
use emsc_sdr::record::{read_rtl_u8, write_rtl_u8};
use emsc_sdr::Capture;

use crate::fault::{Fault, FaultEvent, FaultPlan};
use crate::policy::SensorPolicy;
use crate::source::{ReplaySource, SpoolSource};
use crate::supervisor::{SensorKind, SensorSpec, ServiceConfig, ServiceReport, Supervisor};

/// Payload carried by every covert transmission in the soak.
pub const PAYLOAD: &[u8] = b"emsc-e5-soak";

/// Samples per source chunk, except for the healthy covert sensors
/// 0–2 (`HEALTHY_CHUNKS`).
pub const CHUNK: usize = 4096;

/// Chunk sizes of the healthy covert sensors 0–2: a whole session
/// buffer, and two primes, whose boundaries fall across the
/// receivers' power-of-two blocks.
const HEALTHY_CHUNKS: [usize; 3] = [BUFFER_LIMIT, 1009, 9973];

/// Per-session registry buffer limit, samples.
pub const BUFFER_LIMIT: usize = 1 << 16;

/// Samples per chunk of sensor `k`'s source.
fn chunk_samples(k: usize) -> usize {
    HEALTHY_CHUNKS.get(k).copied().unwrap_or(CHUNK)
}

/// One sensor's line in the E5 table.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakRow {
    /// Sensor label.
    pub sensor: String,
    /// Faults scheduled against the sensor (`"stall@4, disconnect@8"`).
    pub faults: String,
    /// Samples per chunk the sensor's source delivers.
    pub chunk: usize,
    /// Final lifecycle state.
    pub state: String,
    /// Healthy ticks as a percentage of the sensor's active ticks.
    pub uptime_pct: f64,
    /// Restarts performed.
    pub restarts: u32,
    /// Sessions completed (rotations plus the final flush).
    pub sessions: usize,
    /// Offers the registry refused for a full session buffer, summed
    /// over the completed sessions (each refused chunk was admitted
    /// after a pump).
    pub rejected: usize,
    /// Covert bits decoded across completed sessions.
    pub decoded_bits: usize,
    /// Keylog bursts detected across completed sessions.
    pub bursts: usize,
    /// Whether every completed session equals the unfaulted batch
    /// reference bit for bit; `None` when no reference applies (the
    /// doomed sensor).
    pub matches_reference: Option<bool>,
    /// Human-readable result of the last completed session
    /// ([`SessionOutput::label`]).
    pub outcome: String,
}

/// The E5 result: the daemon's full report plus the per-sensor table.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakOutcome {
    /// Supervisor report (per-sensor accounting plus the event log).
    pub report: ServiceReport,
    /// One row per sensor, in admission order.
    pub rows: Vec<SoakRow>,
}

/// Runs the E5 soak under one seed: builds the ten-sensor fleet, wires
/// the escalating fault schedule, drives the daemon to completion and
/// scores every sensor against its unfaulted batch reference.
pub fn soak(seed: u64) -> SoakOutcome {
    let laptops = Laptop::all();
    assert!(laptops.len() >= 6, "the soak needs six Table I laptops");

    // Seven covert captures in parallel under positional seeds: six
    // laptop sensors (0-5), each with its batch reference, plus the
    // capture behind the spooled recording (sensor 7, seed index 7),
    // whose reference is the decode of its read-back below.
    let entries: Vec<(usize, &Laptop)> =
        laptops.iter().take(6).enumerate().chain(std::iter::once((7usize, &laptops[0]))).collect();
    let builds = par_map(&entries, |&(seed_index, laptop)| {
        let (rx, capture) = covert_capture(laptop, PAYLOAD, seed_for(seed, seed_index as u64));
        let reference = (seed_index < 6)
            .then(|| SessionOutput::Covert(Receiver::new(rx.clone()).receive(&capture)));
        (rx, capture, reference)
    });

    let policy = SensorPolicy { chunks_per_tick: 2, ..SensorPolicy::default() };
    let mut specs: Vec<SensorSpec> = Vec::new();
    // The batch reference each completed session must equal, per
    // sensor, where one applies.
    let mut references: Vec<Option<SessionOutput>> = Vec::new();

    // Sensors 0-5: covert receivers (0-2 healthy, 3-5 under the
    // escalating schedule). A restarted sensor rewinds and replays, so
    // the reference is the plain batch decode either way.
    for (k, (rx, capture, reference)) in builds.iter().take(6).enumerate() {
        specs.push(SensorSpec {
            label: format!("covert {}", laptops[k].model),
            kind: SensorKind::Covert(rx.clone()),
            source: Box::new(ReplaySource::new(capture.clone(), chunk_samples(k))),
            policy,
        });
        references.push(reference.clone());
    }

    // Sensor 6: keylogging detector, stalled longer than its watchdog.
    let (det_config, det_capture) = keylog_capture(seed_for(seed, 6));
    let det_reference =
        SessionOutput::Keylog(StreamingDetector::detect(det_config.clone(), &det_capture));
    specs.push(SensorSpec {
        label: "keylog sensor".to_string(),
        kind: SensorKind::Keylog(det_config.clone()),
        source: Box::new(ReplaySource::new(det_capture, CHUNK)),
        policy,
    });
    references.push(Some(det_reference));

    // Sensor 7: the same receiver fed from a spooled rtl_sdr u8
    // recording. Quantisation happens on the wire, so the reference is
    // the batch decode of the *read-back* capture, not the pristine
    // one.
    let (spool_rx, spool_capture, _) = &builds[6];
    let mut spool_bytes = Vec::new();
    write_rtl_u8(spool_capture, &mut spool_bytes).expect("in-memory spool write");
    let readback =
        read_rtl_u8(&spool_bytes[..], spool_capture.sample_rate, spool_capture.center_freq)
            .expect("in-memory spool read");
    let spool_reference = SessionOutput::Covert(Receiver::new(spool_rx.clone()).receive(&readback));
    specs.push(SensorSpec {
        label: "spooled rtl_sdr".to_string(),
        kind: SensorKind::Covert(spool_rx.clone()),
        source: Box::new(SpoolSource::from_bytes(
            spool_bytes,
            spool_capture.sample_rate,
            spool_capture.center_freq,
            CHUNK,
        )),
        policy,
    });
    references.push(Some(spool_reference));

    // Sensor 8: rotating keylog sensor — the source loops twice and the
    // session rotates exactly at the pass boundary, so both flushed
    // reports must equal the single-pass batch reference.
    let (rot_config, rot_capture) = keylog_capture(seed_for(seed, 8));
    let rot_reference =
        SessionOutput::Keylog(StreamingDetector::detect(rot_config.clone(), &rot_capture));
    let rot_len = rot_capture.samples.len();
    specs.push(SensorSpec {
        label: "rotating keylog".to_string(),
        kind: SensorKind::Keylog(rot_config),
        source: Box::new(ReplaySource::looping(rot_capture, CHUNK, 2)),
        policy: SensorPolicy { rotate_after_samples: Some(rot_len), ..policy },
    });
    references.push(Some(rot_reference));

    // Sensor 9: doomed. Its front end is poisoned mid-run, so every
    // restart meets the same NaN stream until the budget drains into
    // quarantine. Only its first chunks, noise, reach a decoder.
    let noise = Capture {
        samples: seeded_noise(seed_for(seed, 9), 400_000, 0.05),
        sample_rate: 2.4e6,
        center_freq: 1.455e6,
    };
    specs.push(SensorSpec {
        label: "doomed front end".to_string(),
        kind: SensorKind::Covert(builds[0].0.clone()),
        source: Box::new(ReplaySource::new(noise, CHUNK)),
        policy,
    });
    references.push(None);

    // The escalating schedule: four phases against sensors 3-5, plus
    // targeted faults for the keylog, spool and doomed sensors. All
    // ticks land inside every capture's first playthrough.
    let mut events = FaultPlan::escalating(seed, &[3, 4, 5]).events().to_vec();
    events.push(FaultEvent { tick: 4, sensor: 6, fault: Fault::Stall { ticks: 12 } });
    events.push(FaultEvent { tick: 5, sensor: 7, fault: Fault::Disconnect });
    events.push(FaultEvent { tick: 4, sensor: 9, fault: Fault::Poison });
    let plan = FaultPlan::new(events);

    let config = ServiceConfig {
        base_seed: seed,
        buffer_limit: BUFFER_LIMIT,
        tick_duration_s: 0.05,
        max_ticks: 3000,
    };
    let mut daemon = Supervisor::new(config, plan.clone());
    for spec in specs {
        daemon.add_sensor(spec);
    }
    let report = daemon.run();

    let rows = report
        .sensors
        .iter()
        .enumerate()
        .map(|(k, s)| {
            let matches_reference = references[k].as_ref().map(|reference| {
                !s.sessions.is_empty() && s.sessions.iter().all(|c| c.output == *reference)
            });
            let outcome = s
                .sessions
                .last()
                .map_or_else(|| "no completed session".to_string(), |c| c.output.label());
            SoakRow {
                sensor: s.label.clone(),
                faults: plan.describe_sensor(k),
                chunk: chunk_samples(k),
                state: s.state.label().to_string(),
                uptime_pct: if s.active_ticks == 0 {
                    0.0
                } else {
                    100.0 * s.uptime_ticks as f64 / s.active_ticks as f64
                },
                restarts: s.restarts,
                sessions: s.sessions.len(),
                rejected: s.sessions.iter().map(|c| c.stats.chunks_rejected).sum(),
                decoded_bits: s.decoded_bits,
                bursts: s.bursts_detected,
                matches_reference,
                outcome,
            }
        })
        .collect();

    SoakOutcome { report, rows }
}

/// Renders the E5 table plus a one-line run summary.
pub fn render_soak_rows(outcome: &SoakOutcome) -> String {
    let rows: Vec<Vec<String>> = outcome
        .rows
        .iter()
        .map(|r| {
            vec![
                r.sensor.clone(),
                r.faults.clone(),
                r.chunk.to_string(),
                r.state.clone(),
                format!("{:.1}", r.uptime_pct),
                r.restarts.to_string(),
                r.sessions.to_string(),
                r.rejected.to_string(),
                match r.matches_reference {
                    Some(true) => "yes".to_string(),
                    Some(false) => "NO".to_string(),
                    None => "-".to_string(),
                },
                r.outcome.clone(),
            ]
        })
        .collect();
    let mut out = render_table(
        "E5: supervised capture daemon soak under escalating faults",
        &[
            "Sensor",
            "Faults",
            "Chunk",
            "State",
            "Uptime%",
            "Restarts",
            "Sessions",
            "Rejected",
            "Matches ref",
            "Outcome",
        ],
        &rows,
    );
    out.push_str(&format!(
        "{} ticks ({:.1} simulated s), {} supervision events\n",
        outcome.report.ticks,
        outcome.report.elapsed_s,
        outcome.report.events.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_names_every_sensor_and_flags_mismatches() {
        // Synthetic rows: the full soak is covered (and run across
        // thread counts) by the service integration suite.
        let mk = |sensor: &str, matches: Option<bool>| SoakRow {
            sensor: sensor.to_string(),
            faults: "stall@4".to_string(),
            chunk: 4096,
            state: "done".to_string(),
            uptime_pct: 87.5,
            restarts: 1,
            sessions: 1,
            rejected: 0,
            decoded_bits: 120,
            bursts: 0,
            matches_reference: matches,
            outcome: "bits=120".to_string(),
        };
        let outcome = SoakOutcome {
            report: ServiceReport {
                ticks: 40,
                elapsed_s: 2.0,
                sensors: Vec::new(),
                events: Vec::new(),
            },
            rows: vec![mk("alpha", Some(true)), mk("beta", Some(false)), mk("gamma", None)],
        };
        let table = render_soak_rows(&outcome);
        for name in ["alpha", "beta", "gamma"] {
            assert!(table.contains(name), "missing {name}:\n{table}");
        }
        assert!(table.contains("NO"), "mismatch must be flagged:\n{table}");
        assert!(table.contains("40 ticks"), "summary line missing:\n{table}");
    }
}
