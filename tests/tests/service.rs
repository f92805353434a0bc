//! E5 service soak: the acceptance criteria of the supervised,
//! fault-tolerant capture daemon.
//!
//! One full soak run (ten sensors, escalating fault schedule) is
//! executed under `with_threads(1)` and `with_threads(3)` and the two
//! outcomes — every decoded bit, restart count, quarantine decision,
//! backoff tick and event-log line — must be **bit-identical**, and
//! identical again on a rerun with the same seed. On top of the
//! determinism contract, the run itself is scored:
//!
//! - no injected fault crashes the daemon (the soak returning at all,
//!   with every sensor terminal, is the assertion);
//! - every faulted sensor was restarted or quarantined per policy;
//! - every sensor that completed — healthy or restarted — produced
//!   reports equal to the unfaulted batch reference for its capture,
//!   at every chunk size, the one that fills its session buffer and
//!   has offers refused included.
//!
//! The severity-max schedule is exercised separately: every fault type
//! aimed at one sensor at once, plus neighbours, still panics nowhere.

use emsc_runtime::with_threads;
use emsc_service::policy::MAX_RESTARTS;
use emsc_service::soak::{soak, SoakOutcome, BUFFER_LIMIT};
use emsc_service::{
    render_soak_rows, Fault, FaultEvent, FaultPlan, LifecycleState, SensorKind, SensorPolicy,
    SensorSpec, ServiceConfig, Supervisor,
};

/// The whole E5 acceptance suite runs on one pair of soak outcomes:
/// the fleet build is the expensive part, so the determinism,
/// robustness and reference checks all share it.
#[test]
fn soak_is_thread_invariant_rerunnable_and_meets_policy() {
    let seed = 2020;
    let serial = with_threads(1, || soak(seed));
    let pooled = with_threads(3, || soak(seed));

    // 1. Bit-identity across worker-pool widths and across reruns.
    assert_eq!(serial, pooled, "soak diverged between EMSC_THREADS=1 and EMSC_THREADS=3");
    let rerun = with_threads(3, || soak(seed));
    assert_eq!(pooled, rerun, "soak is not rerun-stable under one seed");

    check_policy_and_references(&serial);

    // The supervision log itself is pinned: every event (tick, sensor,
    // text) and the bits of the tick count and elapsed time. Golden
    // FNV-1a digest of seed 2020's run.
    let report = &serial.report;
    let mut bytes = report.ticks.to_le_bytes().to_vec();
    bytes.extend(report.elapsed_s.to_bits().to_le_bytes());
    for event in &report.events {
        bytes.extend(event.tick.to_le_bytes());
        bytes.extend((event.sensor as u64).to_le_bytes());
        bytes.extend((event.what.len() as u64).to_le_bytes());
        bytes.extend(event.what.as_bytes());
    }
    let digest = bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3));
    assert_eq!(digest, 0xbc59_0f63_1e41_7055, "E5 supervision log moved: {:?}", report.events);

    // A different seed must actually change the run (fault jitter,
    // captures, backoff) — otherwise the seed is decorative.
    let other = soak(seed + 1);
    assert_ne!(serial.rows, other.rows, "the soak ignores its seed");
}

/// Scores one soak outcome against the E5 acceptance criteria.
fn check_policy_and_references(outcome: &SoakOutcome) {
    let rows = &outcome.rows;
    assert_eq!(rows.len(), 10, "the E5 fleet is ten sensors");

    // Every sensor reached a terminal state: nothing crashed, nothing
    // hung (a non-terminal state here would mean max_ticks was hit).
    for (row, sensor) in rows.iter().zip(&outcome.report.sensors) {
        assert!(
            sensor.state.is_terminal(),
            "{} never went terminal: {:?}",
            row.sensor,
            sensor.state
        );
    }

    for (k, row) in rows.iter().enumerate() {
        let faulted = row.faults != "-";
        if faulted {
            // Every faulted sensor was handled per policy: restarted
            // (and finished its replay) or quarantined.
            assert!(
                row.restarts > 0 || row.state == "quarantined",
                "faulted sensor {k} ({}) was neither restarted nor quarantined: {row:?}",
                row.sensor
            );
        } else {
            // Healthy sensors ride through everyone else's faults at
            // full uptime, with no supervision intervention.
            assert_eq!(row.restarts, 0, "healthy sensor {k} ({}) restarted", row.sensor);
            assert_eq!(row.uptime_pct, 100.0, "healthy sensor {k} ({}) lost uptime", row.sensor);
            assert_eq!(row.state, "done");
        }
        // Whoever completed — healthy or restarted — matches the
        // unfaulted batch reference bit for bit.
        if let Some(matches) = row.matches_reference {
            assert!(
                matches,
                "sensor {k} ({}) diverged from its batch reference: {row:?}",
                row.sensor
            );
            assert!(row.sessions > 0);
        }
    }

    // The doomed sensor is the one quarantine in the fleet, and it
    // drained its full restart budget first.
    let quarantined: Vec<&str> =
        rows.iter().filter(|r| r.state == "quarantined").map(|r| r.sensor.as_str()).collect();
    assert_eq!(quarantined, vec!["doomed front end"], "unexpected quarantine set");
    let doomed = rows.last().expect("fleet is non-empty");
    assert_eq!(doomed.restarts, MAX_RESTARTS);
    assert_eq!(doomed.sessions, 0, "a poisoned stream must not flush a report");

    // Backpressure loses nothing: the sensor whose chunks fill its
    // whole session buffer has offers refused, and each refused chunk
    // is admitted after a pump, so its report still equals the
    // reference.
    let full = rows.iter().find(|r| r.chunk == BUFFER_LIMIT).expect("a buffer-sized sensor");
    assert!(full.rejected > 0, "the registry never refused an offer: {full:?}");
    assert_eq!(full.matches_reference, Some(true), "{full:?}");

    // The rotating sensor flushed one report per pass.
    let rotating = rows.iter().find(|r| r.sensor == "rotating keylog").expect("rotating row");
    assert_eq!(rotating.sessions, 2, "rotation must flush a report per pass");

    // Bits were decoded despite faults: every faulted covert sensor
    // that completed still delivered its payload's bits.
    for row in rows.iter().filter(|r| r.faults != "-" && r.state == "done") {
        assert!(
            row.decoded_bits > 0 || row.bursts > 0,
            "faulted sensor {} completed without output: {row:?}",
            row.sensor
        );
    }

    // Rendering names every sensor and never flags a mismatch.
    let table = render_soak_rows(outcome);
    for row in rows {
        assert!(table.contains(&row.sensor), "table is missing {}", row.sensor);
    }
    assert!(!table.contains(" NO "), "table flags a reference mismatch:\n{table}");
}

/// Severity-max schedule: every fault type aimed at one sensor in one
/// run — including poison — while a healthy neighbour streams on. The
/// daemon must never panic, must end with both sensors terminal, and
/// must keep the neighbour's output equal to its batch reference.
#[test]
fn severity_max_schedule_never_crashes_the_daemon() {
    use emsc_core::experiments::streaming::keylog_capture;
    use emsc_core::session::SessionOutput;
    use emsc_keylog::stream::StreamingDetector;
    use emsc_runtime::seed_for;
    use emsc_service::ReplaySource;

    let seed = 99;
    let (cfg_a, cap_a) = keylog_capture(seed_for(seed, 0));
    let (cfg_b, cap_b) = keylog_capture(seed_for(seed, 1));
    let reference_b = SessionOutput::Keylog(StreamingDetector::detect(cfg_b.clone(), &cap_b));

    let policy = SensorPolicy { chunks_per_tick: 2, ..SensorPolicy::default() };
    let events = vec![
        FaultEvent { tick: 2, sensor: 0, fault: Fault::TruncateChunk { keep_frac: 0.0 } },
        FaultEvent { tick: 3, sensor: 0, fault: Fault::DropChunks { chunks: 3 } },
        FaultEvent { tick: 4, sensor: 0, fault: Fault::ReorderNext },
        FaultEvent { tick: 5, sensor: 0, fault: Fault::CorruptBurst { chunks: 2, nan_frac: 1.0 } },
        FaultEvent { tick: 6, sensor: 0, fault: Fault::Stall { ticks: 20 } },
        FaultEvent { tick: 7, sensor: 0, fault: Fault::Disconnect },
        FaultEvent { tick: 8, sensor: 0, fault: Fault::Poison },
    ];
    let mut daemon = Supervisor::new(ServiceConfig::default(), FaultPlan::new(events));
    daemon.add_sensor(SensorSpec {
        label: "victim".to_string(),
        kind: SensorKind::Keylog(cfg_a),
        source: Box::new(ReplaySource::new(cap_a, 4096)),
        policy,
    });
    daemon.add_sensor(SensorSpec {
        label: "neighbour".to_string(),
        kind: SensorKind::Keylog(cfg_b),
        source: Box::new(ReplaySource::new(cap_b, 4096)),
        policy,
    });
    let report = daemon.run();

    let victim = &report.sensors[0];
    assert!(
        victim.state.is_terminal(),
        "victim must end quarantined or done, got {:?}\nevents: {:#?}",
        victim.state,
        report.events
    );
    // Poison is permanent, so the only policy-conformant terminal
    // state for the victim is quarantine with a drained budget.
    assert_eq!(victim.state, LifecycleState::Quarantined);
    assert_eq!(victim.restarts, MAX_RESTARTS);

    let neighbour = &report.sensors[1];
    assert_eq!(neighbour.state, LifecycleState::Done);
    assert_eq!(neighbour.restarts, 0, "collateral restart on the neighbour");
    assert_eq!(neighbour.sessions.len(), 1);
    assert_eq!(neighbour.sessions[0].output, reference_b, "neighbour diverged from batch");
}
