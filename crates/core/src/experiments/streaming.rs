//! E4: multi-tenant streaming sessions vs. the batch pipeline.
//!
//! M sensors' captures — the six Table I laptops carrying covert
//! transmissions, a keylogging sensor, and a deliberately poisoned
//! (all-NaN) stream — are replayed chunk by chunk, at a different
//! chunk size per sensor, into one [`SessionRegistry`] with a bounded
//! per-session buffer. The registry drains every session across the
//! worker pool; each finished stream is then compared against the
//! batch pipeline run over the same monolithic capture.
//!
//! The experiment demonstrates the three streaming-chain guarantees:
//!
//! 1. **Bit-identity**: every stream's output equals the batch result
//!    exactly, at every chunk size (`matches_batch` on each row);
//! 2. **Isolation**: the poisoned stream surfaces its typed error in
//!    its own row while every neighbour still matches batch;
//! 3. **Determinism**: outputs are invariant to `EMSC_THREADS` and
//!    pump cadence (asserted by the determinism suite).
//!
//! Deterministic: sensor i's capture is synthesised under
//! `seed_for(seed, i)` — the same positional seed the registry
//! derives for the i-th opened session.

use emsc_covert::rx::{Receiver, RxConfig};
use emsc_covert::tx::Transmitter;
use emsc_keylog::detect::DetectorConfig;
use emsc_keylog::stream::StreamingDetector;
use emsc_runtime::{par_map, seed_for};
use emsc_sdr::iq::Complex;
use emsc_sdr::Capture;

use crate::chain::{Chain, Setup};
use crate::covert_run::CovertScenario;
use crate::laptop::Laptop;
use crate::session::{SessionOutput, SessionRegistry};

/// Per-session buffer limit used by the replay, samples. Small enough
/// that the larger chunk sizes exercise backpressure on every capture.
pub const BUFFER_LIMIT: usize = 1 << 16;

/// Chunk sizes cycled across sensors (samples per offered chunk).
pub const CHUNK_SIZES: [usize; 4] = [1009, 4096, 9973, 65_536];

/// One sensor's replay, compared against its batch baseline.
#[derive(Debug, Clone)]
pub struct StreamingRow {
    /// Sensor label.
    pub sensor: String,
    /// Positional seed the capture was synthesised under (equals the
    /// registry-assigned per-session seed).
    pub seed: u64,
    /// Chunk size this sensor's capture was replayed at.
    pub chunk_samples: usize,
    /// Capture length, samples.
    pub samples: usize,
    /// Chunks the registry's backpressure rejected (each was pumped
    /// and retried).
    pub chunks_rejected: usize,
    /// Whether the streamed output is exactly the batch output
    /// (reports compared field-for-field, errors compared as values).
    pub matches_batch: bool,
    /// Human-readable result ([`SessionOutput::label`]).
    pub outcome: String,
}

/// What one sensor feeds the registry, and the batch output its stream
/// must equal.
struct Sensor {
    label: String,
    receiver: SensorReceiver,
    capture: Capture,
    batch: SessionOutput,
}

/// The stream machine a sensor's session runs.
enum SensorReceiver {
    Covert(RxConfig),
    Keylog(DetectorConfig),
}

/// Seeded uniform noise, `n` samples with both rails equal and within
/// `±amplitude / 2`: the floor under every synthetic live-receive
/// capture (xorshift64 from `seed | 1`).
pub fn seeded_noise(seed: u64, n: usize, amplitude: f64) -> Vec<Complex> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = (state % 10_000) as f64 / 10_000.0 - 0.5;
            Complex::new(amplitude * u, amplitude * u)
        })
        .collect()
}

/// Synthetic keylogging capture: two keystroke-like tone bursts over
/// a noise floor (the detect-stage shape, without the full chain).
/// Shared with the E5 service soak, which supervises the same sensor
/// shape under fault injection.
pub fn keylog_capture(seed: u64) -> (DetectorConfig, Capture) {
    let fs = 2.4e6_f64;
    let center = 1.455e6;
    let f_sw = 970e3;
    let f_bb = f_sw - center;
    let n = (0.4 * fs) as usize;
    let mut samples = seeded_noise(seed, n, 0.02);
    for &(t0, dur) in &[(0.08, 0.05), (0.25, 0.06)] {
        let a = (t0 * fs) as usize;
        let b = (((t0 + dur) * fs) as usize).min(n);
        for (i, s) in samples.iter_mut().enumerate().take(b).skip(a) {
            *s += Complex::from_polar(1.0, 2.0 * std::f64::consts::PI * f_bb * i as f64 / fs);
        }
    }
    (DetectorConfig::new(f_sw), Capture { samples, sample_rate: fs, center_freq: center })
}

/// Synthetic covert sensor: `laptop` sends `payload` near-field under
/// `seed`. Returns the receiver configuration and the capture — the
/// one [`CovertScenario::run`] decodes, bit for bit, without the
/// decode. Shared with the E5 service soak.
pub fn covert_capture(laptop: &Laptop, payload: &[u8], seed: u64) -> (RxConfig, Capture) {
    let chain = Chain::new(laptop, Setup::NearField);
    let scenario = CovertScenario::for_laptop(laptop, chain);
    let on_air_bits = Transmitter::new(scenario.tx).on_air_bits(payload);
    let program = scenario.transfer_program(&on_air_bits);
    (scenario.rx, scenario.chain.run_program(&program, seed).capture)
}

/// Builds the sensor fleet for a base seed: one covert sensor per
/// Table I laptop, one keylogging sensor, one poisoned stream. Sensor
/// i's capture is synthesised under `seed_for(seed, i)`.
fn build_sensors(seed: u64) -> Vec<Sensor> {
    let laptops = Laptop::all();
    let indices: Vec<usize> = (0..laptops.len()).collect();
    let mut sensors: Vec<Sensor> = par_map(&indices, |&i| {
        let laptop = &laptops[i];
        let (rx, capture) = covert_capture(laptop, b"stream-e4", seed_for(seed, i as u64));
        let batch = SessionOutput::Covert(Receiver::new(rx.clone()).receive(&capture));
        Sensor {
            label: laptop.model.to_string(),
            receiver: SensorReceiver::Covert(rx),
            capture,
            batch,
        }
    });

    let (config, capture) = keylog_capture(seed_for(seed, laptops.len() as u64));
    let batch = SessionOutput::Keylog(StreamingDetector::detect(config.clone(), &capture));
    sensors.push(Sensor {
        label: "keylog sensor".to_string(),
        receiver: SensorReceiver::Keylog(config),
        capture,
        batch,
    });

    // A sensor whose radio went bad mid-run: every sample non-finite.
    let dead = Capture {
        samples: vec![Complex::new(f64::NAN, f64::NAN); 50_000],
        sample_rate: 2.4e6,
        center_freq: 1.455e6,
    };
    let laptop = Laptop::dell_inspiron();
    let rx = CovertScenario::for_laptop(&laptop, Chain::new(&laptop, Setup::NearField)).rx;
    let batch = SessionOutput::Covert(Receiver::new(rx.clone()).receive(&dead));
    sensors.push(Sensor {
        label: "poisoned stream".to_string(),
        receiver: SensorReceiver::Covert(rx),
        capture: dead,
        batch,
    });

    sensors
}

/// Replays every sensor's capture through one shared registry and
/// compares each stream against its batch baseline.
pub fn streaming_sessions(seed: u64) -> Vec<StreamingRow> {
    let sensors = build_sensors(seed);
    let mut reg = SessionRegistry::new(seed, BUFFER_LIMIT);

    // Open in fleet order so registry seeds line up positionally.
    let ids: Vec<_> = sensors
        .iter()
        .map(|sensor| {
            let (fs, fc) = (sensor.capture.sample_rate, sensor.capture.center_freq);
            match &sensor.receiver {
                SensorReceiver::Covert(rx) => {
                    reg.open_covert(rx.clone(), fs, fc).expect("covert sensor admits")
                }
                SensorReceiver::Keylog(config) => {
                    reg.open_keylog(config.clone(), fs, fc).expect("keylog sensor admits")
                }
            }
        })
        .collect();

    // Interleave the replays sensor-by-sensor, chunk-round by
    // chunk-round, so the registry genuinely multiplexes: every pump
    // drains several tenants at once.
    let mut offsets = vec![0usize; sensors.len()];
    loop {
        let mut progressed = false;
        for (k, sensor) in sensors.iter().enumerate() {
            let samples = &sensor.capture.samples;
            if offsets[k] >= samples.len() {
                continue;
            }
            let chunk_len = CHUNK_SIZES[k % CHUNK_SIZES.len()];
            let end = (offsets[k] + chunk_len).min(samples.len());
            let chunk = &samples[offsets[k]..end];
            while reg.offer(ids[k], chunk).is_err() {
                reg.pump();
            }
            offsets[k] = end;
            progressed = true;
        }
        if !progressed {
            break;
        }
    }
    reg.pump();

    sensors
        .into_iter()
        .zip(&ids)
        .enumerate()
        .map(|(k, (sensor, &id))| {
            let closed = reg.finish(id).expect("session closes");
            StreamingRow {
                sensor: sensor.label,
                seed: closed.stats.seed,
                chunk_samples: CHUNK_SIZES[k % CHUNK_SIZES.len()],
                samples: sensor.capture.samples.len(),
                chunks_rejected: closed.stats.chunks_rejected,
                matches_batch: closed.output == sensor.batch,
                outcome: closed.output.label(),
            }
        })
        .collect()
}

/// Renders the replay table.
pub fn render_streaming_rows(rows: &[StreamingRow]) -> String {
    super::render_table(
        "E4: multi-tenant streaming replay vs. batch pipeline",
        &["Sensor", "Chunk", "Samples", "Rejected", "Matches batch", "Outcome"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.sensor.clone(),
                    r.chunk_samples.to_string(),
                    r.samples.to_string(),
                    r.chunks_rejected.to_string(),
                    if r.matches_batch { "yes" } else { "NO" }.to_string(),
                    r.outcome.clone(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_stream_matches_batch_and_failures_stay_isolated() {
        let rows = streaming_sessions(2020);
        assert!(rows.len() >= 8, "need at least 8 concurrent streams, got {}", rows.len());
        for row in &rows {
            assert!(row.matches_batch, "{} diverged from batch: {}", row.sensor, row.outcome);
        }
        // The poisoned stream fails with a typed error...
        let poisoned = rows.iter().find(|r| r.sensor == "poisoned stream").expect("poisoned row");
        assert!(poisoned.outcome.contains("error"), "poisoned outcome: {}", poisoned.outcome);
        // ...while every other stream still decodes/detects.
        for row in rows.iter().filter(|r| r.sensor != "poisoned stream") {
            assert!(
                !row.outcome.contains("error"),
                "{} should have survived: {}",
                row.sensor,
                row.outcome
            );
        }
        // Positional seeds: row i was synthesised and registered under
        // seed_for(seed, i).
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.seed, emsc_runtime::seed_for(2020, i as u64), "seed of {}", row.sensor);
        }
        // The bounded buffer actually pushed back somewhere.
        assert!(rows.iter().any(|r| r.chunks_rejected > 0), "backpressure never engaged: {rows:?}");
        // Rendering names every sensor (checked here to avoid a second
        // full fleet run).
        let table = render_streaming_rows(&rows);
        for row in &rows {
            assert!(table.contains(&row.sensor), "missing {}", row.sensor);
        }
    }
}
