//! Multi-tenant capture sessions: N concurrent streaming receivers
//! multiplexed over the `emsc-runtime` worker pool.
//!
//! A real deployment of the paper's attack tends to run *many* radios
//! at once — one SDR per victim machine, or one per monitored room for
//! the keylogging variant. [`SessionRegistry`] owns one resumable
//! state machine per stream (a covert-channel
//! [`StreamingReceiver`] or a keylogging [`StreamingDetector`]),
//! accepts I/Q chunks per session with bounded buffering, and drains
//! every session's backlog in parallel on [`emsc_runtime::par_map`].
//!
//! # Backpressure
//!
//! Each session buffers at most `buffer_limit` samples between pumps.
//! [`SessionRegistry::offer`] rejects (without consuming) any chunk
//! that would exceed the limit, returning
//! [`SessionError::RejectedFull`]; the producer pumps and retries.
//! This bounds registry memory to `sessions × buffer_limit` samples no
//! matter how bursty the producers are.
//!
//! # Determinism and isolation
//!
//! Sessions share no state, each session's samples are processed in
//! arrival order, and the streaming state machines are bit-identical
//! to their batch counterparts for *any* chunking — so the registry's
//! outputs are a pure function of each stream's content, independent
//! of thread count, pump cadence and the other tenants. A stream that
//! dies with a typed error ([`RxError`], [`DetectError`]) surfaces it
//! in its own [`SessionOutput`]; the other sessions are unaffected.

use std::sync::Mutex;

use emsc_covert::rx::{RxConfig, RxError, RxReport};
use emsc_covert::stream::StreamingReceiver;
use emsc_keylog::detect::{DetectError, DetectionReport, DetectorConfig};
use emsc_keylog::stream::StreamingDetector;
use emsc_runtime::{par_map, seed_for};
use emsc_sdr::iq::Complex;

/// Handle to one open stream inside a [`SessionRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(u64);

/// Registry-level failures (stream-level failures are carried inside
/// [`SessionOutput`] instead, so one bad stream cannot poison its
/// neighbours).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionError {
    /// No open session with that id (never opened, or already
    /// finished).
    UnknownSession,
    /// Accepting the chunk would exceed the per-session buffer limit;
    /// the chunk was **not** consumed. Pump and retry.
    RejectedFull {
        /// Samples already buffered for this session.
        buffered: usize,
        /// Samples in the rejected chunk.
        offered: usize,
        /// The per-session buffer limit.
        limit: usize,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::UnknownSession => write!(f, "unknown or already-finished session"),
            SessionError::RejectedFull { buffered, offered, limit } => write!(
                f,
                "chunk rejected: {buffered} buffered + {offered} offered exceeds limit {limit}"
            ),
        }
    }
}

impl std::error::Error for SessionError {}

/// Per-session counters, maintained across [`SessionRegistry::offer`]
/// and [`SessionRegistry::pump`] calls. A stream's own failure is
/// read from its [`SessionOutput`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Seed derived for this stream at open time
    /// (`seed_for(base_seed, open_index)`).
    pub seed: u64,
    /// Chunks rejected for backpressure.
    pub chunks_rejected: usize,
    /// Samples already pushed through the stream's state machine.
    pub samples_processed: usize,
}

/// Final product of a finished session.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionOutput {
    /// A covert-channel stream: the demodulated report, or why the
    /// stream could not be demodulated.
    Covert(Result<RxReport, RxError>),
    /// A keylogging stream: the detection report, or why the stream
    /// was unusable.
    Keylog(Result<DetectionReport, DetectError>),
}

impl SessionOutput {
    /// Whether the stream ended in a typed error.
    pub fn is_err(&self) -> bool {
        matches!(self, SessionOutput::Covert(Err(_)) | SessionOutput::Keylog(Err(_)))
    }

    /// Whether the stream's error (if any) is worth a restart:
    /// delegates to [`RxError::is_retryable`] /
    /// [`DetectError::is_retryable`]. A successful stream returns
    /// `false` — there is nothing to retry.
    pub fn is_retryable_err(&self) -> bool {
        match self {
            SessionOutput::Covert(Err(e)) => e.is_retryable(),
            SessionOutput::Keylog(Err(e)) => e.is_retryable(),
            _ => false,
        }
    }

    /// One-line outcome for tables: `bits=N` for a covert report,
    /// `bursts=N` for a keylog report, or `error: …` with the stream's
    /// typed error.
    pub fn label(&self) -> String {
        match self {
            SessionOutput::Covert(Ok(r)) => format!("bits={}", r.bits.len()),
            SessionOutput::Keylog(Ok(r)) => format!("bursts={}", r.bursts.len()),
            SessionOutput::Covert(Err(e)) => format!("error: {e}"),
            SessionOutput::Keylog(Err(e)) => format!("error: {e}"),
        }
    }

    /// Short static label of the stream's error kind, if it failed —
    /// coarse enough to aggregate across sessions (`"rx-capture"`,
    /// `"rx-no-carrier"`, `"rx-sync-lost"`, `"rx-config"`,
    /// `"keylog-capture"`, `"keylog-config"`).
    pub fn error_kind(&self) -> Option<&'static str> {
        match self {
            SessionOutput::Covert(Err(e)) => Some(match e {
                RxError::InvalidConfig(_) => "rx-config",
                RxError::Capture(_) => "rx-capture",
                RxError::NoCarrier => "rx-no-carrier",
                RxError::SyncLost(_) => "rx-sync-lost",
            }),
            SessionOutput::Keylog(Err(e)) => Some(match e {
                DetectError::InvalidConfig(_) => "keylog-config",
                DetectError::Capture(_) => "keylog-capture",
            }),
            _ => None,
        }
    }
}

/// A finished session: its output plus the final counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedSession {
    /// The stream's result.
    pub output: SessionOutput,
    /// Counters at close time.
    pub stats: SessionStats,
}

#[derive(Debug)]
enum StreamMachine {
    Covert(Box<StreamingReceiver>),
    Keylog(Box<StreamingDetector>),
}

impl StreamMachine {
    fn push(&mut self, chunk: &[Complex]) {
        match self {
            StreamMachine::Covert(rx) => rx.push(chunk),
            StreamMachine::Keylog(det) => det.push(chunk),
        }
    }

    fn finish(&mut self) -> SessionOutput {
        match self {
            StreamMachine::Covert(rx) => SessionOutput::Covert(rx.finish()),
            StreamMachine::Keylog(det) => SessionOutput::Keylog(det.finish()),
        }
    }
}

#[derive(Debug)]
struct Slot {
    machine: StreamMachine,
    buffer: Vec<Complex>,
    stats: SessionStats,
}

/// Owns and multiplexes N concurrent streaming sessions.
///
/// Only open sessions hold state: `finish` and `abort` drop a
/// session's slot, so a registry that rotates sessions forever stays
/// as large as its open set. Ids count every session ever opened, so
/// a closed session's id never addresses a later one.
#[derive(Debug)]
pub struct SessionRegistry {
    base_seed: u64,
    buffer_limit: usize,
    /// The open sessions, in id order.
    slots: Vec<(SessionId, Slot)>,
    opened: u64,
}

impl SessionRegistry {
    /// Creates a registry. Each stream opened later gets the seed
    /// `seed_for(base_seed, open_index)` (recorded in its stats, for
    /// callers that drive per-stream capture synthesis), and may
    /// buffer at most `buffer_limit` samples between pumps.
    pub fn new(base_seed: u64, buffer_limit: usize) -> Self {
        SessionRegistry { base_seed, buffer_limit, slots: Vec::new(), opened: 0 }
    }

    /// Open sessions right now.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no session is open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn admit(&mut self, machine: StreamMachine) -> SessionId {
        let id = SessionId(self.opened);
        let seed = seed_for(self.base_seed, self.opened);
        self.opened += 1;
        let stats = SessionStats { seed, ..SessionStats::default() };
        self.slots.push((id, Slot { machine, buffer: Vec::new(), stats }));
        id
    }

    /// Opens a covert-channel session (informed receiver).
    ///
    /// # Errors
    ///
    /// Propagates [`StreamingReceiver::new`]'s construction errors
    /// (bad config, bad sample rate, no carrier in the capture band).
    pub fn open_covert(
        &mut self,
        config: RxConfig,
        sample_rate: f64,
        center_freq: f64,
    ) -> Result<SessionId, RxError> {
        let rx = StreamingReceiver::new(config, sample_rate, center_freq)?;
        Ok(self.admit(StreamMachine::Covert(Box::new(rx))))
    }

    /// Opens a blind covert-channel session (bit period estimated from
    /// the stream at finish).
    ///
    /// # Errors
    ///
    /// As [`SessionRegistry::open_covert`].
    pub fn open_blind_covert(
        &mut self,
        config: RxConfig,
        sample_rate: f64,
        center_freq: f64,
    ) -> Result<SessionId, RxError> {
        let rx = StreamingReceiver::new_blind(config, sample_rate, center_freq)?;
        Ok(self.admit(StreamMachine::Covert(Box::new(rx))))
    }

    /// Opens a keylogging session.
    ///
    /// # Errors
    ///
    /// Propagates [`StreamingDetector::new`]'s construction errors.
    pub fn open_keylog(
        &mut self,
        config: DetectorConfig,
        sample_rate: f64,
        center_freq: f64,
    ) -> Result<SessionId, DetectError> {
        let det = StreamingDetector::new(config, sample_rate, center_freq)?;
        Ok(self.admit(StreamMachine::Keylog(Box::new(det))))
    }

    /// Counters for an open session.
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownSession`] for a closed or unknown id.
    pub fn stats(&self, id: SessionId) -> Result<SessionStats, SessionError> {
        self.slot(id).map(|s| s.stats)
    }

    /// Offers a chunk to a session's buffer without processing it.
    ///
    /// # Errors
    ///
    /// [`SessionError::RejectedFull`] when the chunk would exceed the
    /// buffer limit (the chunk is not consumed — pump and retry), or
    /// [`SessionError::UnknownSession`].
    pub fn offer(&mut self, id: SessionId, chunk: &[Complex]) -> Result<(), SessionError> {
        let limit = self.buffer_limit;
        let slot = self.slot_mut(id)?;
        if slot.buffer.len() + chunk.len() > limit {
            slot.stats.chunks_rejected += 1;
            return Err(SessionError::RejectedFull {
                buffered: slot.buffer.len(),
                offered: chunk.len(),
                limit,
            });
        }
        slot.buffer.extend_from_slice(chunk);
        Ok(())
    }

    /// Drains every session's buffered samples through its state
    /// machine, fanning the sessions out across the worker pool.
    /// Returns the total number of samples processed.
    ///
    /// Each session's result is invariant to pump cadence and thread
    /// count: the state machines are chunk-invariant, and sessions
    /// share no state (each worker locks only its own slot). A slot's
    /// buffer is cleared, not dropped, so the next offers reuse its
    /// capacity.
    pub fn pump(&mut self) -> usize {
        let work: Vec<Mutex<&mut Slot>> = self
            .slots
            .iter_mut()
            .map(|(_, slot)| slot)
            .filter(|s| !s.buffer.is_empty())
            .map(Mutex::new)
            .collect();
        let counts = par_map(&work, |cell| {
            let mut guard = cell.lock().expect("session slot lock");
            let slot = &mut **guard;
            slot.machine.push(&slot.buffer);
            let pushed = slot.buffer.len();
            slot.buffer.clear();
            slot.stats.samples_processed += pushed;
            pushed
        });
        counts.iter().sum()
    }

    /// Flushes any remaining buffered samples, finalises the stream
    /// and closes the session. The stream's own failure (if any) is
    /// carried *inside* [`ClosedSession::output`]; other sessions are
    /// untouched either way.
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownSession`] for a closed or unknown id.
    pub fn finish(&mut self, id: SessionId) -> Result<ClosedSession, SessionError> {
        let mut slot = self.close(id)?;
        if !slot.buffer.is_empty() {
            let buffer = std::mem::take(&mut slot.buffer);
            slot.machine.push(&buffer);
            slot.stats.samples_processed += buffer.len();
        }
        Ok(ClosedSession { output: slot.machine.finish(), stats: slot.stats })
    }

    /// Abandons a session without finalising its stream: buffered
    /// samples are discarded and the state machine is dropped where it
    /// stands. This is the supervisor's restart/quarantine hook — a
    /// stalled or poisoned stream's half-built acquisition state is
    /// worthless, and running `finish` on it would waste a full decode
    /// only to produce a report nobody trusts. Returns the counters at
    /// abort time.
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownSession`] for a closed or unknown id.
    pub fn abort(&mut self, id: SessionId) -> Result<SessionStats, SessionError> {
        self.close(id).map(|slot| slot.stats)
    }

    /// Index of an open session's slot (ids are ascending).
    fn index(&self, id: SessionId) -> Result<usize, SessionError> {
        self.slots
            .binary_search_by_key(&id.0, |(open, _)| open.0)
            .map_err(|_| SessionError::UnknownSession)
    }

    fn slot(&self, id: SessionId) -> Result<&Slot, SessionError> {
        self.index(id).map(|i| &self.slots[i].1)
    }

    fn slot_mut(&mut self, id: SessionId) -> Result<&mut Slot, SessionError> {
        self.index(id).map(|i| &mut self.slots[i].1)
    }

    /// Removes an open session's slot.
    fn close(&mut self, id: SessionId) -> Result<Slot, SessionError> {
        self.index(id).map(|i| self.slots.remove(i).1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{Chain, Setup};
    use crate::covert_run::CovertScenario;
    use crate::laptop::Laptop;
    use emsc_covert::rx::Receiver;
    use emsc_runtime::with_threads;
    use emsc_sdr::Capture;

    fn near_field_capture() -> (CovertScenario, Capture, Vec<u8>) {
        let laptop = Laptop::dell_inspiron();
        let chain = Chain::new(&laptop, Setup::NearField);
        let scenario = CovertScenario::for_laptop(&laptop, chain);
        let payload = b"session".to_vec();
        let outcome = scenario.run(&payload, 41);
        (scenario, outcome.chain_run.capture, payload)
    }

    #[test]
    fn one_session_matches_the_batch_receiver() {
        let (scenario, capture, _) = near_field_capture();
        let batch = Receiver::new(scenario.rx.clone()).receive(&capture).expect("batch decodes");

        let mut reg = SessionRegistry::new(7, 1 << 16);
        let id = reg
            .open_covert(scenario.rx.clone(), capture.sample_rate, capture.center_freq)
            .expect("open");
        for chunk in capture.samples.chunks(10_000) {
            while reg.offer(id, chunk).is_err() {
                reg.pump();
            }
        }
        let closed = reg.finish(id).expect("finish");
        assert!(reg.is_empty());
        assert_eq!(closed.output, SessionOutput::Covert(Ok(batch)));
        assert_eq!(closed.stats.samples_processed, capture.samples.len());
    }

    #[test]
    fn backpressure_rejects_without_consuming() {
        let (scenario, capture, _) = near_field_capture();
        let mut reg = SessionRegistry::new(7, 1000);
        let id = reg
            .open_covert(scenario.rx.clone(), capture.sample_rate, capture.center_freq)
            .expect("open");
        reg.offer(id, &capture.samples[..800]).expect("fits");
        let err = reg.offer(id, &capture.samples[800..1800]).unwrap_err();
        assert_eq!(err, SessionError::RejectedFull { buffered: 800, offered: 1000, limit: 1000 });
        assert_eq!(reg.stats(id).unwrap().chunks_rejected, 1);
        assert_eq!(reg.pump(), 800, "the rejected chunk was not buffered");
        reg.offer(id, &capture.samples[800..1800]).expect("fits after pump");
        assert_eq!(reg.stats(id).unwrap().samples_processed, 800);
    }

    #[test]
    fn a_failing_stream_leaves_its_neighbours_unchanged() {
        let (scenario, capture, _) = near_field_capture();
        let batch = Receiver::new(scenario.rx.clone()).receive(&capture).expect("batch decodes");

        let mut reg = SessionRegistry::new(7, usize::MAX);
        let good = reg
            .open_covert(scenario.rx.clone(), capture.sample_rate, capture.center_freq)
            .expect("open good");
        let poisoned = reg
            .open_covert(scenario.rx.clone(), capture.sample_rate, capture.center_freq)
            .expect("open poisoned");
        reg.offer(good, &capture.samples).unwrap();
        reg.offer(poisoned, &vec![Complex::new(f64::NAN, f64::NAN); 50_000]).unwrap();
        reg.pump();

        let bad = reg.finish(poisoned).expect("finish poisoned");
        assert!(
            matches!(bad.output, SessionOutput::Covert(Err(_))),
            "poisoned stream should fail: {:?}",
            bad.output
        );
        let ok = reg.finish(good).expect("finish good");
        assert_eq!(ok.output, SessionOutput::Covert(Ok(batch)));
    }

    #[test]
    fn pump_results_are_thread_count_invariant() {
        let (scenario, capture, _) = near_field_capture();
        let run = |threads: usize| {
            with_threads(threads, || {
                let mut reg = SessionRegistry::new(7, 1 << 15);
                let ids: Vec<SessionId> = (0..4)
                    .map(|_| {
                        reg.open_covert(
                            scenario.rx.clone(),
                            capture.sample_rate,
                            capture.center_freq,
                        )
                        .expect("open")
                    })
                    .collect();
                for chunk in capture.samples.chunks(9973) {
                    for &id in &ids {
                        while reg.offer(id, chunk).is_err() {
                            reg.pump();
                        }
                    }
                }
                ids.into_iter().map(|id| reg.finish(id).expect("finish")).collect::<Vec<_>>()
            })
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn per_session_seeds_are_positional() {
        let mut reg = SessionRegistry::new(2020, usize::MAX);
        let cfg = DetectorConfig::new(970e3);
        let a = reg.open_keylog(cfg.clone(), 2.4e6, 1.455e6).expect("open a");
        let b = reg.open_keylog(cfg, 2.4e6, 1.455e6).expect("open b");
        assert_eq!(reg.stats(a).unwrap().seed, seed_for(2020, 0));
        assert_eq!(reg.stats(b).unwrap().seed, seed_for(2020, 1));
    }

    #[test]
    fn failed_streams_are_counted_in_their_stats() {
        let (scenario, capture, _) = near_field_capture();
        let mut reg = SessionRegistry::new(7, usize::MAX);
        let good = reg
            .open_covert(scenario.rx.clone(), capture.sample_rate, capture.center_freq)
            .expect("open good");
        let bad = reg
            .open_covert(scenario.rx.clone(), capture.sample_rate, capture.center_freq)
            .expect("open bad");
        reg.offer(good, &capture.samples).unwrap();
        reg.offer(bad, &vec![Complex::new(f64::NAN, f64::NAN); 50_000]).unwrap();
        reg.pump();

        let ok = reg.finish(good).expect("finish good");
        assert_eq!(ok.stats.samples_processed, capture.samples.len());
        assert!(!ok.output.is_err());
        assert_eq!(ok.output.error_kind(), None);

        let failed = reg.finish(bad).expect("finish bad");
        assert_eq!(
            failed.stats.samples_processed, 50_000,
            "a failed stream still counts its samples"
        );
        assert_eq!(failed.stats.chunks_rejected, 0);
        assert!(failed.output.is_err());
        assert_eq!(failed.output.error_kind(), Some("rx-capture"));
        assert!(
            failed.output.is_retryable_err(),
            "an all-NaN capture is a transient device fault: {:?}",
            failed.output
        );
    }

    #[test]
    fn abort_discards_a_session_without_finalising() {
        let (scenario, capture, _) = near_field_capture();
        let mut reg = SessionRegistry::new(7, usize::MAX);
        let id = reg
            .open_covert(scenario.rx.clone(), capture.sample_rate, capture.center_freq)
            .expect("open");
        reg.offer(id, &capture.samples[..4_000]).unwrap();
        reg.pump();
        reg.offer(id, &capture.samples[4_000..10_000]).unwrap();
        let stats = reg.abort(id).expect("abort");
        assert_eq!(stats.samples_processed, 4_000, "the buffered backlog is discarded unprocessed");
        assert!(reg.is_empty());
        assert_eq!(reg.abort(id), Err(SessionError::UnknownSession), "double abort must fail");
        assert!(reg.finish(id).is_err(), "aborted session cannot be finished");
    }

    #[test]
    fn closed_sessions_leave_no_state_behind() {
        let mut reg = SessionRegistry::new(0, usize::MAX);
        for _ in 0..1000 {
            let id = reg.open_keylog(DetectorConfig::new(970e3), 2.4e6, 0.0).expect("open");
            let _ = reg.finish(id).expect("finish");
        }
        assert!(reg.slots.is_empty(), "{} slots left after every session closed", reg.slots.len());
        // Ids keep counting: a stale id never reaches a newer session.
        let id = reg.open_keylog(DetectorConfig::new(970e3), 2.4e6, 0.0).expect("open");
        assert_eq!(id, SessionId(1000));
        assert_eq!(reg.stats(id).unwrap().seed, seed_for(0, 1000));
        assert_eq!(reg.stats(SessionId(999)), Err(SessionError::UnknownSession));
    }

    #[test]
    fn unknown_and_finished_sessions_are_rejected() {
        let mut reg = SessionRegistry::new(0, usize::MAX);
        let bogus = SessionId(3);
        assert_eq!(reg.offer(bogus, &[]), Err(SessionError::UnknownSession));
        assert_eq!(reg.stats(bogus), Err(SessionError::UnknownSession));
        assert!(reg.finish(bogus).is_err());
        let id = reg.open_keylog(DetectorConfig::new(970e3), 2.4e6, 0.0).expect("open");
        let _ = reg.finish(id).expect("first finish");
        assert!(reg.finish(id).is_err(), "double finish must fail");
    }
}
