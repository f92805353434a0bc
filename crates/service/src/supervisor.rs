//! The capture supervisor: a fault-tolerant daemon loop over the
//! multi-tenant session registry.
//!
//! The paper's attack is operationally a *listening post*: radios
//! parked near victims for hours, surviving AGC glitches, dropped USB
//! transfers and sensors that come and go. [`Supervisor`] owns an
//! [`emsc_core::session::SessionRegistry`] and adds the robustness
//! layer the registry deliberately lacks:
//!
//! - **Lifecycle.** Every sensor moves through
//!   `Running → Degraded → Restarting → Quarantined/Done`
//!   ([`LifecycleState`]): transient faults mark it degraded, stream
//!   deaths trigger the restart path, and exhausted restart budgets
//!   (or fatal errors, per the typed retryable/fatal split) end in
//!   quarantine — one bad radio never takes the daemon down.
//! - **Watchdog.** A sensor that makes no forward progress for 6 ticks
//!   is declared dead and restarted.
//! - **Backoff.** Restarts wait out a seeded exponential backoff with
//!   deterministic jitter (2, 4 and 8 ticks plus 0–3), up to
//!   [`MAX_RESTARTS`] of them.
//! - **Backpressure.** Each pulled chunk goes straight to the registry,
//!   whose bounded session buffer is the one backpressure rule: a
//!   refused chunk is offered again after a pump. A chunk refused even
//!   then is larger than the buffer, which neither a pump nor a restart
//!   can change, so it quarantines its sensor as fatal.
//! - **Rotation and shutdown.** Sessions can rotate on a sample budget
//!   (final report flushed, fresh session opened mid-stream), and
//!   [`Supervisor::shutdown`] delivers any chunk still held for
//!   reordering and finalises every stream before the daemon exits; a
//!   stream that closes there with a typed error quarantines its
//!   sensor, since no restart follows.
//!
//! The whole loop counts time in ticks, one per scheduling round,
//! never in wall time, and injects faults only from an explicit
//! [`FaultPlan`], so a soak run — restarts, jitter, quarantines and
//! all — replays bit-identically at any `EMSC_THREADS` setting: the
//! only parallelism is the registry's `pump`, which is itself
//! deterministic.

use emsc_core::session::{ClosedSession, SessionId, SessionOutput, SessionRegistry};
use emsc_covert::rx::RxConfig;
use emsc_keylog::detect::DetectorConfig;
use emsc_runtime::seed_for;
use emsc_sdr::iq::Complex;

use crate::fault::{Fault, FaultPlan};
use crate::policy::{
    backoff_ticks, SensorPolicy, MAX_CORRUPT_CHUNKS, MAX_RESTARTS, WATCHDOG_TICKS,
};
use crate::source::SensorSource;

/// Clean ticks a degraded sensor must string together before it is
/// considered healthy again.
const DEGRADED_RECOVERY_TICKS: u64 = 3;

/// Which streaming state machine a sensor feeds.
#[derive(Debug, Clone)]
pub enum SensorKind {
    /// Informed covert-channel receiver.
    Covert(RxConfig),
    /// Blind covert-channel receiver (bit period estimated at finish).
    BlindCovert(RxConfig),
    /// Keylogging burst detector.
    Keylog(DetectorConfig),
}

/// One sensor's specification at admission time.
pub struct SensorSpec {
    /// Display label.
    pub label: String,
    /// Receiver type and configuration.
    pub kind: SensorKind,
    /// Where the IQ comes from.
    pub source: Box<dyn SensorSource>,
    /// Robustness policy.
    pub policy: SensorPolicy,
}

/// Where a sensor is in its supervision lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleState {
    /// Healthy and streaming.
    Running,
    /// Streaming, but a recent fault was observed; recovers to
    /// [`LifecycleState::Running`] after a few clean ticks.
    Degraded,
    /// Stream declared dead; waiting out the restart backoff until
    /// `resume_tick`.
    Restarting {
        /// Tick at which the restart fires.
        resume_tick: u64,
    },
    /// Permanently isolated: fatal error, restart budget exhausted, or
    /// a stream that closed with an error at shutdown (no restart can
    /// follow one).
    Quarantined,
    /// Source exhausted and final report flushed.
    Done,
}

impl LifecycleState {
    /// Whether the sensor needs no further supervision.
    pub fn is_terminal(&self) -> bool {
        matches!(self, LifecycleState::Quarantined | LifecycleState::Done)
    }

    /// Short label for tables and event logs.
    pub fn label(&self) -> &'static str {
        match self {
            LifecycleState::Running => "running",
            LifecycleState::Degraded => "degraded",
            LifecycleState::Restarting { .. } => "restarting",
            LifecycleState::Quarantined => "quarantined",
            LifecycleState::Done => "done",
        }
    }
}

/// One line of the supervisor's event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceEvent {
    /// Tick at which the event occurred.
    pub tick: u64,
    /// Index of the sensor concerned.
    pub sensor: usize,
    /// What happened (`"fault injected: stall"`, `"watchdog fired"`,
    /// `"restart 2 scheduled (resume @ 41)"`, …).
    pub what: String,
}

/// Supervisor-level configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Base seed: per-session registry seeds and per-sensor backoff
    /// jitter derive from it positionally.
    pub base_seed: u64,
    /// Per-session registry buffer limit, samples.
    pub buffer_limit: usize,
    /// Simulated seconds per supervisor tick (reporting only; a
    /// duration that is not finite and positive reports 0 s).
    pub tick_duration_s: f64,
    /// Hard stop for [`Supervisor::run`], ticks.
    pub max_ticks: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            base_seed: 2020,
            buffer_limit: 1 << 16,
            tick_duration_s: 0.1,
            max_ticks: 100_000,
        }
    }
}

/// Final per-sensor accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorReport {
    /// Display label.
    pub label: String,
    /// Lifecycle state at report time.
    pub state: LifecycleState,
    /// Ticks from admission until the sensor went terminal (or until
    /// report time).
    pub active_ticks: u64,
    /// Ticks spent healthy ([`LifecycleState::Running`] or
    /// [`LifecycleState::Degraded`]).
    pub uptime_ticks: u64,
    /// Restarts performed.
    pub restarts: u32,
    /// Chunks lost to injected drops.
    pub chunks_dropped: usize,
    /// Completed sessions (rotations plus the final flush), in order.
    pub sessions: Vec<ClosedSession>,
    /// Sessions abandoned by the restart/quarantine path.
    pub aborted_sessions: u32,
    /// Samples pushed through all of this sensor's sessions.
    pub samples_processed: usize,
    /// Covert bits decoded across completed sessions.
    pub decoded_bits: usize,
    /// Keylog bursts detected across completed sessions.
    pub bursts_detected: usize,
    /// Kind label of the most recent stream error, if any.
    pub last_error: Option<&'static str>,
}

/// Final product of a supervised run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// Ticks the daemon ran.
    pub ticks: u64,
    /// Simulated seconds the daemon ran.
    pub elapsed_s: f64,
    /// Per-sensor accounting, in admission order.
    pub sensors: Vec<SensorReport>,
    /// Chronological event log.
    pub events: Vec<ServiceEvent>,
}

/// In-transit fault state plus delivery bookkeeping for one sensor.
struct SensorSlot {
    label: String,
    kind: SensorKind,
    source: Box<dyn SensorSource>,
    policy: SensorPolicy,
    session: Option<SessionId>,
    state: LifecycleState,
    // Fault machinery (what the plan has armed against this sensor).
    stall_until: u64,
    poisoned: bool,
    corrupt_chunks: u32,
    corrupt_frac: f64,
    truncate_next: Option<f64>,
    drop_next: u32,
    reorder_request: bool,
    reorder_held: Option<Vec<Complex>>,
    disconnect_pending: bool,
    corrupt_rng: u64,
    // Delivery.
    exhausted: bool,
    session_samples: usize,
    // Health.
    last_progress_tick: u64,
    clean_ticks: u64,
    consecutive_corrupt: u32,
    fault_seen_this_tick: bool,
    restarts: u32,
    jitter_seed: u64,
    // Metrics.
    active_ticks: u64,
    uptime_ticks: u64,
    chunks_dropped: usize,
    outputs: Vec<ClosedSession>,
    aborted_sessions: u32,
    aborted_samples: usize,
}

impl SensorSlot {
    fn decoded_bits(&self) -> usize {
        self.outputs
            .iter()
            .map(|c| match &c.output {
                SessionOutput::Covert(Ok(r)) => r.bits.len(),
                _ => 0,
            })
            .sum()
    }

    fn bursts_detected(&self) -> usize {
        self.outputs
            .iter()
            .map(|c| match &c.output {
                SessionOutput::Keylog(Ok(r)) => r.bursts.len(),
                _ => 0,
            })
            .sum()
    }

    fn last_error(&self) -> Option<&'static str> {
        self.outputs.iter().rev().find_map(|c| c.output.error_kind())
    }

    fn samples_processed(&self) -> usize {
        self.aborted_samples + self.outputs.iter().map(|c| c.stats.samples_processed).sum::<usize>()
    }
}

/// The supervised, fault-tolerant capture daemon.
pub struct Supervisor {
    config: ServiceConfig,
    /// Scheduling rounds run so far: the time every timeout, backoff,
    /// fault schedule and event is counted in.
    ticks: u64,
    registry: SessionRegistry,
    plan: FaultPlan,
    sensors: Vec<SensorSlot>,
    events: Vec<ServiceEvent>,
}

impl Supervisor {
    /// A supervisor with no sensors yet, injecting faults from `plan`
    /// (use [`FaultPlan::none`] for a clean run).
    pub fn new(config: ServiceConfig, plan: FaultPlan) -> Self {
        Supervisor {
            ticks: 0,
            registry: SessionRegistry::new(config.base_seed, config.buffer_limit),
            config,
            plan,
            sensors: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Admits a sensor and opens its first session, returning its
    /// index (the identity used by the fault plan and the report). A
    /// sensor whose session cannot be constructed is admitted directly
    /// into quarantine — an unopenable receiver must not sink the
    /// daemon.
    pub fn add_sensor(&mut self, spec: SensorSpec) -> usize {
        let index = self.sensors.len();
        let jitter_seed = seed_for(self.config.base_seed ^ 0x5EB0_0F5E, index as u64);
        let corrupt_rng = seed_for(self.config.base_seed ^ 0xC0B2_0175, index as u64) | 1;
        let mut slot = SensorSlot {
            label: spec.label,
            kind: spec.kind,
            source: spec.source,
            policy: spec.policy,
            session: None,
            state: LifecycleState::Running,
            stall_until: 0,
            poisoned: false,
            corrupt_chunks: 0,
            corrupt_frac: 0.0,
            truncate_next: None,
            drop_next: 0,
            reorder_request: false,
            reorder_held: None,
            disconnect_pending: false,
            corrupt_rng,
            exhausted: false,
            session_samples: 0,
            last_progress_tick: 0,
            clean_ticks: 0,
            consecutive_corrupt: 0,
            fault_seen_this_tick: false,
            restarts: 0,
            jitter_seed,
            active_ticks: 0,
            uptime_ticks: 0,
            chunks_dropped: 0,
            outputs: Vec::new(),
            aborted_sessions: 0,
            aborted_samples: 0,
        };
        match open_session(&mut self.registry, &slot.kind, slot.source.as_ref()) {
            Ok(id) => slot.session = Some(id),
            Err(why) => {
                slot.state = LifecycleState::Quarantined;
                self.log(index, format!("quarantined at admission: {why}"));
            }
        }
        self.sensors.push(slot);
        index
    }

    /// Whether every sensor has reached a terminal state.
    pub fn all_terminal(&self) -> bool {
        self.sensors.iter().all(|s| s.state.is_terminal())
    }

    /// Runs one scheduling round: injects due faults, advances every
    /// sensor (pull → fault filter → offer → rotate/finish), then
    /// pumps the registry across the worker pool. Returns `false` once
    /// every sensor is terminal.
    pub fn tick(&mut self) -> bool {
        self.ticks += 1;
        self.inject_due_faults();
        for k in 0..self.sensors.len() {
            self.step_sensor(k);
        }
        self.registry.pump();
        !self.all_terminal()
    }

    /// Drives [`Supervisor::tick`] until every sensor is terminal or
    /// `max_ticks` is reached, then shuts down and reports.
    pub fn run(&mut self) -> ServiceReport {
        while self.ticks < self.config.max_ticks && self.tick() {}
        self.shutdown()
    }

    /// Graceful shutdown: stops pulling sources, delivers any chunk
    /// still held for reordering, finalises every open stream (final
    /// reports flushed) and returns the final report. A sensor still
    /// streaming is marked [`LifecycleState::Done`] when its stream
    /// closes cleanly, and [`LifecycleState::Quarantined`] when it
    /// closes with a typed error, since no restart can follow a
    /// shutdown. Sensors caught mid-backoff keep their
    /// [`LifecycleState::Restarting`] state — the daemon stopped, they
    /// did not fail.
    pub fn shutdown(&mut self) -> ServiceReport {
        for k in 0..self.sensors.len() {
            // A chunk held for reordering goes out last. If it is
            // refused, its sensor is quarantined and has no session.
            if let Some(held) = self.sensors[k].reorder_held.take() {
                let _ = self.deliver(k, &held);
            }
            let slot = &mut self.sensors[k];
            let Some(id) = slot.session.take() else { continue };
            let closed = self.registry.finish(id).expect("open session is in the registry");
            let error = closed.output.error_kind();
            slot.outputs.push(closed);
            if slot.state.is_terminal() {
                continue;
            }
            match error {
                Some(kind) => self.quarantine(k, &format!("stream error at shutdown: {kind}")),
                None => {
                    slot.state = LifecycleState::Done;
                    self.log(k, "drained and closed at shutdown");
                }
            }
        }
        self.report()
    }

    /// The report as of now (sensors may still be live; [`Supervisor::run`]
    /// and [`Supervisor::shutdown`] return the final one).
    pub fn report(&self) -> ServiceReport {
        let tick_s = self.config.tick_duration_s;
        ServiceReport {
            ticks: self.ticks,
            elapsed_s: if tick_s.is_finite() && tick_s > 0.0 {
                self.ticks as f64 * tick_s
            } else {
                0.0
            },
            sensors: self
                .sensors
                .iter()
                .map(|s| SensorReport {
                    label: s.label.clone(),
                    state: s.state,
                    active_ticks: s.active_ticks,
                    uptime_ticks: s.uptime_ticks,
                    restarts: s.restarts,
                    chunks_dropped: s.chunks_dropped,
                    sessions: s.outputs.clone(),
                    aborted_sessions: s.aborted_sessions,
                    samples_processed: s.samples_processed(),
                    decoded_bits: s.decoded_bits(),
                    bursts_detected: s.bursts_detected(),
                    last_error: s.last_error(),
                })
                .collect(),
            events: self.events.clone(),
        }
    }

    /// The one event sink: logs `what` against sensor `k` at the
    /// current tick.
    fn log(&mut self, k: usize, what: impl Into<String>) {
        self.events.push(ServiceEvent { tick: self.ticks, sensor: k, what: what.into() });
    }

    fn inject_due_faults(&mut self) {
        let now = self.ticks;
        // The plan is immutable; collect indices first to appease the
        // borrow of `self.sensors`.
        let due: Vec<(usize, Fault)> = self.plan.due(now).map(|e| (e.sensor, e.fault)).collect();
        for (k, fault) in due {
            let Some(slot) = self.sensors.get_mut(k) else { continue };
            if slot.state.is_terminal() {
                continue;
            }
            match fault {
                Fault::Disconnect => slot.disconnect_pending = true,
                Fault::Stall { ticks } => {
                    slot.stall_until = slot.stall_until.max(now + ticks);
                }
                Fault::TruncateChunk { keep_frac } => {
                    slot.truncate_next = Some(keep_frac.clamp(0.0, 1.0));
                }
                Fault::CorruptBurst { chunks, nan_frac } => {
                    slot.corrupt_chunks += chunks;
                    slot.corrupt_frac = nan_frac.clamp(0.0, 1.0);
                }
                Fault::DropChunks { chunks } => slot.drop_next += chunks,
                Fault::ReorderNext => slot.reorder_request = true,
                Fault::Poison => slot.poisoned = true,
            }
            self.log(k, format!("fault injected: {}", fault.label()));
        }
    }

    fn step_sensor(&mut self, k: usize) {
        let now = self.ticks;
        match self.sensors[k].state {
            LifecycleState::Done | LifecycleState::Quarantined => return,
            LifecycleState::Restarting { resume_tick } => {
                self.sensors[k].active_ticks += 1;
                if now >= resume_tick {
                    self.resume_sensor(k);
                }
                return;
            }
            LifecycleState::Running | LifecycleState::Degraded => {}
        }
        let slot = &mut self.sensors[k];
        slot.active_ticks += 1;
        slot.uptime_ticks += 1;
        slot.fault_seen_this_tick = false;

        if slot.disconnect_pending {
            slot.disconnect_pending = false;
            self.fail_sensor(k, "disconnect", true);
            return;
        }

        if now >= slot.stall_until {
            if self.pull_chunks(k).is_err() {
                return; // fail path already taken
            }
        } else {
            slot.fault_seen_this_tick = true; // stalled
        }

        if self.finish_if_exhausted(k) {
            return;
        }

        // Watchdog: no forward progress for too long means the stream
        // is dead, whatever the cause looked like.
        if now.saturating_sub(self.sensors[k].last_progress_tick) >= WATCHDOG_TICKS {
            self.log(k, "watchdog fired: no forward progress");
            self.fail_sensor(k, "watchdog stall", true);
            return;
        }

        // Degraded-state bookkeeping.
        let slot = &mut self.sensors[k];
        if slot.fault_seen_this_tick {
            slot.clean_ticks = 0;
            if slot.state == LifecycleState::Running {
                slot.state = LifecycleState::Degraded;
                self.log(k, "degraded: fault observed");
            }
        } else if slot.state == LifecycleState::Degraded {
            slot.clean_ticks += 1;
            if slot.clean_ticks >= DEGRADED_RECOVERY_TICKS {
                slot.state = LifecycleState::Running;
                self.log(k, "recovered: clean ticks elapsed");
            }
        }
    }

    /// Pulls up to `chunks_per_tick` chunks through the fault filter
    /// and delivers each one. `Err(())` means the sensor already took
    /// the fail path.
    fn pull_chunks(&mut self, k: usize) -> Result<(), ()> {
        for _ in 0..self.sensors[k].policy.chunks_per_tick {
            let slot = &mut self.sensors[k];
            if slot.exhausted {
                break;
            }
            let mut chunk = Vec::new();
            match slot.source.next_chunk(&mut chunk) {
                Ok(0) => {
                    // A chunk held for reordering has no successor
                    // left: it goes out on its own.
                    slot.exhausted = true;
                    if let Some(held) = slot.reorder_held.take() {
                        self.deliver(k, &held)?;
                    }
                    break;
                }
                Ok(_) => {}
                Err(e) => {
                    self.log(k, format!("source error: {e}"));
                    self.fail_sensor(k, "source error", e.is_retryable());
                    return Err(());
                }
            }

            // In-transit faults, in wire order: loss, truncation,
            // corruption, reordering.
            if slot.drop_next > 0 {
                slot.drop_next -= 1;
                slot.chunks_dropped += 1;
                slot.fault_seen_this_tick = true;
                continue;
            }
            if let Some(keep) = slot.truncate_next.take() {
                chunk.truncate((chunk.len() as f64 * keep) as usize);
                slot.fault_seen_this_tick = true;
            }
            if slot.corrupt_chunks > 0 {
                slot.corrupt_chunks -= 1;
                let frac = slot.corrupt_frac;
                corrupt_chunk(&mut chunk, frac, &mut slot.corrupt_rng);
                slot.fault_seen_this_tick = true;
            } else if slot.poisoned {
                for s in chunk.iter_mut() {
                    *s = Complex::new(f64::NAN, f64::NAN);
                }
                slot.fault_seen_this_tick = true;
            }

            // Poison detection is observational: the supervisor scans
            // what it is about to deliver, it does not peek at the
            // fault plan.
            let non_finite =
                chunk.iter().filter(|s| !s.re.is_finite() || !s.im.is_finite()).count();
            if !chunk.is_empty() && non_finite * 2 > chunk.len() {
                slot.consecutive_corrupt += 1;
                let corrupt = slot.consecutive_corrupt;
                if corrupt >= MAX_CORRUPT_CHUNKS {
                    self.log(k, format!("stream declared poisoned after {corrupt} corrupt chunks"));
                    self.fail_sensor(k, "poisoned stream", true);
                    return Err(());
                }
            } else if !chunk.is_empty() {
                slot.consecutive_corrupt = 0;
            }

            if slot.reorder_request {
                // Hold this chunk back; it goes out after the next one.
                slot.reorder_request = false;
                slot.reorder_held = Some(chunk);
                slot.fault_seen_this_tick = true;
                continue;
            }
            let held = slot.reorder_held.take();
            self.deliver(k, &chunk)?;
            if let Some(held) = held {
                self.deliver(k, &held)?;
            }
        }
        Ok(())
    }

    /// The one delivery step: offers `chunk` to sensor `k`'s session,
    /// and on a refusal pumps every session once and offers it again.
    /// Rotation happens *here*, at the exact budget boundary between
    /// two offers: a once-per-tick check would let post-boundary
    /// samples leak into the pre-boundary session. A chunk refused
    /// even after the pump is larger than the session buffer; a
    /// restart would replay it unchanged, so the sensor is quarantined
    /// as fatal. `Err(())` means the sensor took that path.
    fn deliver(&mut self, k: usize, chunk: &[Complex]) -> Result<(), ()> {
        let slot = &mut self.sensors[k];
        let mut id = slot.session.expect("a delivering sensor has a session");
        // Budget reached with more data arriving: flush this session's
        // report and open the next one before offering another sample.
        // (A boundary that coincides with the end of the stream is
        // handled by the finish path instead.)
        if slot.policy.rotate_after_samples.is_some_and(|budget| slot.session_samples >= budget) {
            let closed = self.registry.finish(id).expect("rotating session exists");
            slot.outputs.push(closed);
            slot.session = None;
            slot.session_samples = 0;
            match open_session(&mut self.registry, &slot.kind, slot.source.as_ref()) {
                Ok(new_id) => {
                    slot.session = Some(new_id);
                    id = new_id;
                    self.log(k, "session rotated: report flushed");
                }
                Err(why) => {
                    self.quarantine(k, &format!("rotation failed: {why}"));
                    return Err(());
                }
            }
        }
        let admitted = self.registry.offer(id, chunk).is_ok() || {
            self.registry.pump();
            self.registry.offer(id, chunk).is_ok()
        };
        if !admitted {
            let limit = self.config.buffer_limit;
            let reason =
                format!("{}-sample chunk exceeds the {limit}-sample session buffer", chunk.len());
            self.fail_sensor(k, &reason, false);
            return Err(());
        }
        let slot = &mut self.sensors[k];
        slot.session_samples += chunk.len();
        slot.last_progress_tick = self.ticks;
        Ok(())
    }

    /// Finishes an exhausted sensor: flushes the final report and
    /// marks the sensor done, or routes a stream error into the
    /// restart/quarantine path. Returns `true` when the sensor went
    /// terminal or restarted this tick.
    fn finish_if_exhausted(&mut self, k: usize) -> bool {
        let slot = &mut self.sensors[k];
        let Some(id) = slot.session else { return false };
        if !slot.exhausted {
            return false;
        }
        let closed = self.registry.finish(id).expect("finishing session exists");
        slot.session = None;
        let error = closed.output.error_kind();
        let retryable = closed.output.is_retryable_err();
        slot.outputs.push(closed);
        match error {
            Some(kind) => {
                self.log(k, format!("stream error at finish: {kind}"));
                self.fail_sensor(k, kind, retryable);
            }
            None => {
                slot.state = LifecycleState::Done;
                self.log(k, "completed: final report flushed");
            }
        }
        true
    }

    /// The one abandon step: aborts sensor `k`'s open session, if any,
    /// counting it and the samples it had processed, and drops any
    /// chunk held for it.
    fn abandon(&mut self, k: usize) {
        let slot = &mut self.sensors[k];
        if let Some(id) = slot.session.take() {
            if let Ok(stats) = self.registry.abort(id) {
                slot.aborted_sessions += 1;
                slot.aborted_samples += stats.samples_processed;
            }
        }
        slot.reorder_held = None;
        slot.exhausted = false;
        slot.session_samples = 0;
        slot.consecutive_corrupt = 0;
    }

    /// The restart/quarantine decision point: abandons the current
    /// session and either schedules a backed-off restart (retryable
    /// failure, budget remaining) or quarantines the sensor.
    fn fail_sensor(&mut self, k: usize, reason: &str, retryable: bool) {
        self.abandon(k);
        if !retryable {
            self.quarantine(k, &format!("fatal: {reason}"));
            return;
        }
        let slot = &mut self.sensors[k];
        if slot.restarts >= MAX_RESTARTS {
            self.quarantine(k, &format!("restart budget exhausted after: {reason}"));
            return;
        }
        slot.restarts += 1;
        let delay = backoff_ticks(slot.restarts, slot.jitter_seed);
        let resume_tick = self.ticks + delay;
        slot.state = LifecycleState::Restarting { resume_tick };
        let restart = slot.restarts;
        self.log(
            k,
            format!(
                "restart {restart} scheduled after {reason} (backoff {delay}, resume @ {resume_tick})"
            ),
        );
    }

    /// Fires a scheduled restart: rewinds the source and opens a fresh
    /// session.
    fn resume_sensor(&mut self, k: usize) {
        let slot = &mut self.sensors[k];
        if let Err(e) = slot.source.reset() {
            self.log(k, format!("restart failed to rewind source: {e}"));
            self.fail_sensor(k, "source rewind failed", e.is_retryable());
            return;
        }
        match open_session(&mut self.registry, &slot.kind, slot.source.as_ref()) {
            Ok(id) => {
                slot.session = Some(id);
                slot.state = LifecycleState::Running;
                slot.last_progress_tick = self.ticks;
                slot.clean_ticks = 0;
                let restart = slot.restarts;
                self.log(k, format!("restarted (attempt {restart})"));
            }
            Err(why) => self.quarantine(k, &format!("reopen failed: {why}")),
        }
    }

    fn quarantine(&mut self, k: usize, why: &str) {
        self.abandon(k);
        self.sensors[k].state = LifecycleState::Quarantined;
        self.log(k, format!("quarantined: {why}"));
    }
}

/// Opens the registry session matching a sensor's kind. Construction
/// failures come back as a display string so callers can log and
/// quarantine uniformly.
fn open_session(
    registry: &mut SessionRegistry,
    kind: &SensorKind,
    source: &dyn SensorSource,
) -> Result<SessionId, String> {
    let (fs, fc) = (source.sample_rate(), source.center_freq());
    match kind {
        SensorKind::Covert(rx) => {
            registry.open_covert(rx.clone(), fs, fc).map_err(|e| e.to_string())
        }
        SensorKind::BlindCovert(rx) => {
            registry.open_blind_covert(rx.clone(), fs, fc).map_err(|e| e.to_string())
        }
        SensorKind::Keylog(cfg) => {
            registry.open_keylog(cfg.clone(), fs, fc).map_err(|e| e.to_string())
        }
    }
}

/// NaN-corrupts roughly `frac` of the chunk at xorshift-seeded
/// positions (deterministic: the state threads through the slot).
fn corrupt_chunk(chunk: &mut [Complex], frac: f64, state: &mut u64) {
    let threshold = (frac * 1024.0) as u64;
    for s in chunk.iter_mut() {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        if *state % 1024 < threshold {
            *s = Complex::new(f64::NAN, f64::NAN);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emsc_core::experiments::streaming::seeded_noise;
    use emsc_keylog::stream::StreamingDetector;
    use emsc_sdr::Capture;

    use crate::fault::FaultEvent;
    use crate::policy::SensorPolicy;
    use crate::source::ReplaySource;

    /// A small keylogging capture (0.1 s, one keystroke burst) — cheap
    /// enough to supervise many times per test run.
    fn tiny_keylog(seed: u64) -> (DetectorConfig, Capture) {
        let fs = 2.4e6_f64;
        let center = 1.455e6;
        let f_sw = 970e3;
        let f_bb = f_sw - center;
        let mut samples = seeded_noise(seed, (0.1 * fs) as usize, 0.02);
        let (a, b) = ((0.02 * fs) as usize, (0.06 * fs) as usize);
        for (i, s) in samples.iter_mut().enumerate().take(b).skip(a) {
            *s += Complex::from_polar(1.0, 2.0 * std::f64::consts::PI * f_bb * i as f64 / fs);
        }
        (DetectorConfig::new(f_sw), Capture { samples, sample_rate: fs, center_freq: center })
    }

    fn keylog_spec(seed: u64, policy: SensorPolicy) -> (SensorSpec, SessionOutput) {
        let (config, capture) = tiny_keylog(seed);
        let batch = SessionOutput::Keylog(StreamingDetector::detect(config.clone(), &capture));
        let spec = SensorSpec {
            label: format!("keylog-{seed}"),
            kind: SensorKind::Keylog(config),
            source: Box::new(ReplaySource::new(capture, 9973)),
            policy,
        };
        (spec, batch)
    }

    #[test]
    fn healthy_sensor_streams_to_done_and_matches_batch() {
        let (spec, batch) = keylog_spec(7, SensorPolicy::default());
        let mut sup = Supervisor::new(ServiceConfig::default(), FaultPlan::none());
        sup.add_sensor(spec);
        let report = sup.run();
        let s = &report.sensors[0];
        assert_eq!(s.state, LifecycleState::Done);
        assert_eq!(s.restarts, 0);
        assert_eq!(s.sessions.len(), 1);
        assert_eq!(s.sessions[0].output, batch, "stream must equal batch");
        assert_eq!(s.uptime_ticks, s.active_ticks, "a healthy run is 100% uptime");
        assert!(s.bursts_detected > 0, "the keystroke burst went undetected");
    }

    #[test]
    fn disconnect_restarts_with_backoff_and_replays_clean() {
        let (spec, batch) = keylog_spec(11, SensorPolicy::default());
        let plan =
            FaultPlan::new(vec![FaultEvent { tick: 3, sensor: 0, fault: Fault::Disconnect }]);
        let mut sup = Supervisor::new(ServiceConfig::default(), plan);
        sup.add_sensor(spec);
        let report = sup.run();
        let s = &report.sensors[0];
        assert_eq!(s.state, LifecycleState::Done, "events: {:#?}", report.events);
        assert_eq!(s.restarts, 1);
        assert_eq!(s.aborted_sessions, 1, "the disconnected session is abandoned");
        assert_eq!(s.sessions.len(), 1, "only the post-restart session completes");
        assert_eq!(s.sessions[0].output, batch, "post-restart replay must equal batch");
        assert!(s.uptime_ticks < s.active_ticks, "backoff ticks must not count as uptime");
        assert!(report.events.iter().any(|e| e.what.contains("restart 1 scheduled")));
    }

    #[test]
    fn long_stall_trips_the_watchdog_then_recovers() {
        let (spec, batch) = keylog_spec(13, SensorPolicy::default());
        let plan = FaultPlan::new(vec![FaultEvent {
            tick: 2,
            sensor: 0,
            fault: Fault::Stall { ticks: 12 },
        }]);
        let mut sup = Supervisor::new(ServiceConfig::default(), plan);
        sup.add_sensor(spec);
        let report = sup.run();
        let s = &report.sensors[0];
        assert_eq!(s.state, LifecycleState::Done, "events: {:#?}", report.events);
        assert!(s.restarts >= 1, "watchdog never fired");
        assert_eq!(s.sessions.last().unwrap().output, batch);
        assert!(report.events.iter().any(|e| e.what.contains("watchdog fired")));
    }

    #[test]
    fn poison_exhausts_the_restart_budget_into_quarantine_without_collateral() {
        let (poisoned, _) = keylog_spec(17, SensorPolicy::default());
        let (healthy, batch) = keylog_spec(19, SensorPolicy::default());
        let plan = FaultPlan::new(vec![FaultEvent { tick: 2, sensor: 0, fault: Fault::Poison }]);
        let mut sup = Supervisor::new(ServiceConfig::default(), plan);
        sup.add_sensor(poisoned);
        sup.add_sensor(healthy);
        let report = sup.run();
        let p = &report.sensors[0];
        assert_eq!(p.state, LifecycleState::Quarantined, "events: {:#?}", report.events);
        assert_eq!(p.restarts, MAX_RESTARTS, "budget must be spent before quarantine");
        assert!(p.sessions.is_empty(), "a poisoned stream never completes a session");
        assert!(report.events.iter().any(|e| e.what.contains("poisoned")));
        // The neighbour is untouched: supervision is per-sensor.
        let h = &report.sensors[1];
        assert_eq!(h.state, LifecycleState::Done);
        assert_eq!(h.sessions[0].output, batch);
    }

    #[test]
    fn rotation_flushes_a_full_report_per_pass() {
        let (config, capture) = tiny_keylog(23);
        let batch = SessionOutput::Keylog(StreamingDetector::detect(config.clone(), &capture));
        let n = capture.samples.len();
        let spec = SensorSpec {
            label: "rotating".to_string(),
            kind: SensorKind::Keylog(config),
            source: Box::new(ReplaySource::looping(capture, 9973, 2)),
            policy: SensorPolicy { rotate_after_samples: Some(n), ..SensorPolicy::default() },
        };
        let mut sup = Supervisor::new(ServiceConfig::default(), FaultPlan::none());
        sup.add_sensor(spec);
        let report = sup.run();
        let s = &report.sensors[0];
        assert_eq!(s.state, LifecycleState::Done, "events: {:#?}", report.events);
        assert_eq!(s.sessions.len(), 2, "two passes, two flushed reports");
        for closed in &s.sessions {
            assert_eq!(closed.output, batch, "every rotated session sees one clean pass");
        }
        assert!(report.events.iter().any(|e| e.what.contains("rotated")));
    }

    #[test]
    fn a_chunk_larger_than_the_session_buffer_is_fatal() {
        // 2048-sample chunks against a 1024-sample session buffer: a
        // pump cannot admit one, and a restart would replay the same
        // chunks, so the first one quarantines the sensor at tick 1,
        // with no restart and no watchdog stall.
        let config = ServiceConfig { buffer_limit: 1024, ..ServiceConfig::default() };
        let (det, capture) = tiny_keylog(29);
        let spec = SensorSpec {
            label: "oversized".to_string(),
            kind: SensorKind::Keylog(det),
            source: Box::new(ReplaySource::new(capture, 2048)),
            policy: SensorPolicy::default(),
        };
        let mut sup = Supervisor::new(config, FaultPlan::none());
        sup.add_sensor(spec);
        let report = sup.run();
        let s = &report.sensors[0];
        assert_eq!(s.state, LifecycleState::Quarantined, "events: {:#?}", report.events);
        assert_eq!(s.restarts, 0);
        assert_eq!(s.samples_processed, 0);
        assert!(s.sessions.is_empty());
        assert_eq!(report.ticks, 1);
        assert_eq!(
            report.events,
            vec![ServiceEvent {
                tick: 1,
                sensor: 0,
                what: "quarantined: fatal: 2048-sample chunk exceeds the 1024-sample session \
                       buffer"
                    .into()
            }]
        );
    }

    #[test]
    fn shutdown_mid_stream_closes_the_session_on_what_arrived() {
        // Two ticks of four 9973-sample chunks, then `max_ticks` stops
        // the run: the session closes on that prefix alone.
        let (config, capture) = tiny_keylog(37);
        let spec = SensorSpec {
            label: "stopped".to_string(),
            kind: SensorKind::Keylog(config.clone()),
            source: Box::new(ReplaySource::new(capture.clone(), 9973)),
            policy: SensorPolicy::default(),
        };
        let mut sup = Supervisor::new(
            ServiceConfig { max_ticks: 2, ..ServiceConfig::default() },
            FaultPlan::none(),
        );
        sup.add_sensor(spec);
        let report = sup.run();
        let s = &report.sensors[0];
        assert_eq!(report.ticks, 2);
        assert_eq!(s.state, LifecycleState::Done);
        assert_eq!(s.sessions.len(), 1);
        assert_eq!(s.samples_processed, 79_784);
        assert_eq!(s.sessions[0].stats.samples_processed, 79_784);
        let prefix = Capture { samples: capture.samples[..79_784].to_vec(), ..capture };
        let batch = SessionOutput::Keylog(StreamingDetector::detect(config, &prefix));
        assert_eq!(
            s.sessions[0].output, batch,
            "the drained session must equal the prefix's batch"
        );
        assert_eq!(
            report.events,
            vec![ServiceEvent {
                tick: 2,
                sensor: 0,
                what: "drained and closed at shutdown".into()
            }]
        );
    }

    #[test]
    fn a_stream_error_at_shutdown_quarantines_its_sensor() {
        // `max_ticks: 0` stops the run before the first pull: the
        // session closes on no samples, a typed capture error, and no
        // restart can follow a shutdown.
        let (spec, _) = keylog_spec(41, SensorPolicy::default());
        let mut sup = Supervisor::new(
            ServiceConfig { max_ticks: 0, ..ServiceConfig::default() },
            FaultPlan::none(),
        );
        sup.add_sensor(spec);
        let report = sup.run();
        let s = &report.sensors[0];
        assert_eq!(report.ticks, 0);
        assert_eq!(s.state, LifecycleState::Quarantined, "events: {:#?}", report.events);
        assert_eq!(s.restarts, 0);
        assert_eq!(s.samples_processed, 0);
        assert_eq!(s.sessions.len(), 1, "the failed stream's report is kept");
        assert_eq!(s.last_error, Some("keylog-capture"));
        assert_eq!(
            report.events,
            vec![ServiceEvent {
                tick: 0,
                sensor: 0,
                what: "quarantined: stream error at shutdown: keylog-capture".into()
            }]
        );
    }

    #[test]
    fn a_reordered_last_chunk_is_delivered_on_its_own() {
        // Five 48 000-sample chunks, one per tick, and the reorder
        // lands on the fifth: nothing follows it, so it goes out alone
        // once the source runs dry, or at shutdown if the run stops
        // first. Either way the session sees the whole capture in
        // order and the watchdog never fires.
        let (config, capture) = tiny_keylog(43);
        let batch = SessionOutput::Keylog(StreamingDetector::detect(config.clone(), &capture));
        let n = capture.samples.len();
        for max_ticks in [100, 5] {
            let spec = SensorSpec {
                label: "reordered".to_string(),
                kind: SensorKind::Keylog(config.clone()),
                source: Box::new(ReplaySource::new(capture.clone(), n / 5)),
                policy: SensorPolicy { chunks_per_tick: 1, ..SensorPolicy::default() },
            };
            let plan =
                FaultPlan::new(vec![FaultEvent { tick: 5, sensor: 0, fault: Fault::ReorderNext }]);
            let mut sup =
                Supervisor::new(ServiceConfig { max_ticks, ..ServiceConfig::default() }, plan);
            sup.add_sensor(spec);
            let report = sup.run();
            let s = &report.sensors[0];
            assert_eq!(s.state, LifecycleState::Done, "events: {:#?}", report.events);
            assert_eq!(s.restarts, 0, "events: {:#?}", report.events);
            assert!(!report.events.iter().any(|e| e.what.contains("watchdog")));
            assert_eq!(s.samples_processed, n);
            assert_eq!(s.sessions.len(), 1);
            assert_eq!(s.sessions[0].output, batch);
        }
    }

    #[test]
    fn identical_runs_produce_identical_reports() {
        let run = || {
            let (spec, _) = keylog_spec(31, SensorPolicy::default());
            let plan = FaultPlan::new(vec![
                FaultEvent { tick: 2, sensor: 0, fault: Fault::TruncateChunk { keep_frac: 0.5 } },
                FaultEvent { tick: 4, sensor: 0, fault: Fault::Disconnect },
            ]);
            let mut sup = Supervisor::new(ServiceConfig::default(), plan);
            sup.add_sensor(spec);
            sup.run()
        };
        assert_eq!(run(), run(), "same plan and seed must replay bit-identically");
    }

    #[test]
    fn degenerate_tick_durations_clamp_to_zero() {
        for bad in [f64::NAN, f64::NEG_INFINITY, -1.0] {
            let config = ServiceConfig { tick_duration_s: bad, ..ServiceConfig::default() };
            let mut sup = Supervisor::new(config, FaultPlan::none());
            sup.tick();
            let report = sup.report();
            assert_eq!(report.ticks, 1);
            assert_eq!(report.elapsed_s, 0.0, "tick duration {bad}");
        }
    }
}
