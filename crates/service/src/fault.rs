//! Deterministic fault plans for the capture supervisor.
//!
//! A long-running listening post fails in a handful of characteristic
//! ways: the SDR disconnects (USB re-enumeration), the stream stalls
//! (a wedged driver), transfers arrive truncated or reordered, and a
//! dying front end pollutes its samples with garbage. [`FaultPlan`]
//! encodes such a failure history as an explicit, seed-derivable
//! schedule of [`FaultEvent`]s on the supervisor's tick count, so
//! an entire soak run — faults, restarts, backoff jitter and all — is
//! a pure function of `(plan, seed)` and replays bit-identically.
//!
//! Faults are injected *between* a sensor's source and the session
//! registry: the supervisor corrupts the delivery, never the DSP
//! state, which mirrors where these failures occur physically (on the
//! USB wire and in the tuner, not in the maths).

use emsc_runtime::seed_for;

/// Tick at which [`FaultPlan::escalating`]'s first phase opens.
const ESCALATION_START_TICK: u64 = 2;
/// Ticks per phase of [`FaultPlan::escalating`].
const ESCALATION_PHASE_TICKS: u64 = 2;

/// One injectable failure mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// The source read fails this tick, as an unplugged device would:
    /// the supervisor sees a retryable read error and must abort the
    /// session and restart per policy.
    Disconnect,
    /// The source delivers nothing for `ticks` ticks — a wedged
    /// driver. Stalls longer than the sensor's watchdog timeout get
    /// the stream declared dead.
    Stall {
        /// Ticks of silence.
        ticks: u64,
    },
    /// The next chunk loses its tail: only `keep_frac` of its samples
    /// are delivered (a truncated USB transfer). Desynchronises bit
    /// timing downstream — a deletion, never a crash.
    TruncateChunk {
        /// Fraction of the chunk kept, clamped to `[0, 1]`.
        keep_frac: f64,
    },
    /// The next `chunks` chunks arrive corrupted: a seeded `nan_frac`
    /// of their samples are replaced with NaN (a flaky front end).
    CorruptBurst {
        /// Number of consecutive corrupted chunks.
        chunks: u32,
        /// Fraction of samples NaN'd per corrupted chunk, clamped to
        /// `[0, 1]`.
        nan_frac: f64,
    },
    /// The next `chunks` chunks are silently lost in transit (dropped
    /// USB transfers).
    DropChunks {
        /// Number of chunks lost.
        chunks: u32,
    },
    /// The next two chunks are delivered in swapped order (reordered
    /// transfer completion). A chunk with no successor (the source's
    /// last, or one still held at shutdown) is delivered on its own.
    ReorderNext,
    /// The sensor's front end dies for good: every subsequent chunk is
    /// all-NaN until the end of the run. Restarting cannot help, so a
    /// supervisor with a bounded restart budget ends up quarantining
    /// the sensor.
    Poison,
}

impl Fault {
    /// Short label used in event logs and fault summaries.
    pub fn label(&self) -> &'static str {
        match self {
            Fault::Disconnect => "disconnect",
            Fault::Stall { .. } => "stall",
            Fault::TruncateChunk { .. } => "truncate",
            Fault::CorruptBurst { .. } => "corrupt",
            Fault::DropChunks { .. } => "drop",
            Fault::ReorderNext => "reorder",
            Fault::Poison => "poison",
        }
    }
}

/// A fault scheduled against one sensor at one tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Tick at which the fault takes effect.
    pub tick: u64,
    /// Index of the targeted sensor (supervisor admission order).
    pub sensor: usize,
    /// What goes wrong.
    pub fault: Fault,
}

/// An ordered schedule of fault events.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan from explicit events (stably sorted by tick, so events
    /// at the same tick keep their listed order).
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.tick);
        FaultPlan { events }
    }

    /// The empty plan: a fault-free run.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// All scheduled events, in tick order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Events that take effect at exactly `tick`.
    pub fn due(&self, tick: u64) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().filter(move |e| e.tick == tick)
    }

    /// Human-readable summary of the faults aimed at sensor `k`
    /// (`"truncate@4, disconnect@12"`), or `"-"` for an untargeted
    /// sensor.
    pub fn describe_sensor(&self, k: usize) -> String {
        let parts: Vec<String> = self
            .events
            .iter()
            .filter(|e| e.sensor == k)
            .map(|e| format!("{}@{}", e.fault.label(), e.tick))
            .collect();
        if parts.is_empty() {
            "-".to_string()
        } else {
            parts.join(", ")
        }
    }

    /// A seeded escalating schedule against `targets`, the shape the
    /// E5 soak uses: four phases of two ticks starting at tick 2, each
    /// strictly nastier than the last —
    ///
    /// 1. **mild**: truncated and dropped chunks,
    /// 2. **moderate**: reordering and NaN corruption bursts,
    /// 3. **heavy**: stalls long enough to trip a watchdog,
    /// 4. **severe**: outright disconnects.
    ///
    /// Each targeted sensor receives one fault per phase at a
    /// seed-jittered tick inside the phase window (`seed_for(seed,
    /// phase·N+i)` — positional, so the plan is independent of
    /// iteration order). [`Fault::Poison`] is deliberately excluded:
    /// it is a sensor death sentence, so callers add it explicitly to
    /// the sensors they mean to kill.
    pub fn escalating(seed: u64, targets: &[usize]) -> Self {
        let mut events = Vec::new();
        for phase in 0..4u64 {
            for (i, &sensor) in targets.iter().enumerate() {
                let jitter = seed_for(seed, phase * targets.len() as u64 + i as u64)
                    % ESCALATION_PHASE_TICKS;
                let tick = ESCALATION_START_TICK + phase * ESCALATION_PHASE_TICKS + jitter;
                let fault = match phase {
                    0 => {
                        if i % 2 == 0 {
                            Fault::TruncateChunk { keep_frac: 0.6 }
                        } else {
                            Fault::DropChunks { chunks: 1 }
                        }
                    }
                    1 => {
                        if i % 2 == 0 {
                            Fault::ReorderNext
                        } else {
                            Fault::CorruptBurst { chunks: 1, nan_frac: 0.3 }
                        }
                    }
                    2 => Fault::Stall { ticks: 8 + (i as u64 % 3) * 4 },
                    _ => Fault::Disconnect,
                };
                events.push(FaultEvent { tick, sensor, fault });
            }
        }
        FaultPlan::new(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_sorted_and_queryable_by_tick() {
        let plan = FaultPlan::new(vec![
            FaultEvent { tick: 9, sensor: 1, fault: Fault::Disconnect },
            FaultEvent { tick: 2, sensor: 0, fault: Fault::ReorderNext },
            FaultEvent { tick: 9, sensor: 0, fault: Fault::Poison },
        ]);
        let ticks: Vec<u64> = plan.events().iter().map(|e| e.tick).collect();
        assert_eq!(ticks, vec![2, 9, 9]);
        assert_eq!(plan.due(9).count(), 2);
        assert_eq!(plan.due(3).count(), 0);
        assert_eq!(plan.describe_sensor(7), "-");
        assert_eq!(plan.describe_sensor(0), "reorder@2, poison@9");
    }

    #[test]
    fn escalating_plans_are_seed_deterministic() {
        let a = FaultPlan::escalating(2020, &[3, 4, 5]);
        let b = FaultPlan::escalating(2020, &[3, 4, 5]);
        assert_eq!(a, b);
        let c = FaultPlan::escalating(2021, &[3, 4, 5]);
        assert_ne!(a, c, "different seeds must jitter the schedule differently");
    }

    #[test]
    fn escalating_plans_cover_every_target_each_phase_and_never_poison() {
        let targets = [1usize, 2, 6];
        let plan = FaultPlan::escalating(7, &targets);
        assert_eq!(plan.events().len(), 4 * targets.len());
        for &t in &targets {
            let mine: Vec<&FaultEvent> = plan.events().iter().filter(|e| e.sensor == t).collect();
            assert_eq!(mine.len(), 4, "sensor {t} missing a phase");
            assert!(mine.iter().all(|e| e.fault != Fault::Poison));
            // Phases escalate: the last-scheduled fault is the
            // severe-phase disconnect.
            assert_eq!(mine.last().unwrap().fault, Fault::Disconnect);
        }
        // Every event lands inside the four phase windows.
        let schedule = ESCALATION_START_TICK..ESCALATION_START_TICK + 4 * ESCALATION_PHASE_TICKS;
        for e in plan.events() {
            assert!(schedule.contains(&e.tick), "event off the schedule: {e:?}");
        }
    }
}
