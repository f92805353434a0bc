//! The discrete-event machine simulator: executes a [`Program`]
//! against the power-state, timer and noise models and produces the
//! [`PowerTrace`] the VRM (and hence the attacker) observes.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::governor::{CStatePolicy, DvfsPolicy, PStateMode};
use crate::noise::{NoiseConfig, NoiseKind, NoiseProcess};
use crate::power::PowerStateTable;
use crate::timer::SleepModel;
use crate::trace::{ActivityKind, PowerTrace};
use crate::workload::{Op, Program};

/// An externally-injected burst of processor activity (e.g. a
/// keystroke interrupt plus its handling), for event-driven scenarios
/// where no explicit program runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExternalEvent {
    /// When the event fires, seconds.
    pub t_s: f64,
    /// How long the core stays busy handling it, seconds.
    pub duration_s: f64,
    /// Ground-truth label for the resulting activity.
    pub kind: ActivityKind,
}

/// A complete simulated machine. Variants (other OSes,
/// countermeasures) override fields of [`Machine::intel_laptop`] with
/// struct-update syntax.
///
/// # Examples
///
/// Run the paper's Fig. 1 micro-benchmark and confirm the trace
/// alternates between high-current work and low-current idle:
///
/// ```
/// use emsc_pmu::sim::Machine;
/// use emsc_pmu::workload::Program;
///
/// let machine = Machine::intel_laptop();
/// let program = Program::alternating(1e-3, 1e-3, 10, machine.nominal_ips());
/// let trace = machine.run(&program, 7);
/// let busy_s: f64 =
///     trace.segments().iter().filter(|s| s.cstate == 0).map(|s| s.duration_s).sum();
/// let active = busy_s / trace.duration_s();
/// assert!(active > 0.3 && active < 0.7);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    /// P-/C-state tables and current model.
    pub table: PowerStateTable,
    /// OS sleep API behaviour.
    pub sleep_model: SleepModel,
    /// P-state policy (BIOS + governor).
    pub dvfs: DvfsPolicy,
    /// C-state policy (BIOS + menu governor).
    pub cstates: CStatePolicy,
    /// System noise processes.
    pub noise: NoiseConfig,
}

impl Machine {
    /// A representative Linux laptop with Speed Shift, all power
    /// states enabled and normal OS noise.
    pub fn intel_laptop() -> Self {
        Machine {
            table: PowerStateTable::intel_mobile(),
            sleep_model: SleepModel::LinuxUsleep,
            dvfs: DvfsPolicy::speed_shift(),
            cstates: CStatePolicy::all(),
            noise: NoiseConfig::normal(),
        }
    }

    /// Loop iterations per second at P-state `p`: the simple loop
    /// retires one iteration per core cycle.
    pub fn iterations_per_second(&self, p: crate::power::PState) -> f64 {
        p.frequency_hz
    }

    /// Loop iterations per second at the nominal (P0) operating point.
    pub fn nominal_ips(&self) -> f64 {
        self.iterations_per_second(self.table.p0())
    }

    /// The sustained execution speed a duty-cycle workload sees once
    /// the DVFS governor has warmed up: P0 unless the policy pins a
    /// different P-state. (Periodic short-burst workloads hold their
    /// ramp level across brief sleeps, so the steady state is what
    /// matters for calibration — the paper's authors likewise tuned
    /// LOOP_PERIOD on the live machine.)
    pub fn steady_state_ips(&self) -> f64 {
        let p = match (self.dvfs.enabled, self.dvfs.mode) {
            (true, PStateMode::Fixed(i)) => self
                .table
                .pstates
                .get(i as usize)
                .copied()
                .unwrap_or_else(|| self.table.deepest_pstate()),
            _ => self.table.p0(),
        };
        self.iterations_per_second(p)
    }

    /// How long a busy burst of `iterations` loop iterations takes at
    /// the governor's steady state.
    pub fn burst_duration_s(&self, iterations: u64) -> f64 {
        iterations as f64 / self.steady_state_ips()
    }

    /// Iterations needed for a steady-state busy burst of roughly
    /// `duration_s` seconds (inverse of [`Machine::burst_duration_s`]).
    pub fn iterations_for_duration(&self, duration_s: f64) -> u64 {
        if duration_s <= 0.0 {
            return 0;
        }
        (duration_s * self.steady_state_ips()).round() as u64
    }

    /// Expected (mean) wall-clock cost of an OS sleep request on this
    /// machine: timer quantisation + call overhead + mean lengthening
    /// + the C-state exit latency paid on wake-up.
    pub fn expected_sleep_s(&self, requested_s: f64) -> f64 {
        let g = self.sleep_model.granularity_s();
        let quantised = (requested_s / g).ceil() * g;
        let base = quantised + self.sleep_model.overhead_s() + self.sleep_model.jitter_mean_s();
        let wake = self.cstates.select(&self.table, base).map_or(0.0, |c| c.exit_latency_s);
        base + wake
    }

    /// Executes `program` and returns the resulting power trace.
    /// Deterministic for a given `(program, seed)` pair.
    pub fn run(&self, program: &Program, seed: u64) -> PowerTrace {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut noise =
            NoiseProcess::new(self.noise, StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15));
        let mut trace = PowerTrace::new();
        let mut level = 0.0; // DVFS ramp level (0 = deepest, 1 = P0)
        for op in program.ops() {
            match *op {
                Op::Busy { iterations } => {
                    self.emit_busy(&mut trace, &mut level, iterations, ActivityKind::Work)
                }
                Op::Sleep { duration_s } => {
                    let actual = self.sleep_model.actual_sleep(duration_s, &mut rng);
                    self.emit_idle(&mut trace, &mut noise, &mut level, actual);
                }
            }
        }
        trace
    }

    /// Simulates an otherwise-idle machine for `duration_s` seconds
    /// with externally-injected activity bursts (keystrokes, browser
    /// housekeeping). Events must be within the duration; overlapping
    /// events are serialised in arrival order.
    pub fn run_events(&self, duration_s: f64, events: &[ExternalEvent], seed: u64) -> PowerTrace {
        let mut sorted = events.to_vec();
        sorted.sort_by(|a, b| a.t_s.partial_cmp(&b.t_s).unwrap_or(std::cmp::Ordering::Equal));
        let mut noise =
            NoiseProcess::new(self.noise, StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15));
        let mut trace = PowerTrace::new();
        let mut level = 0.0;
        for ev in &sorted {
            let now = trace.duration_s();
            if ev.t_s > now {
                self.emit_idle(&mut trace, &mut noise, &mut level, ev.t_s - now);
            }
            let iterations = (ev.duration_s * self.nominal_ips()) as u64;
            self.emit_busy(&mut trace, &mut level, iterations, ev.kind);
        }
        let now = trace.duration_s();
        if duration_s > now {
            self.emit_idle(&mut trace, &mut noise, &mut level, duration_s - now);
        }
        trace
    }

    /// Emits a work burst of `iterations` loop iterations, walking the
    /// DVFS ramp staircase from the governor's current `level` (0 =
    /// deepest P-state, 1 = P0): each P-state table step takes
    /// `ramp / (n−1)` seconds of busy time, and the level persists
    /// across bursts so periodic duty-cycle workloads quickly settle
    /// at P0.
    fn emit_busy(
        &self,
        trace: &mut PowerTrace,
        level: &mut f64,
        iterations: u64,
        kind: ActivityKind,
    ) {
        if iterations == 0 {
            return;
        }
        let mut remaining = iterations as f64;
        let emit = |trace: &mut PowerTrace, p: crate::power::PState, dur: f64| {
            trace.push(dur, 0, p.index, self.table.active_current_a(p), p.voltage_v, kind);
        };
        if !self.dvfs.enabled {
            let p = self.table.p0();
            emit(trace, p, remaining / self.iterations_per_second(p));
            *level = 1.0;
            return;
        }
        if let PStateMode::Fixed(i) = self.dvfs.mode {
            let p = self
                .table
                .pstates
                .get(i as usize)
                .copied()
                .unwrap_or_else(|| self.table.deepest_pstate());
            emit(trace, p, remaining / self.iterations_per_second(p));
            return;
        }
        let ramp = self.dvfs.mode.ramp_s();
        let n = self.table.pstates.len();
        let step_level = 1.0 / (n - 1).max(1) as f64;
        while remaining > 0.0 {
            if *level >= 1.0 - 1e-12 || ramp <= 0.0 {
                let p = self.table.p0();
                emit(trace, p, remaining / self.iterations_per_second(p));
                *level = 1.0;
                break;
            }
            // Current staircase step: index n-1-k for level in
            // [k·Δ, (k+1)·Δ).
            let k = (*level / step_level).floor() as usize;
            let p = self.table.pstates[(n - 1).saturating_sub(k)];
            let step_end = ((k + 1) as f64 * step_level).min(1.0);
            let step_time = (step_end - *level) * ramp;
            let ips = self.iterations_per_second(p);
            let capacity = step_time * ips;
            if remaining >= capacity {
                emit(trace, p, step_time);
                remaining -= capacity;
                *level = step_end;
            } else {
                let dur = remaining / ips;
                emit(trace, p, dur);
                *level += dur / ramp;
                remaining = 0.0;
            }
        }
    }

    /// Emits an idle interval of `idle_s` seconds: C-state residency
    /// punctuated by noise wake-ups, or a C0 spin when C-states are
    /// disabled. Decays the DVFS ramp level.
    fn emit_idle(
        &self,
        trace: &mut PowerTrace,
        noise: &mut NoiseProcess<StdRng>,
        level: &mut f64,
        idle_s: f64,
    ) {
        if idle_s <= 0.0 {
            return;
        }
        if self.dvfs.enabled {
            let decay = self.dvfs.mode.decay_s();
            if decay.is_finite() && decay > 0.0 {
                *level = (*level - idle_s / decay).max(0.0);
            }
        } else {
            *level = 1.0;
        }
        let start = trace.duration_s();
        let end = start + idle_s;
        match self.cstates.select(&self.table, idle_s) {
            None => {
                // BIOS-disabled C-states: the OS "idle" process spins.
                // With DVFS enabled the idle loop drops to the deepest
                // P-state; without it, it spins at nominal P0 (§III).
                let p =
                    if self.dvfs.enabled { self.table.deepest_pstate() } else { self.table.p0() };
                // The OS "idle" process is an ordinary loop (§III
                // footnote 2): from the VRM's perspective it draws
                // like any other execution, so no modulation remains.
                let current = self.table.active_current_a(p);
                trace.push(idle_s, 0, p.index, current, p.voltage_v, ActivityKind::Idle);
            }
            Some(c) => {
                let idle_current = self.table.idle_current_a(c);
                let idle_voltage = self.table.rail_voltage_v(c, self.table.deepest_pstate());
                let p0_voltage = self.table.p0().voltage_v;
                // Exit current is modest: the core is mostly waiting
                // on PLL relock / state restore, not executing.
                let wake_current = 0.35 * self.table.active_current_a(self.table.p0());
                let mut cursor = start;
                for ev in noise.events_in(start, end) {
                    if ev.duration_s <= 0.0 {
                        continue;
                    }
                    if ev.t_s > cursor {
                        trace.push(
                            ev.t_s - cursor,
                            c.index,
                            0,
                            idle_current,
                            idle_voltage,
                            ActivityKind::Idle,
                        );
                        cursor = ev.t_s;
                    }
                    // Wake, service, re-enter idle. Service runs at P0
                    // current (interrupt handlers don't wait for DVFS).
                    trace.push(
                        c.exit_latency_s,
                        0,
                        0,
                        wake_current,
                        p0_voltage,
                        ActivityKind::Wake,
                    );
                    let kind = match ev.kind {
                        NoiseKind::Background => ActivityKind::Background,
                        _ => ActivityKind::Interrupt,
                    };
                    trace.push(
                        ev.duration_s,
                        0,
                        0,
                        self.table.active_current_a(self.table.p0()),
                        p0_voltage,
                        kind,
                    );
                    cursor += c.exit_latency_s + ev.duration_s;
                }
                if end > cursor {
                    trace.push(
                        end - cursor,
                        c.index,
                        0,
                        idle_current,
                        idle_voltage,
                        ActivityKind::Idle,
                    );
                }
                // Final wake-up back to C0 for whatever follows.
                trace.push(c.exit_latency_s, 0, 0, wake_current, p0_voltage, ActivityKind::Wake);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ActivityKind;

    fn quiet_machine() -> Machine {
        Machine { noise: NoiseConfig::silent(), ..Machine::intel_laptop() }
    }

    #[test]
    fn busy_then_sleep_produces_contrast() {
        let m = quiet_machine();
        let mut p = Program::new();
        p.busy_for(1e-3, m.nominal_ips()).sleep(1e-3);
        let trace = m.run(&p, 1);
        let work_current = trace
            .segments()
            .iter()
            .filter(|s| s.kind == ActivityKind::Work)
            .map(|s| s.current_a)
            .fold(0.0f64, f64::max);
        let idle_current = trace
            .segments()
            .iter()
            .filter(|s| s.kind == ActivityKind::Idle)
            .map(|s| s.current_a)
            .fold(f64::INFINITY, f64::min);
        assert!(work_current / idle_current > 20.0, "contrast {} / {}", work_current, idle_current);
    }

    #[test]
    fn sleep_duration_respects_timer_model() {
        let m = quiet_machine();
        let mut p = Program::new();
        p.sleep(100e-6);
        let trace = m.run(&p, 3);
        // Actual ≥ requested, and not wildly longer on Linux.
        assert!(trace.duration_s() >= 100e-6);
        assert!(trace.duration_s() < 200e-6, "slept {}", trace.duration_s());
    }

    #[test]
    fn speed_shift_ramp_appears_in_trace() {
        let m = quiet_machine();
        let mut p = Program::new();
        p.busy_for(5e-3, m.nominal_ips());
        let trace = m.run(&p, 5);
        let work: Vec<_> =
            trace.segments().iter().filter(|s| s.kind == ActivityKind::Work).collect();
        // The cold-start ramp walks the P-state staircase, then the
        // rest of the burst runs at P0.
        assert!(work.len() >= 3, "staircase expected, got {} phases", work.len());
        for w in work.windows(2) {
            assert!(w[0].pstate > w[1].pstate, "P-state must rise through the ramp");
            assert!(w[0].current_a < w[1].current_a);
        }
        assert_eq!(work.last().unwrap().pstate, 0);
        // The ramp (6 steps × 50 µs) is a small fraction of the burst.
        let p0_time: f64 = work.iter().filter(|s| s.pstate == 0).map(|s| s.duration_s).sum();
        assert!(p0_time > 4e-3, "P0 time {p0_time}");
    }

    #[test]
    fn iterations_are_conserved_across_ramp() {
        // Total executed time must satisfy: iters = Σ dur·ips(phase).
        let m = quiet_machine();
        let iters: u64 = 10_000_000;
        let mut p = Program::new();
        p.busy(iters);
        let trace = m.run(&p, 0);
        let executed: f64 = trace
            .segments()
            .iter()
            .filter(|s| s.kind == ActivityKind::Work)
            .map(|s| {
                let pstate = m.table.pstates[s.pstate as usize];
                s.duration_s * m.iterations_per_second(pstate)
            })
            .sum();
        assert!((executed - iters as f64).abs() / (iters as f64) < 1e-6);
    }

    #[test]
    fn disabled_cstates_spin_instead_of_idling() {
        let m = Machine {
            noise: NoiseConfig::silent(),
            cstates: CStatePolicy::disabled(),
            ..Machine::intel_laptop()
        };
        let mut p = Program::new();
        p.sleep(1e-3);
        let trace = m.run(&p, 2);
        assert!(trace.segments().iter().all(|s| s.cstate == 0));
        // Spinning draws real current even though "idle".
        assert!(trace.mean_current_a() > 1.0);
    }

    #[test]
    fn both_disabled_removes_all_contrast() {
        let m = Machine {
            noise: NoiseConfig::silent(),
            cstates: CStatePolicy::disabled(),
            dvfs: DvfsPolicy::disabled(),
            ..Machine::intel_laptop()
        };
        let mut p = Program::new();
        p.busy_for(1e-3, m.nominal_ips()).sleep(1e-3);
        let trace = m.run(&p, 2);
        let min = trace.segments().iter().map(|s| s.current_a).fold(f64::INFINITY, f64::min);
        let max = trace.segments().iter().map(|s| s.current_a).fold(0.0f64, f64::max);
        assert!(max / min < 1.2, "no contrast expected: {min}..{max}");
    }

    #[test]
    fn only_cstates_disabled_keeps_contrast_via_pstates() {
        let m = Machine {
            noise: NoiseConfig::silent(),
            cstates: CStatePolicy::disabled(),
            dvfs: DvfsPolicy::speed_shift(),
            ..Machine::intel_laptop()
        };
        let mut p = Program::new();
        p.busy_for(5e-3, m.nominal_ips()).sleep(5e-3);
        let trace = m.run(&p, 2);
        let min = trace.segments().iter().map(|s| s.current_a).fold(f64::INFINITY, f64::min);
        let max = trace.segments().iter().map(|s| s.current_a).fold(0.0f64, f64::max);
        assert!(max / min > 2.0, "P-state contrast expected: {min}..{max}");
    }

    #[test]
    fn noise_inserts_interrupt_segments_into_idle() {
        let m = Machine { noise: NoiseConfig::normal(), ..Machine::intel_laptop() };
        let p = Program::idle(0.5, 0.1);
        let trace = m.run(&p, 11);
        let interrupts =
            trace.segments().iter().filter(|s| s.kind == ActivityKind::Interrupt).count();
        // 150 Hz for 0.5 s ⇒ ~75 short interrupts (Poisson).
        assert!(interrupts > 30, "only {interrupts} interrupts");
    }

    #[test]
    fn run_events_places_bursts_at_requested_times() {
        let m = quiet_machine();
        let events = [
            ExternalEvent { t_s: 0.10, duration_s: 40e-3, kind: ActivityKind::Work },
            ExternalEvent { t_s: 0.30, duration_s: 40e-3, kind: ActivityKind::Work },
        ];
        let trace = m.run_events(0.5, &events, 9);
        let bursts = trace.work_burst_times();
        assert_eq!(bursts.len(), 2);
        assert!((bursts[0] - 0.10).abs() < 2e-3, "burst at {}", bursts[0]);
        assert!((bursts[1] - 0.30).abs() < 2e-3, "burst at {}", bursts[1]);
        assert!(trace.duration_s() >= 0.5);
    }

    fn quiet_machine_with(dvfs: DvfsPolicy) -> Machine {
        Machine { noise: NoiseConfig::silent(), dvfs, ..Machine::intel_laptop() }
    }

    #[test]
    fn fixed_mode_pins_the_pstate() {
        let m = quiet_machine_with(DvfsPolicy { enabled: true, mode: PStateMode::Fixed(3) });
        let p = Program::alternating(2e-3, 500e-6, 4, m.nominal_ips());
        let trace = m.run(&p, 4);
        let work: Vec<_> =
            trace.segments().iter().filter(|s| s.kind == ActivityKind::Work).collect();
        assert_eq!(work.len(), 4, "one segment per burst, no ramp");
        assert!(work.iter().all(|s| s.pstate == 3));
    }

    #[test]
    fn short_bursts_never_reach_p0_under_os_dvfs() {
        let reaches_p0 = |dvfs| {
            let m = quiet_machine_with(dvfs);
            let mut p = Program::new();
            p.busy_for(1e-3, m.nominal_ips());
            let trace = m.run(&p, 6);
            trace.segments().iter().any(|s| s.kind == ActivityKind::Work && s.pstate == 0)
        };
        assert!(!reaches_p0(DvfsPolicy::os_driven()));
        assert!(reaches_p0(DvfsPolicy::speed_shift()));
    }

    #[test]
    fn ramp_level_holds_across_short_idles_and_decays_over_long_ones() {
        let m = quiet_machine_with(DvfsPolicy::speed_shift());
        let ips = m.nominal_ips();
        let mut p = Program::new();
        p.busy_for(2e-3, ips).sleep(100e-6).busy_for(100e-6, ips);
        p.sleep(50e-3).busy_for(100e-6, ips);
        let trace = m.run(&p, 8);
        let starts: Vec<u8> =
            trace.work_burst_times().iter().map(|&t| trace.segment_at(t).unwrap().pstate).collect();
        let deepest = m.table.deepest_pstate().index;
        assert_eq!(starts.len(), 3, "burst starts {starts:?}");
        assert_eq!(starts[0], deepest, "a cold burst starts at the deepest P-state");
        assert!(starts[1] <= 1, "a 100 µs sleep keeps the ramp: {starts:?}");
        assert_eq!(starts[2], deepest, "a 50 ms idle decays the ramp: {starts:?}");
    }

    #[test]
    fn run_is_deterministic_per_seed() {
        let m = Machine::intel_laptop();
        let p = Program::alternating(200e-6, 200e-6, 20, m.nominal_ips());
        assert_eq!(m.run(&p, 77), m.run(&p, 77));
        assert_ne!(m.run(&p, 77), m.run(&p, 78));
    }
}
