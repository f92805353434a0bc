//! Multi-core composition: several cores sharing one voltage rail.
//!
//! The paper's laptops are multi-core parts with a single core-rail
//! VRM: the regulator sees the *sum* of all cores' currents, and the
//! rail voltage follows the most demanding core (shared voltage
//! plane). This matters for the §IV-C2 stress experiment — a
//! background hog runs on *another* core, concurrently with the
//! transmitter, not time-sliced into its sleep slots.

use crate::sim::Machine;
use crate::trace::{ActivityKind, PowerTrace};
use crate::workload::Program;

/// A package of identical cores on one shared rail.
#[derive(Debug, Clone)]
pub struct MultiCoreMachine {
    /// Per-core behaviour (power tables, governors, timers, noise).
    pub core: Machine,
    /// Number of cores.
    pub cores: usize,
}

impl MultiCoreMachine {
    /// Creates a package of `cores` identical cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(core: Machine, cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        MultiCoreMachine { core, cores }
    }

    /// Runs one program per core (missing entries idle) and returns
    /// the combined rail trace. Each core gets an independent noise
    /// stream derived from `seed`.
    pub fn run(&self, programs: &[Program], seed: u64) -> PowerTrace {
        assert!(
            programs.len() <= self.cores,
            "more programs than cores ({} > {})",
            programs.len(),
            self.cores
        );
        let mut traces: Vec<PowerTrace> = programs
            .iter()
            .enumerate()
            .map(|(c, p)| self.core.run(p, seed ^ ((c as u64 + 1) << 40)))
            .collect();
        let horizon = traces.iter().map(PowerTrace::duration_s).fold(0.0, f64::max);
        // Idle cores park in the deepest C-state for the whole run.
        let deep = self.core.table.cstates.last().copied();
        for _ in programs.len()..self.cores {
            let mut t = PowerTrace::new();
            if let Some(c) = deep {
                t.push(
                    horizon,
                    c.index,
                    0,
                    self.core.table.idle_current_a(c),
                    self.core.table.retention_voltage_v,
                    ActivityKind::Idle,
                );
            }
            traces.push(t);
        }
        combine_traces(&traces, deep.map(|c| self.core.table.idle_current_a(c)).unwrap_or(0.0))
    }
}

/// Sums per-core traces into one rail trace: current adds, voltage is
/// the maximum requested (shared plane), C-state is the shallowest,
/// and the activity label prefers `Work` over overhead over idle.
/// Cores whose trace ends early contribute `tail_current_a` after
/// their end (parked).
pub fn combine_traces(traces: &[PowerTrace], tail_current_a: f64) -> PowerTrace {
    let mut boundaries: Vec<f64> = Vec::new();
    for t in traces {
        for s in t.segments() {
            boundaries.push(s.start_s);
            boundaries.push(s.end_s());
        }
    }
    boundaries.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    boundaries.dedup_by(|a, b| (*a - *b).abs() < 1e-12);

    let mut out = PowerTrace::new();
    for w in boundaries.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        if hi - lo <= 0.0 {
            continue;
        }
        let mid = (lo + hi) / 2.0;
        let mut current = 0.0;
        let mut voltage: f64 = 0.0;
        let mut cstate = u8::MAX;
        let mut pstate = 0u8;
        let mut kind = ActivityKind::Idle;
        for t in traces {
            match t.segment_at(mid) {
                Some(s) => {
                    current += s.current_a;
                    if s.voltage_v > voltage {
                        voltage = s.voltage_v;
                        pstate = s.pstate;
                    }
                    cstate = cstate.min(s.cstate);
                    kind = prefer(kind, s.kind);
                }
                None => current += tail_current_a,
            }
        }
        out.push(
            hi - lo,
            if cstate == u8::MAX { 0 } else { cstate },
            pstate,
            current,
            voltage.max(1e-3),
            kind,
        );
    }
    out
}

/// Label priority when cores disagree: the program under test wins,
/// then overhead activity, then idle.
fn prefer(a: ActivityKind, b: ActivityKind) -> ActivityKind {
    use ActivityKind::*;
    let rank = |k: ActivityKind| match k {
        Work => 4,
        Background => 3,
        Interrupt => 2,
        Wake => 1,
        Idle => 0,
    };
    if rank(b) > rank(a) {
        b
    } else {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::NoiseConfig;

    fn quiet_core() -> Machine {
        Machine { noise: NoiseConfig::silent(), ..Machine::intel_laptop() }
    }

    #[test]
    fn currents_add_across_cores() {
        let core = quiet_core();
        let pkg = MultiCoreMachine::new(core.clone(), 2);
        let mut busy = Program::new();
        busy.busy_for(2e-3, core.steady_state_ips());
        // Both cores run the same busy program: rail current roughly
        // doubles a single-core run's mean.
        let single = core.run(&busy, 3);
        let dual = pkg.run(&[busy.clone(), busy.clone()], 3);
        let ratio = dual.mean_current_a() / single.mean_current_a();
        assert!((ratio - 2.0).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn idle_cores_contribute_only_parked_current() {
        let core = quiet_core();
        let pkg = MultiCoreMachine::new(core.clone(), 4);
        let mut busy = Program::new();
        busy.busy_for(2e-3, core.steady_state_ips());
        let one_of_four = pkg.run(&[busy.clone()], 3);
        let single = core.run(&busy, 3);
        // 3 parked cores at 0.04 A each.
        let delta = one_of_four.mean_current_a() - single.mean_current_a();
        assert!((delta - 3.0 * 0.04).abs() < 0.02, "delta {delta}");
    }

    #[test]
    fn rail_voltage_follows_the_most_demanding_core() {
        let core = quiet_core();
        let pkg = MultiCoreMachine::new(core.clone(), 2);
        let mut busy = Program::new();
        busy.busy_for(5e-3, core.steady_state_ips());
        let mut sleepy = Program::new();
        sleepy.sleep(5e-3);
        let trace = pkg.run(&[busy, sleepy], 3);
        // While one core is at P0, the rail voltage must be P0's.
        let p0_v = core.table.p0().voltage_v;
        let at_work = trace.segment_at(2e-3).expect("mid-trace segment");
        assert!((at_work.voltage_v - p0_v).abs() < 0.2, "rail {}", at_work.voltage_v);
    }

    #[test]
    fn combined_trace_is_contiguous() {
        let core = quiet_core();
        let pkg = MultiCoreMachine::new(core.clone(), 3);
        let a = Program::alternating(300e-6, 300e-6, 10, core.steady_state_ips());
        let mut b = Program::new();
        b.sleep(2e-3);
        b.busy_for(1e-3, core.steady_state_ips());
        let trace = pkg.run(&[a, b], 5);
        let mut t = 0.0;
        for s in trace.segments() {
            assert!((s.start_s - t).abs() < 1e-9);
            assert!(s.duration_s > 0.0);
            t = s.end_s();
        }
    }

    #[test]
    fn work_label_survives_concurrent_background() {
        let core = quiet_core();
        let pkg = MultiCoreMachine::new(core.clone(), 2);
        let mut work = Program::new();
        work.busy_for(1e-3, core.steady_state_ips());
        let mut hog = Program::new();
        hog.busy_for(1e-3, core.steady_state_ips());
        let trace = pkg.run(&[work, hog], 7);
        // Both run Work programs; combined label is Work throughout the overlap.
        assert!(trace
            .segments()
            .iter()
            .any(|s| s.kind == ActivityKind::Work && s.current_a > 10.0));
    }

    #[test]
    #[should_panic(expected = "more programs")]
    fn too_many_programs_panics() {
        let pkg = MultiCoreMachine::new(quiet_core(), 1);
        pkg.run(&[Program::new(), Program::new()], 0);
    }
}
