//! Property-based tests for the power-management simulator.

use emsc_pmu::noise::NoiseConfig;
use emsc_pmu::sim::Machine;
use emsc_pmu::timer::SleepModel;
use emsc_pmu::workload::{Op, Program};
use proptest::prelude::*;

fn small_program() -> impl Strategy<Value = Program> {
    prop::collection::vec(
        prop_oneof![
            (1u64..3_000_000).prop_map(|iterations| Op::Busy { iterations }),
            (1e-6f64..2e-3).prop_map(|duration_s| Op::Sleep { duration_s }),
        ],
        1..12,
    )
    .prop_map(|ops| ops.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn traces_are_contiguous_and_positive(program in small_program(), seed in any::<u64>()) {
        let machine = Machine::intel_laptop();
        let trace = machine.run(&program, seed);
        let mut t = 0.0;
        for s in trace.segments() {
            prop_assert!((s.start_s - t).abs() < 1e-9, "gap at {}", s.start_s);
            prop_assert!(s.duration_s > 0.0);
            prop_assert!(s.current_a >= 0.0);
            prop_assert!(s.voltage_v >= 0.0);
            t = s.end_s();
        }
    }

    #[test]
    fn trace_lasts_at_least_the_nominal_program(program in small_program(), seed in any::<u64>()) {
        // Sleeps are never shortened and busy work must execute, so
        // the trace can't be shorter than the nominal duration.
        let machine = Machine { noise: NoiseConfig::silent(), ..Machine::intel_laptop() };
        let nominal = program.nominal_duration_s(machine.nominal_ips());
        let trace = machine.run(&program, seed);
        prop_assert!(trace.duration_s() >= nominal - 1e-9);
    }

    #[test]
    fn busy_iterations_are_conserved(iters in 1u64..20_000_000, seed in any::<u64>()) {
        let machine = Machine { noise: NoiseConfig::silent(), ..Machine::intel_laptop() };
        let mut p = Program::new();
        p.busy(iters);
        let trace = machine.run(&p, seed);
        let executed: f64 = trace
            .segments()
            .iter()
            .filter(|s| s.cstate == 0)
            .map(|s| {
                let pstate = machine.table.pstates[s.pstate as usize];
                s.duration_s * machine.iterations_per_second(pstate)
            })
            .sum();
        prop_assert!((executed - iters as f64).abs() / (iters as f64) < 1e-6);
    }

    #[test]
    fn same_seed_same_trace(program in small_program(), seed in any::<u64>()) {
        let machine = Machine::intel_laptop();
        prop_assert_eq!(machine.run(&program, seed), machine.run(&program, seed));
    }

    #[test]
    fn sleeps_never_shrink(req in 0.0f64..0.01, seed in any::<u64>()) {
        for model in [SleepModel::LinuxUsleep, SleepModel::MacosUsleep, SleepModel::WindowsSleep] {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let actual = model.actual_sleep(req, &mut rng);
            prop_assert!(actual >= req);
        }
    }

    #[test]
    fn disabled_everything_is_flat(program in small_program(), seed in any::<u64>()) {
        use emsc_pmu::governor::{CStatePolicy, DvfsPolicy};
        let machine = Machine { noise: NoiseConfig::silent(), cstates: CStatePolicy::disabled(), dvfs: DvfsPolicy::disabled(), ..Machine::intel_laptop() };
        let trace = machine.run(&program, seed);
        if !trace.segments().is_empty() {
            let min = trace.segments().iter().map(|s| s.current_a).fold(f64::INFINITY, f64::min);
            let max = trace.segments().iter().map(|s| s.current_a).fold(0.0f64, f64::max);
            prop_assert!(max / min < 1.2, "contrast {} remains", max / min);
        }
    }
}
