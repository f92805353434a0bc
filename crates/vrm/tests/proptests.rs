//! Property-based tests for the buck converter.

use emsc_pmu::trace::{ActivityKind, PowerTrace};
use emsc_vrm::buck::{Buck, BuckConfig, PeriodRandomization};
use emsc_vrm::vid::VidTable;
use proptest::prelude::*;

fn load_trace() -> impl Strategy<Value = PowerTrace> {
    prop::collection::vec((0.01f64..10.0, 1e-5f64..5e-4), 1..12).prop_map(|segments| {
        let mut t = PowerTrace::new();
        for (current, dur) in segments {
            t.push(dur, 0, 0, current, 1.1, ActivityKind::Work);
        }
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn charge_is_conserved_within_tolerance(trace in load_trace(), f_sw in 3e5f64..1.2e6) {
        let buck = Buck::new(BuckConfig::laptop(f_sw));
        let train = buck.convert(&trace);
        let drawn: f64 = trace
            .segments()
            .iter()
            .map(|s| s.current_a * s.duration_s)
            .sum();
        let delivered = train.total_charge_c();
        // Delivered charge never exceeds drawn (deficit can remain in
        // the capacitor) and tracks it within one firing threshold.
        prop_assert!(delivered <= drawn + 1e-12);
        prop_assert!(drawn - delivered <= buck.config().fire_threshold_c() + 1e-12);
    }

    #[test]
    fn pulses_are_ordered_and_bounded(
        trace in load_trace(),
        f_sw in 3e5f64..1.2e6,
        randomize in any::<bool>(),
        spread in 0.0f64..0.999,
        seed in any::<u64>(),
    ) {
        let randomization = randomize.then_some(PeriodRandomization { spread, seed });
        let buck = Buck::new(BuckConfig { randomization, ..BuckConfig::laptop(f_sw) });
        let train = buck.convert(&trace);
        let cap = buck.config().max_pulse_charge_c;
        let mut last = -1.0;
        for p in &train.pulses {
            prop_assert!(p.t_s > last);
            prop_assert!(p.charge_c > 0.0 && p.charge_c <= cap + 1e-15);
            prop_assert!(p.t_s <= trace.duration_s() + 1e-9);
            last = p.t_s;
        }
    }

    #[test]
    fn firing_fraction_increases_with_load(f_sw in 4e5f64..1.2e6, base in 0.05f64..0.5) {
        let mk = |current: f64| {
            let mut t = PowerTrace::new();
            t.push(2e-3, 0, 0, current, 1.1, ActivityKind::Work);
            Buck::new(BuckConfig::laptop(f_sw)).convert(&t).firing_fraction()
        };
        let light = mk(base);
        let heavy = mk(base * 20.0);
        prop_assert!(heavy >= light, "light {} heavy {}", light, heavy);
    }

    #[test]
    fn vid_quantize_stays_on_grid(v in -1.0f64..3.0) {
        let t = VidTable::vrd11();
        let q = t.quantize(v);
        prop_assert!(q >= t.min_v - 1e-12 && q <= t.max_v + 1e-12);
        let steps = (q - t.min_v) / t.step_v;
        prop_assert!((steps - steps.round()).abs() < 1e-6);
        prop_assert_eq!(t.quantize(q), q);
    }
}
