//! The covert-channel transmitter (the paper's Fig. 3).
//!
//! For each bit: a `1` is a busy loop of `LOOP_PERIOD` iterations
//! followed by `usleep(SLEEP_PERIOD)` (return-to-zero coding); a `0`
//! is `usleep(SLEEP_PERIOD × 2)` alone. None of this needs elevated
//! privileges — it is an ordinary user-level program, which is the
//! whole point of the threat model.
//!
//! Even a `0` bit produces a brief burst of activity at its start: the
//! "execution of the library and system code that implements the
//! actual call to usleep and its house-keeping activity" (§IV-A),
//! which is what gives the receiver an edge to synchronise on
//! (Fig. 4, first bullet).

use emsc_pmu::sim::Machine;
use emsc_pmu::workload::Program;

use crate::frame::{frame_payload, FrameConfig};

/// Transmitter timing parameters (the Fig. 3 knobs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TxConfig {
    /// Busy-loop iterations encoding a `1` (LOOP_PERIOD).
    pub loop_iterations: u64,
    /// Sleep request per bit, seconds (SLEEP_PERIOD).
    pub sleep_period_s: f64,
    /// Iterations of unavoidable per-bit housekeeping (file read,
    /// usleep entry/exit) executed at the start of *every* bit.
    pub overhead_iterations: u64,
    /// Framing (sync/marker/parity).
    pub frame: FrameConfig,
}

impl TxConfig {
    /// UNIX-style transmitter: SLEEP_PERIOD = 100 µs (§IV-C1) with
    /// LOOP_PERIOD sized so active and idle phases are roughly equal
    /// on a ~3 GHz machine.
    pub fn unix_default() -> Self {
        TxConfig {
            loop_iterations: 300_000, // ≈100 µs at 3 GHz
            sleep_period_s: 100e-6,
            overhead_iterations: 24_000, // ≈8 µs of syscall/libc work
            frame: FrameConfig::default(),
        }
    }

    /// Calibrates a transmitter for a concrete machine, the way the
    /// paper's authors tuned LOOP_PERIOD per laptop: the busy phase is
    /// sized by *measured* duration (which depends on the DVFS
    /// governor — short bursts may never reach P0), not by nominal
    /// instruction rates. `overhead_s` is the per-bit housekeeping
    /// cost (Windows' `Sleep` + APC path is several times heavier than
    /// a Linux `usleep`).
    pub fn calibrated(
        machine: &Machine,
        active_s: f64,
        sleep_period_s: f64,
        overhead_s: f64,
    ) -> Self {
        TxConfig {
            loop_iterations: machine.iterations_for_duration(active_s),
            sleep_period_s,
            overhead_iterations: machine.iterations_for_duration(overhead_s),
            frame: FrameConfig::default(),
        }
    }

    /// Nominal on-air duration of one bit (ignoring jitter): the mean
    /// of the `1` (loop + sleep) and `0` (2 × sleep) durations, given
    /// the machine's iteration rate.
    pub fn nominal_bit_period_s(&self, ips: f64) -> f64 {
        let one =
            (self.loop_iterations + self.overhead_iterations) as f64 / ips + self.sleep_period_s;
        let zero = self.overhead_iterations as f64 / ips + 2.0 * self.sleep_period_s;
        0.5 * (one + zero)
    }

    /// Expected on-air duration of one bit on a concrete machine,
    /// accounting for DVFS ramping, sleep lengthening and C-state
    /// wake latency — the prior the receiver should use.
    pub fn expected_bit_period_on(&self, machine: &Machine) -> f64 {
        let overhead = machine.burst_duration_s(self.overhead_iterations);
        let one = overhead
            + machine.burst_duration_s(self.loop_iterations)
            + machine.expected_sleep_s(self.sleep_period_s);
        let zero = overhead + machine.expected_sleep_s(self.sleep_period_s * 2.0);
        0.5 * (one + zero)
    }
}

/// The transmitter: turns payload bytes into a [`Program`] the
/// machine simulator executes.
#[derive(Debug, Clone)]
pub struct Transmitter {
    config: TxConfig,
}

impl Transmitter {
    /// Creates a transmitter.
    ///
    /// # Panics
    ///
    /// Panics if the sleep period is not positive.
    pub fn new(config: TxConfig) -> Self {
        assert!(config.sleep_period_s > 0.0, "sleep period must be positive");
        Transmitter { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TxConfig {
        &self.config
    }

    /// The framed on-air bits for a payload (what [`Transmitter::program`]
    /// will modulate) — kept accessible so experiments can compare
    /// transmitted and received bitstreams (C-INTERMEDIATE).
    pub fn on_air_bits(&self, payload: &[u8]) -> Vec<u8> {
        frame_payload(payload, self.config.frame)
    }

    /// Builds the simulated user-level program transmitting `payload`.
    pub fn program(&self, payload: &[u8]) -> Program {
        self.program_for_bits(&self.on_air_bits(payload))
    }

    /// Builds the program for a raw (already framed/coded) bit
    /// sequence — the Fig. 3 loop body, one iteration per bit.
    pub fn program_for_bits(&self, bits: &[u8]) -> Program {
        let cfg = &self.config;
        let mut p = Program::new();
        for &bit in bits {
            // Reading the next bit + usleep housekeeping: runs for
            // every bit, and is what makes the per-bit start edge.
            p.busy(cfg.overhead_iterations);
            if bit & 1 == 1 {
                p.busy(cfg.loop_iterations);
                p.sleep(cfg.sleep_period_s);
            } else {
                p.sleep(cfg.sleep_period_s * 2.0);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::ZEROS_LEN;
    use emsc_pmu::workload::Op;

    #[test]
    fn one_bit_is_busy_then_sleep() {
        let tx = Transmitter::new(TxConfig::unix_default());
        let p = tx.program_for_bits(&[1]);
        assert_eq!(p.ops().len(), 3);
        assert!(matches!(p.ops()[0], Op::Busy { iterations } if iterations == 24_000));
        assert!(matches!(p.ops()[1], Op::Busy { iterations } if iterations == 300_000));
        assert!(
            matches!(p.ops()[2], Op::Sleep { duration_s } if (duration_s - 100e-6).abs() < 1e-12)
        );
    }

    #[test]
    fn zero_bit_is_double_sleep() {
        let tx = Transmitter::new(TxConfig::unix_default());
        let p = tx.program_for_bits(&[0]);
        assert_eq!(p.ops().len(), 2);
        assert!(matches!(p.ops()[0], Op::Busy { iterations } if iterations == 24_000));
        assert!(
            matches!(p.ops()[1], Op::Sleep { duration_s } if (duration_s - 200e-6).abs() < 1e-12)
        );
    }

    #[test]
    fn program_length_scales_with_payload() {
        let tx = Transmitter::new(TxConfig::unix_default());
        let short = tx.program(b"a");
        let long = tx.program(b"abcd");
        assert!(long.ops().len() > short.ops().len());
    }

    #[test]
    fn nominal_bit_period_matches_table_ii_regime() {
        // UNIX laptops in Table II transmit at ~3–3.7 kbps.
        let unix = TxConfig::unix_default();
        let tr = 1.0 / unix.nominal_bit_period_s(3.0e9);
        assert!(tr > 2_500.0 && tr < 7_000.0, "unix nominal TR {tr}");
    }

    #[test]
    fn on_air_bits_include_framing() {
        let tx = Transmitter::new(TxConfig::unix_default());
        let bits = tx.on_air_bits(b"z");
        let cfg = tx.config().frame;
        // sync + zeros + marker + (16 length + 8 payload) bits coded
        // at rate 4/7: 24 bits → 42.
        assert_eq!(bits.len(), cfg.sync_len + ZEROS_LEN + 8 + 42);
    }

    #[test]
    #[should_panic(expected = "sleep period")]
    fn zero_sleep_period_panics() {
        let mut cfg = TxConfig::unix_default();
        cfg.sleep_period_s = 0.0;
        Transmitter::new(cfg);
    }
}
