//! Per-sensor robustness policies: restart backoff, watchdogs and
//! rotation. Every sensor shares one restart budget
//! ([`MAX_RESTARTS`]), backoff (2, 4 and 8 ticks plus 0–3 ticks of
//! seeded jitter), watchdog (6 ticks without progress) and poison rule
//! (2 consecutive majority-non-finite chunks); the pull rate and
//! rotation vary per sensor ([`SensorPolicy`]). Backpressure is the
//! registry's: its per-session buffer bound is the one rule.
//!
//! Everything here is counted in supervisor ticks, one per
//! scheduling round, and derives any randomness (backoff
//! jitter) positionally from seeds via [`emsc_runtime::seed_for`], so
//! policy decisions replay bit-identically.

use emsc_runtime::seed_for;

/// Restarts allowed before a sensor is quarantined.
pub const MAX_RESTARTS: u32 = 3;

/// Backoff of the first restart, ticks; each later restart doubles it.
const BACKOFF_BASE_TICKS: u64 = 2;

/// Upper end of a restart's seeded jitter, ticks.
const BACKOFF_JITTER_TICKS: u64 = 3;

/// Ticks without forward progress before the watchdog declares the
/// stream dead and triggers the restart path.
pub(crate) const WATCHDOG_TICKS: u64 = 6;

/// Consecutive majority-non-finite chunks tolerated before the stream
/// is declared poisoned (observed, not assumed: the supervisor scans
/// what it delivers, it does not peek at the fault plan).
pub(crate) const MAX_CORRUPT_CHUNKS: u32 = 2;

/// Backoff delay in ticks before restart number `restart` (1 = first
/// restart): `BACKOFF_BASE_TICKS · 2^(restart − 1)`, so 2, 4 or 8
/// ticks, plus a deterministic jitter in `[0, BACKOFF_JITTER_TICKS]`
/// derived positionally from the sensor's `jitter_seed` — the classic
/// thundering-herd spreader, made replayable.
///
/// # Panics
///
/// Panics unless `restart` is in `1..=MAX_RESTARTS`.
pub(crate) fn backoff_ticks(restart: u32, jitter_seed: u64) -> u64 {
    assert!((1..=MAX_RESTARTS).contains(&restart), "restart {restart} out of range");
    let jitter = seed_for(jitter_seed, restart as u64) % (BACKOFF_JITTER_TICKS + 1);
    (BACKOFF_BASE_TICKS << (restart - 1)) + jitter
}

/// The complete robustness policy of one supervised sensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SensorPolicy {
    /// Chunks pulled from the source per supervisor tick.
    pub chunks_per_tick: usize,
    /// Rotate the session (flush its final report, open a fresh one)
    /// once it has accepted this many samples. `None` disables
    /// rotation.
    pub rotate_after_samples: Option<usize>,
}

impl Default for SensorPolicy {
    fn default() -> Self {
        SensorPolicy { chunks_per_tick: 4, rotate_after_samples: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restarts_back_off_on_the_e5_schedule() {
        // Restarts 1-3 of the ten E5 sensors (base seed 2020), as the
        // supervisor derives their jitter seeds.
        let schedule: Vec<[u64; 3]> = (0..10)
            .map(|k| {
                let seed = seed_for(2020 ^ 0x5EB0_0F5E, k);
                [1, 2, 3].map(|n| backoff_ticks(n, seed))
            })
            .collect();
        let expected = [
            [2, 6, 10],
            [3, 7, 9],
            [3, 6, 10],
            [2, 7, 10],
            [2, 7, 9],
            [2, 6, 8],
            [5, 5, 11],
            [4, 5, 11],
            [2, 6, 9],
            [5, 5, 9],
        ];
        assert_eq!(schedule, expected);
    }

    #[test]
    fn jitter_is_bounded_and_seed_deterministic() {
        for n in 1..=MAX_RESTARTS {
            let a = backoff_ticks(n, 42);
            assert_eq!(a, backoff_ticks(n, 42), "same seed, same delay");
            let base = BACKOFF_BASE_TICKS << (n - 1);
            assert!(
                (base..=base + BACKOFF_JITTER_TICKS).contains(&a),
                "jitter out of range: {a} vs base {base}"
            );
        }
        // Different sensors (seeds) de-synchronise their restarts.
        let spread: std::collections::BTreeSet<u64> =
            (0..16).map(|s| backoff_ticks(1, s)).collect();
        assert!(spread.len() > 1, "jitter never varies across seeds");
    }
}
