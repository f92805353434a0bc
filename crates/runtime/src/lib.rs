//! Deterministic parallel execution runtime for the experiment grids.
//!
//! The paper's evaluation is a grid of *independent* captures — Table
//! II is 6 laptops × 5 runs, Table III a distance sweep, Table IV
//! chunked keylog captures — and the DSP chain itself splits into
//! independent time chunks. This crate provides the one primitive all
//! of those need: an order-preserving [`par_map`] over independent
//! work items, executed on a fixed-size pool of scoped threads.
//!
//! # Determinism
//!
//! Results are **bit-identical regardless of thread count and
//! scheduling order**, because the design pushes all nondeterminism
//! out of the runtime:
//!
//! - every work item's inputs (including its RNG seed, derived with
//!   [`seed_for`] *before* dispatch) are fixed at submission time;
//! - workers only decide *when* an item runs, never *what* it
//!   computes, and items never share mutable state;
//! - results are stitched back in submission order, so reductions
//!   downstream see the same operand order as a serial loop.
//!
//! The worker count comes from the `EMSC_THREADS` environment
//! variable when set, otherwise from [`std::thread::available_parallelism`];
//! [`with_threads`] overrides it for a scope (used by the determinism
//! tests to compare 1-worker and N-worker runs).
//!
//! Nested [`par_map`] calls — an experiment fanning out cells whose
//! chain internally fans out synthesis chunks — run serially inside
//! worker threads instead of spawning a second level of threads, so
//! the pool never oversubscribes the machine.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

thread_local! {
    /// Scoped override installed by [`with_threads`].
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set inside pool workers so nested `par_map`s degrade to serial.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Derives the seed for cell `cell_index` of a grid keyed by
/// `base_seed`, using a SplitMix64-style avalanche so neighbouring
/// cells get statistically independent streams.
///
/// The derivation is a pure function of `(base_seed, cell_index)` —
/// never of scheduling — which is what makes parallel experiment runs
/// reproducible: a cell's RNG stream is fixed the moment the grid is
/// laid out.
///
/// # Examples
///
/// ```
/// use emsc_runtime::seed_for;
/// // Stable across runs, platforms and thread counts:
/// assert_eq!(seed_for(2020, 0), seed_for(2020, 0));
/// assert_ne!(seed_for(2020, 0), seed_for(2020, 1));
/// assert_ne!(seed_for(2020, 1), seed_for(2021, 1));
/// ```
#[inline]
pub fn seed_for(base_seed: u64, cell_index: u64) -> u64 {
    let mut z = base_seed
        .rotate_left(17)
        .wrapping_add(cell_index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The worker count [`par_map`] will use right now: the innermost
/// [`with_threads`] override, else `EMSC_THREADS`, else the machine's
/// available parallelism. Always at least 1. Inside a pool worker this
/// returns 1 (nested maps run serially).
pub fn current_threads() -> usize {
    if IN_WORKER.with(|w| w.get()) {
        return 1;
    }
    if let Some(n) = THREAD_OVERRIDE.with(|o| o.get()) {
        return n.max(1);
    }
    if let Ok(v) = std::env::var("EMSC_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Runs `f` with [`par_map`] forced to use `threads` workers inside
/// the closure (on this thread). Used by tests to verify 1-vs-N
/// determinism, and by benchmarks to measure the serial baseline.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    THREAD_OVERRIDE.with(|o| {
        let prev = o.replace(Some(threads));
        // Restore on unwind too, so a panicking experiment doesn't
        // leak the override into later tests on the same thread.
        struct Restore<'a>(&'a Cell<Option<usize>>, Option<usize>);
        impl Drop for Restore<'_> {
            fn drop(&mut self) {
                self.0.set(self.1);
            }
        }
        let _restore = Restore(o, prev);
        f()
    })
}

/// Maps `f` over `items` on the worker pool, returning results in
/// input order.
///
/// Work is distributed by an atomic cursor (fast items don't wait for
/// slow neighbours), but the output vector is assembled by item index,
/// so the result is the same `Vec` a serial `items.iter().map(f)`
/// would produce — bit-identical, for any thread count.
///
/// Panics in `f` propagate (the first panicking item aborts the map).
///
/// # Examples
///
/// ```
/// use emsc_runtime::{par_map, with_threads};
/// let items: Vec<u64> = (0..100).collect();
/// let serial = with_threads(1, || par_map(&items, |&x| x * x));
/// let parallel = with_threads(8, || par_map(&items, |&x| x * x));
/// assert_eq!(serial, parallel);
/// ```
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let threads = current_threads().min(n);
    if threads <= 1 {
        return items.iter().map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let tx = tx.clone();
                let cursor = &cursor;
                let f = &f;
                scope.spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        // A send only fails if the receiver is gone,
                        // which cannot happen while the scope holds
                        // `rx` alive.
                        let _ = tx.send((i, f(&items[i])));
                    }
                })
            })
            .collect();
        // Join explicitly so a worker panic re-raises with its
        // original payload instead of the scope's generic message.
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    drop(tx);

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in rx {
        slots[i] = Some(r);
    }
    slots.into_iter().map(|s| s.expect("par_map worker dropped an item")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = with_threads(7, || par_map(&items, |&x| x * 3));
        assert_eq!(out, items.iter().map(|&x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn one_worker_equals_many_workers() {
        let items: Vec<u64> = (0..257).collect();
        // A float reduction whose result depends on operand order —
        // the kind of computation that exposes scheduling leaks.
        let work = |&x: &u64| -> f64 {
            let mut acc = 0.0f64;
            for k in 0..100 {
                acc += ((x * 31 + k) as f64).sqrt() * 1e-3;
            }
            acc
        };
        let serial = with_threads(1, || par_map(&items, work));
        for threads in [2, 3, 8] {
            let parallel = with_threads(threads, || par_map(&items, work));
            assert!(
                serial.iter().zip(&parallel).all(|(a, b)| a.to_bits() == b.to_bits()),
                "results differ at {threads} threads"
            );
        }
    }

    #[test]
    fn empty_and_single_item_maps() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[41], |&x| x + 1), vec![42]);
    }

    #[test]
    fn nested_par_map_runs_serially_in_workers() {
        let outer: Vec<u64> = (0..8).collect();
        let result = with_threads(4, || {
            par_map(&outer, |&x| {
                assert_eq!(current_threads(), 1, "nested map must be serial");
                let inner: Vec<u64> = (0..10).collect();
                par_map(&inner, |&y| x * 100 + y).iter().sum::<u64>()
            })
        });
        let expect: Vec<u64> = outer.iter().map(|&x| (0..10).map(|y| x * 100 + y).sum()).collect();
        assert_eq!(result, expect);
    }

    #[test]
    fn with_threads_restores_on_exit() {
        let before = current_threads();
        with_threads(3, || assert_eq!(current_threads(), 3));
        assert_eq!(current_threads(), before);
    }

    #[test]
    fn with_threads_restores_on_panic() {
        let before = current_threads();
        let _ = std::panic::catch_unwind(|| with_threads(5, || panic!("boom")));
        assert_eq!(current_threads(), before);
    }

    #[test]
    fn all_items_run_exactly_once() {
        let counter = AtomicU64::new(0);
        let items: Vec<u64> = (0..500).collect();
        let out = with_threads(6, || {
            par_map(&items, |&x| {
                counter.fetch_add(1, Ordering::Relaxed);
                x
            })
        });
        assert_eq!(counter.load(Ordering::Relaxed), 500);
        assert_eq!(out.len(), 500);
    }

    #[test]
    fn seed_for_is_stable_and_spread() {
        // Pinned values: a change here breaks reproducibility of every
        // recorded experiment, so it must be deliberate.
        assert_eq!(seed_for(2020, 0), seed_for(2020, 0));
        let seeds: Vec<u64> = (0..64).map(|i| seed_for(2020, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "collision in seed_for");
        // Avalanche: flipping the base flips ~half the bits on average.
        let flips: u32 =
            (0..64u64).map(|i| (seed_for(2020, i) ^ seed_for(2021, i)).count_ones()).sum();
        let mean = flips as f64 / 64.0;
        assert!((20.0..44.0).contains(&mean), "weak avalanche: {mean} bits");
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..32).collect();
        with_threads(4, || {
            par_map(&items, |&x| {
                if x == 17 {
                    panic!("deliberate");
                }
                x
            })
        });
    }
}
