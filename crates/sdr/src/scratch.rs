//! Reusable buffer arena for allocation-free steady-state DSP.
//!
//! Every hot kernel in this crate has an `_into(&mut out, &mut
//! scratch)` variant that writes its result into a caller-owned buffer
//! and borrows its temporaries from a [`DspScratch`]. A streaming
//! consumer allocates one scratch up front, threads it through every
//! kernel call, and the per-chunk steady state performs no heap
//! allocation at all (pinned by `tests/tests/alloc.rs`).
//!
//! # Contract
//!
//! - **Lanes are clobbered.** A kernel may overwrite any lane it
//!   documents using; lane contents are unspecified between kernel
//!   calls. Never stash data in a lane across a kernel call.
//! - **Capacity is monotone.** Kernels only grow lanes (via
//!   `clear` + `resize`/`extend`), so after a warm-up call with the
//!   largest input, subsequent same-sized calls are allocation-free.
//! - **No aliasing with outputs.** `out` buffers passed to `_into`
//!   kernels must be distinct from the scratch (guaranteed by the
//!   borrow checker — the scratch owns its lanes).
//! - **Exact-vs-fast dispatch is unaffected.** Scratch variants are
//!   bit-identical to their allocating wrappers: the wrapper is a thin
//!   `let mut out = Vec::new(); kernel_into(.., &mut out, ..); out`.
//!
//! The arena is deliberately dumb: four named lanes, two complex and
//! two real, enough for the deepest kernel nesting in the receive
//! chain (the blocked sliding DFT over a sanitised chunk copy, and the
//! matched filter's response beside a quantile sort). Each kernel
//! documents which lanes it uses so callers composing kernels by hand
//! can check for collisions statically.

use crate::iq::Complex;

/// Reusable scratch lanes for the `_into` kernel variants.
///
/// See the [module docs](self) for the ownership and reuse rules.
#[derive(Debug, Default, Clone)]
pub struct DspScratch {
    /// First complex lane (the sliding DFT's copies from its ring: the
    /// samples the run in progress still evicts, and the window of a
    /// refresh that reaches back across the chunk edge).
    pub c0: Vec<Complex>,
    /// Second complex lane (the energy stream's sanitised chunk copy).
    pub c1: Vec<Complex>,
    /// First real lane (prefix sums, magnitudes, sort buffers).
    pub f0: Vec<f64>,
    /// Second real lane (secondary reductions).
    pub f1: Vec<f64>,
}

impl DspScratch {
    /// An empty scratch; lanes grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Clears `buf` and resizes it to `n` zeros without shrinking its
/// capacity. The standard warm-up-then-steady-state idiom used by
/// every `_into` kernel.
pub(crate) fn reset_f64(buf: &mut Vec<f64>, n: usize) {
    buf.clear();
    buf.resize(n, 0.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_keeps_capacity() {
        let mut v = Vec::with_capacity(64);
        reset_f64(&mut v, 64);
        let cap = v.capacity();
        reset_f64(&mut v, 16);
        assert_eq!(v.len(), 16);
        assert_eq!(v.capacity(), cap);
    }
}
