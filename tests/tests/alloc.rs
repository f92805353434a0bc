//! Allocation-count regression test for the streaming receive chain.
//!
//! A counting global allocator watches the steady-state push path,
//! which makes this the repository's allocations-per-chunk check: once
//! the grow-only buffers have
//! warmed up, pushing chunks through the DSP front end with a
//! caller-owned output buffer must not touch the heap at all, and the
//! full covert receiver and keystroke detector may only pay the rare
//! amortised doubling of their accumulated energy/edge vectors. It
//! also records the largest single allocation, so a session registry
//! that re-buys a chunk-sized buffer on every offer shows up.
//!
//! This file holds exactly one `#[test]`: the allocation counter is
//! process-global, so a second concurrently-running test in the same
//! binary would pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use emsc_core::chain::{Chain, Setup};
use emsc_core::laptop::Laptop;
use emsc_core::{ChainStream, SessionRegistry};
use emsc_covert::rx::RxConfig;
use emsc_covert::stream::StreamingReceiver;
use emsc_keylog::{DetectorConfig, StreamingDetector};
use emsc_pmu::workload::Program;
use emsc_sdr::impair::Impairment;
use emsc_sdr::record::write_rtl_u8;
use emsc_sdr::stream::{BandEnergyStream, EnergyStream};
use emsc_sdr::window::Window;
use emsc_sdr::{Capture, Complex};
use emsc_service::{SensorSource, SpoolSource};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations so far (monotonic).
fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Bytes of the largest allocation or reallocation since the last
/// call, which starts the next window.
fn take_largest_allocation() -> usize {
    LARGEST.swap(0, Ordering::Relaxed)
}

/// On-off-keyed capture samples at the corpus tuning, with a
/// deterministic xorshift noise floor.
fn ook_samples(n: usize) -> Vec<Complex> {
    let bit_samples = 600; // 250 us at 2.4 Msps
    let mut state = 0x2020_u64;
    (0..n)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let noise = ((state & 0xFFFF) as f64 / 65535.0 - 0.5) * 0.05;
            let amp = if (i / bit_samples) % 2 == 0 { 0.5 } else { 0.02 };
            Complex::new(amp + noise, noise)
        })
        .collect()
}

/// Feeds `chunks` to `push` one at a time, returning the allocations
/// made in total and the number of chunks that made any.
fn count_chunk_allocations(
    chunks: &[&[Complex]],
    mut push: impl FnMut(&[Complex]),
) -> (usize, usize) {
    let (mut total, mut alloc_chunks) = (0, 0);
    for c in chunks {
        let b = allocations();
        push(c);
        let d = allocations() - b;
        total += d;
        alloc_chunks += usize::from(d > 0);
    }
    (total, alloc_chunks)
}

#[test]
fn steady_state_streaming_is_allocation_free() {
    let samples = ook_samples(600_000);
    let chunks: Vec<&[Complex]> = samples.chunks(16 * 1024).collect();
    let warm = chunks.len() / 2;
    let measured = chunks.len() - warm;

    // 1. The DSP-layer chain with a caller-owned, reused output
    //    buffer: strictly zero heap traffic once warmed up. This is
    //    the contract DESIGN.md §12 states for every stream: it owns
    //    its working buffers and appends through `push_into`.
    let mut es = EnergyStream::new(64, &[0, 1, 5], 24).expect("valid stream config");
    let mut out = Vec::new();
    for c in &chunks[..warm] {
        out.clear();
        es.push_into(c, &mut out);
    }
    let before = allocations();
    for c in &chunks[warm..] {
        out.clear();
        es.push_into(c, &mut out);
    }
    let es_allocs = allocations() - before;
    assert_eq!(es_allocs, 0, "EnergyStream::push_into allocated {es_allocs}x in steady state");
    // 1b. The same stream on chunks that each hold one NaN, which it
    //     runs off its own sanitised copy: that copy is reused too.
    let laced: Vec<Vec<Complex>> = chunks
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let mut c = c.to_vec();
            let at = (i * 7919) % c.len();
            c[at] = Complex::new(f64::NAN, 0.0);
            c
        })
        .collect();
    for c in &laced[..warm] {
        out.clear();
        es.push_into(c, &mut out);
    }
    let before = allocations();
    for c in &laced[warm..] {
        out.clear();
        es.push_into(c, &mut out);
    }
    let laced_allocs = allocations() - before;
    assert_eq!(es.sanitized(), laced.len(), "every laced chunk takes the sanitising path");
    assert_eq!(
        laced_allocs, 0,
        "EnergyStream::push_into allocated {laced_allocs}x in steady state on NaN-laced chunks"
    );
    let mut band = BandEnergyStream::new(8192, Window::Hann, &[6537, 1655]).expect("valid band");
    for c in &chunks[..warm] {
        out.clear();
        band.push_into(c, &mut out);
    }
    let before = allocations();
    for c in &chunks[warm..] {
        out.clear();
        band.push_into(c, &mut out);
    }
    let band_allocs = allocations() - before;
    assert_eq!(
        band_allocs, 0,
        "BandEnergyStream::push_into allocated {band_allocs}x in steady state"
    );

    // 2. The full covert receiver accumulates its decimated
    //    energy/edge history across the stream, so Vec doubling may
    //    still fire on a rare chunk; everything per-chunk (mixer,
    //    FIR, sliding DFT, smoothing, edge convolution) must be free.
    let mut rx = StreamingReceiver::new(RxConfig::new(250e3, 250e-6), 2.4e6, 250e3)
        .expect("valid receiver config");
    for c in &chunks[..warm] {
        rx.push(c);
    }
    let (total, alloc_chunks) = count_chunk_allocations(&chunks[warm..], |c| {
        rx.push(c);
    });
    assert!(
        (total as f64) < 0.25 * measured as f64,
        "streaming receiver: {total} allocations over {measured} chunks"
    );
    assert!(
        alloc_chunks * 4 <= measured,
        "{alloc_chunks}/{measured} chunks allocated — expected only rare amortised growth"
    );

    // 2b. The streaming keystroke detector: its band stream's stage-1
    //     buffers and scratch are sized at construction, so only the
    //     growing window-energy vector may allocate — by the same rule
    //     as the covert receiver.
    let mut det = StreamingDetector::new(DetectorConfig::new(970e3), 2.4e6, 1.455e6)
        .expect("valid detector config");
    for c in &chunks[..warm] {
        det.push(c);
    }
    let (total, alloc_chunks) = count_chunk_allocations(&chunks[warm..], |c| {
        det.push(c);
    });
    assert!(
        alloc_chunks * 4 <= measured,
        "keystroke detector: {alloc_chunks}/{measured} chunks allocated ({total} allocations) — \
         expected only rare amortised growth"
    );

    // 2c. The session registry around the detector: `pump` clears a
    //     slot's buffer instead of dropping it, so once warmed up an
    //     offer/pump cycle never allocates anything as large as the
    //     chunk it buffers (the detector's own rare growth is far
    //     smaller).
    let mut reg = SessionRegistry::new(7, usize::MAX);
    let id =
        reg.open_keylog(DetectorConfig::new(970e3), 2.4e6, 1.455e6).expect("valid detector config");
    let mut cycle = |c: &[Complex]| {
        reg.offer(id, c).expect("the buffer limit is unbounded");
        reg.pump();
    };
    chunks[..warm].iter().for_each(|c| cycle(c));
    take_largest_allocation();
    chunks[warm..].iter().for_each(|c| cycle(c));
    let largest = take_largest_allocation();
    let chunk_bytes = std::mem::size_of_val(chunks[0]);
    assert!(
        largest < chunk_bytes,
        "an offer/pump cycle allocated {largest} bytes; one chunk is {chunk_bytes}"
    );

    // 3. The fused TX producer: once its thread-local scratch arena
    //    has warmed up on a first run, draining a stream block by
    //    block must not touch the heap at all — the digitised block
    //    buffer is recycled and `digitize_window_into` reuses its
    //    capacity.
    let laptop = Laptop::dell_inspiron();
    let chain = Chain::new(&laptop, Setup::NearField);
    let program = Program::alternating(300e-6, 300e-6, 6, chain.machine.steady_state_ips());
    let trace = chain.machine.run(&program, 9);
    // Warm run: grows the pooled arena to this trace's size and the
    // block buffer to the block size, then recycles both.
    drop(ChainStream::new(&chain, trace.clone(), 9).into_run());
    let mut stream = ChainStream::new(&chain, trace, 9);
    let blocks = stream.blocks_total();
    let before = allocations();
    let mut drained = 0usize;
    while let Some(b) = stream.next_block() {
        std::hint::black_box(b.len());
        drained += 1;
    }
    let fused_allocs = allocations() - before;
    assert_eq!(drained, blocks);
    assert_eq!(
        fused_allocs, 0,
        "fused producer allocated {fused_allocs}x over {blocks} steady-state blocks"
    );

    // 4. The Hamming(7,4) decoder proper: it returns its nibble in a
    //    fixed array, so decoding any number of codewords in a hot
    //    loop — the inner kernel of every deframe attempt the anchor
    //    candidate chain makes — is strictly heap-free.
    let codewords: Vec<[u8; 7]> = (0..1024u32)
        .map(|i| {
            let mut cw = emsc_covert::coding::hamming74_encode(&[
                (i & 1) as u8,
                ((i >> 1) & 1) as u8,
                ((i >> 2) & 1) as u8,
                ((i >> 3) & 1) as u8,
            ]);
            cw[(i % 7) as usize] ^= (i % 3 == 0) as u8; // sprinkle correctable errors
            cw
        })
        .collect();
    let before = allocations();
    let mut corrected = 0usize;
    for cw in &codewords {
        let (nibble, fixed) = emsc_covert::coding::hamming74_decode(cw);
        std::hint::black_box(nibble);
        corrected += usize::from(fixed);
    }
    let decode_allocs = allocations() - before;
    assert!(corrected > 0, "the error sprinkle above should exercise the corrector");
    assert_eq!(decode_allocs, 0, "hamming74_decode allocated {decode_allocs}x over 1024 codewords");

    // 5. Clock drift resamples a capture in place: a fast sample clock
    //    (positive ppm, as in every severity stack) shortens it without
    //    a second capture or any other heap traffic.
    let mut capture =
        Capture { samples: ook_samples(100_000), sample_rate: 2.4e6, center_freq: 250e3 };
    let before = allocations();
    Impairment::ClockDrift { ppm: 300.0 }.apply(&mut capture, 1);
    let drift_allocs = allocations() - before;
    assert_eq!(capture.samples.len(), 99_970, "300 ppm keeps 99 970 of 100 000 samples");
    assert_eq!(drift_allocs, 0, "a positive-ppm clock drift allocated {drift_allocs}x");

    // 6. A spooled recording is held once, as bytes: a supervisor
    //    restart rewinds the spool without copying the recording or
    //    buying a read buffer.
    let mut bytes = Vec::new();
    write_rtl_u8(&capture, &mut bytes).expect("writing to a Vec cannot fail");
    let mut spool = SpoolSource::from_bytes(bytes, 2.4e6, 250e3, 32 * 1024);
    let mut chunk = Vec::new();
    spool.next_chunk(&mut chunk).expect("an in-memory spool cannot fail");
    let before = allocations();
    spool.reset().expect("an in-memory spool rewinds");
    let reset_allocs = allocations() - before;
    assert_eq!(reset_allocs, 0, "SpoolSource::reset allocated {reset_allocs}x");
}
