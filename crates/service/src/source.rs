//! Pluggable sensor sources: where a supervised session's IQ comes
//! from.
//!
//! The supervisor does not care whether a stream originates in a
//! spooled `rtl_sdr` recording, an in-process synthesis chain, or a
//! live socket — it pulls bounded chunks through the [`SensorSource`]
//! trait and feeds them to the session registry. Two implementations
//! ship here:
//!
//! - [`ReplaySource`] replays an in-memory [`Capture`] (the output of
//!   the existing scenario generators) in fixed-size chunks,
//!   optionally looping for session-rotation workloads;
//! - [`SpoolSource`] incrementally decodes a spooled `rtl_sdr`
//!   interleaved-u8 recording with [`decode_rtl_u8`], the exact wire
//!   format the paper's $25 dongle writes.
//!
//! Sources are *rewindable*: [`SensorSource::reset`] returns the
//! stream to its beginning, which is what a supervisor restart means
//! for a spooled capture (reopen the file, replay from the top).

use std::io::{self, Read};

use emsc_sdr::iq::Complex;
use emsc_sdr::record::{decode_rtl_u8, io_error_is_retryable};
use emsc_sdr::Capture;

/// Why a source failed to deliver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceError {
    /// An I/O error from the underlying reader, classified retryable
    /// or fatal by [`io_error_is_retryable`].
    Io {
        /// The failing operation's error kind.
        kind: io::ErrorKind,
    },
}

impl SourceError {
    /// Whether reopening the source is worth a try (see
    /// [`io_error_is_retryable`]).
    pub fn is_retryable(&self) -> bool {
        match self {
            SourceError::Io { kind } => io_error_is_retryable(*kind),
        }
    }
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SourceError::Io { kind } => write!(f, "source I/O error: {kind}"),
        }
    }
}

impl std::error::Error for SourceError {}

impl From<io::Error> for SourceError {
    fn from(e: io::Error) -> Self {
        SourceError::Io { kind: e.kind() }
    }
}

/// A rewindable, chunked IQ stream feeding one supervised sensor.
pub trait SensorSource {
    /// Appends the next chunk of samples to `out`, returning how many
    /// were appended. `Ok(0)` means the stream is exhausted.
    ///
    /// # Errors
    ///
    /// [`SourceError`] when the underlying reader fails; the
    /// supervisor maps retryable errors to a restart and fatal ones
    /// to quarantine.
    fn next_chunk(&mut self, out: &mut Vec<Complex>) -> Result<usize, SourceError>;

    /// Rewinds the stream to its beginning (a supervisor restart).
    ///
    /// # Errors
    ///
    /// [`SourceError`] when the source cannot be reopened.
    fn reset(&mut self) -> Result<(), SourceError>;

    /// Sample rate of the stream, Hz.
    fn sample_rate(&self) -> f64;

    /// Tuner centre frequency of the stream, Hz.
    fn center_freq(&self) -> f64;
}

/// Replays an in-memory capture in fixed-size chunks.
///
/// With `passes > 1` the capture repeats; a chunk never straddles a
/// pass boundary, so a rotation threshold equal to the capture length
/// falls exactly on a replay seam and every rotated session sees one
/// complete, bit-identical copy of the capture.
#[derive(Debug, Clone)]
pub struct ReplaySource {
    capture: Capture,
    chunk: usize,
    offset: usize,
    passes: u32,
    passes_left: u32,
}

impl ReplaySource {
    /// Replays `capture` once in `chunk`-sample pieces (`chunk` is
    /// clamped to at least 1).
    pub fn new(capture: Capture, chunk: usize) -> Self {
        Self::looping(capture, chunk, 1)
    }

    /// Replays `capture` `passes` times (`passes` clamped to at least
    /// 1) — the source shape for session-rotation workloads.
    pub fn looping(capture: Capture, chunk: usize, passes: u32) -> Self {
        let passes = passes.max(1);
        ReplaySource { capture, chunk: chunk.max(1), offset: 0, passes, passes_left: passes }
    }
}

impl SensorSource for ReplaySource {
    fn next_chunk(&mut self, out: &mut Vec<Complex>) -> Result<usize, SourceError> {
        if self.offset >= self.capture.samples.len() {
            if self.passes_left <= 1 {
                return Ok(0);
            }
            self.passes_left -= 1;
            self.offset = 0;
            if self.capture.samples.is_empty() {
                return Ok(0);
            }
        }
        let end = (self.offset + self.chunk).min(self.capture.samples.len());
        out.extend_from_slice(&self.capture.samples[self.offset..end]);
        let n = end - self.offset;
        self.offset = end;
        Ok(n)
    }

    fn reset(&mut self) -> Result<(), SourceError> {
        self.offset = 0;
        self.passes_left = self.passes;
        Ok(())
    }

    fn sample_rate(&self) -> f64 {
        self.capture.sample_rate
    }

    fn center_freq(&self) -> f64 {
        self.capture.center_freq
    }
}

/// Incrementally decodes a spooled `rtl_sdr` interleaved-u8 recording,
/// delivering bounded chunks without ever materialising the whole
/// capture. It holds the recording once, as bytes, and decodes each
/// chunk from them at a byte offset; a restart rewinds the offset.
pub struct SpoolSource {
    bytes: Vec<u8>,
    /// Byte offset of the next undelivered I/Q pair.
    offset: usize,
    sample_rate: f64,
    center_freq: f64,
    chunk: usize,
}

impl std::fmt::Debug for SpoolSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpoolSource")
            .field("bytes", &self.bytes.len())
            .field("offset", &self.offset)
            .field("sample_rate", &self.sample_rate)
            .field("center_freq", &self.center_freq)
            .field("chunk", &self.chunk)
            .finish()
    }
}

impl SpoolSource {
    /// A spool over in-memory `rtl_sdr`-format bytes, decoded in
    /// `chunk`-sample pieces. The raw format carries neither sample
    /// rate nor tuner frequency, so the caller supplies both.
    pub fn from_bytes(bytes: Vec<u8>, sample_rate: f64, center_freq: f64, chunk: usize) -> Self {
        SpoolSource { bytes, offset: 0, sample_rate, center_freq, chunk: chunk.max(1) }
    }

    /// A spool over an `rtl_sdr` recording on disk, read fully at open
    /// time (a spool is a finished recording, not a live stream).
    ///
    /// # Errors
    ///
    /// [`SourceError::Io`] with the kind of the failed open or read. A
    /// missing file, or one the process may not read, is fatal rather
    /// than retryable (see [`SourceError::is_retryable`]).
    pub fn from_file(
        path: &std::path::Path,
        sample_rate: f64,
        center_freq: f64,
        chunk: usize,
    ) -> Result<Self, SourceError> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        Ok(Self::from_bytes(bytes, sample_rate, center_freq, chunk))
    }
}

impl SensorSource for SpoolSource {
    fn next_chunk(&mut self, out: &mut Vec<Complex>) -> Result<usize, SourceError> {
        // Whole pairs only: a trailing odd byte is never a sample, as
        // in `rtl_sdr` dumps.
        let n = ((self.bytes.len() - self.offset) / 2).min(self.chunk);
        decode_rtl_u8(&self.bytes[self.offset..self.offset + 2 * n], out);
        self.offset += 2 * n;
        Ok(n)
    }

    fn reset(&mut self) -> Result<(), SourceError> {
        self.offset = 0;
        Ok(())
    }

    fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    fn center_freq(&self) -> f64 {
        self.center_freq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emsc_sdr::record::write_rtl_u8;

    fn capture(n: usize) -> Capture {
        let samples = (0..n).map(|i| Complex::from_polar(0.5, 0.01 * i as f64)).collect();
        Capture { samples, sample_rate: 2.4e6, center_freq: 1.455e6 }
    }

    fn drain(source: &mut dyn SensorSource) -> Vec<Complex> {
        let mut all = Vec::new();
        while source.next_chunk(&mut all).expect("source read") > 0 {}
        all
    }

    #[test]
    fn replay_delivers_the_capture_in_order_and_resets() {
        let cap = capture(10_000);
        let mut src = ReplaySource::new(cap.clone(), 1009);
        assert_eq!(src.sample_rate(), 2.4e6);
        let first = drain(&mut src);
        assert_eq!(first, cap.samples);
        assert_eq!(src.next_chunk(&mut Vec::new()).unwrap(), 0, "exhausted stays exhausted");
        src.reset().unwrap();
        assert_eq!(drain(&mut src), cap.samples);
    }

    #[test]
    fn looping_replay_repeats_without_straddling_the_seam() {
        let cap = capture(2500);
        let mut src = ReplaySource::looping(cap.clone(), 1000, 2);
        let mut lens = Vec::new();
        loop {
            let mut chunk = Vec::new();
            if src.next_chunk(&mut chunk).unwrap() == 0 {
                break;
            }
            lens.push(chunk.len());
        }
        // Each pass ends with its own short chunk: the seam is never
        // crossed inside one chunk.
        assert_eq!(lens, vec![1000, 1000, 500, 1000, 1000, 500]);
    }

    #[test]
    fn spool_round_trips_the_rtl_u8_recording() {
        let cap = capture(5000);
        let mut even = Vec::new();
        write_rtl_u8(&cap, &mut even).unwrap();
        let mut odd = even.clone();
        odd.push(200);
        for bytes in [even, odd] {
            let reference = emsc_sdr::record::read_rtl_u8(&bytes[..], 2.4e6, 1.455e6).unwrap();
            assert_eq!(reference.samples.len(), 5000, "the trailing odd byte is no sample");
            for chunk in [1, 7, 777] {
                let mut src = SpoolSource::from_bytes(bytes.clone(), 2.4e6, 1.455e6, chunk);
                let streamed = drain(&mut src);
                assert_eq!(streamed, reference.samples, "chunk {chunk}: spool must equal batch");
                src.reset().unwrap();
                assert_eq!(drain(&mut src), reference.samples, "chunk {chunk}: reset replays");
            }
        }
    }

    #[test]
    fn spool_chunks_are_bounded() {
        let cap = capture(5000);
        let mut bytes = Vec::new();
        write_rtl_u8(&cap, &mut bytes).unwrap();
        let mut src = SpoolSource::from_bytes(bytes, 2.4e6, 1.455e6, 512);
        let mut chunk = Vec::new();
        while src.next_chunk(&mut chunk).unwrap() > 0 {
            assert!(chunk.len() <= 512, "oversized chunk: {}", chunk.len());
            chunk.clear();
        }
    }

    #[test]
    fn missing_spool_file_is_a_fatal_source_error() {
        let err = SpoolSource::from_file(
            std::path::Path::new("/nonexistent/spool.bin"),
            2.4e6,
            0.0,
            1024,
        )
        .unwrap_err();
        assert!(!err.is_retryable(), "a missing file is not worth a retry: {err}");
    }
}
