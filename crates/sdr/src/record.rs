//! Capture recording in the RTL-SDR interleaved-u8 format.
//!
//! `rtl_sdr -f <freq> -s 2400000 out.bin` writes unsigned 8-bit I/Q
//! pairs with a 127.5 offset. Supporting that format means the whole
//! receive pipeline in this workspace runs unchanged against *real*
//! captures from the paper's $25 dongle — the simulator and the
//! hardware meet at [`Capture`].

use std::io::{self, Read, Write};

use crate::frontend::Capture;
use crate::iq::Complex;

/// The implicit DC offset of the RTL-SDR's unsigned samples.
const U8_OFFSET: f64 = 127.5;

/// Serialises a capture as interleaved unsigned 8-bit I/Q, the
/// `rtl_sdr` wire format. Samples are clamped to `[-1, 1]` full scale.
///
/// # Errors
///
/// Propagates any I/O error from the writer.
pub fn write_rtl_u8<W: Write>(capture: &Capture, mut writer: W) -> io::Result<()> {
    let mut buf = Vec::with_capacity(capture.samples.len() * 2);
    for s in &capture.samples {
        buf.push(to_u8(s.re));
        buf.push(to_u8(s.im));
    }
    writer.write_all(&buf)
}

/// Chunk size for streaming reads: big enough to amortise syscalls,
/// small enough that a multi-gigabyte capture never doubles its
/// memory footprint in an intermediate byte buffer.
const READ_CHUNK: usize = 64 * 1024;

/// Incremental decoder for an interleaved unsigned 8-bit I/Q stream
/// (the `rtl_sdr` wire format), yielding bounded chunks of samples.
///
/// This is the resumable core of [`read_rtl_u8`]: each
/// [`RtlChunkReader::next_chunk`] call performs (at most a few) bounded
/// reads and appends the decoded samples, carrying an odd trailing byte
/// across calls so I/Q pairs may straddle chunk boundaries freely. The
/// streaming receive chain feeds these chunks straight into
/// [`crate::stream::EnergyStream`] without ever materialising the
/// capture.
#[derive(Debug)]
pub struct RtlChunkReader<R> {
    reader: R,
    buf: Vec<u8>,
    /// A pair can straddle a chunk boundary: the odd byte carries over.
    pending: Option<u8>,
    done: bool,
}

impl<R: Read> RtlChunkReader<R> {
    /// Wraps a byte source in a chunked I/Q decoder.
    pub fn new(reader: R) -> Self {
        RtlChunkReader { reader, buf: vec![0; READ_CHUNK], pending: None, done: false }
    }

    /// Decodes the next chunk of samples, appending them to `out`.
    /// Returns the number of samples appended; `0` means end of
    /// stream (a trailing odd byte is ignored, as in `rtl_sdr` dumps).
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from the reader (`Interrupted` reads
    /// are retried), including errors hit after earlier chunks were
    /// already decoded.
    pub fn next_chunk(&mut self, out: &mut Vec<Complex>) -> io::Result<usize> {
        if self.done {
            return Ok(0);
        }
        let before = out.len();
        loop {
            let n = match self.reader.read(&mut self.buf) {
                Ok(0) => {
                    self.done = true;
                    return Ok(out.len() - before);
                }
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            let mut chunk = &self.buf[..n];
            if let Some(i) = self.pending.take() {
                decode_rtl_u8(&[i, chunk[0]], out);
                chunk = &chunk[1..];
            }
            decode_rtl_u8(chunk, out);
            if chunk.len() % 2 == 1 {
                self.pending = Some(chunk[chunk.len() - 1]);
            }
            // A one-byte read can complete zero samples; keep reading
            // so `0` unambiguously means end of stream.
            if out.len() > before {
                return Ok(out.len() - before);
            }
        }
    }
}

/// Decodes the whole I/Q pairs of interleaved unsigned 8-bit bytes
/// (the `rtl_sdr` wire format), appending one sample per pair to
/// `out`. A trailing odd byte is left undecoded.
pub fn decode_rtl_u8(bytes: &[u8], out: &mut Vec<Complex>) {
    out.extend(bytes.chunks_exact(2).map(|p| Complex::new(from_u8(p[0]), from_u8(p[1]))));
}

/// Reads an interleaved unsigned 8-bit I/Q stream (the `rtl_sdr` wire
/// format) into a [`Capture`]. The caller supplies the sample rate and
/// tuner frequency, which the raw format does not carry. A trailing
/// odd byte is ignored.
///
/// The stream is consumed in bounded chunks — never slurped whole — so
/// only the decoded `Vec<Complex>` itself grows with capture length,
/// and an I/O error mid-capture (a vanished USB device, a truncated
/// network read) surfaces as soon as the failing chunk is hit. For
/// incremental consumption use [`RtlChunkReader`] directly.
///
/// # Errors
///
/// Propagates any I/O error from the reader, including errors that
/// occur after some samples were already decoded.
pub fn read_rtl_u8<R: Read>(reader: R, sample_rate: f64, center_freq: f64) -> io::Result<Capture> {
    let mut chunks = RtlChunkReader::new(reader);
    let mut samples = Vec::new();
    while chunks.next_chunk(&mut samples)? > 0 {}
    Ok(Capture { samples, sample_rate, center_freq })
}

/// Classifies an I/O error from a chunked capture read
/// ([`RtlChunkReader::next_chunk`], [`read_rtl_u8`]) as retryable or
/// fatal, so a capture supervisor can apply a principled backoff
/// policy instead of treating every failure alike.
///
/// Retryable kinds are the transient, device-level failures a
/// long-running listening post sees in practice — an unplugged dongle
/// (`BrokenPipe`), a dropped USB/network transfer (`ConnectionReset`,
/// `ConnectionAborted`, `UnexpectedEof`), a slow bus (`TimedOut`,
/// `WouldBlock`, `Interrupted`): reopening the source may well
/// succeed. Everything else — a missing or unreadable spool file, bad
/// arguments, unsupported operations — is fatal: retrying cannot fix
/// it, and the session should be quarantined.
pub fn io_error_is_retryable(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::Interrupted
    )
}

fn to_u8(v: f64) -> u8 {
    (v.clamp(-1.0, 1.0) * U8_OFFSET + U8_OFFSET).round() as u8
}

fn from_u8(b: u8) -> f64 {
    (b as f64 - U8_OFFSET) / U8_OFFSET
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_capture() -> Capture {
        let samples = (0..1024).map(|n| Complex::from_polar(0.8, 0.05 * n as f64)).collect();
        Capture { samples, sample_rate: 2.4e6, center_freq: 1.455e6 }
    }

    #[test]
    fn round_trip_preserves_samples_to_u8_precision() {
        let cap = sample_capture();
        let mut bytes = Vec::new();
        write_rtl_u8(&cap, &mut bytes).unwrap();
        assert_eq!(bytes.len(), cap.samples.len() * 2);
        let back = read_rtl_u8(&bytes[..], cap.sample_rate, cap.center_freq).unwrap();
        assert_eq!(back.samples.len(), cap.samples.len());
        for (a, b) in back.samples.iter().zip(&cap.samples) {
            assert!((a.re - b.re).abs() <= 1.0 / U8_OFFSET);
            assert!((a.im - b.im).abs() <= 1.0 / U8_OFFSET);
        }
    }

    #[test]
    fn out_of_range_samples_clamp() {
        let cap =
            Capture { samples: vec![Complex::new(3.0, -3.0)], sample_rate: 1.0, center_freq: 0.0 };
        let mut bytes = Vec::new();
        write_rtl_u8(&cap, &mut bytes).unwrap();
        assert_eq!(bytes, vec![255, 0]);
    }

    #[test]
    fn known_byte_values() {
        assert_eq!(to_u8(0.0), 128); // 127.5 rounds up
        assert_eq!(to_u8(1.0), 255);
        assert_eq!(to_u8(-1.0), 0);
        assert!((from_u8(255) - 1.0).abs() < 1e-12);
        assert!((from_u8(0) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn trailing_odd_byte_is_ignored() {
        let bytes = [128u8, 128, 200];
        let cap = read_rtl_u8(&bytes[..], 1.0, 0.0).unwrap();
        assert_eq!(cap.samples.len(), 1);
    }

    #[test]
    fn empty_stream_is_empty_capture() {
        let cap = read_rtl_u8(&[][..], 2.4e6, 1e6).unwrap();
        assert!(cap.samples.is_empty());
        assert_eq!(cap.sample_rate, 2.4e6);
    }

    /// Reader that doles out one byte per `read` call, so every I/Q
    /// pair straddles a "chunk" boundary.
    struct OneByteReader<'a>(&'a [u8]);

    impl Read for OneByteReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.0.split_first() {
                Some((&b, rest)) => {
                    buf[0] = b;
                    self.0 = rest;
                    Ok(1)
                }
                None => Ok(0),
            }
        }
    }

    #[test]
    fn pairs_straddling_chunk_boundaries_decode_correctly() {
        let cap = sample_capture();
        let mut bytes = Vec::new();
        write_rtl_u8(&cap, &mut bytes).unwrap();
        let whole = read_rtl_u8(&bytes[..], cap.sample_rate, cap.center_freq).unwrap();
        let dribbled =
            read_rtl_u8(OneByteReader(&bytes), cap.sample_rate, cap.center_freq).unwrap();
        assert_eq!(dribbled.samples, whole.samples);
    }

    /// Reader that yields some valid bytes, then fails — a USB dongle
    /// unplugged mid-capture.
    struct FailAfter {
        remaining: usize,
    }

    impl Read for FailAfter {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.remaining == 0 {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "device vanished"));
            }
            let n = self.remaining.min(buf.len());
            buf[..n].fill(128);
            self.remaining -= n;
            Ok(n)
        }
    }

    #[test]
    fn mid_capture_io_error_surfaces() {
        let err = read_rtl_u8(FailAfter { remaining: 10 }, 2.4e6, 1e6).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert!(io_error_is_retryable(err.kind()), "a vanished device is worth a reconnect");
    }

    #[test]
    fn io_retryability_splits_device_faults_from_caller_bugs() {
        for kind in [
            io::ErrorKind::BrokenPipe,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::UnexpectedEof,
            io::ErrorKind::TimedOut,
            io::ErrorKind::Interrupted,
        ] {
            assert!(io_error_is_retryable(kind), "{kind:?} should be retryable");
        }
        for kind in [
            io::ErrorKind::NotFound,
            io::ErrorKind::PermissionDenied,
            io::ErrorKind::InvalidInput,
            io::ErrorKind::InvalidData,
            io::ErrorKind::Unsupported,
        ] {
            assert!(!io_error_is_retryable(kind), "{kind:?} should be fatal");
        }
    }
}
