//! Chunked streaming window over any `io::Read`.

use super::{DocSource, SourceKind};
use crate::error::CoreError;
use std::io::Read;

/// The paper's single-pass streaming mode, refill-only: a pre-allocated
/// buffer is filled in fixed-size chunks ("eight times the system page
/// size" in the prototype, Sec. V) and compacted below the discard guard,
/// so memory stays bounded by the window size.
///
/// This is the one backend that pays a copy per byte — and the one that
/// works on pipes and sockets. Copy-range flushing is *not* its concern:
/// the runtime adapter flushes before it raises the guard, so `refill`
/// can drop everything below the guard unconditionally.
pub struct ReaderSource<R: Read> {
    reader: R,
    /// Window bytes `[base, base + buf.len())` of the stream.
    buf: Vec<u8>,
    /// Absolute offset of `buf\[0\]`.
    base: usize,
    eof: bool,
    chunk: usize,
    /// Bytes before `guard` may be discarded.
    guard: usize,
    /// Peak window capacity (memory reporting).
    peak: usize,
}

impl<R: Read> ReaderSource<R> {
    /// Stream `reader` through a window refilled `chunk` bytes at a time.
    ///
    /// Tiny chunks (down to a single byte) are honored: the refill and
    /// overlap logic is chunk-size-independent, and the differential
    /// chunk-boundary suite sweeps 1/2/lane±1 to exercise every
    /// `window()` split.
    pub fn new(reader: R, chunk: usize) -> Self {
        let chunk = chunk.max(1);
        ReaderSource {
            reader,
            buf: Vec::with_capacity(chunk * 2),
            base: 0,
            eof: false,
            chunk,
            guard: 0,
            peak: 0,
        }
    }

    fn window_end(&self) -> usize {
        self.base + self.buf.len()
    }

    /// Read one more chunk, compacting the window below the guard first.
    fn refill(&mut self) -> Result<(), CoreError> {
        debug_assert!(self.chunk >= 1, "constructor clamps chunk to >= 1");
        let keep_from = self.guard.min(self.window_end()).max(self.base);
        let drop = keep_from - self.base;
        if drop > 0 {
            self.buf.drain(..drop);
            self.base += drop;
        }
        let old_len = self.buf.len();
        self.buf.resize(old_len + self.chunk, 0);
        let io_span = crate::obs::stage(crate::obs::StageId::IoWait);
        let n = read_full(&mut self.reader, &mut self.buf[old_len..])?;
        std::mem::drop(io_span);
        crate::obs::add(crate::obs::CounterId::SourceReadBytes, n as u64);
        self.buf.truncate(old_len + n);
        if n == 0 {
            self.eof = true;
        }
        self.peak = self.peak.max(self.buf.capacity());
        Ok(())
    }
}

fn read_full<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<usize, CoreError> {
    read_full_io(r, buf).map_err(CoreError::Io)
}

/// Fill `buf` from `r`, looping over short reads; short only at EOF.
/// `ErrorKind::Interrupted` (EINTR — a signal landed mid-read) is retried,
/// never surfaced: every refill routes its read through this one function
/// so no path can regress to treating EINTR as a hard error.
fn read_full_io<R: Read>(r: &mut R, mut buf: &mut [u8]) -> std::io::Result<usize> {
    let mut total = 0;
    while !buf.is_empty() {
        match r.read(buf) {
            Ok(0) => break,
            Ok(n) => {
                total += n;
                buf = &mut std::mem::take(&mut buf)[n..];
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(total)
}

impl<R: Read> DocSource for ReaderSource<R> {
    fn base(&self) -> usize {
        self.base
    }

    fn resident(&self) -> &[u8] {
        &self.buf
    }

    fn ensure(&mut self, pos: usize) -> Result<bool, CoreError> {
        while pos >= self.window_end() {
            if self.eof {
                return Ok(false);
            }
            self.refill()?;
        }
        Ok(true)
    }

    fn grow(&mut self) -> Result<bool, CoreError> {
        if self.eof {
            return Ok(false);
        }
        let before = self.window_end();
        self.refill()?;
        Ok(self.window_end() > before)
    }

    fn set_guard(&mut self, pos: usize) {
        self.guard = self.guard.max(pos);
    }

    fn len_hint(&self) -> Option<u64> {
        None
    }

    fn peak_io_bytes(&self) -> usize {
        self.peak
    }

    fn kind(&self) -> SourceKind {
        SourceKind::Reader
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_stays_bounded_by_guard() {
        let doc: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let mut s = ReaderSource::new(&doc[..], 16);
        for (pos, &byte) in doc.iter().enumerate() {
            assert!(s.ensure(pos).unwrap());
            assert_eq!(s.resident()[pos - s.base()], byte);
            s.set_guard(pos.saturating_sub(8));
        }
        assert!(!s.ensure(doc.len()).unwrap());
        // Guarded discards kept the window near the chunk size, not the
        // document size.
        assert!(s.peak_io_bytes() < 256, "peak {}", s.peak_io_bytes());
    }

    #[test]
    fn grow_reports_eof_once_exhausted() {
        let doc = b"abcdef";
        let mut s = ReaderSource::new(&doc[..], 4);
        assert!(s.ensure(0).unwrap());
        while s.grow().unwrap() {}
        assert_eq!(s.resident(), doc);
        assert!(!s.grow().unwrap());
        assert_eq!(s.len_hint(), None);
        assert_eq!(s.kind(), SourceKind::Reader);
    }

    /// A reader that injects `ErrorKind::Interrupted` before every
    /// successful read, the way a signal-heavy process sees EINTR.
    struct Interrupting<R> {
        inner: R,
        interrupt_next: bool,
    }

    impl<R: Read> Read for Interrupting<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.interrupt_next {
                self.interrupt_next = false;
                return Err(std::io::Error::from(std::io::ErrorKind::Interrupted));
            }
            self.interrupt_next = true;
            self.inner.read(buf)
        }
    }

    #[test]
    fn eintr_is_retried_not_fatal() {
        let doc = b"<a><b>interrupted but intact</b></a>";
        let interrupting = Interrupting { inner: &doc[..], interrupt_next: true };
        let mut s = ReaderSource::new(interrupting, 4);
        let mut got = Vec::new();
        let mut pos = 0;
        while s.ensure(pos).unwrap() {
            got.push(s.resident()[pos - s.base()]);
            pos += 1;
        }
        assert_eq!(got, doc);
    }

    #[test]
    fn eintr_is_retried_by_read_full_io() {
        // The fill loop must absorb any number of interleaved EINTRs.
        let doc = b"0123456789";
        let mut r = Interrupting { inner: &doc[..], interrupt_next: true };
        let mut buf = [0u8; 10];
        assert_eq!(read_full_io(&mut r, &mut buf).unwrap(), 10);
        assert_eq!(&buf, doc);
    }

    /// A reader that yields a prefix of spaces, then fails with a fixed
    /// message.
    struct FailAfter {
        left: usize,
    }

    impl Read for FailAfter {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.left == 0 {
                return Err(std::io::Error::other("injected mid-stream failure"));
            }
            let n = self.left.min(buf.len());
            buf[..n].fill(b' ');
            self.left -= n;
            Ok(n)
        }
    }

    #[test]
    fn mid_stream_error_surfaces_after_prefix() {
        let mut s = ReaderSource::new(FailAfter { left: 96 }, 32);
        let mut pos = 0;
        let err = loop {
            match s.ensure(pos) {
                Ok(more) => {
                    assert!(more, "the stream fails before it ends");
                    pos += 1;
                }
                Err(e) => break e,
            }
        };
        assert_eq!(pos, 96, "every byte before the failure is delivered");
        assert!(matches!(err, CoreError::Io(_)), "error kind: {err}");
        assert_eq!(err.to_string(), "I/O error: injected mid-stream failure");
    }

    #[test]
    fn chunk_zero_is_clamped_to_one() {
        // Regression: chunk == 0 must behave exactly like chunk == 1
        // (refill in 1-byte steps), not underflow or spin on empty reads.
        let doc = b"chunk zero";
        let mut s = ReaderSource::new(&doc[..], 0);
        let mut got = Vec::new();
        let mut pos = 0;
        while s.ensure(pos).unwrap() {
            got.push(s.resident()[pos - s.base()]);
            pos += 1;
        }
        assert_eq!(got, doc);
        assert!(!s.grow().unwrap());
    }
}
