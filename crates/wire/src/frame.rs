//! `[u32 BE length][payload]` framing.
//!
//! Two consumption styles share one format: [`read_frame`] blocks on an
//! `io::Read` (the client, tests), while [`take_frame`] incrementally
//! splits frames off a growing receive buffer (the server's
//! non-blocking connection loop). Both enforce [`MAX_FRAME`] so a
//! hostile or corrupted length prefix cannot make the peer allocate
//! gigabytes.

use std::io::{self, Read, Write};

/// Hard cap on a single frame's payload (16 MiB).
///
/// Far above any legitimate message — the largest are `Stats` dumps and
/// multi-spec `CreateIndex` requests, both well under a page — but
/// small enough that a garbage length prefix fails instead of OOMing.
pub const MAX_FRAME: usize = 16 << 20;

/// Why a frame could not be produced from buffered bytes.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The peer announced a payload larger than [`MAX_FRAME`]; the
    /// connection is unrecoverable because resynchronising on a byte
    /// stream with a corrupt length is impossible.
    TooLarge(usize),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLarge(n) => {
                write!(f, "frame length {n} exceeds cap {MAX_FRAME}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Write one frame: length prefix then payload, single `write_all` per
/// part (callers wanting fewer syscalls wrap `w` in a `BufWriter`).
///
/// An oversized payload is refused (release builds included): the peer
/// would reject the frame anyway, but only after its receive stream is
/// unrecoverably desynchronised.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            FrameError::TooLarge(payload.len()).to_string(),
        ));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)
}

/// Blocking read of one complete frame's payload.
///
/// `Ok(None)` means the peer closed cleanly at a frame boundary; EOF
/// mid-frame and an oversized length both surface as errors. A read
/// interrupted by a signal — a stopped process resumed — is retried.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut n = 0;
    while n < 4 {
        match r.read(&mut len_buf[n..]) {
            Ok(0) if n == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame length",
                ))
            }
            Ok(m) => n += m,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            FrameError::TooLarge(len).to_string(),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Split one complete frame off the front of `buf`, if present.
///
/// Returns `Ok(None)` while the buffer holds only a partial frame; the
/// caller appends more received bytes and retries. On success the
/// consumed bytes are drained from `buf`, so leftover bytes of the
/// next frame stay in place.
pub fn take_frame(buf: &mut Vec<u8>) -> Result<Option<Vec<u8>>, FrameError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge(len));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    let payload = buf[4..4 + len].to_vec();
    buf.drain(..4 + len);
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_roundtrip() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"hello").unwrap();
        write_frame(&mut stream, b"").unwrap();
        write_frame(&mut stream, &[7u8; 300]).unwrap();
        let mut r = &stream[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), vec![7u8; 300]);
        assert_eq!(read_frame(&mut r).unwrap(), None); // clean EOF
    }

    #[test]
    fn eof_mid_frame_is_an_error() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"payload").unwrap();
        for cut in 1..stream.len() {
            let mut r = &stream[..cut];
            assert!(read_frame(&mut r).is_err(), "cut at {cut}");
        }
    }

    /// A reader whose every other call is interrupted, and which hands
    /// out one byte at a time otherwise.
    struct Interrupting<'a>(&'a [u8], bool);

    impl Read for Interrupting<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.1 = !self.1;
            if self.1 {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(self.0.len()).min(1);
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn interrupted_reads_are_retried() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"payload").unwrap();
        let mut r = Interrupting(&stream, false);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"payload");
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn oversized_frame_rejected_by_reader() {
        let stream = ((MAX_FRAME + 1) as u32).to_be_bytes();
        let mut r = &stream[..];
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn take_frame_handles_partial_and_back_to_back() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"one").unwrap();
        write_frame(&mut stream, b"two").unwrap();
        // Feed byte by byte: no frame until the first is complete.
        let mut buf = Vec::new();
        let mut got = Vec::new();
        for &b in &stream {
            buf.push(b);
            while let Some(p) = take_frame(&mut buf).unwrap() {
                got.push(p);
            }
        }
        assert_eq!(got, vec![b"one".to_vec(), b"two".to_vec()]);
        assert!(buf.is_empty());

        // Both at once: two calls split them in order.
        let mut buf = stream.clone();
        assert_eq!(take_frame(&mut buf).unwrap().unwrap(), b"one");
        assert_eq!(take_frame(&mut buf).unwrap().unwrap(), b"two");
        assert_eq!(take_frame(&mut buf).unwrap(), None);
    }

    #[test]
    fn oversized_payload_rejected_by_writer() {
        // Must hold in release builds too: a frame the peer cannot
        // accept should fail at the writer, not kill the connection.
        let payload = vec![0u8; MAX_FRAME + 1];
        let mut out = Vec::new();
        let err = write_frame(&mut out, &payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(out.is_empty());
    }

    #[test]
    fn take_frame_rejects_oversized_length() {
        let mut buf = ((MAX_FRAME + 1) as u32).to_be_bytes().to_vec();
        assert_eq!(
            take_frame(&mut buf),
            Err(FrameError::TooLarge(MAX_FRAME + 1))
        );
    }
}
