//! Readiness reactor: the server's I/O backend.
//!
//! Each shard and the accept thread own a [`Backend`], register the
//! fds they care about, and block in `wait` until the kernel reports
//! readiness, another thread wakes them, or the shard's earliest timer
//! deadline arrives — an idle connection costs no wakeups. The
//! platform picks the backend at compile time:
//!
//! * **epoll** ([`epoll::Epoll`]) on Linux — O(ready) dispatch;
//! * **poll(2)** (`poll::Poll`) on every other unix — O(fds) per
//!   wait but still zero wakeups while nothing is ready. Linux builds
//!   compile it for its unit tests only.
//!
//! Both backends are level-triggered: interest is re-armed by
//! simply not draining the source, and write interest is only
//! registered while a connection actually has unwritten bytes, so a
//! writable socket never busy-wakes a shard.

pub(crate) mod driver;
#[cfg(any(test, not(target_os = "linux")))]
pub(crate) mod poll;
pub(crate) mod sys;
pub(crate) mod timer;

#[cfg(target_os = "linux")]
pub(crate) mod epoll;

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// This platform's readiness backend.
#[cfg(target_os = "linux")]
pub(crate) type Backend = epoll::Epoll;
/// This platform's readiness backend.
#[cfg(not(target_os = "linux"))]
pub(crate) type Backend = poll::Poll;

/// Which readiness the caller wants to hear about for one fd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    pub read: bool,
    pub write: bool,
}

impl Interest {
    pub(crate) const READ: Interest = Interest {
        read: true,
        write: false,
    };
    pub(crate) const READ_WRITE: Interest = Interest {
        read: true,
        write: true,
    };
}

/// One readiness report from [`IoBackend::wait`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    /// The token the fd was registered under.
    pub token: usize,
    /// Set for read readiness; an event without it reports write
    /// readiness alone (the driver flushes whenever a backlog exists,
    /// so it never needs to be told).
    pub readable: bool,
    /// Error or hangup. The fd is still dispatched to its read path,
    /// which observes the concrete EOF/error itself.
    pub failed: bool,
}

/// What a readiness backend does. Registration is keyed by fd; the
/// token is opaque payload echoed back in events (the driver uses
/// slab indexes). Implementations are level-triggered and
/// single-threaded — each thread owns its own instance, so no
/// interior synchronization is needed.
pub(crate) trait IoBackend: Sized {
    /// Backend name for logs (`"epoll"`, `"poll"`).
    const NAME: &'static str;

    /// A backend watching nothing.
    fn new() -> io::Result<Self>;

    /// Start watching `fd`.
    fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()>;

    /// Change what is being watched for an already registered `fd`.
    fn modify(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()>;

    /// Stop watching `fd`. Must be called *before* the fd is closed.
    fn deregister(&mut self, fd: RawFd) -> io::Result<()>;

    /// Block until at least one event, the timeout, or a spurious
    /// wakeup (EINTR is swallowed and reported as zero events).
    /// `None` blocks indefinitely. Events are appended to `out`
    /// (cleared first).
    fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()>;
}

/// Cross-thread wakeup for a blocked [`IoBackend::wait`]: a
/// non-blocking socketpair whose read end is registered with the
/// shard's reactor under [`WAKE_TOKEN`]. `wake` writes one byte; a
/// full pipe means a wake is already pending, which is exactly the
/// coalescing we want.
pub(crate) struct Waker {
    tx: UnixStream,
}

/// Token reserved for a shard's wake pipe (never a slab index).
pub(crate) const WAKE_TOKEN: usize = usize::MAX;

/// One thread's event source: a backend with a wake pipe's read end
/// already registered under [`WAKE_TOKEN`], that read end (to drain
/// with [`drain_wake`]), and the waker other threads hold.
pub(crate) fn open<B: IoBackend>() -> io::Result<(B, UnixStream, Waker)> {
    let mut backend = B::new()?;
    let (waker, wake_rx) = Waker::new()?;
    backend.register(wake_rx.as_raw_fd(), WAKE_TOKEN, Interest::READ)?;
    Ok((backend, wake_rx, waker))
}

impl Waker {
    /// `(waker, read_end)` — the read end gets registered with the
    /// reactor and drained by [`drain_wake`].
    fn new() -> io::Result<(Waker, UnixStream)> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((Waker { tx }, rx))
    }

    /// Wake the owning shard. Infallible by design: `WouldBlock`
    /// means a wake is already queued, and any other error means the
    /// shard is gone (nothing left to wake).
    pub(crate) fn wake(&self) {
        let _ = (&self.tx).write(&[1u8]);
    }
}

/// Empty the wake pipe so level-triggered backends stop reporting it.
pub(crate) fn drain_wake(rx: &UnixStream) {
    let mut buf = [0u8; 64];
    loop {
        match (&*rx).read(&mut buf) {
            Ok(0) => return, // waker dropped; drain is imminent
            Ok(_) => {}
            Err(_) => return, // WouldBlock: drained
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backend_roundtrip<B: IoBackend>() {
        let mut b = B::new().unwrap();
        let (mut a, c) = UnixStream::pair().unwrap();
        c.set_nonblocking(true).unwrap();
        b.register(c.as_raw_fd(), 3, Interest::READ).unwrap();

        let mut out = Vec::new();
        b.wait(&mut out, Some(Duration::ZERO)).unwrap();
        assert!(out.is_empty(), "{}: nothing ready yet", B::NAME);

        a.write_all(b"hi").unwrap();
        b.wait(&mut out, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].token, 3);
        assert!(out[0].readable);

        // Read interest alone never reports a merely writable socket;
        // write interest on an empty socket buffer is ready at once.
        let mut c = c;
        c.read_exact(&mut [0u8; 2]).unwrap();
        b.wait(&mut out, Some(Duration::ZERO)).unwrap();
        assert!(out.is_empty(), "{}: drained, read interest only", B::NAME);
        b.modify(c.as_raw_fd(), 3, Interest::READ_WRITE).unwrap();
        b.wait(&mut out, Some(Duration::from_secs(5))).unwrap();
        assert!(out.iter().any(|e| e.token == 3 && !e.readable));

        b.deregister(c.as_raw_fd()).unwrap();
        b.wait(&mut out, Some(Duration::ZERO)).unwrap();
        assert!(out.is_empty(), "{}: deregistered fd still fires", B::NAME);
    }

    #[test]
    fn poll_backend_roundtrip() {
        backend_roundtrip::<poll::Poll>();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_backend_roundtrip() {
        backend_roundtrip::<epoll::Epoll>();
    }

    #[test]
    fn waker_wakes_a_blocked_wait() {
        let (mut b, rx, waker) = open::<poll::Poll>().unwrap();
        let mut out = Vec::new();
        waker.wake();
        waker.wake(); // coalesces, no error
        b.wait(&mut out, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].token, WAKE_TOKEN);
        drain_wake(&rx);
        b.wait(&mut out, Some(Duration::ZERO)).unwrap();
        assert!(out.is_empty(), "wake pipe drained, no level re-fire");
    }
}
