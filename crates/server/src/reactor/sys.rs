//! Raw syscall bindings for the readiness backends.
//!
//! The build environment has no crates.io access, so instead of the
//! `libc` crate these are hand-written `extern "C"` declarations for
//! exactly the symbols the reactor needs (`epoll_create1`,
//! `epoll_ctl`, `epoll_wait` and `close` on Linux, `poll` elsewhere
//! and in tests), following the same in-tree-shim policy as
//! `crates/shim-*`. Every constant is copied from the Linux UAPI /
//! POSIX headers and cross-checked by the unit tests at the bottom,
//! which drive the real syscalls against a loopback socket pair.

#![allow(non_camel_case_types)]

use std::io;
use std::os::raw::c_int;

// `close(2)` — the epoll instance fd is not wrapped by any std type.
#[cfg(target_os = "linux")]
extern "C" {
    fn close(fd: c_int) -> c_int;
}

/// Close a raw fd, ignoring the (unactionable) result.
#[cfg(target_os = "linux")]
pub(crate) fn close_fd(fd: c_int) {
    // SAFETY: `fd` is an fd this module opened and owns; double-close
    // is excluded by the owning types' Drop running at most once.
    unsafe {
        let _ = close(fd);
    }
}

/// Last OS error as `io::Error` (the errno read must happen before any
/// other libc call).
pub(crate) fn last_errno() -> io::Error {
    io::Error::last_os_error()
}

/// Clamp a wait timeout to the `c_int` milliseconds both `epoll_wait`
/// and `poll` take: `None` blocks forever (-1); sub-millisecond waits
/// round *up* so a 100µs deadline does not degenerate into a busy
/// spin of zero-timeout waits.
pub(crate) fn timeout_ms(timeout: Option<std::time::Duration>) -> c_int {
    match timeout {
        None => -1,
        Some(d) => {
            if d.is_zero() {
                0
            } else {
                let ms = d.as_millis().max(1);
                c_int::try_from(ms).unwrap_or(c_int::MAX)
            }
        }
    }
}

// ---------------------------------------------------------------- poll

/// poll(2): the backend on every unix but Linux, where only its unit
/// tests use it.
#[cfg(any(test, not(target_os = "linux")))]
pub(crate) mod poll {
    use super::{c_int, io, last_errno};
    use std::os::raw::c_short;

    /// `struct pollfd` from `<poll.h>`; identical layout on every POSIX
    /// target.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub(crate) struct pollfd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    pub(crate) const POLLIN: c_short = 0x001;
    pub(crate) const POLLOUT: c_short = 0x004;
    pub(crate) const POLLERR: c_short = 0x008;
    pub(crate) const POLLHUP: c_short = 0x010;
    pub(crate) const POLLNVAL: c_short = 0x020;

    #[cfg(target_os = "linux")]
    type nfds_t = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type nfds_t = std::os::raw::c_uint;

    extern "C" {
        fn poll(fds: *mut pollfd, nfds: nfds_t, timeout: c_int) -> c_int;
    }

    /// `poll(2)` over a caller-owned pollfd array. Returns the number of
    /// entries with non-zero `revents` (0 on timeout).
    pub(crate) fn wait(fds: &mut [pollfd], timeout: c_int) -> io::Result<usize> {
        // SAFETY: `fds` is a valid, exclusively borrowed slice for the
        // duration of the call, and `len` matches its length.
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as nfds_t, timeout) };
        if n < 0 {
            Err(last_errno())
        } else {
            Ok(n as usize)
        }
    }
}

// --------------------------------------------------------------- epoll

/// `struct epoll_event`. The kernel declares it `__attribute__
/// ((packed))` on x86-64 only (so 32-bit and 64-bit userlands share
/// one layout); every other architecture uses natural alignment.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[repr(C, packed)]
#[derive(Clone, Copy)]
pub(crate) struct epoll_event {
    pub events: u32,
    pub data: u64,
}

#[cfg(all(target_os = "linux", not(target_arch = "x86_64")))]
#[repr(C)]
#[derive(Clone, Copy)]
pub(crate) struct epoll_event {
    pub events: u32,
    pub data: u64,
}

#[cfg(target_os = "linux")]
pub(crate) mod epoll {
    use super::{c_int, epoll_event, io, last_errno};

    pub(crate) const EPOLLIN: u32 = 0x001;
    pub(crate) const EPOLLOUT: u32 = 0x004;
    pub(crate) const EPOLLERR: u32 = 0x008;
    pub(crate) const EPOLLHUP: u32 = 0x010;
    /// Peer shut down its write half — surfaced so a half-closed
    /// connection wakes the read path (which then sees EOF).
    pub(crate) const EPOLLRDHUP: u32 = 0x2000;

    pub(crate) const EPOLL_CTL_ADD: c_int = 1;
    pub(crate) const EPOLL_CTL_DEL: c_int = 2;
    pub(crate) const EPOLL_CTL_MOD: c_int = 3;

    /// `EPOLL_CLOEXEC` == `O_CLOEXEC` == 0o2000000.
    const EPOLL_CLOEXEC: c_int = 0o2000000;

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut epoll_event) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut epoll_event,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }

    /// New epoll instance fd.
    pub(crate) fn create() -> io::Result<c_int> {
        // SAFETY: no pointers involved; the kernel validates flags.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            Err(last_errno())
        } else {
            Ok(fd)
        }
    }

    pub(crate) fn ctl(epfd: c_int, op: c_int, fd: c_int, events: u32, data: u64) -> io::Result<()> {
        let mut ev = epoll_event { events, data };
        // SAFETY: `ev` lives across the call; DEL ignores the pointer
        // (passed non-null anyway for pre-2.6.9 kernel compatibility).
        let rc = unsafe { epoll_ctl(epfd, op, fd, &mut ev) };
        if rc < 0 {
            Err(last_errno())
        } else {
            Ok(())
        }
    }

    /// Wait for readiness; fills `buf` from the front and returns how
    /// many entries are valid.
    pub(crate) fn wait(epfd: c_int, buf: &mut [epoll_event], timeout: c_int) -> io::Result<usize> {
        // SAFETY: `buf` is a valid exclusively borrowed slice and
        // `maxevents` matches its length.
        let n = unsafe { epoll_wait(epfd, buf.as_mut_ptr(), buf.len() as c_int, timeout) };
        if n < 0 {
            Err(last_errno())
        } else {
            Ok(n as usize)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn poll_sees_readable_socket() {
        let (mut a, b) = UnixStream::pair().unwrap();
        let mut fds = [poll::pollfd {
            fd: b.as_raw_fd(),
            events: poll::POLLIN,
            revents: 0,
        }];
        assert_eq!(poll::wait(&mut fds, 0).unwrap(), 0, "nothing written yet");
        a.write_all(b"x").unwrap();
        assert_eq!(poll::wait(&mut fds, 1000).unwrap(), 1);
        assert_ne!(fds[0].revents & poll::POLLIN, 0);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_sees_readable_socket_and_times_out() {
        let (mut a, b) = UnixStream::pair().unwrap();
        let ep = epoll::create().unwrap();
        epoll::ctl(ep, epoll::EPOLL_CTL_ADD, b.as_raw_fd(), epoll::EPOLLIN, 7).unwrap();
        let mut buf = [epoll_event { events: 0, data: 0 }; 4];
        assert_eq!(epoll::wait(ep, &mut buf, 0).unwrap(), 0, "timeout path");
        a.write_all(b"x").unwrap();
        assert_eq!(epoll::wait(ep, &mut buf, 1000).unwrap(), 1);
        let ev = buf[0];
        assert_eq!({ ev.data }, 7);
        assert_ne!({ ev.events } & epoll::EPOLLIN, 0);
        epoll::ctl(ep, epoll::EPOLL_CTL_DEL, b.as_raw_fd(), 0, 0).unwrap();
        close_fd(ep);
    }

    #[test]
    fn timeout_rounds_up_not_down() {
        use std::time::Duration;
        assert_eq!(timeout_ms(None), -1);
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 0);
        assert_eq!(timeout_ms(Some(Duration::from_micros(100))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_millis(250))), 250);
    }
}
