//! poll(2) implementation of [`IoBackend`] — the portable fallback.
//!
//! O(registered fds) per wait (the kernel rescans the whole array),
//! but crucially still *event-driven*: a shard of idle connections
//! blocks in one syscall instead of waking on a timer, so the
//! per-idle-connection cost is paid in scan width, not wakeups.

use super::sys::{self, pollfd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use super::{Event, Interest, IoBackend};
use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

pub(crate) struct Poll {
    /// Dense registration array handed to `poll(2)` as-is; `tokens`
    /// runs parallel to it. Deregistration swap-removes, so both stay
    /// dense and the order is meaningless.
    fds: Vec<pollfd>,
    tokens: Vec<usize>,
}

impl Poll {
    pub(crate) fn new() -> Poll {
        Poll {
            fds: Vec::new(),
            tokens: Vec::new(),
        }
    }

    fn position(&self, fd: RawFd) -> Option<usize> {
        self.fds.iter().position(|p| p.fd == fd)
    }
}

fn mask(interest: Interest) -> i16 {
    let mut m = 0;
    if interest.read {
        m |= POLLIN;
    }
    if interest.write {
        m |= POLLOUT;
    }
    m
}

impl IoBackend for Poll {
    fn name(&self) -> &'static str {
        "poll"
    }

    fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        if self.position(fd).is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "fd already registered",
            ));
        }
        self.fds.push(pollfd {
            fd,
            events: mask(interest),
            revents: 0,
        });
        self.tokens.push(token);
        Ok(())
    }

    fn modify(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        let i = self
            .position(fd)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
        self.fds[i].events = mask(interest);
        self.tokens[i] = token;
        Ok(())
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        let i = self
            .position(fd)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
        self.fds.swap_remove(i);
        self.tokens.swap_remove(i);
        Ok(())
    }

    fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        if self.fds.is_empty() {
            // poll(2) with zero fds is a pure sleep; honor it so a
            // shard with no connections still blocks until its timer.
            if let Some(d) = timeout {
                std::thread::sleep(d);
                return Ok(());
            }
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "indefinite wait with nothing registered would never return",
            ));
        }
        let n = match sys::sys_poll(&mut self.fds, sys::timeout_ms(timeout)) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        if n == 0 {
            return Ok(());
        }
        for (p, &token) in self.fds.iter().zip(&self.tokens) {
            let r = p.revents;
            if r == 0 {
                continue;
            }
            out.push(Event {
                token,
                readable: r & (POLLIN | POLLHUP) != 0,
                failed: r & (POLLERR | POLLHUP | POLLNVAL) != 0,
            });
            if out.len() == n {
                break;
            }
        }
        Ok(())
    }
}
