//! epoll(7) implementation of [`IoBackend`] — the production backend
//! on Linux. Level-triggered, O(ready) dispatch: a shard with ten
//! thousand idle connections and one readable socket pays for one.

use super::sys::epoll::{
    EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP, EPOLL_CTL_ADD, EPOLL_CTL_DEL, EPOLL_CTL_MOD,
};
use super::sys::{self, epoll_event};
use super::{Event, Interest, IoBackend};
use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// How many events one `epoll_wait` can report. More ready fds than
/// this simply arrive on the next wait (level-triggered, nothing is
/// lost).
const WAIT_BATCH: usize = 256;

pub(crate) struct Epoll {
    epfd: RawFd,
    buf: Vec<epoll_event>,
}

impl Epoll {
    pub(crate) fn new() -> io::Result<Epoll> {
        Ok(Epoll {
            epfd: sys::epoll::create()?,
            buf: vec![epoll_event { events: 0, data: 0 }; WAIT_BATCH],
        })
    }
}

fn mask(interest: Interest) -> u32 {
    let mut m = EPOLLRDHUP; // always: a half-close must wake the read path
    if interest.read {
        m |= EPOLLIN;
    }
    if interest.write {
        m |= EPOLLOUT;
    }
    m
}

impl IoBackend for Epoll {
    fn name(&self) -> &'static str {
        "epoll"
    }

    fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        sys::epoll::ctl(self.epfd, EPOLL_CTL_ADD, fd, mask(interest), token as u64)
    }

    fn modify(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        sys::epoll::ctl(self.epfd, EPOLL_CTL_MOD, fd, mask(interest), token as u64)
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        sys::epoll::ctl(self.epfd, EPOLL_CTL_DEL, fd, 0, 0)
    }

    fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        let n = match sys::epoll::wait(self.epfd, &mut self.buf, sys::timeout_ms(timeout)) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        for ev in &self.buf[..n] {
            // Copy out of the (possibly packed) struct before use.
            let events = { ev.events };
            let data = { ev.data };
            out.push(Event {
                token: data as usize,
                readable: events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                failed: events & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        sys::close_fd(self.epfd);
    }
}
