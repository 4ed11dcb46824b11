//! The accept thread: one for every listener, blocked in its own
//! readiness backend until a listener is readable or a drain wakes it,
//! handing every accepted connection to the least-occupied shard.

use crate::conn::{uncount_conn, Proto};
use crate::reactor::{self, Backend, Interest, IoBackend, Waker};
use crate::Inner;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// Accept-error classes. Most errors the accept syscall reports are
/// about the *one* connection being accepted (the peer reset during
/// the handshake, a protocol error on that socket) — backing off
/// would penalize every other client in the backlog for one bad peer.
/// Only resource exhaustion (out of fds/memory) is about *us*, and
/// retrying it hot would spin: those back off.
enum AcceptError {
    /// EMFILE / ENFILE / ENOMEM / ENOBUFS: accepting again immediately
    /// will fail again until resources free up.
    Exhausted,
    /// Everything else: specific to the connection just attempted;
    /// keep accepting at full speed.
    Transient,
}

fn classify_accept_error(e: &io::Error) -> AcceptError {
    // EMFILE=24, ENFILE=23, ENOMEM=12, ENOBUFS=105 on Linux; matching
    // by kind where std has one keeps this portable.
    match e.raw_os_error() {
        Some(12 | 23 | 24 | 105) => AcceptError::Exhausted,
        _ => AcceptError::Transient,
    }
}

/// The accept thread's event source: a backend watching the wake
/// pipe and every listener, each under its index in `listeners`, with
/// the protocol its connections speak.
pub(crate) struct Acceptor {
    backend: Backend,
    wake_rx: UnixStream,
    listeners: Vec<(TcpListener, Proto)>,
}

impl Acceptor {
    /// Register every listener. `Server::start` calls this before any
    /// thread exists, so a host that cannot is an error from the
    /// start, not a dead listener. Returns the waker that ends the
    /// thread's wait at drain time.
    pub(crate) fn open(listeners: Vec<(TcpListener, Proto)>) -> io::Result<(Acceptor, Waker)> {
        let (mut backend, wake_rx, waker) = reactor::open::<Backend>()?;
        for (token, (listener, _)) in listeners.iter().enumerate() {
            backend.register(listener.as_raw_fd(), token, Interest::READ)?;
        }
        let acceptor = Acceptor {
            backend,
            wake_rx,
            listeners,
        };
        Ok((acceptor, waker))
    }

    /// Run the accept thread, handing connections to the shards
    /// through `senders`. It drops every listener when a drain ends it.
    pub(crate) fn spawn(
        self,
        inner: &Arc<Inner>,
        senders: Vec<mpsc::Sender<(TcpStream, Proto)>>,
    ) -> JoinHandle<()> {
        let inner = Arc::clone(inner);
        std::thread::Builder::new()
            .name("oib-accept".into())
            .spawn(move || self.run(&inner, &senders))
            .expect("spawn acceptor")
    }

    /// Block until a listener is readable or the drain waker fires,
    /// then accept everything waiting on the readable listeners.
    fn run(mut self, inner: &Arc<Inner>, senders: &[mpsc::Sender<(TcpStream, Proto)>]) {
        let mut events = Vec::new();
        let mut next = 0usize;
        let mut burst_logged = false;
        while !inner.draining() {
            if let Err(e) = self.backend.wait(&mut events, None) {
                inner
                    .db
                    .obs
                    .trace()
                    .event("server.accept_wait_error", e.to_string(), 0);
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            for ev in &events {
                if ev.token == reactor::WAKE_TOKEN {
                    reactor::drain_wake(&self.wake_rx);
                } else if let Some((listener, proto)) = self.listeners.get(ev.token) {
                    accept_burst(
                        inner,
                        listener,
                        senders,
                        *proto,
                        &mut next,
                        &mut burst_logged,
                    );
                }
            }
        }
    }
}

/// Pick the shard with the fewest live connections, starting the scan
/// at a rotating offset so ties spread round-robin. Every listener
/// routes through here, so a shard loaded with long-lived pg sessions
/// receives fewer native connections and vice versa.
fn pick_shard(inner: &Arc<Inner>, next: &mut usize) -> usize {
    let n = inner.shard_conns.len();
    let start = *next % n;
    *next = next.wrapping_add(1);
    let mut best = start;
    let mut best_count = inner.shard_conns[start].load(Ordering::Acquire);
    for off in 1..n {
        let i = (start + off) % n;
        let count = inner.shard_conns[i].load(Ordering::Acquire);
        if count < best_count {
            best = i;
            best_count = count;
        }
    }
    best
}

/// Accept until `WouldBlock` (socket drained) or drain. Classifies
/// errors per [`AcceptError`]: exhaustion backs off with a doubling
/// sleep, transient errors keep the loop accepting. Each error burst
/// is traced once (first error after a successful accept), not per
/// error — an fd-exhaustion storm must not flood the trace ring.
fn accept_burst(
    inner: &Arc<Inner>,
    listener: &TcpListener,
    senders: &[mpsc::Sender<(TcpStream, Proto)>],
    proto: Proto,
    next: &mut usize,
    burst_logged: &mut bool,
) {
    let mut backoff = Duration::from_millis(1);
    loop {
        if inner.draining() {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                *burst_logged = false;
                backoff = Duration::from_millis(1);
                if inner.conn_count.load(Ordering::Acquire) >= inner.cfg.max_connections {
                    inner.stats.conns_rejected.bump();
                    drop(stream);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    continue;
                }
                inner.conn_count.fetch_add(1, Ordering::AcqRel);
                if matches!(proto, Proto::Http) {
                    inner.http_conns.fetch_add(1, Ordering::AcqRel);
                }
                inner.stats.conns_accepted.bump();
                let shard = pick_shard(inner, next);
                inner.stats.conn_shards[shard].bump();
                inner.shard_conns[shard].fetch_add(1, Ordering::AcqRel);
                // A worker only disappears at drain time; if the send
                // races that, the stream just drops (client sees EOF).
                if senders[shard].send((stream, proto)).is_err() {
                    uncount_conn(inner, shard, &proto);
                } else {
                    inner.shard_waker(shard).wake();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                inner.stats.accept_errors.bump();
                match classify_accept_error(&e) {
                    AcceptError::Exhausted => {
                        if !*burst_logged {
                            *burst_logged = true;
                            inner.db.obs.trace().event(
                                "server.accept_exhausted",
                                e.to_string(),
                                backoff.as_micros().min(u128::from(u64::MAX)) as u64,
                            );
                        }
                        // Out of fds/memory: hammering accept cannot
                        // help, and closing an idle connection or a
                        // finishing request is what frees resources.
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(Duration::from_millis(100));
                    }
                    AcceptError::Transient => {
                        if !*burst_logged {
                            *burst_logged = true;
                            inner
                                .db
                                .obs
                                .trace()
                                .event("server.accept_error", e.to_string(), 0);
                        }
                        // The failed handshake already consumed the
                        // backlog entry; keep accepting.
                    }
                }
            }
        }
    }
}
