//! Accept threads: one per listener, each blocked in its own
//! readiness backend until the listener is readable or a drain wakes
//! it, handing every accepted connection to the least-occupied shard.

use crate::conn::{uncount_conn, Proto};
use crate::reactor::{self, Interest, IoBackend};
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

/// Spawn one accept thread for `listener`, tagging every accepted
/// connection with `proto` so the shard knows which protocol to speak.
/// The thread's backend is built (and both fds registered) here, so a
/// host that cannot is an error from `Server::start`, not a dead
/// listener. Returns the waker that ends the thread's wait at drain
/// time.
pub(crate) fn spawn(
    inner: &Arc<Inner>,
    listener: TcpListener,
    senders: Vec<mpsc::Sender<(TcpStream, Proto)>>,
    proto: Proto,
    backend: reactor::ResolvedBackend,
    name: &str,
) -> io::Result<(reactor::Waker, JoinHandle<()>)> {
    let (mut backend, wake_rx, waker) = reactor::open(backend)?;
    backend.register(listener.as_raw_fd(), 0, Interest::READ)?;
    let inner = Arc::clone(inner);
    let handle = std::thread::Builder::new()
        .name(name.into())
        .spawn(move || accept_loop(&inner, &listener, &senders, proto, backend, &wake_rx))
        .expect("spawn acceptor");
    Ok((waker, handle))
}

/// Pick the shard with the fewest live connections, starting the scan
/// at a rotating offset so ties spread round-robin. Both listeners
/// route through here, so a shard loaded with long-lived pg sessions
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
                inner.stats.conn_shards.bump(shard);
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

/// Block until the listener is readable or the drain waker fires,
/// then accept everything that is waiting.
fn accept_loop(
    inner: &Arc<Inner>,
    listener: &TcpListener,
    senders: &[mpsc::Sender<(TcpStream, Proto)>],
    proto: Proto,
    mut backend: Box<dyn IoBackend>,
    wake_rx: &UnixStream,
) {
    let mut events = Vec::new();
    let mut next = 0usize;
    let mut burst_logged = false;
    while !inner.draining() {
        if let Err(e) = backend.wait(&mut events, None) {
            inner
                .db
                .obs
                .trace()
                .event("server.accept_wait_error", e.to_string(), 0);
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        if events.iter().any(|ev| ev.token == reactor::WAKE_TOKEN) {
            reactor::drain_wake(wake_rx);
        }
        accept_burst(
            inner,
            listener,
            senders,
            proto,
            &mut next,
            &mut burst_logged,
        );
    }
}
