//! One connection: its socket, its buffers in both directions, the
//! frames it has queued, its deadlines, and the one streaming [`Job`]
//! that may own it. [`service`] is the only way a shard's event loop
//! (`crate::reactor::driver`) moves a connection forward.
//!
//! Responses are *buffered*: a send appends to the connection's
//! outbound buffer and flushes as far as the socket accepts. A
//! `WouldBlock` mid-frame therefore never stalls the shard — the
//! unwritten tail stays buffered and resumes on write-readiness, with
//! the write timeout measured from when the backlog first appeared.
//!
//! One shard executes one request at a time (closed-loop per shard);
//! concurrency comes from the shard count plus build threads. The
//! global in-flight cap spans all shards, so admission control is a
//! property of the server, not of a lucky shard assignment.

use crate::job::{self, Job};
use crate::pg::PgState;
use crate::{http, native, pg, Inner, ServerConfig};
use mohan_oib::Session;
use mohan_wire::frame::MAX_FRAME;
use mohan_wire::message::Request;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Which wire protocol a connection speaks, plus that protocol's
/// per-connection state. Decided by the listener that accepted the
/// connection and carried through the shard hand-off channel.
#[derive(Clone, Copy)]
pub(crate) enum Proto {
    /// The native length-prefixed binary protocol: frames are
    /// `Request`s.
    Native,
    /// Postgres protocol v3 (simple query).
    Pg(PgState),
    /// HTTP/1.1 sidecar (`/metrics`, `/healthz`, `/readyz`): frames
    /// are request head blocks.
    Http,
}

/// Per-shard state: the shard's index (for waker lookups) and its
/// live `SubscribeWal` count, which gates the WAL flush waker so
/// shards without subscribers never wake on flushes.
#[derive(Clone)]
pub(crate) struct ShardCtx {
    pub(crate) shard: usize,
    pub(crate) wal_subs: Arc<AtomicUsize>,
}

/// A connection whose outbound backlog exceeds this is a slow client
/// regardless of the write timeout: responses to pipelined requests
/// must not buffer without bound while the timeout clock runs.
const OUT_BACKLOG_CAP: usize = 4 * MAX_FRAME;

/// Compact the outbound buffer once this many flushed bytes accumulate
/// at its front.
const OUT_COMPACT: usize = 64 * 1024;

pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    pub(crate) proto: Proto,
    pub(crate) buf: Vec<u8>,
    /// Complete frames split off `buf`, each stamped with its arrival
    /// time so the per-request deadline is measured per frame, not
    /// from the connection's most recent byte. Native frames are a
    /// `Request` payload; pg frames are `[type byte][body]`.
    pub(crate) pending: VecDeque<(Vec<u8>, Instant)>,
    pub(crate) session: Session,
    pub(crate) last_activity: Instant,
    /// The streaming exchange (build watch, metrics stream, WAL
    /// stream) that owns this connection; queued frames wait for it
    /// to end. Installed by [`job::begin`], taken only by [`job::end`].
    pub(crate) job: Option<Job>,
    pub(crate) dead: bool,
    /// Outbound bytes not yet accepted by the socket; `out_pos` marks
    /// the flushed prefix.
    out: Vec<u8>,
    out_pos: usize,
    /// When the current backlog first hit `WouldBlock` — the write
    /// (slow-client) timeout runs from here and clears when the
    /// backlog drains.
    blocked_since: Option<Instant>,
    /// Driver bookkeeping: when this connection's armed timer fires
    /// (`None` = no timer armed).
    pub(crate) timer_at: Option<Instant>,
    /// Driver bookkeeping: write interest currently registered.
    pub(crate) want_write: bool,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, inner: &Arc<Inner>, proto: Proto) -> Conn {
        Conn {
            stream,
            proto,
            buf: Vec::new(),
            pending: VecDeque::new(),
            session: Session::new(Arc::clone(&inner.db)),
            last_activity: Instant::now(),
            job: None,
            dead: false,
            out: Vec::new(),
            out_pos: 0,
            blocked_since: None,
            timer_at: None,
            want_write: false,
        }
    }

    /// Unwritten outbound bytes exist.
    pub(crate) fn has_backlog(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// A streaming exchange owns this connection.
    pub(crate) fn has_job(&self) -> bool {
        self.job.is_some()
    }

    /// The connection's job advances on another thread's say-so, so a
    /// shard wake is a reason to service it.
    pub(crate) fn wants_wake(&self) -> bool {
        self.job.as_ref().is_some_and(Job::wants_wake)
    }

    /// The earliest instant at which this connection needs servicing
    /// absent any socket event: its job's next emission, the idle
    /// deadline when no job owns it, or — while a backlog exists — the
    /// slow-client write timeout.
    pub(crate) fn next_deadline(&self, cfg: &ServerConfig) -> Option<Instant> {
        if self.dead {
            return None;
        }
        let job_at = self
            .job
            .as_ref()
            .and_then(|j| j.deadline(cfg, self.blocked_since.is_some()));
        let own_at = match self.blocked_since {
            Some(since) => Some(since + cfg.write_timeout),
            None if self.job.is_none() => Some(self.last_activity + cfg.idle_timeout),
            None => None,
        };
        [job_at, own_at].into_iter().flatten().min()
    }
}

/// One service pass over a connection, whatever prompted it — a socket
/// event (`readable` when the socket reported readable or failed), a
/// shard wake, a timer fire, or the executor handing it back. Every
/// step re-checks actual state, so a pass with nothing to do costs no
/// syscall: the socket is read only when `readable`, written only
/// with a backlog.
///
/// Returns `true` when a lock-acquiring frame is at the head of the
/// queue: the caller hands the connection to the shard's executor.
pub(crate) fn service(
    inner: &Arc<Inner>,
    ctx: &ShardCtx,
    conn: &mut Conn,
    readable: bool,
    draining: bool,
) -> bool {
    check_write_timeout(inner, conn);
    try_flush(conn);
    job::pump(inner, ctx, conn);
    if readable && !conn.dead {
        read_socket(inner, conn);
    }
    // Frames queued behind a job run the moment it ends, in the same
    // pass: the client may never send another byte to prompt them.
    let needs_exec = run_pending_inline(inner, ctx, conn, draining);
    check_idle(inner, conn);
    needs_exec
}

/// One drain pass over a shard's connections: a connection with
/// nothing in flight has had its say; once the drain timeout expires
/// everything goes, rolling back open transactions.
pub(crate) fn drain_mark<'a>(inner: &Arc<Inner>, conns: impl Iterator<Item = &'a mut Conn>) {
    let expired = inner.drain_elapsed() >= inner.cfg.drain_timeout;
    // HTTP probe connections survive the early pass so an orchestrator
    // can observe `/readyz` flip during the drain window; every
    // response sent while draining closes its connection (see
    // `crate::http`). Once probes are all that remain *globally*, the
    // drain has nothing left to tell them and they go too — an idle
    // keep-alive probe must not hold the drain open to the timeout.
    let only_probes =
        inner.http_conns.load(Ordering::Acquire) >= inner.conn_count.load(Ordering::Acquire);
    for conn in conns {
        if conn.dead {
            continue;
        }
        let probe = matches!(conn.proto, Proto::Http);
        if probe && !only_probes && !expired {
            continue;
        }
        // A build ends by itself and the client is waiting for its
        // answer; the two streams end only when someone closes them.
        let building = matches!(conn.job, Some(Job::Build(_)));
        if !building && conn.pending.is_empty() && conn.session.current_tx().is_none() {
            conn.dead = true;
        } else if expired {
            if conn.session.current_tx().is_some() {
                inner.stats.drain_rollbacks.bump();
            }
            conn.dead = true;
        }
    }
}

/// Give back the counts a connection was accepted under.
pub(crate) fn uncount_conn(inner: &Arc<Inner>, shard: usize, proto: &Proto) {
    inner.conn_count.fetch_sub(1, Ordering::AcqRel);
    if matches!(proto, Proto::Http) {
        inner.http_conns.fetch_sub(1, Ordering::AcqRel);
    }
    inner.shard_conns[shard].fetch_sub(1, Ordering::AcqRel);
}

/// Release everything a dead connection still holds. However the
/// connection died — EOF, write timeout, malformed frame, drain — a
/// spawned build or a live stream still holds its admission slot;
/// reclaim it here or the server wedges at max_inflight. The build
/// thread itself keeps running detached (the `Db` is refcounted).
pub(crate) fn reap_conn(inner: &Arc<Inner>, ctx: &ShardCtx, conn: &mut Conn) {
    job::end(inner, ctx, conn);
    let _ = conn.session.close(); // rolls back an open tx
    inner.stats.conns_closed.bump();
    uncount_conn(inner, ctx.shard, &conn.proto);
}

/// Pull whatever the socket has and split complete frames off the
/// receive buffer, stamping each with its arrival time: the
/// per-request deadline is measured from when a frame's bytes were
/// all here. (`last_activity` is refreshed by any later pipelined
/// bytes, so it only feeds the idle timeout.)
fn read_socket(inner: &Arc<Inner>, conn: &mut Conn) {
    let mut tmp = [0u8; 4096];
    loop {
        match conn.stream.read(&mut tmp) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => {
                conn.buf.extend_from_slice(&tmp[..n]);
                conn.last_activity = Instant::now();
                if n < tmp.len() {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    match conn.proto {
        Proto::Native => native::split_frames(inner, conn),
        Proto::Pg(_) => pg::split_frames(inner, conn),
        Proto::Http => http::split_frames(inner, conn),
    }
}

/// Execute queued frames. While a job owns this connection the
/// exchange is mid-stream — queued requests wait their turn (for a
/// stream, until it is cut loose or the client disconnects).
pub(crate) fn run_pending(inner: &Arc<Inner>, ctx: &ShardCtx, conn: &mut Conn, draining: bool) {
    while !conn.dead && !conn.has_job() {
        let Some((payload, arrived)) = conn.pending.pop_front() else {
            break;
        };
        handle_payload(inner, ctx, conn, &payload, arrived, draining);
    }
}

/// Execute queued frames that cannot wait on engine locks, stopping
/// at the first one that can. Returns `true` when a lock-acquiring
/// frame remains queued — the driver then hands the connection to the
/// shard's executor thread instead of running it on the event loop.
/// The loop itself must never sit in a lock wait: it services every
/// connection on the shard, including the one whose `Commit` would
/// release the locks the wait is queued behind.
fn run_pending_inline(inner: &Arc<Inner>, ctx: &ShardCtx, conn: &mut Conn, draining: bool) -> bool {
    while !conn.dead && !conn.has_job() {
        let Some((payload, _)) = conn.pending.front() else {
            return false;
        };
        let may_block = match conn.proto {
            Proto::Native => Request::frame_may_block(payload),
            Proto::Pg(_) => pg::frame_may_block(payload),
            // Every HTTP route answers from in-memory state; none can
            // sit in an engine lock wait.
            Proto::Http => false,
        };
        if may_block {
            return true;
        }
        let (payload, arrived) = conn.pending.pop_front().expect("front observed above");
        handle_payload(inner, ctx, conn, &payload, arrived, draining);
    }
    false
}

fn handle_payload(
    inner: &Arc<Inner>,
    ctx: &ShardCtx,
    conn: &mut Conn,
    payload: &[u8],
    arrived: Instant,
    draining: bool,
) {
    match conn.proto {
        Proto::Native => native::handle_payload(inner, ctx, conn, payload, arrived, draining),
        Proto::Pg(_) => pg::handle_payload(inner, ctx, conn, payload, arrived, draining),
        // Admission- and drain-exempt: health probes must answer
        // precisely when the server is saturated or draining.
        Proto::Http => http::handle_payload(inner, conn, payload),
    }
}

/// Close a connection that has been silent past the idle timeout.
/// Connections owned by a job are exempt.
fn check_idle(inner: &Arc<Inner>, conn: &mut Conn) {
    if !conn.dead && !conn.has_job() && conn.last_activity.elapsed() >= inner.cfg.idle_timeout {
        inner.stats.idle_closed.bump();
        conn.dead = true;
    }
}

/// Kill a connection whose backlog has been stuck past the write
/// timeout (the slow-client bound, measured from the first
/// `WouldBlock` of the current backlog).
fn check_write_timeout(inner: &Arc<Inner>, conn: &mut Conn) {
    if let Some(since) = conn.blocked_since {
        if !conn.dead && since.elapsed() >= inner.cfg.write_timeout {
            inner.stats.slow_closed.bump();
            conn.dead = true;
        }
    }
}

/// Queue pre-encoded outbound bytes — a native frame or a batch of
/// pg backend messages — and flush as far as the socket accepts.
/// Never blocks: a `WouldBlock` tail stays in the outbound buffer and
/// resumes on write-readiness, bounded by the write timeout and the
/// backlog cap.
pub(crate) fn send_raw(inner: &Arc<Inner>, conn: &mut Conn, bytes: &[u8]) {
    if conn.dead {
        return;
    }
    if conn.out.len() - conn.out_pos + bytes.len() > OUT_BACKLOG_CAP {
        inner.stats.slow_closed.bump();
        conn.dead = true;
        return;
    }
    conn.out.extend_from_slice(bytes);
    try_flush(conn);
}

/// Push buffered outbound bytes until the socket stops accepting.
fn try_flush(conn: &mut Conn) {
    if conn.dead || !conn.has_backlog() {
        return;
    }
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if conn.blocked_since.is_none() {
                    conn.blocked_since = Some(Instant::now());
                }
                break;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    if conn.out_pos == conn.out.len() {
        conn.out.clear();
        conn.out_pos = 0;
        conn.blocked_since = None;
    } else if conn.out_pos >= OUT_COMPACT {
        conn.out.drain(..conn.out_pos);
        conn.out_pos = 0;
    }
}
