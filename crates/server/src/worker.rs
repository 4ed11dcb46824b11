//! Worker shards: each worker owns a set of non-blocking connections
//! and services them — read bytes, split frames, execute requests
//! through the connection's [`Session`], write responses, watch
//! running builds and streams.
//!
//! Two drive modes share every helper in this file:
//!
//! * **reactor** (`crate::reactor::driver`) — the shard blocks in its
//!   [`crate::reactor::IoBackend`] until a socket is ready or a timer
//!   deadline arrives, so idle connections cost zero wakeups;
//! * **threaded sleep** ([`worker_loop`]) — the legacy config-gated
//!   fallback: scan every connection, sleep 500µs when nothing moved.
//!
//! Responses are *buffered*: a send appends to the connection's
//! outbound buffer and flushes as far as the socket accepts. A
//! `WouldBlock` mid-frame therefore never stalls the shard — the
//! unwritten tail stays buffered and resumes on write-readiness (or
//! next tick on the fallback), with the write timeout measured from
//! when the backlog first appeared.
//!
//! One worker executes one request at a time (closed-loop per shard);
//! concurrency comes from the shard count plus build threads. The
//! global in-flight cap spans all shards, so admission control is a
//! property of the server, not of a lucky shard assignment.

use crate::pg::ConnKind;
use crate::Inner;
use mohan_common::{Error, IndexId, KeyValue, Rid, TableId};
use mohan_oib::build::{build_indexes_observed, BuildOptions, IndexSpec};
use mohan_oib::progress::{self, BuildProgress};
use mohan_oib::schema::{BuildAlgorithm, Record};
use mohan_oib::Session;
use mohan_wire::frame::{take_frame, write_frame, MAX_FRAME};
use mohan_wire::message::{
    proto_major, proto_version, BuildAlgo, BuildOptionsWire, BuildPhase, ErrorCode,
    HistogramSummaryWire, Request, Response, Role, PROTO_MAJOR,
};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Opcode names in [`opcode_index`] order; `Inner::req_us` holds one
/// `server.req_us.<opcode>` histogram per entry.
pub(crate) const OPCODES: &[&str] = &[
    "Ping",
    "Begin",
    "Commit",
    "Rollback",
    "Insert",
    "Update",
    "Delete",
    "Read",
    "Lookup",
    "CreateIndex",
    "Stats",
    "Metrics",
    "ObserveStats",
    "SubscribeWal",
    "Hello",
    "Promote",
    "TraceDump",
    "CreateIndexV2",
];

/// Index of a request's opcode into [`OPCODES`] / `Inner::req_us`.
/// Kept in lockstep with [`Request::name`] by a unit test.
fn opcode_index(req: &Request) -> usize {
    match req {
        Request::Ping => 0,
        Request::Begin => 1,
        Request::Commit => 2,
        Request::Rollback => 3,
        Request::Insert { .. } => 4,
        Request::Update { .. } => 5,
        Request::Delete { .. } => 6,
        Request::Read { .. } => 7,
        Request::Lookup { .. } => 8,
        Request::CreateIndex { .. } => 9,
        Request::Stats => 10,
        Request::Metrics => 11,
        Request::ObserveStats { .. } => 12,
        Request::SubscribeWal { .. } => 13,
        Request::Hello { .. } => 14,
        Request::Promote => 15,
        Request::TraceDump { .. } => 16,
        Request::CreateIndexV2 { .. } => 17,
    }
}

/// Per-shard state shared by both drive modes: the shard's index (for
/// waker lookups) and its live `SubscribeWal` count, which gates the
/// WAL flush waker so shards without subscribers never wake on
/// flushes.
#[derive(Clone)]
pub(crate) struct ShardCtx {
    pub(crate) shard: usize,
    pub(crate) wal_subs: Arc<AtomicUsize>,
}

/// Where a spawned build thread deposits its outcome.
type BuildResult = Arc<Mutex<Option<Result<Vec<IndexId>, Error>>>>;

/// Where the build thread publishes the index ids it registered, as
/// soon as they are allocated (before any scan work).
type BuildIds = Arc<Mutex<Option<Vec<IndexId>>>>;

/// A `CreateIndex` running on its own thread for one connection.
struct BuildJob {
    result: BuildResult,
    /// Ids this build registered — the only ids whose progress this
    /// connection reports (another connection may be building on the
    /// same table concurrently).
    ids: BuildIds,
    /// Last progress frame sent, to emit only on change.
    last_sent: Option<(u32, BuildPhase, u64)>,
    last_poll: Instant,
}

/// An `ObserveStats` subscription: the connection becomes a metrics
/// stream, receiving one [`Response::Metrics`] frame per interval
/// until the client disconnects.
struct ObserveJob {
    interval: Duration,
    last_emit: Instant,
}

/// A `SubscribeWal` subscription: the connection becomes a WAL
/// stream, tailing the log's *flushed* prefix in batched
/// [`Response::WalFrame`]s until the client disconnects. The frames
/// come from the shared broadcast ring (`Inner::broadcast`) — each
/// flushed suffix is scanned and encoded once for every subscriber —
/// with bounded private scans only while the cursor is below the
/// ring's retained window.
struct WalSubJob {
    /// Next LSN to ship.
    next: u64,
    /// When the last frame (records or heartbeat) went out.
    last_emit: Instant,
    /// Force an immediate first frame so the subscriber learns the
    /// primary's flushed LSN without waiting out a heartbeat.
    primed: bool,
    /// Whether this cursor has ever reached the broadcast ring's
    /// retained window. Only a subscriber that was inside the window
    /// and fell out of it is cut loose; one that started behind it
    /// (a fresh replica subscribing from an old LSN) is served by
    /// catch-up scans until it re-enters — otherwise every
    /// resubscription below the window would be cut again, forever.
    caught_up: bool,
}

/// Idle subscriptions still get a frame this often: an empty
/// `WalFrame` is a heartbeat carrying the advancing flushed LSN.
pub(crate) const WAL_SUB_HEARTBEAT: Duration = Duration::from_millis(200);
/// Most records one `WalFrame` carries.
const WAL_SUB_MAX_RECORDS: usize = 1024;
/// Byte budget for one frame's record blob, far under `MAX_FRAME`.
const WAL_SUB_MAX_BYTES: usize = 1 << 20;
/// Most ring chunks one [`pump_wal_sub`] call ships
/// before re-checking the socket; [`pump_wal_burst`] keeps pumping
/// until the backlog pushes back or the cursor catches up.
const WAL_BURST_CHUNKS: usize = 4;

/// A connection whose outbound backlog exceeds this is a slow client
/// regardless of the write timeout: responses to pipelined requests
/// must not buffer without bound while the timeout clock runs.
const OUT_BACKLOG_CAP: usize = 4 * MAX_FRAME;

/// Compact the outbound buffer once this many flushed bytes accumulate
/// at its front.
const OUT_COMPACT: usize = 64 * 1024;

pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    /// Which protocol this connection speaks, plus its protocol
    /// state; decided by the accepting listener.
    pub(crate) proto: crate::pg::Proto,
    pub(crate) buf: Vec<u8>,
    /// Complete frames split off `buf`, each stamped with its arrival
    /// time so the per-request deadline is measured per frame, not
    /// from the connection's most recent byte. Native frames are a
    /// `Request` payload; pg frames are `[type byte][body]`.
    pub(crate) pending: VecDeque<(Vec<u8>, Instant)>,
    pub(crate) session: Session,
    pub(crate) last_activity: Instant,
    build: Option<BuildJob>,
    observe: Option<ObserveJob>,
    wal_sub: Option<WalSubJob>,
    pub(crate) dead: bool,
    /// Outbound bytes not yet accepted by the socket; `out_pos` marks
    /// the flushed prefix.
    out: Vec<u8>,
    out_pos: usize,
    /// When the current backlog first hit `WouldBlock` — the write
    /// (slow-client) timeout runs from here and clears when the
    /// backlog drains.
    pub(crate) blocked_since: Option<Instant>,
    /// Reactor-driver bookkeeping: when this connection's armed timer
    /// fires (`None` = no timer armed). Unused by the threaded loop.
    pub(crate) timer_at: Option<Instant>,
    /// Reactor-driver bookkeeping: write interest currently registered.
    pub(crate) want_write: bool,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, inner: &Arc<Inner>, kind: ConnKind) -> Conn {
        Conn {
            stream,
            proto: match kind {
                ConnKind::Native => crate::pg::Proto::Native,
                ConnKind::Pg => crate::pg::Proto::Pg(Default::default()),
                ConnKind::Http => crate::pg::Proto::Http,
            },
            buf: Vec::new(),
            pending: VecDeque::new(),
            session: Session::new(Arc::clone(&inner.db)),
            last_activity: Instant::now(),
            build: None,
            observe: None,
            wal_sub: None,
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

    /// Any streaming exchange (build/metrics/WAL) owns this
    /// connection.
    pub(crate) fn has_job(&self) -> bool {
        self.build.is_some() || self.observe.is_some() || self.wal_sub.is_some()
    }

    /// A running build whose result may arrive from another thread.
    pub(crate) fn has_build(&self) -> bool {
        self.build.is_some()
    }

    /// A live WAL subscription (pumped on flush wakeups).
    pub(crate) fn has_wal_sub(&self) -> bool {
        self.wal_sub.is_some()
    }

    /// The earliest instant at which this connection needs servicing
    /// absent any socket event: stream emission intervals, the build
    /// progress poll, the idle deadline, or — while a backlog exists —
    /// the slow-client write timeout (stream pumps pause on backlog,
    /// so nothing shorter matters until the socket drains).
    pub(crate) fn next_deadline(&self, cfg: &crate::ServerConfig) -> Option<Instant> {
        if self.dead {
            return None;
        }
        if let Some(b) = self.blocked_since {
            // While blocked, the write timeout dominates — except that
            // a backlogged WAL subscription still owes heartbeats (the
            // follower's liveness signal), so its emission deadline
            // stays armed alongside it.
            let mut at = b + cfg.write_timeout;
            if let Some(j) = &self.wal_sub {
                at = at.min(j.last_emit + WAL_SUB_HEARTBEAT);
            }
            return Some(at);
        }
        let mut at: Option<Instant> = None;
        let mut fold = |t: Instant| at = Some(at.map_or(t, |a: Instant| a.min(t)));
        if let Some(j) = &self.build {
            fold(j.last_poll + cfg.progress_interval);
        }
        if let Some(j) = &self.observe {
            fold(j.last_emit + j.interval);
        }
        if let Some(j) = &self.wal_sub {
            fold(j.last_emit + WAL_SUB_HEARTBEAT);
        }
        if !self.has_job() {
            fold(self.last_activity + cfg.idle_timeout);
        }
        at
    }
}

/// The legacy sleep-poll shard loop (`io_backend = threaded`): scan
/// every connection each tick, sleep 500µs when nothing progressed.
/// Kept config-gated as the portable no-reactor fallback; the event
/// loop lives in `crate::reactor::driver`.
/// A threaded-loop connection slot: serviced by the tick loop,
/// checked out to the shard's executor thread, or vacant.
// `Live` dominating the enum's size is the point: connections live
// inline in the slot vector, and `Out`/`Empty` are transient
// placeholders — boxing would buy an allocation per checkout.
#[allow(clippy::large_enum_variant)]
enum TickSlot {
    Live(Conn),
    Out,
    Empty,
}

pub(crate) fn worker_loop(
    inner: &Arc<Inner>,
    ctx: &ShardCtx,
    rx: &mpsc::Receiver<(TcpStream, ConnKind)>,
) {
    // Lock-acquiring frames run on this executor thread so the tick
    // loop never sits in a lock wait: the loop must stay free to run
    // the peer's `Commit`/`Rollback` that releases the contended
    // lock (see `run_pending_inline`). The reactor driver does the
    // same with its own executor.
    let (exec_tx, exec_rx) = mpsc::channel::<(usize, Conn)>();
    let (ret_tx, ret_rx) = mpsc::channel::<(usize, Conn)>();
    let exec = {
        let inner = Arc::clone(inner);
        let ctx = ctx.clone();
        std::thread::Builder::new()
            .name(format!("oib-exec-{}", ctx.shard))
            .spawn(move || {
                while let Ok((slot, mut conn)) = exec_rx.recv() {
                    run_pending(&inner, &ctx, &mut conn, inner.draining());
                    if ret_tx.send((slot, conn)).is_err() {
                        return;
                    }
                }
            })
            .expect("spawn executor thread")
    };

    let mut slots: Vec<TickSlot> = Vec::new();
    let mut out = 0usize;
    loop {
        let draining = inner.draining();
        while let Ok((stream, kind)) = rx.try_recv() {
            if draining {
                inner.conn_count.fetch_sub(1, Ordering::AcqRel);
                if matches!(kind, crate::pg::ConnKind::Http) {
                    inner.http_conns.fetch_sub(1, Ordering::AcqRel);
                }
                inner.shard_conns[ctx.shard].fetch_sub(1, Ordering::AcqRel);
                drop(stream); // accepted in the race window; EOF to client
                continue;
            }
            let conn = Conn::new(stream, inner, kind);
            match slots.iter().position(|s| matches!(s, TickSlot::Empty)) {
                Some(i) => slots[i] = TickSlot::Live(conn),
                None => slots.push(TickSlot::Live(conn)),
            }
        }
        // Connections back from the executor resume normal service.
        while let Ok((i, conn)) = ret_rx.try_recv() {
            out -= 1;
            slots[i] = TickSlot::Live(conn);
        }

        // A tick is this backend's "wakeup": the contrast with the
        // reactor backends (which only wake on events) is the whole
        // point of the `server.wakeups` counter.
        inner.stats.wakeups.bump();
        let mut progressed = 0u64;
        for (i, slot) in slots.iter_mut().enumerate() {
            let TickSlot::Live(conn) = slot else {
                continue;
            };
            let (prog, needs_exec) = service_conn(inner, ctx, conn, draining);
            if prog || needs_exec {
                progressed += 1;
            }
            if needs_exec {
                let TickSlot::Live(conn) = std::mem::replace(slot, TickSlot::Out) else {
                    unreachable!()
                };
                inner.stats.exec_offloads.bump();
                match exec_tx.send((i, conn)) {
                    Ok(()) => out += 1,
                    Err(mpsc::SendError((_, mut conn))) => {
                        // Executor gone: degrade to inline execution.
                        run_pending(inner, ctx, &mut conn, draining);
                        *slot = TickSlot::Live(conn);
                    }
                }
            }
        }
        inner.events_per_wait.record(progressed);

        if draining {
            drain_mark(
                inner,
                slots.iter_mut().filter_map(|s| match s {
                    TickSlot::Live(conn) => Some(conn),
                    _ => None,
                }),
            );
        }

        for slot in &mut slots {
            if let TickSlot::Live(conn) = slot {
                if conn.dead {
                    reap_conn(inner, ctx, conn);
                    *slot = TickSlot::Empty;
                }
            }
        }

        if draining && out == 0 && slots.iter().all(|s| matches!(s, TickSlot::Empty)) {
            break;
        }
        if progressed == 0 {
            std::thread::sleep(Duration::from_micros(500));
        }
    }
    drop(exec_tx);
    let _ = exec.join();
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
        let probe = matches!(conn.proto, crate::pg::Proto::Http);
        if probe && !only_probes && !expired {
            continue;
        }
        if conn.build.is_none() && conn.pending.is_empty() && conn.session.current_tx().is_none() {
            conn.dead = true;
        } else if expired {
            if conn.session.current_tx().is_some() {
                inner.stats.drain_rollbacks.bump();
            }
            conn.dead = true;
        }
    }
}

/// Release everything a dead connection still holds. However the
/// connection died — EOF, write timeout, malformed frame, drain — a
/// spawned build or a live stream still holds its admission slot;
/// reclaim it here or the server wedges at max_inflight. The build
/// thread itself keeps running detached (the `Db` is refcounted).
pub(crate) fn reap_conn(inner: &Arc<Inner>, ctx: &ShardCtx, conn: &mut Conn) {
    if conn.build.take().is_some() {
        inner.release();
    }
    if conn.observe.take().is_some() {
        inner.release();
    }
    if conn.wal_sub.take().is_some() {
        inner.release();
        ctx.wal_subs.fetch_sub(1, Ordering::AcqRel);
        inner.broadcast.subscriber_detached();
    }
    let _ = conn.session.close(); // rolls back an open tx
    inner.stats.conns_closed.bump();
    inner.conn_count.fetch_sub(1, Ordering::AcqRel);
    if matches!(conn.proto, crate::pg::Proto::Http) {
        inner.http_conns.fetch_sub(1, Ordering::AcqRel);
    }
    inner.shard_conns[ctx.shard].fetch_sub(1, Ordering::AcqRel);
}

/// One service pass over a connection (threaded backend). Returns true
/// if any work happened (so the worker only sleeps on a fully idle
/// shard).
pub(crate) fn service_conn(
    inner: &Arc<Inner>,
    ctx: &ShardCtx,
    conn: &mut Conn,
    draining: bool,
) -> (bool, bool) {
    let mut progressed = false;
    if conn.has_backlog() {
        progressed |= try_flush(conn);
        check_write_timeout(inner, conn);
        if conn.dead {
            return (true, false);
        }
    }
    if conn.build.is_some() {
        progressed |= watch_build(inner, conn);
    }
    if conn.observe.is_some() {
        progressed |= pump_observe(inner, conn);
    }
    if conn.wal_sub.is_some() {
        progressed |= pump_wal_sub(inner, ctx, conn);
    }

    progressed |= read_socket(inner, conn);
    if conn.dead {
        return (true, false);
    }
    let before = conn.pending.len();
    let needs_exec = run_pending_inline(inner, ctx, conn, draining);
    progressed |= conn.pending.len() != before;
    progressed |= check_idle(inner, conn);
    (progressed, needs_exec)
}

/// Pull whatever the socket has and split complete frames off the
/// receive buffer, stamping each with its arrival time: the
/// per-request deadline is measured from when a frame's bytes were
/// all here. (`last_activity` is refreshed by any later pipelined
/// bytes, so it only feeds the idle timeout.)
pub(crate) fn read_socket(inner: &Arc<Inner>, conn: &mut Conn) -> bool {
    let mut progressed = false;
    let mut tmp = [0u8; 4096];
    loop {
        match conn.stream.read(&mut tmp) {
            Ok(0) => {
                conn.dead = true;
                return true;
            }
            Ok(n) => {
                conn.buf.extend_from_slice(&tmp[..n]);
                conn.last_activity = Instant::now();
                progressed = true;
                if n < tmp.len() {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return true;
            }
        }
    }

    match conn.proto {
        crate::pg::Proto::Pg(_) => {
            crate::pg::split_frames(inner, conn);
            return progressed;
        }
        crate::pg::Proto::Http => {
            crate::http::split_frames(inner, conn);
            return progressed;
        }
        crate::pg::Proto::Native => {}
    }
    while !conn.dead {
        match take_frame(&mut conn.buf) {
            Ok(None) => break,
            Ok(Some(payload)) => {
                conn.pending.push_back((payload, Instant::now()));
            }
            Err(_) => {
                // Oversized length prefix: framing is unrecoverable.
                inner.stats.malformed.bump();
                send(
                    inner,
                    conn,
                    &protocol_err(ErrorCode::Malformed, "frame too large"),
                );
                conn.dead = true;
            }
        }
    }
    progressed
}

/// Execute queued frames. While a build or a metrics/WAL stream owns
/// this connection the exchange is mid-stream — queued requests wait
/// their turn (for a stream, until the client disconnects).
pub(crate) fn run_pending(
    inner: &Arc<Inner>,
    ctx: &ShardCtx,
    conn: &mut Conn,
    draining: bool,
) -> bool {
    let mut progressed = false;
    while !conn.dead && !conn.has_job() {
        let Some((payload, arrived)) = conn.pending.pop_front() else {
            break;
        };
        progressed = true;
        handle_payload(inner, ctx, conn, &payload, arrived, draining);
    }
    progressed
}

/// Execute queued frames that cannot wait on engine locks, stopping
/// at the first one that can. Returns `true` when a lock-acquiring
/// frame remains queued — the reactor driver then hands the
/// connection to the shard's executor thread instead of running it
/// on the event loop. The loop itself must never sit in a lock wait:
/// it services every connection on the shard, including the one
/// whose `Commit` would release the locks the wait is queued behind.
pub(crate) fn run_pending_inline(
    inner: &Arc<Inner>,
    ctx: &ShardCtx,
    conn: &mut Conn,
    draining: bool,
) -> bool {
    while !conn.dead && !conn.has_job() {
        let Some((payload, _)) = conn.pending.front() else {
            return false;
        };
        let may_block = match conn.proto {
            crate::pg::Proto::Native => Request::frame_may_block(payload),
            crate::pg::Proto::Pg(_) => crate::pg::frame_may_block(payload),
            // Every HTTP route answers from in-memory state; none can
            // sit in an engine lock wait.
            crate::pg::Proto::Http => false,
        };
        if may_block {
            return true;
        }
        let (payload, arrived) = conn.pending.pop_front().expect("front observed above");
        handle_payload(inner, ctx, conn, &payload, arrived, draining);
    }
    false
}

/// Close a connection that has been silent past the idle timeout.
/// Connections owned by a build or stream are exempt.
pub(crate) fn check_idle(inner: &Arc<Inner>, conn: &mut Conn) -> bool {
    if !conn.dead && !conn.has_job() && conn.last_activity.elapsed() >= inner.cfg.idle_timeout {
        inner.stats.idle_closed.bump();
        conn.dead = true;
        return true;
    }
    false
}

/// Kill a connection whose backlog has been stuck past the write
/// timeout (the slow-client bound, measured from the first
/// `WouldBlock` of the current backlog).
pub(crate) fn check_write_timeout(inner: &Arc<Inner>, conn: &mut Conn) {
    if let Some(since) = conn.blocked_since {
        if !conn.dead && since.elapsed() >= inner.cfg.write_timeout {
            inner.stats.slow_closed.bump();
            conn.dead = true;
        }
    }
}

fn protocol_err(code: ErrorCode, message: &str) -> Response {
    Response::Err {
        code,
        message: message.into(),
    }
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
        crate::pg::Proto::Pg(_) => {
            crate::pg::handle_payload(inner, ctx, conn, payload, arrived, draining);
            return;
        }
        // Admission- and drain-exempt: health probes must answer
        // precisely when the server is saturated or draining.
        crate::pg::Proto::Http => {
            crate::http::handle_payload(inner, conn, payload);
            return;
        }
        crate::pg::Proto::Native => {}
    }
    // The trace envelope is transport dressing, peeled before decode;
    // a bare frame passes through unchanged.
    let (supplied_trace, payload) = mohan_wire::peel_traced(payload);
    let Some(req) = Request::decode(payload) else {
        inner.stats.malformed.bump();
        send(
            inner,
            conn,
            &protocol_err(ErrorCode::Malformed, "undecodable request"),
        );
        return;
    };

    // During a drain, only finishing an open transaction is allowed.
    if draining && !matches!(req, Request::Commit | Request::Rollback) {
        send(
            inner,
            conn,
            &protocol_err(ErrorCode::Draining, "server is draining"),
        );
        return;
    }

    // Commit/Rollback are exempt from admission control: they release
    // locks (and the client's next request slot), so refusing them at
    // the cap would let a saturated server deadlock against itself —
    // the blocked statements hold every slot while waiting for exactly
    // those locks. Ping is exempt as a pure liveness probe, and Hello
    // likewise: a handshake refused with Busy would read as a protocol
    // mismatch to the peer.
    let admitted = if matches!(
        req,
        Request::Commit | Request::Rollback | Request::Ping | Request::Hello { .. }
    ) {
        false
    } else if inner.admit() {
        true
    } else {
        inner.stats.busy_rejects.bump();
        send(inner, conn, &Response::Busy);
        return;
    };

    // `arrived` is when this frame was completely received; by the
    // time the worker gets here it may have sat behind pipelined
    // predecessors or a slow statement on a sibling connection.
    let waited = arrived.elapsed();
    if waited >= inner.cfg.request_deadline {
        inner.stats.deadline_rejects.bump();
        if admitted {
            inner.release();
        }
        send(
            inner,
            conn,
            &protocol_err(
                ErrorCode::DeadlineExceeded,
                &format!("queued {}ms", waited.as_millis()),
            ),
        );
        return;
    }

    inner.stats.requests.bump();
    let opcode = req.name();
    let op_idx = opcode_index(&req);
    // Every executed request runs under a trace context: the client's
    // id when the frame arrived enveloped, a fresh one otherwise. The
    // `wire.recv` span is the trace's root on this process — engine
    // events (lock waits, WAL flushes, build phases) fired during
    // execution link under it through the thread-local context.
    let _trace_scope = mohan_obs::install_ctx(mohan_obs::ctx_for(supplied_trace.unwrap_or(0)));
    let recv_span = inner
        .db
        .obs
        .trace()
        .span("wire.recv", opcode)
        .with_detail(waited.as_micros().min(u128::from(u64::MAX)) as u64);
    let started = Instant::now();
    let keep_slot = execute(inner, ctx, conn, req);
    let ran = started.elapsed();
    inner.req_us[op_idx].record_micros(ran);
    let slow = ran >= inner.cfg.slow_request;
    if slow {
        inner.db.obs.trace().span_event(
            "server.slow_request",
            opcode,
            ran.as_micros().min(u128::from(u64::MAX)) as u64,
            waited.as_micros().min(u128::from(u64::MAX)) as u64,
        );
    }
    // Commit before the slow dump so the rendered tree has its root.
    recv_span.commit();
    if slow {
        log_slow_trace(inner, opcode, ran);
    }
    if ran + waited >= inner.cfg.request_deadline {
        inner.stats.deadline_overruns.bump();
    }
    if admitted && !keep_slot {
        inner.release();
    }
}

/// Dump the current trace's reconstructed span tree to stderr — the
/// slow-request log. Only sampled traces have anything to render;
/// unsampled ones already recorded nothing.
pub(crate) fn log_slow_trace(inner: &Arc<Inner>, opcode: &str, ran: Duration) {
    let Some(tctx) = mohan_obs::current_ctx() else {
        return;
    };
    if !tctx.sampled {
        return;
    }
    let tree = mohan_obs::render_span_tree(&inner.db.obs.trace().events_filtered(tctx.trace_id, 0));
    eprintln!(
        "slow request: {opcode} took {}ms, trace {:#x}:\n{tree}",
        ran.as_millis(),
        tctx.trace_id
    );
}

/// Execute one request and send its response(s). Returns true when
/// the admission slot stays held past this call (a spawned build).
fn execute(inner: &Arc<Inner>, ctx: &ShardCtx, conn: &mut Conn, req: Request) -> bool {
    // Role gate: on a replication follower, writes are refused with a
    // redirect hint and data reads are bounded by the configured
    // staleness budget. Checked here, at the wire boundary, so the
    // answer can carry `leader_hint`; the session layer repeats the
    // write check underneath as defense in depth.
    if inner.db.is_replica() {
        match &req {
            Request::Begin
            | Request::Insert { .. }
            | Request::Update { .. }
            | Request::Delete { .. }
            | Request::CreateIndex { .. }
            | Request::CreateIndexV2 { .. } => {
                send(
                    inner,
                    conn,
                    &Response::Err {
                        code: ErrorCode::NotWritable {
                            leader_hint: inner.cfg.leader_hint.clone(),
                        },
                        message: "server is a replication follower; writes go to the primary"
                            .into(),
                    },
                );
                return false;
            }
            Request::Read { .. } | Request::Lookup { .. } => {
                let lag = inner.db.repl_lag();
                if lag > inner.cfg.max_lag_lsn {
                    inner.reads_stale.bump();
                    send(
                        inner,
                        conn,
                        &Response::Err {
                            code: ErrorCode::Stale { lag },
                            message: format!(
                                "replication lag {lag} LSNs exceeds max_lag_lsn {}",
                                inner.cfg.max_lag_lsn
                            ),
                        },
                    );
                    return false;
                }
            }
            _ => {}
        }
    }
    let resp = match req {
        Request::Ping => Response::Pong,
        Request::Begin => match conn.session.begin() {
            Ok(tx) => Response::TxBegun { tx: tx.0 },
            Err(e) => Response::from_error(&e),
        },
        Request::Commit => match conn.session.commit() {
            Ok(()) => Response::Committed,
            Err(e) => Response::from_error(&e),
        },
        Request::Rollback => match conn.session.rollback() {
            Ok(()) => Response::RolledBack,
            Err(e) => Response::from_error(&e),
        },
        Request::Insert { table, cols } => {
            match conn.session.insert(TableId(table), &Record(cols)) {
                Ok(rid) => Response::Inserted { rid: rid.pack() },
                Err(e) => Response::from_error(&e),
            }
        }
        Request::Update { table, rid, cols } => {
            match conn
                .session
                .update(TableId(table), Rid::unpack(rid), &Record(cols))
            {
                Ok(_) => Response::Updated,
                Err(e) => Response::from_error(&e),
            }
        }
        Request::Delete { table, rid } => {
            match conn.session.delete(TableId(table), Rid::unpack(rid)) {
                Ok(_) => Response::Deleted,
                Err(e) => Response::from_error(&e),
            }
        }
        Request::Read { table, rid } => match conn.session.read(TableId(table), Rid::unpack(rid)) {
            Ok(rec) => {
                if inner.db.is_replica() {
                    inner.reads_served.bump();
                }
                Response::Record { cols: rec.0 }
            }
            Err(e) => Response::from_error(&e),
        },
        Request::Lookup { index, key } => {
            match conn.session.lookup(IndexId(index), &KeyValue(key)) {
                Ok(rids) => {
                    if inner.db.is_replica() {
                        inner.reads_served.bump();
                    }
                    Response::Rids {
                        rids: rids.into_iter().map(Rid::pack).collect(),
                    }
                }
                Err(e) => Response::from_error(&e),
            }
        }
        Request::Stats => {
            let mut counters = inner.stats.snapshot();
            counters.push(("engine.active_txs".into(), inner.db.active_txs() as u64));
            counters.push((
                "server.inflight".into(),
                inner.inflight.load(Ordering::Acquire) as u64,
            ));
            let b = &inner.broadcast;
            counters.push(("repl.fanout.subscribers".into(), b.subscribers()));
            counters.push(("repl.fanout.ring_chunks".into(), b.ring_chunks()));
            counters.push(("repl.fanout.ring_bytes".into(), b.ring_bytes()));
            counters.push(("repl.fanout.scans".into(), b.scans()));
            counters.push(("repl.fanout.encodes".into(), b.encodes()));
            counters.push(("repl.fanout.evicted".into(), b.chunks_evicted()));
            counters.push(("repl.fanout.cut_loose".into(), b.cut_loose()));
            // Sorted so responses are deterministic and clients can
            // binary-search; `ServerStats::snapshot` emits in struct
            // order and the two gauges above land at the tail.
            counters.sort_by(|a, b| a.0.cmp(&b.0));
            Response::Stats { counters }
        }
        Request::Metrics => metrics_response(inner),
        Request::ObserveStats { interval_ms } => {
            let interval = Duration::from_millis(u64::from(interval_ms).clamp(10, 60_000));
            // First frame immediately: the subscriber gets a baseline
            // before the first interval elapses.
            inner.stats.observe_frames.bump();
            let first = metrics_response(inner);
            send(inner, conn, &first);
            conn.observe = Some(ObserveJob {
                interval,
                last_emit: Instant::now(),
            });
            return true; // slot stays held while the stream is live
        }
        Request::SubscribeWal { from_lsn } => {
            // Only `1 ..= flushed + 1` are valid starting points:
            // below 1 no record exists, and past the flushed tail the
            // requested records either don't exist yet or could still
            // be discarded by a crash — a follower asking for them has
            // state the primary would not recover with.
            let flushed = inner.db.wal.flushed_lsn().0;
            if from_lsn == 0 || from_lsn > flushed + 1 {
                send(
                    inner,
                    conn,
                    &protocol_err(
                        ErrorCode::Malformed,
                        &format!("from_lsn {from_lsn} outside 1..={}", flushed + 1),
                    ),
                );
                return false;
            }
            inner.stats.wal_subs.bump();
            ctx.wal_subs.fetch_add(1, Ordering::AcqRel);
            inner.broadcast.subscriber_attached();
            conn.wal_sub = Some(WalSubJob {
                next: from_lsn,
                last_emit: Instant::now(),
                primed: false,
                caught_up: false,
            });
            pump_wal_sub(inner, ctx, conn);
            return true; // slot stays held while the stream is live
        }
        Request::CreateIndex { table, algo, specs } => {
            return start_build(
                inner,
                ctx,
                conn,
                TableId(table),
                algo,
                specs,
                BuildOptionsWire::default(),
            );
        }
        Request::CreateIndexV2 {
            table,
            algo,
            specs,
            options,
        } => {
            return start_build(inner, ctx, conn, TableId(table), algo, specs, options);
        }
        Request::Hello {
            proto_version: theirs,
            role,
        } => {
            if proto_major(theirs) != PROTO_MAJOR {
                protocol_err(
                    ErrorCode::UnsupportedProto,
                    &format!(
                        "peer speaks protocol major {}, server speaks {PROTO_MAJOR}",
                        proto_major(theirs)
                    ),
                )
            } else {
                inner
                    .db
                    .obs
                    .trace()
                    .event("server.hello", format!("{role:?}"), u64::from(theirs));
                Response::Welcome {
                    proto_version: proto_version(),
                    role: if inner.db.is_replica() {
                        Role::Replica
                    } else {
                        Role::Primary
                    },
                    flushed_lsn: inner.db.wal.flushed_lsn().0,
                }
            }
        }
        Request::Promote => {
            if !inner.db.is_replica() {
                protocol_err(ErrorCode::Internal, "already a primary")
            } else {
                match &inner.cfg.promote_hook {
                    None => protocol_err(ErrorCode::Internal, "no promotion hook configured"),
                    Some(hook) => match hook.call() {
                        Ok(p) => Response::Promoted {
                            last_lsn: p.last_lsn,
                            losers_undone: p.losers_undone,
                        },
                        Err(msg) => protocol_err(ErrorCode::Internal, &msg),
                    },
                }
            }
        }
        Request::TraceDump {
            trace_id,
            since_seq,
        } => Response::TraceDump {
            jsonl: inner
                .db
                .obs
                .trace()
                .dump_jsonl_filtered(trace_id, since_seq),
        },
    };
    send(inner, conn, &resp);
    false
}

/// Assemble one [`Response::Metrics`] frame: the engine registry's
/// counters, gauges, and histogram summaries merged with the server's
/// own counters and live gauges, everything sorted by name.
fn metrics_response(inner: &Arc<Inner>) -> Response {
    let snap = inner.db.obs.snapshot();
    let mut counters = snap.counters; // includes the engine.active_txs gauge
    counters.extend(inner.stats.snapshot());
    counters.push((
        "server.inflight".into(),
        inner.inflight.load(Ordering::Acquire) as u64,
    ));
    counters.sort_by(|a, b| a.0.cmp(&b.0));
    let hists = snap
        .histograms
        .into_iter()
        .map(|(name, h)| {
            let summary = HistogramSummaryWire {
                count: h.count,
                sum: h.sum,
                max: h.max,
                p50: h.p50(),
                p90: h.p90(),
                p99: h.p99(),
            };
            (name, summary)
        })
        .collect();
    Response::Metrics { counters, hists }
}

/// Emit the next frame of a connection's `ObserveStats` stream when
/// its interval has elapsed. Paused while a backlog exists — the
/// frames would only pile onto a socket that is not draining.
pub(crate) fn pump_observe(inner: &Arc<Inner>, conn: &mut Conn) -> bool {
    if conn.has_backlog() {
        return false;
    }
    let due = match &mut conn.observe {
        Some(job) if job.last_emit.elapsed() >= job.interval => {
            job.last_emit = Instant::now();
            true
        }
        _ => false,
    };
    if !due {
        return false;
    }
    inner.stats.observe_frames.bump();
    let frame = metrics_response(inner);
    send(inner, conn, &frame);
    true
}

/// What one pump step decided to do for a subscriber, derived from
/// where its cursor sits relative to the broadcast ring.
enum PumpPlan {
    /// Cursor is inside the retained window: ship pre-encoded chunks.
    Chunks(Vec<Arc<mohan_wal::WalChunk>>),
    /// Cursor is below the window (or between chunk boundaries): a
    /// bounded private scan through `through` inclusive, after which
    /// the cursor lands on a chunk boundary and rejoins the ring.
    Scan { through: u64 },
    /// Cursor was inside the window and fell out of it: cut the
    /// stream loose with a structured error so the follower
    /// resubscribes instead of waiting forever.
    CutLoose { retained_from: u64 },
    /// Nothing flushed past the cursor: heartbeat when due.
    Heartbeat,
}

/// Ship the next batch of a connection's WAL subscription, or a
/// heartbeat when the log is quiet. Only the flushed prefix ever goes
/// out: a record past the flushed tail could still be discarded by a
/// crash, and a follower must never apply state the primary would not
/// itself recover.
///
/// Records come from the shared broadcast ring: whichever subscriber
/// pumps first scans and encodes the newly flushed suffix *once*, and
/// every other subscriber ships the same pre-encoded chunks from its
/// own cursor. A cursor below the ring's retained window gets bounded
/// private scans (a fresh replica catching up); one that *fell out*
/// of the window is cut loose — see [`PumpPlan`].
pub(crate) fn pump_wal_sub(inner: &Arc<Inner>, ctx: &ShardCtx, conn: &mut Conn) -> bool {
    let Some(job) = &conn.wal_sub else {
        return false;
    };
    let (cursor, caught_up) = (job.next, job.caught_up);
    let heartbeat_due = !job.primed || job.last_emit.elapsed() >= WAL_SUB_HEARTBEAT;

    inner.broadcast.fill(&inner.db.wal);

    let plan = match inner.broadcast.tail_from(cursor, WAL_BURST_CHUNKS) {
        mohan_wal::Tail::Chunks(chunks) => PumpPlan::Chunks(chunks),
        mohan_wal::Tail::CaughtUp => PumpPlan::Heartbeat,
        mohan_wal::Tail::CatchUp { through } => PumpPlan::Scan { through },
        mohan_wal::Tail::Behind { retained_from } if caught_up => {
            PumpPlan::CutLoose { retained_from }
        }
        mohan_wal::Tail::Behind { retained_from } => PumpPlan::Scan {
            through: retained_from.saturating_sub(1),
        },
    };
    if matches!(plan, PumpPlan::Chunks(_) | PumpPlan::Heartbeat) {
        if let Some(j) = conn.wal_sub.as_mut() {
            j.caught_up = true;
        }
    }

    match plan {
        PumpPlan::CutLoose { retained_from } => {
            // Executes even against a backlog: the error frame rides
            // the existing buffer and the ring no longer owes this
            // cursor anything.
            cut_loose(inner, ctx, conn, cursor, retained_from);
            false
        }
        PumpPlan::Heartbeat => {
            if heartbeat_due {
                emit_heartbeat(inner, conn);
            }
            false
        }
        _ if conn.has_backlog() => {
            // Records wait for the socket to drain and coalesce into
            // bigger batches, but liveness must not: a backlogged
            // follower still gets periodic heartbeats, so it can tell
            // "I am slow" apart from "the primary is dead".
            if heartbeat_due {
                emit_heartbeat(inner, conn);
            }
            false
        }
        PumpPlan::Chunks(chunks) => ship_chunks(inner, ctx, conn, &chunks),
        PumpPlan::Scan { through } => ship_scan(inner, conn, through),
    }
}

/// Emit an empty `WalFrame` carrying only the flushed LSN — the
/// stream's liveness signal.
fn emit_heartbeat(inner: &Arc<Inner>, conn: &mut Conn) {
    let flushed = inner.db.wal.flushed_lsn().0;
    if let Some(j) = conn.wal_sub.as_mut() {
        j.primed = true;
        j.last_emit = Instant::now();
    }
    inner.stats.wal_frames.bump();
    send(
        inner,
        conn,
        &Response::WalFrame {
            flushed,
            count: 0,
            records: Vec::new(),
            traces: Vec::new(),
        },
    );
}

/// Ship pre-encoded ring chunks from the subscriber's cursor. The
/// wire framing for each chunk is built once, on first ship, and
/// cached on the chunk itself — later subscribers reuse the bytes.
fn ship_chunks(
    inner: &Arc<Inner>,
    ctx: &ShardCtx,
    conn: &mut Conn,
    chunks: &[Arc<mohan_wal::WalChunk>],
) -> bool {
    let mut progressed = false;
    for chunk in chunks {
        let framed = chunk.wire_cache.get_or_init(|| {
            let payload = Response::WalFrame {
                flushed: chunk.flushed,
                count: chunk.count,
                records: chunk.records.clone(),
                traces: chunk.traces.clone(),
            }
            .encode();
            let mut framed = Vec::with_capacity(4 + payload.len());
            framed.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            framed.extend_from_slice(&payload);
            framed
        });
        if framed.len() > MAX_FRAME + 4 {
            // A single record too large for any frame can never ship.
            // End the stream with an explicit error instead of letting
            // `send` substitute one mid-stream and silently desync the
            // follower's cursor.
            send(
                inner,
                conn,
                &protocol_err(ErrorCode::Internal, "WAL record exceeds the wire frame cap"),
            );
            drop_sub(inner, ctx, conn);
            return progressed;
        }
        inner.stats.wal_frames.bump();
        inner.stats.wal_records.add(u64::from(chunk.count));
        send_raw(inner, conn, framed);
        if conn.dead {
            return progressed;
        }
        if let Some(j) = conn.wal_sub.as_mut() {
            j.next = chunk.last_lsn + 1;
            j.primed = true;
            j.last_emit = Instant::now();
        }
        progressed = true;
        if conn.has_backlog() {
            break;
        }
    }
    progressed
}

/// Bounded private scan for a cursor below the broadcast window,
/// through `through` inclusive — at most a frame's worth per call, so
/// one lagging follower cannot monopolise the shard.
fn ship_scan(inner: &Arc<Inner>, conn: &mut Conn, through: u64) -> bool {
    let Some(job) = &conn.wal_sub else {
        return false;
    };
    let first = job.next;
    // The byte cap applies before a record is taken, so a full frame is
    // never extended past the budget; a record that alone exceeds it
    // (e.g. a catalog snapshot) travels in its own frame.
    let mut records = Vec::new();
    let (count, last) = inner.db.wal.copy_range(
        mohan_common::Lsn(first - 1),
        mohan_common::Lsn(through),
        WAL_SUB_MAX_RECORDS,
        WAL_SUB_MAX_BYTES,
        &mut records,
    );
    if count == 0 {
        return false;
    }
    let flushed = inner.db.wal.flushed_lsn().0;
    let count = count as u32;
    // Trace tags ride the frame so the follower's apply spans join
    // the primary-side trace that caused each record.
    let traces = inner.db.wal.trace_tags_for(first, last.0);
    let next = last.0 + 1;
    if let Some(j) = conn.wal_sub.as_mut() {
        j.next = next;
        j.primed = true;
        j.last_emit = Instant::now();
    }
    inner.stats.wal_frames.bump();
    inner.stats.wal_records.add(u64::from(count));
    send(
        inner,
        conn,
        &Response::WalFrame {
            flushed,
            count,
            records,
            traces,
        },
    );
    true
}

/// Terminate a lagging subscription with [`ErrorCode::SubscriptionLagged`].
/// The follower treats it as "resubscribe from where you are" — the
/// catch-up scans in [`ship_scan`] then walk it back into the window.
fn cut_loose(inner: &Arc<Inner>, ctx: &ShardCtx, conn: &mut Conn, cursor: u64, retained_from: u64) {
    inner.broadcast.note_cut_loose();
    inner.db.obs.trace().event(
        "repl.cut_loose",
        format!("cursor {cursor} behind window start {retained_from}"),
        retained_from,
    );
    send(
        inner,
        conn,
        &protocol_err(
            ErrorCode::SubscriptionLagged { retained_from },
            &format!("subscriber cursor {cursor} fell behind the broadcast window"),
        ),
    );
    drop_sub(inner, ctx, conn);
}

/// Tear down a WAL subscription without closing the connection:
/// release the admission slot, drop the shard's flush-wakeup gate,
/// and detach from the broadcast ring.
fn drop_sub(inner: &Arc<Inner>, ctx: &ShardCtx, conn: &mut Conn) {
    if conn.wal_sub.take().is_some() {
        inner.release();
        ctx.wal_subs.fetch_sub(1, Ordering::AcqRel);
        inner.broadcast.subscriber_detached();
    }
}

/// Drain a WAL subscription's ready records completely: one
/// [`pump_wal_sub`] ships at most a burst of chunks, so a flush
/// wakeup that published a large suffix keeps pumping until nothing
/// is ready or the socket pushes back.
pub(crate) fn pump_wal_burst(inner: &Arc<Inner>, ctx: &ShardCtx, conn: &mut Conn) -> bool {
    let mut progressed = false;
    while pump_wal_sub(inner, ctx, conn) {
        progressed = true;
    }
    progressed
}

/// Refuse a build before it spawns, rendered per protocol.
fn build_refuse(inner: &Arc<Inner>, conn: &mut Conn, e: &Error) {
    match conn.proto {
        // HTTP connections never start builds; the arm is for match
        // exhaustiveness only.
        crate::pg::Proto::Native | crate::pg::Proto::Http => {
            send(inner, conn, &Response::from_error(e));
        }
        crate::pg::Proto::Pg(_) => {
            let mut out = Vec::new();
            mohan_pgwire::proto::error_response(
                &mut out,
                mohan_pgwire::sqlstate_of(e),
                &e.to_string(),
            );
            send_raw(inner, conn, &out);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn start_build(
    inner: &Arc<Inner>,
    ctx: &ShardCtx,
    conn: &mut Conn,
    table: TableId,
    algo: BuildAlgo,
    specs: Vec<mohan_wire::message::IndexSpecWire>,
    options: BuildOptionsWire,
) -> bool {
    if specs.is_empty() {
        // Same statement-level rejection the engine would raise,
        // answered before a build thread spawns for nothing.
        build_refuse(inner, conn, &Error::InvalidArg("no index specs".into()));
        return false;
    }
    let algorithm = match algo {
        BuildAlgo::Offline => BuildAlgorithm::Offline,
        BuildAlgo::Nsf => BuildAlgorithm::Nsf,
        BuildAlgo::Sf => BuildAlgorithm::Sf,
    };
    let engine_specs: Vec<IndexSpec> = specs.into_iter().map(IndexSpec::from).collect();
    start_build_engine(
        inner,
        ctx,
        conn,
        table,
        algorithm,
        engine_specs,
        BuildOptions::from(options),
    )
}

/// Spawn an online index build on its own thread and attach it to
/// this connection. Both protocols land here — the native
/// `CreateIndex` opcode (via [`start_build`]'s wire-type conversion)
/// and a SQL `CREATE INDEX` (via the pg executor's validated
/// `StmtOutcome::StartBuild`). The immediate first frame and any
/// failure reply are rendered per protocol.
#[allow(clippy::too_many_arguments)]
pub(crate) fn start_build_engine(
    inner: &Arc<Inner>,
    ctx: &ShardCtx,
    conn: &mut Conn,
    table: TableId,
    algorithm: BuildAlgorithm,
    engine_specs: Vec<IndexSpec>,
    options: BuildOptions,
) -> bool {
    if let Some(tx) = conn.session.current_tx() {
        build_refuse(inner, conn, &Error::TxAlreadyOpen(tx));
        return false;
    }
    let result: BuildResult = Arc::new(Mutex::new(None));
    let ids: BuildIds = Arc::new(Mutex::new(None));
    let slot = Arc::clone(&result);
    let ids_slot = Arc::clone(&ids);
    let db = Arc::clone(&inner.db);
    // Wake the owning shard when the result lands, so a blocked
    // reactor notices completion immediately instead of at the next
    // progress-poll deadline.
    let waker = inner.shard_waker(ctx.shard);
    inner.stats.builds_started.bump();
    // Carry the requesting trace onto the build thread: the build's
    // phase transitions, drain passes, and quiesce/flip spans then
    // link into the same trace as the `CREATE INDEX` that caused them.
    let trace_ctx = mohan_obs::current_ctx();
    let spawned = std::thread::Builder::new()
        .name("oib-build".into())
        .spawn(move || {
            let _trace_scope = trace_ctx.map(mohan_obs::install_ctx);
            let r = build_indexes_observed(
                &db,
                table,
                &engine_specs,
                algorithm,
                &options,
                |registered| {
                    *ids_slot.lock() = Some(registered.to_vec());
                },
            );
            *slot.lock() = Some(r);
            if let Some(w) = waker {
                w.wake();
            }
        });
    if spawned.is_err() {
        inner.stats.builds_failed.bump();
        match conn.proto {
            crate::pg::Proto::Native | crate::pg::Proto::Http => send(
                inner,
                conn,
                &protocol_err(ErrorCode::Internal, "could not spawn build thread"),
            ),
            crate::pg::Proto::Pg(_) => {
                let mut out = Vec::new();
                mohan_pgwire::proto::error_response(
                    &mut out,
                    "XX000",
                    "could not spawn build thread",
                );
                send_raw(inner, conn, &out);
            }
        }
        return false;
    }
    // First frame immediately: the client knows the build was admitted
    // before any checkpoint exists to poll.
    inner.stats.progress_frames.bump();
    match conn.proto {
        crate::pg::Proto::Native | crate::pg::Proto::Http => send(
            inner,
            conn,
            &Response::Progress {
                index: 0,
                phase: BuildPhase::Starting,
                detail: 0,
            },
        ),
        crate::pg::Proto::Pg(_) => {
            let mut out = Vec::new();
            mohan_pgwire::proto::notice_response(&mut out, "index build: Starting");
            send_raw(inner, conn, &out);
        }
    }
    conn.build = Some(BuildJob {
        result,
        ids,
        last_sent: Some((0, BuildPhase::Starting, 0)),
        last_poll: Instant::now(),
    });
    true // slot stays held until the build finishes
}

/// Poll a connection's running build: stream progress on change, and
/// finish the exchange when the build thread reports its result. The
/// final frames go out (into the buffer) even against a backlog —
/// they end the exchange and are bounded — but progress frames pause
/// until the socket drains.
pub(crate) fn watch_build(inner: &Arc<Inner>, conn: &mut Conn) -> bool {
    let Some(job) = &mut conn.build else {
        return false;
    };

    let finished = { job.result.lock().take() };
    if let Some(result) = finished {
        if matches!(conn.proto, crate::pg::Proto::Pg(_)) {
            // SQL exchange: NOTICE + CommandComplete (or
            // ErrorResponse), then the ReadyForQuery deferred since
            // the CREATE INDEX statement.
            let mut out = Vec::new();
            match result {
                Ok(ids) => {
                    inner.stats.builds_done.bump();
                    inner.stats.progress_frames.bump();
                    conn.build = None;
                    inner.release();
                    mohan_pgwire::proto::notice_response(
                        &mut out,
                        &format!("index build: Done ({} indexes)", ids.len()),
                    );
                    mohan_pgwire::proto::command_complete(&mut out, "CREATE INDEX");
                }
                Err(e) => {
                    inner.stats.builds_failed.bump();
                    conn.build = None;
                    inner.release();
                    mohan_pgwire::proto::error_response(
                        &mut out,
                        mohan_pgwire::sqlstate_of(&e),
                        &e.to_string(),
                    );
                }
            }
            mohan_pgwire::proto::ready_for_query(&mut out, crate::pg::tx_status(conn));
            send_raw(inner, conn, &out);
            return true;
        }
        let final_resp = match result {
            Ok(ids) => {
                inner.stats.builds_done.bump();
                inner.stats.progress_frames.bump();
                let done = Response::Progress {
                    index: ids.first().map_or(0, |id| id.0),
                    phase: BuildPhase::Done,
                    detail: 0,
                };
                conn.build = None;
                inner.release();
                send(inner, conn, &done);
                Response::IndexCreated {
                    ids: ids.into_iter().map(|id| id.0).collect(),
                }
            }
            Err(e) => {
                inner.stats.builds_failed.bump();
                conn.build = None;
                inner.release();
                Response::from_error(&e)
            }
        };
        send(inner, conn, &final_resp);
        return true;
    }

    if conn.has_backlog() {
        return false;
    }
    let Some(job) = &mut conn.build else {
        return false;
    };
    if job.last_poll.elapsed() < inner.cfg.progress_interval {
        return false;
    }
    job.last_poll = Instant::now();
    // The building indexes' durable checkpoints are the progress
    // source — the same records a post-crash resume would start from.
    // Only the ids this build registered are consulted: another
    // connection may be building on the same table at the same time,
    // and its frames must not leak into this exchange. A finished
    // index clears its progress record, so the first id that still has
    // one is the batch's current position.
    let ids = job.ids.lock().clone();
    let Some(ids) = ids else { return false };
    let mut next: Option<(u32, BuildPhase, u64)> = None;
    for id in ids {
        let Ok(Some(p)) = progress::load(&inner.db, id) else {
            continue;
        };
        let (phase, detail) = phase_of(&p);
        let frame = (id.0, phase, detail);
        if job.last_sent == Some(frame) {
            return false;
        }
        job.last_sent = Some(frame);
        next = Some(frame);
        break;
    }
    let Some((index, phase, detail)) = next else {
        return false;
    };
    inner.stats.progress_frames.bump();
    match conn.proto {
        crate::pg::Proto::Native | crate::pg::Proto::Http => send(
            inner,
            conn,
            &Response::Progress {
                index,
                phase,
                detail,
            },
        ),
        crate::pg::Proto::Pg(_) => {
            // Progress as NOTICE lines: visible in psql mid-build
            // without breaking the simple-query exchange.
            let mut out = Vec::new();
            mohan_pgwire::proto::notice_response(
                &mut out,
                &format!("index build {index}: {phase:?} ({detail})"),
            );
            send_raw(inner, conn, &out);
        }
    }
    true
}

fn phase_of(p: &BuildProgress) -> (BuildPhase, u64) {
    match p {
        BuildProgress::Scanning { sort } => (BuildPhase::Scanning, sort.scan_pos),
        // Parallel scan: report the partitions' combined position.
        BuildProgress::ScanningParallel { parts } => (
            BuildPhase::Scanning,
            parts.iter().map(|p| p.sort.scan_pos).sum(),
        ),
        BuildProgress::Reducing { .. } => (BuildPhase::Reducing, 0),
        BuildProgress::Loading { merge, .. } => (BuildPhase::Loading, merge.emitted),
        BuildProgress::Inserting { inserted, .. } => (BuildPhase::Inserting, *inserted),
        BuildProgress::Draining { pos } => (BuildPhase::Draining, *pos),
    }
}

/// Queue one response on a connection and flush as far as the socket
/// accepts. Never blocks: a `WouldBlock` tail stays in the outbound
/// buffer and resumes on write-readiness (reactor) or next tick
/// (threaded), bounded by the write timeout and the backlog cap.
pub(crate) fn send(inner: &Arc<Inner>, conn: &mut Conn, resp: &Response) {
    if conn.dead {
        return;
    }
    let mut payload = resp.encode();
    if payload.len() > MAX_FRAME {
        // The peer drops the connection on an oversized frame; answer
        // with an in-band error instead. (Unreachable with the current
        // message set — encode-time list clamps keep every response
        // under the cap — but the invariant belongs here, not in each
        // response constructor.)
        payload = protocol_err(ErrorCode::Internal, "response exceeds frame cap").encode();
    }
    debug_assert!({
        // write_frame and this manual framing must agree.
        let mut check = Vec::new();
        write_frame(&mut check, &payload).unwrap();
        let mut framed = Vec::with_capacity(4 + payload.len());
        framed.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        framed.extend_from_slice(&payload);
        check == framed
    });
    let mut framed = Vec::with_capacity(4 + payload.len());
    framed.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    framed.extend_from_slice(&payload);
    send_raw(inner, conn, &framed);
}

/// Queue pre-encoded outbound bytes — a native frame or a batch of
/// pg backend messages — and flush as far as the socket accepts.
/// Shares the backlog cap and slow-client accounting with [`send`].
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
/// Returns true if any byte moved (or the connection died trying).
pub(crate) fn try_flush(conn: &mut Conn) -> bool {
    if conn.dead || !conn.has_backlog() {
        return false;
    }
    let mut progressed = false;
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => {
                conn.dead = true;
                return true;
            }
            Ok(n) => {
                conn.out_pos += n;
                progressed = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if conn.blocked_since.is_none() {
                    conn.blocked_since = Some(Instant::now());
                }
                break;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return true;
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
    progressed
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One value per `Request` variant — a new variant that misses
    /// this list fails the exhaustiveness check in `opcode_index`.
    fn one_of_each() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Begin,
            Request::Commit,
            Request::Rollback,
            Request::Insert {
                table: 1,
                cols: vec![],
            },
            Request::Update {
                table: 1,
                rid: 0,
                cols: vec![],
            },
            Request::Delete { table: 1, rid: 0 },
            Request::Read { table: 1, rid: 0 },
            Request::Lookup {
                index: 1,
                key: vec![],
            },
            Request::CreateIndex {
                table: 1,
                algo: BuildAlgo::Sf,
                specs: vec![],
            },
            Request::Stats,
            Request::Metrics,
            Request::ObserveStats { interval_ms: 100 },
            Request::SubscribeWal { from_lsn: 1 },
            Request::Hello {
                proto_version: proto_version(),
                role: Role::Client,
            },
            Request::Promote,
            Request::TraceDump {
                trace_id: 0,
                since_seq: 0,
            },
            Request::CreateIndexV2 {
                table: 1,
                algo: BuildAlgo::Sf,
                specs: vec![],
                options: BuildOptionsWire::default(),
            },
        ]
    }

    #[test]
    fn opcode_table_matches_request_names() {
        let all = one_of_each();
        assert_eq!(all.len(), OPCODES.len());
        for req in &all {
            assert_eq!(OPCODES[opcode_index(req)], req.name());
        }
    }
}
