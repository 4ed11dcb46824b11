//! The streaming exchanges that can own a connection. A connection
//! holds at most one [`Job`]; while it does, its queued frames wait.
//!
//! * **build watch** — `CreateIndex` runs the build on its own thread
//!   while the shard streams progress from the build's durable
//!   checkpoints, then the final answer;
//! * **`ObserveStats`** — one [`Response::Metrics`] frame per interval
//!   until the client disconnects;
//! * **`SubscribeWal`** — the log's *flushed* prefix in batched
//!   [`Response::WalFrame`]s, from the shared broadcast ring, until
//!   the client disconnects or falls out of the ring's window.
//!
//! A job holds the admission slot of the request that started it, and
//! a WAL stream also holds its shard's flush-wakeup gate and a
//! broadcast attachment: [`begin`] takes them, [`end`] — and nothing
//! else — gives them back.

use crate::conn::{send_raw, Conn, Proto, ShardCtx};
use crate::native::{metrics_response, protocol_err, send};
use crate::{Inner, ServerConfig};
use mohan_common::{Error, IndexId, TableId};
use mohan_oib::build::{build_indexes_observed, BuildOptions, IndexSpec};
use mohan_oib::progress::{self, BuildProgress};
use mohan_oib::schema::BuildAlgorithm;
use mohan_pgwire::proto as pgproto;
use mohan_wire::frame::MAX_FRAME;
use mohan_wire::message::{BuildPhase, ErrorCode, Response};
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where a spawned build thread deposits its outcome.
type BuildResult = Arc<Mutex<Option<Result<Vec<IndexId>, Error>>>>;

/// Where the build thread publishes the index ids it registered, as
/// soon as they are allocated (before any scan work).
type BuildIds = Arc<Mutex<Option<Vec<IndexId>>>>;

/// A `CreateIndex` running on its own thread for one connection.
pub(crate) struct BuildJob {
    result: BuildResult,
    /// Ids this build registered — the only ids whose progress this
    /// connection reports (another connection may be building on the
    /// same table concurrently).
    ids: BuildIds,
    /// Last progress frame sent, to emit only on change.
    last_sent: Option<(u32, BuildPhase, u64)>,
    last_poll: Instant,
}

/// An `ObserveStats` subscription.
pub(crate) struct ObserveJob {
    interval: Duration,
    last_emit: Instant,
}

/// A `SubscribeWal` subscription. Frames come from the shared
/// broadcast ring (`Inner::broadcast`) — each flushed suffix is
/// scanned and encoded once for every subscriber — with bounded
/// private scans only while the cursor is below the ring's retained
/// window.
pub(crate) struct WalSubJob {
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

impl WalSubJob {
    /// A frame went out; the cursor now stands at `next`.
    fn emitted(&mut self, next: u64) {
        self.next = next;
        self.primed = true;
        self.last_emit = Instant::now();
    }
}

/// The streaming exchange that owns a connection.
pub(crate) enum Job {
    Build(BuildJob),
    Observe(ObserveJob),
    WalSub(WalSubJob),
}

impl Job {
    pub(crate) fn observe(interval: Duration) -> Job {
        Job::Observe(ObserveJob {
            interval,
            last_emit: Instant::now(),
        })
    }

    pub(crate) fn wal_sub(from_lsn: u64) -> Job {
        Job::WalSub(WalSubJob {
            next: from_lsn,
            last_emit: Instant::now(),
            primed: false,
            caught_up: false,
        })
    }

    /// When the job next needs a [`pump`] absent any event. `blocked`:
    /// the socket is not taking the connection's backlog — progress
    /// and metrics frames pause until it drains, so they set no
    /// deadline, but a WAL stream still owes heartbeats (the
    /// follower's liveness signal).
    pub(crate) fn deadline(&self, cfg: &ServerConfig, blocked: bool) -> Option<Instant> {
        match self {
            Job::Build(j) => (!blocked).then(|| j.last_poll + cfg.progress_interval),
            Job::Observe(j) => (!blocked).then(|| j.last_emit + j.interval),
            Job::WalSub(j) => Some(j.last_emit + WAL_SUB_HEARTBEAT),
        }
    }

    /// Another thread moves this job along and wakes the shard when it
    /// has: a build thread depositing its result, a WAL flush past a
    /// subscriber. (A metrics stream moves on its timer alone.)
    pub(crate) fn wants_wake(&self) -> bool {
        matches!(self, Job::Build(_) | Job::WalSub(_))
    }
}

/// Hand the connection to `job`. The admission slot of the request
/// being executed goes with it (the caller reports the slot as kept).
pub(crate) fn begin(inner: &Arc<Inner>, ctx: &ShardCtx, conn: &mut Conn, job: Job) {
    debug_assert!(conn.job.is_none(), "queued frames wait for a job to end");
    if matches!(job, Job::WalSub(_)) {
        ctx.wal_subs.fetch_add(1, Ordering::AcqRel);
        inner.broadcast.subscriber_attached();
    }
    conn.job = Some(job);
}

/// End the connection's job, if it has one, and give back what
/// [`begin`] took — the admission slot, and for a WAL stream the
/// shard's flush-wakeup gate and the broadcast attachment. However the
/// job ends (finished, cut loose, connection reaped), it ends here.
pub(crate) fn end(inner: &Arc<Inner>, ctx: &ShardCtx, conn: &mut Conn) {
    let Some(job) = conn.job.take() else {
        return;
    };
    if matches!(job, Job::WalSub(_)) {
        ctx.wal_subs.fetch_sub(1, Ordering::AcqRel);
        inner.broadcast.subscriber_detached();
    }
    inner.release();
}

/// Move the connection's job as far as it will go right now: whatever
/// became due or ready goes into the outbound buffer, and a job that
/// finished is ended.
pub(crate) fn pump(inner: &Arc<Inner>, ctx: &ShardCtx, conn: &mut Conn) {
    if conn.dead {
        return;
    }
    match conn.job {
        Some(Job::Build(_)) => watch_build(inner, ctx, conn),
        Some(Job::Observe(_)) => pump_observe(inner, conn),
        // One step ships at most a burst of chunks; a flush that
        // published a large suffix keeps stepping until nothing is
        // ready or the socket pushes back.
        Some(Job::WalSub(_)) => while pump_wal_sub(inner, ctx, conn) {},
        None => {}
    }
}

// ===================================================================
// ObserveStats
// ===================================================================

/// Emit the next frame of a connection's `ObserveStats` stream when
/// its interval has elapsed. Paused while a backlog exists — the
/// frames would only pile onto a socket that is not draining.
fn pump_observe(inner: &Arc<Inner>, conn: &mut Conn) {
    if conn.has_backlog() {
        return;
    }
    match &mut conn.job {
        Some(Job::Observe(job)) if job.last_emit.elapsed() >= job.interval => {
            job.last_emit = Instant::now();
        }
        _ => return,
    }
    inner.stats.observe_frames.bump();
    let frame = metrics_response(inner);
    send(inner, conn, &frame);
}

// ===================================================================
// SubscribeWal
// ===================================================================

/// Idle subscriptions still get a frame this often: an empty
/// `WalFrame` is a heartbeat carrying the advancing flushed LSN.
const WAL_SUB_HEARTBEAT: Duration = Duration::from_millis(200);
/// Most records one `WalFrame` carries.
const WAL_SUB_MAX_RECORDS: usize = 1024;
/// Byte budget for one frame's record blob, far under `MAX_FRAME`.
const WAL_SUB_MAX_BYTES: usize = 1 << 20;
/// Most ring chunks one [`pump_wal_sub`] step ships before re-checking
/// the socket.
const WAL_BURST_CHUNKS: usize = 4;

fn wal_sub(conn: &mut Conn) -> Option<&mut WalSubJob> {
    match &mut conn.job {
        Some(Job::WalSub(job)) => Some(job),
        _ => None,
    }
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
/// heartbeat when the log is quiet; `true` when records went out and
/// more may be ready. Only the flushed prefix ever goes out: a record
/// past the flushed tail could still be discarded by a crash, and a
/// follower must never apply state the primary would not itself
/// recover.
///
/// Records come from the shared broadcast ring: whichever subscriber
/// pumps first scans and encodes the newly flushed suffix *once*, and
/// every other subscriber ships the same pre-encoded chunks from its
/// own cursor. A cursor below the ring's retained window gets bounded
/// private scans (a fresh replica catching up); one that *fell out*
/// of the window is cut loose — see [`PumpPlan`].
fn pump_wal_sub(inner: &Arc<Inner>, ctx: &ShardCtx, conn: &mut Conn) -> bool {
    let Some(job) = wal_sub(conn) else {
        return false;
    };
    let cursor = job.next;
    let heartbeat_due = !job.primed || job.last_emit.elapsed() >= WAL_SUB_HEARTBEAT;

    inner.broadcast.fill(&inner.db.wal);

    let plan = match inner.broadcast.tail_from(cursor, WAL_BURST_CHUNKS) {
        mohan_wal::Tail::Chunks(chunks) => PumpPlan::Chunks(chunks),
        mohan_wal::Tail::CaughtUp => PumpPlan::Heartbeat,
        mohan_wal::Tail::CatchUp { through } => PumpPlan::Scan { through },
        mohan_wal::Tail::Behind { retained_from } if job.caught_up => {
            PumpPlan::CutLoose { retained_from }
        }
        mohan_wal::Tail::Behind { retained_from } => PumpPlan::Scan {
            through: retained_from.saturating_sub(1),
        },
    };
    if matches!(plan, PumpPlan::Chunks(_) | PumpPlan::Heartbeat) {
        job.caught_up = true;
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
    if let Some(j) = wal_sub(conn) {
        j.emitted(j.next);
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
            end(inner, ctx, conn);
            return false;
        }
        inner.stats.wal_frames.bump();
        inner.stats.wal_records.add(u64::from(chunk.count));
        send_raw(inner, conn, framed);
        if conn.dead {
            return false;
        }
        if let Some(j) = wal_sub(conn) {
            j.emitted(chunk.last_lsn + 1);
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
    let Some(job) = wal_sub(conn) else {
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
    job.emitted(last.0 + 1);
    let flushed = inner.db.wal.flushed_lsn().0;
    let count = count as u32;
    // Trace tags ride the frame so the follower's apply spans join
    // the primary-side trace that caused each record.
    let traces = inner.db.wal.trace_tags_for(first, last.0);
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

/// Terminate a lagging subscription with [`ErrorCode::SubscriptionLagged`],
/// without closing the connection. The follower treats it as
/// "resubscribe from where you are" — the catch-up scans in
/// [`ship_scan`] then walk it back into the window.
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
    end(inner, ctx, conn);
}

// ===================================================================
// build watch
// ===================================================================

/// One frame of a build exchange, rendered per protocol: a native
/// [`Response`], or pg backend messages appended to a buffer. (HTTP
/// connections never start builds.)
fn send_per_proto(
    inner: &Arc<Inner>,
    conn: &mut Conn,
    native: impl FnOnce() -> Response,
    pg: impl FnOnce(&mut Vec<u8>),
) {
    if let Proto::Pg(_) = conn.proto {
        let mut out = Vec::new();
        pg(&mut out);
        send_raw(inner, conn, &out);
    } else {
        send(inner, conn, &native());
    }
}

/// Refuse a build before it spawns.
fn build_refuse(inner: &Arc<Inner>, conn: &mut Conn, e: &Error) {
    send_per_proto(
        inner,
        conn,
        || Response::from_error(e),
        |out| pgproto::error_response(out, mohan_pgwire::sqlstate_of(e), &e.to_string()),
    );
}

/// Spawn an online index build on its own thread and hand this
/// connection to it. Both protocols land here — the native
/// `CreateIndex` opcodes and a SQL `CREATE INDEX` (via the pg
/// executor's validated `StmtOutcome::StartBuild`). Returns `true`
/// when the build started: the request's admission slot then stays
/// held until the build's job ends.
pub(crate) fn start_build(
    inner: &Arc<Inner>,
    ctx: &ShardCtx,
    conn: &mut Conn,
    table: TableId,
    algorithm: BuildAlgorithm,
    specs: Vec<IndexSpec>,
    options: BuildOptions,
) -> bool {
    // The statement-level rejections the engine would raise, answered
    // before a build thread spawns for nothing.
    if specs.is_empty() {
        build_refuse(inner, conn, &Error::InvalidArg("no index specs".into()));
        return false;
    }
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
            let r = build_indexes_observed(&db, table, &specs, algorithm, &options, |registered| {
                *ids_slot.lock() = Some(registered.to_vec());
            });
            *slot.lock() = Some(r);
            waker.wake();
        });
    if spawned.is_err() {
        inner.stats.builds_failed.bump();
        let msg = "could not spawn build thread";
        send_per_proto(
            inner,
            conn,
            || protocol_err(ErrorCode::Internal, msg),
            |out| pgproto::error_response(out, "XX000", msg),
        );
        return false;
    }
    // First frame immediately: the client knows the build was admitted
    // before any checkpoint exists to poll.
    inner.stats.progress_frames.bump();
    let starting = (0, BuildPhase::Starting, 0);
    send_per_proto(
        inner,
        conn,
        || progress_frame(starting),
        |out| pgproto::notice_response(out, "index build: Starting"),
    );
    let job = BuildJob {
        result,
        ids,
        last_sent: Some(starting),
        last_poll: Instant::now(),
    };
    begin(inner, ctx, conn, Job::Build(job));
    true
}

fn progress_frame((index, phase, detail): (u32, BuildPhase, u64)) -> Response {
    Response::Progress {
        index,
        phase,
        detail,
    }
}

/// Poll a connection's running build: stream progress on change, and
/// finish the exchange when the build thread reports its result. The
/// final frames go out (into the buffer) even against a backlog —
/// they end the exchange and are bounded — but progress frames pause
/// until the socket drains.
fn watch_build(inner: &Arc<Inner>, ctx: &ShardCtx, conn: &mut Conn) {
    let backlog = conn.has_backlog();
    let Some(Job::Build(job)) = &mut conn.job else {
        return;
    };

    let finished = { job.result.lock().take() };
    if let Some(result) = finished {
        end(inner, ctx, conn);
        match &result {
            Ok(_) => {
                inner.stats.builds_done.bump();
                inner.stats.progress_frames.bump();
            }
            Err(_) => inner.stats.builds_failed.bump(),
        }
        if let Proto::Pg(_) = conn.proto {
            // SQL exchange: NOTICE + CommandComplete (or
            // ErrorResponse), then the ReadyForQuery deferred since
            // the CREATE INDEX statement.
            let mut out = Vec::new();
            match result {
                Ok(ids) => {
                    let done = format!("index build: Done ({} indexes)", ids.len());
                    pgproto::notice_response(&mut out, &done);
                    pgproto::command_complete(&mut out, "CREATE INDEX");
                }
                Err(e) => {
                    pgproto::error_response(&mut out, mohan_pgwire::sqlstate_of(&e), &e.to_string())
                }
            }
            pgproto::ready_for_query(&mut out, crate::pg::tx_status(conn));
            send_raw(inner, conn, &out);
            return;
        }
        match result {
            Ok(ids) => {
                let first = ids.first().map_or(0, |id| id.0);
                send(inner, conn, &progress_frame((first, BuildPhase::Done, 0)));
                let ids = ids.into_iter().map(|id| id.0).collect();
                send(inner, conn, &Response::IndexCreated { ids });
            }
            Err(e) => send(inner, conn, &Response::from_error(&e)),
        }
        return;
    }

    if backlog || job.last_poll.elapsed() < inner.cfg.progress_interval {
        return;
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
    let current = ids.into_iter().flatten().find_map(|id| {
        let p = progress::load(&inner.db, id).ok()??;
        let (phase, detail) = phase_of(&p);
        Some((id.0, phase, detail))
    });
    let Some(frame) = current else { return };
    if job.last_sent == Some(frame) {
        return;
    }
    job.last_sent = Some(frame);
    inner.stats.progress_frames.bump();
    send_per_proto(
        inner,
        conn,
        || progress_frame(frame),
        // Progress as NOTICE lines: visible in psql mid-build without
        // breaking the simple-query exchange.
        |out| {
            let (index, phase, detail) = frame;
            pgproto::notice_response(out, &format!("index build {index}: {phase:?} ({detail})"));
        },
    );
}

fn phase_of(p: &BuildProgress) -> (BuildPhase, u64) {
    match p {
        // The scan partitions' combined position.
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
