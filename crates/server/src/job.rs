//! The streaming exchanges that can own a connection. A connection
//! holds at most one [`Job`]; while it does, its queued frames wait.
//!
//! * **build watch** — `CreateIndex` runs the build on one of the
//!   engine's build workers while the shard streams progress from the
//!   build's durable checkpoints, then the final answer;
//! * **`SubscribeWal`** — the log's *flushed* prefix in batched
//!   [`Response::WalFrame`]s, copied out of the log at the stream's
//!   own cursor, until the client disconnects.
//!
//! A job holds the admission slot of the request that started it, and
//! a WAL stream also holds its shard's flush-wakeup gate: [`begin`]
//! takes them, [`end`] — and nothing else — gives them back.

use crate::conn::{send_raw, Conn, Proto, ShardCtx};
use crate::native::{protocol_err, send};
use crate::request::{refuse, Refusal};
use crate::Inner;
use mohan_common::codec::Wire;
use mohan_common::{Error, IndexId, TableId};
use mohan_oib::build::{spawn_build_indexes, BuildOptions, IndexSpec};
use mohan_oib::progress;
use mohan_oib::schema::BuildAlgorithm;
use mohan_pgwire::proto as pgproto;
use mohan_wire::frame::MAX_FRAME;
use mohan_wire::message::{BuildPhase, ErrorCode, Response};
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often a build's checkpoints are polled for progress frames.
const PROGRESS_INTERVAL: Duration = Duration::from_millis(25);

/// Where a build deposits its outcome: its index ids, or why it
/// failed (the engine refused or cancelled it, or it panicked — the
/// worker it ran on lives on).
type BuildResult = Arc<Mutex<Option<Result<Vec<IndexId>, Refusal>>>>;

/// What the client is told of a build's panic: its message, if it was a
/// string.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string payload");
    format!("index build panicked: {msg}")
}

/// Where the build publishes the index ids it registered, as
/// soon as they are allocated (before any scan work).
type BuildIds = Arc<Mutex<Option<Vec<IndexId>>>>;

/// A `CreateIndex` running on a build worker for one connection.
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

/// A `SubscribeWal` subscription: a cursor into the log, and the pin
/// that keeps the log from truncating under it.
pub(crate) struct WalSubJob {
    /// Next LSN to ship.
    next: u64,
    /// Keeps `next` and everything after it in the log: a checkpoint
    /// truncates no record this stream has yet to ship.
    pin: mohan_wal::LogPin,
    /// When the last frame (records or heartbeat) went out.
    last_emit: Instant,
    /// Force an immediate first frame so the subscriber learns the
    /// primary's flushed LSN without waiting out a heartbeat.
    primed: bool,
}

impl WalSubJob {
    /// A frame went out; the cursor now stands at `next`.
    fn emitted(&mut self, next: u64) {
        self.next = next;
        self.pin.advance(mohan_common::Lsn(next));
        self.primed = true;
        self.last_emit = Instant::now();
    }
}

/// The streaming exchange that owns a connection.
pub(crate) enum Job {
    Build(BuildJob),
    WalSub(WalSubJob),
}

impl Job {
    pub(crate) fn wal_sub(from_lsn: u64, pin: mohan_wal::LogPin) -> Job {
        Job::WalSub(WalSubJob {
            next: from_lsn,
            pin,
            last_emit: Instant::now(),
            primed: false,
        })
    }

    /// When the job next needs a [`pump`] absent any event. `blocked`:
    /// the socket is not taking the connection's backlog — progress
    /// frames pause until it drains, so they set no deadline, but a
    /// WAL stream still owes heartbeats (the follower's liveness
    /// signal).
    pub(crate) fn deadline(&self, blocked: bool) -> Option<Instant> {
        match self {
            Job::Build(j) => (!blocked).then(|| j.last_poll + PROGRESS_INTERVAL),
            Job::WalSub(j) => Some(j.last_emit + WAL_SUB_HEARTBEAT),
        }
    }
}

/// Hand the connection to `job`. The admission slot of the request
/// being executed goes with it (the caller reports the slot as kept).
pub(crate) fn begin(ctx: &ShardCtx, conn: &mut Conn, job: Job) {
    debug_assert!(conn.job.is_none(), "queued frames wait for a job to end");
    if matches!(job, Job::WalSub(_)) {
        ctx.wal_subs.fetch_add(1, Ordering::AcqRel);
    }
    conn.job = Some(job);
}

/// End the connection's job, if it has one, and give back what
/// [`begin`] took — the admission slot, and for a WAL stream the
/// shard's flush-wakeup gate. However the job ends (finished, refused
/// a record it cannot ship, connection reaped), it ends here.
pub(crate) fn end(inner: &Arc<Inner>, ctx: &ShardCtx, conn: &mut Conn) {
    let Some(job) = conn.job.take() else {
        return;
    };
    if matches!(job, Job::WalSub(_)) {
        ctx.wal_subs.fetch_sub(1, Ordering::AcqRel);
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
        // One step ships one frame; a flush that published a large
        // suffix keeps stepping until nothing is ready or the socket
        // pushes back.
        Some(Job::WalSub(_)) => while pump_wal_sub(inner, ctx, conn) {},
        None => {}
    }
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

fn wal_sub(conn: &mut Conn) -> Option<&mut WalSubJob> {
    match &mut conn.job {
        Some(Job::WalSub(job)) => Some(job),
        _ => None,
    }
}

/// Ship the next frame of a connection's WAL subscription, or a
/// heartbeat when there is nothing to ship; `true` when records went
/// out and more may be ready. Only the flushed prefix ever goes out: a
/// record past the flushed tail could still be discarded by a crash,
/// and a follower must never apply state the primary would not itself
/// recover.
///
/// Records wait while the socket has a backlog — they coalesce into
/// bigger frames once it drains — but liveness must not: a backlogged
/// follower still gets periodic heartbeats, so it can tell "I am slow"
/// apart from "the primary is dead". The stream's pin holds every
/// record it has yet to ship in the log however long it waits.
fn pump_wal_sub(inner: &Arc<Inner>, ctx: &ShardCtx, conn: &mut Conn) -> bool {
    let Some(job) = wal_sub(conn) else {
        return false;
    };
    let next = job.next;
    let heartbeat_due = !job.primed || job.last_emit.elapsed() >= WAL_SUB_HEARTBEAT;
    let flushed = inner.db.wal.flushed_lsn().0;
    if next <= flushed && !conn.has_backlog() && ship(inner, ctx, conn, next, flushed) {
        return true;
    }
    if heartbeat_due {
        emit_heartbeat(inner, conn, flushed);
    }
    false
}

/// Emit an empty `WalFrame` carrying only the flushed LSN — the
/// stream's liveness signal. Nothing once the stream has ended.
fn emit_heartbeat(inner: &Arc<Inner>, conn: &mut Conn, flushed: u64) {
    let Some(job) = wal_sub(conn) else {
        return;
    };
    job.emitted(job.next);
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

/// Copy one frame's worth of `next ..= flushed` out of the log and
/// queue it, moving the cursor and its pin past what it carries. The
/// byte cap applies before a record is taken, so a full frame is never
/// extended past the budget; a record that alone exceeds it (e.g. a
/// catalog snapshot) travels in its own frame. A record too large for
/// any frame can never ship: the stream ends with an explicit error,
/// before the cursor moves past it.
fn ship(inner: &Arc<Inner>, ctx: &ShardCtx, conn: &mut Conn, next: u64, flushed: u64) -> bool {
    let mut records = Vec::new();
    let (count, last) = inner.db.wal.copy_range(
        mohan_common::Lsn(next - 1),
        mohan_common::Lsn(flushed),
        WAL_SUB_MAX_RECORDS,
        WAL_SUB_MAX_BYTES,
        &mut records,
    );
    if count == 0 {
        return false;
    }
    // Trace tags ride the frame so the follower's apply spans join
    // the primary-side trace that caused each record.
    let traces = inner.db.wal.trace_tags_for(next, last.0);
    // Encoded behind room for its length prefix: one buffer, one copy.
    let mut framed = Vec::with_capacity(64 + records.len() + 16 * traces.len());
    framed.extend_from_slice(&[0; 4]);
    Response::WalFrame {
        flushed,
        count: count as u32,
        records,
        traces,
    }
    .put(&mut framed);
    let len = framed.len() - 4;
    if len > MAX_FRAME {
        let msg = format!("WAL record {next} exceeds the wire frame cap");
        send(inner, conn, &protocol_err(ErrorCode::Internal, &msg));
        end(inner, ctx, conn);
        return false;
    }
    framed[..4].copy_from_slice(&(len as u32).to_be_bytes());
    inner.stats.wal_frames.bump();
    inner.stats.wal_records.add(count as u64);
    if let Some(job) = wal_sub(conn) {
        job.emitted(last.0 + 1);
    }
    send_raw(inner, conn, &framed);
    !conn.dead
}

// ===================================================================
// build watch
// ===================================================================

/// One progress frame of a build exchange, rendered per protocol: a
/// native [`Response::Progress`], or a pg `NOTICE` line — visible in
/// psql mid-build without breaking the simple-query exchange. (HTTP
/// connections never start builds.)
fn send_progress(inner: &Arc<Inner>, conn: &mut Conn, frame: (u32, BuildPhase, u64)) {
    inner.stats.progress_frames.bump();
    let (index, phase, detail) = frame;
    if let Proto::Pg(_) = conn.proto {
        let line = match phase {
            BuildPhase::Starting => "index build: Starting".to_string(),
            _ => format!("index build {index}: {phase:?} ({detail})"),
        };
        let mut out = Vec::new();
        pgproto::notice_response(&mut out, &line);
        send_raw(inner, conn, &out);
    } else {
        send(
            inner,
            conn,
            &Response::Progress {
                index,
                phase,
                detail,
            },
        );
    }
}

/// Start an online index build on one of the engine's build workers
/// and hand this connection to it. Both protocols land here — the
/// native `CreateIndex` opcodes and a SQL `CREATE INDEX` (via the pg
/// executor's validated `StmtOutcome::StartBuild`). Returns `true`
/// when the build started: the request's admission slot then stays
/// held until the build's job ends. The build runs under this
/// request's trace context (the engine carries it to the worker).
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
    // before a build starts for nothing.
    let refused = if specs.is_empty() {
        Some(Error::InvalidArg("no index specs".into()))
    } else if let Err(e) = options.validate() {
        Some(e)
    } else {
        conn.session.current_tx().map(Error::TxAlreadyOpen)
    };
    if let Some(e) = refused {
        refuse(inner, conn, &Refusal::Engine(e));
        return false;
    }
    let result: BuildResult = Arc::new(Mutex::new(None));
    let ids: BuildIds = Arc::new(Mutex::new(None));
    let slot = Arc::clone(&result);
    let ids_slot = Arc::clone(&ids);
    // Wake the owning shard when the result lands, so a blocked
    // reactor notices completion immediately instead of at the next
    // progress-poll deadline.
    let waker = inner.shard_waker(ctx.shard);
    inner.stats.builds_started.bump();
    spawn_build_indexes(
        &inner.db,
        table,
        specs,
        algorithm,
        options,
        move |registered| *ids_slot.lock() = Some(registered.to_vec()),
        move |outcome| {
            *slot.lock() = Some(match outcome {
                Ok(r) => r.map_err(Refusal::Engine),
                Err(payload) => Err(Refusal::Internal(panic_message(&*payload))),
            });
            waker.wake();
        },
    );
    // First frame immediately: the client knows the build was admitted
    // before any checkpoint exists to poll.
    let starting = (0, BuildPhase::Starting, 0);
    send_progress(inner, conn, starting);
    let job = BuildJob {
        result,
        ids,
        last_sent: Some(starting),
        last_poll: Instant::now(),
    };
    begin(ctx, conn, Job::Build(job));
    true
}

/// Poll a connection's running build: stream progress on change, and
/// finish the exchange when the build worker reports its result. The
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
        let ids = match result {
            Ok(ids) => ids,
            Err(refusal) => {
                inner.stats.builds_failed.bump();
                return refuse(inner, conn, &refusal);
            }
        };
        inner.stats.builds_done.bump();
        if let Proto::Pg(_) = conn.proto {
            // SQL exchange: NOTICE + CommandComplete, then the
            // ReadyForQuery deferred since the CREATE INDEX statement.
            inner.stats.progress_frames.bump();
            let mut out = Vec::new();
            let done = format!("index build: Done ({} indexes)", ids.len());
            pgproto::notice_response(&mut out, &done);
            pgproto::command_complete(&mut out, "CREATE INDEX");
            pgproto::ready_for_query(&mut out, crate::pg::tx_status(conn));
            send_raw(inner, conn, &out);
        } else {
            let first = ids.first().map_or(0, |id| id.0);
            send_progress(inner, conn, (first, BuildPhase::Done, 0));
            let ids = ids.into_iter().map(|id| id.0).collect();
            send(inner, conn, &Response::IndexCreated { ids });
        }
        return;
    }

    if backlog || job.last_poll.elapsed() < PROGRESS_INTERVAL {
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
        let (phase, detail) = p.phase();
        Some((id.0, phase, detail))
    });
    let Some(frame) = current else { return };
    if job.last_sent == Some(frame) {
        return;
    }
    job.last_sent = Some(frame);
    send_progress(inner, conn, frame);
}
