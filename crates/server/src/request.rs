//! The one request path both front doors share. A native frame and a
//! SQL query string differ in framing and dispatch only; everything a
//! server decides about a request — whether it runs at all, under
//! which trace, whether it was slow, who holds its admission slot, and
//! what a follower may serve — is decided here, once:
//!
//! * [`serve`] is the envelope around one decoded request;
//! * [`follower_gate`] is the role gate around one statement;
//! * [`refuse`] renders every refusal in the connection's protocol.

use crate::conn::{send_raw, Conn, Proto};
use crate::{native, pg, Inner};
use mohan_common::Error;
use mohan_pgwire::proto as pgproto;
use mohan_wire::message::{error_code_of, ErrorCode, Response};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the envelope treats a request.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Class {
    /// Takes an admission slot; refused while draining.
    Work,
    /// Ends a transaction (`Commit`/`Rollback`): exempt from admission
    /// and still run while draining. Ending a transaction releases
    /// locks (and the client's next slot), so refusing it at the cap
    /// would let a saturated server deadlock against itself — the
    /// blocked statements hold every slot while waiting for exactly
    /// those locks.
    EndsTx,
    /// A liveness probe, handshake or metrics read (`Ping`/`Hello`/
    /// `Metrics`): exempt from admission — a handshake refused with
    /// `Busy` would read as a protocol mismatch, and a dashboard must
    /// still read a saturated server — but refused while draining.
    Probe,
}

/// What the envelope needs to know of one decoded request.
pub(crate) struct Head {
    /// The root span's kind: `wire.recv` or `pg.query`.
    pub(crate) root: &'static str,
    /// The request's name in spans and slow-request events: the native
    /// opcode, or the kind of a query string's first statement.
    pub(crate) label: &'static str,
    pub(crate) class: Class,
    /// The client's trace id, 0 to mint one.
    pub(crate) trace: u64,
}

/// Why a request or statement is answered with an error.
pub(crate) enum Refusal {
    /// The server is draining.
    Draining,
    /// Every admission slot is taken.
    Busy,
    /// The request sat queued this long, past its deadline.
    Deadline(Duration),
    /// The engine refused (the follower gate's refusals included).
    Engine(Error),
    /// A service failure that is no engine error (a build panicked).
    Internal(String),
}

/// Run one decoded request through the envelope, in this order: the
/// drain gate, admission, the deadline refusal, `server.requests`, the
/// trace context and root span, `run`, the slow-request event and dump,
/// and the admission slot's release unless `run` reports a job kept it.
/// Returns how long `run` took, or `None` when the request was refused.
pub(crate) fn serve(
    inner: &Arc<Inner>,
    conn: &mut Conn,
    arrived: Instant,
    draining: bool,
    head: Head,
    run: impl FnOnce(&mut Conn) -> bool,
) -> Option<Duration> {
    if draining && head.class != Class::EndsTx {
        refuse(inner, conn, &Refusal::Draining);
        return None;
    }
    let admitted = head.class == Class::Work;
    if admitted && !inner.admit() {
        inner.stats.busy_rejects.bump();
        refuse(inner, conn, &Refusal::Busy);
        return None;
    }
    // `arrived` is when the request was completely received; by now it
    // may have sat behind pipelined predecessors or a slow statement on
    // a sibling connection.
    let waited = arrived.elapsed();
    if waited >= inner.cfg.request_deadline {
        inner.stats.deadline_rejects.bump();
        if admitted {
            inner.release();
        }
        refuse(inner, conn, &Refusal::Deadline(waited));
        return None;
    }

    inner.stats.requests.bump();
    // Every executed request runs under a trace context: the client's
    // id when it supplied one, a fresh one otherwise. The root span
    // parents every engine event fired during execution (lock waits,
    // WAL flushes, build phases) through the thread-local context.
    let _trace_scope = mohan_obs::install_ctx(mohan_obs::ctx_for(head.trace));
    let trace = inner.db.obs.trace();
    let root = trace
        .span(head.root, head.label)
        .with_detail(micros(waited));
    let started = Instant::now();
    let keep_slot = run(conn);
    let ran = started.elapsed();
    let slow = ran >= inner.cfg.slow_request;
    if slow {
        trace.span_event(
            "server.slow_request",
            head.label,
            micros(ran),
            micros(waited),
        );
    }
    // Commit before the slow dump so the rendered tree has its root.
    root.commit();
    if slow {
        log_slow_trace(inner, head.label, ran);
    }
    if ran + waited >= inner.cfg.request_deadline {
        inner.stats.deadline_overruns.bump();
    }
    if admitted && !keep_slot {
        inner.release();
    }
    Some(ran)
}

fn micros(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

/// Dump the current trace's reconstructed span tree to stderr — the
/// slow-request log. Only sampled traces have anything to render;
/// unsampled ones already recorded nothing.
fn log_slow_trace(inner: &Arc<Inner>, label: &str, ran: Duration) {
    let Some(tctx) = mohan_obs::current_ctx() else {
        return;
    };
    if !tctx.sampled {
        return;
    }
    let tree = mohan_obs::render_span_tree(&inner.db.obs.trace().events_filtered(tctx.trace_id, 0));
    eprintln!(
        "slow request: {label} took {}ms, trace {:#x}:\n{tree}",
        ran.as_millis(),
        tctx.trace_id
    );
}

/// What a statement does, as the follower gate sees it.
#[derive(Clone, Copy)]
pub(crate) enum Access {
    Write,
    Read,
    /// Transaction end, observability, handshake, streams: never gated.
    Other,
}

/// The role gate around one statement, for both protocols. On a
/// replication follower a write is refused with `NotWritable` before
/// it runs (the session layer repeats the check for in-process
/// callers, but `CREATE TABLE` and builds never reach it), and a read
/// runs under the engine's staleness rule,
/// [`mohan_oib::Db::follower_read`], which counts it either way. `Ok`
/// carries `run`'s own result.
pub(crate) fn follower_gate<T, E>(
    inner: &Inner,
    access: Access,
    run: impl FnOnce() -> Result<T, E>,
) -> Result<Result<T, E>, Error> {
    match access {
        Access::Write if inner.db.is_replica() => Err(Error::NotWritable),
        Access::Read => inner.db.follower_read(inner.cfg.max_lag_lsn, run),
        _ => Ok(run()),
    }
}

/// Answer `refusal` in the connection's protocol: a native `Err` (or
/// `Busy`) frame, or a pg `ErrorResponse` and the `ReadyForQuery` that
/// ends the query it refused. An engine refusal inside a pg transaction
/// block fails the block, as any statement error does; the envelope's
/// refusals leave it as it was (the statement never ran).
pub(crate) fn refuse(inner: &Arc<Inner>, conn: &mut Conn, refusal: &Refusal) {
    let hint = &inner.cfg.leader_hint;
    if !matches!(conn.proto, Proto::Pg(_)) {
        let (code, message) = match refusal {
            Refusal::Busy => return native::send(inner, conn, &Response::Busy),
            Refusal::Draining => (ErrorCode::Draining, "server is draining".into()),
            Refusal::Deadline(waited) => (
                ErrorCode::DeadlineExceeded,
                format!("queued {}ms", waited.as_millis()),
            ),
            Refusal::Engine(e) => {
                let code = match e {
                    Error::NotWritable => ErrorCode::NotWritable {
                        leader_hint: hint.clone(),
                    },
                    _ => error_code_of(e),
                };
                (code, e.to_string())
            }
            Refusal::Internal(msg) => (ErrorCode::Internal, msg.clone()),
        };
        return native::send(inner, conn, &Response::Err { code, message });
    }
    let (sqlstate, message) = match refusal {
        Refusal::Busy => (
            "53300",
            "too many concurrent requests; retry after backoff".into(),
        ),
        Refusal::Draining => ("57P01", "server is draining".into()),
        Refusal::Deadline(waited) => (
            "57014",
            format!("canceling statement: queued {}ms", waited.as_millis()),
        ),
        Refusal::Engine(e) => {
            let mut message = e.to_string();
            if matches!(e, Error::NotWritable) && !hint.is_empty() {
                message = format!("{message} (leader: {hint})");
            }
            (mohan_pgwire::sqlstate_of(e), message)
        }
        Refusal::Internal(msg) => ("XX000", msg.clone()),
    };
    if matches!(refusal, Refusal::Engine(_)) && conn.session.current_tx().is_some() {
        pg::set_failed(conn, true);
    }
    let mut out = Vec::new();
    pgproto::error_response(&mut out, sqlstate, &message);
    pgproto::ready_for_query(&mut out, pg::tx_status(conn));
    send_raw(inner, conn, &out);
}
