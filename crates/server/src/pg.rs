//! Postgres-protocol connection service: the second front door.
//!
//! Connections accepted on the pg listener run the same shard loops,
//! idle reaping and request envelope (`crate::request`: drain,
//! admission, deadline, trace root, follower gate) as native
//! connections — only the framing, decoding and dispatch differ. The
//! protocol work (startup packets, typed messages, SQL parsing,
//! statement execution) lives in `mohan_pgwire`; this module is the
//! glue that feeds it from a [`Conn`]'s buffers.
//!
//! The paper's availability claim extends here unchanged: a
//! `CREATE INDEX` arriving over SQL runs the same online build as the
//! native `CreateIndex` opcode — the client watches `NOTICE` progress
//! lines instead of `Progress` frames, and its concurrent DML on
//! *other* connections keeps flowing throughout.

use crate::conn::{send_raw, Conn, Proto, ShardCtx};
use crate::request::{self, Access, Class, Head, Refusal};
use crate::{job, Inner};
use mohan_pgwire::exec::execute_statement;
use mohan_pgwire::proto::{self, FrameError, Startup};
use mohan_pgwire::{sql, Statement, StmtOutcome};
use std::sync::Arc;
use std::time::Instant;

/// Mutable pg-session state.
#[derive(Clone, Copy, Default)]
pub(crate) struct PgState {
    /// Startup packet consumed and greeting sent; typed messages flow.
    pub(crate) started: bool,
    /// The open transaction hit an error; statements are refused with
    /// `25P02` until `COMMIT`/`ROLLBACK` ends the block.
    pub(crate) failed: bool,
}

/// The transaction-status byte of a `ReadyForQuery`: `'E'` in a
/// failed block, `'T'` inside an open transaction, `'I'` idle.
pub(crate) fn tx_status(conn: &Conn) -> u8 {
    match &conn.proto {
        Proto::Pg(st) if st.failed => b'E',
        _ if conn.session.current_tx().is_some() => b'T',
        _ => b'I',
    }
}

fn pg_failed(conn: &Conn) -> bool {
    matches!(&conn.proto, Proto::Pg(st) if st.failed)
}

pub(crate) fn set_failed(conn: &mut Conn, failed: bool) {
    if let Proto::Pg(st) = &mut conn.proto {
        st.failed = failed;
    }
}

/// Can this queued pg frame block on engine locks? Only `Query`
/// frames can, and only when they carry a non-control statement —
/// the same split [`mohan_wire::message::Request::frame_may_block`]
/// makes for native frames, so the reactor's executor-checkout rule
/// covers both protocols.
pub(crate) fn frame_may_block(payload: &[u8]) -> bool {
    match payload.first() {
        Some(&b'Q') => {
            proto::query_string(&payload[1..]).is_none_or(|sql| sql::query_may_block(&sql))
        }
        _ => false,
    }
}

fn send_err_rfq(inner: &Arc<Inner>, conn: &mut Conn, sqlstate: &str, message: &str) {
    let mut out = Vec::new();
    proto::error_response(&mut out, sqlstate, message);
    proto::ready_for_query(&mut out, tx_status(conn));
    send_raw(inner, conn, &out);
}

/// Split pg frames off `conn.buf` into `conn.pending`. Startup
/// packets (including `SSLRequest`/`GSSENCRequest` probes) are
/// serviced inline — their replies never touch the engine, so they
/// cannot block the event loop.
pub(crate) fn split_frames(inner: &Arc<Inner>, conn: &mut Conn) {
    while !conn.dead {
        let started = match &conn.proto {
            Proto::Pg(st) => st.started,
            Proto::Native | Proto::Http => return,
        };
        if !started {
            match proto::take_startup(&mut conn.buf) {
                Ok(None) => return,
                Ok(Some(Startup::Ssl | Startup::Gssenc)) => {
                    // Not supported; 'N' tells the client to continue
                    // in the clear (psql's default sslmode=prefer).
                    send_raw(inner, conn, b"N");
                }
                Ok(Some(Startup::Cancel)) => {
                    // Cancel keys are never issued, so there is
                    // nothing to cancel; the cancel socket just
                    // closes, per protocol.
                    conn.dead = true;
                }
                Ok(Some(Startup::Start { .. })) => {
                    if let Proto::Pg(st) = &mut conn.proto {
                        st.started = true;
                    }
                    let mut greet = Vec::new();
                    proto::auth_ok(&mut greet);
                    for (k, v) in [
                        ("server_version", "13.0"),
                        ("server_encoding", "UTF8"),
                        ("client_encoding", "UTF8"),
                        ("DateStyle", "ISO, MDY"),
                        ("integer_datetimes", "on"),
                        ("standard_conforming_strings", "on"),
                    ] {
                        proto::parameter_status(&mut greet, k, v);
                    }
                    proto::backend_key_data(&mut greet, std::process::id(), 0);
                    proto::ready_for_query(&mut greet, b'I');
                    send_raw(inner, conn, &greet);
                }
                Err(e) => {
                    inner.stats.malformed.bump();
                    let (state, msg) = match e {
                        FrameError::UnsupportedProtocol(v) => (
                            "0A000",
                            format!("unsupported frontend protocol {}.{}", v >> 16, v & 0xFFFF),
                        ),
                        FrameError::Oversized => ("08P01", "startup packet too large".to_string()),
                        FrameError::Garbled => ("08P01", "garbled startup packet".to_string()),
                    };
                    let mut out = Vec::new();
                    proto::error_response(&mut out, state, &msg);
                    send_raw(inner, conn, &out);
                    conn.dead = true;
                }
            }
            continue;
        }
        match proto::take_message(&mut conn.buf) {
            Ok(None) => return,
            Ok(Some((typ, body))) => {
                let mut payload = Vec::with_capacity(1 + body.len());
                payload.push(typ);
                payload.extend_from_slice(&body);
                conn.pending.push_back((payload, Instant::now()));
            }
            Err(_) => {
                // Oversized or garbled length prefix: framing is
                // unrecoverable, same as the native wire.
                inner.stats.malformed.bump();
                let mut out = Vec::new();
                proto::error_response(&mut out, "08P01", "protocol violation: bad message framing");
                send_raw(inner, conn, &out);
                conn.dead = true;
            }
        }
    }
}

/// Dispatch one queued pg frame (`[type byte][body]`).
pub(crate) fn handle_payload(
    inner: &Arc<Inner>,
    ctx: &ShardCtx,
    conn: &mut Conn,
    payload: &[u8],
    arrived: Instant,
    draining: bool,
) {
    let Some((&typ, body)) = payload.split_first() else {
        conn.dead = true;
        return;
    };
    match typ {
        // Terminate: clean close, no reply.
        b'X' => conn.dead = true,
        // Sync: not part of the simple-query flow, but harmless —
        // answer readiness so a confused client can resynchronize.
        b'S' => {
            let mut out = Vec::new();
            proto::ready_for_query(&mut out, tx_status(conn));
            send_raw(inner, conn, &out);
        }
        b'Q' => match proto::query_string(body) {
            Some(sql) => handle_query(inner, ctx, conn, &sql, arrived, draining),
            None => {
                inner.stats.malformed.bump();
                send_err_rfq(inner, conn, "08P01", "query string is not valid UTF-8");
            }
        },
        // Extended-protocol and COPY messages are not spoken here;
        // the connection survives so psql can fall back.
        other => send_err_rfq(
            inner,
            conn,
            "0A000",
            &format!(
                "unsupported frontend message {:?} (simple query only)",
                other as char
            ),
        ),
    }
}

/// Run one simple-query string: parse it, then hand it to the shared
/// envelope, which runs its statements unless it refuses the string.
fn handle_query(
    inner: &Arc<Inner>,
    ctx: &ShardCtx,
    conn: &mut Conn,
    sql: &str,
    arrived: Instant,
    draining: bool,
) {
    let stmts = match sql::parse(sql) {
        Ok(stmts) => stmts,
        Err(e) => {
            if conn.session.current_tx().is_some() {
                set_failed(conn, true);
            }
            send_err_rfq(inner, conn, e.sqlstate, &e.message);
            return;
        }
    };
    let Some(first) = stmts.first() else {
        let mut out = Vec::new();
        proto::empty_query_response(&mut out);
        proto::ready_for_query(&mut out, tx_status(conn));
        send_raw(inner, conn, &out);
        return;
    };
    // SQL has no envelope to carry a client trace id: the server mints
    // one.
    let head = Head {
        root: "pg.query",
        label: first.kind(),
        class: if stmts.iter().all(Statement::ends_tx) {
            Class::EndsTx
        } else {
            Class::Work
        },
        trace: 0,
    };
    request::serve(inner, conn, arrived, draining, head, |conn| {
        run_statements(inner, ctx, conn, &stmts)
    });
}

/// Execute a query string's statements until one fails, refuses, or
/// hands the connection to an index build, and answer with everything
/// they produced and `ReadyForQuery` — which a build defers to its
/// completion. Returns true when a build now owns the connection (and
/// the query's admission slot).
fn run_statements(
    inner: &Arc<Inner>,
    ctx: &ShardCtx,
    conn: &mut Conn,
    stmts: &[Statement],
) -> bool {
    let mut out = Vec::new();
    for (i, stmt) in stmts.iter().enumerate() {
        if pg_failed(conn) {
            if stmt.ends_tx() {
                // Either way out of a failed block is a rollback;
                // postgres reports `ROLLBACK` even for `COMMIT`.
                let _ = conn.session.rollback();
                set_failed(conn, false);
                proto::command_complete(&mut out, "ROLLBACK");
                continue;
            }
            proto::error_response(
                &mut out,
                "25P02",
                "current transaction is aborted, \
                 commands ignored until end of transaction block",
            );
            break;
        }
        let access = match stmt {
            Statement::Select { .. } => Access::Read,
            Statement::Commit | Statement::Rollback => Access::Other,
            _ => Access::Write,
        };
        let started = Instant::now();
        let result = request::follower_gate(inner, access, || {
            execute_statement(stmt, &mut conn.session, &inner.catalog, &mut out)
        });
        inner.pg_req_us[stmt.kind_index()].record_micros(started.elapsed());
        match result {
            Ok(Ok(StmtOutcome::Complete)) => {}
            Ok(Ok(StmtOutcome::StartBuild {
                table,
                specs,
                algorithm,
                options,
            })) => {
                // The build owns the connection until it finishes;
                // trailing statements in the same string would never
                // run, so refuse them instead of dropping silently.
                if i + 1 != stmts.len() {
                    proto::error_response(
                        &mut out,
                        "0A000",
                        "CREATE INDEX must be the last statement in a query string",
                    );
                    break;
                }
                // Flush what earlier statements produced, then hand
                // off; the build's frames follow in order, and a
                // refused build answers `ReadyForQuery` itself.
                send_raw(inner, conn, &out);
                return job::start_build(inner, ctx, conn, table, algorithm, specs, options);
            }
            Ok(Err(e)) => {
                if conn.session.current_tx().is_some() {
                    set_failed(conn, true);
                }
                proto::error_response(&mut out, e.sqlstate, &e.message);
                break;
            }
            Err(e) => {
                send_raw(inner, conn, &out);
                request::refuse(inner, conn, &Refusal::Engine(e));
                return false;
            }
        }
    }
    proto::ready_for_query(&mut out, tx_status(conn));
    send_raw(inner, conn, &out);
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_frames_classify_like_native_dml() {
        let q = |sql: &str| {
            let mut p = vec![b'Q'];
            p.extend_from_slice(sql.as_bytes());
            p.push(0);
            p
        };
        assert!(frame_may_block(&q("INSERT INTO kv VALUES (1, 2)")));
        assert!(frame_may_block(&q("SELECT * FROM kv WHERE k = 1")));
        assert!(!frame_may_block(&q("COMMIT")));
        assert!(!frame_may_block(&q("ROLLBACK")));
        assert!(!frame_may_block(b"X"));
        assert!(!frame_may_block(b"S"));
        // Garbage queries classify as blocking (safe side): they run
        // on the executor and fail there.
        assert!(frame_may_block(&q("\u{1F980} not sql")));
    }
}
