//! The native wire protocol's side of a connection: splitting
//! [`Request`] frames off the receive buffer, decoding them, executing
//! one request through the connection's `Session`, and framing
//! [`Response`]s. Whether a request runs at all is decided by the
//! envelope both protocols share (`crate::request`).

use crate::conn::{send_raw, Conn, ShardCtx};
use crate::job::{self, Job};
use crate::request::{self, Access, Class, Head, Refusal};
use crate::Inner;
use mohan_common::{IndexId, KeyValue, Rid, TableId};
use mohan_oib::schema::Record;
use mohan_wire::frame::{take_frame, write_frame, MAX_FRAME};
use mohan_wire::message::{
    proto_major, proto_version, ErrorCode, HistogramSummaryWire, Request, Response, Role,
    PROTO_MAJOR,
};
use std::sync::Arc;
use std::time::Instant;

/// Split complete native frames off `conn.buf` into `conn.pending`.
pub(crate) fn split_frames(inner: &Arc<Inner>, conn: &mut Conn) {
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
}

pub(crate) fn protocol_err(code: ErrorCode, message: &str) -> Response {
    Response::Err {
        code,
        message: message.into(),
    }
}

/// Decode one queued native frame and run it through the envelope
/// both protocols share, recording `server.req_us.<opcode>`.
pub(crate) fn handle_payload(
    inner: &Arc<Inner>,
    ctx: &ShardCtx,
    conn: &mut Conn,
    payload: &[u8],
    arrived: Instant,
    draining: bool,
) {
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
    let class = match req {
        Request::Commit | Request::Rollback => Class::EndsTx,
        Request::Ping | Request::Hello { .. } | Request::Metrics => Class::Probe,
        _ => Class::Work,
    };
    let head = Head {
        root: "wire.recv",
        label: req.name(),
        class,
        trace: supplied_trace.unwrap_or(0),
    };
    let op_idx = req.index();
    let ran = request::serve(inner, conn, arrived, draining, head, |conn| {
        execute(inner, ctx, conn, req)
    });
    if let Some(ran) = ran {
        inner.req_us[op_idx].record_micros(ran);
    }
}

/// Execute one request behind the follower gate and send its
/// response(s). Returns true when the admission slot stays held past
/// this call (a job now owns the connection).
fn execute(inner: &Arc<Inner>, ctx: &ShardCtx, conn: &mut Conn, req: Request) -> bool {
    let access = match req {
        Request::Begin
        | Request::Insert { .. }
        | Request::Update { .. }
        | Request::Delete { .. }
        | Request::CreateIndex { .. } => Access::Write,
        Request::Read { .. } | Request::Lookup { .. } => Access::Read,
        _ => Access::Other,
    };
    // The answer goes out after the gate has counted the read it
    // served: a client that reads the counters next sees it.
    match request::follower_gate(inner, access, || dispatch(inner, ctx, conn, req)) {
        Ok(Ok(Answer::Reply(resp))) => {
            send(inner, conn, &resp);
            false
        }
        Ok(Ok(Answer::Sent(keep_slot))) => keep_slot,
        Ok(Err(e)) | Err(e) => {
            request::refuse(inner, conn, &Refusal::Engine(e));
            false
        }
    }
}

/// How [`dispatch`] answered a request.
enum Answer {
    /// The one response, still to be sent.
    Reply(Response),
    /// Sent already; `true` when a job now owns the connection.
    Sent(bool),
}

/// Run one request. An engine error comes back unsent.
fn dispatch(
    inner: &Arc<Inner>,
    ctx: &ShardCtx,
    conn: &mut Conn,
    req: Request,
) -> mohan_common::Result<Answer> {
    let session = &mut conn.session;
    let resp = match req {
        Request::Ping => Response::Pong,
        Request::Begin => Response::TxBegun {
            tx: session.begin()?.0,
        },
        Request::Commit => {
            session.commit()?;
            Response::Committed
        }
        Request::Rollback => {
            session.rollback()?;
            Response::RolledBack
        }
        Request::Insert { table, cols } => Response::Inserted {
            rid: session.insert(TableId(table), &Record(cols))?.pack(),
        },
        Request::Update { table, rid, cols } => {
            session.update(TableId(table), Rid::unpack(rid), &Record(cols))?;
            Response::Updated
        }
        Request::Delete { table, rid } => {
            session.delete(TableId(table), Rid::unpack(rid))?;
            Response::Deleted
        }
        Request::Read { table, rid } => Response::Record {
            cols: session.read(TableId(table), Rid::unpack(rid))?.0,
        },
        Request::Lookup { index, key } => Response::Rids {
            rids: session
                .lookup(IndexId(index), &KeyValue(key))?
                .into_iter()
                .map(Rid::pack)
                .collect(),
        },
        Request::Metrics => metrics_response(inner),
        Request::SubscribeWal { from_lsn } => {
            // Only `1 ..= flushed + 1` are valid starting points:
            // below 1 no record exists, and past the flushed tail the
            // requested records either don't exist yet or could still
            // be discarded by a crash — a follower asking for them has
            // state the primary would not recover with.
            let flushed = inner.db.wal.flushed_lsn().0;
            if from_lsn == 0 || from_lsn > flushed + 1 {
                protocol_err(
                    ErrorCode::Malformed,
                    &format!("from_lsn {from_lsn} outside 1..={}", flushed + 1),
                )
            } else if let Some(pin) = inner.db.wal.pin(mohan_common::Lsn(from_lsn)) {
                // The stream pins the log at its cursor, so no
                // checkpoint truncates what it has yet to ship.
                inner.stats.wal_subs.bump();
                job::begin(ctx, conn, Job::wal_sub(from_lsn, pin));
                job::pump(inner, ctx, conn);
                return Ok(Answer::Sent(true)); // slot stays held while the stream is live
            } else {
                // Below the log's first record there is nothing left
                // to pin.
                let first_lsn = inner.db.wal.first_lsn().0;
                protocol_err(
                    ErrorCode::LogTruncated { first_lsn },
                    &format!("from_lsn {from_lsn} was truncated; the log starts at {first_lsn}"),
                )
            }
        }
        Request::CreateIndex {
            table,
            algo,
            specs,
            options,
        } => {
            let started = job::start_build(inner, ctx, conn, TableId(table), algo, specs, options);
            return Ok(Answer::Sent(started));
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
    Ok(Answer::Reply(resp))
}

/// One [`Response::Metrics`] frame: the engine registry's snapshot,
/// the server's own counters and levels included, with each histogram
/// cut to its summary.
fn metrics_response(inner: &Inner) -> Response {
    let snap = inner.db.obs.snapshot();
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
    Response::Metrics {
        counters: snap.counters,
        hists,
    }
}

/// Queue one response on a connection and flush as far as the socket
/// accepts. Never blocks: a `WouldBlock` tail stays in the outbound
/// buffer and resumes on write-readiness, bounded by the write timeout
/// and the backlog cap.
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
    let mut framed = Vec::with_capacity(4 + payload.len());
    write_frame(&mut framed, &payload).expect("payload is under the cap and a Vec takes any write");
    send_raw(inner, conn, &framed);
}
