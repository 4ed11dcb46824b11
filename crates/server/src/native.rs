//! The native wire protocol's side of a connection: splitting
//! [`Request`] frames off the receive buffer, admission control and
//! per-request deadlines, executing one request through the
//! connection's `Session`, and framing [`Response`]s.

use crate::conn::{send_raw, Conn, ShardCtx};
use crate::job::{self, Job};
use crate::Inner;
use mohan_common::{IndexId, KeyValue, Rid, TableId};
use mohan_oib::schema::Record;
use mohan_wire::frame::{take_frame, write_frame, MAX_FRAME};
use mohan_wire::message::{
    proto_major, proto_version, ErrorCode, HistogramSummaryWire, Request, Response, Role,
    PROTO_MAJOR,
};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    let op_idx = req.index();
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
            | Request::CreateIndex { .. } => {
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
        Request::Stats => Response::Stats {
            counters: all_counters(inner, inner.db.obs.snapshot().counters),
        },
        Request::Metrics => metrics_response(inner),
        Request::ObserveStats { interval_ms } => {
            let interval = Duration::from_millis(u64::from(interval_ms).clamp(10, 60_000));
            // First frame immediately: the subscriber gets a baseline
            // before the first interval elapses.
            inner.stats.observe_frames.bump();
            let first = metrics_response(inner);
            send(inner, conn, &first);
            job::begin(ctx, conn, Job::observe(interval));
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
            // The stream pins the log at its cursor, so no checkpoint
            // truncates what it has yet to ship; below the log's first
            // record there is nothing left to pin.
            let Some(pin) = inner.db.wal.pin(mohan_common::Lsn(from_lsn)) else {
                let first_lsn = inner.db.wal.first_lsn().0;
                send(
                    inner,
                    conn,
                    &protocol_err(
                        ErrorCode::LogTruncated { first_lsn },
                        &format!(
                            "from_lsn {from_lsn} was truncated; the log starts at {first_lsn}"
                        ),
                    ),
                );
                return false;
            };
            inner.stats.wal_subs.bump();
            job::begin(ctx, conn, Job::wal_sub(from_lsn, pin));
            job::pump(inner, ctx, conn);
            return true; // slot stays held while the stream is live
        }
        Request::CreateIndex {
            table,
            algo,
            specs,
            options,
        } => {
            return job::start_build(inner, ctx, conn, TableId(table), algo, specs, options);
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

/// The registry's counters and gauges (`counters`, one snapshot's
/// worth) merged with the server's own counters and its in-flight
/// level, sorted by name so responses are deterministic and clients
/// can binary-search. The one counter list: `Stats` answers with it,
/// `Metrics` adds the histograms.
fn all_counters(inner: &Inner, mut counters: Vec<(String, u64)>) -> Vec<(String, u64)> {
    counters.extend(inner.stats.snapshot());
    counters.push((
        "server.inflight".into(),
        inner.inflight.load(Ordering::Acquire) as u64,
    ));
    counters.sort_by(|a, b| a.0.cmp(&b.0));
    counters
}

/// Assemble one [`Response::Metrics`] frame: [`all_counters`] plus
/// the engine registry's histogram summaries, sorted by name.
pub(crate) fn metrics_response(inner: &Arc<Inner>) -> Response {
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
        counters: all_counters(inner, snap.counters),
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
