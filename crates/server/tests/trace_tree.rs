//! The tracing acceptance scenario: one trace id links a SQL
//! `CREATE INDEX ... USING sf` — issued over the pg wire while native
//! DML load churns the table — to the primary's build phases, drain
//! passes, quiesce, flip, and WAL flushes, *and* (via the trace tags
//! on replicated WAL frames) to the follower's apply spans. The test
//! fetches the primary's half of the tree over the wire with the
//! filtered `TraceDump`, merges the follower's half, and asserts the
//! rendered forest contains every hop.
//!
//! A second test checks that a build's trace context travels with the
//! build onto the engine's build worker and leaves with it: the worker
//! serves the next build under no trace.

use mohan_client::{Client, ClientError};
use mohan_common::{EngineConfig, TableId};
use mohan_oib::build::{build_index, IndexSpec};
use mohan_oib::schema::{BuildAlgorithm, Record};
use mohan_oib::Db;
use mohan_replica::Replica;
use mohan_server::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const T: TableId = TableId(1);
const CATCH_UP: Duration = Duration::from_secs(30);

/// Minimal simple-query pg client — startup, one query, terminate.
/// (The byte-level conformance suite lives in `pgwire_loopback.rs`;
/// this one only needs to drive a statement through the pg path so
/// the request is traced as `pg.query`.)
struct PgConn {
    stream: TcpStream,
}

impl PgConn {
    fn connect(addr: &str) -> PgConn {
        let stream = TcpStream::connect(addr).expect("connect pg listener");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut conn = PgConn { stream };
        let mut params = Vec::new();
        for (k, v) in [("user", "trace"), ("database", "oib")] {
            params.extend_from_slice(k.as_bytes());
            params.push(0);
            params.extend_from_slice(v.as_bytes());
            params.push(0);
        }
        params.push(0);
        let len = 4 + 4 + params.len();
        let mut pkt = Vec::with_capacity(len);
        pkt.extend_from_slice(&(len as u32).to_be_bytes());
        pkt.extend_from_slice(&196_608u32.to_be_bytes()); // protocol 3.0
        pkt.extend_from_slice(&params);
        conn.stream.write_all(&pkt).unwrap();
        conn.read_until_ready();
        conn
    }

    /// Read backend messages until `ReadyForQuery`, returning the
    /// type bytes seen (enough to tell an error from a completion).
    fn read_until_ready(&mut self) -> Vec<u8> {
        let mut seen = Vec::new();
        loop {
            let mut head = [0u8; 5];
            let mut got = 0;
            while got < head.len() {
                match self.stream.read(&mut head[got..]) {
                    Ok(0) => panic!("server closed before ReadyForQuery"),
                    Ok(n) => got += n,
                    Err(e) => panic!("read header: {e}"),
                }
            }
            let len = u32::from_be_bytes([head[1], head[2], head[3], head[4]]) as usize;
            let mut body = vec![0u8; len - 4];
            let mut got = 0;
            while got < body.len() {
                match self.stream.read(&mut body[got..]) {
                    Ok(0) => panic!("EOF mid-message"),
                    Ok(n) => got += n,
                    Err(e) => panic!("read body: {e}"),
                }
            }
            seen.push(head[0]);
            if head[0] == b'Z' {
                return seen;
            }
        }
    }

    fn query(&mut self, sql: &str) -> Vec<u8> {
        let len = 4 + sql.len() + 1;
        let mut pkt = Vec::with_capacity(1 + len);
        pkt.push(b'Q');
        pkt.extend_from_slice(&(len as u32).to_be_bytes());
        pkt.extend_from_slice(sql.as_bytes());
        pkt.push(0);
        self.stream.write_all(&pkt).unwrap();
        self.read_until_ready()
    }
}

#[test]
fn pg_create_index_links_one_span_tree_across_primary_and_follower() {
    let primary = Db::new(EngineConfig {
        lock_timeout_ms: 20_000,
        ..EngineConfig::small()
    });
    primary.create_table(T);
    let tx = primary.begin();
    let rids: Vec<_> = (0..1024)
        .map(|k| {
            primary
                .insert_record(tx, T, &Record(vec![k, k * 3]))
                .unwrap()
        })
        .collect();
    primary.commit(tx).unwrap();

    // The drain passes need a side-file backlog: once the scan has
    // copied its 100th record, the rows on that record's page — behind
    // Current-RID — change their key.
    let db = Arc::clone(&primary);
    primary
        .failpoints
        .arm_hook("build.scan.record", 99, move || {
            let (tx, page) = (db.begin(), rids[99].page);
            for (k, &rid) in (0..).zip(&rids) {
                if rid.page == page {
                    db.update_record(tx, T, rid, &Record(vec![k + 1_000_000, k * 3]))
                        .unwrap();
                }
            }
            db.commit(tx).unwrap();
        });

    let srv = Server::start(
        Arc::clone(&primary),
        ServerConfig {
            bind_addr: "127.0.0.1:0".into(),
            pg_bind_addr: Some("127.0.0.1:0".into()),
            workers: 4,
            max_inflight: 16,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let native_addr = srv.addr().to_string();
    let pg_addr = srv.pg_addr().expect("pg listener").to_string();

    let follower = Db::new(EngineConfig {
        lock_timeout_ms: 20_000,
        ..EngineConfig::small()
    });
    follower.create_table(T);
    let replica = Replica::new(Arc::clone(&follower), &native_addr);
    let tail = replica.spawn();

    // Native DML load while the index builds, so the follower applies
    // the build's records between the loaders' own.
    let stop = Arc::new(AtomicBool::new(false));
    let loaders: Vec<_> = (0..2)
        .map(|w| {
            let addr = native_addr.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                let mut k = 10_000 + i64::from(w) * 100_000;
                while !stop.load(Ordering::Acquire) {
                    match c.insert(T, vec![k, k * 3]) {
                        Ok(_) => k += 1,
                        Err(ClientError::Busy) => std::thread::yield_now(),
                        Err(e) => panic!("loader: {e}"),
                    }
                }
            })
        })
        .collect();

    // The SQL path: `t1` is the positional alias for the natively
    // created table, `c0` its first column. `query` returns once the
    // build completes (NOTICE progress lines stream in between).
    let mut pg = PgConn::connect(&pg_addr);
    let reply = pg.query("CREATE INDEX k_idx ON t1 USING sf (c0)");
    assert!(
        reply.contains(&b'C') && !reply.contains(&b'E'),
        "CREATE INDEX failed: {reply:?}"
    );

    stop.store(true, Ordering::Release);
    for l in loaders {
        l.join().unwrap();
    }

    // Let the follower apply everything the build and loaders wrote.
    primary.wal.flush_all();
    let target = primary.wal.flushed_lsn();
    assert!(
        replica.wait_applied(target, CATCH_UP),
        "follower stuck at {} short of {}",
        replica.applied_lsn().0,
        target.0
    );

    // The CREATE INDEX was the only pg statement, so its `pg.query`
    // span is the only one in the ring; its trace id is the handle to
    // the whole causal chain.
    let pg_spans: Vec<_> = primary
        .obs
        .trace()
        .events_filtered(0, 0)
        .into_iter()
        .filter(|e| e.kind == "pg.query")
        .collect();
    assert_eq!(pg_spans.len(), 1, "exactly one traced pg statement");
    let trace_id = pg_spans[0].trace_id;
    assert_ne!(trace_id, 0, "pg requests mint a trace id");

    // The wire surface agrees: a filtered TraceDump returns only this
    // trace, and every line carries its id.
    let mut c = Client::connect(&native_addr).unwrap();
    let jsonl = c.trace_dump(trace_id, 0).unwrap();
    assert!(!jsonl.is_empty(), "filtered dump has events");
    for line in jsonl.lines() {
        assert!(
            line.contains(&format!("\"trace\":{trace_id}")),
            "foreign trace leaked into filtered dump: {line}"
        );
    }

    // One forest across both processes: the primary's request span
    // plus the follower's apply spans (roots there — their parent
    // spans live in the primary's ring).
    let mut events = primary.obs.trace().events_filtered(trace_id, 0);
    events.extend(follower.obs.trace().events_filtered(trace_id, 0));
    let tree = mohan_obs::render_span_tree(&events);
    for needle in [
        "pg.query",      // wire receive (SQL front door)
        "build.phase",   // build phases
        "sf.drain.pass", // no-quiesce drain passes
        "flip",          // catalog flip
        "wal.flush",     // group flush on the primary
        "repl.apply",    // follower apply
    ] {
        assert!(tree.contains(needle), "span tree missing {needle}:\n{tree}");
    }

    replica.stop();
    tail.join().unwrap();
    srv.drain();
}

/// Trace context follows a build, not the worker that ran it. A traced
/// wire `CreateIndex` and a blocking build under an installed context
/// each link their `build.*` spans to their own trace; the next,
/// untraced, build on the same worker records them under neither.
#[test]
fn build_trace_context_follows_the_job_not_the_worker() {
    let db = Db::new(EngineConfig::small());
    db.create_table(T);
    let tx = db.begin();
    for k in 0..512 {
        db.insert_record(tx, T, &Record(vec![k, k * 3])).unwrap();
    }
    db.commit(tx).unwrap();
    let srv = Server::start(
        Arc::clone(&db),
        ServerConfig {
            bind_addr: "127.0.0.1:0".into(),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let spec = |name: &str| IndexSpec {
        name: name.into(),
        key_cols: vec![0],
        unique: false,
    };
    // `build.*` events recorded from `since` on.
    let build_events = |since: u64| {
        db.obs
            .trace()
            .events_filtered(0, since)
            .into_iter()
            .filter(|e| e.kind.starts_with("build."))
            .collect::<Vec<_>>()
    };
    let next_seq = || db.obs.trace().events().last().map_or(0, |e| e.seq + 1);

    let mut c = Client::connect(srv.addr()).unwrap();
    let wire_trace = mohan_obs::new_trace_id();
    c.set_trace_id(Some(wire_trace));
    let wire_spec = IndexSpec {
        name: "ix_wire".into(),
        key_cols: vec![0],
        unique: false,
    };
    c.create_index(T, BuildAlgorithm::Sf, vec![wire_spec], |_, _, _| {})
        .unwrap();
    c.set_trace_id(None);

    // A context inside a span, so its events have a parent to name.
    let sync_ctx = mohan_obs::TraceCtx {
        span_id: mohan_obs::next_span_id(),
        ..mohan_obs::ctx_for(0)
    };
    {
        let _ctx = mohan_obs::install_ctx(sync_ctx);
        build_index(&db, T, spec("ix_sync"), BuildAlgorithm::Sf).unwrap();
    }

    let since = next_seq();
    build_index(&db, T, spec("ix_untraced"), BuildAlgorithm::Sf).unwrap();
    let workers = db.obs.snapshot().counter("build.workers");
    assert_eq!(workers, Some(1), "all three builds ran on one worker");

    // The wire build's parent is its request's span; the sync build's
    // is the span the caller installed.
    for (what, trace_id, parent) in [
        ("wire", wire_trace, None),
        ("sync", sync_ctx.trace_id, Some(sync_ctx.span_id)),
    ] {
        let linked: Vec<_> = build_events(0)
            .into_iter()
            .filter(|e| e.trace_id == trace_id && e.kind == "build.phase")
            .collect();
        assert!(
            !linked.is_empty(),
            "the {what} build has no build.phase span in its trace"
        );
        assert!(
            linked
                .iter()
                .all(|e| e.parent_id != 0 && parent.is_none_or(|p| e.parent_id == p)),
            "the {what} build's spans have the wrong parent: {linked:?}"
        );
    }
    let untraced = build_events(since);
    assert!(
        untraced.iter().any(|e| e.kind == "build.phase"),
        "the untraced build recorded its phases"
    );
    assert!(
        untraced.iter().all(|e| e.trace_id == 0 && e.parent_id == 0),
        "a trace context outlived its job on the worker: {untraced:?}"
    );
    srv.drain();
}
