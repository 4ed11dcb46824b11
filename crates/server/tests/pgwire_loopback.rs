//! Postgres-protocol conformance suite: a raw byte-level pg client
//! (hand-rolled here, deliberately *not* reusing the `mohan-pgwire`
//! encoders, so a codec bug cannot cancel itself out) drives a full
//! simple-query session against the server's pg listener.
//!
//! The centrepiece mirrors the native loopback suite's acceptance
//! scenario, now over SQL: startup → `CREATE TABLE` → concurrent
//! `INSERT` load → online `CREATE INDEX` mid-load (NOTICE progress
//! lines) → `SELECT` through the new index → `Terminate`, with the
//! finished index verified against the heap oracle. Replica gating
//! (`25006`/`72000`) and its read counters, admission and deadline
//! parity with the native door, transaction-status bytes,
//! failed-transaction blocks, and garbage-frame robustness are covered
//! alongside.

use mohan_client::{Client, ClientError};
use mohan_common::{EngineConfig, TableId};
use mohan_oib::verify::verify_index;
use mohan_oib::{Db, IndexState};
use mohan_server::{Server, ServerConfig};
use mohan_wire::message::ErrorCode;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

fn engine() -> Arc<Db> {
    Db::new(EngineConfig {
        lock_timeout_ms: 5_000,
        ..EngineConfig::small()
    })
}

fn pg_server(db: &Arc<Db>, workers: usize) -> Server {
    Server::start(
        Arc::clone(db),
        ServerConfig {
            bind_addr: "127.0.0.1:0".into(),
            pg_bind_addr: Some("127.0.0.1:0".into()),
            workers,
            max_inflight: 16,
            ..ServerConfig::default()
        },
    )
    .expect("bind pg loopback")
}

/// One backend message: type byte + body (length prefix stripped).
#[derive(Debug, Clone)]
struct Msg {
    typ: u8,
    body: Vec<u8>,
}

/// Minimal byte-level Postgres v3 client.
struct PgConn {
    stream: TcpStream,
}

impl PgConn {
    /// Connect and run the startup exchange, consuming everything up
    /// to the first `ReadyForQuery`.
    fn connect(addr: &str) -> PgConn {
        let stream = TcpStream::connect(addr).expect("connect pg listener");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut conn = PgConn { stream };
        // Startup packet: total length (incl. itself), protocol
        // 3.0, then key\0value\0 pairs and a terminator.
        let mut params = Vec::new();
        for (k, v) in [("user", "conformance"), ("database", "oib")] {
            params.extend_from_slice(k.as_bytes());
            params.push(0);
            params.extend_from_slice(v.as_bytes());
            params.push(0);
        }
        params.push(0);
        let len = 4 + 4 + params.len();
        let mut pkt = Vec::with_capacity(len);
        pkt.extend_from_slice(&(len as u32).to_be_bytes());
        pkt.extend_from_slice(&196_608u32.to_be_bytes()); // 3 << 16
        pkt.extend_from_slice(&params);
        conn.stream.write_all(&pkt).unwrap();
        let greeting = conn.read_until_ready();
        assert_eq!(
            greeting.first().map(|m| m.typ),
            Some(b'R'),
            "AuthenticationOk first"
        );
        assert_eq!(
            &greeting[0].body,
            &0u32.to_be_bytes(),
            "trustful AuthenticationOk"
        );
        assert!(
            greeting.iter().any(|m| m.typ == b'S'),
            "at least one ParameterStatus"
        );
        assert!(
            greeting.iter().any(|m| m.typ == b'K'),
            "BackendKeyData present"
        );
        conn
    }

    fn read_msg(&mut self) -> Option<Msg> {
        let mut head = [0u8; 5];
        let mut got = 0;
        while got < head.len() {
            match self.stream.read(&mut head[got..]) {
                Ok(0) => return None,
                Ok(n) => got += n,
                Err(e) => panic!("read header: {e}"),
            }
        }
        let typ = head[0];
        let len = u32::from_be_bytes([head[1], head[2], head[3], head[4]]) as usize;
        assert!(len >= 4, "length covers itself");
        let mut body = vec![0u8; len - 4];
        let mut got = 0;
        while got < body.len() {
            match self.stream.read(&mut body[got..]) {
                Ok(0) => panic!("EOF mid-message"),
                Ok(n) => got += n,
                Err(e) => panic!("read body: {e}"),
            }
        }
        Some(Msg { typ, body })
    }

    /// Collect messages until `ReadyForQuery` (inclusive).
    fn read_until_ready(&mut self) -> Vec<Msg> {
        let mut msgs = Vec::new();
        loop {
            let msg = self.read_msg().expect("server closed before ReadyForQuery");
            let done = msg.typ == b'Z';
            msgs.push(msg);
            if done {
                return msgs;
            }
        }
    }

    /// Run one simple query and collect its whole reply.
    fn query(&mut self, sql: &str) -> Vec<Msg> {
        let len = 4 + sql.len() + 1;
        let mut pkt = Vec::with_capacity(1 + len);
        pkt.push(b'Q');
        pkt.extend_from_slice(&(len as u32).to_be_bytes());
        pkt.extend_from_slice(sql.as_bytes());
        pkt.push(0);
        self.stream.write_all(&pkt).unwrap();
        self.read_until_ready()
    }

    fn terminate(mut self) {
        self.stream.write_all(&[b'X', 0, 0, 0, 4]).unwrap();
        // A clean Terminate gets no reply: the next read is EOF.
        assert!(self.read_msg().is_none(), "no reply after Terminate");
    }
}

/// The transaction-status byte of the trailing `ReadyForQuery`.
fn tx_status(msgs: &[Msg]) -> u8 {
    let z = msgs.last().expect("non-empty reply");
    assert_eq!(z.typ, b'Z', "reply ends with ReadyForQuery");
    assert_eq!(z.body.len(), 1);
    z.body[0]
}

/// The SQLSTATE of the first `ErrorResponse`, if any.
fn sqlstate(msgs: &[Msg]) -> Option<String> {
    let e = msgs.iter().find(|m| m.typ == b'E')?;
    for field in e.body.split(|&b| b == 0) {
        if field.first() == Some(&b'C') {
            return Some(String::from_utf8(field[1..].to_vec()).unwrap());
        }
    }
    panic!("ErrorResponse without a SQLSTATE field");
}

/// The command tag of the first `CommandComplete`, if any.
fn tag(msgs: &[Msg]) -> Option<String> {
    let c = msgs.iter().find(|m| m.typ == b'C')?;
    let end = c.body.iter().position(|&b| b == 0).unwrap();
    Some(String::from_utf8(c.body[..end].to_vec()).unwrap())
}

/// Decode `DataRow` messages into their text column values.
fn rows(msgs: &[Msg]) -> Vec<Vec<Option<String>>> {
    msgs.iter()
        .filter(|m| m.typ == b'D')
        .map(|m| {
            let body = &m.body;
            let ncols = u16::from_be_bytes([body[0], body[1]]) as usize;
            let mut pos = 2;
            let mut cols = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                let len = i32::from_be_bytes(body[pos..pos + 4].try_into().unwrap());
                pos += 4;
                if len < 0 {
                    cols.push(None);
                } else {
                    let v = &body[pos..pos + len as usize];
                    pos += len as usize;
                    cols.push(Some(String::from_utf8(v.to_vec()).unwrap()));
                }
            }
            cols
        })
        .collect()
}

fn expect_tag(msgs: &[Msg], want: &str) {
    assert_eq!(sqlstate(msgs), None, "unexpected error in {msgs:?}");
    assert_eq!(tag(msgs).as_deref(), Some(want));
}

/// The acceptance scenario: a full simple-query session with an
/// online `CREATE INDEX` racing concurrent `INSERT` load, ending in
/// index-vs-heap agreement.
#[test]
fn simple_query_session_with_online_build_under_load() {
    let db = engine();
    let srv = pg_server(&db, 4);
    let addr = srv.pg_addr().expect("pg listener configured").to_string();

    let mut c = PgConn::connect(&addr);
    expect_tag(
        &c.query("CREATE TABLE kv (k BIGINT, v BIGINT)"),
        "CREATE TABLE",
    );
    expect_tag(
        &c.query("INSERT INTO kv (k, v) VALUES (0, 0), (1, 3), (2, 6)"),
        "INSERT 0 3",
    );

    // Concurrent INSERT load on separate pg connections while the
    // index builds online. Each loader reports every commit by its
    // number.
    let stop = Arc::new(AtomicBool::new(false));
    let (commits, committed) = mpsc::channel::<usize>();
    let loaders: Vec<_> = (0..3)
        .map(|w| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            let commits = commits.clone();
            std::thread::spawn(move || {
                let mut c = PgConn::connect(&addr);
                let mut inserted = Vec::new();
                let mut k = 1_000 + w as i64 * 100_000;
                while !stop.load(Ordering::Acquire) {
                    let reply = c.query(&format!("INSERT INTO kv VALUES ({k}, {})", k * 3));
                    match sqlstate(&reply).as_deref() {
                        // Admission-control pushback: retry.
                        Some("53300") => std::thread::yield_now(),
                        Some(other) => panic!("loader refused with {other}"),
                        None => {
                            assert_eq!(tag(&reply).as_deref(), Some("INSERT 0 1"));
                            inserted.push(k);
                            let _ = commits.send(w);
                            k += 1;
                        }
                    }
                }
                c.terminate();
                inserted
            })
        })
        .collect();

    // Let the loaders get ahead, then build online, mid-load.
    committed.recv().expect("a loader commits");
    let reply = c.query("CREATE INDEX kv_k ON kv USING sf (k)");
    expect_tag(&reply, "CREATE INDEX");
    assert!(
        reply.iter().any(|m| m.typ == b'N'),
        "NOTICE progress lines streamed during the build: {reply:?}"
    );

    // Keep loading after the build completes, until every loader has
    // committed again, then stop.
    committed.try_iter().for_each(drop);
    let mut waiting = vec![true; loaders.len()];
    while waiting.contains(&true) {
        waiting[committed.recv().expect("a loader commits")] = false;
        assert!(
            !loaders.iter().any(std::thread::JoinHandle::is_finished),
            "a loader stopped"
        );
    }
    stop.store(true, Ordering::Release);
    let mut all_keys: Vec<i64> = vec![0, 1, 2];
    for h in loaders {
        all_keys.extend(h.join().expect("loader thread"));
    }

    // SELECT through the new index: point lookups agree with what
    // was inserted (the index-vs-heap oracle, via SQL).
    for &k in all_keys.iter().rev().take(20).chain([&0, &1, &2]) {
        let reply = c.query(&format!("SELECT * FROM kv WHERE k = {k}"));
        let got = rows(&reply);
        assert_eq!(got.len(), 1, "key {k}: {reply:?}");
        assert_eq!(got[0][0].as_deref(), Some(k.to_string().as_str()));
        assert_eq!(tag(&reply).as_deref(), Some("SELECT 1"));
    }
    // A key-range scan through the index.
    let reply = c.query("SELECT * FROM kv WHERE k BETWEEN 0 AND 2");
    assert_eq!(rows(&reply).len(), 3);
    // And a SELECT for an absent key returns zero rows, not an error.
    let reply = c.query("SELECT * FROM kv WHERE k = 987654321");
    assert_eq!(rows(&reply).len(), 0);
    assert_eq!(tag(&reply).as_deref(), Some("SELECT 0"));

    c.terminate();
    srv.drain();

    // Engine-level oracle: the SQL-built index verifies against the
    // heap entry-for-entry, and every inserted key is present.
    let table = TableId(1); // first table the catalog allocates
    let built = db
        .indexes_of(table)
        .into_iter()
        .find(|i| i.def.name == "kv_k")
        .expect("index registered under its SQL name");
    assert_eq!(built.state(), IndexState::Complete);
    assert_eq!(built.def.key_cols, vec![0]);
    verify_index(&db, built.def.id).expect("index agrees with heap");
}

#[test]
fn transaction_blocks_and_failure_states() {
    let db = engine();
    let srv = pg_server(&db, 2);
    let addr = srv.pg_addr().unwrap().to_string();
    let mut c = PgConn::connect(&addr);

    expect_tag(&c.query("CREATE TABLE t (a BIGINT)"), "CREATE TABLE");

    // Empty query: EmptyQueryResponse, idle status.
    let reply = c.query("");
    assert!(reply.iter().any(|m| m.typ == b'I'));
    assert_eq!(tx_status(&reply), b'I');

    // Status byte tracks the open transaction.
    let reply = c.query("BEGIN");
    assert_eq!(tx_status(&reply), b'T');
    let reply = c.query("INSERT INTO t VALUES (1)");
    assert_eq!(tx_status(&reply), b'T');

    // An error inside the block fails it: 'E' status, 25P02 until
    // the block ends, COMMIT reported as ROLLBACK.
    let reply = c.query("INSERT INTO t VALUES (1, 2)"); // arity error
    assert_eq!(sqlstate(&reply).as_deref(), Some("42601"));
    assert_eq!(tx_status(&reply), b'E');
    let reply = c.query("SELECT * FROM t");
    assert_eq!(sqlstate(&reply).as_deref(), Some("25P02"));
    assert_eq!(tx_status(&reply), b'E');
    let reply = c.query("COMMIT");
    assert_eq!(tag(&reply).as_deref(), Some("ROLLBACK"));
    assert_eq!(tx_status(&reply), b'I');

    // The failed block rolled back: no row survives.
    let reply = c.query("SELECT * FROM t");
    assert_eq!(rows(&reply).len(), 0);

    // A clean block commits.
    let reply = c.query("BEGIN; INSERT INTO t VALUES (7); COMMIT");
    assert_eq!(sqlstate(&reply), None);
    assert_eq!(tx_status(&reply), b'I');
    let reply = c.query("SELECT * FROM t WHERE a = 7");
    assert_eq!(rows(&reply).len(), 1);

    // SQL-level errors outside a block leave the session idle.
    let reply = c.query("SELECT * FROM missing");
    assert_eq!(sqlstate(&reply).as_deref(), Some("42P01"));
    assert_eq!(tx_status(&reply), b'I');
    let reply = c.query("DROP TABLE t");
    assert_eq!(sqlstate(&reply).as_deref(), Some("0A000"));

    c.terminate();
    srv.drain();
}

/// A follower engine with table 1, behind a pg listener whose
/// staleness bound is 100 LSNs.
fn replica_server() -> (Arc<Db>, Server) {
    let db = Db::new(EngineConfig::small());
    db.set_replica(true);
    db.create_table(TableId(1));
    let srv = Server::start(
        Arc::clone(&db),
        ServerConfig {
            bind_addr: "127.0.0.1:0".into(),
            pg_bind_addr: Some("127.0.0.1:0".into()),
            workers: 2,
            max_lag_lsn: 100,
            leader_hint: "primary.example:7878".into(),
            ..ServerConfig::default()
        },
    )
    .expect("bind replica");
    (db, srv)
}

#[test]
fn replica_sessions_map_notwritable_and_stale() {
    let (db, srv) = replica_server();
    let addr = srv.pg_addr().unwrap().to_string();
    let mut c = PgConn::connect(&addr);

    // Writes (and BEGIN) refuse with 25006 and carry the leader hint.
    for sql in [
        "INSERT INTO t1 VALUES (1, 2)",
        "BEGIN",
        "UPDATE t1 SET c1 = 0 WHERE c0 = 1",
        "DELETE FROM t1 WHERE c0 = 1",
        "CREATE INDEX i ON t1 (c0)",
        "CREATE TABLE fresh (k BIGINT)",
    ] {
        let reply = c.query(sql);
        assert_eq!(sqlstate(&reply).as_deref(), Some("25006"), "{sql}");
        let err = reply.iter().find(|m| m.typ == b'E').unwrap();
        let text = String::from_utf8_lossy(&err.body);
        assert!(
            text.contains("primary.example:7878"),
            "leader hint attached: {text}"
        );
    }

    // Reads serve within the staleness bound...
    let reply = c.query("SELECT * FROM t1 WHERE c0 = 1");
    assert_eq!(sqlstate(&reply), None);
    // ...and refuse with 72000 once the lag exceeds it.
    db.set_repl_lag(10_000);
    let reply = c.query("SELECT * FROM t1 WHERE c0 = 1");
    assert_eq!(sqlstate(&reply).as_deref(), Some("72000"));

    c.terminate();
    srv.drain();
}

/// A follower counts its SQL reads where it counts native ones: a
/// served `SELECT` in `repl.reads_served`, one refused with `72000` in
/// `repl.reads_rejected_stale`.
#[test]
fn follower_selects_are_counted_served_or_stale() {
    let (db, srv) = replica_server();
    let mut c = PgConn::connect(&srv.pg_addr().unwrap().to_string());
    let served = db.obs.counter("repl.reads_served");
    let stale = db.obs.counter("repl.reads_rejected_stale");

    let reply = c.query("SELECT * FROM t1 WHERE c0 = 1");
    assert_eq!(sqlstate(&reply), None, "{reply:?}");
    assert_eq!((served.get(), stale.get()), (1, 0));

    db.set_repl_lag(10_000);
    let reply = c.query("SELECT * FROM t1");
    assert_eq!(sqlstate(&reply).as_deref(), Some("72000"));
    assert_eq!((served.get(), stale.get()), (1, 1));

    c.terminate();
    srv.drain();
}

/// Both listeners of one server, with the given admission cap and
/// request deadline.
fn two_door_server(db: &Arc<Db>, max_inflight: usize, request_deadline: Duration) -> Server {
    Server::start(
        Arc::clone(db),
        ServerConfig {
            bind_addr: "127.0.0.1:0".into(),
            pg_bind_addr: Some("127.0.0.1:0".into()),
            workers: 2,
            max_inflight,
            request_deadline,
            ..ServerConfig::default()
        },
    )
    .expect("bind both doors")
}

/// One admission rule for both doors: with the only slot held by a
/// native `SubscribeWal` stream, `BEGIN` is refused — `53300` on pg,
/// `Busy` natively — while `COMMIT` and `ROLLBACK`, which release
/// locks, still run.
#[test]
fn begin_takes_an_admission_slot_at_both_doors() {
    let db = engine();
    let srv = two_door_server(&db, 1, Duration::from_secs(5));
    let pg_addr = srv.pg_addr().unwrap().to_string();
    let native_addr = srv.addr().to_string();

    // Transactions opened before the slot is taken. A reply goes out
    // before its request gives the slot back, so each of these may be
    // refused while the one before it still holds it.
    let mut pg_commit = PgConn::connect(&pg_addr);
    let mut pg_rollback = PgConn::connect(&pg_addr);
    for c in [&mut pg_commit, &mut pg_rollback] {
        let reply = loop {
            let reply = c.query("BEGIN");
            if sqlstate(&reply).as_deref() != Some("53300") {
                break reply;
            }
            std::thread::yield_now();
        };
        assert_eq!(tx_status(&reply), b'T');
    }
    let mut native = Client::connect(&native_addr).unwrap();
    while let Err(ClientError::Busy) = native.begin() {
        std::thread::yield_now();
    }

    // The stream's first frame means it holds the only slot.
    let (first_frame, held) = mpsc::channel();
    let (stop, stopped) = mpsc::channel::<()>();
    let observer = std::thread::spawn(move || loop {
        let c = Client::connect(&native_addr).unwrap();
        let stream = c.subscribe_wal(1, |_, _, _| {
            let _ = first_frame.send(());
            stopped.try_recv().is_err()
        });
        match stream {
            Err(ClientError::Busy) => std::thread::yield_now(),
            done => return done.unwrap(),
        }
    });
    held.recv().expect("the stream's first frame");

    let mut pg = PgConn::connect(&pg_addr);
    let reply = pg.query("BEGIN");
    assert_eq!(sqlstate(&reply).as_deref(), Some("53300"), "{reply:?}");
    assert_eq!(tx_status(&reply), b'I');
    let mut other = Client::connect(srv.addr()).unwrap();
    assert!(matches!(other.begin(), Err(ClientError::Busy)));

    expect_tag(&pg_commit.query("COMMIT"), "COMMIT");
    expect_tag(&pg_rollback.query("ROLLBACK"), "ROLLBACK");
    native.commit().unwrap();
    assert!(srv.stats().busy_rejects.get() >= 2);

    stop.send(()).unwrap();
    observer.join().unwrap();
    srv.drain();
}

/// One deadline for both doors: a request that waited out a zero
/// deadline is refused — native `DeadlineExceeded`, pg `57014` — and
/// `server.deadline_rejects` counts each.
#[test]
fn a_missed_deadline_refuses_at_both_doors() {
    let db = engine();
    let srv = two_door_server(&db, 16, Duration::ZERO);

    let mut native = Client::connect(srv.addr()).unwrap();
    match native.insert(TableId(1), vec![1, 2]) {
        Err(ClientError::Server {
            code: ErrorCode::DeadlineExceeded,
            ..
        }) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let mut pg = PgConn::connect(&srv.pg_addr().unwrap().to_string());
    let reply = pg.query("INSERT INTO kv VALUES (1, 2)");
    assert_eq!(sqlstate(&reply).as_deref(), Some("57014"), "{reply:?}");
    assert_eq!(tx_status(&reply), b'I');
    assert_eq!(srv.stats().deadline_rejects.get(), 2);
    assert_eq!(srv.stats().requests.get(), 0);

    pg.terminate();
    srv.drain();
}

#[test]
fn garbage_frames_get_errors_or_clean_disconnects_never_hangs() {
    let db = engine();
    let srv = pg_server(&db, 2);
    let addr = srv.pg_addr().unwrap().to_string();

    // Garbled startup: tiny length prefix.
    let mut s = TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(&3u32.to_be_bytes()).unwrap();
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).unwrap();
    assert!(
        buf.first() == Some(&b'E') || buf.is_empty(),
        "error or clean close, got {buf:?}"
    );

    // Oversized startup length: refused without allocating it.
    let mut s = TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(&(64 * 1024 * 1024u32).to_be_bytes()).unwrap();
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).unwrap();
    assert!(buf.first() == Some(&b'E') || buf.is_empty());

    // Wrong protocol major: in-band error.
    let mut s = TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut pkt = Vec::new();
    pkt.extend_from_slice(&9u32.to_be_bytes());
    pkt.extend_from_slice(&(2u32 << 16).to_be_bytes());
    pkt.push(0);
    s.write_all(&pkt).unwrap();
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).unwrap();
    assert_eq!(buf.first(), Some(&b'E'), "v2 startup answered in-band");

    // SSLRequest probe: 'N', then a normal session proceeds.
    let mut s = TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut pkt = Vec::new();
    pkt.extend_from_slice(&8u32.to_be_bytes());
    pkt.extend_from_slice(&80877103u32.to_be_bytes());
    s.write_all(&pkt).unwrap();
    let mut n = [0u8; 1];
    s.read_exact(&mut n).unwrap();
    assert_eq!(n[0], b'N', "SSL declined in the clear");

    // Post-startup garbage: oversized typed-message length kills the
    // connection with an in-band error first.
    let mut c = PgConn::connect(&addr);
    c.stream.write_all(&[b'Q', 0xFF, 0xFF, 0xFF, 0xFF]).unwrap();
    let msg = c.read_msg().expect("error before close");
    assert_eq!(msg.typ, b'E');
    assert!(
        c.read_msg().is_none(),
        "connection closed after framing error"
    );

    // Unknown message type: in-band error, connection survives.
    let mut c = PgConn::connect(&addr);
    c.stream.write_all(&[b'F', 0, 0, 0, 4]).unwrap();
    let reply = c.read_until_ready();
    assert_eq!(sqlstate(&reply).as_deref(), Some("0A000"));
    let reply = c.query("SELECT * FROM x");
    assert_eq!(sqlstate(&reply).as_deref(), Some("42P01"));
    c.terminate();

    // The server is still healthy for a normal session.
    let mut c = PgConn::connect(&addr);
    expect_tag(&c.query("CREATE TABLE ok (k BIGINT)"), "CREATE TABLE");
    c.terminate();
    srv.drain();
}

/// The `WITH (...)` clause on `CREATE INDEX` reaches the engine: the
/// requested parallelism shows up on the `build.sort_workers` gauge,
/// compressed runs account fewer stored than raw bytes, and bad
/// options refuse with SQLSTATE 22023 before any build starts.
#[test]
fn create_index_with_clause_round_trips_build_options() {
    let db = engine();
    let srv = pg_server(&db, 4);
    let addr = srv.pg_addr().unwrap().to_string();
    let mut c = PgConn::connect(&addr);

    expect_tag(
        &c.query("CREATE TABLE big (k BIGINT, v BIGINT)"),
        "CREATE TABLE",
    );
    for chunk in 0..10 {
        let values: Vec<String> = (0..100)
            .map(|i| {
                let k = chunk * 100 + i;
                format!("({}, {})", (k * 7919) % 1000, k)
            })
            .collect();
        expect_tag(
            &c.query(&format!("INSERT INTO big VALUES {}", values.join(", "))),
            "INSERT 0 100",
        );
    }

    // Invalid options refuse with invalid_parameter_value and leave
    // no half-registered index behind.
    for bad in [
        "CREATE INDEX b1 ON big USING sf (k) WITH (parallel_workers = 0)",
        "CREATE INDEX b2 ON big USING sf (k) WITH (compress_runs = sideways)",
        "CREATE INDEX b3 ON big USING sf (k) WITH (fillfactor = 90)",
    ] {
        let reply = c.query(bad);
        assert_eq!(sqlstate(&reply).as_deref(), Some("22023"), "{bad}");
    }
    assert!(db.indexes_of(TableId(1)).is_empty());

    // A valid WITH clause builds and lands on the engine gauge.
    expect_tag(
        &c.query(
            "CREATE INDEX big_k ON big USING sf (k) \
             WITH (parallel_workers = 4, compress_runs = on, checkpoint_every = 64)",
        ),
        "CREATE INDEX",
    );
    let built = db
        .indexes_of(TableId(1))
        .into_iter()
        .find(|i| i.def.name == "big_k")
        .expect("index registered");
    assert_eq!(built.state(), IndexState::Complete);
    verify_index(&db, built.def.id).unwrap();
    assert_eq!(
        db.build_sort_workers.get(),
        4,
        "WITH (parallel_workers = 4) reached the sort"
    );
    // `compress_runs` is still accepted, and every run is compressed.
    let rs = &built.sort_store;
    assert!(rs.raw_bytes.get() > 0);
    assert!(
        rs.stored_bytes.get() < rs.raw_bytes.get(),
        "spilled runs are stored compressed"
    );

    // The index serves queries.
    let reply = c.query("SELECT * FROM big WHERE k = 500");
    assert!(!rows(&reply).is_empty());

    c.terminate();
    srv.drain();
}

/// A SQL `CREATE INDEX` whose build panics answers SQLSTATE XX000
/// (internal_error) and `ReadyForQuery`, and the next one builds.
#[test]
fn a_panicking_build_answers_internal_error() {
    let db = engine();
    let srv = pg_server(&db, 2);
    let mut c = PgConn::connect(&srv.pg_addr().unwrap().to_string());
    expect_tag(
        &c.query("CREATE TABLE kv (k BIGINT, v BIGINT)"),
        "CREATE TABLE",
    );
    expect_tag(
        &c.query("INSERT INTO kv VALUES (1, 10), (2, 20), (3, 30)"),
        "INSERT 0 3",
    );

    db.failpoints.arm_hook("build.registered", 0, || {
        panic!("build panics at registration")
    });
    let reply = c.query("CREATE INDEX kv_k ON kv USING sf (k)");
    assert_eq!(sqlstate(&reply).as_deref(), Some("XX000"), "{reply:?}");
    assert_eq!(tx_status(&reply), b'I');

    expect_tag(
        &c.query("CREATE INDEX kv_k2 ON kv USING sf (k)"),
        "CREATE INDEX",
    );
    srv.drain();
}
