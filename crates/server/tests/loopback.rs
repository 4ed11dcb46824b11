//! End-to-end loopback tests: real TCP connections driving the engine
//! through the wire protocol.
//!
//! The centrepiece is the ISSUE's acceptance scenario: 8 concurrent
//! client connections run DML while a `CreateIndex` (SF) request on a
//! ninth connection streams `BuildProgress` frames; the finished index
//! must match an offline-built oracle entry-for-entry, and a graceful
//! drain issued mid-load must lose no committed write — verified by
//! crashing and recovering the engine afterwards.

use mohan_btree::scan::collect_all;
use mohan_client::{Client, ClientError, Pool};
use mohan_common::{EngineConfig, IndexEntry, IndexId, KeyValue, TableId};
use mohan_oib::build::{build_index, IndexSpec, MAX_BUILD_WORKERS};
use mohan_oib::schema::{BuildAlgorithm, Record};
use mohan_oib::verify::verify_index;
use mohan_oib::Db;
use mohan_server::{Server, ServerConfig};
use mohan_wire::frame::{read_frame, write_frame};
use mohan_wire::message::{BuildOptions, BuildPhase, ErrorCode, Request, Response};
use std::collections::BTreeSet;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

const T: TableId = TableId(1);

fn engine(lock_timeout_ms: u64) -> Arc<Db> {
    let db = Db::new(EngineConfig {
        lock_timeout_ms,
        ..EngineConfig::small()
    });
    db.create_table(T);
    db
}

fn seed(db: &Arc<Db>, n: i64) {
    let tx = db.begin();
    for k in 0..n {
        db.insert_record(tx, T, &Record(vec![k, 0])).unwrap();
    }
    db.commit(tx).unwrap();
}

fn server(db: &Arc<Db>, cfg: ServerConfig) -> Server {
    Server::start(Arc::clone(db), cfg).expect("bind loopback")
}

fn addr_of(server: &Server) -> String {
    server.addr().to_string()
}

/// Live (non-pseudo-deleted) entries of an index.
fn live_entries(db: &Arc<Db>, id: IndexId) -> Vec<IndexEntry> {
    let idx = db.index(id).expect("index");
    collect_all(&idx.tree, true)
        .expect("tree scan")
        .into_iter()
        .filter(|(_, pseudo)| !pseudo)
        .map(|(e, _)| e)
        .collect()
}

#[test]
fn dml_and_errors_over_the_wire() {
    let db = engine(2_000);
    seed(&db, 10);
    let srv = server(&db, ServerConfig::default());
    let mut c = Client::connect(addr_of(&srv)).unwrap();

    c.ping().unwrap();

    // Auto-commit DML round-trip.
    let rid = c.insert(T, vec![100, 7]).unwrap();
    assert_eq!(c.read(T, rid).unwrap(), vec![100, 7]);
    c.update(T, rid, vec![100, 8]).unwrap();
    assert_eq!(c.read(T, rid).unwrap(), vec![100, 8]);
    c.delete(T, rid).unwrap();
    match c.read(T, rid) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::NotFound),
        other => panic!("expected NotFound, got {other:?}"),
    }

    // Explicit transaction: rollback undoes both statements.
    c.begin().unwrap();
    let r1 = c.insert(T, vec![200, 1]).unwrap();
    c.insert(T, vec![201, 1]).unwrap();
    c.rollback().unwrap();
    match c.read(T, r1) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::NotFound),
        other => panic!("expected NotFound after rollback, got {other:?}"),
    }

    // Session state machine errors map onto structured codes.
    match c.commit() {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::NoOpenTx),
        other => panic!("expected NoOpenTx, got {other:?}"),
    }
    c.begin().unwrap();
    match c.begin() {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::TxAlreadyOpen),
        other => panic!("expected TxAlreadyOpen, got {other:?}"),
    }
    c.commit().unwrap();

    // Lookup against a nonexistent index.
    match c.lookup(IndexId(99), &KeyValue::from_i64(1)) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::NoSuchIndex),
        other => panic!("expected NoSuchIndex, got {other:?}"),
    }

    // One metrics snapshot holds server counters and engine gauges.
    let report = c.metrics().unwrap();
    let get = |name: &str| {
        report
            .counter(name)
            .unwrap_or_else(|| panic!("metric {name} missing"))
    };
    assert!(get("server.requests") >= 10);
    assert_eq!(get("engine.active_txs"), 0);

    drop(c);
    let report = srv.drain();
    assert_eq!(report.rolled_back, 0);
}

#[test]
fn pool_reuses_connections() {
    let db = engine(2_000);
    seed(&db, 5);
    let srv = server(&db, ServerConfig::default());
    let pool = Pool::new(&addr_of(&srv), 4);
    {
        let mut a = pool.get().unwrap();
        a.ping().unwrap();
    }
    assert_eq!(pool.idle_count(), 1);
    {
        let mut b = pool.get().unwrap();
        b.insert(T, vec![50, 0]).unwrap();
    }
    assert_eq!(pool.idle_count(), 1, "same connection must be reused");
    assert_eq!(srv.stats().conns_accepted.get(), 1);
    srv.drain();
}

#[test]
fn malformed_payload_gets_structured_error() {
    let db = engine(2_000);
    let srv = server(&db, ServerConfig::default());
    let mut stream = std::net::TcpStream::connect(srv.addr()).unwrap();
    write_frame(&mut stream, &[0xEE, 1, 2, 3]).unwrap();
    stream.flush().unwrap();
    let resp = Response::decode(&read_frame(&mut stream).unwrap().unwrap()).unwrap();
    match resp {
        Response::Err { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected Malformed, got {other:?}"),
    }
    // Framing stayed intact: the connection still serves requests.
    write_frame(&mut stream, &Request::Ping.encode()).unwrap();
    let resp = Response::decode(&read_frame(&mut stream).unwrap().unwrap()).unwrap();
    assert_eq!(resp, Response::Pong);
    srv.drain();
}

/// Request tags 11 and 13, the metrics reads retired at protocol
/// minor 5, are what an older peer may still send: each is
/// answered `Malformed` and counted in `server.malformed`, and the
/// connection keeps serving.
#[test]
fn retired_request_tags_are_malformed() {
    let db = engine(2_000);
    let srv = server(&db, ServerConfig::default());
    let mut stream = std::net::TcpStream::connect(srv.addr()).unwrap();
    for retired in [&[11][..], &[13, 0, 0, 0, 250]] {
        write_frame(&mut stream, retired).unwrap();
        stream.flush().unwrap();
        match Response::decode(&read_frame(&mut stream).unwrap().unwrap()).unwrap() {
            Response::Err { code, .. } => assert_eq!(code, ErrorCode::Malformed),
            other => panic!("tag {}: expected Malformed, got {other:?}", retired[0]),
        }
        write_frame(&mut stream, &Request::Ping.encode()).unwrap();
        let resp = Response::decode(&read_frame(&mut stream).unwrap().unwrap()).unwrap();
        assert_eq!(resp, Response::Pong);
    }
    let report = Client::connect(srv.addr()).unwrap().metrics().unwrap();
    assert_eq!(report.counter("server.malformed"), Some(2));
    srv.drain();
}

/// `Metrics` takes no admission slot: with the only one held by a WAL
/// stream, DML is refused `Busy` and a metrics read still answers.
#[test]
fn metrics_answers_when_every_slot_is_held() {
    let db = engine(2_000);
    seed(&db, 10);
    let srv = server(
        &db,
        ServerConfig {
            max_inflight: 1,
            ..ServerConfig::default()
        },
    );
    let addr = addr_of(&srv);

    // The stream's first frame means it holds the only slot.
    let (first_frame, held) = std::sync::mpsc::channel();
    let (stop, stopped) = std::sync::mpsc::channel::<()>();
    let addr2 = addr.clone();
    let subscriber = std::thread::spawn(move || {
        Client::connect(&addr2)
            .unwrap()
            .subscribe_wal(1, |_, _, _| {
                let _ = first_frame.send(());
                stopped.try_recv().is_err()
            })
            .unwrap();
    });
    held.recv().expect("the stream's first frame");

    let mut c = Client::connect(&addr).unwrap();
    assert!(matches!(
        c.insert(T, vec![1_000, 0]),
        Err(ClientError::Busy)
    ));
    let report = c.metrics().expect("a metrics read takes no slot");
    assert_eq!(report.counter("server.inflight"), Some(1));
    assert_eq!(report.counter("repl.fanout.subscribers"), Some(1));
    assert!(report.counter("server.busy_rejects").unwrap() >= 1);

    stop.send(()).unwrap();
    subscriber.join().unwrap();
    srv.drain();
}

#[test]
fn idle_connections_are_reaped() {
    let db = engine(2_000);
    let srv = server(
        &db,
        ServerConfig {
            idle_timeout: Duration::from_millis(150),
            ..ServerConfig::default()
        },
    );
    let mut stream = std::net::TcpStream::connect(srv.addr()).unwrap();
    write_frame(&mut stream, &Request::Ping.encode()).unwrap();
    let resp = Response::decode(&read_frame(&mut stream).unwrap().unwrap()).unwrap();
    assert_eq!(resp, Response::Pong);
    // Silent from here: the read returns once the server hangs up.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    match read_frame(&mut stream) {
        Ok(None) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("idle connection must be closed, read {other:?}"),
    }
    assert!(srv.stats().idle_closed.get() >= 1);
    srv.drain();
}

#[test]
fn admission_control_rejects_over_cap() {
    let db = engine(4_000);
    seed(&db, 3);
    let srv = server(
        &db,
        ServerConfig {
            workers: 3,
            max_inflight: 1,
            ..ServerConfig::default()
        },
    );
    let addr = addr_of(&srv);

    // Connection A parks an X lock on a record inside an open tx.
    let mut a = Client::connect(&addr).unwrap();
    a.begin().unwrap();
    let rid = a.insert(T, vec![1_000, 0]).unwrap();

    // Connection B's delete of the same record blocks on that lock,
    // holding the single in-flight slot while it waits.
    let b_handle = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut b = Client::connect(&addr).unwrap();
            b.delete(T, rid)
        })
    };
    // The lock manager counts B's wait with its ticket already queued,
    // so by then B holds the slot.
    let deadline = Instant::now() + Duration::from_secs(10);
    while db.locks.stats.waits.get() < 1 {
        assert!(Instant::now() < deadline, "B never waited on A's lock");
        std::thread::yield_now();
    }

    // Connection C (a third worker shard) is refused immediately.
    let mut c = Client::connect(&addr).unwrap();
    match c.insert(T, vec![2_000, 0]) {
        Err(ClientError::Busy) => {}
        other => panic!("expected Busy under admission cap, got {other:?}"),
    }

    a.commit().unwrap();
    b_handle.join().unwrap().unwrap();
    assert!(srv.stats().busy_rejects.get() >= 1);
    srv.drain();
}

/// A client that hangs up mid-`CreateIndex` must not leak its
/// admission slot: with `max_inflight = 1` a leak would wedge the
/// server into answering `Busy` forever.
#[test]
fn dropped_connection_mid_build_releases_admission_slot() {
    let db = engine(5_000);
    seed(&db, 2_000);
    let srv = server(
        &db,
        ServerConfig {
            max_inflight: 1,
            ..ServerConfig::default()
        },
    );
    let addr = addr_of(&srv);

    // Start an SF build on a raw connection and hang up as soon as the
    // server confirms it (the Starting frame): the single in-flight
    // slot is held by the running build at that point.
    let mut stream = std::net::TcpStream::connect(srv.addr()).unwrap();
    let req = Request::CreateIndex {
        table: T.0,
        algo: BuildAlgorithm::Sf,
        specs: vec![IndexSpec {
            name: "ix_orphan".into(),
            key_cols: vec![0],
            unique: false,
        }],
        options: BuildOptions::default(),
    };
    write_frame(&mut stream, &req.encode()).unwrap();
    stream.flush().unwrap();
    let first = Response::decode(&read_frame(&mut stream).unwrap().unwrap()).unwrap();
    assert!(
        matches!(
            first,
            Response::Progress {
                phase: BuildPhase::Starting,
                ..
            }
        ),
        "expected Starting frame, got {first:?}"
    );
    let closed = srv.stats().conns_closed.get();
    drop(stream); // client dies while the build thread keeps running

    // The slot comes back when the worker reaps the dead connection,
    // whether or not the detached build has finished by then: the reap
    // ends the connection's job before it counts the close.
    let deadline = Instant::now() + Duration::from_secs(10);
    while srv.stats().conns_closed.get() == closed {
        assert!(
            Instant::now() < deadline,
            "the dead connection was never reaped"
        );
        std::thread::yield_now();
    }
    let mut c = Client::connect(&addr).unwrap();
    c.insert(T, vec![9_999_999, 0])
        .expect("the reap released the admission slot");
    srv.drain();
}

/// The acceptance scenario from the ISSUE, end to end — for SF, and
/// for NSF and the offline baseline over the same wire path.
#[test]
fn concurrent_dml_sf_build_streams_progress_and_drain_loses_nothing() {
    for algo in [
        BuildAlgorithm::Sf,
        BuildAlgorithm::Nsf,
        BuildAlgorithm::Offline,
    ] {
        dml_while_a_wire_build_runs(algo);
    }
}

fn dml_while_a_wire_build_runs(algo: BuildAlgorithm) {
    const CLIENTS: usize = 8;
    const WARM_WRITES: u64 = 10;
    let db = engine(20_000);
    seed(&db, 400);
    let srv = server(
        &db,
        ServerConfig {
            workers: 4,
            max_inflight: 32,
            drain_timeout: Duration::from_secs(20),
            ..ServerConfig::default()
        },
    );
    let addr = addr_of(&srv);

    let stop = Arc::new(AtomicBool::new(false));
    let committed: Arc<Mutex<BTreeSet<i64>>> = Arc::new(Mutex::new(BTreeSet::new()));
    let (warm, warmed) = mpsc::channel();

    // 8 closed-loop DML clients, each in its own key space. A key goes
    // into `committed` only once its statement's success response (or
    // its transaction's Committed) has been *read back* — exactly the
    // set of writes the drain is not allowed to lose.
    let workers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            let committed = Arc::clone(&committed);
            let warm = warm.clone();
            std::thread::spawn(move || {
                let mut c = match Client::connect(&addr) {
                    Ok(c) => c,
                    Err(e) => panic!("client {i} connect: {e}"),
                };
                let mut key = 1_000_000 * (i as i64 + 1);
                // Own records as (rid, current key): an update replaces
                // a record's key, so the *old* key rightfully leaves
                // both the table and the committed set.
                let mut mine: Vec<(mohan_common::Rid, i64)> = Vec::new();
                let (mut ops, mut writes) = (0u64, 0u64);
                while !stop.load(Ordering::Relaxed) {
                    key += 1;
                    ops += 1;
                    // Mix: mostly auto-commit inserts, some explicit
                    // transactions, some updates of own records.
                    enum Done {
                        Inserted(mohan_common::Rid),
                        Updated(usize, i64),
                    }
                    let result = if ops.is_multiple_of(5) {
                        (|| {
                            c.begin()?;
                            let rid = c.insert(T, vec![key, 1])?;
                            c.commit()?;
                            Ok::<_, ClientError>(Done::Inserted(rid))
                        })()
                    } else if ops.is_multiple_of(7) && !mine.is_empty() {
                        let j = ops as usize % mine.len();
                        c.update(T, mine[j].0, vec![key, 2])
                            .map(|()| Done::Updated(j, mine[j].1))
                    } else {
                        c.insert(T, vec![key, 0]).map(Done::Inserted)
                    };
                    writes += u64::from(result.is_ok());
                    if writes == WARM_WRITES && result.is_ok() {
                        warm.send(()).unwrap();
                    }
                    match result {
                        Ok(Done::Inserted(rid)) => {
                            committed.lock().unwrap().insert(key);
                            mine.push((rid, key));
                        }
                        Ok(Done::Updated(j, old_key)) => {
                            let mut set = committed.lock().unwrap();
                            set.remove(&old_key);
                            set.insert(key);
                            drop(set);
                            mine[j].1 = key;
                        }
                        Err(ClientError::Busy) => {
                            key -= 1; // not committed; retry a new op
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(ClientError::Server {
                            code: ErrorCode::Draining,
                            ..
                        }) => break,
                        Err(ClientError::Io(_) | ClientError::Protocol(_)) => break,
                        Err(e) => panic!("client {i} unexpected error: {e}"),
                    }
                }
                ops
            })
        })
        .collect();

    // Once every client has written `WARM_WRITES` times, build online
    // over the wire on a ninth connection, collecting the progress
    // stream.
    for _ in 0..CLIENTS {
        warmed
            .recv_timeout(Duration::from_secs(30))
            .expect("every client writes");
    }
    let mut builder = Client::connect(&addr).unwrap();
    let mut frames: Vec<(IndexId, BuildPhase, u64)> = Vec::new();
    let ids = builder
        .create_index(
            T,
            algo,
            vec![IndexSpec {
                name: "ix_wire".into(),
                key_cols: vec![0],
                unique: false,
            }],
            |id, phase, detail| frames.push((id, phase, detail)),
        )
        .unwrap_or_else(|e| panic!("{algo:?} build over the wire: {e}"));
    assert_eq!(ids.len(), 1);
    let built = ids[0];
    assert!(
        !frames.is_empty(),
        "CreateIndex must stream at least one BuildProgress frame"
    );
    assert_eq!(frames[0].1, BuildPhase::Starting);
    assert_eq!(frames.last().unwrap().1, BuildPhase::Done);

    // Drain mid-load: clients are still hammering the server.
    let report = srv.drain();
    stop.store(true, Ordering::Relaxed);
    let total_ops: u64 = workers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total_ops > 0, "clients never got any DML through");
    assert_eq!(
        report.builds_abandoned, 0,
        "the build finished before the drain"
    );

    // The drain flushed everything; a crash now must lose nothing.
    db.simulate_crash();
    db.restart().expect("recovery after drained shutdown");

    // Every committed write survived.
    let surviving: BTreeSet<i64> = db
        .table_scan(T)
        .unwrap()
        .into_iter()
        .map(|(_, rec)| rec.0[0])
        .collect();
    let committed = committed.lock().unwrap();
    for key in committed.iter() {
        assert!(
            surviving.contains(key),
            "committed key {key} lost by drain+recovery"
        );
    }
    assert!(committed.len() > 50, "too little traffic to be meaningful");

    // The wire-built index, post-recovery, matches an offline oracle
    // entry-for-entry on the quiescent database.
    verify_index(&db, built).expect("wire-built index verifies");
    let oracle = build_index(
        &db,
        T,
        IndexSpec {
            name: "oracle".into(),
            key_cols: vec![0],
            unique: false,
        },
        BuildAlgorithm::Offline,
    )
    .unwrap();
    assert_eq!(live_entries(&db, built), live_entries(&db, oracle));
}

/// A metrics read taken while a `CreateIndex` streams progress on
/// another connection carries sorted names (so clients can
/// binary-search them) and every layer the retired E17b table read
/// mid-build.
#[test]
fn metrics_read_mid_build_carries_every_layer() {
    let db = engine(5_000);
    seed(&db, 2_000);
    let srv = server(
        &db,
        ServerConfig {
            max_inflight: 4,
            ..ServerConfig::default()
        },
    );
    let addr = addr_of(&srv);

    // Read on the build's first progress frame: the build has started
    // and its exchange has not ended.
    let mut observer = Client::connect(&addr).unwrap();
    let mut mid_build = None;
    let ids = Client::connect(&addr)
        .unwrap()
        .create_index(
            T,
            BuildAlgorithm::Sf,
            vec![IndexSpec {
                name: "ix_observed".into(),
                key_cols: vec![0],
                unique: false,
            }],
            |_, _, _| {
                if mid_build.is_none() {
                    mid_build = Some(observer.metrics().unwrap());
                }
            },
        )
        .unwrap();
    assert_eq!(ids.len(), 1);
    let report = mid_build.expect("the build streamed no progress");
    // Both lists sorted by name.
    assert!(report.counters.windows(2).all(|w| w[0].0 < w[1].0));
    assert!(report.hists.windows(2).all(|w| w[0].0 < w[1].0));
    assert_eq!(report.counter("server.builds_started"), Some(1));
    // Engine-side instrumentation crossed the wire: WAL flush latency,
    // cache traffic, the drain-lag gauge, per-opcode latency.
    assert!(report.hist("wal.flush_us").is_some());
    assert!(report.counter("cache.hit").is_some());
    assert!(report.counter("build.drain_lag").is_some());
    assert!(report.hist("server.req_us.Metrics").is_some());
    assert!(report.hist("server.req_us.Insert").is_some());
    srv.drain();
}

/// Reactor regression: idle shards must not tick. Eight parked
/// connections produce (nearly) no events for one second; the wakeup
/// counter may move a handful of times — timer-wheel deadlines, stray
/// wake bytes — but nothing like the thousands per second a loop that
/// polled its connections on a timer would make. A ceiling of 200
/// wakeups over the window fails a regression to tick-polling loudly.
/// It runs on the platform's backend (epoll on Linux, poll(2)
/// elsewhere).
#[test]
fn reactor_idle_shards_quiesce() {
    let db = engine(2_000);
    let srv = server(&db, ServerConfig::default());
    let addr = addr_of(&srv);
    let mut conns: Vec<Client> = (0..8).map(|_| Client::connect(&addr).unwrap()).collect();
    for c in &mut conns {
        c.ping().unwrap();
    }

    // Let the post-ping readiness edges settle, then watch a quiet
    // second.
    std::thread::sleep(Duration::from_millis(200));
    let before = srv.stats().wakeups.get();
    std::thread::sleep(Duration::from_secs(1));
    let woke = srv.stats().wakeups.get() - before;
    assert!(
        woke < 200,
        "idle {} shards woke {woke} times in 1s; reactor is tick-polling",
        srv.io_backend()
    );

    // Quiescent, not dead: every connection still answers.
    for c in &mut conns {
        c.ping().unwrap();
    }
    srv.drain();
}

/// Read a raw connection's `Progress` frames up to the `IndexCreated`
/// that ends a build's exchange; its ids.
fn read_build_frames(stream: &mut std::net::TcpStream) -> Vec<u32> {
    loop {
        match Response::decode(&read_frame(stream).unwrap().unwrap()).unwrap() {
            Response::Progress { .. } => {}
            Response::IndexCreated { ids } => return ids,
            other => panic!("expected Progress or IndexCreated, got {other:?}"),
        }
    }
}

/// Frames pipelined behind a `CreateIndex` run the moment the build's
/// exchange ends — whatever prompted the pass that saw it end — not at
/// the connection's next socket event: the client sends nothing more,
/// so there may never be one before the idle timeout.
#[test]
fn frames_queued_behind_a_build_run_when_it_ends() {
    let db = engine(2_000);
    seed(&db, 1_500);
    let srv = server(&db, ServerConfig::default());
    let mut stream = std::net::TcpStream::connect(srv.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();

    let build = Request::CreateIndex {
        table: T.0,
        algo: BuildAlgorithm::Sf,
        specs: vec![IndexSpec {
            name: "ix_pipelined".into(),
            key_cols: vec![0],
            unique: false,
        }],
        options: BuildOptions::default(),
    };
    let mut both = Vec::new();
    write_frame(&mut both, &build.encode()).unwrap();
    write_frame(&mut both, &Request::Ping.encode()).unwrap();
    stream.write_all(&both).unwrap();

    let ids = read_build_frames(&mut stream);
    let next = read_frame(&mut stream).expect("the queued Ping was never answered");
    assert_eq!(Response::decode(&next.unwrap()).unwrap(), Response::Pong);
    verify_index(&db, IndexId(ids[0])).unwrap();
    srv.drain();
}

/// `CreateIndex` round-trip: `BuildOptions` chosen client-side
/// reach the engine (the `build.sort_workers` gauge reports the
/// requested parallelism, the compressed-run gauges account spilled
/// bytes), the built index verifies, and the option-less tag-10
/// encoding an older peer sends still builds on the same server.
#[test]
fn create_index_options_reach_the_engine() {
    let db = engine(5_000);
    seed(&db, 1_500);
    let srv = server(&db, ServerConfig::default());
    let addr = addr_of(&srv);

    let mut c = Client::connect(&addr).unwrap();
    let mut frames = 0u32;
    let ids = c
        .create_index_with(
            T,
            BuildAlgorithm::Sf,
            vec![IndexSpec {
                name: "ix_v2".into(),
                key_cols: vec![0],
                unique: false,
            }],
            BuildOptions {
                parallel_workers: 4,
                compress_runs: true,
                ..BuildOptions::default()
            },
            |_, _, _| frames += 1,
        )
        .expect("parallel compressed build");
    assert_eq!(ids.len(), 1);
    assert!(frames > 0, "the build streams BuildProgress");
    verify_index(&db, ids[0]).unwrap();

    let report = c.metrics().unwrap();
    let get = |name: &str| {
        report
            .counter(name)
            .unwrap_or_else(|| panic!("gauge {name} missing"))
    };
    assert_eq!(get("build.sort_workers"), 4, "requested parallelism");
    let raw = get("build.run_bytes");
    let stored = get("build.run_bytes_compressed");
    assert!(raw > 0, "spilled run bytes accounted");
    assert!(stored < raw, "compression shrank runs: {stored} < {raw}");

    // Empty spec lists refuse with the structured InvalidArg code
    // instead of a protocol error, and the connection survives.
    match c.create_index_with(
        T,
        BuildAlgorithm::Sf,
        vec![],
        BuildOptions::default(),
        |_, _, _| {},
    ) {
        Err(ClientError::Server {
            code: ErrorCode::InvalidArg { msg },
            ..
        }) => assert!(msg.contains("spec"), "{msg}"),
        other => panic!("expected InvalidArg, got {other:?}"),
    }
    c.ping().unwrap();

    // What a peer older than protocol minor 3 sends — tag 10, no
    // options — cannot come from this client any more, so the frame
    // is written out by hand. It still builds.
    #[rustfmt::skip]
    let tag_10: &[u8] = &[
        10,                                          // old `CreateIndex`
        0, 0, 0, T.0 as u8,                          // table
        2,                                           // Sf
        0, 1,                                        // one spec:
        0, 0, 0, 5, b'i', b'x', b'_', b'v', b'1',    //   name
        0, 1, 0, 1,                                  //   key columns [1]
        0,                                           //   not unique
    ];
    let mut stream = std::net::TcpStream::connect(srv.addr()).unwrap();
    write_frame(&mut stream, tag_10).unwrap();
    stream.flush().unwrap();
    let ids = read_build_frames(&mut stream);
    verify_index(&db, IndexId(ids[0])).unwrap();
    srv.drain();
}

/// A `CreateIndex` asking for more scan workers than a build may
/// start is refused with `InvalidArg` before any build starts, and the
/// connection goes on serving: a build it sends next runs.
#[test]
fn create_index_over_the_worker_bound_is_invalid_arg() {
    let db = engine(5_000);
    seed(&db, 200);
    let srv = server(&db, ServerConfig::default());
    let mut c = Client::connect(addr_of(&srv)).unwrap();
    let too_many = BuildOptions::new().workers(MAX_BUILD_WORKERS + 1);
    match c.create_index_with(T, BuildAlgorithm::Sf, ix("ix_wide"), too_many, |_, _, _| {}) {
        Err(ClientError::Server {
            code: ErrorCode::InvalidArg { msg },
            ..
        }) => assert!(msg.contains("parallel_workers"), "{msg}"),
        other => panic!("expected InvalidArg, got {other:?}"),
    }
    assert!(db.indexes_of(T).is_empty(), "nothing registered");
    c.ping().unwrap();
    let ids = c
        .create_index(T, BuildAlgorithm::Sf, ix("ix_after"), |_, _, _| {})
        .expect("the connection still builds");
    verify_index(&db, ids[0]).unwrap();
    srv.drain();
}

fn ix(name: &str) -> Vec<IndexSpec> {
    vec![IndexSpec {
        name: name.into(),
        key_cols: vec![0],
        unique: false,
    }]
}

/// A build that panics answers its client with `Internal` instead of
/// leaving it waiting, gives back its admission slot, and leaves its
/// build worker alive for the next `CREATE INDEX`.
#[test]
fn a_panicking_build_answers_its_client() {
    let db = engine(5_000);
    seed(&db, 500);
    let srv = server(
        &db,
        ServerConfig {
            max_inflight: 1,
            ..ServerConfig::default()
        },
    );
    let mut c = Client::connect(addr_of(&srv)).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // SF: no quiesce lock is held at this site.
    db.failpoints.arm_hook("build.registered", 0, || {
        panic!("build panics at registration")
    });
    match c.create_index(T, BuildAlgorithm::Sf, ix("ix_panics"), |_, _, _| {}) {
        Err(ClientError::Server {
            code: ErrorCode::Internal,
            message,
        }) => assert!(
            message.contains("build panics at registration"),
            "{message}"
        ),
        other => panic!("expected Internal within 10 s, got {other:?}"),
    }
    assert_eq!(srv.stats().builds_failed.get(), 1);

    // With `max_inflight` 1, this build runs only if the slot came back.
    let ids = c
        .create_index(T, BuildAlgorithm::Sf, ix("ix_after"), |_, _, _| {})
        .expect("the next build completes");
    verify_index(&db, ids[0]).unwrap();
    srv.drain();
}

/// `CREATE INDEX`es that follow each other over the wire run on one
/// build worker: the thread that freed the last build's pages
/// allocates the next build's.
#[test]
fn sequential_wire_builds_share_one_worker() {
    let db = engine(5_000);
    seed(&db, 500);
    let srv = server(&db, ServerConfig::default());
    let mut c = Client::connect(addr_of(&srv)).unwrap();
    let seen = Arc::new(Mutex::new(Vec::new()));
    for i in 0..3 {
        let seen = Arc::clone(&seen);
        db.failpoints.arm_hook("build.registered", 0, move || {
            seen.lock().unwrap().push(std::thread::current().id());
        });
        let ids = c
            .create_index(
                T,
                BuildAlgorithm::Sf,
                ix(&format!("ix_seq{i}")),
                |_, _, _| {},
            )
            .unwrap();
        verify_index(&db, ids[0]).unwrap();
    }
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), 3);
    assert!(seen.iter().all(|id| *id == seen[0]), "{seen:?}");
    assert_eq!(c.metrics().unwrap().counter("build.workers"), Some(1));
    srv.drain();
}
