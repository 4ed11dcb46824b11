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
use mohan_oib::build::{build_index, IndexSpec};
use mohan_oib::schema::{BuildAlgorithm, Record};
use mohan_oib::verify::verify_index;
use mohan_oib::Db;
use mohan_server::{Server, ServerConfig};
use mohan_wire::frame::{read_frame, write_frame};
use mohan_wire::message::{
    BuildAlgo, BuildOptionsWire, BuildPhase, ErrorCode, IndexSpecWire, Request, Response,
};
use std::collections::BTreeSet;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

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

    // Stats include server counters and engine gauges.
    let stats = c.stats().unwrap();
    let get = |name: &str| {
        stats
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("stat {name} missing"))
            .1
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
    let mut c = Client::connect(addr_of(&srv)).unwrap();
    c.ping().unwrap();
    std::thread::sleep(Duration::from_millis(600));
    assert!(c.ping().is_err(), "idle connection must be closed");
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
    std::thread::sleep(Duration::from_millis(300));

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
        algo: BuildAlgo::Sf,
        specs: vec![IndexSpecWire {
            name: "ix_orphan".into(),
            key_cols: vec![0],
            unique: false,
        }],
        options: BuildOptionsWire::default(),
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
    drop(stream); // client dies while the build thread keeps running

    // The slot comes back when the worker reaps the dead connection,
    // whether or not the detached build has finished by then.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut c = Client::connect(&addr).unwrap();
    loop {
        match c.insert(T, vec![9_999_999, 0]) {
            Ok(_) => break,
            Err(ClientError::Busy) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("admission slot never released: {e}"),
        }
    }
    srv.drain();
}

/// The acceptance scenario from the ISSUE, end to end.
#[test]
fn concurrent_dml_sf_build_streams_progress_and_drain_loses_nothing() {
    const CLIENTS: usize = 8;
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

    // 8 closed-loop DML clients, each in its own key space. A key goes
    // into `committed` only once its statement's success response (or
    // its transaction's Committed) has been *read back* — exactly the
    // set of writes the drain is not allowed to lose.
    let workers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            let committed = Arc::clone(&committed);
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
                let mut ops = 0u64;
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

    // Let DML traffic establish, then build online over the wire on a
    // ninth connection, collecting the progress stream.
    std::thread::sleep(Duration::from_millis(150));
    let mut builder = Client::connect(&addr).unwrap();
    let mut frames: Vec<(IndexId, BuildPhase, u64)> = Vec::new();
    let ids = builder
        .create_index(
            T,
            BuildAlgo::Sf,
            vec![IndexSpecWire {
                name: "ix_wire".into(),
                key_cols: vec![0],
                unique: false,
            }],
            |id, phase, detail| frames.push((id, phase, detail)),
        )
        .expect("online SF build over the wire");
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

/// E17 regression: an `ObserveStats` subscription keeps emitting
/// metrics frames while a `CreateIndex` streams progress on another
/// connection, and the frames carry sorted names (so clients can
/// binary-search them).
#[test]
fn observe_stream_emits_beside_a_live_build() {
    let db = engine(5_000);
    seed(&db, 2_000);
    let srv = server(
        &db,
        ServerConfig {
            max_inflight: 4,
            progress_interval: Duration::from_millis(5),
            ..ServerConfig::default()
        },
    );
    let addr = addr_of(&srv);

    let build_done = Arc::new(AtomicBool::new(false));
    let build_done2 = Arc::clone(&build_done);
    let addr2 = addr.clone();
    let builder = std::thread::spawn(move || {
        let mut c = Client::connect(&addr2).unwrap();
        let ids = c
            .create_index(
                T,
                BuildAlgo::Sf,
                vec![IndexSpecWire {
                    name: "ix_observed".into(),
                    key_cols: vec![0],
                    unique: false,
                }],
                |_, _, _| {},
            )
            .unwrap();
        build_done2.store(true, Ordering::Release);
        ids
    });

    // Subscribe while the build runs; keep consuming frames until the
    // build finishes and at least three frames arrived.
    let observer = Client::connect(&addr).unwrap();
    let frames: Arc<Mutex<Vec<mohan_client::MetricsReport>>> = Arc::new(Mutex::new(Vec::new()));
    let frames2 = Arc::clone(&frames);
    observer
        .observe_stats(25, move |report| {
            let mut f = frames2.lock().unwrap();
            f.push(report);
            !(f.len() >= 3 && build_done.load(Ordering::Acquire))
        })
        .unwrap();

    let ids = builder.join().unwrap();
    assert_eq!(ids.len(), 1);
    let frames = frames.lock().unwrap();
    assert!(frames.len() >= 3, "only {} metrics frames", frames.len());
    let last = frames.last().unwrap();
    // Both lists sorted by name — the determinism the satellite asks for.
    assert!(last.counters.windows(2).all(|w| w[0].0 < w[1].0));
    assert!(last.hists.windows(2).all(|w| w[0].0 < w[1].0));
    assert_eq!(last.counter("server.builds_started"), Some(1));
    assert!(last.counter("server.observe_frames").unwrap() >= 3);
    // Engine-side instrumentation crossed the wire: WAL flush latency,
    // cache traffic, the drain-lag gauge, per-opcode latency.
    assert!(last.hist("wal.flush_us").is_some());
    assert!(last.counter("cache.hit").is_some());
    assert!(last.counter("build.drain_lag").is_some());
    assert!(last.hist("server.req_us.ObserveStats").is_some());
    drop(frames);
    srv.drain();
}

/// An observer holds an admission slot like a build does; hanging up
/// must release it through the same reap path, or the server wedges
/// at max_inflight.
#[test]
fn observer_disconnect_releases_its_admission_slot() {
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

    let (first_frame_tx, first_frame_rx) = std::sync::mpsc::channel::<()>();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let addr2 = addr.clone();
    let observer = std::thread::spawn(move || {
        let c = Client::connect(&addr2).unwrap();
        c.observe_stats(25, move |_| {
            let _ = first_frame_tx.send(());
            !stop2.load(Ordering::Acquire)
        })
        .unwrap();
    });

    // The stream is live, so the only slot is held: DML gets Busy.
    first_frame_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("no metrics frame arrived");
    let mut c = Client::connect(&addr).unwrap();
    match c.insert(T, vec![1_000, 0]) {
        Err(ClientError::Busy) => {}
        other => panic!("expected Busy while observer holds the slot, got {other:?}"),
    }

    // Disconnect the observer; the worker's reap must give the slot
    // back even though no response was outstanding.
    stop.store(true, Ordering::Release);
    observer.join().unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match c.insert(T, vec![1_001, 0]) {
            Ok(_) => break,
            Err(ClientError::Busy) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("observer slot never released: {e}"),
        }
    }
    srv.drain();
}

/// Reactor regression: idle shards must not tick. Eight parked
/// connections produce (nearly) no events for one second; the wakeup
/// counter may move a handful of times — timer-wheel deadlines, stray
/// wake bytes — but nothing like the thousands per second a loop that
/// polled its connections on a timer would make. A ceiling of 200
/// wakeups over the window fails a regression to tick-polling loudly.
/// `Poll` is requested explicitly: it is the backend every unix host
/// has, and the one whose idle cost is easiest to get wrong.
#[test]
fn reactor_idle_shards_quiesce() {
    use mohan_common::IoBackendChoice;
    let db = engine(2_000);
    let cfg = ServerConfig {
        io_backend: IoBackendChoice::Poll,
        ..ServerConfig::default()
    };
    let srv = server(&db, cfg);
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
        "idle shards woke {woke} times in 1s; reactor is tick-polling"
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
        algo: BuildAlgo::Sf,
        specs: vec![IndexSpecWire {
            name: "ix_pipelined".into(),
            key_cols: vec![0],
            unique: false,
        }],
        options: BuildOptionsWire::default(),
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
            BuildAlgo::Sf,
            vec![IndexSpecWire {
                name: "ix_v2".into(),
                key_cols: vec![0],
                unique: false,
            }],
            BuildOptionsWire {
                parallel_workers: 4,
                compress_runs: true,
                ..BuildOptionsWire::default()
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
        BuildAlgo::Sf,
        vec![],
        BuildOptionsWire::default(),
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
