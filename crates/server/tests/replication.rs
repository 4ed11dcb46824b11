//! Loopback replication tests: a live follower tailing the primary's
//! WAL stream over real TCP.
//!
//! The centrepiece is the ISSUE's acceptance scenario: closed-loop DML
//! clients hammer the primary while an online SF build runs over the
//! wire and a [`Replica`] replays the flushed log into its own engine;
//! the primary then crashes and restarts mid-subscription, the
//! follower resubscribes from its applied LSN, and at the end both
//! engines hold identical live heap and index contents with zero
//! committed writes lost.

use mohan_btree::scan::collect_all;
use mohan_client::{Client, ClientError};
use mohan_common::{EngineConfig, IndexEntry, IndexId, Lsn, TableId, TxId};
use mohan_oib::build::build_index;
use mohan_oib::runtime::{Catalog, IndexState};
use mohan_oib::schema::Record;
use mohan_oib::verify::verify_index;
use mohan_oib::Db;
use mohan_replica::Replica;
use mohan_server::{Server, ServerConfig};
use mohan_wal::{LogPayload, RecKind};
use mohan_wire::frame::{read_frame, write_frame, MAX_FRAME};
use mohan_wire::message::{BuildAlgorithm, ErrorCode, IndexSpec, Request, Response};
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

const T: TableId = TableId(1);
const CATCH_UP: Duration = Duration::from_secs(30);

/// An engine with table 1: a primary, or — once a [`Replica`] runs
/// over it — a follower.
fn engine() -> Arc<Db> {
    let db = Db::new(EngineConfig {
        lock_timeout_ms: 20_000,
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

/// Visible keys of the table, for committed-write accounting.
fn surviving_keys(db: &Arc<Db>) -> BTreeSet<i64> {
    db.table_scan(T)
        .unwrap()
        .into_iter()
        .map(|(_, rec)| rec.0[0])
        .collect()
}

fn ix_spec(name: &str) -> IndexSpec {
    IndexSpec {
        name: name.into(),
        key_cols: vec![0],
        unique: false,
    }
}

/// What the churn has committed: the keys that must survive, and how
/// many operations committed.
#[derive(Default)]
struct Committed {
    keys: BTreeSet<i64>,
    ops: u64,
}

/// [`Committed`], and a wake-up for every commit.
#[derive(Default)]
struct Ledger {
    committed: Mutex<Committed>,
    grew: Condvar,
}

impl Ledger {
    /// Record one committed operation's effect on the surviving keys.
    fn commit(&self, f: impl FnOnce(&mut BTreeSet<i64>)) {
        let mut c = self.committed.lock().unwrap();
        f(&mut c.keys);
        c.ops += 1;
        self.grew.notify_all();
    }

    /// Block until `n` more operations have committed.
    ///
    /// # Panics
    /// If they have not within a minute: the churn stalled.
    fn wait_for_more_ops(&self, n: u64) {
        let c = self.committed.lock().unwrap();
        let target = c.ops + n;
        let (c, _) = self
            .grew
            .wait_timeout_while(c, Duration::from_secs(60), |c| c.ops < target)
            .unwrap();
        assert!(
            c.ops >= target,
            "churn stalled at {} of {target} committed operations",
            c.ops
        );
    }

    fn keys(&self) -> BTreeSet<i64> {
        self.committed.lock().unwrap().keys.clone()
    }
}

/// Closed-loop DML churn: each worker auto-commits inserts, updates
/// and deletes in its own key space, recording a key as committed only
/// once its success response was read back.
fn churn(
    addr: &str,
    clients: usize,
    stop: &Arc<AtomicBool>,
    ledger: &Arc<Ledger>,
) -> Vec<JoinHandle<u64>> {
    (0..clients)
        .map(|i| {
            let addr = addr.to_owned();
            let stop = Arc::clone(stop);
            let ledger = Arc::clone(ledger);
            std::thread::spawn(move || {
                let mut c = match Client::connect(&addr) {
                    Ok(c) => c,
                    Err(e) => panic!("churn client {i} connect: {e}"),
                };
                let mut key = 1_000_000 * (i as i64 + 1);
                let mut mine: Vec<(mohan_common::Rid, i64)> = Vec::new();
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    key += 1;
                    ops += 1;
                    enum Done {
                        Inserted(mohan_common::Rid),
                        Updated(usize, i64),
                        Deleted(usize, i64),
                    }
                    let result = if ops.is_multiple_of(11) && !mine.is_empty() {
                        let j = ops as usize % mine.len();
                        c.delete(T, mine[j].0).map(|()| Done::Deleted(j, mine[j].1))
                    } else if ops.is_multiple_of(7) && !mine.is_empty() {
                        let j = ops as usize % mine.len();
                        c.update(T, mine[j].0, vec![key, 2])
                            .map(|()| Done::Updated(j, mine[j].1))
                    } else {
                        c.insert(T, vec![key, 0]).map(Done::Inserted)
                    };
                    match result {
                        Ok(Done::Inserted(rid)) => {
                            ledger.commit(|keys| {
                                keys.insert(key);
                            });
                            mine.push((rid, key));
                        }
                        Ok(Done::Updated(j, old_key)) => {
                            ledger.commit(|keys| {
                                keys.remove(&old_key);
                                keys.insert(key);
                            });
                            mine[j].1 = key;
                        }
                        Ok(Done::Deleted(j, old_key)) => {
                            ledger.commit(|keys| {
                                keys.remove(&old_key);
                            });
                            mine.swap_remove(j);
                            key -= 1; // key unused
                        }
                        Err(ClientError::Server {
                            code: ErrorCode::Draining,
                            ..
                        }) => break,
                        Err(ClientError::Io(_) | ClientError::Protocol(_)) => break,
                        Err(e) => panic!("churn client {i} unexpected error: {e}"),
                    }
                }
                ops
            })
        })
        .collect()
}

/// Flush the primary and block until the follower has applied its
/// whole flushed prefix.
fn converge(primary: &Arc<Db>, replica: &Replica) -> Lsn {
    primary.wal.flush_all();
    let target = primary.wal.flushed_lsn();
    let applied = replica.wait_applied(target, CATCH_UP);
    assert_eq!(
        replica.severed_at(),
        None,
        "follower severed with {} applied",
        replica.applied_lsn().0
    );
    assert!(
        applied,
        "follower stuck at {} short of {} (lag {})",
        replica.applied_lsn().0,
        target.0,
        replica.lag()
    );
    target
}

/// Both engines agree on every replicated artefact: raw heap scan,
/// visible keys, the index's live entries, and the follower's index
/// passes the verify oracle against the follower's own heap.
fn assert_identical(primary: &Arc<Db>, follower: &Arc<Db>, built: IndexId) {
    assert_eq!(
        primary.table_scan(T).unwrap(),
        follower.table_scan(T).unwrap(),
        "heap contents diverged"
    );
    assert_eq!(surviving_keys(primary), surviving_keys(follower));
    let idx = follower
        .index(built)
        .expect("index replicated via CatalogUpdate");
    assert_eq!(idx.state(), IndexState::Complete);
    assert_eq!(
        live_entries(primary, built),
        live_entries(follower, built),
        "index live entries diverged"
    );
    verify_index(follower, built).expect("follower index verifies against follower heap");
}

/// Satellite (a): the follower converges to identical heap + index
/// contents while the primary runs DML beside an online SF build.
#[test]
fn follower_converges_under_dml_while_sf_build_runs() {
    let primary = engine();
    seed(&primary, 300);
    let srv = server(
        &primary,
        ServerConfig {
            workers: 4,
            max_inflight: 32,
            ..ServerConfig::default()
        },
    );
    let addr = addr_of(&srv);

    let follower = engine();
    let replica = Replica::new(Arc::clone(&follower), &addr);
    let apply = replica.spawn();

    let stop = Arc::new(AtomicBool::new(false));
    let ledger = Arc::new(Ledger::default());
    let workers = churn(&addr, 4, &stop, &ledger);

    // Let traffic establish, then build online over the wire; keep the
    // churn running afterwards so the *completed* index sees
    // maintenance through the stream too.
    ledger.wait_for_more_ops(50);
    let mut builder = Client::connect(&addr).unwrap();
    let ids = builder
        .create_index(
            T,
            BuildAlgorithm::Sf,
            vec![ix_spec("ix_repl")],
            |_, _, _| {},
        )
        .expect("online SF build beside a live subscription");
    let built = ids[0];
    ledger.wait_for_more_ops(100);

    stop.store(true, Ordering::Relaxed);
    let total_ops: u64 = workers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total_ops > 100, "too little churn to be meaningful");

    converge(&primary, &replica);
    assert!(replica.lag() == 0, "lag {} after catch-up", replica.lag());
    assert_identical(&primary, &follower, built);

    let committed = ledger.keys();
    let visible = surviving_keys(&follower);
    for key in committed.iter() {
        assert!(
            visible.contains(key),
            "committed key {key} missing on follower"
        );
    }

    replica.stop();
    srv.drain();
    apply.join().unwrap();
}

/// Satellite (b): a dropped subscription (server drain) is survived by
/// reconnecting and resubscribing from its log's tail + 1.
#[test]
fn follower_reconnects_after_server_restart_and_catches_up() {
    let primary = engine();
    seed(&primary, 50);
    let srv1 = server(&primary, ServerConfig::default());

    let follower = engine();
    let replica = Replica::new(Arc::clone(&follower), &addr_of(&srv1));
    let apply = replica.spawn();
    converge(&primary, &replica);

    // Drain kills the streaming connection; the follower falls into
    // its backoff loop against a dead address.
    srv1.drain();

    // More committed work while no server is up…
    let tx = primary.begin();
    for k in 0..40 {
        primary
            .insert_record(tx, T, &Record(vec![500 + k, 1]))
            .unwrap();
    }
    primary.commit(tx).unwrap();

    // …then a new server (fresh port) over the same engine; repoint
    // the follower at it.
    let srv2 = server(&primary, ServerConfig::default());
    replica.set_addr(&addr_of(&srv2));

    converge(&primary, &replica);
    assert!(replica.reconnects() >= 1, "follower never reconnected");
    assert_eq!(
        primary.table_scan(T).unwrap(),
        follower.table_scan(T).unwrap()
    );

    replica.stop();
    srv2.drain();
    apply.join().unwrap();
}

/// A release writes no log record, so the follower replays committed
/// deletes as reservations the primary has already given away. An
/// insert into the bytes two of them released still applies.
#[test]
fn follower_applies_an_insert_into_bytes_committed_deletes_released() {
    let primary = engine();
    let srv = server(&primary, ServerConfig::default());
    let follower = engine();
    let replica = Replica::new(Arc::clone(&follower), &addr_of(&srv));
    let apply = replica.spawn();

    // Fill data page 0 exactly: 26 + 26 + 34 + 7 × 18 record bytes.
    let tx = primary.begin();
    let mut rids = Vec::new();
    for cols in [3, 3, 4, 2, 2, 2, 2, 2, 2, 2] {
        let row = Record(vec![rids.len() as i64; cols]);
        rids.push(primary.insert_record(tx, T, &row).unwrap());
    }
    primary.commit(tx).unwrap();
    let tx = primary.begin();
    primary.delete_record(tx, T, rids[0]).unwrap();
    primary.delete_record(tx, T, rids[1]).unwrap();
    primary.commit(tx).unwrap();
    let tx = primary.begin();
    let big = primary.insert_record(tx, T, &Record(vec![9; 5])).unwrap();
    primary.commit(tx).unwrap();
    assert_eq!(big, rids[0], "the insert took both released chunks");

    converge(&primary, &replica);
    assert_eq!(
        primary.table_scan(T).unwrap(),
        follower.table_scan(T).unwrap()
    );

    replica.stop();
    srv.drain();
    apply.join().unwrap();
}

/// The ISSUE's acceptance scenario: concurrent DML + SF build + one
/// primary crash/restart mid-subscription; the follower resubscribes
/// from its applied LSN and ends byte-identical with zero committed
/// writes lost.
#[test]
fn primary_crash_restart_mid_subscription_loses_nothing() {
    let primary = engine();
    seed(&primary, 200);
    let srv1 = server(
        &primary,
        ServerConfig {
            workers: 4,
            max_inflight: 32,
            ..ServerConfig::default()
        },
    );
    let addr1 = addr_of(&srv1);

    let follower = engine();
    let replica = Replica::new(Arc::clone(&follower), &addr1);
    let apply = replica.spawn();

    // Phase 1: churn + online SF build, follower subscribed throughout.
    let stop = Arc::new(AtomicBool::new(false));
    let ledger = Arc::new(Ledger::default());
    let workers = churn(&addr1, 4, &stop, &ledger);
    ledger.wait_for_more_ops(50);
    let mut builder = Client::connect(&addr1).unwrap();
    let ids = builder
        .create_index(
            T,
            BuildAlgorithm::Sf,
            vec![ix_spec("ix_crashy")],
            |_, _, _| {},
        )
        .expect("online SF build");
    let built = ids[0];
    ledger.wait_for_more_ops(50);
    stop.store(true, Ordering::Relaxed);
    let total_ops: u64 = workers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total_ops > 0);
    drop(builder);

    // Drain flushes the WAL, so the crash below can lose nothing
    // committed; it also tears down the follower's subscription.
    srv1.drain();
    primary.simulate_crash();
    primary.restart().expect("primary restart recovery");

    // The restarted primary serves from a fresh port; repoint the
    // follower, which resubscribes from its log's tail + 1 — always a
    // valid start because the tail only covers durably flushed records.
    let srv2 = server(&primary, ServerConfig::default());
    let addr2 = addr_of(&srv2);
    replica.set_addr(&addr2);

    // Phase 2: more committed DML on the restarted primary.
    let mut c = Client::connect(&addr2).unwrap();
    for k in 0..60 {
        let key = 9_000_000 + k;
        c.insert(T, vec![key, 3]).unwrap();
        ledger.commit(|keys| {
            keys.insert(key);
        });
    }
    drop(c);

    converge(&primary, &replica);
    assert!(replica.reconnects() >= 1, "follower never reconnected");
    assert_identical(&primary, &follower, built);

    // Zero committed writes lost — on either side.
    let committed = ledger.keys();
    let on_primary = surviving_keys(&primary);
    let on_follower = surviving_keys(&follower);
    for key in committed.iter() {
        assert!(
            on_primary.contains(key),
            "committed key {key} lost by primary"
        );
        assert!(
            on_follower.contains(key),
            "committed key {key} lost by follower"
        );
    }
    assert!(committed.len() > 50, "too little traffic to be meaningful");

    replica.stop();
    srv2.drain();
    apply.join().unwrap();
}

/// Satellite (2)'s wire half: `from_lsn` is validated at the server
/// boundary — 0 and anything beyond `flushed + 1` are refused with a
/// structured error rather than hanging the flush/tail machinery.
#[test]
fn subscribe_from_lsn_is_validated() {
    let primary = engine();
    seed(&primary, 10);
    primary.wal.flush_all();
    let flushed = primary.wal.flushed_lsn().0;
    let srv = server(&primary, ServerConfig::default());
    let mut c = Client::connect(addr_of(&srv)).unwrap();

    for bad in [0, flushed + 2, u64::MAX] {
        match c.call(&Request::SubscribeWal { from_lsn: bad }).unwrap() {
            Response::Err { code, .. } => assert_eq!(code, ErrorCode::Malformed),
            other => panic!("from_lsn {bad}: expected Malformed, got {other:?}"),
        }
    }
    // A refused subscription leaves the connection (and the admission
    // slot) in its normal state.
    c.ping().unwrap();
    srv.drain();
}

/// A WAL subscriber holds an admission slot like an observer does;
/// hanging up must release it through the reap path.
#[test]
fn subscriber_disconnect_releases_admission_slot() {
    let primary = engine();
    seed(&primary, 10);
    primary.wal.flush_all();
    let srv = server(
        &primary,
        ServerConfig {
            max_inflight: 1,
            ..ServerConfig::default()
        },
    );
    let addr = addr_of(&srv);

    // Subscribe on a raw client: the first WalFrame proves the stream
    // is live and the single slot is held.
    let mut sub = Client::connect(&addr).unwrap();
    match sub.call(&Request::SubscribeWal { from_lsn: 1 }).unwrap() {
        Response::WalFrame { count, .. } => assert!(count > 0),
        other => panic!("expected WalFrame, got {other:?}"),
    }
    let mut c = Client::connect(&addr).unwrap();
    match c.insert(T, vec![1_000, 0]) {
        Err(ClientError::Busy) => {}
        other => panic!("expected Busy while subscriber holds the slot, got {other:?}"),
    }

    // Hang up; the worker's reap must give the slot back, and it ends
    // the connection's job before it counts the close.
    let closed = srv.stats().conns_closed.get();
    drop(sub);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while srv.stats().conns_closed.get() == closed {
        assert!(
            std::time::Instant::now() < deadline,
            "the subscriber was never reaped"
        );
        std::thread::yield_now();
    }
    c.insert(T, vec![1_001, 0])
        .expect("the reap released the subscriber's slot");
    assert!(srv.stats().wal_subs.get() >= 1);
    srv.drain();
}

/// A record bigger than the pump's per-frame byte budget (but under
/// the wire frame cap) must travel alone in its own frame, with the
/// stream intact and gapless around it — the shape `persist_catalog`
/// produces for a large schema.
#[test]
fn oversized_record_ships_alone_without_breaking_stream() {
    const BIG: usize = 3 << 20;
    let primary = engine();
    seed(&primary, 20);
    primary.wal.flush_all();
    let srv = server(&primary, ServerConfig::default());
    let addr = addr_of(&srv);

    // `tail` is 0 until the writer below is done; the subscriber keeps
    // listening until it has everything up to the final flushed LSN.
    let tail = Arc::new(AtomicU64::new(0));
    let (subscribed, on_first_frame) = std::sync::mpsc::channel();
    let sub = {
        let tail = Arc::clone(&tail);
        let c = Client::connect(&addr).unwrap();
        std::thread::spawn(move || {
            let mut next = 1u64;
            let mut big_frame_records = 0usize;
            let mut subscribed = Some(subscribed);
            let res = c.subscribe_wal(1, |_flushed, records, _traces| {
                if let Some(tx) = subscribed.take() {
                    tx.send(()).unwrap();
                }
                if records.iter().any(|r| {
                    matches!(&r.payload, LogPayload::CatalogUpdate { bytes } if bytes.len() == BIG)
                }) {
                    big_frame_records += records.len();
                }
                for rec in &records {
                    assert_eq!(rec.lsn.0, next, "stream gap or replay");
                    next += 1;
                }
                let t = tail.load(Ordering::Acquire);
                t == 0 || next <= t
            });
            (res, next, big_frame_records)
        })
    };

    // Live records on both sides of a record ~3x the frame budget,
    // written once the stream is live.
    on_first_frame.recv().unwrap();
    let tx = primary.begin();
    for k in 0..10 {
        primary
            .insert_record(tx, T, &Record(vec![700 + k, 0]))
            .unwrap();
    }
    primary.commit(tx).unwrap();
    primary.wal.append(
        TxId(999_999),
        Lsn::NULL,
        RecKind::RedoOnly,
        LogPayload::CatalogUpdate {
            bytes: vec![0xCD; BIG],
        },
    );
    let tx = primary.begin();
    for k in 0..10 {
        primary
            .insert_record(tx, T, &Record(vec![800 + k, 0]))
            .unwrap();
    }
    primary.commit(tx).unwrap();
    primary.wal.flush_all();
    tail.store(primary.wal.flushed_lsn().0, Ordering::Release);

    let (res, next, big_frame_records) = sub.join().unwrap();
    res.expect("stream must survive the oversized record");
    assert_eq!(next, tail.load(Ordering::Acquire) + 1, "records missing");
    assert_eq!(
        big_frame_records, 1,
        "oversized record must travel alone in its own frame"
    );
    srv.drain();
}

/// A record too large for any wire frame ends the stream with an
/// explicit error before the cursor moves past it — it is never
/// skipped — and a frame pipelined behind the `SubscribeWal` then
/// runs, without the client sending another byte.
#[test]
fn frame_queued_behind_an_unshippable_record_runs() {
    let primary = engine();
    seed(&primary, 10);
    // The record below grows the log past the background checkpointer's
    // trigger; this pin keeps everything from LSN 1 on.
    let _pin = primary.wal.pin(Lsn(1)).expect("nothing truncated yet");
    let big = primary.wal.append(
        TxId(999_999),
        Lsn::NULL,
        RecKind::RedoOnly,
        LogPayload::CatalogUpdate {
            bytes: vec![0xCD; MAX_FRAME + (1 << 20)],
        },
    );
    primary.wal.flush_all();
    let srv = server(&primary, ServerConfig::default());

    let mut stream = TcpStream::connect(addr_of(&srv)).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut both = Vec::new();
    write_frame(&mut both, &Request::SubscribeWal { from_lsn: 1 }.encode()).unwrap();
    write_frame(&mut both, &Request::Ping.encode()).unwrap();
    stream.write_all(&both).unwrap();

    let mut next = 1;
    loop {
        match Response::decode(&read_frame(&mut stream).unwrap().unwrap()).unwrap() {
            Response::WalFrame { count, .. } => next += u64::from(count),
            Response::Err {
                code: ErrorCode::Internal,
                message,
            } => {
                assert!(message.contains("frame cap"), "{message}");
                break;
            }
            other => panic!("expected WalFrames, then Err(Internal); got {other:?}"),
        }
    }
    assert_eq!(next, big.0, "the stream must stop right before the record");
    let after = read_frame(&mut stream).expect("the queued Ping was never answered");
    assert_eq!(Response::decode(&after.unwrap()).unwrap(), Response::Pong);
    srv.drain();
}

/// Shut or open, and waited on while shut: how the proxy below freezes
/// a stream without polling.
#[derive(Default)]
struct Valve {
    shut: Mutex<bool>,
    changed: Condvar,
}

impl Valve {
    fn set_shut(&self, shut: bool) {
        *self.shut.lock().unwrap() = shut;
        self.changed.notify_all();
    }

    fn wait_open(&self) {
        let shut = self.shut.lock().unwrap();
        drop(self.changed.wait_while(shut, |shut| *shut).unwrap());
    }
}

/// Copy one direction of a proxied connection until either side
/// closes; before each read, wait at `valve` if there is one. A shut
/// valve reads nothing, which turns into TCP backpressure on the
/// writer.
fn pipe(mut from: TcpStream, mut to: TcpStream, valve: Option<Arc<Valve>>) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut buf = [0u8; 8192];
        loop {
            if let Some(valve) = &valve {
                valve.wait_open();
            }
            match from.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    if to.write_all(&buf[..n]).is_err() {
                        break;
                    }
                }
            }
        }
        let _ = to.shutdown(std::net::Shutdown::Both);
        let _ = from.shutdown(std::net::Shutdown::Both);
    })
}

/// A TCP proxy in front of the primary whose server→client direction
/// can be frozen: the cheapest honest model of a stalled follower.
/// (Re)subscribe requests still reach the primary while its responses
/// back up.
struct Proxy {
    addr: String,
    valve: Arc<Valve>,
    accept: JoinHandle<()>,
}

impl Proxy {
    fn start(target: String) -> Proxy {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let valve = Arc::new(Valve::default());
        let shared = Arc::clone(&valve);
        let accept = std::thread::spawn(move || {
            let mut pipes = Vec::new();
            for client in listener.incoming() {
                // `stop` wakes this loop with a connection of its own.
                let Ok(upstream) = TcpStream::connect(&target) else {
                    break;
                };
                let client = client.unwrap();
                pipes.push(pipe(
                    client.try_clone().unwrap(),
                    upstream.try_clone().unwrap(),
                    None,
                ));
                pipes.push(pipe(upstream, client, Some(Arc::clone(&shared))));
            }
            for p in pipes {
                p.join().unwrap();
            }
        });
        Proxy {
            addr,
            valve,
            accept,
        }
    }

    /// Join the proxy once its target has gone away: the pipes end when
    /// the target closes their connections, and the accept loop when a
    /// new connection finds no target.
    fn stop(self) {
        self.valve.set_shut(false);
        drop(TcpStream::connect(&self.addr));
        self.accept.join().unwrap();
    }
}

/// A follower whose stream stalls keeps its place through a checkpoint.
/// Its stream freezes behind the proxy while the primary commits 64 000
/// wide rows, runs an SF build and checkpoints. The stream's pin holds
/// the truncation at its cursor, so on thaw the follower carries on
/// where it stopped — no resubscribe, nothing severed — and converges
/// with every committed key and a verifying index.
#[test]
fn stalled_follower_survives_a_checkpoint_mid_build() {
    let primary = engine();
    seed(&primary, 300);
    let srv = server(
        &primary,
        ServerConfig {
            workers: 2,
            max_inflight: 32,
            // Long enough that no blocked-write reaper ends the stream.
            write_timeout: Duration::from_secs(60),
            ..ServerConfig::default()
        },
    );
    let addr = addr_of(&srv);
    let proxy = Proxy::start(addr.clone());

    let follower = engine();
    let replica = Replica::new(Arc::clone(&follower), &proxy.addr);
    let apply = replica.spawn();
    converge(&primary, &replica);

    // Freeze the follower's stream — for well under its 5 s read
    // timeout — and write far more than the socket buffers hold.
    proxy.valve.set_shut(true);
    let mut committed = BTreeSet::new();
    for batch in 0..64i64 {
        let tx = primary.begin();
        for i in 0..1000 {
            let key = 5_000_000 + batch * 1000 + i;
            // 12 columns: as wide as `EngineConfig::small()` pages fit.
            primary
                .insert_record(tx, T, &Record(vec![key; 12]))
                .unwrap();
            committed.insert(key);
        }
        primary.commit(tx).unwrap();
        primary.wal.flush_all();
    }
    let mut builder = Client::connect(&addr).unwrap();
    let built = builder
        .create_index(
            T,
            BuildAlgorithm::Sf,
            vec![ix_spec("ix_stall")],
            |_, _, _| {},
        )
        .expect("SF build while the follower is frozen")[0];
    primary.checkpoint().unwrap();
    // The only stream subscribed from LSN 1 and never resubscribed: its
    // cursor is 1 + the records the server has shipped.
    let cursor = 1 + srv.stats().wal_records.get();
    let first = primary.wal.first_lsn().0;
    assert!(first > 1, "the checkpoint truncated nothing");
    assert!(
        first <= cursor,
        "truncated to {first}, past the frozen stream's cursor {cursor}"
    );
    proxy.valve.set_shut(false);

    converge(&primary, &replica);
    assert_eq!(replica.reconnects(), 0, "the stream was dropped");
    assert_identical(&primary, &follower, built);
    let visible = surviving_keys(&follower);
    for key in &committed {
        assert!(visible.contains(key), "committed key {key} lost");
    }

    replica.stop();
    srv.drain();
    apply.join().unwrap();
    proxy.stop();
}

/// Append `mib` MiB of raw filler records to `db`'s log and flush.
fn filler(db: &Db, mib: usize) {
    for _ in 0..mib * 16 {
        db.wal.append(
            TxId(999_999),
            Lsn::NULL,
            RecKind::RedoOnly,
            LogPayload::CatalogUpdate {
                bytes: vec![0xAB; 64 << 10],
            },
        );
    }
    db.wal.flush_all();
}

/// A subscription that starts below the primary's first retained LSN
/// is refused with `LogTruncated`, and a follower takes that as final:
/// it stops, instead of resubscribing to the same answer forever.
#[test]
fn a_subscription_below_the_truncation_point_is_refused_for_good() {
    let primary = engine();
    seed(&primary, 200);
    primary.checkpoint().unwrap();
    let first = primary.wal.first_lsn().0;
    assert!(first > 1);
    let srv = server(&primary, ServerConfig::default());
    let mut c = Client::connect(addr_of(&srv)).unwrap();
    match c.call(&Request::SubscribeWal { from_lsn: 1 }).unwrap() {
        Response::Err { code, .. } => {
            assert_eq!(code, ErrorCode::LogTruncated { first_lsn: first })
        }
        other => panic!("expected LogTruncated, got {other:?}"),
    }
    c.ping().unwrap();
    match c.call(&Request::SubscribeWal { from_lsn: first }).unwrap() {
        Response::WalFrame { .. } => {}
        other => panic!("from the first LSN on the stream runs; got {other:?}"),
    }
    drop(c);

    let follower = engine();
    let replica = Replica::new(Arc::clone(&follower), &addr_of(&srv));
    let run = replica.spawn();
    // Returns as soon as the follower is severed.
    assert!(!replica.wait_applied(Lsn(1), CATCH_UP));
    let severed = replica.severed_at();
    replica.stop();
    run.join().unwrap();
    assert_eq!(severed, Some(Lsn(first)));
    // It stopped on the first answer: no reconnect, nothing applied.
    assert_eq!(replica.reconnects(), 0);
    assert_eq!(replica.applied_lsn(), Lsn::NULL);
    srv.drain();
}

/// A live subscription pins the primary's log at its cursor. The
/// subscriber stalls inside its first frame while it is still catching
/// up from the log; the log grows past the checkpoint trigger and is
/// checkpointed; every record the subscriber
/// had yet to receive is still there, and it receives all of them, in
/// order.
#[test]
fn a_stalled_subscriber_pins_the_log_at_its_cursor() {
    let primary = engine();
    seed(&primary, 50);
    // Below the checkpoint trigger, and far more than the socket
    // buffers hold.
    filler(&primary, 12);
    let srv = server(
        &primary,
        ServerConfig {
            write_timeout: Duration::from_secs(60),
            ..ServerConfig::default()
        },
    );
    let (stalled, on_stall) = std::sync::mpsc::channel();
    let (go, release) = std::sync::mpsc::channel::<u64>();
    let c = Client::connect(addr_of(&srv)).unwrap();
    let sub = std::thread::spawn(move || {
        let mut expected = 1u64;
        let mut target = None;
        c.subscribe_wal(1, |_flushed, records, _traces| {
            for r in &records {
                assert_eq!(r.lsn.0, expected, "gap in the stream");
                expected += 1;
            }
            let target = *target.get_or_insert_with(|| {
                stalled.send(()).unwrap();
                release.recv().unwrap()
            });
            expected <= target
        })
        .map(|()| expected - 1)
    });
    on_stall.recv().unwrap();
    // The stream's socket is full: its cursor is somewhere in the
    // filler. Now the log grows past the trigger and is checkpointed.
    filler(&primary, 12);
    primary.checkpoint().unwrap();
    let tail = primary.wal.tail_lsn().0;
    let first = primary.wal.first_lsn().0;
    assert!(first > 1, "nothing was truncated");
    assert!(
        first < tail - 16,
        "the pin held nothing back: first {first}, tail {tail}"
    );
    go.send(tail).unwrap();
    // Everything through the tail, in order (a checkpoint may have
    // appended more since).
    assert!(sub.join().unwrap().unwrap() >= tail);
    srv.drain();
}

/// A follower whose apply fails stalls: it discards its queue, drops
/// the connection, resubscribes from its log's tail + 1 and converges.
#[test]
fn a_failed_apply_stalls_resubscribes_and_converges() {
    let primary = engine();
    seed(&primary, 200);
    let srv = server(
        &primary,
        ServerConfig {
            workers: 4,
            max_inflight: 32,
            ..ServerConfig::default()
        },
    );
    let addr = addr_of(&srv);
    let follower = engine();
    let replica = Replica::new(Arc::clone(&follower), &addr);
    let apply = replica.spawn();
    converge(&primary, &replica);

    // The 50th record the follower applies from here on fails, once.
    follower.failpoints.arm_after("repl.apply.record", 49);
    let stop = Arc::new(AtomicBool::new(false));
    let ledger = Arc::new(Ledger::default());
    let workers = churn(&addr, 4, &stop, &ledger);
    ledger.wait_for_more_ops(50);
    let built = Client::connect(&addr)
        .unwrap()
        .create_index(
            T,
            BuildAlgorithm::Sf,
            vec![ix_spec("ix_stall")],
            |_, _, _| {},
        )
        .expect("online SF build")[0];
    ledger.wait_for_more_ops(100);
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().unwrap();
    }

    converge(&primary, &replica);
    let metrics = follower.obs.snapshot();
    assert_eq!(metrics.counter("repl.apply_errors"), Some(1));
    assert!(replica.reconnects() >= 1, "follower never resubscribed");
    assert_identical(&primary, &follower, built);
    let visible = surviving_keys(&follower);
    for key in &ledger.keys() {
        assert!(visible.contains(key), "committed key {key} lost");
    }

    replica.stop();
    srv.drain();
    apply.join().unwrap();
}

/// Promotion waits out the frame being applied: it returns only once
/// that frame's apply has finished, and the promoted engine takes
/// writes with every index whole and nothing left queued.
#[test]
fn promotion_waits_out_the_frame_being_applied() {
    let primary = engine();
    seed(&primary, 100);
    let srv = server(&primary, ServerConfig::default());
    let addr = addr_of(&srv);
    let built = Client::connect(&addr)
        .unwrap()
        .create_index(
            T,
            BuildAlgorithm::Sf,
            vec![ix_spec("ix_promote")],
            |_, _, _| {},
        )
        .expect("SF build")[0];
    let follower = engine();
    let replica = Replica::new(Arc::clone(&follower), &addr);
    let run = replica.spawn();
    converge(&primary, &replica);

    // The next record the follower applies blocks until released.
    let (entered, on_entered) = std::sync::mpsc::channel();
    let (release, released) = std::sync::mpsc::channel::<()>();
    follower
        .failpoints
        .arm_hook("repl.apply.record", 0, move || {
            entered.send(()).unwrap();
            released.recv().unwrap();
        });
    let tx = primary.begin();
    for k in 0..100 {
        primary
            .insert_record(tx, T, &Record(vec![10_000 + k, 0]))
            .unwrap();
    }
    primary.commit(tx).unwrap();
    on_entered.recv().unwrap();

    let released_first = Arc::new(AtomicBool::new(false));
    let (done, on_done) = std::sync::mpsc::channel();
    let promoting = {
        let replica = Arc::clone(&replica);
        let released_first = Arc::clone(&released_first);
        std::thread::spawn(move || {
            let report = replica.promote();
            done.send((report, released_first.load(Ordering::Acquire)))
                .unwrap();
        })
    };
    // The follower stops following as promotion begins. A promotion
    // that did not wait would be done well within the window below.
    assert!(!replica.wait_silence(Duration::from_secs(3600)));
    assert!(
        on_done.recv_timeout(Duration::from_millis(200)).is_err(),
        "promote returned while a frame was being applied"
    );
    released_first.store(true, Ordering::Release);
    release.send(()).unwrap();
    let (report, after_release) = on_done.recv().unwrap();
    promoting.join().unwrap();
    report.expect("promotion");
    assert!(
        after_release,
        "promote returned while a frame was being applied"
    );
    assert!(replica.is_promoted());

    let tx = follower.begin();
    follower
        .insert_record(tx, T, &Record(vec![20_000, 0]))
        .expect("the promoted engine takes writes");
    follower.commit(tx).unwrap();
    let indexes = follower.indexes_of(T);
    assert!(indexes.iter().any(|idx| idx.def.id == built));
    for idx in indexes {
        verify_index(&follower, idx.def.id).expect("index verifies after promotion");
    }
    assert_eq!(follower.obs.snapshot().counter("repl.queue_depth"), Some(0));

    replica.stop();
    srv.drain();
    run.join().unwrap();
}

/// A record whose redo fails is not mirrored, so the resubscribe offers
/// it again. The primary inserts into a table the follower lacks
/// (`create_table` is not logged): the redo fails, and a hook creates
/// the table as the record comes round a second time.
#[test]
fn a_record_whose_redo_failed_is_fetched_again() {
    const T2: TableId = TableId(2);
    let primary = engine();
    seed(&primary, 20);
    let srv = server(&primary, ServerConfig::default());
    let follower = engine();
    let replica = Replica::new(Arc::clone(&follower), &addr_of(&srv));
    let run = replica.spawn();
    converge(&primary, &replica);

    // The follower applies the transaction's begin (hit 1) and its
    // insert (hit 2, whose redo fails), then, resubscribed, the insert
    // again (hit 3).
    let again = Arc::clone(&follower);
    follower
        .failpoints
        .arm_hook("repl.apply.record", 2, move || {
            again.create_table(T2);
        });
    primary.create_table(T2);
    let tx = primary.begin();
    primary.insert_record(tx, T2, &Record(vec![7, 7])).unwrap();
    primary.commit(tx).unwrap();

    let flushed = converge(&primary, &replica);
    let metrics = follower.obs.snapshot();
    assert_eq!(metrics.counter("repl.apply_errors"), Some(1));
    assert_eq!(
        follower.wal.tail_lsn(),
        flushed,
        "the mirror is the apply point"
    );
    assert_eq!(
        primary.table_scan(T2).unwrap(),
        follower.table_scan(T2).unwrap()
    );

    replica.stop();
    srv.drain();
    run.join().unwrap();
}

/// Promotion cancels the builds it cannot finish (§2.3.2): their
/// progress records stayed in the old primary's blob store. An SF build
/// dies mid-load on the primary and committed inserts go to its
/// side-file; the promoted follower drops the index, nothing holds its
/// log at the side-file's appends, and the same build then completes.
#[test]
fn promotion_cancels_the_builds_it_cannot_finish() {
    let primary = engine();
    seed(&primary, 200);
    let srv = server(&primary, ServerConfig::default());
    let follower = engine();
    let replica = Replica::new(Arc::clone(&follower), &addr_of(&srv));
    let run = replica.spawn();
    converge(&primary, &replica);
    primary.checkpoint().unwrap();

    primary.failpoints.arm("sf.load.key");
    let err = build_index(&primary, T, ix_spec("ix_half"), BuildAlgorithm::Sf).unwrap_err();
    assert!(err.is_crash(), "{err}");
    let half = primary.indexes_of(T)[0].def.id;
    let tx = primary.begin();
    for k in 0..50 {
        primary
            .insert_record(tx, T, &Record(vec![1_000 + k, 0]))
            .unwrap();
    }
    primary.commit(tx).unwrap();
    converge(&primary, &replica);
    let idx = follower.index(half).expect("the build's index replicated");
    assert_eq!(idx.state(), IndexState::SfBuilding);
    let first_append = follower
        .wal
        .iter_from(Lsn(follower.wal.first_lsn().0 - 1))
        .find(|r| matches!(r.payload, LogPayload::SideFileAppend { index, .. } if index == half))
        .expect("the inserts went to the side-file")
        .lsn;

    replica.promote().expect("promotion");
    assert!(
        follower.indexes_of(T).is_empty(),
        "the half-built index survived promotion"
    );
    let tx = follower.begin();
    for k in 0..50 {
        follower
            .insert_record(tx, T, &Record(vec![2_000 + k, 0]))
            .unwrap();
    }
    follower.commit(tx).unwrap();
    follower.checkpoint().unwrap();
    assert!(
        follower.wal.first_lsn() > first_append,
        "the log is held at the cancelled side-file's first append {}",
        first_append.0
    );
    let rebuilt = build_index(&follower, T, ix_spec("ix_half"), BuildAlgorithm::Sf)
        .expect("the same build on the promoted engine");
    verify_index(&follower, rebuilt).expect("the rebuilt index verifies");

    replica.stop();
    srv.drain();
    run.join().unwrap();
}

/// The index a record maintains, if it maintains one.
fn maintained(payload: &LogPayload) -> Option<IndexId> {
    match payload {
        LogPayload::IndexInsert { index, .. }
        | LogPayload::IndexReactivate { index, .. }
        | LogPayload::IndexPseudoDelete { index, .. }
        | LogPayload::IndexInsertTombstone { index, .. }
        | LogPayload::IndexPhysicalDelete { index, .. }
        | LogPayload::IndexBulkInsert { index, .. }
        | LogPayload::IndexBulkRemove { index, .. }
        | LogPayload::SideFileAppend { index, .. } => Some(*index),
        _ => None,
    }
}

/// The states of the descriptors an engine's catalog holds, cancelled
/// ones included.
fn catalog_states(db: &Db) -> Vec<(IndexId, IndexState)> {
    let Catalog(entries) = Catalog::decode(&db.blobs.get("catalog").unwrap()).unwrap();
    entries.iter().map(|e| (e.def.id, e.state)).collect()
}

/// A cancelled index replicates as a `Cancelled` catalog entry: the
/// follower keeps the descriptor, reads and maintains nothing through
/// it, and drops it when the primary's next quiesce of the table
/// removes it. The build is NSF, so the follower redid index records
/// for it before the cancel.
#[test]
fn a_cancelled_index_replicates_and_nothing_maintains_it() {
    let primary = engine();
    seed(&primary, 200);
    let tx = primary.begin();
    primary.insert_record(tx, T, &Record(vec![150, 1])).unwrap();
    primary.commit(tx).unwrap();
    let srv = server(&primary, ServerConfig::default());
    let follower = engine();
    let replica = Replica::new(Arc::clone(&follower), &addr_of(&srv));
    let run = replica.spawn();
    converge(&primary, &replica);

    let unique = IndexSpec {
        unique: true,
        ..ix_spec("ix_unique")
    };
    let err = build_index(&primary, T, unique, BuildAlgorithm::Nsf).unwrap_err();
    assert!(
        matches!(err, mohan_common::Error::UniqueViolation { .. }),
        "{err}"
    );
    let cancelled_at = primary.wal.tail_lsn();
    let (id, state) = catalog_states(&primary)[0];
    assert_eq!(state, IndexState::Cancelled);
    let tx = primary.begin();
    for k in 0..50 {
        primary
            .insert_record(tx, T, &Record(vec![1_000 + k, 0]))
            .unwrap();
    }
    primary.commit(tx).unwrap();
    converge(&primary, &replica);
    assert_eq!(catalog_states(&follower), [(id, IndexState::Cancelled)]);
    assert!(
        follower.index(id).is_err(),
        "a cancelled index is not readable"
    );
    assert!(follower.indexes_of(T).is_empty());
    let after_cancel: Vec<_> = follower
        .wal
        .iter_from(cancelled_at)
        .filter(|r| maintained(&r.payload) == Some(id))
        .map(|r| r.lsn)
        .collect();
    assert!(
        after_cancel.is_empty(),
        "maintained after the cancel: {after_cancel:?}"
    );
    assert_eq!(surviving_keys(&primary), surviving_keys(&follower));

    primary.quiesce(T).unwrap().end().unwrap();
    converge(&primary, &replica);
    assert!(catalog_states(&follower).is_empty());

    replica.stop();
    srv.drain();
    run.join().unwrap();
}

/// Promotion is the rest of restart: the follower has redone every
/// record it mirrored, so promotion redoes none, undoes the transaction
/// the primary left open, and numbers new transactions above every id
/// in the log.
#[test]
fn promotion_redoes_nothing_and_keeps_transaction_ids_ahead() {
    let primary = engine();
    seed(&primary, 100);
    let srv = server(&primary, ServerConfig::default());
    let follower = engine();
    let replica = Replica::new(Arc::clone(&follower), &addr_of(&srv));
    let run = replica.spawn();
    converge(&primary, &replica);
    primary.checkpoint().unwrap();
    seed(&primary, 100);
    let open = primary.begin();
    let orphan = primary
        .insert_record(open, T, &Record(vec![-1, 0]))
        .unwrap();
    converge(&primary, &replica);
    replica.stop();
    run.join().unwrap();

    let max_tx = follower.wal.iter_from(Lsn::NULL).map(|r| r.tx).max();
    assert_eq!(max_tx, Some(open));
    let stats = follower.promote_to_primary().expect("promotion");
    assert_eq!((stats.redone, stats.losers), (0, 1), "{stats:?}");
    assert!(
        follower.read_record(T, orphan).is_err(),
        "the open transaction's row survived promotion"
    );
    let next = follower.begin();
    assert!(next > open, "{next:?} reuses an id of the old primary's");
    follower.commit(next).unwrap();

    primary.rollback(open).unwrap();
    srv.drain();
}
