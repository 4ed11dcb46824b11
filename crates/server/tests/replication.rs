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
use mohan_oib::runtime::IndexState;
use mohan_oib::schema::Record;
use mohan_oib::verify::verify_index;
use mohan_oib::Db;
use mohan_replica::Replica;
use mohan_server::{Server, ServerConfig};
use mohan_wal::{LogPayload, RecKind};
use mohan_wire::frame::{read_frame, write_frame};
use mohan_wire::message::{BuildAlgo, ErrorCode, IndexSpecWire, Request, Response};
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

const T: TableId = TableId(1);
const CATCH_UP: Duration = Duration::from_secs(30);

fn primary_engine() -> Arc<Db> {
    let db = Db::new(EngineConfig {
        lock_timeout_ms: 20_000,
        ..EngineConfig::small()
    });
    db.create_table(T);
    db
}

/// A follower engine: same schema, `replica` set so shipped
/// `CatalogUpdate` records are applied instead of ignored.
fn replica_engine() -> Arc<Db> {
    let db = Db::new(EngineConfig {
        replica: true,
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

fn ix_spec(name: &str) -> IndexSpecWire {
    IndexSpecWire {
        name: name.into(),
        key_cols: vec![0],
        unique: false,
    }
}

/// Closed-loop DML churn: each worker auto-commits inserts, updates
/// and deletes in its own key space, recording a key as committed only
/// once its success response was read back.
fn churn(
    addr: &str,
    clients: usize,
    stop: &Arc<AtomicBool>,
    committed: &Arc<Mutex<BTreeSet<i64>>>,
) -> Vec<JoinHandle<u64>> {
    (0..clients)
        .map(|i| {
            let addr = addr.to_owned();
            let stop = Arc::clone(stop);
            let committed = Arc::clone(committed);
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
                        Ok(Done::Deleted(j, old_key)) => {
                            committed.lock().unwrap().remove(&old_key);
                            mine.swap_remove(j);
                            key -= 1; // key unused
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
    assert!(
        replica.wait_caught_up(target, CATCH_UP),
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
    let primary = primary_engine();
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

    let follower = replica_engine();
    let replica = Replica::new(Arc::clone(&follower), &addr);
    let apply = replica.spawn();

    let stop = Arc::new(AtomicBool::new(false));
    let committed = Arc::new(Mutex::new(BTreeSet::new()));
    let workers = churn(&addr, 4, &stop, &committed);

    // Let traffic establish, then build online over the wire; keep the
    // churn running afterwards so the *completed* index sees
    // maintenance through the stream too.
    std::thread::sleep(Duration::from_millis(100));
    let mut builder = Client::connect(&addr).unwrap();
    let ids = builder
        .create_index(T, BuildAlgo::Sf, vec![ix_spec("ix_repl")], |_, _, _| {})
        .expect("online SF build beside a live subscription");
    let built = ids[0];
    std::thread::sleep(Duration::from_millis(200));

    stop.store(true, Ordering::Relaxed);
    let total_ops: u64 = workers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total_ops > 100, "too little churn to be meaningful");

    converge(&primary, &replica);
    assert!(replica.lag() == 0, "lag {} after catch-up", replica.lag());
    assert_identical(&primary, &follower, built);

    let committed = committed.lock().unwrap();
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
/// reconnecting and resubscribing from `applied + 1`.
#[test]
fn follower_reconnects_after_server_restart_and_catches_up() {
    let primary = primary_engine();
    seed(&primary, 50);
    let srv1 = server(&primary, ServerConfig::default());

    let follower = replica_engine();
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

/// The ISSUE's acceptance scenario: concurrent DML + SF build + one
/// primary crash/restart mid-subscription; the follower resubscribes
/// from its applied LSN and ends byte-identical with zero committed
/// writes lost.
#[test]
fn primary_crash_restart_mid_subscription_loses_nothing() {
    let primary = primary_engine();
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

    let follower = replica_engine();
    let replica = Replica::new(Arc::clone(&follower), &addr1);
    let apply = replica.spawn();

    // Phase 1: churn + online SF build, follower subscribed throughout.
    let stop = Arc::new(AtomicBool::new(false));
    let committed = Arc::new(Mutex::new(BTreeSet::new()));
    let workers = churn(&addr1, 4, &stop, &committed);
    std::thread::sleep(Duration::from_millis(100));
    let mut builder = Client::connect(&addr1).unwrap();
    let ids = builder
        .create_index(T, BuildAlgo::Sf, vec![ix_spec("ix_crashy")], |_, _, _| {})
        .expect("online SF build");
    let built = ids[0];
    std::thread::sleep(Duration::from_millis(150));
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
    // follower, which resubscribes from applied + 1 — always a valid
    // start because `applied` only covers durably flushed records.
    let srv2 = server(&primary, ServerConfig::default());
    let addr2 = addr_of(&srv2);
    replica.set_addr(&addr2);

    // Phase 2: more committed DML on the restarted primary.
    let mut c = Client::connect(&addr2).unwrap();
    for k in 0..60 {
        let key = 9_000_000 + k;
        c.insert(T, vec![key, 3]).unwrap();
        committed.lock().unwrap().insert(key);
    }
    drop(c);

    converge(&primary, &replica);
    assert!(replica.reconnects() >= 1, "follower never reconnected");
    assert_identical(&primary, &follower, built);

    // Zero committed writes lost — on either side.
    let committed = committed.lock().unwrap();
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
    let primary = primary_engine();
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
    let primary = primary_engine();
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

    // Hang up; the worker's reap must give the slot back.
    drop(sub);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match c.insert(T, vec![1_001, 0]) {
            Ok(_) => break,
            Err(ClientError::Busy) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("subscriber slot never released: {e}"),
        }
    }
    assert!(srv.stats().wal_subs.get() >= 1);
    srv.drain();
}

/// One named counter out of a `Request::Stats` round trip.
fn stat(c: &mut Client, key: &str) -> u64 {
    match c.call(&Request::Stats).unwrap() {
        Response::Stats { counters } => counters
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0, |(_, v)| *v),
        other => panic!("expected Stats, got {other:?}"),
    }
}

/// A record bigger than the pump's per-frame byte budget (but under
/// the wire frame cap) must travel alone in its own frame, with the
/// stream intact and gapless around it — the shape `persist_catalog`
/// produces for a large schema.
#[test]
fn oversized_record_ships_alone_without_breaking_stream() {
    const BIG: usize = 3 << 20;
    let primary = primary_engine();
    seed(&primary, 20);
    primary.wal.flush_all();
    let srv = server(&primary, ServerConfig::default());
    let addr = addr_of(&srv);

    // `tail` is 0 until the writer below is done; the subscriber keeps
    // listening until it has everything up to the final flushed LSN.
    let tail = Arc::new(AtomicU64::new(0));
    let sub = {
        let tail = Arc::clone(&tail);
        let c = Client::connect(&addr).unwrap();
        std::thread::spawn(move || {
            let mut next = 1u64;
            let mut big_frame_records = 0usize;
            let res = c.subscribe_wal(1, |_flushed, records, _traces| {
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

    // Live records on both sides of a record ~3x the frame budget.
    std::thread::sleep(Duration::from_millis(100));
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

/// A subscriber that stops reading while the log churns past the
/// broadcast ring's retained window is cut loose with the structured
/// [`ErrorCode::SubscriptionLagged`] — not silently starved, not
/// killed by the write timeout.
#[test]
fn stalled_subscriber_cut_loose_with_structured_error() {
    let primary = primary_engine();
    seed(&primary, 50);
    primary.wal.flush_all();
    let srv = server(
        &primary,
        ServerConfig {
            // Long enough that the slow-follower policy (not the
            // blocked-write reaper) decides this connection's fate.
            write_timeout: Duration::from_secs(60),
            fanout_ring_bytes: 1 << 20,
            ..ServerConfig::default()
        },
    );
    let addr = addr_of(&srv);

    // The subscriber stalls inside its first frame callback — reading
    // nothing — until the main thread has seen the cut-loose land.
    let resume = Arc::new(AtomicBool::new(false));
    let from = primary.wal.flushed_lsn().0 + 1;
    let sub = {
        let resume = Arc::clone(&resume);
        let c = Client::connect(&addr).unwrap();
        std::thread::spawn(move || {
            let mut stalled_once = false;
            c.subscribe_wal(from, move |_flushed, _records, _traces| {
                if !stalled_once {
                    stalled_once = true;
                    let deadline = std::time::Instant::now() + Duration::from_secs(20);
                    while !resume.load(Ordering::Acquire) && std::time::Instant::now() < deadline {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
                true
            })
        })
    };

    // Churn whole ring windows past the stalled cursor until the
    // fan-out counters show the cut; the payloads are raw filler — no
    // follower engine ever applies them.
    let mut statsc = Client::connect(&addr).unwrap();
    let mut cut = 0u64;
    for _ in 0..48 {
        for _ in 0..16 {
            primary.wal.append(
                TxId(999_999),
                Lsn::NULL,
                RecKind::RedoOnly,
                LogPayload::CatalogUpdate {
                    bytes: vec![0xAB; 64 << 10],
                },
            );
        }
        primary.wal.flush_all();
        cut = stat(&mut statsc, "repl.fanout.cut_loose");
        if cut >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(cut >= 1, "stalled subscriber was never cut loose");
    resume.store(true, Ordering::Release);

    match sub.join().unwrap() {
        Err(ClientError::Server {
            code: ErrorCode::SubscriptionLagged { retained_from },
            ..
        }) => assert!(retained_from > 1, "retained_from {retained_from}"),
        other => panic!("expected SubscriptionLagged cut-loose, got {other:?}"),
    }
    srv.drain();
}

/// A frame pipelined behind a `SubscribeWal` waits while the stream
/// owns the connection, and runs as soon as the stream is cut loose —
/// without the client sending another byte.
#[test]
fn frame_queued_behind_a_cut_loose_subscription_runs() {
    let primary = primary_engine();
    seed(&primary, 50);
    primary.wal.flush_all();
    let srv = server(
        &primary,
        ServerConfig {
            write_timeout: Duration::from_secs(60),
            fanout_ring_bytes: 1 << 20,
            ..ServerConfig::default()
        },
    );
    let addr = addr_of(&srv);

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let from_lsn = primary.wal.flushed_lsn().0 + 1;
    let mut both = Vec::new();
    write_frame(&mut both, &Request::SubscribeWal { from_lsn }.encode()).unwrap();
    write_frame(&mut both, &Request::Ping.encode()).unwrap();
    stream.write_all(&both).unwrap();

    // Read nothing while whole ring windows churn past the cursor.
    let mut statsc = Client::connect(&addr).unwrap();
    let mut cut = 0u64;
    for _ in 0..48 {
        for _ in 0..16 {
            primary.wal.append(
                TxId(999_999),
                Lsn::NULL,
                RecKind::RedoOnly,
                LogPayload::CatalogUpdate {
                    bytes: vec![0xAB; 64 << 10],
                },
            );
        }
        primary.wal.flush_all();
        cut = stat(&mut statsc, "repl.fanout.cut_loose");
        if cut >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(cut >= 1, "stalled subscriber was never cut loose");

    loop {
        match Response::decode(&read_frame(&mut stream).unwrap().unwrap()).unwrap() {
            Response::WalFrame { .. } => {}
            Response::Err {
                code: ErrorCode::SubscriptionLagged { .. },
                ..
            } => break,
            other => panic!("expected WalFrame or SubscriptionLagged, got {other:?}"),
        }
    }
    let next = read_frame(&mut stream).expect("the queued Ping was never answered");
    assert_eq!(Response::decode(&next.unwrap()).unwrap(), Response::Pong);
    srv.drain();
}

/// Copy one direction of a proxied connection; while `pause` holds,
/// reads stop — which freezes the stream and turns into TCP
/// backpressure on the writer.
fn pipe(
    mut from: TcpStream,
    mut to: TcpStream,
    pause: Option<Arc<AtomicBool>>,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        from.set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut buf = [0u8; 8192];
        loop {
            if stop.load(Ordering::Relaxed) {
                break;
            }
            if pause.as_ref().is_some_and(|p| p.load(Ordering::Relaxed)) {
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
            match from.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    if to.write_all(&buf[..n]).is_err() {
                        break;
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(_) => break,
            }
        }
        let _ = to.shutdown(std::net::Shutdown::Both);
        let _ = from.shutdown(std::net::Shutdown::Both);
    })
}

/// A pausable TCP proxy in front of the primary: the cheapest honest
/// model of a stalled follower. Pausing freezes only the
/// server→client direction, so (re)subscribe requests still reach the
/// primary while its responses back up.
fn pausable_proxy(target: String) -> (String, Arc<AtomicBool>, Arc<AtomicBool>, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    listener.set_nonblocking(true).unwrap();
    let pause = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let (p, s) = (Arc::clone(&pause), Arc::clone(&stop));
    let handle = std::thread::spawn(move || {
        let mut pipes: Vec<JoinHandle<()>> = Vec::new();
        while !s.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((client, _)) => {
                    let upstream = TcpStream::connect(&target).expect("proxy upstream connect");
                    pipes.push(pipe(
                        client.try_clone().unwrap(),
                        upstream.try_clone().unwrap(),
                        None,
                        Arc::clone(&s),
                    ));
                    pipes.push(pipe(upstream, client, Some(Arc::clone(&p)), Arc::clone(&s)));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => break,
            }
        }
        for t in pipes {
            let _ = t.join();
        }
    });
    (addr, pause, stop, handle)
}

/// The cut-loose acceptance scenario end to end: a live follower's
/// stream freezes mid-SF-build, the primary churns several ring
/// windows past it and cuts it loose, and on thaw the follower
/// resubscribes, catches up through the primary's bounded scans, and
/// converges with zero committed writes lost and a verifying index.
#[test]
fn cut_loose_follower_reconnects_and_converges_mid_build() {
    let primary = primary_engine();
    seed(&primary, 300);
    let srv = server(
        &primary,
        ServerConfig {
            workers: 2,
            max_inflight: 32,
            write_timeout: Duration::from_secs(60),
            fanout_ring_bytes: 1 << 20,
            ..ServerConfig::default()
        },
    );
    let addr = addr_of(&srv);
    let (proxy_addr, pause, proxy_stop, proxy) = pausable_proxy(addr.clone());

    let follower = replica_engine();
    let replica = Replica::new(Arc::clone(&follower), &proxy_addr);
    let apply = replica.spawn();
    converge(&primary, &replica);

    // Freeze the follower's stream, then commit wide rows — whole ring
    // windows' worth — until the primary cuts the stalled subscription
    // loose. The freeze stays well under the follower's socket read
    // timeout, so the *structured error*, not a timeout, is what it
    // sees first.
    pause.store(true, Ordering::Release);
    let mut committed = BTreeSet::new();
    let mut statsc = Client::connect(&addr).unwrap();
    let mut cut = 0u64;
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
        cut = stat(&mut statsc, "repl.fanout.cut_loose");
        if cut >= 1 {
            break;
        }
    }
    assert!(cut >= 1, "primary never cut the frozen follower loose");

    // SF build while the follower is still frozen and cut: its DDL and
    // side-file records reach the follower only via the reconnect
    // catch-up path.
    let mut builder = Client::connect(&addr).unwrap();
    let ids = builder
        .create_index(T, BuildAlgo::Sf, vec![ix_spec("ix_cut")], |_, _, _| {})
        .expect("SF build while the follower is cut loose");
    let built = ids[0];
    pause.store(false, Ordering::Release);

    converge(&primary, &replica);
    assert!(
        replica.cut_loose_count() >= 1,
        "follower never classified a cut-loose (reconnects {})",
        replica.reconnects()
    );
    assert_identical(&primary, &follower, built);
    let visible = surviving_keys(&follower);
    for key in &committed {
        assert!(visible.contains(key), "committed key {key} lost");
    }

    replica.stop();
    proxy_stop.store(true, Ordering::Release);
    srv.drain();
    apply.join().unwrap();
    proxy.join().unwrap();
}
