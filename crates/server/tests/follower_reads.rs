//! Loopback tests for follower reads, the role-aware handshake, and
//! follower → primary promotion.
//!
//! A live [`Replica`] tails the primary's WAL over real TCP while a
//! second wire server fronts the *follower* engine: clients read from
//! the follower under a staleness bound, get structured refusals for
//! writes (with a leader hint) and over-budget reads (`Stale`), and —
//! after the primary dies — promote the follower in place and keep
//! writing to it, with zero committed writes lost. A follower never
//! serves an index before its tree is rebuilt, and the metric names a
//! primary and its follower show are DESIGN.md §8.2's table.

use mohan_client::{Client, ClientError};
use mohan_common::{EngineConfig, KeyValue, ReadApi, Rid, TableId};
use mohan_oib::schema::Record;
use mohan_oib::verify::verify_index;
use mohan_oib::Db;
use mohan_replica::Replica;
use mohan_server::{PromoteHook, Promotion, Server, ServerConfig};
use mohan_wire::message::{
    proto_version, BuildAlgorithm, ErrorCode, IndexSpec, Request, Response, Role, PROTO_MAJOR,
};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
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

/// Seed `n` records, returning their rids — physical replication
/// reproduces rids exactly, so the same rids are valid on the
/// follower once it has caught up.
fn seed(db: &Arc<Db>, n: i64) -> Vec<Rid> {
    let tx = db.begin();
    let rids = (0..n)
        .map(|k| db.insert_record(tx, T, &Record(vec![k, 0])).unwrap())
        .collect();
    db.commit(tx).unwrap();
    rids
}

/// A follower wire endpoint: staleness-bounded reads, leader hint for
/// bounced writes, and a promotion hook that flips `replica` in place.
fn follower_server(
    follower: &Arc<Db>,
    replica: &Arc<Replica>,
    max_lag_lsn: u64,
    leader_hint: &str,
) -> Server {
    let hook_replica = Arc::clone(replica);
    Server::start(
        Arc::clone(follower),
        ServerConfig {
            max_lag_lsn,
            leader_hint: leader_hint.into(),
            promote_hook: Some(PromoteHook::new(move || {
                hook_replica.promote().map(|r| Promotion {
                    last_lsn: r.last_lsn.0,
                    losers_undone: r.losers_undone,
                })
            })),
            ..ServerConfig::default()
        },
    )
    .expect("bind follower loopback")
}

fn converge(primary: &Arc<Db>, replica: &Replica) {
    primary.wal.flush_all();
    let target = primary.wal.flushed_lsn();
    assert!(
        replica.wait_applied(target, CATCH_UP),
        "follower stuck at {} short of {} (lag {})",
        replica.applied_lsn().0,
        target.0,
        replica.lag()
    );
}

fn surviving_keys(db: &Arc<Db>) -> BTreeSet<i64> {
    db.table_scan(T)
        .unwrap()
        .into_iter()
        .map(|(_, rec)| rec.0[0])
        .collect()
}

/// Closed-loop insert churn against the primary; a key counts as
/// committed only once its success response was read back.
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
                let mut c = Client::connect(&addr).expect("churn connect");
                let mut key = 1_000_000 * (i as i64 + 1);
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    key += 1;
                    match c.insert(T, vec![key, 1]) {
                        Ok(_) => {
                            committed.lock().unwrap().insert(key);
                            ops += 1;
                        }
                        Err(ClientError::Busy) => {
                            key -= 1;
                            std::thread::yield_now();
                        }
                        Err(_) => break,
                    }
                }
                ops
            })
        })
        .collect()
}

fn ix_spec(name: &str) -> IndexSpec {
    IndexSpec {
        name: name.into(),
        key_cols: vec![0],
        unique: false,
    }
}

/// Tentpole happy path: wire clients read from the follower (through
/// the [`ReadApi`] waist) while the primary takes DML churn and an
/// online SF build; lookups against the replicated index work too,
/// and `repl.reads_served` accounts for every follower read.
#[test]
fn follower_serves_reads_under_primary_churn_and_build() {
    let primary = engine();
    let rids = seed(&primary, 200);
    let psrv = Server::start(
        Arc::clone(&primary),
        ServerConfig {
            workers: 4,
            max_inflight: 32,
            ..ServerConfig::default()
        },
    )
    .expect("bind primary");
    let paddr = psrv.addr().to_string();

    let follower = engine();
    let replica = Replica::new(Arc::clone(&follower), &paddr);
    let apply = replica.spawn();
    converge(&primary, &replica);

    let fsrv = follower_server(&follower, &replica, u64::MAX, &paddr);
    let faddr = fsrv.addr().to_string();

    // Handshake: the follower identifies itself as a replica.
    let mut reader = Client::connect(&faddr).unwrap();
    let welcome = reader.hello(Role::Client).unwrap();
    assert_eq!(welcome.role, Role::Replica);
    assert_eq!(welcome.proto_version >> 16, u32::from(PROTO_MAJOR));

    // Concurrent churn + online SF build on the primary…
    let stop = Arc::new(AtomicBool::new(false));
    let committed = Arc::new(Mutex::new(BTreeSet::new()));
    let workers = churn(&paddr, 2, &stop, &committed);
    // Start the build only once the churn has committed: a build that
    // finishes first leaves the churn nothing to overlap.
    while committed.lock().unwrap().is_empty() {
        assert!(
            !workers.iter().all(JoinHandle::is_finished),
            "the churn stopped before its first commit"
        );
        std::thread::yield_now();
    }
    let mut builder = Client::connect(&paddr).unwrap();
    let build = std::thread::spawn(move || {
        builder
            .create_index(T, BuildAlgorithm::Sf, vec![ix_spec("ix_frd")], |_, _, _| {})
            .expect("online SF build")[0]
    });

    // …while the follower keeps answering reads of the stable seed
    // rows. Drive through the ReadApi trait object path on purpose.
    let api: &mut dyn ReadApi<Err = ClientError> = &mut reader;
    for round in 0..50 {
        let i = round * 4 % rids.len();
        let cols = api.read(T, rids[i]).expect("follower read");
        assert_eq!(cols[0], i as i64);
    }

    let built = build.join().unwrap();
    stop.store(true, Ordering::Relaxed);
    let ops: u64 = workers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(ops > 0, "no churn committed");
    converge(&primary, &replica);

    // Lookup against the replicated index, over the wire.
    let hits = api.lookup(built, &KeyValue::from_i64(17)).unwrap();
    assert_eq!(hits, vec![rids[17]]);

    assert!(
        follower.obs.counter("repl.reads_served").get() >= 51,
        "follower reads unaccounted"
    );
    assert_eq!(follower.obs.counter("repl.reads_rejected_stale").get(), 0);
    verify_index(&follower, built).expect("replicated index verifies");

    replica.stop();
    psrv.drain();
    fsrv.drain();
    apply.join().unwrap();
}

/// A follower never serves an index as `Complete` before its tree is
/// rebuilt. A reader on the follower looks up seeded keys, never
/// deleted, through every index while the primary builds one by SF and
/// then one by NSF. When a build's completion arrives the follower
/// rebuilds the tree from its heap; until that is done the index must
/// answer `IndexNotReadable`, never an empty result.
#[test]
fn follower_lookups_never_miss_a_committed_key_across_a_build_flip() {
    const ROWS: i64 = 5_000;
    let primary = engine();
    seed(&primary, ROWS);
    let psrv = Server::start(Arc::clone(&primary), ServerConfig::default()).expect("bind primary");
    let paddr = psrv.addr().to_string();
    let follower = engine();
    let replica = Replica::new(Arc::clone(&follower), &paddr);
    let apply = replica.spawn();
    converge(&primary, &replica);

    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let follower = Arc::clone(&follower);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let (mut misses, mut served) = (0u64, 0u64);
            let mut key = 0;
            while !stop.load(Ordering::Acquire) {
                key = (key + 7_919) % ROWS;
                for ix in follower.indexes_of(T) {
                    match follower.index_lookup(ix.def.id, &KeyValue::from_i64(key)) {
                        Ok(rids) if rids.is_empty() => misses += 1,
                        Ok(_) => served += 1,
                        Err(mohan_common::Error::IndexNotReadable(_)) => {}
                        Err(e) => panic!("lookup of key {key}: {e}"),
                    }
                }
            }
            (misses, served)
        })
    };

    let mut builder = Client::connect(&paddr).unwrap();
    for (name, algo) in [
        ("ix_sf", BuildAlgorithm::Sf),
        ("ix_nsf", BuildAlgorithm::Nsf),
    ] {
        builder
            .create_index(T, algo, vec![ix_spec(name)], |_, _, _| {})
            .expect("online build");
    }
    converge(&primary, &replica);
    stop.store(true, Ordering::Release);
    let (misses, served) = reader.join().unwrap();
    assert_eq!(
        misses, 0,
        "the follower answered {misses} lookups of committed keys with nothing"
    );
    assert!(served > 0, "no lookup was served");
    for ix in follower.indexes_of(T) {
        verify_index(&follower, ix.def.id).expect("replicated index verifies");
    }

    replica.stop();
    psrv.drain();
    apply.join().unwrap();
}

/// The names of DESIGN.md §8.2's metric table, one per metric:
/// `{a,b}` alternatives spelled out, `<Opcode>` as every request
/// name, `<kind>` as every SQL statement kind, and `<i>` as each of
/// `shards` worker shards.
fn design_metric_names(shards: usize) -> BTreeSet<String> {
    let design = include_str!("../../../DESIGN.md");
    let table = design
        .split("### 8.2 Metric namespace")
        .nth(1)
        .expect("DESIGN.md has §8.2")
        .split("\n\n")
        .nth(1)
        .expect("§8.2 opens with its table");
    let mut prefix = "";
    let mut names = BTreeSet::new();
    for row in table.lines().skip(2) {
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        if !cells[1].is_empty() {
            prefix = cells[1].trim_matches('`');
        }
        for name in cells[2].split('`').skip(1).step_by(2) {
            let (head, tail) = name.split_once(['{', '<']).unwrap_or((name, ""));
            let alts: Vec<String> = match tail.trim_end_matches(['}', '>']) {
                "" => vec![String::new()],
                "Opcode" => Request::NAMES.iter().map(|n| n.to_string()).collect(),
                "kind" => mohan_pgwire::Statement::KINDS
                    .iter()
                    .map(|k| k.to_string())
                    .collect(),
                "i" => (0..shards).map(|i| i.to_string()).collect(),
                alts => alts.split(',').map(str::to_owned).collect(),
            };
            names.extend(alts.iter().map(|alt| format!("{prefix}{head}{alt}")));
        }
    }
    names
}

/// One `Metrics` snapshot's names, counters, gauges and histograms.
fn metric_names(addr: &str) -> BTreeSet<String> {
    let report = Client::connect(addr).unwrap().metrics().unwrap();
    let counters = report.counters.into_iter().map(|(name, _)| name);
    counters
        .chain(report.hists.into_iter().map(|(name, _)| name))
        .collect()
}

/// Every metric a server can show is in DESIGN.md §8.2's table, and
/// every name there is one a server shows: the union of a primary's
/// `Metrics` snapshot, after DML, an SF and an NSF build and a
/// follower's `SubscribeWal` stream, and its follower's.
#[test]
fn metric_names_are_design_s_table() {
    let primary = engine();
    let psrv = Server::start(Arc::clone(&primary), ServerConfig::default()).expect("bind primary");
    let paddr = psrv.addr().to_string();
    let follower = engine();
    let replica = Arc::new(Replica::new(Arc::clone(&follower), &paddr));
    let apply = replica.spawn();
    let fsrv = follower_server(&follower, &replica, u64::MAX, &paddr);

    let mut c = Client::connect(&paddr).unwrap();
    for k in 0..100 {
        c.insert(T, vec![k, 0]).unwrap();
    }
    for (name, algo) in [
        ("ix_sf", BuildAlgorithm::Sf),
        ("ix_nsf", BuildAlgorithm::Nsf),
    ] {
        c.create_index(T, algo, vec![ix_spec(name)], |_, _, _| {})
            .expect("online build");
    }
    converge(&primary, &replica);

    let mut shown = metric_names(&paddr);
    shown.extend(metric_names(&fsrv.addr().to_string()));
    let listed = design_metric_names(ServerConfig::default().workers);
    let unlisted: Vec<_> = shown.difference(&listed).collect();
    let unshown: Vec<_> = listed.difference(&shown).collect();
    assert!(
        unlisted.is_empty() && unshown.is_empty(),
        "not in §8.2: {unlisted:?}; in §8.2 but not shown: {unshown:?}"
    );

    replica.stop();
    psrv.drain();
    fsrv.drain();
    apply.join().unwrap();
}

/// Reads over the staleness budget are refused with `Stale { lag }`,
/// and the refusal is visible in `repl.reads_rejected_stale`; metrics
/// stay answerable regardless of lag.
#[test]
fn stale_follower_rejects_reads_but_answers_observability() {
    let follower = engine();
    // No live replication needed: the gate reads `repl_lag`, which the
    // apply loop normally maintains and the test sets directly.
    follower.set_repl_lag(500);
    let replica = Replica::new(Arc::clone(&follower), "127.0.0.1:1"); // never connected
    let fsrv = follower_server(&follower, &replica, 100, "primary:7878");
    let mut c = Client::connect(fsrv.addr().to_string()).unwrap();

    match c.read(T, Rid::new(1, 0)) {
        Err(ClientError::Server {
            code: ErrorCode::Stale { lag },
            ..
        }) => assert_eq!(lag, 500),
        other => panic!("expected Stale, got {other:?}"),
    }
    assert_eq!(follower.obs.counter("repl.reads_rejected_stale").get(), 1);

    // Observability is exempt from the staleness gate: a stalled
    // follower must still be diagnosable.
    let m = c.metrics().unwrap();
    assert_eq!(m.counter("repl.reads_rejected_stale"), Some(1));
    assert!(m.counter("repl.lag_lsn").is_some(), "lag gauge missing");

    // Catching up (lag back under budget) reopens reads — the seed row
    // is absent here, so NotFound, not Stale.
    follower.set_repl_lag(0);
    match c.read(T, Rid::new(1, 0)) {
        Err(ClientError::Server {
            code: ErrorCode::NotFound,
            ..
        }) => {}
        other => panic!("expected NotFound once fresh, got {other:?}"),
    }

    fsrv.drain();
}

/// Writes bounced off a follower carry the configured leader hint, at
/// every write opcode; the handshake is optional (an un-handshaked
/// client still gets served) and unknown protocol majors are refused.
#[test]
fn follower_bounces_writes_with_leader_hint_and_validates_hello() {
    let follower = engine();
    let replica = Replica::new(Arc::clone(&follower), "127.0.0.1:1");
    let fsrv = follower_server(&follower, &replica, u64::MAX, "10.0.0.7:7878");
    let mut c = Client::connect(fsrv.addr().to_string()).unwrap();

    // No Hello sent yet — the server must serve pre-handshake clients.
    c.ping().unwrap();

    let expect_bounce = |r: Result<(), ClientError>| match r {
        Err(ClientError::Server {
            code: ErrorCode::NotWritable { leader_hint },
            ..
        }) => assert_eq!(leader_hint, "10.0.0.7:7878"),
        other => panic!("expected NotWritable with hint, got {other:?}"),
    };
    expect_bounce(c.begin().map(|_| ()));
    expect_bounce(c.insert(T, vec![1, 2]).map(|_| ()));
    expect_bounce(c.update(T, Rid::new(1, 0), vec![1, 2]));
    expect_bounce(c.delete(T, Rid::new(1, 0)));
    expect_bounce(
        c.create_index(T, BuildAlgorithm::Sf, vec![ix_spec("nope")], |_, _, _| {})
            .map(|_| ()),
    );

    // Handshake with a future major version: structured refusal, and
    // the connection survives for a corrected retry.
    match c
        .call(&Request::Hello {
            proto_version: (9 << 16) | 3,
            role: Role::Client,
        })
        .unwrap()
    {
        Response::Err { code, .. } => assert_eq!(code, ErrorCode::UnsupportedProto),
        other => panic!("expected UnsupportedProto, got {other:?}"),
    }
    let welcome = c.hello(Role::Client).unwrap();
    assert_eq!(welcome.proto_version, proto_version());
    assert_eq!(welcome.role, Role::Replica);

    fsrv.drain();
}

/// The acceptance scenario: the primary dies mid-deployment, a wire
/// client promotes the follower, zero committed writes are lost, and
/// the promoted engine takes writes — including an online index build
/// — immediately afterwards.
#[test]
fn promotion_after_primary_crash_loses_nothing_and_accepts_writes() {
    let primary = engine();
    seed(&primary, 100);
    let psrv = Server::start(
        Arc::clone(&primary),
        ServerConfig {
            workers: 4,
            max_inflight: 32,
            ..ServerConfig::default()
        },
    )
    .expect("bind primary");
    let paddr = psrv.addr().to_string();

    let follower = engine();
    let replica = Replica::new(Arc::clone(&follower), &paddr);
    let apply = replica.spawn();

    let fsrv = follower_server(&follower, &replica, u64::MAX, &paddr);
    let faddr = fsrv.addr().to_string();

    // Churn, then converge so every committed write reached the
    // follower before the lights go out.
    let stop = Arc::new(AtomicBool::new(false));
    let committed = Arc::new(Mutex::new(BTreeSet::new()));
    let workers = churn(&paddr, 3, &stop, &committed);
    while committed.lock().unwrap().len() < 200 {
        assert!(
            !workers.iter().all(JoinHandle::is_finished),
            "the churn stopped short of 200 commits"
        );
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    let ops: u64 = workers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(ops > 0, "no churn committed");
    converge(&primary, &replica);

    // Primary dies: drain the endpoint, then crash the engine.
    psrv.drain();
    primary.simulate_crash();

    // Before promotion the follower still refuses writes…
    let mut c = Client::connect(&faddr).unwrap();
    match c.insert(T, vec![7, 7]) {
        Err(ClientError::Server {
            code: ErrorCode::NotWritable { .. },
            ..
        }) => {}
        other => panic!("expected NotWritable pre-promotion, got {other:?}"),
    }

    // …then a wire client flips it.
    let promoted = c.promote().unwrap();
    assert!(promoted.last_lsn > 0);
    assert!(replica.is_promoted());
    assert!(!follower.is_replica());
    assert_eq!(c.hello(Role::Client).unwrap().role, Role::Primary);

    // Zero committed writes lost across the failover.
    let committed = committed.lock().unwrap();
    assert!(committed.len() > 10, "too little traffic to be meaningful");
    let visible = surviving_keys(&follower);
    for key in committed.iter() {
        assert!(
            visible.contains(key),
            "committed key {key} lost in failover"
        );
    }
    drop(committed);

    // The promoted engine is a primary in every way that matters:
    // plain DML and an online SF build both succeed over the wire.
    let rid = c
        .insert(T, vec![42_000_000, 9])
        .expect("post-promotion insert");
    assert_eq!(c.read(T, rid).unwrap(), vec![42_000_000, 9]);
    let ids = c
        .create_index(
            T,
            BuildAlgorithm::Sf,
            vec![ix_spec("ix_post")],
            |_, _, _| {},
        )
        .expect("post-promotion online build");
    verify_index(&follower, ids[0]).expect("post-promotion index verifies");
    let hits = c.lookup(ids[0], &KeyValue::from_i64(42_000_000)).unwrap();
    assert_eq!(hits, vec![rid]);

    // A second promotion attempt is refused cleanly.
    match c.promote() {
        Err(ClientError::Server {
            code: ErrorCode::Internal,
            ..
        }) => {}
        other => panic!("expected Internal on double promote, got {other:?}"),
    }

    fsrv.drain();
    apply.join().unwrap();
}
