//! E18: follower lag while the primary serves closed-loop DML — with
//! and without an online SF build running beside it.
//!
//! The follower tails the primary's flushed log over the wire and
//! replays it through the recovery redo path (`mohan_replica`). The
//! question E18 answers: does the replication stream keep up with a
//! loaded primary, and how much does an index build — whose catalog
//! snapshots and side-file appends ride the same stream — widen the
//! lag window? Lag is sampled in LSNs (the primary's flushed tail
//! minus the follower's applied position) while the load runs, and
//! the catch-up time after the load stops measures the drain of
//! whatever backlog built up.
//!
//! E19 turns the follower from a passive tail into a read replica:
//! bounded-staleness reads are served from the follower — over the
//! wire and in-process, through the same [`ReadApi`] driver — while
//! the primary churns, and the run ends by killing the primary and
//! timing the promotion (client-visible write downtime).

use crate::report::{f2, ms, us, Table};
use crate::workload::{bench_config, seed_table, TABLE};
use mohan_client::{Client, ClientError};
use mohan_common::{ReadApi, Rid};
use mohan_oib::schema::Record;
use mohan_oib::verify::verify_index;
use mohan_oib::Db;
use mohan_replica::{FollowerReader, Replica};
use mohan_server::{PromoteHook, Promotion, Server, ServerConfig};
use mohan_wire::message::{BuildAlgorithm, IndexSpec, Role};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Closed-loop wire DML against the primary: each thread owns one
/// connection and keeps exactly one request in flight (one simulated
/// user), updating a disjoint slice of the seeded rows and inserting
/// into a disjoint key space, so wire latency — not lock conflicts —
/// is what the follower has to keep up with.
struct WireChurn {
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<u64>>,
    started: Instant,
}

impl WireChurn {
    fn start(addr: &str, threads: usize, seeded_rids: &[Rid]) -> WireChurn {
        let stop = Arc::new(AtomicBool::new(false));
        let handles = (0..threads)
            .map(|i| {
                let addr = addr.to_owned();
                let stop = Arc::clone(&stop);
                let slice: Vec<Rid> = seeded_rids
                    .iter()
                    .copied()
                    .skip(i)
                    .step_by(threads)
                    .collect();
                std::thread::spawn(move || {
                    let mut c = Client::connect(&addr).expect("wire churn connect");
                    let mut key = 10_000_000 * (i as i64 + 1);
                    let mut ops = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        key += 1;
                        let result = if ops.is_multiple_of(3) && !slice.is_empty() {
                            c.update(TABLE, slice[ops as usize % slice.len()], vec![key, 2])
                        } else {
                            c.insert(TABLE, vec![key, 0]).map(|_| ())
                        };
                        match result {
                            Ok(()) => ops += 1,
                            Err(ClientError::Busy) => {
                                key -= 1;
                                std::thread::sleep(Duration::from_micros(200));
                            }
                            // A lock timeout is load, not a harness failure.
                            Err(ClientError::Server { .. }) => {}
                            Err(e) => panic!("wire churn client {i}: {e}"),
                        }
                    }
                    ops
                })
            })
            .collect();
        WireChurn {
            stop,
            handles,
            started: Instant::now(),
        }
    }

    /// Stop every client: committed ops, and ops per second.
    fn stop(self) -> (u64, f64) {
        self.stop.store(true, Ordering::Relaxed);
        let secs = self.started.elapsed().as_secs_f64().max(1e-9);
        let ops: u64 = self
            .handles
            .into_iter()
            .map(|h| h.join().expect("wire churn thread"))
            .sum();
        (ops, ops as f64 / secs)
    }
}

/// E18: replication lag under load, loopback primary → follower.
pub fn e18_replication(quick: bool) -> Vec<Table> {
    let n: i64 = super::scaled(if quick { 20_000 } else { 60_000 });
    const CLIENTS: usize = 4;
    let sample_every = Duration::from_millis(10);

    let (db, rids) = seed_table(bench_config(), n, 99);
    let srv = Server::start(
        Arc::clone(&db),
        ServerConfig {
            workers: 4,
            max_inflight: 16,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = srv.addr().to_string();

    let follower = Db::new(bench_config());
    follower.create_table(TABLE);
    let replica = Replica::new(Arc::clone(&follower), &addr);
    let apply = replica.spawn();

    // Let the follower swallow the seed history before measuring, so
    // the first window starts from lag 0 rather than a cold backlog.
    db.wal.flush_all();
    assert!(
        replica.wait_applied(db.wal.flushed_lsn(), Duration::from_secs(60)),
        "follower never absorbed the seed history"
    );

    let mut t = Table::new(
        "E18: follower lag (LSNs) under closed-loop wire DML, with and without an SF build",
        &[
            "scenario",
            "window",
            "wire ops/s",
            "lag mean",
            "lag p99",
            "lag max",
            "catch-up",
        ],
    );

    let mut built = None;
    for build in [false, true] {
        let churn = WireChurn::start(&addr, CLIENTS, &rids);
        std::thread::sleep(Duration::from_millis(50));

        // Sample lag while the window runs; the build scenario's
        // window is the build itself, the baseline's is fixed time.
        let mut samples: Vec<u64> = Vec::new();
        let started = Instant::now();
        if build {
            let done = Arc::new(AtomicBool::new(false));
            let done2 = Arc::clone(&done);
            let addr2 = addr.clone();
            let builder = std::thread::spawn(move || {
                let mut c = Client::connect(&addr2).expect("builder connect");
                let ids = loop {
                    match c.create_index(
                        TABLE,
                        BuildAlgorithm::Sf,
                        vec![IndexSpec {
                            name: "e18_sf".into(),
                            key_cols: vec![0],
                            unique: false,
                        }],
                        |_, _, _| {},
                    ) {
                        Ok(ids) => break ids,
                        Err(ClientError::Busy) => std::thread::sleep(Duration::from_millis(1)),
                        Err(e) => panic!("wire build: {e}"),
                    }
                };
                done2.store(true, Ordering::Release);
                ids
            });
            while !done.load(Ordering::Acquire) {
                samples.push(replica.lag());
                std::thread::sleep(sample_every);
            }
            built = Some(builder.join().expect("builder thread")[0]);
        } else {
            let window = Duration::from_millis(if quick { 300 } else { 800 });
            while started.elapsed() < window {
                samples.push(replica.lag());
                std::thread::sleep(sample_every);
            }
        }
        let window = started.elapsed();
        let (_, ops_per_s) = churn.stop();

        // Catch-up: how long the follower needs to drain the backlog
        // once the primary goes quiet.
        db.wal.flush_all();
        let t0 = Instant::now();
        assert!(
            replica.wait_applied(db.wal.flushed_lsn(), Duration::from_secs(60)),
            "follower never caught up after the window"
        );
        let catch_up = t0.elapsed();

        samples.sort_unstable();
        let mean = samples.iter().sum::<u64>() as f64 / samples.len().max(1) as f64;
        let p99 = samples[(samples.len().saturating_sub(1)) * 99 / 100];
        let max = samples.last().copied().unwrap_or(0);
        t.row(vec![
            if build {
                "DML + SF build over the wire".into()
            } else {
                "DML only".into()
            },
            ms(window),
            f2(ops_per_s),
            f2(mean),
            p99.to_string(),
            max.to_string(),
            ms(catch_up),
        ]);
    }

    // The replicated build is structurally sound on the follower too.
    let built = built.expect("build scenario ran");
    verify_index(&follower, built).expect("follower index verifies");

    replica.stop();
    srv.drain();
    apply.join().expect("replica apply thread");

    t.note("Lag sampled every 10ms: primary flushed LSN minus follower applied LSN.");
    t.note("Catch-up is the backlog drain time after churn stops (flushed prefix fully applied).");
    t.note(format!(
        "Follower reconnects: {}; the stream survived the whole run if 0.",
        replica.reconnects()
    ));
    vec![t]
}

/// Closed-loop reads against any [`ReadApi`] surface — the same driver
/// measures the wire client, the in-process follower reader, and (as a
/// baseline) an in-process session. Errors (stale rejections, mostly)
/// are counted, backed off, and retried; only successful reads
/// contribute latency samples.
fn read_driver<R: ReadApi>(
    api: &mut R,
    rids: &[Rid],
    stop: &AtomicBool,
) -> (u64, u64, Vec<Duration>) {
    let mut ok = 0u64;
    let mut errs = 0u64;
    let mut lats = Vec::new();
    let mut i = 0usize;
    while !stop.load(Ordering::Relaxed) {
        let rid = rids[i % rids.len()];
        i = i.wrapping_add(17); // coprime stride ≈ uniform coverage
        let t0 = Instant::now();
        match api.read(TABLE, rid) {
            Ok(_) => {
                lats.push(t0.elapsed());
                ok += 1;
            }
            Err(_) => {
                errs += 1;
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }
    (ok, errs, lats)
}

fn pctl(sorted: &[Duration], p: usize) -> Duration {
    if sorted.is_empty() {
        Duration::ZERO
    } else {
        sorted[(sorted.len() - 1) * p / 100]
    }
}

/// E19: follower reads under a staleness bound, then promotion after
/// the primary dies — loopback primary → follower, reads over the
/// wire and in-process through the shared [`ReadApi`] driver.
pub fn e19_follower_reads(quick: bool) -> Vec<Table> {
    let n: i64 = super::scaled(if quick { 20_000 } else { 60_000 });
    const DML_CLIENTS: usize = 4;
    const WIRE_READERS: usize = 2;
    /// Reads are refused once the follower trails the primary by more
    /// than this many LSNs; rejections show up in the table, not as
    /// harness failures.
    const MAX_LAG_LSN: u64 = 5_000;
    let window = Duration::from_millis(if quick { 300 } else { 800 });

    let (db, rids) = seed_table(bench_config(), n, 99);
    let psrv = Server::start(
        Arc::clone(&db),
        ServerConfig {
            workers: 4,
            max_inflight: 16,
            ..ServerConfig::default()
        },
    )
    .expect("bind primary");
    let paddr = psrv.addr().to_string();

    let follower = Db::new(bench_config());
    follower.create_table(TABLE);
    let replica = Replica::new(Arc::clone(&follower), &paddr);
    let apply = replica.spawn();
    db.wal.flush_all();
    assert!(
        replica.wait_applied(db.wal.flushed_lsn(), Duration::from_secs(60)),
        "follower never absorbed the seed history"
    );

    // The follower's own wire endpoint: staleness-gated reads, writes
    // bounced toward the primary, promotion wired to the replica.
    let hook_replica = Arc::clone(&replica);
    let fsrv = Server::start(
        Arc::clone(&follower),
        ServerConfig {
            workers: 4,
            max_inflight: 16,
            max_lag_lsn: MAX_LAG_LSN,
            leader_hint: paddr.clone(),
            promote_hook: Some(PromoteHook::new(move || {
                hook_replica.promote().map(|r| Promotion {
                    last_lsn: r.last_lsn.0,
                    losers_undone: r.losers_undone,
                })
            })),
            ..ServerConfig::default()
        },
    )
    .expect("bind follower");
    let faddr = fsrv.addr().to_string();

    // Phase 1: primary churn + follower reads, all surfaces at once.
    let churn = WireChurn::start(&paddr, DML_CLIENTS, &rids);
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..WIRE_READERS)
        .map(|_| {
            let faddr = faddr.clone();
            let rids = rids.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut c = Client::connect(&faddr).expect("reader connect");
                assert_eq!(
                    c.hello(Role::Client).expect("handshake").role,
                    Role::Replica
                );
                read_driver(&mut c, &rids, &stop)
            })
        })
        .collect();
    let inproc = {
        let rids = rids.clone();
        let stop = Arc::clone(&stop);
        let mut reader = FollowerReader::new(Arc::clone(&replica), MAX_LAG_LSN);
        std::thread::spawn(move || read_driver(&mut reader, &rids, &stop))
    };

    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    let (dml_ops, dml_per_s) = churn.stop();
    let wire: Vec<_> = readers
        .into_iter()
        .map(|h| h.join().expect("wire reader"))
        .collect();
    let (ip_ok, ip_errs, mut ip_lats) = inproc.join().expect("in-process reader");

    let mut t = Table::new(
        "E19: follower read throughput/latency under primary churn (bounded staleness)",
        &[
            "read surface",
            "reads",
            "reads/s",
            "p50",
            "p99",
            "rejected stale",
        ],
    );
    let secs = window.as_secs_f64();
    let wire_ok: u64 = wire.iter().map(|(ok, _, _)| ok).sum();
    let wire_errs: u64 = wire.iter().map(|(_, e, _)| e).sum();
    let mut wire_lats: Vec<Duration> = wire.into_iter().flat_map(|(_, _, l)| l).collect();
    wire_lats.sort_unstable();
    ip_lats.sort_unstable();
    t.row(vec![
        format!("wire client ×{WIRE_READERS} (loopback)"),
        wire_ok.to_string(),
        f2(wire_ok as f64 / secs),
        us(pctl(&wire_lats, 50)),
        us(pctl(&wire_lats, 99)),
        wire_errs.to_string(),
    ]);
    t.row(vec![
        "in-process FollowerReader".into(),
        ip_ok.to_string(),
        f2(ip_ok as f64 / secs),
        us(pctl(&ip_lats, 50)),
        us(pctl(&ip_lats, 99)),
        ip_errs.to_string(),
    ]);
    t.note(format!(
        "Primary DML beside the reads: {} committed wire ops ({}/s); staleness budget {MAX_LAG_LSN} LSNs.",
        dml_ops,
        f2(dml_per_s),
    ));
    t.note(format!(
        "Follower counters: repl.reads_served={}, repl.reads_rejected_stale={}.",
        follower.obs.counter("repl.reads_served").get(),
        follower.obs.counter("repl.reads_rejected_stale").get(),
    ));

    // Phase 2: the failover. Converge, kill the primary, promote over
    // the wire, and time the client-visible write gap.
    db.wal.flush_all();
    assert!(
        replica.wait_applied(db.wal.flushed_lsn(), Duration::from_secs(60)),
        "follower never converged before failover"
    );
    psrv.drain();
    db.simulate_crash();

    let mut t2 = Table::new(
        "E19: promotion after primary crash (client-visible downtime)",
        &["step", "value"],
    );
    let mut c = Client::connect(&faddr).expect("promoter connect");
    let t0 = Instant::now();
    let promoted = c.promote().expect("wire promotion");
    let promote_call = t0.elapsed();
    // Downtime as a writer experiences it: from initiating failover to
    // the first acknowledged write on the new primary.
    let rid = c
        .insert(TABLE, vec![77_000_001, 1])
        .expect("first post-promotion write");
    let downtime = t0.elapsed();
    assert_eq!(
        c.read(TABLE, rid).expect("read back"),
        vec![77_000_001, 1],
        "post-promotion write not visible"
    );
    assert_eq!(
        c.hello(Role::Client).expect("handshake").role,
        Role::Primary
    );

    t2.row(vec!["promote call (wire)".into(), ms(promote_call)]);
    t2.row(vec!["downtime to first acked write".into(), ms(downtime)]);
    t2.row(vec![
        "in-flight txs undone".into(),
        promoted.losers_undone.to_string(),
    ]);
    t2.row(vec![
        "log tail at takeover".into(),
        promoted.last_lsn.to_string(),
    ]);
    t2.note("Downtime excludes failure detection: the clock starts at the Promote request.");

    fsrv.drain();
    apply.join().expect("replica apply thread");
    vec![t, t2]
}

/// One named counter out of a `Metrics` round trip — how E22 reads
/// the primary's stream counters without touching internals.
fn stat(c: &mut Client, key: &str) -> u64 {
    let report = c.metrics().expect("metrics round trip");
    report.counter(key).unwrap_or(0)
}

/// E22: WAL fan-out — every subscriber ships from the log at its own
/// cursor. The scaling leg times how long the primary takes to deliver
/// the same flushed batches to 1, 4 and 16 subscribers, with nothing
/// lost; the idle leg checks that subscribers with nothing to receive
/// cost no record shipping at all.
pub fn e22_fanout(quick: bool) -> Vec<Table> {
    let batches: i64 = if quick { 20 } else { 60 };
    let rows_per_batch: i64 = if quick { 200 } else { 400 };

    let mut t = Table::new(
        "E22: delivering flushed batches to N subscribers",
        &["subscribers", "records/sub", "delivered total", "wall"],
    );

    for &subs in &[1usize, 4, 16] {
        let (db, _rids) = seed_table(bench_config(), super::scaled(5_000), 99);
        let srv = Server::start(
            Arc::clone(&db),
            ServerConfig {
                workers: 4,
                max_inflight: 64,
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let addr = srv.addr().to_string();
        db.wal.flush_all();
        let start_lsn = db.wal.flushed_lsn().0;

        let stop = Arc::new(AtomicBool::new(false));
        let delivered = Arc::new(AtomicU64::new(0));
        let tails: Vec<_> = (0..subs)
            .map(|_| {
                let c = Client::connect(&addr).expect("subscriber connect");
                let stop = Arc::clone(&stop);
                let delivered = Arc::clone(&delivered);
                std::thread::spawn(move || {
                    let _ = c.subscribe_wal(start_lsn + 1, move |_flushed, records, _traces| {
                        delivered.fetch_add(records.len() as u64, Ordering::Relaxed);
                        !stop.load(Ordering::Relaxed)
                    });
                })
            })
            .collect();
        let mut statsc = Client::connect(&addr).expect("stats connect");
        while stat(&mut statsc, "repl.fanout.subscribers") < subs as u64 {
            std::thread::sleep(Duration::from_millis(1));
        }

        let t0 = Instant::now();
        for b in 0..batches {
            let tx = db.begin();
            for i in 0..rows_per_batch {
                db.insert_record(
                    tx,
                    TABLE,
                    &Record(vec![9_000_000 + b * rows_per_batch + i, 0]),
                )
                .expect("insert");
            }
            db.commit(tx).expect("commit");
            db.wal.flush_all();
        }
        let wrote = db.wal.flushed_lsn().0 - start_lsn;
        let want = subs as u64 * wrote;
        let deadline = Instant::now() + Duration::from_secs(60);
        while delivered.load(Ordering::Relaxed) < want && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let wall = t0.elapsed();
        stop.store(true, Ordering::Relaxed);
        for h in tails {
            h.join().expect("subscriber thread");
        }
        let got = delivered.load(Ordering::Relaxed);
        assert_eq!(got, want, "subscribers missed records ({subs} subs)");

        t.row(vec![
            subs.to_string(),
            wrote.to_string(),
            got.to_string(),
            ms(wall),
        ]);
        srv.drain();
    }
    t.note(format!("{batches} flushed batches of {rows_per_batch} inserts; wall runs from the first insert to the last record delivered to every subscriber."));
    t.note("delivered total = subscribers x records: each subscriber copies its own frames out of the log, with zero records lost.");

    // Idle leg: subscribers attached, nothing flushing. The flush-waker
    // gate and the cursor-vs-flushed check must make this window free of
    // shipping: no record goes out, only timer-driven heartbeats.
    let mut t2 = Table::new(
        "E22: idle window with 16 attached subscribers",
        &["window", "records shipped", "heartbeats", "shard wakeups"],
    );
    {
        let (db, _rids) = seed_table(bench_config(), super::scaled(5_000), 99);
        let srv = Server::start(
            Arc::clone(&db),
            ServerConfig {
                workers: 4,
                max_inflight: 64,
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let addr = srv.addr().to_string();
        db.wal.flush_all();
        let from = db.wal.flushed_lsn().0 + 1;
        let stop = Arc::new(AtomicBool::new(false));
        let tails: Vec<_> = (0..16)
            .map(|_| {
                let c = Client::connect(&addr).expect("subscriber connect");
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let _ = c.subscribe_wal(from, move |_, _, _| !stop.load(Ordering::Relaxed));
                })
            })
            .collect();
        let mut statsc = Client::connect(&addr).expect("stats connect");
        while stat(&mut statsc, "repl.fanout.subscribers") < 16 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let records0 = stat(&mut statsc, "server.wal_records");
        let frames0 = stat(&mut statsc, "server.wal_frames");
        let wakeups0 = stat(&mut statsc, "server.wakeups");
        let window = Duration::from_millis(if quick { 400 } else { 1000 });
        std::thread::sleep(window);
        let records = stat(&mut statsc, "server.wal_records") - records0;
        let frames = stat(&mut statsc, "server.wal_frames") - frames0;
        let wakeups = stat(&mut statsc, "server.wakeups") - wakeups0;
        assert_eq!(records, 0, "idle subscribers shipped records");
        stop.store(true, Ordering::Relaxed);
        for h in tails {
            h.join().expect("subscriber thread");
        }
        t2.row(vec![
            ms(window),
            records.to_string(),
            frames.to_string(),
            wakeups.to_string(),
        ]);
        srv.drain();
    }
    t2.note("No flushes in the window: a cursor past the flushed LSN copies nothing; heartbeats are timer-driven and touch no log record.");

    vec![t, t2]
}
