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

use super::service::start_wire_churn;
use crate::report::{f2, ms, us, Table};
use crate::workload::{bench_config, seed_table, TABLE};
use mohan_client::{Client, ClientError, ErrorCode};
use mohan_common::{EngineConfig, Lsn, ReadApi, Rid, TxId};
use mohan_oib::schema::Record;
use mohan_oib::verify::verify_index;
use mohan_oib::Db;
use mohan_replica::{FollowerReader, Replica};
use mohan_server::{PromoteHook, Promotion, Server, ServerConfig};
use mohan_wal::{LogPayload, RecKind};
use mohan_wire::message::{BuildAlgo, IndexSpecWire, Request, Response, Role};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

    let follower = Db::new(EngineConfig {
        replica: true,
        ..bench_config()
    });
    follower.create_table(TABLE);
    let replica = Replica::new(Arc::clone(&follower), &addr);
    let apply = replica.spawn();

    // Let the follower swallow the seed history before measuring, so
    // the first window starts from lag 0 rather than a cold backlog.
    db.wal.flush_all();
    assert!(
        replica.wait_caught_up(db.wal.flushed_lsn(), Duration::from_secs(60)),
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
        let churn = start_wire_churn(&addr, CLIENTS, &rids);
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
                        BuildAlgo::Sf,
                        vec![IndexSpecWire {
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
        let stats = churn.stop();

        // Catch-up: how long the follower needs to drain the backlog
        // once the primary goes quiet.
        db.wal.flush_all();
        let t0 = Instant::now();
        assert!(
            replica.wait_caught_up(db.wal.flushed_lsn(), Duration::from_secs(60)),
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
            f2(stats.ops as f64 / stats.elapsed.as_secs_f64().max(1e-9)),
            f2(mean),
            p99.to_string(),
            max.to_string(),
            ms(catch_up),
        ]);
        let _ = stats.errors;
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

    let follower = Db::new(EngineConfig {
        replica: true,
        ..bench_config()
    });
    follower.create_table(TABLE);
    let replica = Replica::new(Arc::clone(&follower), &paddr);
    let apply = replica.spawn();
    db.wal.flush_all();
    assert!(
        replica.wait_caught_up(db.wal.flushed_lsn(), Duration::from_secs(60)),
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
    let churn = start_wire_churn(&paddr, DML_CLIENTS, &rids);
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
    let dml = churn.stop();
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
        dml.ops,
        f2(dml.ops as f64 / dml.elapsed.as_secs_f64().max(1e-9)),
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
        replica.wait_caught_up(db.wal.flushed_lsn(), Duration::from_secs(60)),
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

/// One named counter out of a `Request::Stats` round trip — how E22
/// reads the primary's fan-out counters without touching internals.
fn stat(c: &mut Client, key: &str) -> u64 {
    match c.call(&Request::Stats).expect("stats round trip") {
        Response::Stats { counters } => counters
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0, |(_, v)| *v),
        other => panic!("expected Stats, got {other:?}"),
    }
}

/// E22: shared broadcast-pump fan-out — the primary's WAL-suffix scan
/// and encode work must be O(1) per flushed batch no matter how many
/// subscribers tail the stream, idle subscribers must cost zero
/// scans, and a stalled subscriber must be cut loose and converge
/// after reconnecting with nothing lost. All three claims are counter
/// verified (`repl.fanout.*`), not timed.
pub fn e22_fanout(quick: bool) -> Vec<Table> {
    let batches: i64 = if quick { 20 } else { 60 };
    let rows_per_batch: i64 = if quick { 200 } else { 400 };

    let mut t = Table::new(
        "E22: primary-side scan/encode cost per flushed batch vs subscriber count",
        &[
            "subscribers",
            "flushed batches",
            "suffix scans",
            "encode passes",
            "scans/batch",
            "records/sub",
            "delivered total",
            "wall",
        ],
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
        let scans0 = stat(&mut statsc, "repl.fanout.scans");
        let encodes0 = stat(&mut statsc, "repl.fanout.encodes");

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
        let scans = stat(&mut statsc, "repl.fanout.scans") - scans0;
        let encodes = stat(&mut statsc, "repl.fanout.encodes") - encodes0;
        stop.store(true, Ordering::Relaxed);
        for h in tails {
            h.join().expect("subscriber thread");
        }
        let got = delivered.load(Ordering::Relaxed);
        assert_eq!(got, want, "subscribers missed records ({subs} subs)");

        t.row(vec![
            subs.to_string(),
            batches.to_string(),
            scans.to_string(),
            encodes.to_string(),
            f2(scans as f64 / batches as f64),
            wrote.to_string(),
            got.to_string(),
            ms(wall),
        ]);
        srv.drain();
    }
    t.note("Suffix scans / encode passes are the shared ring's counters (range copies out of the log / chunks cut): every flushed batch is copied and chunked once for ALL subscribers (scans/batch ~constant from 1 to 16).");
    t.note("delivered total = subscribers x records: copy-once fan-out, with zero records lost.");

    // Idle leg: subscribers attached, nothing flushing. The flush-waker
    // gate plus the ring's head hint must make this window free —
    // zero scans, zero encodes.
    let mut t2 = Table::new(
        "E22: idle window with 16 attached subscribers",
        &["window", "suffix scans", "encode passes", "shard wakeups"],
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
        let scans0 = stat(&mut statsc, "repl.fanout.scans");
        let encodes0 = stat(&mut statsc, "repl.fanout.encodes");
        let wakeups0 = stat(&mut statsc, "server.wakeups");
        let window = Duration::from_millis(if quick { 400 } else { 1000 });
        std::thread::sleep(window);
        let scans = stat(&mut statsc, "repl.fanout.scans") - scans0;
        let encodes = stat(&mut statsc, "repl.fanout.encodes") - encodes0;
        let wakeups = stat(&mut statsc, "server.wakeups") - wakeups0;
        assert_eq!(scans, 0, "idle subscribers caused WAL-suffix scans");
        assert_eq!(encodes, 0, "idle subscribers caused encode passes");
        stop.store(true, Ordering::Relaxed);
        for h in tails {
            h.join().expect("subscriber thread");
        }
        t2.row(vec![
            ms(window),
            scans.to_string(),
            encodes.to_string(),
            wakeups.to_string(),
        ]);
        srv.drain();
    }
    t2.note("No flushes in the window: the flush-waker gate and the ring's head hint leave nothing to scan; heartbeats are timer-driven and touch no WAL state.");

    // Cut-loose leg: one subscriber stalls while the log churns whole
    // ring windows past it; the primary cuts it loose with the
    // structured error, it resubscribes from its exact cursor, and the
    // bounded catch-up scans walk it back — contiguity-checked, so a
    // single lost or repeated LSN fails the experiment.
    let mut t3 = Table::new(
        "E22: slow-follower cut-loose and reconnect catch-up (zero loss)",
        &["cut loose", "records", "catch-up scans", "lost"],
    );
    {
        let (db, _rids) = seed_table(bench_config(), super::scaled(2_000), 99);
        let srv = Server::start(
            Arc::clone(&db),
            ServerConfig {
                workers: 2,
                max_inflight: 16,
                write_timeout: Duration::from_secs(60),
                fanout_ring_bytes: 1 << 20,
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let addr = srv.addr().to_string();
        db.wal.flush_all();
        let start = db.wal.flushed_lsn().0;
        let resume = Arc::new(AtomicBool::new(false));
        let tail = Arc::new(AtomicU64::new(0));

        let sub = {
            let addr = addr.clone();
            let resume = Arc::clone(&resume);
            let tail = Arc::clone(&tail);
            std::thread::spawn(move || {
                let mut next = start + 1;
                let mut cuts = 0u64;
                let mut stalled_once = false;
                loop {
                    let c = Client::connect(&addr).expect("subscriber reconnect");
                    let res = c.subscribe_wal(next, |_flushed, records, _traces| {
                        if !stalled_once {
                            stalled_once = true;
                            let deadline = Instant::now() + Duration::from_secs(30);
                            while !resume.load(Ordering::Acquire) && Instant::now() < deadline {
                                std::thread::sleep(Duration::from_millis(5));
                            }
                        }
                        for rec in &records {
                            assert_eq!(rec.lsn.0, next, "gap or replay after cut-loose");
                            next += 1;
                        }
                        let t = tail.load(Ordering::Acquire);
                        t == 0 || next <= t
                    });
                    match res {
                        Ok(()) => break,
                        Err(ClientError::Server {
                            code: ErrorCode::SubscriptionLagged { .. },
                            ..
                        }) => cuts += 1,
                        Err(e) => panic!("subscriber stream failed: {e}"),
                    }
                }
                (next, cuts)
            })
        };

        // Churn ring windows past the stalled cursor until the cut
        // lands, then a little more churn for the catch-up to cover.
        let mut statsc = Client::connect(&addr).expect("stats connect");
        let mut cut = 0u64;
        for _ in 0..64 {
            for _ in 0..16 {
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
            cut = stat(&mut statsc, "repl.fanout.cut_loose");
            if cut >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(cut >= 1, "stalled subscriber was never cut loose");
        let scans0 = stat(&mut statsc, "repl.fanout.scans");
        resume.store(true, Ordering::Release);
        for i in 0..256i64 {
            db.wal.append(
                TxId(999_999),
                Lsn::NULL,
                RecKind::RedoOnly,
                LogPayload::CatalogUpdate {
                    bytes: vec![i as u8; 1 << 10],
                },
            );
        }
        db.wal.flush_all();
        tail.store(db.wal.flushed_lsn().0, Ordering::Release);

        let (next, cuts) = sub.join().expect("subscriber thread");
        let catch_up_scans = stat(&mut statsc, "repl.fanout.scans") - scans0;
        let total = db.wal.flushed_lsn().0 - start;
        assert_eq!(next, tail.load(Ordering::Acquire) + 1, "records lost");
        t3.row(vec![
            cuts.to_string(),
            total.to_string(),
            catch_up_scans.to_string(),
            (tail.load(Ordering::Acquire) + 1 - next).to_string(),
        ]);
        srv.drain();
    }
    t3.note("The reconnecting cursor re-enters via bounded private scans until it reaches the ring; the contiguity assert makes 'zero committed records lost' a hard check.");

    vec![t, t2, t3]
}
