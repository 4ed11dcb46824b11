//! E16: the §4 availability comparison *as clients experience it* —
//! closed-loop DML over real loopback TCP connections while
//! `CREATE INDEX` runs over the wire, for all three algorithms.
//!
//! E5 measures the same claim in-process; here every operation pays
//! the full service path (framing, admission control, a worker shard,
//! the session) and the build's progress arrives as streamed
//! `BuildProgress` frames on a separate connection — the paper's
//! promise restated end-to-end: under SF the *service* keeps
//! answering, under offline it stalls for the whole build window.

use crate::report::{f2, ms, us, Table};
use crate::workload::{bench_config, seed_table, TABLE};
use mohan_client::{Client, ClientError};
use mohan_common::stats::Counter;
use mohan_common::Rid;
use mohan_oib::verify::verify_index;
use mohan_server::{Server, ServerConfig};
use mohan_wire::message::{BuildAlgo, IndexSpecWire};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Closed-loop wire clients: each thread owns one connection and keeps
/// exactly one request in flight (one simulated user). Shared with E18
/// (replication), which runs the same load with a follower attached.
pub(crate) struct WireChurn {
    stop: Arc<AtomicBool>,
    pub(crate) ops_live: Arc<Counter>,
    pub(crate) busy_live: Arc<Counter>,
    handles: Vec<JoinHandle<(u64, u64, Duration)>>,
    started: Instant,
}

pub(crate) struct WireChurnStats {
    pub(crate) ops: u64,
    pub(crate) errors: u64,
    pub(crate) elapsed: Duration,
    total_latency: Duration,
}

impl WireChurnStats {
    pub(crate) fn mean_latency(&self) -> Duration {
        if self.ops == 0 {
            Duration::ZERO
        } else {
            self.total_latency / self.ops as u32
        }
    }
}

impl WireChurn {
    pub(crate) fn stop(self) -> WireChurnStats {
        self.stop.store(true, Ordering::Relaxed);
        let elapsed = self.started.elapsed();
        let mut ops = 0;
        let mut errors = 0;
        let mut total_latency = Duration::ZERO;
        for h in self.handles {
            let (n, e, lat) = h.join().expect("wire churn thread");
            ops += n;
            errors += e;
            total_latency += lat;
        }
        WireChurnStats {
            ops,
            errors,
            elapsed,
            total_latency,
        }
    }
}

pub(crate) fn start_wire_churn(addr: &str, threads: usize, seeded_rids: &[Rid]) -> WireChurn {
    let stop = Arc::new(AtomicBool::new(false));
    let ops_live = Arc::new(Counter::default());
    let busy_live = Arc::new(Counter::default());
    let handles = (0..threads)
        .map(|i| {
            let addr = addr.to_owned();
            let stop = Arc::clone(&stop);
            let ops_live = Arc::clone(&ops_live);
            let busy_live = Arc::clone(&busy_live);
            // Each client updates a disjoint slice of the seeded rows
            // and inserts into a disjoint key space, so wire latency —
            // not lock conflicts — is what gets measured.
            let slice: Vec<Rid> = seeded_rids
                .iter()
                .copied()
                .skip(i)
                .step_by(threads.max(1))
                .collect();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).expect("wire churn connect");
                let mut key = 10_000_000 * (i as i64 + 1);
                let mut ops = 0u64;
                let mut errors = 0u64;
                let mut lat = Duration::ZERO;
                while !stop.load(Ordering::Relaxed) {
                    key += 1;
                    let t0 = Instant::now();
                    let result = if ops.is_multiple_of(3) && !slice.is_empty() {
                        let rid = slice[ops as usize % slice.len()];
                        c.update(TABLE, rid, vec![key, 2])
                    } else {
                        c.insert(TABLE, vec![key, 0]).map(|_| ())
                    };
                    match result {
                        Ok(()) => {
                            lat += t0.elapsed();
                            ops += 1;
                            ops_live.bump();
                        }
                        Err(ClientError::Busy) => {
                            busy_live.bump();
                            key -= 1;
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        // Lock timeouts during the offline quiesce are
                        // a measurement, not a harness failure.
                        Err(ClientError::Server { .. }) => errors += 1,
                        Err(e) => panic!("wire churn client {i}: {e}"),
                    }
                }
                (ops, errors, lat)
            })
        })
        .collect();
    WireChurn {
        stop,
        ops_live,
        busy_live,
        handles,
        started: Instant::now(),
    }
}

/// E16: client-observed throughput/latency over loopback while the
/// index builds over the wire.
pub fn e16_service(quick: bool) -> Vec<Table> {
    let n: i64 = super::scaled(if quick { 30_000 } else { 100_000 });
    const CLIENTS: usize = 4;
    let server_cfg = || ServerConfig {
        workers: 4,
        max_inflight: 16,
        ..ServerConfig::default()
    };
    let mut t = Table::new(
        "E16: service availability over loopback TCP during online builds",
        &[
            "scenario",
            "window",
            "wire ops/s",
            "mean RTT",
            "busy/err",
            "progress frames",
            "ops vs baseline",
        ],
    );

    // Baseline: wire churn with no build running.
    let baseline_tp;
    {
        let (db, rids) = seed_table(bench_config(), n, 88);
        let srv = Server::start(Arc::clone(&db), server_cfg()).expect("bind");
        let churn = start_wire_churn(&srv.addr().to_string(), CLIENTS, &rids);
        std::thread::sleep(Duration::from_millis(if quick { 300 } else { 800 }));
        let busy = churn.busy_live.get();
        let stats = churn.stop();
        srv.drain();
        baseline_tp = stats.ops as f64 / stats.elapsed.as_secs_f64().max(1e-9);
        t.row(vec![
            "no build (baseline)".into(),
            ms(stats.elapsed),
            f2(baseline_tp),
            us(stats.mean_latency()),
            format!("{busy}/{}", stats.errors),
            "-".into(),
            "100.0%".into(),
        ]);
    }

    for algo in [BuildAlgo::Offline, BuildAlgo::Nsf, BuildAlgo::Sf] {
        let (db, rids) = seed_table(bench_config(), n, 88);
        let srv = Server::start(Arc::clone(&db), server_cfg()).expect("bind");
        let addr = srv.addr().to_string();
        let churn = start_wire_churn(&addr, CLIENTS, &rids);
        std::thread::sleep(Duration::from_millis(50));

        let ops0 = churn.ops_live.get();
        let started = Instant::now();
        let mut builder = Client::connect(&addr).expect("builder connect");
        let mut frames = 0u64;
        let ids = loop {
            // The build itself can be refused at the admission cap
            // while churn saturates the server — that *is* the
            // backpressure contract; retry like any client would.
            match builder.create_index(
                TABLE,
                algo,
                vec![IndexSpecWire {
                    name: format!("e16_{algo:?}"),
                    key_cols: vec![0],
                    unique: false,
                }],
                |_, _, _| frames += 1,
            ) {
                Ok(ids) => break ids,
                Err(ClientError::Busy) => std::thread::sleep(Duration::from_millis(1)),
                Err(e) => panic!("wire build ({algo:?}): {e}"),
            }
        };
        let window = started.elapsed();
        let ops_during = churn.ops_live.get() - ops0;
        let busy = churn.busy_live.get();
        let stats = churn.stop();
        srv.drain();
        verify_index(&db, ids[0]).expect("verify");

        let tp = ops_during as f64 / window.as_secs_f64().max(1e-9);
        t.row(vec![
            format!("{algo:?} build over the wire"),
            ms(window),
            f2(tp),
            us(stats.mean_latency()),
            format!("{busy}/{}", stats.errors),
            frames.to_string(),
            format!("{:.1}%", 100.0 * tp / baseline_tp.max(1e-9)),
        ]);
    }
    t.note("Each op pays framing + admission + a worker shard + the session (vs E5 in-process).");
    t.note("Offline stalls the service for the window; NSF/SF keep answering while frames stream.");
    vec![t, idle_sweep(quick)]
}

/// Sorted-percentile helper; `lat` must be sorted ascending.
fn p99(lat: &[u64]) -> Duration {
    if lat.is_empty() {
        return Duration::ZERO;
    }
    Duration::from_micros(lat[(lat.len() - 1) * 99 / 100])
}

/// E16b: the idle-connection sweep — the reactor's reason to exist.
/// A wall of parked connections sits alongside a small set of
/// closed-loop readers for a fixed window, once per io backend. A
/// readiness backend's wakeups track delivered events, so the parked
/// wall is free under either; what differs is the per-wait cost —
/// poll(2) rescans every registered fd, epoll pays for the ready ones.
fn idle_sweep(quick: bool) -> Table {
    use mohan_common::IoBackendChoice;
    let (idle_n, active_n) = if quick { (128, 8) } else { (1_000, 100) };
    let window = Duration::from_millis(if quick { 400 } else { 1_500 });
    let mut t = Table::new(
        "E16b: idle-connection sweep (wakeups vs events, per io backend)",
        &[
            "backend",
            "idle",
            "active",
            "wire ops/s",
            "p99 RTT",
            "wakeups/s",
            "ops/wakeup",
        ],
    );
    for choice in [IoBackendChoice::Poll, IoBackendChoice::Epoll] {
        let (db, rids) = seed_table(bench_config(), 5_000, 91);
        let cfg = ServerConfig {
            workers: 4,
            max_connections: idle_n + active_n + 8,
            max_inflight: active_n * 2 + 8,
            io_backend: choice,
            ..ServerConfig::default()
        };
        let srv = match Server::start(Arc::clone(&db), cfg) {
            Ok(s) => s,
            // `Epoll` is a hard request; on hosts without it the row
            // records the absence instead of silently vanishing.
            Err(_) => {
                t.row(vec![
                    choice.name().into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "unavailable".into(),
                    "-".into(),
                ]);
                continue;
            }
        };
        let addr = srv.addr().to_string();
        let mut parked = Vec::with_capacity(idle_n);
        for _ in 0..idle_n {
            let mut c = Client::connect(&addr).expect("idle connect");
            c.ping().expect("idle ping");
            parked.push(c);
        }
        let go = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<JoinHandle<Vec<u64>>> = (0..active_n)
            .map(|i| {
                let addr = addr.clone();
                let go = Arc::clone(&go);
                let stop = Arc::clone(&stop);
                let rid = rids[i % rids.len()];
                std::thread::spawn(move || {
                    let mut c = Client::connect(&addr).expect("active connect");
                    let mut lat_us = Vec::with_capacity(4 << 10);
                    // Ops before `go` are warmup; only the measured
                    // window's latencies are recorded.
                    while !stop.load(Ordering::Relaxed) {
                        let t0 = Instant::now();
                        match c.read(TABLE, rid) {
                            Ok(_) => {
                                if go.load(Ordering::Relaxed) {
                                    lat_us.push(t0.elapsed().as_micros() as u64);
                                }
                            }
                            Err(ClientError::Busy) => {
                                std::thread::sleep(Duration::from_micros(200));
                            }
                            Err(e) => panic!("active reader {i} ({}): {e}", choice.name()),
                        }
                    }
                    lat_us
                })
            })
            .collect();

        // Let connects and admission settle, then measure one window.
        std::thread::sleep(Duration::from_millis(100));
        let wake0 = srv.stats().wakeups.get();
        go.store(true, Ordering::Relaxed);
        std::thread::sleep(window);
        let woke = srv.stats().wakeups.get() - wake0;
        stop.store(true, Ordering::Relaxed);
        let mut lat: Vec<u64> = Vec::new();
        for h in readers {
            lat.extend(h.join().expect("active reader"));
        }
        drop(parked);
        srv.drain();

        lat.sort_unstable();
        let ops = lat.len() as f64;
        let secs = window.as_secs_f64();
        t.row(vec![
            choice.name().into(),
            idle_n.to_string(),
            active_n.to_string(),
            f2(ops / secs),
            us(p99(&lat)),
            f2(woke as f64 / secs),
            f2(ops / woke.max(1) as f64),
        ]);
    }
    t.note("ops/wakeup near or above 1 means dispatch is event-driven; parked connections cost 0.");
    t
}
