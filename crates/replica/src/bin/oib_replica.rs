//! Standalone replication follower.
//!
//! ```text
//! oib-replica --primary HOST:PORT [--addr HOST:PORT] [--workers N]
//!             [--max-lag-lsn N] [--promote-on-disconnect[=SECS]]
//! ```
//!
//! Creates a fresh engine with table 1 (matching
//! `oib-server`'s schema), tails the primary's WAL stream, and serves
//! its *own* wire endpoint. The endpoint answers bounded-staleness
//! reads (`Read`/`Lookup` are refused with `Stale` whenever
//! `repl.lag_lsn` exceeds `--max-lag-lsn`), refuses writes with
//! `NotWritable` carrying the primary's address as leader hint, and
//! accepts `Promote` to take over as primary. With
//! `--promote-on-disconnect`, a watchdog promotes automatically once
//! no WAL frame (heartbeats included) has arrived for SECS seconds.
//! Runs until stdin closes, then drains.

use mohan_common::{EngineConfig, TableId};
use mohan_oib::Db;
use mohan_replica::Replica;
use mohan_server::{PromoteHook, Promotion, Server, ServerConfig};
use std::io::Read;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let mut primary: Option<String> = None;
    let mut promote_after: Option<Duration> = None;
    let mut cfg = ServerConfig {
        bind_addr: "127.0.0.1:7879".into(),
        // Followers default to a finite staleness bound; primaries
        // keep u64::MAX (the gate never fires there anyway).
        max_lag_lsn: 10_000,
        ..ServerConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--primary" => primary = Some(value("--primary")),
            "--addr" => cfg.bind_addr = value("--addr"),
            "--workers" => cfg.workers = value("--workers").parse().expect("--workers N"),
            "--max-lag-lsn" => {
                cfg.max_lag_lsn = value("--max-lag-lsn").parse().expect("--max-lag-lsn N");
            }
            "--promote-on-disconnect" => promote_after = Some(Duration::from_secs(10)),
            other => {
                if let Some(secs) = other.strip_prefix("--promote-on-disconnect=") {
                    let secs: f64 = secs.parse().expect("--promote-on-disconnect=SECS");
                    promote_after = Some(Duration::from_secs_f64(secs));
                } else {
                    eprintln!("unknown argument: {other}");
                    std::process::exit(2);
                }
            }
        }
    }
    let Some(primary) = primary else {
        eprintln!(
            "usage: oib-replica --primary HOST:PORT [--addr HOST:PORT] [--workers N] \
             [--max-lag-lsn N] [--promote-on-disconnect[=SECS]]"
        );
        std::process::exit(2);
    };

    let db = Db::new(EngineConfig::default());
    db.create_table(TableId(1));

    let replica = Replica::new(Arc::clone(&db), &primary);
    let apply_thread = replica.spawn();

    // Writes bounced off this follower tell the client where the
    // primary lives; Promote requests flip the replica in place.
    cfg.leader_hint = primary.clone();
    let hook_replica = Arc::clone(&replica);
    cfg.promote_hook = Some(PromoteHook::new(move || {
        hook_replica.promote().map(|r| Promotion {
            last_lsn: r.last_lsn.0,
            losers_undone: r.losers_undone,
        })
    }));

    let server = Server::start(Arc::clone(&db), cfg).expect("bind");
    println!("following {primary}; serving reads on {}", server.addr());
    println!("close stdin (or send EOF) to stop");

    let watchdog = promote_after.map(|after| {
        let replica = Arc::clone(&replica);
        std::thread::Builder::new()
            .name("oib-replica-watchdog".into())
            .spawn(move || {
                if replica.wait_silence(after) {
                    eprintln!(
                        "no WAL frame for {:.1}s; promoting to primary",
                        after.as_secs_f64()
                    );
                    match replica.promote() {
                        Ok(r) => eprintln!(
                            "promoted: last LSN {}, {} in-flight txs undone, \
                             downtime {} ms",
                            r.last_lsn.0,
                            r.losers_undone,
                            r.downtime.as_millis()
                        ),
                        Err(e) => eprintln!("promotion failed: {e}"),
                    }
                } else if let Some(first) = replica.severed_at() {
                    // The primary is alive; it only no longer holds
                    // what this follower needs. Promoting now would
                    // make a second primary.
                    eprintln!(
                        "the primary's log starts at LSN {}, past this follower's \
                         applied LSN {}: following stopped; seed the follower again",
                        first.0,
                        replica.applied_lsn().0
                    );
                }
            })
            .expect("spawn watchdog")
    });

    let mut sink = [0u8; 256];
    let mut stdin = std::io::stdin();
    loop {
        match stdin.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }

    replica.stop();
    let _ = apply_thread.join();
    if let Some(w) = watchdog {
        let _ = w.join();
    }
    let report = server.drain();
    eprintln!(
        "stopped at applied LSN {}; drained ({} connections closed)",
        replica.applied_lsn().0,
        report.conns_closed
    );
}
