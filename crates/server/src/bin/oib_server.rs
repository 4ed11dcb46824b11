//! Standalone engine server.
//!
//! ```text
//! oib-server [--addr HOST:PORT] [--pg-port PORT|HOST:PORT]
//!            [--http-port PORT|HOST:PORT] [--workers N]
//!            [--max-inflight N] [--seed-rows N]
//!            [--io-backend auto|epoll|poll]
//! ```
//!
//! Creates a fresh in-memory engine with table 1 (optionally
//! pre-seeded with `--seed-rows` two-column records), arms failpoints
//! from `MOHAN_FAILPOINTS` (`site:count,...`) so CI can exercise crash
//! points without code changes, serves until stdin closes (or the
//! process is killed), then drains gracefully.

use mohan_common::failpoint::FAILPOINTS_ENV;
use mohan_common::EngineConfig;
use mohan_common::TableId;
use mohan_oib::schema::Record;
use mohan_oib::Db;
use mohan_server::{Server, ServerConfig};
use std::io::Read;

fn main() {
    let mut cfg = ServerConfig {
        bind_addr: "127.0.0.1:7878".into(),
        ..ServerConfig::default()
    };
    let mut seed_rows = 0i64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--addr" => cfg.bind_addr = value("--addr"),
            // Overrides MOHAN_PG_PORT (same precedence rule as
            // --io-backend). A bare port binds 127.0.0.1.
            "--pg-port" => {
                let v = value("--pg-port");
                cfg.pg_bind_addr = Some(if v.contains(':') {
                    v
                } else {
                    format!("127.0.0.1:{v}")
                });
            }
            // Overrides MOHAN_HTTP_PORT; same shape as --pg-port.
            "--http-port" => {
                let v = value("--http-port");
                cfg.http_bind_addr = Some(if v.contains(':') {
                    v
                } else {
                    format!("127.0.0.1:{v}")
                });
            }
            "--workers" => cfg.workers = value("--workers").parse().expect("--workers N"),
            "--max-inflight" => {
                cfg.max_inflight = value("--max-inflight").parse().expect("--max-inflight N");
            }
            "--seed-rows" => seed_rows = value("--seed-rows").parse().expect("--seed-rows N"),
            // Overrides MOHAN_IO_BACKEND (the flag is the more
            // deliberate of the two).
            "--io-backend" => {
                let v = value("--io-backend");
                cfg.io_backend = mohan_common::IoBackendChoice::parse(&v).unwrap_or_else(|| {
                    eprintln!("bad --io-backend {v:?}: want auto|epoll|poll");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let db = Db::new(EngineConfig::default());
    let table = TableId(1);
    db.create_table(table);
    match db.failpoints.arm_from_env() {
        Ok(0) => {}
        Ok(n) => eprintln!("armed {n} failpoint(s) from {FAILPOINTS_ENV}"),
        Err(e) => {
            eprintln!("bad {FAILPOINTS_ENV}: {e}");
            std::process::exit(2);
        }
    }
    if seed_rows > 0 {
        let tx = db.begin();
        for k in 0..seed_rows {
            db.insert_record(tx, table, &Record(vec![k, k * 3]))
                .expect("seed insert");
        }
        db.commit(tx).expect("seed commit");
        eprintln!("seeded {seed_rows} rows into table 1");
    }

    let server = Server::start(db, cfg).expect("bind");
    println!(
        "listening on {} (io backend: {})",
        server.addr(),
        server.io_backend()
    );
    if let Some(pg) = server.pg_addr() {
        println!(
            "pg protocol on {pg} (try: psql -h {} -p {})",
            pg.ip(),
            pg.port()
        );
    }
    if let Some(http) = server.http_addr() {
        println!("http sidecar on {http} (/metrics /healthz /readyz)");
    }
    println!("serving table 1; close stdin (or send EOF) to drain and exit");

    // Block until the launcher closes our stdin — the portable,
    // dependency-free stand-in for signal handling.
    let mut sink = [0u8; 256];
    let mut stdin = std::io::stdin();
    loop {
        match stdin.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }

    eprintln!("draining ...");
    let report = server.drain();
    eprintln!(
        "drained: {} open tx rolled back, {} build(s) abandoned, {} conn(s) served",
        report.rolled_back, report.builds_abandoned, report.conns_closed
    );
}
