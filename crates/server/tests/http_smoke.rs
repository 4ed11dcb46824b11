//! Loopback tests for the HTTP sidecar: OpenMetrics exposition on
//! `/metrics`, liveness on `/healthz`, and the two ways `/readyz`
//! goes not-ready — a drain in progress, and a replication follower
//! lagging past its staleness budget.

use mohan_client::Client;
use mohan_common::{EngineConfig, TableId};
use mohan_oib::Db;
use mohan_server::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const T: TableId = TableId(1);

fn engine(replica: bool) -> Arc<Db> {
    let db = Db::new(EngineConfig {
        lock_timeout_ms: 5_000,
        ..EngineConfig::small()
    });
    db.set_replica(replica);
    db.create_table(T);
    db
}

fn http_server(db: &Arc<Db>, cfg: ServerConfig) -> Server {
    Server::start(
        Arc::clone(db),
        ServerConfig {
            bind_addr: "127.0.0.1:0".into(),
            http_bind_addr: Some("127.0.0.1:0".into()),
            ..cfg
        },
    )
    .expect("bind http loopback")
}

/// One HTTP/1.1 response: status line, raw header block, body.
struct HttpReply {
    status: String,
    headers: String,
    body: String,
}

/// Issue `GET path` on an open connection and read the full reply
/// (the sidecar always sends `content-length`). Returns `None` if
/// the server closed before answering.
fn get_on(stream: &mut TcpStream, path: &str) -> Option<HttpReply> {
    let req = format!("GET {path} HTTP/1.1\r\nhost: test\r\n\r\n");
    stream.write_all(req.as_bytes()).ok()?;
    let mut buf = Vec::new();
    let head_end = loop {
        if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break p + 4;
        }
        let mut chunk = [0u8; 1024];
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    };
    let head = String::from_utf8(buf[..head_end].to_vec()).expect("utf8 head");
    let mut lines = head.split("\r\n");
    let status = lines.next().expect("status line").to_string();
    let headers: String = lines.collect::<Vec<_>>().join("\r\n");
    let clen: usize = headers
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::to_string)
        })
        .expect("content-length header")
        .trim()
        .parse()
        .expect("numeric content-length");
    let mut body = buf[head_end..].to_vec();
    while body.len() < clen {
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => panic!("EOF mid-body"),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
        }
    }
    Some(HttpReply {
        status,
        headers,
        body: String::from_utf8(body).expect("utf8 body"),
    })
}

fn connect(srv: &Server) -> TcpStream {
    let addr = srv.http_addr().expect("http listener configured");
    let s = TcpStream::connect(addr).expect("connect http sidecar");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s
}

#[test]
fn metrics_healthz_readyz_answer_over_one_connection() {
    let db = engine(false);
    let srv = http_server(&db, ServerConfig::default());

    // Put some traffic through the front door so counters and
    // histograms are non-trivial.
    let mut c = Client::connect(srv.addr().to_string()).unwrap();
    for k in 0..5 {
        c.insert(T, vec![k, k]).unwrap();
    }

    let mut s = connect(&srv);

    let m = get_on(&mut s, "/metrics").expect("metrics reply");
    assert_eq!(m.status, "HTTP/1.1 200 OK");
    assert!(m.headers.contains("application/openmetrics-text"));
    assert!(m.body.ends_with("# EOF\n"), "exposition is EOF-terminated");
    assert!(m.body.contains("mohan_server_requests_total"));
    assert!(m.body.contains("mohan_server_inflight"));
    // A histogram renders the full series: buckets, +Inf, count, sum.
    assert!(m.body.contains("_bucket{le=\"+Inf\"}"));
    assert!(m.body.contains("# TYPE"));
    // Every line is exposition-shaped: a comment or `name[{...}] value`.
    for line in m.body.lines() {
        assert!(
            line.starts_with('#') || line.split(' ').count() == 2,
            "unparseable exposition line: {line:?}"
        );
    }

    // Keep-alive: the same connection answers again.
    let h = get_on(&mut s, "/healthz").expect("healthz reply");
    assert_eq!(h.status, "HTTP/1.1 200 OK");
    assert_eq!(h.body, "ok\n");

    let r = get_on(&mut s, "/readyz").expect("readyz reply");
    assert_eq!(r.status, "HTTP/1.1 200 OK");
    assert!(r.body.contains("ready=true"));
    assert!(r.body.contains("role=primary"));

    let nf = get_on(&mut s, "/nope").expect("404 reply");
    assert_eq!(nf.status, "HTTP/1.1 404 Not Found");

    srv.drain();
}

#[test]
fn readyz_flips_on_a_lagging_follower() {
    let db = engine(true);
    let srv = http_server(
        &db,
        ServerConfig {
            max_lag_lsn: 5,
            ..ServerConfig::default()
        },
    );
    let mut s = connect(&srv);

    db.set_repl_lag(10);
    let r = get_on(&mut s, "/readyz").expect("readyz reply");
    assert_eq!(r.status, "HTTP/1.1 503 Service Unavailable");
    assert!(r.body.contains("ready=false"));
    assert!(r.body.contains("role=replica"));
    assert!(r.body.contains("lag_lsn=10"));
    assert!(r.body.contains("max_lag_lsn=5"));

    db.set_repl_lag(0);
    let r = get_on(&mut s, "/readyz").expect("readyz reply");
    assert_eq!(r.status, "HTTP/1.1 200 OK");
    assert!(r.body.contains("ready=true"));

    srv.drain();
}

#[test]
fn readyz_flips_during_drain_and_probes_survive_the_early_reap() {
    let db = engine(false);
    let srv = http_server(
        &db,
        ServerConfig {
            drain_timeout: Duration::from_secs(10),
            ..ServerConfig::default()
        },
    );

    // Pre-connect the probe and wait for its first answer: a connection
    // the server has not served yet when the drain starts is closed
    // unanswered. Then widen the drain window with an open transaction
    // on a native connection.
    let mut probe = connect(&srv);
    let first = get_on(&mut probe, "/readyz").expect("readyz before the drain");
    assert_eq!(first.status, "HTTP/1.1 200 OK");
    let mut holder = Client::connect(srv.addr().to_string()).unwrap();
    holder.begin().unwrap();
    holder.insert(T, vec![1, 1]).unwrap();

    let drainer = std::thread::spawn(move || srv.drain());

    // The pre-drain connection keeps answering (HTTP probes are
    // exempt from the early reap) until it observes not-ready; that
    // draining response closes it. The drain starts on another
    // thread: yield between probes until it shows (10 s deadline).
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut saw_draining = false;
    while Instant::now() < deadline {
        let Some(r) = get_on(&mut probe, "/readyz") else {
            break;
        };
        if r.status.starts_with("HTTP/1.1 503") {
            assert!(r.body.contains("ready=false"));
            assert!(r.body.contains("draining=true"));
            assert!(r.headers.to_ascii_lowercase().contains("connection: close"));
            saw_draining = true;
            break;
        }
        std::thread::yield_now();
    }
    assert!(saw_draining, "probe never observed the drain");

    // Release the transaction so the drain can finish.
    drop(holder);
    let report = drainer.join().unwrap();
    assert!(report.conns_closed >= 1);
}
