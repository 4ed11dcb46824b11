//! One accept thread serves every listener: a server with the native,
//! Postgres and HTTP listeners answers on each, runs one thread that
//! accepts, and once drained refuses a connect on all three.
//!
//! This file holds one test, so the process runs no other server whose
//! threads the count below would see.

use mohan_client::Client;
use mohan_common::{EngineConfig, TableId};
use mohan_oib::Db;
use mohan_server::{Server, ServerConfig};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const T: TableId = TableId(1);

/// Threads of this process whose name contains `accept`.
#[cfg(target_os = "linux")]
fn accept_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.contains("accept"))
        .count()
}

/// Read Postgres backend messages up to `ReadyForQuery`: each one's
/// type byte and body.
fn pg_read_until_ready(s: &mut TcpStream) -> Vec<(u8, Vec<u8>)> {
    let mut msgs = Vec::new();
    loop {
        let mut head = [0u8; 5];
        s.read_exact(&mut head).unwrap();
        let len = u32::from_be_bytes(head[1..].try_into().unwrap()) as usize;
        let mut body = vec![0u8; len - 4];
        s.read_exact(&mut body).unwrap();
        msgs.push((head[0], body));
        if head[0] == b'Z' {
            return msgs;
        }
    }
}

/// Connect to the pg listener, run the startup exchange and one
/// simple query; the query's `CommandComplete` tag.
fn pg_query(addr: &str, sql: &str) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let params = b"user\0listeners\0\0";
    let mut startup = ((8 + params.len()) as u32).to_be_bytes().to_vec();
    startup.extend_from_slice(&196_608u32.to_be_bytes()); // 3 << 16
    startup.extend_from_slice(params);
    s.write_all(&startup).unwrap();
    pg_read_until_ready(&mut s);
    let mut query = vec![b'Q'];
    query.extend_from_slice(&((4 + sql.len() + 1) as u32).to_be_bytes());
    query.extend_from_slice(sql.as_bytes());
    query.push(0);
    s.write_all(&query).unwrap();
    let reply = pg_read_until_ready(&mut s);
    s.write_all(&[b'X', 0, 0, 0, 4]).unwrap();
    let (_, body) = reply
        .iter()
        .find(|(typ, _)| *typ == b'C')
        .unwrap_or_else(|| panic!("no CommandComplete for {sql:?}: {reply:?}"));
    String::from_utf8(body[..body.len() - 1].to_vec()).unwrap()
}

/// `GET path` on a fresh connection; the status line.
fn http_status(addr: &str, path: &str) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(s, "GET {path} HTTP/1.1\r\nhost: test\r\n\r\n").unwrap();
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n") {
        s.read_exact(&mut byte).unwrap();
        head.push(byte[0]);
    }
    String::from_utf8(head).unwrap().trim_end().to_string()
}

#[test]
fn every_listener_is_served_by_one_thread() {
    let db = Db::new(EngineConfig::small());
    db.create_table(T);
    let srv = Server::start(
        db,
        ServerConfig {
            bind_addr: "127.0.0.1:0".into(),
            pg_bind_addr: Some("127.0.0.1:0".into()),
            http_bind_addr: Some("127.0.0.1:0".into()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addrs = [
        srv.addr().to_string(),
        srv.pg_addr().unwrap().to_string(),
        srv.http_addr().unwrap().to_string(),
    ];

    let mut native = Client::connect(&addrs[0]).unwrap();
    native.ping().unwrap();
    native.insert(T, vec![7, 70]).unwrap();
    drop(native);
    // The SQL front door has no FROM-less SELECT; this one returns one
    // row, so it completes as `SELECT 1`.
    assert_eq!(
        pg_query(&addrs[1], "SELECT c0 FROM t1 WHERE c0 = 7"),
        "SELECT 1"
    );
    assert_eq!(http_status(&addrs[2], "/healthz"), "HTTP/1.1 200 OK");
    #[cfg(target_os = "linux")]
    assert_eq!(accept_threads(), 1, "one accept thread for three listeners");

    srv.drain();
    // The accept thread held all three listeners, and dropped them
    // when the drain joined it.
    for addr in &addrs {
        let err = TcpStream::connect(addr).expect_err(addr);
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused, "{addr}");
    }
    #[cfg(target_os = "linux")]
    assert_eq!(accept_threads(), 0);
}
