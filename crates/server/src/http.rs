//! Dependency-free HTTP/1.1 sidecar: the third front door.
//!
//! Connections accepted on the HTTP listener run the same shard loops
//! as native and pg connections — only the framing differs. Three GET
//! routes, all answerable without touching engine locks (so the
//! reactor event loop serves them inline, never via the executor):
//!
//! * `/metrics` — one engine registry snapshot (the server's own
//!   counters are in it) as OpenMetrics text exposition: counters as
//!   `_total`, gauges plain, histograms as cumulative
//!   `_bucket{le=...}` series derived from the log-linear buckets'
//!   exact upper bounds.
//! * `/healthz` — process liveness; 200 as long as a worker can
//!   answer at all.
//! * `/readyz` — traffic-worthiness: 503 while draining or while a
//!   replication follower's lag exceeds `max_lag_lsn`, with a
//!   line-per-field body (`role=`, `draining=`, `lag_lsn=`, …) so
//!   probes and humans read the same answer.
//!
//! Requests are admission-exempt: a health probe refused with `Busy`
//! would page an operator about load, which is precisely when probes
//! must keep answering. For the same reason HTTP connections are not
//! reaped by the early drain pass — an orchestrator's probe must be
//! able to observe `ready=false` during the drain window — but each
//! response sent while draining closes its connection, so probes
//! cannot prolong the drain past their own answer.

use crate::conn::{send_raw, Conn};
use crate::Inner;
use std::sync::Arc;
use std::time::Instant;

/// Request head blocks larger than this are refused; GET requests to
/// the three routes fit in a fraction of it.
const MAX_HEADER: usize = 8192;

/// OpenMetrics content type, version pinned for scrapers that
/// negotiate.
const OPENMETRICS_CTYPE: &str = "application/openmetrics-text; version=1.0.0; charset=utf-8";

const TEXT_CTYPE: &str = "text/plain; charset=utf-8";

/// Split complete request head blocks (terminated by `\r\n\r\n`) off
/// `conn.buf` into `conn.pending`. Bodies are never read: the routes
/// are all GET, and a peer streaming a body just accumulates until
/// the idle timeout or the header cap kills the connection.
pub(crate) fn split_frames(inner: &Arc<Inner>, conn: &mut Conn) {
    while !conn.dead {
        let Some(end) = conn
            .buf
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .map(|p| p + 4)
        else {
            if conn.buf.len() > MAX_HEADER {
                inner.stats.malformed.bump();
                send_raw(
                    inner,
                    conn,
                    b"HTTP/1.1 431 Request Header Fields Too Large\r\n\
                      content-length: 0\r\nconnection: close\r\n\r\n",
                );
                conn.dead = true;
            }
            return;
        };
        let head: Vec<u8> = conn.buf.drain(..end).collect();
        conn.pending.push_back((head, Instant::now()));
    }
}

/// Answer one request head block. Responses carry `content-length`,
/// so clients know when a response is complete without a close;
/// `Connection: close` (and any response sent while draining) closes
/// after the response flushes.
pub(crate) fn handle_payload(inner: &Arc<Inner>, conn: &mut Conn, payload: &[u8]) {
    let head = String::from_utf8_lossy(payload);
    let mut lines = head.split("\r\n");
    let mut request_line = lines.next().unwrap_or("").split_whitespace();
    let method = request_line.next().unwrap_or("");
    let path = request_line
        .next()
        .unwrap_or("")
        .split('?')
        .next()
        .unwrap_or("");
    let wants_close = lines.any(|l| {
        let l = l.to_ascii_lowercase();
        l.starts_with("connection:") && l.contains("close")
    });

    // One reading of the drain flag decides both the answer and whether
    // the connection closes after it: read twice, a drain starting in
    // between sent a `200` that closed its connection.
    let draining = inner.draining();
    let (status, ctype, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            TEXT_CTYPE,
            "method not allowed\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => ("200 OK", OPENMETRICS_CTYPE, render_metrics(inner)),
            "/healthz" => ("200 OK", TEXT_CTYPE, "ok\n".to_string()),
            "/readyz" => {
                let (ready, body) = readiness(inner, draining);
                let status = if ready {
                    "200 OK"
                } else {
                    "503 Service Unavailable"
                };
                (status, TEXT_CTYPE, body)
            }
            _ => ("404 Not Found", TEXT_CTYPE, "not found\n".to_string()),
        }
    };

    let close = wants_close || draining;
    let mut out = format!(
        "HTTP/1.1 {status}\r\ncontent-type: {ctype}\r\ncontent-length: {}\r\n",
        body.len()
    );
    if close {
        out.push_str("connection: close\r\n");
    }
    out.push_str("\r\n");
    out.push_str(&body);
    send_raw(inner, conn, out.as_bytes());
    if close && !conn.has_backlog() {
        conn.dead = true;
    }
}

/// Traffic-worthiness and its explanation. Not ready while draining,
/// and not ready while a follower's replication lag exceeds the
/// configured staleness budget — asked of `Db::stale_lag`, the rule
/// follower reads are refused under (without counting a read), so a
/// load balancer stops routing to a replica at exactly the point its
/// reads would start failing with `Stale`.
fn readiness(inner: &Arc<Inner>, draining: bool) -> (bool, String) {
    let is_replica = inner.db.is_replica();
    let lag = inner.db.repl_lag();
    let ready = !draining && inner.db.stale_lag(inner.cfg.max_lag_lsn).is_none();
    let body = format!(
        "ready={ready}\nrole={}\ndraining={draining}\nlag_lsn={lag}\nmax_lag_lsn={}\n",
        if is_replica { "replica" } else { "primary" },
        inner.cfg.max_lag_lsn,
    );
    (ready, body)
}

/// `mohan_<name>` with the registry's dotted namespace flattened to
/// exposition-legal underscores.
fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(6 + name.len());
    out.push_str("mohan_");
    for c in name.chars() {
        out.push(match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' | '_' => c,
            _ => '_',
        });
    }
    out
}

/// One registry snapshot, the server's own counters and levels
/// included, as OpenMetrics text exposition, `# EOF` terminated.
fn render_metrics(inner: &Arc<Inner>) -> String {
    use std::fmt::Write as _;
    let snap = inner.db.obs.snapshot();
    let mut out = String::new();

    for (name, v) in &snap.counters {
        let m = metric_name(name);
        if snap.is_gauge(name) {
            let _ = writeln!(out, "# TYPE {m} gauge\n{m} {v}");
        } else {
            let _ = writeln!(out, "# TYPE {m} counter\n{m}_total {v}");
        }
    }

    for (name, h) in &snap.histograms {
        let m = metric_name(name);
        let _ = writeln!(out, "# TYPE {m} histogram");
        // Occupied log-linear buckets only, with their exact upper
        // bounds as `le`; the scrape stays compact no matter how wide
        // the value range is (see DESIGN.md §8.5).
        for (le, cum) in h.cumulative() {
            let _ = writeln!(out, "{m}_bucket{{le=\"{le}\"}} {cum}");
        }
        let _ = writeln!(out, "{m}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{m}_count {}", h.count);
        let _ = writeln!(out, "{m}_sum {}", h.sum);
    }

    out.push_str("# EOF\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_flatten_to_exposition_charset() {
        assert_eq!(metric_name("wal.flush_us"), "mohan_wal_flush_us");
        assert_eq!(
            metric_name("server.req_us.CreateIndex"),
            "mohan_server_req_us_CreateIndex"
        );
        assert_eq!(metric_name("a-b c"), "mohan_a_b_c");
    }
}
