//! Live terminal view of a running server's metrics.
//!
//! ```text
//! oib-top [--addr HOST:PORT] [--interval MS] [--frames N] [--once]
//! ```
//!
//! Subscribes to the server's `ObserveStats` stream and redraws a
//! table of histogram summaries and counters once per frame; `--once`
//! does a single `Metrics` request and prints the same table without
//! clearing the screen (useful in scripts). `--frames N` stops after
//! `N` frames (0 = forever), disconnecting to end the subscription.

use mohan_client::{Client, MetricsReport};

struct Options {
    addr: String,
    interval_ms: u32,
    frames: u64,
    once: bool,
}

fn parse_args() -> Options {
    let mut opts = Options {
        addr: "127.0.0.1:7878".into(),
        interval_ms: 500,
        frames: 0,
        once: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--addr" => opts.addr = value("--addr"),
            "--interval" => {
                opts.interval_ms = value("--interval").parse().expect("--interval MS");
            }
            "--frames" => opts.frames = value("--frames").parse().expect("--frames N"),
            "--once" => opts.once = true,
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: oib-top [--addr HOST:PORT] [--interval MS] [--frames N] [--once]"
                );
                std::process::exit(2);
            }
        }
    }
    opts
}

/// Ratio as a percentage, empty-safe.
fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64 * 100.0
    }
}

fn render(report: &MetricsReport, frame: u64, clear: bool) {
    let mut out = String::new();
    if clear {
        out.push_str("\x1b[2J\x1b[H"); // clear screen, cursor home
    }
    let hit = report.counter("cache.hit").unwrap_or(0);
    let miss = report.counter("cache.miss").unwrap_or(0);
    out.push_str(&format!(
        "oib-top  frame {frame}   cache hit {:.1}%   drain lag {}   active txs {}   inflight {}   wakeups {}",
        pct(hit, hit + miss),
        report.counter("build.drain_lag").unwrap_or(0),
        report.counter("engine.active_txs").unwrap_or(0),
        report.counter("server.inflight").unwrap_or(0),
        // Cumulative shard wakeups: tracks delivered events, so it
        // stays near-flat while the server is idle.
        report.counter("server.wakeups").unwrap_or(0),
    ));
    // The table holds what is locked now: `entries` names held or
    // queued for, `held` of them on open transactions' release lists.
    out.push_str(&format!(
        "   lock waits {} ({} timeouts)  entries {} (held {})",
        report.counter("lock.waits").unwrap_or(0),
        report.counter("lock.timeouts").unwrap_or(0),
        report.counter("lock.entries").unwrap_or(0),
        report.counter("lock.held_names").unwrap_or(0),
    ));
    // Only a replication follower registers repl.* gauges; on a
    // primary the header stays unchanged.
    if let Some(lag) = report.counter("repl.lag_lsn") {
        out.push_str(&format!(
            "   repl lag {lag} lsn (queue {})",
            report.counter("repl.queue_depth").unwrap_or(0),
        ));
    }
    out.push('\n');
    // Once a build has checkpointed: what its checkpoints cost the
    // builder (`build.checkpoint_us`), what they wrote (`cache.force`),
    // and what they cost writers — time blocked on a tree's structure
    // lock (`btree.structure_wait_us`), which no latch or lock metric
    // shows; and how often the builders offered the processor to
    // everyone else (`build.pace_points`).
    if let Some(cp) = report.hist("build.checkpoint_us") {
        let blocked = report.hist("btree.structure_wait_us");
        out.push_str(&format!(
            "build    checkpoints {} (p99 {} µs, max {} µs)   pages forced {}   structure waits {} (max {} µs)   pace points {}\n",
            cp.count,
            cp.p99,
            cp.max,
            report.counter("cache.force").unwrap_or(0),
            blocked.map_or(0, |h| h.count),
            blocked.map_or(0, |h| h.max),
            report.counter("build.pace_points").unwrap_or(0),
        ));
    }
    // The log: what was appended, what the log holds in memory for it
    // (stored record bytes + slot directory), and how flushes grouped.
    out.push_str(&format!(
        "wal      records {} / {} KiB   resident {} records / {} KiB   flushes {} (coalesced {})\n",
        report.counter("wal.records").unwrap_or(0),
        report.counter("wal.bytes").unwrap_or(0) / 1024,
        report.counter("wal.resident_records").unwrap_or(0),
        report.counter("wal.resident_bytes").unwrap_or(0) / 1024,
        report.counter("wal.flushes").unwrap_or(0),
        report.counter("wal.group_flush_coalesced").unwrap_or(0),
    ));
    // A primary with WAL subscribers shows the broadcast fan-out ring:
    // live subscriber count, ring occupancy, shared scan/encode totals,
    // and how many lagging streams were cut loose.
    if let Some(subs) = report.counter("repl.fanout.subscribers") {
        out.push_str(&format!(
            "fanout   subs {subs}   ring {} chunks / {} KiB   scans {}   encodes {}   evicted {}   cut loose {}\n",
            report.counter("repl.fanout.ring_chunks").unwrap_or(0),
            report.counter("repl.fanout.ring_bytes").unwrap_or(0) / 1024,
            report.counter("repl.fanout.scans").unwrap_or(0),
            report.counter("repl.fanout.encodes").unwrap_or(0),
            report.counter("repl.fanout.evicted").unwrap_or(0),
            report.counter("repl.fanout.cut_loose").unwrap_or(0),
        ));
    }
    out.push_str(&format!(
        "{:<28} {:>10} {:>9} {:>9} {:>9} {:>9}\n",
        "histogram (µs)", "count", "p50", "p90", "p99", "max"
    ));
    for (name, h) in &report.hists {
        out.push_str(&format!(
            "{:<28} {:>10} {:>9} {:>9} {:>9} {:>9}\n",
            name, h.count, h.p50, h.p90, h.p99, h.max
        ));
    }
    out.push_str("counters:\n");
    let mut row = 0usize;
    for (name, v) in &report.counters {
        out.push_str(&format!("  {:<32} {:>12}", name, v));
        row += 1;
        if row.is_multiple_of(2) {
            out.push('\n');
        }
    }
    if !row.is_multiple_of(2) {
        out.push('\n');
    }
    print!("{out}");
    use std::io::Write;
    let _ = std::io::stdout().flush();
}

fn main() {
    let opts = parse_args();
    let mut client = Client::connect(&opts.addr).unwrap_or_else(|e| {
        eprintln!("connect {}: {e}", opts.addr);
        std::process::exit(1);
    });

    if opts.once {
        match client.metrics() {
            Ok(report) => render(&report, 0, false),
            Err(e) => {
                eprintln!("metrics: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let max_frames = opts.frames;
    let mut seen = 0u64;
    let result = client.observe_stats(opts.interval_ms, |report| {
        seen += 1;
        render(&report, seen, true);
        max_frames == 0 || seen < max_frames
    });
    if let Err(e) = result {
        eprintln!("stream ended: {e}");
        std::process::exit(1);
    }
}
