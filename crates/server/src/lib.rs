//! TCP service exposing the engine over the wire protocol.
//!
//! The paper's availability story (§2.2.1 NSF's short descriptor
//! quiesce, §3.2.1 SF's zero quiesce) is a claim about what *clients*
//! experience while `CREATE INDEX` runs. This crate is the serving
//! substrate that makes the claim observable end-to-end: a `std::net`
//! TCP listener (no async runtime — the container has no crates.io
//! access, consistent with the in-tree shim policy) feeding a sharded
//! pool of worker threads, each owning a set of non-blocking
//! connections with a per-connection [`mohan_oib::Session`].
//!
//! Connections have one driver, a **readiness reactor** (see the
//! `reactor` module): each shard registers its sockets with an epoll
//! or poll(2) backend — thin in-tree FFI, no crates — and blocks
//! until the kernel reports readiness, another thread wakes it, or a
//! coarse timer-wheel deadline (idle reaping, stream emission, write
//! timeouts) arrives. Idle connections therefore cost zero wakeups.
//! Whatever the reason, a connection is moved forward by one function
//! (`conn::service`), and the streaming exchange that may own it
//! (build watch, metrics stream, WAL stream) is one `job::Job`.
//!
//! Service behaviours, all bounded by configuration rather than left
//! to queue without limit:
//!
//! * **admission control** — a global in-flight cap; requests over the
//!   cap get an immediate [`mohan_wire::Response::Busy`] instead of
//!   queueing (closed-loop clients back off; the cap bounds engine
//!   concurrency);
//! * **per-request deadlines** — a request that sat buffered past its
//!   deadline is refused with `DeadlineExceeded` rather than executed
//!   late; post-execution overruns are counted;
//! * **idle / slow-client timeouts** — both directions of a stuck
//!   connection are bounded: reads by the idle timeout, writes by the
//!   write timeout;
//! * **online builds over the wire** — `CreateIndex` runs the build on
//!   its own thread while the worker streams
//!   [`mohan_wire::Response::Progress`] frames from the build's
//!   durable checkpoints, so a client watches the scan/sort/load/drain
//!   phases of §2/§3 live;
//! * **graceful drain** — [`Server::drain`] stops accepting, lets
//!   in-flight work and commits finish (rolling back what does not
//!   finish inside the drain timeout), flushes the WAL, and joins
//!   every thread; committed work survives a crash-and-recover after
//!   the drain by construction.

#![warn(missing_docs)]

#[cfg(not(unix))]
compile_error!(
    "mohan-server drives its connections with poll(2)/epoll and runs on unix hosts only"
);

mod accept;
mod conn;
mod http;
mod job;
mod native;
mod pg;
mod reactor;
mod stats;

pub use stats::ServerStats;

use mohan_common::stats::Counter;
use mohan_common::IoBackendChoice;
use mohan_obs::Histogram;
use mohan_oib::Db;
use mohan_wire::Request;
use parking_lot::Mutex;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`"127.0.0.1:0"` picks a free port).
    pub bind_addr: String,
    /// Worker threads; each owns a shard of the connections.
    pub workers: usize,
    /// Maximum simultaneous connections; further accepts are closed
    /// immediately.
    pub max_connections: usize,
    /// Maximum requests executing at once (running builds count);
    /// requests over the cap get `Busy`.
    pub max_inflight: usize,
    /// A request older than this when the worker gets to it is refused
    /// with `DeadlineExceeded`.
    pub request_deadline: Duration,
    /// Connections silent for this long are closed (open transaction
    /// rolled back). Connections with a running build are exempt.
    pub idle_timeout: Duration,
    /// A response write blocked longer than this marks the client slow
    /// and closes the connection.
    pub write_timeout: Duration,
    /// How long a drain waits for open transactions and running builds
    /// before rolling back / abandoning them.
    pub drain_timeout: Duration,
    /// How often a build's checkpoints are polled for progress frames.
    pub progress_interval: Duration,
    /// A request whose execution runs at least this long is recorded
    /// in the engine's trace ring buffer as a `server.slow_request`
    /// span (see `mohan_obs::TraceSink`).
    pub slow_request: Duration,
    /// Staleness bound for reads served while the engine is a
    /// replication follower: a `Read`/`Lookup` is refused with
    /// [`mohan_wire::message::ErrorCode::Stale`] when the follower's
    /// replication lag (in LSNs) exceeds this. The default
    /// (`u64::MAX`) never refuses, which is also the right answer on a
    /// primary where the lag is always 0.
    pub max_lag_lsn: u64,
    /// Where writes should go instead, attached to
    /// [`mohan_wire::message::ErrorCode::NotWritable`] answers on a
    /// follower. Usually the primary's address; empty when unknown.
    pub leader_hint: String,
    /// How a `Promote` request is executed. The server itself cannot
    /// stop the replication subscription (that is the replica layer,
    /// which sits above this crate), so promotion is injected: the
    /// hook runs the whole stop-subscription → restart-undo →
    /// open-for-writes sequence and reports what it did. With no hook
    /// configured, `Promote` answers an `Internal` error.
    pub promote_hook: Option<PromoteHook>,
    /// Optional second listener speaking the Postgres v3 protocol
    /// (simple query). `None` disables it. The default honors the
    /// `MOHAN_PG_PORT` environment variable: a bare port binds
    /// `127.0.0.1:<port>`, a value containing `:` is used as the full
    /// bind address.
    pub pg_bind_addr: Option<String>,
    /// Optional HTTP sidecar listener serving `/metrics` (OpenMetrics
    /// text exposition), `/healthz` (process liveness), and `/readyz`
    /// (role, drain state, replication lag vs [`Self::max_lag_lsn`]).
    /// `None` disables it. The default honors the `MOHAN_HTTP_PORT`
    /// environment variable with the same spelling as
    /// [`Self::pg_bind_addr`]: a bare port binds `127.0.0.1:<port>`,
    /// a value containing `:` is the full bind address.
    pub http_bind_addr: Option<String>,
    /// Head-based trace sampling: keep one trace in `N` (`0`/`1` keep
    /// every trace). Applied process-wide at [`Server::start`] via
    /// [`mohan_obs::set_trace_sampling`]; the keep/drop decision is a
    /// deterministic hash of the trace id, so a primary and its
    /// followers agree on which traces record when their rates agree.
    /// The default honors the `MOHAN_TRACE_SAMPLE` environment
    /// variable.
    pub trace_sample_one_in: u32,
    /// Byte budget for the WAL broadcast ring: each newly flushed
    /// suffix is scanned and encoded **once** into pre-framed chunks
    /// that every `SubscribeWal` connection tails at its own cursor.
    /// When the retained window (bounded by this budget) moves past a
    /// subscriber's cursor, that subscriber is cut loose with
    /// [`mohan_wire::message::ErrorCode::SubscriptionLagged`] and
    /// falls back to the replica layer's reconnect-catch-up path.
    /// Clamped up to one chunk (`mohan_wal::broadcast::CHUNK_MAX_BYTES`).
    pub fanout_ring_bytes: usize,
    /// Which I/O readiness backend drives the connection layer.
    /// `Auto` detects at startup (epoll where available, else
    /// poll(2)). The default honors the `MOHAN_IO_BACKEND` environment
    /// variable when set, so whole test suites can be re-run under a
    /// different backend without touching call sites.
    pub io_backend: IoBackendChoice,
}

/// What a successful promotion reports back over the wire.
#[derive(Debug, Clone, Copy)]
pub struct Promotion {
    /// The new primary's log tail after restart undo.
    pub last_lsn: u64,
    /// In-flight transactions rolled back by the restart-undo pass.
    pub losers_undone: u64,
}

/// Callback executing a promotion (see [`ServerConfig::promote_hook`]).
///
/// Runs synchronously on the worker thread servicing the `Promote`
/// request; implementations must not block on multi-second waits (the
/// replica layer's promotion takes an apply gate, never a socket
/// timeout, for exactly this reason).
#[derive(Clone)]
pub struct PromoteHook(Arc<dyn Fn() -> Result<Promotion, String> + Send + Sync>);

impl PromoteHook {
    /// Wrap a promotion closure.
    pub fn new(f: impl Fn() -> Result<Promotion, String> + Send + Sync + 'static) -> PromoteHook {
        PromoteHook(Arc::new(f))
    }

    pub(crate) fn call(&self) -> Result<Promotion, String> {
        (self.0)()
    }
}

impl std::fmt::Debug for PromoteHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PromoteHook(..)")
    }
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            bind_addr: "127.0.0.1:0".into(),
            workers: 4,
            max_connections: 64,
            max_inflight: 8,
            request_deadline: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(60),
            write_timeout: Duration::from_secs(2),
            drain_timeout: Duration::from_secs(10),
            progress_interval: Duration::from_millis(25),
            slow_request: Duration::from_millis(100),
            max_lag_lsn: u64::MAX,
            leader_hint: String::new(),
            promote_hook: None,
            pg_bind_addr: bind_addr_from_env(mohan_common::config::PG_PORT_ENV),
            http_bind_addr: bind_addr_from_env(mohan_common::config::HTTP_PORT_ENV),
            trace_sample_one_in: std::env::var(mohan_common::config::TRACE_SAMPLE_ENV)
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(1),
            fanout_ring_bytes: 4 << 20,
            io_backend: IoBackendChoice::from_env()
                .unwrap_or_else(|bad| {
                    eprintln!(
                        "warning: {}={bad:?} is not a backend (auto|epoll|poll); using auto",
                        mohan_common::config::IO_BACKEND_ENV
                    );
                    None
                })
                .unwrap_or_default(),
        }
    }
}

/// `env` as a bind address: a bare port means `127.0.0.1:<port>`, a
/// value containing `:` is used verbatim, unset/empty means none.
fn bind_addr_from_env(env: &str) -> Option<String> {
    std::env::var(env).ok().filter(|v| !v.is_empty()).map(|v| {
        if v.contains(':') {
            v
        } else {
            format!("127.0.0.1:{v}")
        }
    })
}

const STATE_RUNNING: u8 = 0;
const STATE_DRAINING: u8 = 1;

/// State shared by the accept thread, the workers, and the handle.
pub(crate) struct Inner {
    pub(crate) db: Arc<Db>,
    pub(crate) cfg: ServerConfig,
    pub(crate) stats: ServerStats,
    state: AtomicU8,
    drain_started: Mutex<Option<Instant>>,
    pub(crate) inflight: AtomicUsize,
    pub(crate) conn_count: AtomicUsize,
    /// Live HTTP sidecar connections (a subset of `conn_count`). When
    /// every remaining connection is an HTTP probe, a drain has
    /// nothing left to wait for (see `conn::drain_mark`).
    pub(crate) http_conns: AtomicUsize,
    /// Live connections per shard, for least-occupied accept routing.
    /// Incremented at hand-off, decremented when the shard reaps (or
    /// drops) the connection — unlike `stats.conn_shards`, which
    /// counts cumulative assignments.
    pub(crate) shard_conns: Vec<AtomicUsize>,
    /// Shared WAL fan-out ring: every flushed suffix is scanned,
    /// encoded, and trace-tagged once, and each `SubscribeWal`
    /// connection tails the pre-encoded chunks at its own cursor.
    pub(crate) broadcast: Arc<mohan_wal::WalBroadcast>,
    /// Table-name catalog shared by every pg session.
    pub(crate) catalog: Arc<mohan_pgwire::Catalog>,
    /// Per-statement-kind latency histograms
    /// (`server.pg_req_us.<kind>`), mirroring `req_us`.
    pub(crate) pg_req_us: Vec<Arc<Histogram>>,
    /// Per-opcode request-latency histograms (`server.req_us.<op>`),
    /// resolved once at startup so the request hot path records with
    /// plain atomics instead of a registry lookup.
    pub(crate) req_us: Vec<Arc<Histogram>>,
    /// Follower-read counters (`repl.reads_served` /
    /// `repl.reads_rejected_stale`), cached off the registry for the
    /// same reason as `req_us`. Only bumped while the engine is a
    /// replica.
    pub(crate) reads_served: Arc<Counter>,
    pub(crate) reads_stale: Arc<Counter>,
    /// Events delivered per reactor wait (`server.events_per_wait`).
    pub(crate) events_per_wait: Arc<Histogram>,
    /// One waker per shard: cross-thread state changes — a new
    /// connection handed off, one handed back by the executor, a
    /// build result deposited, the WAL flushed past a subscriber, a
    /// drain starting — wake the blocked shard instead of waiting out
    /// its timer.
    wakers: Vec<Arc<reactor::Waker>>,
}

impl Inner {
    pub(crate) fn draining(&self) -> bool {
        self.state.load(Ordering::Acquire) == STATE_DRAINING
    }

    /// Time since the drain began (zero if not draining).
    pub(crate) fn drain_elapsed(&self) -> Duration {
        self.drain_started
            .lock()
            .map_or(Duration::ZERO, |t| t.elapsed())
    }

    /// Try to take an in-flight execution slot.
    pub(crate) fn admit(&self) -> bool {
        self.inflight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < self.cfg.max_inflight).then_some(n + 1)
            })
            .is_ok()
    }

    /// Release a slot taken by [`Inner::admit`].
    pub(crate) fn release(&self) {
        self.inflight.fetch_sub(1, Ordering::AcqRel);
    }

    /// The waker for `shard`.
    pub(crate) fn shard_waker(&self, shard: usize) -> Arc<reactor::Waker> {
        Arc::clone(&self.wakers[shard])
    }

    /// Wake every shard (drain kick-off).
    fn wake_all(&self) {
        for w in &self.wakers {
            w.wake();
        }
    }
}

/// What a [`Server::drain`] accomplished.
#[derive(Debug)]
pub struct DrainReport {
    /// Open transactions the drain had to roll back.
    pub rolled_back: u64,
    /// Builds still running when the drain timeout expired; their
    /// threads keep running detached (the `Db` is refcounted), but no
    /// client is connected to see them finish.
    pub builds_abandoned: u64,
    /// Connections closed over the server's lifetime.
    pub conns_closed: u64,
}

/// A running server: accept threads + worker pool over a shared [`Db`].
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    /// Bound address of the pg listener, when configured.
    pg_addr: Option<SocketAddr>,
    /// Bound address of the HTTP sidecar listener, when configured.
    http_addr: Option<SocketAddr>,
    /// One accept thread per listener, each with the waker that ends
    /// its wait at drain time.
    acceptors: Vec<(reactor::Waker, JoinHandle<()>)>,
    workers: Vec<JoinHandle<()>>,
    /// WAL flush-waker registrations to undo after the workers join.
    flush_hooks: Vec<u64>,
    /// What the configured `io_backend` resolved to on this host.
    backend: reactor::ResolvedBackend,
}

impl Server {
    /// Bind and start serving `db` per `cfg`. Fails if an address
    /// cannot be bound, if `cfg.io_backend` names a backend this host
    /// cannot run (e.g. epoll elsewhere than Linux), or if a thread's
    /// backend cannot be set up (out of descriptors).
    pub fn start(db: Arc<Db>, cfg: ServerConfig) -> io::Result<Server> {
        let backend = reactor::resolve(cfg.io_backend)?;
        // Process-wide by design: the sampling decision must be a pure
        // function of the trace id so every layer (and every follower
        // configured with the same rate) agrees which traces record.
        mohan_obs::set_trace_sampling(cfg.trace_sample_one_in);
        let bind = |addr: &String| -> io::Result<TcpListener> {
            let l = TcpListener::bind(addr)?;
            l.set_nonblocking(true)?;
            Ok(l)
        };
        let listener = bind(&cfg.bind_addr)?;
        let addr = listener.local_addr()?;
        let pg_listener = cfg.pg_bind_addr.as_ref().map(bind).transpose()?;
        let pg_addr = pg_listener
            .as_ref()
            .map(TcpListener::local_addr)
            .transpose()?;
        let http_listener = cfg.http_bind_addr.as_ref().map(bind).transpose()?;
        let http_addr = http_listener
            .as_ref()
            .map(TcpListener::local_addr)
            .transpose()?;
        let workers = cfg.workers.max(1);
        let req_us = Request::NAMES
            .iter()
            .map(|op| db.obs.histogram(&format!("server.req_us.{op}")))
            .collect();
        let pg_req_us = mohan_pgwire::Statement::KINDS
            .iter()
            .map(|op| db.obs.histogram(&format!("server.pg_req_us.{op}")))
            .collect();
        let catalog = Arc::new(mohan_pgwire::Catalog::new(&db));
        let reads_served = db.obs.counter("repl.reads_served");
        let reads_stale = db.obs.counter("repl.reads_rejected_stale");
        let events_per_wait = db.obs.histogram("server.events_per_wait");
        db.obs.trace().event("server.io_backend", backend.name(), 0);

        // The broadcast ring starts at the durable tail: records below
        // it are served to late subscribers by bounded catch-up scans.
        let broadcast = Arc::new(mohan_wal::WalBroadcast::new(
            db.wal.flushed_lsn().0 + 1,
            cfg.fanout_ring_bytes,
        ));
        // Fan-out gauges, weak so a drained server's ring can drop.
        {
            let gauge = |name: &str, f: fn(&mohan_wal::WalBroadcast) -> u64| {
                let w = Arc::downgrade(&broadcast);
                db.obs
                    .gauge_fn(name, move || w.upgrade().map_or(0, |b| f(&b)));
            };
            gauge("repl.fanout.subscribers", |b| b.subscribers());
            gauge("repl.fanout.ring_chunks", |b| b.ring_chunks());
            gauge("repl.fanout.ring_bytes", |b| b.ring_bytes());
            gauge("repl.fanout.scans", |b| b.scans());
            gauge("repl.fanout.encodes", |b| b.encodes());
            gauge("repl.fanout.evicted", |b| b.chunks_evicted());
            gauge("repl.fanout.cut_loose", |b| b.cut_loose());
        }

        // Every shard's event source, before any thread exists: a host
        // that cannot provide one fails the start, not a shard.
        let mut wakers = Vec::with_capacity(workers);
        let mut sources = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (io, wake_rx, waker) = reactor::open(backend)?;
            wakers.push(Arc::new(waker));
            sources.push((io, wake_rx));
        }

        let inner = Arc::new(Inner {
            db,
            stats: ServerStats::new(workers),
            cfg,
            state: AtomicU8::new(STATE_RUNNING),
            drain_started: Mutex::new(None),
            inflight: AtomicUsize::new(0),
            conn_count: AtomicUsize::new(0),
            http_conns: AtomicUsize::new(0),
            shard_conns: (0..workers).map(|_| AtomicUsize::new(0)).collect(),
            broadcast,
            catalog,
            pg_req_us,
            req_us,
            reads_served,
            reads_stale,
            events_per_wait,
            wakers,
        });

        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        let mut flush_hooks = Vec::new();
        for (shard, (io, wake_rx)) in sources.into_iter().enumerate() {
            let (tx, rx) = mpsc::channel();
            senders.push(tx);
            let wal_subs = Arc::new(AtomicUsize::new(0));
            // Event-driven WAL shipping: when the durable prefix
            // advances, wake exactly the shards that have live
            // subscribers (the AtomicUsize gate keeps everyone else
            // asleep).
            let gate = Arc::clone(&wal_subs);
            let waker = inner.shard_waker(shard);
            flush_hooks.push(inner.db.wal.register_flush_waker(Box::new(move || {
                if gate.load(Ordering::Acquire) > 0 {
                    waker.wake();
                }
            })));
            let ctx = conn::ShardCtx { shard, wal_subs };
            let inner2 = Arc::clone(&inner);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("oib-worker-{shard}"))
                    .spawn(move || reactor::driver::run(&inner2, &ctx, &rx, io, &wake_rx))
                    .expect("spawn worker"),
            );
        }

        let mut server = Server {
            inner,
            addr,
            pg_addr,
            http_addr,
            acceptors: Vec::new(),
            workers: handles,
            flush_hooks,
            backend,
        };
        let listeners = [
            (Some(listener), conn::Proto::Native, "oib-accept"),
            (
                pg_listener,
                conn::Proto::Pg(Default::default()),
                "oib-pg-accept",
            ),
            (http_listener, conn::Proto::Http, "oib-http-accept"),
        ];
        for (listener, proto, name) in listeners {
            let Some(listener) = listener else { continue };
            match accept::spawn(
                &server.inner,
                listener,
                senders.clone(),
                proto,
                backend,
                name,
            ) {
                Ok(acceptor) => server.acceptors.push(acceptor),
                Err(e) => {
                    // Stop the threads already running before failing.
                    server.drain();
                    return Err(e);
                }
            }
        }
        Ok(server)
    }

    /// The backend name the configured choice resolved to
    /// (`"epoll"` or `"poll"`).
    #[must_use]
    pub fn io_backend(&self) -> &'static str {
        self.backend.name()
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The pg listener's bound address, when one is configured.
    #[must_use]
    pub fn pg_addr(&self) -> Option<SocketAddr> {
        self.pg_addr
    }

    /// The HTTP sidecar listener's bound address, when one is
    /// configured.
    #[must_use]
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// The server's counters.
    #[must_use]
    pub fn stats(&self) -> &ServerStats {
        &self.inner.stats
    }

    /// Connections currently open.
    #[must_use]
    pub fn connections(&self) -> usize {
        self.inner.conn_count.load(Ordering::Acquire)
    }

    /// Graceful shutdown: stop accepting, let buffered requests and
    /// commits finish (other statements are refused with `Draining`),
    /// wait up to the drain timeout for open transactions and running
    /// builds, roll back what remains, flush the WAL, and join every
    /// thread.
    pub fn drain(mut self) -> DrainReport {
        let drain_started = Instant::now();
        *self.inner.drain_started.lock() = Some(drain_started);
        self.inner.state.store(STATE_DRAINING, Ordering::Release);
        // Threads may be blocked in wait() with no deadline; kick them
        // so they observe the drain immediately.
        for (waker, _) in &self.acceptors {
            waker.wake();
        }
        self.inner.wake_all();
        for (_, h) in self.acceptors.drain(..) {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        for id in self.flush_hooks.drain(..) {
            self.inner.db.wal.unregister_flush_waker(id);
        }
        let drained_in = drain_started.elapsed();
        self.inner
            .db
            .obs
            .histogram("server.drain_us")
            .record_micros(drained_in);
        self.inner.db.obs.trace().span_event(
            "server.drain",
            "drain",
            drained_in.as_micros().min(u128::from(u64::MAX)) as u64,
            self.inner.stats.drain_rollbacks.get(),
        );
        // Every committed transaction's log is already flushed at
        // commit; this force-flush covers stray tail records so a
        // post-drain copy of the log is complete.
        self.inner.db.wal.flush_all();
        let abandoned = self
            .inner
            .stats
            .builds_started
            .get()
            .saturating_sub(self.inner.stats.builds_done.get())
            .saturating_sub(self.inner.stats.builds_failed.get());
        DrainReport {
            rolled_back: self.inner.stats.drain_rollbacks.get(),
            builds_abandoned: abandoned,
            conns_closed: self.inner.stats.conns_closed.get(),
        }
    }
}
