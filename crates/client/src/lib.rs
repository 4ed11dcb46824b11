//! Blocking client for the engine's wire protocol.
//!
//! [`Client`] wraps one `TcpStream` and speaks strict
//! request/response: every call writes one frame and reads frames
//! until the exchange's terminal response ([`Client::create_index`] is
//! the only multi-frame exchange — it consumes the
//! [`Response::Progress`] stream, handing each frame to a callback).
//! [`Pool`] adds connection reuse for closed-loop drivers: checkout a
//! connection, run statements, and the RAII guard returns it on drop.
//!
//! Like everything in the workspace, the transport is `std::net` — the
//! container has no crates.io access, and a blocking client is exactly
//! what a closed-loop workload driver wants anyway (one in-flight
//! request per connection models one user).

#![warn(missing_docs)]

use mohan_common::{
    BuildAlgorithm, BuildOptions, IndexId, IndexSpec, KeyValue, Rid, TableId, TxId,
};
use mohan_wire::frame::{read_frame, write_frame};
use mohan_wire::message::{
    proto_version, BuildPhase, HistogramSummaryWire, Request, Response, Role,
};
use parking_lot::Mutex;
use std::io::{self, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

// Re-exported so callers can match on `ClientError::Server { code }`
// (e.g. a follower telling a cut-loose apart from a generic stream
// error) without depending on the wire crate themselves.
pub use mohan_wire::message::ErrorCode;

/// Everything a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure; the connection is unusable afterwards.
    Io(io::Error),
    /// The server answered with a structured error.
    Server {
        /// Error class.
        code: ErrorCode,
        /// Server-side detail text.
        message: String,
    },
    /// Admission control rejected the request; retry after backoff.
    Busy,
    /// The peer violated the protocol (undecodable frame, wrong
    /// response kind, mid-exchange close). Connection unusable.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error {code:?}: {message}")
            }
            ClientError::Busy => write!(f, "server busy (admission control)"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// True for failures that leave the connection itself healthy (the
    /// server answered; the *request* failed). Io/Protocol failures
    /// mean the stream can no longer be trusted for framing.
    #[must_use]
    pub fn connection_reusable(&self) -> bool {
        matches!(self, ClientError::Server { .. } | ClientError::Busy)
    }
}

/// Alias for client call results.
pub type ClientResult<T> = Result<T, ClientError>;

/// One decoded [`Response::Metrics`] frame: every counter/gauge and
/// every histogram summary the server knows, sorted by name.
#[derive(Debug, Clone, Default)]
pub struct MetricsReport {
    /// `(name, value)` counters and gauges, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, summary)` histogram extracts, sorted by name.
    pub hists: Vec<(String, HistogramSummaryWire)>,
}

impl MetricsReport {
    /// Value of the counter or gauge `name`, if present.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.counters[i].1)
    }

    /// Summary of the histogram `name`, if present.
    #[must_use]
    pub fn hist(&self, name: &str) -> Option<&HistogramSummaryWire> {
        self.hists
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.hists[i].1)
    }
}

/// Decoded [`Response::Welcome`]: the server's half of the version
/// handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Welcome {
    /// Server's packed protocol version (`major << 16 | minor`).
    pub proto_version: u32,
    /// The server's current role (a follower refuses writes).
    pub role: Role,
    /// The server's flushed WAL LSN at handshake time.
    pub flushed_lsn: u64,
}

/// Decoded [`Response::Promoted`]: outcome of a follower promotion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Promoted {
    /// Last LSN in the promoted engine's log.
    pub last_lsn: u64,
    /// In-flight transactions rolled back by the promotion restart.
    pub losers_undone: u64,
}

/// One blocking connection to the server.
pub struct Client {
    stream: TcpStream,
    /// When set, every request ships inside a trace envelope carrying
    /// this id, and the server threads it through everything the
    /// request causes — down to replica apply on a follower.
    trace_id: Option<u64>,
}

impl Client {
    /// Connect to `addr` (e.g. `"127.0.0.1:7878"`).
    pub fn connect(addr: impl ToSocketAddrs) -> ClientResult<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            trace_id: None,
        })
    }

    /// Bound how long a single response read may block. `None`
    /// restores indefinite blocking.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> ClientResult<()> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Attach a trace id to every subsequent request on this
    /// connection (`None` stops attaching). The server adopts the id
    /// as the request's causal trace — sampled or not by its
    /// configured rate — so a client can later fetch the whole span
    /// tree with [`Client::trace_dump`]. A zero id is treated as
    /// unset server-side (the server generates its own).
    pub fn set_trace_id(&mut self, trace_id: Option<u64>) {
        self.trace_id = trace_id;
    }

    fn send(&mut self, req: &Request) -> ClientResult<()> {
        let payload = match self.trace_id {
            Some(id) => mohan_wire::message::encode_traced(id, req),
            None => req.encode(),
        };
        let mut w = BufWriter::new(&mut self.stream);
        write_frame(&mut w, &payload)?;
        w.flush()?;
        Ok(())
    }

    fn recv(&mut self) -> ClientResult<Response> {
        match read_frame(&mut self.stream)? {
            None => Err(ClientError::Protocol("server closed mid-exchange".into())),
            Some(payload) => Response::decode(&payload)
                .ok_or_else(|| ClientError::Protocol("undecodable response frame".into())),
        }
    }

    /// One request, one response — the raw exchange. `Err`/`Busy`
    /// responses are *returned*, not converted to errors; the typed
    /// wrappers below do the conversion.
    pub fn call(&mut self, req: &Request) -> ClientResult<Response> {
        self.send(req)?;
        self.recv()
    }

    fn expect(&mut self, req: &Request) -> ClientResult<Response> {
        match self.call(req)? {
            Response::Err { code, message } => Err(ClientError::Server { code, message }),
            Response::Busy => Err(ClientError::Busy),
            other => Ok(other),
        }
    }

    fn protocol<T>(what: &str, got: &Response) -> ClientResult<T> {
        Err(ClientError::Protocol(format!(
            "expected {what}, got {got:?}"
        )))
    }

    // ----- typed calls ------------------------------------------------

    /// Version/role handshake. Sends this library's protocol version
    /// and the caller's role; the server answers with its own version,
    /// its current role (primary or replication follower) and its
    /// flushed LSN, or rejects the connection with
    /// [`ErrorCode::UnsupportedProto`] on a major-version mismatch.
    ///
    /// Optional: servers keep answering un-handshaked requests, so old
    /// clients work unchanged. New deployments should call this first
    /// to learn whether they are talking to a follower.
    pub fn hello(&mut self, role: Role) -> ClientResult<Welcome> {
        match self.expect(&Request::Hello {
            proto_version: proto_version(),
            role,
        })? {
            Response::Welcome {
                proto_version,
                role,
                flushed_lsn,
            } => Ok(Welcome {
                proto_version,
                role,
                flushed_lsn,
            }),
            other => Self::protocol("Welcome", &other),
        }
    }

    /// Ask a follower server to promote itself to primary. Blocks
    /// until the promotion (tail restart + undo of in-flight
    /// transactions) finishes; afterwards the server accepts writes.
    /// Fails on a server that is already a primary or has no promotion
    /// hook configured.
    pub fn promote(&mut self) -> ClientResult<Promoted> {
        match self.expect(&Request::Promote)? {
            Response::Promoted {
                last_lsn,
                losers_undone,
            } => Ok(Promoted {
                last_lsn,
                losers_undone,
            }),
            other => Self::protocol("Promoted", &other),
        }
    }

    /// Liveness / RTT probe.
    pub fn ping(&mut self) -> ClientResult<()> {
        match self.expect(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Self::protocol("Pong", &other),
        }
    }

    /// Open a transaction on this connection.
    pub fn begin(&mut self) -> ClientResult<TxId> {
        match self.expect(&Request::Begin)? {
            Response::TxBegun { tx } => Ok(TxId(tx)),
            other => Self::protocol("TxBegun", &other),
        }
    }

    /// Commit the open transaction.
    pub fn commit(&mut self) -> ClientResult<()> {
        match self.expect(&Request::Commit)? {
            Response::Committed => Ok(()),
            other => Self::protocol("Committed", &other),
        }
    }

    /// Roll back the open transaction.
    pub fn rollback(&mut self) -> ClientResult<()> {
        match self.expect(&Request::Rollback)? {
            Response::RolledBack => Ok(()),
            other => Self::protocol("RolledBack", &other),
        }
    }

    /// Insert a record (auto-commits when no transaction is open).
    pub fn insert(&mut self, table: TableId, cols: Vec<i64>) -> ClientResult<Rid> {
        match self.expect(&Request::Insert {
            table: table.0,
            cols,
        })? {
            Response::Inserted { rid } => Ok(Rid::unpack(rid)),
            other => Self::protocol("Inserted", &other),
        }
    }

    /// Replace the record at `rid`.
    pub fn update(&mut self, table: TableId, rid: Rid, cols: Vec<i64>) -> ClientResult<()> {
        match self.expect(&Request::Update {
            table: table.0,
            rid: rid.pack(),
            cols,
        })? {
            Response::Updated => Ok(()),
            other => Self::protocol("Updated", &other),
        }
    }

    /// Delete the record at `rid`.
    pub fn delete(&mut self, table: TableId, rid: Rid) -> ClientResult<()> {
        match self.expect(&Request::Delete {
            table: table.0,
            rid: rid.pack(),
        })? {
            Response::Deleted => Ok(()),
            other => Self::protocol("Deleted", &other),
        }
    }

    /// Read the record at `rid`.
    pub fn read(&mut self, table: TableId, rid: Rid) -> ClientResult<Vec<i64>> {
        match self.expect(&Request::Read {
            table: table.0,
            rid: rid.pack(),
        })? {
            Response::Record { cols } => Ok(cols),
            other => Self::protocol("Record", &other),
        }
    }

    /// Exact-match probe of an index.
    pub fn lookup(&mut self, index: IndexId, key: &KeyValue) -> ClientResult<Vec<Rid>> {
        match self.expect(&Request::Lookup {
            index: index.0,
            key: key.as_bytes().to_vec(),
        })? {
            Response::Rids { rids } => Ok(rids.into_iter().map(Rid::unpack).collect()),
            other => Self::protocol("Rids", &other),
        }
    }

    /// Dump the server's span trace ring as JSON lines (one completed
    /// span per line, newest last). `trace_id` restricts the dump to
    /// one trace (0 = all traces); `since_seq` skips events below
    /// that ring sequence number (0 = from the oldest retained) —
    /// resume tailing from the last `seq` seen.
    pub fn trace_dump(&mut self, trace_id: u64, since_seq: u64) -> ClientResult<String> {
        match self.expect(&Request::TraceDump {
            trace_id,
            since_seq,
        })? {
            Response::TraceDump { jsonl } => Ok(jsonl),
            other => Self::protocol("TraceDump", &other),
        }
    }

    /// One metrics snapshot: every counter and gauge of the engine's
    /// registry, the server's own included, and every histogram's
    /// summary, both lists sorted by name. The server answers it even
    /// when every admission slot is taken.
    pub fn metrics(&mut self) -> ClientResult<MetricsReport> {
        match self.expect(&Request::Metrics)? {
            Response::Metrics { counters, hists } => Ok(MetricsReport { counters, hists }),
            other => Self::protocol("Metrics", &other),
        }
    }

    /// Subscribe to the primary's WAL stream starting at `from_lsn`
    /// (1-based; `applied + 1` on reconnect). The server ships batched
    /// frames covering only the *flushed* prefix of its log; empty
    /// frames are heartbeats carrying the advancing flushed LSN.
    /// `on_frame` receives the primary's flushed LSN, the decoded
    /// records, and the frame's trace tags (`(lsn, trace_id)` pairs
    /// naming which records were appended under a sampled trace —
    /// usually empty); returning `false` ends the stream by
    /// disconnecting (the protocol's way to unsubscribe — hence the
    /// method consumes the client).
    pub fn subscribe_wal(
        self,
        from_lsn: u64,
        mut on_frame: impl FnMut(u64, Vec<mohan_wal::LogRecord>, Vec<(u64, u64)>) -> bool,
    ) -> ClientResult<()> {
        self.subscribe_wal_raw(from_lsn, |flushed, count, records, traces| {
            let records = mohan_wal::decode_records(&records, count as usize)
                .ok_or_else(|| ClientError::Protocol("undecodable WAL records".into()))?;
            Ok(on_frame(flushed, records, traces))
        })
    }

    /// [`Client::subscribe_wal`] without the decode: `on_frame`
    /// receives the flushed LSN, the record count, the frame's record
    /// bytes exactly as the primary's log stores them, and the trace
    /// tags. A follower that mirrors the log keeps these bytes. An
    /// `Err` from `on_frame` ends the stream and is returned.
    pub fn subscribe_wal_raw(
        mut self,
        from_lsn: u64,
        mut on_frame: impl FnMut(u64, u32, Vec<u8>, Vec<(u64, u64)>) -> ClientResult<bool>,
    ) -> ClientResult<()> {
        self.send(&Request::SubscribeWal { from_lsn })?;
        loop {
            match self.recv()? {
                Response::WalFrame {
                    flushed,
                    count,
                    records,
                    traces,
                } => {
                    if !on_frame(flushed, count, records, traces)? {
                        return Ok(()); // drop disconnects
                    }
                }
                Response::Err { code, message } => {
                    return Err(ClientError::Server { code, message })
                }
                Response::Busy => return Err(ClientError::Busy),
                other => return Self::protocol("WalFrame", &other),
            }
        }
    }

    /// Build indexes online with the server's default build options,
    /// streaming progress to `on_progress` until the terminal
    /// `IndexCreated` (or error) frame arrives.
    ///
    /// The exchange blocks this connection for the whole build — run it
    /// on its own connection if DML must continue concurrently (that
    /// separation is the point of the experiment).
    pub fn create_index(
        &mut self,
        table: TableId,
        algo: BuildAlgorithm,
        specs: Vec<IndexSpec>,
        on_progress: impl FnMut(IndexId, BuildPhase, u64),
    ) -> ClientResult<Vec<IndexId>> {
        self.create_index_with(table, algo, specs, BuildOptions::default(), on_progress)
    }

    /// [`Client::create_index`] with build options (worker count,
    /// drain policy, checkpoint interval).
    /// Same exchange and connection-occupancy semantics.
    pub fn create_index_with(
        &mut self,
        table: TableId,
        algo: BuildAlgorithm,
        specs: Vec<IndexSpec>,
        options: BuildOptions,
        mut on_progress: impl FnMut(IndexId, BuildPhase, u64),
    ) -> ClientResult<Vec<IndexId>> {
        self.send(&Request::CreateIndex {
            table: table.0,
            algo,
            specs,
            options,
        })?;
        loop {
            match self.recv()? {
                Response::Progress {
                    index,
                    phase,
                    detail,
                } => on_progress(IndexId(index), phase, detail),
                Response::IndexCreated { ids } => {
                    return Ok(ids.into_iter().map(IndexId).collect())
                }
                Response::Err { code, message } => {
                    return Err(ClientError::Server { code, message })
                }
                Response::Busy => return Err(ClientError::Busy),
                other => return Self::protocol("Progress|IndexCreated", &other),
            }
        }
    }
}

/// The shared read surface: the same driver/oracle code runs over a
/// wire client, an in-process session, or a follower reader (see
/// [`mohan_common::ReadApi`]).
impl mohan_common::ReadApi for Client {
    type Err = ClientError;

    fn read(&mut self, table: TableId, rid: Rid) -> ClientResult<Vec<i64>> {
        Client::read(self, table, rid)
    }

    fn lookup(&mut self, index: IndexId, key: &KeyValue) -> ClientResult<Vec<Rid>> {
        Client::lookup(self, index, key)
    }
}

/// A small connection pool: checkout with [`Pool::get`], drop the
/// guard to return the connection. Connections that died (transport
/// or protocol error) should be taken out of circulation with
/// [`PooledClient::discard`].
pub struct Pool {
    addr: String,
    idle: Mutex<Vec<Client>>,
    max_idle: usize,
}

impl Pool {
    /// Pool connecting to `addr`, keeping at most `max_idle` idle
    /// connections (more may exist checked-out at once).
    #[must_use]
    pub fn new(addr: &str, max_idle: usize) -> Arc<Pool> {
        Arc::new(Pool {
            addr: addr.to_owned(),
            idle: Mutex::new(Vec::new()),
            max_idle,
        })
    }

    /// Checkout an idle connection or open a fresh one.
    pub fn get(self: &Arc<Pool>) -> ClientResult<PooledClient> {
        let client = match self.idle.lock().pop() {
            Some(c) => c,
            None => Client::connect(&self.addr)?,
        };
        Ok(PooledClient {
            pool: Arc::clone(self),
            client: Some(client),
        })
    }

    /// Idle connections currently pooled.
    #[must_use]
    pub fn idle_count(&self) -> usize {
        self.idle.lock().len()
    }

    fn put_back(&self, client: Client) {
        let mut idle = self.idle.lock();
        if idle.len() < self.max_idle {
            idle.push(client);
        } // else: drop, closing the socket
    }
}

/// RAII checkout from a [`Pool`]; derefs to [`Client`].
pub struct PooledClient {
    pool: Arc<Pool>,
    client: Option<Client>,
}

impl PooledClient {
    /// Close this connection instead of returning it to the pool. Call
    /// after an error where
    /// [`connection_reusable`](ClientError::connection_reusable) is
    /// false, or after leaving a transaction open deliberately.
    pub fn discard(mut self) {
        self.client = None;
    }
}

impl std::ops::Deref for PooledClient {
    type Target = Client;
    fn deref(&self) -> &Client {
        self.client.as_ref().expect("client present until drop")
    }
}

impl std::ops::DerefMut for PooledClient {
    fn deref_mut(&mut self) -> &mut Client {
        self.client.as_mut().expect("client present until drop")
    }
}

impl Drop for PooledClient {
    fn drop(&mut self) {
        if let Some(client) = self.client.take() {
            self.pool.put_back(client);
        }
    }
}
