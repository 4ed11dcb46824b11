//! Typed request/response messages and their byte encodings.
//!
//! A payload is one tag byte followed by a tag-specific body. Decoding
//! is strict: unknown tags, truncated bodies and trailing bytes all
//! return `None`, which the peer reports as [`ErrorCode::Malformed`].
//!
//! Every enum that travels — [`Request`], [`Response`], [`ErrorCode`],
//! [`Role`], [`BuildPhase`] — is declared once, as a
//! [`wire_enum!`] table with **one row per variant**: its doc comment,
//! `Variant = tag`, an optional `[may_block]`, and its fields in wire
//! order. The enum, its encoder and decoder, `NAMES`/`index()`/`name()`
//! and the blocking classification are all generated from that row, so
//! adding a message is adding a row (and, if a field has a new type,
//! one [`Wire`] impl for that type, in [`mohan_common::codec`] or
//! here). A tag, once shipped, is never renumbered or reused;
//! `golden_frames.txt` pins the bytes of every variant.
//!
//! The build vocabulary `CreateIndex` carries — [`IndexSpec`],
//! [`BuildAlgorithm`] and [`BuildOptions`] — is the engine's own,
//! declared with its bytes in `mohan_common::config`.
//!
//! The crate deliberately depends only on `mohan-common`: records
//! travel as `Vec<i64>` column values (the engine's `Record` is a
//! newtype over exactly that), RIDs as their packed `u64` form, and
//! index keys as the order-preserving `KeyValue` bytes — so the
//! protocol can be spoken without linking the engine.

use mohan_common::codec::{decode, get_items, put_items, put_list, Cursor, Wire};
use mohan_common::error::Error;
use mohan_common::{wire_enum, wire_struct};

pub use mohan_common::codec::MAX_LIST;
pub use mohan_common::config::{BuildAlgorithm, BuildOptions, IndexSpec};

// The names the protocol's former copies of these types had; nothing
// in the workspace uses them.
pub use mohan_common::config::BuildAlgorithm as BuildAlgo; // perfbench names it
pub use mohan_common::config::BuildOptions as BuildOptionsWire; // perfbench names it
pub use mohan_common::config::IndexSpec as IndexSpecWire; // perfbench names it

/// Protocol major version. A server rejects a [`Request::Hello`]
/// whose major differs from its own — majors gate incompatible
/// changes. Minor bumps are additive and interoperate.
pub const PROTO_MAJOR: u16 = 1;
/// Protocol minor version (additive changes only).
///
/// History: 1 added causal tracing — the [`REQ_TRACED`] request
/// envelope, filter arguments on [`Request::TraceDump`] (a bodyless
/// dump still decodes, as minor 0 sent it), and per-record trace tags
/// on [`Response::WalFrame`] (a frame without the trailing tag list
/// still decodes, as minor 0 cut it).
///
/// 2 added error code tag 39, `SubscriptionLagged { retained_from }`:
/// the primary ended a `SubscribeWal` stream whose cursor fell behind
/// a byte-bounded window of recent records it kept beside the log.
/// That window is gone — a stream now ships from the log at its own
/// pinned cursor and is never cut for lagging — and so is the code.
/// Tag 39 is retired and never reused. A current follower that meets
/// an older primary sending it decodes a malformed code and reconnects
/// with backoff, as minor-0 and minor-1 clients always did.
///
/// 3 added a [`BuildOptions`] (parallel workers, run compression,
/// drain policy, checkpoint interval) to [`Request::CreateIndex`],
/// under a new tag, 19 — and [`ErrorCode::InvalidArg`] for
/// statement-level argument rejection. Tag 19 is the only encoding
/// this build sends. Tag 10, the same body without the options, is
/// what a peer older than minor 3 sends; it is still read, as a
/// `CreateIndex` with default options, and never written. Since every
/// sorted run is stored compressed, the run-compression bit is still
/// read and written but ignored: the bytes did not change, so the
/// minor did not either.
///
/// 4 added [`ErrorCode::LogTruncated`]: a `SubscribeWal` that starts
/// below the primary's first retained LSN ends with it, and a follower
/// stops following on it instead of resubscribing. An older follower
/// decodes it as a malformed error code and keeps reconnecting, to the
/// same answer.
///
/// 5 retired request tag 11 (a read of the counters alone), request
/// tag 13 (a stream of metrics snapshots, one per interval) and
/// response tag 12 (the counters' answer): [`Request::Metrics`] is the
/// one read of the server's metrics, and a dashboard polls it. The three tags are
/// never reused. An older peer that sends tag 11 or 13 is answered
/// `Malformed`, as minor 2 answered a peer that still sent error tag
/// 39.
pub const PROTO_MINOR: u16 = 5;

/// This build's packed protocol version (`major << 16 | minor`).
#[must_use]
pub fn proto_version() -> u32 {
    (u32::from(PROTO_MAJOR) << 16) | u32::from(PROTO_MINOR)
}

/// Major component of a packed protocol version.
#[must_use]
pub fn proto_major(version: u32) -> u16 {
    (version >> 16) as u16
}

/// Encode a whole payload: the value and nothing else. The reserve
/// holds a DML request or its answer, so the common message costs one
/// allocation where growing from empty cost four.
fn encode_payload<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    value.put(&mut out);
    out
}

wire_enum! {
    /// What a peer is, announced in [`Request::Hello`] and answered in
    /// [`Response::Welcome`]. A server is `Primary` or `Replica`; a
    /// connecting peer is usually `Client`, or `Replica` when the
    /// connection is a follower's WAL subscription.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Role {
        /// An engine that accepts writes.
        Primary = 0,
        /// A replication follower: serves bounded-staleness reads, refuses
        /// writes with [`ErrorCode::NotWritable`] until promoted.
        Replica = 1,
        /// An ordinary client.
        Client = 2,
    }
}

wire_enum! {
    /// Phase of an in-flight build, streamed in
    /// [`Response::Progress`] frames. The engine names the phase of
    /// each stored checkpoint with `oib::progress::BuildProgress::phase`;
    /// `Starting` is sent before the build has stored its first one,
    /// `Done` after its last.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum BuildPhase {
        /// Build accepted; no checkpoint stored yet.
        Starting = 0,
        /// Scanning the table / feeding the external sort.
        Scanning = 1,
        /// Reducing sorted runs (merge passes).
        Reducing = 2,
        /// Bulk-loading the tree from the final merge.
        Loading = 3,
        /// Inserting sorted keys one by one (non-bulk path).
        Inserting = 4,
        /// Draining the side file (§3.2.5, SF only).
        Draining = 5,
        /// Build finished; `IndexCreated` follows.
        Done = 6,
    }
}

/// Histogram summary as carried on the wire: the quantile extract of
/// one named distribution from the server's metrics registry (the full
/// bucket array stays server-side; summaries are what `oib-top` and
/// `perfbench` consume).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSummaryWire {
    /// Observations recorded.
    pub count: u64,
    /// Sum of observations (wrapping).
    pub sum: u64,
    /// Largest observation.
    pub max: u64,
    /// Median estimate.
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

wire_struct! { HistogramSummaryWire { count, sum, max, p50, p90, p99 } }

impl HistogramSummaryWire {
    /// Mean observation (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

wire_enum! {
    /// Everything a client can ask the server to do. [`Request::name`]
    /// is the opcode name in per-opcode latency metrics
    /// (`server.req_us.<opcode>`). A row marked `[may_block]` acquires
    /// engine locks; see [`Request::frame_may_block`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Request {
        /// Liveness / RTT probe.
        Ping = 1,
        /// Open a transaction on this connection's session.
        Begin = 2,
        /// Commit the session's open transaction.
        Commit = 3,
        /// Roll back the session's open transaction.
        Rollback = 4,
        /// Insert a record; auto-commits if no transaction is open.
        Insert = 5 [may_block] {
            /// Target table.
            table: u32,
            /// Column values.
            cols: Vec<i64>,
        },
        /// Replace the record at `rid`.
        Update = 6 [may_block] {
            /// Target table.
            table: u32,
            /// Packed RID (see `Rid::pack`).
            rid: u64,
            /// Replacement column values.
            cols: Vec<i64>,
        },
        /// Delete the record at `rid`.
        Delete = 7 [may_block] {
            /// Target table.
            table: u32,
            /// Packed RID.
            rid: u64,
        },
        /// Read the record at `rid` (no transaction needed).
        Read = 8 [may_block] {
            /// Target table.
            table: u32,
            /// Packed RID.
            rid: u64,
        },
        /// Exact-match probe of an index.
        Lookup = 9 [may_block] {
            /// Target index.
            index: u32,
            /// Order-preserving key bytes (`KeyValue`).
            key: Vec<u8>,
        },
        /// Build one or more indexes online; the server streams
        /// [`Response::Progress`] frames, then [`Response::IndexCreated`].
        /// Tag 10 is this request as peers older than minor 3 send it,
        /// without `options`: read by [`Request::decode`], never sent.
        CreateIndex = 19 [may_block] {
            /// Table to index.
            table: u32,
            /// Build algorithm.
            algo: BuildAlgorithm,
            /// Index definitions (multiple = §5 multi-index single scan).
            specs: Vec<IndexSpec>,
            /// Parallelism / compression / checkpoint tuning.
            options: BuildOptions,
        },
        // Tag 11 is retired (see `PROTO_MINOR`); never reuse it.
        /// The one read of the server's metrics: a snapshot of the
        /// engine's registry, the server's own counters and levels
        /// included, with every histogram cut to its summary. Exempt
        /// from admission, so a saturated server still answers it.
        Metrics = 12,
        // Tag 13 is retired (see `PROTO_MINOR`); never reuse it.
        /// Subscribe this connection to the primary's WAL stream,
        /// starting at `from_lsn`. The connection becomes a tail-following
        /// subscription (it occupies the connection like `CreateIndex`)
        /// carrying [`Response::WalFrame`]s that cover only the *flushed*
        /// prefix of the log. Valid starts are `1 ..= flushed + 1`;
        /// anything else is answered with an error, since those records
        /// either never existed or could still be discarded by a crash.
        SubscribeWal = 14 {
            /// First LSN the subscriber wants (1-based; `applied + 1` on
            /// reconnect).
            from_lsn: u64,
        },
        /// Versioned handshake. Optional and backward-compatible: a peer
        /// that never sends it gets the legacy behaviour. The server
        /// answers [`Response::Welcome`] when the major versions agree and
        /// [`ErrorCode::UnsupportedProto`] otherwise.
        Hello = 15 {
            /// The peer's packed protocol version (see [`proto_version`]).
            proto_version: u32,
            /// What the peer is (informational; traced server-side).
            role: Role,
        },
        /// Promote a replica server to primary: stop its WAL subscription,
        /// roll back any in-flight replicated tail via restart undo, and
        /// open the engine for writes. Only meaningful on a replica's own
        /// socket; a primary answers with an error.
        Promote = 16 [may_block],
        /// Dump the server's span trace ring as JSON lines (one span per
        /// line, newest last). Diagnostic; the ring is bounded, so the
        /// reply is too.
        TraceDump = 17 {
            /// Only events of this trace (0 = every trace) — the bound
            /// that keeps dumps from a busy server readable.
            trace_id: u64,
            /// Only events with sequence number ≥ this (0 = from the
            /// oldest retained), so pollers can fetch increments.
            since_seq: u64,
        },
    }
}

/// Tag of the trace envelope: `[REQ_TRACED][u64 trace id][inner
/// request payload]`. Deliberately *not* a [`Request`] variant — the
/// envelope is transport dressing peeled by [`peel_traced`] before
/// decode, so the opcode table, executor classification and every
/// `match` over requests stay untouched by tracing.
pub const REQ_TRACED: u8 = 18;
/// `CreateIndex` as peers older than minor 3 send it: the tag-19 body
/// without its trailing options.
const REQ_CREATE_INDEX_NO_OPTIONS: u8 = 10;
/// The `TraceDump` row's tag, which minor 0 sent with no body.
const REQ_TRACE_DUMP: u8 = 17;

/// Wrap an encoded request in the trace envelope, attributing it to
/// `trace_id`. The server installs the id as the request's trace
/// context (subject to its sampling rate); a zero id makes the server
/// mint one, same as sending the request bare.
#[must_use]
pub fn encode_traced(trace_id: u64, req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(9);
    out.push(REQ_TRACED);
    trace_id.put(&mut out);
    req.put(&mut out);
    out
}

/// Split a request payload into its optional client-supplied trace id
/// and the inner payload. Non-enveloped payloads pass through as
/// `(None, payload)`; a too-short envelope passes through unchanged
/// and fails request decode as malformed.
#[must_use]
pub fn peel_traced(payload: &[u8]) -> (Option<u64>, &[u8]) {
    let mut c = Cursor::new(payload);
    match (c.get_u8(), u64::get(&mut c)) {
        (Some(REQ_TRACED), Some(id)) => (Some(id), &payload[9..]),
        _ => (None, payload),
    }
}

impl Request {
    /// Encode to a frame payload (tag + body).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        encode_payload(self)
    }

    /// Decode from a frame payload. `None` means malformed.
    ///
    /// The two encodings older peers send that the table does not
    /// describe are read here, ahead of it, and nowhere else; both
    /// re-encode in today's form.
    #[must_use]
    pub fn decode(payload: &[u8]) -> Option<Request> {
        let mut c = Cursor::new(payload);
        let req = match payload {
            // Minor 0: a bodyless dump is everything, from the oldest
            // retained event.
            [REQ_TRACE_DUMP] => {
                c.get_u8()?;
                Request::TraceDump {
                    trace_id: 0,
                    since_seq: 0,
                }
            }
            // Before minor 3: the `CreateIndex` row's body cut before
            // `options`, and no options means the defaults.
            [REQ_CREATE_INDEX_NO_OPTIONS, ..] => {
                c.get_u8()?;
                Request::CreateIndex {
                    table: Wire::get(&mut c)?,
                    algo: Wire::get(&mut c)?,
                    specs: Wire::get(&mut c)?,
                    options: BuildOptions::default(),
                }
            }
            _ => Request::get(&mut c)?,
        };
        c.finish(req)
    }

    /// Can the operation this encoded frame names block on engine
    /// locks? Decided from the opcode byte alone — the `[may_block]`
    /// mark on its row — so an event loop can classify a frame without
    /// decoding it. Lock-acquiring work (DML, reads, index builds) must
    /// not run on a thread that also services `Commit`/`Rollback`:
    /// those release the very locks a waiter may be queued behind, so
    /// stalling them behind a lock wait deadlocks until the wait times
    /// out. Malformed frames are "cannot block" — their error reply is
    /// immediate. The [`REQ_TRACED`] envelope is looked through:
    /// classification follows the inner opcode.
    #[must_use]
    pub fn frame_may_block(payload: &[u8]) -> bool {
        let (_, inner) = peel_traced(payload);
        inner
            .first()
            .is_some_and(|&tag| tag == REQ_CREATE_INDEX_NO_OPTIONS || Request::tag_may_block(tag))
    }
}

wire_enum! {
    /// Structured error classes a [`Response::Err`] carries.
    ///
    /// The first block mirrors [`mohan_common::error::Error`] one-to-one;
    /// the second block is protocol/service-level conditions the engine
    /// itself never raises. Some variants carry data a client is expected
    /// to act on programmatically — the leader to redirect writes to, the
    /// lag that made a read too stale — so the enum is `Clone`, not
    /// `Copy`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum ErrorCode {
        /// [`Error::UniqueViolation`].
        UniqueViolation = 1,
        /// [`Error::LockTimeout`].
        LockTimeout = 2,
        /// [`Error::LockBusy`].
        LockBusy = 3,
        /// [`Error::NotFound`].
        NotFound = 4,
        /// [`Error::PageFull`].
        PageFull = 5,
        /// [`Error::Corruption`].
        Corruption = 6,
        /// [`Error::BuildCancelled`].
        BuildCancelled = 7,
        /// [`Error::InjectedCrash`].
        InjectedCrash = 8,
        /// [`Error::TxNotActive`].
        TxNotActive = 9,
        /// [`Error::NoSuchIndex`].
        NoSuchIndex = 10,
        /// [`Error::IndexNotReadable`].
        IndexNotReadable = 11,
        /// [`Error::NoOpenTx`]: commit/rollback with no open transaction.
        NoOpenTx = 12,
        /// [`Error::TxAlreadyOpen`]: `Begin` while one is already open.
        TxAlreadyOpen = 13,
        /// [`Error::InvalidArg`]: a structurally invalid caller argument
        /// (empty spec list, zero worker count, unknown option).
        InvalidArg = 14 {
            /// What was wrong, for the human behind the statement.
            msg: String,
        },
        /// The request payload failed to decode.
        Malformed = 32,
        /// The request missed its per-request deadline before execution.
        DeadlineExceeded = 33,
        /// The server is draining and no longer accepts new work.
        Draining = 34,
        /// Internal service failure not expressible as an engine error.
        Internal = 35,
        /// The server is a replication follower and refuses writes.
        NotWritable = 36 {
            /// Where writes should go instead (the follower's primary
            /// address); empty when the follower does not know one.
            leader_hint: String,
        },
        /// A follower read was refused because replication lag exceeded
        /// the server's staleness bound (`max_lag_lsn`).
        Stale = 37 {
            /// The lag, in LSNs, at refusal time.
            lag: u64,
        },
        /// The peer's [`Request::Hello`] carried a protocol major version
        /// this server does not speak.
        UnsupportedProto = 38,
        // Tag 39 is retired (see `PROTO_MINOR`); never reuse it.
        /// A `SubscribeWal` asked for records the primary's log no longer
        /// holds: a checkpoint truncated them. Terminal — resubscribing
        /// from the same position gets the same answer; the follower must
        /// be seeded again.
        LogTruncated = 40 {
            /// The lowest LSN the primary's log holds.
            first_lsn: u64,
        },
    }
}

/// Map an engine error to its wire code.
#[must_use]
pub fn error_code_of(e: &Error) -> ErrorCode {
    match e {
        Error::UniqueViolation { .. } => ErrorCode::UniqueViolation,
        Error::LockTimeout { .. } => ErrorCode::LockTimeout,
        Error::LockBusy => ErrorCode::LockBusy,
        Error::NotFound(_) => ErrorCode::NotFound,
        Error::PageFull => ErrorCode::PageFull,
        Error::Corruption(_) | Error::Malformed(_) => ErrorCode::Corruption,
        Error::BuildCancelled => ErrorCode::BuildCancelled,
        Error::InjectedCrash(_) => ErrorCode::InjectedCrash,
        Error::TxNotActive(_) => ErrorCode::TxNotActive,
        Error::NoSuchIndex(_) => ErrorCode::NoSuchIndex,
        Error::IndexNotReadable(_) => ErrorCode::IndexNotReadable,
        Error::NoOpenTx => ErrorCode::NoOpenTx,
        Error::TxAlreadyOpen(_) => ErrorCode::TxAlreadyOpen,
        // The engine doesn't know its primary's address; the server
        // layer substitutes its configured `leader_hint`.
        Error::NotWritable => ErrorCode::NotWritable {
            leader_hint: String::new(),
        },
        Error::ReplicaStale { lag } => ErrorCode::Stale { lag: *lag },
        Error::InvalidArg(msg) => ErrorCode::InvalidArg { msg: msg.clone() },
    }
}

/// Most RIDs one [`Response::Rids`] can carry and still fit
/// [`crate::frame::MAX_FRAME`] (tag + u32 count + 8 bytes per RID).
/// The encoder clamps to it and the decoder refuses a larger count.
pub const MAX_RIDS: usize = (crate::frame::MAX_FRAME - 8) / 8;

/// `Rids.rids` is not its type's `u16`-counted list: a lookup can
/// match more than [`MAX_LIST`] records, so the count is a `u32`,
/// capped at [`MAX_RIDS`] both ways.
mod u32_counted_rids {
    use super::{get_items, put_items, Cursor, Wire, MAX_RIDS};

    pub(super) fn put(rids: &[u64], out: &mut Vec<u8>) {
        let n = rids.len().min(MAX_RIDS);
        (n as u32).put(out);
        put_items(&rids[..n], out);
    }

    pub(super) fn get(c: &mut Cursor<'_>) -> Option<Vec<u64>> {
        let n = u32::get(c)? as usize;
        if n > MAX_RIDS {
            return None;
        }
        get_items(c, n, u64::get)
    }
}

/// `WalFrame.traces` was appended to the frame by minor 1: a frame
/// that ends where the list would start is a minor-0 frame, and
/// carries no tags. Sound only because the field is the row's last.
mod absent_in_minor_0 {
    use super::{put_list, Cursor, Wire};

    pub(super) fn put(traces: &[(u64, u64)], out: &mut Vec<u8>) {
        put_list(traces, out);
    }

    pub(super) fn get(c: &mut Cursor<'_>) -> Option<Vec<(u64, u64)>> {
        if c.remaining() == 0 {
            Some(Vec::new())
        } else {
            Wire::get(c)
        }
    }
}

wire_enum! {
    /// Everything the server can answer with.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Response {
        /// Answer to [`Request::Ping`].
        Pong = 1,
        /// Transaction opened.
        TxBegun = 2 {
            /// Engine transaction id, for observability.
            tx: u64,
        },
        /// Transaction committed (WAL flushed to the commit LSN).
        Committed = 3,
        /// Transaction rolled back.
        RolledBack = 4,
        /// Record inserted.
        Inserted = 5 {
            /// Packed RID of the new record.
            rid: u64,
        },
        /// Record updated in place (or moved; same RID semantics as the
        /// engine's `update_record`).
        Updated = 6,
        /// Record deleted.
        Deleted = 7,
        /// Answer to [`Request::Read`].
        Record = 8 {
            /// Column values.
            cols: Vec<i64>,
        },
        /// Answer to [`Request::Lookup`].
        Rids = 9 {
            /// Packed RIDs of matching records.
            rids: Vec<u64> as u32_counted_rids,
        },
        /// Build progress frame; zero or more precede `IndexCreated`.
        Progress = 10 {
            /// Index being built (0 until the id is known).
            index: u32,
            /// Current phase.
            phase: BuildPhase,
            /// Phase-specific progress figure (records scanned, keys
            /// inserted, side-file drain position, ...).
            detail: u64,
        },
        /// Build finished; terminal frame of a `CreateIndex` exchange.
        IndexCreated = 11 {
            /// Ids of the created indexes, in spec order.
            ids: Vec<u32>,
        },
        // Tag 12 is retired (see `PROTO_MINOR`); never reuse it.
        /// Admission control rejected the request; retry after backoff.
        Busy = 13,
        /// The request failed; terminal frame for its exchange.
        Err = 14 {
            /// Structured class, for programmatic handling.
            code: ErrorCode,
            /// Human-readable detail (the engine error's `Display`).
            message: String,
        },
        /// Metrics snapshot, answer to [`Request::Metrics`].
        Metrics = 15 {
            /// `(name, value)` for every counter and gauge, sorted by
            /// name.
            counters: Vec<(String, u64)>,
            /// `(name, summary)` for every histogram, sorted by name.
            hists: Vec<(String, HistogramSummaryWire)>,
        },
        /// One batch of a [`Request::SubscribeWal`] stream: `count` log
        /// records in contiguous LSN order, encoded with
        /// `mohan_wal::codec` (opaque at this layer — the wire crate only
        /// depends on `mohan-common`). `records` may be empty: frames
        /// double as heartbeats carrying the primary's advancing flushed
        /// LSN, which is what the follower's lag gauge measures against.
        WalFrame = 16 {
            /// The primary's flushed LSN when the frame was cut; every
            /// carried record's LSN is ≤ this.
            flushed: u64,
            /// Number of records in `records`.
            count: u32,
            /// Concatenated record encodings.
            records: Vec<u8>,
            /// `(lsn, trace_id)` tags for carried records that were
            /// appended under a sampled trace — how one trace id follows
            /// a write across the subscription into the follower's apply
            /// path. Sparse: untagged records simply have no entry.
            traces: Vec<(u64, u64)> as absent_in_minor_0,
        },
        /// Answer to an accepted [`Request::Hello`].
        Welcome = 17 {
            /// The server's packed protocol version.
            proto_version: u32,
            /// What the server is right now ([`Role::Primary`] or
            /// [`Role::Replica`]; promotion changes later answers).
            role: Role,
            /// The server's flushed WAL LSN at handshake time — a
            /// freshness reference point for follower reads.
            flushed_lsn: u64,
        },
        /// Answer to a successful [`Request::Promote`]: the replica is now
        /// a primary and accepts writes.
        Promoted = 18 {
            /// Highest LSN the replica had applied when promoted (its new
            /// flushed tail).
            last_lsn: u64,
            /// In-flight transactions rolled back by the restart-undo pass.
            losers_undone: u64,
        },
        /// Answer to [`Request::TraceDump`]: the span trace ring.
        TraceDump = 19 {
            /// JSON-lines dump, one completed span per line.
            jsonl: String,
        },
    }
}

impl Response {
    /// Encode to a frame payload (tag + body).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        encode_payload(self)
    }

    /// Decode from a frame payload. `None` means malformed.
    #[must_use]
    pub fn decode(payload: &[u8]) -> Option<Response> {
        decode(payload)
    }

    /// Build the error response for an engine failure.
    #[must_use]
    pub fn from_error(e: &Error) -> Response {
        Response::Err {
            code: error_code_of(e),
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mohan_common::ids::{IndexId, Rid, TxId};

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Begin,
            Request::Commit,
            Request::Rollback,
            Request::Insert {
                table: 1,
                cols: vec![7, -9, i64::MIN, i64::MAX],
            },
            Request::Update {
                table: 1,
                rid: Rid::new(3, 4).pack(),
                cols: vec![],
            },
            Request::Delete {
                table: 2,
                rid: Rid::new(1, 1).pack(),
            },
            Request::Read { table: 2, rid: 99 },
            Request::Lookup {
                index: 5,
                key: mohan_common::key::KeyValue::from_i64(-1)
                    .as_bytes()
                    .to_vec(),
            },
            Request::CreateIndex {
                table: 1,
                algo: BuildAlgorithm::Sf,
                specs: vec![
                    IndexSpec {
                        name: "ix_k".into(),
                        key_cols: vec![0],
                        unique: true,
                    },
                    IndexSpec {
                        name: "ix_v".into(),
                        key_cols: vec![1, 0],
                        unique: false,
                    },
                ],
                options: BuildOptions::default(),
            },
            Request::CreateIndex {
                table: 1,
                algo: BuildAlgorithm::Sf,
                specs: vec![IndexSpec {
                    name: "ix_k".into(),
                    key_cols: vec![0],
                    unique: true,
                }],
                options: BuildOptions {
                    parallel_workers: 4,
                    compress_runs: true,
                    sort_side_file_drain: Some(false),
                    checkpoint_every: 10_000,
                },
            },
            Request::CreateIndex {
                table: 2,
                algo: BuildAlgorithm::Nsf,
                specs: vec![IndexSpec {
                    name: "ix_v".into(),
                    key_cols: vec![1, 0],
                    unique: false,
                }],
                options: BuildOptions::default(),
            },
            Request::CreateIndex {
                table: 3,
                algo: BuildAlgorithm::Offline,
                specs: vec![],
                options: BuildOptions {
                    parallel_workers: 0,
                    compress_runs: false,
                    sort_side_file_drain: Some(true),
                    checkpoint_every: u32::MAX,
                },
            },
            Request::Metrics,
            Request::SubscribeWal { from_lsn: 1 },
            Request::SubscribeWal {
                from_lsn: u64::MAX - 1,
            },
            // A fixed version, so that a minor bump changes no line.
            Request::Hello {
                proto_version: (1 << 16) | 4,
                role: Role::Client,
            },
            Request::Hello {
                proto_version: (9 << 16) | 3,
                role: Role::Replica,
            },
            Request::Promote,
            Request::TraceDump {
                trace_id: 0,
                since_seq: 0,
            },
            Request::TraceDump {
                trace_id: 0xdead_beef_cafe_f00d,
                since_seq: 42,
            },
        ]
    }

    /// One of every [`ErrorCode`], data-carrying kinds included.
    fn every_error_code() -> Vec<ErrorCode> {
        vec![
            ErrorCode::UniqueViolation,
            ErrorCode::LockTimeout,
            ErrorCode::LockBusy,
            ErrorCode::NotFound,
            ErrorCode::PageFull,
            ErrorCode::Corruption,
            ErrorCode::BuildCancelled,
            ErrorCode::InjectedCrash,
            ErrorCode::TxNotActive,
            ErrorCode::NoSuchIndex,
            ErrorCode::IndexNotReadable,
            ErrorCode::NoOpenTx,
            ErrorCode::TxAlreadyOpen,
            ErrorCode::InvalidArg {
                msg: "no index specs".into(),
            },
            ErrorCode::Malformed,
            ErrorCode::DeadlineExceeded,
            ErrorCode::Draining,
            ErrorCode::Internal,
            ErrorCode::NotWritable {
                leader_hint: "127.0.0.1:4050".into(),
            },
            ErrorCode::Stale { lag: 4096 },
            ErrorCode::UnsupportedProto,
            ErrorCode::LogTruncated { first_lsn: 70_001 },
        ]
    }

    const EVERY_PHASE: [BuildPhase; 7] = [
        BuildPhase::Starting,
        BuildPhase::Scanning,
        BuildPhase::Reducing,
        BuildPhase::Loading,
        BuildPhase::Inserting,
        BuildPhase::Draining,
        BuildPhase::Done,
    ];

    fn sample_responses() -> Vec<Response> {
        let mut all = fixed_sample_responses();
        all.extend(EVERY_PHASE.map(|phase| Response::Progress {
            index: 3,
            phase,
            detail: 1 << 40,
        }));
        all.extend(every_error_code().into_iter().map(|code| Response::Err {
            code,
            message: "why".into(),
        }));
        all
    }

    fn fixed_sample_responses() -> Vec<Response> {
        vec![
            Response::Pong,
            Response::TxBegun { tx: 42 },
            Response::Committed,
            Response::RolledBack,
            Response::Inserted {
                rid: Rid::new(7, 2).pack(),
            },
            Response::Updated,
            Response::Deleted,
            Response::Record {
                cols: vec![1, 2, 3],
            },
            Response::Rids {
                rids: vec![0, u64::MAX, 17],
            },
            Response::Progress {
                index: 9,
                phase: BuildPhase::Draining,
                detail: 12345,
            },
            Response::IndexCreated { ids: vec![9, 10] },
            Response::Metrics {
                counters: vec![("cache.hit".into(), 901), ("cache.miss".into(), 33)],
                hists: vec![
                    (
                        "wal.flush_us".into(),
                        HistogramSummaryWire {
                            count: 120,
                            sum: 99_000,
                            max: 4_000,
                            p50: 700,
                            p90: 1_900,
                            p99: 3_800,
                        },
                    ),
                    (
                        "server.req_us.Insert".into(),
                        HistogramSummaryWire {
                            count: 0,
                            sum: 0,
                            max: 0,
                            p50: 0,
                            p90: 0,
                            p99: 0,
                        },
                    ),
                ],
            },
            Response::WalFrame {
                flushed: 512,
                count: 3,
                records: vec![0xAB, 0xCD, 0xEF, 0x01],
                traces: vec![(510, 0x1111_2222_3333_4444), (512, 0x5555_6666_7777_8888)],
            },
            Response::WalFrame {
                flushed: 512,
                count: 0,
                records: Vec::new(),
                traces: Vec::new(),
            },
            Response::Busy,
            Response::Err {
                code: ErrorCode::LockTimeout,
                message: "tx7 timed out".into(),
            },
            Response::Err {
                code: ErrorCode::NotWritable {
                    leader_hint: "127.0.0.1:4050".into(),
                },
                message: "replica refuses writes".into(),
            },
            Response::Err {
                code: ErrorCode::Stale { lag: 4096 },
                message: "lag over bound".into(),
            },
            Response::Err {
                code: ErrorCode::UnsupportedProto,
                message: "major 9 unsupported".into(),
            },
            Response::Err {
                code: ErrorCode::InvalidArg {
                    msg: "no index specs".into(),
                },
                message: "invalid argument: no index specs".into(),
            },
            Response::Welcome {
                proto_version: (1 << 16) | 4,
                role: Role::Replica,
                flushed_lsn: 7_777,
            },
            Response::Welcome {
                proto_version: 1 << 16,
                role: Role::Primary,
                flushed_lsn: 0,
            },
            Response::Promoted {
                last_lsn: 9_999,
                losers_undone: 3,
            },
            Response::TraceDump {
                jsonl: "{\"name\":\"server.drain\",\"us\":12}\n".into(),
            },
        ]
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The exact bytes of every sample, one line each, recorded from
    /// the build before the message table was introduced. A line that
    /// changes here is a wire-format change: it needs a reason and a
    /// `PROTO_MINOR` history entry, not a regenerated file.
    #[test]
    fn golden_frames() {
        let mut got = Vec::new();
        got.extend(
            sample_requests()
                .iter()
                .map(|r| format!("req  {}", hex(&r.encode()))),
        );
        got.extend(
            sample_responses()
                .iter()
                .map(|r| format!("resp {}", hex(&r.encode()))),
        );
        let want: Vec<&str> = include_str!("golden_frames.txt").lines().collect();
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g, w, "golden_frames.txt line {}", i + 1);
        }
        assert_eq!(got.len(), want.len(), "sample count vs golden lines");
        // A row added to a table without a sample has no golden line.
        let covered =
            |indexes: Vec<usize>, names: &[&str]| (0..names.len()).all(|i| indexes.contains(&i));
        assert!(covered(
            sample_requests().iter().map(Request::index).collect(),
            Request::NAMES
        ));
        assert!(covered(
            sample_responses().iter().map(Response::index).collect(),
            Response::NAMES
        ));
        assert!(covered(
            every_error_code().iter().map(ErrorCode::index).collect(),
            ErrorCode::NAMES
        ));
    }

    /// The encodings older peers send, written out by hand: each still
    /// decodes, and re-encodes in today's form.
    #[test]
    fn legacy_encodings_still_decode() {
        #[rustfmt::skip]
        let tag_10: &[u8] = &[
            10,                     // `CreateIndex` before minor 3
            0, 0, 0, 7,             // table 7
            2,                      // Sf
            0, 1,                   // one spec:
            0, 0, 0, 2, b'i', b'x', //   name "ix"
            0, 2, 0, 1, 0, 0,       //   key columns [1, 0]
            1,                      //   unique
        ];
        let req = Request::CreateIndex {
            table: 7,
            algo: BuildAlgorithm::Sf,
            specs: vec![IndexSpec {
                name: "ix".into(),
                key_cols: vec![1, 0],
                unique: true,
            }],
            options: BuildOptions::default(),
        };
        assert_eq!(Request::decode(tag_10), Some(req.clone()));
        assert!(Request::frame_may_block(tag_10));
        assert_eq!(req.encode()[0], 19);
        assert_eq!(Request::decode(&req.encode()), Some(req));
        // The old tag is as strict as the table's rows.
        for cut in 0..tag_10.len() {
            assert_eq!(Request::decode(&tag_10[..cut]), None, "cut {cut}");
        }
        let mut trailing = tag_10.to_vec();
        trailing.push(0);
        assert_eq!(Request::decode(&trailing), None);

        let dump = Request::TraceDump {
            trace_id: 0,
            since_seq: 0,
        };
        assert_eq!(Request::decode(&[17]), Some(dump.clone()));
        assert_eq!(dump.encode().len(), 17);

        #[rustfmt::skip]
        let minor_0_frame: &[u8] = &[
            16,                      // `WalFrame`
            0, 0, 0, 0, 0, 0, 2, 0,  // flushed 512
            0, 0, 0, 1,              // one record,
            0, 0, 0, 2, 0xAB, 0xCD,  // two bytes long
        ]; // and no trace-tag list
        let frame = Response::WalFrame {
            flushed: 512,
            count: 1,
            records: vec![0xAB, 0xCD],
            traces: vec![],
        };
        assert_eq!(Response::decode(minor_0_frame), Some(frame.clone()));
        let mut canonical = minor_0_frame.to_vec();
        canonical.extend_from_slice(&[0, 0]);
        assert_eq!(frame.encode(), canonical);

        // Error code 39 is retired: a minor-2..4 primary's
        // `SubscriptionLagged { retained_from: 88_001 }` is malformed.
        #[rustfmt::skip]
        let tag_39: &[u8] = &[
            14, 39,                         // `Err`, code 39
            0, 0, 0, 0, 0, 1, 0x57, 0xC1,   // retained_from 88 001
            0, 0, 0, 3, b'w', b'h', b'y',   // message "why"
        ];
        assert_eq!(Response::decode(tag_39), None);
    }

    #[test]
    fn request_roundtrip_all_variants() {
        for req in sample_requests() {
            let bytes = req.encode();
            assert_eq!(Request::decode(&bytes), Some(req));
        }
    }

    #[test]
    fn response_roundtrip_all_variants() {
        for resp in sample_responses() {
            let bytes = resp.encode();
            assert_eq!(Response::decode(&bytes), Some(resp));
        }
    }

    /// Is the `cut`-byte prefix of `full` exactly a valid minor-0
    /// encoding that minor 1 deliberately still accepts? Two exist: a
    /// bodyless `TraceDump` (just the tag) and a `WalFrame` cut right
    /// before the appended trace-tag list.
    fn legacy_prefix_request(full: &Request, cut: usize) -> Option<Request> {
        match full {
            Request::TraceDump { .. } if cut == 1 => Some(Request::TraceDump {
                trace_id: 0,
                since_seq: 0,
            }),
            _ => None,
        }
    }

    fn legacy_prefix_response(full: &Response, cut: usize) -> Option<Response> {
        match full {
            Response::WalFrame {
                flushed,
                count,
                records,
                ..
            } if cut == 1 + 8 + 4 + 4 + records.len() => Some(Response::WalFrame {
                flushed: *flushed,
                count: *count,
                records: records.clone(),
                traces: Vec::new(),
            }),
            _ => None,
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        for req in sample_requests() {
            let bytes = req.encode();
            for cut in 0..bytes.len() {
                assert_eq!(
                    Request::decode(&bytes[..cut]),
                    legacy_prefix_request(&req, cut),
                    "{req:?} cut {cut}"
                );
            }
        }
        for resp in sample_responses() {
            let bytes = resp.encode();
            for cut in 0..bytes.len() {
                assert_eq!(
                    Response::decode(&bytes[..cut]),
                    legacy_prefix_response(&resp, cut),
                    "{resp:?} cut {cut}"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Request::Ping.encode();
        bytes.push(0);
        assert_eq!(Request::decode(&bytes), None);
        let mut bytes = Response::Committed.encode();
        bytes.push(0);
        assert_eq!(Response::decode(&bytes), None);
    }

    #[test]
    fn overlong_list_clamps_instead_of_wrapping_count() {
        // `as u16` used to wrap the count to 3 while still emitting
        // every element, which the peer rejected as trailing bytes.
        let resp = Response::Record {
            cols: vec![7; MAX_LIST + 3],
        };
        match Response::decode(&resp.encode()).expect("frame stays well-formed") {
            Response::Record { cols } => {
                assert_eq!(cols.len(), MAX_LIST);
                assert!(cols.iter().all(|&v| v == 7));
            }
            other => panic!("expected Record, got {other:?}"),
        }
    }

    /// Minor 5 retired request tags 11 and 13 and response tag 12: each,
    /// as an older peer sends it, is malformed.
    #[test]
    fn retired_tags_decode_to_none() {
        assert_eq!(Request::decode(&[11]), None);
        assert_eq!(Request::decode(&[13, 0, 0, 0, 250]), None);
        #[rustfmt::skip]
        let stats: &[u8] = &[
            12,                                       // retired
            0, 1,                                     // one counter:
            0, 0, 0, 1, b'x',                         //   "x"
            0, 0, 0, 0, 0, 0, 0, 7,                   //   7
        ];
        assert_eq!(Response::decode(stats), None);
        assert!(!Request::frame_may_block(&[11]));
        assert!(!Request::frame_may_block(&[13, 0, 0, 0, 250]));
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert_eq!(Request::decode(&[0xEE]), None);
        assert_eq!(Response::decode(&[0xEE]), None);
        assert_eq!(Request::decode(&[]), None);
    }

    #[test]
    fn frame_may_block_splits_acquirers_from_releasers() {
        let blocking = [
            Request::Insert {
                table: 1,
                cols: vec![1],
            },
            Request::Update {
                table: 1,
                rid: 0,
                cols: vec![1],
            },
            Request::Delete { table: 1, rid: 0 },
            Request::Read { table: 1, rid: 0 },
            Request::Lookup {
                index: 1,
                key: vec![0],
            },
            Request::CreateIndex {
                table: 1,
                algo: BuildAlgorithm::Sf,
                specs: vec![],
                options: BuildOptions::default(),
            },
            Request::Promote,
        ];
        for r in blocking {
            assert!(Request::frame_may_block(&r.encode()), "{r:?}");
        }
        let inline = [
            Request::Ping,
            Request::Begin,
            Request::Commit,
            Request::Rollback,
            Request::Metrics,
            Request::SubscribeWal { from_lsn: 0 },
            Request::Hello {
                proto_version: 1,
                role: Role::Primary,
            },
            Request::TraceDump {
                trace_id: 0,
                since_seq: 0,
            },
        ];
        for r in inline {
            assert!(!Request::frame_may_block(&r.encode()), "{r:?}");
        }
        // Malformed frames get an immediate error reply: inline.
        assert!(!Request::frame_may_block(&[]));
        assert!(!Request::frame_may_block(&[0xEE]));
        // The trace envelope is transparent to classification.
        let ins = Request::Insert {
            table: 1,
            cols: vec![1],
        };
        assert!(Request::frame_may_block(&encode_traced(7, &ins)));
        assert!(!Request::frame_may_block(&encode_traced(7, &Request::Ping)));
        // A truncated envelope is malformed, hence inline.
        assert!(!Request::frame_may_block(&[REQ_TRACED, 0, 0]));
    }

    #[test]
    fn trace_envelope_peels_and_inner_roundtrips() {
        let req = Request::CreateIndex {
            table: 3,
            algo: BuildAlgorithm::Sf,
            specs: vec![IndexSpec {
                name: "ix".into(),
                key_cols: vec![0],
                unique: false,
            }],
            options: BuildOptions::default(),
        };
        let framed = encode_traced(0xfeed_face_0123_4567, &req);
        let (id, inner) = peel_traced(&framed);
        assert_eq!(id, Some(0xfeed_face_0123_4567));
        assert_eq!(Request::decode(inner), Some(req.clone()));
        // Bare payloads pass through untouched.
        let bare = req.encode();
        let (id, inner) = peel_traced(&bare);
        assert_eq!(id, None);
        assert_eq!(inner, &bare[..]);
        // The envelope tag is not a decodable request on its own, and
        // a short envelope stays malformed after the peel.
        assert_eq!(Request::decode(&framed), None);
        let (id, inner) = peel_traced(&[REQ_TRACED, 1, 2]);
        assert_eq!(id, None);
        assert_eq!(Request::decode(inner), None);
        // An envelope around garbage: peeled id, inner still rejected.
        let mut bad = vec![REQ_TRACED];
        bad.extend_from_slice(&7u64.to_be_bytes());
        bad.push(0xEE);
        let (id, inner) = peel_traced(&bad);
        assert_eq!(id, Some(7));
        assert_eq!(Request::decode(inner), None);
    }

    #[test]
    fn error_code_mapping_covers_engine_errors() {
        let cases: Vec<(Error, ErrorCode)> = vec![
            (
                Error::UniqueViolation {
                    index: IndexId(1),
                    existing: Rid::new(1, 1),
                },
                ErrorCode::UniqueViolation,
            ),
            (
                Error::LockTimeout {
                    tx: TxId(1),
                    name: "rec".into(),
                },
                ErrorCode::LockTimeout,
            ),
            (Error::LockBusy, ErrorCode::LockBusy),
            (Error::NotFound("x".into()), ErrorCode::NotFound),
            (Error::PageFull, ErrorCode::PageFull),
            (Error::Corruption("c".into()), ErrorCode::Corruption),
            (Error::BuildCancelled, ErrorCode::BuildCancelled),
            (Error::InjectedCrash("site"), ErrorCode::InjectedCrash),
            (Error::TxNotActive(TxId(3)), ErrorCode::TxNotActive),
            (Error::NoSuchIndex(IndexId(4)), ErrorCode::NoSuchIndex),
            (
                Error::IndexNotReadable(IndexId(5)),
                ErrorCode::IndexNotReadable,
            ),
            (Error::NoOpenTx, ErrorCode::NoOpenTx),
            (Error::TxAlreadyOpen(TxId(9)), ErrorCode::TxAlreadyOpen),
            (
                Error::NotWritable,
                ErrorCode::NotWritable {
                    leader_hint: String::new(),
                },
            ),
            (
                Error::ReplicaStale { lag: 512 },
                ErrorCode::Stale { lag: 512 },
            ),
            (
                Error::InvalidArg("no index specs".into()),
                ErrorCode::InvalidArg {
                    msg: "no index specs".into(),
                },
            ),
        ];
        for (err, code) in cases {
            assert_eq!(error_code_of(&err), code, "{err:?}");
            // And the wire response carries the display text through.
            let resp = Response::from_error(&err);
            let decoded = Response::decode(&resp.encode()).unwrap();
            match decoded {
                Response::Err { code: c, message } => {
                    assert_eq!(c, code);
                    assert_eq!(message, err.to_string());
                }
                other => panic!("expected Err, got {other:?}"),
            }
        }
    }

    // ---- fuzzing: untrusted bytes in, well-formed values round ----

    use proptest::prelude::*;

    /// Raw material for one arbitrary message: which sample to start
    /// from and the values to overwrite its fields with.
    type Parts = (usize, u32, u64, Vec<i64>, (Vec<u8>, String, bool));

    fn arb_parts() -> impl Strategy<Value = Parts> {
        (
            any::<usize>(),
            any::<u32>(),
            any::<u64>(),
            prop::collection::vec(any::<i64>(), 0..6),
            (
                prop::collection::vec(any::<u8>(), 0..12),
                ".{0,10}",
                any::<bool>(),
            ),
        )
    }

    fn arb_specs(cols: &[i64], bytes: &[u8], text: &str, flag: bool) -> Vec<IndexSpec> {
        (0..bytes.len() % 3)
            .map(|i| IndexSpec {
                name: format!("{text}{i}"),
                key_cols: cols.iter().map(|&c| c as u16).collect(),
                unique: flag,
            })
            .collect()
    }

    /// A sample request with every field overwritten from `parts`.
    fn arb_request((pick, a, b, cols, (bytes, text, flag)): Parts) -> Request {
        let samples = sample_requests();
        match samples[pick % samples.len()].clone() {
            Request::Insert { .. } => Request::Insert { table: a, cols },
            Request::Update { .. } => Request::Update {
                table: a,
                rid: b,
                cols,
            },
            Request::Delete { .. } => Request::Delete { table: a, rid: b },
            Request::Read { .. } => Request::Read { table: a, rid: b },
            Request::Lookup { .. } => Request::Lookup {
                index: a,
                key: bytes,
            },
            Request::CreateIndex { algo, .. } => Request::CreateIndex {
                table: a,
                algo,
                specs: arb_specs(&cols, &bytes, &text, flag),
                options: BuildOptions {
                    parallel_workers: b as u16,
                    compress_runs: flag,
                    sort_side_file_drain: [None, Some(false), Some(true)][bytes.len() % 3],
                    checkpoint_every: a,
                },
            },
            Request::SubscribeWal { .. } => Request::SubscribeWal { from_lsn: b },
            Request::Hello { role, .. } => Request::Hello {
                proto_version: a,
                role,
            },
            Request::TraceDump { .. } => Request::TraceDump {
                trace_id: b,
                since_seq: u64::from(a),
            },
            bodyless => bodyless,
        }
    }

    /// A sample response with every field overwritten from `parts`.
    fn arb_response((pick, a, b, cols, (bytes, text, flag)): Parts) -> Response {
        let samples = sample_responses();
        let named =
            |n: usize| -> Vec<String> { (0..n % 4).map(|i| format!("{text}.{i}")).collect() };
        match samples[pick % samples.len()].clone() {
            Response::TxBegun { .. } => Response::TxBegun { tx: b },
            Response::Inserted { .. } => Response::Inserted { rid: b },
            Response::Record { .. } => Response::Record { cols },
            Response::Rids { .. } => Response::Rids {
                rids: cols.iter().map(|&c| c as u64).collect(),
            },
            Response::Progress { phase, .. } => Response::Progress {
                index: a,
                phase,
                detail: b,
            },
            Response::IndexCreated { .. } => Response::IndexCreated {
                ids: bytes.iter().map(|&x| u32::from(x) ^ a).collect(),
            },
            Response::Metrics { .. } => Response::Metrics {
                counters: named(cols.len()).into_iter().map(|n| (n, b)).collect(),
                hists: named(bytes.len())
                    .into_iter()
                    .map(|n| {
                        let h = HistogramSummaryWire {
                            count: b,
                            sum: u64::from(a),
                            max: b ^ 1,
                            p50: 1,
                            p90: 2,
                            p99: b >> 1,
                        };
                        (n, h)
                    })
                    .collect(),
            },
            Response::WalFrame { .. } => Response::WalFrame {
                flushed: b,
                count: a,
                records: bytes,
                traces: cols.iter().map(|&c| (c as u64, b)).collect(),
            },
            Response::Err { code, .. } => Response::Err {
                code: match code {
                    ErrorCode::InvalidArg { .. } => ErrorCode::InvalidArg { msg: text.clone() },
                    ErrorCode::NotWritable { .. } => ErrorCode::NotWritable {
                        leader_hint: text.clone(),
                    },
                    ErrorCode::Stale { .. } => ErrorCode::Stale { lag: b },
                    ErrorCode::LogTruncated { .. } => ErrorCode::LogTruncated { first_lsn: b },
                    bodyless => bodyless,
                },
                message: if flag {
                    format!("{text} — naïve")
                } else {
                    text
                },
            },
            Response::Welcome { role, .. } => Response::Welcome {
                proto_version: a,
                role,
                flushed_lsn: b,
            },
            Response::Promoted { .. } => Response::Promoted {
                last_lsn: b,
                losers_undone: u64::from(a),
            },
            Response::TraceDump { .. } => Response::TraceDump { jsonl: text },
            bodyless => bodyless,
        }
    }

    /// Bytes a hostile or broken peer could send: pure noise, or — so
    /// that decoders get past the tag byte — a well-formed encoding
    /// with a few bytes overwritten and its tail cut or extended.
    fn arb_frame(encodings: Vec<Vec<u8>>) -> impl Strategy<Value = Vec<u8>> {
        let damaged = (
            any::<usize>(),
            prop::collection::vec((any::<usize>(), any::<u8>()), 0..4),
            0..=12usize,
        )
            .prop_map(move |(pick, edits, tail)| {
                let mut bytes = encodings[pick % encodings.len()].clone();
                for (at, byte) in edits {
                    let len = bytes.len();
                    bytes[at % len] = byte;
                }
                match tail {
                    0..=7 => {}
                    8..=9 => bytes.truncate(bytes.len() - bytes.len().min(tail - 7)),
                    _ => bytes.extend(std::iter::repeat_n(0xA5, tail - 9)),
                }
                bytes
            });
        prop_oneof![
            1 => prop::collection::vec(any::<u8>(), 0..48),
            3 => damaged,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2000, ..ProptestConfig::default() })]

        #[test]
        fn well_formed_requests_roundtrip(parts in arb_parts()) {
            let req = arb_request(parts);
            prop_assert_eq!(Request::decode(&req.encode()), Some(req.clone()));
            let traced = encode_traced(7, &req);
            let (id, inner) = peel_traced(&traced);
            prop_assert_eq!(id, Some(7));
            prop_assert_eq!(Request::decode(inner), Some(req));
        }

        #[test]
        fn well_formed_responses_roundtrip(parts in arb_parts()) {
            let resp = arb_response(parts);
            prop_assert_eq!(Response::decode(&resp.encode()), Some(resp));
        }

        #[test]
        fn request_decoders_survive_any_bytes(
            bytes in arb_frame(sample_requests().iter().map(Request::encode).collect()),
            enveloped in any::<bool>()
        ) {
            let mut frame = bytes;
            if enveloped {
                frame.insert(0, REQ_TRACED);
            }
            let _ = Request::frame_may_block(&frame);
            let (_, inner) = peel_traced(&frame);
            // Whatever decodes re-encodes to something that decodes to
            // the same value: the legacy forms canonicalise, nothing
            // else changes.
            if let Some(req) = Request::decode(inner) {
                prop_assert_eq!(Request::decode(&req.encode()), Some(req));
            }
        }

        #[test]
        fn response_decoder_survives_any_bytes(
            bytes in arb_frame(sample_responses().iter().map(Response::encode).collect())
        ) {
            if let Some(resp) = Response::decode(&bytes) {
                prop_assert_eq!(Response::decode(&resp.encode()), Some(resp));
            }
        }
    }
}
