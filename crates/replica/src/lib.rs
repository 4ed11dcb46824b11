//! WAL stream replication follower, with reads and promotion.
//!
//! A [`Replica`] tails a primary's log over the wire
//! (`SubscribeWal`) and replays every redoable record into its own
//! engine through the same `RecoveryTarget` redo path ARIES restart
//! uses — replication *is* continuous recovery, run against a live
//! log instead of a dead one.
//!
//! Two invariants carry the whole design:
//!
//! * **Flushed-prefix-only.** The primary ships nothing beyond its
//!   flushed LSN, so the follower can never apply state the primary
//!   would not itself recover after a crash. Crash epochs fall out
//!   for free: the unflushed suffix the primary discards was never
//!   sent, and the LSNs it reuses reach the follower as fresh
//!   records.
//! * **Contiguous apply.** Records are applied strictly in LSN order
//!   with no gaps. A frame that skips ahead (or repeats) makes the
//!   follower drop the connection and resubscribe from
//!   `applied + 1`, which the server validates against its flushed
//!   tail — reconnect is always safe because `applied` only advances
//!   over records the primary has durably flushed.
//!
//! The follower is two threads. The *receive* thread owns the
//! subscription socket: it checks contiguity, publishes the primary's
//! flushed LSN, and enqueues record batches on a bounded queue (its
//! depth is the `repl.queue_depth` gauge; a full queue blocks the
//! receive thread, which turns into TCP backpressure on the primary).
//! The *apply* thread drains the queue: each record is first
//! **mirrored into the follower's own log** — the bytes the primary
//! shipped are stored as they are (`LogManager::append_encoded`); the
//! log allocates LSNs sequentially, so in-order mirroring reproduces
//! the primary's LSNs exactly, and a mismatch means divergence and
//! stalls the apply — then redone, then the batch is made durable with
//! one `flush_to` per frame. Mirroring is what makes [`Replica::promote`]
//! possible: promotion stops the stream and runs ordinary ARIES
//! restart over the mirrored log, so the undo pass rolls back
//! whatever transactions were still in flight on the dead primary.
//!
//! Index DDL rides the same stream as `CatalogUpdate` snapshot
//! records; the engine applies them while `Db::is_replica()` holds
//! (see `mohan_oib`).

#![warn(missing_docs)]

use mohan_client::{Client, ClientError, ErrorCode};
use mohan_common::stats::Counter;
use mohan_common::{Error, IndexId, KeyValue, Lsn, ReadApi, Result, Rid, TableId};
use mohan_obs::Histogram;
use mohan_oib::Db;
use mohan_wal::{decode_record, LogRecord, RecoveryTarget};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Reconnect backoff bounds (exponential between them, reset after
/// any successfully received frame).
const BACKOFF_MIN: Duration = Duration::from_millis(50);
const BACKOFF_MAX: Duration = Duration::from_secs(2);

/// Read timeout on the subscription socket. The primary heartbeats
/// every ~200ms, so silence this long means the connection is gone.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Apply-queue bound in records. A receive thread that gets this far
/// ahead of the apply thread stops reading the socket, which
/// backpressures the primary through TCP instead of growing memory.
const QUEUE_MAX: u64 = 8192;

/// Poll interval for the queue and the catch-up/drain waits.
const POLL: Duration = Duration::from_millis(1);

/// Follower life-cycle states (`state` field).
const STATE_FOLLOWING: u8 = 0;
const STATE_PROMOTING: u8 = 1;
const STATE_PROMOTED: u8 = 2;

/// What [`Replica::promote`] reports back.
#[derive(Debug, Clone, Copy)]
pub struct PromotionReport {
    /// The new primary's log tail after restart (mirrored records
    /// plus the CLRs the undo pass appended).
    pub last_lsn: Lsn,
    /// In-flight transactions of the old primary rolled back by the
    /// restart-undo pass.
    pub losers_undone: u64,
    /// Wall-clock time from the promote call to the engine accepting
    /// writes.
    pub downtime: Duration,
}

/// One received frame: its record bytes as shipped, each record
/// decoded once (for the contiguity check and for redo) with the
/// offset its bytes end at, and the frame's trace tags (`(lsn,
/// trace_id)` pairs for the sampled traces covering them).
struct Frame {
    bytes: Vec<u8>,
    records: Vec<(LogRecord, usize)>,
    traces: Vec<(u64, u64)>,
}

impl Frame {
    /// Decode exactly `count` records from `bytes`; `None` if any is
    /// malformed or bytes are left over.
    fn decode(bytes: Vec<u8>, count: u32, traces: Vec<(u64, u64)>) -> Option<Frame> {
        let mut pos = 0;
        let mut records = Vec::with_capacity((count as usize).min(4096));
        for _ in 0..count {
            let rec = decode_record(&bytes, &mut pos)?;
            records.push((rec, pos));
        }
        (pos == bytes.len()).then_some(Frame {
            bytes,
            records,
            traces,
        })
    }
}

/// A replication follower: owns the local engine's apply position,
/// the reconnect loop, and the promotion state machine.
pub struct Replica {
    db: Arc<Db>,
    addr: Mutex<String>,
    /// Highest LSN applied locally; the resubscribe point is
    /// `applied + 1`.
    applied: AtomicU64,
    /// The primary's flushed LSN as of the last frame (heartbeats
    /// advance it even when no records flow).
    primary_flushed: AtomicU64,
    reconnects: AtomicU64,
    /// Times the primary cut this follower loose
    /// (`ErrorCode::SubscriptionLagged`) for falling behind its
    /// broadcast window. Each one resubscribes immediately from
    /// `applied + 1` — the position is still trusted, only the
    /// stream was dropped.
    cut_loose: AtomicU64,
    apply_errors: AtomicU64,
    stop: AtomicBool,
    /// A frame was received since the last disconnect (resets backoff).
    progressed: AtomicBool,
    /// Received-but-unapplied record batches, each with the frame's
    /// trace tags (`(lsn, trace_id)` pairs). `queued_records` is the
    /// total record count across them; both are only updated with the
    /// queue lock held so clear-and-stall can never interleave with an
    /// enqueue.
    queue: Mutex<VecDeque<Frame>>,
    queued_records: AtomicU64,
    /// Held for the duration of each frame's apply. Promotion takes it
    /// to wait out (and then exclude) the apply thread without joining
    /// anything — the subscription socket can take seconds to notice a
    /// dead primary, and promotion must not wait on that.
    apply_gate: Mutex<()>,
    /// The apply thread hit an error: the receive thread must drop the
    /// connection and resubscribe from `applied + 1`.
    apply_stalled: AtomicBool,
    /// When the last frame (including heartbeats) arrived; the
    /// `--promote-on-disconnect` watchdog reads this.
    last_frame: Mutex<Instant>,
    state: AtomicU8,
    batch_us: Arc<Histogram>,
    apply_us: Arc<Histogram>,
}

impl Replica {
    /// Create a follower replaying into `db` from the primary at
    /// `addr`. `db` must have been built with
    /// `EngineConfig::replica = true`, or shipped index DDL
    /// (`CatalogUpdate` records) would be silently dropped.
    ///
    /// Registers the follower's gauges and histograms on the engine's
    /// registry: `repl.lag_lsn`, `repl.applied_lsn`,
    /// `repl.primary_flushed_lsn`, `repl.queue_depth`,
    /// `repl.reconnects`, `repl.cut_loose`, `repl.apply_errors`,
    /// `repl.batch_us`, `repl.apply_us`.
    #[must_use]
    pub fn new(db: Arc<Db>, addr: &str) -> Arc<Replica> {
        assert!(
            db.cfg.replica,
            "Replica requires EngineConfig::replica = true"
        );
        let batch_us = db.obs.histogram("repl.batch_us");
        let apply_us = db.obs.histogram("repl.apply_us");
        let r = Arc::new(Replica {
            db,
            addr: Mutex::new(addr.to_owned()),
            applied: AtomicU64::new(0),
            primary_flushed: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            cut_loose: AtomicU64::new(0),
            apply_errors: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            progressed: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::new()),
            queued_records: AtomicU64::new(0),
            apply_gate: Mutex::new(()),
            apply_stalled: AtomicBool::new(false),
            last_frame: Mutex::new(Instant::now()),
            state: AtomicU8::new(STATE_FOLLOWING),
            batch_us,
            apply_us,
        });
        let gauge = |name: &str, f: fn(&Replica) -> u64| {
            let w = Arc::downgrade(&r);
            r.db.obs
                .gauge_fn(name, move || w.upgrade().map_or(0, |r| f(&r)));
        };
        gauge("repl.lag_lsn", Replica::lag);
        gauge("repl.applied_lsn", |r| r.applied_lsn().0);
        gauge("repl.primary_flushed_lsn", |r| r.primary_flushed().0);
        gauge("repl.queue_depth", |r| {
            r.queued_records.load(Ordering::Relaxed)
        });
        gauge("repl.reconnects", Replica::reconnects);
        gauge("repl.cut_loose", Replica::cut_loose_count);
        gauge("repl.apply_errors", |r| {
            r.apply_errors.load(Ordering::Relaxed)
        });
        r
    }

    /// The engine this follower replays into.
    #[must_use]
    pub fn db(&self) -> &Arc<Db> {
        &self.db
    }

    /// Point the reconnect loop at a different primary address (the
    /// next (re)connect uses it).
    pub fn set_addr(&self, addr: &str) {
        *self.addr.lock() = addr.to_owned();
    }

    /// The primary address the reconnect loop currently targets.
    #[must_use]
    pub fn addr(&self) -> String {
        self.addr.lock().clone()
    }

    /// Highest LSN applied locally.
    #[must_use]
    pub fn applied_lsn(&self) -> Lsn {
        Lsn(self.applied.load(Ordering::Acquire))
    }

    /// The primary's flushed LSN as of the last received frame.
    #[must_use]
    pub fn primary_flushed(&self) -> Lsn {
        Lsn(self.primary_flushed.load(Ordering::Acquire))
    }

    /// Replication lag in LSNs (primary's flushed tail − applied).
    #[must_use]
    pub fn lag(&self) -> u64 {
        self.primary_flushed()
            .0
            .saturating_sub(self.applied_lsn().0)
    }

    /// Times the follower re-entered the connect loop after a
    /// disconnect or failed attempt.
    #[must_use]
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// Times the primary cut this follower loose for falling behind
    /// its broadcast window.
    #[must_use]
    pub fn cut_loose_count(&self) -> u64 {
        self.cut_loose.load(Ordering::Relaxed)
    }

    /// How long since the last frame (heartbeats included) arrived
    /// from the primary. The `--promote-on-disconnect` watchdog
    /// promotes when this exceeds its threshold.
    #[must_use]
    pub fn last_frame_elapsed(&self) -> Duration {
        self.last_frame.lock().elapsed()
    }

    /// True once [`Replica::promote`] has completed.
    #[must_use]
    pub fn is_promoted(&self) -> bool {
        self.state.load(Ordering::Acquire) == STATE_PROMOTED
    }

    /// Ask the loops to exit. The receive thread notices on the next
    /// frame (heartbeats arrive every ~200ms) or connect attempt; the
    /// apply thread drains its queue and exits.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// Run the subscribe/apply/reconnect machinery until
    /// [`Replica::stop`]. The calling thread becomes the receive loop;
    /// the apply loop runs on a thread this spawns and joins.
    pub fn run(self: &Arc<Replica>) {
        let apply = {
            let me = Arc::clone(self);
            std::thread::Builder::new()
                .name("oib-replica-apply".into())
                .spawn(move || me.apply_loop())
                .expect("spawn replica apply thread")
        };
        let mut backoff = BACKOFF_MIN;
        while !self.stop.load(Ordering::Acquire) {
            // Never resubscribe with batches still queued: the
            // resubscribe point is `applied + 1`, which only reflects
            // reality once the apply thread has drained.
            if self.queued_records.load(Ordering::Acquire) > 0 {
                std::thread::sleep(POLL);
                continue;
            }
            self.apply_stalled.store(false, Ordering::Release);
            let addr = self.addr.lock().clone();
            let outcome = Client::connect(&addr).and_then(|client| {
                client.set_read_timeout(Some(READ_TIMEOUT))?;
                let from = self.applied.load(Ordering::Acquire) + 1;
                self.db
                    .obs
                    .trace()
                    .event("repl.subscribe", addr.clone(), from);
                let me = Arc::clone(self);
                let mut expected = from;
                client.subscribe_wal_raw(from, move |flushed, count, bytes, traces| {
                    let frame = Frame::decode(bytes, count, traces)
                        .ok_or_else(|| ClientError::Protocol("undecodable WAL records".into()))?;
                    Ok(me.on_frame(flushed, frame, &mut expected))
                })
            });
            if self.stop.load(Ordering::Acquire) {
                break;
            }
            let mut immediate = false;
            match outcome {
                // `on_frame` returned false: stop, stall, backpressure
                // abort or a gap — all roads lead to resubscribing.
                Ok(()) => {}
                Err(ClientError::Server {
                    code: ErrorCode::SubscriptionLagged { retained_from },
                    ..
                }) => {
                    // Deliberate cut-loose, not a failure: the primary
                    // dropped the stream because this cursor fell out
                    // of its broadcast window. `applied + 1` is still a
                    // trusted position — resubscribe right away and let
                    // the primary's catch-up scans walk us back into
                    // the window.
                    self.cut_loose.fetch_add(1, Ordering::Relaxed);
                    self.db
                        .obs
                        .trace()
                        .event("repl.cut_loose", "resubscribing", retained_from);
                    immediate = true;
                }
                Err(e) => {
                    self.db
                        .obs
                        .trace()
                        .event("repl.disconnect", e.to_string(), 0);
                }
            }
            if immediate || self.progressed.swap(false, Ordering::AcqRel) {
                backoff = BACKOFF_MIN;
            }
            self.reconnects.fetch_add(1, Ordering::Relaxed);
            if !immediate {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(BACKOFF_MAX);
            }
        }
        let _ = apply.join();
    }

    /// [`Replica::run`] on its own thread.
    pub fn spawn(self: &Arc<Replica>) -> JoinHandle<()> {
        let me = Arc::clone(self);
        std::thread::Builder::new()
            .name("oib-replica".into())
            .spawn(move || me.run())
            .expect("spawn replica thread")
    }

    /// Block until the follower has applied everything up to `target`
    /// (inclusive). Returns false on timeout.
    #[must_use]
    pub fn wait_caught_up(&self, target: Lsn, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.applied_lsn() < target {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        true
    }

    /// Promote this follower to primary.
    ///
    /// The sequence: leave the `FOLLOWING` state (exactly one caller
    /// wins), stop the receive loop, take the apply gate — which waits
    /// out at most one in-flight frame, never the multi-second socket
    /// timeout — discard the received-but-unapplied tail, then run
    /// ordinary ARIES restart over the mirrored log. Redo is
    /// idempotent against the already-applied pages; the undo pass
    /// rolls back the old primary's in-flight transactions with CLRs.
    /// Finally the engine's dynamic role flips and writes are
    /// accepted.
    ///
    /// Discarding the queued tail is sound for the same reason a crash
    /// is: those records were never applied, so they are the exact
    /// analogue of the unflushed suffix a crashed primary forgets.
    ///
    /// # Errors
    /// A `String` description when promotion has already run (or is
    /// running), or when the restart pass fails — the latter leaves
    /// the follower stopped but unpromoted.
    pub fn promote(&self) -> std::result::Result<PromotionReport, String> {
        if self
            .state
            .compare_exchange(
                STATE_FOLLOWING,
                STATE_PROMOTING,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_err()
        {
            return Err("promotion already started or completed".into());
        }
        let started = Instant::now();
        self.db.obs.trace().event(
            "repl.promote_begin",
            self.addr.lock().clone(),
            self.applied_lsn().0,
        );
        self.stop.store(true, Ordering::Release);
        let _gate = self.apply_gate.lock();
        {
            let mut q = self.queue.lock();
            let dropped = self.queued_records.load(Ordering::Acquire);
            q.clear();
            self.queued_records.store(0, Ordering::Release);
            if dropped > 0 {
                self.db.obs.trace().event(
                    "repl.promote_discard_tail",
                    "unapplied records",
                    dropped,
                );
            }
        }
        let stats = self
            .db
            .promote_to_primary()
            .map_err(|e| format!("promotion restart failed: {e}"))?;
        self.state.store(STATE_PROMOTED, Ordering::Release);
        let downtime = started.elapsed();
        self.db.obs.trace().event(
            "repl.promote_done",
            format!("losers {}", stats.losers),
            u64::try_from(downtime.as_millis()).unwrap_or(u64::MAX),
        );
        Ok(PromotionReport {
            last_lsn: self.db.wal.tail_lsn(),
            losers_undone: stats.losers,
            downtime,
        })
    }

    /// Receive one frame (runs on the receive thread). Returning false
    /// drops the connection; the outer loop resubscribes from
    /// `applied + 1`.
    fn on_frame(&self, flushed: u64, frame: Frame, expected: &mut u64) -> bool {
        if self.stop.load(Ordering::Acquire) || self.apply_stalled.load(Ordering::Acquire) {
            return false;
        }
        *self.last_frame.lock() = Instant::now();
        self.primary_flushed.fetch_max(flushed, Ordering::AcqRel);
        self.db.set_repl_lag(self.lag());
        for (rec, _) in &frame.records {
            if rec.lsn.0 != *expected {
                // Gap or replay: never enqueue out of order;
                // resubscribe from the position we trust.
                self.db
                    .obs
                    .trace()
                    .event("repl.gap", format!("got {}", rec.lsn.0), *expected - 1);
                return false;
            }
            *expected += 1;
        }
        self.progressed.store(true, Ordering::Release);
        if frame.records.is_empty() {
            return true; // heartbeat
        }
        let n = frame.records.len() as u64;
        while self.queued_records.load(Ordering::Acquire) + n > QUEUE_MAX {
            if self.stop.load(Ordering::Acquire) || self.apply_stalled.load(Ordering::Acquire) {
                return false;
            }
            std::thread::sleep(POLL);
        }
        let mut q = self.queue.lock();
        // Re-check under the lock: a stall clears the queue, and an
        // enqueue racing past that clear would survive it.
        if self.apply_stalled.load(Ordering::Acquire) {
            return false;
        }
        q.push_back(frame);
        self.queued_records.fetch_add(n, Ordering::AcqRel);
        true
    }

    /// The apply thread: drain the queue until stopped.
    fn apply_loop(&self) {
        loop {
            let Some(frame) = self.queue.lock().pop_front() else {
                if self.stop.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(POLL);
                continue;
            };
            let n = frame.records.len() as u64;
            let gate = self.apply_gate.lock();
            if self.stop.load(Ordering::Acquire) {
                // Promotion or shutdown raced in between pop and gate:
                // this frame dies unapplied, like the rest of the
                // queue.
                drop(gate);
                self.sub_queued(n);
                continue;
            }
            let started = Instant::now();
            let mut failed = false;
            let mut last = Lsn::NULL;
            let mut start = 0;
            for (rec, end) in &frame.records {
                let encoded = &frame.bytes[start..*end];
                start = *end;
                let t = Instant::now();
                // A trace tag on this record's LSN means the primary
                // sampled the originating request: continue the same
                // trace across the process boundary so one id links
                // wire receive, WAL flush, and follower apply.
                let tag = frame.traces.iter().find(|&&(lsn, _)| lsn == rec.lsn.0);
                let _trace_scope =
                    tag.map(|&(_, tid)| mohan_obs::install_ctx(mohan_obs::ctx_for(tid)));
                let apply_span = tag.map(|_| {
                    self.db
                        .obs
                        .trace()
                        .span("repl.apply", format!("{:?}", rec.kind))
                        .with_detail(rec.lsn.0)
                });
                if let Err(e) = self.apply_record(rec, encoded) {
                    self.apply_errors.fetch_add(1, Ordering::Relaxed);
                    self.db
                        .obs
                        .trace()
                        .event("repl.apply_error", e.to_string(), rec.lsn.0);
                    failed = true;
                    break;
                }
                self.apply_us.record_micros(t.elapsed());
                if let Some(span) = apply_span {
                    span.commit();
                }
                self.applied.store(rec.lsn.0, Ordering::Release);
                last = rec.lsn;
            }
            if last != Lsn::NULL {
                // One durability point per frame, not per record (the
                // mirrored appends above only hit the in-memory tail).
                self.db.wal.flush_to(last);
            }
            drop(gate);
            if failed {
                // Stall: wipe the queue and make the receive thread
                // drop the connection; the resubscribe from
                // `applied + 1` re-fetches everything discarded here.
                let mut q = self.queue.lock();
                q.clear();
                self.queued_records.store(0, Ordering::Release);
                self.apply_stalled.store(true, Ordering::Release);
            } else {
                self.sub_queued(n);
                self.batch_us.record_micros(started.elapsed());
            }
            self.db.set_repl_lag(self.lag());
        }
    }

    /// Decrement the queued-record count without racing a concurrent
    /// clear-to-zero (all counter updates happen under the queue lock).
    fn sub_queued(&self, n: u64) {
        let q = self.queue.lock();
        let cur = self.queued_records.load(Ordering::Acquire);
        self.queued_records
            .store(cur.saturating_sub(n), Ordering::Release);
        drop(q);
    }

    /// Mirror one record into the local log — `encoded` is the bytes
    /// `rec` was decoded from — then redo it.
    fn apply_record(&self, rec: &LogRecord, encoded: &[u8]) -> Result<()> {
        // Mirror first: promotion's restart pass reads the local log,
        // so every applied record must exist in it. The local
        // allocator hands out LSNs sequentially and nothing else
        // appends on a follower (sessions refuse writes), so in-order
        // mirroring reproduces the primary's LSNs exactly — anything
        // else is divergence (the append reports it) and must stall
        // the apply.
        self.db.wal.append_encoded(encoded)?;
        // Transactions begun after promotion must never collide with
        // ids the old primary handed out.
        self.db.bump_tx_floor(rec.tx);
        if rec.is_redoable() {
            self.db.redo(rec)?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for Replica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("applied", &self.applied_lsn())
            .field("primary_flushed", &self.primary_flushed())
            .field("reconnects", &self.reconnects())
            .field("promoted", &self.is_promoted())
            .finish()
    }
}

/// Bounded-staleness reads against a follower's replayed state, as a
/// [`ReadApi`] — the same trait the bench oracle and closed-loop
/// drivers use against an in-process session or a wire client, so E19
/// can point them at a follower unchanged.
///
/// Every read first compares the follower's current lag against
/// `max_lag_lsn`; an over-budget read fails with
/// [`Error::ReplicaStale`] instead of returning data of unknown
/// staleness. Serving a read bumps `repl.reads_served`; refusing one
/// bumps `repl.reads_rejected_stale`.
pub struct FollowerReader {
    replica: Arc<Replica>,
    max_lag_lsn: u64,
    reads_served: Arc<Counter>,
    reads_stale: Arc<Counter>,
}

impl FollowerReader {
    /// Read surface over `replica` refusing reads whose lag exceeds
    /// `max_lag_lsn`.
    #[must_use]
    pub fn new(replica: Arc<Replica>, max_lag_lsn: u64) -> FollowerReader {
        let reads_served = replica.db.obs.counter("repl.reads_served");
        let reads_stale = replica.db.obs.counter("repl.reads_rejected_stale");
        FollowerReader {
            replica,
            max_lag_lsn,
            reads_served,
            reads_stale,
        }
    }

    fn check_fresh(&self) -> Result<()> {
        let lag = self.replica.lag();
        if lag > self.max_lag_lsn {
            self.reads_stale.bump();
            return Err(Error::ReplicaStale { lag });
        }
        Ok(())
    }
}

impl ReadApi for FollowerReader {
    type Err = Error;

    fn read(&mut self, table: TableId, rid: Rid) -> Result<Vec<i64>> {
        self.check_fresh()?;
        let rec = self.replica.db.read_record(table, rid)?;
        self.reads_served.bump();
        Ok(rec.0)
    }

    fn lookup(&mut self, index: IndexId, key: &KeyValue) -> Result<Vec<Rid>> {
        self.check_fresh()?;
        let rids = self.replica.db.index_lookup(index, key)?;
        self.reads_served.bump();
        Ok(rids)
    }
}

impl std::fmt::Debug for FollowerReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FollowerReader")
            .field("max_lag_lsn", &self.max_lag_lsn)
            .field("lag", &self.replica.lag())
            .finish()
    }
}
