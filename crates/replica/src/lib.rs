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
//!   with no gaps, and the follower's own log holds exactly the
//!   records it has redone: its tail is the apply point. A frame that
//!   skips ahead (or repeats) makes the follower drop the connection
//!   and resubscribe from `tail + 1`, which the server validates
//!   against its flushed tail — reconnect is always safe because the
//!   tail only advances over records the primary has durably flushed.
//!
//! The follower is two threads around one state: its lifecycle
//! (following, stalled, stopping, promoting, promoted, severed), the
//! queue of received frames and their record count, whether a frame is
//! being applied, and when the last frame arrived — behind one mutex,
//! with one condvar that every change notifies and every wait waits
//! on. Nothing polls or sleeps.
//!
//! The *receive* thread owns the subscription socket: it checks
//! contiguity, publishes the primary's flushed LSN, and queues frames
//! (their record count is the `repl.queue_depth` gauge; a full queue
//! makes the receive thread wait, which turns into TCP backpressure on
//! the primary). It keeps reading ahead while a frame applies, so the
//! lag the staleness bound checks sees the primary's flushed tail. The
//! *apply* thread takes frames off the queue: each record is first
//! redone, then **mirrored into the follower's own log** — the bytes
//! the primary shipped are stored as they are
//! (`LogManager::append_encoded`); the log allocates LSNs
//! sequentially, so in-order mirroring reproduces the primary's LSNs
//! exactly, and a mismatch means divergence and stalls the apply —
//! and the frame is made durable with one flush. A record whose redo
//! fails is not mirrored, so the resubscribe fetches it again.
//!
//! Replication is restart's redo pass, run continuously; promotion is
//! the rest of restart. [`Replica::promote`] stops the stream, waits
//! while a frame is being applied, and runs analysis and undo over the
//! mirrored log (`Db::promote_to_primary`) with nothing left to redo:
//! the undo pass rolls back whatever transactions were still in flight
//! on the dead primary.
//!
//! Index DDL rides the same stream as `CatalogUpdate` snapshot
//! records; the engine applies them while `Db::is_replica()` holds,
//! which [`Replica::new`] sets (see `mohan_oib`).

#![warn(missing_docs)]

use mohan_client::{Client, ClientError, ErrorCode};
use mohan_common::{Error, IndexId, KeyValue, Lsn, ReadApi, Result, Rid, TableId};
use mohan_obs::Histogram;
use mohan_oib::Db;
use mohan_wal::{decode_record, LogRecord, RecoveryTarget};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
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

/// What [`Replica::promote`] reports back.
#[derive(Debug, Clone, Copy)]
pub struct PromotionReport {
    /// The new primary's log tail after promotion (mirrored records,
    /// plus the CLRs the undo pass appended and the records of any
    /// cancelled build).
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

/// Where a follower is in its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Subscribed, or between subscriptions, applying what arrives.
    Following,
    /// A frame failed to apply: the queue was discarded, and the
    /// receive thread drops the connection and resubscribes from the
    /// log's tail + 1.
    Stalled,
    /// [`Replica::stop`] was called.
    Stopping,
    /// [`Replica::promote`] is running, or its restart failed.
    Promoting,
    /// [`Replica::promote`] completed.
    Promoted,
    /// The primary refused the subscription with `LogTruncated`: its
    /// log starts at this LSN, past what this follower needs.
    Severed(Lsn),
}

impl Phase {
    /// The receive and apply loops run in these phases only.
    fn following(self) -> bool {
        matches!(self, Phase::Following | Phase::Stalled)
    }
}

/// Everything the follower's threads decide together.
struct Follow {
    phase: Phase,
    /// Received frames not yet applied, oldest first.
    queue: VecDeque<Frame>,
    /// Records in `queue` and in the frame being applied: the
    /// `repl.queue_depth` gauge, bounded by [`QUEUE_MAX`].
    queued: u64,
    /// The apply thread is applying a frame it took off `queue`.
    applying: bool,
    /// When the last frame (heartbeats included) arrived.
    last_frame: Instant,
}

/// A replication follower: owns the reconnect loop, the apply loop
/// and the promotion state machine. Its apply position is the local
/// engine's log tail.
pub struct Replica {
    db: Arc<Db>,
    addr: Mutex<String>,
    /// The primary's flushed LSN as of the last frame (heartbeats
    /// advance it even when no records flow).
    primary_flushed: AtomicU64,
    reconnects: AtomicU64,
    apply_errors: AtomicU64,
    /// The one state the threads share; every change to it notifies
    /// `changed`.
    state: Mutex<Follow>,
    changed: Condvar,
    batch_us: Arc<Histogram>,
    apply_us: Arc<Histogram>,
}

impl Replica {
    /// Create a follower replaying into `db` from the primary at
    /// `addr`, and make `db` a follower (`Db::set_replica`): it refuses
    /// writes and applies shipped index DDL (`CatalogUpdate` records).
    /// Following starts after `db`'s log tail, so that log must be
    /// empty or a mirror of the primary's.
    ///
    /// Registers the follower's gauges and histograms on the engine's
    /// registry: `repl.lag_lsn`, `repl.applied_lsn`,
    /// `repl.primary_flushed_lsn`, `repl.queue_depth`,
    /// `repl.reconnects`, `repl.apply_errors`,
    /// `repl.batch_us`, `repl.apply_us`.
    #[must_use]
    pub fn new(db: Arc<Db>, addr: &str) -> Arc<Replica> {
        db.set_replica(true);
        let batch_us = db.obs.histogram("repl.batch_us");
        let apply_us = db.obs.histogram("repl.apply_us");
        let r = Arc::new(Replica {
            db,
            addr: Mutex::new(addr.to_owned()),
            primary_flushed: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            apply_errors: AtomicU64::new(0),
            state: Mutex::new(Follow {
                phase: Phase::Following,
                queue: VecDeque::new(),
                queued: 0,
                applying: false,
                last_frame: Instant::now(),
            }),
            changed: Condvar::new(),
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
        gauge("repl.queue_depth", |r| r.state.lock().queued);
        gauge("repl.reconnects", Replica::reconnects);
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

    /// Highest LSN applied locally: the local log's tail, which holds
    /// exactly the records redone.
    #[must_use]
    pub fn applied_lsn(&self) -> Lsn {
        self.db.wal.tail_lsn()
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

    /// The primary's first retained LSN, once it refused this follower
    /// because a checkpoint truncated records the follower still
    /// needed; `None` while following. A severed follower has stopped
    /// and must be seeded again — reconnecting cannot help it.
    #[must_use]
    pub fn severed_at(&self) -> Option<Lsn> {
        match self.state.lock().phase {
            Phase::Severed(first) => Some(first),
            _ => None,
        }
    }

    /// How long since the last frame (heartbeats included) arrived
    /// from the primary.
    #[must_use]
    pub fn last_frame_elapsed(&self) -> Duration {
        self.state.lock().last_frame.elapsed()
    }

    /// True once [`Replica::promote`] has completed.
    #[must_use]
    pub fn is_promoted(&self) -> bool {
        self.state.lock().phase == Phase::Promoted
    }

    /// Ask the loops to exit. The receive thread notices on its next
    /// frame (heartbeats arrive every ~200ms), or at once between
    /// connections; the apply thread finishes the frame it is applying
    /// and exits, leaving the rest of the queue unapplied.
    pub fn stop(&self) {
        let mut s = self.state.lock();
        if s.phase.following() {
            s.phase = Phase::Stopping;
        }
        self.changed.notify_all();
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
        loop {
            let attempt = {
                let mut s = self.state.lock();
                // Never resubscribe with frames still queued or being
                // applied: the resubscribe point is the log's tail + 1,
                // which only reflects reality once the apply thread
                // has drained.
                while s.phase.following() && s.queued > 0 {
                    self.changed.wait(&mut s);
                }
                if !s.phase.following() {
                    break;
                }
                // A stall ends here: nothing is queued any more.
                s.phase = Phase::Following;
                self.changed.notify_all();
                Instant::now()
            };
            let addr = self.addr();
            let outcome = Client::connect(&addr).and_then(|client| {
                client.set_read_timeout(Some(READ_TIMEOUT))?;
                let from = self.applied_lsn().0 + 1;
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
            let mut s = self.state.lock();
            if !s.phase.following() {
                break;
            }
            match outcome {
                // `on_frame` returned false: stop, stall, promotion or
                // a gap — all roads lead to resubscribing.
                Ok(()) => {}
                Err(ClientError::Server {
                    code: ErrorCode::LogTruncated { first_lsn },
                    ..
                }) => {
                    // Terminal: the records from `tail + 1` are gone
                    // from the primary's log, and resubscribing would
                    // only be told so again. The queue is empty (the
                    // loop resubscribes only once it is), so stopping
                    // loses nothing applied.
                    s.phase = Phase::Severed(Lsn(first_lsn.max(1)));
                    self.changed.notify_all();
                    self.db.obs.trace().event(
                        "repl.severed",
                        format!("primary's log starts at {first_lsn}"),
                        self.applied_lsn().0,
                    );
                    break;
                }
                Err(e) => {
                    self.db
                        .obs
                        .trace()
                        .event("repl.disconnect", e.to_string(), 0);
                }
            }
            if s.last_frame >= attempt {
                backoff = BACKOFF_MIN;
            }
            self.reconnects.fetch_add(1, Ordering::Relaxed);
            // Back off; `stop` and `promote` end the wait early.
            let until = Instant::now() + backoff;
            while s.phase.following() && !self.changed.wait_until(&mut s, until).timed_out() {}
            backoff = (backoff * 2).min(BACKOFF_MAX);
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
    /// (inclusive). Returns false on timeout, or as soon as the follower
    /// is severed (it will never get there).
    #[must_use]
    pub fn wait_applied(&self, target: Lsn, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut s = self.state.lock();
        while self.applied_lsn() < target
            && !matches!(s.phase, Phase::Severed(_))
            && !self.changed.wait_until(&mut s, deadline).timed_out()
        {}
        self.applied_lsn() >= target
    }

    /// Block until no frame (heartbeats included) has arrived from the
    /// primary for `window`, and return true; or return false as soon
    /// as the follower stops following — promoted, severed or stopped.
    /// The `--promote-on-disconnect` watchdog promotes on true.
    #[must_use]
    pub fn wait_silence(&self, window: Duration) -> bool {
        let mut s = self.state.lock();
        while s.phase.following() {
            let quiet_until = s.last_frame + window;
            if Instant::now() >= quiet_until {
                return true;
            }
            self.changed.wait_until(&mut s, quiet_until);
        }
        false
    }

    /// Promote this follower to primary.
    ///
    /// The sequence: leave the following states (exactly one caller
    /// wins), which stops both loops; wait while a frame is being
    /// applied — at most the one in-flight frame, never the
    /// multi-second socket timeout; discard the received-but-unapplied
    /// tail; then finish restart over the mirrored log
    /// (`Db::promote_to_primary`): nothing is redone — the apply thread
    /// already did that — the undo pass rolls back the old primary's
    /// in-flight transactions with CLRs, and builds still in flight are
    /// cancelled. Finally the engine's role flips and writes are
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
        let started = Instant::now();
        let dropped = {
            let mut s = self.state.lock();
            if matches!(s.phase, Phase::Promoting | Phase::Promoted) {
                return Err("promotion already started or completed".into());
            }
            s.phase = Phase::Promoting;
            self.changed.notify_all();
            self.db
                .obs
                .trace()
                .event("repl.promote_begin", self.addr(), self.applied_lsn().0);
            while s.applying {
                self.changed.wait(&mut s);
            }
            s.queue.clear();
            std::mem::take(&mut s.queued)
        };
        self.changed.notify_all();
        if dropped > 0 {
            self.db
                .obs
                .trace()
                .event("repl.promote_discard_tail", "unapplied records", dropped);
        }
        let stats = self
            .db
            .promote_to_primary()
            .map_err(|e| format!("promotion restart failed: {e}"))?;
        self.state.lock().phase = Phase::Promoted;
        self.changed.notify_all();
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
    /// drops the connection; the outer loop resubscribes from the log's
    /// tail + 1.
    fn on_frame(&self, flushed: u64, frame: Frame, expected: &mut u64) -> bool {
        let mut s = self.state.lock();
        if s.phase != Phase::Following {
            return false;
        }
        s.last_frame = Instant::now();
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
        let n = frame.records.len() as u64;
        if n > 0 {
            while s.phase == Phase::Following && s.queued + n > QUEUE_MAX {
                self.changed.wait(&mut s);
            }
            if s.phase != Phase::Following {
                return false;
            }
            s.queue.push_back(frame);
            s.queued += n;
        }
        self.changed.notify_all();
        true
    }

    /// The apply thread: take frames off the queue until the follower
    /// stops following.
    fn apply_loop(&self) {
        let mut s = self.state.lock();
        loop {
            while s.phase.following() && s.queue.is_empty() {
                self.changed.wait(&mut s);
            }
            if !s.phase.following() {
                return;
            }
            let frame = s.queue.pop_front().expect("a frame is queued");
            s.applying = true;
            drop(s);
            let applied = self.apply_frame(&frame);
            s = self.state.lock();
            s.applying = false;
            s.queued -= frame.records.len() as u64;
            if !applied && s.phase == Phase::Following {
                // Stall: discard the queue and make the receive thread
                // drop the connection; the resubscribe from the log's
                // tail + 1 re-fetches the failed record and everything
                // discarded here.
                s.queue.clear();
                s.queued = 0;
                s.phase = Phase::Stalled;
            }
            self.changed.notify_all();
            self.db.set_repl_lag(self.lag());
        }
    }

    /// Apply one frame's records in LSN order, then make them durable
    /// with one flush. False when a record failed (counted in
    /// `repl.apply_errors` and traced); the records before it stay
    /// applied.
    fn apply_frame(&self, frame: &Frame) -> bool {
        let started = Instant::now();
        let mut start = 0;
        let applied = frame.records.iter().all(|(rec, end)| {
            let encoded = &frame.bytes[start..*end];
            start = *end;
            let t = Instant::now();
            // A trace tag on this record's LSN means the primary
            // sampled the originating request: continue the same
            // trace across the process boundary so one id links
            // wire receive, WAL flush, and follower apply.
            let tag = frame.traces.iter().find(|&&(lsn, _)| lsn == rec.lsn.0);
            let _trace_scope = tag.map(|&(_, tid)| mohan_obs::install_ctx(mohan_obs::ctx_for(tid)));
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
                return false;
            }
            self.apply_us.record_micros(t.elapsed());
            if let Some(span) = apply_span {
                span.commit();
            }
            true
        });
        // One durability point per frame, not per record (the mirrored
        // appends above only hit the in-memory tail).
        self.db.wal.flush_all();
        if applied {
            self.batch_us.record_micros(started.elapsed());
        }
        applied
    }

    /// Redo one record, then mirror it into the local log — `encoded`
    /// is the bytes `rec` was decoded from.
    fn apply_record(&self, rec: &LogRecord, encoded: &[u8]) -> Result<()> {
        self.db.failpoints.hit("repl.apply.record")?;
        if rec.is_redoable() {
            self.db.redo(rec)?;
        }
        // Mirror second, so the log holds exactly what was redone: it
        // is the apply point, and promotion's analysis and undo read
        // it. The local allocator hands out LSNs sequentially and
        // nothing else appends on a follower (sessions refuse writes),
        // so in-order mirroring reproduces the primary's LSNs exactly —
        // anything else is divergence (the append reports it) and must
        // stall the apply.
        self.db.wal.append_encoded(encoded)?;
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
/// Every read goes through [`Db::follower_read`], the engine's one
/// staleness rule: an over-budget read fails with
/// [`Error::ReplicaStale`] instead of returning data of unknown
/// staleness, and both outcomes are counted there
/// (`repl.reads_served`, `repl.reads_rejected_stale`).
pub struct FollowerReader {
    replica: Arc<Replica>,
    max_lag_lsn: u64,
}

impl FollowerReader {
    /// Read surface over `replica` refusing reads whose lag exceeds
    /// `max_lag_lsn`.
    #[must_use]
    pub fn new(replica: Arc<Replica>, max_lag_lsn: u64) -> FollowerReader {
        FollowerReader {
            replica,
            max_lag_lsn,
        }
    }
}

impl ReadApi for FollowerReader {
    type Err = Error;

    fn read(&mut self, table: TableId, rid: Rid) -> Result<Vec<i64>> {
        let db = &self.replica.db;
        let rec = db.follower_read(self.max_lag_lsn, || db.read_record(table, rid))??;
        Ok(rec.0)
    }

    fn lookup(&mut self, index: IndexId, key: &KeyValue) -> Result<Vec<Rid>> {
        let db = &self.replica.db;
        db.follower_read(self.max_lag_lsn, || db.index_lookup(index, key))?
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
