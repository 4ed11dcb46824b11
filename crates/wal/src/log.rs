//! The log manager.
//!
//! The log keeps bytes, not object graphs: a slot holds a record's
//! codec encoding ([`crate::codec`], the format a `WalFrame` carries)
//! in one exact-size allocation, written once. Readers decode on
//! demand ([`LogManager::get`], [`LogManager::iter_from`]), parse only
//! the fixed header ([`LogManager::header`],
//! [`LogManager::headers_from`]) or copy the stored bytes
//! ([`LogManager::copy_range`]).
//!
//! Slots live in fixed-size segments of [`SEGMENT_SLOTS`], and the log
//! is as long as the work since the last checkpoint: once a checkpoint
//! no longer needs the records below some LSN,
//! [`LogManager::truncate_below`] drops every segment that holds only
//! such records, and nothing below [`LogManager::first_lsn`] can be
//! read any more. A reader holds an `Arc` of the segment it reads, so
//! a segment dropped under it stays whole until the reader lets go.
//! Anyone who must read records a checkpoint would drop — a WAL
//! subscriber that has not shipped them yet — holds a [`LogPin`].
//!
//! Appends encode, reserve an LSN with a single `fetch_add`, and then
//! publish the bytes into their pre-addressed slot. The hot path takes
//! **no lock**: each thread keeps the segment it last appended to, so
//! the directory lock is taken once per thread per segment. Durability
//! happens at [`LogManager::flush_to`] / [`LogManager::flush_all`];
//! concurrent flushers coalesce into one durable-prefix advance (group
//! flush).
//!
//! A simulated crash truncates the log back to the flushed prefix,
//! which is what lets tests observe the difference between, say, SF's
//! unlogged bulk load and NSF's logged inserts. Because slots are
//! write-once (`OnceLock`) and appends never lock the directory, a
//! crash cannot scrub the truncated slots in place; instead it *burns*
//! them: a new epoch remaps the reused logical LSN range onto fresh
//! physical slots, and the abandoned ones go with their segment. Crash
//! simulation is quiescent by contract — callers join their worker
//! threads before calling [`LogManager::crash`], exactly as a real
//! failure stops all appenders.

use crate::codec::{decode_record, encode_record, RecordHeader, LSN_BYTES};
use crate::record::{LogPayload, LogRecord, RecKind};
use mohan_common::stats::{Counter, StripedCounter};
use mohan_common::{Error, Lsn, Result, TxId, WriteAhead};
use mohan_obs::{Histogram, TraceSink};
use parking_lot::{Mutex, RwLock};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

/// Slots in a log segment, the unit the log is allocated and freed in.
pub const SEGMENT_SLOTS: u64 = 4096;

/// Pads a hot atomic onto its own cache line so unrelated writers do
/// not false-share it.
#[repr(align(64))]
#[derive(Default)]
struct Pad<T>(T);

impl<T> std::ops::Deref for Pad<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// A log slot: the record's encoding, set exactly once by the
/// appender that reserved its LSN. `OnceLock` gives that publish its
/// release/acquire pairing without any per-slot lock.
type Slot = OnceLock<Box<[u8]>>;

/// Encode buffers larger than this are not kept by the per-thread
/// scratch (a catalog snapshot can run to megabytes; a thread that
/// logged one should not hold that much for good).
const SCRATCH_KEEP: usize = 64 << 10;

thread_local! {
    /// Where [`LogManager::append`] encodes before it knows the size
    /// of the slot's allocation.
    static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
    /// The segment this thread last appended to: `(log id, segment
    /// number, segment)`. A thread that stops appending keeps one
    /// segment alive after a truncation dropped it, until it appends
    /// again or exits.
    static APPEND_SEGMENT: RefCell<Option<(u64, u64, Arc<Segment>)>> =
        const { RefCell::new(None) };
}

/// Source of [`LogManager`] ids, which key the per-thread segment.
static NEXT_LOG_ID: AtomicU64 = AtomicU64::new(0);

/// One run of [`SEGMENT_SLOTS`] log slots. Slots are deliberately *not*
/// padded to cache lines: adjacent publishes share a line, but
/// reservation order makes the sharing sequential (at most one handoff
/// per line quarter), and the dense layout keeps the prefetcher
/// effective for appends and scans alike — measured, the padded variant
/// is ~2x slower single-threaded and no faster at 4 threads.
struct Segment {
    slots: Box<[Slot]>,
}

impl Segment {
    fn new() -> Segment {
        Segment {
            slots: (0..SEGMENT_SLOTS).map(|_| OnceLock::new()).collect(),
        }
    }
}

/// The segments the log holds, in physical order.
struct Directory {
    /// Physical segment number of `segs[0]`.
    base: u64,
    segs: VecDeque<Arc<Segment>>,
}

impl Directory {
    fn get(&self, no: u64) -> Option<Arc<Segment>> {
        let i = usize::try_from(no.checked_sub(self.base)?).ok()?;
        self.segs.get(i).cloned()
    }

    /// Physical segment number one past the last held.
    fn end(&self) -> u64 {
        self.base + self.segs.len() as u64
    }
}

/// Remembers the segment it last read, so a walk over consecutive
/// slots takes the directory lock once per segment.
#[derive(Default)]
struct SegmentCursor(Option<(u64, Arc<Segment>)>);

impl SegmentCursor {
    /// Physical slot `phys`, or `None` if its segment is not held
    /// (dropped by truncation, or not yet allocated).
    fn slot(&mut self, dir: &RwLock<Directory>, phys: u64) -> Option<&Slot> {
        let no = phys / SEGMENT_SLOTS;
        if self.0.as_ref().map(|(n, _)| *n) != Some(no) {
            self.0 = Some((no, dir.read().get(no)?));
        }
        let (_, seg) = self.0.as_ref()?;
        Some(&seg.slots[(phys % SEGMENT_SLOTS) as usize])
    }
}

/// Map a logical record index to its physical slot index given the
/// crash-epoch table (pairs of `(logical_start, physical_start)`,
/// sorted by `logical_start`; the rightmost epoch covering `idx`
/// wins).
fn translate(epochs: &[(u64, u64)], idx: u64) -> u64 {
    let i = epochs.partition_point(|e| e.0 <= idx) - 1;
    idx - epochs[i].0 + epochs[i].1
}

/// Keeps the records at and above its LSN in the log: a truncation
/// stops below the lowest live pin. Taken with [`LogManager::pin`],
/// moved forward with [`LogPin::advance`] as its holder consumes the
/// log, released by dropping it.
#[derive(Debug)]
pub struct LogPin(Arc<AtomicU64>);

impl LogPin {
    /// The holder no longer needs anything below `to`.
    pub fn advance(&self, to: Lsn) {
        self.0.fetch_max(to.0, Ordering::Release);
    }
}

/// Log-volume counters, split by origin so benches can reproduce the
/// paper's "IB writes no log records until side-file processing"
/// argument (§4). The two per-append counters are cache-line-striped
/// so they do not become the bottleneck the lock-free append path just
/// removed.
#[derive(Debug, Default)]
pub struct WalStats {
    /// Records appended in total.
    pub records: StripedCounter,
    /// Bytes appended in total (length of each stored encoding).
    pub bytes: StripedCounter,
    /// Records appended by index-builder transactions.
    pub ib_records: Counter,
    /// Bytes appended by index-builder transactions.
    pub ib_bytes: Counter,
    /// Flush (force) calls that actually advanced the durable prefix.
    pub flushes: Counter,
    /// Flush calls whose target became durable via another caller's
    /// group flush (the caller waited instead of forcing again).
    pub group_flush_coalesced: Counter,
    /// Log segments allocated.
    pub segment_allocs: Counter,
    /// Records freed by truncation (burned ones included).
    pub truncated_records: Counter,
    /// Stored bytes freed by truncation.
    pub truncated_bytes: Counter,
    /// Latency of flush calls that reached the slow path (µs) —
    /// both actual forces and coalesced waiters; the fast path
    /// (already durable) records nothing.
    pub flush_us: Arc<Histogram>,
    /// Per actual force: how many LSNs the force made durable in one
    /// go (the group-flush batch size).
    pub coalesce_depth: Arc<Histogram>,
}

/// A registered flush-waker: (registration id, callback).
type FlushWaker = (u64, Box<dyn Fn() + Send + Sync>);

/// The write-ahead log.
pub struct LogManager {
    /// Key of this log's entry in a thread's append segment.
    id: u64,
    /// The segments holding every record at or above `first`. Appends
    /// take it once per thread per segment, readers once per segment
    /// they walk into, truncation to drop segments from the front.
    dir: RwLock<Directory>,
    /// Lowest LSN the log still holds (1 until the first truncation).
    first: Pad<AtomicU64>,
    /// Live [`LogPin`]s. Held by a truncation from computing its floor
    /// to publishing it, and by [`LogManager::pin`], so a pin cannot
    /// be taken on a record a truncation is about to drop.
    pins: Mutex<Vec<Weak<AtomicU64>>>,
    /// Count of reserved logical LSNs (the next append gets
    /// `next + 1`).
    next: Pad<AtomicU64>,
    /// Contiguous published prefix: every LSN `<= published` has its
    /// record visible. Advanced *lazily* by readers (`tail_lsn`) and
    /// by the group-flush leader rather than by every append.
    published: Pad<AtomicU64>,
    /// Current crash epoch, inlined for the append fast path: physical
    /// slot = `idx - epoch_logical + epoch_physical`. Mutated only by
    /// `crash`, which is quiescent by contract.
    epoch_logical: Pad<AtomicU64>,
    epoch_physical: Pad<AtomicU64>,
    /// Full epoch history for readers of pre-crash records.
    epochs: RwLock<Vec<(u64, u64)>>,
    /// Fast-path flag: false until the first `register_ib_tx`, so the
    /// per-append IB attribution check skips the `ib_txs` lock
    /// entirely when no builder is running.
    has_ib: AtomicBool,
    /// Highest LSN guaranteed durable. Invariant: `flushed <=
    /// published` — the durable prefix never contains a hole.
    flushed: Pad<AtomicU64>,
    /// Highest LSN any flusher has asked for; the group-flush leader
    /// forces up to this point on behalf of everyone waiting.
    flush_request: Pad<AtomicU64>,
    /// Transactions registered as index builders (their appends are
    /// counted separately).
    ib_txs: RwLock<Vec<TxId>>,
    /// Callbacks fired after the durable prefix actually advances
    /// (see [`LogManager::register_flush_waker`]).
    flush_wakers: RwLock<Vec<FlushWaker>>,
    /// Fast-path flag mirroring `flush_wakers.is_empty()`, so the
    /// group-flush hot path pays one relaxed load when nobody listens.
    has_flush_wakers: AtomicBool,
    next_flush_waker_id: AtomicU64,
    /// `(lsn, trace_id)` for records appended under a *sampled* trace
    /// context — a bounded drop-oldest side map, deliberately outside
    /// the frozen record codec, that lets the WAL subscription tag
    /// shipped frames with the trace that caused each write. Taken
    /// only when a sampled context is installed, so the lock-free
    /// append fast path is untouched for untraced work.
    trace_tags: Mutex<VecDeque<(u64, u64)>>,
    /// Trace ring for `wal.flush` spans (set once by the engine's
    /// observability registration; absent in bare unit tests).
    trace_sink: OnceLock<Arc<TraceSink>>,
    /// Volume counters.
    pub stats: WalStats,
}

/// Retained [`LogManager::trace_tags_for`] entries: the oldest tag
/// falls off once this many newer records are tagged. A subscriber
/// shipping records older than that gets them without attribution.
const TRACE_TAG_CAP: usize = 4096;

impl Default for LogManager {
    fn default() -> Self {
        Self::new()
    }
}

impl LogManager {
    /// Empty log.
    #[must_use]
    pub fn new() -> LogManager {
        LogManager {
            id: NEXT_LOG_ID.fetch_add(1, Ordering::Relaxed),
            dir: RwLock::new(Directory {
                base: 0,
                segs: VecDeque::new(),
            }),
            first: Pad(AtomicU64::new(1)),
            pins: Mutex::new(Vec::new()),
            next: Pad(AtomicU64::new(0)),
            published: Pad(AtomicU64::new(0)),
            epoch_logical: Pad(AtomicU64::new(0)),
            epoch_physical: Pad(AtomicU64::new(0)),
            epochs: RwLock::new(vec![(0, 0)]),
            has_ib: AtomicBool::new(false),
            flushed: Pad(AtomicU64::new(0)),
            flush_request: Pad(AtomicU64::new(0)),
            ib_txs: RwLock::new(Vec::new()),
            flush_wakers: RwLock::new(Vec::new()),
            has_flush_wakers: AtomicBool::new(false),
            next_flush_waker_id: AtomicU64::new(0),
            trace_tags: Mutex::new(VecDeque::new()),
            trace_sink: OnceLock::new(),
            stats: WalStats::default(),
        }
    }

    /// Adopt the trace ring `wal.flush` spans record into. Set once at
    /// engine construction; later calls are ignored.
    pub fn set_trace_sink(&self, sink: Arc<TraceSink>) {
        let _ = self.trace_sink.set(sink);
    }

    /// Trace attributions for records in `from ..= to` LSN order:
    /// which sampled trace appended each (tagged) record. Sparse —
    /// untraced records have no entry, and tags older than the
    /// retention window are gone.
    #[must_use]
    pub fn trace_tags_for(&self, from: u64, to: u64) -> Vec<(u64, u64)> {
        self.trace_tags
            .lock()
            .iter()
            .filter(|&&(lsn, _)| lsn >= from && lsn <= to)
            .copied()
            .collect()
    }

    /// Register a callback to run after the durable prefix advances
    /// (event-driven WAL shipping: a server shard with live
    /// `SubscribeWal` streams registers its reactor waker here instead
    /// of polling the flushed LSN; the engine checks whether the log
    /// has grown enough to checkpoint). The callback runs on the
    /// flushing thread and must be cheap and non-blocking — a wake,
    /// not work. Returns an id for
    /// [`LogManager::unregister_flush_waker`].
    pub fn register_flush_waker(&self, f: Box<dyn Fn() + Send + Sync>) -> u64 {
        let id = self.next_flush_waker_id.fetch_add(1, Ordering::AcqRel);
        let mut wakers = self.flush_wakers.write();
        wakers.push((id, f));
        self.has_flush_wakers.store(true, Ordering::Release);
        id
    }

    /// Remove a callback registered by
    /// [`LogManager::register_flush_waker`]. Unknown ids are a no-op.
    pub fn unregister_flush_waker(&self, id: u64) {
        let mut wakers = self.flush_wakers.write();
        wakers.retain(|(i, _)| *i != id);
        if wakers.is_empty() {
            self.has_flush_wakers.store(false, Ordering::Release);
        }
    }

    fn notify_flush_wakers(&self) {
        if !self.has_flush_wakers.load(Ordering::Acquire) {
            return;
        }
        for (_, f) in self.flush_wakers.read().iter() {
            f();
        }
    }

    /// Mark `tx` as an index-builder transaction for stats attribution.
    pub fn register_ib_tx(&self, tx: TxId) {
        self.ib_txs.write().push(tx);
        self.has_ib.store(true, Ordering::Release);
    }

    /// Segment `no` for an append, allocating it (and any before it a
    /// racing appender has not allocated yet) on first touch. The
    /// allocation happens outside the directory lock.
    fn segment_for_append(&self, no: u64) -> Arc<Segment> {
        loop {
            if let Some(seg) = self.dir.read().get(no) {
                return seg;
            }
            let fresh = Arc::new(Segment::new());
            let mut dir = self.dir.write();
            assert!(
                no >= dir.base,
                "append into segment {no}, below the truncation point"
            );
            if dir.end() <= no {
                dir.segs.push_back(fresh);
                self.stats.segment_allocs.bump();
            }
        }
    }

    /// Lowest LSN the log holds: everything below it was truncated.
    #[must_use]
    pub fn first_lsn(&self) -> Lsn {
        Lsn(self.first.load(Ordering::Acquire))
    }

    /// Run `f` on the stored encoding of the record at `lsn`. `None`
    /// for the null LSN, a truncated record or a truncated tail.
    fn with_stored<R>(&self, lsn: Lsn, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        if lsn < self.first_lsn() || lsn.0 > self.next.load(Ordering::Acquire) {
            return None;
        }
        let phys = translate(&self.epochs.read(), lsn.0 - 1);
        let mut segs = SegmentCursor::default();
        segs.slot(&self.dir, phys)?.get().map(|bytes| f(bytes))
    }

    /// Advance the contiguous published watermark past every slot that
    /// has been filled in. Any thread may help: each walks the slots
    /// privately and claims its verified extent with one `fetch_max`
    /// (every published value is a verified hole-free prefix, so the
    /// max of two claims still is — no per-slot CAS traffic).
    fn advance_published(&self) {
        let next = self.next.load(Ordering::Acquire);
        let mut p = self.published.load(Ordering::Acquire);
        if p >= next {
            return;
        }
        let epochs = self.epochs.read();
        let mut segs = SegmentCursor::default();
        let start = p;
        while p < next
            && segs
                .slot(&self.dir, translate(&epochs, p))
                .is_some_and(|slot| slot.get().is_some())
        {
            p += 1;
        }
        if p > start {
            self.published.fetch_max(p, Ordering::AcqRel);
        }
    }

    /// Append a record and return its LSN. LSNs are dense and start
    /// at 1 (so [`Lsn::NULL`] never names a record). The record is
    /// encoded into its slot-sized allocation first; the LSN is then
    /// reserved with one `fetch_add`, patched into the bytes, and the
    /// slot published without taking any lock.
    pub fn append(&self, tx: TxId, prev: Lsn, kind: RecKind, payload: LogPayload) -> Lsn {
        // Encode *before* reserving: every instruction between
        // reservation and publish is a hole in the log that flushers
        // must wait out (fatal if this thread is descheduled in that
        // window), so the encode, the allocation and the release of
        // the payload's own buffers all stay outside it.
        let rec = LogRecord {
            lsn: Lsn::NULL,
            tx,
            prev,
            kind,
            payload,
        };
        let bytes = SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            scratch.clear();
            encode_record(&rec, &mut scratch);
            let bytes = Box::<[u8]>::from(scratch.as_slice());
            if scratch.capacity() > SCRATCH_KEEP {
                *scratch = Vec::new();
            }
            bytes
        });
        drop(rec);
        self.publish(tx, bytes)
    }

    /// Append a record that is already encoded — a follower mirroring
    /// its primary's log stores the bytes it received instead of
    /// re-encoding what it decoded. `encoded` must be one whole record
    /// as [`decode_record`] delimits it; only its header is parsed
    /// here. The record is stored under the LSN this log reserves, and
    /// it is an error (after the append — the log stays dense) if the
    /// bytes named a different one: the two logs have diverged.
    pub fn append_encoded(&self, encoded: &[u8]) -> Result<Lsn> {
        let header = RecordHeader::parse(encoded)
            .ok_or_else(|| Error::Corruption("malformed log record header".into()))?;
        debug_assert!(
            {
                let mut pos = 0;
                decode_record(encoded, &mut pos).is_some() && pos == encoded.len()
            },
            "append_encoded wants exactly one well-formed record"
        );
        let lsn = self.publish(header.tx, Box::from(encoded));
        if lsn != header.lsn {
            return Err(Error::Corruption(format!(
                "log mirror diverged: local {} vs primary {}",
                lsn.0, header.lsn.0
            )));
        }
        Ok(lsn)
    }

    /// Reserve the next LSN, stamp it into `bytes` and publish them.
    fn publish(&self, tx: TxId, mut bytes: Box<[u8]>) -> Lsn {
        let size = bytes.len() as u64;
        let idx = self.next.fetch_add(1, Ordering::AcqRel);
        let lsn = Lsn(idx + 1);
        bytes[LSN_BYTES].copy_from_slice(&lsn.0.to_be_bytes());
        let phys = idx - self.epoch_logical.load(Ordering::Acquire)
            + self.epoch_physical.load(Ordering::Acquire);
        let (no, off) = (phys / SEGMENT_SLOTS, (phys % SEGMENT_SLOTS) as usize);
        let fresh = APPEND_SEGMENT.with(|cached| {
            let mut cached = cached.borrow_mut();
            match &*cached {
                Some((log, n, seg)) if *log == self.id && *n == no => seg.slots[off].set(bytes),
                _ => {
                    let seg = self.segment_for_append(no);
                    let set = seg.slots[off].set(bytes);
                    *cached = Some((self.id, no, seg));
                    set
                }
            }
            .is_ok()
        });
        debug_assert!(fresh, "log slot {phys} double-published");
        self.stats.records.bump();
        self.stats.bytes.add(size);
        if self.has_ib.load(Ordering::Acquire) && self.ib_txs.read().contains(&tx) {
            self.stats.ib_records.bump();
            self.stats.ib_bytes.add(size);
        }
        if let Some(ctx) = mohan_obs::current_ctx() {
            if ctx.sampled {
                let mut tags = self.trace_tags.lock();
                if tags.len() >= TRACE_TAG_CAP {
                    tags.pop_front();
                }
                tags.push_back((lsn.0, ctx.trace_id));
            }
        }
        lsn
    }

    /// Highest LSN appended so far (contiguously published; trails
    /// in-flight appends by design).
    #[must_use]
    pub fn tail_lsn(&self) -> Lsn {
        self.advance_published();
        Lsn(self.published.load(Ordering::Acquire))
    }

    /// Highest durable LSN.
    #[must_use]
    pub fn flushed_lsn(&self) -> Lsn {
        Lsn(self.flushed.load(Ordering::Acquire))
    }

    /// Force the log up to and including `lsn` (flush-before-force
    /// WAL rule; no-op if already durable). Targets beyond the
    /// appended tail are clamped to it: waiting for an LSN nobody has
    /// reserved would spin forever, and once LSNs arrive over the wire
    /// (`SubscribeWal`) a stale or hostile target must not wedge a
    /// worker.
    ///
    /// Concurrent callers coalesce through the durable mark itself:
    /// whoever advances it forces up to the maximum requested LSN
    /// (clamped to the contiguous published prefix), and every caller
    /// whose target turns out to be covered by someone else's advance
    /// returns without forcing, counted in
    /// [`WalStats::group_flush_coalesced`]. Nobody blocks on a leader
    /// — with the force itself being one `fetch_max`, any
    /// waiting-room protocol (mutex + condvar) costs orders of
    /// magnitude more than the work it guards, and parked followers
    /// pay scheduler-quantum wake latencies on an oversubscribed box.
    pub fn flush_to(&self, lsn: Lsn) {
        // Clamp to the reserved tail: LSNs are dense, so LSN `n`
        // exists iff `n <= next`. Anything above can never publish.
        let target = lsn.0.min(self.next.load(Ordering::Acquire));
        if self.flushed.load(Ordering::Acquire) >= target {
            // Already durable — but under a sampled trace the causal
            // fact still matters: this request's records were flushed
            // by somebody else's group. Record the ride so the trace's
            // WAL hop never silently disappears when a concurrent
            // flusher wins the race.
            if mohan_obs::current_ctx().is_some_and(|c| c.sampled) {
                if let Some(sink) = self.trace_sink.get() {
                    sink.span_event("wal.flush", "coalesced", 0, target);
                }
            }
            return;
        }
        let started = std::time::Instant::now();
        self.flush_request.fetch_max(target, Ordering::AcqRel);
        // The durable prefix may not contain a hole, so wait until the
        // published prefix covers our own target — but *only* our own:
        // chasing the max request would turn every flush into a
        // barrier on all in-flight appends (a requester whose target
        // is still beyond the prefix forces its own advance next).
        // Holes below our target are appends a few instructions from
        // completion, unless their thread was descheduled on an
        // oversubscribed box — so bounded spinning degrades to
        // yielding them the core.
        let mut tries = 0u32;
        let goal = loop {
            self.advance_published();
            let p = self.published.load(Ordering::Acquire);
            if p >= target {
                break self
                    .flush_request
                    .load(Ordering::Acquire)
                    .min(p)
                    .max(target);
            }
            tries += 1;
            if tries < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        };
        let prev = self.flushed.fetch_max(goal, Ordering::AcqRel);
        if prev >= target {
            // Another caller's advance covered us in the meantime.
            self.stats.group_flush_coalesced.bump();
        } else {
            self.stats.flushes.bump();
            // Records this force made durable in one go: the group
            // batch another caller's fetch_max would otherwise split.
            self.stats.coalesce_depth.record(goal.saturating_sub(prev));
        }
        if goal > prev {
            // This call advanced the durable prefix (even a caller
            // counted as coalesced above can, when the group target
            // outran its own): listeners get exactly one wake per
            // actual advance.
            self.notify_flush_wakers();
        }
        let took = started.elapsed();
        self.stats.flush_us.record_micros(took);
        // Under a sampled trace, the flush-group wait becomes a span
        // of that trace (label says whether this call forced or rode
        // a coalesced group). Guarded on the context so untraced
        // flushes do not churn the bounded ring.
        if mohan_obs::current_ctx().is_some_and(|c| c.sampled) {
            if let Some(sink) = self.trace_sink.get() {
                let label = if prev >= target { "coalesced" } else { "force" };
                sink.span_event(
                    "wal.flush",
                    label,
                    took.as_micros().min(u128::from(u64::MAX)) as u64,
                    goal,
                );
            }
        }
    }

    /// Force the whole log.
    pub fn flush_all(&self) {
        self.flush_to(self.tail_lsn());
    }

    /// Fetch a record by LSN, decoded from its slot (undo chains and
    /// CLR walks: one record at a time). `None` for the null LSN, a
    /// truncated record or a truncated tail.
    #[must_use]
    pub fn get(&self, lsn: Lsn) -> Option<LogRecord> {
        self.with_stored(lsn, decode_stored)
    }

    /// Header of the record at `lsn` — the first 26 bytes (34 for a
    /// CLR) of its slot; the payload is neither read nor allocated.
    #[must_use]
    pub fn header(&self, lsn: Lsn) -> Option<RecordHeader> {
        self.with_stored(lsn, header_of)
    }

    /// Walk the stored encodings of `(after, through]` in LSN order,
    /// following the published tail until it stops moving. A walk
    /// that would start below [`LogManager::first_lsn`] is empty.
    fn walk(&self, after: Lsn, through: Lsn) -> Walk<'_> {
        let through = if after.0 + 1 < self.first_lsn().0 {
            after.0
        } else {
            through.0
        };
        Walk {
            log: self,
            epochs: self.epochs.read().clone(),
            segs: SegmentCursor::default(),
            idx: after.0,
            end: after.0,
            through,
        }
    }

    /// Records after `after` in LSN order, each decoded as the
    /// iterator reaches it (restart redo). Follows the published tail:
    /// records appended while the walk runs are visited too. Nothing
    /// when `after` is below [`LogManager::first_lsn`] − 1.
    pub fn iter_from(&self, after: Lsn) -> impl Iterator<Item = LogRecord> + '_ {
        let mut walk = self.walk(after, Lsn(u64::MAX));
        std::iter::from_fn(move || walk.next_with(decode_stored))
    }

    /// Headers of the records after `after` in LSN order (restart
    /// analysis): like [`LogManager::iter_from`] without decoding a
    /// payload.
    pub fn headers_from(&self, after: Lsn) -> impl Iterator<Item = RecordHeader> + '_ {
        let mut walk = self.walk(after, Lsn(u64::MAX));
        std::iter::from_fn(move || walk.next_with(header_of))
    }

    /// Append the stored encodings of `(after, through]` to `out`,
    /// back-to-back — a `WalFrame` body, by copy. Stops at the
    /// published tail, after `max_records` records, or before the
    /// record that would take the bytes added past `max_bytes`; the
    /// first record is always taken, so one larger than the budget
    /// travels alone. Copies nothing when `after` is below
    /// [`LogManager::first_lsn`] − 1. Returns the number of records
    /// copied and the LSN of the last ([`Lsn::NULL`] when none).
    pub fn copy_range(
        &self,
        after: Lsn,
        through: Lsn,
        max_records: usize,
        max_bytes: usize,
        out: &mut Vec<u8>,
    ) -> (usize, Lsn) {
        let start = out.len();
        let mut count = 0;
        let mut walk = self.walk(after, through);
        while count < max_records {
            let taken = walk.next_with(|bytes| {
                let fits = count == 0 || out.len() - start + bytes.len() <= max_bytes;
                if fits {
                    out.extend_from_slice(bytes);
                }
                fits
            });
            if taken != Some(true) {
                break;
            }
            count += 1;
        }
        let last = if count == 0 {
            Lsn::NULL
        } else {
            Lsn(after.0 + count as u64)
        };
        (count, last)
    }

    /// Take a [`LogPin`] at `from`: no truncation drops a record at or
    /// above it while the pin lives. `None` if `from` is already below
    /// [`LogManager::first_lsn`].
    #[must_use]
    pub fn pin(&self, from: Lsn) -> Option<LogPin> {
        let mut pins = self.pins.lock();
        if from < self.first_lsn() {
            return None;
        }
        pins.retain(|p| p.strong_count() > 0);
        let pin = Arc::new(AtomicU64::new(from.0));
        pins.push(Arc::downgrade(&pin));
        Some(LogPin(pin))
    }

    /// Drop every record below `floor` — or below the lowest live
    /// [`LogPin`], or past the flushed mark, whichever is lower: a
    /// record that is not durable yet is never dropped, so a crash
    /// always finds the log it truncates back to. Whole segments go;
    /// the records below the new [`LogManager::first_lsn`] that share a
    /// segment with later ones stay in memory, unreadable, until their
    /// segment goes too. Returns the new first LSN.
    pub fn truncate_below(&self, floor: Lsn) -> Lsn {
        let pins = self.pins.lock();
        let mut floor = floor.0.min(self.flushed.load(Ordering::Acquire) + 1);
        for pin in pins.iter().filter_map(Weak::upgrade) {
            floor = floor.min(pin.load(Ordering::Acquire));
        }
        if floor <= self.first.load(Ordering::Acquire) {
            return self.first_lsn();
        }
        self.first.store(floor, Ordering::Release);
        drop(pins);
        // Segments wholly below the floor's slot go. Nothing publishes
        // into them any more: a record below the floor is flushed, so
        // published, and a burned one was published before its
        // (quiescent) crash.
        let keep_from = translate(&self.epochs.read(), floor - 1) / SEGMENT_SLOTS;
        let dropped: Vec<Arc<Segment>> = {
            let mut dir = self.dir.write();
            let n = keep_from
                .saturating_sub(dir.base)
                .min(dir.segs.len() as u64);
            dir.base = dir.base.max(keep_from);
            dir.segs.drain(..n as usize).collect()
        };
        for slot in dropped.iter().flat_map(|seg| seg.slots.iter()) {
            if let Some(bytes) = slot.get() {
                self.stats.truncated_records.bump();
                self.stats.truncated_bytes.add(bytes.len() as u64);
            }
        }
        Lsn(floor)
    }

    /// Bytes of the slot directory the log holds: every slot of every
    /// segment it holds, filled or not.
    #[must_use]
    pub fn directory_bytes(&self) -> u64 {
        self.dir.read().segs.len() as u64 * SEGMENT_SLOTS * std::mem::size_of::<Slot>() as u64
    }

    /// Memory the log holds: the stored encoding of every record in a
    /// segment it holds — burned ones and truncated ones that share a
    /// segment with later records included — plus the slot directory.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.stats.bytes.get() - self.stats.truncated_bytes.get() + self.directory_bytes()
    }

    /// Records the log holds in memory (counted as in
    /// [`LogManager::resident_bytes`]).
    #[must_use]
    pub fn resident_records(&self) -> u64 {
        self.stats.records.get() - self.stats.truncated_records.get()
    }

    /// Simulated system failure: everything after the flushed prefix
    /// is gone. The truncated logical LSN range is remapped onto fresh
    /// physical slots (a published `OnceLock` slot cannot be un-set in
    /// place); the abandoned slots keep their bytes until a truncation
    /// drops their segment, bounded by the unflushed tail per crash.
    pub fn crash(&self) {
        let mut epochs = self.epochs.write();
        let flushed = self.flushed.load(Ordering::Acquire);
        let next = self.next.load(Ordering::Acquire);
        if next != flushed {
            let last = *epochs.last().expect("epoch table never empty");
            let phys_next = next - last.0 + last.1;
            if last.0 == flushed {
                // Nothing new was flushed since the previous crash:
                // the whole previous epoch burned, replace it.
                *epochs.last_mut().expect("epoch table never empty") = (flushed, phys_next);
            } else {
                epochs.push((flushed, phys_next));
            }
            self.epoch_logical.store(flushed, Ordering::Release);
            self.epoch_physical.store(phys_next, Ordering::Release);
            self.next.store(flushed, Ordering::Release);
            self.published.store(flushed, Ordering::Release);
        }
        self.flush_request.store(flushed, Ordering::Release);
        self.ib_txs.write().clear();
        self.has_ib.store(false, Ordering::Release);
        // Truncated LSNs get reused densely; attribution for the
        // burned tail would name records that no longer exist.
        self.trace_tags.lock().retain(|&(lsn, _)| lsn <= flushed);
    }
}

/// The WAL rule through this log: a page force makes the log durable
/// through the page's LSN first.
impl WriteAhead for LogManager {
    fn durable_through(&self, lsn: Lsn) -> bool {
        self.flush_to(lsn);
        self.flushed_lsn() >= lsn
    }
}

/// Decode a slot's bytes. Slots only ever hold what `encode_record`
/// wrote (or what `decode_record` delimited, on a follower).
fn decode_stored(bytes: &[u8]) -> LogRecord {
    decode_record(bytes, &mut 0).expect("log slot holds a well-formed record")
}

fn header_of(bytes: &[u8]) -> RecordHeader {
    RecordHeader::parse(bytes).expect("log slot holds a well-formed record")
}

/// Cursor behind [`LogManager::iter_from`], [`LogManager::headers_from`]
/// and [`LogManager::copy_range`]. The crash-epoch table is copied
/// once (it has one entry per crash, and crashes are quiescent), and
/// the segment being read is held, so a step within a segment takes no
/// lock; the published tail is re-read only when the cursor catches up
/// with what it last saw. A walk whose next segment was truncated away
/// ends there.
struct Walk<'a> {
    log: &'a LogManager,
    epochs: Vec<(u64, u64)>,
    segs: SegmentCursor,
    /// Logical index of the next record (= LSN of the last one taken).
    idx: u64,
    /// Published tail as last read, clamped to `through`.
    end: u64,
    through: u64,
}

impl Walk<'_> {
    /// Run `f` on the next record's bytes.
    fn next_with<R>(&mut self, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        if self.idx >= self.end {
            self.end = self.log.tail_lsn().0.min(self.through);
            if self.idx >= self.end {
                return None;
            }
        }
        let phys = translate(&self.epochs, self.idx);
        let bytes = self
            .segs
            .slot(&self.log.dir, phys)?
            .get()
            .expect("record below published watermark must be set");
        self.idx += 1;
        Some(f(bytes))
    }
}

impl std::fmt::Debug for LogManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogManager")
            .field("tail", &self.tail_lsn())
            .field("flushed", &self.flushed_lsn())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::decode_records;
    use crate::codec::tests::{arb_kind, arb_payload, entry, samples};
    use proptest::prelude::*;

    fn begin(log: &LogManager, tx: u64) -> Lsn {
        log.append(TxId(tx), Lsn::NULL, RecKind::RedoOnly, LogPayload::TxBegin)
    }

    /// `get` returns what was appended under the LSN `append`
    /// returned, and the header view agrees with it field by field.
    fn assert_stored(log: &LogManager, lsn: Lsn, want: &LogRecord) {
        let got = log.get(lsn).expect("appended record");
        assert_eq!(got.lsn, lsn);
        assert_eq!(
            (got.tx, got.prev, got.kind, &got.payload),
            (want.tx, want.prev, want.kind, &want.payload)
        );
        let head = log.header(lsn).expect("appended record");
        assert_eq!(
            (head.lsn, head.tx, head.prev, head.kind, head.tag),
            (lsn, got.tx, got.prev, got.kind, got.payload.tag())
        );
    }

    proptest! {
        #[test]
        fn append_then_get_roundtrips(
            tx in any::<u64>(),
            prev in any::<u64>(),
            kind in arb_kind(),
            payload in arb_payload()
        ) {
            let log = LogManager::new();
            begin(&log, 0);
            let want = LogRecord { lsn: Lsn::NULL, tx: TxId(tx), prev: Lsn(prev), kind, payload };
            let lsn = log.append(want.tx, want.prev, want.kind, want.payload.clone());
            prop_assert_eq!(lsn, Lsn(2));
            assert_stored(&log, lsn, &want);
        }
    }

    #[test]
    fn every_variant_roundtrips_through_a_slot() {
        let log = LogManager::new();
        let mut stored = 0;
        for (i, want) in samples().into_iter().enumerate() {
            let lsn = log.append(want.tx, want.prev, want.kind, want.payload.clone());
            assert_eq!(lsn, Lsn(i as u64 + 1));
            assert_stored(&log, lsn, &want);
            // A follower storing the same bytes gets the same record.
            let mut bytes = Vec::new();
            encode_record(&log.get(lsn).unwrap(), &mut bytes);
            stored += bytes.len() as u64;
            let mirror = LogManager::new();
            for _ in 1..lsn.0 {
                begin(&mirror, 0);
            }
            assert_eq!(mirror.append_encoded(&bytes).unwrap(), lsn);
            assert_eq!(mirror.get(lsn), log.get(lsn));
            // Off by one position, the mirror reports the divergence
            // and still keeps its own log dense.
            assert!(mirror.append_encoded(&bytes).is_err());
            assert_eq!(mirror.get(Lsn(lsn.0 + 1)).unwrap().lsn, Lsn(lsn.0 + 1));
            assert!(mirror.append_encoded(&bytes[..20]).is_err());
            assert_eq!(mirror.tail_lsn(), Lsn(lsn.0 + 1));
        }
        assert_eq!(log.stats.bytes.get(), stored);
        assert_eq!(log.resident_bytes(), stored + log.directory_bytes());
        assert_eq!(
            log.directory_bytes(),
            SEGMENT_SLOTS * std::mem::size_of::<Slot>() as u64
        );
    }

    /// Everything `log` can be read through, for LSNs `1..=txs.len()`:
    /// `get`, `header`, both iterators and the range copy.
    fn assert_reads(log: &LogManager, txs: &[u64]) {
        let n = txs.len() as u64;
        assert_eq!(log.tail_lsn(), Lsn(n));
        for (i, &tx) in txs.iter().enumerate() {
            let lsn = Lsn(i as u64 + 1);
            let rec = log.get(lsn).unwrap();
            assert_eq!((rec.lsn, rec.tx), (lsn, TxId(tx)));
            let head = log.header(lsn).unwrap();
            assert_eq!((head.lsn, head.tx), (lsn, TxId(tx)));
        }
        assert!(log.get(Lsn(n + 1)).is_none() && log.header(Lsn(n + 1)).is_none());
        let want: Vec<(Lsn, TxId)> = (1..=n).map(Lsn).zip(txs.iter().map(|&t| TxId(t))).collect();
        let via_iter: Vec<_> = log.iter_from(Lsn::NULL).map(|r| (r.lsn, r.tx)).collect();
        assert_eq!(via_iter, want);
        let via_headers: Vec<_> = log.headers_from(Lsn::NULL).map(|h| (h.lsn, h.tx)).collect();
        assert_eq!(via_headers, want);
        let mut blob = Vec::new();
        let (count, last) =
            log.copy_range(Lsn::NULL, Lsn(u64::MAX), usize::MAX, usize::MAX, &mut blob);
        assert_eq!((count as u64, last), (n, Lsn(n)));
        let via_copy: Vec<_> = decode_records(&blob, count)
            .expect("copied bytes decode")
            .iter()
            .map(|r| (r.lsn, r.tx))
            .collect();
        assert_eq!(via_copy, want);
    }

    #[test]
    fn every_reader_sees_the_new_epoch_after_a_crash() {
        let log = LogManager::new();
        let mut txs: Vec<u64> = (0..100).collect();
        for &tx in &txs {
            begin(&log, tx);
        }
        log.flush_to(Lsn(60));
        log.crash();
        txs.truncate(60);
        assert_reads(&log, &txs);
        for tx in 1000..1050 {
            // Different bytes, not only a different tx: the burned
            // slots held `TxBegin`s.
            let lsn = log.append(TxId(tx), Lsn::NULL, RecKind::RedoOnly, LogPayload::TxEnd);
            assert_eq!(lsn.0, txs.len() as u64 + 1);
            txs.push(tx);
        }
        assert_reads(&log, &txs);
        assert_eq!(log.get(Lsn(61)).unwrap().payload, LogPayload::TxEnd);

        // Again with nothing flushed in between: the second crash
        // replaces the burned epoch instead of stacking another.
        log.crash();
        assert_eq!(log.epochs.read().len(), 2);
        txs.truncate(60);
        assert_reads(&log, &txs);
        for tx in 2000..2050 {
            log.append(TxId(tx), Lsn::NULL, RecKind::RedoOnly, LogPayload::TxCommit);
            txs.push(tx);
        }
        assert_reads(&log, &txs);
        assert_eq!(log.get(Lsn(110)).unwrap().payload, LogPayload::TxCommit);
        // The burned slots still hold their bytes.
        assert_eq!(log.resident_records(), 200);
    }

    /// A payload whose size depends on `i`: nothing, a row image, or a
    /// leaf's worth of keys.
    fn mixed(i: u64) -> LogPayload {
        match i % 3 {
            0 => LogPayload::TxBegin,
            1 => LogPayload::HeapInsert {
                table: mohan_common::TableId(1),
                rid: mohan_common::Rid::new(i as u32, 0),
                data: vec![i as u8; (i % 97) as usize],
                visible_indexes: 0,
            },
            _ => LogPayload::IndexBulkInsert {
                index: mohan_common::IndexId(1),
                entries: (0..i % 5).map(|k| entry(k as i64, k)).collect(),
            },
        }
    }

    /// Appends race a header walk: whatever prefix the walk sees is
    /// dense and in order, and in the end nothing is missing. (No
    /// sleeps: the walker runs flat out until the appenders are done.)
    #[test]
    fn header_walk_races_appenders() {
        const THREADS: u64 = 4;
        const PER: u64 = 50_000;
        let log = LogManager::new();
        let done = AtomicBool::new(false);
        let start = std::sync::Barrier::new(THREADS as usize + 1);
        let walk = |log: &LogManager| {
            let mut seen = 0u64;
            for head in log.headers_from(Lsn::NULL) {
                seen += 1;
                assert_eq!(head.lsn, Lsn(seen), "header out of position");
                assert!(head.tx.0 < THREADS);
            }
            seen
        };
        std::thread::scope(|s| {
            let appenders: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (log, start) = (&log, &start);
                    s.spawn(move || {
                        start.wait();
                        for i in 0..PER {
                            log.append(TxId(t), Lsn::NULL, RecKind::UndoRedo, mixed(i));
                        }
                    })
                })
                .collect();
            let walker = s.spawn(|| {
                start.wait();
                let mut walks = 0u64;
                while !done.load(Ordering::Acquire) {
                    let seen = walk(&log);
                    assert!(seen <= THREADS * PER);
                    walks += 1;
                }
                walks
            });
            for a in appenders {
                a.join().unwrap();
            }
            done.store(true, Ordering::Release);
            assert!(walker.join().unwrap() >= 1);
        });
        assert_eq!(walk(&log), THREADS * PER);
    }

    #[test]
    fn range_copy_equals_what_get_returns() {
        let log = LogManager::new();
        for i in 0..300u64 {
            log.append(TxId(i), Lsn(i / 2), RecKind::UndoRedo, mixed(i));
        }
        log.flush_to(Lsn(200));
        let check = |after: u64, through: u64, max_records: usize, max_bytes: usize| {
            let mut out = vec![0xAA; 3]; // appended to, not overwritten
            let (count, last) =
                log.copy_range(Lsn(after), Lsn(through), max_records, max_bytes, &mut out);
            assert_eq!(&out[..3], &[0xAA; 3]);
            let want: Vec<LogRecord> = (after + 1..=after + count as u64)
                .map(|l| log.get(Lsn(l)).unwrap())
                .collect();
            assert_eq!(decode_records(&out[3..], count).expect("decodes"), want);
            assert_eq!(last, want.last().map_or(Lsn::NULL, |r| r.lsn));
            (count, out.len() - 3)
        };
        // Whole log; from the middle; up to the flushed mark.
        assert_eq!(check(0, u64::MAX, usize::MAX, usize::MAX).0, 300);
        assert_eq!(check(123, u64::MAX, usize::MAX, usize::MAX).0, 177);
        assert_eq!(
            check(150, log.flushed_lsn().0, usize::MAX, usize::MAX).0,
            50
        );
        assert_eq!(check(200, log.flushed_lsn().0, usize::MAX, usize::MAX).0, 0);
        assert_eq!(check(300, u64::MAX, usize::MAX, usize::MAX), (0, 0));
        // A record count.
        assert_eq!(check(17, u64::MAX, 10, usize::MAX).0, 10);
        // A byte budget: never exceeded by more than one record, and
        // the next record would not have fitted.
        for budget in [1, 30, 100, 1000, 5000] {
            let (count, bytes) = check(40, u64::MAX, usize::MAX, budget);
            assert!(count >= 1, "the first record always travels");
            assert!(count == 1 || bytes <= budget);
            let (_, with_next) = check(40, u64::MAX, count + 1, usize::MAX);
            assert!(with_next > budget);
        }
    }

    #[test]
    fn appends_under_sampled_ctx_are_tagged_and_crash_prunes() {
        let log = LogManager::new();
        begin(&log, 1); // untraced → no tag
        let ctx = mohan_obs::TraceCtx {
            trace_id: 0xabcd,
            span_id: 0,
            sampled: true,
        };
        {
            let _g = mohan_obs::install_ctx(ctx);
            begin(&log, 2); // lsn 2, tagged
            begin(&log, 3); // lsn 3, tagged
        }
        {
            let _g = mohan_obs::install_ctx(mohan_obs::TraceCtx {
                sampled: false,
                ..ctx
            });
            begin(&log, 4); // unsampled → no tag
        }
        assert_eq!(log.trace_tags_for(1, 10), vec![(2, 0xabcd), (3, 0xabcd)]);
        assert_eq!(log.trace_tags_for(3, 3), vec![(3, 0xabcd)]);
        assert!(log.trace_tags_for(5, 10).is_empty());
        // Crash with lsn 2 durable: the tag for burned lsn 3 must go.
        log.flush_to(Lsn(2));
        log.crash();
        assert_eq!(log.trace_tags_for(1, 10), vec![(2, 0xabcd)]);
    }

    #[test]
    fn lsns_are_dense_from_one() {
        let log = LogManager::new();
        assert_eq!(begin(&log, 1), Lsn(1));
        assert_eq!(begin(&log, 2), Lsn(2));
        assert_eq!(log.tail_lsn(), Lsn(2));
    }

    #[test]
    fn crash_truncates_to_flushed_prefix() {
        let log = LogManager::new();
        begin(&log, 1);
        begin(&log, 2);
        log.flush_to(Lsn(1));
        begin(&log, 3);
        log.crash();
        assert_eq!(log.tail_lsn(), Lsn(1));
        assert!(log.get(Lsn(2)).is_none());
        assert_eq!(log.get(Lsn(1)).unwrap().tx, TxId(1));
    }

    #[test]
    fn flush_is_monotone() {
        let log = LogManager::new();
        begin(&log, 1);
        begin(&log, 1);
        log.flush_to(Lsn(2));
        log.flush_to(Lsn(1)); // no-op, must not regress
        assert_eq!(log.flushed_lsn(), Lsn(2));
    }

    #[test]
    fn prev_chain_walk() {
        let log = LogManager::new();
        let l1 = begin(&log, 7);
        let l2 = log.append(
            TxId(7),
            l1,
            RecKind::UndoRedo,
            LogPayload::Checkpoint {
                redo_start: Lsn::NULL,
            },
        );
        let rec = log.get(l2).unwrap();
        assert_eq!(rec.prev, l1);
        assert_eq!(log.get(rec.prev).unwrap().lsn, l1);
    }

    #[test]
    fn flush_beyond_tail_clamps_instead_of_hanging() {
        let log = LogManager::new();
        begin(&log, 1);
        begin(&log, 2);
        // An LSN far beyond anything appended must not spin forever;
        // it clamps to the appended tail.
        log.flush_to(Lsn(1_000_000));
        assert_eq!(log.flushed_lsn(), Lsn(2));
        // And on an empty log it is a no-op.
        let empty = LogManager::new();
        empty.flush_to(Lsn(42));
        assert_eq!(empty.flushed_lsn(), Lsn::NULL);
    }

    #[test]
    fn ib_attribution() {
        let log = LogManager::new();
        log.register_ib_tx(TxId(99));
        begin(&log, 1);
        begin(&log, 99);
        assert_eq!(log.stats.records.get(), 2);
        assert_eq!(log.stats.ib_records.get(), 1);
        assert!(log.stats.ib_bytes.get() > 0);
    }

    #[test]
    fn concurrent_appends_get_unique_lsns() {
        let log = Arc::new(LogManager::new());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let log = Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                (0..100).map(|_| begin(&log, t).0).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 400);
    }

    #[test]
    fn appends_cross_segment_boundaries() {
        let log = LogManager::new();
        let n = SEGMENT_SLOTS + 5;
        for i in 0..n {
            begin(&log, i);
        }
        assert_eq!(log.tail_lsn(), Lsn(n));
        assert!(log.stats.segment_allocs.get() >= 2);
        // Reads across the boundary.
        let boundary = SEGMENT_SLOTS;
        assert_eq!(log.get(Lsn(boundary)).unwrap().tx, TxId(boundary - 1));
        assert_eq!(log.get(Lsn(boundary + 1)).unwrap().tx, TxId(boundary));
        let suffix: Vec<LogRecord> = log.iter_from(Lsn(boundary - 1)).collect();
        assert_eq!(suffix.len(), 6);
        assert_eq!(suffix[0].lsn, Lsn(boundary));
    }

    #[test]
    fn crash_mid_segment_keeps_earlier_segments() {
        let log = LogManager::new();
        let n = SEGMENT_SLOTS + 10;
        for i in 0..n {
            begin(&log, i);
        }
        let cut = SEGMENT_SLOTS + 3;
        log.flush_to(Lsn(cut));
        log.crash();
        assert_eq!(log.tail_lsn(), Lsn(cut));
        assert_eq!(log.get(Lsn(cut)).unwrap().tx, TxId(cut - 1));
        assert!(log.get(Lsn(cut + 1)).is_none());
        // New appends reuse the truncated LSN range densely.
        assert_eq!(begin(&log, 77), Lsn(cut + 1));
    }

    #[test]
    fn repeated_crashes_keep_old_records_readable() {
        let log = LogManager::new();
        for i in 0..10 {
            begin(&log, i);
        }
        log.flush_to(Lsn(4));
        log.crash(); // burns LSNs 5..=10
        assert_eq!(begin(&log, 100), Lsn(5));
        begin(&log, 101);
        log.flush_to(Lsn(6));
        begin(&log, 102);
        log.crash(); // burns LSN 7
                     // Records from three different epochs all resolve.
        assert_eq!(log.get(Lsn(3)).unwrap().tx, TxId(2));
        assert_eq!(log.get(Lsn(5)).unwrap().tx, TxId(100));
        assert_eq!(log.get(Lsn(6)).unwrap().tx, TxId(101));
        assert!(log.get(Lsn(7)).is_none());
        assert_eq!(begin(&log, 103), Lsn(7));
        assert_eq!(log.iter_from(Lsn::NULL).count(), 7);
        assert_eq!(log.tail_lsn(), Lsn(7));
    }

    #[test]
    fn crash_with_nothing_flushed_resets_to_empty() {
        let log = LogManager::new();
        begin(&log, 1);
        begin(&log, 2);
        log.crash();
        assert_eq!(log.tail_lsn(), Lsn::NULL);
        assert!(log.get(Lsn(1)).is_none());
        assert_eq!(begin(&log, 3), Lsn(1));
        assert_eq!(log.get(Lsn(1)).unwrap().tx, TxId(3));
    }

    #[test]
    fn single_threaded_flushes_never_coalesce() {
        let log = LogManager::new();
        begin(&log, 1);
        begin(&log, 1);
        log.flush_to(Lsn(1));
        log.flush_to(Lsn(2));
        log.flush_to(Lsn(2));
        assert_eq!(log.stats.flushes.get(), 2);
        assert_eq!(log.stats.group_flush_coalesced.get(), 0);
    }

    #[test]
    fn concurrent_flushes_reach_tail_and_account_every_call() {
        let log = Arc::new(LogManager::new());
        let threads = 8u64;
        let per = 50u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    for _ in 0..per {
                        let lsn = begin(&log, t);
                        log.flush_to(lsn);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let tail = threads * per;
        assert_eq!(log.tail_lsn(), Lsn(tail));
        assert_eq!(log.flushed_lsn(), Lsn(tail));
        // Every flush_to call either advanced the prefix itself, was
        // absorbed into a leader's group flush, or returned early
        // because its target was already durable; never more forces
        // than calls.
        let forces = log.stats.flushes.get();
        let coalesced = log.stats.group_flush_coalesced.get();
        assert!(forces >= 1);
        assert!(forces + coalesced <= threads * per);
    }

    /// The stored size of records `from..=to`, as `get` reads them back.
    fn stored_bytes(log: &LogManager, from: u64, to: u64) -> u64 {
        let mut buf = Vec::new();
        (from..=to)
            .map(|lsn| {
                buf.clear();
                encode_record(&log.get(Lsn(lsn)).expect("held record"), &mut buf);
                buf.len() as u64
            })
            .sum()
    }

    #[test]
    fn truncation_drops_whole_segments_and_the_gauges_fall_exactly() {
        let log = LogManager::new();
        let n = 3 * SEGMENT_SLOTS + 100;
        for i in 0..n {
            log.append(TxId(i), Lsn::NULL, RecKind::UndoRedo, mixed(i));
        }
        let before = log.resident_bytes();
        assert_eq!(log.resident_records(), n);
        // Nothing past the flushed mark goes.
        log.flush_to(Lsn(SEGMENT_SLOTS + 10));
        assert_eq!(log.truncate_below(Lsn(n)), Lsn(SEGMENT_SLOTS + 11));
        assert_eq!(log.first_lsn(), Lsn(SEGMENT_SLOTS + 11));
        // One whole segment went; the records below the first LSN in
        // the second stay in memory, unreadable.
        assert_eq!(log.stats.truncated_records.get(), SEGMENT_SLOTS);
        assert_eq!(log.resident_records(), n - SEGMENT_SLOTS);
        assert_eq!(
            log.directory_bytes(),
            3 * SEGMENT_SLOTS * std::mem::size_of::<Slot>() as u64
        );
        assert!(log.resident_bytes() < before);
        assert!(log.get(Lsn(SEGMENT_SLOTS + 10)).is_none());
        assert!(log.header(Lsn(1)).is_none());
        assert_eq!(
            log.get(Lsn(SEGMENT_SLOTS + 11)).unwrap().lsn,
            Lsn(SEGMENT_SLOTS + 11)
        );
        // Every reader starting below the first LSN gets nothing; from
        // just below it, everything held.
        assert_eq!(log.iter_from(Lsn::NULL).count(), 0);
        assert_eq!(log.headers_from(Lsn(5)).count(), 0);
        let mut out = Vec::new();
        assert_eq!(
            log.copy_range(Lsn(5), Lsn(u64::MAX), 10, usize::MAX, &mut out),
            (0, Lsn::NULL)
        );
        assert!(out.is_empty());
        let first = log.first_lsn().0;
        assert_eq!(
            log.headers_from(Lsn(first - 1)).count() as u64,
            n - first + 1
        );

        // Everything flushed goes; the gauges count exactly what is held.
        log.flush_all();
        assert_eq!(log.truncate_below(Lsn(u64::MAX)), Lsn(n + 1));
        assert_eq!(log.resident_records(), n % SEGMENT_SLOTS);
        assert_eq!(
            log.resident_bytes(),
            log.stats.bytes.get() - log.stats.truncated_bytes.get() + log.directory_bytes()
        );
        // New records are appended and read as ever.
        let lsn = begin(&log, 7);
        assert_eq!(lsn, Lsn(n + 1));
        assert_eq!(log.get(lsn).unwrap().tx, TxId(7));
        let held_from = n - n % SEGMENT_SLOTS + 1;
        log.flush_all();
        assert_eq!(
            log.resident_bytes() - log.directory_bytes(),
            log.stats.bytes.get() - log.stats.truncated_bytes.get()
        );
        assert!(log.resident_bytes() - log.directory_bytes() > stored_bytes(&log, n + 1, n + 1));
        assert_eq!(log.resident_records(), n + 1 - held_from + 1);
    }

    #[test]
    fn a_pin_holds_truncation_below_it() {
        let log = LogManager::new();
        for i in 0..3 * SEGMENT_SLOTS {
            begin(&log, i);
        }
        log.flush_all();
        let pin = log.pin(Lsn(10)).expect("nothing truncated yet");
        assert_eq!(log.truncate_below(Lsn(u64::MAX)), Lsn(10));
        assert_eq!(
            log.stats.truncated_records.get(),
            0,
            "LSN 10 shares segment 0"
        );
        pin.advance(Lsn(SEGMENT_SLOTS + 1));
        pin.advance(Lsn(5)); // a pin never moves back
        assert_eq!(log.truncate_below(Lsn(u64::MAX)), Lsn(SEGMENT_SLOTS + 1));
        // Below the first LSN nothing can be pinned any more.
        assert!(log.pin(Lsn(SEGMENT_SLOTS)).is_none());
        let second = log.pin(Lsn(SEGMENT_SLOTS + 1)).expect("at the first LSN");
        drop(pin);
        assert_eq!(log.truncate_below(Lsn(u64::MAX)), Lsn(SEGMENT_SLOTS + 1));
        drop(second);
        assert_eq!(
            log.truncate_below(Lsn(u64::MAX)),
            Lsn(3 * SEGMENT_SLOTS + 1)
        );
    }

    #[test]
    fn a_crash_after_truncation_keeps_the_flushed_records_it_held() {
        let log = LogManager::new();
        for i in 0..2 * SEGMENT_SLOTS {
            begin(&log, i);
        }
        log.flush_to(Lsn(SEGMENT_SLOTS + 50));
        log.truncate_below(Lsn(u64::MAX));
        assert_eq!(log.first_lsn(), Lsn(SEGMENT_SLOTS + 51));
        log.crash();
        assert_eq!(log.tail_lsn(), Lsn(SEGMENT_SLOTS + 50));
        // Appends go on from the flushed mark into fresh slots, the
        // burned ones among the records a later truncation frees.
        for i in 0..2 * SEGMENT_SLOTS {
            let lsn = begin(&log, 1_000_000 + i);
            assert_eq!(lsn, Lsn(SEGMENT_SLOTS + 51 + i));
        }
        assert_eq!(
            log.get(Lsn(SEGMENT_SLOTS + 51)).unwrap().tx,
            TxId(1_000_000)
        );
        log.flush_all();
        let appended = log.stats.records.get();
        assert_eq!(
            log.truncate_below(Lsn(u64::MAX)),
            Lsn(3 * SEGMENT_SLOTS + 51)
        );
        assert_eq!(
            log.resident_records(),
            appended - log.stats.truncated_records.get()
        );
        assert_eq!(begin(&log, 9), Lsn(3 * SEGMENT_SLOTS + 51));
        assert_eq!(log.iter_from(Lsn(3 * SEGMENT_SLOTS + 50)).count(), 1);
    }

    /// Appenders race a thread that flushes and truncates everything
    /// durable: no append is lost or misplaced, what is held reads
    /// back, and the counts add up. (No sleeps: the truncator runs flat
    /// out until the appenders are done.)
    #[test]
    fn truncation_races_appenders() {
        const THREADS: u64 = 4;
        const PER: u64 = 20_000;
        /// Counts an appender out when it ends, panicking or not, so
        /// the truncator always stops.
        struct Finished<'a>(&'a AtomicU64);
        impl Drop for Finished<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Release);
            }
        }
        let log = LogManager::new();
        let finished = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (log, finished) = (&log, &finished);
                s.spawn(move || {
                    let _finished = Finished(finished);
                    for i in 0..PER {
                        let lsn = log.append(TxId(t), Lsn::NULL, RecKind::UndoRedo, mixed(i));
                        // Readable, unless already flushed and dropped.
                        if i % 97 == 0 {
                            let head = log.header(lsn);
                            assert!(
                                head.is_some_and(|h| h.lsn == lsn) || lsn < log.first_lsn(),
                                "{lsn} lost"
                            );
                        }
                    }
                });
            }
            let mut rounds = 0u64;
            while finished.load(Ordering::Acquire) < THREADS {
                log.flush_all();
                let first = log.truncate_below(Lsn(u64::MAX));
                assert!(first.0 <= log.flushed_lsn().0 + 1);
                rounds += 1;
            }
            assert!(rounds >= 1);
        });
        let tail = log.tail_lsn().0;
        assert_eq!(tail, THREADS * PER);
        let first = log.first_lsn().0;
        let held: Vec<RecordHeader> = log.headers_from(Lsn(first - 1)).collect();
        assert_eq!(held.len() as u64, tail + 1 - first);
        assert!(held.iter().zip(first..).all(|(h, lsn)| h.lsn == Lsn(lsn)));
        assert_eq!(
            log.resident_records(),
            THREADS * PER - log.stats.truncated_records.get()
        );
    }
}
