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
//! Appends encode, reserve an LSN with a single `fetch_add`, and then
//! publish the bytes into a pre-addressed slot of an
//! exponentially-growing segment directory, so the hot path takes **no
//! lock at all**: one atomic reservation, two atomic loads to
//! translate the LSN to its physical slot, and one write-once slot
//! publish. Durability happens at [`LogManager::flush_to`] /
//! [`LogManager::flush_all`]; concurrent flushers coalesce into one
//! durable-prefix advance (group flush).
//!
//! A simulated crash truncates the log back to the flushed prefix,
//! which is what lets tests observe the difference between, say, SF's
//! unlogged bulk load and NSF's logged inserts. Because slots are
//! write-once (`OnceLock`) and appends never lock the directory, a
//! crash cannot scrub the truncated slots in place; instead it *burns*
//! them: a new epoch remaps the reused logical LSN range onto fresh
//! physical slots and the abandoned ones are reclaimed when the log is
//! dropped. Crash simulation is quiescent by contract — callers join
//! their worker threads before calling [`LogManager::crash`], exactly
//! as a real failure stops all appenders.

use crate::codec::{decode_record, encode_record, RecordHeader, LSN_BYTES};
use crate::record::{LogPayload, LogRecord, RecKind};
use mohan_common::stats::{Counter, StripedCounter};
use mohan_common::{Error, Lsn, Result, TxId};
use mohan_obs::{Histogram, TraceSink};
use parking_lot::{Mutex, RwLock};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Slots in the first log segment; segment `s` holds
/// `SEGMENT_CAP << s` slots, so the directory is a fixed array of
/// [`MAX_SEGMENTS`] lazily-initialized segments covering ~2^40
/// records without ever relocating one.
const SEGMENT_CAP: usize = 1024;

/// Upper bound on directory entries (capacity `SEGMENT_CAP * (2^31 -
/// 1)` slots — unreachable in practice).
const MAX_SEGMENTS: usize = 31;

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
}

/// One run of log slots. Slots are deliberately *not* padded to cache
/// lines: adjacent publishes share a line, but reservation order makes
/// the sharing sequential (at most one handoff per line quarter), and
/// the dense layout keeps the prefetcher effective for appends and
/// scans alike — measured, the padded variant is ~2x slower
/// single-threaded and no faster at 4 threads.
struct Segment {
    slots: Vec<Slot>,
}

impl Segment {
    fn new(cap: usize) -> Segment {
        Segment {
            slots: (0..cap).map(|_| OnceLock::new()).collect(),
        }
    }
}

/// Physical slot address of physical index `phys`: segment sizes
/// double, so the segment is found from the high bit of
/// `phys / SEGMENT_CAP + 1` and the offset by subtracting the slots
/// held by all earlier segments.
fn seg_slot(phys: u64) -> (usize, usize) {
    let t = phys / SEGMENT_CAP as u64 + 1;
    let s = (63 - t.leading_zeros()) as usize;
    let off = (phys - SEGMENT_CAP as u64 * ((1u64 << s) - 1)) as usize;
    (s, off)
}

/// Map a logical record index to its physical slot index given the
/// crash-epoch table (pairs of `(logical_start, physical_start)`,
/// sorted by `logical_start`; the rightmost epoch covering `idx`
/// wins).
fn translate(epochs: &[(u64, u64)], idx: u64) -> u64 {
    let i = epochs.partition_point(|e| e.0 <= idx) - 1;
    idx - epochs[i].0 + epochs[i].1
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
    /// Directory of doubling-size segments, initialized on first
    /// touch. Entries are write-once, so lookups are a single acquire
    /// load — appends and reads never lock the directory.
    segs: [OnceLock<Segment>; MAX_SEGMENTS],
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

/// Retained [`LogManager::trace_tags_for`] entries; old tags fall off
/// once the tagged records are this far behind the tail (subscribers
/// that lag further already reconnect through catch-up, which does
/// not replay attribution).
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
            segs: std::array::from_fn(|_| OnceLock::new()),
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
    /// of polling the flushed LSN). The callback runs on the flushing
    /// thread and must be cheap and non-blocking — a wake, not work.
    /// Returns an id for [`LogManager::unregister_flush_waker`].
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

    /// Segment `s`, allocating it on first touch.
    fn segment(&self, s: usize) -> &Segment {
        assert!(s < MAX_SEGMENTS, "log capacity exceeded");
        self.segs[s].get_or_init(|| {
            self.stats.segment_allocs.bump();
            Segment::new(SEGMENT_CAP << s)
        })
    }

    /// Encoding at physical slot `phys`, if published.
    fn slot(&self, phys: u64) -> Option<&[u8]> {
        let (s, off) = seg_slot(phys);
        let seg = self.segs[s].get()?;
        seg.slots[off].get().map(|bytes| &**bytes)
    }

    /// Stored encoding of the record at `lsn`. `None` for the null LSN
    /// or a truncated tail.
    fn stored(&self, lsn: Lsn) -> Option<&[u8]> {
        if !lsn.is_valid() || lsn.0 > self.next.load(Ordering::Acquire) {
            return None;
        }
        let phys = translate(&self.epochs.read(), lsn.0 - 1);
        self.slot(phys)
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
        let start = p;
        while p < next && self.slot(translate(&epochs, p)).is_some() {
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
        let (s, off) = seg_slot(phys);
        let fresh = self.segment(s).slots[off].set(bytes).is_ok();
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
    /// CLR walks: one record at a time). `None` for the null LSN or a
    /// truncated tail.
    #[must_use]
    pub fn get(&self, lsn: Lsn) -> Option<LogRecord> {
        self.stored(lsn).map(decode_stored)
    }

    /// Header of the record at `lsn` — the first 26 bytes (34 for a
    /// CLR) of its slot; the payload is neither read nor allocated.
    #[must_use]
    pub fn header(&self, lsn: Lsn) -> Option<RecordHeader> {
        self.stored(lsn).map(header_of)
    }

    /// Stored encodings of `(after, through]` in LSN order, following
    /// the published tail until it stops moving.
    fn encodings(&self, after: Lsn, through: Lsn) -> Encodings<'_> {
        Encodings {
            log: self,
            epochs: self.epochs.read().clone(),
            idx: after.0,
            end: after.0,
            through: through.0,
        }
    }

    /// Records after `after` in LSN order, each decoded as the
    /// iterator reaches it (restart redo). Follows the published tail:
    /// records appended while the walk runs are visited too.
    pub fn iter_from(&self, after: Lsn) -> impl Iterator<Item = LogRecord> + '_ {
        self.encodings(after, Lsn(u64::MAX)).map(decode_stored)
    }

    /// Headers of the records after `after` in LSN order (restart
    /// analysis): like [`LogManager::iter_from`] without decoding a
    /// payload.
    pub fn headers_from(&self, after: Lsn) -> impl Iterator<Item = RecordHeader> + '_ {
        self.encodings(after, Lsn(u64::MAX)).map(header_of)
    }

    /// Append the stored encodings of `(after, through]` to `out`,
    /// back-to-back — a `WalFrame` body, by copy. Stops at the
    /// published tail, after `max_records` records, or before the
    /// record that would take the bytes added past `max_bytes`; the
    /// first record is always taken, so one larger than the budget
    /// travels alone. Returns the number of records copied and the LSN
    /// of the last ([`Lsn::NULL`] when none).
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
        for bytes in self.encodings(after, through).take(max_records) {
            if count > 0 && out.len() - start + bytes.len() > max_bytes {
                break;
            }
            out.extend_from_slice(bytes);
            count += 1;
        }
        let last = if count == 0 {
            Lsn::NULL
        } else {
            Lsn(after.0 + count as u64)
        };
        (count, last)
    }

    /// Bytes of the slot directory allocated so far (every slot of
    /// every touched segment, filled or not).
    #[must_use]
    pub fn directory_bytes(&self) -> u64 {
        self.segs
            .iter()
            .filter_map(OnceLock::get)
            .map(|seg| (seg.slots.len() * std::mem::size_of::<Slot>()) as u64)
            .sum()
    }

    /// Memory the log holds: every stored encoding plus the slot
    /// directory. Nothing is reclaimed before the log is dropped — the
    /// burned tail of a crashed epoch included — so the stored part is
    /// the running total of appended bytes.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.stats.bytes.get() + self.directory_bytes()
    }

    /// Records the log holds in memory (burned ones included; see
    /// [`LogManager::resident_bytes`]).
    #[must_use]
    pub fn resident_records(&self) -> u64 {
        self.stats.records.get()
    }

    /// Simulated system failure: everything after the flushed prefix
    /// is gone. The truncated logical LSN range is remapped onto fresh
    /// physical slots (a published `OnceLock` slot cannot be un-set in
    /// place); the abandoned slots keep their bytes until the log is
    /// dropped, bounded by the unflushed tail per crash.
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
/// once (it has one entry per crash, and crashes are quiescent), so a
/// step is a slot lookup with no lock; the published tail is re-read
/// only when the cursor catches up with what it last saw.
struct Encodings<'a> {
    log: &'a LogManager,
    epochs: Vec<(u64, u64)>,
    /// Logical index of the next record (= LSN of the last one taken).
    idx: u64,
    /// Published tail as last read, clamped to `through`.
    end: u64,
    through: u64,
}

impl<'a> Iterator for Encodings<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.idx >= self.end {
            self.end = self.log.tail_lsn().0.min(self.through);
            if self.idx >= self.end {
                return None;
            }
        }
        let bytes = self
            .log
            .slot(translate(&self.epochs, self.idx))
            .expect("record below published watermark must be set");
        self.idx += 1;
        Some(bytes)
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
    use crate::codec::tests::{arb_kind, arb_payload, entry, samples};
    use crate::codec::{decode_records, payload_tag};
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
            (lsn, got.tx, got.prev, got.kind, payload_tag(&got.payload))
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
            (SEGMENT_CAP * std::mem::size_of::<Slot>()) as u64
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
    fn seg_slot_addresses_doubling_segments() {
        assert_eq!(seg_slot(0), (0, 0));
        assert_eq!(seg_slot(SEGMENT_CAP as u64 - 1), (0, SEGMENT_CAP - 1));
        assert_eq!(seg_slot(SEGMENT_CAP as u64), (1, 0));
        assert_eq!(
            seg_slot(3 * SEGMENT_CAP as u64 - 1),
            (1, 2 * SEGMENT_CAP - 1)
        );
        assert_eq!(seg_slot(3 * SEGMENT_CAP as u64), (2, 0));
        assert_eq!(seg_slot(7 * SEGMENT_CAP as u64), (3, 0));
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
        let n = SEGMENT_CAP as u64 + 5;
        for i in 0..n {
            begin(&log, i);
        }
        assert_eq!(log.tail_lsn(), Lsn(n));
        assert!(log.stats.segment_allocs.get() >= 2);
        // Reads across the boundary.
        let boundary = SEGMENT_CAP as u64;
        assert_eq!(log.get(Lsn(boundary)).unwrap().tx, TxId(boundary - 1));
        assert_eq!(log.get(Lsn(boundary + 1)).unwrap().tx, TxId(boundary));
        let suffix: Vec<LogRecord> = log.iter_from(Lsn(boundary - 1)).collect();
        assert_eq!(suffix.len(), 6);
        assert_eq!(suffix[0].lsn, Lsn(boundary));
    }

    #[test]
    fn crash_mid_segment_keeps_earlier_segments() {
        let log = LogManager::new();
        let n = SEGMENT_CAP as u64 + 10;
        for i in 0..n {
            begin(&log, i);
        }
        let cut = SEGMENT_CAP as u64 + 3;
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
}
