//! The log manager.
//!
//! The log keeps bytes, not object graphs: a record is stored as its
//! codec encoding ([`crate::codec`], the format a `WalFrame` carries),
//! written once. Readers decode on demand ([`LogManager::get`],
//! [`LogManager::iter_from`]), parse only the fixed header
//! ([`LogManager::header`], [`LogManager::headers_from`]) or copy the
//! stored bytes ([`LogManager::copy_range`]).
//!
//! Records live in fixed-size segments of [`SEGMENT_SLOTS`] slots. A
//! segment packs its records' encodings back to back into
//! [`CHUNK_BYTES`] chunks of 8-byte words, which it owns; a record may
//! span chunks. A slot is one word: where its record's words start in
//! the segment and how many bytes it has, or zero until it is
//! published. The log is as long as the work since the last
//! checkpoint: once a checkpoint no longer needs the records below some
//! LSN, [`LogManager::truncate_below`] drops every segment that holds
//! only such records, and nothing below [`LogManager::first_lsn`] can
//! be read any more. A reader holds an `Arc` of the segment it reads, so
//! a segment dropped under it stays whole until the reader lets go.
//! Anyone who must read records a checkpoint would drop — a WAL
//! subscriber that has not shipped them yet — holds a [`LogPin`].
//!
//! A dropped segment's chunks go to the log's free list, and an append
//! that needs a chunk takes one from that list before it allocates, so
//! the chunks a log owns never exceed its own high-water mark,
//! whichever threads append and truncate.
//!
//! Appends encode into a per-thread buffer, reserve an LSN with a
//! single `fetch_add`, reserve the record's words with one more on its
//! segment's word cursor, copy the bytes in with plain atomic stores
//! and publish the slot with a release store. The hot path takes **no
//! lock** and allocates nothing: each thread keeps a weak reference to
//! the segment it last appended to, so the directory lock is taken once
//! per thread per segment and the free list's once per chunk. The
//! reference is weak so that a thread that stops appending does not
//! keep a truncated segment's chunks off the free list. Durability
//! happens at [`LogManager::flush_to`] / [`LogManager::flush_all`];
//! concurrent flushers coalesce into one durable-prefix advance (group
//! flush).
//!
//! A simulated crash truncates the log back to the flushed prefix,
//! which is what lets tests observe the difference between, say, SF's
//! unlogged bulk load and NSF's logged inserts. Because a slot is
//! published once and appends never lock the directory, a crash cannot
//! scrub the truncated slots in place; instead it *burns* them: a new
//! epoch remaps the reused logical LSN range onto fresh physical
//! slots, and the abandoned ones go with their segment. Crash
//! simulation is quiescent by contract — callers join their worker
//! threads before calling [`LogManager::crash`], exactly as a real
//! failure stops all appenders.

use crate::codec::{decode_record, encode_record, RecordHeader, LSN_BYTES};
use crate::record::{LogPayload, LogRecord, RecKind, SideFileOp};
use mohan_common::codec::{Cursor, Wire};
use mohan_common::stats::{Counter, StripedCounter};
use mohan_common::{Error, IndexId, Lsn, Result, TxId, WriteAhead};
use mohan_obs::{Histogram, TraceSink};
use parking_lot::{Mutex, RwLock};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

/// [`LogPayload::SideFileAppend`]'s tag byte, which
/// [`LogManager::side_file_appends`] matches in each record's first
/// byte.
const SIDE_FILE_APPEND_TAG: u8 = 15;

/// Slots in a log segment, the unit the log is allocated and freed in.
pub const SEGMENT_SLOTS: u64 = 4096;

/// Bytes in a chunk, the unit a segment stores its records' bytes in
/// and the log reuses.
pub const CHUNK_BYTES: usize = 64 << 10;

/// Words in a chunk.
const CHUNK_WORDS: usize = CHUNK_BYTES / 8;

/// A chunk: words a segment packs record bytes into, native-endian.
type Chunk = Box<[AtomicU64; CHUNK_WORDS]>;

/// Chunks in the first block of a segment's chunk table; block `b ≥ 1`
/// holds `FIRST_CHUNKS << (b - 1)`, so each block doubles what the
/// table can address.
const FIRST_CHUNKS: usize = 16;

/// Blocks in a segment's chunk table: together they address 2³² words
/// (32 GiB), every offset a slot can name.
const TABLE_BLOCKS: usize = 16;

/// The longest record header: 26 bytes, 34 for a CLR, read as whole
/// words.
const HEADER_BYTES: usize = 40;

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

/// Encode buffers larger than this are not kept by the per-thread
/// scratch (a catalog snapshot can run to megabytes; a thread that
/// logged one should not hold that much for good).
const SCRATCH_KEEP: usize = 64 << 10;

thread_local! {
    /// Where [`LogManager::append`] encodes and [`LogManager::get`]
    /// copies a record out.
    static SCRATCH: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
    /// The segment this thread last appended to: `(log id, segment
    /// number, segment)`. Weak, so a truncation frees the segment's
    /// chunks whether or not this thread appends again.
    static APPEND_SEGMENT: RefCell<Option<(u64, u64, Weak<Segment>)>> =
        const { RefCell::new(None) };
}

/// Run `f` on the per-thread scratch buffer, emptied.
fn with_scratch<R>(f: impl FnOnce(&mut Vec<u8>) -> R) -> R {
    let mut buf = SCRATCH.take();
    buf.clear();
    let r = f(&mut buf);
    if buf.capacity() <= SCRATCH_KEEP {
        SCRATCH.set(buf);
    }
    r
}

/// Source of [`LogManager`] ids, which key the per-thread segment.
static NEXT_LOG_ID: AtomicU64 = AtomicU64::new(0);

/// The chunks a log owns and no segment holds.
#[derive(Default)]
struct ChunkPool {
    free: Mutex<Vec<Chunk>>,
    /// Chunks allocated so far: none is ever handed back to the
    /// allocator while the log lives.
    owned: AtomicU64,
}

impl ChunkPool {
    /// A free chunk, or a new one when none is free. Its words hold
    /// whatever its last segment left there.
    fn take(&self) -> Chunk {
        if let Some(chunk) = self.free.lock().pop() {
            return chunk;
        }
        self.owned.fetch_add(1, Ordering::Relaxed);
        (0..CHUNK_WORDS)
            .map(|_| AtomicU64::new(0))
            .collect::<Box<[AtomicU64]>>()
            .try_into()
            .expect("CHUNK_WORDS words")
    }
}

/// Where a published record lies in its segment.
#[derive(Clone, Copy)]
struct Extent {
    /// First word.
    word: u64,
    /// Length in bytes.
    len: usize,
}

/// Block and index within it of chunk `c` in a segment's chunk table.
fn locate(c: usize) -> (usize, usize) {
    if c < FIRST_CHUNKS {
        return (0, c);
    }
    let b = (c / FIRST_CHUNKS).ilog2() as usize + 1;
    (b, c - (FIRST_CHUNKS << (b - 1)))
}

/// Chunks in block `b` of a segment's chunk table.
fn block_len(b: usize) -> usize {
    FIRST_CHUNKS << b.saturating_sub(1)
}

/// One run of [`SEGMENT_SLOTS`] log slots and the chunks their records'
/// bytes are packed into. Slots are deliberately *not* padded to cache
/// lines: adjacent publishes share a line, but reservation order makes
/// the sharing sequential, and the dense layout keeps the prefetcher
/// effective for appends and scans alike.
struct Segment {
    /// `(first word << 32) | byte length` of each slot's record; zero
    /// until published (no record is empty).
    slots: Box<[AtomicU64]>,
    /// Words reserved so far.
    cursor: Pad<AtomicU64>,
    /// Chunk `c` of the segment is `table[b][i]` for `(b, i) =
    /// locate(c)`; blocks and chunks are filled in on first touch.
    table: [OnceLock<Box<[OnceLock<Chunk>]>>; TABLE_BLOCKS],
    /// Where the chunks go when the segment is dropped.
    pool: Arc<ChunkPool>,
}

impl Segment {
    fn new(pool: Arc<ChunkPool>) -> Segment {
        Segment {
            slots: (0..SEGMENT_SLOTS).map(|_| AtomicU64::new(0)).collect(),
            cursor: Pad::default(),
            table: Default::default(),
            pool,
        }
    }

    /// Chunk `c`, if an append has filled it in.
    fn chunk(&self, c: usize) -> Option<&Chunk> {
        let (b, i) = locate(c);
        self.table[b].get()?[i].get()
    }

    /// Chunk `c`, taken from the pool on first touch.
    fn chunk_for_append(&self, c: usize) -> &Chunk {
        let (b, i) = locate(c);
        self.table[b].get_or_init(|| (0..block_len(b)).map(|_| OnceLock::new()).collect())[i]
            .get_or_init(|| self.pool.take())
    }

    /// Copy `words` into freshly reserved words of the segment and
    /// publish them as slot `slot`'s record of `len` bytes.
    fn store(&self, slot: usize, words: &[[u8; 8]], len: usize) {
        debug_assert!(len > 0, "an empty record would read as unpublished");
        let n = words.len() as u64;
        let first = self.cursor.fetch_add(n, Ordering::Relaxed);
        assert!(
            first + n <= 1 << 32 && len <= u32::MAX as usize,
            "a log segment addresses 2^32 words and a record 2^32 bytes"
        );
        let mut at = first as usize;
        let mut rest = words;
        while !rest.is_empty() {
            let chunk = self.chunk_for_append(at / CHUNK_WORDS);
            let dst = &chunk[at % CHUNK_WORDS..];
            let (now, later) = rest.split_at(rest.len().min(dst.len()));
            for (w, b) in dst.iter().zip(now) {
                w.store(u64::from_ne_bytes(*b), Ordering::Relaxed);
            }
            at += now.len();
            rest = later;
        }
        // Pairs with the acquire in `record`: a reader that sees the
        // slot sees the words.
        self.slots[slot].store(first << 32 | len as u64, Ordering::Release);
    }

    /// Where slot `slot`'s record lies, once it is published.
    fn record(&self, slot: usize) -> Option<Extent> {
        match self.slots[slot].load(Ordering::Acquire) {
            0 => None,
            v => Some(Extent {
                word: v >> 32,
                len: (v & u64::from(u32::MAX)) as usize,
            }),
        }
    }

    /// Fill `out`, a whole number of words, from the segment's words
    /// from `word` on.
    fn read_words(&self, mut word: usize, out: &mut [u8]) {
        let (mut rest, tail) = out.as_chunks_mut::<8>();
        debug_assert!(tail.is_empty());
        while !rest.is_empty() {
            let chunk = self
                .chunk(word / CHUNK_WORDS)
                .expect("a published record's chunks are filled in");
            let src = &chunk[word % CHUNK_WORDS..];
            let (now, later) = rest.split_at_mut(rest.len().min(src.len()));
            for (b, w) in now.iter_mut().zip(src) {
                *b = w.load(Ordering::Relaxed).to_ne_bytes();
            }
            word += now.len();
            rest = later;
        }
    }

    /// Append the record at `at` to `out`.
    fn read_into(&self, at: Extent, out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + at.len.next_multiple_of(8), 0);
        self.read_words(at.word as usize, &mut out[start..]);
        out.truncate(start + at.len);
    }

    /// The payload tag of the record at `at`: its first byte.
    fn tag(&self, at: Extent) -> u8 {
        let mut word = [0u8; 8];
        self.read_words(at.word as usize, &mut word);
        word[0]
    }

    /// The header of the record at `at`, read without its payload.
    fn header(&self, at: Extent) -> RecordHeader {
        let mut head = [0u8; HEADER_BYTES];
        let n = at.len.min(HEADER_BYTES);
        self.read_words(at.word as usize, &mut head[..n.next_multiple_of(8)]);
        header_of(&head[..n])
    }
}

impl Drop for Segment {
    fn drop(&mut self) {
        let mut free = self.pool.free.lock();
        for block in self.table.iter_mut().filter_map(OnceLock::get_mut) {
            free.extend(block.iter_mut().filter_map(OnceLock::take));
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
    /// The segment holding physical slot `phys` and the slot's index in
    /// it, or `None` if that segment is not held (dropped by
    /// truncation, or not yet allocated).
    fn slot(&mut self, dir: &RwLock<Directory>, phys: u64) -> Option<(&Segment, usize)> {
        let no = phys / SEGMENT_SLOTS;
        if self.0.as_ref().map(|(n, _)| *n) != Some(no) {
            self.0 = Some((no, dir.read().get(no)?));
        }
        let (_, seg) = self.0.as_ref()?;
        Some((seg, (phys % SEGMENT_SLOTS) as usize))
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
    /// Records appended by index-builder transactions. The log does
    /// not know whose transaction a record is: the engine counts them
    /// as it chains each builder record.
    pub ib_records: Counter,
    /// Flush (force) calls that actually advanced the durable prefix.
    pub flushes: Counter,
    /// Flush calls whose target became durable via another caller's
    /// group flush (the caller waited instead of forcing again).
    pub group_flush_coalesced: Counter,
    /// Records freed by truncation (burned ones included).
    pub truncated_records: Counter,
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
    /// The chunks no segment holds, and the count of all the log owns.
    pool: Arc<ChunkPool>,
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
    /// Highest LSN guaranteed durable. Invariant: `flushed <=
    /// published` — the durable prefix never contains a hole.
    flushed: Pad<AtomicU64>,
    /// Highest LSN any flusher has asked for; the group-flush leader
    /// forces up to this point on behalf of everyone waiting.
    flush_request: Pad<AtomicU64>,
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
            pool: Arc::default(),
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
            flushed: Pad(AtomicU64::new(0)),
            flush_request: Pad(AtomicU64::new(0)),
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

    /// Segment `no` for an append, allocating it (and any before it a
    /// racing appender has not allocated yet) on first touch. The
    /// allocation happens outside the directory lock.
    fn segment_for_append(&self, no: u64) -> Arc<Segment> {
        loop {
            if let Some(seg) = self.dir.read().get(no) {
                return seg;
            }
            let fresh = Arc::new(Segment::new(Arc::clone(&self.pool)));
            let mut dir = self.dir.write();
            assert!(
                no >= dir.base,
                "append into segment {no}, below the truncation point"
            );
            if dir.end() <= no {
                dir.segs.push_back(fresh);
            }
        }
    }

    /// Lowest LSN the log holds: everything below it was truncated.
    #[must_use]
    pub fn first_lsn(&self) -> Lsn {
        Lsn(self.first.load(Ordering::Acquire))
    }

    /// Segment `no` for this thread's append: the one it last appended
    /// to while that one lives, else the directory's.
    fn append_segment(&self, no: u64) -> Arc<Segment> {
        APPEND_SEGMENT.with(|cached| {
            let mut cached = cached.borrow_mut();
            if let Some((log, n, seg)) = &*cached {
                if (*log, *n) == (self.id, no) {
                    if let Some(seg) = seg.upgrade() {
                        return seg;
                    }
                }
            }
            let seg = self.segment_for_append(no);
            *cached = Some((self.id, no, Arc::downgrade(&seg)));
            seg
        })
    }

    /// Run `f` on the segment and extent of the record at `lsn`. `None`
    /// for the null LSN, a truncated record or a truncated tail.
    fn with_stored<R>(&self, lsn: Lsn, f: impl FnOnce(&Segment, Extent) -> R) -> Option<R> {
        if lsn < self.first_lsn() || lsn.0 > self.next.load(Ordering::Acquire) {
            return None;
        }
        let phys = translate(&self.epochs.read(), lsn.0 - 1);
        let mut segs = SegmentCursor::default();
        let (seg, slot) = segs.slot(&self.dir, phys)?;
        seg.record(slot).map(|at| f(seg, at))
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
                .is_some_and(|(seg, slot)| seg.record(slot).is_some())
        {
            p += 1;
        }
        if p > start {
            self.published.fetch_max(p, Ordering::AcqRel);
        }
    }

    /// Append a record and return its LSN. LSNs are dense and start
    /// at 1 (so [`Lsn::NULL`] never names a record). The record is
    /// encoded into the thread's scratch buffer first; the LSN is then
    /// reserved with one `fetch_add`, patched into the bytes, and the
    /// bytes copied into their segment and published without taking
    /// any lock.
    pub fn append(&self, tx: TxId, prev: Lsn, kind: RecKind, payload: LogPayload) -> Lsn {
        // Encode *before* reserving: every instruction between
        // reservation and publish is a hole in the log that flushers
        // must wait out (fatal if this thread is descheduled in that
        // window), so the encode and the release of the payload's own
        // buffers stay outside it.
        let rec = LogRecord {
            lsn: Lsn::NULL,
            tx,
            prev,
            kind,
            payload,
        };
        with_scratch(|bytes| {
            encode_record(&rec, bytes);
            drop(rec);
            self.publish(bytes)
        })
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
        let lsn = with_scratch(|bytes| {
            bytes.extend_from_slice(encoded);
            self.publish(bytes)
        });
        if lsn != header.lsn {
            return Err(Error::Corruption(format!(
                "log mirror diverged: local {} vs primary {}",
                lsn.0, header.lsn.0
            )));
        }
        Ok(lsn)
    }

    /// Pad `bytes` to whole words, reserve the next LSN, stamp it in
    /// and publish the record.
    fn publish(&self, bytes: &mut Vec<u8>) -> Lsn {
        let size = bytes.len() as u64;
        bytes.resize(bytes.len().next_multiple_of(8), 0);
        let idx = self.next.fetch_add(1, Ordering::AcqRel);
        let lsn = Lsn(idx + 1);
        bytes[LSN_BYTES].copy_from_slice(&lsn.0.to_be_bytes());
        let phys = idx - self.epoch_logical.load(Ordering::Acquire)
            + self.epoch_physical.load(Ordering::Acquire);
        let (no, off) = (phys / SEGMENT_SLOTS, (phys % SEGMENT_SLOTS) as usize);
        let seg = self.append_segment(no);
        debug_assert!(
            seg.record(off).is_none(),
            "log slot {phys} double-published"
        );
        seg.store(off, bytes.as_chunks::<8>().0, size as usize);
        self.stats.records.bump();
        self.stats.bytes.add(size);
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
        self.with_stored(lsn, |seg, at| {
            with_scratch(|bytes| {
                seg.read_into(at, bytes);
                decode_stored(bytes)
            })
        })
    }

    /// Header of the record at `lsn` — the first 26 bytes (34 for a
    /// CLR) of its encoding; the payload is neither read nor allocated.
    #[must_use]
    pub fn header(&self, lsn: Lsn) -> Option<RecordHeader> {
        self.with_stored(lsn, |seg, at| seg.header(at))
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
        let mut bytes = Vec::new();
        std::iter::from_fn(move || {
            let (seg, at) = walk.next()?;
            bytes.clear();
            seg.read_into(at, &mut bytes);
            Some(decode_stored(&bytes))
        })
    }

    /// `index`'s side-file entries — its [`LogPayload::SideFileAppend`]
    /// records — in `(after, through]`, in LSN order: the SF drain's
    /// read. Each record's tag byte is read in place; an append is
    /// copied out and read field by field where it lies in the copy —
    /// its header skipped, its index id compared — and only the
    /// operation of one of `index`'s is decoded. Nothing when `after`
    /// is below [`LogManager::first_lsn`] − 1.
    pub fn side_file_appends(
        &self,
        index: IndexId,
        after: Lsn,
        through: Lsn,
    ) -> impl Iterator<Item = SideFileOp> + '_ {
        let mut walk = self.walk(after, through);
        let mut bytes = Vec::new();
        std::iter::from_fn(move || loop {
            let (seg, at) = walk.next()?;
            if seg.tag(at) != SIDE_FILE_APPEND_TAG {
                continue;
            }
            bytes.clear();
            seg.read_into(at, &mut bytes);
            let mut c = Cursor::new(&bytes);
            let of = RecordHeader::get(&mut c).and_then(|_| IndexId::get(&mut c));
            if of.expect("log slot holds a well-formed record") == index {
                let op = SideFileOp::get(&mut c);
                return Some(op.expect("log slot holds a well-formed record"));
            }
        })
    }

    /// Headers of the records after `after` in LSN order (restart
    /// analysis): like [`LogManager::iter_from`] without decoding a
    /// payload.
    pub fn headers_from(&self, after: Lsn) -> impl Iterator<Item = RecordHeader> + '_ {
        let mut walk = self.walk(after, Lsn(u64::MAX));
        std::iter::from_fn(move || walk.next().map(|(seg, at)| seg.header(at)))
    }

    /// Append the stored encodings of `(after, through]` to `out`,
    /// back-to-back — a `WalFrame` body, copied straight out of the
    /// chunks. Stops at the published tail, after `max_records`
    /// records, or before the record that would take the bytes added
    /// past `max_bytes`; the first record is always taken, so one
    /// larger than the budget travels alone. Copies nothing when
    /// `after` is below [`LogManager::first_lsn`] − 1. Returns the
    /// number of records copied and the LSN of the last ([`Lsn::NULL`]
    /// when none).
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
            let Some((seg, at)) = walk.next() else { break };
            if count > 0 && out.len() - start + at.len > max_bytes {
                break;
            }
            seg.read_into(at, out);
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
        for seg in &dropped {
            let records = (0..SEGMENT_SLOTS as usize).filter_map(|slot| seg.record(slot));
            self.stats.truncated_records.add(records.count() as u64);
        }
        // Each segment's chunks go to the free list as its last holder
        // lets go: here, unless a reader is still on it.
        drop(dropped);
        Lsn(floor)
    }

    /// Bytes of the slot directory the log holds: every slot (8 B) of
    /// every segment it holds, filled or not.
    #[must_use]
    pub fn directory_bytes(&self) -> u64 {
        self.dir.read().segs.len() as u64 * SEGMENT_SLOTS * 8
    }

    /// Bytes of the chunks the log owns: those its segments hold and
    /// those on its free list.
    #[must_use]
    pub fn chunk_bytes(&self) -> u64 {
        self.pool.owned.load(Ordering::Relaxed) * CHUNK_BYTES as u64
    }

    /// Chunks on the log's free list: owned, held by no segment, and
    /// the next to serve an append.
    #[must_use]
    pub fn free_chunks(&self) -> usize {
        self.pool.free.lock().len()
    }

    /// Memory the log holds: its chunks, free ones included, plus the
    /// slot directory. The chunks hold every record in a segment the
    /// log holds — burned ones and truncated ones that share a segment
    /// with later records included — each rounded up to whole words.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.chunk_bytes() + self.directory_bytes()
    }

    /// Records the log holds in memory (counted as in
    /// [`LogManager::resident_bytes`]).
    #[must_use]
    pub fn resident_records(&self) -> u64 {
        self.stats.records.get() - self.stats.truncated_records.get()
    }

    /// Simulated system failure: everything after the flushed prefix
    /// is gone. The truncated logical LSN range is remapped onto fresh
    /// physical slots (a published slot is never un-set in place); the
    /// abandoned slots keep their bytes until a truncation drops their
    /// segment, bounded by the unflushed tail per crash.
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

/// Decode a record's stored bytes. The log only ever stores what
/// `encode_record` wrote (or what `decode_record` delimited, on a
/// follower).
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
    /// The next record's segment and extent.
    fn next(&mut self) -> Option<(&Segment, Extent)> {
        if self.idx >= self.end {
            self.end = self.log.tail_lsn().0.min(self.through);
            if self.idx >= self.end {
                return None;
            }
        }
        let phys = translate(&self.epochs, self.idx);
        let (seg, slot) = self.segs.slot(&self.log.dir, phys)?;
        let at = seg
            .record(slot)
            .expect("record below published watermark must be set");
        self.idx += 1;
        Some((seg, at))
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

    /// The side-file walk keeps exactly the appends a decoding walk
    /// finds, over every window of a log that holds every variant
    /// (two appends to index 9, and one to index 4 between them).
    #[test]
    fn side_file_appends_are_the_decoded_walk_s_appends() {
        let log = LogManager::new();
        let other = LogPayload::SideFileAppend {
            index: IndexId(4),
            op: SideFileOp {
                insert: true,
                entry: entry(5, 5),
            },
        };
        for rec in samples() {
            log.append(rec.tx, rec.prev, rec.kind, rec.payload);
        }
        log.append(TxId(1), Lsn::NULL, RecKind::RedoOnly, other);
        for rec in samples() {
            log.append(rec.tx, rec.prev, rec.kind, rec.payload);
        }
        let tail = log.tail_lsn().0;
        for index in [IndexId(9), IndexId(4), IndexId(5)] {
            for after in 0..=tail {
                for through in after..=tail + 1 {
                    let want: Vec<_> = log
                        .iter_from(Lsn(after))
                        .take_while(|r| r.lsn.0 <= through)
                        .filter_map(|r| match r.payload {
                            LogPayload::SideFileAppend { index: i, op } if i == index => Some(op),
                            _ => None,
                        })
                        .collect();
                    let got: Vec<_> = log
                        .side_file_appends(index, Lsn(after), Lsn(through))
                        .collect();
                    assert_eq!(got, want, "{index:?} ({after}, {through}]");
                }
            }
        }
        let count = |index| log.side_file_appends(index, Lsn::NULL, Lsn(tail)).count();
        assert_eq!((count(IndexId(9)), count(IndexId(4))), (2, 1));
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
        // One segment: its slots, and its records' words in whole chunks.
        assert_eq!(log.directory_bytes(), SEGMENT_SLOTS * 8);
        assert_eq!(
            log.chunk_bytes(),
            stored_words(&log, 1, log.tail_lsn().0).next_multiple_of(CHUNK_BYTES as u64)
        );
        assert_eq!(
            log.resident_bytes(),
            log.chunk_bytes() + log.directory_bytes()
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
            // The walker stops even if an appender panicked.
            let appended: Vec<_> = appenders.into_iter().map(|a| a.join()).collect();
            done.store(true, Ordering::Release);
            assert!(walker.join().unwrap() >= 1);
            for a in appended {
                a.unwrap();
            }
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
        assert_eq!(log.directory_bytes(), 2 * SEGMENT_SLOTS * 8, "two segments");
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

    /// The bytes records `from..=to` take in their segments' chunks:
    /// each encoding, as `get` reads it back, in whole words.
    fn stored_words(log: &LogManager, from: u64, to: u64) -> u64 {
        let mut buf = Vec::new();
        (from..=to)
            .map(|lsn| {
                buf.clear();
                encode_record(&log.get(Lsn(lsn)).expect("held record"), &mut buf);
                buf.len().next_multiple_of(8) as u64
            })
            .sum()
    }

    #[test]
    fn truncation_drops_whole_segments_and_frees_their_chunks() {
        let log = LogManager::new();
        let n = 3 * SEGMENT_SLOTS + 100;
        for i in 0..n {
            log.append(TxId(i), Lsn::NULL, RecKind::UndoRedo, mixed(i));
        }
        // Each segment holds its records' words, rounded up to chunks.
        let held: Vec<u64> = (0..4)
            .map(|seg| {
                let to = ((seg + 1) * SEGMENT_SLOTS).min(n);
                stored_words(&log, seg * SEGMENT_SLOTS + 1, to).div_ceil(CHUNK_BYTES as u64)
            })
            .collect();
        let chunk = CHUNK_BYTES as u64;
        assert_eq!(log.chunk_bytes(), held.iter().sum::<u64>() * chunk);
        assert_eq!(log.directory_bytes(), 4 * SEGMENT_SLOTS * 8);
        assert_eq!(
            log.resident_bytes(),
            log.chunk_bytes() + log.directory_bytes()
        );
        assert_eq!(log.free_chunks(), 0);
        assert_eq!(log.resident_records(), n);
        // Nothing past the flushed mark goes.
        log.flush_to(Lsn(SEGMENT_SLOTS + 10));
        assert_eq!(log.truncate_below(Lsn(n)), Lsn(SEGMENT_SLOTS + 11));
        assert_eq!(log.first_lsn(), Lsn(SEGMENT_SLOTS + 11));
        // One whole segment went, and its chunks to the free list; the
        // records below the first LSN in the second stay in memory,
        // unreadable.
        assert_eq!(log.stats.truncated_records.get(), SEGMENT_SLOTS);
        assert_eq!(log.resident_records(), n - SEGMENT_SLOTS);
        assert_eq!(log.directory_bytes(), 3 * SEGMENT_SLOTS * 8);
        assert_eq!(log.free_chunks() as u64, held[0]);
        assert_eq!(log.chunk_bytes(), held.iter().sum::<u64>() * chunk);
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

        // Everything flushed goes: all but the last segment, which the
        // next appends go on filling.
        log.flush_all();
        assert_eq!(log.truncate_below(Lsn(u64::MAX)), Lsn(n + 1));
        assert_eq!(log.resident_records(), n % SEGMENT_SLOTS);
        assert_eq!(log.free_chunks() as u64, held[0] + held[1] + held[2]);
        assert_eq!(log.directory_bytes(), SEGMENT_SLOTS * 8);
        // Two segments' worth of new records take free chunks and
        // allocate none.
        let owned = log.chunk_bytes();
        for i in 0..2 * SEGMENT_SLOTS {
            let lsn = log.append(TxId(i), Lsn::NULL, RecKind::UndoRedo, mixed(i));
            assert_eq!(lsn, Lsn(n + 1 + i));
        }
        assert_eq!(log.chunk_bytes(), owned);
        assert!(log.free_chunks() < (held[0] + held[1] + held[2]) as usize);
        assert_eq!(log.get(Lsn(n + 1)).unwrap().tx, TxId(0));
        assert_eq!(
            log.iter_from(Lsn(n)).map(|r| r.tx.0).collect::<Vec<_>>(),
            (0..2 * SEGMENT_SLOTS).collect::<Vec<_>>()
        );
        assert_eq!(
            log.resident_records(),
            n % SEGMENT_SLOTS + 2 * SEGMENT_SLOTS
        );
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

    /// A row image of `len` bytes, for records of a chosen size.
    fn row(len: usize, fill: u8) -> LogPayload {
        LogPayload::HeapInsert {
            table: mohan_common::TableId(1),
            rid: mohan_common::Rid::new(len as u32, 0),
            data: vec![fill; len],
            visible_indexes: 0,
        }
    }

    /// A thread that appended and then went idle keeps no claim on its
    /// segment: once a truncation drops the segment, its chunks are on
    /// the free list while that thread is still parked.
    #[test]
    fn an_idle_appender_does_not_keep_a_truncated_segment() {
        let log = LogManager::new();
        std::thread::scope(|s| {
            let log = &log;
            let (appended, parked) = std::sync::mpsc::channel();
            // Dropped if this thread panics, which frees the idle one.
            let (release, wait) = std::sync::mpsc::channel::<()>();
            let idle = s.spawn(move || {
                for i in 0..100 {
                    log.append(TxId(1), Lsn::NULL, RecKind::UndoRedo, row(1000, i));
                }
                appended.send(()).unwrap();
                let _ = wait.recv();
            });
            parked.recv().unwrap();
            // This thread fills the rest of the segment and starts the
            // next one, so only the idle thread last appended to it.
            while log.tail_lsn().0 <= SEGMENT_SLOTS {
                begin(log, 2);
            }
            let chunks = stored_words(log, 1, SEGMENT_SLOTS).div_ceil(CHUNK_BYTES as u64);
            assert!(chunks > 1);
            log.flush_all();
            assert_eq!(log.truncate_below(Lsn(u64::MAX)), Lsn(SEGMENT_SLOTS + 2));
            assert_eq!(
                log.free_chunks() as u64,
                chunks,
                "the parked appender's segment kept its chunks"
            );
            release.send(()).unwrap();
            idle.join().unwrap();
        });
    }

    /// One step of the model test, decoded from three random numbers.
    #[derive(Debug)]
    enum Step {
        /// Append a row image of this many bytes.
        Append(usize),
        /// Append this many header-only records.
        Many(u64),
        /// Mirror a record of this many bytes with `append_encoded`,
        /// naming the right LSN or, when `false`, the one after it.
        Mirror(usize, bool),
        FlushTo(u64),
        Crash,
        /// Take a pin at this LSN, advance pin `i % pins` to it, or drop
        /// pin `i % pins`.
        Pin(u64),
        Advance(usize, u64),
        Unpin(usize),
        TruncateBelow(u64),
    }

    /// A record size: mostly small, sometimes past a chunk, now and
    /// then past the chunk table's first block on its own.
    fn record_size(r: u32) -> usize {
        let r16 = (r >> 4) as usize;
        match r % 32 {
            0..=21 => r16 % 300,
            22..=27 => r16 % 5000,
            28..=30 => 60_000 + r16 % 200_000,
            _ => FIRST_CHUNKS * CHUNK_BYTES + r16 % 100_000,
        }
    }

    fn step(op: u8, a: u32, b: u32, tail: u64) -> Step {
        let near = |x: u32| u64::from(x) % (tail + 4);
        match op % 16 {
            0..=4 => Step::Append(record_size(a)),
            5 => Step::Many(u64::from(a % 3000)),
            6 | 7 => Step::Mirror(record_size(a), !b.is_multiple_of(8)),
            8 | 9 => Step::FlushTo(near(a)),
            10 => Step::Crash,
            11 => Step::Pin(near(a)),
            12 => Step::Advance(a as usize, near(b)),
            13 => Step::Unpin(a as usize),
            _ => Step::TruncateBelow(if b.is_multiple_of(4) {
                u64::MAX
            } else {
                near(a)
            }),
        }
    }

    /// What the log should hold: every record's stored bytes by LSN,
    /// the first readable LSN, the flushed mark and the live pins.
    #[derive(Default)]
    struct Model {
        recs: Vec<Vec<u8>>,
        first: u64,
        flushed: u64,
        pins: Vec<(LogPin, u64)>,
    }

    impl Model {
        fn tail(&self) -> u64 {
            self.recs.len() as u64
        }

        fn push(&mut self, mut rec: LogRecord) -> Vec<u8> {
            rec.lsn = Lsn(self.tail() + 1);
            let mut bytes = Vec::new();
            encode_record(&rec, &mut bytes);
            self.recs.push(bytes.clone());
            bytes
        }
    }

    /// Every reader of `log` against the model: `get` and `header` at
    /// the edges and at a spread of LSNs, both walks from just below the
    /// first LSN, and range copies with record and byte caps.
    fn check(log: &LogManager, m: &Model, probe: u32) {
        let tail = m.tail();
        assert_eq!(log.tail_lsn(), Lsn(tail));
        assert_eq!(log.first_lsn(), Lsn(m.first));
        assert_eq!(log.flushed_lsn(), Lsn(m.flushed));
        let stored = |lsn: u64| {
            let mut pos = 0;
            decode_record(&m.recs[lsn as usize - 1], &mut pos).unwrap()
        };
        let spread = (0..8).map(|k| m.first + (u64::from(probe) * (k + 1)) % (tail + 1));
        for lsn in [0, m.first.saturating_sub(1), m.first, tail, tail + 1]
            .into_iter()
            .chain(spread)
        {
            let held = lsn >= m.first && (1..=tail).contains(&lsn);
            let want = held.then(|| stored(lsn));
            assert_eq!(log.get(Lsn(lsn)), want, "get {lsn}");
            let head = want.map(|_| RecordHeader::parse(&m.recs[lsn as usize - 1]).unwrap());
            assert_eq!(log.header(Lsn(lsn)), head, "header {lsn}");
        }
        let held = m.first..=tail;
        let iter: Vec<LogRecord> = log.iter_from(Lsn(m.first - 1)).collect();
        assert_eq!(iter, held.clone().map(stored).collect::<Vec<_>>());
        let heads: Vec<RecordHeader> = log.headers_from(Lsn(m.first - 1)).collect();
        assert_eq!(heads.len() as u64, tail + 1 - m.first);
        assert!(heads.iter().zip(held).all(|(h, lsn)| h.lsn == Lsn(lsn)));
        if m.first > 1 {
            assert_eq!(log.iter_from(Lsn(m.first - 2)).count(), 0);
        }
        for k in 0..4u64 {
            let r = u64::from(probe).wrapping_mul(k + 7);
            let after = (m.first + r % (tail + 2)).saturating_sub(2);
            let through = after + r % 40;
            let max_records = [1, 3, 100, usize::MAX][k as usize];
            // Odd steps cap the bytes at exactly what some records take.
            let max_bytes = if k % 2 == 0 {
                (r % 400_000) as usize
            } else {
                let upto = through.min(tail);
                (after + 1..=upto.min(after + r % 5))
                    .filter(|&lsn| lsn >= m.first)
                    .map(|lsn| m.recs[lsn as usize - 1].len())
                    .sum()
            };
            let mut want = Vec::new();
            let mut count = 0;
            if after + 1 >= m.first {
                for lsn in after + 1..=through.min(tail) {
                    let rec = &m.recs[lsn as usize - 1];
                    if count == max_records || (count > 0 && want.len() + rec.len() > max_bytes) {
                        break;
                    }
                    want.extend_from_slice(rec);
                    count += 1;
                }
            }
            let mut out = vec![7];
            let (n, last) =
                log.copy_range(Lsn(after), Lsn(through), max_records, max_bytes, &mut out);
            assert_eq!(
                (n, &out[1..]),
                (count, &want[..]),
                "copy_range after {after}"
            );
            let want_last = if count == 0 {
                Lsn::NULL
            } else {
                Lsn(after + count as u64)
            };
            assert_eq!(last, want_last);
        }
        assert_eq!(
            log.resident_bytes(),
            log.chunk_bytes() + log.directory_bytes()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]
        /// The packed log against a `Vec<Vec<u8>>` of encodings: appends
        /// of every size (records past a chunk and segments past the
        /// first block of the chunk table among them), mirrored appends
        /// that name the right or the wrong LSN, flushes, crashes, pins
        /// and truncations, with every reader checked after every step.
        /// A chunk is allocated only when the free list is empty.
        #[test]
        fn the_packed_log_matches_a_model(
            steps in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 1..48)
        ) {
            let log = LogManager::new();
            let mut m = Model { first: 1, ..Model::default() };
            let mut tx = 0;
            for (op, a, b) in steps {
                tx += 1;
                let rec = |len: usize| LogRecord {
                    lsn: Lsn::NULL,
                    tx: TxId(tx),
                    prev: Lsn(u64::from(b)),
                    kind: RecKind::UndoRedo,
                    payload: row(len, op),
                };
                let owned = log.chunk_bytes();
                match step(op, a, b, m.tail()) {
                    Step::Append(len) => {
                        let want = rec(len);
                        m.push(want.clone());
                        log.append(want.tx, want.prev, want.kind, want.payload);
                    }
                    Step::Many(n) => {
                        for _ in 0..n {
                            m.push(LogRecord {
                                lsn: Lsn::NULL,
                                tx: TxId(tx),
                                prev: Lsn::NULL,
                                kind: RecKind::RedoOnly,
                                payload: LogPayload::TxBegin,
                            });
                            begin(&log, tx);
                        }
                    }
                    Step::Mirror(len, right) => {
                        let mut bytes = m.push(rec(len));
                        if !right {
                            bytes[LSN_BYTES].copy_from_slice(&(m.tail() + 1).to_be_bytes());
                        }
                        let got = log.append_encoded(&bytes);
                        prop_assert_eq!(got.is_ok(), right);
                    }
                    Step::FlushTo(lsn) => {
                        log.flush_to(Lsn(lsn));
                        m.flushed = m.flushed.max(lsn.min(m.tail()));
                    }
                    Step::Crash => {
                        log.crash();
                        m.recs.truncate(m.flushed as usize);
                    }
                    Step::Pin(lsn) => match log.pin(Lsn(lsn)) {
                        Some(pin) => {
                            prop_assert!(lsn >= m.first);
                            m.pins.push((pin, lsn));
                        }
                        None => prop_assert!(lsn < m.first),
                    },
                    Step::Advance(i, lsn) => {
                        if !m.pins.is_empty() {
                            let n = m.pins.len();
                            let (pin, at) = &mut m.pins[i % n];
                            pin.advance(Lsn(lsn));
                            *at = (*at).max(lsn);
                        }
                    }
                    Step::Unpin(i) => {
                        if !m.pins.is_empty() {
                            let i = i % m.pins.len();
                            m.pins.swap_remove(i);
                        }
                    }
                    Step::TruncateBelow(floor) => {
                        let low = m.pins.iter().map(|p| p.1).min().unwrap_or(u64::MAX);
                        m.first = m.first.max(floor.min(m.flushed + 1).min(low));
                        prop_assert_eq!(log.truncate_below(Lsn(floor)), Lsn(m.first));
                    }
                }
                if log.chunk_bytes() > owned {
                    prop_assert_eq!(log.free_chunks(), 0, "allocated with chunks free");
                }
                check(&log, &m, a ^ b);
            }
        }
    }

    /// The model test's sizes do reach past the chunk table's first
    /// block: one segment holding more than `FIRST_CHUNKS` chunks reads
    /// back whole, and gives them all back when it is dropped.
    #[test]
    fn a_segment_outgrows_the_first_block_of_its_chunk_table() {
        let log = LogManager::new();
        let big = 3 * CHUNK_BYTES + 5;
        let n = 2 * FIRST_CHUNKS as u64 / 3 + 2;
        for i in 0..n {
            log.append(TxId(i), Lsn::NULL, RecKind::UndoRedo, row(big, i as u8));
        }
        assert!(log.dir.read().segs[0].table[1].get().is_some());
        for (i, rec) in log.iter_from(Lsn::NULL).enumerate() {
            assert_eq!(rec.payload, row(big, i as u8));
        }
        let chunks = log.chunk_bytes() / CHUNK_BYTES as u64;
        assert!(chunks > FIRST_CHUNKS as u64);
        while log.tail_lsn().0 <= SEGMENT_SLOTS {
            begin(&log, 0);
        }
        log.flush_all();
        log.truncate_below(Lsn(u64::MAX));
        assert!(log.free_chunks() as u64 >= chunks);
    }
}
