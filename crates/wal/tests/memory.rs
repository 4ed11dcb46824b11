//! A log record costs its bytes in whole words and one 8-byte slot.
//!
//! A counting global allocator tracks the bytes this test's thread
//! holds. Each allocation is charged as the chunk glibc carves for it
//! (its size plus 8, rounded up to 16, and at least 32), so a log that
//! allocates once per record pays for it here as it does in a process.
//!
//! 100 000 34-byte `HeapInsert`s hold at most the sum of their lengths
//! rounded up to words, plus 8 B a slot, plus one chunk and the chunk
//! table per segment. After a flush and a truncation, appending the same
//! records again takes the freed chunks: it allocates only the chunks
//! its last segment needs beyond those the first round's last segment
//! held, and no memory per record.

use mohan_common::{Lsn, Rid, TableId, TxId};
use mohan_wal::log::{CHUNK_BYTES, SEGMENT_SLOTS};
use mohan_wal::{encode_record, LogManager, LogPayload, LogRecord, RecKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Passes every request to the system allocator, counting the bytes
/// this thread holds and the chunk-sized allocations it makes.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static CHUNKS: Cell<usize> = const { Cell::new(0) };
}

/// What glibc's malloc takes for a request of `size` bytes.
fn charge(size: usize) -> isize {
    ((size + 8).next_multiple_of(16)).max(32) as isize
}

fn count(delta: isize, size: usize) {
    let _ = LIVE.try_with(|l| l.set(l.get() + delta));
    if delta > 0 && size == CHUNK_BYTES {
        let _ = CHUNKS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counting
// touches only thread-locals.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(charge(layout.size()), layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-charge(layout.size()), layout.size());
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(charge(new_size) - charge(layout.size()), new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const RECORDS: u64 = 100_000;
const SLOTS: usize = SEGMENT_SLOTS as usize;
/// Per segment beside its slots and chunks: the segment itself, the
/// first block of its chunk table, and their allocation headers.
const PER_SEGMENT: usize = 1024;
/// Independent of the record count: the log, its directory and epoch
/// table, the per-thread encode buffer.
const FIXED: usize = 64 << 10;

fn live() -> isize {
    LIVE.with(Cell::get)
}

fn chunk_allocs() -> usize {
    CHUNKS.with(Cell::get)
}

/// Record `i`: a row insert with a 34-byte image, as the benchmark's
/// seeding logs.
fn payload(i: u64) -> LogPayload {
    LogPayload::HeapInsert {
        table: TableId(1),
        rid: Rid::new((i / 100) as u32, (i % 100) as u16),
        data: vec![i as u8; 34],
        visible_indexes: 0,
    }
}

fn append_all(log: &LogManager) {
    for i in 0..RECORDS {
        log.append(TxId(1), Lsn::NULL, RecKind::UndoRedo, payload(i));
    }
}

#[test]
fn a_record_costs_its_words_and_a_slot_and_truncated_chunks_serve_the_next() {
    let mut one = Vec::new();
    encode_record(
        &LogRecord {
            lsn: Lsn(1),
            tx: TxId(1),
            prev: Lsn::NULL,
            kind: RecKind::UndoRedo,
            payload: payload(0),
        },
        &mut one,
    );
    let (len, words) = (one.len(), one.len().next_multiple_of(8));
    let segments = (RECORDS as usize).div_ceil(SLOTS);

    let before = live();
    let log = LogManager::new();
    append_all(&log);
    assert_eq!(log.stats.bytes.get(), RECORDS * len as u64);
    let held = (live() - before) as usize;
    let bound = RECORDS as usize * words
        + 8 * SLOTS * segments
        + segments * (CHUNK_BYTES + PER_SEGMENT)
        + FIXED;
    assert!(
        held <= bound,
        "{RECORDS} records of {len} B in {segments} segments hold {held} bytes, bound {bound}"
    );

    // Everything goes but the last segment, which the next appends go
    // on filling; its chunks stay with it, the others are freed.
    log.flush_all();
    let tail = log.tail_lsn();
    assert_eq!(log.truncate_below(tail), tail);
    let truncated = live();
    let fresh = chunk_allocs();
    append_all(&log);
    let fresh = chunk_allocs() - fresh;
    // A segment's chunks for `n` of these records.
    let chunks = |n: usize| (n * words).div_ceil(CHUNK_BYTES);
    let (first_tail, second_tail) = (RECORDS as usize % SLOTS, 2 * RECORDS as usize % SLOTS);
    assert_eq!(
        fresh,
        chunks(second_tail) - chunks(first_tail),
        "the second round allocates only what its last segment needs beyond the first's"
    );
    let new_segments = (2 * RECORDS as usize).div_ceil(SLOTS) - segments;
    let added = (live() - truncated) as usize;
    let bound = fresh * charge(CHUNK_BYTES) as usize
        + new_segments * (charge(8 * SLOTS) as usize + PER_SEGMENT);
    assert!(
        added <= bound,
        "appending {RECORDS} records again added {added} bytes, bound {bound}"
    );
    assert_eq!(log.free_chunks(), 0);
    assert_eq!(
        log.get(Lsn(2 * RECORDS)).map(|r| r.payload),
        Some(payload(RECORDS - 1))
    );
}
