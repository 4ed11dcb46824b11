//! A clean heap page is held once.
//!
//! A counting global allocator tracks the bytes this test's thread holds.
//! A table of 50 000 rows, forced and then left unwritten, holds one copy
//! of each page — the cache frame and the durable image share it — plus
//! a little bookkeeping per page. Writing one row in each of `k` pages
//! copies those pages and no others, and a crash brings them back as
//! they were forced.

use mohan_common::{Lsn, Rid, TableId};
use mohan_heap::HeapTable;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Passes every request to the system allocator, counting the bytes
/// this thread holds.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn count(delta: isize) {
    let _ = LIVE.try_with(|l| l.set(l.get() + delta));
}

// SAFETY: every call is forwarded unchanged to `System`; the counting
// touches only a thread-local.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const ROWS: u32 = 50_000;
const PAGE: usize = 4096;
/// Pages written after the force.
const WRITTEN: usize = 100;
/// Per page beside its bytes: the frame and its latch, the cache's
/// volatile, durable and staging map slots, the free-space map's entry
/// and the dirty list's.
const PER_PAGE: usize = 384;
/// Independent of the table's size: shard maps' first allocations.
const FIXED: usize = 64 << 10;

fn live() -> isize {
    LIVE.with(Cell::get)
}

/// Row `i`: 34 bytes, as wide as the benchmark's seeded rows.
fn row(i: u32, version: u8) -> [u8; 34] {
    let mut r = [version; 34];
    r[..4].copy_from_slice(&i.to_be_bytes());
    r
}

#[test]
fn a_clean_page_is_held_once_and_its_first_writer_copies_it() {
    let mut firsts: Vec<(Rid, u32)> = Vec::with_capacity(ROWS as usize);
    let before = live();
    let t = HeapTable::new(TableId(3), PAGE, 8);
    for i in 0..ROWS {
        let rid = t.insert_with(&row(i, 0), |_| Lsn(1)).unwrap();
        if rid.slot.0 == 0 {
            firsts.push((rid, i));
        }
    }
    t.cache.force_all(Lsn(1), || {}).unwrap();
    let held = (live() - before) as usize;
    let pages = t.num_pages() as usize;
    assert_eq!(firsts.len(), pages);
    let bound = pages * (PAGE + PER_PAGE) + FIXED;
    assert!(
        held <= bound,
        "forced: {held} bytes for {pages} pages, bound {bound}"
    );

    // One row in each of the first `WRITTEN` pages: each page is copied
    // once, by its first writer, and never again.
    let clean = live();
    for round in 1..=2 {
        for &(rid, i) in &firsts[..WRITTEN] {
            t.update_with(rid, &row(i, round), |_| Lsn(2)).unwrap();
        }
    }
    let added = (live() - clean) as usize;
    assert!(
        (WRITTEN * PAGE..=WRITTEN * (PAGE + PER_PAGE)).contains(&added),
        "writing {WRITTEN} pages added {added} bytes"
    );

    // The crash drops the copies; the pages read back as forced.
    t.crash();
    for &(rid, i) in &firsts[..WRITTEN + 1] {
        assert_eq!(t.read(rid).unwrap(), row(i, 0));
    }
}
