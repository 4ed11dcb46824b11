//! An index costs its page bytes.
//!
//! A counting global allocator tracks the bytes this test's thread holds.
//! A tree of 50 000 entries, bulk-loaded and again inserted top-down, and
//! forced, holds one copy of each page — the cache frame and the durable
//! image share it — plus a little bookkeeping per page; and verifying it
//! holds a few pages' worth at most, however many entries there are.

use mohan_btree::scan::verify_structure;
use mohan_btree::{BTree, BTreeConfig, BulkLoader, InsertMode};
use mohan_common::{FileId, IndexEntry, KeyValue, Lsn, Rid};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Passes every request to the system allocator, counting the bytes
/// this thread holds and the most it has held since the last reset.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn count(delta: isize) {
    let _ = LIVE.try_with(|l| {
        l.set(l.get() + delta);
        let _ = PEAK.try_with(|p| p.set(p.get().max(l.get())));
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the counting
// touches only thread-locals.
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

const ENTRIES: u64 = 50_000;
const PAGE: usize = 2048;
/// Per page beside its bytes: the frame and its latch, and the cache's
/// volatile, durable and staging map slots (measured ≈ 250–300 bytes,
/// the maps' power-of-two growth making the spread).
const PER_PAGE: usize = 384;
/// Independent of the tree's size: shard maps' first allocations.
const FIXED: usize = 64 << 10;

fn live() -> isize {
    LIVE.with(Cell::get)
}

fn tree() -> BTree {
    BTree::create(
        FileId(14),
        BTreeConfig {
            page_size: PAGE,
            fill_factor: 0.9,
            unique: false,
            hint_enabled: true,
        },
    )
}

/// Entry `i` of 50 000: a two-column key like the benchmark's, and a
/// multiplicative shuffle for the top-down order.
fn entry(i: u64) -> IndexEntry {
    let k = (i * 7_919) % ENTRIES;
    IndexEntry::new(
        KeyValue::from_i64s(&[(k % 97) as i64, k as i64]),
        Rid::new((k / 100) as u32, (k % 100) as u16),
    )
}

/// Bytes `t` holds (every page forced, its image sharing its bytes)
/// against the bound, then what verifying it holds at its peak.
fn check(t: &BTree, before: isize, how: &str) {
    t.force_all(Lsn::NULL).unwrap();
    let held = (live() - before) as usize;
    let pages = t.cache.num_pages() as usize;
    let bound = pages * PAGE + pages * PER_PAGE + FIXED;
    assert!(
        held <= bound,
        "{how}: {held} bytes for {pages} pages, bound {bound}"
    );
    let base = live();
    PEAK.with(|p| p.set(base));
    verify_structure(t).unwrap();
    let peak = (PEAK.with(Cell::get) - base) as usize;
    assert!(
        peak <= 2 * PAGE,
        "{how}: verify_structure held {peak} bytes at its peak"
    );
}

#[test]
fn a_tree_holds_its_pages_and_verifying_it_holds_a_page() {
    let mut sorted: Vec<IndexEntry> = (0..ENTRIES).map(entry).collect();
    sorted.sort();

    let before = live();
    let t = tree();
    let mut loader = BulkLoader::new(&t).unwrap();
    for e in &sorted {
        loader.append(e.clone()).unwrap();
    }
    loader.finish(Lsn::NULL).unwrap();
    check(&t, before, "bulk-loaded");
    drop(t);
    drop(sorted);

    let before = live();
    let t = tree();
    for i in 0..ENTRIES {
        t.insert(entry(i), InsertMode::Transaction).unwrap();
    }
    check(&t, before, "inserted top-down");
}
