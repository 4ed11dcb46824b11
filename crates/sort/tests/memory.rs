//! A run costs its bytes.
//!
//! A counting global allocator charges each request at the size of the
//! chunk glibc's malloc hands out for it, and tracks what this test's
//! thread holds. 100 000 entries with 16-byte keys, appended one at a
//! time in sorted runs of 2 048 as run formation emits them, must cost at
//! most 40 bytes each. Held as items, an entry is a 32-byte struct plus
//! its key's own 32-byte chunk: 64 bytes.
//!
//! Merged with a release every 5 000 keys, the store then holds at most
//! 40 bytes for each entry not yet consumed, plus one block per input.

use mohan_common::{IndexEntry, KeyValue, Rid};
use mohan_sort::{Merge, RunStore};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Passes every request to the system allocator, counting the chunk
/// bytes this thread holds.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

/// glibc's chunk for a request on 64-bit: the size plus an 8-byte
/// header, rounded up to 16, at least 32.
fn chunk(size: usize) -> isize {
    ((size + 8 + 15) & !15).max(32) as isize
}

fn count(delta: isize) {
    let _ = LIVE.try_with(|l| l.set(l.get() + delta));
}

// SAFETY: every call is forwarded unchanged to `System`; the counting
// touches only a thread-local.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(chunk(layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-chunk(layout.size()));
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(chunk(new_size) - chunk(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const ENTRIES: usize = 100_000;
const RUN: usize = 2_048;
const MAX_BYTES_PER_ENTRY: f64 = 40.0;
/// Keys merged between two releases.
const RELEASE_EVERY: usize = 5_000;
/// Items in a run's block: the most a release must leave behind its
/// counter.
const BLOCK_ITEMS: usize = 16;

fn live() -> isize {
    LIVE.with(Cell::get)
}

/// The store's runs of `ENTRIES` random keys, as run formation emits
/// them, each forced; and the bytes the store took for them.
fn sorted_runs(store: &RunStore<IndexEntry>) -> (Vec<u64>, isize) {
    let mut rng = StdRng::seed_from_u64(34);
    let mut runs = Vec::with_capacity(ENTRIES.div_ceil(RUN));
    let before = live();
    let mut rid = 0u32;
    for start in (0..ENTRIES).step_by(RUN) {
        let mut items: Vec<IndexEntry> = (start..ENTRIES.min(start + RUN))
            .map(|_| {
                rid += 1;
                let mut key = rng.next_u64().to_be_bytes().to_vec();
                key.extend_from_slice(&rng.next_u64().to_be_bytes());
                IndexEntry::new(KeyValue(key), Rid::new(rid / 64, (rid % 64) as u16))
            })
            .collect();
        items.sort();
        let run = store.create_run();
        for item in &items {
            store.append(run, std::slice::from_ref(item)).unwrap();
        }
        store.force_run(run).unwrap();
        runs.push(run);
    }
    (runs, live() - before)
}

#[test]
fn a_sorted_run_costs_at_most_40_bytes_an_entry() {
    let store: RunStore<IndexEntry> = RunStore::new();
    let (runs, held) = sorted_runs(&store);
    let per_entry = held as f64 / ENTRIES as f64;
    eprintln!("{per_entry:.1} B per entry held by the run store");
    assert!(
        per_entry <= MAX_BYTES_PER_ENTRY,
        "{per_entry:.1} B per entry, over {MAX_BYTES_PER_ENTRY}"
    );
    let held: u64 = runs.iter().map(|&r| store.len(r).unwrap()).sum();
    assert_eq!(held, ENTRIES as u64);
}

#[test]
fn a_merge_that_releases_keeps_only_what_it_has_not_consumed() {
    let store: Arc<RunStore<IndexEntry>> = Arc::new(RunStore::new());
    let (runs, mut held) = sorted_runs(&store);
    let per_input = (BLOCK_ITEMS as f64 * MAX_BYTES_PER_ENTRY) as isize;
    let slack = runs.len() as isize * per_input;
    let mut merge = Merge::new(&store, runs);
    let mut consumed = 0;
    while merge.next().is_some() {
        consumed += 1;
        if consumed % RELEASE_EVERY != 0 && consumed != ENTRIES {
            continue;
        }
        // The store allocates nothing between releases (the cursors'
        // reads are theirs), so what a release frees is what it holds
        // less.
        let before = live();
        merge.release().unwrap();
        held -= before - live();
        let bound = ((ENTRIES - consumed) as f64 * MAX_BYTES_PER_ENTRY) as isize + slack;
        assert!(
            held <= bound,
            "{held} B held after {consumed} keys, over {bound}"
        );
        // The gauge counts bytes the allocator charges more for.
        assert!(store.resident_bytes() as isize <= held);
    }
    assert_eq!(consumed, ENTRIES);
    eprintln!("{held} B held by the run store once the merge is done");
}
