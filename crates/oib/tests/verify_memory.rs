//! What `verify_index` holds while it checks an index: the entries the
//! table derives, as bytes.
//!
//! A counting global allocator tracks the bytes this test's thread
//! holds, charging each allocation the chunk glibc's malloc carves for
//! it (8 bytes of header, 16-byte steps, 32 bytes at least), because
//! that — not the bytes asked for — is what many small allocations
//! cost in resident memory. Collecting one `IndexEntry` per record
//! costs at least 64 bytes an entry on that count: 32 for the value in
//! its vector and a 32-byte chunk for its 16-byte key. The check may
//! hold half of that.

use mohan_common::{EngineConfig, TableId};
use mohan_oib::build::{build_index, IndexSpec};
use mohan_oib::schema::{BuildAlgorithm, Record};
use mohan_oib::verify::verify_index;
use mohan_oib::Db;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Passes every request to the system allocator, counting the chunk
/// bytes this thread holds and the most it has held since the last
/// reset.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// The chunk glibc's malloc takes for a request of `size` bytes.
fn chunk(size: usize) -> isize {
    ((size + 8 + 15) & !15).max(32) as isize
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

const T: TableId = TableId(1);
const ROWS: i64 = 100_000;

#[test]
fn verify_holds_half_an_index_entry_per_record() {
    let db = Db::new(EngineConfig::small());
    db.create_table(T);
    let tx = db.begin();
    for k in 0..ROWS {
        // A two-column key, as the online workloads build: 16 bytes.
        db.insert_record(tx, T, &Record::new(vec![k, (k * 7_919) % ROWS]))
            .unwrap();
    }
    db.commit(tx).unwrap();
    let spec = IndexSpec {
        name: "by_v_k".into(),
        key_cols: vec![1, 0],
        unique: false,
    };
    let id = build_index(&db, T, spec, BuildAlgorithm::Offline).unwrap();

    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    verify_index(&db, id).unwrap();
    let transient = PEAK.with(Cell::get) - before;
    let bound = 32 * ROWS as isize;
    assert!(
        transient <= bound,
        "verify held {transient} bytes over {before}; half an IndexEntry per record is {bound}"
    );
    // It gave everything back.
    assert!(LIVE.with(Cell::get) - before < 64 << 10);
}
