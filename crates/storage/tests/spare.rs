//! A page's old image becomes its next copy, whichever thread freed it.
//!
//! A counting global allocator counts the allocations of one page
//! buffer's size. Rounds alternate between writer threads, each round
//! writing every page once and then forcing: after the first round, the
//! copies a write makes come from the images the last force replaced,
//! and no page-sized buffer is allocated again. A crash hands every
//! copy it drops to the spare list, and the pages read back as forced.
//!
//! The spare list is the process's, so the tests take turns.

use mohan_common::{FileId, Lsn, PageId, SlotId};
use mohan_storage::{spare, PageCache, SlottedPage};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Passes every request to the system allocator, counting those of
/// [`COUNTED`] bytes.
struct Counting;

/// A page buffer's allocation: the bytes behind the `Arc`'s two counts.
const COUNTED: usize = PAGE + 16;
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counting
// touches only an atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() == COUNTED {
            ALLOCATED.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const PAGE: usize = 3_000;
/// The crash test's pages: a length of their own.
const CRASH_PAGE: usize = 2_000;
const PAGES: u32 = 200;

static TURN: Mutex<()> = Mutex::new(());

/// Insert `round`'s record in every page, from a thread of its own.
fn write_all(c: &PageCache<SlottedPage>, round: u8) {
    std::thread::scope(|s| {
        s.spawn(|| {
            for id in 0..PAGES {
                let f = c.frame(PageId(id)).unwrap();
                f.latch.exclusive().payload.insert(&[round; 8]).unwrap();
            }
        });
    });
}

#[test]
fn after_the_first_round_no_page_buffer_is_allocated() {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    let c = PageCache::new(FileId(1));
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..PAGES {
                c.allocate(SlottedPage::new(PAGE));
            }
        });
    });
    c.force_all(Lsn::NULL, || {}).unwrap();
    write_all(&c, 1);
    c.force_all(Lsn::NULL, || {}).unwrap();
    let first = ALLOCATED.load(Ordering::Relaxed);
    assert!(
        first >= 2 * PAGES as usize,
        "{first} page buffers allocated"
    );
    for round in 2..=6 {
        write_all(&c, round);
        c.force_all(Lsn::NULL, || {}).unwrap();
        assert_eq!(
            ALLOCATED.load(Ordering::Relaxed) - first,
            0,
            "round {round} allocated page buffers"
        );
    }
    for id in 0..PAGES {
        let frame = c.frame(PageId(id)).unwrap();
        let page = &frame.latch.share().payload;
        for round in 1..=6u8 {
            assert_eq!(
                page.get(SlotId(u16::from(round) - 1)),
                Some(&[round; 8][..])
            );
        }
    }
}

#[test]
fn a_crash_hands_its_copies_back() {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    let c = PageCache::new(FileId(2));
    for _ in 0..PAGES {
        c.allocate(SlottedPage::new(CRASH_PAGE));
    }
    write_all(&c, 1);
    c.force_all(Lsn::NULL, || {}).unwrap();
    write_all(&c, 2);
    let before = spare::bytes();
    c.crash();
    assert_eq!(
        spare::bytes() - before,
        u64::from(PAGES) * CRASH_PAGE as u64,
        "every page written since the force"
    );
    for id in 0..PAGES {
        let frame = c.frame(PageId(id)).unwrap();
        let page = &frame.latch.share().payload;
        assert_eq!(page.get(SlotId(0)), Some(&[1; 8][..]));
        assert_eq!(page.get(SlotId(1)), None, "the crash lost the write");
    }
}
