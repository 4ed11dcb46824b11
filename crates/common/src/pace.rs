//! Pace points: where the index builder gives way.
//!
//! The index builder is optional work that user transactions must
//! never queue behind. Its phases are CPU-bound loops that would
//! otherwise never enter the kernel, so on a host with as many builder
//! threads as processors every wake-up on a foreground request's path
//! (timer, reactor, executor, client read) waits out the rest of a
//! builder's scheduler slice instead of pre-empting it. [`pace`] is the
//! build's one way of yielding the processor. It is called only where
//! the builder holds no latch and no structure lock — a builder
//! de-scheduled there delays nobody — and debug builds check exactly
//! that through the [`Held`] token every latch guard carries.
//!
//! Rule of thumb for placing calls: no stretch of builder work between
//! two pace points longer than ≈ 100 µs, no pace point more often than
//! every ≈ 10 µs. Loops whose step is shorter than that go through a
//! [`Ticker`].

use crate::stats::Counter;
#[cfg(debug_assertions)]
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::LazyLock;
use std::time::Instant;

/// Steps per pace point where a step is one merged key (≈ 0.3–1.5 µs:
/// merge output, bulk-load append, NSF tree insert).
pub const KEYS_PER_PACE: u32 = 64;

/// Steps per pace point where a step is one page encode or one drained
/// side-file operation (≈ 2–5 µs).
pub const OPS_PER_PACE: u32 = 16;

/// Pace points passed by every thread of the process.
static POINTS: Counter = Counter::new();

#[cfg(debug_assertions)]
thread_local! {
    /// Latch guards the current thread holds.
    static HELD: Cell<u32> = const { Cell::new(0) };
}

/// No builder thread yields before this instant (nanoseconds since
/// [`EPOCH`]).
static RUN_UNTIL: AtomicU64 = AtomicU64::new(0);
static EPOCH: LazyLock<Instant> = LazyLock::new(Instant::now);

fn now_ns() -> u64 {
    EPOCH.elapsed().as_nanos() as u64
}

/// Give the processor to whoever is runnable. The caller must hold no
/// latch guard (checked in debug builds).
///
/// What the builders give away is bounded at half. With an idle
/// processor to spare a yield returns in well under a microsecond, and
/// one that lets a foreground request run returns in tens of
/// microseconds. Against threads that are *always* runnable the kernel
/// charges each yield a whole scheduler slice, and a builder that
/// yielded every 50 µs of work would be left with a hundredth of its
/// share — a build that never ends while the updaters it is waiting
/// out keep adding work for it. So after a yield that kept a builder
/// off the processor for a time *d*, no builder thread yields for the
/// next *d*. (One window for all of them, not one each: two builder
/// threads sharing a processor would each see the other's non-yielding
/// stretch as their own *d* and hand an ever longer stretch back and
/// forth for the rest of the phase. With one window they stop yielding
/// together and start again together.)
pub fn pace() {
    #[cfg(debug_assertions)]
    HELD.with(|h| {
        debug_assert_eq!(h.get(), 0, "pace() called with a latch guard held");
    });
    POINTS.bump();
    let before = now_ns();
    if before < RUN_UNTIL.load(Ordering::Relaxed) {
        return;
    }
    std::thread::yield_now();
    let after = now_ns();
    RUN_UNTIL.fetch_max(after + (after - before), Ordering::Relaxed);
}

/// Pace points passed so far, process-wide (`build.pace_points`).
#[must_use]
pub fn points() -> u64 {
    POINTS.get()
}

/// Calls [`pace`] on every `every`-th [`Ticker::tick`].
#[derive(Debug)]
pub struct Ticker {
    every: u32,
    n: u32,
}

impl Ticker {
    /// A ticker that paces once per `every` ticks.
    #[must_use]
    pub fn new(every: u32) -> Ticker {
        Ticker { every, n: 0 }
    }

    /// One step done; the caller holds no latch guard.
    pub fn tick(&mut self) {
        self.n += 1;
        if self.n >= self.every {
            self.n = 0;
            pace();
        }
    }
}

/// Proof of one held latch guard: every S/X guard of `storage::latch`
/// owns one from grant to release. Debug builds count them per thread
/// for [`pace`]'s check; release builds compile it to nothing. Not
/// `Send`: a guard is released on the thread that acquired it.
#[derive(Debug)]
pub struct Held(std::marker::PhantomData<*const ()>);

impl Held {
    /// Count one more guard held by this thread.
    #[must_use]
    pub fn new() -> Held {
        #[cfg(debug_assertions)]
        HELD.with(|h| h.set(h.get() + 1));
        Held(std::marker::PhantomData)
    }
}

impl Default for Held {
    fn default() -> Held {
        Held::new()
    }
}

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        HELD.with(|h| h.set(h.get() - 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // `POINTS` is process-wide and the tests of this crate run on
    // parallel threads, so these assert lower bounds only; the exact
    // counts are pinned by `crates/oib/tests/pace_count.rs`, which has
    // its process to itself.

    #[test]
    fn pace_counts_a_point() {
        let before = points();
        pace();
        assert!(points() > before);
    }

    #[test]
    fn ticker_paces_at_the_end_of_a_block() {
        let mut t = Ticker::new(4);
        for _ in 0..3 {
            t.tick();
        }
        let before = points();
        t.tick();
        assert!(points() > before);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn held_tokens_nest_and_release() {
        let a = Held::new();
        let b = Held::new();
        assert_eq!(HELD.with(Cell::get), 2);
        drop(a);
        drop(b);
        assert_eq!(HELD.with(Cell::get), 0);
        pace();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "latch guard held")]
    fn pace_with_a_token_held_panics() {
        let _h = Held::new();
        pace();
    }
}
